//! The replicated subnet: consensus + deterministic execution of a state
//! machine.
//!
//! A subnet hosts one replicated application state (here: the Bitcoin
//! canister) and advances it in rounds. Each round, the consensus engine
//! picks a block maker, the block's payload (ingress batch plus an
//! optional externally supplied payload, e.g. the Bitcoin adapter's
//! response) is finalized, and execution applies it deterministically
//! under instruction metering.

use icbtc_sim::obs::{FieldValue, Obs, DEFAULT_BOUNDS, INSTRUCTION_BOUNDS};
use icbtc_sim::{SimDuration, SimRng, SimTime};

use crate::consensus::{ConsensusConfig, ConsensusEngine, RoundInfo};
use crate::ingress::{self, IngressId, IngressPool};
use crate::meter::Meter;

/// A deterministically replicated application.
pub trait StateMachine {
    /// Ingress message type.
    type Input;
    /// Response type.
    type Output;

    /// Executes one finalized input, charging the meter for every
    /// operation.
    fn execute(&mut self, input: Self::Input, ctx: &mut ExecutionContext<'_>) -> Self::Output;

    /// Executes one non-replicated query against the current state.
    ///
    /// The default routes through [`StateMachine::execute`]; applications
    /// with a cheaper read path (e.g. a query cache that must not affect
    /// replicated state) override this.
    fn execute_query(&mut self, input: Self::Input, ctx: &mut ExecutionContext<'_>) -> Self::Output {
        self.execute(input, ctx)
    }

    /// Estimated wire size of an output, feeding the latency model's
    /// response-transfer component for batched queries.
    fn output_bytes(_output: &Self::Output) -> usize {
        64
    }

    /// Serializes the machine's *replicated* portion into a checkpoint a
    /// later [`StateMachine::restore`] can rebuild from. `None` (the
    /// default) means the application does not support checkpointing and
    /// the subnet's periodic checkpointer stays inert.
    fn checkpoint(&self) -> Option<Vec<u8>> {
        None
    }

    /// Replaces this machine with the state a checkpoint captured,
    /// dropping any node-local state (caches, profilers) — the
    /// `post_upgrade`/crash-restart path.
    ///
    /// # Errors
    ///
    /// A short description when the bytes are corrupt or checkpointing is
    /// unsupported; the machine must be left unchanged on error.
    fn restore(&mut self, _bytes: &[u8]) -> Result<(), &'static str> {
        Err("checkpointing not supported")
    }

    /// A deterministic fingerprint of the replicated state, used by the
    /// divergence detector to compare replicas. `None` (the default)
    /// disables comparison.
    fn state_fingerprint(&self) -> Option<[u8; 32]> {
        None
    }
}

/// A point-in-time checkpoint of a subnet's replicated state, from which
/// a crashed replica catches up.
#[derive(Debug, Clone)]
pub struct SubnetCheckpoint {
    /// The round after whose execution the checkpoint was taken.
    pub round: u64,
    /// Finalization time of that round.
    pub at: SimTime,
    /// The [`StateMachine::checkpoint`] bytes.
    pub bytes: Vec<u8>,
    /// The [`StateMachine::state_fingerprint`] at checkpoint time (zeroes
    /// if the machine does not expose one).
    pub state_hash: [u8; 32],
}

/// The finalized ingress inputs of one round — the journal entry a
/// catch-up replay re-executes on top of the latest checkpoint.
#[derive(Debug, Clone)]
pub struct JournalRound<I> {
    /// The round number.
    pub round: u64,
    /// Finalization time of the round.
    pub finalized_at: SimTime,
    /// The ingress batch, in execution order.
    pub inputs: Vec<I>,
}

/// Configuration of the batched query plane (per-round drain bound and
/// deterministic per-replica execution concurrency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryPlaneConfig {
    /// Maximum queries drained from the queue in one round.
    pub max_per_round: usize,
    /// Number of concurrent query execution lanes on the serving replica.
    /// Queries queue on the earliest-free lane, so latency under load
    /// reflects queueing delay, not just service time.
    pub concurrency: usize,
}

impl Default for QueryPlaneConfig {
    fn default() -> QueryPlaneConfig {
        QueryPlaneConfig { max_per_round: 256, concurrency: 4 }
    }
}

/// Context handed to executing canister code.
#[derive(Debug)]
pub struct ExecutionContext<'a> {
    /// The instruction meter for this message.
    pub meter: &'a mut Meter,
    /// Finalization time of the round being executed.
    pub now: SimTime,
    /// The round number.
    pub round: u64,
}

/// The result of one replicated (update) call.
#[derive(Debug, Clone)]
pub struct CallResult<O> {
    /// The ingress message id.
    pub id: IngressId,
    /// The application response.
    pub output: O,
    /// Instructions executed for this message.
    pub instructions: u64,
    /// When the certified response reached the caller.
    pub responded_at: SimTime,
    /// When the message was originally submitted.
    pub submitted_at: SimTime,
}

impl<O> CallResult<O> {
    /// End-to-end latency experienced by the caller.
    pub fn latency(&self) -> icbtc_sim::SimDuration {
        self.responded_at.saturating_since(self.submitted_at)
    }
}

/// A report of one executed round.
#[derive(Debug)]
pub struct RoundReport<O> {
    /// Consensus metadata for the round.
    pub info: RoundInfo,
    /// Completed calls, in execution order.
    pub results: Vec<CallResult<O>>,
    /// Completed batched queries, in execution order. Queries do not go
    /// through consensus; they are drained from their own bounded queue
    /// alongside the round.
    pub query_results: Vec<CallResult<O>>,
    /// Instructions spent executing the external payload (if any).
    pub payload_instructions: u64,
}

/// A subnet hosting a replicated state machine.
///
/// # Examples
///
/// ```
/// use icbtc_ic::consensus::ConsensusConfig;
/// use icbtc_ic::subnet::{ExecutionContext, StateMachine, Subnet};
///
/// struct Counter(u64);
/// impl StateMachine for Counter {
///     type Input = u64;
///     type Output = u64;
///     fn execute(&mut self, add: u64, ctx: &mut ExecutionContext<'_>) -> u64 {
///         ctx.meter.charge(10);
///         self.0 += add;
///         self.0
///     }
/// }
///
/// let mut subnet = Subnet::new(Counter(0), ConsensusConfig::thirteen_replicas(), 7);
/// subnet.submit(5);
/// // The call lands in a round once its routing delay has elapsed.
/// let output = loop {
///     let report = subnet.execute_round(|_state, _ctx| {});
///     if let Some(result) = report.results.first() {
///         break result.output;
///     }
/// };
/// assert_eq!(output, 5);
/// ```
pub struct Subnet<S: StateMachine> {
    state: S,
    engine: ConsensusEngine,
    pool: IngressPool<S::Input>,
    query_pool: IngressPool<S::Input>,
    query_config: QueryPlaneConfig,
    /// Busy-until time of each query execution lane — the deterministic
    /// queueing model behind batched query latency.
    query_lanes: Vec<SimTime>,
    rng: SimRng,
    total_instructions: u64,
    completed_calls: u64,
    completed_queries: u64,
    /// Checkpoint every N rounds (0 = off, the default — existing
    /// workloads pay nothing).
    checkpoint_every: u64,
    latest_checkpoint: Option<SubnetCheckpoint>,
    /// Post-checkpoint finalized-ingress journal, oldest first. Only
    /// recorded while [`Subnet::set_input_journal`] has enabled it.
    journal: Vec<JournalRound<S::Input>>,
    journal_enabled: bool,
    /// Observability endpoint (metrics + trace), component `"ic"`.
    obs: Obs,
}

impl<S: StateMachine> Subnet<S> {
    /// Creates a subnet around an initial application state.
    pub fn new(state: S, config: ConsensusConfig, seed: u64) -> Subnet<S> {
        let mut obs = Obs::new("ic");
        obs.metrics.register_histogram("ic_message_instructions", INSTRUCTION_BOUNDS);
        obs.metrics.register_histogram("ic_query_instructions", INSTRUCTION_BOUNDS);
        obs.metrics.register_histogram("ic_query_batch_size", DEFAULT_BOUNDS);
        let query_config = QueryPlaneConfig::default();
        Subnet {
            state,
            engine: ConsensusEngine::new(config, seed),
            pool: IngressPool::new(),
            query_pool: IngressPool::new(),
            query_lanes: vec![SimTime::ZERO; query_config.concurrency.max(1)],
            query_config,
            rng: SimRng::seed_from(seed.wrapping_add(0x1c)),
            total_instructions: 0,
            completed_calls: 0,
            completed_queries: 0,
            checkpoint_every: 0,
            latest_checkpoint: None,
            journal: Vec::new(),
            journal_enabled: false,
            obs,
        }
    }

    /// Sets the periodic checkpoint cadence: every `rounds` rounds (after
    /// the round's execution), the subnet asks the state machine for a
    /// [`StateMachine::checkpoint`]. `0` disables the checkpointer.
    pub fn set_checkpoint_cadence(&mut self, rounds: u64) {
        self.checkpoint_every = rounds;
    }

    /// The checkpoint cadence in force (0 = off).
    pub fn checkpoint_cadence(&self) -> u64 {
        self.checkpoint_every
    }

    /// Enables or disables the finalized-ingress journal that crash
    /// catch-up replays on top of the latest checkpoint.
    pub fn set_input_journal(&mut self, enabled: bool) {
        self.journal_enabled = enabled;
        if !enabled {
            self.journal.clear();
        }
    }

    /// Takes a checkpoint immediately, outside the cadence. Returns
    /// `false` when the state machine does not support checkpointing.
    pub fn take_checkpoint(&mut self) -> bool {
        let round = self.engine.round();
        let at = self.engine.now();
        self.checkpoint_now(round, at)
    }

    /// The most recent checkpoint, if any — what a crashed replica
    /// restarts from.
    // icbtc-lint: node-local -- checkpoint storage is per-replica durable state, inspected by the recovery harness, never read back into replicated execution
    pub fn latest_checkpoint(&self) -> Option<&SubnetCheckpoint> {
        self.latest_checkpoint.as_ref()
    }

    /// The finalized-ingress journal accumulated since the oldest
    /// retained round, oldest first.
    // icbtc-lint: node-local -- the journal mirrors what consensus already finalized; it is read by the catch-up replayer, never by live replicated execution
    pub fn input_journal(&self) -> &[JournalRound<S::Input>] {
        &self.journal
    }

    /// Drops journal rounds at or before `round` — called once a
    /// checkpoint makes them unnecessary for catch-up.
    pub fn prune_journal_through(&mut self, round: u64) {
        self.journal.retain(|entry| entry.round > round);
    }

    fn checkpoint_now(&mut self, round: u64, at: SimTime) -> bool {
        let Some(bytes) = self.state.checkpoint() else {
            return false;
        };
        let state_hash = self.state.state_fingerprint().unwrap_or([0; 32]);
        let m = &mut self.obs.metrics;
        m.inc("ic_checkpoint_total");
        m.add("ic_checkpoint_bytes_total", bytes.len() as u64);
        m.set_gauge("ic_checkpoint_bytes", bytes.len() as i64);
        m.set_gauge("ic_checkpoint_last_round", round as i64);
        self.obs.trace.event(
            "ic.checkpoint",
            at,
            &[
                ("round", FieldValue::U64(round)),
                ("bytes", FieldValue::U64(bytes.len() as u64)),
            ],
        );
        self.latest_checkpoint = Some(SubnetCheckpoint { round, at, bytes, state_hash });
        true
    }

    /// Replaces the query-plane configuration, resetting the lane clocks.
    pub fn set_query_plane(&mut self, config: QueryPlaneConfig) {
        self.query_lanes = vec![SimTime::ZERO; config.concurrency.max(1)];
        self.query_config = config;
    }

    /// Read access to the subnet's observability endpoint.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Mutable access to the subnet's observability endpoint.
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    /// Read access to the replicated state (for queries).
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Mutable access to the replicated state — test and upgrade hook
    /// (corresponds to a canister upgrade, which the paper notes is needed
    /// for reorganizations deeper than the stability horizon).
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// The consensus engine (round info, Byzantine bookkeeping).
    pub fn consensus(&self) -> &ConsensusEngine {
        &self.engine
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Total instructions executed since genesis.
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// Total completed replicated calls.
    pub fn completed_calls(&self) -> u64 {
        self.completed_calls
    }

    /// Total completed batched queries.
    pub fn completed_queries(&self) -> u64 {
        self.completed_queries
    }

    /// Submits an update call at the current time; it becomes includable
    /// after the sampled routing delay.
    pub fn submit(&mut self, input: S::Input) -> IngressId {
        let now = self.engine.now();
        self.submit_at(now, input)
    }

    /// Submits with an explicit submission timestamp (driver-controlled
    /// workloads).
    pub fn submit_at(&mut self, at: SimTime, input: S::Input) -> IngressId {
        self.obs.metrics.inc("ic_ingress_submitted_total");
        let routing = ingress::sample_ingress_routing(&mut self.rng);
        self.pool.submit(at, at + routing, input)
    }

    /// Submits a query at the current time; it reaches the serving replica
    /// after half a sampled query round trip and executes in the next
    /// round's bounded query batch.
    pub fn submit_query(&mut self, input: S::Input) -> IngressId {
        let now = self.engine.now();
        self.submit_query_at(now, input)
    }

    /// Submits a query with an explicit submission timestamp.
    pub fn submit_query_at(&mut self, at: SimTime, input: S::Input) -> IngressId {
        self.obs.metrics.inc("ic_query_submitted_total");
        let rtt = ingress::sample_query_rtt(&mut self.rng);
        let inbound = SimDuration::from_nanos(rtt.as_nanos() / 2);
        self.query_pool.submit(at, at + inbound, input)
    }

    /// Stalls the subnet clock without executing (models downtime).
    pub fn stall(&mut self, duration: icbtc_sim::SimDuration) {
        self.engine.stall(duration);
    }

    /// Executes one round: the external payload hook runs first (the
    /// Bitcoin payload the block maker's adapter supplied), then the
    /// ingress batch.
    pub fn execute_round(
        &mut self,
        payload: impl FnOnce(&mut S, &mut ExecutionContext<'_>),
    ) -> RoundReport<S::Output>
    where
        S::Input: Clone,
    {
        self.execute_round_with(|state, ctx, _info| payload(state, ctx))
    }

    /// Like [`Subnet::execute_round`], but the payload hook also receives
    /// the round's consensus metadata — in particular which replica is
    /// block maker, which decides whose Bitcoin adapter supplies the
    /// round's payload (and whether a Byzantine maker gets its turn).
    pub fn execute_round_with(
        &mut self,
        payload: impl FnOnce(&mut S, &mut ExecutionContext<'_>, RoundInfo),
    ) -> RoundReport<S::Output>
    where
        S::Input: Clone,
    {
        let info = self.engine.next_round();
        let span = self.obs.trace.span_start(
            "ic.round",
            info.finalized_at,
            &[
                ("round", FieldValue::U64(info.round)),
                ("maker", FieldValue::U64(info.block_maker.0 as u64)),
                ("byzantine_maker", FieldValue::U64(info.maker_is_byzantine as u64)),
            ],
        );
        self.obs.metrics.inc("ic_rounds_total");
        if info.maker_is_byzantine {
            self.obs.metrics.inc("ic_byzantine_maker_rounds_total");
        }

        let mut meter = Meter::new();
        let mut ctx = ExecutionContext { meter: &mut meter, now: info.finalized_at, round: info.round };
        payload(&mut self.state, &mut ctx, info);
        let payload_instructions = meter.take();
        self.total_instructions += payload_instructions;
        self.obs.metrics.add("ic_payload_instructions_total", payload_instructions);
        self.obs.metrics.add("ic_instructions_total", payload_instructions);
        // Attribute the round payload's modeled execution time
        // (nanoseconds) to the subnet profiler.
        let frame = self.obs.prof.enter("payload_execution");
        self.obs.prof.add(ingress::execution_time(payload_instructions).as_nanos());
        self.obs.prof.exit(frame);

        let batch = self.pool.take_ready(info.finalized_at);
        if self.journal_enabled {
            // Journal the finalized batch before execution so a catch-up
            // replay sees exactly what the live run is about to apply.
            self.journal.push(JournalRound {
                round: info.round,
                finalized_at: info.finalized_at,
                inputs: batch.iter().map(|ready| ready.payload.clone()).collect(),
            });
        }
        let mut results = Vec::with_capacity(batch.len());
        for ready in batch {
            let mut meter = Meter::new();
            let mut ctx =
                ExecutionContext { meter: &mut meter, now: info.finalized_at, round: info.round };
            let output = self.state.execute(ready.payload, &mut ctx);
            let instructions = meter.take();
            self.total_instructions += instructions;
            self.completed_calls += 1;
            self.obs.metrics.inc("ic_messages_executed_total");
            self.obs.metrics.add("ic_instructions_total", instructions);
            self.obs.metrics.observe("ic_message_instructions", instructions);
            let response_path = ingress::sample_response_path(&mut self.rng);
            let exec_time = ingress::execution_time(instructions);
            // Attribute the modeled service time (nanoseconds) to the
            // subnet profiler so the report covers the ic layer too.
            let frame = self.obs.prof.enter("message_execution");
            self.obs.prof.add(exec_time.as_nanos());
            self.obs.prof.exit(frame);
            results.push(CallResult {
                id: ready.id,
                output,
                instructions,
                responded_at: info.finalized_at + exec_time + response_path,
                submitted_at: ready.submitted_at,
            });
        }
        self.obs.metrics.set_gauge("ic_ingress_queue_depth", self.pool.len() as i64);

        // Batched query rounds: drain a bounded batch from the query
        // queue. Queries execute against the post-round state on a single
        // replica; they never go through consensus and never count toward
        // replicated instructions. Latency is modeled by queueing each
        // query on the earliest-free execution lane, so a loaded replica
        // shows genuine queueing delay.
        let query_batch = self
            .query_pool
            .take_ready_bounded(info.finalized_at, self.query_config.max_per_round);
        let mut query_results = Vec::with_capacity(query_batch.len());
        if !query_batch.is_empty() {
            self.obs.metrics.observe("ic_query_batch_size", query_batch.len() as u64);
        }
        for ready in query_batch {
            let mut meter = Meter::new();
            let mut ctx =
                ExecutionContext { meter: &mut meter, now: info.finalized_at, round: info.round };
            let output = self.state.execute_query(ready.payload, &mut ctx);
            let instructions = meter.take();
            self.completed_queries += 1;
            self.obs.metrics.inc("ic_queries_executed_total");
            self.obs.metrics.add("ic_query_instructions_total", instructions);
            self.obs.metrics.observe("ic_query_instructions", instructions);
            let service = self.profile_query_service(instructions, S::output_bytes(&output));
            let lane = (0..self.query_lanes.len())
                .min_by_key(|&lane| self.query_lanes[lane])
                .unwrap_or(0);
            let start = self.query_lanes[lane].max(ready.available_at);
            let busy_until = start + service;
            self.query_lanes[lane] = busy_until;
            let outbound_rtt = ingress::sample_query_rtt(&mut self.rng);
            let outbound = SimDuration::from_nanos(outbound_rtt.as_nanos() / 2);
            query_results.push(CallResult {
                id: ready.id,
                output,
                instructions,
                responded_at: busy_until + outbound,
                submitted_at: ready.submitted_at,
            });
        }
        self.obs.metrics.set_gauge("ic_query_queue_depth", self.query_pool.len() as i64);

        if self.checkpoint_every > 0 && info.round.is_multiple_of(self.checkpoint_every) {
            self.checkpoint_now(info.round, info.finalized_at);
        }

        self.obs.trace.span_end(
            span,
            info.finalized_at,
            &[
                ("messages", FieldValue::U64(results.len() as u64)),
                ("queries", FieldValue::U64(query_results.len() as u64)),
                ("payload_instructions", FieldValue::U64(payload_instructions)),
            ],
        );
        RoundReport { info, results, query_results, payload_instructions }
    }

    /// Runs a query against the current state on a single replica,
    /// returning the result, the instructions executed, and the sampled
    /// end-to-end latency for a response of `response_bytes(output)` bytes.
    /// The state is lent mutably for query paths that keep non-replicated
    /// node-local state such as a query cache; the call still bypasses
    /// consensus entirely.
    pub fn query<R>(
        &mut self,
        run: impl FnOnce(&mut S, &mut Meter) -> R,
        response_bytes: impl FnOnce(&R) -> usize,
    ) -> (R, u64, icbtc_sim::SimDuration) {
        let mut meter = Meter::new();
        let result = run(&mut self.state, &mut meter);
        let instructions = meter.take();
        let bytes = response_bytes(&result);
        self.profile_query_service(instructions, bytes);
        let latency = ingress::sample_query(&mut self.rng, instructions, bytes);
        (result, instructions, latency)
    }

    /// Attributes one query's modeled service time (nanoseconds) to the
    /// profiler, split into its execution and response-transfer parts,
    /// and returns the total.
    fn profile_query_service(&mut self, instructions: u64, bytes: usize) -> SimDuration {
        let exec_time = ingress::execution_time(instructions);
        let transfer_time = ingress::transfer_time(bytes);
        let frame = self.obs.prof.enter("query_service");
        let exec_frame = self.obs.prof.enter("execution");
        self.obs.prof.add(exec_time.as_nanos());
        self.obs.prof.exit(exec_frame);
        let transfer_frame = self.obs.prof.enter("transfer");
        self.obs.prof.add(transfer_time.as_nanos());
        self.obs.prof.exit(transfer_frame);
        self.obs.prof.exit(frame);
        exec_time + transfer_time
    }
}

impl<S: StateMachine> std::fmt::Debug for Subnet<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subnet")
            .field("round", &self.engine.round())
            .field("now", &self.engine.now())
            .field("total_instructions", &self.total_instructions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icbtc_sim::metrics::exact_quantile_permille;

    struct Adder {
        total: u64,
    }

    impl StateMachine for Adder {
        type Input = u64;
        type Output = u64;
        fn execute(&mut self, add: u64, ctx: &mut ExecutionContext<'_>) -> u64 {
            ctx.meter.charge(100 * add);
            self.total += add;
            self.total
        }
    }

    fn subnet(seed: u64) -> Subnet<Adder> {
        Subnet::new(Adder { total: 0 }, ConsensusConfig::thirteen_replicas(), seed)
    }

    #[test]
    fn ingress_executes_after_routing_delay() {
        let mut subnet = subnet(1);
        subnet.submit(5);
        // The first round may or may not catch the message depending on
        // the sampled routing delay; within a few rounds it must land.
        let mut outputs = Vec::new();
        for _ in 0..10 {
            let report = subnet.execute_round(|_, _| {});
            outputs.extend(report.results.into_iter().map(|r| r.output));
        }
        assert_eq!(outputs, vec![5]);
        assert_eq!(subnet.completed_calls(), 1);
        assert_eq!(subnet.state().total, 5);
    }

    #[test]
    fn metering_accumulates() {
        let mut subnet = subnet(2);
        subnet.submit(3);
        subnet.submit(4);
        for _ in 0..10 {
            subnet.execute_round(|_, _| {});
        }
        assert_eq!(subnet.total_instructions(), 700);
    }

    #[test]
    fn payload_runs_before_ingress_and_is_metered() {
        let mut subnet = subnet(3);
        subnet.submit(1);
        let mut payload_ran_first = false;
        for _ in 0..10 {
            let report = subnet.execute_round(|state, ctx| {
                ctx.meter.charge(42);
                if state.total == 0 {
                    payload_ran_first = true;
                }
                state.total += 100;
            });
            assert_eq!(report.payload_instructions, 42);
        }
        assert!(payload_ran_first);
        // 10 payloads of +100 plus the ingress +1.
        assert_eq!(subnet.state().total, 1001);
    }

    #[test]
    fn replicated_latency_matches_paper_distribution() {
        let mut subnet = subnet(4);
        let mut latencies = Vec::new();
        for _ in 0..300 {
            subnet.submit(1);
            loop {
                let report = subnet.execute_round(|_, _| {});
                if let Some(result) = report.results.first() {
                    latencies.push(result.latency().as_nanos());
                    break;
                }
            }
        }
        let mean = latencies.iter().sum::<u64>() / latencies.len() as u64;
        let min = *latencies.iter().min().unwrap();
        let p90 = *exact_quantile_permille(&mut latencies, 900).unwrap();
        assert!(mean < 10_000_000_000, "mean replicated latency {mean} ns, paper < 10 s");
        assert!(mean > 4_000_000_000, "mean implausibly low: {mean} ns");
        assert!(min > 2_000_000_000, "min {min} ns");
        assert!(p90 < 20_000_000_000, "p90 {p90} ns, paper ≈ 18 s");
    }

    #[test]
    fn queries_do_not_touch_consensus() {
        let mut subnet = subnet(5);
        let round_before = subnet.consensus().round();
        let (result, instructions, latency) = subnet.query(
            |state, meter| {
                meter.charge(1000);
                state.total
            },
            |_| 8,
        );
        assert_eq!(result, 0);
        assert_eq!(instructions, 1000);
        assert!(latency > icbtc_sim::SimDuration::ZERO);
        assert_eq!(subnet.consensus().round(), round_before);
        assert_eq!(subnet.total_instructions(), 0, "queries are not replicated work");
    }

    #[test]
    fn stall_freezes_execution_time() {
        let mut subnet = subnet(6);
        subnet.stall(icbtc_sim::SimDuration::from_secs(100));
        assert!(subnet.now() >= SimTime::from_secs(100));
        assert_eq!(subnet.consensus().round(), 0);
    }

    #[test]
    fn batched_queries_execute_without_touching_consensus_state() {
        let mut subnet = subnet(7);
        for i in 1..=5 {
            subnet.submit_query(i);
        }
        let mut completed = Vec::new();
        for _ in 0..10 {
            let report = subnet.execute_round(|_, _| {});
            assert!(report.results.is_empty());
            completed.extend(report.query_results);
        }
        assert_eq!(completed.len(), 5);
        assert_eq!(subnet.completed_queries(), 5);
        assert_eq!(subnet.completed_calls(), 0);
        assert_eq!(subnet.total_instructions(), 0, "queries are not replicated work");
        // The Adder's execute path ran (default execute_query), but only
        // against the query plane: replicated state went through `execute`
        // yet instructions stayed out of the replicated total.
        for result in &completed {
            assert!(result.instructions > 0);
            assert!(result.responded_at > result.submitted_at);
        }
    }

    #[test]
    fn query_batches_are_bounded_per_round() {
        let mut subnet = subnet(8);
        subnet.set_query_plane(QueryPlaneConfig { max_per_round: 3, concurrency: 2 });
        for i in 0..8 {
            subnet.submit_query(i);
        }
        // Let the inbound half-RTT elapse, then count per-round batches.
        subnet.stall(icbtc_sim::SimDuration::from_secs(5));
        let mut batch_sizes = Vec::new();
        while subnet.completed_queries() < 8 {
            let report = subnet.execute_round(|_, _| {});
            batch_sizes.push(report.query_results.len());
        }
        assert!(batch_sizes.iter().all(|&n| n <= 3), "{batch_sizes:?}");
        assert_eq!(batch_sizes.iter().sum::<usize>(), 8);
    }

    #[test]
    fn query_latency_grows_under_load() {
        // A saturated query plane must show queueing delay: the last
        // query of a big same-instant burst waits behind the others.
        let mut subnet = subnet(9);
        subnet.set_query_plane(QueryPlaneConfig { max_per_round: 1024, concurrency: 2 });
        for _ in 0..200 {
            subnet.submit_query(1_000_000);
        }
        subnet.stall(icbtc_sim::SimDuration::from_secs(5));
        let report = subnet.execute_round(|_, _| {});
        let latencies: Vec<_> = report.query_results.iter().map(|r| r.latency()).collect();
        assert_eq!(latencies.len(), 200);
        let first = latencies.iter().min().unwrap();
        let last = latencies.iter().max().unwrap();
        assert!(
            *last >= *first + icbtc_sim::SimDuration::from_millis(100),
            "no queueing delay visible: first {first:?}, last {last:?}"
        );
    }

    /// An Adder that checkpoints its total as 8 BE bytes.
    struct DurableAdder {
        total: u64,
    }

    impl StateMachine for DurableAdder {
        type Input = u64;
        type Output = u64;
        fn execute(&mut self, add: u64, ctx: &mut ExecutionContext<'_>) -> u64 {
            ctx.meter.charge(100 * add);
            self.total += add;
            self.total
        }
        fn checkpoint(&self) -> Option<Vec<u8>> {
            Some(self.total.to_be_bytes().to_vec())
        }
        fn restore(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
            let bytes: [u8; 8] = bytes.try_into().map_err(|_| "bad length")?;
            self.total = u64::from_be_bytes(bytes);
            Ok(())
        }
        fn state_fingerprint(&self) -> Option<[u8; 32]> {
            let mut hash = [0u8; 32];
            hash[..8].copy_from_slice(&self.total.to_be_bytes());
            Some(hash)
        }
    }

    #[test]
    fn checkpointing_is_off_by_default_and_unsupported_machines_stay_inert() {
        let mut subnet = subnet(11);
        for _ in 0..5 {
            subnet.execute_round(|_, _| {});
        }
        assert!(subnet.latest_checkpoint().is_none());
        // The plain Adder has no checkpoint support: even a manual
        // request produces nothing.
        assert!(!subnet.take_checkpoint());
        assert!(subnet.latest_checkpoint().is_none());
    }

    #[test]
    fn cadence_checkpoints_capture_post_round_state() {
        let mut subnet =
            Subnet::new(DurableAdder { total: 0 }, ConsensusConfig::thirteen_replicas(), 12);
        subnet.set_checkpoint_cadence(3);
        subnet.set_input_journal(true);
        subnet.submit(7);
        for _ in 0..9 {
            subnet.execute_round(|_, _| {});
        }
        let checkpoint = subnet.latest_checkpoint().expect("cadence must have fired").clone();
        assert_eq!(checkpoint.round % 3, 0);
        assert_eq!(checkpoint.bytes, 7u64.to_be_bytes().to_vec());
        assert_eq!(&checkpoint.state_hash[..8], &7u64.to_be_bytes());

        // Restore round-trips through the StateMachine hook.
        let mut replica = DurableAdder { total: 0 };
        replica.restore(&checkpoint.bytes).unwrap();
        assert_eq!(replica.total, 7);

        // The journal recorded every round, and the finalized input is in
        // exactly one of them; pruning through the checkpoint keeps only
        // younger rounds.
        assert_eq!(subnet.input_journal().len(), 9);
        let journaled: Vec<u64> =
            subnet.input_journal().iter().flat_map(|r| r.inputs.iter().copied()).collect();
        assert_eq!(journaled, vec![7]);
        subnet.prune_journal_through(checkpoint.round);
        assert!(subnet.input_journal().iter().all(|r| r.round > checkpoint.round));
    }

    #[test]
    fn query_plane_is_deterministic_across_same_seed_runs() {
        let run = || {
            let mut subnet = subnet(10);
            for i in 0..20 {
                subnet.submit_query(i);
            }
            let mut out = Vec::new();
            for _ in 0..10 {
                let report = subnet.execute_round(|_, _| {});
                out.extend(
                    report
                        .query_results
                        .into_iter()
                        .map(|r| (r.id, r.output, r.instructions, r.responded_at)),
                );
            }
            out
        };
        assert_eq!(run(), run());
    }
}
