//! The Bitcoin canister as a replicated state machine on the simulated IC.
//!
//! Wraps [`BitcoinCanisterState`] in the `icbtc-ic` execution model: a
//! typed method interface, instruction metering per call, and cycles
//! charges per the fee schedule (§IV-B).

use icbtc_bitcoin::encode::{Reader, Sink};
use icbtc_bitcoin::hash::Sha256;
use icbtc_bitcoin::Address;
use icbtc_core::GetSuccessorsResponse;
use icbtc_ic::cycles::{self, Cycles};
use icbtc_ic::subnet::{ExecutionContext, StateMachine};
use icbtc_ic::Meter;
use icbtc_sim::obs::{FieldValue, Obs, INSTRUCTION_BOUNDS};

use crate::api::{ApiError, GetBalanceResponse, GetMetricsResponse, GetUtxosResponse, UtxosFilter};
use crate::metering;
use crate::qcache::QueryCache;
use crate::state::{take_sized, BitcoinCanisterState, IngestReport, Section};
use crate::storage::StorageError;

/// Magic prefix of the canister checkpoint envelope, wrapping the
/// full-state snapshot plus the replicated counters.
const CHECKPOINT_MAGIC: &[u8; 8] = b"ICBTCCKP";
/// Bumped on any layout change; restores reject other versions.
const CHECKPOINT_VERSION: u16 = 1;

/// A call into the Bitcoin canister's API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CanisterCall {
    /// `get_utxos(address, filter)`.
    GetUtxos {
        /// The address queried.
        address: Address,
        /// Optional confirmations/pagination filter.
        filter: Option<UtxosFilter>,
    },
    /// `get_balance(address, min_confirmations)`.
    GetBalance {
        /// The address queried.
        address: Address,
        /// Minimum confirmations (0 = current best view).
        min_confirmations: u32,
    },
    /// `send_transaction(bytes)`.
    SendTransaction {
        /// The serialized transaction.
        transaction: Vec<u8>,
    },
    /// `get_current_fee_percentiles()`.
    GetFeePercentiles,
    /// `get_block_headers(start_height, end_height)`.
    GetBlockHeaders {
        /// First height requested (inclusive).
        start_height: u64,
        /// Last height requested (inclusive; clamped to the tip).
        end_height: u64,
    },
    /// `get_metrics()` — the observability endpoint, mirroring the
    /// production canister's `/metrics` HTTP query.
    GetMetrics,
}

impl CanisterCall {
    /// The API method name, used as the `method` metric label.
    pub fn method(&self) -> &'static str {
        match self {
            CanisterCall::GetUtxos { .. } => "get_utxos",
            CanisterCall::GetBalance { .. } => "get_balance",
            CanisterCall::SendTransaction { .. } => "send_transaction",
            CanisterCall::GetFeePercentiles => "get_current_fee_percentiles",
            CanisterCall::GetBlockHeaders { .. } => "get_block_headers",
            CanisterCall::GetMetrics => "get_metrics",
        }
    }
}

/// A successful reply from the canister.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CanisterReply {
    /// Reply to [`CanisterCall::GetUtxos`].
    Utxos(GetUtxosResponse),
    /// Reply to [`CanisterCall::GetBalance`].
    Balance(GetBalanceResponse),
    /// Reply to [`CanisterCall::SendTransaction`]: the accepted txid.
    TransactionSent(icbtc_bitcoin::Txid),
    /// Reply to [`CanisterCall::GetFeePercentiles`].
    FeePercentiles(Vec<u64>),
    /// Reply to [`CanisterCall::GetBlockHeaders`].
    BlockHeaders(crate::api::GetBlockHeadersResponse),
    /// Reply to [`CanisterCall::GetMetrics`].
    Metrics(GetMetricsResponse),
}

impl CanisterReply {
    /// The reply's serialized wire size in bytes — the single source of
    /// truth for response-transfer modeling ([`StateMachine::output_bytes`])
    /// and for the query cache's per-byte hit copy charge.
    pub fn serialized_size(&self) -> u64 {
        match self {
            CanisterReply::Utxos(r) => 64 + r.utxos.len() as u64 * 48,
            CanisterReply::Balance(_) => 16,
            CanisterReply::TransactionSent(_) => 32,
            CanisterReply::FeePercentiles(p) => 8 * p.len() as u64,
            CanisterReply::BlockHeaders(r) => 16 + r.headers.len() as u64 * 80,
            CanisterReply::Metrics(_) => 72,
        }
    }
}

/// The outcome of one canister call: the reply (or API error) plus the
/// cycles charged for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallOutcome {
    /// The API-level result.
    pub reply: Result<CanisterReply, ApiError>,
    /// Cycles charged per the fee schedule.
    pub cycles_charged: Cycles,
}

/// The Bitcoin canister, pluggable into [`icbtc_ic::Subnet`].
///
/// # Examples
///
/// ```
/// use icbtc_canister::{BitcoinCanister, CanisterCall};
/// use icbtc_core::IntegrationParams;
/// use icbtc_bitcoin::{Address, AddressKind, Network};
/// use icbtc_ic::Meter;
///
/// let canister = BitcoinCanister::new(IntegrationParams::for_network(Network::Regtest));
/// let address = Address::new(Network::Regtest, AddressKind::P2wpkh([1; 20]));
/// let outcome = canister.query(
///     &CanisterCall::GetBalance { address, min_confirmations: 0 },
///     &mut Meter::new(),
/// );
/// assert!(outcome.reply.is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct BitcoinCanister {
    state: BitcoinCanisterState,
    /// Total cycles burned by replicated calls since genesis.
    cycles_burned: Cycles,
    /// Total instructions spent by replicated execution since genesis.
    /// Kept as replicated state (not read back from the node-local
    /// metrics registry) so `get_metrics` answers identically on every
    /// replica.
    instructions_total: u64,
    /// Tip-keyed query cache, wholesale-invalidated on ingest.
    qcache: QueryCache,
    /// Observability endpoint (metrics + trace), component `"canister"`.
    obs: Obs,
}

impl BitcoinCanister {
    /// Creates a canister for the given integration parameters.
    pub fn new(params: icbtc_core::IntegrationParams) -> BitcoinCanister {
        BitcoinCanister::from_state(BitcoinCanisterState::new(params))
    }

    /// Wraps an existing (e.g. snapshot-installed) state as a canister.
    pub fn from_state(state: BitcoinCanisterState) -> BitcoinCanister {
        let mut obs = Obs::new("canister");
        obs.metrics.register_histogram("canister_call_instructions", INSTRUCTION_BOUNDS);
        obs.metrics.register_histogram("canister_ingest_instructions", INSTRUCTION_BOUNDS);
        BitcoinCanister {
            state,
            cycles_burned: 0,
            instructions_total: 0,
            qcache: QueryCache::default(),
            obs,
        }
    }

    /// Replaces the query cache (capacity experiments); entries are
    /// dropped.
    pub fn set_query_cache(&mut self, cache: QueryCache) {
        self.qcache = cache;
    }

    /// The query cache (inspection).
    pub fn query_cache(&self) -> &QueryCache {
        &self.qcache
    }

    /// Read access to the canister's observability endpoint.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Mutable access to the canister's observability endpoint.
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    /// Total cycles burned by replicated calls since genesis.
    pub fn cycles_burned(&self) -> Cycles {
        self.cycles_burned
    }

    /// Read access to the replicated state.
    pub fn state(&self) -> &BitcoinCanisterState {
        &self.state
    }

    /// Mutable access (Algorithm 2 payload processing, upgrades).
    pub fn state_mut(&mut self) -> &mut BitcoinCanisterState {
        &mut self.state
    }

    /// Builds the observability reply: the canister-side counters the
    /// production canister's `/metrics` endpoint exposes.
    pub fn get_metrics(&self) -> GetMetricsResponse {
        let (_, tip_height) = self.state.best_tip();
        GetMetricsResponse {
            main_chain_height: tip_height,
            anchor_height: self.state.anchor_height(),
            utxo_count: self.state.utxos().len() as u64,
            unstable_blocks: self.state.unstable_block_count() as u64,
            blocks_ingested: self.state.blocks_stabilized(),
            is_synced: self.state.is_synced(),
            instructions_total: self.instructions_total,
            cycles_burned: self.cycles_burned,
        }
    }

    /// Streams the checkpoint envelope into `sink`: magic, version, the
    /// replicated counters, then the full state as `state` asks. The one
    /// section list backs both [`BitcoinCanister::checkpoint_bytes`] and
    /// [`BitcoinCanister::state_hash`], as
    /// [`BitcoinCanisterState::serialize`] and
    /// [`BitcoinCanisterState::state_hash`] share theirs one layer down.
    fn envelope_into(&self, state: Section, sink: &mut dyn Sink) {
        sink.write(CHECKPOINT_MAGIC);
        sink.write(&CHECKPOINT_VERSION.to_be_bytes());
        sink.write(&self.cycles_burned.to_be_bytes());
        sink.write(&self.instructions_total.to_be_bytes());
        match state {
            Section::Image => {
                sink.write(&(self.state.sized_len() as u64).to_be_bytes());
                self.state.snapshot_into(Section::Image, sink);
            }
            Section::Digest => sink.write(&self.state.state_hash()),
        }
    }

    /// The canister checkpoint as one contiguous buffer — what
    /// `pre_upgrade` writes to stable memory and what the subnet's
    /// periodic checkpointer stores for crash catch-up: magic, version,
    /// the replicated counters, then the length-prefixed full-state
    /// snapshot. Exactly the replicated portion of the canister — the
    /// query cache, the profiler, and the metrics/trace registries are
    /// node-local and deliberately absent, which is what makes an
    /// upgrade equivalent to dropping them.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        // Magic, version, both counters and the state length, then the state.
        let mut out = Vec::with_capacity(8 + 2 + 16 + 8 + 8 + self.state.sized_len());
        self.envelope_into(Section::Image, &mut out);
        out
    }

    /// SHA-256d over `magic ‖ version ‖ cycles_burned ‖
    /// instructions_total ‖ state().state_hash()` — the per-round
    /// fingerprint the shadow-replica divergence detector compares.
    /// Covers replicated state only, so two replicas with different
    /// query-cache or profiler contents still hash identically, and
    /// costs only the unstable state while the anchor is still (see
    /// [`BitcoinCanisterState::state_hash`]).
    pub fn state_hash(&self) -> [u8; 32] {
        let mut hasher = Sha256::new();
        self.envelope_into(Section::Digest, &mut hasher);
        hasher.finalize_double()
    }

    /// Rebuilds a canister from [`BitcoinCanister::checkpoint_bytes`], as
    /// `post_upgrade` or a crash-restarted replica would: replicated
    /// state and counters are restored, node-local state (query cache,
    /// profiler, metrics, trace) starts empty.
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupt`] on a bad magic, version, embedded state
    /// snapshot, or trailing bytes.
    pub fn restore(bytes: &[u8]) -> Result<BitcoinCanister, StorageError> {
        let mut r = Reader::new(bytes);
        if r.take(8)? != CHECKPOINT_MAGIC {
            return Err(StorageError::Corrupt("bad checkpoint magic"));
        }
        if u16::from_be_bytes(r.take_array()?) != CHECKPOINT_VERSION {
            return Err(StorageError::Corrupt("unsupported checkpoint version"));
        }
        let cycles_burned = u128::from_be_bytes(r.take_array()?);
        let instructions_total = u64::from_be_bytes(r.take_array()?);
        let state = BitcoinCanisterState::deserialize(take_sized(&mut r)?)?;
        if r.remaining() > 0 {
            return Err(StorageError::Corrupt("trailing bytes in checkpoint"));
        }
        let mut canister = BitcoinCanister::from_state(state);
        canister.cycles_burned = cycles_burned;
        canister.instructions_total = instructions_total;
        Ok(canister)
    }

    /// Ingests one adapter response (Algorithm 2) with full observability:
    /// records blocks/headers accepted, stabilizations, instruction costs,
    /// and refreshed state gauges, wrapped in a `canister.ingest` span.
    pub fn ingest_response(
        &mut self,
        response: GetSuccessorsResponse,
        now_unix: u32,
        ctx: &mut ExecutionContext<'_>,
    ) -> IngestReport {
        let span = self.obs.trace.span_start(
            "canister.ingest",
            ctx.now,
            &[
                ("blocks", FieldValue::U64(response.blocks.len() as u64)),
                ("next", FieldValue::U64(response.next.len() as u64)),
            ],
        );
        let before = ctx.meter.instructions();
        // The outer frame also heals any frame a fallible inner path left
        // open, keeping the profiler balanced on error returns.
        let frame = ctx.meter.frame("ingest_response");
        let report = self.state.process_response(response, now_unix, ctx.meter);
        ctx.meter.frame_end(frame);
        let spent = ctx.meter.instructions().saturating_sub(before);

        if report.duplicate_dropped {
            // The response was a redelivered copy of the last one applied
            // (a restarted replica's adapter catching up): replicated
            // state is untouched, so the tip-keyed cache stays valid and
            // only the metered probe cost is recorded.
            self.instructions_total = self.instructions_total.saturating_add(spent);
            let m = &mut self.obs.metrics;
            m.inc("canister_ingest_duplicate_dropped_total");
            m.add("canister_instructions_total", spent);
            m.observe("canister_ingest_instructions", spent);
            self.obs.prof.merge_from(&ctx.meter.take_profile());
            self.obs.trace.span_end(
                span,
                ctx.now,
                &[
                    ("duplicate_dropped", FieldValue::U64(1)),
                    ("instructions", FieldValue::U64(spent)),
                ],
            );
            return report;
        }

        // Ingestion is the only operation that can change a query's
        // answer: wholesale-invalidate the tip-keyed query cache so no
        // replica ever serves a response computed at a superseded tip.
        let dropped = self.qcache.invalidate();

        self.instructions_total = self.instructions_total.saturating_add(spent);
        let m = &mut self.obs.metrics;
        m.add("canister_blocks_ingested_total", report.blocks_accepted as u64);
        m.add("canister_headers_ingested_total", report.headers_accepted as u64);
        m.add("canister_ingest_rejected_total", report.rejected.len() as u64);
        m.add("canister_blocks_stabilized_total", report.stabilized.len() as u64);
        m.add("canister_instructions_total", spent);
        m.observe("canister_ingest_instructions", spent);
        m.inc("canister_qcache_invalidations_total");
        m.add("canister_qcache_invalidated_entries_total", dropped);
        m.set_gauge("canister_qcache_entries", 0);
        self.obs.prof.merge_from(&ctx.meter.take_profile());
        self.refresh_state_gauges();
        self.obs.trace.span_end(
            span,
            ctx.now,
            &[
                ("accepted", FieldValue::U64(report.blocks_accepted as u64)),
                ("stabilized", FieldValue::U64(report.stabilized.len() as u64)),
                ("instructions", FieldValue::U64(spent)),
            ],
        );
        report
    }

    fn refresh_state_gauges(&mut self) {
        let (_, tip_height) = self.state.best_tip();
        let m = &mut self.obs.metrics;
        m.set_gauge("canister_main_chain_height", tip_height as i64);
        m.set_gauge("canister_anchor_height", self.state.anchor_height() as i64);
        m.set_gauge("canister_utxo_count", self.state.utxos().len() as i64);
        m.set_gauge("canister_unstable_blocks", self.state.unstable_block_count() as i64);
        m.set_gauge("canister_is_synced", self.state.is_synced() as i64);
        let storage = self.state.utxos().storage_stats();
        m.set_gauge("canister_storage_pages_allocated", storage.pages_allocated as i64);
        m.set_gauge("canister_storage_bytes_reserved", storage.bytes_reserved as i64);
        m.set_gauge("canister_storage_bytes_used", storage.bytes_used as i64);
        m.set_gauge("canister_storage_budget_headroom_bytes", storage.budget_headroom as i64);
    }

    fn dispatch(&mut self, call: CanisterCall, meter: &mut Meter) -> CallOutcome {
        match call {
            CanisterCall::SendTransaction { transaction } => {
                let size = transaction.len();
                let reply = self
                    .state
                    .send_transaction(&transaction, meter)
                    .map(CanisterReply::TransactionSent);
                CallOutcome { reply, cycles_charged: cycles::send_transaction_fee(size) }
            }
            read => self.query(&read, meter),
        }
    }

    /// Executes a call in *query* mode (single replica, read-only).
    /// `SendTransaction` is rejected in query mode — writes must be
    /// replicated.
    pub fn query(&self, call: &CanisterCall, meter: &mut Meter) -> CallOutcome {
        let reply = match call {
            CanisterCall::SendTransaction { .. } => Err(ApiError::MalformedTransaction),
            CanisterCall::GetUtxos { address, filter } => {
                self.state.get_utxos(address, filter.clone(), meter).map(CanisterReply::Utxos)
            }
            CanisterCall::GetBalance { address, min_confirmations } => self
                .state
                .get_balance(address, *min_confirmations, meter)
                .map(CanisterReply::Balance),
            CanisterCall::GetFeePercentiles => {
                Ok(CanisterReply::FeePercentiles(self.state.get_current_fee_percentiles(meter)))
            }
            CanisterCall::GetBlockHeaders { start_height, end_height } => self
                .state
                .get_block_headers(*start_height, *end_height, meter)
                .map(CanisterReply::BlockHeaders),
            CanisterCall::GetMetrics => {
                // Mirrors the production canister's metrics endpoint: an
                // unpaid read (served over HTTP query there).
                meter.charge(metering::QUERY_BASE);
                Ok(CanisterReply::Metrics(self.get_metrics()))
            }
        };
        CallOutcome { reply, cycles_charged: Self::query_fee(call, meter.instructions()) }
    }

    /// Executes a call in query mode through the tip-keyed query cache.
    ///
    /// Replies are byte-identical to [`BitcoinCanister::query`] — only
    /// the metered cost differs: a hit charges the probe
    /// ([`metering::QUERY_CACHE_LOOKUP`]) plus a per-byte copy of the
    /// reply that was serialized once at insert
    /// ([`metering::QUERY_CACHE_COPY_PER_BYTE`]), instead of the full
    /// state walk. Safety against staleness is two-fold: every key embeds the tip
    /// hash the response was computed at, and
    /// [`BitcoinCanister::ingest_response`] wholesale-invalidates the
    /// cache, so a response from a superseded tip can never be served.
    ///
    /// Cache traffic is recorded as `canister_qcache_*` counters, and the
    /// call's instruction profile is folded into the canister's profiler.
    /// These are per-replica query-plane diagnostics, not replicated
    /// state; the sim models a single querying replica, so they stay
    /// deterministic.
    pub fn query_cached(&mut self, call: &CanisterCall, meter: &mut Meter) -> CallOutcome {
        let outer = meter.frame(call.method());
        let (tip, _) = self.state.best_tip();
        let key = QueryCache::key_for(call, tip);
        let cached = match &key {
            Some(key) => {
                let lookup = meter.frame("cache_lookup");
                meter.charge(metering::QUERY_CACHE_LOOKUP);
                let cached = self.qcache.get(key);
                meter.frame_end(lookup);
                cached
            }
            None => None,
        };
        if let Some((reply, serialized_bytes)) = cached {
            let copy = meter.frame("response_serialize");
            meter.charge_per_byte(serialized_bytes as usize, metering::QUERY_CACHE_COPY_PER_BYTE);
            meter.frame_end(copy);
            meter.frame_end(outer);
            self.obs.metrics.inc("canister_qcache_hits_total");
            // Measured hit-path cost, so benches can report the realized
            // (post-optimization) per-hit instructions next to the
            // recorded pre-optimization flat cost.
            self.obs.metrics.add("canister_qcache_hit_instructions_total", meter.instructions());
            let cycles_charged = Self::query_fee(call, meter.instructions());
            self.obs.prof.merge_from(&meter.take_profile());
            return CallOutcome { reply: Ok(reply), cycles_charged };
        }
        if key.is_some() {
            self.obs.metrics.inc("canister_qcache_misses_total");
        }
        let outcome = self.query(call, meter);
        meter.frame_end(outer);
        if let (Some(key), Ok(reply)) = (key, &outcome.reply) {
            let evicted = self.qcache.insert(key, reply.clone());
            let entries = self.qcache.len() as i64;
            let m = &mut self.obs.metrics;
            m.add("canister_qcache_evictions_total", evicted);
            m.set_gauge("canister_qcache_entries", entries);
        }
        self.obs.prof.merge_from(&meter.take_profile());
        outcome
    }

    /// The fee a read pays for `instructions`; unpaid reads (metrics)
    /// and writes refused in query mode pay nothing.
    fn query_fee(call: &CanisterCall, instructions: u64) -> Cycles {
        match call {
            CanisterCall::GetUtxos { .. } => cycles::get_utxos_fee(instructions),
            CanisterCall::GetMetrics | CanisterCall::SendTransaction { .. } => 0,
            _ => cycles::get_balance_fee(instructions),
        }
    }
}

impl StateMachine for BitcoinCanister {
    type Input = CanisterCall;
    type Output = CallOutcome;

    fn execute(&mut self, input: CanisterCall, ctx: &mut ExecutionContext<'_>) -> CallOutcome {
        // Replicated calls are recorded into the canister's metrics; query
        // calls deliberately are not — queries run on a single replica, and
        // mutating replicated metrics from them would diverge the replicas.
        let method = input.method();
        let before = ctx.meter.instructions();
        let frame = ctx.meter.frame(method);
        let outcome = self.dispatch(input, ctx.meter);
        ctx.meter.frame_end(frame);
        let spent = ctx.meter.instructions().saturating_sub(before);
        let failed = outcome.reply.is_err();
        self.cycles_burned = self.cycles_burned.saturating_add(outcome.cycles_charged);
        self.instructions_total = self.instructions_total.saturating_add(spent);
        let m = &mut self.obs.metrics;
        m.inc_with("canister_calls_total", &[("method", method)]);
        if failed {
            m.inc_with("canister_call_errors_total", &[("method", method)]);
        }
        m.add("canister_instructions_total", spent);
        m.observe_with("canister_call_instructions", &[("method", method)], spent);
        m.add(
            "canister_cycles_burned_total",
            u64::try_from(outcome.cycles_charged).unwrap_or(u64::MAX),
        );
        self.obs.trace.event(
            "canister.call",
            ctx.now,
            &[
                ("method", FieldValue::Str(method)),
                ("instructions", FieldValue::U64(spent)),
                ("error", FieldValue::U64(failed as u64)),
            ],
        );
        self.obs.prof.merge_from(&ctx.meter.take_profile());
        outcome
    }

    /// Queries route through the tip-keyed cache. The cache and its
    /// counters are node-local (single serving replica in this
    /// simulation), never part of replicated state.
    fn execute_query(
        &mut self,
        input: CanisterCall,
        ctx: &mut ExecutionContext<'_>,
    ) -> CallOutcome {
        self.query_cached(&input, ctx.meter)
    }

    fn output_bytes(outcome: &CallOutcome) -> usize {
        match &outcome.reply {
            Ok(reply) => reply.serialized_size() as usize,
            Err(_) => 32,
        }
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        Some(self.checkpoint_bytes())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        *self = BitcoinCanister::restore(bytes).map_err(|error| match error {
            StorageError::Corrupt(why) => why,
            _ => "checkpoint does not fit its own storage configuration",
        })?;
        Ok(())
    }

    fn state_fingerprint(&self) -> Option<[u8; 32]> {
        Some(self.state_hash())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icbtc_bitcoin::{AddressKind, Network};
    use icbtc_core::IntegrationParams;
    use icbtc_ic::consensus::ConsensusConfig;
    use icbtc_ic::Subnet;

    fn addr(n: u8) -> Address {
        Address::new(Network::Regtest, AddressKind::P2wpkh([n; 20]))
    }

    fn canister() -> BitcoinCanister {
        BitcoinCanister::new(IntegrationParams::for_network(Network::Regtest))
    }

    #[test]
    fn runs_inside_a_subnet() {
        let mut subnet = Subnet::new(canister(), ConsensusConfig::thirteen_replicas(), 3);
        subnet.submit(CanisterCall::GetBalance { address: addr(1), min_confirmations: 0 });
        let outcome = loop {
            let report = subnet.execute_round(|_, _| {});
            if let Some(result) = report.results.into_iter().next() {
                break result;
            }
        };
        assert!(outcome.output.reply.is_ok());
        assert!(outcome.instructions > 0);
        assert!(outcome.output.cycles_charged > 0);
    }

    #[test]
    fn query_mode_rejects_writes() {
        let c = canister();
        let outcome = c.query(
            &CanisterCall::SendTransaction { transaction: vec![1, 2, 3] },
            &mut Meter::new(),
        );
        assert!(outcome.reply.is_err());
        assert_eq!(outcome.cycles_charged, 0);
    }

    #[test]
    fn cycles_follow_the_fee_schedule() {
        let c = canister();
        let mut meter = Meter::new();
        let outcome = c.query(
            &CanisterCall::GetBalance { address: addr(1), min_confirmations: 0 },
            &mut meter,
        );
        let expected = cycles::get_balance_fee(meter.instructions());
        assert_eq!(outcome.cycles_charged, expected);
        // UTXO calls cost more than balance calls (flat fee difference).
        let utxo_outcome =
            c.query(&CanisterCall::GetUtxos { address: addr(1), filter: None }, &mut Meter::new());
        assert!(utxo_outcome.cycles_charged > outcome.cycles_charged);
    }

    #[test]
    fn fee_percentiles_callable() {
        let c = canister();
        let outcome = c.query(&CanisterCall::GetFeePercentiles, &mut Meter::new());
        assert_eq!(outcome.reply, Ok(CanisterReply::FeePercentiles(Vec::new())));
    }

    #[test]
    fn checkpoint_restores_replicated_state_and_drops_node_local_state() {
        let mut c = canister();
        let call = CanisterCall::GetBalance { address: addr(1), min_confirmations: 0 };
        // Burn some replicated work and fill the query cache.
        let mut meter = Meter::new();
        let mut ctx =
            ExecutionContext { meter: &mut meter, now: icbtc_sim::SimTime::ZERO, round: 1 };
        let outcome = c.execute(call.clone(), &mut ctx);
        assert!(outcome.reply.is_ok());
        c.query_cached(&call, &mut Meter::new());
        assert_eq!(c.query_cache().len(), 1);

        let bytes = c.checkpoint_bytes();
        let restored = BitcoinCanister::restore(&bytes).unwrap();
        // Replicated portion is identical...
        assert_eq!(restored.state_hash(), c.state_hash());
        assert_eq!(restored.cycles_burned(), c.cycles_burned());
        assert_eq!(restored.get_metrics(), c.get_metrics());
        assert_eq!(restored.checkpoint_bytes(), bytes);
        // ...while node-local state starts empty: the cache entry filled
        // at the *same tip* pre-upgrade is gone, so the post-restore
        // canister can never serve a pre-upgrade reply.
        assert!(restored.query_cache().is_empty());
        assert_eq!(
            restored.obs().metrics.snapshot_json(),
            canister().obs().metrics.snapshot_json()
        );

        // Corruption is rejected, not misread, and the subnet hears why.
        assert!(BitcoinCanister::restore(&bytes[..bytes.len() - 1]).is_err());
        let mut replica = canister();
        let truncated = StateMachine::restore(&mut replica, &bytes[..bytes.len() - 1]);
        assert_eq!(truncated, Err("truncated snapshot"));
        let mut bad = bytes.clone();
        bad[3] ^= 0x40;
        assert!(BitcoinCanister::restore(&bad).is_err());
    }

    #[test]
    fn state_hash_ignores_node_local_state() {
        let mut c = canister();
        let before = c.state_hash();
        c.query_cached(
            &CanisterCall::GetBalance { address: addr(2), min_confirmations: 0 },
            &mut Meter::new(),
        );
        assert_eq!(c.query_cache().len(), 1);
        assert_eq!(c.state_hash(), before, "query-cache fills must not move the hash");
    }

    #[test]
    fn duplicate_ingest_is_counted_and_keeps_the_cache() {
        use icbtc_btcnet::miner::mine_block_on;
        use icbtc_btcnet::ChainStore;

        let mut chain = ChainStore::new(Network::Regtest);
        let block = mine_block_on(
            &chain,
            chain.tip_hash(),
            Vec::new(),
            icbtc_bitcoin::Script::new_p2wpkh(&[9; 20]),
            0,
        );
        chain.accept_block(block.clone(), 2_000_000_000).unwrap();
        let response = GetSuccessorsResponse { blocks: vec![block], next: Vec::new() };

        let mut c = canister();
        let apply = |c: &mut BitcoinCanister, response: GetSuccessorsResponse| {
            let mut meter = Meter::new();
            let mut ctx =
                ExecutionContext { meter: &mut meter, now: icbtc_sim::SimTime::ZERO, round: 1 };
            c.ingest_response(response, 2_000_000_000, &mut ctx)
        };
        let first = apply(&mut c, response.clone());
        assert!(!first.duplicate_dropped);
        // The probe itself is metered replicated work, so the *canister*
        // hash (which covers instruction counters) legitimately moves;
        // the Bitcoin state underneath must not.
        let hash_after_first = c.state().state_hash();

        // Fill the cache after the first ingest.
        let call = CanisterCall::GetBalance { address: addr(1), min_confirmations: 0 };
        c.query_cached(&call, &mut Meter::new());
        assert_eq!(c.query_cache().len(), 1);

        // Redelivery (a restarted replica's adapter catching up): a
        // metered no-op that keeps the still-valid cache.
        let second = apply(&mut c, response);
        assert!(second.duplicate_dropped);
        assert_eq!(c.state().state_hash(), hash_after_first);
        assert_eq!(c.query_cache().len(), 1, "duplicate drop must not invalidate");
        let snapshot = c.obs().metrics.snapshot_json();
        assert!(
            snapshot.contains(
                "\"name\": \"canister_ingest_duplicate_dropped_total\", \"labels\": {}, \"value\": 1"
            ),
            "{snapshot}"
        );
        assert!(
            snapshot.contains(
                "\"name\": \"canister_qcache_invalidations_total\", \"labels\": {}, \"value\": 1"
            ),
            "only the first ingest invalidates: {snapshot}"
        );
    }

    #[test]
    fn query_cached_hits_then_invalidates_on_ingest() {
        let mut c = canister();
        let call = CanisterCall::GetBalance { address: addr(1), min_confirmations: 0 };

        // First call misses and computes through the normal query path.
        let uncached = c.query(&call, &mut Meter::new());
        let mut miss_meter = Meter::new();
        let miss = c.query_cached(&call, &mut miss_meter);
        assert_eq!(miss.reply, uncached.reply, "cache fill returns the computed reply");
        assert_eq!(c.query_cache().len(), 1);

        // Second call hits: same reply, but only the probe plus a
        // per-byte copy of the reply serialized once at cache fill.
        let mut hit_meter = Meter::new();
        let hit = c.query_cached(&call, &mut hit_meter);
        assert_eq!(hit.reply, uncached.reply, "hit serves the identical reply");
        let reply_bytes = hit.reply.as_ref().unwrap().serialized_size();
        assert_eq!(
            hit_meter.instructions(),
            metering::QUERY_CACHE_LOOKUP + reply_bytes * metering::QUERY_CACHE_COPY_PER_BYTE,
        );
        assert!(
            hit_meter.instructions() < metering::QUERY_CACHE_HIT,
            "cheaper than the pre-optimization flat re-serializing hit"
        );
        assert!(hit_meter.instructions() < miss_meter.instructions());

        // Ingesting any adapter response wipes the cache.
        let mut meter = Meter::new();
        let mut ctx =
            ExecutionContext { meter: &mut meter, now: icbtc_sim::SimTime::ZERO, round: 1 };
        c.ingest_response(GetSuccessorsResponse::default(), 0, &mut ctx);
        assert!(c.query_cache().is_empty(), "ingest invalidates wholesale");
        let snapshot = c.obs().metrics.snapshot_json();
        assert!(
            snapshot
                .contains("\"name\": \"canister_qcache_hits_total\", \"labels\": {}, \"value\": 1"),
            "{snapshot}"
        );
        assert!(
            snapshot.contains(
                "\"name\": \"canister_qcache_invalidations_total\", \"labels\": {}, \"value\": 1"
            ),
            "{snapshot}"
        );
    }

    /// The memoized UTXO-set hash and the stored txids never go stale:
    /// after every step of a chain with stabilizations, a pre-BIP34
    /// duplicate-txid re-insert, an equal-work fork that then wins a
    /// reorg next to the anchor, and a switch to a restored copy, the
    /// live hashes equal those of a restored copy (whose memo starts
    /// empty), every held body's txids equal its transactions hashed
    /// fresh, and the restored copy answers every read alike, at equal
    /// metered cost.
    #[test]
    fn state_hash_memo_matches_a_restored_copy_after_every_step() {
        use crate::utxoset::UtxoSet;
        use icbtc_bitcoin::{txids, Amount, Block, OutPoint, Transaction, TxIn, TxOut, Txid};
        use icbtc_btcnet::miner::mine_block_on;
        use icbtc_btcnet::ChainStore;

        const NOW: u32 = 2_000_000_000;
        let mut c = BitcoinCanister::new(
            IntegrationParams::for_network(Network::Regtest).with_stability_delta(2),
        );
        let state = c.state();
        let mut previous = (state.anchor_height(), state.state_hash(), state.utxos().state_hash());
        let mut round = 0;
        let reads: Vec<CanisterCall> = [0, 1, 2, 3, 4, 5, 6, 50, 51, 52, 60, 61]
            .into_iter()
            .flat_map(|n| {
                let address = addr(n);
                let utxos = |filter| CanisterCall::GetUtxos { address, filter };
                let balance = |c| CanisterCall::GetBalance { address, min_confirmations: c };
                [
                    utxos(None),
                    utxos(Some(UtxosFilter::MinConfirmations(1))),
                    utxos(Some(UtxosFilter::MinConfirmations(2))),
                    balance(0),
                    balance(1),
                    balance(2),
                ]
            })
            .chain([CanisterCall::GetFeePercentiles])
            .collect();
        let mut step = |c: &mut BitcoinCanister, block: &Block| {
            round += 1;
            let mut meter = Meter::new();
            let mut ctx =
                ExecutionContext { meter: &mut meter, now: icbtc_sim::SimTime::ZERO, round };
            let response = GetSuccessorsResponse { blocks: vec![block.clone()], next: Vec::new() };
            assert_eq!(c.ingest_response(response, NOW, &mut ctx).blocks_accepted, 1);

            let live = (c.state_hash(), c.state().state_hash(), c.state().utxos().state_hash());
            let restored = BitcoinCanister::restore(&c.checkpoint_bytes()).unwrap();
            assert_eq!(live.0, restored.state_hash(), "round {round}");
            assert_eq!(live.1, restored.state().state_hash(), "round {round}");
            let utxos = c.state().utxos();
            assert_eq!(live.2, UtxoSet::deserialize(&utxos.serialize()).unwrap().state_hash());
            let anchor = c.state().anchor_height();
            if anchor > previous.0 {
                assert_ne!(live.1, previous.1, "round {round}: anchor advanced");
                assert_ne!(live.2, previous.2, "round {round}: anchor advanced");
            }
            previous = (anchor, live.1, live.2);

            for copy in [&*c, &restored] {
                let state = copy.state();
                let held = state.tree().insertion_order();
                let bodies: Vec<_> = held.iter().filter_map(|hash| state.block(hash)).collect();
                assert_eq!(bodies.len(), state.unstable_block_count(), "round {round}");
                for body in bodies {
                    assert_eq!(body.txids(), txids(&body.block().txdata), "round {round}");
                }
            }
            for call in &reads {
                let (mut live_meter, mut restored_meter) = (Meter::new(), Meter::new());
                let live_reply = c.query(call, &mut live_meter).reply;
                assert_eq!(live_reply, restored.query(call, &mut restored_meter).reply);
                assert_eq!(live_meter.instructions(), restored_meter.instructions(), "{call:?}");
            }
            restored
        };

        // Stabilizations, with the same non-coinbase transaction in two
        // blocks: the second fold re-inserts its outpoint (pre-BIP34).
        let duplicate = Transaction {
            version: 2,
            inputs: vec![TxIn::new(OutPoint::new(Txid([0xab; 32]), 7))],
            outputs: vec![TxOut::new(Amount::from_sat(123), addr(5).script_pubkey())],
            lock_time: 0,
        };
        let mut main = ChainStore::new(Network::Regtest);
        let mut mined = Vec::new();
        for i in 0..7u8 {
            let txs = if i == 3 || i == 4 { vec![duplicate.clone()] } else { Vec::new() };
            let block = mine_block_on(&main, main.tip_hash(), txs, addr(i).script_pubkey(), 0);
            main.accept_block(block.clone(), NOW).unwrap();
            let restored = step(&mut c, &block);
            if i == 4 {
                // Carry on from a restored copy.
                c = restored;
            }
            mined.push(block);
        }
        let stable = c.state().utxos();
        assert!(stable.get(&OutPoint::new(duplicate.txid(), 0)).is_some_and(|u| u.height == 5));

        // An equal-work fork of the unstable tip block, which keeps the
        // first-seen tip, then wins by a block: a reorg next to the
        // anchor. Its second block spends an output of its first, so the
        // fee lookup resolves through an unstable body.
        let tip = mined[6].block_hash();
        let mut fork = ChainStore::new(Network::Regtest);
        for block in &mined[..6] {
            fork.accept_block(block.clone(), NOW).unwrap();
        }
        let pay = Transaction {
            version: 2,
            inputs: vec![TxIn::new(OutPoint::new(Txid([0xcd; 32]), 0))],
            outputs: vec![TxOut::new(Amount::from_sat(50_000), addr(60).script_pubkey())],
            lock_time: 0,
        };
        let spend = Transaction {
            version: 2,
            inputs: vec![TxIn::new(OutPoint::new(pay.txid(), 0))],
            outputs: vec![TxOut::new(Amount::from_sat(40_000), addr(61).script_pubkey())],
            lock_time: 0,
        };
        for (i, txs) in [vec![pay], vec![spend], Vec::new()].into_iter().enumerate() {
            let payout = addr(50 + i as u8).script_pubkey();
            let block = mine_block_on(&fork, fork.tip_hash(), txs, payout, 1);
            fork.accept_block(block.clone(), NOW).unwrap();
            step(&mut c, &block);
            if i == 0 {
                assert_eq!(c.state().best_tip().0, tip, "the first-seen tip holds the tie");
            } else if i == 1 {
                let fees = c.query(&CanisterCall::GetFeePercentiles, &mut Meter::new()).reply;
                assert!(matches!(fees, Ok(CanisterReply::FeePercentiles(p)) if !p.is_empty()));
            }
        }
        assert!(c.state().header_at_height(7).is_some_and(|h| h.block_hash() != tip));
        assert!(c.state().anchor_height() >= 7, "the fork stabilized past the reorg");
    }

    mod properties {
        use super::*;
        use icbtc_btcnet::miner::mine_block_on;
        use icbtc_btcnet::ChainStore;
        use icbtc_sim::testkit;

        /// A canister that has ingested three blocks and burned cycles.
        fn checkpoint() -> Vec<u8> {
            let mut chain = ChainStore::new(Network::Regtest);
            let mut blocks = Vec::new();
            for i in 0..3 {
                let block =
                    mine_block_on(&chain, chain.tip_hash(), Vec::new(), addr(i).script_pubkey(), 0);
                chain.accept_block(block.clone(), 2_000_000_000).unwrap();
                blocks.push(block);
            }
            let mut c = canister();
            let mut meter = Meter::new();
            let mut ctx =
                ExecutionContext { meter: &mut meter, now: icbtc_sim::SimTime::ZERO, round: 1 };
            let response = GetSuccessorsResponse { blocks, next: Vec::new() };
            assert_eq!(c.ingest_response(response, 2_000_000_000, &mut ctx).blocks_accepted, 3);
            let call = CanisterCall::GetBalance { address: addr(1), min_confirmations: 0 };
            c.execute(call, &mut ctx);
            c.checkpoint_bytes()
        }

        /// The checkpoint image and the state hash of the three-block
        /// canister, pinned so a byte change in any envelope layer fails
        /// here rather than only in the benchmark gates.
        #[test]
        fn checkpoint_bytes_and_state_hash_are_pinned() {
            let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
            let good = checkpoint();
            let restored = BitcoinCanister::restore(&good).unwrap();
            assert_eq!(good.len(), 1151);
            assert_eq!(
                hex(&icbtc_bitcoin::hash::sha256(&good)),
                "22437a2fc8f2b402a5be55cd5d7d5214931e8cfbfda953782b47c7d063b4b116"
            );
            assert_eq!(
                hex(&restored.state_hash()),
                "5d99364d31e19fee830e2f327280ddf50c0afde38d1534d1f8388c730f23ba24"
            );
        }

        /// Restore reads stable memory or a peer's checkpoint: every
        /// truncation is a typed error, and a flipped byte is either an
        /// error or restores a canister whose checkpoint is exactly those
        /// bytes. Neither ever panics.
        #[test]
        fn damaged_checkpoints_are_typed_errors_never_panics() {
            let good = checkpoint();
            assert_eq!(BitcoinCanister::restore(&good).unwrap().checkpoint_bytes(), good);
            testkit::check(0xC4_0001, testkit::DEFAULT_CASES, |rng| {
                let cut = testkit::usize_in(rng, 0..good.len());
                assert!(BitcoinCanister::restore(&good[..cut]).is_err(), "cut {cut}");

                let mut flipped = good.clone();
                let at = testkit::usize_in(rng, 0..good.len());
                flipped[at] ^= testkit::u64_in(rng, 1..256) as u8;
                if let Ok(restored) = BitcoinCanister::restore(&flipped) {
                    assert_eq!(
                        restored.checkpoint_bytes(),
                        flipped,
                        "flip at {at} is non-canonical"
                    );
                }
            });
        }
    }
}
