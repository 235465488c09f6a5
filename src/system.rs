//! The full integrated system: simulated Bitcoin network, per-replica
//! Bitcoin adapters, the IC subnet hosting the Bitcoin canister, and the
//! subnet's threshold signing key (Figure 1 / Figure 4 of the paper).
//!
//! Per IC round, the flow matches §III: the random beacon picks a block
//! maker; *that replica's* adapter answers the canister's current
//! `GetSuccessors` request; the response rides the IC block and is folded
//! into the canister state by Algorithm 2 during execution. A Byzantine
//! block maker may instead inject attacker-chosen payloads — the
//! Lemma IV.3 scenario — via [`System::set_downtime_attack`].

use icbtc_adapter::BitcoinAdapter;
use icbtc_bitcoin::{Amount, Block, Network, OutPoint, Script, Transaction, TxIn, TxOut, Txid};
use icbtc_btcnet::network::{BtcNetwork, NetworkConfig};
use icbtc_canister::{BitcoinCanister, CallOutcome, CanisterCall};
use icbtc_core::{GetSuccessorsResponse, IntegrationParams};
use icbtc_ic::consensus::ConsensusConfig;
use icbtc_ic::subnet::{StateMachine, Subnet};
use icbtc_ic::LifecyclePlan;
use icbtc_sim::obs::FieldValue;
use icbtc_sim::{SimDuration, SimRng, SimTime};
use icbtc_tecdsa::ecdsa::Signature;
use icbtc_tecdsa::protocol::{DerivationPath, ThresholdKey};

use crate::recovery::{replay_round, CatchupReport, IngestRecord, RecoveryStats, UpgradeReport};

/// Configuration of a full integrated deployment.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Bitcoin-network simulation parameters.
    pub btc: NetworkConfig,
    /// IC subnet consensus parameters.
    pub consensus: ConsensusConfig,
    /// Integration parameters (δ, τ, ℓ, …).
    pub params: IntegrationParams,
    /// Master seed for all randomness.
    pub seed: u64,
}

impl SystemConfig {
    /// A small regtest deployment: 4 Bitcoin nodes, a 13-replica subnet,
    /// δ = 6 — the local-testing setup of §III-B.
    pub fn regtest(seed: u64) -> SystemConfig {
        SystemConfig {
            btc: NetworkConfig::regtest(4),
            consensus: ConsensusConfig::thirteen_replicas(),
            params: IntegrationParams::for_network(Network::Regtest),
            seed,
        }
    }
}

/// An attacker payload source for the post-downtime scenario of
/// Lemma IV.3: Byzantine block makers deliver one fork block at a time
/// while claiming there are no further headers (`N = ∅`).
#[derive(Debug)]
pub struct DowntimeAttack {
    fork_blocks: Vec<Block>,
    next: usize,
}

impl DowntimeAttack {
    /// Creates the attack from a pre-mined fork (oldest block first).
    pub fn new(fork_blocks: Vec<Block>) -> DowntimeAttack {
        DowntimeAttack { fork_blocks, next: 0 }
    }

    /// Blocks already delivered.
    pub fn delivered(&self) -> usize {
        self.next
    }

    fn next_payload(&mut self) -> GetSuccessorsResponse {
        let blocks = match self.fork_blocks.get(self.next) {
            Some(block) => {
                self.next += 1;
                vec![block.clone()]
            }
            None => Vec::new(),
        };
        GetSuccessorsResponse { blocks, next: Vec::new() }
    }
}

/// Statistics of one replicated call through the full stack.
#[derive(Debug, Clone)]
pub struct ReplicatedOutcome {
    /// The canister's reply and cycles charge.
    pub outcome: CallOutcome,
    /// End-to-end latency experienced by the caller.
    pub latency: SimDuration,
    /// Instructions executed for the call.
    pub instructions: u64,
    /// Rounds the system stepped while waiting.
    pub rounds_waited: u64,
}

/// Statistics of one query call.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The canister's reply and cycles charge.
    pub outcome: CallOutcome,
    /// Sampled end-to-end latency.
    pub latency: SimDuration,
    /// Instructions executed.
    pub instructions: u64,
}

/// The integrated Bitcoin-on-IC system.
///
/// # Examples
///
/// ```
/// use icbtc::system::{System, SystemConfig};
///
/// let mut system = System::new(SystemConfig::regtest(7));
/// // Step a few rounds; the canister starts pulling in blocks.
/// system.run_rounds(5);
/// assert!(system.canister().state().is_synced() || system.btc().best_height() > 0);
/// ```
pub struct System {
    btc: BtcNetwork,
    subnet: Subnet<BitcoinCanister>,
    adapters: Vec<BitcoinAdapter>,
    key: ThresholdKey,
    rng: SimRng,
    attack: Option<DowntimeAttack>,
    rounds_executed: u64,
    plan: LifecyclePlan,
    ingest_log: Vec<IngestRecord>,
    shadow: Option<BitcoinCanister>,
    recovery: RecoveryStats,
}

impl System {
    /// Builds and wires the full system.
    pub fn new(config: SystemConfig) -> System {
        let mut rng = SimRng::seed_from(config.seed);
        let btc = BtcNetwork::new(config.btc.clone(), rng.next_u64());
        let n = config.consensus.n;
        let adapters: Vec<BitcoinAdapter> =
            (0..n).map(|_| BitcoinAdapter::new(config.params, rng.next_u64())).collect();
        let canister = BitcoinCanister::new(config.params);
        let subnet = Subnet::new(canister, config.consensus.clone(), rng.next_u64());
        // Threshold key: reconstruction threshold 2f+1, the certification
        // threshold of the IC.
        let f = (n - 1) / 3;
        let key = ThresholdKey::generate(n, 2 * f + 1, &mut rng);
        System {
            btc,
            subnet,
            adapters,
            key,
            rng,
            attack: None,
            rounds_executed: 0,
            plan: LifecyclePlan::none(),
            ingest_log: Vec::new(),
            shadow: None,
            recovery: RecoveryStats::default(),
        }
    }

    /// The simulated Bitcoin network.
    pub fn btc(&self) -> &BtcNetwork {
        &self.btc
    }

    /// Mutable access to the Bitcoin network (mining control, adversary
    /// injection).
    pub fn btc_mut(&mut self) -> &mut BtcNetwork {
        &mut self.btc
    }

    /// The Bitcoin canister.
    pub fn canister(&self) -> &BitcoinCanister {
        self.subnet.state()
    }

    /// The IC subnet.
    pub fn subnet(&self) -> &Subnet<BitcoinCanister> {
        &self.subnet
    }

    /// The subnet's threshold signing key.
    pub fn threshold_key(&self) -> &ThresholdKey {
        &self.key
    }

    /// One replica's adapter (inspection).
    pub fn adapter(&self, replica: usize) -> &BitcoinAdapter {
        &self.adapters[replica]
    }

    /// Current simulated time (the subnet clock; the Bitcoin network is
    /// kept caught up to it).
    pub fn now(&self) -> SimTime {
        self.subnet.now()
    }

    /// Rounds executed so far.
    pub fn rounds_executed(&self) -> u64 {
        self.rounds_executed
    }

    /// Merges every layer's metrics registry — btcnet, all adapters, the
    /// subnet, and the canister — into one deterministic snapshot. Metric
    /// names are layer-prefixed, so merging only aggregates the adapters
    /// (counters add, gauges sum across the replica fleet).
    pub fn merged_metrics(&self) -> icbtc_sim::obs::MetricsRegistry {
        let mut merged = icbtc_sim::obs::MetricsRegistry::new();
        merged.merge_from(&self.btc.obs().metrics);
        for adapter in &self.adapters {
            merged.merge_from(&adapter.obs().metrics);
        }
        merged.merge_from(&self.subnet.obs().metrics);
        merged.merge_from(&self.canister().obs().metrics);
        // Surface silent trace loss: each component's ring-buffer drop
        // count becomes a labelled gauge, so a snapshot shows whether any
        // trace dump is missing records. Adapters share a component tag
        // and aggregate by summing.
        let mut dropped: std::collections::BTreeMap<&'static str, i64> =
            std::collections::BTreeMap::new();
        for obs in std::iter::once(self.btc.obs())
            .chain(self.adapters.iter().map(|a| a.obs()))
            .chain(std::iter::once(self.subnet.obs()))
            .chain(std::iter::once(self.canister().obs()))
        {
            *dropped.entry(obs.component()).or_insert(0) += obs.trace.dropped() as i64;
        }
        for (component, count) in dropped {
            merged.set_gauge_with("trace_dropped_records", &[("component", component)], count);
        }
        merged
    }

    /// Renders the system-wide deterministic profile report: every
    /// component's frame profiler merged into one tree under a
    /// per-component root child (`canister;…`, `subnet;…`, `adapter;…`,
    /// `btcnet;…`), then rendered as a top-`top_n` self-cost table plus
    /// collapsed-stack flamegraph lines. Canister frames are denominated
    /// in metered instructions; the other layers in modeled service
    /// units. Byte-identical across same-seed runs.
    // icbtc-lint: node-local -- profile reports are per-replica diagnostics
    pub fn profile_report(&self, top_n: usize) -> String {
        let mut merged = icbtc_sim::obs::Profiler::new();
        merged.merge_under("canister", &self.canister().obs().prof);
        merged.merge_under("subnet", &self.subnet.obs().prof);
        for adapter in &self.adapters {
            merged.merge_under("adapter", &adapter.obs().prof);
        }
        merged.merge_under("btcnet", &self.btc.obs().prof);
        merged.render_report(top_n)
    }

    /// Dumps every layer's trace as JSONL: btcnet, adapter 0 (the others
    /// see statistically identical traffic), the subnet, the canister.
    /// Each line carries its component tag; within a component, records
    /// are ordered by sequence number.
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.btc.obs().trace.dump_jsonl());
        if let Some(adapter) = self.adapters.first() {
            out.push_str(&adapter.obs().trace.dump_jsonl());
        }
        out.push_str(&self.subnet.obs().trace.dump_jsonl());
        out.push_str(&self.canister().obs().trace.dump_jsonl());
        out
    }

    /// Arms the Lemma IV.3 downtime attack: while active, Byzantine block
    /// makers feed `attack`'s fork blocks one per round with `N = ∅`;
    /// honest makers keep answering from their adapters.
    pub fn set_downtime_attack(&mut self, attack: DowntimeAttack) {
        self.attack = Some(attack);
    }

    /// Disarms the attack, returning how many fork blocks were delivered.
    pub fn clear_downtime_attack(&mut self) -> usize {
        self.attack.take().map(|a| a.delivered()).unwrap_or(0)
    }

    /// Stalls the subnet (canister downtime) while the Bitcoin network
    /// keeps producing blocks.
    pub fn stall_subnet(&mut self, duration: SimDuration) {
        self.subnet.stall(duration);
        let deadline = self.subnet.now();
        self.btc.run_until(deadline);
    }

    /// Executes one IC round end-to-end: catch the Bitcoin network up to
    /// subnet time, run adapter upkeep, let the round's block maker
    /// assemble the Bitcoin payload, and execute Algorithm 2 plus the
    /// ingress batch.
    pub fn step_round(&mut self) -> icbtc_ic::RoundReport<CallOutcome> {
        // Unify the clocks: if the Bitcoin network ran ahead (e.g. the
        // driver pre-mined a chain), the subnet clock jumps forward; then
        // the network is caught up to the subnet.
        let btc_now = self.btc.now();
        if btc_now > self.subnet.now() {
            self.subnet.stall(btc_now - self.subnet.now());
        }
        let deadline = self.subnet.now();
        self.btc.run_until(deadline);
        for adapter in &mut self.adapters {
            adapter.step(&mut self.btc);
        }
        // Let adapter traffic settle within the round.
        let settle = self.rng.normal(SimDuration::from_millis(300), SimDuration::from_millis(80));
        self.btc.run_until(deadline + settle);

        let request = self.subnet.state_mut().state_mut().make_request();
        // A crash-recovery log or shadow replica needs the round's exact
        // Bitcoin payload; capture it out of the execution closure.
        let log_needed = self.shadow.is_some() || !self.plan.crashes.is_empty();
        let mut observed: Option<(GetSuccessorsResponse, u32)> = None;
        let btc = &mut self.btc;
        let adapters = &mut self.adapters;
        let attack = &mut self.attack;
        let report = self.subnet.execute_round_with(|canister, ctx, info| {
            let response = if info.maker_is_byzantine {
                match attack.as_mut() {
                    Some(active) => active.next_payload(),
                    // Without an armed attack, Byzantine makers simply
                    // contribute nothing (omission).
                    None => GetSuccessorsResponse::default(),
                }
            } else {
                adapters[info.block_maker.0 as usize].handle_request(btc, &request)
            };
            let now_unix = btc.unix_time(ctx.now);
            if log_needed {
                observed = Some((response.clone(), now_unix));
            }
            canister.ingest_response(response, now_unix, ctx);
        });
        self.rounds_executed += 1;
        if let Some((response, now_unix)) = observed {
            let record = IngestRecord {
                round: report.info.round,
                finalized_at: report.info.finalized_at,
                now_unix,
                response,
            };
            self.replay_on_shadow(&record);
            if !self.plan.crashes.is_empty() {
                self.ingest_log.push(record);
            }
        }
        self.run_lifecycle_events(report.info.round);
        report
    }

    /// Installs a deterministic lifecycle plan: configures the subnet's
    /// checkpoint cadence and input journal, starts the shadow replica if
    /// the plan wants one, and takes an immediate baseline checkpoint so
    /// even a crash before the first cadence point has something to
    /// recover from. Subsequent [`System::step_round`] calls fire the
    /// plan's upgrades, crashes, and shadow corruptions after the named
    /// rounds.
    pub fn set_lifecycle_plan(&mut self, plan: LifecyclePlan) {
        self.subnet.set_checkpoint_cadence(plan.checkpoint_every);
        self.subnet.set_input_journal(!plan.crashes.is_empty() || plan.wants_shadow());
        self.ingest_log.clear();
        self.shadow = if plan.wants_shadow() {
            // The shadow boots the way a fresh replica would: from the
            // live canister's checkpoint image, not a memory clone.
            Some(
                BitcoinCanister::restore(&self.canister().checkpoint_bytes())
                    .expect("self-produced checkpoint restores"),
            )
        } else {
            None
        };
        if plan.checkpoint_every > 0 || !plan.crashes.is_empty() {
            self.subnet.take_checkpoint();
        }
        self.plan = plan;
    }

    /// Counters over every lifecycle event injected so far.
    // icbtc-lint: node-local -- recovery statistics are harness diagnostics, never read back into replicated execution
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// The shadow replica's current state hash, if one is running.
    // icbtc-lint: node-local -- the shadow replica is a divergence detector, not part of replicated state
    pub fn shadow_state_hash(&self) -> Option<[u8; 32]> {
        self.shadow.as_ref().map(|shadow| shadow.state_hash())
    }

    /// Re-executes one finalized round on the shadow replica with
    /// [`replay_round`] (its ingress batch is still in the
    /// journal — pruning happens after), metering exactly like the live
    /// subnet and catch-up.
    fn replay_on_shadow(&mut self, record: &IngestRecord) {
        if let Some(shadow) = self.shadow.as_mut() {
            replay_round(shadow, record, self.subnet.input_journal());
        }
    }

    /// Fires the plan's events scheduled after `round`, runs the per-round
    /// divergence check, and prunes the recovery log and journal back to
    /// the latest checkpoint.
    fn run_lifecycle_events(&mut self, round: u64) {
        if self.plan.is_empty() && self.shadow.is_none() {
            return;
        }
        // Seeded corruption: deface the shadow's replicated state, then
        // let the detector below prove it notices.
        if self.plan.corruptions.contains(&round) {
            if let Some(shadow) = self.shadow.as_mut() {
                shadow.state_mut().queue_transaction(corruption_transaction(round));
                self.recovery.corruptions_injected += 1;
                self.subnet.obs_mut().metrics.inc("ic_divergence_corruptions_injected_total");
            }
        }
        // Shadow divergence check: compare per-round state hashes.
        if let Some(shadow) = self.shadow.as_ref() {
            let live = self.subnet.state().state_hash();
            let shadow_hash = shadow.state_hash();
            self.recovery.divergence_checks += 1;
            let diverged = live != shadow_hash;
            let at = self.subnet.now();
            let obs = self.subnet.obs_mut();
            obs.metrics.inc("ic_divergence_checks_total");
            if diverged {
                obs.metrics.inc("ic_divergence_detected_total");
                obs.trace.event("ic.divergence", at, &[("round", FieldValue::U64(round))]);
                self.recovery.divergence_detected += 1;
                // A diverged replica is replaced wholesale; re-seed the
                // shadow from the live canister's checkpoint image so the
                // detector is armed for the next injection.
                self.shadow = Some(
                    BitcoinCanister::restore(&self.canister().checkpoint_bytes())
                        .expect("self-produced checkpoint restores"),
                );
            }
        }
        if self.plan.upgrades.contains(&round) {
            self.upgrade_canister();
        }
        if self.plan.crashes.contains(&round) {
            self.simulate_crash_catchup();
        }
        // Once a checkpoint exists, everything at or before it is dead
        // weight for catch-up.
        let keep_after = match self.subnet.latest_checkpoint() {
            Some(checkpoint) if !self.plan.crashes.is_empty() => checkpoint.round,
            // No crashes planned: the log and journal only ever needed to
            // cover the round just replayed on the shadow.
            _ => round,
        };
        self.subnet.prune_journal_through(keep_after);
        self.ingest_log.retain(|record| record.round > keep_after);
    }

    /// Performs a canister upgrade in place: serialize to stable memory,
    /// drop the canister (including all node-local state — query cache,
    /// profiler, metrics, trace), restore from the image. Replicated
    /// state must survive byte-for-byte.
    pub fn upgrade_canister(&mut self) -> UpgradeReport {
        let before = self.canister().state_hash();
        let image = self.canister().checkpoint_bytes();
        let restored = BitcoinCanister::restore(&image)
            .expect("self-produced checkpoint restores");
        let after = restored.state_hash();
        *self.subnet.state_mut() = restored;
        self.recovery.upgrades += 1;
        let obs = self.subnet.obs_mut();
        obs.metrics.inc("ic_recovery_upgrades_total");
        obs.metrics.add("ic_recovery_upgrade_bytes_total", image.len() as u64);
        UpgradeReport { checkpoint_bytes: image.len() as u64, state_hash_preserved: before == after }
    }

    /// Simulates a replica crash/restart: restore the latest checkpoint
    /// and replay the post-checkpoint ingest log and ingress journal,
    /// then compare the recovered state hash against the live replica
    /// that never crashed. Returns `None` when no checkpoint exists yet.
    pub fn simulate_crash_catchup(&mut self) -> Option<CatchupReport> {
        let checkpoint = self.subnet.latest_checkpoint()?.clone();
        let (recovered, replayed_rounds, replayed_instructions) =
            crate::recovery::replay_catchup(&checkpoint, &self.ingest_log, self.subnet.input_journal())
                .expect("self-produced checkpoint restores");
        let mttr = icbtc_ic::ingress::execution_time(replayed_instructions);
        let report = CatchupReport {
            checkpoint_round: checkpoint.round,
            checkpoint_bytes: checkpoint.bytes.len() as u64,
            replayed_rounds,
            replayed_instructions,
            mttr,
            recovered_state_hash: recovered.state_hash(),
            live_state_hash: self.canister().state_hash(),
        };
        let stats = &mut self.recovery;
        stats.catchups += 1;
        if report.matches() {
            stats.catchup_matches += 1;
        }
        stats.replayed_rounds_total += replayed_rounds;
        stats.replayed_rounds_max = stats.replayed_rounds_max.max(replayed_rounds);
        stats.replayed_instructions_total += replayed_instructions;
        stats.mttr_ns_total = stats.mttr_ns_total.saturating_add(mttr.as_nanos());
        stats.mttr_ns_max = stats.mttr_ns_max.max(mttr.as_nanos());
        let at = self.subnet.now();
        let obs = self.subnet.obs_mut();
        obs.metrics.inc("ic_recovery_catchups_total");
        obs.metrics.add("ic_recovery_replayed_rounds_total", replayed_rounds);
        obs.metrics.add("ic_recovery_replay_instructions_total", replayed_instructions);
        obs.metrics.observe("ic_recovery_mttr_ns", mttr.as_nanos());
        if report.matches() {
            obs.metrics.inc("ic_recovery_catchup_matches_total");
        } else {
            obs.metrics.inc("ic_recovery_catchup_mismatches_total");
        }
        obs.trace.event(
            "ic.recovery",
            at,
            &[
                ("checkpoint_round", FieldValue::U64(checkpoint.round)),
                ("replayed_rounds", FieldValue::U64(replayed_rounds)),
                ("matched", FieldValue::U64(report.matches() as u64)),
            ],
        );
        Some(report)
    }

    /// Steps `n` rounds, discarding reports.
    pub fn run_rounds(&mut self, n: usize) {
        for _ in 0..n {
            self.step_round();
        }
    }

    /// Steps rounds until the canister holds block bodies all the way to
    /// the Bitcoin network's best height, or `max_rounds` elapse. Returns
    /// `true` on success.
    pub fn sync_canister(&mut self, max_rounds: usize) -> bool {
        let caught_up = |system: &System| {
            system.canister().state().available_tip_height() >= system.btc.best_height()
                && system.canister().state().is_synced()
        };
        for _ in 0..max_rounds {
            if caught_up(self) {
                return true;
            }
            self.step_round();
        }
        caught_up(self)
    }

    /// Issues a replicated (update) call and steps rounds until its
    /// certified response is available.
    pub fn replicated(&mut self, call: CanisterCall) -> ReplicatedOutcome {
        let id = self.subnet.submit(call);
        let mut rounds = 0;
        loop {
            let report = self.step_round();
            rounds += 1;
            if let Some(result) = report.results.into_iter().find(|r| r.id == id) {
                return ReplicatedOutcome {
                    latency: result.latency(),
                    instructions: result.instructions,
                    outcome: result.output,
                    rounds_waited: rounds,
                };
            }
            assert!(rounds < 10_000, "replicated call starved");
        }
    }

    /// Issues a query (single-replica, non-certified) call.
    pub fn query(&mut self, call: CanisterCall) -> QueryOutcome {
        let (outcome, instructions, latency) = self.subnet.query(
            |canister, meter| canister.query(&call, meter),
            BitcoinCanister::output_bytes,
        );
        QueryOutcome { outcome, latency, instructions }
    }

    /// Issues a query through the serving replica's tip-keyed query
    /// cache. Replies are identical to [`System::query`]; repeated calls
    /// at an unchanged tip are served at the flat cache-hit cost.
    pub fn query_cached(&mut self, call: CanisterCall) -> QueryOutcome {
        let (outcome, instructions, latency) = self.subnet.query(
            |canister, meter| canister.query_cached(&call, meter),
            BitcoinCanister::output_bytes,
        );
        QueryOutcome { outcome, latency, instructions }
    }

    /// Mines `blocks` Bitcoin blocks paying their coinbases to `address`
    /// and propagates them — the standard way to fund a wallet on
    /// regtest. The canister must be re-synced afterwards to see them.
    pub fn fund_address(&mut self, address: &icbtc_bitcoin::Address, blocks: usize) {
        let script = address.script_pubkey();
        for _ in 0..blocks {
            self.btc.mine_block_paying(icbtc_btcnet::NodeId(0), script.clone());
            // Give gossip a moment between blocks.
            let now = self.btc.now();
            self.btc.run_until(now + SimDuration::from_secs(2));
        }
    }

    /// Steps rounds until `txid` appears in a block on node 0's best
    /// chain, forcing a Bitcoin block every `blocks_every` rounds so the
    /// mempool drains promptly. Returns the confirmation height, or
    /// `None` after `max_rounds`.
    pub fn await_transaction_mined(
        &mut self,
        txid: icbtc_bitcoin::Txid,
        max_rounds: usize,
    ) -> Option<u64> {
        for round in 0..max_rounds {
            self.step_round();
            if round % 8 == 7 {
                // Force periodic block production so the test is not at
                // the mercy of the Poisson process.
                self.btc.mine_block_paying(
                    icbtc_btcnet::NodeId(0),
                    icbtc_bitcoin::Script::new_op_return(b"awaiting"),
                );
            }
            let chain = self.btc.node(icbtc_btcnet::NodeId(0)).chain();
            for (height, hash) in chain.best_chain().iter().enumerate().rev() {
                let Some(block) = chain.block(hash) else { continue };
                if block.txdata.iter().any(|t| t.txid() == txid) {
                    return Some(height as u64);
                }
            }
        }
        None
    }

    /// Threshold-signs `digest` under the key derived at `path`, using
    /// the 2f+1 lowest-indexed honest replicas. The resulting signature
    /// verifies under `threshold_key().derived_public_key(path)`.
    ///
    /// # Panics
    ///
    /// Panics if combination fails, which cannot happen with honest
    /// majority participation.
    pub fn sign_with_ecdsa(&mut self, path: &DerivationPath, digest: [u8; 32]) -> Signature {
        let session = self.key.open_ecdsa(path, digest, &mut self.rng);
        let threshold = self.key.threshold();
        let partials: Vec<_> =
            (1..=threshold as u32).map(|i| session.partial_signature(i)).collect();
        session.combine(&partials).expect("honest quorum signs")
    }

    /// Threshold-signs `message` with BIP-340 Schnorr under the key
    /// derived at `path` — the taproot counterpart of
    /// [`System::sign_with_ecdsa`]. Returns the signature and the x-only
    /// public key it verifies under.
    ///
    /// # Panics
    ///
    /// Panics if combination fails, which cannot happen with honest
    /// majority participation.
    pub fn sign_with_schnorr(
        &mut self,
        path: &DerivationPath,
        message: [u8; 32],
    ) -> (icbtc_tecdsa::schnorr::SchnorrSignature, [u8; 32]) {
        let session = self.key.open_schnorr(path, message, &mut self.rng);
        let threshold = self.key.threshold();
        let partials: Vec<_> =
            (1..=threshold as u32).map(|i| session.partial_signature(i)).collect();
        let pubkey_x = session.public_key_x();
        (session.combine(&partials).expect("honest quorum signs"), pubkey_x)
    }
}

/// A deterministic piece of state junk for seeded shadow corruption: a
/// queued outbound transaction the live replica never saw, keyed by the
/// injection round so distinct injections produce distinct corruption.
fn corruption_transaction(round: u64) -> Transaction {
    Transaction {
        version: 2,
        inputs: vec![TxIn::new(OutPoint::new(Txid([0xC0; 32]), round as u32))],
        outputs: vec![TxOut::new(Amount::from_sat(1), Script::new_op_return(b"corrupt"))],
        lock_time: round as u32,
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("rounds", &self.rounds_executed)
            .field("btc_height", &self.btc.best_height())
            .field("anchor_height", &self.canister().state().anchor_height())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icbtc_bitcoin::{Address, AddressKind};
    use icbtc_canister::CanisterReply;

    #[test]
    fn canister_tracks_the_network() {
        let mut system = System::new(SystemConfig::regtest(1));
        // Produce some chain first.
        system.btc_mut().run_until(SimTime::from_secs(4 * 3600));
        assert!(system.btc().best_height() > 3);
        assert!(system.sync_canister(4000), "canister must catch up");
        let (_, tip) = system.canister().state().best_tip();
        assert_eq!(tip, system.btc().best_height());
        // δ = 6 on regtest: the anchor trails the tip by about δ.
        let anchor = system.canister().state().anchor_height();
        assert!(tip - anchor <= 8, "anchor {anchor} vs tip {tip}");
    }

    #[test]
    fn replicated_and_query_calls_work() {
        let mut system = System::new(SystemConfig::regtest(2));
        system.btc_mut().run_until(SimTime::from_secs(3600));
        assert!(system.sync_canister(4000));
        let address = Address::new(Network::Regtest, AddressKind::P2wpkh([1; 20]));
        let call = CanisterCall::GetBalance { address, min_confirmations: 0 };

        let replicated = system.replicated(call.clone());
        assert!(matches!(replicated.outcome.reply, Ok(CanisterReply::Balance(_))));
        let secs = replicated.latency.as_secs_f64();
        assert!((2.0..30.0).contains(&secs), "replicated latency {secs}s");

        let query = system.query(call);
        assert!(matches!(query.outcome.reply, Ok(CanisterReply::Balance(_))));
        assert!(query.latency < replicated.latency);
    }

    #[test]
    fn threshold_signing_through_the_system() {
        let mut system = System::new(SystemConfig::regtest(3));
        let path = DerivationPath::new([b"wallet-0".to_vec()]);
        let digest = [0x42u8; 32];
        let signature = system.sign_with_ecdsa(&path, digest);
        let pubkey = system.threshold_key().derived_public_key(&path);
        assert!(pubkey.verify(&digest, &signature));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut system = System::new(SystemConfig::regtest(seed));
            system.btc_mut().run_until(SimTime::from_secs(2 * 3600));
            system.run_rounds(50);
            (
                system.btc().best_height(),
                system.canister().state().anchor_height(),
                system.canister().state().best_tip().0,
            )
        };
        assert_eq!(run(11), run(11));
    }
}
