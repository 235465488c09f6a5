//! `recovery`: a subnet hosting the soak state, with one pre-mined block
//! and a few replicated `GetBalance` calls per round.
//!
//! The subnet checkpoints every 8 rounds with its input journal on. A
//! shadow replica booted with `restore(checkpoint_bytes())` re-executes
//! each round's ingest and journaled calls, and its `state_hash` is
//! compared with the live one every round. Crash catch-ups at scheduled
//! rounds go through `icbtc::recovery::replay_catchup`, one scheduled
//! upgrade round-trips the canister through its checkpoint, and one seeded
//! corruption is injected with `state_mut().queue_transaction` and must be
//! detected. These are the semantics of `System::run_lifecycle_events`,
//! applied to a state `System` cannot be built with. The checkpoint layer
//! (state hash, serialization, restore) dominates here and nowhere else.

use icbtc::bitcoin::{Amount, Block, OutPoint, Script, Transaction, TxIn, TxOut, Txid};
use icbtc::canister::{BitcoinCanister, CanisterCall};
use icbtc::core::GetSuccessorsResponse;
use icbtc::ic::consensus::ConsensusConfig;
use icbtc::ic::{ExecutionContext, LifecyclePlan, Meter, StateMachine, Subnet};
use icbtc::recovery::{replay_catchup, IngestRecord, RecoveryStats};
use icbtc::sim::SimRng;
use icbtc_bench::workload::build_soak_workload;

use crate::canister::TracedCanister;
use crate::trace::{self, span};
use crate::{timed, Episode};

/// Synthetic addresses in the soak state.
pub const ADDRESSES: usize = 3_000;
/// Divisor on the paper's per-address UTXO counts.
pub const UTXO_SCALE: usize = 250;
/// Rounds per episode: few, so that one run repeats every round about ten
/// times (see `report::round_profile_ms`).
pub const ROUNDS: u64 = 48;
/// Replicated `GetBalance` calls submitted per round.
pub const CALLS_PER_ROUND: usize = 4;
/// Checkpoint cadence, in rounds.
pub const CHECKPOINT_EVERY: u64 = 8;

/// The benchmark's lifecycle schedule: fixed checkpoint, crash and
/// upgrade rounds, and one corruption at a round drawn from `seed`.
pub fn plan(seed: u64) -> LifecyclePlan {
    let upgrades = vec![35];
    // Five rounds after every checkpoint: the crash rounds outnumber the
    // round p90's tail, so it lands among rounds of one kind.
    let crashes = vec![5, 13, 21, 29, 37, 45];
    let mut rng = SimRng::seed_from(seed.wrapping_add(0x7ec0));
    let corruption = loop {
        let round = CHECKPOINT_EVERY + 1 + rng.below(ROUNDS - CHECKPOINT_EVERY);
        if !upgrades.contains(&round) && !crashes.contains(&round) {
            break round;
        }
    };
    LifecyclePlan {
        checkpoint_every: CHECKPOINT_EVERY,
        upgrades,
        crashes,
        shadow: true,
        corruptions: vec![corruption],
    }
}

/// Boots a replica the way a fresh one would: from the canister's
/// checkpoint image, not a memory clone.
fn boot_from(canister: &BitcoinCanister) -> BitcoinCanister {
    let image = span("canister.checkpoint_bytes", || canister.checkpoint_bytes());
    span("canister.restore", || BitcoinCanister::restore(&image))
        .expect("self-produced checkpoint restores")
}

fn state_hash(canister: &BitcoinCanister) -> [u8; 32] {
    span("canister.state_hash", || canister.state_hash())
}

/// A deterministic piece of state junk for the seeded shadow corruption:
/// a queued outbound transaction the live replica never saw.
fn corruption_transaction(round: u64) -> Transaction {
    Transaction {
        version: 2,
        inputs: vec![TxIn::new(OutPoint::new(Txid([0xC0; 32]), round as u32))],
        outputs: vec![TxOut::new(
            Amount::from_sat(1),
            Script::new_op_return(b"corrupt"),
        )],
        lock_time: round as u32,
    }
}

/// What one round did.
#[derive(Debug, Default, Clone)]
pub struct RoundOutcome {
    /// Blocks the live canister accepted.
    pub accepted: u64,
    /// Metered instructions of the round's payload.
    pub instructions: u64,
    /// Replicated calls completed.
    pub calls: u64,
    /// Replicated calls answered with an error.
    pub call_errors: u64,
    /// The shadow diverged from the live replica this round.
    pub diverged: bool,
    /// A corruption was injected into the shadow this round.
    pub corrupted: bool,
    /// Catch-ups run this round: whether each reconverged, and the host
    /// time of its `replay_catchup` (restore plus replay).
    pub catchups: Vec<(bool, u64)>,
    /// Upgrades run this round, and whether each preserved the state hash.
    pub upgrades: Vec<bool>,
}

/// A subnet under a lifecycle plan, driven as `System::step_round` and
/// `System::run_lifecycle_events` drive theirs.
pub struct RecoveryRun {
    /// The subnet hosting the live canister.
    pub subnet: Subnet<TracedCanister>,
    shadow: Option<BitcoinCanister>,
    plan: LifecyclePlan,
    log: Vec<IngestRecord>,
    /// Counters over every lifecycle event so far.
    pub stats: RecoveryStats,
}

impl RecoveryRun {
    /// Hosts `canister` on a fresh subnet and installs `plan`: checkpoint
    /// cadence and journal, the shadow replica, and a baseline checkpoint.
    pub fn new(canister: BitcoinCanister, seed: u64, plan: LifecyclePlan) -> RecoveryRun {
        let mut subnet = Subnet::new(
            TracedCanister::new(canister),
            ConsensusConfig::thirteen_replicas(),
            seed,
        );
        subnet.set_checkpoint_cadence(plan.checkpoint_every);
        subnet.set_input_journal(!plan.crashes.is_empty() || plan.wants_shadow());
        let shadow = plan
            .wants_shadow()
            .then(|| boot_from(&subnet.state().inner));
        if plan.checkpoint_every > 0 || !plan.crashes.is_empty() {
            subnet.take_checkpoint();
        }
        RecoveryRun {
            subnet,
            shadow,
            plan,
            log: Vec::new(),
            stats: RecoveryStats::default(),
        }
    }

    /// The live canister.
    pub fn canister(&self) -> &BitcoinCanister {
        &self.subnet.state().inner
    }

    /// Submits `calls`, executes one round ingesting `block`, re-executes
    /// it on the shadow, and fires the plan's events for the round.
    pub fn step_round(&mut self, block: Block, calls: Vec<CanisterCall>) -> RoundOutcome {
        for call in calls {
            self.subnet.submit(call);
        }
        let log_needed = self.shadow.is_some() || !self.plan.crashes.is_empty();
        let now_unix = block.header.time + 60;
        let response = GetSuccessorsResponse {
            blocks: vec![block],
            next: Vec::new(),
        };
        let mut observed = None;
        let mut accepted = 0;
        let subnet = &mut self.subnet;
        let report = span("ic.round", || {
            subnet.execute_round(|canister, ctx| {
                if log_needed {
                    observed = Some(response.clone());
                }
                let ingest = span("canister.ingest", || {
                    canister.inner.ingest_response(response, now_unix, ctx)
                });
                accepted = ingest.blocks_accepted as u64;
            })
        });
        let mut outcome = RoundOutcome {
            accepted,
            instructions: report.payload_instructions,
            calls: report.results.len() as u64,
            call_errors: report
                .results
                .iter()
                .filter(|r| r.output.reply.is_err())
                .count() as u64,
            ..RoundOutcome::default()
        };
        let round = report.info.round;
        if let Some(response) = observed {
            let record = IngestRecord {
                round,
                finalized_at: report.info.finalized_at,
                now_unix,
                response,
            };
            span("shadow.reexec", || self.replay_on_shadow(&record));
            if !self.plan.crashes.is_empty() {
                self.log.push(record);
            }
        }
        self.run_lifecycle_events(round, &mut outcome);
        outcome
    }

    /// `System::replay_on_shadow`: the round's adapter response, then its
    /// journaled ingress batch, each under a fresh meter.
    fn replay_on_shadow(&mut self, record: &IngestRecord) {
        let Some(shadow) = self.shadow.as_mut() else {
            return;
        };
        let mut meter = Meter::new();
        let mut ctx = ExecutionContext {
            meter: &mut meter,
            now: record.finalized_at,
            round: record.round,
        };
        shadow.ingest_response(record.response.clone(), record.now_unix, &mut ctx);
        for entry in self
            .subnet
            .input_journal()
            .iter()
            .filter(|e| e.round == record.round)
        {
            for input in &entry.inputs {
                let mut meter = Meter::new();
                let mut ctx = ExecutionContext {
                    meter: &mut meter,
                    now: record.finalized_at,
                    round: record.round,
                };
                shadow.execute(input.clone(), &mut ctx);
            }
        }
    }

    /// `System::run_lifecycle_events`: corruption, the divergence check,
    /// upgrades, crash catch-ups, then pruning back to the checkpoint.
    fn run_lifecycle_events(&mut self, round: u64, outcome: &mut RoundOutcome) {
        if self.plan.corruptions.contains(&round) {
            if let Some(shadow) = self.shadow.as_mut() {
                shadow
                    .state_mut()
                    .queue_transaction(corruption_transaction(round));
                self.stats.corruptions_injected += 1;
                outcome.corrupted = true;
            }
        }
        if let Some(shadow) = self.shadow.as_ref() {
            let live = state_hash(self.canister());
            let shadow_hash = state_hash(shadow);
            self.stats.divergence_checks += 1;
            if live != shadow_hash {
                self.stats.divergence_detected += 1;
                outcome.diverged = true;
                // A diverged replica is replaced wholesale.
                self.shadow = Some(boot_from(self.canister()));
            }
        }
        if self.plan.upgrades.contains(&round) {
            let preserved = span("recovery.upgrade", || {
                let before = state_hash(self.canister());
                let restored = boot_from(self.canister());
                let after = state_hash(&restored);
                self.subnet.state_mut().inner = restored;
                before == after
            });
            self.stats.upgrades += 1;
            outcome.upgrades.push(preserved);
        }
        if self.plan.crashes.contains(&round) {
            if let Some(checkpoint) = self.subnet.latest_checkpoint().cloned() {
                let (replayed, catchup_ns) = timed("recovery.replay_catchup", || {
                    replay_catchup(&checkpoint, &self.log, self.subnet.input_journal())
                });
                let (recovered, replayed_rounds, replayed_instructions) =
                    replayed.expect("self-produced checkpoint restores");
                let matches = state_hash(&recovered) == state_hash(self.canister());
                let stats = &mut self.stats;
                stats.catchups += 1;
                stats.catchup_matches += u64::from(matches);
                stats.replayed_rounds_total += replayed_rounds;
                stats.replayed_rounds_max = stats.replayed_rounds_max.max(replayed_rounds);
                stats.replayed_instructions_total += replayed_instructions;
                outcome.catchups.push((matches, catchup_ns));
            }
        }
        let keep_after = match self.subnet.latest_checkpoint() {
            Some(checkpoint) if !self.plan.crashes.is_empty() => checkpoint.round,
            _ => round,
        };
        self.subnet.prune_journal_through(keep_after);
        self.log.retain(|record| record.round > keep_after);
    }
}

/// One episode: build the soak state and boot the shadow (set-up), run
/// the rounds under [`plan`] (measured), and check every catch-up and
/// divergence verdict as it happens.
pub fn episode(seed: u64) -> Episode {
    let mut episode = Episode::default();
    trace::set_id(0);
    let (workload, gen_ns) = timed("bench.gen", || {
        build_soak_workload(seed, ADDRESSES, UTXO_SCALE, ROUNDS as usize)
    });
    let addresses = workload.addresses;
    let (mut run, load_ns) = timed("bench.load", || {
        RecoveryRun::new(
            BitcoinCanister::from_state(workload.state),
            seed,
            plan(seed),
        )
    });
    episode.gen_ns = gen_ns;
    episode.load_ns = load_ns;

    let mut callers = SimRng::seed_from(seed.wrapping_add(0xca11));
    for (round, block) in (1..).zip(workload.ingest_blocks) {
        trace::set_id(round);
        let calls = (0..CALLS_PER_ROUND)
            .map(|_| CanisterCall::GetBalance {
                address: addresses[callers.index(addresses.len())].0,
                min_confirmations: 0,
            })
            .collect();
        let (outcome, ns) = timed("bench.round", || run.step_round(block, calls));
        episode.round_ns.push(ns);
        episode.blocks_accepted += outcome.accepted;
        episode.ingest_instructions += outcome.instructions;
        episode.check(outcome.accepted == 1, "recovery: ingest rejected");
        episode.attempted += outcome.calls;
        episode.failed += outcome.call_errors;
        if outcome.call_errors > 0 {
            eprintln!("check failed: recovery: replicated calls answered with an error");
        }
        episode.check(
            outcome.diverged == outcome.corrupted,
            &format!(
                "recovery: round {round} diverged={} corrupted={}",
                outcome.diverged, outcome.corrupted
            ),
        );
        for (matches, catchup_ns) in outcome.catchups {
            episode.sample("recovery.catchup_s", catchup_ns as f64 / 1e9);
            episode.check(
                matches,
                &format!("recovery: catch-up at round {round} did not reconverge"),
            );
        }
        for preserved in outcome.upgrades {
            episode.check(
                preserved,
                &format!("recovery: upgrade at round {round} moved the state hash"),
            );
        }
    }
    let stats = &run.stats;
    episode.check(
        stats.divergence_detected == stats.corruptions_injected && stats.corruptions_injected == 1,
        "recovery: detections equal injections",
    );
    episode.add("canister.blocks_accepted", episode.blocks_accepted as f64);
    episode.add(
        "recovery.replayed_rounds",
        stats.replayed_rounds_total as f64,
    );
    let checkpoint_bytes = run.subnet.latest_checkpoint().map_or(0, |c| c.bytes.len());
    episode.add("checkpoint.bytes", checkpoint_bytes as f64);
    episode.record_canister(run.canister());
    episode
}
