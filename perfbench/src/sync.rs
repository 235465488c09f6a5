//! `sync`: the whole stack catches up from genesis to a pre-mined regtest
//! chain, then runs a short tail with a block mined every few rounds.
//!
//! The workload issues the same calls, in the same order, as
//! `System::step_round` (clock unify, `run_until`, every adapter's `step`,
//! settle, `make_request`, then the block maker's `handle_request` and
//! `ingest_response` inside `execute_round_with`), and draws its seeds in
//! `System::new`'s order, so for one seed it reaches the same canister
//! state as `System::sync_canister`. This is the only workload that
//! exercises btcnet and the adapters; the blocks are near-empty, so the
//! storage engine is almost idle.

use icbtc::adapter::BitcoinAdapter;
use icbtc::bitcoin::Script;
use icbtc::btcnet::{BtcNetwork, NodeId};
use icbtc::canister::BitcoinCanister;
use icbtc::core::GetSuccessorsResponse;
use icbtc::ic::Subnet;
use icbtc::sim::{SimDuration, SimRng};
use icbtc::system::SystemConfig;
use icbtc::tecdsa::protocol::ThresholdKey;

use crate::canister::TracedCanister;
use crate::trace::{self, span};
use crate::{timed, Episode};

/// Height of the pre-mined chain the canister catches up to.
pub const CHAIN_BLOCKS: u64 = 400;
/// Rounds run after the catch-up.
pub const TAIL_ROUNDS: u64 = 60;
/// A block is mined every this many tail rounds...
pub const TAIL_MINE_EVERY: u64 = 4;
/// ...except in the last rounds of the tail, which let the canister settle.
pub const TAIL_QUIET_ROUNDS: u64 = 12;
/// Bound on the rounds of any one phase, so a stuck sync cannot hang a run.
const MAX_PHASE_ROUNDS: u64 = 20_000;

/// What one round did.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundStats {
    /// Blocks the block maker's adapter served.
    pub served: u64,
    /// Blocks the canister accepted.
    pub accepted: u64,
    /// Blocks folded into the stable UTXO set.
    pub stabilized: u64,
    /// Blocks or headers the canister rejected.
    pub rejected: u64,
    /// Metered instructions of the round's payload.
    pub instructions: u64,
}

/// btcnet, the replicas' adapters and the subnet hosting the canister,
/// built as `System::new` builds them.
pub struct SyncStack {
    /// The simulated Bitcoin network.
    pub btc: BtcNetwork,
    /// One adapter per replica.
    pub adapters: Vec<BitcoinAdapter>,
    /// The subnet hosting the traced canister.
    pub subnet: Subnet<TracedCanister>,
    rng: SimRng,
    /// Rounds executed so far.
    pub rounds: u64,
}

impl SyncStack {
    /// Builds the regtest stack for `seed`, drawing every seed in
    /// `System::new`'s order.
    pub fn new(seed: u64) -> SyncStack {
        let config = SystemConfig::regtest(seed);
        let mut rng = SimRng::seed_from(config.seed);
        let btc = BtcNetwork::new(config.btc.clone(), rng.next_u64());
        let n = config.consensus.n;
        let adapters = (0..n)
            .map(|_| BitcoinAdapter::new(config.params, rng.next_u64()))
            .collect();
        let canister = TracedCanister::new(BitcoinCanister::new(config.params));
        let subnet = Subnet::new(canister, config.consensus.clone(), rng.next_u64());
        // Unused here, but generating it advances the rng exactly as
        // `System::new` does, so the per-round settle draws match.
        let f = (n - 1) / 3;
        let _key = ThresholdKey::generate(n, 2 * f + 1, &mut rng);
        SyncStack {
            btc,
            adapters,
            subnet,
            rng,
            rounds: 0,
        }
    }

    /// The canister.
    pub fn canister(&self) -> &BitcoinCanister {
        &self.subnet.state().inner
    }

    /// `System::sync_canister`'s stopping condition.
    pub fn caught_up(&self) -> bool {
        let state = self.canister().state();
        let available = span("canister.sync_status", || state.available_tip_height());
        available >= self.btc.best_height() && state.is_synced()
    }

    /// One round, as `System::step_round` runs it.
    pub fn step_round(&mut self) -> RoundStats {
        let btc_now = self.btc.now();
        if btc_now > self.subnet.now() {
            let behind = btc_now - self.subnet.now();
            self.subnet.stall(behind);
        }
        let deadline = self.subnet.now();
        let btc = &mut self.btc;
        span("btcnet.run_until", || btc.run_until(deadline));
        for adapter in &mut self.adapters {
            span("adapter.step", || adapter.step(btc));
        }
        let settle = self
            .rng
            .normal(SimDuration::from_millis(300), SimDuration::from_millis(80));
        span("btcnet.run_until", || btc.run_until(deadline + settle));

        let subnet = &mut self.subnet;
        let request = span("canister.make_request", || {
            subnet.state_mut().inner.state_mut().make_request()
        });
        let adapters = &mut self.adapters;
        let mut stats = RoundStats::default();
        let report = span("ic.round", || {
            subnet.execute_round_with(|canister, ctx, info| {
                let response = if info.maker_is_byzantine {
                    GetSuccessorsResponse::default()
                } else {
                    let adapter = &mut adapters[info.block_maker.0 as usize];
                    span("adapter.handle_request", || {
                        adapter.handle_request(btc, &request)
                    })
                };
                stats.served = response.blocks.len() as u64;
                let now_unix = btc.unix_time(ctx.now);
                let ingest = span("canister.ingest", || {
                    canister.inner.ingest_response(response, now_unix, ctx)
                });
                stats.accepted = ingest.blocks_accepted as u64;
                stats.stabilized = ingest.stabilized.len() as u64;
                stats.rejected = ingest.rejected.len() as u64;
            })
        });
        stats.instructions = report.payload_instructions;
        self.rounds += 1;
        stats
    }
}

/// Lets the network mine until its best height reaches `height`, in
/// ten-minute steps of simulated time.
pub fn premine(btc: &mut BtcNetwork, height: u64) {
    while btc.best_height() < height {
        let next = btc.now() + SimDuration::from_secs(600);
        btc.run_until(next);
    }
}

fn timed_round(stack: &mut SyncStack, episode: &mut Episode, mine: bool) {
    trace::set_id(stack.rounds + 1);
    let (stats, ns) = timed("bench.round", || {
        if mine {
            span("btcnet.mine_block", || {
                stack
                    .btc
                    .mine_block_paying(NodeId(0), Script::new_op_return(b"perfbench"))
            });
        }
        stack.step_round()
    });
    episode.round_ns.push(ns);
    episode.blocks_accepted += stats.accepted;
    episode.ingest_instructions += stats.instructions;
    episode.add("adapter.blocks_served", stats.served as f64);
    episode.add("canister.blocks_stabilized", stats.stabilized as f64);
    episode.add("canister.ingest_rejected", stats.rejected as f64);
}

/// One episode: build the stack and pre-mine (set-up), catch up and run
/// the tail (measured), then check the canister against btcnet.
pub fn episode(seed: u64) -> Episode {
    let mut episode = Episode::default();
    trace::set_id(0);
    let (mut stack, load_ns) = timed("bench.load", || SyncStack::new(seed));
    let ((), gen_ns) = timed("bench.gen", || premine(&mut stack.btc, CHAIN_BLOCKS));
    episode.gen_ns = gen_ns;
    episode.load_ns = load_ns;

    let messages_before = stack.btc.messages_delivered();
    let mut catchup_ns = 0;
    while !stack.caught_up() && stack.rounds < MAX_PHASE_ROUNDS {
        timed_round(&mut stack, &mut episode, false);
        catchup_ns += episode.round_ns.last().copied().unwrap_or(0);
    }
    episode.sample("sync.catchup_s", catchup_ns as f64 / 1e9);
    for tail in 1..=TAIL_ROUNDS {
        let mine = tail <= TAIL_ROUNDS - TAIL_QUIET_ROUNDS && tail.is_multiple_of(TAIL_MINE_EVERY);
        timed_round(&mut stack, &mut episode, mine);
    }
    let settle_limit = stack.rounds + MAX_PHASE_ROUNDS;
    while !stack.caught_up() && stack.rounds < settle_limit {
        timed_round(&mut stack, &mut episode, false);
    }
    episode.add(
        "btcnet.messages",
        (stack.btc.messages_delivered() - messages_before) as f64,
    );
    episode.add("canister.blocks_accepted", episode.blocks_accepted as f64);

    trace::set_id(0);
    trace::span("bench.check", || {
        let state = stack.canister().state();
        let best = stack.btc.best_height();
        episode.check(state.is_synced(), "sync: canister is synced");
        episode.check(
            state.available_tip_height() == best,
            &format!(
                "sync: available tip {} != btcnet best {best}",
                state.available_tip_height()
            ),
        );
        let anchor_height = state.anchor_height();
        let on_chain = stack
            .btc
            .node(NodeId(0))
            .chain()
            .best_chain_hash_at(anchor_height)
            == Some(state.anchor().block_hash());
        episode.check(on_chain, "sync: anchor lies on node 0's best chain");
    });
    episode.record_canister(stack.canister());
    episode
}
