//! Simulated ICP consensus: rounds, random-beacon block-maker selection,
//! deterministic finalization.
//!
//! The reproduction models consensus at the granularity the paper's
//! security argument needs (§II-A, §IV-A):
//!
//! * rounds produce exactly one finalized block each (no forks — the ICP
//!   finalization rule makes roll-backs impossible);
//! * the block maker of each round is drawn unpredictably by a random
//!   beacon, so an attacker holding `f < n/3` replicas gets the maker role
//!   with probability `< 1/3` per round — the fact Lemma IV.3's `3^{-c*}`
//!   bound rests on;
//! * round durations are sampled from a calibrated distribution to drive
//!   the latency results of §IV-B.

use icbtc_sim::{SimDuration, SimRng, SimTime};

/// A replica within a subnet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReplicaId(pub u32);

impl std::fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replica-{}", self.0)
    }
}

/// Consensus configuration for one subnet.
#[derive(Debug, Clone)]
pub struct ConsensusConfig {
    /// Number of replicas `n` (the paper's subnets run 13–40).
    pub n: usize,
    /// Number of Byzantine replicas (the *last* `byzantine` ids). Must be
    /// `< n/3` for the protocol's guarantees to hold.
    pub byzantine: usize,
}

/// Mean round duration (the subnet's block rate, IC-mainnet-like ~1 s).
const ROUND_TIME_MEAN: SimDuration = SimDuration::from_millis(1000);
/// Round duration standard deviation.
const ROUND_TIME_STD: SimDuration = SimDuration::from_millis(150);

impl ConsensusConfig {
    /// A 13-replica subnet with IC-mainnet-like ~1 s rounds.
    pub fn thirteen_replicas() -> ConsensusConfig {
        ConsensusConfig { n: 13, byzantine: 0 }
    }

    /// Maximum tolerable faults `f = ⌊(n−1)/3⌋`.
    pub fn max_faults(&self) -> usize {
        (self.n - 1) / 3
    }

    /// Returns `true` if the configured Byzantine count is within the
    /// tolerated bound.
    pub fn within_fault_bound(&self) -> bool {
        self.byzantine <= self.max_faults()
    }
}

/// The per-round outcome handed to the execution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundInfo {
    /// Round number (1-based; round 0 is genesis).
    pub round: u64,
    /// The replica the beacon selected as block maker.
    pub block_maker: ReplicaId,
    /// Whether that replica is Byzantine.
    pub maker_is_byzantine: bool,
    /// When the round's block was finalized.
    pub finalized_at: SimTime,
}

/// The consensus engine of one subnet.
///
/// # Examples
///
/// ```
/// use icbtc_ic::consensus::{ConsensusConfig, ConsensusEngine};
///
/// let mut engine = ConsensusEngine::new(ConsensusConfig::thirteen_replicas(), 42);
/// let round = engine.next_round();
/// assert_eq!(round.round, 1);
/// assert!((round.block_maker.0 as usize) < 13);
/// ```
#[derive(Debug)]
pub struct ConsensusEngine {
    config: ConsensusConfig,
    rng: SimRng,
    round: u64,
    now: SimTime,
    byzantine_maker_rounds: u64,
}

impl ConsensusEngine {
    /// Creates the engine.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or the Byzantine count reaches n/3 or more
    /// (the protocol's guarantees would be void).
    pub fn new(config: ConsensusConfig, seed: u64) -> ConsensusEngine {
        assert!(config.n > 0, "subnet needs replicas");
        assert!(
            config.within_fault_bound(),
            "byzantine count {} exceeds f = {} for n = {}",
            config.byzantine,
            config.max_faults(),
            config.n
        );
        ConsensusEngine {
            config,
            rng: SimRng::seed_from(seed),
            round: 0,
            now: SimTime::ZERO,
            byzantine_maker_rounds: 0,
        }
    }

    /// Current simulated time (the finalization time of the last round).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Completed rounds.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Rounds in which a Byzantine replica was block maker.
    pub fn byzantine_maker_rounds(&self) -> u64 {
        self.byzantine_maker_rounds
    }

    /// Returns `true` if `replica` is in the Byzantine set (the last
    /// `byzantine` ids).
    pub fn is_byzantine(&self, replica: ReplicaId) -> bool {
        (replica.0 as usize) >= self.config.n - self.config.byzantine
    }

    /// Runs one consensus round: samples the duration, draws the block
    /// maker from the beacon, and finalizes.
    pub fn next_round(&mut self) -> RoundInfo {
        self.round += 1;
        let duration =
            self.rng.normal(ROUND_TIME_MEAN, ROUND_TIME_STD).max(SimDuration::from_millis(100));
        self.now += duration;
        // The random beacon: unpredictable before the round, uniform over
        // replicas.
        let block_maker = ReplicaId(self.rng.index(self.config.n) as u32);
        let maker_is_byzantine = self.is_byzantine(block_maker);
        if maker_is_byzantine {
            self.byzantine_maker_rounds += 1;
        }
        RoundInfo { round: self.round, block_maker, maker_is_byzantine, finalized_at: self.now }
    }

    /// Advances the clock without producing a block (subnet idle/stalled —
    /// used to model the Bitcoin-canister downtime of Lemma IV.3).
    pub fn stall(&mut self, duration: SimDuration) {
        self.now += duration;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_advance_time_monotonically() {
        let mut engine = ConsensusEngine::new(ConsensusConfig::thirteen_replicas(), 1);
        let mut last = SimTime::ZERO;
        for i in 1..=50 {
            let info = engine.next_round();
            assert_eq!(info.round, i);
            assert!(info.finalized_at > last);
            last = info.finalized_at;
        }
        assert_eq!(engine.round(), 50);
    }

    #[test]
    fn maker_selection_is_roughly_uniform() {
        let mut engine = ConsensusEngine::new(ConsensusConfig::thirteen_replicas(), 2);
        let mut counts = [0u32; 13];
        let rounds = 13_000;
        for _ in 0..rounds {
            counts[engine.next_round().block_maker.0 as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let share = c as f64 / rounds as f64;
            assert!((share - 1.0 / 13.0).abs() < 0.02, "replica {i} share {share}");
        }
    }

    #[test]
    fn byzantine_maker_frequency_below_one_third() {
        let mut config = ConsensusConfig::thirteen_replicas();
        config.byzantine = 4; // f = 4 for n = 13
        let mut engine = ConsensusEngine::new(config, 3);
        let rounds = 20_000;
        for _ in 0..rounds {
            engine.next_round();
        }
        let share = engine.byzantine_maker_rounds() as f64 / rounds as f64;
        assert!((share - 4.0 / 13.0).abs() < 0.02, "byzantine maker share {share}");
        assert!(share < 1.0 / 3.0);
    }

    #[test]
    fn byzantine_membership() {
        let mut config = ConsensusConfig::thirteen_replicas();
        config.byzantine = 2;
        let engine = ConsensusEngine::new(config, 4);
        assert!(!engine.is_byzantine(ReplicaId(0)));
        assert!(!engine.is_byzantine(ReplicaId(10)));
        assert!(engine.is_byzantine(ReplicaId(11)));
        assert!(engine.is_byzantine(ReplicaId(12)));
    }

    #[test]
    fn fault_bound_enforced() {
        let config = ConsensusConfig::thirteen_replicas();
        assert_eq!(config.max_faults(), 4);
        let mut over = config.clone();
        over.byzantine = 5;
        assert!(!over.within_fault_bound());
        let result = std::panic::catch_unwind(|| ConsensusEngine::new(over, 1));
        assert!(result.is_err());
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed: u64| {
            let mut e = ConsensusEngine::new(ConsensusConfig::thirteen_replicas(), seed);
            (0..20).map(|_| e.next_round().block_maker.0).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn stall_advances_clock_only() {
        let mut engine = ConsensusEngine::new(ConsensusConfig::thirteen_replicas(), 5);
        engine.stall(SimDuration::from_secs(3600));
        assert_eq!(engine.round(), 0);
        assert!(engine.now() >= SimTime::from_secs(3600));
    }
}
