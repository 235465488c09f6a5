//! Ingress handling and the user-facing latency model.
//!
//! §IV-B of the paper measures two request classes against the Bitcoin
//! canister on mainnet:
//!
//! * **replicated** (update) calls, which go through consensus and are
//!   threshold-certified: minimum ≈ 7 s, average < 10 s, 90th percentile
//!   ≈ 18 s;
//! * **query** calls answered by a single replica: median ≈ 220 ms for
//!   `get_balance` and ≈ 310 ms for `get_utxos`, with p90 below 0.5 s and
//!   2.5 s respectively.
//!
//! The free functions below reproduce those distributions from explicit
//! components (user→boundary routing, ingress inclusion, the consensus
//! pipeline, certification, cross-subnet delivery, and execution time
//! proportional to metered instructions). Their constants are calibration
//! targets, recorded in EXPERIMENTS.md; the *shape* — replicated dominated
//! by consensus, queries dominated by execution and response size — is
//! structural.

use icbtc_sim::{SimDuration, SimRng, SimTime};

/// Identifier of a submitted ingress message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IngressId(pub u64);

/// A pool of submitted-but-not-yet-executed ingress messages.
#[derive(Debug)]
pub struct IngressPool<T> {
    pending: Vec<PendingIngress<T>>,
    next_id: u64,
}

#[derive(Debug)]
struct PendingIngress<T> {
    id: IngressId,
    submitted_at: SimTime,
    available_at: SimTime,
    payload: T,
}

/// A message taken from the pool for execution.
#[derive(Debug, PartialEq, Eq)]
pub struct ReadyIngress<T> {
    /// The message id.
    pub id: IngressId,
    /// When the user submitted it.
    pub submitted_at: SimTime,
    /// When it became available for inclusion (submission + routing).
    pub available_at: SimTime,
    /// The payload.
    pub payload: T,
}

impl<T> Default for IngressPool<T> {
    fn default() -> Self {
        IngressPool { pending: Vec::new(), next_id: 0 }
    }
}

impl<T> IngressPool<T> {
    /// Creates an empty pool.
    pub fn new() -> IngressPool<T> {
        IngressPool::default()
    }

    /// Registers a message submitted at `submitted_at` that becomes
    /// available for inclusion at `available_at` (submission plus routing
    /// delay).
    pub fn submit(&mut self, submitted_at: SimTime, available_at: SimTime, payload: T) -> IngressId {
        let id = IngressId(self.next_id);
        self.next_id += 1;
        self.pending.push(PendingIngress { id, submitted_at, available_at, payload });
        id
    }

    /// Removes and returns all messages available by `now`, in submission
    /// order.
    pub fn take_ready(&mut self, now: SimTime) -> Vec<ReadyIngress<T>> {
        self.take_ready_bounded(now, usize::MAX)
    }

    /// Like [`IngressPool::take_ready`], but takes at most `max` messages,
    /// leaving the rest queued (bounded per-round batches).
    pub fn take_ready_bounded(&mut self, now: SimTime, max: usize) -> Vec<ReadyIngress<T>> {
        let mut ready = Vec::new();
        let mut remaining = Vec::with_capacity(self.pending.len());
        for entry in self.pending.drain(..) {
            if ready.len() < max && entry.available_at <= now {
                ready.push(ReadyIngress {
                    id: entry.id,
                    submitted_at: entry.submitted_at,
                    available_at: entry.available_at,
                    payload: entry.payload,
                });
            } else {
                remaining.push(entry);
            }
        }
        self.pending = remaining;
        ready
    }

    /// Messages still waiting.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Returns `true` if nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

// The calibrated latency model for user-facing calls. Every value below
// is fitted to §IV-B's measured distributions and recorded in
// EXPERIMENTS.md; `tests::calibration_is_pinned` fixes the draws.

/// Mean user → boundary → subnet routing delay for updates.
const INGRESS_ROUTING_MEAN: SimDuration = SimDuration::from_millis(2600);
/// Std-dev of the routing delay.
const INGRESS_ROUTING_STD: SimDuration = SimDuration::from_millis(700);
/// Mean certification + response-delivery delay after finalization.
const CERTIFICATION_MEAN: SimDuration = SimDuration::from_millis(1600);
/// Std-dev of certification delay.
const CERTIFICATION_STD: SimDuration = SimDuration::from_millis(400);
/// Mean cross-subnet (XNet) overhead for calls originating on other
/// subnets — the common case for Bitcoin-canister requests.
const XNET_MEAN: SimDuration = SimDuration::from_millis(2900);
/// Std-dev of XNet overhead.
const XNET_STD: SimDuration = SimDuration::from_millis(1100);
/// Probability of a slow XNet hop (congested stream).
const XNET_TAIL_PROBABILITY: f64 = 0.13; // icbtc-lint: allow(float) -- calibrated latency constant; feeds Figure 7 measurement, not replicated state
/// Multiplier applied on a slow XNet hop.
const XNET_TAIL_MULTIPLIER: u64 = 4;
/// Single-replica round-trip for queries.
const QUERY_RTT_MEAN: SimDuration = SimDuration::from_millis(200);
/// Std-dev of the query round trip.
const QUERY_RTT_STD: SimDuration = SimDuration::from_millis(45);
/// Probability of a heavy-tail query (cache miss / loaded replica).
const QUERY_TAIL_PROBABILITY: f64 = 0.06; // icbtc-lint: allow(float) -- calibrated latency constant; feeds Figure 7 measurement, not replicated state
/// Multiplier applied on a heavy-tail query.
const QUERY_TAIL_MULTIPLIER: u64 = 4;
/// Replica execution speed in instructions per second.
const INSTRUCTIONS_PER_SECOND: u64 = 400_000_000;
/// Response streaming throughput in bytes per second.
const RESPONSE_BYTES_PER_SECOND: u64 = 4_000_000;

/// Samples the delay between a user submitting an update call and the
/// message being available for block inclusion.
pub fn sample_ingress_routing(rng: &mut SimRng) -> SimDuration {
    rng.normal(INGRESS_ROUTING_MEAN, INGRESS_ROUTING_STD).max(SimDuration::from_millis(2200))
}

/// Samples the post-finalization delay until the caller holds the
/// certified response (certification + XNet + delivery).
pub fn sample_response_path(rng: &mut SimRng) -> SimDuration {
    let certification =
        rng.normal(CERTIFICATION_MEAN, CERTIFICATION_STD).max(SimDuration::from_millis(1400));
    let xnet = rng
        .heavy_tail(XNET_MEAN, XNET_STD, XNET_TAIL_PROBABILITY, XNET_TAIL_MULTIPLIER)
        .max(SimDuration::from_millis(2600));
    certification + xnet
}

/// Execution time for `instructions` metered instructions.
pub fn execution_time(instructions: u64) -> SimDuration {
    SimDuration::from_nanos(instructions.saturating_mul(1_000_000_000) / INSTRUCTIONS_PER_SECOND)
}

/// Streaming time for a response of `response_bytes` bytes.
pub fn transfer_time(response_bytes: usize) -> SimDuration {
    SimDuration::from_nanos(
        (response_bytes as u64).saturating_mul(1_000_000_000) / RESPONSE_BYTES_PER_SECOND,
    )
}

/// Samples the network round-trip of a single-replica query (no
/// execution or transfer component).
pub fn sample_query_rtt(rng: &mut SimRng) -> SimDuration {
    rng.heavy_tail(QUERY_RTT_MEAN, QUERY_RTT_STD, QUERY_TAIL_PROBABILITY, QUERY_TAIL_MULTIPLIER)
}

/// End-to-end latency of a query call that executed `instructions` and
/// returned `response_bytes`.
pub fn sample_query(rng: &mut SimRng, instructions: u64, response_bytes: usize) -> SimDuration {
    sample_query_rtt(rng) + execution_time(instructions) + transfer_time(response_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icbtc_sim::metrics::exact_quantile_permille;

    #[test]
    fn pool_orders_and_filters_by_availability() {
        let mut pool = IngressPool::new();
        let a = pool.submit(SimTime::ZERO, SimTime::from_secs(10), "a");
        let b = pool.submit(SimTime::ZERO, SimTime::from_secs(5), "b");
        let c = pool.submit(SimTime::ZERO, SimTime::from_secs(20), "c");
        assert_eq!(pool.len(), 3);

        let ready = pool.take_ready(SimTime::from_secs(12));
        assert_eq!(ready.iter().map(|r| (r.id, r.payload)).collect::<Vec<_>>(), vec![(a, "a"), (b, "b")]);
        assert_eq!(pool.len(), 1);
        assert!(pool.take_ready(SimTime::from_secs(12)).is_empty());
        let last = pool.take_ready(SimTime::from_secs(30));
        assert_eq!(last[0].id, c);
        assert!(pool.is_empty());
    }

    #[test]
    fn ingress_ids_are_unique_and_ordered() {
        let mut pool = IngressPool::new();
        let ids: Vec<IngressId> =
            (0..10).map(|_| pool.submit(SimTime::ZERO, SimTime::ZERO, ())).collect();
        for window in ids.windows(2) {
            assert!(window[0] < window[1]);
        }
    }

    #[test]
    fn query_latency_medians_match_paper() {
        let mut rng = SimRng::seed_from(1);
        // get_balance-like: ~6M instructions, tiny response.
        let mut balance = Vec::new();
        // get_utxos-like: tens of M instructions, tens of kB responses.
        let mut utxos = Vec::new();
        for _ in 0..4000 {
            balance.push(sample_query(&mut rng, 6_000_000, 100).as_nanos());
            utxos.push(sample_query(&mut rng, 40_000_000, 300_000).as_nanos());
        }
        let quantile = |ns: &mut [u64], permille| *exact_quantile_permille(ns, permille).unwrap();
        let balance_median = quantile(&mut balance, 500);
        let utxos_median = quantile(&mut utxos, 500);
        assert!(
            (150_000_000..300_000_000).contains(&balance_median),
            "balance median {balance_median} ns, paper ≈ 0.22 s"
        );
        assert!(
            (220_000_000..450_000_000).contains(&utxos_median),
            "utxos median {utxos_median} ns, paper ≈ 0.31 s"
        );
        assert!(quantile(&mut balance, 900) < 1_500_000_000);
        assert!(quantile(&mut utxos, 900) < 2_500_000_000);
    }

    #[test]
    fn execution_time_scales_linearly() {
        assert_eq!(execution_time(INSTRUCTIONS_PER_SECOND), SimDuration::from_secs(1));
        assert_eq!(execution_time(0), SimDuration::ZERO);
    }

    #[test]
    fn routing_and_response_are_positive() {
        let mut rng = SimRng::seed_from(2);
        for _ in 0..100 {
            assert!(sample_ingress_routing(&mut rng) >= SimDuration::from_millis(2200));
            assert!(sample_response_path(&mut rng) >= SimDuration::from_millis(4000));
        }
    }

    #[test]
    fn calibration_is_pinned() {
        // Exact draws for a fixed seed: a mistyped latency constant (or a
        // reordered RNG draw) changes these even where no figure gate
        // looks, e.g. on the replicated routing/certification/XNet path.
        let draws = |sample: &dyn Fn(&mut SimRng) -> SimDuration| {
            let mut rng = SimRng::seed_from(7);
            (0..8).map(|_| sample(&mut rng).as_nanos()).collect::<Vec<u64>>()
        };
        assert_eq!(
            draws(&sample_ingress_routing),
            [
                2_200_000_000, 2_200_000_000, 2_200_000_000, 2_313_271_547,
                2_661_883_417, 2_200_000_000, 3_584_514_825, 2_200_000_000,
            ]
        );
        assert_eq!(
            draws(&sample_response_path),
            [
                4_000_000_000, 4_000_000_000, 4_317_380_132, 4_425_837_503,
                4_539_500_526, 4_980_547_191, 4_000_000_000, 4_000_000_000,
            ]
        );
        assert_eq!(
            draws(&sample_query_rtt),
            [
                163_873_450, 657_926_592, 146_991_641, 160_077_072,
                209_032_503, 193_375_915, 181_168_166, 213_655_671,
            ]
        );
        assert_eq!(
            draws(&|rng| sample_query(rng, 5_000_000, 300)),
            [
                176_448_450, 670_501_592, 159_566_641, 172_652_072,
                221_607_503, 205_950_915, 193_743_166, 226_230_671,
            ]
        );
        assert_eq!(execution_time(1_234_567), SimDuration::from_nanos(3_086_417));
        assert_eq!(transfer_time(4_000), SimDuration::from_millis(1));
    }
}
