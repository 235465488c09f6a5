//! `query`: the `qps_soak` shape at a size one run can repeat.
//!
//! The state is `build_soak_workload`'s address population at utxo-scale
//! 250. A fixed number of queries is submitted, 256 per round whether or
//! not earlier ones have completed (an open loop in simulated time):
//! 45 % `get_balance`, 45 % `get_utxos`, 10 % fee percentiles, with 60 %
//! of traffic on a hot set of 1,024 addresses that fits the query cache
//! and the rest spread over the whole population. One pre-mined block is
//! ingested every 30 rounds; it invalidates the cache and grows the
//! unstable overlay. Reads, the query cache and B+-tree range scans
//! dominate; btcnet and the adapters are absent.
//!
//! The query count is fixed rather than a duration, because the number of
//! ingests, and so the per-query host cost, depends on the round count.

use std::collections::HashMap;

use icbtc::bitcoin::Address;
use icbtc::canister::{BitcoinCanister, CanisterCall};
use icbtc::core::GetSuccessorsResponse;
use icbtc::ic::consensus::ConsensusConfig;
use icbtc::ic::{Meter, QueryPlaneConfig, Subnet};
use icbtc::sim::SimRng;
use icbtc_bench::workload::build_soak_workload;

use crate::canister::TracedCanister;
use crate::trace::{self, span};
use crate::{timed, Episode};

/// Synthetic addresses in the population.
pub const ADDRESSES: usize = 50_000;
/// Divisor on the paper's per-address UTXO counts.
pub const UTXO_SCALE: usize = 250;
/// Queries per episode.
pub const QUERIES: u64 = 256 * 60;
/// Queries submitted per round.
pub const RATE: usize = 256;
/// A pre-mined block is ingested every this many rounds.
pub const INGEST_EVERY: u64 = 30;
/// Hot-set size: its keys fit the default query cache.
pub const HOT_SET: usize = 1024;
/// One in this many replies is re-checked against the uncached path.
pub const SAMPLE_EVERY: u64 = 64;

/// The query mix over `addresses`, drawn from `rng`.
pub fn next_call(rng: &mut SimRng, addresses: &[(Address, u32)]) -> CanisterCall {
    let hot = addresses.len().min(HOT_SET);
    let address = if rng.below(100) < 60 {
        addresses[rng.index(hot)].0
    } else {
        addresses[rng.index(addresses.len())].0
    };
    match rng.below(100) {
        0..=44 => CanisterCall::GetBalance {
            address,
            min_confirmations: 0,
        },
        45..=89 => CanisterCall::GetUtxos {
            address,
            filter: None,
        },
        _ => CanisterCall::GetFeePercentiles,
    }
}

/// One episode: build the soak state (set-up), run the query soak
/// (measured), and compare a seeded sample of replies with the uncached
/// `BitcoinCanister::query` on the same state, outside the timed region.
pub fn episode(seed: u64) -> Episode {
    let mut episode = Episode::default();
    trace::set_id(0);
    let rounds_needed = QUERIES / RATE as u64 + 64;
    let num_ingest = (rounds_needed / INGEST_EVERY + 2) as usize;
    let (workload, gen_ns) = timed("bench.gen", || {
        build_soak_workload(seed, ADDRESSES, UTXO_SCALE, num_ingest)
    });
    let addresses = workload.addresses;
    let mut ingest_blocks = workload.ingest_blocks.into_iter();
    let (mut subnet, load_ns) = timed("bench.load", || {
        let canister = TracedCanister::new(BitcoinCanister::from_state(workload.state));
        let mut subnet = Subnet::new(canister, ConsensusConfig::thirteen_replicas(), seed);
        subnet.set_query_plane(QueryPlaneConfig {
            max_per_round: RATE * 2,
            concurrency: 4,
        });
        subnet
    });
    episode.gen_ns = gen_ns;
    episode.load_ns = load_ns;

    let mut requests = SimRng::seed_from(seed.wrapping_add(0x9c5));
    let sample_offset = seed % SAMPLE_EVERY;
    let mut sampled: HashMap<u64, CanisterCall> = HashMap::new();
    let (mut submitted, mut completed, mut rounds) = (0u64, 0u64, 0u64);
    let mut instructions = 0u64;
    let mut batches = 0u64;
    while completed < QUERIES && rounds < 1_000_000 {
        trace::set_id(rounds + 1);
        let ingest_now = rounds > 0 && rounds.is_multiple_of(INGEST_EVERY);
        let block = if ingest_now {
            ingest_blocks.next()
        } else {
            None
        };
        let ((report, ingest), ns) = timed("bench.round", || {
            for _ in 0..RATE {
                if submitted == QUERIES {
                    break;
                }
                let call = next_call(&mut requests, &addresses);
                let id = subnet.submit_query(call.clone());
                if submitted % SAMPLE_EVERY == sample_offset {
                    sampled.insert(id.0, call);
                }
                submitted += 1;
            }
            let mut ingest = None;
            let report = span("ic.round", || {
                subnet.execute_round(|canister, ctx| {
                    if let Some(block) = block {
                        let now_unix = block.header.time + 60;
                        let response = GetSuccessorsResponse {
                            blocks: vec![block],
                            next: Vec::new(),
                        };
                        ingest = Some(span("canister.ingest", || {
                            canister.inner.ingest_response(response, now_unix, ctx)
                        }));
                    }
                })
            });
            (report, ingest)
        });
        episode.round_ns.push(ns);
        rounds += 1;
        if let Some(ingest) = ingest {
            episode.blocks_accepted += ingest.blocks_accepted as u64;
            episode.ingest_instructions += report.payload_instructions;
            episode.add("canister.blocks_stabilized", ingest.stabilized.len() as f64);
            episode.add("canister.ingest_rejected", ingest.rejected.len() as f64);
            episode.check(
                ingest.blocks_accepted == 1,
                "query: mid-soak ingest rejected",
            );
        }
        if !report.query_results.is_empty() {
            batches += 1;
            episode.add("ic.query_batch.sum", report.query_results.len() as f64);
        }
        // Output checks, outside the timed region: the state is unchanged
        // until the next round's ingest.
        let canister = &subnet.state().inner;
        for result in &report.query_results {
            completed += 1;
            instructions += result.instructions;
            episode.sample("query.model_ms", result.latency().as_nanos() as f64 / 1e6);
            episode.check(result.output.reply.is_ok(), "query: error reply");
            if let Some(call) = sampled.remove(&result.id.0) {
                let uncached = canister.query(&call, &mut Meter::new());
                episode.check(
                    uncached.reply == result.output.reply,
                    "query: cached reply differs",
                );
            }
        }
    }
    episode.add("ic.query_batch.rounds", batches as f64);
    episode.add("canister.blocks_accepted", episode.blocks_accepted as f64);
    episode.add("query.completed", completed as f64);
    episode.add("query.instructions", instructions as f64);
    episode.check(
        completed == QUERIES,
        "query: every submitted query completed",
    );
    episode.record_canister(&subnet.state().inner);
    episode
}
