//! Query-plane throughput soak: a large synthetic address population
//! under a mixed `get_utxos` / `get_balance` / fee-percentiles load.
//!
//! ```text
//! cargo run --release -p icbtc-bench --bin qps_soak -- \
//!     [--seed N] [--addresses N] [--utxo-scale N] [--requests N] \
//!     [--rate N] [--ingest-every N] [--no-cache] \
//!     [--out PATH] [--metrics-out PATH]
//! ```
//!
//! Loads `--addresses` synthetic addresses (default 1,000,000) whose
//! per-address UTXO counts follow the paper's published skew (each
//! window of 1000 addresses carries the exact Figure-7 bucket mix,
//! divided by `--utxo-scale` to bound memory), then drives the batched
//! query plane of a simulated subnet: `--rate` queries submitted per
//! round — 45% `get_balance`, 45% first-page `get_utxos`, 10% fee
//! percentiles, with 60% of traffic on a hot set of 4096 addresses —
//! while a pre-mined block is ingested every `--ingest-every` rounds so
//! the tip moves and the query cache is exercised through invalidation.
//!
//! The report (written to `--out`, schema_version 1, integers only) is a
//! pure function of the flags: `scripts/verify.sh` runs this binary
//! twice at a small scale and `diff`s the outputs as the query-plane
//! determinism gate, and requires the report to equal the committed
//! `BENCH_qps_gate.json`. The committed `BENCH_qps.json` is the
//! full-scale baseline. The binary exits with status 3 if the cache-hit
//! path's realized per-hit cost is not below the flat per-hit cost it
//! replaced (the report's `hot_path` section).

use icbtc::canister::{BitcoinCanister, CanisterCall, QueryCache};
use icbtc::ic::consensus::ConsensusConfig;
use icbtc::ic::{QueryPlaneConfig, Subnet};
use icbtc::sim::metrics::exact_quantile_permille;
use icbtc::sim::obs::{Json, MetricsRegistry};
use icbtc::sim::{SimRng, SimTime};
use icbtc_bench::cli::{emit_report, Flags};
use icbtc_bench::workload::build_soak_workload;

const USAGE: &str = "\
usage: qps_soak [--seed N] [--addresses N] [--utxo-scale N] [--requests N]
                [--rate N] [--ingest-every N] [--no-cache] [--out PATH] [--metrics-out PATH]

--seed N          simulation seed (default 42)
--addresses N     synthetic address population (default 1000000)
--utxo-scale N    divisor applied to the paper's UTXO counts (default 250)
--requests N      total queries to issue (default 100000)
--rate N          queries submitted per round (default 256)
--ingest-every N  ingest a pre-mined block every N rounds (default 30, 0 = never)
--no-cache        run with the query cache disabled (A/B baseline)
--out P           write the JSON report to P (always printed to stdout)
--metrics-out P   write the merged metrics snapshot JSON to P";

struct Args {
    seed: u64,
    addresses: usize,
    utxo_scale: usize,
    requests: u64,
    rate: usize,
    ingest_every: u64,
    no_cache: bool,
    out: Option<String>,
    metrics_out: Option<String>,
}

impl Args {
    fn parse(flags: &mut Flags) -> Args {
        let mut args = Args {
            seed: 42,
            addresses: 1_000_000,
            utxo_scale: 250,
            requests: 100_000,
            rate: 256,
            ingest_every: 30,
            no_cache: false,
            out: None,
            metrics_out: None,
        };
        while let Some(flag) = flags.next_flag() {
            match flag.as_str() {
                "--seed" => args.seed = flags.value("a u64"),
                "--addresses" => args.addresses = flags.value("a count"),
                "--utxo-scale" => args.utxo_scale = flags.value("a divisor >= 1"),
                "--requests" => args.requests = flags.value("a count"),
                "--rate" => args.rate = flags.value("queries per round"),
                "--ingest-every" => args.ingest_every = flags.value("a round count"),
                "--no-cache" => args.no_cache = true,
                "--out" => args.out = Some(flags.value("a path")),
                "--metrics-out" => args.metrics_out = Some(flags.value("a path")),
                other => flags.unknown(other),
            }
        }
        if args.addresses == 0 || args.requests == 0 || args.rate == 0 {
            flags.fail("--addresses, --requests and --rate must be positive");
        }
        args
    }
}

/// Hot-set size for the skewed request stream. Sized so the hot keys
/// (two call types per address, plus fee percentiles) fit inside the
/// default cache capacity.
const HOT_SET: usize = 1024;

fn main() {
    let args = Args::parse(&mut Flags::from_env(USAGE));

    eprintln!(
        "# qps_soak: loading {} addresses (utxo-scale {}, seed {})...",
        args.addresses, args.utxo_scale, args.seed
    );
    // Enough pre-mined blocks for the whole soak at the configured cadence.
    let planned_rounds = args.requests / args.rate as u64 + 64;
    let num_ingest = match planned_rounds.checked_div(args.ingest_every) {
        None => 0,
        Some(n) => (n + 2).min(64) as usize,
    };
    let workload = build_soak_workload(args.seed, args.addresses, args.utxo_scale, num_ingest);
    let addresses = workload.addresses;
    let mut ingest_blocks = workload.ingest_blocks.into_iter();

    let mut canister = BitcoinCanister::from_state(workload.state);
    if args.no_cache {
        canister.set_query_cache(QueryCache::with_capacity(0));
    }
    let mut subnet = Subnet::new(canister, ConsensusConfig::thirteen_replicas(), args.seed);
    subnet.set_query_plane(QueryPlaneConfig {
        max_per_round: args.rate.saturating_mul(2).max(16),
        concurrency: 4,
    });

    let hot = addresses.len().min(HOT_SET);
    let mut reqs = SimRng::seed_from(args.seed.wrapping_add(0x9c5));
    let next_call = |rng: &mut SimRng| -> CanisterCall {
        let address = if rng.below(100) < 60 {
            addresses[rng.index(hot)].0
        } else {
            addresses[rng.index(addresses.len())].0
        };
        match rng.below(100) {
            0..=44 => CanisterCall::GetBalance { address, min_confirmations: 0 },
            45..=89 => CanisterCall::GetUtxos { address, filter: None },
            _ => CanisterCall::GetFeePercentiles,
        }
    };

    eprintln!("# qps_soak: issuing {} queries at {}/round...", args.requests, args.rate);
    let mut submitted: u64 = 0;
    let mut completed: u64 = 0;
    let mut errors: u64 = 0;
    let mut ingests: u64 = 0;
    let mut rounds: u64 = 0;
    let mut instructions_total: u64 = 0;
    let mut latencies_ns: Vec<u64> = Vec::new();

    while completed < args.requests {
        for _ in 0..args.rate {
            if submitted == args.requests {
                break;
            }
            subnet.submit_query(next_call(&mut reqs));
            submitted += 1;
        }
        let ingest_now =
            args.ingest_every > 0 && rounds > 0 && rounds.is_multiple_of(args.ingest_every);
        let block = if ingest_now { ingest_blocks.next() } else { None };
        if block.is_some() {
            ingests += 1;
        }
        let report = subnet.execute_round(|canister, ctx| {
            if let Some(block) = block {
                let now_unix = block.header.time + 60;
                let response = icbtc::core::GetSuccessorsResponse {
                    blocks: vec![block],
                    next: Vec::new(),
                };
                let report = canister.ingest_response(response, now_unix, ctx);
                assert_eq!(report.blocks_accepted, 1, "soak ingest rejected: {:?}", report.rejected);
            }
        });
        for result in &report.query_results {
            completed += 1;
            instructions_total += result.instructions;
            latencies_ns.push(result.latency().as_nanos());
            if result.output.reply.is_err() {
                errors += 1;
            }
        }
        rounds += 1;
        assert!(rounds < 10_000_000, "soak starved: {completed}/{} completed", args.requests);
    }

    let metrics = &subnet.state().obs().metrics;
    let hits = metrics.counter("canister_qcache_hits_total");
    let misses = metrics.counter("canister_qcache_misses_total");
    let evictions = metrics.counter("canister_qcache_evictions_total");
    let invalidations = metrics.counter("canister_qcache_invalidations_total");
    let hit_permille = hits.saturating_mul(1000) / (hits + misses).max(1);

    // Profiler-guided hot-path record: the cache hit path used to
    // re-serialize the reply at a flat QUERY_CACHE_HIT; it now charges
    // the probe plus a per-byte copy of the size serialized once at
    // fill. "before" is modeled from the retained constant, "after" is
    // the measured hit-path cost.
    let hit_instructions_after = metrics.counter("canister_qcache_hit_instructions_total");
    let hit_instructions_before = hits.saturating_mul(icbtc::canister::metering::QUERY_CACHE_HIT);
    let per_hit_before = icbtc::canister::metering::QUERY_CACHE_HIT;
    let per_hit_after = hit_instructions_after / hits.max(1);

    let elapsed_nanos = subnet.now().saturating_since(SimTime::ZERO).as_nanos().max(1);
    let requests_per_sec = completed.saturating_mul(1_000_000_000) / elapsed_nanos;
    // Exact nearest-rank percentiles, rounded to the nearest millisecond.
    let mut latency_ms = |permille| {
        let ns = exact_quantile_permille(&mut latencies_ns, permille).copied().unwrap_or(0);
        (ns + 500_000) / 1_000_000
    };

    let report = Json::Object(vec![
        ("schema_version", 1u64.into()),
        ("bench", "qps_soak".into()),
        ("seed", args.seed.into()),
        ("addresses", args.addresses.into()),
        ("utxo_scale", args.utxo_scale.into()),
        ("requests", args.requests.into()),
        ("rate_per_round", args.rate.into()),
        ("ingest_every", args.ingest_every.into()),
        ("cache_enabled", u64::from(!args.no_cache).into()),
        ("rounds", rounds.into()),
        ("sim_millis", (elapsed_nanos / 1_000_000).into()),
        ("requests_per_sec", requests_per_sec.into()),
        ("latency_ms_p50", latency_ms(500).into()),
        ("latency_ms_p90", latency_ms(900).into()),
        ("latency_ms_p99", latency_ms(990).into()),
        ("cache_hits", hits.into()),
        ("cache_misses", misses.into()),
        ("cache_evictions", evictions.into()),
        ("cache_invalidations", invalidations.into()),
        ("cache_hit_permille", hit_permille.into()),
        ("query_instructions_total", instructions_total.into()),
        ("instructions_per_request", (instructions_total / completed.max(1)).into()),
        (
            "hot_path",
            Json::Object(vec![
                ("optimization", "qcache_hit_precomputed_serialized_size".into()),
                ("hit_instructions_before", hit_instructions_before.into()),
                ("hit_instructions_after", hit_instructions_after.into()),
                ("hit_instructions_per_hit_before", per_hit_before.into()),
                ("hit_instructions_per_hit_after", per_hit_after.into()),
            ]),
        ),
        ("ingests", ingests.into()),
        ("errors", errors.into()),
    ])
    .render();

    if per_hit_after >= per_hit_before {
        eprintln!(
            "error: cache-hit path costs {per_hit_after} instructions per hit, not below its \
             pre-optimization {per_hit_before}"
        );
        println!("{report}");
        std::process::exit(3);
    }

    let mut merged = MetricsRegistry::new();
    merged.merge_from(metrics);
    merged.merge_from(&subnet.obs().metrics);
    emit_report(&report, args.out.as_deref(), args.metrics_out.as_deref(), &merged);
}
