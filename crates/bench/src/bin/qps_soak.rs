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
use icbtc::sim::metrics::Histogram;
use icbtc::sim::{SimRng, SimTime};
use icbtc_bench::workload::build_soak_workload;

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

fn parse_args() -> Args {
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
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().unwrap_or_else(|| usage(what));
        match flag.as_str() {
            "--seed" => {
                args.seed = value("--seed needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be a u64"));
            }
            "--addresses" => {
                args.addresses = value("--addresses needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--addresses must be a count"));
            }
            "--utxo-scale" => {
                args.utxo_scale = value("--utxo-scale needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--utxo-scale must be a divisor >= 1"));
            }
            "--requests" => {
                args.requests = value("--requests needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--requests must be a count"));
            }
            "--rate" => {
                args.rate = value("--rate needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--rate must be queries per round"));
            }
            "--ingest-every" => {
                args.ingest_every = value("--ingest-every needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--ingest-every must be a round count"));
            }
            "--no-cache" => args.no_cache = true,
            "--out" => args.out = Some(value("--out needs a path")),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out needs a path")),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if args.addresses == 0 || args.requests == 0 || args.rate == 0 {
        usage("--addresses, --requests and --rate must be positive");
    }
    args
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: qps_soak [--seed N] [--addresses N] [--utxo-scale N] [--requests N]\n\
         \u{20}               [--rate N] [--ingest-every N] [--no-cache] [--out PATH] [--metrics-out PATH]\n\
         \n\
         --seed N          simulation seed (default 42)\n\
         --addresses N     synthetic address population (default 1000000)\n\
         --utxo-scale N    divisor applied to the paper's UTXO counts (default 250)\n\
         --requests N      total queries to issue (default 100000)\n\
         --rate N          queries submitted per round (default 256)\n\
         --ingest-every N  ingest a pre-mined block every N rounds (default 30, 0 = never)\n\
         --no-cache        run with the query cache disabled (A/B baseline)\n\
         --out P           write the JSON report to P (always printed to stdout)\n\
         --metrics-out P   write the merged metrics snapshot JSON to P"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Hot-set size for the skewed request stream. Sized so the hot keys
/// (two call types per address, plus fee percentiles) fit inside the
/// default cache capacity.
const HOT_SET: usize = 1024;

fn main() {
    let args = parse_args();

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
    let mut latencies_ms = Histogram::new();

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
            latencies_ms.record(result.latency().as_nanos() as f64 / 1_000_000.0);
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
    let p50 = latencies_ms.percentile(50.0).round() as u64;
    let p90 = latencies_ms.percentile(90.0).round() as u64;
    let p99 = latencies_ms.percentile(99.0).round() as u64;

    let report = format!(
        "{{\n\
         \u{20} \"schema_version\": 1,\n\
         \u{20} \"bench\": \"qps_soak\",\n\
         \u{20} \"seed\": {seed},\n\
         \u{20} \"addresses\": {addresses},\n\
         \u{20} \"utxo_scale\": {utxo_scale},\n\
         \u{20} \"requests\": {requests},\n\
         \u{20} \"rate_per_round\": {rate},\n\
         \u{20} \"ingest_every\": {ingest_every},\n\
         \u{20} \"cache_enabled\": {cache_enabled},\n\
         \u{20} \"rounds\": {rounds},\n\
         \u{20} \"sim_millis\": {sim_millis},\n\
         \u{20} \"requests_per_sec\": {requests_per_sec},\n\
         \u{20} \"latency_ms_p50\": {p50},\n\
         \u{20} \"latency_ms_p90\": {p90},\n\
         \u{20} \"latency_ms_p99\": {p99},\n\
         \u{20} \"cache_hits\": {hits},\n\
         \u{20} \"cache_misses\": {misses},\n\
         \u{20} \"cache_evictions\": {evictions},\n\
         \u{20} \"cache_invalidations\": {invalidations},\n\
         \u{20} \"cache_hit_permille\": {hit_permille},\n\
         \u{20} \"query_instructions_total\": {instructions_total},\n\
         \u{20} \"instructions_per_request\": {per_request},\n\
         \u{20} \"hot_path\": {{\n\
         \u{20}   \"optimization\": \"qcache_hit_precomputed_serialized_size\",\n\
         \u{20}   \"hit_instructions_before\": {hit_before},\n\
         \u{20}   \"hit_instructions_after\": {hit_after},\n\
         \u{20}   \"hit_instructions_per_hit_before\": {per_hit_before},\n\
         \u{20}   \"hit_instructions_per_hit_after\": {per_hit_after}\n\
         \u{20} }},\n\
         \u{20} \"ingests\": {ingests},\n\
         \u{20} \"errors\": {errors}\n\
         }}",
        seed = args.seed,
        addresses = args.addresses,
        utxo_scale = args.utxo_scale,
        requests = args.requests,
        rate = args.rate,
        ingest_every = args.ingest_every,
        cache_enabled = u64::from(!args.no_cache),
        rounds = rounds,
        sim_millis = elapsed_nanos / 1_000_000,
        requests_per_sec = requests_per_sec,
        p50 = p50,
        p90 = p90,
        p99 = p99,
        hits = hits,
        misses = misses,
        evictions = evictions,
        invalidations = invalidations,
        hit_permille = hit_permille,
        instructions_total = instructions_total,
        per_request = instructions_total / completed.max(1),
        hit_before = hit_instructions_before,
        hit_after = hit_instructions_after,
        per_hit_before = per_hit_before,
        per_hit_after = per_hit_after,
        ingests = ingests,
        errors = errors,
    );

    if per_hit_after >= per_hit_before {
        eprintln!(
            "error: cache-hit path costs {per_hit_after} instructions per hit, not below its \
             pre-optimization {per_hit_before}"
        );
        println!("{report}");
        std::process::exit(3);
    }

    println!("{report}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{report}\n")) {
            eprintln!("error: cannot write report to {path}: {e}");
            std::process::exit(2);
        }
    }
    if let Some(path) = &args.metrics_out {
        let mut merged = icbtc::sim::obs::MetricsRegistry::new();
        merged.merge_from(metrics);
        merged.merge_from(&subnet.obs().metrics);
        if let Err(e) = std::fs::write(path, merged.snapshot_json()) {
            eprintln!("error: cannot write metrics to {path}: {e}");
            std::process::exit(2);
        }
    }
}
