//! Figure 5: growth of the UTXO set and the Bitcoin canister's space
//! consumption over two years — now measured against the paged,
//! byte-budgeted storage engine instead of a flat per-UTXO model.
//!
//! ```text
//! cargo run --release -p icbtc-bench --bin fig5_utxo_growth -- \
//!     [--seed N] [--blocks N] [--volume-scale N] [--budget-mib N] \
//!     [--page-size N] [--sample-every N] [--out PATH] [--metrics-out PATH]
//! ```
//!
//! The paper plots the canister's state growing to > 103 GiB / > 170 M
//! UTXOs by March 2025. We drive the stable UTXO set with the synthetic
//! mainnet-shaped stream; at the defaults the run ingests a multi-million
//! UTXO chain (≈ 100× the previous harness scale) under a fixed byte
//! budget, so budget exhaustion fails loudly instead of OOMing. The
//! report (`--out`, schema_version 1, integers plus the state hash) is a
//! pure function of the flags: `scripts/verify.sh` runs this binary twice
//! at a small scale and `diff`s the outputs as the storage determinism
//! gate. The committed `BENCH_utxo.json` is the full-scale baseline.
//!
//! Two space numbers are reported: the engine's *measured* bytes (pages
//! actually allocated; entries sized by real serialized length, so
//! script-size variance counts) and the paper-endpoint projection under
//! the production 650 B/UTXO model — the gap is production overhead
//! (replication, allocator slack) our leaner layout omits.

use icbtc::bitcoin::Network;
use icbtc::canister::{StorageConfig, UtxoSet};
use icbtc::ic::Meter;
use icbtc::sim::metrics::{humanize, Series};
use icbtc_bench::chaingen::{ChainGen, ChainGenConfig};
use icbtc_bench::report::{banner, Comparison};

struct Args {
    seed: u64,
    blocks: u64,
    volume_scale: u64,
    budget_mib: u64,
    page_size: usize,
    sample_every: u64,
    out: Option<String>,
    metrics_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 5,
        blocks: 4_200,
        volume_scale: 1,
        budget_mib: 2_048,
        page_size: 8_192,
        sample_every: 100,
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
            "--blocks" => {
                args.blocks = value("--blocks needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--blocks must be a count"));
            }
            "--volume-scale" => {
                args.volume_scale = value("--volume-scale needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--volume-scale must be a divisor >= 1"));
            }
            "--budget-mib" => {
                args.budget_mib = value("--budget-mib needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--budget-mib must be a MiB count"));
            }
            "--page-size" => {
                args.page_size = value("--page-size needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--page-size must be bytes"));
            }
            "--sample-every" => {
                args.sample_every = value("--sample-every needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--sample-every must be a block count"));
            }
            "--out" => args.out = Some(value("--out needs a path")),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out needs a path")),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if args.blocks == 0 || args.volume_scale == 0 || args.sample_every == 0 {
        usage("--blocks, --volume-scale and --sample-every must be positive");
    }
    args
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: fig5_utxo_growth [--seed N] [--blocks N] [--volume-scale N] [--budget-mib N]\n\
         \u{20}                       [--page-size N] [--sample-every N] [--out PATH] [--metrics-out PATH]\n\
         \n\
         --seed N          simulation seed (default 5)\n\
         --blocks N        blocks to ingest (default 4200)\n\
         --volume-scale N  divisor on mainnet per-block tx volume (default 1)\n\
         --budget-mib N    storage byte budget in MiB; exhaustion exits 3 (default 2048)\n\
         --page-size N     storage page size in bytes (default 8192)\n\
         --sample-every N  trajectory sample cadence in blocks (default 100)\n\
         --out P           write the JSON report to P (always printed to stdout)\n\
         --metrics-out P   write the storage metrics snapshot JSON to P"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Mainnet blocks in Figure 5's two-year window.
const TWO_YEAR_BLOCKS: u64 = 105_000;
/// UTXOs the chain already held when the window opens.
const BASELINE_UTXOS: u64 = 95_000_000;

fn main() {
    let args = parse_args();
    banner("fig5_utxo_growth", "Figure 5 (UTXO-set size and canister space over two years)");

    let mut generator =
        ChainGen::new(ChainGenConfig::default().scaled_down(args.volume_scale), args.seed);
    let mut set = UtxoSet::with_config(
        Network::Regtest,
        StorageConfig { page_size: args.page_size, byte_budget: args.budget_mib << 20 },
    );
    let mut meter = Meter::new();

    eprintln!(
        "# fig5_utxo_growth: ingesting {} blocks (volume-scale {}, budget {} MiB, seed {})...",
        args.blocks, args.volume_scale, args.budget_mib, args.seed
    );
    let mut trajectory: Vec<(u64, u64, u64, u64)> = Vec::new();
    let mut count_series = Series::new("utxo_count_vs_block(sim_scale)");
    let mut bytes_series = Series::new("state_bytes_vs_block(sim_scale)");
    for height in 0..args.blocks {
        let (txs, _) = generator.next_block();
        if let Err(error) = set.try_ingest_block(&txs, height, &mut meter) {
            eprintln!("error: storage budget exhausted at height {height}: {error}");
            std::process::exit(3);
        }
        if height.is_multiple_of(args.sample_every) || height == args.blocks - 1 {
            let stats = set.storage_stats();
            trajectory.push((height, set.len() as u64, stats.bytes_reserved, stats.pages_allocated));
            count_series.push(height as f64, set.len() as f64);
            bytes_series.push(height as f64, stats.bytes_reserved as f64);
        }
        if height > 0 && height.is_multiple_of(500) {
            eprintln!(
                "# fig5_utxo_growth: height {height}, {} UTXOs, {} MiB reserved",
                set.len(),
                set.byte_size() >> 20
            );
        }
    }

    let stats = set.storage_stats();
    let utxos = set.len() as u64;
    let state_hash: String =
        set.state_hash().iter().map(|b| format!("{b:02x}")).collect();

    println!("\n{count_series}");
    println!("{bytes_series}");

    // Extrapolate to the paper's two-year endpoint: multiply per-block
    // volume and block count back up, add the baseline, and apply the
    // production 650 B/UTXO model for the GiB comparison.
    let projected_utxos =
        BASELINE_UTXOS + utxos * args.volume_scale * TWO_YEAR_BLOCKS / args.blocks;
    let projected_model_bytes = projected_utxos * icbtc::canister::metering::STABLE_BYTES_PER_UTXO;
    let measured_bytes_per_utxo = stats.bytes_reserved / utxos.max(1);

    let mut comparison = Comparison::new();
    comparison.row("UTXOs after two years", "> 170M", humanize(projected_utxos as f64));
    comparison.row(
        "canister state size (650 B/UTXO model)",
        "> 103 GiB",
        format!("{:.1} GiB", projected_model_bytes as f64 / (1u64 << 30) as f64),
    );
    comparison.row(
        "engine bytes/UTXO (measured, this run)",
        "≈ 650 (incl. production overhead)",
        format!("{measured_bytes_per_utxo}"),
    );
    comparison.row(
        "net UTXO growth per block",
        "≈ +714 (derived)",
        format!("+{}", utxos * args.volume_scale / args.blocks),
    );
    comparison.print("paper vs measured (Figure 5 endpoints)");

    let mut trajectory_json = String::new();
    for (i, (height, count, bytes, pages)) in trajectory.iter().enumerate() {
        if i > 0 {
            trajectory_json.push_str(",\n");
        }
        trajectory_json.push_str(&format!(
            "    {{ \"height\": {height}, \"utxos\": {count}, \"bytes_reserved\": {bytes}, \"pages\": {pages} }}"
        ));
    }
    let report = format!(
        "{{\n\
         \u{20} \"schema_version\": 1,\n\
         \u{20} \"bench\": \"fig5_utxo_growth\",\n\
         \u{20} \"seed\": {seed},\n\
         \u{20} \"blocks\": {blocks},\n\
         \u{20} \"volume_scale\": {volume_scale},\n\
         \u{20} \"page_size\": {page_size},\n\
         \u{20} \"byte_budget\": {byte_budget},\n\
         \u{20} \"utxo_count\": {utxos},\n\
         \u{20} \"pages_allocated\": {pages},\n\
         \u{20} \"bytes_reserved\": {bytes_reserved},\n\
         \u{20} \"bytes_used\": {bytes_used},\n\
         \u{20} \"budget_headroom\": {headroom},\n\
         \u{20} \"entry_bytes\": {entry_bytes},\n\
         \u{20} \"bytes_per_utxo\": {bytes_per_utxo},\n\
         \u{20} \"model_bytes_per_utxo\": {model},\n\
         \u{20} \"projected_utxos_two_years\": {projected_utxos},\n\
         \u{20} \"projected_model_bytes_two_years\": {projected_model_bytes},\n\
         \u{20} \"state_hash\": \"{state_hash}\",\n\
         \u{20} \"trajectory\": [\n{trajectory_json}\n\u{20} ]\n\
         }}",
        seed = args.seed,
        blocks = args.blocks,
        volume_scale = args.volume_scale,
        page_size = stats.page_size,
        byte_budget = stats.byte_budget,
        utxos = utxos,
        pages = stats.pages_allocated,
        bytes_reserved = stats.bytes_reserved,
        bytes_used = stats.bytes_used,
        headroom = stats.budget_headroom,
        entry_bytes = stats.entry_bytes,
        bytes_per_utxo = measured_bytes_per_utxo,
        model = icbtc::canister::metering::STABLE_BYTES_PER_UTXO,
        projected_utxos = projected_utxos,
        projected_model_bytes = projected_model_bytes,
        state_hash = state_hash,
        trajectory_json = trajectory_json,
    );

    println!("{report}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{report}\n")) {
            eprintln!("error: cannot write report to {path}: {e}");
            std::process::exit(2);
        }
    }
    if let Some(path) = &args.metrics_out {
        // The same per-page gauges the live canister exports through its
        // obs registry (`BitcoinCanister::refresh_state_gauges`).
        let mut metrics = icbtc::sim::obs::MetricsRegistry::new();
        metrics.set_gauge("canister_storage_pages_allocated", stats.pages_allocated as i64);
        metrics.set_gauge("canister_storage_bytes_reserved", stats.bytes_reserved as i64);
        metrics.set_gauge("canister_storage_bytes_used", stats.bytes_used as i64);
        metrics.set_gauge("canister_storage_budget_headroom_bytes", stats.budget_headroom as i64);
        metrics.set_gauge("canister_utxo_count", utxos as i64);
        if let Err(e) = std::fs::write(path, metrics.snapshot_json()) {
            eprintln!("error: cannot write metrics to {path}: {e}");
            std::process::exit(2);
        }
    }
}
