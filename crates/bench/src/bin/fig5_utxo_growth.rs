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

use icbtc::bitcoin::{txids, Network};
use icbtc::canister::{StorageConfig, UtxoSet};
use icbtc::ic::Meter;
use icbtc::sim::metrics::{humanize, Series};
use icbtc::sim::obs::{Json, MetricsRegistry};
use icbtc_bench::chaingen::{ChainGen, ChainGenConfig};
use icbtc_bench::cli::{emit_report, Flags};
use icbtc_bench::report::{banner, Comparison};

const USAGE: &str = "\
usage: fig5_utxo_growth [--seed N] [--blocks N] [--volume-scale N] [--budget-mib N]
                        [--page-size N] [--sample-every N] [--out PATH] [--metrics-out PATH]

--seed N          simulation seed (default 5)
--blocks N        blocks to ingest (default 4200)
--volume-scale N  divisor on mainnet per-block tx volume (default 1)
--budget-mib N    storage byte budget in MiB; exhaustion exits 3 (default 2048)
--page-size N     storage page size in bytes (default 8192)
--sample-every N  trajectory sample cadence in blocks (default 100)
--out P           write the JSON report to P (always printed to stdout)
--metrics-out P   write the storage metrics snapshot JSON to P";

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

impl Args {
    fn parse(flags: &mut Flags) -> Args {
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
        while let Some(flag) = flags.next_flag() {
            match flag.as_str() {
                "--seed" => args.seed = flags.value("a u64"),
                "--blocks" => args.blocks = flags.value("a count"),
                "--volume-scale" => args.volume_scale = flags.value("a divisor >= 1"),
                "--budget-mib" => args.budget_mib = flags.value("a MiB count"),
                "--page-size" => args.page_size = flags.value("bytes"),
                "--sample-every" => args.sample_every = flags.value("a block count"),
                "--out" => args.out = Some(flags.value("a path")),
                "--metrics-out" => args.metrics_out = Some(flags.value("a path")),
                other => flags.unknown(other),
            }
        }
        if args.blocks == 0 || args.volume_scale == 0 || args.sample_every == 0 {
            flags.fail("--blocks, --volume-scale and --sample-every must be positive");
        }
        args
    }
}

/// Mainnet blocks in Figure 5's two-year window.
const TWO_YEAR_BLOCKS: u64 = 105_000;
/// UTXOs the chain already held when the window opens.
const BASELINE_UTXOS: u64 = 95_000_000;

fn main() {
    let args = Args::parse(&mut Flags::from_env(USAGE));
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
    let mut trajectory = Vec::new();
    let mut count_series = Series::new("utxo_count_vs_block(sim_scale)");
    let mut bytes_series = Series::new("state_bytes_vs_block(sim_scale)");
    for height in 0..args.blocks {
        let (txs, _) = generator.next_block();
        if let Err(error) = set.try_ingest_block(&txs, &txids(&txs), height, &mut meter) {
            eprintln!("error: storage budget exhausted at height {height}: {error}");
            std::process::exit(3);
        }
        if height.is_multiple_of(args.sample_every) || height == args.blocks - 1 {
            let stats = set.storage_stats();
            trajectory.push(Json::Object(vec![
                ("height", height.into()),
                ("utxos", set.len().into()),
                ("bytes_reserved", stats.bytes_reserved.into()),
                ("pages", stats.pages_allocated.into()),
            ]));
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

    let report = Json::Object(vec![
        ("schema_version", 1u64.into()),
        ("bench", "fig5_utxo_growth".into()),
        ("seed", args.seed.into()),
        ("blocks", args.blocks.into()),
        ("volume_scale", args.volume_scale.into()),
        ("page_size", stats.page_size.into()),
        ("byte_budget", stats.byte_budget.into()),
        ("utxo_count", utxos.into()),
        ("pages_allocated", stats.pages_allocated.into()),
        ("bytes_reserved", stats.bytes_reserved.into()),
        ("bytes_used", stats.bytes_used.into()),
        ("budget_headroom", stats.budget_headroom.into()),
        ("entry_bytes", stats.entry_bytes.into()),
        ("bytes_per_utxo", measured_bytes_per_utxo.into()),
        ("model_bytes_per_utxo", icbtc::canister::metering::STABLE_BYTES_PER_UTXO.into()),
        ("projected_utxos_two_years", projected_utxos.into()),
        ("projected_model_bytes_two_years", projected_model_bytes.into()),
        ("state_hash", state_hash.into()),
        ("trajectory", Json::Array(trajectory)),
    ])
    .render();

    // The same per-page gauges the live canister exports through its obs
    // registry (`BitcoinCanister::refresh_state_gauges`).
    let mut metrics = MetricsRegistry::new();
    metrics.set_gauge("canister_storage_pages_allocated", stats.pages_allocated as i64);
    metrics.set_gauge("canister_storage_bytes_reserved", stats.bytes_reserved as i64);
    metrics.set_gauge("canister_storage_bytes_used", stats.bytes_used as i64);
    metrics.set_gauge("canister_storage_budget_headroom_bytes", stats.budget_headroom as i64);
    metrics.set_gauge("canister_utxo_count", utxos as i64);
    emit_report(&report, args.out.as_deref(), args.metrics_out.as_deref(), &metrics);
}
