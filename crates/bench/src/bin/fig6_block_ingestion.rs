//! Figure 6: instructions per ingested block (left) and the
//! output-insertion / input-removal split (right).
//!
//! ```text
//! cargo run --release -p icbtc-bench --bin fig6_block_ingestion
//! ```
//!
//! The paper measures ≈ 21.6 billion WebAssembly instructions per
//! ingested mainnet block over six months, with roughly half spent on
//! output insertions and half on input removals. The harness ingests a
//! full-volume synthetic stream under the calibrated instruction model,
//! records every block into the deterministic metrics registry
//! (`icbtc_sim::obs`) — the same instrument the canister itself uses —
//! and reads the reported numbers back from the registry, cross-checked
//! against the meter's ground truth. The per-block split is read from the
//! meter's profile: every insertion and removal is one `output_insertion`
//! / `input_removal` frame.

use icbtc::bitcoin::{txids, Network};
use icbtc::canister::UtxoSet;
use icbtc::ic::Meter;
use icbtc::sim::metrics::{humanize, Series};
use icbtc::sim::obs::{MetricsRegistry, INSTRUCTION_BOUNDS};
use icbtc_bench::chaingen::{ChainGen, ChainGenConfig};
use icbtc_bench::report::{banner, Comparison};

fn main() {
    banner(
        "fig6_block_ingestion",
        "Figure 6 (instructions per ingested block; insertion/removal split)",
    );

    // Full mainnet per-block volume; six simulated months of Figure 6
    // would be ~26k blocks — 200 suffice for stable statistics.
    const BLOCKS: u64 = 200;
    let mut generator = ChainGen::new(ChainGenConfig::default(), 6);
    let mut set = UtxoSet::new(Network::Regtest);

    let mut registry = MetricsRegistry::new();
    registry.register_histogram("fig6_block_instructions", INSTRUCTION_BOUNDS);

    let mut per_block = Series::new("instructions_vs_block");
    let mut insert_series = Series::new("output_insertion_instructions_vs_block");
    let mut remove_series = Series::new("input_removal_instructions_vs_block");
    let mut ground_truth: u64 = 0;

    for height in 0..BLOCKS {
        let (txs, _) = generator.next_block();
        let mut meter = Meter::new();
        set.try_ingest_block(&txs, &txids(&txs), height, &mut meter).expect("stable ingest");
        let total = meter.instructions();
        ground_truth += total;
        let insertion = meter.profile().total_named("output_insertion");
        let removal = meter.profile().total_named("input_removal");

        registry.observe("fig6_block_instructions", total);
        registry.add("fig6_instructions_total", total);
        registry.add_with(
            "fig6_split_instructions_total",
            &[("kind", "output_insertion")],
            insertion,
        );
        registry.add_with(
            "fig6_split_instructions_total",
            &[("kind", "input_removal")],
            removal,
        );

        per_block.push(height as f64, total as f64);
        insert_series.push(height as f64, insertion as f64);
        remove_series.push(height as f64, removal as f64);
    }

    // The registry is the reporting source of truth; the meter sum is the
    // ground truth it must agree with exactly.
    assert_eq!(
        registry.counter("fig6_instructions_total"),
        ground_truth,
        "registry counter diverged from metered instructions"
    );
    let histogram = registry
        .histogram("fig6_block_instructions")
        .expect("histogram was registered above");
    assert_eq!(histogram.count(), BLOCKS, "one observation per ingested block");
    assert_eq!(histogram.sum(), ground_truth, "histogram sum must equal metered total");

    println!("\n{per_block}");
    println!("{insert_series}");
    println!("{remove_series}");
    println!("{}", registry.snapshot_text());

    let insert = registry
        .counter_with("fig6_split_instructions_total", &[("kind", "output_insertion")])
        as f64;
    let remove = registry
        .counter_with("fig6_split_instructions_total", &[("kind", "input_removal")])
        as f64;
    let mut comparison = Comparison::new();
    comparison.row("avg instructions per block", "≈ 21.6B", humanize(histogram.mean()));
    comparison.row(
        "min / max per block",
        "varies with block size",
        format!("{} / {}", humanize(histogram.min() as f64), humanize(histogram.max() as f64)),
    );
    comparison.row(
        "output-insertion share",
        "≈ 50%",
        format!("{:.0}%", 100.0 * insert / (insert + remove)),
    );
    comparison.row(
        "input-removal share",
        "≈ 50%",
        format!("{:.0}%", 100.0 * remove / (insert + remove)),
    );
    comparison.print("paper vs measured (Figure 6)");
}
