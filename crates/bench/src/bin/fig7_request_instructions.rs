//! Figure 7 (right): instructions executed for replicated UTXO requests
//! versus response size, with the stable/unstable bifurcation.
//!
//! ```text
//! cargo run --release -p icbtc-bench --bin fig7_request_instructions [scale]
//! ```
//!
//! The paper measures 5.84·10⁶ – 4.76·10⁸ instructions per `get_utxos`
//! call, clearly correlated with response size and bifurcated between
//! UTXOs served from the large stable set and UTXOs found in unstable
//! blocks (the latter are cheaper to fetch). The harness meters the same
//! call over the skewed workload and prints one series per region.

use std::num::NonZeroUsize;

use icbtc::canister::{BitcoinCanister, CanisterCall, CanisterReply};
use icbtc::ic::Meter;
use icbtc::sim::metrics::{exact_quantile_permille, humanize, Series};
use icbtc_bench::cli::Flags;
use icbtc_bench::report::{banner, Comparison};
use icbtc_bench::workload::build_query_workload;

const USAGE: &str = "\
usage: fig7_request_instructions [scale]

scale  divisor applied to the paper's UTXO counts, a positive integer (default 1)";

fn main() {
    let mut flags = Flags::from_env(USAGE);
    let scale = flags.positional("scale", "a positive integer").map_or(1, NonZeroUsize::get);
    banner(
        "fig7_request_instructions",
        "Figure 7 right (instructions per get_utxos vs response size, stable/unstable split)",
    );
    println!("workload scale: 1/{scale} of the paper's UTXO counts\n");

    let workload = build_query_workload(11, scale);
    let canister = BitcoinCanister::from_state(workload.state);

    let mut stable_series = Series::new("instructions_vs_utxos(stable_set)");
    let mut unstable_series = Series::new("instructions_vs_utxos(unstable_blocks)");
    let mut all = Vec::new();
    let mut per_utxo_stable = Vec::new();
    let mut per_utxo_unstable = Vec::new();

    for (addresses, series, per_utxo) in [
        (&workload.stable_addresses, &mut stable_series, &mut per_utxo_stable),
        (&workload.unstable_addresses, &mut unstable_series, &mut per_utxo_unstable),
    ] {
        for (address, _) in addresses {
            let mut meter = Meter::new();
            let outcome = canister.query(
                &CanisterCall::GetUtxos { address: *address, filter: None },
                &mut meter,
            );
            let Ok(CanisterReply::Utxos(response)) = outcome.reply else {
                panic!("query failed");
            };
            let instructions = meter.instructions();
            all.push(instructions);
            series.push(response.utxos.len() as f64, instructions as f64);
            if !response.utxos.is_empty() {
                // Key ⌊2⁶⁴·instructions/utxos⌋: distinct ratios differ by at least
                // 1/(u·u′), which scales to ≥ 1 as u·u′ ≤ 2⁶⁴, so the key orders the
                // exact ratios and the median is the sample an f64 sort would pick.
                let utxos = response.utxos.len() as u64;
                let key = (u128::from(instructions) << 64) / u128::from(utxos);
                per_utxo.push((key, instructions, utxos));
            }
        }
    }

    println!("{stable_series}");
    println!("{unstable_series}");

    let median = |per_utxo: &mut Vec<(u128, u64, u64)>| {
        exact_quantile_permille(per_utxo, 500).map_or(0.0, |&(_, i, u)| i as f64 / u as f64)
    };
    let stable_median = median(&mut per_utxo_stable);
    let unstable_median = median(&mut per_utxo_unstable);
    let min = all.iter().copied().min().unwrap_or(0);
    let max = all.iter().copied().max().unwrap_or(0);
    let mut comparison = Comparison::new();
    comparison.row("min instructions", "5.84e6", humanize(min as f64));
    comparison.row("max instructions", "4.76e8", humanize(max as f64));
    comparison.row(
        "bifurcation (per-UTXO cost, stable vs unstable)",
        "stable several× costlier",
        format!(
            "{} vs {} instr/UTXO ({:.1}×)",
            humanize(stable_median),
            humanize(unstable_median),
            stable_median / unstable_median.max(1.0)
        ),
    );
    comparison.row(
        "correlation with response size",
        "clear",
        "linear by construction of the cost model",
    );
    comparison.print("paper vs measured (Figure 7 right)");
}
