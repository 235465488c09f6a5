//! Figure 7 (left/center): response time of replicated and non-replicated
//! `get_balance` / `get_utxos` requests over the 1000-address workload.
//!
//! ```text
//! cargo run --release -p icbtc-bench --bin fig7_request_latency [scale]
//! ```
//!
//! The paper reports: replicated requests average below 10 s (minimum
//! ≈ 7 s, p90 ≈ 18 s); queries have medians ≈ 220 ms (`get_balance`) and
//! ≈ 310 ms (`get_utxos`) with p90 below 0.5 s and 2.5 s. The harness
//! loads the skewed workload into a canister hosted on a simulated
//! 13-replica subnet and measures both request classes end-to-end.

use icbtc::canister::{BitcoinCanister, CanisterCall};
use icbtc::ic::consensus::ConsensusConfig;
use icbtc::ic::{StateMachine, Subnet};
use std::num::NonZeroUsize;

use icbtc::sim::metrics::{exact_quantile_permille, Series};
use icbtc_bench::cli::Flags;
use icbtc_bench::report::{banner, Comparison};
use icbtc_bench::workload::build_query_workload;

const USAGE: &str = "\
usage: fig7_request_latency [scale]

scale  divisor applied to the paper's UTXO counts, a positive integer (default 2)";

fn main() {
    let mut flags = Flags::from_env(USAGE);
    let scale = flags.positional("scale", "a positive integer").map_or(2, NonZeroUsize::get);
    banner(
        "fig7_request_latency",
        "Figure 7 left/center (replicated and query response times)",
    );
    println!("workload scale: 1/{scale} of the paper's UTXO counts\n");

    let workload = build_query_workload(7, scale);
    let addresses: Vec<_> = workload
        .stable_addresses
        .iter()
        .chain(&workload.unstable_addresses)
        .cloned()
        .collect();
    let canister = BitcoinCanister::from_state(workload.state);
    let mut subnet = Subnet::new(canister, ConsensusConfig::thirteen_replicas(), 7);

    // Latencies in nanoseconds.
    let mut replicated_balance: Vec<u64> = Vec::new();
    let mut replicated_utxos: Vec<u64> = Vec::new();
    let mut query_balance: Vec<u64> = Vec::new();
    let mut query_utxos: Vec<u64> = Vec::new();
    let mut latency_vs_count = Series::new("query_utxos_latency_s_vs_utxo_count");

    // Queries: one pair per address (cheap).
    for (address, count) in &addresses {
        let (_, _, latency) = subnet.query(
            |canister, meter| {
                canister.query(
                    &CanisterCall::GetBalance { address: *address, min_confirmations: 0 },
                    meter,
                )
            },
            BitcoinCanister::output_bytes,
        );
        query_balance.push(latency.as_nanos());
        let (_, _, latency) = subnet.query(
            |canister, meter| {
                canister.query(&CanisterCall::GetUtxos { address: *address, filter: None }, meter)
            },
            BitcoinCanister::output_bytes,
        );
        query_utxos.push(latency.as_nanos());
        latency_vs_count.push(*count as f64, latency.as_secs_f64());
    }

    // Replicated calls: a sample of 150 addresses (each waits for rounds).
    for (address, _) in addresses.iter().step_by(addresses.len() / 150) {
        for (call, latencies) in [
            (
                CanisterCall::GetBalance { address: *address, min_confirmations: 0 },
                &mut replicated_balance,
            ),
            (CanisterCall::GetUtxos { address: *address, filter: None }, &mut replicated_utxos),
        ] {
            let id = subnet.submit(call);
            'wait: loop {
                let report = subnet.execute_round(|_, _| {});
                for result in report.results {
                    if result.id == id {
                        latencies.push(result.latency().as_nanos());
                        break 'wait;
                    }
                }
            }
        }
    }

    println!("{latency_vs_count}");

    let secs = |ns: u64| ns as f64 / 1e9;
    let mean = |ns: &[u64]| secs(ns.iter().sum()) / ns.len().max(1) as f64;
    let quantile = |ns: &mut [u64], permille| {
        secs(exact_quantile_permille(ns, permille).copied().unwrap_or(0))
    };
    let min = replicated_balance.iter().chain(&replicated_utxos).copied().min().unwrap_or(0);

    let mut comparison = Comparison::new();
    comparison.row(
        "replicated: mean",
        "< 10 s",
        format!(
            "{:.1} s (balance) / {:.1} s (utxos)",
            mean(&replicated_balance),
            mean(&replicated_utxos)
        ),
    );
    comparison.row("replicated: min", "≈ 7 s", format!("{:.1} s", secs(min)));
    comparison.row(
        "replicated: p90",
        "≈ 18 s",
        format!(
            "{:.1} s / {:.1} s",
            quantile(&mut replicated_balance, 900),
            quantile(&mut replicated_utxos, 900)
        ),
    );
    comparison.row(
        "query get_balance: median",
        "≈ 220 ms",
        format!("{:.0} ms", quantile(&mut query_balance, 500) * 1e3),
    );
    comparison.row(
        "query get_utxos: median",
        "≈ 310 ms",
        format!("{:.0} ms", quantile(&mut query_utxos, 500) * 1e3),
    );
    comparison.row(
        "query p90",
        "< 0.5 s / < 2.5 s",
        format!(
            "{:.2} s / {:.2} s",
            quantile(&mut query_balance, 900),
            quantile(&mut query_utxos, 900)
        ),
    );
    comparison.print("paper vs measured (Figure 7 left/center)");
}
