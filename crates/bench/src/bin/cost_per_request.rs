//! §IV-B cost table: requests per U.S. dollar.
//!
//! ```text
//! cargo run --release -p icbtc-bench --bin cost_per_request
//! ```
//!
//! The paper: "approximately 35,000 (1,500) requests for balances (UTXOs)
//! can be made for 1 U.S. dollar", against $1–2 per on-chain Bitcoin
//! transaction at the end of 2024. The harness measures actual metered
//! instruction counts on the workload, applies the cycles fee schedule,
//! and converts at the XDR rate.

use icbtc::canister::{BitcoinCanister, CanisterCall};
use icbtc::ic::cycles::{cycles_to_usd, FeeSchedule};
use icbtc::ic::Meter;
use icbtc_bench::report::{banner, Comparison};
use icbtc_bench::workload::build_query_workload;

fn main() {
    banner("cost_per_request", "§IV-B cost paragraph (requests per USD)");

    let workload = build_query_workload(13, 2);
    let addresses: Vec<_> = workload
        .stable_addresses
        .iter()
        .chain(&workload.unstable_addresses)
        .cloned()
        .collect();
    let canister = BitcoinCanister::from_state(workload.state);
    let fees = FeeSchedule::default();

    let (mut balance_cycles, mut utxo_cycles) = (0u128, 0u128);
    for (address, _) in &addresses {
        let mut meter = Meter::new();
        let _ = canister.query(
            &CanisterCall::GetBalance { address: *address, min_confirmations: 0 },
            &mut meter,
        );
        balance_cycles += fees.get_balance_fee(meter.instructions());

        let mut meter = Meter::new();
        let _ =
            canister.query(&CanisterCall::GetUtxos { address: *address, filter: None }, &mut meter);
        utxo_cycles += fees.get_utxos_fee(meter.instructions());
    }

    // Mean cycles per call, truncated to whole cycles.
    let calls = addresses.len().max(1) as u128;
    let balance_per_usd = 1.0 / cycles_to_usd(balance_cycles / calls);
    let utxos_per_usd = 1.0 / cycles_to_usd(utxo_cycles / calls);
    let send_tx_usd = cycles_to_usd(fees.send_transaction_fee(250));

    let mut comparison = Comparison::new();
    comparison.row("get_balance requests / USD", "≈ 35,000", format!("{balance_per_usd:.0}"));
    comparison.row("get_utxos requests / USD", "≈ 1,500", format!("{utxos_per_usd:.0}"));
    comparison.row(
        "send_transaction (250 vB) cost",
        "—",
        format!("${send_tx_usd:.4}"),
    );
    comparison.row(
        "single Bitcoin on-chain tx fee",
        "$1–2 (end of 2024)",
        "$1–2 (external reference)",
    );
    comparison.print("paper vs measured (cost)");
    println!(
        "note: a canister reads the Bitcoin state ~{:.0}× cheaper than a single\n\
         on-chain transaction costs, the economic argument of §I.",
        balance_per_usd
    );
}
