//! End-to-end integration tests across the whole stack: Bitcoin network →
//! adapters → canister → contracts → back to the Bitcoin network.

use icbtc::canister::{ApiError, CanisterCall, CanisterReply, UtxosFilter};
use icbtc::contracts::{verify_spend, Wallet};
use icbtc::system::{System, SystemConfig};
use icbtc_bitcoin::{Amount, Script};
use icbtc_btcnet::NodeId;
use icbtc_sim::SimTime;

fn booted_system(seed: u64) -> System {
    let mut system = System::new(SystemConfig::regtest(seed));
    system.btc_mut().run_until(SimTime::from_secs(1800));
    assert!(system.sync_canister(6000), "initial sync failed");
    system
}

#[test]
fn full_transfer_lifecycle() {
    let mut system = booted_system(100);
    let alice = Wallet::new("alice");
    let bob = Wallet::new("bob");

    system.fund_address(&alice.address(&system), 2);
    assert!(system.sync_canister(6000));
    let subsidy = icbtc_bitcoin::Network::Regtest.params().block_subsidy;
    assert_eq!(alice.balance(&mut system, 0).unwrap().to_sat(), 2 * subsidy.to_sat());

    let bob_address = bob.address(&system);
    let txid = alice
        .transfer(&mut system, &bob_address, Amount::from_btc_int(3), Amount::from_sat(1000))
        .unwrap();
    let height = system.await_transaction_mined(txid, 800).expect("mined");
    assert!(height > 0);
    assert!(system.sync_canister(6000));

    assert_eq!(bob.balance(&mut system, 0).unwrap(), Amount::from_btc_int(3));
    // Alice got her change: 2×subsidy − 3 BTC − fee.
    let expected_change = 2 * subsidy.to_sat() - Amount::from_btc_int(3).to_sat() - 1000;
    assert_eq!(alice.balance(&mut system, 0).unwrap().to_sat(), expected_change);
}

#[test]
fn produced_transactions_verify_as_real_p2wpkh_spends() {
    let mut system = booted_system(101);
    let wallet = Wallet::new("verifier");
    system.fund_address(&wallet.address(&system), 1);
    assert!(system.sync_canister(6000));

    let to = Wallet::new("dest").address(&system);
    let tx = wallet
        .build_signed_transfer(&mut system, &to, Amount::from_btc_int(1), Amount::from_sat(500))
        .unwrap();
    // Validate the witnesses exactly as a Bitcoin node would.
    let own_script = wallet.address(&system).script_pubkey();
    let utxos = wallet.utxos(&mut system).unwrap();
    let spent: Vec<(Amount, Script)> = tx
        .inputs
        .iter()
        .map(|input| {
            let utxo = utxos.iter().find(|u| u.outpoint == input.previous_output).unwrap();
            (utxo.value, own_script.clone())
        })
        .collect();
    assert!(verify_spend(&tx, &spent), "threshold signatures must verify");

    // A tampered output invalidates every signature.
    let mut tampered = tx.clone();
    tampered.outputs[0].value = Amount::from_sat(tampered.outputs[0].value.to_sat() + 1);
    assert!(!verify_spend(&tampered, &spent));
}

#[test]
fn confirmations_climb_as_blocks_arrive() {
    let mut system = booted_system(102);
    let wallet = Wallet::new("climber");
    system.fund_address(&wallet.address(&system), 1);
    assert!(system.sync_canister(6000));
    let funded = wallet.balance(&mut system, 0).unwrap();
    assert!(funded > Amount::ZERO);

    // Initially the funding block is the tip: 1 confirmation.
    assert_eq!(wallet.balance(&mut system, 1).unwrap(), funded);
    assert_eq!(wallet.balance(&mut system, 2).unwrap(), Amount::ZERO);

    // Each further block adds one confirmation.
    for expected in 2..=4u32 {
        system
            .btc_mut()
            .mine_block_paying(NodeId(0), Script::new_op_return(b"conf"));
        assert!(system.sync_canister(6000));
        assert_eq!(wallet.balance(&mut system, expected).unwrap(), funded, "at {expected}");
        assert_eq!(wallet.balance(&mut system, expected + 1).unwrap(), Amount::ZERO);
    }

    // Confirmations above δ are rejected outright.
    let delta = system.canister().state().params().stability_delta as u32;
    let outcome = system.query(CanisterCall::GetBalance {
        address: wallet.address(&system),
        min_confirmations: delta + 1,
    });
    assert_eq!(
        outcome.outcome.reply,
        Err(ApiError::MinConfirmationsTooLarge { requested: delta + 1, maximum: delta })
    );
}

#[test]
fn utxo_pagination_via_public_api() {
    let mut system = booted_system(103);
    let wallet = Wallet::new("pager");
    // Fund with many blocks so the address holds many UTXOs.
    system.fund_address(&wallet.address(&system), 8);
    assert!(system.sync_canister(8000));

    let address = wallet.address(&system);
    let first = system.query(CanisterCall::GetUtxos { address, filter: None });
    let Ok(CanisterReply::Utxos(response)) = first.outcome.reply else {
        panic!("utxos query failed");
    };
    assert_eq!(response.utxos.len(), 8);
    // Heights strictly descending.
    for pair in response.utxos.windows(2) {
        assert!(pair[0].height >= pair[1].height);
    }
    assert!(response.next_page.is_none(), "8 UTXOs fit one page");

    // Confirmation filtering matches balances.
    let filtered = system.query(CanisterCall::GetUtxos {
        address,
        filter: Some(UtxosFilter::MinConfirmations(3)),
    });
    let Ok(CanisterReply::Utxos(filtered)) = filtered.outcome.reply else {
        panic!("filtered query failed");
    };
    assert_eq!(filtered.utxos.len(), 6, "two newest blocks excluded at c=3");
}

#[test]
fn fee_percentiles_reflect_recent_transactions() {
    let mut system = booted_system(104);
    let wallet = Wallet::new("feepayer");
    system.fund_address(&wallet.address(&system), 2);
    assert!(system.sync_canister(6000));

    // Submit a transfer with a known fee and mine it.
    let to = Wallet::new("feedest").address(&system);
    let txid = wallet
        .transfer(&mut system, &to, Amount::from_btc_int(1), Amount::from_sat(5000))
        .unwrap();
    system.await_transaction_mined(txid, 800).expect("mined");
    assert!(system.sync_canister(6000));

    let outcome = system.query(CanisterCall::GetFeePercentiles);
    let Ok(CanisterReply::FeePercentiles(percentiles)) = outcome.outcome.reply else {
        panic!("fee percentile query failed");
    };
    assert_eq!(percentiles.len(), 100);
    assert!(percentiles.iter().all(|&p| p > 0), "observed fee rates are positive");
    // Percentiles are non-decreasing.
    for pair in percentiles.windows(2) {
        assert!(pair[0] <= pair[1]);
    }
}

#[test]
fn anchor_trails_tip_by_delta() {
    let mut system = booted_system(105);
    // Grow the chain well past δ.
    for _ in 0..12 {
        system.btc_mut().mine_block_paying(NodeId(0), Script::new_op_return(b"grow"));
    }
    assert!(system.sync_canister(8000));
    let state = system.canister().state();
    let (_, tip) = state.best_tip();
    let anchor = state.anchor_height();
    let delta = state.params().stability_delta;
    // On a fork-free chain a block stabilizes once its depth ≥ δ, so the
    // anchor trails the tip by exactly δ − 1 … δ + τ.
    assert!(
        tip - anchor >= delta - 1 && tip - anchor <= delta + state.params().tau,
        "anchor {anchor}, tip {tip}, delta {delta}"
    );
    // The stable region below the anchor holds no block bodies.
    assert!(state.unstable_block_count() as u64 <= tip - anchor);
}

#[test]
fn replicated_latency_distribution_sane() {
    let mut system = booted_system(106);
    let address = Wallet::new("latency").address(&system);
    let mut latencies = Vec::new();
    for _ in 0..10 {
        let outcome = system.replicated(CanisterCall::GetBalance {
            address,
            min_confirmations: 0,
        });
        latencies.push(outcome.latency.as_secs_f64());
    }
    let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
    assert!((3.0..20.0).contains(&mean), "mean replicated latency {mean}s");
    // Queries are at least an order of magnitude faster.
    let query = system.query(CanisterCall::GetBalance { address, min_confirmations: 0 });
    assert!(query.latency.as_secs_f64() * 5.0 < mean);
}

#[test]
fn send_transaction_rejects_garbage_via_full_stack() {
    let mut system = booted_system(107);
    let outcome = system.replicated(CanisterCall::SendTransaction {
        transaction: vec![0xde, 0xad, 0xbe, 0xef],
    });
    assert_eq!(outcome.outcome.reply, Err(ApiError::MalformedTransaction));
    // Malformed submissions still cost cycles.
    assert!(outcome.outcome.cycles_charged > 0);
}
