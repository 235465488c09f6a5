//! Integration tests for the threshold-Schnorr taproot path and the
//! `get_block_headers` endpoint.

use icbtc::canister::{ApiError, CanisterCall, CanisterReply};
use icbtc::contracts::{verify_spend, Wallet};
use icbtc::system::{System, SystemConfig};
use icbtc_bitcoin::{Amount, Script};
use icbtc_btcnet::NodeId;
use icbtc_sim::SimTime;

fn booted(seed: u64) -> System {
    let mut system = System::new(SystemConfig::regtest(seed));
    system.btc_mut().run_until(SimTime::from_secs(1800));
    assert!(system.sync_canister(6000), "initial sync failed");
    system
}

#[test]
fn taproot_wallet_full_lifecycle() {
    let mut system = booted(200);
    let wallet = Wallet::taproot("vault");
    let address = wallet.address(&system);
    assert!(address.to_string().starts_with("bcrt1p"), "bech32m P2TR address");

    system.fund_address(&address, 2);
    assert!(system.sync_canister(6000));
    let subsidy = icbtc_bitcoin::Network::Regtest.params().block_subsidy;
    assert_eq!(wallet.balance(&mut system, 0).unwrap().to_sat(), 2 * subsidy.to_sat());

    // Spend by key path with a threshold Schnorr signature.
    let recipient = Wallet::new("segwit-recipient");
    let recipient_address = recipient.address(&system);
    let txid = wallet
        .transfer(&mut system, &recipient_address, Amount::from_btc_int(5), Amount::from_sat(800))
        .unwrap();
    let height = system.await_transaction_mined(txid, 800).expect("taproot spend mined");
    assert!(height > 0);
    assert!(system.sync_canister(6000));
    assert_eq!(recipient.balance(&mut system, 0).unwrap(), Amount::from_btc_int(5));
    // Change returned to the taproot wallet.
    let change = wallet.balance(&mut system, 0).unwrap();
    assert_eq!(change.to_sat(), 2 * subsidy.to_sat() - Amount::from_btc_int(5).to_sat() - 800);
}

#[test]
fn taproot_signatures_verify_as_bip341_key_spends() {
    let mut system = booted(201);
    let wallet = Wallet::taproot("verifier");
    let address = wallet.address(&system);
    system.fund_address(&address, 1);
    assert!(system.sync_canister(6000));

    let x_address = Wallet::new("x").address(&system);
    let txid = wallet
        .transfer(&mut system, &x_address, Amount::from_btc_int(1), Amount::from_sat(500))
        .unwrap();
    // Dig the submitted transaction out of the mempool/blocks.
    system.await_transaction_mined(txid, 800).expect("mined");
    let chain = system.btc().node(NodeId(0)).chain().clone();
    let tx = chain
        .best_chain()
        .iter()
        .filter_map(|h| chain.block(h))
        .flat_map(|b| b.txdata.iter())
        .find(|t| t.txid() == txid)
        .cloned()
        .expect("transaction on chain");

    let spent: Vec<(Amount, Script)> = tx
        .inputs
        .iter()
        .map(|_| {
            // The single funded coinbase output: subsidy to our P2TR.
            (
                icbtc_bitcoin::Network::Regtest.params().block_subsidy,
                address.script_pubkey(),
            )
        })
        .collect();
    assert!(verify_spend(&tx, &spent), "BIP-341 verification must pass");

    // Tampering breaks it.
    let mut tampered = tx.clone();
    tampered.outputs[0].value = Amount::from_sat(tx.outputs[0].value.to_sat() - 1);
    assert!(!verify_spend(&tampered, &spent));
}

#[test]
fn taproot_and_segwit_wallets_have_unrelated_keys() {
    let system = System::new(SystemConfig::regtest(202));
    let segwit = Wallet::new("same-label");
    let taproot = Wallet::taproot("same-label");
    // Different derivation namespaces: no key reuse across schemes.
    assert_ne!(segwit.path(), taproot.path());
    assert_ne!(
        segwit.address(&system).script_pubkey(),
        taproot.address(&system).script_pubkey()
    );
}

#[test]
fn get_block_headers_spans_stable_and_unstable() {
    let mut system = booted(203);
    for _ in 0..4 {
        system.btc_mut().mine_block_paying(NodeId(0), Script::new_op_return(b"h"));
    }
    assert!(system.sync_canister(6000));
    let (_, tip) = system.canister().state().best_tip();
    assert!(tip >= 5);

    let outcome = system.query(CanisterCall::GetBlockHeaders { start_height: 0, end_height: tip });
    let Ok(CanisterReply::BlockHeaders(response)) = outcome.outcome.reply else {
        panic!("header query failed: {:?}", outcome.outcome.reply);
    };
    assert_eq!(response.tip_height, tip);
    assert_eq!(response.headers.len() as u64, tip + 1);
    // Headers chain correctly and match the real network's best chain.
    for pair in response.headers.windows(2) {
        assert_eq!(pair[1].prev_blockhash, pair[0].block_hash());
    }
    let chain = system.btc().node(NodeId(0)).chain().clone();
    for (height, header) in response.headers.iter().enumerate() {
        assert_eq!(
            chain.best_chain_hash_at(height as u64),
            Some(header.block_hash()),
            "height {height}"
        );
    }

    // Clamping and errors.
    let clamped =
        system.query(CanisterCall::GetBlockHeaders { start_height: tip, end_height: tip + 50 });
    let Ok(CanisterReply::BlockHeaders(clamped)) = clamped.outcome.reply else {
        panic!("clamped query failed");
    };
    assert_eq!(clamped.headers.len(), 1);

    let inverted =
        system.query(CanisterCall::GetBlockHeaders { start_height: 5, end_height: 2 });
    assert_eq!(inverted.outcome.reply, Err(ApiError::MalformedPage));
    let beyond = system
        .query(CanisterCall::GetBlockHeaders { start_height: tip + 10, end_height: tip + 20 });
    assert_eq!(beyond.outcome.reply, Err(ApiError::MalformedPage));
}

#[test]
fn schnorr_threshold_signature_through_system() {
    let mut system = booted(204);
    let path = icbtc::tecdsa::protocol::DerivationPath::new([b"schnorr-test".to_vec()]);
    let message = [0x5au8; 32];
    let (signature, pubkey_x) = system.sign_with_schnorr(&path, message);
    assert!(icbtc::tecdsa::schnorr::verify(&pubkey_x, &message, &signature));
    assert!(!icbtc::tecdsa::schnorr::verify(&pubkey_x, &[0u8; 32], &signature));
}
