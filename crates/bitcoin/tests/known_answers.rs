//! Known-answer test for the consensus encodings: txids, wtxids, sizes,
//! the block hash, the Merkle root and the three signature hashes of
//! fixed transactions are pinned to hex constants, so any change to how
//! the bytes are produced must reproduce them exactly.

use icbtc_bitcoin::block::merkle_root;
use icbtc_bitcoin::encode::Encodable;
use icbtc_bitcoin::pow::CompactTarget;
use icbtc_bitcoin::script::{legacy_sighash, segwit_v0_sighash, taproot_key_spend_sighash};
use icbtc_bitcoin::{
    txids, Amount, Block, BlockHash, BlockHeader, OutPoint, Script, Transaction, TxIn, TxOut, Txid,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Two inputs with unlocking scripts, three outputs, no witness.
fn legacy_tx() -> Transaction {
    let mut first = TxIn::new(OutPoint::new(Txid([0x11; 32]), 0));
    first.script_sig = vec![0x47; 72];
    first.sequence = 0xffff_fffe;
    let mut second = TxIn::new(OutPoint::new(Txid([0x22; 32]), 5));
    second.script_sig = (0..=255).collect();
    Transaction {
        version: 1,
        inputs: vec![first, second],
        outputs: vec![
            TxOut::new(Amount::from_sat(50_000), Script::new_p2pkh(&[0x33; 20])),
            TxOut::new(Amount::from_sat(1), Script::new_op_return(b"known answer")),
            TxOut::new(Amount::from_sat(7_654_321), Script::new_p2sh(&[0x44; 20])),
        ],
        lock_time: 500_000,
    }
}

/// Two inputs, the first with a two-item witness and the second with
/// none, and two outputs.
fn segwit_tx() -> Transaction {
    let mut first = TxIn::new(OutPoint::new(Txid([0x55; 32]), 1));
    first.witness = vec![vec![0x30; 71], vec![0x02; 33]];
    let second = TxIn::new(OutPoint::new(Txid([0x66; 32]), 2));
    Transaction {
        version: 2,
        inputs: vec![first, second],
        outputs: vec![
            TxOut::new(Amount::from_sat(90_000), Script::new_p2wpkh(&[0x77; 20])),
            TxOut::new(Amount::from_sat(9_000), Script::new_p2tr(&[0x88; 32])),
        ],
        lock_time: 0,
    }
}

/// A coinbase and the segwit transaction under a fixed header.
fn block() -> Block {
    let mut coinbase = TxIn::new(OutPoint::NULL);
    coinbase.script_sig = vec![0x03, 0x01, 0x02, 0x03];
    let txdata = vec![
        Transaction {
            version: 2,
            inputs: vec![coinbase],
            outputs: vec![TxOut::new(Amount::from_btc_int(50), Script::new_p2wpkh(&[0x99; 20]))],
            lock_time: 0,
        },
        segwit_tx(),
    ];
    let header = BlockHeader {
        version: 0x2000_0000,
        prev_blockhash: BlockHash([0xaa; 32]),
        merkle_root: merkle_root(&txids(&txdata)),
        time: 1_700_000_000,
        bits: CompactTarget::from_consensus(0x207f_ffff),
        nonce: 42,
    };
    Block { header, txdata }
}

#[test]
fn legacy_transaction_known_answers() {
    let tx = legacy_tx();
    let txid = "9f48bf385a25ff88a54f49e1ac8c176759eb0420b24f192b04e76f336e085be5";
    assert_eq!(hex(&tx.txid().0), txid);
    assert_eq!(hex(&tx.wtxid().0), txid, "no witness: wtxid is the txid");
    assert_eq!((tx.base_size(), tx.total_size(), tx.weight()), (511, 511, 2044));
    let code = Script::new_p2pkh(&[0x33; 20]);
    assert_eq!(
        hex(&legacy_sighash(&tx, 0, &code)),
        "f7389d533492d162d0272432e3e72d0a7dc8565b9e2d2a32b54d0b7ae2fcc5a8"
    );
    assert_eq!(
        hex(&legacy_sighash(&tx, 1, &code)),
        "e7691c9808b6d485ce06119caf11a21476cdab47d2e2e7b694f49cf7c2a2acbf"
    );
}

#[test]
fn segwit_transaction_known_answers() {
    let tx = segwit_tx();
    assert_eq!(
        hex(&tx.txid().0),
        "b09b8c6c945a4019d7b03fd623cf9b0f9c4d10ae46632d5a8e21634de1d0d360"
    );
    assert_eq!(
        hex(&tx.wtxid().0),
        "81e98a594600eb07cfb80694f87512e24e94487ef1d4c3d17d083a66999ba77d"
    );
    assert_eq!((tx.base_size(), tx.total_size(), tx.weight()), (166, 276, 774));
    let code = Script::new_p2pkh(&[0x77; 20]);
    assert_eq!(
        hex(&segwit_v0_sighash(&tx, 0, &code, Amount::from_sat(100_000))),
        "975bf564db3f194d8d3e99a0be57954afddeca2d0ca40d02d06baac63fa80586"
    );
    let spent = [
        (Amount::from_sat(60_000), Script::new_p2tr(&[0xbb; 32])),
        (Amount::from_sat(40_000), Script::new_p2tr(&[0xcc; 32])),
    ];
    assert_eq!(
        hex(&taproot_key_spend_sighash(&tx, 1, &spent)),
        "1b956dbf9dafa1093a2955d016a6f809418cfdaa02a4fa68913fb844332762c0"
    );
}

#[test]
fn block_known_answers() {
    let block = block();
    assert_eq!(
        hex(&block.header.merkle_root.0),
        "befef1544bbe360ce471901b8a8f7e249866e7c32b7c8f044a3bde0186cebd4c"
    );
    assert_eq!(
        hex(&block.block_hash().0),
        "8ff24dde31b00efa8a20df8143b6b1463efaadd9265394ef5d7531133f797044"
    );
    assert_eq!(block.encoded_len(), 443);
    assert!(block.is_well_formed());
}
