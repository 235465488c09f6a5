//! Bitcoin locking scripts and signature-hash computation.
//!
//! The canister architecture never *executes* scripts (§III-C: transaction
//! validation is delegated to the Bitcoin network), but it must recognize
//! the standard output templates to index UTXOs by address, and the smart
//! contract layer must build and sign spends of canister-controlled
//! outputs. This module therefore provides:
//!
//! * construction and classification of standard templates (P2PKH, P2WPKH,
//!   P2SH, P2WSH, P2TR, OP_RETURN), and
//! * the three signature-hash algorithms contracts need: legacy
//!   (pre-segwit), BIP-143 (segwit v0) and BIP-341 key-path (taproot).

use std::fmt;

use crate::encode::{encode_list, Encodable, VarInt};
use crate::hash::Sha256;
use crate::tx::{Amount, Transaction};

// A few opcodes — only the ones the standard templates use.
const OP_0: u8 = 0x00;
const OP_1: u8 = 0x51;
const OP_RETURN: u8 = 0x6a;
const OP_DUP: u8 = 0x76;
const OP_EQUAL: u8 = 0x87;
const OP_EQUALVERIFY: u8 = 0x88;
const OP_HASH160: u8 = 0xa9;
const OP_CHECKSIG: u8 = 0xac;

/// A serialized locking script.
///
/// The raw byte representation is authoritative (arbitrary scripts are
/// representable); the constructors and [`Script::classify`] deal in the
/// standard templates.
///
/// # Examples
///
/// ```
/// use icbtc_bitcoin::{Script, ScriptKind};
/// let script = Script::new_p2wpkh(&[7; 20]);
/// assert_eq!(script.classify(), ScriptKind::P2wpkh([7; 20]));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Script(Vec<u8>);

/// The standard output-script templates.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ScriptKind {
    /// Pay-to-pubkey-hash: `OP_DUP OP_HASH160 <20> OP_EQUALVERIFY OP_CHECKSIG`.
    P2pkh([u8; 20]),
    /// Pay-to-script-hash: `OP_HASH160 <20> OP_EQUAL`.
    P2sh([u8; 20]),
    /// Segwit v0 key hash: `OP_0 <20>`.
    P2wpkh([u8; 20]),
    /// Segwit v0 script hash: `OP_0 <32>`.
    P2wsh([u8; 32]),
    /// Segwit v1 (taproot): `OP_1 <32>`.
    P2tr([u8; 32]),
    /// Provably unspendable data carrier.
    OpReturn,
    /// Anything else.
    NonStandard,
}

impl Script {
    /// Wraps raw script bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Script {
        Script(bytes)
    }

    /// Returns the raw script bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Returns the script length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` for the empty script.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Builds a pay-to-pubkey-hash script.
    pub fn new_p2pkh(pubkey_hash: &[u8; 20]) -> Script {
        let mut s = Vec::with_capacity(25);
        s.extend_from_slice(&[OP_DUP, OP_HASH160, 20]);
        s.extend_from_slice(pubkey_hash);
        s.extend_from_slice(&[OP_EQUALVERIFY, OP_CHECKSIG]);
        Script(s)
    }

    /// Builds a pay-to-script-hash script.
    pub fn new_p2sh(script_hash: &[u8; 20]) -> Script {
        let mut s = Vec::with_capacity(23);
        s.extend_from_slice(&[OP_HASH160, 20]);
        s.extend_from_slice(script_hash);
        s.push(OP_EQUAL);
        Script(s)
    }

    /// Builds a segwit v0 pay-to-witness-pubkey-hash script.
    pub fn new_p2wpkh(pubkey_hash: &[u8; 20]) -> Script {
        let mut s = Vec::with_capacity(22);
        s.extend_from_slice(&[OP_0, 20]);
        s.extend_from_slice(pubkey_hash);
        Script(s)
    }

    /// Builds a segwit v0 pay-to-witness-script-hash script.
    pub fn new_p2wsh(script_hash: &[u8; 32]) -> Script {
        let mut s = Vec::with_capacity(34);
        s.extend_from_slice(&[OP_0, 32]);
        s.extend_from_slice(script_hash);
        Script(s)
    }

    /// Builds a segwit v1 (taproot) script for an x-only output key.
    pub fn new_p2tr(output_key: &[u8; 32]) -> Script {
        let mut s = Vec::with_capacity(34);
        s.extend_from_slice(&[OP_1, 32]);
        s.extend_from_slice(output_key);
        Script(s)
    }

    /// Builds an OP_RETURN data carrier (data truncated to 80 bytes, the
    /// standardness limit).
    pub fn new_op_return(data: &[u8]) -> Script {
        let data = &data[..data.len().min(80)];
        let mut s = Vec::with_capacity(2 + data.len());
        s.push(OP_RETURN);
        s.push(data.len() as u8);
        s.extend_from_slice(data);
        Script(s)
    }

    /// Classifies the script against the standard templates.
    pub fn classify(&self) -> ScriptKind {
        let b = &self.0;
        match b.as_slice() {
            [OP_DUP, OP_HASH160, 20, mid @ .., OP_EQUALVERIFY, OP_CHECKSIG] if mid.len() == 20 => {
                let mut h = [0u8; 20];
                h.copy_from_slice(mid);
                ScriptKind::P2pkh(h)
            }
            [OP_HASH160, 20, mid @ .., OP_EQUAL] if mid.len() == 20 => {
                let mut h = [0u8; 20];
                h.copy_from_slice(mid);
                ScriptKind::P2sh(h)
            }
            [OP_0, 20, rest @ ..] if rest.len() == 20 => {
                let mut h = [0u8; 20];
                h.copy_from_slice(rest);
                ScriptKind::P2wpkh(h)
            }
            [OP_0, 32, rest @ ..] if rest.len() == 32 => {
                let mut h = [0u8; 32];
                h.copy_from_slice(rest);
                ScriptKind::P2wsh(h)
            }
            [OP_1, 32, rest @ ..] if rest.len() == 32 => {
                let mut h = [0u8; 32];
                h.copy_from_slice(rest);
                ScriptKind::P2tr(h)
            }
            [OP_RETURN, ..] => ScriptKind::OpReturn,
            _ => ScriptKind::NonStandard,
        }
    }

    /// Returns `true` if the script is a data carrier or otherwise
    /// unspendable.
    pub fn is_op_return(&self) -> bool {
        matches!(self.classify(), ScriptKind::OpReturn)
    }
}

impl fmt::Debug for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Script(")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl From<Vec<u8>> for Script {
    fn from(bytes: Vec<u8>) -> Script {
        Script(bytes)
    }
}

/// Signature-hash flag. Only `SIGHASH_ALL` is used by the contracts in this
/// workspace.
pub const SIGHASH_ALL: u32 = 1;
/// Taproot's default sighash byte (implies ALL).
pub const SIGHASH_DEFAULT: u8 = 0;

/// Computes the legacy (pre-segwit) `SIGHASH_ALL` digest for `input_index`.
///
/// `script_code` is the locking script of the output being spent (for
/// P2PKH, the full pubkey-hash script).
///
/// # Panics
///
/// Panics if `input_index` is out of range.
pub fn legacy_sighash(tx: &Transaction, input_index: usize, script_code: &Script) -> [u8; 32] {
    assert!(input_index < tx.inputs.len(), "input index out of range");
    // The transaction without witnesses, every unlocking script replaced
    // by `script_code` at `input_index` and by the empty script elsewhere.
    let mut preimage = Sha256::new();
    tx.version.encode(&mut preimage);
    VarInt(tx.inputs.len() as u64).encode(&mut preimage);
    for (i, input) in tx.inputs.iter().enumerate() {
        input.previous_output.encode(&mut preimage);
        let script: &[u8] = if i == input_index { script_code.as_bytes() } else { &[] };
        script.encode(&mut preimage);
        input.sequence.encode(&mut preimage);
    }
    encode_list(&tx.outputs, &mut preimage);
    tx.lock_time.encode(&mut preimage);
    SIGHASH_ALL.encode(&mut preimage);
    preimage.finalize_double()
}

/// Computes the BIP-143 (segwit v0) `SIGHASH_ALL` digest for `input_index`.
///
/// `script_code` is the canonical script code of the spent output (for
/// P2WPKH, the implied P2PKH script over the same key hash) and `value` is
/// the amount of the output being spent.
///
/// # Panics
///
/// Panics if `input_index` is out of range.
pub fn segwit_v0_sighash(
    tx: &Transaction,
    input_index: usize,
    script_code: &Script,
    value: Amount,
) -> [u8; 32] {
    assert!(input_index < tx.inputs.len(), "input index out of range");
    let mut prevouts = Sha256::new();
    let mut sequences = Sha256::new();
    for input in &tx.inputs {
        input.previous_output.encode(&mut prevouts);
        input.sequence.encode(&mut sequences);
    }
    let mut outputs = Sha256::new();
    for output in &tx.outputs {
        output.encode(&mut outputs);
    }

    let input = &tx.inputs[input_index];
    let mut preimage = Sha256::new();
    tx.version.encode(&mut preimage);
    preimage.update(&prevouts.finalize_double());
    preimage.update(&sequences.finalize_double());
    input.previous_output.encode(&mut preimage);
    script_code.as_bytes().encode(&mut preimage);
    value.encode(&mut preimage);
    input.sequence.encode(&mut preimage);
    preimage.update(&outputs.finalize_double());
    tx.lock_time.encode(&mut preimage);
    SIGHASH_ALL.encode(&mut preimage);
    preimage.finalize_double()
}

/// Computes the BIP-341 key-path `SIGHASH_DEFAULT` digest for `input_index`.
///
/// `spent_outputs` must list, in input order, the `(value, script_pubkey)`
/// of every output the transaction spends.
///
/// # Panics
///
/// Panics if `input_index` is out of range or `spent_outputs` has a
/// different length than the inputs.
pub fn taproot_key_spend_sighash(
    tx: &Transaction,
    input_index: usize,
    spent_outputs: &[(Amount, Script)],
) -> [u8; 32] {
    assert!(input_index < tx.inputs.len(), "input index out of range");
    assert_eq!(spent_outputs.len(), tx.inputs.len(), "one spent output per input");

    let [mut prevouts, mut amounts, mut scripts, mut sequences, mut outputs] =
        std::array::from_fn(|_| Sha256::new());
    for (input, (value, script)) in tx.inputs.iter().zip(spent_outputs) {
        input.previous_output.encode(&mut prevouts);
        value.encode(&mut amounts);
        script.as_bytes().encode(&mut scripts);
        input.sequence.encode(&mut sequences);
    }
    for output in &tx.outputs {
        output.encode(&mut outputs);
    }

    let mut msg = Sha256::tagged("TapSighash");
    msg.update(&[0, SIGHASH_DEFAULT]); // sighash epoch, hash type
    tx.version.encode(&mut msg);
    tx.lock_time.encode(&mut msg);
    for part in [prevouts, amounts, scripts, sequences, outputs] {
        msg.update(&part.finalize());
    }
    msg.update(&[0]); // spend type: key path, no annex
    (input_index as u32).encode(&mut msg);
    msg.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::Txid;
    use crate::tx::{OutPoint, TxIn, TxOut};

    fn spend_tx() -> Transaction {
        Transaction {
            version: 2,
            inputs: vec![
                TxIn::new(OutPoint::new(Txid([1; 32]), 0)),
                TxIn::new(OutPoint::new(Txid([2; 32]), 7)),
            ],
            outputs: vec![TxOut::new(Amount::from_sat(900), Script::new_p2wpkh(&[3; 20]))],
            lock_time: 0,
        }
    }

    #[test]
    fn template_roundtrips() {
        assert_eq!(Script::new_p2pkh(&[1; 20]).classify(), ScriptKind::P2pkh([1; 20]));
        assert_eq!(Script::new_p2sh(&[2; 20]).classify(), ScriptKind::P2sh([2; 20]));
        assert_eq!(Script::new_p2wpkh(&[3; 20]).classify(), ScriptKind::P2wpkh([3; 20]));
        assert_eq!(Script::new_p2wsh(&[4; 32]).classify(), ScriptKind::P2wsh([4; 32]));
        assert_eq!(Script::new_p2tr(&[5; 32]).classify(), ScriptKind::P2tr([5; 32]));
        assert!(Script::new_op_return(b"hello").is_op_return());
        assert_eq!(Script::from_bytes(vec![0xff, 0xfe]).classify(), ScriptKind::NonStandard);
        assert_eq!(Script::default().classify(), ScriptKind::NonStandard);
    }

    #[test]
    fn template_lengths_match_standards() {
        assert_eq!(Script::new_p2pkh(&[0; 20]).len(), 25);
        assert_eq!(Script::new_p2sh(&[0; 20]).len(), 23);
        assert_eq!(Script::new_p2wpkh(&[0; 20]).len(), 22);
        assert_eq!(Script::new_p2wsh(&[0; 32]).len(), 34);
        assert_eq!(Script::new_p2tr(&[0; 32]).len(), 34);
    }

    #[test]
    fn op_return_truncates_at_80() {
        let s = Script::new_op_return(&[0xaa; 200]);
        assert_eq!(s.len(), 82);
        assert!(s.is_op_return());
    }

    #[test]
    fn legacy_sighash_depends_on_input_index() {
        let tx = spend_tx();
        let code = Script::new_p2pkh(&[9; 20]);
        let h0 = legacy_sighash(&tx, 0, &code);
        let h1 = legacy_sighash(&tx, 1, &code);
        assert_ne!(h0, h1);
        // Deterministic.
        assert_eq!(h0, legacy_sighash(&tx, 0, &code));
    }

    #[test]
    fn segwit_sighash_commits_to_value() {
        let tx = spend_tx();
        let code = Script::new_p2pkh(&[9; 20]);
        let a = segwit_v0_sighash(&tx, 0, &code, Amount::from_sat(1000));
        let b = segwit_v0_sighash(&tx, 0, &code, Amount::from_sat(1001));
        assert_ne!(a, b, "BIP-143 must commit to the spent amount");
    }

    #[test]
    fn segwit_sighash_commits_to_outputs() {
        let mut tx = spend_tx();
        let code = Script::new_p2pkh(&[9; 20]);
        let before = segwit_v0_sighash(&tx, 0, &code, Amount::from_sat(1000));
        tx.outputs[0].value = Amount::from_sat(901);
        let after = segwit_v0_sighash(&tx, 0, &code, Amount::from_sat(1000));
        assert_ne!(before, after);
    }

    #[test]
    fn taproot_sighash_commits_to_all_spent_outputs() {
        let tx = spend_tx();
        let spent = vec![
            (Amount::from_sat(500), Script::new_p2tr(&[7; 32])),
            (Amount::from_sat(600), Script::new_p2tr(&[8; 32])),
        ];
        let h = taproot_key_spend_sighash(&tx, 0, &spent);
        let mut spent2 = spent.clone();
        spent2[1].0 = Amount::from_sat(601);
        assert_ne!(h, taproot_key_spend_sighash(&tx, 0, &spent2));
        assert_ne!(h, taproot_key_spend_sighash(&tx, 1, &spent));
    }

    #[test]
    #[should_panic]
    fn taproot_sighash_arity_mismatch_panics() {
        let tx = spend_tx();
        let _ = taproot_key_spend_sighash(&tx, 0, &[]);
    }

    #[test]
    #[should_panic]
    fn sighash_index_out_of_range_panics() {
        let tx = spend_tx();
        let _ = legacy_sighash(&tx, 2, &Script::default());
    }

    mod properties {
        use super::*;
        use icbtc_sim::testkit;

        /// Classification of constructed templates is exact for all
        /// hash inputs.
        #[test]
        fn classify_p2wpkh() {
            testkit::check(0x5C_0001, testkit::DEFAULT_CASES, |rng| {
                let h: [u8; 20] = testkit::byte_array(rng);
                assert_eq!(Script::new_p2wpkh(&h).classify(), ScriptKind::P2wpkh(h));
            });
        }

        #[test]
        fn classify_p2tr() {
            testkit::check(0x5C_0002, testkit::DEFAULT_CASES, |rng| {
                let k: [u8; 32] = testkit::byte_array(rng);
                assert_eq!(Script::new_p2tr(&k).classify(), ScriptKind::P2tr(k));
            });
        }

        /// Arbitrary scripts never panic during classification.
        #[test]
        fn classify_total() {
            testkit::check(0x5C_0003, testkit::DEFAULT_CASES, |rng| {
                let bytes = testkit::bytes(rng, 0..64);
                let _ = Script::from_bytes(bytes).classify();
            });
        }
    }
}
