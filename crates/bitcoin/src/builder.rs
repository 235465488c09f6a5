//! Transaction construction helpers.
//!
//! The contracts layer builds spends of canister-controlled outputs and the
//! simulated miners build coinbases; both go through this module. Signing
//! itself lives in `icbtc-tecdsa` — the builder exposes the per-input
//! signature hashes and accepts finished witnesses.

use std::fmt;

use crate::script::{
    legacy_sighash, segwit_v0_sighash, taproot_key_spend_sighash, Script, ScriptKind,
};
use crate::tx::{Amount, OutPoint, Transaction, TxIn, TxOut};

/// Builds a coinbase transaction for a block at `height` paying `reward` to
/// `script_pubkey`.
///
/// The height and `extra_nonce` are embedded in the input script (as in
/// BIP-34) so that coinbases at different heights — or by different miners —
/// have distinct txids.
pub fn coinbase_transaction(
    height: u64,
    reward: Amount,
    script_pubkey: Script,
    extra_nonce: u64,
) -> Transaction {
    let mut script_sig = Vec::with_capacity(16);
    script_sig.extend_from_slice(&height.to_le_bytes());
    script_sig.extend_from_slice(&extra_nonce.to_le_bytes());
    Transaction {
        version: 2,
        inputs: vec![TxIn {
            previous_output: OutPoint::NULL,
            script_sig,
            sequence: TxIn::SEQUENCE_FINAL,
            witness: Vec::new(),
        }],
        outputs: vec![TxOut::new(reward, script_pubkey)],
        lock_time: 0,
    }
}

/// Error from [`TransactionBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// No inputs were added.
    NoInputs,
    /// No outputs were added.
    NoOutputs,
    /// The added inputs' values sum past [`Amount::MAX_MONEY`], which no
    /// valid chain holds.
    InputValueOverflow,
    /// Input value does not cover outputs plus fee.
    InsufficientFunds {
        /// Total value of the added inputs.
        available: Amount,
        /// Outputs plus fee.
        required: Amount,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NoInputs => write!(f, "transaction has no inputs"),
            BuildError::NoOutputs => write!(f, "transaction has no outputs"),
            BuildError::InputValueOverflow => write!(f, "input values sum past MAX_MONEY"),
            BuildError::InsufficientFunds { available, required } => {
                write!(f, "insufficient funds: {available} available, {required} required")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// An incrementally configured spend transaction.
///
/// # Examples
///
/// ```
/// use icbtc_bitcoin::builder::TransactionBuilder;
/// use icbtc_bitcoin::{Amount, OutPoint, Script, Txid};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = TransactionBuilder::new();
/// b.add_input(OutPoint::new(Txid([1; 32]), 0), Amount::from_sat(10_000), Script::new_p2wpkh(&[2; 20]));
/// b.add_output(Script::new_p2wpkh(&[3; 20]), Amount::from_sat(6_000));
/// b.change_script(Script::new_p2wpkh(&[2; 20]));
/// b.fee(Amount::from_sat(500));
/// let unsigned = b.build()?;
/// assert_eq!(unsigned.tx.outputs.len(), 2); // payment + change
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct TransactionBuilder {
    inputs: Vec<(OutPoint, Amount, Script)>,
    outputs: Vec<TxOut>,
    change_script: Option<Script>,
    fee: Amount,
    lock_time: u32,
}

impl TransactionBuilder {
    /// Creates an empty builder.
    pub fn new() -> TransactionBuilder {
        TransactionBuilder::default()
    }

    /// Adds an input spending `outpoint`, which carries `value` locked by
    /// `script_pubkey`.
    pub fn add_input(
        &mut self,
        outpoint: OutPoint,
        value: Amount,
        script_pubkey: Script,
    ) -> &mut Self {
        self.inputs.push((outpoint, value, script_pubkey));
        self
    }

    /// Adds a payment output.
    pub fn add_output(&mut self, script_pubkey: Script, value: Amount) -> &mut Self {
        self.outputs.push(TxOut::new(value, script_pubkey));
        self
    }

    /// Sets the script that receives any change. Without it, the surplus is
    /// burned as extra fee.
    pub fn change_script(&mut self, script: Script) -> &mut Self {
        self.change_script = Some(script);
        self
    }

    /// Sets the absolute fee.
    pub fn fee(&mut self, fee: Amount) -> &mut Self {
        self.fee = fee;
        self
    }

    /// Sets the transaction lock time.
    pub fn lock_time(&mut self, lock_time: u32) -> &mut Self {
        self.lock_time = lock_time;
        self
    }

    /// Assembles the unsigned transaction, appending a change output when a
    /// change script is set and the surplus is above dust (546 sats).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if inputs or outputs are missing, the input
    /// values sum past [`Amount::MAX_MONEY`], or the inputs do not cover
    /// outputs plus fee (outputs plus fee past MAX_MONEY never are).
    pub fn build(&self) -> Result<UnsignedTransaction, BuildError> {
        const DUST: u64 = 546;
        if self.inputs.is_empty() {
            return Err(BuildError::NoInputs);
        }
        if self.outputs.is_empty() {
            return Err(BuildError::NoOutputs);
        }
        let available = self
            .inputs
            .iter()
            .try_fold(Amount::ZERO, |sum, (_, value, _)| sum.checked_add(*value))
            .ok_or(BuildError::InputValueOverflow)?;
        let required = self
            .outputs
            .iter()
            .try_fold(self.fee, |sum, output| sum.checked_add(output.value))
            .ok_or(BuildError::InsufficientFunds { available, required: Amount::MAX_MONEY })?;
        let surplus = available
            .checked_sub(required)
            .ok_or(BuildError::InsufficientFunds { available, required })?;

        let mut outputs = self.outputs.clone();
        if let Some(change) = &self.change_script {
            if surplus.to_sat() >= DUST {
                outputs.push(TxOut::new(surplus, change.clone()));
            }
        }
        let tx = Transaction {
            version: 2,
            inputs: self
                .inputs
                .iter()
                .map(|(op, _, _)| TxIn::new(*op))
                .collect(),
            outputs,
            lock_time: self.lock_time,
        };
        Ok(UnsignedTransaction {
            tx,
            spent: self.inputs.iter().map(|(_, v, s)| (*v, s.clone())).collect(),
        })
    }
}

/// A built but not yet signed transaction, carrying the spent outputs
/// needed for signature hashing.
#[derive(Debug, Clone)]
pub struct UnsignedTransaction {
    /// The transaction skeleton (empty witnesses).
    pub tx: Transaction,
    /// `(value, script_pubkey)` of each spent output, in input order.
    pub spent: Vec<(Amount, Script)>,
}

impl UnsignedTransaction {
    /// Computes the signature hash for `input_index`, dispatching on the
    /// spent output's template: BIP-143 for P2WPKH (with the implied P2PKH
    /// script code), BIP-341 key path for P2TR, legacy otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `input_index` is out of range.
    pub fn sighash(&self, input_index: usize) -> [u8; 32] {
        assert!(input_index < self.tx.inputs.len(), "input index out of range");
        let (value, script) = &self.spent[input_index];
        match script.classify() {
            ScriptKind::P2wpkh(hash) => {
                let script_code = Script::new_p2pkh(&hash);
                segwit_v0_sighash(&self.tx, input_index, &script_code, *value)
            }
            ScriptKind::P2tr(_) => taproot_key_spend_sighash(&self.tx, input_index, &self.spent),
            _ => legacy_sighash(&self.tx, input_index, script),
        }
    }

    /// Installs a witness stack for `input_index` (e.g. `[signature,
    /// pubkey]` for P2WPKH or `[signature]` for P2TR key spends).
    ///
    /// # Panics
    ///
    /// Panics if `input_index` is out of range.
    pub fn set_witness(&mut self, input_index: usize, witness: Vec<Vec<u8>>) {
        self.tx.inputs[input_index].witness = witness;
    }

    /// Returns the finished transaction.
    pub fn into_transaction(self) -> Transaction {
        self.tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::Txid;

    fn wpkh(n: u8) -> Script {
        Script::new_p2wpkh(&[n; 20])
    }

    #[test]
    fn coinbase_txids_differ_by_height_and_nonce() {
        let a = coinbase_transaction(1, Amount::ONE_BTC, wpkh(1), 0);
        let b = coinbase_transaction(2, Amount::ONE_BTC, wpkh(1), 0);
        let c = coinbase_transaction(1, Amount::ONE_BTC, wpkh(1), 1);
        assert!(a.is_coinbase());
        assert_ne!(a.txid(), b.txid());
        assert_ne!(a.txid(), c.txid());
    }

    #[test]
    fn build_with_change() {
        let mut b = TransactionBuilder::new();
        b.add_input(OutPoint::new(Txid([1; 32]), 0), Amount::from_sat(10_000), wpkh(1));
        b.add_output(wpkh(2), Amount::from_sat(6_000));
        b.change_script(wpkh(1));
        b.fee(Amount::from_sat(500));
        let unsigned = b.build().unwrap();
        assert_eq!(unsigned.tx.outputs.len(), 2);
        assert_eq!(unsigned.tx.outputs[1].value, Amount::from_sat(3_500));
        assert_eq!(unsigned.tx.output_value(), Some(Amount::from_sat(9_500)));
    }

    #[test]
    fn surplus_below_dust_is_burned() {
        let mut b = TransactionBuilder::new();
        b.add_input(OutPoint::new(Txid([1; 32]), 0), Amount::from_sat(10_100), wpkh(1));
        b.add_output(wpkh(2), Amount::from_sat(10_000));
        b.change_script(wpkh(1));
        b.fee(Amount::ZERO);
        let unsigned = b.build().unwrap();
        assert_eq!(unsigned.tx.outputs.len(), 1, "100 sats surplus is dust");
    }

    #[test]
    fn build_errors() {
        assert_eq!(TransactionBuilder::new().build().unwrap_err(), BuildError::NoInputs);

        let mut b = TransactionBuilder::new();
        b.add_input(OutPoint::new(Txid([1; 32]), 0), Amount::from_sat(100), wpkh(1));
        assert_eq!(b.build().unwrap_err(), BuildError::NoOutputs);

        b.add_output(wpkh(2), Amount::from_sat(200));
        match b.build().unwrap_err() {
            BuildError::InsufficientFunds { available, required } => {
                assert_eq!(available, Amount::from_sat(100));
                assert_eq!(required, Amount::from_sat(200));
            }
            other => panic!("unexpected error {other}"),
        }
        assert!(!b.build().unwrap_err().to_string().is_empty());
    }

    /// Values from an unchecked chain can sum past MAX_MONEY on either
    /// side; the build refuses them with an error instead of panicking.
    #[test]
    fn value_sums_past_max_money_are_errors() {
        let half = Amount::from_sat(Amount::MAX_MONEY.to_sat() / 2 + 1);
        let mut b = TransactionBuilder::new();
        b.add_input(OutPoint::new(Txid([1; 32]), 0), half, wpkh(1));
        b.add_input(OutPoint::new(Txid([2; 32]), 0), half, wpkh(1));
        b.add_output(wpkh(2), Amount::from_sat(1_000));
        assert_eq!(b.build().unwrap_err(), BuildError::InputValueOverflow);
        assert!(!BuildError::InputValueOverflow.to_string().is_empty());

        let mut b = TransactionBuilder::new();
        b.add_input(OutPoint::new(Txid([1; 32]), 0), half, wpkh(1));
        b.add_output(wpkh(2), half);
        b.add_output(wpkh(3), half);
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::InsufficientFunds { available: half, required: Amount::MAX_MONEY }
        );
    }

    #[test]
    fn sighash_dispatch_per_template() {
        let mut b = TransactionBuilder::new();
        b.add_input(OutPoint::new(Txid([1; 32]), 0), Amount::from_sat(5_000), wpkh(1));
        b.add_input(
            OutPoint::new(Txid([2; 32]), 0),
            Amount::from_sat(5_000),
            Script::new_p2tr(&[7; 32]),
        );
        b.add_input(
            OutPoint::new(Txid([3; 32]), 0),
            Amount::from_sat(5_000),
            Script::new_p2pkh(&[8; 20]),
        );
        b.add_output(wpkh(2), Amount::from_sat(14_000));
        let unsigned = b.build().unwrap();
        let h0 = unsigned.sighash(0);
        let h1 = unsigned.sighash(1);
        let h2 = unsigned.sighash(2);
        assert_ne!(h0, h1);
        assert_ne!(h1, h2);
        assert_ne!(h0, h2);
    }

    #[test]
    fn witness_installation() {
        let mut b = TransactionBuilder::new();
        b.add_input(OutPoint::new(Txid([1; 32]), 0), Amount::from_sat(5_000), wpkh(1));
        b.add_output(wpkh(2), Amount::from_sat(4_000));
        let mut unsigned = b.build().unwrap();
        unsigned.set_witness(0, vec![vec![0xaa; 64], vec![0xbb; 33]]);
        let tx = unsigned.into_transaction();
        assert!(tx.has_witness());
        assert_eq!(tx.inputs[0].witness.len(), 2);
    }

    mod properties {
        use super::*;
        use icbtc_sim::testkit;

        /// Value conservation: outputs + implied fee == inputs whenever
        /// the build succeeds with a change script.
        #[test]
        fn value_conservation() {
            testkit::check(0xBD_0001, testkit::DEFAULT_CASES, |rng| {
                let in_value = testkit::u64_in(rng, 1_000..10_000_000);
                let pay = testkit::u64_in(rng, 1..5_000_000);
                let fee = testkit::u64_in(rng, 0..10_000);
                let mut b = TransactionBuilder::new();
                b.add_input(OutPoint::new(Txid([1; 32]), 0), Amount::from_sat(in_value), wpkh(1));
                b.add_output(wpkh(2), Amount::from_sat(pay));
                b.change_script(wpkh(3));
                b.fee(Amount::from_sat(fee));
                if let Ok(unsigned) = b.build() {
                    let outputs = unsigned.tx.output_value().unwrap().to_sat();
                    assert!(outputs + fee <= in_value);
                    // Burned surplus only happens below dust.
                    assert!(in_value - outputs - fee < 546);
                }
            });
        }
    }
}
