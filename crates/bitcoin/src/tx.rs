//! Bitcoin transactions: amounts, outpoints, inputs, outputs.

use std::fmt;

use crate::encode::{decode_list, encode_list, Decodable, DecodeError, Encodable, Reader, VarInt};
use crate::hash::{sha256d, Txid};
use crate::script::Script;

/// A Bitcoin amount in satoshis.
///
/// Arithmetic is checked; amounts above [`Amount::MAX_MONEY`] cannot be
/// constructed through checked operations.
///
/// # Examples
///
/// ```
/// use icbtc_bitcoin::Amount;
/// let a = Amount::from_btc_int(1);
/// assert_eq!(a.to_sat(), 100_000_000);
/// assert_eq!(a.checked_add(Amount::from_sat(50)).unwrap().to_sat(), 100_000_050);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Amount(u64);

impl Amount {
    /// Zero satoshis.
    pub const ZERO: Amount = Amount(0);
    /// One satoshi.
    pub const ONE_SAT: Amount = Amount(1);
    /// One bitcoin (10⁸ satoshis).
    pub const ONE_BTC: Amount = Amount(100_000_000);
    /// The 21-million-bitcoin supply cap.
    pub const MAX_MONEY: Amount = Amount(21_000_000 * 100_000_000);

    /// Creates an amount from satoshis.
    pub const fn from_sat(sat: u64) -> Amount {
        Amount(sat)
    }

    /// Creates an amount from a whole number of bitcoins.
    pub const fn from_btc_int(btc: u64) -> Amount {
        Amount(btc * 100_000_000)
    }

    /// Returns the amount in satoshis.
    pub const fn to_sat(self) -> u64 {
        self.0
    }

    /// Returns the amount as a floating-point bitcoin value, for reports.
    pub fn to_btc_f64(self) -> f64 { // icbtc-lint: allow(float) -- display-only conversion; consensus arithmetic stays in integer satoshis
        self.0 as f64 / 1e8
    }

    /// Checked addition; `None` if the sum exceeds [`Amount::MAX_MONEY`].
    pub fn checked_add(self, rhs: Amount) -> Option<Amount> {
        let sum = self.0.checked_add(rhs.0)?;
        if sum > Amount::MAX_MONEY.0 {
            return None;
        }
        Some(Amount(sum))
    }

    /// Checked subtraction; `None` on underflow.
    pub fn checked_sub(self, rhs: Amount) -> Option<Amount> {
        self.0.checked_sub(rhs.0).map(Amount)
    }

    /// Saturating addition: sums past [`Amount::MAX_MONEY`] clamp to the
    /// cap instead of overflowing. Balance accumulation uses this so a
    /// hostile chain of max-value outputs cannot panic a query.
    pub fn saturating_add(self, rhs: Amount) -> Amount {
        self.checked_add(rhs).unwrap_or(Amount::MAX_MONEY)
    }
}

impl fmt::Display for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:08} BTC", self.0 / 100_000_000, self.0 % 100_000_000)
    }
}

impl std::iter::Sum for Amount {
    fn sum<I: Iterator<Item = Amount>>(iter: I) -> Amount {
        iter.fold(Amount::ZERO, |acc, a| {
            acc.checked_add(a).expect("amount sum overflow")
        })
    }
}

impl Encodable for Amount {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decodable for Amount {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Amount(u64::decode(r)?))
    }
}

/// A reference to a specific output of a prior transaction.
///
/// # Examples
///
/// ```
/// use icbtc_bitcoin::{OutPoint, Txid};
/// let op = OutPoint::new(Txid::ZERO, 1);
/// assert_eq!(op.vout, 1);
/// assert!(OutPoint::NULL.is_null());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OutPoint {
    /// The transaction holding the output.
    pub txid: Txid,
    /// The output index within that transaction.
    pub vout: u32,
}

impl OutPoint {
    /// The sentinel outpoint used by coinbase inputs.
    pub const NULL: OutPoint = OutPoint { txid: Txid::ZERO, vout: u32::MAX };

    /// Creates an outpoint.
    pub const fn new(txid: Txid, vout: u32) -> OutPoint {
        OutPoint { txid, vout }
    }

    /// Returns `true` if this is the coinbase sentinel.
    pub fn is_null(&self) -> bool {
        *self == OutPoint::NULL
    }
}

impl fmt::Display for OutPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.txid, self.vout)
    }
}

impl Encodable for OutPoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.txid.0.encode(out);
        self.vout.encode(out);
    }
}

impl Decodable for OutPoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(OutPoint { txid: Txid(<[u8; 32]>::decode(r)?), vout: u32::decode(r)? })
    }
}

/// A transaction input: the outpoint it spends plus unlocking data.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct TxIn {
    /// The output being spent.
    pub previous_output: OutPoint,
    /// Legacy unlocking script (empty for segwit spends).
    pub script_sig: Vec<u8>,
    /// Input sequence number.
    pub sequence: u32,
    /// Segwit witness stack (not covered by the txid).
    pub witness: Vec<Vec<u8>>,
}

impl TxIn {
    /// Default sequence marking the input as final.
    pub const SEQUENCE_FINAL: u32 = 0xffff_ffff;

    /// Creates an input spending `previous_output` with an empty witness.
    pub fn new(previous_output: OutPoint) -> TxIn {
        TxIn {
            previous_output,
            script_sig: Vec::new(),
            sequence: TxIn::SEQUENCE_FINAL,
            witness: Vec::new(),
        }
    }
}

impl Encodable for TxIn {
    fn encode(&self, out: &mut Vec<u8>) {
        self.previous_output.encode(out);
        self.script_sig.encode(out);
        self.sequence.encode(out);
    }
}

impl Decodable for TxIn {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TxIn {
            previous_output: OutPoint::decode(r)?,
            script_sig: Vec::<u8>::decode(r)?,
            sequence: u32::decode(r)?,
            witness: Vec::new(),
        })
    }
}

/// A transaction output: an amount locked by a script.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct TxOut {
    /// The amount carried by this output.
    pub value: Amount,
    /// The locking script.
    pub script_pubkey: Script,
}

impl TxOut {
    /// Creates an output.
    pub fn new(value: Amount, script_pubkey: Script) -> TxOut {
        TxOut { value, script_pubkey }
    }
}

impl Encodable for TxOut {
    fn encode(&self, out: &mut Vec<u8>) {
        self.value.encode(out);
        self.script_pubkey.as_bytes().to_vec().encode(out);
    }
}

impl Decodable for TxOut {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TxOut {
            value: Amount::decode(r)?,
            script_pubkey: Script::from_bytes(Vec::<u8>::decode(r)?),
        })
    }
}

/// A Bitcoin transaction.
///
/// Encoding follows consensus rules: the legacy format when no input carries
/// a witness, the BIP-144 segwit format (marker `0x00`, flag `0x01`)
/// otherwise. The [`Transaction::txid`] always commits to the non-witness
/// serialization.
///
/// # Examples
///
/// ```
/// use icbtc_bitcoin::{Amount, OutPoint, Script, Transaction, TxIn, TxOut, Txid};
/// let tx = Transaction {
///     version: 2,
///     inputs: vec![TxIn::new(OutPoint::new(Txid::ZERO, 0))],
///     outputs: vec![TxOut::new(Amount::from_sat(5000), Script::new_op_return(b"hi"))],
///     lock_time: 0,
/// };
/// assert_eq!(tx.txid(), tx.txid()); // deterministic
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Transaction {
    /// Transaction format version.
    pub version: i32,
    /// The inputs consumed.
    pub inputs: Vec<TxIn>,
    /// The outputs created.
    pub outputs: Vec<TxOut>,
    /// Earliest time/height the transaction may be mined.
    pub lock_time: u32,
}

impl Default for Transaction {
    fn default() -> Self {
        Transaction { version: 2, inputs: Vec::new(), outputs: Vec::new(), lock_time: 0 }
    }
}

impl Transaction {
    /// Returns `true` if this is a coinbase transaction (single input
    /// spending the null outpoint).
    pub fn is_coinbase(&self) -> bool {
        self.inputs.len() == 1 && self.inputs[0].previous_output.is_null()
    }

    /// Returns `true` if any input carries witness data.
    pub fn has_witness(&self) -> bool {
        self.inputs.iter().any(|i| !i.witness.is_empty())
    }

    /// Serializes without witness data (the txid preimage).
    pub fn encode_without_witness(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.version.encode(&mut out);
        encode_list(&self.inputs, &mut out);
        encode_list(&self.outputs, &mut out);
        self.lock_time.encode(&mut out);
        out
    }

    /// Computes the transaction id (double SHA-256 of the non-witness
    /// serialization).
    pub fn txid(&self) -> Txid {
        Txid(sha256d(&self.encode_without_witness()))
    }

    /// Computes the witness transaction id (double SHA-256 of the full
    /// serialization); equals [`Transaction::txid`] for non-segwit
    /// transactions.
    pub fn wtxid(&self) -> Txid {
        Txid(sha256d(&self.encode_to_vec()))
    }

    /// Total serialized size in bytes (including witness data).
    pub fn total_size(&self) -> usize {
        self.encoded_len()
    }

    /// Size of the non-witness serialization in bytes.
    pub fn base_size(&self) -> usize {
        self.encode_without_witness().len()
    }

    /// BIP-141 transaction weight: `3 × base size + total size`.
    pub fn weight(&self) -> usize {
        3 * self.base_size() + self.total_size()
    }

    /// Virtual size in vbytes (weight / 4, rounded up), used for fee rates.
    pub fn vsize(&self) -> usize {
        self.weight().div_ceil(4)
    }

    /// Sum of output values.
    ///
    /// # Panics
    ///
    /// Panics if the outputs sum past [`Amount::MAX_MONEY`], which cannot
    /// happen for transactions built through checked arithmetic.
    pub fn output_value(&self) -> Amount {
        self.outputs.iter().map(|o| o.value).sum()
    }
}

impl Encodable for Transaction {
    fn encode(&self, out: &mut Vec<u8>) {
        if !self.has_witness() {
            out.extend_from_slice(&self.encode_without_witness());
            return;
        }
        self.version.encode(out);
        out.push(0x00); // segwit marker
        out.push(0x01); // segwit flag
        encode_list(&self.inputs, out);
        encode_list(&self.outputs, out);
        for input in &self.inputs {
            VarInt(input.witness.len() as u64).encode(out);
            for item in &input.witness {
                item.clone().encode(out);
            }
        }
        self.lock_time.encode(out);
    }
}

impl Decodable for Transaction {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let version = i32::decode(r)?;
        // A 0x00 where the input-count varint would sit marks the segwit
        // format (no transaction has zero inputs in legacy encoding).
        let first = {
            let bytes = r.take(1)?;
            bytes[0]
        };
        if first == 0x00 {
            let flag = r.take(1)?[0];
            if flag != 0x01 {
                return Err(DecodeError::InvalidValue("segwit flag"));
            }
            let mut inputs: Vec<TxIn> = decode_list(r)?;
            let outputs: Vec<TxOut> = decode_list(r)?;
            for input in &mut inputs {
                let items = VarInt::decode(r)?.0;
                if items > 1000 {
                    return Err(DecodeError::OversizedLength(items));
                }
                for _ in 0..items {
                    input.witness.push(Vec::<u8>::decode(r)?);
                }
            }
            let lock_time = u32::decode(r)?;
            Ok(Transaction { version, inputs, outputs, lock_time })
        } else {
            // Legacy: the byte we consumed is the input-count varint tag.
            let count = match first {
                0xfd => {
                    let v = u16::from_le_bytes(r.take_array()?) as u64;
                    if v < 0xfd {
                        return Err(DecodeError::NonCanonicalVarInt);
                    }
                    v
                }
                0xfe => {
                    let v = u32::from_le_bytes(r.take_array()?) as u64;
                    if v <= 0xffff {
                        return Err(DecodeError::NonCanonicalVarInt);
                    }
                    v
                }
                0xff => return Err(DecodeError::OversizedLength(u64::MAX)),
                b => b as u64,
            };
            if count > 100_000 {
                return Err(DecodeError::OversizedLength(count));
            }
            let mut inputs = Vec::with_capacity(count.min(1024) as usize);
            for _ in 0..count {
                inputs.push(TxIn::decode(r)?);
            }
            let outputs: Vec<TxOut> = decode_list(r)?;
            let lock_time = u32::decode(r)?;
            Ok(Transaction { version, inputs, outputs, lock_time })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Script;

    fn sample_tx(witness: bool) -> Transaction {
        let mut input = TxIn::new(OutPoint::new(Txid([7; 32]), 3));
        if witness {
            input.witness = vec![vec![1, 2, 3], vec![4; 33]];
        }
        Transaction {
            version: 2,
            inputs: vec![input],
            outputs: vec![
                TxOut::new(Amount::from_sat(1234), Script::new_p2wpkh(&[9; 20])),
                TxOut::new(Amount::from_sat(999), Script::new_op_return(b"x")),
            ],
            lock_time: 101,
        }
    }

    #[test]
    fn amount_arithmetic() {
        assert_eq!(Amount::from_btc_int(2).to_sat(), 200_000_000);
        assert_eq!(Amount::MAX_MONEY.checked_add(Amount::ONE_SAT), None);
        assert_eq!(Amount::MAX_MONEY.saturating_add(Amount::ONE_SAT), Amount::MAX_MONEY);
        assert_eq!(
            Amount::from_sat(Amount::MAX_MONEY.to_sat() - 1).saturating_add(Amount::from_sat(7)),
            Amount::MAX_MONEY
        );
        assert_eq!(
            Amount::from_sat(1).saturating_add(Amount::from_sat(2)),
            Amount::from_sat(3),
            "below the cap it is ordinary addition"
        );
        assert_eq!(Amount::ZERO.checked_sub(Amount::ONE_SAT), None);
        assert_eq!(
            Amount::from_sat(10).checked_sub(Amount::from_sat(4)),
            Some(Amount::from_sat(6))
        );
        let total: Amount = [Amount::from_sat(1), Amount::from_sat(2)].into_iter().sum();
        assert_eq!(total, Amount::from_sat(3));
        assert_eq!(Amount::ONE_BTC.to_string(), "1.00000000 BTC");
        assert!((Amount::from_sat(150_000_000).to_btc_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn outpoint_null_and_display() {
        assert!(OutPoint::NULL.is_null());
        assert!(!OutPoint::new(Txid([1; 32]), 0).is_null());
        assert!(OutPoint::NULL.to_string().contains(':'));
    }

    #[test]
    fn legacy_roundtrip() {
        let tx = sample_tx(false);
        let bytes = tx.encode_to_vec();
        let back = Transaction::decode_exact(&bytes).unwrap();
        assert_eq!(back, tx);
        assert_eq!(back.txid(), tx.txid());
        // Legacy: txid == wtxid, base == total size.
        assert_eq!(tx.txid(), tx.wtxid());
        assert_eq!(tx.base_size(), tx.total_size());
        assert_eq!(tx.weight(), 4 * tx.base_size());
    }

    #[test]
    fn segwit_roundtrip() {
        let tx = sample_tx(true);
        let bytes = tx.encode_to_vec();
        assert_eq!(bytes[4], 0x00, "segwit marker");
        assert_eq!(bytes[5], 0x01, "segwit flag");
        let back = Transaction::decode_exact(&bytes).unwrap();
        assert_eq!(back, tx);
        // Witness affects wtxid but not txid.
        let mut stripped = tx.clone();
        stripped.inputs[0].witness.clear();
        assert_eq!(stripped.txid(), tx.txid());
        assert_ne!(tx.txid(), tx.wtxid());
        assert!(tx.total_size() > tx.base_size());
        assert!(tx.vsize() < tx.total_size());
    }

    #[test]
    fn coinbase_detection() {
        let mut tx = sample_tx(false);
        assert!(!tx.is_coinbase());
        tx.inputs = vec![TxIn::new(OutPoint::NULL)];
        assert!(tx.is_coinbase());
    }

    #[test]
    fn output_value_sums() {
        let tx = sample_tx(false);
        assert_eq!(tx.output_value(), Amount::from_sat(2233));
    }

    #[test]
    fn bad_segwit_flag_rejected() {
        let tx = sample_tx(true);
        let mut bytes = tx.encode_to_vec();
        bytes[5] = 0x02;
        assert!(matches!(
            Transaction::decode_exact(&bytes),
            Err(DecodeError::InvalidValue(_))
        ));
    }

    #[test]
    fn truncated_tx_rejected() {
        let bytes = sample_tx(true).encode_to_vec();
        for cut in [1, 5, 10, bytes.len() - 1] {
            assert!(Transaction::decode_exact(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    mod properties {
        use super::*;
        use icbtc_sim::testkit;
        use icbtc_sim::SimRng;

        fn arb_txin(rng: &mut SimRng) -> TxIn {
            TxIn {
                previous_output: OutPoint::new(Txid(testkit::byte_array(rng)), testkit::u32_any(rng)),
                script_sig: testkit::bytes(rng, 0..40),
                sequence: testkit::u32_any(rng),
                witness: testkit::vec_with(rng, 0..4, |r| testkit::bytes(r, 0..40)),
            }
        }

        fn arb_txout(rng: &mut SimRng) -> TxOut {
            let v = testkit::u64_in(rng, 0..Amount::MAX_MONEY.to_sat());
            TxOut::new(Amount::from_sat(v), Script::from_bytes(testkit::bytes(rng, 0..40)))
        }

        fn arb_tx(rng: &mut SimRng) -> Transaction {
            Transaction {
                version: testkit::i32_any(rng),
                inputs: testkit::vec_with(rng, 1..5, arb_txin),
                outputs: testkit::vec_with(rng, 1..5, arb_txout),
                lock_time: testkit::u32_any(rng),
            }
        }

        /// Wire encoding round-trips for arbitrary transactions.
        #[test]
        fn tx_roundtrip() {
            testkit::check(0x7C_0001, testkit::DEFAULT_CASES, |rng| {
                let tx = arb_tx(rng);
                let bytes = tx.encode_to_vec();
                let back = Transaction::decode_exact(&bytes).unwrap();
                assert_eq!(back, tx);
            });
        }

        /// The txid never depends on witness data.
        #[test]
        fn txid_ignores_witness() {
            testkit::check(0x7C_0002, testkit::DEFAULT_CASES, |rng| {
                let mut tx = arb_tx(rng);
                let before = tx.txid();
                for input in &mut tx.inputs {
                    input.witness.clear();
                }
                assert_eq!(tx.txid(), before);
            });
        }

        /// `send_transaction` decodes caller-supplied bytes: byte soup
        /// never panics the decoder, whatever it returns.
        #[test]
        fn random_bytes_decode_without_panicking() {
            testkit::check(0x7C_0004, testkit::DEFAULT_CASES, |rng| {
                let bytes = testkit::bytes(rng, 0..300);
                let _ = Transaction::decode_exact(&bytes);
            });
        }

        /// Every truncation of a real transaction is an error, and a
        /// flipped byte either fails to decode or yields a transaction
        /// that survives its own encode/decode round trip.
        #[test]
        fn damaged_transactions_are_typed_errors_never_panics() {
            testkit::check(0x7C_0005, testkit::DEFAULT_CASES, |rng| {
                let good = arb_tx(rng).encode_to_vec();
                let cut = testkit::usize_in(rng, 0..good.len());
                assert!(Transaction::decode_exact(&good[..cut]).is_err(), "cut {cut}");

                let mut flipped = good.clone();
                let at = testkit::usize_in(rng, 0..good.len());
                flipped[at] ^= testkit::u64_in(rng, 1..256) as u8;
                if let Ok(tx) = Transaction::decode_exact(&flipped) {
                    let again = Transaction::decode_exact(&tx.encode_to_vec());
                    assert_eq!(again, Ok(tx), "flip at {at}");
                }
            });
        }

        /// Weight identity: weight = 3*base + total, vsize = ceil(w/4).
        #[test]
        fn weight_identity() {
            testkit::check(0x7C_0003, testkit::DEFAULT_CASES, |rng| {
                let tx = arb_tx(rng);
                assert_eq!(tx.weight(), 3 * tx.base_size() + tx.total_size());
                assert_eq!(tx.vsize(), tx.weight().div_ceil(4));
            });
        }
    }
}
