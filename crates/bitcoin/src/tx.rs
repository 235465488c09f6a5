//! Bitcoin transactions: amounts, outpoints, inputs, outputs.

use std::fmt;

use crate::encode::{
    decode_list, encode_list, ByteCount, Decodable, DecodeError, Encodable, Reader, Sink, VarInt,
};
use crate::hash::{Sha256, Txid};
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

impl Encodable for Amount {
    fn encode<S: Sink + ?Sized>(&self, out: &mut S) {
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
    fn encode<S: Sink + ?Sized>(&self, out: &mut S) {
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
    fn encode<S: Sink + ?Sized>(&self, out: &mut S) {
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
    fn encode<S: Sink + ?Sized>(&self, out: &mut S) {
        self.value.encode(out);
        self.script_pubkey.as_bytes().encode(out);
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

/// The txid of each transaction, in order: what a block's Merkle root
/// and a UTXO set's outpoints are built from.
pub fn txids(transactions: &[Transaction]) -> Vec<Txid> {
    transactions.iter().map(Transaction::txid).collect()
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

    /// Writes the serialization without witness data: the txid preimage,
    /// and the whole encoding of a transaction without witnesses.
    fn encode_base<S: Sink + ?Sized>(&self, out: &mut S) {
        self.version.encode(out);
        encode_list(&self.inputs, out);
        encode_list(&self.outputs, out);
        self.lock_time.encode(out);
    }

    /// Computes the transaction id (double SHA-256 of the non-witness
    /// serialization).
    pub fn txid(&self) -> Txid {
        let mut hasher = Sha256::new();
        self.encode_base(&mut hasher);
        Txid(hasher.finalize_double())
    }

    /// Computes the witness transaction id (double SHA-256 of the full
    /// serialization); equals [`Transaction::txid`] for non-segwit
    /// transactions.
    pub fn wtxid(&self) -> Txid {
        let mut hasher = Sha256::new();
        self.encode(&mut hasher);
        Txid(hasher.finalize_double())
    }

    /// Total serialized size in bytes (including witness data).
    pub fn total_size(&self) -> usize {
        self.encoded_len()
    }

    /// Size of the non-witness serialization in bytes.
    pub fn base_size(&self) -> usize {
        let mut count = ByteCount(0);
        self.encode_base(&mut count);
        count.0
    }

    /// BIP-141 transaction weight: `3 × base size + total size`.
    pub fn weight(&self) -> usize {
        3 * self.base_size() + self.total_size()
    }

    /// Virtual size in vbytes (weight / 4, rounded up), used for fee rates.
    pub fn vsize(&self) -> usize {
        self.weight().div_ceil(4)
    }

    /// Sum of output values, or `None` if it exceeds
    /// [`Amount::MAX_MONEY`] — possible for a transaction read from a
    /// chain whose values nobody checked.
    pub fn output_value(&self) -> Option<Amount> {
        self.outputs.iter().try_fold(Amount::ZERO, |sum, o| sum.checked_add(o.value))
    }
}

impl Encodable for Transaction {
    fn encode<S: Sink + ?Sized>(&self, out: &mut S) {
        if !self.has_witness() {
            return self.encode_base(out);
        }
        self.version.encode(out);
        out.write(&[0x00, 0x01]); // segwit marker and flag
        encode_list(&self.inputs, out);
        encode_list(&self.outputs, out);
        for input in &self.inputs {
            VarInt(input.witness.len() as u64).encode(out);
            for item in &input.witness {
                item.encode(out);
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
        let segwit = r.peek()? == 0x00;
        let mut inputs: Vec<TxIn> = if segwit {
            if r.take_array()? != [0x00, 0x01] {
                return Err(DecodeError::InvalidValue("segwit flag"));
            }
            decode_list(r)?
        } else {
            let count = VarInt::decode(r)?.0;
            if count > 100_000 {
                return Err(DecodeError::OversizedLength(count));
            }
            (0..count).map(|_| TxIn::decode(r)).collect::<Result<_, _>>()?
        };
        let outputs: Vec<TxOut> = decode_list(r)?;
        if segwit {
            for input in &mut inputs {
                let items = VarInt::decode(r)?.0;
                if items > 1000 {
                    return Err(DecodeError::OversizedLength(items));
                }
                for _ in 0..items {
                    input.witness.push(Vec::<u8>::decode(r)?);
                }
            }
        }
        let lock_time = u32::decode(r)?;
        Ok(Transaction { version, inputs, outputs, lock_time })
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
        assert_eq!(Amount::ONE_BTC.to_string(), "1.00000000 BTC");
        assert_eq!(Amount::from_sat(150_000_000).to_string(), "1.50000000 BTC");
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
        assert_eq!(tx.output_value(), Some(Amount::from_sat(2233)));
        let half = Amount::from_sat(Amount::MAX_MONEY.to_sat() / 2 + 1);
        let hostile = Transaction {
            outputs: vec![
                TxOut::new(half, Script::new_op_return(b"a")),
                TxOut::new(half, Script::new_op_return(b"b")),
            ],
            ..tx
        };
        assert_eq!(hostile.output_value(), None, "outputs past MAX_MONEY have no sum");
    }

    #[test]
    fn bad_segwit_flag_rejected() {
        let tx = sample_tx(true);
        let mut bytes = tx.encode_to_vec();
        bytes[5] = 0x02;
        assert!(matches!(Transaction::decode_exact(&bytes), Err(DecodeError::InvalidValue(_))));
    }

    #[test]
    fn legacy_input_count_follows_the_varint_rules() {
        let legacy = |count: &[u8]| {
            let mut bytes = 2i32.encode_to_vec();
            bytes.extend_from_slice(count);
            bytes.extend_from_slice(&sample_tx(false).encode_to_vec()[5..]);
            Transaction::decode_exact(&bytes)
        };
        assert_eq!(legacy(&[0x01]), Ok(sample_tx(false)));
        // One input spelled with the 3-byte tag.
        assert_eq!(legacy(&[0xfd, 0x01, 0x00]), Err(DecodeError::NonCanonicalVarInt));
        // An 8-byte count is either non-canonical or past the input bound.
        assert!(legacy(&[0xff, 1, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(legacy(&[0xff; 9]).is_err());
        let past_bound = 100_001u32.to_le_bytes();
        assert_eq!(
            legacy(&[0xfe, past_bound[0], past_bound[1], past_bound[2], past_bound[3]]),
            Err(DecodeError::OversizedLength(100_001))
        );
    }

    #[test]
    fn truncated_tx_rejected() {
        let bytes = sample_tx(true).encode_to_vec();
        for cut in [1, 5, 10, bytes.len() - 1] {
            assert!(Transaction::decode_exact(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    pub(crate) mod properties {
        use super::*;
        use crate::hash::sha256d;
        use icbtc_sim::testkit;
        use icbtc_sim::SimRng;

        /// A script or witness item: mostly short, six in 64 behind a
        /// 3-byte `CompactSize` prefix (253 bytes and up), and one in 64
        /// behind a 5-byte one (65,536 bytes and up).
        fn arb_item(rng: &mut SimRng) -> Vec<u8> {
            let len = match testkit::u64_in(rng, 0..64) {
                0 => 0x1_0000..0x1_0100,
                1..=6 => 0xfd..0x300,
                _ => 0..40,
            };
            testkit::bytes(rng, len)
        }

        fn arb_txin(rng: &mut SimRng) -> TxIn {
            TxIn {
                previous_output: OutPoint::new(
                    Txid(testkit::byte_array(rng)),
                    testkit::u32_any(rng),
                ),
                script_sig: arb_item(rng),
                sequence: testkit::u32_any(rng),
                witness: testkit::vec_with(rng, 0..4, arb_item),
            }
        }

        fn arb_txout(rng: &mut SimRng) -> TxOut {
            let v = testkit::u64_in(rng, 0..Amount::MAX_MONEY.to_sat());
            TxOut::new(Amount::from_sat(v), Script::from_bytes(arb_item(rng)))
        }

        pub(crate) fn arb_tx(rng: &mut SimRng) -> Transaction {
            Transaction {
                version: testkit::i32_any(rng),
                inputs: testkit::vec_with(rng, 1..5, arb_txin),
                outputs: testkit::vec_with(rng, 1..5, arb_txout),
                lock_time: testkit::u32_any(rng),
            }
        }

        /// Writes `value` into each sink and checks them against
        /// `encode_to_vec`: a buffer gains the same bytes after what it
        /// held, a hasher ends at their double SHA-256, and
        /// `encoded_len` counts them. Returns the bytes.
        pub(crate) fn assert_sinks_agree<T: Encodable + ?Sized>(value: &T) -> Vec<u8> {
            let bytes = value.encode_to_vec();
            let mut buffer = vec![0xee];
            value.encode(&mut buffer);
            assert_eq!(buffer[1..], bytes[..]);
            let mut hasher = Sha256::new();
            value.encode(&mut hasher);
            assert_eq!(hasher.finalize_double(), sha256d(&bytes));
            assert_eq!(value.encoded_len(), bytes.len());
            bytes
        }

        /// Every sink sees the wire bytes, and the ids and sizes streamed
        /// from them match the buffered encodings with and without the
        /// witnesses.
        #[test]
        fn sinks_agree_with_the_encoding() {
            testkit::check(0x7C_0006, testkit::DEFAULT_CASES, |rng| {
                let tx = arb_tx(rng);
                let bytes = assert_sinks_agree(&tx);
                let mut stripped = tx.clone();
                stripped.inputs.iter_mut().for_each(|input| input.witness.clear());
                let base = assert_sinks_agree(&stripped);
                assert_eq!(tx.wtxid().0, sha256d(&bytes));
                assert_eq!(tx.txid().0, sha256d(&base));
                assert_eq!((tx.total_size(), tx.base_size()), (bytes.len(), base.len()));
                assert_eq!(tx.has_witness(), bytes != base);
            });
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
