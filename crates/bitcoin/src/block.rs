//! Block headers, blocks, and Merkle roots.

use std::fmt;

use crate::encode::{decode_list, encode_list, Decodable, DecodeError, Encodable, Reader, Sink};
use crate::hash::{BlockHash, MerkleRoot, Sha256, Txid};
use crate::pow::{CompactTarget, Work};
use crate::tx::{txids, Transaction};
use crate::u256::U256;

/// The 80-byte Bitcoin block header.
///
/// # Examples
///
/// ```
/// use icbtc_bitcoin::encode::Encodable;
/// use icbtc_bitcoin::Network;
/// let genesis = Network::Regtest.genesis_block();
/// assert_eq!(genesis.header.encode_to_vec().len(), 80);
/// assert!(genesis.header.meets_pow_target());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BlockHeader {
    /// Block format version.
    pub version: i32,
    /// Hash of the predecessor block.
    pub prev_blockhash: BlockHash,
    /// Merkle root over the block's transactions.
    pub merkle_root: MerkleRoot,
    /// Claimed creation time (Unix seconds).
    pub time: u32,
    /// Difficulty target in compact form.
    pub bits: CompactTarget,
    /// Proof-of-work nonce.
    pub nonce: u32,
}

impl BlockHeader {
    /// Computes the block hash (double SHA-256 of the 80-byte header).
    pub fn block_hash(&self) -> BlockHash {
        let mut hasher = Sha256::new();
        self.encode(&mut hasher);
        BlockHash(hasher.finalize_double())
    }

    /// Returns the expanded difficulty target.
    pub fn target(&self) -> U256 {
        self.bits.to_target()
    }

    /// Returns the hash work `w(b)` of this block.
    pub fn work(&self) -> Work {
        self.bits.work()
    }

    /// Checks the proof of work: the block hash, interpreted as a
    /// little-endian 256-bit number, must not exceed the target.
    pub fn meets_pow_target(&self) -> bool {
        let hash_value = U256::from_le_bytes(self.block_hash().to_bytes());
        let target = self.target();
        !target.is_zero() && hash_value <= target
    }
}

impl Encodable for BlockHeader {
    fn encode<S: Sink + ?Sized>(&self, out: &mut S) {
        self.version.encode(out);
        self.prev_blockhash.0.encode(out);
        self.merkle_root.0.encode(out);
        self.time.encode(out);
        self.bits.to_consensus().encode(out);
        self.nonce.encode(out);
    }
}

impl Decodable for BlockHeader {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(BlockHeader {
            version: i32::decode(r)?,
            prev_blockhash: BlockHash(<[u8; 32]>::decode(r)?),
            merkle_root: MerkleRoot(<[u8; 32]>::decode(r)?),
            time: u32::decode(r)?,
            bits: CompactTarget::from_consensus(u32::decode(r)?),
            nonce: u32::decode(r)?,
        })
    }
}

impl fmt::Display for BlockHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "header {} (prev {})", self.block_hash(), self.prev_blockhash)
    }
}

/// Computes the Merkle root over a list of transaction ids.
///
/// Follows Bitcoin's rule of duplicating the last node at odd levels; the
/// root over an empty list is defined as all-zero (only used for sanity
/// checks — real blocks always have a coinbase).
pub fn merkle_root(txids: &[Txid]) -> MerkleRoot {
    if txids.is_empty() {
        return MerkleRoot::ZERO;
    }
    let mut level: Vec<[u8; 32]> = txids.iter().map(|t| t.to_bytes()).collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            // A lone last node is paired with itself.
            let mut hasher = Sha256::new();
            hasher.update(&pair[0]);
            hasher.update(&pair[pair.len() - 1]);
            next.push(hasher.finalize_double());
        }
        level = next;
    }
    MerkleRoot(level[0])
}

/// A full block: header plus transactions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// The block header.
    pub header: BlockHeader,
    /// The transactions, coinbase first.
    pub txdata: Vec<Transaction>,
}

impl Block {
    /// Returns the block hash.
    pub fn block_hash(&self) -> BlockHash {
        self.header.block_hash()
    }

    /// Recomputes the Merkle root over `txdata`.
    pub fn compute_merkle_root(&self) -> MerkleRoot {
        merkle_root(&txids(&self.txdata))
    }

    /// The structural check, returning the txids it hashed: at least one
    /// transaction, the first (and only the first) is a coinbase, and the
    /// header's Merkle root is the root over those txids. `None` if any
    /// rule fails. A caller that keeps the block can keep the txids with
    /// it and never hash its transactions again.
    pub fn checked_txids(&self) -> Option<Vec<Txid>> {
        let (coinbase, rest) = self.txdata.split_first()?;
        if !coinbase.is_coinbase() || rest.iter().any(Transaction::is_coinbase) {
            return None;
        }
        let txids = txids(&self.txdata);
        (merkle_root(&txids) == self.header.merkle_root).then_some(txids)
    }

    /// Structural well-formedness ([`Block::checked_txids`] succeeds).
    /// This is the block-validity check both the adapter and the canister
    /// perform (§III-B / §III-C); transaction *spend* validity is
    /// deliberately not checked, as in the paper.
    pub fn is_well_formed(&self) -> bool {
        self.checked_txids().is_some()
    }
}

impl Encodable for Block {
    fn encode<S: Sink + ?Sized>(&self, out: &mut S) {
        self.header.encode(out);
        encode_list(&self.txdata, out);
    }
}

impl Decodable for Block {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Block { header: BlockHeader::decode(r)?, txdata: decode_list(r)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::sha256d;
    use crate::network::Network;
    use crate::tx::{OutPoint, TxIn};

    fn coinbase() -> Transaction {
        Transaction {
            version: 2,
            inputs: vec![TxIn::new(OutPoint::NULL)],
            outputs: vec![],
            lock_time: 0,
        }
    }

    #[test]
    fn header_is_80_bytes_and_roundtrips() {
        let genesis = Network::Regtest.genesis_block();
        let bytes = genesis.header.encode_to_vec();
        assert_eq!(bytes.len(), 80);
        let back = BlockHeader::decode_exact(&bytes).unwrap();
        assert_eq!(back, genesis.header);
        assert_eq!(back.block_hash(), genesis.block_hash());
    }

    #[test]
    fn merkle_single_tx_is_txid() {
        let txid = Txid([9; 32]);
        assert_eq!(merkle_root(&[txid]).0, txid.0);
    }

    #[test]
    fn merkle_known_pair() {
        // For two leaves the root is sha256d(l || r).
        let a = Txid([1; 32]);
        let b = Txid([2; 32]);
        let mut concat = [0u8; 64];
        concat[..32].copy_from_slice(&a.0);
        concat[32..].copy_from_slice(&b.0);
        assert_eq!(merkle_root(&[a, b]).0, sha256d(&concat));
    }

    #[test]
    fn merkle_odd_count_duplicates_last() {
        let a = Txid([1; 32]);
        let b = Txid([2; 32]);
        let c = Txid([3; 32]);
        assert_eq!(merkle_root(&[a, b, c]), merkle_root(&[a, b, c, c]));
        assert_ne!(merkle_root(&[a, b, c]), merkle_root(&[a, b]));
    }

    #[test]
    fn merkle_empty_is_zero() {
        assert_eq!(merkle_root(&[]), MerkleRoot::ZERO);
    }

    #[test]
    fn block_well_formedness() {
        let genesis = Network::Regtest.genesis_block();
        assert!(genesis.is_well_formed());
        assert_eq!(genesis.checked_txids(), Some(vec![genesis.txdata[0].txid()]));

        // Tampering with the merkle root breaks it.
        let mut bad = genesis.clone();
        bad.header.merkle_root = MerkleRoot([1; 32]);
        assert!(!bad.is_well_formed());

        // A block without a coinbase is malformed.
        let mut no_cb = genesis.clone();
        no_cb.txdata.clear();
        assert!(!no_cb.is_well_formed());

        // A second coinbase is malformed even with a fixed-up merkle root.
        let mut two_cb = genesis.clone();
        two_cb.txdata.push(coinbase());
        two_cb.header.merkle_root = two_cb.compute_merkle_root();
        assert!(!two_cb.is_well_formed());
    }

    #[test]
    fn block_roundtrip() {
        let genesis = Network::Regtest.genesis_block();
        let bytes = genesis.encode_to_vec();
        let back = Block::decode_exact(&bytes).unwrap();
        assert_eq!(&back, genesis);
        assert_eq!(back.encoded_len(), bytes.len());
    }

    #[test]
    fn pow_check_rejects_tampered_nonce() {
        let genesis = Network::Regtest.genesis_block();
        assert!(genesis.header.meets_pow_target());
        let mut tampered = genesis.header;
        // Regtest's target accepts ~50% of hashes, so step the nonce until
        // the check genuinely fails.
        let mut failed = false;
        for delta in 1..64 {
            tampered.nonce = genesis.header.nonce.wrapping_add(delta);
            if !tampered.meets_pow_target() {
                failed = true;
                break;
            }
        }
        assert!(failed, "tampering never violated the target");
    }

    #[test]
    fn work_positive() {
        let genesis = Network::Regtest.genesis_block();
        assert!(genesis.header.work() > Work::ZERO);
    }

    mod properties {
        use super::*;
        use crate::tx::tests::properties::{arb_tx, assert_sinks_agree};
        use icbtc_sim::{testkit, SimRng};

        /// The Merkle root changes if any leaf changes.
        #[test]
        fn merkle_sensitive_to_leaves() {
            testkit::check(0xB1_0001, testkit::DEFAULT_CASES, |rng| {
                let txids: Vec<Txid> =
                    testkit::vec_with(rng, 1..20, |r| Txid(testkit::byte_array(r)));
                let root = merkle_root(&txids);
                let mut mutated = txids.clone();
                let idx = rng.index(mutated.len());
                mutated[idx].0[0] ^= 0xff;
                assert_ne!(merkle_root(&mutated), root);
            });
        }

        fn arb_header(rng: &mut SimRng) -> BlockHeader {
            BlockHeader {
                version: testkit::i32_any(rng),
                prev_blockhash: BlockHash(testkit::byte_array(rng)),
                merkle_root: MerkleRoot(testkit::byte_array(rng)),
                time: testkit::u32_any(rng),
                bits: CompactTarget::from_consensus(testkit::u32_any(rng)),
                nonce: testkit::u32_any(rng),
            }
        }

        /// Header encode/decode round-trips.
        #[test]
        fn header_roundtrip() {
            testkit::check(0xB1_0002, testkit::DEFAULT_CASES, |rng| {
                let header = arb_header(rng);
                let back = BlockHeader::decode_exact(&header.encode_to_vec()).unwrap();
                assert_eq!(back, header);
            });
        }

        /// Headers and blocks write the same bytes into every sink: the
        /// block hash is the double SHA-256 of the 80 header bytes, and a
        /// block is its header followed by its transaction list.
        #[test]
        fn sinks_agree_with_the_encoding() {
            testkit::check(0xB1_0003, testkit::DEFAULT_CASES, |rng| {
                let block =
                    Block { header: arb_header(rng), txdata: testkit::vec_with(rng, 0..5, arb_tx) };
                let header = assert_sinks_agree(&block.header);
                assert_eq!(header.len(), 80);
                assert_eq!(block.block_hash().0, sha256d(&header));
                let bytes = assert_sinks_agree(&block);
                assert_eq!(bytes[..80], header[..]);
                assert_eq!(Block::decode_exact(&bytes).unwrap(), block);
            });
        }
    }
}
