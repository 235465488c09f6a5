//! Per-node chain state: header tree, block store, and validation.
//!
//! Every simulated full node keeps the complete directed tree of valid
//! headers it has seen (forks included — exactly the structure the paper's
//! §II-B defines) in a [`HeaderTree`], which tracks the tip with the
//! greatest accumulated work, plus a store of full blocks.

use std::collections::HashMap;

use icbtc_bitcoin::pow::{self, HeaderError};
use icbtc_bitcoin::{Block, BlockHash, BlockHeader, HeaderTree, Network, StoredHeader};

/// Why a header or block was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The predecessor is not in the tree.
    OrphanHeader(BlockHash),
    /// The header breaks Bitcoin's header rules.
    Header(HeaderError),
    /// The block body is malformed (coinbase/Merkle rules).
    MalformedBlock,
    /// The block's header was never accepted.
    UnknownHeader(BlockHash),
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::OrphanHeader(h) => write!(f, "orphan header: unknown parent {h}"),
            ValidationError::Header(e) => write!(f, "{e}"),
            ValidationError::MalformedBlock => write!(f, "malformed block body"),
            ValidationError::UnknownHeader(h) => write!(f, "block for unknown header {h}"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// The header tree plus block store of one node.
///
/// # Examples
///
/// ```
/// use icbtc_btcnet::chain::ChainStore;
/// use icbtc_bitcoin::Network;
///
/// let chain = ChainStore::new(Network::Regtest);
/// assert_eq!(chain.tip_height(), 0);
/// assert_eq!(chain.tip_hash(), Network::Regtest.genesis_hash());
/// ```
#[derive(Clone, Debug)]
pub struct ChainStore {
    network: Network,
    tree: HeaderTree,
    blocks: HashMap<BlockHash, Block>,
}

impl ChainStore {
    /// Creates a store seeded with the network's genesis block.
    pub fn new(network: Network) -> ChainStore {
        let genesis = network.genesis_block().clone();
        let tree = HeaderTree::new(genesis.header);
        let blocks = HashMap::from([(genesis.block_hash(), genesis)]);
        ChainStore { network, tree, blocks }
    }

    /// The network this chain belongs to.
    pub fn network(&self) -> Network {
        self.network
    }

    /// Hash of the best (most-work) tip.
    pub fn tip_hash(&self) -> BlockHash {
        self.tree.tip_hash()
    }

    /// Height of the best tip.
    pub fn tip_height(&self) -> u64 {
        self.tree.tip().height
    }

    /// The stored entry for the best tip.
    pub fn tip(&self) -> &StoredHeader {
        self.tree.tip()
    }

    /// Looks up a stored header.
    pub fn header(&self, hash: &BlockHash) -> Option<&StoredHeader> {
        self.tree.get(hash)
    }

    /// Looks up a stored block.
    pub fn block(&self, hash: &BlockHash) -> Option<&Block> {
        self.blocks.get(hash)
    }

    /// Returns `true` if the full block is stored.
    pub fn has_block(&self, hash: &BlockHash) -> bool {
        self.blocks.contains_key(hash)
    }

    /// Number of headers in the tree (including genesis).
    pub fn header_count(&self) -> usize {
        self.tree.len()
    }

    /// Direct children of a header in the tree.
    pub fn children(&self, hash: &BlockHash) -> &[BlockHash] {
        self.tree.children(hash)
    }

    /// The headers from `hash` (inclusive) back to genesis, newest first.
    pub fn ancestors(&self, hash: &BlockHash) -> impl Iterator<Item = BlockHeader> + Clone + '_ {
        self.tree.ancestors(hash)
    }

    /// Validates a header against the tree: a known parent, then
    /// Bitcoin's header rules ([`pow::validate_header`]). This is the
    /// check the paper's adapter performs on every downloaded header
    /// (§III-B).
    ///
    /// # Errors
    ///
    /// Returns the specific [`ValidationError`].
    pub fn validate_header(
        &self,
        header: &BlockHeader,
        now_unix: u32,
    ) -> Result<(), ValidationError> {
        let prev = header.prev_blockhash;
        let parent = self.tree.get(&prev).ok_or(ValidationError::OrphanHeader(prev))?;
        pow::validate_header(
            &self.network.params(),
            header,
            &parent.header,
            parent.height,
            self.ancestors(&prev),
            now_unix,
        )
        .map_err(ValidationError::Header)
    }

    /// Accepts a validated header into the tree, which moves the best tip
    /// to it if it has strictly more accumulated work. Returns `true` if
    /// the header was new.
    ///
    /// # Errors
    ///
    /// Re-runs validation; see [`ChainStore::validate_header`].
    pub fn accept_header(
        &mut self,
        header: BlockHeader,
        now_unix: u32,
    ) -> Result<bool, ValidationError> {
        let hash = header.block_hash();
        if self.tree.contains(&hash) {
            return Ok(false);
        }
        self.validate_header(&header, now_unix)?;
        self.tree.insert_hashed(hash, header).map_err(ValidationError::OrphanHeader)
    }

    /// Accepts a full block: its header must validate (or already be
    /// known) and the body must be well-formed. Returns `true` if the
    /// block body was new.
    ///
    /// # Errors
    ///
    /// Returns [`ValidationError::MalformedBlock`] for bad bodies and
    /// header errors otherwise.
    pub fn accept_block(&mut self, block: Block, now_unix: u32) -> Result<bool, ValidationError> {
        if !block.is_well_formed() {
            return Err(ValidationError::MalformedBlock);
        }
        let hash = block.block_hash();
        self.accept_header(block.header, now_unix)?;
        Ok(self.blocks.insert(hash, block).is_none())
    }

    /// The best chain, genesis first: the hash at index `h` is at height `h`.
    pub fn best_chain(&self) -> &[BlockHash] {
        self.tree.best_chain()
    }

    /// Returns the hash at `height` on the best chain, if within range.
    pub fn best_chain_hash_at(&self, height: u64) -> Option<BlockHash> {
        self.tree.best_at(height)
    }

    /// Builds a block-locator (exponentially spaced hashes from the tip),
    /// as used in `getheaders`.
    pub fn locator(&self) -> Vec<BlockHash> {
        let best = self.best_chain();
        let mut out = Vec::new();
        let mut step = 1;
        let mut height = best.len() - 1;
        while height > 0 {
            out.push(best[height]);
            if out.len() >= 10 {
                step *= 2;
            }
            height = height.saturating_sub(step);
        }
        out.push(best[0]);
        out
    }

    /// Answers a `getheaders` request: up to `max` headers on the best
    /// chain after the first locator hash found on it.
    pub fn headers_after(&self, locator: &[BlockHash], max: usize) -> Vec<BlockHeader> {
        let best = self.best_chain();
        let position = |hash: &BlockHash| -> Option<usize> {
            let idx = self.tree.height(hash)? as usize;
            (best.get(idx) == Some(hash)).then_some(idx)
        };
        let start = locator
            .iter()
            .find_map(position)
            .map(|idx| idx + 1)
            .unwrap_or(1); // fork locators fall back to after-genesis
        best[start.min(best.len())..]
            .iter()
            .take(max)
            .filter_map(|h| self.tree.header(h))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::mine_block_on;
    use icbtc_bitcoin::pow::{CompactTarget, MAX_FUTURE_SKEW_SECS};
    use icbtc_bitcoin::Script;

    fn extend(chain: &mut ChainStore, tip: BlockHash, n: usize, salt: u64) -> Vec<BlockHash> {
        let mut prev = tip;
        let mut out = Vec::new();
        for i in 0..n {
            let block = mine_block_on(chain, prev, Vec::new(), Script::new_op_return(b"t"), salt + i as u64);
            let hash = block.block_hash();
            let now = block.header.time;
            chain.accept_block(block, now).unwrap();
            out.push(hash);
            prev = hash;
        }
        out
    }

    #[test]
    fn genesis_initialization() {
        let chain = ChainStore::new(Network::Regtest);
        assert_eq!(chain.tip_height(), 0);
        assert_eq!(chain.header_count(), 1);
        assert!(chain.has_block(&Network::Regtest.genesis_hash()));
    }

    #[test]
    fn linear_extension_moves_tip() {
        let mut chain = ChainStore::new(Network::Regtest);
        let genesis = chain.tip_hash();
        let hashes = extend(&mut chain, genesis, 5, 0);
        assert_eq!(chain.tip_height(), 5);
        assert_eq!(chain.tip_hash(), hashes[4]);
        assert_eq!(chain.best_chain_hash_at(0), Some(genesis));
        assert_eq!(chain.best_chain_hash_at(3), Some(hashes[2]));
        assert_eq!(chain.best_chain_hash_at(6), None);
    }

    #[test]
    fn fork_resolution_by_work() {
        let mut chain = ChainStore::new(Network::Regtest);
        let genesis = chain.tip_hash();
        let main = extend(&mut chain, genesis, 3, 0);
        // A shorter fork does not win.
        let fork = extend(&mut chain, genesis, 2, 1000);
        assert_eq!(chain.tip_hash(), main[2]);
        // Extending the fork past the main chain reorganizes.
        let fork2 = extend(&mut chain, fork[1], 2, 2000);
        assert_eq!(chain.tip_hash(), fork2[1]);
        assert_eq!(chain.tip_height(), 4);
        // Height lookups, the locator and served headers follow the new
        // branch.
        let branch: Vec<BlockHash> = [genesis].into_iter().chain(fork).chain(fork2).collect();
        assert_eq!(chain.best_chain(), branch.as_slice());
        for (height, hash) in branch.iter().enumerate() {
            assert_eq!(chain.best_chain_hash_at(height as u64), Some(*hash));
        }
        assert_eq!(chain.locator(), branch.iter().rev().copied().collect::<Vec<_>>());
        let served_after = |locator: &[BlockHash]| -> Vec<BlockHash> {
            chain.headers_after(locator, 2000).iter().map(BlockHeader::block_hash).collect()
        };
        // A peer still on the old chain shares only genesis.
        assert_eq!(served_after(&[main[2], main[1], main[0], genesis]), branch[1..]);
        assert_eq!(served_after(&[branch[2], genesis]), branch[3..]);
        // Both forks' headers remain in the tree.
        assert!(chain.header(&main[2]).is_some());
        assert_eq!(chain.children(&genesis).len(), 2);
    }

    #[test]
    fn rejects_orphans_and_bad_pow() {
        let mut chain = ChainStore::new(Network::Regtest);
        let genesis = chain.tip_hash();
        let good = mine_block_on(&chain, genesis, Vec::new(), Script::new_op_return(b"x"), 0);

        let mut orphan = good.header;
        orphan.prev_blockhash = BlockHash([9; 32]);
        assert!(matches!(
            chain.accept_header(orphan, orphan.time),
            Err(ValidationError::OrphanHeader(_))
        ));

        // Find a nonce that breaks pow (regtest accepts ~half of hashes).
        let mut bad = good.header;
        for delta in 1..1000 {
            bad.nonce = good.header.nonce.wrapping_add(delta);
            if !bad.meets_pow_target() {
                break;
            }
        }
        assert!(!bad.meets_pow_target());
        assert_eq!(
            chain.accept_header(bad, bad.time),
            Err(ValidationError::Header(HeaderError::BadProofOfWork))
        );
    }

    #[test]
    fn rejects_wrong_bits() {
        let chain = ChainStore::new(Network::Regtest);
        let genesis = chain.tip_hash();
        let good = mine_block_on(&chain, genesis, Vec::new(), Script::new_op_return(b"x"), 0);
        let mut wrong = good.header;
        wrong.bits = CompactTarget::from_consensus(0x1d00ffff);
        assert!(matches!(
            chain.validate_header(&wrong, wrong.time),
            Err(ValidationError::Header(HeaderError::BadDifficultyBits { .. }))
        ));
    }

    #[test]
    fn rejects_bad_timestamps() {
        let chain = ChainStore::new(Network::Regtest);
        let genesis_time = Network::Regtest.genesis_block().header.time;
        let genesis = chain.tip_hash();
        let good = mine_block_on(&chain, genesis, Vec::new(), Script::new_op_return(b"x"), 0);

        let mut stale = good.header;
        stale.time = genesis_time; // equal to MTP of single-block history
        // Re-mine: timestamp is covered by pow, so adjust nonce.
        let stale = remine(stale);
        assert_eq!(
            chain.validate_header(&stale, good.header.time),
            Err(ValidationError::Header(HeaderError::TimestampTooOld))
        );

        let mut future = good.header;
        future.time = genesis_time + MAX_FUTURE_SKEW_SECS + 100;
        let future = remine(future);
        assert_eq!(
            chain.validate_header(&future, genesis_time),
            Err(ValidationError::Header(HeaderError::TimestampTooNew))
        );
    }

    fn remine(mut header: BlockHeader) -> BlockHeader {
        header.nonce = 0;
        while !header.meets_pow_target() {
            header.nonce += 1;
        }
        header
    }

    #[test]
    fn rejects_malformed_blocks() {
        let mut chain = ChainStore::new(Network::Regtest);
        let genesis = chain.tip_hash();
        let mut block = mine_block_on(&chain, genesis, Vec::new(), Script::new_op_return(b"x"), 0);
        block.txdata.clear();
        assert_eq!(
            chain.accept_block(block, 2_000_000_000),
            Err(ValidationError::MalformedBlock)
        );
    }

    #[test]
    fn duplicate_acceptance_is_idempotent() {
        let mut chain = ChainStore::new(Network::Regtest);
        let genesis = chain.tip_hash();
        let block = mine_block_on(&chain, genesis, Vec::new(), Script::new_op_return(b"x"), 0);
        let now = block.header.time;
        assert!(chain.accept_block(block.clone(), now).unwrap());
        assert!(!chain.accept_block(block, now).unwrap());
        assert_eq!(chain.header_count(), 2);
    }

    #[test]
    fn locator_and_headers_after() {
        let mut chain = ChainStore::new(Network::Regtest);
        let genesis = chain.tip_hash();
        extend(&mut chain, genesis, 30, 0);
        let locator = chain.locator();
        assert_eq!(locator[0], chain.tip_hash());
        assert_eq!(*locator.last().unwrap(), genesis);
        assert!(locator.len() < 30);

        // A peer at height 10 asks with its locator.
        let mut behind = ChainStore::new(Network::Regtest);
        // Replay first 10 blocks from the main chain.
        for hash in &chain.best_chain()[1..11] {
            let block = chain.block(hash).unwrap().clone();
            let now = block.header.time;
            behind.accept_block(block, now).unwrap();
        }
        let served = chain.headers_after(&behind.locator(), 2000);
        assert_eq!(served.len(), 20);
        assert_eq!(served[0].prev_blockhash, behind.tip_hash());
        // Max cap respected.
        assert_eq!(chain.headers_after(&behind.locator(), 5).len(), 5);
        // Unknown locator serves from genesis.
        assert_eq!(chain.headers_after(&[BlockHash([7; 32])], 2000).len(), 30);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            ValidationError::OrphanHeader(BlockHash::ZERO),
            ValidationError::Header(HeaderError::BadProofOfWork),
            ValidationError::Header(HeaderError::TimestampTooOld),
            ValidationError::Header(HeaderError::TimestampTooNew),
            ValidationError::MalformedBlock,
            ValidationError::UnknownHeader(BlockHash::ZERO),
            ValidationError::Header(HeaderError::BadDifficultyBits {
                expected: CompactTarget::from_consensus(1),
                actual: CompactTarget::from_consensus(2),
            }),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
