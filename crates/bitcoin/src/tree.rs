//! The block-header tree and its best-chain rule (paper §II-B).
//!
//! Every header seen above a root is kept, forks included, and the tree
//! tracks its *tip*: the greatest cumulative work, and of equal-work tips
//! the one that arrived first (Bitcoin Core's `nChainWork`, then
//! `nSequenceId`). The current chain, the path from the root to that tip,
//! is stored as a height-indexed vector (Bitcoin Core's `CChain`) that is
//! re-pointed only when the tip moves.
//! btcnet's chain store and the canister's unstable region are both this
//! tree; validity is [`crate::pow::validate_header`]'s job.

use std::collections::BTreeMap;

use crate::block::BlockHeader;
use crate::hash::BlockHash;
use crate::pow::Work;

/// A header in the tree, with its derived chain position.
#[derive(Clone, Copy, Debug)]
pub struct StoredHeader {
    /// The header itself.
    pub header: BlockHeader,
    /// Absolute chain height.
    pub height: u64,
    /// Total work from the root to this header inclusive.
    pub chain_work: Work,
    /// Arrival order: the tie-break between equal-work tips.
    seq: u64,
}

/// A directed tree of block headers rooted at a genesis or anchor header,
/// tracking its most-work tip.
///
/// # Examples
///
/// ```
/// use icbtc_bitcoin::{HeaderTree, Network};
///
/// let genesis = Network::Regtest.genesis_block().header;
/// let tree = HeaderTree::new(genesis);
/// // A lone root is its own tip and the whole current chain.
/// assert_eq!(tree.tip_hash(), genesis.block_hash());
/// assert_eq!(tree.best_chain(), [genesis.block_hash()]);
/// ```
#[derive(Clone, Debug)]
pub struct HeaderTree {
    nodes: BTreeMap<BlockHash, StoredHeader>,
    children: BTreeMap<BlockHash, Vec<BlockHash>>,
    /// The current chain, root first: `chain[i]` sits at root height + i.
    chain: Vec<BlockHash>,
    next_seq: u64,
}

impl HeaderTree {
    /// Creates a tree whose root is `root` at height 0.
    pub fn new(root: BlockHeader) -> HeaderTree {
        HeaderTree::with_root_height(root, 0)
    }

    /// Creates a tree whose root sits at an absolute chain height (the
    /// canister's anchor is rarely genesis).
    pub fn with_root_height(root: BlockHeader, height: u64) -> HeaderTree {
        let hash = root.block_hash();
        let node = StoredHeader { header: root, height, chain_work: root.work(), seq: 0 };
        HeaderTree {
            nodes: BTreeMap::from([(hash, node)]),
            children: BTreeMap::new(),
            chain: vec![hash],
            next_seq: 1,
        }
    }

    /// The root hash.
    pub fn root(&self) -> BlockHash {
        self.chain[0]
    }

    /// The root's absolute height.
    pub fn root_height(&self) -> u64 {
        self.nodes[&self.root()].height
    }

    /// Hash of the tip: the most cumulative work, first seen on a tie.
    pub fn tip_hash(&self) -> BlockHash {
        self.chain[self.chain.len() - 1]
    }

    /// The stored entry for the tip.
    pub fn tip(&self) -> &StoredHeader {
        &self.nodes[&self.tip_hash()]
    }

    /// Number of headers in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if only the root is present.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Returns `true` if `hash` is in the tree.
    pub fn contains(&self, hash: &BlockHash) -> bool {
        self.nodes.contains_key(hash)
    }

    /// The stored entry for `hash`.
    pub fn get(&self, hash: &BlockHash) -> Option<&StoredHeader> {
        self.nodes.get(hash)
    }

    /// The header stored under `hash`.
    pub fn header(&self, hash: &BlockHash) -> Option<BlockHeader> {
        self.nodes.get(hash).map(|n| n.header)
    }

    /// Absolute height of `hash`.
    pub fn height(&self, hash: &BlockHash) -> Option<u64> {
        self.nodes.get(hash).map(|n| n.height)
    }

    /// Children of `hash`, in arrival order.
    pub fn children(&self, hash: &BlockHash) -> &[BlockHash] {
        self.children.get(hash).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The greatest height present.
    pub fn max_height(&self) -> u64 {
        self.nodes.values().map(|node| node.height).max().unwrap_or(0)
    }

    /// All header hashes in arrival order, root first. Parents precede
    /// their children, so re-inserting in this order rebuilds the tree
    /// with the same tip.
    pub fn insertion_order(&self) -> Vec<BlockHash> {
        let mut hashes: Vec<(u64, BlockHash)> =
            self.nodes.iter().map(|(hash, node)| (node.seq, *hash)).collect();
        hashes.sort_unstable();
        hashes.into_iter().map(|(_, hash)| hash).collect()
    }

    /// The headers from `hash` (inclusive) back to the root, newest first.
    pub fn ancestors(&self, hash: &BlockHash) -> impl Iterator<Item = BlockHeader> + Clone + '_ {
        let parent = |node: &&StoredHeader| self.nodes.get(&node.header.prev_blockhash);
        std::iter::successors(self.nodes.get(hash), parent).map(|node| node.header)
    }

    /// Inserts a header whose parent is already present, moving the tip
    /// to it if it has strictly more cumulative work. Returns `false` if
    /// it was already present.
    ///
    /// # Errors
    ///
    /// Returns the unknown parent hash if the header does not connect.
    pub fn insert(&mut self, header: BlockHeader) -> Result<bool, BlockHash> {
        self.insert_hashed(header.block_hash(), header)
    }

    /// [`HeaderTree::insert`] given `hash = header.block_hash()`, so a
    /// caller that looked the header up before validating it hashes it
    /// once. Errors as [`HeaderTree::insert`].
    pub fn insert_hashed(
        &mut self,
        hash: BlockHash,
        header: BlockHeader,
    ) -> Result<bool, BlockHash> {
        debug_assert_eq!(hash, header.block_hash(), "insert_hashed needs the header's own hash");
        if self.nodes.contains_key(&hash) {
            return Ok(false);
        }
        let parent_hash = header.prev_blockhash;
        let parent = self.nodes.get(&parent_hash).ok_or(parent_hash)?;
        let node = StoredHeader {
            header,
            height: parent.height + 1,
            chain_work: parent.chain_work + header.work(),
            seq: self.next_seq,
        };
        self.next_seq += 1;
        let more_work = node.chain_work > self.tip().chain_work;
        self.nodes.insert(hash, node);
        self.children.entry(parent_hash).or_default().push(hash);
        if more_work {
            // Re-point the chain: walk the new branch back to the fork
            // point on the current chain (the parent, when it extends the
            // tip), cut there and append the branch.
            let mut branch = vec![hash];
            let mut cursor = parent_hash;
            while self.best_at(self.nodes[&cursor].height) != Some(cursor) {
                branch.push(cursor);
                cursor = self.nodes[&cursor].header.prev_blockhash;
            }
            let fork_len = self.nodes[&cursor].height - self.root_height() + 1;
            self.chain.truncate(fork_len as usize);
            self.chain.extend(branch.into_iter().rev());
        }
        Ok(true)
    }

    /// The current chain per §II-B: the path from the root to the tip,
    /// root first.
    pub fn best_chain(&self) -> &[BlockHash] {
        &self.chain
    }

    /// The header at absolute `height` on the current chain, or `None`
    /// if `height` is below the root or above the tip.
    pub fn best_at(&self, height: u64) -> Option<BlockHash> {
        let index = height.checked_sub(self.root_height())?;
        self.chain.get(usize::try_from(index).ok()?).copied()
    }

    /// Moves the root one header along the current chain — the
    /// canister's anchor advance — and prunes the old root with every
    /// branch that does not pass through the new one. The tip is under
    /// the new root, so it stays. Returns the removed hashes.
    ///
    /// # Panics
    ///
    /// Panics if the root is the tip.
    pub fn advance_root(&mut self) -> Vec<BlockHash> {
        assert!(self.chain.len() > 1, "the root is the tip");
        let old_root = self.chain.remove(0);
        let new_root = self.chain[0];
        let mut removed = Vec::new();
        let mut stack = vec![old_root];
        while let Some(hash) = stack.pop() {
            self.nodes.remove(&hash);
            let children = self.children.remove(&hash).unwrap_or_default();
            stack.extend(children.into_iter().filter(|child| *child != new_root));
            removed.push(hash);
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::MerkleRoot;
    use crate::network::Network;

    /// A synthetic child header (unchecked proof of work: the tree does
    /// not validate).
    fn child_of(parent: &BlockHeader, salt: u32) -> BlockHeader {
        BlockHeader {
            version: 2,
            prev_blockhash: parent.block_hash(),
            merkle_root: MerkleRoot([salt as u8; 32]),
            time: parent.time + 600,
            bits: parent.bits,
            nonce: salt,
        }
    }

    fn root() -> BlockHeader {
        Network::Regtest.genesis_block().header
    }

    #[test]
    fn equal_work_tie_keeps_the_first_seen_tip() {
        let g = root();
        let (a, b) = (child_of(&g, 1), child_of(&g, 2));
        for (first, second) in [(a, b), (b, a)] {
            let mut tree = HeaderTree::new(g);
            tree.insert(first).unwrap();
            tree.insert(second).unwrap();
            assert_eq!(tree.tip_hash(), first.block_hash());
            assert_eq!(tree.best_chain(), [g.block_hash(), first.block_hash()]);
            // Strictly more work moves the tip.
            let next = child_of(&second, 3);
            tree.insert(next).unwrap();
            assert_eq!(tree.tip_hash(), next.block_hash());
        }
    }

    #[test]
    fn advance_root_keeps_arrival_order_and_the_tip() {
        // g - a1 - a2, a1 - a2_twin (equal work) and g - b1.
        let g = root();
        let mut tree = HeaderTree::new(g);
        let a1 = child_of(&g, 1);
        let b1 = child_of(&g, 2);
        let a2 = child_of(&a1, 3);
        let a2_twin = child_of(&a1, 4);
        for header in [a1, b1, a2, a2_twin] {
            tree.insert(header).unwrap();
        }
        let removed = tree.advance_root();
        assert_eq!(removed.len(), 2);
        assert_eq!(tree.root(), a1.block_hash());
        assert_eq!(tree.root_height(), 1);
        assert_eq!(tree.max_height(), 2);
        assert!(!tree.contains(&g.block_hash()) && !tree.contains(&b1.block_hash()));
        // The first seen of the equal-work pair stays the tip.
        assert_eq!(tree.best_chain(), [a1.block_hash(), a2.block_hash()]);
        assert_eq!(tree.best_at(0), None);
        assert_eq!(tree.best_at(2), Some(a2.block_hash()));
        assert_eq!(tree.best_at(3), None);
        assert_eq!(
            tree.insertion_order(),
            vec![a1.block_hash(), a2.block_hash(), a2_twin.block_hash()]
        );
        // Extending the twin reorganizes onto it; the next advance
        // follows the new chain and prunes the old tip.
        let c = child_of(&a2_twin, 5);
        tree.insert(c).unwrap();
        assert_eq!(tree.best_chain(), [a1.block_hash(), a2_twin.block_hash(), c.block_hash()]);
        let removed = tree.advance_root();
        assert_eq!(removed.len(), 2);
        assert!(!tree.contains(&a2.block_hash()));
        assert_eq!(tree.best_chain(), [a2_twin.block_hash(), c.block_hash()]);
    }

    #[test]
    fn insert_rejects_orphans_and_duplicates() {
        let g = root();
        let mut tree = HeaderTree::new(g);
        let child = child_of(&g, 1);
        let orphan = child_of(&child, 2);
        assert_eq!(tree.insert(orphan), Err(child.block_hash()));
        assert_eq!(tree.insert(child), Ok(true));
        assert_eq!(tree.insert(child), Ok(false));
        assert_eq!(tree.insert(orphan), Ok(true));
    }

    #[test]
    fn with_root_height_offsets_heights() {
        let g = root();
        let tree = HeaderTree::with_root_height(g, 1000);
        assert_eq!(tree.root_height(), 1000);
        assert_eq!(tree.height(&g.block_hash()), Some(1000));
        assert_eq!(tree.max_height(), 1000);
    }
}
