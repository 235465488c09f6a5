//! The block-header tree and its best-chain rule (paper §II-B).
//!
//! Every header seen above a root is kept, forks included, and the tree
//! tracks its *tip*: the greatest cumulative work, and of equal-work tips
//! the one that arrived first (Bitcoin Core's `nChainWork`, then
//! `nSequenceId`). The current chain is the path from the root to it.
//! btcnet's chain store and the canister's unstable region are both this
//! tree; validity is [`crate::pow::validate_header`]'s job.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

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
/// // A lone root is its own tip, with depth 1.
/// assert_eq!(tree.tip_hash(), genesis.block_hash());
/// assert_eq!(tree.depth_count(&tree.root()), Some(1));
/// ```
#[derive(Clone, Debug)]
pub struct HeaderTree {
    nodes: BTreeMap<BlockHash, StoredHeader>,
    children: BTreeMap<BlockHash, Vec<BlockHash>>,
    root: BlockHash,
    tip: BlockHash,
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
            root: hash,
            tip: hash,
            next_seq: 1,
        }
    }

    /// The root hash.
    pub fn root(&self) -> BlockHash {
        self.root
    }

    /// The root's absolute height.
    pub fn root_height(&self) -> u64 {
        self.nodes[&self.root].height
    }

    /// Hash of the tip: the most cumulative work, first seen on a tie.
    pub fn tip_hash(&self) -> BlockHash {
        self.tip
    }

    /// The stored entry for the tip.
    pub fn tip(&self) -> &StoredHeader {
        &self.nodes[&self.tip]
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

    /// All headers at an absolute height, in hash order.
    pub fn at_height(&self, height: u64) -> impl Iterator<Item = &BlockHash> {
        self.nodes.iter().filter(move |(_, node)| node.height == height).map(|(hash, _)| hash)
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

    /// The ancestor of `hash` at absolute `height` (`hash` itself at its
    /// own height), or `None` if `height` is above it or below the root.
    pub fn ancestor_at(&self, hash: &BlockHash, height: u64) -> Option<BlockHash> {
        let mut cursor = *hash;
        let mut node = self.nodes.get(hash)?;
        while node.height > height {
            cursor = node.header.prev_blockhash;
            node = self.nodes.get(&cursor)?;
        }
        (node.height == height).then_some(cursor)
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
        if node.chain_work > self.tip().chain_work {
            self.tip = hash;
        }
        self.nodes.insert(hash, node);
        self.children.entry(parent_hash).or_default().push(hash);
        Ok(true)
    }

    /// The current chain per §II-B: the path from the root to the tip,
    /// root first.
    pub fn best_chain(&self) -> Vec<BlockHash> {
        let mut chain: Vec<BlockHash> = std::iter::successors(Some(self.tip), |hash| {
            (*hash != self.root).then(|| self.nodes[hash].header.prev_blockhash)
        })
        .collect();
        chain.reverse();
        chain
    }

    /// The greatest height and the greatest cumulative work in the subtree
    /// under `hash`, found with an explicit stack so depth never recurses.
    fn subtree_max(&self, hash: &BlockHash) -> Option<(&StoredHeader, u64, Work)> {
        let node = self.nodes.get(hash)?;
        let (mut height, mut work) = (node.height, node.chain_work);
        let mut stack = vec![*hash];
        while let Some(cursor) = stack.pop() {
            for child in self.children(&cursor) {
                let below = &self.nodes[child];
                height = height.max(below.height);
                work = work.max(below.chain_work);
                stack.push(*child);
            }
        }
        Some((node, height, work))
    }

    /// `d_c(b)`: blocks on the longest path from `hash` to a tip, `hash`
    /// included — the basis of confirmation-based stability. A tip has
    /// `d_c = 1`.
    pub fn depth_count(&self, hash: &BlockHash) -> Option<u64> {
        self.subtree_max(hash).map(|(node, height, _)| height - node.height + 1)
    }

    /// `d_w(b)`: the most work on any path from `hash` to a tip, `hash`'s
    /// own work included — the basis of difficulty-based stability.
    pub fn depth_work(&self, hash: &BlockHash) -> Option<Work> {
        self.subtree_max(hash).map(|(node, _, work)| work - node.chain_work + node.header.work())
    }

    /// Prunes every branch that does not pass through `new_root`, making
    /// it the tree's root — the canister's anchor advance. Returns the
    /// removed hashes. If the tip is pruned, the tip becomes the most-work
    /// survivor, first seen on a tie.
    ///
    /// # Panics
    ///
    /// Panics if `new_root` is not in the tree.
    pub fn reroot(&mut self, new_root: BlockHash) -> Vec<BlockHash> {
        assert!(self.nodes.contains_key(&new_root), "new root must exist");
        let mut keep = BTreeSet::from([new_root]);
        let mut stack = vec![new_root];
        while let Some(cursor) = stack.pop() {
            for child in self.children(&cursor) {
                keep.insert(*child);
                stack.push(*child);
            }
        }
        let removed: Vec<BlockHash> =
            self.nodes.keys().filter(|h| !keep.contains(h)).copied().collect();
        for hash in &removed {
            self.nodes.remove(hash);
            self.children.remove(hash);
        }
        self.root = new_root;
        if !keep.contains(&self.tip) {
            self.tip = self
                .nodes
                .iter()
                .max_by_key(|(_, node)| (node.chain_work, Reverse(node.seq)))
                .map_or(new_root, |(hash, _)| *hash);
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
            assert_eq!(tree.best_chain(), vec![g.block_hash(), first.block_hash()]);
            // Strictly more work moves the tip.
            let next = child_of(&second, 3);
            tree.insert(next).unwrap();
            assert_eq!(tree.tip_hash(), next.block_hash());
        }
    }

    #[test]
    fn reroot_keeps_arrival_order_and_recomputes_a_pruned_tip() {
        // g - a1 - a2 and g - b1 - b2 - b3: rerooting at a1 prunes the tip.
        let g = root();
        let mut tree = HeaderTree::new(g);
        let a1 = child_of(&g, 1);
        let b1 = child_of(&g, 2);
        let a2 = child_of(&a1, 3);
        let a2_twin = child_of(&a1, 4);
        let b2 = child_of(&b1, 5);
        let b3 = child_of(&b2, 6);
        for header in [a1, b1, a2, a2_twin, b2, b3] {
            tree.insert(header).unwrap();
        }
        assert_eq!(tree.tip_hash(), b3.block_hash());
        let removed = tree.reroot(a1.block_hash());
        assert_eq!(removed.len(), 4);
        assert_eq!(tree.root_height(), 1);
        assert_eq!(tree.max_height(), 2);
        assert_eq!(tree.at_height(0).count(), 0);
        // Equal work at height 2: the first seen survivor is the tip.
        assert_eq!(tree.tip_hash(), a2.block_hash());
        assert_eq!(
            tree.insertion_order(),
            vec![a1.block_hash(), a2.block_hash(), a2_twin.block_hash()]
        );
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
        assert_eq!(tree.at_height(1000).count(), 1);
        assert_eq!(tree.max_height(), 1000);
    }
}
