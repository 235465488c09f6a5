//! δ-stability over block trees (paper §II-B / §II-C, Definition II.1).
//!
//! Bitcoin has no deterministic finality: multiple blocks can exist at the
//! same height and the "current" chain can be reorganized. The paper's
//! central conceptual contribution is a *stability* notion that turns the
//! probabilistic block tree into deterministic decisions:
//!
//! > **Definition II.1 (δ-stability).** Given a depth function
//! > `d: B → ℕ₀`, a block `b ∈ B` is δ-stable if (1) `d(b) ≥ δ` and
//! > (2) `d(b) − d(b′) ≥ δ` for every other block `b′` at the same height.
//!
//! Two depth functions instantiate it: `d_c` (unit cost — *confirmation-
//! based* stability, which generalizes Bitcoin's confirmation count to
//! forks) and `d_w` (per-block hash work — *difficulty-based* stability,
//! which the Bitcoin canister uses to advance its anchor, normalized by
//! the work `w(b*)` of a reference block).

use std::collections::BTreeMap;

use icbtc_bitcoin::{BlockHash, BlockHeader, Work};

/// A node in the header tree.
#[derive(Clone, Copy, Debug)]
struct TreeNode {
    header: BlockHeader,
    height: u64,
}

/// A directed tree of block headers rooted at an anchor/genesis header,
/// with the depth and stability queries of §II-B/§II-C.
///
/// # Examples
///
/// ```
/// use icbtc_core::stability::HeaderTree;
/// use icbtc_bitcoin::Network;
///
/// let genesis = Network::Regtest.genesis_block().header;
/// let tree = HeaderTree::new(genesis);
/// // A lone root is its own tip: depth 1, no competitors.
/// assert_eq!(tree.confirmation_stability(&genesis.block_hash()), Some(1));
/// ```
#[derive(Clone, Debug)]
pub struct HeaderTree {
    nodes: BTreeMap<BlockHash, TreeNode>,
    children: BTreeMap<BlockHash, Vec<BlockHash>>,
    by_height: BTreeMap<u64, Vec<BlockHash>>,
    root: BlockHash,
    root_height: u64,
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
        let mut nodes = BTreeMap::new();
        nodes.insert(hash, TreeNode { header: root, height });
        let mut by_height = BTreeMap::new();
        by_height.insert(height, vec![hash]);
        HeaderTree { nodes, children: BTreeMap::new(), by_height, root: hash, root_height: height }
    }

    /// The root hash.
    pub fn root(&self) -> BlockHash {
        self.root
    }

    /// The root's absolute height.
    pub fn root_height(&self) -> u64 {
        self.root_height
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

    /// The header stored under `hash`.
    pub fn header(&self, hash: &BlockHash) -> Option<BlockHeader> {
        self.nodes.get(hash).map(|n| n.header)
    }

    /// Absolute height of `hash`.
    pub fn height(&self, hash: &BlockHash) -> Option<u64> {
        self.nodes.get(hash).map(|n| n.height)
    }

    /// Children of `hash`.
    pub fn children(&self, hash: &BlockHash) -> &[BlockHash] {
        self.children.get(hash).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All headers at an absolute height.
    pub fn at_height(&self, height: u64) -> &[BlockHash] {
        self.by_height.get(&height).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The greatest height present.
    pub fn max_height(&self) -> u64 {
        self.nodes.values().map(|n| n.height).max().unwrap_or(self.root_height)
    }

    /// All header hashes, in no particular order.
    pub fn hashes(&self) -> impl Iterator<Item = &BlockHash> {
        self.nodes.keys()
    }

    /// Inserts a header whose parent is already present. Returns `false`
    /// if it was already present.
    ///
    /// # Errors
    ///
    /// Returns the unknown parent hash if the header does not connect.
    pub fn insert(&mut self, header: BlockHeader) -> Result<bool, BlockHash> {
        let hash = header.block_hash();
        if self.nodes.contains_key(&hash) {
            return Ok(false);
        }
        let parent = header.prev_blockhash;
        let parent_height = self.nodes.get(&parent).map(|n| n.height).ok_or(parent)?;
        let height = parent_height + 1;
        self.nodes.insert(hash, TreeNode { header, height });
        self.children.entry(parent).or_default().push(hash);
        self.by_height.entry(height).or_default().push(hash);
        Ok(true)
    }

    /// Generic depth (maximum cumulative cost from `hash` to any reachable
    /// tip), per the definition in §II-B, summed exactly in `T`.
    fn depth_with<T, C>(&self, hash: &BlockHash, cost: &C) -> Option<T>
    where
        T: Copy + Ord + std::ops::Add<Output = T>,
        C: Fn(&BlockHeader) -> T,
    {
        let own = cost(&self.nodes.get(hash)?.header);
        let best_child = self.children(hash).iter().filter_map(|c| self.depth_with(c, cost)).max();
        Some(best_child.map_or(own, |best| own + best))
    }

    /// `d_c(b)`: depth counting each block once — the basis of
    /// confirmation-based stability. A tip has `d_c = 1`.
    pub fn depth_count(&self, hash: &BlockHash) -> Option<u64> {
        self.depth_with(hash, &|_| 1u64)
    }

    /// `d_w(b)`: depth accumulating hash work — the basis of
    /// difficulty-based stability.
    pub fn depth_work(&self, hash: &BlockHash) -> Option<Work> {
        self.depth_with(hash, &BlockHeader::work)
    }

    /// Confirmation-based stability of a block: the largest δ for which
    /// Definition II.1 holds under `d_c`, which may be negative for blocks
    /// on losing forks (as in the paper's Figure 3).
    pub fn confirmation_stability(&self, hash: &BlockHash) -> Option<i64> {
        let node = self.nodes.get(hash)?;
        let own_depth = self.depth_count(hash)? as i64;
        let mut stability = own_depth; // condition (1): d(b) ≥ δ
        for other in self.at_height(node.height) {
            if other == hash {
                continue;
            }
            let other_depth = self.depth_count(other)? as i64;
            stability = stability.min(own_depth - other_depth); // condition (2)
        }
        Some(stability)
    }

    /// Whether `hash` is confirmation-based δ-stable.
    pub fn is_confirmation_stable(&self, hash: &BlockHash, delta: u64) -> bool {
        assert!(delta > 0, "delta-stability requires delta > 0");
        self.confirmation_stability(hash)
            .map(|s| s >= delta as i64)
            .unwrap_or(false)
    }

    /// Whether `hash` is difficulty-based δ-stable with respect to a
    /// reference block of work `reference_work` (§II-C): with
    /// `m = δ·w(b*)`, `d_w(b) ≥ m` and `d_w(b) ≥ d_w(b′) + m` for every
    /// other `b′` at the same height. Decided in exact integer work.
    pub fn is_difficulty_stable(
        &self,
        hash: &BlockHash,
        delta: u64,
        reference_work: Work,
    ) -> bool {
        assert!(delta > 0, "delta-stability requires delta > 0");
        let (Some(node), Some(own)) = (self.nodes.get(hash), self.depth_work(hash)) else {
            return false;
        };
        let margin = reference_work * delta;
        own >= margin
            && self.at_height(node.height).iter().filter(|other| *other != hash).all(|other| {
                self.depth_work(other).is_some_and(|depth| own >= depth + margin)
            })
    }

    /// The current blockchain per §II-B: the path from the root to a tip
    /// maximizing cumulative work, root first.
    pub fn best_chain(&self) -> Vec<BlockHash> {
        let mut chain = vec![self.root];
        let mut cursor = self.root;
        loop {
            let next = self
                .children(&cursor)
                .iter()
                .max_by_key(|c| self.depth_work(c).unwrap_or(Work::ZERO));
            match next {
                Some(child) => {
                    chain.push(*child);
                    cursor = *child;
                }
                None => return chain,
            }
        }
    }

    /// Prunes every branch that does not pass through `new_root`, making
    /// it the tree's root — the canister's anchor advance. Returns the
    /// removed hashes.
    ///
    /// # Panics
    ///
    /// Panics if `new_root` is not in the tree.
    pub fn reroot(&mut self, new_root: BlockHash) -> Vec<BlockHash> {
        assert!(self.nodes.contains_key(&new_root), "new root must exist");
        // Collect the keep-set: new_root and its descendants.
        let mut keep = vec![new_root];
        let mut stack = vec![new_root];
        while let Some(cur) = stack.pop() {
            for child in self.children(&cur) {
                keep.push(*child);
                stack.push(*child);
            }
        }
        let keep_set: std::collections::BTreeSet<BlockHash> = keep.into_iter().collect();
        let removed: Vec<BlockHash> =
            self.nodes.keys().filter(|h| !keep_set.contains(h)).copied().collect();
        for hash in &removed {
            let node = self.nodes.remove(hash).expect("listed for removal"); // icbtc-lint: allow(no-panic) -- invariant: `removed` was collected from self.nodes.keys() two lines up and nothing mutates nodes in between
            self.children.remove(hash);
            if let Some(level) = self.by_height.get_mut(&node.height) {
                level.retain(|h| h != hash);
            }
        }
        for children in self.children.values_mut() {
            children.retain(|c| keep_set.contains(c));
        }
        self.root = new_root;
        self.root_height = self.nodes[&new_root].height;
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icbtc_bitcoin::pow::CompactTarget;
    use icbtc_bitcoin::{MerkleRoot, Network};

    /// Builds a synthetic child header (unchecked PoW — the tree itself
    /// does not validate, as validation lives in the adapter/canister).
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

    /// Builds the paper's Figure 3 shape: a main chain with two forks.
    ///
    /// ```text
    /// g - a1 - a2 - a3 - a4 - a5
    ///       \- b2 - b3
    ///             \- c4        (c4 branches from b3's parent? no: from b3)
    /// ```
    fn figure3() -> (HeaderTree, Vec<BlockHash>, Vec<BlockHash>) {
        let g = root();
        let mut tree = HeaderTree::new(g);
        let mut main = Vec::new();
        let mut parent = g;
        for i in 0..5 {
            let h = child_of(&parent, 100 + i);
            tree.insert(h).unwrap();
            main.push(h.block_hash());
            parent = h;
        }
        // Fork from a1: two blocks.
        let a1 = tree.header(&main[0]).unwrap();
        let b2 = child_of(&a1, 200);
        let b3 = child_of(&b2, 201);
        tree.insert(b2).unwrap();
        tree.insert(b3).unwrap();
        (tree, main, vec![b2.block_hash(), b3.block_hash()])
    }

    #[test]
    fn depth_count_of_linear_chain() {
        let g = root();
        let mut tree = HeaderTree::new(g);
        let mut parent = g;
        let mut hashes = vec![g.block_hash()];
        for i in 0..4 {
            let h = child_of(&parent, i);
            tree.insert(h).unwrap();
            hashes.push(h.block_hash());
            parent = h;
        }
        // Depths: 5, 4, 3, 2, 1 from root to tip.
        for (i, hash) in hashes.iter().enumerate() {
            assert_eq!(tree.depth_count(hash), Some(5 - i as u64));
        }
        // Stability equals depth without competitors.
        for (i, hash) in hashes.iter().enumerate() {
            assert_eq!(tree.confirmation_stability(hash), Some(5 - i as i64));
        }
    }

    #[test]
    fn figure3_stability_values() {
        let (tree, main, fork) = figure3();
        // Main chain blocks compete with the fork at heights 2 and 3.
        // a1 has no competitor: stability = depth = 5.
        assert_eq!(tree.confirmation_stability(&main[0]), Some(5));
        // a2: depth 4, fork b2 depth 2 ⇒ min(4, 4-2) = 2.
        assert_eq!(tree.confirmation_stability(&main[1]), Some(2));
        // a3: depth 3, fork b3 depth 1 ⇒ min(3, 3-1) = 2.
        assert_eq!(tree.confirmation_stability(&main[2]), Some(2));
        // a4, a5 unopposed: stability = depth.
        assert_eq!(tree.confirmation_stability(&main[3]), Some(2));
        assert_eq!(tree.confirmation_stability(&main[4]), Some(1));
        // Fork blocks have negative stability (they lose).
        assert_eq!(tree.confirmation_stability(&fork[0]), Some(2 - 4));
        assert_eq!(tree.confirmation_stability(&fork[1]), Some(1 - 3));
    }

    #[test]
    fn stability_stagnates_while_depth_grows() {
        // The paper notes stability may stagnate even as depth increases:
        // grow both forks in lockstep and watch the margin stay fixed.
        let g = root();
        let mut tree = HeaderTree::new(g);
        let a1 = child_of(&g, 1);
        let b1 = child_of(&g, 2);
        tree.insert(a1).unwrap();
        tree.insert(b1).unwrap();
        let mut a_parent = a1;
        let mut b_parent = b1;
        let mut last_stability = tree.confirmation_stability(&a1.block_hash()).unwrap();
        for i in 0..5 {
            let a_next = child_of(&a_parent, 10 + i);
            let b_next = child_of(&b_parent, 20 + i);
            tree.insert(a_next).unwrap();
            tree.insert(b_next).unwrap();
            a_parent = a_next;
            b_parent = b_next;
            let stability = tree.confirmation_stability(&a1.block_hash()).unwrap();
            assert_eq!(stability, last_stability, "equal-rate forks freeze stability");
            last_stability = stability;
            // Depth keeps growing though.
            assert_eq!(tree.depth_count(&a1.block_hash()), Some(i as u64 + 2));
        }
        assert_eq!(last_stability, 0, "competing equal forks pin stability at 0");
    }

    #[test]
    fn only_one_delta_stable_block_per_height() {
        let (tree, main, fork) = figure3();
        // At height 2 (a2 vs b2) only a2 can be δ-stable for δ=1..3.
        for delta in 1..=3u64 {
            let stable_a = tree.is_confirmation_stable(&main[1], delta);
            let stable_b = tree.is_confirmation_stable(&fork[0], delta);
            assert!(!(stable_a && stable_b), "two stable blocks at one height");
        }
        assert!(tree.is_confirmation_stable(&main[1], 2));
        assert!(!tree.is_confirmation_stable(&main[1], 3));
    }

    #[test]
    fn delta_monotonicity() {
        // δ-stable implies δ′-stable for δ′ ≤ δ.
        let (tree, main, _) = figure3();
        for hash in &main {
            for delta in 1..=6u64 {
                if tree.is_confirmation_stable(hash, delta) {
                    for smaller in 1..delta {
                        assert!(tree.is_confirmation_stable(hash, smaller));
                    }
                }
            }
        }
    }

    #[test]
    fn difficulty_stability_equal_bits_matches_confirmations() {
        // With uniform difficulty, d_w/w(b*) numerically equals d_c.
        let (tree, main, fork) = figure3();
        let reference = tree.header(&main[0]).unwrap().work();
        for hash in main.iter().chain(&fork) {
            for delta in 1..=6u64 {
                assert_eq!(
                    tree.is_difficulty_stable(hash, delta, reference),
                    tree.is_confirmation_stable(hash, delta),
                    "delta {delta}"
                );
            }
        }
    }

    #[test]
    fn difficulty_stability_is_exact_at_mainnet_scale_work() {
        // A candidate tip whose work is ~2^78 against a 4-block sibling
        // chain it beats by exactly δ·w(b*): stable per Definition II.1.
        // Rounding both depths to f64 (53-bit mantissas) puts the margin
        // just below δ, so only an exact comparison gets this right.
        let bits = CompactTarget::from_consensus;
        let mut anchor = root();
        anchor.bits = bits(0x1a0f_ffff);
        let mut tree = HeaderTree::new(anchor);
        let mut candidate = child_of(&anchor, 1);
        candidate.bits = bits(0x1703_4219);
        tree.insert(candidate).unwrap();
        let mut parent = anchor;
        let sibling_bits = [0x1703_421a, 0x190a_c898, 0x1c0d_1dbd, 0x1f04_a954];
        for (i, raw) in sibling_bits.into_iter().enumerate() {
            let mut sibling = child_of(&parent, 10 + i as u32);
            sibling.bits = bits(raw);
            tree.insert(sibling).unwrap();
            parent = sibling;
        }
        let delta = 6;
        let reference = anchor.work();
        let sibling = tree.at_height(1).iter().find(|h| **h != candidate.block_hash()).unwrap();
        assert_eq!(
            tree.depth_work(&candidate.block_hash()).unwrap(),
            tree.depth_work(sibling).unwrap() + reference * delta
        );
        assert!(tree.is_difficulty_stable(&candidate.block_hash(), delta, reference));
        assert!(!tree.is_difficulty_stable(&candidate.block_hash(), delta + 1, reference));
    }

    #[test]
    fn difficulty_stability_weights_by_work() {
        // A single high-work block outweighs several low-work blocks.
        let g = root();
        let mut tree = HeaderTree::new(g);
        let mut weak = child_of(&g, 1);
        weak.bits = CompactTarget::from_consensus(0x207fffff); // minimal work
        let mut strong = child_of(&g, 2);
        strong.bits = CompactTarget::from_consensus(0x1f00ffff); // ~256x more work
        tree.insert(weak).unwrap();
        tree.insert(strong).unwrap();
        // Extend the weak branch by 3 blocks; the strong branch stays 1.
        let mut parent = weak;
        for i in 0..3 {
            let mut next = child_of(&parent, 10 + i);
            next.bits = CompactTarget::from_consensus(0x207fffff);
            tree.insert(next).unwrap();
            parent = next;
        }
        // Confirmation count prefers the longer weak branch...
        assert!(
            tree.depth_count(&weak.block_hash()).unwrap()
                > tree.depth_count(&strong.block_hash()).unwrap()
        );
        // ...but work-weighted depth prefers the strong block.
        assert!(
            tree.depth_work(&strong.block_hash()).unwrap()
                > tree.depth_work(&weak.block_hash()).unwrap()
        );
        let best = tree.best_chain();
        assert_eq!(best[1], strong.block_hash());
    }

    #[test]
    fn best_chain_follows_work() {
        let (tree, main, _) = figure3();
        let best = tree.best_chain();
        assert_eq!(best.len(), 6);
        assert_eq!(best[5], main[4]);
    }

    #[test]
    fn reroot_prunes_losing_forks() {
        let (mut tree, main, fork) = figure3();
        assert_eq!(tree.len(), 8);
        let removed = tree.reroot(main[1]);
        assert_eq!(tree.root(), main[1]);
        assert_eq!(tree.root_height(), 2);
        // Removed: genesis, a1, b2, b3.
        assert_eq!(removed.len(), 4);
        assert!(!tree.contains(&fork[0]));
        assert!(!tree.contains(&fork[1]));
        assert!(tree.contains(&main[4]));
        assert_eq!(tree.len(), 4);
        // Stability queries still work on the re-rooted tree.
        assert_eq!(tree.confirmation_stability(&main[1]), Some(4));
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
        assert_eq!(tree.at_height(1000).len(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_delta_panics() {
        let tree = HeaderTree::new(root());
        let _ = tree.is_confirmation_stable(&tree.root(), 0);
    }

    mod properties {
        use super::*;
        use icbtc_sim::testkit;

        /// Builds a random tree by attaching each new header to a random
        /// existing node.
        fn random_tree(choices: &[u8]) -> (HeaderTree, Vec<BlockHash>) {
            let g = root();
            let mut tree = HeaderTree::new(g);
            let mut hashes = vec![g.block_hash()];
            for (i, &choice) in choices.iter().enumerate() {
                let parent_hash = hashes[choice as usize % hashes.len()];
                let parent = tree.header(&parent_hash).unwrap();
                let header = child_of(&parent, 1000 + i as u32);
                tree.insert(header).unwrap();
                hashes.push(header.block_hash());
            }
            (tree, hashes)
        }

        /// At most one block per height is δ-stable, for every δ ≥ 1.
        #[test]
        fn unique_stable_block_per_height() {
            testkit::check(0x57_0001, testkit::DEFAULT_CASES, |rng| {
                let choices = testkit::bytes(rng, 1..40);
                let (tree, _) = random_tree(&choices);
                for height in 0..=tree.max_height() {
                    for delta in 1..4u64 {
                        let stable: Vec<_> = tree
                            .at_height(height)
                            .iter()
                            .filter(|h| tree.is_confirmation_stable(h, delta))
                            .collect();
                        assert!(stable.len() <= 1);
                    }
                }
            });
        }

        /// Stability never exceeds depth, and equals depth when the
        /// block has no same-height competitor.
        #[test]
        fn stability_bounded_by_depth() {
            testkit::check(0x57_0002, testkit::DEFAULT_CASES, |rng| {
                let choices = testkit::bytes(rng, 1..40);
                let (tree, hashes) = random_tree(&choices);
                for hash in &hashes {
                    let depth = tree.depth_count(hash).unwrap() as i64;
                    let stability = tree.confirmation_stability(hash).unwrap();
                    assert!(stability <= depth);
                    let height = tree.height(hash).unwrap();
                    if tree.at_height(height).len() == 1 {
                        assert_eq!(stability, depth);
                    }
                }
            });
        }

        /// The best chain is connected, starts at the root, and ends
        /// at a tip.
        #[test]
        fn best_chain_well_formed() {
            testkit::check(0x57_0003, testkit::DEFAULT_CASES, |rng| {
                let choices = testkit::bytes(rng, 1..40);
                let (tree, _) = random_tree(&choices);
                let chain = tree.best_chain();
                assert_eq!(chain[0], tree.root());
                for pair in chain.windows(2) {
                    let child_header = tree.header(&pair[1]).unwrap();
                    assert_eq!(child_header.prev_blockhash, pair[0]);
                }
                assert!(tree.children(chain.last().unwrap()).is_empty());
            });
        }
    }
}
