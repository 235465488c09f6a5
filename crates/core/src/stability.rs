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
//!
//! Both are decided by one pass over the [`HeaderTree`] that btcnet's
//! chain store and the canister share, and both ask the same question:
//! how far up the current chain, from the root's child, the blocks are
//! δ-stable.

use std::ops::{Add, Sub};

use icbtc_bitcoin::{HeaderTree, StoredHeader, Work};

/// How many blocks of the current chain, counted up from the root's
/// child, are confirmation-based δ-stable (`d_c`: one per block) before
/// the first one that is not.
///
/// # Panics
///
/// Panics if `delta` is 0.
pub fn confirmation_stable_prefix(tree: &HeaderTree, delta: u64) -> usize {
    assert!(delta > 0, "delta-stability requires delta > 0");
    stable_prefix(tree, delta, |node| node.height)
}

/// How many blocks of the current chain, counted up from the root's
/// child, are difficulty-based δ-stable with respect to a reference
/// block of work `reference_work` (§II-C, `d_w`: each block's work, and
/// the margin `δ·w(b*)`) before the first one that is not. Decided in
/// exact integer work.
///
/// # Panics
///
/// Panics if `delta` is 0.
pub fn difficulty_stable_prefix(tree: &HeaderTree, delta: u64, reference_work: Work) -> usize {
    assert!(delta > 0, "delta-stability requires delta > 0");
    stable_prefix(tree, reference_work * delta, |node| node.chain_work)
}

/// Definition II.1 under a depth `d(b)` that sums a per-header weight
/// along the heaviest path from `b` to a tip. `total` reads that weight
/// already summed from the root (`height` for one per block, `chain_work`
/// for each block's work), so `d(b)` is the greatest `total` under `b`
/// less that of `b`'s parent. Returns the length of the current chain's
/// prefix above the root whose blocks each have `d(b) ≥ margin` and
/// `d(b) ≥ d(b′) + margin` for every other `b′` at their height. One
/// pass, without recursion: the tree is listed breadth first, so walking
/// that list backwards reaches every header after its children, and
/// each height keeps the deepest header off the current chain.
fn stable_prefix<D>(tree: &HeaderTree, margin: D, total: impl Fn(&StoredHeader) -> D) -> usize
where
    D: Copy + Default + Ord + Add<Output = D> + Sub<Output = D>,
{
    let chain = tree.best_chain();
    let base = tree.root_height();
    let Some(root) = tree.get(&tree.root()) else { return 0 };
    // Each header with the position of its parent in `order`.
    let mut order = vec![(tree.root(), root, 0)];
    let mut next = 0;
    while let Some(&(hash, _, _)) = order.get(next) {
        let children = tree.children(&hash).iter();
        order.extend(children.filter_map(|child| Some((*child, tree.get(child)?, next))));
        next += 1;
    }
    // reach[i]: the greatest total under order[i], itself included.
    let mut reach: Vec<D> = order.iter().map(|(_, node, _)| total(node)).collect();
    // own[i]: d of chain[i]; rival[i]: the greatest d at height base + i
    // off the chain, or zero.
    let mut own = vec![D::default(); chain.len()];
    let mut rival = vec![D::default(); chain.len()];
    for (i, (hash, node, parent)) in order.iter().enumerate().skip(1).rev() {
        reach[*parent] = reach[*parent].max(reach[i]);
        let d = reach[i] - total(order[*parent].1);
        let index = (node.height - base) as usize;
        match chain.get(index) {
            Some(on_chain) if on_chain == hash => own[index] = d,
            Some(_) => rival[index] = rival[index].max(d),
            None => {}
        }
    }
    own.iter().zip(&rival).skip(1).take_while(|(own, rival)| **own >= **rival + margin).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use icbtc_bitcoin::pow::CompactTarget;
    use icbtc_bitcoin::{BlockHash, BlockHeader, MerkleRoot, Network};
    use std::collections::BTreeMap;

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

    /// Each header's `d_c` and `d_w`.
    type Depths = BTreeMap<BlockHash, (u64, Work)>;

    /// Reference depths by brute force: for every root-to-tip path, the
    /// count and the work from each block on it to the tip; each block
    /// keeps its maximum over the paths through it.
    fn brute_force_depths(tree: &HeaderTree) -> Depths {
        let mut depths = Depths::new();
        for tip in tree.insertion_order().iter().filter(|h| tree.children(h).is_empty()) {
            let (mut count, mut work) = (0, Work::ZERO);
            let mut cursor = Some(*tip);
            while let Some(hash) = cursor {
                let header = tree.header(&hash).unwrap();
                count += 1;
                work += header.work();
                let best = depths.entry(hash).or_insert((0, Work::ZERO));
                *best = (best.0.max(count), best.1.max(work));
                cursor = (hash != tree.root()).then_some(header.prev_blockhash);
            }
        }
        depths
    }

    fn d_c(depths: (u64, Work)) -> u64 {
        depths.0
    }

    fn d_w(depths: (u64, Work)) -> Work {
        depths.1
    }

    /// The brute-force depths of the blocks other than `hash` at its
    /// height.
    fn rivals<'a>(
        tree: &'a HeaderTree,
        depths: &'a Depths,
        hash: &'a BlockHash,
    ) -> impl Iterator<Item = (u64, Work)> + 'a {
        let height = tree.height(hash);
        depths
            .iter()
            .filter(move |(other, _)| *other != hash && tree.height(other) == height)
            .map(|(_, depth)| *depth)
    }

    /// Definition II.1 read literally for one block: `d(b) ≥ margin` and
    /// `d(b) ≥ d(b′) + margin` for every other `b′` at its height, with
    /// `d` picked by `depth` from the brute-force pair.
    fn stable_by_definition<D: Copy + Ord + Add<Output = D>>(
        tree: &HeaderTree,
        depths: &Depths,
        hash: &BlockHash,
        margin: D,
        depth: fn((u64, Work)) -> D,
    ) -> bool {
        let own = depth(depths[hash]);
        own >= margin && rivals(tree, depths, hash).all(|other| own >= depth(other) + margin)
    }

    /// The prefix of the current chain above the root that a
    /// block-by-block loop of [`stable_by_definition`] accepts.
    fn prefix_by_definition<D: Copy + Ord + Add<Output = D>>(
        tree: &HeaderTree,
        margin: D,
        depth: fn((u64, Work)) -> D,
    ) -> usize {
        let depths = brute_force_depths(tree);
        tree.best_chain()[1..]
            .iter()
            .take_while(|hash| stable_by_definition(tree, &depths, hash, margin, depth))
            .count()
    }

    /// Confirmation-based stability of a block by brute force: the
    /// largest δ for which Definition II.1 holds under `d_c`, negative
    /// for blocks on losing forks (as in the paper's Figure 3).
    fn confirmation_stability(tree: &HeaderTree, hash: &BlockHash) -> i64 {
        let depths = brute_force_depths(tree);
        let own = depths[hash].0 as i64;
        rivals(tree, &depths, hash).map(|other| own - other.0 as i64).fold(own, i64::min)
    }

    /// Builds the paper's Figure 3 shape: a main chain with a losing
    /// fork from its first block.
    ///
    /// ```text
    /// g - a1 - a2 - a3 - a4 - a5
    ///       \- b2 - b3
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
        let a1 = tree.header(&main[0]).unwrap();
        let b2 = child_of(&a1, 200);
        let b3 = child_of(&b2, 201);
        tree.insert(b2).unwrap();
        tree.insert(b3).unwrap();
        (tree, main, vec![b2.block_hash(), b3.block_hash()])
    }

    #[test]
    fn linear_chain_is_as_stable_as_it_is_deep() {
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
        // Depths 5, 4, 3, 2, 1 from root to tip, and without competitors
        // stability equals depth.
        let depths = brute_force_depths(&tree);
        for (i, hash) in hashes.iter().enumerate() {
            assert_eq!(d_c(depths[hash]), 5 - i as u64);
            assert_eq!(confirmation_stability(&tree, hash), 5 - i as i64);
        }
        // So the blocks above the root are δ-stable up to the one of
        // depth δ, under either depth.
        for delta in 1..=6u64 {
            let expected = 5usize.saturating_sub(delta as usize);
            assert_eq!(confirmation_stable_prefix(&tree, delta), expected, "delta {delta}");
            assert_eq!(difficulty_stable_prefix(&tree, delta, g.work()), expected);
        }
    }

    #[test]
    fn figure3_stability_values() {
        let (tree, main, fork) = figure3();
        let stability = |hash| confirmation_stability(&tree, hash);
        // Main chain blocks compete with the fork at heights 2 and 3.
        // a1 has no competitor: stability = depth = 5.
        assert_eq!(stability(&main[0]), 5);
        // a2: depth 4, fork b2 depth 2 ⇒ min(4, 4-2) = 2.
        assert_eq!(stability(&main[1]), 2);
        // a3: depth 3, fork b3 depth 1 ⇒ min(3, 3-1) = 2.
        assert_eq!(stability(&main[2]), 2);
        // a4, a5 unopposed: stability = depth.
        assert_eq!(stability(&main[3]), 2);
        assert_eq!(stability(&main[4]), 1);
        // Fork blocks have negative stability (they lose).
        assert_eq!(stability(&fork[0]), 2 - 4);
        assert_eq!(stability(&fork[1]), 1 - 3);
        // The prefix stops at the first main block below δ: a1 alone
        // for δ = 3..=5 (a2 is only 2-stable), none from δ = 6.
        let prefixes: Vec<usize> = (1..=6).map(|c| confirmation_stable_prefix(&tree, c)).collect();
        assert_eq!(prefixes, [5, 4, 1, 1, 1, 0]);
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
        for i in 0..5 {
            let a_next = child_of(&a_parent, 10 + i);
            let b_next = child_of(&b_parent, 20 + i);
            tree.insert(a_next).unwrap();
            tree.insert(b_next).unwrap();
            a_parent = a_next;
            b_parent = b_next;
            assert_eq!(
                confirmation_stability(&tree, &a1.block_hash()),
                0,
                "competing equal forks pin stability at 0"
            );
            assert_eq!(confirmation_stable_prefix(&tree, 1), 0);
            assert_eq!(difficulty_stable_prefix(&tree, 1, g.work()), 0);
            // Depth keeps growing though.
            assert_eq!(d_c(brute_force_depths(&tree)[&a1.block_hash()]), i as u64 + 2);
        }
    }

    #[test]
    fn only_one_delta_stable_block_per_height() {
        let (tree, main, fork) = figure3();
        let depths = brute_force_depths(&tree);
        let stable = |hash, delta| stable_by_definition(&tree, &depths, hash, delta, d_c);
        // At height 2 (a2 vs b2) only a2 can be δ-stable for δ=1..3.
        for delta in 1..=3u64 {
            assert!(!(stable(&main[1], delta) && stable(&fork[0], delta)), "two at one height");
        }
        assert!(stable(&main[1], 2));
        assert!(!stable(&main[1], 3));
        assert!(confirmation_stable_prefix(&tree, 2) >= 2);
        assert_eq!(confirmation_stable_prefix(&tree, 3), 1);
    }

    #[test]
    fn delta_monotonicity() {
        // δ-stable implies δ′-stable for δ′ ≤ δ, so a prefix never grows
        // with δ, under either depth.
        let (tree, main, _) = figure3();
        let depths = brute_force_depths(&tree);
        let w = root().work();
        for delta in 2..=7u64 {
            assert!(
                confirmation_stable_prefix(&tree, delta)
                    <= confirmation_stable_prefix(&tree, delta - 1)
            );
            assert!(
                difficulty_stable_prefix(&tree, delta, w)
                    <= difficulty_stable_prefix(&tree, delta - 1, w)
            );
            for hash in &main {
                if stable_by_definition(&tree, &depths, hash, delta, d_c) {
                    assert!(stable_by_definition(&tree, &depths, hash, delta - 1, d_c));
                }
            }
        }
    }

    #[test]
    fn difficulty_stability_equal_bits_matches_confirmations() {
        // With uniform difficulty, d_w/w(b*) numerically equals d_c.
        let (tree, main, fork) = figure3();
        let depths = brute_force_depths(&tree);
        let reference = tree.header(&main[0]).unwrap().work();
        for delta in 1..=6u64 {
            assert_eq!(
                difficulty_stable_prefix(&tree, delta, reference),
                confirmation_stable_prefix(&tree, delta),
                "delta {delta}"
            );
            for hash in main.iter().chain(&fork) {
                assert_eq!(
                    stable_by_definition(&tree, &depths, hash, reference * delta, d_w),
                    stable_by_definition(&tree, &depths, hash, delta, d_c),
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
        let sibling = tree.children(&tree.root())[1];
        let depths = brute_force_depths(&tree);
        assert_eq!(d_w(depths[&candidate.block_hash()]), d_w(depths[&sibling]) + reference * delta);
        assert_eq!(tree.best_chain()[1], candidate.block_hash());
        assert_eq!(difficulty_stable_prefix(&tree, delta, reference), 1);
        assert_eq!(difficulty_stable_prefix(&tree, delta + 1, reference), 0);
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
        let depths = brute_force_depths(&tree);
        let (weak_depth, strong_depth) = (depths[&weak.block_hash()], depths[&strong.block_hash()]);
        // Confirmation count prefers the longer weak branch...
        assert!(d_c(weak_depth) > d_c(strong_depth));
        // ...but work-weighted depth prefers the strong block.
        assert!(d_w(strong_depth) > d_w(weak_depth));
        assert_eq!(tree.best_chain()[1], strong.block_hash());
        // So the strong block is difficulty-stable and not
        // confirmation-stable.
        assert_eq!(confirmation_stable_prefix(&tree, 1), 0);
        assert_eq!(difficulty_stable_prefix(&tree, 1, g.work()), 1);
    }

    #[test]
    fn best_chain_follows_work() {
        let (tree, main, _) = figure3();
        let best = tree.best_chain();
        assert_eq!(best.len(), 6);
        assert_eq!(best[5], main[4]);
    }

    #[test]
    fn advance_root_prunes_losing_forks() {
        let (mut tree, main, fork) = figure3();
        assert_eq!(tree.len(), 8);
        let mut removed = tree.advance_root();
        removed.extend(tree.advance_root());
        assert_eq!(tree.root(), main[1]);
        assert_eq!(tree.root_height(), 2);
        // Removed: genesis, a1, b2, b3.
        assert_eq!(removed.len(), 4);
        assert!(!tree.contains(&fork[0]));
        assert!(!tree.contains(&fork[1]));
        assert!(tree.contains(&main[4]));
        assert_eq!(tree.len(), 4);
        // Stability still holds on the re-rooted tree: a2 is unopposed,
        // and so are the three blocks above it.
        assert_eq!(confirmation_stability(&tree, &main[1]), 4);
        assert_eq!(confirmation_stable_prefix(&tree, 1), 3);
        assert_eq!(confirmation_stable_prefix(&tree, 2), 2);
    }

    #[test]
    fn deep_linear_tree_needs_no_recursion() {
        // Deeper than any recursive depth walk survives on a 2 MiB test
        // thread: honest catch-up can grow the unstable tree this far.
        const DEPTH: u64 = 30_000;
        let g = root();
        let mut tree = HeaderTree::new(g);
        let mut parent = g;
        for i in 0..DEPTH {
            let h = child_of(&parent, i as u32);
            tree.insert(h).unwrap();
            parent = h;
        }
        let w = g.work();
        let best = tree.best_chain();
        assert_eq!(best.len() as u64, DEPTH + 1);
        assert_eq!(*best.last().unwrap(), parent.block_hash());
        assert_eq!(difficulty_stable_prefix(&tree, DEPTH, w), 1);
        assert_eq!(difficulty_stable_prefix(&tree, DEPTH + 1, w), 0);
        assert_eq!(confirmation_stable_prefix(&tree, 1) as u64, DEPTH);
    }

    #[test]
    #[should_panic]
    fn zero_delta_panics() {
        let tree = HeaderTree::new(root());
        let _ = confirmation_stable_prefix(&tree, 0);
    }

    #[test]
    #[should_panic]
    fn zero_delta_panics_under_work() {
        let tree = HeaderTree::new(root());
        let _ = difficulty_stable_prefix(&tree, 0, root().work());
    }

    mod properties {
        use super::*;
        use icbtc_sim::testkit;

        /// Per-block works 1, 2 and 4 (in units of the weakest).
        const BITS: [u32; 3] = [0x207f_ffff, 0x203f_ffff, 0x201f_ffff];

        /// Inserts a child of `parent` with work `BITS[work]`.
        fn insert_child(
            tree: &mut HeaderTree,
            parent: &BlockHash,
            salt: u32,
            work: usize,
        ) -> BlockHash {
            let mut header = child_of(&tree.header(parent).unwrap(), salt);
            header.bits = CompactTarget::from_consensus(BITS[work]);
            tree.insert(header).unwrap();
            header.block_hash()
        }

        /// Builds a random tree by attaching each new header to a random
        /// existing node, with one of three per-block works so that
        /// equal-work branches with different shapes occur. Returns the
        /// hashes in insertion order.
        fn random_tree(choices: &[u8]) -> (HeaderTree, Vec<BlockHash>) {
            let mut tree = HeaderTree::new(root());
            let mut hashes = vec![tree.root()];
            for (i, &choice) in choices.iter().enumerate() {
                let parent = hashes[choice as usize % hashes.len()];
                let work = choice as usize / 86;
                hashes.push(insert_child(&mut tree, &parent, 1000 + i as u32, work));
            }
            (tree, hashes)
        }

        /// The stored chain equals a parent walk from the tip to the root,
        /// `best_at` agrees with it at every height (and is `None` just
        /// outside it), and its tip is the first-inserted header of
        /// maximal path work.
        fn assert_stored_chain(tree: &HeaderTree) {
            let mut walked: Vec<BlockHash> =
                tree.ancestors(&tree.tip_hash()).map(|h| h.block_hash()).collect();
            walked.reverse();
            assert_eq!(tree.best_chain(), walked.as_slice());
            let base = tree.root_height();
            for (i, hash) in walked.iter().enumerate() {
                assert_eq!(tree.best_at(base + i as u64), Some(*hash));
            }
            assert_eq!(tree.best_at(base + walked.len() as u64), None);
            assert_eq!(base.checked_sub(1).and_then(|h| tree.best_at(h)), None);
            let path_work =
                |hash: &BlockHash| -> Work { tree.ancestors(hash).map(|h| h.work()).sum() };
            let order = tree.insertion_order();
            let most = order.iter().map(path_work).max().unwrap();
            assert_eq!(order.iter().find(|h| path_work(h) == most), Some(&tree.tip_hash()));
        }

        /// The stored chain matches a parent walk after every insert and
        /// every root advance: random attachments with mixed works (so
        /// equal-work ties and reorgs occur), then a heavier branch grown
        /// late from an old header until it takes the tip.
        #[test]
        fn stored_chain_matches_a_parent_walk_at_every_step() {
            testkit::check(0x57_0004, testkit::DEFAULT_CASES, |rng| {
                let choices = testkit::bytes(rng, 1..60);
                let mut tree = HeaderTree::new(root());
                let mut hashes = vec![tree.root()];
                for (i, &choice) in choices.iter().enumerate() {
                    if choice % 7 == 0 && tree.best_chain().len() > 1 {
                        let removed = tree.advance_root();
                        hashes.retain(|hash| !removed.contains(hash));
                        assert_eq!(hashes.len(), tree.len());
                    } else {
                        let parent = hashes[choice as usize % hashes.len()];
                        let work = choice as usize / 86;
                        hashes.push(insert_child(&mut tree, &parent, 1000 + i as u32, work));
                    }
                    assert_stored_chain(&tree);
                }
                let mut parent = hashes[testkit::usize_in(rng, 0..hashes.len())];
                for salt in 5000.. {
                    parent = insert_child(&mut tree, &parent, salt, 2);
                    assert_stored_chain(&tree);
                    if tree.tip_hash() == parent {
                        break;
                    }
                }
                while tree.best_chain().len() > 1 {
                    tree.advance_root();
                    assert_stored_chain(&tree);
                }
                assert_eq!(tree.len(), 1);
            });
        }

        /// The confirmation-based prefix equals a block-by-block loop of
        /// Definition II.1 over brute-force `d_c`, for every c in 1..=δ,
        /// on random trees with forks and equal-work ties, before and
        /// after root advances.
        #[test]
        fn stable_prefix_matches_the_per_block_loop() {
            testkit::check(0x57_0005, testkit::DEFAULT_CASES, |rng| {
                let choices = testkit::bytes(rng, 1..60);
                let (mut tree, _) = random_tree(&choices);
                let delta = testkit::u64_in(rng, 1..8);
                loop {
                    for c in 1..=delta {
                        let looped = prefix_by_definition(&tree, c, d_c);
                        assert_eq!(confirmation_stable_prefix(&tree, c), looped, "c {c}");
                    }
                    if tree.best_chain().len() == 1 || testkit::u64_in(rng, 0..3) == 0 {
                        break;
                    }
                    tree.advance_root();
                }
            });
        }

        /// The difficulty-based prefix equals a block-by-block loop of
        /// Definition II.1 over brute-force `d_w`, for reference works of
        /// 1, 2 and 4 units and every δ in 1..8, on random trees mixing
        /// those per-block works, before and after root advances.
        #[test]
        fn difficulty_stable_prefix_matches_the_per_block_loop() {
            let references = BITS.map(|bits| CompactTarget::from_consensus(bits).work());
            testkit::check(0x57_0006, testkit::DEFAULT_CASES, |rng| {
                let choices = testkit::bytes(rng, 1..60);
                let (mut tree, _) = random_tree(&choices);
                loop {
                    for delta in 1..8u64 {
                        for reference in references {
                            let looped = prefix_by_definition(&tree, reference * delta, d_w);
                            let prefix = difficulty_stable_prefix(&tree, delta, reference);
                            assert_eq!(prefix, looped, "delta {delta}, reference {reference}");
                        }
                    }
                    if tree.best_chain().len() == 1 || testkit::u64_in(rng, 0..3) == 0 {
                        break;
                    }
                    tree.advance_root();
                }
            });
        }

        /// At most one block per height is δ-stable, for every δ ≥ 1, and
        /// where the prefix reaches a height, that block is the current
        /// chain's.
        #[test]
        fn unique_stable_block_per_height() {
            testkit::check(0x57_0001, testkit::DEFAULT_CASES, |rng| {
                let choices = testkit::bytes(rng, 1..40);
                let (tree, hashes) = random_tree(&choices);
                let depths = brute_force_depths(&tree);
                for delta in 1..4u64 {
                    let mut stable_heights = BTreeMap::new();
                    for hash in &hashes {
                        if stable_by_definition(&tree, &depths, hash, delta, d_c) {
                            let height = tree.height(hash).unwrap();
                            assert_eq!(stable_heights.insert(height, *hash), None);
                        }
                    }
                    let prefix = confirmation_stable_prefix(&tree, delta);
                    for (i, hash) in tree.best_chain().iter().enumerate().skip(1).take(prefix) {
                        assert_eq!(stable_heights.get(&(i as u64)), Some(hash));
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
                let depths = brute_force_depths(&tree);
                for hash in &hashes {
                    let depth = d_c(depths[hash]) as i64;
                    let stability = confirmation_stability(&tree, hash);
                    assert!(stability <= depth);
                    if rivals(&tree, &depths, hash).next().is_none() {
                        assert_eq!(stability, depth);
                    }
                }
            });
        }
    }
}
