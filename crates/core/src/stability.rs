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
//! Both depths are read off the one [`HeaderTree`] that btcnet's chain
//! store and the canister share; this module adds only the stability
//! conditions.

use std::collections::BTreeMap;

use icbtc_bitcoin::{BlockHash, HeaderTree, Work};

/// Confirmation-based stability of a block: the largest δ for which
/// Definition II.1 holds under `d_c`, which may be negative for blocks
/// on losing forks (as in the paper's Figure 3).
pub fn confirmation_stability(tree: &HeaderTree, hash: &BlockHash) -> Option<i64> {
    let height = tree.height(hash)?;
    let own_depth = tree.depth_count(hash)? as i64;
    let mut stability = own_depth; // condition (1): d(b) ≥ δ
    for other in tree.at_height(height) {
        if other == hash {
            continue;
        }
        let other_depth = tree.depth_count(other)? as i64;
        stability = stability.min(own_depth - other_depth); // condition (2)
    }
    Some(stability)
}

/// Whether `hash` is confirmation-based δ-stable.
pub fn is_confirmation_stable(tree: &HeaderTree, hash: &BlockHash, delta: u64) -> bool {
    assert!(delta > 0, "delta-stability requires delta > 0");
    confirmation_stability(tree, hash).is_some_and(|s| s >= delta as i64)
}

/// How many blocks of the current chain, counted up from the root's
/// child, are confirmation-based δ-stable before the first one that is
/// not: the prefix a block-by-block [`is_confirmation_stable`] loop
/// would accept, found in one pass over the tree instead of one subtree
/// walk per block. `d_c` of every header is computed children first
/// (reverse arrival order), and each height keeps the deepest header off
/// the current chain; a chain block is δ-stable when its own `d_c` is at
/// least δ above that rival (or at least δ without one).
pub fn confirmation_stable_prefix(tree: &HeaderTree, delta: u64) -> usize {
    assert!(delta > 0, "delta-stability requires delta > 0");
    let chain = tree.best_chain();
    let base = tree.root_height();
    let mut depth: BTreeMap<BlockHash, u64> = BTreeMap::new();
    // rival[i]: the greatest d_c at height base + i off the chain, or 0.
    let mut rival = vec![0u64; chain.len()];
    for hash in tree.insertion_order().iter().rev() {
        let below = tree.children(hash).iter().filter_map(|child| depth.get(child)).max();
        let own = 1 + below.copied().unwrap_or(0);
        depth.insert(*hash, own);
        let index = (tree.height(hash).unwrap_or(base) - base) as usize;
        if chain.get(index).is_some_and(|on_chain| on_chain != hash) {
            rival[index] = rival[index].max(own);
        }
    }
    chain
        .iter()
        .zip(&rival)
        .skip(1)
        .take_while(|(hash, rival)| depth.get(hash).is_some_and(|own| *own >= **rival + delta))
        .count()
}

/// Whether `hash` is difficulty-based δ-stable with respect to a
/// reference block of work `reference_work` (§II-C): with
/// `m = δ·w(b*)`, `d_w(b) ≥ m` and `d_w(b) ≥ d_w(b′) + m` for every
/// other `b′` at the same height. Decided in exact integer work.
pub fn is_difficulty_stable(
    tree: &HeaderTree,
    hash: &BlockHash,
    delta: u64,
    reference_work: Work,
) -> bool {
    assert!(delta > 0, "delta-stability requires delta > 0");
    let (Some(height), Some(own)) = (tree.height(hash), tree.depth_work(hash)) else {
        return false;
    };
    let margin = reference_work * delta;
    own >= margin
        && tree.at_height(height).filter(|other| *other != hash).all(|other| {
            tree.depth_work(other).is_some_and(|depth| own >= depth + margin)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use icbtc_bitcoin::pow::CompactTarget;
    use icbtc_bitcoin::{BlockHeader, MerkleRoot, Network};

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
            assert_eq!(confirmation_stability(&tree, hash), Some(5 - i as i64));
        }
    }

    #[test]
    fn figure3_stability_values() {
        let (tree, main, fork) = figure3();
        // Main chain blocks compete with the fork at heights 2 and 3.
        // a1 has no competitor: stability = depth = 5.
        assert_eq!(confirmation_stability(&tree, &main[0]), Some(5));
        // a2: depth 4, fork b2 depth 2 ⇒ min(4, 4-2) = 2.
        assert_eq!(confirmation_stability(&tree, &main[1]), Some(2));
        // a3: depth 3, fork b3 depth 1 ⇒ min(3, 3-1) = 2.
        assert_eq!(confirmation_stability(&tree, &main[2]), Some(2));
        // a4, a5 unopposed: stability = depth.
        assert_eq!(confirmation_stability(&tree, &main[3]), Some(2));
        assert_eq!(confirmation_stability(&tree, &main[4]), Some(1));
        // Fork blocks have negative stability (they lose).
        assert_eq!(confirmation_stability(&tree, &fork[0]), Some(2 - 4));
        assert_eq!(confirmation_stability(&tree, &fork[1]), Some(1 - 3));
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
        let mut last_stability = confirmation_stability(&tree, &a1.block_hash()).unwrap();
        for i in 0..5 {
            let a_next = child_of(&a_parent, 10 + i);
            let b_next = child_of(&b_parent, 20 + i);
            tree.insert(a_next).unwrap();
            tree.insert(b_next).unwrap();
            a_parent = a_next;
            b_parent = b_next;
            let stability = confirmation_stability(&tree, &a1.block_hash()).unwrap();
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
            let stable_a = is_confirmation_stable(&tree, &main[1], delta);
            let stable_b = is_confirmation_stable(&tree, &fork[0], delta);
            assert!(!(stable_a && stable_b), "two stable blocks at one height");
        }
        assert!(is_confirmation_stable(&tree, &main[1], 2));
        assert!(!is_confirmation_stable(&tree, &main[1], 3));
    }

    #[test]
    fn delta_monotonicity() {
        // δ-stable implies δ′-stable for δ′ ≤ δ.
        let (tree, main, _) = figure3();
        for hash in &main {
            for delta in 1..=6u64 {
                if is_confirmation_stable(&tree, hash, delta) {
                    for smaller in 1..delta {
                        assert!(is_confirmation_stable(&tree, hash, smaller));
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
                    is_difficulty_stable(&tree, hash, delta, reference),
                    is_confirmation_stable(&tree, hash, delta),
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
        let sibling = tree.at_height(1).find(|h| **h != candidate.block_hash()).unwrap();
        assert_eq!(
            tree.depth_work(&candidate.block_hash()).unwrap(),
            tree.depth_work(sibling).unwrap() + reference * delta
        );
        assert!(is_difficulty_stable(&tree, &candidate.block_hash(), delta, reference));
        assert!(!is_difficulty_stable(&tree, &candidate.block_hash(), delta + 1, reference));
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
        // Stability queries still work on the re-rooted tree.
        assert_eq!(confirmation_stability(&tree, &main[1]), Some(4));
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
        assert_eq!(tree.depth_count(&tree.root()), Some(DEPTH + 1));
        assert_eq!(tree.depth_work(&tree.root()), Some(w * (DEPTH + 1)));
        let best = tree.best_chain();
        assert_eq!(best.len() as u64, DEPTH + 1);
        assert_eq!(*best.last().unwrap(), parent.block_hash());
        assert!(is_difficulty_stable(&tree, &best[1], DEPTH, w));
        assert!(!is_difficulty_stable(&tree, &best[1], DEPTH + 1, w));
    }

    #[test]
    #[should_panic]
    fn zero_delta_panics() {
        let tree = HeaderTree::new(root());
        let _ = is_confirmation_stable(&tree, &tree.root(), 0);
    }

    mod properties {
        use super::*;
        use icbtc_sim::testkit;
        use std::collections::BTreeMap;

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

        /// Reference depths by brute force: for every root-to-tip path,
        /// the count and the work from each block on it to the tip; each
        /// block keeps its maximum over the paths through it.
        fn brute_force_depths(
            tree: &HeaderTree,
            hashes: &[BlockHash],
        ) -> BTreeMap<BlockHash, (u64, Work)> {
            let mut depths: BTreeMap<BlockHash, (u64, Work)> = BTreeMap::new();
            for tip in hashes.iter().filter(|h| tree.children(h).is_empty()) {
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

        /// The one-pass prefix equals the block-by-block loop it replaced
        /// in the canister's overlay, for every c in 1..=δ, on random
        /// trees with forks and equal-work ties, before and after root
        /// advances.
        #[test]
        fn stable_prefix_matches_the_per_block_loop() {
            testkit::check(0x57_0005, testkit::DEFAULT_CASES, |rng| {
                let choices = testkit::bytes(rng, 1..60);
                let (mut tree, _) = random_tree(&choices);
                let delta = testkit::u64_in(rng, 1..8);
                loop {
                    for c in 1..=delta {
                        let looped = tree.best_chain()[1..]
                            .iter()
                            .take_while(|hash| is_confirmation_stable(&tree, hash, c))
                            .count();
                        assert_eq!(confirmation_stable_prefix(&tree, c), looped, "c {c}");
                    }
                    if tree.best_chain().len() == 1 || testkit::u64_in(rng, 0..3) == 0 {
                        break;
                    }
                    tree.advance_root();
                }
            });
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
                            .filter(|h| is_confirmation_stable(&tree, h, delta))
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
                    let stability = confirmation_stability(&tree, hash).unwrap();
                    assert!(stability <= depth);
                    let height = tree.height(hash).unwrap();
                    if tree.at_height(height).count() == 1 {
                        assert_eq!(stability, depth);
                    }
                }
            });
        }

        /// Both depths equal the brute-force maximum over root-to-tip
        /// paths.
        #[test]
        fn depths_match_brute_force() {
            testkit::check(0x57_0003, testkit::DEFAULT_CASES, |rng| {
                let choices = testkit::bytes(rng, 1..40);
                let (tree, hashes) = random_tree(&choices);
                let depths = brute_force_depths(&tree, &hashes);
                for hash in &hashes {
                    assert_eq!(tree.depth_count(hash), Some(depths[hash].0));
                    assert_eq!(tree.depth_work(hash), Some(depths[hash].1));
                }
            });
        }
    }
}
