//! Property-style invariants of Algorithms 1 and 2 driven through the
//! full stack, plus the manual-upgrade path the paper prescribes for
//! reorganizations deeper than the anchor (§III-C).

use icbtc::adapter::BitcoinAdapter;
use icbtc::btcnet::network::{BtcNetwork, NetworkConfig};
use icbtc::btcnet::NodeId;
use icbtc::canister::{BitcoinCanisterState, UtxoSet};
use icbtc::core::{IntegrationParams, MAX_NEXT_HEADERS};
use icbtc::ic::Meter;
use icbtc_bitcoin::{txids, BlockHash, Network};
use icbtc_sim::{SimDuration, SimRng, SimTime};

const NOW: u32 = 2_100_000_000;

/// Runs many randomized request/response exchanges and checks, on every
/// single step, the structural invariants both algorithms promise.
#[test]
fn randomized_exchanges_preserve_invariants() {
    for seed in 0..6u64 {
        let mut rng = SimRng::seed_from(seed);
        let mut net = BtcNetwork::new(NetworkConfig::regtest(3), seed);
        net.run_until(SimTime::from_secs(5 * 3600));
        let params = IntegrationParams::for_network(Network::Regtest)
            .with_stability_delta(4)
            .with_connections(2);
        let mut adapter = BitcoinAdapter::new(params, seed);
        let mut state = BitcoinCanisterState::new(params);
        let mut last_anchor = state.anchor_height();

        for _ in 0..120 {
            // Occasionally let the network mine & gossip more.
            if rng.chance(0.3) {
                net.run_until(net.now() + SimDuration::from_secs(300));
            }
            adapter.step(&mut net);
            net.run_until(net.now() + SimDuration::from_secs(2));

            let request = state.make_request();
            // Invariant (request): processed ⊆ unstable region, never the
            // anchor itself.
            assert!(!request.processed.contains(&request.anchor.block_hash()));

            let response = adapter.handle_request(&mut net, &request);

            // Invariant (Algorithm 1): every returned block connects to
            // the anchor, the processed set, or an earlier response block.
            let mut connected: std::collections::HashSet<BlockHash> =
                request.processed.iter().copied().collect();
            connected.insert(request.anchor.block_hash());
            for block in &response.blocks {
                assert!(
                    connected.contains(&block.header.prev_blockhash),
                    "seed {seed}: disconnected block in response"
                );
                connected.insert(block.block_hash());
            }
            // Invariant: no block already processed is re-sent.
            for block in &response.blocks {
                assert!(!request.processed.contains(&block.block_hash()));
            }
            // Invariant: the next-headers cap holds.
            assert!(response.next.len() <= MAX_NEXT_HEADERS);

            state.process_response(response, NOW, &mut Meter::new());

            // Invariant (Algorithm 2): the anchor never regresses, and
            // the tree root is always the anchor.
            assert!(state.anchor_height() >= last_anchor, "anchor regressed");
            last_anchor = state.anchor_height();
            assert_eq!(state.tree().root(), state.anchor().block_hash());
            // Invariant: at most one stable header per height, chained.
            // (Checked implicitly by header_at_height linkage.)
            if state.anchor_height() > 0 {
                let below = state.header_at_height(state.anchor_height() - 1).unwrap();
                assert_eq!(state.anchor().prev_blockhash, below.block_hash());
            }
            // Invariant: unstable block bodies exist only for tree nodes.
            assert!(state.unstable_block_count() < state.tree().len().max(1));
        }
        // The canister must have made real progress.
        assert!(state.best_tip().1 > 0, "seed {seed}: no progress");
    }
}

/// §III-C: "a reorganization at a lower height would require a manual
/// canister upgrade as the UTXO set would need to be updated." Simulate
/// exactly that recovery via `install_snapshot`.
#[test]
fn deep_reorg_recovery_via_canister_upgrade() {
    let mut net = BtcNetwork::new(NetworkConfig::regtest(3), 9);
    net.run_until(SimTime::from_secs(6 * 3600));
    let params = IntegrationParams::for_network(Network::Regtest)
        .with_stability_delta(2) // aggressive δ: reorgs past the anchor possible
        .with_connections(2);
    let mut adapter = BitcoinAdapter::new(params, 9);
    let mut state = BitcoinCanisterState::new(params);
    for _ in 0..200 {
        adapter.step(&mut net);
        net.run_until(net.now() + SimDuration::from_secs(2));
        let request = state.make_request();
        let response = adapter.handle_request(&mut net, &request);
        let done = response.is_empty();
        state.process_response(response, NOW, &mut Meter::new());
        if done && state.best_tip().1 == net.best_height() {
            break;
        }
    }
    let anchor_before = state.anchor_height();
    assert!(anchor_before > 4, "need a stabilized prefix");

    // A catastrophic fork below the anchor out-works the whole chain.
    let view = net.node(NodeId(0)).chain().clone();
    let branch = view.best_chain_hash_at(anchor_before - 3).unwrap();
    let mut fork = icbtc::btcnet::adversary::SecretForkMiner::branch_at(&view, branch).unwrap();
    let needed = (view.tip_height() - (anchor_before - 3) + 3) as usize;
    for block in fork.extend(needed, 42) {
        net.submit_block(NodeId(0), block);
    }
    assert_eq!(net.node(NodeId(0)).chain().tip_hash(), fork.tip(), "fork must win");

    // The live canister cannot follow: the fork branches below its
    // anchor, so Algorithm 1's BFS from the anchor never reaches the new
    // chain — the canister is stuck on the orphaned branch.
    let stuck_tip = state.best_tip();
    for _ in 0..30 {
        adapter.step(&mut net);
        net.run_until(net.now() + SimDuration::from_secs(2));
        let request = state.make_request();
        let response = adapter.handle_request(&mut net, &request);
        state.process_response(response, NOW, &mut Meter::new());
    }
    assert_eq!(state.best_tip(), stuck_tip, "live canister must be stuck");
    let authoritative_now = net.node(NodeId(0)).chain().clone();
    assert_ne!(
        authoritative_now.best_chain_hash_at(stuck_tip.1),
        Some(stuck_tip.0),
        "the canister's tip is no longer on the authoritative chain"
    );

    // Manual upgrade: rebuild the UTXO set from the (new) authoritative
    // chain and reinstall. In production this is the canister-upgrade
    // path with state recomputed off-chain.
    let authoritative = net.node(NodeId(0)).chain().clone();
    let mut utxos = UtxoSet::new(Network::Regtest);
    let mut headers = Vec::new();
    for (height, hash) in authoritative.best_chain().iter().enumerate() {
        let block = authoritative.block(hash).expect("full node holds bodies");
        let block_txids = txids(&block.txdata);
        utxos
            .try_ingest_block(&block.txdata, &block_txids, height as u64, &mut Meter::new())
            .expect("stable ingest");
        headers.push(block.header);
    }
    state.install_snapshot(utxos, headers);
    assert_eq!(state.anchor_height(), authoritative.tip_height());
    // The new anchor is the authoritative tip (the Poisson process may
    // have extended the fork chain since we mined it).
    assert_eq!(
        Some(state.anchor().block_hash()),
        authoritative.best_chain_hash_at(authoritative.tip_height())
    );

    // After the upgrade the canister tracks the new chain normally.
    net.run_until(net.now() + SimDuration::from_secs(600)); // let Poisson mine
    for _ in 0..200 {
        adapter.step(&mut net);
        net.run_until(net.now() + SimDuration::from_secs(2));
        let request = state.make_request();
        let response = adapter.handle_request(&mut net, &request);
        let done = response.is_empty();
        state.process_response(response, NOW, &mut Meter::new());
        if done && state.best_tip().1 >= net.best_height() {
            break;
        }
    }
    assert_eq!(state.best_tip().1, net.best_height(), "post-upgrade tracking");
}
