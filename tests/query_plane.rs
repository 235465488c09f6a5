//! Query-plane invariants: O(page) cursor pagination, the tip-keyed
//! query cache, and batched query rounds.
//!
//! Three properties anchor the query plane:
//!
//! 1. **Pagination is lossless** — stitching pages of any size yields
//!    exactly the full scan, across random UTXO distributions spanning
//!    both the stable index and the unstable overlay.
//! 2. **The cache is invisible** — cache-on and cache-off replies are
//!    identical, and a response computed at a superseded tip is never
//!    served (ingestion invalidates wholesale; stale page tokens are
//!    rejected).
//! 3. **Batched query rounds are deterministic** — same seed, same
//!    results, same latencies.

use icbtc::bitcoin::pow::median_time_past;
use icbtc::bitcoin::{
    merkle_root, txids, Address, AddressKind, Amount, Block, BlockHeader, MerkleRoot, Network,
    OutPoint, Script, Transaction, TxIn, TxOut, Txid,
};
use icbtc::canister::{
    BitcoinCanister, BitcoinCanisterState, CanisterCall, CanisterReply, UtxoSet, UtxosFilter,
    MAX_UTXOS_PER_PAGE,
};
use icbtc::core::{GetSuccessorsResponse, IntegrationParams};
use icbtc::ic::consensus::ConsensusConfig;
use icbtc::ic::{Meter, QueryPlaneConfig, Subnet};
use icbtc::sim::SimRng;

fn addr(tag: u64) -> Address {
    let mut hash = [0u8; 20];
    hash[..8].copy_from_slice(&tag.to_le_bytes());
    Address::new(Network::Regtest, AddressKind::P2wpkh(hash))
}

fn source_outpoint(height: u64, index: u64) -> OutPoint {
    let mut txid = [0u8; 32];
    txid[..8].copy_from_slice(&height.to_le_bytes());
    txid[8..16].copy_from_slice(&index.to_le_bytes());
    txid[31] = 0xab;
    OutPoint::new(Txid(txid), 0)
}

/// Mines a valid PoW block paying `outputs` (besides the coinbase) on
/// top of `prev`.
fn mine_block(
    prev: &mut BlockHeader,
    recent_times: &mut Vec<u32>,
    height: u64,
    outputs: Vec<TxOut>,
    tag: u64,
) -> Block {
    let coinbase = icbtc::bitcoin::builder::coinbase_transaction(
        height,
        Amount::from_btc_int(3),
        Script::new_op_return(b"query-plane"),
        tag,
    );
    let mut txdata = vec![coinbase];
    if !outputs.is_empty() {
        txdata.push(Transaction {
            version: 2,
            inputs: vec![TxIn::new(source_outpoint(30_000 + height, tag))],
            outputs,
            lock_time: 0,
        });
    }
    let mtp = median_time_past(recent_times);
    let mut header = BlockHeader {
        version: 2,
        prev_blockhash: prev.block_hash(),
        merkle_root: merkle_root(&txids(&txdata)),
        time: mtp + 600,
        bits: Network::Regtest.genesis_block().header.bits,
        nonce: 0,
    };
    while !header.meets_pow_target() {
        header.nonce += 1;
    }
    recent_times.push(header.time);
    *prev = header;
    Block { header, txdata }
}

/// Builds a canister state with `num_addresses` addresses holding random
/// UTXO counts (up to `max_count`) spread over 30 stable heights, plus
/// two unstable blocks paying every address one extra UTXO each.
fn build_state(seed: u64, num_addresses: usize, max_count: u64) -> (BitcoinCanisterState, Vec<Address>) {
    let mut rng = SimRng::seed_from(seed);
    let params = IntegrationParams::for_network(Network::Regtest).with_stability_delta(10);
    let genesis = Network::Regtest.genesis_block().header;

    const HEIGHTS: u64 = 30;
    let mut utxos = UtxoSet::new(Network::Regtest);
    let mut meter = Meter::new();
    utxos.try_ingest_block(&[], &[], 0, &mut meter).expect("empty genesis");

    let mut addresses = Vec::with_capacity(num_addresses);
    let mut per_height: Vec<Vec<TxOut>> = vec![Vec::new(); HEIGHTS as usize];
    for i in 0..num_addresses {
        let address = addr(i as u64);
        addresses.push(address);
        let count = rng.below(max_count) + 1;
        for k in 0..count {
            per_height[((i as u64 + k * 3) % HEIGHTS) as usize]
                .push(TxOut::new(Amount::from_sat(500 + k), address.script_pubkey()));
        }
    }
    for (slot, outputs) in per_height.into_iter().enumerate() {
        let height = slot as u64 + 1;
        let txs: Vec<Transaction> = outputs
            .chunks(1000)
            .enumerate()
            .map(|(i, chunk)| Transaction {
                version: 2,
                inputs: vec![TxIn::new(source_outpoint(height, i as u64))],
                outputs: chunk.to_vec(),
                lock_time: 0,
            })
            .collect();
        utxos.try_ingest_block(&txs, &txids(&txs), height, &mut meter).expect("stable ingest");
    }

    let mut headers = vec![genesis];
    for height in 1..=HEIGHTS {
        let prev = *headers.last().unwrap();
        headers.push(BlockHeader {
            version: 2,
            prev_blockhash: prev.block_hash(),
            merkle_root: MerkleRoot([height as u8; 32]),
            time: genesis.time + height as u32 * 600,
            bits: genesis.bits,
            nonce: 0,
        });
    }
    let mut state = BitcoinCanisterState::new(params);
    state.install_snapshot(utxos, headers.clone());

    let mut prev = *headers.last().unwrap();
    let mut recent_times: Vec<u32> = headers.iter().map(|h| h.time).collect();
    let blocks: Vec<Block> = (0..2)
        .map(|i| {
            let outputs = addresses
                .iter()
                .map(|a| TxOut::new(Amount::from_sat(800 + i), a.script_pubkey()))
                .collect();
            mine_block(&mut prev, &mut recent_times, HEIGHTS + 1 + i, outputs, i)
        })
        .collect();
    let now_unix = recent_times.last().unwrap() + 60;
    let report = state.process_response(
        GetSuccessorsResponse { blocks, next: Vec::new() },
        now_unix,
        &mut Meter::new(),
    );
    assert_eq!(report.blocks_accepted, 2, "rejected: {:?}", report.rejected);
    assert!(state.is_synced());
    (state, addresses)
}

#[test]
fn stitched_pages_equal_the_full_scan_for_arbitrary_page_sizes() {
    for seed in [1, 2, 3] {
        let (state, addresses) = build_state(seed, 24, 200);
        let mut rng = SimRng::seed_from(seed.wrapping_add(77));
        for address in &addresses {
            let full = state
                .get_utxos_paged(address, None, MAX_UTXOS_PER_PAGE, &mut Meter::new())
                .expect("full scan");
            assert!(full.next_page.is_none(), "test sets must fit one max page");
            assert!(!full.utxos.is_empty());

            // Several page sizes per address, including rng-drawn ones.
            for page_size in [1, 3, 7, 64, 1000, rng.below(97) as usize + 1] {
                let mut stitched = Vec::new();
                let mut filter = None;
                loop {
                    let page = state
                        .get_utxos_paged(address, filter.take(), page_size, &mut Meter::new())
                        .expect("page");
                    assert!(page.utxos.len() <= page_size);
                    assert_eq!(page.tip_block_hash, full.tip_block_hash);
                    assert_eq!(page.tip_height, full.tip_height);
                    stitched.extend(page.utxos);
                    match page.next_page {
                        Some(token) => filter = Some(UtxosFilter::Page(token)),
                        None => break,
                    }
                }
                assert_eq!(
                    stitched, full.utxos,
                    "seed {seed}, page size {page_size}: stitching must be lossless"
                );
            }
        }
    }
}

#[test]
fn cached_and_uncached_replies_are_identical() {
    let (state, addresses) = build_state(9, 16, 120);
    let mut canister = BitcoinCanister::from_state(state);
    let mut calls: Vec<CanisterCall> = Vec::new();
    for address in &addresses {
        calls.push(CanisterCall::GetBalance { address: *address, min_confirmations: 0 });
        calls.push(CanisterCall::GetUtxos { address: *address, filter: None });
        calls.push(CanisterCall::GetBalance { address: *address, min_confirmations: 3 });
    }
    calls.push(CanisterCall::GetFeePercentiles);

    for call in &calls {
        let uncached = canister.query(call, &mut Meter::new());
        let fill = canister.query_cached(call, &mut Meter::new());
        let hit = canister.query_cached(call, &mut Meter::new());
        assert_eq!(fill.reply, uncached.reply, "cache fill must match the uncached reply");
        assert_eq!(hit.reply, uncached.reply, "cache hit must match the uncached reply");
    }
}

/// The tip header plus the recent timestamp window needed to mine a
/// valid successor (median-time-past check).
fn mining_context(state: &BitcoinCanisterState) -> (BlockHeader, Vec<u32>, u64) {
    let (_, tip_height) = state.best_tip();
    let recent_times: Vec<u32> = (tip_height.saturating_sub(12)..=tip_height)
        .filter_map(|h| state.header_at_height(h))
        .map(|h| h.time)
        .collect();
    let prev = state.header_at_height(tip_height).expect("tip header");
    (prev, recent_times, tip_height)
}

#[test]
fn the_cache_never_serves_a_superseded_tip() {
    let (state, addresses) = build_state(11, 4, 20);
    let mut canister = BitcoinCanister::from_state(state);
    let target = addresses[0];
    let call = CanisterCall::GetBalance { address: target, min_confirmations: 0 };

    // Warm the cache.
    let before = canister.query_cached(&call, &mut Meter::new());
    let before_again = canister.query_cached(&call, &mut Meter::new());
    assert_eq!(before.reply, before_again.reply);

    // Ingest a block paying the target address.
    let (mut prev, mut recent_times, tip_height) = mining_context(canister.state());
    let block = mine_block(
        &mut prev,
        &mut recent_times,
        tip_height + 1,
        vec![TxOut::new(Amount::from_sat(123_456), target.script_pubkey())],
        99,
    );
    let now_unix = recent_times.last().unwrap() + 60;
    let mut meter = Meter::new();
    let mut ctx = icbtc::ic::ExecutionContext {
        meter: &mut meter,
        now: icbtc::sim::SimTime::ZERO,
        round: 1,
    };
    let report = canister.ingest_response(
        GetSuccessorsResponse { blocks: vec![block], next: Vec::new() },
        now_unix,
        &mut ctx,
    );
    assert_eq!(report.blocks_accepted, 1, "rejected: {:?}", report.rejected);

    // The cached path must now reflect the new tip, not the old reply.
    let after = canister.query_cached(&call, &mut Meter::new());
    let reference = canister.query(&call, &mut Meter::new());
    assert_eq!(after.reply, reference.reply, "cache must track the tip");
    match (&before.reply, &after.reply) {
        (Ok(CanisterReply::Balance(old)), Ok(CanisterReply::Balance(new))) => {
            let expected = old.balance.checked_add(Amount::from_sat(123_456)).unwrap();
            assert_eq!(new.balance, expected, "new balance includes the ingested payment");
        }
        other => panic!("unexpected replies: {other:?}"),
    }

    // A page token minted at the old tip is rejected, not silently wrong.
    let first_page = canister.query(
        &CanisterCall::GetUtxos { address: target, filter: None },
        &mut Meter::new(),
    );
    let token = match first_page.reply {
        Ok(CanisterReply::Utxos(r)) => r.next_page,
        other => panic!("unexpected reply: {other:?}"),
    };
    // The set is small, so there is no continuation to replay — craft a
    // stale token instead by querying pre-ingest state separately below.
    assert!(token.is_none());
}

#[test]
fn stale_page_tokens_from_an_old_tip_are_rejected() {
    let (state, addresses) = build_state(13, 2, 60);
    let target = addresses[0];
    let mut canister = BitcoinCanister::from_state(state);

    // Mint a continuation token at the current tip.
    let page = canister
        .state()
        .get_utxos_paged(&target, None, 2, &mut Meter::new())
        .expect("first page");
    let token = page.next_page.expect("more than one page");

    // Advance the tip by one block.
    let (mut prev, mut recent_times, tip_height) = mining_context(canister.state());
    assert_eq!(tip_height, page.tip_height);
    let block = mine_block(&mut prev, &mut recent_times, tip_height + 1, Vec::new(), 7);
    let now_unix = recent_times.last().unwrap() + 60;
    let report = canister.state_mut().process_response(
        GetSuccessorsResponse { blocks: vec![block], next: Vec::new() },
        now_unix,
        &mut Meter::new(),
    );
    assert_eq!(report.blocks_accepted, 1, "rejected: {:?}", report.rejected);

    let outcome = canister.query(
        &CanisterCall::GetUtxos { address: target, filter: Some(UtxosFilter::Page(token)) },
        &mut Meter::new(),
    );
    assert_eq!(
        outcome.reply,
        Err(icbtc::canister::ApiError::MalformedPage),
        "a token minted at a superseded tip must be rejected"
    );
}

#[test]
fn batched_query_rounds_are_deterministic_at_the_facade() {
    let run = |seed: u64| {
        let (state, addresses) = build_state(17, 8, 40);
        let canister = BitcoinCanister::from_state(state);
        let mut subnet = Subnet::new(canister, ConsensusConfig::thirteen_replicas(), seed);
        subnet.set_query_plane(QueryPlaneConfig { max_per_round: 8, concurrency: 2 });
        let mut rng = SimRng::seed_from(seed.wrapping_add(5));
        for _ in 0..40 {
            let address = addresses[rng.index(addresses.len())];
            let call = if rng.chance(0.5) {
                CanisterCall::GetBalance { address, min_confirmations: 0 }
            } else {
                CanisterCall::GetUtxos { address, filter: None }
            };
            subnet.submit_query(call);
        }
        let mut out = Vec::new();
        let mut rounds = 0;
        while subnet.completed_queries() < 40 {
            let report = subnet.execute_round(|_, _| {});
            assert!(report.query_results.len() <= 8, "per-round bound violated");
            out.extend(report.query_results.into_iter().map(|r| {
                (r.id, r.instructions, r.responded_at, format!("{:?}", r.output.reply))
            }));
            rounds += 1;
            assert!(rounds < 1000, "query plane starved");
        }
        out
    };
    assert_eq!(run(23), run(23), "same-seed batched query rounds must be byte-identical");
}
