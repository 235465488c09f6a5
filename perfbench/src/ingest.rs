//! `ingest`: full mainnet-volume blocks from `ChainGen::default()`
//! (about 2,500 transactions each), delivered one per round through
//! `Subnet::execute_round` to `ingest_response`. With δ = 6 they fold into
//! the stable UTXO set, so the storage write path (inserts, removals, page
//! splits) and transaction hashing dominate, as in the paper's Fig. 5/6.
//! The chain is short and there are no queries: this is the write-side
//! counterpart of `query`.

use std::collections::HashSet;

use icbtc::bitcoin::builder::coinbase_transaction;
use icbtc::bitcoin::pow::median_time_past;
use icbtc::bitcoin::{
    merkle_root, Amount, Block, BlockHeader, Network, OutPoint, Script, Transaction, Txid,
};
use icbtc::canister::BitcoinCanister;
use icbtc::core::{GetSuccessorsResponse, IntegrationParams};
use icbtc::ic::consensus::ConsensusConfig;
use icbtc::ic::Subnet;
use icbtc_bench::chaingen::{ChainGen, ChainGenConfig};

use crate::canister::TracedCanister;
use crate::trace::{self, span};
use crate::{timed, Episode};

/// Blocks generated and ingested per episode.
pub const BLOCKS: usize = 60;

/// One UTXO-set effect of a generated transaction, in application order.
#[derive(Debug, Clone, Copy)]
pub enum Effect {
    /// An input spends this outpoint.
    Spend(OutPoint),
    /// An output creates this outpoint.
    Create(OutPoint),
}

/// A generated chain plus, per block, the UTXO-set effects the benchmark
/// keeps to count live outpoints independently of the canister.
pub struct Chain {
    /// The blocks, genesis excluded, oldest first.
    pub blocks: Vec<Block>,
    /// Per block, the effects of its transactions in order.
    pub effects: Vec<Vec<Effect>>,
}

fn push_effects(tx: &Transaction, txid: Txid, effects: &mut Vec<Effect>) {
    if !tx.is_coinbase() {
        effects.extend(
            tx.inputs
                .iter()
                .map(|input| Effect::Spend(input.previous_output)),
        );
    }
    for (vout, output) in tx.outputs.iter().enumerate() {
        // Provably unspendable outputs are never stored.
        if !output.script_pubkey.is_op_return() {
            effects.push(Effect::Create(OutPoint::new(txid, vout as u32)));
        }
    }
}

/// Generates `count` regtest blocks on top of genesis: the synthetic
/// mainnet-volume transactions of `ChainGen` plus a coinbase, a real
/// Merkle root, and regtest proof of work.
pub fn generate(seed: u64, count: usize) -> Chain {
    let genesis = Network::Regtest.genesis_block().header;
    let mut generator = ChainGen::new(ChainGenConfig::default(), seed);
    let payout = Script::new_p2wpkh(&[0x42; 20]);
    let mut prev = genesis;
    let mut times = vec![genesis.time];
    let mut chain = Chain {
        blocks: Vec::with_capacity(count),
        effects: Vec::with_capacity(count),
    };
    for height in 1..=count as u64 {
        let (transactions, _) = generator.next_block();
        let mut txdata = Vec::with_capacity(transactions.len() + 1);
        txdata.push(coinbase_transaction(
            height,
            Amount::from_btc_int(50),
            payout.clone(),
            seed,
        ));
        txdata.extend(transactions);
        let txids: Vec<Txid> = txdata.iter().map(Transaction::txid).collect();
        let mut effects = Vec::new();
        for (tx, txid) in txdata.iter().zip(&txids) {
            push_effects(tx, *txid, &mut effects);
        }
        let mut header = BlockHeader {
            version: 2,
            prev_blockhash: prev.block_hash(),
            merkle_root: merkle_root(&txids),
            time: median_time_past(&times) + 600,
            bits: genesis.bits,
            nonce: 0,
        };
        while !header.meets_pow_target() {
            header.nonce += 1;
        }
        times.push(header.time);
        prev = header;
        chain.blocks.push(Block { header, txdata });
        chain.effects.push(effects);
    }
    chain
}

/// Live outpoints after genesis and the first `stable` generated blocks
/// have been applied in order.
pub fn live_outpoints(effects: &[Vec<Effect>], stable: usize) -> usize {
    let mut genesis_effects = Vec::new();
    for tx in &Network::Regtest.genesis_block().txdata {
        push_effects(tx, tx.txid(), &mut genesis_effects);
    }
    let mut live: HashSet<OutPoint> = HashSet::new();
    for effect in genesis_effects
        .iter()
        .chain(effects[..stable].iter().flatten())
    {
        match effect {
            Effect::Spend(outpoint) => {
                live.remove(outpoint);
            }
            Effect::Create(outpoint) => {
                live.insert(*outpoint);
            }
        }
    }
    live.len()
}

/// One episode: generate the chain (set-up), ingest it one block per round
/// (measured), then check that nothing was rejected and that the UTXO
/// count matches the live outpoints of the stabilized blocks.
pub fn episode(seed: u64) -> Episode {
    let mut episode = Episode::default();
    trace::set_id(0);
    let (chain, gen_ns) = timed("bench.gen", || generate(seed, BLOCKS));
    let (mut subnet, load_ns) = timed("bench.load", || {
        let params = IntegrationParams::for_network(Network::Regtest);
        let canister = TracedCanister::new(BitcoinCanister::new(params));
        Subnet::new(canister, ConsensusConfig::thirteen_replicas(), seed)
    });
    episode.gen_ns = gen_ns;
    episode.load_ns = load_ns;

    let Chain { blocks, effects } = chain;
    let mut rejected = 0;
    for (round, block) in blocks.into_iter().enumerate() {
        trace::set_id(round as u64 + 1);
        let now_unix = block.header.time + 60;
        let response = GetSuccessorsResponse {
            blocks: vec![block],
            next: Vec::new(),
        };
        let (report, ns) = timed("bench.round", || {
            let mut ingest = None;
            let report = span("ic.round", || {
                subnet.execute_round(|canister, ctx| {
                    ingest = Some(span("canister.ingest", || {
                        canister.inner.ingest_response(response, now_unix, ctx)
                    }));
                })
            });
            (ingest.unwrap_or_default(), report.payload_instructions)
        });
        let (ingest, instructions) = report;
        episode.round_ns.push(ns);
        episode.blocks_accepted += ingest.blocks_accepted as u64;
        episode.ingest_instructions += instructions;
        episode.add("canister.blocks_stabilized", ingest.stabilized.len() as f64);
        episode.add("canister.ingest_rejected", ingest.rejected.len() as f64);
        rejected += ingest.rejected.len();
        episode.check(
            ingest.blocks_accepted == 1 && ingest.rejected.is_empty(),
            &format!("ingest: round {round} rejected {:?}", ingest.rejected),
        );
    }
    episode.add("canister.blocks_accepted", episode.blocks_accepted as f64);

    trace::set_id(0);
    trace::span("bench.check", || {
        let state = subnet.state().inner.state();
        let stable = state.anchor_height() as usize;
        let expected = live_outpoints(&effects, stable.min(effects.len()));
        let actual = state.utxos().len();
        episode.check(
            rejected == 0 && expected == actual,
            &format!("ingest: {actual} UTXOs, {expected} live outpoints expected"),
        );
    });
    episode.record_canister(&subnet.state().inner);
    episode
}
