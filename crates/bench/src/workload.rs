//! The Figure-7 query workload: 1000 addresses with the paper's
//! published UTXO-count skew, loaded into a Bitcoin-canister state with
//! both stable and unstable UTXOs.

use icbtc::bitcoin::pow::median_time_past;
use icbtc::bitcoin::{
    merkle_root, txids, Address, AddressKind, Amount, Block, BlockHeader, Network, OutPoint,
    Script, Transaction, TxIn, TxOut, Txid,
};
use icbtc::canister::{BitcoinCanisterState, UtxoSet};
use icbtc::core::{GetSuccessorsResponse, IntegrationParams};
use icbtc::ic::Meter;
use icbtc::sim::SimRng;

/// The paper's address-population buckets: (count, min UTXOs, max UTXOs).
/// "517 having fewer than 50 UTXOs, 159 addresses returning sets of
/// 50-199 UTXOs, 113 addresses returning 200-999 UTXOs, and 211
/// addresses having 1000 or more" — the ≥1000 tail is log-spread up to
/// ≈ 10.5k, the size implied by Figure 7's 4.76·10⁸-instruction maximum.
pub const PAPER_BUCKETS: [(usize, usize, usize); 4] =
    [(517, 1, 49), (159, 50, 199), (113, 200, 999), (211, 1000, 10_500)];

/// Seals `txdata` into a regtest block on `prev`: its Merkle root, a
/// timestamp 600 s past the median time past of `recent_times` (which
/// then records it), the genesis bits, and the first nonce from zero
/// that meets them.
pub fn seal_regtest_block(
    prev: &BlockHeader,
    recent_times: &mut Vec<u32>,
    txdata: Vec<Transaction>,
) -> Block {
    let mut header = BlockHeader {
        version: 2,
        prev_blockhash: prev.block_hash(),
        merkle_root: merkle_root(&txids(&txdata)),
        time: median_time_past(recent_times) + 600,
        bits: Network::Regtest.genesis_block().header.bits,
        nonce: 0,
    };
    while !header.meets_pow_target() {
        header.nonce += 1;
    }
    recent_times.push(header.time);
    Block { header, txdata }
}

/// A loaded Figure-7 workload.
pub struct QueryWorkload {
    /// The canister state holding the UTXOs.
    pub state: BitcoinCanisterState,
    /// Addresses whose UTXOs live in the *stable* set, with their counts.
    pub stable_addresses: Vec<(Address, usize)>,
    /// Addresses whose UTXOs live in *unstable* blocks, with their counts.
    pub unstable_addresses: Vec<(Address, usize)>,
}

fn address(tag: u64, stable: bool) -> Address {
    let mut hash = [0u8; 20];
    hash[..8].copy_from_slice(&tag.to_le_bytes());
    hash[9] = if stable { 1 } else { 2 };
    Address::new(Network::Regtest, AddressKind::P2wpkh(hash))
}

fn source_outpoint(height: u64, index: u64) -> OutPoint {
    let mut txid = [0u8; 32];
    txid[..8].copy_from_slice(&height.to_le_bytes());
    txid[8..16].copy_from_slice(&index.to_le_bytes());
    txid[31] = 0xcc;
    OutPoint::new(Txid(txid), 0)
}

/// Loads a stable population into a fresh canister state through
/// [`BitcoinCanisterState::install_snapshot`]: address `i` (its stable
/// [`address`]) receives `counts[i]` outputs, dealt round-robin over
/// heights `1..=heights` in 1000-output transactions, under a synthetic
/// header chain of that length. Returns the state and the chain.
fn install_stable_population(
    params: IntegrationParams,
    counts: &[u32],
    heights: u64,
) -> (BitcoinCanisterState, Vec<BlockHeader>) {
    let genesis = Network::Regtest.genesis_block().header;
    let mut utxos = UtxoSet::new(Network::Regtest);
    let mut meter = Meter::new();
    utxos.try_ingest_block(&[], &[], 0, &mut meter).expect("empty genesis");

    let mut per_height: Vec<Vec<TxOut>> = vec![Vec::new(); heights as usize];
    for (i, &count) in counts.iter().enumerate() {
        let script = address(i as u64, true).script_pubkey();
        for k in 0..count as usize {
            let height_slot = (i + k * 7) % heights as usize;
            let output = TxOut::new(Amount::from_sat(600 + k as u64), script.clone());
            per_height[height_slot].push(output);
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

    // Matching stable header chain (linkage + timestamps only; proof of
    // work is required of *new* blocks, not installed history).
    let mut stable_headers = vec![genesis];
    for height in 1..=heights {
        let prev = *stable_headers.last().expect("non-empty");
        stable_headers.push(BlockHeader {
            version: 2,
            prev_blockhash: prev.block_hash(),
            merkle_root: icbtc::bitcoin::MerkleRoot([height as u8; 32]),
            time: genesis.time + height as u32 * 600,
            bits: genesis.bits,
            nonce: 0,
        });
    }
    let mut state = BitcoinCanisterState::new(params);
    state.install_snapshot(utxos, stable_headers.clone());
    (state, stable_headers)
}

/// Builds the workload: the stable share of each address's UTXOs is
/// loaded through [`BitcoinCanisterState::install_snapshot`], then a run
/// of real (mined, validated) unstable blocks carries the rest.
///
/// `scale` divides every UTXO count (1 = the paper's full workload).
pub fn build_query_workload(seed: u64, scale: usize) -> QueryWorkload {
    let mut rng = SimRng::seed_from(seed);
    let counts = soak_utxo_counts(&mut rng, 1000, scale);

    // δ large enough that the unstable suffix never stabilizes under the
    // blocks we feed.
    let params = IntegrationParams::for_network(Network::Regtest).with_stability_delta(40);

    // --- Stable part: 900 of the 1000 addresses. ------------------------
    let stable_counts = &counts[..900];
    let (mut state, stable_headers) = install_stable_population(params, stable_counts, 120);
    let stable_addresses = (stable_counts.iter().enumerate())
        .map(|(i, &count)| (address(i as u64, true), count as usize))
        .collect();

    // --- Unstable part: the remaining 100 addresses. --------------------
    let unstable_counts = &counts[900..];
    let mut unstable_addresses = Vec::with_capacity(unstable_counts.len());
    const UNSTABLE_BLOCKS: usize = 10;
    let mut per_block: Vec<Vec<TxOut>> = vec![Vec::new(); UNSTABLE_BLOCKS];
    for (i, &count) in unstable_counts.iter().enumerate() {
        let addr = address(i as u64, false);
        // Unstable blocks are bounded; cap the per-address count so the
        // blocks stay mineable quickly.
        let count = (count as usize).min(400);
        unstable_addresses.push((addr, count));
        for k in 0..count {
            per_block[(i + k) % UNSTABLE_BLOCKS]
                .push(TxOut::new(Amount::from_sat(700 + k as u64), addr.script_pubkey()));
        }
    }

    let mut prev = *stable_headers.last().expect("non-empty");
    let mut recent_times: Vec<u32> = stable_headers.iter().map(|h| h.time).collect();
    let mut blocks = Vec::with_capacity(UNSTABLE_BLOCKS);
    for (i, outputs) in per_block.into_iter().enumerate() {
        let coinbase = icbtc::bitcoin::builder::coinbase_transaction(
            state.anchor_height() + 1 + i as u64,
            Amount::from_btc_int(3),
            Script::new_op_return(b"workload"),
            i as u64,
        );
        let mut txdata = vec![coinbase];
        for (j, chunk) in outputs.chunks(1000).enumerate() {
            txdata.push(Transaction {
                version: 2,
                inputs: vec![TxIn::new(source_outpoint(10_000 + i as u64, j as u64))],
                outputs: chunk.to_vec(),
                lock_time: 0,
            });
        }
        let block = seal_regtest_block(&prev, &mut recent_times, txdata);
        prev = block.header;
        blocks.push(block);
    }
    let now_unix = recent_times.last().unwrap() + 60;
    let report = state.process_response(
        GetSuccessorsResponse { blocks, next: Vec::new() },
        now_unix,
        &mut Meter::new(),
    );
    assert_eq!(report.blocks_accepted, UNSTABLE_BLOCKS, "rejected: {:?}", report.rejected);
    assert!(report.stabilized.is_empty(), "unstable blocks must stay unstable");

    QueryWorkload { state, stable_addresses, unstable_addresses }
}

/// A soak-scale query-plane workload: an arbitrary address population
/// following the paper's per-mille bucket proportions, plus a reserve of
/// pre-mined blocks the driver ingests mid-soak to move the tip.
pub struct SoakWorkload {
    /// The loaded canister state.
    pub state: BitcoinCanisterState,
    /// Every address with its stable UTXO count.
    pub addresses: Vec<(Address, u32)>,
    /// Pre-mined blocks extending the unstable tip, for deterministic
    /// mid-soak ingestion (each one invalidates the query cache).
    pub ingest_blocks: Vec<Block>,
}

/// Stable heights the soak UTXOs are spread over.
const SOAK_HEIGHTS: u64 = 240;
/// Unstable blocks present when the soak starts.
const SOAK_UNSTABLE_BLOCKS: usize = 4;
/// Hot addresses receiving unstable/ingested outputs.
const SOAK_HOT_PAYEES: usize = 128;

/// Draws per-address UTXO counts for a population of `num_addresses`:
/// every window of 1000 addresses carries exactly the paper's bucket mix
/// ([`PAPER_BUCKETS`]), log-uniform within each bucket, divided by
/// `utxo_scale` (so soak-scale populations stay memory-bounded while
/// keeping the skew's shape).
pub fn soak_utxo_counts(rng: &mut SimRng, num_addresses: usize, utxo_scale: usize) -> Vec<u32> {
    assert!(utxo_scale >= 1, "utxo_scale must be at least 1");
    let mut window = Vec::with_capacity(1000);
    for (how_many, lo, hi) in PAPER_BUCKETS {
        for _ in 0..how_many {
            window.push((lo, hi));
        }
    }
    let mut counts = Vec::with_capacity(num_addresses);
    for i in 0..num_addresses {
        let (lo, hi) = window[i % window.len()];
        let lo_f = lo as f64;
        let hi_f = hi as f64;
        let log_sample = lo_f.ln() + rng.unit() * (hi_f.ln() - lo_f.ln());
        let count = (log_sample.exp().round() as usize).clamp(lo, hi);
        counts.push((count / utxo_scale).max(1) as u32);
    }
    counts
}

/// Builds the soak workload: `num_addresses` addresses loaded into the
/// stable UTXO set (skew per [`soak_utxo_counts`]), a short unstable
/// suffix, and `num_ingest` further pre-mined blocks for the driver.
pub fn build_soak_workload(
    seed: u64,
    num_addresses: usize,
    utxo_scale: usize,
    num_ingest: usize,
) -> SoakWorkload {
    let mut rng = SimRng::seed_from(seed);
    let counts = soak_utxo_counts(&mut rng, num_addresses, utxo_scale);

    // δ comfortably above the unstable suffix plus every ingest block, so
    // nothing stabilizes mid-soak.
    let delta = (SOAK_UNSTABLE_BLOCKS + num_ingest + 20) as u64;
    let params = IntegrationParams::for_network(Network::Regtest).with_stability_delta(delta);
    let (mut state, stable_headers) = install_stable_population(params, &counts, SOAK_HEIGHTS);
    let addresses: Vec<(Address, u32)> = (counts.iter().enumerate())
        .map(|(i, &count)| (address(i as u64, true), count))
        .collect();

    // --- Unstable suffix + ingest reserve: mined PoW blocks paying the
    // hot prefix of the population. -------------------------------------
    let hot = addresses.len().min(SOAK_HOT_PAYEES);
    let mut prev = *stable_headers.last().expect("non-empty");
    let mut recent_times: Vec<u32> = stable_headers.iter().map(|h| h.time).collect();
    let mine = |index: u64, prev: &mut BlockHeader, recent_times: &mut Vec<u32>| -> Block {
        let coinbase = icbtc::bitcoin::builder::coinbase_transaction(
            SOAK_HEIGHTS + 1 + index,
            Amount::from_btc_int(3),
            Script::new_op_return(b"qps-soak"),
            index,
        );
        let outputs: Vec<TxOut> = (0..hot)
            .map(|i| {
                TxOut::new(
                    Amount::from_sat(900 + index),
                    addresses[(i + index as usize * 7) % hot.max(1)].0.script_pubkey(),
                )
            })
            .collect();
        let spend = Transaction {
            version: 2,
            inputs: vec![TxIn::new(source_outpoint(20_000 + index, 0))],
            outputs,
            lock_time: 0,
        };
        let block = seal_regtest_block(prev, recent_times, vec![coinbase, spend]);
        *prev = block.header;
        block
    };

    let unstable: Vec<Block> = (0..SOAK_UNSTABLE_BLOCKS as u64)
        .map(|i| mine(i, &mut prev, &mut recent_times))
        .collect();
    let ingest_blocks: Vec<Block> = (0..num_ingest as u64)
        .map(|i| mine(SOAK_UNSTABLE_BLOCKS as u64 + i, &mut prev, &mut recent_times))
        .collect();

    let now_unix = recent_times.last().expect("non-empty") + 60;
    let report = state.process_response(
        GetSuccessorsResponse { blocks: unstable, next: Vec::new() },
        now_unix,
        &mut Meter::new(),
    );
    assert_eq!(report.blocks_accepted, SOAK_UNSTABLE_BLOCKS, "rejected: {:?}", report.rejected);
    assert!(report.stabilized.is_empty(), "soak suffix must stay unstable");
    assert!(state.is_synced());

    SoakWorkload { state, addresses, ingest_blocks }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_counts_match_the_paper() {
        let mut rng = SimRng::seed_from(3);
        let counts = soak_utxo_counts(&mut rng, 1000, 1);
        assert_eq!(counts.len(), 1000);
        let below_50 = counts.iter().filter(|&&c| c < 50).count();
        let in_50_199 = counts.iter().filter(|&&c| (50..200).contains(&c)).count();
        let in_200_999 = counts.iter().filter(|&&c| (200..1000).contains(&c)).count();
        let at_least_1000 = counts.iter().filter(|&&c| c >= 1000).count();
        assert_eq!(below_50, 517);
        assert_eq!(in_50_199, 159);
        assert_eq!(in_200_999, 113);
        assert_eq!(at_least_1000, 211);
    }

    #[test]
    fn workload_state_serves_both_regions() {
        let workload = build_query_workload(1, 20);
        let state = &workload.state;
        assert!(state.is_synced());
        assert_eq!(state.unstable_block_count(), 10);

        // A stable address returns exactly its configured count.
        let (addr, count) = workload.stable_addresses[0];
        let mut meter = Meter::new();
        let response = state.get_utxos(&addr, None, &mut meter).unwrap();
        let total = response.utxos.len(); // first page only
        assert!(total == count.min(icbtc::canister::MAX_UTXOS_PER_PAGE), "stable addr: {total} vs {count}");
        assert!(response.utxos.iter().all(|u| u.height <= state.anchor_height()));

        // An unstable address's UTXOs sit above the anchor.
        let (addr, count) = workload.unstable_addresses[0];
        let response = state.get_utxos(&addr, None, &mut Meter::new()).unwrap();
        assert_eq!(response.utxos.len(), count.min(icbtc::canister::MAX_UTXOS_PER_PAGE));
        assert!(response.utxos.iter().all(|u| u.height > state.anchor_height()));
    }

    #[test]
    fn unstable_fetches_cost_less_per_utxo() {
        // The Figure-7 bifurcation, reproduced at workload scale.
        let workload = build_query_workload(2, 20);
        let per_utxo = |addr: &Address, n: usize| {
            let mut meter = Meter::new();
            let _ = workload.state.get_utxos(addr, None, &mut meter).unwrap();
            meter.instructions() as f64 / n.max(1) as f64
        };
        // Pick comparable counts from both regions.
        let (stable_addr, sn) = workload
            .stable_addresses
            .iter()
            .max_by_key(|(_, n)| *n)
            .cloned()
            .unwrap();
        let (unstable_addr, un) = workload
            .unstable_addresses
            .iter()
            .max_by_key(|(_, n)| *n)
            .cloned()
            .unwrap();
        assert!(
            per_utxo(&stable_addr, sn) > per_utxo(&unstable_addr, un),
            "stable fetches must be costlier per UTXO"
        );
    }
}
