//! Micro-benchmarks for the hot paths behind the paper's measurements:
//! hashing and PoW checks, secp256k1 and threshold signing, Merkle trees,
//! UTXO-set ingestion, canister queries, stability computation, and
//! Algorithm 1.
//!
//! The harness is std-only (`Instant`-based timing, no external crates)
//! so the workspace builds and benches fully offline:
//!
//! ```text
//! cargo bench -p icbtc-bench
//! ```

use std::time::{Duration, Instant};

use icbtc::bitcoin::hash::{sha256, sha256d};
use icbtc::bitcoin::{merkle_root, Network, Txid};
use icbtc::canister::{CanisterCall, UtxoSet};
use icbtc::core::stability::HeaderTree;
use icbtc::ic::Meter;
use icbtc::sim::SimRng;
use icbtc::tecdsa::ecdsa::PrivateKey;
use icbtc::tecdsa::protocol::{DerivationPath, ThresholdKey};
use icbtc::tecdsa::{AffinePoint, Scalar};
use icbtc_bench::chaingen::{ChainGen, ChainGenConfig};
use icbtc_bench::workload::build_query_workload;

/// Short measurement windows: several benched operations take hundreds
/// of µs to ms, and longer windows make the full suite needlessly slow
/// for CI-style runs.
const WARM_UP: Duration = Duration::from_millis(500);
const MEASUREMENT: Duration = Duration::from_secs(2);

fn format_duration(nanos: f64) -> String {
    if nanos < 1_000.0 {
        format!("{nanos:.2} ns")
    } else if nanos < 1_000_000.0 {
        format!("{:.2} µs", nanos / 1_000.0)
    } else if nanos < 1_000_000_000.0 {
        format!("{:.2} ms", nanos / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos / 1_000_000_000.0)
    }
}

/// Runs `routine` repeatedly: first for `WARM_UP`, then for `MEASUREMENT`
/// wall time, and prints mean/min/max per-iteration timings in the
/// criterion-style `name  time: [...]` shape.
fn bench_function<R>(name: &str, mut routine: impl FnMut() -> R) {
    bench_batched(name, || (), |()| routine());
}

/// Like [`bench_function`] but excludes per-iteration `setup` cost from
/// the timings, for routines that consume their input.
fn bench_batched<I, R>(name: &str, mut setup: impl FnMut() -> I, mut routine: impl FnMut(I) -> R) {
    // Warm-up: run untimed until the window elapses.
    let warm_start = Instant::now();
    while warm_start.elapsed() < WARM_UP {
        let input = setup();
        std::hint::black_box(routine(input));
    }

    let mut samples: Vec<f64> = Vec::new();
    let measure_start = Instant::now();
    while measure_start.elapsed() < MEASUREMENT {
        let input = setup();
        let t0 = Instant::now();
        std::hint::black_box(routine(input));
        samples.push(t0.elapsed().as_nanos() as f64);
    }

    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = samples.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "{name:<45} time: [{} {} {}]  ({} iterations)",
        format_duration(min),
        format_duration(mean),
        format_duration(max),
        samples.len(),
    );
}

fn bench_hashing() {
    let header = [0x5au8; 80];
    bench_function("sha256_80_bytes", || sha256(std::hint::black_box(&header)));
    bench_function("sha256d_80_bytes(block_hash)", || sha256d(std::hint::black_box(&header)));
    let txids: Vec<Txid> = (0..2500u32)
        .map(|i| {
            let mut bytes = [0u8; 32];
            bytes[..4].copy_from_slice(&i.to_le_bytes());
            Txid(bytes)
        })
        .collect();
    bench_function("merkle_root_2500_txids", || merkle_root(std::hint::black_box(&txids)));
}

fn bench_pow() {
    let genesis = Network::Regtest.genesis_block().header;
    bench_function("header_pow_check", || std::hint::black_box(&genesis).meets_pow_target());
}

fn bench_secp256k1() {
    let generator = AffinePoint::generator();
    let scalar = Scalar::from_u64(0xdead_beef_cafe);
    bench_function("secp256k1_scalar_mul", || {
        std::hint::black_box(&generator).mul(std::hint::black_box(scalar))
    });
    let key = PrivateKey::from_scalar(Scalar::from_u64(31337));
    let pubkey = key.public_key();
    let digest = [7u8; 32];
    bench_function("ecdsa_sign", || key.sign(std::hint::black_box(&digest)));
    let signature = key.sign(&digest);
    bench_function("ecdsa_verify", || pubkey.verify(std::hint::black_box(&digest), &signature));
}

fn bench_threshold() {
    let mut rng = SimRng::seed_from(1);
    let key = ThresholdKey::generate(13, 9, &mut rng);
    let path = DerivationPath::root();
    bench_batched(
        "threshold_ecdsa_13_of_9_full_round",
        || SimRng::seed_from(2),
        |mut session_rng| {
            let session = key.open_ecdsa(&path, [9u8; 32], &mut session_rng);
            let partials: Vec<_> = (1..=9).map(|i| session.partial_signature(i)).collect();
            session.combine(&partials).expect("honest quorum")
        },
    );
}

fn bench_utxoset_ingestion() {
    bench_batched(
        "utxoset_ingest_block_100tx",
        || {
            let mut generator = ChainGen::new(ChainGenConfig::default().scaled_down(25), 3);
            let mut set = UtxoSet::new(Network::Regtest);
            let mut height = 0;
            // Warm the set so removals hit real entries.
            for _ in 0..5 {
                let (txs, _) = generator.next_block();
                set.ingest_block(&txs, height, &mut Meter::new());
                height += 1;
            }
            let (txs, _) = generator.next_block();
            (set, txs, height)
        },
        |(mut set, txs, height)| {
            set.ingest_block(&txs, height, &mut Meter::new());
            set.len()
        },
    );
}

fn bench_canister_queries() {
    let workload = build_query_workload(5, 20);
    let canister = icbtc::canister::BitcoinCanister::from_state(workload.state);
    let (small_addr, _) = workload.stable_addresses[0];
    let (big_addr, _) =
        workload.stable_addresses.iter().max_by_key(|(_, n)| *n).cloned().unwrap();
    bench_function("get_balance_small_address", || {
        canister.query(
            &CanisterCall::GetBalance { address: small_addr, min_confirmations: 0 },
            &mut Meter::new(),
        )
    });
    bench_function("get_utxos_largest_address", || {
        canister.query(
            &CanisterCall::GetUtxos { address: big_addr, filter: None },
            &mut Meter::new(),
        )
    });
}

fn bench_stability() {
    // A 60-deep tree with a persistent 20-deep fork: the worst realistic
    // shape for stability queries near the anchor.
    let genesis = Network::Regtest.genesis_block().header;
    let mut tree = HeaderTree::new(genesis);
    let mut main_parent = genesis;
    for i in 0..60u32 {
        let header = icbtc::bitcoin::BlockHeader {
            version: 2,
            prev_blockhash: main_parent.block_hash(),
            merkle_root: icbtc::bitcoin::MerkleRoot([i as u8; 32]),
            time: main_parent.time + 600,
            bits: main_parent.bits,
            nonce: i,
        };
        tree.insert(header).unwrap();
        main_parent = header;
        if i == 30 {
            let mut fork_parent = header;
            for j in 0..20u32 {
                let fork = icbtc::bitcoin::BlockHeader {
                    version: 2,
                    prev_blockhash: fork_parent.block_hash(),
                    merkle_root: icbtc::bitcoin::MerkleRoot([128 + j as u8; 32]),
                    time: fork_parent.time + 600,
                    bits: fork_parent.bits,
                    nonce: 1000 + j,
                };
                tree.insert(fork).unwrap();
                fork_parent = fork;
            }
        }
    }
    let root = tree.root();
    let root_work = tree.header(&root).unwrap().work();
    let child = tree.children(&root)[0];
    bench_function("confirmation_stability_depth60_fork20", || {
        tree.confirmation_stability(std::hint::black_box(&child))
    });
    bench_function("is_difficulty_stable_depth60_fork20", || {
        tree.is_difficulty_stable(std::hint::black_box(&child), 6, root_work)
    });
    bench_function("best_chain_depth60_fork20", || tree.best_chain());
}

fn main() {
    // `cargo bench` passes harness flags like `--bench`; ignore them.
    bench_hashing();
    bench_pow();
    bench_secp256k1();
    bench_threshold();
    bench_utxoset_ingestion();
    bench_canister_queries();
    bench_stability();
}
