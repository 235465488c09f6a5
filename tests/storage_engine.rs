//! Differential and property tests of the paged UTXO storage engine.
//!
//! The previous `UtxoSet` was a pair of in-heap `BTreeMap`s. This suite
//! keeps that shape alive as an *oracle*: random mainnet-shaped chains —
//! including BIP30-style duplicate coinbases that recreate an existing
//! outpoint — are ingested into both the paged engine and the oracle,
//! and every observable query (`len`, `get`, `balance`, `utxos_of`,
//! `utxos_after` pagination) must agree at every block boundary. A
//! second property pins the upgrade path: two same-seed runs must
//! produce byte-identical snapshots and equal state hashes.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use icbtc::canister::{StorageConfig, StorageError, UtxoSet};
use icbtc::ic::Meter;
use icbtc_bitcoin::{
    txids, Address, AddressKind, Amount, Network, OutPoint, Transaction, TxIn, TxOut,
};
use icbtc_sim::{testkit, SimRng};

/// Number of distinct addresses in play: small enough that duplicate
/// coinbase transactions (identical txid, hence duplicate outpoints)
/// occur naturally within a run.
const ADDRESSES: u8 = 6;

fn addr(n: u8) -> Address {
    Address::new(Network::Regtest, AddressKind::P2wpkh([n; 20]))
}

/// The old in-heap implementation, reduced to its observable semantics:
/// one entry per live outpoint, addresses resolved from the script. The
/// address index is derived on demand, which bakes in the *correct*
/// duplicate-outpoint behaviour (the stale entry cannot survive, because
/// there is nothing to go stale).
#[derive(Default)]
struct Oracle {
    live: BTreeMap<([u8; 32], u32), (u64, u64, Address)>,
}

impl Oracle {
    fn ingest_block(&mut self, txs: &[Transaction], height: u64) {
        for tx in txs {
            for input in &tx.inputs {
                if input.previous_output != OutPoint::NULL {
                    let key = (input.previous_output.txid.to_bytes(), input.previous_output.vout);
                    self.live.remove(&key);
                }
            }
            let txid = tx.txid().to_bytes();
            for (vout, output) in tx.outputs.iter().enumerate() {
                if let Some(address) = Address::from_script(&output.script_pubkey, Network::Regtest)
                {
                    self.live
                        .insert((txid, vout as u32), (height, output.value.to_sat(), address));
                }
            }
        }
    }

    fn balance(&self, address: &Address) -> Amount {
        self.live
            .values()
            .filter(|(_, _, a)| a == address)
            .fold(Amount::ZERO, |acc, (_, sats, _)| {
                acc.saturating_add(Amount::from_sat(*sats))
            })
    }

    /// Live UTXOs of `address` in the engine's pagination order:
    /// height descending, then outpoint ascending.
    fn utxos_of(&self, address: &Address) -> Vec<(u64, OutPoint, u64)> {
        let mut utxos: Vec<(u64, OutPoint, u64)> = self
            .live
            .iter()
            .filter(|(_, (_, _, a))| a == address)
            .map(|((txid, vout), (height, sats, _))| {
                (*height, OutPoint::new(icbtc_bitcoin::Txid(*txid), *vout), *sats)
            })
            .collect();
        utxos.sort_by_key(|(height, outpoint, _)| {
            (Reverse(*height), outpoint.txid.to_bytes(), outpoint.vout)
        });
        utxos
    }
}

/// One random block: a coinbase paying 1–3 outputs (values drawn from a
/// tiny range so identical coinbases — and therefore duplicate outpoints
/// — recur), plus spends of up to a third of the currently live set.
fn random_block(rng: &mut SimRng, oracle: &Oracle) -> Vec<Transaction> {
    let coinbase_outputs = testkit::vec_with(rng, 1..4, |rng| {
        TxOut::new(
            Amount::from_sat(testkit::u64_in(rng, 1_000..1_008)),
            addr(rng.below(ADDRESSES as u64) as u8).script_pubkey(),
        )
    });
    let mut txs = vec![Transaction {
        version: 2,
        inputs: vec![TxIn::new(OutPoint::NULL)],
        outputs: coinbase_outputs,
        lock_time: 0,
    }];

    let mut spendable: Vec<OutPoint> = oracle
        .live
        .keys()
        .map(|(txid, vout)| OutPoint::new(icbtc_bitcoin::Txid(*txid), *vout))
        .collect();
    let spends = rng.below(1 + spendable.len() as u64 / 3) as usize;
    for _ in 0..spends {
        let victim = spendable.swap_remove(rng.index(spendable.len()));
        txs.push(Transaction {
            version: 2,
            inputs: vec![TxIn::new(victim)],
            outputs: testkit::vec_with(rng, 1..3, |rng| {
                TxOut::new(
                    Amount::from_sat(testkit::u64_in(rng, 1..500)),
                    addr(rng.below(ADDRESSES as u64) as u8).script_pubkey(),
                )
            }),
            lock_time: 0,
        });
    }
    txs
}

fn assert_engine_matches_oracle(set: &UtxoSet, oracle: &Oracle, context: &str) {
    assert_eq!(set.len(), oracle.live.len(), "{context}: len diverged");
    for n in 0..ADDRESSES {
        let address = addr(n);
        let expected = oracle.utxos_of(&address);

        assert_eq!(
            set.balance(&address, &mut Meter::new()),
            oracle.balance(&address),
            "{context}: balance({n}) diverged"
        );

        let got = set.utxos_of(&address, &mut Meter::new());
        assert_eq!(got.len(), expected.len(), "{context}: utxos_of({n}) length diverged");
        for (utxo, (height, outpoint, sats)) in got.iter().zip(&expected) {
            assert_eq!((utxo.height, utxo.outpoint), (*height, *outpoint), "{context}");
            assert_eq!(utxo.value, Amount::from_sat(*sats), "{context}");
            // Cross-check the primary map against the index walk.
            let stored = set.get(outpoint).expect("indexed UTXO missing from by_outpoint");
            assert_eq!(stored.height, *height, "{context}");
            assert_eq!(stored.value, Amount::from_sat(*sats), "{context}");
        }

        // Pagination: resuming from any cursor yields exactly the suffix.
        if !expected.is_empty() {
            let at = expected.len() / 2;
            let cursor = (expected[at].0, expected[at].1);
            let rest: Vec<(u64, OutPoint)> = set
                .utxos_after(&address, Some(cursor))
                .map(|u| (u.height, u.outpoint))
                .collect();
            let want: Vec<(u64, OutPoint)> =
                expected[at + 1..].iter().map(|(h, o, _)| (*h, *o)).collect();
            assert_eq!(rest, want, "{context}: pagination for address {n} diverged");
        }
    }
}

#[test]
fn engine_matches_the_in_heap_oracle_on_random_chains() {
    testkit::check(0x5704A6E, 24, |rng| {
        let mut set = UtxoSet::with_config(
            Network::Regtest,
            StorageConfig { page_size: 1024, byte_budget: 8 << 20 },
        );
        let mut oracle = Oracle::default();
        let mut meter = Meter::new();

        let blocks = testkit::u64_in(rng, 8..28);
        for height in 0..blocks {
            let txs = random_block(rng, &oracle);
            oracle.ingest_block(&txs, height);
            set.try_ingest_block(&txs, &txids(&txs), height, &mut meter)
                .expect("8 MiB budget must fit this workload");
            assert_engine_matches_oracle(&set, &oracle, &format!("height {height}"));
        }

        // The snapshot round-trip preserves every observable too.
        let restored = UtxoSet::deserialize(&set.serialize()).expect("snapshot must round-trip");
        assert_engine_matches_oracle(&restored, &oracle, "after deserialize");
        assert_eq!(restored.state_hash(), set.state_hash());
    });
}

#[test]
fn same_seed_runs_serialize_byte_identically() {
    for seed in [1u64, 7, 42] {
        let build = || {
            let mut rng = SimRng::seed_from(seed);
            let mut set = UtxoSet::with_config(
                Network::Regtest,
                StorageConfig { page_size: 2048, byte_budget: 8 << 20 },
            );
            let mut oracle = Oracle::default();
            for height in 0..20 {
                let txs = random_block(&mut rng, &oracle);
                oracle.ingest_block(&txs, height);
                set.try_ingest_block(&txs, &txids(&txs), height, &mut Meter::new())
                    .expect("budget");
            }
            set
        };
        let (a, b) = (build(), build());
        assert_eq!(a.serialize(), b.serialize(), "seed {seed}: snapshot bytes diverged");
        assert_eq!(a.state_hash(), b.state_hash(), "seed {seed}: state hash diverged");
    }
}

#[test]
fn budget_bounded_ingest_fails_loudly_and_deterministically() {
    let run = || {
        let mut set = UtxoSet::with_config(
            Network::Regtest,
            StorageConfig { page_size: 1024, byte_budget: 96 << 10 },
        );
        let mut rng = SimRng::seed_from(99);
        let mut oracle = Oracle::default();
        for height in 0..10_000 {
            let txs = random_block(&mut rng, &oracle);
            oracle.ingest_block(&txs, height);
            if let Err(error) =
                set.try_ingest_block(&txs, &txids(&txs), height, &mut Meter::new())
            {
                assert!(
                    matches!(error, StorageError::BudgetExhausted { .. }),
                    "expected BudgetExhausted, got {error}"
                );
                return (height, set.storage_stats().bytes_reserved);
            }
        }
        panic!("a 96 KiB budget must fill up within 10k blocks");
    };
    let (first, bytes) = run();
    assert!(first > 0, "at least one block must fit");
    assert!(bytes <= 96 << 10, "reservations must never exceed the budget");
    // The failure point is a pure function of the seed.
    assert_eq!(run(), (first, bytes));
}

#[test]
fn duplicate_txid_across_blocks_is_consistent_end_to_end() {
    // The BIP30 scenario at the integration level: the *identical*
    // coinbase transaction appears in two blocks, recreating its
    // outpoint. The engine must agree with the oracle afterwards (one
    // live UTXO at the later height, single-counted balance) and the
    // recreated output must still be cleanly spendable.
    let mut set = UtxoSet::new(Network::Regtest);
    let mut oracle = Oracle::default();
    let coinbase = Transaction {
        version: 2,
        inputs: vec![TxIn::new(OutPoint::NULL)],
        outputs: vec![TxOut::new(Amount::from_sat(50_000), addr(3).script_pubkey())],
        lock_time: 0,
    };
    for height in [0u64, 1] {
        oracle.ingest_block(std::slice::from_ref(&coinbase), height);
        let block = std::slice::from_ref(&coinbase);
        set.try_ingest_block(block, &[coinbase.txid()], height, &mut Meter::new()).expect("ingest");
    }
    assert_engine_matches_oracle(&set, &oracle, "after duplicate coinbase");
    assert_eq!(set.balance(&addr(3), &mut Meter::new()), Amount::from_sat(50_000));

    let spend = Transaction {
        version: 2,
        inputs: vec![TxIn::new(OutPoint::new(coinbase.txid(), 0))],
        outputs: vec![TxOut::new(Amount::from_sat(49_000), addr(4).script_pubkey())],
        lock_time: 0,
    };
    oracle.ingest_block(std::slice::from_ref(&spend), 2);
    set.try_ingest_block(std::slice::from_ref(&spend), &[spend.txid()], 2, &mut Meter::new())
        .expect("ingest");
    assert_engine_matches_oracle(&set, &oracle, "after spending the recreated outpoint");
    assert_eq!(set.balance(&addr(3), &mut Meter::new()), Amount::ZERO);
}
