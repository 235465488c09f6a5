//! The tip-keyed query cache.
//!
//! The production Bitcoin canister serves most of its query traffic —
//! balance lookups, first `get_utxos` pages, fee percentiles — from a
//! small cache that is valid exactly as long as the chain tip does not
//! move. This module reproduces that design deterministically:
//!
//! * the cache holds the one **tip hash** its entries were computed at,
//!   and every lookup or insert names the current tip: a different tip
//!   clears every entry first, so a response outliving its tip can never
//!   be returned;
//! * the cache is **wholesale-invalidated** whenever the canister
//!   ingests an adapter response ([`crate::BitcoinCanister::ingest_response`]) —
//!   ingestion is the only operation that can change any query's answer;
//! * eviction is least-recently-used with a deterministic logical clock,
//!   so same-seed runs hit, miss and evict identically; a recency index
//!   ordered by that clock finds the victim in O(log n) instead of a scan
//!   over every entry on each miss at capacity.
//!
//! Only *first* pages are cached: continuation pages carry a cursor that
//! makes them effectively unique, and the production traffic skew puts
//! nearly all requests on page one.

use std::collections::BTreeMap;

use icbtc_bitcoin::{Address, BlockHash};

use crate::canister::{CanisterCall, CanisterReply};
use crate::UtxosFilter;

/// Default maximum number of cached responses.
pub const DEFAULT_QUERY_CACHE_CAPACITY: usize = 4_096;

/// A cacheable query, fully identifying the response at the cache's tip:
/// the call's own parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CacheKey {
    /// `get_balance(address, min_confirmations)`.
    Balance {
        /// The queried address.
        address: Address,
        /// The confirmation requirement.
        min_confirmations: u32,
    },
    /// The *first* `get_utxos` page for `(address, min_confirmations)`.
    /// Continuation pages are never cached.
    FirstPage {
        /// The queried address.
        address: Address,
        /// The confirmation requirement.
        min_confirmations: u32,
    },
    /// `get_current_fee_percentiles()`.
    FeePercentiles,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    reply: CanisterReply,
    /// Serialized reply size, computed once at insert so a hit charges a
    /// per-byte copy instead of re-serializing the response from scratch
    /// (the profiler-guided hot-path win — see `metering`).
    serialized_bytes: u64,
    last_used: u64,
}

/// A deterministic, capacity-bounded LRU cache of query replies.
///
/// Pure storage: hit/miss/eviction/invalidation accounting lives in the
/// owning [`crate::BitcoinCanister`]'s metrics registry, so the counters
/// ride the same obs snapshot as everything else.
#[derive(Debug, Clone)]
pub struct QueryCache {
    /// The tip every entry was computed at, once one was named.
    tip: Option<BlockHash>,
    entries: BTreeMap<CacheKey, CacheEntry>,
    /// Every entry's key under its `last_used` tick, oldest first. Each
    /// tick is handed out once, so the first key here is the LRU victim.
    recency: BTreeMap<u64, CacheKey>,
    capacity: usize,
    clock: u64,
}

impl Default for QueryCache {
    fn default() -> QueryCache {
        QueryCache::with_capacity(DEFAULT_QUERY_CACHE_CAPACITY)
    }
}

impl QueryCache {
    /// Creates a cache holding at most `capacity` responses. A capacity
    /// of 0 disables caching entirely (every lookup misses, inserts are
    /// dropped) — the cache-off baseline for A/B runs.
    pub fn with_capacity(capacity: usize) -> QueryCache {
        QueryCache {
            tip: None,
            entries: BTreeMap::new(),
            recency: BTreeMap::new(),
            capacity,
            clock: 0,
        }
    }

    /// The cache key for `call`, or `None` if the call is not cacheable
    /// (writes, continuation pages, metrics, headers).
    ///
    /// A `get_utxos` without filter is the same view as
    /// `MinConfirmations(0)`; both normalize to the same key.
    pub fn key_for(call: &CanisterCall) -> Option<CacheKey> {
        match call {
            CanisterCall::GetBalance { address, min_confirmations } => {
                Some(CacheKey::Balance { address: *address, min_confirmations: *min_confirmations })
            }
            CanisterCall::GetUtxos { address, filter } => match filter {
                None => Some(CacheKey::FirstPage { address: *address, min_confirmations: 0 }),
                Some(UtxosFilter::MinConfirmations(c)) => {
                    Some(CacheKey::FirstPage { address: *address, min_confirmations: *c })
                }
                Some(UtxosFilter::Page(_)) => None,
            },
            CanisterCall::GetFeePercentiles => Some(CacheKey::FeePercentiles),
            CanisterCall::SendTransaction { .. }
            | CanisterCall::GetBlockHeaders { .. }
            | CanisterCall::GetMetrics => None,
        }
    }

    /// Moves the cache to `tip`, dropping every entry computed at another.
    fn at_tip(&mut self, tip: BlockHash) {
        if self.tip != Some(tip) {
            self.tip = Some(tip);
            self.entries.clear();
            self.recency.clear();
        }
    }

    /// Looks up `key` at the current `tip`, refreshing its recency on a
    /// hit. A hit returns the cached reply together with its serialized
    /// byte size (recorded at insert), so the caller can charge a
    /// per-byte copy rather than a full re-serialization.
    // icbtc-lint: node-local -- cache contents depend on this replica's query history; replicated execution must never read them
    pub fn get(&mut self, tip: BlockHash, key: &CacheKey) -> Option<(CanisterReply, u64)> {
        self.at_tip(tip);
        self.clock += 1;
        let entry = self.entries.get_mut(key)?;
        if let Some(touched) = self.recency.remove(&entry.last_used) {
            self.recency.insert(self.clock, touched);
        }
        entry.last_used = self.clock;
        Some((entry.reply.clone(), entry.serialized_bytes))
    }

    /// Inserts a reply computed at `tip`, evicting the least-recently-used
    /// entry when over capacity. The reply's serialized size is computed
    /// once here — the miss path just produced and serialized the
    /// response anyway — and stored alongside it for the hit path's
    /// per-byte copy charge. Returns how many entries were evicted (0 or
    /// 1).
    pub fn insert(&mut self, tip: BlockHash, key: CacheKey, reply: CanisterReply) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        self.at_tip(tip);
        self.clock += 1;
        let serialized_bytes = reply.serialized_size();
        let entry = CacheEntry { reply, serialized_bytes, last_used: self.clock };
        if let Some(replaced) = self.entries.insert(key, entry) {
            self.recency.remove(&replaced.last_used);
        }
        self.recency.insert(self.clock, key);
        if self.entries.len() <= self.capacity {
            return 0;
        }
        // One over capacity: the new key holds the newest tick, so the
        // oldest is another entry.
        match self.recency.pop_first() {
            Some((_, victim)) => {
                self.entries.remove(&victim);
                1
            }
            None => 0,
        }
    }

    /// Drops every entry — called on ingest, when any cached answer may
    /// have changed. Returns how many entries were dropped.
    pub fn invalidate(&mut self) -> u64 {
        let dropped = self.entries.len() as u64;
        self.entries.clear();
        self.recency.clear();
        dropped
    }

    /// Cached responses currently held.
    // icbtc-lint: node-local -- per-replica cache occupancy; only observability may read it
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing is cached.
    // icbtc-lint: node-local -- per-replica cache occupancy; only observability may read it
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::GetBalanceResponse;
    use icbtc_bitcoin::{AddressKind, Amount, Network};
    use icbtc_sim::testkit;

    fn addr(n: u8) -> Address {
        Address::new(Network::Regtest, AddressKind::P2wpkh([n; 20]))
    }

    fn reply(sats: u64) -> CanisterReply {
        CanisterReply::Balance(GetBalanceResponse {
            balance: Amount::from_sat(sats),
            tip_height: 1,
        })
    }

    fn key(n: u8) -> CacheKey {
        CacheKey::Balance { address: addr(n), min_confirmations: 0 }
    }

    fn tip(n: u8) -> BlockHash {
        BlockHash([n; 32])
    }

    #[test]
    fn hit_after_insert_miss_after_invalidate() {
        let mut cache = QueryCache::with_capacity(8);
        assert!(cache.get(tip(0), &key(1)).is_none());
        cache.insert(tip(0), key(1), reply(5));
        let (hit, bytes) = cache.get(tip(0), &key(1)).unwrap();
        assert_eq!(hit, reply(5));
        assert_eq!(bytes, reply(5).serialized_size(), "size recorded at insert");
        assert_eq!(cache.invalidate(), 1);
        assert!(cache.get(tip(0), &key(1)).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = QueryCache::with_capacity(0);
        assert_eq!(cache.insert(tip(0), key(1), reply(5)), 0);
        assert!(cache.get(tip(0), &key(1)).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn a_new_tip_clears_the_cache() {
        let mut cache = QueryCache::with_capacity(8);
        cache.insert(tip(0), key(1), reply(5));
        cache.insert(tip(0), key(2), reply(6));
        assert!(cache.get(tip(1), &key(1)).is_none(), "a different tip never matches");
        assert!(cache.is_empty(), "entries of the old tip are dropped");
        cache.insert(tip(1), key(1), reply(7));
        assert!(cache.get(tip(0), &key(1)).is_none(), "nor does the tip before it");
    }

    #[test]
    fn eviction_is_lru_and_deterministic() {
        let mut cache = QueryCache::with_capacity(2);
        assert_eq!(cache.insert(tip(0), key(1), reply(1)), 0);
        assert_eq!(cache.insert(tip(0), key(2), reply(2)), 0);
        // Touch key 1 so key 2 is the LRU victim.
        assert!(cache.get(tip(0), &key(1)).is_some());
        assert_eq!(cache.insert(tip(0), key(3), reply(3)), 1);
        assert!(cache.get(tip(0), &key(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(tip(0), &key(1)).is_some());
        assert!(cache.get(tip(0), &key(3)).is_some());
    }

    /// The recency index picks the same victims as a scan for the
    /// smallest `last_used`, over random gets, inserts, re-inserts,
    /// invalidations and tip changes.
    #[test]
    fn recency_index_evicts_what_a_full_scan_would() {
        testkit::check(0x9C_0001, testkit::DEFAULT_CASES, |rng| {
            let capacity = testkit::usize_in(rng, 1..9);
            let mut cache = QueryCache::with_capacity(capacity);
            // Model: key → tick of its last use; gets and inserts each
            // take one tick, as in the cache, and the first access at a
            // new tip empties it.
            let mut model: BTreeMap<CacheKey, u64> = BTreeMap::new();
            let (mut clock, mut at, mut model_tip) = (0u64, tip(0), tip(0));
            for _ in 0..testkit::usize_in(rng, 1..200) {
                let k = key(testkit::u64_in(rng, 0..12) as u8);
                let op = testkit::u64_in(rng, 0..24);
                if op > 1 && at != model_tip {
                    model.clear();
                    model_tip = at;
                }
                match op {
                    0 => {
                        assert_eq!(cache.invalidate(), model.len() as u64);
                        model.clear();
                    }
                    1 => at = tip(testkit::u64_in(rng, 0..2) as u8),
                    2..=11 => {
                        clock += 1;
                        assert_eq!(cache.get(at, &k).is_some(), model.contains_key(&k));
                        if let Some(last_used) = model.get_mut(&k) {
                            *last_used = clock;
                        }
                    }
                    _ => {
                        clock += 1;
                        let mut expected = 0;
                        if !model.contains_key(&k) && model.len() >= capacity {
                            let oldest = model.iter().min_by_key(|(_, tick)| **tick);
                            let victim = oldest.map(|(victim, _)| *victim);
                            model.remove(&victim.expect("a full cache has a victim"));
                            expected = 1;
                        }
                        model.insert(k, clock);
                        assert_eq!(cache.insert(at, k, reply(1)), expected);
                    }
                }
                let held: BTreeMap<CacheKey, u64> =
                    cache.entries.iter().map(|(k, e)| (*k, e.last_used)).collect();
                assert_eq!(held, model);
                let indexed: BTreeMap<CacheKey, u64> =
                    cache.recency.iter().map(|(tick, k)| (*k, *tick)).collect();
                assert_eq!(indexed, model);
                assert_eq!(cache.recency.len(), model.len(), "one tick per entry");
            }
        });
    }

    #[test]
    fn continuation_pages_and_writes_are_not_cacheable() {
        let page = Some(UtxosFilter::Page(vec![0; 81]));
        let continuation = CanisterCall::GetUtxos { address: addr(1), filter: page };
        assert!(QueryCache::key_for(&continuation).is_none());
        let write = CanisterCall::SendTransaction { transaction: Vec::new() };
        assert!(QueryCache::key_for(&write).is_none());
        assert!(QueryCache::key_for(&CanisterCall::GetMetrics).is_none());
        // Bare get_utxos and MinConfirmations(0) normalize identically.
        let bare = CanisterCall::GetUtxos { address: addr(1), filter: None };
        let zero = CanisterCall::GetUtxos {
            address: addr(1),
            filter: Some(UtxosFilter::MinConfirmations(0)),
        };
        assert_eq!(QueryCache::key_for(&bare), QueryCache::key_for(&zero));
    }
}
