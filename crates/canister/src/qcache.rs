//! The tip-keyed query cache.
//!
//! The production Bitcoin canister serves most of its query traffic —
//! balance lookups, first `get_utxos` pages, fee percentiles — from a
//! small cache that is valid exactly as long as the chain tip does not
//! move. This module reproduces that design deterministically:
//!
//! * every key embeds the **tip hash** the response was computed at, so
//!   a response outliving its tip can never be returned by a lookup;
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

/// A cacheable query, fully identifying the response: the tip the view
/// was computed at, and the call's own parameters.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum CacheKey {
    /// `get_balance(address, min_confirmations)` at `tip`.
    Balance {
        /// Considered tip when the response was computed.
        tip: BlockHash,
        /// The queried address.
        address: Address,
        /// The confirmation requirement.
        min_confirmations: u32,
    },
    /// The *first* `get_utxos` page for `(address, min_confirmations)`
    /// at `tip`. Continuation pages are never cached.
    FirstPage {
        /// Considered tip when the response was computed.
        tip: BlockHash,
        /// The queried address.
        address: Address,
        /// The confirmation requirement.
        min_confirmations: u32,
    },
    /// `get_current_fee_percentiles()` at `tip`.
    FeePercentiles {
        /// Considered tip when the response was computed.
        tip: BlockHash,
    },
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
        QueryCache { entries: BTreeMap::new(), recency: BTreeMap::new(), capacity, clock: 0 }
    }

    /// The cache key for `call` at `tip`, or `None` if the call is not
    /// cacheable (writes, continuation pages, metrics, headers).
    ///
    /// A `get_utxos` without filter is the same view as
    /// `MinConfirmations(0)`; both normalize to the same key.
    pub fn key_for(call: &CanisterCall, tip: BlockHash) -> Option<CacheKey> {
        match call {
            CanisterCall::GetBalance { address, min_confirmations } => Some(CacheKey::Balance {
                tip,
                address: *address,
                min_confirmations: *min_confirmations,
            }),
            CanisterCall::GetUtxos { address, filter } => match filter {
                None => Some(CacheKey::FirstPage { tip, address: *address, min_confirmations: 0 }),
                Some(UtxosFilter::MinConfirmations(c)) => {
                    Some(CacheKey::FirstPage { tip, address: *address, min_confirmations: *c })
                }
                Some(UtxosFilter::Page(_)) => None,
            },
            CanisterCall::GetFeePercentiles => Some(CacheKey::FeePercentiles { tip }),
            CanisterCall::SendTransaction { .. }
            | CanisterCall::GetBlockHeaders { .. }
            | CanisterCall::GetMetrics => None,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit. A hit returns the
    /// cached reply together with its serialized byte size (recorded at
    /// insert), so the caller can charge a per-byte copy rather than a
    /// full re-serialization.
    // icbtc-lint: node-local -- cache contents depend on this replica's query history; replicated execution must never read them
    pub fn get(&mut self, key: &CacheKey) -> Option<(CanisterReply, u64)> {
        self.clock += 1;
        let entry = self.entries.get_mut(key)?;
        if let Some(touched) = self.recency.remove(&entry.last_used) {
            self.recency.insert(self.clock, touched);
        }
        entry.last_used = self.clock;
        Some((entry.reply.clone(), entry.serialized_bytes))
    }

    /// Inserts a reply, evicting the least-recently-used entry when at
    /// capacity. The reply's serialized size is computed once here — the
    /// miss path just produced and serialized the response anyway — and
    /// stored alongside it for the hit path's per-byte copy charge.
    /// Returns how many entries were evicted (0 or 1).
    pub fn insert(&mut self, key: CacheKey, reply: CanisterReply) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        self.clock += 1;
        let mut evicted = 0;
        if let Some(entry) = self.entries.get(&key) {
            self.recency.remove(&entry.last_used);
        } else if self.entries.len() >= self.capacity {
            if let Some((_, victim)) = self.recency.pop_first() {
                self.entries.remove(&victim);
                evicted = 1;
            }
        }
        let serialized_bytes = reply.serialized_size();
        self.recency.insert(self.clock, key.clone());
        self.entries.insert(key, CacheEntry { reply, serialized_bytes, last_used: self.clock });
        evicted
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

    fn key(n: u8, tip: u8) -> CacheKey {
        CacheKey::Balance { tip: BlockHash([tip; 32]), address: addr(n), min_confirmations: 0 }
    }

    #[test]
    fn hit_after_insert_miss_after_invalidate() {
        let mut cache = QueryCache::with_capacity(8);
        assert!(cache.get(&key(1, 0)).is_none());
        cache.insert(key(1, 0), reply(5));
        let (hit, bytes) = cache.get(&key(1, 0)).unwrap();
        assert_eq!(hit, reply(5));
        assert_eq!(bytes, reply(5).serialized_size(), "size recorded at insert");
        assert_eq!(cache.invalidate(), 1);
        assert!(cache.get(&key(1, 0)).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = QueryCache::with_capacity(0);
        assert_eq!(cache.insert(key(1, 0), reply(5)), 0);
        assert!(cache.get(&key(1, 0)).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn tip_is_part_of_the_key() {
        let mut cache = QueryCache::with_capacity(8);
        cache.insert(key(1, 0), reply(5));
        assert!(cache.get(&key(1, 1)).is_none(), "a different tip never matches");
    }

    #[test]
    fn eviction_is_lru_and_deterministic() {
        let mut cache = QueryCache::with_capacity(2);
        assert_eq!(cache.insert(key(1, 0), reply(1)), 0);
        assert_eq!(cache.insert(key(2, 0), reply(2)), 0);
        // Touch key 1 so key 2 is the LRU victim.
        assert!(cache.get(&key(1, 0)).is_some());
        assert_eq!(cache.insert(key(3, 0), reply(3)), 1);
        assert!(cache.get(&key(2, 0)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(1, 0)).is_some());
        assert!(cache.get(&key(3, 0)).is_some());
    }

    /// The recency index picks the same victims as a scan for the
    /// smallest `last_used`, over random gets, inserts, re-inserts and
    /// invalidations.
    #[test]
    fn recency_index_evicts_what_a_full_scan_would() {
        testkit::check(0x9C_0001, testkit::DEFAULT_CASES, |rng| {
            let capacity = testkit::usize_in(rng, 1..9);
            let mut cache = QueryCache::with_capacity(capacity);
            // Model: key → tick of its last use; gets and inserts each
            // take one tick, as in the cache.
            let mut model: BTreeMap<CacheKey, u64> = BTreeMap::new();
            let mut clock = 0u64;
            for _ in 0..testkit::usize_in(rng, 1..200) {
                let k = key(testkit::u64_in(rng, 0..12) as u8, 0);
                match testkit::u64_in(rng, 0..20) {
                    0 => {
                        assert_eq!(cache.invalidate(), model.len() as u64);
                        model.clear();
                    }
                    1..=9 => {
                        clock += 1;
                        assert_eq!(cache.get(&k).is_some(), model.contains_key(&k));
                        if let Some(last_used) = model.get_mut(&k) {
                            *last_used = clock;
                        }
                    }
                    _ => {
                        clock += 1;
                        let mut expected = 0;
                        if !model.contains_key(&k) && model.len() >= capacity {
                            let oldest = model.iter().min_by_key(|(_, tick)| **tick);
                            let victim = oldest.map(|(victim, _)| victim.clone());
                            model.remove(&victim.expect("a full cache has a victim"));
                            expected = 1;
                        }
                        model.insert(k.clone(), clock);
                        assert_eq!(cache.insert(k, reply(1)), expected);
                    }
                }
                let held: BTreeMap<CacheKey, u64> =
                    cache.entries.iter().map(|(k, e)| (k.clone(), e.last_used)).collect();
                assert_eq!(held, model);
                let indexed: BTreeMap<CacheKey, u64> =
                    cache.recency.iter().map(|(tick, k)| (k.clone(), *tick)).collect();
                assert_eq!(indexed, model);
                assert_eq!(cache.recency.len(), model.len(), "one tick per entry");
            }
        });
    }

    #[test]
    fn continuation_pages_and_writes_are_not_cacheable() {
        let tip = BlockHash([0; 32]);
        assert!(QueryCache::key_for(
            &CanisterCall::GetUtxos {
                address: addr(1),
                filter: Some(UtxosFilter::Page(vec![0; 81]))
            },
            tip
        )
        .is_none());
        assert!(QueryCache::key_for(
            &CanisterCall::SendTransaction { transaction: Vec::new() },
            tip
        )
        .is_none());
        assert!(QueryCache::key_for(&CanisterCall::GetMetrics, tip).is_none());
        // Bare get_utxos and MinConfirmations(0) normalize identically.
        let bare = QueryCache::key_for(&CanisterCall::GetUtxos { address: addr(1), filter: None }, tip);
        let zero = QueryCache::key_for(
            &CanisterCall::GetUtxos {
                address: addr(1),
                filter: Some(UtxosFilter::MinConfirmations(0)),
            },
            tip,
        );
        assert_eq!(bare, zero);
    }
}
