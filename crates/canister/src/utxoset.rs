//! The stable UTXO set (§III-C), backed by the paged storage engine.
//!
//! Instead of storing the blockchain, the Bitcoin canister stores only
//! the unspent transaction outputs up to and including the anchor height,
//! indexed by address for efficient `get_utxos`/`get_balance`. This is
//! what keeps the state ≈ 100 GiB instead of several hundred (Figure 5).
//!
//! Both maps — `by_outpoint` and the `by_address` secondary index — are
//! [`PagedMap`] B+-trees over one shared, byte-budgeted [`PagePool`]
//! (see [`crate::storage`]), mirroring the production canister's stable
//! memory layout. Ingesting past the budget fails loudly
//! ([`StorageError::BudgetExhausted`]); it can never silently OOM the
//! replica. [`UtxoSet::serialize`] produces a versioned, deterministic
//! snapshot for upgrade safety, and [`UtxoSet::storage_stats`] feeds the
//! `canister_storage_*` gauges.

use std::cell::OnceCell;

use icbtc_bitcoin::encode::{Reader, Sink};
use icbtc_bitcoin::hash::Sha256;
use icbtc_bitcoin::{Address, Amount, Network, OutPoint, Script, Transaction, TxOut, Txid};
use icbtc_ic::Meter;

use crate::metering;
use crate::storage::{btree, codec, PagePool, PagedMap, StorageConfig, StorageError, StorageStats};

/// One unspent output as reported by the canister API.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Utxo {
    /// Where the output lives.
    pub outpoint: OutPoint,
    /// Its value.
    pub value: Amount,
    /// Height of the block that created it.
    pub height: u64,
}

/// Magic prefix of a serialized snapshot.
const SNAPSHOT_MAGIC: &[u8; 8] = b"ICBTCUTX";
/// Snapshot layout version; bump on any layout change so upgrades can
/// dispatch on it.
const SNAPSHOT_VERSION: u16 = 1;

/// The address-indexed stable UTXO set.
///
/// # Examples
///
/// ```
/// use icbtc_canister::utxoset::UtxoSet;
/// use icbtc_bitcoin::Network;
///
/// let set = UtxoSet::new(Network::Regtest);
/// assert_eq!(set.len(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct UtxoSet {
    network: Network,
    pool: PagePool,
    /// `txid ‖ vout → height ‖ amount ‖ script` (see [`codec`]).
    by_outpoint: PagedMap,
    /// `address-prefix ‖ reverse-height ‖ outpoint → amount`: the value
    /// is denormalized into the index so pagination and balance walks
    /// never touch `by_outpoint`.
    by_address: PagedMap,
    next_height: u64,
    /// [`UtxoSet::state_hash`], filled by its first call and cleared by
    /// [`UtxoSet::try_ingest_block`], the only `&mut` mutator. The set
    /// changes once per anchor advance while the replica hashes it every
    /// round, so all other rounds read this memo.
    hash_memo: OnceCell<[u8; 32]>,
}

impl UtxoSet {
    /// Creates an empty set for `network` with the default 4 GiB budget;
    /// the first block to ingest is height 0 (genesis).
    pub fn new(network: Network) -> UtxoSet {
        UtxoSet::with_config(network, StorageConfig::default())
    }

    /// Creates an empty set with an explicit page size and byte budget.
    pub fn with_config(network: Network, config: StorageConfig) -> UtxoSet {
        UtxoSet {
            network,
            pool: PagePool::new(config),
            by_outpoint: PagedMap::new(),
            by_address: PagedMap::new(),
            next_height: 0,
            hash_memo: OnceCell::new(),
        }
    }

    /// The network whose addresses index this set.
    pub fn network(&self) -> Network {
        self.network
    }

    /// The storage configuration (page size clamped by the pool).
    pub fn storage_config(&self) -> &StorageConfig {
        self.pool.config()
    }

    /// Number of UTXOs held.
    pub fn len(&self) -> usize {
        self.by_outpoint.len() as usize
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.by_outpoint.is_empty()
    }

    /// The height the next ingested block must have.
    pub fn next_height(&self) -> u64 {
        self.next_height
    }

    /// Stable-memory footprint in bytes (Figure 5's y-axis): pages
    /// actually allocated times page size — what counts against the
    /// byte budget. Entries are sized by their real serialized length
    /// (script included), so script-size variance shows up here.
    pub fn byte_size(&self) -> u64 {
        self.pool.bytes_reserved()
    }

    /// Point-in-time storage counters for the `canister_storage_*`
    /// gauges and the fig5 bench report.
    pub fn storage_stats(&self) -> StorageStats {
        let config = self.pool.config();
        StorageStats {
            page_size: config.page_size as u64,
            byte_budget: config.byte_budget,
            pages_allocated: self.pool.pages_allocated(),
            bytes_reserved: self.pool.bytes_reserved(),
            bytes_used: self.pool.pages_allocated() * btree::NODE_HEADER_BYTES as u64
                + self.by_outpoint.cell_bytes()
                + self.by_address.cell_bytes(),
            budget_headroom: self.pool.budget_headroom(),
            entries: self.by_outpoint.len() + self.by_address.len(),
            entry_bytes: self.by_outpoint.entry_bytes() + self.by_address.entry_bytes(),
        }
    }

    /// Looks up a single outpoint.
    pub fn get(&self, outpoint: &OutPoint) -> Option<Utxo> {
        let key = codec::outpoint_key(outpoint);
        self.by_outpoint.get(&self.pool, &key).map(|value| {
            let (height, amount, _script) = codec::decode_utxo_value(value);
            Utxo { outpoint: *outpoint, value: amount, height }
        })
    }

    /// Ingests all transactions of a block at `height` into the set:
    /// inputs are removed, outputs inserted, with instruction charges per
    /// operation recorded in `meter`. `txids[i]` is `transactions[i]`'s
    /// txid, as the block's acceptance check computed it, so the set
    /// never hashes a transaction itself. Each removal and insertion is
    /// one `input_removal` / `output_insertion` profiler frame on `meter`,
    /// so Figure 6's split is read from [`Meter::profile`].
    ///
    /// Transaction *spend validity* is intentionally not checked (§III-C:
    /// the canister relies on Bitcoin's proof of work and block vetting).
    ///
    /// # Errors
    ///
    /// [`StorageError::OutOfOrderIngestion`] if `height` is not the
    /// expected next height (stable blocks are ingested strictly in
    /// order), or [`StorageError::TxidCountMismatch`] if `txids` and
    /// `transactions` differ in length (both rejected before touching
    /// any state), or [`StorageError::BudgetExhausted`] /
    /// [`StorageError::EntryTooLarge`] mid-block. After a mid-block error
    /// the block is only partially applied, so the set must be treated as
    /// poisoned and discarded — fail loudly, never continue past the
    /// budget.
    pub fn try_ingest_block(
        &mut self,
        transactions: &[Transaction],
        txids: &[Txid],
        height: u64,
        meter: &mut Meter,
    ) -> Result<(), StorageError> {
        if height != self.next_height {
            return Err(StorageError::OutOfOrderIngestion {
                expected: self.next_height,
                got: height,
            });
        }
        if txids.len() != transactions.len() {
            return Err(StorageError::TxidCountMismatch {
                transactions: transactions.len(),
                txids: txids.len(),
            });
        }
        self.hash_memo.take();
        for (tx, &txid) in transactions.iter().zip(txids) {
            // The model still prices hashing each transaction here, as
            // the production canister does; the host reuses `txid`.
            let hashing = meter.frame("hashing");
            meter.charge(metering::TX_HASHING);
            meter.frame_end(hashing);
            let decode = meter.frame("tx_decode");
            meter.charge(metering::TX_DECODE);
            meter.frame_end(decode);
            if !tx.is_coinbase() {
                for input in &tx.inputs {
                    // Unknown outpoints (spends of non-standard or foreign
                    // outputs) are charged like a lookup miss.
                    self.remove(&input.previous_output, meter);
                }
            }
            for (vout, output) in tx.outputs.iter().enumerate() {
                if output.script_pubkey.is_op_return() {
                    continue; // provably unspendable, never stored
                }
                self.insert(OutPoint::new(txid, vout as u32), output, height, meter)?;
            }
        }
        self.next_height = height + 1;
        Ok(())
    }

    fn insert(
        &mut self,
        outpoint: OutPoint,
        output: &TxOut,
        height: u64,
        meter: &mut Meter,
    ) -> Result<(), StorageError> {
        // All three cost parts are charged up front, before the fallible
        // storage operations, so budget-exhaustion errors are charged in
        // full too. The `output_insertion` frame closes before any
        // storage call can return early.
        let script_cost = metering::INSERT_SCRIPT_PARSE
            + output.script_pubkey.len() as u64 * metering::INSERT_OUTPUT_PER_BYTE;
        let insertion = meter.frame("output_insertion");
        let script_parse = meter.frame("script_parse");
        meter.charge(script_cost);
        meter.frame_end(script_parse);
        let apply = meter.frame("utxo_apply");
        meter.charge(metering::INSERT_OUTPOINT);
        meter.frame_end(apply);
        let index = meter.frame("by_address_index");
        meter.charge(metering::INSERT_BY_ADDRESS);
        meter.frame_end(index);
        meter.frame_end(insertion);
        let key = codec::outpoint_key(&outpoint);
        let value = codec::utxo_value(height, output.value, output.script_pubkey.as_bytes());
        let previous = self.by_outpoint.insert(&mut self.pool, &key, &value)?;
        if let Some(previous) = previous {
            // The outpoint already existed (pre-BIP34 duplicate txid):
            // evict its old index entry, or a stale `(old height,
            // outpoint)` key would linger in `by_address` and double-count
            // in `get_balance` / `get_utxos`.
            let (old_height, _, old_script) = codec::decode_utxo_value(&previous);
            let old_script = Script::from_bytes(old_script.to_vec());
            if let Some(old_address) = Address::from_script(&old_script, self.network) {
                let stale = codec::index_key(&old_address, old_height, &outpoint);
                self.by_address.remove(&mut self.pool, &stale);
            }
        }
        if let Some(address) = Address::from_script(&output.script_pubkey, self.network) {
            let index_key = codec::index_key(&address, height, &outpoint);
            self.by_address.insert(
                &mut self.pool,
                &index_key,
                &codec::amount_value(output.value),
            )?;
        }
        Ok(())
    }

    fn remove(&mut self, outpoint: &OutPoint, meter: &mut Meter) {
        // As in `insert`: the three parts are charged up front, on
        // misses too.
        let removal = meter.frame("input_removal");
        let script_parse = meter.frame("script_parse");
        meter.charge(metering::REMOVE_SCRIPT_PARSE);
        meter.frame_end(script_parse);
        let apply = meter.frame("utxo_apply");
        meter.charge(metering::REMOVE_OUTPOINT);
        meter.frame_end(apply);
        let index = meter.frame("by_address_index");
        meter.charge(metering::REMOVE_BY_ADDRESS);
        meter.frame_end(index);
        meter.frame_end(removal);
        let key = codec::outpoint_key(outpoint);
        let Some(value) = self.by_outpoint.remove(&mut self.pool, &key) else {
            return;
        };
        let (height, _, script) = codec::decode_utxo_value(&value);
        let script = Script::from_bytes(script.to_vec());
        if let Some(address) = Address::from_script(&script, self.network) {
            let index_key = codec::index_key(&address, height, outpoint);
            self.by_address.remove(&mut self.pool, &index_key);
        }
    }

    /// All UTXOs of `address`, sorted by height descending (then
    /// outpoint), charging per fetched entry.
    pub fn utxos_of(&self, address: &Address, meter: &mut Meter) -> Vec<Utxo> {
        self.utxos_after(address, None)
            .inspect(|_| meter.charge(metering::STABLE_UTXO_FETCH))
            .collect()
    }

    /// Iterates `address`'s UTXOs in pagination order (height descending,
    /// then outpoint), starting strictly *after* the `(height, outpoint)`
    /// cursor if one is given. The walk is a B-tree range scan: reaching
    /// the cursor position costs a tree descent, not a scan of the
    /// preceding entries, so consuming a page costs O(page size)
    /// regardless of the address's total UTXO count.
    ///
    /// No instructions are charged here — callers charge per entry they
    /// actually consume (pagination and balance use different rates).
    pub fn utxos_after<'a>(
        &'a self,
        address: &Address,
        after: Option<(u64, OutPoint)>,
    ) -> impl Iterator<Item = Utxo> + 'a {
        let prefix = codec::address_prefix(address);
        let (start, exclusive) = match after {
            Some((height, outpoint)) => (codec::index_key(address, height, &outpoint), true),
            None => (prefix.clone(), false),
        };
        self.by_address
            .range_from(&self.pool, &start)
            // `range_from` is inclusive; at most the first entry can
            // equal the cursor key — skip it for strictly-after.
            .skip_while(move |(key, _)| exclusive && *key == start.as_slice())
            .take_while(move |(key, _)| key.starts_with(&prefix))
            .map(|(key, value)| {
                let (height, outpoint) = codec::decode_index_key_suffix(key);
                Utxo { outpoint, value: codec::decode_amount_value(value), height }
            })
    }

    /// Balance of `address` from the stable set alone, summed directly
    /// over the address index — no `TxOut` is cloned or even looked up,
    /// so each entry is charged the cheaper
    /// [`metering::STABLE_BALANCE_ENTRY`] rate. Accumulation saturates at
    /// [`Amount::MAX_MONEY`]: a hostile chain of max-value outputs clamps
    /// instead of overflowing.
    pub fn balance(&self, address: &Address, meter: &mut Meter) -> Amount {
        self.utxos_after(address, None).fold(Amount::ZERO, |total, utxo| {
            meter.charge(metering::STABLE_BALANCE_ENTRY);
            total.saturating_add(utxo.value)
        })
    }

    /// Number of distinct addresses indexed. O(index size) — the engine
    /// keeps no per-address state; this is a diagnostics/test helper, not
    /// a query-plane call.
    pub fn address_count(&self) -> usize {
        let mut count = 0;
        let mut last: Vec<u8> = Vec::new();
        for (key, _) in self.by_address.iter(&self.pool) {
            let prefix = &key[..key.len() - codec::INDEX_KEY_SUFFIX_LEN];
            if last != prefix {
                count += 1;
                last.clear();
                last.extend_from_slice(prefix);
            }
        }
        count
    }

    /// Streams the canonical snapshot bytes into `sink` — shared by
    /// [`UtxoSet::serialize`], [`UtxoSet::state_hash`] and the full-state
    /// envelope, so the hash is always the hash of the exact serialized
    /// bytes.
    pub(crate) fn snapshot_into(&self, sink: &mut dyn Sink) {
        sink.write(SNAPSHOT_MAGIC);
        sink.write(&SNAPSHOT_VERSION.to_be_bytes());
        sink.write(&[codec::network_tag(self.network)]);
        sink.write(&(self.pool.page_size() as u32).to_be_bytes());
        sink.write(&self.pool.config().byte_budget.to_be_bytes());
        sink.write(&self.next_height.to_be_bytes());
        for map in [&self.by_outpoint, &self.by_address] {
            sink.write(&map.len().to_be_bytes());
            for (key, value) in map.iter(&self.pool) {
                sink.write(&(key.len() as u16).to_be_bytes());
                sink.write(key);
                sink.write(&(value.len() as u16).to_be_bytes());
                sink.write(value);
            }
        }
    }

    /// Serializes the set into the versioned upgrade snapshot: a fixed
    /// header (magic, version, network, storage config, next height)
    /// followed by both maps' entries in ascending key order. The layout
    /// is a pure function of the logical content — two sets holding the
    /// same UTXOs serialize byte-identically regardless of their page
    /// layout history.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.snapshot_len() as usize);
        self.snapshot_into(&mut out);
        out
    }

    /// Exact length of [`UtxoSet::serialize`]'s output, known without
    /// walking the maps: the 47-byte header and map counts, plus each
    /// entry's key and value bytes behind two 2-byte length prefixes.
    pub(crate) fn snapshot_len(&self) -> u64 {
        let stats = self.storage_stats();
        47 + stats.entry_bytes + 4 * stats.entries
    }

    /// SHA-256d over the serialized snapshot — the state fingerprint the
    /// determinism gate compares across runs. The first call after a
    /// mutation streams the snapshot into the hasher (no intermediate
    /// buffer); later calls return the memo until the next
    /// [`UtxoSet::try_ingest_block`].
    pub fn state_hash(&self) -> [u8; 32] {
        *self.hash_memo.get_or_init(|| {
            let mut hasher = Sha256::new();
            self.snapshot_into(&mut hasher);
            hasher.finalize_double()
        })
    }

    /// Rebuilds a set from [`UtxoSet::serialize`] bytes. Only the
    /// canonical encoding is accepted — both maps' entries well-formed
    /// and in strictly ascending key order — so a restored set always
    /// re-serializes to the bytes it came from. Each map is rebuilt in
    /// one pass by appending its sorted entries, which lays out the same
    /// pages as inserting them one by one.
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupt`] on malformed bytes, an unknown version,
    /// an out-of-range page size, or a malformed, out-of-order or
    /// duplicate entry; [`StorageError::BudgetExhausted`] if the snapshot
    /// does not fit its own declared budget.
    pub fn deserialize(bytes: &[u8]) -> Result<UtxoSet, StorageError> {
        let mut r = Reader::new(bytes);
        if r.take(8)? != SNAPSHOT_MAGIC {
            return Err(StorageError::Corrupt("bad magic"));
        }
        if u16::from_be_bytes(r.take_array()?) != SNAPSHOT_VERSION {
            return Err(StorageError::Corrupt("unknown snapshot version"));
        }
        let network = codec::network_from_tag(u8::from_be_bytes(r.take_array()?))?;
        let page_size = u32::from_be_bytes(r.take_array()?) as usize;
        let byte_budget = u64::from_be_bytes(r.take_array()?);
        let next_height = u64::from_be_bytes(r.take_array()?);
        let mut set = UtxoSet::with_config(network, StorageConfig { page_size, byte_budget });
        if set.pool.page_size() != page_size {
            return Err(StorageError::Corrupt("page size out of range"));
        }
        set.next_height = next_height;
        for is_index in [false, true] {
            let mut map = btree::Appender::new();
            let mut last: &[u8] = &[];
            for _ in 0..u64::from_be_bytes(r.take_array()?) {
                let key_len = u16::from_be_bytes(r.take_array()?);
                let key = r.take(key_len as usize)?;
                let value_len = u16::from_be_bytes(r.take_array()?);
                let value = r.take(value_len as usize)?;
                // Key order rules out duplicates; the lengths are what the
                // codec's decoders index into without further checks.
                let well_formed = if is_index {
                    key.len() > codec::INDEX_KEY_SUFFIX_LEN && value.len() == 8
                } else {
                    key.len() == codec::OUTPOINT_KEY_LEN && value.len() >= 16
                };
                if !well_formed || key <= last {
                    return Err(StorageError::Corrupt("malformed or out-of-order entry"));
                }
                map.append(&mut set.pool, key, value)?;
                last = key;
            }
            *if is_index { &mut set.by_address } else { &mut set.by_outpoint } = map.finish();
        }
        if r.remaining() > 0 {
            return Err(StorageError::Corrupt("trailing bytes"));
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icbtc_bitcoin::{txids, AddressKind, Script, TxIn};

    fn addr(n: u8) -> Address {
        Address::new(Network::Regtest, AddressKind::P2wpkh([n; 20]))
    }

    fn pay_tx(prev: Option<OutPoint>, to: &[(u8, u64)]) -> Transaction {
        let inputs = match prev {
            Some(op) => vec![TxIn::new(op)],
            None => vec![TxIn::new(OutPoint::NULL)],
        };
        Transaction {
            version: 2,
            inputs,
            outputs: to
                .iter()
                .map(|(n, v)| TxOut::new(Amount::from_sat(*v), addr(*n).script_pubkey()))
                .collect(),
            lock_time: 0,
        }
    }

    /// Ingests `txs` with their txids hashed fresh.
    fn ingest(set: &mut UtxoSet, txs: &[Transaction], height: u64, meter: &mut Meter) {
        try_ingest(set, txs, height, meter).expect("ingest");
    }

    fn try_ingest(
        set: &mut UtxoSet,
        txs: &[Transaction],
        height: u64,
        meter: &mut Meter,
    ) -> Result<(), StorageError> {
        set.try_ingest_block(txs, &txids(txs), height, meter)
    }

    fn fresh() -> (UtxoSet, Meter) {
        (UtxoSet::new(Network::Regtest), Meter::new())
    }

    /// Figure 6's split as the profiler attributed it on `meter`.
    fn split(meter: &Meter, frame: &str) -> u64 {
        meter.profile().total_named(frame)
    }

    #[test]
    fn ingest_coinbase_creates_utxos() {
        let (mut set, mut meter) = fresh();
        let coinbase = pay_tx(None, &[(1, 5000)]);
        ingest(&mut set, std::slice::from_ref(&coinbase), 0, &mut meter);
        assert_eq!(set.len(), 1);
        assert_eq!(set.next_height(), 1);
        assert_eq!(set.balance(&addr(1), &mut Meter::new()), Amount::from_sat(5000));
        let utxo = set.get(&OutPoint::new(coinbase.txid(), 0)).unwrap();
        assert_eq!(utxo.height, 0);
        assert!(meter.instructions() > 0);
        assert!(split(&meter, "output_insertion") > 0);
        // Coinbase inputs are not treated as removals.
        assert_eq!(split(&meter, "input_removal"), 0);
    }

    #[test]
    fn spend_moves_value_between_addresses() {
        let (mut set, mut meter) = fresh();
        let coinbase = pay_tx(None, &[(1, 5000)]);
        ingest(&mut set, std::slice::from_ref(&coinbase), 0, &mut meter);
        let spend = pay_tx(Some(OutPoint::new(coinbase.txid(), 0)), &[(2, 3000), (1, 1900)]);
        ingest(&mut set, &[spend], 1, &mut meter);
        assert_eq!(set.len(), 2);
        assert_eq!(set.balance(&addr(2), &mut Meter::new()), Amount::from_sat(3000));
        assert_eq!(set.balance(&addr(1), &mut Meter::new()), Amount::from_sat(1900));
        assert!(split(&meter, "input_removal") > 0);
    }

    #[test]
    fn utxos_sorted_by_height_descending() {
        let (mut set, mut meter) = fresh();
        for height in 0..5 {
            let tx = pay_tx(None, &[(7, 100 + height)]);
            ingest(&mut set, &[tx], height, &mut meter);
        }
        let utxos = set.utxos_of(&addr(7), &mut Meter::new());
        assert_eq!(utxos.len(), 5);
        let heights: Vec<u64> = utxos.iter().map(|u| u.height).collect();
        assert_eq!(heights, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn utxos_after_resumes_strictly_past_the_cursor() {
        let (mut set, mut meter) = fresh();
        for height in 0..6 {
            let tx = pay_tx(None, &[(7, 100 + height)]);
            ingest(&mut set, &[tx], height, &mut meter);
        }
        let all: Vec<Utxo> = set.utxos_after(&addr(7), None).collect();
        assert_eq!(all.len(), 6);
        // Resume from the second entry: exactly the suffix comes back.
        let cursor = (all[1].height, all[1].outpoint);
        let rest: Vec<Utxo> = set.utxos_after(&addr(7), Some(cursor)).collect();
        assert_eq!(rest, all[2..].to_vec());
        // A cursor at the last entry yields nothing.
        let last = (all[5].height, all[5].outpoint);
        assert_eq!(set.utxos_after(&addr(7), Some(last)).count(), 0);
        // Unknown addresses yield nothing.
        assert_eq!(set.utxos_after(&addr(9), None).count(), 0);
    }

    #[test]
    fn balance_charges_per_index_entry_not_per_fetch() {
        let (mut set, mut meter) = fresh();
        let tx = pay_tx(None, &[(7, 10), (7, 20), (7, 30)]);
        ingest(&mut set, &[tx], 0, &mut meter);
        let mut balance_meter = Meter::new();
        assert_eq!(set.balance(&addr(7), &mut balance_meter), Amount::from_sat(60));
        assert_eq!(balance_meter.instructions(), 3 * metering::STABLE_BALANCE_ENTRY);
        let mut fetch_meter = Meter::new();
        let _ = set.utxos_of(&addr(7), &mut fetch_meter);
        assert!(balance_meter.instructions() < fetch_meter.instructions());
    }

    #[test]
    fn balance_saturates_instead_of_overflowing() {
        // A hostile chain can mint outputs summing past MAX_MONEY — the
        // set does not validate issuance (§III-C). The old `.sum()`
        // accumulator panicked here; saturating accumulation clamps.
        let (mut set, mut meter) = fresh();
        let near_max = Amount::MAX_MONEY.to_sat() - 10;
        let tx = pay_tx(None, &[(7, near_max), (7, near_max), (7, 25)]);
        ingest(&mut set, &[tx], 0, &mut meter);
        let balance = set.balance(&addr(7), &mut Meter::new());
        assert_eq!(balance, Amount::MAX_MONEY);
    }

    #[test]
    fn duplicate_outpoint_reinsert_evicts_stale_index_entry() {
        // Pre-BIP34, two coinbase transactions could be byte-identical
        // and thus share a txid: the later one overwrites the earlier
        // outpoint at a new height. The old implementation stranded the
        // height-0 key in `by_address`, double-counting the output in
        // balance and pagination.
        let (mut set, mut meter) = fresh();
        let coinbase = pay_tx(None, &[(1, 5000)]);
        ingest(&mut set, std::slice::from_ref(&coinbase), 0, &mut meter);
        // Identical transaction ⇒ identical txid ⇒ same outpoint.
        ingest(&mut set, std::slice::from_ref(&coinbase), 1, &mut meter);

        assert_eq!(set.len(), 1, "one outpoint, not two");
        assert_eq!(
            set.balance(&addr(1), &mut Meter::new()),
            Amount::from_sat(5000),
            "balance must not double-count the re-inserted outpoint"
        );
        let utxos = set.utxos_of(&addr(1), &mut Meter::new());
        assert_eq!(utxos.len(), 1, "pagination must see exactly one entry");
        assert_eq!(utxos[0].height, 1, "the re-insert wins");
        // Spending it once empties the whole index.
        let spend = pay_tx(Some(OutPoint::new(coinbase.txid(), 0)), &[(2, 4000)]);
        ingest(&mut set, &[spend], 2, &mut meter);
        assert_eq!(set.balance(&addr(1), &mut Meter::new()), Amount::ZERO);
        assert_eq!(set.address_count(), 1);
    }

    #[test]
    fn duplicate_outpoint_with_new_script_moves_the_index_entry() {
        let (mut set, mut meter) = fresh();
        let first = pay_tx(None, &[(1, 5000)]);
        let outpoint = OutPoint::new(first.txid(), 0);
        ingest(&mut set, &[first], 0, &mut meter);
        // Re-insert the same outpoint paying a different address (txid
        // collisions don't imply identical outputs for the storage
        // layer): the old address must lose its entry.
        let replacement = TxOut::new(Amount::from_sat(7000), addr(2).script_pubkey());
        set.insert(outpoint, &replacement, 1, &mut meter).unwrap();
        assert_eq!(set.balance(&addr(1), &mut Meter::new()), Amount::ZERO);
        assert_eq!(set.balance(&addr(2), &mut Meter::new()), Amount::from_sat(7000));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn op_return_outputs_never_stored() {
        let (mut set, mut meter) = fresh();
        let mut tx = pay_tx(None, &[(1, 100)]);
        tx.outputs.push(TxOut::new(Amount::ZERO, Script::new_op_return(b"data")));
        ingest(&mut set, &[tx], 0, &mut meter);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn nonstandard_scripts_counted_but_not_indexed() {
        let (mut set, mut meter) = fresh();
        let mut tx = pay_tx(None, &[(1, 100)]);
        tx.outputs.push(TxOut::new(Amount::from_sat(50), Script::from_bytes(vec![0xde, 0xad])));
        ingest(&mut set, &[tx.clone()], 0, &mut meter);
        assert_eq!(set.len(), 2, "held in the outpoint map");
        assert_eq!(set.address_count(), 1, "but not address-indexed");
        assert!(set.get(&OutPoint::new(tx.txid(), 1)).is_some());
    }

    #[test]
    fn unknown_input_removal_is_charged_but_harmless() {
        let (mut set, mut meter) = fresh();
        let spend = pay_tx(Some(OutPoint::new(Txid([9; 32]), 3)), &[(2, 10)]);
        ingest(&mut set, &[spend], 0, &mut meter);
        assert_eq!(set.len(), 1);
        assert_eq!(split(&meter, "input_removal"), metering::REMOVE_INPUT_BASE);
    }

    #[test]
    fn out_of_order_ingestion_is_a_typed_error() {
        let (mut set, mut meter) = fresh();
        let err = try_ingest(&mut set, &[pay_tx(None, &[(1, 1)])], 5, &mut meter).unwrap_err();
        assert_eq!(err, StorageError::OutOfOrderIngestion { expected: 0, got: 5 });
        assert!(err.to_string().contains("stable blocks must be ingested in order"), "{err}");
        // Rejected before touching any state: the set stays usable.
        ingest(&mut set, &[pay_tx(None, &[(1, 1)])], 0, &mut meter);
        assert_eq!(set.next_height(), 1);
    }

    #[test]
    fn txid_count_mismatch_is_a_typed_error_before_any_write() {
        let (mut set, mut meter) = fresh();
        let txs = [pay_tx(None, &[(1, 1)]), pay_tx(None, &[(2, 2)])];
        let all = txids(&txs);
        for short in [&all[..1], &[]] {
            let err = set.try_ingest_block(&txs, short, 0, &mut meter).unwrap_err();
            assert_eq!(
                err,
                StorageError::TxidCountMismatch { transactions: 2, txids: short.len() }
            );
        }
        let long = [all[0], all[1], all[0]];
        let err = set.try_ingest_block(&txs, &long, 0, &mut meter).unwrap_err();
        assert_eq!(err, StorageError::TxidCountMismatch { transactions: 2, txids: 3 });
        // Nothing was written or charged: the set still takes height 0.
        assert!(set.is_empty());
        assert_eq!(meter.instructions(), 0);
        set.try_ingest_block(&txs, &all, 0, &mut meter).expect("ingest");
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn byte_size_is_pages_actually_allocated() {
        let (mut set, mut meter) = fresh();
        assert_eq!(set.byte_size(), 0, "no pages before the first insert");
        ingest(&mut set, &[pay_tx(None, &[(1, 1), (2, 2), (3, 3)])], 0, &mut meter);
        let page_size = set.storage_config().page_size as u64;
        assert_eq!(set.byte_size() % page_size, 0, "whole pages only");
        assert_eq!(set.byte_size(), set.storage_stats().bytes_reserved);
        // Two maps, each one leaf page at this size.
        assert_eq!(set.byte_size(), 2 * page_size);
        let stats = set.storage_stats();
        assert!(stats.bytes_used > 0 && stats.bytes_used <= stats.bytes_reserved);
        assert_eq!(stats.entries, 6, "3 outpoints + 3 index entries");
    }

    #[test]
    fn byte_size_reflects_script_length() {
        // The flat 650-bytes-per-UTXO model ignored script variance; the
        // engine sizes entries by their serialized length, so fatter
        // scripts fill pages faster.
        let fill = |script_len: usize| -> u64 {
            let mut set = UtxoSet::new(Network::Regtest);
            let mut meter = Meter::new();
            for height in 0..40u64 {
                let tx = Transaction {
                    version: 2,
                    inputs: vec![TxIn::new(OutPoint::new(Txid([height as u8; 32]), 7777))],
                    outputs: (0..50)
                        .map(|_| {
                            TxOut::new(
                                Amount::from_sat(1000),
                                Script::from_bytes(vec![0x51; script_len]),
                            )
                        })
                        .collect(),
                    lock_time: 0,
                };
                ingest(&mut set, &[tx], height, &mut meter);
            }
            set.byte_size()
        };
        let thin = fill(22);
        let fat = fill(500);
        assert!(
            fat >= 2 * thin,
            "same UTXO count must cost more pages with fat scripts: {thin} vs {fat}"
        );
    }

    #[test]
    fn ingest_past_the_budget_fails_loudly_not_silently() {
        let mut set = UtxoSet::with_config(
            Network::Regtest,
            StorageConfig { page_size: 512, byte_budget: 4 * 512 },
        );
        let mut meter = Meter::new();
        let mut height = 0u64;
        let error = loop {
            let outputs: Vec<(u8, u64)> = (0..30).map(|i| (i as u8, 100)).collect();
            match try_ingest(&mut set, &[pay_tx(None, &outputs)], height, &mut meter) {
                Ok(()) => height += 1,
                Err(error) => break error,
            }
            assert!(height < 1000, "budget must eventually exhaust");
        };
        assert!(matches!(error, StorageError::BudgetExhausted { .. }), "{error:?}");
        assert_eq!(set.storage_stats().budget_headroom, 0);
    }

    #[test]
    fn state_hash_memo_is_cleared_by_every_ingest_even_a_failed_one() {
        let mut set = UtxoSet::with_config(
            Network::Regtest,
            StorageConfig { page_size: 512, byte_budget: 4 * 512 },
        );
        // A deserialized copy starts with an empty memo.
        let fresh_hash =
            |set: &UtxoSet| UtxoSet::deserialize(&set.serialize()).unwrap().state_hash();
        let mut meter = Meter::new();
        for height in 0..1000u64 {
            let memo = set.state_hash();
            assert_eq!(memo, fresh_hash(&set));
            let outputs: Vec<(u8, u64)> = (0..30).map(|i| (i as u8, 100 + height)).collect();
            let result = try_ingest(&mut set, &[pay_tx(None, &outputs)], height, &mut meter);
            // Partly applied or whole, the block moved the content.
            assert_ne!(fresh_hash(&set), memo, "height {height}");
            assert_eq!(set.state_hash(), fresh_hash(&set), "height {height}");
            if let Err(error) = result {
                assert!(matches!(error, StorageError::BudgetExhausted { .. }), "{error:?}");
                return;
            }
        }
        panic!("budget must eventually exhaust");
    }

    #[test]
    fn snapshot_len_is_the_serialized_length() {
        let (mut set, mut meter) = fresh();
        assert_eq!(set.snapshot_len(), set.serialize().len() as u64);
        let mut tx = pay_tx(None, &[(1, 100), (2, 200)]);
        tx.outputs.push(TxOut::new(Amount::from_sat(50), Script::from_bytes(vec![0xde; 300])));
        ingest(&mut set, &[tx], 0, &mut meter);
        assert_eq!(set.snapshot_len(), set.serialize().len() as u64);
    }

    #[test]
    fn serialize_roundtrips_and_is_layout_independent() {
        let (mut set, mut meter) = fresh();
        for height in 0..30u64 {
            let tx = pay_tx(None, &[((height % 5) as u8, 100 + height), (9, 7)]);
            ingest(&mut set, &[tx], height, &mut meter);
        }
        let bytes = set.serialize();
        assert_eq!(bytes, set.serialize(), "serialization is deterministic");

        let restored = UtxoSet::deserialize(&bytes).unwrap();
        assert_eq!(restored.len(), set.len());
        assert_eq!(restored.next_height(), set.next_height());
        assert_eq!(restored.network(), set.network());
        for n in 0..5u8 {
            assert_eq!(
                restored.utxos_of(&addr(n), &mut Meter::new()),
                set.utxos_of(&addr(n), &mut Meter::new()),
                "address {n}"
            );
        }
        // Round-trip is byte-identical and so is the state hash, even
        // though the restored set's page layout history differs.
        assert_eq!(restored.serialize(), bytes);
        assert_eq!(restored.state_hash(), set.state_hash());
    }

    #[test]
    fn deserialize_builds_the_pages_reinsertion_does_or_fails_alike() {
        let config = StorageConfig { page_size: 512, byte_budget: 1 << 20 };
        let mut set = UtxoSet::with_config(Network::Regtest, config);
        let mut meter = Meter::new();
        for height in 0..40u64 {
            let payees: Vec<(u8, u64)> =
                (0..6).map(|i| ((height as u8 + i) % 9, 1_000 + height)).collect();
            ingest(&mut set, &[pay_tx(None, &payees)], height, &mut meter);
        }
        let bytes = set.serialize();
        let pages = UtxoSet::deserialize(&bytes).unwrap().storage_stats().pages_allocated;
        let live = |pool: &PagePool| -> Vec<Vec<u8>> {
            (0..pool.pages_allocated() as u32)
                .map(|id| btree::live_bytes(pool.page(id)).to_vec())
                .collect()
        };
        let (mut restored, mut failed) = (0, 0);
        for budget_pages in [1, pages / 3, pages - 2, pages, pages + 5] {
            // The snapshot with its declared budget cut, at offset 15.
            let byte_budget = budget_pages * 512;
            let mut snapshot = bytes.clone();
            snapshot[15..23].copy_from_slice(&byte_budget.to_be_bytes());
            // The same entries inserted one by one under that budget.
            let mut pool = PagePool::new(StorageConfig { page_size: 512, byte_budget });
            let mut maps = [PagedMap::new(), PagedMap::new()];
            let reinserted = [set.by_outpoint, set.by_address].iter().zip(&mut maps).try_for_each(
                |(source, map)| {
                    source
                        .iter(&set.pool)
                        .try_for_each(|(k, v)| map.insert(&mut pool, k, v).map(|_| ()))
                },
            );
            match UtxoSet::deserialize(&snapshot) {
                Ok(copy) => {
                    restored += 1;
                    assert_eq!(reinserted, Ok(()), "{budget_pages} pages");
                    assert_eq!(live(&copy.pool), live(&pool), "{budget_pages} pages");
                    assert_eq!(copy.serialize(), snapshot);
                }
                Err(err) => {
                    failed += 1;
                    assert!(matches!(err, StorageError::BudgetExhausted { .. }), "{err:?}");
                    assert_eq!(Err(err), reinserted, "{budget_pages} pages");
                }
            }
        }
        assert!(restored > 0 && failed > 0, "{restored} restored, {failed} failed");
    }

    #[test]
    fn deserialize_rejects_corrupt_snapshots() {
        let (mut set, mut meter) = fresh();
        ingest(&mut set, &[pay_tx(None, &[(1, 5)])], 0, &mut meter);
        let good = set.serialize();

        let corrupt = |bytes: &[u8]| UtxoSet::deserialize(bytes).err();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(corrupt(&bad_magic), Some(StorageError::Corrupt("bad magic")));

        let mut bad_version = good.clone();
        bad_version[9] = 0xFF;
        assert_eq!(corrupt(&bad_version), Some(StorageError::Corrupt("unknown snapshot version")));

        let truncated = &good[..good.len() - 3];
        assert_eq!(corrupt(truncated), Some(StorageError::Corrupt("truncated snapshot")));

        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(corrupt(&trailing), Some(StorageError::Corrupt("trailing bytes")));

        assert!(UtxoSet::deserialize(&good).is_ok(), "the original still parses");
    }

    #[test]
    fn deserialize_accepts_only_the_canonical_encoding() {
        let (mut set, mut meter) = fresh();
        ingest(&mut set, &[pay_tx(None, &[(1, 5), (2, 6)])], 0, &mut meter);
        let good = set.serialize();
        let corrupt = |bytes: &[u8]| UtxoSet::deserialize(bytes).err();

        // Header: magic, version, network, then the page size.
        let mut bad_page = good.clone();
        bad_page[11..15].copy_from_slice(&1u32.to_be_bytes());
        assert_eq!(corrupt(&bad_page), Some(StorageError::Corrupt("page size out of range")));

        // Each map's two entries, swapped out of key order.
        let outpoints = 31 + 8;
        let outpoint_entry = 2 + 36 + 2 + 16 + addr(1).script_pubkey().len();
        let index = outpoints + 2 * outpoint_entry + 8;
        let index_entry = (good.len() - index) / 2;
        for (start, entry) in [(outpoints, outpoint_entry), (index, index_entry)] {
            let mut swapped = good.clone();
            swapped[start..start + 2 * entry].rotate_left(entry);
            assert_eq!(
                corrupt(&swapped),
                Some(StorageError::Corrupt("malformed or out-of-order entry")),
                "entries at {start}"
            );
        }
        assert!(UtxoSet::deserialize(&good).is_ok());
    }

    #[test]
    fn fig6_split_is_roughly_even_on_balanced_blocks() {
        let (mut set, mut meter) = fresh();
        // Block 0: create 50 outputs.
        let creators: Vec<Transaction> = (0..50).map(|i| pay_tx(None, &[(i as u8, 100)])).collect();
        ingest(&mut set, &creators, 0, &mut meter);
        // Block 1: spend all 50, creating 50 new ones.
        let spends: Vec<Transaction> = creators
            .iter()
            .enumerate()
            .map(|(i, c)| pay_tx(Some(OutPoint::new(c.txid(), 0)), &[(200 - i as u8, 90)]))
            .collect();
        let mut block1 = Meter::new();
        ingest(&mut set, &spends, 1, &mut block1);
        let insert = split(&block1, "output_insertion") as f64;
        let remove = split(&block1, "input_removal") as f64;
        let share = insert / (insert + remove);
        assert!((0.35..0.65).contains(&share), "insert share {share}");
    }

    #[test]
    fn split_frames_wrap_the_leaf_frames_at_zero_self_cost() {
        let (mut set, mut meter) = fresh();
        let coinbase = pay_tx(None, &[(1, 5000)]);
        ingest(&mut set, std::slice::from_ref(&coinbase), 0, &mut meter);
        let spend = pay_tx(Some(OutPoint::new(coinbase.txid(), 0)), &[(2, 3000), (1, 1900)]);
        let mut block1 = Meter::new();
        ingest(&mut set, &[spend], 1, &mut block1);
        // The same three leaf frames nest under each split frame, which
        // keeps no cost of its own.
        let frames = block1.profile().frames();
        for wrapper in ["input_removal", "output_insertion"] {
            let frame = frames.iter().find(|f| f.path == wrapper).unwrap();
            assert_eq!(frame.self_units, 0, "{wrapper} only groups its leaves");
            for leaf in ["script_parse", "utxo_apply", "by_address_index"] {
                let path = format!("{wrapper};{leaf}");
                assert!(frames.iter().any(|f| f.path == path), "missing {path}");
            }
        }
        assert_eq!(frames.iter().find(|f| f.path == "output_insertion").unwrap().calls, 2);
    }

    mod properties {
        use super::*;
        use icbtc_sim::testkit;

        /// Ingesting creator blocks then spending everything returns
        /// the set to empty: conservation of UTXOs.
        #[test]
        fn create_then_spend_all() {
            testkit::check(0xC4_0001, testkit::DEFAULT_CASES, |rng| {
                let values = testkit::vec_with(rng, 1..20, |r| testkit::u64_in(r, 1..10_000));
                let (mut set, mut meter) = fresh();
                let creators: Vec<Transaction> = values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| pay_tx(None, &[((i % 250) as u8, *v)]))
                    .collect();
                ingest(&mut set, &creators, 0, &mut meter);
                assert_eq!(set.len(), values.len());

                let spends: Vec<Transaction> = creators
                    .iter()
                    .map(|c| {
                        let mut tx = pay_tx(Some(OutPoint::new(c.txid(), 0)), &[(0, 1)]);
                        tx.outputs[0].script_pubkey = Script::new_op_return(b"burn");
                        tx
                    })
                    .collect();
                ingest(&mut set, &spends, 1, &mut meter);
                assert_eq!(set.len(), 0);
                assert_eq!(set.address_count(), 0);
            });
        }

        /// Every metered instruction of a block lands in exactly one of
        /// the per-transaction frames or Figure 6's two split frames, so
        /// the split plus hashing and decoding is the block's whole cost.
        #[test]
        fn split_plus_tx_overhead_is_the_block_total() {
            testkit::check(0xC4_0002, testkit::DEFAULT_CASES, |rng| {
                let (mut set, mut meter) = fresh();
                let creators: Vec<Transaction> = (0..testkit::u64_in(rng, 1..12))
                    .map(|i| {
                        let outputs = testkit::vec_with(rng, 1..4, |r| {
                            ((testkit::u64_in(r, 0..250) as u8), testkit::u64_in(r, 1..10_000))
                        });
                        let mut tx = pay_tx(None, &outputs);
                        tx.lock_time = i as u32;
                        if testkit::u64_in(rng, 0..4) == 0 {
                            tx.outputs.push(TxOut::new(Amount::ZERO, Script::new_op_return(b"x")));
                        }
                        tx
                    })
                    .collect();
                ingest(&mut set, &creators, 0, &mut meter);

                // Block 1 spends a random subset of known outputs plus
                // some unknown outpoints, and creates new outputs.
                let mut block = Vec::new();
                for creator in &creators {
                    let prev = if testkit::u64_in(rng, 0..3) == 0 {
                        OutPoint::new(Txid([0xEE; 32]), testkit::u64_in(rng, 0..9) as u32)
                    } else {
                        OutPoint::new(creator.txid(), 0)
                    };
                    let to = testkit::u64_in(rng, 0..250) as u8;
                    block.push(pay_tx(Some(prev), &[(to, testkit::u64_in(rng, 1..10_000))]));
                }
                let mut meter = Meter::new();
                ingest(&mut set, &block, 1, &mut meter);
                let attributed = ["output_insertion", "input_removal", "hashing", "tx_decode"]
                    .iter()
                    .map(|frame| split(&meter, frame))
                    .sum::<u64>();
                assert_eq!(attributed, meter.instructions());
                assert_eq!(
                    split(&meter, "input_removal"),
                    block.len() as u64 * metering::REMOVE_INPUT_BASE
                );
            });
        }
    }
}
