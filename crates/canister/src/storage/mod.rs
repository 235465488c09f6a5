//! Paged, bounded-memory storage engine beneath the stable UTXO set.
//!
//! The production Bitcoin canister does not keep its ≈ 100 GiB state
//! (Figure 5) in heap structures: it lives in *stable memory*, addressed
//! as fixed-size pages, with B-tree maps layered on top and an explicit
//! allocation budget (the `memory.rs` / `utxo_set/` split). This module
//! reproduces that shape at simulation scale:
//!
//! * `page` — a [`PagePool`]: fixed-size zero-initialised pages
//!   allocated against an explicit byte budget. Allocation past the
//!   budget fails with [`StorageError::BudgetExhausted`] — it never
//!   silently grows the heap.
//! * `btree` — [`PagedMap`]: a B+-tree keyed map whose nodes are pool
//!   pages. Variable-length keys and values are stored as sorted cells
//!   inside leaf pages; interior pages route by separator keys. Range
//!   scans walk a linked list of leaves, so pagination stays O(page).
//!
//! Both of `UtxoSet`'s maps (`by_outpoint` and the `by_address`
//! secondary index) share one pool, so [`StorageStats`] reports the
//! engine's true footprint: pages allocated, bytes used, and headroom
//! against the budget. Pages are never reclaimed once allocated —
//! production stable memory does not shrink either — but freed cells are
//! reused in place by later inserts.
//!
//! All layouts are deterministic functions of the insert/remove sequence:
//! same operations ⇒ byte-identical pages, which is what the storage
//! determinism gate in `scripts/verify.sh` checks.

pub(crate) mod btree;
pub(crate) mod codec;
pub(crate) mod page;

use std::fmt;

use icbtc_bitcoin::encode::DecodeError;

pub use btree::PagedMap;
pub use page::PagePool;

/// Default page size: 8 KiB. Large enough that a worst-case standard
/// script still fits in a cell (cells are capped at a quarter page so
/// splits always succeed), small enough that the memmove on an in-page
/// insert stays cheap.
pub const DEFAULT_PAGE_SIZE: usize = 8192;

/// Default byte budget: 4 GiB of modeled stable memory. Generous enough
/// that every in-repo workload fits; benchmarks and tests pass explicit
/// tighter budgets via [`StorageConfig`].
pub const DEFAULT_BYTE_BUDGET: u64 = 4 << 30;

/// Sizing of the paged store: how big pages are and how many bytes of
/// them may ever be allocated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StorageConfig {
    /// Bytes per page. Clamped to `[512, 32768]` by [`PagePool::new`]
    /// (in-page offsets are 16-bit).
    pub page_size: usize,
    /// Hard cap on total page bytes; allocation past it fails loudly.
    pub byte_budget: u64,
}

impl Default for StorageConfig {
    fn default() -> StorageConfig {
        StorageConfig { page_size: DEFAULT_PAGE_SIZE, byte_budget: DEFAULT_BYTE_BUDGET }
    }
}

/// Why a storage operation could not complete.
///
/// Any error leaves the *map structure* intact but may leave a compound
/// update (e.g. a UTXO insert plus its index entry) half-applied, so
/// callers treat errors as fatal for the affected state — fail loudly,
/// never silently continue past the budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// The byte budget cannot cover the pages this operation needs.
    BudgetExhausted {
        /// The configured cap.
        byte_budget: u64,
        /// Page bytes already allocated.
        bytes_reserved: u64,
        /// Bytes the failed allocation asked for.
        bytes_needed: u64,
    },
    /// A key/value pair too large for a page cell (cells are capped at a
    /// quarter page so node splits always succeed).
    EntryTooLarge {
        /// Encoded cell size of the rejected entry.
        entry_bytes: usize,
        /// Largest admissible cell for the configured page size.
        max_bytes: usize,
    },
    /// A serialized snapshot failed validation during deserialization.
    Corrupt(&'static str),
    /// A stable block arrived at a height other than the expected next
    /// one. Stable blocks extend a single finalized chain, so ingestion
    /// order is a caller-upheld protocol invariant — violating it would
    /// corrupt the height-keyed address index.
    OutOfOrderIngestion {
        /// The next height the set expects.
        expected: u64,
        /// The height the caller tried to ingest.
        got: u64,
    },
    /// A block's txid list is not one txid per transaction.
    TxidCountMismatch {
        /// Transactions in the block.
        transactions: usize,
        /// Txids supplied with them.
        txids: usize,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::BudgetExhausted { byte_budget, bytes_reserved, bytes_needed } => {
                write!(
                    f,
                    "byte budget exhausted: {bytes_reserved} of {byte_budget} bytes reserved, \
                     {bytes_needed} more needed"
                )
            }
            StorageError::EntryTooLarge { entry_bytes, max_bytes } => {
                write!(f, "entry of {entry_bytes} bytes exceeds the {max_bytes}-byte cell cap")
            }
            StorageError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            StorageError::OutOfOrderIngestion { expected, got } => {
                write!(
                    f,
                    "stable blocks must be ingested in order: expected height {expected}, \
                     got {got}"
                )
            }
            StorageError::TxidCountMismatch { transactions, txids } => {
                write!(f, "{txids} txids supplied for {transactions} transactions")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// A snapshot decoded through the wire codec's reader: bytes that end
/// early are a truncated snapshot, anything else a malformed one.
impl From<DecodeError> for StorageError {
    fn from(error: DecodeError) -> StorageError {
        StorageError::Corrupt(match error {
            DecodeError::UnexpectedEnd => "truncated snapshot",
            _ => "malformed snapshot",
        })
    }
}

/// Point-in-time footprint of the paged store, exported as canister
/// gauges (`canister_storage_*`) and in the fig5 bench report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Bytes per page.
    pub page_size: u64,
    /// The configured allocation cap.
    pub byte_budget: u64,
    /// Pages currently allocated.
    pub pages_allocated: u64,
    /// `pages_allocated × page_size` — what counts against the budget.
    pub bytes_reserved: u64,
    /// Live payload bytes: node headers plus entry cells (interior
    /// separator keys excluded, so this is a tight lower bound).
    pub bytes_used: u64,
    /// Budget minus reserved bytes.
    pub budget_headroom: u64,
    /// Entries across both maps.
    pub entries: u64,
    /// Serialized key+value bytes across both maps.
    pub entry_bytes: u64,
}
