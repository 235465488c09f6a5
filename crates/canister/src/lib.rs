//! The Bitcoin canister — §III-C of *"Enabling Bitcoin Smart Contracts on
//! the Internet Computer"* (ICDCS 2025).
//!
//! The canister is the paper's second core building block: the smart
//! contract that makes the Bitcoin blockchain state available on the IC.
//! It stores only the UTXO set up to the newest difficulty-based δ-stable
//! block (the *anchor*) plus the unstable blocks above it, and exposes
//! `get_utxos` / `get_balance` / `send_transaction` to other canisters.
//!
//! * [`utxoset`] — the address-indexed stable UTXO set with storage-byte
//!   accounting (Figure 5).
//! * [`storage`] — the paged, byte-budgeted storage engine beneath it:
//!   B+-tree maps over fixed-size pages modeling stable memory.
//! * [`state`] — **Algorithm 2**: response validation, anchor advancement
//!   via δ-stability, fork pruning, the τ-lag synced flag.
//! * [`api`] — the endpoints with O(page) cursor pagination and
//!   confirmation filters.
//! * [`qcache`] — the tip-keyed query cache behind
//!   [`BitcoinCanister::query_cached`].
//! * [`canister`] — the [`icbtc_ic::StateMachine`] wrapper with cycles
//!   charges.
//! * [`metering`] — the calibrated instruction-cost model (Figures 6–7).

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod api;
pub mod canister;
pub mod metering;
pub mod qcache;
mod stable_chain;
pub mod state;
pub mod storage;
pub mod utxoset;

pub use api::{
    ApiError, GetBalanceResponse, GetBlockHeadersResponse, GetMetricsResponse, GetUtxosResponse,
    UtxosFilter, MAX_UTXOS_PER_PAGE,
};
pub use canister::{BitcoinCanister, CallOutcome, CanisterCall, CanisterReply};
pub use qcache::{CacheKey, QueryCache, DEFAULT_QUERY_CACHE_CAPACITY};
pub use state::{BitcoinCanisterState, IngestReport, RejectReason, UnstableBlock};
pub use storage::{StorageConfig, StorageError, StorageStats};
pub use utxoset::{Utxo, UtxoSet};
