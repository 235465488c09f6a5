//! The Bitcoin adapter — §III-B of *"Enabling Bitcoin Smart Contracts on
//! the Internet Computer"* (ICDCS 2025).
//!
//! The adapter is the paper's first core building block: a sandboxed
//! per-replica process that connects the IC node directly to the Bitcoin
//! P2P network, with no bridge in between. It is deliberately lightweight
//! — an SPV-like client that validates headers but performs *no fork
//! resolution*, leaving chain selection to the Bitcoin canister's
//! δ-stability logic.
//!
//! * [`discovery`] — DNS-seeded address collection with the `t_l`/`t_u`
//!   watermarks, ℓ uniformly random connections (Lemma IV.1), and the
//!   peer table: each connection's silence clock, each node's
//!   misbehaviour score and time-limited ban.
//! * [`txcache`] — the 10-minute outbound transaction cache.
//! * [`BitcoinAdapter`] — header sync, block fetching with per-peer
//!   backoff and rotation, stall detection, and **Algorithm 1**
//!   ([`BitcoinAdapter::handle_request`]).

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod adapter;
pub mod discovery;
pub mod txcache;

pub use adapter::BitcoinAdapter;
pub use discovery::{eclipse_probability, ConnectionManager, Offence, BAN_DURATION, BAN_SCORE};
pub use txcache::TransactionCache;
