//! From-scratch Bitcoin data model for the icbtc workspace.
//!
//! This crate is the Bitcoin substrate of the reproduction of *"Enabling
//! Bitcoin Smart Contracts on the Internet Computer"* (ICDCS 2025): the
//! data structures and consensus arithmetic the paper's Bitcoin adapter
//! (§III-B) and Bitcoin canister (§III-C) operate on.
//!
//! * [`hash`] — SHA-256, double SHA-256, HMAC-SHA-256, RIPEMD-160 and
//!   BIP-340 tagged hashes, implemented from scratch with standard test
//!   vectors, plus the [`Txid`]/[`BlockHash`]/[`MerkleRoot`] newtypes.
//! * [`encode`] — Bitcoin wire serialization (little-endian integers,
//!   `CompactSize` varints, length-prefixed lists).
//! * [`tx`] — transactions, inputs/outputs, [`Amount`] arithmetic.
//! * [`script`] — standard locking-script templates and the three
//!   signature-hash algorithms (legacy, BIP-143, BIP-341 key path).
//! * [`address`] — Base58Check and Bech32/Bech32m addresses.
//! * [`block`] — headers, blocks, Merkle roots.
//! * [`pow`] — compact targets, chain work, retargeting, median time past,
//!   and the header rules.
//! * [`tree`] — the header tree with its most-work tip: btcnet's chain
//!   store and the canister's unstable region share it.
//! * [`network`] — mainnet/testnet/regtest parameters and deterministic
//!   genesis blocks (difficulty scaled down for simulation; see DESIGN.md).
//! * [`builder`] — transaction construction for miners and contracts.
//! * [`U256`] — the 256-bit integer underlying targets and chain work.
//!
//! # Examples
//!
//! ```
//! use icbtc_bitcoin::{Address, AddressKind, Network};
//!
//! // The deterministic simulated genesis block satisfies its own target.
//! let genesis = Network::Regtest.genesis_block();
//! assert!(genesis.header.meets_pow_target());
//!
//! // Addresses render and parse in the standard formats.
//! let addr = Address::new(Network::Mainnet, AddressKind::P2wpkh([7; 20]));
//! assert!(addr.to_string().starts_with("bc1q"));
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod address;
pub mod block;
pub mod builder;
pub mod encode;
pub mod hash;
pub mod network;
pub mod pow;
pub mod script;
pub mod tree;
pub mod tx;
mod u256;

pub use address::{Address, AddressKind, ParseAddressError};
pub use block::{merkle_root, Block, BlockHeader};
pub use hash::{BlockHash, MerkleRoot, Txid};
pub use network::{Network, Params};
pub use pow::{CompactTarget, Work};
pub use script::{Script, ScriptKind};
pub use tree::{HeaderTree, StoredHeader};
pub use tx::{txids, Amount, OutPoint, Transaction, TxIn, TxOut};
pub use u256::U256;
