//! # icbtc — Bitcoin smart contracts on a simulated Internet Computer
//!
//! A from-scratch, laptop-scale reproduction of *"Enabling Bitcoin Smart
//! Contracts on the Internet Computer"* (ICDCS 2025): the Bitcoin adapter
//! (§III-B, Algorithm 1), the Bitcoin canister (§III-C, Algorithm 2), the
//! δ-stability framework (§II-C), and every substrate they need — a
//! Bitcoin data model and simulated P2P network, a simulated IC subnet
//! with instruction metering and cycles accounting, and threshold
//! ECDSA/Schnorr signing — plus the evaluation harness regenerating the
//! paper's figures (see the `icbtc-bench` crate).
//!
//! ## Quick start
//!
//! ```
//! use icbtc::system::{System, SystemConfig};
//! use icbtc::contracts::Wallet;
//! use icbtc_sim::SimTime;
//!
//! // Spin up a regtest deployment: Bitcoin network + 13-replica subnet.
//! let mut system = System::new(SystemConfig::regtest(42));
//! // Let the Bitcoin network mine for a simulated hour, then sync.
//! system.btc_mut().run_until(SimTime::from_secs(3600));
//! assert!(system.sync_canister(3000));
//!
//! // A smart contract holds bitcoin under a threshold-derived address.
//! let wallet = Wallet::new("quickstart");
//! let address = wallet.address(&system);
//! println!("contract address: {address}");
//! ```
//!
//! ## Crate map
//!
//! | Crate | Paper section | Contents |
//! |---|---|---|
//! | [`icbtc_sim`] | — | deterministic discrete-event kernel |
//! | [`icbtc_bitcoin`] | §II-B | Bitcoin data model, PoW, addresses |
//! | [`icbtc_tecdsa`] | §I | secp256k1, threshold ECDSA/Schnorr |
//! | [`icbtc_btcnet`] | — | simulated Bitcoin P2P network |
//! | [`icbtc_ic`] | §II-A | simulated IC subnet |
//! | [`icbtc_core`] | §II-C | δ-stability, adapter⇄canister protocol |
//! | [`icbtc_adapter`] | §III-B | the Bitcoin adapter (Algorithm 1) |
//! | [`icbtc_canister`] | §III-C | the Bitcoin canister (Algorithm 2) |
//! | [`crate::system`] | §III-A | the integrated system |
//! | [`crate::contracts`] | §I | canister-held Bitcoin wallets |

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod contracts;
pub mod recovery;
pub mod system;

pub use contracts::{verify_spend, Wallet, WalletError};
pub use recovery::{CatchupReport, IngestRecord, RecoveryStats, UpgradeReport};
pub use system::{DowntimeAttack, QueryOutcome, ReplicatedOutcome, System, SystemConfig};

// Re-export the component crates under stable names so downstream users
// (and the examples/benches) need only depend on `icbtc`.
pub use icbtc_adapter as adapter;
pub use icbtc_bitcoin as bitcoin;
pub use icbtc_btcnet as btcnet;
pub use icbtc_canister as canister;
pub use icbtc_core as core;
pub use icbtc_ic as ic;
pub use icbtc_sim as sim;
pub use icbtc_tecdsa as tecdsa;
