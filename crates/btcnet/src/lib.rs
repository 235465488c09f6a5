//! A deterministic simulation of the Bitcoin P2P network.
//!
//! This crate stands in for the real Bitcoin network in the reproduction
//! of *"Enabling Bitcoin Smart Contracts on the Internet Computer"*
//! (ICDCS 2025). The paper's Bitcoin adapter (§III-B) connects to real
//! Bitcoin nodes over the P2P protocol; here it connects to [`network::BtcNetwork`]
//! through external connections that speak the same message vocabulary:
//!
//! * [`messages`] — the P2P message subset the adapter uses (addr gossip,
//!   `getheaders`/`headers`, `inv`/`getdata`/`block`, `tx`).
//! * [`chain`] — per-node header trees with full validation (proof of
//!   work, retarget schedule, median-time-past) and fork tracking.
//! * [`node`] — the full-node state machine.
//! * [`miner`] — real (scaled-difficulty) proof-of-work block assembly.
//! * [`network`] — the event-driven fabric: topology, latency, Poisson
//!   block production, external adapter links.
//! * [`adversary`] — private-fork mining and hash-power race simulation
//!   for the §IV-A security experiments.
//! * [`faults`] — deterministic fault injection: link loss/jitter,
//!   partitions, crashes, churn, and misbehaving-peer modes, all driven
//!   by the network's seeded RNG.
//!
//! # Examples
//!
//! ```
//! use icbtc_btcnet::network::{BtcNetwork, NetworkConfig};
//! use icbtc_sim::SimTime;
//!
//! let mut net = BtcNetwork::new(NetworkConfig::regtest(5), 7);
//! net.run_until(SimTime::from_secs(3600));
//! println!("{} blocks in the first simulated hour", net.blocks_mined());
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod adversary;
pub mod chain;
pub mod faults;
pub mod messages;
pub mod miner;
pub mod network;
pub mod node;

pub use chain::{ChainStore, ValidationError};
pub use faults::{Churn, Crash, FaultPlan, LinkFaults, Misbehavior, Partition, CHAOS_NODES};
pub use messages::{ConnId, Inventory, Message, NodeId, PeerRef};
pub use network::{BtcNetwork, NetworkConfig};
pub use node::FullNode;
