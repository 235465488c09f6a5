//! Deterministic discrete-event simulation kernel for the icbtc workspace.
//!
//! Every simulated component in this repository — the Bitcoin P2P network,
//! the Internet Computer subnet, the Bitcoin adapter — advances on the same
//! virtual clock and draws randomness from seeded generators, so every
//! experiment in the evaluation harness is exactly reproducible from a seed.
//!
//! The kernel is deliberately small:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution virtual clock.
//! * [`EventQueue`] — a time-ordered queue with deterministic FIFO tie-breaks.
//! * [`SimRng`] — a seeded random generator with the distribution helpers the
//!   simulations need (exponential inter-arrival times, rough normals, …).
//! * [`metrics`] — exact percentiles, series and text tables used by the
//!   benchmark harness to regenerate the paper's figures.
//! * [`obs`] — the deterministic observability layer: a labelled metrics
//!   registry and a sim-time-stamped structured trace, embedded in every
//!   runtime component and rendered as byte-stable snapshots.
//! * [`testkit`] — a seeded property-testing harness used by every crate's
//!   randomized tests, so the whole workspace tests offline with no
//!   external dependencies.
//!
//! # Examples
//!
//! ```
//! use icbtc_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::ZERO + SimDuration::from_millis(5), "world");
//! queue.push(SimTime::ZERO + SimDuration::from_millis(1), "hello");
//! let (t1, first) = queue.pop().unwrap();
//! let (t2, second) = queue.pop().unwrap();
//! assert_eq!((first, second), ("hello", "world"));
//! assert!(t1 < t2);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod metrics;
pub mod obs;
mod queue;
mod rng;
pub mod testkit;
mod time;

pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
