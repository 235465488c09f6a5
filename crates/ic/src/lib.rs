//! A simulated Internet Computer subnet.
//!
//! This crate stands in for the ICP stack (§II-A of the paper) in the
//! reproduction: blockchain-based state machine replication with
//! deterministic finalization, unpredictable block-maker selection,
//! instruction-metered deterministic execution, and cycles-denominated
//! cost accounting.
//!
//! * [`consensus`] — rounds, the random beacon, Byzantine bookkeeping.
//! * [`subnet`] — the replicated state machine with per-round payloads
//!   (how the Bitcoin adapter's responses enter execution) and ingress
//!   batching.
//! * [`meter`] — WebAssembly-instruction metering ([`Meter`]).
//! * [`cycles`] — the calibrated fee constants and USD conversion behind
//!   §IV-B's cost figures.
//! * [`ingress`] — the calibrated latency constants for replicated and
//!   query calls (Figure 7).
//!
//! # Examples
//!
//! ```
//! use icbtc_ic::consensus::{ConsensusConfig, ConsensusEngine};
//! let mut engine = ConsensusEngine::new(ConsensusConfig::thirteen_replicas(), 1);
//! let info = engine.next_round();
//! assert!(!info.maker_is_byzantine);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod consensus;
pub mod cycles;
pub mod ingress;
pub mod lifecycle;
pub mod meter;
pub mod subnet;

pub use consensus::{ConsensusConfig, ConsensusEngine, ReplicaId, RoundInfo};
pub use cycles::Cycles;
pub use ingress::{IngressId, IngressPool};
pub use lifecycle::LifecyclePlan;
pub use meter::Meter;
pub use subnet::{
    CallResult, ExecutionContext, JournalRound, QueryPlaneConfig, RoundReport, StateMachine, Subnet,
    SubnetCheckpoint,
};
