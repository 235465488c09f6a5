//! Shared workload generation for the figure-regeneration harness.
//!
//! Every table and figure of the paper's §IV-B is regenerated by a binary
//! in `src/bin/`; this library holds the workloads they share:
//!
//! * [`chaingen`] — synthetic mainnet-shaped block streams (transaction,
//!   output and input counts around the 2023–2025 mainnet averages) that
//!   drive Figures 5 and 6.
//! * [`workload`] — the 1000-address query workload with the paper's
//!   published UTXO-count skew (517 addresses < 50 UTXOs, 159 in 50–199,
//!   113 in 200–999, 211 ≥ 1000), which drives Figure 7.
//! * [`report`] — paper-vs-measured table helpers.
//! * [`cli`] — the binaries' one flag parser and report emitter.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod chaingen;
pub mod cli;
pub mod report;
pub mod workload;
