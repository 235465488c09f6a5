//! `icbtc-lint` — in-repo determinism & safety static analysis.
//!
//! The paper's correctness story rests on the adapter and canister being
//! *deterministic replicated state machines* (§II-A): δ-stability
//! (Definition II.1) and Algorithms 1–2 are only sound if every replica
//! computes bit-identical state. A single `HashMap` iteration in
//! replicated code, a wall-clock read, or target-dependent float rounding
//! silently invalidates every security lemma the harness reproduces.
//!
//! The workspace is hermetic (no registry dependencies since PR 1), so
//! clippy plugins and `syn` are unavailable; this crate is the in-repo
//! substrate that enforces those invariants instead, and is wired into
//! tier-1 verification (`scripts/verify.sh`).
//!
//! The analysis is layered (DESIGN.md §"Static analysis"): a lexer and
//! per-file token rules at the bottom, then a lightweight syntactic
//! parser feeding a workspace call graph rooted at the replicated
//! update entry points, with three cross-procedural dataflow rules on
//! top (panic reachability, node-local taint, metering completeness).
//!
//! * [`lexer`] — a lightweight Rust lexer so rules match tokens, not raw
//!   text (comments, strings, raw strings, lifetimes are handled).
//! * [`rules`] — the rule set with stable IDs (`ICL001`–`ICL014`).
//! * [`suppress`] — `// icbtc-lint: allow(<rule>) -- <reason>` inline
//!   suppressions (reason mandatory) and `node-local` definition markers.
//! * [`engine`] — per-file analysis with `#[cfg(test)]` region exemption.
//! * [`parser`] — syntactic items/impls/fns/calls extraction (no type
//!   inference).
//! * [`callgraph`] — the workspace call graph, update-entry roots, and
//!   deterministic reachability.
//! * [`analysis`] — the whole-workspace pipeline: token rules + dataflow
//!   rules + centralized suppressions + stale-suppression detection.
//! * [`workspace`] — crate discovery and the rule scope matrix.
//!
//! See DESIGN.md §"Static analysis & determinism invariants" for the rule
//! catalogue and the rationale tying each rule to the paper section it
//! protects.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod analysis;
pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod suppress;
pub mod workspace;
