//! `icbtc-obs`: deterministic observability for the simulation runtime.
//!
//! Four parts, all zero-dependency and fully deterministic:
//!
//! * [`MetricsRegistry`] — monotonic counters, gauges, and fixed-bucket
//!   histograms with static label sets. Storage is `BTreeMap`-backed so a
//!   snapshot walks metrics in a canonical order: the same seed always
//!   renders byte-identical text and JSON snapshots.
//! * [`Trace`] — structured `span_start` / `span_end` / `event` records
//!   stamped with sim-time (never wall-clock) and a monotonic sequence
//!   number, held in a ring buffer and dumpable as JSONL.
//! * [`Profiler`] — a sampling-free hierarchical frame profiler that
//!   attributes metered instructions / modeled service units to a stack
//!   of named frames, with per-frame self/total cost and call counts.
//! * [`Json`] — the one ordered, integer-only JSON writer; the registry
//!   snapshot, the trace JSONL and the harness reports all render
//!   through it.
//!
//! Every runtime layer (adapter, canister, IC subnet, btcnet) owns an
//! [`Obs`] instance; benches and tests read experiment numbers back out of
//! the registry instead of keeping hand-rolled tallies, so the instrumented
//! path and the reported path are the same code.
//!
//! # Determinism contract
//!
//! * Timestamps come from [`SimTime`](crate::SimTime) only.
//! * Metric values are integers (`u64` counters / histogram buckets, `i64`
//!   gauges); no float appears in the JSON snapshot, so rendering is exact.
//! * Iteration order is the `BTreeMap` key order of `(name, sorted labels)`.
//! * Trace sequence numbers are assigned in call order; a given seed
//!   produces the identical call order and therefore identical dumps.

mod json;
mod prof;
mod registry;
mod trace;

pub use json::Json;
pub use prof::{FrameStat, FrameToken, ProfScope, Profiler};
pub use registry::{
    FixedHistogram, MetricsRegistry, DEFAULT_BOUNDS, INSTRUCTION_BOUNDS, SNAPSHOT_SCHEMA_VERSION,
};
pub use trace::{FieldValue, SpanId, Trace, TraceKind, TraceRecord, DEFAULT_TRACE_CAPACITY};

/// One observability endpoint: a metrics registry plus a trace buffer,
/// tagged with the component (layer) that owns it.
///
/// # Examples
///
/// ```
/// use icbtc_sim::obs::Obs;
/// use icbtc_sim::SimTime;
///
/// let mut obs = Obs::new("adapter");
/// obs.metrics.inc("adapter_blocks_received_total");
/// obs.trace.event("adapter.block_received", SimTime::from_secs(5), &[]);
/// assert_eq!(obs.metrics.counter("adapter_blocks_received_total"), 1);
/// assert_eq!(obs.trace.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Obs {
    /// Labelled counters, gauges, and fixed-bucket histograms.
    pub metrics: MetricsRegistry,
    /// Ring-buffered structured trace.
    pub trace: Trace,
    /// Deterministic hierarchical frame profiler.
    pub prof: Profiler,
}

impl Obs {
    /// Creates an endpoint with the default trace capacity.
    pub fn new(component: &'static str) -> Obs {
        Obs::with_trace_capacity(component, DEFAULT_TRACE_CAPACITY)
    }

    /// Creates an endpoint whose trace ring buffer holds `capacity` records.
    pub fn with_trace_capacity(component: &'static str, capacity: usize) -> Obs {
        Obs {
            metrics: MetricsRegistry::new(),
            trace: Trace::new(component, capacity),
            prof: Profiler::new(),
        }
    }

    /// The component tag stamped on every trace record.
    pub fn component(&self) -> &'static str {
        self.trace.component()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_carries_component_tag() {
        let obs = Obs::new("canister");
        assert_eq!(obs.component(), "canister");
    }
}
