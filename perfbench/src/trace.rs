//! Host-clock span tracer for the traced run.
//!
//! Spans are recorded only in the benchmark's own code, around calls into
//! a layer's public functions; the program itself is never instrumented.
//! Each span carries a name, the id of the round it belongs to, its
//! parent, and start/end times in nanoseconds since the tracer was
//! installed. Spans stay in memory and are written out as JSONL when the
//! run ends.
//!
//! A span's *self* time is its duration minus the time its child spans
//! cover, so the self times of all spans under one root sum to the root's
//! duration. When tracing is off, [`span`] costs one thread-local flag
//! read.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, `layer.call` (e.g. `canister.ingest`).
    pub name: &'static str,
    /// Id of the round (or setup phase) the span belongs to.
    pub id: u64,
    /// Index of the parent span, if any.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the tracer was installed.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was installed.
    pub end_ns: u64,
}

/// Aggregate over every span of one name.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Spans recorded.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times (durations minus child spans).
    pub self_ns: u64,
    /// Every duration, in recording order.
    pub durations_ns: Vec<u64>,
}

struct Open {
    span: u32,
    child_ns: u64,
}

/// The in-memory span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    id: u64,
    spans: Vec<Span>,
    stack: Vec<Open>,
    stats: BTreeMap<&'static str, SpanStats>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            id: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            stats: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> u32 {
        let index = self.spans.len() as u32;
        let parent = self.stack.last().map(|open| open.span);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id: self.id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(Open {
            span: index,
            child_ns: 0,
        });
        index
    }

    fn exit(&mut self, index: u32) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("span exits match enters");
        debug_assert_eq!(open.span, index, "spans close in stack order");
        let span = &mut self.spans[index as usize];
        span.end_ns = end_ns;
        let duration = end_ns - span.start_ns;
        let stats = self.stats.entry(span.name).or_default();
        stats.calls += 1;
        stats.total_ns += duration;
        stats.self_ns += duration.saturating_sub(open.child_ns);
        stats.durations_ns.push(duration);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
    }

    /// Every span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name aggregates.
    pub fn stats(&self) -> &BTreeMap<&'static str, SpanStats> {
        &self.stats
    }

    /// Aggregate for one span name (empty if it never ran).
    pub fn stat(&self, name: &str) -> SpanStats {
        self.stats.get(name).cloned().unwrap_or_default()
    }

    /// Sum of the self times of every span whose name starts with `prefix`.
    pub fn self_ns_with_prefix(&self, prefix: &str) -> u64 {
        self.stats
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, s)| s.self_ns)
            .sum()
    }

    /// Sum of the self times of every span.
    pub fn total_self_ns(&self) -> u64 {
        self.stats.values().map(|s| s.self_ns).sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (index, span) in self.spans.iter().enumerate() {
            let parent = match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"span\":{index},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.id, span.start_ns, span.end_ns
            )?;
        }
        Ok(())
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread.
pub fn install() {
    TRACER.set(Some(Tracer::new()));
    ENABLED.set(true);
}

/// Stops recording and hands back everything recorded.
pub fn finish() -> Option<Tracer> {
    ENABLED.set(false);
    TRACER.take()
}

/// Sets the id carried by spans opened from now on (the round number).
pub fn set_id(id: u64) {
    if ENABLED.get() {
        TRACER.with_borrow_mut(|tracer| {
            if let Some(tracer) = tracer {
                tracer.id = id;
            }
        });
    }
}

/// Runs `f` inside a span named `name`.
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.get() {
        return f();
    }
    let index = TRACER.with_borrow_mut(|tracer| tracer.as_mut().map(|t| t.enter(name)));
    let out = f();
    if let Some(index) = index {
        TRACER.with_borrow_mut(|tracer| {
            if let Some(tracer) = tracer {
                tracer.exit(index);
            }
        });
    }
    out
}

/// Host cost of recording one span, in nanoseconds: the mean over a burst
/// of empty spans in a scratch tracer. Multiplied by the number of spans
/// a run recorded, this estimates how much the tracing itself added.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let mut scratch = Tracer::new();
    let outer = scratch.enter("calibrate.outer");
    let start = Instant::now();
    for _ in 0..N {
        let inner = scratch.enter("calibrate.inner");
        scratch.exit(inner);
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    scratch.exit(outer);
    elapsed / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_duration() {
        install();
        span("root", || {
            span("child", || {
                span("grandchild", || std::hint::black_box(1 + 1))
            });
            span("child", || ());
        });
        let tracer = finish().unwrap();
        let root = tracer.stat("root");
        assert_eq!(root.calls, 1);
        assert_eq!(tracer.stat("child").calls, 2);
        assert_eq!(tracer.total_self_ns(), root.total_ns);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert_eq!(tracer.spans()[2].parent, Some(1));
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        assert_eq!(span("x", || 7), 7);
        assert!(finish().is_none());
    }
}
