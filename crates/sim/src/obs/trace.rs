//! Structured, ring-buffered event trace stamped with sim-time.
//!
//! Records carry a monotonic sequence number assigned in call order: two
//! runs with the same seed issue the same calls in the same order, so the
//! JSONL dump is byte-identical. Timestamps are [`SimTime`] — wall-clock is
//! banned from the runtime (lint rule ICL001), and the trace respects that.

use std::collections::VecDeque;

use super::Json;
use crate::SimTime;

/// Default ring-buffer capacity (records).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// What a [`TraceRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The opening edge of a span; its `span` field is its own sequence
    /// number, which the matching [`TraceKind::SpanEnd`] repeats.
    SpanStart,
    /// The closing edge of a span.
    SpanEnd,
    /// A point event with no duration.
    Event,
}

impl TraceKind {
    fn as_str(self) -> &'static str {
        match self {
            TraceKind::SpanStart => "span_start",
            TraceKind::SpanEnd => "span_end",
            TraceKind::Event => "event",
        }
    }
}

/// Handle returned by [`Trace::span_start`]; pass to [`Trace::span_end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The sequence number of the span's start record.
    pub fn seq(self) -> u64 {
        self.0
    }
}

/// A field value attached to a trace record. Only integers and static
/// strings are representable, keeping the JSONL dump exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldValue {
    /// Unsigned integer payload (counts, heights, byte sizes).
    U64(u64),
    /// Signed integer payload.
    I64(i64),
    /// Static string payload (message kinds, method names).
    Str(&'static str),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl From<FieldValue> for Json {
    fn from(v: FieldValue) -> Json {
        match v {
            FieldValue::U64(n) => n.into(),
            FieldValue::I64(n) => n.into(),
            FieldValue::Str(s) => s.into(),
        }
    }
}

/// One trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Monotonic sequence number (keeps counting even when the ring drops
    /// old records).
    pub seq: u64,
    /// Sim-time at which the record was emitted.
    pub at: SimTime,
    /// Record kind.
    pub kind: TraceKind,
    /// Event or span name, e.g. `"adapter.get_successors"`.
    pub name: &'static str,
    /// For span edges, the sequence number of the span's start record.
    pub span: Option<u64>,
    /// Structured payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// Ring buffer of [`TraceRecord`]s for one component.
///
/// # Examples
///
/// ```
/// use icbtc_sim::obs::{FieldValue, Trace};
/// use icbtc_sim::SimTime;
///
/// let mut trace = Trace::new("adapter", 128);
/// let span = trace.span_start("adapter.get_successors", SimTime::from_secs(1), &[]);
/// trace.event("adapter.block_received", SimTime::from_secs(2), &[("height", FieldValue::U64(7))]);
/// trace.span_end(span, SimTime::from_secs(3), &[("blocks", FieldValue::U64(1))]);
/// assert_eq!(trace.len(), 3);
/// assert_eq!(trace.dump_jsonl().lines().count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Trace {
    component: &'static str,
    capacity: usize,
    records: VecDeque<TraceRecord>,
    next_seq: u64,
    dropped: u64,
}

impl Trace {
    /// Creates a trace whose ring buffer holds up to `capacity` records
    /// (capacity 0 disables recording entirely).
    pub fn new(component: &'static str, capacity: usize) -> Trace {
        Trace {
            component,
            capacity,
            records: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// The component tag stamped on every dumped record.
    pub fn component(&self) -> &'static str {
        self.component
    }

    /// Opens a span; close it with [`Trace::span_end`].
    pub fn span_start(
        &mut self,
        name: &'static str,
        at: SimTime,
        fields: &[(&'static str, FieldValue)],
    ) -> SpanId {
        let seq = self.next_seq;
        self.push(TraceRecord {
            seq,
            at,
            kind: TraceKind::SpanStart,
            name,
            span: Some(seq),
            fields: fields.to_vec(),
        });
        SpanId(seq)
    }

    /// Closes a span opened by [`Trace::span_start`].
    pub fn span_end(&mut self, span: SpanId, at: SimTime, fields: &[(&'static str, FieldValue)]) {
        self.push(TraceRecord {
            seq: self.next_seq,
            at,
            kind: TraceKind::SpanEnd,
            name: "",
            span: Some(span.0),
            fields: fields.to_vec(),
        });
    }

    /// Emits a point event.
    pub fn event(&mut self, name: &'static str, at: SimTime, fields: &[(&'static str, FieldValue)]) {
        self.push(TraceRecord {
            seq: self.next_seq,
            at,
            kind: TraceKind::Event,
            name,
            span: None,
            fields: fields.to_vec(),
        });
    }

    fn push(&mut self, record: TraceRecord) {
        self.next_seq += 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }

    /// Records currently held (oldest first).
    // icbtc-lint: node-local -- trace buffers are per-replica diagnostics; replicated execution must never read them
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of records currently held.
    // icbtc-lint: node-local -- per-replica trace occupancy
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no records are held.
    // icbtc-lint: node-local -- per-replica trace occupancy
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Ring-buffer capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records evicted (or never stored, when capacity is 0).
    // icbtc-lint: node-local -- per-replica drop count depends on local buffer pressure
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discards all held records; sequence numbering continues.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Dumps held records as JSONL, one inline [`Json`] record per line,
    /// oldest first.
    // icbtc-lint: node-local -- trace dumps are per-replica diagnostics
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            let mut fields = vec![
                ("component", Json::from(self.component)),
                ("seq", record.seq.into()),
                ("t_ns", record.at.as_nanos().into()),
                ("kind", record.kind.as_str().into()),
            ];
            if !record.name.is_empty() {
                fields.push(("name", record.name.into()));
            }
            if let Some(span) = record.span {
                fields.push(("span", span.into()));
            }
            let payload = record.fields.iter().map(|&(k, v)| (k, v.into())).collect();
            fields.push(("fields", Json::Object(payload)));
            out.push_str(&Json::Object(fields).render_inline());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let mut trace = Trace::new("test", 16);
        let s = trace.span_start("a", t(0), &[]);
        trace.event("b", t(1), &[]);
        trace.span_end(s, t(2), &[]);
        let seqs: Vec<u64> = trace.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(trace.records().nth(2).unwrap().span, Some(0));
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut trace = Trace::new("test", 2);
        trace.event("a", t(0), &[]);
        trace.event("b", t(1), &[]);
        trace.event("c", t(2), &[]);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.dropped(), 1);
        let names: Vec<&str> = trace.records().map(|r| r.name).collect();
        assert_eq!(names, vec!["b", "c"]);
        // Sequence numbering keeps counting past evictions.
        trace.event("d", t(3), &[]);
        assert_eq!(trace.records().last().unwrap().seq, 3);
    }

    #[test]
    fn zero_capacity_discards_everything() {
        let mut trace = Trace::new("test", 0);
        trace.event("a", t(0), &[]);
        assert!(trace.is_empty());
        assert_eq!(trace.dropped(), 1);
    }

    #[test]
    fn jsonl_dump_shape() {
        let mut trace = Trace::new("ic", 8);
        let s = trace.span_start("ic.round", t(5), &[("round", FieldValue::U64(1))]);
        trace.span_end(s, t(6), &[("msgs", FieldValue::U64(2)), ("maker", FieldValue::Str("n3"))]);
        let dump = trace.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{ \"component\": \"ic\", \"seq\": 0, \"t_ns\": 5000000000, \"kind\": \"span_start\", \
             \"name\": \"ic.round\", \"span\": 0, \"fields\": { \"round\": 1 } }"
        );
        assert!(lines[1].contains("\"kind\": \"span_end\", \"span\": 0"));
        assert!(lines[1].contains("\"maker\": \"n3\""));
    }

    #[test]
    fn dump_is_deterministic() {
        let build = || {
            let mut trace = Trace::new("x", 4);
            trace.event("e", t(1), &[("v", FieldValue::I64(-3))]);
            trace.dump_jsonl()
        };
        assert_eq!(build(), build());
    }
}
