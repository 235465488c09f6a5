//! Labelled metrics registry with deterministic snapshots.
//!
//! Modelled on the production `bitcoin-canister` metrics module: counters
//! and fixed-bucket `u64` histograms live in component state and are
//! rendered on demand. Everything is integer-valued so the JSON snapshot is
//! exact — two runs with the same seed produce byte-identical output.

use std::collections::BTreeMap;

use super::Json;
use crate::metrics::{humanize, Table};

/// Version stamped into every JSON snapshot.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

/// Default histogram bounds: a 1-2-5 ladder from 1 to 10^12.
///
/// Wide enough for byte counts, queue depths, and instruction counts alike;
/// register explicit bounds with [`MetricsRegistry::register_histogram`]
/// when a metric needs a tighter shape.
pub const DEFAULT_BOUNDS: &[u64] = &[
    1,
    2,
    5,
    10,
    20,
    50,
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
    20_000_000_000,
    50_000_000_000,
    100_000_000_000,
    200_000_000_000,
    500_000_000_000,
    1_000_000_000_000,
];

/// Instruction-count bounds mirroring the production canister's
/// `InstructionHistogram`: 500M-instruction-wide buckets up to 10B, plus the
/// implicit +Inf bucket.
pub const INSTRUCTION_BOUNDS: &[u64] = &[
    500_000_000,
    1_000_000_000,
    1_500_000_000,
    2_000_000_000,
    2_500_000_000,
    3_000_000_000,
    3_500_000_000,
    4_000_000_000,
    4_500_000_000,
    5_000_000_000,
    5_500_000_000,
    6_000_000_000,
    6_500_000_000,
    7_000_000_000,
    7_500_000_000,
    8_000_000_000,
    8_500_000_000,
    9_000_000_000,
    9_500_000_000,
    10_000_000_000,
];

/// Canonical metric identity: name plus label pairs sorted by key.
///
/// Labels are `&'static str` on both sides — label *sets* are static by
/// construction, which keeps recording allocation-light and guarantees the
/// `BTreeMap` walk order is a pure function of what was recorded.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: &'static str,
    labels: Vec<(&'static str, &'static str)>,
}

impl Key {
    fn new(name: &'static str, labels: &[(&'static str, &'static str)]) -> Key {
        let mut labels = labels.to_vec();
        labels.sort_unstable();
        Key { name, labels }
    }
}

/// A histogram with fixed `u64` bucket upper bounds plus an implicit +Inf
/// bucket, as in the production canister's `InstructionHistogram`.
#[derive(Debug, Clone)]
pub struct FixedHistogram {
    bounds: &'static [u64],
    /// One count per bound, plus the trailing +Inf bucket.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl FixedHistogram {
    fn new(bounds: &'static [u64]) -> FixedHistogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be strictly increasing");
        FixedHistogram {
            bounds,
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Bucket upper bounds (exclusive of the +Inf bucket).
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Per-bucket counts; the last entry is the +Inf bucket.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observed value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observed value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of observed values, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the quantile at `permille` (500 = p50, 990 = p99) by
    /// locating the bucket holding the rank-`⌈permille·count/1000⌉`
    /// observation and interpolating linearly inside it. Integer-only
    /// math; the error is bounded by the width of that bucket. Returns 0
    /// for an empty histogram.
    pub fn quantile_permille(&self, permille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let permille = permille.min(1000);
        let rank = permille.saturating_mul(self.count).div_ceil(1000).max(1);
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                // Bucket value range, tightened by the observed min/max.
                let lo = if idx == 0 { self.min() } else { self.bounds[idx - 1] };
                let hi = if idx < self.bounds.len() { self.bounds[idx].min(self.max) } else { self.max };
                let lo = lo.min(hi);
                let pos = rank - cum; // 1..=c within this bucket
                let est = lo + (hi - lo).saturating_mul(pos) / c;
                return est.clamp(self.min(), self.max);
            }
            cum += c;
        }
        self.max
    }

    /// Estimated median (see [`FixedHistogram::quantile_permille`]).
    pub fn p50(&self) -> u64 {
        self.quantile_permille(500)
    }

    /// Estimated 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile_permille(900)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile_permille(990)
    }

    fn merge(&mut self, other: &FixedHistogram) {
        if self.bounds != other.bounds {
            return;
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Deterministic registry of counters, gauges, and fixed-bucket histograms.
///
/// # Examples
///
/// ```
/// use icbtc_sim::obs::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.inc_with("btcnet_messages_total", &[("type", "inv")]);
/// m.inc_with("btcnet_messages_total", &[("type", "inv")]);
/// m.set_gauge("ic_ingress_queue_depth", 3);
/// m.observe("canister_ingest_instructions", 42);
/// assert_eq!(m.counter_with("btcnet_messages_total", &[("type", "inv")]), 2);
/// assert_eq!(m.gauge("ic_ingress_queue_depth"), 3);
/// assert!(m.snapshot_json().starts_with("{\n  \"schema_version\": 1"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, i64>,
    histograms: BTreeMap<Key, FixedHistogram>,
    /// Per-name bucket bounds; names not present use [`DEFAULT_BOUNDS`].
    bounds: BTreeMap<&'static str, &'static [u64]>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Increments an unlabelled counter by 1.
    pub fn inc(&mut self, name: &'static str) {
        self.add_with(name, &[], 1);
    }

    /// Adds `delta` to an unlabelled counter.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        self.add_with(name, &[], delta);
    }

    /// Increments a labelled counter by 1.
    pub fn inc_with(&mut self, name: &'static str, labels: &[(&'static str, &'static str)]) {
        self.add_with(name, labels, 1);
    }

    /// Adds `delta` to a labelled counter.
    pub fn add_with(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &'static str)],
        delta: u64,
    ) {
        let slot = self.counters.entry(Key::new(name, labels)).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Sets an unlabelled gauge.
    pub fn set_gauge(&mut self, name: &'static str, value: i64) {
        self.set_gauge_with(name, &[], value);
    }

    /// Sets a labelled gauge.
    pub fn set_gauge_with(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &'static str)],
        value: i64,
    ) {
        self.gauges.insert(Key::new(name, labels), value);
    }

    /// Registers explicit bucket bounds for all histograms named `name`.
    ///
    /// Must be called before the first `observe` of that name to take
    /// effect; later calls are ignored for already-materialised label sets.
    pub fn register_histogram(&mut self, name: &'static str, bounds: &'static [u64]) {
        self.bounds.insert(name, bounds);
    }

    /// Records one observation into an unlabelled histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.observe_with(name, &[], value);
    }

    /// Records one observation into a labelled histogram.
    pub fn observe_with(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &'static str)],
        value: u64,
    ) {
        let bounds = self.bounds.get(name).copied().unwrap_or(DEFAULT_BOUNDS);
        self.histograms
            .entry(Key::new(name, labels))
            .or_insert_with(|| FixedHistogram::new(bounds))
            .observe(value);
    }

    /// Reads an unlabelled counter (0 if never recorded).
    // icbtc-lint: node-local -- metrics are per-replica observability state; replicated execution must never read them back
    pub fn counter(&self, name: &'static str) -> u64 {
        self.counter_with(name, &[])
    }

    /// Reads a labelled counter (0 if never recorded).
    // icbtc-lint: node-local -- metrics are per-replica observability state; replicated execution must never read them back
    pub fn counter_with(
        &self,
        name: &'static str,
        labels: &[(&'static str, &'static str)],
    ) -> u64 {
        self.counters.get(&Key::new(name, labels)).copied().unwrap_or(0)
    }

    /// Sums a counter across all label sets sharing `name`.
    // icbtc-lint: node-local -- metrics are per-replica observability state; replicated execution must never read them back
    pub fn counter_total(&self, name: &'static str) -> u64 {
        self.counters.iter().filter(|(k, _)| k.name == name).map(|(_, v)| *v).sum()
    }

    /// Reads an unlabelled gauge (0 if never set).
    // icbtc-lint: node-local -- metrics are per-replica observability state; replicated execution must never read them back
    pub fn gauge(&self, name: &'static str) -> i64 {
        self.gauge_with(name, &[])
    }

    /// Reads a labelled gauge (0 if never set).
    // icbtc-lint: node-local -- metrics are per-replica observability state; replicated execution must never read them back
    pub fn gauge_with(&self, name: &'static str, labels: &[(&'static str, &'static str)]) -> i64 {
        self.gauges.get(&Key::new(name, labels)).copied().unwrap_or(0)
    }

    /// Reads an unlabelled histogram, if any observation was recorded.
    // icbtc-lint: node-local -- metrics are per-replica observability state; replicated execution must never read them back
    pub fn histogram(&self, name: &'static str) -> Option<&FixedHistogram> {
        self.histogram_with(name, &[])
    }

    /// Reads a labelled histogram, if any observation was recorded.
    // icbtc-lint: node-local -- metrics are per-replica observability state; replicated execution must never read them back
    pub fn histogram_with(
        &self,
        name: &'static str,
        labels: &[(&'static str, &'static str)],
    ) -> Option<&FixedHistogram> {
        self.histograms.get(&Key::new(name, labels))
    }

    /// Returns `true` if nothing has been recorded.
    // icbtc-lint: node-local -- metrics are per-replica observability state; replicated execution must never read them back
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Number of distinct (name, labels) series across all metric kinds.
    // icbtc-lint: node-local -- metrics are per-replica observability state; replicated execution must never read them back
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Folds another registry into this one: counters and histogram buckets
    /// add, gauges sum. Used to aggregate per-replica registries (e.g. the
    /// 13 adapters of a subnet) into one snapshot; histograms with
    /// mismatched bounds keep the existing shape.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (&name, &bounds) in &other.bounds {
            self.bounds.entry(name).or_insert(bounds);
        }
        for (key, value) in &other.counters {
            let slot = self.counters.entry(key.clone()).or_insert(0);
            *slot = slot.saturating_add(*value);
        }
        for (key, value) in &other.gauges {
            let slot = self.gauges.entry(key.clone()).or_insert(0);
            *slot = slot.saturating_add(*value);
        }
        for (key, hist) in &other.histograms {
            match self.histograms.get_mut(key) {
                Some(mine) => mine.merge(hist),
                None => {
                    self.histograms.insert(key.clone(), hist.clone());
                }
            }
        }
    }

    /// Renders the snapshot as aligned text tables (for reports).
    // icbtc-lint: node-local -- metrics are per-replica observability state; replicated execution must never read them back
    pub fn snapshot_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let mut t = Table::new(vec!["counter", "labels", "value"]);
            for (key, value) in &self.counters {
                t.row(vec![key.name.to_string(), format_labels(&key.labels), humanize(*value as f64)]);
            }
            out.push_str(&t.to_string());
        }
        if !self.gauges.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let mut t = Table::new(vec!["gauge", "labels", "value"]);
            for (key, value) in &self.gauges {
                t.row(vec![key.name.to_string(), format_labels(&key.labels), humanize(*value as f64)]);
            }
            out.push_str(&t.to_string());
        }
        if !self.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let mut t = Table::new(vec!["histogram", "labels", "count", "mean", "min", "max"]);
            for (key, hist) in &self.histograms {
                t.row(vec![
                    key.name.to_string(),
                    format_labels(&key.labels),
                    humanize(hist.count() as f64),
                    humanize(hist.mean()),
                    humanize(hist.min() as f64),
                    humanize(hist.max() as f64),
                ]);
            }
            out.push_str(&t.to_string());
        }
        out
    }

    /// Renders the snapshot as JSON (`schema_version` 1) with the
    /// [`Json`] document layout: one series per line.
    ///
    /// Every value is an integer and every list is walked in `BTreeMap`
    /// order, so equal registries render byte-identical strings.
    // icbtc-lint: node-local -- metrics are per-replica observability state; replicated execution must never read them back
    pub fn snapshot_json(&self) -> String {
        let series = |key: &Key, values: Vec<(&'static str, Json)>| {
            let labels = key.labels.iter().map(|&(k, v)| (k, Json::from(v))).collect();
            let mut fields = vec![("name", Json::from(key.name)), ("labels", Json::Object(labels))];
            fields.extend(values);
            Json::Object(fields)
        };
        let integers = |values: &[u64]| Json::Array(values.iter().map(|&v| v.into()).collect());
        let counters = self.counters.iter().map(|(k, &v)| series(k, vec![("value", v.into())]));
        let gauges = self.gauges.iter().map(|(k, &v)| series(k, vec![("value", v.into())]));
        let histograms = self.histograms.iter().map(|(k, h)| {
            let values = vec![
                ("count", h.count().into()),
                ("sum", h.sum().into()),
                ("p50", h.p50().into()),
                ("p90", h.p90().into()),
                ("p99", h.p99().into()),
                ("bounds", integers(h.bounds())),
                ("buckets", integers(h.buckets())),
            ];
            series(k, values)
        });
        let doc = Json::Object(vec![
            ("schema_version", u64::from(SNAPSHOT_SCHEMA_VERSION).into()),
            ("counters", Json::Array(counters.collect())),
            ("gauges", Json::Array(gauges.collect())),
            ("histograms", Json::Array(histograms.collect())),
        ]);
        let mut out = doc.render();
        out.push('\n');
        out
    }
}

fn format_labels(labels: &[(&'static str, &'static str)]) -> String {
    if labels.is_empty() {
        return "-".to_string();
    }
    let parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    parts.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::exact_quantile_permille;

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut m = MetricsRegistry::new();
        m.inc_with("msgs", &[("type", "inv")]);
        m.add_with("msgs", &[("type", "inv")], 2);
        m.inc_with("msgs", &[("type", "block")]);
        assert_eq!(m.counter_with("msgs", &[("type", "inv")]), 3);
        assert_eq!(m.counter_with("msgs", &[("type", "block")]), 1);
        assert_eq!(m.counter_with("msgs", &[("type", "tx")]), 0);
        assert_eq!(m.counter_total("msgs"), 4);
    }

    #[test]
    fn label_order_is_canonicalised() {
        let mut m = MetricsRegistry::new();
        m.inc_with("c", &[("a", "1"), ("b", "2")]);
        m.inc_with("c", &[("b", "2"), ("a", "1")]);
        assert_eq!(m.counter_with("c", &[("b", "2"), ("a", "1")]), 2);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("depth", 5);
        m.set_gauge("depth", -2);
        assert_eq!(m.gauge("depth"), -2);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut m = MetricsRegistry::new();
        m.register_histogram("lat", &[10, 100]);
        for v in [1, 10, 11, 1000] {
            m.observe("lat", v);
        }
        let h = m.histogram("lat").unwrap();
        assert_eq!(h.buckets(), &[2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1022);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 255.5).abs() < 1e-9);
    }

    /// Width of the histogram bucket that contains `value` — the
    /// estimator's documented error bound.
    fn bucket_width(bounds: &[u64], value: u64) -> u64 {
        let idx = bounds.partition_point(|&b| b < value);
        let lo = if idx == 0 { 0 } else { bounds[idx - 1] };
        let hi = if idx < bounds.len() { bounds[idx] } else { u64::MAX };
        hi - lo
    }

    #[test]
    fn percentiles_are_exact_on_bucket_aligned_uniform() {
        let mut m = MetricsRegistry::new();
        let mut values: Vec<u64> = (1..=1000).collect();
        for &v in &values {
            m.observe("lat", v);
        }
        let h = m.histogram("lat").unwrap();
        // Uniform 1..=1000 interpolates exactly on the 1-2-5 ladder.
        // The exact oracle shares the estimator's rank convention.
        let mut oracle = |permille| exact_quantile_permille(&mut values, permille).copied();
        assert_eq!(Some(h.p50()), oracle(500));
        assert_eq!(Some(h.p90()), oracle(900));
        assert_eq!(Some(h.p99()), oracle(990));
    }

    #[test]
    fn percentiles_within_bucket_width_of_oracle_on_skewed_distributions() {
        // Heavy head, long tail: 900 small values, 100 spread large ones.
        let mut values: Vec<u64> = Vec::new();
        values.extend(std::iter::repeat_n(37u64, 900));
        values.extend((0..100).map(|i| 10_000 + 137 * i));
        let mut m = MetricsRegistry::new();
        for &v in &values {
            m.observe("lat", v);
        }
        let h = m.histogram("lat").unwrap();
        for permille in [500, 900, 990] {
            let exact = *exact_quantile_permille(&mut values, permille).unwrap();
            let est = h.quantile_permille(permille);
            let band = bucket_width(DEFAULT_BOUNDS, exact);
            assert!(
                est.abs_diff(exact) <= band,
                "p{permille}: estimate {est} vs oracle {exact} exceeds bucket width {band}"
            );
        }
    }

    #[test]
    fn percentiles_clamp_to_observed_range() {
        let mut m = MetricsRegistry::new();
        for _ in 0..1000 {
            m.observe("lat", 42);
        }
        let h = m.histogram("lat").unwrap();
        // A point mass never interpolates outside [min, max].
        assert_eq!((h.p50(), h.p90(), h.p99()), (42, 42, 42));
        let empty = MetricsRegistry::new();
        assert!(empty.histogram("lat").is_none());
    }

    #[test]
    fn snapshot_json_includes_integer_percentiles() {
        let mut m = MetricsRegistry::new();
        m.register_histogram("lat", &[10, 100]);
        for v in [1, 10, 11, 99] {
            m.observe("lat", v);
        }
        let json = m.snapshot_json();
        let h = m.histogram("lat").unwrap();
        assert!(json.contains(&format!(
            "\"p50\": {}, \"p90\": {}, \"p99\": {}",
            h.p50(),
            h.p90(),
            h.p99()
        )));
        assert!(!json.contains('.'), "percentiles must render as integers");
    }

    #[test]
    fn histogram_default_bounds_cover_wide_range() {
        let mut m = MetricsRegistry::new();
        m.observe("x", 0);
        m.observe("x", u64::MAX);
        let h = m.histogram("x").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(*h.buckets().last().unwrap(), 1);
    }

    #[test]
    fn empty_histogram_reads_as_zero() {
        let mut m = MetricsRegistry::new();
        m.register_histogram("never", INSTRUCTION_BOUNDS);
        assert!(m.histogram("never").is_none());
        m.observe("once", 7);
        let h = m.histogram("once").unwrap();
        assert_eq!((h.min(), h.max(), h.count()), (7, 7, 1));
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.add("c", 1);
        b.add("c", 2);
        a.set_gauge("g", 10);
        b.set_gauge("g", 5);
        a.observe("h", 3);
        b.observe("h", 5);
        a.merge_from(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), 15);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 8);
    }

    #[test]
    fn snapshot_json_is_stable_and_integer_only() {
        let mut m = MetricsRegistry::new();
        m.inc_with("msgs", &[("type", "inv")]);
        m.set_gauge("depth", 4);
        m.register_histogram("lat", &[10]);
        m.observe("lat", 3);
        let json = m.snapshot_json();
        assert_eq!(json, m.snapshot_json());
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("{ \"name\": \"msgs\", \"labels\": { \"type\": \"inv\" }, \"value\": 1 }"));
        assert!(json.contains("\"bounds\": [10], \"buckets\": [1, 0]"));
        assert!(!json.contains('.'), "snapshot must not contain float values");
    }

    #[test]
    fn empty_snapshot_renders() {
        let m = MetricsRegistry::new();
        let json = m.snapshot_json();
        assert!(json.contains("\"counters\": []"));
        assert_eq!(m.snapshot_text(), "");
        assert!(m.is_empty());
    }

    #[test]
    fn snapshot_text_lists_all_kinds() {
        let mut m = MetricsRegistry::new();
        m.inc("a_total");
        m.set_gauge_with("b", &[("node", "0")], 2);
        m.observe("c", 9);
        let text = m.snapshot_text();
        assert!(text.contains("a_total"));
        assert!(text.contains("node=0"));
        assert!(text.contains("histogram"));
    }

    mod properties {
        use super::*;
        use crate::testkit;

        /// The snapshot is a pure function of recorded values — the order
        /// in which series are first touched must not matter.
        #[test]
        fn snapshot_independent_of_registration_order() {
            testkit::check(0x0B5_0001, 64, |rng| {
                let names: [&'static str; 4] = ["alpha", "beta", "gamma", "delta"];
                let mut ops: Vec<(usize, u64)> = (0..names.len())
                    .map(|i| (i, testkit::u64_in(rng, 1..1000)))
                    .collect();

                let mut forward = MetricsRegistry::new();
                for (i, v) in &ops {
                    forward.add(names[*i], *v);
                    forward.set_gauge(names[*i], *v as i64);
                    forward.observe(names[*i], *v);
                }

                // Shuffle deterministically via the harness RNG.
                for i in (1..ops.len()).rev() {
                    let j = testkit::u64_in(rng, 0..(i as u64 + 1)) as usize;
                    ops.swap(i, j);
                }
                let mut shuffled = MetricsRegistry::new();
                for (i, v) in &ops {
                    shuffled.add(names[*i], *v);
                    shuffled.set_gauge(names[*i], *v as i64);
                    shuffled.observe(names[*i], *v);
                }

                assert_eq!(forward.snapshot_json(), shuffled.snapshot_json());
                assert_eq!(forward.snapshot_text(), shuffled.snapshot_text());
            });
        }
    }
}
