//! Host-clock benchmark of the icbtc stack.
//!
//! Four workloads drive the layers only through their public functions:
//! [`sync`] (btcnet, adapters, subnet and canister catching up to a
//! regtest chain), [`ingest`] (mainnet-volume blocks folded into the UTXO
//! set), [`query`] (an open-loop query soak against a large address
//! population) and [`recovery`] (checkpoints, a shadow replica and crash
//! catch-ups on a large state). Each run repeats *episodes* of one
//! workload: build the inputs from the seed (timed as set-up), measure the
//! rounds, then check the outputs outside the timed region.
//!
//! With tracing on, every call into a layer is wrapped in a [`trace`] span
//! and the per-layer self times are reported instead of the end-to-end
//! metrics.

#![forbid(unsafe_code)]

pub mod calib;
pub mod canister;
pub mod ingest;
pub mod query;
pub mod recovery;
pub mod report;
pub mod sync;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use icbtc::canister::BitcoinCanister;

/// Profiler frames whose metered instructions are reported per layer.
pub const PROFILER_FRAMES: [&str; 7] = [
    "header_validate",
    "script_parse",
    "utxo_apply",
    "by_address_index",
    "cache_lookup",
    "range_scan",
    "unstable_overlay",
];

/// What one episode of a workload measured.
#[derive(Debug, Default)]
pub struct Episode {
    /// Fastest pass of the reference workload ([`calib`]) run just before
    /// the episode.
    pub reference_ns: u64,
    /// Host time spent generating the inputs.
    pub gen_ns: u64,
    /// Host time spent loading them into the stack (bulk load, shadow boot).
    pub load_ns: u64,
    /// Host time of every measured round, benchmark loop included.
    pub round_ns: Vec<u64>,
    /// Blocks the live canister accepted during the measured rounds.
    pub blocks_accepted: u64,
    /// Metered instructions the live canister spent ingesting them.
    pub ingest_instructions: u64,
    /// Live UTXOs at the end of the episode.
    pub utxos: u64,
    /// Storage bytes reserved at the end of the episode.
    pub bytes_reserved: u64,
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// Per-layer counters, summed over episodes.
    pub counters: BTreeMap<&'static str, f64>,
    /// Per-episode samples (latencies, catch-up times), pooled over episodes.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Episode {
    /// Set-up host time: generation plus load.
    pub fn setup_ns(&self) -> u64 {
        self.gen_ns + self.load_ns
    }

    /// Measured host time: the sum of the round times.
    pub fn measured_ns(&self) -> u64 {
        self.round_ns.iter().sum()
    }

    /// Adds `value` to counter `key`.
    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.counters.entry(key).or_insert(0.0) += value;
    }

    /// Appends one sample to series `key`.
    pub fn sample(&mut self, key: &'static str, value: f64) {
        self.samples.entry(key).or_default().push(value);
    }

    /// Counts one checked operation, and a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Records the canister-side state every workload reports: storage
    /// size, query-cache counters and the profiler's instruction frames.
    pub fn record_canister(&mut self, canister: &BitcoinCanister) {
        let utxos = canister.state().utxos();
        let storage = utxos.storage_stats();
        self.utxos = utxos.len() as u64;
        self.bytes_reserved = storage.bytes_reserved;
        self.add("storage.utxos", utxos.len() as f64);
        self.add("storage.pages", storage.pages_allocated as f64);
        self.add("storage.bytes_reserved", storage.bytes_reserved as f64);
        let metrics = &canister.obs().metrics;
        self.add(
            "qcache.hits",
            metrics.counter("canister_qcache_hits_total") as f64,
        );
        self.add(
            "qcache.misses",
            metrics.counter("canister_qcache_misses_total") as f64,
        );
        self.add(
            "canister.qcache.evictions",
            metrics.counter("canister_qcache_evictions_total") as f64,
        );
        self.add(
            "canister.qcache.invalidations",
            metrics.counter("canister_qcache_invalidations_total") as f64,
        );
        let mut frames: BTreeMap<&'static str, u64> = BTreeMap::new();
        for frame in canister.obs().prof.frames() {
            *frames.entry(frame.name).or_insert(0) += frame.self_units;
        }
        for name in PROFILER_FRAMES {
            let units = frames.get(name).copied().unwrap_or(0);
            self.add(report::instr_key(name), units as f64);
        }
    }
}

/// Runs `f` inside a span named `name` and returns its host time.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let out = trace::span(name, f);
    (out, start.elapsed().as_nanos() as u64)
}
