//! Turns episodes (and, for the traced run, the span store) into the
//! named metrics the benchmark prints, plus the result metadata.

use crate::trace::{SpanStats, Tracer};
use crate::{calib, Episode, PROFILER_FRAMES};

/// A metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// The per-layer counter key of a profiler frame.
pub fn instr_key(frame: &str) -> &'static str {
    match frame {
        "header_validate" => "canister.instr.header_validate",
        "script_parse" => "canister.instr.script_parse",
        "utxo_apply" => "canister.instr.utxo_apply",
        "by_address_index" => "canister.instr.by_address_index",
        "cache_lookup" => "canister.instr.cache_lookup",
        "range_scan" => "canister.instr.range_scan",
        "unstable_overlay" => "canister.instr.unstable_overlay",
        _ => "canister.instr.other",
    }
}

/// The `q`-quantile (0 < q ≤ 1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn counter(episodes: &[Episode], key: &str) -> f64 {
    episodes
        .iter()
        .filter_map(|e| e.counters.get(key))
        .fold(0.0, |sum, v| sum + v)
}

fn pooled(episodes: &[Episode], key: &str) -> Vec<f64> {
    episodes
        .iter()
        .filter_map(|e| e.samples.get(key))
        .flatten()
        .copied()
        .collect()
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Host time of each round, in milliseconds, with noise filtered out.
///
/// The episodes of one run replay the same deterministic work (`main`
/// checks they run the same number of rounds), so round `k` of every
/// episode does the same thing: its fastest repetition is the best
/// estimate of its cost, since contention from other tenants only ever
/// adds time.
pub fn round_profile_ms(episodes: &[Episode]) -> Vec<f64> {
    let rounds = episodes.first().map_or(0, |e| e.round_ns.len());
    (0..rounds)
        .map(|k| {
            let fastest = episodes.iter().filter_map(|e| e.round_ns.get(k)).min();
            fastest.copied().unwrap_or(0) as f64 / 1e6
        })
        .collect()
}

/// The factor that brings host times of this run to the reference speed:
/// [`calib::NOMINAL_NS`] over the run's fastest reference pass. Like the
/// per-round minimum, the fastest pass is the host at its least contended.
/// 1 when no reference pass ran.
pub fn speed_scale(episodes: &[Episode]) -> f64 {
    let fastest = episodes
        .iter()
        .map(|e| e.reference_ns)
        .filter(|&ns| ns > 0)
        .min();
    fastest.map_or(1.0, |ns| calib::NOMINAL_NS as f64 / ns as f64)
}

/// [`round_profile_ms`] at the reference speed ([`speed_scale`]).
pub fn scaled_profile_ms(episodes: &[Episode]) -> Vec<f64> {
    let scale = speed_scale(episodes);
    round_profile_ms(episodes)
        .into_iter()
        .map(|ms| ms * scale)
        .collect()
}

/// Set-up time of one episode in seconds, at the reference speed measured
/// just before it.
fn scaled_setup_s(episode: &Episode) -> f64 {
    let seconds = episode.setup_ns() as f64 / 1e9;
    if episode.reference_ns == 0 {
        return seconds;
    }
    seconds * calib::NOMINAL_NS as f64 / episode.reference_ns as f64
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
/// Rates and round percentiles come from [`scaled_profile_ms`] and the
/// work of one episode; `setup_s` is the median over the episodes, each
/// brought to the reference speed by the pass just before it.
pub fn end_to_end(episodes: &[Episode], peak_rss_mib: f64) -> Vec<Metric> {
    let rounds = scaled_profile_ms(episodes);
    let seconds = rounds.iter().sum::<f64>() / 1e3;
    let n = episodes.len().max(1) as f64;
    let blocks = episodes
        .iter()
        .map(|e| e.blocks_accepted as f64)
        .sum::<f64>()
        / n;
    let instructions = episodes
        .iter()
        .map(|e| e.ingest_instructions as f64)
        .sum::<f64>()
        / n;
    let setup: Vec<f64> = episodes.iter().map(scaled_setup_s).collect();
    vec![
        ("setup_s", "s", median(&setup)),
        ("blocks_per_s", "blocks/s", ratio(blocks, seconds)),
        (
            "rounds_per_s",
            "rounds/s",
            ratio(rounds.len() as f64, seconds),
        ),
        ("round_ms_p50", "ms", quantile(&rounds, 0.5)),
        ("round_ms_p90", "ms", quantile(&rounds, 0.9)),
        ("peak_rss_mb", "MiB", peak_rss_mib),
        (
            "instr_per_block",
            "instructions",
            ratio(instructions, blocks),
        ),
    ]
}

/// Workload-specific end-to-end figures that do not apply to every
/// workload, printed with the metadata rather than as metrics. Host times
/// are at the reference speed, as in [`end_to_end`]; `reference_ms` is the
/// run's fastest reference pass, so dividing by [`speed_scale`] gives the
/// times as measured.
pub fn detail(episodes: &[Episode]) -> Vec<Metric> {
    let scale = speed_scale(episodes);
    let seconds = scaled_profile_ms(episodes).iter().sum::<f64>() / 1e3;
    let mut out = Vec::new();
    let queries = counter(episodes, "query.completed") / episodes.len().max(1) as f64;
    if queries > 0.0 {
        out.push(("queries_per_s", "queries/s", ratio(queries, seconds)));
        out.push((
            "instr_per_query",
            "instructions",
            ratio(
                counter(episodes, "query.instructions"),
                counter(episodes, "query.completed"),
            ),
        ));
        out.push((
            "query_model_ms_p99",
            "ms",
            quantile(&pooled(episodes, "query.model_ms"), 0.99),
        ));
    }
    let catchups = pooled(episodes, "recovery.catchup_s");
    if !catchups.is_empty() {
        out.push(("catchup_s", "s", median(&catchups) * scale));
    }
    let syncs = pooled(episodes, "sync.catchup_s");
    if !syncs.is_empty() {
        out.push(("sync_catchup_s", "s", median(&syncs) * scale));
    }
    out.push((
        "reference_ms",
        "ms",
        calib::NOMINAL_NS as f64 / scale / 1e6,
    ));
    out.push((
        "round_samples",
        "count",
        episodes.first().map_or(0, |e| e.round_ns.len()) as f64,
    ));
    let attempted: u64 = episodes.iter().map(|e| e.attempted).sum();
    let failed: u64 = episodes.iter().map(|e| e.failed).sum();
    out.push((
        "fail_ratio",
        "ratio",
        ratio(failed as f64, attempted as f64),
    ));
    out
}

fn merged(tracer: &Tracer, prefix: &str) -> SpanStats {
    let mut out = SpanStats::default();
    for (_, stats) in tracer
        .stats()
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
    {
        out.calls += stats.calls;
        out.total_ns += stats.total_ns;
        out.self_ns += stats.self_ns;
        out.durations_ns.extend_from_slice(&stats.durations_ns);
    }
    out
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn quantile_ns(stats: &SpanStats, q: f64, scale: f64) -> f64 {
    let values: Vec<f64> = stats
        .durations_ns
        .iter()
        .map(|&ns| ns as f64 / scale)
        .collect();
    quantile(&values, q)
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
/// `wall_ns` is the traced run's wall time; `span_cost_ns` the calibrated
/// cost of recording one span.
pub fn per_layer(
    episodes: &[Episode],
    tracer: &Tracer,
    wall_ns: u64,
    span_cost_ns: f64,
) -> Vec<Metric> {
    let n = episodes.len().max(1) as f64;
    let self_ms = |name: &str| ms(tracer.stat(name).self_ns);
    let ingest = tracer.stat("canister.ingest");
    let query = merged(tracer, "canister.query.");
    let state_hash = tracer.stat("canister.state_hash");
    let accepted = counter(episodes, "canister.blocks_accepted");
    let hits = counter(episodes, "qcache.hits");
    let misses = counter(episodes, "qcache.misses");
    let queries = counter(episodes, "query.completed");
    let gen: Vec<f64> = episodes.iter().map(|e| ms(e.gen_ns)).collect();
    let load: Vec<f64> = episodes.iter().map(|e| ms(e.load_ns)).collect();
    let spans = tracer.spans().len() as f64;
    // The benchmark loop's own time: every bench span except the set-up phases,
    // which `bench.gen.ms` and `bench.load.ms` report.
    let bench_self_ns = tracer.self_ns_with_prefix("bench.")
        - tracer.stat("bench.gen").self_ns
        - tracer.stat("bench.load").self_ns;
    let bytes_per_utxo: Vec<f64> = episodes
        .iter()
        .map(|e| ratio(e.bytes_reserved as f64, e.utxos as f64))
        .collect();
    let mut out: Vec<Metric> = vec![
        (
            "btcnet.run_until.self_ms",
            "ms",
            self_ms("btcnet.run_until"),
        ),
        (
            "btcnet.mine_block.self_ms",
            "ms",
            self_ms("btcnet.mine_block"),
        ),
        (
            "btcnet.messages",
            "count",
            counter(episodes, "btcnet.messages"),
        ),
        ("adapter.step.self_ms", "ms", self_ms("adapter.step")),
        (
            "adapter.handle_request.self_ms",
            "ms",
            self_ms("adapter.handle_request"),
        ),
        (
            "adapter.blocks_served",
            "count",
            counter(episodes, "adapter.blocks_served"),
        ),
        (
            "adapter.useful_ratio",
            "ratio",
            ratio(accepted, counter(episodes, "adapter.blocks_served")),
        ),
        ("ic.round.self_ms", "ms", self_ms("ic.round")),
        (
            "ic.query_batch.mean",
            "count",
            ratio(
                counter(episodes, "ic.query_batch.sum"),
                counter(episodes, "ic.query_batch.rounds"),
            ),
        ),
        (
            "ic.query_model_ms_p99",
            "ms",
            quantile(&pooled(episodes, "query.model_ms"), 0.99),
        ),
        ("canister.ingest.self_ms", "ms", ms(ingest.self_ns)),
        (
            "canister.ingest.ms_p50",
            "ms",
            quantile_ns(&ingest, 0.5, 1e6),
        ),
        (
            "canister.ingest.ms_p90",
            "ms",
            quantile_ns(&ingest, 0.9, 1e6),
        ),
        ("canister.ingest.calls", "count", ingest.calls as f64),
        ("canister.blocks_accepted", "count", accepted),
        (
            "canister.blocks_stabilized",
            "count",
            counter(episodes, "canister.blocks_stabilized"),
        ),
        (
            "canister.ingest_rejected",
            "count",
            counter(episodes, "canister.ingest_rejected"),
        ),
        (
            "canister.make_request.self_ms",
            "ms",
            self_ms("canister.make_request"),
        ),
        (
            "canister.sync_status.self_ms",
            "ms",
            self_ms("canister.sync_status"),
        ),
        (
            "canister.execute.self_ms",
            "ms",
            self_ms("canister.execute"),
        ),
        ("canister.query.self_ms", "ms", ms(query.self_ns)),
        ("canister.query.us_p50", "us", quantile_ns(&query, 0.5, 1e3)),
        (
            "canister.query.us_p99",
            "us",
            quantile_ns(&query, 0.99, 1e3),
        ),
        (
            "canister.query.get_utxos.us_p50",
            "us",
            quantile_ns(&tracer.stat("canister.query.get_utxos"), 0.5, 1e3),
        ),
        (
            "canister.query.get_balance.us_p50",
            "us",
            quantile_ns(&tracer.stat("canister.query.get_balance"), 0.5, 1e3),
        ),
        (
            "canister.query.fee_percentiles.us_p50",
            "us",
            quantile_ns(&tracer.stat("canister.query.fee_percentiles"), 0.5, 1e3),
        ),
        (
            "canister.query.instr_mean",
            "instructions",
            ratio(counter(episodes, "query.instructions"), queries),
        ),
        (
            "canister.output_bytes.self_ms",
            "ms",
            self_ms("canister.output_bytes"),
        ),
        (
            "canister.qcache.hit_ratio",
            "ratio",
            ratio(hits, hits + misses),
        ),
        (
            "canister.qcache.evictions",
            "count",
            counter(episodes, "canister.qcache.evictions"),
        ),
        (
            "canister.qcache.invalidations",
            "count",
            counter(episodes, "canister.qcache.invalidations"),
        ),
    ];
    for frame in PROFILER_FRAMES {
        let key = instr_key(frame);
        out.push((key, "instructions", counter(episodes, key)));
    }
    out.extend([
        (
            "storage.utxos",
            "count",
            counter(episodes, "storage.utxos") / n,
        ),
        (
            "storage.pages",
            "count",
            counter(episodes, "storage.pages") / n,
        ),
        (
            "storage.bytes_reserved",
            "B",
            counter(episodes, "storage.bytes_reserved") / n,
        ),
        ("storage.bytes_per_utxo", "B", median(&bytes_per_utxo)),
        ("canister.state_hash.self_ms", "ms", ms(state_hash.self_ns)),
        (
            "canister.state_hash.ms_p50",
            "ms",
            quantile_ns(&state_hash, 0.5, 1e6),
        ),
        (
            "canister.state_hash.calls",
            "count",
            state_hash.calls as f64,
        ),
        (
            "canister.checkpoint_bytes.self_ms",
            "ms",
            self_ms("canister.checkpoint_bytes"),
        ),
        (
            "canister.checkpoint_bytes.ms_p50",
            "ms",
            quantile_ns(&tracer.stat("canister.checkpoint_bytes"), 0.5, 1e6),
        ),
        (
            "checkpoint.bytes",
            "B",
            counter(episodes, "checkpoint.bytes") / n,
        ),
        ("shadow.reexec.self_ms", "ms", self_ms("shadow.reexec")),
        (
            "recovery.upgrade.self_ms",
            "ms",
            self_ms("recovery.upgrade"),
        ),
        (
            "recovery.catchup.self_ms",
            "ms",
            self_ms("recovery.replay_catchup"),
        ),
        (
            "recovery.catchup.ms_p50",
            "ms",
            quantile_ns(&tracer.stat("recovery.replay_catchup"), 0.5, 1e6),
        ),
        (
            "recovery.replayed_rounds",
            "count",
            counter(episodes, "recovery.replayed_rounds"),
        ),
        (
            "canister.restore.self_ms",
            "ms",
            self_ms("canister.restore"),
        ),
        (
            "canister.restore.ms",
            "ms",
            quantile_ns(&tracer.stat("canister.restore"), 0.5, 1e6),
        ),
        ("bench.gen.ms", "ms", median(&gen)),
        ("bench.load.ms", "ms", median(&load)),
        ("bench.self_ms", "ms", ms(bench_self_ns)),
        ("trace.wall_ms", "ms", ms(wall_ns)),
        (
            "trace.accounted_pct",
            "%",
            ratio(100.0 * tracer.total_self_ns() as f64, wall_ns as f64),
        ),
        ("trace.spans", "count", spans),
        (
            "trace.overhead_pct",
            "%",
            ratio(100.0 * spans * span_cost_ns, wall_ns as f64),
        ),
    ]);
    out
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The host's CPU model name.
pub fn cpu_model() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    cpuinfo
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(
            || "unknown".to_string(),
            |(_, model)| model.trim().to_string(),
        )
}

/// `value` as a JSON string literal.
pub fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `metrics` as a JSON object of `{"value": …, "unit": …}` entries. Values
/// are printed with every digit they have.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}
