//! Host-clock benchmark: the command-line entry point.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sync|ingest|query|recovery --seed N --seconds N --trace 0|1
//! ```
//!
//! Repeats episodes of the workload (set-up, measured rounds, output
//! checks) for `--seconds` of wall time, and at least five of them, each
//! after a few passes of the reference workload in [`calib`]. Prints
//! a metadata line, then, as the last line of stdout,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! traced run also writes every span to `.bench_traces/` as JSONL.

use std::io::Write;
use std::time::{Duration, Instant};

use icbtc_perfbench::report::{self, json_string, metrics_json};
use icbtc_perfbench::{calib, ingest, query, recovery, sync, trace, Episode};

/// Episodes per run at least: `setup_s` is a median over them, and every
/// round time a minimum over their repetitions of that round.
const MIN_EPISODES: usize = 5;
/// Passes of the reference workload before each episode.
const REFERENCE_PASSES: usize = 3;
/// No new episode starts after this much wall time.
const WALL_LIMIT: Duration = Duration::from_secs(120);
/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_traces";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: perfbench --workload sync|ingest|query|recovery --seed N --seconds N --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be a u64"))
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds must be positive"));
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                };
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let episode: fn(u64) -> Episode = match args.workload.as_str() {
        "sync" => sync::episode,
        "ingest" => ingest::episode,
        "query" => query::episode,
        "recovery" => recovery::episode,
        other => usage(&format!("unknown workload `{other}`")),
    };

    if args.trace {
        trace::install();
    }
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut episodes: Vec<Episode> = Vec::new();
    loop {
        let reference = trace::span("bench.reference", || {
            (0..REFERENCE_PASSES)
                .map(|_| calib::reference_ns())
                .min()
                .unwrap_or(0)
        });
        let mut done = trace::span("bench.episode", || episode(args.seed));
        done.reference_ns = reference;
        eprintln!(
            "# {} episode {}: reference {:.2} ms, setup {:.3} s, {} rounds in {:.3} s",
            args.workload,
            episodes.len() + 1,
            reference as f64 / 1e6,
            done.setup_ns() as f64 / 1e9,
            done.round_ns.len(),
            done.measured_ns() as f64 / 1e9
        );
        episodes.push(done);
        // Stop before an episode that would end past `--seconds`, so the
        // run's wall time stays within it once the minimum has run.
        let elapsed = start.elapsed();
        let per_episode = elapsed / episodes.len() as u32;
        let enough = episodes.len() >= MIN_EPISODES && elapsed + per_episode > budget;
        if enough || elapsed >= WALL_LIMIT {
            break;
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let peak_rss = report::peak_rss_mib();

    let metrics = match trace::finish() {
        Some(tracer) => {
            let path = format!("{TRACE_DIR}/{}-seed{}.jsonl", args.workload, args.seed);
            let written = std::fs::create_dir_all(TRACE_DIR)
                .and_then(|()| std::fs::File::create(&path))
                .map(std::io::BufWriter::new)
                .and_then(|mut out| {
                    tracer.write_jsonl(&mut out)?;
                    out.flush()
                });
            match written {
                Ok(()) => eprintln!("# {} spans written to {path}", tracer.spans().len()),
                Err(e) => eprintln!("warning: cannot write {path}: {e}"),
            }
            report::per_layer(&episodes, &tracer, wall_ns, trace::span_cost_ns())
        }
        None => report::end_to_end(&episodes, peak_rss),
    };

    // Every episode replays the same seed, so they must agree on the work.
    let deterministic = episodes
        .iter()
        .all(|e| e.round_ns.len() == episodes[0].round_ns.len());
    if !deterministic {
        eprintln!("check failed: episodes of one seed ran different round counts");
    }
    let attempted: u64 = episodes.iter().map(|e| e.attempted).sum::<u64>() + 1;
    let failed: u64 = episodes.iter().map(|e| e.failed).sum::<u64>() + u64::from(!deterministic);
    let rounds: usize = episodes.iter().map(|e| e.round_ns.len()).sum();
    println!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"episodes\": {}, \
         \"rounds\": {rounds}, \"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"profile\": {}, \
         \"peak_rss_mb\": {peak_rss:?}}}, \"detail\": {}}}",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        episodes.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_string(&report::cpu_model()),
        json_string(env!("PERFBENCH_RUSTC_VERSION")),
        json_string(env!("PERFBENCH_PROFILE")),
        metrics_json(&report::detail(&episodes)),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        attempted,
        metrics_json(&metrics)
    );
}
