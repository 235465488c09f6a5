//! Dump the deterministic observability layer for a full-system run.
//!
//! ```text
//! cargo run --release -p icbtc-bench --bin obs_trace -- \
//!     [--seed N] [--rounds N] [--json] [--trace-out PATH]
//! ```
//!
//! Boots the integrated system (simulated Bitcoin network + 13-replica
//! subnet + Bitcoin canister), runs it for `--rounds` consensus rounds,
//! then emits the merged metrics registry (text tables by default,
//! `snapshot_json()` with `--json`) on stdout and, with `--trace-out`,
//! the concatenated JSONL trace of all four layers to a file.
//!
//! Everything printed is a pure function of the seed: `scripts/verify.sh`
//! runs this binary twice with the same seed and `diff`s both outputs as
//! the observability determinism gate.

use icbtc::sim::SimTime;
use icbtc::system::{System, SystemConfig};
use icbtc_bench::cli::{write_or_exit, Flags};

const USAGE: &str = "\
usage: obs_trace [--seed N] [--rounds N] [--json] [--trace-out PATH]

--seed N        simulation seed (default 42)
--rounds N      consensus rounds to execute (default 200)
--json          print the merged metrics snapshot as JSON (default: text tables)
--trace-out P   write the JSONL trace of all layers to P";

struct Args {
    seed: u64,
    rounds: usize,
    json: bool,
    trace_out: Option<String>,
}

impl Args {
    fn parse(flags: &mut Flags) -> Args {
        let mut args = Args { seed: 42, rounds: 200, json: false, trace_out: None };
        while let Some(flag) = flags.next_flag() {
            match flag.as_str() {
                "--seed" => args.seed = flags.value("a u64"),
                "--rounds" => args.rounds = flags.value("a usize"),
                "--json" => args.json = true,
                "--trace-out" => args.trace_out = Some(flags.value("a path")),
                other => flags.unknown(other),
            }
        }
        args
    }
}

fn main() {
    let args = Args::parse(&mut Flags::from_env(USAGE));

    let mut system = System::new(SystemConfig::regtest(args.seed));
    // Give the Bitcoin network a head start so ingestion has blocks to
    // pull: one simulated hour of Poisson mining before the subnet runs.
    system.btc_mut().run_until(SimTime::from_secs(3600));
    system.run_rounds(args.rounds);

    let metrics = system.merged_metrics();
    if args.json {
        println!("{}", metrics.snapshot_json());
    } else {
        println!("# obs_trace: seed={} rounds={}", args.seed, args.rounds);
        println!("{}", metrics.snapshot_text());
    }

    if let Some(path) = args.trace_out {
        write_or_exit(&path, "trace", &system.trace_jsonl());
    }
}
