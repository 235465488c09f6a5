//! Deterministic hot-path profile report over a full four-layer run.
//!
//! ```text
//! cargo run --release -p icbtc-bench --bin prof_report -- \
//!     [--seed N] [--blocks N] [--queries N] [--top N] [--out PATH]
//! ```
//!
//! Boots a regtest deployment, mines `--blocks` coinbases to a wallet
//! address, syncs the canister, issues `--queries` cached queries in a
//! fixed call mix, and prints [`System::profile_report`] — the merged
//! frame tree of all four layers (canister instructions; adapter, ic
//! and btcnet modeled service units) as a top-N self-cost table plus
//! collapsed-stack flamegraph lines. The output is a pure function of
//! the flags: `scripts/verify.sh` runs it twice and `diff`s the results
//! as the profiler determinism gate.

use icbtc::canister::CanisterCall;
use icbtc::contracts::Wallet;
use icbtc::sim::SimTime;
use icbtc::system::{System, SystemConfig};
use icbtc_bench::cli::{write_or_exit, Flags};

const USAGE: &str = "\
usage: prof_report [--seed N] [--blocks N] [--queries N] [--top N] [--out PATH]

--seed N     simulation seed (default 42)
--blocks N   coinbases mined to the probe wallet before syncing (default 12)
--queries N  cached queries issued after the sync (default 64)
--top N      rows in the self-cost table (default 25)
--out P      write the report to P (always printed to stdout)";

struct Args {
    seed: u64,
    blocks: usize,
    queries: u64,
    top: usize,
    out: Option<String>,
}

impl Args {
    fn parse(flags: &mut Flags) -> Args {
        let mut args = Args { seed: 42, blocks: 12, queries: 64, top: 25, out: None };
        while let Some(flag) = flags.next_flag() {
            match flag.as_str() {
                "--seed" => args.seed = flags.value("a u64"),
                "--blocks" => args.blocks = flags.value("a count"),
                "--queries" => args.queries = flags.value("a count"),
                "--top" => args.top = flags.value("a count"),
                "--out" => args.out = Some(flags.value("a path")),
                other => flags.unknown(other),
            }
        }
        args
    }
}

fn main() {
    let args = Args::parse(&mut Flags::from_env(USAGE));

    eprintln!(
        "# prof_report: seed {}, {} blocks, {} queries...",
        args.seed, args.blocks, args.queries
    );
    let mut system = System::new(SystemConfig::regtest(args.seed));
    let wallet = Wallet::new("prof-report-probe");
    let address = wallet.address(&system);
    system.btc_mut().run_until(SimTime::from_secs(1800));
    system.fund_address(&address, args.blocks);
    if !system.sync_canister(20_000) {
        eprintln!("error: canister failed to sync");
        std::process::exit(2);
    }

    // Fixed query mix over the same address: balance / first-page
    // get_utxos / fee percentiles, so the cache sees repeats (hits) and
    // the report covers both the cold and the cached query paths.
    for i in 0..args.queries {
        let call = match i % 4 {
            0 | 1 => CanisterCall::GetBalance { address, min_confirmations: 0 },
            2 => CanisterCall::GetUtxos { address, filter: None },
            _ => CanisterCall::GetFeePercentiles,
        };
        system.query_cached(call);
    }

    let report = system.profile_report(args.top);
    println!("{report}");
    if let Some(path) = &args.out {
        write_or_exit(path, "report", &report);
    }
}
