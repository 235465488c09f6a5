//! Chaos soak: one Bitcoin adapter against a deliberately hostile
//! simulated Bitcoin network.
//!
//! ```text
//! cargo run --release -p icbtc-bench --bin chaos_soak -- \
//!     [--seed N] [--plan NAME] [--recovery SECS] [--json] [--trace-out PATH]
//! ```
//!
//! Boots an 8-node regtest network, installs one of the built-in fault
//! plans (`loss`, `partition`, `churn`, `crash`, `stall`, `malformed`,
//! `mixed`, or `none`), and soaks a single adapter — header sync, block
//! fetch with backoff, peer scoring, stall detection — through the whole
//! fault window plus a recovery tail. A canister-like consumer drives
//! `GetSuccessors` throughout, so graceful-degradation paths (partial
//! responses, deferred fetches) are exercised too.
//!
//! On exit it prints the merged btcnet + adapter metrics registry (text
//! tables by default, `snapshot_json()` with `--json`) and, with
//! `--trace-out`, writes both layers' JSONL traces to a file. Everything
//! emitted is a pure function of `(seed, plan)`: `scripts/verify.sh`
//! runs this binary twice with the same arguments, `diff`s the
//! outputs, and requires the `--seed 42 --plan mixed --json` stdout to
//! equal the committed `BENCH_chaos_gate.json`.

use icbtc::adapter::BitcoinAdapter;
use icbtc::bitcoin::Network;
use icbtc::btcnet::network::{BtcNetwork, NetworkConfig};
use icbtc::btcnet::{FaultPlan, CHAOS_NODES};
use icbtc::core::{GetSuccessorsRequest, IntegrationParams};
use icbtc::sim::obs::MetricsRegistry;
use icbtc::sim::{SimDuration, SimTime};
use icbtc_bench::cli::{write_or_exit, Flags};

struct Args {
    seed: u64,
    plan: FaultPlan,
    plan_name: String,
    recovery_secs: u64,
    json: bool,
    trace_out: Option<String>,
}

impl Args {
    fn parse(flags: &mut Flags) -> Args {
        let (mut seed, mut plan_name, mut recovery_secs) = (42, "mixed".to_string(), 1800);
        let (mut json, mut trace_out) = (false, None);
        while let Some(flag) = flags.next_flag() {
            match flag.as_str() {
                "--seed" => seed = flags.value("a u64"),
                "--plan" => plan_name = flags.value("a name"),
                "--recovery" => recovery_secs = flags.value("seconds (u64)"),
                "--json" => json = true,
                "--trace-out" => trace_out = Some(flags.value("a path")),
                other => flags.unknown(other),
            }
        }
        let plan = match plan_name.as_str() {
            "none" => FaultPlan::none(),
            name => FaultPlan::builtin(name)
                .unwrap_or_else(|| flags.fail(&format!("unknown plan `{name}`"))),
        };
        Args { seed, plan, plan_name, recovery_secs, json, trace_out }
    }
}

fn usage() -> String {
    format!(
        "usage: chaos_soak [--seed N] [--plan NAME] [--recovery SECS] [--json] [--trace-out PATH]\n\
         \n\
         --seed N        simulation seed (default 42)\n\
         --plan NAME     fault plan: {}, or `none` (default mixed)\n\
         --recovery S    fault-free tail after the plan ends, seconds (default 1800)\n\
         --json          print the merged metrics snapshot as JSON (default: text tables)\n\
         --trace-out P   write the JSONL traces of both layers to P",
        FaultPlan::builtin_names().join(", ")
    )
}

fn main() {
    let args = Args::parse(&mut Flags::from_env(usage()));

    let mut net = BtcNetwork::new(NetworkConfig::regtest(CHAOS_NODES), args.seed);
    let deadline = args.plan.ends_at() + SimDuration::from_secs(args.recovery_secs);
    net.set_fault_plan(args.plan);

    // ℓ = 5 of 8 nodes: enough overlap that every plan's misbehaving
    // peers are actually talked to.
    let params = IntegrationParams::for_network(Network::Regtest).with_connections(5);
    let mut adapter = BitcoinAdapter::new(params, args.seed.wrapping_add(1));

    // Canister-like consumer state for the GetSuccessors drive.
    let genesis = Network::Regtest.genesis_block().header;
    let mut processed = Vec::new();
    let mut next_request = SimTime::ZERO;

    while net.now() < deadline {
        adapter.step(&mut net);
        if net.now() >= next_request {
            let request = GetSuccessorsRequest {
                anchor: genesis,
                anchor_height: 0,
                processed: processed.clone(),
                transactions: Vec::new(),
            };
            let response = adapter.handle_request(&mut net, &request);
            processed.extend(response.blocks.iter().map(|b| b.block_hash()));
            next_request = net.now() + SimDuration::from_secs(30);
        }
        net.run_until(net.now() + SimDuration::from_secs(5));
    }
    // A few fault-free upkeep passes so the final gauges settle.
    for _ in 0..5 {
        adapter.step(&mut net);
        net.run_until(net.now() + SimDuration::from_secs(5));
    }

    let mut metrics = MetricsRegistry::new();
    metrics.merge_from(&net.obs().metrics);
    metrics.merge_from(&adapter.obs().metrics);
    if args.json {
        println!("{}", metrics.snapshot_json());
    } else {
        println!(
            "# chaos_soak: seed={} plan={} deadline={}s",
            args.seed,
            args.plan_name,
            deadline.as_nanos() / 1_000_000_000
        );
        let heights: Vec<String> = (0..CHAOS_NODES)
            .map(|i| net.node(icbtc::btcnet::NodeId(i as u32)).chain().tip_height().to_string())
            .collect();
        println!(
            "# net tip={} adapter tip={} blocks consumed={} node heights=[{}]",
            net.best_height(),
            adapter.best_header_height(),
            processed.len(),
            heights.join(",")
        );
        println!("{}", metrics.snapshot_text());
    }

    if let Some(path) = args.trace_out {
        let mut out = String::new();
        out.push_str(&net.obs().trace.dump_jsonl());
        out.push_str(&adapter.obs().trace.dump_jsonl());
        write_or_exit(&path, "trace", &out);
    }
}
