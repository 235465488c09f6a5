//! Durability-and-recovery soak: a full integrated system under a
//! deterministic lifecycle plan — periodic checkpoints, canister
//! upgrades, replica crash–catch-up, and shadow-replica divergence
//! detection with seeded corruption.
//!
//! ```text
//! cargo run --release -p icbtc-bench --bin recovery_soak -- \
//!     [--seed N] [--rounds N] [--plan NAME] \
//!     [--cadence N --upgrades N --crashes N --corruptions N] \
//!     [--out PATH] [--metrics-out PATH]
//! ```
//!
//! With `--plan NAME` the named builtin lifecycle plan runs (see
//! `LifecyclePlan::builtin_names()`); with the randomized flags, the
//! schedule is drawn from the run's own seed, so a (seed, flags) pair
//! always produces the same schedule. The report (integers plus the
//! final state hash, schema_version 1) is a pure function of the flags:
//! `scripts/verify.sh` runs the binary twice at a small scale and
//! `diff`s the outputs as the recovery determinism gate, then requires the
//! report to equal the committed `BENCH_recovery_gate.json`.
//! Headline figures: MTTR (modeled restore + replay time) and replay
//! length per catch-up.

use icbtc::ic::LifecyclePlan;
use icbtc::sim::{SimRng, SimTime};
use icbtc::system::{System, SystemConfig};

struct Args {
    seed: u64,
    rounds: u64,
    mine_every: u64,
    plan: Option<String>,
    cadence: u64,
    upgrades: usize,
    crashes: usize,
    corruptions: usize,
    out: Option<String>,
    metrics_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 42,
        rounds: 60,
        mine_every: 5,
        plan: None,
        cadence: 10,
        upgrades: 0,
        crashes: 0,
        corruptions: 0,
        out: None,
        metrics_out: None,
    };
    let mut randomized = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().unwrap_or_else(|| usage(what));
        match flag.as_str() {
            "--seed" => {
                args.seed = value("--seed needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be a u64"));
            }
            "--rounds" => {
                args.rounds = value("--rounds needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--rounds must be a count"));
            }
            "--mine-every" => {
                args.mine_every = value("--mine-every needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--mine-every must be a round count"));
            }
            "--plan" => args.plan = Some(value("--plan needs a builtin name")),
            "--cadence" => {
                randomized = true;
                args.cadence = value("--cadence needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--cadence must be a round count"));
            }
            "--upgrades" => {
                randomized = true;
                args.upgrades = value("--upgrades needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--upgrades must be a count"));
            }
            "--crashes" => {
                randomized = true;
                args.crashes = value("--crashes needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--crashes must be a count"));
            }
            "--corruptions" => {
                randomized = true;
                args.corruptions = value("--corruptions needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--corruptions must be a count"));
            }
            "--out" => args.out = Some(value("--out needs a path")),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out needs a path")),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if args.plan.is_some() && randomized {
        usage("--plan and the randomized flags (--cadence/--upgrades/--crashes/--corruptions) are mutually exclusive");
    }
    if args.plan.is_none() && !randomized {
        args.plan = Some("mixed".to_string());
    }
    if args.rounds == 0 {
        usage("--rounds must be positive");
    }
    args
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: recovery_soak [--seed N] [--rounds N] [--plan NAME]\n\
         \u{20}                    [--cadence N --upgrades N --crashes N --corruptions N]\n\
         \u{20}                    [--out PATH] [--metrics-out PATH]\n\
         \n\
         --seed N         simulation seed (default 42)\n\
         --rounds N       IC rounds to run (default 60)\n\
         --mine-every N   force a Bitcoin block every N rounds so the tip keeps\n\
         \u{20}                moving during the soak (default 5, 0 = never)\n\
         --plan NAME      builtin lifecycle plan: checkpoints, upgrades, crashes,\n\
         \u{20}                corruption, mixed (default mixed)\n\
         --cadence N      randomized plan: checkpoint every N rounds (default 10)\n\
         --upgrades N     randomized plan: canister upgrades to schedule\n\
         --crashes N      randomized plan: crash/restart catch-ups to schedule\n\
         --corruptions N  randomized plan: shadow corruptions to schedule\n\
         --out P          write the JSON report to P (always printed to stdout)\n\
         --metrics-out P  write the merged metrics snapshot JSON to P"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn main() {
    let args = parse_args();

    let (plan, plan_name) = match &args.plan {
        Some(name) => {
            let plan = LifecyclePlan::builtin(name).unwrap_or_else(|| {
                usage(&format!(
                    "unknown plan `{name}` (builtins: {})",
                    LifecyclePlan::builtin_names().join(", ")
                ))
            });
            (plan, name.clone())
        }
        None => {
            // The schedule rides the run's own seed so (seed, flags) is
            // byte-reproducible.
            let mut rng = SimRng::seed_from(args.seed.wrapping_add(0x7ec0));
            let plan = LifecyclePlan::randomized(
                &mut rng,
                args.rounds,
                args.cadence,
                args.upgrades,
                args.crashes,
                args.corruptions,
            );
            (plan, "randomized".to_string())
        }
    };
    if plan.ends_at() > args.rounds {
        usage(&format!(
            "plan schedules events through round {} but the run is only {} rounds",
            plan.ends_at(),
            args.rounds
        ));
    }

    eprintln!(
        "# recovery_soak: {} rounds under plan `{plan_name}` (cadence {}, seed {})...",
        args.rounds, plan.checkpoint_every, args.seed
    );
    let cadence = plan.checkpoint_every;
    let mut system = System::new(SystemConfig::regtest(args.seed));
    system.btc_mut().run_until(SimTime::from_secs(3600));
    system.set_lifecycle_plan(plan);
    for round in 1..=args.rounds {
        // Keep the Bitcoin tip moving so checkpoints, catch-up replays,
        // and divergence checks exercise a live chain, not an idle one.
        if args.mine_every > 0 && round.is_multiple_of(args.mine_every) {
            system.btc_mut().mine_block_paying(
                icbtc::btcnet::NodeId(0),
                icbtc::bitcoin::Script::new_op_return(b"recovery_soak"),
            );
        }
        system.step_round();
    }

    let stats = system.recovery_stats().clone();
    let metrics = system.merged_metrics();
    let checkpoints_taken = metrics.counter("ic_checkpoint_total");
    let checkpoint_bytes_total = metrics.counter("ic_checkpoint_bytes_total");
    let checkpoint_last_bytes = metrics.gauge("ic_checkpoint_bytes").max(0) as u64;
    let duplicates_dropped = metrics.counter("canister_ingest_duplicate_dropped_total");
    let state_hash: String =
        system.canister().state_hash().iter().map(|b| format!("{b:02x}")).collect();
    let mttr_ns_mean = stats.mttr_ns_total / stats.catchups.max(1);

    let report = format!(
        "{{\n\
         \u{20} \"schema_version\": 1,\n\
         \u{20} \"bench\": \"recovery_soak\",\n\
         \u{20} \"seed\": {seed},\n\
         \u{20} \"rounds\": {rounds},\n\
         \u{20} \"plan\": \"{plan_name}\",\n\
         \u{20} \"checkpoint_cadence\": {cadence},\n\
         \u{20} \"checkpoints_taken\": {checkpoints_taken},\n\
         \u{20} \"checkpoint_bytes_total\": {checkpoint_bytes_total},\n\
         \u{20} \"checkpoint_last_bytes\": {checkpoint_last_bytes},\n\
         \u{20} \"upgrades\": {upgrades},\n\
         \u{20} \"catchups\": {catchups},\n\
         \u{20} \"catchup_matches\": {catchup_matches},\n\
         \u{20} \"replayed_rounds_total\": {replayed_rounds_total},\n\
         \u{20} \"replayed_rounds_max\": {replayed_rounds_max},\n\
         \u{20} \"replayed_instructions_total\": {replayed_instructions_total},\n\
         \u{20} \"mttr_ns_total\": {mttr_ns_total},\n\
         \u{20} \"mttr_ns_max\": {mttr_ns_max},\n\
         \u{20} \"mttr_ns_mean\": {mttr_ns_mean},\n\
         \u{20} \"divergence_checks\": {divergence_checks},\n\
         \u{20} \"corruptions_injected\": {corruptions_injected},\n\
         \u{20} \"divergence_detected\": {divergence_detected},\n\
         \u{20} \"duplicates_dropped\": {duplicates_dropped},\n\
         \u{20} \"state_hash\": \"{state_hash}\"\n\
         }}",
        seed = args.seed,
        rounds = args.rounds,
        plan_name = plan_name,
        cadence = cadence,
        checkpoints_taken = checkpoints_taken,
        checkpoint_bytes_total = checkpoint_bytes_total,
        checkpoint_last_bytes = checkpoint_last_bytes,
        upgrades = stats.upgrades,
        catchups = stats.catchups,
        catchup_matches = stats.catchup_matches,
        replayed_rounds_total = stats.replayed_rounds_total,
        replayed_rounds_max = stats.replayed_rounds_max,
        replayed_instructions_total = stats.replayed_instructions_total,
        mttr_ns_total = stats.mttr_ns_total,
        mttr_ns_max = stats.mttr_ns_max,
        mttr_ns_mean = mttr_ns_mean,
        divergence_checks = stats.divergence_checks,
        corruptions_injected = stats.corruptions_injected,
        divergence_detected = stats.divergence_detected,
        duplicates_dropped = duplicates_dropped,
        state_hash = state_hash,
    );

    if stats.catchups > stats.catchup_matches {
        eprintln!(
            "error: {} of {} catch-ups failed to reconverge with the live replica",
            stats.catchups - stats.catchup_matches,
            stats.catchups
        );
        println!("{report}");
        std::process::exit(3);
    }
    if stats.divergence_detected != stats.corruptions_injected {
        eprintln!(
            "error: {} corruptions injected but {} divergences detected",
            stats.corruptions_injected, stats.divergence_detected
        );
        println!("{report}");
        std::process::exit(3);
    }

    println!("{report}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{report}\n")) {
            eprintln!("error: cannot write report to {path}: {e}");
            std::process::exit(2);
        }
    }
    if let Some(path) = &args.metrics_out {
        if let Err(e) = std::fs::write(path, metrics.snapshot_json()) {
            eprintln!("error: cannot write metrics to {path}: {e}");
            std::process::exit(2);
        }
    }
}
