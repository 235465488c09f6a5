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
use icbtc::sim::obs::Json;
use icbtc::sim::{SimRng, SimTime};
use icbtc::system::{System, SystemConfig};
use icbtc_bench::cli::{emit_report, Flags};

const USAGE: &str = "\
usage: recovery_soak [--seed N] [--rounds N] [--plan NAME]
                     [--cadence N --upgrades N --crashes N --corruptions N]
                     [--out PATH] [--metrics-out PATH]

--seed N         simulation seed (default 42)
--rounds N       IC rounds to run (default 60)
--mine-every N   force a Bitcoin block every N rounds so the tip keeps
                 moving during the soak (default 5, 0 = never)
--plan NAME      builtin lifecycle plan: checkpoints, upgrades, crashes,
                 corruption, mixed (default mixed)
--cadence N      randomized plan: checkpoint every N rounds (default 10)
--upgrades N     randomized plan: canister upgrades to schedule
--crashes N      randomized plan: crash/restart catch-ups to schedule
--corruptions N  randomized plan: shadow corruptions to schedule
--out P          write the JSON report to P (always printed to stdout)
--metrics-out P  write the merged metrics snapshot JSON to P";

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

impl Args {
    fn parse(flags: &mut Flags) -> Args {
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
        while let Some(flag) = flags.next_flag() {
            randomized |= matches!(
                flag.as_str(),
                "--cadence" | "--upgrades" | "--crashes" | "--corruptions"
            );
            match flag.as_str() {
                "--seed" => args.seed = flags.value("a u64"),
                "--rounds" => args.rounds = flags.value("a count"),
                "--mine-every" => args.mine_every = flags.value("a round count"),
                "--plan" => args.plan = Some(flags.value("a builtin name")),
                "--cadence" => args.cadence = flags.value("a round count"),
                "--upgrades" => args.upgrades = flags.value("a count"),
                "--crashes" => args.crashes = flags.value("a count"),
                "--corruptions" => args.corruptions = flags.value("a count"),
                "--out" => args.out = Some(flags.value("a path")),
                "--metrics-out" => args.metrics_out = Some(flags.value("a path")),
                other => flags.unknown(other),
            }
        }
        if args.plan.is_some() && randomized {
            flags.fail(
                "--plan and the randomized flags (--cadence/--upgrades/--crashes/--corruptions) \
                 are mutually exclusive",
            );
        }
        if args.plan.is_none() && !randomized {
            args.plan = Some("mixed".to_string());
        }
        if args.rounds == 0 {
            flags.fail("--rounds must be positive");
        }
        args
    }
}

fn main() {
    let mut flags = Flags::from_env(USAGE);
    let args = Args::parse(&mut flags);

    let (plan, plan_name) = match &args.plan {
        Some(name) => {
            let plan = LifecyclePlan::builtin(name).unwrap_or_else(|| {
                flags.fail(&format!(
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
        flags.fail(&format!(
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

    let report = Json::Object(vec![
        ("schema_version", 1u64.into()),
        ("bench", "recovery_soak".into()),
        ("seed", args.seed.into()),
        ("rounds", args.rounds.into()),
        ("plan", plan_name.into()),
        ("checkpoint_cadence", cadence.into()),
        ("checkpoints_taken", checkpoints_taken.into()),
        ("checkpoint_bytes_total", checkpoint_bytes_total.into()),
        ("checkpoint_last_bytes", checkpoint_last_bytes.into()),
        ("upgrades", stats.upgrades.into()),
        ("catchups", stats.catchups.into()),
        ("catchup_matches", stats.catchup_matches.into()),
        ("replayed_rounds_total", stats.replayed_rounds_total.into()),
        ("replayed_rounds_max", stats.replayed_rounds_max.into()),
        ("replayed_instructions_total", stats.replayed_instructions_total.into()),
        ("mttr_ns_total", stats.mttr_ns_total.into()),
        ("mttr_ns_max", stats.mttr_ns_max.into()),
        ("mttr_ns_mean", mttr_ns_mean.into()),
        ("divergence_checks", stats.divergence_checks.into()),
        ("corruptions_injected", stats.corruptions_injected.into()),
        ("divergence_detected", stats.divergence_detected.into()),
        ("duplicates_dropped", duplicates_dropped.into()),
        ("state_hash", state_hash.into()),
    ])
    .render();

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

    emit_report(&report, args.out.as_deref(), args.metrics_out.as_deref(), &metrics);
}
