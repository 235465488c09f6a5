//! Equivalence tests: the benchmark's workload loops must reach what the
//! program's own `System` reaches, so the timings describe the
//! program's behaviour and not a look-alike.

use icbtc::canister::{BitcoinCanister, CanisterCall};
use icbtc::ic::LifecyclePlan;
use icbtc::system::{System, SystemConfig};
use icbtc_bench::workload::build_soak_workload;
use icbtc_perfbench::recovery::RecoveryRun;
use icbtc_perfbench::sync::{premine, SyncStack};

#[test]
fn sync_workload_matches_system_sync_canister() {
    const SEED: u64 = 11;
    const HEIGHT: u64 = 60;
    const MAX_ROUNDS: u64 = 5_000;

    let mut system = System::new(SystemConfig::regtest(SEED));
    premine(system.btc_mut(), HEIGHT);
    assert!(
        system.sync_canister(MAX_ROUNDS as usize),
        "System must catch up"
    );

    let mut stack = SyncStack::new(SEED);
    premine(&mut stack.btc, HEIGHT);
    while !stack.caught_up() && stack.rounds < MAX_ROUNDS {
        stack.step_round();
    }
    assert!(stack.caught_up(), "the benchmark loop must catch up");

    assert_eq!(stack.rounds, system.rounds_executed(), "round count");
    assert_eq!(
        stack.btc.best_height(),
        system.btc().best_height(),
        "btcnet tip height"
    );
    assert_eq!(
        stack.canister().state().best_tip(),
        system.canister().state().best_tip(),
        "canister tip"
    );
    assert_eq!(
        stack.canister().state_hash(),
        system.canister().state_hash(),
        "state hash"
    );
}

#[test]
fn recovery_workload_reconverges_and_detects_exactly_the_injections() {
    const SEED: u64 = 3;
    const ROUNDS: usize = 60;
    let plan = LifecyclePlan::builtin("mixed").expect("builtin plan");
    assert!(plan.ends_at() <= ROUNDS as u64);

    let workload = build_soak_workload(SEED, 400, 250, ROUNDS);
    let addresses = workload.addresses;
    let mut run = RecoveryRun::new(
        BitcoinCanister::from_state(workload.state),
        SEED,
        plan.clone(),
    );
    let mut catchups = 0;
    let mut reconverged = 0;
    let mut detected = Vec::new();
    let mut injected = Vec::new();
    for (round, block) in (1u64..).zip(workload.ingest_blocks) {
        let address = addresses[round as usize % addresses.len()].0;
        let calls = vec![CanisterCall::GetBalance {
            address,
            min_confirmations: 0,
        }];
        let outcome = run.step_round(block, calls);
        assert_eq!(outcome.accepted, 1, "round {round}: the block is accepted");
        for (matches, _) in &outcome.catchups {
            catchups += 1;
            reconverged += usize::from(*matches);
        }
        if outcome.diverged {
            detected.push(round);
        }
        if outcome.corrupted {
            injected.push(round);
        }
        assert!(
            outcome.upgrades.iter().all(|&preserved| preserved),
            "round {round}: upgrade"
        );
    }
    assert_eq!(
        catchups,
        plan.crashes.len(),
        "every scheduled crash caught up"
    );
    assert_eq!(reconverged, catchups, "every catch-up reconverged");
    assert_eq!(
        injected, plan.corruptions,
        "corruptions injected as scheduled"
    );
    assert_eq!(
        detected, injected,
        "exactly the injected corruptions were detected"
    );
    assert_eq!(run.stats.upgrades, plan.upgrades.len() as u64);
    assert!(run.stats.replayed_rounds_total > 0);
}
