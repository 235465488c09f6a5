//! The self-test corpus: every fixture under `tests/fixtures/bad` must
//! produce exactly the expected rule findings, and every fixture under
//! `tests/fixtures/good` must come out clean. Each fixture runs through
//! the whole-workspace pipeline as the only file of a replicated-state,
//! hot-path, consensus-critical crate, so each rule is live.

use icbtc_lint::analysis::{analyze_workspace, FileInput};
use icbtc_lint::engine::{FileContext, FileReport};
use icbtc_lint::rules::Rule;

/// Analyzes `source` as the only file of `crate_name` and returns its
/// report.
fn analyze(source: &str, crate_name: &str, is_crate_root: bool) -> FileReport {
    let input = FileInput {
        rel_path: format!("crates/{crate_name}/src/fixture.rs"),
        ctx: FileContext { crate_name: crate_name.into(), is_crate_root, is_entry_or_test: false },
        source: source.to_string(),
    };
    let mut reports = analyze_workspace(&[input]).reports;
    reports.pop().expect("one report per input").1
}

/// Runs a fixture under the `canister` scope (which activates every rule)
/// and returns the sorted violation rule IDs.
fn ids(source: &str, is_crate_root: bool) -> Vec<&'static str> {
    let report = analyze(source, "canister", is_crate_root);
    let mut ids: Vec<&'static str> =
        report.violations.iter().map(|v| v.rule.id()).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

macro_rules! bad_fixture {
    ($test:ident, $file:literal, $( $id:literal ),+) => {
        #[test]
        fn $test() {
            let src = include_str!(concat!("fixtures/bad/", $file));
            let found = ids(src, $file == "missing_forbid_unsafe.rs");
            let expected: Vec<&str> = vec![$( $id ),+];
            assert_eq!(found, expected, "fixture {}", $file);
        }
    };
}

// `process_env.rs` also unwraps; `wall_clock.rs` is pure ICL001.
bad_fixture!(bad_wall_clock, "wall_clock.rs", "ICL001");
bad_fixture!(bad_thread, "thread.rs", "ICL002");
bad_fixture!(bad_process_env, "process_env.rs", "ICL003");
bad_fixture!(bad_float, "float.rs", "ICL004");
bad_fixture!(bad_unordered, "unordered.rs", "ICL005");
bad_fixture!(bad_no_panic, "no_panic.rs", "ICL006");
bad_fixture!(bad_rng_seed, "rng_seed.rs", "ICL007");
bad_fixture!(bad_missing_forbid_unsafe, "missing_forbid_unsafe.rs", "ICL008");
bad_fixture!(bad_reasonless_suppression, "reasonless_suppression.rs", "ICL006", "ICL009");
bad_fixture!(bad_unknown_rule, "unknown_rule_suppression.rs", "ICL009");
bad_fixture!(bad_print_output, "print_output.rs", "ICL010");

macro_rules! good_fixture {
    ($test:ident, $file:literal) => {
        #[test]
        fn $test() {
            let src = include_str!(concat!("fixtures/good/", $file));
            let found = ids(src, $file == "forbid_unsafe_root.rs");
            assert!(found.is_empty(), "fixture {} should be clean, got {:?}", $file, found);
        }
    };
}

good_fixture!(good_suppressed_float, "suppressed_float.rs");
good_fixture!(good_allow_file, "allow_file.rs");
good_fixture!(good_btree, "btree.rs");
good_fixture!(good_test_module_unwrap, "test_module_unwrap.rs");
good_fixture!(good_seeded_param, "seeded_param.rs");
good_fixture!(good_forbid_unsafe_root, "forbid_unsafe_root.rs");
good_fixture!(good_tricky_lexing, "tricky_lexing.rs");
good_fixture!(good_obs_recording, "obs_recording.rs");

/// ICL005 extends to the adapter crate: its iteration order feeds the
/// deterministic chaos soaks, so unordered collections are flagged under
/// the adapter's own (non-strict) scope too.
#[test]
fn adapter_scope_flags_unordered_collections() {
    let report = analyze(include_str!("fixtures/bad/adapter_unordered.rs"), "adapter", false);
    let mut found: Vec<&'static str> = report.violations.iter().map(|v| v.rule.id()).collect();
    assert!(found.len() >= 2, "both the import and the field flag: {:?}", report.violations);
    found.sort_unstable();
    found.dedup();
    assert_eq!(found, vec!["ICL005"], "{:?}", report.violations);
}

#[test]
fn suppressions_are_reported_not_dropped() {
    let report = analyze(include_str!("fixtures/good/suppressed_float.rs"), "canister", false);
    assert!(report.violations.is_empty());
    assert!(
        report.suppressed.len() >= 2,
        "waived findings must stay auditable: {:?}",
        report.suppressed
    );
    assert!(report.suppressed.iter().all(|s| !s.reason.is_empty()));
}

#[test]
fn no_panic_counts_every_site() {
    let report = analyze(include_str!("fixtures/bad/no_panic.rs"), "canister", false);
    let no_panic: Vec<_> = report.violations.iter().filter(|v| v.rule == Rule::NoPanic).collect();
    // `panic!` and `.unwrap()` are two distinct findings.
    assert_eq!(no_panic.len(), 2, "{:?}", report.violations);
}
