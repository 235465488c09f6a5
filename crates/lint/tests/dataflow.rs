//! Cross-procedural dataflow rule tests: the `fixtures/graph` corpus
//! (bad/good pairs for ICL011–ICL014), property tests for the syntactic
//! front end, order-invariance of the whole-workspace analysis, and a
//! seeded-defect test proving ICL012 catches a node-local read injected
//! into the real ingest path.

use icbtc_lint::analysis::{analyze_workspace, FileInput, WorkspaceReport};
use icbtc_lint::engine::FileContext;
use icbtc_lint::parser;
use icbtc_lint::workspace::discover;
use icbtc_sim::testkit;
use std::path::Path;

/// Wraps a fixture as a non-entry source file of `crate_name`.
fn input(crate_name: &str, file: &str, source: &str) -> FileInput {
    FileInput {
        rel_path: format!("crates/{crate_name}/src/{file}"),
        ctx: FileContext {
            crate_name: crate_name.into(),
            is_crate_root: false,
            is_entry_or_test: false,
        },
        source: source.into(),
    }
}

/// Sorted, deduped violation rule IDs across the whole workspace.
fn ws_ids(inputs: &[FileInput]) -> Vec<&'static str> {
    let ws = analyze_workspace(inputs);
    let mut ids: Vec<&'static str> = ws
        .reports
        .iter()
        .flat_map(|(_, r)| r.violations.iter().map(|v| v.rule.id()))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

// ---------------------------------------------------------------------
// Fixture corpus: bad/good pairs per dataflow rule
// ---------------------------------------------------------------------

#[test]
fn bad_panic_reachable_across_crates() {
    let inputs = vec![
        input("canister", "root.rs", include_str!("fixtures/graph/bad/panic_root.rs")),
        input("bitcoin", "dep.rs", include_str!("fixtures/graph/bad/panic_dep.rs")),
    ];
    assert_eq!(ws_ids(&inputs), vec!["ICL011"]);
    // The finding lives at the panic site in the dependency crate and
    // carries the full call chain from the update root.
    let ws = analyze_workspace(&inputs);
    let (path, report) = ws
        .reports
        .iter()
        .find(|(_, r)| !r.violations.is_empty())
        .expect("one file has findings");
    assert_eq!(path, "crates/bitcoin/src/dep.rs");
    let v = &report.violations[0];
    assert!(v.chain.iter().any(|f| f.contains("try_ingest_block")), "chain {:?}", v.chain);
    assert!(v.message.contains("reachable from update entry"), "{}", v.message);
}

#[test]
fn good_panic_unreachable_from_query_plane() {
    // Same panic site, but only the query plane reaches it.
    let inputs = vec![
        input("canister", "root.rs", include_str!("fixtures/graph/good/panic_root.rs")),
        input("bitcoin", "dep.rs", include_str!("fixtures/graph/bad/panic_dep.rs")),
    ];
    assert_eq!(ws_ids(&inputs), Vec::<&str>::new());
}

#[test]
fn good_panic_suppression_carries_over() {
    // The panic is reachable from an update root but carries an
    // invariant-backed allow(no-panic): ICL011 honors it, and the used
    // suppression does not trip ICL014.
    let inputs = vec![
        input("canister", "root.rs", include_str!("fixtures/graph/good/panic_root_suppressed.rs")),
        input("bitcoin", "dep.rs", include_str!("fixtures/graph/good/panic_dep_suppressed.rs")),
    ];
    assert_eq!(ws_ids(&inputs), Vec::<&str>::new());
    let ws = analyze_workspace(&inputs);
    let suppressed: Vec<&'static str> = ws
        .reports
        .iter()
        .flat_map(|(_, r)| r.suppressed.iter().map(|s| s.rule.id()))
        .collect();
    assert!(suppressed.contains(&"ICL011"), "suppressed: {suppressed:?}");
}

#[test]
fn bad_node_local_taint_on_update_path() {
    let inputs =
        vec![input("canister", "taint.rs", include_str!("fixtures/graph/bad/node_local_taint.rs"))];
    assert_eq!(ws_ids(&inputs), vec!["ICL012"]);
}

#[test]
fn good_node_local_read_from_query_plane() {
    let inputs = vec![input(
        "canister",
        "taint.rs",
        include_str!("fixtures/graph/good/node_local_taint.rs"),
    )];
    assert_eq!(ws_ids(&inputs), Vec::<&str>::new());
}

#[test]
fn bad_profiler_read_on_update_path() {
    let inputs = vec![input(
        "canister",
        "prof_taint.rs",
        include_str!("fixtures/graph/bad/profiler_read_taint.rs"),
    )];
    assert_eq!(ws_ids(&inputs), vec!["ICL012"]);
}

#[test]
fn good_profiler_read_from_query_plane() {
    let inputs = vec![input(
        "canister",
        "prof_taint.rs",
        include_str!("fixtures/graph/good/profiler_read_taint.rs"),
    )];
    assert_eq!(ws_ids(&inputs), Vec::<&str>::new());
}

#[test]
fn bad_node_local_read_in_restore_path() {
    // A checkpoint-restore helper that seeds rebuilt state from the
    // query cache, reached from an update root — the recovery-subsystem
    // shape ICL012 must keep catching.
    let inputs = vec![input(
        "canister",
        "restore.rs",
        include_str!("fixtures/graph/bad/restore_taint.rs"),
    )];
    assert_eq!(ws_ids(&inputs), vec!["ICL012"]);
    let ws = analyze_workspace(&inputs);
    let v = &ws.reports[0].1.violations[0];
    assert!(v.chain.iter().any(|f| f.contains("restore_checkpoint")), "chain {:?}", v.chain);
}

#[test]
fn good_checkpoint_inspection_from_query_plane() {
    let inputs = vec![input(
        "canister",
        "restore.rs",
        include_str!("fixtures/graph/good/restore_taint.rs"),
    )];
    assert_eq!(ws_ids(&inputs), Vec::<&str>::new());
}

#[test]
fn bad_unmetered_loop_on_update_path() {
    let inputs =
        vec![input("canister", "scan.rs", include_str!("fixtures/graph/bad/unmetered_loop.rs"))];
    assert_eq!(ws_ids(&inputs), vec!["ICL013"]);
}

#[test]
fn good_metered_loop_through_call_closure() {
    let inputs =
        vec![input("canister", "scan.rs", include_str!("fixtures/graph/good/unmetered_loop.rs"))];
    assert_eq!(ws_ids(&inputs), Vec::<&str>::new());
}

#[test]
fn bad_stale_suppression_is_flagged() {
    let inputs = vec![input(
        "canister",
        "stale.rs",
        include_str!("fixtures/graph/bad/stale_suppression.rs"),
    )];
    assert_eq!(ws_ids(&inputs), vec!["ICL014"]);
    let ws = analyze_workspace(&inputs);
    let v = &ws.reports[0].1.violations[0];
    assert!(v.message.contains("stale suppression"), "{}", v.message);
}

// ---------------------------------------------------------------------
// Properties: the front end never panics; analysis is order-invariant
// ---------------------------------------------------------------------

#[test]
fn parser_never_panics_on_token_soup() {
    const PIECES: &[&str] = &[
        "fn", "impl", "for", "{", "}", "(", ")", "::", ".", ",", ";", "->", "<", ">", "x", "Type",
        "self", "Self", "let", "=", "unwrap", "panic", "!", "#", "[", "]", "loop", "while",
        "match", "&", "mut", "'a", "\"str\"", "0x1f", "where", "..", "?", "//", "mod", "pub",
    ];
    testkit::check(0x11C7_0011, 256, |rng| {
        let len = rng.index(300);
        let mut src = String::new();
        for _ in 0..len {
            src.push_str(PIECES[rng.index(PIECES.len())]);
            src.push(if rng.chance(0.8) { ' ' } else { '\n' });
        }
        let _ = parser::parse_file(&src);
    });
}

#[test]
fn parser_never_panics_on_byte_soup() {
    testkit::check(0x11C7_0012, 256, |rng| {
        let len = rng.index(200);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let _ = parser::parse_file(&src);
    });
}

#[test]
fn analysis_is_deterministic_and_input_order_invariant() {
    let mut inputs = vec![
        input("canister", "root.rs", include_str!("fixtures/graph/bad/panic_root.rs")),
        input("bitcoin", "dep.rs", include_str!("fixtures/graph/bad/panic_dep.rs")),
        input("canister", "taint.rs", include_str!("fixtures/graph/bad/node_local_taint.rs")),
        input("canister", "scan.rs", include_str!("fixtures/graph/bad/unmetered_loop.rs")),
        input("canister", "stale.rs", include_str!("fixtures/graph/bad/stale_suppression.rs")),
    ];
    fn render(inputs: &[FileInput]) -> String {
        let ws = analyze_workspace(inputs);
        let mut out = String::new();
        for (path, report) in &ws.reports {
            for v in &report.violations {
                out.push_str(&format!(
                    "{path}:{}:{} {} {:?}\n",
                    v.line,
                    v.rule.id(),
                    v.message,
                    v.chain
                ));
            }
        }
        out
    }
    let base = render(&inputs);
    assert!(!base.is_empty());
    testkit::check(0x11C7_0013, 32, |rng| {
        for i in (1..inputs.len()).rev() {
            let j = rng.index(i + 1);
            inputs.swap(i, j);
        }
        assert_eq!(render(&inputs), base, "analysis output depends on input order");
    });
}

// ---------------------------------------------------------------------
// Seeded defect: ICL012 must catch a qcache read injected into the
// real ingest path
// ---------------------------------------------------------------------

fn icl012_count(ws: &WorkspaceReport) -> usize {
    ws.reports
        .iter()
        .flat_map(|(_, r)| r.violations.iter())
        .filter(|v| v.rule.id() == "ICL012")
        .count()
}

#[test]
fn seeded_qcache_read_in_ingest_path_is_caught() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = discover(&root).expect("workspace discovery");
    let mut inputs: Vec<FileInput> = files
        .iter()
        .map(|f| FileInput {
            rel_path: f.rel_path.clone(),
            ctx: f.ctx.clone(),
            source: std::fs::read_to_string(&f.abs_path).expect("readable source"),
        })
        .collect();

    let clean = analyze_workspace(&inputs);
    assert_eq!(icl012_count(&clean), 0, "the shipped workspace must be ICL012-clean");

    // Inject a node-local cache read into the replicated ingest path.
    let canister = inputs
        .iter_mut()
        .find(|i| i.rel_path == "crates/canister/src/canister.rs")
        .expect("canister.rs present");
    let anchor = "let dropped = self.qcache.invalidate();";
    assert!(canister.source.contains(anchor), "injection anchor moved — update this test");
    canister.source = canister.source.replace(
        anchor,
        "let dropped = self.qcache.invalidate();\n        let _probe = self.qcache.len();",
    );

    let seeded = analyze_workspace(&inputs);
    assert!(icl012_count(&seeded) >= 1, "the seeded qcache read must be flagged by ICL012");
}
