//! The `icbtc-lint` binary: walks the workspace, runs the per-file token
//! rules *and* the cross-procedural dataflow rules (call graph rooted at
//! the replicated update entry points), and reports violations.
//!
//! ```text
//! icbtc-lint [--root DIR] [--json] [--timings] [--only FILE]… [--list-rules]
//! ```
//!
//! Exit codes: `0` clean, `1` unsuppressed violations found, `2` usage or
//! I/O error. The `--json` schema is documented in DESIGN.md and carries
//! `schema_version: 2` (adds `chain` evidence on dataflow findings and,
//! under `--timings`, per-phase wall times). Without `--timings` the
//! output is a deterministic function of the source tree — verify.sh
//! diffs two runs byte-for-byte.

#![forbid(unsafe_code)]

use icbtc_lint::analysis::{analyze_workspace, FileInput, WorkspaceReport};
use icbtc_lint::engine::FileReport;
use icbtc_lint::rules::ALL_RULES;
use icbtc_lint::workspace::discover;
use icbtc_sim::obs::Json;
use std::path::PathBuf;

const USAGE: &str = "usage: icbtc-lint [--root DIR] [--json] [--timings] [--only FILE]... [--list-rules]";

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut root = PathBuf::from(".");
    let mut emit_json = false;
    let mut emit_timings = false;
    let mut only: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => emit_json = true,
            "--timings" => emit_timings = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root requires a directory"),
            },
            "--only" => match args.next() {
                Some(path) => only.push(path.replace('\\', "/")),
                None => return usage("--only requires a workspace-relative file path"),
            },
            "--list-rules" => {
                for r in ALL_RULES {
                    println!("{}  {:<22}  {}", r.id(), r.name(), r.short_description());
                }
                return 0;
            }
            "--help" | "-h" => {
                print_help();
                return 0;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    // Default root: walk up from CWD to the workspace root (the directory
    // holding Cargo.toml + crates/), so the binary works from any subdir.
    if root.as_os_str() == "." {
        let mut cur = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        loop {
            if cur.join("crates").is_dir() && cur.join("Cargo.toml").is_file() {
                root = cur;
                break;
            }
            if !cur.pop() {
                break;
            }
        }
    }

    let files = match discover(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("icbtc-lint: cannot walk {}: {e}", root.display());
            return 2;
        }
    };
    if files.is_empty() {
        eprintln!("icbtc-lint: no source files under {}", root.display());
        return 2;
    }

    let mut inputs: Vec<FileInput> = Vec::with_capacity(files.len());
    for file in &files {
        let source = match std::fs::read_to_string(&file.abs_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("icbtc-lint: cannot read {}: {e}", file.rel_path);
                return 2;
            }
        };
        inputs.push(FileInput {
            rel_path: file.rel_path.clone(),
            ctx: file.ctx.clone(),
            source,
        });
    }

    // Whole-workspace analysis (the call graph needs every file even when
    // only a subset is *reported*).
    let ws = analyze_workspace(&inputs);
    let reported: Vec<&(String, FileReport)> = ws
        .reports
        .iter()
        .filter(|(path, _)| only.is_empty() || only.iter().any(|o| path == o))
        .collect();
    let n_violations: usize = reported.iter().map(|(_, r)| r.violations.len()).sum();
    let n_suppressed: usize = reported.iter().map(|(_, r)| r.suppressed.len()).sum();

    if emit_json {
        print_json(&root.display().to_string(), inputs.len(), &ws, &reported, emit_timings);
    } else {
        print_human(inputs.len(), n_suppressed, &reported, &only);
        if emit_timings {
            for (phase, us) in &ws.timings_us {
                println!("  timing {phase:<28} {us:>8} µs");
            }
        }
    }
    if n_violations > 0 {
        1
    } else {
        0
    }
}

fn usage(msg: &str) -> i32 {
    eprintln!("icbtc-lint: {msg}\n{USAGE}");
    2
}

fn print_help() {
    println!("{USAGE}");
    println!();
    println!("Static analysis for the icbtc workspace: per-file determinism rules");
    println!("(ICL001-ICL010) plus cross-procedural dataflow rules on a workspace");
    println!("call graph rooted at the replicated update entry points:");
    println!("  ICL011 panic-reachable    unwrap/expect/panic! reachable from an update entry");
    println!("  ICL012 node-local-taint   node-local fns (qcache, obs reads) on the update path");
    println!("  ICL013 unmetered-loop     canister loop with no metering::* in its call closure");
    println!("  ICL014 stale-suppression  allow(...) that no longer matches a finding");
    println!();
    println!("options:");
    println!("  --root DIR     workspace root (default: walk up to Cargo.toml + crates/)");
    println!("  --json         machine-readable report (schema_version 2)");
    println!("  --timings      per-phase wall times (omitted by default so two runs");
    println!("                 over the same tree are byte-identical)");
    println!("  --only FILE    report findings only for this workspace-relative path");
    println!("                 (repeatable; analysis still covers the whole workspace)");
    println!("  --list-rules   print the rule catalogue and exit");
    println!();
    println!("suppressions:   // icbtc-lint: allow(<rule>) -- <reason>");
    println!("node-local:     // icbtc-lint: node-local -- <why per-replica>   (above a fn)");
    println!("See DESIGN.md \"Static analysis\" for the full pipeline and JSON schema.");
}

fn print_human(
    n_files: usize,
    n_suppressed: usize,
    reports: &[&(String, FileReport)],
    only: &[String],
) {
    let mut n_violations = 0usize;
    for (path, report) in reports {
        for v in &report.violations {
            n_violations += 1;
            if v.chain.is_empty() {
                println!("{path}:{}: [{} {}] {}", v.line, v.rule.id(), v.rule.name(), v.message);
            } else {
                println!(
                    "{path}:{}: [{} {}] {} (via {})",
                    v.line,
                    v.rule.id(),
                    v.rule.name(),
                    v.message,
                    v.chain.join(" -> ")
                );
            }
        }
    }
    let scope = if only.is_empty() {
        format!("{n_files} files")
    } else {
        format!("{} of {n_files} files", reports.len())
    };
    if n_violations == 0 {
        println!(
            "icbtc-lint: OK — {scope} clean ({n_suppressed} finding(s) suppressed with reasons)"
        );
    } else {
        println!(
            "icbtc-lint: FAIL — {n_violations} violation(s) across {scope} ({n_suppressed} suppressed)"
        );
        println!(
            "  suppress only with: // icbtc-lint: allow(<rule>) -- <reason>   (see DESIGN.md)"
        );
    }
}

fn print_json(
    root: &str,
    n_files: usize,
    ws: &WorkspaceReport,
    reports: &[&(String, FileReport)],
    emit_timings: bool,
) {
    let mut violations = Vec::new();
    let mut suppressed = Vec::new();
    for (path, report) in reports {
        for v in &report.violations {
            let mut fields = vec![
                ("rule_id", Json::from(v.rule.id())),
                ("rule", v.rule.name().into()),
                ("file", path.clone().into()),
                ("line", Json::U64(v.line.into())),
                ("message", v.message.clone().into()),
            ];
            if !v.chain.is_empty() {
                let chain = v.chain.iter().map(|s| s.clone().into()).collect();
                fields.push(("chain", Json::Array(chain)));
            }
            violations.push(Json::Object(fields));
        }
        for s in &report.suppressed {
            suppressed.push(Json::Object(vec![
                ("rule_id", s.rule.id().into()),
                ("rule", s.rule.name().into()),
                ("file", path.clone().into()),
                ("line", Json::U64(s.line.into())),
                ("reason", s.reason.clone().into()),
            ]));
        }
    }
    let mut fields = vec![
        ("schema_version", Json::U64(2)),
        ("tool", "icbtc-lint".into()),
        ("root", root.to_string().into()),
        ("files_checked", n_files.into()),
        ("files_reported", reports.len().into()),
        ("violation_count", violations.len().into()),
        ("violations", Json::Array(violations)),
        ("suppressed", Json::Array(suppressed)),
    ];
    if emit_timings {
        let timings = ws.timings_us.iter().map(|&(phase, us)| (phase, Json::U64(us as u64)));
        fields.push(("timings_us", Json::Object(timings.collect())));
    }
    println!("{}", Json::Object(fields).render());
}
