//! Per-file analysis: locate test regions, run the scoped token rules,
//! and check suppression directives for well-formedness. Suppressions
//! are applied once, for every rule, in [`crate::analysis`].

use crate::lexer::Token;
use crate::rules::{check_crate_root, scan, Finding, Rule};
use crate::suppress;

/// Where a file sits in the workspace — decides which rules run and how.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Crate name without the `icbtc-` prefix (`"canister"`, `"core"`…).
    pub crate_name: String,
    /// `src/lib.rs` or `src/main.rs` of a crate.
    pub is_crate_root: bool,
    /// Integration tests, benches, examples, and `src/bin/*` binaries:
    /// these are seeded entry points, exempt from the non-test-only rules.
    pub is_entry_or_test: bool,
}

/// A finding that survived suppression filtering.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: Rule,
    pub line: u32,
    pub message: String,
    /// Call-chain evidence (`root → … → site`) for the cross-procedural
    /// rules (ICL011–013); empty for token-level findings.
    pub chain: Vec<String>,
}

/// A finding that was waived, kept for reporting (`--json` includes them
/// so CI dashboards can audit the suppression debt).
#[derive(Debug, Clone)]
pub struct Suppressed {
    pub rule: Rule,
    pub line: u32,
    pub reason: String,
}

#[derive(Debug, Default)]
pub struct FileReport {
    pub violations: Vec<Violation>,
    pub suppressed: Vec<Suppressed>,
}

/// Finds `(start_line, end_line)` ranges covered by `#[cfg(test)]` or
/// `#[test]` items, by brace matching from the attribute. An attribute
/// whose item has no body (`#[cfg(test)] use …;`) covers nothing.
pub fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_test_attr(tokens, i) {
            let start_line = tokens[i].line;
            // Walk to the item's opening brace, stopping at `;` (bodiless
            // item) — but skip over any further attribute lists first.
            let mut j = i;
            let mut body_start = None;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct('{') {
                    body_start = Some(j);
                    break;
                }
                if t.is_punct(';') {
                    break;
                }
                j += 1;
            }
            if let Some(open) = body_start {
                let mut depth = 0usize;
                let mut k = open;
                while k < tokens.len() {
                    if tokens[k].is_punct('{') {
                        depth += 1;
                    } else if tokens[k].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                let end_line = tokens.get(k).map(|t| t.line).unwrap_or(u32::MAX);
                regions.push((start_line, end_line));
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    regions
}

/// `# [ cfg ( test ) ]` or `# [ test ]` (also matches within
/// `cfg(all(test, …))`-style lists by looking for the `test` ident
/// anywhere inside the attribute brackets).
fn is_test_attr(tokens: &[Token], i: usize) -> bool {
    if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
        return false;
    }
    // Scan the bracketed attribute body for a bare `test`/`cfg(test…)`.
    let mut depth = 0usize;
    let mut saw_test = false;
    let mut relevant = false;
    for t in &tokens[i + 1..] {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.is_ident("test") {
            saw_test = true;
        } else if t.is_ident("cfg") {
            relevant = true;
        } else if t.is_ident("not") {
            // `#[cfg(not(test))]` guards *non*-test code.
            return false;
        }
    }
    // `#[test]` is exactly one ident; `#[cfg(test)]` needs both.
    saw_test && (relevant || tokens.get(i + 2).is_some_and(|t| t.is_ident("test")))
}

/// Token-level findings for one file, pre-suppression: the scoped rule
/// scan plus the crate-root check, with test-region and entry-point
/// exemptions applied. [`crate::analysis`] applies the suppressions.
pub fn raw_findings(
    tokens: &[Token],
    regions: &[(u32, u32)],
    ctx: &FileContext,
    active: &[Rule],
) -> Vec<Finding> {
    let in_tests = |line: u32| regions.iter().any(|&(s, e)| s <= line && line <= e);
    let mut findings: Vec<Finding> = Vec::new();
    let scannable: Vec<Rule> = active
        .iter()
        .copied()
        .filter(|r| !matches!(r, Rule::ForbidUnsafe | Rule::SuppressionReason))
        .filter(|r| !ctx.is_entry_or_test || r.applies_in_tests())
        .collect();
    for f in scan(tokens, &scannable) {
        if !f.rule.applies_in_tests() && in_tests(f.line) {
            continue;
        }
        findings.push(f);
    }
    if ctx.is_crate_root && active.contains(&Rule::ForbidUnsafe) {
        if let Some(f) = check_crate_root(tokens) {
            findings.push(f);
        }
    }
    findings
}

/// ICL009 violations for malformed directives and unknown rule names.
pub fn structural_suppression_violations(
    sups: &[suppress::Suppression],
    bad: &[suppress::BadSuppression],
) -> Vec<Violation> {
    let mut out = Vec::new();
    for b in bad {
        out.push(Violation {
            rule: Rule::SuppressionReason,
            line: b.line,
            message: b.message.clone(),
            chain: Vec::new(),
        });
    }
    for s in sups {
        for r in &s.rules {
            if Rule::from_name(r).is_none() {
                out.push(Violation {
                    rule: Rule::SuppressionReason,
                    line: s.line,
                    message: format!("unknown rule `{r}` in suppression"),
                    chain: Vec::new(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze_workspace, FileInput};

    /// Analyzes `src` as the only file of the `canister` crate and keeps
    /// the findings of `rule`.
    fn analyze(src: &str, rule: Rule) -> FileReport {
        let input = FileInput {
            rel_path: "crates/canister/src/a.rs".into(),
            ctx: FileContext {
                crate_name: "canister".into(),
                is_crate_root: false,
                is_entry_or_test: false,
            },
            source: src.to_string(),
        };
        let mut report = analyze_workspace(&[input]).reports.pop().expect("one report").1;
        report.violations.retain(|v| v.rule == rule);
        report.suppressed.retain(|s| s.rule == rule);
        report
    }

    #[test]
    fn test_module_is_exempt_from_non_test_rules() {
        let src = "\
#![forbid(unsafe_code)]
fn hot(x: Option<u32>) -> u32 { x.unwrap() }
#[cfg(test)]
mod tests {
    #[test]
    fn ok() { Some(1).unwrap(); }
}
";
        let r = analyze(src, Rule::NoPanic);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].line, 2);
    }

    #[test]
    fn wall_clock_applies_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests { use std::time::Instant; }\n";
        let r = analyze(src, Rule::WallClock);
        assert_eq!(r.violations.len(), 1);
    }

    #[test]
    fn suppression_moves_finding_to_suppressed() {
        let src = "// icbtc-lint: allow(no-panic) -- invariant: always Some\nx.unwrap();\n";
        let r = analyze(src, Rule::NoPanic);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].reason, "invariant: always Some");
    }

    #[test]
    fn reasonless_suppression_is_a_violation() {
        let src = "// icbtc-lint: allow(no-panic)\nx.unwrap();\n";
        let r = analyze(src, Rule::NoPanic);
        // The unwrap still fires AND the bad suppression fires.
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        let bad = analyze(src, Rule::SuppressionReason);
        assert_eq!(bad.violations.len(), 1, "{:?}", bad.violations);
    }

    #[test]
    fn bodiless_cfg_test_item_covers_nothing() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn hot() { x.unwrap(); }\n";
        let r = analyze(src, Rule::NoPanic);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].line, 3);
    }
}
