//! The rule set: stable IDs, matching logic, and per-rule documentation.
//!
//! Every rule has a stable numeric ID (`ICL001`…) used in JSON output and
//! a short name (`wall-clock`) used in suppression comments. Rules match
//! on the token stream produced by [`crate::lexer`]; which rules run on
//! which crate is decided by the scope matrix in [`crate::workspace`].

use crate::lexer::{Token, TokenKind};

/// All lint rules, in ID order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// ICL001 — no wall-clock reads (`std::time::Instant`, `SystemTime`)
    /// in consensus-critical crates. Replicated execution must derive all
    /// time from the deterministic simulation clock (`SimTime`), or
    /// replicas diverge (paper §II-A: deterministic state machine
    /// replication; Definition II.1 is evaluated on block timestamps,
    /// never host time).
    WallClock,
    /// ICL002 — no `std::thread` in consensus-critical crates: scheduling
    /// order is nondeterministic across replicas.
    Thread,
    /// ICL003 — no `std::env` in consensus-critical crates: environment
    /// variables differ per replica and would fork replicated state.
    ProcessEnv,
    /// ICL004 — no floating-point arithmetic in consensus-critical
    /// crates. IEEE-754 evaluation can differ across targets/opt-levels
    /// (x87 vs SSE, FMA contraction), which breaks bit-for-bit replica
    /// agreement on δ-stability (Definition II.1) and cycles accounting.
    Float,
    /// ICL005 — no `HashMap`/`HashSet` in replicated-state crates or the
    /// adapter: iteration order is randomized per process, so any
    /// fold/iteration over one diverges across replicas — and, in the
    /// adapter, across the two same-seed runs the chaos determinism gate
    /// diffs byte-for-byte. Use `BTreeMap`/`BTreeSet`.
    UnorderedCollections,
    /// ICL006 — no `unwrap()`/`expect()`/`panic!`/`unreachable!`/`todo!`
    /// in non-test code of the adapter and canister hot paths
    /// (Algorithms 1–2): a panic in the adapter drops the replica's
    /// Bitcoin connectivity; a trap in the canister aborts the round's
    /// message. Return errors instead, or suppress with a written
    /// invariant.
    NoPanic,
    /// ICL007 — no `SimRng::seed_from(<literal>)` outside seeded entry
    /// points (binaries, examples, tests). Library code must thread the
    /// seed from the experiment harness or fork an existing generator;
    /// a buried constant seed silently correlates supposedly independent
    /// randomness streams and defeats seed-sweep reproducibility.
    RngSeed,
    /// ICL008 — every crate root must carry `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// ICL009 — malformed suppression comment (missing reason, unknown
    /// rule name, bad syntax). Emitted by the engine, not token matching.
    SuppressionReason,
    /// ICL010 — no `println!`/`eprintln!` (or `print!`/`eprint!`) in the
    /// instrumented runtime crates (`adapter`, `canister`, `ic`,
    /// `btcnet`). Ad-hoc stdout writes are invisible to the deterministic
    /// observability layer: they bypass the metrics registry and the
    /// sim-time-stamped trace, interleave nondeterministically with real
    /// output, and cannot be byte-compared across same-seed runs. Record
    /// through `Obs` (counters/gauges/histograms or trace events)
    /// instead. Bench binaries and tests are seeded entry points and
    /// remain exempt.
    PrintOutput,
    /// ICL011 — cross-procedural panic reachability. Any
    /// `unwrap()`/`expect()`/`panic!`-class site *transitively reachable*
    /// from a replicated update entry point (`dispatch`/`execute`,
    /// `ingest_response`/`process_response`, `try_ingest_block`) is
    /// flagged wherever it lives — including
    /// crates outside the per-file `no-panic` scope, such as `bitcoin`
    /// and `core`. A trap anywhere on the update path aborts the round's
    /// message on every replica (paper §III), so the whole call graph is
    /// in scope, not just the hot-path crates. Findings carry the full
    /// call chain from the entry point; `allow(no-panic)` suppressions
    /// carry over so one written invariant covers both rules.
    PanicReachability,
    /// ICL012 — node-local taint. A function marked
    /// `// icbtc-lint: node-local -- <why>` at its definition (the query
    /// cache, obs registry reads, trace reads) must be unreachable from
    /// replicated update execution: its result depends on per-replica
    /// state, so reading it on the update path forks replicated state.
    /// Query-plane reads are exempt — queries are served per-replica by
    /// design (paper §III-D).
    NodeLocalTaint,
    /// ICL013 — metering completeness. Every loop (`for`/`while`/`loop`)
    /// in the `canister` crate reachable from an update entry point must
    /// record a `metering::*` constant somewhere in its function's call
    /// closure, so the §IV-B instruction cost model cannot silently
    /// drift from the code it prices.
    MeteringCompleteness,
    /// ICL014 — stale suppression. An `allow(<rule>)` directive on a
    /// line where that rule no longer produces a finding is itself a
    /// finding: dead suppressions rot as code moves, and a stale written
    /// invariant is worse than none.
    StaleSuppression,
}

pub const ALL_RULES: &[Rule] = &[
    Rule::WallClock,
    Rule::Thread,
    Rule::ProcessEnv,
    Rule::Float,
    Rule::UnorderedCollections,
    Rule::NoPanic,
    Rule::RngSeed,
    Rule::ForbidUnsafe,
    Rule::SuppressionReason,
    Rule::PrintOutput,
    Rule::PanicReachability,
    Rule::NodeLocalTaint,
    Rule::MeteringCompleteness,
    Rule::StaleSuppression,
];

impl Rule {
    pub fn id(self) -> &'static str {
        match self {
            Rule::WallClock => "ICL001",
            Rule::Thread => "ICL002",
            Rule::ProcessEnv => "ICL003",
            Rule::Float => "ICL004",
            Rule::UnorderedCollections => "ICL005",
            Rule::NoPanic => "ICL006",
            Rule::RngSeed => "ICL007",
            Rule::ForbidUnsafe => "ICL008",
            Rule::SuppressionReason => "ICL009",
            Rule::PrintOutput => "ICL010",
            Rule::PanicReachability => "ICL011",
            Rule::NodeLocalTaint => "ICL012",
            Rule::MeteringCompleteness => "ICL013",
            Rule::StaleSuppression => "ICL014",
        }
    }

    /// The short name used in `allow(...)` suppressions.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::Thread => "thread",
            Rule::ProcessEnv => "process-env",
            Rule::Float => "float",
            Rule::UnorderedCollections => "unordered-collections",
            Rule::NoPanic => "no-panic",
            Rule::RngSeed => "rng-seed",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::SuppressionReason => "suppression-reason",
            Rule::PrintOutput => "print-output",
            Rule::PanicReachability => "panic-reachable",
            Rule::NodeLocalTaint => "node-local-taint",
            Rule::MeteringCompleteness => "unmetered-loop",
            Rule::StaleSuppression => "stale-suppression",
        }
    }

    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// Whether the rule also applies inside `#[cfg(test)]` / `#[test]`
    /// regions. Wall-clock, threads and env reads make even tests flaky
    /// and are banned everywhere in scoped crates; the remaining rules
    /// only guard replicated execution, which tests are not part of.
    pub fn applies_in_tests(self) -> bool {
        matches!(self, Rule::WallClock | Rule::Thread | Rule::ProcessEnv | Rule::ForbidUnsafe)
    }

    pub fn short_description(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock read in consensus-critical code",
            Rule::Thread => "OS threading in consensus-critical code",
            Rule::ProcessEnv => "environment access in consensus-critical code",
            Rule::Float => "floating-point arithmetic in consensus-critical code",
            Rule::UnorderedCollections => "randomized-iteration-order collection in replicated state",
            Rule::NoPanic => "panic path in adapter/canister hot path",
            Rule::RngSeed => "hard-coded RNG seed outside a seeded entry point",
            Rule::ForbidUnsafe => "crate root missing #![forbid(unsafe_code)]",
            Rule::SuppressionReason => "malformed lint suppression",
            Rule::PrintOutput => "stdout/stderr write bypassing the observability layer",
            Rule::PanicReachability => "panic site reachable from a replicated update entry point",
            Rule::NodeLocalTaint => "node-local function reachable from replicated execution",
            Rule::MeteringCompleteness => "unmetered loop on a replicated update path",
            Rule::StaleSuppression => "suppression for a rule that no longer fires here",
        }
    }
}

/// One token-level finding, before suppression filtering.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub line: u32,
    pub message: String,
}

/// Is `tokens[i..]` the start of the path `a :: b`?
fn is_path2(tokens: &[Token], i: usize, a: &str, b: &str) -> bool {
    tokens.len() > i + 3
        && tokens[i].is_ident(a)
        && tokens[i + 1].is_punct(':')
        && tokens[i + 2].is_punct(':')
        && tokens[i + 3].is_ident(b)
}

/// Runs every token-level rule in `active` over the stream and collects
/// findings. `tokens` must come from [`crate::lexer::lex`].
pub fn scan(tokens: &[Token], active: &[Rule]) -> Vec<Finding> {
    let mut out = Vec::new();
    let on = |r: Rule| active.contains(&r);
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            // Float literals are the only non-ident trigger.
            if t.kind == TokenKind::Float && on(Rule::Float) {
                out.push(Finding {
                    rule: Rule::Float,
                    line: t.line,
                    message: format!("floating-point literal `{}`", t.text),
                });
            }
            continue;
        }
        match t.text.as_str() {
            "Instant" | "SystemTime" if on(Rule::WallClock) => out.push(Finding {
                rule: Rule::WallClock,
                line: t.line,
                message: format!(
                    "`{}` reads the host clock; replicated code must use the simulation clock (SimTime)",
                    t.text
                ),
            }),
            "std" if on(Rule::Thread) && is_path2(tokens, i, "std", "thread") => {
                out.push(Finding {
                    rule: Rule::Thread,
                    line: t.line,
                    message: "`std::thread` introduces scheduling nondeterminism".into(),
                })
            }
            "std" if on(Rule::ProcessEnv) && is_path2(tokens, i, "std", "env") => {
                out.push(Finding {
                    rule: Rule::ProcessEnv,
                    line: t.line,
                    message: "`std::env` reads per-replica state into replicated execution".into(),
                })
            }
            "f32" | "f64" if on(Rule::Float) => out.push(Finding {
                rule: Rule::Float,
                line: t.line,
                message: format!("`{}` type in consensus-critical code", t.text),
            }),
            "HashMap" | "HashSet" if on(Rule::UnorderedCollections) => out.push(Finding {
                rule: Rule::UnorderedCollections,
                line: t.line,
                message: format!(
                    "`{}` iteration order is randomized per process; use `BTree{}` in replicated state",
                    t.text,
                    &t.text[4..]
                ),
            }),
            "unwrap" | "expect"
                if on(Rule::NoPanic)
                    && i > 0
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
            {
                out.push(Finding {
                    rule: Rule::NoPanic,
                    line: t.line,
                    message: format!("`.{}()` can trap a hot path; return an error instead", t.text),
                })
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if on(Rule::NoPanic)
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
                    // `#[allow(unreachable_…)]`-style attr idents don't
                    // carry a `!`, so the bang check is sufficient, but
                    // exclude macro *definitions* (`macro_rules!` names).
                    && !(i > 0 && tokens[i - 1].is_ident("macro_rules")) =>
            {
                out.push(Finding {
                    rule: Rule::NoPanic,
                    line: t.line,
                    message: format!("`{}!` can trap a hot path; return an error instead", t.text),
                })
            }
            "println" | "eprintln" | "print" | "eprint"
                if on(Rule::PrintOutput)
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
                    && !(i > 0 && tokens[i - 1].is_ident("macro_rules")) =>
            {
                out.push(Finding {
                    rule: Rule::PrintOutput,
                    line: t.line,
                    message: format!(
                        "`{}!` bypasses the observability layer; record through `Obs` (metrics or trace) instead",
                        t.text
                    ),
                })
            }
            "SimRng"
                if on(Rule::RngSeed)
                    && is_path2(tokens, i, "SimRng", "seed_from")
                    && tokens.get(i + 4).is_some_and(|n| n.is_punct('('))
                    && tokens.get(i + 5).is_some_and(|n| n.kind == TokenKind::Int) =>
            {
                out.push(Finding {
                    rule: Rule::RngSeed,
                    line: t.line,
                    message: format!(
                        "`SimRng::seed_from({})` hard-codes a seed in library code; thread the seed from the entry point or fork an existing generator",
                        tokens[i + 5].text
                    ),
                })
            }
            _ => {}
        }
    }
    out
}

/// Checks the crate-root requirement: `#![forbid(unsafe_code)]` must be
/// present. Returns a finding at line 1 if it is missing.
pub fn check_crate_root(tokens: &[Token]) -> Option<Finding> {
    for i in 0..tokens.len() {
        if tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('['))
            && tokens.get(i + 3).is_some_and(|t| t.is_ident("forbid"))
            && tokens.get(i + 4).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 5).is_some_and(|t| t.is_ident("unsafe_code"))
        {
            return None;
        }
    }
    Some(Finding {
        rule: Rule::ForbidUnsafe,
        line: 1,
        message: "crate root is missing `#![forbid(unsafe_code)]`".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn ids_and_names_are_stable_and_unique() {
        let mut ids: Vec<_> = ALL_RULES.iter().map(|r| r.id()).collect();
        let mut names: Vec<_> = ALL_RULES.iter().map(|r| r.name()).collect();
        ids.sort_unstable();
        ids.dedup();
        names.sort_unstable();
        names.dedup();
        assert_eq!(ids.len(), ALL_RULES.len());
        assert_eq!(names.len(), ALL_RULES.len());
        assert_eq!(Rule::Float.id(), "ICL004");
        assert_eq!(Rule::from_name("no-panic"), Some(Rule::NoPanic));
    }

    #[test]
    fn hashmap_in_comment_or_string_is_clean() {
        let toks = lex("// HashMap\nlet s = \"HashMap\"; let r = r#\"HashSet\"#;");
        assert!(scan(&toks, ALL_RULES).is_empty());
    }

    #[test]
    fn method_call_required_for_unwrap() {
        // A function *named* unwrap, or the bare ident, is not a finding.
        let toks = lex("fn unwrap() {}");
        assert!(scan(&toks, &[Rule::NoPanic]).is_empty());
        let toks = lex("x.unwrap();");
        assert_eq!(scan(&toks, &[Rule::NoPanic]).len(), 1);
    }

    #[test]
    fn seed_from_literal_vs_variable() {
        let toks = lex("SimRng::seed_from(42)");
        assert_eq!(scan(&toks, &[Rule::RngSeed]).len(), 1);
        let toks = lex("SimRng::seed_from(seed)");
        assert!(scan(&toks, &[Rule::RngSeed]).is_empty());
    }

    #[test]
    fn print_macros_require_bang() {
        let toks = lex("println!(\"tip {}\", h);");
        assert_eq!(scan(&toks, &[Rule::PrintOutput]).len(), 1);
        let toks = lex("eprintln!(\"oops\");");
        assert_eq!(scan(&toks, &[Rule::PrintOutput]).len(), 1);
        // A function or method named `print` is not a macro invocation.
        let toks = lex("fn print(&self) {} self.print();");
        assert!(scan(&toks, &[Rule::PrintOutput]).is_empty());
        // Doc comments and strings never trigger.
        let toks = lex("// println!(\"x\")\nlet s = \"println!\";");
        assert!(scan(&toks, &[Rule::PrintOutput]).is_empty());
        // Defining a macro named `println` is not an invocation.
        let toks = lex("macro_rules! println { () => {} }");
        assert!(scan(&toks, &[Rule::PrintOutput]).is_empty());
    }

    #[test]
    fn forbid_unsafe_detection() {
        assert!(check_crate_root(&lex("#![forbid(unsafe_code)]\npub mod a;")).is_none());
        assert!(check_crate_root(&lex("pub mod a;")).is_some());
    }
}
