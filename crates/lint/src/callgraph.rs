//! Workspace call graph over the parsed fn items, rooted at the
//! replicated update entry points.
//!
//! ## Edge resolution (documented approximation)
//!
//! * `Type::method(…)` and `Self::method(…)` resolve exactly against the
//!   workspace's impl blocks.
//! * `helper(…)` / `module::helper(…)` resolve to free functions of the
//!   caller's crate first, then its (transitive) dependency crates.
//! * `recv.method(…)` resolves when the receiver chain roots at `self`
//!   or a typed local (`fn f(meter: &mut Meter)`, `let t: HeaderTree`),
//!   stepping through struct fields and return-type hints
//!   (`self.state.utxos.balance(…)`, `self.utxos().len()`).
//! * Any other method call falls back to a **unique-name** match: if
//!   exactly one workspace method carries the name (and the name is not
//!   a common std-library method), an edge is added; an ambiguous name
//!   adds **no** edge. The graph therefore under-approximates — it never
//!   invents an edge between same-named methods of different types.
//!
//! ## Roots
//!
//! The replicated update entry points (paper §III): the canister's
//! `execute`/`dispatch` (every `CanisterCall` runs replicated through
//! them), `ingest_response`/`process_response` (Algorithm 2), and the
//! stable-store ingest `try_ingest_block`. The query
//! plane (`execute_query`/`query_cached`/`query`) is deliberately *not*
//! a root: queries are served per-replica, which is exactly why
//! node-local reads are legal there (rule ICL012).

use crate::parser::{Callee, ChainRoot, ChainSeg, FnItem, StructDef};
use std::collections::{BTreeMap, BTreeSet};

/// Replicated update entry points: `(crate, fn name)`.
pub const UPDATE_ROOTS: &[(&str, &str)] = &[
    ("canister", "execute"),
    ("canister", "dispatch"),
    ("canister", "ingest_response"),
    ("canister", "process_response"),
    ("canister", "try_ingest_block"),
];

/// Per-replica query entry points, exempt from node-local taint.
pub const QUERY_ROOTS: &[(&str, &str)] =
    &[("canister", "execute_query"), ("canister", "query_cached"), ("canister", "query")];

/// In-workspace crate dependency matrix (crate name without the
/// `icbtc-` prefix → direct path dependencies). Kept in sync with the
/// `Cargo.toml`s by `dep_matrix_matches_cargo_manifests` below.
const CRATE_DEPS: &[(&str, &[&str])] = &[
    ("sim", &[]),
    ("bitcoin", &["sim"]),
    ("tecdsa", &["sim", "bitcoin"]),
    ("btcnet", &["sim", "bitcoin"]),
    ("ic", &["sim"]),
    ("core", &["bitcoin"]),
    ("adapter", &["sim", "bitcoin", "btcnet", "core"]),
    ("canister", &["bitcoin", "ic", "core", "sim"]),
    ("lint", &["sim"]),
    ("bench", &["icbtc"]),
    (
        "icbtc",
        &["sim", "bitcoin", "tecdsa", "btcnet", "ic", "core", "adapter", "canister"],
    ),
];

/// Method names with well-known std-library meanings: never resolved by
/// the unique-name fallback, because a lone workspace method of the same
/// name would capture every `Vec`/`BTreeMap`/`Option` call in the tree.
const STD_METHOD_NAMES: &[&str] = &[
    "len", "is_empty", "get", "get_mut", "insert", "remove", "push", "pop", "iter", "iter_mut",
    "next", "clone", "contains", "contains_key", "extend", "drain", "clear", "last", "first",
    "take", "split", "join", "parse", "fmt", "eq", "cmp", "hash", "to_string", "entry", "keys",
    "values", "sort", "map", "and_then", "unwrap_or", "unwrap_or_else", "unwrap_or_default",
    "min", "max", "count", "rev", "filter", "fold", "any", "all", "find", "enumerate", "zip",
    "abs", "new", "default", "from", "into", "as_ref", "as_mut", "write", "read", "flush",
    "retain", "append", "starts_with", "ends_with", "to_vec", "as_slice", "as_bytes", "get_or",
];

/// One graph node: a fn item plus where it lives.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Crate name without the `icbtc-` prefix.
    pub crate_name: String,
    pub item: FnItem,
}

impl FnNode {
    /// `Type::name` or `name` — the display form used in call chains.
    pub fn qualified_name(&self) -> String {
        match &self.item.impl_type {
            Some(ty) => format!("{ty}::{}", self.item.name),
            None => self.item.name.clone(),
        }
    }
}

/// The resolved workspace call graph with update-root reachability.
#[derive(Debug)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// Adjacency: `edges[caller] = [(callee, call line), …]`, sorted.
    pub edges: Vec<Vec<(usize, u32)>>,
    /// Node indices of the update roots, in discovery order.
    pub roots: Vec<usize>,
    /// BFS parent edge towards the nearest root: `(caller, call line)`.
    parent: Vec<Option<(usize, u32)>>,
    reachable: Vec<bool>,
}

impl CallGraph {
    /// Builds the graph. `structs` must contain every struct definition
    /// in the workspace (fields resolve across files of a crate and,
    /// via pub fields, across crates). Nodes keep the input order, so
    /// deterministic input ⇒ deterministic graph.
    pub fn build(mut nodes: Vec<FnNode>, structs: &[StructDef]) -> CallGraph {
        nodes.sort_by(|a, b| (&a.file, a.item.line).cmp(&(&b.file, b.item.line)));
        let scope = transitive_deps();

        // Lookup tables.
        let mut methods: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut free_fns: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut method_ret: BTreeMap<(&str, &str), &str> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            match &n.item.impl_type {
                Some(ty) => {
                    methods.entry((ty, &n.item.name)).or_default().push(i);
                    if let Some(ret) = &n.item.ret {
                        method_ret.entry((ty, &n.item.name)).or_insert(ret);
                    }
                }
                None => free_fns.entry(&n.item.name).or_default().push(i),
            }
        }
        let mut fields: BTreeMap<(&str, &str), &str> = BTreeMap::new();
        for s in structs {
            for (f, ty) in &s.fields {
                fields.entry((&s.name, f)).or_insert(ty);
            }
        }

        let in_scope = |caller_crate: &str, idx: usize, nodes: &[FnNode]| -> bool {
            let c = &nodes[idx].crate_name;
            c == caller_crate
                || scope.get(caller_crate).is_some_and(|deps| deps.contains(c.as_str()))
        };

        let mut edges: Vec<Vec<(usize, u32)>> = vec![Vec::new(); nodes.len()];
        for i in 0..nodes.len() {
            let caller_crate = nodes[i].crate_name.clone();
            let impl_type = nodes[i].item.impl_type.clone();
            for call in nodes[i].item.calls.clone() {
                let mut targets: Vec<usize> = Vec::new();
                match &call.callee {
                    Callee::Free(name) => {
                        if let Some(cands) = free_fns.get(name.as_str()) {
                            let visible: Vec<usize> = cands
                                .iter()
                                .copied()
                                .filter(|&t| in_scope(&caller_crate, t, &nodes))
                                .collect();
                            // Same-crate definitions shadow dependency ones.
                            let local: Vec<usize> = visible
                                .iter()
                                .copied()
                                .filter(|&t| nodes[t].crate_name == caller_crate)
                                .collect();
                            targets = if local.is_empty() { visible } else { local };
                        }
                    }
                    Callee::Qualified { ty, method } => {
                        if let Some(cands) = methods.get(&(ty.as_str(), method.as_str())) {
                            targets = cands
                                .iter()
                                .copied()
                                .filter(|&t| in_scope(&caller_crate, t, &nodes))
                                .collect();
                        }
                    }
                    Callee::Method { root, chain, method } => {
                        let start_ty: Option<&str> = match root {
                            ChainRoot::SelfVar => impl_type.as_deref(),
                            ChainRoot::Var(ty)
                                if ty.starts_with(|c: char| c.is_ascii_uppercase()) =>
                            {
                                Some(ty.as_str())
                            }
                            _ => None,
                        };
                        let mut resolved = false;
                        if let Some(mut ty) = start_ty {
                            let mut ok = true;
                            for seg in chain {
                                let next = match seg {
                                    ChainSeg::Field(f) => {
                                        fields.get(&(ty, f.as_str())).copied()
                                    }
                                    ChainSeg::Call(m) => {
                                        method_ret.get(&(ty, m.as_str())).copied()
                                    }
                                };
                                match next {
                                    Some(n) => ty = n,
                                    None => {
                                        ok = false;
                                        break;
                                    }
                                }
                            }
                            if ok {
                                resolved = true;
                                if let Some(cands) = methods.get(&(ty, method.as_str())) {
                                    targets = cands
                                        .iter()
                                        .copied()
                                        .filter(|&t| in_scope(&caller_crate, t, &nodes))
                                        .collect();
                                }
                                // A typed receiver whose method is not in
                                // the workspace is std/external: no edge,
                                // no fallback.
                            }
                        }
                        if !resolved && !STD_METHOD_NAMES.contains(&method.as_str()) {
                            // Unique-name fallback over visible methods.
                            let mut cands: Vec<usize> = Vec::new();
                            for ((_, m), idxs) in &methods {
                                if *m == method.as_str() {
                                    cands.extend(
                                        idxs.iter()
                                            .copied()
                                            .filter(|&t| in_scope(&caller_crate, t, &nodes)),
                                    );
                                }
                            }
                            if cands.len() == 1 {
                                targets = cands;
                            }
                        }
                    }
                }
                for t in targets {
                    edges[i].push((t, call.line));
                }
            }
            edges[i].sort_unstable();
            edges[i].dedup();
        }

        let roots: Vec<usize> = (0..nodes.len())
            .filter(|&i| {
                UPDATE_ROOTS
                    .iter()
                    .any(|(c, f)| nodes[i].crate_name == *c && nodes[i].item.name == *f)
            })
            .collect();

        // Deterministic BFS: shortest call chain to the nearest root.
        let mut parent: Vec<Option<(usize, u32)>> = vec![None; nodes.len()];
        let mut reachable = vec![false; nodes.len()];
        let mut queue: std::collections::VecDeque<usize> = Default::default();
        for &r in &roots {
            if !reachable[r] {
                reachable[r] = true;
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &(t, line) in &edges[n] {
                if !reachable[t] {
                    reachable[t] = true;
                    parent[t] = Some((n, line));
                    queue.push_back(t);
                }
            }
        }

        CallGraph { nodes, edges, roots, parent, reachable }
    }

    pub fn is_reachable(&self, n: usize) -> bool {
        self.reachable[n]
    }

    /// The BFS parent edge of `n` towards its nearest update root
    /// (`None` for roots themselves).
    pub fn parent_edge(&self, n: usize) -> Option<(usize, u32)> {
        self.parent[n]
    }

    /// The shortest call chain `root → … → n` as qualified fn names.
    pub fn chain(&self, n: usize) -> Vec<String> {
        let mut rev = vec![n];
        let mut cur = n;
        while let Some((p, _)) = self.parent[cur] {
            rev.push(p);
            cur = p;
        }
        rev.iter().rev().map(|&i| self.nodes[i].qualified_name()).collect()
    }

    /// Whether any node in the downward call closure of `n` (including
    /// `n` itself) references a `metering::*` constant or `.charge*()`.
    /// Used by ICL013: a loop is considered priced if its function's
    /// closure records instructions somewhere.
    pub fn metering_closure(&self) -> Vec<bool> {
        let mut metered: Vec<bool> = self.nodes.iter().map(|n| n.item.has_metering).collect();
        // Fixpoint over the (possibly cyclic) graph.
        loop {
            let mut changed = false;
            for i in 0..self.nodes.len() {
                if metered[i] {
                    continue;
                }
                if self.edges[i].iter().any(|&(t, _)| metered[t]) {
                    metered[i] = true;
                    changed = true;
                }
            }
            if !changed {
                return metered;
            }
        }
    }
}

/// `crate → set of (transitively) visible dependency crates`.
fn transitive_deps() -> BTreeMap<&'static str, BTreeSet<&'static str>> {
    let direct: BTreeMap<&str, &[&str]> = CRATE_DEPS.iter().copied().collect();
    let mut out: BTreeMap<&'static str, BTreeSet<&'static str>> = BTreeMap::new();
    for (name, _) in CRATE_DEPS {
        let mut seen: BTreeSet<&'static str> = BTreeSet::new();
        let mut stack: Vec<&'static str> = direct.get(name).map(|d| d.to_vec()).unwrap_or_default();
        while let Some(d) = stack.pop() {
            if seen.insert(d) {
                if let Some(next) = direct.get(d) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        out.insert(name, seen);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn graph_of(files: &[(&str, &str, &str)]) -> CallGraph {
        let mut nodes = Vec::new();
        let mut structs = Vec::new();
        for (path, krate, src) in files {
            let parsed = parse_file(src);
            structs.extend(parsed.structs);
            for item in parsed.fns {
                nodes.push(FnNode {
                    file: path.to_string(),
                    crate_name: krate.to_string(),
                    item,
                });
            }
        }
        CallGraph::build(nodes, &structs)
    }

    fn idx(g: &CallGraph, name: &str) -> usize {
        g.nodes.iter().position(|n| n.item.name == name).unwrap()
    }

    #[test]
    fn free_call_reaches_across_crates() {
        let g = graph_of(&[
            ("crates/canister/src/a.rs", "canister", "pub fn try_ingest_block() { retarget(1); }"),
            ("crates/bitcoin/src/pow.rs", "bitcoin", "pub fn retarget(x: u32) -> u32 { x }"),
        ]);
        assert!(g.is_reachable(idx(&g, "retarget")));
        assert_eq!(g.chain(idx(&g, "retarget")), vec!["try_ingest_block", "retarget"]);
    }

    #[test]
    fn field_chain_resolves_methods() {
        let g = graph_of(&[(
            "crates/canister/src/c.rs",
            "canister",
            "struct C { q: Cache }\n\
             struct Cache { n: u64 }\n\
             impl C { pub fn dispatch(&mut self) { self.q.peek(); } }\n\
             impl Cache { pub fn peek(&self) -> u64 { self.n } }\n",
        )]);
        assert!(g.is_reachable(idx(&g, "peek")));
    }

    #[test]
    fn ambiguous_method_names_add_no_edge() {
        let g = graph_of(&[(
            "crates/canister/src/c.rs",
            "canister",
            "impl A { pub fn dispatch(&self, x: &X) { x.step(); } }\n\
             impl B { pub fn step(&self) {} }\n\
             impl D { pub fn step(&self) {} }\n",
        )]);
        // Two candidates named `step`, untyped receiver → no edge.
        assert!(!g.is_reachable(idx(&g, "step")));
    }

    #[test]
    fn typed_receiver_with_external_method_does_not_fall_back() {
        let g = graph_of(&[(
            "crates/canister/src/c.rs",
            "canister",
            "struct C { m: BTreeMap }\n\
             impl C { pub fn dispatch(&self) { self.m.fetch(); } }\n\
             impl Other { pub fn fetch(&self) {} }\n",
        )]);
        // `self.m` resolves to BTreeMap; `BTreeMap::fetch` is not in the
        // workspace, so no unique-name fallback to `Other::fetch`.
        assert!(!g.is_reachable(idx(&g, "fetch")));
    }

    #[test]
    fn every_root_names_a_function_of_the_real_workspace() {
        // A renamed entry point must not silently leave a root that
        // guards nothing: each root names at least one non-test fn of
        // its crate, collected exactly as the analysis collects nodes.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut fns: BTreeSet<(String, String)> = BTreeSet::new();
        for file in crate::workspace::discover(&root).expect("workspace discovery") {
            if file.ctx.is_entry_or_test {
                continue;
            }
            let source = std::fs::read_to_string(&file.abs_path).expect("source");
            let regions = crate::engine::test_regions(&crate::lexer::lex(&source));
            for item in parse_file(&source).fns {
                if !regions.iter().any(|&(s, e)| s <= item.line && item.line <= e) {
                    fns.insert((file.ctx.crate_name.clone(), item.name));
                }
            }
        }
        for (krate, name) in UPDATE_ROOTS.iter().chain(QUERY_ROOTS) {
            assert!(
                fns.contains(&(krate.to_string(), name.to_string())),
                "root {krate}::{name} names no fn in the workspace"
            );
        }
    }

    #[test]
    fn dep_matrix_matches_cargo_manifests() {
        // Cross-check CRATE_DEPS against the real Cargo.tomls: every
        // `icbtc-*` path dependency in [dependencies] must be listed.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (name, deps) in CRATE_DEPS {
            let manifest = if *name == "icbtc" {
                root.join("Cargo.toml")
            } else {
                root.join("crates").join(name).join("Cargo.toml")
            };
            let text = std::fs::read_to_string(&manifest).expect("manifest");
            let mut in_deps = false;
            let mut found: Vec<&str> = Vec::new();
            for line in text.lines() {
                let line = line.trim();
                if line.starts_with('[') {
                    in_deps = line == "[dependencies]";
                    continue;
                }
                if in_deps {
                    if let Some(dep) = line.strip_prefix("icbtc-") {
                        // `icbtc-sim.workspace = true` or `icbtc-sim = {…}`.
                        let d = dep
                            .split(['=', ' ', '.'])
                            .next()
                            .unwrap_or_default()
                            .trim();
                        if let Some(d) = CRATE_DEPS.iter().map(|(n, _)| *n).find(|n| *n == d) {
                            found.push(d);
                        }
                    } else if line.starts_with("icbtc.")
                        || line.starts_with("icbtc ")
                        || line.starts_with("icbtc=")
                    {
                        found.push("icbtc");
                    }
                }
            }
            found.sort_unstable();
            let mut expected: Vec<&str> = deps.to_vec();
            expected.sort_unstable();
            assert_eq!(found, expected, "dependency matrix drift for crate `{name}`");
        }
    }
}
