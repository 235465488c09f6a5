//! Deterministic, sampling-free hierarchical profiler.
//!
//! The profiler attributes *work units* — metered instructions on the
//! canister path, modeled service-time units on the adapter/ic/btcnet
//! paths — to a stack of named frames. There is no sampling and no
//! wall-clock anywhere: a frame's cost is the difference of an explicit
//! monotonic clock read at entry and exit, so two same-seed runs produce
//! byte-identical reports (the same contract as the rest of `obs`).
//!
//! # Frame model
//!
//! Frames form a tree rooted at a synthetic root node. Entering frame
//! `b` while `a` is open creates (or reuses) the tree path `a;b`. On
//! exit, the frame's **total** is `exit_clock - enter_clock` and its
//! **self** cost is the total minus the totals of the child frames that
//! closed beneath it. The invariant maintained throughout:
//!
//! > the sum of `self` over all frames equals the root total.
//!
//! # Clocks
//!
//! Two ways to drive the clock:
//!
//! * **External clock** — [`Profiler::enter_at`] / [`Profiler::exit_at`]
//!   take the clock value explicitly. The canister path uses the meter's
//!   instruction counter as the clock, so frames account exactly the
//!   instructions charged between entry and exit.
//! * **Internal work clock** — [`Profiler::enter`] / [`Profiler::exit`] /
//!   [`Profiler::add`] drive a private `u64` accumulator. Layers without
//!   a meter (adapter, btcnet) call `add(units)` for each piece of
//!   modeled work; the open frame stack attributes it.
//!
//! # Unbalanced exits
//!
//! `exit_at` closes every frame *deeper than* the exited token at the
//! exit clock, so an early return that skips inner `exit` calls still
//! leaves the stack balanced. Exiting an already-closed token is a no-op.

use std::collections::BTreeMap;

/// Handle for an open frame; pass it back to [`Profiler::exit_at`] (or
/// [`Profiler::exit`]). Tokens are stack positions: exiting a token also
/// closes any frames opened above it that were never exited explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "unexited frames only close when an enclosing token exits"]
pub struct FrameToken {
    /// Stack index of the frame this token opened.
    index: usize,
}

/// Aggregated statistics of one frame (one tree node), as reported by
/// [`Profiler::frames`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameStat {
    /// `;`-joined path from the root, e.g. `"ingest_block;script_parse"`.
    pub path: String,
    /// Leaf frame name.
    pub name: &'static str,
    /// Nesting depth (1 = direct child of the root).
    pub depth: usize,
    /// Work units spent in this frame excluding child frames.
    pub self_units: u64,
    /// Work units spent in this frame including child frames.
    pub total_units: u64,
    /// Number of times the frame was entered.
    pub calls: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct FrameNode {
    name: &'static str,
    parent: usize,
    self_units: u64,
    total_units: u64,
    calls: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ActiveFrame {
    node: usize,
    enter_clock: u64,
    /// Sum of totals of child frames that closed under this frame.
    child_units: u64,
}

/// Deterministic hierarchical frame profiler. Integer-only state; all
/// iteration is `BTreeMap`/index ordered, so same-seed runs render
/// byte-identical reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profiler {
    /// Node 0 is the synthetic root (`name = "root"`, parent = 0).
    nodes: Vec<FrameNode>,
    /// `(parent node index, child name) -> child node index`.
    children: BTreeMap<(usize, &'static str), usize>,
    stack: Vec<ActiveFrame>,
    /// Internal work clock for layers without an external meter.
    work: u64,
    max_depth: usize,
}

impl Default for Profiler {
    fn default() -> Profiler {
        Profiler::new()
    }
}

const ROOT: usize = 0;

impl Profiler {
    /// Creates an empty profiler (just the synthetic root).
    pub fn new() -> Profiler {
        Profiler {
            nodes: vec![FrameNode {
                name: "root",
                parent: ROOT,
                self_units: 0,
                total_units: 0,
                calls: 0,
            }],
            children: BTreeMap::new(),
            stack: Vec::new(),
            work: 0,
            max_depth: 0,
        }
    }

    fn child_node(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&idx) = self.children.get(&(parent, name)) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(FrameNode { name, parent, self_units: 0, total_units: 0, calls: 0 });
        self.children.insert((parent, name), idx);
        idx
    }

    /// Opens a frame at an explicit clock value (e.g. the meter's
    /// instruction counter). The clock must be monotonic between this
    /// call and the matching [`Profiler::exit_at`].
    pub fn enter_at(&mut self, name: &'static str, clock: u64) -> FrameToken {
        let parent = self.stack.last().map(|f| f.node).unwrap_or(ROOT);
        let node = self.child_node(parent, name);
        self.nodes[node].calls += 1;
        let index = self.stack.len();
        self.stack.push(ActiveFrame { node, enter_clock: clock, child_units: 0 });
        if self.stack.len() > self.max_depth {
            self.max_depth = self.stack.len();
        }
        FrameToken { index }
    }

    /// Closes the frame opened by `token` (and any deeper frames that
    /// were never explicitly exited — early returns stay balanced) at an
    /// explicit clock value. Exiting an already-closed token is a no-op.
    pub fn exit_at(&mut self, token: FrameToken, clock: u64) {
        while self.stack.len() > token.index {
            let Some(frame) = self.stack.pop() else { return };
            let total = clock.saturating_sub(frame.enter_clock);
            let node = &mut self.nodes[frame.node];
            node.total_units += total;
            node.self_units += total.saturating_sub(frame.child_units);
            match self.stack.last_mut() {
                Some(parent) => parent.child_units += total,
                // A depth-1 frame closed: its total rolls into the root,
                // keeping Σ self == root total.
                None => self.nodes[ROOT].total_units += total,
            }
        }
    }

    /// Opens a frame on the internal work clock.
    pub fn enter(&mut self, name: &'static str) -> FrameToken {
        let clock = self.work;
        self.enter_at(name, clock)
    }

    /// Closes a frame opened on the internal work clock.
    pub fn exit(&mut self, token: FrameToken) {
        let clock = self.work;
        self.exit_at(token, clock);
    }

    /// Advances the internal work clock by `units` of modeled work,
    /// attributing them to the innermost open frame.
    pub fn add(&mut self, units: u64) {
        self.work = self.work.saturating_add(units);
    }

    /// Number of frames currently open.
    // icbtc-lint: node-local -- profile state is per-replica diagnostics
    pub fn in_flight(&self) -> usize {
        self.stack.len()
    }

    /// Total work units accounted at the root (the sum of all frames'
    /// self units).
    // icbtc-lint: node-local -- profile state is per-replica diagnostics
    pub fn root_total(&self) -> u64 {
        self.nodes[ROOT].total_units
    }

    /// Deepest stack observed.
    // icbtc-lint: node-local -- profile state is per-replica diagnostics
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// `true` if no frame has ever closed with nonzero cost.
    // icbtc-lint: node-local -- profile state is per-replica diagnostics
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1 && self.stack.is_empty()
    }

    /// Total units of every frame named `name`, wherever it sits in the
    /// tree (e.g. Figure 6's `output_insertion` under any caller). Frames
    /// of that name must not nest inside each other, or their cost is
    /// counted twice.
    // icbtc-lint: node-local -- profile reads are per-replica diagnostics
    pub fn total_named(&self, name: &str) -> u64 {
        self.nodes[ROOT + 1..].iter().filter(|n| n.name == name).map(|n| n.total_units).sum()
    }

    /// All frames in deterministic depth-first order (children visited
    /// in name order), paths `;`-joined from the root.
    // icbtc-lint: node-local -- profile reads are per-replica diagnostics
    pub fn frames(&self) -> Vec<FrameStat> {
        let mut out = Vec::new();
        self.walk(ROOT, &mut String::new(), 0, &mut out);
        out
    }

    fn walk(&self, node: usize, path: &mut String, depth: usize, out: &mut Vec<FrameStat>) {
        // `children` is keyed `(parent, name)`, so a range over one parent
        // yields that parent's children in name order.
        let kids: Vec<(&'static str, usize)> = self
            .children
            .range((node, "")..)
            .take_while(|((p, _), _)| *p == node)
            .map(|((_, name), idx)| (*name, *idx))
            .collect();
        for (name, idx) in kids {
            let saved = path.len();
            if !path.is_empty() {
                path.push(';');
            }
            path.push_str(name);
            let n = &self.nodes[idx];
            out.push(FrameStat {
                path: path.clone(),
                name,
                depth: depth + 1,
                self_units: n.self_units,
                total_units: n.total_units,
                calls: n.calls,
            });
            self.walk(idx, path, depth + 1, out);
            path.truncate(saved);
        }
    }

    /// Merges `other`'s accumulated frames into `self`, matching frames
    /// by path from the root. Open stacks are not merged — only closed
    /// (accounted) cost moves.
    pub fn merge_from(&mut self, other: &Profiler) {
        self.graft(ROOT, other, ROOT);
        self.nodes[ROOT].total_units += other.nodes[ROOT].total_units;
        if other.max_depth > self.max_depth {
            self.max_depth = other.max_depth;
        }
    }

    /// Merges `other` under a child of the root named `label`, so several
    /// components' profiles can live in one tree without path collisions.
    /// `label` absorbs `other`'s root total as its own total.
    pub fn merge_under(&mut self, label: &'static str, other: &Profiler) {
        let slot = self.child_node(ROOT, label);
        self.graft(slot, other, ROOT);
        let grafted = other.nodes[ROOT].total_units;
        self.nodes[slot].total_units += grafted;
        self.nodes[ROOT].total_units += grafted;
        let depth = other.max_depth + 1;
        if depth > self.max_depth {
            self.max_depth = depth;
        }
    }

    fn graft(&mut self, my_parent: usize, other: &Profiler, other_parent: usize) {
        let kids: Vec<(&'static str, usize)> = other
            .children
            .range((other_parent, "")..)
            .take_while(|((p, _), _)| *p == other_parent)
            .map(|((_, name), idx)| (*name, *idx))
            .collect();
        for (name, other_idx) in kids {
            let mine = self.child_node(my_parent, name);
            let theirs = &other.nodes[other_idx];
            self.nodes[mine].self_units += theirs.self_units;
            self.nodes[mine].total_units += theirs.total_units;
            self.nodes[mine].calls += theirs.calls;
            self.graft(mine, other, other_idx);
        }
    }

    /// Renders the deterministic profile report: a header, the top-`n`
    /// frames by self cost, and collapsed-stack flamegraph lines
    /// (`a;b;c <self_units>`). Integer-only; byte-identical across
    /// same-seed runs.
    // icbtc-lint: node-local -- profile reports are per-replica diagnostics
    pub fn render_report(&self, top_n: usize) -> String {
        let frames = self.frames();
        let mut out = String::new();
        out.push_str(
            "# profile report (deterministic, units = instructions / modeled service units)\n",
        );
        out.push_str(&format!(
            "frames: {}  max_depth: {}  root_total: {}\n",
            frames.len(),
            self.max_depth,
            self.root_total(),
        ));
        out.push_str(&format!("\n## top {top_n} frames by self cost\n"));
        out.push_str(&format!(
            "{:>20}  {:>20}  {:>10}  frame\n",
            "self_units", "total_units", "calls"
        ));
        let mut by_self: Vec<&FrameStat> = frames.iter().collect();
        // Deterministic order: self cost descending, path ascending on ties.
        by_self.sort_by(|a, b| b.self_units.cmp(&a.self_units).then_with(|| a.path.cmp(&b.path)));
        for stat in by_self.iter().take(top_n) {
            out.push_str(&format!(
                "{:>20}  {:>20}  {:>10}  {}\n",
                stat.self_units, stat.total_units, stat.calls, stat.path
            ));
        }
        out.push_str("\n## collapsed stacks\n");
        for stat in &frames {
            if stat.self_units > 0 {
                out.push_str(&format!("{} {}\n", stat.path, stat.self_units));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_and_total_attribution() {
        let mut p = Profiler::new();
        let a = p.enter_at("a", 0);
        let b = p.enter_at("b", 10);
        p.exit_at(b, 40);
        p.exit_at(a, 100);
        let frames = p.frames();
        let a = frames.iter().find(|f| f.path == "a").unwrap();
        let b = frames.iter().find(|f| f.path == "a;b").unwrap();
        assert_eq!(a.total_units, 100);
        assert_eq!(a.self_units, 70);
        assert_eq!(b.total_units, 30);
        assert_eq!(b.self_units, 30);
        assert_eq!(p.root_total(), 100);
        assert_eq!(p.max_depth(), 2);
    }

    #[test]
    fn total_named_sums_a_name_across_callers() {
        let mut p = Profiler::new();
        let a = p.enter_at("a", 0);
        let leaf = p.enter_at("leaf", 0);
        p.exit_at(leaf, 30);
        p.exit_at(a, 50);
        let leaf = p.enter_at("leaf", 50);
        p.exit_at(leaf, 57);
        assert_eq!(p.total_named("leaf"), 37);
        assert_eq!(p.total_named("a"), 50);
        assert_eq!(p.total_named("root"), 0, "the synthetic root is not a frame");
        assert_eq!(p.total_named("missing"), 0);
    }

    #[test]
    fn self_sums_to_root_total() {
        let mut p = Profiler::new();
        for round in 0..5u64 {
            let base = round * 1000;
            let a = p.enter_at("a", base);
            let b = p.enter_at("b", base + 3);
            let c = p.enter_at("c", base + 10);
            p.exit_at(c, base + 50);
            p.exit_at(b, base + 70);
            let d = p.enter_at("d", base + 80);
            p.exit_at(d, base + 95);
            p.exit_at(a, base + 200);
        }
        let sum: u64 = p.frames().iter().map(|f| f.self_units).sum();
        assert_eq!(sum, p.root_total());
        assert_eq!(p.root_total(), 5 * 200);
    }

    #[test]
    fn early_returns_are_healed_by_outer_exit() {
        let mut p = Profiler::new();
        let outer = p.enter_at("outer", 0);
        let _inner = p.enter_at("inner", 10);
        // `inner` never exits explicitly (early return); the outer exit
        // closes it at the same clock.
        p.exit_at(outer, 100);
        assert_eq!(p.in_flight(), 0);
        let frames = p.frames();
        let inner = frames.iter().find(|f| f.path == "outer;inner").unwrap();
        assert_eq!(inner.total_units, 90);
        let sum: u64 = frames.iter().map(|f| f.self_units).sum();
        assert_eq!(sum, p.root_total());
    }

    #[test]
    fn double_exit_is_a_noop() {
        let mut p = Profiler::new();
        let a = p.enter_at("a", 0);
        p.exit_at(a, 10);
        p.exit_at(a, 50);
        assert_eq!(p.root_total(), 10);
        assert_eq!(p.frames()[0].calls, 1);
    }

    #[test]
    fn merge_from_matches_paths() {
        let build = |scale: u64| {
            let mut p = Profiler::new();
            let a = p.enter_at("a", 0);
            let b = p.enter_at("b", scale);
            p.exit_at(b, 3 * scale);
            p.exit_at(a, 4 * scale);
            p
        };
        let mut p = build(10);
        p.merge_from(&build(100));
        let frames = p.frames();
        let a = frames.iter().find(|f| f.path == "a").unwrap();
        assert_eq!(a.total_units, 40 + 400);
        assert_eq!(a.calls, 2);
        let sum: u64 = frames.iter().map(|f| f.self_units).sum();
        assert_eq!(sum, p.root_total());
    }

    #[test]
    fn merge_under_prefixes_components() {
        let mut component = Profiler::new();
        let a = component.enter_at("hot", 0);
        component.exit_at(a, 42);
        let mut merged = Profiler::new();
        merged.merge_under("canister", &component);
        let frames = merged.frames();
        assert!(frames.iter().any(|f| f.path == "canister;hot" && f.total_units == 42));
        assert_eq!(merged.root_total(), 42);
        let sum: u64 = frames.iter().map(|f| f.self_units).sum();
        assert_eq!(sum, merged.root_total());
    }

    #[test]
    fn report_is_deterministic_and_collapsed_stacks_render() {
        let build = || {
            let mut p = Profiler::new();
            let a = p.enter_at("ingest", 0);
            let b = p.enter_at("hashing", 5);
            p.exit_at(b, 30);
            p.exit_at(a, 50);
            p.render_report(8)
        };
        let report = build();
        assert_eq!(report, build());
        assert!(report.contains("ingest;hashing 25\n"));
        assert!(report.contains("ingest 25\n"));
        assert!(report.contains("root_total: 50"));
    }

    #[test]
    fn internal_work_clock_attributes_added_units() {
        let mut p = Profiler::new();
        let a = p.enter("dispatch");
        p.add(100);
        let b = p.enter("encode");
        p.add(40);
        p.exit(b);
        p.exit(a);
        let frames = p.frames();
        let dispatch = frames.iter().find(|f| f.path == "dispatch").unwrap();
        let encode = frames.iter().find(|f| f.path == "dispatch;encode").unwrap();
        assert_eq!(dispatch.self_units, 100);
        assert_eq!(encode.self_units, 40);
        assert_eq!(p.root_total(), 140);
    }
}
