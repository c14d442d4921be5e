//! The whole-workspace determinism passes: SMI007 (nondeterminism taint
//! reachability), SMI008 (lock-order cycles), SMI009 (panic-path
//! reachability). All three report **full call chains** from a
//! record-producing entry point to the flagged site, and each is
//! suppressible at the *site* only by a pragma naming its own rule
//! (`nd-taint`, `lock-order`, `panic-path`). A clippy `#[expect]` that
//! justifies a line lint at the same site does not cover reachability:
//! being fine locally and being allowed on a record path are separate
//! claims.

use crate::graph::CallGraph;
use crate::parser::ParsedFile;
use crate::rules::{pragma_allows, ChainStep, Finding, LOCK_ORDER, ND_TAINT, PANIC_PATH};
use std::collections::{BTreeMap, BTreeSet};

/// The record-producing entry points of the laboratory, as fixed by the
/// reproducibility contract (DESIGN.md §12): the strict entries below
/// plus the analysis cell builders (`*_cells`). SMI007 (record purity)
/// flows from all of them.
pub fn workspace_entries(graph: &CallGraph, files: &[ParsedFile]) -> Vec<usize> {
    entry_ids(graph, files, true)
}

/// The strict simulation-path entry points: the MPI engine's free
/// `mpi_sim::run`/`run_with`, the prepared-job path campaigns take
/// (`mpi_sim::Job::new` and `Job::run`, via `nas::CellJob`), and every
/// `NoiseModel::schedule`. SMI009 derives the no-panic regime from
/// these — campaign *setup* (cell builders validating hard-coded specs
/// with asserts) may abort loudly, but anything these entries reach
/// executes mid-measurement, where an abort loses the run.
pub fn strict_entries(graph: &CallGraph, files: &[ParsedFile]) -> Vec<usize> {
    entry_ids(graph, files, false)
}

fn entry_ids(graph: &CallGraph, files: &[ParsedFile], include_cells: bool) -> Vec<usize> {
    let mut out = Vec::new();
    for (id, node) in graph.fns.iter().enumerate() {
        if node.in_test {
            continue;
        }
        let def = &files[node.file].fns[node.def];
        let is_entry = match node.crate_name.as_str() {
            "mpi-sim" => match def.owner.as_deref() {
                None => def.name == "run" || def.name == "run_with",
                Some("Job") => def.name == "new" || def.name == "run",
                Some(_) => false,
            },
            "noise" => def.owner.is_some() && def.name == "schedule",
            "analysis" => include_cells && def.owner.is_none() && def.name.ends_with("_cells"),
            _ => false,
        };
        if is_entry {
            out.push(id);
        }
    }
    out
}

/// What one pass produced: surviving findings plus the pragma count.
#[derive(Clone, Debug, Default)]
pub struct PassResult {
    /// Findings not covered by a pragma.
    pub findings: Vec<Finding>,
    /// Findings a pragma suppressed.
    pub suppressed: u32,
}

fn chain_steps(graph: &CallGraph, chain: &[usize]) -> Vec<ChainStep> {
    chain
        .iter()
        .map(|&id| {
            let n = &graph.fns[id];
            ChainStep { what: n.display.clone(), path: n.path.clone(), line: n.line }
        })
        .collect()
}

fn suppressed_at(files: &[ParsedFile], file: usize, line: u32, names: &[&str]) -> bool {
    let pf = &files[file];
    pragma_allows(&pf.pragmas, &pf.code_lines, line, names)
}

/// SMI007: any call path from a record-producing entry point to a
/// nondeterminism source. One finding per source site, carrying the
/// (BFS-shortest, deterministic) chain that reaches it.
pub fn smi007(files: &[ParsedFile], graph: &CallGraph, entries: &[usize]) -> PassResult {
    let parent = graph.reach(entries);
    let mut out = PassResult::default();
    for (id, node) in graph.fns.iter().enumerate() {
        if parent[id].is_none() || node.in_test {
            continue;
        }
        let def = &files[node.file].fns[node.def];
        for site in &def.taints {
            if suppressed_at(files, node.file, site.line, &[ND_TAINT.name]) {
                out.suppressed += 1;
                continue;
            }
            let chain = graph.chain(&parent, id);
            let entry = &graph.fns[chain[0]];
            out.findings.push(Finding {
                rule: ND_TAINT,
                crate_name: node.crate_name.clone(),
                path: node.path.clone(),
                line: site.line,
                message: format!(
                    "`{}` ({}) in `{}` is reachable from record entry point `{}`: \
                     every record must be a pure function of cell identity and seed; \
                     remove the source or justify with \
                     `// smi-lint: allow(nd-taint): <why it cannot affect records>`",
                    site.what,
                    site.kind.label(),
                    node.display,
                    entry.display
                ),
                chain: chain_steps(graph, &chain),
            });
        }
    }
    sort_findings(&mut out.findings);
    out
}

/// One edge of the lock-order graph with its witness.
#[derive(Clone, Debug)]
struct LockEdge {
    /// Function whose body witnesses the edge.
    fn_id: usize,
    /// Line of the *second* acquisition (or of the call that reaches it).
    line: u32,
    /// How the second lock is reached: empty for a direct intra-function
    /// pair, else the callee chain.
    via: Vec<usize>,
}

/// SMI008: cycles in the interprocedural lock-acquisition-order graph.
/// An edge `a -> b` means some function acquires `a` and, while the
/// guard may still be live (conservatively: any later point in the same
/// body), acquires `b` directly or calls into code that may acquire `b`.
/// A cycle means two executions can wait on each other: the pre-flight
/// deadlock check a parallel-in-one-simulation engine needs.
pub fn smi008(files: &[ParsedFile], graph: &CallGraph) -> PassResult {
    // may_acquire: fixpoint of direct locks over the call graph.
    let n = graph.fns.len();
    let mut may: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for (id, node) in graph.fns.iter().enumerate() {
        if node.in_test {
            continue;
        }
        for l in &files[node.file].fns[node.def].locks {
            may[id].insert(l.name.clone());
        }
    }
    loop {
        let mut changed = false;
        for id in 0..n {
            for &next in &graph.edges[id] {
                let add: Vec<String> =
                    may[next].iter().filter(|l| !may[id].contains(*l)).cloned().collect();
                if !add.is_empty() {
                    changed = true;
                    may[id].extend(add);
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Lock-order edges, keyed (from, to) with the first witness kept.
    let mut order: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    for (id, node) in graph.fns.iter().enumerate() {
        if node.in_test {
            continue;
        }
        let def = &files[node.file].fns[node.def];
        for (i, first) in def.locks.iter().enumerate() {
            // Direct pair: first then second in the same body.
            for second in def.locks.iter().skip(i + 1) {
                let key = (first.name.clone(), second.name.clone());
                order.entry(key).or_insert(LockEdge {
                    fn_id: id,
                    line: second.line,
                    via: Vec::new(),
                });
            }
            // Call-mediated: a later call may acquire more locks. Held
            // guards crossing *into* the call are the hazard; same-name
            // self-edges are skipped here (distinct instances behind one
            // name, e.g. per-worker deques, are the common false case).
            for call in def.calls.iter().filter(|c| c.order > first.order) {
                for &callee in &graph.edges[id] {
                    let callee_node = &graph.fns[callee];
                    let callee_def = &files[callee_node.file].fns[callee_node.def];
                    if callee_def.name != call.name {
                        continue;
                    }
                    for target in &may[callee] {
                        if *target == first.name {
                            continue;
                        }
                        let key = (first.name.clone(), target.clone());
                        order.entry(key).or_insert(LockEdge {
                            fn_id: id,
                            line: call.line,
                            via: vec![callee],
                        });
                    }
                }
            }
        }
    }

    // Cycle detection over the (tiny) lock digraph.
    let nodes: BTreeSet<String> = order.keys().flat_map(|(a, b)| [a.clone(), b.clone()]).collect();
    let mut out = PassResult::default();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in &nodes {
        if let Some(cycle) = find_cycle(&order, start) {
            // Canonical rotation so each cycle is reported once.
            let min_pos = cycle
                .iter()
                .enumerate()
                .min_by_key(|(_, name)| name.as_str())
                .map(|(i, _)| i)
                .unwrap_or(0);
            let mut canon = cycle[min_pos..].to_vec();
            canon.extend_from_slice(&cycle[..min_pos]);
            if !reported.insert(canon.clone()) {
                continue;
            }
            let mut steps = Vec::new();
            let mut anchor: Option<(usize, u32)> = None;
            for k in 0..canon.len() {
                let from = &canon[k];
                let to = &canon[(k + 1) % canon.len()];
                let Some(edge) = order.get(&(from.clone(), to.clone())) else { continue };
                let holder = &graph.fns[edge.fn_id];
                let what = if edge.via.is_empty() {
                    format!("`{}` then `{}` in {}", from, to, holder.display)
                } else {
                    let via: Vec<&str> =
                        edge.via.iter().map(|&v| graph.fns[v].display.as_str()).collect();
                    format!(
                        "`{}` held in {} while calling {} (acquires `{}`)",
                        from,
                        holder.display,
                        via.join(" -> "),
                        to
                    )
                };
                if anchor.is_none() {
                    anchor = Some((edge.fn_id, edge.line));
                }
                steps.push(ChainStep { what, path: holder.path.clone(), line: edge.line });
            }
            let Some((anchor_fn, anchor_line)) = anchor else { continue };
            let holder = &graph.fns[anchor_fn];
            if suppressed_at(files, holder.file, anchor_line, &[LOCK_ORDER.name]) {
                out.suppressed += 1;
                continue;
            }
            out.findings.push(Finding {
                rule: LOCK_ORDER,
                crate_name: holder.crate_name.clone(),
                path: holder.path.clone(),
                line: anchor_line,
                message: format!(
                    "lock-order cycle `{}` — two executions can acquire these locks in \
                     opposite order and deadlock; impose a single global order, or \
                     justify with `// smi-lint: allow(lock-order): <why the orders \
                     cannot interleave>`",
                    canon.iter().chain(canon.first()).cloned().collect::<Vec<_>>().join(" -> ")
                ),
                chain: steps,
            });
        }
    }
    sort_findings(&mut out.findings);
    out
}

/// First cycle through `start` in edge-key order, as the node sequence
/// (no repeated endpoint), or `None`.
fn find_cycle(order: &BTreeMap<(String, String), LockEdge>, start: &str) -> Option<Vec<String>> {
    let mut path = vec![start.to_string()];
    let mut on_path: BTreeSet<String> = path.iter().cloned().collect();
    fn dfs(
        order: &BTreeMap<(String, String), LockEdge>,
        start: &str,
        path: &mut Vec<String>,
        on_path: &mut BTreeSet<String>,
        visited: &mut BTreeSet<String>,
    ) -> bool {
        let cur = path.last().cloned().unwrap_or_default();
        let nexts: Vec<String> = order
            .range((cur.clone(), String::new())..)
            .take_while(|((a, _), _)| *a == cur)
            .map(|((_, b), _)| b.clone())
            .collect();
        for next in nexts {
            if next == start {
                return true;
            }
            if on_path.contains(&next) || visited.contains(&next) {
                continue;
            }
            path.push(next.clone());
            on_path.insert(next.clone());
            if dfs(order, start, path, on_path, visited) {
                return true;
            }
            on_path.remove(&next);
            visited.insert(next);
            path.pop();
        }
        false
    }
    let mut visited = BTreeSet::new();
    if dfs(order, start, &mut path, &mut on_path, &mut visited) {
        Some(path)
    } else {
        None
    }
}

/// Binary/tool crates: a panic there is a usage error or (for the
/// `jsonio-derive` code generator) a build error, never an aborted
/// measurement, so SMI009 skips them, and their crate roots need not
/// deny the no-panic lints (DESIGN.md §7).
pub const TOOL_CRATES: [&str; 3] = ["cli", "smi-lint", "jsonio-derive"];

/// SMI009: panic sites reachable from a strict simulation entry point —
/// the derived no-panic regime.
pub fn smi009(files: &[ParsedFile], graph: &CallGraph, entries: &[usize]) -> PassResult {
    let parent = graph.reach(entries);
    let mut out = PassResult::default();
    for (id, node) in graph.fns.iter().enumerate() {
        if parent[id].is_none() || node.in_test {
            continue;
        }
        if TOOL_CRATES.contains(&node.crate_name.as_str()) {
            continue;
        }
        let def = &files[node.file].fns[node.def];
        for site in &def.panics {
            if site.what == "debug_assert!" {
                continue;
            }
            if suppressed_at(files, node.file, site.line, &[PANIC_PATH.name]) {
                out.suppressed += 1;
                continue;
            }
            let chain = graph.chain(&parent, id);
            let entry = &graph.fns[chain[0]];
            out.findings.push(Finding {
                rule: PANIC_PATH,
                crate_name: node.crate_name.clone(),
                path: node.path.clone(),
                line: site.line,
                message: format!(
                    "`{}` in `{}` can abort a measurement run: it is reachable from \
                     record entry point `{}` (derived no-panic regime); surface the \
                     failure as a typed `SimError`, or justify with \
                     `// smi-lint: allow(panic-path): <why the invariant holds>`",
                    site.what, node.display, entry.display
                ),
                chain: chain_steps(graph, &chain),
            });
        }
    }
    sort_findings(&mut out.findings);
    out
}

/// The files the derived no-panic regime covers: every file defining at
/// least one function reachable from the given entry points
/// (tests/golden.rs pins the strict files it must keep covering).
pub fn panic_reachable_files(graph: &CallGraph, entries: &[usize]) -> BTreeSet<String> {
    let parent = graph.reach(entries);
    graph
        .fns
        .iter()
        .enumerate()
        .filter(|(id, node)| parent[*id].is_some() && !node.in_test)
        .map(|(_, node)| node.path.clone())
        .collect()
}

/// DOT rendering of the lock-order graph (nodes: lock names; edges:
/// acquired-before relations with their witness site).
pub fn lock_graph_dot(files: &[ParsedFile], graph: &CallGraph) -> String {
    // Rebuild the edge set the same way smi008 does, witnesses included.
    let mut out = String::from("digraph locks {\n  node [shape=ellipse, fontsize=10];\n");
    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    let n = graph.fns.len();
    let mut may: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for (id, node) in graph.fns.iter().enumerate() {
        if node.in_test {
            continue;
        }
        for l in &files[node.file].fns[node.def].locks {
            may[id].insert(l.name.clone());
        }
    }
    loop {
        let mut changed = false;
        for id in 0..n {
            for &next in &graph.edges[id] {
                let add: Vec<String> =
                    may[next].iter().filter(|l| !may[id].contains(*l)).cloned().collect();
                if !add.is_empty() {
                    changed = true;
                    may[id].extend(add);
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut nodes: BTreeSet<String> = BTreeSet::new();
    for (id, node) in graph.fns.iter().enumerate() {
        if node.in_test {
            continue;
        }
        let def = &files[node.file].fns[node.def];
        for l in &def.locks {
            nodes.insert(l.name.clone());
        }
        for (i, first) in def.locks.iter().enumerate() {
            for second in def.locks.iter().skip(i + 1) {
                edges
                    .entry((first.name.clone(), second.name.clone()))
                    .or_insert((node.path.clone(), second.line));
            }
            for call in def.calls.iter().filter(|c| c.order > first.order) {
                for &callee in &graph.edges[id] {
                    if files[graph.fns[callee].file].fns[graph.fns[callee].def].name != call.name {
                        continue;
                    }
                    for target in &may[callee] {
                        if *target != first.name {
                            nodes.insert(target.clone());
                            edges
                                .entry((first.name.clone(), target.clone()))
                                .or_insert((node.path.clone(), call.line));
                        }
                    }
                }
            }
        }
    }
    for node in &nodes {
        out.push_str(&format!("  \"{node}\";\n"));
    }
    for ((from, to), (path, line)) in &edges {
        out.push_str(&format!("  \"{from}\" -> \"{to}\" [label=\"{path}:{line}\"];\n"));
    }
    out.push_str("}\n");
    out
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| (&a.path, a.line, a.rule.id).cmp(&(&b.path, b.line, b.rule.id)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{flat_closure, CallGraph};
    use crate::parser::parse_source;

    fn setup(src: &str) -> (Vec<ParsedFile>, CallGraph) {
        let pf = parse_source("fixture", "crates/fixture/src/lib.rs", src);
        let g = CallGraph::build(std::slice::from_ref(&pf), &flat_closure(&["fixture"]));
        (vec![pf], g)
    }

    fn entries_named(g: &CallGraph, name: &str) -> Vec<usize> {
        g.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.display.ends_with(name))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn smi007_reports_the_chain_to_a_laundered_clock() {
        let (files, g) = setup(
            "pub fn entry() { step(); }\n\
             fn step() { helper(); }\n\
             fn helper() { let _t = Instant::now(); }\n\
             fn unreached() { let _t = Instant::now(); }\n",
        );
        let r = smi007(&files, &g, &entries_named(&g, "::entry"));
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        let f = &r.findings[0];
        assert_eq!(f.line, 3);
        let names: Vec<&str> = f.chain.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(names, ["fixture::entry", "fixture::step", "fixture::helper"]);
    }

    #[test]
    fn smi007_respects_site_pragmas() {
        let (files, g) = setup(
            "pub fn entry() { helper(); }\n\
             // smi-lint: allow(nd-taint): calibration-only, never in records\n\
             fn helper() { let _t = Instant::now(); }\n",
        );
        // The pragma sits on the line above the fn; the site is line 3.
        let r = smi007(&files, &g, &entries_named(&g, "::entry"));
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn smi008_finds_opposite_order_cycles() {
        let (files, g) = setup(
            "struct S;\n\
             impl S {\n\
                 fn ab(&self) { let _a = self.alpha.lock(); self.take_beta(); }\n\
                 fn take_beta(&self) { let _b = self.beta.lock(); }\n\
                 fn ba(&self) { let _b = self.beta.lock(); let _a = self.alpha.lock(); }\n\
             }\n",
        );
        let r = smi008(&files, &g);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        let f = &r.findings[0];
        assert!(f.message.contains("alpha -> beta -> alpha"), "{}", f.message);
        assert_eq!(f.chain.len(), 2, "one step per edge: {:?}", f.chain);
    }

    #[test]
    fn smi008_ignores_consistent_order() {
        let (files, g) = setup(
            "struct S;\n\
             impl S {\n\
                 fn one(&self) { let _a = self.alpha.lock(); let _b = self.beta.lock(); }\n\
                 fn two(&self) { let _a = self.alpha.lock(); let _b = self.beta.lock(); }\n\
             }\n",
        );
        let r = smi008(&files, &g);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn smi009_reports_reachable_panics_only() {
        let (files, g) = setup(
            "pub fn entry(x: Option<u32>) { inner(x); }\n\
             fn inner(x: Option<u32>) { deep(x); }\n\
             fn deep(x: Option<u32>) { x.unwrap(); }\n\
             fn unreached() { panic!(\"never\"); }\n",
        );
        let r = smi009(&files, &g, &entries_named(&g, "::entry"));
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        let f = &r.findings[0];
        assert_eq!((f.line, f.chain.len()), (3, 3));
        assert!(f.message.contains(".unwrap()"));
    }

    #[test]
    fn smi009_honors_only_its_own_pragma() {
        let src = |rule: &str| {
            format!(
                "pub fn entry(x: Option<u32>) {{ deep(x); }}\n\
                 fn deep(x: Option<u32>) {{\n\
                     // smi-lint: allow({rule}): x is Some by construction\n\
                     x.unwrap();\n\
                 }}\n"
            )
        };
        let (files, g) = setup(&src("panic-path"));
        let r = smi009(&files, &g, &entries_named(&g, "::entry"));
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 1);
        // `no-panic` named a retired line rule: it justifies nothing.
        let (files, g) = setup(&src("no-panic"));
        let r = smi009(&files, &g, &entries_named(&g, "::entry"));
        assert_eq!((r.findings.len(), r.suppressed), (1, 0), "{:?}", r.findings);
    }

    #[test]
    fn reachable_files_cover_the_chain() {
        let a = parse_source("crate-a", "crates/crate-a/src/lib.rs", "pub fn run() { step(); }");
        let b = parse_source("crate-b", "crates/crate-b/src/lib.rs", "pub fn step() {}");
        let files = vec![a, b];
        let g = CallGraph::build(&files, &flat_closure(&["crate-a", "crate-b"]));
        let entries = entries_named(&g, "::run");
        let reach = panic_reachable_files(&g, &entries);
        assert!(reach.contains("crates/crate-a/src/lib.rs"));
        assert!(reach.contains("crates/crate-b/src/lib.rs"));
    }
}
