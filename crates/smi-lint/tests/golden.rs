//! Golden-fixture tests: each rule fires on its fixture at the expected
//! line, pragmas suppress, the CLI's exit codes hold, and — the keystone
//! — the real workspace is lint-clean.

use smi_lint::graph::{flat_closure, CallGraph};
use smi_lint::parser::{parse_source, ParsedFile};
use smi_lint::rules::{scan_source, FilePolicy};
use smi_lint::taint;
use smi_lint::{policy_for, run_cli, scan_workspace};
use std::path::{Path, PathBuf};

/// The strictest policy: what a record-producing library crate gets.
fn record_policy() -> FilePolicy {
    FilePolicy {
        record_producing: true,
        check_wall_clock: true,
        check_hermeticity: true,
        check_panics: true,
        strict_no_panic: false,
        is_crate_root: false,
    }
}

/// The simulation-path policy: strict SMI004 on top of the record policy.
fn strict_policy() -> FilePolicy {
    FilePolicy { strict_no_panic: true, ..record_policy() }
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Scan a fixture under `policy` and return `(rule id, line)` pairs.
fn scan_fixture(name: &str, policy: &FilePolicy) -> Vec<(String, u32)> {
    let src = fixture(name);
    scan_source("fixture", name, policy, &src)
        .findings
        .iter()
        .map(|f| (f.rule.id.to_string(), f.line))
        .collect()
}

#[test]
fn smi001_fires_on_hashmap_in_record_crate() {
    let got = scan_fixture("smi001_hash_iter.rs", &record_policy());
    assert!(got.contains(&("SMI001".into(), 4)), "expected SMI001 at line 4, got {got:?}");
    assert!(got.iter().all(|(id, _)| id == "SMI001"), "only SMI001 expected, got {got:?}");
}

#[test]
fn smi002_fires_on_instant_now() {
    let got = scan_fixture("smi002_wall_clock.rs", &record_policy());
    assert_eq!(got, vec![("SMI002".to_string(), 7)], "got {got:?}");
}

#[test]
fn smi003_fires_on_std_env() {
    let got = scan_fixture("smi003_hermeticity.rs", &record_policy());
    assert_eq!(got, vec![("SMI003".to_string(), 5)], "got {got:?}");
}

#[test]
fn smi004_fires_on_unwrap_but_not_in_tests() {
    let got = scan_fixture("smi004_no_panic.rs", &record_policy());
    assert_eq!(
        got,
        vec![("SMI004".to_string(), 5)],
        "the #[cfg(test)] unwrap must not fire: {got:?}"
    );
}

#[test]
fn smi004_strict_bans_asserts_and_ignores_pragmas() {
    let got = scan_fixture("smi004_strict.rs", &strict_policy());
    let want: Vec<(String, u32)> =
        [5u32, 10, 15, 21].iter().map(|&l| ("SMI004".to_string(), l)).collect();
    assert_eq!(got, want, "strict scan findings: {got:?}");
    // The pragma'd unwrap must also count as a finding, not a suppression.
    let src = fixture("smi004_strict.rs");
    let result = scan_source("fixture", "smi004_strict.rs", &strict_policy(), &src);
    assert_eq!(result.suppressed, 0, "no pragma escape on the strict path");
}

#[test]
fn smi004_strict_fixture_is_tame_under_the_ordinary_policy() {
    // The same file under a non-strict record policy: only the unwrap
    // would fire, and its pragma suppresses it — asserts are legal.
    let got = scan_fixture("smi004_strict.rs", &record_policy());
    assert!(got.is_empty(), "non-strict scan must be clean: {got:?}");
}

#[test]
fn smi005_fires_on_float_sum_over_hash_iter() {
    let got = scan_fixture("smi005_float_reduce.rs", &record_policy());
    let smi005: Vec<_> = got.iter().filter(|(id, _)| id == "SMI005").collect();
    assert_eq!(smi005, vec![&("SMI005".to_string(), 9)], "got {got:?}");
}

#[test]
fn smi006_fires_on_ungated_crate_root() {
    let policy = FilePolicy { is_crate_root: true, ..record_policy() };
    let got = scan_fixture("smi006_unsafe.rs", &policy);
    assert_eq!(got, vec![("SMI006".to_string(), 1)], "got {got:?}");
}

#[test]
fn pragmas_suppress_and_are_counted() {
    let src = fixture("suppressed.rs");
    let result = scan_source("fixture", "suppressed.rs", &record_policy(), &src);
    assert!(result.findings.is_empty(), "pragmas must suppress: {:?}", result.findings);
    assert_eq!(result.suppressed, 2, "both justified unwraps count as suppressed");
}

/// Round-trip: the pragma'd source fires when the pragma is removed.
#[test]
fn removing_the_pragma_reinstates_the_finding() {
    let src = fixture("suppressed.rs");
    let stripped: String =
        src.lines().filter(|l| !l.contains("smi-lint:")).fold(String::new(), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        });
    let result = scan_source("fixture", "suppressed.rs", &record_policy(), &stripped);
    assert_eq!(result.suppressed, 0);
    assert_eq!(result.findings.len(), 2, "both unwraps fire once unjustified");
    assert!(result.findings.iter().all(|f| f.rule.id == "SMI004"));
}

/// A minimal workspace root in a scratch directory: the facade crate's
/// manifest and a clean `src/lib.rs`, and an empty `crates/`.
fn scratch_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("smi-lint-golden-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("src")).expect("mkdir src");
    std::fs::create_dir_all(root.join("crates")).expect("mkdir crates");
    std::fs::write(root.join("Cargo.toml"), "[package]\nname = \"smi-lab\"\n").expect("manifest");
    std::fs::write(
        root.join("src/lib.rs"),
        "#![deny(unsafe_code)]\n\npub fn id(x: u64) -> u64 {\n    x\n}\n",
    )
    .expect("lib.rs");
    root
}

/// Run the CLI driver over `root` with extra arguments; its exit code.
fn lint_exit(root: &Path, extra: &[&str]) -> i32 {
    let mut args = vec!["--root".to_string(), root.display().to_string()];
    args.extend(extra.iter().map(|a| a.to_string()));
    run_cli(&args)
}

#[test]
fn cli_exits_0_on_a_clean_root() {
    let root = scratch_root("clean");
    assert_eq!(lint_exit(&root, &[]), 0, "text report");
    assert_eq!(lint_exit(&root, &["--format", "json"]), 0, "json report");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cli_exits_1_on_any_finding() {
    let root = scratch_root("finding");
    let planted = root.join("crates/nas");
    std::fs::create_dir_all(planted.join("src")).expect("mkdir crate");
    std::fs::write(planted.join("Cargo.toml"), "[package]\nname = \"nas\"\n").expect("manifest");
    std::fs::write(planted.join("src/hash.rs"), fixture("smi001_hash_iter.rs")).expect("plant");
    assert_eq!(lint_exit(&root, &[]), 1, "a planted SMI001 finding fails the gate");
    assert_eq!(lint_exit(&root, &["--format", "json"]), 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cli_exits_2_on_retired_and_unknown_flags() {
    let root = scratch_root("usage");
    assert_eq!(lint_exit(&root, &["--jobs", "4"]), 2, "--jobs is no longer a flag");
    assert_eq!(lint_exit(&root, &["--baseline", "x"]), 2, "--baseline is no longer a flag");
    assert_eq!(lint_exit(&root, &["--write-baseline"]), 2);
    assert_eq!(lint_exit(&root, &["--format", "xml"]), 2);
    let _ = std::fs::remove_dir_all(&root);
}

/// The keystone self-test: the real workspace, scanned with the shipped
/// policy tables, has zero findings (everything is either fixed or
/// carries a justified pragma).
#[test]
fn real_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let scan = scan_workspace(&root).expect("scan workspace");
    assert!(scan.files_scanned > 50, "scanner must see the whole workspace");
    let rendered: Vec<String> = scan
        .findings
        .iter()
        .map(|f| format!("{}:{}: {} {}", f.path, f.line, f.rule.id, f.message))
        .collect();
    assert!(rendered.is_empty(), "workspace must be lint-clean:\n{}", rendered.join("\n"));
}

/// Fixtures live under tests/, which the workspace scanner must not
/// visit (they contain deliberate violations).
#[test]
fn fixtures_are_not_scanned_by_the_workspace_walk() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let scan = scan_workspace(&root).expect("scan workspace");
    assert!(scan.findings.iter().all(|f| !f.path.contains("fixtures")));
}

// ---------------------------------------------------------------------
// SMI007..SMI009: the whole-workspace passes over fixture graphs.
// ---------------------------------------------------------------------

/// Parse a fixture as the `mpi-sim` crate so the shipped entry-point
/// selection (`mpi_sim::run`) applies, and build its call graph.
fn fixture_graph(name: &str) -> (Vec<ParsedFile>, CallGraph) {
    let pf = parse_source("mpi-sim", name, &fixture(name));
    let g = CallGraph::build(std::slice::from_ref(&pf), &flat_closure(&["mpi-sim"]));
    (vec![pf], g)
}

#[test]
fn smi007_chain_renders_entry_to_site() {
    let (files, g) = fixture_graph("smi007_taint.rs");
    let entries = taint::workspace_entries(&g, &files);
    assert_eq!(entries.len(), 1, "exactly the `run` entry");
    let r = taint::smi007(&files, &g, &entries);
    assert_eq!(r.findings.len(), 1, "the dead-code clock must not fire: {:?}", r.findings);
    let f = &r.findings[0];
    assert_eq!((f.rule.id, f.line), ("SMI007", 14));
    let chain: Vec<(&str, u32)> = f.chain.iter().map(|s| (s.what.as_str(), s.line)).collect();
    assert_eq!(chain, [("mpi_sim::run", 4), ("mpi_sim::stamp", 13)]);

    // Golden text rendering: one indented `via` line per chain step.
    let scan = smi_lint::WorkspaceScan {
        findings: r.findings.clone(),
        suppressed: r.suppressed,
        files_scanned: 1,
    };
    let text = smi_lint::render_report(&scan, smi_lint::Format::Text);
    let want = "smi007_taint.rs:14: SMI007 nd-taint: \
                `Instant::now` (wall clock) in `mpi_sim::stamp` is reachable from \
                record entry point `mpi_sim::run`";
    assert!(text.contains(want), "text rendering drifted:\n{text}");
    assert!(text.contains("    via mpi_sim::run (smi007_taint.rs:4)\n"), "{text}");
    assert!(text.contains("    via mpi_sim::stamp (smi007_taint.rs:13)\n"), "{text}");
}

#[test]
fn smi008_reports_the_lock_cycle_with_witnesses() {
    let (files, g) = fixture_graph("smi008_lock_order.rs");
    let r = taint::smi008(&files, &g);
    assert_eq!(r.findings.len(), 1, "one canonical cycle: {:?}", r.findings);
    let f = &r.findings[0];
    assert_eq!(f.rule.id, "SMI008");
    assert!(f.message.contains("cache -> journal -> cache"), "{}", f.message);
    assert_eq!(f.chain.len(), 2, "one witness per edge: {:?}", f.chain);
    assert!(
        f.chain.iter().any(|s| s.what.contains("evict")),
        "the opposite-order acquisition is a witness: {:?}",
        f.chain
    );
}

#[test]
fn smi009_chain_and_pragma_accounting() {
    let (files, g) = fixture_graph("smi009_panic_path.rs");
    let entries = taint::strict_entries(&g, &files);
    let r = taint::smi009(&files, &g, &entries);
    assert_eq!(r.findings.len(), 1, "dead panic must not fire: {:?}", r.findings);
    assert_eq!(r.suppressed, 1, "the justified unwrap counts as suppressed");
    let f = &r.findings[0];
    assert_eq!((f.rule.id, f.line), ("SMI009", 14));
    let chain: Vec<&str> = f.chain.iter().map(|s| s.what.as_str()).collect();
    assert_eq!(chain, ["mpi_sim::run", "mpi_sim::dispatch", "mpi_sim::decode"]);
}

#[test]
fn json_report_with_chains_round_trips() {
    let (files, g) = fixture_graph("smi009_panic_path.rs");
    let entries = taint::strict_entries(&g, &files);
    let r = taint::smi009(&files, &g, &entries);
    let scan = smi_lint::WorkspaceScan {
        findings: r.findings,
        suppressed: r.suppressed,
        files_scanned: 1,
    };
    let json = smi_lint::render_report(&scan, smi_lint::Format::Json);
    let n = smi_lint::verify_report(&json).expect("report must validate");
    assert_eq!(n, 1);
    let doc = jsonio::Json::parse(&json).expect("report parses");
    assert_eq!(doc.get("schema").and_then(|s| s.as_u64()), Some(3));
    let finding = &doc.get("findings").and_then(|f| f.as_array()).expect("findings")[0];
    assert_eq!(finding.get("severity"), None, "every finding fails the gate; no severity tag");
}

/// Determinism of the graph passes themselves: building and analyzing
/// the real workspace twice yields byte-identical findings and DOT.
#[test]
fn graph_passes_are_deterministic_and_self_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let run_once = || {
        let units = smi_lint::workspace_files(&root).expect("walk");
        let parsed: Vec<ParsedFile> = units
            .iter()
            .map(|(c, rel, abs)| parse_source(c, rel, &std::fs::read_to_string(abs).expect("read")))
            .collect();
        let deps = smi_lint::graph::workspace_deps(&root).expect("deps");
        let g = CallGraph::build(&parsed, &deps);
        let record = taint::workspace_entries(&g, &parsed);
        let strict = taint::strict_entries(&g, &parsed);
        let mut findings = taint::smi007(&parsed, &g, &record).findings;
        findings.extend(taint::smi008(&parsed, &g).findings);
        findings.extend(taint::smi009(&parsed, &g, &strict).findings);
        let rendered: Vec<String> = findings
            .iter()
            .map(|f| format!("{}:{}: {} {}", f.path, f.line, f.rule.id, f.message))
            .collect();
        (rendered, g.to_dot(&record))
    };
    let (a, dot_a) = run_once();
    let (b, dot_b) = run_once();
    assert_eq!(a, b, "pass output must be run-to-run identical");
    assert_eq!(dot_a, dot_b, "DOT export must be run-to-run identical");
    assert!(a.is_empty(), "graph passes must be clean on the workspace:\n{}", a.join("\n"));
}

/// The hand-maintained strict lists are a *subset* of what SMI009
/// derives: every listed file (with at least one non-test function) is
/// reachable from the strict entry points, so retiring the lists for
/// the derived property loses no coverage.
#[test]
fn hand_strict_lists_are_within_the_derived_reachable_set() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let units = smi_lint::workspace_files(&root).expect("walk");
    let parsed: Vec<ParsedFile> = units
        .iter()
        .map(|(c, rel, abs)| parse_source(c, rel, &std::fs::read_to_string(abs).expect("read")))
        .collect();
    let deps = smi_lint::graph::workspace_deps(&root).expect("deps");
    let g = CallGraph::build(&parsed, &deps);
    let entries = taint::strict_entries(&g, &parsed);
    assert!(!entries.is_empty(), "run/run_with and schedule impls must be found");
    let reachable = taint::panic_reachable_files(&g, &entries);

    let mut covered: Vec<&str> = Vec::new();
    for pf in &parsed {
        let in_hand_lists = smi_lint::strict_no_panic(&pf.path);
        let has_shipping_fns = pf.fns.iter().any(|f| !f.in_test);
        if in_hand_lists && has_shipping_fns {
            covered.push(&pf.path);
            assert!(
                reachable.contains(&pf.path),
                "{} is in the hand-maintained strict lists but not in the \
                 SMI009-derived reachable set",
                pf.path
            );
        }
    }
    assert!(covered.len() >= 8, "the cross-check must bite: {covered:?}");
}

/// The policy table wiring: spot-check a few files against the shipped
/// crate classification.
#[test]
fn policy_table_spot_checks() {
    let p = policy_for("sim-core", "crates/sim-core/src/freeze.rs");
    assert!(p.record_producing && p.check_panics && p.check_wall_clock);
    assert!(p.strict_no_panic, "the freeze mapping is on the simulation path");
    let p = policy_for("mpi-sim", "crates/mpi-sim/src/engine.rs");
    assert!(p.strict_no_panic, "the engine is the simulation path");
    let p = policy_for("analysis", "crates/analysis/src/absorption.rs");
    assert!(p.check_panics && !p.strict_no_panic, "analysis keeps the pragma escape");
    let p = policy_for("cli", "crates/cli/src/main.rs");
    assert!(!p.check_panics && !p.check_hermeticity && p.is_crate_root);
    let p = policy_for("runner", "crates/runner/src/telemetry.rs");
    assert!(!p.check_wall_clock, "telemetry is the sanctioned clock reader");
    let p = policy_for("bench", "crates/bench/src/lib.rs");
    assert!(!p.check_wall_clock, "bench times real code by design");
    let p = policy_for("runner", "crates/runner/src/pool.rs");
    assert!(p.check_wall_clock && !p.check_hermeticity);
}
