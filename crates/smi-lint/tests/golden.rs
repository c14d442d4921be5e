//! Golden-fixture tests: each whole-workspace pass fires on its fixture
//! at the expected line with the expected call chain, pragmas suppress
//! only for their own rule, the CLI's exit codes hold, and — the
//! keystone — the real workspace is lint-clean. The line checks that
//! clippy and rustc now perform are exercised by the ci.sh canary.

use smi_lint::graph::{flat_closure, CallGraph};
use smi_lint::parser::{parse_source, ParsedFile};
use smi_lint::{run_cli, scan_workspace, taint, ALL_RULES};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Parse a fixture as the `mpi-sim` crate so the shipped entry-point
/// selection (`mpi_sim::run`, `Job::new`, `Job::run`) applies, and build
/// its call graph.
fn fixture_graph(name: &str) -> (Vec<ParsedFile>, CallGraph) {
    fixture_graph_of(name, &fixture(name))
}

fn fixture_graph_of(name: &str, src: &str) -> (Vec<ParsedFile>, CallGraph) {
    let pf = parse_source("mpi-sim", name, src);
    let g = CallGraph::build(std::slice::from_ref(&pf), &flat_closure(&["mpi-sim"]));
    (vec![pf], g)
}

/// The real workspace, parsed, with its call graph.
fn real_workspace() -> (Vec<ParsedFile>, CallGraph) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let parsed = smi_lint::parse_workspace(&root).expect("parse workspace");
    let deps = smi_lint::graph::workspace_deps(&root).expect("deps");
    let g = CallGraph::build(&parsed, &deps);
    (parsed, g)
}

/// SMI009 `(line, suppressed)` accounting for a source parsed as `mpi-sim`.
fn smi009_lines(name: &str, src: &str) -> (Vec<u32>, u32) {
    let (files, g) = fixture_graph_of(name, src);
    let r = taint::smi009(&files, &g, &taint::strict_entries(&g, &files));
    (r.findings.iter().map(|f| f.line).collect(), r.suppressed)
}

#[test]
fn pragmas_suppress_and_are_counted() {
    let (lines, suppressed) = smi009_lines("suppressed.rs", &fixture("suppressed.rs"));
    assert!(lines.is_empty(), "pragmas must suppress: {lines:?}");
    assert_eq!(suppressed, 2, "both justified unwraps count as suppressed");
}

/// Round-trip: the pragma'd source fires when the pragma is removed.
#[test]
fn removing_the_pragma_reinstates_the_finding() {
    let stripped: String = fixture("suppressed.rs")
        .lines()
        .filter(|l| !l.contains("smi-lint:"))
        .fold(String::new(), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        });
    let (lines, suppressed) = smi009_lines("suppressed.rs", &stripped);
    assert_eq!(suppressed, 0);
    assert_eq!(lines.len(), 2, "both unwraps fire once unjustified: {lines:?}");
}

/// The strict regime through the prepared-job entry campaigns use: the
/// assert family fires, a `no-panic` pragma (a retired rule's name)
/// suppresses nothing, and `debug_assert!` and test code stay legal.
#[test]
fn smi009_strict_path_enters_through_job_new_and_run() {
    let (files, g) = fixture_graph("smi009_strict.rs");
    let entries = taint::strict_entries(&g, &files);
    let names: Vec<&str> = entries.iter().map(|&e| g.fns[e].display.as_str()).collect();
    assert_eq!(names, ["mpi_sim::Job::new", "mpi_sim::Job::run"]);
    let r = taint::smi009(&files, &g, &entries);
    let got: Vec<(u32, &str)> =
        r.findings.iter().map(|f| (f.line, f.chain[0].what.as_str())).collect();
    assert_eq!(
        got,
        [
            (22, "mpi_sim::Job::new"),
            (27, "mpi_sim::Job::run"),
            (32, "mpi_sim::Job::run"),
            (38, "mpi_sim::Job::run")
        ],
        "{:?}",
        r.findings
    );
    assert_eq!(r.suppressed, 0, "no pragma escape for a retired rule name");
}

/// A minimal workspace root in a scratch directory: the facade crate's
/// manifest and a clean `src/lib.rs`, and an empty `crates/`.
fn scratch_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("smi-lint-golden-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("src")).expect("mkdir src");
    std::fs::create_dir_all(root.join("crates")).expect("mkdir crates");
    std::fs::write(root.join("Cargo.toml"), "[package]\nname = \"smi-lab\"\n").expect("manifest");
    std::fs::write(root.join("src/lib.rs"), "pub fn id(x: u64) -> u64 {\n    x\n}\n")
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
    let planted = root.join("crates/mpi-sim");
    std::fs::create_dir_all(planted.join("src")).expect("mkdir crate");
    std::fs::write(planted.join("Cargo.toml"), "[package]\nname = \"mpi-sim\"\n")
        .expect("manifest");
    std::fs::write(planted.join("src/lib.rs"), fixture("smi009_panic_path.rs")).expect("plant");
    assert_eq!(lint_exit(&root, &[]), 1, "a planted SMI009 finding fails the gate");
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

/// The keystone self-test: the real workspace, scanned from the shipped
/// entry points, has zero findings (everything is either fixed or
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
    let run_once = || {
        let (parsed, g) = real_workspace();
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

/// Campaigns enter the engine through `mpi_sim::Job` (`nas::CellJob`
/// builds one per cell and runs it per repetition): both halves must
/// be strict entries, or only the record-entry reach of SMI007 covers
/// them.
#[test]
fn campaign_engine_entries_are_strict() {
    let (parsed, g) = real_workspace();
    let strict: Vec<&str> =
        taint::strict_entries(&g, &parsed).into_iter().map(|e| g.fns[e].display.as_str()).collect();
    for want in ["mpi_sim::run", "mpi_sim::run_with", "mpi_sim::Job::new", "mpi_sim::Job::run"] {
        assert!(strict.contains(&want), "{want} is not a strict entry: {strict:?}");
    }
}

/// The strict regime, derived by SMI009 from its entry points, covers
/// every shipping file the hand-kept strict lists named before they
/// were retired: the simulation-path files of sim-core and machine and
/// the whole of mpi-sim and noise. The derived regime cannot shrink
/// below them silently, and those files carry no pragma, so a
/// `panic-path` justification cannot open an escape hatch there.
#[test]
fn strict_regime_covers_the_retired_hand_lists() {
    const FILES: [&str; 5] = [
        "crates/machine/src/executor.rs",
        "crates/sim-core/src/error.rs",
        "crates/sim-core/src/event.rs",
        "crates/sim-core/src/freeze.rs",
        "crates/sim-core/src/time.rs",
    ];
    const DIRS: [&str; 2] = ["crates/mpi-sim/src/", "crates/noise/src/"];
    let (parsed, g) = real_workspace();
    let reachable = taint::panic_reachable_files(&g, &taint::strict_entries(&g, &parsed));
    let mut covered = 0;
    for pf in &parsed {
        let listed =
            FILES.contains(&pf.path.as_str()) || DIRS.iter().any(|d| pf.path.starts_with(d));
        if listed && pf.fns.iter().any(|f| !f.in_test) {
            covered += 1;
            assert!(reachable.contains(&pf.path), "{} left the derived strict regime", pf.path);
        }
        if listed {
            assert!(
                pf.pragmas.is_empty(),
                "{}: pragma on the strict path: {:?}",
                pf.path,
                pf.pragmas
            );
        }
    }
    assert!(covered >= 8, "the cross-check must bite: {covered} file(s)");
}

/// Every `// smi-lint: allow(...)` in the walked workspace names a live
/// rule. A pragma naming a retired line rule (`no-panic`, `wall-clock`,
/// ...) is read by no tool, so it must not pose as a justification.
#[test]
fn pragmas_name_only_live_rules() {
    let (parsed, _) = real_workspace();
    let live: Vec<&str> = ALL_RULES.iter().map(|r| r.name).collect();
    let mut stale = Vec::new();
    for pf in &parsed {
        for (line, names) in &pf.pragmas {
            for name in names.iter().filter(|n| !live.contains(&n.as_str())) {
                stale.push(format!("{}:{line}: allow({name})", pf.path));
            }
        }
    }
    assert!(stale.is_empty(), "pragmas naming no live rule:\n{}", stale.join("\n"));
}

/// The line checks reach a crate only through configuration, so every
/// crate must opt in: each manifest (the facade's and every member's)
/// inherits `[workspace.lints]` (`unsafe_code = "forbid"`), each crate
/// root of a non-tool crate (library and binaries) denies the no-panic
/// lints, and only the ambient-authority crates carry their own
/// `clippy.toml`, holding nothing the root file does not. A new crate,
/// or a manifest or root that drops its line, fails here.
#[test]
fn every_crate_is_under_the_lint_policy() {
    const DENY: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";
    const OWN_CLIPPY_TOML: [&str; 3] = ["cli", "runner", "smi-lint"];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read =
        |p: &Path| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
    let root_policy = read(&root.join("clippy.toml"));
    let mut crates: Vec<(String, PathBuf)> = vec![("smi-lab".to_string(), root.clone())];
    for entry in std::fs::read_dir(root.join("crates")).expect("read crates/").flatten() {
        if entry.path().join("Cargo.toml").is_file() {
            crates.push((entry.file_name().to_string_lossy().into_owned(), entry.path()));
        }
    }
    assert!(crates.len() >= 16, "the walk must find the members: {}", crates.len());
    let mut missing = Vec::new();
    for (name, dir) in &crates {
        let manifest = read(&dir.join("Cargo.toml"));
        if !manifest.contains("\n[lints]\nworkspace = true\n") {
            missing.push(format!("{name}/Cargo.toml: no `[lints] workspace = true`"));
        }
        if !taint::TOOL_CRATES.contains(&name.as_str()) {
            let mut roots: Vec<PathBuf> = ["src/lib.rs", "src/main.rs"]
                .iter()
                .map(|r| dir.join(r))
                .filter(|p| p.is_file())
                .collect();
            if let Ok(bins) = std::fs::read_dir(dir.join("src/bin")) {
                roots.extend(bins.flatten().map(|e| e.path()));
            }
            for r in roots.iter().filter(|r| !read(r).lines().any(|l| l == DENY)) {
                let rel = r.strip_prefix(&root).unwrap_or(r);
                missing.push(format!("{}: no `{DENY}`", rel.display()));
            }
        }
        let own = dir.join("clippy.toml");
        if name != "smi-lab" && own.is_file() {
            if !OWN_CLIPPY_TOML.contains(&name.as_str()) {
                missing.push(format!("{name}/clippy.toml: only {OWN_CLIPPY_TOML:?} may own one"));
            }
            for line in read(&own).lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
                if !root_policy.lines().any(|r| r == line) {
                    missing.push(format!("{name}/clippy.toml: `{line}` is not in the root file"));
                }
            }
        }
    }
    assert!(missing.is_empty(), "crates outside the lint policy:\n{}", missing.join("\n"));
}
