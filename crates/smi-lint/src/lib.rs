//! # smi-lint — the in-tree call-graph determinism linter
//!
//! The laboratory's headline guarantee is byte-reproducibility: every
//! record is a pure function of the cell identity and seed, so serial
//! and parallel runs agree byte for byte and the content-hash result
//! cache is sound. Line-level hazards — a `HashMap`, an `Instant::now`,
//! `std::fs` in a record crate, an `unwrap` in library code, `unsafe` —
//! are rustc and clippy lints configured by the workspace `clippy.toml`
//! files and `[workspace.lints]`. This crate checks what no line lint
//! can see: whether a hazard is *reachable* from a record-producing
//! entry point. See `DESIGN.md` §7 and §12.
//!
//! A small hand-rolled Rust lexer ([`lexer`]) feeds a lightweight item
//! parser ([`parser`]), a symbol table + conservative call graph
//! ([`graph`]), and three reachability analyses ([`taint`]): `SMI007`
//! taint flow, `SMI008` lock-order cycles, and `SMI009` panic paths,
//! each reporting the full call chain from an entry point to the flagged
//! site. No syn, no rustc internals, no external crates. A pragma
//! (`// smi-lint: allow(<rule>): reason`) at the flagged site is the only
//! way to keep a finding; every other finding fails.
//!
//! Run it as `cargo run -p smi-lint`, or `smi-lab lint` from the CLI.

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod taint;

pub use rules::{ChainStep, Finding, Rule, ALL_RULES};

use jsonio::Json;
use std::path::{Path, PathBuf};

/// Everything one workspace scan produced.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceScan {
    /// All findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Pragma-suppressed findings (informational).
    pub suppressed: u32,
    /// Files visited.
    pub files_scanned: u32,
}

/// Scan every workspace crate under `root` (each `crates/*/src/**/*.rs`
/// plus the facade crate's `src/`). Test directories (`tests/`,
/// `benches/`, `examples/`) are dev code and out of scope by
/// construction; `#[cfg(test)]` regions are excluded by the parser.
/// Files are parsed in the (sorted) file order, then the graph passes
/// run over the parsed workspace.
pub fn scan_workspace(root: &Path) -> Result<WorkspaceScan, String> {
    let parsed = parse_workspace(root)?;
    let mut scan = WorkspaceScan { files_scanned: parsed.len() as u32, ..WorkspaceScan::default() };
    let deps = graph::workspace_deps(root)?;
    let g = graph::CallGraph::build(&parsed, &deps);
    let record_entries = taint::workspace_entries(&g, &parsed);
    let strict_entries = taint::strict_entries(&g, &parsed);
    for pass in [
        taint::smi007(&parsed, &g, &record_entries),
        taint::smi008(&parsed, &g),
        taint::smi009(&parsed, &g, &strict_entries),
    ] {
        scan.findings.extend(pass.findings);
        scan.suppressed += pass.suppressed;
    }

    scan.findings.sort_by(|a, b| (&a.path, a.line, a.rule.id).cmp(&(&b.path, b.line, b.rule.id)));
    Ok(scan)
}

/// The deterministic workspace file list: `(crate name, relative path,
/// absolute path)` in scan order.
fn workspace_files(root: &Path) -> Result<Vec<(String, String, PathBuf)>, String> {
    let mut units: Vec<(String, PathBuf)> = vec![("smi-lab".to_string(), root.join("src"))];
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut names: Vec<String> = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path.join("Cargo.toml").is_file() && path.join("src").is_dir() {
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                names.push(name.to_string());
            }
        }
    }
    names.sort();
    for name in names {
        let src = crates_dir.join(&name).join("src");
        units.push((name, src));
    }

    let mut out = Vec::new();
    for (crate_name, src_dir) in units {
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();
        for file in files {
            let rel = file
                .strip_prefix(root)
                .map(|p| p.to_string_lossy().replace('\\', "/"))
                .unwrap_or_else(|_| file.to_string_lossy().into_owned());
            out.push((crate_name.clone(), rel, file));
        }
    }
    Ok(out)
}

/// Parse every workspace file (the facade's `src/`, then each
/// `crates/*/src/`, sorted) in scan order.
pub fn parse_workspace(root: &Path) -> Result<Vec<parser::ParsedFile>, String> {
    let mut parsed = Vec::new();
    for (crate_name, rel, abs) in workspace_files(root)? {
        let src = std::fs::read_to_string(&abs)
            .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        parsed.push(parser::parse_source(&crate_name, &rel, &src));
    }
    Ok(parsed)
}

/// Render the workspace call graph (`kind == "call"`, reachable slice
/// from the record entry points) or the lock-order graph
/// (`kind == "lock"`) as DOT.
pub fn export_graph(root: &Path, kind: &str) -> Result<String, String> {
    let parsed = parse_workspace(root)?;
    let deps = graph::workspace_deps(root)?;
    let g = graph::CallGraph::build(&parsed, &deps);
    match kind {
        "call" => {
            let entries = taint::workspace_entries(&g, &parsed);
            Ok(g.to_dot(&entries))
        }
        "lock" => Ok(taint::lock_graph_dot(&parsed, &g)),
        other => Err(format!("--graph must be call|lock, got `{other}`")),
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------

/// Output format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// One `path:line: ID name: message` line per finding.
    Text,
    /// A single machine-readable JSON document.
    Json,
}

/// Render the scan in the requested format.
pub fn render_report(scan: &WorkspaceScan, format: Format) -> String {
    match format {
        Format::Text => {
            let mut out = String::new();
            for f in &scan.findings {
                out.push_str(&format!(
                    "{}:{}: {} {}: {}\n",
                    f.path, f.line, f.rule.id, f.rule.name, f.message
                ));
                for step in &f.chain {
                    out.push_str(&format!("    via {} ({}:{})\n", step.what, step.path, step.line));
                }
            }
            out.push_str(&format!(
                "smi-lint: {} finding(s) ({} suppressed) in {} files\n",
                scan.findings.len(),
                scan.suppressed,
                scan.files_scanned
            ));
            out
        }
        Format::Json => {
            let findings: Vec<Json> = scan
                .findings
                .iter()
                .map(|f| {
                    let chain: Vec<Json> = f
                        .chain
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("fn", Json::Str(s.what.clone())),
                                ("path", Json::Str(s.path.clone())),
                                ("line", Json::U64(s.line as u64)),
                            ])
                        })
                        .collect();
                    Json::obj(vec![
                        ("rule", Json::Str(f.rule.id.to_string())),
                        ("name", Json::Str(f.rule.name.to_string())),
                        ("crate", Json::Str(f.crate_name.clone())),
                        ("path", Json::Str(f.path.clone())),
                        ("line", Json::U64(f.line as u64)),
                        ("message", Json::Str(f.message.clone())),
                        ("chain", Json::Arr(chain)),
                    ])
                })
                .collect();
            let mut doc = Json::obj(vec![
                ("schema", Json::U64(REPORT_SCHEMA)),
                ("tool", Json::Str("smi-lint".to_string())),
                ("files_scanned", Json::U64(scan.files_scanned as u64)),
                ("total", Json::U64(scan.findings.len() as u64)),
                ("suppressed", Json::U64(scan.suppressed as u64)),
                ("findings", Json::Arr(findings)),
            ])
            .to_string_pretty();
            doc.push('\n');
            doc
        }
    }
}

/// Version of the `--format json` report. 2: no baseline, so neither
/// the document nor its findings carry a `new` field. 3: findings carry
/// no `severity` field; every finding fails the gate.
pub const REPORT_SCHEMA: u64 = 3;

/// Validate a `--format json` report: schema fields, per-finding shape
/// (including call-chain steps), and a jsonio round-trip
/// (`parse(render(parse(text))) == parse(text)`). Returns the number of
/// findings the report carries.
pub fn verify_report(text: &str) -> Result<u32, String> {
    let doc = Json::parse(text).map_err(|e| format!("report does not parse: {e}"))?;
    if doc.get("schema").and_then(|s| s.as_u64()) != Some(REPORT_SCHEMA) {
        return Err(format!("report `schema` must be {REPORT_SCHEMA}"));
    }
    if doc.get("tool").and_then(|t| t.as_str()) != Some("smi-lint") {
        return Err("report `tool` must be \"smi-lint\"".into());
    }
    for key in ["files_scanned", "total", "suppressed"] {
        if doc.get(key).and_then(|v| v.as_u64()).is_none() {
            return Err(format!("report `{key}` must be a number"));
        }
    }
    let findings = doc
        .get("findings")
        .and_then(|f| f.as_array())
        .ok_or("report `findings` must be an array")?;
    for (i, f) in findings.iter().enumerate() {
        for key in ["rule", "name", "crate", "path", "message"] {
            if f.get(key).and_then(|v| v.as_str()).is_none() {
                return Err(format!("finding {i}: `{key}` must be a string"));
            }
        }
        if f.get("line").and_then(|v| v.as_u64()).is_none() {
            return Err(format!("finding {i}: `line` must be a number"));
        }
        let chain = f
            .get("chain")
            .and_then(|c| c.as_array())
            .ok_or(format!("finding {i}: `chain` must be an array"))?;
        for (j, step) in chain.iter().enumerate() {
            if step.get("fn").and_then(|v| v.as_str()).is_none()
                || step.get("path").and_then(|v| v.as_str()).is_none()
                || step.get("line").and_then(|v| v.as_u64()).is_none()
            {
                return Err(format!(
                    "finding {i} chain step {j}: needs string `fn`/`path` and numeric `line`"
                ));
            }
        }
        if chain.is_empty() {
            return Err(format!("finding {i}: every rule reports a call chain, this one is empty"));
        }
    }
    // Round-trip: re-rendering the parsed document and parsing it back
    // must reproduce the same value (serializer/parser agree).
    let rendered = doc.to_string_pretty();
    let reparsed = Json::parse(&rendered).map_err(|e| format!("round-trip reparse failed: {e}"))?;
    if reparsed != doc {
        return Err("round-trip changed the document".into());
    }
    let total = doc.get("total").and_then(|v| v.as_u64()).unwrap_or(0);
    if total != findings.len() as u64 {
        return Err(format!("`total` is {total} but `findings` has {}", findings.len()));
    }
    Ok(findings.len() as u32)
}

// ---------------------------------------------------------------------
// CLI driver (shared by the smi-lint binary and `smi-lab lint`).
// ---------------------------------------------------------------------

/// Usage text for `--help`.
pub const USAGE: &str = "\
smi-lint — call-graph determinism linter for the smi-lab workspace

Reports hazards reachable from a record entry point over the workspace
call graph: SMI007 nd-taint, SMI008 lock-order, SMI009 panic-path. The
line checks (hash collections, wall clock, ambient authority, panics in
library code, unsafe) are clippy and rustc lints: run
`cargo clippy --workspace --all-targets -- -D warnings`.

usage: smi-lint [--root DIR] [--format text|json]
                [--graph call|lock] [--verify-report FILE]

  --root DIR           workspace root to scan (default: .)
  --format FMT         `text` (default) or `json`
  --graph KIND         print the record-entry call graph (`call`) or the
                       lock-order graph (`lock`) as DOT and exit
  --verify-report FILE validate a --format json report (schema, chain
                       shape, jsonio round-trip) and exit

exit status: 0 clean, 1 any finding, 2 usage/IO error
";

/// Parse arguments and run a scan. Returns the process exit code and
/// writes the report to stdout / errors to stderr.
pub fn run_cli(args: &[String]) -> i32 {
    let mut root = PathBuf::from(".");
    let mut format = Format::Text;
    let mut graph_kind: Option<String> = None;
    let mut verify_path: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage_error("--root needs a value"),
            },
            "--format" => match it.next().map(|s| s.as_str()) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => return usage_error(&format!("--format must be text|json, got {other:?}")),
            },
            "--graph" => match it.next() {
                Some(v) => graph_kind = Some(v.clone()),
                None => return usage_error("--graph needs call|lock"),
            },
            "--verify-report" => match it.next() {
                Some(v) => verify_path = Some(PathBuf::from(v)),
                None => return usage_error("--verify-report needs a value"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return 0;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    if let Some(path) = verify_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("smi-lint: cannot read {}: {e}", path.display());
                return 2;
            }
        };
        return match verify_report(&text) {
            Ok(n) => {
                println!("smi-lint: report {} is valid ({n} finding(s))", path.display());
                0
            }
            Err(e) => {
                eprintln!("smi-lint: report {} is invalid: {e}", path.display());
                2
            }
        };
    }

    if let Some(kind) = graph_kind {
        return match export_graph(&root, &kind) {
            Ok(dot) => {
                print!("{dot}");
                0
            }
            Err(e) => {
                eprintln!("smi-lint: {e}");
                2
            }
        };
    }

    let scan = match scan_workspace(&root) {
        Ok(scan) => scan,
        Err(e) => {
            eprintln!("smi-lint: {e}");
            return 2;
        }
    };
    print!("{}", render_report(&scan, format));
    if scan.findings.is_empty() {
        0
    } else {
        1
    }
}

fn usage_error(msg: &str) -> i32 {
    eprintln!("smi-lint: {msg}\n{USAGE}");
    2
}
