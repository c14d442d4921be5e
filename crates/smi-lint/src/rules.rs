//! The six determinism & hermeticity rules, implemented as line-walkers
//! over the [`crate::lexer`] token stream.
//!
//! | ID     | name         | what it catches                                        |
//! |--------|--------------|--------------------------------------------------------|
//! | SMI001 | hash-iter    | `HashMap`/`HashSet` in record-producing crates          |
//! | SMI002 | wall-clock   | `Instant::now` / `SystemTime::now` outside whitelists   |
//! | SMI003 | hermeticity  | `std::{env,fs,net,process}` outside cli/runner/tests    |
//! | SMI004 | no-panic     | `.unwrap()` / `.expect(` / `panic!` in library code;    |
//! |        |              | strict on the simulation path: `assert!` family too,    |
//! |        |              | and pragmas do not apply (see `STRICT_NO_PANIC_FILES`)  |
//! | SMI005 | float-reduce | float `sum()`/`fold` over hash-collection iterators     |
//! | SMI006 | unsafe       | crate root missing `#![deny(unsafe_code)]`              |
//!
//! Any finding can be suppressed with a pragma comment on the same line
//! or the line directly above: `// smi-lint: allow(<rule-name>): reason`.
//! SMI006 is file-level: `// smi-lint: allow(unsafe): reason` anywhere in
//! the crate-root file acknowledges a crate that genuinely needs
//! `unsafe`.

use crate::lexer::{lex, Tok, TokKind};
use std::collections::BTreeMap;

/// A lint rule's stable identity.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Stable ID (`SMI001`...).
    pub id: &'static str,
    /// Pragma name (`hash-iter`, ...).
    pub name: &'static str,
}

/// SMI001 hash-iter.
pub const HASH_ITER: Rule = Rule { id: "SMI001", name: "hash-iter" };
/// SMI002 wall-clock.
pub const WALL_CLOCK: Rule = Rule { id: "SMI002", name: "wall-clock" };
/// SMI003 hermeticity.
pub const HERMETICITY: Rule = Rule { id: "SMI003", name: "hermeticity" };
/// SMI004 no-panic.
pub const NO_PANIC: Rule = Rule { id: "SMI004", name: "no-panic" };
/// SMI005 float-reduce.
pub const FLOAT_REDUCE: Rule = Rule { id: "SMI005", name: "float-reduce" };
/// SMI006 unsafe (crate root must deny unsafe_code or justify it).
pub const UNSAFE_ROOT: Rule = Rule { id: "SMI006", name: "unsafe" };
/// SMI007 nd-taint: a nondeterminism source (wall clock, ambient
/// authority, hash-order iteration, thread identity) is reachable over
/// the conservative call graph from a record-producing entry point.
pub const ND_TAINT: Rule = Rule { id: "SMI007", name: "nd-taint" };
/// SMI008 lock-order: a cycle in the interprocedural lock-acquisition
/// order graph — a potential deadlock under parallel execution.
pub const LOCK_ORDER: Rule = Rule { id: "SMI008", name: "lock-order" };
/// SMI009 panic-path: a panic site (`unwrap`/`expect`/`panic!`/the
/// `assert!` family) is reachable over the call graph from a
/// record-producing entry point — the derived form of the strict
/// no-panic regime.
pub const PANIC_PATH: Rule = Rule { id: "SMI009", name: "panic-path" };

/// All rules, in ID order.
pub const ALL_RULES: [Rule; 9] = [
    HASH_ITER,
    WALL_CLOCK,
    HERMETICITY,
    NO_PANIC,
    FLOAT_REDUCE,
    UNSAFE_ROOT,
    ND_TAINT,
    LOCK_ORDER,
    PANIC_PATH,
];

/// Which rules apply to one file, derived from the crate policy table in
/// [`crate::policy_for`] plus the file's own path.
#[derive(Clone, Copy, Debug, Default)]
pub struct FilePolicy {
    /// SMI001/SMI005: crate output feeds canonical records.
    pub record_producing: bool,
    /// SMI002 applies (false inside the telemetry/bench whitelists).
    pub check_wall_clock: bool,
    /// SMI003 applies (false for cli/runner/smi-lint).
    pub check_hermeticity: bool,
    /// SMI004 applies (false for binary/tool crates).
    pub check_panics: bool,
    /// SMI004 is strict: the file is on the simulation path, so the
    /// `assert!` family / `unreachable!` / `todo!` / `unimplemented!`
    /// are banned too and `no-panic` pragmas do not suppress findings.
    /// (`debug_assert!` stays legal — compiled out of release builds.)
    pub strict_no_panic: bool,
    /// SMI006 applies (this file is a crate root: src/lib.rs, src/main.rs).
    pub is_crate_root: bool,
}

/// One step of a call chain attached to an interprocedural finding
/// (SMI007/SMI008/SMI009): a function (or lock-graph edge) with its
/// definition site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainStep {
    /// What this step is: a qualified function name (`mpi_sim::run`) or
    /// a lock-edge description (`lock `a` then `b``).
    pub what: String,
    /// Workspace-relative path of the step's definition / witness site.
    pub path: String,
    /// 1-based line of the step.
    pub line: u32,
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Crate the file belongs to.
    pub crate_name: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description with a remediation hint.
    pub message: String,
    /// For interprocedural rules (SMI007–SMI009): the full call chain
    /// from the entry point to the flagged site. Empty for line rules.
    pub chain: Vec<ChainStep>,
}

/// Result of scanning one file.
#[derive(Clone, Debug, Default)]
pub struct ScanResult {
    /// Active findings.
    pub findings: Vec<Finding>,
    /// Findings silenced by an `allow` pragma (counted for reporting).
    pub suppressed: u32,
}

/// Scan one file's source under `policy`.
pub fn scan_source(crate_name: &str, path: &str, policy: &FilePolicy, src: &str) -> ScanResult {
    let toks = lex(src);
    let pragmas = collect_pragmas(&toks);
    let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
    let in_test = mark_test_regions(&code);

    let mut raw: Vec<Finding> = Vec::new();
    let mk = |rule: Rule, line: u32, message: String| Finding {
        rule,
        crate_name: crate_name.to_string(),
        path: path.to_string(),
        line,
        message,
        chain: Vec::new(),
    };

    // --- SMI001 hash-iter & SMI005 float-reduce (record crates only) ---
    if policy.record_producing {
        for (i, t) in code.iter().enumerate() {
            if in_test[i] {
                continue;
            }
            if t.is_ident("HashMap") || t.is_ident("HashSet") {
                raw.push(mk(
                    HASH_ITER,
                    t.line,
                    format!(
                        "`{}` in record-producing crate `{}`: iteration order is \
                         nondeterministic; use `BTreeMap`/`BTreeSet` or a sorted Vec",
                        t.text, crate_name
                    ),
                ));
            }
        }
        for f in float_reduce_findings(&code, &in_test, crate_name) {
            raw.push(mk(FLOAT_REDUCE, f.0, f.1));
        }
    }

    // --- SMI002 wall-clock ---
    if policy.check_wall_clock {
        for i in 0..code.len() {
            if in_test[i] {
                continue;
            }
            if (code[i].is_ident("Instant") || code[i].is_ident("SystemTime"))
                && matches_seq(&code, i + 1, &[":", ":"])
                && code.get(i + 3).is_some_and(|t| t.is_ident("now"))
            {
                raw.push(mk(
                    WALL_CLOCK,
                    code[i].line,
                    format!(
                        "`{}::now` reads the wall clock: results must be functions of \
                         the seed alone (whitelist: runner::telemetry, bench)",
                        code[i].text
                    ),
                ));
            }
        }
    }

    // --- SMI003 hermeticity ---
    if policy.check_hermeticity {
        const AMBIENT: [&str; 4] = ["env", "fs", "net", "process"];
        let mut i = 0;
        while i < code.len() {
            if !in_test[i] && code[i].is_ident("std") && matches_seq(&code, i + 1, &[":", ":"]) {
                // `std::fs::...` or `use std::{fs, env}`.
                let mut hits: Vec<(u32, String)> = Vec::new();
                match code.get(i + 3) {
                    Some(t) if t.kind == TokKind::Ident && AMBIENT.contains(&t.text.as_str()) => {
                        hits.push((t.line, t.text.clone()));
                    }
                    Some(t) if t.is_punct('{') => {
                        let mut j = i + 4;
                        while j < code.len() && !code[j].is_punct('}') {
                            if code[j].kind == TokKind::Ident
                                && AMBIENT.contains(&code[j].text.as_str())
                                && !code.get(j.wrapping_sub(1)).is_some_and(|p| p.is_punct(':'))
                            {
                                hits.push((code[j].line, code[j].text.clone()));
                            }
                            j += 1;
                        }
                    }
                    _ => {}
                }
                for (line, module) in hits {
                    raw.push(mk(
                        HERMETICITY,
                        line,
                        format!(
                            "`std::{module}` gives ambient authority (environment, \
                             filesystem, network, processes); only `cli`, `runner`, \
                             `smi-lint`, and test code may use it"
                        ),
                    ));
                }
            }
            i += 1;
        }
    }

    // --- SMI004 no-panic ---
    if policy.check_panics {
        // On the strict simulation path there is no pragma escape, so the
        // remediation hint changes: the only fix is a typed `SimError`.
        let strict_hint = "; this file is on the strict simulation path, so \
                           `no-panic` pragmas do not apply — return a typed \
                           `SimError` instead";
        for i in 0..code.len() {
            if in_test[i] {
                continue;
            }
            let t = code[i];
            let prev_dot = i > 0 && code[i - 1].is_punct('.');
            let next_paren = code.get(i + 1).is_some_and(|n| n.is_punct('('));
            let next_bang = code.get(i + 1).is_some_and(|n| n.is_punct('!'));
            if prev_dot && next_paren && (t.is_ident("unwrap") || t.is_ident("expect")) {
                let hint = if policy.strict_no_panic {
                    strict_hint.to_string()
                } else {
                    ", or justify with \
                     `// smi-lint: allow(no-panic): <why the invariant holds>`"
                        .to_string()
                };
                raw.push(mk(
                    NO_PANIC,
                    t.line,
                    format!(
                        "`.{}(` can panic in library crate `{}`: return a `Result`, \
                         handle the `None`/`Err` arm{hint}",
                        t.text, crate_name
                    ),
                ));
            }
            if t.is_ident("panic") && next_bang {
                let hint = if policy.strict_no_panic {
                    strict_hint.to_string()
                } else {
                    ", or justify with a `no-panic` pragma".to_string()
                };
                raw.push(mk(
                    NO_PANIC,
                    t.line,
                    format!(
                        "`panic!` in library crate `{crate_name}`: return an error instead{hint}"
                    ),
                ));
            }
            // The assert family aborts just like `panic!`; on the strict
            // simulation path every invariant must instead surface as
            // `SimError::InvariantViolation` (or be a `debug_assert!`,
            // which release measurement builds compile out).
            const STRICT_BANNED: [&str; 6] =
                ["assert", "assert_eq", "assert_ne", "unreachable", "todo", "unimplemented"];
            if policy.strict_no_panic
                && next_bang
                && t.kind == TokKind::Ident
                && STRICT_BANNED.contains(&t.text.as_str())
            {
                raw.push(mk(
                    NO_PANIC,
                    t.line,
                    format!(
                        "`{}!` aborts on the strict simulation path (`no-panic` \
                         pragmas do not apply): encode the invariant as a typed \
                         `SimError`, or use `debug_assert!` if release builds may \
                         elide the check",
                        t.text
                    ),
                ));
            }
        }
    }

    // --- SMI006 unsafe: crate root must carry #![deny(unsafe_code)] ---
    if policy.is_crate_root && !has_unsafe_gate(&code) {
        let file_allows_unsafe =
            pragmas.values().any(|names| names.iter().any(|n| n == UNSAFE_ROOT.name));
        if !file_allows_unsafe {
            raw.push(mk(
                UNSAFE_ROOT,
                1,
                "crate root lacks `#![deny(unsafe_code)]` (or `#![forbid(unsafe_code)]`); \
                 add it, or justify unsafe with `// smi-lint: allow(unsafe): <why>`"
                    .to_string(),
            ));
        }
    }

    // --- suppression pragmas ---
    // A pragma suppresses a finding on its own line, or anywhere in the
    // contiguous block of comment-only lines directly above the finding
    // (so multi-line justifications work).
    let code_lines: std::collections::BTreeSet<u32> = code.iter().map(|t| t.line).collect();
    let mut out = ScanResult::default();
    for f in raw {
        // Strict simulation-path files have no pragma escape for SMI004:
        // the finding stands no matter what comments surround it.
        if policy.strict_no_panic && f.rule.id == NO_PANIC.id {
            out.findings.push(f);
            continue;
        }
        if pragma_allows(&pragmas, &code_lines, f.line, &[f.rule.name]) {
            out.suppressed += 1;
        } else {
            out.findings.push(f);
        }
    }
    out.findings.sort_by(|a, b| (a.line, a.rule.id).cmp(&(b.line, b.rule.id)));
    out
}

/// Is a finding at `line` suppressed by an `allow` pragma naming any of
/// `names` — on the same line, or anywhere in the contiguous block of
/// comment-only lines directly above it (multi-line justifications)?
pub(crate) fn pragma_allows(
    pragmas: &BTreeMap<u32, Vec<String>>,
    code_lines: &std::collections::BTreeSet<u32>,
    at: u32,
    names: &[&str],
) -> bool {
    let allowed = |line: u32| {
        pragmas.get(&line).is_some_and(|have| have.iter().any(|n| names.contains(&n.as_str())))
    };
    if allowed(at) {
        return true;
    }
    let mut line = at;
    while line > 1 && !code_lines.contains(&(line - 1)) {
        line -= 1;
        if allowed(line) {
            return true;
        }
        if !pragmas.contains_key(&line) && at - line > 16 {
            break;
        }
    }
    false
}

/// `// smi-lint: allow(a, b): reason` comments, keyed by line.
pub(crate) fn collect_pragmas(toks: &[Tok]) -> BTreeMap<u32, Vec<String>> {
    let mut out: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for t in toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let Some(at) = t.text.find("smi-lint:") else { continue };
        let rest = &t.text[at + "smi-lint:".len()..];
        let Some(open) = rest.find("allow(") else { continue };
        let Some(close) = rest[open..].find(')') else { continue };
        let inner = &rest[open + "allow(".len()..open + close];
        let names: Vec<String> =
            inner.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
        if !names.is_empty() {
            out.entry(t.line).or_default().extend(names);
        }
    }
    out
}

/// Per-token "is test code" flags: true inside `#[cfg(test)]` / `#[test]`
/// items (attribute token runs themselves keep the enclosing flag).
pub(crate) fn mark_test_regions(code: &[&Tok]) -> Vec<bool> {
    let mut flags = vec![false; code.len()];
    let mut depth: i32 = 0;
    // Depth at which a test attribute is waiting for its item body.
    let mut pending: Option<i32> = None;
    // Stack of depths whose enclosing `{` opened a test item.
    let mut regions: Vec<i32> = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let in_test = !regions.is_empty() || pending.is_some();
        // Attribute: `#[...]` or `#![...]`.
        if code[i].is_punct('#') {
            let bang = code.get(i + 1).is_some_and(|t| t.is_punct('!'));
            let open = i + 1 + usize::from(bang);
            if code.get(open).is_some_and(|t| t.is_punct('[')) {
                let mut j = open + 1;
                let mut level = 1;
                let mut idents: Vec<&str> = Vec::new();
                while j < code.len() && level > 0 {
                    match &code[j].kind {
                        TokKind::Punct('[') => level += 1,
                        TokKind::Punct(']') => level -= 1,
                        TokKind::Ident => idents.push(&code[j].text),
                        _ => {}
                    }
                    j += 1;
                }
                let is_test_attr = idents.contains(&"test") && !idents.contains(&"not");
                if is_test_attr && !bang {
                    pending = Some(depth);
                }
                for flag in flags.iter_mut().take(j).skip(i) {
                    *flag = in_test;
                }
                i = j;
                continue;
            }
        }
        flags[i] = in_test;
        match code[i].kind {
            TokKind::Punct('{') => {
                if pending == Some(depth) {
                    regions.push(depth);
                    pending = None;
                }
                depth += 1;
            }
            TokKind::Punct('}') => {
                depth -= 1;
                if regions.last() == Some(&depth) {
                    regions.pop();
                }
            }
            // `#[cfg(test)] use ...;` — attribute applied to a
            // brace-less item; the region never opens.
            TokKind::Punct(';') if pending == Some(depth) => {
                pending = None;
            }
            _ => {}
        }
        i += 1;
    }
    flags
}

/// True when `code[at..]` is exactly the given punctuation characters.
fn matches_seq(code: &[&Tok], at: usize, puncts: &[&str]) -> bool {
    puncts.iter().enumerate().all(|(k, p)| {
        code.get(at + k).is_some_and(|t| p.chars().next().map(|c| t.is_punct(c)).unwrap_or(false))
    })
}

/// SMI005: statement-level heuristic. A statement (tokens between `;`,
/// `{`, `}`) that both (a) draws an iterator from a hash collection —
/// a `HashMap`/`HashSet` token, or `.iter()/.keys()/.values()/...` on an
/// identifier `let`-bound to one — and (b) reduces with `.sum::<f32|f64>`
/// or `.fold(<float literal>` is flagged: float addition is not
/// associative, so the reduction depends on iteration order.
fn float_reduce_findings(code: &[&Tok], in_test: &[bool], _crate_name: &str) -> Vec<(u32, String)> {
    const ITER_METHODS: [&str; 7] =
        ["iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "drain"];
    // Pass 1: identifiers bound to hash collections (`let [mut] x ... HashMap ... ;`).
    let mut hash_idents: Vec<String> = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].is_ident("let") {
            let mut j = i + 1;
            if code.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let name = code.get(j).filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone());
            let mut k = j;
            let mut saw_hash = false;
            while k < code.len() && !code[k].is_punct(';') {
                if code[k].is_ident("HashMap") || code[k].is_ident("HashSet") {
                    saw_hash = true;
                }
                k += 1;
            }
            if let (Some(name), true) = (name, saw_hash) {
                hash_idents.push(name);
            }
            i = k;
        }
        i += 1;
    }

    // Pass 2: statement windows.
    let mut out = Vec::new();
    let mut start = 0;
    for end in 0..=code.len() {
        let boundary =
            end == code.len() || matches!(code[end].kind, TokKind::Punct(';' | '{' | '}'));
        if !boundary {
            continue;
        }
        let seg = &code[start..end];
        let seg_test = in_test.get(start).copied().unwrap_or(false);
        start = end + 1;
        if seg.is_empty() || seg_test {
            continue;
        }
        let draws_hash_iter = seg.iter().enumerate().any(|(k, t)| {
            if t.is_ident("HashMap") || t.is_ident("HashSet") {
                return true;
            }
            t.kind == TokKind::Ident
                && hash_idents.contains(&t.text)
                && seg.get(k + 1).is_some_and(|d| d.is_punct('.'))
                && seg.get(k + 2).is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
        });
        if !draws_hash_iter {
            continue;
        }
        for (k, t) in seg.iter().enumerate() {
            let after_dot = k > 0 && seg[k - 1].is_punct('.');
            if !after_dot {
                continue;
            }
            let float_sum = t.is_ident("sum")
                && matches_seq(seg, k + 1, &[":", ":", "<"])
                && seg.get(k + 4).is_some_and(|g| g.is_ident("f32") || g.is_ident("f64"));
            let float_fold = t.is_ident("fold")
                && seg.get(k + 1).is_some_and(|p| p.is_punct('('))
                && seg.get(k + 2).is_some_and(|l| {
                    l.kind == TokKind::Literal
                        && (l.text.contains('.')
                            || l.text.ends_with("f32")
                            || l.text.ends_with("f64"))
                });
            if float_sum || float_fold {
                out.push((
                    t.line,
                    format!(
                        "floating-point `.{}` over a hash-collection iterator: float \
                         addition is not associative, so the result depends on \
                         iteration order; collect and sort first",
                        t.text
                    ),
                ));
            }
        }
    }
    out
}

/// Does the file carry `#![deny(unsafe_code)]` / `#![forbid(unsafe_code)]`?
fn has_unsafe_gate(code: &[&Tok]) -> bool {
    for i in 0..code.len() {
        if code[i].is_punct('#')
            && code.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && code.get(i + 2).is_some_and(|t| t.is_punct('['))
            && code.get(i + 3).is_some_and(|t| t.is_ident("deny") || t.is_ident("forbid"))
            && code.get(i + 4).is_some_and(|t| t.is_punct('('))
            && code.get(i + 5).is_some_and(|t| t.is_ident("unsafe_code"))
        {
            return true;
        }
    }
    false
}
