//! Rule identities, findings, and the suppression-pragma layer the
//! whole-workspace passes ([`crate::taint`]) share.
//!
//! | ID     | name       | what it catches                                          |
//! |--------|------------|----------------------------------------------------------|
//! | SMI007 | nd-taint   | a nondeterminism source reachable from a record entry    |
//! | SMI008 | lock-order | a cycle in the interprocedural lock-acquisition order    |
//! | SMI009 | panic-path | a panic site reachable from a strict simulation entry    |
//!
//! Line checks (hash collections, wall clock, ambient authority, panics
//! in library code, `unsafe`) are rustc and clippy lints configured in
//! the workspace `clippy.toml` files and `[workspace.lints]` (DESIGN.md
//! §7); these rules cover what a line lint cannot see: reachability.
//!
//! A finding is suppressed by a pragma comment naming its rule on the
//! flagged line or in the comment block directly above it:
//! `// smi-lint: allow(<rule-name>): reason`.

use crate::lexer::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// A lint rule's stable identity.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Stable ID (`SMI007`...).
    pub id: &'static str,
    /// Pragma name (`nd-taint`, ...).
    pub name: &'static str,
}

/// SMI007 nd-taint: a nondeterminism source (wall clock, ambient
/// authority, hash-order iteration, thread identity) is reachable over
/// the conservative call graph from a record-producing entry point.
pub const ND_TAINT: Rule = Rule { id: "SMI007", name: "nd-taint" };
/// SMI008 lock-order: a cycle in the interprocedural lock-acquisition
/// order graph — a potential deadlock under parallel execution.
pub const LOCK_ORDER: Rule = Rule { id: "SMI008", name: "lock-order" };
/// SMI009 panic-path: a panic site (`unwrap`/`expect`/`panic!`/the
/// `assert!` family) is reachable over the call graph from a strict
/// simulation entry point — the derived no-panic regime.
pub const PANIC_PATH: Rule = Rule { id: "SMI009", name: "panic-path" };

/// All rules, in ID order.
pub const ALL_RULES: [Rule; 3] = [ND_TAINT, LOCK_ORDER, PANIC_PATH];

/// One step of a finding's call chain: a function (or lock-graph edge)
/// with its definition site.
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
    /// The full call chain from the entry point to the flagged site
    /// (SMI008: one lock-graph edge per step).
    pub chain: Vec<ChainStep>,
}

/// Is a finding at `line` suppressed by an `allow` pragma naming any of
/// `names` — on the same line, or anywhere in the contiguous block of
/// comment-only lines directly above it (multi-line justifications)?
pub(crate) fn pragma_allows(
    pragmas: &BTreeMap<u32, Vec<String>>,
    code_lines: &BTreeSet<u32>,
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

/// `// smi-lint: allow(a, b): reason` comments, keyed by line. Doc
/// comments (`///`, `//!`) describe the syntax; they are not pragmas.
pub(crate) fn collect_pragmas(toks: &[Tok]) -> BTreeMap<u32, Vec<String>> {
    let mut out: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for t in toks {
        if t.kind != TokKind::LineComment || t.text.starts_with("///") || t.text.starts_with("//!")
        {
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
