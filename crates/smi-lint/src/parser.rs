//! A lightweight item parser over the [`crate::lexer`] token stream.
//!
//! This is deliberately **not** a Rust parser: no AST, no types, no
//! name resolution. It recovers just enough structure for the
//! whole-workspace passes (SMI007–SMI009) — function definitions with
//! the impl type that owns them, the calls each body makes, and the
//! body-level facts the analyses consume (nondeterminism sources, panic
//! sites, lock acquisitions). Anything it cannot parse it skips; the
//! downstream call-graph resolution is conservative, so skipping can
//! only lose edges in code shapes the workspace does not use (see
//! DESIGN.md §12 for the soundness caveats).

use crate::lexer::{lex, Tok, TokKind};
use crate::rules::{collect_pragmas, mark_test_regions};
use std::collections::{BTreeMap, BTreeSet};

/// Reserved words that can precede `(` without being calls.
const KEYWORDS: [&str; 18] = [
    "if", "else", "match", "while", "for", "loop", "return", "fn", "let", "in", "as", "move",
    "mut", "ref", "unsafe", "where", "break", "continue",
];

/// `!`-macros that abort: the panic family SMI009 tracks.
const PANIC_MACROS: [&str; 7] =
    ["panic", "assert", "assert_eq", "assert_ne", "unreachable", "todo", "unimplemented"];

/// Iterator-drawing methods used by the hash-order heuristic.
const ITER_METHODS: [&str; 7] =
    ["iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "drain"];

/// The kind of nondeterminism a taint source introduces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaintKind {
    /// `Instant::now` / `SystemTime::now`.
    WallClock,
    /// `std::{env,fs,net,process}` — ambient authority.
    Ambient,
    /// Iteration over a `HashMap`/`HashSet`.
    HashOrder,
    /// Thread identity (`thread::current`, `ThreadId`, ...).
    ThreadId,
}

impl TaintKind {
    /// Human label used in SMI007 messages.
    pub fn label(self) -> &'static str {
        match self {
            TaintKind::WallClock => "wall clock",
            TaintKind::Ambient => "ambient authority (env/fs/net/process)",
            TaintKind::HashOrder => "hash-order iteration",
            TaintKind::ThreadId => "thread identity",
        }
    }
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Callee name (last path segment).
    pub name: String,
    /// `Type::` or `module::` qualifier directly before the name, if any.
    pub qualifier: Option<String>,
    /// True for `.name(...)` method-call syntax.
    pub method: bool,
    /// 1-based line of the call.
    pub line: u32,
    /// Token-order index within the enclosing function body.
    pub order: u32,
}

/// One lock acquisition (`x.lock()`, `x.read()`, `x.write()`).
#[derive(Clone, Debug)]
pub struct LockAcq {
    /// Receiver name — the nearest field/variable identifier left of the
    /// method call (`self.file.lock()` → `file`).
    pub name: String,
    /// `lock`, `read`, or `write`.
    pub kind: String,
    /// 1-based line.
    pub line: u32,
    /// Token-order index within the function body. The guard is assumed
    /// held for the remainder of the function — over-approximate (a
    /// temporary or dropped guard dies earlier), never under.
    pub order: u32,
}

/// One nondeterminism source site.
#[derive(Clone, Debug)]
pub struct TaintSite {
    /// What kind of source.
    pub kind: TaintKind,
    /// The offending spelling (`Instant::now`, `std::fs`, ...).
    pub what: String,
    /// 1-based line.
    pub line: u32,
}

/// One panic site.
#[derive(Clone, Debug)]
pub struct PanicSite {
    /// The offending spelling (`.unwrap()`, `assert!`, ...).
    pub what: String,
    /// 1-based line.
    pub line: u32,
}

/// One parsed function definition.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Impl type that owns it (`impl Foo { fn bar }` → `Foo`), if any.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True inside `#[cfg(test)]` / `#[test]` regions.
    pub in_test: bool,
    /// Calls the body makes, in token order.
    pub calls: Vec<Call>,
    /// Nondeterminism sources in the body.
    pub taints: Vec<TaintSite>,
    /// Panic sites in the body.
    pub panics: Vec<PanicSite>,
    /// Lock acquisitions in the body.
    pub locks: Vec<LockAcq>,
}

/// One parsed file: its functions plus the pragma context the
/// interprocedural passes need for suppression.
#[derive(Clone, Debug)]
pub struct ParsedFile {
    /// Crate the file belongs to.
    pub crate_name: String,
    /// Workspace-relative path.
    pub path: String,
    /// Module name: the file stem (`engine.rs` → `engine`).
    pub module: String,
    /// Functions defined in the file, in source order.
    pub fns: Vec<FnDef>,
    /// `// smi-lint: allow(...)` pragmas, keyed by line.
    pub pragmas: BTreeMap<u32, Vec<String>>,
    /// Lines carrying at least one non-comment token.
    pub code_lines: BTreeSet<u32>,
}

/// Parse one file. Total: any input produces a (possibly empty) item list.
pub fn parse_source(crate_name: &str, path: &str, src: &str) -> ParsedFile {
    let toks = lex(src);
    let pragmas = collect_pragmas(&toks);
    let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
    let in_test = mark_test_regions(&code);
    let code_lines: BTreeSet<u32> = code.iter().map(|t| t.line).collect();
    let module =
        path.rsplit('/').next().unwrap_or(path).strip_suffix(".rs").unwrap_or("file").to_string();

    let mut p = Parser {
        code: &code,
        in_test: &in_test,
        fns: Vec::new(),
        mentions_rwlock: code.iter().any(|t| t.is_ident("RwLock")),
    };
    p.walk();
    ParsedFile {
        crate_name: crate_name.to_string(),
        path: path.to_string(),
        module,
        fns: p.fns,
        pragmas,
        code_lines,
    }
}

struct Parser<'a> {
    code: &'a [&'a Tok],
    in_test: &'a [bool],
    fns: Vec<FnDef>,
    mentions_rwlock: bool,
}

/// An open scope on the walker's stack.
enum Scope {
    /// `impl ... {` with the resolved type name; closes at `depth`.
    Impl { depth: i32, type_name: String },
    /// A function body; closes at `depth`. `fn_idx` indexes `fns`.
    Fn { depth: i32, fn_idx: usize, order: u32 },
}

impl<'a> Parser<'a> {
    fn walk(&mut self) {
        let code = self.code;
        let mut depth: i32 = 0;
        let mut scopes: Vec<Scope> = Vec::new();
        // Token index of a `{` that opens a pending impl / fn body.
        let mut pending_impl: Option<(usize, String)> = None;
        let mut pending_fn: Option<(usize, FnDef)> = None;

        let mut i = 0;
        while i < code.len() {
            let t = code[i];
            // Open a pending scope exactly at its `{` token.
            if t.is_punct('{') {
                if let Some((at, type_name)) = pending_impl.take() {
                    if at == i {
                        scopes.push(Scope::Impl { depth, type_name });
                    } else {
                        pending_impl = Some((at, type_name));
                    }
                }
                if let Some((at, def)) = pending_fn.take() {
                    if at == i {
                        self.fns.push(def);
                        let fn_idx = self.fns.len() - 1;
                        scopes.push(Scope::Fn { depth, fn_idx, order: 0 });
                    } else {
                        pending_fn = Some((at, def));
                    }
                }
                depth += 1;
                i += 1;
                continue;
            }
            if t.is_punct('}') {
                depth -= 1;
                while matches!(scopes.last(),
                    Some(Scope::Impl { depth: d, .. } | Scope::Fn { depth: d, .. }) if *d == depth)
                {
                    scopes.pop();
                }
                i += 1;
                continue;
            }

            // `impl` header: resolve the type it attaches methods to.
            if t.is_ident("impl") && pending_fn.is_none() {
                if let Some((open, type_name)) = self.impl_header(i) {
                    pending_impl = Some((open, type_name));
                }
                i += 1;
                continue;
            }

            // `fn` item: record the definition, find its body.
            if t.is_ident("fn")
                && code.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident)
                && pending_fn.is_none()
            {
                let name = code[i + 1].text.clone();
                if let Some(open) = self.fn_body_open(i + 2) {
                    let owner = scopes.iter().rev().find_map(|s| match s {
                        Scope::Impl { type_name, .. } => Some(type_name.clone()),
                        Scope::Fn { .. } => None,
                    });
                    let def = FnDef {
                        name,
                        owner,
                        line: t.line,
                        in_test: self.in_test.get(i).copied().unwrap_or(false),
                        calls: Vec::new(),
                        taints: Vec::new(),
                        panics: Vec::new(),
                        locks: Vec::new(),
                    };
                    pending_fn = Some((open, def));
                }
                i += 2;
                continue;
            }

            // Body-level facts attribute to the innermost open fn.
            let fn_scope = scopes.iter_mut().rev().find_map(|s| match s {
                Scope::Fn { fn_idx, order, .. } => Some((*fn_idx, order)),
                Scope::Impl { .. } => None,
            });
            if let Some((fn_idx, order)) = fn_scope {
                let seq = *order;
                *order += 1;
                let adv = self.body_token(i, fn_idx, seq);
                i += adv.max(1);
                continue;
            }
            i += 1;
        }
        self.finish_hash_order();
    }

    /// Parse an `impl` header starting at token `at` (the `impl` ident).
    /// Returns `(token index of the body '{', type name)`.
    fn impl_header(&self, at: usize) -> Option<(usize, String)> {
        let code = self.code;
        let mut j = at + 1;
        let mut angle = 0i32;
        let mut last_ident: Option<String> = None;
        while j < code.len() {
            let t = code[j];
            match t.kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => angle -= 1,
                TokKind::Punct('{') if angle <= 0 => {
                    return last_ident.map(|n| (j, n));
                }
                TokKind::Punct(';') if angle <= 0 => return None,
                TokKind::Ident if angle == 0 => {
                    if t.text == "where" {
                        // The type is settled; scan on for the `{` only.
                        let name = last_ident?;
                        let mut k = j;
                        let mut a = 0i32;
                        while k < code.len() {
                            match code[k].kind {
                                TokKind::Punct('<') => a += 1,
                                TokKind::Punct('>') => a -= 1,
                                TokKind::Punct('{') if a <= 0 => return Some((k, name)),
                                TokKind::Punct(';') if a <= 0 => return None,
                                _ => {}
                            }
                            k += 1;
                        }
                        return None;
                    }
                    if t.text != "for" && t.text != "dyn" && t.text != "const" {
                        last_ident = Some(t.text.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// From just past a fn's name, find the `{` opening its body (at
    /// paren/bracket depth 0), or `None` for body-less declarations.
    fn fn_body_open(&self, from: usize) -> Option<usize> {
        let code = self.code;
        let mut j = from;
        let mut paren = 0i32;
        while j < code.len() {
            match code[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => paren += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => paren -= 1,
                TokKind::Punct('{') if paren == 0 => return Some(j),
                TokKind::Punct(';') if paren == 0 => return None,
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// Handle one token inside a fn body. Returns how many tokens were
    /// consumed (minimum 1).
    fn body_token(&mut self, i: usize, fn_idx: usize, order: u32) -> usize {
        let code = self.code;
        let t = code[i];
        if t.kind != TokKind::Ident {
            return 1;
        }
        let line = t.line;

        // Macro invocation: `name!(...)`.
        if code.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            if PANIC_MACROS.contains(&t.text.as_str()) {
                self.fns[fn_idx].panics.push(PanicSite { what: format!("{}!", t.text), line });
            }
            return 2;
        }

        // Wall-clock / thread-identity taints on path shapes.
        if matches_seq(code, i + 1, &[':', ':']) {
            let seg = code.get(i + 3).map(|n| n.text.as_str()).unwrap_or("");
            if (t.is_ident("Instant") || t.is_ident("SystemTime")) && seg == "now" {
                self.fns[fn_idx].taints.push(TaintSite {
                    kind: TaintKind::WallClock,
                    what: format!("{}::now", t.text),
                    line,
                });
            }
            if t.is_ident("std") && ["env", "fs", "net", "process"].contains(&seg) {
                self.fns[fn_idx].taints.push(TaintSite {
                    kind: TaintKind::Ambient,
                    what: format!("std::{seg}"),
                    line,
                });
            }
            if t.is_ident("thread") && (seg == "current" || seg == "spawn") {
                self.fns[fn_idx].taints.push(TaintSite {
                    kind: TaintKind::ThreadId,
                    what: format!("thread::{seg}"),
                    line,
                });
            }
        }
        if t.is_ident("ThreadId") || t.is_ident("thread_rng") {
            self.fns[fn_idx].taints.push(TaintSite {
                kind: TaintKind::ThreadId,
                what: t.text.clone(),
                line,
            });
        }

        // Call shapes: `name(`, `name::<T>(`, `.name(`, `q::name(`.
        let mut after = i + 1;
        if matches_seq(code, after, &[':', ':', '<']) {
            // Turbofish: skip to the matching `>`.
            let mut k = after + 3;
            let mut a = 1i32;
            while k < code.len() && a > 0 {
                match code[k].kind {
                    TokKind::Punct('<') => a += 1,
                    TokKind::Punct('>') => a -= 1,
                    _ => {}
                }
                k += 1;
            }
            after = k;
        }
        let is_call = code.get(after).is_some_and(|n| n.is_punct('('));
        if !is_call || KEYWORDS.contains(&t.text.as_str()) {
            return 1;
        }
        let method = i > 0 && code[i - 1].is_punct('.');
        let qualifier = if !method && i >= 3 && matches_seq(code, i - 2, &[':', ':']) {
            code.get(i - 3).filter(|q| q.kind == TokKind::Ident).map(|q| q.text.clone())
        } else {
            None
        };

        // Panic-site methods.
        if method && (t.is_ident("unwrap") || t.is_ident("expect")) {
            self.fns[fn_idx].panics.push(PanicSite { what: format!(".{}()", t.text), line });
        }
        // Ambient authority laundered through a `use std::fs;` import.
        if let Some(q) = &qualifier {
            if ["env", "fs", "net", "process"].contains(&q.as_str())
                && !matches!(code.get(i.wrapping_sub(4)), Some(p) if p.is_punct(':'))
            {
                // `fs::read(...)` but not `std::fs::read` (already seen).
                self.fns[fn_idx].taints.push(TaintSite {
                    kind: TaintKind::Ambient,
                    what: format!("{q}::{}", t.text),
                    line,
                });
            }
        }

        // Lock acquisitions.
        let is_lock = t.is_ident("lock")
            || (self.mentions_rwlock && (t.is_ident("read") || t.is_ident("write")));
        if method && is_lock {
            if let Some(name) = receiver_name(code, i - 1) {
                self.fns[fn_idx].locks.push(LockAcq { name, kind: t.text.clone(), line, order });
            }
        }

        self.fns[fn_idx].calls.push(Call { name: t.text.clone(), qualifier, method, line, order });
        1
    }

    /// Hash-order heuristic: a fn whose body both names a hash collection
    /// and draws an iterator gets a `HashOrder` taint at the collection's
    /// line. (Clippy's `disallowed_types` already bans the collections in
    /// record crates; this catches them in crates the entry points reach.)
    fn finish_hash_order(&mut self) {
        for def in &mut self.fns {
            let draws_iter =
                def.calls.iter().any(|c| c.method && ITER_METHODS.contains(&c.name.as_str()));
            if !draws_iter {
                continue;
            }
            // Re-scan is unnecessary: hash collections appear as calls
            // (`HashMap::new(`) or idents; calls cover the common shapes.
            let hash_call = def.calls.iter().find(|c| {
                c.qualifier.as_deref() == Some("HashMap")
                    || c.qualifier.as_deref() == Some("HashSet")
            });
            if let Some(c) = hash_call {
                let line = c.line;
                let what = format!("{}::{}", c.qualifier.clone().unwrap_or_default(), c.name);
                def.taints.push(TaintSite { kind: TaintKind::HashOrder, what, line });
            }
        }
    }
}

/// True when `code[at..]` is exactly the given punctuation characters.
fn matches_seq(code: &[&Tok], at: usize, puncts: &[char]) -> bool {
    puncts.iter().enumerate().all(|(k, &p)| code.get(at + k).is_some_and(|t| t.is_punct(p)))
}

/// The nearest field/variable identifier left of a method-call dot:
/// `self.file.lock()` → `file`; `deques[i].lock()` → `deques`;
/// `a.b().lock()` → `b` is a call, keep walking → `a`... → first
/// non-call identifier.
fn receiver_name(code: &[&Tok], dot_idx: usize) -> Option<String> {
    let mut j = dot_idx.checked_sub(1)?;
    loop {
        let t = code.get(j)?;
        match t.kind {
            TokKind::Punct(')') | TokKind::Punct(']') => {
                let close = if t.is_punct(')') { ')' } else { ']' };
                let open = if close == ')' { '(' } else { '[' };
                let mut level = 1i32;
                while level > 0 {
                    j = j.checked_sub(1)?;
                    let u = code.get(j)?;
                    if u.is_punct(close) {
                        level += 1;
                    } else if u.is_punct(open) {
                        level -= 1;
                    }
                }
                j = j.checked_sub(1)?;
            }
            TokKind::Punct('?') | TokKind::Punct('.') => {
                j = j.checked_sub(1)?;
            }
            TokKind::Ident => {
                // A call result (`b()` skipped above leaves `b` here with
                // its parens consumed): calls are followed by `(` in the
                // original stream — we just skipped that group, so check
                // whether the *next* token after this ident opened it.
                if code.get(j + 1).is_some_and(|n| n.is_punct('(')) {
                    // Method/fn name: skip it and continue left.
                    match j.checked_sub(1) {
                        Some(prev) => j = prev,
                        None => return None,
                    }
                } else {
                    return Some(t.text.clone());
                }
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_source("testcrate", "crates/testcrate/src/m.rs", src)
    }

    #[test]
    fn functions_and_owners_are_recovered() {
        let pf = parse(
            "pub fn free(x: u32) -> u32 { helper(x) }\n\
             struct S;\n\
             impl S { fn method(&self) { self.other(); } }\n\
             impl std::fmt::Display for S {\n\
                 fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { write!(f, \"\") }\n\
             }\n",
        );
        let names: Vec<(String, Option<String>)> =
            pf.fns.iter().map(|f| (f.name.clone(), f.owner.clone())).collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None),
                ("method".into(), Some("S".into())),
                ("fmt".into(), Some("S".into())),
            ]
        );
        assert_eq!(pf.fns[0].calls.len(), 1);
        assert_eq!(pf.fns[0].calls[0].name, "helper");
        assert!(!pf.fns[0].calls[0].method);
        assert!(pf.fns[1].calls.iter().any(|c| c.name == "other" && c.method));
    }

    #[test]
    fn qualified_and_turbofish_calls() {
        let pf = parse(
            "fn f() {\n\
                 let a = engine::run(1);\n\
                 let b = Vec::<u32>::new();\n\
                 let c = parse::<u64>(\"4\");\n\
             }\n",
        );
        let calls = &pf.fns[0].calls;
        assert!(calls.iter().any(|c| c.name == "run" && c.qualifier.as_deref() == Some("engine")));
        assert!(calls.iter().any(|c| c.name == "parse" && c.qualifier.is_none()));
    }

    #[test]
    fn taints_panics_and_locks_are_recorded() {
        let pf = parse(
            "fn f(m: &std::sync::Mutex<u32>) {\n\
                 let t = Instant::now();\n\
                 let e = std::env::var(\"HOME\");\n\
                 let g = m.lock().unwrap();\n\
                 assert!(*g > 0);\n\
             }\n",
        );
        let f = &pf.fns[0];
        assert!(f.taints.iter().any(|t| t.kind == TaintKind::WallClock && t.line == 2));
        assert!(f.taints.iter().any(|t| t.kind == TaintKind::Ambient && t.line == 3));
        assert!(f.panics.iter().any(|p| p.what == ".unwrap()" && p.line == 4));
        assert!(f.panics.iter().any(|p| p.what == "assert!" && p.line == 5));
        assert_eq!(f.locks.len(), 1);
        assert_eq!(f.locks[0].name, "m");
    }

    #[test]
    fn receiver_names_resolve_through_chains() {
        let pf = parse(
            "fn f(&self) {\n\
                 let a = self.file.lock();\n\
                 let b = deques[i].lock();\n\
                 let c = self.print.as_ref().unwrap().lock();\n\
             }\n",
        );
        let names: Vec<&str> = pf.fns[0].locks.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["file", "deques", "print"]);
    }

    #[test]
    fn test_regions_are_flagged() {
        let pf = parse(
            "fn lib_code() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn a_test() { helper().unwrap(); }\n\
             }\n",
        );
        assert!(!pf.fns[0].in_test);
        let test_fn = pf.fns.iter().find(|f| f.name == "a_test").expect("parsed test fn");
        assert!(test_fn.in_test);
    }

    #[test]
    fn hash_order_heuristic_needs_both_halves() {
        let quiet = parse("fn f() { let m = HashMap::new(); m.insert(1, 2); m.get(&1); }");
        assert!(quiet.fns[0].taints.is_empty(), "no iteration, no taint");
        let noisy = parse("fn f() { let m = HashMap::new(); for k in m.keys() { use_(k); } }");
        assert!(noisy.fns[0].taints.iter().any(|t| t.kind == TaintKind::HashOrder));
    }
}
