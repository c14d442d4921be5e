//! Campaign start-up equivalence: the one-read journal recovery, the
//! backward torn-tail scan, the listing-typed orphan walk and the
//! key-scoped replay of the journal, index and intent log through their
//! line codecs must give exactly what the code they replaced gave. Each
//! replaced routine is kept here, frozen, as the reference: the forward
//! tail scan, the sweep-then-load journal start-up, the stat-per-entry
//! orphan sweep, fsck's own orphan walk, and the `Json`-tree replay (and
//! writers) of all three bookkeeping logs.

use jsonio::{checked, Json};
use quickprop::Gen;
use runner::cache::{self, orphan_temps, sweep_stats, CacheKey, Lookup, Scope, SweepStats};
use runner::journal::{recover, sweep_torn_tail, torn_tail_start, Journal, JournalLine, Status};
use runner::store::{
    fsck, index_path, intent_path, FindingKind, IndexLine, IntentLine, IntentOp, Store,
};
use runner::vfs::Vfs;
use runner::CellSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smi-lab-startup-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

// ------------------------------------------------------------ journals

/// Frozen reference: the forward scan `torn_tail_start` used to run,
/// parsing every complete line.
fn forward_torn_tail_start(text: &str) -> usize {
    let mut valid_end = 0;
    let mut pos = 0;
    while let Some(nl) = text[pos..].find('\n') {
        let line = &text[pos..pos + nl];
        pos += nl + 1;
        if Json::parse(line).is_ok() {
            valid_end = pos;
        }
    }
    valid_end
}

const CELLS: [&str; 4] = ["A-n1-r1", "B-n16-r4", "café-✓", "😀-n2"];
const STATUSES: [&str; 4] = ["ok", "failed", "crashed", "bogus"];

fn journal_line(g: &mut Gen) -> String {
    Json::obj(vec![
        ("schema", Json::U64(g.pick(&[1, 1, 1, 2]))),
        ("key", Json::Str(format!("{:032x}", g.below(6)))),
        ("cell", Json::Str(g.pick(&CELLS).to_string())),
        ("status", Json::Str(g.pick(&STATUSES).to_string())),
        ("attempts", Json::U64(g.u64(1..4))),
    ])
    .to_string()
}

/// A prefix of `line` cut at a char boundary (a torn append).
fn torn(g: &mut Gen, line: &str) -> String {
    let mut cut = g.usize(0..line.len());
    while !line.is_char_boundary(cut) {
        cut -= 1;
    }
    line[..cut].to_string()
}

/// A random journal: valid lines mixed with garbage, empty lines,
/// parseable non-journal JSON, `\r\n` endings and multi-byte UTF-8, then
/// an optional tail (torn with or without a newline, or a whole line
/// missing its newline).
fn random_journal(g: &mut Gen) -> String {
    let mut text = String::new();
    for _ in 0..g.usize(0..12) {
        let line = match g.below(8) {
            0 => "not json ✗".to_string(),
            1 => String::new(),
            2 => "[1,2]".to_string(),
            3 => {
                let line = journal_line(g);
                torn(g, &line)
            }
            _ => journal_line(g),
        };
        text.push_str(&line);
        text.push_str(if g.below(4) == 0 { "\r\n" } else { "\n" });
    }
    match g.below(5) {
        0 => {}
        1 => {
            let line = journal_line(g);
            text.push_str(&torn(g, &line));
        }
        2 => {
            let line = journal_line(g);
            text.push_str(&torn(g, &line));
            text.push('\n');
        }
        3 => text.push_str(&journal_line(g)),
        _ => text.push_str("\u{e9}\u{1F600}"),
    }
    text
}

#[test]
fn backward_tail_scan_equals_forward_scan() {
    quickprop::check("backward_tail_scan", 512, |g| {
        let text = random_journal(g);
        assert_eq!(torn_tail_start(&text), forward_torn_tail_start(&text), "{text:?}");
    });
    for text in
        ["", "\n", "\r\n", "{}", "{}\n", "{}\r\n", "x\n{}\nx\n", "{}\nx", "é\n{\"a\":\"é\"}\n"]
    {
        assert_eq!(torn_tail_start(text), forward_torn_tail_start(text), "{text:?}");
    }
}

/// Whether the current process can open `path` for writing despite its
/// read-only mode (true when it runs with privileges that bypass file
/// permissions).
fn writable(path: &Path) -> bool {
    std::fs::OpenOptions::new().write(true).open(path).is_ok()
}

fn set_readonly(path: &Path, readonly: bool) {
    let mut perms = std::fs::metadata(path).expect("stat journal").permissions();
    perms.set_readonly(readonly);
    std::fs::set_permissions(path, perms).expect("chmod journal");
}

/// Start-up the old way (sweep, then a second read to load) against the
/// one-read recovery, on two identical copies of `bytes`.
fn assert_recover_matches(dir: &Path, bytes: &[u8], readonly: bool) -> bool {
    let (two_step, one_pass) = (dir.join("two.jsonl"), dir.join("one.jsonl"));
    for path in [&two_step, &one_pass] {
        std::fs::write(path, bytes).expect("write journal");
        set_readonly(path, readonly);
    }
    let expected_torn = sweep_torn_tail(&two_step);
    let expected = Journal::load(&two_step);
    let (journal, torn) = recover(&one_pass, &Scope::all());
    assert_eq!(journal, expected, "statuses differ for {bytes:?}");
    assert_eq!(torn, expected_torn, "torn bytes differ for {bytes:?}");
    let after = std::fs::read(&one_pass).expect("read journal");
    assert_eq!(after, std::fs::read(&two_step).expect("read journal"), "file bytes differ");
    let truncate_failed = readonly && !writable(&one_pass);
    for path in [&two_step, &one_pass] {
        set_readonly(path, false);
    }
    truncate_failed
}

#[test]
fn one_pass_recovery_equals_sweep_then_load() {
    let dir = tmp_dir("recover");
    quickprop::check("one_pass_recovery", 128, |g| {
        let text = random_journal(g);
        assert_recover_matches(&dir, text.as_bytes(), false);
    });
    // Invalid UTF-8 reads as an empty journal with nothing swept.
    assert_recover_matches(&dir, b"{\"schema\":1}\n\xff\xfe{\"torn", false);
    // A read-only journal with a torn tail: the truncate fails, so the
    // whole file — tail included — is replayed and nothing is counted.
    let mut text = journal_line(&mut Gen::from_seed(1));
    text.push('\n');
    text.push_str(&journal_line(&mut Gen::from_seed(2)));
    let truncate_failed = assert_recover_matches(&dir, text.as_bytes(), true);
    if truncate_failed {
        let path = dir.join("one.jsonl");
        std::fs::write(&path, &text).expect("write journal");
        set_readonly(&path, true);
        let (journal, torn) = recover(&path, &Scope::all());
        assert_eq!(torn, 0);
        assert_eq!(journal.len(), 2, "the newline-less final line is still replayed");
        set_readonly(&path, false);
    }
    // A missing journal is empty.
    let (journal, torn) = recover(&dir.join("missing.jsonl"), &Scope::all());
    assert!(journal.is_empty());
    assert_eq!(torn, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------- orphan sweeps

/// Frozen reference: the orphan sweep as it was, with one `is_dir` stat
/// per listed path.
fn stat_sweep(dir: &Path) -> SweepStats {
    let mut stats = SweepStats::default();
    let sweep_dir = |sub: &Path, counter: &mut u64| {
        let Ok(files) = std::fs::read_dir(sub) else { return };
        for file in files.flatten() {
            let path = file.path();
            if path.is_dir() {
                continue;
            }
            if file.file_name().to_string_lossy().contains(".tmp.")
                && std::fs::remove_file(&path).is_ok()
            {
                *counter += 1;
            }
        }
    };
    sweep_dir(dir, &mut stats.cache_tmp);
    let Ok(entries) = std::fs::read_dir(dir) else { return stats };
    for entry in entries.flatten() {
        let sub = entry.path();
        if !sub.is_dir() {
            continue;
        }
        let name = entry.file_name();
        let counter = match name.to_string_lossy().as_ref() {
            "journal" | "index" | "intent" => &mut stats.journal_tmp,
            "manifests" => &mut stats.manifest_tmp,
            _ => &mut stats.cache_tmp,
        };
        sweep_dir(&sub, counter);
    }
    stats
}

/// Frozen reference: fsck's own orphan walk as it was, sorted by path.
fn stat_fsck_orphans(root: &Path) -> Vec<String> {
    let mut found = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    if let Ok(entries) = std::fs::read_dir(root) {
        dirs.extend(entries.flatten().map(|e| e.path()).filter(|p| p.is_dir()));
    }
    for dir in dirs {
        let Ok(files) = std::fs::read_dir(&dir) else { continue };
        for path in files.flatten().map(|e| e.path()) {
            if path.is_dir()
                || !path.file_name().is_some_and(|n| n.to_string_lossy().contains(".tmp."))
            {
                continue;
            }
            found.push(path);
        }
    }
    found.sort();
    found
        .iter()
        .map(|p| p.strip_prefix(root).expect("under root").to_string_lossy().into_owned())
        .collect()
}

fn plant(path: &Path) {
    std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    std::fs::write(path, "x").expect("plant");
}

/// A store with orphans in every area, next to the awkward entries the
/// listing's types must classify exactly as a stat would: a symlinked
/// shard directory, symlinks named `*.tmp.*` (to a file, to a directory,
/// dangling), directories named `*.tmp.*` and a nested directory.
fn fixture(base: &Path) -> PathBuf {
    use std::os::unix::fs::symlink;
    let root = base.join("store");
    for rel in [
        "ab/k1.json",
        "ab/k1.json.tmp.1.0",
        "ab/nested/n.json.tmp.1.1",
        "ab/d.tmp.1.2/inner.tmp.1.3",
        "0f/k2.json",
        "journal/t2.jsonl",
        "journal/t2.jsonl.tmp.1.4",
        "journal/t2.lock",
        "index/t2.idx.tmp.1.5",
        "intent/t2.log.tmp.1.6",
        "manifests/t2.json",
        "manifests/t2.json.tmp.1.7",
        "root.tmp.1.8",
        "r.tmp.1.9/inside.tmp.1.10",
        "r.tmp.1.9/keep.json",
    ] {
        plant(&root.join(rel));
    }
    plant(&base.join("outside/linked.json.tmp.2.0"));
    plant(&base.join("outside/keep.json"));
    symlink(base.join("outside"), root.join("cd")).expect("symlinked shard");
    symlink(root.join("ab/k1.json"), root.join("ab/file-link.tmp.3.0")).expect("link to file");
    symlink(base.join("outside"), root.join("ab/dir-link.tmp.3.1")).expect("link to dir");
    symlink(base.join("gone"), root.join("ab/dangling.tmp.3.2")).expect("dangling link");
    symlink(base.join("gone"), root.join("top.tmp.3.3")).expect("dangling root link");
    root
}

/// Every path under `dir`, relative, with its unfollowed type.
fn tree(dir: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("list").flatten() {
            let path = entry.path();
            let kind = std::fs::symlink_metadata(&path).expect("lstat").file_type();
            let rel = path.strip_prefix(dir).expect("under dir").to_string_lossy().into_owned();
            out.push((rel, format!("{kind:?}")));
            if kind.is_dir() {
                stack.push(path);
            }
        }
    }
    out.sort();
    out
}

#[test]
fn listing_typed_sweep_equals_stat_sweep() {
    let (old, new) = (tmp_dir("sweep-old"), tmp_dir("sweep-new"));
    let (old_root, new_root) = (fixture(&old), fixture(&new));
    assert_eq!(tree(&old), tree(&new), "identical fixtures");

    let found: Vec<String> = orphan_temps(&new_root)
        .iter()
        .map(|(_, p)| p.strip_prefix(&new_root).expect("under root").to_string_lossy().into_owned())
        .collect();
    assert_eq!(found, stat_fsck_orphans(&new_root), "the shared walk lists what fsck listed");
    let fsck_orphans: Vec<String> = fsck(&new_root, false)
        .findings
        .iter()
        .filter(|f| f.kind == FindingKind::OrphanTmp)
        .map(|f| f.path.clone())
        .collect();
    assert_eq!(fsck_orphans, found, "fsck reports the walk in path order");

    let expected = stat_sweep(&old_root);
    assert_eq!(sweep_stats(&new_root), expected);
    assert_eq!(expected, SweepStats { cache_tmp: 7, journal_tmp: 3, manifest_tmp: 1 });
    assert_eq!(tree(&old), tree(&new), "the same files survive");
    assert!(orphan_temps(&new_root).is_empty(), "a second walk finds nothing");
    let _ = std::fs::remove_dir_all(&old);
    let _ = std::fs::remove_dir_all(&new);
}

#[test]
fn random_stores_sweep_like_the_stat_sweep() {
    const DIRS: [&str; 7] = ["", "ab", "ff", "journal", "index", "intent", "manifests"];
    let (old, new) = (tmp_dir("rand-old"), tmp_dir("rand-new"));
    quickprop::check("orphan_walk_matches_stat_sweep", 32, |g| {
        let files: Vec<String> = g.vec(0..24, |g| {
            let dir = g.pick(&DIRS);
            let name = match g.below(3) {
                0 => format!("k{}.json", g.below(9)),
                1 => format!("k{}.json.tmp.{}.{}", g.below(9), g.below(3), g.below(3)),
                _ => format!("sub{}/x.tmp.0.{}", g.below(2), g.below(3)),
            };
            if dir.is_empty() {
                name
            } else {
                format!("{dir}/{name}")
            }
        });
        for base in [&old, &new] {
            let _ = std::fs::remove_dir_all(base);
            std::fs::create_dir_all(base).expect("mkdir");
            for rel in &files {
                plant(&base.join(rel));
            }
        }
        assert_eq!(sweep_stats(&new), stat_sweep(&old), "{files:?}");
        assert_eq!(tree(&old), tree(&new), "{files:?}");
    });
    let _ = std::fs::remove_dir_all(&old);
    let _ = std::fs::remove_dir_all(&new);
}

// ------------------------------------------------- bookkeeping lines

/// Frozen reference: the journal replay as it was, one `Json` tree per
/// line.
fn tree_journal(text: &str) -> BTreeMap<CacheKey, Status> {
    let mut entries = BTreeMap::new();
    for line in text.lines() {
        let Ok(entry) = Json::parse(line) else { continue };
        if entry.get("schema").and_then(Json::as_u64) != Some(1) {
            continue;
        }
        let key = entry.get("key").and_then(Json::as_str).and_then(CacheKey::from_hex);
        let status = entry.get("status").and_then(Json::as_str).and_then(Status::parse);
        if let (Some(key), Some(status)) = (key, status) {
            entries.insert(key, status);
        }
    }
    entries
}

/// Frozen reference: `Store::open`'s index replay as it was.
fn tree_index(text: &str) -> BTreeSet<CacheKey> {
    let mut keys = BTreeSet::new();
    for line in text.lines() {
        let Ok(record) = checked::unseal(line) else { continue };
        if let Some(key) = record.get("key").and_then(Json::as_str).and_then(CacheKey::from_hex) {
            keys.insert(key);
        }
    }
    keys
}

/// Frozen reference: `Store::open`'s intent replay as it was — whether
/// each key's last intent is an `end`, and whether any line was torn.
fn tree_intents(text: &str) -> (BTreeMap<String, bool>, bool) {
    let mut pending = BTreeMap::new();
    let mut torn_lines = false;
    for line in text.lines() {
        let Ok(record) = checked::unseal(line) else {
            torn_lines = true;
            continue;
        };
        let (Some(op), Some(key)) =
            (record.get("op").and_then(Json::as_str), record.get("key").and_then(Json::as_str))
        else {
            continue;
        };
        match op {
            "begin" => {
                pending.insert(key.to_string(), false);
            }
            "end" => {
                pending.insert(key.to_string(), true);
            }
            _ => {}
        }
    }
    (pending, torn_lines)
}

/// Frozen reference writers: the `Json` trees the three logs were
/// written from.
fn tree_journal_line(key: &str, cell: &str, status: &str, attempts: u64, schema: u64) -> String {
    Json::obj(vec![
        ("schema", Json::U64(schema)),
        ("key", Json::Str(key.to_string())),
        ("cell", Json::Str(cell.to_string())),
        ("status", Json::Str(status.to_string())),
        ("attempts", Json::U64(attempts)),
    ])
    .to_string()
}

fn tree_index_line(key: &str) -> String {
    checked::seal(&Json::obj(vec![("key", Json::Str(key.to_string()))]))
}

fn tree_intent_line(op: &str, key: &str) -> String {
    checked::seal(&Json::obj(vec![("op", Json::Str(op.into())), ("key", Json::Str(key.into()))]))
}

/// Cell names that stress the `cell` token: quotes, backslashes, every
/// short escape, other control bytes and multi-byte scalars.
fn random_cell(g: &mut Gen) -> String {
    const CHARS: [char; 14] =
        ['A', '-', 'n', '4', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', 'é', '✓', '😀'];
    g.vec(0..10, |g| g.pick(&CHARS)).into_iter().collect()
}

fn spec(n: u64) -> CellSpec {
    CellSpec {
        experiment: "table2".into(),
        cell: format!("A-n{n}-r1"),
        params: Json::obj(vec![("nodes", Json::U64(n))]),
        seed: 20160816 + n,
        reps: 3,
    }
}

/// The keys of the random stores: cells with real specs, so lookups
/// through the store work, plus a stranger no object backs.
fn universe() -> Vec<CacheKey> {
    let mut keys: Vec<CacheKey> = (0..6).map(|n| cache::cell_key("v1", &spec(n))).collect();
    keys.push(CacheKey(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210));
    keys
}

/// One log line: what its writer emitted, or a foreign shape.
#[derive(Clone, Debug)]
enum Line {
    Writer(String),
    Foreign(String),
}

impl Line {
    fn text(&self) -> &str {
        match self {
            Line::Writer(t) | Line::Foreign(t) => t,
        }
    }
}

/// `line` with one digit of its recorded checksum changed.
fn flip_sum_digit(g: &mut Gen, line: &str) -> String {
    let at = 6 + g.usize(0..16);
    let mut bytes = line.as_bytes().to_vec();
    bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
    String::from_utf8(bytes).expect("ascii frame")
}

/// Extra whitespace where `Json::parse` skips it.
fn with_whitespace(g: &mut Gen, body: &str) -> String {
    match g.below(3) {
        0 => format!(" {body}"),
        1 => format!("{body} "),
        _ => body.replacen(':', ": ", 1),
    }
}

fn journal_entry(g: &mut Gen, keys: &[CacheKey]) -> Line {
    let key = g.pick(keys).hex();
    let cell = random_cell(g);
    let status = g.pick(&[Status::Ok, Status::Failed, Status::Crashed]);
    let attempts = if g.bool() { g.any_u64() as u32 } else { g.u64(0..4) as u32 };
    let line = tree_journal_line(&key, &cell, status.label(), attempts as u64, 1);
    let key = CacheKey::from_hex(&key).expect("hex");
    assert_eq!(JournalLine::encode(key, &cell, status, attempts), line, "writer bytes");
    match g.below(10) {
        0 => Line::Foreign(
            Json::obj(vec![
                ("key", Json::Str(key.hex())),
                ("schema", Json::U64(1)),
                ("cell", Json::Str(cell)),
                ("status", Json::Str(status.label().into())),
                ("attempts", Json::U64(attempts as u64)),
            ])
            .to_string(),
        ),
        1 => Line::Foreign(with_whitespace(g, &line)),
        2 => Line::Foreign(tree_journal_line(&key.hex(), &cell, status.label(), 1, 2)),
        3 => Line::Foreign(line.replace(&key.hex(), &key.hex().to_uppercase())),
        4 => Line::Foreign(torn(g, &line)),
        5 => Line::Foreign(line.replacen("\"attempts\":", "\"attempts\":0", 1)),
        _ => Line::Writer(line),
    }
}

fn index_entry(g: &mut Gen, keys: &[CacheKey]) -> Line {
    let key = g.pick(keys);
    let line = tree_index_line(&key.hex());
    assert_eq!(IndexLine::encode(key), line, "writer bytes");
    let body = format!("{{\"key\":\"{}\"}}", key.hex());
    match g.below(10) {
        0 => Line::Foreign(checked::seal_body(&with_whitespace(g, &body))),
        1 => Line::Foreign(checked::seal_body(&format!("{{\"key\":\"{}\",\"x\":1}}", key.hex()))),
        2 => Line::Foreign(tree_index_line(&key.hex().to_uppercase())),
        3 => Line::Foreign(torn(g, &line)),
        4 => Line::Foreign(flip_sum_digit(g, &line)),
        _ => Line::Writer(line),
    }
}

fn intent_entry(g: &mut Gen, keys: &[CacheKey]) -> Line {
    let key = g.pick(keys);
    let op = g.pick(&[IntentOp::Begin, IntentOp::End]);
    let label = if op == IntentOp::Begin { "begin" } else { "end" };
    let line = tree_intent_line(label, &key.hex());
    assert_eq!(IntentLine::encode(op, key), line, "writer bytes");
    match g.below(12) {
        0 => Line::Foreign(checked::seal(&Json::obj(vec![
            ("key", Json::Str(key.hex())),
            ("op", Json::Str(label.into())),
        ]))),
        1 => {
            let body = format!("{{\"op\":\"{label}\",\"key\":\"{}\"}}", key.hex());
            Line::Foreign(checked::seal_body(&with_whitespace(g, &body)))
        }
        2 => Line::Foreign(tree_intent_line(label, &key.hex().to_uppercase())),
        3 => Line::Foreign(tree_intent_line("commit", &key.hex())),
        4 => Line::Foreign(torn(g, &line)),
        5 => Line::Foreign(flip_sum_digit(g, &line)),
        _ => Line::Writer(line),
    }
}

fn random_log(
    g: &mut Gen,
    keys: &[CacheKey],
    entry: fn(&mut Gen, &[CacheKey]) -> Line,
) -> Vec<Line> {
    let mut lines = g.vec(0..10, |g| entry(g, keys));
    // Duplicate keys: repeat some earlier lines later in the log.
    for _ in 0..g.usize(0..3) {
        if !lines.is_empty() {
            let again = lines[g.usize(0..lines.len())].clone();
            lines.push(again);
        }
    }
    lines
}

/// The log's bytes, every line newline-terminated.
fn render(lines: &[Line]) -> String {
    lines.iter().map(|l| format!("{}\n", l.text())).collect()
}

/// The reference's input: every foreign line replaced by an unparseable
/// one, since a line in any shape its writer does not emit names no cell.
fn as_reference_sees(lines: &[Line]) -> String {
    lines
        .iter()
        .map(|l| match l {
            Line::Writer(t) => format!("{t}\n"),
            Line::Foreign(_) => "torn\n".to_string(),
        })
        .collect()
}

/// The decoders reject every foreign line, and accept a line only when
/// the reference reads the same cell from it.
fn assert_lines_agree(journal: &[Line], index: &[Line], intent: &[Line]) {
    for line in journal {
        let decoded = JournalLine::decode(line.text(), &Scope::all());
        if let Line::Foreign(t) = line {
            assert_eq!(decoded, None, "foreign journal line accepted: {t:?}");
        }
        if let Some((key, status)) = decoded {
            let reference = tree_journal(line.text());
            assert_eq!(reference.into_iter().collect::<Vec<_>>(), vec![(key, status)]);
        }
    }
    for line in index {
        let decoded = IndexLine::decode(line.text(), &Scope::all());
        if let Line::Foreign(t) = line {
            assert_eq!(decoded, None, "foreign index line accepted: {t:?}");
        }
        if let Some(key) = decoded {
            assert_eq!(tree_index(line.text()), BTreeSet::from([key]));
        }
    }
    for line in intent {
        let decoded = IntentLine::decode(line.text());
        if let Line::Foreign(t) = line {
            assert_eq!(decoded, None, "foreign intent line accepted: {t:?}");
        }
        if let Some((op, key)) = decoded {
            let (pending, torn) = tree_intents(line.text());
            assert!(!torn);
            assert_eq!(pending, BTreeMap::from([(key.hex(), op == IntentOp::End)]));
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Object {
    Whole,
    Torn,
    Absent,
}

#[test]
fn scoped_codec_replay_equals_the_json_tree_replay() {
    let dir = tmp_dir("codec-replay");
    let keys = universe();
    // The sealed object of each cell, as `Store::put` writes it.
    let entries: Vec<String> = (0..6)
        .map(|n| {
            let template = dir.join("template");
            let (key, spec) = (keys[n], spec(n as u64));
            cache::store_with(&Vfs::real(), &template, key, "v1", &spec, &Json::U64(n as u64))
                .expect("store object");
            std::fs::read_to_string(cache::entry_path(&template, key)).expect("read object")
        })
        .collect();
    quickprop::check("scoped_codec_replay", 128, |g| {
        let journal = random_log(g, &keys, journal_entry);
        let index = random_log(g, &keys, index_entry);
        let intent = random_log(g, &keys, intent_entry);
        assert_lines_agree(&journal, &index, &intent);
        let wanted: Vec<CacheKey> = keys.iter().copied().filter(|_| g.bool()).collect();
        let objects: Vec<Object> = (0..6)
            .map(|_| g.pick(&[Object::Whole, Object::Whole, Object::Torn, Object::Absent]))
            .collect();

        let root = dir.join("store");
        let _ = std::fs::remove_dir_all(&root);
        // Each object file is created whole or torn, never truncated in
        // place: on a filesystem mounted `discard` that frees blocks,
        // which costs tens of milliseconds a case.
        for (n, object) in objects.iter().enumerate() {
            let entry = &entries[n];
            let entry = match object {
                Object::Whole => &entry[..],
                Object::Torn => &entry[..entry.len() / 2],
                Object::Absent => continue,
            };
            let path = cache::entry_path(&root, keys[n]);
            std::fs::create_dir_all(path.parent().expect("shard")).expect("mkdir shard");
            std::fs::write(&path, entry).expect("write object");
        }
        let journal_file = runner::journal::journal_path(&root, "camp");
        for (path, lines) in [
            (&journal_file, &journal),
            (&index_path(&root, "camp"), &index),
            (&intent_path(&root, "camp"), &intent),
        ] {
            std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
            std::fs::write(path, render(lines)).expect("write log");
        }

        // Journal: every wanted key reads the reference's status; no
        // other key is replayed.
        let scope = Scope::of(&wanted);
        let (replayed, _) = recover(&journal_file, &scope);
        let reference = tree_journal(&as_reference_sees(&journal));
        for &key in &keys {
            let want = if wanted.contains(&key) { reference.get(&key).copied() } else { None };
            assert_eq!(replayed.status(key), want, "journal status of {}", key.hex());
        }

        // Intents: the same publishes resolved, the same torn objects
        // removed, and the log removed or kept byte for byte alike.
        let intent_text = render(&intent);
        let (pending, torn_lines) = tree_intents(&as_reference_sees(&intent));
        let unresolved: Vec<&String> =
            pending.iter().filter(|(_, resolved)| !**resolved).map(|(key, _)| key).collect();
        let removed: Vec<usize> = (0..6)
            .filter(|&n| objects[n] == Object::Torn && unresolved.contains(&&keys[n].hex()))
            .collect();
        let (store, stats) = Store::open_for(Vfs::real(), &root, "camp", "v1", &scope);
        assert_eq!(stats.intents_resolved, unresolved.len() as u64);
        assert_eq!(stats.torn_entries_removed, removed.len() as u64);
        for n in 0..6 {
            let exists = cache::entry_path(&root, keys[n]).exists();
            assert_eq!(exists, objects[n] != Object::Absent && !removed.contains(&n));
        }
        let log_after = std::fs::read_to_string(intent_path(&root, "camp")).unwrap_or_default();
        if torn_lines || !unresolved.is_empty() {
            assert_eq!(log_after, "", "a damaged or unresolved log is removed");
        } else {
            assert_eq!(log_after, intent_text, "a resolved log is kept");
        }

        // Index: a wanted key with a whole object hits as this
        // campaign's own exactly when the reference index holds it.
        let referenced = tree_index(&as_reference_sees(&index));
        for n in (0..6).filter(|&n| objects[n] == Object::Whole && wanted.contains(&keys[n])) {
            let before = store.counters();
            assert!(matches!(store.load(keys[n], &spec(n as u64)), Lookup::Hit(_)));
            let after = store.counters();
            let own = after.hits > before.hits;
            assert_eq!(own, referenced.contains(&keys[n]), "index membership of cell {n}");
            assert_eq!(own, after.dedup_hits == before.dedup_hits);
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// One random edit of `bytes`: flip, overwrite, insert, delete or
/// truncate.
fn mutate(g: &mut Gen, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        bytes.push(g.any_u64() as u8);
        return;
    }
    let at = g.usize(0..bytes.len());
    match g.below(5) {
        0 => bytes[at] ^= 1 << g.below(8),
        1 => bytes[at] = g.pick(b"{}\",:\\0aF \n\xff\xc3"),
        2 => bytes.insert(at, g.any_u64() as u8),
        3 => {
            bytes.remove(at);
        }
        _ => bytes.truncate(at),
    }
}

#[test]
fn line_decoders_never_panic_and_never_accept_what_the_reference_rejects() {
    let keys = universe();
    quickprop::check("line_decoders_fuzz", 3000, |g| {
        let line = match g.below(4) {
            0 => g.vec(0..80, |g| g.any_u64() as u8),
            1 => journal_entry(g, &keys).text().as_bytes().to_vec(),
            2 => index_entry(g, &keys).text().as_bytes().to_vec(),
            _ => intent_entry(g, &keys).text().as_bytes().to_vec(),
        };
        let mut bytes = line;
        for _ in 0..g.u64(0..4) {
            mutate(g, &mut bytes);
        }
        let text = String::from_utf8_lossy(&bytes);
        let line = Line::Writer(text.into_owned());
        assert_lines_agree(
            std::slice::from_ref(&line),
            std::slice::from_ref(&line),
            std::slice::from_ref(&line),
        );
    });
}
