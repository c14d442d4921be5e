//! Campaign start-up equivalence: the one-read journal recovery, the
//! backward torn-tail scan and the listing-typed orphan walk must give
//! exactly what the code they replaced gave. Each replaced routine is
//! kept here, frozen, as the reference: the forward tail scan, the
//! sweep-then-load journal start-up, the stat-per-entry orphan sweep and
//! fsck's own orphan walk.

use jsonio::Json;
use quickprop::Gen;
use runner::cache::{orphan_temps, sweep_stats, SweepStats};
use runner::journal::{recover, sweep_torn_tail, torn_tail_start, Journal};
use runner::store::{fsck, FindingKind};
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
    let (journal, torn) = recover(&one_pass);
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
        let (journal, torn) = recover(&path);
        assert_eq!(torn, 0);
        assert_eq!(journal.len(), 2, "the newline-less final line is still replayed");
        set_readonly(&path, false);
    }
    // A missing journal is empty.
    let (journal, torn) = recover(&dir.join("missing.jsonl"));
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
