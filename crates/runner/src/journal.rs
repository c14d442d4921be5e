//! Append-only completion journal: the crash-safe record of which cells
//! of a labelled campaign finished, and how.
//!
//! One JSONL line per recorded cell outcome under
//! `<cache_dir>/journal/<label>.jsonl`:
//!
//! ```text
//! {"schema":1,"key":"<32-hex cache key>","cell":"A-n4-r1","status":"ok","attempts":1}
//! ```
//!
//! A line is written only when it can change what replay answers: the
//! dispatcher skips the `ok` line of a cell served from the store whose
//! last line already says `ok`, so a fully cached resume leaves the file
//! byte-identical: it grows with the cells runs compute or quarantine,
//! not with the number of reruns.
//!
//! Each line is appended with a single `write_all` on an `O_APPEND`
//! handle and flushed immediately, so a SIGKILL can lose at most the
//! line being written — and [`Journal::load`] tolerates exactly that: a
//! torn or otherwise unparseable trailing fragment is skipped, never
//! fatal. The cache itself remains the source of truth for resumable
//! payloads (it is content-addressed and self-verifying); the journal is
//! the campaign-level account of progress — including *failures*, which
//! the cache by design never records — that `--resume` reporting and the
//! run manifest read back.

use crate::cache::CacheKey;
use crate::vfs::Vfs;
use jsonio::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal line schema version; bump to invalidate wholesale.
pub const JOURNAL_SCHEMA: u64 = 1;

/// Completion status of one journaled cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// The cell produced a payload (computed or loaded from cache).
    Ok,
    /// The cell exhausted its attempt budget and was quarantined.
    Failed,
    /// The cell's worker process died with the cell in flight (isolated
    /// mode). Journaled at every death so a resumed campaign knows the
    /// cell was dispatched but never finished; a later `ok` or `failed`
    /// line for the same key wins.
    Crashed,
}

impl Status {
    /// The on-disk label.
    pub fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Failed => "failed",
            Status::Crashed => "crashed",
        }
    }

    /// Parse an on-disk label.
    pub fn parse(label: &str) -> Option<Status> {
        match label {
            "ok" => Some(Status::Ok),
            "failed" => Some(Status::Failed),
            "crashed" => Some(Status::Crashed),
            _ => None,
        }
    }
}

/// Path of the journal for a run label under the cache root.
pub fn journal_path(cache_dir: &Path, label: &str) -> PathBuf {
    cache_dir.join("journal").join(format!("{}.jsonl", crate::cache::label_stem(label)))
}

/// A replayed journal: the last recorded status per cache key.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Journal {
    entries: BTreeMap<CacheKey, Status>,
}

impl Journal {
    /// Replay a journal file. A missing file is an empty journal; a line
    /// torn by a mid-write kill (or any other unparseable line) is
    /// skipped. Later lines win, so a cell that failed in one run and
    /// succeeded in a resumed run reads back as `Ok`. A line whose key is
    /// not a [`CacheKey::hex`] form names no cell and is skipped too.
    pub fn load(path: &Path) -> Journal {
        std::fs::read_to_string(path).map(|text| Journal::replay(&text)).unwrap_or_default()
    }

    fn replay(text: &str) -> Journal {
        let mut entries = BTreeMap::new();
        for line in text.lines() {
            let Ok(entry) = Json::parse(line) else { continue };
            if entry.get("schema").and_then(Json::as_u64) != Some(JOURNAL_SCHEMA) {
                continue;
            }
            let key = entry.get("key").and_then(Json::as_str).and_then(CacheKey::from_hex);
            let status = entry.get("status").and_then(Json::as_str).and_then(Status::parse);
            if let (Some(key), Some(status)) = (key, status) {
                entries.insert(key, status);
            }
        }
        Journal { entries }
    }

    /// The last recorded status of a cell, if any run journaled it.
    pub fn status(&self, key: CacheKey) -> Option<Status> {
        self.entries.get(&key).copied()
    }

    /// Number of distinct cells journaled.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Byte length of the longest prefix of `text` made of whole,
/// newline-terminated, parseable JSON lines. Everything past it is a
/// torn tail: a fragment with no newline, or a final line a fault tore
/// mid-append. Garbage lines *inside* the valid region (followed by
/// further valid lines) are the loader's tolerance problem, not a tail.
///
/// The answer is the end of the last complete line that parses, so the
/// scan runs backwards from the end and normally parses one line.
pub fn torn_tail_start(text: &str) -> usize {
    let Some(mut newline) = text.rfind('\n') else { return 0 };
    loop {
        let start = text[..newline].rfind('\n').map_or(0, |i| i + 1);
        if Json::parse(&text[start..newline]).is_ok() {
            return newline + 1;
        }
        if start == 0 {
            return 0;
        }
        newline = start - 1;
    }
}

/// Truncate the torn tail of `text`, which was just read from `path`,
/// returning the number of bytes removed: 0 when there is no tail or the
/// truncate fails.
fn trim_tail(path: &Path, text: &str) -> u64 {
    let keep = torn_tail_start(text);
    if keep == text.len() {
        return 0;
    }
    let Ok(file) = std::fs::OpenOptions::new().write(true).open(path) else { return 0 };
    if file.set_len(keep as u64).is_err() {
        return 0;
    }
    (text.len() - keep) as u64
}

/// Truncate a journal's torn tail in place, returning the number of
/// bytes removed. A missing or fully-valid file removes nothing. Called
/// by `fsck --repair`; campaign startup uses [`recover`].
pub fn sweep_torn_tail(path: &Path) -> u64 {
    std::fs::read_to_string(path).map_or(0, |text| trim_tail(path, &text))
}

/// Campaign startup in one read of the journal: truncate its torn tail
/// (as [`sweep_torn_tail`]) and replay what the file then holds (as
/// [`Journal::load`]), returning the journal and the bytes truncated.
/// When the truncate fails the whole file is replayed, tail included,
/// exactly as a load after a failed sweep would. Call with the campaign
/// lock held, so no live appender races the truncate.
pub fn recover(path: &Path) -> (Journal, u64) {
    let Ok(text) = std::fs::read_to_string(path) else { return (Journal::default(), 0) };
    let torn = trim_tail(path, &text);
    let kept = &text[..text.len() - torn as usize];
    (Journal::replay(kept), torn)
}

/// Crash-safe journal appender shared by all worker threads.
pub struct Writer {
    file: Mutex<std::fs::File>,
    path: PathBuf,
    vfs: Vfs,
}

impl Writer {
    /// Open (creating directories and the file as needed) the journal
    /// for appending, through the pass-through filesystem.
    pub fn open(path: &Path) -> std::io::Result<Writer> {
        Writer::open_with(path, Vfs::real())
    }

    /// [`Writer::open`] through an explicit filesystem handle, so the
    /// durability suite can tear journal appends.
    pub fn open_with(path: &Path, vfs: Vfs) -> std::io::Result<Writer> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Writer { file: Mutex::new(file), path: path.to_path_buf(), vfs })
    }

    /// Append one completion line and flush it. The whole line goes down
    /// in a single `write_all` on an append-mode handle, so concurrent
    /// workers never interleave bytes and a kill tears at most this one
    /// line.
    pub fn append(
        &self,
        key: CacheKey,
        cell: &str,
        status: Status,
        attempts: u32,
    ) -> std::io::Result<()> {
        let mut line = Json::obj(vec![
            ("schema", Json::U64(JOURNAL_SCHEMA)),
            ("key", Json::Str(key.hex())),
            ("cell", Json::Str(cell.to_string())),
            ("status", Json::Str(status.label().to_string())),
            ("attempts", Json::U64(attempts as u64)),
        ])
        .to_string();
        line.push('\n');
        // Recover from a poisoned lock: the journal must keep absorbing
        // completions even after some worker panicked mid-append.
        let mut file = self.file.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        self.vfs.append_line(&mut file, &self.path, &line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_journal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smi-lab-journal-test-{}-{}",
            std::process::id(),
            tag
        ));
        let _ = std::fs::remove_dir_all(&dir);
        journal_path(&dir, "camp")
    }

    fn key(n: u64) -> CacheKey {
        CacheKey(n, n.wrapping_mul(3))
    }

    #[test]
    fn round_trips_and_later_lines_win() {
        let path = tmp_journal("roundtrip");
        let w = Writer::open(&path).expect("open journal");
        w.append(key(1), "c1", Status::Failed, 3).expect("append");
        w.append(key(2), "c2", Status::Ok, 1).expect("append");
        w.append(key(1), "c1", Status::Ok, 2).expect("append");
        let j = Journal::load(&path);
        assert_eq!(j.len(), 2);
        assert_eq!(j.status(key(1)), Some(Status::Ok), "resumed success overrides failure");
        assert_eq!(j.status(key(2)), Some(Status::Ok));
        assert_eq!(j.status(key(9)), None);
        let _ = std::fs::remove_dir_all(path.parent().unwrap().parent().unwrap());
    }

    #[test]
    fn torn_tail_and_garbage_lines_are_skipped() {
        let path = tmp_journal("torn");
        let w = Writer::open(&path).expect("open journal");
        w.append(key(1), "c1", Status::Ok, 1).expect("append");
        w.append(key(2), "c2", Status::Ok, 1).expect("append");
        drop(w);
        // Simulate a SIGKILL mid-append: a torn final line with no
        // newline, preceded by an unrelated garbage line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("not json\n");
        text.push_str("{\"schema\":1,\"key\":\"00ab");
        std::fs::write(&path, text).unwrap();
        let j = Journal::load(&path);
        assert_eq!(j.len(), 2, "torn tail must not hide the intact prefix");
        assert!(!j.is_empty());
        let _ = std::fs::remove_dir_all(path.parent().unwrap().parent().unwrap());
    }

    #[test]
    fn torn_tail_sweep_truncates_to_the_valid_prefix() {
        let path = tmp_journal("sweep");
        let w = Writer::open(&path).expect("open journal");
        w.append(key(1), "c1", Status::Ok, 1).expect("append");
        w.append(key(2), "c2", Status::Ok, 1).expect("append");
        drop(w);
        let intact = std::fs::read_to_string(&path).expect("read journal");
        let fragment = "{\"schema\":1,\"key\":\"00ab";
        std::fs::write(&path, format!("{intact}{fragment}")).expect("tear");
        assert_eq!(sweep_torn_tail(&path), fragment.len() as u64);
        assert_eq!(std::fs::read_to_string(&path).expect("read journal"), intact);
        assert_eq!(sweep_torn_tail(&path), 0, "a clean journal is untouched");
        assert_eq!(sweep_torn_tail(Path::new("/nonexistent/j.jsonl")), 0);
        let _ = std::fs::remove_dir_all(path.parent().unwrap().parent().unwrap());
    }

    #[test]
    fn missing_file_is_empty() {
        let j = Journal::load(Path::new("/nonexistent/journal/x.jsonl"));
        assert!(j.is_empty());
    }

    #[test]
    fn labels_sanitize_like_manifests() {
        let p = journal_path(Path::new("cache"), "table 2/fast");
        assert_eq!(p, Path::new("cache").join("journal").join("table%202%2Ffast.jsonl"));
    }
}
