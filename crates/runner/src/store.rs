//! Shared content-addressed store: the durable layer over [`crate::cache`].
//!
//! The cache module owns the object format (sealed, checksummed entries
//! in `<root>/<xx>/<key>.json` shards); this module turns that flat
//! object space into a *shared, auditable, repairable* store:
//!
//! * **Per-campaign indexes** — `<root>/index/<label>.idx` is an
//!   append-only file of sealed `{"key":...}` lines, one per entry the
//!   campaign references. Two campaigns whose cell identities overlap
//!   share the underlying objects: the second campaign's lookups hit
//!   entries the first one computed ([`StoreCounters::dedup_hits`]
//!   proves it), and its index simply adds references. Compaction
//!   ([`compact`]) removes objects no index references.
//! * **Write-ahead intent log** — `<root>/intent/<label>.log` records a
//!   sealed `begin` line before every object publish and an `end` line
//!   after it. A crash or injected fault between the two leaves an
//!   unresolved intent; [`Store::open`] replays the log, verifies each
//!   suspect object's checksum, removes the torn ones, and removes the
//!   log — so a store is *always* either consistent or one `open` (or
//!   one `fsck --repair`) away from it. A fully resolved log proves
//!   nothing and is left in place (unlinking it would free its blocks
//!   on every open); the campaign's first [`Store::put`] empties it.
//! * **fsck** — [`fsck`] audits a whole store offline: orphaned temp
//!   files, torn or mis-keyed entries, dangling or torn index lines,
//!   unresolved intents, stale campaign locks, torn journal tails. Every
//!   finding has a machine-readable kind and a repair action; `repair`
//!   applies them in dependency order (objects before indexes before
//!   intents).
//!
//! All store traffic flows through the campaign's [`crate::vfs::Vfs`]
//! handle, so the durability suite can tear, starve, and fail exactly
//! these writes and assert the invariant the module exists for: a fault
//! may lose work, never corrupt it undetected.

use crate::cache::{self, CacheKey, Lookup, SweepStats};
use crate::vfs::Vfs;
use crate::CellSpec;
use jsonio::{checked, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Path of a campaign's index file under a store root.
pub fn index_path(root: &Path, label: &str) -> PathBuf {
    root.join("index").join(format!("{}.idx", cache::label_stem(label)))
}

/// Path of a campaign's write-ahead intent log under a store root.
pub fn intent_path(root: &Path, label: &str) -> PathBuf {
    root.join("intent").join(format!("{}.log", cache::label_stem(label)))
}

/// Entry path for a raw hex key (fsck and compaction work from index
/// lines, which carry keys as hex strings, not [`CacheKey`]s).
fn entry_path_hex(root: &Path, hex: &str) -> Option<PathBuf> {
    if hex.len() != 32 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    Some(root.join(&hex[..2]).join(format!("{hex}.json")))
}

/// What [`Store::open`] found and fixed while bringing the store to a
/// consistent state for this campaign.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpenStats {
    /// Stranded temp files swept, by area.
    pub sweep: SweepStats,
    /// Unresolved write intents replayed from the campaign's log.
    pub intents_resolved: u64,
    /// Objects a replayed intent proved torn, now removed.
    pub torn_entries_removed: u64,
}

/// Monotonic counters a store accumulates over one campaign.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Verified lookups of entries this campaign already referenced
    /// (its own prior runs — the resume path).
    pub hits: u64,
    /// Verified lookups of entries some *other* campaign computed:
    /// cross-campaign dedup, the shared-store payoff.
    pub dedup_hits: u64,
    /// Cold misses.
    pub misses: u64,
    /// Entries present but torn/corrupt (recomputed, counted).
    pub corrupt: u64,
    /// Objects published by this campaign.
    pub puts: u64,
    /// Failed index or intent bookkeeping appends. The objects
    /// themselves are fine; the reference accounting is incomplete, so
    /// these count toward degradation.
    pub index_errors: u64,
}

/// A campaign's handle on the shared store. Thread-safe: lookups and
/// publishes run concurrently from pool workers.
pub struct Store {
    root: PathBuf,
    code_version: String,
    vfs: Vfs,
    index_file: Mutex<Option<std::fs::File>>,
    index_file_path: PathBuf,
    intent_file: Mutex<Option<std::fs::File>>,
    intent_file_path: PathBuf,
    /// The intent log still holds an earlier campaign's resolved lines:
    /// the first append empties it.
    intent_stale: AtomicBool,
    index_keys: Mutex<BTreeSet<CacheKey>>,
    hits: AtomicU64,
    dedup_hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    puts: AtomicU64,
    index_errors: AtomicU64,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("root", &self.root)
            .field("code_version", &self.code_version)
            .field("counters", &self.counters())
            .finish_non_exhaustive()
    }
}

impl Store {
    /// Open the store for one campaign: sweep stranded temp files,
    /// replay the campaign's intent log (removing objects a fault tore
    /// mid-publish), load the campaign's index, and open the bookkeeping
    /// appenders. Infallible by design — on an unwritable root the store
    /// degrades to counting bookkeeping errors while lookups still work.
    ///
    /// Call only with the campaign lock held: open may remove this
    /// label's intent log, and the first put empties a kept one, neither
    /// of which may race a live writer.
    pub fn open(vfs: Vfs, root: &Path, label: &str, code_version: &str) -> (Store, OpenStats) {
        let mut stats = OpenStats { sweep: cache::sweep_stats(root), ..OpenStats::default() };

        // Replay this campaign's write-ahead intents: a `begin` with no
        // `end` means a publish was in flight when the last run died.
        // The object is either whole (the end line was the casualty) or
        // torn (the publish was) — its checksum says which.
        let intent = intent_path(root, label);
        let mut intent_stale = false;
        if let Ok(text) = std::fs::read_to_string(&intent) {
            let mut pending: BTreeMap<String, bool> = BTreeMap::new();
            let mut torn_lines = false;
            for line in text.lines() {
                let Ok(record) = checked::unseal(line) else {
                    torn_lines = true;
                    continue;
                };
                let (Some(op), Some(key)) = (
                    record.get("op").and_then(Json::as_str),
                    record.get("key").and_then(Json::as_str),
                ) else {
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
            for (key, resolved) in &pending {
                if *resolved {
                    continue;
                }
                stats.intents_resolved += 1;
                let Some(path) = entry_path_hex(root, key) else { continue };
                let torn = match std::fs::read_to_string(&path) {
                    Ok(entry) => checked::unseal(&entry).is_err(),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
                    Err(_) => true,
                };
                if torn && std::fs::remove_file(&path).is_ok() {
                    stats.torn_entries_removed += 1;
                }
            }
            // A log with damage or an unresolved intent is spent: remove
            // it, as fsck's repair would. A fully resolved one stays (an
            // unlink frees its blocks, which costs a discard per open);
            // the first put truncates it instead.
            if torn_lines || stats.intents_resolved > 0 {
                let _ = std::fs::remove_file(&intent);
            } else {
                intent_stale = !text.is_empty();
            }
        }

        // Load this campaign's index: keys referenced by prior runs.
        // Torn lines, and lines whose key no `CacheKey::hex` wrote, are
        // skipped here (fsck reports them); the worst outcome is a
        // re-appended reference.
        let index = index_path(root, label);
        let mut keys = BTreeSet::new();
        if let Ok(text) = std::fs::read_to_string(&index) {
            for line in text.lines() {
                let Ok(record) = checked::unseal(line) else { continue };
                let key = record.get("key").and_then(Json::as_str).and_then(CacheKey::from_hex);
                if let Some(key) = key {
                    keys.insert(key);
                }
            }
        }

        let append = |path: &Path| -> Option<std::fs::File> {
            let parent = path.parent()?;
            std::fs::create_dir_all(parent).ok()?;
            std::fs::OpenOptions::new().create(true).append(true).open(path).ok()
        };
        let store = Store {
            root: root.to_path_buf(),
            code_version: code_version.to_string(),
            vfs,
            index_file: Mutex::new(append(&index)),
            index_file_path: index,
            intent_file: Mutex::new(append(&intent)),
            intent_file_path: intent,
            intent_stale: AtomicBool::new(intent_stale),
            index_keys: Mutex::new(keys),
            hits: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            index_errors: AtomicU64::new(0),
        };
        (store, stats)
    }

    /// Snapshot the campaign's store counters.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Acquire),
            dedup_hits: self.dedup_hits.load(Ordering::Acquire),
            misses: self.misses.load(Ordering::Acquire),
            corrupt: self.corrupt.load(Ordering::Acquire),
            puts: self.puts.load(Ordering::Acquire),
            index_errors: self.index_errors.load(Ordering::Acquire),
        }
    }

    /// Append one sealed bookkeeping line, counting (never propagating)
    /// failures: bookkeeping is an accounting layer over objects that
    /// are already durable on their own. When `stale` is set, the file
    /// is emptied first, under the same lock as the append.
    fn append_sealed(
        &self,
        file: &Mutex<Option<std::fs::File>>,
        tag: &Path,
        record: &Json,
        stale: Option<&AtomicBool>,
    ) -> bool {
        let mut line = checked::seal(record);
        line.push('\n');
        let mut guard = crate::dispatch::lock_clean(file);
        let Some(handle) = guard.as_mut() else {
            self.index_errors.fetch_add(1, Ordering::AcqRel);
            return false;
        };
        if stale.is_some_and(|s| s.swap(false, Ordering::AcqRel)) {
            // A failed truncate leaves resolved lines ahead of ours,
            // which replay exactly as before.
            let _ = handle.set_len(0);
        }
        if self.vfs.append_line(handle, tag, &line).is_err() {
            self.index_errors.fetch_add(1, Ordering::AcqRel);
            return false;
        }
        true
    }

    /// Record that this campaign references `key`, appending an index
    /// line the first time.
    fn add_ref(&self, key: CacheKey) {
        if !crate::dispatch::lock_clean(&self.index_keys).insert(key) {
            return;
        }
        let record = Json::obj(vec![("key", Json::Str(key.hex()))]);
        self.append_sealed(&self.index_file, &self.index_file_path, &record, None);
    }

    fn intent(&self, op: &str, key: CacheKey) {
        let record =
            Json::obj(vec![("op", Json::Str(op.to_string())), ("key", Json::Str(key.hex()))]);
        self.append_sealed(
            &self.intent_file,
            &self.intent_file_path,
            &record,
            Some(&self.intent_stale),
        );
    }

    /// Look up a cell. Hits are classified: a key this campaign already
    /// referenced is a plain hit (the resume path); a key it never
    /// referenced is a cross-campaign dedup hit, and gains a reference.
    pub fn load(&self, key: CacheKey, spec: &CellSpec) -> Lookup {
        let result = cache::load_with(&self.vfs, &self.root, key, &self.code_version, spec);
        match &result {
            Lookup::Hit(_) => {
                let known = crate::dispatch::lock_clean(&self.index_keys).contains(&key);
                if known {
                    self.hits.fetch_add(1, Ordering::AcqRel);
                } else {
                    self.dedup_hits.fetch_add(1, Ordering::AcqRel);
                    self.add_ref(key);
                }
            }
            Lookup::Miss => {
                self.misses.fetch_add(1, Ordering::AcqRel);
            }
            Lookup::Corrupt => {
                self.corrupt.fetch_add(1, Ordering::AcqRel);
            }
        }
        result
    }

    /// Publish a computed payload: intent `begin`, atomic object write,
    /// intent `end`, index reference. An `Err` means the object did not
    /// (verifiably) land — the caller counts it as a store error; the
    /// unresolved intent makes the next open re-verify the suspect key.
    /// The campaign's first `begin` empties a log that `open` kept, so
    /// the log holds only this campaign's lines.
    pub fn put(&self, key: CacheKey, spec: &CellSpec, payload: &Json) -> std::io::Result<()> {
        self.intent("begin", key);
        cache::store_with(&self.vfs, &self.root, key, &self.code_version, spec, payload)?;
        self.puts.fetch_add(1, Ordering::AcqRel);
        self.intent("end", key);
        self.add_ref(key);
        Ok(())
    }
}

/// What one compaction pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Index files consulted.
    pub index_files: u64,
    /// Distinct referenced keys across all indexes.
    pub referenced: u64,
    /// Unreferenced objects removed.
    pub removed: u64,
    /// Objects kept (referenced by at least one index).
    pub kept: u64,
}

/// Remove every object no campaign index references. Offline-only: run
/// it while no campaign is live on this root (fsck's `--compact` does).
/// Torn index lines make their key *unreferenced* only if no intact line
/// elsewhere claims it — repair indexes first (`fsck --repair`).
pub fn compact(root: &Path, vfs: &Vfs) -> CompactStats {
    let mut stats = CompactStats::default();
    let mut referenced = BTreeSet::new();
    if let Ok(entries) = std::fs::read_dir(root.join("index")) {
        for entry in entries.flatten() {
            let Ok(text) = std::fs::read_to_string(entry.path()) else { continue };
            stats.index_files += 1;
            for line in text.lines() {
                let Ok(record) = checked::unseal(line) else { continue };
                if let Some(key) = record.get("key").and_then(Json::as_str) {
                    referenced.insert(key.to_string());
                }
            }
        }
    }
    stats.referenced = referenced.len() as u64;
    for (path, stem) in shard_objects(root) {
        if referenced.contains(&stem) {
            stats.kept += 1;
        } else if vfs.remove_file(&path).is_ok() {
            stats.removed += 1;
        }
    }
    stats
}

/// Every object file in the store's two-hex-char shard directories, as
/// `(path, key-hex)` pairs, in deterministic order.
fn shard_objects(root: &Path) -> Vec<(PathBuf, String)> {
    let mut objects = Vec::new();
    let Ok(entries) = std::fs::read_dir(root) else { return objects };
    let mut shards: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.is_dir()
                && p.file_name().is_some_and(|n| {
                    let n = n.to_string_lossy();
                    n.len() == 2 && n.bytes().all(|b| b.is_ascii_hexdigit())
                })
        })
        .collect();
    shards.sort();
    for shard in shards {
        let Ok(files) = std::fs::read_dir(&shard) else { continue };
        let mut paths: Vec<PathBuf> = files.flatten().map(|e| e.path()).collect();
        paths.sort();
        for path in paths {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            let Some(name) = name else { continue };
            if name.contains(".tmp.") {
                continue;
            }
            let Some(stem) = name.strip_suffix(".json") else { continue };
            objects.push((path.clone(), stem.to_string()));
        }
    }
    objects
}

/// The machine-readable classes of store damage fsck can find.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// A stranded `*.tmp.*` file (killed mid-publish).
    OrphanTmp,
    /// An object whose sealed frame or checksum fails: torn write,
    /// truncation, or bit rot.
    TornEntry,
    /// An object whose checksum verifies but whose recorded key does not
    /// match its file name: a misfiled or forged entry.
    IdentityMismatch,
    /// An index line referencing an object that does not exist.
    DanglingIndexRef,
    /// An index line whose own frame or checksum fails.
    TornIndexLine,
    /// A write intent with a `begin` but no `end`: a publish was in
    /// flight when its campaign died.
    UnresolvedIntent,
    /// An intent line whose own frame or checksum fails.
    TornIntentLine,
    /// A campaign lock whose holder is dead (or torn).
    StaleLock,
    /// A journal whose tail is a torn fragment.
    TornJournalTail,
}

impl FindingKind {
    /// The stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::OrphanTmp => "orphan-tmp",
            FindingKind::TornEntry => "torn-entry",
            FindingKind::IdentityMismatch => "identity-mismatch",
            FindingKind::DanglingIndexRef => "dangling-index-ref",
            FindingKind::TornIndexLine => "torn-index-line",
            FindingKind::UnresolvedIntent => "unresolved-intent",
            FindingKind::TornIntentLine => "torn-intent-line",
            FindingKind::StaleLock => "stale-lock",
            FindingKind::TornJournalTail => "torn-journal-tail",
        }
    }
}

/// One piece of store damage: what, where, and the detail an operator
/// (or the CI gate) needs to audit it.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Damage class.
    pub kind: FindingKind,
    /// Path of the damaged file, relative to the store root.
    pub path: String,
    /// Human-oriented specifics (key, byte counts, holder pid...).
    pub detail: String,
}

/// The result of one fsck pass.
#[derive(Clone, Debug, Default)]
pub struct FsckReport {
    /// Everything found, in scan order (orphan temps in path order,
    /// then objects, indexes, intents, locks, journals).
    pub findings: Vec<Finding>,
    /// Repairs applied (0 on audit-only passes).
    pub repaired: u64,
}

impl FsckReport {
    /// A store with no findings is Clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Machine-readable form for `smi-lab fsck --format json`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("clean", Json::Bool(self.is_clean())),
            ("repaired", Json::U64(self.repaired)),
            (
                "findings",
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|f| {
                            Json::obj(vec![
                                ("kind", Json::Str(f.kind.label().to_string())),
                                ("path", Json::Str(f.path.clone())),
                                ("detail", Json::Str(f.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().into_owned()
}

/// Audit a store; with `repair`, also fix everything found, in
/// dependency order (objects first, then the indexes that reference
/// them, then intents, locks, and journal tails). Run offline: a live
/// campaign's lock would be reported — and must not be broken while its
/// holder runs, which is why only *stale* locks are findings. After a
/// repair pass, a fresh audit of an undisturbed store reports Clean.
pub fn fsck(root: &Path, repair: bool) -> FsckReport {
    let mut report = FsckReport::default();
    fn fix(applied: bool, report: &mut FsckReport) {
        if applied {
            report.repaired += 1;
        }
    }

    // Orphaned temp files, everywhere the start-up sweep looks.
    for (_, path) in cache::orphan_temps(root) {
        report.findings.push(Finding {
            kind: FindingKind::OrphanTmp,
            path: rel(root, &path),
            detail: "stranded temp file from an interrupted publish".to_string(),
        });
        if repair {
            fix(std::fs::remove_file(&path).is_ok(), &mut report);
        }
    }

    // Objects: checksum and key-vs-filename verification.
    let mut existing = BTreeSet::new();
    for (path, stem) in shard_objects(root) {
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        match checked::unseal(&text) {
            Err(e) => {
                report.findings.push(Finding {
                    kind: FindingKind::TornEntry,
                    path: rel(root, &path),
                    detail: format!("{e}"),
                });
                if repair {
                    fix(std::fs::remove_file(&path).is_ok(), &mut report);
                }
            }
            Ok(entry) => {
                let recorded = entry.get("key").and_then(Json::as_str).unwrap_or("");
                if recorded != stem {
                    report.findings.push(Finding {
                        kind: FindingKind::IdentityMismatch,
                        path: rel(root, &path),
                        detail: format!("entry records key {recorded:?}"),
                    });
                    if repair {
                        fix(std::fs::remove_file(&path).is_ok(), &mut report);
                    }
                } else {
                    existing.insert(stem);
                }
            }
        }
    }

    // Indexes: every line must verify and point at a surviving object.
    if let Ok(entries) = std::fs::read_dir(root.join("index")) {
        let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        for path in paths {
            let Ok(text) = std::fs::read_to_string(&path) else { continue };
            let mut valid_lines = Vec::new();
            let mut damaged = false;
            for line in text.lines() {
                match checked::unseal(line) {
                    Err(e) => {
                        damaged = true;
                        report.findings.push(Finding {
                            kind: FindingKind::TornIndexLine,
                            path: rel(root, &path),
                            detail: format!("{e}"),
                        });
                    }
                    Ok(record) => {
                        let key =
                            record.get("key").and_then(Json::as_str).unwrap_or("").to_string();
                        if existing.contains(&key) {
                            valid_lines.push(line.to_string());
                        } else {
                            damaged = true;
                            report.findings.push(Finding {
                                kind: FindingKind::DanglingIndexRef,
                                path: rel(root, &path),
                                detail: format!("references missing object {key}"),
                            });
                        }
                    }
                }
            }
            if repair && damaged {
                let mut rebuilt = valid_lines.join("\n");
                if !rebuilt.is_empty() {
                    rebuilt.push('\n');
                }
                fix(Vfs::real().write_atomic(&path, &rebuilt).is_ok(), &mut report);
            }
        }
    }

    // Intents: unresolved begins and torn lines. Repair removes the log
    // wholesale — the objects were verified above, so nothing is left
    // for the intents to prove.
    if let Ok(entries) = std::fs::read_dir(root.join("intent")) {
        let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        for path in paths {
            let Ok(text) = std::fs::read_to_string(&path) else { continue };
            let mut pending: BTreeMap<String, bool> = BTreeMap::new();
            let mut damaged = false;
            for line in text.lines() {
                match checked::unseal(line) {
                    Err(e) => {
                        damaged = true;
                        report.findings.push(Finding {
                            kind: FindingKind::TornIntentLine,
                            path: rel(root, &path),
                            detail: format!("{e}"),
                        });
                    }
                    Ok(record) => {
                        let key = record.get("key").and_then(Json::as_str).unwrap_or("");
                        match record.get("op").and_then(Json::as_str) {
                            Some("begin") => {
                                pending.insert(key.to_string(), false);
                            }
                            Some("end") => {
                                pending.insert(key.to_string(), true);
                            }
                            _ => {}
                        }
                    }
                }
            }
            for (key, resolved) in &pending {
                if !resolved {
                    damaged = true;
                    report.findings.push(Finding {
                        kind: FindingKind::UnresolvedIntent,
                        path: rel(root, &path),
                        detail: format!("publish of {key} never confirmed"),
                    });
                }
            }
            if repair && damaged {
                fix(std::fs::remove_file(&path).is_ok(), &mut report);
            } else if repair && !text.is_empty() {
                // A fully-resolved log is not damage, but clearing it
                // keeps audits quiet and replays cheap.
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    // Stale campaign locks and torn journal tails.
    if let Ok(entries) = std::fs::read_dir(root.join("journal")) {
        let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        for path in paths {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            let Some(name) = name else { continue };
            if name.contains(".tmp.") {
                continue; // already reported as an orphan
            }
            if name.ends_with(".lock") {
                if crate::lockfile::is_stale_lock_file(&path) {
                    let holder = std::fs::read_to_string(&path).unwrap_or_default();
                    report.findings.push(Finding {
                        kind: FindingKind::StaleLock,
                        path: rel(root, &path),
                        detail: format!("dead holder pid {:?}", holder.trim()),
                    });
                    if repair {
                        fix(std::fs::remove_file(&path).is_ok(), &mut report);
                    }
                }
            } else if name.ends_with(".jsonl") {
                let Ok(text) = std::fs::read_to_string(&path) else { continue };
                let keep = crate::journal::torn_tail_start(&text);
                if keep < text.len() {
                    report.findings.push(Finding {
                        kind: FindingKind::TornJournalTail,
                        path: rel(root, &path),
                        detail: format!("{} torn trailing bytes", text.len() - keep),
                    });
                    if repair {
                        fix(crate::journal::sweep_torn_tail(&path) > 0, &mut report);
                    }
                }
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("smi-lab-store-test-{}-{}", std::process::id(), tag));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp root");
        dir
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

    #[test]
    fn two_campaigns_share_objects_and_count_dedup() {
        let root = tmp_root("dedup");
        let (alpha, _) = Store::open(Vfs::real(), &root, "alpha", "v1");
        for n in 0..4 {
            let key = cache::cell_key("v1", &spec(n));
            assert_eq!(alpha.load(key, &spec(n)), Lookup::Miss);
            alpha.put(key, &spec(n), &Json::U64(n)).expect("put");
        }
        assert_eq!(alpha.counters().misses, 4);
        assert_eq!(alpha.counters().puts, 4);

        // A second campaign overlapping on cells 2..4 hits alpha's
        // objects without recomputing: the shared-store dedup payoff.
        let (beta, _) = Store::open(Vfs::real(), &root, "beta", "v1");
        for n in 2..6 {
            let key = cache::cell_key("v1", &spec(n));
            match beta.load(key, &spec(n)) {
                Lookup::Hit(payload) => assert_eq!(payload, Json::U64(n)),
                other => {
                    assert!(n >= 4, "cell {n} must dedup-hit, got {other:?}");
                    beta.put(key, &spec(n), &Json::U64(n)).expect("put");
                }
            }
        }
        let counters = beta.counters();
        assert_eq!(counters.dedup_hits, 2, "overlap cells computed exactly once ever");
        assert_eq!(counters.hits, 0);
        assert_eq!(counters.puts, 2);
        assert_eq!(counters.index_errors, 0);

        // Beta's *own* rerun sees plain hits, not dedup hits.
        let (beta2, _) = Store::open(Vfs::real(), &root, "beta", "v1");
        for n in 2..6 {
            let key = cache::cell_key("v1", &spec(n));
            assert!(matches!(beta2.load(key, &spec(n)), Lookup::Hit(_)));
        }
        assert_eq!(beta2.counters().hits, 4, "resume hits are local, not dedup");
        assert_eq!(beta2.counters().dedup_hits, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unresolved_intent_removes_torn_object_and_keeps_whole_one() {
        let root = tmp_root("intent");
        let whole = cache::cell_key("v1", &spec(1));
        let torn = cache::cell_key("v1", &spec(2));
        {
            let (store, _) = Store::open(Vfs::real(), &root, "camp", "v1");
            store.put(whole, &spec(1), &Json::U64(1)).expect("put");
            store.put(torn, &spec(2), &Json::U64(2)).expect("put");
        }
        // Forge the crash window: both keys get a begin-with-no-end, and
        // the second object is physically torn.
        let log = intent_path(&root, "camp");
        let mut text = String::new();
        for key in [whole, torn] {
            let begin =
                Json::obj(vec![("op", Json::Str("begin".into())), ("key", Json::Str(key.hex()))]);
            text.push_str(&checked::seal(&begin));
            text.push('\n');
        }
        std::fs::write(&log, text).expect("forge intent log");
        let torn_path = cache::entry_path(&root, torn);
        let entry = std::fs::read_to_string(&torn_path).expect("read entry");
        std::fs::write(&torn_path, &entry[..entry.len() / 2]).expect("tear entry");

        let (store, stats) = Store::open(Vfs::real(), &root, "camp", "v1");
        assert_eq!(stats.intents_resolved, 2);
        assert_eq!(stats.torn_entries_removed, 1);
        assert!(matches!(store.load(whole, &spec(1)), Lookup::Hit(_)), "whole object survives");
        assert_eq!(store.load(torn, &spec(2)), Lookup::Miss, "torn object removed, clean miss");
        assert!(!log.exists() || std::fs::read_to_string(&log).expect("log").is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn compact_reclaims_unreferenced_objects_only() {
        let root = tmp_root("compact");
        let (store, _) = Store::open(Vfs::real(), &root, "camp", "v1");
        let kept = cache::cell_key("v1", &spec(1));
        store.put(kept, &spec(1), &Json::U64(1)).expect("put");
        drop(store);
        // An object nobody references (e.g. left by a campaign whose
        // index was deleted).
        let stray = cache::cell_key("v1", &spec(9));
        cache::store_with(&Vfs::real(), &root, stray, "v1", &spec(9), &Json::U64(9))
            .expect("stray store");

        let stats = compact(&root, &Vfs::real());
        assert_eq!(stats, CompactStats { index_files: 1, referenced: 1, removed: 1, kept: 1 });
        assert!(cache::entry_path(&root, kept).exists());
        assert!(!cache::entry_path(&root, stray).exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fsck_finds_and_repairs_every_planted_damage_class() {
        let root = tmp_root("fsck");
        let (store, _) = Store::open(Vfs::real(), &root, "camp", "v1");
        let good = cache::cell_key("v1", &spec(1));
        let victim = cache::cell_key("v1", &spec(2));
        store.put(good, &spec(1), &Json::U64(1)).expect("put");
        store.put(victim, &spec(2), &Json::U64(2)).expect("put");
        drop(store);
        let _ = std::fs::remove_file(intent_path(&root, "camp"));

        // Plant one instance of each damage class.
        let victim_path = cache::entry_path(&root, victim);
        let entry = std::fs::read_to_string(&victim_path).expect("read");
        std::fs::write(&victim_path, &entry[..entry.len() / 2]).expect("torn entry");
        std::fs::create_dir_all(root.join("ab")).expect("mkdir shard");
        std::fs::write(root.join("ab").join("junk.json.tmp.1.0"), "x").expect("orphan tmp");
        let misfiled = cache::entry_path(&root, cache::cell_key("v1", &spec(3)));
        std::fs::create_dir_all(misfiled.parent().expect("parent")).expect("mkdir");
        std::fs::write(&misfiled, cache::entry_line(good, "v1", &spec(1), &Json::U64(1)))
            .expect("identity mismatch");
        let idx = index_path(&root, "camp");
        let mut idx_text = std::fs::read_to_string(&idx).expect("read index");
        idx_text.push_str("crc64:torn-index-line\n");
        std::fs::write(&idx, idx_text).expect("torn index line");
        let begin =
            Json::obj(vec![("op", Json::Str("begin".into())), ("key", Json::Str(victim.hex()))]);
        std::fs::write(intent_path(&root, "ghost"), format!("{}\n", checked::seal(&begin)))
            .expect("unresolved intent");
        std::fs::create_dir_all(root.join("journal")).expect("mkdir journal");
        std::fs::write(root.join("journal").join("dead.lock"), "4194304\n").expect("stale lock");
        std::fs::write(root.join("journal").join("camp.jsonl"), "{\"schema\":1}\n{\"torn")
            .expect("torn journal");

        let audit = fsck(&root, false);
        let kinds: BTreeSet<&str> = audit.findings.iter().map(|f| f.kind.label()).collect();
        for expected in [
            "orphan-tmp",
            "torn-entry",
            "identity-mismatch",
            "dangling-index-ref", // the torn victim entry strands its index line
            "torn-index-line",
            "unresolved-intent",
            "stale-lock",
            "torn-journal-tail",
        ] {
            assert!(kinds.contains(expected), "missing finding {expected}: {kinds:?}");
        }
        assert_eq!(audit.repaired, 0, "audit-only pass must not touch the store");
        let json = audit.to_json();
        assert_eq!(json.get("clean").and_then(Json::as_bool), Some(false));

        let repair = fsck(&root, true);
        assert!(repair.repaired > 0);
        let after = fsck(&root, false);
        assert!(after.is_clean(), "repair must restore Clean, found {:?}", after.findings);
        // The intact object and its index reference survive repair.
        assert_eq!(
            cache::load_with(&Vfs::real(), &root, good, "v1", &spec(1)),
            Lookup::Hit(Json::U64(1)),
            "repair must never harm intact data"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
