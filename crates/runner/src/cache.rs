//! Content-hash result cache: the object layer of the shared store.
//!
//! Every completed cell is persisted as a single *sealed* line under
//! `results/cache/<xx>/<key>.json`, where `key` is a 128-bit hash of the
//! cell's full identity: code-version tag, experiment id, cell label,
//! canonical (compact) cell parameters, seed, and rep count. Any change
//! to any of those produces a different key, so stale entries are never
//! *returned* — they are simply never looked up again.
//!
//! Robustness contract: a cache entry is advisory. Entries are framed
//! with [`jsonio::checked`] checksums, and loads verify the checksum,
//! then re-verify the stored identity fields against the request; any
//! mismatch, truncation, torn write, or bit rot is a recomputable
//! [`Lookup::Corrupt`] (the cell is recomputed and the entry rewritten).
//! Corruption must never panic and never poison results — but it is
//! *counted* (see `telemetry::Progress`) so silent disk rot becomes
//! observed degradation in the run manifest.
//!
//! All disk traffic goes through a [`crate::vfs::Vfs`] handle, so the
//! durability suite can inject torn writes, ENOSPC, EIO, failed renames
//! and dropped fsyncs into exactly these paths. Writes go to a
//! per-store-unique temporary sibling (`<entry>.tmp.<pid>.<seq>`) and
//! are renamed into place; temp files stranded by a killed process are
//! removed by [`sweep_stats`] at runner startup.

use crate::vfs::Vfs;
use crate::CellSpec;
use jsonio::{checked, Json};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Schema version stamped into every entry; bump to invalidate wholesale.
/// v2: entries are checksummed `crc64:` sealed lines (PR 9) — v1 plain
/// lines fail the frame check and read as misses of a different key
/// space (the schema participates in the key), never as corruption.
pub const ENTRY_SCHEMA: u64 = 2;

/// A 128-bit content key rendered as 32 hex chars. Keys order as their
/// hex forms do, so a key-typed map iterates in file-name order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey(pub u64, pub u64);

impl CacheKey {
    /// Hex form used for file names and manifests.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }

    /// The exact inverse of [`CacheKey::hex`]: 32 lowercase hex digits,
    /// else `None`. A string `hex` could not have written never names a
    /// key, so replaying a log through this drops nothing a lookup by
    /// `hex()` could have found.
    pub fn from_hex(hex: &str) -> Option<CacheKey> {
        fn lane(digits: &[u8]) -> Option<u64> {
            digits.iter().try_fold(0u64, |acc, &b| {
                let d = match b {
                    b'0'..=b'9' => b - b'0',
                    b'a'..=b'f' => b - b'a' + 10,
                    _ => return None,
                };
                Some(acc << 4 | d as u64)
            })
        }
        let bytes = hex.as_bytes();
        if bytes.len() != 32 {
            return None;
        }
        Some(CacheKey(lane(&bytes[..16])?, lane(&bytes[16..])?))
    }
}

/// FNV-1a over bytes, folded through splitmix for avalanche, in two
/// independently-offset lanes. Not cryptographic — the cache is a local
/// memoization layer keyed by our own serializer's canonical output, not
/// a defense against adversaries.
fn hash_lane(bytes: &[u8], offset: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ offset;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Compute the content key of a cell under a code-version tag.
pub fn cell_key(code_version: &str, spec: &CellSpec) -> CacheKey {
    let identity = Json::obj(vec![
        ("schema", Json::U64(ENTRY_SCHEMA)),
        ("code", Json::Str(code_version.to_string())),
        ("experiment", Json::Str(spec.experiment.clone())),
        ("cell", Json::Str(spec.cell.clone())),
        ("params", spec.params.clone()),
        ("seed", Json::U64(spec.seed)),
        ("reps", Json::U64(spec.reps as u64)),
    ])
    .to_string();
    CacheKey(hash_lane(identity.as_bytes(), 0), hash_lane(identity.as_bytes(), 0x9E37_79B9))
}

/// Path of the entry for `key` under the cache root (two-hex-char shard
/// directories keep any single directory small).
pub fn entry_path(dir: &Path, key: CacheKey) -> PathBuf {
    let hex = key.hex();
    dir.join(&hex[..2]).join(format!("{hex}.json"))
}

/// The outcome of a cache lookup.
#[derive(Clone, Debug, PartialEq)]
pub enum Lookup {
    /// Entry present and verified; the payload is trustworthy.
    Hit(Json),
    /// No entry on disk — the ordinary cold miss.
    Miss,
    /// An entry exists but is unreadable, torn, or fails the checksum or
    /// identity checks. Callers recompute (exactly like a miss) and
    /// count the corruption so it surfaces in the run manifest.
    Corrupt,
}

/// Verify a sealed entry's identity fields against a request and extract
/// the payload. Shared by [`load_with`] and the store's intent recovery.
pub(crate) fn verify_entry(
    entry: &Json,
    key: CacheKey,
    code_version: &str,
    spec: &CellSpec,
) -> Option<Json> {
    let matches = entry.get("schema").and_then(Json::as_u64) == Some(ENTRY_SCHEMA)
        && entry.get("key").and_then(Json::as_str) == Some(key.hex().as_str())
        && entry.get("code").and_then(Json::as_str) == Some(code_version)
        && entry.get("experiment").and_then(Json::as_str) == Some(spec.experiment.as_str())
        && entry.get("cell").and_then(Json::as_str) == Some(spec.cell.as_str())
        && entry.get("params") == Some(&spec.params)
        && entry.get("seed").and_then(Json::as_u64) == Some(spec.seed)
        && entry.get("reps").and_then(Json::as_u64) == Some(spec.reps as u64);
    if !matches {
        return None;
    }
    entry.get("payload").cloned()
}

/// Try to load a cached payload through a (fault-injectable) filesystem
/// handle. Never panics: a missing entry is [`Lookup::Miss`], and any
/// form of corruption (unreadable file, broken checksum frame, bad JSON,
/// wrong schema/key/identity) is [`Lookup::Corrupt`].
pub fn load_with(
    vfs: &Vfs,
    dir: &Path,
    key: CacheKey,
    code_version: &str,
    spec: &CellSpec,
) -> Lookup {
    let text = match vfs.read_to_string(&entry_path(dir, key)) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Lookup::Miss,
        Err(_) => return Lookup::Corrupt,
    };
    let Ok(entry) = checked::unseal(&text) else { return Lookup::Corrupt };
    match verify_entry(&entry, key, code_version, spec) {
        Some(payload) => Lookup::Hit(payload),
        None => Lookup::Corrupt,
    }
}

/// The file-name stem of a campaign label, shared by every per-label
/// file: journal, lock, index, intent log and manifest. Bytes in
/// `[A-Za-z0-9_-]` pass through unchanged; every other byte becomes
/// `%XX` (uppercase hex). `%` is itself escaped, so distinct labels never
/// share a file, and no stem contains a `.`, so none carries the `.tmp.`
/// marker the orphan sweep removes.
pub fn label_stem(label: &str) -> String {
    use std::fmt::Write;
    let mut stem = String::with_capacity(label.len());
    for b in label.bytes() {
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' {
            stem.push(b as char);
        } else {
            let _ = write!(stem, "%{b:02X}");
        }
    }
    stem
}

/// Monotonic discriminator folded into temp-file names so concurrent
/// stores (even of the identical key) never share a temp sibling.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique temporary sibling of `path`: `<name>.tmp.<pid>.<seq>`. The
/// `.tmp.` infix is the marker the orphan sweep looks for.
pub(crate) fn unique_tmp(path: &Path) -> PathBuf {
    let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    path.with_file_name(format!(
        "{name}.tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Render the sealed entry line for a cell (checksum frame + compact
/// JSON + newline) — what [`store_with`] writes and fsck re-verifies.
pub(crate) fn entry_line(
    key: CacheKey,
    code_version: &str,
    spec: &CellSpec,
    payload: &Json,
) -> String {
    let entry = Json::obj(vec![
        ("schema", Json::U64(ENTRY_SCHEMA)),
        ("key", Json::Str(key.hex())),
        ("code", Json::Str(code_version.to_string())),
        ("experiment", Json::Str(spec.experiment.clone())),
        ("cell", Json::Str(spec.cell.clone())),
        ("params", spec.params.clone()),
        ("seed", Json::U64(spec.seed)),
        ("reps", Json::U64(spec.reps as u64)),
        ("payload", payload.clone()),
    ]);
    let mut line = checked::seal(&entry);
    line.push('\n');
    line
}

/// Persist a payload through a (fault-injectable) filesystem handle.
/// Written to a per-store-unique temporary sibling then renamed, so a
/// concurrent reader never observes a half-written entry and racing
/// writers never tear each other's temp file. The cache stays an
/// optimization — callers treat an `Err` as degradation to *count*,
/// never as a reason to abort the run.
pub fn store_with(
    vfs: &Vfs,
    dir: &Path,
    key: CacheKey,
    code_version: &str,
    spec: &CellSpec,
    payload: &Json,
) -> std::io::Result<()> {
    vfs.write_atomic(&entry_path(dir, key), &entry_line(key, code_version, spec, payload))
}

/// Where the orphan sweep found stranded `*.tmp.*` files, by storage
/// area. The split feeds telemetry: a journal-area orphan means a
/// campaign died mid-append, which is worth distinguishing from a torn
/// cache store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Temp files swept from cache shard directories (and the root).
    pub cache_tmp: u64,
    /// Temp files swept from `journal/` (journals, locks, indexes).
    pub journal_tmp: u64,
    /// Temp files swept from `manifests/`.
    pub manifest_tmp: u64,
}

impl SweepStats {
    /// Total files swept across all areas.
    pub fn total(&self) -> u64 {
        self.cache_tmp + self.journal_tmp + self.manifest_tmp
    }
}

/// The storage area a stranded temp file belongs to, named after the
/// [`SweepStats`] counter it feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Area {
    /// The root itself and every object shard directory.
    Cache,
    /// `journal/`, `index/` and `intent/`.
    Journal,
    /// `manifests/`.
    Manifest,
}

/// Whether a directory entry is a directory, taken from the listing
/// itself (`d_type` on Linux) so the walk issues no stat per entry. A
/// symlink, or an entry whose type the filesystem does not report, falls
/// back to `Path::is_dir`, which follows the link.
fn entry_is_dir(entry: &std::fs::DirEntry) -> bool {
    match entry.file_type() {
        Ok(kind) if !kind.is_symlink() => kind.is_dir(),
        _ => entry.path().is_dir(),
    }
}

fn is_tmp_name(entry: &std::fs::DirEntry) -> bool {
    entry.file_name().to_string_lossy().contains(".tmp.")
}

/// Every stranded `*.tmp.*` file under the store root, by area, sorted
/// by path: the root's own files, then the files (never directories) of
/// each subdirectory one level down — the object shards, the
/// bookkeeping directories (`journal/`, `index/`, `intent/`) and
/// `manifests/`. The store never nests deeper. An unreadable directory
/// contributes nothing. The start-up sweep removes what this lists and
/// fsck reports it.
pub fn orphan_temps(root: &Path) -> Vec<(Area, PathBuf)> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(root) else { return found };
    for entry in entries.flatten() {
        if !entry_is_dir(&entry) {
            if is_tmp_name(&entry) {
                found.push((Area::Cache, entry.path()));
            }
            continue;
        }
        let area = match entry.file_name().to_string_lossy().as_ref() {
            "journal" | "index" | "intent" => Area::Journal,
            "manifests" => Area::Manifest,
            _ => Area::Cache,
        };
        let Ok(files) = std::fs::read_dir(entry.path()) else { continue };
        for file in files.flatten() {
            if is_tmp_name(&file) && !entry_is_dir(&file) {
                found.push((area, file.path()));
            }
        }
    }
    found.sort_by(|a, b| a.1.cmp(&b.1));
    found
}

/// Remove the stale `*.tmp.*` siblings stranded by a process killed
/// between temp write and rename (see [`orphan_temps`] for where they
/// are looked for), counting each removal by area. Sweeping is
/// best-effort: a file that cannot be removed is not counted.
pub fn sweep_stats(dir: &Path) -> SweepStats {
    let mut stats = SweepStats::default();
    for (area, path) in orphan_temps(dir) {
        if std::fs::remove_file(&path).is_err() {
            continue;
        }
        match area {
            Area::Cache => stats.cache_tmp += 1,
            Area::Journal => stats.journal_tmp += 1,
            Area::Manifest => stats.manifest_tmp += 1,
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CellSpec {
        CellSpec {
            experiment: "table2".into(),
            cell: "A-n1-r1".into(),
            params: Json::obj(vec![("nodes", Json::U64(1))]),
            seed: 20160816,
            reps: 6,
        }
    }

    #[test]
    fn key_depends_on_every_identity_component() {
        let base = cell_key("v1", &spec());
        assert_eq!(base, cell_key("v1", &spec()), "key must be stable");
        let mut s = spec();
        s.seed += 1;
        assert_ne!(base, cell_key("v1", &s), "seed must change the key");
        let mut s = spec();
        s.reps = 2;
        assert_ne!(base, cell_key("v1", &s), "reps must change the key");
        let mut s = spec();
        s.cell = "A-n2-r1".into();
        assert_ne!(base, cell_key("v1", &s), "cell must change the key");
        let mut s = spec();
        s.experiment = "table3".into();
        assert_ne!(base, cell_key("v1", &s), "experiment must change the key");
        let mut s = spec();
        s.params = Json::obj(vec![("nodes", Json::U64(2))]);
        assert_ne!(base, cell_key("v1", &s), "params must change the key");
        assert_ne!(base, cell_key("v2", &spec()), "code version must change the key");
    }

    #[test]
    fn from_hex_inverts_hex_and_rejects_everything_else() {
        quickprop::check("cache_key_from_hex", 512, |g| {
            let key = CacheKey(g.any_u64(), g.any_u64());
            assert_eq!(CacheKey::from_hex(&key.hex()), Some(key));
            // Ordering agrees with the hex forms it replaces as map keys.
            let other = CacheKey(g.any_u64() >> g.below(64), g.any_u64());
            assert_eq!(key.cmp(&other), key.hex().cmp(&other.hex()));
        });
        let hex = CacheKey(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210).hex();
        assert_eq!(
            CacheKey::from_hex(&hex),
            Some(CacheKey(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210))
        );
        assert_eq!(CacheKey::from_hex(&hex.to_uppercase()), None, "uppercase");
        assert_eq!(CacheKey::from_hex(&hex[..31]), None, "31 digits");
        assert_eq!(CacheKey::from_hex(&format!("{hex}0")), None, "33 digits");
        for bad in ['g', 'G', 'x', ' ', '-', '+'] {
            let mut s = hex[..31].to_string();
            s.push(bad);
            assert_eq!(CacheKey::from_hex(&s), None, "non-hex {bad:?}");
        }
        assert_eq!(CacheKey::from_hex(""), None);
    }

    #[test]
    fn entry_paths_shard_by_prefix() {
        let key = CacheKey(0xAB00_0000_0000_0001, 2);
        let p = entry_path(Path::new("cache"), key);
        assert_eq!(p, Path::new("cache").join("ab").join("ab000000000000010000000000000002.json"));
    }

    #[test]
    fn entries_are_sealed_and_torn_bytes_read_as_corrupt() {
        let dir = std::env::temp_dir().join(format!("smi-lab-cache-seal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = cell_key("v1", &spec());
        store_with(&Vfs::real(), &dir, key, "v1", &spec(), &Json::U64(42)).expect("store");
        let path = entry_path(&dir, key);
        let text = std::fs::read_to_string(&path).expect("read entry");
        assert!(text.starts_with("crc64:"), "entries are checksum-framed: {text:?}");
        assert_eq!(load_with(&Vfs::real(), &dir, key, "v1", &spec()), Lookup::Hit(Json::U64(42)));
        // Tear the tail off the sealed line: the checksum fails closed.
        std::fs::write(&path, &text[..text.len() / 2]).expect("tear");
        assert_eq!(load_with(&Vfs::real(), &dir, key, "v1", &spec()), Lookup::Corrupt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn label_stems_are_injective_and_never_temp_names() {
        assert_eq!(label_stem("table2"), "table2");
        assert_eq!(label_stem("x-detect_2"), "x-detect_2");
        let labels = ["a/b", "a b", "a-b", "a%2Fb", "run.tmp.1", "ü", ""];
        let stems: Vec<String> = labels.iter().map(|l| label_stem(l)).collect();
        for (i, a) in stems.iter().enumerate() {
            assert!(!a.contains('.'), "{a:?} has a dot");
            for b in &stems[i + 1..] {
                assert_ne!(a, b, "two labels share a stem");
            }
        }
        assert_eq!(label_stem("run.tmp.1"), "run%2Etmp%2E1");
    }

    #[test]
    fn sweep_classifies_areas() {
        let dir = std::env::temp_dir().join(format!("smi-lab-cache-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for sub in ["ab", "journal", "manifests", "index"] {
            std::fs::create_dir_all(dir.join(sub)).expect("mkdir");
            std::fs::write(dir.join(sub).join("x.tmp.1.0"), "torn").expect("plant");
            std::fs::write(dir.join(sub).join("keep.json"), "{}").expect("plant");
        }
        std::fs::write(dir.join("root.tmp.1.1"), "torn").expect("plant");
        let stats = sweep_stats(&dir);
        assert_eq!(
            stats,
            SweepStats { cache_tmp: 2, journal_tmp: 2, manifest_tmp: 1 },
            "one per area plus the root-level orphan"
        );
        assert_eq!(stats.total(), 5);
        assert_eq!(sweep_stats(&dir).total(), 0, "second sweep finds nothing");
        for sub in ["ab", "journal", "manifests", "index"] {
            assert!(dir.join(sub).join("keep.json").exists(), "{sub} data must survive");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
