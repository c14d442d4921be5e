//! Fault-injectable filesystem layer: every byte the runner persists
//! goes through a [`Vfs`] handle, so the storage stack's crash- and
//! fault-consistency claims are *tested against injected disk faults*
//! instead of assumed.
//!
//! A [`Vfs`] is a cheap cloneable handle. The default [`Vfs::real`]
//! passes straight through to `std::fs`. [`Vfs::faulty`] wraps the same
//! operations with a seeded [`FaultPlan`] — the same deterministic
//! per-mille-draw construction as [`crate::chaos`], but over *storage
//! operations* rather than cells: every read, atomic write, append,
//! rename, and remove rolls against the plan, and an unlucky roll
//! injects one of the six fault families the durability suite must
//! survive:
//!
//! | fault        | injected as |
//! |--------------|-------------|
//! | torn write   | half the bytes land, the operation reports failure — and for atomic writes the *torn file is renamed into place*, the nastiest crash shape |
//! | short read   | the read silently returns a truncated prefix (checksums must catch it) |
//! | ENOSPC       | half the bytes land in the temp file, which is removed (a claimed spare goes back); the op errors |
//! | EIO          | the op errors with nothing written |
//! | rename fail  | the temp file is fully written, then the publish rename errors |
//! | dropped fsync| the pre-rename fsync is silently skipped (the write "succeeds") |
//!
//! There are two publish paths, and each rolls once per publish against
//! the same write lanes. [`Vfs::write_atomic`] writes a fresh temp and
//! renames it over the target, which frees the replaced file's data
//! blocks — on a filesystem mounted `discard` that is a synchronous
//! discard of tens of milliseconds. [`Vfs::replace`], for a file that is
//! rewritten in place run after run (the run manifest), recycles the
//! replaced inode as the next publish's temp and so frees no block.
//!
//! Draws are a pure function of `(plan seed, operation counter)`, so a
//! single-threaded campaign replays the identical fault sequence every
//! time; `pin=` entries force a specific fault on the next N operations
//! matching an op kind and a path substring, for surgical tests.
//! Injection is compiled unconditionally (no feature gate) because the
//! CI durability gate drives the *release* binary with `--vfs-faults`.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Storage operation classes a fault plan can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Whole-file read (`read_to_string`).
    Read,
    /// Atomic publish: temp write + fsync + rename ([`Vfs::write_atomic`]
    /// or [`Vfs::replace`]).
    Write,
    /// Append one line to an open log handle.
    Append,
    /// Standalone rename.
    Rename,
    /// File removal.
    Remove,
}

impl OpKind {
    fn parse(label: &str) -> Option<OpKind> {
        match label {
            "read" => Some(OpKind::Read),
            "write" => Some(OpKind::Write),
            "append" => Some(OpKind::Append),
            "rename" => Some(OpKind::Rename),
            "remove" => Some(OpKind::Remove),
            _ => None,
        }
    }
}

/// The injectable fault families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Half the bytes land; atomic writes still publish the torn file.
    TornWrite,
    /// Reads silently return a truncated prefix.
    ShortRead,
    /// Out of space: partial temp write, cleaned up, error returned.
    Enospc,
    /// Hard I/O error, nothing transferred.
    Eio,
    /// The temp file lands whole but the publish rename fails.
    RenameFail,
    /// The pre-rename fsync silently does not happen.
    DropFsync,
}

impl FaultKind {
    fn parse(label: &str) -> Option<FaultKind> {
        match label {
            "torn" => Some(FaultKind::TornWrite),
            "shortread" => Some(FaultKind::ShortRead),
            "enospc" => Some(FaultKind::Enospc),
            "eio" => Some(FaultKind::Eio),
            "renamefail" => Some(FaultKind::RenameFail),
            "dropfsync" => Some(FaultKind::DropFsync),
            _ => None,
        }
    }

    fn error(self) -> std::io::Error {
        match self {
            FaultKind::TornWrite => std::io::Error::other("vfs injected: torn write"),
            FaultKind::ShortRead => std::io::Error::other("vfs injected: short read"),
            FaultKind::Enospc => std::io::Error::other("vfs injected: ENOSPC"),
            FaultKind::Eio => std::io::Error::other("vfs injected: EIO"),
            FaultKind::RenameFail => std::io::Error::other("vfs injected: rename failure"),
            FaultKind::DropFsync => std::io::Error::other("vfs injected: dropped fsync"),
        }
    }
}

/// One pinned fault: force `fault` on the next `remaining` operations of
/// kind `op` whose path contains `substr`.
#[derive(Debug)]
struct Pin {
    op: OpKind,
    substr: String,
    fault: FaultKind,
    remaining: AtomicU64,
}

/// A seeded fault schedule over storage operations.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Seed mixed into every draw.
    pub seed: u64,
    /// Per-mille torn-write rate on writes and appends.
    pub torn_permille: u16,
    /// Per-mille short-read rate on reads.
    pub short_read_permille: u16,
    /// Per-mille ENOSPC rate on writes and appends.
    pub enospc_permille: u16,
    /// Per-mille EIO rate on every operation class.
    pub eio_permille: u16,
    /// Per-mille rename-failure rate on atomic writes and renames.
    pub rename_fail_permille: u16,
    /// Per-mille dropped-fsync rate on atomic writes.
    pub drop_fsync_permille: u16,
    pins: Vec<Pin>,
}

impl FaultPlan {
    /// Pin a fault: the next `count` operations of kind `op` whose path
    /// contains `substr` fail with `fault`, bypassing the random draw.
    pub fn pin(&mut self, op: OpKind, substr: &str, fault: FaultKind, count: u64) {
        self.pins.push(Pin {
            op,
            substr: substr.to_string(),
            fault,
            remaining: AtomicU64::new(count),
        });
    }

    /// Parse a CLI spec: comma-separated `key=value` pairs.
    ///
    /// ```text
    /// seed=7,torn=20,shortread=10,enospc=10,eio=5,renamefail=10,dropfsync=50
    /// pin=append:journal:enospc:2      # op : path-substring : fault [: count]
    /// ```
    ///
    /// Rates are per-mille (0..=1000). Unknown keys, bad numbers, or a
    /// malformed `pin=` entry are errors — a mistyped fault plan must
    /// never silently run fault-free.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) =
                part.split_once('=').ok_or_else(|| format!("fault spec {part:?} is not k=v"))?;
            let permille = |v: &str| -> Result<u16, String> {
                let n: u16 = v.parse().map_err(|_| format!("bad rate {v:?} in {part:?}"))?;
                if n > 1000 {
                    return Err(format!("rate {n} in {part:?} exceeds 1000 per-mille"));
                }
                Ok(n)
            };
            match key {
                "seed" => {
                    plan.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?;
                }
                "torn" => plan.torn_permille = permille(value)?,
                "shortread" => plan.short_read_permille = permille(value)?,
                "enospc" => plan.enospc_permille = permille(value)?,
                "eio" => plan.eio_permille = permille(value)?,
                "renamefail" => plan.rename_fail_permille = permille(value)?,
                "dropfsync" => plan.drop_fsync_permille = permille(value)?,
                "pin" => {
                    let fields: Vec<&str> = value.split(':').collect();
                    let (op, substr, fault, count) = match fields.as_slice() {
                        [op, substr, fault] => (*op, *substr, *fault, 1),
                        [op, substr, fault, count] => (
                            *op,
                            *substr,
                            *fault,
                            count.parse().map_err(|_| format!("bad pin count {count:?}"))?,
                        ),
                        _ => return Err(format!("pin {value:?} is not op:substr:fault[:count]")),
                    };
                    let op = OpKind::parse(op).ok_or_else(|| format!("unknown pin op {op:?}"))?;
                    let fault = FaultKind::parse(fault)
                        .ok_or_else(|| format!("unknown pin fault {fault:?}"))?;
                    plan.pin(op, substr, fault, count);
                }
                other => return Err(format!("unknown fault-spec key {other:?}")),
            }
        }
        Ok(plan)
    }

    /// The faults this plan can draw for one operation class, with their
    /// rates, in a fixed priority order (first threshold crossed wins).
    fn lanes(&self, op: OpKind) -> [(FaultKind, u16); 3] {
        match op {
            OpKind::Read => [
                (FaultKind::Eio, self.eio_permille),
                (FaultKind::ShortRead, self.short_read_permille),
                (FaultKind::ShortRead, 0),
            ],
            OpKind::Write => [
                (FaultKind::TornWrite, self.torn_permille),
                (FaultKind::Enospc, self.enospc_permille),
                (FaultKind::RenameFail, self.rename_fail_permille),
            ],
            OpKind::Append => [
                (FaultKind::TornWrite, self.torn_permille),
                (FaultKind::Enospc, self.enospc_permille),
                (FaultKind::Eio, self.eio_permille),
            ],
            OpKind::Rename => [
                (FaultKind::RenameFail, self.rename_fail_permille),
                (FaultKind::Eio, self.eio_permille),
                (FaultKind::Eio, 0),
            ],
            OpKind::Remove => {
                [(FaultKind::Eio, self.eio_permille), (FaultKind::Eio, 0), (FaultKind::Eio, 0)]
            }
        }
    }

    /// Secondary lanes for atomic writes: EIO and dropped fsync draw on
    /// independent rolls so their rates compose with the primary lanes.
    fn draw(&self, op: OpKind, path: &Path, counter: u64) -> Option<FaultKind> {
        let text = path.to_string_lossy();
        for pin in &self.pins {
            if pin.op == op && text.contains(&pin.substr) {
                let taken = pin
                    .remaining
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1));
                if taken.is_ok() {
                    return Some(pin.fault);
                }
            }
        }
        let roll = mix64(self.seed ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 1000;
        let mut floor = 0u64;
        for (fault, rate) in self.lanes(op) {
            let ceil = floor + rate as u64;
            if (floor..ceil).contains(&roll) {
                return Some(fault);
            }
            floor = ceil;
        }
        if op == OpKind::Write {
            // Independent rolls for the write-path faults that do not fit
            // the three primary lanes.
            let roll2 = mix64(self.seed ^ counter.wrapping_mul(0xD6E8_FEB8_6659_FD93)) % 1000;
            if roll2 < self.eio_permille as u64 {
                return Some(FaultKind::Eio);
            }
            if roll2 < (self.eio_permille + self.drop_fsync_permille) as u64 {
                return Some(FaultKind::DropFsync);
            }
        }
        None
    }
}

/// splitmix64 finalizer — the same avalanche the cache keys use.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Default)]
struct Inner {
    plan: Option<FaultPlan>,
    ops: AtomicU64,
    injected: AtomicU64,
}

/// A cloneable filesystem handle; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct Vfs {
    inner: Arc<Inner>,
}

impl Vfs {
    /// The pass-through filesystem: no plan, no faults, no overhead
    /// beyond one atomic increment per operation.
    pub fn real() -> Vfs {
        Vfs::default()
    }

    /// A filesystem that rolls every operation against `plan`.
    pub fn faulty(plan: FaultPlan) -> Vfs {
        Vfs { inner: Arc::new(Inner { plan: Some(plan), ..Inner::default() }) }
    }

    /// Whether this handle carries a fault plan at all.
    pub fn is_faulty(&self) -> bool {
        self.inner.plan.is_some()
    }

    /// Storage operations performed through this handle.
    pub fn ops(&self) -> u64 {
        self.inner.ops.load(Ordering::Acquire)
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.inner.injected.load(Ordering::Acquire)
    }

    fn roll(&self, op: OpKind, path: &Path) -> Option<FaultKind> {
        let counter = self.inner.ops.fetch_add(1, Ordering::AcqRel);
        let fault = self.inner.plan.as_ref()?.draw(op, path, counter)?;
        self.inner.injected.fetch_add(1, Ordering::AcqRel);
        Some(fault)
    }

    /// Read a whole file. A short-read fault silently returns a
    /// truncated prefix — callers must verify checksums, not trust
    /// length; an EIO fault errors. A genuinely missing file reports
    /// `NotFound` untouched, so cold misses never masquerade as faults.
    pub fn read_to_string(&self, path: &Path) -> std::io::Result<String> {
        let fault = self.roll(OpKind::Read, path);
        if let Some(FaultKind::Eio) = fault {
            return Err(FaultKind::Eio.error());
        }
        let text = std::fs::read_to_string(path)?;
        if let Some(FaultKind::ShortRead) = fault {
            let mut cut = text.len() / 2;
            while cut > 0 && !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return Ok(text[..cut].to_string());
        }
        Ok(text)
    }

    /// Publish `contents` at `path` atomically: unique temp sibling,
    /// fsync, rename. This is the runner's one way to create or replace
    /// a durable file, and the operation every write-path fault family
    /// targets — including the torn-write shape where the *damaged* temp
    /// file is renamed into place (exactly what a crash between the
    /// partial write and the rename leaves behind).
    pub fn write_atomic(&self, path: &Path, contents: &str) -> std::io::Result<()> {
        let parent =
            path.parent().ok_or_else(|| std::io::Error::other("write path has no parent"))?;
        std::fs::create_dir_all(parent)?;
        let tmp = crate::cache::unique_tmp(path);
        match self.roll(OpKind::Write, path) {
            Some(FaultKind::Eio) => Err(FaultKind::Eio.error()),
            Some(FaultKind::TornWrite) => {
                let _ = std::fs::write(&tmp, &contents.as_bytes()[..contents.len() / 2]);
                // The torn bytes are published: this is the crash window
                // between a partial write and the rename, surfaced as a
                // detectable (checksummed) torn entry.
                let _ = std::fs::rename(&tmp, path);
                Err(FaultKind::TornWrite.error())
            }
            Some(FaultKind::Enospc) => {
                let _ = std::fs::write(&tmp, &contents.as_bytes()[..contents.len() / 2]);
                let _ = std::fs::remove_file(&tmp);
                Err(FaultKind::Enospc.error())
            }
            Some(FaultKind::RenameFail) => {
                std::fs::write(&tmp, contents)?;
                let _ = std::fs::remove_file(&tmp);
                Err(FaultKind::RenameFail.error())
            }
            Some(FaultKind::DropFsync) => {
                // Silent: the bytes land without the durability barrier.
                // Nothing to observe unless the machine dies before the
                // kernel flushes — which fsck and checksums then catch.
                std::fs::write(&tmp, contents)?;
                publish(&tmp, path)
            }
            Some(FaultKind::ShortRead) | None => {
                let mut file = std::fs::File::create(&tmp)?;
                file.write_all(contents.as_bytes())?;
                if let Err(e) = file.sync_all() {
                    drop(file);
                    let _ = std::fs::remove_file(&tmp);
                    return Err(e);
                }
                drop(file);
                publish(&tmp, path)
            }
        }
    }

    /// Publish `contents` at `path` like [`Vfs::write_atomic`], but free
    /// no data block doing it. The replaced inode is kept as
    /// `<name>.spare` and becomes the next publish's temp:
    ///
    /// 1. claim the spare by renaming it to a unique `*.tmp.*` name (or
    ///    create that temp when there is no spare);
    /// 2. overwrite it in place (`write_all`, `set_len`, `sync_all`);
    /// 3. hard-link the live file to a second unique `*.tmp.*` name;
    /// 4. rename the temp over `path`;
    /// 5. rename the kept link to `<name>.spare`.
    ///
    /// The spare is only ever claimed by that atomic rename, so two
    /// concurrent publishers never write the same inode. A kill at any
    /// step leaves only `.tmp.` names for the start-up sweep; unlinking a
    /// second link frees nothing. A publish that fails before step 4
    /// puts its claimed temp back as the spare, so the live file and the
    /// spare's inode survive it. Faults roll once, as for `write_atomic`;
    /// a torn write publishes the torn half.
    pub fn replace(&self, path: &Path, contents: &str) -> std::io::Result<()> {
        let parent =
            path.parent().ok_or_else(|| std::io::Error::other("write path has no parent"))?;
        std::fs::create_dir_all(parent)?;
        let spare = spare_path(path);
        let tmp = crate::cache::unique_tmp(path);
        let fault = self.roll(OpKind::Write, path);
        let bytes = contents.as_bytes();
        let body = match fault {
            Some(FaultKind::Eio) => return Err(FaultKind::Eio.error()),
            Some(FaultKind::TornWrite | FaultKind::Enospc) => &bytes[..bytes.len() / 2],
            _ => bytes,
        };
        let sync = matches!(fault, None | Some(FaultKind::ShortRead));
        let written = claim(&spare, &tmp).and_then(|mut file| {
            file.write_all(body)?;
            file.set_len(body.len() as u64)?;
            if sync {
                file.sync_all()?;
            }
            Ok(())
        });
        let written = match fault {
            Some(f @ (FaultKind::Enospc | FaultKind::RenameFail)) => Err(f.error()),
            _ => written,
        };
        if let Err(e) = written {
            retire(&tmp, &spare);
            return Err(e);
        }
        let keep = crate::cache::unique_tmp(path);
        let kept = std::fs::hard_link(path, &keep).is_ok();
        if let Err(e) = std::fs::rename(&tmp, path) {
            if kept {
                let _ = std::fs::remove_file(&keep);
            }
            retire(&tmp, &spare);
            return Err(e);
        }
        if kept && std::fs::rename(&keep, &spare).is_err() {
            let _ = std::fs::remove_file(&keep);
        }
        match fault {
            Some(FaultKind::TornWrite) => Err(FaultKind::TornWrite.error()),
            _ => Ok(()),
        }
    }

    /// Append one line to an open log handle. `tag` is the log's path,
    /// used only for fault targeting. A torn-write or ENOSPC fault lands
    /// half the line (a real torn tail for the tolerant loaders and the
    /// sweepers to handle) and errors.
    pub fn append_line(
        &self,
        file: &mut std::fs::File,
        tag: &Path,
        line: &str,
    ) -> std::io::Result<()> {
        match self.roll(OpKind::Append, tag) {
            Some(FaultKind::Eio) => Err(FaultKind::Eio.error()),
            Some(fault @ (FaultKind::TornWrite | FaultKind::Enospc)) => {
                let _ = file.write_all(&line.as_bytes()[..line.len() / 2]);
                let _ = file.flush();
                Err(fault.error())
            }
            _ => {
                file.write_all(line.as_bytes())?;
                file.flush()
            }
        }
    }

    /// Rename a file (non-atomic-publish uses).
    pub fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        match self.roll(OpKind::Rename, to) {
            Some(FaultKind::Eio) => Err(FaultKind::Eio.error()),
            Some(FaultKind::RenameFail) => Err(FaultKind::RenameFail.error()),
            _ => std::fs::rename(from, to),
        }
    }

    /// Remove a file.
    pub fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        match self.roll(OpKind::Remove, path) {
            Some(FaultKind::Eio) => Err(FaultKind::Eio.error()),
            _ => std::fs::remove_file(path),
        }
    }
}

/// The recycled inode [`Vfs::replace`] keeps beside `path`:
/// `<name>.spare`. It carries no `.tmp.` marker, so the start-up sweep
/// leaves it alone.
pub fn spare_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".spare");
    path.with_file_name(name)
}

/// Step 1 of [`Vfs::replace`]: take the spare under the temp name, or
/// create the temp when there is no spare.
fn claim(spare: &Path, tmp: &Path) -> std::io::Result<std::fs::File> {
    match std::fs::rename(spare, tmp) {
        Ok(()) => std::fs::OpenOptions::new().write(true).open(tmp),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => std::fs::File::create(tmp),
        Err(e) => Err(e),
    }
}

/// Undo a claim after a failed publish: the temp goes back as the spare
/// (its bytes are scratch), or is removed if even that fails.
fn retire(tmp: &Path, spare: &Path) {
    if std::fs::rename(tmp, spare).is_err() {
        let _ = std::fs::remove_file(tmp);
    }
}

/// The publish half of an atomic write; on rename failure the temp file
/// is cleaned up so it cannot strand.
fn publish(tmp: &Path, path: &Path) -> std::io::Result<()> {
    if let Err(e) = std::fs::rename(tmp, path) {
        let _ = std::fs::remove_file(tmp);
        return Err(e);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("smi-lab-vfs-test-{}-{}", std::process::id(), tag));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    #[test]
    fn real_vfs_round_trips_and_counts_ops() {
        let dir = tmp_dir("real");
        let vfs = Vfs::real();
        let path = dir.join("sub").join("file.json");
        vfs.write_atomic(&path, "payload\n").expect("write");
        assert_eq!(vfs.read_to_string(&path).expect("read"), "payload\n");
        assert_eq!(vfs.injected(), 0);
        assert_eq!(vfs.ops(), 2);
        vfs.remove_file(&path).expect("remove");
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_stays_not_found_even_under_full_fault_rates() {
        let dir = tmp_dir("notfound");
        let plan = FaultPlan { short_read_permille: 1000, ..FaultPlan::default() };
        let vfs = Vfs::faulty(plan);
        let err = vfs.read_to_string(&dir.join("absent")).expect_err("missing file");
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "misses must not become faults");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_torn_write_publishes_the_damaged_file_and_errors() {
        let dir = tmp_dir("torn");
        let mut plan = FaultPlan::default();
        plan.pin(OpKind::Write, "victim", FaultKind::TornWrite, 1);
        let vfs = Vfs::faulty(plan);
        let path = dir.join("victim.json");
        let err = vfs.write_atomic(&path, "0123456789").expect_err("injected torn write");
        assert!(err.to_string().contains("torn write"));
        assert_eq!(std::fs::read_to_string(&path).expect("torn file published"), "01234");
        assert_eq!(vfs.injected(), 1);
        // The pin is spent: the next write succeeds whole.
        vfs.write_atomic(&path, "0123456789").expect("pin exhausted");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "0123456789");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_enospc_and_rename_fail_leave_no_file_and_no_tmp() {
        let dir = tmp_dir("enospc");
        for fault in [FaultKind::Enospc, FaultKind::RenameFail] {
            let mut plan = FaultPlan::default();
            plan.pin(OpKind::Write, "victim", fault, 1);
            let vfs = Vfs::faulty(plan);
            let path = dir.join("victim.json");
            let _ = std::fs::remove_file(&path);
            assert!(vfs.write_atomic(&path, "0123456789").is_err());
            assert!(!path.exists(), "{fault:?} must not publish");
            let leftovers = std::fs::read_dir(&dir)
                .expect("dir")
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
                .count();
            assert_eq!(leftovers, 0, "{fault:?} must not strand a temp file");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("dir")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    fn ino(path: &Path) -> u64 {
        use std::os::unix::fs::MetadataExt as _;
        std::fs::metadata(path).expect("stat").ino()
    }

    #[test]
    fn replace_recycles_the_replaced_inode_as_the_next_temp() {
        let dir = tmp_dir("replace");
        let vfs = Vfs::real();
        let path = dir.join("m.json");
        vfs.replace(&path, "first, the longest body\n").expect("create");
        assert_eq!(names(&dir), ["m.json"], "nothing to keep on a first publish");
        let first = ino(&path);
        vfs.replace(&path, "second\n").expect("replace");
        assert_eq!(names(&dir), ["m.json", "m.json.spare"]);
        assert_eq!(ino(&spare_path(&path)), first, "the replaced inode is kept");
        let second = ino(&path);
        vfs.replace(&path, "third, longer again\n").expect("recycle");
        assert_eq!(names(&dir), ["m.json", "m.json.spare"]);
        assert_eq!(ino(&path), first, "the spare becomes the live file");
        assert_eq!(ino(&spare_path(&path)), second);
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "third, longer again\n");
        vfs.replace(&path, "4\n").expect("shorter body");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "4\n", "no stale tail");
        assert_eq!(vfs.ops(), 4, "one operation per publish");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replace_faults_keep_one_roll_and_never_lose_the_live_file_or_spare() {
        let dir = tmp_dir("replace-faults");
        let path = dir.join("m.json");
        Vfs::real().replace(&path, "prior\n").expect("seed");
        Vfs::real().replace(&path, "prior\n").expect("seed a spare");
        for fault in [FaultKind::Eio, FaultKind::Enospc, FaultKind::RenameFail] {
            let spare = ino(&spare_path(&path));
            let mut plan = FaultPlan::default();
            plan.pin(OpKind::Write, "m.json", fault, 1);
            let vfs = Vfs::faulty(plan);
            assert!(vfs.replace(&path, "next\n").is_err(), "{fault:?} must fail");
            assert_eq!(vfs.injected(), 1);
            assert_eq!(std::fs::read_to_string(&path).expect("live"), "prior\n", "{fault:?}");
            assert_eq!(ino(&spare_path(&path)), spare, "{fault:?} must keep the spare");
            assert_eq!(names(&dir), ["m.json", "m.json.spare"], "{fault:?} left litter");
        }
        let mut plan = FaultPlan::default();
        plan.pin(OpKind::Write, "m.json", FaultKind::TornWrite, 1);
        plan.pin(OpKind::Write, "m.json", FaultKind::DropFsync, 1);
        let vfs = Vfs::faulty(plan);
        assert!(vfs.replace(&path, "0123456789").is_err());
        assert_eq!(std::fs::read_to_string(&path).expect("torn"), "01234", "torn half published");
        vfs.replace(&path, "0123456789").expect("a dropped fsync is silent");
        assert_eq!(std::fs::read_to_string(&path).expect("whole"), "0123456789");
        assert_eq!(names(&dir), ["m.json", "m.json.spare"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_read_truncates_and_append_faults_tear_the_tail() {
        let dir = tmp_dir("short");
        let path = dir.join("log.jsonl");
        std::fs::write(&path, "0123456789").expect("seed file");
        let mut plan = FaultPlan::default();
        plan.pin(OpKind::Read, "log", FaultKind::ShortRead, 1);
        plan.pin(OpKind::Append, "log", FaultKind::Enospc, 1);
        let vfs = Vfs::faulty(plan);
        assert_eq!(vfs.read_to_string(&path).expect("short read"), "01234");
        assert_eq!(vfs.read_to_string(&path).expect("pin spent"), "0123456789");
        let mut file = std::fs::OpenOptions::new().append(true).open(&path).expect("open");
        assert!(vfs.append_line(&mut file, &path, "ABCDEFGH").is_err());
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "0123456789ABCD");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_draws_replay_identically() {
        let spec = "seed=7,torn=50,enospc=50,eio=30,renamefail=40,dropfsync=60,shortread=80";
        let sequence = |spec: &str| -> Vec<Option<FaultKind>> {
            let plan = FaultPlan::parse(spec).expect("parse");
            (0..200u64)
                .map(|i| {
                    plan.draw(
                        if i % 2 == 0 { OpKind::Write } else { OpKind::Read },
                        Path::new("x"),
                        i,
                    )
                })
                .collect()
        };
        assert_eq!(sequence(spec), sequence(spec), "same seed, same fault sequence");
        let other =
            sequence("seed=8,torn=50,enospc=50,eio=30,renamefail=40,dropfsync=60,shortread=80");
        assert_ne!(sequence(spec), other, "different seeds decorrelate");
        assert!(sequence(spec).iter().any(Option::is_some), "rates this high must fire");
    }

    #[test]
    fn spec_parsing_rejects_garbage() {
        assert!(FaultPlan::parse("").expect("empty spec").pins.is_empty());
        assert!(FaultPlan::parse("torn=20,pin=append:journal:enospc:2").is_ok());
        for bad in [
            "torn",
            "torn=abc",
            "torn=1001",
            "bogus=1",
            "pin=append:journal",
            "pin=fly:journal:enospc",
            "pin=append:journal:gremlins",
            "pin=append:journal:enospc:many",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
