//! Exclusive campaign lock: one running campaign per (cache dir, label).
//!
//! Two concurrent campaigns with the same label share a journal file and
//! a manifest path; interleaved journal appends from two supervisors
//! would corrupt the resume account silently. The lock makes that race a
//! *typed, immediate* failure instead: the second campaign gets
//! [`LockHeld`] before touching any shared state, and the CLI turns it
//! into a failed exit. Campaigns with different labels (or different
//! cache dirs) stay independent — their journals are disjoint, and the
//! content-addressed store is safe under concurrent writers by
//! construction (atomic tmp+rename stores, per-label indexes).
//!
//! The lock is a `create_new` file at `<cache>/journal/<label>.lock`
//! containing the holder's pid. Dropping the guard removes it. A holder
//! that died without cleanup (SIGKILL — exactly the crash this runner is
//! built to survive) leaves a *stale* lock; acquisition detects
//! staleness by checking `/proc/<pid>` where procfs exists (and by an
//! own-pid check everywhere), breaks the stale lock, and retries once —
//! so `--resume` after a kill never needs manual lockfile surgery.
//! Breaking is never silent: the broken lock's holder pid and age are
//! returned as a [`BrokenLock`] and land in the run manifest as the
//! `lock_broken` note.

use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The typed contention failure: another live campaign holds the lock.
#[derive(Debug)]
pub struct LockHeld {
    /// The lock file path.
    pub path: PathBuf,
    /// The holder's pid as recorded in the lock file, if readable.
    pub holder_pid: Option<u64>,
}

impl std::fmt::Display for LockHeld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.holder_pid {
            Some(pid) => write!(
                f,
                "campaign lock {} is held by live process {pid}; \
                 wait for it or remove the file if it is wrong",
                self.path.display()
            ),
            None => write!(f, "campaign lock {} is held by another process", self.path.display()),
        }
    }
}

/// The account of a stale lock that acquisition broke: who held it and
/// how old it was. Surfaced in the run manifest so a broken lock is an
/// audited event, never a silent one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BrokenLock {
    /// The dead (or torn) holder's pid, if the lock file recorded one.
    pub holder_pid: Option<u64>,
    /// Age of the lock file in whole seconds at break time, if the
    /// filesystem reports mtimes.
    pub age_seconds: Option<u64>,
}

/// The result of a successful (non-contended) acquisition attempt.
#[derive(Debug)]
pub struct Acquired {
    /// The held lock, or `None` if the filesystem refused to create one
    /// (the campaign proceeds unlocked and degraded).
    pub guard: Option<CampaignLock>,
    /// The stale lock that had to be broken on the way in, if any.
    pub broke: Option<BrokenLock>,
}

/// A held campaign lock; dropping it releases the lock file.
#[derive(Debug)]
pub struct CampaignLock {
    path: PathBuf,
}

impl CampaignLock {
    /// Path of the lock guarding a campaign label under a cache root
    /// (next to the journal it protects, same [`crate::cache::label_stem`]).
    pub fn lock_path(cache_dir: &Path, label: &str) -> PathBuf {
        cache_dir.join("journal").join(format!("{}.lock", crate::cache::label_stem(label)))
    }

    /// Try to take the lock. `Ok` with a guard holds it; `Err` means a
    /// live campaign already does. `Ok` with `guard: None` means the
    /// filesystem refused (unwritable cache root): the campaign proceeds
    /// unlocked, and the same broken filesystem surfaces as counted
    /// store errors — a degraded run, not a wedged one. If a stale lock
    /// was broken on the way in, `broke` carries its account.
    pub fn acquire(cache_dir: &Path, label: &str) -> Result<Acquired, LockHeld> {
        let path = Self::lock_path(cache_dir, label);
        if let Some(parent) = path.parent() {
            if std::fs::create_dir_all(parent).is_err() {
                return Ok(Acquired { guard: None, broke: None });
            }
        }
        // One stale-break retry: if the first attempt loses to a stale
        // lock we break it and try again; losing the *second* race means
        // a genuinely live contender just beat us.
        let mut broke = None;
        for attempt in 0..2 {
            match std::fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    let _ = writeln!(file, "{}", std::process::id());
                    let _ = file.flush();
                    return Ok(Acquired { guard: Some(CampaignLock { path }), broke });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder_pid = read_holder(&path);
                    if attempt == 0 && is_stale(holder_pid) {
                        broke = Some(BrokenLock { holder_pid, age_seconds: lock_age(&path) });
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    return Err(LockHeld { path, holder_pid });
                }
                Err(_) => return Ok(Acquired { guard: None, broke }),
            }
        }
        // Unreachable: attempt 1 always returns. Kept total for the
        // no-panic discipline.
        Ok(Acquired { guard: None, broke })
    }
}

impl Drop for CampaignLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The pid recorded in a lock file, if the file parses.
fn read_holder(path: &Path) -> Option<u64> {
    std::fs::read_to_string(path).ok()?.trim().parse().ok()
}

/// Age of a lock file in whole seconds, from its mtime.
#[expect(
    clippy::disallowed_methods,
    reason = "lock age is operator-facing forensics in the manifest, never an input to \
              any deterministic verdict"
)]
fn lock_age(path: &Path) -> Option<u64> {
    let mtime = std::fs::metadata(path).ok()?.modified().ok()?;
    std::time::SystemTime::now().duration_since(mtime).ok().map(|d| d.as_secs())
}

/// Whether a lock can be broken: no parseable pid (torn write), our own
/// pid (a leak within this process — campaigns in one process run
/// sequentially), or a pid that no longer exists where procfs can tell.
fn is_stale(holder_pid: Option<u64>) -> bool {
    let Some(pid) = holder_pid else { return true };
    if pid == std::process::id() as u64 {
        return true;
    }
    let proc_root = Path::new("/proc");
    proc_root.is_dir() && !proc_root.join(pid.to_string()).exists()
}

/// Whether an on-disk lock file is stale (holder dead, own-process leak,
/// or torn pid). Used by `fsck` to report and break abandoned locks with
/// the same verdict the runner itself applies.
pub fn is_stale_lock_file(path: &Path) -> bool {
    is_stale(read_holder(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smi-lab-lockfile-test-{}-{}",
            std::process::id(),
            tag
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    fn acquire(dir: &Path, label: &str) -> Result<Acquired, LockHeld> {
        CampaignLock::acquire(dir, label)
    }

    #[test]
    fn lock_excludes_and_drop_releases() {
        let dir = tmp_dir("basic");
        let first = acquire(&dir, "camp").expect("no contention");
        assert!(first.guard.is_some(), "fs ok");
        assert!(first.broke.is_none(), "fresh lock breaks nothing");
        // Simulate a *different live* holder: overwrite the pid with
        // pid 1 (init — always alive where /proc exists). Without /proc
        // the recorded foreign pid is conservatively treated as live too.
        std::fs::write(CampaignLock::lock_path(&dir, "camp"), "1\n").expect("rewrite pid");
        let held = acquire(&dir, "camp").expect_err("second campaign must fail fast");
        assert_eq!(held.holder_pid, Some(1));
        assert!(held.to_string().contains("held by live process 1"));
        // A different label is a different campaign: no contention.
        let other = acquire(&dir, "other").expect("no contention");
        assert!(other.guard.is_some());
        drop(first);
        let reacquired = acquire(&dir, "camp").expect("released");
        assert!(reacquired.guard.is_some(), "drop must release the lock");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn own_pid_lock_is_stale_and_break_is_recorded() {
        let dir = tmp_dir("own");
        let path = CampaignLock::lock_path(&dir, "camp");
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, format!("{}\n", std::process::id())).expect("plant lock");
        assert!(is_stale_lock_file(&path), "fsck agrees the lock is stale");
        let acq = acquire(&dir, "camp").expect("own leak is stale");
        assert!(acq.guard.is_some(), "a lock leaked by our own process must break");
        let broke = acq.broke.expect("the break must be recorded, not silent");
        assert_eq!(broke.holder_pid, Some(std::process::id() as u64));
        assert!(broke.age_seconds.is_some(), "a just-planted lock still has an mtime age");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_pidless_lock_is_stale() {
        let dir = tmp_dir("torn");
        let path = CampaignLock::lock_path(&dir, "camp");
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, "").expect("plant torn lock");
        let acq = acquire(&dir, "camp").expect("torn lock is stale");
        assert!(acq.guard.is_some());
        assert_eq!(
            acq.broke.map(|b| b.holder_pid),
            Some(None),
            "a torn lock breaks with no recorded holder"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_pid_lock_is_stale_where_procfs_exists() {
        if !Path::new("/proc").is_dir() {
            return;
        }
        let dir = tmp_dir("dead");
        let path = CampaignLock::lock_path(&dir, "camp");
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        // Pid 4194304 exceeds the default Linux pid_max (2^22) and so is
        // never a live process; the SIGKILLed-campaign resume path.
        std::fs::write(&path, "4194304\n").expect("plant dead-holder lock");
        assert!(is_stale_lock_file(&path));
        let acq = acquire(&dir, "camp").expect("dead holder is stale");
        assert!(acq.guard.is_some(), "resume after SIGKILL must not need lockfile surgery");
        assert_eq!(acq.broke.map(|b| b.holder_pid), Some(Some(4194304)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_root_proceeds_unlocked() {
        let dir = tmp_dir("unwritable");
        let file = dir.join("not-a-dir");
        std::fs::write(&file, "x").expect("plant file");
        let acq = acquire(&file, "camp").expect("fs refusal is not contention");
        assert!(acq.guard.is_none(), "broken filesystem degrades, never wedges");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
