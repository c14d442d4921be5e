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
//! The lock is a kernel advisory lock ([`std::fs::File::try_lock`]) on
//! `<cache>/journal/<label>.lock`. The kernel releases it when the
//! holding file is closed, whether the guard drops or the holder dies
//! (SIGKILL included), so a resume after a kill never finds a lock to
//! break. The file's contents mean nothing: it is opened without
//! truncation, never written, and never unlinked, because a second
//! campaign that opened the old inode would then lock a different file
//! from a third that created a new one.

use crate::dispatch::lock_clean;
use std::fs::{File, TryLockError};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Taken by every lock release, and by a worker spawn from before the
/// fork until the worker's first frame shows its exec is over. A child
/// holds a copy of each descriptor from fork until exec, so a lock
/// released mid-spawn would stay held by that child and refuse the
/// label's next campaign for a moment.
pub(crate) static SPAWN: Mutex<()> = Mutex::new(());

/// The typed contention failure: another campaign holds the lock.
#[derive(Debug)]
pub struct LockHeld {
    /// The lock file path.
    pub path: PathBuf,
}

impl std::fmt::Display for LockHeld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "campaign lock {} is held by another running campaign", self.path.display())
    }
}

/// A held campaign lock; dropping it closes the file, which releases
/// the lock.
#[derive(Debug)]
pub struct CampaignLock {
    file: Option<File>,
}

impl Drop for CampaignLock {
    fn drop(&mut self) {
        let _spawns = lock_clean(&SPAWN);
        self.file.take();
    }
}

impl CampaignLock {
    /// Path of the lock guarding a campaign label under a cache root
    /// (next to the journal it protects, same [`crate::cache::label_stem`]).
    pub fn lock_path(cache_dir: &Path, label: &str) -> PathBuf {
        cache_dir.join("journal").join(format!("{}.lock", crate::cache::label_stem(label)))
    }

    /// Try to take the lock. `Ok(Some(_))` holds it; `Err` means another
    /// campaign does. `Ok(None)` means the filesystem refused to open or
    /// lock the file (an unwritable cache root, say): the campaign
    /// proceeds unlocked, and the same broken filesystem surfaces as
    /// counted store errors — a degraded run, not a wedged one.
    pub fn acquire(cache_dir: &Path, label: &str) -> Result<Option<CampaignLock>, LockHeld> {
        let path = Self::lock_path(cache_dir, label);
        let opened = path.parent().map_or(Ok(()), std::fs::create_dir_all).and_then(|()| {
            std::fs::OpenOptions::new().write(true).create(true).truncate(false).open(&path)
        });
        let Ok(file) = opened else { return Ok(None) };
        match file.try_lock() {
            Ok(()) => Ok(Some(CampaignLock { file: Some(file) })),
            Err(TryLockError::WouldBlock) => Err(LockHeld { path }),
            Err(TryLockError::Error(_)) => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory: the first `<tag>-<n>` that `create_dir` makes.
    fn tmp_dir(tag: &str) -> PathBuf {
        let base = std::env::temp_dir();
        (0u32..)
            .map(|n| base.join(format!("smi-lab-lockfile-test-{tag}-{n}")))
            .find(|dir| std::fs::create_dir(dir).is_ok())
            .expect("create tmp dir")
    }

    #[test]
    fn second_handle_is_refused_and_drop_releases() {
        let dir = tmp_dir("basic");
        let first = CampaignLock::acquire(&dir, "camp").expect("no contention");
        assert!(first.is_some(), "fs ok");
        // A second open file in the same process is a second holder:
        // the kernel refuses it, and the error names only the path.
        let held = CampaignLock::acquire(&dir, "camp").expect_err("second campaign must fail fast");
        assert_eq!(held.path, CampaignLock::lock_path(&dir, "camp"));
        assert!(held.to_string().contains("held by another running campaign"), "{held}");
        // A different label is a different campaign: no contention.
        let other = CampaignLock::acquire(&dir, "other").expect("no contention");
        assert!(other.is_some());
        drop(first);
        let reacquired = CampaignLock::acquire(&dir, "camp").expect("released");
        assert!(reacquired.is_some(), "drop must release the lock");
        assert!(CampaignLock::lock_path(&dir, "camp").exists(), "the file is never unlinked");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_lock_files_never_block() {
        let dir = tmp_dir("leftover");
        let path = CampaignLock::lock_path(&dir, "camp");
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        // A live pid, a pid above the default pid_max, nothing, garbage:
        // the contents are never read, so none of them is a holder.
        for contents in ["1\n", "4194304\n", "", "\u{0}garbage\u{ff}"] {
            std::fs::write(&path, contents).expect("plant lock file");
            let lock = CampaignLock::acquire(&dir, "camp").expect("a file is not a holder");
            assert!(lock.is_some(), "{contents:?}");
            drop(lock);
            assert_eq!(std::fs::read_to_string(&path).expect("read"), contents, "never written");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_root_proceeds_unlocked() {
        let dir = tmp_dir("unwritable");
        let file = dir.join("not-a-dir");
        std::fs::write(&file, "x").expect("plant file");
        let lock = CampaignLock::acquire(&file, "camp").expect("fs refusal is not contention");
        assert!(lock.is_none(), "broken filesystem degrades, never wedges");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
