//! Crash-consistency under injected filesystem faults: whatever a fault
//! plan does to the store — torn writes, ENOSPC, EIO, rename failures,
//! dropped fsyncs, short reads — surviving records stay byte-identical
//! to a fault-free run, a clean `--resume` recomputes exactly the lost
//! cells, and `fsck --repair` restores the store to Clean. (The SIGKILL
//! family is covered by `journal_resume.rs` and the planted-damage fsck
//! unit test; here every *filesystem* family gets the same treatment.)

use jsonio::Json;
use runner::store;
use runner::vfs::{FaultKind, FaultPlan, OpKind, Vfs};
use runner::{Cell, CellSpec, RunStatus, Runner};
use std::os::unix::fs::MetadataExt as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("smi-lab-durability-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp cache dir");
    dir
}

fn campaign(range: std::ops::Range<u64>, executions: &Arc<AtomicU64>) -> Vec<Cell> {
    range
        .map(|i| {
            let executions = Arc::clone(executions);
            Cell::new(
                CellSpec {
                    experiment: "durability".into(),
                    cell: format!("c{i}"),
                    params: Json::obj(vec![("i", Json::U64(i))]),
                    seed: 7,
                    reps: 1,
                },
                move || {
                    executions.fetch_add(1, Ordering::Relaxed);
                    Json::obj(vec![("value", Json::U64(i.wrapping_mul(0x9E37)))])
                },
            )
        })
        .collect()
}

fn runner_in(dir: &Path) -> Runner {
    let mut r = Runner::new(1);
    r.cache_dir = dir.to_path_buf();
    r.verbose = false;
    r
}

/// The fault-free record bytes every faulted scenario must reproduce.
/// Each caller passes its own tag: tests run in parallel, and a shared
/// reference dir would let one test's `tmp_dir` wipe another's store
/// mid-run.
fn reference_records(tag: &str, n: u64) -> String {
    let dir = tmp_dir(&format!("reference-{tag}"));
    let executions = Arc::new(AtomicU64::new(0));
    let report = runner_in(&dir).run("camp", campaign(0..n, &executions));
    assert_eq!(report.status(), RunStatus::Clean);
    let records = report.records_jsonl();
    let _ = std::fs::remove_dir_all(&dir);
    records
}

#[test]
fn enospc_storm_degrades_with_typed_counters_and_clean_rerun_recovers() {
    let dir = tmp_dir("enospc-storm");
    let executions = Arc::new(AtomicU64::new(0));
    let mut runner = runner_in(&dir);
    let plan = FaultPlan::parse("enospc=1000").expect("plan");
    runner.vfs = Vfs::faulty(plan);

    // Every store publish and journal append hits ENOSPC: the campaign
    // still drains with every payload intact, Degraded, faults counted.
    let report = runner.run("camp", campaign(0..6, &executions));
    assert_eq!(executions.load(Ordering::Relaxed), 6, "faults never cost payloads");
    assert_eq!(report.status(), RunStatus::Degraded);
    assert!(report.cache_store_errors > 0, "every failed write must be counted");
    assert_eq!(report.store.puts, 0, "nothing was durably published");
    assert_eq!(
        report.records_jsonl(),
        reference_records("enospc-storm", 6),
        "records survive the storm"
    );

    // A clean rerun recomputes everything the storm lost, byte-identically.
    let rerun = runner_in(&dir).run("camp", campaign(0..6, &executions));
    assert_eq!(executions.load(Ordering::Relaxed), 12, "nothing was cached");
    assert_eq!(rerun.status(), RunStatus::Clean);
    assert_eq!(rerun.records_jsonl(), reference_records("enospc-storm", 6));
    assert!(store::fsck(&dir, false).is_clean(), "ENOSPC leaves no on-disk damage");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pinned_write_faults_lose_exactly_the_pinned_cells_and_resume_recomputes_them() {
    let dir = tmp_dir("pinned-writes");
    let executions = Arc::new(AtomicU64::new(0));
    let mut runner = runner_in(&dir);
    let mut plan = FaultPlan::default();
    // The first two store publishes fail; everything else lands.
    plan.pin(OpKind::Write, "", FaultKind::Enospc, 2);
    runner.vfs = Vfs::faulty(plan);

    let report = runner.run("camp", campaign(0..6, &executions));
    assert_eq!(executions.load(Ordering::Relaxed), 6);
    assert_eq!(report.status(), RunStatus::Degraded);
    assert_eq!(report.cache_store_errors, 2, "exactly the pinned faults are counted");
    assert_eq!(report.store.puts, 4);

    // Resume recomputes exactly the two lost cells, byte-identically.
    let resumed = runner_in(&dir).run("camp", campaign(0..6, &executions));
    assert_eq!(executions.load(Ordering::Relaxed), 8, "exactly the lost cells recompute");
    assert_eq!(resumed.store.hits, 4, "the surviving entries resume from the store");
    assert_eq!(resumed.status(), RunStatus::Clean);
    assert_eq!(resumed.records_jsonl(), reference_records("pinned-writes", 6));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_append_degrades_and_the_tail_is_swept_on_resume() {
    let dir = tmp_dir("torn-journal");
    let executions = Arc::new(AtomicU64::new(0));
    let mut runner = runner_in(&dir);
    let mut plan = FaultPlan::default();
    // Tear every journal append: the file ends in torn half-lines with
    // no intact line ever glued after them, the worst-case tail.
    plan.pin(OpKind::Append, ".jsonl", FaultKind::TornWrite, 4);
    runner.vfs = Vfs::faulty(plan);

    let report = runner.run("camp", campaign(0..4, &executions));
    assert_eq!(report.status(), RunStatus::Degraded);
    assert_eq!(report.cache_store_errors, 4, "every torn append is a counted disk fault");
    // The torn half-line is on disk now; fsck sees it...
    let audit = store::fsck(&dir, false);
    assert!(
        audit.findings.iter().any(|f| f.kind == store::FindingKind::TornJournalTail),
        "a torn journal tail must be a finding: {:?}",
        audit.findings
    );
    // ...and a resumed campaign truncates it at startup, under the lock.
    let resumed = runner_in(&dir).run("camp", campaign(0..4, &executions));
    assert!(resumed.journal_torn_bytes > 0, "startup must account the swept tail bytes");
    assert_eq!(resumed.status(), RunStatus::Clean);
    assert_eq!(resumed.records_jsonl(), reference_records("torn-journal", 4));
    assert!(store::fsck(&dir, false).is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_rename_failure_leaves_prior_manifest_and_no_tmp_litter() {
    let dir = tmp_dir("manifest-rename");
    let executions = Arc::new(AtomicU64::new(0));
    let report = runner_in(&dir).run("camp", campaign(0..2, &executions));
    report.write_manifest(&dir).expect("fault-free manifest write");
    let manifest_path = dir.join("manifests").join("camp.json");
    let before = std::fs::read_to_string(&manifest_path).expect("manifest exists");
    let spare = runner::vfs::spare_path(&manifest_path);

    // Once without a spare, then again once a clean write has left one.
    for round in ["no spare", "with spare"] {
        if round == "with spare" {
            report.write_manifest(&dir).expect("a clean write keeps the replaced inode");
        }
        let spare_ino = std::fs::metadata(&spare).ok().map(|m| m.ino());
        assert_eq!(spare_ino.is_some(), round == "with spare");
        let mut plan = FaultPlan::default();
        plan.pin(OpKind::Write, "manifests", FaultKind::RenameFail, 1);
        let vfs = Vfs::faulty(plan);
        let err = report.write_manifest_with(&vfs, &dir).expect_err("rename failure surfaces");
        assert!(err.to_string().contains("vfs injected"), "typed injected error: {err}");
        assert_eq!(
            std::fs::read_to_string(&manifest_path).expect("manifest still present"),
            before,
            "a failed publish must never damage the previous manifest ({round})"
        );
        if spare_ino.is_some() {
            assert_eq!(std::fs::metadata(&spare).ok().map(|m| m.ino()), spare_ino, "spare kept");
        }
        let litter: Vec<_> = std::fs::read_dir(dir.join("manifests"))
            .expect("read manifests dir")
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(litter.is_empty(), "no temp litter after a failed rename ({round}): {litter:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_fault_flood_trips_the_bypass_ladder_and_still_drains() {
    let dir = tmp_dir("bypass");
    let executions = Arc::new(AtomicU64::new(0));
    let mut runner = runner_in(&dir);
    runner.vfs = Vfs::faulty(FaultPlan::parse("enospc=1000").expect("plan"));
    runner.disk_fault_limit = 3;

    let report = runner.run("camp", campaign(0..8, &executions));
    assert_eq!(executions.load(Ordering::Relaxed), 8, "bypass mode still computes every cell");
    assert_eq!(report.status(), RunStatus::Degraded);
    assert!(report.storage_bypass, "the ladder must trip past the limit");
    assert!(report.bypassed_writes > 0, "post-trip writes are skipped and counted");
    assert!(
        report.cache_store_errors >= 3 && report.cache_store_errors < 16,
        "after the trip, faults stop accumulating: {}",
        report.cache_store_errors
    );
    let m = report.manifest();
    let storage = m.get("storage").expect("manifest storage block");
    assert_eq!(storage.get("bypass").and_then(Json::as_bool), Some(true));
    assert_eq!(storage.get("disk_fault_limit").and_then(Json::as_u64), Some(3));
    assert_eq!(storage.get("bypassed_writes").and_then(Json::as_u64), Some(report.bypassed_writes));
    assert_eq!(
        report.records_jsonl(),
        reference_records("bypass", 8),
        "bypass never alters records"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_campaigns_sharing_the_store_compute_overlapping_cells_once() {
    let dir = tmp_dir("dedup");
    let executions = Arc::new(AtomicU64::new(0));
    let alpha = runner_in(&dir).run("alpha", campaign(0..6, &executions));
    assert_eq!(alpha.store.puts, 6);
    assert_eq!(executions.load(Ordering::Relaxed), 6);

    // A *different* campaign overlapping on cells 3..6: the overlap is
    // served from the shared store and counted as cross-campaign dedup.
    let beta = runner_in(&dir).run("beta", campaign(3..9, &executions));
    assert_eq!(executions.load(Ordering::Relaxed), 9, "overlapping cells computed exactly once");
    assert_eq!(beta.store.dedup_hits, 3, "the overlap is dedup, not local hits");
    assert_eq!(beta.store.hits, 0);
    assert_eq!(beta.store.puts, 3);
    let m = beta.manifest();
    let storage = m.get("storage").expect("manifest storage block");
    assert_eq!(storage.get("dedup_hits").and_then(Json::as_u64), Some(3));

    // Beta re-run: now everything is beta's own (indexed) — plain hits.
    let again = runner_in(&dir).run("beta", campaign(3..9, &executions));
    assert_eq!(executions.load(Ordering::Relaxed), 9);
    assert_eq!(again.store.hits, 6);
    assert_eq!(again.store.dedup_hits, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The headline property: under ANY random vfs fault plan, no surviving
/// record ever differs from the fault-free bytes, and `fsck --repair`
/// restores the store to Clean.
#[test]
fn quickprop_random_fault_plans_never_corrupt_records_and_fsck_restores_clean() {
    const CELLS: u64 = 50;
    let reference = reference_records("prop", CELLS);
    let case = AtomicU64::new(0);
    quickprop::check("vfs-fault-plans-preserve-records", 8, |g| {
        let tag = format!("prop-{}", case.fetch_add(1, Ordering::Relaxed));
        let dir = tmp_dir(&tag);
        let executions = Arc::new(AtomicU64::new(0));
        let mut plan = FaultPlan::default();
        plan.seed = g.any_u64();
        plan.torn_permille = g.below(120) as u16;
        plan.short_read_permille = g.below(120) as u16;
        plan.enospc_permille = g.below(120) as u16;
        plan.eio_permille = g.below(80) as u16;
        plan.rename_fail_permille = g.below(120) as u16;
        plan.drop_fsync_permille = g.below(200) as u16;
        let mut runner = runner_in(&dir);
        runner.vfs = Vfs::faulty(plan);

        let faulted = runner.run("camp", campaign(0..CELLS, &executions));
        assert_eq!(faulted.cells_total, CELLS, "the campaign always drains");
        assert_eq!(faulted.records_jsonl(), reference, "no fault sequence may alter a record byte");

        // fsck repairs whatever the plan tore, and proves it re-scanning.
        store::fsck(&dir, true);
        let audit = store::fsck(&dir, false);
        assert!(audit.is_clean(), "fsck --repair must restore Clean: {:?}", audit.findings);

        // A clean rerun fills every hole; its records are the reference.
        let recovered = runner_in(&dir).run("camp", campaign(0..CELLS, &executions));
        assert_eq!(recovered.records_jsonl(), reference);
        assert_eq!(recovered.status(), RunStatus::Clean);
        let _ = std::fs::remove_dir_all(&dir);
    });
}
