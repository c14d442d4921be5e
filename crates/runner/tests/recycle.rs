//! A warm rerun frees no disk block: the run manifest is rewritten into
//! the inode it replaced last time (`<stem>.json.spare`), and a fully
//! resolved intent log stays in place until the campaign's first put
//! empties it. On a filesystem mounted `discard`, every freed block is a
//! synchronous discard, so these tests pin the file-level shape: which
//! names exist, which inode is live, which bytes the logs hold — and that
//! crash leftovers and injected faults still end Clean.

use jsonio::{checked, Json};
use runner::vfs::{spare_path, FaultKind, FaultPlan, OpKind, Vfs};
use runner::{cache, store, Cell, CellSpec, RunReport, RunStatus, Runner};
use std::os::unix::fs::MetadataExt as _;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smi-lab-recycle-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp cache dir");
    dir
}

fn spec(i: u64) -> CellSpec {
    CellSpec {
        experiment: "recycle".into(),
        cell: format!("c{i}"),
        params: Json::obj(vec![("i", Json::U64(i))]),
        seed: 3,
        reps: 1,
    }
}

fn campaign(range: std::ops::Range<u64>) -> Vec<Cell> {
    range.map(|i| Cell::new(spec(i), move || Json::U64(i * 7))).collect()
}

fn run(dir: &Path, range: std::ops::Range<u64>) -> RunReport {
    let mut r = Runner::new(1);
    r.cache_dir = dir.to_path_buf();
    r.verbose = false;
    let report = r.run("camp", campaign(range));
    assert_eq!(report.status(), RunStatus::Clean);
    report
}

fn manifests(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir.join("manifests"))
        .expect("manifests dir")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

fn ino(path: &Path) -> u64 {
    std::fs::metadata(path).expect("stat").ino()
}

fn live(dir: &Path) -> PathBuf {
    dir.join("manifests").join("camp.json")
}

fn body(report: &RunReport) -> String {
    let mut body = report.manifest().to_string_pretty();
    body.push('\n');
    body
}

#[test]
fn consecutive_manifest_writes_recycle_the_replaced_inode() {
    let dir = tmp_dir("two-writes");
    let cold = run(&dir, 0..3);
    cold.write_manifest(&dir).expect("first manifest");
    let warm = run(&dir, 0..3);
    assert_eq!(warm.cells_cached, 3);

    cold.write_manifest(&dir).expect("write one");
    assert_eq!(manifests(&dir), ["camp.json", "camp.json.spare"]);
    let spare = ino(&spare_path(&live(&dir)));
    warm.write_manifest(&dir).expect("write two");
    assert_eq!(manifests(&dir), ["camp.json", "camp.json.spare"]);
    assert_eq!(std::fs::read_to_string(live(&dir)).expect("live"), body(&warm), "latest bytes");
    assert_eq!(ino(&live(&dir)), spare, "the spare inode went live");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_leftovers_sweep_to_the_live_manifest_and_its_spare() {
    // What a kill leaves at each step of the replace protocol; every
    // leftover carries a `.tmp.` name.
    for (tag, with_spare) in
        [("link-no-spare", false), ("link-with-spare", true), ("claimed-spare", true)]
    {
        let dir = tmp_dir(tag);
        let report = run(&dir, 0..2);
        report.write_manifest(&dir).expect("manifest");
        if with_spare {
            report.write_manifest(&dir).expect("manifest with spare");
        }
        let m = dir.join("manifests");
        match tag {
            // Killed after step 3: a fresh temp and a second link of the
            // live manifest.
            "link-no-spare" => {
                std::fs::write(m.join("camp.json.tmp.9.0"), "{\"half").expect("plant temp");
                std::fs::hard_link(live(&dir), m.join("camp.json.tmp.9.1")).expect("plant link");
            }
            "link-with-spare" => {
                std::fs::hard_link(live(&dir), m.join("camp.json.tmp.9.1")).expect("plant link");
            }
            // Killed after step 1: the spare under its claimed temp name.
            _ => std::fs::rename(spare_path(&live(&dir)), m.join("camp.json.tmp.9.0"))
                .expect("plant claim"),
        }
        let planted = manifests(&dir).iter().filter(|n| n.contains(".tmp.")).count() as u64;
        assert_eq!(cache::sweep_stats(&dir).manifest_tmp, planted, "{tag}");
        report.write_manifest(&dir).expect("write after the sweep");
        assert_eq!(manifests(&dir), ["camp.json", "camp.json.spare"], "{tag}");
        assert_eq!(std::fs::read_to_string(live(&dir)).expect("live"), body(&report), "{tag}");
        let audit = store::fsck(&dir, false);
        assert!(audit.is_clean(), "{tag}: {:?}", audit.findings);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn pinned_manifest_faults_with_a_spare_keep_the_prior_manifest_and_the_spare() {
    let dir = tmp_dir("faults");
    let report = run(&dir, 0..2);
    report.write_manifest(&dir).expect("manifest");
    report.write_manifest(&dir).expect("manifest with spare");
    let before = std::fs::read_to_string(live(&dir)).expect("prior manifest");
    for fault in [FaultKind::RenameFail, FaultKind::Enospc, FaultKind::Eio] {
        let spare = ino(&spare_path(&live(&dir)));
        let mut plan = FaultPlan::default();
        plan.pin(OpKind::Write, "manifests", fault, 1);
        let vfs = Vfs::faulty(plan);
        let err = report.write_manifest_with(&vfs, &dir).expect_err("fault surfaces");
        assert!(err.to_string().contains("vfs injected"), "{fault:?}: {err}");
        assert_eq!(vfs.injected(), 1, "{fault:?}: one roll per publish");
        assert_eq!(std::fs::read_to_string(live(&dir)).expect("live"), before, "{fault:?}");
        assert_eq!(ino(&spare_path(&live(&dir))), spare, "{fault:?} must keep the spare");
        assert_eq!(manifests(&dir), ["camp.json", "camp.json.spare"], "{fault:?} litter");
    }
    // A torn write publishes the torn half, as the atomic path does, and
    // still keeps the replaced inode; the next clean write heals it.
    let mut plan = FaultPlan::default();
    plan.pin(OpKind::Write, "manifests", FaultKind::TornWrite, 1);
    assert!(report.write_manifest_with(&Vfs::faulty(plan), &dir).is_err());
    let torn = std::fs::read_to_string(live(&dir)).expect("torn manifest");
    assert_eq!(torn, before[..before.len() / 2]);
    assert_eq!(manifests(&dir), ["camp.json", "camp.json.spare"]);
    report.write_manifest(&dir).expect("clean rewrite");
    assert_eq!(std::fs::read_to_string(live(&dir)).expect("healed"), before);
    assert!(store::fsck(&dir, false).is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

fn intent_lines(dir: &Path) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(store::intent_path(dir, "camp")).unwrap_or_default();
    text.lines()
        .map(|line| {
            let record = checked::unseal(line).expect("intent lines verify");
            let field = |k: &str| record.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("op"), field("key"))
        })
        .collect()
}

#[test]
fn a_fully_cached_resume_leaves_the_intent_log_byte_identical() {
    let dir = tmp_dir("intent-kept");
    run(&dir, 0..3);
    let log = store::intent_path(&dir, "camp");
    let before = std::fs::read(&log).expect("cold intent log");
    assert_eq!(intent_lines(&dir).len(), 6, "a begin and an end per put");
    for _ in 0..2 {
        let warm = run(&dir, 0..3);
        assert_eq!(warm.cells_cached, 3);
        assert_eq!(warm.intents_resolved, 0);
        assert_eq!(std::fs::read(&log).expect("kept log"), before, "resume rewrote the log");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unresolved_intent_log_is_removed_and_counted_once() {
    let dir = tmp_dir("intent-unresolved");
    run(&dir, 0..3);
    let log = store::intent_path(&dir, "camp");
    let key = cache::cell_key(&Runner::new(1).code_version, &spec(1));
    let begin = Json::obj(vec![("op", Json::Str("begin".into())), ("key", Json::Str(key.hex()))]);
    let mut text = std::fs::read_to_string(&log).expect("cold intent log");
    text.push_str(&checked::seal(&begin));
    text.push('\n');
    std::fs::write(&log, text).expect("plant an unresolved begin");

    let first = run(&dir, 0..3);
    assert_eq!(first.intents_resolved, 1);
    assert_eq!(first.torn_entries_removed, 0, "the object itself is whole");
    assert_eq!(first.cells_cached, 3);
    assert!(intent_lines(&dir).is_empty(), "the spent log is removed");
    let second = run(&dir, 0..3);
    assert_eq!(second.intents_resolved, 0, "counted once");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_first_put_after_a_kept_log_leaves_only_this_campaigns_lines() {
    let dir = tmp_dir("intent-reset");
    run(&dir, 0..3);
    let grown = run(&dir, 0..5);
    assert_eq!(grown.store.puts, 2);
    let code = Runner::new(1).code_version;
    let expected: Vec<(String, String)> = (3..5)
        .flat_map(|i| {
            let hex = cache::cell_key(&code, &spec(i)).hex();
            [("begin".to_string(), hex.clone()), ("end".to_string(), hex)]
        })
        .collect();
    assert_eq!(intent_lines(&dir), expected);
    assert!(store::fsck(&dir, false).is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}
