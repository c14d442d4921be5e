//! Result-cache behavior: hits keyed on the full cell identity,
//! invalidation on any identity change, corrupted-entry recovery
//! (recompute and count — never panic, never return bad data), unique
//! temp-file naming under concurrent stores, and orphan sweeping.

use jsonio::Json;
use runner::cache::{cell_key, entry_path, load_with, store_with, sweep_stats, Lookup};
use runner::vfs::Vfs;
use runner::{CacheMode, Cell, CellSpec, Runner};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("smi-lab-cache-behavior-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp cache dir");
    dir
}

fn spec(cell: &str, seed: u64, reps: u32) -> CellSpec {
    CellSpec {
        experiment: "table2".into(),
        cell: cell.into(),
        params: Json::obj(vec![("nodes", Json::U64(4)), ("jitter", Json::F64(0.004))]),
        seed,
        reps,
    }
}

fn payload(v: u64) -> Json {
    Json::obj(vec![("value", Json::U64(v))])
}

#[test]
fn store_then_load_round_trips() {
    let dir = tmp_dir("roundtrip");
    let s = spec("A-n4-r1", 20160816, 6);
    let key = cell_key("v1", &s);
    assert_eq!(load_with(&Vfs::real(), &dir, key, "v1", &s), Lookup::Miss, "cold cache must miss");
    store_with(&Vfs::real(), &dir, key, "v1", &s, &payload(42)).expect("store");
    assert_eq!(load_with(&Vfs::real(), &dir, key, "v1", &s), Lookup::Hit(payload(42)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn any_identity_change_misses() {
    let dir = tmp_dir("invalidation");
    let s = spec("A-n4-r1", 20160816, 6);
    store_with(&Vfs::real(), &dir, cell_key("v1", &s), "v1", &s, &payload(1)).expect("store");

    // Different code version, experiment, cell, params, seed, or reps each
    // produce a different key, so the stored entry is never found.
    let variants: Vec<CellSpec> = vec![
        spec("A-n4-r1", 20160817, 6),
        spec("A-n4-r1", 20160816, 2),
        spec("A-n8-r1", 20160816, 6),
        CellSpec { experiment: "table3".into(), ..spec("A-n4-r1", 20160816, 6) },
        CellSpec {
            params: Json::obj(vec![("nodes", Json::U64(8)), ("jitter", Json::F64(0.004))]),
            ..spec("A-n4-r1", 20160816, 6)
        },
    ];
    for v in &variants {
        let key = cell_key("v1", v);
        assert_eq!(
            load_with(&Vfs::real(), &dir, key, "v1", v),
            Lookup::Miss,
            "variant {v:?} must miss"
        );
    }
    assert_eq!(
        load_with(&Vfs::real(), &dir, cell_key("v2", &s), "v2", &s),
        Lookup::Miss,
        "new code tag must miss"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entries_are_corrupt_not_panics() {
    let dir = tmp_dir("corruption");
    let s = spec("A-n4-r1", 20160816, 6);
    let key = cell_key("v1", &s);
    store_with(&Vfs::real(), &dir, key, "v1", &s, &payload(7)).expect("store");
    let path = entry_path(&dir, key);

    for garbage in [
        "",                                // truncated to nothing
        "{\"schema\":1",                   // cut off mid-object
        "not json at all",                 // arbitrary bytes
        "{\"schema\":99}",                 // wrong schema version
        "[1,2,3]",                         // wrong shape entirely
        "{\"schema\":1,\"key\":\"0000\"}", // identity fields missing/wrong
    ] {
        std::fs::write(&path, garbage).expect("inject corruption");
        assert_eq!(
            load_with(&Vfs::real(), &dir, key, "v1", &s),
            Lookup::Corrupt,
            "corrupt entry {garbage:?} must be distinguishable from a cold miss"
        );
    }

    // A tampered-but-correctly-resealed entry still fails the identity
    // check: flip one identity field, reseal so the frame is valid, and
    // the load must call it corrupt anyway.
    store_with(&Vfs::real(), &dir, key, "v1", &s, &payload(7)).expect("store");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut entry = jsonio::checked::unseal(text.trim_end()).unwrap();
    if let Json::Obj(fields) = &mut entry {
        for (k, v) in fields.iter_mut() {
            if k == "seed" {
                *v = Json::U64(1);
            }
        }
    }
    std::fs::write(&path, jsonio::checked::seal(&entry)).unwrap();
    assert_eq!(
        load_with(&Vfs::real(), &dir, key, "v1", &s),
        Lookup::Corrupt,
        "identity mismatch is corruption"
    );

    // A single flipped payload byte inside an otherwise intact frame
    // fails the checksum — the torn-write detection the store rests on.
    store_with(&Vfs::real(), &dir, key, "v1", &s, &payload(7)).expect("store");
    let sealed = std::fs::read_to_string(&path).unwrap();
    let flipped = sealed.replacen("\"value\":7", "\"value\":8", 1);
    assert_ne!(sealed, flipped, "the tamper must hit the payload");
    std::fs::write(&path, flipped).unwrap();
    assert_eq!(
        load_with(&Vfs::real(), &dir, key, "v1", &s),
        Lookup::Corrupt,
        "checksum catches flipped bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runner_recomputes_through_corruption_and_repairs_the_entry() {
    let dir = tmp_dir("repair");
    let executions = Arc::new(AtomicU64::new(0));
    let make_cells = |executions: &Arc<AtomicU64>| {
        let executions = Arc::clone(executions);
        vec![Cell::new(spec("A-n4-r1", 1, 2), move || {
            executions.fetch_add(1, Ordering::Relaxed);
            payload(99)
        })]
    };
    let mut runner = Runner::new(1);
    runner.cache_dir = dir.clone();
    runner.verbose = false;

    let first = runner.run("cold", make_cells(&executions));
    assert_eq!(executions.load(Ordering::Relaxed), 1);
    let key = first.outcomes[0].key;

    // Corrupt the entry on disk: the next run must recompute (not panic,
    // not return garbage), count the corruption, and leave a valid entry.
    std::fs::write(entry_path(&dir, key), "garbage").unwrap();
    let second = runner.run("corrupted", make_cells(&executions));
    assert_eq!(executions.load(Ordering::Relaxed), 2, "corruption forces recompute");
    assert!(!second.outcomes[0].cached());
    assert_eq!(second.outcomes[0].payload(), Some(&payload(99)));
    assert_eq!(second.cache_load_corruptions, 1, "corruption must be counted, not silent");
    assert_eq!(second.status(), runner::RunStatus::Degraded);

    let third = runner.run("repaired", make_cells(&executions));
    assert_eq!(executions.load(Ordering::Relaxed), 2, "rewritten entry hits again");
    assert!(third.outcomes[0].cached());
    assert_eq!(third.status(), runner::RunStatus::Clean);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_off_never_touches_disk() {
    let dir = tmp_dir("off");
    let executions = Arc::new(AtomicU64::new(0));
    let mut runner = Runner::new(1);
    runner.cache_dir = dir.clone();
    runner.cache_mode = CacheMode::Off;
    runner.verbose = false;
    for _ in 0..2 {
        let executions = Arc::clone(&executions);
        runner.run(
            "off",
            vec![Cell::new(spec("A-n4-r1", 1, 2), move || {
                executions.fetch_add(1, Ordering::Relaxed);
                payload(5)
            })],
        );
    }
    assert_eq!(executions.load(Ordering::Relaxed), 2, "no-cache must recompute every run");
    let entries = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    assert_eq!(entries, 0, "no-cache must not write entries (nor journals)");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_stores_of_the_same_key_never_collide_on_tmp_files() {
    let dir = tmp_dir("tmp-race");
    let s = spec("A-n4-r1", 20160816, 6);
    let key = cell_key("v1", &s);
    // The old scheme named the temp sibling `<entry>.tmp.<pid>` — every
    // thread in this process shared it, so one thread's rename raced
    // another's write. With per-store-unique names, N threads hammering
    // the same key all succeed and a valid entry survives.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..50 {
                    store_with(&Vfs::real(), &dir, key, "v1", &s, &payload(42))
                        .expect("racing store");
                }
            });
        }
    });
    assert_eq!(load_with(&Vfs::real(), &dir, key, "v1", &s), Lookup::Hit(payload(42)));
    let shard = entry_path(&dir, key);
    let leftovers: Vec<_> = std::fs::read_dir(shard.parent().unwrap())
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "no temp file may survive the race: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn startup_sweep_removes_stranded_tmp_files_only() {
    let dir = tmp_dir("sweep");
    let s = spec("A-n4-r1", 20160816, 6);
    let key = cell_key("v1", &s);
    store_with(&Vfs::real(), &dir, key, "v1", &s, &payload(3)).expect("store");
    let entry = entry_path(&dir, key);
    // Strand two orphans (a killed process's torn writes) next to the
    // real entry and one under manifests/.
    let orphan1 = entry.with_file_name("aaaa.json.tmp.12345.0");
    let orphan2 = entry.with_file_name("bbbb.json.tmp.12345.1");
    std::fs::write(&orphan1, "torn").unwrap();
    std::fs::write(&orphan2, "torn").unwrap();
    std::fs::create_dir_all(dir.join("manifests")).unwrap();
    std::fs::write(dir.join("manifests").join("x.json.tmp.1.2"), "torn").unwrap();

    assert_eq!(sweep_stats(&dir).total(), 3);
    assert!(!orphan1.exists() && !orphan2.exists());
    assert!(entry.exists(), "the real entry must survive the sweep");
    assert_eq!(load_with(&Vfs::real(), &dir, key, "v1", &s), Lookup::Hit(payload(3)));
    assert_eq!(sweep_stats(&dir).total(), 0, "second sweep finds nothing");

    // A fresh Runner::run sweeps on startup and reports the count.
    let orphan3 = entry.with_file_name("cccc.json.tmp.9.9");
    std::fs::write(&orphan3, "torn").unwrap();
    let mut runner = Runner::new(1);
    runner.cache_dir = dir.clone();
    runner.verbose = false;
    let report = runner.run("sweep", vec![Cell::new(spec("A-n4-r1", 1, 1), || payload(1))]);
    assert_eq!(report.orphans_swept, 1);
    assert!(!orphan3.exists());
    let _ = std::fs::remove_dir_all(&dir);
}
