//! End-to-end guards on process-isolated execution, driven through the
//! real `smi-lab` binary:
//!
//! * `--isolate --jobs N` produces records byte-identical to the
//!   in-process runner, on real simulation cells (table, figure, and
//!   custom noise-spec cells);
//! * a campaign whose worker is SIGKILLed mid-cell (`--isolate-kill`)
//!   exits degraded with the cell quarantined as `worker-crash`, then
//!   a `--resume` without the kill recomputes only that cell and ends
//!   byte-identical to a fault-free run;
//! * a held campaign lock makes a concurrent duplicate invocation fail
//!   fast (exit 2) without touching the journal.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smi-lab-iso-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn smi_lab(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_smi-lab")).args(args).output().expect("run smi-lab")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn isolated_records_match_in_process_byte_for_byte() {
    // table2 resolves fixed table cells in the worker's catalogue,
    // figure2 the figure cells, and a custom `--noise` spec the cell the
    // worker adds for that spec alone.
    for (tag, command) in [
        ("table2", &["table2"][..]),
        ("figure2", &["figure2"][..]),
        ("noise", &["noise", "--noise", "core-jitter"][..]),
    ] {
        let dir = tmp_dir(&format!("identity-{tag}"));
        let rec_in = dir.join("inproc.jsonl");
        let rec_iso = dir.join("isolated.jsonl");
        let cache = dir.join("cache");
        let base = |records: &Path| {
            let mut args: Vec<String> = command.iter().map(|s| s.to_string()).collect();
            args.extend([
                "--quick".to_string(),
                "--no-cache".to_string(),
                "--cache-dir".to_string(),
                cache.display().to_string(),
                "--records".to_string(),
                records.display().to_string(),
                "--jobs".to_string(),
                "2".to_string(),
            ]);
            args
        };
        let in_proc = smi_lab(&base(&rec_in).iter().map(String::as_str).collect::<Vec<_>>());
        assert!(in_proc.status.success(), "{}", String::from_utf8_lossy(&in_proc.stderr));
        let mut iso_args = base(&rec_iso);
        iso_args.push("--isolate".to_string());
        let iso = smi_lab(&iso_args.iter().map(String::as_str).collect::<Vec<_>>());
        assert!(iso.status.success(), "{tag}: {}", String::from_utf8_lossy(&iso.stderr));
        let in_bytes = read(&rec_in);
        assert!(!in_bytes.is_empty(), "reference run produced records");
        assert_eq!(
            in_bytes,
            read(&rec_iso),
            "{tag}: subprocess execution must not perturb a single record byte"
        );
        assert_eq!(in_proc.stdout, iso.stdout, "{tag}: rendered artifacts agree too");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sigkilled_worker_degrades_then_resume_heals_byte_identically() {
    let dir = tmp_dir("kill-resume");
    let cache = dir.join("cache");
    let rec_ref = dir.join("reference.jsonl");
    let rec_resumed = dir.join("resumed.jsonl");

    // Fault-free reference (no cache so every cell computes).
    let reference = smi_lab(&[
        "table2",
        "--quick",
        "--no-cache",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--records",
        rec_ref.to_str().unwrap(),
    ]);
    assert!(reference.status.success());

    // Campaign with the worker SIGKILLed whenever A-n1-r1 is dispatched:
    // degraded exit, the cell quarantined `worker-crash` in the manifest,
    // every other cell's record intact.
    let killed = smi_lab(&[
        "table2",
        "--quick",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--jobs",
        "2",
        "--isolate",
        "--isolate-kill",
        "A-n1-r1",
    ]);
    assert_eq!(killed.status.code(), Some(1), "a killed worker degrades, never aborts");
    let manifest = read(&cache.join("manifests/table2.json"));
    let parsed = jsonio::Json::parse(&manifest).expect("manifest parses");
    assert_eq!(parsed.get("status").and_then(|s| s.as_str()), Some("degraded"));
    assert_eq!(parsed.get("cells_crashed").and_then(|c| c.as_u64()), Some(1));
    let quarantined = parsed.get("quarantined").and_then(|q| q.as_array()).expect("list");
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].get("cell").and_then(|c| c.as_str()), Some("A-n1-r1"));
    assert_eq!(
        quarantined[0].get("reason").and_then(|r| r.get("kind")).and_then(|k| k.as_str()),
        Some("worker-crash"),
        "machine-readable crash reason in the manifest"
    );

    // `--resume` without the kill: only the crashed cell recomputes
    // (the rest come from cache) and the records are byte-identical to
    // the fault-free reference.
    let resumed = smi_lab(&[
        "table2",
        "--quick",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--records",
        rec_resumed.to_str().unwrap(),
        "--jobs",
        "2",
        "--isolate",
        "--resume",
    ]);
    assert!(
        resumed.status.success(),
        "resume must heal: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        read(&rec_ref),
        read(&rec_resumed),
        "healed campaign must reproduce the fault-free bytes"
    );
    let manifest = read(&cache.join("manifests/table2.json"));
    let parsed = jsonio::Json::parse(&manifest).expect("manifest parses");
    let total = parsed.get("cells_total").and_then(|c| c.as_u64()).expect("total");
    assert_eq!(
        parsed.get("cells_cached").and_then(|c| c.as_u64()),
        Some(total - 1),
        "exactly the crashed cell recomputed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_duplicate_campaign_fails_fast_with_exit_2() {
    let dir = tmp_dir("locked");
    let cache = dir.join("cache");
    // Plant a lock held by pid 1 (init: always alive where /proc
    // exists, conservatively treated as live elsewhere) — the scenario
    // where another smi-lab invocation owns this campaign right now.
    let lock = cache.join("journal/table2.lock");
    std::fs::create_dir_all(lock.parent().unwrap()).unwrap();
    std::fs::write(&lock, "1\n").unwrap();
    let out = smi_lab(&["table2", "--quick", "--cache-dir", cache.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "contended campaign must fail fast");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("held by live process 1"), "stderr names the holder: {stderr}");
    assert!(
        !cache.join("journal/table2.jsonl").exists(),
        "the refused campaign must not touch the journal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
