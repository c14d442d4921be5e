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
//!   fast (exit 2) without touching the journal, and a SIGKILLed
//!   campaign leaves no lock behind: its `--resume` runs and ends
//!   byte-identical to an uninterrupted run;
//! * the hidden `worker` subcommand's contract, which the campaign
//!   benchmark's tracer also relies on: `hello` first, exit 0 on
//!   `shutdown` before any campaign, only the sent campaign's cells
//!   served, and a nonzero exit on a campaign frame it cannot decode.

use jsonio::framed::{FrameReader, FrameWriter};
use jsonio::Json;
use runner::proto::{FromWorker, ToWorker, WorkOutcome, PROTO_VERSION};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

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
    // Hold the label's lock the way another smi-lab invocation that owns
    // this campaign right now does: a kernel lock on the file.
    let lock = cache.join("journal/table2.lock");
    std::fs::create_dir_all(lock.parent().unwrap()).unwrap();
    let holder = std::fs::File::create(&lock).unwrap();
    holder.try_lock().unwrap();
    let out = smi_lab(&["table2", "--quick", "--cache-dir", cache.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "contended campaign must fail fast");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&lock.display().to_string()), "stderr names the lock: {stderr}");
    assert!(!stderr.contains("remove"), "a held lock is never removed by hand: {stderr}");
    assert!(
        !cache.join("journal/table2.jsonl").exists(),
        "the refused campaign must not touch the journal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_campaign_releases_its_lock_and_resume_is_byte_identical() {
    let dir = tmp_dir("lock-kill");
    let cache = dir.join("cache");
    let cache_arg = cache.to_str().unwrap();
    let records = |name: &str| dir.join(name).display().to_string();
    let campaign = ["table1", "--reps", "30", "--jobs", "1", "--cache-dir", cache_arg];

    // A long cached campaign, running until its first journal line lands.
    let mut running = Command::new(env!("CARGO_BIN_EXE_smi-lab"))
        .args(campaign)
        .args(["--records", &records("killed.jsonl")])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn campaign");
    let journal = cache.join("journal/table1.jsonl");
    while !std::fs::read_to_string(&journal).is_ok_and(|text| text.contains('\n')) {
        assert!(running.try_wait().unwrap().is_none(), "campaign ended before its first line");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // While it runs, the same label is refused.
    let out = smi_lab(&[&campaign[..], &["--records", &records("refused.jsonl")]].concat());
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));

    // SIGKILL leaves the lock file behind, but no lock: resume runs.
    running.kill().unwrap();
    running.wait().unwrap();
    assert!(cache.join("journal/table1.lock").exists());
    let resumed =
        smi_lab(&[&campaign[..], &["--resume", "--records", &records("resumed.jsonl")]].concat());
    assert_eq!(resumed.status.code(), Some(0), "{}", String::from_utf8_lossy(&resumed.stderr));

    let reference = smi_lab(&[
        "table1",
        "--reps",
        "30",
        "--no-cache",
        "--cache-dir",
        cache_arg,
        "--records",
        &records("reference.jsonl"),
    ]);
    assert_eq!(reference.status.code(), Some(0));
    assert_eq!(
        read(&dir.join("resumed.jsonl")),
        read(&dir.join("reference.jsonl")),
        "a resumed campaign's records equal an uninterrupted run's"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `smi-lab worker <flags>`: read its first frame, send `frames`,
/// close its stdin, and return every reply it wrote and its exit code.
fn worker_session(flags: &[&str], frames: &[Json]) -> (Vec<FromWorker>, Option<i32>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_smi-lab"))
        .arg("worker")
        .args(flags)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker");
    let mut replies = FrameReader::new(child.stdout.take().expect("stdout"));
    let hello = replies.read().expect("hello frame").expect("a frame before EOF");
    {
        let mut tx = FrameWriter::new(child.stdin.take().expect("stdin"));
        for frame in frames {
            tx.write(frame).expect("send frame");
        }
    }
    let mut out = vec![FromWorker::from_json(&hello).expect("decodes")];
    while let Ok(Some(frame)) = replies.read() {
        out.push(FromWorker::from_json(&frame).expect("decodes"));
    }
    (out, child.wait().expect("wait worker").code())
}

fn campaign(label: &str, argv: &[&str]) -> Json {
    ToWorker::Campaign {
        campaign: Json::obj(vec![
            ("label", Json::Str(label.into())),
            ("argv", Json::Arr(argv.iter().map(|a| Json::Str(a.to_string())).collect())),
        ]),
    }
    .to_json()
}

#[test]
fn worker_says_hello_then_exits_zero_on_shutdown() {
    // The tracer's spawn probe: flags the worker parses and ignores.
    let (replies, code) =
        worker_session(&["--reps", "2", "--seed", "1"], &[ToWorker::Shutdown.to_json()]);
    assert!(matches!(replies[..], [FromWorker::Hello { proto: PROTO_VERSION, .. }]), "{replies:?}");
    assert_eq!(code, Some(0));
    // A supervisor that closes the pipe before sending a campaign is a
    // normal drain too.
    assert_eq!(worker_session(&[], &[]).1, Some(0));
}

#[test]
fn worker_serves_only_the_campaign_it_is_sent() {
    let opts = analysis::RunOptions::quick();
    let table2 = analysis::cells::table_cells(nas::Bench::Ep, &opts).remove(0).spec;
    let table1 = analysis::cells::table_cells(nas::Bench::Bt, &opts).remove(0).spec;
    let run = |id, spec| ToWorker::Run { id, attempt: 1, budget_units: 0, spec }.to_json();
    let (replies, code) = worker_session(
        &[],
        &[campaign("table2", &["table2", "--quick"]), run(1, table2), run(2, table1)],
    );
    assert_eq!(code, Some(0), "EOF after the last run is a clean drain");
    assert!(
        matches!(&replies[1], FromWorker::Done { id: 1, outcome: WorkOutcome::Ok { .. } }),
        "{:?}",
        replies[1]
    );
    assert!(
        matches!(
            &replies[2],
            FromWorker::Done { id: 2, outcome: WorkOutcome::Unresolvable { .. } }
        ),
        "a table1 cell is not in a table2 worker: {:?}",
        replies[2]
    );
}

#[test]
fn worker_exits_nonzero_on_a_campaign_it_cannot_decode() {
    for frame in [
        Json::obj(vec![("type", Json::Str("campaign".into()))]),
        campaign("table9", &["table2"]),
        campaign("table2", &["table2", "--reps", "many"]),
        ToWorker::Run {
            id: 1,
            attempt: 1,
            budget_units: 0,
            spec: analysis::cells::table_cells(nas::Bench::Ep, &analysis::RunOptions::quick())
                .remove(0)
                .spec,
        }
        .to_json(),
    ] {
        let (replies, code) = worker_session(&[], std::slice::from_ref(&frame));
        assert_eq!(replies.len(), 1, "only hello before {frame:?}");
        assert_eq!(code, Some(1), "{frame:?}");
    }
}
