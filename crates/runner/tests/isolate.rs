//! The process-isolation gate: campaigns run under `--isolate`
//! semantics against a *real* worker subprocess (the `chaos-worker`
//! fixture binary), with real SIGKILLs, aborts, hangs, and deadline
//! kills — asserting the supervised path reproduces the in-process
//! path byte for byte and survives every process-level fault.

#![cfg(feature = "chaos")]

use jsonio::Json;
use runner::chaos::{self, ChaosPlan, Fault};
use runner::supervisor::IsolateConfig;
use runner::testcells::{fixture_cells, fixture_probe};
use runner::{journal, CacheMode, RunReport, RunStatus, Runner};
use std::path::{Path, PathBuf};

const SEED: u64 = 3;

/// The campaign frame that makes the `chaos-worker` fixture build
/// `fixture_cells(cells, seed)` with `faults` (`cell=fault;...`) pinned.
fn fixture_campaign(cells: u64, seed: u64, faults: &str) -> Json {
    Json::obj(vec![
        ("cells", Json::U64(cells)),
        ("seed", Json::U64(seed)),
        ("faults", Json::Str(faults.into())),
    ])
}

/// The fixture worker, sent a campaign of `cells` cells at `SEED` with
/// `faults` pinned.
fn worker(cells: u64, faults: &str) -> IsolateConfig {
    let cmd = vec![env!("CARGO_BIN_EXE_chaos-worker").to_string()];
    IsolateConfig::new(cmd, fixture_campaign(cells, SEED, faults))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smi-lab-isolate-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp cache dir");
    dir
}

/// An isolated runner with test-friendly supervision timings.
fn isolated_runner(cells: u64, faults: &str, workers: usize) -> Runner {
    let mut cfg = worker(cells, faults);
    cfg.workers = workers;
    cfg.backoff_ms = 1;
    let mut r = Runner::new(workers);
    r.cache_mode = CacheMode::Off;
    r.verbose = false;
    r.isolate = Some(cfg);
    r
}

fn in_process(cells: u64) -> RunReport {
    let mut r = Runner::new(2);
    r.cache_mode = CacheMode::Off;
    r.verbose = false;
    r.perf_probe = Some(fixture_probe());
    r.run("iso", fixture_cells(cells, SEED))
}

#[test]
fn isolated_records_are_byte_identical_to_in_process() {
    let reference = in_process(8);
    assert_eq!(reference.status(), RunStatus::Clean);

    for workers in [1, 3] {
        let runner = isolated_runner(8, "", workers);
        let report = runner.run("iso", fixture_cells(8, SEED));
        assert_eq!(report.status(), RunStatus::Clean, "workers={workers}");
        assert_eq!(report.cells_total, 8);
        assert_eq!(
            report.records_jsonl(),
            reference.records_jsonl(),
            "isolated records must be byte-identical (workers={workers})"
        );
        // The worker's perf harvest crosses the wire: same engine totals
        // as the in-process probe (sum of (i+1)*100 for i in 0..8).
        assert_eq!(report.engine.events_popped, reference.engine.events_popped);
        assert_eq!(report.engine.events_popped, 3600);
        assert_eq!(report.engine.runs, 8);
        let iso = report.isolate.as_ref().expect("supervision accounting");
        assert_eq!(iso.workers.len(), workers);
        assert_eq!(iso.workers.iter().map(|w| w.cells_ok).sum::<u64>(), 8);
        assert_eq!(iso.workers.iter().map(|w| w.crashes).sum::<u64>(), 0);
    }
}

#[test]
fn sigkilled_worker_never_takes_down_the_campaign_and_resume_heals_it() {
    let reference = in_process(6);

    // Phase 1: the supervisor SIGKILLs its own worker every time c4 is
    // dispatched (a real `Child::kill`, not a simulated error), until
    // the cell's attempt budget quarantines it as worker-crash. The
    // worker also wedges on c4, pinning the kill/completion race: the
    // Done frame can never beat the SIGKILL.
    let dir = tmp_dir("kill-resume");
    let mut cfg = worker(6, "c4=hang");
    cfg.workers = 2;
    cfg.backoff_ms = 1;
    cfg.respawn_budget = 5;
    cfg.kill_cells = vec!["c4".into()];
    let mut runner = Runner::new(2);
    runner.cache_dir = dir.clone();
    runner.verbose = false;
    runner.isolate = Some(cfg);
    let killed = runner.run("iso-kill", fixture_cells(6, SEED));
    assert_eq!(killed.status(), RunStatus::Degraded, "a crash degrades, never aborts");
    assert_eq!(killed.cells_crashed, 1);
    assert_eq!(killed.cells_total, 6, "the campaign drains past the kills");
    let q = &killed.quarantined[0];
    assert_eq!(q.cell, "c4");
    assert_eq!(q.reason.get("kind").and_then(Json::as_str), Some("worker-crash"));
    assert_eq!(q.attempts, runner.max_attempts);
    // Survivors are byte-identical to the fault-free run.
    let reference_jsonl = reference.records_jsonl();
    let surviving: Vec<&str> = reference_jsonl.lines().filter(|l| !l.contains("\"c4\"")).collect();
    let killed_jsonl = killed.records_jsonl();
    assert_eq!(killed_jsonl.lines().collect::<Vec<_>>(), surviving);
    // The deaths were journaled, so resume knows the cell was dispatched.
    let j = journal::Journal::load(&journal::journal_path(&dir, "iso-kill"));
    assert_eq!(j.status(killed.outcomes[4].key), Some(journal::Status::Crashed));

    // Phase 2: `--resume` without the kill. Only the quarantined cell
    // recomputes (survivors come from cache) and the campaign is Clean
    // with records byte-identical to the fault-free reference.
    let mut cfg = worker(6, "");
    cfg.workers = 2;
    cfg.backoff_ms = 1;
    let mut runner = Runner::new(2);
    runner.cache_dir = dir.clone();
    runner.verbose = false;
    runner.isolate = Some(cfg);
    let resumed = runner.run("iso-kill", fixture_cells(6, SEED));
    assert_eq!(resumed.status(), RunStatus::Clean);
    assert_eq!(resumed.cells_cached, 5, "only the crashed cell recomputes");
    assert_eq!(resumed.journal_prior_ok, 5);
    assert_eq!(
        resumed.records_jsonl(),
        reference.records_jsonl(),
        "healed campaign must match the fault-free bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aborting_worker_burns_attempts_then_quarantines_only_its_cell() {
    // The worker calls `std::process::abort()` *inside* c2 on every
    // attempt — the supervisor sees only a dead pipe, exactly like a
    // segfault. The cell quarantines; every other cell survives.
    let reference = in_process(6);
    let mut runner = isolated_runner(6, "c2=abort", 2);
    if let Some(cfg) = runner.isolate.as_mut() {
        cfg.respawn_budget = 5;
    }
    let report = runner.run("iso-abort", fixture_cells(6, SEED));
    assert_eq!(report.status(), RunStatus::Degraded);
    assert_eq!(report.cells_crashed, 1);
    let q = &report.quarantined[0];
    assert_eq!(q.cell, "c2");
    assert_eq!(q.reason.get("kind").and_then(Json::as_str), Some("worker-crash"));
    assert_eq!(
        q.reason.get("cause").and_then(Json::as_str),
        Some("worker-exit"),
        "an abort presents as the worker exiting mid-cell"
    );
    let reference_jsonl = reference.records_jsonl();
    let surviving: Vec<&str> = reference_jsonl.lines().filter(|l| !l.contains("\"c2\"")).collect();
    let report_jsonl = report.records_jsonl();
    assert_eq!(report_jsonl.lines().collect::<Vec<_>>(), surviving);
}

#[test]
fn hung_worker_is_shot_by_the_watchdog() {
    // c1 wedges forever in the worker; only the supervisor's wall-clock
    // watchdog can end it. Wall time decides liveness here — never a
    // record byte: the surviving records are still byte-identical.
    let reference = in_process(4);
    let mut runner = isolated_runner(4, "c1=hang", 1);
    runner.max_attempts = 2;
    if let Some(cfg) = runner.isolate.as_mut() {
        cfg.watchdog_ms = 250;
        cfg.respawn_budget = 5;
    }
    let report = runner.run("iso-hang", fixture_cells(4, SEED));
    assert_eq!(report.status(), RunStatus::Degraded);
    assert_eq!(report.cells_crashed, 1);
    let q = &report.quarantined[0];
    assert_eq!(q.cell, "c1");
    assert_eq!(q.reason.get("kind").and_then(Json::as_str), Some("worker-crash"));
    assert_eq!(q.reason.get("cause").and_then(Json::as_str), Some("watchdog-timeout"));
    assert_eq!(q.attempts, 2, "each watchdog shot burns one ordinary attempt");
    let reference_jsonl = reference.records_jsonl();
    let surviving: Vec<&str> = reference_jsonl.lines().filter(|l| !l.contains("\"c1\"")).collect();
    let report_jsonl = report.records_jsonl();
    assert_eq!(report_jsonl.lines().collect::<Vec<_>>(), surviving);
}

/// Each cell's attempts and each worker death's cell and cause, so a
/// failed retry count names the cell that spent the extra attempt.
fn attempt_account(report: &RunReport) -> String {
    let mut out = String::from("attempts per cell:");
    for o in &report.outcomes {
        out.push_str(&format!(" {}={}", o.spec.cell, o.attempts()));
    }
    for (slot, w) in report.isolate.iter().flat_map(|iso| iso.workers.iter().enumerate()) {
        out.push_str(&format!(
            "; slot {slot}: {} spawns, {} crashes, lost {:?}",
            w.spawns, w.crashes, w.lost
        ));
    }
    out
}

#[test]
fn worker_panics_cross_the_pipe_with_unchanged_retry_semantics() {
    // A panic *inside the worker* must behave exactly like an in-process
    // panic: transient ones retry (same worker, no crash), permanent
    // ones quarantine as `failed` after the attempt budget.
    let reference = in_process(6);
    // One slot: `PanicFirst` counts attempts per worker process, and a
    // retry is requeued to whichever slot pops it next. With two slots
    // c3's retry can land on the other worker, whose count is still 0,
    // and panic again.
    let transient = isolated_runner(6, "c3=panic1", 1).run("iso-panic", fixture_cells(6, SEED));
    assert_eq!(transient.status(), RunStatus::Clean, "{}", attempt_account(&transient));
    assert_eq!(transient.retries, 1, "{}", attempt_account(&transient));
    assert_eq!(transient.outcomes[3].attempts(), 2, "{}", attempt_account(&transient));
    assert_eq!(transient.records_jsonl(), reference.records_jsonl());
    let iso = transient.isolate.as_ref().expect("accounting");
    assert_eq!(iso.workers.iter().map(|w| w.crashes).sum::<u64>(), 0, "a panic is not a crash");

    let permanent = isolated_runner(6, "c3=panic", 2).run("iso-panic", fixture_cells(6, SEED));
    assert_eq!(permanent.status(), RunStatus::Failed, "a permanent panic still fails the run");
    assert_eq!(permanent.cells_failed, 1);
    assert!(permanent.quarantined[0].message.contains("chaos: permanent fault"));
}

#[test]
fn deadline_kills_are_deterministic_and_machine_readable() {
    // The golden deadline fixture: a 650-unit budget deadlines exactly
    // c6 (700 units) and c7 (800 units) — a pure function of cell
    // identity and budget, byte-stable across reruns.
    const GOLDEN_REASON_C6: &str = r#"{"kind":"deadline","budget_units":650,"spent_units":700}"#;

    let run_once = || {
        let mut runner = isolated_runner(8, "", 2);
        if let Some(cfg) = runner.isolate.as_mut() {
            cfg.deadline_units = 650;
        }
        runner.run("iso-deadline", fixture_cells(8, SEED))
    };
    let report = run_once();
    assert_eq!(report.status(), RunStatus::Degraded, "deadline kills degrade, never fail");
    assert_eq!(report.cells_deadline, 2);
    assert_eq!(report.cells_total, 8);
    let mut killed: Vec<&str> = report.quarantined.iter().map(|q| q.cell.as_str()).collect();
    killed.sort_unstable();
    assert_eq!(killed, ["c6", "c7"]);
    for q in &report.quarantined {
        assert_eq!(q.attempts, 1, "a deadline verdict is deterministic: never retried");
        assert_eq!(q.reason.get("kind").and_then(Json::as_str), Some("deadline"));
        assert_eq!(q.reason.get("budget_units").and_then(Json::as_u64), Some(650));
    }
    let c6 = report.quarantined.iter().find(|q| q.cell == "c6").expect("c6 quarantined");
    assert_eq!(c6.reason.to_string(), GOLDEN_REASON_C6, "golden machine-readable reason");
    assert_eq!(c6.message, "deadline: spent 700 work units over the 650-unit budget");

    // The manifest carries the quarantine with its budget, parseably.
    let m = report.manifest();
    assert_eq!(m.get("cells_deadline").and_then(Json::as_u64), Some(2));
    let listed = m.get("quarantined").and_then(Json::as_array).expect("quarantined list");
    let c6_m = listed
        .iter()
        .find(|q| q.get("cell").and_then(Json::as_str) == Some("c6"))
        .expect("c6 listed");
    assert_eq!(c6_m.get("reason").map(|r| r.to_string()), Some(GOLDEN_REASON_C6.to_string()));

    // Rerun: identical verdicts, identical surviving bytes.
    let again = run_once();
    assert_eq!(again.records_jsonl(), report.records_jsonl());
    assert_eq!(again.cells_deadline, 2);
    assert_eq!(
        again.quarantined.iter().map(|q| q.reason.to_string()).collect::<Vec<_>>(),
        report.quarantined.iter().map(|q| q.reason.to_string()).collect::<Vec<_>>()
    );
}

#[test]
fn mismatched_worker_catalog_is_a_structured_rejection() {
    // The worker holds a catalog seeded differently than the supervisor:
    // every cell's identity check fails in the worker and comes back as
    // a deterministic `unresolvable-cell` quarantine, not a crash loop.
    let mut cfg = worker(4, "");
    cfg.campaign = fixture_campaign(4, 999, "");
    cfg.backoff_ms = 1;
    let mut runner = Runner::new(1);
    runner.cache_mode = CacheMode::Off;
    runner.verbose = false;
    runner.isolate = Some(cfg);
    let report = runner.run("iso-mismatch", fixture_cells(4, SEED));
    assert_eq!(report.status(), RunStatus::Degraded);
    assert_eq!(report.cells_invalid, 4);
    for q in &report.quarantined {
        assert_eq!(
            q.reason.get("kind").and_then(Json::as_str),
            Some("unresolvable-cell"),
            "catalog mismatch must be a typed verdict"
        );
    }
    let iso = report.isolate.as_ref().expect("accounting");
    assert_eq!(iso.workers.iter().map(|w| w.crashes).sum::<u64>(), 0);
}

#[test]
fn a_campaign_the_worker_cannot_build_is_a_crash_not_an_answer() {
    // The worker rejects its campaign frame and exits before serving a
    // cell. Each dispatch dies with the worker: lost as an attempt, or
    // refused by the closed pipe (a crash that charges no attempt) until
    // the slot gives up. Either way every cell quarantines as a crash —
    // no payload is ever minted.
    let mut runner = isolated_runner(2, "", 1);
    runner.max_attempts = 2;
    if let Some(cfg) = runner.isolate.as_mut() {
        cfg.campaign = Json::obj(vec![("cells", Json::Str("two".into()))]);
    }
    let report = runner.run("iso-bad-campaign", fixture_cells(2, SEED));
    assert_eq!(report.status(), RunStatus::Degraded);
    assert_eq!(report.cells_crashed, 2);
    for q in &report.quarantined {
        let kind = q.reason.get("kind").and_then(Json::as_str);
        assert!(matches!(kind, Some("worker-crash" | "worker-pool-exhausted")), "{kind:?}");
    }
}

#[test]
fn a_released_campaign_lock_never_lingers_in_a_worker_being_spawned() {
    // A child between fork and exec holds a copy of every descriptor of
    // the process, the campaign lock's included. One thread keeps
    // spawning workers that die at once; the other reruns a cached
    // campaign under one label back to back. No rerun may find the
    // label locked.
    let dir = tmp_dir("lock-vs-spawn");
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut spawner = isolated_runner(1, "", 1);
            if let Some(cfg) = spawner.isolate.as_mut() {
                cfg.campaign = Json::Null;
            }
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                spawner.run("iso-spawner", fixture_cells(1, SEED));
            }
        });
        let mut runner = isolated_runner(2, "", 1);
        runner.cache_mode = CacheMode::ReadWrite;
        runner.cache_dir = dir.clone();
        let locked =
            (0..500).filter(|_| runner.try_run("iso-lock", fixture_cells(2, SEED)).is_err());
        let locked = locked.count();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(locked, 0, "reruns that found the label still locked");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_thread_and_subprocess_transports_settle_identically() {
    // One fault plan, two transports under the same dispatcher: the
    // in-thread run afflicts its own catalog, the subprocess run's
    // worker afflicts its copy. Everything but wall-clock time must
    // agree — records, counters, quarantines, and the journal.
    const FAULTS: &str = "c1=panic1;c3=panic;c5=invalid";
    chaos::quiet_injected_panics();
    let mut plan = ChaosPlan::calm(0);
    plan.pinned = vec![
        ("c1".into(), Fault::PanicFirst(1)),
        ("c3".into(), Fault::PanicAlways),
        ("c5".into(), Fault::Invalid),
    ];
    let campaign = |dir: &Path, isolate: Option<IsolateConfig>, cells| {
        let mut r = Runner::new(1);
        r.cache_dir = dir.to_path_buf();
        r.verbose = false;
        r.perf_probe = Some(fixture_probe());
        r.isolate = isolate;
        r.run("parity", cells)
    };
    let thread_dir = tmp_dir("parity-thread");
    let in_thread = campaign(&thread_dir, None, chaos::afflict(&plan, fixture_cells(8, SEED)));
    let process_dir = tmp_dir("parity-process");
    let mut cfg = worker(8, FAULTS);
    cfg.backoff_ms = 1;
    let subprocess = campaign(&process_dir, Some(cfg), fixture_cells(8, SEED));

    assert_eq!(in_thread.records_jsonl(), subprocess.records_jsonl());
    let counters = |r: &RunReport| {
        (r.cells_total, r.cells_cached, r.cells_failed, r.cells_invalid, r.retries, r.engine.runs)
    };
    assert_eq!(counters(&in_thread), (8, 0, 1, 1, 3, 6));
    assert_eq!(counters(&subprocess), counters(&in_thread));
    let quarantines = |r: &RunReport| {
        r.quarantined
            .iter()
            .map(|q| {
                let status = r
                    .outcomes
                    .iter()
                    .find(|o| o.key == q.key)
                    .and_then(|o| o.result.as_ref().err())
                    .map(|e| e.kind.label());
                (q.cell.clone(), q.attempts, q.reason.to_string(), status)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(quarantines(&in_thread).len(), 2);
    assert_eq!(quarantines(&subprocess), quarantines(&in_thread));
    let thread_journal = journal::Journal::load(&journal::journal_path(&thread_dir, "parity"));
    let process_journal = journal::Journal::load(&journal::journal_path(&process_dir, "parity"));
    for o in &in_thread.outcomes {
        assert!(thread_journal.status(o.key).is_some(), "{} journaled", o.spec.cell);
        assert_eq!(
            process_journal.status(o.key),
            thread_journal.status(o.key),
            "journal status of {}",
            o.spec.cell
        );
    }
    let _ = std::fs::remove_dir_all(&thread_dir);
    let _ = std::fs::remove_dir_all(&process_dir);
}

#[test]
fn fully_cached_isolated_rerun_spawns_no_worker() {
    // Cache hits settle in the dispatcher before any transport sees the
    // cell, so a warm rerun never pays for a worker process.
    let dir = tmp_dir("warm-no-spawn");
    let mut runner = isolated_runner(4, "", 2);
    runner.cache_mode = CacheMode::ReadWrite;
    runner.cache_dir = dir.clone();
    let cold = runner.run("iso-warm", fixture_cells(4, SEED));
    let cold_spawns: u64 =
        cold.isolate.as_ref().map_or(0, |i| i.workers.iter().map(|w| w.spawns).sum());
    assert!(cold_spawns > 0, "a cold run needs a worker");
    let warm = runner.run("iso-warm", fixture_cells(4, SEED));
    assert_eq!(warm.cells_cached, 4);
    assert_eq!(warm.records_jsonl(), cold.records_jsonl());
    let m = warm.manifest();
    let iso = m.get("isolate").expect("isolate block");
    assert_eq!(iso.get("worker_spawns").and_then(Json::as_u64), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}
