//! The subprocess transport of the campaign dispatcher: run cells in
//! re-spawned worker subprocesses, survive every way a worker can die,
//! and keep the campaign's records byte-identical to an in-thread run.
//!
//! ## Supervision tree
//!
//! The dispatcher ([`crate::Runner::try_run`]) owns the campaign: the
//! shared work queue, cache hits (cached payloads never cross a pipe),
//! attempt accounting, storage, and quarantine. This module adds one
//! *manager per worker slot* (on the calling thread when there is one
//! slot). Each manager pulls cache misses from the shared queue, spawns
//! its worker subprocess (the hidden `smi-lab worker` subcommand) on its
//! first miss, sends it the campaign ([`IsolateConfig::campaign`]), feeds
//! it cells over the length-prefixed frame protocol ([`crate::proto`]
//! over [`jsonio::framed`]), and hands every outcome back to the
//! dispatcher. Managers share one queue, so a slow or dying
//! worker slot never strands cells that a healthy sibling could run.
//!
//! ## Crash discipline
//!
//! A worker runs one cell at a time, so a worker death — clean exit,
//! SIGKILL, `abort()`, torn frame, or watchdog shot — costs exactly the
//! one attempt in flight on that worker. It is reported to the
//! dispatcher as a lost attempt, which journals it
//! [`crate::journal::Status::Crashed`] (so a killed campaign resumes
//! knowing the cell was dispatched) and requeues the cell until the ordinary
//! [`crate::Runner::max_attempts`] budget is spent, then quarantines it
//! with a machine-readable `worker-crash` reason. The manager re-spawns
//! its worker with bounded exponential backoff; a slot whose respawn
//! budget is exhausted *gives up* — graceful degradation, not collapse.
//! If every slot gives up, the dispatcher quarantines whatever is left
//! in the queue as `worker-pool-exhausted` and the run reports Degraded
//! instead of hanging.
//!
//! ## Deadlines
//!
//! Two layers, deliberately different: the *deterministic* deadline is
//! the work-unit budget the worker itself enforces from harvested
//! engine counters (`deadline` quarantines reproduce exactly on every
//! rerun — no wall clock in the verdict). The *wall-clock* watchdog
//! lives only up here: a worker that stops answering for
//! [`IsolateConfig::watchdog_ms`] is presumed wedged and shot, which
//! funnels into the same crash discipline. Wall time decides only
//! *liveness*, never a record byte.

use crate::dispatch::{for_each_slot, lock_clean, Attempt, Dispatcher, Settled, WorkItem};
use crate::{proto, QuarantineKind};
use jsonio::framed::{FrameReader, FrameWriter};
use jsonio::Json;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::Duration;

/// Configuration of one process-isolated campaign.
#[derive(Clone, Debug)]
pub struct IsolateConfig {
    /// Worker subprocess command line: program plus arguments. The
    /// command must speak the [`crate::proto`] protocol on its
    /// stdin/stdout (the CLI re-executes itself as `smi-lab worker`).
    pub worker_cmd: Vec<String>,
    /// The campaign spec each worker receives in a `campaign` frame
    /// right after spawn, opaque to the runner: the worker must build
    /// from it the *same* cells the supervisor queues.
    pub campaign: Json,
    /// Worker subprocess slots (clamped to at least 1, and to the
    /// campaign's cell count). A slot spawns its worker on its first
    /// cache miss, so a fully cached campaign spawns none.
    pub workers: usize,
    /// Respawns a slot may consume after crashes before it gives up.
    pub respawn_budget: u32,
    /// Base respawn backoff in milliseconds; doubles per consecutive
    /// crash of the slot (capped at 32x).
    pub backoff_ms: u64,
    /// Deterministic per-cell work-unit budget (engine events popped);
    /// `0` disables deadlines. Enforced *in the worker* from harvested
    /// counters, so the verdict is wall-clock free and reproducible.
    pub deadline_units: u64,
    /// Wall-clock watchdog: a worker silent for this long with work in
    /// flight is presumed wedged and killed. Liveness only — it can
    /// cost attempts, never change a record byte.
    pub watchdog_ms: u64,
    /// Fault injection for tests and the CI gate: cells whose label is
    /// listed here get their worker SIGKILLed right after dispatch.
    pub kill_cells: Vec<String>,
}

impl IsolateConfig {
    /// A config with conservative defaults around a worker command and
    /// the campaign it is sent.
    pub fn new(worker_cmd: Vec<String>, campaign: Json) -> IsolateConfig {
        IsolateConfig {
            worker_cmd,
            campaign,
            workers: 1,
            respawn_budget: 3,
            backoff_ms: 25,
            deadline_units: 0,
            watchdog_ms: 30_000,
            kill_cells: Vec::new(),
        }
    }
}

/// Per-slot supervision accounting, reported into the manifest.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Subprocesses spawned for this slot (1 + respawns).
    pub spawns: u64,
    /// Worker deaths observed (exit, kill, protocol break, watchdog).
    pub crashes: u64,
    /// Cells this slot completed with a payload.
    pub cells_ok: u64,
    /// Cells quarantined `worker-crash` at this slot.
    pub cells_crashed: u64,
    /// Cells quarantined `deadline` at this slot.
    pub cells_deadline: u64,
    /// Whether the slot exhausted its respawn budget and gave up.
    pub gave_up: bool,
    /// Every attempt lost with this slot's worker, in order: the cell in
    /// flight and the death's cause (`worker-exit`, `watchdog-timeout`,
    /// ...), whether the cell then retried or quarantined.
    pub lost: Vec<(String, &'static str)>,
}

/// Whole-pool supervision accounting for one isolated run.
#[derive(Clone, Debug, Default)]
pub struct IsolateReport {
    /// Per-slot accounting, one entry per worker slot.
    pub workers: Vec<WorkerStats>,
    /// Cells quarantined because every slot gave up before they ran.
    pub pool_exhausted_cells: u64,
}

/// Run the campaign's cache misses on `cfg.workers` supervised worker
/// slots until the dispatcher's queue drains or every slot gives up.
pub(crate) fn run(d: &Dispatcher<'_>, cfg: &IsolateConfig) -> IsolateReport {
    let mut workers = vec![WorkerStats::default(); d.slots(cfg.workers)];
    for_each_slot(&mut workers, |stats| manage_worker(d, cfg, stats));
    IsolateReport { workers, pool_exhausted_cells: 0 }
}

/// One manager: own one worker slot until the campaign drains or the
/// slot's respawn budget is spent. The worker runs one cell at a time,
/// so a worker death costs exactly one attempt.
fn manage_worker(d: &Dispatcher<'_>, cfg: &IsolateConfig, stats: &mut WorkerStats) {
    let mut conn: Option<Conn> = None;
    let mut next_id: u64 = 0;
    loop {
        let Some(item) = d.next_miss() else {
            if d.done() {
                break;
            }
            // Nothing queued, but the campaign is not done — a sibling's
            // crash may yet requeue work. Poll gently.
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        if conn.is_none() {
            conn = connect(cfg, stats);
        }
        let Some(c) = conn.as_mut() else {
            // The slot gave up: hand the cell back to a sibling (or to
            // the dispatcher's pool-exhausted drain).
            d.requeue(item);
            return;
        };
        next_id += 1;
        let spec = d.spec(&item);
        let msg = proto::ToWorker::Run {
            id: next_id,
            attempt: item.attempts + 1,
            budget_units: cfg.deadline_units,
            spec: spec.clone(),
        };
        if c.tx.write(&msg.to_json()).is_err() {
            // The worker is gone, but the cell never reached it: no
            // attempt is charged.
            d.requeue(item);
            stats.crashes += 1;
            if let Some(c) = conn.take() {
                c.stop();
            }
            continue;
        }
        let cause = if cfg.kill_cells.contains(&spec.cell) {
            // Injected fault: SIGKILL our own worker with this cell in
            // flight (the kill-resume gate). The kill is accounted as a
            // crash *now*, without draining the pipe first: if the
            // manager was preempted between the dispatch write and the
            // kill, a fast worker may already have replied `Done` for the
            // doomed cell — reading it would let the kill's target land
            // Ok and the injection silently miss.
            let _ = c.child.kill();
            "worker-exit"
        } else {
            match c.await_done(next_id, cfg.watchdog_ms) {
                Ok(outcome) => {
                    match d.settle(item, Attempt::Ran(outcome)) {
                        Settled::Ok => stats.cells_ok += 1,
                        Settled::Quarantined(QuarantineKind::Deadline) => stats.cells_deadline += 1,
                        _ => {}
                    }
                    continue;
                }
                Err(cause) => cause,
            }
        };
        if let Some(c) = conn.take() {
            crash(d, stats, c, item, cause);
        }
    }
    if let Some(c) = conn.take() {
        c.stop();
    }
}

/// Spawn the slot's worker, backing off exponentially after crashes.
/// `None` once the slot's respawn budget is spent: the slot gives up.
fn connect(cfg: &IsolateConfig, stats: &mut WorkerStats) -> Option<Conn> {
    loop {
        if stats.crashes > cfg.respawn_budget as u64 {
            stats.gave_up = true;
            return None;
        }
        if stats.crashes > 0 {
            let shift = (stats.crashes - 1).min(5) as u32;
            std::thread::sleep(Duration::from_millis(cfg.backoff_ms << shift));
        }
        match Conn::spawn(cfg) {
            Ok(c) => {
                stats.spawns += 1;
                return Some(c);
            }
            Err(()) => stats.crashes += 1,
        }
    }
}

/// Account one worker death: the attempt in flight goes back to the
/// dispatcher as lost, to be requeued or quarantined `worker-crash`.
fn crash(
    d: &Dispatcher<'_>,
    stats: &mut WorkerStats,
    conn: Conn,
    lost: WorkItem,
    cause: &'static str,
) {
    stats.crashes += 1;
    stats.lost.push((d.spec(&lost).cell.clone(), cause));
    conn.stop();
    if let Settled::Quarantined(_) = d.settle(lost, Attempt::Lost(cause)) {
        stats.cells_crashed += 1;
    }
}

/// One live worker connection: the child, a frame writer over its
/// stdin, and a reader thread pumping decoded frames off its stdout
/// into a channel (so the manager can `recv_timeout` as a watchdog).
struct Conn {
    child: Child,
    tx: FrameWriter<ChildStdin>,
    rx: Receiver<Result<proto::FromWorker, String>>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Conn {
    /// Start the worker, wait for its first word, and send it the
    /// campaign frame.
    fn spawn(cfg: &IsolateConfig) -> Result<Conn, ()> {
        let (program, args) = cfg.worker_cmd.split_first().ok_or(())?;
        let mut command = Command::new(program);
        command.args(args).stdin(Stdio::piped()).stdout(Stdio::piped());
        let spawning = lock_clean(&crate::lockfile::SPAWN);
        let mut child = command.spawn().map_err(|_| ())?;
        let (stdin, stdout) = match (child.stdin.take(), child.stdout.take()) {
            (Some(i), Some(o)) => (i, o),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(());
            }
        };
        let (sender, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut frames = FrameReader::new(stdout);
            loop {
                let msg = match frames.read() {
                    Ok(Some(frame)) => {
                        proto::FromWorker::from_json(&frame).map_err(|e| e.to_string())
                    }
                    Ok(None) => return,
                    Err(e) => Err(e.to_string()),
                };
                let fatal = msg.is_err();
                if sender.send(msg).is_err() || fatal {
                    return;
                }
            }
        });
        // Keep `lockfile::SPAWN` until the worker speaks or dies: only then
        // has its exec closed its copies of this process's descriptors.
        // Its `hello` is skipped here as `await_done` would skip it, and a
        // broken stream still ends the channel for `await_done` to see.
        let _ = rx.recv_timeout(Duration::from_millis(cfg.watchdog_ms.max(1)));
        drop(spawning);
        let mut tx = FrameWriter::new(stdin);
        // A worker already gone fails the `run` write that follows, which
        // counts the crash.
        let _ = tx.write(&proto::ToWorker::Campaign { campaign: cfg.campaign.clone() }.to_json());
        Ok(Conn { child, tx, rx, reader: Some(reader) })
    }

    /// Wait for the `Done` frame of dispatch `id`, skipping `Hello` and
    /// stale replies. `Err` names how the worker died: a torn or garbage
    /// frame or an exit (`worker-exit`), or silence for `watchdog_ms`
    /// (`watchdog-timeout`).
    fn await_done(&self, id: u64, watchdog_ms: u64) -> Result<proto::WorkOutcome, &'static str> {
        loop {
            match self.rx.recv_timeout(Duration::from_millis(watchdog_ms.max(1))) {
                Ok(Ok(proto::FromWorker::Done { id: done, outcome })) if done == id => {
                    return Ok(outcome)
                }
                Ok(Ok(_)) => continue,
                Ok(Err(_)) | Err(RecvTimeoutError::Disconnected) => return Err("worker-exit"),
                Err(RecvTimeoutError::Timeout) => return Err("watchdog-timeout"),
            }
        }
    }

    /// Tear the connection down without ever blocking unboundedly:
    /// best-effort graceful `Shutdown`, then kill (idempotent on an
    /// already-dead child), reap the zombie, and join the reader (its
    /// pipe EOFs once the child is gone).
    fn stop(mut self) {
        let _ = self.tx.write(&proto::ToWorker::Shutdown.to_json());
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{journal, CacheMode, Cell, CellSpec, RunStatus, Runner};
    use std::path::PathBuf;

    fn spec(cell: &str) -> CellSpec {
        CellSpec {
            experiment: "iso-unit".into(),
            cell: cell.into(),
            params: Json::Null,
            seed: 3,
            reps: 1,
        }
    }

    fn cells(n: usize) -> Vec<Cell> {
        (0..n).map(|i| Cell::new(spec(&format!("c{i}")), || Json::U64(1))).collect()
    }

    fn no_cache_runner(cfg: IsolateConfig) -> Runner {
        let mut r = Runner::new(2);
        r.cache_mode = CacheMode::Off;
        r.verbose = false;
        r.isolate = Some(cfg);
        r
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smi-lab-supervisor-test-{}-{}",
            std::process::id(),
            tag
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    #[test]
    fn unspawnable_worker_exhausts_pool_and_degrades() {
        let mut cfg =
            IsolateConfig::new(vec!["/nonexistent/smi-lab-worker-binary".into()], Json::Null);
        cfg.workers = 2;
        cfg.respawn_budget = 1;
        cfg.backoff_ms = 1;
        let runner = no_cache_runner(cfg);
        let report = runner.run("iso-unspawnable", cells(3));
        assert_eq!(report.cells_total, 3, "the campaign still drains");
        assert_eq!(report.cells_crashed, 3, "every cell quarantines, none hangs");
        assert_eq!(report.status(), RunStatus::Degraded, "graceful degradation, not collapse");
        let iso = report.isolate.as_ref().expect("isolate accounting present");
        assert!(iso.workers.iter().all(|w| w.gave_up), "both slots spent their budget");
        assert!(iso.workers.iter().all(|w| w.spawns == 0), "nothing ever spawned");
        assert_eq!(iso.pool_exhausted_cells, 3);
        for q in &report.quarantined {
            assert_eq!(
                q.reason.get("kind").and_then(Json::as_str),
                Some("worker-pool-exhausted"),
                "machine-readable reason on every hole"
            );
        }
        let m = report.manifest();
        let iso_m = m.get("isolate").expect("manifest isolate block");
        assert_eq!(iso_m.get("workers").and_then(Json::as_u64), Some(2));
        assert_eq!(iso_m.get("pool_exhausted_cells").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn protocol_garbage_counts_as_crash_and_consumes_attempts() {
        // A "worker" that emits garbage instead of frames: every
        // dispatch dies with a protocol error, burning one attempt per
        // death, until the cell quarantines as worker-crash.
        let mut cfg = IsolateConfig::new(
            vec!["/bin/sh".into(), "-c".into(), "echo not-a-frame; sleep 5".into()],
            Json::Null,
        );
        cfg.respawn_budget = 5;
        cfg.backoff_ms = 1;
        let mut runner = no_cache_runner(cfg);
        runner.max_attempts = 2;
        let report = runner.run("iso-garbage", cells(1));
        assert_eq!(report.cells_crashed, 1);
        assert_eq!(report.status(), RunStatus::Degraded);
        let q = &report.quarantined[0];
        assert_eq!(q.reason.get("kind").and_then(Json::as_str), Some("worker-crash"));
        assert_eq!(q.attempts, 2, "the ordinary attempt budget bounds crash retries");
        assert_eq!(report.retries, 1, "the non-final deaths were retries");
        let lost: Vec<_> = report.isolate.iter().flat_map(|i| &i.workers[0].lost).collect();
        let cause = q.reason.get("cause").and_then(Json::as_str).expect("cause");
        assert_eq!(lost.len(), 2, "both lost attempts are named: {lost:?}");
        assert!(lost.iter().all(|(cell, c)| *cell == q.cell && *c == cause), "{lost:?}");
    }

    #[test]
    fn crashed_cells_are_journaled_for_resume() {
        let dir = tmp_dir("journal");
        let mut cfg = IsolateConfig::new(vec!["/bin/false".into()], Json::Null);
        cfg.respawn_budget = 5;
        cfg.backoff_ms = 1;
        let mut runner = Runner::new(1);
        runner.cache_dir = dir.clone();
        runner.verbose = false;
        runner.max_attempts = 2;
        runner.isolate = Some(cfg);
        let report = runner.run("iso-journal", cells(1));
        assert_eq!(report.cells_crashed, 1);
        let j = journal::Journal::load(&journal::journal_path(&dir, "iso-journal"));
        assert_eq!(
            j.status(report.outcomes[0].key),
            Some(journal::Status::Crashed),
            "a worker death mid-cell must be journaled, not silently lost"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
