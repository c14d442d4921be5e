//! The campaign dispatcher: the one owner of per-cell bookkeeping.
//!
//! Every campaign — in-process or `--isolate` — runs through [`run`].
//! The dispatcher owns the shared work queue, the cache lookup, attempt
//! accounting, `Store::put`, journal appends, [`Progress`] updates,
//! perf-counter folding, quarantine classification, and the
//! submission-order result slots. Below it sit two *transports* whose
//! only job is to turn a dequeued cell into a [`proto::WorkOutcome`] or
//! a lost attempt with its cause:
//!
//! * **in-thread** ([`run_in_thread`]): the worker's own
//!   [`worker::run_one`], on the calling thread when `jobs == 1` and on
//!   scoped threads pulling from the shared queue otherwise;
//! * **subprocess** ([`crate::supervisor`]): supervised worker processes
//!   over the frame protocol, each spawned on its slot's first cache
//!   miss.
//!
//! Both transports feed the same settle step, so retries, journal
//! lines, counters, and quarantine reasons cannot drift between modes.
//! A retry is a requeue: the cell goes back to the front of the shared
//! queue with its attempt count, and whichever slot pops it next runs
//! it. Cells enter the queue in submission order and results land in
//! slots by submission index.

use crate::telemetry::{Progress, Stopwatch};
use crate::{
    cache, journal, lockfile, proto, store, supervisor, worker, CacheMode, Cell, CellError,
    CellOutcome, CellSpec, CellValue, QuarantineKind, QuarantinedCell, RunReport, Runner,
};
use jsonio::Json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Lock a mutex, recovering the data from a poisoned lock. Cell panics
/// are caught before they can unwind through a held lock, but a poisoned
/// queue or result slot must still never turn into a second panic that
/// takes the whole campaign down.
pub(crate) fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One queued cell: its submission index plus attempt accounting. The
/// cell itself (spec and work closure) stays with the dispatcher.
pub(crate) struct WorkItem {
    idx: usize,
    /// Attempts already spent on this cell.
    pub(crate) attempts: u32,
    /// Started when the cell is first dequeued; `None` until then, which
    /// is also how [`Dispatcher::next_miss`] knows the cache is not consulted.
    watch: Option<Stopwatch>,
}

impl WorkItem {
    fn elapsed(&self) -> u64 {
        self.watch.as_ref().map(|w| w.elapsed_micros()).unwrap_or(0)
    }
}

/// How one attempt at a cell ended.
pub(crate) enum Attempt {
    /// A transport ran the attempt to a verdict.
    Ran(proto::WorkOutcome),
    /// The attempt died with its worker process; the cause names how.
    Lost(&'static str),
    /// The cache satisfied the cell (dispatcher-internal).
    Cached(Json),
    /// No transport was left to run the cell (dispatcher-internal).
    Stranded,
}

/// What settling an attempt decided, so a transport can keep its own
/// per-slot accounting.
pub(crate) enum Settled {
    /// The cell completed with a payload.
    Ok,
    /// The cell went back on the queue for another attempt.
    Requeued,
    /// The cell was quarantined.
    Quarantined(QuarantineKind),
}

/// Shared campaign state every transport slot works against.
pub(crate) struct Dispatcher<'a> {
    runner: &'a Runner,
    cells: &'a [Cell],
    keys: &'a [cache::CacheKey],
    progress: &'a Progress,
    store: Option<&'a store::Store>,
    writer: Option<&'a journal::Writer>,
    /// Per cell: the journal's last line for its key said `ok` when the
    /// campaign opened, so a store hit has nothing new to journal.
    prior_ok: Vec<bool>,
    queue: Mutex<VecDeque<WorkItem>>,
    results: Vec<Mutex<Option<Result<CellValue, CellError>>>>,
    settled: AtomicUsize,
}

/// Run one campaign (the caller holds its lock): open storage, queue
/// every cell, drive the configured transport until the queue drains,
/// and assemble the report with outcomes in submission order.
pub(crate) fn run(
    runner: &Runner,
    label: &str,
    cells: Vec<Cell>,
    lock_broken: Option<lockfile::BrokenLock>,
) -> RunReport {
    let started = Stopwatch::start();
    let progress = Progress::new(cells.len() as u64, runner.verbose)
        .with_disk_fault_limit(runner.disk_fault_limit);
    let keys: Vec<cache::CacheKey> =
        cells.iter().map(|c| cache::cell_key(&runner.code_version, &c.spec)).collect();
    let (store, writer, prior_ok, mut account) =
        open_storage(runner, label, &keys, &progress, lock_broken);
    let d = Dispatcher {
        runner,
        cells: &cells,
        keys: &keys,
        progress: &progress,
        store: store.as_ref(),
        writer: writer.as_ref(),
        prior_ok,
        queue: Mutex::new(
            (0..cells.len()).map(|idx| WorkItem { idx, attempts: 0, watch: None }).collect(),
        ),
        results: (0..cells.len()).map(|_| Mutex::new(None)).collect(),
        settled: AtomicUsize::new(0),
    };
    let mut isolate = match &runner.isolate {
        Some(cfg) => Some(supervisor::run(&d, cfg)),
        None => {
            run_in_thread(&d);
            None
        }
    };
    // Every slot has returned. Anything still queued outlived every
    // worker slot's respawn budget (the in-thread transport never leaves
    // work behind): quarantine it with a typed reason rather than hang
    // or abort the campaign. `next_miss` still serves cache hits first.
    let mut stranded = 0;
    while let Some(item) = d.next_miss() {
        stranded += 1;
        d.settle(item, Attempt::Stranded);
    }
    if let Some(iso) = isolate.as_mut() {
        iso.pool_exhausted_cells = stranded;
    }
    if let Some(store) = &store {
        account.store = store.counters();
        // Bookkeeping append failures are disk faults too: fold them
        // into the counted store errors so they degrade the run.
        for _ in 0..account.store.index_errors {
            progress.note_store_error();
        }
    }
    let results = d.results;
    let outcomes = cells
        .into_iter()
        .zip(keys)
        .zip(results)
        .map(|((cell, key), slot)| {
            let result = slot.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner());
            // Unreachable by construction (every index is settled by a
            // transport or the drain above); kept total for the no-panic
            // discipline.
            let result = result.unwrap_or_else(|| {
                Err(CellError {
                    message: "cell never completed: dispatcher accounting hole".to_string(),
                    reason: Json::obj(vec![("kind", Json::Str("worker-pool-exhausted".into()))]),
                    kind: QuarantineKind::Crashed,
                    attempts: 0,
                    micros: 0,
                })
            });
            CellOutcome { spec: cell.spec, key, result }
        })
        .collect();
    assemble_report(runner, label, &progress, started.elapsed_seconds(), account, outcomes, isolate)
}

/// The in-thread transport: run each dequeued cell once with the
/// worker's own [`worker::run_one`], on the calling thread when `jobs`
/// is 1 and on scoped threads sharing the queue otherwise.
fn run_in_thread(d: &Dispatcher<'_>) {
    let mut slots = vec![(); d.slots(d.runner.jobs)];
    for_each_slot(&mut slots, |_| {
        while let Some(item) = d.next_miss() {
            let outcome = worker::run_one(&d.cells[item.idx], d.runner.perf_probe.as_ref(), 0);
            d.settle(item, Attempt::Ran(outcome));
        }
    });
}

/// Run `body` once per slot: on the calling thread when there is only
/// one slot (no spawn, the exact serial path), else on scoped threads.
pub(crate) fn for_each_slot<S: Send>(slots: &mut [S], body: impl Fn(&mut S) + Sync) {
    if let [only] = slots {
        return body(only);
    }
    std::thread::scope(|scope| {
        for slot in slots.iter_mut() {
            let body = &body;
            scope.spawn(move || body(slot));
        }
    });
}

impl Dispatcher<'_> {
    /// Slots a transport may run: `wanted`, clamped to `[1, cells]`.
    pub(crate) fn slots(&self, wanted: usize) -> usize {
        wanted.clamp(1, self.cells.len().max(1))
    }

    /// The identity of a queued cell.
    pub(crate) fn spec(&self, item: &WorkItem) -> &CellSpec {
        &self.cells[item.idx].spec
    }

    /// Whether every cell has settled.
    pub(crate) fn done(&self) -> bool {
        self.settled.load(Ordering::Acquire) >= self.cells.len()
    }

    /// The next cell that needs a transport, settling cache hits on the
    /// way (cached payloads never reach a transport, so a hit never
    /// waits on a worker spawn). `None` once the queue is empty.
    pub(crate) fn next_miss(&self) -> Option<WorkItem> {
        loop {
            let mut item = lock_clean(&self.queue).pop_front()?;
            if item.watch.is_some() {
                return Some(item);
            }
            item.watch = Some(Stopwatch::start());
            match self.lookup(item.idx) {
                Some(payload) => {
                    self.settle(item, Attempt::Cached(payload));
                }
                None => return Some(item),
            }
        }
    }

    /// Hand a cell back to the front of the queue without charging an
    /// attempt (a transport that could not start it).
    pub(crate) fn requeue(&self, item: WorkItem) {
        lock_clean(&self.queue).push_front(item);
    }

    fn lookup(&self, idx: usize) -> Option<Json> {
        match self.store?.load(self.keys[idx], &self.cells[idx].spec) {
            cache::Lookup::Hit(payload) => Some(payload),
            cache::Lookup::Corrupt => {
                self.progress.note_load_corruption();
                None
            }
            cache::Lookup::Miss => None,
        }
    }

    /// Account one attempt: persist and journal a payload, requeue a
    /// retryable failure while the attempt budget lasts, or quarantine.
    pub(crate) fn settle(&self, mut item: WorkItem, attempt: Attempt) -> Settled {
        let budget = self.runner.max_attempts.max(1);
        let (kind, message, reason) = match attempt {
            Attempt::Cached(payload) => return self.succeed(item, payload, true),
            Attempt::Ran(outcome) => {
                item.attempts += 1;
                match outcome {
                    proto::WorkOutcome::Ok { payload, perf } => {
                        if let Some(store) = self.store {
                            self.persist(|| {
                                store.put(self.keys[item.idx], self.spec(&item), &payload)
                            });
                        }
                        self.progress.note_engine(perf);
                        return self.succeed(item, payload, false);
                    }
                    proto::WorkOutcome::Panic { .. } if item.attempts < budget => {
                        return self.retry(item)
                    }
                    proto::WorkOutcome::Panic { message } => {
                        (QuarantineKind::Panic, message, Json::Null)
                    }
                    // Structured self-rejection: deterministic, so never
                    // retried.
                    proto::WorkOutcome::Invalid { reason } => {
                        (QuarantineKind::Invalid, reason_message(&reason), reason)
                    }
                    // The worker's catalog cannot produce this cell — a
                    // config mismatch, deterministic on every retry.
                    proto::WorkOutcome::Unresolvable { message } => {
                        let reason = Json::obj(vec![
                            ("kind", Json::Str("unresolvable-cell".into())),
                            ("message", Json::Str(message.clone())),
                        ]);
                        (QuarantineKind::Invalid, message, reason)
                    }
                    // A pure function of cell identity and budget, so
                    // retrying would only reproduce it.
                    proto::WorkOutcome::Deadline { budget_units, spent_units } => (
                        QuarantineKind::Deadline,
                        format!(
                            "deadline: spent {spent_units} work units over the \
                             {budget_units}-unit budget"
                        ),
                        Json::obj(vec![
                            ("kind", Json::Str("deadline".into())),
                            ("budget_units", Json::U64(budget_units)),
                            ("spent_units", Json::U64(spent_units)),
                        ]),
                    ),
                }
            }
            Attempt::Lost(cause) => {
                item.attempts += 1;
                if item.attempts < budget {
                    // Journaled so a killed campaign resumes knowing the
                    // cell was dispatched.
                    self.journal(&item, journal::Status::Crashed);
                    return self.retry(item);
                }
                let attempts = item.attempts;
                (
                    QuarantineKind::Crashed,
                    format!("worker crashed ({cause}) on attempt {attempts} of {budget}"),
                    Json::obj(vec![
                        ("kind", Json::Str("worker-crash".into())),
                        ("cause", Json::Str(cause.to_string())),
                        ("attempts", Json::U64(attempts as u64)),
                    ]),
                )
            }
            Attempt::Stranded => (
                QuarantineKind::Crashed,
                "worker pool exhausted: every worker slot spent its respawn budget".to_string(),
                Json::obj(vec![
                    ("kind", Json::Str("worker-pool-exhausted".into())),
                    ("attempts", Json::U64(item.attempts as u64)),
                ]),
            ),
        };
        let micros = item.elapsed();
        self.progress.cell_quarantined(kind, &self.spec(&item).cell, micros);
        self.journal(
            &item,
            if kind == QuarantineKind::Crashed {
                journal::Status::Crashed
            } else {
                journal::Status::Failed
            },
        );
        let error = CellError { message, reason, kind, attempts: item.attempts, micros };
        self.finish(&item, Err(error));
        Settled::Quarantined(kind)
    }

    fn succeed(&self, item: WorkItem, payload: Json, cached: bool) -> Settled {
        let micros = item.elapsed();
        self.progress.cell_done(&self.spec(&item).cell, micros, cached);
        // A store hit settles on its first dequeue, before this run can
        // have journaled the cell, so the open-time bit is still current:
        // when it says `ok`, another `ok` line would change no replay.
        if !(cached && self.prior_ok[item.idx]) {
            self.journal(&item, journal::Status::Ok);
        }
        self.finish(&item, Ok(CellValue { payload, cached, attempts: item.attempts, micros }));
        Settled::Ok
    }

    fn retry(&self, item: WorkItem) -> Settled {
        self.progress.note_retry();
        self.requeue(item);
        Settled::Requeued
    }

    fn journal(&self, item: &WorkItem, status: journal::Status) {
        if let Some(w) = self.writer {
            let cell = &self.spec(item).cell;
            self.persist(|| w.append(self.keys[item.idx], cell, status, item.attempts));
        }
    }

    /// One storage write under the degradation ladder: skipped (and
    /// counted) once the bypass has tripped, a counted store error if it
    /// fails.
    fn persist<T, E>(&self, write: impl FnOnce() -> Result<T, E>) {
        if self.progress.storage_bypass() {
            self.progress.note_bypassed_write();
        } else if write().is_err() {
            self.progress.note_store_error();
        }
    }

    /// Deposit a settled result into its submission-order slot.
    fn finish(&self, item: &WorkItem, result: Result<CellValue, CellError>) {
        if let Some(slot) = self.results.get(item.idx) {
            *lock_clean(slot) = Some(result);
        }
        self.settled.fetch_add(1, Ordering::AcqRel);
    }
}

/// Render a structured rejection reason as the one-line message carried
/// next to it: the reason's `"message"` field when present (the shape
/// `SimError::reason_json` produces), the compact JSON otherwise.
fn reason_message(reason: &Json) -> String {
    match reason.get("message").and_then(|m| m.as_str()) {
        Some(m) => m.to_string(),
        None => reason.to_string(),
    }
}

/// Everything a campaign's storage startup and teardown accounted for.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct StorageAccount {
    /// Orphaned temp files swept at startup, by area.
    pub sweep: cache::SweepStats,
    /// Write intents replayed by `Store::open`.
    pub intents_resolved: u64,
    /// Torn objects removed by intent replay.
    pub torn_entries_removed: u64,
    /// Torn journal-tail bytes truncated at startup.
    pub journal_torn_bytes: u64,
    /// Cells already journaled `ok` by an earlier run.
    pub journal_prior_ok: u64,
    /// The stale lock broken on the way in, if any.
    pub lock_broken: Option<lockfile::BrokenLock>,
    /// The store's final counters (filled after the queue drains).
    pub store: store::StoreCounters,
}

/// Open the shared store and journal for one campaign: replay intents,
/// sweep orphans, truncate this label's torn journal tail, and mark the
/// cells whose last journaled status is `ok`. Returns `None` store when
/// the cache is off.
fn open_storage(
    runner: &Runner,
    label: &str,
    keys: &[cache::CacheKey],
    progress: &Progress,
    lock_broken: Option<lockfile::BrokenLock>,
) -> (Option<store::Store>, Option<journal::Writer>, Vec<bool>, StorageAccount) {
    if runner.cache_mode == CacheMode::Off {
        let account = StorageAccount { lock_broken, ..StorageAccount::default() };
        return (None, None, vec![false; keys.len()], account);
    }
    let (store, open_stats) =
        store::Store::open(runner.vfs.clone(), &runner.cache_dir, label, &runner.code_version);
    let journal_path = journal::journal_path(&runner.cache_dir, label);
    // Truncate a torn journal tail (we hold the campaign lock) so the
    // appender never writes after a damaged fragment, and replay the
    // rest from the same read.
    let (prior, journal_torn_bytes) = journal::recover(&journal_path);
    let prior_ok: Vec<bool> =
        keys.iter().map(|&key| prior.status(key) == Some(journal::Status::Ok)).collect();
    let journal_prior_ok = prior_ok.iter().filter(|&&ok| ok).count() as u64;
    let writer = match journal::Writer::open_with(&journal_path, runner.vfs.clone()) {
        Ok(w) => Some(w),
        Err(_) => {
            progress.note_store_error();
            None
        }
    };
    let account = StorageAccount {
        sweep: open_stats.sweep,
        intents_resolved: open_stats.intents_resolved,
        torn_entries_removed: open_stats.torn_entries_removed,
        journal_torn_bytes,
        journal_prior_ok,
        lock_broken,
        store: store::StoreCounters::default(),
    };
    (Some(store), writer, prior_ok, account)
}

/// Assemble the final [`RunReport`] from a drained campaign.
pub(crate) fn assemble_report(
    runner: &Runner,
    label: &str,
    progress: &Progress,
    wall_seconds: f64,
    account: StorageAccount,
    outcomes: Vec<CellOutcome>,
    isolate: Option<supervisor::IsolateReport>,
) -> RunReport {
    progress.print_summary(label);
    let (done, cached, _) = progress.totals();
    let faults = progress.faults();
    let quarantined = outcomes
        .iter()
        .filter_map(|o| {
            let e = o.result.as_ref().err()?;
            Some(QuarantinedCell {
                experiment: o.spec.experiment.clone(),
                cell: o.spec.cell.clone(),
                key: o.key,
                attempts: e.attempts,
                message: e.message.clone(),
                reason: e.reason.clone(),
            })
        })
        .collect();
    RunReport {
        label: label.to_string(),
        jobs: runner.jobs,
        code_version: runner.code_version.clone(),
        cells_total: done,
        cells_cached: cached,
        cells_failed: faults.failed,
        cells_invalid: faults.invalid,
        cells_crashed: faults.crashed,
        cells_deadline: faults.deadline,
        retries: faults.retries,
        cache_store_errors: faults.store_errors,
        cache_load_corruptions: faults.load_corruptions,
        orphans_swept: account.sweep.total(),
        sweep: account.sweep,
        intents_resolved: account.intents_resolved,
        torn_entries_removed: account.torn_entries_removed,
        journal_torn_bytes: account.journal_torn_bytes,
        journal_prior_ok: account.journal_prior_ok,
        lock_broken: account.lock_broken,
        store: account.store,
        storage_bypass: progress.storage_bypass(),
        bypassed_writes: progress.bypassed_writes(),
        disk_fault_limit: runner.disk_fault_limit,
        wall_seconds,
        engine: progress.engine(),
        exec_micros: progress.exec_micros_total(),
        latency_histogram: progress.histogram(),
        p50_micros: progress.quantile_micros(0.50),
        p90_micros: progress.quantile_micros(0.90),
        quarantined,
        outcomes,
        isolate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_clean_recovers_poisoned_mutexes() {
        crate::chaos::quiet_injected_panics();
        let shared = Mutex::new(41u64);
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shared.lock().unwrap();
            panic!("chaos: poison while holding the lock");
        }));
        assert!(poison.is_err());
        assert!(shared.lock().is_err(), "the mutex must actually be poisoned");
        *lock_clean(&shared) += 1;
        assert_eq!(*lock_clean(&shared), 42, "lock_clean reads and writes through poison");
    }
}
