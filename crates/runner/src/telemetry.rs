//! Progress telemetry: a throttled stderr ticker while cells execute,
//! a log₂ latency histogram, ETA estimation, and cache-hit accounting.
//! Everything is lock-free on the hot path (atomics only); the printer
//! takes a short mutex to serialize output lines.

use crate::QuarantineKind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of log₂ buckets: bucket `i` counts cells with latency in
/// `[2^i, 2^(i+1))` microseconds; 40 buckets cover > 12 days.
pub const HISTO_BUCKETS: usize = 40;

/// Shared progress state for one runner invocation.
pub struct Progress {
    total: u64,
    done: AtomicU64,
    cached: AtomicU64,
    failed: AtomicU64,
    invalid: AtomicU64,
    crashed: AtomicU64,
    deadline: AtomicU64,
    retries: AtomicU64,
    store_errors: AtomicU64,
    load_corruptions: AtomicU64,
    exec_micros: AtomicU64,
    engine_events: AtomicU64,
    engine_queue_peak: AtomicU64,
    engine_runs: AtomicU64,
    histo: [AtomicU64; HISTO_BUCKETS],
    disk_fault_limit: u64,
    storage_bypass: AtomicBool,
    bypassed_writes: AtomicU64,
    started: Instant,
    print: Option<Mutex<Instant>>,
}

impl Progress {
    /// New progress tracker; `verbose` enables the stderr ticker.
    #[expect(
        clippy::disallowed_methods,
        reason = "campaign wall time and the ticker throttle are telemetry, never records"
    )]
    pub fn new(total: u64, verbose: bool) -> Self {
        Progress {
            total,
            done: AtomicU64::new(0),
            cached: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            invalid: AtomicU64::new(0),
            crashed: AtomicU64::new(0),
            deadline: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            store_errors: AtomicU64::new(0),
            load_corruptions: AtomicU64::new(0),
            exec_micros: AtomicU64::new(0),
            engine_events: AtomicU64::new(0),
            engine_queue_peak: AtomicU64::new(0),
            engine_runs: AtomicU64::new(0),
            histo: std::array::from_fn(|_| AtomicU64::new(0)),
            disk_fault_limit: 0,
            storage_bypass: AtomicBool::new(false),
            bypassed_writes: AtomicU64::new(0),
            started: Instant::now(),
            // Backdate the throttle so the first completion prints.
            // `checked_sub` because Instant arithmetic panics on underflow
            // (process start can be closer than 2×THROTTLE on some
            // platforms); falling back to `now` merely delays the first
            // progress line by one throttle window.
            print: verbose.then(|| {
                let now = Instant::now();
                Mutex::new(now.checked_sub(THROTTLE * 2).unwrap_or(now))
            }),
        }
    }

    /// Record one finished cell and maybe print a progress line.
    pub fn cell_done(&self, cell: &str, micros: u64, was_cached: bool) {
        let done = self.done.fetch_add(1, Ordering::AcqRel) + 1;
        if was_cached {
            self.cached.fetch_add(1, Ordering::AcqRel);
        } else {
            self.exec_micros.fetch_add(micros, Ordering::AcqRel);
        }
        let bucket = (64 - micros.max(1).leading_zeros() as usize - 1).min(HISTO_BUCKETS - 1);
        self.histo[bucket].fetch_add(1, Ordering::AcqRel);
        self.maybe_print(done, cell);
    }

    /// Record one quarantined cell of the given kind: it still counts
    /// toward `done` — the campaign drains past it — but its latency is
    /// executed time, not useful throughput.
    pub fn cell_quarantined(&self, kind: QuarantineKind, cell: &str, micros: u64) {
        let counter = match kind {
            QuarantineKind::Panic => &self.failed,
            QuarantineKind::Invalid => &self.invalid,
            QuarantineKind::Crashed => &self.crashed,
            QuarantineKind::Deadline => &self.deadline,
        };
        counter.fetch_add(1, Ordering::AcqRel);
        self.cell_done(cell, micros, false);
    }

    /// Count one retried attempt (a caught panic with budget remaining,
    /// or — isolated mode — a worker death with budget remaining).
    pub fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::AcqRel);
    }

    /// Arm the graceful-degradation ladder: once `limit` combined disk
    /// faults (store errors + load corruptions) accumulate, the campaign
    /// drops to read-only-cache / journal-bypass mode instead of hitting
    /// a failing disk with every remaining cell. `0` never trips.
    pub fn with_disk_fault_limit(mut self, limit: u64) -> Self {
        self.disk_fault_limit = limit;
        self
    }

    fn maybe_trip_bypass(&self) {
        if self.disk_fault_limit == 0 || self.storage_bypass.load(Ordering::Acquire) {
            return;
        }
        let faults = self.store_errors.load(Ordering::Acquire)
            + self.load_corruptions.load(Ordering::Acquire);
        if faults >= self.disk_fault_limit && !self.storage_bypass.swap(true, Ordering::AcqRel) {
            eprintln!(
                "[runner] {faults} disk faults (limit {}): dropping to read-only-cache / \
                 journal-bypass mode; completions from here are not persisted",
                self.disk_fault_limit
            );
        }
    }

    /// Whether the degradation ladder has tripped: storage writes are
    /// now skipped and counted instead of attempted.
    pub fn storage_bypass(&self) -> bool {
        self.storage_bypass.load(Ordering::Acquire)
    }

    /// Count one storage write skipped because the bypass is active.
    pub fn note_bypassed_write(&self) {
        self.bypassed_writes.fetch_add(1, Ordering::AcqRel);
    }

    /// Storage writes skipped under bypass.
    pub fn bypassed_writes(&self) -> u64 {
        self.bypassed_writes.load(Ordering::Acquire)
    }

    /// Count one failed cache (or journal) write — silent degradation
    /// turned into an observed counter.
    pub fn note_store_error(&self) {
        self.store_errors.fetch_add(1, Ordering::AcqRel);
        self.maybe_trip_bypass();
    }

    /// Count one corrupt cache entry encountered on load (recomputed,
    /// never fatal — but worth knowing the disk is rotting).
    pub fn note_load_corruption(&self) {
        self.load_corruptions.fetch_add(1, Ordering::AcqRel);
        self.maybe_trip_bypass();
    }

    /// Fold one executed cell's harvested engine counters into the run
    /// totals: event and run counts sum, the queue peak is a max.
    pub fn note_engine(&self, perf: crate::EnginePerf) {
        self.engine_events.fetch_add(perf.events_popped, Ordering::AcqRel);
        self.engine_queue_peak.fetch_max(perf.queue_peak, Ordering::AcqRel);
        self.engine_runs.fetch_add(perf.runs, Ordering::AcqRel);
    }

    /// Accumulated engine counters across every executed cell.
    pub fn engine(&self) -> crate::EnginePerf {
        crate::EnginePerf {
            events_popped: self.engine_events.load(Ordering::Acquire),
            queue_peak: self.engine_queue_peak.load(Ordering::Acquire),
            runs: self.engine_runs.load(Ordering::Acquire),
        }
    }

    /// Total executed (non-cached, non-quarantined-attempt) wall time in
    /// microseconds — the denominator for ns/event.
    pub fn exec_micros_total(&self) -> u64 {
        self.exec_micros.load(Ordering::Acquire)
    }

    /// A snapshot of every fault counter.
    pub fn faults(&self) -> Faults {
        Faults {
            failed: self.failed.load(Ordering::Acquire),
            invalid: self.invalid.load(Ordering::Acquire),
            crashed: self.crashed.load(Ordering::Acquire),
            deadline: self.deadline.load(Ordering::Acquire),
            retries: self.retries.load(Ordering::Acquire),
            store_errors: self.store_errors.load(Ordering::Acquire),
            load_corruptions: self.load_corruptions.load(Ordering::Acquire),
        }
    }

    fn maybe_print(&self, done: u64, cell: &str) {
        let Some(print) = &self.print else { return };
        #[expect(clippy::disallowed_methods, reason = "the ticker throttle reads the wall clock")]
        let now = Instant::now();
        {
            // Recover from a poisoned lock: losing one progress line is
            // better than a panic inside the panic handler path.
            let mut last = print.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            if done != self.total && now.duration_since(*last) < THROTTLE {
                return;
            }
            *last = now;
        }
        let cached = self.cached.load(Ordering::Acquire);
        let elapsed = self.started.elapsed().as_secs_f64();
        let eta = self.eta_seconds(done, cached, elapsed);
        let rate = if elapsed > 0.0 { done as f64 / elapsed } else { 0.0 };
        eprintln!(
            "[runner] {done}/{total} cells | {cached} cached ({pct:.0}% hit) | {rate:.1} cells/s | elapsed {elapsed:.1}s | eta {eta} | last {cell}",
            total = self.total,
            pct = if done > 0 { cached as f64 / done as f64 * 100.0 } else { 0.0 },
        );
    }

    fn eta_seconds(&self, done: u64, cached: u64, elapsed: f64) -> String {
        if done == 0 || done >= self.total {
            return "0.0s".to_string();
        }
        // Scale observed wall throughput; cached cells are ~free, so use
        // the executed-cell average when anything actually executed. The
        // two counters are loaded separately, so a concurrent cache hit
        // can make `cached` overtake this thread's `done`.
        let executed = done.saturating_sub(cached);
        let remaining = (self.total - done) as f64;
        let eta = if executed > 0 {
            let per_cell = elapsed / done as f64;
            remaining * per_cell
        } else {
            0.0
        };
        format!("{eta:.1}s")
    }

    /// Totals: `(done, cached, wall_seconds)`.
    pub fn totals(&self) -> (u64, u64, f64) {
        (
            self.done.load(Ordering::Acquire),
            self.cached.load(Ordering::Acquire),
            self.started.elapsed().as_secs_f64(),
        )
    }

    /// Non-empty histogram buckets as `(bucket_floor_micros, count)`.
    pub fn histogram(&self) -> Vec<(u64, u64)> {
        self.histo
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let count = c.load(Ordering::Acquire);
                (count > 0).then_some((1u64 << i, count))
            })
            .collect()
    }

    /// Approximate latency quantile (upper bucket edge), in microseconds.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let (done, _, _) = self.totals();
        if done == 0 {
            return 0;
        }
        let target = (done as f64 * q).ceil() as u64;
        let mut seen = 0;
        for (i, c) in self.histo.iter().enumerate() {
            seen += c.load(Ordering::Acquire);
            if seen >= target {
                return 2u64 << i;
            }
        }
        2u64 << (HISTO_BUCKETS - 1)
    }

    /// Print the end-of-run summary block to stderr.
    pub fn print_summary(&self, label: &str) {
        if self.print.is_none() {
            return;
        }
        let (done, cached, wall) = self.totals();
        eprintln!(
            "[runner] {label}: {done} cells in {wall:.2}s | {cached} cached ({:.0}% hit) | p50 {} | p90 {} | max {}",
            if done > 0 { cached as f64 / done as f64 * 100.0 } else { 0.0 },
            fmt_micros(self.quantile_micros(0.50)),
            fmt_micros(self.quantile_micros(0.90)),
            fmt_micros(self.quantile_micros(1.0)),
        );
        let f = self.faults();
        if f.total() > 0 {
            eprintln!(
                "[runner] {label}: faults — {} quarantined | {} invalid | {} worker-crashed | {} deadline | {} retried attempts | {} cache write errors | {} corrupt cache entries",
                f.failed, f.invalid, f.crashed, f.deadline, f.retries, f.store_errors, f.load_corruptions
            );
        }
    }
}

/// A snapshot of the run's fault counters (see [`Progress::faults`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Faults {
    /// Cells quarantined after panicking through the attempt budget.
    pub failed: u64,
    /// Cells quarantined as invalid (structured self-rejections).
    pub invalid: u64,
    /// Cells quarantined after every attempt died with its worker
    /// process (isolated mode only).
    pub crashed: u64,
    /// Cells quarantined by the deterministic work-unit deadline
    /// (isolated mode only).
    pub deadline: u64,
    /// Caught-and-retried attempts across all cells.
    pub retries: u64,
    /// Failed cache/journal writes.
    pub store_errors: u64,
    /// Corrupt cache entries encountered on load.
    pub load_corruptions: u64,
}

impl Faults {
    /// Sum of every counter — nonzero means the summary line prints.
    pub fn total(&self) -> u64 {
        self.failed
            + self.invalid
            + self.crashed
            + self.deadline
            + self.retries
            + self.store_errors
            + self.load_corruptions
    }
}

const THROTTLE: std::time::Duration = std::time::Duration::from_millis(200);

/// A wall-clock stopwatch for telemetry timings (cell latency, run wall
/// time). This module is the workspace's sanctioned clock reader outside
/// `bench` (clippy `disallowed_methods`, DESIGN.md §7): timings feed
/// manifests and progress output, never canonical records.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    #[expect(clippy::disallowed_methods, reason = "telemetry timings never reach records")]
    pub fn start() -> Self {
        Stopwatch { started: Instant::now() }
    }

    /// Elapsed time since start, in whole microseconds.
    pub fn elapsed_micros(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Elapsed time since start, in seconds.
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

fn fmt_micros(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.1}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let p = Progress::new(4, false);
        p.cell_done("a", 1, false); // bucket 0
        p.cell_done("b", 3, false); // bucket 1
        p.cell_done("c", 1024, false); // bucket 10
        p.cell_done("d", 1500, true); // bucket 10
        assert_eq!(p.histogram(), vec![(1, 1), (2, 1), (1024, 2)]);
        let (done, cached, _) = p.totals();
        assert_eq!((done, cached), (4, 1));
    }

    #[test]
    fn quantiles_walk_the_histogram() {
        let p = Progress::new(10, false);
        for _ in 0..9 {
            p.cell_done("x", 100, false);
        }
        p.cell_done("y", 1 << 20, false);
        assert!(p.quantile_micros(0.5) <= 256);
        assert!(p.quantile_micros(1.0) >= 1 << 20);
    }

    #[test]
    fn eta_tolerates_cached_ahead_of_done() {
        let p = Progress::new(10, false);
        assert_eq!(p.eta_seconds(3, 4, 1.0), "0.0s", "nothing executed: no estimate");
        assert_eq!(p.eta_seconds(3, 3, 1.0), "0.0s");
        assert_eq!(p.eta_seconds(4, 2, 2.0), "3.0s", "6 remaining at 0.5 s per cell");
    }

    #[test]
    fn zero_latency_does_not_panic() {
        let p = Progress::new(1, false);
        p.cell_done("z", 0, true);
        assert_eq!(p.histogram(), vec![(1, 1)]);
    }

    #[test]
    fn fault_counters_accumulate_independently() {
        let p = Progress::new(5, false);
        p.cell_done("a", 10, false);
        p.note_retry();
        p.note_retry();
        p.cell_quarantined(QuarantineKind::Panic, "b", 20);
        p.cell_quarantined(QuarantineKind::Invalid, "c", 30);
        p.cell_quarantined(QuarantineKind::Crashed, "d", 40);
        p.cell_quarantined(QuarantineKind::Deadline, "e", 50);
        p.note_store_error();
        p.note_load_corruption();
        assert_eq!(
            p.faults(),
            Faults {
                failed: 1,
                invalid: 1,
                crashed: 1,
                deadline: 1,
                retries: 2,
                store_errors: 1,
                load_corruptions: 1,
            }
        );
        let (done, cached, _) = p.totals();
        assert_eq!((done, cached), (5, 0), "quarantined cells count as done, never as cached");
    }

    #[test]
    fn disk_fault_limit_trips_bypass_once() {
        let p = Progress::new(10, false).with_disk_fault_limit(3);
        p.note_store_error();
        p.note_load_corruption();
        assert!(!p.storage_bypass(), "below the limit the ladder stays up");
        p.note_store_error();
        assert!(p.storage_bypass(), "limit reached: read-only-cache mode");
        p.note_bypassed_write();
        p.note_bypassed_write();
        assert_eq!(p.bypassed_writes(), 2);
        // A zero limit never trips, no matter the fault count.
        let q = Progress::new(10, false);
        for _ in 0..100 {
            q.note_store_error();
        }
        assert!(!q.storage_bypass());
    }

    #[test]
    fn poisoned_print_lock_recovers_instead_of_repanicking() {
        let p = Progress::new(4, true);
        // Poison the printer's throttle mutex the only way a real run
        // can: a panic while the lock is held.
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = p.print.as_ref().unwrap().lock().unwrap();
            panic!("chaos: poison the print lock");
        }));
        assert!(poison.is_err());
        assert!(p.print.as_ref().unwrap().lock().is_err(), "lock must actually be poisoned");
        // Both print paths must keep working through the poison.
        p.cell_done("a", 10, false);
        p.cell_quarantined(QuarantineKind::Panic, "b", 20);
        p.print_summary("poisoned");
        assert_eq!(p.totals().0, 2);
    }
}
