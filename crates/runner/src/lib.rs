//! # runner — hermetic, fault-tolerant parallel experiment execution
//!
//! The laboratory regenerates the paper's artifacts (Tables 1–5,
//! Figures 1–2, and the extension studies) by evaluating thousands of
//! deterministic `(experiment, cell, rep)` simulations. This crate is
//! the execution engine underneath them:
//!
//! * **Job model** — every artifact is decomposed into [`Cell`]s: a
//!   stable identity ([`CellSpec`]: experiment id, cell label, canonical
//!   parameters, seed, reps) plus a pure work closure producing a
//!   [`Json`] payload. Because every cell seeds its own RNG streams from
//!   its identity (`SimRng::from_path`), payloads are bit-identical
//!   regardless of scheduling — `--jobs 8` equals `--jobs 1` byte for
//!   byte.
//! * **Dispatcher** — one shared work queue and one settle step own
//!   every per-cell decision: cache lookup, attempt budget, store
//!   writes, journal lines, telemetry, and quarantine. Two transports
//!   sit below it — in-thread (the calling thread, or scoped threads for
//!   `jobs > 1`) and supervised worker subprocesses (below) — and
//!   results land in submission-order slots.
//! * **Result cache** ([`cache`]) — each completed cell persists as one
//!   JSON line under `results/cache/`, keyed by a content hash of the
//!   cell identity and a code-version tag. Re-runs and `--resume` skip
//!   completed cells; corrupted entries are recomputed, never fatal.
//! * **Fault isolation** — each cell executes under `catch_unwind`, so
//!   a panicking cell is *quarantined* instead of killing the run: the
//!   campaign drains, the [`RunReport`] carries the failure
//!   ([`CellOutcome::result`] is a success/failure sum), and downstream
//!   renderers show an explicitly-marked hole. Cells get a bounded,
//!   deterministic retry budget ([`Runner::max_attempts`], no wall-clock
//!   backoff) before quarantine. Work can also *reject its own inputs*
//!   ([`Cell::fallible`] returning `Err`): such invalid cells are
//!   quarantined immediately — no retries, the verdict is deterministic
//!   — and carry a machine-readable `reason` into the report and
//!   manifest.
//! * **Completion journal** ([`journal`]) — an append-only JSONL record
//!   of every completed cell (successes *and* quarantines), written
//!   crash-safely so a SIGKILL'd campaign resumes exactly.
//! * **Telemetry** ([`telemetry`]) — cells done/total, cache hit rate,
//!   fault counters (quarantines, retries, cache I/O errors), a log₂
//!   cell-latency histogram, and an ETA on stderr, plus a
//!   machine-readable run manifest.
//! * **Process isolation** ([`supervisor`] / [`worker`] / [`proto`]) —
//!   the opt-in subprocess transport: cells run in supervised worker
//!   *subprocesses* over a length-prefixed JSON pipe protocol. A
//!   SIGKILLed, aborted, or hung worker never takes down the campaign:
//!   its in-flight cell is journaled, deterministically reassigned up to
//!   the same attempt budget, and finally quarantined with a
//!   machine-readable `worker-crash` reason. Deterministic work-unit
//!   deadlines (`deadline` quarantines) bound runaway cells without
//!   consulting wall clock on the verdict path.
//! * **Campaign lock** ([`lockfile`]) — one live campaign per
//!   (cache dir, label); a second concurrent campaign fails fast with a
//!   typed error instead of silently interleaving journal writes.
//! * **Chaos harness** ([`chaos`], test/`chaos`-feature gated) — seeded,
//!   deterministic fault injection (panics, aborts, hangs,
//!   corrupt/truncated cache entries, torn temp files, stragglers)
//!   proving every recovery path.
//!
//! A finished run maps to a process exit discipline via [`RunStatus`]:
//! `0` clean, `1` degraded (invalid cells were quarantined with typed
//! reasons, or cache I/O faults were observed), `2` failed (one or more
//! cells panicked through their retry budget).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod cache;
#[cfg(any(test, feature = "chaos"))]
pub mod chaos;
pub mod design;
mod dispatch;
pub mod journal;
pub mod lockfile;
pub mod proto;
pub mod store;
pub mod supervisor;
pub mod telemetry;
#[cfg(any(test, feature = "chaos"))]
pub mod testcells;
pub mod vfs;
pub mod worker;

use jsonio::Json;
use std::path::PathBuf;
use std::sync::Arc;

/// Engine-side hot-path counters harvested around one interval of work.
///
/// The runner does not depend on any simulator *engine* crate (its only
/// simulation-side dependency is `sim-core`'s RNG/statistics kernels),
/// so it cannot read the engine's thread-local counters itself; the
/// binary that owns both sides installs a [`Runner::perf_probe`]
/// translating the engine's counters into this mirror struct.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnginePerf {
    /// Events popped from the engine's event queue.
    pub events_popped: u64,
    /// Highest event-queue length observed in any single engine run.
    pub queue_peak: u64,
    /// Engine runs completed.
    pub runs: u64,
}

/// A thread-local counter probe: returns the calling thread's
/// accumulated [`EnginePerf`] **and resets it**, so the worker can
/// bracket each cell (discard before, harvest after) and attribute
/// counts to exactly the work it just executed.
pub type PerfProbe = Arc<dyn Fn() -> EnginePerf + Send + Sync>;

/// The stable identity of one experiment cell — everything that
/// determines its output, and therefore its cache key.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    /// Experiment id (`"table2"`, `"figure1"`, `"x-detect"`, ...).
    pub experiment: String,
    /// Cell label within the experiment (`"A-n4-r1"`, ...).
    pub cell: String,
    /// Canonical cell parameters (compact JSON participates in the key).
    pub params: Json,
    /// Root seed the cell derives its RNG streams from.
    pub seed: u64,
    /// Replications folded into this cell.
    pub reps: u32,
}

/// A schedulable cell: identity plus the pure work closure.
pub struct Cell {
    /// The cell's identity.
    pub spec: CellSpec,
    /// Computes the payload. Must be deterministic given `spec` — the
    /// runner may satisfy it from cache or run it on any worker thread.
    /// `Err` carries a structured reason (e.g. a simulator `SimError`
    /// rendered as JSON): the cell is *invalid* and is quarantined
    /// immediately, with no retries — validity failures are
    /// deterministic, so retrying them only burns budget.
    pub work: Box<dyn Fn() -> Result<Json, Json> + Send + Sync>,
}

impl Cell {
    /// Convenience constructor for infallible work.
    pub fn new(spec: CellSpec, work: impl Fn() -> Json + Send + Sync + 'static) -> Self {
        Cell { spec, work: Box::new(move || Ok(work())) }
    }

    /// Constructor for work that can reject its own inputs: `Err`
    /// carries a machine-readable reason and quarantines the cell
    /// without retries.
    pub fn fallible(
        spec: CellSpec,
        work: impl Fn() -> Result<Json, Json> + Send + Sync + 'static,
    ) -> Self {
        Cell { spec, work: Box::new(work) }
    }
}

/// How the result cache participates in a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// Read hits, write misses (the default; also what `--resume` uses).
    ReadWrite,
    /// No cache traffic at all (`--no-cache`).
    Off,
}

/// Runner configuration.
#[derive(Clone)]
pub struct Runner {
    /// Worker threads (clamped to at least 1).
    pub jobs: usize,
    /// Cache behaviour.
    pub cache_mode: CacheMode,
    /// Cache root directory (`results/cache` by convention).
    pub cache_dir: PathBuf,
    /// Code-version tag mixed into every cache key so entries from an
    /// older build of the simulators are never returned.
    pub code_version: String,
    /// Progress ticker on stderr.
    pub verbose: bool,
    /// Attempt budget per cell (clamped to at least 1). A cell whose
    /// closure panics is requeued at the front of the dispatch queue —
    /// deterministically, with no wall-clock backoff — until the budget
    /// is spent, then quarantined. Cell work is a pure function of the
    /// cell identity, so the retry schedule is too.
    pub max_attempts: u32,
    /// Optional engine-counter probe (see [`PerfProbe`]). When set, each
    /// executed (non-cached) cell is bracketed with it and the harvested
    /// counters are summed into the run manifest's `engine` section.
    /// Counters never touch cell payloads, so records stay byte-stable
    /// whether or not a probe is installed.
    pub perf_probe: Option<PerfProbe>,
    /// Process-isolated execution (`--isolate`): when set, cells run in
    /// supervised worker *subprocesses* instead of in-process threads —
    /// see [`supervisor`]. `None` runs them in-thread.
    pub isolate: Option<supervisor::IsolateConfig>,
    /// The filesystem handle every byte this campaign persists flows
    /// through. [`vfs::Vfs::real`] in production; the durability suite
    /// (and `--vfs-faults`) installs a fault-injecting plan instead.
    pub vfs: vfs::Vfs,
    /// Graceful-degradation threshold: once this many combined disk
    /// faults (store errors + load corruptions) accumulate, the campaign
    /// drops to read-only-cache / journal-bypass mode and finishes
    /// Degraded instead of hammering a failing disk. `0` disables the
    /// ladder (every write keeps being attempted).
    pub disk_fault_limit: u64,
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("jobs", &self.jobs)
            .field("cache_mode", &self.cache_mode)
            .field("cache_dir", &self.cache_dir)
            .field("code_version", &self.code_version)
            .field("verbose", &self.verbose)
            .field("max_attempts", &self.max_attempts)
            .field("perf_probe", &self.perf_probe.is_some())
            .field("isolate", &self.isolate)
            .field("vfs_faulty", &self.vfs.is_faulty())
            .field("disk_fault_limit", &self.disk_fault_limit)
            .finish()
    }
}

impl Runner {
    /// A runner with the conventional cache location and this crate's
    /// version as the code tag (callers usually override the tag with
    /// their own release stamp).
    pub fn new(jobs: usize) -> Self {
        Runner {
            jobs: jobs.max(1),
            cache_mode: CacheMode::ReadWrite,
            cache_dir: PathBuf::from("results/cache"),
            code_version: concat!("runner-", env!("CARGO_PKG_VERSION")).to_string(),
            verbose: true,
            max_attempts: 3,
            perf_probe: None,
            isolate: None,
            vfs: vfs::Vfs::real(),
            disk_fault_limit: 32,
        }
    }

    /// Execute every cell (from cache where possible) and return
    /// outcomes in submission order. A panicking cell never aborts the
    /// campaign: it is retried up to [`Runner::max_attempts`] times and
    /// then quarantined into the report.
    ///
    /// Infallible wrapper over [`Runner::try_run`]: a campaign that
    /// cannot even start (another live campaign holds the lock) is
    /// rendered as an aborted, degraded report with a typed quarantine
    /// entry instead of an `Err` — callers that want to branch on the
    /// typed error use `try_run` directly.
    pub fn run(&self, label: &str, cells: Vec<Cell>) -> RunReport {
        match self.try_run(label, cells) {
            Ok(report) => report,
            Err(RunnerError::Locked(held)) => {
                eprintln!("[runner] {label}: {held}");
                aborted_report(self, label, &held)
            }
        }
    }

    /// [`Runner::run`], except a campaign that cannot start returns the
    /// typed [`RunnerError`] instead of a synthesized degraded report.
    ///
    /// Holds the exclusive campaign lock (`<cache>/journal/<label>.lock`)
    /// for the whole run whenever the cache is active: two concurrent
    /// campaigns over the same journal would interleave appends and
    /// silently corrupt the resume account, so the second one fails fast
    /// here. `CacheMode::Off` runs share no state and take no lock.
    pub fn try_run(&self, label: &str, cells: Vec<Cell>) -> Result<RunReport, RunnerError> {
        let (_lock, lock_broken) = if self.cache_mode != CacheMode::Off {
            match lockfile::CampaignLock::acquire(&self.cache_dir, label) {
                Ok(acquired) => (acquired.guard, acquired.broke),
                Err(held) => return Err(RunnerError::Locked(held)),
            }
        } else {
            (None, None)
        };
        Ok(dispatch::run(self, label, cells, lock_broken))
    }
}

/// The report for a campaign that never started (the lock was held):
/// zero cells, one typed quarantine entry carrying the contention, and
/// a degraded status — the caller's artifact pipeline sees the same
/// shape as any other degraded run.
fn aborted_report(runner: &Runner, label: &str, held: &lockfile::LockHeld) -> RunReport {
    let reason = Json::obj(vec![
        ("kind", Json::Str("campaign-locked".into())),
        ("lock", Json::Str(held.path.display().to_string())),
        ("holder_pid", held.holder_pid.map(Json::U64).unwrap_or(Json::Null)),
    ]);
    let idle = telemetry::Progress::new(0, false);
    let mut report = dispatch::assemble_report(
        runner,
        label,
        &idle,
        0.0,
        dispatch::StorageAccount::default(),
        Vec::new(),
        None,
    );
    report.cells_invalid = 1;
    report.quarantined = vec![QuarantinedCell {
        experiment: label.to_string(),
        cell: "campaign".to_string(),
        key: cache::CacheKey(0, 0),
        attempts: 0,
        message: held.to_string(),
        reason,
    }];
    report
}

/// Why a campaign could not start at all. Distinct from per-cell
/// failures — those drain into the [`RunReport`]; this error means no
/// cell ran and no journal line was written.
#[derive(Debug)]
pub enum RunnerError {
    /// Another live campaign holds the exclusive (cache dir, label)
    /// lock. Running anyway would interleave journal appends.
    Locked(lockfile::LockHeld),
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunnerError::Locked(held) => held.fmt(f),
        }
    }
}

impl std::error::Error for RunnerError {}

/// Render a caught panic payload (the `Box<dyn Any>` from
/// `catch_unwind`) as the human-readable string carried by [`CellError`].
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The successful side of a cell outcome.
#[derive(Clone, Debug)]
pub struct CellValue {
    /// The computed (or cached) payload.
    pub payload: Json,
    /// Whether the payload came from cache.
    pub cached: bool,
    /// Work-closure attempts consumed (0 for a cache hit).
    pub attempts: u32,
    /// Wall latency of this cell on its worker, in microseconds.
    pub micros: u64,
}

/// How a cell came to be quarantined — the machine-readable class the
/// manifest's `cells[].status` column and the exit discipline key off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuarantineKind {
    /// Panicked through the whole retry budget (exit-code *failed*).
    Panic,
    /// Structured self-rejection, no retries (exit-code *degraded*).
    Invalid,
    /// Every attempt died with its worker process — killed, aborted, or
    /// watchdog-shot (isolated mode only; exit-code *degraded*).
    Crashed,
    /// Exceeded the deterministic work-unit budget (isolated mode only;
    /// exit-code *degraded*).
    Deadline,
}

impl QuarantineKind {
    /// The manifest `cells[].status` label for this kind.
    pub fn label(self) -> &'static str {
        match self {
            QuarantineKind::Panic => "failed",
            QuarantineKind::Invalid => "invalid",
            QuarantineKind::Crashed => "crashed",
            QuarantineKind::Deadline => "deadline",
        }
    }
}

/// The failure side of a cell outcome: the cell was quarantined, either
/// because it exhausted its panic-retry budget, because its work
/// rejected its own inputs with a structured reason, or (isolated mode)
/// because its worker process died or its work-unit deadline fired.
#[derive(Clone, Debug)]
pub struct CellError {
    /// One-line human-readable cause: the final attempt's panic message,
    /// or the rendered rejection reason.
    pub message: String,
    /// Machine-readable rejection reason (e.g. a `SimError` rendered as
    /// JSON, or the supervisor's `worker-crash`/`deadline` objects).
    /// `Json::Null` for panics — panics carry no structure.
    pub reason: Json,
    /// Which quarantine class this is.
    pub kind: QuarantineKind,
    /// Attempts consumed (the full budget for panics, 1 for invalid
    /// cells — validity verdicts are deterministic and never retried).
    pub attempts: u32,
    /// Wall time spent across all attempts, in microseconds.
    pub micros: u64,
}

impl CellError {
    /// Whether this is a structured validity rejection (as opposed to a
    /// panic, crash, or deadline quarantine).
    pub fn invalid(&self) -> bool {
        self.kind == QuarantineKind::Invalid
    }
}

/// One completed cell: its identity plus a success/failure sum.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// The cell's identity.
    pub spec: CellSpec,
    /// Its cache key.
    pub key: cache::CacheKey,
    /// Payload on success, quarantine record on failure.
    pub result: Result<CellValue, CellError>,
}

impl CellOutcome {
    /// The payload, if the cell succeeded.
    pub fn payload(&self) -> Option<&Json> {
        self.result.as_ref().ok().map(|v| &v.payload)
    }

    /// Whether the payload came from cache (false for failures).
    pub fn cached(&self) -> bool {
        self.result.as_ref().map(|v| v.cached).unwrap_or(false)
    }

    /// Whether the cell was quarantined.
    pub fn failed(&self) -> bool {
        self.result.is_err()
    }

    /// Whether the cell was quarantined as *invalid* (a structured
    /// rejection rather than a panic).
    pub fn invalid(&self) -> bool {
        self.result.as_ref().err().map(|e| e.invalid()).unwrap_or(false)
    }

    /// Work-closure attempts consumed.
    pub fn attempts(&self) -> u32 {
        match &self.result {
            Ok(v) => v.attempts,
            Err(e) => e.attempts,
        }
    }

    /// Wall latency of this cell on its worker, in microseconds.
    pub fn micros(&self) -> u64 {
        match &self.result {
            Ok(v) => v.micros,
            Err(e) => e.micros,
        }
    }

    /// The canonical JSONL record for this outcome (one compact line),
    /// or `None` for a quarantined cell — failures never mint records.
    /// Deliberately excludes wall-clock and cache fields so records are
    /// byte-identical across serial, parallel, cold, resumed, and
    /// fault-recovered runs.
    pub fn record(&self) -> Option<String> {
        let payload = self.payload()?;
        Some(
            Json::obj(vec![
                ("experiment", Json::Str(self.spec.experiment.clone())),
                ("cell", Json::Str(self.spec.cell.clone())),
                ("params", self.spec.params.clone()),
                ("seed", Json::U64(self.spec.seed)),
                ("reps", Json::U64(self.spec.reps as u64)),
                ("payload", payload.clone()),
            ])
            .to_string(),
        )
    }
}

/// One quarantined cell, as carried by the report and the manifest.
#[derive(Clone, Debug)]
pub struct QuarantinedCell {
    /// Experiment id.
    pub experiment: String,
    /// Cell label.
    pub cell: String,
    /// Cache key of the cell.
    pub key: cache::CacheKey,
    /// Attempts consumed before quarantine.
    pub attempts: u32,
    /// One-line cause: panic message or rendered rejection reason.
    pub message: String,
    /// Machine-readable rejection reason (`Json::Null` for panics).
    pub reason: Json,
}

/// How a finished run maps to a process exit code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RunStatus {
    /// Every cell produced a payload and no faults were observed.
    Clean,
    /// The campaign completed in a diminished form: cells were
    /// quarantined as *invalid* (structured rejections — the artifact
    /// has explicitly-reasoned holes), or cache I/O faults (write
    /// errors, corrupt entries) were observed along the way.
    Degraded,
    /// One or more cells were quarantined after panicking through their
    /// whole retry budget; the artifact has unexplained holes.
    Failed,
}

impl RunStatus {
    /// The CLI exit code: 0 clean, 1 degraded, 2 failed.
    pub fn exit_code(self) -> i32 {
        match self {
            RunStatus::Clean => 0,
            RunStatus::Degraded => 1,
            RunStatus::Failed => 2,
        }
    }

    /// Lowercase label used in manifests and log lines.
    pub fn label(self) -> &'static str {
        match self {
            RunStatus::Clean => "clean",
            RunStatus::Degraded => "degraded",
            RunStatus::Failed => "failed",
        }
    }
}

/// The result of one `Runner::run` invocation.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The label passed to `run` (experiment or command name).
    pub label: String,
    /// Worker threads used.
    pub jobs: usize,
    /// Code-version tag in effect.
    pub code_version: String,
    /// Cells executed, loaded, or quarantined.
    pub cells_total: u64,
    /// Cells satisfied from cache.
    pub cells_cached: u64,
    /// Cells quarantined after panicking through their attempt budget.
    pub cells_failed: u64,
    /// Cells quarantined as invalid (structured rejections, no retry).
    pub cells_invalid: u64,
    /// Cells quarantined because every attempt died with its worker
    /// process (isolated mode only; always 0 in-process).
    pub cells_crashed: u64,
    /// Cells quarantined by the deterministic work-unit deadline
    /// (isolated mode only; always 0 in-process).
    pub cells_deadline: u64,
    /// Caught-and-retried attempts across all cells.
    pub retries: u64,
    /// Cache/journal write failures (observed, not swallowed).
    pub cache_store_errors: u64,
    /// Corrupt cache entries encountered on load (each recomputed).
    pub cache_load_corruptions: u64,
    /// Stale `*.tmp.*` files swept at startup (all areas combined).
    pub orphans_swept: u64,
    /// The same sweep broken down by storage area.
    pub sweep: cache::SweepStats,
    /// Write-ahead intents replayed by the store open (publishes that
    /// were in flight when the previous run died).
    pub intents_resolved: u64,
    /// Objects intent replay proved torn and removed.
    pub torn_entries_removed: u64,
    /// Torn journal-tail bytes truncated at startup.
    pub journal_torn_bytes: u64,
    /// Cells of this run already journaled `ok` by an earlier
    /// (possibly killed) run of the same label — the crash-safe resume
    /// account.
    pub journal_prior_ok: u64,
    /// The stale campaign lock broken on the way in, if any — who held
    /// it and how old it was.
    pub lock_broken: Option<lockfile::BrokenLock>,
    /// Shared-store counters: local hits, cross-campaign dedup hits,
    /// misses, publishes, bookkeeping errors.
    pub store: store::StoreCounters,
    /// Whether the disk-fault ladder tripped into read-only-cache /
    /// journal-bypass mode during the run.
    pub storage_bypass: bool,
    /// Storage writes skipped while the bypass was active.
    pub bypassed_writes: u64,
    /// The configured disk-fault threshold (0 = ladder disabled).
    pub disk_fault_limit: u64,
    /// Wall time of the whole run.
    pub wall_seconds: f64,
    /// Engine hot-path counters summed over executed cells — all zero
    /// unless a [`PerfProbe`] was installed on the runner.
    pub engine: EnginePerf,
    /// Total executed (non-cached) cell wall time, in microseconds —
    /// the denominator used for the manifest's ns/event figure.
    pub exec_micros: u64,
    /// `(bucket_floor_micros, count)` latency histogram.
    pub latency_histogram: Vec<(u64, u64)>,
    /// Approximate median cell latency.
    pub p50_micros: u64,
    /// Approximate 90th-percentile cell latency.
    pub p90_micros: u64,
    /// Quarantine details, in submission order.
    pub quarantined: Vec<QuarantinedCell>,
    /// Per-cell outcomes, in submission order.
    pub outcomes: Vec<CellOutcome>,
    /// Supervision accounting when the run executed process-isolated
    /// (`None` for in-thread runs).
    pub isolate: Option<supervisor::IsolateReport>,
}

impl RunReport {
    /// Payloads in submission order (what assemblers consume). A
    /// quarantined cell contributes `Json::Null` — an explicitly-marked
    /// hole the assemblers and renderers carry through instead of
    /// aborting.
    pub fn payloads(&self) -> Vec<Json> {
        self.outcomes.iter().map(|o| o.payload().cloned().unwrap_or(Json::Null)).collect()
    }

    /// All outcome records as JSONL (one compact line per surviving
    /// cell, in submission order) — the determinism guard compares
    /// these bytes. Quarantined cells mint no record, so the surviving
    /// lines are byte-identical to a fault-free run's.
    pub fn records_jsonl(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            if let Some(record) = o.record() {
                out.push_str(&record);
                out.push('\n');
            }
        }
        out
    }

    /// The run's exit discipline: failed if any cell panicked through
    /// its budget; degraded if cells were rejected as invalid, lost to
    /// worker crashes, or deadline-killed (the holes carry structured
    /// reasons) or cache faults were observed; clean otherwise.
    /// Successful retries alone do not degrade a run — the records they
    /// produce are byte-identical to a fault-free run's.
    pub fn status(&self) -> RunStatus {
        if self.cells_failed > 0 {
            RunStatus::Failed
        } else if self.cells_invalid > 0
            || self.cells_crashed > 0
            || self.cells_deadline > 0
            || self.cache_store_errors > 0
            || self.cache_load_corruptions > 0
        {
            RunStatus::Degraded
        } else {
            RunStatus::Clean
        }
    }

    /// The machine-readable run manifest. Schema 6 adds the `stats`
    /// section: per-cell adaptive-sampling verdicts (n, CI, stopping
    /// flags) and the campaign-level power check — `Json::Null` for
    /// fixed-design campaigns (see [`design::campaign_stats`]).
    pub fn manifest(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::U64(6)),
            ("label", Json::Str(self.label.clone())),
            ("code", Json::Str(self.code_version.clone())),
            ("jobs", Json::U64(self.jobs as u64)),
            ("status", Json::Str(self.status().label().to_string())),
            ("cells_total", Json::U64(self.cells_total)),
            ("cells_cached", Json::U64(self.cells_cached)),
            ("cells_failed", Json::U64(self.cells_failed)),
            ("cells_invalid", Json::U64(self.cells_invalid)),
            ("cells_crashed", Json::U64(self.cells_crashed)),
            ("cells_deadline", Json::U64(self.cells_deadline)),
            ("retries", Json::U64(self.retries)),
            ("cache_store_errors", Json::U64(self.cache_store_errors)),
            ("cache_load_corruptions", Json::U64(self.cache_load_corruptions)),
            ("orphans_swept", Json::U64(self.orphans_swept)),
            ("journal_prior_ok", Json::U64(self.journal_prior_ok)),
            (
                "storage",
                Json::obj(vec![
                    ("hits", Json::U64(self.store.hits)),
                    ("dedup_hits", Json::U64(self.store.dedup_hits)),
                    ("misses", Json::U64(self.store.misses)),
                    ("corrupt", Json::U64(self.store.corrupt)),
                    ("puts", Json::U64(self.store.puts)),
                    ("index_errors", Json::U64(self.store.index_errors)),
                    ("intents_resolved", Json::U64(self.intents_resolved)),
                    ("torn_entries_removed", Json::U64(self.torn_entries_removed)),
                    ("journal_torn_bytes", Json::U64(self.journal_torn_bytes)),
                    (
                        "sweep",
                        Json::obj(vec![
                            ("cache_tmp", Json::U64(self.sweep.cache_tmp)),
                            ("journal_tmp", Json::U64(self.sweep.journal_tmp)),
                            ("manifest_tmp", Json::U64(self.sweep.manifest_tmp)),
                        ]),
                    ),
                    ("bypass", Json::Bool(self.storage_bypass)),
                    ("bypassed_writes", Json::U64(self.bypassed_writes)),
                    ("disk_fault_limit", Json::U64(self.disk_fault_limit)),
                ]),
            ),
            (
                "lock_broken",
                match &self.lock_broken {
                    None => Json::Null,
                    Some(broke) => Json::obj(vec![
                        ("holder_pid", broke.holder_pid.map(Json::U64).unwrap_or(Json::Null)),
                        ("age_seconds", broke.age_seconds.map(Json::U64).unwrap_or(Json::Null)),
                    ]),
                },
            ),
            (
                "cache_hit_rate",
                Json::F64(if self.cells_total > 0 {
                    self.cells_cached as f64 / self.cells_total as f64
                } else {
                    0.0
                }),
            ),
            ("wall_seconds", Json::F64(self.wall_seconds)),
            (
                "engine",
                Json::obj(vec![
                    ("events_popped", Json::U64(self.engine.events_popped)),
                    ("queue_peak", Json::U64(self.engine.queue_peak)),
                    ("runs", Json::U64(self.engine.runs)),
                    (
                        "ns_per_event",
                        Json::F64(if self.engine.events_popped > 0 {
                            self.exec_micros as f64 * 1000.0 / self.engine.events_popped as f64
                        } else {
                            0.0
                        }),
                    ),
                ]),
            ),
            ("p50_micros", Json::U64(self.p50_micros)),
            ("p90_micros", Json::U64(self.p90_micros)),
            (
                "latency_histogram",
                Json::Arr(
                    self.latency_histogram
                        .iter()
                        .map(|&(floor, count)| {
                            Json::obj(vec![
                                ("ge_micros", Json::U64(floor)),
                                ("count", Json::U64(count)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "quarantined",
                Json::Arr(
                    self.quarantined
                        .iter()
                        .map(|q| {
                            Json::obj(vec![
                                ("experiment", Json::Str(q.experiment.clone())),
                                ("cell", Json::Str(q.cell.clone())),
                                ("key", Json::Str(q.key.hex())),
                                ("attempts", Json::U64(q.attempts as u64)),
                                ("panic", Json::Str(q.message.clone())),
                                ("reason", q.reason.clone()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "cells",
                Json::Arr(
                    self.outcomes
                        .iter()
                        .map(|o| {
                            Json::obj(vec![
                                ("experiment", Json::Str(o.spec.experiment.clone())),
                                ("cell", Json::Str(o.spec.cell.clone())),
                                ("key", Json::Str(o.key.hex())),
                                (
                                    "status",
                                    Json::Str(
                                        match &o.result {
                                            Ok(_) => "ok",
                                            Err(e) => e.kind.label(),
                                        }
                                        .to_string(),
                                    ),
                                ),
                                ("cached", Json::Bool(o.cached())),
                                ("attempts", Json::U64(o.attempts() as u64)),
                                ("micros", Json::U64(o.micros())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("stats", design::campaign_stats(&self.outcomes)),
            (
                "isolate",
                match &self.isolate {
                    None => Json::Null,
                    Some(iso) => Json::obj(vec![
                        ("workers", Json::U64(iso.workers.len() as u64)),
                        ("worker_spawns", Json::U64(iso.workers.iter().map(|w| w.spawns).sum())),
                        ("worker_crashes", Json::U64(iso.workers.iter().map(|w| w.crashes).sum())),
                        ("pool_exhausted_cells", Json::U64(iso.pool_exhausted_cells)),
                        (
                            "per_worker",
                            Json::Arr(
                                iso.workers
                                    .iter()
                                    .map(|w| {
                                        Json::obj(vec![
                                            ("spawns", Json::U64(w.spawns)),
                                            ("crashes", Json::U64(w.crashes)),
                                            ("cells_ok", Json::U64(w.cells_ok)),
                                            ("cells_crashed", Json::U64(w.cells_crashed)),
                                            ("cells_deadline", Json::U64(w.cells_deadline)),
                                            ("gave_up", Json::Bool(w.gave_up)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                },
            ),
        ])
    }

    /// Write the manifest (pretty JSON) to
    /// `<cache_dir>/manifests/<label>.json`, atomically: the body goes
    /// to a unique `*.tmp.*` sibling first and is renamed into place, so
    /// a kill mid-write never leaves a torn manifest (the stranded temp
    /// file is swept at the next runner startup). The replaced manifest
    /// is kept as `<label>.json.spare` and recycled as the next write's
    /// temp ([`vfs::Vfs::replace`]), so rewriting it frees no disk block.
    pub fn write_manifest(&self, cache_dir: &std::path::Path) -> std::io::Result<PathBuf> {
        self.write_manifest_with(&vfs::Vfs::real(), cache_dir)
    }

    /// [`RunReport::write_manifest`] through an explicit filesystem
    /// handle, so the durability suite can fail the manifest rename.
    pub fn write_manifest_with(
        &self,
        vfs: &vfs::Vfs,
        cache_dir: &std::path::Path,
    ) -> std::io::Result<PathBuf> {
        let dir = cache_dir.join("manifests");
        let path = dir.join(format!("{}.json", cache::label_stem(&self.label)));
        let mut body = self.manifest().to_string_pretty();
        body.push('\n');
        vfs.replace(&path, &body)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use crate::chaos::quiet_injected_panics;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smi-lab-runner-test-{}-{}",
            std::process::id(),
            tag
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp cache dir");
        dir
    }

    fn counting_cells(n: u64, executions: &Arc<AtomicU64>) -> Vec<Cell> {
        (0..n)
            .map(|i| {
                let executions = Arc::clone(executions);
                Cell::new(
                    CellSpec {
                        experiment: "test".into(),
                        cell: format!("c{i}"),
                        params: Json::obj(vec![("i", Json::U64(i))]),
                        seed: 1,
                        reps: 1,
                    },
                    move || {
                        executions.fetch_add(1, Ordering::Relaxed);
                        Json::obj(vec![("value", Json::U64(i * 10))])
                    },
                )
            })
            .collect()
    }

    #[test]
    fn outcomes_preserve_order_and_payloads() {
        let executions = Arc::new(AtomicU64::new(0));
        let mut runner = Runner::new(4);
        runner.cache_mode = CacheMode::Off;
        runner.verbose = false;
        let report = runner.run("order", counting_cells(20, &executions));
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.spec.cell, format!("c{i}"));
            assert_eq!(o.payload().unwrap().get("value").unwrap().as_u64(), Some(i as u64 * 10));
            assert_eq!(o.attempts(), 1);
        }
        assert_eq!(executions.load(Ordering::Relaxed), 20);
        assert_eq!(report.cells_cached, 0);
        assert_eq!(report.status(), RunStatus::Clean);
    }

    #[test]
    fn serial_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let cells = (0..4u64)
            .map(|i| {
                let spec = CellSpec {
                    experiment: "test".into(),
                    cell: format!("c{i}"),
                    params: Json::Null,
                    seed: 1,
                    reps: 1,
                };
                Cell::new(spec, move || Json::Bool(std::thread::current().id() == caller))
            })
            .collect();
        let mut runner = Runner::new(1);
        runner.cache_mode = CacheMode::Off;
        runner.verbose = false;
        let report = runner.run("serial", cells);
        assert!(report.payloads().iter().all(|p| *p == Json::Bool(true)), "no thread spawned");
    }

    #[test]
    fn empty_and_oversized_job_counts() {
        let executions = Arc::new(AtomicU64::new(0));
        let mut runner = Runner::new(64);
        runner.cache_mode = CacheMode::Off;
        runner.verbose = false;
        let empty = runner.run("empty", Vec::new());
        assert_eq!((empty.cells_total, empty.outcomes.len()), (0, 0));
        let report = runner.run("oversized", counting_cells(3, &executions));
        let labels: Vec<&str> = report.outcomes.iter().map(|o| o.spec.cell.as_str()).collect();
        assert_eq!(labels, ["c0", "c1", "c2"]);
        assert_eq!(executions.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn parallel_run_lists_quarantines_in_submission_order() {
        quiet_injected_panics();
        let executions = Arc::new(AtomicU64::new(0));
        let mut cells = counting_cells(9, &executions);
        for broken in [1usize, 6] {
            let spec = cells[broken].spec.clone();
            cells[broken] = Cell::new(spec, || panic!("chaos: permanent fault"));
        }
        let mut runner = Runner::new(2);
        runner.cache_mode = CacheMode::Off;
        runner.verbose = false;
        runner.max_attempts = 1;
        let report = runner.run("parallel-quarantine", cells);
        assert_eq!(report.cells_failed, 2);
        let labels: Vec<&str> = report.quarantined.iter().map(|q| q.cell.as_str()).collect();
        assert_eq!(labels, ["c1", "c6"], "quarantines listed in submission order");
        assert!(report.outcomes[1].failed() && report.outcomes[6].failed());
    }

    #[test]
    fn second_run_hits_cache_and_skips_execution() {
        let dir = tmp_dir("hit");
        let executions = Arc::new(AtomicU64::new(0));
        let mut runner = Runner::new(2);
        runner.cache_dir = dir.clone();
        runner.verbose = false;
        let first = runner.run("warm", counting_cells(8, &executions));
        assert_eq!(executions.load(Ordering::Relaxed), 8);
        assert_eq!(first.cells_cached, 0);
        assert_eq!(first.journal_prior_ok, 0);
        let second = runner.run("warm", counting_cells(8, &executions));
        assert_eq!(executions.load(Ordering::Relaxed), 8, "cache must satisfy re-run");
        assert_eq!(second.cells_cached, 8);
        assert_eq!(second.journal_prior_ok, 8, "first run journaled every cell");
        assert_eq!(first.records_jsonl(), second.records_jsonl(), "records identical from cache");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn temp_like_labels_keep_their_bookkeeping() {
        // A label containing the sweep's `.tmp.` marker: its journal,
        // index, intent log and held lock must not read as orphans.
        let dir = tmp_dir("tmp-label");
        let executions = Arc::new(AtomicU64::new(0));
        let mut runner = Runner::new(1);
        runner.cache_dir = dir.clone();
        runner.verbose = false;
        let first = runner.run("run.tmp.1", counting_cells(4, &executions));
        assert_eq!(first.status(), RunStatus::Clean);
        let second = runner.run("run.tmp.1", counting_cells(4, &executions));
        assert_eq!(second.journal_prior_ok, 4, "the first run's journal survived");
        assert_eq!(second.sweep.journal_tmp, 0, "nothing of the label was swept");
        assert_eq!(second.sweep.total(), 0);
        assert_eq!(second.cells_cached, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_labels_get_distinct_journals_and_locks() {
        let dir = Path::new("cache");
        for (a, b) in [("a/b", "a-b"), ("a b", "a-b"), ("a/b", "a b")] {
            assert_ne!(journal::journal_path(dir, a), journal::journal_path(dir, b));
            assert_ne!(
                lockfile::CampaignLock::lock_path(dir, a),
                lockfile::CampaignLock::lock_path(dir, b)
            );
        }
        // Plain labels keep their file names.
        assert!(journal::journal_path(dir, "table2").ends_with("journal/table2.jsonl"));
        assert!(lockfile::CampaignLock::lock_path(dir, "table2").ends_with("journal/table2.lock"));
    }

    #[test]
    fn manifest_counts_and_writes_atomically() {
        let dir = tmp_dir("manifest");
        let executions = Arc::new(AtomicU64::new(0));
        let mut runner = Runner::new(1);
        runner.cache_dir = dir.clone();
        runner.verbose = false;
        let report = runner.run("mani", counting_cells(3, &executions));
        let m = report.manifest();
        assert_eq!(m.get("cells_total").unwrap().as_u64(), Some(3));
        assert_eq!(m.get("cells_failed").unwrap().as_u64(), Some(0));
        assert_eq!(m.get("status").unwrap().as_str(), Some("clean"));
        assert_eq!(m.get("cells").unwrap().as_array().unwrap().len(), 3);
        let path = report.write_manifest(&dir).expect("manifest written");
        let parsed = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed.get("label").unwrap().as_str(), Some("mani"));
        // Atomic rename discipline: no *.tmp.* sibling survives.
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "manifest temp files must not leak: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_panic_retries_and_matches_fault_free_records() {
        quiet_injected_panics();
        let executions = Arc::new(AtomicU64::new(0));
        let fault_free = {
            let mut r = Runner::new(2);
            r.cache_mode = CacheMode::Off;
            r.verbose = false;
            r.run("reference", counting_cells(6, &executions))
        };

        // Cell c2 panics on its first attempt only.
        let flaky_attempts = Arc::new(AtomicU64::new(0));
        let mut cells = counting_cells(6, &executions);
        let spec = cells[2].spec.clone();
        let tracker = Arc::clone(&flaky_attempts);
        cells[2] = Cell::new(spec, move || {
            if tracker.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("chaos: transient fault");
            }
            Json::obj(vec![("value", Json::U64(20))])
        });
        let mut runner = Runner::new(2);
        runner.cache_mode = CacheMode::Off;
        runner.verbose = false;
        let report = runner.run("flaky", cells);
        assert_eq!(report.cells_failed, 0);
        assert_eq!(report.retries, 1);
        assert_eq!(report.outcomes[2].attempts(), 2, "succeeded on the second attempt");
        assert_eq!(report.status(), RunStatus::Clean);
        assert_eq!(report.status().exit_code(), 0);
        assert_eq!(
            report.records_jsonl(),
            fault_free.records_jsonl(),
            "recovered records must be byte-identical to fault-free"
        );
    }

    #[test]
    fn permanent_panic_quarantines_only_that_cell() {
        quiet_injected_panics();
        let executions = Arc::new(AtomicU64::new(0));
        let mut cells = counting_cells(5, &executions);
        let spec = cells[3].spec.clone();
        cells[3] = Cell::new(spec, || panic!("chaos: permanent fault"));
        let dir = tmp_dir("quarantine");
        let mut runner = Runner::new(2);
        runner.cache_dir = dir.clone();
        runner.verbose = false;
        runner.max_attempts = 3;
        let report = runner.run("quarantine", cells);

        assert_eq!(report.cells_total, 5, "campaign drains past the failure");
        assert_eq!(report.cells_failed, 1);
        assert_eq!(report.quarantined.len(), 1);
        let q = &report.quarantined[0];
        assert_eq!(q.cell, "c3");
        assert_eq!(q.attempts, 3, "budget fully consumed before quarantine");
        assert!(q.message.contains("chaos: permanent fault"));
        assert_eq!(q.reason, Json::Null, "panics carry no structured reason");
        assert_eq!(report.status(), RunStatus::Failed);
        assert_eq!(report.status().exit_code(), 2);

        // Payload holes are explicit; records skip the hole.
        assert_eq!(report.payloads()[3], Json::Null);
        assert_eq!(report.records_jsonl().lines().count(), 4);

        // The journal records the failure; the cache records nothing.
        let journal = journal::Journal::load(&journal::journal_path(&dir, "quarantine"));
        assert_eq!(journal.status(report.outcomes[3].key), Some(journal::Status::Failed));
        assert_eq!(
            cache::load_with(
                &vfs::Vfs::real(),
                &dir,
                report.outcomes[3].key,
                &runner.code_version,
                &report.outcomes[3].spec
            ),
            cache::Lookup::Miss,
            "failed cells never poison the cache"
        );

        // The manifest carries the quarantine.
        let m = report.manifest();
        assert_eq!(m.get("status").unwrap().as_str(), Some("failed"));
        let listed = m.get("quarantined").unwrap().as_array().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].get("cell").unwrap().as_str(), Some("c3"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_cell_quarantines_immediately_and_degrades() {
        let executions = Arc::new(AtomicU64::new(0));
        let mut cells = counting_cells(5, &executions);
        let spec = cells[1].spec.clone();
        let attempts_seen = Arc::new(AtomicU64::new(0));
        let tracker = Arc::clone(&attempts_seen);
        cells[1] = Cell::fallible(spec, move || {
            tracker.fetch_add(1, Ordering::Relaxed);
            Err(Json::obj(vec![
                ("kind", Json::Str("invalid_spec".into())),
                ("message", Json::Str("cluster spec: zero nodes".into())),
            ]))
        });
        let dir = tmp_dir("invalid");
        let mut runner = Runner::new(2);
        runner.cache_dir = dir.clone();
        runner.verbose = false;
        runner.max_attempts = 3;
        let report = runner.run("invalid", cells);

        assert_eq!(report.cells_total, 5, "campaign drains past the invalid cell");
        assert_eq!(report.cells_invalid, 1);
        assert_eq!(report.cells_failed, 0);
        assert_eq!(report.retries, 0, "validity verdicts are never retried");
        assert_eq!(attempts_seen.load(Ordering::Relaxed), 1, "work ran exactly once");
        assert_eq!(report.status(), RunStatus::Degraded);
        assert_eq!(report.status().exit_code(), 1);

        // The quarantine record carries the structured reason.
        let q = &report.quarantined[0];
        assert_eq!(q.cell, "c1");
        assert_eq!(q.attempts, 1);
        assert_eq!(q.message, "cluster spec: zero nodes");
        assert_eq!(q.reason.get("kind").and_then(|k| k.as_str()), Some("invalid_spec"));
        assert!(report.outcomes[1].invalid());

        // Holes are explicit; survivors mint records; nothing is cached.
        assert_eq!(report.payloads()[1], Json::Null);
        assert_eq!(report.records_jsonl().lines().count(), 4);
        assert_eq!(
            cache::load_with(
                &vfs::Vfs::real(),
                &dir,
                report.outcomes[1].key,
                &runner.code_version,
                &report.outcomes[1].spec
            ),
            cache::Lookup::Miss,
            "invalid cells never poison the cache"
        );

        // The manifest carries counter, status, and reason.
        let m = report.manifest();
        assert_eq!(m.get("schema").unwrap().as_u64(), Some(6));
        assert_eq!(m.get("status").unwrap().as_str(), Some("degraded"));
        assert_eq!(m.get("cells_invalid").unwrap().as_u64(), Some(1));
        let listed = m.get("quarantined").unwrap().as_array().unwrap();
        assert_eq!(
            listed[0].get("reason").unwrap().get("kind").unwrap().as_str(),
            Some("invalid_spec")
        );
        let cells_json = m.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells_json[1].get("status").unwrap().as_str(), Some("invalid"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_cache_degrades_instead_of_failing() {
        let dir = tmp_dir("degraded");
        // Point the cache root at a *file*: every store and the journal
        // open must fail, every load is a corrupt read — all counted,
        // none fatal.
        let file = dir.join("not-a-dir");
        std::fs::write(&file, "x").unwrap();
        let executions = Arc::new(AtomicU64::new(0));
        let mut runner = Runner::new(2);
        runner.cache_dir = file;
        runner.verbose = false;
        let report = runner.run("degraded", counting_cells(4, &executions));
        assert_eq!(executions.load(Ordering::Relaxed), 4, "all cells still compute");
        assert_eq!(report.cells_failed, 0);
        assert!(report.cache_store_errors > 0, "swallowed I/O errors must surface");
        assert_eq!(report.status(), RunStatus::Degraded);
        assert_eq!(report.status().exit_code(), 1);
        let m = report.manifest();
        assert_eq!(m.get("status").unwrap().as_str(), Some("degraded"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_campaign_is_refused_with_a_typed_error() {
        let dir = tmp_dir("locked");
        // Plant a lock held by a *different live* process: pid 1 (init)
        // is always alive where /proc exists, and a foreign pid is
        // conservatively treated as live elsewhere. (An own-pid lock
        // would be broken as a stale leak, which is its own test in
        // `lockfile`.)
        let lock_path = lockfile::CampaignLock::lock_path(&dir, "locked");
        std::fs::create_dir_all(lock_path.parent().unwrap()).unwrap();
        std::fs::write(&lock_path, "1\n").unwrap();

        // The typed path: a second campaign against the same journal
        // fails fast with the holder's identity, touching nothing.
        let executions = Arc::new(AtomicU64::new(0));
        let mut runner = Runner::new(2);
        runner.cache_dir = dir.clone();
        runner.verbose = false;
        match runner.try_run("locked", counting_cells(3, &executions)) {
            Err(RunnerError::Locked(contended)) => {
                assert_eq!(contended.holder_pid, Some(1));
                assert!(contended.path.ends_with("locked.lock"));
            }
            Ok(_) => panic!("second campaign must not run under a held lock"),
        }
        assert_eq!(executions.load(Ordering::Relaxed), 0, "no cell may execute");

        // The infallible path: `run` degrades into an aborted report
        // with a machine-readable reason instead of panicking.
        let report = runner.run("locked", counting_cells(3, &executions));
        assert_eq!(executions.load(Ordering::Relaxed), 0);
        assert_eq!(report.cells_total, 0);
        assert_eq!(report.status(), RunStatus::Degraded);
        assert_eq!(
            report.quarantined[0].reason.get("kind").and_then(Json::as_str),
            Some("campaign-locked")
        );

        // Releasing the holder lets the campaign run (and take the lock
        // itself — released again on return).
        std::fs::remove_file(&lock_path).unwrap();
        let report = runner.run("locked", counting_cells(3, &executions));
        assert_eq!(executions.load(Ordering::Relaxed), 3);
        assert_eq!(report.status(), RunStatus::Clean);
        assert!(!lock_path.exists(), "the campaign releases its own lock on return");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
