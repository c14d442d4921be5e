//! `smi-lab` — reproduce the paper's tables and figures from the command
//! line.
//!
//! ```text
//! smi-lab <command> [--reps N] [--seed N] [--quick] [--validate]
//!                   [--jobs N] [--resume] [--no-cache] [--cache-dir DIR]
//!                   [--records FILE] [--csv DIR] [--svg DIR] [--json DIR]
//!                   [--noise SPEC] [--isolate] [--deadline-units N]
//!                   [--isolate-watchdog-ms N] [--vfs-faults SPEC]
//!                   [--adaptive] [--max-reps N] [--ci-target F]
//!
//! commands:
//!   table1      BT under SMM 0/1/2            (Table 1)
//!   table2      EP under SMM 0/1/2            (Table 2)
//!   table3      FT under SMM 0/1/2            (Table 3)
//!   table4      HTT effect on EP              (Table 4)
//!   table5      HTT effect on FT              (Table 5)
//!   figure1     Convolve interval/CPU sweeps  (Figure 1)
//!   figure2     UnixBench index sweeps        (Figure 2)
//!   detect      hwlat-style SMI detection demo
//!   bits        BIOSBITS 150us compliance check
//!   attribution profiler misattribution demo
//!   absorption  noise absorption/amplification study
//!   scale       long-SMI impact projected to 32-128 nodes
//!   variance    variance decomposition vs logical CPUs
//!   energy      energy impact of SMM residency
//!   mops        work completed and MOPs at the baselines
//!   unixbench   per-test UnixBench score detail
//!   noise       noise-shape study at fixed budget (crates/noise);
//!               `--noise name[:k=v,...]` runs one spec instead
//!   report      EXPERIMENTS.md body (paper vs measured)
//!   all         everything above
//!   lint        determinism & hermeticity linter (see crates/smi-lint)
//!   fsck        audit/repair the shared result store (see fsckcmd)
//! ```
//!
//! Every experiment runs through the parallel runner: `--jobs N` fans
//! cells out over N worker threads (results are bit-identical to serial),
//! completed cells persist in a shared content-addressed store under
//! `--cache-dir` (default `results/cache`) so re-runs, `--resume`, and
//! *other campaigns computing the same cells* skip them, and
//! `--records FILE` writes one canonical JSONL record per cell.
//!
//! `--vfs-faults SPEC` turns on filesystem fault injection for every
//! byte the runner persists (store entries, indexes, intent logs,
//! journals, manifests): a seeded plan of torn writes, ENOSPC, EIO,
//! rename failures, dropped fsyncs, and short reads (see
//! `runner::vfs::FaultPlan::parse` for the spec grammar). Records stay
//! byte-identical to a fault-free run; past `disk_fault_limit` counted
//! disk faults the campaign drops to storage-bypass mode and finishes
//! Degraded rather than wedging. `smi-lab fsck [--repair] [--compact]`
//! audits the store afterwards and restores it to Clean.
//!
//! `--isolate` moves execution into supervised worker *subprocesses*
//! (`--jobs N` becomes the worker count): a cell that segfaults, aborts,
//! is OOM-killed, or wedges takes down only its worker — the supervisor
//! re-spawns the worker (bounded backoff), re-runs the cell up to the
//! ordinary attempt budget, then quarantines it with a machine-readable
//! `worker-crash` reason. Records are byte-identical to an in-process
//! run. `--deadline-units N` adds a deterministic per-cell budget in
//! engine work units (quarantine reason `deadline`, reproducible on
//! every rerun — no wall clock involved); `--isolate-watchdog-ms N`
//! tunes the supervisor's wall-clock liveness watchdog (default 30000),
//! which decides only when a silent worker is presumed wedged, never
//! what any record contains. The hidden `worker` subcommand is the
//! subprocess half of this mode; it is not meant to be run by hand.
//!
//! One campaign per (cache dir, experiment label) at a time: a lock file
//! next to the journal makes a concurrent duplicate campaign fail fast
//! (exit 2) instead of silently corrupting the resume journal. A lock
//! left by a SIGKILLed run is detected as stale and broken automatically.
//!
//! `--adaptive` (table1–3) replaces the fixed repetition count with the
//! CI-targeted sampling design of DESIGN.md §15: every (cell, SMM
//! class) runs at least `--reps` repetitions (the design's `min_reps`),
//! then keeps sampling until the Student-t 95 % confidence interval on
//! the mean is relatively tighter than `--ci-target` (default 0.05 =
//! ±5 %) or `--max-reps` (default 4×reps) is spent. Per-repetition
//! seeds are identical to the fixed design's, and the run manifest
//! gains a schema-6 `stats` block: per-cell n, t and bootstrap CIs,
//! stopped-early/exhausted flags, and the campaign-level power verdict
//! naming every under-sampled cell. Results are
//! byte-identical across `--jobs` counts and across in-process vs
//! `--isolate` execution.
//!
//! `--validate` runs the engine's opt-in end-of-run audits (message
//! conservation, byte tallies, freeze-schedule coverage) on every
//! simulation — one extra pass per run, off by default.
//!
//! ## Exit codes
//!
//! A misbehaving cell no longer kills the run. A panicking cell is
//! retried (bounded, deterministic) and then quarantined; a cell whose
//! simulation is rejected with a typed `SimError` (bad spec, deadlock,
//! invariant violation) is quarantined immediately with the structured
//! reason recorded in the manifest. Either way the campaign drains and
//! the artifact renders with the hole explicitly marked. The process
//! exit code reports the worst outcome across every batch of the
//! invocation:
//!
//! * `0` — clean: every cell produced a payload, no faults (successful
//!   retries still count as clean — their records are byte-identical to
//!   a fault-free run).
//! * `1` — degraded: cells were quarantined as *invalid* with typed
//!   reasons (see the manifest's `quarantined[].reason`), or cache I/O
//!   faults (write errors, corrupt entries, manifest write failure)
//!   were observed.
//! * `2` — failed: one or more cells panicked through their retry
//!   budget (also used for usage errors).

mod benchcmd;
mod fsckcmd;
mod xcmds;

use analysis::cells::{
    adaptive_table_cells, assemble_figure1, assemble_figure2, assemble_htt_table, assemble_table,
    figure1_cells, figure2_cells, htt_cells, table_cells, text_cell, text_payload,
};
use analysis::{
    assemble_noise, htt_report, noise_cell, render_chart, render_figure1, render_figure2,
    render_htt_table, render_noise, render_table, series_csv, table_csv, table_report, ChartSpec,
    RunOptions,
};
use jsonio::{Json, ToJson};
use nas::Bench;
use runner::design::SampleDesign;
use runner::{CacheMode, Cell, RunStatus, Runner};
use std::sync::atomic::{AtomicI32, Ordering};

/// Worst [`RunStatus`] exit code observed across every batch this
/// invocation ran; `main` exits with it.
static WORST_STATUS: AtomicI32 = AtomicI32::new(0);

fn note_status(status: RunStatus) {
    WORST_STATUS.fetch_max(status.exit_code(), Ordering::Relaxed);
}

#[derive(Clone)]
struct Args {
    command: String,
    opts: RunOptions,
    jobs: usize,
    cache_mode: CacheMode,
    cache_dir: String,
    records: Option<String>,
    csv_dir: Option<String>,
    svg_dir: Option<String>,
    json_dir: Option<String>,
    noise: Option<String>,
    isolate: bool,
    deadline_units: u64,
    isolate_watchdog_ms: Option<u64>,
    isolate_kill: Vec<String>,
    vfs_faults: Option<String>,
    /// `Some` when `--adaptive` asked for CI-targeted sampling
    /// (DESIGN.md §15): `min_reps` = `--reps`, ceiling from
    /// `--max-reps` (default 4×reps), target from `--ci-target`
    /// (default 0.05 = ±5 %).
    design: Option<SampleDesign>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut opts = RunOptions::default();
    let mut jobs = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut resume = false;
    let mut no_cache = false;
    let mut cache_dir = "results/cache".to_string();
    let mut records = None;
    let mut csv_dir = None;
    let mut svg_dir = None;
    let mut json_dir = None;
    let mut noise = None;
    let mut isolate = false;
    let mut deadline_units = 0u64;
    let mut isolate_watchdog_ms = None;
    let mut isolate_kill = Vec::new();
    let mut vfs_faults = None;
    let mut adaptive = false;
    let mut max_reps: Option<u32> = None;
    let mut ci_target: Option<f64> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => {
                opts = RunOptions::quick().with_seed(opts.seed).with_validate(opts.validate)
            }
            "--validate" => opts = opts.with_validate(true),
            "--reps" => {
                let v = it.next().ok_or("--reps needs a value")?;
                opts = opts.with_reps(v.parse().map_err(|_| format!("bad --reps {v}"))?);
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts = opts.with_seed(v.parse().map_err(|_| format!("bad --seed {v}"))?);
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                jobs = v.parse().map_err(|_| format!("bad --jobs {v}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--resume" => resume = true,
            "--no-cache" => no_cache = true,
            "--cache-dir" => {
                cache_dir = it.next().ok_or("--cache-dir needs a directory")?.clone();
            }
            "--records" => {
                records = Some(it.next().ok_or("--records needs a file path")?.clone());
            }
            "--csv" => {
                csv_dir = Some(it.next().ok_or("--csv needs a directory")?.clone());
            }
            "--svg" => {
                svg_dir = Some(it.next().ok_or("--svg needs a directory")?.clone());
            }
            "--json" => {
                json_dir = Some(it.next().ok_or("--json needs a directory")?.clone());
            }
            "--noise" => {
                noise = Some(it.next().ok_or("--noise needs a spec (name[:k=v,...])")?.clone());
            }
            "--isolate" => isolate = true,
            "--adaptive" => adaptive = true,
            "--max-reps" => {
                let v = it.next().ok_or("--max-reps needs a value")?;
                max_reps = Some(v.parse().map_err(|_| format!("bad --max-reps {v}"))?);
            }
            "--ci-target" => {
                let v = it.next().ok_or("--ci-target needs a value")?;
                ci_target = Some(v.parse().map_err(|_| format!("bad --ci-target {v}"))?);
            }
            "--deadline-units" => {
                let v = it.next().ok_or("--deadline-units needs a value")?;
                deadline_units = v.parse().map_err(|_| format!("bad --deadline-units {v}"))?;
            }
            "--isolate-watchdog-ms" => {
                let v = it.next().ok_or("--isolate-watchdog-ms needs a value")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad --isolate-watchdog-ms {v}"))?;
                if ms == 0 {
                    return Err("--isolate-watchdog-ms must be at least 1".into());
                }
                isolate_watchdog_ms = Some(ms);
            }
            // Fault injection for the CI kill-resume gate: SIGKILL the
            // worker whenever this cell is dispatched. Repeatable.
            "--isolate-kill" => {
                isolate_kill.push(it.next().ok_or("--isolate-kill needs a cell label")?.clone());
            }
            // Filesystem fault injection for the durability CI gate:
            // every byte the runner persists goes through a seeded fault
            // plan (torn writes, ENOSPC, EIO, rename failures, dropped
            // fsyncs, short reads). Records stay byte-identical; only
            // durability is under attack.
            "--vfs-faults" => {
                let spec = it.next().ok_or("--vfs-faults needs a fault spec")?.clone();
                // Validate eagerly: a mistyped plan must fail the
                // invocation, never silently run fault-free.
                runner::vfs::FaultPlan::parse(&spec).map_err(|e| format!("--vfs-faults: {e}"))?;
                vfs_faults = Some(spec);
            }
            other if command.is_none() && !other.starts_with('-') => {
                command = Some(other.to_string());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if resume && no_cache {
        return Err("--resume and --no-cache are mutually exclusive".into());
    }
    if (deadline_units > 0 || isolate_watchdog_ms.is_some() || !isolate_kill.is_empty()) && !isolate
    {
        return Err("--deadline-units/--isolate-watchdog-ms/--isolate-kill need --isolate".into());
    }
    if (max_reps.is_some() || ci_target.is_some()) && !adaptive {
        return Err("--max-reps/--ci-target need --adaptive".into());
    }
    let design = if adaptive {
        // Adaptive sampling is defined for the MPI table grids; the
        // hidden `worker` subcommand accepts it so `--isolate` can
        // forward the design to its subprocesses.
        let table = command
            .as_deref()
            .and_then(artifact)
            .is_some_and(|a| matches!(a.kind, Kind::Table(..)));
        if !table && command.as_deref() != Some("worker") {
            return Err("--adaptive is supported for table1/table2/table3".into());
        }
        let d = SampleDesign {
            min_reps: opts.reps,
            max_reps: max_reps.unwrap_or_else(|| opts.reps.saturating_mul(4)),
            target_rel_halfwidth: ci_target.unwrap_or(0.05),
        };
        d.validate()?;
        Some(d)
    } else {
        None
    };
    Ok(Args {
        command: command.ok_or("no command given (try `smi-lab all --quick`)")?,
        opts,
        jobs,
        // The cache is on by default: re-runs and interrupted-then-
        // `--resume`d runs both skip completed cells. `--resume` exists
        // as the explicit, documented spelling of that contract.
        cache_mode: if no_cache { CacheMode::Off } else { CacheMode::ReadWrite },
        cache_dir,
        records,
        csv_dir,
        svg_dir,
        json_dir,
        noise,
        isolate,
        deadline_units,
        isolate_watchdog_ms,
        isolate_kill,
        vfs_faults,
        design,
    })
}

/// Code-version tag mixed into every cache key: a cache entry written by
/// a different build of the simulators is never returned.
const CODE_VERSION: &str = concat!("smi-lab-", env!("CARGO_PKG_VERSION"), "+schema1");

fn runner_for(args: &Args) -> Runner {
    let mut r = Runner::new(args.jobs);
    r.cache_mode = args.cache_mode;
    r.cache_dir = args.cache_dir.clone().into();
    r.code_version = CODE_VERSION.to_string();
    // Bridge the engine's thread-local hot-path counters into the
    // runner's manifest telemetry (the runner crate cannot see sim-core
    // itself). Pure observability: payload bytes are probe-independent.
    r.perf_probe = Some(std::sync::Arc::new(|| {
        let p = sim_core::perf::take();
        runner::EnginePerf {
            events_popped: p.events_popped,
            queue_peak: p.queue_peak,
            runs: p.runs,
        }
    }));
    if args.isolate {
        r.isolate = Some(isolate_config(args));
    }
    if let Some(spec) = &args.vfs_faults {
        // Parse re-validated at parse_args time; a failure here would be
        // a programming error, so fall back to the fault-free fs.
        if let Ok(plan) = runner::vfs::FaultPlan::parse(spec) {
            r.vfs = runner::vfs::Vfs::faulty(plan);
        }
    }
    r
}

/// Supervision config for `--isolate`: the worker command re-executes
/// this binary as `smi-lab worker` with exactly the options that shape
/// cell identity (reps, seed, validate, the custom noise spec), so the
/// worker rebuilds the same catalog the supervisor queues from.
fn isolate_config(args: &Args) -> runner::supervisor::IsolateConfig {
    let exe = std::env::current_exe()
        .map(|p| p.display().to_string())
        .unwrap_or_else(|_| "smi-lab".to_string());
    let mut cmd = vec![
        exe,
        "worker".to_string(),
        "--reps".to_string(),
        args.opts.reps.to_string(),
        "--seed".to_string(),
        args.opts.seed.to_string(),
    ];
    if args.opts.validate {
        cmd.push("--validate".to_string());
    }
    if let Some(spec) = &args.noise {
        cmd.push("--noise".to_string());
        cmd.push(spec.clone());
    }
    // The sampling design shapes cell identity (it is embedded in the
    // cell params), so the worker must rebuild the same adaptive
    // catalog the supervisor queues from.
    if let Some(d) = &args.design {
        cmd.push("--adaptive".to_string());
        cmd.push("--max-reps".to_string());
        cmd.push(d.max_reps.to_string());
        cmd.push("--ci-target".to_string());
        cmd.push(d.target_rel_halfwidth.to_string());
    }
    let mut cfg = runner::supervisor::IsolateConfig::new(cmd);
    cfg.workers = args.jobs;
    cfg.deadline_units = args.deadline_units;
    if let Some(ms) = args.isolate_watchdog_ms {
        cfg.watchdog_ms = ms;
    }
    cfg.kill_cells = args.isolate_kill.clone();
    cfg
}

/// Run one labelled batch of cells through the runner; append its JSONL
/// records (if `--records`) and write the run manifest.
fn execute(args: &Args, label: &str, cells: Vec<Cell>) -> runner::RunReport {
    let runner = runner_for(args);
    let report = match runner.try_run(label, cells) {
        Ok(report) => report,
        // Another live campaign holds this label's journal lock: fail
        // fast and loud before touching any shared state.
        Err(runner::RunnerError::Locked(held)) => {
            eprintln!("error: {held}");
            std::process::exit(2);
        }
    };
    note_status(report.status());
    if let Some(path) = &args.records {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open records file");
        f.write_all(report.records_jsonl().as_bytes()).expect("write records");
    }
    // The manifest goes through the runner's (possibly fault-injected)
    // filesystem too: its write is part of the durability surface.
    match report.write_manifest_with(&runner.vfs, std::path::Path::new(&args.cache_dir)) {
        Ok(path) => eprintln!("[runner] manifest {}", path.display()),
        Err(e) => {
            // A missing manifest is silent degradation: the run account
            // is gone even though the cells themselves survived.
            eprintln!("[runner] manifest write failed: {e}");
            note_status(RunStatus::Degraded);
        }
    }
    if report.status() != RunStatus::Clean {
        eprintln!(
            "[runner] {label}: run {} — {} quarantined, {} invalid, {} cache store errors, {} corrupt entries (exit {})",
            report.status().label(),
            report.cells_failed,
            report.cells_invalid,
            report.cache_store_errors,
            report.cache_load_corruptions,
            report.status().exit_code(),
        );
        for q in &report.quarantined {
            let kind = q.reason.get("kind").and_then(|k| k.as_str()).unwrap_or("panic");
            eprintln!(
                "[runner]   quarantined {}/{} after {} attempts [{kind}]: {}",
                q.experiment, q.cell, q.attempts, q.message
            );
        }
    }
    report
}

fn write_csv(dir: &Option<String>, name: &str, content: &str) {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let path = format!("{dir}/{name}.csv");
        std::fs::write(&path, content).expect("write csv");
        eprintln!("wrote {path}");
    }
}

fn write_svg(dir: &Option<String>, name: &str, spec: &ChartSpec, series: &[analysis::FigSeries]) {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).expect("create svg dir");
        let path = format!("{dir}/{name}.svg");
        std::fs::write(&path, render_chart(spec, series)).expect("write svg");
        eprintln!("wrote {path}");
    }
}

fn write_json<T: ToJson>(dir: &Option<String>, name: &str, value: &T) {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).expect("create json dir");
        let path = format!("{dir}/{name}.json");
        let mut body = value.to_json().to_string_pretty();
        body.push('\n');
        std::fs::write(&path, body).expect("write json");
        eprintln!("wrote {path}");
    }
}

/// How an artifact's cells are built and its payloads printed.
enum Kind {
    /// Tables 1–3 (number, benchmark): the only artifacts `--adaptive`
    /// applies to.
    Table(u32, Bench),
    /// Tables 4–5 (number, benchmark): the HTT interaction.
    Htt(u32, Bench),
    Figure1,
    Figure2,
    /// The noise-shape study (crates/noise): every fixed-budget spec, or
    /// the one `--noise` spec. An invalid spec quarantines with its typed
    /// reason in the manifest (exit 1) instead of aborting the run.
    Noise,
    /// An X-series study: one text cell.
    Study(xcmds::StudyFn),
}

/// One paper artifact or study: the command that regenerates it alone
/// and the run label its campaign's manifest and journal are named by.
struct Artifact {
    command: &'static str,
    label: &'static str,
    kind: Kind,
}

/// Every artifact, in `smi-lab all` order. A single command, `report`,
/// `all` and the `--isolate` worker's catalogue all read this list.
static ARTIFACTS: [Artifact; 17] = [
    Artifact { command: "table1", label: "table1", kind: Kind::Table(1, Bench::Bt) },
    Artifact { command: "table2", label: "table2", kind: Kind::Table(2, Bench::Ep) },
    Artifact { command: "table3", label: "table3", kind: Kind::Table(3, Bench::Ft) },
    Artifact { command: "table4", label: "table4", kind: Kind::Htt(4, Bench::Ep) },
    Artifact { command: "table5", label: "table5", kind: Kind::Htt(5, Bench::Ft) },
    Artifact { command: "figure1", label: "figure1", kind: Kind::Figure1 },
    Artifact { command: "figure2", label: "figure2", kind: Kind::Figure2 },
    Artifact { command: "noise", label: "noise", kind: Kind::Noise },
    Artifact { command: "detect", label: "x-detect", kind: Kind::Study(xcmds::detect) },
    Artifact { command: "bits", label: "x-bits", kind: Kind::Study(xcmds::bits) },
    Artifact {
        command: "attribution",
        label: "x-attribution",
        kind: Kind::Study(xcmds::attribution),
    },
    Artifact { command: "absorption", label: "x-absorption", kind: Kind::Study(xcmds::absorption) },
    Artifact { command: "unixbench", label: "x-unixbench", kind: Kind::Study(xcmds::unixbench) },
    Artifact { command: "scale", label: "x-scale", kind: Kind::Study(xcmds::scale) },
    Artifact { command: "variance", label: "x-variance", kind: Kind::Study(xcmds::variance) },
    Artifact { command: "energy", label: "x-energy", kind: Kind::Study(xcmds::energy) },
    Artifact { command: "mops", label: "x-mops", kind: Kind::Study(xcmds::mops) },
];

fn artifact(command: &str) -> Option<&'static Artifact> {
    ARTIFACTS.iter().find(|a| a.command == command)
}

/// `args` without the options only a single command honours
/// (`--adaptive`, `--noise`): what `all` runs and the base of the
/// worker's catalogue.
fn fixed(args: &Args) -> Args {
    Args { design: None, noise: None, ..args.clone() }
}

fn fig1_opts(opts: &RunOptions) -> RunOptions {
    RunOptions { reps: opts.reps.min(3), ..*opts }
}

fn noise_specs(args: &Args) -> Vec<&str> {
    match &args.noise {
        Some(spec) => vec![spec.as_str()],
        None => noise::FIXED_BUDGET_SPECS.to_vec(),
    }
}

impl Artifact {
    /// The artifact's cells, in the order [`Artifact::print`] consumes
    /// their payloads.
    fn cells(&self, args: &Args) -> Vec<Cell> {
        let opts = &args.opts;
        match self.kind {
            Kind::Table(_, bench) => match args.design {
                Some(d) => adaptive_table_cells(bench, opts, d),
                None => table_cells(bench, opts),
            },
            Kind::Htt(_, bench) => htt_cells(bench, opts),
            Kind::Figure1 => figure1_cells(&fig1_opts(opts)),
            Kind::Figure2 => figure2_cells(opts),
            Kind::Noise => noise_specs(args).into_iter().map(|s| noise_cell(opts, s)).collect(),
            Kind::Study(render) => vec![text_cell(self.label, opts, render)],
        }
    }

    /// Print the artifact and write its `--csv`/`--json`/`--svg` files.
    fn print(&self, args: &Args, payloads: &[Json]) {
        match self.kind {
            Kind::Table(n, bench) => {
                let result = assemble_table(bench, payloads);
                print!("{}", render_table(&result, n));
                write_csv(&args.csv_dir, self.label, &table_csv(&result));
                write_json(&args.json_dir, self.label, &result);
            }
            Kind::Htt(n, bench) => {
                let result = assemble_htt_table(bench, payloads);
                print!("{}", render_htt_table(&result, n));
                write_json(&args.json_dir, self.label, &result);
            }
            Kind::Figure1 => print_figure1(&assemble_figure1(payloads), args),
            Kind::Figure2 => print_figure2(&assemble_figure2(payloads), args),
            Kind::Noise => {
                print!("{}", render_noise(&assemble_noise(&noise_specs(args), payloads)))
            }
            Kind::Study(_) => print!("{}", text_payload(&payloads[0])),
        }
    }

    /// The artifact's EXPERIMENTS.md section; empty for the noise study
    /// and the X studies, which `report` leaves out.
    fn report(&self, payloads: &[Json]) -> String {
        match self.kind {
            Kind::Table(n, bench) => {
                let head = if n == 1 { "## MPI study (Tables 1–3)\n\n" } else { "" };
                format!("{head}{}", table_report(&assemble_table(bench, payloads), n))
            }
            Kind::Htt(n, bench) => {
                let head = if n == 4 { "## HTT study (Tables 4–5)\n\n" } else { "" };
                format!("{head}{}", htt_report(&assemble_htt_table(bench, payloads), n))
            }
            Kind::Figure1 => figure1_report(&assemble_figure1(payloads)),
            Kind::Figure2 => figure2_report(&assemble_figure2(payloads)),
            Kind::Noise | Kind::Study(_) => String::new(),
        }
    }
}

/// Run one artifact as its own campaign, labelled by the artifact, and
/// return its payloads in cell order.
fn run_artifact(args: &Args, artifact: &Artifact) -> Vec<Json> {
    let cells = artifact.cells(args);
    let count = cells.len();
    eprintln!(
        "running {} ({count} cells, {} reps, {} jobs)...",
        artifact.label, args.opts.reps, args.jobs
    );
    let payloads = execute(args, artifact.label, cells).payloads();
    // The noise study's and an adaptive campaign's conclusions live in
    // the manifest (the adaptive one in its stats block: per-cell CIs,
    // the power check): re-read it from disk and fail degraded if the
    // account is missing or malformed.
    if args.design.is_some() || matches!(artifact.kind, Kind::Noise) {
        verify_manifest(args, artifact.label, count, args.design.is_some());
    }
    payloads
}

/// The `--isolate` worker's catalogue: every artifact's cells, then the
/// adaptive Tables 1–3 cells under `--adaptive` and the `--noise` spec's
/// cell. An adaptive cell shares its fixed twin's name, and the worker
/// resolves a name to its last entry, so the adaptive cells come last.
fn worker_catalog(args: &Args) -> Vec<Cell> {
    let base = fixed(args);
    let mut cells: Vec<Cell> = ARTIFACTS.iter().flat_map(|a| a.cells(&base)).collect();
    if args.design.is_some() {
        let tables = ARTIFACTS.iter().filter(|a| matches!(a.kind, Kind::Table(..)));
        cells.extend(tables.flat_map(|a| a.cells(args)));
    }
    if let Some(spec) = &args.noise {
        cells.push(noise_cell(&args.opts, spec));
    }
    cells
}

fn print_figure1(fig: &analysis::Figure1Result, args: &Args) {
    print!("{}", render_figure1(fig));
    println!("Slope of SMI impact (time vs duty cycle, CacheUnfriendly panel):");
    for series in &fig.interval_panels[0] {
        // A quarantined series has no points; the fit needs two.
        if series.points.len() < 2 {
            println!("  {:>8}: - (series failed; see run manifest)", series.label);
            continue;
        }
        let (slope, intercept, r2) = analysis::impact_slope(series, 105.0);
        println!(
            "  {:>8}: {:6.1} s per unit duty (baseline {:5.1} s, r2 {:.3})",
            series.label, slope, intercept, r2
        );
    }
    write_csv(&args.csv_dir, "figure1_cu_intervals", &series_csv(&fig.interval_panels[0]));
    write_csv(&args.csv_dir, "figure1_cf_intervals", &series_csv(&fig.interval_panels[1]));
    write_json(&args.json_dir, "figure1", fig);
    for (panel, name, title) in [
        (0usize, "figure1_cu_intervals", "Convolve CacheUnfriendly"),
        (1, "figure1_cf_intervals", "Convolve CacheFriendly"),
    ] {
        write_svg(
            &args.svg_dir,
            name,
            &ChartSpec {
                title: format!("{title}: time vs SMI interval"),
                xlabel: "SMI interval [ms]".into(),
                ylabel: "execution time [s]".into(),
                ..ChartSpec::default()
            },
            &fig.interval_panels[panel],
        );
    }
    write_svg(
        &args.svg_dir,
        "figure1_cpu_sweep",
        &ChartSpec {
            title: "Convolve at 50 ms SMI interval".into(),
            xlabel: "online logical CPUs".into(),
            ylabel: "execution time [s]".into(),
            ..ChartSpec::default()
        },
        &fig.cpu_panels,
    );
}

fn print_figure2(fig: &analysis::Figure2Result, args: &Args) {
    print!("{}", render_figure2(fig));
    write_csv(&args.csv_dir, "figure2_long", &series_csv(&fig.long_series));
    write_csv(&args.csv_dir, "figure2_short", &series_csv(&fig.short_series));
    write_json(&args.json_dir, "figure2", fig);
    write_svg(
        &args.svg_dir,
        "figure2_long",
        &ChartSpec {
            title: "UnixBench index vs SMI interval (long SMIs)".into(),
            xlabel: "SMI interval [ms]".into(),
            ylabel: "total index score".into(),
            ..ChartSpec::default()
        },
        &fig.long_series,
    );
}

/// Re-read a batch's manifest from disk and check it parses and accounts
/// for every cell — and, for adaptive campaigns (`expect_stats`), that
/// the schema-6 `stats` block is present with its power verdict.
/// Degrades (exit 1) rather than aborting on mismatch.
fn verify_manifest(args: &Args, label: &str, cells_expected: usize, expect_stats: bool) {
    let path = std::path::Path::new(&args.cache_dir)
        .join("manifests")
        .join(format!("{}.json", runner::cache::label_stem(label)));
    let verified = std::fs::read_to_string(&path)
        .ok()
        .and_then(|body| jsonio::Json::parse(&body).ok())
        .is_some_and(|m| {
            let total = m.get("cells_total").and_then(|c| c.as_u64());
            let counted = total == Some(cells_expected as u64);
            let stats_ok = !expect_stats
                || m.get("stats").is_some_and(|s| {
                    s.get("designed").and_then(|d| d.as_u64()).is_some()
                        && s.get("power").and_then(|p| p.as_str()).is_some()
                });
            counted && stats_ok
        });
    if verified {
        eprintln!("[runner] manifest verified: {} ({cells_expected} cells)", path.display());
    } else {
        eprintln!("[runner] manifest verification FAILED: {}", path.display());
        note_status(RunStatus::Degraded);
    }
}

fn figure1_report(fig1: &analysis::Figure1Result) -> String {
    let mut out = String::new();
    out.push_str("## Figure 1 — Convolve\n\n");
    out.push_str("Paper claims vs. measured (CacheUnfriendly, 4 CPUs):\n\n");
    out.push_str("| SMI interval | measured mean [s] | vs. quiet |\n|---|---|---|\n");
    let quiet = fig1.interval_panels[0][2].points.last().map(|p| p.mean).unwrap_or(0.0);
    for p in fig1.interval_panels[0][2]
        .points
        .iter()
        .filter(|p| [50.0, 300.0, 600.0, 1000.0, 1500.0].contains(&p.x))
    {
        out.push_str(&format!(
            "| {} ms | {:.2} ± {:.2} | {:+.1} % |\n",
            p.x,
            p.mean,
            p.std,
            (p.mean - quiet) / quiet * 100.0
        ));
    }
    out.push_str("\nThe paper reports \"minimal or no impact ... up to approximately\n");
    out.push_str("600 ms intervals\" and \"a dramatic impact\" below; the measured\n");
    out.push_str("knee sits in the same place.\n\n");
    out
}

fn figure2_report(fig2: &analysis::Figure2Result) -> String {
    let mut out = String::new();
    out.push_str("## Figure 2 — UnixBench\n\n");
    out.push_str("| interval | ");
    for s in &fig2.long_series {
        out.push_str(&format!("{} | ", s.label));
    }
    out.push_str("\n|---|---|---|---|---|\n");
    // Row count and the x column come from whichever series survived;
    // a quarantined series contributes dash cells.
    let rows = fig2.long_series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..rows {
        let x = fig2.long_series.iter().find_map(|s| s.points.get(i)).map(|p| p.x);
        out.push_str(&format!("| {} ms | ", x.unwrap_or(f64::NAN)));
        for s in &fig2.long_series {
            match s.points.get(i) {
                Some(p) => out.push_str(&format!("{:.0} | ", p.mean)),
                None => out.push_str("- | "),
            }
        }
        out.push('\n');
    }
    out.push_str("\nShort-SMI control: the index moves by less than 4 % at every\n");
    out.push_str("interval and configuration, matching \"our investigation of the\n");
    out.push_str("effects of short SMIs did not show any change\".\n");
    out
}

/// Generate the EXPERIMENTS.md body: every table and figure, paper vs
/// measured, with agreement summaries.
fn cmd_report(args: &Args) {
    let mut out = String::new();
    out.push_str("# EXPERIMENTS — paper vs. reproduction\n\n");
    out.push_str("Generated by `smi-lab report`. Baselines (SMM 0) are calibration\n");
    out.push_str("inputs; every SMM 1 / SMM 2 / HTT number is a model prediction.\n");
    out.push_str(&format!(
        "Replications: {} per cell, seed {}.\n\n",
        args.opts.reps, args.opts.seed
    ));
    for a in ARTIFACTS.iter().filter(|a| !matches!(a.kind, Kind::Noise | Kind::Study(_))) {
        out.push_str(&a.report(&run_artifact(args, a)));
    }
    print!("{out}");
}

/// Everything, as ONE campaign: every artifact's cells fan out together
/// over `--jobs` workers, then each artifact prints from its share of
/// the payloads, in list order.
fn cmd_all(args: &Args) {
    let args = &fixed(args);
    let batches: Vec<Vec<Cell>> = ARTIFACTS.iter().map(|a| a.cells(args)).collect();
    let counts: Vec<usize> = batches.iter().map(Vec::len).collect();
    let cells: Vec<Cell> = batches.into_iter().flatten().collect();
    eprintln!(
        "running everything: {} cells over {} jobs (reps {}, seed {})...",
        cells.len(),
        args.jobs,
        args.opts.reps,
        args.opts.seed
    );
    let payloads = execute(args, "all", cells).payloads();
    let mut rest = &payloads[..];
    for (a, count) in ARTIFACTS.iter().zip(counts) {
        let (own, tail) = rest.split_at(count);
        a.print(args, own);
        if matches!(a.kind, Kind::Study(_)) {
            println!();
        }
        rest = tail;
    }
}

fn main() {
    // `smi-lab lint` has its own flag grammar; route it straight to the
    // shared engine in crates/smi-lint before the experiment arg parser.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("lint") {
        std::process::exit(smi_lint::run_cli(&argv[1..]));
    }
    // `smi-lab bench` likewise owns its grammar (see benchcmd).
    if argv.first().map(String::as_str) == Some("bench") {
        std::process::exit(benchcmd::run_cli(&argv[1..]));
    }
    // `smi-lab fsck` audits/repairs the shared store (see fsckcmd).
    if argv.first().map(String::as_str) == Some("fsck") {
        std::process::exit(fsckcmd::run_cli(&argv[1..]));
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: smi-lab <table1..table5|figure1|figure2|detect|bits|attribution|absorption|unixbench|scale|variance|energy|mops|noise|report|all|lint|bench|fsck> [--reps N] [--seed N] [--quick] [--validate] [--jobs N] [--resume] [--no-cache] [--cache-dir DIR] [--records FILE] [--csv DIR] [--svg DIR] [--json DIR] [--noise SPEC] [--isolate] [--deadline-units N] [--isolate-watchdog-ms N] [--vfs-faults SPEC] [--adaptive] [--max-reps N] [--ci-target F]");
            std::process::exit(2);
        }
    };
    // The hidden subprocess half of `--isolate`: serve cells from the
    // full catalog over the framed stdin/stdout protocol until EOF or
    // Shutdown. Handled before any records/cache side effects — the
    // supervisor owns those.
    if args.command == "worker" {
        let perf_probe = runner_for(&args).perf_probe;
        std::process::exit(runner::worker::serve(worker_catalog(&args), perf_probe));
    }
    // Records accumulate per batch within one invocation; start fresh.
    if let Some(path) = &args.records {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create records dir");
            }
        }
        std::fs::write(path, "").expect("truncate records file");
    }
    match args.command.as_str() {
        "report" => cmd_report(&args),
        "all" => cmd_all(&args),
        command => match artifact(command) {
            Some(a) => a.print(&args, &run_artifact(&args, a)),
            None => {
                eprintln!("error: unknown command {command:?}");
                std::process::exit(2);
            }
        },
    }
    // Exit with the worst status any batch reported: 0 clean,
    // 1 degraded, 2 failed (see the module docs).
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    std::process::exit(WORST_STATUS.load(Ordering::Relaxed));
}
