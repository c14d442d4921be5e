//! Fault-path equivalence for the optimized engine hot path.
//!
//! The radix-heap event queue, the freeze-schedule cursor cache, and the
//! per-worker `SimArena` all carry state across runs on the same worker
//! thread; a retried (previously panicked) attempt therefore reuses
//! scratch a failed attempt touched. This gate drives *real* simulation
//! cells through the runner under injected faults and asserts every
//! surviving record is byte-identical to the fault-free campaign — the
//! optimization's equivalence oracle extended to the recovery paths.

#![cfg(feature = "chaos")]

use jsonio::Json;
use runner::chaos::{self, ChaosPlan, Fault};
use runner::{Cell, CellSpec, RunReport, Runner};
use sim_core::{
    DurationModel, FreezeSchedule, PeriodicFreeze, SimDuration, SimTime, TriggerPolicy,
};

/// One real engine cell: a 4-rank EP-shaped job with SMIs on half the
/// nodes, so the event queue, the unfreeze cursor cache, and the
/// arena are all on the executed path. Deterministic given `i`.
fn engine_cell(i: u64) -> Cell {
    Cell::fallible(
        CellSpec {
            experiment: "chaos-engine".into(),
            cell: format!("c{i}"),
            params: Json::obj(vec![("i", Json::U64(i))]),
            seed: 7,
            reps: 1,
        },
        move || {
            let spec =
                mpi_sim::ClusterSpec::wyeast(4, 1, false).map_err(|e| Json::Str(e.to_string()))?;
            let progs: Vec<mpi_sim::RankProgram> = (0..4u64)
                .map(|r| {
                    mpi_sim::RankProgram::new(vec![
                        mpi_sim::Op::Bcast { root: 0, bytes: 64 },
                        mpi_sim::Op::Compute(SimDuration::from_millis(20 + 3 * r + i)),
                        mpi_sim::Op::Alltoall { bytes_per_pair: 2048 },
                        mpi_sim::Op::Compute(SimDuration::from_millis(10 + r)),
                        mpi_sim::Op::Allreduce { bytes: 16 },
                    ])
                })
                .collect();
            let mut nodes = nas::quiet_nodes(&spec);
            for (n, node) in nodes.iter_mut().enumerate() {
                if n % 2 == 0 {
                    node.schedule = FreezeSchedule::periodic(PeriodicFreeze {
                        first_trigger: SimTime::from_millis(1 + i),
                        period: SimDuration::from_millis(16),
                        durations: DurationModel::short_smi(),
                        policy: TriggerPolicy::SkipWhileFrozen,
                        seed: 100 + i,
                    });
                }
            }
            let net = mpi_sim::NetworkParams::gigabit_cluster();
            let out =
                mpi_sim::run(&spec, &nodes, &progs, &net).map_err(|e| Json::Str(e.to_string()))?;
            Ok(Json::obj(vec![
                ("i", Json::U64(i)),
                ("seconds_micros", Json::U64((out.seconds() * 1e6).round() as u64)),
            ]))
        },
    )
}

fn campaign(n: u64) -> Vec<Cell> {
    (0..n).map(engine_cell).collect()
}

/// A runner wired the way `smi-lab` wires it: no cache (every cell
/// executes) and the engine perf probe installed, so the telemetry
/// harvest runs on exactly the instrumented path the CLI uses.
fn engine_runner(jobs: usize) -> Runner {
    let mut r = Runner::new(jobs);
    r.cache_mode = runner::CacheMode::Off;
    r.verbose = false;
    r.perf_probe = Some(std::sync::Arc::new(|| {
        let p = sim_core::perf::take();
        runner::EnginePerf {
            events_popped: p.events_popped,
            queue_peak: p.queue_peak,
            runs: p.runs,
        }
    }));
    r
}

fn run(jobs: usize, cells: Vec<Cell>) -> RunReport {
    engine_runner(jobs).run("chaos-engine", cells)
}

#[test]
fn retried_engine_cells_reuse_scratch_and_stay_byte_identical() {
    chaos::quiet_injected_panics();
    let reference = run(2, campaign(12));
    assert_eq!(reference.cells_failed, 0, "fault-free engine campaign is clean");
    assert!(reference.engine.events_popped > 0, "probe harvested real engine work");

    // Transient faults on three cells: each panics once mid-campaign,
    // then its retry runs on a worker whose arena and thread-local perf
    // counters were already dirtied by other cells.
    let mut plan = ChaosPlan::calm(5);
    for c in ["c2", "c7", "c11"] {
        plan.pinned.push((c.into(), Fault::PanicFirst(1)));
    }
    let report = run(2, chaos::afflict(&plan, campaign(12)));
    assert_eq!(report.cells_failed, 0);
    assert_eq!(report.retries, 3);
    assert_eq!(
        report.records_jsonl(),
        reference.records_jsonl(),
        "retried engine cells must reproduce the fault-free bytes"
    );
}

#[test]
fn seeded_fault_schedules_never_perturb_surviving_engine_records() {
    chaos::quiet_injected_panics();
    let reference = run(4, campaign(16));
    let reference_records: Vec<Option<String>> =
        reference.outcomes.iter().map(|o| o.record()).collect();

    quickprop::check("engine_fault_schedule_equivalence", 4, |g| {
        let plan = ChaosPlan {
            seed: g.u64(0..u64::MAX),
            transient_per_mille: g.u32(0..300),
            permanent_per_mille: g.u32(0..100),
            straggler_per_mille: g.u32(0..100),
            abort_per_mille: 0, // process faults need isolated mode
            hang_per_mille: 0,
            transient_attempts: g.u32(1..3),
            straggle_millis: 1,
            pinned: Vec::new(),
        };
        let report = run(4, chaos::afflict(&plan, campaign(16)));
        assert_eq!(report.outcomes.len(), 16);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            match outcome.record() {
                Some(record) => assert_eq!(
                    Some(&record),
                    reference_records[i].as_ref(),
                    "surviving engine cell c{i} diverged (plan {plan:?})"
                ),
                None => assert!(outcome.failed(), "only quarantined cells lack records"),
            }
        }
    });
}

#[test]
fn perf_probe_attributes_work_only_to_completed_runs() {
    chaos::quiet_injected_panics();
    let quiet = run(1, campaign(6));
    // One run per cell, every event accounted to a completed run.
    assert_eq!(quiet.engine.runs, 6);
    assert!(quiet.engine.events_popped > 0);
    assert!(quiet.engine.queue_peak > 0);

    // A permanently faulted cell burns its retry budget without ever
    // reaching the engine: the harvested totals must not change shape —
    // still one completed run per surviving cell.
    let mut plan = ChaosPlan::calm(9);
    plan.pinned.push(("c3".into(), Fault::PanicAlways));
    let report = run(1, chaos::afflict(&plan, campaign(6)));
    assert_eq!(report.cells_failed, 1);
    assert_eq!(report.engine.runs, 5, "quarantined cell contributes no completed run");
    assert!(report.engine.events_popped < quiet.engine.events_popped);
}
