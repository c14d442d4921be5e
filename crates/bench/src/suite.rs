//! The engine hot-path benchmark suite behind `smi-lab bench`.
//!
//! The cases here cover exactly the paths the campaign's wall-clock is
//! dominated by: the discrete-event queue (push/pop churn and
//! same-timestamp bursts), the freeze-schedule algebra (`unfreeze`
//! lookups per message part, `advance` over compute segments, interval
//! aggregation), the node executor's fixed-point iteration, and
//! end-to-end engine jobs at the paper's largest configuration (16 nodes
//! × 4 ranks, quiet and under long SMIs) and past it (256 and 1024
//! ranks). `smi-lab bench` runs them with a fixed sample count and
//! writes `BENCH_engine.json` (min/median/p95/max and the median's
//! confidence interval per case) — the repo's perf trajectory. Workload
//! shapes are fixed: a number recorded today must mean the same thing
//! next year.

use crate::{measure, Summary};
use jsonio::Json;
use machine::{NodeExecutor, SmiSideEffects};
use mpi_sim::{ClusterSpec, NetworkParams, NodeState, Op, RankProgram};
use sim_core::{
    DurationModel, EventQueue, FreezeSchedule, PeriodicFreeze, SimDuration, SimRng, SimTime,
    TriggerPolicy,
};
use smi_driver::{SmiClass, SmiDriver, SmiDriverConfig};

/// Schema version of `BENCH_engine.json`. Schema 3 replaces schema 2's
/// bootstrap interval on the mean with the order-statistic interval on
/// the median (`ci_lo_ns`, `ci_hi_ns`; see [`crate::median_ci_ranks`])
/// and drops `mean_ns`. `bench --gate` reads only this schema.
pub const BENCH_SCHEMA: u64 = 3;

/// One named benchmark case: a self-contained routine returning a
/// checksum (black-boxed by [`measure`] so the work cannot be elided).
pub struct SuiteCase {
    /// Stable case name (keys the perf trajectory across commits).
    pub name: &'static str,
    /// The workload; called once per sample.
    pub routine: Box<dyn FnMut() -> u64>,
}

/// The paper-configuration long-SMI schedule used by the freeze cases:
/// one trigger per second, 100–110 ms residency.
fn long_schedule(seed: u64) -> FreezeSchedule {
    FreezeSchedule::periodic(PeriodicFreeze {
        first_trigger: SimTime::from_millis(137),
        period: SimDuration::from_secs(1),
        durations: DurationModel::long_smi(),
        policy: TriggerPolicy::SkipWhileFrozen,
        seed,
    })
}

/// Event-queue churn in the engine's shape: a fixed population of
/// in-flight events, each pop re-arming a slightly later event — the
/// near-monotone pattern of the engine's event loop.
pub fn event_queue_near_monotone() -> u64 {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut rng = SimRng::new(7);
    let mut t = SimTime::ZERO;
    for r in 0..256u32 {
        q.push(t + SimDuration::from_nanos(rng.below(1_000_000)), r);
    }
    let mut checksum = 0u64;
    for _ in 0..20_000u32 {
        if let Some((when, r)) = q.pop() {
            t = when;
            checksum = checksum.wrapping_add(when.since(SimTime::ZERO).as_nanos() ^ r as u64);
            q.push(t + SimDuration::from_nanos(1_000 + rng.below(2_000_000)), r);
        }
    }
    while let Some((when, _)) = q.pop() {
        checksum = checksum.wrapping_add(when.since(SimTime::ZERO).as_nanos());
    }
    checksum
}

/// Same-timestamp bursts in the barrier shape: rounds of many events at
/// one instant, drained in FIFO order — the tie-break path.
pub fn event_queue_same_time_bursts() -> u64 {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut checksum = 0u64;
    for round in 0..64u64 {
        let t = SimTime::from_micros(round * 500);
        for r in 0..256u32 {
            q.push(t, r);
        }
        while let Some((_, r)) = q.pop() {
            checksum = checksum.wrapping_add(r as u64 + round);
        }
    }
    checksum
}

/// The engine's per-message-part pattern: tens of thousands of
/// near-monotone `unfreeze` lookups against a warm window cache.
pub fn freeze_unfreeze_scan(schedule: &FreezeSchedule) -> u64 {
    let mut checksum = 0u64;
    let mut t = SimTime::ZERO;
    for _ in 0..50_000u64 {
        t += SimDuration::from_micros(12_000);
        checksum = checksum.wrapping_add(schedule.unfreeze(t).since(SimTime::ZERO).as_nanos());
    }
    checksum
}

/// Compute-segment mapping: 1000 advances of 37 ms each.
pub fn freeze_advance_segments(schedule: &FreezeSchedule) -> u64 {
    let mut t = SimTime::ZERO;
    for _ in 0..1000 {
        t = schedule.advance(t, SimDuration::from_millis(37));
    }
    t.since(SimTime::ZERO).as_nanos()
}

/// Interval aggregation over one simulated hour (~3600 windows).
pub fn freeze_frozen_between_1h(schedule: &FreezeSchedule) -> u64 {
    schedule.frozen_between(SimTime::ZERO, SimTime::from_secs(3600)).as_nanos()
}

/// The node executor's fixed-point iteration over a long compute
/// segment with the full side-effect model enabled.
pub fn executor_fixed_point_100s(schedule: &FreezeSchedule) -> u64 {
    let ex = NodeExecutor::new(schedule, SmiSideEffects::default(), 8, 1.0, 0.3);
    let out = ex.execute(SimTime::ZERO, SimDuration::from_secs(100));
    out.wall.as_nanos().wrapping_add(out.windows as u64)
}

/// One end-to-end engine job: 16 ranks alternating compute and alltoall.
pub fn engine_alltoall_16rank() -> u64 {
    let spec = match ClusterSpec::wyeast(16, 1, false) {
        Ok(s) => s,
        Err(_) => return 0,
    };
    let progs: Vec<RankProgram> = (0..16)
        .map(|_| {
            RankProgram::new(
                (0..20)
                    .flat_map(|_| {
                        [
                            Op::Compute(SimDuration::from_millis(10)),
                            Op::Alltoall { bytes_per_pair: 4096 },
                        ]
                    })
                    .collect(),
            )
        })
        .collect();
    let nodes = nas::quiet_nodes(&spec);
    let net = NetworkParams::gigabit_cluster();
    match mpi_sim::run(&spec, &nodes, &progs, &net) {
        Ok(out) => out.makespan.as_nanos(),
        Err(_) => 0,
    }
}

/// One NAS job on `nodes` nodes × 4 ranks per node: `nas::programs`
/// with no calibration adjustment and unit jitters. Quiet jobs run on
/// `nas::quiet_nodes`; long-SMI jobs give every node a schedule and side
/// effects from the MPI study's `SmiDriver`, as the table cells do, but
/// drawn from one fixed seed.
fn engine_nas(bench: nas::Bench, class: nas::Class, nodes: u32, smm: SmiClass) -> u64 {
    let spec = match ClusterSpec::wyeast(nodes, 4, false) {
        Ok(s) => s,
        Err(_) => return 0,
    };
    let progs = nas::programs(bench, class, &spec, 0.0, &vec![1.0; spec.total_ranks() as usize]);
    let nodes = match smm {
        SmiClass::None => nas::quiet_nodes(&spec),
        _ => {
            let driver = SmiDriver::new(SmiDriverConfig::mpi_study(smm));
            let mut rng = SimRng::new(16);
            (0..spec.nodes)
                .map(|_| NodeState {
                    schedule: driver.schedule_for_node(&mut rng),
                    effects: driver.side_effects(spec.htt),
                    online_cpus: spec.online_cpus(),
                    per_core: Vec::new(),
                })
                .collect()
        }
    };
    let net = NetworkParams::gigabit_cluster();
    match mpi_sim::run(&spec, &nodes, &progs, &net) {
        Ok(out) => out.makespan.as_nanos(),
        Err(_) => 0,
    }
}

/// BT class C at 64 ranks (16 nodes × 4, the `n16-r4` cells of Table 1):
/// halo `Exchange`s and line-solve messages, a fresh tag for nearly
/// every message.
pub fn engine_bt_c_64rank() -> u64 {
    engine_nas(nas::Bench::Bt, nas::Class::C, 16, SmiClass::None)
}

/// FT class B at 64 ranks (the `n16-r4` cells of Table 3): all-to-all
/// transposes, four ranks per NIC.
pub fn engine_ft_b_64rank() -> u64 {
    engine_nas(nas::Bench::Ft, nas::Class::B, 16, SmiClass::None)
}

/// [`engine_bt_c_64rank`] under long SMIs: every compute segment and
/// message completion goes through a noisy freeze schedule.
pub fn engine_bt_c_64rank_long_smi() -> u64 {
    engine_nas(nas::Bench::Bt, nas::Class::C, 16, SmiClass::Long)
}

/// [`engine_ft_b_64rank`] under long SMIs.
pub fn engine_ft_b_64rank_long_smi() -> u64 {
    engine_nas(nas::Bench::Ft, nas::Class::B, 16, SmiClass::Long)
}

/// BT class C at 256 ranks (64 nodes × 4): scaling past the paper.
pub fn engine_bt_c_256rank() -> u64 {
    engine_nas(nas::Bench::Bt, nas::Class::C, 64, SmiClass::None)
}

/// BT class C at 1024 ranks (256 nodes × 4): scaling past the paper.
pub fn engine_bt_c_1024rank() -> u64 {
    engine_nas(nas::Bench::Bt, nas::Class::C, 256, SmiClass::None)
}

/// The noise-subsystem hot path end-to-end: generate dense per-core
/// jitter schedules through the noise-model plugin (thousands of
/// explicit windows per core over a 60 s horizon), sweep the freeze
/// algebra across them, then scan compute segments through an
/// SMT-slowdown schedule (the degraded-throughput arithmetic). Unlike
/// the warm freeze cases, generation is deliberately inside the timed
/// routine: campaigns pay it once per (node, core, rep).
pub fn noise_model_schedule_sweep() -> u64 {
    let horizon = SimDuration::from_secs(60);
    let jitter = match noise::NoiseSpec::parse("core-jitter") {
        Ok(s) => s,
        Err(_) => return 0,
    };
    let mut checksum = 0u64;
    for core in 0..4u32 {
        let sched = match jitter.as_model().schedule(0, core, horizon, 42) {
            Ok(s) => s,
            Err(_) => return 0,
        };
        let mut t = SimTime::ZERO;
        for _ in 0..2000u32 {
            t = sched.advance(t, SimDuration::from_micros(25_000));
            checksum = checksum.wrapping_add(sched.unfreeze(t).since(SimTime::ZERO).as_nanos());
        }
        checksum = checksum
            .wrapping_add(sched.frozen_between(SimTime::ZERO, SimTime::ZERO + horizon).as_nanos());
    }
    let smt = match noise::NoiseSpec::parse("smt-slowdown") {
        Ok(s) => s,
        Err(_) => return 0,
    };
    let sched = match smt.as_model().schedule(0, 0, horizon, 7) {
        Ok(s) => s,
        Err(_) => return 0,
    };
    let mut t = SimTime::ZERO;
    for _ in 0..3000u32 {
        t = sched.advance(t, SimDuration::from_micros(900));
    }
    checksum.wrapping_add(t.since(SimTime::ZERO).as_nanos())
}

/// All engine suite cases, in reporting order. Schedules are built once
/// per case and reused across samples, so the freeze cases measure warm
/// lookups (the campaign's steady state), not first-touch generation.
pub fn engine_suite() -> Vec<SuiteCase> {
    let unfreeze_sched = long_schedule(1);
    let advance_sched = long_schedule(2);
    let between_sched = long_schedule(3);
    // Pre-generate so the first sample is not a generation benchmark.
    let _ = between_sched.frozen_between(SimTime::ZERO, SimTime::from_secs(3600));
    let exec_sched = long_schedule(4);
    fn case(name: &'static str, routine: impl FnMut() -> u64 + 'static) -> SuiteCase {
        SuiteCase { name, routine: Box::new(routine) }
    }
    vec![
        case("event_queue_near_monotone", event_queue_near_monotone),
        case("event_queue_same_time_bursts", event_queue_same_time_bursts),
        case("freeze_unfreeze_scan", move || freeze_unfreeze_scan(&unfreeze_sched)),
        case("freeze_advance_segments", move || freeze_advance_segments(&advance_sched)),
        case("freeze_frozen_between_1h", move || freeze_frozen_between_1h(&between_sched)),
        case("executor_fixed_point_100s", move || executor_fixed_point_100s(&exec_sched)),
        case("engine_alltoall_16rank", engine_alltoall_16rank),
        case("noise_model_schedule_sweep", noise_model_schedule_sweep),
        case("engine_bt_c_64rank", engine_bt_c_64rank),
        case("engine_ft_b_64rank", engine_ft_b_64rank),
        case("engine_bt_c_64rank_long_smi", engine_bt_c_64rank_long_smi),
        case("engine_ft_b_64rank_long_smi", engine_ft_b_64rank_long_smi),
        case("engine_bt_c_256rank", engine_bt_c_256rank),
        case("engine_bt_c_1024rank", engine_bt_c_1024rank),
    ]
}

/// The stable case names, for callers that verify a report is complete.
pub fn engine_suite_names() -> Vec<&'static str> {
    engine_suite().into_iter().map(|c| c.name).collect()
}

/// Run the whole engine suite at exactly `samples` timed passes per case
/// (no quick-mode scaling — `smi-lab bench` owns the sample count).
pub fn run_engine_suite(samples: usize) -> Vec<Summary> {
    engine_suite().into_iter().map(|case| measure(case.name, samples, case.routine)).collect()
}

/// Render suite results as the `BENCH_engine.json` document.
pub fn suite_json(samples: usize, results: &[Summary]) -> Json {
    Json::obj(vec![
        ("schema", Json::U64(BENCH_SCHEMA)),
        ("suite", Json::Str("engine".to_string())),
        ("samples", Json::U64(samples as u64)),
        (
            "benchmarks",
            Json::Arr(
                results
                    .iter()
                    .map(|s| {
                        let (ci_lo, ci_hi) = s.median_ci_ns();
                        Json::obj(vec![
                            ("name", Json::Str(s.name.clone())),
                            ("samples", Json::U64(s.samples_ns.len() as u64)),
                            ("min_ns", Json::U64(s.min_ns())),
                            ("median_ns", Json::U64(s.median_ns())),
                            ("p95_ns", Json::U64(s.p95_ns())),
                            ("max_ns", Json::U64(s.max_ns())),
                            ("ci_lo_ns", Json::U64(ci_lo)),
                            ("ci_hi_ns", Json::U64(ci_hi)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_cases_are_deterministic_workloads() {
        // Each routine is a pure function of its fixed inputs: two
        // invocations must produce identical checksums (the workload, not
        // the wall time, is what the trajectory compares across commits).
        assert_eq!(event_queue_near_monotone(), event_queue_near_monotone());
        assert_eq!(event_queue_same_time_bursts(), event_queue_same_time_bursts());
        let s = long_schedule(1);
        assert_eq!(freeze_unfreeze_scan(&s), freeze_unfreeze_scan(&s));
        assert_eq!(freeze_advance_segments(&s), freeze_advance_segments(&s));
        let sweep = noise_model_schedule_sweep();
        assert_ne!(sweep, 0, "noise sweep must do real work");
        assert_eq!(sweep, noise_model_schedule_sweep());
        for job in [
            engine_bt_c_64rank,
            engine_ft_b_64rank,
            engine_bt_c_64rank_long_smi,
            engine_ft_b_64rank_long_smi,
            engine_bt_c_256rank,
        ] {
            let makespan = job();
            assert_ne!(makespan, 0, "NAS job must run");
            assert_eq!(makespan, job());
        }
        // Long SMIs slow the paper-scale jobs down.
        assert!(engine_bt_c_64rank_long_smi() > engine_bt_c_64rank());
        assert!(engine_ft_b_64rank_long_smi() > engine_ft_b_64rank());
    }

    #[test]
    fn suite_runs_and_renders_json() {
        // Every case but the 1024-rank job: it allocates ~100 MiB per run,
        // and the smaller cases exercise the same measuring and rendering.
        let results: Vec<Summary> = engine_suite()
            .into_iter()
            .filter(|case| case.name != "engine_bt_c_1024rank")
            .map(|case| measure(case.name, 2, case.routine))
            .collect();
        assert_eq!(results.len(), engine_suite_names().len() - 1);
        let doc = suite_json(2, &results);
        assert_eq!(doc.get("schema").and_then(|s| s.as_u64()), Some(BENCH_SCHEMA));
        let benches = doc.get("benchmarks").and_then(|b| b.as_array()).expect("array");
        assert_eq!(benches.len(), results.len());
        for b in benches {
            assert_eq!(b.get("samples").and_then(|s| s.as_u64()), Some(2));
            let min = b.get("min_ns").and_then(|v| v.as_u64()).expect("min");
            let med = b.get("median_ns").and_then(|v| v.as_u64()).expect("median");
            let p95 = b.get("p95_ns").and_then(|v| v.as_u64()).expect("p95");
            assert!(min <= med && med <= p95, "ordered quantiles");
            let max = b.get("max_ns").and_then(|v| v.as_u64()).expect("max");
            let lo = b.get("ci_lo_ns").and_then(|v| v.as_u64()).expect("ci lo");
            let hi = b.get("ci_hi_ns").and_then(|v| v.as_u64()).expect("ci hi");
            assert!(min <= lo && lo <= med && med <= hi && hi <= max, "CI brackets the median");
        }
    }

    #[test]
    fn suite_has_at_least_six_cases_with_unique_names() {
        let names = engine_suite_names();
        assert!(names.len() >= 6, "perf trajectory needs >= 6 benchmarks");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate case name");
    }
}
