//! Ablation benches for the design choices DESIGN.md calls out. Each
//! compares a mechanism ON vs OFF on the same workload, so the bench
//! report doubles as a sensitivity study:
//!
//! * synchronized vs unsynchronized per-node SMI phases (the
//!   amplification mechanism);
//! * SMI side effects (rendezvous/refill/herd) on vs off;
//! * SMT cache-contention coefficient zero vs calibrated.

use bench::{criterion_group, criterion_main, Criterion};
use machine::{
    pair_rates, ExecProfile, NodeSpec, Phase, SchedParams, SmiSideEffects, SmtParams,
    ThreadProgram, ThreadSpec, Topology,
};
use mpi_sim::{ClusterSpec, NetworkParams, NodeState, Op, RankProgram};
use sim_core::{DurationModel, SimDuration, SimRng};
use smi_driver::{SmiClass, SmiDriver, SmiDriverConfig};
use std::hint::black_box;

fn barrier_workload(n: u32) -> Vec<RankProgram> {
    (0..n)
        .map(|_| {
            let mut ops = Vec::new();
            for _ in 0..100 {
                ops.push(Op::Compute(SimDuration::from_millis(50)));
                ops.push(Op::Barrier);
            }
            RankProgram::new(ops)
        })
        .collect()
}

fn run_phases(synchronized: bool) -> f64 {
    let n = 8u32;
    let spec = ClusterSpec::wyeast(n, 1, false).expect("valid shape");
    let driver = SmiDriver::new(SmiDriverConfig::mpi_study(SmiClass::Long));
    let mut rng = SimRng::new(5);
    let nodes: Vec<NodeState> = if synchronized {
        driver
            .synchronized_schedules(n as usize, &mut rng)
            .into_iter()
            .map(|schedule| NodeState::uniform(schedule, SmiSideEffects::none(), 4))
            .collect()
    } else {
        (0..n)
            .map(|_| NodeState {
                schedule: driver.schedule_for_node(&mut rng),
                effects: SmiSideEffects::none(),
                online_cpus: 4,
                per_core: Vec::new(),
            })
            .collect()
    };
    mpi_sim::run(&spec, &nodes, &barrier_workload(n), &NetworkParams::gigabit_cluster())
        .expect("valid job")
        .seconds()
}

fn ablation_phase_alignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_smi_phase_alignment");
    group.sample_size(2);
    group.bench_function("unsynchronized", |b| b.iter(|| black_box(run_phases(false))));
    group.bench_function("synchronized", |b| b.iter(|| black_box(run_phases(true))));
    group.finish();
}

fn run_side_effects(enabled: bool) -> f64 {
    let driver = SmiDriver::new(SmiDriverConfig::interval_ms(SmiClass::Long, 200));
    let mut rng = SimRng::new(6);
    let schedule = driver.schedule_for_node(&mut rng);
    let effects = if enabled { driver.side_effects(true) } else { SmiSideEffects::none() };
    let ex = machine::NodeExecutor::new(&schedule, effects, 8, 0.8, 0.5);
    ex.execute(sim_core::SimTime::ZERO, SimDuration::from_secs(30)).wall.as_secs_f64()
}

fn ablation_side_effects(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_smi_side_effects");
    group.bench_function("with_rendezvous_refill_herd", |b| {
        b.iter(|| black_box(run_side_effects(true)))
    });
    group.bench_function("pure_freeze_only", |b| b.iter(|| black_box(run_side_effects(false))));
    group.finish();
}

fn run_contention(contention: f64) -> f64 {
    let mut topo = Topology::new(NodeSpec::dell_r410());
    topo.set_online_count(8);
    let params = SchedParams { smt: SmtParams { contention }, ..SchedParams::default() };
    let threads: Vec<ThreadSpec> = (0..8)
        .map(|_| {
            ThreadSpec::new(ThreadProgram::new().then(Phase::Compute {
                work: SimDuration::from_millis(200),
                profile: ExecProfile::memory_bound(),
            }))
        })
        .collect();
    machine::run(&topo, &params, &threads).expect("no deadlock").makespan.as_secs_f64()
}

fn ablation_smt_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_smt_contention");
    for contention in [0.0, 1.0, 2.0] {
        group.bench_function(format!("contention_{contention}"), |b| {
            b.iter(|| black_box(run_contention(contention)))
        });
    }
    // The model itself, for the record: rates of a memory-bound pair.
    let p = ExecProfile::memory_bound();
    for contention in [0.0, 1.0, 2.0] {
        let (r, _) = pair_rates(&p, &p, &SmtParams { contention });
        eprintln!("memory-bound pair rate at contention {contention}: {r:.3}");
    }
    group.finish();
}

fn run_duration_model(fixed: bool) -> f64 {
    let durations = if fixed {
        DurationModel::Fixed(SimDuration::from_millis(105))
    } else {
        DurationModel::long_smi()
    };
    let schedule = sim_core::FreezeSchedule::periodic(sim_core::PeriodicFreeze {
        first_trigger: sim_core::SimTime::from_millis(100),
        period: SimDuration::from_secs(1),
        durations,
        policy: sim_core::TriggerPolicy::SkipWhileFrozen,
        seed: 4,
    });
    schedule
        .frozen_between(sim_core::SimTime::ZERO, sim_core::SimTime::from_secs(300))
        .as_secs_f64()
}

fn ablation_duration_band(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_duration_band");
    group.bench_function("uniform_100_110ms", |b| b.iter(|| black_box(run_duration_model(false))));
    group.bench_function("fixed_105ms", |b| b.iter(|| black_box(run_duration_model(true))));
    group.finish();
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(2);
    targets = ablation_phase_alignment, ablation_side_effects, ablation_smt_contention, ablation_duration_band
}
criterion_main!(ablations);
