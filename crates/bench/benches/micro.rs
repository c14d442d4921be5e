//! Microbenchmarks of the simulation substrate itself: the freeze
//! algebra, the detector's polling loop, the cluster engine's event
//! throughput, and the cache simulator.

use bench::{criterion_group, criterion_main, Criterion};
use sim_core::{
    DurationModel, FreezeSchedule, PeriodicFreeze, SimDuration, SimRng, SimTime, TriggerPolicy,
};
use smi_driver::{HwlatDetector, Tsc};
use std::hint::black_box;

fn long_schedule(seed: u64) -> FreezeSchedule {
    FreezeSchedule::periodic(PeriodicFreeze {
        first_trigger: SimTime::from_millis(137),
        period: SimDuration::from_secs(1),
        durations: DurationModel::long_smi(),
        policy: TriggerPolicy::SkipWhileFrozen,
        seed,
    })
}

fn freeze_advance(c: &mut Criterion) {
    c.bench_function("freeze_advance_1000_segments", |b| {
        b.iter(|| {
            let s = long_schedule(1);
            let mut t = SimTime::ZERO;
            for _ in 0..1000 {
                t = s.advance(t, SimDuration::from_millis(37));
            }
            black_box(t)
        })
    });
    c.bench_function("freeze_frozen_between_1h", |b| {
        let s = long_schedule(2);
        // Pre-generate once so the bench measures queries, not generation.
        let _ = s.frozen_between(SimTime::ZERO, SimTime::from_secs(3600));
        b.iter(|| black_box(s.frozen_between(SimTime::ZERO, SimTime::from_secs(3600))))
    });
}

fn event_queue(c: &mut Criterion) {
    // The same fixed workloads `smi-lab bench` records in
    // BENCH_engine.json, so a criterion-shim run and the JSON trajectory
    // are directly comparable.
    c.bench_function("event_queue_near_monotone", |b| {
        b.iter(|| black_box(bench::suite::event_queue_near_monotone()))
    });
    c.bench_function("event_queue_same_time_bursts", |b| {
        b.iter(|| black_box(bench::suite::event_queue_same_time_bursts()))
    });
}

fn freeze_lookup(c: &mut Criterion) {
    c.bench_function("freeze_unfreeze_scan_50k", |b| {
        let s = long_schedule(5);
        // Warm the window cache so the bench measures lookups.
        let _ = s.unfreeze(SimTime::from_secs(700));
        b.iter(|| black_box(bench::suite::freeze_unfreeze_scan(&s)))
    });
}

fn detector_polling(c: &mut Criterion) {
    c.bench_function("hwlat_detect_1s_window", |b| {
        let s = long_schedule(3);
        let det = HwlatDetector::default();
        b.iter(|| {
            black_box(det.detect(&s, SimTime::ZERO, SimTime::from_secs(1), &Tsc::e5620()).count())
        })
    });
}

fn engine_throughput(c: &mut Criterion) {
    use mpi_sim::{ClusterSpec, NetworkParams, Op, RankProgram};
    c.bench_function("engine_16rank_alltoall_x20", |b| {
        let spec = ClusterSpec::wyeast(16, 1, false).expect("valid shape");
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
        b.iter(|| {
            black_box(mpi_sim::run(&spec, &nodes, &progs, &net).expect("valid job").seconds())
        })
    });
}

fn cache_hierarchy(c: &mut Criterion) {
    use cache_sim::{Hierarchy, HierarchyConfig};
    c.bench_function("cache_sim_1m_accesses", |b| {
        let mut rng = SimRng::new(4);
        let addrs: Vec<u64> = (0..1_000_000).map(|_| rng.below(1 << 26)).collect();
        b.iter(|| {
            let mut h = Hierarchy::new(HierarchyConfig::xeon_e5620());
            black_box(h.run(addrs.iter().copied()))
        })
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(2);
    targets = freeze_advance, event_queue, freeze_lookup, detector_polling, engine_throughput,
        cache_hierarchy
}
criterion_main!(micro);
