//! End-to-end shape checks: the qualitative claims of the paper's
//! evaluation, asserted against the full reproduction pipeline with
//! reduced replication. Each test names the claim it pins, except the
//! last, a smoke pass over the whole stack.

use smi_lab::analysis::{measure_cell, RunOptions, SMM_CLASSES};
use smi_lab::apps::ConvolveConfig;
use smi_lab::cache_sim::{classify, CacheBehavior};
use smi_lab::nas::{calibrate_extra, table_cell, Bench, Class};
use smi_lab::prelude::*;
use smi_lab::smi_driver::SmiClass;

fn opts() -> RunOptions {
    RunOptions { reps: 3, seed: 11, ..RunOptions::default() }
}

fn impacts(bench: Bench, class: Class, nodes: u32, rpn: u32, htt: bool) -> (f64, f64) {
    let network = NetworkParams::gigabit_cluster();
    let spec = ClusterSpec::wyeast(nodes, rpn, htt).expect("valid shape");
    let target = table_cell(bench, class, nodes, rpn)
        .and_then(|c| c.baseline())
        .expect("cell measured in the paper");
    let extra = calibrate_extra(bench, class, &spec, &network, target).expect("calibrates");
    let label = format!("shape-{}-{}-{}-{}-{}", bench.name(), class.letter(), nodes, rpn, htt);
    let [base, short, long] = SMM_CLASSES.map(|smm| {
        measure_cell(bench, class, &spec, extra, smm, &opts(), &network, &label).expect("measures")
    });
    ((short.mean - base.mean) / base.mean * 100.0, (long.mean - base.mean) / base.mean * 100.0)
}

#[test]
fn claim_short_smis_produce_only_jitter() {
    // "We see minor or no impact from short SMM intervals on any BT
    // configuration" — and the same for EP and FT.
    for (bench, nodes) in [(Bench::Bt, 4u32), (Bench::Ep, 8), (Bench::Ft, 4)] {
        let (short, _) = impacts(bench, Class::A, nodes, 1, false);
        assert!(
            short.abs() < 3.0,
            "{} short-SMI impact {short}% exceeds the noise floor",
            bench.name()
        );
    }
}

#[test]
fn claim_long_smis_cost_at_least_the_duty_cycle() {
    // On a single node the long class must cost roughly its duty cycle
    // (~10.5%), as in every Table 1-3 one-node row (+10.1 to +11.7%).
    for bench in [Bench::Ep, Bench::Bt, Bench::Ft] {
        let (_, long) = impacts(bench, Class::B, 1, 1, false);
        assert!((8.0..18.0).contains(&long), "{} one-node long-SMI impact {long}%", bench.name());
    }
}

#[test]
fn claim_bt_amplifies_with_scale() {
    // Table 1: the impact of the long SMIs increases with the number of
    // MPI ranks.
    let (_, one) = impacts(Bench::Bt, Class::A, 1, 1, false);
    let (_, four) = impacts(Bench::Bt, Class::A, 4, 1, false);
    let (_, sixteen) = impacts(Bench::Bt, Class::A, 16, 1, false);
    assert!(four > one + 10.0, "4-node impact {four}% vs 1-node {one}%");
    assert!(sixteen > four + 10.0, "16-node impact {sixteen}% vs 4-node {four}%");
}

#[test]
fn claim_ep_amplifies_mildly_with_scale() {
    // Table 2: "a pattern of increasing perturbation as the number of
    // nodes increases from 1 to 16", but far weaker than BT's.
    let (_, one) = impacts(Bench::Ep, Class::A, 1, 1, false);
    let (_, sixteen) = impacts(Bench::Ep, Class::A, 16, 1, false);
    assert!(sixteen > one + 3.0, "16-node {sixteen}% vs 1-node {one}%");
    assert!(sixteen < 60.0, "EP amplification should stay mild: {sixteen}%");
}

#[test]
fn claim_four_ranks_per_node_is_hit_at_least_as_hard() {
    // SMIs freeze whole nodes, so packing 4 ranks per node does not
    // dilute the damage (Table 2's right block shows larger percentages
    // than the left at equal node counts).
    let (_, spread) = impacts(Bench::Ep, Class::A, 8, 1, false);
    let (_, packed) = impacts(Bench::Ep, Class::A, 8, 4, false);
    assert!(
        packed > spread - 3.0,
        "packed {packed}% should not be materially below spread {spread}%"
    );
}

#[test]
fn claim_htt_worsens_ep_under_long_smis() {
    // Table 4: EP's long-SMI column shows ht=1 slower than ht=0 in 13 of
    // 15 cells.
    let network = NetworkParams::gigabit_cluster();
    let mut deltas = Vec::new();
    for nodes in [1u32, 4] {
        let mut means = [0.0f64; 2];
        for (i, htt) in [false, true].into_iter().enumerate() {
            let spec = ClusterSpec::wyeast(nodes, 4, htt).expect("valid shape");
            let cell = smi_lab::nas::htt_cell(Bench::Ep, Class::B, nodes).expect("cell");
            let extra = calibrate_extra(Bench::Ep, Class::B, &spec, &network, cell.smm_ht[0][i])
                .expect("calibrates");
            means[i] = measure_cell(
                Bench::Ep,
                Class::B,
                &spec,
                extra,
                SmiClass::Long,
                &opts(),
                &network,
                &format!("httshape-{nodes}-{htt}"),
            )
            .expect("measures")
            .mean;
        }
        deltas.push((means[1] - means[0]) / means[0] * 100.0);
    }
    for d in &deltas {
        assert!(*d > 0.0, "HTT should cost EP under long SMIs: deltas {deltas:?}");
    }
}

#[test]
fn claim_detection_recovers_what_the_driver_injects() {
    // Cross-stack: driver -> schedule -> polling detector, across both
    // classes and several periods.
    for class in [SmiClass::Short, SmiClass::Long] {
        for period in [400u64, 1000] {
            let driver = SmiDriver::new(SmiDriverConfig::interval_ms(class, period));
            let mut rng = SimRng::new(period ^ 0xABCD);
            let schedule = driver.schedule_for_node(&mut rng);
            let end = SimTime::from_secs(20);
            let truth = schedule.count_between(SimTime::ZERO, end);
            let found = HwlatDetector::default()
                .detect(&schedule, SimTime::ZERO, end, &Tsc::e5620())
                .count();
            assert!(
                found.abs_diff(truth) <= 1,
                "{class:?}@{period}ms: found {found} vs injected {truth}"
            );
        }
    }
}

#[test]
fn claim_calibration_reproduces_every_available_baseline() {
    // Every cell with a paper SMM-0 value must calibrate to within 3%.
    let network = NetworkParams::gigabit_cluster();
    let ones = |n: u32| vec![1.0; n as usize];
    for bench in [Bench::Ep, Bench::Bt, Bench::Ft] {
        for class in [Class::A, Class::C] {
            for &nodes in bench.node_counts() {
                for rpn in [1u32, 4] {
                    let Some(target) =
                        table_cell(bench, class, nodes, rpn).and_then(|c| c.baseline())
                    else {
                        continue;
                    };
                    let spec = ClusterSpec::wyeast(nodes, rpn, false).expect("valid shape");
                    let extra =
                        calibrate_extra(bench, class, &spec, &network, target).expect("calibrates");
                    let progs = smi_lab::nas::programs(
                        bench,
                        class,
                        &spec,
                        extra,
                        &ones(spec.total_ranks()),
                    );
                    let t = smi_lab::mpi_sim::run(
                        &spec,
                        &smi_lab::nas::quiet_nodes(&spec),
                        &progs,
                        &network,
                    )
                    .expect("valid job")
                    .seconds();
                    assert!(
                        (t - target).abs() / target < 0.03,
                        "{} {} n{nodes} r{rpn}: {t} vs {target}",
                        bench.name(),
                        class.letter()
                    );
                }
            }
        }
    }
}

// --- Mechanism ablations: each mechanism on vs off on one workload. ---

/// 100 iterations of 50 ms of compute then a barrier, one rank per node.
fn barrier_job(nodes: u32) -> (ClusterSpec, Vec<RankProgram>) {
    let spec = ClusterSpec::wyeast(nodes, 1, false).expect("valid shape");
    let ops: Vec<Op> =
        (0..100).flat_map(|_| [Op::Compute(SimDuration::from_millis(50)), Op::Barrier]).collect();
    (spec, (0..nodes).map(|_| RankProgram::new(ops.clone())).collect())
}

/// The barrier job's makespan on nodes with the given schedules and no
/// SMI side effects, in seconds.
fn barrier_makespan(schedules: Vec<FreezeSchedule>) -> f64 {
    let (spec, progs) = barrier_job(schedules.len() as u32);
    let nodes: Vec<NodeState> = schedules
        .into_iter()
        .map(|s| NodeState::uniform(s, SmiSideEffects::none(), spec.online_cpus()))
        .collect();
    smi_lab::mpi_sim::run(&spec, &nodes, &progs, &NetworkParams::gigabit_cluster())
        .expect("valid job")
        .seconds()
}

/// Long-SMI slowdowns (%) of the barrier job on `nodes` nodes for one
/// seed: `(unsynchronized, synchronized)` per-node SMI phases.
fn phase_slowdowns(nodes: u32, seed: u64) -> (f64, f64) {
    let driver = SmiDriver::new(SmiDriverConfig::mpi_study(SmiClass::Long));
    let quiet = barrier_makespan(vec![FreezeSchedule::none(); nodes as usize]);
    let mut rng = SimRng::new(seed);
    let unsync = barrier_makespan((0..nodes).map(|_| driver.schedule_for_node(&mut rng)).collect());
    let mut rng = SimRng::new(seed);
    let sync = barrier_makespan(driver.synchronized_schedules(nodes as usize, &mut rng));
    let pct = |t: f64| (t - quiet) / quiet * 100.0;
    (pct(unsync), pct(sync))
}

/// Node counts of the phase-alignment ablation.
const PHASE_NODES: [u32; 5] = [1, 2, 4, 8, 16];
/// Seeds of the phase-alignment ablation.
const PHASE_SEEDS: std::ops::Range<u64> = 0..12;

#[test]
fn claim_unsynchronized_smis_never_cost_less_than_synchronized_ones() {
    // A barrier cannot complete while any node is frozen: SMIs at
    // independent phases stall it at least as long as at one phase.
    for seed in PHASE_SEEDS {
        for n in PHASE_NODES {
            let (unsync, sync) = phase_slowdowns(n, seed);
            assert!(unsync >= sync, "seed {seed}, {n} nodes: unsync {unsync}% < sync {sync}%");
        }
    }
}

#[test]
fn claim_synchronized_smis_cost_the_same_at_every_node_count() {
    // With one shared phase every node loses the same windows, so node
    // count cannot amplify the slowdown. Tolerance, from the network and
    // not from the slowdowns: the quiet job's barrier share at the
    // largest node count. Node count acts only through the barriers, so
    // it cannot move the slowdown by more than their share of the run.
    let quiet = |n: u32| barrier_makespan(vec![FreezeSchedule::none(); n as usize]);
    let barrier_pp = (quiet(16) - quiet(1)) / quiet(1) * 100.0;
    assert!(barrier_pp > 0.0 && barrier_pp < 1.0, "barrier share {barrier_pp}%");
    for seed in PHASE_SEEDS {
        let syncs: Vec<f64> = PHASE_NODES.iter().map(|&n| phase_slowdowns(n, seed).1).collect();
        let spread = syncs.iter().fold(f64::MIN, |a, &b| a.max(b))
            - syncs.iter().fold(f64::MAX, |a, &b| a.min(b));
        assert!(spread <= barrier_pp, "seed {seed}: {syncs:?} spread {spread} > {barrier_pp} pp");
    }
}

#[test]
fn claim_unsynchronized_smis_amplify_with_node_count() {
    // The paper's MPI finding: at 16 nodes, SMIs at independent phases
    // cost far more than the same SMIs at one phase.
    for seed in PHASE_SEEDS {
        let (unsync, sync) = phase_slowdowns(16, seed);
        assert!(unsync > 3.0 * sync, "seed {seed}, 16 nodes: unsync {unsync}% vs sync {sync}%");
    }
}

#[test]
fn claim_smi_side_effects_cost_beyond_the_freeze() {
    // Rendezvous, cache refill and post-exit scheduling make a long SMI
    // cost more wall time than its residency alone.
    let driver = SmiDriver::new(SmiDriverConfig::interval_ms(SmiClass::Long, 200));
    let schedule = driver.schedule_for_node(&mut SimRng::new(6));
    let wall = |effects: SmiSideEffects| {
        smi_lab::machine::NodeExecutor::new(&schedule, effects, 8, 0.8, 0.5)
            .execute(SimTime::ZERO, SimDuration::from_secs(30))
            .wall
            .as_secs_f64()
    };
    let (with, pure) = (wall(driver.side_effects(true)), wall(SmiSideEffects::none()));
    assert!(with > pure, "side effects {with} s vs pure freeze {pure} s");
}

#[test]
fn claim_smt_contention_slows_memory_bound_siblings() {
    // Eight memory-bound threads on a Dell R410 share four cores' cache
    // and memory bandwidth through their Hyper-Thread siblings: more
    // contention, longer makespan.
    use smi_lab::machine::{ExecProfile, Phase, SchedParams, SmtParams, ThreadProgram, ThreadSpec};
    let makespan = |contention: f64| {
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
        smi_lab::machine::run(&topo, &params, &threads).expect("no deadlock").makespan.as_secs_f64()
    };
    let spans: Vec<f64> = [0.0, 0.5, 1.0, 2.0].into_iter().map(makespan).collect();
    assert!(spans.windows(2).all(|w| w[0] < w[1]), "makespans {spans:?}");
}

#[test]
fn claim_the_residency_band_costs_its_midpoint() {
    // The long class's uniform 100-110 ms residency freezes a node for
    // as long, over minutes, as a fixed 105 ms one.
    let frozen = |durations: DurationModel| {
        FreezeSchedule::periodic(PeriodicFreeze {
            first_trigger: SimTime::from_millis(100),
            period: SimDuration::from_secs(1),
            durations,
            policy: TriggerPolicy::SkipWhileFrozen,
            seed: 4,
        })
        .frozen_between(SimTime::ZERO, SimTime::from_secs(300))
        .as_secs_f64()
    };
    let band = frozen(DurationModel::long_smi());
    let fixed = frozen(DurationModel::Fixed(SimDuration::from_millis(105)));
    assert!((band - fixed).abs() <= 0.01 * fixed, "band {band} s vs fixed {fixed} s");
}

#[test]
fn claim_convolve_configurations_classify_as_cf_and_cu() {
    // The Figure-1 model's cachegrind step must classify its two
    // configurations the way the paper's cachegrind run did: ~1% misses
    // for CacheFriendly and well above 40% for CacheUnfriendly.
    let cf = ConvolveConfig::CacheFriendly.memory_profile();
    let cu = ConvolveConfig::CacheUnfriendly.memory_profile();
    assert_eq!(classify(cf.l1_miss_ratio), CacheBehavior::Friendly);
    assert_eq!(classify(cu.l1_miss_ratio), CacheBehavior::Unfriendly);
    assert!(cf.l1_miss_ratio < 0.02, "CF miss ratio {}", cf.l1_miss_ratio);
    assert!(cu.l1_miss_ratio > 0.40, "CU miss ratio {}", cu.l1_miss_ratio);
}

#[test]
fn full_stack_smoke_noise_hurts_and_detection_sees_it() {
    // One compact pass over the entire stack: cluster job + SMIs +
    // detection + attribution consistency.
    let spec = ClusterSpec::wyeast(4, 1, false).expect("valid shape");
    let network = NetworkParams::gigabit_cluster();
    let progs: Vec<RankProgram> = (0..4)
        .map(|_| {
            RankProgram::new(vec![
                Op::Compute(SimDuration::from_secs(2)),
                Op::Allreduce { bytes: 64 },
            ])
        })
        .collect();
    let quiet = smi_lab::nas::quiet_nodes(&spec);
    let base = smi_lab::mpi_sim::run(&spec, &quiet, &progs, &network).expect("valid job");

    let driver = SmiDriver::new(SmiDriverConfig::mpi_study(SmiClass::Long));
    let mut rng = SimRng::new(9);
    let noisy: Vec<NodeState> = (0..4)
        .map(|_| NodeState {
            schedule: driver.schedule_for_node(&mut rng),
            effects: driver.side_effects(false),
            online_cpus: 4,
            per_core: Vec::new(),
        })
        .collect();
    let perturbed = smi_lab::mpi_sim::run(&spec, &noisy, &progs, &network).expect("valid job");
    assert!(perturbed.makespan > base.makespan);
    assert!(perturbed.total_frozen > SimDuration::ZERO);

    // The detector on node 0 sees exactly the windows the engine counted
    // for node 0.
    let end = SimTime::ZERO + perturbed.makespan;
    let report =
        HwlatDetector::default().detect(&noisy[0].schedule, SimTime::ZERO, end, &Tsc::e5520());
    assert_eq!(report.count(), noisy[0].schedule.count_between(SimTime::ZERO, end));
}
