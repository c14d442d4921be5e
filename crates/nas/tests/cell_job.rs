//! A cell's compute durations and its shared job.
//!
//! `compute_durations` is the one place a rank's compute segment is
//! computed: `programs` writes it into every `Op::Compute`, and a
//! `CellJob` passes it to each run of the job it lowered once. These
//! tests pin it to the calibration formula itself (per-rank work
//! `max(serial / p + extra, serial / p / 10) * jitter`, split into EP's
//! 1, BT's `3 * iters` or FT's `iters + 1` equal segments), on every
//! Tables 1–5 shape, and check that a `CellJob` run is `run_with` on the
//! cell's programs.

use mpi_sim::{ClusterSpec, NetworkParams, NodeState, Op, RankProgram, RunConfig};
use nas::paper::serial_seconds;
use nas::{compute_durations, programs, quiet_nodes, Bench, CellJob, Class};
use quickprop::{check, Gen};
use sim_core::{SimDuration, SimRng};
use smi_driver::{SmiClass, SmiDriver, SmiDriverConfig};

/// Every cluster shape of Tables 1–3 (one or four ranks per node) and
/// Tables 4–5 (EP and FT at four ranks per node, HTT on).
fn paper_shapes() -> Vec<(Bench, Class, ClusterSpec)> {
    let mut shapes = Vec::new();
    for bench in [Bench::Ep, Bench::Bt, Bench::Ft] {
        for class in Class::PAPER {
            for &nodes in bench.node_counts() {
                let mut layouts = vec![(1, false), (4, false)];
                if bench != Bench::Bt {
                    layouts.push((4, true));
                }
                for (rpn, htt) in layouts {
                    let spec = ClusterSpec::wyeast(nodes, rpn, htt).expect("paper shape");
                    shapes.push((bench, class, spec));
                }
            }
        }
    }
    shapes
}

/// Compute segments per rank, from the benchmarks' iteration counts.
fn segments(bench: Bench, class: Class) -> u32 {
    match bench {
        Bench::Ep => 1,
        Bench::Bt => 3 * class.bt_grid().1,
        Bench::Ft => class.ft_grid().1 + 1,
    }
}

/// A calibration adjustment: usually within ±50 % of the per-rank
/// work, one draw in three far enough below it to hit the 10 % floor.
fn random_extra(g: &mut Gen, per_rank: f64) -> f64 {
    let scale = if g.u32(0..3) == 0 {
        -1.0 - g.u64(0..1000) as f64 / 1000.0
    } else {
        g.u64(0..1000) as f64 / 1000.0 - 0.5
    };
    per_rank * scale
}

fn random_jitters(g: &mut Gen, ranks: u32) -> Vec<f64> {
    (0..ranks).map(|_| 0.5 + g.u64(0..1000) as f64 / 1000.0).collect()
}

fn computes(program: &RankProgram) -> Vec<SimDuration> {
    program
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Compute(w) => Some(*w),
            _ => None,
        })
        .collect()
}

#[test]
fn durations_are_every_compute_op_and_the_calibration_formula() {
    let shapes = paper_shapes();
    check("durations_are_every_compute_op_and_the_calibration_formula", 6, |g| {
        for &(bench, class, spec) in &shapes {
            let p = spec.total_ranks();
            let base = serial_seconds(bench, class) / p as f64;
            let extra = random_extra(g, base);
            let jitters = random_jitters(g, p);
            let durations = compute_durations(bench, class, &spec, extra, &jitters);
            let progs = programs(bench, class, &spec, extra, &jitters);
            assert_eq!(durations.len(), p as usize);
            let per_rank = (base + extra).max(base * 0.1);
            let n = segments(bench, class);
            for (r, prog) in progs.iter().enumerate() {
                let ops = computes(prog);
                let what = format!("{bench:?} {class:?} {p} ranks, rank {r}");
                assert_eq!(ops.len(), n as usize, "{what}: compute segments");
                assert!(ops.iter().all(|&w| w == durations[r]), "{what}: op != duration");
                // The segments add up to the rank's jittered work, to the
                // nanosecond each segment's rounding may cost.
                let want = per_rank * jitters[r];
                let got = durations[r].as_nanos() as f64 * n as f64 / 1e9;
                assert!((got - want).abs() <= n as f64 * 1e-9, "{what}: {got} s vs {want} s");
            }
        }
    });
}

fn noisy_nodes(spec: &ClusterSpec, smm: SmiClass, rng: &mut SimRng) -> Vec<NodeState> {
    let driver = SmiDriver::new(SmiDriverConfig::mpi_study(smm));
    (0..spec.nodes)
        .map(|_| NodeState {
            schedule: driver.schedule_for_node(rng),
            effects: driver.side_effects(spec.htt),
            online_cpus: spec.online_cpus(),
            per_core: Vec::new(),
        })
        .collect()
}

#[test]
fn a_cell_job_run_is_run_with_on_the_cells_programs() {
    let net = NetworkParams::gigabit_cluster();
    // The small shapes of every benchmark, plus one paper-scale cell.
    let shapes: Vec<(Bench, Class, ClusterSpec)> = paper_shapes()
        .into_iter()
        .filter(|(b, c, s)| {
            s.total_ranks() <= 16 && *c == Class::A
                || (*b == Bench::Ft && *c == Class::B && s.total_ranks() == 64 && !s.htt)
        })
        .collect();
    check("a_cell_job_run_is_run_with_on_the_cells_programs", 4, |g| {
        for &(bench, class, spec) in &shapes {
            let job = CellJob::new(bench, class, &spec, &net).expect("paper shapes lower");
            let p = spec.total_ranks();
            for smm in [SmiClass::None, SmiClass::Long] {
                let extra = random_extra(g, serial_seconds(bench, class) / p as f64);
                let jitters = random_jitters(g, p);
                let mut rng = SimRng::new(g.any_u64());
                let nodes = noisy_nodes(&spec, smm, &mut rng);
                let config = RunConfig::validating();
                let got = job.simulate(&nodes, extra, &jitters, &config);
                let progs = programs(bench, class, &spec, extra, &jitters);
                let want = mpi_sim::run_with(&spec, &nodes, &progs, &net, &config);
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{bench:?} {class:?} {p}");
            }
        }
    });
}

#[test]
fn calibration_on_a_cell_job_equals_calibrate_extra() {
    let net = NetworkParams::gigabit_cluster();
    let spec = ClusterSpec::wyeast(4, 1, false).expect("valid shape");
    let job = CellJob::new(Bench::Bt, Class::A, &spec, &net).expect("lowers");
    let extra = job.calibrate(27.44).expect("calibrates");
    assert_eq!(extra, nas::calibrate_extra(Bench::Bt, Class::A, &spec, &net, 27.44).unwrap());
    let progs = programs(Bench::Bt, Class::A, &spec, extra, &[1.0; 4]);
    let t = mpi_sim::run(&spec, &quiet_nodes(&spec), &progs, &net).expect("runs").seconds();
    assert!((t - 27.44).abs() / 27.44 < 0.01, "calibrated to {t} s");
    // A non-positive target is refused before any run.
    assert!(job.calibrate(0.0).is_err());
}
