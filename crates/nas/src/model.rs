//! Calibrated cluster workload models for EP, BT and FT.
//!
//! Each generator turns a `(benchmark, class, cluster shape)` cell into
//! per-rank [`RankProgram`]s whose *structure* (what synchronizes, when,
//! and how much data moves) comes from the benchmark's algorithm, and
//! whose *compute* durations are calibrated:
//!
//! 1. physical communication volumes and per-class serial work give a
//!    first-principles program;
//! 2. [`calibrate_extra`] runs the noise-free simulation and computes a
//!    per-rank compute adjustment so the SMM-0 baseline matches the
//!    paper's measurement (absorbing the paper cluster's TCP stack
//!    costs, compiler quality and MPI implementation, none of which are
//!    knowable);
//! 3. the SMM 1 / SMM 2 / HTT columns are then *predictions* — nothing
//!    in the noise path is fitted to them.
//!
//! Only the compute durations depend on the calibration adjustment and
//! the per-rank jitter; every rank's `Op::Compute`s carry one duration,
//! [`compute_durations`]. So a [`CellJob`] lowers a cell's programs once
//! and runs calibration and every repetition on that one
//! [`mpi_sim::Job`], passing each run its durations.

use crate::classes::Class;
use crate::paper::{serial_seconds, Bench};
use mpi_sim::{ClusterSpec, Job, NetworkParams, NodeState, Op, RankProgram, RunConfig, RunOutcome};
use sim_core::{SimDuration, SimError};

/// Per-benchmark workload character (drives the SMI side-effect scaling).
fn intensities(bench: Bench, total_ranks: u32) -> (f64, f64) {
    let logp = (total_ranks.max(1) as f64).log2();
    match bench {
        // EP: tight register/FPU loop, near-zero communication.
        Bench::Ep => (0.05, 0.02),
        // BT: stencil + line solves, moderate memory traffic, comm share
        // grows with scale.
        Bench::Bt => (0.5, (0.06 * logp + 0.05).min(0.8)),
        // FT: streaming transposes, all-to-all dominated at scale.
        Bench::Ft => {
            let ci = if total_ranks <= 1 { 0.03 } else { (0.12 * logp + 0.08).min(0.9) };
            (0.85, ci)
        }
    }
}

/// Split `seconds` of per-rank compute into `chunks` equal phases.
fn chunk(seconds: f64, chunks: u32) -> SimDuration {
    assert!(seconds >= 0.0 && chunks > 0);
    SimDuration::from_secs_f64(seconds / chunks as f64)
}

/// Generate the per-rank programs for one cell.
///
/// * `extra_per_rank` — calibration adjustment in seconds of compute per
///   rank over the whole run (negative values shrink compute, floored at
///   10 % of the physical estimate);
/// * `jitters` — per-rank multiplicative run-to-run noise on compute
///   (length must equal the rank count; use `1.0` for calibration runs).
pub fn programs(
    bench: Bench,
    class: Class,
    spec: &ClusterSpec,
    extra_per_rank: f64,
    jitters: &[f64],
) -> Vec<RankProgram> {
    let p = spec.total_ranks();
    let work = compute_durations(bench, class, spec, extra_per_rank, jitters);
    let (mi, ci) = intensities(bench, p);
    match bench {
        Bench::Ep => ep_programs(p, &work, mi, ci),
        Bench::Bt => bt_programs(class, p, &work, mi, ci),
        Bench::Ft => ft_programs(class, p, &work, mi, ci),
    }
}

/// Each rank's compute segment for one cell: EP's single chunk, BT's
/// third of an iteration (`iters * 3` segments), FT's `1 / (iters + 1)`
/// share. Every `Op::Compute` of rank `r` in [`programs`] carries entry
/// `r`, so this is also the duration slice a [`CellJob`]'s runs take.
/// `extra_per_rank` and `jitters` are as in [`programs`].
pub fn compute_durations(
    bench: Bench,
    class: Class,
    spec: &ClusterSpec,
    extra_per_rank: f64,
    jitters: &[f64],
) -> Vec<SimDuration> {
    let p = spec.total_ranks();
    assert_eq!(jitters.len(), p as usize, "one jitter per rank");
    let base = serial_seconds(bench, class) / p as f64;
    let chunks = match bench {
        Bench::Ep => 1,
        Bench::Bt => class.bt_grid().1 * 3,
        Bench::Ft => class.ft_grid().1 + 1,
    };
    let per_rank = apply_floor(base, extra_per_rank);
    jitters.iter().map(|&j| chunk(per_rank * j, chunks)).collect()
}

fn apply_floor(base: f64, extra: f64) -> f64 {
    (base + extra).max(base * 0.1)
}

fn ep_programs(p: u32, work: &[SimDuration], mi: f64, ci: f64) -> Vec<RankProgram> {
    (0..p)
        .map(|r| {
            let mut ops = Vec::new();
            if p > 1 {
                // Parameter broadcast at start-up.
                ops.push(Op::Bcast { root: 0, bytes: 64 });
            }
            ops.push(Op::Compute(work[r as usize]));
            if p > 1 {
                // sx, sy and the ten annulus counts.
                ops.push(Op::Allreduce { bytes: 16 });
                ops.push(Op::Allreduce { bytes: 80 });
            }
            RankProgram::new(ops).with_memory_intensity(mi).with_comm_intensity(ci)
        })
        .collect()
}

fn bt_programs(class: Class, p: u32, work: &[SimDuration], mi: f64, ci: f64) -> Vec<RankProgram> {
    let q = (p as f64).sqrt() as u32;
    assert_eq!(q * q, p, "BT requires a square rank count, got {p}");
    let (n, iters) = class.bt_grid();
    // Face bytes of the q x q column decomposition: a rank owns an
    // n x n/q x n/q pencil; each halo face carries 5 doubles per point.
    let face_bytes = (n as u64) * (n as u64 / q.max(1) as u64) * 5 * 8;
    (0..p)
        .map(|r| {
            let row = r / q;
            let col = r % q;
            let w3 = work[r as usize];
            let mut ops = Vec::new();
            ops.push(Op::Bcast { root: 0, bytes: 1024 });
            for it in 0..iters {
                let tag = |phase: u32| it * 16 + phase;
                let east = row * q + (col + 1) % q;
                let west = row * q + (col + q - 1) % q;
                let north = ((row + 1) % q) * q + col;
                let south = ((row + q - 1) % q) * q + col;
                if q > 1 {
                    // copy_faces: periodic halo shifts in both rank-grid
                    // axes (send east / receive west, then the reverse,
                    // then the same for the column axis).
                    ops.push(Op::Exchange {
                        send_to: east,
                        recv_from: west,
                        bytes: face_bytes,
                        tag: tag(0),
                    });
                    ops.push(Op::Exchange {
                        send_to: west,
                        recv_from: east,
                        bytes: face_bytes,
                        tag: tag(1),
                    });
                    ops.push(Op::Exchange {
                        send_to: north,
                        recv_from: south,
                        bytes: face_bytes,
                        tag: tag(2),
                    });
                    ops.push(Op::Exchange {
                        send_to: south,
                        recv_from: north,
                        bytes: face_bytes,
                        tag: tag(3),
                    });
                }
                // x/y/z ADI sweeps: compute plus a boundary shift for the
                // two decomposed directions.
                ops.push(Op::Compute(w3));
                if q > 1 {
                    ops.push(Op::Exchange {
                        send_to: east,
                        recv_from: west,
                        bytes: face_bytes / 4,
                        tag: tag(4),
                    });
                }
                ops.push(Op::Compute(w3));
                if q > 1 {
                    ops.push(Op::Exchange {
                        send_to: north,
                        recv_from: south,
                        bytes: face_bytes / 4,
                        tag: tag(5),
                    });
                }
                ops.push(Op::Compute(w3));
            }
            ops.push(Op::Reduce { root: 0, bytes: 40 });
            RankProgram::new(ops).with_memory_intensity(mi).with_comm_intensity(ci)
        })
        .collect()
}

fn ft_programs(class: Class, p: u32, work: &[SimDuration], mi: f64, ci: f64) -> Vec<RankProgram> {
    assert!(p.is_power_of_two(), "FT requires a power-of-two rank count, got {p}");
    let (_, iters) = class.ft_grid();
    let total_bytes = class.ft_points() * 16; // complex double per point
    let bytes_per_pair = if p > 1 { total_bytes / (p as u64 * p as u64) } else { 0 };
    (0..p)
        .map(|r| {
            // One initial forward transform plus `iters` evolve+inverse
            // steps: iters + 1 equal compute chunks.
            let w = work[r as usize];
            let mut ops = Vec::new();
            ops.push(Op::Bcast { root: 0, bytes: 256 });
            ops.push(Op::Compute(w));
            if p > 1 {
                ops.push(Op::Alltoall { bytes_per_pair });
            }
            for _ in 0..iters {
                ops.push(Op::Compute(w));
                if p > 1 {
                    ops.push(Op::Alltoall { bytes_per_pair });
                }
                // Checksum reduction every iteration.
                ops.push(Op::Allreduce { bytes: 16 });
            }
            RankProgram::new(ops).with_memory_intensity(mi).with_comm_intensity(ci)
        })
        .collect()
}

/// Quiet node states for calibration runs.
pub fn quiet_nodes(spec: &ClusterSpec) -> Vec<NodeState> {
    (0..spec.nodes)
        .map(|_| NodeState {
            schedule: sim_core::FreezeSchedule::none(),
            effects: machine::SmiSideEffects::none(),
            online_cpus: spec.online_cpus(),
            per_core: Vec::new(),
        })
        .collect()
}

/// Find the per-rank compute adjustment that makes the noise-free
/// simulation hit `target_secs` (the paper's SMM-0 measurement for this
/// cell). Returns the adjustment in seconds; converges in a few
/// fixed-point iterations because the makespan responds nearly linearly
/// to uniform compute changes. A non-positive target or a cell the
/// engine rejects surfaces as a typed [`SimError`]. This is
/// [`CellJob::calibrate`] on a job built for the call.
pub fn calibrate_extra(
    bench: Bench,
    class: Class,
    spec: &ClusterSpec,
    network: &NetworkParams,
    target_secs: f64,
) -> Result<f64, SimError> {
    check_target(target_secs)?;
    CellJob::new(bench, class, spec, network)?.calibrate(target_secs)
}

fn check_target(target_secs: f64) -> Result<(), SimError> {
    if target_secs.is_nan() || target_secs <= 0.0 {
        return Err(SimError::invalid(
            "calibration",
            format!("non-positive target {target_secs} s"),
        ));
    }
    Ok(())
}

/// One cell's programs lowered once into an [`mpi_sim::Job`], shared by
/// calibration and every repetition: a run differs from another only in
/// its node states and in the durations [`compute_durations`] gives for
/// its `extra_per_rank` and jitters.
#[derive(Clone, Debug)]
pub struct CellJob {
    bench: Bench,
    class: Class,
    spec: ClusterSpec,
    job: Job,
}

impl CellJob {
    /// Build and lower the cell's programs (their durations are replaced
    /// on every run).
    pub fn new(
        bench: Bench,
        class: Class,
        spec: &ClusterSpec,
        network: &NetworkParams,
    ) -> Result<Self, SimError> {
        let ones = vec![1.0; spec.total_ranks() as usize];
        let job = Job::new(spec, &programs(bench, class, spec, 0.0, &ones), network)?;
        Ok(CellJob { bench, class, spec: *spec, job })
    }

    /// The cell's benchmark.
    pub fn bench(&self) -> Bench {
        self.bench
    }

    /// The cluster shape the job runs on.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// One run over `nodes`: exactly [`mpi_sim::run_with`] on
    /// `programs(bench, class, spec, extra_per_rank, jitters)`.
    pub fn simulate(
        &self,
        nodes: &[NodeState],
        extra_per_rank: f64,
        jitters: &[f64],
        config: &RunConfig,
    ) -> Result<RunOutcome, SimError> {
        let work = compute_durations(self.bench, self.class, &self.spec, extra_per_rank, jitters);
        self.job.run(nodes, &work, config)
    }

    /// [`calibrate_extra`]'s fixed-point loop, on this job.
    pub fn calibrate(&self, target_secs: f64) -> Result<f64, SimError> {
        check_target(target_secs)?;
        let ones = vec![1.0; self.spec.total_ranks() as usize];
        let quiet = quiet_nodes(&self.spec);
        let mut extra = 0.0f64;
        for _ in 0..6 {
            let t = self.simulate(&quiet, extra, &ones, &RunConfig::default())?.seconds();
            let diff = target_secs - t;
            if diff.abs() < 0.005 * target_secs {
                break;
            }
            extra += diff;
        }
        Ok(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::table_cell;

    fn net() -> NetworkParams {
        NetworkParams::gigabit_cluster()
    }

    fn ones(n: u32) -> Vec<f64> {
        vec![1.0; n as usize]
    }

    #[test]
    fn ep_single_rank_matches_serial_time() {
        let spec = ClusterSpec::wyeast(1, 1, false).expect("valid shape");
        let progs = programs(Bench::Ep, Class::A, &spec, 0.0, &ones(1));
        let out = mpi_sim::run(&spec, &quiet_nodes(&spec), &progs, &net()).expect("valid job");
        assert!((out.seconds() - 23.12).abs() < 0.01, "{}", out.seconds());
    }

    #[test]
    fn ep_scales_nearly_linearly() {
        let spec = ClusterSpec::wyeast(16, 1, false).expect("valid shape");
        let progs = programs(Bench::Ep, Class::B, &spec, 0.0, &ones(16));
        let out = mpi_sim::run(&spec, &quiet_nodes(&spec), &progs, &net()).expect("valid job");
        let ideal = 92.72 / 16.0;
        assert!((out.seconds() - ideal).abs() / ideal < 0.05, "{} vs ideal {ideal}", out.seconds());
    }

    #[test]
    fn bt_programs_require_square_counts() {
        let spec = ClusterSpec::wyeast(4, 1, false).expect("valid shape");
        let progs = programs(Bench::Bt, Class::A, &spec, 0.0, &ones(4));
        assert_eq!(progs.len(), 4);
        let out = mpi_sim::run(&spec, &quiet_nodes(&spec), &progs, &net()).expect("valid job");
        // Physical model is faster than the paper's measured 27.44 s (the
        // paper's TCP-over-GigE overheads are calibrated in separately).
        assert!(out.seconds() > 86.87 / 4.0 * 0.9, "{}", out.seconds());
    }

    #[test]
    #[should_panic(expected = "square")]
    fn bt_rejects_non_square() {
        let spec = ClusterSpec::wyeast(2, 1, false).expect("valid shape");
        let _ = programs(Bench::Bt, Class::A, &spec, 0.0, &ones(2));
    }

    #[test]
    fn ft_alltoall_volume_matches_dataset() {
        let spec = ClusterSpec::wyeast(4, 1, false).expect("valid shape");
        let progs = programs(Bench::Ft, Class::A, &spec, 0.0, &ones(4));
        let out = mpi_sim::run(&spec, &quiet_nodes(&spec), &progs, &net()).expect("valid job");
        // 7 all-to-alls move (P-1)/P of the 128 MiB dataset each.
        let expected_bytes = 7 * (Class::A.ft_points() * 16 / 16) * 12;
        assert!(
            (out.bytes as f64 / expected_bytes as f64 - 1.0).abs() < 0.05,
            "bytes {} vs expected {expected_bytes}",
            out.bytes
        );
    }

    #[test]
    fn calibration_hits_paper_baselines() {
        // A representative sample across benchmarks/classes/layouts.
        let cases = [
            (Bench::Ep, Class::A, 16u32, 1u32),
            (Bench::Ep, Class::C, 4, 4),
            (Bench::Bt, Class::A, 4, 1),
            (Bench::Bt, Class::A, 16, 1),
            (Bench::Ft, Class::A, 8, 1),
            (Bench::Ft, Class::B, 4, 4),
        ];
        for (bench, class, nodes, rpn) in cases {
            let spec = ClusterSpec::wyeast(nodes, rpn, false).expect("valid shape");
            let target = table_cell(bench, class, nodes, rpn)
                .and_then(|c| c.baseline())
                .expect("paper cell exists");
            let extra = calibrate_extra(bench, class, &spec, &net(), target).expect("calibrates");
            let progs = programs(bench, class, &spec, extra, &ones(spec.total_ranks()));
            let t = mpi_sim::run(&spec, &quiet_nodes(&spec), &progs, &net())
                .expect("valid job")
                .seconds();
            assert!(
                (t - target).abs() / target < 0.02,
                "{} {} n{nodes} r{rpn}: calibrated {t} vs target {target}",
                bench.name(),
                class.letter()
            );
        }
    }

    #[test]
    fn intensities_are_ordered_sensibly() {
        let (ep_mi, ep_ci) = intensities(Bench::Ep, 16);
        let (bt_mi, bt_ci) = intensities(Bench::Bt, 16);
        let (ft_mi, ft_ci) = intensities(Bench::Ft, 16);
        assert!(ep_mi < bt_mi && bt_mi < ft_mi);
        assert!(ep_ci < bt_ci && bt_ci < ft_ci);
        // FT comm intensity grows with scale.
        let (_, ft_ci_64) = intensities(Bench::Ft, 64);
        assert!(ft_ci_64 > ft_ci);
    }

    #[test]
    fn jitter_scales_compute() {
        let spec = ClusterSpec::wyeast(1, 1, false).expect("valid shape");
        let fast = programs(Bench::Ep, Class::A, &spec, 0.0, &[0.9]);
        let slow = programs(Bench::Ep, Class::A, &spec, 0.0, &[1.1]);
        assert!(fast[0].total_compute() < slow[0].total_compute());
    }
}
