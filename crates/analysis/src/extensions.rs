//! Beyond the paper: the two studies its conclusion asks for.
//!
//! "As we continue our study of SMI noise, we hope to focus in more
//! precisely on the cause of variance with HTT, and to test additional
//! parallel applications at larger scales." (§V)
//!
//! * [`scale_projection`] extends the Table 1/2 methodology to 32–128
//!   nodes (the model needs no new hardware), projecting how long-SMI
//!   damage keeps growing past the paper's 16-node cluster.
//! * [`variance_study`] replicates Figure 1's fixed-50 ms-interval runs
//!   many times per logical-CPU count and decomposes the run-to-run
//!   variance, isolating the paper's observed "greater variance starting
//!   at 4 logical threads".

use crate::opts::RunOptions;
use apps::{run_convolve, ConvolveConfig, ConvolveRun};
use machine::SmiSideEffects;
use mpi_sim::{ClusterSpec, NetworkParams, NodeState, Op, RankProgram};
use sim_core::stats::Accumulator;
use sim_core::{SimDuration, SimRng};
use smi_driver::{SmiClass, SmiDriver, SmiDriverConfig};

/// One point of the scale projection.
#[derive(Clone, Copy, Debug, jsonio::ToJson)]
pub struct ScalePoint {
    /// Node count.
    pub nodes: u32,
    /// Quiet makespan, seconds.
    pub base: f64,
    /// Long-SMI makespan, seconds.
    pub long: f64,
    /// Percent impact.
    pub impact_pct: f64,
}

/// A synthetic BSP application in the BT mould (fixed per-rank work per
/// iteration — weak scaling — with halo exchanges), pushed to `nodes`.
fn bsp_app(nodes: u32, iters: u32) -> Vec<RankProgram> {
    (0..nodes)
        .map(|r| {
            let mut ops = Vec::new();
            for it in 0..iters {
                ops.push(Op::Compute(SimDuration::from_millis(50)));
                let next = (r + 1) % nodes;
                let prev = (r + nodes - 1) % nodes;
                if nodes > 1 {
                    ops.push(Op::Exchange {
                        send_to: next,
                        recv_from: prev,
                        bytes: 64 * 1024,
                        tag: it,
                    });
                }
            }
            RankProgram::new(ops).with_memory_intensity(0.5).with_comm_intensity(0.3)
        })
        .collect()
}

/// Project the long-SMI impact of a weak-scaled BSP application out to
/// the given node counts.
pub fn scale_projection(node_counts: &[u32], opts: &RunOptions) -> Vec<ScalePoint> {
    let network = NetworkParams::gigabit_cluster();
    node_counts
        .iter()
        .map(|&nodes| {
            #[expect(clippy::expect_used, reason = "shape is valid by construction (rpn 1)")]
            let spec = ClusterSpec::wyeast(nodes, 1, false).expect("valid shape");
            let progs = bsp_app(nodes, 100);
            let quiet: Vec<NodeState> = (0..nodes)
                .map(|_| NodeState {
                    schedule: sim_core::FreezeSchedule::none(),
                    effects: SmiSideEffects::none(),
                    online_cpus: 4,
                    per_core: Vec::new(),
                })
                .collect();
            #[expect(clippy::expect_used, reason = "the BSP job is matched by construction")]
            let base = mpi_sim::run(&spec, &quiet, &progs, &network).expect("valid job").seconds();
            let mut acc = Accumulator::new();
            for rep in 0..opts.reps {
                let mut rng =
                    SimRng::from_path(opts.seed, &["scale", &nodes.to_string(), &rep.to_string()]);
                let driver = SmiDriver::new(SmiDriverConfig::mpi_study(SmiClass::Long));
                let noisy: Vec<NodeState> = (0..nodes)
                    .map(|_| NodeState {
                        schedule: driver.schedule_for_node(&mut rng),
                        effects: driver.side_effects(false),
                        online_cpus: 4,
                        per_core: Vec::new(),
                    })
                    .collect();
                #[expect(clippy::expect_used, reason = "the BSP job is matched by construction")]
                let noised = mpi_sim::run(&spec, &noisy, &progs, &network).expect("valid job");
                acc.push(noised.seconds());
            }
            let long = acc.mean();
            ScalePoint { nodes, base, long, impact_pct: (long - base) / base * 100.0 }
        })
        .collect()
}

/// One row of the variance study.
#[derive(Clone, Copy, Debug, jsonio::ToJson)]
pub struct VariancePoint {
    /// Online logical CPUs.
    pub cpus: u32,
    /// Mean wall time, seconds.
    pub mean: f64,
    /// Coefficient of variation over the reps.
    pub cv: f64,
    /// CV with the HTT side effects disabled (phase randomness only).
    pub cv_no_side_effects: f64,
}

/// Decompose Convolve's run-to-run variance at a fixed 50 ms long-SMI
/// interval: full model vs. side-effects-off, per CPU count.
pub fn variance_study(config: ConvolveConfig, reps: u32, seed: u64) -> Vec<VariancePoint> {
    assert!(reps >= 3, "variance needs replication");
    (1..=8u32)
        .map(|cpus| {
            let mut full = Accumulator::new();
            let mut bare = Accumulator::new();
            for rep in 0..reps {
                for (acc, side_effects) in [(&mut full, true), (&mut bare, false)] {
                    let mut rng = SimRng::from_path(
                        seed,
                        &["variance", config.label(), &cpus.to_string(), &rep.to_string()],
                    );
                    let driver = SmiDriver::new(SmiDriverConfig::interval_ms(SmiClass::Long, 50));
                    let schedule = driver.schedule_for_node(&mut rng);
                    let effects = if side_effects {
                        driver.side_effects_jittered(cpus > 4, &mut rng)
                    } else {
                        SmiSideEffects::none()
                    };
                    let run =
                        ConvolveRun { config, online_cpus: cpus, schedule, effects, threads: 24 };
                    acc.push(run_convolve(&run, &mut rng).wall_seconds);
                }
            }
            VariancePoint { cpus, mean: full.mean(), cv: full.cv(), cv_no_side_effects: bare.cv() }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_grows_then_saturates() {
        let opts = RunOptions { reps: 2, seed: 5, ..RunOptions::default() };
        let points = scale_projection(&[4, 16, 64], &opts);
        assert_eq!(points.len(), 3);
        // Growth through the paper's scale...
        assert!(
            points[1].impact_pct > points[0].impact_pct,
            "16 nodes {} vs 4 nodes {}",
            points[1].impact_pct,
            points[0].impact_pct
        );
        // ...then saturation: once some node is nearly always the
        // most-recently-frozen straggler, each barrier interval cannot
        // lose more than ~one residency. 64 nodes stays in the same band
        // as 16, not multiplicatively worse.
        let ratio = points[2].impact_pct / points[1].impact_pct;
        assert!(
            (0.75..1.5).contains(&ratio),
            "64-node impact {} vs 16-node {} (ratio {ratio})",
            points[2].impact_pct,
            points[1].impact_pct
        );
    }

    #[test]
    fn projection_baselines_are_weakly_scaled() {
        let opts = RunOptions { reps: 1, seed: 5, ..RunOptions::default() };
        let points = scale_projection(&[2, 8], &opts);
        // Weak scaling: baseline roughly constant (5s of compute + comm).
        assert!((points[0].base - points[1].base).abs() < 1.0);
    }

    #[test]
    fn variance_exists_and_reports_both_decompositions() {
        let points = variance_study(ConvolveConfig::CacheFriendly, 4, 3);
        assert_eq!(points.len(), 8);
        for p in &points {
            assert!(p.mean > 0.0);
            assert!(p.cv >= 0.0 && p.cv_no_side_effects >= 0.0);
        }
        // At 50ms intervals the freezes dominate: some variance everywhere.
        assert!(points.iter().any(|p| p.cv > 0.0));
    }
}
