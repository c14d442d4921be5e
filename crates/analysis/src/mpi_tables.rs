//! Result types and the measurement core of Tables 1–5: the NAS
//! benchmark × SMI grid. The cells themselves are built in
//! [`crate::cells`].
//!
//! Each cell `(benchmark, class, nodes, ranks/node[, htt])` is:
//!
//! 1. calibrated once against the paper's SMM-0 measurement (see
//!    `nas::model`),
//! 2. replicated `reps` times per SMM class with fresh per-node SMI
//!    phases, per-occurrence durations, and per-rank compute jitter,
//! 3. summarized as a mean (matching "for each case we measured six runs
//!    and report the average").

use crate::opts::RunOptions;
use mpi_sim::{ClusterSpec, NetworkParams, NodeState, RunConfig, SimError};
use nas::{Bench, CellJob, Class};
use runner::design::{run_adaptive, AdaptiveRun, SampleDesign};
use sim_core::stats::Accumulator;
use sim_core::SimRng;
use smi_driver::{SmiClass, SmiDriver, SmiDriverConfig};

/// Measured statistics for one (cell, SMM class) combination.
#[derive(Clone, Copy, Debug, jsonio::ToJson)]
pub struct Measured {
    /// Mean seconds over the reps.
    pub mean: f64,
    /// Sample standard deviation.
    pub std: f64,
    /// Replications.
    pub reps: u32,
}

/// One row cell of Tables 1–3: measured times under the three SMM
/// classes, plus the paper's values for comparison.
#[derive(Clone, Debug, jsonio::ToJson)]
pub struct TableCell {
    /// Problem class.
    pub class: Class,
    /// Node count (the tables' "MPI rks" row label).
    pub nodes: u32,
    /// Ranks per node (1 or 4).
    pub ranks_per_node: u32,
    /// Measured `[SMM0, SMM1, SMM2]`; `None` when the paper has no
    /// baseline to calibrate against (FT class C small configs).
    pub measured: [Option<Measured>; 3],
    /// The paper's `[SMM0, SMM1, SMM2]` seconds.
    pub paper: [Option<f64>; 3],
}

impl TableCell {
    /// Percent change of SMM class `k` (1 or 2) over the measured baseline.
    pub fn measured_pct(&self, k: usize) -> Option<f64> {
        let base = self.measured[0]?.mean;
        let v = self.measured[k]?.mean;
        Some((v - base) / base * 100.0)
    }

    /// Percent change of SMM class `k` in the paper's data.
    pub fn paper_pct(&self, k: usize) -> Option<f64> {
        let base = self.paper[0]?;
        let v = self.paper[k]?;
        Some((v - base) / base * 100.0)
    }
}

/// A full Table 1/2/3 reproduction.
#[derive(Clone, Debug, jsonio::ToJson)]
pub struct TableResult {
    /// Which benchmark.
    pub bench: Bench,
    /// All cells, ordered class-major then nodes then ranks/node.
    pub cells: Vec<TableCell>,
}

/// The SMM classes in table order.
pub const SMM_CLASSES: [SmiClass; 3] = [SmiClass::None, SmiClass::Short, SmiClass::Long];

/// Build per-node noise state for one rep.
fn nodes_for(spec: &ClusterSpec, smm: SmiClass, rng: &mut SimRng) -> Vec<NodeState> {
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

/// Measure one repetition of a (cell, SMM class): the exact per-rep
/// seed derivation and operation order of the original fixed loop
/// (per-rank jitters, then node schedules, from one stream), factored
/// out so [`measure_cell`] and the adaptive sampler
/// ([`measure_cell_adaptive`]) replay byte-identical simulations.
/// Repetition `rep` is a pure function of the cell identity — never of
/// how many repetitions ran before it — so an adaptive run's first `n`
/// repetitions are exactly the fixed design's first `n`.
fn measure_rep(
    cell: &CellJob,
    extra: f64,
    smm: SmiClass,
    opts: &RunOptions,
    config: &RunConfig,
    cell_label: &str,
    rep: u32,
) -> Result<f64, SimError> {
    let spec = cell.spec();
    let mut rng = SimRng::from_path(
        opts.seed,
        &[cell.bench().name(), cell_label, smm.label(), &format!("rep{rep}")],
    );
    let jitters: Vec<f64> = (0..spec.total_ranks()).map(|_| rng.jitter(opts.jitter)).collect();
    let nodes = nodes_for(spec, smm, &mut rng);
    Ok(cell.simulate(&nodes, extra, &jitters, config)?.seconds())
}

/// Measure one cell (fixed spec) under one SMM class.
#[allow(clippy::too_many_arguments)]
pub fn measure_cell(
    bench: Bench,
    class: Class,
    spec: &ClusterSpec,
    extra: f64,
    smm: SmiClass,
    opts: &RunOptions,
    network: &NetworkParams,
    cell_label: &str,
) -> Result<Measured, SimError> {
    let cell = CellJob::new(bench, class, spec, network)?;
    measure_cell_job(&cell, extra, smm, opts, cell_label)
}

/// [`measure_cell`] on a cell job the caller built (and may share with
/// calibration and the other SMM classes).
pub(crate) fn measure_cell_job(
    cell: &CellJob,
    extra: f64,
    smm: SmiClass,
    opts: &RunOptions,
    cell_label: &str,
) -> Result<Measured, SimError> {
    let mut acc = Accumulator::new();
    let config = opts.engine_config();
    for rep in 0..opts.reps {
        acc.push(measure_rep(cell, extra, smm, opts, &config, cell_label, rep)?);
    }
    Ok(Measured { mean: acc.mean(), std: acc.stddev(), reps: opts.reps })
}

/// Measure one cell under one SMM class with the adaptive stopping rule
/// of DESIGN.md §15: repeat until the Student-t 95 % CI on the mean is
/// relatively tighter than the design target, bounded by
/// `[min_reps, max_reps]`. Per-repetition seeds are identical to
/// [`measure_cell`]'s — the design only decides *how many* repetitions
/// run, never what any repetition computes. Returns the conventional
/// [`Measured`] summary (`reps` = repetitions actually executed) plus
/// the full sampling verdict for the payload's `"stats"` block.
#[allow(clippy::too_many_arguments)]
pub fn measure_cell_adaptive(
    bench: Bench,
    class: Class,
    spec: &ClusterSpec,
    extra: f64,
    smm: SmiClass,
    opts: &RunOptions,
    network: &NetworkParams,
    cell_label: &str,
    design: &SampleDesign,
) -> Result<(Measured, AdaptiveRun), SimError> {
    let cell = CellJob::new(bench, class, spec, network)?;
    measure_cell_job_adaptive(&cell, extra, smm, opts, cell_label, design)
}

/// [`measure_cell_adaptive`] on a cell job the caller built.
pub(crate) fn measure_cell_job_adaptive(
    cell: &CellJob,
    extra: f64,
    smm: SmiClass,
    opts: &RunOptions,
    cell_label: &str,
    design: &SampleDesign,
) -> Result<(Measured, AdaptiveRun), SimError> {
    let config = opts.engine_config();
    // The bootstrap stream is labelled off the same cell identity as the
    // repetition seeds, so the interval is reproducible wherever the
    // cell executes (any worker thread, any `--isolate` subprocess).
    let mut boot_rng =
        SimRng::from_path(opts.seed, &[cell.bench().name(), cell_label, smm.label(), "bootstrap"]);
    let run = run_adaptive(design, &mut boot_rng, |rep| {
        measure_rep(cell, extra, smm, opts, &config, cell_label, rep)
    })?;
    let mut acc = Accumulator::new();
    for &x in &run.samples {
        acc.push(x);
    }
    Ok((Measured { mean: acc.mean(), std: acc.stddev(), reps: run.n() }, run))
}

/// One row of Tables 4–5: measured `[smm][ht]` plus the paper's values.
#[derive(Clone, Debug, jsonio::ToJson)]
pub struct HttTableCell {
    /// Problem class.
    pub class: Class,
    /// Node count.
    pub nodes: u32,
    /// Measured `[SMM0/1/2][ht=0, ht=1]`.
    pub measured: [[Option<Measured>; 2]; 3],
    /// Paper `[SMM0/1/2][ht=0, ht=1]`.
    pub paper: Option<[[f64; 2]; 3]>,
}

impl HttTableCell {
    /// Measured HTT delta (ht1 − ht0) for SMM class `k`.
    pub fn measured_delta(&self, k: usize) -> Option<f64> {
        Some(self.measured[k][1]?.mean - self.measured[k][0]?.mean)
    }

    /// Paper HTT delta for SMM class `k`.
    pub fn paper_delta(&self, k: usize) -> Option<f64> {
        self.paper.map(|p| p[k][1] - p[k][0])
    }
}

/// A full Table 4/5 reproduction.
#[derive(Clone, Debug, jsonio::ToJson)]
pub struct HttTableResult {
    /// EP for Table 4, FT for Table 5.
    pub bench: Bench,
    /// Cells, class-major.
    pub cells: Vec<HttTableCell>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nas::calibrate_extra;

    fn tiny_opts() -> RunOptions {
        RunOptions { reps: 2, seed: 7, ..RunOptions::default() }
    }

    #[test]
    fn ep_single_node_cell_reproduces_duty_cycle() {
        let spec = ClusterSpec::wyeast(1, 1, false).expect("valid shape");
        let net = NetworkParams::gigabit_cluster();
        let extra = calibrate_extra(Bench::Ep, Class::A, &spec, &net, 23.12).expect("calibrates");
        let base = measure_cell(
            Bench::Ep,
            Class::A,
            &spec,
            extra,
            SmiClass::None,
            &tiny_opts(),
            &net,
            "t",
        )
        .expect("measures");
        let long = measure_cell(
            Bench::Ep,
            Class::A,
            &spec,
            extra,
            SmiClass::Long,
            &tiny_opts(),
            &net,
            "t",
        )
        .expect("measures");
        assert!((base.mean - 23.12).abs() < 0.3, "baseline {}", base.mean);
        let pct = (long.mean - base.mean) / base.mean * 100.0;
        // Paper: +10.99% for this cell; duty cycle alone predicts ~10.5%.
        assert!((8.0..15.0).contains(&pct), "long-SMI impact {pct}%");
    }

    #[test]
    fn short_smis_are_negligible() {
        let spec = ClusterSpec::wyeast(2, 1, false).expect("valid shape");
        let net = NetworkParams::gigabit_cluster();
        let extra = calibrate_extra(Bench::Ep, Class::A, &spec, &net, 11.69).expect("calibrates");
        let base = measure_cell(
            Bench::Ep,
            Class::A,
            &spec,
            extra,
            SmiClass::None,
            &tiny_opts(),
            &net,
            "t",
        )
        .expect("measures");
        let short = measure_cell(
            Bench::Ep,
            Class::A,
            &spec,
            extra,
            SmiClass::Short,
            &tiny_opts(),
            &net,
            "t",
        )
        .expect("measures");
        let pct = ((short.mean - base.mean) / base.mean * 100.0).abs();
        assert!(pct < 2.0, "short-SMI impact should be in the noise: {pct}%");
    }

    #[test]
    fn measurement_is_reproducible_for_fixed_seed() {
        let spec = ClusterSpec::wyeast(1, 1, false).expect("valid shape");
        let net = NetworkParams::gigabit_cluster();
        let a =
            measure_cell(Bench::Ep, Class::A, &spec, 0.0, SmiClass::Long, &tiny_opts(), &net, "x")
                .expect("measures");
        let b =
            measure_cell(Bench::Ep, Class::A, &spec, 0.0, SmiClass::Long, &tiny_opts(), &net, "x")
                .expect("measures");
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.std, b.std);
    }

    #[test]
    fn different_cells_get_independent_noise() {
        let spec = ClusterSpec::wyeast(1, 1, false).expect("valid shape");
        let net = NetworkParams::gigabit_cluster();
        let a = measure_cell(
            Bench::Ep,
            Class::A,
            &spec,
            0.0,
            SmiClass::Long,
            &tiny_opts(),
            &net,
            "cell-a",
        )
        .expect("measures");
        let b = measure_cell(
            Bench::Ep,
            Class::A,
            &spec,
            0.0,
            SmiClass::Long,
            &tiny_opts(),
            &net,
            "cell-b",
        )
        .expect("measures");
        assert_ne!(a.mean, b.mean, "distinct labels must decorrelate phases");
    }

    #[test]
    fn adaptive_reps_replay_the_fixed_design_prefix() {
        let spec = ClusterSpec::wyeast(1, 1, false).expect("valid shape");
        let net = NetworkParams::gigabit_cluster();
        // An unreachable target: the sampler must spend the whole budget.
        let design = SampleDesign { min_reps: 2, max_reps: 5, target_rel_halfwidth: 1e-12 };
        let (m, run) = measure_cell_adaptive(
            Bench::Ep,
            Class::A,
            &spec,
            0.0,
            SmiClass::Long,
            &tiny_opts(),
            &net,
            "x",
            &design,
        )
        .expect("measures");
        assert_eq!(run.n(), 5, "impossible target exhausts max_reps");
        assert!(run.exhausted);
        assert_eq!(m.reps, 5);
        // The adaptive loop's first `reps` samples ARE the fixed
        // design's repetitions: same seeds, same numbers, bit for bit.
        let fixed =
            measure_cell(Bench::Ep, Class::A, &spec, 0.0, SmiClass::Long, &tiny_opts(), &net, "x")
                .expect("measures");
        let mut acc = Accumulator::new();
        for &x in &run.samples[..tiny_opts().reps as usize] {
            acc.push(x);
        }
        assert_eq!(acc.mean(), fixed.mean);
        assert_eq!(acc.stddev(), fixed.std);
    }

    #[test]
    fn adaptive_measurement_is_deterministic_and_stops_on_loose_targets() {
        let spec = ClusterSpec::wyeast(1, 1, false).expect("valid shape");
        let net = NetworkParams::gigabit_cluster();
        // A ±100 % target is met as soon as a variance estimate exists.
        let design = SampleDesign { min_reps: 2, max_reps: 9, target_rel_halfwidth: 1.0 };
        let measure = || {
            measure_cell_adaptive(
                Bench::Ep,
                Class::A,
                &spec,
                0.0,
                SmiClass::Long,
                &tiny_opts(),
                &net,
                "x",
                &design,
            )
            .expect("measures")
        };
        let (a, run_a) = measure();
        let (b, run_b) = measure();
        assert_eq!(run_a.n(), 2, "loose target stops at min_reps");
        assert!(run_a.stopped_early);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.std, b.std);
        assert_eq!(run_a.stats_json().to_string(), run_b.stats_json().to_string());
    }

    #[test]
    fn table_cell_percentages() {
        let cell = TableCell {
            class: Class::A,
            nodes: 1,
            ranks_per_node: 1,
            measured: [
                Some(Measured { mean: 100.0, std: 0.0, reps: 2 }),
                Some(Measured { mean: 101.0, std: 0.0, reps: 2 }),
                Some(Measured { mean: 111.0, std: 0.0, reps: 2 }),
            ],
            paper: [Some(100.0), Some(100.5), Some(110.0)],
        };
        assert!((cell.measured_pct(2).unwrap() - 11.0).abs() < 1e-9);
        assert!((cell.paper_pct(2).unwrap() - 10.0).abs() < 1e-9);
    }
}
