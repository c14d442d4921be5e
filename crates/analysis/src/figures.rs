//! Result types and point models for Figure 1 (Convolve) and Figure 2
//! (UnixBench). The cells themselves are built in [`crate::cells`].

use crate::opts::RunOptions;
use apps::{run_convolve, run_suite, ConvolveConfig, ConvolveRun};
use machine::SmiSideEffects;
use sim_core::stats::Accumulator;
use sim_core::{FreezeSchedule, SimRng};
use smi_driver::{SmiClass, SmiDriver, SmiDriverConfig};

/// One point of a Figure-1 series.
#[derive(Clone, Copy, Debug, jsonio::ToJson)]
pub struct FigPoint {
    /// X value (SMI interval in ms, or logical CPU count).
    pub x: f64,
    /// Mean of the reps.
    pub mean: f64,
    /// Sample standard deviation of the reps.
    pub std: f64,
}

/// One line of a figure panel.
#[derive(Clone, Debug, jsonio::ToJson)]
pub struct FigSeries {
    /// Legend label.
    pub label: String,
    /// Points in x order.
    pub points: Vec<FigPoint>,
}

/// The four panels of Figure 1.
#[derive(Clone, Debug, jsonio::ToJson)]
pub struct Figure1Result {
    /// Left panels: execution time vs SMI interval, one series per CPU
    /// configuration; `[CacheUnfriendly, CacheFriendly]`.
    pub interval_panels: [Vec<FigSeries>; 2],
    /// Right panels: execution time vs logical CPU count at a fixed
    /// 50 ms interval; `[CacheUnfriendly, CacheFriendly]`.
    pub cpu_panels: [FigSeries; 2],
}

/// The CPU configurations plotted in the left panels.
pub const FIG1_CPUS: [u32; 5] = [1, 2, 4, 6, 8];
/// The paper's SMI interval sweep: 50–1500 ms in 50 ms steps.
pub fn fig1_intervals() -> Vec<u64> {
    (1..=30).map(|k| k * 50).collect()
}

pub(crate) fn convolve_point(
    config: ConvolveConfig,
    cpus: u32,
    interval_ms: Option<u64>,
    opts: &RunOptions,
) -> FigPoint {
    let mut acc = Accumulator::new();
    for rep in 0..opts.reps {
        let label = format!("fig1-{}-c{}-i{:?}-rep{}", config.label(), cpus, interval_ms, rep);
        let mut rng = SimRng::from_path(opts.seed, &["figure1", &label]);
        let (schedule, effects) = match interval_ms {
            None => (FreezeSchedule::none(), SmiSideEffects::none()),
            Some(ms) => {
                let driver = SmiDriver::new(SmiDriverConfig::interval_ms(SmiClass::Long, ms));
                let schedule = driver.schedule_for_node(&mut rng);
                let effects = driver.side_effects_jittered(cpus > 4, &mut rng);
                (schedule, effects)
            }
        };
        let run = ConvolveRun { config, online_cpus: cpus, schedule, effects, threads: 24 };
        acc.push(run_convolve(&run, &mut rng).wall_seconds);
    }
    FigPoint {
        x: interval_ms.map(|m| m as f64).unwrap_or(f64::INFINITY),
        mean: acc.mean(),
        std: acc.stddev(),
    }
}

/// Figure 2 result: UnixBench total index vs SMI interval, one series per
/// CPU configuration, plus the short-SMI control showing no effect.
#[derive(Clone, Debug, jsonio::ToJson)]
pub struct Figure2Result {
    /// Long-SMI series (the published figure).
    pub long_series: Vec<FigSeries>,
    /// Short-SMI control series (the paper reports "no change").
    pub short_series: Vec<FigSeries>,
    /// Quiet-baseline index per CPU configuration.
    pub baselines: Vec<(u32, f64)>,
}

/// The CPU configurations of Figure 2.
pub const FIG2_CPUS: [u32; 4] = [1, 2, 4, 8];
/// The paper's Figure-2 interval sweep: "SMI intervals from 100ms to
/// 1600ms at 500 ms increments".
pub const FIG2_INTERVALS: [u64; 4] = [100, 600, 1100, 1600];

pub(crate) fn ubench_index(cpus: u32, smm: SmiClass, interval_ms: u64, opts: &RunOptions) -> f64 {
    let mut rng =
        SimRng::from_path(opts.seed, &["figure2", &format!("{cpus}-{interval_ms}-{smm:?}")]);
    let (schedule, effects) = match smm {
        SmiClass::None => (FreezeSchedule::none(), SmiSideEffects::none()),
        other => {
            let driver = SmiDriver::new(SmiDriverConfig::interval_ms(other, interval_ms));
            (driver.schedule_for_node(&mut rng), driver.side_effects(cpus > 4))
        }
    };
    run_suite(cpus, &schedule, &effects).total_index
}

/// The paper's "slope of SMI's impact": for one Figure-1 series, fit
/// execution time against the long-run duty cycle `d/(d+p)` implied by
/// each interval `p` (rearm-after-exit driver). A clean freeze-only
/// response has slope ≈ baseline x 1/(1-duty) linearized; the fitted
/// slope and `r²` quantify how far side effects bend the line.
pub fn impact_slope(series: &FigSeries, residency_ms: f64) -> (f64, f64, f64) {
    assert!(series.points.len() >= 2, "need at least two points to fit");
    let xs: Vec<f64> = series
        .points
        .iter()
        .map(|p| residency_ms / (residency_ms + p.x)) // duty cycle
        .collect();
    let ys: Vec<f64> = series.points.iter().map(|p| p.mean).collect();
    sim_core::stats::linear_fit(&xs, &ys)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunOptions {
        RunOptions { reps: 2, seed: 3, ..RunOptions::default() }
    }

    #[test]
    fn convolve_point_has_variance_under_noise() {
        let p = convolve_point(ConvolveConfig::CacheFriendly, 4, Some(50), &tiny());
        assert!(p.mean > 0.0);
        assert!(p.std > 0.0, "random phases must produce run-to-run variance");
    }

    #[test]
    fn fig1_interval_sweep_shape() {
        // Spot-check the knee: 50 ms is dramatically worse than 1500 ms.
        let slow = convolve_point(ConvolveConfig::CacheUnfriendly, 4, Some(50), &tiny());
        let mild = convolve_point(ConvolveConfig::CacheUnfriendly, 4, Some(1500), &tiny());
        assert!(slow.mean > 2.0 * mild.mean, "50ms {} vs 1500ms {}", slow.mean, mild.mean);
    }

    #[test]
    fn fig1_intervals_match_paper_sweep() {
        let iv = fig1_intervals();
        assert_eq!(iv.len(), 30);
        assert_eq!(iv[0], 50);
        assert_eq!(*iv.last().unwrap(), 1500);
    }

    #[test]
    fn fig2_index_degrades_with_frequency() {
        let opts = tiny();
        let fast = ubench_index(4, SmiClass::Long, 100, &opts);
        let slow = ubench_index(4, SmiClass::Long, 1600, &opts);
        assert!(fast < slow, "100ms index {fast} should be below 1600ms index {slow}");
    }

    #[test]
    fn fig2_short_smis_do_not_move_the_index() {
        let opts = tiny();
        let base = ubench_index(4, SmiClass::None, 1000, &opts);
        for ms in FIG2_INTERVALS {
            let idx = ubench_index(4, SmiClass::Short, ms, &opts);
            assert!(
                (idx - base).abs() / base < 0.04,
                "short SMIs at {ms}ms moved the index: {idx} vs {base}"
            );
        }
    }

    #[test]
    fn impact_slope_is_positive_and_tight_for_pure_duty() {
        // Build a synthetic series that follows time = base / (1 - duty)
        // ~ base (1 + duty) for small duty: slope ~ base, r2 high.
        let base = 20.0;
        let residency = 105.0;
        let series = FigSeries {
            label: "synthetic".into(),
            points: (4..=30)
                .map(|k| {
                    let p = 50.0 * k as f64;
                    let duty = residency / (residency + p);
                    FigPoint { x: p, mean: base / (1.0 - duty), std: 0.0 }
                })
                .collect(),
        };
        let (slope, intercept, r2) = impact_slope(&series, residency);
        assert!(slope > 0.0, "slope {slope}");
        assert!((intercept - base).abs() < 2.0, "intercept {intercept}");
        assert!(r2 > 0.98, "r2 {r2}");
    }

    #[test]
    fn fig2_htt_gains_show() {
        let opts = tiny();
        let four = ubench_index(4, SmiClass::None, 1000, &opts);
        let eight = ubench_index(8, SmiClass::None, 1000, &opts);
        assert!(eight > four, "HTT should raise the index: {eight} vs {four}");
    }
}
