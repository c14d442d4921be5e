//! Operation counts and MOPs reporting.
//!
//! §III.C: "For each, we recorded the resulting time, work completed,
//! and MOPs (integer or floating point operations as relevant to the
//! particular benchmark)." This module supplies the operation counts so
//! any measured time converts to a MOPs figure.
//!
//! Counts are standard algorithmic counts (EP: generated deviates and
//! the polar-method arithmetic; BT: the block-tridiagonal line solves
//! plus the right-hand side; FT: 5·N·log₂N per 3-D transform), so they
//! are self-consistent with the simulated work rather than copied from
//! NPB's reporting tables.

use crate::classes::Class;
use crate::paper::Bench;

/// Floating-point operations per block row of BT's block Thomas solve
/// (two 5×5 multiplies, one inverse, and vector updates).
const FLOPS_PER_BLOCK_ROW: u64 = 2 * 250 + 290 + 105;

/// Total operations for a full run of `(bench, class)`.
pub fn total_ops(bench: Bench, class: Class) -> f64 {
    match bench {
        Bench::Ep => {
            // Per pair: 2 LCG steps (~4 ops each), the radius test (~4),
            // and for accepted pairs (π/4 of them) log/sqrt/scale (~12).
            let pairs = (1u64 << class.ep_log_pairs()) as f64;
            pairs * (8.0 + 4.0 + std::f64::consts::FRAC_PI_4 * 12.0)
        }
        Bench::Bt => {
            // Three sweeps per iteration; each grid cell is one block row
            // of a line solve per sweep, plus ~1100 ops of RHS/stencil.
            let (n, iters) = class.bt_grid();
            let cells = (n as f64).powi(3);
            cells * iters as f64 * (3.0 * FLOPS_PER_BLOCK_ROW as f64 + 1100.0)
        }
        Bench::Ft => {
            // One forward 3-D FFT, then per iteration an evolve (6 ops per
            // point) and an inverse 3-D FFT; each 3-D FFT is 5·N·log2(N).
            let ((nx, ny, nz), iters) = class.ft_grid();
            let n = class.ft_points() as f64;
            let logn = ((nx as f64).log2() + (ny as f64).log2() + (nz as f64).log2()).round();
            let fft = 5.0 * n * logn;
            fft + iters as f64 * (fft + 6.0 * n)
        }
    }
}

/// Millions of operations per second for a run that took `seconds`.
pub fn mops(bench: Bench, class: Class, seconds: f64) -> f64 {
    assert!(seconds > 0.0, "non-positive runtime");
    total_ops(bench, class) / seconds / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::serial_seconds;

    #[test]
    fn serial_mops_are_era_plausible() {
        // A 2.27 GHz Nehalem core sustains some hundreds of Mop/s on
        // real codes; all three kernels should land in 50..4000.
        for bench in [Bench::Ep, Bench::Bt, Bench::Ft] {
            for class in Class::PAPER {
                let m = mops(bench, class, serial_seconds(bench, class));
                assert!(
                    (50.0..4000.0).contains(&m),
                    "{bench:?} class {}: {m} Mop/s",
                    class.letter()
                );
            }
        }
    }

    #[test]
    fn mops_scale_inversely_with_time() {
        let m1 = mops(Bench::Ep, Class::A, 10.0);
        let m2 = mops(Bench::Ep, Class::A, 20.0);
        assert!((m1 / m2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ep_rate_is_class_invariant() {
        // Same inner loop => Mop/s should match across classes at the
        // paper's measured serial times (within a few percent).
        let ma = mops(Bench::Ep, Class::A, serial_seconds(Bench::Ep, Class::A));
        let mc = mops(Bench::Ep, Class::C, serial_seconds(Bench::Ep, Class::C));
        assert!((ma / mc - 1.0).abs() < 0.02, "{ma} vs {mc}");
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn zero_time_rejected() {
        let _ = mops(Bench::Bt, Class::A, 0.0);
    }
}
