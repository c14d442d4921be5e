//! The NAS Parallel Benchmarks pseudorandom number generator.
//!
//! NPB uses the linear congruential generator
//! `x_{k+1} = a * x_k (mod 2^46)` with `a = 5^13` and returns
//! `x_k * 2^-46` in `(0, 1)`. The Fortran reference implements the
//! modular multiply with split double-precision arithmetic; 128-bit
//! integers give the identical sequence exactly.

/// The NPB multiplier, `5^13`.
pub const A: u64 = 1_220_703_125;
/// The default EP seed.
pub const EP_SEED: u64 = 271_828_183;
/// Modulus exponent: arithmetic is mod `2^46`.
pub const MOD_BITS: u32 = 46;

const MASK: u64 = (1 << MOD_BITS) - 1;
const R46: f64 = 1.0 / (1u64 << MOD_BITS) as f64;

/// The generator state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Randlc {
    x: u64,
}

impl Randlc {
    /// Start from a seed (taken mod 2^46).
    pub fn new(seed: u64) -> Self {
        Randlc { x: seed & MASK }
    }

    /// The canonical EP starting state.
    pub fn ep() -> Self {
        Randlc::new(EP_SEED)
    }

    /// Current raw state.
    pub fn state(&self) -> u64 {
        self.x
    }

    /// Advance once and return the uniform value in `(0, 1)`. Named
    /// after NPB's `randlc` convention; deliberately not an `Iterator`.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> f64 {
        self.x = ((self.x as u128 * A as u128) & MASK as u128) as u64;
        self.x as f64 * R46
    }

    /// Jump the state forward by `n` steps in `O(log n)` (used by the MPI
    /// EP to give each rank an independent chunk of the stream).
    pub fn skip(&mut self, n: u64) {
        let mut mult = A as u128;
        let mut n = n;
        let mut x = self.x as u128;
        while n > 0 {
            if n & 1 == 1 {
                x = (x * mult) & MASK as u128;
            }
            mult = (mult * mult) & MASK as u128;
            n >>= 1;
        }
        self.x = x as u64;
    }

    /// Fill `out` with consecutive uniform values (NPB's `vranlc`).
    pub fn fill(&mut self, out: &mut [f64]) {
        for v in out {
            *v = self.next();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_in_unit_interval() {
        let mut r = Randlc::ep();
        for _ in 0..10_000 {
            let v = r.next();
            assert!(v > 0.0 && v < 1.0);
        }
    }

    #[test]
    fn sequence_is_deterministic() {
        let mut a = Randlc::ep();
        let mut b = Randlc::ep();
        for _ in 0..1000 {
            assert_eq!(a.next().to_bits(), b.next().to_bits());
        }
    }

    #[test]
    fn skip_equals_stepping() {
        for n in [0u64, 1, 2, 7, 100, 12345] {
            let mut stepped = Randlc::ep();
            for _ in 0..n {
                stepped.next();
            }
            let mut jumped = Randlc::ep();
            jumped.skip(n);
            assert_eq!(stepped.state(), jumped.state(), "n={n}");
        }
    }

    #[test]
    fn skip_composes() {
        let mut a = Randlc::ep();
        a.skip(1000);
        a.skip(2345);
        let mut b = Randlc::ep();
        b.skip(3345);
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn mean_is_one_half() {
        let mut r = Randlc::ep();
        let n = 1_000_000;
        let mean: f64 = (0..n).map(|_| r.next()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.001, "mean {mean}");
    }

    #[test]
    fn fill_matches_next() {
        let mut a = Randlc::ep();
        let mut b = Randlc::ep();
        let mut buf = [0.0; 64];
        a.fill(&mut buf);
        for v in buf {
            assert_eq!(v.to_bits(), b.next().to_bits());
        }
    }

    #[test]
    fn period_does_not_degenerate() {
        // The LCG mod 2^46 with an odd multiplier never hits zero from an
        // odd seed, and 10k consecutive values should all be distinct.
        let mut r = Randlc::ep();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..10_000 {
            r.next();
            assert!(seen.insert(r.state()), "cycle at state {}", r.state());
            assert_ne!(r.state(), 0);
        }
    }
}
