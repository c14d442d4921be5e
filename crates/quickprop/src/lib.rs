//! # quickprop — a small seeded property-testing harness
//!
//! Replaces `proptest` for the laboratory's invariant suites with zero
//! external dependencies. The trade: no shrinking, in exchange for full
//! determinism and trivially reproducible failures.
//!
//! Every case draws its inputs from a generator seeded by
//! `(root seed, property name, case index)`, so a failure report names a
//! single 64-bit case seed that replays the exact inputs:
//!
//! ```text
//! quickprop: property 'makespan_is_bounded' failed at case 17 of 64
//! quickprop: replay with QUICKPROP_CASE_SEED=0x3fa9c1d2e4b80017
//! ```
//!
//! Environment knobs:
//!
//! * `QUICKPROP_SEED` — override the root seed (decimal or 0x-hex);
//! * `QUICKPROP_CASES` — scale every property's case count;
//! * `QUICKPROP_CASE_SEED` — run exactly one case with this seed
//!   (what a failure report tells you to set).
//!
//! ```
//! quickprop::check("addition_commutes", 64, |g| {
//!     let a = g.u64(0..1 << 40);
//!     let b = g.u64(0..1 << 40);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Default root seed (overridden by `QUICKPROP_SEED`). The date the paper
/// was presented, like the simulation defaults elsewhere in the lab.
pub const DEFAULT_SEED: u64 = 0x2016_0816;

/// Run `cases` randomized cases of a property. Panics (propagating the
/// property's own panic) after printing a replay line on failure.
pub fn check(name: &str, cases: u64, property: impl Fn(&mut Gen)) {
    if let Some(case_seed) = env_u64("QUICKPROP_CASE_SEED") {
        let mut g = Gen::from_seed(case_seed);
        property(&mut g);
        return;
    }
    let root = env_u64("QUICKPROP_SEED").unwrap_or(DEFAULT_SEED);
    let cases = env_u64("QUICKPROP_CASES").unwrap_or(cases).max(1);
    for case in 0..cases {
        let case_seed = derive_seed(root, name, case);
        let mut g = Gen::from_seed(case_seed);
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut g)));
        if let Err(panic) = outcome {
            eprintln!("quickprop: property '{name}' failed at case {case} of {cases}");
            eprintln!("quickprop: replay with QUICKPROP_CASE_SEED={case_seed:#018x}");
            resume_unwind(panic);
        }
    }
}

fn env_u64(var: &str) -> Option<u64> {
    #[expect(
        clippy::disallowed_methods,
        reason = "quickprop is test-harness infrastructure; QUICKPROP_SEED/QUICKPROP_CASES \
                  exist so a developer can replay a failing case, and experiment code \
                  never links this crate"
    )]
    let raw = std::env::var(var).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        #[expect(
            clippy::panic,
            reason = "aborting the test run loudly beats silently ignoring a typo in a replay seed"
        )]
        Err(_) => panic!("quickprop: cannot parse {var}={raw:?} as u64"),
    }
}

/// Derive a case seed from the root seed, property name, and case index.
fn derive_seed(root: u64, name: &str, case: u64) -> u64 {
    let mut h = root ^ 0x9E37_79B9_7F4A_7C15;
    for &b in name.as_bytes() {
        h = splitmix64(h ^ b as u64);
    }
    splitmix64(h ^ case)
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-case input generator (xoshiro256++ seeded via SplitMix64 —
/// the same construction as `sim_core::SimRng`, duplicated here so the
/// harness has no dependencies and can be used below `sim-core`).
pub struct Gen {
    s: [u64; 4],
}

impl Gen {
    /// A generator seeded deterministically from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut z = seed;
        let mut next = || {
            let v = splitmix64(z);
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            v
        };
        let s = [next(), next(), next(), next()];
        Gen { s: if s == [0; 4] { [1, 2, 3, 4] } else { s } }
    }

    /// Next raw 64-bit value.
    pub fn any_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Unbiased uniform value in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        loop {
            let x = self.any_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n || lo >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform draw from a half-open `u64` range.
    pub fn u64(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range {range:?}");
        range.start + self.below(range.end - range.start)
    }

    /// Uniform draw from a half-open `u32` range.
    pub fn u32(&mut self, range: Range<u32>) -> u32 {
        self.u64(range.start as u64..range.end as u64) as u32
    }

    /// Uniform draw from a half-open `usize` range.
    pub fn usize(&mut self, range: Range<usize>) -> usize {
        self.u64(range.start as u64..range.end as u64) as usize
    }

    /// A coin flip.
    pub fn bool(&mut self) -> bool {
        self.any_u64() & 1 == 1
    }

    /// Pick one of the given values (proptest's `prop_oneof` over `Just`s).
    pub fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        assert!(!options.is_empty(), "pick from empty slice");
        options[self.below(options.len() as u64) as usize].clone()
    }

    /// A vector with a length drawn from `len` and elements built by `f`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.usize(len);
        (0..n).map(|_| f(self)).collect()
    }

    /// A vector of uniform `u64`s (the most common stream shape here).
    pub fn vec_u64(&mut self, len: Range<usize>, each: Range<u64>) -> Vec<u64> {
        self.vec(len, |g| g.u64(each.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Gen::from_seed(42);
        let mut b = Gen::from_seed(42);
        for _ in 0..64 {
            assert_eq!(a.any_u64(), b.any_u64());
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut g = Gen::from_seed(7);
        for _ in 0..10_000 {
            let v = g.u64(10..20);
            assert!((10..20).contains(&v));
        }
        let v = g.vec_u64(3..9, 0..5);
        assert!((3..9).contains(&v.len()));
        assert!(v.iter().all(|&x| x < 5));
    }

    #[test]
    fn derive_seed_separates_properties_and_cases() {
        assert_ne!(derive_seed(1, "a", 0), derive_seed(1, "b", 0));
        assert_ne!(derive_seed(1, "a", 0), derive_seed(1, "a", 1));
        assert_ne!(derive_seed(1, "a", 0), derive_seed(2, "a", 0));
    }

    #[test]
    fn check_runs_all_cases() {
        let counter = std::cell::Cell::new(0u64);
        check("counting", 17, |_| counter.set(counter.get() + 1));
        // QUICKPROP_CASES may scale this in CI; at least one case ran.
        assert!(counter.get() >= 1);
    }

    #[test]
    fn failures_propagate() {
        let result = catch_unwind(|| {
            check("always_fails", 3, |_| panic!("boom"));
        });
        assert!(result.is_err());
    }
}
