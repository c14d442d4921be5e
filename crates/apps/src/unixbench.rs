//! The UnixBench subset (§IV.C): test definitions and the index-score
//! arithmetic.
//!
//! UnixBench rates each test against a fixed baseline machine (George,
//! the SPARCstation 20-61 whose scores define index 10) and combines
//! per-test scores with a geometric mean. The paper runs five tests —
//! Dhrystone, Whetstone, pipe throughput, pipe-based context switching
//! and syscall overhead — in the default two-pass configuration (one
//! copy, then one copy per core).
//!
//! The timed runs in [`crate::ubench_model`] use the simulated machine
//! so SMIs can be injected deterministically.

use sim_core::stats::geometric_mean;

/// The five benchmark tests the paper selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, jsonio::ToJson)]
pub enum UbTest {
    /// String manipulation (Dhrystone 2).
    Dhrystone,
    /// Floating-point transcendental loop (Whetstone).
    Whetstone,
    /// Single-process pipe read/write throughput.
    PipeThroughput,
    /// Two processes passing a token through pipes.
    PipeContextSwitch,
    /// Minimal system-call entry/exit cost.
    SyscallOverhead,
}

impl UbTest {
    /// All five tests, in UnixBench report order.
    pub const ALL: [UbTest; 5] = [
        UbTest::Dhrystone,
        UbTest::Whetstone,
        UbTest::PipeThroughput,
        UbTest::PipeContextSwitch,
        UbTest::SyscallOverhead,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            UbTest::Dhrystone => "Dhrystone 2 using register variables",
            UbTest::Whetstone => "Double-Precision Whetstone",
            UbTest::PipeThroughput => "Pipe Throughput",
            UbTest::PipeContextSwitch => "Pipe-based Context Switching",
            UbTest::SyscallOverhead => "System Call Overhead",
        }
    }

    /// The George baseline in the test's native unit (lps, or MWIPS for
    /// Whetstone) — the denominators UnixBench ships with.
    pub fn baseline(&self) -> f64 {
        match self {
            UbTest::Dhrystone => 116_700.0,
            UbTest::Whetstone => 55.0,
            UbTest::PipeThroughput => 12_440.0,
            UbTest::PipeContextSwitch => 4_000.0,
            UbTest::SyscallOverhead => 15_000.0,
        }
    }

    /// UnixBench's score: `result / baseline * 10`.
    pub fn score(&self, result: f64) -> f64 {
        assert!(result >= 0.0, "negative benchmark result");
        result / self.baseline() * 10.0
    }
}

/// Combine per-test scores into a UnixBench index (geometric mean).
pub fn index(scores: &[f64]) -> f64 {
    geometric_mean(scores)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_scale_linearly_with_results() {
        let t = UbTest::Dhrystone;
        assert!((t.score(116_700.0) - 10.0).abs() < 1e-9);
        assert!((t.score(1_167_000.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn baselines_are_the_george_values() {
        assert_eq!(UbTest::PipeContextSwitch.baseline(), 4000.0);
        assert_eq!(UbTest::Whetstone.baseline(), 55.0);
    }

    #[test]
    fn index_is_geometric_mean() {
        let idx = index(&[100.0, 400.0]);
        assert!((idx - 200.0).abs() < 1e-9);
    }

    #[test]
    fn all_tests_have_distinct_names() {
        let names: std::collections::BTreeSet<_> = UbTest::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), 5);
    }
}
