//! # bench — the engine benchmark suite behind `smi-lab bench`
//!
//! One harness: [`measure`] times a routine for a fixed number of
//! samples after one untimed warmup, and [`suite`] packages the engine
//! hot-path cases that `smi-lab bench` runs, writes to
//! `results/BENCH_engine.json` and gates with `--gate`. No `cargo bench`
//! target exists; the paper's claims are tests, not timings.
//!
//! Every sample is kept and summarized as min/median/p95/max plus a
//! distribution-free confidence interval on the median ([`Summary`]):
//! robust statistics with their dispersion, following the measurement
//! methodology literature (see DESIGN.md §10). The interval needs no
//! random resampling, so it is a pure function of the samples.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod suite;

use std::time::{Duration, Instant};

/// A monotonic clock: time elapsed since an arbitrary fixed origin.
/// [`measure`] reads the real one; [`measure_with`] takes any, so tests
/// can drive the harness with scripted readings.
pub(crate) type Clock<'a> = &'a mut dyn FnMut() -> Duration;

/// Per-benchmark sample statistics: every sample is kept (sorted
/// ascending, in nanoseconds) so dispersion survives into reports.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Benchmark name.
    pub name: String,
    /// All measured samples in nanoseconds, sorted ascending.
    pub samples_ns: Vec<u64>,
}

impl Summary {
    /// Nearest-rank quantile over the sorted samples, `q` clamped into
    /// `[0, 1]`. An empty summary returns `0`; interior quantiles on
    /// samples too few to resolve them degrade to the maximum sample (a
    /// one-sample "p95" is that sample).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.samples_ns.is_empty() {
            return 0;
        }
        let n = self.samples_ns.len();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        self.samples_ns[rank - 1]
    }

    /// Fastest sample.
    pub fn min_ns(&self) -> u64 {
        self.samples_ns.first().copied().unwrap_or(0)
    }

    /// Median (nearest-rank p50).
    pub fn median_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 95th percentile (nearest-rank): the maximum below 20 samples.
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// Slowest sample.
    pub fn max_ns(&self) -> u64 {
        self.samples_ns.last().copied().unwrap_or(0)
    }

    /// The order-statistic confidence interval on the median,
    /// `[x(r), x(s)]` at the ranks of [`median_ci_ranks`]. It always
    /// contains [`Summary::median_ns`]; an empty summary gives `(0, 0)`.
    pub fn median_ci_ns(&self) -> (u64, u64) {
        let (r, s) = median_ci_ranks(self.samples_ns.len());
        let at = |rank: usize| self.samples_ns.get(rank.wrapping_sub(1)).copied().unwrap_or(0);
        (at(r), at(s))
    }
}

/// 1-based ranks `(r, s)` of the distribution-free confidence interval
/// on the median of `n` sorted samples: `r = max(1, ⌊n/2 − 0.98√n⌋)` and
/// `s = min(n, ⌈1 + n/2 + 0.98√n⌉)`. The true median lies in
/// `[x(r), x(s)]` with probability `P(r ≤ B < s)` for `B ~ Bin(n, ½)`,
/// whatever the distribution: at least 95 % for every `n ≥ 6` (98.3 %
/// at 40, ranks 13..28). Below 6 samples the interval is `[min, max]`.
pub fn median_ci_ranks(n: usize) -> (usize, usize) {
    let half = n as f64 / 2.0;
    let spread = 0.98 * (n as f64).sqrt();
    let r = ((half - spread).floor().max(1.0) as usize).min(n);
    let s = ((1.0 + half + spread).ceil() as usize).min(n);
    (r, s)
}

/// Measure `routine` for exactly `samples` timed invocations (at least
/// one), after one untimed warmup pass, and return every sample. The
/// routine's result goes through `black_box`, so its work cannot be
/// elided.
pub fn measure(name: &str, samples: usize, routine: impl FnMut() -> u64) -> Summary {
    #[expect(clippy::disallowed_methods, reason = "bench exists to time the host")]
    let origin = Instant::now();
    measure_with(&mut || origin.elapsed(), name, samples, routine)
}

/// [`measure`] reading time from `clock`.
pub(crate) fn measure_with(
    clock: Clock<'_>,
    name: &str,
    samples: usize,
    mut routine: impl FnMut() -> u64,
) -> Summary {
    std::hint::black_box(routine());
    let mut samples_ns: Vec<u64> = (0..samples.max(1))
        .map(|_| {
            let start = clock();
            std::hint::black_box(routine());
            clock().saturating_sub(start).as_nanos() as u64
        })
        .collect();
    samples_ns.sort_unstable();
    Summary { name: name.to_string(), samples_ns }
}

/// Format a nanosecond count with a readable unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock whose consecutive samples have the given lengths: each
    /// timed pass reads the clock twice, at `t` and `t + len`.
    fn scripted(lengths: &[u64]) -> impl FnMut() -> Duration + '_ {
        let mut reads = 0usize;
        let mut now = 0u64;
        move || {
            // Even reads start a sample, odd reads end it.
            if reads % 2 == 1 {
                now += lengths.get(reads / 2).copied().unwrap_or(0);
            }
            reads += 1;
            Duration::from_nanos(now)
        }
    }

    #[test]
    fn measure_keeps_every_sample_after_one_warmup() {
        let mut calls = 0u32;
        let s = measure("count", 5, || {
            calls += 1;
            7
        });
        assert_eq!(s.samples_ns.len(), 5, "one recorded sample per timed pass");
        assert_eq!(calls, 6, "one untimed warmup pass, then one per sample");
        assert!(s.samples_ns.windows(2).all(|w| w[0] <= w[1]), "sorted ascending");
        let empty = Summary { name: "e".into(), samples_ns: vec![] };
        assert_eq!((empty.median_ns(), empty.median_ci_ns()), (0, (0, 0)));
    }

    #[test]
    fn order_statistics_of_scripted_samples() {
        // The warmup pass is not timed, so the clock sees only the 20
        // scripted samples: 120 down to 101 ns.
        let lengths: Vec<u64> = (1..=20u64).rev().map(|i| 100 + i).collect();
        let s = measure_with(&mut scripted(&lengths), "ramp", 20, || 7);
        assert_eq!(s.samples_ns, (101..=120).collect::<Vec<u64>>(), "sorted");
        assert_eq!((s.min_ns(), s.median_ns(), s.p95_ns(), s.max_ns()), (101, 110, 119, 120));
        // n = 20: ranks 5..16.
        assert_eq!(median_ci_ranks(20), (5, 16));
        assert_eq!(s.median_ci_ns(), (105, 116));

        // One slow outlier moves the tail, never the median's interval.
        let mut lengths = vec![500; 39];
        lengths.push(4_000_000);
        let s = measure_with(&mut scripted(&lengths), "outlier", 40, || 0);
        assert_eq!((s.median_ns(), s.p95_ns(), s.max_ns()), (500, 500, 4_000_000));
        assert_eq!(s.median_ci_ns(), (500, 500));

        // n = 40: ranks 13..28 of 1..=40 ns.
        assert_eq!(median_ci_ranks(40), (13, 28));
        let lengths: Vec<u64> = (1..=40).collect();
        let s = measure_with(&mut scripted(&lengths), "ramp40", 40, || 0);
        assert_eq!(s.median_ci_ns(), (13, 28));
        assert_eq!(s.median_ns(), 20);

        // Smoke-run sample counts span every sample.
        assert_eq!(median_ci_ranks(1), (1, 1));
        assert_eq!(median_ci_ranks(2), (1, 2));
        assert_eq!(median_ci_ranks(5), (1, 5));
    }

    #[test]
    fn median_interval_covers_at_least_95_percent_from_six_samples() {
        for n in 1..=200usize {
            let (r, s) = median_ci_ranks(n);
            let median_rank = n.div_ceil(2);
            assert!(1 <= r && r <= median_rank && median_rank <= s && s <= n, "n={n}: {r}..{s}");
            if n < 6 {
                continue;
            }
            // Exact coverage P(r <= B < s), B ~ Bin(n, 1/2); the pmf is
            // built by the ratio recurrence from 2^-n (no overflow).
            let mut pmf = 0.5f64.powi(n as i32);
            let mut coverage = 0.0;
            for k in 0..n {
                if (r..s).contains(&k) {
                    coverage += pmf;
                }
                pmf *= (n - k) as f64 / (k + 1) as f64;
            }
            assert!(coverage >= 0.95, "n={n}: ranks {r}..{s} cover {coverage}");
            if n == 40 {
                assert!((coverage - 0.983).abs() < 5e-4, "n=40 covers {coverage}");
            }
        }
    }
}
