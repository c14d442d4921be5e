//! # bench — hermetic harnesses for every table and figure
//!
//! Each table/figure of the paper has a bench target that exercises its
//! full regeneration path at reduced replication (see `benches/`), plus
//! ablation benches for the design choices DESIGN.md calls out
//! (synchronized vs unsynchronized SMI phases, side effects on/off, SMT
//! contention) and microbenchmarks of the freeze algebra and detector.
//!
//! The bench targets are written against a small criterion-compatible
//! API ([`Criterion`], [`Bencher`], [`criterion_group!`],
//! [`criterion_main!`]) implemented here on plain `std::time::Instant` —
//! no external crates. Every target takes a quick pass: one untimed
//! warmup, then exactly the sample count it requests. Measurement runs
//! with fixed sample counts go through [`suite`] (`smi-lab bench`).
//!
//! Every sample is kept and summarized as min/median/p95 ([`Summary`]) —
//! dispersion, not just a point estimate, following the measurement
//! methodology literature (see DESIGN.md §10). The [`suite`] module
//! packages the engine hot-path microbenchmarks behind a programmatic
//! API so `smi-lab bench` can run them with fixed sample counts and
//! write `BENCH_engine.json`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod suite;

use analysis::RunOptions;
use std::time::{Duration, Instant};

/// Bench-sized options: single rep, fixed seed.
pub fn bench_opts() -> RunOptions {
    RunOptions { reps: 1, seed: 424242, ..RunOptions::default() }
}

/// Units for throughput reporting, as in criterion.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// A monotonic clock: time elapsed since an arbitrary fixed origin.
/// [`measure`] reads the real one; [`measure_with`] takes any, so tests
/// can drive the harness with scripted readings.
pub(crate) type Clock<'a> = &'a mut dyn FnMut() -> Duration;

/// Times one invocation of the routine body. The routine closure passed
/// to [`Criterion::bench_function`] receives `&mut Bencher` and calls
/// [`Bencher::iter`] exactly as with criterion.
pub struct Bencher<'a> {
    clock: Clock<'a>,
    elapsed: Duration,
}

impl Bencher<'_> {
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        let start = (self.clock)();
        let out = f();
        self.elapsed = (self.clock)().saturating_sub(start);
        std::hint::black_box(&out);
    }
}

/// Typed reasons a [`Summary`] statistic cannot be honestly computed.
/// The infallible accessors ([`Summary::quantile_ns`] etc.) paper over
/// these with documented clamps; [`Summary::try_quantile_ns`] surfaces
/// them so callers that *report* a statistic can refuse to fabricate
/// one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SummaryError {
    /// No samples were recorded at all.
    Empty,
    /// The requested quantile is outside `[0, 1]`.
    QuantileOutOfRange(f64),
    /// Too few samples to resolve the interior quantile `q`: the
    /// nearest-rank estimate degenerates to the maximum sample (a
    /// one-sample "median", a ten-sample "p95"). `needed` is the
    /// smallest sample count at which the rank separates from the
    /// extreme.
    Underresolved {
        /// The quantile asked for.
        q: f64,
        /// Samples available.
        n: usize,
        /// Samples the quantile would need to be distinguishable from
        /// the maximum.
        needed: usize,
    },
}

impl std::fmt::Display for SummaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SummaryError::Empty => write!(f, "no samples recorded"),
            SummaryError::QuantileOutOfRange(q) => write!(f, "quantile {q} outside [0, 1]"),
            SummaryError::Underresolved { q, n, needed } => write!(
                f,
                "quantile {q} unresolved at {n} sample(s): nearest-rank needs {needed} \
                 to separate from the maximum"
            ),
        }
    }
}

impl std::error::Error for SummaryError {}

/// Per-benchmark sample statistics: every sample is kept (sorted
/// ascending, in nanoseconds) so dispersion survives into reports.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Benchmark name (group-prefixed where applicable).
    pub name: String,
    /// All measured samples in nanoseconds, sorted ascending.
    pub samples_ns: Vec<u64>,
}

impl Summary {
    /// Nearest-rank quantile over the sorted samples; `q` in `[0, 1]`.
    ///
    /// Infallible with documented clamps: an empty summary returns `0`,
    /// `q` is clamped into `[0, 1]`, and interior quantiles on samples
    /// too small to resolve them degrade to the maximum sample (a
    /// one-sample "p95" is that sample). Use [`try_quantile_ns`] when
    /// fabricating a degenerate estimate would be misleading.
    ///
    /// [`try_quantile_ns`]: Summary::try_quantile_ns
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.samples_ns.is_empty() {
            return 0;
        }
        let n = self.samples_ns.len();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        self.samples_ns[rank - 1]
    }

    /// Strict nearest-rank quantile: errors instead of clamping. An
    /// interior quantile (`0 < q < 1`) whose nearest rank lands on the
    /// last sample is [`SummaryError::Underresolved`] — e.g. a median
    /// needs 2 samples, a p95 needs 20 before it means anything beyond
    /// "the maximum".
    pub fn try_quantile_ns(&self, q: f64) -> Result<u64, SummaryError> {
        if !(0.0..=1.0).contains(&q) {
            return Err(SummaryError::QuantileOutOfRange(q));
        }
        let n = self.samples_ns.len();
        if n == 0 {
            return Err(SummaryError::Empty);
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        if q > 0.0 && q < 1.0 && rank == n {
            // Smallest n with ceil(q*n) <= n-1, i.e. n >= 1/(1-q).
            let needed = (1.0 / (1.0 - q)).ceil() as usize;
            return Err(SummaryError::Underresolved { q, n, needed });
        }
        Ok(self.samples_ns[rank - 1])
    }

    /// Fastest sample.
    pub fn min_ns(&self) -> u64 {
        self.samples_ns.first().copied().unwrap_or(0)
    }

    /// Median (nearest-rank p50). Clamped like [`Summary::quantile_ns`]:
    /// a one-sample summary reports that sample.
    pub fn median_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 95th percentile (nearest-rank). Clamped like
    /// [`Summary::quantile_ns`]: below 20 samples this is the maximum
    /// sample — smoke runs report honest-but-degenerate tails.
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// Slowest sample.
    pub fn max_ns(&self) -> u64 {
        self.samples_ns.last().copied().unwrap_or(0)
    }

    /// Arithmetic mean.
    pub fn mean_ns(&self) -> u64 {
        if self.samples_ns.is_empty() {
            return 0;
        }
        let total: u128 = self.samples_ns.iter().map(|&n| n as u128).sum();
        (total / self.samples_ns.len() as u128) as u64
    }
}

/// Measure `routine` for exactly `samples` timed invocations (plus one
/// untimed warmup pass) and return every sample. This is
/// the primitive both [`Criterion::bench_function`] and the
/// [`suite`] runner sit on.
pub fn measure(name: &str, samples: usize, routine: impl FnMut(&mut Bencher)) -> Summary {
    #[expect(clippy::disallowed_methods, reason = "bench exists to time the host")]
    let origin = Instant::now();
    measure_with(&mut || origin.elapsed(), name, samples, routine)
}

/// [`measure`] reading time from `clock`.
pub(crate) fn measure_with(
    clock: Clock<'_>,
    name: &str,
    samples: usize,
    mut routine: impl FnMut(&mut Bencher),
) -> Summary {
    let samples = samples.max(1);
    routine(&mut Bencher { clock: &mut *clock, elapsed: Duration::ZERO });
    let mut samples_ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher { clock: &mut *clock, elapsed: Duration::ZERO };
        routine(&mut b);
        samples_ns.push(b.elapsed.as_nanos() as u64);
    }
    samples_ns.sort_unstable();
    Summary { name: name.to_string(), samples_ns }
}

/// Top-level harness handle, mirroring `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Samples per benchmark (at least 2).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn bench_function(
        &mut self,
        name: impl AsRef<str>,
        routine: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_bench(name.as_ref(), self.sample_size, None, routine);
        self
    }

    pub fn benchmark_group(&mut self, name: impl AsRef<str>) -> BenchmarkGroup {
        BenchmarkGroup {
            prefix: name.as_ref().to_string(),
            sample_size: self.sample_size,
            throughput: None,
        }
    }
}

/// A named group of related benchmarks sharing sampling settings.
pub struct BenchmarkGroup {
    prefix: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function(
        &mut self,
        id: impl AsRef<str>,
        routine: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let name = format!("{}/{}", self.prefix, id.as_ref());
        run_bench(&name, self.sample_size, self.throughput, routine);
        self
    }

    pub fn finish(self) {}
}

fn run_bench(
    name: &str,
    samples: usize,
    throughput: Option<Throughput>,
    routine: impl FnMut(&mut Bencher),
) -> Summary {
    let summary = measure(name, samples, routine);
    let rate = throughput.map(|t| {
        let secs = (summary.mean_ns() as f64 / 1e9).max(1e-12);
        match t {
            Throughput::Elements(n) => format!("  {} elem/s", fmt_count(n as f64 / secs)),
            Throughput::Bytes(n) => format!("  {}B/s", fmt_count(n as f64 / secs)),
        }
    });
    eprintln!(
        "bench {name:<48} [min {} p50 {} p95 {}]  ({} samples){}",
        fmt_ns(summary.min_ns()),
        fmt_ns(summary.median_ns()),
        fmt_ns(summary.p95_ns()),
        summary.samples_ns.len(),
        rate.unwrap_or_default(),
    );
    summary
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

fn fmt_count(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2} G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2} M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.2} k", x / 1e3)
    } else {
        format!("{x:.1} ")
    }
}

/// Drop-in for `criterion::criterion_group!`: defines a function running
/// every target against the configured [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Drop-in for `criterion::criterion_main!`: a `main` that runs groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default().sample_size(10);
        let mut calls = 0u32;
        c.bench_function("shim_smoke", |b| {
            calls += 1;
            b.iter(|| std::hint::black_box(7u64 * 6));
        });
        // One warmup plus ten samples, each invoking the routine once.
        assert_eq!(calls, 11);
    }

    #[test]
    fn groups_scale_sample_size_and_finish() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim_group");
        group.sample_size(10);
        group.throughput(Throughput::Elements(1000));
        let mut calls = 0u32;
        group.bench_function("inner", |b| {
            calls += 1;
            b.iter(|| std::hint::black_box(1 + 1));
        });
        group.finish();
        assert!(calls >= 3);
    }

    #[test]
    fn measure_keeps_every_sample_and_bounds_warmup() {
        let mut calls = 0u32;
        let s = measure("count", 5, |b| {
            calls += 1;
            b.iter(|| std::hint::black_box(3u64 + 4));
        });
        assert_eq!(s.samples_ns.len(), 5, "one recorded sample per timed pass");
        // One untimed warmup pass, then one pass per sample.
        assert_eq!(calls, 6);
        // Sorted ascending, so the quantile walk is well-defined.
        assert!(s.samples_ns.windows(2).all(|w| w[0] <= w[1]));

        // A 2-sample smoke run stays tiny.
        let mut tiny_calls = 0u32;
        let _ = measure("tiny", 2, |b| {
            tiny_calls += 1;
            b.iter(|| std::hint::black_box(1u64));
        });
        assert_eq!(tiny_calls, 3);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let s = Summary { name: "q".into(), samples_ns: vec![10, 20, 30, 40, 100] };
        assert_eq!(s.min_ns(), 10);
        assert_eq!(s.median_ns(), 30);
        assert_eq!(s.p95_ns(), 100);
        assert_eq!(s.max_ns(), 100);
        assert_eq!(s.mean_ns(), 40);
        let empty = Summary { name: "e".into(), samples_ns: vec![] };
        assert_eq!(empty.median_ns(), 0);
        assert_eq!(empty.mean_ns(), 0);
    }

    #[test]
    fn strict_quantiles_reject_degenerate_samples() {
        let empty = Summary { name: "e".into(), samples_ns: vec![] };
        assert_eq!(empty.try_quantile_ns(0.5), Err(SummaryError::Empty));
        assert_eq!(empty.try_quantile_ns(1.5), Err(SummaryError::QuantileOutOfRange(1.5)));

        // One sample: min and max are exact, every interior quantile is
        // a fabrication the strict API refuses.
        let one = Summary { name: "one".into(), samples_ns: vec![42] };
        assert_eq!(one.try_quantile_ns(0.0), Ok(42));
        assert_eq!(one.try_quantile_ns(1.0), Ok(42));
        assert_eq!(
            one.try_quantile_ns(0.5),
            Err(SummaryError::Underresolved { q: 0.5, n: 1, needed: 2 })
        );
        assert_eq!(
            one.try_quantile_ns(0.95),
            Err(SummaryError::Underresolved { q: 0.95, n: 1, needed: 20 })
        );
        // ... while the infallible accessors clamp, documented.
        assert_eq!(one.median_ns(), 42);
        assert_eq!(one.p95_ns(), 42);
        assert_eq!(one.quantile_ns(7.0), 42, "q clamps into [0,1]");

        // p95 resolves at exactly 20 samples, not 19.
        let nineteen = Summary { name: "s19".into(), samples_ns: (1..=19).collect() };
        assert_eq!(
            nineteen.try_quantile_ns(0.95),
            Err(SummaryError::Underresolved { q: 0.95, n: 19, needed: 20 })
        );
        let twenty = Summary { name: "s20".into(), samples_ns: (1..=20).collect() };
        assert_eq!(twenty.try_quantile_ns(0.95), Ok(19));
        assert_eq!(twenty.try_quantile_ns(0.5), Ok(10));

        // The error renders a usable message.
        let msg = one.try_quantile_ns(0.95).unwrap_err().to_string();
        assert!(msg.contains("needs 20"), "{msg}");
    }

    /// A clock whose consecutive `iter` calls see the given sample
    /// lengths: each sample reads the clock twice, at `t` and `t + len`.
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
    fn constant_work_yields_p95_near_median() {
        // The harness keeps every sample's length: with a scripted clock
        // the summary's order statistics are exactly the nearest-rank
        // ones of the scripted samples, spread included (the old `iter`
        // discarded dispersion entirely). The first length is the
        // untimed warmup pass.
        let warmup = 1_000_000;
        let mut lengths = vec![warmup];
        lengths.extend((1..=20u64).rev().map(|i| 100 + i)); // 120 down to 101
        let mut clock = scripted(&lengths);
        let s = measure_with(&mut clock, "constant_work", 20, |b| b.iter(|| 7u64));
        assert_eq!(s.samples_ns, (101..=120).collect::<Vec<u64>>(), "sorted, warmup dropped");
        assert_eq!(s.median_ns(), 110);
        assert_eq!(s.p95_ns(), 119);
        assert_eq!(s.min_ns(), 101);
        assert_eq!(s.max_ns(), 120);

        // One slow outlier moves the tail, not the median.
        let mut lengths = vec![warmup];
        lengths.extend([500, 500, 500, 500, 500, 500, 500, 500, 500, 4_000]);
        let mut clock = scripted(&lengths);
        let s = measure_with(&mut clock, "outlier", 10, |b| b.iter(|| ()));
        assert_eq!(s.median_ns(), 500);
        assert_eq!(s.p95_ns(), 4_000);
        assert_eq!(s.mean_ns(), 850);
    }
}
