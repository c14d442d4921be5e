//! Simulated UnixBench runs (Figure 2).
//!
//! Each test is expressed as thread programs for the `machine` scheduler
//! (Dhrystone/Whetstone/syscalls as compute streams with the appropriate
//! unit cost; the pipe tests as real blocking pipe programs), run once to
//! measure the *work-time* rate, then converted to a wall-clock result
//! over the benchmark's fixed duration by subtracting SMM residency and
//! per-window overheads. Higher SMI frequency ⇒ less usable work in the
//! window ⇒ lower loops-per-second ⇒ lower index, which is exactly the
//! quantity Figure 2 plots.

use crate::unixbench::{index, UbTest};
use machine::{
    scheduler, NodeSpec, Phase, PipeId, SchedParams, SmiSideEffects, ThreadProgram, ThreadSpec,
    Topology,
};
use sim_core::{FreezeSchedule, SimDuration, SimTime};

/// Unit costs on the simulated E5620 (chosen to land era-plausible
/// UnixBench results: a few-hundred index per test single-copy).
#[derive(Clone, Copy, Debug, jsonio::ToJson)]
pub struct UbCosts {
    /// One Dhrystone loop.
    pub dhrystone: SimDuration,
    /// One million Whetstone instructions (1 MWIPS-unit).
    pub whetstone_mwi: SimDuration,
    /// Payload of one pipe-throughput write/read (bytes).
    pub pipe_bytes: u64,
    /// One minimal system call.
    pub syscall: SimDuration,
}

impl Default for UbCosts {
    fn default() -> Self {
        UbCosts {
            dhrystone: SimDuration::from_nanos(110),
            whetstone_mwi: SimDuration::from_micros(650),
            pipe_bytes: 512,
            syscall: SimDuration::from_nanos(320),
        }
    }
}

impl UbCosts {
    /// Calibrate the compute-unit costs by timing the *real* work units
    /// from [`crate::unixbench`] on the host running this simulation.
    /// Pipe costs keep their defaults (the simulator's pipes are modeled
    /// at the scheduler level). Useful for comparing the simulated E5620
    /// against whatever machine you are on; experiments use
    /// [`UbCosts::default`] for reproducibility.
    pub fn calibrate_real() -> UbCosts {
        use crate::unixbench::{dhrystone_unit, syscall_unit, whetstone_unit};
        use std::time::Instant;

        fn time_per_unit(mut f: impl FnMut(u64) -> u64, iters: u64) -> SimDuration {
            // Warm up, then measure.
            let mut acc = 0u64;
            for i in 0..iters / 10 {
                acc = acc.wrapping_add(f(i));
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "calibrate_real is an explicitly host-dependent utility (doc above); \
                          experiments never call it and always use UbCosts::default"
            )]
            let start = Instant::now();
            for i in 0..iters {
                acc = acc.wrapping_add(f(i));
            }
            let elapsed = start.elapsed();
            std::hint::black_box(acc);
            SimDuration::from_nanos((elapsed.as_nanos() as u64 / iters).max(1))
        }

        let dhrystone = time_per_unit(dhrystone_unit, 50_000);
        // One whetstone_unit is ~60 transcendental ops; scale to the
        // million-instruction MWIPS unit (~16.7k units).
        let one_unit = time_per_unit(|_| whetstone_unit().to_bits(), 20_000);
        let whetstone_mwi = one_unit * 16_700;
        let syscall = time_per_unit(|_| syscall_unit(), 100_000);
        UbCosts { dhrystone, whetstone_mwi, syscall, ..UbCosts::default() }
    }
}

/// Wall duration of each timed test (UnixBench uses 10-second samples).
pub const TEST_DURATION: SimDuration = SimDuration(10_000_000_000);

/// Measure a test's aggregate work-time rate (units per second of node
/// work time) with `copies` concurrent copies on the topology.
pub fn work_rate(test: UbTest, copies: u32, topo: &Topology, costs: &UbCosts) -> f64 {
    assert!(copies >= 1, "at least one copy");
    let params = SchedParams::default();
    // Enough units that scheduling effects average out, few enough that
    // the simulation stays fast.
    let units: u64 = match test {
        UbTest::Dhrystone | UbTest::SyscallOverhead => 200_000,
        UbTest::Whetstone => 2_000,
        UbTest::PipeThroughput => 2_000,
        UbTest::PipeContextSwitch => 1_000,
    };
    let threads: Vec<ThreadSpec> = match test {
        UbTest::Dhrystone => (0..copies)
            .map(|_| {
                ThreadSpec::new(ThreadProgram::new().then(Phase::compute(costs.dhrystone * units)))
            })
            .collect(),
        UbTest::Whetstone => (0..copies)
            .map(|_| {
                ThreadSpec::new(
                    ThreadProgram::new().then(Phase::compute(costs.whetstone_mwi * units)),
                )
            })
            .collect(),
        UbTest::SyscallOverhead => (0..copies)
            .map(|_| {
                ThreadSpec::new(
                    ThreadProgram::new()
                        .then(Phase::Syscalls { count: units, each: costs.syscall }),
                )
            })
            .collect(),
        UbTest::PipeThroughput => (0..copies)
            .map(|c| {
                // One process writing then reading its own pipe.
                let pipe = PipeId(c);
                let mut prog = ThreadProgram::new();
                for _ in 0..units {
                    prog = prog
                        .then(Phase::PipeWrite { pipe, bytes: costs.pipe_bytes })
                        .then(Phase::PipeRead { pipe, bytes: costs.pipe_bytes });
                }
                ThreadSpec::new(prog)
            })
            .collect(),
        UbTest::PipeContextSwitch => (0..copies)
            .flat_map(|c| {
                // Two processes ping-ponging a token through two pipes.
                let a = PipeId(2 * c);
                let b = PipeId(2 * c + 1);
                let mut pa = ThreadProgram::new();
                let mut pb = ThreadProgram::new();
                for _ in 0..units {
                    pa = pa
                        .then(Phase::PipeWrite { pipe: a, bytes: 4 })
                        .then(Phase::PipeRead { pipe: b, bytes: 4 });
                    pb = pb
                        .then(Phase::PipeRead { pipe: a, bytes: 4 })
                        .then(Phase::PipeWrite { pipe: b, bytes: 4 });
                }
                [ThreadSpec::new(pa), ThreadSpec::new(pb)]
            })
            .collect(),
    };
    #[expect(
        clippy::expect_used,
        reason = "the pipe programs built above strictly alternate write/read in matched \
                  pairs, so the scheduler cannot deadlock"
    )]
    let out =
        scheduler::run(topo, &params, &threads).expect("unixbench programs are deadlock-free");
    let total_units = units * copies as u64;
    total_units as f64 / out.makespan.as_secs_f64()
}

/// Usable work seconds within a wall window of `duration` under the
/// schedule: wall minus residency minus per-window overheads.
pub fn usable_work_seconds(
    schedule: &FreezeSchedule,
    effects: &SmiSideEffects,
    online_cpus: u32,
    memory_intensity: f64,
    duration: SimDuration,
) -> f64 {
    let end = SimTime::ZERO + duration;
    let frozen = schedule.frozen_between(SimTime::ZERO, end);
    let windows = schedule.count_between(SimTime::ZERO, end) as u64;
    let per_window = effects.per_window_cost(online_cpus, memory_intensity);
    let unfrozen = duration.saturating_sub(frozen);
    let residency_loss =
        frozen.mul_f64(effects.per_frozen_fraction(0.0)).min(unfrozen.mul_f64(effects.loss_cap));
    let overhead = per_window * windows + residency_loss;
    (duration.as_secs_f64() - frozen.as_secs_f64() - overhead.as_secs_f64()).max(0.0)
}

/// One test's measured result in its native unit (lps / MWIPS) over the
/// wall window.
pub fn measure(
    test: UbTest,
    copies: u32,
    topo: &Topology,
    costs: &UbCosts,
    schedule: &FreezeSchedule,
    effects: &SmiSideEffects,
) -> f64 {
    let rate = work_rate(test, copies, topo, costs);
    let usable = usable_work_seconds(schedule, effects, topo.online_count(), 0.4, TEST_DURATION);
    let units = rate * usable;
    let native = units / TEST_DURATION.as_secs_f64();
    match test {
        // Whetstone reports MWIPS; our unit is one MWI.
        UbTest::Whetstone => native,
        _ => native,
    }
}

/// Full two-pass report for one machine configuration.
#[derive(Clone, Debug, jsonio::ToJson)]
pub struct UnixBenchReport {
    /// Per-test single-copy scores.
    pub single: Vec<(UbTest, f64)>,
    /// Per-test N-copy scores (one per online CPU).
    pub multi: Vec<(UbTest, f64)>,
    /// Index over the single-copy pass.
    pub single_index: f64,
    /// Index over the multi-copy pass.
    pub multi_index: f64,
    /// Combined index over both passes (the paper's "total index score").
    pub total_index: f64,
}

/// Run the paper's five-test suite on `online_cpus` logical CPUs under
/// the given freeze schedule.
pub fn run_suite(
    online_cpus: u32,
    schedule: &FreezeSchedule,
    effects: &SmiSideEffects,
    costs: &UbCosts,
) -> UnixBenchReport {
    let mut topo = Topology::new(NodeSpec::dell_r410());
    topo.set_online_count(online_cpus);
    let copies = online_cpus;
    let mut single = Vec::new();
    let mut multi = Vec::new();
    for test in UbTest::ALL {
        let s = test.score(measure(test, 1, &topo, costs, schedule, effects));
        let m = test.score(measure(test, copies, &topo, costs, schedule, effects));
        single.push((test, s));
        multi.push((test, m));
    }
    let single_scores: Vec<f64> = single.iter().map(|&(_, s)| s).collect();
    let multi_scores: Vec<f64> = multi.iter().map(|&(_, s)| s).collect();
    let all: Vec<f64> = single_scores.iter().chain(&multi_scores).copied().collect();
    UnixBenchReport {
        single_index: index(&single_scores),
        multi_index: index(&multi_scores),
        total_index: index(&all),
        single,
        multi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{DurationModel, PeriodicFreeze, TriggerPolicy};

    fn quiet() -> FreezeSchedule {
        FreezeSchedule::none()
    }

    fn long_every(ms: u64) -> FreezeSchedule {
        FreezeSchedule::periodic(PeriodicFreeze {
            first_trigger: SimTime::from_millis(ms / 3 + 1),
            period: SimDuration::from_millis(ms),
            durations: DurationModel::long_smi(),
            policy: TriggerPolicy::SkipWhileFrozen,
            seed: 5,
        })
    }

    #[test]
    fn quiet_suite_produces_plausible_index() {
        let report = run_suite(4, &quiet(), &SmiSideEffects::none(), &UbCosts::default());
        assert!((200.0..4000.0).contains(&report.total_index), "index {}", report.total_index);
        // Multi-copy on 4 cores beats single-copy.
        assert!(report.multi_index > report.single_index * 2.0);
    }

    #[test]
    fn dhrystone_rate_scales_with_copies() {
        let mut topo = Topology::new(NodeSpec::dell_r410());
        topo.set_online_count(4);
        let costs = UbCosts::default();
        let r1 = work_rate(UbTest::Dhrystone, 1, &topo, &costs);
        let r4 = work_rate(UbTest::Dhrystone, 4, &topo, &costs);
        assert!((r4 / r1 - 4.0).abs() < 0.2, "scaling {}", r4 / r1);
    }

    #[test]
    fn htt_helps_the_suite() {
        // Figure 2: "The benchmark shows performance gains from HTT."
        let costs = UbCosts::default();
        let four = run_suite(4, &quiet(), &SmiSideEffects::none(), &costs);
        let eight = run_suite(8, &quiet(), &SmiSideEffects::none(), &costs);
        assert!(
            eight.total_index > four.total_index,
            "8-cpu {} vs 4-cpu {}",
            eight.total_index,
            four.total_index
        );
    }

    #[test]
    fn long_smis_below_600ms_hit_the_score_hard() {
        let costs = UbCosts::default();
        let base = run_suite(4, &quiet(), &SmiSideEffects::none(), &costs).total_index;
        let fx = SmiSideEffects::default();
        let slow_1600 = run_suite(4, &long_every(1600), &fx, &costs).total_index;
        let slow_600 = run_suite(4, &long_every(600), &fx, &costs).total_index;
        let slow_100 = run_suite(4, &long_every(100), &fx, &costs).total_index;
        assert!(slow_1600 > 0.88 * base, "1600ms {} vs base {}", slow_1600, base);
        assert!(slow_600 < slow_1600);
        // With skip-while-frozen triggering, a 100 ms interval and
        // 100-110 ms residency give an effective ~200 ms period: a bit
        // over half of all wall time is in SMM.
        assert!(
            slow_100 < 0.55 * base,
            "100ms interval should devastate the score: {slow_100} vs {base}"
        );
    }

    #[test]
    fn usable_work_is_full_window_when_quiet() {
        let w = usable_work_seconds(&quiet(), &SmiSideEffects::none(), 4, 0.5, TEST_DURATION);
        assert!((w - 10.0).abs() < 1e-9);
    }

    #[test]
    fn usable_work_decreases_with_frequency() {
        let fx = SmiSideEffects::default();
        let w600 = usable_work_seconds(&long_every(600), &fx, 4, 0.5, TEST_DURATION);
        let w100 = usable_work_seconds(&long_every(100), &fx, 4, 0.5, TEST_DURATION);
        assert!(w100 < w600);
        assert!(w600 < 10.0);
        assert!(w100 > 0.0);
    }

    #[test]
    fn real_calibration_produces_sane_costs() {
        let costs = UbCosts::calibrate_real();
        // Any machine that can run this test does a dhrystone-ish string
        // unit in 10ns..100us and a clock syscall in 5ns..50us.
        let d = costs.dhrystone.as_nanos();
        let s = costs.syscall.as_nanos();
        assert!((10..100_000).contains(&d), "dhrystone unit {d} ns");
        assert!((5..50_000).contains(&s), "syscall unit {s} ns");
        assert!(costs.whetstone_mwi > costs.dhrystone);
        // And the suite still runs with host-calibrated costs.
        let report = run_suite(2, &quiet(), &SmiSideEffects::none(), &costs);
        assert!(report.total_index > 0.0);
    }

    #[test]
    fn pipe_context_switch_is_the_slowest_per_unit() {
        let mut topo = Topology::new(NodeSpec::dell_r410());
        topo.set_online_count(4);
        let costs = UbCosts::default();
        let ctx = work_rate(UbTest::PipeContextSwitch, 1, &topo, &costs);
        let thr = work_rate(UbTest::PipeThroughput, 1, &topo, &costs);
        assert!(ctx < thr, "context switching {ctx} should be slower than throughput {thr}");
    }
}
