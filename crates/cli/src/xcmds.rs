//! The X-series extension studies as pure text renderers.
//!
//! Each function is deterministic in its [`RunOptions`], returns the
//! finished report text, and does no I/O — so `smi-lab all` can run them
//! as runner cells (parallel, cached, resumable) and individual
//! subcommands can print them directly.

use analysis::RunOptions;
use sim_core::{SimDuration, SimRng, SimTime};
use smi_driver::{check_bits, HwlatDetector, SmiClass, SmiDriver, SmiDriverConfig, Symbol, Tsc};
use std::fmt::Write as _;

/// hwlat-style SMI detection demo.
pub fn detect(opts: &RunOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "hwlat-style detection of injected SMIs (60 s window)");
    for class in [SmiClass::Short, SmiClass::Long] {
        let driver = SmiDriver::new(SmiDriverConfig::mpi_study(class));
        let mut rng = SimRng::new(opts.seed);
        let schedule = driver.schedule_for_node(&mut rng);
        let report = HwlatDetector::default().detect(
            &schedule,
            SimTime::ZERO,
            SimTime::from_secs(60),
            &Tsc::e5620(),
        );
        let truth = schedule.count_between(SimTime::ZERO, SimTime::from_secs(60));
        let _ = writeln!(
            out,
            "  {}: injected {truth}, detected {} (max latency {}, total {})",
            class.label(),
            report.count(),
            report.max_latency().map(|d| d.to_string()).unwrap_or_else(|| "-".into()),
            report.total_latency,
        );
    }
    out
}

/// BIOSBITS 150 us compliance check.
pub fn bits(opts: &RunOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "BIOSBITS compliance (threshold 150 us, 60 s window)");
    for class in [SmiClass::None, SmiClass::Short, SmiClass::Long] {
        let driver = SmiDriver::new(SmiDriverConfig::mpi_study(class));
        let mut rng = SimRng::new(opts.seed);
        let schedule = driver.schedule_for_node(&mut rng);
        let report = check_bits(&schedule, SimTime::ZERO, SimTime::from_secs(60));
        let _ = writeln!(
            out,
            "  {}: {} windows, {} violations, max residency {} -> {}",
            class.label(),
            report.windows,
            report.violations,
            report.max_residency,
            if report.passes() { "PASS" } else { "FAIL" },
        );
    }
    out
}

/// Sampling-profiler misattribution demo.
pub fn attribution(opts: &RunOptions) -> String {
    let mut out = String::new();
    let _ =
        writeln!(out, "sampling-profiler attribution under one 2 s SMI (10 s run, 1 ms sampler)");
    let symbols = vec![
        Symbol { name: "compute_kernel".into(), work: SimDuration::from_millis(60) },
        Symbol { name: "exchange_halo".into(), work: SimDuration::from_millis(30) },
        Symbol { name: "hold_global_lock".into(), work: SimDuration::from_millis(10) },
    ];
    let schedule = sim_core::FreezeSchedule::periodic(sim_core::PeriodicFreeze {
        first_trigger: SimTime::from_millis(5_095),
        period: SimDuration::from_secs(100),
        durations: sim_core::DurationModel::Fixed(SimDuration::from_secs(2)),
        policy: sim_core::TriggerPolicy::SkipWhileFrozen,
        seed: opts.seed,
    });
    let report = smi_driver::profile(
        &symbols,
        &schedule,
        SimDuration::from_secs(10),
        SimDuration::from_millis(1),
    );
    let _ = writeln!(out, "  {} samples, {} inside SMM", report.samples, report.smm_samples);
    for s in &report.shares {
        let _ = writeln!(
            out,
            "  {:>18}: true {:>5.1}%  reported {:>5.1}%",
            s.name,
            s.true_share * 100.0,
            s.reported_share * 100.0
        );
    }
    let _ = writeln!(out, "  max share error: {:.1} pp", report.max_share_error * 100.0);
    out
}

/// Per-test UnixBench score detail.
pub fn unixbench(_opts: &RunOptions) -> String {
    use apps::{run_suite, UbCosts};
    use machine::SmiSideEffects;
    let mut out = String::new();
    let _ = writeln!(out, "UnixBench detail (quiet, 4 then 8 logical CPUs, simulated E5620)\n");
    let costs = UbCosts::default();
    for cpus in [4u32, 8] {
        let report =
            run_suite(cpus, &sim_core::FreezeSchedule::none(), &SmiSideEffects::none(), &costs);
        let _ = writeln!(out, "{cpus} CPUs:");
        let _ = writeln!(out, "  {:<42} {:>10} {:>10}", "test", "1 copy", format!("{cpus} copies"));
        for ((t, s1), (_, sn)) in report.single.iter().zip(&report.multi) {
            let _ = writeln!(out, "  {:<42} {:>10.1} {:>10.1}", t.name(), s1, sn);
        }
        let _ = writeln!(
            out,
            "  {:<42} {:>10.1} {:>10.1}   (total {:.1})\n",
            "index (geometric mean)", report.single_index, report.multi_index, report.total_index
        );
    }
    out
}

/// Long-SMI impact projected to 32–128 nodes.
pub fn scale(opts: &RunOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scale projection: weak-scaled BSP app (50 ms compute + ring halo");
    let _ = writeln!(out, "per iteration), long SMIs at 1 Hz, beyond the paper's 16 nodes\n");
    let _ = writeln!(out, "{:>6} {:>10} {:>10} {:>9}", "nodes", "SMM0 [s]", "SMM2 [s]", "impact");
    let counts = [1u32, 4, 16, 32, 64, 128];
    for p in analysis::scale_projection(&counts, opts) {
        let _ = writeln!(
            out,
            "{:>6} {:>10.2} {:>10.2} {:>+8.1}%",
            p.nodes, p.base, p.long, p.impact_pct
        );
    }
    let _ = writeln!(out, "\nThe paper's 1-to-16-node growth continues briefly, then saturates:");
    let _ = writeln!(out, "once some node is almost always the most-recently-frozen straggler,");
    let _ = writeln!(out, "each synchronization interval cannot lose more than ~one residency.");
    let _ =
        writeln!(out, "Larger scales get *no relief* — the worst case becomes the steady state.");
    out
}

/// Variance decomposition vs logical CPUs.
pub fn variance(opts: &RunOptions) -> String {
    use apps::ConvolveConfig;
    let mut out = String::new();
    let _ = writeln!(out, "variance decomposition at 50 ms long-SMI intervals (paper §V:");
    let _ =
        writeln!(out, "'the cause of variance with HTT'); {} reps per point\n", opts.reps.max(6));
    for config in [ConvolveConfig::CacheUnfriendly, ConvolveConfig::CacheFriendly] {
        let _ = writeln!(out, "{}:", config.label());
        let _ =
            writeln!(out, "{:>6} {:>10} {:>8} {:>16}", "cpus", "mean [s]", "CV", "CV (phase only)");
        for p in analysis::variance_study(config, opts.reps.max(6), opts.seed) {
            let _ = writeln!(
                out,
                "{:>6} {:>10.2} {:>7.2}% {:>15.2}%",
                p.cpus,
                p.mean,
                p.cv * 100.0,
                p.cv_no_side_effects * 100.0
            );
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "Phase randomness alone explains most low-CPU variance; the HTT");
    let _ = writeln!(out, "side effects (post-SMI herd) add the excess above 4 CPUs.");
    out
}

/// Noise absorption/amplification study.
pub fn absorption(_opts: &RunOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "noise absorption/amplification (Ferreira et al., §II.C)");
    let _ = writeln!(out, "BSP workload: 4 ranks x 10 iterations x 100 ms compute + barrier;");
    let _ = writeln!(out, "one 50 ms freeze injected on rank 0's node.\n");
    for (slack, label) in [
        (0u64, "victim on the critical path"),
        (20, "victim has 20 ms slack/iter"),
        (60, "victim has 60 ms slack/iter"),
    ] {
        let profile = analysis::absorption_profile(
            4,
            10,
            100,
            slack,
            sim_core::SimDuration::from_millis(50),
            5,
        );
        let mean_ratio: f64 =
            profile.iter().map(|p| p.transfer_ratio).sum::<f64>() / profile.len() as f64;
        let _ = writeln!(
            out,
            "  {label:<32} mean transfer ratio {mean_ratio:.2}  (0 = absorbed, 1 = amplified)"
        );
    }
    let _ = writeln!(out, "\nUnsynchronized SMIs at scale keep landing on whichever node is");
    let _ = writeln!(out, "momentarily critical — which is why Tables 1-3 amplify with nodes.");
    out
}

/// Energy impact of SMM residency.
pub fn energy(opts: &RunOptions) -> String {
    use machine::{NodeExecutor, PowerModel, SmiSideEffects};
    let mut out = String::new();
    let _ = writeln!(out, "energy impact of SMM residency (60 s of useful work, Xeon node model)");
    let pm = PowerModel::xeon_node();
    for class in [SmiClass::None, SmiClass::Short, SmiClass::Long] {
        let driver = SmiDriver::new(SmiDriverConfig::mpi_study(class));
        let mut rng = SimRng::new(opts.seed);
        let schedule = driver.schedule_for_node(&mut rng);
        let out_exec = NodeExecutor::new(&schedule, SmiSideEffects::none(), 8, 0.5, 0.0)
            .execute(SimTime::ZERO, SimDuration::from_secs(60));
        let joules = pm.energy_joules(&out_exec, 1.0);
        let _ = writeln!(
            out,
            "  {}: wall {:.2} s, {:.2} s in SMM, {:.0} J ({:.1} Wh/hour-of-work)",
            class.label(),
            out_exec.wall.as_secs_f64(),
            out_exec.frozen.as_secs_f64(),
            joules,
            joules / 3600.0 * 60.0,
        );
    }
    let _ = writeln!(out, "\nSMM time burns near-active power while doing no host work — the");
    let _ = writeln!(out, "energy inflation tracks the runtime inflation (prior work [7]).");
    out
}

/// Work completed and MOPs at the paper's serial baselines.
pub fn mops(_opts: &RunOptions) -> String {
    use nas::Bench;
    let mut out = String::new();
    let _ = writeln!(out, "work completed and MOPs at the paper's serial baselines");
    let _ = writeln!(
        out,
        "{:>6} {:>7} {:>16} {:>12} {:>12}",
        "bench", "class", "total ops", "time [s]", "MOP/s"
    );
    for bench in [Bench::Ep, Bench::Bt, Bench::Ft] {
        for class in nas::Class::PAPER {
            let secs = nas::serial_seconds(bench, class);
            let _ = writeln!(
                out,
                "{:>6} {:>7} {:>16.3e} {:>12.2} {:>12.1}",
                bench.name(),
                class.letter(),
                nas::total_ops(bench, class),
                secs,
                nas::mops(bench, class, secs),
            );
        }
    }
    out
}

/// A study renderer: options in, finished report text out.
pub type StudyFn = fn(&RunOptions) -> String;
