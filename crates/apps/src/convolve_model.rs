//! The Convolve experiment model (Figure 1).
//!
//! The paper runs Convolve in two configurations chosen with cachegrind —
//! CacheFriendly (≈1 % misses: tiny 0.5-megapixel image, 4×4 subimages,
//! large 61×61 kernel, so the working set lives in cache) and
//! CacheUnfriendly (≈70 % misses: 16-megapixel image, 1-megapixel
//! subimages, 3×3 kernel, so every window read walks far-apart rows) —
//! and sweeps the SMI interval (50–1500 ms) and the online logical CPU
//! count (1–8) on a quad-core HTT Xeon E5620.
//!
//! Here each configuration's memory character is *measured* by running a
//! representative slice of its real access pattern through `cache-sim`
//! (the same methodology, with our simulator standing in for cachegrind),
//! converted to an [`ExecProfile`], and executed as 24 threads on the
//! `machine` scheduler under a freeze schedule.

use cache_sim::{Hierarchy, HierarchyConfig, MemoryProfile};
use machine::{
    scheduler, NodeExecutor, Phase, SchedParams, SmiSideEffects, ThreadProgram, ThreadSpec,
    Topology,
};
use machine::{ExecProfile, NodeSpec};
use sim_core::{FreezeSchedule, SimDuration, SimRng, SimTime};

/// The paper's two Convolve configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, jsonio::ToJson)]
pub enum ConvolveConfig {
    /// ≈1 % cache misses: 0.5 MP image, 4×4 subimages, 61×61 kernel.
    CacheFriendly,
    /// ≈70 % cache misses: 16 MP image, 1 MP subimages, 3×3 kernel.
    CacheUnfriendly,
}

impl ConvolveConfig {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            ConvolveConfig::CacheFriendly => "CacheFriendly",
            ConvolveConfig::CacheUnfriendly => "CacheUnfriendly",
        }
    }

    /// The paper's parameter table: `(image_pixels, subimage_pixels,
    /// kernel_side)`.
    pub fn parameters(&self) -> (u64, u64, u32) {
        match self {
            ConvolveConfig::CacheFriendly => (500_000, 16, 61),
            ConvolveConfig::CacheUnfriendly => (16_000_000, 1_000_000, 3),
        }
    }

    /// A representative slice of the configuration's memory access
    /// stream (addresses in bytes, 8-byte pixels). CF re-reads a tiny
    /// window working set; CU walks a 3×3 window down the columns of an
    /// image whose rows are far larger than any cache level — the access
    /// order the paper's CU parameters imply once a subimage row no
    /// longer fits.
    pub fn access_stream(&self) -> Vec<u64> {
        const ELEM: u64 = 8;
        match self {
            ConvolveConfig::CacheFriendly => {
                // 4x4 output tile, 61x61 kernel: every output pixel reads
                // a 64x64-ish neighbourhood that fits in L1/L2 and is
                // reused 16 times per tile. Model: repeated row-major
                // passes over a 64x64 window (32 KiB).
                let mut v = Vec::new();
                for _pass in 0..16 {
                    for r in 0..64u64 {
                        for c in 0..64u64 {
                            v.push((r * 64 + c) * ELEM);
                        }
                    }
                }
                v
            }
            ConvolveConfig::CacheUnfriendly => {
                // The CU mechanism: sixteen threads each walk a 3x3
                // window down their 1-megapixel subimage. Rows of a
                // 4096-pixel-wide image of 8-byte elements are 32 KiB
                // apart — exactly the L1 size — so every row of every
                // window maps to the *same* L1 set, and the 16 threads'
                // interleaved references (SMT and multicore interleaving
                // on the shared L2/L3) keep evicting each other: 8 ways
                // cannot hold 48 contending lines. Kernel weights are
                // partially register-hoisted (a handful of cached refs
                // per window); everything else misses.
                let row_stride = 32 * 1024u64; // 4096 px x 8 B
                let threads = 16u64;
                let sub_base = |t: u64| t * (8 << 20); // 8 MiB subimages
                let ker_base = 1u64 << 36;
                let mut v = Vec::new();
                for r in 0..256u64 {
                    // One window row-reference per thread per turn, fine
                    // interleaving across threads.
                    for u in 0..3u64 {
                        for ww in 0..3u64 {
                            for t in 0..threads {
                                v.push(sub_base(t) + (r + u) * row_stride + ww * ELEM);
                            }
                        }
                    }
                    for t in 0..threads {
                        // Output write (aliases like the reads) plus the
                        // few non-hoisted kernel reads.
                        v.push(sub_base(t) + (1 << 22) + r * row_stride);
                        for k in 0..4u64 {
                            v.push(ker_base + t * 4096 + k * ELEM);
                        }
                    }
                }
                v
            }
        }
    }

    /// Measure the configuration's memory profile on the E5620 hierarchy
    /// (the cachegrind step of the paper's methodology). The stream is
    /// played once to warm the hierarchy, then measured in steady state —
    /// the paper's long runs make cold misses invisible.
    pub fn memory_profile(&self) -> MemoryProfile {
        let mut h = Hierarchy::new(HierarchyConfig::xeon_e5620());
        let stream = self.access_stream();
        let refs = stream.len() as u64;
        h.run(stream.iter().copied());
        h.reset_counters();
        h.run(stream);
        // Roughly two arithmetic instructions per reference in the MAC loop.
        MemoryProfile::from_hierarchy(&h, refs * 2)
    }

    /// The SMT execution profile derived from the measured memory profile.
    pub fn exec_profile(&self) -> ExecProfile {
        ExecProfile::from_memory_profile(&self.memory_profile(), 1.0, 4.0)
    }

    /// Memory intensity for SMI refill scaling.
    pub fn memory_intensity(&self) -> f64 {
        match self {
            ConvolveConfig::CacheFriendly => 0.05,
            ConvolveConfig::CacheUnfriendly => 0.9,
        }
    }

    /// Total solo compute (one CPU, no noise), calibrated so a
    /// single-CPU run takes about a minute — long enough for the paper's
    /// 50–1500 ms SMI intervals to show their statistics.
    pub fn total_solo_seconds(&self) -> f64 {
        60.0
    }
}

/// Parameters of one Figure-1 run.
#[derive(Clone, Debug)]
pub struct ConvolveRun {
    /// Which configuration.
    pub config: ConvolveConfig,
    /// Online logical CPUs (1–8 on the R410).
    pub online_cpus: u32,
    /// SMI freeze schedule for the node.
    pub schedule: FreezeSchedule,
    /// SMI side effects.
    pub effects: SmiSideEffects,
    /// Worker threads (the paper limits concurrency to 24).
    pub threads: u32,
}

/// Outcome of one run.
#[derive(Clone, Debug, jsonio::ToJson)]
pub struct ConvolveOutcome {
    /// Wall-clock execution time.
    pub wall_seconds: f64,
    /// Work-time makespan (no freezes).
    pub work_seconds: f64,
    /// SMM windows hit during the run.
    pub windows: usize,
}

/// Execute one Convolve run: 24 threads on the scheduler (work time),
/// then the wall-time mapping through the freeze schedule.
pub fn run_convolve(run: &ConvolveRun, rng: &mut SimRng) -> ConvolveOutcome {
    assert!((1..=8).contains(&run.online_cpus), "R410 has 1..=8 logical CPUs");
    assert!(run.threads >= 1);
    let mut topo = Topology::new(NodeSpec::dell_r410());
    topo.set_online_count(run.online_cpus);

    let profile = run.config.exec_profile();
    let per_thread = run.config.total_solo_seconds() / run.threads as f64;
    let spawn_cost = SimDuration::from_micros(30);
    let threads: Vec<ThreadSpec> = (0..run.threads)
        .map(|i| {
            let jitter = rng.jitter(0.006);
            let work = SimDuration::from_secs_f64(per_thread * jitter);
            ThreadSpec::new(ThreadProgram::new().then(Phase::Compute { work, profile }))
                .delayed(spawn_cost * i as u64)
        })
        .collect();

    #[expect(
        clippy::expect_used,
        reason = "pure compute phases never block on pipes, so the scheduler cannot \
                  report a deadlock for this program"
    )]
    let sched = scheduler::run(&topo, &SchedParams::default(), &threads)
        .expect("convolve threads cannot deadlock");
    let executor = NodeExecutor::new(
        &run.schedule,
        run.effects,
        run.online_cpus,
        run.config.memory_intensity(),
        0.0,
    );
    let out = executor.execute(SimTime::ZERO, sched.makespan);
    ConvolveOutcome {
        wall_seconds: out.wall.as_secs_f64(),
        work_seconds: sched.makespan.as_secs_f64(),
        windows: out.windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{classify, CacheBehavior};
    use sim_core::{DurationModel, PeriodicFreeze};

    #[test]
    fn cachegrind_step_classifies_both_configs() {
        let cf = ConvolveConfig::CacheFriendly.memory_profile();
        let cu = ConvolveConfig::CacheUnfriendly.memory_profile();
        assert_eq!(classify(cf.l1_miss_ratio), CacheBehavior::Friendly, "CF: {cf:?}");
        assert_eq!(classify(cu.l1_miss_ratio), CacheBehavior::Unfriendly, "CU: {cu:?}");
    }

    #[test]
    fn cu_profile_stalls_much_more_than_cf() {
        let cf = ConvolveConfig::CacheFriendly.exec_profile();
        let cu = ConvolveConfig::CacheUnfriendly.exec_profile();
        assert!(cf.stall_fraction() < 0.1, "CF stall {}", cf.stall_fraction());
        assert!(cu.stall_fraction() > 0.6, "CU stall {}", cu.stall_fraction());
    }

    fn quiet_run(config: ConvolveConfig, cpus: u32) -> ConvolveOutcome {
        let run = ConvolveRun {
            config,
            online_cpus: cpus,
            schedule: FreezeSchedule::none(),
            effects: SmiSideEffects::none(),
            threads: 24,
        };
        run_convolve(&run, &mut SimRng::new(42))
    }

    #[test]
    fn scales_with_physical_cores() {
        let one = quiet_run(ConvolveConfig::CacheFriendly, 1);
        let four = quiet_run(ConvolveConfig::CacheFriendly, 4);
        let speedup = one.wall_seconds / four.wall_seconds;
        assert!((3.5..4.3).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn cf_gains_little_from_htt() {
        // The paper: "The CacheFriendly configuration shows minimal
        // benefits from HTT" (compute-bound threads saturate the pipeline).
        let four = quiet_run(ConvolveConfig::CacheFriendly, 4);
        let eight = quiet_run(ConvolveConfig::CacheFriendly, 8);
        let gain = four.wall_seconds / eight.wall_seconds;
        assert!((0.9..1.15).contains(&gain), "HTT gain {gain}");
    }

    #[test]
    fn cu_gains_only_modestly_from_htt() {
        // "Our CacheUnfriendly configuration did not benefit greatly from
        // HTT" — contention on the shared cache eats the latency-filling.
        let four = quiet_run(ConvolveConfig::CacheUnfriendly, 4);
        let eight = quiet_run(ConvolveConfig::CacheUnfriendly, 8);
        let gain = four.wall_seconds / eight.wall_seconds;
        assert!((0.95..1.45).contains(&gain), "HTT gain {gain}");
    }

    fn noisy_run(
        config: ConvolveConfig,
        cpus: u32,
        interval_ms: u64,
        seed: u64,
    ) -> ConvolveOutcome {
        let mut rng = SimRng::new(seed);
        let run = ConvolveRun {
            config,
            online_cpus: cpus,
            schedule: FreezeSchedule::periodic(PeriodicFreeze::with_random_phase(
                SimDuration::from_millis(interval_ms),
                DurationModel::long_smi(),
                &mut rng,
            )),
            effects: SmiSideEffects::default(),
            threads: 24,
        };
        run_convolve(&run, &mut rng)
    }

    #[test]
    fn impact_is_minimal_above_600ms_and_dramatic_below() {
        // Figure 1 left panels: "minimal or no impact ... up to
        // approximately 600 ms intervals. From this point up to the
        // highest frequency (50 ms intervals), we see a dramatic impact."
        let base = quiet_run(ConvolveConfig::CacheUnfriendly, 4).wall_seconds;
        let slow_1500 = noisy_run(ConvolveConfig::CacheUnfriendly, 4, 1500, 1).wall_seconds;
        let slow_600 = noisy_run(ConvolveConfig::CacheUnfriendly, 4, 600, 2).wall_seconds;
        let slow_50 = noisy_run(ConvolveConfig::CacheUnfriendly, 4, 50, 3).wall_seconds;
        let r1500 = slow_1500 / base;
        let r600 = slow_600 / base;
        let r50 = slow_50 / base;
        assert!(r1500 < 1.12, "1500ms interval slowdown {r1500}");
        assert!((1.1..1.35).contains(&r600), "600ms interval slowdown {r600}");
        assert!(r50 > 2.5, "50ms interval slowdown {r50}");
        assert!(r50 > r600 && r600 > r1500);
    }

    #[test]
    fn window_count_matches_interval() {
        let out = noisy_run(ConvolveConfig::CacheFriendly, 8, 1000, 7);
        // Roughly one window per second of wall time.
        let per_sec = out.windows as f64 / out.wall_seconds;
        assert!((0.8..1.2).contains(&per_sec), "windows/s {per_sec}");
    }
}
