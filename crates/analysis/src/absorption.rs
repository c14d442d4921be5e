//! Noise absorption and amplification (§II.C).
//!
//! "Ferreira et al. have found that noise's effect on an application may
//! be reduced by absorption; conversely, the impact of noise can be
//! amplified when it occurs at a performance-sensitive time."
//!
//! This module measures that directly on the cluster simulator: a BSP
//! workload (compute → barrier, iterated) receives **one** freeze window
//! on one node, at a controlled offset, and the slowdown is compared to
//! the injected residency. Ranks with slack absorb the noise completely;
//! a freeze on the critical-path rank — or one that lands just before
//! the barrier where *every* rank must wait for the victim — transfers
//! its full duration into the makespan. This mechanism, iterated with
//! random phases, is exactly why the paper's long-SMI damage grows with
//! node count.

use machine::SmiSideEffects;
use mpi_sim::{ClusterSpec, NetworkParams, NodeState, Op, RankProgram};
use sim_core::{
    DurationModel, FreezeSchedule, PeriodicFreeze, SimDuration, SimTime, TriggerPolicy,
};

/// One probe of the absorption profile.
#[derive(Clone, Copy, Debug, jsonio::ToJson)]
pub struct AbsorptionPoint {
    /// Which node received the single freeze.
    pub victim: u32,
    /// Freeze start offset into the run, milliseconds.
    pub offset_ms: f64,
    /// Extra makespan relative to the noise-free run, milliseconds.
    pub extra_ms: f64,
    /// `extra / residency`: 0 = fully absorbed, 1 = fully amplified.
    pub transfer_ratio: f64,
}

/// A BSP workload where `slow_rank` has `slack_ms` *less* compute than
/// the others per iteration (i.e. the others carry slack relative to the
/// critical path when `slack_ms > 0` on the victim).
fn bsp_programs(ranks: u32, iters: u32, compute_ms: u64, victim_bonus_ms: i64) -> Vec<RankProgram> {
    (0..ranks)
        .map(|r| {
            let mut ops = Vec::new();
            let ms = if r == 0 {
                (compute_ms as i64 + victim_bonus_ms).max(1) as u64
            } else {
                compute_ms
            };
            for _ in 0..iters {
                ops.push(Op::Compute(SimDuration::from_millis(ms)));
                ops.push(Op::Barrier);
            }
            RankProgram::new(ops)
        })
        .collect()
}

/// Run the BSP workload with a single freeze of `residency` on node 0 at
/// `offset`, returning the absorption probe. `victim_slack_ms > 0` gives
/// the victim rank *less* compute than its peers (slack to absorb into);
/// `0` puts it on the critical path.
pub fn probe(
    ranks: u32,
    iters: u32,
    compute_ms: u64,
    victim_slack_ms: u64,
    residency: SimDuration,
    offset: SimTime,
) -> AbsorptionPoint {
    assert!(ranks >= 2, "need at least two ranks for a barrier to matter");
    #[expect(clippy::expect_used, reason = "shape is valid by construction (ranks >= 2, rpn 1)")]
    let spec = ClusterSpec::wyeast(ranks, 1, false).expect("valid shape");
    let network = NetworkParams::gigabit_cluster();
    let progs = bsp_programs(ranks, iters, compute_ms, -(victim_slack_ms as i64));

    let quiet: Vec<NodeState> = (0..ranks)
        .map(|_| NodeState {
            schedule: FreezeSchedule::none(),
            effects: SmiSideEffects::none(),
            online_cpus: 4,
            per_core: Vec::new(),
        })
        .collect();
    #[expect(clippy::expect_used, reason = "the BSP job is matched by construction")]
    let base = mpi_sim::run(&spec, &quiet, &progs, &network).expect("valid job").seconds();

    let one_shot = FreezeSchedule::periodic(PeriodicFreeze {
        first_trigger: offset,
        // Far beyond any run: exactly one window fires.
        period: SimDuration::from_secs(1_000_000),
        durations: DurationModel::Fixed(residency),
        policy: TriggerPolicy::SkipWhileFrozen,
        seed: 0,
    });
    let mut noisy = Vec::with_capacity(ranks as usize);
    noisy.push(NodeState::uniform(one_shot, SmiSideEffects::none(), 4));
    for _ in 1..ranks {
        noisy.push(NodeState {
            schedule: FreezeSchedule::none(),
            effects: SmiSideEffects::none(),
            online_cpus: 4,
            per_core: Vec::new(),
        });
    }
    #[expect(clippy::expect_used, reason = "the BSP job is matched by construction")]
    let perturbed = mpi_sim::run(&spec, &noisy, &progs, &network).expect("valid job").seconds();
    let extra_ms = (perturbed - base) * 1e3;
    AbsorptionPoint {
        victim: 0,
        offset_ms: offset.as_millis_f64(),
        extra_ms,
        transfer_ratio: extra_ms / residency.as_millis_f64(),
    }
}

/// Sweep the freeze offset across the run and report the profile.
pub fn absorption_profile(
    ranks: u32,
    iters: u32,
    compute_ms: u64,
    victim_slack_ms: u64,
    residency: SimDuration,
    probes: u32,
) -> Vec<AbsorptionPoint> {
    assert!(probes >= 1);
    let run_ms = iters as u64 * compute_ms;
    (0..probes)
        .map(|i| {
            let offset = SimTime::from_millis(run_ms * i as u64 / probes as u64 + 1);
            probe(ranks, iters, compute_ms, victim_slack_ms, residency, offset)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_path_noise_is_fully_amplified() {
        // Victim on the critical path (no slack): the barrier makes every
        // rank wait out the entire freeze.
        let p = probe(4, 10, 100, 0, SimDuration::from_millis(50), SimTime::from_millis(30));
        assert!(
            (0.95..1.1).contains(&p.transfer_ratio),
            "transfer ratio {} (extra {} ms)",
            p.transfer_ratio,
            p.extra_ms
        );
    }

    #[test]
    fn slack_absorbs_noise_completely() {
        // Victim has 60 ms of slack per 100 ms iteration; a 50 ms freeze
        // disappears into it.
        let p = probe(4, 10, 100, 60, SimDuration::from_millis(50), SimTime::from_millis(5));
        assert!(
            p.transfer_ratio < 0.1,
            "transfer ratio {} should be ~0 (extra {} ms)",
            p.transfer_ratio,
            p.extra_ms
        );
    }

    #[test]
    fn partial_slack_absorbs_partially() {
        // 20 ms slack against a 50 ms freeze: ~30 ms should leak through.
        let p = probe(4, 10, 100, 20, SimDuration::from_millis(50), SimTime::from_millis(5));
        assert!(
            (0.4..0.8).contains(&p.transfer_ratio),
            "transfer ratio {} (extra {} ms)",
            p.transfer_ratio,
            p.extra_ms
        );
    }

    #[test]
    fn profile_is_flat_for_critical_victim() {
        // With no slack, every offset transfers fully — the sensitive
        // window is the whole run.
        let profile = absorption_profile(4, 10, 100, 0, SimDuration::from_millis(40), 8);
        for p in &profile {
            assert!(p.transfer_ratio > 0.9, "offset {} ratio {}", p.offset_ms, p.transfer_ratio);
        }
    }

    #[test]
    fn late_noise_past_the_run_does_nothing() {
        let p = probe(4, 5, 100, 0, SimDuration::from_millis(50), SimTime::from_secs(100));
        assert!(p.extra_ms.abs() < 1.0, "extra {} ms", p.extra_ms);
    }
}
