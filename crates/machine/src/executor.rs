//! Mapping node-local work to wall time under an SMI freeze schedule.
//!
//! Because an SMI is broadcast — every logical CPU of the node enters SMM
//! together — freezing commutes with scheduling, and a node-local run can
//! be simulated in work time and mapped through the schedule afterwards.
//! [`NodeExecutor`] performs that mapping and adds the two *second-order*
//! SMI costs the paper's HTT results point at:
//!
//! * **rendezvous overhead** — SMM entry waits for all logical CPUs to
//!   arrive and save state (microcode save/restore per hardware thread),
//!   so each window is slightly longer with more logical CPUs online;
//! * **cache refill** — the SMM handler's working set evicts host cache
//!   lines, so after every window the node re-executes some work it had
//!   effectively lost; the cost grows with online logical CPUs (more
//!   contexts refilling a shared hierarchy) and with the workload's
//!   memory intensity.
//!
//! Both are expressed as *extra work* per freeze window, and the total is
//! found by a short fixed-point iteration (more wall time ⇒ more windows
//! ⇒ more refill work ⇒ more wall time; the iteration converges because
//! per-window overhead is far below the trigger period). A segment no
//! window touches needs no iteration at all, and each iteration is one
//! walk over the windows that yields the end and its window statistics
//! together.

use sim_core::{FreezeSchedule, SimDuration, SimError, SimTime};

/// Clamp an intensity knob into its documented `[0, 1]` domain, mapping
/// NaN to 0 (the validity layer reports out-of-domain values as typed
/// errors upstream; the arithmetic here just stays total).
fn clamp_intensity(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v.clamp(0.0, 1.0)
    }
}

/// Is `v` a finite fraction usable as an intensity or loss fraction?
fn valid_fraction(v: f64) -> bool {
    v.is_finite() && (0.0..=1.0).contains(&v)
}

/// Per-window SMI side-effect model.
///
/// The per-window cost has two fixed components (rendezvous, refill) and
/// two residency-proportional components that encode the paper's
/// HTT-under-SMI observations (Tables 4–5):
///
/// * `herd_frac` — with HTT enabled and the ranks saturating the physical
///   cores, SMM exit releases all logical CPUs at once; until the load
///   balancer settles, ranks can be co-scheduled on sibling threads and
///   lose a fraction of the residency's worth of work. Zero with HTT off
///   (there are no siblings to misplace onto).
/// * `backlog_frac` — after a long window the node faces a backlog of
///   deferred interrupt/softirq and MPI progress work proportional to the
///   residency and the workload's communication intensity. With HTT off
///   this work preempts the ranks; with HTT on, idle sibling threads
///   absorb it (set it to zero). This is the mechanism by which HTT can
///   *help* a communication-heavy benchmark under long SMIs.
#[derive(Clone, Copy, Debug, jsonio::ToJson)]
pub struct SmiSideEffects {
    /// SMM entry/exit rendezvous cost per online logical CPU, added to
    /// the *effective* residency of every window.
    pub rendezvous_per_cpu: SimDuration,
    /// Host work lost to cache refill after each window, per online
    /// logical CPU, at memory intensity 1.0. Scaled by the workload's
    /// memory intensity in `[0, 1]`.
    pub refill_per_cpu: SimDuration,
    /// Fraction of each window's residency lost to post-exit scheduler
    /// herding onto SMT siblings (HTT on, cores saturated).
    pub herd_frac: f64,
    /// Fraction of each window's residency, scaled by the workload's
    /// communication intensity, lost to deferred interrupt/progress
    /// backlog (HTT off).
    pub backlog_frac: f64,
    /// Upper bound on the residency-proportional losses, as a fraction of
    /// the node's *unfrozen* time (default [`RESIDENCY_LOSS_CAP`]). At
    /// extreme SMI frequencies the host never settles and recovery work
    /// saturates at this share of whatever host time remains; how bad the
    /// saturation is depends on what the balancer and softirq backlog do
    /// in each particular run, so experiment drivers may jitter it.
    pub loss_cap: f64,
}

impl Default for SmiSideEffects {
    fn default() -> Self {
        SmiSideEffects {
            rendezvous_per_cpu: SimDuration::from_micros(8),
            refill_per_cpu: SimDuration::from_micros(450),
            herd_frac: 0.0,
            backlog_frac: 0.0,
            loss_cap: RESIDENCY_LOSS_CAP,
        }
    }
}

impl SmiSideEffects {
    /// No second-order effects: windows freeze exactly their residency.
    pub fn none() -> Self {
        SmiSideEffects {
            rendezvous_per_cpu: SimDuration::ZERO,
            refill_per_cpu: SimDuration::ZERO,
            herd_frac: 0.0,
            backlog_frac: 0.0,
            loss_cap: RESIDENCY_LOSS_CAP,
        }
    }

    /// The fixed extra work per freeze window for a node with
    /// `online_cpus` logical CPUs running a workload of the given memory
    /// intensity (`0..=1`).
    pub fn per_window_cost(&self, online_cpus: u32, memory_intensity: f64) -> SimDuration {
        let rendezvous = self.rendezvous_per_cpu * online_cpus as u64;
        let refill =
            (self.refill_per_cpu * online_cpus as u64).mul_f64(clamp_intensity(memory_intensity));
        rendezvous + refill
    }

    /// The residency-proportional extra work, per unit of frozen time,
    /// for a workload of the given communication intensity (`0..=1`).
    pub fn per_frozen_fraction(&self, comm_intensity: f64) -> f64 {
        self.herd_frac.max(0.0) + self.backlog_frac.max(0.0) * clamp_intensity(comm_intensity)
    }

    /// Check every fraction is finite and within its documented domain.
    pub fn validate(&self) -> Result<(), SimError> {
        for (name, v) in [
            ("herd_frac", self.herd_frac),
            ("backlog_frac", self.backlog_frac),
            ("loss_cap", self.loss_cap),
        ] {
            if !valid_fraction(v) {
                return Err(SimError::invalid(
                    "SMI side effects",
                    format!("{name} = {v} is outside [0, 1]"),
                ));
            }
        }
        Ok(())
    }
}

/// Default upper bound on residency-proportional overhead as a fraction
/// of the node's *unfrozen* time. At extreme SMI frequencies the
/// scheduler-herd and backlog costs saturate — the host simply never
/// settles — rather than compounding without bound.
pub const RESIDENCY_LOSS_CAP: f64 = 0.08;

/// Wall-time outcome of running some work on a frozen node.
#[derive(Clone, Debug, jsonio::ToJson)]
pub struct ExecOutcome {
    /// Wall instant the work completed.
    pub wall_end: SimTime,
    /// Wall duration from start to completion.
    pub wall: SimDuration,
    /// Time spent frozen in SMM during the run.
    pub frozen: SimDuration,
    /// Number of SMM windows that began during the run.
    pub windows: usize,
    /// Extra work injected by rendezvous + refill.
    pub overhead_work: SimDuration,
}

/// Executes work quantities against a node's freeze schedule.
#[derive(Debug)]
pub struct NodeExecutor<'a> {
    schedule: &'a FreezeSchedule,
    effects: SmiSideEffects,
    online_cpus: u32,
    memory_intensity: f64,
    comm_intensity: f64,
}

impl<'a> NodeExecutor<'a> {
    /// Build an executor for a node. `memory_intensity` scales the cache
    /// refill cost; `comm_intensity` scales the post-window interrupt
    /// backlog cost.
    /// Out-of-domain knobs are clamped (0 CPUs becomes 1, intensities to
    /// `[0, 1]`) so the executor is total; [`NodeExecutor::try_new`] gives
    /// the typed rejection instead.
    pub fn new(
        schedule: &'a FreezeSchedule,
        effects: SmiSideEffects,
        online_cpus: u32,
        memory_intensity: f64,
        comm_intensity: f64,
    ) -> Self {
        NodeExecutor {
            schedule,
            effects,
            online_cpus: online_cpus.max(1),
            memory_intensity: clamp_intensity(memory_intensity),
            comm_intensity: clamp_intensity(comm_intensity),
        }
    }

    /// Like [`NodeExecutor::new`], but rejects malformed inputs with a
    /// typed error instead of clamping — the simulation engine's entry
    /// point into node execution.
    pub fn try_new(
        schedule: &'a FreezeSchedule,
        effects: SmiSideEffects,
        online_cpus: u32,
        memory_intensity: f64,
        comm_intensity: f64,
    ) -> Result<Self, SimError> {
        if online_cpus == 0 {
            return Err(SimError::invalid("node", "zero online CPUs"));
        }
        effects.validate()?;
        for (name, v) in
            [("memory intensity", memory_intensity), ("comm intensity", comm_intensity)]
        {
            if !valid_fraction(v) {
                return Err(SimError::invalid("node", format!("{name} {v} is outside [0, 1]")));
            }
        }
        if let Some(cfg) = schedule.config() {
            cfg.validate()?;
        }
        Ok(NodeExecutor { schedule, effects, online_cpus, memory_intensity, comm_intensity })
    }

    /// The freeze schedule this executor maps work through.
    pub fn schedule(&self) -> &'a FreezeSchedule {
        self.schedule
    }

    /// Map `work` starting at wall `start` to its wall completion,
    /// accounting for per-window and residency-proportional overhead via
    /// fixed-point iteration.
    pub fn execute(&self, start: SimTime, work: SimDuration) -> ExecOutcome {
        let (mut end, mut windows, mut frozen) = self.schedule.advance_stats(start, work);
        let mut total_work = work;
        if windows > 0 || !frozen.is_zero() {
            let per_window = self.effects.per_window_cost(self.online_cpus, self.memory_intensity);
            let frozen_frac = self.effects.per_frozen_fraction(self.comm_intensity);
            for _ in 0..16 {
                // Residency-proportional losses cannot exceed the host time
                // actually available: post-SMI recovery is bounded by
                // RESIDENCY_LOSS_CAP of the unfrozen time (which also keeps
                // the fixed point contractive at extreme duty cycles).
                let unfrozen = end.since(start).saturating_sub(frozen);
                let residency_loss =
                    frozen.mul_f64(frozen_frac).min(unfrozen.mul_f64(self.effects.loss_cap));
                let with_overhead = work + per_window * windows as u64 + residency_loss;
                if with_overhead == total_work {
                    break;
                }
                (end, windows, frozen) = self.schedule.advance_stats(start, with_overhead);
                total_work = with_overhead;
            }
        }
        ExecOutcome {
            wall_end: end,
            wall: end.since(start),
            frozen,
            windows,
            overhead_work: total_work - work,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{DurationModel, PeriodicFreeze, TriggerPolicy};

    fn long_1hz(seed: u64) -> FreezeSchedule {
        FreezeSchedule::periodic(PeriodicFreeze {
            first_trigger: SimTime::from_millis(500),
            period: SimDuration::from_secs(1),
            durations: DurationModel::Fixed(SimDuration::from_millis(105)),
            policy: TriggerPolicy::SkipWhileFrozen,
            seed,
        })
    }

    #[test]
    fn no_noise_no_overhead() {
        let s = FreezeSchedule::none();
        let ex = NodeExecutor::new(&s, SmiSideEffects::default(), 8, 0.5, 0.5);
        let out = ex.execute(SimTime::ZERO, SimDuration::from_secs(10));
        assert_eq!(out.wall, SimDuration::from_secs(10));
        assert_eq!(out.frozen, SimDuration::ZERO);
        assert_eq!(out.windows, 0);
        assert_eq!(out.overhead_work, SimDuration::ZERO);
    }

    #[test]
    fn long_smi_inflates_by_roughly_duty_cycle() {
        let s = long_1hz(1);
        let ex = NodeExecutor::new(&s, SmiSideEffects::none(), 4, 0.0, 0.0);
        let out = ex.execute(SimTime::ZERO, SimDuration::from_secs(100));
        let inflation = out.wall.as_secs_f64() / 100.0;
        // 105ms per second of wall time => ~10.5% longer wall than work.
        assert!((1.10..1.13).contains(&inflation), "inflation {inflation}");
    }

    #[test]
    fn refill_overhead_grows_with_logical_cpus() {
        let s4 = long_1hz(2);
        let s8 = long_1hz(2);
        let fx = SmiSideEffects::default();
        let out4 = NodeExecutor::new(&s4, fx, 4, 1.0, 0.0)
            .execute(SimTime::ZERO, SimDuration::from_secs(30));
        let out8 = NodeExecutor::new(&s8, fx, 8, 1.0, 0.0)
            .execute(SimTime::ZERO, SimDuration::from_secs(30));
        assert!(out8.overhead_work > out4.overhead_work);
        assert!(out8.wall > out4.wall);
    }

    #[test]
    fn memory_intensity_scales_refill_only() {
        let s = long_1hz(3);
        let fx = SmiSideEffects {
            rendezvous_per_cpu: SimDuration::ZERO,
            refill_per_cpu: SimDuration::from_micros(500),
            ..SmiSideEffects::none()
        };
        let compute = NodeExecutor::new(&s, fx, 8, 0.0, 0.0)
            .execute(SimTime::ZERO, SimDuration::from_secs(20));
        let memory = NodeExecutor::new(&s, fx, 8, 1.0, 0.0)
            .execute(SimTime::ZERO, SimDuration::from_secs(20));
        assert_eq!(compute.overhead_work, SimDuration::ZERO);
        assert!(memory.overhead_work > SimDuration::ZERO);
    }

    #[test]
    fn herd_and_backlog_are_residency_proportional() {
        let htt_on =
            SmiSideEffects { herd_frac: 0.25, backlog_frac: 0.0, ..SmiSideEffects::none() };
        let htt_off =
            SmiSideEffects { herd_frac: 0.0, backlog_frac: 0.5, ..SmiSideEffects::none() };
        // Compute-bound workload (comm 0): HTT-on loses herd time, HTT-off
        // loses nothing.
        assert!((htt_on.per_frozen_fraction(0.0) - 0.25).abs() < 1e-12);
        assert_eq!(htt_off.per_frozen_fraction(0.0), 0.0);
        // Comm-heavy workload: HTT-off pays the backlog.
        assert!((htt_off.per_frozen_fraction(0.8) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn herd_cost_shows_up_in_wall_time() {
        let s = long_1hz(7);
        let herd = SmiSideEffects { herd_frac: 0.3, ..SmiSideEffects::none() };
        let base = NodeExecutor::new(&s, SmiSideEffects::none(), 8, 0.0, 0.0)
            .execute(SimTime::ZERO, SimDuration::from_secs(20));
        let herded = NodeExecutor::new(&s, herd, 8, 0.0, 0.0)
            .execute(SimTime::ZERO, SimDuration::from_secs(20));
        // ~0.3 x 105ms extra per window.
        let extra = herded.wall.as_secs_f64() - base.wall.as_secs_f64();
        let per_window = extra / herded.windows as f64;
        assert!((0.025..0.045).contains(&per_window), "per-window extra {per_window}");
    }

    #[test]
    fn fixed_point_converges_and_counts_windows() {
        let s = long_1hz(4);
        let ex = NodeExecutor::new(&s, SmiSideEffects::default(), 8, 1.0, 0.0);
        let out = ex.execute(SimTime::ZERO, SimDuration::from_secs(10));
        // ~10s of work with ~10.5% duty: 11 windows give or take one.
        assert!((10..=13).contains(&out.windows), "windows {}", out.windows);
        // Overhead equals windows x per-window cost (no residency terms).
        let per = SmiSideEffects::default().per_window_cost(8, 1.0);
        assert_eq!(out.overhead_work, per * out.windows as u64);
    }

    #[test]
    fn try_new_rejects_malformed_nodes_with_typed_errors() {
        use sim_core::SimError;
        let s = FreezeSchedule::none();
        let fx = SmiSideEffects::none();
        assert!(matches!(
            NodeExecutor::try_new(&s, fx, 0, 0.5, 0.5),
            Err(SimError::InvalidSpec { .. })
        ));
        assert!(matches!(
            NodeExecutor::try_new(&s, fx, 4, 1.5, 0.5),
            Err(SimError::InvalidSpec { .. })
        ));
        assert!(matches!(
            NodeExecutor::try_new(&s, fx, 4, 0.5, f64::NAN),
            Err(SimError::InvalidSpec { .. })
        ));
        let bad_fx = SmiSideEffects { herd_frac: -0.2, ..SmiSideEffects::none() };
        assert!(matches!(
            NodeExecutor::try_new(&s, bad_fx, 4, 0.5, 0.5),
            Err(SimError::InvalidSpec { .. })
        ));
        assert!(NodeExecutor::try_new(&s, fx, 4, 0.5, 0.5).is_ok());
        // `new` clamps the same inputs instead of faulting.
        let clamped = NodeExecutor::new(&s, fx, 0, 2.0, f64::NAN);
        let out = clamped.execute(SimTime::ZERO, SimDuration::from_secs(1));
        assert_eq!(out.wall, SimDuration::from_secs(1));
    }

    #[test]
    fn execute_is_consistent_with_schedule_algebra() {
        let s = long_1hz(5);
        let ex = NodeExecutor::new(&s, SmiSideEffects::none(), 4, 0.0, 0.0);
        let start = SimTime::from_millis(250);
        let work = SimDuration::from_secs(7);
        let out = ex.execute(start, work);
        assert_eq!(s.work_between(start, out.wall_end), work);
        assert_eq!(out.frozen + work, out.wall);
    }
}
