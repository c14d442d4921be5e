//! `NodeExecutor::execute` against a frozen copy of its earlier form.
//!
//! The earlier executor ran `advance` and then `span_stats` from the
//! segment start on every fixed-point iteration; the current one gets
//! both from one walk over the windows (`advance_stats`) and returns
//! early when no window touches the segment. Every record the laboratory
//! produces goes through it, so both must agree on every `ExecOutcome`
//! field for any schedule, side-effect model, intensity and HTT setting,
//! including inputs that exhaust the iteration cap.

use machine::{ExecOutcome, NodeExecutor, SmiSideEffects};
use quickprop::{check, Gen};
use sim_core::{
    DurationModel, FreezeSchedule, PeriodicFreeze, SimDuration, SimTime, TriggerPolicy,
};

/// The earlier `NodeExecutor::execute`, verbatim, with already-clamped
/// knobs (`advance` itself is checked against the earlier walk in
/// `sim-core`'s freeze properties). Also returns how many fixed-point
/// iterations ran (17 means the cap of 16 was hit without converging).
fn reference_execute(
    s: &FreezeSchedule,
    effects: SmiSideEffects,
    online_cpus: u32,
    memory_intensity: f64,
    comm_intensity: f64,
    start: SimTime,
    work: SimDuration,
) -> (ExecOutcome, usize) {
    let per_window = effects.per_window_cost(online_cpus, memory_intensity);
    let frozen_frac = effects.per_frozen_fraction(comm_intensity);
    let mut total_work = work;
    let mut end = s.advance(start, total_work);
    let mut iterations = 17;
    for i in 0..16 {
        let (windows, frozen) = s.span_stats(start, end);
        let unfrozen = end.since(start).saturating_sub(frozen);
        let residency_loss = frozen.mul_f64(frozen_frac).min(unfrozen.mul_f64(effects.loss_cap));
        let with_overhead = work + per_window * windows as u64 + residency_loss;
        let new_end = s.advance(start, with_overhead);
        if new_end == end && with_overhead == total_work {
            iterations = i + 1;
            break;
        }
        total_work = with_overhead;
        end = new_end;
    }
    let (windows, frozen) = s.span_stats(start, end);
    let out = ExecOutcome {
        wall_end: end,
        wall: end.since(start),
        frozen,
        windows,
        overhead_work: total_work - work,
    };
    (out, iterations)
}

/// Periodic schedules under every policy, from the paper's one long SMI
/// per second to sub-millisecond periods, explicit lists with
/// back-to-back windows, and slowdown windows. Residency stays below
/// three quarters of the period so every segment ends. Also returns the
/// typical window spacing, which scales the overheads and work drawn
/// against the schedule.
fn schedule(g: &mut Gen) -> (FreezeSchedule, u64) {
    let (base, spacing) = if g.u64(0..4) > 0 {
        let period = match g.u64(0..3) {
            0 => 1_000_000_000,
            1 => g.u64(1_000_000..2_000_000_000),
            _ => g.u64(100_000..5_000_000),
        };
        let lo = g.u64(0..period / 2);
        let hi = lo + g.u64(0..period / 4 + 1);
        let min_gap = SimDuration::from_nanos(g.u64(1..200_000));
        let policy = g.pick(&[
            TriggerPolicy::SkipWhileFrozen,
            TriggerPolicy::DeferToExit { min_gap },
            TriggerPolicy::RearmAfterExit,
        ]);
        let s = FreezeSchedule::periodic(PeriodicFreeze {
            first_trigger: SimTime::from_nanos(g.u64(0..period)),
            period: SimDuration::from_nanos(period),
            durations: DurationModel::Uniform {
                lo: SimDuration::from_nanos(lo),
                hi: SimDuration::from_nanos(hi),
            },
            policy,
            seed: g.any_u64(),
        });
        (s, period)
    } else {
        let mut windows = Vec::new();
        let mut t = g.u64(0..20_000_000);
        for _ in 0..g.usize(0..60) {
            let len = g.u64(1..120_000_000);
            windows.push((SimTime::from_nanos(t), SimTime::from_nanos(t + len)));
            t += len + if g.bool() { 0 } else { g.u64(1..400_000_000) };
        }
        (FreezeSchedule::from_windows(windows).expect("sorted, disjoint windows"), 100_000_000)
    };
    if g.u64(0..5) == 0 {
        (base.with_slowdown(g.u32(1..1000)).expect("valid factor"), spacing)
    } else {
        (base, spacing)
    }
}

/// Side effects as the SMI driver sets them for HTT on or off (herding
/// only with HTT, backlog only without), or any in-domain model. The
/// per-window cost reaches up to 30 % of the window spacing: enough that
/// some fixed points run past the iteration cap, bounded so a diverging
/// one stays small.
fn effects(g: &mut Gen, htt: bool, online_cpus: u32, spacing: u64) -> SmiSideEffects {
    let frac = |g: &mut Gen| g.u64(0..1002).min(1000) as f64 / 1000.0;
    let per_cpu = |g: &mut Gen, share: u64| g.u64(0..spacing / share / online_cpus as u64 + 1);
    let fx = SmiSideEffects {
        rendezvous_per_cpu: SimDuration::from_nanos(per_cpu(g, 200)),
        refill_per_cpu: SimDuration::from_nanos(match g.u64(0..3) {
            0 => 0,
            1 => per_cpu(g, 1000),
            _ => per_cpu(g, 3),
        }),
        herd_frac: frac(g),
        backlog_frac: frac(g),
        loss_cap: frac(g) / 5.0,
    };
    match g.u64(0..3) {
        0 => fx,
        _ if htt => SmiSideEffects { backlog_frac: 0.0, ..fx },
        _ => SmiSideEffects { herd_frac: 0.0, ..fx },
    }
}

fn assert_same(got: &ExecOutcome, want: &ExecOutcome, what: &str) {
    assert_eq!(got.wall_end, want.wall_end, "wall_end: {what}");
    assert_eq!(got.wall, want.wall, "wall: {what}");
    assert_eq!(got.frozen, want.frozen, "frozen: {what}");
    assert_eq!(got.windows, want.windows, "windows: {what}");
    assert_eq!(got.overhead_work, want.overhead_work, "overhead_work: {what}");
}

#[test]
fn execute_matches_the_earlier_fixed_point() {
    let capped = std::cell::Cell::new(0usize);
    let early = std::cell::Cell::new(0usize);
    check("execute_matches_the_earlier_fixed_point", 512, |g| {
        let (s, spacing) = schedule(g);
        let reference = s.clone();
        let htt = g.bool();
        let online_cpus = if htt { 8 } else { g.pick(&[1, 2, 4]) };
        let fx = effects(g, htt, online_cpus, spacing);
        let mi = g.u64(0..1001) as f64 / 1000.0;
        let ci = g.u64(0..1001) as f64 / 1000.0;
        let ex = NodeExecutor::new(&s, fx, online_cpus, mi, ci);
        // One executor serves a rank's whole program: segments in order,
        // with message waits between them.
        let mut t = SimTime::from_nanos(g.u64(0..2_000_000_000));
        for _ in 0..6 {
            let work = SimDuration::from_nanos(match g.u64(0..4) {
                0 => g.u64(0..2_000),
                1 => g.u64(0..spacing / 2),
                _ => g.u64(0..spacing * 50),
            });
            let got = ex.execute(t, work);
            let (want, iterations) =
                reference_execute(&reference, fx, online_cpus, mi, ci, t, work);
            let what = format!("{work:?} at {t:?}, {fx:?}, {online_cpus} cpus, mi {mi} ci {ci}");
            assert_same(&got, &want, &what);
            capped.set(capped.get() + (iterations > 16) as usize);
            early.set(early.get() + (want.windows == 0 && want.frozen.is_zero()) as usize);
            t = got.wall_end + SimDuration::from_nanos(g.u64(0..spacing));
        }
    });
    assert!(capped.get() > 0, "no case reached the 16-iteration cap");
    assert!(early.get() > 0, "no case missed every window");
}

/// Zero-length windows (a `Fixed(ZERO)` periodic schedule) freeze
/// nothing but still cost their per-window overhead. Work that ends
/// exactly on a trigger must count that trigger once the overhead pushes
/// the end past it, as the earlier fixed point does.
#[test]
fn zero_length_windows_at_the_segment_end_are_counted() {
    let ms = SimDuration::from_millis;
    let s = FreezeSchedule::periodic(PeriodicFreeze {
        first_trigger: SimTime::from_millis(1),
        period: ms(1),
        durations: DurationModel::Fixed(SimDuration::ZERO),
        policy: TriggerPolicy::SkipWhileFrozen,
        seed: 3,
    });
    let reference = s.clone();
    let fx = SmiSideEffects {
        rendezvous_per_cpu: SimDuration::from_micros(50),
        refill_per_cpu: SimDuration::ZERO,
        herd_frac: 0.0,
        backlog_frac: 0.0,
        loss_cap: 0.0,
    };
    let ex = NodeExecutor::new(&s, fx, 4, 0.0, 0.0);
    for start_ms in [0, 1, 3] {
        for work_ms in 1..6 {
            let (start, work) = (SimTime::from_millis(start_ms), ms(work_ms));
            let got = ex.execute(start, work);
            let (want, _) = reference_execute(&reference, fx, 4, 0.0, 0.0, start, work);
            assert_same(&got, &want, &format!("{work:?} at {start:?}"));
            // Once overhead pushes the end past `start + work`, the trigger
            // there is inside the span.
            if !got.overhead_work.is_zero() {
                assert!(got.windows as u64 >= work_ms, "trigger at the end counted: {got:?}");
            }
        }
    }
}
