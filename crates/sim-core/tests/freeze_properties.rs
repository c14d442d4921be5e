//! Property-based tests for the freeze-schedule algebra.
//!
//! These invariants are what make it sound to run node-local simulations
//! in work time and map the results through the schedule afterwards (see
//! `machine::NodeExecutor`), so they are tested exhaustively here.

use quickprop::{check, Gen};
use sim_core::{
    DurationModel, FreezeSchedule, PeriodicFreeze, SimDuration, SimTime, TriggerPolicy,
};

/// An arbitrary (but sane) periodic schedule.
fn schedule(g: &mut Gen) -> FreezeSchedule {
    let period = g.u64(1_000_000..2_000_000_000); // 1ms .. 2s
    let phase = g.u64(0..2_000_000_000);
    let lo = g.u64(1_000..500_000_000); // 1us .. 500ms
    let spread = g.u64(0..200_000_000);
    let seed = g.any_u64();
    let policy = g.pick(&[
        TriggerPolicy::SkipWhileFrozen,
        TriggerPolicy::DeferToExit { min_gap: SimDuration::from_micros(100) },
        TriggerPolicy::RearmAfterExit,
    ]);
    FreezeSchedule::periodic(PeriodicFreeze {
        first_trigger: SimTime::from_nanos(phase),
        period: SimDuration::from_nanos(period),
        durations: DurationModel::Uniform {
            lo: SimDuration::from_nanos(lo),
            hi: SimDuration::from_nanos(lo + spread),
        },
        policy,
        seed,
    })
}

#[test]
fn advance_zero_is_identity() {
    check("advance_zero_is_identity", 128, |g| {
        let s = schedule(g);
        let t = SimTime::from_nanos(g.u64(0..10_000_000_000));
        assert_eq!(s.advance(t, SimDuration::ZERO), t);
    });
}

#[test]
fn wall_time_dominates_work_time() {
    check("wall_time_dominates_work_time", 128, |g| {
        let s = schedule(g);
        let t = SimTime::from_nanos(g.u64(0..5_000_000_000));
        let w = SimDuration::from_nanos(g.u64(0..5_000_000_000));
        let end = s.advance(t, w);
        assert!(end >= t + w, "end {end:?} < start {t:?} + work {w:?}");
    });
}

#[test]
fn advance_is_additive() {
    check("advance_is_additive", 128, |g| {
        let s = schedule(g);
        let t = SimTime::from_nanos(g.u64(0..3_000_000_000));
        let a = SimDuration::from_nanos(g.u64(0..2_000_000_000));
        let b = SimDuration::from_nanos(g.u64(0..2_000_000_000));
        let two_step = s.advance(s.advance(t, a), b);
        let one_step = s.advance(t, a + b);
        assert_eq!(two_step, one_step);
    });
}

#[test]
fn advance_is_monotone_in_work() {
    check("advance_is_monotone_in_work", 128, |g| {
        let s = schedule(g);
        let t = SimTime::from_nanos(g.u64(0..3_000_000_000));
        let a = g.u64(0..2_000_000_000);
        let extra = g.u64(1..1_000_000_000);
        let small = SimDuration::from_nanos(a);
        let large = SimDuration::from_nanos(a + extra);
        assert!(s.advance(t, large) > s.advance(t, small));
    });
}

#[test]
fn advance_is_monotone_in_start() {
    check("advance_is_monotone_in_start", 128, |g| {
        let s = schedule(g);
        let t = g.u64(0..3_000_000_000);
        let dt = g.u64(0..2_000_000_000);
        let w = SimDuration::from_nanos(g.u64(1..2_000_000_000));
        let t1 = SimTime::from_nanos(t);
        let t2 = SimTime::from_nanos(t + dt);
        assert!(s.advance(t2, w) >= s.advance(t1, w));
    });
}

#[test]
fn work_between_inverts_advance() {
    check("work_between_inverts_advance", 128, |g| {
        let s = schedule(g);
        let t = SimTime::from_nanos(g.u64(0..3_000_000_000));
        let w = SimDuration::from_nanos(g.u64(0..3_000_000_000));
        let end = s.advance(t, w);
        assert_eq!(s.work_between(t, end), w);
    });
}

#[test]
fn frozen_plus_work_equals_interval() {
    check("frozen_plus_work_equals_interval", 128, |g| {
        let s = schedule(g);
        let a = SimTime::from_nanos(g.u64(0..5_000_000_000));
        let b = a + SimDuration::from_nanos(g.u64(0..5_000_000_000));
        let frozen = s.frozen_between(a, b);
        let work = s.work_between(a, b);
        assert_eq!(frozen + work, b.since(a));
    });
}

#[test]
fn frozen_between_is_superadditive_over_split() {
    check("frozen_between_is_superadditive_over_split", 128, |g| {
        // Frozen time is exactly additive over adjacent intervals.
        let s = schedule(g);
        let a = SimTime::from_nanos(g.u64(0..4_000_000_000));
        let m = a + SimDuration::from_nanos(g.u64(0..2_000_000_000));
        let b = m + SimDuration::from_nanos(g.u64(0..2_000_000_000));
        assert_eq!(s.frozen_between(a, b), s.frozen_between(a, m) + s.frozen_between(m, b));
    });
}

#[test]
fn unfreeze_is_idempotent_and_unfrozen() {
    check("unfreeze_is_idempotent_and_unfrozen", 128, |g| {
        let s = schedule(g);
        let t = SimTime::from_nanos(g.u64(0..5_000_000_000));
        let u = s.unfreeze(t);
        assert!(u >= t);
        assert!(!s.is_frozen(u));
        assert_eq!(s.unfreeze(u), u);
    });
}

#[test]
fn windows_are_disjoint_and_sorted() {
    check("windows_are_disjoint_and_sorted", 128, |g| {
        let s = schedule(g);
        let horizon = g.u64(1..20_000_000_000);
        let wins = s.windows_between(SimTime::ZERO, SimTime::from_nanos(horizon));
        for w in wins.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:?} then {:?}", w[0], w[1]);
        }
        for &(st, en) in &wins {
            assert!(st < en, "empty or inverted window ({st:?},{en:?})");
        }
    });
}

#[test]
fn clone_is_observationally_equal() {
    check("clone_is_observationally_equal", 128, |g| {
        let s = schedule(g);
        let c = s.clone();
        let t = SimTime::from_nanos(g.u64(0..10_000_000_000));
        assert_eq!(s.is_frozen(t), c.is_frozen(t));
        assert_eq!(
            s.advance(t, SimDuration::from_millis(10)),
            c.advance(t, SimDuration::from_millis(10))
        );
    });
}

#[test]
fn no_noise_schedule_is_identity() {
    check("no_noise_schedule_is_identity", 128, |g| {
        let s = FreezeSchedule::none();
        let t = SimTime::from_nanos(g.u64(0..u64::MAX / 4));
        let w = SimDuration::from_nanos(g.u64(0..u64::MAX / 4));
        assert_eq!(s.advance(t, w), t + w);
        assert_eq!(s.work_between(t, t + w), w);
    });
}

/// Any kind of schedule the engine can meet: periodic under each trigger
/// policy (sometimes with zero-length windows), an explicit window list
/// (sometimes with back-to-back windows), and either of those turned
/// into slowdown windows.
fn any_schedule(g: &mut Gen) -> FreezeSchedule {
    let base = if g.bool() {
        let s = schedule(g);
        if g.u64(0..8) == 0 {
            // Zero-length windows: a legal, if odd, periodic configuration.
            let cfg = s.config().expect("periodic").clone();
            FreezeSchedule::periodic(PeriodicFreeze {
                durations: DurationModel::Uniform {
                    lo: SimDuration::ZERO,
                    hi: SimDuration::from_nanos(g.u64(0..3)),
                },
                ..cfg
            })
        } else {
            s
        }
    } else {
        let mut windows = Vec::new();
        let mut t = g.u64(0..50_000_000);
        for _ in 0..g.usize(0..40) {
            let len = g.u64(1..200_000_000);
            windows.push((SimTime::from_nanos(t), SimTime::from_nanos(t + len)));
            // A third of the windows start exactly where the last ended.
            t += len + if g.u64(0..3) == 0 { 0 } else { g.u64(1..300_000_000) };
        }
        FreezeSchedule::from_windows(windows).expect("sorted, disjoint, non-empty windows")
    };
    if g.u64(0..4) == 0 {
        base.with_slowdown(g.u32(1..1000)).expect("valid factor")
    } else {
        base
    }
}

/// The work-to-wall mapping as one loop over the public window queries:
/// resume at the end of any window containing `t`, run to the next
/// window that starts after `t`, repeat. Slowdown windows progress at
/// the anchored-floor rate instead of stopping.
fn reference_advance(s: &FreezeSchedule, start: SimTime, work: SimDuration) -> SimTime {
    if work.is_zero() {
        return start;
    }
    let next_start = |t| s.next_window_after(t).map_or(SimTime::MAX, |(ws, _)| ws);
    let mut t = start;
    let mut remaining = work.0;
    let milli = s.slowdown_milli() as u128;
    if milli == 0 {
        loop {
            t = s.unfreeze(t);
            let gap_end = next_start(t);
            let avail = gap_end.since(t).0;
            if avail >= remaining {
                return t + SimDuration(remaining);
            }
            remaining -= avail;
            t = gap_end;
        }
    }
    let done = |x: u64| ((x as u128 * milli) / 1000) as u64;
    loop {
        if let Some((ws, we)) = s.window_containing(t) {
            let done_t = done(t.0 - ws.0);
            let avail = done(we.0 - ws.0) - done_t;
            if avail >= remaining {
                let target = (done_t + remaining) as u128;
                return SimTime(ws.0 + (target * 1000).div_ceil(milli) as u64);
            }
            remaining -= avail;
            t = we;
        } else {
            let gap_end = next_start(t);
            let avail = gap_end.since(t).0;
            if avail >= remaining {
                return t + SimDuration(remaining);
            }
            remaining -= avail;
            t = gap_end;
        }
    }
}

#[test]
fn advance_stats_is_advance_then_span_stats() {
    check("advance_stats_is_advance_then_span_stats", 512, |g| {
        let s = any_schedule(g);
        let reference = s.clone();
        for _ in 0..8 {
            let start = SimTime::from_nanos(g.u64(0..6_000_000_000));
            let work = SimDuration::from_nanos(match g.u64(0..4) {
                0 => 0,
                1 => g.u64(1..1_000),
                _ => g.u64(1..3_000_000_000),
            });
            let (end, windows, frozen) = s.advance_stats(start, work);
            assert_eq!(end, s.advance(start, work));
            assert_eq!((windows, frozen), s.span_stats(start, end), "[{start:?}, {end:?})");
            assert_eq!(end, reference_advance(&reference, start, work), "{start:?} + {work:?}");
        }
    });
}

/// One query of a simulated rank against a shared schedule.
fn query(
    s: &FreezeSchedule,
    kind: u64,
    t: SimTime,
    w: SimDuration,
) -> (SimTime, usize, SimDuration) {
    let none = SimDuration::ZERO;
    match kind {
        0 => s.advance_stats(t, w),
        1 => (s.unfreeze(t), s.is_frozen(t) as usize, none),
        2 => match s.window_containing(t) {
            Some((ws, we)) => (ws, 1, we.since(ws)),
            None => (SimTime::ZERO, 0, none),
        },
        3 => (s.advance(t, w), 0, none),
        _ => {
            let (n, f) = s.span_stats(t, t + w);
            (SimTime::ZERO, n, f)
        }
    }
}

#[test]
fn cached_gap_is_invisible() {
    check("cached_gap_is_invisible", 512, |g| {
        let s = any_schedule(g);
        let fresh = s.clone();
        let probe = s.clone();
        // Four ranks of one node, each with its own near-monotone clock,
        // interleaved in random order: their queries land out of order
        // around window edges, where a gap cached by one rank is stale
        // for another.
        let mut clocks = [0u64; 4];
        for _ in 0..64 {
            let r = g.usize(0..4);
            clocks[r] += match g.u64(0..4) {
                0 => 0,
                1 => g.u64(0..1_000),
                2 => g.u64(0..50_000_000),
                _ => g.u64(0..400_000_000),
            };
            let clock = SimTime::from_nanos(clocks[r]);
            let next = probe.next_window_after(clock);
            let last = probe.windows_between(SimTime::ZERO, SimTime(clock.0 + 1)).pop();
            // Often probe right at a window's edges, or inside the last
            // window that started by the rank's clock.
            let t = match (g.u64(0..6), next, last) {
                (0, Some((ws, _)), _) => ws,
                (1, Some((_, we)), _) => we,
                (2, Some((ws, _)), _) => SimTime(ws.0 - 1),
                (3, _, Some((ws, we))) => SimTime(ws.0 + (we.0 - ws.0) / 2),
                (4, _, Some((_, we))) => we,
                _ => clock,
            };
            // Work that ends just before, at, or just after the next
            // window's start, or a fixed amount.
            let to_next = next.map_or(0, |(ws, _)| ws.0.saturating_sub(t.0));
            let w = SimDuration::from_nanos(match g.u64(0..3) {
                0 => (to_next + g.u64(0..3)).saturating_sub(1),
                _ => g.pick(&[0, 1, 999, 20_000, 3_000_000, 900_000_000]),
            });
            let kind = g.u64(0..5);
            assert_eq!(
                query(&s, kind, t, w),
                query(&fresh.clone(), kind, t, w),
                "query {kind} at {t:?} for {w:?}"
            );
        }
    });
}
