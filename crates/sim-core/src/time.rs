//! Simulated time.
//!
//! All simulation components share a single notion of time: an unsigned
//! nanosecond count since the start of the simulated run ([`SimTime`]) and
//! nanosecond intervals ([`SimDuration`]).
//!
//! Two *kinds* of time appear throughout the laboratory:
//!
//! * **wall time** — what a wall clock (or the TSC) observes, including
//!   intervals during which the node is frozen inside System Management
//!   Mode, and
//! * **work time** — time during which the node is actually executing
//!   host software.
//!
//! Both are represented with the same types; the
//! [`FreezeSchedule`](crate::freeze::FreezeSchedule) maps between them.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, jsonio::ToJson)]
pub struct SimTime(pub u64);

/// A length of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, jsonio::ToJson)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// A time later than any event in a realistic simulation.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }
    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }
    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }
    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// Seconds since simulation start, as a float (lossy for huge values).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// Milliseconds since simulation start, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration since an earlier instant.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier <= self, "SimTime::since: earlier {earlier:?} > self {self:?}");
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating duration since `earlier`; zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }
    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }
    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }
    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }
    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// A negative, `NaN`, or oversized input is a caller bug: debug builds
    /// assert, release builds saturate deterministically (negative/`NaN`
    /// to zero, overflow to [`SimDuration::MAX`]) so the simulation path
    /// never aborts a measurement run.
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s.is_finite() && s >= 0.0, "SimDuration::from_secs_f64: invalid seconds {s}");
        SimDuration(round_to_u64(s * 1e9))
    }

    /// Nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// Milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(rhs.0).map(SimDuration)
    }
    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
    /// Scale by a non-negative float, rounding to the nearest nanosecond.
    ///
    /// A negative or `NaN` factor is a caller bug: debug builds assert,
    /// release builds saturate (the float-to-int cast clamps to zero /
    /// [`SimDuration::MAX`]) so the simulation path never aborts.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k.is_finite() && k >= 0.0, "SimDuration::mul_f64: invalid factor {k}");
        SimDuration(round_to_u64(self.0 as f64 * k))
    }
    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

/// `x.round() as u64` — nearest integer, ties away from zero, saturating
/// (negative and NaN to 0, too large to `u64::MAX`) — in integer
/// arithmetic. The x86-64 baseline has no rounding instruction, so
/// `f64::round` is a libm call; this runs on every message's wire time.
/// For `x < 2^52` the truncation is exact and so is `x - t`; from `2^52`
/// up every `f64` is an integer and the difference is zero.
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}
impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}
impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}
impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}
impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}
impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}
impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(rhs <= self, "SimDuration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}
impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(rhs <= *self, "SimDuration subtraction underflow");
        self.0 -= rhs.0;
    }
}
impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}
impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", format_ns(self.0))
    }
}
impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}
impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}
impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

/// Render a nanosecond count with a human-friendly unit.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_micros(5), SimTime::from_nanos(5_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_nanos(1_000_000_000));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_micros(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn since_and_saturating() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(8);
        assert_eq!(b.since(a), SimDuration::from_millis(3));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn float_conversions() {
        assert!((SimDuration::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(SimDuration::from_secs_f64(0.001), SimDuration::from_millis(1));
        assert!((SimTime::from_millis(250).as_millis_f64() - 250.0).abs() < 1e-12);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_millis(150));
        assert_eq!(d * 3, SimDuration::from_millis(300));
        assert_eq!(d / 4, SimDuration::from_millis(25));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "invalid seconds"))]
    fn from_secs_f64_rejects_negative_in_debug_and_saturates_in_release() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    /// The formula `round_to_u64` replaces.
    fn libm_round(x: f64) -> u64 {
        x.round() as u64
    }

    #[test]
    fn rounding_matches_libm_round_on_random_bit_patterns() {
        quickprop::check("rounding_matches_libm_round_on_random_bit_patterns", 4096, |g| {
            // Every bit pattern: subnormals, huge values, negatives, NaNs.
            let x = f64::from_bits(g.any_u64());
            assert_eq!(round_to_u64(x), libm_round(x), "x = {x:e}");
            // Values with a fractional part, where ties can occur.
            let y = g.u64(0..1 << 53) as f64 / (1u64 << g.u32(0..53)) as f64;
            assert_eq!(round_to_u64(y), libm_round(y), "y = {y:e}");
        });
    }

    #[test]
    fn from_secs_f64_and_mul_f64_match_libm_round() {
        quickprop::check("from_secs_f64_and_mul_f64_match_libm_round", 4096, |g| {
            // Finite, non-negative inputs (the debug-asserted domain).
            let s = f64::from_bits(g.any_u64() & !(1 << 63));
            let s = if s.is_finite() { s } else { g.u64(0..1 << 40) as f64 / 7.0 };
            assert_eq!(SimDuration::from_secs_f64(s).0, libm_round(s * 1e9), "s = {s:e}");
            let d = SimDuration(g.any_u64() >> g.u32(0..64));
            let k = g.u64(0..1 << 32) as f64 / g.u64(1..1 << 32) as f64;
            assert_eq!(d.mul_f64(k).0, libm_round(d.0 as f64 * k), "{d:?} x {k:e}");
        });
    }

    #[test]
    fn rounding_edge_cases_match_libm_round() {
        let two52 = (1u64 << 52) as f64;
        let cases = [
            // Exact ties round away from zero.
            0.5,
            1.5,
            2.5,
            1e9 + 0.5,
            two52 - 0.5,
            // Just below a tie.
            0.499_999_999_999_999_94,
            two52 - 1.5,
            // 2^52 .. 2^64: every value is an integer.
            two52,
            two52 + 1.0,
            (1u64 << 53) as f64 + 2.0,
            (1u64 << 63) as f64,
            18_446_744_073_709_549_568.0, // the largest f64 below 2^64
            // 2^64 and beyond saturate.
            18_446_744_073_709_551_616.0,
            1e30,
            f64::MAX,
            f64::INFINITY,
            // Negative values, NaN and -inf saturate to zero.
            -0.0,
            -0.4,
            -0.5,
            -1.5,
            -1e30,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            0.0,
        ];
        for x in cases {
            assert_eq!(round_to_u64(x), libm_round(x), "x = {x:e}");
        }
        assert_eq!(round_to_u64(2.5), 3);
        assert_eq!(round_to_u64(f64::INFINITY), u64::MAX);
        assert_eq!(round_to_u64(f64::NAN), 0);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimDuration::from_micros(4)), "4.000us");
        assert_eq!(format!("{}", SimDuration::from_nanos(5)), "5ns");
    }

    #[test]
    fn min_max() {
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
