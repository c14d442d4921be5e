//! Freeze schedules: the laboratory's model of time spent in System
//! Management Mode.
//!
//! When a System Management Interrupt fires, **every** logical CPU of the
//! node enters SMM and host software makes no progress until the handler
//! returns ([Delgado & Karavanic 2013], §II.A of the reproduced paper).
//! From the point of view of anything running on the node, an SMI is a
//! *freeze window*: an interval of wall-clock time during which zero work
//! happens, invisible to the OS.
//!
//! A [`FreezeSchedule`] is the set of freeze windows for one node. The key
//! operations are the mapping from *work* to *wall* time
//! ([`FreezeSchedule::advance`]) and its inverse
//! ([`FreezeSchedule::work_between`]). Because the freeze is node-global,
//! an entire node-local simulation can run in work time and be mapped
//! through the schedule afterwards; the property tests in this module and
//! the cross-crate integration tests verify the algebra that makes this
//! sound:
//!
//! * `advance(t, 0) == t` (identity),
//! * `advance(advance(t, a), b) == advance(t, a + b)` (additivity),
//! * `advance(t, w) - t >= w` (wall time dominates work time),
//! * `work_between(t, advance(t, w)) == w` (inverse).

use crate::error::SimError;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};

/// How per-occurrence SMM residency is generated.
#[derive(Clone, Debug, PartialEq, jsonio::ToJson)]
pub enum DurationModel {
    /// Every occurrence freezes for exactly this long.
    Fixed(SimDuration),
    /// Each occurrence draws uniformly from `[lo, hi]` (inclusive).
    Uniform {
        /// Shortest possible residency.
        lo: SimDuration,
        /// Longest possible residency.
        hi: SimDuration,
    },
}

impl DurationModel {
    /// The paper's "short" SMI band: 1–3 ms in SMM.
    pub fn short_smi() -> Self {
        DurationModel::Uniform { lo: SimDuration::from_millis(1), hi: SimDuration::from_millis(3) }
    }

    /// The paper's "long" SMI band: 100–110 ms in SMM.
    pub fn long_smi() -> Self {
        DurationModel::Uniform {
            lo: SimDuration::from_millis(100),
            hi: SimDuration::from_millis(110),
        }
    }

    /// The largest duration the model can produce.
    pub fn max(&self) -> SimDuration {
        match *self {
            DurationModel::Fixed(d) => d,
            DurationModel::Uniform { hi, .. } => hi,
        }
    }

    /// The expected duration of one occurrence.
    pub fn mean(&self) -> SimDuration {
        match *self {
            DurationModel::Fixed(d) => d,
            DurationModel::Uniform { lo, hi } => SimDuration((lo.0 + hi.0) / 2),
        }
    }

    fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            DurationModel::Fixed(d) => d,
            // An inverted band samples from the normalized [min, max];
            // `validate` reports inverted bands as typed errors upstream.
            DurationModel::Uniform { lo, hi } => {
                SimDuration(rng.range_u64(lo.0.min(hi.0), lo.0.max(hi.0)))
            }
        }
    }

    /// Check the model describes a drawable band.
    pub fn validate(&self) -> Result<(), SimError> {
        match *self {
            DurationModel::Fixed(_) => Ok(()),
            DurationModel::Uniform { lo, hi } if lo > hi => Err(SimError::invalid(
                "duration model",
                format!("uniform band is inverted: lo {lo} > hi {hi}"),
            )),
            DurationModel::Uniform { .. } => Ok(()),
        }
    }
}

/// What the trigger source does when the trigger instant falls while the
/// node is still inside a previous SMM window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, jsonio::ToJson)]
pub enum TriggerPolicy {
    /// The trigger is lost; the next SMI fires at the next periodic
    /// instant that falls outside SMM. This models a host-side timer that
    /// simply does not run while the node is frozen (the behaviour of the
    /// modified Blackbox SMI driver re-arming its timer).
    SkipWhileFrozen,
    /// The trigger is latched and fires as soon as the node leaves SMM,
    /// after a small sliver of host progress (`min_gap`). This models a
    /// pending timer interrupt delivering immediately at SMM exit. Without
    /// the sliver, a duration longer than the period would freeze the node
    /// forever; real hosts always regain the CPU long enough for the timer
    /// softirq to run.
    DeferToExit {
        /// Minimum host-visible gap between consecutive windows.
        min_gap: SimDuration,
    },
    /// The driver sleeps for the full period *after* the handler returns
    /// (a `msleep(x)` loop): consecutive windows are separated by exactly
    /// one period of host time, so the duty cycle `d/(d+p)` varies
    /// smoothly with the period even when residency exceeds it. This is
    /// the behaviour the multithreaded study's smooth interval sweeps
    /// imply for the modified Blackbox driver.
    RearmAfterExit,
}

/// Configuration for a periodic SMI source on one node.
#[derive(Clone, Debug, jsonio::ToJson)]
pub struct PeriodicFreeze {
    /// Wall time of the first trigger.
    pub first_trigger: SimTime,
    /// Trigger interval ("one SMI every x jiffies").
    pub period: SimDuration,
    /// SMM residency per occurrence.
    pub durations: DurationModel,
    /// Behaviour when a trigger lands inside an existing window.
    pub policy: TriggerPolicy,
    /// Seed for the per-occurrence duration stream.
    pub seed: u64,
}

impl PeriodicFreeze {
    /// A conventional configuration: triggers every `period` starting at a
    /// random phase within the first period (drawn from `rng`), skipping
    /// triggers that land inside SMM.
    pub fn with_random_phase(
        period: SimDuration,
        durations: DurationModel,
        rng: &mut SimRng,
    ) -> Self {
        PeriodicFreeze::drawn(period, durations, TriggerPolicy::SkipWhileFrozen, rng)
    }

    /// The single constructor surface for drawing a periodic configuration
    /// from an RNG stream: one phase draw within the first period, then one
    /// duration-stream seed draw. Every schedule generator (the SMI driver,
    /// every noise model) goes through here so the draw order — and with it
    /// every golden digest — has exactly one definition.
    pub fn drawn(
        period: SimDuration,
        durations: DurationModel,
        policy: TriggerPolicy,
        rng: &mut SimRng,
    ) -> Self {
        // A zero period is not a meaningful trigger source; normalize to
        // the 1 ns minimum rather than fault (`validate` reports it).
        let period = SimDuration(period.0.max(1));
        let phase = SimDuration(rng.below(period.0));
        PeriodicFreeze {
            first_trigger: SimTime::ZERO + phase,
            period,
            durations,
            policy,
            seed: rng.next(),
        }
    }

    /// Check the configuration describes a generable schedule: a nonzero
    /// period, a nonzero `DeferToExit` gap (a zero gap would freeze the
    /// node forever once residency exceeds the period), and a drawable
    /// duration band.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.period.is_zero() {
            return Err(SimError::invalid("freeze schedule", "zero trigger period"));
        }
        if let TriggerPolicy::DeferToExit { min_gap } = self.policy {
            if min_gap.is_zero() {
                return Err(SimError::invalid(
                    "freeze schedule",
                    "DeferToExit requires a nonzero min_gap",
                ));
            }
        }
        self.durations.validate()
    }
}

/// Lazily generated, cached window list.
#[derive(Clone, Debug)]
struct GenState {
    /// Windows generated so far, in increasing, non-overlapping order.
    windows: Vec<(SimTime, SimTime)>,
    /// Prefix sums of window lengths: `cum_frozen[i]` is the total frozen
    /// nanoseconds in `windows[..i]`; always `windows.len() + 1` entries.
    /// Lets interval queries answer in O(log n) instead of a scan.
    cum_frozen: Vec<u64>,
    /// Index of the next candidate trigger (`first_trigger + k * period`).
    next_k: u64,
    /// RNG for occurrence durations, advanced once per *accepted* window.
    rng: SimRng,
    /// Every window starting at or before this instant has been generated.
    covered: SimTime,
    /// Hint for [`locate`]: the engine queries each schedule at
    /// near-monotone instants (once per message part), so the answer is
    /// almost always within a step or two of the previous one.
    cursor: usize,
}

impl GenState {
    /// Record an accepted window, keeping the prefix sums in lockstep.
    fn push_window(&mut self, start: SimTime, end: SimTime) {
        let last = self.cum_frozen.last().copied().unwrap_or(0);
        self.cum_frozen.push(last + end.0.saturating_sub(start.0));
        self.windows.push((start, end));
    }

    /// Generate windows until the cache provably covers all windows that
    /// *begin* at or before `t`.
    fn cover(&mut self, cfg: &PeriodicFreeze, t: SimTime) {
        if t <= self.covered {
            return;
        }
        loop {
            let last_end = self.windows.last().map(|&(_, e)| e).unwrap_or(SimTime::ZERO);
            // Next candidate trigger instant.
            let candidate = if cfg.policy == TriggerPolicy::RearmAfterExit {
                if self.windows.is_empty() {
                    cfg.first_trigger
                } else {
                    match last_end.checked_add(cfg.period) {
                        Some(c) => c,
                        None => {
                            self.covered = SimTime::MAX;
                            return;
                        }
                    }
                }
            } else {
                let Some(offset) = cfg.period.0.checked_mul(self.next_k) else {
                    self.covered = SimTime::MAX;
                    return;
                };
                match cfg.first_trigger.checked_add(SimDuration(offset)) {
                    Some(c) => c,
                    None => {
                        self.covered = SimTime::MAX;
                        return;
                    }
                }
            };
            let start = if candidate >= last_end {
                self.next_k += 1;
                candidate
            } else {
                match cfg.policy {
                    TriggerPolicy::SkipWhileFrozen => {
                        // Trigger lost; advance to the next candidate.
                        self.next_k += 1;
                        if candidate > t {
                            // This candidate was past the horizon anyway.
                            self.covered = self.covered.max(t);
                            return;
                        }
                        continue;
                    }
                    TriggerPolicy::DeferToExit { min_gap } => {
                        // Latched trigger fires after a sliver of host time.
                        self.next_k += 1;
                        last_end + min_gap
                    }
                    // Rearm candidates are derived from `last_end + period`
                    // and so never precede `last_end`; if the arithmetic
                    // were ever wrong, starting at the window edge keeps
                    // generation monotone instead of faulting.
                    TriggerPolicy::RearmAfterExit => last_end,
                }
            };
            if start > t && candidate > t {
                // We have generated a window beyond the horizon; everything
                // starting at or before `t` is now cached (the window just
                // generated is kept — it is valid — and coverage extends to
                // just before its start).
                let d = cfg.durations.sample(&mut self.rng);
                self.push_window(start, start + d);
                self.covered = self.covered.max(t).max(SimTime(start.0 - 1));
                return;
            }
            let d = cfg.durations.sample(&mut self.rng);
            self.push_window(start, start + d);
        }
    }

    /// Window `k`, generating it first if needed; `None` if the schedule
    /// has fewer windows.
    fn window_at(&mut self, cfg: Option<&PeriodicFreeze>, k: usize) -> Option<(SimTime, SimTime)> {
        while self.windows.len() <= k {
            // Explicit lists are fully covered at construction.
            let cfg = cfg.filter(|_| self.covered < SimTime::MAX)?;
            let step = SimDuration(cfg.period.0.saturating_add(cfg.durations.max().0).max(1));
            let horizon = self.covered.saturating_add(step);
            self.cover(cfg, horizon);
        }
        Some(self.windows[k])
    }

    /// The first index from `k` on whose window starts after `t`.
    fn skip_started(&mut self, cfg: Option<&PeriodicFreeze>, mut k: usize, t: SimTime) -> usize {
        while self.window_at(cfg, k).is_some_and(|(s, _)| s <= t) {
            k += 1;
        }
        k
    }

    /// `span_stats` over `[a, b)` given the indices `[i, j)` of the
    /// windows overlapping it.
    fn range_stats(
        &self,
        i: usize,
        j: usize,
        a: SimTime,
        b: SimTime,
        slowdown_milli: u32,
    ) -> (usize, SimDuration) {
        if i >= j {
            return (0, SimDuration::ZERO);
        }
        let (s_first, _) = self.windows[i];
        // Start count: every overlapping window except a leading one that
        // began before `a` starts within `[a, b)`.
        let first_inside = if s_first < a { i + 1 } else { i };
        let count = j - first_inside;
        if slowdown_milli != 0 {
            // Slowdown windows steal only the complement of the retained
            // throughput; compute per clipped window with the same
            // anchored-floor arithmetic `advance_slowed` uses so
            // `work_between` stays its exact inverse.
            let s = slowdown_milli as u128;
            let done = |x: u64| ((x as u128 * s) / 1000) as u64;
            let mut stolen = 0u64;
            for &(ws, we) in &self.windows[i..j] {
                let lo = ws.max(a);
                let hi = we.min(b);
                let progressed = done(hi.0 - ws.0) - done(lo.0 - ws.0);
                stolen += (hi.0 - lo.0) - progressed;
            }
            return (count, SimDuration(stolen));
        }
        // Frozen time: the prefix-sum total of windows [i, j), clipped at
        // the interval edges. Windows are non-overlapping, so only the
        // first can start before `a` and only the last can end after `b`.
        let mut frozen = self
            .cum_frozen
            .get(j)
            .copied()
            .unwrap_or(0)
            .saturating_sub(self.cum_frozen.get(i).copied().unwrap_or(0));
        if s_first < a {
            frozen = frozen.saturating_sub(a.0 - s_first.0);
        }
        let (_, e_last) = self.windows[j - 1];
        if e_last > b {
            frozen = frozen.saturating_sub(e_last.0 - b.0);
        }
        (count, SimDuration(frozen))
    }

    /// Indices `[i, j)` of the windows overlapping the half-open interval
    /// `[a, b)`; callers guarantee `b > a` and coverage through `b`.
    /// Windows are sorted and non-overlapping, so their ends are sorted
    /// too and the overlapping set is one contiguous index range.
    fn overlap_range(&mut self, a: SimTime, b: SimTime) -> (usize, usize) {
        // `partition_point(s < b)` == `partition_point(s <= b-1)`;
        // `b > a >= 0` guarantees `b.0 >= 1`.
        let j = locate(&self.windows, self.cursor, SimTime(b.0 - 1));
        self.cursor = j;
        let i = self.windows[..j].partition_point(|&(_, e)| e <= a);
        (i, j)
    }
}

/// `windows.partition_point(|&(s, _)| s <= t)`, accelerated by a hint.
///
/// Starts at `hint` (the previous answer) and walks up to a few steps in
/// the right direction before falling back to binary search on the
/// remaining range, so near-monotone query streams cost O(1) amortized.
/// The return value is exactly the plain `partition_point` result.
fn locate(windows: &[(SimTime, SimTime)], hint: usize, t: SimTime) -> usize {
    const WALK: usize = 4;
    let n = windows.len();
    let h = hint.min(n);
    if h == 0 || windows[h - 1].0 <= t {
        // Answer is at or after the hint.
        let mut i = h;
        for _ in 0..WALK {
            if i < n && windows[i].0 <= t {
                i += 1;
            } else {
                return i;
            }
        }
        i + windows[i..].partition_point(|&(s, _)| s <= t)
    } else {
        // `windows[h - 1].0 > t`: answer is before the hint.
        let mut i = h - 1;
        for _ in 0..WALK {
            if i > 0 && windows[i - 1].0 > t {
                i -= 1;
            } else {
                return i;
            }
        }
        if i > 0 && windows[i - 1].0 > t {
            windows[..i].partition_point(|&(s, _)| s <= t)
        } else {
            i
        }
    }
}

/// A cached unfrozen stretch between two consecutive windows: `[lo, hi)`
/// holds no window time, `lo` is the end of the window before it (zero if
/// none) and `hi` the start of window `next` (`SimTime::MAX` if none).
///
/// The lower bound is the previous window's end, not the instant of the
/// query that found the gap, so every rank of a node whose clock is
/// anywhere in the same gap answers from it, in whatever order they ask.
#[derive(Clone, Copy, Debug)]
struct Gap {
    lo: SimTime,
    hi: SimTime,
    next: usize,
}

impl Gap {
    const EMPTY: Gap = Gap { lo: SimTime::ZERO, hi: SimTime::ZERO, next: 0 };

    fn contains(self, t: SimTime) -> bool {
        self.lo <= t && t < self.hi
    }
}

/// The freeze windows of one node (or, for per-core noise models, one
/// logical CPU).
///
/// Windows come from one of two sources: a periodic trigger configuration
/// whose window cache is generated lazily (`config` + `gen`), or an
/// explicit pre-validated window list ([`FreezeSchedule::from_windows`],
/// `gen` only, fully covered up front). A schedule may additionally carry
/// a *slowdown factor*: instead of freezing, its windows let work proceed
/// at a reduced throughput (the SMT-contention model), with all time
/// arithmetic staying in exact integer nanoseconds.
///
/// Cheap to clone configuration-wise; a periodic clone re-derives
/// identical windows from the same seed.
#[derive(Debug)]
pub struct FreezeSchedule {
    /// Periodic trigger source, if the windows are generated.
    config: Option<PeriodicFreeze>,
    /// Window cache; `None` only for the silent schedule.
    gen: Option<RefCell<GenState>>,
    /// Throughput retained *inside* windows, in 1/1000ths. `0` means a
    /// full freeze (every SMI model); `1..=999` means windows degrade
    /// instead of stopping progress (the SMT-contention model).
    slowdown_milli: u32,
    /// The gap the last [`advance_stats`](Self::advance_stats) walk
    /// ended in, or the last unfrozen
    /// [`window_containing`](Self::window_containing) query fell in. Full
    /// freezes only: slowdown schedules never set it. A pure cache —
    /// windows are a function of the configuration, so a gap stays valid
    /// for the schedule's lifetime, and a clone starts empty.
    gap: Cell<Gap>,
}

impl Clone for FreezeSchedule {
    fn clone(&self) -> Self {
        let mut s = match (&self.config, &self.gen) {
            // Periodic: re-derive the cache from the seed.
            (Some(_), _) => FreezeSchedule::from_config(self.config.clone()),
            // Explicit list: the windows are the state; copy them.
            (None, Some(gen)) => FreezeSchedule {
                config: None,
                gen: Some(RefCell::new(gen.borrow().clone())),
                slowdown_milli: 0,
                gap: Cell::new(Gap::EMPTY),
            },
            (None, None) => FreezeSchedule::none(),
        };
        s.slowdown_milli = self.slowdown_milli;
        s
    }
}

impl FreezeSchedule {
    /// A schedule with no SMI activity (the paper's "SMM 0" case).
    pub fn none() -> Self {
        FreezeSchedule { config: None, gen: None, slowdown_milli: 0, gap: Cell::new(Gap::EMPTY) }
    }

    /// A schedule over an explicit window list, which must be sorted,
    /// non-overlapping, and free of zero-length windows — the typed
    /// rejection noise models surface for malformed specs.
    pub fn from_windows(windows: Vec<(SimTime, SimTime)>) -> Result<Self, SimError> {
        let mut cum_frozen = Vec::with_capacity(windows.len() + 1);
        cum_frozen.push(0u64);
        let mut prev_end = SimTime::ZERO;
        for (i, &(s, e)) in windows.iter().enumerate() {
            if e <= s {
                return Err(SimError::invalid(
                    "freeze schedule",
                    format!("window {i} has zero or negative length: [{s:?}, {e:?})"),
                ));
            }
            if s < prev_end {
                return Err(SimError::invalid(
                    "freeze schedule",
                    format!("window {i} starting at {s:?} overlaps its predecessor"),
                ));
            }
            prev_end = e;
            let last = cum_frozen.last().copied().unwrap_or(0);
            cum_frozen.push(last + (e.0 - s.0));
        }
        let gen = GenState {
            windows,
            cum_frozen,
            next_k: 0,
            rng: SimRng::new(0),
            covered: SimTime::MAX,
            cursor: 0,
        };
        Ok(FreezeSchedule {
            config: None,
            gen: Some(RefCell::new(gen)),
            slowdown_milli: 0,
            gap: Cell::new(Gap::EMPTY),
        })
    }

    /// Turn this schedule's windows into slowdown windows: work inside
    /// them proceeds at `throughput_milli`/1000 of full speed instead of
    /// stopping. The factor must be strictly between 0 (that is a freeze)
    /// and 1000 (that is no noise at all).
    pub fn with_slowdown(mut self, throughput_milli: u32) -> Result<Self, SimError> {
        if throughput_milli == 0 || throughput_milli >= 1000 {
            return Err(SimError::invalid(
                "freeze schedule",
                format!(
                    "slowdown throughput must be within 1..=999 milli-units, \
                     got {throughput_milli}"
                ),
            ));
        }
        self.slowdown_milli = throughput_milli;
        Ok(self)
    }

    /// Throughput retained inside windows, in 1/1000ths (0 = full freeze).
    pub fn slowdown_milli(&self) -> u32 {
        self.slowdown_milli
    }

    /// A periodic schedule (the paper's "SMM 1" / "SMM 2" cases).
    ///
    /// Degenerate inputs are normalized to the nearest generable
    /// configuration (a zero period or `DeferToExit` gap becomes the 1 ns
    /// minimum) so a schedule can always be driven; callers that want the
    /// typed rejection instead run [`PeriodicFreeze::validate`] first —
    /// the engine's validate mode does.
    pub fn periodic(mut config: PeriodicFreeze) -> Self {
        config.period = SimDuration(config.period.0.max(1));
        if let TriggerPolicy::DeferToExit { min_gap } = &mut config.policy {
            *min_gap = SimDuration(min_gap.0.max(1));
        }
        FreezeSchedule::from_config(Some(config))
    }

    fn from_config(config: Option<PeriodicFreeze>) -> Self {
        let gen = config.as_ref().map(|config| {
            RefCell::new(GenState {
                windows: Vec::new(),
                cum_frozen: vec![0],
                next_k: 0,
                rng: SimRng::new(config.seed),
                covered: SimTime::ZERO,
                cursor: 0,
            })
        });
        FreezeSchedule { config, gen, slowdown_milli: 0, gap: Cell::new(Gap::EMPTY) }
    }

    /// Whether this schedule ever perturbs the node.
    pub fn is_noisy(&self) -> bool {
        self.gen.is_some()
    }

    /// The configuration, if periodic.
    pub fn config(&self) -> Option<&PeriodicFreeze> {
        self.config.as_ref()
    }

    /// Generate windows until the window cache provably covers all windows
    /// that *begin* at or before `t`.
    fn ensure_covered(&self, t: SimTime) {
        if let (Some(gen), Some(cfg)) = (&self.gen, &self.config) {
            gen.borrow_mut().cover(cfg, t);
        }
    }

    /// The freeze windows overlapping the half-open interval `[a, b)`.
    pub fn windows_between(&self, a: SimTime, b: SimTime) -> Vec<(SimTime, SimTime)> {
        let Some(gen_cell) = &self.gen else { return Vec::new() };
        if b <= a {
            return Vec::new();
        }
        self.ensure_covered(b);
        let mut gen = gen_cell.borrow_mut();
        let gen = &mut *gen;
        let (i, j) = gen.overlap_range(a, b);
        gen.windows[i..j].to_vec()
    }

    /// Whether the node is frozen at instant `t` (windows are half-open:
    /// frozen on `[start, end)`). Slowdown windows degrade rather than
    /// stop progress, so they never report frozen.
    pub fn is_frozen(&self, t: SimTime) -> bool {
        self.slowdown_milli == 0 && self.window_containing(t).is_some()
    }

    /// The window containing `t`, if any.
    #[inline]
    pub fn window_containing(&self, t: SimTime) -> Option<(SimTime, SimTime)> {
        if self.gen.is_none() || self.gap.get().contains(t) {
            return None;
        }
        self.find_window(t)
    }

    /// [`window_containing`](Self::window_containing) past its fast paths.
    #[inline(never)]
    fn find_window(&self, t: SimTime) -> Option<(SimTime, SimTime)> {
        let gen_cell = self.gen.as_ref()?;
        self.ensure_covered(t);
        let mut gen = gen_cell.borrow_mut();
        let gen = &mut *gen;
        // Windows are sorted; find the last window starting at or before t
        // (cursor-accelerated: engine queries are near-monotone).
        let idx = locate(&gen.windows, gen.cursor, t);
        gen.cursor = idx;
        let before = idx.checked_sub(1).map(|i| gen.windows[i]);
        if let Some((s, e)) = before.filter(|&(_, e)| t < e) {
            return Some((s, e));
        }
        // `t` lies in the gap before window `idx`.
        if let (0, Some(&(hi, _))) = (self.slowdown_milli, gen.windows.get(idx)) {
            let lo = before.map_or(SimTime::ZERO, |(_, e)| e);
            self.gap.set(Gap { lo, hi, next: idx });
        }
        None
    }

    /// The earliest instant `>= t` at which the node is not frozen.
    /// Slowdown windows make progress, so they are transparent here.
    #[inline]
    pub fn unfreeze(&self, t: SimTime) -> SimTime {
        if self.slowdown_milli != 0 {
            return t;
        }
        match self.window_containing(t) {
            Some((_, end)) => end,
            None => t,
        }
    }

    /// The first window beginning strictly after `t`, if it can be
    /// generated without overflowing simulated time.
    pub fn next_window_after(&self, t: SimTime) -> Option<(SimTime, SimTime)> {
        let gen_cell = self.gen.as_ref()?;
        self.ensure_covered(t);
        let mut gen = gen_cell.borrow_mut();
        let idx = locate(&gen.windows, gen.cursor, t);
        gen.cursor = idx;
        gen.window_at(self.config.as_ref(), idx)
    }

    /// Map `work` units of useful execution starting at wall instant
    /// `start` to the wall instant at which the work completes.
    ///
    /// Work only progresses outside freeze windows. `advance(t, 0) == t`
    /// exactly (even if `t` is frozen), which makes the mapping additive.
    #[inline]
    pub fn advance(&self, start: SimTime, work: SimDuration) -> SimTime {
        self.advance_stats(start, work).0
    }

    /// [`advance`](Self::advance) and [`span_stats`](Self::span_stats)
    /// over the span it covers, in one walk over the windows:
    /// `(end, count_between(start, end), frozen_between(start, end))`
    /// with `end = advance(start, work)`.
    ///
    /// A full-freeze walk that ends in a gap caches it, so the next query
    /// starting anywhere in that gap whose work fits before the next
    /// window answers without touching the window list; a longer one
    /// resumes the walk at the gap's window index.
    #[inline]
    pub fn advance_stats(
        &self,
        start: SimTime,
        work: SimDuration,
    ) -> (SimTime, usize, SimDuration) {
        if work.is_zero() {
            return (start, 0, SimDuration::ZERO);
        }
        let gap = self.gap.get();
        if self.gen.is_none() || (gap.contains(start) && work.0 <= gap.hi.0 - start.0) {
            return (start + work, 0, SimDuration::ZERO);
        }
        self.walk(start, work)
    }

    /// [`advance_stats`](Self::advance_stats) past its fast paths.
    #[inline(never)]
    fn walk(&self, start: SimTime, work: SimDuration) -> (SimTime, usize, SimDuration) {
        let Some(gen_cell) = &self.gen else { return (start + work, 0, SimDuration::ZERO) };
        if self.slowdown_milli != 0 {
            let end = self.advance_slowed(start, work);
            let (windows, stolen) = self.span_stats(start, end);
            return (end, windows, stolen);
        }
        let gap = self.gap.get();
        let cfg = self.config.as_ref();
        let mut gen = gen_cell.borrow_mut();
        let gen = &mut *gen;
        // `t` is where work resumes, `k` the first window starting after
        // `t`, `first` the first window overlapping `[start, ..)`.
        let (mut t, mut k, first) = if gap.contains(start) {
            (start, gap.next, gap.next)
        } else {
            if let Some(cfg) = cfg {
                gen.cover(cfg, start);
            }
            let k = locate(&gen.windows, gen.cursor, start);
            match k.checked_sub(1).map(|i| gen.windows[i]) {
                // Frozen at `start`: work resumes when the window ends.
                Some((_, e)) if start < e => (e, gen.skip_started(cfg, k, e), k - 1),
                _ => (start, k, k),
            }
        };
        let mut remaining = work.0;
        let end = loop {
            let gap_end = gen.window_at(cfg, k).map_or(SimTime::MAX, |(s, _)| s);
            let avail = gap_end.0 - t.0;
            if avail >= remaining {
                break SimTime(t.0 + remaining);
            }
            remaining -= avail;
            // `gap_end` starts window `k`: work resumes when it ends.
            t = gen.windows[k].1;
            k = gen.skip_started(cfg, k + 1, t);
        };
        gen.cursor = k;
        self.gap.set(Gap {
            lo: k.checked_sub(1).map_or(SimTime::ZERO, |i| gen.windows[i].1),
            hi: gen.windows.get(k).map_or(SimTime::MAX, |w| w.0),
            next: k,
        });
        let (windows, frozen) = gen.range_stats(first, k, start, end, 0);
        (end, windows, frozen)
    }

    /// [`advance`](Self::advance) when windows slow work down instead of
    /// freezing it. Work inside a window anchored at `ws` progresses as
    /// `done(x) = floor((x - ws) * s / 1000)` with `s = slowdown_milli`;
    /// the anchoring keeps the map a function of wall time alone, so
    /// additivity and the [`work_between`](Self::work_between) inverse
    /// hold exactly in integer nanoseconds.
    fn advance_slowed(&self, start: SimTime, work: SimDuration) -> SimTime {
        let s = self.slowdown_milli as u128;
        let done = |x: u64| ((x as u128 * s) / 1000) as u64;
        let mut t = start;
        let mut remaining = work.0;
        loop {
            if let Some((ws, we)) = self.window_containing(t) {
                let done_t = done(t.0 - ws.0);
                let avail = done(we.0 - ws.0) - done_t;
                if avail >= remaining {
                    let target = done_t + remaining;
                    // Minimal x with done(x) == target: ceil(target*1000/s).
                    // s <= 1000 guarantees done() lands exactly on target.
                    let dx = ((target as u128 * 1000).div_ceil(s)) as u64;
                    return SimTime(ws.0 + dx);
                }
                remaining -= avail;
                t = we;
            } else {
                let gap_end = match self.next_window_after(t) {
                    Some((ws, _)) => ws,
                    None => SimTime::MAX,
                };
                let avail = gap_end.since(t).0;
                if avail >= remaining {
                    return t + SimDuration(remaining);
                }
                remaining -= avail;
                t = gap_end;
            }
        }
    }

    /// Total stolen time within the half-open wall interval `[a, b)`:
    /// frozen time for freeze windows, the unrealized fraction of window
    /// time for slowdown windows. Always `(b - a) - work_between(a, b)`.
    pub fn frozen_between(&self, a: SimTime, b: SimTime) -> SimDuration {
        self.span_stats(a, b).1
    }

    /// Freeze-window starts and frozen time over `[a, b)` in one lookup:
    /// `(count_between(a, b), frozen_between(a, b))`, answered together
    /// from the prefix sums in one O(log n) range lookup instead of two
    /// window scans.
    pub fn span_stats(&self, a: SimTime, b: SimTime) -> (usize, SimDuration) {
        if b <= a {
            return (0, SimDuration::ZERO);
        }
        let Some(gen_cell) = &self.gen else { return (0, SimDuration::ZERO) };
        self.ensure_covered(b);
        let mut gen = gen_cell.borrow_mut();
        let gen = &mut *gen;
        let (i, j) = gen.overlap_range(a, b);
        gen.range_stats(i, j, a, b, self.slowdown_milli)
    }

    /// Useful work accomplished within the wall interval `[a, b)`: the
    /// interval length minus frozen time. Inverse of [`advance`].
    ///
    /// [`advance`]: FreezeSchedule::advance
    pub fn work_between(&self, a: SimTime, b: SimTime) -> SimDuration {
        if b <= a {
            return SimDuration::ZERO;
        }
        b.since(a) - self.frozen_between(a, b)
    }

    /// Number of freeze windows that *begin* within `[a, b)`.
    pub fn count_between(&self, a: SimTime, b: SimTime) -> usize {
        self.span_stats(a, b).0
    }

    /// The long-run fraction of wall time spent frozen (duty cycle), as
    /// implied by the configuration. For `SkipWhileFrozen` with durations
    /// that can exceed the period this accounts for lost triggers.
    pub fn duty_cycle(&self) -> f64 {
        let Some(cfg) = self.config() else { return 0.0 };
        // Slowdown windows steal only the complement of the retained
        // throughput.
        let steal = (1000 - self.slowdown_milli.min(1000)) as f64 / 1000.0;
        let d = cfg.durations.mean().0 as f64;
        let p = cfg.period.0 as f64;
        steal
            * match cfg.policy {
                TriggerPolicy::SkipWhileFrozen => {
                    // Windows occupy d out of every ceil(d/p)*p of wall time
                    // (to first order, treating d as its mean).
                    let slots = (d / p).ceil().max(1.0);
                    (d / (slots * p)).min(1.0)
                }
                TriggerPolicy::DeferToExit { min_gap } => {
                    let g = min_gap.0 as f64;
                    if d >= p {
                        d / (d + g)
                    } else {
                        (d / p).min(1.0)
                    }
                }
                TriggerPolicy::RearmAfterExit => d / (d + p),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(period_ms: u64, dur_ms: u64, phase_ms: u64) -> FreezeSchedule {
        FreezeSchedule::periodic(PeriodicFreeze {
            first_trigger: SimTime::from_millis(phase_ms),
            period: SimDuration::from_millis(period_ms),
            durations: DurationModel::Fixed(SimDuration::from_millis(dur_ms)),
            policy: TriggerPolicy::SkipWhileFrozen,
            seed: 1,
        })
    }

    #[test]
    fn none_schedule_is_transparent() {
        let s = FreezeSchedule::none();
        let t = SimTime::from_millis(5);
        assert!(!s.is_frozen(t));
        assert_eq!(s.unfreeze(t), t);
        assert_eq!(s.advance(t, SimDuration::from_millis(7)), SimTime::from_millis(12));
        assert_eq!(s.frozen_between(SimTime::ZERO, SimTime::from_secs(10)), SimDuration::ZERO);
        assert!(!s.is_noisy());
    }

    #[test]
    fn window_membership_is_half_open() {
        let s = fixed(1000, 100, 500);
        assert!(!s.is_frozen(SimTime::from_millis(499)));
        assert!(s.is_frozen(SimTime::from_millis(500)));
        assert!(s.is_frozen(SimTime::from_millis(599)));
        assert!(!s.is_frozen(SimTime::from_millis(600)));
    }

    #[test]
    fn advance_passes_through_one_window() {
        // Window [500, 600) ms. 450ms of work from t=100 runs 400ms to the
        // window, waits 100ms, then 50ms more: finishes at 650ms.
        let s = fixed(1000, 100, 500);
        let end = s.advance(SimTime::from_millis(100), SimDuration::from_millis(450));
        assert_eq!(end, SimTime::from_millis(650));
    }

    #[test]
    fn advance_landing_exactly_on_window_start() {
        let s = fixed(1000, 100, 500);
        let end = s.advance(SimTime::from_millis(100), SimDuration::from_millis(400));
        assert_eq!(end, SimTime::from_millis(500));
        // Continuing from the boundary skips the window first.
        let end2 = s.advance(end, SimDuration::from_millis(1));
        assert_eq!(end2, SimTime::from_millis(601));
    }

    #[test]
    fn advance_zero_is_identity_even_when_frozen() {
        let s = fixed(1000, 100, 500);
        let frozen_instant = SimTime::from_millis(550);
        assert!(s.is_frozen(frozen_instant));
        assert_eq!(s.advance(frozen_instant, SimDuration::ZERO), frozen_instant);
    }

    #[test]
    fn advance_starting_inside_window_waits_for_exit() {
        let s = fixed(1000, 100, 500);
        let end = s.advance(SimTime::from_millis(550), SimDuration::from_millis(10));
        assert_eq!(end, SimTime::from_millis(610));
    }

    #[test]
    fn frozen_between_partial_overlap() {
        let s = fixed(1000, 100, 500);
        // [550, 1600): second window [1500,1600) fully inside, first half-in.
        let frozen = s.frozen_between(SimTime::from_millis(550), SimTime::from_millis(1600));
        assert_eq!(frozen, SimDuration::from_millis(150));
    }

    #[test]
    fn work_between_inverts_advance() {
        let s = fixed(700, 120, 333);
        let start = SimTime::from_millis(10);
        for work_ms in [0u64, 1, 100, 333, 700, 3000, 12345] {
            let work = SimDuration::from_millis(work_ms);
            let end = s.advance(start, work);
            assert_eq!(s.work_between(start, end), work, "work={work_ms}ms");
        }
    }

    #[test]
    fn additivity_on_fixed_schedule() {
        let s = fixed(400, 90, 123);
        let t = SimTime::from_millis(7);
        for (a_ms, b_ms) in [(0u64, 5u64), (5, 0), (100, 300), (395, 5), (1000, 1)] {
            let a = SimDuration::from_millis(a_ms);
            let b = SimDuration::from_millis(b_ms);
            assert_eq!(s.advance(s.advance(t, a), b), s.advance(t, a + b), "a={a_ms} b={b_ms}");
        }
    }

    #[test]
    fn skip_policy_drops_triggers_landing_in_smm() {
        // period 50ms, duration 105ms: triggers at 0, 50, 100 are inside
        // the first window [0,105); next accepted trigger is 150.
        let s = fixed(50, 105, 0);
        let wins = s.windows_between(SimTime::ZERO, SimTime::from_millis(400));
        assert_eq!(wins[0], (SimTime::ZERO, SimTime::from_millis(105)));
        assert_eq!(wins[1].0, SimTime::from_millis(150));
        assert_eq!(wins[2].0, SimTime::from_millis(300));
        // Duty cycle: 105 of every 150 ms.
        assert!((s.duty_cycle() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn defer_policy_fires_at_exit_with_min_gap() {
        let s = FreezeSchedule::periodic(PeriodicFreeze {
            first_trigger: SimTime::ZERO,
            period: SimDuration::from_millis(50),
            durations: DurationModel::Fixed(SimDuration::from_millis(105)),
            policy: TriggerPolicy::DeferToExit { min_gap: SimDuration::from_millis(1) },
            seed: 1,
        });
        let wins = s.windows_between(SimTime::ZERO, SimTime::from_millis(500));
        assert_eq!(wins[0], (SimTime::ZERO, SimTime::from_millis(105)));
        // Pending trigger from t=50 fires at 105+1.
        assert_eq!(wins[1].0, SimTime::from_millis(106));
        // Progress is made, slowly: advancing 10ms of work takes many windows.
        let end = s.advance(SimTime::ZERO, SimDuration::from_millis(10));
        assert!(end > SimTime::from_millis(1000), "end={end:?}");
        assert!(end < SimTime::MAX);
    }

    #[test]
    fn rearm_policy_spaces_windows_by_period_of_host_time() {
        let s = FreezeSchedule::periodic(PeriodicFreeze {
            first_trigger: SimTime::from_millis(20),
            period: SimDuration::from_millis(50),
            durations: DurationModel::Fixed(SimDuration::from_millis(105)),
            policy: TriggerPolicy::RearmAfterExit,
            seed: 1,
        });
        let wins = s.windows_between(SimTime::ZERO, SimTime::from_millis(600));
        assert_eq!(wins[0], (SimTime::from_millis(20), SimTime::from_millis(125)));
        assert_eq!(wins[1].0, SimTime::from_millis(175));
        assert_eq!(wins[2].0, SimTime::from_millis(330));
        // Duty cycle is d/(d+p) = 105/155.
        assert!((s.duty_cycle() - 105.0 / 155.0).abs() < 1e-9);
    }

    #[test]
    fn rearm_duty_is_monotone_in_period() {
        let duty = |p: u64| {
            FreezeSchedule::periodic(PeriodicFreeze {
                first_trigger: SimTime::ZERO,
                period: SimDuration::from_millis(p),
                durations: DurationModel::Fixed(SimDuration::from_millis(105)),
                policy: TriggerPolicy::RearmAfterExit,
                seed: 2,
            })
            .frozen_between(SimTime::ZERO, SimTime::from_secs(60))
            .as_secs_f64()
        };
        let mut last = f64::INFINITY;
        for p in [50u64, 100, 150, 300, 600, 1200] {
            let f = duty(p);
            assert!(f < last, "frozen time must fall as the interval grows: p={p} f={f}");
            last = f;
        }
    }

    #[test]
    fn uniform_durations_stay_in_band() {
        let s = FreezeSchedule::periodic(PeriodicFreeze {
            first_trigger: SimTime::from_millis(10),
            period: SimDuration::from_secs(1),
            durations: DurationModel::long_smi(),
            policy: TriggerPolicy::SkipWhileFrozen,
            seed: 42,
        });
        let wins = s.windows_between(SimTime::ZERO, SimTime::from_secs(60));
        assert_eq!(wins.len(), 60);
        for (st, en) in wins {
            let d = en.since(st);
            assert!(
                d >= SimDuration::from_millis(100) && d <= SimDuration::from_millis(110),
                "duration {d:?} outside the long band"
            );
        }
    }

    #[test]
    fn clone_reproduces_identical_windows() {
        let mut rng = SimRng::new(7);
        let cfg = PeriodicFreeze::with_random_phase(
            SimDuration::from_millis(250),
            DurationModel::short_smi(),
            &mut rng,
        );
        let a = FreezeSchedule::periodic(cfg.clone());
        let b = a.clone();
        // Consume from `a` in a different order to stress the lazy cache.
        let _ = a.advance(SimTime::from_secs(3), SimDuration::from_secs(1));
        assert_eq!(
            a.windows_between(SimTime::ZERO, SimTime::from_secs(5)),
            b.windows_between(SimTime::ZERO, SimTime::from_secs(5))
        );
    }

    #[test]
    fn count_between_counts_window_starts() {
        let s = fixed(1000, 100, 500);
        assert_eq!(s.count_between(SimTime::ZERO, SimTime::from_secs(4)), 4);
        assert_eq!(s.count_between(SimTime::from_millis(501), SimTime::from_secs(2)), 1);
    }

    #[test]
    fn duty_cycle_long_at_one_hz() {
        let s = FreezeSchedule::periodic(PeriodicFreeze {
            first_trigger: SimTime::ZERO,
            period: SimDuration::from_secs(1),
            durations: DurationModel::long_smi(),
            policy: TriggerPolicy::SkipWhileFrozen,
            seed: 0,
        });
        assert!((s.duty_cycle() - 0.105).abs() < 0.001);
    }

    #[test]
    fn degenerate_configs_normalize_and_validate_rejects_them() {
        use crate::error::SimError;
        // A zero period builds a usable (1 ns) schedule instead of panicking...
        let cfg = PeriodicFreeze {
            first_trigger: SimTime::ZERO,
            period: SimDuration::ZERO,
            durations: DurationModel::Fixed(SimDuration::from_millis(1)),
            policy: TriggerPolicy::RearmAfterExit,
            seed: 1,
        };
        let s = FreezeSchedule::periodic(cfg.clone());
        assert!(s.is_noisy());
        assert!(!s.windows_between(SimTime::ZERO, SimTime::from_millis(10)).is_empty());
        // ...while validate reports the typed rejection.
        assert!(matches!(cfg.validate(), Err(SimError::InvalidSpec { .. })));

        let bad_gap = PeriodicFreeze {
            policy: TriggerPolicy::DeferToExit { min_gap: SimDuration::ZERO },
            period: SimDuration::from_millis(50),
            ..cfg.clone()
        };
        assert!(matches!(bad_gap.validate(), Err(SimError::InvalidSpec { .. })));

        let inverted = PeriodicFreeze {
            period: SimDuration::from_millis(50),
            durations: DurationModel::Uniform {
                lo: SimDuration::from_millis(10),
                hi: SimDuration::from_millis(2),
            },
            ..cfg
        };
        assert!(matches!(inverted.validate(), Err(SimError::InvalidSpec { .. })));
        // Sampling from the inverted band still stays within [min, max].
        let sched = FreezeSchedule::periodic(inverted);
        for (s, e) in sched.windows_between(SimTime::ZERO, SimTime::from_secs(1)) {
            let d = e.since(s);
            assert!(d >= SimDuration::from_millis(2) && d <= SimDuration::from_millis(10));
        }
    }

    #[test]
    fn span_stats_matches_a_brute_force_scan() {
        let s = FreezeSchedule::periodic(PeriodicFreeze {
            first_trigger: SimTime::from_millis(333),
            period: SimDuration::from_millis(700),
            durations: DurationModel::short_smi(),
            policy: TriggerPolicy::SkipWhileFrozen,
            seed: 99,
        });
        // One independent full-window list; every interval query below is
        // checked against a plain scan of it.
        let all = s.windows_between(SimTime::ZERO, SimTime::from_secs(120));
        let mut rng = SimRng::new(5);
        for _ in 0..300 {
            let a = SimTime::from_nanos(rng.below(100_000_000_000));
            let b = SimTime::from_nanos(rng.below(100_000_000_000));
            let (count, frozen) = s.span_stats(a, b);
            let mut want_count = 0usize;
            let mut want_frozen = SimDuration::ZERO;
            if b > a {
                for &(ws, we) in &all {
                    if ws < b && we > a {
                        want_frozen += we.min(b).since(ws.max(a));
                        if ws >= a {
                            want_count += 1;
                        }
                    }
                }
            }
            assert_eq!(count, want_count, "count over [{a:?}, {b:?})");
            assert_eq!(frozen, want_frozen, "frozen over [{a:?}, {b:?})");
            assert_eq!(s.count_between(a, b), want_count);
            assert_eq!(s.frozen_between(a, b), want_frozen);
        }
    }

    #[test]
    fn cursor_cache_survives_out_of_order_queries() {
        let s = fixed(1000, 100, 500);
        // Warm the cursor far ahead, then query far behind, at the very
        // start, and ahead again — every answer must match a fresh clone.
        let probes = [
            SimTime::from_secs(500),
            SimTime::from_millis(501),
            SimTime::ZERO,
            SimTime::from_secs(250),
            SimTime::from_millis(499),
            SimTime::from_secs(700),
        ];
        let fresh = s.clone();
        for t in probes {
            assert_eq!(s.window_containing(t), fresh.clone().window_containing(t), "{t:?}");
            assert_eq!(s.unfreeze(t), fresh.clone().unfreeze(t), "{t:?}");
        }
    }

    #[test]
    fn long_horizon_queries_are_consistent() {
        let s = fixed(100, 30, 0);
        // One hour of simulated time: 36_000 windows.
        let total = s.frozen_between(SimTime::ZERO, SimTime::from_secs(3600));
        assert_eq!(total, SimDuration::from_secs(1080));
    }

    fn ms_windows(pairs: &[(u64, u64)]) -> Vec<(SimTime, SimTime)> {
        pairs.iter().map(|&(s, e)| (SimTime::from_millis(s), SimTime::from_millis(e))).collect()
    }

    #[test]
    fn explicit_windows_answer_the_same_queries_as_periodic() {
        let s = FreezeSchedule::from_windows(ms_windows(&[(500, 600), (1500, 1600)]))
            .expect("valid windows");
        assert!(s.is_noisy());
        assert!(s.config().is_none());
        assert!(s.is_frozen(SimTime::from_millis(500)));
        assert!(!s.is_frozen(SimTime::from_millis(600)));
        assert_eq!(s.unfreeze(SimTime::from_millis(550)), SimTime::from_millis(600));
        assert_eq!(
            s.next_window_after(SimTime::from_millis(700)),
            Some((SimTime::from_millis(1500), SimTime::from_millis(1600)))
        );
        assert_eq!(s.next_window_after(SimTime::from_millis(1500)), None);
        assert_eq!(
            s.advance(SimTime::from_millis(100), SimDuration::from_millis(450)),
            SimTime::from_millis(650)
        );
        assert_eq!(
            s.frozen_between(SimTime::from_millis(550), SimTime::from_millis(1600)),
            SimDuration::from_millis(150)
        );
        assert_eq!(s.count_between(SimTime::ZERO, SimTime::from_secs(4)), 2);
        // A clone answers identically.
        let c = s.clone();
        assert_eq!(c.windows_between(SimTime::ZERO, SimTime::from_secs(4)).len(), 2);
    }

    #[test]
    fn explicit_windows_reject_malformed_lists() {
        use crate::error::SimError;
        // Zero-length window.
        let zero = FreezeSchedule::from_windows(ms_windows(&[(100, 100)]));
        assert!(matches!(zero, Err(SimError::InvalidSpec { .. })));
        // Overlapping windows.
        let overlap = FreezeSchedule::from_windows(ms_windows(&[(100, 300), (200, 400)]));
        assert!(matches!(overlap, Err(SimError::InvalidSpec { .. })));
        // Out-of-order windows.
        let unsorted = FreezeSchedule::from_windows(ms_windows(&[(500, 600), (100, 200)]));
        assert!(matches!(unsorted, Err(SimError::InvalidSpec { .. })));
        // The empty list is a valid (transparent) schedule.
        let empty = FreezeSchedule::from_windows(Vec::new()).expect("empty is valid");
        assert_eq!(empty.advance(SimTime::ZERO, SimDuration::from_secs(1)), SimTime::from_secs(1));
    }

    #[test]
    fn slowdown_factor_is_range_checked() {
        use crate::error::SimError;
        let make = || fixed(1000, 100, 500);
        assert!(matches!(make().with_slowdown(0), Err(SimError::InvalidSpec { .. })));
        assert!(matches!(make().with_slowdown(1000), Err(SimError::InvalidSpec { .. })));
        assert!(make().with_slowdown(1).is_ok());
        assert!(make().with_slowdown(999).is_ok());
    }

    #[test]
    fn slowdown_windows_degrade_instead_of_freezing() {
        // Window [500, 600) ms at half throughput: the node is never
        // "frozen", and 450ms of work from t=100 spends 400ms reaching
        // the window, then needs 100ms of wall to do 50ms of work.
        let s = fixed(1000, 100, 500).with_slowdown(500).expect("valid factor");
        assert!(!s.is_frozen(SimTime::from_millis(550)));
        assert_eq!(s.unfreeze(SimTime::from_millis(550)), SimTime::from_millis(550));
        let end = s.advance(SimTime::from_millis(100), SimDuration::from_millis(450));
        assert_eq!(end, SimTime::from_millis(600));
        // Stolen time over the window is half its length.
        assert_eq!(
            s.frozen_between(SimTime::from_millis(400), SimTime::from_millis(700)),
            SimDuration::from_millis(50)
        );
        // The clone keeps the factor.
        assert_eq!(s.clone().slowdown_milli(), 500);
    }

    #[test]
    fn slowdown_advance_keeps_the_freeze_algebra() {
        let s = fixed(700, 120, 333).with_slowdown(930).expect("valid factor");
        let start = SimTime::from_millis(10);
        for work_ms in [0u64, 1, 100, 333, 700, 3000, 12345] {
            let work = SimDuration::from_millis(work_ms);
            let end = s.advance(start, work);
            // Inverse and dominance.
            assert_eq!(s.work_between(start, end), work, "work={work_ms}ms");
            assert!(end.since(start) >= work);
        }
        // Additivity, including odd nanosecond splits.
        let t = SimTime::from_millis(7);
        for (a_ns, b_ns) in [(0u64, 5u64), (5, 0), (999_999, 1), (123_456_789, 7), (1, 999)] {
            let a = SimDuration(a_ns);
            let b = SimDuration(b_ns);
            assert_eq!(s.advance(s.advance(t, a), b), s.advance(t, a + b), "a={a_ns} b={b_ns}");
        }
    }

    #[test]
    fn slowdown_span_stats_matches_a_brute_force_scan() {
        let s = FreezeSchedule::periodic(PeriodicFreeze {
            first_trigger: SimTime::from_millis(333),
            period: SimDuration::from_millis(700),
            durations: DurationModel::short_smi(),
            policy: TriggerPolicy::SkipWhileFrozen,
            seed: 99,
        })
        .with_slowdown(250)
        .expect("valid factor");
        let all = s.windows_between(SimTime::ZERO, SimTime::from_secs(120));
        let done = |x: u64| (x as u128 * 250 / 1000) as u64;
        let mut rng = SimRng::new(5);
        for _ in 0..200 {
            let a = SimTime::from_nanos(rng.below(100_000_000_000));
            let b = SimTime::from_nanos(rng.below(100_000_000_000));
            let (count, stolen) = s.span_stats(a, b);
            let mut want_count = 0usize;
            let mut want_stolen = 0u64;
            if b > a {
                for &(ws, we) in &all {
                    if ws < b && we > a {
                        let lo = ws.max(a);
                        let hi = we.min(b);
                        want_stolen += (hi.0 - lo.0) - (done(hi.0 - ws.0) - done(lo.0 - ws.0));
                        if ws >= a {
                            want_count += 1;
                        }
                    }
                }
            }
            assert_eq!(count, want_count, "count over [{a:?}, {b:?})");
            assert_eq!(stolen, SimDuration(want_stolen), "stolen over [{a:?}, {b:?})");
        }
    }

    #[test]
    fn drawn_matches_the_historical_draw_order() {
        // `drawn` is the single constructor surface; the draw order (one
        // phase draw, one seed draw) is golden-digest-load-bearing.
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        let period = SimDuration::from_secs(1);
        let phase = SimDuration(a.below(period.0));
        let seed = a.next();
        let cfg = PeriodicFreeze::drawn(
            period,
            DurationModel::long_smi(),
            TriggerPolicy::RearmAfterExit,
            &mut b,
        );
        assert_eq!(cfg.first_trigger, SimTime::ZERO + phase);
        assert_eq!(cfg.seed, seed);
        assert_eq!(cfg.policy, TriggerPolicy::RearmAfterExit);
        assert_eq!(a.next(), b.next(), "streams must stay in lockstep");
    }
}
