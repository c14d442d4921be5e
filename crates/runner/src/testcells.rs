//! Shared fixture cells for the isolation tests and the `chaos-worker`
//! fixture binary. Compiled only for tests and `--features chaos`.
//!
//! The cells are deliberately tiny and *deterministic in their work
//! units*: cell `c{i}` "spends" `(i + 1) * 100` units, reported through
//! [`fixture_probe`] exactly the way the real engine reports
//! `events_popped` through `sim_core::perf::take()`. That makes
//! deadline verdicts a pure function of cell identity and budget — a
//! 650-unit budget deadlines `c6` (700) and `c7` (800) on every
//! isolated run, which is what the golden deadline fixture asserts.

use crate::{Cell, CellSpec, EnginePerf, PerfProbe};
use jsonio::Json;
use std::cell::Cell as StdCell;
use std::sync::Arc;

thread_local! {
    /// Work units "spent" by the most recent fixture cell on this
    /// thread, harvested (and reset) by [`fixture_probe`] — the same
    /// take-on-read discipline as the engine's thread-local counters.
    static UNITS: StdCell<u64> = const { StdCell::new(0) };
}

/// A perf probe over the fixture counter, shaped like the engine probe
/// the CLI installs: harvest resets the counter so each cell's units
/// are attributed once.
pub fn fixture_probe() -> PerfProbe {
    Arc::new(|| EnginePerf { events_popped: UNITS.with(|u| u.replace(0)), queue_peak: 0, runs: 1 })
}

/// The spec for fixture cell `i` — identity only, shared between the
/// supervisor side (which queues specs) and the worker side (which must
/// rebuild the identical catalog).
pub fn fixture_spec(i: u64, seed: u64) -> CellSpec {
    CellSpec {
        experiment: "iso-fixture".into(),
        cell: format!("c{i}"),
        params: Json::obj(vec![("i", Json::U64(i))]),
        seed,
        reps: 1,
    }
}

/// `n` deterministic fixture cells. Cell `c{i}` produces
/// `{"value": i*10, "units": (i+1)*100}` and books its units into the
/// thread-local counter for [`fixture_probe`] to harvest.
pub fn fixture_cells(n: u64, seed: u64) -> Vec<Cell> {
    (0..n)
        .map(|i| {
            Cell::new(fixture_spec(i, seed), move || {
                let units = (i + 1) * 100;
                UNITS.with(|u| u.set(units));
                Json::obj(vec![("value", Json::U64(i * 10)), ("units", Json::U64(units))])
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_are_deterministic_in_cell_identity() {
        let cells = fixture_cells(8, 3);
        assert_eq!(cells.len(), 8);
        let probe = fixture_probe();
        let payload = (cells[6].work)().expect("fixture cells are infallible");
        assert_eq!(payload.get("units").and_then(Json::as_u64), Some(700));
        assert_eq!(probe().events_popped, 700, "probe harvests the booked units");
        assert_eq!(probe().events_popped, 0, "harvest resets the counter");
    }
}
