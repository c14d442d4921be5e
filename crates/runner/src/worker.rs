//! The worker half of process-isolated execution: a frame-driven serve
//! loop a subprocess runs over its own stdin/stdout.
//!
//! A worker is deliberately dumb. It holds a catalog of cells (rebuilt
//! from the same deterministic generators the supervisor used), executes
//! exactly the cell each [`proto::ToWorker::Run`] frame names, and
//! reports one [`proto::WorkOutcome`] per dispatch. It never touches the
//! cache or the journal, never retries (the dispatcher owns the attempt
//! budget), and exits on `Shutdown` or a clean EOF — so killing a worker
//! at any instant loses at most the single attempt in flight. The same
//! `run_one` is the in-thread transport's executor, so a cell's
//! verdict cannot depend on which side of a pipe it ran.
//!
//! Deadlines are deterministic here: when a `Run` carries a nonzero
//! `budget_units`, the worker harvests the engine's per-thread counters
//! around the cell and reports [`proto::WorkOutcome::Deadline`] when
//! `events_popped` exceeds the budget. The verdict depends only on the
//! cell identity and the budget — never on wall clock — so a deadline
//! quarantine reproduces exactly on every rerun. (The *preemptive* guard
//! for truly wedged cells is the supervisor's wall-clock watchdog, which
//! kills the whole process; see `supervisor`.)

use crate::{panic_message, proto, Cell, CellSpec, PerfProbe};
use jsonio::framed::{FrameReader, FrameWriter};
use std::collections::BTreeMap;
use std::io::{Read, Write};

/// Serve the protocol over this process's stdin/stdout. Returns the
/// process exit code: `0` after `Shutdown` or clean EOF, `1` on a torn
/// or malformed stream (the supervisor sees the death either way).
pub fn serve(cells: Vec<Cell>, perf_probe: Option<PerfProbe>) -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_io(cells, perf_probe, stdin.lock(), stdout.lock())
}

/// [`serve`] over arbitrary streams (what the in-memory tests drive).
pub fn serve_io<R: Read, W: Write>(
    cells: Vec<Cell>,
    perf_probe: Option<PerfProbe>,
    input: R,
    output: W,
) -> i32 {
    let mut reader = FrameReader::new(input);
    let mut writer = FrameWriter::new(output);
    let index: BTreeMap<(String, String), usize> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| ((c.spec.experiment.clone(), c.spec.cell.clone()), i))
        .collect();
    let hello =
        proto::FromWorker::Hello { proto: proto::PROTO_VERSION, pid: std::process::id() as u64 };
    if writer.write(&hello.to_json()).is_err() {
        return 1;
    }
    loop {
        let frame = match reader.read() {
            Ok(Some(frame)) => frame,
            Ok(None) => return 0,
            Err(_) => return 1,
        };
        let msg = match proto::ToWorker::from_json(&frame) {
            Ok(msg) => msg,
            Err(_) => return 1,
        };
        match msg {
            proto::ToWorker::Shutdown => return 0,
            proto::ToWorker::Run { id, attempt: _, budget_units, spec } => {
                let outcome = match resolve(&cells, &index, &spec) {
                    Ok(cell) => run_one(cell, perf_probe.as_ref(), budget_units),
                    Err(unresolvable) => unresolvable,
                };
                let done = proto::FromWorker::Done { id, outcome };
                if writer.write(&done.to_json()).is_err() {
                    return 1;
                }
            }
        }
    }
}

/// Resolve a dispatched spec against the catalog, or explain (as an
/// `Unresolvable` outcome) why this worker cannot produce it.
fn resolve<'c>(
    cells: &'c [Cell],
    index: &BTreeMap<(String, String), usize>,
    spec: &CellSpec,
) -> Result<&'c Cell, proto::WorkOutcome> {
    let Some(cell) =
        index.get(&(spec.experiment.clone(), spec.cell.clone())).and_then(|&i| cells.get(i))
    else {
        return Err(proto::WorkOutcome::Unresolvable {
            message: format!("no cell {}/{} in this worker's catalog", spec.experiment, spec.cell),
        });
    };
    // The catalog entry must be the *same* cell, not just the same name:
    // a seed/reps/params mismatch means supervisor and worker were built
    // from different campaign options, and executing it would silently
    // compute the wrong payload under the right cache key.
    if cell.spec.seed != spec.seed
        || cell.spec.reps != spec.reps
        || cell.spec.params.to_string() != spec.params.to_string()
    {
        return Err(proto::WorkOutcome::Unresolvable {
            message: format!(
                "cell {}/{} identity mismatch between supervisor and worker catalogs",
                spec.experiment, spec.cell
            ),
        });
    }
    Ok(cell)
}

/// Execute one attempt at a cell: bracket it with the perf probe, run it
/// once under `catch_unwind`, and apply the deterministic work-unit
/// budget (`0` disables it). The in-thread transport calls this
/// directly; a worker process calls it for each `Run` frame.
pub(crate) fn run_one(
    cell: &Cell,
    perf_probe: Option<&PerfProbe>,
    budget_units: u64,
) -> proto::WorkOutcome {
    // Discard counters accumulated before this cell so the harvest below
    // is attributable to exactly the work we are about to run.
    if let Some(probe) = perf_probe {
        let _ = probe();
    }
    let work = &cell.work;
    // AssertUnwindSafe: the closure is `Fn` over owned captures; a
    // failed attempt discards nothing but itself, and the payload of a
    // later successful attempt is a pure function of the cell identity.
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)) {
        Ok(Ok(payload)) => {
            let perf = perf_probe.map(|p| p()).unwrap_or_default();
            if budget_units > 0 && perf.events_popped > budget_units {
                proto::WorkOutcome::Deadline { budget_units, spent_units: perf.events_popped }
            } else {
                proto::WorkOutcome::Ok { payload, perf }
            }
        }
        Ok(Err(reason)) => proto::WorkOutcome::Invalid { reason },
        Err(panic_payload) => {
            proto::WorkOutcome::Panic { message: panic_message(panic_payload.as_ref()) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EnginePerf;
    use jsonio::Json;
    use std::sync::Arc;

    fn spec(cell: &str) -> CellSpec {
        CellSpec {
            experiment: "wtest".into(),
            cell: cell.into(),
            params: Json::obj(vec![("p", Json::U64(1))]),
            seed: 9,
            reps: 2,
        }
    }

    fn catalog() -> Vec<Cell> {
        vec![
            Cell::new(spec("good"), || Json::obj(vec![("value", Json::U64(11))])),
            Cell::fallible(spec("bad"), || {
                Err(Json::obj(vec![("kind", Json::Str("invalid_spec".into()))]))
            }),
            Cell::new(spec("boom"), || panic!("chaos: worker cell fault")),
        ]
    }

    /// Drive a full session in memory: frames in, frames out.
    fn session(cells: Vec<Cell>, messages: &[proto::ToWorker]) -> (i32, Vec<proto::FromWorker>) {
        let mut input = Vec::new();
        {
            let mut w = FrameWriter::new(&mut input);
            for m in messages {
                w.write(&m.to_json()).expect("encode");
            }
        }
        let mut output = Vec::new();
        let code = serve_io(cells, None, input.as_slice(), &mut output);
        let mut replies = Vec::new();
        let mut r = FrameReader::new(output.as_slice());
        while let Some(frame) = r.read().expect("frame") {
            replies.push(proto::FromWorker::from_json(&frame).expect("decode"));
        }
        (code, replies)
    }

    fn run_msg(id: u64, spec: CellSpec) -> proto::ToWorker {
        proto::ToWorker::Run { id, attempt: 1, budget_units: 0, spec }
    }

    #[test]
    fn serves_hello_then_outcomes_then_exits_on_shutdown() {
        crate::chaos::quiet_injected_panics();
        let (code, replies) = session(
            catalog(),
            &[
                run_msg(1, spec("good")),
                run_msg(2, spec("bad")),
                run_msg(3, spec("boom")),
                run_msg(4, spec("missing")),
                proto::ToWorker::Shutdown,
            ],
        );
        assert_eq!(code, 0);
        assert!(matches!(replies[0], proto::FromWorker::Hello { proto: proto::PROTO_VERSION, .. }));
        let outcomes: Vec<_> = replies[1..]
            .iter()
            .map(|r| match r {
                proto::FromWorker::Done { id, outcome } => (*id, outcome.clone()),
                other => panic!("unexpected reply {other:?}"),
            })
            .collect();
        assert!(matches!(&outcomes[0], (1, proto::WorkOutcome::Ok { payload, .. })
                if payload.get("value").and_then(Json::as_u64) == Some(11)));
        assert!(matches!(&outcomes[1], (2, proto::WorkOutcome::Invalid { .. })));
        assert!(matches!(&outcomes[2], (3, proto::WorkOutcome::Panic { message })
                if message.contains("chaos: worker cell fault")));
        assert!(matches!(&outcomes[3], (4, proto::WorkOutcome::Unresolvable { .. })));
    }

    #[test]
    fn clean_eof_without_shutdown_exits_zero() {
        let (code, replies) = session(catalog(), &[run_msg(1, spec("good"))]);
        assert_eq!(code, 0, "a supervisor closing the pipe is a normal drain");
        assert_eq!(replies.len(), 2, "hello + one outcome");
    }

    #[test]
    fn identity_mismatch_is_unresolvable_not_wrong_payload() {
        let mut wrong_seed = spec("good");
        wrong_seed.seed = 999;
        let (_, replies) = session(catalog(), &[run_msg(1, wrong_seed)]);
        assert!(
            matches!(&replies[1], proto::FromWorker::Done { outcome: proto::WorkOutcome::Unresolvable { message }, .. }
                if message.contains("identity mismatch"))
        );
    }

    #[test]
    fn deadline_budget_is_enforced_from_harvested_units() {
        // A probe that reports a fixed unit count per harvest: over a
        // 100-unit budget it must deadline, over a 10_000-unit budget it
        // must pass — same cell, same payload, different verdicts only
        // because the budget differs.
        let probe: PerfProbe =
            Arc::new(|| EnginePerf { events_popped: 500, queue_peak: 4, runs: 1 });
        for (budget, expect_deadline) in [(100u64, true), (10_000u64, false), (0u64, false)] {
            let mut input = Vec::new();
            {
                let mut w = FrameWriter::new(&mut input);
                w.write(
                    &proto::ToWorker::Run {
                        id: 1,
                        attempt: 1,
                        budget_units: budget,
                        spec: spec("good"),
                    }
                    .to_json(),
                )
                .expect("encode");
            }
            let mut output = Vec::new();
            let code = serve_io(catalog(), Some(Arc::clone(&probe)), input.as_slice(), &mut output);
            assert_eq!(code, 0);
            let mut r = FrameReader::new(output.as_slice());
            let _hello = r.read().expect("hello");
            let done = r.read().expect("done").expect("some");
            let reply = proto::FromWorker::from_json(&done).expect("decode");
            match reply {
                proto::FromWorker::Done {
                    outcome: proto::WorkOutcome::Deadline { budget_units, spent_units },
                    ..
                } => {
                    assert!(expect_deadline, "unexpected deadline under budget {budget}");
                    assert_eq!((budget_units, spent_units), (budget, 500));
                }
                proto::FromWorker::Done { outcome: proto::WorkOutcome::Ok { .. }, .. } => {
                    assert!(!expect_deadline, "expected deadline under budget {budget}");
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_input_stream_exits_nonzero() {
        let code = serve_io(catalog(), None, &b"\x00\x00"[..], &mut Vec::new());
        assert_eq!(code, 1, "a torn header is a protocol failure, not a hang");
    }
}
