//! The worker half of process-isolated execution: a frame-driven serve
//! loop a subprocess runs over its own stdin/stdout.
//!
//! A worker is deliberately dumb. It announces itself with `Hello`,
//! builds its cells from the campaign frame the supervisor sends right
//! after spawn (the same function the supervisor built them with),
//! executes exactly the cell each [`proto::ToWorker::Run`] frame names,
//! and reports one [`proto::WorkOutcome`] per dispatch. It never touches
//! the cache or the journal, never retries (the dispatcher owns the
//! attempt budget), and exits on `Shutdown` or a clean EOF — so killing a
//! worker at any instant loses at most the single attempt in flight. The
//! same `run_one` is the in-thread transport's executor, so a cell's
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
use jsonio::Json;
use std::io::{Read, Write};

/// Serve the protocol over a worker's stdin/stdout (`input`/`output`):
/// write `Hello`, then read the first frame. A `campaign` frame is
/// handed to `build` and its cells are served; `Shutdown` or EOF exits 0
/// before anything is built. Returns the process exit code: `1` on a
/// torn or malformed stream, any other first frame, or a campaign
/// `build` rejects (the supervisor sees the death either way).
pub fn serve<R: Read, W: Write>(
    build: impl FnOnce(&Json) -> Result<Vec<Cell>, String>,
    perf_probe: Option<PerfProbe>,
    input: R,
    output: W,
) -> i32 {
    let (mut reader, mut writer) = (FrameReader::new(input), FrameWriter::new(output));
    let cells = match hello(&mut writer).and_then(|()| next(&mut reader)) {
        Ok(Some(proto::ToWorker::Campaign { campaign })) => build(&campaign),
        Ok(None | Some(proto::ToWorker::Shutdown)) => return 0,
        Ok(Some(proto::ToWorker::Run { .. })) | Err(()) => return 1,
    };
    let Ok(cells) = cells.map_err(|e| eprintln!("worker: {e}")) else { return 1 };
    serve_frames(&cells, perf_probe.as_ref(), &mut reader, &mut writer)
}

/// [`serve`] for a caller that holds the cells already: `Hello`, then
/// `Run` frames, with no campaign frame expected.
pub fn serve_io<R: Read, W: Write>(
    cells: Vec<Cell>,
    perf_probe: Option<PerfProbe>,
    input: R,
    output: W,
) -> i32 {
    let mut writer = FrameWriter::new(output);
    if hello(&mut writer).is_err() {
        return 1;
    }
    serve_frames(&cells, perf_probe.as_ref(), &mut FrameReader::new(input), &mut writer)
}

fn hello<W: Write>(writer: &mut FrameWriter<W>) -> Result<(), ()> {
    let hello =
        proto::FromWorker::Hello { proto: proto::PROTO_VERSION, pid: std::process::id() as u64 };
    writer.write(&hello.to_json()).map_err(|_| ())
}

/// The next supervisor message; `Ok(None)` on a clean EOF, `Err` on a
/// torn or undecodable frame.
fn next<R: Read>(reader: &mut FrameReader<R>) -> Result<Option<proto::ToWorker>, ()> {
    match reader.read() {
        Ok(Some(frame)) => proto::ToWorker::from_json(&frame).map(Some).map_err(|_| ()),
        Ok(None) => Ok(None),
        Err(_) => Err(()),
    }
}

/// Answer `Run` frames from `cells` until `Shutdown` or EOF (exit 0);
/// a torn frame or any other message exits 1.
fn serve_frames<R: Read, W: Write>(
    cells: &[Cell],
    perf_probe: Option<&PerfProbe>,
    reader: &mut FrameReader<R>,
    writer: &mut FrameWriter<W>,
) -> i32 {
    loop {
        match next(reader) {
            Ok(None | Some(proto::ToWorker::Shutdown)) => return 0,
            Ok(Some(proto::ToWorker::Run { id, attempt: _, budget_units, spec })) => {
                let outcome = match resolve(cells, &spec) {
                    Ok(cell) => run_one(cell, perf_probe, budget_units),
                    Err(unresolvable) => unresolvable,
                };
                let done = proto::FromWorker::Done { id, outcome };
                if writer.write(&done.to_json()).is_err() {
                    return 1;
                }
            }
            Ok(Some(proto::ToWorker::Campaign { .. })) | Err(()) => return 1,
        }
    }
}

/// Resolve a dispatched spec against the worker's cells, or explain (as
/// an `Unresolvable` outcome) why this worker cannot produce it.
fn resolve<'c>(cells: &'c [Cell], spec: &CellSpec) -> Result<&'c Cell, proto::WorkOutcome> {
    let named = |c: &&Cell| c.spec.experiment == spec.experiment && c.spec.cell == spec.cell;
    let Some(cell) = cells.iter().find(named) else {
        return Err(proto::WorkOutcome::Unresolvable {
            message: format!("no cell {}/{} in this worker's campaign", spec.experiment, spec.cell),
        });
    };
    // The worker's cell must be the *same* cell, not just the same name:
    // a seed/reps/params mismatch means supervisor and worker binaries
    // build the campaign differently, and executing it would silently
    // compute the wrong payload under the right cache key.
    if cell.spec.seed != spec.seed
        || cell.spec.reps != spec.reps
        || cell.spec.params.to_string() != spec.params.to_string()
    {
        return Err(proto::WorkOutcome::Unresolvable {
            message: format!(
                "cell {}/{} identity mismatch between supervisor and worker",
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

    /// Drive a full session in memory through `serve`, a function of
    /// the input and output streams: frames in, frames out.
    fn drive(
        messages: &[proto::ToWorker],
        serve: impl FnOnce(&[u8], &mut Vec<u8>) -> i32,
    ) -> (i32, Vec<proto::FromWorker>) {
        let mut input = Vec::new();
        {
            let mut w = FrameWriter::new(&mut input);
            for m in messages {
                w.write(&m.to_json()).expect("encode");
            }
        }
        let mut output = Vec::new();
        let code = serve(input.as_slice(), &mut output);
        let mut replies = Vec::new();
        let mut r = FrameReader::new(output.as_slice());
        while let Some(frame) = r.read().expect("frame") {
            replies.push(proto::FromWorker::from_json(&frame).expect("decode"));
        }
        (code, replies)
    }

    fn session(cells: Vec<Cell>, messages: &[proto::ToWorker]) -> (i32, Vec<proto::FromWorker>) {
        drive(messages, |input, output| serve_io(cells, None, input, output))
    }

    /// A session through the campaign handshake, with a builder that
    /// yields [`catalog`] for the campaign `"ok"` and rejects any other.
    /// Also returns whether the builder ran.
    fn campaign_session(messages: &[proto::ToWorker]) -> (i32, Vec<proto::FromWorker>, bool) {
        let mut built = false;
        let build = |campaign: &Json| {
            built = true;
            match campaign.as_str() {
                Some("ok") => Ok(catalog()),
                _ => Err("unknown campaign".to_string()),
            }
        };
        let (code, replies) = drive(messages, |input, output| serve(build, None, input, output));
        (code, replies, built)
    }

    fn campaign(name: &str) -> proto::ToWorker {
        proto::ToWorker::Campaign { campaign: Json::Str(name.into()) }
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
    fn a_campaign_frame_builds_the_cells_then_runs_are_served() {
        let (code, replies, built) = campaign_session(&[
            campaign("ok"),
            run_msg(1, spec("good")),
            proto::ToWorker::Shutdown,
        ]);
        assert_eq!(code, 0);
        assert!(built);
        assert!(matches!(replies[0], proto::FromWorker::Hello { .. }));
        assert!(matches!(
            &replies[1],
            proto::FromWorker::Done { id: 1, outcome: proto::WorkOutcome::Ok { .. } }
        ));
    }

    #[test]
    fn shutdown_or_eof_before_a_campaign_exits_zero_without_building() {
        for messages in [&[proto::ToWorker::Shutdown][..], &[]] {
            let (code, replies, built) = campaign_session(messages);
            assert_eq!((code, replies.len(), built), (0, 1, false), "{messages:?}");
        }
    }

    #[test]
    fn any_other_first_frame_or_a_rejected_campaign_exits_one() {
        for messages in [
            vec![run_msg(1, spec("good"))],
            vec![campaign("nope"), run_msg(1, spec("good"))],
            vec![campaign("ok"), campaign("ok")],
        ] {
            let (code, replies, _) = campaign_session(&messages);
            assert_eq!((code, replies.len()), (1, 1), "{messages:?}: hello, then nothing");
        }
        // `serve_io` expects no campaign frame at all.
        let (code, replies) = session(catalog(), &[campaign("ok")]);
        assert_eq!((code, replies.len()), (1, 1));
    }

    #[test]
    fn malformed_input_stream_exits_nonzero() {
        let code = serve_io(catalog(), None, &b"\x00\x00"[..], &mut Vec::new());
        assert_eq!(code, 1, "a torn header is a protocol failure, not a hang");
    }
}
