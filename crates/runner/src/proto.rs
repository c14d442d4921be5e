//! Wire protocol between the isolation supervisor and its worker
//! subprocesses — typed messages over [`jsonio::framed`] frames.
//!
//! The protocol is deliberately tiny and stateless per message:
//!
//! * supervisor → worker: [`ToWorker::Campaign`] once, right after
//!   spawn, then [`ToWorker::Run`] (one cell, with the attempt number
//!   and the deterministic work-unit budget) or [`ToWorker::Shutdown`].
//! * worker → supervisor: [`FromWorker::Hello`] once at startup, then
//!   one [`FromWorker::Done`] per `Run`, carrying a [`WorkOutcome`].
//!
//! Everything crossing the pipe is the *identity* of work
//! ([`CellSpec`]) or its *result* — never closures, never file paths.
//! Workers are pure compute: the supervisor owns the cache, the
//! journal, and all retry/respawn policy, so a worker that dies at any
//! byte boundary loses only the attempt in flight.
//!
//! Byte-identity note: a payload traveling `Json → frame → Json`
//! re-serializes to the same bytes (jsonio's integer lanes render
//! identically and floats round-trip exactly), so records minted from a
//! worker's payload are byte-identical to in-process execution.

use crate::{CellSpec, EnginePerf};
use jsonio::Json;

/// Protocol version, announced in `Hello`. Version 2 added the
/// `campaign` frame; a version-1 worker rejects it and exits, which the
/// supervisor sees as a crash.
pub const PROTO_VERSION: u64 = 2;

/// A malformed or unexpected protocol frame.
#[derive(Debug)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

fn err(what: &str, frame: &Json) -> ProtoError {
    let mut rendered = frame.to_string();
    rendered.truncate(rendered.floor_char_boundary(160));
    ProtoError(format!("{what} in frame {rendered}"))
}

/// `frame[key]` read through `lane`, or an error saying the `what`
/// message lacks it.
fn field<'f, T>(
    frame: &'f Json,
    what: &str,
    key: &str,
    lane: impl FnOnce(&'f Json) -> Option<T>,
) -> Result<T, ProtoError> {
    frame.get(key).and_then(lane).ok_or_else(|| err(&format!("{what} without {key}"), frame))
}

/// Messages the supervisor sends a worker.
#[derive(Clone, Debug, PartialEq)]
pub enum ToWorker {
    /// The campaign whose cells the worker builds and serves: opaque to
    /// the runner, decoded by the worker's builder (see
    /// [`crate::worker::serve`]).
    Campaign {
        /// The campaign spec, as the supervisor's caller set it.
        campaign: Json,
    },
    /// Execute one cell.
    Run {
        /// Supervisor-chosen correlation id, echoed back in `Done`.
        id: u64,
        /// 1-based attempt number (for logging; the supervisor owns the
        /// retry budget).
        attempt: u32,
        /// Deterministic work-unit budget (engine events); `0` = none.
        /// A cell whose harvested `events_popped` exceeds this is
        /// reported as [`WorkOutcome::Deadline`] instead of `Ok`.
        budget_units: u64,
        /// The cell identity to resolve and execute.
        spec: CellSpec,
    },
    /// Drain and exit cleanly.
    Shutdown,
}

impl ToWorker {
    /// Serialize for the wire.
    pub fn to_json(&self) -> Json {
        match self {
            ToWorker::Campaign { campaign } => Json::obj(vec![
                ("type", Json::Str("campaign".into())),
                ("campaign", campaign.clone()),
            ]),
            ToWorker::Run { id, attempt, budget_units, spec } => Json::obj(vec![
                ("type", Json::Str("run".into())),
                ("id", Json::U64(*id)),
                ("attempt", Json::U64(*attempt as u64)),
                ("budget_units", Json::U64(*budget_units)),
                ("spec", spec_to_json(spec)),
            ]),
            ToWorker::Shutdown => Json::obj(vec![("type", Json::Str("shutdown".into()))]),
        }
    }

    /// Parse from the wire.
    pub fn from_json(frame: &Json) -> Result<ToWorker, ProtoError> {
        match frame.get("type").and_then(Json::as_str) {
            Some("campaign") => Ok(ToWorker::Campaign {
                campaign: field(frame, "campaign", "campaign", Some)?.clone(),
            }),
            Some("run") => Ok(ToWorker::Run {
                id: field(frame, "run", "id", Json::as_u64)?,
                attempt: field(frame, "run", "attempt", Json::as_u32)?,
                budget_units: field(frame, "run", "budget_units", Json::as_u64)?,
                spec: spec_from_json(field(frame, "run", "spec", Some)?)?,
            }),
            Some("shutdown") => Ok(ToWorker::Shutdown),
            _ => Err(err("unknown supervisor message", frame)),
        }
    }
}

/// Messages a worker sends the supervisor.
#[derive(Clone, Debug, PartialEq)]
pub enum FromWorker {
    /// Startup handshake.
    Hello {
        /// The worker's [`PROTO_VERSION`].
        proto: u64,
        /// The worker's OS process id.
        pid: u64,
    },
    /// One cell finished (in any of the five ways).
    Done {
        /// The correlation id from the `Run` this answers.
        id: u64,
        /// What happened.
        outcome: WorkOutcome,
    },
}

impl FromWorker {
    /// Serialize for the wire.
    pub fn to_json(&self) -> Json {
        match self {
            FromWorker::Hello { proto, pid } => Json::obj(vec![
                ("type", Json::Str("hello".into())),
                ("proto", Json::U64(*proto)),
                ("pid", Json::U64(*pid)),
            ]),
            FromWorker::Done { id, outcome } => Json::obj(vec![
                ("type", Json::Str("done".into())),
                ("id", Json::U64(*id)),
                ("outcome", outcome.to_json()),
            ]),
        }
    }

    /// Parse from the wire.
    pub fn from_json(frame: &Json) -> Result<FromWorker, ProtoError> {
        match frame.get("type").and_then(Json::as_str) {
            Some("hello") => Ok(FromWorker::Hello {
                proto: field(frame, "hello", "proto", Json::as_u64)?,
                pid: field(frame, "hello", "pid", Json::as_u64)?,
            }),
            Some("done") => Ok(FromWorker::Done {
                id: field(frame, "done", "id", Json::as_u64)?,
                outcome: WorkOutcome::from_json(field(frame, "done", "outcome", Some)?)?,
            }),
            _ => Err(err("unknown worker message", frame)),
        }
    }
}

/// How one dispatched cell ended, from the worker's point of view.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkOutcome {
    /// The work produced a payload within its budget.
    Ok {
        /// The computed payload (byte-stable across the wire).
        payload: Json,
        /// Engine counters harvested around exactly this cell.
        perf: EnginePerf,
    },
    /// The work rejected its own inputs with a structured reason.
    Invalid {
        /// The machine-readable rejection reason.
        reason: Json,
    },
    /// The work panicked (caught by the worker's `catch_unwind`; the
    /// supervisor owns the retry budget).
    Panic {
        /// The rendered panic message.
        message: String,
    },
    /// The work completed but spent more deterministic work units than
    /// its budget — the process-isolation analogue of a wedged cell,
    /// decided from engine counters, not wall clock, so the verdict is
    /// reproducible.
    Deadline {
        /// The budget that was in force.
        budget_units: u64,
        /// The units actually spent (harvested `events_popped`).
        spent_units: u64,
    },
    /// The worker's cell catalog has no cell with this identity — a
    /// supervisor/worker configuration mismatch, deterministic and not
    /// worth retrying.
    Unresolvable {
        /// What failed to resolve.
        message: String,
    },
}

impl WorkOutcome {
    /// Serialize for the wire.
    pub fn to_json(&self) -> Json {
        match self {
            WorkOutcome::Ok { payload, perf } => Json::obj(vec![
                ("kind", Json::Str("ok".into())),
                ("payload", payload.clone()),
                (
                    "perf",
                    Json::obj(vec![
                        ("events_popped", Json::U64(perf.events_popped)),
                        ("queue_peak", Json::U64(perf.queue_peak)),
                        ("runs", Json::U64(perf.runs)),
                    ]),
                ),
            ]),
            WorkOutcome::Invalid { reason } => {
                Json::obj(vec![("kind", Json::Str("invalid".into())), ("reason", reason.clone())])
            }
            WorkOutcome::Panic { message } => Json::obj(vec![
                ("kind", Json::Str("panic".into())),
                ("message", Json::Str(message.clone())),
            ]),
            WorkOutcome::Deadline { budget_units, spent_units } => Json::obj(vec![
                ("kind", Json::Str("deadline".into())),
                ("budget_units", Json::U64(*budget_units)),
                ("spent_units", Json::U64(*spent_units)),
            ]),
            WorkOutcome::Unresolvable { message } => Json::obj(vec![
                ("kind", Json::Str("unresolvable".into())),
                ("message", Json::Str(message.clone())),
            ]),
        }
    }

    /// Parse from the wire.
    pub fn from_json(frame: &Json) -> Result<WorkOutcome, ProtoError> {
        match frame.get("kind").and_then(Json::as_str) {
            Some("ok") => {
                let perf = field(frame, "ok", "perf", Some)?;
                let counter = |name: &str| perf.get(name).and_then(Json::as_u64).unwrap_or(0);
                Ok(WorkOutcome::Ok {
                    payload: field(frame, "ok", "payload", Some)?.clone(),
                    perf: EnginePerf {
                        events_popped: counter("events_popped"),
                        queue_peak: counter("queue_peak"),
                        runs: counter("runs"),
                    },
                })
            }
            Some("invalid") => Ok(WorkOutcome::Invalid {
                reason: field(frame, "invalid", "reason", Some)?.clone(),
            }),
            Some("panic") => Ok(WorkOutcome::Panic {
                message: field(frame, "panic", "message", Json::as_str)?.to_string(),
            }),
            Some("deadline") => Ok(WorkOutcome::Deadline {
                budget_units: field(frame, "deadline", "budget_units", Json::as_u64)?,
                spent_units: field(frame, "deadline", "spent_units", Json::as_u64)?,
            }),
            Some("unresolvable") => Ok(WorkOutcome::Unresolvable {
                message: field(frame, "unresolvable", "message", Json::as_str)?.to_string(),
            }),
            _ => Err(err("unknown outcome kind", frame)),
        }
    }
}

/// Serialize a cell identity for the wire.
pub fn spec_to_json(spec: &CellSpec) -> Json {
    Json::obj(vec![
        ("experiment", Json::Str(spec.experiment.clone())),
        ("cell", Json::Str(spec.cell.clone())),
        ("params", spec.params.clone()),
        ("seed", Json::U64(spec.seed)),
        ("reps", Json::U64(spec.reps as u64)),
    ])
}

/// Parse a cell identity from the wire.
pub fn spec_from_json(frame: &Json) -> Result<CellSpec, ProtoError> {
    Ok(CellSpec {
        experiment: field(frame, "spec", "experiment", Json::as_str)?.to_string(),
        cell: field(frame, "spec", "cell", Json::as_str)?.to_string(),
        params: field(frame, "spec", "params", Some)?.clone(),
        seed: field(frame, "spec", "seed", Json::as_u64)?,
        reps: field(frame, "spec", "reps", Json::as_u32)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CellSpec {
        CellSpec {
            experiment: "table2".into(),
            cell: "A-n4-r1".into(),
            params: Json::obj(vec![("nodes", Json::U64(4)), ("jitter", Json::F64(0.004))]),
            seed: 20160816,
            reps: 6,
        }
    }

    fn roundtrip_to(msg: &ToWorker) -> ToWorker {
        ToWorker::from_json(&Json::parse(&msg.to_json().to_string()).expect("reparse"))
            .expect("decode")
    }

    fn roundtrip_from(msg: &FromWorker) -> FromWorker {
        FromWorker::from_json(&Json::parse(&msg.to_json().to_string()).expect("reparse"))
            .expect("decode")
    }

    #[test]
    fn campaign_run_and_shutdown_roundtrip() {
        let campaign = ToWorker::Campaign {
            campaign: Json::obj(vec![
                ("label", Json::Str("table2".into())),
                ("argv", Json::Arr(vec![])),
            ]),
        };
        assert_eq!(roundtrip_to(&campaign), campaign);
        let run = ToWorker::Run { id: 7, attempt: 2, budget_units: 50_000, spec: spec() };
        assert_eq!(roundtrip_to(&run), run);
        assert_eq!(roundtrip_to(&ToWorker::Shutdown), ToWorker::Shutdown);
    }

    #[test]
    fn every_outcome_kind_roundtrips() {
        let outcomes = vec![
            WorkOutcome::Ok {
                payload: Json::obj(vec![("value", Json::F64(105.5))]),
                perf: EnginePerf { events_popped: 123, queue_peak: 9, runs: 6 },
            },
            WorkOutcome::Invalid {
                reason: Json::obj(vec![("kind", Json::Str("invalid_spec".into()))]),
            },
            WorkOutcome::Panic { message: "index out of bounds".into() },
            WorkOutcome::Deadline { budget_units: 1000, spent_units: 4242 },
            WorkOutcome::Unresolvable { message: "no cell table2/Z-n9".into() },
        ];
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let msg = FromWorker::Done { id: i as u64, outcome };
            assert_eq!(roundtrip_from(&msg), msg, "outcome {i}");
        }
        let hello = FromWorker::Hello { proto: PROTO_VERSION, pid: 4242 };
        assert_eq!(roundtrip_from(&hello), hello);
    }

    #[test]
    fn malformed_frames_are_typed_errors_not_panics() {
        for bad in [
            Json::Null,
            Json::obj(vec![("type", Json::Str("warp".into()))]),
            Json::obj(vec![("type", Json::Str("run".into()))]),
            Json::obj(vec![("type", Json::Str("campaign".into()))]),
            Json::obj(vec![("type", Json::Str("done".into())), ("id", Json::U64(1))]),
        ] {
            assert!(ToWorker::from_json(&bad).is_err() || FromWorker::from_json(&bad).is_err());
        }
        let no_kind = Json::obj(vec![("payload", Json::Null)]);
        assert!(WorkOutcome::from_json(&no_kind).is_err());
        // The error quotes the frame cut at 160 bytes, which here falls
        // inside a four-byte character.
        let wide = Json::obj(vec![("type", Json::Str("😀".repeat(64)))]);
        let e = ToWorker::from_json(&wide).expect_err("unknown type");
        assert!(e.0.ends_with('😀'), "{e}");
    }

    #[test]
    fn payload_bytes_survive_the_wire_exactly() {
        // The byte-identity guarantee rests on this: serialize → frame →
        // parse → serialize is the identity on record payload bytes.
        let payload = Json::parse(
            r#"{"mean":105.5,"neg":-3,"big":18446744073709551615,"arr":[1,2.25,"x"],"nested":{"eta":0.004}}"#,
        )
        .expect("parse");
        let msg = FromWorker::Done {
            id: 1,
            outcome: WorkOutcome::Ok { payload: payload.clone(), perf: EnginePerf::default() },
        };
        let wire = msg.to_json().to_string();
        let back = FromWorker::from_json(&Json::parse(&wire).expect("reparse")).expect("decode");
        let FromWorker::Done { outcome: WorkOutcome::Ok { payload: got, .. }, .. } = back else {
            panic!("wrong variant");
        };
        assert_eq!(got.to_string(), payload.to_string());
    }
}
