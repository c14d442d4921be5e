//! Fuzzing the worker protocol: every frame a worker subprocess sends
//! reaches `FromWorker::from_json`, and every frame the worker reads
//! reaches `ToWorker::from_json`. Random JSON trees and mutated valid
//! `hello`/`done`/`campaign`/`run` frames must decode to `Ok` or `Err`,
//! never a panic; a frame with a counter out of its lane or an unknown tag must
//! be an `Err`; and every well-formed message must round-trip exactly.

use jsonio::Json;
use quickprop::Gen;
use runner::proto::{FromWorker, ToWorker, WorkOutcome, PROTO_VERSION};
use runner::{CellSpec, EnginePerf};

const KEYS: [&str; 17] = [
    "type",
    "campaign",
    "kind",
    "id",
    "attempt",
    "budget_units",
    "spec",
    "reps",
    "seed",
    "proto",
    "pid",
    "outcome",
    "payload",
    "perf",
    "message",
    "reason",
    "x",
];

fn random_string(g: &mut Gen) -> String {
    g.vec(0..8, |g| g.pick(&['a', 'Z', '"', '\\', '\n', '\u{0}', 'é', '😀'])).into_iter().collect()
}

/// A random value in the lanes a round trip preserves: non-negative
/// integers parse as `U64`, so `I64` is drawn negative, and floats are
/// drawn finite. Keys come mostly from the protocol's own vocabulary so
/// random trees reach the decoders' inner branches.
fn random_json(g: &mut Gen, depth: u32) -> Json {
    let leaf = depth == 0 || g.below(3) == 0;
    match g.below(if leaf { 6 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(g.bool()),
        2 => Json::I64(-1 - (g.any_u64() >> 1) as i64),
        3 => Json::U64(if g.bool() { g.any_u64() } else { g.u64(0..8) }),
        4 => Json::F64(g.pick(&[0.0, -1.5, 0.004, 105.5, 1e300, 5e-324])),
        5 => Json::Str(if g.bool() {
            g.pick(&["run", "campaign", "shutdown", "hello", "done", "ok", "panic", "deadline"])
                .into()
        } else {
            random_string(g)
        }),
        6 => Json::Arr(g.vec(0..4, |g| random_json(g, depth - 1))),
        _ => Json::Obj(g.vec(0..6, |g| {
            let key = if g.below(4) == 0 { random_string(g) } else { g.pick(&KEYS).into() };
            (key, random_json(g, depth - 1))
        })),
    }
}

fn random_spec(g: &mut Gen) -> CellSpec {
    CellSpec {
        experiment: random_string(g),
        cell: random_string(g),
        params: random_json(g, 3),
        seed: g.any_u64(),
        reps: g.any_u64() as u32,
    }
}

fn random_outcome(g: &mut Gen) -> WorkOutcome {
    match g.below(5) {
        0 => WorkOutcome::Ok {
            payload: random_json(g, 3),
            perf: EnginePerf {
                events_popped: g.any_u64(),
                queue_peak: g.any_u64(),
                runs: g.any_u64(),
            },
        },
        1 => WorkOutcome::Invalid { reason: random_json(g, 3) },
        2 => WorkOutcome::Panic { message: random_string(g) },
        3 => WorkOutcome::Deadline { budget_units: g.any_u64(), spent_units: g.any_u64() },
        _ => WorkOutcome::Unresolvable { message: random_string(g) },
    }
}

fn random_to_worker(g: &mut Gen) -> ToWorker {
    match g.below(4) {
        0 => ToWorker::Shutdown,
        // The campaign is opaque to the runner: any tree must survive.
        1 => ToWorker::Campaign { campaign: random_json(g, 4) },
        _ => ToWorker::Run {
            id: g.any_u64(),
            attempt: g.any_u64() as u32,
            budget_units: g.any_u64(),
            spec: random_spec(g),
        },
    }
}

fn random_from_worker(g: &mut Gen) -> FromWorker {
    if g.below(4) == 0 {
        return FromWorker::Hello { proto: PROTO_VERSION, pid: g.any_u64() };
    }
    FromWorker::Done { id: g.any_u64(), outcome: random_outcome(g) }
}

/// Decode a frame every way a peer might; none of them may panic.
fn decode_all(frame: &Json) {
    let _ = ToWorker::from_json(frame);
    let _ = FromWorker::from_json(frame);
    let _ = WorkOutcome::from_json(frame);
    if let Some(outcome) = frame.get("outcome") {
        let _ = WorkOutcome::from_json(outcome);
    }
}

/// One random structural edit somewhere in `frame`: drop a key, give a
/// key a value of a random type, or push an integer past `u32::MAX`.
fn mutate(g: &mut Gen, frame: &mut Json) {
    let Json::Obj(fields) = frame else {
        *frame = random_json(g, 2);
        return;
    };
    if fields.is_empty() {
        fields.push((g.pick(&KEYS).into(), random_json(g, 2)));
        return;
    }
    let at = g.usize(0..fields.len());
    if matches!(fields[at].1, Json::Obj(_)) && g.bool() {
        mutate(g, &mut fields[at].1);
        return;
    }
    match g.below(3) {
        0 => {
            fields.remove(at);
        }
        1 => fields[at].1 = random_json(g, 2),
        _ => fields[at].1 = Json::U64(u32::MAX as u64 + 1 + g.u64(0..1 << 40)),
    }
}

/// Replace the value at `path` (object keys, outermost first).
fn set(frame: &mut Json, path: &[&str], value: Json) {
    let (Json::Obj(fields), [key, rest @ ..]) = (frame, path) else { return };
    for (k, v) in fields.iter_mut() {
        if k == key {
            if rest.is_empty() {
                *v = value.clone();
            } else {
                set(v, rest, value.clone());
            }
        }
    }
}

#[test]
fn random_trees_never_panic_any_decoder() {
    quickprop::check("proto_random_trees", 2000, |g| decode_all(&random_json(g, 4)));
}

#[test]
fn mutated_valid_frames_never_panic_any_decoder() {
    quickprop::check("proto_mutated_frames", 2000, |g| {
        let mut frame =
            if g.bool() { random_to_worker(g).to_json() } else { random_from_worker(g).to_json() };
        for _ in 0..g.u64(1..4) {
            mutate(g, &mut frame);
        }
        decode_all(&frame);
        // Through the wire's text form too, as the frame reader sees it.
        decode_all(&Json::parse(&frame.to_string()).expect("a serialized tree parses"));
    });
}

#[test]
fn out_of_lane_counters_and_unknown_tags_are_errors() {
    quickprop::check("proto_out_of_lane", 1000, |g| {
        let beyond = u32::MAX as u64 + 1 + g.u64(0..1 << 40);
        let run = |g: &mut Gen| ToWorker::Run {
            id: g.any_u64(),
            attempt: 1,
            budget_units: 0,
            spec: random_spec(g),
        };

        let mut frame = run(g).to_json();
        set(&mut frame, &["attempt"], Json::U64(beyond));
        assert!(ToWorker::from_json(&frame).is_err(), "attempt {beyond} decoded");

        let mut frame = run(g).to_json();
        set(&mut frame, &["spec", "reps"], Json::U64(beyond));
        assert!(ToWorker::from_json(&frame).is_err(), "reps {beyond} decoded");

        let tag = format!("x{}", random_string(g));
        let mut frame = random_to_worker(g).to_json();
        set(&mut frame, &["type"], Json::Str(tag.clone()));
        assert!(ToWorker::from_json(&frame).is_err(), "type {tag:?} decoded");

        let mut frame = random_from_worker(g).to_json();
        set(&mut frame, &["type"], Json::Str(tag.clone()));
        assert!(FromWorker::from_json(&frame).is_err(), "type {tag:?} decoded");

        let mut outcome = random_outcome(g).to_json();
        set(&mut outcome, &["kind"], Json::Str(tag.clone()));
        assert!(WorkOutcome::from_json(&outcome).is_err(), "kind {tag:?} decoded");
        let frame = Json::obj(vec![
            ("type", Json::Str("done".into())),
            ("id", Json::U64(g.any_u64())),
            ("outcome", outcome),
        ]);
        assert!(FromWorker::from_json(&frame).is_err(), "outcome kind {tag:?} decoded");
    });
}

#[test]
fn well_formed_messages_round_trip_exactly() {
    quickprop::check("proto_round_trip", 1000, |g| {
        let to = random_to_worker(g);
        let wire = to.to_json().to_string();
        let back = ToWorker::from_json(&Json::parse(&wire).expect("parse")).expect("decode");
        assert_eq!(back, to);
        assert_eq!(back.to_json().to_string(), wire);

        let from = random_from_worker(g);
        let wire = from.to_json().to_string();
        let back = FromWorker::from_json(&Json::parse(&wire).expect("parse")).expect("decode");
        assert_eq!(back, from);
        assert_eq!(back.to_json().to_string(), wire);
    });
}

#[test]
fn campaign_frames_carry_any_tree_and_need_their_field() {
    quickprop::check("proto_campaign", 1000, |g| {
        // The runner never looks inside a campaign: any tree, mutated
        // or not, crosses the wire to an equal value and equal bytes.
        let mut campaign = random_json(g, 4);
        for _ in 0..g.u64(0..3) {
            mutate(g, &mut campaign);
        }
        let msg = ToWorker::Campaign { campaign };
        let wire = msg.to_json().to_string();
        let back = ToWorker::from_json(&Json::parse(&wire).expect("parse")).expect("decode");
        assert_eq!(back, msg);
        assert_eq!(back.to_json().to_string(), wire);

        let mut bare = msg.to_json();
        if let Json::Obj(fields) = &mut bare {
            fields.retain(|(key, _)| key != "campaign");
        }
        assert!(ToWorker::from_json(&bare).is_err(), "campaign frame without its campaign");
    });
}
