//! Fuzzing the trust boundary campaign start-up reads through: every
//! store entry, index line and journal line on disk passes through
//! `Json::parse` or `checked::unseal`. Neither may panic on any input,
//! values must survive a serialize-parse round trip, and a sealed line
//! with any single byte changed must fail verification.

use jsonio::{checked, Json};
use quickprop::Gen;

/// Characters that stress escaping and UTF-8 handling: quotes,
/// backslashes, every short escape, other control bytes, multi-byte
/// scalars up to four bytes, and JSON punctuation.
const CHARS: [char; 16] = [
    'a', 'Z', '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}', 'é', '†',
    '😀', '{',
];

fn random_string(g: &mut Gen) -> String {
    g.vec(0..12, |g| g.pick(&CHARS)).into_iter().collect()
}

fn random_f64(g: &mut Gen) -> f64 {
    loop {
        let x = match g.below(3) {
            0 => f64::from_bits(g.any_u64()),
            1 => g.any_u64() as f64 / (1u64 << g.u64(0..64)) as f64,
            _ => g.pick(&[0.0, -0.0, 1.0, -1.5, 1e300, 5e-324, f64::MAX, f64::MIN_POSITIVE]),
        };
        if x.is_finite() {
            return x;
        }
    }
}

/// A random value in the lanes a round trip preserves: integers that
/// are non-negative parse into `U64`, so `I64` is drawn negative, and
/// non-finite floats serialize as `null`, so floats are drawn finite.
fn random_json(g: &mut Gen, depth: u32) -> Json {
    let leaf = depth == 0 || g.below(3) == 0;
    match g.below(if leaf { 6 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(g.bool()),
        2 => Json::I64(-1 - (g.any_u64() >> 1) as i64),
        3 => Json::U64(g.any_u64()),
        4 => Json::F64(random_f64(g)),
        5 => Json::Str(random_string(g)),
        6 => Json::Arr(g.vec(0..5, |g| random_json(g, depth - 1))),
        _ => Json::Obj(g.vec(0..5, |g| (random_string(g), random_json(g, depth - 1)))),
    }
}

/// One random edit of `bytes`: flip, overwrite, insert, delete or
/// truncate.
fn mutate(g: &mut Gen, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        bytes.push(g.any_u64() as u8);
        return;
    }
    let at = g.usize(0..bytes.len());
    match g.below(5) {
        0 => bytes[at] ^= 1 << g.below(8),
        1 => bytes[at] = g.pick(b"{}[]\",:\\0-.e \n\xff\xc3"),
        2 => bytes.insert(at, g.any_u64() as u8),
        3 => {
            bytes.remove(at);
        }
        _ => bytes.truncate(at),
    }
}

#[test]
fn parse_never_panics_on_random_bytes() {
    quickprop::check("parse_random_bytes", 2000, |g| {
        let bytes =
            g.vec(0..64, |g| g.pick(b"{}[]\",:\\0123456789-+.eEnulltrfas \t\n\xc3\xa9\xff"));
        let text = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&text);
        let _ = checked::unseal(&text);
        // Framed with a matching checksum, so the body reaches the parser.
        let sum = checked::checksum64(text.as_bytes());
        let _ = checked::unseal(&format!("crc64:{sum:016x} {text}"));
    });
}

#[test]
fn parse_and_unseal_never_panic_on_mutated_documents() {
    quickprop::check("parse_mutated_documents", 1000, |g| {
        let value = random_json(g, 4);
        let doc = if g.bool() { value.to_string() } else { checked::seal(&value) };
        let mut bytes = doc.into_bytes();
        for _ in 0..g.u64(1..4) {
            mutate(g, &mut bytes);
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&text);
        let _ = checked::unseal(&text);
    });
}

#[test]
fn serialize_then_parse_round_trips() {
    quickprop::check("json_round_trip", 1000, |g| {
        let value = random_json(g, 4);
        assert_eq!(Json::parse(&value.to_string()).as_ref(), Ok(&value), "{value:?}");
        assert_eq!(Json::parse(&value.to_string_pretty()).as_ref(), Ok(&value), "{value:?}");
        assert_eq!(checked::unseal(&checked::seal(&value)).as_ref(), Ok(&value));
    });
}

#[test]
fn any_single_byte_change_of_a_sealed_line_fails() {
    quickprop::check("sealed_single_byte_change", 300, |g| {
        let sealed = checked::seal(&random_json(g, 3));
        for at in 0..sealed.len() {
            let mut bytes = sealed.clone().into_bytes();
            let ascii = g.bool();
            let replacement = g.u64(0..if ascii { 0x80 } else { 0x100 }) as u8;
            if replacement == bytes[at] {
                continue;
            }
            bytes[at] = replacement;
            // Only a change that leaves valid UTF-8 can reach `unseal`.
            let Ok(text) = String::from_utf8(bytes) else { continue };
            assert!(checked::unseal(&text).is_err(), "byte {at} changed, still verifies: {text:?}");
        }
    });
}
