//! Fuzzing the trust boundaries: every store entry on disk passes
//! through `checked::unseal`, every journal, index and intent line
//! through `checked::unframe` or `string_token_len` (inside the runner's
//! line codecs, fuzzed in `runner/tests/startup_equivalence.rs`), and
//! every message from a worker subprocess through `framed::FrameReader`.
//! None may panic on any input, values must survive a serialize-parse
//! round trip, a sealed line with any single byte changed must fail
//! verification, `string_token_len` must accept exactly the string
//! tokens `Json::parse` accepts, and a frame stream decodes to exactly
//! the typed outcome each of its segments calls for.

use jsonio::framed::{FrameError, FrameReader, MAX_FRAME_BYTES};
use jsonio::{checked, string_token_len, Json};
use quickprop::Gen;
use std::io::Read;

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

#[test]
fn string_tokens_are_checked_by_the_parser_rules() {
    // Serialized strings, then the same mutated (escapes broken,
    // surrogates unpaired, quotes dropped), then raw escape soup.
    quickprop::check("string_token_len", 3000, |g| {
        let mut bytes = match g.below(3) {
            0 => Json::Str(random_string(g)).to_string().into_bytes(),
            1 => g.vec(0..24, |g| g.pick(b"\"\\/bfnrtu0123456789abcdefABCDEFdD8\x01 \xc3\xa9")),
            _ => format!(
                "\"\\u{:04x}\\u{:04x}\"",
                g.pick(&[0x41, 0xd800, 0xdbff, 0xdc00, 0xdfff, 0xe000]),
                g.pick(&[0x41, 0xd800, 0xdc00, 0xdfff, 0xe000])
            )
            .into_bytes(),
        };
        if g.bool() {
            mutate(g, &mut bytes);
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Some(len) = string_token_len(&text) {
            let token = &text[..len];
            assert!(matches!(Json::parse(token), Ok(Json::Str(_))), "{token:?}");
        }
        if text.starts_with('"') && matches!(Json::parse(&text), Ok(Json::Str(_))) {
            // The parser also skips whitespace after the token.
            let token = text.trim_end_matches([' ', '\t', '\n', '\r']);
            assert_eq!(string_token_len(&text), Some(token.len()), "{text:?}");
        }
    });
}

/// A byte stream that records how it is read: bytes handed out so far
/// and the largest buffer any single `read` asked to fill.
struct Recorder<'a> {
    bytes: &'a [u8],
    pos: usize,
    largest_request: usize,
}

impl Read for Recorder<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.largest_request = self.largest_request.max(buf.len());
        let n = buf.len().min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// What one `FrameReader::read` must return for a stream segment.
#[derive(Debug)]
enum Expect {
    Frame(Json),
    TooLarge(usize),
    /// A declared-length body of arbitrary bytes: a value if they happen
    /// to be JSON, a parse error otherwise.
    FrameOrParse,
    Torn {
        got: usize,
        expected: usize,
    },
}

fn header(len: usize) -> [u8; 4] {
    (len as u32).to_be_bytes()
}

/// One whole segment of a frame stream and its expected decode.
fn random_segment(g: &mut Gen, out: &mut Vec<u8>) -> Expect {
    match g.below(3) {
        0 => {
            let value = random_json(g, 3);
            let body = value.to_string();
            out.extend_from_slice(&header(body.len()));
            out.extend_from_slice(body.as_bytes());
            Expect::Frame(value)
        }
        1 => {
            let declared = g.u64(MAX_FRAME_BYTES as u64 + 1..u32::MAX as u64 + 1) as usize;
            out.extend_from_slice(&header(declared));
            Expect::TooLarge(declared)
        }
        _ => {
            let body = g.vec(0..24, |g| g.any_u64() as u8);
            out.extend_from_slice(&header(body.len()));
            out.extend_from_slice(&body);
            Expect::FrameOrParse
        }
    }
}

#[test]
fn frame_streams_decode_segment_by_segment() {
    // Whole frames, oversize length prefixes and garbage bodies in any
    // order, then possibly a torn tail: a truncated length prefix or a
    // body shorter than its declared length.
    quickprop::check("framed_random_streams", 1000, |g| {
        let mut bytes = Vec::new();
        let mut expected: Vec<Expect> =
            (0..g.usize(0..6)).map(|_| random_segment(g, &mut bytes)).collect();
        match g.below(3) {
            0 => {
                let got = g.usize(1..4);
                bytes.extend_from_slice(&header(g.usize(0..1 << 20))[..got]);
                expected.push(Expect::Torn { got, expected: 4 });
            }
            1 => {
                let declared = g.usize(1..MAX_FRAME_BYTES + 1);
                let got = g.usize(0..declared.min(64));
                bytes.extend_from_slice(&header(declared));
                bytes.extend(g.vec(got..got + 1, |g| g.any_u64() as u8));
                expected.push(Expect::Torn { got, expected: declared });
            }
            _ => {}
        }
        let mut stream = Recorder { bytes: &bytes, pos: 0, largest_request: 0 };
        let mut reader = FrameReader::new(&mut stream);
        for want in &expected {
            let got = reader.read();
            match (want, &got) {
                (Expect::Frame(v), Ok(Some(w))) => assert_eq!(v, w),
                (Expect::TooLarge(d), Err(FrameError::TooLarge { declared })) => {
                    assert_eq!(d, declared)
                }
                (Expect::FrameOrParse, Ok(Some(_)) | Err(FrameError::Parse(_))) => {}
                (Expect::Torn { got: a, expected: b }, Err(FrameError::Torn { got, expected })) => {
                    assert_eq!((a, b), (got, expected))
                }
                _ => panic!("expected {want:?}, decoded {got:?}"),
            }
        }
        assert!(matches!(reader.read(), Ok(None)), "the stream ends clean");
        assert_eq!(stream.pos, bytes.len(), "every byte consumed");
    });
}

#[test]
fn oversize_lengths_are_refused_from_the_header_alone() {
    // A length prefix beyond the limit is rejected before any body
    // byte is requested: the reader consumes the four header bytes and
    // never asks the stream to fill a buffer of the claimed size.
    quickprop::check("framed_oversize_lengths", 500, |g| {
        let declared = g.u64(MAX_FRAME_BYTES as u64 + 1..u32::MAX as u64 + 1) as usize;
        let mut bytes = header(declared).to_vec();
        bytes.extend(g.vec(0..64, |g| g.any_u64() as u8));
        let mut stream = Recorder { bytes: &bytes, pos: 0, largest_request: 0 };
        let got = FrameReader::new(&mut stream).read();
        assert!(
            matches!(got, Err(FrameError::TooLarge { declared: d }) if d == declared),
            "{got:?}"
        );
        assert_eq!((stream.pos, stream.largest_request), (4, 4), "read past the header");
    });
}

#[test]
fn frame_reader_never_panics_on_random_bytes() {
    // Unstructured bytes, zero-heavy so that length prefixes often fall
    // within the limit and bodies get read and parsed. Every read is
    // one of the typed outcomes until the stream ends clean.
    quickprop::check("framed_random_bytes", 2000, |g| {
        let bytes = g.vec(0..96, |g| if g.bool() { 0 } else { g.any_u64() as u8 });
        let mut stream = Recorder { bytes: &bytes, pos: 0, largest_request: 0 };
        let mut reader = FrameReader::new(&mut stream);
        for _ in 0..=bytes.len() {
            match reader.read() {
                Ok(None) => break,
                Ok(Some(_)) | Err(FrameError::Parse(_)) => {}
                Err(FrameError::TooLarge { declared }) => assert!(declared > MAX_FRAME_BYTES),
                Err(FrameError::Torn { got, expected }) => assert!(got < expected),
                Err(FrameError::Io(e)) => panic!("an in-memory stream cannot fail: {e}"),
            }
        }
        assert!(matches!(reader.read(), Ok(None)), "every read consumed a byte or ended");
        assert!(stream.largest_request <= MAX_FRAME_BYTES);
    });
}
