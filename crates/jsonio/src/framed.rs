//! Length-prefixed JSON framing for process-to-process pipes.
//!
//! The runner's process-isolated execution mode (supervisor ↔ worker
//! subprocesses) speaks JSON over stdin/stdout. Newline-delimited JSON
//! would be fragile there — a panic message printed to a miswired stream
//! or a partially flushed line would desynchronize the channel forever.
//! Frames make the boundary explicit: each message is a 4-byte
//! big-endian byte length followed by exactly that many bytes of
//! compact JSON.
//!
//! The reader is total in the same sense as the parser: a clean EOF at a
//! frame boundary is `Ok(None)`, and every malformed condition — torn
//! header, truncated body, oversized length, invalid JSON — is a typed
//! [`FrameError`], never a panic. The writer refuses oversized frames
//! before touching the stream, so a failed write never leaves a partial
//! header behind for a healthy message to trip over.

use crate::Json;
use std::io::{Read, Write};

/// Upper bound on one frame's payload (64 MiB). Campaign cell payloads
/// are kilobytes; anything beyond this is a desynchronized stream or a
/// corrupted header, and reading it would balloon memory.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// EOF arrived mid-frame (inside the header or the body) — the peer
    /// died between bytes of a message.
    Torn {
        /// How many bytes of the frame arrived before the stream ended.
        got: usize,
        /// How many bytes the frame declared.
        expected: usize,
    },
    /// The header declared a length beyond [`MAX_FRAME_BYTES`].
    TooLarge {
        /// The declared payload length.
        declared: usize,
    },
    /// The frame body was not valid JSON.
    Parse(crate::ParseError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Torn { got, expected } => {
                write!(f, "torn frame: stream ended after {got} of {expected} bytes")
            }
            FrameError::TooLarge { declared } => {
                write!(f, "frame of {declared} bytes exceeds the {MAX_FRAME_BYTES}-byte limit")
            }
            FrameError::Parse(e) => write!(f, "frame body is not JSON: {e:?}"),
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes length-prefixed JSON frames to a byte stream.
pub struct FrameWriter<W: Write> {
    inner: W,
}

impl<W: Write> FrameWriter<W> {
    /// Wrap a stream.
    pub fn new(inner: W) -> Self {
        FrameWriter { inner }
    }

    /// Serialize `value` compactly and write it as one frame, then
    /// flush — pipes between supervisor and worker must never sit on a
    /// buffered message. An oversized value is rejected before any byte
    /// reaches the stream.
    pub fn write(&mut self, value: &Json) -> Result<(), FrameError> {
        let body = value.to_string();
        if body.len() > MAX_FRAME_BYTES {
            return Err(FrameError::TooLarge { declared: body.len() });
        }
        let header = (body.len() as u32).to_be_bytes();
        self.inner.write_all(&header)?;
        self.inner.write_all(body.as_bytes())?;
        self.inner.flush()?;
        Ok(())
    }
}

/// Reads length-prefixed JSON frames from a byte stream.
pub struct FrameReader<R: Read> {
    inner: R,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a stream.
    pub fn new(inner: R) -> Self {
        FrameReader { inner }
    }

    /// Read one frame. `Ok(None)` is a clean EOF at a frame boundary
    /// (the peer closed the channel between messages); everything else
    /// that is not a whole, valid frame is a [`FrameError`].
    pub fn read(&mut self) -> Result<Option<Json>, FrameError> {
        let mut header = [0u8; 4];
        match read_exact_or_eof(&mut self.inner, &mut header)? {
            Filled::Eof => return Ok(None),
            Filled::Partial(got) => return Err(FrameError::Torn { got, expected: 4 }),
            Filled::Full => {}
        }
        let len = u32::from_be_bytes(header) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(FrameError::TooLarge { declared: len });
        }
        // Grow the body with the bytes that arrive, not the declared
        // length: a garbage header from a dying peer must not cost a
        // `MAX_FRAME_BYTES` allocation. Ordinary frames (kilobytes) fit
        // the first reservation.
        let mut body = Vec::with_capacity(len.min(64 * 1024));
        self.inner.by_ref().take(len as u64).read_to_end(&mut body)?;
        if body.len() < len {
            return Err(FrameError::Torn { got: body.len(), expected: len });
        }
        let text = String::from_utf8_lossy(&body);
        Json::parse(&text).map(Some).map_err(FrameError::Parse)
    }
}

enum Filled {
    /// The buffer was filled completely.
    Full,
    /// The stream ended before the first byte.
    Eof,
    /// The stream ended after this many bytes.
    Partial(usize),
}

/// `read_exact` that distinguishes "EOF before any byte" (a clean close)
/// from "EOF mid-buffer" (a torn frame). Interrupted reads are retried.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<Filled> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 { Filled::Eof } else { Filled::Partial(filled) });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Filled::Full)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[Json]) -> Vec<Json> {
        let mut bytes = Vec::new();
        {
            let mut w = FrameWriter::new(&mut bytes);
            for v in values {
                w.write(v).expect("write frame");
            }
        }
        let mut r = FrameReader::new(bytes.as_slice());
        let mut out = Vec::new();
        while let Some(v) = r.read().expect("read frame") {
            out.push(v);
        }
        out
    }

    #[test]
    fn frames_roundtrip_in_order() {
        let values = vec![
            Json::Null,
            Json::Bool(true),
            Json::U64(42),
            Json::Str("héllo \"quoted\"".into()),
            Json::obj(vec![
                ("x", Json::F64(1.5)),
                ("arr", Json::Arr(vec![Json::I64(-1), Json::Null])),
            ]),
        ];
        assert_eq!(roundtrip(&values), values);
    }

    #[test]
    fn clean_eof_is_none() {
        let mut r = FrameReader::new(&[][..]);
        assert!(matches!(r.read(), Ok(None)));
    }

    #[test]
    fn torn_header_and_torn_body_are_errors() {
        // Two bytes of a four-byte header.
        let mut r = FrameReader::new(&[0u8, 0][..]);
        assert!(matches!(r.read(), Err(FrameError::Torn { got: 2, expected: 4 })));
        // A full header declaring 10 bytes, then only 3.
        let mut bytes = 10u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        let mut r = FrameReader::new(bytes.as_slice());
        assert!(matches!(r.read(), Err(FrameError::Torn { got: 3, expected: 10 })));
    }

    #[test]
    fn a_torn_body_costs_only_the_bytes_that_arrived() {
        // A header at the limit, then a dead peer: the read must end in
        // the same typed error without filling a 64 MiB buffer first.
        let mut bytes = (MAX_FRAME_BYTES as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        let mut r = FrameReader::new(bytes.as_slice());
        assert!(matches!(r.read(), Err(FrameError::Torn { got: 3, expected: 67_108_864 })));
    }

    #[test]
    fn oversized_header_is_rejected_without_allocating() {
        let bytes = u32::MAX.to_be_bytes();
        let mut r = FrameReader::new(&bytes[..]);
        assert!(matches!(r.read(), Err(FrameError::TooLarge { .. })));
    }

    #[test]
    fn non_json_body_is_a_parse_error() {
        let mut bytes = 3u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"}{!");
        let mut r = FrameReader::new(bytes.as_slice());
        assert!(matches!(r.read(), Err(FrameError::Parse(_))));
    }

    #[test]
    fn quickprop_frames_survive_adversarial_payload_strings() {
        // Characters chosen to stress escaping: quotes, backslashes,
        // control bytes, multi-byte UTF-8, and frame-header-lookalikes.
        const ALPHABET: [char; 10] = ['a', '"', '\\', '\n', '\u{0}', 'é', '†', '{', '}', '\u{7f}'];
        quickprop::check("framed_roundtrip", 200, |g| {
            let n = g.usize(0..4);
            let values: Vec<Json> = (0..n)
                .map(|_| {
                    let s: String = g.vec(0..64, |g| g.pick(&ALPHABET)).into_iter().collect();
                    Json::obj(vec![
                        ("s", Json::Str(s)),
                        // Strictly negative: non-negative integers re-parse
                        // into the U64 lane (jsonio's lane normalization).
                        ("i", Json::I64(-1 - (g.any_u64() >> 1) as i64)),
                        ("u", Json::U64(g.any_u64())),
                        ("b", Json::Bool(g.bool())),
                    ])
                })
                .collect();
            assert_eq!(roundtrip(&values), values);
        });
    }
}
