//! Checksummed line framing: self-verifying single-line JSON records.
//!
//! The runner's durable storage (content-addressed store entries, index
//! lines, write-ahead intent records) must distinguish "this line was
//! never written" from "this line was half-written or rotted on disk" —
//! a torn or bit-flipped record must read back as *detectably torn*,
//! never as plausible-but-wrong data. [`seal`] wraps one compact JSON
//! value with a checksum over its exact serialized bytes:
//!
//! ```text
//! crc64:00a1b2c3d4e5f607 {"key":"...","payload":...}
//! ```
//!
//! [`unseal`] re-verifies the checksum against the bytes actually read
//! before parsing, so any truncation, torn append, or corruption inside
//! the JSON text fails closed with a typed [`CheckError`]. The checksum
//! is the same FNV-1a + splitmix construction the runner's cache keys
//! use — an integrity check against *accidents* (torn writes, disk rot),
//! not adversaries, exactly like the cache itself.
//!
//! The frame survives JSONL composition: sealed lines contain no
//! newlines (compact JSON escapes control characters), so a file of
//! sealed lines is still a line-oriented append-only log whose torn
//! tail is skippable line by line.

use crate::Json;

/// The frame prefix marking a sealed line.
const PREFIX: &str = "crc64:";

/// Width of the rendered checksum in hex digits.
const SUM_HEX: usize = 16;

/// Why a sealed line failed verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// The line does not have the `crc64:<16 hex> ` frame at all —
    /// truncated before the payload, or not a sealed line.
    Framing,
    /// The checksum over the payload bytes does not match the recorded
    /// one: the payload was torn, truncated, or corrupted.
    Mismatch {
        /// The checksum recorded in the frame.
        recorded: u64,
        /// The checksum of the bytes actually present.
        actual: u64,
    },
    /// The checksum matched but the payload failed to parse as JSON —
    /// only possible if the line was sealed around invalid bytes, which
    /// [`seal`] never produces.
    Parse,
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Framing => write!(f, "line is not a sealed crc64 frame"),
            CheckError::Mismatch { recorded, actual } => {
                write!(f, "checksum mismatch: recorded {recorded:016x}, actual {actual:016x}")
            }
            CheckError::Parse => write!(f, "checksum matched but payload is not valid JSON"),
        }
    }
}

/// FNV-1a over the bytes, folded through a splitmix finalizer so single
/// bit flips avalanche across the whole sum.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Render one value as a sealed line (no trailing newline): the compact
/// JSON prefixed by the checksum of its exact bytes.
pub fn seal(value: &Json) -> String {
    seal_body(&value.to_string())
}

/// [`seal`] for a value already serialized as compact JSON: the frame
/// around exactly these bytes.
pub fn seal_body(body: &str) -> String {
    format!("{PREFIX}{:016x} {body}", checksum64(body.as_bytes()))
}

/// The framing half of [`unseal`]: the recorded checksum and the body
/// bytes it covers, neither verified nor parsed. Accepts exactly the
/// frame [`seal`] writes (lowercase sum), plus a trailing newline.
pub fn unframe(line: &str) -> Result<(u64, &str), CheckError> {
    let line = line.strip_suffix('\n').unwrap_or(line);
    let rest = line.strip_prefix(PREFIX).ok_or(CheckError::Framing)?;
    if rest.len() < SUM_HEX + 1 || !rest.is_char_boundary(SUM_HEX) {
        return Err(CheckError::Framing);
    }
    let (sum_hex, body) = rest.split_at(SUM_HEX);
    let body = body.strip_prefix(' ').ok_or(CheckError::Framing)?;
    // Only the canonical lowercase frame `seal` writes is accepted:
    // `from_str_radix` alone would let a case-flipped (damaged) frame
    // still verify.
    if !sum_hex.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)) {
        return Err(CheckError::Framing);
    }
    let recorded = u64::from_str_radix(sum_hex, 16).map_err(|_| CheckError::Framing)?;
    Ok((recorded, body))
}

/// Verify and parse one sealed line. Tolerates a trailing newline (the
/// JSONL composition) but nothing else: any framing damage, checksum
/// mismatch, or parse failure is a typed error.
pub fn unseal(line: &str) -> Result<Json, CheckError> {
    let (recorded, body) = unframe(line)?;
    let actual = checksum64(body.as_bytes());
    if recorded != actual {
        return Err(CheckError::Mismatch { recorded, actual });
    }
    Json::parse(body).map_err(|_| CheckError::Parse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value() -> Json {
        Json::obj(vec![
            ("key", Json::Str("00ab".into())),
            ("n", Json::U64(7)),
            ("text", Json::Str("line\nbreak and \"quotes\"".into())),
        ])
    }

    #[test]
    fn seal_round_trips_and_stays_single_line() {
        let sealed = seal(&value());
        assert!(!sealed.contains('\n'), "sealed lines must compose as JSONL");
        assert_eq!(unseal(&sealed), Ok(value()));
        let mut with_newline = sealed.clone();
        with_newline.push('\n');
        assert_eq!(unseal(&with_newline), Ok(value()), "JSONL trailing newline tolerated");
    }

    #[test]
    fn any_truncation_fails_closed() {
        let sealed = seal(&value());
        for cut in 0..sealed.len() {
            let torn = &sealed[..cut];
            assert!(unseal(torn).is_err(), "truncation at {cut} must not verify: {torn:?}");
        }
    }

    #[test]
    fn single_byte_corruption_fails_closed() {
        let sealed = seal(&value());
        let bytes = sealed.as_bytes();
        for i in 0..bytes.len() {
            let mut mutated = bytes.to_vec();
            mutated[i] ^= 0x20; // stays valid UTF-8 for ASCII input
            let Ok(text) = String::from_utf8(mutated) else { continue };
            assert_ne!(
                unseal(&text),
                Ok(value()),
                "flipping byte {i} must not verify to the original"
            );
        }
    }

    #[test]
    fn unsealed_and_garbage_lines_are_framing_errors() {
        assert_eq!(unseal("{\"plain\":1}"), Err(CheckError::Framing));
        assert_eq!(unseal(""), Err(CheckError::Framing));
        assert_eq!(unseal("crc64:zz"), Err(CheckError::Framing));
        assert_eq!(unseal("crc64:0123456789abcdef"), Err(CheckError::Framing));
    }

    #[test]
    fn mismatch_reports_both_sums() {
        let sealed = seal(&Json::U64(1));
        // Re-point the frame at different payload bytes.
        let forged = format!("{} extra", sealed);
        match unseal(&forged) {
            Err(CheckError::Mismatch { recorded, actual }) => assert_ne!(recorded, actual),
            other => panic!("forged payload must be a checksum mismatch, got {other:?}"),
        }
    }
}
