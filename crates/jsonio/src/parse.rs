//! A total recursive-descent JSON parser: no panics, bounded depth,
//! byte-offset diagnostics. Corrupted runner cache entries flow through
//! here, so totality is a correctness requirement, not a nicety.

use crate::Json;

/// Maximum nesting depth accepted before bailing out (protects the stack
/// against pathological or corrupted input).
const MAX_DEPTH: usize = 128;

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

pub(crate) fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(value)
}

/// Byte length of the JSON string token at the start of `text`, quotes
/// included, checked by exactly the rules the parser applies to a
/// string (no raw control byte; only the short escapes and `\u` with
/// paired surrogates) but decoded into nothing. `None` when `text`
/// does not start with a whole, valid string token.
pub fn string_token_len(text: &str) -> Option<usize> {
    fn hex4(digits: &[u8]) -> Option<u32> {
        digits.iter().try_fold(0u32, |v, &b| Some(v * 16 + (b as char).to_digit(16)?))
    }
    let bytes = text.as_bytes();
    if bytes.first() != Some(&b'"') {
        return None;
    }
    let mut i = 1;
    loop {
        match *bytes.get(i)? {
            b'"' => return Some(i + 1),
            b'\\' => match *bytes.get(i + 1)? {
                b'"' | b'\\' | b'/' | b'n' | b'r' | b't' | b'b' | b'f' => i += 2,
                b'u' => {
                    let hi = hex4(bytes.get(i + 2..i + 6)?)?;
                    i += 6;
                    if (0xD800..0xDC00).contains(&hi) {
                        if bytes.get(i..i + 2)? != b"\\u" {
                            return None;
                        }
                        let lo = hex4(bytes.get(i + 2..i + 6)?)?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return None;
                        }
                        i += 6;
                    } else if (0xDC00..0xE000).contains(&hi) {
                        return None;
                    }
                }
                _ => return None,
            },
            0..0x20 => return None,
            _ => i += 1,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.expect_keyword("null", Json::Null),
            Some(b't') => self.expect_keyword("true", Json::Bool(true)),
            Some(b'f') => self.expect_keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':'"));
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // '"'
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes (no quote, backslash or control
            // byte) in one slice. The run starts on a char boundary and
            // ends at an ASCII byte or the end of input, so the slice is
            // always whole UTF-8 scalars.
            let start = self.pos;
            let rest = &self.bytes[start..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            self.pos += run.unwrap_or(rest.len());
            let Some(plain) = self.text.get(start..self.pos) else {
                return Err(self.err("string not on a char boundary"));
            };
            out.push_str(plain);
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            if b == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            if b != b'\\' {
                return Err(self.err("raw control character in string"));
            }
            self.pos += 1;
            let Some(esc) = self.peek() else {
                return Err(self.err("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hi = self.hex4()?;
                    let c = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair: expect \uDC00..\uDFFF.
                        if !(self.eat(b'\\') && self.eat(b'u')) {
                            return Err(self.err("lone high surrogate"));
                        }
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code).ok_or_else(|| self.err("bad surrogate pair"))?
                    } else {
                        char::from_u32(hi).ok_or_else(|| self.err("lone surrogate"))?
                    };
                    out.push(c);
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.err("bad hex digit in \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("digit expected"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // Every byte between start and pos is ASCII (sign/digit/dot/exp),
        // so the slice is valid UTF-8 on char boundaries.
        let Some(text) = self.text.get(start..self.pos) else {
            return Err(self.err("number not on a char boundary"));
        };
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(if v >= 0 { Json::U64(v as u64) } else { Json::I64(v) });
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| ParseError { message: "invalid number".into(), offset: start })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_garbage_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "tru",
            "-",
            "1.",
            "1e",
            "\"abc",
            "\"\\u12\"",
            "\"\\q\"",
            "[1 2]",
            "{\"a\":1,}ex",
            "01x",
            "\u{7}",
            "\"\\ud800\"",
            "[1]]",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(4000) + &"]".repeat(4000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
        assert_eq!(Json::parse("\"\\ud83d\\ude00\"").unwrap(), Json::Str("\u{1F600}".into()));
        assert_eq!(Json::parse("\"caf\u{e9}\"").unwrap(), Json::Str("café".into()));
    }

    #[test]
    fn number_lanes() {
        assert_eq!(Json::parse("7").unwrap(), Json::U64(7));
        assert_eq!(Json::parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
        assert_eq!(Json::parse("7.0").unwrap(), Json::F64(7.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" {\n\t\"a\" : [ 1 , 2 ] }\r\n").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }
}
