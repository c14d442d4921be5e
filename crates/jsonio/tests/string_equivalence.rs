//! String decoding equivalence: `Json::parse` copies each run of plain
//! string bytes in one slice. It must accept exactly the strings, and
//! reject with exactly the messages and byte offsets, of the decoder it
//! replaced. That decoder, which pushed one `char` at a time, is kept
//! here, frozen, as the reference.

use jsonio::{Json, ParseError};
use quickprop::Gen;

/// Frozen reference: the per-`char` string decoder and the document
/// driver around it, for documents that hold one top-level string.
struct Frozen<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Frozen<'_> {
    fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Frozen { text, bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = match p.peek() {
            None => return Err(p.err("unexpected end of input")),
            Some(b'"') => Json::Str(p.string()?),
            Some(b) => panic!("the generator starts every document with a string, got {b:#x}"),
        };
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(value)
    }

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

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // '"'
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
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
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("lone surrogate"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                0x00..=0x1F => return Err(self.err("raw control character in string")),
                _ => match self.text.get(self.pos..).and_then(|s| s.chars().next()) {
                    Some(c) => {
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                    None => return Err(self.err("string not on a char boundary")),
                },
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
}

/// Four hex digits of `v`, in a random mix of upper and lower case.
fn hex4(g: &mut Gen, v: u32) -> String {
    let hex = format!("{v:04x}");
    hex.chars().map(|c| if g.bool() { c.to_ascii_uppercase() } else { c }).collect()
}

/// One piece of a string body: a plain ASCII run, an escape of every
/// kind (including unknown ones), a `\u` escape that is a BMP scalar, a
/// surrogate pair, a lone or mismatched surrogate or malformed hex, a
/// multi-byte scalar, a raw control byte, or a stray quote.
fn piece(g: &mut Gen) -> String {
    match g.below(9) {
        0 | 1 => g
            .vec(0..24, |g| g.u32(0x20..0x7F) as u8 as char)
            .into_iter()
            .filter(|&c| c != '"' && c != '\\')
            .collect(),
        2 => format!(
            "\\{}",
            g.pick(&['"', '\\', '/', 'n', 'r', 't', 'b', 'f', 'q', 'x', 'U', '0', ' '])
        ),
        3 => {
            let v = loop {
                let v = g.u32(0..0x1_0000);
                if !(0xD800..0xE000).contains(&v) {
                    break v;
                }
            };
            format!("\\u{}", hex4(g, v))
        }
        4 => {
            let (hi, lo) = (g.u32(0xD800..0xDC00), g.u32(0xDC00..0xE000));
            format!("\\u{}\\u{}", hex4(g, hi), hex4(g, lo))
        }
        5 => {
            let (hi, lo, below_low) =
                (g.u32(0xD800..0xDC00), g.u32(0xDC00..0xE000), g.u32(0..0xDC00));
            match g.below(6) {
                0 => format!("\\u{}", hex4(g, hi)),
                1 => format!("\\u{}x", hex4(g, hi)),
                2 => format!("\\u{}\\n", hex4(g, hi)),
                3 => format!("\\u{}\\u{}", hex4(g, hi), hex4(g, below_low)),
                4 => format!("\\u{}", hex4(g, lo)),
                _ => format!("\\u{}", g.pick(&["12g4", "zzzz", "1 23", "-001", "+fff"])),
            }
        }
        6 => g
            .pick(&[
                "é",
                "†",
                "😀",
                "\u{7f}",
                "\u{80}",
                "\u{7ff}",
                "\u{800}",
                "\u{ffff}",
                "\u{10ffff}",
            ])
            .to_string(),
        7 => g.pick(&['\u{0}', '\u{1}', '\t', '\n', '\r', '\u{1b}', '\u{1f}']).to_string(),
        _ => "\"".to_string(),
    }
}

/// A document holding one string: optional leading whitespace, the
/// opening quote, random pieces, usually a closing quote, and sometimes
/// trailing whitespace or trailing data.
fn document(g: &mut Gen) -> String {
    let mut doc = g.pick(&["", "", " ", "\n\t "]).to_string();
    doc.push('"');
    for _ in 0..g.usize(0..8) {
        doc.push_str(&piece(g));
    }
    if g.below(4) != 0 {
        doc.push('"');
    }
    doc.push_str(g.pick(&["", "", "", " ", "\r\n", " x", "\"", "1"]));
    doc
}

fn assert_same(doc: &str) {
    assert_eq!(Json::parse(doc), Frozen::parse(doc), "{doc:?}");
}

#[test]
fn string_decoding_matches_the_per_char_decoder() {
    quickprop::check("string_decoding_equivalence", 600, |g| {
        let doc = document(g);
        // Every prefix a &str can hold: truncation at each byte that is a
        // char boundary, the whole document included.
        for cut in (0..=doc.len()).filter(|&cut| doc.is_char_boundary(cut)) {
            assert_same(&doc[..cut]);
        }
    });
}

#[test]
fn string_decoding_edge_cases_match() {
    for doc in [
        "\"\"",
        "\"abc\"",
        "\"abc",
        "\"\\",
        "\"\\u",
        "\"\\ud800",
        "\"\\ud800\\",
        "\"\\ud800\\u",
        "\"\\ud800\\udc00\"",
        "\"\\udc00\"",
        "\"a\u{0}b\"",
        "\"a\u{7f}b\"",
        "\"é\\n😀\"",
        "\"x\"y",
        "  \"x\"  ",
        "\"\\\"\"",
    ] {
        assert_same(doc);
    }
}
