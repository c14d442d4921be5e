//! A minimal Rust lexer: just enough tokenization for the item parser
//! ([`crate::parser`]). It understands line/block comments (returned as
//! tokens so the pragma layer can read them), string/char/raw-string
//! literals (so nothing inside them is mistaken for code), lifetimes vs
//! char literals, identifiers, numbers, and single-character punctuation.
//! It does not build an AST and never fails: unexpected bytes become
//! punctuation tokens and the walk continues.

/// What a token is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`let`, `HashMap`, `unwrap`, ...).
    Ident,
    /// One punctuation character (`.`, `:`, `!`, `{`, ...).
    Punct(char),
    /// String / char / byte / numeric literal. `text` keeps the raw
    /// spelling so rules can inspect number shapes (`0.0`, `1f64`).
    Literal,
    /// `// ...` comment, `text` excludes the trailing newline.
    LineComment,
    /// `/* ... */` comment (possibly nested, possibly multi-line).
    BlockComment,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Raw source text of the token.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
    /// Half-open `[start, end)` span in *char* offsets into the source.
    /// Token spans are strictly increasing, never overlap, and every
    /// char outside all spans is whitespace — the partition invariant
    /// the `lexer_properties` suite checks.
    pub span: (usize, usize),
}

impl Tok {
    /// True when this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    /// True for comment tokens of either flavour.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

/// Tokenize `src`. Total: any input produces a token stream.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer { chars: src.chars().collect(), pos: 0, line: 1, out: Vec::new() }.run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Tok>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.push(Tok { kind, text, line, span: (0, 0) });
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            let start = self.pos;
            let before = self.out.len();
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string_literal(line),
                'r' | 'b' if self.raw_or_byte_string_starts() => self.raw_or_byte_string(line),
                '\'' => self.char_or_lifetime(line),
                c if c.is_ascii_digit() => self.number(line),
                c if c == '_' || c.is_alphabetic() => self.ident(line),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct(c), c.to_string(), line);
                }
            }
            // Every handler consumes at least one char and pushes at most
            // one token; stamp its span from the consumed range.
            debug_assert!(self.pos > start, "lexer must always make progress");
            if self.out.len() > before {
                if let Some(t) = self.out.last_mut() {
                    t.span = (start, self.pos);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokKind::LineComment, text, line);
    }

    fn block_comment(&mut self, line: u32) {
        let mut text = String::new();
        let mut depth = 0u32;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokKind::BlockComment, text, line);
    }

    fn string_literal(&mut self, line: u32) {
        let mut text = String::new();
        text.push(self.bump().unwrap_or('"')); // opening quote
        while let Some(c) = self.bump() {
            text.push(c);
            match c {
                '\\' => {
                    if let Some(esc) = self.bump() {
                        text.push(esc);
                    }
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokKind::Literal, text, line);
    }

    /// At an `r` or `b`: does a raw/byte string start here (`r"`, `r#`,
    /// `b"`, `br"`, `br#`)? Plain identifiers like `result` return false.
    fn raw_or_byte_string_starts(&self) -> bool {
        let mut i = 1;
        if self.peek(0) == Some('b') && self.peek(1) == Some('r') {
            i = 2;
        }
        loop {
            match self.peek(i) {
                Some('#') => i += 1,
                Some('"') => return true,
                _ => return false,
            }
        }
    }

    fn raw_or_byte_string(&mut self, line: u32) {
        let mut text = String::new();
        // Consume the prefix (`r`, `br`, `b`) and count `#`s.
        while matches!(self.peek(0), Some('r' | 'b' | '#')) {
            let c = self.bump().unwrap_or('r');
            text.push(c);
        }
        let hashes = text.chars().filter(|&c| c == '#').count();
        if self.peek(0) == Some('"') {
            text.push(self.bump().unwrap_or('"'));
        }
        if text.contains('r') {
            // Raw string: ends at `"` followed by `hashes` hashes.
            while let Some(c) = self.bump() {
                text.push(c);
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if self.peek(k) != Some('#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..hashes {
                            if let Some(h) = self.bump() {
                                text.push(h);
                            }
                        }
                        break;
                    }
                }
            }
        } else {
            // Byte string: same escape rules as a normal string.
            while let Some(c) = self.bump() {
                text.push(c);
                match c {
                    '\\' => {
                        if let Some(esc) = self.bump() {
                            text.push(esc);
                        }
                    }
                    '"' => break,
                    _ => {}
                }
            }
        }
        self.push(TokKind::Literal, text, line);
    }

    fn char_or_lifetime(&mut self, line: u32) {
        // `'a` where the following char is not `'` is a lifetime; `'a'`
        // and `'\n'` are char literals.
        let next = self.peek(1);
        let after = self.peek(2);
        let is_lifetime =
            matches!(next, Some(c) if c == '_' || c.is_alphabetic()) && after != Some('\'');
        if is_lifetime {
            let mut text = String::new();
            text.push(self.bump().unwrap_or('\'')); // the quote
            while matches!(self.peek(0), Some(c) if c == '_' || c.is_alphanumeric()) {
                let c = self.bump().unwrap_or('_');
                text.push(c);
            }
            self.push(TokKind::Lifetime, text, line);
            return;
        }
        let mut text = String::new();
        text.push(self.bump().unwrap_or('\'')); // opening quote
        while let Some(c) = self.bump() {
            text.push(c);
            match c {
                '\\' => {
                    if let Some(esc) = self.bump() {
                        text.push(esc);
                    }
                }
                '\'' => break,
                _ => {}
            }
        }
        self.push(TokKind::Literal, text, line);
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.' {
                // Part of the number only when a digit follows (so `1..4`
                // and `x.0.iter()` don't swallow range/method dots).
                if matches!(self.peek(1), Some(d) if d.is_ascii_digit()) && !text.contains('.') {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        self.push(TokKind::Literal, text, line);
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = lex("let x = a.unwrap();");
        let idents: Vec<_> =
            toks.iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.as_str()).collect();
        assert_eq!(idents, ["let", "x", "a", "unwrap"]);
    }

    #[test]
    fn strings_hide_code() {
        let toks = kinds(r#"let s = "HashMap::new() // not a comment";"#);
        assert!(toks.iter().all(|(_, t)| t != "HashMap"));
        assert!(!toks.iter().any(|(k, _)| *k == TokKind::LineComment));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let toks = kinds(r###"let s = r#"an "inner" quote"#; x"###);
        assert!(toks.iter().any(|(_, t)| t == "x"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Literal && t.contains("inner")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert!(toks.iter().any(|t| t.kind == TokKind::Literal && t.text == "'x'"));
    }

    #[test]
    fn comments_carry_text_and_lines() {
        let toks = lex("a\n// smi-lint: allow(panic-path)\nb");
        let c = toks.iter().find(|t| t.kind == TokKind::LineComment).expect("comment");
        assert_eq!(c.line, 2);
        assert!(c.text.contains("allow(panic-path)"));
        assert_eq!(toks.iter().find(|t| t.is_ident("b")).map(|t| t.line), Some(3));
    }

    #[test]
    fn nested_block_comments() {
        let toks = lex("/* outer /* inner */ still */ x");
        assert_eq!(toks.len(), 2);
        assert!(toks[1].is_ident("x"));
    }

    #[test]
    fn numbers_keep_float_shape() {
        let toks = lex("fold(0.0f64, 1_000, 0..4)");
        let lits: Vec<_> =
            toks.iter().filter(|t| t.kind == TokKind::Literal).map(|t| t.text.as_str()).collect();
        assert_eq!(lits, ["0.0f64", "1_000", "0", "4"]);
    }
}
