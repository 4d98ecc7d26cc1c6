//! Tokenizer for gate-level structural Verilog.
//!
//! A [`Cursor`] reads the source one token at a time, as the parser asks
//! for it: nothing is buffered, so decoding holds no more than the AST it
//! builds, whatever the source's length. A token is `Copy`: a kind, the
//! byte offset of its first character, and, for identifiers, the name
//! borrowed from the source. Lines and columns are not tracked while
//! scanning; [`error_at`] derives them from an offset when an error is
//! built. Handles the lexical surface real benchmark netlists actually
//! use: `//` and `/* */` comments, simple and escaped (`\any[chars] `)
//! identifiers, and the single-bit constants `1'b0` / `1'b1`.
//!
//! The hot productions skip the general token dispatch: [`Cursor::eat`]
//! decides from the next byte whether a punctuation token comes next, and
//! [`Cursor::ident`] scans only identifiers. Neither can fail; a lexical
//! error is built only by [`Cursor::peek`], on the parser's error path.

use super::error::{ParseError, ParseErrorKind};

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A simple or escaped identifier; its name is [`Token::text`].
    Ident,
    /// A single-bit constant: `1'b0` (false) or `1'b1` (true).
    Const(bool),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Equals,
    /// `module`
    Module,
    /// `endmodule`
    Endmodule,
    /// `input`
    Input,
    /// `output`
    Output,
    /// `wire`
    Wire,
    /// `assign`
    Assign,
}

/// One lexical token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token's kind.
    pub kind: Kind,
    /// Byte offset of the token's first character (the backslash of an
    /// escaped identifier).
    pub at: usize,
    /// An identifier's name, without an escaped identifier's backslash
    /// and terminating whitespace; empty for every other kind.
    pub text: &'a str,
}

impl Token<'_> {
    /// Human-readable description for expected-vs-found diagnostics.
    pub fn describe(&self) -> String {
        match self.kind {
            Kind::Ident => format!("identifier '{}'", self.text),
            Kind::Const(b) => format!("constant 1'b{}", u8::from(b)),
            Kind::LParen => "'('".into(),
            Kind::RParen => "')'".into(),
            Kind::Semi => "';'".into(),
            Kind::Comma => "','".into(),
            Kind::Dot => "'.'".into(),
            Kind::Equals => "'='".into(),
            Kind::Module => "keyword 'module'".into(),
            Kind::Endmodule => "keyword 'endmodule'".into(),
            Kind::Input => "keyword 'input'".into(),
            Kind::Output => "keyword 'output'".into(),
            Kind::Wire => "keyword 'wire'".into(),
            Kind::Assign => "keyword 'assign'".into(),
        }
    }
}

/// The 1-based line and column of byte offset `at` in `src`, each
/// saturating at `u32::MAX`. Columns count bytes, so a multibyte
/// character advances the column by its encoded length.
pub fn position(src: &str, at: usize) -> (u32, u32) {
    let before = &src.as_bytes()[..at];
    let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
    let line_start = before
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let saturate = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
    (saturate(line), saturate(1 + at - line_start))
}

/// A [`ParseError`] positioned at byte offset `at` of `src`.
pub fn error_at(src: &str, at: usize, kind: ParseErrorKind) -> ParseError {
    let (line, column) = position(src, at);
    ParseError::new(line, column, kind)
}

/// Reserved words this frontend refuses as bare identifiers. Names that
/// collide with these must be written as escaped identifiers.
pub fn keyword(word: &str) -> Option<Kind> {
    match word {
        "module" => Some(Kind::Module),
        "endmodule" => Some(Kind::Endmodule),
        "input" => Some(Kind::Input),
        "output" => Some(Kind::Output),
        "wire" => Some(Kind::Wire),
        "assign" => Some(Kind::Assign),
        _ => None,
    }
}

/// Whether `b` may continue a simple identifier: `[A-Za-z0-9_$]`.
fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'$'
}

/// The offset of the first byte at or after `i` that cannot continue a
/// simple identifier. Scans eight bytes per step: writer names run to 15
/// or more bytes, and a byte loop pays a branch per byte.
fn ident_end(bytes: &[u8], mut i: usize) -> usize {
    while let Some(chunk) = bytes.get(i..i + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("an eight-byte chunk"));
        let stop = !ident_bytes(word) & HIGH_BITS;
        if stop != 0 {
            return i + (stop.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    i + bytes[i..]
        .iter()
        .position(|&c| !is_ident_byte(c))
        .unwrap_or(bytes.len() - i)
}

const HIGH_BITS: u64 = 0x8080_8080_8080_8080;
const LOW_BITS: u64 = 0x0101_0101_0101_0101;

/// [`is_ident_byte`] for the eight bytes of `word` at once: the high bit
/// of each byte of the result is set where that byte of `word` may
/// continue a simple identifier; the other bits are noise.
fn ident_bytes(word: u64) -> u64 {
    let ascii = !word & HIGH_BITS;
    let low = word & !HIGH_BITS;
    // With every byte below 0x80, `b + (0x80 - lo)` sets a byte's high
    // bit exactly when `b >= lo`, and no byte carries into the next.
    let at_least = |v: u64, lo: u8| v + LOW_BITS * u64::from(0x80 - lo);
    let above = |v: u64, hi: u8| at_least(v, hi + 1);
    let digit = at_least(low, b'0') & !above(low, b'9');
    let folded = low | (LOW_BITS * 0x20);
    let letter = at_least(folded, b'a') & !above(folded, b'z');
    let equal = |c: u8| !at_least(low ^ (LOW_BITS * u64::from(c)), 1);
    (digit | letter | equal(b'_') | equal(b'$')) & ascii
}

/// Whether `name` can be emitted as a bare (unescaped) identifier.
pub fn is_simple_ident(name: &str) -> bool {
    let bytes = name.as_bytes();
    bytes
        .first()
        .is_some_and(|&c| c.is_ascii_alphabetic() || c == b'_')
        && bytes.iter().all(|&c| is_ident_byte(c))
        && keyword(name).is_none()
}

/// A [`ParseErrorKind::Lex`] error at byte offset `at` of `src`.
fn lex_error(src: &str, at: usize, message: String) -> ParseError {
    error_at(src, at, ParseErrorKind::Lex { message })
}

/// A read position in the source, always at a token boundary or in the
/// whitespace and comments between tokens.
///
/// The fast paths ([`Cursor::eat`], [`Cursor::word`], [`Cursor::ident`])
/// cannot fail: where the source is malformed they see no match and stay
/// put, and the parser's error path then calls [`Cursor::peek`], which
/// reports the lexical error at that point. Lexical errors are the stray
/// characters, unterminated block comments, non-single-bit literals and
/// empty escaped identifiers, as [`ParseErrorKind::Lex`], and bus-range
/// brackets, which get a dedicated [`ParseErrorKind::Unsupported`]
/// diagnostic.
#[derive(Debug)]
pub struct Cursor<'a> {
    src: &'a str,
    /// Offset of the next unread byte.
    pos: usize,
    /// Start of the last token consumed, for end-of-input diagnostics.
    last: Option<usize>,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `src`.
    pub fn new(src: &'a str) -> Cursor<'a> {
        Cursor {
            src,
            pos: 0,
            last: None,
        }
    }

    /// The byte offset where the last consumed token starts, if any was.
    pub fn last(&self) -> Option<usize> {
        self.last
    }

    /// Skips whitespace and comments, then returns the next byte: `None`
    /// at the end of the source, or at an unterminated block comment,
    /// where the cursor stops on the opener.
    #[inline]
    fn next_byte(&mut self) -> Option<u8> {
        let bytes = self.src.as_bytes();
        loop {
            let b = *bytes.get(self.pos)?;
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b'/' if matches!(bytes.get(self.pos + 1), Some(b'/' | b'*')) => {
                    self.pos = self.comment_end()?;
                }
                _ => return Some(b),
            }
        }
    }

    /// The end of the comment at the cursor, or `None` for an
    /// unterminated block comment.
    fn comment_end(&self) -> Option<usize> {
        let bytes = self.src.as_bytes();
        if bytes[self.pos + 1] == b'/' {
            // The newline itself is left for the whitespace arm.
            let line = &bytes[self.pos..];
            return Some(self.pos + line.iter().position(|&c| c == b'\n').unwrap_or(line.len()));
        }
        let body = self.pos + 2;
        let n = bytes[body..].windows(2).position(|w| w == b"*/")?;
        Some(body + n + 2)
    }

    /// Consumes the one-byte punctuation token `b` (one of `(`, `)`, `;`,
    /// `,`, `.`, `=`) when it comes next.
    #[inline]
    pub fn eat(&mut self, b: u8) -> bool {
        if self.next_byte() != Some(b) {
            return false;
        }
        self.last = Some(self.pos);
        self.pos += 1;
        true
    }

    /// The identifier or keyword that comes next and the offset just past
    /// it, without consuming it; `None` when anything else does, an empty
    /// escaped identifier included.
    #[inline]
    pub fn word(&mut self) -> Option<(Token<'a>, usize)> {
        match self.next_byte()? {
            b'\\' => self.escaped(self.pos),
            b if b.is_ascii_alphabetic() || b == b'_' => Some(self.simple(self.pos)),
            _ => None,
        }
    }

    /// Consumes `token`, which [`Cursor::peek`] or [`Cursor::word`] just
    /// returned with `end`.
    #[inline]
    pub fn bump(&mut self, token: Token<'a>, end: usize) {
        self.last = Some(token.at);
        self.pos = end;
    }

    /// Consumes an identifier when one comes next; a keyword is not one.
    #[inline]
    pub fn ident(&mut self) -> Option<Token<'a>> {
        let (token, end) = self.word().filter(|(t, _)| t.kind == Kind::Ident)?;
        self.bump(token, end);
        Some(token)
    }

    /// The token that comes next and the offset just past it, without
    /// consuming it; `None` at the end of the source.
    ///
    /// # Errors
    ///
    /// The lexical error at the cursor, if the next token is malformed.
    pub fn peek(&mut self) -> Result<Option<(Token<'a>, usize)>, ParseError> {
        let Some(b) = self.next_byte() else {
            if self.pos == self.src.len() {
                return Ok(None);
            }
            let message = "unterminated block comment".into();
            return Err(lex_error(self.src, self.pos, message));
        };
        let at = self.pos;
        let kind = match b {
            b'(' => Kind::LParen,
            b')' => Kind::RParen,
            b';' => Kind::Semi,
            b',' => Kind::Comma,
            b'.' => Kind::Dot,
            b'=' => Kind::Equals,
            b'[' | b']' => {
                return Err(error_at(
                    self.src,
                    at,
                    ParseErrorKind::Unsupported {
                        construct: "bus ranges / bit selects (flatten buses to scalar nets, \
                                    or use escaped identifiers like `\\q[0] `)"
                            .into(),
                    },
                ));
            }
            _ if b.is_ascii_digit() => return self.constant(at).map(Some),
            _ => {
                return match self.word() {
                    Some(word) => Ok(Some(word)),
                    None if b == b'\\' => {
                        let message = "empty escaped identifier".into();
                        Err(lex_error(self.src, at, message))
                    }
                    None => {
                        let ch = self.src[at..].chars().next().unwrap_or('?');
                        let message = format!("unexpected character '{ch}'");
                        Err(lex_error(self.src, at, message))
                    }
                };
            }
        };
        Ok(Some((Token { kind, at, text: "" }, at + 1)))
    }

    /// Lexes the rest of the source, storing nothing, and returns its
    /// first lexical error, if it has one.
    pub fn drain(&mut self) -> Option<ParseError> {
        loop {
            match self.peek() {
                Ok(Some((token, end))) => self.bump(token, end),
                Ok(None) => return None,
                Err(e) => return Some(e),
            }
        }
    }

    /// The simple identifier or keyword starting at `at`.
    #[inline]
    fn simple(&self, at: usize) -> (Token<'a>, usize) {
        let end = ident_end(self.src.as_bytes(), at + 1);
        let word = &self.src[at..end];
        let token = match keyword(word) {
            Some(kind) => Token { kind, at, text: "" },
            None => Token {
                kind: Kind::Ident,
                at,
                text: word,
            },
        };
        (token, end)
    }

    /// The escaped identifier whose backslash is at `at`, or `None` if it
    /// is empty.
    fn escaped(&self, at: usize) -> Option<(Token<'a>, usize)> {
        let bytes = self.src.as_bytes();
        let start = at + 1;
        let end = bytes[start..]
            .iter()
            .position(u8::is_ascii_whitespace)
            .map_or(bytes.len(), |n| start + n);
        // Escaped identifiers are raw bytes up to ASCII whitespace, which
        // never splits a UTF-8 sequence.
        let text = &self.src[start..end];
        (end > start).then_some((
            Token {
                kind: Kind::Ident,
                at,
                text,
            },
            end,
        ))
    }

    /// The constant `1'b0` or `1'b1` starting at `at`.
    fn constant(&self, at: usize) -> Result<(Token<'a>, usize), ParseError> {
        let rest = &self.src.as_bytes()[at + 1..];
        let len = rest
            .iter()
            .position(|&c| !(c.is_ascii_alphanumeric() || c == b'\'' || c == b'_'))
            .unwrap_or(rest.len());
        let end = at + 1 + len;
        let kind = match &self.src[at..end] {
            "1'b0" => Kind::Const(false),
            "1'b1" => Kind::Const(true),
            lit => {
                let message = format!("unsupported literal '{lit}' (only 1'b0 and 1'b1)");
                return Err(lex_error(self.src, at, message));
            }
        };
        Ok((Token { kind, at, text: "" }, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token of `src`, lexed to the end.
    fn toks(src: &str) -> Vec<(Kind, &str)> {
        let mut cur = Cursor::new(src);
        let mut out = Vec::new();
        while let Some((t, end)) = cur.peek().unwrap() {
            cur.bump(t, end);
            out.push((t.kind, t.text));
        }
        out
    }

    fn positions(src: &str) -> Vec<(u32, u32)> {
        let mut cur = Cursor::new(src);
        let mut out = Vec::new();
        while let Some((t, end)) = cur.peek().unwrap() {
            cur.bump(t, end);
            out.push(position(src, t.at));
        }
        out
    }

    /// The first lexical error in `src`.
    fn lex_err(src: &str) -> ParseError {
        Cursor::new(src).drain().expect("a lexical error")
    }

    #[test]
    fn lexes_the_full_surface() {
        let got = toks("module m (a); // line comment\n/* block\ncomment */ wire w; \\q[0]  1'b0 1'b1 endmodule");
        assert_eq!(
            got,
            vec![
                (Kind::Module, ""),
                (Kind::Ident, "m"),
                (Kind::LParen, ""),
                (Kind::Ident, "a"),
                (Kind::RParen, ""),
                (Kind::Semi, ""),
                (Kind::Wire, ""),
                (Kind::Ident, "w"),
                (Kind::Semi, ""),
                (Kind::Ident, "q[0]"),
                (Kind::Const(false), ""),
                (Kind::Const(true), ""),
                (Kind::Endmodule, ""),
            ]
        );
    }

    #[test]
    fn positions_are_one_based_lines_and_columns() {
        assert_eq!(positions("module\n  foo"), [(1, 1), (2, 3)]);
    }

    #[test]
    fn comment_newlines_advance_the_line_counter() {
        assert_eq!(positions("/* a\nb\nc */ x"), [(3, 6)]);
    }

    #[test]
    fn columns_count_bytes() {
        // `é` is two bytes, so `x` starts at byte column 5.
        assert_eq!(positions("\\é x"), [(1, 1), (1, 5)]);
    }

    #[test]
    fn unterminated_block_comment_is_a_lex_error_at_the_opener() {
        let err = lex_err("wire w; /* oops");
        assert_eq!((err.line, err.column), (1, 9));
        assert!(matches!(err.kind, ParseErrorKind::Lex { .. }));
        assert!(err.to_string().contains("unterminated"), "{err}");
        // The opener's `*` does not also close the comment.
        assert!(Cursor::new("/*/ x").drain().is_some());
        assert_eq!(toks("/**/ x"), [(Kind::Ident, "x")]);
    }

    #[test]
    fn wide_literals_are_rejected_with_position() {
        let err = lex_err("module m; 4'b0101");
        assert!(matches!(err.kind, ParseErrorKind::Lex { .. }));
        assert!(err.to_string().contains("4'b0101"), "{err}");
    }

    #[test]
    fn bus_brackets_get_a_dedicated_unsupported_error() {
        let err = lex_err("input [3:0] a;");
        assert!(matches!(err.kind, ParseErrorKind::Unsupported { .. }));
    }

    #[test]
    fn escaped_identifier_preserves_special_characters() {
        assert_eq!(
            toks("\\a.b[3] x"),
            vec![(Kind::Ident, "a.b[3]"), (Kind::Ident, "x")]
        );
        assert!(
            Cursor::new("\\ x").drain().is_some(),
            "empty escaped identifier"
        );
    }

    #[test]
    fn the_fast_paths_agree_with_peek() {
        let mut cur = Cursor::new("  ( input a\n, \\w[1] ");
        assert!(!cur.eat(b')'));
        assert!(cur.eat(b'('));
        assert_eq!(cur.last(), Some(2));
        // A keyword is a word but not an identifier.
        assert_eq!(cur.word().map(|(t, _)| t.kind), Some(Kind::Input));
        assert_eq!(cur.ident(), None);
        let (input, end) = cur.peek().unwrap().unwrap();
        cur.bump(input, end);
        assert_eq!(cur.ident().map(|t| t.text), Some("a"));
        assert_eq!(cur.word(), None);
        assert!(cur.eat(b','));
        assert_eq!(cur.ident().map(|t| (t.text, t.at)), Some(("w[1]", 14)));
        assert_eq!(cur.peek().unwrap(), None);
        assert_eq!(cur.last(), Some(14));
    }

    #[test]
    fn the_fast_paths_leave_lexical_errors_to_peek() {
        for src in ["  /* open", "\\ x", "4'b0101", "[", "é"] {
            let mut cur = Cursor::new(src);
            assert!(!cur.eat(b'('), "{src:?}");
            assert_eq!(cur.word(), None, "{src:?}");
            assert_eq!(cur.ident(), None, "{src:?}");
            assert!(cur.peek().is_err(), "{src:?}");
            assert_eq!(cur.last(), None, "{src:?}");
        }
    }

    #[test]
    fn the_word_scan_matches_the_byte_predicate() {
        // Every byte value, at every offset of an eight-byte chunk, after
        // identifier bytes and before more.
        for b in 0..=255u8 {
            for lead in 0..10 {
                let mut bytes = vec![b'a'; lead];
                bytes.push(b);
                bytes.extend_from_slice(b"bcdefghijk");
                let want = if is_ident_byte(b) { bytes.len() } else { lead };
                assert_eq!(ident_end(&bytes, 0), want, "byte {b:#x} after {lead}");
            }
        }
        assert_eq!(ident_end(b"", 0), 0);
        assert_eq!(ident_end(b"ab", 2), 2);
    }

    #[test]
    fn simple_ident_predicate_matches_the_lexer() {
        assert!(is_simple_ident("n_u1"));
        assert!(is_simple_ident("_x$2"));
        assert!(!is_simple_ident("1abc"));
        assert!(!is_simple_ident("a.b"));
        assert!(!is_simple_ident("wire"));
        assert!(!is_simple_ident(""));
    }
}
