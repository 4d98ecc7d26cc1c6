//! Tokenizer for gate-level structural Verilog.
//!
//! One pass over the source bytes yields `Copy` [`Token`]s: a kind, the
//! byte offset of the token's first character, and, for identifiers, the
//! name borrowed from the source. Lines and columns are not tracked while
//! scanning; [`error_at`] derives them from an offset when an error is
//! built. Handles the lexical surface real benchmark netlists actually
//! use: `//` and `/* */` comments, simple and escaped (`\any[chars] `)
//! identifiers, and the single-bit constants `1'b0` / `1'b1`.

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

/// Whether `name` can be emitted as a bare (unescaped) identifier.
pub fn is_simple_ident(name: &str) -> bool {
    let bytes = name.as_bytes();
    bytes
        .first()
        .is_some_and(|&c| c.is_ascii_alphabetic() || c == b'_')
        && bytes.iter().all(|&c| is_ident_byte(c))
        && keyword(name).is_none()
}

/// Tokenizes `src`.
///
/// # Errors
///
/// Returns a [`ParseError`] with [`ParseErrorKind::Lex`] on stray
/// characters, unterminated block comments, non-single-bit literals, and
/// empty escaped identifiers; bus-range brackets get a dedicated
/// [`ParseErrorKind::Unsupported`] diagnostic.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, ParseError> {
    let bytes = src.as_bytes();
    let lex_err = |at: usize, message: String| error_at(src, at, ParseErrorKind::Lex { message });
    // Writer output averages a little under five source bytes per token.
    let mut out = Vec::with_capacity(bytes.len() / 4);
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        let at = i;
        let (kind, text) = match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
                continue;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                // The newline itself is left for the whitespace arm.
                i = bytes[i..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(bytes.len(), |n| i + n);
                continue;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let body = i + 2;
                match bytes[body..].windows(2).position(|w| w == b"*/") {
                    Some(n) => i = body + n + 2,
                    None => return Err(lex_err(at, "unterminated block comment".into())),
                }
                continue;
            }
            b'(' | b')' | b';' | b',' | b'.' | b'=' => {
                i += 1;
                let kind = match b {
                    b'(' => Kind::LParen,
                    b')' => Kind::RParen,
                    b';' => Kind::Semi,
                    b',' => Kind::Comma,
                    b'.' => Kind::Dot,
                    _ => Kind::Equals,
                };
                (kind, "")
            }
            b'[' | b']' => {
                return Err(error_at(
                    src,
                    at,
                    ParseErrorKind::Unsupported {
                        construct: "bus ranges / bit selects (flatten buses to scalar nets, \
                                    or use escaped identifiers like `\\q[0] `)"
                            .into(),
                    },
                ));
            }
            b'\\' => {
                let start = i + 1;
                i = bytes[start..]
                    .iter()
                    .position(u8::is_ascii_whitespace)
                    .map_or(bytes.len(), |n| start + n);
                if i == start {
                    return Err(lex_err(at, "empty escaped identifier".into()));
                }
                // Escaped identifiers are raw bytes up to ASCII whitespace,
                // which never splits a UTF-8 sequence.
                (Kind::Ident, &src[start..i])
            }
            _ if b.is_ascii_alphabetic() || b == b'_' => {
                i += 1;
                while bytes.get(i).is_some_and(|&c| is_ident_byte(c)) {
                    i += 1;
                }
                let word = &src[at..i];
                match keyword(word) {
                    Some(kind) => (kind, ""),
                    None => (Kind::Ident, word),
                }
            }
            _ if b.is_ascii_digit() => {
                i += 1;
                while bytes
                    .get(i)
                    .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'\'' || c == b'_')
                {
                    i += 1;
                }
                let kind = match &src[at..i] {
                    "1'b0" => Kind::Const(false),
                    "1'b1" => Kind::Const(true),
                    lit => {
                        return Err(lex_err(
                            at,
                            format!("unsupported literal '{lit}' (only 1'b0 and 1'b1)"),
                        ))
                    }
                };
                (kind, "")
            }
            _ => {
                let ch = src[at..].chars().next().unwrap_or('?');
                return Err(lex_err(at, format!("unexpected character '{ch}'")));
            }
        };
        out.push(Token { kind, at, text });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<(Kind, &str)> {
        lex(src)
            .unwrap()
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    fn positions(src: &str) -> Vec<(u32, u32)> {
        lex(src)
            .unwrap()
            .iter()
            .map(|t| position(src, t.at))
            .collect()
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
        let err = lex("wire w; /* oops").unwrap_err();
        assert_eq!((err.line, err.column), (1, 9));
        assert!(matches!(err.kind, ParseErrorKind::Lex { .. }));
        assert!(err.to_string().contains("unterminated"), "{err}");
        // The opener's `*` does not also close the comment.
        assert!(lex("/*/ x").is_err());
        assert_eq!(toks("/**/ x"), [(Kind::Ident, "x")]);
    }

    #[test]
    fn wide_literals_are_rejected_with_position() {
        let err = lex("module m; 4'b0101").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Lex { .. }));
        assert!(err.to_string().contains("4'b0101"), "{err}");
    }

    #[test]
    fn bus_brackets_get_a_dedicated_unsupported_error() {
        let err = lex("input [3:0] a;").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Unsupported { .. }));
    }

    #[test]
    fn escaped_identifier_preserves_special_characters() {
        assert_eq!(
            toks("\\a.b[3] x"),
            vec![(Kind::Ident, "a.b[3]"), (Kind::Ident, "x")]
        );
        assert!(lex("\\ x").is_err(), "empty escaped identifier");
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
