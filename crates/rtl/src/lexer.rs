//! Lexer for the mini-RTL (Verilog-subset) surface syntax.

use crate::error::RtlError;

/// A lexical token with its source line (1-based) for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token kind/payload.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident(String),
    /// A number literal: `(value, explicit_width)`; width is `None` for
    /// plain decimals (which default to 32 bits).
    Number(u64, Option<u32>),
    /// Single punctuation or operator.
    Punct(&'static str),
    /// End of input.
    Eof,
}

const PUNCTS2: [&str; 7] = ["==", "!=", "<<", ">>", "<=", "&&", "||"];
const PUNCTS1: [&str; 18] = [
    "(", ")", "[", "]", "{", "}", ",", ";", ":", "?", "@", "&", "|", "^", "~", "+", "-", "*",
];
const PUNCTS1_EXTRA: [&str; 3] = ["<", ">", "="];

/// Tokenizes mini-RTL source.
///
/// # Errors
///
/// Returns [`RtlError::Lex`] on unexpected characters or malformed sized
/// literals.
pub fn lex(src: &str) -> Result<Vec<Token>, RtlError> {
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut out = Vec::new();
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comments.
        if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            out.push(Token {
                kind: TokenKind::Ident(src[start..i].to_owned()),
                line,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let head: u64 = src[start..i]
                .parse()
                .map_err(|_| RtlError::lex(line, "integer literal overflows 64 bits"))?;
            // Sized literal: `8'd255`, `4'b1010`, `8'hff`.
            if i < bytes.len() && bytes[i] == b'\'' {
                i += 1;
                let base = bytes
                    .get(i)
                    .map(|&b| b as char)
                    .ok_or_else(|| RtlError::lex(line, "missing base after ' in literal"))?;
                i += 1;
                let radix = match base {
                    'd' | 'D' => 10,
                    'b' | 'B' => 2,
                    'h' | 'H' => 16,
                    other => return Err(RtlError::lex(line, format!("unknown base '{other}'"))),
                };
                let dstart = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_alphanumeric() {
                    i += 1;
                }
                let digits = &src[dstart..i];
                if digits.is_empty() {
                    return Err(RtlError::lex(line, "sized literal has no digits"));
                }
                let value = u64::from_str_radix(digits, radix)
                    .map_err(|_| RtlError::lex(line, format!("bad digits '{digits}'")))?;
                let width = u32::try_from(head)
                    .ok()
                    .filter(|w| (1..=64).contains(w))
                    .ok_or_else(|| RtlError::lex(line, format!("bad literal width {head}")))?;
                out.push(Token {
                    kind: TokenKind::Number(value, Some(width)),
                    line,
                });
            } else {
                out.push(Token {
                    kind: TokenKind::Number(head, None),
                    line,
                });
            }
            continue;
        }
        // Two-character punctuation first.
        if i + 1 < bytes.len() {
            let two = &src[i..i + 2];
            if let Some(&p) = PUNCTS2.iter().find(|&&p| p == two) {
                out.push(Token {
                    kind: TokenKind::Punct(p),
                    line,
                });
                i += 2;
                continue;
            }
        }
        let one = &src[i..i + 1];
        if let Some(&p) = PUNCTS1
            .iter()
            .chain(PUNCTS1_EXTRA.iter())
            .find(|&&p| p == one)
        {
            out.push(Token {
                kind: TokenKind::Punct(p),
                line,
            });
            i += 1;
            continue;
        }
        return Err(RtlError::lex(line, format!("unexpected character '{c}'")));
    }
    out.push(Token {
        kind: TokenKind::Eof,
        line,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_numbers_puncts() {
        let ks = kinds("assign y = a + 8'd255;");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("assign".into()),
                TokenKind::Ident("y".into()),
                TokenKind::Punct("="),
                TokenKind::Ident("a".into()),
                TokenKind::Punct("+"),
                TokenKind::Number(255, Some(8)),
                TokenKind::Punct(";"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn sized_literals_in_all_bases() {
        assert_eq!(kinds("4'b1010")[0], TokenKind::Number(10, Some(4)));
        assert_eq!(kinds("8'hff")[0], TokenKind::Number(255, Some(8)));
        assert_eq!(kinds("6'd42")[0], TokenKind::Number(42, Some(6)));
    }

    #[test]
    fn two_char_operators_win() {
        assert_eq!(kinds("a <= b")[1], TokenKind::Punct("<="));
        assert_eq!(kinds("a << 2")[1], TokenKind::Punct("<<"));
        assert_eq!(kinds("a < b")[1], TokenKind::Punct("<"));
    }

    #[test]
    fn comments_and_lines_tracked() {
        let toks = lex("a // comment\nb").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn bad_width_rejected() {
        assert!(lex("0'd1").is_err());
        assert!(lex("99'd1").is_err());
        assert!(lex("8'x1").is_err());
    }

    #[test]
    fn unexpected_character_rejected() {
        assert!(lex("a $ b").is_err());
    }
}
