//! Recursive-descent parser: tokens pulled from a [`Cursor`] → a flat
//! module AST whose names borrow from the source.
//!
//! The grammar is the structural subset a Design-Compiler-class tool
//! writes and ISCAS/ITC-style benchmark distributions use:
//!
//! ```text
//! source   := 'module' ident '(' ports? ')' ';' item* 'endmodule'
//! ports    := port (',' port)*
//! port     := ('input' | 'output')? ident          // ANSI or plain style
//! item     := ('input'|'output'|'wire') ident (',' ident)* ';'
//!           | 'assign' ident '=' (ident | const) ';'
//!           | ident ident '(' conn (',' conn)* ')' ';'
//! conn     := '.' ident '(' (ident | const) ')'
//! const    := 1'b0 | 1'b1
//! ```
//!
//! The cursor's `eat`/`ident` fast paths consume a token only when it is
//! the one asked for; `expect_*` combinators turn a miss into a
//! positioned expected-vs-found [`ParseError`].

use std::ops::Range;

use super::error::{ParseError, ParseErrorKind};
use super::token::{error_at, position, Cursor, Kind, Token};

/// An identifier and the byte offset it starts at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Name<'a> {
    /// The identifier text.
    pub text: &'a str,
    /// Byte offset of the identifier's first character.
    pub at: usize,
}

/// The right-hand side of a pin connection or assign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetRef<'a> {
    /// A named net.
    Net(Name<'a>),
    /// A constant bit (`1'b0` / `1'b1`).
    Const {
        /// The bit value.
        value: bool,
        /// Byte offset of the constant.
        at: usize,
    },
}

/// Direction of a declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// `input`
    Input,
    /// `output`
    Output,
    /// `wire`
    Wire,
}

/// One port-list entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Port<'a> {
    /// The port name.
    pub name: Name<'a>,
    /// ANSI-style inline direction, if given in the port list.
    pub dir: Option<Dir>,
}

/// One named pin connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinConn<'a> {
    /// The pin name (e.g. `A`, `Y`, `CK`).
    pub pin: Name<'a>,
    /// The connected net or constant.
    pub net: NetRef<'a>,
}

/// An assign or a cell instantiation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item<'a> {
    /// `assign lhs = rhs;`
    Assign {
        /// The assigned net (an output port in this frontend).
        lhs: Name<'a>,
        /// The driving net or constant.
        rhs: NetRef<'a>,
    },
    /// `CELL inst (.PIN(net), ...);`
    Instance {
        /// The library cell name (e.g. `NAND2_X1`).
        cell: Name<'a>,
        /// The instance name.
        name: Name<'a>,
        /// The instance's pin connections: a range of [`Ast::pins`].
        pins: Range<usize>,
    },
}

/// The parsed module, before elaboration into a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ast<'a> {
    /// The module name.
    pub name: &'a str,
    /// Port list, in source order.
    pub ports: Vec<Port<'a>>,
    /// Every name of every `input`/`output`/`wire` declaration, in source
    /// order.
    pub decls: Vec<(Dir, Name<'a>)>,
    /// Assigns and instances, in source order.
    pub items: Vec<Item<'a>>,
    /// Every instance's named pin connections, back to back.
    pub pins: Vec<PinConn<'a>>,
}

impl<'a> Name<'a> {
    fn of(token: Token<'a>) -> Name<'a> {
        Name {
            text: token.text,
            at: token.at,
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    cur: Cursor<'a>,
}

impl<'a> Parser<'a> {
    /// A syntax error: the grammar wanted `expected` where the cursor is.
    #[cold]
    #[inline(never)]
    fn unexpected(&mut self, expected: &str) -> ParseError {
        let found = match self.cur.peek() {
            Ok(found) => found,
            // The first lexical error in the source, since everything
            // before the cursor lexed.
            Err(e) => return e,
        };
        let kind = ParseErrorKind::UnexpectedToken {
            expected: expected.into(),
            found: found.map_or_else(|| "end of input".into(), |(t, _)| t.describe()),
        };
        let err = match found {
            Some((t, _)) => error_at(self.src, t.at, kind),
            // EOF diagnostics point one past the last token's start.
            None => {
                let (line, column) = self.cur.last().map_or((1, 1), |at| {
                    let (line, column) = position(self.src, at);
                    (line, column.saturating_add(1))
                });
                ParseError::new(line, column, kind)
            }
        };
        self.syntax_error(err)
    }

    /// `err`, unless the rest of the source holds a lexical error, which
    /// wins: a lexical error anywhere is reported ahead of a syntax error
    /// before it.
    fn syntax_error(&mut self, err: ParseError) -> ParseError {
        self.cur.drain().unwrap_or(err)
    }

    /// Requires the one-byte punctuation token `b` next.
    #[inline]
    fn expect(&mut self, b: u8, expected: &str) -> Result<(), ParseError> {
        if self.cur.eat(b) {
            Ok(())
        } else {
            Err(self.unexpected(expected))
        }
    }

    /// Requires the keyword `kind` next.
    fn expect_keyword(&mut self, kind: Kind, expected: &str) -> Result<(), ParseError> {
        match self.cur.peek()? {
            Some((t, end)) if t.kind == kind => {
                self.cur.bump(t, end);
                Ok(())
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    /// Requires an identifier next.
    #[inline]
    fn expect_ident(&mut self, expected: &str) -> Result<Name<'a>, ParseError> {
        match self.cur.ident() {
            Some(t) => Ok(Name::of(t)),
            None => Err(self.unexpected(expected)),
        }
    }

    /// Requires an identifier or constant next.
    #[inline]
    fn expect_net_ref(&mut self, expected: &str) -> Result<NetRef<'a>, ParseError> {
        if let Some(t) = self.cur.ident() {
            return Ok(NetRef::Net(Name::of(t)));
        }
        match self.cur.peek()? {
            Some((
                t @ Token {
                    kind: Kind::Const(value),
                    at,
                    ..
                },
                end,
            )) => {
                self.cur.bump(t, end);
                Ok(NetRef::Const { value, at })
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    fn parse_ports(&mut self) -> Result<Vec<Port<'a>>, ParseError> {
        let mut ports = Vec::new();
        if self.cur.eat(b')') {
            return Ok(ports);
        }
        loop {
            let port = match self.cur.word() {
                Some((t, end)) if t.kind == Kind::Ident => {
                    self.cur.bump(t, end);
                    Port {
                        name: Name::of(t),
                        dir: None,
                    }
                }
                Some((t, end)) if matches!(t.kind, Kind::Input | Kind::Output) => {
                    self.cur.bump(t, end);
                    Port {
                        name: self.expect_ident("a port name")?,
                        dir: Some(if t.kind == Kind::Input {
                            Dir::Input
                        } else {
                            Dir::Output
                        }),
                    }
                }
                _ => return Err(self.unexpected("a port name")),
            };
            ports.push(port);
            if self.cur.eat(b',') {
                continue;
            }
            self.expect(b')', "')' or ',' in the port list")?;
            return Ok(ports);
        }
    }

    fn parse_decl(&mut self, dir: Dir, decls: &mut Vec<(Dir, Name<'a>)>) -> Result<(), ParseError> {
        decls.push((dir, self.expect_ident("a declared name")?));
        while self.cur.eat(b',') {
            decls.push((dir, self.expect_ident("a declared name")?));
        }
        self.expect(b';', "';' after the declaration")
    }

    fn parse_assign(&mut self) -> Result<Item<'a>, ParseError> {
        let lhs = self.expect_ident("the assigned net")?;
        self.expect(b'=', "'=' in the assign")?;
        let rhs = self.expect_net_ref("a driving net or 1'b0/1'b1")?;
        self.expect(b';', "';' after the assign")?;
        Ok(Item::Assign { lhs, rhs })
    }

    /// The rest of an instance of `cell`, whose name has been consumed.
    fn parse_instance(
        &mut self,
        cell: Name<'a>,
        pins: &mut Vec<PinConn<'a>>,
    ) -> Result<Item<'a>, ParseError> {
        let name = self.expect_ident("an instance name")?;
        self.expect(b'(', "'(' opening the pin connections")?;
        let first = pins.len();
        if !self.cur.eat(b')') {
            loop {
                self.expect(b'.', "'.' starting a named pin connection")?;
                let pin = self.expect_ident("a pin name")?;
                self.expect(b'(', "'(' after the pin name")?;
                let net = self.expect_net_ref("a net name or 1'b0/1'b1")?;
                self.expect(b')', "')' closing the pin connection")?;
                pins.push(PinConn { pin, net });
                if self.cur.eat(b',') {
                    continue;
                }
                self.expect(b')', "')' or ',' after a pin connection")?;
                break;
            }
        }
        self.expect(b';', "';' after the instance")?;
        Ok(Item::Instance {
            cell,
            name,
            pins: first..pins.len(),
        })
    }

    fn parse_module(&mut self) -> Result<Ast<'a>, ParseError> {
        self.expect_keyword(Kind::Module, "keyword 'module'")?;
        let name = self.expect_ident("the module name")?;
        self.expect(b'(', "'(' opening the port list")?;
        let ports = self.parse_ports()?;
        self.expect(b';', "';' after the port list")?;

        let mut decls = Vec::new();
        let mut items = Vec::new();
        let mut pins = Vec::new();
        loop {
            let word = match self.cur.word() {
                Some((t, end)) if t.kind != Kind::Module => {
                    self.cur.bump(t, end);
                    t
                }
                _ => {
                    let expected = "a declaration, assign, instance, or 'endmodule'";
                    return Err(self.unexpected(expected));
                }
            };
            match word.kind {
                Kind::Endmodule => break,
                Kind::Input => self.parse_decl(Dir::Input, &mut decls)?,
                Kind::Output => self.parse_decl(Dir::Output, &mut decls)?,
                Kind::Wire => self.parse_decl(Dir::Wire, &mut decls)?,
                Kind::Assign => items.push(self.parse_assign()?),
                // A word that is no keyword: the cell name of an instance.
                _ => items.push(self.parse_instance(Name::of(word), &mut pins)?),
            }
        }

        match self.cur.peek()? {
            None => Ok(Ast {
                name: name.text,
                ports,
                decls,
                items,
                pins,
            }),
            Some((next, _)) if next.kind == Kind::Module => {
                let err = error_at(
                    self.src,
                    next.at,
                    ParseErrorKind::Unsupported {
                        construct: "more than one module per source".into(),
                    },
                );
                Err(self.syntax_error(err))
            }
            Some(_) => Err(self.unexpected("end of input after 'endmodule'")),
        }
    }
}

/// Parses `src` into an [`Ast`], pulling one token at a time from a
/// [`Cursor`]; no token list is built.
///
/// A lexical error anywhere wins over a syntax error before it: on a
/// syntax error the rest of the source is lexed, storing nothing, and its
/// first lexical error, if any, is reported instead.
///
/// # Errors
///
/// Returns the first lexical or syntactic [`ParseError`], positioned at
/// the offending token.
pub fn parse_source(src: &str) -> Result<Ast<'_>, ParseError> {
    Parser {
        src,
        cur: Cursor::new(src),
    }
    .parse_module()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ansi_and_plain_ports() {
        let ansi = parse_source("module m (input a, output y); endmodule").unwrap();
        assert_eq!(ansi.ports.len(), 2);
        assert_eq!(ansi.ports[0].dir, Some(Dir::Input));
        let plain = parse_source("module m (a, y); input a; output y; endmodule").unwrap();
        assert_eq!(plain.ports[0].dir, None);
        assert_eq!(plain.decls.len(), 2);
    }

    #[test]
    fn parses_multi_name_declarations() {
        let ast = parse_source("module m (); wire a, b, c; endmodule").unwrap();
        let texts: Vec<(Dir, &str)> = ast.decls.iter().map(|(d, n)| (*d, n.text)).collect();
        assert_eq!(
            texts,
            [(Dir::Wire, "a"), (Dir::Wire, "b"), (Dir::Wire, "c")]
        );
    }

    #[test]
    fn parses_instances_with_constants() {
        let ast = parse_source(
            "module m (input a, output y);
               wire n;
               NAND2_X1 u1 (.A(a), .B(1'b1), .Y(n));
               assign y = n;
             endmodule",
        )
        .unwrap();
        let Item::Instance { cell, pins, .. } = &ast.items[0] else {
            panic!("expected an instance");
        };
        assert_eq!(cell.text, "NAND2_X1");
        let pins = &ast.pins[pins.clone()];
        assert_eq!(pins.len(), 3);
        assert!(matches!(pins[1].net, NetRef::Const { value: true, .. }));
        assert!(matches!(ast.items[1], Item::Assign { .. }));
    }

    #[test]
    fn missing_semicolon_reports_position_and_expectation() {
        let err = parse_source("module m (input a)\n  wire w;\nendmodule").unwrap_err();
        assert_eq!(err.line, 2);
        let s = err.to_string();
        assert!(s.contains("';'"), "{s}");
        assert!(s.contains("keyword 'wire'"), "{s}");
    }

    #[test]
    fn truncated_source_reports_end_of_input() {
        let err = parse_source("module m (input a); INV_X1 u1 (.A(a), ").unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::UnexpectedToken { ref found, .. } if found == "end of input"
        ));
        // One column past the start of the last token, the `,`.
        assert_eq!((err.line, err.column), (1, 38));
    }

    #[test]
    fn a_lex_error_anywhere_wins_over_an_earlier_syntax_error() {
        let err = parse_source("module m (;\n wire 4'b0;").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Lex { .. }));
        assert_eq!(err.line, 2);
    }

    #[test]
    fn second_module_is_unsupported() {
        let err = parse_source("module a (); endmodule\nmodule b (); endmodule").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Unsupported { .. }));
        assert_eq!(err.line, 2);
    }

    #[test]
    fn positional_pin_connections_are_rejected() {
        let err = parse_source("module m (input a); INV_X1 u1 (a, y); endmodule").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnexpectedToken { .. }));
        assert!(err.to_string().contains("'.'"), "{err}");
    }
}
