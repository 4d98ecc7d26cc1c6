//! # moss-rtl
//!
//! A mini-RTL language (synthesizable Verilog subset) for the MOSS
//! reproduction: AST, parser, pretty-printer, cycle-accurate interpreter,
//! and register-description extraction.
//!
//! MOSS consumes circuits in two modalities: the *RTL code* (text, embedded
//! by a fine-tuned LLM) and the *netlist* (graph, embedded by a GNN). This
//! crate is the RTL modality: the same [`Module`] is printed to text for the
//! LLM corpus, interpreted for reference semantics and functional-
//! equivalence ground truth, and handed to `moss-synth` to produce the
//! netlist modality.
//!
//! ## Example
//!
//! ```
//! use moss_rtl::{parse, Interpreter, describe_registers};
//!
//! let m = parse(
//!     "module gray(input clk, output [3:0] g);
//!        reg [3:0] c = 0;
//!        always @(posedge clk) c <= c + 4'd1;
//!        assign g = c ^ (c >> 1);
//!      endmodule")?;
//! let mut sim = Interpreter::new(&m)?;
//! sim.step(&[]);
//! let descs = describe_registers(&m);
//! assert!(descs[0].prompt.contains("register c"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ast;
mod describe;
mod error;
mod interp;
mod lexer;
mod parser;
mod printer;

pub use ast::{
    mask, Assign, BinOp, Expr, Module, RegUpdate, Signal, SignalId, SignalKind, UnaryOp,
};
pub use describe::{describe_registers, module_summary, RegisterDescription};
pub use error::RtlError;
pub use interp::Interpreter;
pub use lexer::{lex, Token, TokenKind};
pub use parser::parse;
pub use printer::{print_expr, print_module};
