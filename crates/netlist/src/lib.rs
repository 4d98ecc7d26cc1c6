//! # moss-netlist
//!
//! Standard-cell netlist data structures for the MOSS reproduction.
//!
//! MOSS (DAC 2025) learns representations of *sequential circuits at the
//! standard-cell level* — not AIGs — because industrial labels (arrival
//! times, toggle rates, power) are annotated on standard cells. This crate
//! provides:
//!
//! - [`CellKind`]: a 16-cell library vocabulary with logic functions and
//!   datasheet-style descriptions (fed to the LLM path, paper Fig. 3);
//! - [`CellLibrary`]: NLDM-style timing/power characterization;
//! - [`Netlist`]: the directed graph with ordered (pin-indexed) edges;
//! - [`Levelization`]: topological ordering with DFFs as sequential
//!   boundaries (pseudo primary inputs/outputs, paper §IV-B).
//!
//! ## Example
//!
//! ```
//! use moss_netlist::{CellKind, Netlist, Levelization, NetlistStats};
//!
//! // q_next = q XOR en  (a toggle-enable flop)
//! let mut nl = Netlist::new("toggle_en");
//! let en = nl.add_input("en");
//! let seed = nl.add_input("seed");
//! let ff = nl.add_cell(CellKind::Dff, "q_reg", &[seed])?;
//! let x = nl.add_cell(CellKind::Xor2, "u1", &[ff, en])?;
//! nl.add_output("q", ff);
//!
//! let stats = NetlistStats::of(&nl);
//! assert_eq!(stats.dffs, 1);
//! let lv = Levelization::of(&nl)?;
//! assert_eq!(lv.level(x), 1);
//! # Ok::<(), moss_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod canon;
mod cell;
mod error;
mod graph;
mod level;
mod library;
mod stats;
mod verilog;

pub use canon::{canonical_form, canonical_hash};
pub use cell::CellKind;
pub use error::NetlistError;
pub use graph::{FaninArena, Netlist, Node, NodeId, NodeKind};
pub use level::Levelization;
pub use library::{CellLibrary, CellTiming};
pub use stats::NetlistStats;
pub use verilog::{
    parse_verilog, parse_verilog_design, write_verilog, DffReset, ParseError, ParseErrorKind,
    ParsedDff, VerilogDesign,
};
