//! Error types for netlist construction and analysis.

use std::error::Error;
use std::fmt;

use crate::cell::CellKind;
use crate::verilog::ParseError;

/// Errors produced while building or analyzing a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A cell was connected with the wrong number of fanins.
    PinCountMismatch {
        /// The cell kind.
        cell: CellKind,
        /// Pins the cell requires.
        expected: usize,
        /// Pins supplied.
        got: usize,
    },
    /// A fanin id referenced a node that does not exist.
    UnknownNode(usize),
    /// A node has dangling (unconnected) pins.
    DanglingPins {
        /// Node index.
        node: usize,
        /// Node name.
        name: String,
        /// Pins required.
        expected: usize,
        /// Pins connected.
        got: usize,
    },
    /// Fanin and fanout adjacency lists disagree.
    InconsistentAdjacency {
        /// Driver index.
        from: usize,
        /// Sink index.
        to: usize,
    },
    /// The combinational portion of the netlist contains a cycle
    /// (a feedback loop not broken by a DFF).
    CombinationalCycle {
        /// A node on the cycle.
        node: usize,
    },
    /// The netlist has no nodes at all (e.g. `module m (); endmodule`), so
    /// there is nothing to propagate over or pool.
    Empty,
    /// Structural Verilog failed to parse. Carries the position and typed
    /// kind of the failure.
    Verilog(ParseError),
    /// A deterministic fault from `moss-faults` (`MOSS_FAULTS`) fired at
    /// this site — a rehearsed failure, not an organic one.
    FaultInjected {
        /// The fault site that fired (e.g. `"sim"`, `"sta"`).
        site: &'static str,
    },
}

impl NetlistError {
    /// True when this error is a rehearsed `moss-faults` injection rather
    /// than an organic failure (run manifests record the distinction).
    pub fn is_fault_injected(&self) -> bool {
        matches!(self, NetlistError::FaultInjected { .. })
    }
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::PinCountMismatch {
                cell,
                expected,
                got,
            } => {
                write!(f, "cell {cell} requires {expected} fanins, got {got}")
            }
            NetlistError::UnknownNode(i) => write!(f, "fanin references unknown node {i}"),
            NetlistError::DanglingPins {
                node,
                name,
                expected,
                got,
            } => write!(
                f,
                "node {node} ({name}) has {got} connected pins, requires {expected}"
            ),
            NetlistError::InconsistentAdjacency { from, to } => {
                write!(f, "adjacency lists disagree on edge {from} -> {to}")
            }
            NetlistError::CombinationalCycle { node } => write!(
                f,
                "combinational cycle through node {node} (missing a flip-flop on a feedback path)"
            ),
            NetlistError::Empty => write!(f, "netlist has no nodes"),
            NetlistError::Verilog(e) => {
                write!(f, "verilog parse error: {e}")
            }
            NetlistError::FaultInjected { site } => {
                write!(f, "injected fault at site '{site}'")
            }
        }
    }
}

impl Error for NetlistError {}

impl From<ParseError> for NetlistError {
    fn from(e: ParseError) -> NetlistError {
        NetlistError::Verilog(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = NetlistError::UnknownNode(3);
        let s = e.to_string();
        assert!(s.contains('3'));
        assert!(s.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<NetlistError>();
    }
}
