//! Summary statistics for netlists.

use std::fmt;

use crate::cell::CellKind;
use crate::graph::{Netlist, NodeKind};
use crate::level::Levelization;

/// Aggregate statistics for a netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistStats {
    /// Total cells (combinational + DFF).
    pub cells: usize,
    /// Number of DFFs.
    pub dffs: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Total connections.
    pub edges: usize,
    /// Logic depth (max combinational level), if acyclic.
    pub depth: Option<u32>,
    /// Per-kind cell histogram, indexed by [`CellKind::index`].
    pub kind_histogram: Vec<usize>,
}

impl NetlistStats {
    /// Computes statistics for `netlist`.
    pub fn of(netlist: &Netlist) -> NetlistStats {
        let mut kind_histogram = vec![0usize; CellKind::ALL.len()];
        let mut inputs = 0;
        let mut outputs = 0;
        for id in netlist.node_ids() {
            match netlist.kind(id) {
                NodeKind::PrimaryInput => inputs += 1,
                NodeKind::PrimaryOutput => outputs += 1,
                NodeKind::Cell(k) => kind_histogram[k.index()] += 1,
            }
        }
        let depth = Levelization::of(netlist).ok().map(|l| l.max_level());
        NetlistStats {
            cells: netlist.cell_count(),
            dffs: netlist.dff_count(),
            inputs,
            outputs,
            edges: netlist.edge_count(),
            depth,
            kind_histogram,
        }
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cells={} dffs={} pis={} pos={} edges={} depth={}",
            self.cells,
            self.dffs,
            self.inputs,
            self.outputs,
            self.edges,
            self.depth.map_or("cyclic".to_owned(), |d| d.to_string()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_count_correctly() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_cell(CellKind::Nand2, "u1", &[a, b]).unwrap();
        let ff = nl.add_cell(CellKind::Dff, "r0", &[g]).unwrap();
        nl.add_output("y", ff);
        let s = NetlistStats::of(&nl);
        assert_eq!(s.cells, 2);
        assert_eq!(s.dffs, 1);
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.depth, Some(1));
        assert_eq!(s.kind_histogram[CellKind::Nand2.index()], 1);
        assert_eq!(s.kind_histogram[CellKind::Dff.index()], 1);
        assert!(s.to_string().contains("cells=2"));
    }
}
