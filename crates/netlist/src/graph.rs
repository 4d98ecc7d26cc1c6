//! The netlist graph: nodes, ordered pin connections, and structural queries.
//!
//! A netlist is a directed graph `G = (V, E)` (paper §III) whose nodes are
//! primary inputs/outputs and standard cells, and whose edges carry a pin
//! index — pin order matters because different inputs of a gate have
//! different electrical and logical roles (the paper encodes this with edge
//! positional encoding, §IV-B).

use std::fmt;

use crate::cell::CellKind;
use crate::error::NetlistError;

/// Identifier of a node within one [`Netlist`].
///
/// Indices are dense and stable: the `n`-th added node has index `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates an id from a raw index.
    pub fn new(index: usize) -> NodeId {
        NodeId(index as u32)
    }

    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Primary input port.
    PrimaryInput,
    /// Primary output port (single fanin).
    PrimaryOutput,
    /// A standard cell, combinational or sequential.
    Cell(CellKind),
}

impl NodeKind {
    /// Whether this node is a D-type flip-flop.
    pub fn is_dff(self) -> bool {
        matches!(self, NodeKind::Cell(k) if k.is_sequential())
    }

    /// Whether this node is a combinational cell.
    pub fn is_combinational_cell(self) -> bool {
        matches!(self, NodeKind::Cell(k) if !k.is_sequential())
    }

    /// The expected number of fanins.
    pub fn input_count(self) -> usize {
        match self {
            NodeKind::PrimaryInput => 0,
            NodeKind::PrimaryOutput => 1,
            NodeKind::Cell(k) => k.input_count(),
        }
    }
}

/// A node: its kind plus an instance name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    kind: NodeKind,
    name: String,
}

impl Node {
    /// The node's kind.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// The instance (or port) name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A standard-cell netlist.
///
/// # Examples
///
/// Build `y = !(a & b)` and query its structure:
///
/// ```
/// use moss_netlist::{CellKind, Netlist};
///
/// let mut nl = Netlist::new("tiny");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let g = nl.add_cell(CellKind::Nand2, "u1", &[a, b])?;
/// let _y = nl.add_output("y", g);
/// assert_eq!(nl.cell_count(), 1);
/// assert_eq!(nl.fanins(g), [a, b]);
/// # Ok::<(), moss_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    fanins: Vec<Vec<NodeId>>,
    fanouts: Vec<Vec<NodeId>>,
}

impl Netlist {
    /// Creates an empty netlist with a design name.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            nodes: Vec::new(),
            fanins: Vec::new(),
            fanouts: Vec::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn push_node(&mut self, kind: NodeKind, name: String) -> NodeId {
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(Node { kind, name });
        self.fanins.push(Vec::new());
        self.fanouts.push(Vec::new());
        id
    }

    /// Adds a primary input port.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        self.push_node(NodeKind::PrimaryInput, name.into())
    }

    /// Adds a primary output port driven by `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of bounds.
    pub fn add_output(&mut self, name: impl Into<String>, src: NodeId) -> NodeId {
        assert!(src.index() < self.nodes.len(), "source {src} out of bounds");
        let id = self.push_node(NodeKind::PrimaryOutput, name.into());
        self.fanins[id.index()].push(src);
        self.fanouts[src.index()].push(id);
        id
    }

    /// Adds a standard cell with ordered fanins.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::PinCountMismatch`] if `fanins.len()` does not
    /// match the cell's pin count, or [`NetlistError::UnknownNode`] if any
    /// fanin is out of bounds.
    pub fn add_cell(
        &mut self,
        kind: CellKind,
        name: impl Into<String>,
        fanins: &[NodeId],
    ) -> Result<NodeId, NetlistError> {
        if fanins.len() != kind.input_count() {
            return Err(NetlistError::PinCountMismatch {
                cell: kind,
                expected: kind.input_count(),
                got: fanins.len(),
            });
        }
        for &f in fanins {
            if f.index() >= self.nodes.len() {
                return Err(NetlistError::UnknownNode(f.index()));
            }
        }
        let id = self.push_node(NodeKind::Cell(kind), name.into());
        for &f in fanins {
            self.fanins[id.index()].push(f);
            self.fanouts[f.index()].push(id);
        }
        Ok(id)
    }

    /// Adds a standard cell with no fanins connected yet.
    ///
    /// Parser-internal: the Verilog elaborator creates all instances first
    /// (nets may be driven after their first use, and DFFs form cycles) and
    /// then attaches pins in order via [`Netlist::connect_pin`]. The node is
    /// invalid until all pins are connected; [`Netlist::validate`] reports
    /// it as [`NetlistError::DanglingPins`] until then.
    pub(crate) fn add_cell_unconnected(
        &mut self,
        kind: CellKind,
        name: impl Into<String>,
    ) -> NodeId {
        self.push_node(NodeKind::Cell(kind), name.into())
    }

    /// Connects the next unconnected pin of `node` to `src`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNode`] if either id is out of bounds,
    /// or [`NetlistError::PinCountMismatch`] if every pin of `node` is
    /// already connected.
    pub(crate) fn connect_pin(&mut self, node: NodeId, src: NodeId) -> Result<(), NetlistError> {
        if node.index() >= self.nodes.len() {
            return Err(NetlistError::UnknownNode(node.index()));
        }
        if src.index() >= self.nodes.len() {
            return Err(NetlistError::UnknownNode(src.index()));
        }
        let kind = self.nodes[node.index()].kind;
        let expected = kind.input_count();
        let got = self.fanins[node.index()].len();
        if got >= expected {
            return Err(NetlistError::PinCountMismatch {
                cell: match kind {
                    NodeKind::Cell(k) => k,
                    _ => CellKind::Buf,
                },
                expected,
                got: got + 1,
            });
        }
        self.fanins[node.index()].push(src);
        self.fanouts[src.index()].push(node);
        Ok(())
    }

    /// Total node count including ports.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of standard cells (combinational + DFF), excluding ports.
    pub fn cell_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Cell(_)))
            .count()
    }

    /// Number of DFFs.
    pub fn dff_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_dff()).count()
    }

    /// Number of edges (total fanin connections).
    pub fn edge_count(&self) -> usize {
        self.fanins.iter().map(Vec::len).sum()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The kind of a node.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.index()].kind
    }

    /// Ordered fanins (driving nodes, by pin index).
    pub fn fanins(&self, id: NodeId) -> &[NodeId] {
        &self.fanins[id.index()]
    }

    /// Fanouts (driven nodes, unordered).
    pub fn fanouts(&self, id: NodeId) -> &[NodeId] {
        &self.fanouts[id.index()]
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// Ids of all primary inputs, in insertion order.
    pub fn primary_inputs(&self) -> Vec<NodeId> {
        self.filter_ids(|k| k == NodeKind::PrimaryInput)
    }

    /// Ids of all primary outputs, in insertion order.
    pub fn primary_outputs(&self) -> Vec<NodeId> {
        self.filter_ids(|k| k == NodeKind::PrimaryOutput)
    }

    /// Ids of all DFFs, in insertion order. These are the paper's "anchor
    /// points" (Fig. 1c).
    pub fn dffs(&self) -> Vec<NodeId> {
        self.filter_ids(|k| k.is_dff())
    }

    fn filter_ids(&self, pred: impl Fn(NodeKind) -> bool) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&id| pred(self.nodes[id.index()].kind))
            .collect()
    }

    /// Looks a node up by name (first node added under that name wins).
    ///
    /// A linear scan: the netlist keeps no name index, so callers that
    /// never look names up, such as the Verilog parser, pay nothing for one.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(NodeId::new)
    }

    /// Rewires pin `pin` of `node` to be driven by `new_src`.
    ///
    /// Used by synthesis to patch DFF feedback loops (the D input is only
    /// known after the next-state logic is built) and by optimization passes.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNode`] if `node` or `new_src` is out of
    /// bounds, or [`NetlistError::PinCountMismatch`] if `pin` is not a valid
    /// pin of `node`.
    pub fn replace_fanin(
        &mut self,
        node: NodeId,
        pin: usize,
        new_src: NodeId,
    ) -> Result<(), NetlistError> {
        if node.index() >= self.nodes.len() {
            return Err(NetlistError::UnknownNode(node.index()));
        }
        if new_src.index() >= self.nodes.len() {
            return Err(NetlistError::UnknownNode(new_src.index()));
        }
        let kind = self.nodes[node.index()].kind;
        if pin >= self.fanins[node.index()].len() {
            return Err(NetlistError::PinCountMismatch {
                cell: match kind {
                    NodeKind::Cell(k) => k,
                    _ => CellKind::Buf,
                },
                expected: kind.input_count(),
                got: pin + 1,
            });
        }
        let old = self.fanins[node.index()][pin];
        // Remove exactly one fanout entry for the old driver.
        if let Some(p) = self.fanouts[old.index()].iter().position(|&x| x == node) {
            self.fanouts[old.index()].remove(p);
        }
        self.fanins[node.index()][pin] = new_src;
        self.fanouts[new_src.index()].push(node);
        Ok(())
    }

    /// Flattens the per-node fanin lists into one contiguous CSR arena.
    ///
    /// Compilers over the netlist (e.g. the compiled simulator's instruction
    /// lowering) iterate every node's fanins exactly once; the
    /// `Vec<Vec<NodeId>>` adjacency costs one pointer chase per node. The
    /// returned [`FaninArena`] stores all fanins back-to-back with a
    /// `node_count + 1` offset table, so a full sweep is a single linear
    /// scan.
    pub fn fanin_arena(&self) -> FaninArena {
        let mut offsets = Vec::with_capacity(self.nodes.len() + 1);
        let mut data = Vec::with_capacity(self.edge_count());
        offsets.push(0);
        for fi in &self.fanins {
            data.extend_from_slice(fi);
            offsets.push(data.len() as u32);
        }
        FaninArena { offsets, data }
    }

    /// Validates structural invariants: every node has the pin count its
    /// kind requires, every primary output has exactly one driver, and
    /// fanin/fanout lists are mutually consistent.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for id in self.node_ids() {
            let node = &self.nodes[id.index()];
            let expected = node.kind.input_count();
            let got = self.fanins[id.index()].len();
            if got != expected {
                return Err(NetlistError::DanglingPins {
                    node: id.index(),
                    name: node.name.clone(),
                    expected,
                    got,
                });
            }
            for &f in &self.fanins[id.index()] {
                if !self.fanouts[f.index()].contains(&id) {
                    return Err(NetlistError::InconsistentAdjacency {
                        from: f.index(),
                        to: id.index(),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Flat CSR view of every node's fanins (see [`Netlist::fanin_arena`]).
///
/// # Examples
///
/// ```
/// use moss_netlist::{CellKind, Netlist};
///
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let g = nl.add_cell(CellKind::And2, "u1", &[a, b])?;
/// let arena = nl.fanin_arena();
/// assert_eq!(arena.fanins(g), [a, b]);
/// # Ok::<(), moss_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FaninArena {
    offsets: Vec<u32>,
    data: Vec<NodeId>,
}

impl FaninArena {
    /// Ordered fanins of `id`, as a slice into the shared arena.
    pub fn fanins(&self, id: NodeId) -> &[NodeId] {
        let lo = self.offsets[id.index()] as usize;
        let hi = self.offsets[id.index() + 1] as usize;
        &self.data[lo..hi]
    }

    /// All fanin edges, concatenated in node-id order.
    pub fn flat(&self) -> &[NodeId] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Netlist, NodeId, NodeId, NodeId) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_cell(CellKind::And2, "u1", &[a, b]).unwrap();
        nl.add_output("y", g);
        (nl, a, b, g)
    }

    #[test]
    fn counts_and_queries() {
        let (nl, a, b, g) = tiny();
        assert_eq!(nl.node_count(), 4);
        assert_eq!(nl.cell_count(), 1);
        assert_eq!(nl.dff_count(), 0);
        assert_eq!(nl.edge_count(), 3);
        assert_eq!(nl.fanins(g), [a, b]);
        assert_eq!(nl.fanouts(a), [g]);
        assert_eq!(nl.primary_inputs(), vec![a, b]);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn fanin_arena_matches_adjacency() {
        let (nl, a, b, g) = tiny();
        let arena = nl.fanin_arena();
        for id in nl.node_ids() {
            assert_eq!(arena.fanins(id), nl.fanins(id), "node {id}");
        }
        assert_eq!(arena.fanins(g), [a, b]);
        assert_eq!(arena.flat().len(), nl.edge_count());
    }

    #[test]
    fn find_by_name() {
        let (nl, a, ..) = tiny();
        assert_eq!(nl.find("a"), Some(a));
        assert_eq!(nl.find("nope"), None);
    }

    #[test]
    fn find_returns_the_first_node_with_a_duplicated_name() {
        let mut nl = Netlist::new("t");
        let first = nl.add_input("x");
        let second = nl.add_cell(CellKind::Inv, "x", &[first]).unwrap();
        nl.add_output("x", second);
        assert_eq!(nl.find("x"), Some(first));
    }

    #[test]
    fn pin_count_mismatch_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let err = nl.add_cell(CellKind::Nand2, "u1", &[a]).unwrap_err();
        assert!(matches!(err, NetlistError::PinCountMismatch { .. }));
    }

    #[test]
    fn unknown_fanin_rejected() {
        let mut nl = Netlist::new("t");
        let err = nl
            .add_cell(CellKind::Inv, "u1", &[NodeId::new(7)])
            .unwrap_err();
        assert!(matches!(err, NetlistError::UnknownNode(7)));
    }

    #[test]
    fn replace_fanin_rewires_both_directions() {
        let (mut nl, a, b, g) = tiny();
        let c = nl.add_input("c");
        nl.replace_fanin(g, 0, c).unwrap();
        assert_eq!(nl.fanins(g), [c, b]);
        assert!(nl.fanouts(a).is_empty());
        assert_eq!(nl.fanouts(c), [g]);
        assert!(nl.validate().is_ok());
        let _ = a;
    }

    #[test]
    fn replace_fanin_rejects_bad_pin() {
        let (mut nl, a, _, g) = tiny();
        assert!(nl.replace_fanin(g, 5, a).is_err());
        assert!(nl.replace_fanin(NodeId::new(99), 0, a).is_err());
    }

    #[test]
    fn dffs_listed() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let q = nl.add_cell(CellKind::Dff, "r0", &[a]).unwrap();
        nl.add_output("y", q);
        assert_eq!(nl.dffs(), vec![q]);
        assert_eq!(nl.dff_count(), 1);
    }
}
