//! The netlist graph: nodes, ordered pin connections, and structural queries.
//!
//! A netlist is a directed graph `G = (V, E)` (paper §III) whose nodes are
//! primary inputs/outputs and standard cells, and whose edges carry a pin
//! index — pin order matters because different inputs of a gate have
//! different electrical and logical roles (the paper encodes this with edge
//! positional encoding, §IV-B).
//!
//! Storage is flat: a node's kind and its at most three fanins sit inline
//! in one fixed-size record, all names share one string, and only the
//! unbounded fanout lists are vectors of their own. [`Netlist::node`]
//! returns a [`Node`] view that borrows its name from that string.

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
    pub const fn new(index: usize) -> NodeId {
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

/// A node as [`Netlist::node`] returns it: its kind plus its instance
/// name, borrowed from the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node<'a> {
    kind: NodeKind,
    name: &'a str,
}

impl<'a> Node<'a> {
    /// The node's kind.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// The instance (or port) name.
    pub fn name(&self) -> &'a str {
        self.name
    }
}

/// Most fanins any node has: the three-input cells.
const MAX_FANINS: usize = 3;

/// One node's fixed-size record: its kind and its fanins, inline.
#[derive(Debug, Clone, Copy)]
struct Slot {
    kind: NodeKind,
    /// How many leading entries of `fanins` are connected.
    fanin_count: u8,
    fanins: [NodeId; MAX_FANINS],
}

impl Slot {
    fn fanins(&self) -> &[NodeId] {
        &self.fanins[..usize::from(self.fanin_count)]
    }

    /// The cell to name in a [`NetlistError::PinCountMismatch`] about
    /// this node (ports report `Buf`, the one-pin stand-in).
    fn mismatch_cell(&self) -> CellKind {
        match self.kind {
            NodeKind::Cell(k) => k,
            _ => CellKind::Buf,
        }
    }
}

/// A standard-cell netlist.
///
/// Adding a node allocates nothing but its fanout list's growth (see the
/// module docs for the storage).
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
/// assert_eq!(nl.node(g).name(), "u1");
/// # Ok::<(), moss_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    slots: Vec<Slot>,
    /// Every node's name, back to back in id order.
    names: String,
    /// Where each node's name ends in `names`; it starts where the
    /// previous node's ends.
    name_ends: Vec<usize>,
    fanouts: Vec<Vec<NodeId>>,
}

impl Netlist {
    /// Creates an empty netlist with a design name.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist::with_capacity(name, 0, 0)
    }

    /// An empty netlist with room for `nodes` nodes whose names total
    /// `name_bytes` bytes.
    pub(crate) fn with_capacity(
        name: impl Into<String>,
        nodes: usize,
        name_bytes: usize,
    ) -> Netlist {
        Netlist {
            name: name.into(),
            slots: Vec::with_capacity(nodes),
            names: String::with_capacity(name_bytes),
            name_ends: Vec::with_capacity(nodes),
            fanouts: Vec::with_capacity(nodes),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn push_node(&mut self, kind: NodeKind, name: &str, fanins: &[NodeId]) -> NodeId {
        let id = NodeId::new(self.slots.len());
        // Callers pass at most a cell's pin count, which is at most three.
        let mut inline = [NodeId(0); MAX_FANINS];
        inline[..fanins.len()].copy_from_slice(fanins);
        self.slots.push(Slot {
            kind,
            fanin_count: fanins.len() as u8,
            fanins: inline,
        });
        self.names.push_str(name);
        self.name_ends.push(self.names.len());
        self.fanouts.push(Vec::new());
        for &f in fanins {
            self.fanouts[f.index()].push(id);
        }
        id
    }

    /// Adds a primary input port.
    pub fn add_input(&mut self, name: impl AsRef<str>) -> NodeId {
        self.push_node(NodeKind::PrimaryInput, name.as_ref(), &[])
    }

    /// Adds a primary output port driven by `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of bounds.
    pub fn add_output(&mut self, name: impl AsRef<str>, src: NodeId) -> NodeId {
        assert!(src.index() < self.slots.len(), "source {src} out of bounds");
        self.push_node(NodeKind::PrimaryOutput, name.as_ref(), &[src])
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
        name: impl AsRef<str>,
        fanins: &[NodeId],
    ) -> Result<NodeId, NetlistError> {
        if fanins.len() != kind.input_count() {
            return Err(NetlistError::PinCountMismatch {
                cell: kind,
                expected: kind.input_count(),
                got: fanins.len(),
            });
        }
        if let Some(f) = fanins.iter().find(|f| f.index() >= self.slots.len()) {
            return Err(NetlistError::UnknownNode(f.index()));
        }
        Ok(self.push_node(NodeKind::Cell(kind), name.as_ref(), fanins))
    }

    /// Adds a standard cell with no fanins connected yet.
    ///
    /// Parser-internal: the Verilog elaborator creates all instances first
    /// (nets may be driven after their first use, and DFFs form cycles) and
    /// then attaches pins in order via [`Netlist::connect_pin`]. The node is
    /// invalid until all pins are connected; [`Netlist::validate`] reports
    /// it as [`NetlistError::DanglingPins`] until then.
    pub(crate) fn add_cell_unconnected(&mut self, kind: CellKind, name: &str) -> NodeId {
        self.push_node(NodeKind::Cell(kind), name, &[])
    }

    /// Connects the next unconnected pin of `node` to `src`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNode`] if either id is out of bounds,
    /// or [`NetlistError::PinCountMismatch`] if every pin of `node` is
    /// already connected.
    pub(crate) fn connect_pin(&mut self, node: NodeId, src: NodeId) -> Result<(), NetlistError> {
        if node.index() >= self.slots.len() {
            return Err(NetlistError::UnknownNode(node.index()));
        }
        if src.index() >= self.slots.len() {
            return Err(NetlistError::UnknownNode(src.index()));
        }
        let slot = &mut self.slots[node.index()];
        let expected = slot.kind.input_count();
        let got = usize::from(slot.fanin_count);
        if got >= expected {
            return Err(NetlistError::PinCountMismatch {
                cell: slot.mismatch_cell(),
                expected,
                got: got + 1,
            });
        }
        slot.fanins[got] = src;
        slot.fanin_count += 1;
        self.fanouts[src.index()].push(node);
        Ok(())
    }

    /// Total node count including ports.
    pub fn node_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of standard cells (combinational + DFF), excluding ports.
    pub fn cell_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s.kind, NodeKind::Cell(_)))
            .count()
    }

    /// Number of DFFs.
    pub fn dff_count(&self) -> usize {
        self.slots.iter().filter(|s| s.kind.is_dff()).count()
    }

    /// Number of edges (total fanin connections).
    pub fn edge_count(&self) -> usize {
        self.slots.iter().map(|s| usize::from(s.fanin_count)).sum()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn node(&self, id: NodeId) -> Node<'_> {
        let i = id.index();
        let start = if i == 0 { 0 } else { self.name_ends[i - 1] };
        Node {
            kind: self.slots[i].kind,
            name: &self.names[start..self.name_ends[i]],
        }
    }

    /// Every node's name, in id order.
    pub(crate) fn names(&self) -> impl Iterator<Item = &str> + '_ {
        let mut start = 0;
        self.name_ends.iter().map(move |&end| {
            let name = &self.names[start..end];
            start = end;
            name
        })
    }

    /// The length of all node names together, in bytes.
    pub(crate) fn name_bytes(&self) -> usize {
        self.names.len()
    }

    /// The kind of a node.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.slots[id.index()].kind
    }

    /// Ordered fanins (driving nodes, by pin index).
    pub fn fanins(&self, id: NodeId) -> &[NodeId] {
        self.slots[id.index()].fanins()
    }

    /// Fanouts (driven nodes, unordered).
    pub fn fanouts(&self, id: NodeId) -> &[NodeId] {
        &self.fanouts[id.index()]
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.slots.len()).map(NodeId::new)
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
            .filter(|&id| pred(self.slots[id.index()].kind))
            .collect()
    }

    /// Looks a node up by name (first node added under that name wins).
    ///
    /// A linear scan: the netlist keeps no name index, so callers that
    /// never look names up, such as the Verilog parser, pay nothing for one.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.names().position(|n| n == name).map(NodeId::new)
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
        if node.index() >= self.slots.len() {
            return Err(NetlistError::UnknownNode(node.index()));
        }
        if new_src.index() >= self.slots.len() {
            return Err(NetlistError::UnknownNode(new_src.index()));
        }
        let slot = &mut self.slots[node.index()];
        if pin >= usize::from(slot.fanin_count) {
            return Err(NetlistError::PinCountMismatch {
                cell: slot.mismatch_cell(),
                expected: slot.kind.input_count(),
                got: pin + 1,
            });
        }
        let old = std::mem::replace(&mut slot.fanins[pin], new_src);
        // Remove exactly one fanout entry for the old driver.
        if let Some(p) = self.fanouts[old.index()].iter().position(|&x| x == node) {
            self.fanouts[old.index()].remove(p);
        }
        self.fanouts[new_src.index()].push(node);
        Ok(())
    }

    /// Flattens every node's fanins into one contiguous CSR arena.
    ///
    /// Compilers over the netlist (e.g. the compiled simulator's instruction
    /// lowering) iterate every node's fanins exactly once. The returned
    /// [`FaninArena`] stores all fanins back-to-back with a
    /// `node_count + 1` offset table, so a full sweep is a single linear
    /// scan with no unused pin entries in it.
    pub fn fanin_arena(&self) -> FaninArena {
        let mut offsets = Vec::with_capacity(self.slots.len() + 1);
        let mut data = Vec::with_capacity(self.edge_count());
        offsets.push(0);
        for slot in &self.slots {
            data.extend_from_slice(slot.fanins());
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
        for (id, slot) in self.node_ids().zip(&self.slots) {
            let expected = slot.kind.input_count();
            let got = usize::from(slot.fanin_count);
            if got != expected {
                return Err(NetlistError::DanglingPins {
                    node: id.index(),
                    name: self.node(id).name().to_owned(),
                    expected,
                    got,
                });
            }
            for &f in slot.fanins() {
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
    fn three_input_cells_keep_their_pins_inline() {
        let mut nl = Netlist::new("t");
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| nl.add_input(n));
        let mux = nl.add_cell(CellKind::Mux2, "m", &[a, b, c]).unwrap();
        assert_eq!(nl.fanins(mux), [a, b, c]);
        let err = nl
            .add_cell(CellKind::Mux2, "m2", &[a, b, c, d])
            .unwrap_err();
        assert_eq!(
            err,
            NetlistError::PinCountMismatch {
                cell: CellKind::Mux2,
                expected: 3,
                got: 4
            }
        );

        let aoi = nl.add_cell_unconnected(CellKind::Aoi21, "g");
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::DanglingPins { got: 0, .. })
        ));
        for src in [a, b, c] {
            nl.connect_pin(aoi, src).unwrap();
        }
        assert_eq!(nl.fanins(aoi), [a, b, c]);
        assert_eq!(
            nl.connect_pin(aoi, d).unwrap_err(),
            NetlistError::PinCountMismatch {
                cell: CellKind::Aoi21,
                expected: 3,
                got: 4
            }
        );
        assert_eq!(nl.fanins(aoi), [a, b, c], "a refused pin changes nothing");
        assert!(nl.fanouts(d).is_empty());
        nl.add_output("y", aoi);
        assert!(nl.validate().is_ok());
        assert_eq!(nl.edge_count(), 3 + 3 + 1);
    }

    #[test]
    fn replace_fanin_on_the_third_pin_moves_one_fanout_entry() {
        let mut nl = Netlist::new("t");
        let [a, b, s, s2] = ["a", "b", "s", "s2"].map(|n| nl.add_input(n));
        let m = nl.add_cell(CellKind::Mux2, "m", &[a, b, s]).unwrap();
        // `s` drives two pins of `n`; rewiring one leaves the other.
        let n = nl.add_cell(CellKind::Nand3, "n", &[s, a, s]).unwrap();
        nl.replace_fanin(m, 2, s2).unwrap();
        assert_eq!(nl.fanins(m), [a, b, s2]);
        assert_eq!(nl.fanouts(s), [n, n]);
        assert_eq!(nl.fanouts(s2), [m]);
        nl.replace_fanin(n, 2, s2).unwrap();
        assert_eq!(nl.fanins(n), [s, a, s2]);
        assert_eq!(nl.fanouts(s), [n]);
        assert_eq!(nl.fanouts(s2), [m, n]);
        assert!(nl.validate().is_ok());
        assert!(matches!(
            nl.replace_fanin(m, 3, a),
            Err(NetlistError::PinCountMismatch {
                cell: CellKind::Mux2,
                expected: 3,
                got: 4
            })
        ));
    }

    #[test]
    fn edge_count_fanin_arena_and_clone_see_the_same_graph() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let t = nl.add_cell(CellKind::Tie1, "t", &[]).unwrap();
        let g = nl.add_cell(CellKind::Oai21, "g", &[a, b, t]).unwrap();
        let q = nl.add_cell(CellKind::Dff, "q", &[g]).unwrap();
        nl.add_output("y", q);
        assert_eq!(nl.edge_count(), 3 + 1 + 1);
        let arena = nl.fanin_arena();
        assert_eq!(arena.flat(), [a, b, t, g, q]);
        assert!(arena.fanins(t).is_empty());
        assert_eq!(arena.fanins(g), [a, b, t]);

        let copy = nl.clone();
        nl.replace_fanin(g, 0, b).unwrap();
        assert_eq!(copy.fanins(g), [a, b, t], "a clone owns its storage");
        assert_eq!(copy.fanouts(a), [g]);
        assert_eq!(nl.fanouts(a), []);
        for id in copy.node_ids() {
            assert_eq!(copy.node(id), nl.node(id));
        }
        assert_eq!(copy.edge_count(), nl.edge_count());
    }

    #[test]
    fn escaped_and_multibyte_names_come_back_whole() {
        let names = ["q[0]", "é", "a.b\\c", "", "日本", "q[0]x", "x"];
        let mut nl = Netlist::new("t");
        let ids: Vec<NodeId> = names.iter().map(|n| nl.add_input(n)).collect();
        for (&id, &name) in ids.iter().zip(&names) {
            assert_eq!(nl.node(id).name(), name);
            assert_eq!(nl.node(id).kind(), NodeKind::PrimaryInput);
            assert_eq!(nl.find(name), Some(id), "{name:?}");
        }
        assert_eq!(nl.find("q["), None);
        assert_eq!(nl.find("日"), None);
        // A name that spans two neighbours in the shared store is no name.
        assert_eq!(nl.find("q[0]q[0]x"), None);
        // Owned and borrowed names are accepted alike.
        let owned = nl.add_input(String::from("ü"));
        assert_eq!(nl.node(owned).name(), "ü");
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
