//! Netlist construction with constant folding, polarity literals and
//! structural hashing.
//!
//! Synthesis works over [`Bit`]s — either a known constant or a netlist node
//! with an optional negation. Negations are free until materialized (an
//! inverter is only instantiated when a positive-polarity node is actually
//! required), which is how NAND/NOR-preferred technology mapping falls out
//! naturally: `and(a, b)` creates a NAND2 and returns its *negated* literal.

use std::collections::HashMap;
use std::fmt::Write;

use moss_netlist::{CellKind, Netlist, NodeId};

/// A synthesized single-bit signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bit {
    /// A compile-time constant.
    Const(bool),
    /// A netlist node, possibly negated.
    Lit {
        /// The driving node.
        node: NodeId,
        /// Whether the value is the complement of the node's output.
        neg: bool,
    },
}

impl Bit {
    /// The constant zero.
    pub const ZERO: Bit = Bit::Const(false);
    /// The constant one.
    pub const ONE: Bit = Bit::Const(true);

    /// A positive literal for `node`.
    pub fn from_node(node: NodeId) -> Bit {
        Bit::Lit { node, neg: false }
    }

    /// The complement of this bit (free).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Bit {
        match self {
            Bit::Const(b) => Bit::Const(!b),
            Bit::Lit { node, neg } => Bit::Lit { node, neg: !neg },
        }
    }

    /// Whether this is a known constant.
    pub fn as_const(self) -> Option<bool> {
        match self {
            Bit::Const(b) => Some(b),
            Bit::Lit { .. } => None,
        }
    }
}

/// Technology-mapping style knobs; varying these produces *distinct*
/// netlists from the same RTL, as the paper's dataset generation does
/// ("applying multiple rounds of optimization", §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapStyle {
    /// Prefer NAND/NOR (inverting) cells over AND/OR.
    pub prefer_inverting: bool,
    /// Use AOI/OAI complex cells for majority/carry logic.
    pub use_complex_cells: bool,
    /// Use 3-input cells when folding reduction trees.
    pub use_wide_cells: bool,
    /// Build balanced reduction trees (vs. linear chains).
    pub balanced_trees: bool,
}

impl Default for MapStyle {
    fn default() -> Self {
        MapStyle {
            prefer_inverting: true,
            use_complex_cells: true,
            use_wide_cells: true,
            balanced_trees: true,
        }
    }
}

/// Pads a structural-hash key's unused fanin slots. A kind fixes its pin
/// count, so the padding never meets a real fanin at the same position.
const NO_PIN: NodeId = NodeId::new(u32::MAX as usize);

/// Builds a netlist with structural hashing and smart constructors.
#[derive(Debug)]
pub struct NetBuilder {
    netlist: Netlist,
    /// Structural hash: `(kind, fanins padded with NO_PIN)` → existing node.
    cache: HashMap<(CellKind, [NodeId; 3]), NodeId>,
    /// Cached materialized inverters per node.
    inverters: HashMap<NodeId, NodeId>,
    tie0: Option<NodeId>,
    tie1: Option<NodeId>,
    next_uid: u64,
    /// The name of the cell being added, reused across cells.
    name: String,
    /// Mapping style.
    pub style: MapStyle,
}

impl NetBuilder {
    /// Creates a builder for a new design.
    pub fn new(name: impl Into<String>, style: MapStyle) -> NetBuilder {
        NetBuilder {
            netlist: Netlist::new(name),
            cache: HashMap::new(),
            inverters: HashMap::new(),
            tie0: None,
            tie1: None,
            next_uid: 0,
            name: String::new(),
            style,
        }
    }

    /// Access to the netlist under construction.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Mutable access (used for DFF patching).
    pub fn netlist_mut(&mut self) -> &mut Netlist {
        &mut self.netlist
    }

    /// Consumes the builder, returning the netlist.
    pub fn finish(self) -> Netlist {
        self.netlist
    }

    /// Sets `self.name` to `<prefix><base, lowercased>_<uid>` with a fresh
    /// uid.
    fn fresh_name(&mut self, prefix: &str, base: &str) {
        let uid = self.next_uid;
        self.next_uid += 1;
        self.name.clear();
        self.name.push_str(prefix);
        self.name
            .extend(base.chars().map(|c| c.to_ascii_lowercase()));
        write!(self.name, "_{uid}").expect("writing to a String cannot fail");
    }

    /// Adds a primary input and returns its bit.
    pub fn input(&mut self, name: impl AsRef<str>) -> Bit {
        let id = self.netlist.add_input(name);
        Bit::from_node(id)
    }

    /// Drives a primary output from `bit` (materializing as needed).
    pub fn output(&mut self, name: impl AsRef<str>, bit: Bit) -> NodeId {
        let node = self.materialize(bit);
        self.netlist.add_output(name, node)
    }

    /// Instantiates (or reuses) a cell with the given fanins.
    pub fn cell(&mut self, kind: CellKind, fanins: &[NodeId]) -> NodeId {
        let mut pins = [NO_PIN; 3];
        pins[..fanins.len()].copy_from_slice(fanins);
        let key = (kind, pins);
        if let Some(&hit) = self.cache.get(&key) {
            return hit;
        }
        self.fresh_name("u_", kind.lib_name());
        let id = self
            .netlist
            .add_cell(kind, &self.name, fanins)
            .expect("builder supplies correct pin counts");
        self.cache.insert(key, id);
        id
    }

    /// Returns a node that outputs the value of `bit`, adding a tie cell or
    /// inverter if necessary.
    pub fn materialize(&mut self, bit: Bit) -> NodeId {
        match bit {
            Bit::Const(false) => self.tie(false),
            Bit::Const(true) => self.tie(true),
            Bit::Lit { node, neg: false } => node,
            Bit::Lit { node, neg: true } => {
                if let Some(&inv) = self.inverters.get(&node) {
                    return inv;
                }
                let inv = self.cell(CellKind::Inv, &[node]);
                self.inverters.insert(node, inv);
                inv
            }
        }
    }

    fn tie(&mut self, value: bool) -> NodeId {
        let slot = if value {
            &mut self.tie1
        } else {
            &mut self.tie0
        };
        if let Some(id) = *slot {
            return id;
        }
        let kind = if value {
            CellKind::Tie1
        } else {
            CellKind::Tie0
        };
        self.fresh_name("", if value { "tie1" } else { "tie0" });
        let id = self
            .netlist
            .add_cell(kind, &self.name, &[])
            .expect("tie cells have no pins");
        if value {
            self.tie1 = Some(id);
        } else {
            self.tie0 = Some(id);
        }
        id
    }

    // ---- smart constructors ----

    /// `a & b` with folding; maps to NAND2 (+free negation) or AND2
    /// depending on style.
    pub fn and2(&mut self, a: Bit, b: Bit) -> Bit {
        match (a.as_const(), b.as_const()) {
            (Some(false), _) | (_, Some(false)) => return Bit::ZERO,
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        if a == b.not() {
            return Bit::ZERO;
        }
        let (na, nb) = (self.materialize(a), self.materialize(b));
        let (na, nb) = if na <= nb { (na, nb) } else { (nb, na) };
        if self.style.prefer_inverting {
            Bit::from_node(self.cell(CellKind::Nand2, &[na, nb])).not()
        } else {
            Bit::from_node(self.cell(CellKind::And2, &[na, nb]))
        }
    }

    /// `a | b` with folding; maps to NOR2 or OR2.
    pub fn or2(&mut self, a: Bit, b: Bit) -> Bit {
        self.and2(a.not(), b.not()).not()
    }

    /// `a ^ b` with folding; maps to XOR2/XNOR2 absorbing negations.
    pub fn xor2(&mut self, a: Bit, b: Bit) -> Bit {
        match (a.as_const(), b.as_const()) {
            (Some(false), _) => return b,
            (Some(true), _) => return b.not(),
            (_, Some(false)) => return a,
            (_, Some(true)) => return a.not(),
            _ => {}
        }
        if a == b {
            return Bit::ZERO;
        }
        if a == b.not() {
            return Bit::ONE;
        }
        let (mut neg, na, nb) = match (a, b) {
            (Bit::Lit { node: x, neg: nx }, Bit::Lit { node: y, neg: ny }) => (nx ^ ny, x, y),
            _ => unreachable!("constants folded above"),
        };
        let (na, nb) = if na <= nb { (na, nb) } else { (nb, na) };
        // Canonicalize: build XOR2, flip polarity on the literal. Half the
        // time use an XNOR2 cell for diversity when the result is negated.
        let kind = if neg && !self.style.prefer_inverting {
            neg = false;
            CellKind::Xnor2
        } else {
            CellKind::Xor2
        };
        let lit = Bit::from_node(self.cell(kind, &[na, nb]));
        if neg {
            lit.not()
        } else {
            lit
        }
    }

    /// `sel ? t : f` with folding; maps to MUX2.
    pub fn mux2(&mut self, sel: Bit, t: Bit, f: Bit) -> Bit {
        if let Some(s) = sel.as_const() {
            return if s { t } else { f };
        }
        if t == f {
            return t;
        }
        if t.as_const() == Some(true) && f.as_const() == Some(false) {
            return sel;
        }
        if t.as_const() == Some(false) && f.as_const() == Some(true) {
            return sel.not();
        }
        // mux(s, t, 0) = s & t ; mux(s, 1, f) = s | f ; etc.
        if f.as_const() == Some(false) {
            return self.and2(sel, t);
        }
        if f.as_const() == Some(true) {
            return self.or2(sel.not(), t);
        }
        if t.as_const() == Some(false) {
            return self.and2(sel.not(), f);
        }
        if t.as_const() == Some(true) {
            return self.or2(sel, f);
        }
        let (ns, nt, nf) = (
            self.materialize(sel),
            self.materialize(t),
            self.materialize(f),
        );
        Bit::from_node(self.cell(CellKind::Mux2, &[nf, nt, ns]))
    }

    /// Majority of three: `(a&b) | (b&c) | (a&c)` — the carry function.
    /// Uses an AOI21 when the style allows: `maj = !aoi21(a, b, c&(a^b))`
    /// is *not* the identity used; instead we expand
    /// `maj(a,b,c) = (a&b) | (c&(a|b))` and map the outer OR-of-ANDs with
    /// AOI21 + INV.
    pub fn maj3(&mut self, a: Bit, b: Bit, c: Bit) -> Bit {
        // Constant folds.
        if let Some(v) = a.as_const() {
            return if v { self.or2(b, c) } else { self.and2(b, c) };
        }
        if let Some(v) = b.as_const() {
            return if v { self.or2(a, c) } else { self.and2(a, c) };
        }
        if let Some(v) = c.as_const() {
            return if v { self.or2(a, b) } else { self.and2(a, b) };
        }
        if self.style.use_complex_cells {
            // maj = (a&b) | (c & (a|b)) ; AOI21(x,y,z) = !((x&y)|z).
            let aorb = self.or2(a, b);
            let inner = self.and2(c, aorb);
            let (na, nb, ni) = (
                self.materialize(a),
                self.materialize(b),
                self.materialize(inner),
            );
            let (na, nb) = if na <= nb { (na, nb) } else { (nb, na) };
            Bit::from_node(self.cell(CellKind::Aoi21, &[na, nb, ni])).not()
        } else {
            let ab = self.and2(a, b);
            let aorb = self.or2(a, b);
            let cab = self.and2(c, aorb);
            self.or2(ab, cab)
        }
    }

    /// Full adder: returns `(sum, carry_out)`.
    pub fn full_adder(&mut self, a: Bit, b: Bit, cin: Bit) -> (Bit, Bit) {
        let axb = self.xor2(a, b);
        let sum = self.xor2(axb, cin);
        let carry = self.maj3(a, b, cin);
        (sum, carry)
    }

    /// N-ary AND via a tree (balanced or linear per style); uses 3-input
    /// cells when enabled.
    pub fn and_tree(&mut self, bits: &[Bit]) -> Bit {
        self.tree(bits, Bit::ONE, |b, x, y| b.and2(x, y), CellKind::Nand3)
    }

    /// N-ary OR via a tree.
    pub fn or_tree(&mut self, bits: &[Bit]) -> Bit {
        self.tree(bits, Bit::ZERO, |b, x, y| b.or2(x, y), CellKind::Nor3)
    }

    /// N-ary XOR via a tree.
    pub fn xor_tree(&mut self, bits: &[Bit]) -> Bit {
        self.tree(bits, Bit::ZERO, |b, x, y| b.xor2(x, y), CellKind::Xor2)
    }

    fn tree(
        &mut self,
        bits: &[Bit],
        identity: Bit,
        op: fn(&mut NetBuilder, Bit, Bit) -> Bit,
        wide_kind: CellKind,
    ) -> Bit {
        match bits.len() {
            0 => identity,
            1 => bits[0],
            2 => op(self, bits[0], bits[1]),
            3 if self.style.use_wide_cells
                && matches!(wide_kind, CellKind::Nand3 | CellKind::Nor3)
                && bits.iter().all(|b| b.as_const().is_none()) =>
            {
                let nodes: Vec<NodeId> = bits.iter().map(|&b| self.materialize(b)).collect();
                let mut sorted = nodes.clone();
                sorted.sort();
                Bit::from_node(self.cell(wide_kind, &sorted)).not()
            }
            _ if self.style.balanced_trees => {
                let mid = bits.len() / 2;
                let l = self.tree(&bits[..mid], identity, op, wide_kind);
                let r = self.tree(&bits[mid..], identity, op, wide_kind);
                op(self, l, r)
            }
            _ => {
                let mut acc = bits[0];
                for &b in &bits[1..] {
                    acc = op(self, acc, b);
                }
                acc
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder() -> NetBuilder {
        NetBuilder::new("t", MapStyle::default())
    }

    #[test]
    fn constant_folding() {
        let mut b = builder();
        let a = b.input("a");
        assert_eq!(b.and2(a, Bit::ZERO), Bit::ZERO);
        assert_eq!(b.and2(a, Bit::ONE), a);
        assert_eq!(b.or2(a, Bit::ONE), Bit::ONE);
        assert_eq!(b.xor2(a, Bit::ZERO), a);
        assert_eq!(b.xor2(a, Bit::ONE), a.not());
        assert_eq!(b.xor2(a, a), Bit::ZERO);
        assert_eq!(b.and2(a, a.not()), Bit::ZERO);
        assert_eq!(b.netlist().cell_count(), 0, "no cells for folded logic");
    }

    #[test]
    fn structural_hashing_shares_nodes() {
        let mut b = builder();
        let x = b.input("x");
        let y = b.input("y");
        let g1 = b.and2(x, y);
        let g2 = b.and2(x, y);
        let g3 = b.and2(y, x); // commutative canonicalization
        assert_eq!(g1, g2);
        assert_eq!(g1, g3);
        assert_eq!(b.netlist().cell_count(), 1);
    }

    #[test]
    fn nand_preferred_mapping() {
        let mut b = builder();
        let x = b.input("x");
        let y = b.input("y");
        let g = b.and2(x, y);
        // NAND2 with negated literal.
        assert!(matches!(g, Bit::Lit { neg: true, .. }));
        b.output("o", g);
        // Materializing the negated NAND output requires one inverter.
        assert_eq!(b.netlist().cell_count(), 2);
    }

    #[test]
    fn double_negation_costs_nothing() {
        let mut b = builder();
        let x = b.input("x");
        let y = b.input("y");
        let g = b.and2(x, y); // !nand
        let gn = g.not(); // nand literal again
        b.output("o", gn);
        assert_eq!(b.netlist().cell_count(), 1, "only the NAND2 itself");
    }

    #[test]
    fn full_adder_truth_table_via_eval() {
        // Structural check: fa produces expected constants when fed consts.
        let mut b = builder();
        for a in [false, true] {
            for bb in [false, true] {
                for c in [false, true] {
                    let (s, co) = b.full_adder(Bit::Const(a), Bit::Const(bb), Bit::Const(c));
                    let total = a as u8 + bb as u8 + c as u8;
                    assert_eq!(s.as_const(), Some(total & 1 == 1));
                    assert_eq!(co.as_const(), Some(total >= 2));
                }
            }
        }
    }

    #[test]
    fn trees_fold_and_build() {
        let mut b = builder();
        let bits: Vec<Bit> = (0..5).map(|i| b.input(format!("i{i}"))).collect();
        let a = b.and_tree(&bits);
        assert!(a.as_const().is_none());
        assert_eq!(b.and_tree(&[]), Bit::ONE);
        assert_eq!(b.or_tree(&[]), Bit::ZERO);
        assert_eq!(b.and_tree(&[bits[0]]), bits[0]);
    }

    #[test]
    fn mux_folds() {
        let mut b = builder();
        let s = b.input("s");
        let x = b.input("x");
        assert_eq!(b.mux2(Bit::ONE, x, s), x);
        assert_eq!(b.mux2(Bit::ZERO, x, s), s);
        assert_eq!(b.mux2(s, x, x), x);
        assert_eq!(b.mux2(s, Bit::ONE, Bit::ZERO), s);
        assert_eq!(b.mux2(s, Bit::ZERO, Bit::ONE), s.not());
    }

    #[test]
    fn tie_cells_are_shared() {
        let mut b = builder();
        b.output("o1", Bit::ZERO);
        b.output("o2", Bit::ZERO);
        b.output("o3", Bit::ONE);
        assert_eq!(b.netlist().cell_count(), 2, "one tie0 + one tie1");
    }

    #[test]
    fn maj3_with_constants() {
        let mut b = builder();
        let x = b.input("x");
        let y = b.input("y");
        let m = b.maj3(x, y, Bit::ZERO);
        // maj(x,y,0) = x&y → same node as and2.
        assert_eq!(m, b.and2(x, y));
    }
}
