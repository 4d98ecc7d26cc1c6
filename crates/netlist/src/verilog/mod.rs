//! Structural (gate-level) Verilog export and import — the interchange
//! format a Design-Compiler-style flow writes and downstream signoff tools
//! read. Round-tripping through this format is property-tested against the
//! simulator.
//!
//! The frontend is a real tokenizer + recursive-descent parser (see
//! [`token`], [`parser`]) followed by an elaborator that enforces netlist
//! semantics: every net declared, at most one driver per net, every pin
//! connected exactly once. Failures are typed [`ParseError`]s carrying the
//! 1-based line/column and expected-vs-found.
//!
//! Parsing costs bytes, not allocations: the parser pulls one token at a
//! time from a cursor over the source and builds no token list; the AST
//! borrows every name from the source and carries byte offsets (lines
//! and columns are computed only for an error); and the elaborator
//! resolves names through a single namespace table, sizes the netlist
//! from the AST's counts up front, and maps cell and pin names with a
//! `match`. The netlist keeps fanins inline and every node name in one
//! shared string, so apart from error messages and the DFF clock nets no
//! string is allocated per name, and a node's only allocation is its
//! fanout list.
//!
//! Accepted surface (DESIGN.md §14 has the full grammar):
//!
//! - `//` and `/* */` comments;
//! - ANSI (`module m (input a, output y);`) and non-ANSI
//!   (`module m (a, y); input a; output y;`) port declarations;
//! - multi-name declarations `wire n1, n2, n3;`;
//! - escaped identifiers `\q[0] ` (how synthesized bus bits round-trip);
//! - constant pin connections and assigns with `1'b0` / `1'b1`, elaborated
//!   to `TIEL_X1`/`TIEH_X1` cells;
//! - optional `.CK`/`.RN`/`.SN` control pins on `DFF_X1` instances,
//!   surfaced as [`ParsedDff`] metadata rather than graph edges.

mod error;
mod parser;
mod token;

pub use error::{ParseError, ParseErrorKind};

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use crate::cell::CellKind;
use crate::error::NetlistError;
use crate::graph::{Netlist, NodeId, NodeKind};

use parser::{parse_source, Ast, Dir, Item, Name, NetRef};
use token::error_at;

/// Pin names per cell kind, in the same order as the netlist's fanins.
fn pin_names(kind: CellKind) -> &'static [&'static str] {
    if kind.is_sequential() {
        return &["D"];
    }
    match kind.input_count() {
        0 => &[],
        1 => &["A"],
        2 => &["A", "B"],
        _ if kind == CellKind::Mux2 => &["A", "B", "S"],
        _ => &["A", "B", "C"],
    }
}

fn output_pin(kind: CellKind) -> &'static str {
    if kind.is_sequential() {
        "Q"
    } else {
        "Y"
    }
}

/// Optional control pins accepted (and recorded, not graphed) on DFFs.
const DFF_CONTROL_PINS: [&str; 3] = ["CK", "RN", "SN"];

/// An instance's pin slots: its data inputs in [`pin_names`] order
/// (at most three), then its output, then the [`DFF_CONTROL_PINS`].
const OUT: usize = 3;
const CONTROL: usize = OUT + 1;
const RN: usize = CONTROL + 1;
const SN: usize = CONTROL + 2;
const SLOTS: usize = CONTROL + DFF_CONTROL_PINS.len();
/// An empty pin slot.
const UNCONNECTED: usize = usize::MAX;

/// The library cell named `name`: the inverse of [`CellKind::lib_name`].
fn cell_kind(name: &str) -> Option<CellKind> {
    Some(match name {
        "INV_X1" => CellKind::Inv,
        "BUF_X1" => CellKind::Buf,
        "NAND2_X1" => CellKind::Nand2,
        "NAND3_X1" => CellKind::Nand3,
        "NOR2_X1" => CellKind::Nor2,
        "NOR3_X1" => CellKind::Nor3,
        "AND2_X1" => CellKind::And2,
        "AND3_X1" => CellKind::And3,
        "OR2_X1" => CellKind::Or2,
        "OR3_X1" => CellKind::Or3,
        "XOR2_X1" => CellKind::Xor2,
        "XNOR2_X1" => CellKind::Xnor2,
        "AOI21_X1" => CellKind::Aoi21,
        "OAI21_X1" => CellKind::Oai21,
        "MUX2_X1" => CellKind::Mux2,
        "TIEL_X1" => CellKind::Tie0,
        "TIEH_X1" => CellKind::Tie1,
        "DFF_X1" => CellKind::Dff,
        _ => return None,
    })
}

/// The slot of pin `pin` on a `kind` cell, or `None` if it has no such
/// pin: the [`pin_names`] index of a data input, [`OUT`] for the output,
/// and the [`DFF_CONTROL_PINS`] slots on a DFF.
fn pin_slot(kind: CellKind, pin: &str) -> Option<usize> {
    if kind.is_sequential() {
        return match pin {
            "D" => Some(0),
            "Q" => Some(OUT),
            "CK" => Some(CONTROL),
            "RN" => Some(RN),
            "SN" => Some(SN),
            _ => None,
        };
    }
    let inputs = kind.input_count();
    match pin {
        "Y" => Some(OUT),
        "A" if inputs >= 1 => Some(0),
        "B" if inputs >= 2 => Some(1),
        "C" if inputs == 3 && kind != CellKind::Mux2 => Some(2),
        "S" if kind == CellKind::Mux2 => Some(2),
        _ => None,
    }
}

/// How a parsed DFF initializes, derived from its reset-style control pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DffReset {
    /// No `RN`/`SN` pin: the flop powers up at 0 by convention.
    Implicit,
    /// An active-low reset pin (`.RN(...)`): clears to 0.
    ActiveLowReset,
    /// An active-low set pin (`.SN(...)`): presets to 1.
    ActiveLowSet,
}

impl DffReset {
    /// The register value this reset style establishes.
    pub fn initial_value(self) -> bool {
        matches!(self, DffReset::ActiveLowSet)
    }
}

/// Sequential metadata recovered from one `DFF_X1` instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedDff {
    /// The DFF's node in the parsed netlist.
    pub node: NodeId,
    /// The net connected to `.CK(...)`, when present.
    pub clock: Option<String>,
    /// Reset style derived from `.RN`/`.SN`.
    pub reset: DffReset,
}

/// A parsed module: the netlist graph plus the sequential metadata
/// (clock/reset bindings) that the graph itself does not carry.
#[derive(Debug, Clone)]
pub struct VerilogDesign {
    /// The elaborated netlist.
    pub netlist: Netlist,
    /// Per-DFF clock/reset info, in instantiation order.
    pub dffs: Vec<ParsedDff>,
}

/// Parses structural Verilog into a netlist.
///
/// Equivalent to [`parse_verilog_design`] with the sequential metadata
/// dropped.
///
/// # Errors
///
/// Returns [`NetlistError::Verilog`] wrapping a positioned [`ParseError`].
///
/// # Examples
///
/// ```
/// use moss_netlist::parse_verilog;
///
/// let nl = parse_verilog(
///     "module m (input a, output y);
///        wire n; // inverted
///        INV_X1 u1 (.A(a), .Y(n));
///        assign y = n;
///      endmodule",
/// )?;
/// assert_eq!(nl.cell_count(), 1);
/// # Ok::<(), moss_netlist::NetlistError>(())
/// ```
pub fn parse_verilog(src: &str) -> Result<Netlist, NetlistError> {
    parse_verilog_design(src).map(|d| d.netlist)
}

/// Parses structural Verilog, keeping per-DFF clock/reset metadata.
///
/// # Errors
///
/// Returns [`NetlistError::Verilog`] wrapping a positioned [`ParseError`].
pub fn parse_verilog_design(src: &str) -> Result<VerilogDesign, NetlistError> {
    let ast = parse_source(src)?;
    Elaborator::new(src, &ast).run()
}

/// What currently drives a net.
#[derive(Debug, Clone, Copy)]
enum Driver {
    /// Nothing yet.
    None,
    /// A netlist node: a primary input, or a cell's output pin.
    Node(NodeId),
    /// The `assign` at this index of [`Elaborator::assigns`], resolved
    /// lazily, with cycle detection, because assigns may chain through
    /// output ports.
    Assign(usize),
}

/// What a name in the module's namespace was declared as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decl {
    /// The port at this index of the port list.
    Port(usize),
    Wire,
    Instance,
}

#[derive(Debug)]
struct Symbol {
    decl: Decl,
    /// Meaningful for ports and wires, the module's nets.
    driver: Driver,
}

/// An `assign`'s right-hand side.
#[derive(Debug)]
struct Assign<'a> {
    rhs: NetRef<'a>,
    /// The last [`Elaborator::resolve`] call that followed this assign,
    /// for cycle detection.
    visited: usize,
}

/// An instance's pin slots: each holds an index into [`Ast::pins`], or
/// [`UNCONNECTED`].
type Slots = [usize; SLOTS];

/// Elaborates an AST into a netlist under single-driver semantics.
///
/// Verilog modules have a single declaration namespace: ports, wires, and
/// instance names may not collide. Every name is looked up in one table,
/// and each instance's pins land in fixed slots.
struct Elaborator<'s, 'a> {
    src: &'a str,
    ast: &'s Ast<'a>,
    /// Every port, wire and instance name → its index in `symbols`. Ports
    /// come first, so port `i` is symbol `i`.
    names: HashMap<&'a str, usize>,
    symbols: Vec<Symbol>,
    assigns: Vec<Assign<'a>>,
    /// Each port's direction, from the port list or the body.
    port_dirs: Vec<Option<Dir>>,
    netlist: Netlist,
    /// The shared `TIEL_X1`/`TIEH_X1` cells, created on first use.
    ties: [Option<NodeId>; 2],
    /// How many [`Elaborator::resolve`] calls have started.
    resolves: usize,
}

impl<'s, 'a> Elaborator<'s, 'a> {
    fn new(src: &'a str, ast: &'s Ast<'a>) -> Elaborator<'s, 'a> {
        let capacity = ast.ports.len() + ast.decls.len() + ast.items.len();
        // Every port and instance becomes a node, and so may two ties
        // (`const0`/`const1`, uniquified).
        let nodes = ast.ports.len() + ast.items.len() + 2;
        let instance_names: usize = ast
            .items
            .iter()
            .map(|item| match item {
                Item::Instance { name, .. } => name.text.len(),
                Item::Assign { .. } => 0,
            })
            .sum();
        let port_names: usize = ast.ports.iter().map(|p| p.name.text.len()).sum();
        let name_bytes = port_names + instance_names + 2 * "const0_1".len();
        Elaborator {
            src,
            ast,
            names: HashMap::with_capacity(capacity),
            symbols: Vec::with_capacity(capacity),
            assigns: Vec::new(),
            port_dirs: ast.ports.iter().map(|p| p.dir).collect(),
            netlist: Netlist::with_capacity(ast.name, nodes, name_bytes),
            ties: [None; 2],
            resolves: 0,
        }
    }

    fn run(mut self) -> Result<VerilogDesign, NetlistError> {
        self.declare_ports_and_wires()?;
        // Primary inputs come first in the netlist, in port order.
        let ast = self.ast;
        for (i, p) in ast.ports.iter().enumerate() {
            if self.port_dirs[i] == Some(Dir::Input) {
                self.symbols[i].driver = Driver::Node(self.netlist.add_input(p.name.text));
            }
        }
        let first_cell = self.netlist.node_count();
        self.drive_nets()?;
        let dffs = self.connect_pins(first_cell)?;
        self.add_outputs()?;
        self.netlist.validate()?;
        Ok(VerilogDesign {
            netlist: self.netlist,
            dffs,
        })
    }

    fn fail(&self, at: usize, kind: ParseErrorKind) -> NetlistError {
        error_at(self.src, at, kind).into()
    }

    /// A `kind` error about `name` itself, positioned at it.
    fn name_error(&self, name: Name<'a>, kind: fn(String) -> ParseErrorKind) -> NetlistError {
        self.fail(name.at, kind(name.text.to_owned()))
    }

    /// Adds `name` to the namespace.
    fn declare(&mut self, name: Name<'a>, decl: Decl) -> Result<(), NetlistError> {
        let id = self.symbols.len();
        if *self.names.entry(name.text).or_insert(id) != id {
            return Err(self.name_error(name, |name| ParseErrorKind::Redeclared { name }));
        }
        self.symbols.push(Symbol {
            decl,
            driver: Driver::None,
        });
        Ok(())
    }

    /// The symbol of net `name`, if it is a declared port or wire.
    fn net(&self, name: &str) -> Option<usize> {
        self.names
            .get(name)
            .copied()
            .filter(|&s| self.symbols[s].decl != Decl::Instance)
    }

    /// Declares every port and wire and settles each port's direction.
    fn declare_ports_and_wires(&mut self) -> Result<(), NetlistError> {
        let ast = self.ast;
        for (i, p) in ast.ports.iter().enumerate() {
            self.declare(p.name, Decl::Port(i))?;
        }
        for &(dir, n) in &ast.decls {
            if dir == Dir::Wire {
                self.declare(n, Decl::Wire)?;
                continue;
            }
            let port = self
                .names
                .get(n.text)
                .and_then(|&s| match self.symbols[s].decl {
                    Decl::Port(i) => Some(i),
                    _ => None,
                });
            match port {
                Some(i) if self.port_dirs[i].is_none() => self.port_dirs[i] = Some(dir),
                _ => return Err(self.name_error(n, |port| ParseErrorKind::PortDirection { port })),
            }
        }
        match ast
            .ports
            .iter()
            .zip(&self.port_dirs)
            .find(|(_, d)| d.is_none())
        {
            Some((p, _)) => {
                Err(self.name_error(p.name, |port| ParseErrorKind::PortDirection { port }))
            }
            None => Ok(()),
        }
    }

    /// Records every assign and every instance output as its net's
    /// driver, in source order, and creates the (unconnected) cells, one
    /// per instance, in order.
    fn drive_nets(&mut self) -> Result<(), NetlistError> {
        for item in &self.ast.items {
            match item {
                Item::Assign { lhs, rhs } => self.assign(*lhs, *rhs)?,
                Item::Instance { cell, name, pins } => {
                    self.instance(*cell, *name, pins.clone())?;
                }
            }
        }
        Ok(())
    }

    fn assign(&mut self, lhs: Name<'a>, rhs: NetRef<'a>) -> Result<(), NetlistError> {
        let Some(s) = self.net(lhs.text) else {
            return Err(self.name_error(lhs, |net| ParseErrorKind::UndeclaredNet { net }));
        };
        let is_output_port =
            matches!(self.symbols[s].decl, Decl::Port(i) if self.port_dirs[i] == Some(Dir::Output));
        if !is_output_port {
            return Err(self.fail(
                lhs.at,
                ParseErrorKind::InvalidConnection {
                    message: format!(
                        "assign target '{}' is not an output port \
                         (this frontend only assigns outputs)",
                        lhs.text
                    ),
                },
            ));
        }
        if !matches!(self.symbols[s].driver, Driver::None) {
            return Err(self.name_error(lhs, |net| ParseErrorKind::MultipleDrivers { net }));
        }
        self.symbols[s].driver = Driver::Assign(self.assigns.len());
        self.assigns.push(Assign { rhs, visited: 0 });
        Ok(())
    }

    fn instance(
        &mut self,
        cell: Name<'a>,
        name: Name<'a>,
        conns: Range<usize>,
    ) -> Result<(), NetlistError> {
        let Some(kind) = cell_kind(cell.text) else {
            return Err(self.name_error(cell, |cell| ParseErrorKind::UnknownCell { cell }));
        };
        self.declare(name, Decl::Instance)?;
        let pins = self.slots(kind, conns)?;
        let out = output_pin(kind);
        let required = pin_names(kind).iter().enumerate();
        for (slot, pin) in required.chain(std::iter::once((OUT, &out))) {
            if pins[slot] == UNCONNECTED {
                return Err(self.fail(
                    name.at,
                    ParseErrorKind::MissingPin {
                        cell: kind.lib_name().to_owned(),
                        pin: (*pin).to_owned(),
                    },
                ));
            }
        }
        if pins[RN] != UNCONNECTED && pins[SN] != UNCONNECTED {
            return Err(self.fail(
                name.at,
                ParseErrorKind::InvalidConnection {
                    message: format!(
                        "instance '{}' connects both RN and SN \
                         (one reset style per flop)",
                        name.text
                    ),
                },
            ));
        }
        for (cp, &j) in DFF_CONTROL_PINS.iter().zip(&pins[CONTROL..]) {
            if let Some(NetRef::Const { at, .. }) = self.ast.pins.get(j).map(|c| c.net) {
                return Err(self.fail(
                    at,
                    ParseErrorKind::InvalidConnection {
                        message: format!("constant on control pin '{cp}'"),
                    },
                ));
            }
        }
        let node = self.netlist.add_cell_unconnected(kind, name.text);
        // Register the output pin as its net's driver.
        match self.ast.pins[pins[OUT]].net {
            NetRef::Const { at, .. } => {
                return Err(self.fail(
                    at,
                    ParseErrorKind::InvalidConnection {
                        message: format!("constant on output pin '{out}'"),
                    },
                ));
            }
            NetRef::Net(n) => {
                let Some(s) = self.net(n.text) else {
                    return Err(self.name_error(n, |net| ParseErrorKind::UndeclaredNet { net }));
                };
                if !matches!(self.symbols[s].driver, Driver::None) {
                    return Err(self.name_error(n, |net| ParseErrorKind::MultipleDrivers { net }));
                }
                self.symbols[s].driver = Driver::Node(node);
            }
        }
        Ok(())
    }

    /// The pin slots of a `kind` instance whose connections are
    /// `ast.pins[conns]`.
    ///
    /// # Errors
    ///
    /// The first pin the cell does not have, or has connected already.
    fn slots(&self, kind: CellKind, conns: Range<usize>) -> Result<Slots, NetlistError> {
        let mut pins = [UNCONNECTED; SLOTS];
        for j in conns {
            let pin = self.ast.pins[j].pin;
            let Some(slot) = pin_slot(kind, pin.text) else {
                return Err(self.fail(
                    pin.at,
                    ParseErrorKind::UnknownPin {
                        cell: kind.lib_name().to_owned(),
                        pin: pin.text.to_owned(),
                    },
                ));
            };
            if pins[slot] != UNCONNECTED {
                return Err(self.name_error(pin, |pin| ParseErrorKind::DuplicatePin { pin }));
            }
            pins[slot] = j;
        }
        Ok(pins)
    }

    /// Connects every cell's input pins, in instance order (nets may be
    /// driven after their first use), and collects the DFF metadata.
    /// `drive_nets` added the cells from node `first_cell` on; their pin
    /// slots are worked out again here rather than kept.
    fn connect_pins(&mut self, first_cell: usize) -> Result<Vec<ParsedDff>, NetlistError> {
        let instances = self.ast.items.iter().filter_map(|item| match item {
            Item::Instance { cell, pins, .. } => Some((cell, pins)),
            Item::Assign { .. } => None,
        });
        let mut dffs = Vec::new();
        for (node, (cell, conns)) in (first_cell..).map(NodeId::new).zip(instances) {
            let kind = cell_kind(cell.text).expect("cell names checked by drive_nets");
            let pins = self
                .slots(kind, conns.clone())
                .expect("pin names checked by drive_nets");
            for &j in &pins[..pin_names(kind).len()] {
                let src = self.resolve_pin(j)?;
                self.netlist
                    .connect_pin(node, src)
                    .expect("pin arity pre-checked against the cell library");
            }
            if !kind.is_sequential() {
                continue;
            }
            // Control nets must exist and be driven, but carry no edges:
            // the netlist graph models the D/Q data path only.
            let control = &pins[CONTROL..];
            for &j in control.iter().filter(|&&j| j != UNCONNECTED) {
                self.resolve_pin(j)?;
            }
            let clock = match self.ast.pins.get(control[0]).map(|c| c.net) {
                Some(NetRef::Net(n)) => Some(n.text.to_owned()),
                _ => None,
            };
            let reset = if pins[RN] != UNCONNECTED {
                DffReset::ActiveLowReset
            } else if pins[SN] != UNCONNECTED {
                DffReset::ActiveLowSet
            } else {
                DffReset::Implicit
            };
            dffs.push(ParsedDff { node, clock, reset });
        }
        Ok(dffs)
    }

    /// Adds the primary outputs, in port order.
    fn add_outputs(&mut self) -> Result<(), NetlistError> {
        let ast = self.ast;
        for (i, p) in ast.ports.iter().enumerate() {
            if self.port_dirs[i] != Some(Dir::Output) {
                continue;
            }
            if matches!(self.symbols[i].driver, Driver::None) {
                let unassigned = |port| ParseErrorKind::UnassignedOutput { port };
                return Err(self.name_error(p.name, unassigned));
            }
            let src = self.resolve(p.name.at, NetRef::Net(p.name))?;
            self.netlist.add_output(p.name.text, src);
        }
        Ok(())
    }

    /// Resolves the net or constant connected at `ast.pins[j]`.
    fn resolve_pin(&mut self, j: usize) -> Result<NodeId, NetlistError> {
        let net = self.ast.pins[j].net;
        let at = match net {
            NetRef::Net(n) => n.at,
            NetRef::Const { at, .. } => at,
        };
        self.resolve(at, net)
    }

    /// The node driving `net`, chasing assign chains; errors point at
    /// `at`, the reference being resolved.
    fn resolve(&mut self, at: usize, mut net: NetRef<'a>) -> Result<NodeId, NetlistError> {
        self.resolves += 1;
        loop {
            let name = match net {
                NetRef::Const { value, .. } => return Ok(self.tie(value)),
                NetRef::Net(n) => n.text,
            };
            let Some(s) = self.net(name) else {
                let net = name.to_owned();
                return Err(self.fail(at, ParseErrorKind::UndeclaredNet { net }));
            };
            match self.symbols[s].driver {
                Driver::Node(id) => return Ok(id),
                Driver::None => {
                    let net = name.to_owned();
                    return Err(self.fail(at, ParseErrorKind::UndrivenNet { net }));
                }
                Driver::Assign(k) if self.assigns[k].visited == self.resolves => {
                    let message = format!("assign cycle through net '{name}'");
                    return Err(self.fail(at, ParseErrorKind::InvalidConnection { message }));
                }
                Driver::Assign(k) => {
                    self.assigns[k].visited = self.resolves;
                    net = self.assigns[k].rhs;
                }
            }
        }
    }

    /// Materializes the shared `TIEL_X1`/`TIEH_X1` cell for a constant,
    /// named `const0`/`const1` unless that name is taken.
    fn tie(&mut self, value: bool) -> NodeId {
        if let Some(id) = self.ties[usize::from(value)] {
            return id;
        }
        let base = if value { "const1" } else { "const0" };
        let mut name = base.to_owned();
        let mut k = 1u32;
        while self.names.contains_key(name.as_str()) {
            name = format!("{base}_{k}");
            k += 1;
        }
        let kind = if value {
            CellKind::Tie1
        } else {
            CellKind::Tie0
        };
        let id = self
            .netlist
            .add_cell(kind, name, &[])
            .expect("tie cells have no input pins");
        self.ties[usize::from(value)] = Some(id);
        id
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Whether a name can be written at all (possibly escaped).
fn printable(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| !c.is_whitespace() && !c.is_control())
}

/// Last-resort rewrite for names Verilog cannot express even escaped.
fn sanitize(name: &str) -> String {
    let s: String = name
        .chars()
        .map(|c| {
            if c.is_whitespace() || c.is_control() {
                '_'
            } else {
                c
            }
        })
        .collect();
    if s.is_empty() {
        "n".to_owned()
    } else {
        s
    }
}

/// Claims `base` in `used`, suffixing `_1`, `_2`, ... on collision.
fn unique(base: String, used: &mut HashSet<String>) -> String {
    if used.insert(base.clone()) {
        return base;
    }
    let mut k = 1u32;
    loop {
        let cand = format!("{base}_{k}");
        if used.insert(cand.clone()) {
            return cand;
        }
        k += 1;
    }
}

/// Renders a name as a bare identifier when possible, escaped otherwise.
/// Escaped identifiers include their terminating space.
fn emit_name(name: &str) -> String {
    if token::is_simple_ident(name) {
        name.to_owned()
    } else {
        format!("\\{name} ")
    }
}

/// Renders the netlist as structural Verilog.
///
/// Net names are uniquified against the module's whole namespace, so a
/// primary input named `n_u1` cannot short against cell `u1`'s derived
/// output wire, and non-simple names (`q[0]`, `a.b`) are written as escaped
/// identifiers rather than lossily mangled — [`parse_verilog`] recovers the
/// original node names, preserving [`crate::canonical_hash`].
///
/// # Examples
///
/// ```
/// use moss_netlist::{CellKind, Netlist, write_verilog};
///
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let g = nl.add_cell(CellKind::Inv, "u1", &[a])?;
/// nl.add_output("y", g);
/// let v = write_verilog(&nl);
/// assert!(v.contains("INV_X1 u1 (.A(a), .Y(n_u1));"));
/// # Ok::<(), moss_netlist::NetlistError>(())
/// ```
pub fn write_verilog(netlist: &Netlist) -> String {
    let mut used: HashSet<String> = HashSet::new();
    // Ports and instances keep their own names (uniquified only in the
    // degenerate duplicate-name case Verilog cannot express); derived
    // output wires always yield to them.
    let node_names: Vec<String> = netlist
        .node_ids()
        .map(|id| {
            let n = netlist.node(id).name();
            let base = if printable(n) {
                n.to_owned()
            } else {
                sanitize(n)
            };
            unique(base, &mut used)
        })
        .collect();
    let wire_names: Vec<Option<String>> = netlist
        .node_ids()
        .map(|id| {
            matches!(netlist.kind(id), NodeKind::Cell(_))
                .then(|| unique(format!("n_{}", node_names[id.index()]), &mut used))
        })
        .collect();
    let net_of = |id: NodeId| -> String {
        match netlist.kind(id) {
            NodeKind::Cell(_) => emit_name(
                wire_names[id.index()]
                    .as_deref()
                    .expect("every cell has a derived wire"),
            ),
            _ => emit_name(&node_names[id.index()]),
        }
    };

    let mut out = String::new();
    let ports: Vec<String> = netlist
        .node_ids()
        .filter_map(|id| match netlist.kind(id) {
            NodeKind::PrimaryInput => Some(format!("input {}", net_of(id))),
            NodeKind::PrimaryOutput => Some(format!("output {}", net_of(id))),
            NodeKind::Cell(_) => None,
        })
        .collect();
    out.push_str(&format!(
        "module {} ({});\n",
        emit_name(&sanitize(netlist.name())),
        ports.join(", ")
    ));
    // Wire declarations for every cell output.
    for id in netlist.node_ids() {
        if matches!(netlist.kind(id), NodeKind::Cell(_)) {
            out.push_str(&format!("  wire {};\n", net_of(id)));
        }
    }
    // Instances.
    for id in netlist.node_ids() {
        if let NodeKind::Cell(kind) = netlist.kind(id) {
            let mut pins: Vec<String> = netlist
                .fanins(id)
                .iter()
                .zip(pin_names(kind))
                .map(|(&f, pin)| format!(".{pin}({})", net_of(f)))
                .collect();
            pins.push(format!(".{}({})", output_pin(kind), net_of(id)));
            out.push_str(&format!(
                "  {} {} ({});\n",
                kind.lib_name(),
                emit_name(&node_names[id.index()]),
                pins.join(", ")
            ));
        }
    }
    // Output assigns.
    for id in netlist.primary_outputs() {
        out.push_str(&format!(
            "  assign {} = {};\n",
            net_of(id),
            net_of(netlist.fanins(id)[0])
        ));
    }
    out.push_str("endmodule\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::canonical_hash;

    fn perr(src: &str) -> ParseError {
        match parse_verilog(src).unwrap_err() {
            NetlistError::Verilog(e) => e,
            other => panic!("expected a verilog parse error, got {other}"),
        }
    }

    fn sample() -> Netlist {
        let mut nl = Netlist::new("demo");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell(CellKind::Nand2, "u1", &[a, b]).unwrap();
        let ff = nl.add_cell(CellKind::Dff, "r0", &[g1]).unwrap();
        let g2 = nl.add_cell(CellKind::Xor2, "u2", &[ff, a]).unwrap();
        nl.add_output("y", g2);
        nl.add_output("q", ff);
        nl
    }

    #[test]
    fn cell_and_pin_names_match_the_library() {
        for kind in CellKind::ALL {
            assert_eq!(cell_kind(kind.lib_name()), Some(kind));
            let pins = [
                "A", "B", "C", "S", "D", "Y", "Q", "CK", "RN", "SN", "Z", "a", "",
            ];
            for pin in pins {
                let slot = pin_names(kind)
                    .iter()
                    .position(|&p| p == pin)
                    .or_else(|| (pin == output_pin(kind)).then_some(OUT))
                    .or_else(|| {
                        let control = DFF_CONTROL_PINS.iter().position(|&p| p == pin);
                        control
                            .filter(|_| kind.is_sequential())
                            .map(|i| CONTROL + i)
                    });
                assert_eq!(pin_slot(kind, pin), slot, "{kind} pin {pin:?}");
            }
        }
        for name in ["", "INV", "inv_x1", "INV_X1 ", "DFF_X2"] {
            assert_eq!(cell_kind(name), None, "{name:?}");
        }
    }

    #[test]
    fn writes_expected_structure() {
        let v = write_verilog(&sample());
        assert!(v.starts_with("module demo (input a, input b, output y, output q);"));
        assert!(v.contains("NAND2_X1 u1 (.A(a), .B(b), .Y(n_u1));"));
        assert!(v.contains("DFF_X1 r0 (.D(n_u1), .Q(n_r0));"));
        assert!(v.contains("assign y = n_u2;"));
        assert!(v.ends_with("endmodule\n"));
    }

    #[test]
    fn round_trip_is_node_exact_and_hash_equal() {
        let original = sample();
        let parsed = parse_verilog(&write_verilog(&original)).unwrap();
        assert_eq!(parsed.name(), original.name());
        assert_eq!(parsed.cell_count(), original.cell_count());
        assert_eq!(parsed.dff_count(), original.dff_count());
        // No placeholder leak: PI counts match exactly.
        assert_eq!(
            parsed.primary_inputs().len(),
            original.primary_inputs().len()
        );
        assert_eq!(
            parsed.primary_outputs().len(),
            original.primary_outputs().len()
        );
        assert!(parsed.validate().is_ok());
        assert_eq!(canonical_hash(&parsed), canonical_hash(&original));
        let lo = crate::level::Levelization::of(&original).unwrap();
        let lp = crate::level::Levelization::of(&parsed).unwrap();
        assert_eq!(lo.max_level(), lp.max_level());
    }

    #[test]
    fn dff_feedback_round_trips() {
        let mut nl = Netlist::new("fb");
        let en = nl.add_input("en");
        let ff = nl.add_cell(CellKind::Dff, "q", &[en]).unwrap();
        let inv = nl.add_cell(CellKind::Inv, "u", &[ff]).unwrap();
        nl.replace_fanin(ff, 0, inv).unwrap();
        nl.add_output("out", ff);
        let parsed = parse_verilog(&write_verilog(&nl)).unwrap();
        assert_eq!(parsed.dff_count(), 1);
        assert!(crate::level::Levelization::of(&parsed).is_ok());
        assert_eq!(canonical_hash(&parsed), canonical_hash(&nl));
    }

    #[test]
    fn colliding_names_round_trip_without_shorting() {
        // A PI literally named like cell u1's derived wire, plus two PIs the
        // old lossy escape() used to merge.
        let mut nl = Netlist::new("c");
        let p = nl.add_input("n_u1");
        let x = nl.add_input("a.b");
        let y = nl.add_input("a_b");
        let g = nl.add_cell(CellKind::Inv, "u1", &[x]).unwrap();
        let h = nl.add_cell(CellKind::Xor2, "u2", &[g, p]).unwrap();
        let k = nl.add_cell(CellKind::And2, "u3", &[h, y]).unwrap();
        nl.add_output("o", k);
        let text = write_verilog(&nl);
        let parsed = parse_verilog(&text).unwrap();
        assert_eq!(parsed.primary_inputs().len(), 3);
        assert_eq!(parsed.cell_count(), nl.cell_count());
        assert_eq!(canonical_hash(&parsed), canonical_hash(&nl));
        // The XOR must read the PI, not u1's output wire.
        let u2 = parsed.find("u2").unwrap();
        let pi = parsed.find("n_u1").unwrap();
        assert!(parsed.fanins(u2).contains(&pi));
    }

    #[test]
    fn escaped_identifiers_round_trip_bus_bits() {
        let mut nl = Netlist::new("bus");
        let q0 = nl.add_input("q[0]");
        let q1 = nl.add_input("q[1]");
        let g = nl.add_cell(CellKind::Or2, "u_or2_0", &[q0, q1]).unwrap();
        nl.add_output("y[0]", g);
        let text = write_verilog(&nl);
        assert!(text.contains("\\q[0] "), "{text}");
        let parsed = parse_verilog(&text).unwrap();
        assert_eq!(canonical_hash(&parsed), canonical_hash(&nl));
        assert!(parsed.find("q[0]").is_some());
    }

    #[test]
    fn multiple_drivers_is_a_typed_error() {
        let e = perr("module m (input a, output y);\n  wire n;\n  INV_X1 u1 (.A(a), .Y(n));\n  INV_X1 u2 (.A(a), .Y(n));\n  assign y = n;\nendmodule");
        assert!(matches!(
            e.kind,
            ParseErrorKind::MultipleDrivers { ref net } if net == "n"
        ));
        assert_eq!(e.line, 4);
        // An instance output shorting an input port is the same error.
        let e = perr(
            "module m (input a, output y);\n  INV_X1 u1 (.A(a), .Y(a));\n  assign y = a;\nendmodule",
        );
        assert!(matches!(
            e.kind,
            ParseErrorKind::MultipleDrivers { ref net } if net == "a"
        ));
        // So is assigning an already-driven output twice.
        let e = perr(
            "module m (input a, output y);\n  INV_X1 u1 (.A(a), .Y(y));\n  assign y = a;\nendmodule",
        );
        assert!(matches!(e.kind, ParseErrorKind::MultipleDrivers { .. }));
    }

    #[test]
    fn duplicate_pin_is_a_typed_error() {
        let e = perr(
            "module m (input a, input b, output y);\n  wire n;\n  NAND2_X1 u1 (.A(a), .A(b), .Y(n));\n  assign y = n;\nendmodule",
        );
        assert!(matches!(
            e.kind,
            ParseErrorKind::DuplicatePin { ref pin } if pin == "A"
        ));
        assert_eq!(e.line, 3);
    }

    #[test]
    fn comments_and_nonansi_ports_parse() {
        let nl = parse_verilog(
            "// header comment\n\
             /* block\n   comment */\n\
             module m (a, b, y);\n\
               input a, b;\n\
               output y;\n\
               wire n1, n2;\n\
               AND2_X1 u1 (.A(a), .B(b), .Y(n1)); // inline\n\
               INV_X1 u2 (.A(n1), .Y(n2));\n\
               assign y = n2;\n\
             endmodule",
        )
        .unwrap();
        assert_eq!(nl.primary_inputs().len(), 2);
        assert_eq!(nl.primary_outputs().len(), 1);
        assert_eq!(nl.cell_count(), 2);
    }

    #[test]
    fn constants_elaborate_to_tie_cells() {
        let nl = parse_verilog(
            "module m (input a, output y, output z);\n\
               wire n;\n\
               NAND2_X1 u1 (.A(a), .B(1'b1), .Y(n));\n\
               assign y = n;\n\
               assign z = 1'b0;\n\
             endmodule",
        )
        .unwrap();
        assert_eq!(nl.cell_count(), 3); // u1 + const1 + const0
        let t1 = nl.find("const1").unwrap();
        assert_eq!(nl.kind(t1), NodeKind::Cell(CellKind::Tie1));
        let u1 = nl.find("u1").unwrap();
        assert_eq!(nl.fanins(u1)[1], t1);
        let t0 = nl.find("const0").unwrap();
        assert_eq!(nl.kind(t0), NodeKind::Cell(CellKind::Tie0));
        let z = nl.primary_outputs()[1];
        assert_eq!(nl.fanins(z), [t0]);
        // A netlist with tie cells survives the round trip.
        let again = parse_verilog(&write_verilog(&nl)).unwrap();
        assert_eq!(canonical_hash(&again), canonical_hash(&nl));
    }

    #[test]
    fn dff_control_pins_are_recorded_not_graphed() {
        let d = parse_verilog_design(
            "module m (input d, input clk, input rst, output q);\n\
               DFF_X1 r0 (.D(d), .CK(clk), .RN(rst), .Q(q));\n\
             endmodule",
        )
        .unwrap();
        assert_eq!(d.dffs.len(), 1);
        assert_eq!(d.dffs[0].clock.as_deref(), Some("clk"));
        assert_eq!(d.dffs[0].reset, DffReset::ActiveLowReset);
        assert!(!d.dffs[0].reset.initial_value());
        let ff = d.dffs[0].node;
        // Only the D pin is a graph edge.
        assert_eq!(d.netlist.fanins(ff).len(), 1);
        let clk = d.netlist.find("clk").unwrap();
        assert!(d.netlist.fanouts(clk).is_empty());

        let d = parse_verilog_design(
            "module m (input d, input clk, input set, output q);\n\
               DFF_X1 r0 (.D(d), .CK(clk), .SN(set), .Q(q));\n\
             endmodule",
        )
        .unwrap();
        assert_eq!(d.dffs[0].reset, DffReset::ActiveLowSet);
        assert!(d.dffs[0].reset.initial_value());

        let e = perr(
            "module m (input d, input r, input s, output q);\n\
               DFF_X1 r0 (.D(d), .RN(r), .SN(s), .Q(q));\n\
             endmodule",
        );
        assert!(matches!(e.kind, ParseErrorKind::InvalidConnection { .. }));
        let e = perr(
            "module m (input d, output q);\n\
               DFF_X1 r0 (.D(d), .CK(1'b0), .Q(q));\n\
             endmodule",
        );
        assert!(matches!(e.kind, ParseErrorKind::InvalidConnection { .. }));
    }

    #[test]
    fn semantic_errors_are_typed_and_positioned() {
        let e = perr("module m (input a, output y);\n  FOO_X1 u (.A(a), .Y(y));\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::UnknownCell { ref cell } if cell == "FOO_X1"));
        assert_eq!((e.line, e.column), (2, 3));

        let e = perr("module m (input a, output y);\n  INV_X1 u (.A(a), .Z(y));\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::UnknownPin { ref pin, .. } if pin == "Z"));

        let e = perr("module m (input a, output y);\n  INV_X1 u (.Y(y));\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::MissingPin { ref pin, .. } if pin == "A"));

        let e = perr("module m (input a, output y);\n  INV_X1 u (.A(ghost), .Y(y));\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::UndeclaredNet { ref net } if net == "ghost"));

        let e =
            perr("module m (input a, output y);\n  wire w;\n  INV_X1 u (.A(w), .Y(y));\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::UndrivenNet { ref net } if net == "w"));

        let e = perr("module m (input a, output y);\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::UnassignedOutput { ref port } if port == "y"));

        let e = perr("module m (input a, output y);\n  wire a;\n  assign y = a;\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::Redeclared { ref name } if name == "a"));

        let e = perr("module m (a, y);\n  output y;\n  assign y = a;\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::PortDirection { ref port } if port == "a"));

        let e = perr("module m (output y, output z);\n  assign y = z;\n  assign z = y;\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::InvalidConnection { .. }));
        assert!(e.to_string().contains("cycle"), "{e}");

        let e = perr("module m (input a, output y);\n  wire n;\n  assign n = a;\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::InvalidConnection { .. }));
    }

    #[test]
    fn output_driven_directly_by_an_instance_pin() {
        let nl =
            parse_verilog("module m (input a, output y);\n  INV_X1 u1 (.A(a), .Y(y));\nendmodule")
                .unwrap();
        let y = nl.primary_outputs()[0];
        let u1 = nl.find("u1").unwrap();
        assert_eq!(nl.fanins(y), [u1]);
    }

    #[test]
    fn output_port_is_readable_through_its_assign() {
        let nl = parse_verilog(
            "module m (input a, output y, output z);\n\
               wire n;\n\
               INV_X1 u1 (.A(a), .Y(n));\n\
               assign y = n;\n\
               INV_X1 u2 (.A(y), .Y(z));\n\
             endmodule",
        )
        .unwrap();
        let u1 = nl.find("u1").unwrap();
        let u2 = nl.find("u2").unwrap();
        assert_eq!(nl.fanins(u2), [u1]);
    }
}
