//! Canonical netlist serialization and content hashing.
//!
//! Serving and caching key circuits by *content*: two netlists that denote
//! the same circuit must produce the same key even when their nodes were
//! declared in a different order (a Verilog writer is free to emit
//! instances in any order, and parsers assign node indices by appearance).
//! The canonical form therefore records structure through name references
//! only, never through node indices, and sorts its lines as text — names
//! are unique within a netlist and survive reordering, so the sorted lines
//! do too.
//!
//! The module name is deliberately excluded: renaming a design does not
//! change the circuit, and the embedding server's cache should hit on it.

use std::ops::Range;

use crate::graph::{Netlist, NodeId, NodeKind};

/// Writes every canonical line of `netlist` into `text`, without
/// newlines, and returns the lines in output order: inputs, then cells,
/// then outputs, each group sorted as whole lines.
fn sorted_lines<'t>(netlist: &Netlist, text: &'t mut String) -> Vec<&'t str> {
    let name_of = |id: NodeId| netlist.node(id).name();
    let mut groups: [Vec<Range<usize>>; 3] = Default::default();
    for id in netlist.node_ids() {
        let start = text.len();
        let group = match netlist.kind(id) {
            NodeKind::PrimaryInput => {
                text.push_str("i ");
                text.push_str(name_of(id));
                0
            }
            NodeKind::Cell(kind) => {
                text.push_str("c ");
                text.push_str(kind.lib_name());
                text.push(' ');
                text.push_str(name_of(id));
                for &f in netlist.fanins(id) {
                    text.push(' ');
                    text.push_str(name_of(f));
                }
                1
            }
            NodeKind::PrimaryOutput => {
                text.push_str("o ");
                text.push_str(name_of(id));
                text.push(' ');
                text.push_str(name_of(netlist.fanins(id)[0]));
                2
            }
        };
        groups[group].push(start..text.len());
    }
    let text: &'t str = text;
    let mut lines = Vec::with_capacity(netlist.node_count());
    for group in groups {
        let start = lines.len();
        lines.extend(group.into_iter().map(|r| &text[r]));
        lines[start..].sort_unstable();
    }
    lines
}

/// Renders the netlist in a declaration-order-independent canonical form.
///
/// Lines are `i <name>` (primary inputs), `c <lib_cell> <name> <fanin
/// names…>` (cells, pin order preserved), and `o <name> <driver name>`
/// (primary outputs): all input lines, then all cell lines, then all
/// output lines, each group sorted lexicographically as whole lines. So
/// inputs and outputs end up in name order, and cells in cell-kind order
/// first and name order within a kind. Node indices never appear, so any
/// permutation of declarations yields the same text.
///
/// # Examples
///
/// ```
/// use moss_netlist::{parse_verilog, canonical_form};
///
/// let a = parse_verilog("module m (input a, output y);
///                          wire n_u1; wire n_u2;
///                          INV_X1 u1 (.A(a), .Y(n_u1));
///                          INV_X1 u2 (.A(n_u1), .Y(n_u2));
///                          assign y = n_u2; endmodule")?;
/// let b = parse_verilog("module m2 (input a, output y);
///                          wire n_u1; wire n_u2;
///                          INV_X1 u2 (.A(n_u1), .Y(n_u2));
///                          INV_X1 u1 (.A(a), .Y(n_u1));
///                          assign y = n_u2; endmodule")?;
/// assert_eq!(canonical_form(&a), canonical_form(&b));
/// # Ok::<(), moss_netlist::NetlistError>(())
/// ```
pub fn canonical_form(netlist: &Netlist) -> String {
    let mut text = String::new();
    sorted_lines(netlist, &mut text)
        .into_iter()
        .flat_map(|line| [line, "\n"])
        .collect()
}

/// Content hash of the canonicalized netlist (FNV-1a over
/// [`canonical_form`], folded line by line without building the string).
///
/// Invariant to node declaration order and to the module name; sensitive
/// to every cell kind, instance name, pin connection, and port. This is
/// the embedding server's cache key, so the exact value is part of the
/// on-the-wire contract — changing the canonical form silently invalidates
/// every deployed cache (a regression test pins one value).
pub fn canonical_hash(netlist: &Netlist) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut text = String::new();
    for line in sorted_lines(netlist, &mut text) {
        for b in line.bytes().chain([b'\n']) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::verilog::{parse_verilog, write_verilog};

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

    /// Re-emits `nl` as Verilog with the instance lines reversed, then
    /// parses it back: same circuit, different declaration order.
    fn reordered(nl: &Netlist) -> Netlist {
        let src = write_verilog(nl);
        let mut header = Vec::new();
        let mut instances = Vec::new();
        let mut tail = Vec::new();
        for line in src.lines() {
            let t = line.trim_start();
            if t.starts_with("module") || t.starts_with("wire") {
                header.push(line);
            } else if t.starts_with("assign") || t.starts_with("endmodule") {
                tail.push(line);
            } else if !t.is_empty() {
                instances.push(line);
            }
        }
        instances.reverse();
        let shuffled: Vec<&str> = header.into_iter().chain(instances).chain(tail).collect();
        parse_verilog(&shuffled.join("\n")).unwrap()
    }

    #[test]
    fn declaration_order_does_not_change_the_hash() {
        let original = parse_verilog(&write_verilog(&sample())).unwrap();
        let shuffled = reordered(&sample());
        assert_ne!(original.node_ids().count(), 0, "sanity: non-empty netlist");
        assert_eq!(canonical_form(&original), canonical_form(&shuffled));
        assert_eq!(canonical_hash(&original), canonical_hash(&shuffled));
    }

    #[test]
    fn module_name_is_excluded() {
        let mut renamed = Netlist::new("other_name");
        let a = renamed.add_input("a");
        let b = renamed.add_input("b");
        let g1 = renamed.add_cell(CellKind::Nand2, "u1", &[a, b]).unwrap();
        let ff = renamed.add_cell(CellKind::Dff, "r0", &[g1]).unwrap();
        let g2 = renamed.add_cell(CellKind::Xor2, "u2", &[ff, a]).unwrap();
        renamed.add_output("y", g2);
        renamed.add_output("q", ff);
        assert_eq!(canonical_hash(&sample()), canonical_hash(&renamed));
    }

    #[test]
    fn structure_changes_the_hash() {
        let base = sample();
        // Different gate kind.
        let mut other = Netlist::new("demo");
        let a = other.add_input("a");
        let b = other.add_input("b");
        let g1 = other.add_cell(CellKind::Nor2, "u1", &[a, b]).unwrap();
        let ff = other.add_cell(CellKind::Dff, "r0", &[g1]).unwrap();
        let g2 = other.add_cell(CellKind::Xor2, "u2", &[ff, a]).unwrap();
        other.add_output("y", g2);
        other.add_output("q", ff);
        assert_ne!(canonical_hash(&base), canonical_hash(&other));

        // Swapped pin connections (ordered pins are structure).
        let mut swapped = Netlist::new("demo");
        let a = swapped.add_input("a");
        let b = swapped.add_input("b");
        let g1 = swapped.add_cell(CellKind::Nand2, "u1", &[b, a]).unwrap();
        let ff = swapped.add_cell(CellKind::Dff, "r0", &[g1]).unwrap();
        let g2 = swapped.add_cell(CellKind::Xor2, "u2", &[ff, a]).unwrap();
        swapped.add_output("y", g2);
        swapped.add_output("q", ff);
        assert_ne!(canonical_hash(&base), canonical_hash(&swapped));
    }

    #[test]
    fn hash_is_stable_across_calls() {
        let nl = sample();
        assert_eq!(canonical_hash(&nl), canonical_hash(&nl));
    }
}
