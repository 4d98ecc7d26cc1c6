//! Standard-cell kinds and their logic functions.
//!
//! MOSS operates on standard-cell netlists rather than AIGs (see the paper's
//! §II-A critique of AIG-based models), so the cell vocabulary here mirrors a
//! small industrial library: inverters/buffers, 2- and 3-input NAND/NOR/
//! AND/OR, XOR/XNOR, AOI/OAI complex gates, a 2:1 mux, and a D-type
//! flip-flop. Each kind knows its pin count, logic function, and a short
//! functional description used by the LLM feature-extraction path (Fig. 3).

use std::fmt;

/// The kind of a standard cell.
///
/// # Examples
///
/// ```
/// use moss_netlist::CellKind;
///
/// assert_eq!(CellKind::Nand2.input_count(), 2);
/// assert!(CellKind::Dff.is_sequential());
/// assert_eq!(CellKind::Nand2.eval(&[true, true]), false);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// Non-inverting buffer.
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 2-input AND.
    And2,
    /// 3-input AND.
    And3,
    /// 2-input OR.
    Or2,
    /// 3-input OR.
    Or3,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// AND-OR-invert: `!((a & b) | c)`.
    Aoi21,
    /// OR-AND-invert: `!((a | b) & c)`.
    Oai21,
    /// 2:1 multiplexer: pin order `(a, b, sel)`, output `sel ? b : a`.
    Mux2,
    /// Constant logic-0 tie cell (no inputs).
    Tie0,
    /// Constant logic-1 tie cell (no inputs).
    Tie1,
    /// Positive-edge D-type flip-flop; pin order `(d,)`.
    Dff,
}

impl CellKind {
    /// All cell kinds, in a stable order.
    pub const ALL: [CellKind; 18] = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nand3,
        CellKind::Nor2,
        CellKind::Nor3,
        CellKind::And2,
        CellKind::And3,
        CellKind::Or2,
        CellKind::Or3,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Aoi21,
        CellKind::Oai21,
        CellKind::Mux2,
        CellKind::Tie0,
        CellKind::Tie1,
        CellKind::Dff,
    ];

    /// Number of input pins.
    pub fn input_count(self) -> usize {
        match self {
            CellKind::Tie0 | CellKind::Tie1 => 0,
            CellKind::Inv | CellKind::Buf | CellKind::Dff => 1,
            CellKind::Nand2
            | CellKind::Nor2
            | CellKind::And2
            | CellKind::Or2
            | CellKind::Xor2
            | CellKind::Xnor2 => 2,
            CellKind::Nand3
            | CellKind::Nor3
            | CellKind::And3
            | CellKind::Or3
            | CellKind::Aoi21
            | CellKind::Oai21
            | CellKind::Mux2 => 3,
        }
    }

    /// Whether the cell is a state element (D-type flip-flop).
    pub fn is_sequential(self) -> bool {
        matches!(self, CellKind::Dff)
    }

    /// A dense index in `0..CellKind::ALL.len()`, stable across runs.
    ///
    /// Used for one-hot node features and library lookups.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Evaluates the combinational function of the cell.
    ///
    /// For [`CellKind::Dff`] this returns the D input (the value that will be
    /// latched at the next clock edge); the simulator handles the actual
    /// state update.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.input_count()`.
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert_eq!(
            inputs.len(),
            self.input_count(),
            "cell {self} expects {} inputs, got {}",
            self.input_count(),
            inputs.len()
        );
        match self {
            CellKind::Inv => !inputs[0],
            CellKind::Buf | CellKind::Dff => inputs[0],
            CellKind::Nand2 => !(inputs[0] & inputs[1]),
            CellKind::Nand3 => !(inputs[0] & inputs[1] & inputs[2]),
            CellKind::Nor2 => !(inputs[0] | inputs[1]),
            CellKind::Nor3 => !(inputs[0] | inputs[1] | inputs[2]),
            CellKind::And2 => inputs[0] & inputs[1],
            CellKind::And3 => inputs[0] & inputs[1] & inputs[2],
            CellKind::Or2 => inputs[0] | inputs[1],
            CellKind::Or3 => inputs[0] | inputs[1] | inputs[2],
            CellKind::Xor2 => inputs[0] ^ inputs[1],
            CellKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            CellKind::Aoi21 => !((inputs[0] & inputs[1]) | inputs[2]),
            CellKind::Oai21 => !((inputs[0] | inputs[1]) & inputs[2]),
            CellKind::Mux2 => {
                if inputs[2] {
                    inputs[1]
                } else {
                    inputs[0]
                }
            }
            CellKind::Tie0 => false,
            CellKind::Tie1 => true,
        }
    }

    /// The library cell name, e.g. `NAND2_X1`.
    pub fn lib_name(self) -> &'static str {
        match self {
            CellKind::Inv => "INV_X1",
            CellKind::Buf => "BUF_X1",
            CellKind::Nand2 => "NAND2_X1",
            CellKind::Nand3 => "NAND3_X1",
            CellKind::Nor2 => "NOR2_X1",
            CellKind::Nor3 => "NOR3_X1",
            CellKind::And2 => "AND2_X1",
            CellKind::And3 => "AND3_X1",
            CellKind::Or2 => "OR2_X1",
            CellKind::Or3 => "OR3_X1",
            CellKind::Xor2 => "XOR2_X1",
            CellKind::Xnor2 => "XNOR2_X1",
            CellKind::Aoi21 => "AOI21_X1",
            CellKind::Oai21 => "OAI21_X1",
            CellKind::Mux2 => "MUX2_X1",
            CellKind::Tie0 => "TIEL_X1",
            CellKind::Tie1 => "TIEH_X1",
            CellKind::Dff => "DFF_X1",
        }
    }

    /// A short functional description of the cell as found in a standard-cell
    /// datasheet. This text feeds the LLM embedding path (paper Fig. 3a:
    /// "cell description").
    pub fn description(self) -> &'static str {
        match self {
            CellKind::Inv => "inverter cell: drives the logical complement of input A onto output Y",
            CellKind::Buf => "buffer cell: drives input A onto output Y with restored strength",
            CellKind::Nand2 => "two input nand gate: output Y is low only when inputs A and B are both high",
            CellKind::Nand3 => "three input nand gate: output Y is low only when inputs A B and C are all high",
            CellKind::Nor2 => "two input nor gate: output Y is high only when inputs A and B are both low",
            CellKind::Nor3 => "three input nor gate: output Y is high only when inputs A B and C are all low",
            CellKind::And2 => "two input and gate: output Y is high when inputs A and B are both high",
            CellKind::And3 => "three input and gate: output Y is high when inputs A B and C are all high",
            CellKind::Or2 => "two input or gate: output Y is high when input A or input B is high",
            CellKind::Or3 => "three input or gate: output Y is high when any of inputs A B or C is high",
            CellKind::Xor2 => "two input exclusive or gate: output Y is high when inputs A and B differ",
            CellKind::Xnor2 => "two input exclusive nor gate: output Y is high when inputs A and B match",
            CellKind::Aoi21 => "and or invert complex gate: output Y is the complement of A and B or C",
            CellKind::Oai21 => "or and invert complex gate: output Y is the complement of A or B and C",
            CellKind::Mux2 => "two to one multiplexer: output Y selects input B when S is high otherwise input A",
            CellKind::Tie0 => "tie low cell: output Y is a constant logic zero",
            CellKind::Tie1 => "tie high cell: output Y is a constant logic one",
            CellKind::Dff => "rising edge d type flip flop: output Q captures input D at each clock edge and holds state",
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.lib_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_counts_match_eval_arity() {
        for kind in CellKind::ALL {
            let inputs = vec![false; kind.input_count()];
            // Must not panic.
            let _ = kind.eval(&inputs);
        }
    }

    #[test]
    fn truth_tables_of_basic_gates() {
        use CellKind::*;
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(Nand2.eval(&[a, b]), !(a & b));
            assert_eq!(Nor2.eval(&[a, b]), !(a | b));
            assert_eq!(And2.eval(&[a, b]), a & b);
            assert_eq!(Or2.eval(&[a, b]), a | b);
            assert_eq!(Xor2.eval(&[a, b]), a ^ b);
            assert_eq!(Xnor2.eval(&[a, b]), !(a ^ b));
        }
        assert!(Inv.eval(&[false]));
        assert!(!Inv.eval(&[true]));
    }

    #[test]
    fn complex_gate_truth_tables() {
        use CellKind::*;
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    assert_eq!(Aoi21.eval(&[a, b, c]), !((a & b) | c));
                    assert_eq!(Oai21.eval(&[a, b, c]), !((a | b) & c));
                    assert_eq!(Mux2.eval(&[a, b, c]), if c { b } else { a });
                    assert_eq!(Nand3.eval(&[a, b, c]), !(a & b & c));
                    assert_eq!(Nor3.eval(&[a, b, c]), !(a | b | c));
                }
            }
        }
    }

    #[test]
    fn dff_is_the_only_sequential_kind() {
        for kind in CellKind::ALL {
            assert_eq!(kind.is_sequential(), kind == CellKind::Dff);
        }
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn eval_panics_on_wrong_arity() {
        CellKind::Nand2.eval(&[true]);
    }

    #[test]
    fn descriptions_are_nonempty_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for kind in CellKind::ALL {
            assert!(!kind.description().is_empty());
            assert!(
                seen.insert(kind.description()),
                "duplicate description for {kind}"
            );
        }
    }
}
