//! Compiled gate-level simulation.
//!
//! [`GateSim`](crate::GateSim) interprets the netlist graph: every gate eval
//! chases `Vec<Vec<NodeId>>` adjacency, dispatches on the cell-kind enum,
//! and the event queue bookkeeping costs more than the logic itself once
//! random stimulus keeps activity high. [`CompiledSim`] instead lowers the
//! levelized netlist *once* into a flat instruction stream and replays that
//! stream obliviously every cycle:
//!
//! - **Instruction stream**: one `u8` truth-table opcode per combinational
//!   cell plus four `u32` slot indices (`[out, a, b, c]`) in a single
//!   contiguous arena, emitted in levelized topological order. Gates with
//!   fewer than three pins pad with a constant-zero slot; their truth table
//!   is replicated so padded inputs are don't-cares.
//! - **Net values**: every net holds a `u64` word whose bit 0 is the
//!   net's logic value.
//! - **Branchless eval**: the fanin bits index an 8-bit truth table
//!   (`tt >> (a | b<<1 | c<<2) & 1`). No enum dispatch, no per-eval
//!   allocation, no branches in the loop.
//! - **Fused toggle counting**: [`CompiledSim::step_count`] threads a
//!   [`ToggleAccum`] through the clock-step commit loop, recording toggles
//!   and ones at the write site of every DFF commit, combinational eval,
//!   output mirror, and input sample — the separate post-step counting pass
//!   over a `Vec<bool>` snapshot disappears.
//!
//! # Determinism contract
//!
//! `CompiledSim` (`settle`, `step`, `step_count`, and
//! [`simulate_random_compiled`](crate::simulate_random_compiled)) is
//! **bit-identical** to `GateSim` under the same stimulus: same two-phase
//! semantics (settle → capture D → commit → settle), same sampled values,
//! same toggle counts. `GateSim` stays the reference oracle; the
//! differential tests in `tests/compiled_equivalence.rs` enforce the
//! contract on random netlists and random stimulus.

use moss_netlist::{CellKind, Levelization, Netlist, NetlistError, NodeId, NodeKind};

/// Number of distinct cell kinds (truth-table/opcode table size).
const NKINDS: usize = CellKind::ALL.len();

/// The 8-row truth table of a combinational cell over its (up to three)
/// inputs, replicated so unused input positions are don't-cares.
fn truth_table8(kind: CellKind) -> u8 {
    let pins = kind.input_count();
    let mut tt = 0u8;
    for row in 0..8u8 {
        let bits = [row & 1 == 1, row >> 1 & 1 == 1, row >> 2 & 1 == 1];
        if kind.eval(&bits[..pins]) {
            tt |= 1 << row;
        }
    }
    tt
}

/// A compiled simulator for one netlist.
///
/// The API mirrors [`GateSim`](crate::GateSim) (`set_input` / `set_state` /
/// `settle` / `step` / `value` / `values`) and is bit-identical to it.
///
/// # Examples
///
/// ```
/// use moss_netlist::{CellKind, Netlist};
/// use moss_sim::CompiledSim;
///
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let g = nl.add_cell(CellKind::Xor2, "u1", &[a, b])?;
/// let y = nl.add_output("y", g);
/// let mut sim = CompiledSim::new(&nl)?;
/// sim.set_input(a, true);
/// sim.set_input(b, false);
/// sim.settle();
/// assert!(sim.value(y));
/// # Ok::<(), moss_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledSim {
    netlist: Netlist,
    /// Truth-table opcode (a `CellKind` index) per instruction.
    ops: Vec<u8>,
    /// Slot arena, stride 4 per instruction: `[out, a, b, c]`.
    slots: Vec<u32>,
    /// Net values (bit 0 of each word), one word per node, plus a trailing
    /// slot pinned to zero that pads unused fanin positions.
    words: Vec<u64>,
    /// DFF output (Q) slots, in netlist DFF order.
    dff_q: Vec<u32>,
    /// DFF data (D-driver) slots, aligned with `dff_q`.
    dff_d: Vec<u32>,
    /// Captured next-state words between settle and commit.
    dff_next: Vec<u64>,
    /// Primary-output `(po, driver)` slot pairs.
    outputs: Vec<(u32, u32)>,
    /// Primary-input slots (for fused input toggle counting).
    pi_slots: Vec<u32>,
    /// Per-opcode 8-bit truth tables.
    tts: [u8; NKINDS],
}

impl CompiledSim {
    /// Compiles a netlist into an instruction stream; all DFFs start at
    /// logic 0 and all inputs low, matching
    /// [`GateSim::new`](crate::GateSim::new).
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist is invalid or combinationally
    /// cyclic.
    pub fn new(netlist: &Netlist) -> Result<CompiledSim, NetlistError> {
        if moss_faults::fire(moss_faults::Site::Sim, moss_faults::key(netlist.name())) {
            return Err(NetlistError::FaultInjected { site: "sim" });
        }
        let levels = Levelization::of(netlist)?;
        let n = netlist.node_count();
        let zero_slot = n as u32;
        let arena = netlist.fanin_arena();

        let mut tts = [0u8; NKINDS];
        for kind in CellKind::ALL {
            if !kind.is_sequential() {
                tts[kind.index()] = truth_table8(kind);
            }
        }

        let topo = levels.topo_combinational();
        let mut ops = Vec::with_capacity(topo.len());
        let mut slots = Vec::with_capacity(topo.len() * 4);
        for &id in topo {
            let kind = match netlist.kind(id) {
                NodeKind::Cell(k) => k,
                _ => unreachable!("topo_combinational yields cells only"),
            };
            ops.push(kind.index() as u8);
            slots.push(id.index() as u32);
            let fanins = arena.fanins(id);
            for pin in 0..3 {
                slots.push(fanins.get(pin).map_or(zero_slot, |f| f.index() as u32));
            }
        }

        let dffs = netlist.dffs();
        let dff_q: Vec<u32> = dffs.iter().map(|d| d.index() as u32).collect();
        let dff_d: Vec<u32> = dffs
            .iter()
            .map(|&d| arena.fanins(d)[0].index() as u32)
            .collect();
        let outputs: Vec<(u32, u32)> = netlist
            .primary_outputs()
            .iter()
            .map(|&po| (po.index() as u32, arena.fanins(po)[0].index() as u32))
            .collect();
        let pi_slots: Vec<u32> = netlist
            .primary_inputs()
            .iter()
            .map(|pi| pi.index() as u32)
            .collect();

        let mut sim = CompiledSim {
            netlist: netlist.clone(),
            ops,
            slots,
            words: vec![0u64; n + 1],
            dff_next: vec![0u64; dff_q.len()],
            dff_q,
            dff_d,
            outputs,
            pi_slots,
            tts,
        };
        sim.settle();
        Ok(sim)
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Current logic value of a node.
    pub fn value(&self, id: NodeId) -> bool {
        self.words[id.index()] & 1 == 1
    }

    /// All current values, indexed by node id (for differential checks
    /// against [`GateSim::values`](crate::GateSim::values)).
    pub fn values(&self) -> Vec<bool> {
        self.words[..self.netlist.node_count()]
            .iter()
            .map(|&w| w & 1 == 1)
            .collect()
    }

    /// Drives a primary input.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a primary input.
    pub fn set_input(&mut self, id: NodeId, value: bool) {
        assert_eq!(
            self.netlist.kind(id),
            NodeKind::PrimaryInput,
            "{id} is not a primary input"
        );
        self.words[id.index()] = u64::from(value);
    }

    /// Forces a DFF's state (e.g. applying a reset value).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a DFF.
    pub fn set_state(&mut self, id: NodeId, value: bool) {
        assert!(self.netlist.kind(id).is_dff(), "{id} is not a DFF");
        self.words[id.index()] = u64::from(value);
    }

    /// Evaluates all combinational logic.
    ///
    /// ## Termination
    ///
    /// Always terminates: the compiled program is a straight-line
    /// instruction stream in levelized topological order, and
    /// [`CompiledSim::new`] rejects combinational cycles
    /// ([`NetlistError::CombinationalCycle`]) before compiling.
    pub fn settle(&mut self) {
        self.eval_pass(None);
    }

    /// Advances one clock edge: settle, capture D pins, commit, settle —
    /// the same two-phase semantics as [`GateSim::step`](crate::GateSim::step).
    pub fn step(&mut self) {
        self.eval_pass(None);
        self.capture_commit(None);
        self.eval_pass(None);
    }

    /// Clock step with fused toggle counting.
    ///
    /// Equivalent to [`step`](CompiledSim::step) followed by comparing every
    /// node against the previous cycle's sample, but the comparison happens
    /// at each node's write site inside the step itself. Counts exactly
    /// match [`simulate_random`](crate::simulate_random)'s per-cycle
    /// sampled-toggle semantics.
    pub fn step_count(&mut self, acc: &mut ToggleAccum) {
        // Pre-edge settle: propagates the new inputs; values here are
        // intermediate, so no counting.
        self.eval_pass(None);
        self.capture_commit(Some(acc));
        // Post-edge settle produces the cycle's sampled values: count each
        // combinational cell and output mirror as it is written.
        self.eval_pass(Some(acc));
        for &pi in &self.pi_slots {
            acc.record(pi as usize, self.words[pi as usize]);
        }
        acc.cycles += 1;
    }

    /// Replays the instruction stream in levelized order, then mirrors
    /// primary outputs from their drivers.
    fn eval_pass(&mut self, mut acc: Option<&mut ToggleAccum>) {
        let CompiledSim {
            ops,
            slots,
            words,
            outputs,
            tts,
            ..
        } = self;
        let mut s = 0usize;
        for &op in ops.iter() {
            let out = slots[s] as usize;
            // The fanin bits index the 8-bit truth table directly.
            let row = (words[slots[s + 1] as usize] & 1)
                | ((words[slots[s + 2] as usize] & 1) << 1)
                | ((words[slots[s + 3] as usize] & 1) << 2);
            let new = (tts[op as usize] as u64 >> row) & 1;
            words[out] = new;
            if let Some(acc) = acc.as_deref_mut() {
                acc.record(out, new);
            }
            s += 4;
        }
        for &(po, drv) in outputs.iter() {
            let v = words[drv as usize];
            words[po as usize] = v;
            if let Some(acc) = acc.as_deref_mut() {
                acc.record(po as usize, v);
            }
        }
    }

    /// Captures every DFF's D word from the settled logic, then commits all
    /// captures simultaneously (two-phase clock edge).
    fn capture_commit(&mut self, mut acc: Option<&mut ToggleAccum>) {
        let CompiledSim {
            dff_q,
            dff_d,
            dff_next,
            words,
            ..
        } = self;
        for (next, &d) in dff_next.iter_mut().zip(dff_d.iter()) {
            *next = words[d as usize];
        }
        for (&q, &next) in dff_q.iter().zip(dff_next.iter()) {
            words[q as usize] = next;
            if let Some(acc) = acc.as_deref_mut() {
                acc.record(q as usize, next);
            }
        }
    }
}

/// Streaming per-node toggle/ones counters fused into
/// [`CompiledSim::step_count`].
///
/// Holds the previous cycle's sampled words internally; construct one right
/// after applying resets and settling, then thread it through every step.
#[derive(Debug, Clone)]
pub struct ToggleAccum {
    pub(crate) cycles: u64,
    prev: Vec<u64>,
    pub(crate) toggles: Vec<u64>,
    pub(crate) ones: Vec<u64>,
}

impl ToggleAccum {
    /// Starts counting from `sim`'s current values (the cycle-0 reference
    /// sample).
    pub fn new(sim: &CompiledSim) -> ToggleAccum {
        let n = sim.netlist().node_count();
        ToggleAccum {
            cycles: 0,
            prev: sim.words[..n].to_vec(),
            toggles: vec![0u64; n],
            ones: vec![0u64; n],
        }
    }

    /// Cycles counted so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Per-node toggle counts.
    pub fn toggles(&self) -> &[u64] {
        &self.toggles
    }

    /// Per-node counts of cycles sampled at logic 1.
    pub fn ones(&self) -> &[u64] {
        &self.ones
    }

    #[inline(always)]
    fn record(&mut self, slot: usize, new: u64) {
        let diff = new ^ self.prev[slot];
        self.prev[slot] = new;
        self.toggles[slot] += diff & 1;
        self.ones[slot] += new & 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_tables_replicate_dont_cares() {
        // Inverter depends only on input a: rows with the same a bit agree.
        let tt = truth_table8(CellKind::Inv);
        for row in 0..8 {
            assert_eq!(tt >> row & 1, u8::from(row & 1 == 0), "row {row}");
        }
        assert_eq!(truth_table8(CellKind::Tie0), 0x00);
        assert_eq!(truth_table8(CellKind::Tie1), 0xff);
        assert_eq!(truth_table8(CellKind::And2) & 0x0f, 0b1000);
    }

    #[test]
    fn counter_behaviour_matches_rtl_semantics() {
        // 2-bit counter: q0' = !q0 ; q1' = q1 ^ q0 (same circuit as the
        // GateSim unit test).
        let mut nl = Netlist::new("cnt2");
        let tie = nl.add_input("tie_placeholder");
        let q0 = nl.add_cell(CellKind::Dff, "q0", &[tie]).unwrap();
        let q1 = nl.add_cell(CellKind::Dff, "q1", &[tie]).unwrap();
        let n0 = nl.add_cell(CellKind::Inv, "u0", &[q0]).unwrap();
        let n1 = nl.add_cell(CellKind::Xor2, "u1", &[q1, q0]).unwrap();
        nl.replace_fanin(q0, 0, n0).unwrap();
        nl.replace_fanin(q1, 0, n1).unwrap();
        let o0 = nl.add_output("o0", q0);
        let o1 = nl.add_output("o1", q1);

        let mut sim = CompiledSim::new(&nl).unwrap();
        let mut expected = 0u8;
        for _ in 0..10 {
            sim.step();
            expected = (expected + 1) % 4;
            let got = sim.value(o0) as u8 | ((sim.value(o1) as u8) << 1);
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn tie_cells_hold_constants_after_construction() {
        let mut nl = Netlist::new("t");
        let _a = nl.add_input("a");
        let t1 = nl.add_cell(CellKind::Tie1, "t1", &[]).unwrap();
        let t0 = nl.add_cell(CellKind::Tie0, "t0", &[]).unwrap();
        let g = nl.add_cell(CellKind::And2, "u", &[t1, t0]).unwrap();
        let y = nl.add_output("y", g);
        let sim = CompiledSim::new(&nl).unwrap();
        assert!(sim.value(t1));
        assert!(!sim.value(t0));
        assert!(!sim.value(y));
    }

    #[test]
    fn set_state_applies_reset() {
        let mut nl = Netlist::new("r");
        let a = nl.add_input("a");
        let ff = nl.add_cell(CellKind::Dff, "r0", &[a]).unwrap();
        let y = nl.add_output("y", ff);
        let mut sim = CompiledSim::new(&nl).unwrap();
        sim.set_state(ff, true);
        sim.settle();
        assert!(sim.value(y));
    }

    #[test]
    #[should_panic(expected = "not a primary input")]
    fn set_input_rejects_cells() {
        let mut nl = Netlist::new("r");
        let a = nl.add_input("a");
        let g = nl.add_cell(CellKind::Inv, "u", &[a]).unwrap();
        nl.add_output("y", g);
        let mut sim = CompiledSim::new(&nl).unwrap();
        sim.set_input(g, true);
    }
}
