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
//!   contiguous arena, in topological order with the next-state cone
//!   first (below). Gates with fewer than three pins pad with a
//!   constant-zero slot; their truth table is replicated so padded inputs
//!   are don't-cares.
//! - **Net values**: every net holds a `u64` word whose bit 0 is the
//!   net's logic value.
//! - **Branchless eval**: the fanin bits index an 8-bit truth table
//!   (`tt >> (a | b<<1 | c<<2) & 1`). No enum dispatch, no per-eval
//!   allocation, no branches in the loop.
//! - **Time-packed toggle counting**: [`CompiledSim::count_toggles`] runs
//!   64 consecutive cycles at a time. The stream is ordered with the
//!   *next-state cone* (every combinational cell in the transitive fanin
//!   of a DFF D pin) first, so a serial pass per cycle evaluates only that
//!   prefix and commits the DFFs, packing each cycle's input and state bits
//!   into per-node block words. One pass over the whole stream on those
//!   words, each truth table applied as a 3-level mask mux, then yields
//!   every node's sampled value for all 64 cycles, and toggles and ones are
//!   counted with a shift, an XOR and a popcount per node.
//!
//! # Determinism contract
//!
//! `CompiledSim` (`settle`, `step`, `count_toggles`, and
//! [`simulate_random_compiled`](crate::simulate_random_compiled)) is
//! **bit-identical** to `GateSim` under the same stimulus: same two-phase
//! semantics (settle → capture D → commit → settle), same sampled values,
//! same toggle counts, same values after a run. `GateSim` stays the
//! reference oracle; the differential tests in
//! `tests/compiled_equivalence.rs` enforce the contract on random netlists
//! and random stimulus.

use moss_netlist::{CellKind, Levelization, Netlist, NetlistError, NodeId, NodeKind};

use crate::toggle::ToggleReport;

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

/// [`truth_table8`] as one all-zeros or all-ones word per row, the form the
/// block phase of [`CompiledSim::count_toggles`] muxes between.
fn row_masks(tt: u8) -> [u64; 8] {
    std::array::from_fn(|row| 0u64.wrapping_sub(u64::from(tt >> row & 1)))
}

/// Bitwise 2:1 mux: `hi` where `sel` is 1, `lo` where it is 0.
#[inline(always)]
fn mux(sel: u64, hi: u64, lo: u64) -> u64 {
    lo ^ ((lo ^ hi) & sel)
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
    /// Truth-table opcode (a `CellKind` index) per instruction, next-state
    /// cone first.
    ops: Vec<u8>,
    /// Slot arena, stride 4 per instruction: `[out, a, b, c]`.
    slots: Vec<u32>,
    /// Instructions in the next-state cone: the prefix of `ops` that the
    /// D pins depend on.
    cone_len: usize,
    /// Net values (bit 0 of each word), one word per node, plus a trailing
    /// slot pinned to zero that pads unused fanin positions.
    words: Vec<u64>,
    /// DFF output (Q) slots, in netlist DFF order.
    dff_q: Vec<u32>,
    /// DFF data (D-driver) slots, aligned with `dff_q`. A D pin wired to
    /// a primary output holds the output's driver: the value the output
    /// mirrors after every settle.
    dff_d: Vec<u32>,
    /// Captured next-state words between settle and commit.
    dff_next: Vec<u64>,
    /// Primary-output `(po, driver)` slot pairs.
    outputs: Vec<(u32, u32)>,
    /// Primary-input slots, in netlist input order.
    pi_slots: Vec<u32>,
    /// Per-opcode 8-bit truth tables.
    tts: [u8; NKINDS],
    /// Per-opcode truth tables as row masks (see [`row_masks`]).
    masks: [[u64; 8]; NKINDS],
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

        let dffs = netlist.dffs();
        let dff_q: Vec<u32> = dffs.iter().map(|d| d.index() as u32).collect();
        let dff_d: Vec<NodeId> = dffs
            .iter()
            .map(|&d| {
                let mut src = arena.fanins(d)[0];
                // Bounded: outputs may be rewired into chains or loops.
                for _ in 0..n {
                    if netlist.kind(src) != NodeKind::PrimaryOutput {
                        break;
                    }
                    src = arena.fanins(src)[0];
                }
                src
            })
            .collect();

        // The next-state cone: combinational cells in the transitive fanin
        // of a D pin. It is closed under fanin, so emitting it first keeps
        // the stream a topological order.
        let mut in_cone = vec![false; n];
        let mut stack = dff_d.clone();
        while let Some(id) = stack.pop() {
            if netlist.kind(id).is_combinational_cell() && !in_cone[id.index()] {
                in_cone[id.index()] = true;
                stack.extend_from_slice(arena.fanins(id));
            }
        }
        let topo = levels.topo_combinational();
        let cone = topo.iter().filter(|id| in_cone[id.index()]);
        let rest = topo.iter().filter(|id| !in_cone[id.index()]);
        let cone_len = cone.clone().count();

        let mut ops = Vec::with_capacity(topo.len());
        let mut slots = Vec::with_capacity(topo.len() * 4);
        for &id in cone.chain(rest) {
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

        let dff_d: Vec<u32> = dff_d.iter().map(|d| d.index() as u32).collect();
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
            cone_len,
            words: vec![0u64; n + 1],
            dff_next: vec![0u64; dff_q.len()],
            dff_q,
            dff_d,
            outputs,
            pi_slots,
            tts,
            masks: tts.map(row_masks),
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
    /// instruction stream in topological order, and
    /// [`CompiledSim::new`] rejects combinational cycles
    /// ([`NetlistError::CombinationalCycle`]) before compiling.
    pub fn settle(&mut self) {
        self.eval_pass(self.ops.len());
        self.mirror_outputs();
    }

    /// Advances one clock edge: settle, capture D pins, commit, settle —
    /// the same two-phase semantics as [`GateSim::step`](crate::GateSim::step).
    pub fn step(&mut self) {
        self.settle();
        self.capture_commit();
        self.settle();
    }

    /// Runs `cycles` clock cycles of stimulus from `draw` and counts, per
    /// node, the cycles whose sampled value differs from the previous
    /// cycle's and the cycles sampled at logic 1.
    ///
    /// Each cycle calls `draw` once per primary input, in netlist input
    /// order, drives the inputs with the results, and then
    /// [`step`](CompiledSim::step)s; the sample is every node's settled
    /// value after the step, and the cycle-0 reference is the current
    /// values. Counts, and [`values`](CompiledSim::values) after the run,
    /// equal [`simulate_random`](crate::simulate_random)'s on
    /// [`GateSim`](crate::GateSim) fed the same draws.
    ///
    /// Works 64 cycles at a time. A serial pass per cycle evaluates only
    /// the next-state cone and commits the DFFs, packing the cycle's input
    /// and state bits into per-node block words; one pass over the whole
    /// stream on those words then settles all 64 cycles at once.
    pub fn count_toggles(&mut self, cycles: u64, mut draw: impl FnMut() -> bool) -> ToggleReport {
        let n = self.netlist.node_count();
        let mut toggles = vec![0u64; n];
        let mut ones = vec![0u64; n];
        // Bit k of `block[i]` is node i's value in cycle k of the block;
        // the trailing zero slot pads unused fanin positions.
        let mut block = vec![0u64; n + 1];
        // Each node's previous sample, carried across blocks.
        let mut carry: Vec<u64> = self.words[..n].iter().map(|&w| w & 1).collect();
        let mut done = 0u64;
        while done < cycles {
            let len = (cycles - done).min(64) as u32;
            for &s in self.pi_slots.iter().chain(&self.dff_q) {
                block[s as usize] = 0;
            }
            for k in 0..len {
                for &pi in &self.pi_slots {
                    let v = u64::from(draw());
                    self.words[pi as usize] = v;
                    block[pi as usize] |= v << k;
                }
                self.eval_pass(self.cone_len);
                self.capture_commit();
                for &q in &self.dff_q {
                    block[q as usize] |= self.words[q as usize] << k;
                }
            }
            self.eval_block(&mut block);

            let live = u64::MAX >> (64 - len);
            for (i, c) in carry.iter_mut().enumerate() {
                let w = block[i] & live;
                toggles[i] += u64::from(((w ^ (w << 1 | *c)) & live).count_ones());
                ones[i] += u64::from(w.count_ones());
                *c = w >> (len - 1);
            }
            done += u64::from(len);
        }
        // The last cycle's settled values; the serial passes left the cone
        // at its pre-edge values and never touched the rest.
        self.words[..n].copy_from_slice(&carry);
        ToggleReport {
            cycles,
            toggles,
            ones,
        }
    }

    /// Replays the first `len` instructions of the stream, one bit per
    /// net.
    fn eval_pass(&mut self, len: usize) {
        let CompiledSim {
            ops,
            slots,
            words,
            tts,
            ..
        } = self;
        for (&op, s) in ops[..len].iter().zip(slots.chunks_exact(4)) {
            // The fanin bits index the 8-bit truth table directly.
            let row = (words[s[1] as usize] & 1)
                | ((words[s[2] as usize] & 1) << 1)
                | ((words[s[3] as usize] & 1) << 2);
            words[s[0] as usize] = (tts[op as usize] as u64 >> row) & 1;
        }
    }

    /// Mirrors every primary output from its driver.
    fn mirror_outputs(&mut self) {
        for &(po, drv) in &self.outputs {
            self.words[po as usize] = self.words[drv as usize];
        }
    }

    /// Replays the whole stream on 64-cycle block words: each truth table
    /// is a 3-level mux over its row masks, selected by `a`, then `b`, then
    /// `c`. Then mirrors the outputs.
    fn eval_block(&self, block: &mut [u64]) {
        for (&op, s) in self.ops.iter().zip(self.slots.chunks_exact(4)) {
            let t = &self.masks[op as usize];
            let a = block[s[1] as usize];
            let b = block[s[2] as usize];
            let c = block[s[3] as usize];
            let b0 = mux(b, mux(a, t[3], t[2]), mux(a, t[1], t[0]));
            let b1 = mux(b, mux(a, t[7], t[6]), mux(a, t[5], t[4]));
            block[s[0] as usize] = mux(c, b1, b0);
        }
        for &(po, drv) in &self.outputs {
            block[po as usize] = block[drv as usize];
        }
    }

    /// Captures every DFF's D word from the settled logic, then commits all
    /// captures simultaneously (two-phase clock edge).
    fn capture_commit(&mut self) {
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
        }
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
