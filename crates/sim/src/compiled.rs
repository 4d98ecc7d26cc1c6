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
//!   contiguous arena, in topological order. Gates with fewer than three
//!   pins pad with a constant-zero slot; their truth table is replicated so
//!   padded inputs are don't-cares.
//! - **Net values**: every net holds a `u64` word whose bit 0 is the
//!   net's logic value.
//! - **Branchless eval**: the fanin bits index an 8-bit truth table
//!   (`tt >> (a | b<<1 | c<<2) & 1`). No enum dispatch, no per-eval
//!   allocation, no branches in the loop.
//! - **Time-packed toggle counting**: [`CompiledSim::count_toggles`] runs
//!   64 consecutive cycles at a time, bit `k` of a word being cycle `k`.
//!   [`CompiledSim::new`] splits the program once into three regions. The
//!   *loop region* is every node both reachable from a DFF on a register
//!   cycle and reaching such a DFF: the only logic whose next state needs
//!   the state of the cycle before. *Upstream* is what no loop DFF
//!   reaches, *downstream* the rest. Per block, upstream cells and DFFs run
//!   on whole words, the loop region runs one serial pass per cycle with
//!   its boundary inputs unpacked from those words, and downstream runs on
//!   whole words again. That yields every DFF's value in all 64 cycles.
//!   One pass over the whole stream on those words, each truth table
//!   applied as a 3-level mask mux, then gives every node's sampled value
//!   for all 64 cycles, and toggles and ones are counted with a shift, an
//!   XOR and a popcount per node.
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

use moss_netlist::{CellKind, FaninArena, Levelization, Netlist, NetlistError, NodeId, NodeKind};

use crate::toggle::ToggleReport;

/// Number of distinct cell kinds (truth-table/opcode table size).
const NKINDS: usize = CellKind::ALL.len();

/// Opcode of a word-program instruction `[q, d, _, _]` that latches a DFF:
/// its block word becomes the pre-edge word of `d` (see
/// [`CompiledSim::run_words`]).
const LATCH: u8 = u8::MAX;

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
/// word passes of [`CompiledSim::count_toggles`] mux between.
fn row_masks(tt: u8) -> [u64; 8] {
    std::array::from_fn(|row| 0u64.wrapping_sub(u64::from(tt >> row & 1)))
}

/// Bitwise 2:1 mux: `hi` where `sel` is 1, `lo` where it is 0.
#[inline(always)]
fn mux(sel: u64, hi: u64, lo: u64) -> u64 {
    lo ^ ((lo ^ hi) & sel)
}

/// A truth table given as row masks, applied to 64 cycles at once: a
/// 3-level mux selected by `a`, then `b`, then `c`.
#[inline(always)]
fn eval_word(t: &[u64; 8], a: u64, b: u64, c: u64) -> u64 {
    let b0 = mux(b, mux(a, t[3], t[2]), mux(a, t[1], t[0]));
    let b1 = mux(b, mux(a, t[7], t[6]), mux(a, t[5], t[4]));
    mux(c, b1, b0)
}

/// A straight-line program: one opcode and four slots `[out, a, b, c]` per
/// instruction.
#[derive(Debug, Clone, Default)]
struct Stream {
    ops: Vec<u8>,
    /// Slot arena, stride 4 per instruction.
    slots: Vec<u32>,
}

impl Stream {
    fn push(&mut self, op: u8, slots: [u32; 4]) {
        self.ops.push(op);
        self.slots.extend_from_slice(&slots);
    }

    /// Appends combinational cell `id`; missing pins read the zero slot
    /// past the last node.
    fn push_cell(&mut self, netlist: &Netlist, arena: &FaninArena, id: NodeId) {
        let NodeKind::Cell(kind) = netlist.kind(id) else {
            unreachable!("only combinational cells are lowered")
        };
        let fanins = arena.fanins(id);
        let zero_slot = netlist.node_count() as u32;
        let slot = |pin: usize| fanins.get(pin).map_or(zero_slot, |f| f.index() as u32);
        self.push(
            kind.index() as u8,
            [id.index() as u32, slot(0), slot(1), slot(2)],
        );
    }
}

/// Replays a stream of cells, one bit per net.
fn eval_bits(stream: &Stream, tts: &[u8; NKINDS], words: &mut [u64]) {
    for (&op, s) in stream.ops.iter().zip(stream.slots.chunks_exact(4)) {
        // The fanin bits index the 8-bit truth table directly.
        let row = (words[s[1] as usize] & 1)
            | ((words[s[2] as usize] & 1) << 1)
            | ((words[s[3] as usize] & 1) << 2);
        words[s[0] as usize] = (tts[op as usize] as u64 >> row) & 1;
    }
}

/// Captures every listed DFF's D word from the settled logic, then commits
/// all captures simultaneously (two-phase clock edge).
fn capture_commit(dff_q: &[u32], dff_d: &[u32], next: &mut [u64], words: &mut [u64]) {
    for (next, &d) in next.iter_mut().zip(dff_d) {
        *next = words[d as usize];
    }
    for (&q, &next) in dff_q.iter().zip(next.iter()) {
        words[q as usize] = next;
    }
}

/// What [`CompiledSim::count_toggles`] runs per block of 64 cycles to get
/// every DFF's block word (see the module docs).
#[derive(Debug, Clone)]
struct Schedule {
    /// Word program over the nodes no loop DFF reaches: the cells that a
    /// DFF or the loop region reads, on pre-edge words, and every DFF
    /// latch, in dependency order.
    upstream: Stream,
    /// The loop region's cells in topological order, run one bit per net
    /// once per cycle.
    loop_cells: Stream,
    /// Slots outside the loop region that its cells and DFFs read.
    loop_inputs: Vec<u32>,
    /// The loop region's DFF output (Q) slots.
    loop_q: Vec<u32>,
    /// Their D-driver slots, aligned with `loop_q`.
    loop_d: Vec<u32>,
    /// Word program over the rest: the loop cells that downstream DFFs
    /// read, then downstream cells and DFF latches in dependency order.
    downstream: Stream,
}

/// Every node's dependencies, in CSR form: a combinational cell's fanins,
/// a DFF's D driver (resolved through primary outputs), nothing for
/// primary inputs and outputs.
struct Deps {
    offsets: Vec<u32>,
    data: Vec<u32>,
}

impl Deps {
    fn of(&self, v: usize) -> &[u32] {
        &self.data[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// Tarjan's strongly connected components of `deps`, without recursion:
/// the nodes in an order where each comes after its dependencies (except
/// inside one component), and per node whether its component holds a cycle
/// (two or more nodes, or a node that depends on itself). O(nodes + edges).
fn components(deps: &Deps, n: usize) -> (Vec<u32>, Vec<bool>) {
    const UNSEEN: u32 = u32::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    // The search path: each node with the position of its next dependency.
    let mut path: Vec<(u32, u32)> = Vec::new();
    let mut order = Vec::with_capacity(n);
    let mut cyclic = vec![false; n];
    let mut next_index = 0u32;
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        let mut enter = Some(root);
        loop {
            if let Some(w) = enter.take() {
                index[w] = next_index;
                low[w] = next_index;
                next_index += 1;
                stack.push(w as u32);
                on_stack[w] = true;
                path.push((w as u32, 0));
            }
            let Some(top) = path.last_mut() else { break };
            let v = top.0 as usize;
            let ds = deps.of(v);
            if let Some(&w) = ds.get(top.1 as usize) {
                top.1 += 1;
                let w = w as usize;
                if index[w] == UNSEEN {
                    enter = Some(w);
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            path.pop();
            if let Some(&(u, _)) = path.last() {
                low[u as usize] = low[u as usize].min(low[v]);
            }
            if low[v] == index[v] {
                let start = stack
                    .iter()
                    .rposition(|&x| x as usize == v)
                    .expect("a component's root is on the stack");
                let cycle = stack.len() - start > 1 || ds.contains(&(v as u32));
                for &x in &stack[start..] {
                    on_stack[x as usize] = false;
                    cyclic[x as usize] = cycle;
                    order.push(x);
                }
                stack.truncate(start);
            }
        }
    }
    (order, cyclic)
}

/// Where a node runs in [`CompiledSim::count_toggles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    /// No loop DFF reaches it.
    Upstream,
    /// Reachable from a loop DFF and reaching one.
    Loop,
    /// Reachable from a loop DFF, reaching none.
    Downstream,
}

impl Schedule {
    /// Splits the program into its regions. `dffs` pairs every DFF with
    /// its resolved D driver, in netlist order.
    fn new(
        netlist: &Netlist,
        arena: &FaninArena,
        topo: &[NodeId],
        dffs: &[(NodeId, NodeId)],
    ) -> Schedule {
        let n = netlist.node_count();
        let zero_slot = n as u32;

        let mut offsets = Vec::with_capacity(n + 1);
        let mut data = Vec::with_capacity(arena.flat().len());
        offsets.push(0);
        let mut next_dff = dffs.iter();
        for id in netlist.node_ids() {
            let kind = netlist.kind(id);
            if kind.is_dff() {
                let &(_, d) = next_dff.next().expect("DFFs are listed in node order");
                data.push(d.index() as u32);
            } else if kind.is_combinational_cell() {
                data.extend(arena.fanins(id).iter().map(|f| f.index() as u32));
            }
            offsets.push(data.len() as u32);
        }
        let deps = Deps { offsets, data };

        let (order, cyclic) = components(&deps, n);
        // Reachable from a loop DFF: every node of a cyclic component, and
        // whatever depends on one; dependencies come first in `order`.
        let mut from_loop = vec![false; n];
        for &v in &order {
            let v = v as usize;
            from_loop[v] = cyclic[v] || deps.of(v).iter().any(|&f| from_loop[f as usize]);
        }
        // Reaching a loop DFF: the same, walking `order` backwards.
        let mut to_loop = vec![false; n];
        for &v in order.iter().rev() {
            let v = v as usize;
            if cyclic[v] || to_loop[v] {
                to_loop[v] = true;
                for &f in deps.of(v) {
                    to_loop[f as usize] = true;
                }
            }
        }
        let region: Vec<Region> = (0..n)
            .map(|v| match (from_loop[v], to_loop[v]) {
                (false, _) => Region::Upstream,
                (true, true) => Region::Loop,
                (true, false) => Region::Downstream,
            })
            .collect();

        // The cells whose pre-edge words a word program must compute: the
        // D drivers of DFFs outside the loop region, the loop region's
        // inputs, and everything they read up to DFFs and inputs.
        let mut need = vec![false; n];
        for &(q, d) in dffs {
            if region[q.index()] != Region::Loop {
                need[d.index()] = true;
            }
        }
        let mut is_input = vec![false; n];
        for v in (0..n).filter(|&v| region[v] == Region::Loop) {
            for &f in deps.of(v) {
                if region[f as usize] != Region::Loop {
                    is_input[f as usize] = true;
                }
            }
        }
        let loop_inputs: Vec<u32> = (0..n as u32).filter(|&v| is_input[v as usize]).collect();
        for &i in &loop_inputs {
            need[i as usize] = true;
        }
        for &g in topo.iter().rev() {
            if need[g.index()] {
                for &f in deps.of(g.index()) {
                    need[f as usize] = true;
                }
            }
        }

        let mut loop_cells = Stream::default();
        let mut upstream = Stream::default();
        let mut downstream = Stream::default();
        for &g in topo {
            if region[g.index()] == Region::Loop {
                loop_cells.push_cell(netlist, arena, g);
                if need[g.index()] {
                    downstream.push_cell(netlist, arena, g);
                }
            }
        }
        for &v in &order {
            let id = NodeId::new(v as usize);
            let program = match region[id.index()] {
                Region::Upstream => &mut upstream,
                Region::Downstream => &mut downstream,
                Region::Loop => continue,
            };
            if netlist.kind(id).is_dff() {
                program.push(LATCH, [v, deps.of(v as usize)[0], zero_slot, zero_slot]);
            } else if netlist.kind(id).is_combinational_cell() && need[id.index()] {
                program.push_cell(netlist, arena, id);
            }
        }

        let (loop_q, loop_d) = dffs
            .iter()
            .filter(|(q, _)| region[q.index()] == Region::Loop)
            .map(|&(q, d)| (q.index() as u32, d.index() as u32))
            .unzip();
        Schedule {
            upstream,
            loop_cells,
            loop_inputs,
            loop_q,
            loop_d,
            downstream,
        }
    }
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
    /// Every combinational cell, in topological order.
    cells: Stream,
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
    /// The regions `count_toggles` runs per block.
    schedule: Schedule,
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
        let arena = netlist.fanin_arena();

        let mut tts = [0u8; NKINDS];
        for kind in CellKind::ALL {
            if !kind.is_sequential() {
                tts[kind.index()] = truth_table8(kind);
            }
        }

        let dffs: Vec<(NodeId, NodeId)> = netlist
            .dffs()
            .into_iter()
            .map(|d| {
                let mut src = arena.fanins(d)[0];
                // Bounded: outputs may be rewired into chains or loops.
                for _ in 0..n {
                    if netlist.kind(src) != NodeKind::PrimaryOutput {
                        break;
                    }
                    src = arena.fanins(src)[0];
                }
                (d, src)
            })
            .collect();

        let topo = levels.topo_combinational();
        let mut cells = Stream::default();
        for &id in topo {
            cells.push_cell(netlist, &arena, id);
        }

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
            schedule: Schedule::new(netlist, &arena, topo, &dffs),
            cells,
            words: vec![0u64; n + 1],
            dff_next: vec![0u64; dffs.len()],
            dff_q: dffs.iter().map(|(q, _)| q.index() as u32).collect(),
            dff_d: dffs.iter().map(|(_, d)| d.index() as u32).collect(),
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
        eval_bits(&self.cells, &self.tts, &mut self.words);
        self.mirror_outputs();
    }

    /// Advances one clock edge: settle, capture D pins, commit, settle —
    /// the same two-phase semantics as [`GateSim::step`](crate::GateSim::step).
    pub fn step(&mut self) {
        self.settle();
        capture_commit(
            &self.dff_q,
            &self.dff_d,
            &mut self.dff_next,
            &mut self.words,
        );
        self.settle();
    }

    /// Runs `cycles` clock cycles of stimulus from `fill` and counts, per
    /// node, the cycles whose sampled value differs from the previous
    /// cycle's and the cycles sampled at logic 1.
    ///
    /// The stimulus arrives 64 cycles at a time: `fill(words, len)` gets
    /// one zeroed word per primary input, in netlist input order, and sets
    /// bit `k` of word `j` to input `j`'s value in cycle `k`, for `k` below
    /// `len` (64, or fewer in the last block). Each cycle drives the inputs
    /// and then [`step`](CompiledSim::step)s; the sample is every node's
    /// settled value after the step, and the cycle-0 reference is the
    /// current values. Counts, and [`values`](CompiledSim::values) after
    /// the run, equal [`simulate_random`](crate::simulate_random)'s on
    /// [`GateSim`](crate::GateSim) fed the same bits.
    ///
    /// Per block, logic off every register loop runs on whole words and
    /// only the loop region runs one serial pass per cycle; one pass over
    /// the whole stream on the resulting words then settles all 64 cycles
    /// at once (see the module docs).
    pub fn count_toggles(
        &mut self,
        cycles: u64,
        mut fill: impl FnMut(&mut [u64], u32),
    ) -> ToggleReport {
        let n = self.netlist.node_count();
        let mut toggles = vec![0u64; n];
        let mut ones = vec![0u64; n];
        // Bit k of `block[i]` is node i's sampled value in cycle k of the
        // block, bit k of `pre[i]` its value settled before cycle k's edge;
        // the trailing zero slots pad unused fanin positions.
        let mut block = vec![0u64; n + 1];
        let mut pre = vec![0u64; n + 1];
        let mut stimulus = vec![0u64; self.pi_slots.len()];
        // Each node's previous sample, carried across blocks.
        let mut carry: Vec<u64> = self.words[..n].iter().map(|&w| w & 1).collect();
        let mut done = 0u64;
        while done < cycles {
            let len = (cycles - done).min(64) as u32;
            stimulus.fill(0);
            fill(&mut stimulus, len);
            for (&pi, &w) in self.pi_slots.iter().zip(&stimulus) {
                block[pi as usize] = w;
                pre[pi as usize] = w;
            }
            self.run_words(&self.schedule.upstream, &mut pre, &mut block, &carry);
            self.step_loops(len, &pre, &mut block);
            for &q in &self.schedule.loop_q {
                pre[q as usize] = block[q as usize] << 1 | carry[q as usize];
            }
            self.run_words(&self.schedule.downstream, &mut pre, &mut block, &carry);
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
        // The last cycle's settled values; the serial passes left the loop
        // region at its pre-edge values and never touched the rest.
        self.words[..n].copy_from_slice(&carry);
        ToggleReport {
            cycles,
            toggles,
            ones,
        }
    }

    /// Runs a word program on pre-edge words. A cell computes its pre-edge
    /// word. A latch `[q, d]` sets DFF `q`'s block word to `d`'s pre-edge
    /// word, the value its edge captures in each cycle, and `q`'s pre-edge
    /// word to that one cycle later, with `carry` (its value before the
    /// block) in cycle 0.
    fn run_words(&self, program: &Stream, pre: &mut [u64], block: &mut [u64], carry: &[u64]) {
        for (&op, s) in program.ops.iter().zip(program.slots.chunks_exact(4)) {
            let out = s[0] as usize;
            if op == LATCH {
                let q = pre[s[1] as usize];
                block[out] = q;
                pre[out] = q << 1 | carry[out];
            } else {
                let t = &self.masks[op as usize];
                pre[out] = eval_word(
                    t,
                    pre[s[1] as usize],
                    pre[s[2] as usize],
                    pre[s[3] as usize],
                );
            }
        }
    }

    /// Steps the loop region through the block's first `len` cycles, one
    /// bit per net: unpack cycle `k` of its inputs' pre-edge words, settle
    /// its cells, capture and commit its DFFs, and pack their new values
    /// into bit `k` of their block words.
    fn step_loops(&mut self, len: u32, pre: &[u64], block: &mut [u64]) {
        let CompiledSim {
            schedule: s,
            words,
            dff_next,
            tts,
            ..
        } = self;
        if s.loop_q.is_empty() {
            return;
        }
        let next = &mut dff_next[..s.loop_q.len()];
        for &q in &s.loop_q {
            block[q as usize] = 0;
        }
        for k in 0..len {
            for &i in &s.loop_inputs {
                words[i as usize] = pre[i as usize] >> k & 1;
            }
            eval_bits(&s.loop_cells, tts, words);
            for (next, &d) in next.iter_mut().zip(&s.loop_d) {
                *next = words[d as usize];
            }
            for (&q, &next) in s.loop_q.iter().zip(next.iter()) {
                words[q as usize] = next;
                block[q as usize] |= next << k;
            }
        }
    }

    /// Mirrors every primary output from its driver.
    fn mirror_outputs(&mut self) {
        for &(po, drv) in &self.outputs {
            self.words[po as usize] = self.words[drv as usize];
        }
    }

    /// Replays the whole stream on 64-cycle block words, then mirrors the
    /// outputs.
    fn eval_block(&self, block: &mut [u64]) {
        for (&op, s) in self.cells.ops.iter().zip(self.cells.slots.chunks_exact(4)) {
            let t = &self.masks[op as usize];
            block[s[0] as usize] = eval_word(
                t,
                block[s[1] as usize],
                block[s[2] as usize],
                block[s[3] as usize],
            );
        }
        for &(po, drv) in &self.outputs {
            block[po as usize] = block[drv as usize];
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

    #[test]
    fn schedule_splits_upstream_loop_and_downstream() {
        // u (upstream DFF) → loop A (qa, ga) → pipeline p → loop B (qb,
        // gb) → downstream DFF r; the output gate h reads loop B.
        let mut nl = Netlist::new("regions");
        let a = nl.add_input("a");
        let u = nl.add_cell(CellKind::Dff, "u", &[a]).unwrap();
        let gu = nl.add_cell(CellKind::Inv, "gu", &[u]).unwrap();
        let qa = nl.add_cell(CellKind::Dff, "qa", &[a]).unwrap();
        let ga = nl.add_cell(CellKind::Xor2, "ga", &[qa, gu]).unwrap();
        nl.replace_fanin(qa, 0, ga).unwrap();
        let p = nl.add_cell(CellKind::Dff, "p", &[ga]).unwrap();
        let qb = nl.add_cell(CellKind::Dff, "qb", &[a]).unwrap();
        let gb = nl.add_cell(CellKind::And2, "gb", &[qb, p]).unwrap();
        nl.replace_fanin(qb, 0, gb).unwrap();
        let r = nl.add_cell(CellKind::Dff, "r", &[gb]).unwrap();
        let h = nl.add_cell(CellKind::Or2, "h", &[r, a]).unwrap();
        nl.add_output("y", h);

        let s = CompiledSim::new(&nl).unwrap().schedule;
        let slot = |id: NodeId| id.index() as u32;
        let outs = |stream: &Stream| -> Vec<u32> { stream.slots.chunks(4).map(|c| c[0]).collect() };
        assert_eq!(s.loop_q, [slot(qa), slot(p), slot(qb)]);
        assert_eq!(s.loop_d, [slot(ga), slot(ga), slot(gb)]);
        let mut loop_cells = outs(&s.loop_cells);
        loop_cells.sort_unstable();
        assert_eq!(loop_cells, [slot(ga), slot(gb)]);
        assert_eq!(s.loop_inputs, [slot(gu)]);
        assert_eq!(outs(&s.upstream), [slot(u), slot(gu)]);
        assert_eq!(s.upstream.ops[0], LATCH);
        // Downstream recomputes the loop cell r reads, then latches r; h
        // feeds no DFF and waits for the settle over the whole stream.
        assert_eq!(outs(&s.downstream), [slot(gb), slot(r)]);
        assert_eq!(s.downstream.ops[1], LATCH);
    }
}
