//! Differential property tests: `CompiledSim` vs the `GateSim` oracle.
//!
//! The compiled engine produces the ground-truth labels for every
//! experiment, so it must be **bit-identical** to the event-driven
//! reference — values after construction and every cycle, toggle counts,
//! and ones counts, over randomized sequential netlists and randomized
//! stimulus with pinned seeds.

use moss_netlist::{CellKind, Netlist, NodeId};
use moss_prng::rngs::StdRng;
use moss_prng::{Rng, SeedableRng};
use moss_sim::{simulate_random, simulate_random_compiled, CompiledSim, GateSim};

/// Random-netlist cases per property (deterministic seeded draws).
const CASES: u64 = 24;

/// Builds a random valid sequential netlist with roughly `cells` standard
/// cells: combinational fanins always reference earlier nodes (so the
/// combinational portion is acyclic by construction), and a fraction of DFF
/// D-pins are rewired to later nodes to create genuine sequential feedback.
fn random_netlist(seed: u64, cells: usize) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = Netlist::new(format!("rand_{seed}"));
    let n_inputs = rng.gen_range(2..6usize);
    let mut nodes: Vec<NodeId> = (0..n_inputs)
        .map(|i| nl.add_input(format!("i{i}")))
        .collect();
    let comb_kinds: Vec<CellKind> = CellKind::ALL
        .into_iter()
        .filter(|k| !k.is_sequential())
        .collect();
    let mut dffs = Vec::new();
    for c in 0..cells {
        if rng.gen_bool(0.15) {
            let d = nodes[rng.gen_range(0..nodes.len())];
            let id = nl.add_cell(CellKind::Dff, format!("r{c}"), &[d]).unwrap();
            dffs.push(id);
            nodes.push(id);
        } else {
            let kind = comb_kinds[rng.gen_range(0..comb_kinds.len())];
            let fanins: Vec<NodeId> = (0..kind.input_count())
                .map(|_| nodes[rng.gen_range(0..nodes.len())])
                .collect();
            let id = nl.add_cell(kind, format!("u{c}"), &fanins).unwrap();
            nodes.push(id);
        }
    }
    // Sequential feedback: D-pins may legally point "forward" in insertion
    // order (the flop breaks the cycle).
    for &ff in &dffs {
        if rng.gen_bool(0.5) {
            let src = nodes[rng.gen_range(0..nodes.len())];
            nl.replace_fanin(ff, 0, src).unwrap();
        }
    }
    for k in 0..rng.gen_range(1..4usize) {
        let src = nodes[rng.gen_range(0..nodes.len())];
        nl.add_output(format!("o{k}"), src);
    }
    nl
}

/// Cycle counts on both sides of the 64-cycle block boundaries of
/// [`CompiledSim::count_toggles`].
const EDGE_CYCLES: [u64; 5] = [1, 63, 64, 65, 129];

/// Hand-built corners of [`CompiledSim::count_toggles`]' schedule, each
/// with logic off the register loops too: no DFF at all, a D pin read
/// straight from a primary input, a DFF fed directly by another DFF, a
/// tie-driven D pin, a D pin wired to a primary output, a DFF whose D is
/// its own Q, a two-DFF ring with no gates, two loops joined by a pipeline
/// DFF, a loop whose gates read an upstream loop's gate, pipeline DFFs fed
/// by a loop, and a bank of hold-enable registers whose loop region is its
/// whole next-state cone. Several loops read a DFF or a gate upstream of
/// them, whose pre-edge and sampled values differ.
fn edge_netlists() -> Vec<Netlist> {
    let mut out = Vec::new();

    let mut nl = Netlist::new("no_dff");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let g = nl.add_cell(CellKind::Xor2, "u0", &[a, b]).unwrap();
    let h = nl.add_cell(CellKind::Nand2, "u1", &[g, a]).unwrap();
    nl.add_output("y", h);
    out.push(nl);

    let mut nl = Netlist::new("d_from_input");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let q = nl.add_cell(CellKind::Dff, "r0", &[a]).unwrap();
    let g = nl.add_cell(CellKind::And2, "u0", &[q, b]).unwrap();
    nl.add_output("y", g);
    out.push(nl);

    let mut nl = Netlist::new("dff_to_dff");
    let a = nl.add_input("a");
    let g = nl.add_cell(CellKind::Inv, "u0", &[a]).unwrap();
    let q0 = nl.add_cell(CellKind::Dff, "r0", &[g]).unwrap();
    let q1 = nl.add_cell(CellKind::Dff, "r1", &[q0]).unwrap();
    let q2 = nl.add_cell(CellKind::Dff, "r2", &[q1]).unwrap();
    let h = nl.add_cell(CellKind::Aoi21, "u1", &[q0, q1, q2]).unwrap();
    nl.add_output("y", h);
    out.push(nl);

    let mut nl = Netlist::new("tie_driven_d");
    let a = nl.add_input("a");
    let t1 = nl.add_cell(CellKind::Tie1, "t1", &[]).unwrap();
    let t0 = nl.add_cell(CellKind::Tie0, "t0", &[]).unwrap();
    let q1 = nl.add_cell(CellKind::Dff, "r1", &[t1]).unwrap();
    let q0 = nl.add_cell(CellKind::Dff, "r0", &[t0]).unwrap();
    let g = nl.add_cell(CellKind::Mux2, "u0", &[q1, a, q0]).unwrap();
    nl.add_output("y", g);
    out.push(nl);

    let mut nl = Netlist::new("d_from_output");
    let a = nl.add_input("a");
    let q = nl.add_cell(CellKind::Dff, "r0", &[a]).unwrap();
    let g = nl.add_cell(CellKind::Xor2, "u0", &[q, a]).unwrap();
    let y = nl.add_output("y", g);
    nl.replace_fanin(q, 0, y).unwrap();
    out.push(nl);

    let mut nl = Netlist::new("self_loop");
    let a = nl.add_input("a");
    let q = nl.add_cell(CellKind::Dff, "r0", &[a]).unwrap();
    nl.replace_fanin(q, 0, q).unwrap();
    let u = nl.add_cell(CellKind::Dff, "r1", &[a]).unwrap();
    let g = nl.add_cell(CellKind::Xor2, "u0", &[q, u]).unwrap();
    nl.add_output("y", g);
    out.push(nl);

    let mut nl = Netlist::new("dff_ring");
    let a = nl.add_input("a");
    let q0 = nl.add_cell(CellKind::Dff, "r0", &[a]).unwrap();
    let q1 = nl.add_cell(CellKind::Dff, "r1", &[q0]).unwrap();
    nl.replace_fanin(q0, 0, q1).unwrap();
    let g = nl.add_cell(CellKind::Mux2, "u0", &[q0, q1, a]).unwrap();
    nl.add_output("y", g);
    out.push(nl);

    // Loop A (r0) → pipeline r1 → loop B (r2); r3 upstream of loop A.
    let mut nl = Netlist::new("loops_joined_by_pipeline");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let u = nl.add_cell(CellKind::Dff, "r3", &[a]).unwrap();
    let qa = nl.add_cell(CellKind::Dff, "r0", &[a]).unwrap();
    let ga = nl.add_cell(CellKind::Xor2, "u0", &[qa, u]).unwrap();
    nl.replace_fanin(qa, 0, ga).unwrap();
    let p = nl.add_cell(CellKind::Dff, "r1", &[ga]).unwrap();
    let qb = nl.add_cell(CellKind::Dff, "r2", &[a]).unwrap();
    let gb = nl.add_cell(CellKind::Oai21, "u1", &[qb, p, b]).unwrap();
    nl.replace_fanin(qb, 0, gb).unwrap();
    let h = nl.add_cell(CellKind::And2, "u2", &[qb, b]).unwrap();
    nl.add_output("y", h);
    out.push(nl);

    // Loop B's gate reads loop A's gate; loop A reads an upstream gate of
    // an upstream DFF.
    let mut nl = Netlist::new("loop_reads_loop_gate");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let u = nl.add_cell(CellKind::Dff, "r2", &[b]).unwrap();
    let gu = nl.add_cell(CellKind::Nand2, "u3", &[u, a]).unwrap();
    let qa = nl.add_cell(CellKind::Dff, "r0", &[a]).unwrap();
    let ga = nl.add_cell(CellKind::Xnor2, "u0", &[qa, gu]).unwrap();
    nl.replace_fanin(qa, 0, ga).unwrap();
    let qb = nl.add_cell(CellKind::Dff, "r1", &[a]).unwrap();
    let gb = nl.add_cell(CellKind::Aoi21, "u1", &[ga, qb, b]).unwrap();
    nl.replace_fanin(qb, 0, gb).unwrap();
    let h = nl.add_cell(CellKind::Or2, "u2", &[gb, a]).unwrap();
    nl.add_output("y", h);
    out.push(nl);

    // Downstream pipeline DFFs fed by a loop's gate, by its DFF and by an
    // upstream DFF, and one more stage behind them.
    let mut nl = Netlist::new("pipeline_from_loop");
    let a = nl.add_input("a");
    let u = nl.add_cell(CellKind::Dff, "r4", &[a]).unwrap();
    let q = nl.add_cell(CellKind::Dff, "r0", &[a]).unwrap();
    let g = nl.add_cell(CellKind::Xor2, "u0", &[q, u]).unwrap();
    nl.replace_fanin(q, 0, g).unwrap();
    let p0 = nl.add_cell(CellKind::Dff, "r1", &[g]).unwrap();
    let p1 = nl.add_cell(CellKind::Dff, "r2", &[q]).unwrap();
    let h = nl.add_cell(CellKind::Nor3, "u1", &[p0, p1, u]).unwrap();
    let p2 = nl.add_cell(CellKind::Dff, "r3", &[h]).unwrap();
    let o = nl.add_cell(CellKind::And2, "u2", &[p2, g]).unwrap();
    nl.add_output("y", o);
    out.push(nl);

    // Hold-enable registers: r_i' = en ? d_i : r_i, and a parity output.
    let mut nl = Netlist::new("hold_bank");
    let en = nl.add_input("en");
    let mut parity = en;
    for i in 0..6 {
        let d = nl.add_input(format!("d{i}"));
        let q = nl.add_cell(CellKind::Dff, format!("r{i}"), &[d]).unwrap();
        let m = nl
            .add_cell(CellKind::Mux2, format!("m{i}"), &[q, d, en])
            .unwrap();
        nl.replace_fanin(q, 0, m).unwrap();
        parity = nl
            .add_cell(CellKind::Xor2, format!("x{i}"), &[parity, q])
            .unwrap();
    }
    nl.add_output("y", parity);
    out.push(nl);

    out
}

/// Random DFF reset assignment, identical for both engines.
fn random_resets(netlist: &Netlist, rng: &mut StdRng) -> Vec<(NodeId, bool)> {
    netlist
        .dffs()
        .into_iter()
        .map(|d| (d, rng.gen_bool(0.5)))
        .collect()
}

#[test]
fn values_lockstep_equivalence() {
    for case in 0..CASES {
        let seed = 0xc0de ^ (case << 16);
        let netlist = random_netlist(seed, 40 + (case as usize % 3) * 60);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);

        let mut oracle = GateSim::new(&netlist).unwrap();
        let mut compiled = CompiledSim::new(&netlist).unwrap();
        assert_eq!(oracle.values(), compiled.values(), "case {case} new");
        for (d, v) in random_resets(&netlist, &mut rng) {
            oracle.set_state(d, v);
            compiled.set_state(d, v);
        }
        oracle.full_settle();
        compiled.settle();
        assert_eq!(oracle.values(), compiled.values(), "case {case} reset");

        let inputs = netlist.primary_inputs();
        for cycle in 0..64 {
            for &pi in &inputs {
                let v = rng.gen_bool(0.5);
                oracle.set_input(pi, v);
                compiled.set_input(pi, v);
            }
            oracle.step();
            compiled.step();
            assert_eq!(
                oracle.values(),
                compiled.values(),
                "case {case} cycle {cycle}"
            );
        }
    }
}

#[test]
fn toggle_reports_are_bit_identical() {
    let random = (0..CASES).map(|case| {
        let seed = 0xface ^ (case << 12);
        let netlist = random_netlist(seed, 30 + (case as usize % 5) * 40);
        (netlist, 200, seed.wrapping_mul(0x9e37_79b9))
    });
    let edges = edge_netlists()
        .into_iter()
        .chain((0..4).map(|case| random_netlist(0xed9e ^ case, 60)))
        .flat_map(|netlist| EDGE_CYCLES.map(|cycles| (netlist.clone(), cycles, cycles ^ 0x5eed)));
    for (netlist, cycles, stim_seed) in random.chain(edges) {
        let case = format!("{} at {cycles} cycles", netlist.name());
        let mut oracle = GateSim::new(&netlist).unwrap();
        let mut compiled = CompiledSim::new(&netlist).unwrap();
        let reference = simulate_random(&mut oracle, cycles, stim_seed);
        let counted = simulate_random_compiled(&mut compiled, cycles, stim_seed);
        assert_eq!(reference, counted, "{case}");
        assert_eq!(
            oracle.values(),
            compiled.values(),
            "{case}: values after the run"
        );
    }
}

#[test]
fn toggle_rates_helper_matches_gatesim_reference_path() {
    // `toggle_rates` runs on CompiledSim; pin it against the hand-driven
    // GateSim reference including resets.
    let random = (0..8u64).map(|case| {
        let seed = 0xab1e ^ (case << 9);
        (random_netlist(seed, 80), 150, seed)
    });
    let edges = edge_netlists()
        .into_iter()
        .flat_map(|netlist| EDGE_CYCLES.map(|cycles| (netlist.clone(), cycles, 0xab1e ^ cycles)));
    for (netlist, cycles, seed) in random.chain(edges) {
        let mut rng = StdRng::seed_from_u64(seed);
        let resets = random_resets(&netlist, &mut rng);

        let mut oracle = GateSim::new(&netlist).unwrap();
        for &(d, v) in &resets {
            oracle.set_state(d, v);
        }
        oracle.settle();
        let reference = simulate_random(&mut oracle, cycles, seed ^ 1);

        let from_helper = moss_sim::toggle_rates(&netlist, &resets, cycles, seed ^ 1).unwrap();
        assert_eq!(
            reference,
            from_helper,
            "{} at {cycles} cycles",
            netlist.name()
        );
    }
}
