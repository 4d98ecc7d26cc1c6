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
    for case in 0..CASES {
        let seed = 0xface ^ (case << 12);
        let netlist = random_netlist(seed, 30 + (case as usize % 5) * 40);
        let stim_seed = seed.wrapping_mul(0x9e37_79b9);
        let reference = simulate_random(&mut GateSim::new(&netlist).unwrap(), 200, stim_seed);
        let compiled =
            simulate_random_compiled(&mut CompiledSim::new(&netlist).unwrap(), 200, stim_seed);
        assert_eq!(reference, compiled, "case {case}");
    }
}

#[test]
fn toggle_rates_helper_matches_gatesim_reference_path() {
    // `toggle_rates` now runs on CompiledSim; pin it against the
    // hand-driven GateSim reference including resets.
    for case in 0..8u64 {
        let seed = 0xab1e ^ (case << 9);
        let netlist = random_netlist(seed, 80);
        let mut rng = StdRng::seed_from_u64(seed);
        let resets = random_resets(&netlist, &mut rng);

        let mut oracle = GateSim::new(&netlist).unwrap();
        for &(d, v) in &resets {
            oracle.set_state(d, v);
        }
        oracle.settle();
        let reference = simulate_random(&mut oracle, 150, seed ^ 1);

        let from_helper = moss_sim::toggle_rates(&netlist, &resets, 150, seed ^ 1).unwrap();
        assert_eq!(reference, from_helper, "case {case}");
    }
}
