//! Differential suite: the tape-free [`CircuitGnn::infer`] against its
//! oracle, the tape forward [`CircuitGnn::forward`], compared bitwise on
//! final node states and the graph embedding.
//!
//! The circuits are seeded random sequential netlists with the shapes that
//! stress the in-place schedule: shift-register chains (DFF→DFF edges)
//! whose head reads back from the logic (DFF feedback), zero-fanin tie
//! cells, primary outputs, and every fanin arity. Clusterings are random
//! and put the DFFs of a chain in different clusters, so one turnaround
//! group can read a DFF another group updates. Weights include nonzero
//! attention keys and pin biases, so the softmax is not uniform, and
//! nonzero state biases.

use moss_gnn::{CircuitGnn, CircuitGraph, Clustering, GnnConfig};
use moss_netlist::{CellKind, Levelization, Netlist, NodeId};
use moss_prng::rngs::StdRng;
use moss_prng::{Rng, SeedableRng};
use moss_tensor::{Graph, ParamStore, Tensor};

const CASES: u64 = 32;

/// Combinational kinds the generator draws from (arity 0 through 3).
const COMB: &[CellKind] = &[
    CellKind::Tie0,
    CellKind::Tie1,
    CellKind::Inv,
    CellKind::Buf,
    CellKind::Nand2,
    CellKind::Nor2,
    CellKind::And2,
    CellKind::Or2,
    CellKind::Xor2,
    CellKind::Xnor2,
    CellKind::Nand3,
    CellKind::Nor3,
    CellKind::And3,
    CellKind::Or3,
    CellKind::Aoi21,
    CellKind::Oai21,
    CellKind::Mux2,
];

/// A random sequential netlist and the DFF chains it contains.
fn random_netlist(rng: &mut StdRng, name: &str) -> (Netlist, Vec<Vec<NodeId>>) {
    let mut nl = Netlist::new(name);
    let mut pool: Vec<NodeId> = (0..rng.gen_range(1..=4usize))
        .map(|i| nl.add_input(format!("i{i}")))
        .collect();
    pool.push(nl.add_cell(CellKind::Tie0, "tie_lo", &[]).unwrap());

    // Shift-register chains: stage k+1 reads stage k.
    let mut chains = Vec::new();
    for c in 0..rng.gen_range(1..=3usize) {
        let mut prev = pool[rng.gen_range(0..pool.len())];
        let mut chain = Vec::new();
        for k in 0..rng.gen_range(2..=5usize) {
            prev = nl
                .add_cell(CellKind::Dff, format!("s{c}_{k}"), &[prev])
                .unwrap();
            chain.push(prev);
            pool.push(prev);
        }
        chains.push(chain);
    }

    for u in 0..rng.gen_range(6..=48usize) {
        let kind = if rng.gen_bool(0.1) {
            CellKind::Dff
        } else {
            COMB[rng.gen_range(0..COMB.len())]
        };
        let fanins: Vec<NodeId> = (0..kind.input_count())
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        pool.push(nl.add_cell(kind, format!("u{u}"), &fanins).unwrap());
    }

    // Feedback: each chain head now reads a node built after it.
    for chain in &chains {
        let late = pool[rng.gen_range(pool.len() / 2..pool.len())];
        nl.replace_fanin(chain[0], 0, late).unwrap();
    }
    for o in 0..rng.gen_range(1..=3usize) {
        nl.add_output(format!("o{o}"), pool[rng.gen_range(1..pool.len())]);
    }
    (nl, chains)
}

/// Random features and a random clustering. Consecutive stages of every
/// other chain sit in different clusters (so their turnaround groups differ);
/// the remaining chains sit whole in one cluster, so one turnaround group
/// reads DFFs it also updates.
fn circuit_for(
    rng: &mut StdRng,
    nl: &Netlist,
    chains: &[Vec<NodeId>],
    d_in: usize,
    clusters: usize,
) -> CircuitGraph {
    let n = nl.node_count();
    let data = (0..n * d_in)
        .map(|_| rng.gen_range(-1.0f32..=1.0))
        .collect();
    let features = Tensor::from_vec(data, n, d_in);
    let mut assignment: Vec<usize> = (0..n).map(|_| rng.gen_range(0..clusters)).collect();
    for (c, chain) in chains.iter().enumerate() {
        let offset = rng.gen_range(0..clusters);
        let stride = if c % 2 == 0 { 1 } else { 0 };
        for (k, ff) in chain.iter().enumerate() {
            assignment[ff.index()] = (offset + stride * k) % clusters;
        }
    }
    let clustering = Clustering {
        assignment,
        count: clusters,
    };
    CircuitGraph::new(nl, &Levelization::of(nl).unwrap(), features, clustering).unwrap()
}

/// A model whose attention keys, pin biases and state biases are nonzero
/// (they start at zero, where the order in which a bias is added cannot
/// show).
fn model(config: GnnConfig, seed: u64) -> (CircuitGnn, ParamStore) {
    let mut store = ParamStore::new();
    let gnn = CircuitGnn::new(config, &mut store, seed);
    let d = config.d_hidden;
    for a in 0..config.aggregators {
        let wk = store.find(&format!("gnn.agg{a}.wk")).unwrap();
        store.set(wk, Tensor::xavier(d, d, seed ^ (0x100 + a as u64)));
        let bias = store.find(&format!("gnn.agg{a}.pin_bias")).unwrap();
        let b = Tensor::xavier(1, 3, seed ^ (0x200 + a as u64));
        store.set(bias, b);
    }
    let biases = ["b_in", "up.bz", "up.bh", "dff.bz", "dff.bh", "b_ro"];
    for (i, name) in biases.into_iter().enumerate() {
        let id = store.find(&format!("gnn.{name}")).unwrap();
        store.set(id, Tensor::xavier(1, d, seed ^ (0x300 + i as u64)));
    }
    (gnn, store)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Runs the tape forward and asserts the pass matches it bitwise.
fn assert_matches_tape(gnn: &CircuitGnn, store: &ParamStore, circuit: &CircuitGraph, what: &str) {
    let mut g = Graph::new();
    let tape = gnn.forward(&mut g, store, circuit);
    let pass = gnn.infer(store, circuit);
    assert_eq!(g.value(tape.states).shape(), pass.states.shape(), "{what}");
    assert_eq!(
        bits(g.value(tape.states)),
        bits(&pass.states),
        "{what}: final states differ from the tape"
    );
    assert_eq!(
        bits(g.value(tape.graph_embedding)),
        bits(&pass.graph_embedding),
        "{what}: graph embedding differs from the tape"
    );
}

#[test]
fn random_sequential_netlists_match_the_tape_bitwise() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1f3e_0000 + case);
        let (nl, chains) = random_netlist(&mut rng, &format!("r{case}"));
        let d_in = [4, 7, 12][rng.gen_range(0..3usize)];
        let config = GnnConfig {
            d_in,
            // 16 is the trained width; 8 and 20 exercise the kernels'
            // partial and two-chunk column tails.
            d_hidden: [8, 16, 20][rng.gen_range(0..3usize)],
            iterations: rng.gen_range(1..=3usize),
            aggregators: 4,
            attention: case % 2 == 0,
            two_phase: case % 4 < 2,
        };
        let clusters = rng.gen_range(2..=config.aggregators);
        let circuit = circuit_for(&mut rng, &nl, &chains, d_in, clusters);
        let (gnn, store) = model(config, case);
        assert_matches_tape(&gnn, &store, &circuit, &format!("case {case} ({config:?})"));
    }
}

#[test]
fn a_group_large_enough_for_the_pool_matches_the_tape() {
    // One level of 4200 inverters in one cluster: the group's matmuls and
    // the input projection cross the kernels' parallel thresholds.
    let mut nl = Netlist::new("wide");
    let a = nl.add_input("a");
    let ff = nl.add_cell(CellKind::Dff, "r", &[a]).unwrap();
    let mut last = ff;
    for i in 0..4200 {
        last = nl
            .add_cell(
                CellKind::Inv,
                format!("u{i}"),
                &[if i % 2 == 0 { a } else { ff }],
            )
            .unwrap();
    }
    nl.replace_fanin(ff, 0, last).unwrap();
    nl.add_output("y", last);
    let mut rng = StdRng::seed_from_u64(7);
    let circuit = circuit_for(&mut rng, &nl, &[], 16, 1);
    let mut config = GnnConfig::small(16);
    config.iterations = 1;
    let (gnn, store) = model(config, 3);
    assert_matches_tape(&gnn, &store, &circuit, "wide");
}
