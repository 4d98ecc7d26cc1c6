//! Ablation benches for the design choices DESIGN.md calls out: adaptive
//! attention vs uniform aggregation, two-phase vs single-phase propagation,
//! and the propagation-iteration count (moss-benchkit harness).
//!
//! Run with `cargo bench -p moss-bench --bench ablations`.

use std::time::Duration;

use moss_benchkit::Suite;
use moss_gnn::{CircuitGnn, CircuitGraph, Clustering, GnnConfig};
use moss_netlist::Levelization;
use moss_tensor::{Graph, ParamStore, Tensor};

fn prepared_circuit() -> CircuitGraph {
    let m = moss_datagen::prbs_generator(6, 16);
    let synth = moss_synth::synthesize(&m, &moss_synth::SynthOptions::default()).unwrap();
    let n = synth.netlist.node_count();
    let features = Tensor::xavier(n, 8, 3);
    let clusters = Clustering {
        assignment: (0..n).map(|i| i % 3).collect(),
        count: 3,
    };
    let levels = Levelization::of(&synth.netlist).unwrap();
    CircuitGraph::new(&synth.netlist, &levels, features, clusters).unwrap()
}

fn forward_time(suite: &mut Suite, name: &str, config: GnnConfig, circuit: &CircuitGraph) {
    let mut store = ParamStore::new();
    let gnn = CircuitGnn::new(config, &mut store, 5);
    suite.bench(name, || {
        let mut g = Graph::new();
        std::hint::black_box(gnn.forward(&mut g, &store, circuit));
    });
}

fn main() {
    let mut suite =
        Suite::new("ablations").with_budget(Duration::from_millis(100), Duration::from_millis(500));
    let circuit = prepared_circuit();
    let base = GnnConfig {
        d_in: 8,
        d_hidden: 16,
        iterations: 4,
        aggregators: 3,
        attention: true,
        two_phase: true,
    };

    forward_time(&mut suite, "forward_adaptive_attention", base, &circuit);
    forward_time(
        &mut suite,
        "forward_uniform_mean",
        GnnConfig {
            attention: false,
            ..base
        },
        &circuit,
    );

    forward_time(&mut suite, "forward_two_phase", base, &circuit);
    forward_time(
        &mut suite,
        "forward_single_phase",
        GnnConfig {
            two_phase: false,
            ..base
        },
        &circuit,
    );

    for iters in [1usize, 4, 10] {
        forward_time(
            &mut suite,
            &format!("propagation_iterations/{iters}"),
            GnnConfig {
                iterations: iters,
                ..base
            },
            &circuit,
        );
    }
}
