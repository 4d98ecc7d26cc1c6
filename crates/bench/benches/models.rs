//! Benches for the learned components: encoder embedding, GNN forward on
//! the tape (`gnn_forward/<circuit>`, the full `predict`: trunk plus the
//! toggle, arrival and power heads) beside the tape-free pass on the same
//! circuit (`gnn_infer/<circuit>`, the `netlist_align` every served miss
//! runs: trunk plus the alignment projection; also alone on the 5k-node
//! `mult_16x32_to_48`), and a full training step (moss-benchkit harness).
//!
//! Emits `BENCH_models.json` at the workspace root. Run with
//! `cargo bench -p moss-bench --bench models`. `MOSS_BENCH_OUT=path`
//! redirects the JSON report and `MOSS_BENCH_QUICK=1` shrinks the timing
//! budgets (used by `cargo xtask bench-check`).

use std::time::Duration;

use moss::{CircuitSample, MossConfig, MossModel, MossVariant, SampleOptions, TaskModel};
use moss_benchkit::Suite;
use moss_llm::{EncoderConfig, TextEncoder};
use moss_netlist::CellLibrary;
use moss_tensor::{Adam, Graph, ParamStore};

struct Fixture {
    model: MossModel,
    store: ParamStore,
    prep: moss::Prepared,
}

fn fixture(module: moss_rtl::Module) -> Fixture {
    let lib = CellLibrary::default();
    let sample = CircuitSample::build(
        &module,
        &lib,
        &SampleOptions {
            sim_cycles: 256,
            ..SampleOptions::default()
        },
    )
    .expect("builds");
    let mut store = ParamStore::new();
    let encoder = TextEncoder::new(EncoderConfig::tiny(), &mut store, 1);
    let model = MossModel::new(MossConfig::small(16, MossVariant::Full), &mut store, 2);
    let prep = model
        .prepare(&sample, &encoder, &store, &lib, 500.0)
        .expect("prepares");
    Fixture { model, store, prep }
}

fn bench_encoder(suite: &mut Suite) {
    let mut store = ParamStore::new();
    let encoder = TextEncoder::new(EncoderConfig::small(), &mut store, 1);
    suite.bench("llm_embed_register_prompt", || {
        std::hint::black_box(encoder.embed_text(
            &store,
            "register acc is a 24 bit state element updated every clock cycle \
             with acc + prod ; it depends on input a and input b",
        ));
    });
}

fn bench_gnn_forward(suite: &mut Suite) {
    for m in [
        moss_datagen::max_selector(5, 8),
        moss_datagen::signed_mac(10, 12),
    ] {
        let fx = fixture(m);
        suite.bench(&format!("gnn_forward/{}", fx.prep.name), || {
            std::hint::black_box(fx.model.predict(&fx.store, &fx.prep));
        });
        bench_gnn_infer(suite, &fx);
    }
    // The largest Table I circuit (4,144 cells, 5,090 nodes): the pass
    // alone, where a served miss spends most of its time.
    bench_gnn_infer(suite, &fixture(moss_datagen::mult_16x32_to_48()));
}

fn bench_gnn_infer(suite: &mut Suite, fx: &Fixture) {
    suite.bench(&format!("gnn_infer/{}", fx.prep.name), || {
        std::hint::black_box(fx.model.netlist_align(&fx.store, &fx.prep.circuit));
    });
}

fn bench_train_step(suite: &mut Suite) {
    let fx = fixture(moss_datagen::max_selector(5, 8));
    let mut store = fx.store.clone();
    let mut opt = Adam::new(1e-3);
    suite.bench("train_step/max_selector_forward_backward_step", || {
        let mut g = Graph::new();
        let l = fx.model.local_losses(&mut g, &store, &fx.prep);
        let s1 = g.add(l.toggle, l.arrival);
        let total = g.add(s1, l.power);
        let grads = g.backward(total);
        opt.step(&mut store, &grads);
    });
}

fn main() {
    let mut suite =
        Suite::new("models").with_budget(Duration::from_millis(100), Duration::from_millis(500));
    if std::env::var("MOSS_BENCH_QUICK").is_ok_and(|v| v == "1") {
        suite = suite.with_budget(Duration::from_millis(50), Duration::from_millis(200));
    }
    bench_encoder(&mut suite);
    bench_gnn_forward(&mut suite);
    bench_train_step(&mut suite);

    let out = std::env::var("MOSS_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_models.json").to_string()
    });
    suite.write_json(&out).expect("write models bench JSON");
}
