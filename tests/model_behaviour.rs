//! Behavioural integration tests of the models: determinism, checkpoint
//! round-trips, thread-safety bounds, and variant-specific gradient flow.

use moss::{
    CircuitSample, MossConfig, MossModel, MossVariant, Prepared, SampleOptions, TaskModel,
    TrainConfig, Trainer,
};
use moss_llm::{EncoderConfig, TextEncoder};
use moss_netlist::CellLibrary;
use moss_tensor::{load_params, save_params, ParamStore};

fn setup(variant: MossVariant) -> (MossModel, TextEncoder, ParamStore, Prepared) {
    let module = moss_datagen::max_selector(3, 6);
    let lib = CellLibrary::default();
    let sample = CircuitSample::build(
        &module,
        &lib,
        &SampleOptions {
            sim_cycles: 128,
            ..SampleOptions::default()
        },
    )
    .expect("builds");
    let mut store = ParamStore::new();
    let encoder = TextEncoder::new(EncoderConfig::tiny(), &mut store, 1);
    let model = MossModel::new(MossConfig::small(16, variant), &mut store, 2);
    let prep = model
        .prepare(&sample, &encoder, &store, &lib, 500.0)
        .expect("prepares");
    (model, encoder, store, prep)
}

#[test]
fn predictions_are_deterministic() {
    let (model, _enc, store, prep) = setup(MossVariant::Full);
    let a = model.predict(&store, &prep);
    let b = model.predict(&store, &prep);
    assert_eq!(a.toggle, b.toggle);
    assert_eq!(a.arrival_ns, b.arrival_ns);
    assert_eq!(a.power_nw, b.power_nw);
    assert_eq!(
        model.netlist_align(&store, &prep.circuit),
        model.netlist_align(&store, &prep.circuit)
    );
}

#[test]
fn checkpoint_round_trip_preserves_predictions() {
    let (model, _enc, store, prep) = setup(MossVariant::Full);
    let before = model.predict(&store, &prep);

    let mut bytes = Vec::new();
    save_params(&mut bytes, &store).expect("saves");
    let restored = load_params(bytes.as_slice()).expect("loads");
    assert_eq!(restored.len(), store.len());
    assert_eq!(restored.scalar_count(), store.scalar_count());

    let after = model.predict(&restored, &prep);
    assert_eq!(before.toggle, after.toggle);
    assert_eq!(before.arrival_ns, after.arrival_ns);
}

#[test]
fn core_types_are_send_and_sync() {
    fn assert_bounds<T: Send + Sync>() {}
    assert_bounds::<MossModel>();
    assert_bounds::<ParamStore>();
    assert_bounds::<Prepared>();
    assert_bounds::<moss_netlist::Netlist>();
    assert_bounds::<moss_rtl::Module>();
    assert_bounds::<moss_sim::GateSim>();
}

#[test]
fn adaptive_variant_clusters_within_budget_and_ablation_is_uniform() {
    let (model, _, _, prep_full) = setup(MossVariant::Full);
    // Cluster count depends on the encoder's embedding geometry (a tiny
    // untuned encoder may legitimately place every cell kind in one
    // DBSCAN cluster); the hard invariants are the aggregator budget and
    // that the ablation is exactly uniform.
    assert!(prep_full.circuit.clusters.count >= 1);
    assert!(prep_full.circuit.clusters.count <= model.config().aggregators);
    let (_, _, _, prep_uniform) = setup(MossVariant::WithoutAdaptiveAggregator);
    assert_eq!(
        prep_uniform.circuit.clusters.count, 1,
        "ablation is uniform"
    );
}

#[test]
fn alignment_gradients_only_exist_for_full_variant() {
    let lib = CellLibrary::default();
    let other = CircuitSample::build(
        &moss_datagen::prbs_generator(2, 6),
        &lib,
        &SampleOptions {
            sim_cycles: 128,
            ..SampleOptions::default()
        },
    )
    .expect("builds");
    for variant in MossVariant::ALL {
        let (model, encoder, mut store, prep) = setup(variant);
        let second = model
            .prepare(&other, &encoder, &store, &lib, 500.0)
            .expect("prepares");
        let wn = store.find("moss.align.wn").expect("registered");
        let before = store.get(wn).clone();
        let mut trainer = Trainer::new(TrainConfig {
            align_epochs: 1,
            ..TrainConfig::default()
        });
        let history = trainer.align(&model, &encoder, &mut store, &[prep, second]);
        assert_eq!(
            !history.is_empty(),
            variant.alignment(),
            "the alignment phase must track the variant ({variant:?})"
        );
        assert_eq!(
            store.get(wn).data() != before.data(),
            variant.alignment(),
            "W_n trains only under alignment ({variant:?})"
        );
    }
}

#[test]
fn llm_features_change_the_prepared_matrix() {
    let (_, _, _, with_llm) = setup(MossVariant::Full);
    let (_, _, _, without_llm) = setup(MossVariant::WithoutFeatureEnhancement);
    // Same circuit, same width; different content in the LLM slots.
    assert_eq!(
        with_llm.circuit.features.shape(),
        without_llm.circuit.features.shape()
    );
    assert_ne!(
        with_llm.circuit.features.data(),
        without_llm.circuit.features.data()
    );
}
