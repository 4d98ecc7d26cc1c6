//! End-to-end integration tests: RTL → synthesis → ground truth → training
//! → evaluation, across the whole workspace.

use moss::MossVariant;
use moss_bench::pipeline::{
    averages, build_samples, build_world, evaluate_baseline_on, evaluate_variant_on, fep_of,
    train_baseline, train_variant, ExperimentConfig,
};
use moss_bench::run::RunManifest;
use moss_datagen::{random_module, SizeClass};

fn manifest() -> RunManifest {
    RunManifest::new("pipeline_integration")
}

fn tiny_world() -> moss_bench::pipeline::World {
    build_world(ExperimentConfig::tiny())
}

#[test]
fn full_moss_trains_end_to_end_and_beats_chance() {
    let world = tiny_world();
    let modules = vec![
        moss_datagen::max_selector(3, 6),
        moss_datagen::prbs_generator(2, 8),
        moss_datagen::shift_reg(6, 6),
    ];
    let mut m = manifest();
    let samples = build_samples(&world, &modules, &mut m).unwrap();
    let run = train_variant(&world, MossVariant::Full, &samples, &mut m).unwrap();
    // Pre-training must actually reduce the loss…
    let first = run.pretrain.first().expect("epochs ran").total;
    let last = run.pretrain.last().expect("epochs ran").total;
    assert!(last < first, "pretrain loss {first} → {last}");
    // …and alignment curves must exist for the full variant.
    assert!(!run.align.is_empty(), "alignment phase ran");
    // Scores are well-formed percentages.
    let scores = evaluate_variant_on(&run, &run.preps);
    assert_eq!(scores.len(), samples.len());
    for s in &scores {
        assert!((0.0..=100.0).contains(&s.atp), "{}: atp {}", s.name, s.atp);
        assert!((0.0..=100.0).contains(&s.trp), "{}: trp {}", s.name, s.trp);
        assert!((0.0..=100.0).contains(&s.pp), "{}: pp {}", s.name, s.pp);
    }
    let (_, _, pp) = averages(&scores).expect("non-empty score table");
    assert!(pp > 50.0, "power accuracy should be well above zero: {pp}");
}

#[test]
fn baseline_trains_and_evaluates() {
    let world = tiny_world();
    let modules = vec![
        moss_datagen::pipeline_reg(3, 6),
        moss_datagen::error_logger(4, 4),
    ];
    let mut m = manifest();
    let samples = build_samples(&world, &modules, &mut m).unwrap();
    let run = train_baseline(&world, &samples, &mut m).unwrap();
    let first = run.pretrain.first().expect("epochs ran").total;
    let last = run.pretrain.last().expect("epochs ran").total;
    assert!(last < first, "baseline loss {first} → {last}");
    let scores = evaluate_baseline_on(&run, &run.preps);
    assert_eq!(scores.len(), 2);
}

#[test]
fn alignment_lifts_fep_above_unaligned_variants() {
    let mut config = ExperimentConfig::tiny();
    config.train.pretrain_epochs = 6;
    config.train.align_epochs = 20;
    let world = build_world(config);
    let modules: Vec<_> = (0..5u64)
        .map(|s| random_module(0xfe9 + s, SizeClass::Small))
        .collect();
    let mut m = manifest();
    let samples = build_samples(&world, &modules, &mut m).unwrap();

    let full = train_variant(&world, MossVariant::Full, &samples, &mut m).unwrap();
    let fep_full = fep_of(&world, &full, &full.preps).expect("non-empty group");

    let unaligned = train_variant(&world, MossVariant::WithoutAlignment, &samples, &mut m).unwrap();
    let fep_unaligned = fep_of(&world, &unaligned, &unaligned.preps).expect("non-empty group");

    // The full model aligns its own training set essentially perfectly;
    // the unaligned variant's shared space is an untrained projection.
    assert!(
        fep_full > fep_unaligned,
        "alignment must help: full {fep_full}% vs unaligned {fep_unaligned}%"
    );
    assert!(fep_full >= 60.0, "aligned retrieval strong: {fep_full}%");
}

#[test]
fn every_variant_prepares_and_predicts_every_benchmark() {
    let world = tiny_world();
    // One representative benchmark, all four variants.
    let mut m = manifest();
    let samples = build_samples(&world, &[moss_datagen::max_selector(3, 6)], &mut m).unwrap();
    for variant in MossVariant::ALL {
        let run = train_variant(&world, variant, &samples, &mut m).unwrap();
        let pred = run.model.predict(&run.store, &run.preps[0]);
        assert_eq!(pred.toggle.len(), run.preps[0].cell_nodes.len());
        assert_eq!(pred.arrival_ns.len(), run.preps[0].dff_nodes.len());
        assert!(pred.power_nw.is_finite() && pred.power_nw > 0.0);
    }
}

#[test]
fn ground_truth_pipeline_is_deterministic_across_worlds() {
    let w1 = tiny_world();
    let w2 = tiny_world();
    let m = moss_datagen::prbs_generator(2, 8);
    let mut mf1 = manifest();
    let mut mf2 = manifest();
    let s1 = build_samples(&w1, std::slice::from_ref(&m), &mut mf1).unwrap();
    let s2 = build_samples(&w2, std::slice::from_ref(&m), &mut mf2).unwrap();
    assert_eq!(s1[0].labels.toggle, s2[0].labels.toggle);
    assert_eq!(s1[0].labels.total_power_nw, s2[0].labels.total_power_nw);
    assert_eq!(s1[0].rtl_text, s2[0].rtl_text);
}
