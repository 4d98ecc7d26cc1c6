//! Functional-equivalence screening: the paper's FEP task (Table II).
//!
//! Given a pile of RTL files and a pile of netlists with the pairing lost,
//! recover which netlist implements which RTL by embedding both modalities
//! into MOSS's shared alignment space — the multimodal capability that
//! separates the full model from its ablations.
//!
//! Run with: `cargo run -p moss-bench --example functional_equivalence --release`

use moss::{metrics, MossVariant};
use moss_bench::pipeline::{build_samples, build_world, train_variant, ExperimentConfig};
use moss_bench::run::RunManifest;
use moss_datagen::{random_module, SizeClass};

fn main() {
    let mut manifest = RunManifest::new("functional_equivalence");
    let mut config = ExperimentConfig::tiny();
    config.train.pretrain_epochs = 8;
    config.train.align_epochs = 25;
    let world = build_world(config);

    // Train the alignment on a small corpus…
    let train_modules: Vec<moss_rtl::Module> = (0..6u64)
        .map(|s| random_module(0xa11 + s, SizeClass::Small))
        .collect();
    let train_samples =
        build_samples(&world, &train_modules, &mut manifest).expect("within failure budget");
    println!(
        "training full MOSS with alignment on {} designs…",
        train_samples.len()
    );
    let run = train_variant(&world, MossVariant::Full, &train_samples, &mut manifest)
        .expect("within failure budget");

    // …then shuffle the *training* pairs and recover the pairing.
    let rtl_embs: Vec<Vec<f32>> = run
        .preps
        .iter()
        .map(|p| run.model.rtl_align_vec(&run.store, &world.encoder, p))
        .collect();
    let net_embs: Vec<Vec<f32>> = run
        .preps
        .iter()
        .map(|p| run.model.netlist_align(&run.store, &p.circuit))
        .collect();

    // Center each modality within the group (as the alignment losses and the
    // FEP metric do) so the similarity structure is visible.
    let center = |embs: &[Vec<f32>]| -> Vec<Vec<f32>> {
        let n = embs.len() as f32;
        let d = embs[0].len();
        let mut mean = vec![0.0f32; d];
        for e in embs {
            for (m, &v) in mean.iter_mut().zip(e) {
                *m += v / n;
            }
        }
        embs.iter()
            .map(|e| e.iter().zip(&mean).map(|(&v, &m)| v - m).collect())
            .collect()
    };
    let rtl_c = center(&rtl_embs);
    let net_c = center(&net_embs);

    println!("\nRTL ↔ netlist centered cosine similarity (rows: RTL, cols: netlists):");
    print!("{:>12}", "");
    for p in &run.preps {
        print!("{:>10}", &p.name[..p.name.len().min(9)]);
    }
    println!();
    for (i, r) in rtl_c.iter().enumerate() {
        print!(
            "{:>12}",
            &run.preps[i].name[..run.preps[i].name.len().min(11)]
        );
        for n in &net_c {
            print!("{:>10.3}", metrics::cosine(r, n));
        }
        println!();
    }

    let acc = metrics::fep_accuracy(&rtl_embs, &net_embs) * 100.0;
    println!(
        "\ntop-1 retrieval accuracy: {acc:.1} % (chance = {:.1} %)",
        100.0 / rtl_embs.len() as f64
    );

    // RNM matching scores confirm the diagonal.
    let s_match = run.model.rnm_score(&run.store, &rtl_embs[0], &net_embs[0]);
    let s_mismatch = run
        .model
        .rnm_score(&run.store, &rtl_embs[0], &net_embs[1 % net_embs.len()]);
    println!("RNM matching head: pair score {s_match:.3} vs non-pair score {s_mismatch:.3}");
}
