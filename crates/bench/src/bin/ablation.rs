//! Accuracy ablations for the design choices DESIGN.md calls out: the
//! two-phase turnaround and the propagation-iteration count. (The adaptive-
//! aggregator and LLM-feature ablations are the paper's own w/o AA / w/o
//! FAA columns in `table1`.)
//!
//! Usage: `cargo run -p moss-bench --bin ablation --release [-- --tiny|--quick|--full]`

use std::process::ExitCode;

use moss::{metrics, CircuitSample, MossConfig, MossModel, MossVariant, TrainConfig, Trainer};
use moss_bench::pipeline::{build_samples, build_world, World};
use moss_bench::run::{PipelineError, RunManifest};

/// Trains one tweaked configuration and returns its train-set accuracy row,
/// or `None` when every sample was skipped at preparation.
fn run_config(
    world: &World,
    samples: &[CircuitSample],
    label: &str,
    manifest: &mut RunManifest,
    tweak: impl Fn(&mut MossConfig),
) -> Result<Option<(String, f64, f64, f64)>, PipelineError> {
    let mut store = world.store.clone();
    let mut config = MossConfig {
        d_hidden: world.config.d_hidden,
        iterations: world.config.iterations,
        ..MossConfig::small(world.config.encoder.d_model, MossVariant::WithoutAlignment)
    };
    tweak(&mut config);
    let model = MossModel::new(config, &mut store, world.config.seed ^ 0xab1a);
    let mut preps = Vec::with_capacity(samples.len());
    for s in samples {
        match model.prepare(
            s,
            &world.encoder,
            &store,
            &world.lib,
            world.config.clock_mhz,
        ) {
            Ok(p) => {
                manifest.record_success();
                preps.push(p);
            }
            Err(e) => manifest.record_skip(s.name.clone(), "prepare", e.into()),
        }
    }
    manifest.check_budget()?;
    if preps.is_empty() {
        return Ok(None);
    }
    let mut trainer = Trainer::new(TrainConfig {
        align_epochs: 0,
        ..world.config.train
    });
    trainer.pretrain(&model, &mut store, &preps);
    let (mut atp, mut trp, mut pp) = (0.0, 0.0, 0.0);
    for p in &preps {
        let pred = model.predict(&store, p);
        atp += metrics::atp_accuracy(&pred, p) * 100.0 / preps.len() as f64;
        trp += metrics::trp_accuracy(&pred, p) * 100.0 / preps.len() as f64;
        pp += metrics::pp_accuracy(&pred, p) * 100.0 / preps.len() as f64;
    }
    Ok(Some((label.to_owned(), atp, trp, pp)))
}

fn main() -> ExitCode {
    moss_bench::run::run_experiment("ablation", real_main)
}

fn real_main(manifest: &mut RunManifest) -> Result<(), PipelineError> {
    let config = moss_bench::config_from_args();
    eprintln!("# building world…");
    let world = build_world(config);
    eprintln!("# building ground truth (training-set fit; ablation compares capacity)…");
    let modules = vec![
        moss_datagen::max_selector(4, 6),
        moss_datagen::prbs_generator(3, 10),
        moss_datagen::shift_reg(10, 8),
        moss_datagen::fifo_ctrl(3),
        moss_datagen::uart_tx(8),
        moss_datagen::alu(8),
    ];
    let samples = build_samples(&world, &modules, manifest)?;

    let mut rows = Vec::new();
    eprintln!("# iterations sweep…");
    for iters in [1usize, 2, 4, 8] {
        rows.extend(run_config(
            &world,
            &samples,
            &format!("iterations={iters}"),
            manifest,
            |c| {
                c.iterations = iters;
            },
        )?);
    }
    eprintln!("# hidden-width sweep…");
    for d in [8usize, 16, 32] {
        rows.extend(run_config(
            &world,
            &samples,
            &format!("d_hidden={d}"),
            manifest,
            |c| {
                c.d_hidden = d;
            },
        )?);
    }
    eprintln!("# propagation-phase ablation…");
    rows.extend(run_config(
        &world,
        &samples,
        "two_phase=on",
        manifest,
        |_| {},
    )?);
    rows.extend(run_config(
        &world,
        &samples,
        "two_phase=off",
        manifest,
        |c| {
            c.two_phase = false;
        },
    )?);

    println!(
        "\nAblation — design-choice accuracy (train-set fit, {} circuits)",
        samples.len()
    );
    println!(
        "{:<18} {:>8} {:>8} {:>8}",
        "configuration", "ATP", "TRP", "PP"
    );
    for (label, atp, trp, pp) in rows {
        println!("{label:<18} {atp:>8.1} {trp:>8.1} {pp:>8.1}");
    }
    println!("\nexpected shape: accuracy rises with propagation iterations (the paper\nrepeats the two-phase process 'e.g. 10' times) and with hidden width, and\ndrops without the turnaround phase (sequential feedback unmodeled).");
    Ok(())
}
