//! Accuracy ablations for the design choices DESIGN.md calls out: the
//! two-phase turnaround and the propagation-iteration count. (The adaptive-
//! aggregator and LLM-feature ablations are the paper's own w/o AA / w/o
//! FAA columns in `table1`.)
//!
//! Usage: `cargo run -p moss-bench --bin ablation --release [-- --tiny|--quick|--full]`

use std::process::ExitCode;

use moss::{CircuitSample, MossConfig, MossModel, MossVariant, Trainer};
use moss_bench::pipeline::{build_samples, build_world, evaluate_on, prepare_for, World};
use moss_bench::run::{PipelineError, RunManifest};

/// Train-set accuracy (ATP, TRP, PP) of one configuration, or `None` when
/// every sample was skipped at preparation.
type Scores = Option<(f64, f64, f64)>;

/// Trains one tweaked configuration and returns its labelled accuracy row.
/// The sweeps share the default configuration, so each distinct
/// configuration trains once: `trained` keeps the scores of the ones
/// already run.
fn run_config(
    world: &World,
    samples: &[CircuitSample],
    label: &str,
    manifest: &mut RunManifest,
    trained: &mut Vec<(MossConfig, Scores)>,
    tweak: impl Fn(&mut MossConfig),
) -> Result<Option<(String, f64, f64, f64)>, PipelineError> {
    let mut config = MossConfig {
        d_hidden: world.config.d_hidden,
        iterations: world.config.iterations,
        ..MossConfig::small(world.config.encoder.d_model, MossVariant::WithoutAlignment)
    };
    tweak(&mut config);
    let scores = match trained.iter().find(|(c, _)| *c == config) {
        Some(&(_, scores)) => scores,
        None => {
            let scores = train_config(world, samples, manifest, config)?;
            trained.push((config, scores));
            scores
        }
    };
    Ok(scores.map(|(atp, trp, pp)| (label.to_owned(), atp, trp, pp)))
}

fn train_config(
    world: &World,
    samples: &[CircuitSample],
    manifest: &mut RunManifest,
    config: MossConfig,
) -> Result<Scores, PipelineError> {
    let mut store = world.store.clone();
    let model = MossModel::new(config, &mut store, world.config.seed ^ 0xab1a);
    let preps = prepare_for(world, &model, &store, samples, manifest)?;
    if preps.is_empty() {
        return Ok(None);
    }
    Trainer::new(world.config.train).pretrain(&model, &mut store, &preps);
    let n = preps.len() as f64;
    let (mut atp, mut trp, mut pp) = (0.0, 0.0, 0.0);
    for s in evaluate_on(&model, &store, &preps) {
        atp += s.atp / n;
        trp += s.trp / n;
        pp += s.pp / n;
    }
    Ok(Some((atp, trp, pp)))
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
    let mut trained = Vec::new();
    eprintln!("# iterations sweep…");
    for iters in [1usize, 2, 4, 8] {
        rows.extend(run_config(
            &world,
            &samples,
            &format!("iterations={iters}"),
            manifest,
            &mut trained,
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
            &mut trained,
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
        &mut trained,
        |_| {},
    )?);
    rows.extend(run_config(
        &world,
        &samples,
        "two_phase=off",
        manifest,
        &mut trained,
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
