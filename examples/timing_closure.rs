//! Timing-closure scenario: use MOSS's arrival-time predictions to screen
//! design variants before running full STA — the downstream EDA use the
//! paper's intro motivates.
//!
//! Synthesizes several structurally different netlists of the same RTL
//! (different mapping styles, as Design Compiler optimization rounds would
//! produce), predicts each variant's worst DFF arrival with a trained MOSS
//! model, and compares the predicted ranking against exact STA.
//!
//! Run with: `cargo run -p moss-bench --example timing_closure --release`

use moss::{
    CircuitSample, MossConfig, MossModel, MossVariant, SampleOptions, TaskModel, TrainConfig,
    Trainer,
};
use moss_llm::{EncoderConfig, TextEncoder};
use moss_netlist::CellLibrary;
use moss_synth::SynthOptions;
use moss_tensor::ParamStore;
use moss_timing::{SlackReport, TimingReport};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let module = moss_datagen::signed_mac(8, 10);
    let lib = CellLibrary::default();

    // Build samples for four mapping variants of the same RTL.
    let samples: Vec<CircuitSample> = (0..4u64)
        .map(|seed| {
            CircuitSample::build(
                &module,
                &lib,
                &SampleOptions {
                    synth: SynthOptions::variant(seed),
                    sim_cycles: 1024,
                    ..SampleOptions::default()
                },
            )
        })
        .collect::<Result<_, _>>()?;

    let mut store = ParamStore::new();
    let encoder = TextEncoder::new(EncoderConfig::tiny(), &mut store, 1);
    let model = MossModel::new(MossConfig::small(16, MossVariant::Full), &mut store, 2);
    let preps: Vec<_> = samples
        .iter()
        .map(|s| model.prepare(s, &encoder, &store, &lib, 500.0))
        .collect::<Result<_, _>>()?;

    let mut trainer = Trainer::new(TrainConfig {
        pretrain_epochs: 25,
        align_epochs: 0,
        learning_rate: 3e-3,
        ..TrainConfig::default()
    });
    trainer.pretrain(&model, &mut store, &preps);

    println!("variant  cells  predicted worst AT   exact STA worst AT   min clock period");
    let mut ranked: Vec<(usize, f64, f64)> = Vec::new();
    for (i, (sample, prep)) in samples.iter().zip(&preps).enumerate() {
        let pred = model.predict(&store, prep);
        let predicted_worst = pred.arrival_ns.iter().copied().fold(0.0f32, f32::max) as f64;
        let sta = TimingReport::analyze(&sample.netlist, &lib)?;
        let exact_worst = sta
            .dff_arrivals()
            .iter()
            .map(|&(_, ps)| ps / 1000.0)
            .fold(0.0, f64::max);
        println!(
            "{:>7}  {:>5}  {:>17.3}ns  {:>17.3}ns  {:>13.3}ns",
            i,
            sample.cell_count(),
            predicted_worst,
            exact_worst,
            sta.min_clock_period_ps() / 1000.0,
        );
        ranked.push((i, predicted_worst, exact_worst));
    }

    // Full slack report for the first variant at a 2 ns clock, as a
    // signoff engineer would read it.
    let sta0 = TimingReport::analyze(&samples[0].netlist, &lib)?;
    let slack = SlackReport::against(&sta0, 2_000.0, 30.0);
    println!(
        "\nvariant 0 endpoint report @ 2 ns:\n{}",
        slack.render(&samples[0].netlist, 5)
    );

    // Does the predicted ranking agree with STA's?
    let mut by_pred = ranked.clone();
    by_pred.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    let mut by_truth = ranked;
    by_truth.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"));
    let fastest_pred = by_pred[0].0;
    let fastest_true = by_truth[0].0;
    println!(
        "\nfastest variant: predicted #{fastest_pred}, STA #{fastest_true} — {}",
        if fastest_pred == fastest_true {
            "screening agrees with full STA"
        } else {
            "screening disagrees (more training would tighten this)"
        }
    );
    Ok(())
}
