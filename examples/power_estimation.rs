//! Early power estimation without simulation: predict circuit power from
//! structure + RTL context, then validate against the full
//! simulate-then-PrimePower-style flow (the label pipeline's power ground
//! truth).
//!
//! Run with: `cargo run -p moss-bench --example power_estimation --release`

use moss::{
    metrics, CircuitSample, MossConfig, MossModel, MossVariant, SampleOptions, TaskModel,
    TrainConfig, Trainer,
};
use moss_llm::{EncoderConfig, TextEncoder};
use moss_netlist::CellLibrary;
use moss_tensor::ParamStore;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lib = CellLibrary::default();
    let designs = vec![
        moss_datagen::max_selector(4, 8),
        moss_datagen::prbs_generator(3, 8),
        moss_datagen::error_logger(8, 8),
    ];

    // Reference flow: simulate → activity → power (the "slow" path), as
    // the label pipeline runs it when building each sample.
    println!("reference flow (simulate 2k cycles → activity-based power):");
    let mut samples = Vec::new();
    for m in &designs {
        let sample = CircuitSample::build(&m.clone(), &lib, &SampleOptions::default())?;
        let labels = &sample.labels;
        println!(
            "  {:<16} {:>5} cells  dyn {:>9.1} nW  leak {:>8.1} nW  total {:>9.1} nW",
            sample.name,
            sample.cell_count(),
            labels.dynamic_nw.iter().map(|&d| f64::from(d)).sum::<f64>(),
            labels.leakage_nw,
            labels.total_power_nw,
        );
        samples.push(sample);
    }

    // Learned flow: train MOSS, predict power with no new simulation.
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

    println!("\nlearned flow (MOSS power head):");
    for prep in &preps {
        let pred = model.predict(&store, prep);
        println!(
            "  {:<16} predicted {:>9.1} nW  true {:>9.1} nW  accuracy {:>5.1} %",
            prep.name,
            pred.power_nw,
            prep.true_power_nw,
            metrics::pp_accuracy(&pred, prep) * 100.0,
        );
    }
    Ok(())
}
