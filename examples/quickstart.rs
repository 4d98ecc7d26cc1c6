//! Quickstart: the full MOSS pipeline on one small design.
//!
//! Parses RTL, synthesizes it to a standard-cell netlist, collects ground
//! truth (simulation, timing, power), trains a tiny MOSS model, and prints
//! predictions next to the truth.
//!
//! Run with: `cargo run -p moss-bench --example quickstart --release`

use moss::{
    metrics, CircuitSample, MossConfig, MossModel, MossVariant, SampleOptions, TaskModel,
    TrainConfig, Trainer,
};
use moss_llm::{EncoderConfig, TextEncoder};
use moss_netlist::{CellLibrary, NetlistStats};
use moss_tensor::ParamStore;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. RTL in, netlist out. (An LFSR keeps every bit active, which makes
    // the toggle-rate demo legible; see `power_estimation` for a design
    // with skewed activity.)
    let module = moss_rtl::parse(
        "module scrambler(input clk, input [7:0] din, output [7:0] dout);
           reg [7:0] lfsr = 1;
           always @(posedge clk) lfsr <= {lfsr[6:0], lfsr[7] ^ lfsr[5] ^ lfsr[4] ^ lfsr[3]};
           assign dout = din ^ lfsr;
         endmodule",
    )?;
    let lib = CellLibrary::default();
    let sample = CircuitSample::build(&module, &lib, &SampleOptions::default())?;
    println!(
        "synthesized '{}': {}",
        sample.name,
        NetlistStats::of(&sample.netlist)
    );

    // 2. Ground truth came along for free.
    println!(
        "ground truth: total power {:.1} nW, worst DFF arrival {:.3} ns",
        sample.labels.total_power_nw,
        sample
            .labels
            .arrival_ns
            .iter()
            .map(|&(_, a)| a)
            .fold(0.0f32, f32::max),
    );

    // 3. A text encoder (stand-in for the paper's fine-tuned Yi-Coder).
    let mut store = ParamStore::new();
    let encoder = TextEncoder::new(EncoderConfig::tiny(), &mut store, 1);

    // 4. The MOSS model: LLM-enhanced features, adaptive aggregation,
    //    two-phase propagation.
    let model = MossModel::new(MossConfig::small(16, MossVariant::Full), &mut store, 2);
    let prep = model.prepare(&sample, &encoder, &store, &lib, 500.0)?;
    println!(
        "prepared: {} cells, {} DFF anchors, {} aggregator clusters",
        prep.cell_nodes.len(),
        prep.dff_nodes.len(),
        prep.circuit.clusters.count,
    );

    // 5. Train briefly and predict.
    let mut trainer = Trainer::new(TrainConfig {
        pretrain_epochs: 60,
        align_epochs: 0,
        learning_rate: 3e-3,
        ..TrainConfig::default()
    });
    let history = trainer.pretrain(&model, &mut store, std::slice::from_ref(&prep));
    println!(
        "pre-training loss: {:.4} → {:.4}",
        history.first().map(|h| h.total).unwrap_or(0.0),
        history.last().map(|h| h.total).unwrap_or(0.0),
    );

    let pred = model.predict(&store, &prep);
    println!(
        "toggle-rate accuracy:  {:5.1} %",
        metrics::trp_accuracy(&pred, &prep) * 100.0
    );
    println!(
        "arrival-time accuracy: {:5.1} %",
        metrics::atp_accuracy(&pred, &prep) * 100.0
    );
    println!(
        "power: predicted {:.1} nW vs true {:.1} nW ({:4.1} % accuracy)",
        pred.power_nw,
        prep.true_power_nw,
        metrics::pp_accuracy(&pred, &prep) * 100.0
    );
    Ok(())
}
