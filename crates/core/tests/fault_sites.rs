//! Fault injection at the `io` and `nan` sites: checkpoint I/O fails with
//! a typed error, and NaN training steps are skipped without poisoning the
//! parameters.
//!
//! These tests live in their own binary because the fault override they
//! arm is process-global: the crate's unit tests, running in the same
//! process, would otherwise save checkpoints and train through it.

use moss::{
    load_checkpoint_file, save_checkpoint_file, CircuitSample, MossConfig, MossModel, MossVariant,
    Prepared, SampleOptions, TaskModel, TrainConfig, Trainer,
};
use moss_llm::{EncoderConfig, TextEncoder};
use moss_netlist::CellLibrary;
use moss_tensor::ParamStore;

#[test]
fn io_fault_site_injects_save_and_load_failures() {
    let path = std::env::temp_dir().join(format!("moss_ckpt_iofault_{}.bin", std::process::id()));
    let mut store = ParamStore::new();
    let config = MossConfig::small(8, MossVariant::Full);
    let _ = MossModel::new(config, &mut store, 1);
    save_checkpoint_file(&path, &config, &store).unwrap();

    let faults = moss_faults::override_for_tests(Some("io:1.0"));
    let e = save_checkpoint_file(&path, &config, &store).unwrap_err();
    assert!(e.to_string().contains("injected fault"));
    let e = load_checkpoint_file(&path).unwrap_err();
    assert!(e.to_string().contains("injected fault"));
    drop(faults);

    // The published checkpoint is intact once faults clear.
    assert!(load_checkpoint_file(&path).is_ok());
    let _ = std::fs::remove_file(&path);
}

/// A model over three small sequential designs, prepared for training.
fn tiny_world() -> (MossModel, ParamStore, Vec<Prepared>) {
    let sources = [
        "module a(input clk, input x, output q);
           reg r0; always @(posedge clk) r0 <= x ^ r0; assign q = r0;
         endmodule",
        "module b(input clk, input [1:0] d, output [1:0] q);
           reg [1:0] s; always @(posedge clk) s <= s + d; assign q = s;
         endmodule",
        "module c(input clk, input e, output [1:0] q);
           reg [1:0] s = 1; always @(posedge clk) s <= e ? (s << 1) : s;
           assign q = s;
         endmodule",
    ];
    let lib = CellLibrary::default();
    let mut store = ParamStore::new();
    let enc = TextEncoder::new(EncoderConfig::tiny(), &mut store, 1);
    let model = MossModel::new(MossConfig::small(16, MossVariant::Full), &mut store, 2);
    let options = SampleOptions {
        sim_cycles: 128,
        ..SampleOptions::default()
    };
    let preps = sources
        .iter()
        .map(|s| {
            let m = moss_rtl::parse(s).unwrap();
            let sample = CircuitSample::build(&m, &lib, &options).unwrap();
            model.prepare(&sample, &enc, &store, &lib, 500.0).unwrap()
        })
        .collect();
    (model, store, preps)
}

#[test]
fn nan_fault_site_skips_steps_without_poisoning_training() {
    let (model, mut store, preps) = tiny_world();
    let faults = moss_faults::override_for_tests(Some("nan:0.3:5"));
    let mut trainer = Trainer::new(TrainConfig {
        pretrain_epochs: 6,
        learning_rate: 3e-3,
        ..TrainConfig::default()
    });
    let hist = trainer.pretrain(&model, &mut store, &preps);
    drop(faults);
    assert_eq!(hist.len(), 6);
    assert!(hist.iter().all(|e| e.total.is_finite()), "{hist:?}");
    for (_, _, t) in store.iter() {
        assert!(t.data().iter().all(|v| v.is_finite()));
    }
}
