//! # moss
//!
//! The core MOSS framework (DAC 2025): multi-modal representation learning
//! on sequential circuits, fusing a fine-tuned text encoder (the LLM
//! modality over RTL code and cell descriptions) with a circuit GNN (the
//! netlist modality) through LLM-enhanced DFF node features, an adaptive
//! clustering-based aggregator, two-phase asynchronous temporal
//! propagation, and a local + global alignment strategy.
//!
//! Main pieces:
//!
//! - [`CircuitSample`]: the data pipeline — RTL → synthesis → simulated /
//!   analyzed ground truth (toggle rates, signal probabilities, per-DFF
//!   arrival times, power);
//! - [`build_node_features`]: structural ⊕ LLM features with register-
//!   prompt overlays on DFF anchor points (Fig. 2A);
//! - [`MossModel`]: the GNN with task heads, RrNdM register-DFF matching,
//!   and the CLIP-style RNC/RNM global alignment of Fig. 6;
//! - [`MossVariant`]: the paper's ablations (w/o A, w/o AA, w/o FAA);
//! - [`DeepSeq2`]: the reimplemented baseline;
//! - [`TaskModel`]: what MOSS and DeepSeq2 share — prepare, local-task
//!   losses, predict — so both train and score through one path;
//! - [`Trainer`]: two-phase multi-task training with dynamic loss balancing
//!   (Eq. 2), producing the Fig. 7 / Fig. 8 loss curves;
//! - [`metrics`]: accuracy = 1 − mean relative error (Eq. 3) plus FEP
//!   retrieval accuracy.
//!
//! ## Example
//!
//! ```no_run
//! use moss::{CircuitSample, MossConfig, MossModel, MossVariant, SampleOptions,
//!            TaskModel, TrainConfig, Trainer};
//! use moss_llm::{EncoderConfig, TextEncoder};
//! use moss_netlist::CellLibrary;
//! use moss_tensor::ParamStore;
//!
//! let module = moss_rtl::parse(
//!     "module cnt(input clk, output [3:0] q);
//!        reg [3:0] s = 0;
//!        always @(posedge clk) s <= s + 4'd1;
//!        assign q = s;
//!      endmodule")?;
//! let lib = CellLibrary::default();
//! let sample = CircuitSample::build(&module, &lib, &SampleOptions::default())?;
//!
//! let mut store = ParamStore::new();
//! let encoder = TextEncoder::new(EncoderConfig::small(), &mut store, 1);
//! let model = MossModel::new(MossConfig::small(32, MossVariant::Full), &mut store, 2);
//! let prep = model.prepare(&sample, &encoder, &store, &lib, 500.0)?;
//!
//! let mut trainer = Trainer::new(TrainConfig::default());
//! let curves = trainer.pretrain(&model, &mut store, &[prep]);
//! println!("final pre-training loss: {}", curves.last().unwrap().total);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod checkpoint;
mod deepseq2;
mod embedder;
mod features;
mod ingest;
mod kinds;
pub mod metrics;
mod model;
mod sample;
mod stimulus;
mod trainer;

pub use checkpoint::{
    load_checkpoint, load_checkpoint_file, load_checkpoint_file_validated,
    load_training_checkpoint, load_training_checkpoint_file, save_checkpoint, save_checkpoint_file,
    save_training_checkpoint, save_training_checkpoint_file, validate_params_finite,
};
pub use deepseq2::{DeepSeq2, DeepSeq2Config};
pub use embedder::NetlistEmbedder;
pub use features::{build_node_features, FeatureOptions, STRUCT_DIM};
pub use ingest::bindings_from_design;
pub use model::{
    LocalLosses, MossConfig, MossModel, MossVariant, Predictions, Prepared, TaskModel,
};
pub use sample::{
    canonical_reset_hash, labels_from_record, labels_to_record, CircuitSample, LabeledCircuit,
    Labels, SampleOptions,
};
pub use trainer::{AlignEpoch, DynamicWeights, PretrainEpoch, TrainConfig, Trainer};
