//! Shared experiment pipeline: build the world (library + fine-tuned
//! encoder), prepare circuit samples, train model variants, and score them
//! with the paper's metrics. Used by every table/figure regeneration binary
//! and by the benches.
//!
//! Per-sample stages (ground-truth generation, preparation, evaluation)
//! are independent across samples, so they fan out through
//! [`moss_tensor::par_map`] onto the persistent thread pool
//! (`moss_tensor::pool`): deterministic ordered results, thread count from
//! `MOSS_THREADS`, no per-call thread spawning.
//!
//! Every fallible per-circuit stage degrades per circuit instead of
//! panicking: a failing circuit is skipped, recorded in the
//! [`RunManifest`], and excluded from averages;
//! the manifest's failure budget (`MOSS_MAX_FAILED_FRAC`) aborts runs that
//! degrade too far. With no failures (the fault sites disabled and no
//! organic bugs) results are identical to the old panicking pipeline.

use moss::{
    metrics, AlignEpoch, CircuitSample, DeepSeq2, DeepSeq2Config, MossConfig, MossModel,
    MossVariant, Predictions, Prepared, PretrainEpoch, SampleOptions, TaskModel, TrainConfig,
    Trainer,
};
use moss_llm::{EncoderConfig, FineTuneConfig, FineTuner, TextEncoder};
use moss_netlist::CellLibrary;
use moss_rtl::Module;
use moss_tensor::ParamStore;

use crate::run::{PipelineError, RunManifest};

/// Opens the label store named by `MOSS_LABEL_STORE`, if any: with it set,
/// the sample-building stages serve ground-truth labels content-addressed
/// from disk and only simulate first-touch circuits. An unopenable store
/// degrades to a cold run with a warning rather than failing the
/// experiment.
fn env_label_store() -> Option<moss_store::LabelStore> {
    let path = std::env::var("MOSS_LABEL_STORE")
        .ok()
        .filter(|p| !p.is_empty())?;
    match moss_store::LabelStore::open(&path) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("moss: cannot open label store {path}: {e} (labeling cold)");
            None
        }
    }
}

/// Experiment-scale configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Random-stimulus cycles for ground truth.
    pub sim_cycles: u64,
    /// Clock for power labels, MHz.
    pub clock_mhz: f64,
    /// Encoder architecture.
    pub encoder: EncoderConfig,
    /// LLM fine-tuning epochs on the RTL corpus.
    pub finetune_epochs: usize,
    /// Random designs in the fine-tuning corpus.
    pub corpus_size: usize,
    /// GNN hidden width.
    pub d_hidden: usize,
    /// Two-phase propagation rounds.
    pub iterations: usize,
    /// Training schedule.
    pub train: TrainConfig,
    /// Global seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Minutes-scale settings used by the shipped experiment binaries.
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig {
            sim_cycles: 2_048,
            clock_mhz: 500.0,
            encoder: EncoderConfig::small(),
            finetune_epochs: 4,
            corpus_size: 18,
            d_hidden: 16,
            iterations: 4,
            train: TrainConfig {
                pretrain_epochs: 30,
                align_epochs: 20,
                align_batch: 4,
                learning_rate: 2e-3,
                seed: 0x7ea1,
            },
            seed: 0x5e4d,
        }
    }

    /// Paper-faithful settings (45 epochs, 60k simulation cycles); hours on
    /// CPU.
    pub fn full() -> ExperimentConfig {
        ExperimentConfig {
            sim_cycles: 60_000,
            finetune_epochs: 10,
            corpus_size: 64,
            train: TrainConfig {
                pretrain_epochs: 45,
                align_epochs: 45,
                align_batch: 4,
                learning_rate: 6e-4,
                seed: 0x7ea1,
            },
            ..ExperimentConfig::quick()
        }
    }

    /// Seconds-scale settings for integration tests.
    pub fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            sim_cycles: 256,
            encoder: EncoderConfig::tiny(),
            finetune_epochs: 1,
            corpus_size: 4,
            d_hidden: 8,
            iterations: 2,
            train: TrainConfig {
                pretrain_epochs: 4,
                align_epochs: 4,
                align_batch: 3,
                learning_rate: 3e-3,
                seed: 0x7ea1,
            },
            ..ExperimentConfig::quick()
        }
    }
}

/// The shared experiment world: cell library and a fine-tuned text encoder.
#[derive(Debug)]
pub struct World {
    /// The standard-cell library.
    pub lib: CellLibrary,
    /// Parameter store holding the fine-tuned encoder.
    pub store: ParamStore,
    /// The fine-tuned encoder.
    pub encoder: TextEncoder,
    /// The configuration used.
    pub config: ExperimentConfig,
}

/// Builds the world: creates the encoder and fine-tunes it on register/DFF
/// and RTL/summary pairs from a random corpus (the paper's §IV-A step).
pub fn build_world(config: ExperimentConfig) -> World {
    let _obs = moss_obs::span("build_world");
    let mut store = ParamStore::new();
    let encoder = TextEncoder::new(config.encoder, &mut store, config.seed);
    let corpus = moss_datagen::random_corpus(config.seed ^ 0xc0ffee, config.corpus_size);
    let pairs = moss_datagen::finetune_pairs(&corpus);
    let mut tuner = FineTuner::new(
        FineTuneConfig {
            learning_rate: 1e-3,
            ..FineTuneConfig::default()
        },
        config.seed ^ 0xf1e,
    );
    for _ in 0..config.finetune_epochs {
        tuner.train_epoch(&encoder, &mut store, &pairs);
    }
    World {
        lib: CellLibrary::default(),
        store,
        encoder,
        config,
    }
}

/// Builds ground-truth samples with a specific synthesis mapping variant,
/// enabling train-on-one-mapping / evaluate-on-another protocols (the
/// paper generates several distinct circuits per RTL, §V-A). Circuits that
/// fail synthesis or labeling are skipped and recorded in `manifest`.
///
/// # Errors
///
/// [`PipelineError::BudgetExceeded`] when the skips push the run over its
/// failure budget.
pub fn build_samples_variant(
    world: &World,
    modules: &[Module],
    synth_seed: u64,
    manifest: &mut RunManifest,
) -> Result<Vec<CircuitSample>, PipelineError> {
    let _obs = moss_obs::span_items("build_samples", modules.len() as u64);
    let store = env_label_store();
    let results = moss_tensor::par_map(modules, |i, m| {
        (
            m.name().to_owned(),
            CircuitSample::build_with_store(
                m,
                &world.lib,
                &SampleOptions {
                    synth: moss_synth::SynthOptions::variant(synth_seed),
                    sim_cycles: world.config.sim_cycles,
                    seed: world.config.seed ^ ((i as u64) << 8) ^ (synth_seed << 40),
                    clock_mhz: world.config.clock_mhz,
                },
                store.as_ref(),
            ),
        )
    });
    collect_stage(results, "build", manifest)
}

/// Builds ground-truth samples for a set of modules. Circuits that fail
/// synthesis or labeling are skipped and recorded in `manifest`.
///
/// # Errors
///
/// [`PipelineError::BudgetExceeded`] when the skips push the run over its
/// failure budget.
pub fn build_samples(
    world: &World,
    modules: &[Module],
    manifest: &mut RunManifest,
) -> Result<Vec<CircuitSample>, PipelineError> {
    let _obs = moss_obs::span_items("build_samples", modules.len() as u64);
    let store = env_label_store();
    let results = moss_tensor::par_map(modules, |i, m| {
        (
            m.name().to_owned(),
            CircuitSample::build_with_store(
                m,
                &world.lib,
                &SampleOptions {
                    sim_cycles: world.config.sim_cycles,
                    seed: world.config.seed ^ ((i as u64) << 8),
                    clock_mhz: world.config.clock_mhz,
                    ..SampleOptions::default()
                },
                store.as_ref(),
            ),
        )
    });
    collect_stage(results, "build", manifest)
}

/// Partitions per-circuit stage results into survivors and manifest skips,
/// then enforces the failure budget.
fn collect_stage<T, E: Into<crate::run::StageError>>(
    results: Vec<(String, Result<T, E>)>,
    stage: &'static str,
    manifest: &mut RunManifest,
) -> Result<Vec<T>, PipelineError> {
    let mut out = Vec::with_capacity(results.len());
    for (name, r) in results {
        match r {
            Ok(v) => {
                manifest.record_success();
                out.push(v);
            }
            Err(e) => manifest.record_skip(name, stage, e.into()),
        }
    }
    manifest.check_budget()?;
    Ok(out)
}

/// Prepares `samples` for `model` with the parameters in `store` — the
/// training samples of a run, or new circuits for an already-trained one.
/// Samples that fail preparation are skipped and recorded.
///
/// # Errors
///
/// [`PipelineError::BudgetExceeded`] when the skips push the run over its
/// failure budget.
pub fn prepare_for<M: TaskModel + Sync>(
    world: &World,
    model: &M,
    store: &ParamStore,
    samples: &[CircuitSample],
    manifest: &mut RunManifest,
) -> Result<Vec<Prepared>, PipelineError> {
    let _obs = moss_obs::span_items("prepare_samples", samples.len() as u64);
    let results = moss_tensor::par_map(samples, |_, s| {
        (
            s.name.clone(),
            model.prepare(s, &world.encoder, store, &world.lib, world.config.clock_mhz),
        )
    });
    collect_stage(results, "prepare", manifest)
}

/// Scores `model` with the parameters in `store` on prepared circuits.
pub fn evaluate_on<M: TaskModel + Sync>(
    model: &M,
    store: &ParamStore,
    preps: &[Prepared],
) -> Vec<CircuitScores> {
    let _obs = moss_obs::span_items("evaluate", preps.len() as u64);
    moss_tensor::par_map(preps, |_, p| score(&model.predict(store, p), p))
}

/// A trained model — a MOSS variant or the DeepSeq2 baseline — with
/// everything needed for evaluation.
#[derive(Debug)]
pub struct TrainedRun<M> {
    /// The trained model.
    pub model: M,
    /// Its parameters (cloned world store + model params).
    pub store: ParamStore,
    /// Snapshot taken before the alignment phase (equal to `store` when
    /// alignment is off). Node features for *new* circuits must be built
    /// with this encoder state: alignment tunes the text-side LoRA
    /// adapters, and features embedded with the tuned encoder would be
    /// distribution-shifted relative to what the (frozen) GNN trunk trained
    /// on. For the full MOSS model this snapshot *is* "MOSS w/o A": that
    /// variant pretrains identically, and alignment leaves the trunk
    /// frozen.
    pub feature_store: ParamStore,
    /// Prepared circuits (the training samples that survived preparation).
    pub preps: Vec<Prepared>,
    /// Pre-training loss curves (Fig. 7).
    pub pretrain: Vec<PretrainEpoch>,
    /// Alignment loss curves (Fig. 8; empty when alignment is off).
    pub align: Vec<AlignEpoch>,
}

/// Trains one MOSS variant on `samples`. Samples that fail preparation are
/// skipped (recorded in `manifest`) and the variant trains on the rest.
///
/// # Errors
///
/// [`PipelineError::BudgetExceeded`] when the skips push the run over its
/// failure budget.
pub fn train_variant(
    world: &World,
    variant: MossVariant,
    samples: &[CircuitSample],
    manifest: &mut RunManifest,
) -> Result<TrainedRun<MossModel>, PipelineError> {
    let _obs = moss_obs::span("train_variant");
    let mut store = world.store.clone();
    let model = MossModel::new(
        MossConfig {
            d_hidden: world.config.d_hidden,
            iterations: world.config.iterations,
            ..MossConfig::small(world.config.encoder.d_model, variant)
        },
        &mut store,
        world.config.seed ^ 0x90de1,
    );
    let preps = prepare_for(world, &model, &store, samples, manifest)?;
    let mut trainer = Trainer::new(world.config.train);
    let pretrain = trainer.pretrain(&model, &mut store, &preps);
    let feature_store = store.clone();
    // Alignment trains only the projection heads and text-side LoRA; the
    // GNN trunk (and therefore the regression heads) is untouched.
    let align = trainer.align(&model, &world.encoder, &mut store, &preps);
    Ok(TrainedRun {
        model,
        store,
        feature_store,
        preps,
        pretrain,
        align,
    })
}

/// Trains the DeepSeq2 baseline on `samples`: the same preparation and
/// pre-training loop as MOSS, with no alignment phase. Samples that fail
/// preparation are skipped (recorded in `manifest`).
///
/// # Errors
///
/// [`PipelineError::BudgetExceeded`] when the skips push the run over its
/// failure budget.
pub fn train_baseline(
    world: &World,
    samples: &[CircuitSample],
    manifest: &mut RunManifest,
) -> Result<TrainedRun<DeepSeq2>, PipelineError> {
    let _obs = moss_obs::span("train_baseline");
    let mut store = world.store.clone();
    let model = DeepSeq2::new(
        DeepSeq2Config {
            iterations: world.config.iterations,
            ..DeepSeq2Config::small(world.config.encoder.d_model)
        },
        &mut store,
        world.config.seed ^ 0xba5e,
    );
    let preps = prepare_for(world, &model, &store, samples, manifest)?;
    let pretrain = Trainer::new(world.config.train).pretrain(&model, &mut store, &preps);
    Ok(TrainedRun {
        model,
        feature_store: store.clone(),
        store,
        preps,
        pretrain,
        align: Vec::new(),
    })
}

/// Per-circuit Table I scores (percentages).
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitScores {
    /// Circuit name.
    pub name: String,
    /// Arrival-time prediction accuracy, %.
    pub atp: f64,
    /// Toggle-rate prediction accuracy, %.
    pub trp: f64,
    /// Power prediction accuracy, %.
    pub pp: f64,
}

/// Scores a set of predictions against prepared ground truth.
pub fn score(pred: &Predictions, prep: &Prepared) -> CircuitScores {
    CircuitScores {
        name: prep.name.clone(),
        atp: metrics::atp_accuracy(pred, prep) * 100.0,
        trp: metrics::trp_accuracy(pred, prep) * 100.0,
        pp: metrics::pp_accuracy(pred, prep) * 100.0,
    }
}

/// Column averages for a score table, or `None` for an empty one — the
/// caller renders a placeholder instead of the old `0/0 = NaN`.
pub fn averages(scores: &[CircuitScores]) -> Option<(f64, f64, f64)> {
    if scores.is_empty() {
        return None;
    }
    let n = scores.len() as f64;
    Some((
        scores.iter().map(|s| s.atp).sum::<f64>() / n,
        scores.iter().map(|s| s.trp).sum::<f64>() / n,
        scores.iter().map(|s| s.pp).sum::<f64>() / n,
    ))
}

/// FEP retrieval accuracy of a MOSS model with the parameters in `store` on
/// a group of prepared circuits (paper Table II protocol), or `None` for an
/// empty group. The netlist side runs the tape-free pass
/// ([`MossModel::netlist_align`]).
pub fn fep_of(
    world: &World,
    model: &MossModel,
    store: &ParamStore,
    preps: &[Prepared],
) -> Option<f64> {
    if preps.is_empty() {
        return None;
    }
    let _obs = moss_obs::span_items("fep", preps.len() as u64);
    let rtl: Vec<Vec<f32>> =
        moss_tensor::par_map(preps, |_, p| model.rtl_align_vec(store, &world.encoder, p));
    let net: Vec<Vec<f32>> =
        moss_tensor::par_map(preps, |_, p| model.netlist_align(store, &p.circuit));
    Some(metrics::fep_accuracy(&rtl, &net) * 100.0)
}

/// Synthesized cell/DFF counts of the benchmark suite, one entry per
/// circuit in suite order; `None` marks a circuit whose synthesis failed
/// (recorded in `manifest`).
pub fn suite_census(manifest: &mut RunManifest) -> Vec<(String, Option<(usize, usize)>)> {
    let suite = moss_datagen::benchmark_suite();
    let results = moss_tensor::par_map(&suite, |_, m| {
        (
            m.name().to_owned(),
            moss_synth::synthesize(m, &moss_synth::SynthOptions::default()),
        )
    });
    results
        .into_iter()
        .map(|(name, r)| match r {
            Ok(r) => {
                manifest.record_success();
                (name, Some((r.netlist.cell_count(), r.netlist.dff_count())))
            }
            Err(e) => {
                manifest.record_skip(name.clone(), "synthesize", e.into());
                (name, None)
            }
        })
        .collect()
}
