//! Multi-task training with dynamic loss balancing (paper Eq. 2) in two
//! phases: pre-training on the local tasks (Fig. 7) and multimodal
//! alignment (Fig. 8).
//!
//! ## Crash resumability
//!
//! A [`Trainer`] carries its complete mid-run state — PRNG stream, dynamic
//! loss weights, optimizer moments, and per-phase epoch progress — and can
//! serialize all of it into the versioned checkpoint format
//! ([`crate::save_training_checkpoint_file`]). With
//! [`Trainer::autosave_to`] enabled the trainer checkpoints itself after
//! every epoch; after a crash, [`Trainer::resume_from`] restores the run
//! and re-entering [`Trainer::pretrain`] / [`Trainer::align`] continues
//! from the first unfinished epoch, bit-identical to a run that was never
//! interrupted.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use moss_prng::rngs::StdRng;
use moss_prng::seq::SliceRandom;
use moss_prng::SeedableRng;
use moss_tensor::{Adam, Graph, ParamStore, Tensor, Var};

use crate::deepseq2::DeepSeq2;
use crate::model::{MossConfig, MossModel, Prepared};
use moss_llm::TextEncoder;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Learning rate (paper: 6e-4).
    pub learning_rate: f32,
    /// Pre-training epochs (paper: 45 with early stopping).
    pub pretrain_epochs: usize,
    /// Alignment epochs.
    pub align_epochs: usize,
    /// Circuits per alignment batch (RNC needs ≥ 2).
    pub align_batch: usize,
    /// RNG seed (shuffling).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 6e-4,
            pretrain_epochs: 45,
            align_epochs: 45,
            align_batch: 4,
            seed: 0x7ea1,
        }
    }
}

/// Loss values from one pre-training epoch (Fig. 7 curves).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PretrainEpoch {
    /// Weighted total.
    pub total: f64,
    /// Probability loss (Fig. 7b).
    pub probability: f64,
    /// Toggle loss (Fig. 7c).
    pub toggle: f64,
    /// Arrival-time loss (Fig. 7d).
    pub arrival: f64,
    /// Power loss.
    pub power: f64,
}

/// Loss values from one alignment epoch (Fig. 8 curves).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignEpoch {
    /// Weighted total (Fig. 8a).
    pub total: f64,
    /// RNC loss (Fig. 8b).
    pub rnc: f64,
    /// RNM loss (Fig. 8c).
    pub rnm: f64,
    /// RrNdM loss.
    pub rrndm: f64,
}

/// Dynamic per-task weights: λᵢ tracks the inverse of each task's running
/// loss magnitude so no single task dominates (paper Eq. 2).
#[derive(Debug, Clone)]
pub struct DynamicWeights {
    ema: Vec<f64>,
    beta: f64,
}

impl DynamicWeights {
    /// Balancer over `tasks` losses.
    pub fn new(tasks: usize) -> DynamicWeights {
        DynamicWeights {
            ema: vec![1.0; tasks],
            beta: 0.9,
        }
    }

    /// Updates the running magnitudes and returns normalized weights.
    pub fn update(&mut self, losses: &[f64]) -> Vec<f32> {
        assert_eq!(losses.len(), self.ema.len(), "task count fixed");
        for (e, &l) in self.ema.iter_mut().zip(losses) {
            *e = self.beta * *e + (1.0 - self.beta) * l.max(1e-6);
        }
        let inv: Vec<f64> = self.ema.iter().map(|&e| 1.0 / (e + 1e-3)).collect();
        let sum: f64 = inv.iter().sum();
        inv.iter()
            .map(|&i| (i / sum * losses.len() as f64) as f32)
            .collect()
    }
}

/// Trains MOSS (or a variant) through both phases.
#[derive(Debug)]
pub struct Trainer {
    config: TrainConfig,
    optimizer: Adam,
    rng: StdRng,
    // Mid-run state, all checkpointed so a resumed trainer replays the
    // exact stream of an uninterrupted one.
    weights: DynamicWeights,
    align_opt: Option<Adam>,
    pretrain_done: usize,
    align_done: usize,
    // Shuffle state: each epoch shuffles the previous epoch's permutation
    // in place, so the current permutation is part of the stream a resume
    // must replay (empty until the phase first runs).
    pretrain_order: Vec<usize>,
    align_order: Vec<usize>,
    pretrain_history: Vec<PretrainEpoch>,
    align_history: Vec<AlignEpoch>,
    // Autosave + crash-rehearsal hooks; never checkpointed.
    autosave_path: Option<PathBuf>,
    abort_after_steps: Option<u64>,
    steps_taken: u64,
}

impl Trainer {
    /// A trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Trainer {
        Trainer {
            optimizer: Adam::new(config.learning_rate),
            rng: StdRng::seed_from_u64(config.seed),
            weights: DynamicWeights::new(4),
            align_opt: None,
            pretrain_done: 0,
            align_done: 0,
            pretrain_order: Vec::new(),
            align_order: Vec::new(),
            pretrain_history: Vec::new(),
            align_history: Vec::new(),
            autosave_path: None,
            abort_after_steps: None,
            steps_taken: 0,
            config,
        }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> TrainConfig {
        self.config
    }

    /// Pre-training epochs completed so far (resume point).
    pub fn pretrain_epochs_done(&self) -> usize {
        self.pretrain_done
    }

    /// Enables autosaving: after each completed epoch (pre-training and
    /// alignment) the trainer writes a crash-safe training checkpoint of
    /// `config` + parameters + its own state to `path`. A failed autosave
    /// degrades gracefully — a warning plus a `train.autosave_failures`
    /// counter — rather than killing the run it exists to protect.
    pub fn autosave_to(&mut self, path: impl Into<PathBuf>) {
        self.autosave_path = Some(path.into());
    }

    /// Restores a mid-run trainer (plus model config and parameters) from
    /// a training checkpoint written by autosave or
    /// [`crate::save_training_checkpoint_file`]. Rebuild the model against
    /// the returned store (`MossModel::new` rebinds by name) and call
    /// [`Trainer::pretrain`] / [`Trainer::align`] again: completed epochs
    /// are skipped and the remainder replays bit-identically to an
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a corrupt, truncated, or version-mismatched file,
    /// or one that holds no trainer state.
    pub fn resume_from(path: impl AsRef<Path>) -> io::Result<(MossConfig, ParamStore, Trainer)> {
        crate::checkpoint::load_training_checkpoint_file(path)
    }

    /// Test/rehearsal hook: simulate a crash by returning early from the
    /// current training phase after `steps` optimizer updates.
    #[doc(hidden)]
    pub fn abort_after_steps(&mut self, steps: u64) {
        self.abort_after_steps = Some(steps);
        self.steps_taken = 0;
    }

    fn aborted(&self) -> bool {
        self.abort_after_steps
            .is_some_and(|limit| self.steps_taken >= limit)
    }

    fn maybe_autosave(&self, config: &MossConfig, store: &ParamStore) {
        let Some(path) = self.autosave_path.as_ref() else {
            return;
        };
        if let Err(e) = crate::checkpoint::save_training_checkpoint_file(path, config, store, self)
        {
            moss_obs::counter("train.autosave_failures", 1);
            eprintln!("moss: autosave to {} failed: {e}", path.display());
        }
    }

    /// Phase 1 — pre-training on the local tasks. Returns per-epoch losses
    /// (the Fig. 7 curves — the complete history, including epochs finished
    /// before a resume).
    ///
    /// A step whose losses are non-finite (organically diverged, or the
    /// `nan` fault site fired) is skipped and counted
    /// (`train.skipped_steps`) instead of poisoning the parameters.
    pub fn pretrain(
        &mut self,
        model: &MossModel,
        store: &mut ParamStore,
        circuits: &[Prepared],
    ) -> Vec<PretrainEpoch> {
        let _obs = moss_obs::span("pretrain");
        if self.pretrain_order.len() != circuits.len() {
            self.pretrain_order = (0..circuits.len()).collect();
        }
        for epoch in self.pretrain_done..self.config.pretrain_epochs {
            let _epoch_obs = moss_obs::span_items("pretrain_epoch", circuits.len() as u64);
            moss_obs::counter("train.pretrain_epochs", 1);
            self.pretrain_order.shuffle(&mut self.rng);
            let order = self.pretrain_order.clone();
            let mut sums = [0.0f64; 5];
            let mut used = 0usize;
            for (step, &i) in order.iter().enumerate() {
                if self.aborted() {
                    return self.pretrain_history.clone();
                }
                if moss_faults::fire(moss_faults::Site::Nan, ((epoch as u64) << 32) ^ step as u64) {
                    moss_obs::counter("train.skipped_steps", 1);
                    continue;
                }
                let prep = &circuits[i];
                let mut g = Graph::new();
                let l = model.local_losses(&mut g, store, prep);
                let raw = [
                    g.value(l.probability).get(0, 0) as f64,
                    g.value(l.toggle).get(0, 0) as f64,
                    g.value(l.arrival).get(0, 0) as f64,
                    g.value(l.power).get(0, 0) as f64,
                ];
                if raw.iter().any(|v| !v.is_finite()) {
                    moss_obs::counter("train.skipped_steps", 1);
                    continue;
                }
                let w = self.weights.update(&raw);
                let total =
                    weighted_sum(&mut g, &[l.probability, l.toggle, l.arrival, l.power], &w);
                sums[0] += g.value(total).get(0, 0) as f64;
                sums[1] += raw[0];
                sums[2] += raw[1];
                sums[3] += raw[2];
                sums[4] += raw[3];
                used += 1;
                let grads = g.backward(total);
                self.optimizer.step(store, &grads);
                self.steps_taken += 1;
            }
            let n = used.max(1) as f64;
            self.pretrain_history.push(PretrainEpoch {
                total: sums[0] / n,
                probability: sums[1] / n,
                toggle: sums[2] / n,
                arrival: sums[3] / n,
                power: sums[4] / n,
            });
            self.pretrain_done = epoch + 1;
            self.maybe_autosave(model.config(), store);
        }
        self.pretrain_history.clone()
    }

    /// Phase 2 — multimodal alignment: RNC + RNM + RrNdM over circuit
    /// batches, on a frozen GNN trunk; the local tasks are not in the
    /// objective. Returns per-epoch losses (the Fig. 8 curves).
    ///
    /// No-ops (returns empty history) if the model variant disables
    /// alignment.
    pub fn align(
        &mut self,
        model: &MossModel,
        encoder: &TextEncoder,
        store: &mut ParamStore,
        circuits: &[Prepared],
    ) -> Vec<AlignEpoch> {
        if !model.config().variant.alignment() || circuits.len() < 2 {
            return Vec::new();
        }
        let _obs = moss_obs::span("align");
        // The GNN trunk is frozen during alignment: its outputs are
        // precomputed once, and only the projection heads (W_n, W_r,
        // register/DFF projections), the RNM MLP, the temperature, and the
        // text encoder's LoRA adapters receive gradients. This protects the
        // regression heads' trunk from the retrieval objective (at the
        // paper's data scale joint training is feasible; at ours it
        // catastrophically forgets arrival/toggle structure) and makes the
        // phase cheap — no per-epoch GNN forward passes. Because the trunk
        // is frozen, recomputing the embeddings on resume reproduces the
        // originals bit-exactly; they need no checkpointing.
        let frozen: Vec<(Tensor, Tensor)> = circuits
            .iter()
            .map(|p| model.frozen_embeddings(store, p))
            .collect();
        if self.align_opt.is_none() {
            self.align_opt = Some(Adam::new(self.config.learning_rate * 2.0));
        }
        let batch = self.config.align_batch.max(2).min(circuits.len());
        // Batch boundaries: a leftover tail of one circuit cannot feed the
        // contrastive RNC loss on its own, so it is folded into the previous
        // batch rather than dropped — every circuit receives an alignment
        // gradient every epoch, and the epoch average covers all samples.
        let ranges = batch_ranges(circuits.len(), batch);
        if self.align_order.len() != circuits.len() {
            self.align_order = (0..circuits.len()).collect();
        }
        for epoch in self.align_done..self.config.align_epochs {
            let _epoch_obs = moss_obs::span_items("align_epoch", circuits.len() as u64);
            moss_obs::counter("train.align_epochs", 1);
            self.align_order.shuffle(&mut self.rng);
            let order = self.align_order.clone();
            let mut sums = [0.0f64; 4];
            let mut batches = 0usize;
            for (bi, &(start, end)) in ranges.iter().enumerate() {
                if self.aborted() {
                    return self.align_history.clone();
                }
                if moss_faults::fire(
                    moss_faults::Site::Nan,
                    (1u64 << 48) ^ ((epoch as u64) << 32) ^ bi as u64,
                ) {
                    moss_obs::counter("train.skipped_steps", 1);
                    continue;
                }
                let chunk = &order[start..end];
                let mut g = Graph::new();
                let mut rtl = Vec::with_capacity(chunk.len());
                let mut net = Vec::with_capacity(chunk.len());
                let mut rrndm_losses: Vec<Var> = Vec::new();
                for &i in chunk {
                    let prep = &circuits[i];
                    net.push(model.netlist_align_frozen(&mut g, store, &frozen[i].0));
                    rtl.push(model.rtl_align_trainable(&mut g, store, encoder, &prep.rtl_windows));
                    if let Some(r) = model.rrndm_frozen(&mut g, store, &frozen[i].1, prep) {
                        rrndm_losses.push(r);
                    }
                }
                let rnc = model.rnc_loss(&mut g, store, &rtl, &net);
                let rnm = model.rnm_loss(&mut g, store, &rtl, &net);
                let rrndm = mean_vars(&mut g, &rrndm_losses);

                let mut total = g.add(rnc, rnm);
                if let Some(r) = rrndm {
                    total = g.add(total, r);
                }
                if !(g.value(total).get(0, 0) as f64).is_finite() {
                    moss_obs::counter("train.skipped_steps", 1);
                    continue;
                }
                sums[0] += g.value(total).get(0, 0) as f64;
                sums[1] += g.value(rnc).get(0, 0) as f64;
                sums[2] += g.value(rnm).get(0, 0) as f64;
                if let Some(r) = rrndm {
                    sums[3] += g.value(r).get(0, 0) as f64;
                }
                batches += 1;
                let grads = g.backward(total);
                self.align_opt
                    .as_mut()
                    .expect("align optimizer initialized above")
                    .step(store, &grads);
                self.steps_taken += 1;
            }
            let n = batches.max(1) as f64;
            self.align_history.push(AlignEpoch {
                total: sums[0] / n,
                rnc: sums[1] / n,
                rnm: sums[2] / n,
                rrndm: sums[3] / n,
            });
            self.align_done = epoch + 1;
            self.maybe_autosave(model.config(), store);
        }
        self.align_history.clone()
    }

    /// Trains the DeepSeq2 baseline on its four local tasks.
    pub fn train_deepseq2(
        &mut self,
        model: &DeepSeq2,
        store: &mut ParamStore,
        circuits: &[Prepared],
    ) -> Vec<PretrainEpoch> {
        let mut weights = DynamicWeights::new(4);
        let mut history = Vec::with_capacity(self.config.pretrain_epochs);
        let mut order: Vec<usize> = (0..circuits.len()).collect();
        for epoch in 0..self.config.pretrain_epochs {
            order.shuffle(&mut self.rng);
            let mut sums = [0.0f64; 5];
            let mut used = 0usize;
            for (step, &i) in order.iter().enumerate() {
                if moss_faults::fire(
                    moss_faults::Site::Nan,
                    (2u64 << 48) ^ ((epoch as u64) << 32) ^ step as u64,
                ) {
                    moss_obs::counter("train.skipped_steps", 1);
                    continue;
                }
                let prep = &circuits[i];
                let mut g = Graph::new();
                let l = model.losses(&mut g, store, prep);
                let raw = [
                    g.value(l.probability).get(0, 0) as f64,
                    g.value(l.toggle).get(0, 0) as f64,
                    g.value(l.arrival).get(0, 0) as f64,
                    g.value(l.power).get(0, 0) as f64,
                ];
                if raw.iter().any(|v| !v.is_finite()) {
                    moss_obs::counter("train.skipped_steps", 1);
                    continue;
                }
                let w = weights.update(&raw);
                let total =
                    weighted_sum(&mut g, &[l.probability, l.toggle, l.arrival, l.power], &w);
                sums[0] += g.value(total).get(0, 0) as f64;
                for (s, &r) in sums[1..].iter_mut().zip(&raw) {
                    *s += r;
                }
                used += 1;
                let grads = g.backward(total);
                self.optimizer.step(store, &grads);
            }
            let n = used.max(1) as f64;
            history.push(PretrainEpoch {
                total: sums[0] / n,
                probability: sums[1] / n,
                toggle: sums[2] / n,
                arrival: sums[3] / n,
                power: sums[4] / n,
            });
        }
        history
    }

    // ---- checkpoint (de)serialization ------------------------------------
    //
    // The trainer blob rides inside the MOSSCKP2 container (after the
    // parameter payload, covered by the same CRC32 footer). Optimizer
    // moments are keyed by parameter *name*, so the blob survives as long
    // as the parameter set does.

    pub(crate) fn write_state<W: Write>(&self, w: &mut W, store: &ParamStore) -> io::Result<()> {
        w.write_all(&self.config.learning_rate.to_le_bytes())?;
        for v in [
            self.config.pretrain_epochs as u64,
            self.config.align_epochs as u64,
            self.config.align_batch as u64,
            self.config.seed,
        ] {
            w.write_all(&v.to_le_bytes())?;
        }
        for s in self.rng.state() {
            w.write_all(&s.to_le_bytes())?;
        }
        w.write_all(&self.weights.beta.to_le_bytes())?;
        w.write_all(&(self.weights.ema.len() as u64).to_le_bytes())?;
        for e in &self.weights.ema {
            w.write_all(&e.to_le_bytes())?;
        }
        w.write_all(&(self.pretrain_done as u64).to_le_bytes())?;
        w.write_all(&(self.align_done as u64).to_le_bytes())?;
        for order in [&self.pretrain_order, &self.align_order] {
            w.write_all(&(order.len() as u64).to_le_bytes())?;
            for &i in order.iter() {
                w.write_all(&(i as u64).to_le_bytes())?;
            }
        }
        w.write_all(&(self.pretrain_history.len() as u64).to_le_bytes())?;
        for h in &self.pretrain_history {
            for v in [h.total, h.probability, h.toggle, h.arrival, h.power] {
                w.write_all(&v.to_le_bytes())?;
            }
        }
        w.write_all(&(self.align_history.len() as u64).to_le_bytes())?;
        for h in &self.align_history {
            for v in [h.total, h.rnc, h.rnm, h.rrndm] {
                w.write_all(&v.to_le_bytes())?;
            }
        }
        write_adam(w, &self.optimizer, store)?;
        match &self.align_opt {
            Some(opt) => {
                w.write_all(&[1u8])?;
                write_adam(w, opt, store)
            }
            None => w.write_all(&[0u8]),
        }
    }

    pub(crate) fn read_state<R: Read>(r: &mut R, store: &ParamStore) -> io::Result<Trainer> {
        let learning_rate = read_f32(r)?;
        let pretrain_epochs = read_u64(r)? as usize;
        let align_epochs = read_u64(r)? as usize;
        let align_batch = read_u64(r)? as usize;
        let seed = read_u64(r)?;
        let config = TrainConfig {
            learning_rate,
            pretrain_epochs,
            align_epochs,
            align_batch,
            seed,
        };
        let mut rng_state = [0u64; 4];
        for s in &mut rng_state {
            *s = read_u64(r)?;
        }
        if rng_state == [0; 4] {
            return Err(invalid("corrupt trainer rng state"));
        }
        let beta = read_f64(r)?;
        let ema_len = read_u64(r)? as usize;
        if ema_len > 64 {
            return Err(invalid("corrupt trainer weight count"));
        }
        let mut ema = Vec::with_capacity(ema_len);
        for _ in 0..ema_len {
            ema.push(read_f64(r)?);
        }
        let pretrain_done = read_u64(r)? as usize;
        let align_done = read_u64(r)? as usize;
        let mut read_order = || -> io::Result<Vec<usize>> {
            let len = read_u64(r)? as usize;
            if len > 1 << 24 {
                return Err(invalid("corrupt shuffle-order length"));
            }
            let mut order = Vec::with_capacity(len);
            let mut seen = vec![false; len];
            for _ in 0..len {
                let i = read_u64(r)? as usize;
                if i >= len || std::mem::replace(&mut seen[i], true) {
                    return Err(invalid("corrupt shuffle order"));
                }
                order.push(i);
            }
            Ok(order)
        };
        let pretrain_order = read_order()?;
        let align_order = read_order()?;
        let ph_len = read_u64(r)? as usize;
        if ph_len > 1 << 20 {
            return Err(invalid("corrupt trainer history length"));
        }
        let mut pretrain_history = Vec::with_capacity(ph_len);
        for _ in 0..ph_len {
            pretrain_history.push(PretrainEpoch {
                total: read_f64(r)?,
                probability: read_f64(r)?,
                toggle: read_f64(r)?,
                arrival: read_f64(r)?,
                power: read_f64(r)?,
            });
        }
        let ah_len = read_u64(r)? as usize;
        if ah_len > 1 << 20 {
            return Err(invalid("corrupt trainer history length"));
        }
        let mut align_history = Vec::with_capacity(ah_len);
        for _ in 0..ah_len {
            align_history.push(AlignEpoch {
                total: read_f64(r)?,
                rnc: read_f64(r)?,
                rnm: read_f64(r)?,
                rrndm: read_f64(r)?,
            });
        }
        let optimizer = read_adam(r, store)?;
        let mut flag = [0u8; 1];
        r.read_exact(&mut flag)?;
        let align_opt = match flag[0] {
            0 => None,
            1 => Some(read_adam(r, store)?),
            _ => return Err(invalid("corrupt align-optimizer flag")),
        };
        Ok(Trainer {
            config,
            optimizer,
            rng: StdRng::from_state(rng_state),
            weights: DynamicWeights { ema, beta },
            align_opt,
            pretrain_done,
            align_done,
            pretrain_order,
            align_order,
            pretrain_history,
            align_history,
            autosave_path: None,
            abort_after_steps: None,
            steps_taken: 0,
        })
    }
}

fn write_adam<W: Write>(w: &mut W, adam: &Adam, store: &ParamStore) -> io::Result<()> {
    w.write_all(&adam.learning_rate().to_le_bytes())?;
    match adam.clip_norm {
        Some(c) => {
            w.write_all(&[1u8])?;
            w.write_all(&c.to_le_bytes())?;
        }
        None => w.write_all(&[0u8, 0, 0, 0, 0])?,
    }
    w.write_all(&adam.time_step().to_le_bytes())?;
    let moments = adam.moments();
    w.write_all(&(moments.len() as u64).to_le_bytes())?;
    for (id, m, v) in moments {
        let name = store.name(id);
        w.write_all(&(name.len() as u64).to_le_bytes())?;
        w.write_all(name.as_bytes())?;
        let (rows, cols) = m.shape();
        w.write_all(&(rows as u64).to_le_bytes())?;
        w.write_all(&(cols as u64).to_le_bytes())?;
        for x in m.data() {
            w.write_all(&x.to_le_bytes())?;
        }
        for x in v.data() {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    Ok(())
}

fn read_adam<R: Read>(r: &mut R, store: &ParamStore) -> io::Result<Adam> {
    let lr = read_f32(r)?;
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag)?;
    let clip = match flag[0] {
        0 => {
            let mut pad = [0u8; 4];
            r.read_exact(&mut pad)?;
            None
        }
        1 => Some(read_f32(r)?),
        _ => return Err(invalid("corrupt optimizer clip flag")),
    };
    let t = read_u64(r)?;
    let count = read_u64(r)? as usize;
    if count > store.len() {
        return Err(invalid("corrupt optimizer moment count"));
    }
    let mut moments = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = read_u64(r)? as usize;
        if name_len > 1 << 16 {
            return Err(invalid("corrupt optimizer parameter name"));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name =
            String::from_utf8(name).map_err(|_| invalid("corrupt optimizer parameter name"))?;
        let Some(id) = store.find(&name) else {
            return Err(invalid("optimizer references unknown parameter"));
        };
        let rows = read_u64(r)? as usize;
        let cols = read_u64(r)? as usize;
        if (rows, cols) != store.get(id).shape() {
            return Err(invalid("optimizer moment shape mismatch"));
        }
        let mut read_tensor = || -> io::Result<Tensor> {
            let mut data = vec![0f32; rows * cols];
            for x in &mut data {
                *x = read_f32(r)?;
            }
            Ok(Tensor::from_vec(data, rows, cols))
        };
        let m = read_tensor()?;
        let v = read_tensor()?;
        moments.push((id, m, v));
    }
    Ok(Adam::from_state(lr, clip, t, moments))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn read_f32<R: Read>(r: &mut R) -> io::Result<f32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Splits `len` indices into `[start, end)` batches of nominal size
/// `batch`, folding a final chunk shorter than 2 into the previous batch
/// (the RNC contrastive loss needs ≥ 2 circuits per batch). Every index is
/// covered by exactly one range, and with `len ≥ 2` every range holds at
/// least 2 indices.
fn batch_ranges(len: usize, batch: usize) -> Vec<(usize, usize)> {
    let batch = batch.max(1);
    let mut ranges = Vec::with_capacity(len.div_ceil(batch));
    let mut start = 0;
    while start < len {
        let end = (start + batch).min(len);
        ranges.push((start, end));
        start = end;
    }
    if let [.., prev, last] = ranges.as_mut_slice() {
        if last.1 - last.0 < 2 {
            prev.1 = last.1;
            ranges.pop();
        }
    }
    ranges
}

fn weighted_sum(g: &mut Graph, losses: &[Var], weights: &[f32]) -> Var {
    debug_assert_eq!(losses.len(), weights.len());
    let mut acc: Option<Var> = None;
    for (&l, &w) in losses.iter().zip(weights) {
        let scaled = g.scale(l, w);
        acc = Some(match acc {
            Some(a) => g.add(a, scaled),
            None => scaled,
        });
    }
    acc.expect("at least one loss")
}

fn mean_vars(g: &mut Graph, vars: &[Var]) -> Option<Var> {
    if vars.is_empty() {
        return None;
    }
    let mut acc = vars[0];
    for &v in &vars[1..] {
        acc = g.add(acc, v);
    }
    Some(g.scale(acc, 1.0 / vars.len() as f32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{MossConfig, MossModel, MossVariant};
    use crate::sample::{CircuitSample, SampleOptions};
    use moss_llm::{EncoderConfig, TextEncoder};
    use moss_netlist::CellLibrary;

    fn tiny_world() -> (MossModel, TextEncoder, ParamStore, Vec<Prepared>) {
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
        let preps: Vec<Prepared> = sources
            .iter()
            .map(|s| {
                let m = moss_rtl::parse(s).unwrap();
                let sample = CircuitSample::build(
                    &m,
                    &lib,
                    &SampleOptions {
                        sim_cycles: 128,
                        ..SampleOptions::default()
                    },
                )
                .unwrap();
                model.prepare(&sample, &enc, &store, &lib, 500.0).unwrap()
            })
            .collect();
        (model, enc, store, preps)
    }

    #[test]
    fn pretrain_losses_trend_down() {
        let (model, _enc, mut store, preps) = tiny_world();
        let mut trainer = Trainer::new(TrainConfig {
            pretrain_epochs: 10,
            learning_rate: 3e-3,
            ..TrainConfig::default()
        });
        let hist = trainer.pretrain(&model, &mut store, &preps);
        assert_eq!(hist.len(), 10);
        let first = hist.first().unwrap().total;
        let last = hist.last().unwrap().total;
        assert!(last < first, "{first} → {last}");
    }

    #[test]
    fn align_phase_produces_curves_and_improves_rnc() {
        let (model, enc, mut store, preps) = tiny_world();
        let mut trainer = Trainer::new(TrainConfig {
            pretrain_epochs: 3,
            align_epochs: 12,
            align_batch: 3,
            learning_rate: 3e-3,
            ..TrainConfig::default()
        });
        trainer.pretrain(&model, &mut store, &preps);
        let hist = trainer.align(&model, &enc, &mut store, &preps);
        assert_eq!(hist.len(), 12);
        assert!(hist.last().unwrap().rnc < hist.first().unwrap().rnc);
    }

    #[test]
    fn align_skipped_for_no_alignment_variant() {
        let sources = "module a(input clk, input x, output q);
               reg r0; always @(posedge clk) r0 <= x; assign q = r0;
             endmodule";
        let lib = CellLibrary::default();
        let mut store = ParamStore::new();
        let enc = TextEncoder::new(EncoderConfig::tiny(), &mut store, 1);
        let model = MossModel::new(
            MossConfig::small(16, MossVariant::WithoutAlignment),
            &mut store,
            2,
        );
        let m = moss_rtl::parse(sources).unwrap();
        let sample = CircuitSample::build(
            &m,
            &lib,
            &SampleOptions {
                sim_cycles: 64,
                ..SampleOptions::default()
            },
        )
        .unwrap();
        let prep = model.prepare(&sample, &enc, &store, &lib, 500.0).unwrap();
        let mut trainer = Trainer::new(TrainConfig::default());
        let hist = trainer.align(&model, &enc, &mut store, &[prep.clone(), prep]);
        assert!(hist.is_empty());
    }

    #[test]
    fn batch_ranges_fold_short_tail_instead_of_dropping() {
        // The ISSUE case: 5 circuits, align_batch 4 — the old chunking
        // dropped the 1-circuit tail, starving it of alignment gradient.
        assert_eq!(batch_ranges(5, 4), vec![(0, 5)]);
        assert_eq!(batch_ranges(9, 4), vec![(0, 4), (4, 9)]);
        // Exact multiples are untouched.
        assert_eq!(batch_ranges(8, 4), vec![(0, 4), (4, 8)]);
        // Tails of >= 2 stay their own batch.
        assert_eq!(batch_ranges(6, 4), vec![(0, 4), (4, 6)]);
    }

    #[test]
    fn batch_ranges_cover_every_circuit_with_usable_batches() {
        for len in 2..48 {
            for batch in 2..9 {
                let r = batch_ranges(len, batch);
                assert_eq!(r[0].0, 0);
                assert_eq!(r.last().unwrap().1, len);
                assert!(r.windows(2).all(|w| w[0].1 == w[1].0), "contiguous");
                assert!(
                    r.iter().all(|&(s, e)| e - s >= 2),
                    "len {len} batch {batch}: every batch feeds the RNC loss"
                );
            }
        }
    }

    #[test]
    fn align_covers_all_circuits_when_len_mod_batch_is_one() {
        // 3 circuits with batch 2 (3 % 2 == 1): the fix folds the tail so
        // each epoch trains one batch of all 3 circuits instead of
        // dropping one.
        let (model, enc, mut store, preps) = tiny_world();
        let mut trainer = Trainer::new(TrainConfig {
            pretrain_epochs: 2,
            align_epochs: 6,
            align_batch: 2,
            learning_rate: 3e-3,
            ..TrainConfig::default()
        });
        trainer.pretrain(&model, &mut store, &preps);
        let hist = trainer.align(&model, &enc, &mut store, &preps);
        assert_eq!(hist.len(), 6);
        assert!(hist.iter().all(|e| e.total.is_finite()));
        assert!(hist.last().unwrap().rnc < hist.first().unwrap().rnc);
    }

    #[test]
    fn dynamic_weights_balance_magnitudes() {
        let mut w = DynamicWeights::new(2);
        // One task 100× larger: its weight must end up smaller.
        let mut weights = vec![1.0, 1.0];
        for _ in 0..50 {
            weights = w.update(&[10.0, 0.1]);
        }
        assert!(weights[1] > weights[0] * 10.0);
        // Weights stay normalized to the task count.
        let sum: f32 = weights.iter().sum();
        assert!((sum - 2.0).abs() < 1e-3);
    }

    #[test]
    fn resume_after_crash_is_bit_identical_to_uninterrupted_run() {
        let cfg = TrainConfig {
            pretrain_epochs: 5,
            align_epochs: 3,
            align_batch: 3,
            learning_rate: 3e-3,
            ..TrainConfig::default()
        };

        // Reference: the run that never crashes.
        let (model, enc, mut store_a, preps) = tiny_world();
        let mut t_a = Trainer::new(cfg);
        t_a.pretrain(&model, &mut store_a, &preps);
        t_a.align(&model, &enc, &mut store_a, &preps);

        // The same run, killed mid-epoch 3 of pre-training (7 optimizer
        // steps = 2 full epochs of 3 circuits + 1 step whose update the
        // crash throws away), then resumed from the last autosave.
        let path = std::env::temp_dir().join(format!("moss_resume_{}.bin", std::process::id()));
        let (model_b, enc_b, mut store_b, preps_b) = tiny_world();
        let mut t_b = Trainer::new(cfg);
        t_b.autosave_to(&path);
        t_b.abort_after_steps(7);
        t_b.pretrain(&model_b, &mut store_b, &preps_b);
        drop((t_b, store_b, model_b)); // the crash

        let (rc, mut store_r, mut t_r) = Trainer::resume_from(&path).unwrap();
        assert_eq!(t_r.pretrain_epochs_done(), 2, "autosave is per-epoch");
        // Rebinding by name restores the trained values under the original
        // ParamIds (load preserves insertion order).
        let model_r = MossModel::new(rc, &mut store_r, 0xdead);
        let pre = t_r.pretrain(&model_r, &mut store_r, &preps_b);
        assert_eq!(pre.len(), cfg.pretrain_epochs, "full history after resume");
        t_r.align(&model_r, &enc_b, &mut store_r, &preps_b);

        for ((ida, _, ta), (idr, _, tr)) in store_a.iter().zip(store_r.iter()) {
            assert_eq!(ida, idr);
            assert_eq!(ta.shape(), tr.shape());
            for (a, r) in ta.data().iter().zip(tr.data()) {
                assert_eq!(a.to_bits(), r.to_bits(), "param {ida:?} diverged");
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
