//! The MOSS model: LLM-enhanced GNN with task heads and the local/global
//! alignment machinery of §IV-C.

use std::collections::HashMap;

use moss_gnn::{CircuitGnn, CircuitGraph, GnnConfig};
use moss_llm::TextEncoder;
use moss_netlist::{CellLibrary, Levelization, NetlistError, NodeId, NodeKind};
use moss_tensor::{l2_normalize_rows, Graph, Kernels, ParamId, ParamStore, Tensor, Var};

use crate::features::{build_node_features, FeatureOptions, STRUCT_DIM};
use crate::kinds::KindTable;
use crate::sample::CircuitSample;

/// The paper's model variants (Table I columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MossVariant {
    /// The full model.
    Full,
    /// "MOSS w/o A": no local-global alignment strategy.
    WithoutAlignment,
    /// "MOSS w/o AA": LLM features, but no adaptive aggregator and no
    /// alignment.
    WithoutAdaptiveAggregator,
    /// "MOSS w/o FAA": no LLM feature enhancement, no adaptive aggregator,
    /// no alignment.
    WithoutFeatureEnhancement,
}

impl MossVariant {
    /// All variants, in Table I column order.
    pub const ALL: [MossVariant; 4] = [
        MossVariant::WithoutFeatureEnhancement,
        MossVariant::WithoutAdaptiveAggregator,
        MossVariant::WithoutAlignment,
        MossVariant::Full,
    ];

    /// The label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            MossVariant::Full => "MOSS",
            MossVariant::WithoutAlignment => "MOSS w/o A",
            MossVariant::WithoutAdaptiveAggregator => "MOSS w/o AA",
            MossVariant::WithoutFeatureEnhancement => "MOSS w/o FAA",
        }
    }

    /// Whether LLM feature enhancement is active.
    pub fn llm_features(self) -> bool {
        !matches!(self, MossVariant::WithoutFeatureEnhancement)
    }

    /// Whether the adaptive (attention, clustered) aggregator is active.
    pub fn adaptive_aggregator(self) -> bool {
        matches!(self, MossVariant::Full | MossVariant::WithoutAlignment)
    }

    /// Whether the local-global alignment losses are active.
    pub fn alignment(self) -> bool {
        matches!(self, MossVariant::Full)
    }
}

/// MOSS hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MossConfig {
    /// LLM embedding width (must match the paired text encoder).
    pub d_llm: usize,
    /// GNN hidden width.
    pub d_hidden: usize,
    /// Two-phase propagation rounds.
    pub iterations: usize,
    /// Aggregator (cluster) budget.
    pub aggregators: usize,
    /// Shared alignment-space width (`d_r` in Fig. 6).
    pub d_align: usize,
    /// Model variant.
    pub variant: MossVariant,
    /// DBSCAN radius for the adaptive clustering of the cell-kind
    /// embedding vocabulary.
    pub cluster_eps: f32,
    /// Run the turnaround (DFF feedback) phase; `false` is the single-phase
    /// ablation (not one of the paper's named variants, but the design
    /// choice §IV-B motivates).
    pub two_phase: bool,
}

impl MossConfig {
    /// Small CPU-friendly defaults for a given variant.
    pub fn small(d_llm: usize, variant: MossVariant) -> MossConfig {
        MossConfig {
            d_llm,
            d_hidden: 16,
            iterations: 4,
            aggregators: 6,
            d_align: 16,
            variant,
            cluster_eps: 0.75,
            two_phase: true,
        }
    }
}

/// A circuit prepared for training/inference: schedule, features, targets.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Design name.
    pub name: String,
    /// The propagation-ready graph.
    pub circuit: CircuitGraph,
    /// Node indices of standard cells (toggle/probability tasks).
    pub cell_nodes: Vec<usize>,
    /// Node indices of DFFs, in arrival-label order.
    pub dff_nodes: Vec<usize>,
    /// Toggle-rate targets (`cells × 1`).
    pub toggle_target: Tensor,
    /// Signal-probability targets (`cells × 1`).
    pub prob_target: Tensor,
    /// Arrival-time targets in ns (`dffs × 1`).
    pub arrival_target: Tensor,
    /// Per-cell `switch_energy × clock` factors (nW per unit activity).
    pub energy_vec: Tensor,
    /// Known leakage power, nW.
    pub leakage_nw: f64,
    /// Ground-truth total power, nW.
    pub true_power_nw: f64,
    /// Register-prompt embeddings (`registers × d_llm`).
    pub reg_embs: Tensor,
    /// Per-DFF register row index (RrNdM ground truth).
    pub dff_reg_index: Vec<usize>,
    /// Tokenized windows of the whole-RTL text (for alignment training,
    /// where the text tower trains through its LoRA adapters).
    pub rtl_windows: Vec<Vec<usize>>,
}

/// The four local-task loss handles from one forward pass.
#[derive(Debug, Clone, Copy)]
pub struct LocalLosses {
    /// Etoggle loss.
    pub toggle: Var,
    /// Probability loss (pre-training, Fig. 7b).
    pub probability: Var,
    /// EAT loss.
    pub arrival: Var,
    /// Power (circuit-level) loss.
    pub power: Var,
}

/// Numeric predictions for evaluation.
#[derive(Debug, Clone)]
pub struct Predictions {
    /// Toggle rate per cell node (aligned with `Prepared::cell_nodes`).
    pub toggle: Vec<f32>,
    /// Arrival time (ns) per DFF (aligned with `Prepared::dff_nodes`).
    pub arrival_ns: Vec<f32>,
    /// Predicted total power, nW.
    pub power_nw: f64,
}

impl Predictions {
    /// Reads the heads' outputs off the tape: toggle rates, arrival times
    /// clamped at 0 ns, and total power (dynamic plus the known leakage).
    pub(crate) fn from_tape(
        g: &Graph,
        toggle: Var,
        arrival_ns: Var,
        total_dyn: Var,
        prep: &Prepared,
    ) -> Predictions {
        Predictions {
            toggle: g.value(toggle).data().to_vec(),
            arrival_ns: g
                .value(arrival_ns)
                .data()
                .iter()
                .map(|&a| a.max(0.0))
                .collect(),
            power_nw: g.value(total_dyn).get(0, 0) as f64 + prep.leakage_nw,
        }
    }
}

/// A model of the four local tasks (toggle, probability, arrival, power)
/// that the experiment harness prepares, pre-trains and scores through one
/// path: [`MossModel`] and the [`crate::DeepSeq2`] baseline.
pub trait TaskModel {
    /// Salt of the `nan` fault keys [`crate::Trainer::pretrain`] draws: step
    /// `s` of epoch `e` fires on `salt ^ e << 32 ^ s`. MOSS uses 0 (and
    /// `1 << 48` for its alignment phase), DeepSeq2 `2 << 48`.
    const FAULT_SALT: u64;

    /// Prepares one sample: the propagation-ready graph, task targets and
    /// alignment inputs.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist cannot be levelized (synthesis bug).
    fn prepare(
        &self,
        sample: &CircuitSample,
        encoder: &TextEncoder,
        store: &ParamStore,
        lib: &CellLibrary,
        clock_mhz: f64,
    ) -> Result<Prepared, NetlistError>;

    /// Builds the forward pass and the four local-task losses.
    fn local_losses(&self, g: &mut Graph, store: &ParamStore, prep: &Prepared) -> LocalLosses;

    /// Runs inference and extracts numeric predictions.
    fn predict(&self, store: &ParamStore, prep: &Prepared) -> Predictions;

    /// The configuration a training checkpoint records, or `None` for a
    /// model without a checkpoint format (autosave then skips it).
    fn checkpoint_config(&self) -> Option<&MossConfig> {
        None
    }
}

impl Prepared {
    /// Wraps the propagation-ready `circuit` of `sample` with its task
    /// targets: cell and DFF node indices, toggle, probability and arrival
    /// targets, per-cell energy factors and power labels. The alignment
    /// inputs start empty: one zero register row of width `d_llm`, every
    /// DFF bound to it, no text windows.
    pub(crate) fn new(
        sample: &CircuitSample,
        circuit: CircuitGraph,
        lib: &CellLibrary,
        clock_mhz: f64,
        d_llm: usize,
    ) -> Prepared {
        let netlist = &sample.netlist;
        let column = |values: Vec<f32>| {
            let rows = values.len();
            Tensor::from_vec(values, rows, 1)
        };
        let cell_nodes: Vec<usize> = netlist
            .node_ids()
            .filter(|&id| matches!(netlist.kind(id), NodeKind::Cell(_)))
            .map(|id| id.index())
            .collect();
        let labels = &sample.labels;
        let toggle_target = column(cell_nodes.iter().map(|&i| labels.toggle[i]).collect());
        let prob_target = column(cell_nodes.iter().map(|&i| labels.probability[i]).collect());
        let energy_vec = column(
            cell_nodes
                .iter()
                .map(|&i| match netlist.kind(NodeId::new(i)) {
                    NodeKind::Cell(k) => lib.timing(k).switch_energy_fj as f32 * clock_mhz as f32,
                    _ => 0.0,
                })
                .collect(),
        );
        let dff_nodes: Vec<usize> = labels.arrival_ns.iter().map(|&(i, _)| i).collect();
        let arrival_target = column(labels.arrival_ns.iter().map(|&(_, a)| a).collect());
        Prepared {
            name: sample.name.clone(),
            circuit,
            toggle_target,
            prob_target,
            arrival_target,
            energy_vec,
            leakage_nw: labels.leakage_nw,
            true_power_nw: labels.total_power_nw,
            reg_embs: Tensor::zeros(1, d_llm),
            dff_reg_index: vec![0; dff_nodes.len()],
            rtl_windows: Vec::new(),
            cell_nodes,
            dff_nodes,
        }
    }
}

/// The MOSS model: GNN + heads + alignment projections.
#[derive(Debug, Clone)]
pub struct MossModel {
    config: MossConfig,
    pub(crate) gnn: CircuitGnn,
    w_toggle: ParamId,
    b_toggle: ParamId,
    w_prob: ParamId,
    b_prob: ParamId,
    w_at: ParamId,
    b_at: ParamId,
    w_act: ParamId,
    b_act: ParamId,
    w_dff_align: ParamId,
    w_reg_align: ParamId,
    w_n: ParamId,
    w_r: ParamId,
    temperature: ParamId,
    rnm_w1: ParamId,
    rnm_b1: ParamId,
    rnm_w2: ParamId,
}

impl MossModel {
    /// Registers all model parameters into `store`.
    pub fn new(config: MossConfig, store: &mut ParamStore, seed: u64) -> MossModel {
        let d_in = STRUCT_DIM + config.d_llm;
        let gnn = CircuitGnn::new(
            GnnConfig {
                d_in,
                d_hidden: config.d_hidden,
                iterations: config.iterations,
                aggregators: config.aggregators,
                attention: config.variant.adaptive_aggregator(),
                two_phase: config.two_phase,
            },
            store,
            seed,
        );
        let d = config.d_hidden;
        let da = config.d_align;
        let mk = |store: &mut ParamStore, name: &str, r: usize, c: usize, s: u64| {
            store.get_or_add(name, Tensor::xavier(r, c, s))
        };
        MossModel {
            gnn,
            w_toggle: mk(store, "moss.head.toggle.w", d, 1, seed + 201),
            b_toggle: store.get_or_add("moss.head.toggle.b", Tensor::zeros(1, 1)),
            w_prob: mk(store, "moss.head.prob.w", d, 1, seed + 202),
            b_prob: store.get_or_add("moss.head.prob.b", Tensor::zeros(1, 1)),
            w_at: mk(store, "moss.head.at.w", d, 1, seed + 203),
            b_at: store.get_or_add("moss.head.at.b", Tensor::zeros(1, 1)),
            w_act: mk(store, "moss.head.act.w", d, 1, seed + 204),
            b_act: store.get_or_add("moss.head.act.b", Tensor::zeros(1, 1)),
            w_dff_align: mk(store, "moss.align.dff.w", d, da, seed + 205),
            w_reg_align: mk(store, "moss.align.reg.w", config.d_llm, da, seed + 206),
            w_n: mk(store, "moss.align.wn", d, da, seed + 207),
            w_r: mk(store, "moss.align.wr", config.d_llm, da, seed + 208),
            temperature: store.get_or_add("moss.align.temp", Tensor::from_rows(&[&[2.0]])),
            rnm_w1: mk(store, "moss.align.rnm.w1", 2 * da, da, seed + 209),
            rnm_b1: store.get_or_add("moss.align.rnm.b1", Tensor::zeros(1, da)),
            rnm_w2: mk(store, "moss.align.rnm.w2", da, 1, seed + 210),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MossConfig {
        &self.config
    }

    /// Builds the RTL tower *inside* the tape: the text windows run through
    /// the encoder with LoRA adapters trainable, are mean-pooled, projected
    /// by `W_r`, and L2-normalized. This is how the alignment phase
    /// fine-tunes the text side (paper Fig. 6 trains both encoders; the
    /// LLM side adapts through its LoRA path, §IV-A).
    pub fn rtl_align_trainable(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        encoder: &TextEncoder,
        windows: &[Vec<usize>],
    ) -> Var {
        assert!(!windows.is_empty(), "at least one text window");
        let pooled: Vec<Var> = windows
            .iter()
            .map(|w| encoder.pooled(g, store, w, moss_llm::TrainMode::LoraOnly))
            .collect();
        let stacked = g.concat_rows(&pooled);
        let mean = g.mean_rows(stacked);
        let wr = g.param(self.w_r, store);
        let proj = g.matmul(mean, wr);
        g.l2_normalize_rows(proj)
    }

    /// Runs the GNN once, through the tape-free
    /// [`moss_gnn::CircuitGnn::infer`], and returns the raw graph embedding
    /// and DFF hidden states as plain tensors, for trunk-frozen alignment
    /// training. The values are the tape forward's, bit for bit.
    pub fn frozen_embeddings(&self, store: &ParamStore, prep: &Prepared) -> (Tensor, Tensor) {
        let out = self.gnn.infer(store, &prep.circuit);
        let d = self.config.d_hidden;
        let mut dff_states = Vec::with_capacity(prep.dff_nodes.len() * d);
        for &node in &prep.dff_nodes {
            dff_states.extend_from_slice(out.states.row_slice(node));
        }
        let dff_states = Tensor::from_vec(dff_states, prep.dff_nodes.len(), d);
        (out.graph_embedding, dff_states)
    }

    /// Runs the tape-free GNN pass ([`moss_gnn::CircuitGnn::infer`]) on
    /// `circuit` and returns its L2-normalized alignment-space embedding
    /// (`d_align` floats): `l2(N_f · W_n)` of Fig. 6. The pass computes the
    /// tape forward's values bit for bit.
    pub fn netlist_align(&self, store: &ParamStore, circuit: &CircuitGraph) -> Vec<f32> {
        let out = self.gnn.infer(store, circuit);
        let proj = Kernels::GLOBAL.matmul(&out.graph_embedding, store.get(self.w_n));
        l2_normalize_rows(&proj).data().to_vec()
    }

    /// Alignment-space netlist embedding from a frozen graph embedding.
    pub fn netlist_align_frozen(&self, g: &mut Graph, store: &ParamStore, emb: &Tensor) -> Var {
        let e = g.input(emb.clone());
        let wn = g.param(self.w_n, store);
        let p = g.matmul(e, wn);
        g.l2_normalize_rows(p)
    }

    /// RrNdM loss over frozen DFF states (`dffs × d_hidden`; register ↔ DFF
    /// matching with the GNN trunk held fixed): projected, L2-normalized DFF
    /// and register embeddings, their similarity logits, smooth-L1 against
    /// the one-hot DFF → register binding. `None` for a design without DFFs.
    pub fn rrndm_frozen(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        dff_states: &Tensor,
        prep: &Prepared,
    ) -> Option<Var> {
        if dff_states.rows() == 0 {
            return None;
        }
        let dffs = g.input(dff_states.clone());
        let wd = g.param(self.w_dff_align, store);
        let wr = g.param(self.w_reg_align, store);
        let dproj = g.matmul(dffs, wd);
        let dproj = g.l2_normalize_rows(dproj);
        let regs = g.input(prep.reg_embs.clone());
        let rproj = g.matmul(regs, wr);
        let rproj = g.l2_normalize_rows(rproj);
        let rt = g.transpose(rproj);
        let logits = g.matmul(dproj, rt);
        let mut target = Tensor::zeros(prep.dff_nodes.len(), prep.reg_embs.rows());
        for (i, &r) in prep.dff_reg_index.iter().enumerate() {
            target.set(i, r, 1.0);
        }
        Some(g.smooth_l1(logits, target))
    }

    /// The symmetric RTL-netlist contrastive loss over a batch (Fig. 6).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two pairs are supplied.
    pub fn rnc_loss(&self, g: &mut Graph, store: &ParamStore, rtl: &[Var], net: &[Var]) -> Var {
        assert!(rtl.len() >= 2 && rtl.len() == net.len(), "need ≥2 pairs");
        // Batch-center both modalities before the similarity matrix: mean
        // pooling over hundreds of nodes (and tokens) concentrates
        // embeddings around a shared direction, and two collapsed towers
        // are a saddle point of the InfoNCE objective (all logits equal ⇒
        // zero gradient). Removing the batch mean exposes the
        // discriminative component at unit scale.
        let r_cat = g.concat_rows(rtl);
        let r = center_rows(g, r_cat);
        let n_cat = g.concat_rows(net);
        let n = center_rows(g, n_cat);
        let nt = g.transpose(n);
        let logits = g.matmul(r, nt);
        // exp(t) scaling with learned t, exactly as the pseudocode.
        let t = g.param(self.temperature, store);
        let expt = g.exp(t);
        let logits = g.mul_scalar_var(logits, expt);
        let labels: Vec<usize> = (0..rtl.len()).collect();
        let lr = g.cross_entropy_rows(logits, &labels);
        let lc = g.cross_entropy_cols(logits, &labels);
        let sum = g.add(lr, lc);
        g.scale(sum, 0.5)
    }

    /// The RTL-netlist matching loss: MLP on concatenated pairs vs the
    /// identity matrix, as smooth-L1 (Fig. 6).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two pairs are supplied.
    pub fn rnm_loss(&self, g: &mut Graph, store: &ParamStore, rtl: &[Var], net: &[Var]) -> Var {
        assert!(rtl.len() >= 2 && rtl.len() == net.len(), "need ≥2 pairs");
        let k = rtl.len();
        let w1 = g.param(self.rnm_w1, store);
        let b1 = g.param(self.rnm_b1, store);
        let w2 = g.param(self.rnm_w2, store);
        let r_cat = g.concat_rows(rtl);
        let r_c = center_rows(g, r_cat);
        let n_cat = g.concat_rows(net);
        let n_c = center_rows(g, n_cat);
        let mut rows = Vec::with_capacity(k * k);
        for i in 0..k {
            for j in 0..k {
                let ri = g.gather_rows(r_c, &[i]);
                let nj = g.gather_rows(n_c, &[j]);
                rows.push(g.concat_cols(ri, nj));
            }
        }
        let pairs = g.concat_rows(&rows);
        let h = g.matmul(pairs, w1);
        let h = g.add_row(h, b1);
        let h = g.gelu(h);
        let score = g.matmul(h, w2);
        let score = g.sigmoid(score);
        let mut target = Tensor::zeros(k * k, 1);
        for i in 0..k {
            target.set(i * k + i, 0, 1.0);
        }
        g.smooth_l1(score, target)
    }

    /// RNM matching score for one (rtl, netlist) pair of alignment-space
    /// embeddings, outside training.
    pub fn rnm_score(&self, store: &ParamStore, rtl: &[f32], net: &[f32]) -> f32 {
        let mut g = Graph::new();
        let r = g.input(Tensor::row(rtl));
        let n = g.input(Tensor::row(net));
        let pair = g.concat_cols(r, n);
        let w1 = g.param(self.rnm_w1, store);
        let b1 = g.param(self.rnm_b1, store);
        let w2 = g.param(self.rnm_w2, store);
        let h = g.matmul(pair, w1);
        let h = g.add_row(h, b1);
        let h = g.gelu(h);
        let s = g.matmul(h, w2);
        let s = g.sigmoid(s);
        g.value(s).get(0, 0)
    }

    /// Alignment-space RTL embedding for evaluation, computed through the
    /// current (possibly alignment-tuned) encoder weights.
    pub fn rtl_align_vec(
        &self,
        store: &ParamStore,
        encoder: &TextEncoder,
        prep: &Prepared,
    ) -> Vec<f32> {
        let mut g = Graph::new();
        let v = self.rtl_align_trainable(&mut g, store, encoder, &prep.rtl_windows);
        g.value(v).data().to_vec()
    }
}

impl TaskModel for MossModel {
    const FAULT_SALT: u64 = 0;

    /// Prepares one sample: clustering (Fig. 5), feature construction
    /// (Fig. 2A), targets, and text embeddings.
    fn prepare(
        &self,
        sample: &CircuitSample,
        encoder: &TextEncoder,
        store: &ParamStore,
        lib: &CellLibrary,
        clock_mhz: f64,
    ) -> Result<Prepared, NetlistError> {
        let _obs = moss_obs::span_items("prepare", sample.netlist.node_count() as u64);
        let options = FeatureOptions {
            llm_enhancement: self.config.variant.llm_features(),
        };
        let kinds = KindTable::new(&self.config, encoder, store);
        let levels = Levelization::of(&sample.netlist)?;
        let features = build_node_features(
            &sample.netlist,
            &levels,
            encoder,
            store,
            kinds.embeddings(),
            &sample.register_descs,
            &sample.bindings,
            &options,
        );
        let clusters = kinds.clustering(&sample.netlist);
        let circuit = CircuitGraph::new(&sample.netlist, &levels, features, clusters)?;
        let d_llm = self.config.d_llm;
        let mut prep = Prepared::new(sample, circuit, lib, clock_mhz, d_llm);

        // Register embeddings + per-DFF register index for RrNdM.
        let reg_names: Vec<&str> = sample
            .register_descs
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        let name_to_row: HashMap<&str, usize> =
            reg_names.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut reg_embs = Tensor::zeros(reg_names.len().max(1), d_llm);
        let prompts: Vec<&str> = sample
            .register_descs
            .iter()
            .map(|rd| rd.prompt.as_str())
            .collect();
        for (i, e) in encoder.embed_batch(store, &prompts).into_iter().enumerate() {
            for j in 0..d_llm {
                reg_embs.set(i, j, e.get(0, j));
            }
        }
        let binding_reg: HashMap<usize, usize> = sample
            .bindings
            .iter()
            .filter_map(|b| {
                name_to_row
                    .get(b.register_name.as_str())
                    .map(|&row| (b.dff.index(), row))
            })
            .collect();
        prep.reg_embs = reg_embs;
        prep.dff_reg_index = prep
            .dff_nodes
            .iter()
            .map(|i| binding_reg.get(i).copied().unwrap_or(0))
            .collect();

        // Whole-RTL text: summary first (distinctive dataflow), then the
        // full source, as at most 8 encoder windows spread over the text.
        let text = format!("{}\n{}", sample.summary, sample.rtl_text);
        prep.rtl_windows = text_windows(encoder, &text, 8);
        Ok(prep)
    }

    /// Builds the forward pass and the local task losses: Etoggle, EAT,
    /// probability and power. The alignment losses train later, on the
    /// frozen trunk ([`MossModel::frozen_embeddings`]).
    fn local_losses(&self, g: &mut Graph, store: &ParamStore, prep: &Prepared) -> LocalLosses {
        let out = self.gnn.forward(g, store, &prep.circuit);

        // Etoggle: sigmoid head on cell states. Weighted by the inverse
        // target magnitude so the loss optimizes *relative* error — the
        // paper's Fig. 1(a) error definition and Eq. 3 metric.
        let cells = g.gather_rows(out.states, &prep.cell_nodes);
        let toggle_pred = scalar_head(g, store, cells, self.w_toggle, self.b_toggle, true);
        let toggle = g.smooth_l1_weighted(
            toggle_pred,
            prep.toggle_target.clone(),
            relative_weights(&prep.toggle_target),
        );

        // Probability head (pre-training supervision).
        let prob_pred = scalar_head(g, store, cells, self.w_prob, self.b_prob, true);
        let probability = g.smooth_l1(prob_pred, prep.prob_target.clone());

        // EAT: linear head on DFF states (ns), relative-error weighted.
        let dffs = g.gather_rows(out.states, &prep.dff_nodes);
        let at_pred = scalar_head(g, store, dffs, self.w_at, self.b_at, false);
        let arrival = g.smooth_l1_weighted(
            at_pred,
            prep.arrival_target.clone(),
            relative_weights(&prep.arrival_target),
        );

        // Power: activity head × known per-cell energy, summed, + leakage,
        // supervised as a ratio to ground truth.
        let act = scalar_head(g, store, cells, self.w_act, self.b_act, true);
        let total_dyn = dynamic_power(g, act, prep);
        let power = power_loss(g, total_dyn, prep);

        LocalLosses {
            toggle,
            probability,
            arrival,
            power,
        }
    }

    fn predict(&self, store: &ParamStore, prep: &Prepared) -> Predictions {
        let mut g = Graph::new();
        let out = self.gnn.forward(&mut g, store, &prep.circuit);
        let cells = g.gather_rows(out.states, &prep.cell_nodes);
        let toggle_pred = scalar_head(&mut g, store, cells, self.w_toggle, self.b_toggle, true);
        let dffs = g.gather_rows(out.states, &prep.dff_nodes);
        let at_pred = scalar_head(&mut g, store, dffs, self.w_at, self.b_at, false);
        let act = scalar_head(&mut g, store, cells, self.w_act, self.b_act, true);
        let total_dyn = dynamic_power(&mut g, act, prep);
        Predictions::from_tape(&g, toggle_pred, at_pred, total_dyn, prep)
    }

    fn checkpoint_config(&self) -> Option<&MossConfig> {
        Some(&self.config)
    }
}

/// A scalar head `states · w + b` on the tape, sigmoid-squashed when
/// `squash` is set.
pub(crate) fn scalar_head(
    g: &mut Graph,
    store: &ParamStore,
    states: Var,
    w: ParamId,
    b: ParamId,
    squash: bool,
) -> Var {
    let wv = g.param(w, store);
    let bv = g.param(b, store);
    let o = g.matmul(states, wv);
    let o = g.add_row(o, bv);
    if squash {
        g.sigmoid(o)
    } else {
        o
    }
}

/// Total dynamic power (nW) on the tape: the per-cell `activity` head times
/// the known per-cell energy factors, summed.
pub(crate) fn dynamic_power(g: &mut Graph, activity: Var, prep: &Prepared) -> Var {
    let energy = g.input(prep.energy_vec.clone());
    let dyn_nw = g.mul(activity, energy);
    g.sum_all(dyn_nw)
}

/// The power loss: dynamic power plus the known leakage, as a ratio to the
/// ground-truth total, smooth-L1 against 1.
pub(crate) fn power_loss(g: &mut Graph, total_dyn: Var, prep: &Prepared) -> Var {
    let scale = 1.0 / prep.true_power_nw.max(1e-9) as f32;
    let dyn_ratio = g.scale(total_dyn, scale);
    let leak_ratio = g.input(Tensor::from_rows(&[&[prep.leakage_nw as f32 * scale]]));
    let total_ratio = g.add(dyn_ratio, leak_ratio);
    g.smooth_l1(total_ratio, Tensor::from_rows(&[&[1.0]]))
}

/// Per-element weights `1 / max(|t|, 0.05)`, matching the relative-error
/// evaluation metric (Eq. 3).
pub(crate) fn relative_weights(target: &Tensor) -> Tensor {
    target.map(|t| 1.0 / t.abs().max(0.05))
}

/// Subtracts the row mean and re-normalizes each row to unit length.
fn center_rows(g: &mut Graph, x: Var) -> Var {
    let m = g.mean_rows(x);
    let neg = g.scale(m, -1.0);
    let c = g.add_row(x, neg);
    g.l2_normalize_rows(c)
}

/// Splits a long text into at most `cap` token windows of the encoder's
/// context size, sampled evenly across the text.
fn text_windows(encoder: &TextEncoder, text: &str, cap: usize) -> Vec<Vec<usize>> {
    let all = encoder.tokenizer().encode(text, usize::MAX);
    let max_len = encoder.config().max_len;
    if all.len() <= max_len {
        return vec![all];
    }
    let body = &all[1..];
    let window = max_len - 1;
    let chunks: Vec<Vec<usize>> = body
        .chunks(window)
        .map(|c| {
            let mut t = Vec::with_capacity(c.len() + 1);
            t.push(moss_llm::special::CLS);
            t.extend_from_slice(c);
            t
        })
        .collect();
    if chunks.len() <= cap {
        return chunks;
    }
    // Evenly sample `cap` windows.
    (0..cap)
        .map(|i| chunks[i * chunks.len() / cap].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::SampleOptions;
    use moss_llm::EncoderConfig;

    fn setup() -> (MossModel, TextEncoder, ParamStore, Prepared) {
        let m = moss_rtl::parse(
            "module cnt(input clk, input en, output [2:0] q);
               reg [2:0] s = 0;
               always @(posedge clk) s <= en ? (s + 3'd1) : s;
               assign q = s;
             endmodule",
        )
        .unwrap();
        let lib = CellLibrary::default();
        let sample = CircuitSample::build(
            &m,
            &lib,
            &SampleOptions {
                sim_cycles: 256,
                ..SampleOptions::default()
            },
        )
        .unwrap();
        let mut store = ParamStore::new();
        let enc = TextEncoder::new(EncoderConfig::tiny(), &mut store, 1);
        let model = MossModel::new(MossConfig::small(16, MossVariant::Full), &mut store, 2);
        let prep = model.prepare(&sample, &enc, &store, &lib, 500.0).unwrap();
        (model, enc, store, prep)
    }

    #[test]
    fn local_losses_are_finite_scalars() {
        let (model, _enc, store, prep) = setup();
        let mut g = Graph::new();
        let losses = model.local_losses(&mut g, &store, &prep);
        let (emb, dff_states) = model.frozen_embeddings(&store, &prep);
        let rrndm = model.rrndm_frozen(&mut g, &store, &dff_states, &prep);
        for (name, v) in [
            ("toggle", losses.toggle),
            ("prob", losses.probability),
            ("arrival", losses.arrival),
            ("power", losses.power),
            ("rrndm", rrndm.expect("the design has registers")),
        ] {
            let val = g.value(v).get(0, 0);
            assert!(val.is_finite() && val >= 0.0, "{name} = {val}");
        }
        let netlist_align = model.netlist_align_frozen(&mut g, &store, &emb);
        assert_eq!(g.value(netlist_align).shape(), (1, 16));
    }

    #[test]
    fn training_reduces_total_local_loss() {
        let (model, _enc, mut store, prep) = setup();
        let mut opt = moss_tensor::Adam::new(5e-3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..20 {
            let mut g = Graph::new();
            let l = model.local_losses(&mut g, &store, &prep);
            let s1 = g.add(l.toggle, l.probability);
            let s2 = g.add(l.arrival, l.power);
            let total = g.add(s1, s2);
            last = g.value(total).get(0, 0);
            first.get_or_insert(last);
            let grads = g.backward(total);
            opt.step(&mut store, &grads);
        }
        assert!(last < first.unwrap(), "{:?} → {last}", first);
    }

    #[test]
    fn rnc_and_rnm_losses_train_alignment() {
        let (model, enc, store, prep) = setup();
        let (emb, _) = model.frozen_embeddings(&store, &prep);
        let mut g = Graph::new();
        let n1 = model.netlist_align_frozen(&mut g, &store, &emb);
        let n2 = model.netlist_align_frozen(&mut g, &store, &emb);
        let r1 = model.rtl_align_trainable(&mut g, &store, &enc, &prep.rtl_windows);
        let r2 = model.rtl_align_trainable(&mut g, &store, &enc, &prep.rtl_windows);
        let rnc = model.rnc_loss(&mut g, &store, &[r1, r2], &[n1, n2]);
        let rnm = model.rnm_loss(&mut g, &store, &[r1, r2], &[n1, n2]);
        assert!(g.value(rnc).get(0, 0).is_finite());
        assert!(g.value(rnm).get(0, 0).is_finite());
        // Gradients reach the temperature parameter through exp(t).
        let total = g.add(rnc, rnm);
        let grads = g.backward(total);
        let temp = store.find("moss.align.temp").unwrap();
        assert!(grads.get(temp).is_some());
    }

    #[test]
    fn predictions_have_expected_shapes() {
        let (model, _enc, store, prep) = setup();
        let p = model.predict(&store, &prep);
        assert_eq!(p.toggle.len(), prep.cell_nodes.len());
        assert_eq!(p.arrival_ns.len(), prep.dff_nodes.len());
        assert!(p.power_nw > 0.0);
        assert!(p.arrival_ns.iter().all(|&a| a >= 0.0));
        let align = model.netlist_align(&store, &prep.circuit);
        let norm: f32 = align.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4, "alignment embedding unit norm");
    }

    #[test]
    fn variants_toggle_components() {
        assert!(MossVariant::Full.alignment());
        assert!(!MossVariant::WithoutAlignment.alignment());
        assert!(MossVariant::WithoutAlignment.adaptive_aggregator());
        assert!(!MossVariant::WithoutAdaptiveAggregator.adaptive_aggregator());
        assert!(MossVariant::WithoutAdaptiveAggregator.llm_features());
        assert!(!MossVariant::WithoutFeatureEnhancement.llm_features());
    }
}
