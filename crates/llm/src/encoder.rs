//! The transformer text encoder — the reproduction's stand-in for the
//! fine-tuned Yi-Coder-9B-Chat of the paper (§IV-A).
//!
//! A pre-LN transformer with multi-head self-attention, GELU MLPs,
//! sinusoidal positions, LoRA adapters on the Q/V projections (mirroring
//! the paper's LoRA fine-tuning path), and mean pooling over token states
//! ("we use mean pooling to aggregate token embeddings", Fig. 3b).

use moss_tensor::{Graph, ParamId, ParamStore, Tensor, Var};

use crate::tokenizer::Tokenizer;

/// Encoder hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Hash-bucket count for the tokenizer (vocab = buckets + 4).
    pub vocab_buckets: usize,
    /// Model width.
    pub d_model: usize,
    /// Transformer layers.
    pub layers: usize,
    /// Attention heads (must divide `d_model`).
    pub heads: usize,
    /// Feed-forward width.
    pub d_ff: usize,
    /// Maximum sequence length.
    pub max_len: usize,
    /// LoRA rank (0 disables the adapters).
    pub lora_rank: usize,
}

impl EncoderConfig {
    /// A small configuration suitable for CPU training in tests/benches.
    pub fn small() -> EncoderConfig {
        EncoderConfig {
            vocab_buckets: 2048,
            d_model: 32,
            layers: 2,
            heads: 2,
            d_ff: 64,
            max_len: 64,
            lora_rank: 4,
        }
    }

    /// A tiny configuration for fast unit tests.
    pub fn tiny() -> EncoderConfig {
        EncoderConfig {
            vocab_buckets: 256,
            d_model: 16,
            layers: 1,
            heads: 2,
            d_ff: 32,
            max_len: 32,
            lora_rank: 2,
        }
    }
}

/// Parameter handles for one transformer layer.
#[derive(Debug, Clone)]
struct LayerParams {
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
    wo: ParamId,
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
    lora_qa: Option<ParamId>,
    lora_qb: Option<ParamId>,
    lora_va: Option<ParamId>,
    lora_vb: Option<ParamId>,
}

/// The text encoder model: configuration + parameter handles.
///
/// Parameters live in an external [`ParamStore`]; the same store can hold
/// several models (e.g. encoder + GNN) and is checkpointable as a unit.
#[derive(Debug, Clone)]
pub struct TextEncoder {
    config: EncoderConfig,
    tokenizer: Tokenizer,
    embedding: ParamId,
    mlm_head: ParamId,
    layers: Vec<LayerParams>,
    positions: Tensor,
}

/// Which parameters train during a fine-tuning phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainMode {
    /// All parameters receive gradients.
    Full,
    /// Only LoRA adapters (and the MLM head) receive gradients; base
    /// weights are loaded as constants — the paper's LoRA setting.
    LoraOnly,
}

impl TextEncoder {
    /// Registers all encoder parameters into `store`.
    ///
    /// # Panics
    ///
    /// Panics if `heads` does not divide `d_model`.
    pub fn new(config: EncoderConfig, store: &mut ParamStore, seed: u64) -> TextEncoder {
        assert_eq!(
            config.d_model % config.heads,
            0,
            "heads must divide d_model"
        );
        let vocab = config.vocab_buckets + crate::tokenizer::special::COUNT;
        let embedding =
            store.get_or_add("llm.embedding", Tensor::xavier(vocab, config.d_model, seed));
        let mlm_head = store.get_or_add(
            "llm.mlm_head",
            Tensor::xavier(config.d_model, vocab, seed ^ 1),
        );
        let mut layers = Vec::with_capacity(config.layers);
        for l in 0..config.layers {
            let s = seed.wrapping_add(100 + l as u64 * 10);
            let d = config.d_model;
            let mk = |store: &mut ParamStore, name: &str, r: usize, c: usize, s: u64| {
                store.get_or_add(format!("llm.layer{l}.{name}"), Tensor::xavier(r, c, s))
            };
            let lora = |store: &mut ParamStore, name: &str, s: u64| {
                if config.lora_rank == 0 {
                    (None, None)
                } else {
                    let a = store.get_or_add(
                        format!("llm.layer{l}.{name}.lora_a"),
                        Tensor::xavier(d, config.lora_rank, s),
                    );
                    // LoRA B starts at zero so the adapter is initially a
                    // no-op.
                    let b = store.get_or_add(
                        format!("llm.layer{l}.{name}.lora_b"),
                        Tensor::zeros(config.lora_rank, d),
                    );
                    (Some(a), Some(b))
                }
            };
            let wq = mk(store, "wq", d, d, s);
            let wk = mk(store, "wk", d, d, s + 1);
            let wv = mk(store, "wv", d, d, s + 2);
            let wo = mk(store, "wo", d, d, s + 3);
            let w1 = mk(store, "ff.w1", d, config.d_ff, s + 4);
            let b1 = store.get_or_add(format!("llm.layer{l}.ff.b1"), Tensor::zeros(1, config.d_ff));
            let w2 = mk(store, "ff.w2", config.d_ff, d, s + 5);
            let b2 = store.get_or_add(format!("llm.layer{l}.ff.b2"), Tensor::zeros(1, d));
            let (lora_qa, lora_qb) = lora(store, "wq", s + 6);
            let (lora_va, lora_vb) = lora(store, "wv", s + 7);
            layers.push(LayerParams {
                wq,
                wk,
                wv,
                wo,
                w1,
                b1,
                w2,
                b2,
                lora_qa,
                lora_qb,
                lora_va,
                lora_vb,
            });
        }
        TextEncoder {
            tokenizer: Tokenizer::new(config.vocab_buckets),
            positions: sinusoidal_positions(config.max_len, config.d_model),
            config,
            embedding,
            mlm_head,
            layers,
        }
    }

    /// The encoder configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// The tokenizer paired with this encoder.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// Every parameter id belonging to this encoder.
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut out = vec![self.embedding, self.mlm_head];
        for l in &self.layers {
            out.extend([l.wq, l.wk, l.wv, l.wo, l.w1, l.b1, l.w2, l.b2]);
            out.extend(
                [l.lora_qa, l.lora_qb, l.lora_va, l.lora_vb]
                    .into_iter()
                    .flatten(),
            );
        }
        out
    }

    /// Loads a weight either as a trainable param or frozen constant.
    fn weight(&self, g: &mut Graph, store: &ParamStore, id: ParamId, mode: TrainMode) -> Var {
        match mode {
            TrainMode::Full => g.param(id, store),
            TrainMode::LoraOnly => g.input(store.get(id).clone()),
        }
    }

    /// Builds the forward pass over one token sequence, returning per-token
    /// hidden states (`seq × d_model`).
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or longer than `max_len`.
    pub fn forward_tokens(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        tokens: &[usize],
        mode: TrainMode,
    ) -> Var {
        assert!(!tokens.is_empty(), "empty token sequence");
        assert!(
            tokens.len() <= self.config.max_len,
            "sequence exceeds max_len"
        );
        let emb = self.weight(g, store, self.embedding, mode);
        let mut h = g.gather_rows(emb, tokens);
        // Add sinusoidal positions (constant).
        let mut pos = Tensor::zeros(tokens.len(), self.config.d_model);
        for i in 0..tokens.len() {
            for j in 0..self.config.d_model {
                pos.set(i, j, self.positions.get(i, j));
            }
        }
        let pos = g.input(pos);
        h = g.add(h, pos);

        let dk = (self.config.d_model / self.config.heads) as f32;
        for layer in &self.layers {
            // ---- attention block (pre-LN) ----
            let x = g.layer_norm_rows(h);
            let wq = self.lora_weight(g, store, layer.wq, layer.lora_qa, layer.lora_qb, mode);
            let wk = self.weight(g, store, layer.wk, mode);
            let wv = self.lora_weight(g, store, layer.wv, layer.lora_va, layer.lora_vb, mode);
            let wo = self.weight(g, store, layer.wo, mode);
            let q = g.matmul(x, wq);
            let k = g.matmul(x, wk);
            let v = g.matmul(x, wv);
            let dh = self.config.d_model / self.config.heads;
            let mut head_outs = Vec::with_capacity(self.config.heads);
            for hd in 0..self.config.heads {
                let qh = g.slice_cols(q, hd * dh, dh);
                let kh = g.slice_cols(k, hd * dh, dh);
                let vh = g.slice_cols(v, hd * dh, dh);
                let kt = g.transpose(kh);
                let scores = g.matmul(qh, kt);
                let scores = g.scale(scores, 1.0 / dk.sqrt());
                let attn = g.softmax_rows(scores);
                head_outs.push(g.matmul(attn, vh));
            }
            let mut cat = head_outs[0];
            for &ho in &head_outs[1..] {
                cat = g.concat_cols(cat, ho);
            }
            let attn_out = g.matmul(cat, wo);
            h = g.add(h, attn_out);

            // ---- feed-forward block (pre-LN) ----
            let x = g.layer_norm_rows(h);
            let w1 = self.weight(g, store, layer.w1, mode);
            let b1 = self.weight(g, store, layer.b1, mode);
            let w2 = self.weight(g, store, layer.w2, mode);
            let b2 = self.weight(g, store, layer.b2, mode);
            let f = g.matmul(x, w1);
            let f = g.add_row(f, b1);
            let f = g.gelu(f);
            let f = g.matmul(f, w2);
            let f = g.add_row(f, b2);
            h = g.add(h, f);
        }
        g.layer_norm_rows(h)
    }

    /// `W + A·B` when LoRA is enabled (adapters always train).
    fn lora_weight(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        base: ParamId,
        a: Option<ParamId>,
        b: Option<ParamId>,
        mode: TrainMode,
    ) -> Var {
        let w = self.weight(g, store, base, mode);
        match (a, b) {
            (Some(a), Some(b)) => {
                let av = g.param(a, store);
                let bv = g.param(b, store);
                let delta = g.matmul(av, bv);
                g.add(w, delta)
            }
            _ => w,
        }
    }

    /// Per-token vocabulary logits for masked-token prediction.
    pub fn mlm_logits(&self, g: &mut Graph, store: &ParamStore, hidden: Var) -> Var {
        let head = g.param(self.mlm_head, store);
        g.matmul(hidden, head)
    }

    /// Builds the forward pass and mean-pools to a single `1 × d_model`
    /// embedding (the paper's Fig. 3b aggregation).
    pub fn pooled(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        tokens: &[usize],
        mode: TrainMode,
    ) -> Var {
        let h = self.forward_tokens(g, store, tokens, mode);
        g.mean_rows(h)
    }

    /// Convenience: embeds raw text outside any training loop.
    pub fn embed_text(&self, store: &ParamStore, text: &str) -> Tensor {
        let tokens = self.tokenizer.encode(text, self.config.max_len);
        let _obs = moss_obs::span_items("embed_text", tokens.len() as u64);
        let mut g = Graph::new();
        let pooled = self.pooled(&mut g, store, &tokens, TrainMode::LoraOnly);
        g.value(pooled).clone()
    }

    /// Embeds a batch of texts, fanning the independent forwards out over
    /// the persistent thread pool (`moss_tensor::pool`). Results are
    /// in input order and bit-identical to sequential
    /// [`TextEncoder::embed_text`] calls.
    pub fn embed_batch<S: AsRef<str> + Sync>(
        &self,
        store: &ParamStore,
        texts: &[S],
    ) -> Vec<Tensor> {
        moss_tensor::par_map(texts, |_, t| self.embed_text(store, t.as_ref()))
    }
}

/// Standard sinusoidal position encodings.
fn sinusoidal_positions(max_len: usize, d_model: usize) -> Tensor {
    let mut t = Tensor::zeros(max_len, d_model);
    for p in 0..max_len {
        for j in 0..d_model {
            let angle = p as f32 / 10000f32.powf((2 * (j / 2)) as f32 / d_model as f32);
            t.set(p, j, if j % 2 == 0 { angle.sin() } else { angle.cos() });
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_encoder() -> (TextEncoder, ParamStore) {
        let mut store = ParamStore::new();
        let enc = TextEncoder::new(EncoderConfig::tiny(), &mut store, 42);
        (enc, store)
    }

    #[test]
    fn embedding_shape_and_determinism() {
        let (enc, store) = tiny_encoder();
        let e1 = enc.embed_text(&store, "register q holds state");
        let e2 = enc.embed_text(&store, "register q holds state");
        assert_eq!(e1.shape(), (1, 16));
        assert_eq!(e1, e2);
    }

    #[test]
    fn embed_batch_matches_sequential_embed_text() {
        let (enc, store) = tiny_encoder();
        let texts = [
            "register q holds state",
            "two input nand gate",
            "rising edge d type flip flop",
            "assign y = a & b;",
            "wire t; assign t = a;",
        ];
        let batch = enc.embed_batch(&store, &texts);
        assert_eq!(batch.len(), texts.len());
        for (t, b) in texts.iter().zip(&batch) {
            assert_eq!(&enc.embed_text(&store, t), b, "order and bits preserved");
        }
    }

    #[test]
    fn different_text_different_embedding() {
        let (enc, store) = tiny_encoder();
        let a = enc.embed_text(&store, "two input nand gate");
        let b = enc.embed_text(&store, "rising edge d type flip flop");
        assert!(a.distance(&b) > 1e-3);
    }

    #[test]
    fn lora_b_zero_makes_adapters_initially_inert() {
        let mut store = ParamStore::new();
        let with = TextEncoder::new(EncoderConfig::tiny(), &mut store, 42);
        let mut cfg = EncoderConfig::tiny();
        cfg.lora_rank = 0;
        let mut store2 = ParamStore::new();
        let without = TextEncoder::new(cfg, &mut store2, 42);
        let ea = with.embed_text(&store, "assign y = a & b;");
        let eb = without.embed_text(&store2, "assign y = a & b;");
        assert!(ea.distance(&eb) < 1e-5, "zero-init B ⇒ same output");
    }

    #[test]
    fn gradients_reach_lora_only_in_lora_mode() {
        let (enc, store) = tiny_encoder();
        let tokens = enc.tokenizer().encode("module m endmodule", 16);
        let mut g = Graph::new();
        let pooled = enc.pooled(&mut g, &store, &tokens, TrainMode::LoraOnly);
        let loss = g.smooth_l1(pooled, Tensor::zeros(1, 16));
        let grads = g.backward(loss);
        let wq0 = store.find("llm.layer0.wq").unwrap();
        let la = store.find("llm.layer0.wq.lora_a").unwrap();
        assert!(grads.get(wq0).is_none(), "base frozen");
        assert!(grads.get(la).is_some(), "adapter trains");
    }

    #[test]
    fn gradients_reach_everything_in_full_mode() {
        let (enc, store) = tiny_encoder();
        let tokens = enc.tokenizer().encode("module m endmodule", 16);
        let mut g = Graph::new();
        let pooled = enc.pooled(&mut g, &store, &tokens, TrainMode::Full);
        let loss = g.smooth_l1(pooled, Tensor::zeros(1, 16));
        let grads = g.backward(loss);
        let wq0 = store.find("llm.layer0.wq").unwrap();
        assert!(grads.get(wq0).is_some());
    }

    #[test]
    fn mlm_logits_cover_vocab() {
        let (enc, store) = tiny_encoder();
        let tokens = enc.tokenizer().encode("wire t; assign t = a;", 16);
        let mut g = Graph::new();
        let h = enc.forward_tokens(&mut g, &store, &tokens, TrainMode::Full);
        let logits = enc.mlm_logits(&mut g, &store, h);
        assert_eq!(
            g.value(logits).shape(),
            (tokens.len(), enc.tokenizer().vocab_size())
        );
    }

    #[test]
    #[should_panic(expected = "exceeds max_len")]
    fn overlong_sequence_rejected() {
        let (enc, store) = tiny_encoder();
        let tokens = vec![5usize; 33];
        let mut g = Graph::new();
        enc.forward_tokens(&mut g, &store, &tokens, TrainMode::Full);
    }
}
