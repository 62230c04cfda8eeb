//! A from-scratch encoder–decoder transformer (pre-LN, multi-head attention,
//! learned positional embeddings), sized for CPU training.
//!
//! This is the architecture behind CodeBE: the paper fine-tunes UniXcoder in
//! encoder-decoder mode; we train the same *shape* of model from scratch (or
//! from a denoising pre-training pass, see `vega-model`), scaled down to run
//! on one core.

use crate::graph::{Graph, NodeId};
use crate::params::{Init, OutProjCache, ParamId, ParamStore};
use crate::seq2seq::Seq2Seq;
use crate::tensor::Tensor;
use std::sync::Arc;
use vega_obs::json::{Json, JsonError};

/// Transformer hyperparameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformerConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Model width.
    pub d_model: usize,
    /// Number of attention heads (`d_model % n_heads == 0`).
    pub n_heads: usize,
    /// Feed-forward inner width.
    pub d_ff: usize,
    /// Encoder depth.
    pub n_enc_layers: usize,
    /// Decoder depth.
    pub n_dec_layers: usize,
    /// Maximum sequence length (positional table size).
    pub max_len: usize,
    /// Weight-init seed.
    pub seed: u64,
}

impl TransformerConfig {
    /// A small configuration suitable for the full experiments on one core.
    pub fn small(vocab: usize) -> Self {
        TransformerConfig {
            vocab,
            d_model: 40,
            n_heads: 2,
            d_ff: 80,
            n_enc_layers: 1,
            n_dec_layers: 2,
            max_len: 96,
            seed: 0xC0DE,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny(vocab: usize) -> Self {
        TransformerConfig {
            vocab,
            d_model: 16,
            n_heads: 2,
            d_ff: 32,
            n_enc_layers: 1,
            n_dec_layers: 1,
            max_len: 24,
            seed: 7,
        }
    }
}

fn pid_json(p: ParamId) -> Json {
    Json::num_usize(p.0)
}

fn pid_from(v: &Json) -> Result<ParamId, JsonError> {
    Ok(ParamId(v.as_usize()?))
}

fn pids_json(ps: &[ParamId]) -> Json {
    Json::Arr(ps.iter().map(|&p| pid_json(p)).collect())
}

fn pids_from(v: &Json) -> Result<Vec<ParamId>, JsonError> {
    v.as_array()?.iter().map(pid_from).collect()
}

#[derive(Debug, Clone)]
pub(crate) struct AttnParams {
    pub(crate) wq: Vec<ParamId>,
    pub(crate) wk: Vec<ParamId>,
    pub(crate) wv: Vec<ParamId>,
    pub(crate) wo: ParamId,
}

impl AttnParams {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("wq", pids_json(&self.wq)),
            ("wk", pids_json(&self.wk)),
            ("wv", pids_json(&self.wv)),
            ("wo", pid_json(self.wo)),
        ])
    }

    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        Ok(AttnParams {
            wq: pids_from(v.field("wq")?)?,
            wk: pids_from(v.field("wk")?)?,
            wv: pids_from(v.field("wv")?)?,
            wo: pid_from(v.field("wo")?)?,
        })
    }
}

#[derive(Debug, Clone)]
pub(crate) struct LnParams {
    pub(crate) gain: ParamId,
    pub(crate) bias: ParamId,
}

impl LnParams {
    fn to_json_value(&self) -> Json {
        Json::obj([("gain", pid_json(self.gain)), ("bias", pid_json(self.bias))])
    }

    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        Ok(LnParams {
            gain: pid_from(v.field("gain")?)?,
            bias: pid_from(v.field("bias")?)?,
        })
    }
}

#[derive(Debug, Clone)]
pub(crate) struct FfParams {
    pub(crate) w1: ParamId,
    pub(crate) b1: ParamId,
    pub(crate) w2: ParamId,
    pub(crate) b2: ParamId,
}

impl FfParams {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("w1", pid_json(self.w1)),
            ("b1", pid_json(self.b1)),
            ("w2", pid_json(self.w2)),
            ("b2", pid_json(self.b2)),
        ])
    }

    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        Ok(FfParams {
            w1: pid_from(v.field("w1")?)?,
            b1: pid_from(v.field("b1")?)?,
            w2: pid_from(v.field("w2")?)?,
            b2: pid_from(v.field("b2")?)?,
        })
    }
}

#[derive(Debug, Clone)]
pub(crate) struct EncLayer {
    pub(crate) ln1: LnParams,
    pub(crate) attn: AttnParams,
    pub(crate) ln2: LnParams,
    pub(crate) ff: FfParams,
}

impl EncLayer {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("ln1", self.ln1.to_json_value()),
            ("attn", self.attn.to_json_value()),
            ("ln2", self.ln2.to_json_value()),
            ("ff", self.ff.to_json_value()),
        ])
    }

    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        Ok(EncLayer {
            ln1: LnParams::from_json_value(v.field("ln1")?)?,
            attn: AttnParams::from_json_value(v.field("attn")?)?,
            ln2: LnParams::from_json_value(v.field("ln2")?)?,
            ff: FfParams::from_json_value(v.field("ff")?)?,
        })
    }
}

#[derive(Debug, Clone)]
pub(crate) struct DecLayer {
    pub(crate) ln1: LnParams,
    pub(crate) self_attn: AttnParams,
    pub(crate) ln2: LnParams,
    pub(crate) cross_attn: AttnParams,
    pub(crate) ln3: LnParams,
    pub(crate) ff: FfParams,
}

impl DecLayer {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("ln1", self.ln1.to_json_value()),
            ("self_attn", self.self_attn.to_json_value()),
            ("ln2", self.ln2.to_json_value()),
            ("cross_attn", self.cross_attn.to_json_value()),
            ("ln3", self.ln3.to_json_value()),
            ("ff", self.ff.to_json_value()),
        ])
    }

    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        Ok(DecLayer {
            ln1: LnParams::from_json_value(v.field("ln1")?)?,
            self_attn: AttnParams::from_json_value(v.field("self_attn")?)?,
            ln2: LnParams::from_json_value(v.field("ln2")?)?,
            cross_attn: AttnParams::from_json_value(v.field("cross_attn")?)?,
            ln3: LnParams::from_json_value(v.field("ln3")?)?,
            ff: FfParams::from_json_value(v.field("ff")?)?,
        })
    }
}

/// An encoder–decoder transformer with trainable parameters.
#[derive(Debug, Clone)]
pub struct Transformer {
    /// Hyperparameters.
    pub cfg: TransformerConfig,
    pub(crate) store: ParamStore,
    pub(crate) tok_emb: ParamId,
    pub(crate) pos_emb: ParamId,
    pub(crate) enc_layers: Vec<EncLayer>,
    pub(crate) dec_layers: Vec<DecLayer>,
    pub(crate) final_ln: LnParams,
    pub(crate) w_out: ParamId,
    pub(crate) b_out: ParamId,
    /// Cached `w_out` transpose for the dot-form logits path. `Clone` resets
    /// it (the clone's store has its own epoch sequence), so fine-tuned
    /// replicas never read a stale projection.
    pub(crate) out_t: OutProjCache,
}

impl Transformer {
    /// Initializes a transformer with Xavier-uniform weights.
    ///
    /// # Panics
    /// Panics if `d_model` is not divisible by `n_heads`.
    pub fn new(cfg: TransformerConfig) -> Self {
        assert_eq!(cfg.d_model % cfg.n_heads, 0, "d_model % n_heads");
        let mut store = ParamStore::new();
        let mut init = Init::new(cfg.seed);
        let d = cfg.d_model;
        let dh = d / cfg.n_heads;
        let ln = |store: &mut ParamStore, init: &mut Init, name: &str| LnParams {
            gain: store.add(format!("{name}.g"), init.ones(1, d)),
            bias: store.add(format!("{name}.b"), init.zeros(1, d)),
        };
        let attn = |store: &mut ParamStore, init: &mut Init, name: &str| AttnParams {
            wq: (0..cfg.n_heads)
                .map(|h| store.add(format!("{name}.wq{h}"), init.xavier(d, dh)))
                .collect(),
            wk: (0..cfg.n_heads)
                .map(|h| store.add(format!("{name}.wk{h}"), init.xavier(d, dh)))
                .collect(),
            wv: (0..cfg.n_heads)
                .map(|h| store.add(format!("{name}.wv{h}"), init.xavier(d, dh)))
                .collect(),
            wo: store.add(format!("{name}.wo"), init.xavier(d, d)),
        };
        let ff = |store: &mut ParamStore, init: &mut Init, name: &str| FfParams {
            w1: store.add(format!("{name}.w1"), init.xavier(d, cfg.d_ff)),
            b1: store.add(format!("{name}.b1"), init.zeros(1, cfg.d_ff)),
            w2: store.add(format!("{name}.w2"), init.xavier(cfg.d_ff, d)),
            b2: store.add(format!("{name}.b2"), init.zeros(1, d)),
        };
        let tok_emb = store.add("tok_emb", init.xavier(cfg.vocab, d));
        let pos_emb = store.add("pos_emb", init.xavier(cfg.max_len, d));
        let enc_layers = (0..cfg.n_enc_layers)
            .map(|l| EncLayer {
                ln1: ln(&mut store, &mut init, &format!("enc{l}.ln1")),
                attn: attn(&mut store, &mut init, &format!("enc{l}.attn")),
                ln2: ln(&mut store, &mut init, &format!("enc{l}.ln2")),
                ff: ff(&mut store, &mut init, &format!("enc{l}.ff")),
            })
            .collect();
        let dec_layers = (0..cfg.n_dec_layers)
            .map(|l| DecLayer {
                ln1: ln(&mut store, &mut init, &format!("dec{l}.ln1")),
                self_attn: attn(&mut store, &mut init, &format!("dec{l}.self")),
                ln2: ln(&mut store, &mut init, &format!("dec{l}.ln2")),
                cross_attn: attn(&mut store, &mut init, &format!("dec{l}.cross")),
                ln3: ln(&mut store, &mut init, &format!("dec{l}.ln3")),
                ff: ff(&mut store, &mut init, &format!("dec{l}.ff")),
            })
            .collect();
        let final_ln = ln(&mut store, &mut init, "final_ln");
        let w_out = store.add("w_out", init.xavier(d, cfg.vocab));
        let b_out = store.add("b_out", init.zeros(1, cfg.vocab));
        Transformer {
            cfg,
            store,
            tok_emb,
            pos_emb,
            enc_layers,
            dec_layers,
            final_ln,
            w_out,
            b_out,
            out_t: OutProjCache::default(),
        }
    }

    /// Number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }

    fn clamp_len<'a>(&self, ids: &'a [usize]) -> &'a [usize] {
        &ids[..ids.len().min(self.cfg.max_len)]
    }

    /// The output projection pre-transposed to `vocab × d` (one contiguous
    /// weight row per vocab id), built lazily and cached until the weights
    /// mutate. Decode states snapshot the `Arc` once per generation.
    pub(crate) fn out_proj_t(&self) -> Arc<Tensor> {
        self.out_t.get(&self.store, self.w_out)
    }

    /// Applies the decode output projection to each row of `xn` exactly as
    /// the incremental fast path does — including the dot-form branch — so
    /// the graph reference twins stay bit-identical to
    /// [`crate::DecodeState::step`] in every kernel mode.
    fn project_rows(&self, xn: &Tensor) -> Tensor {
        let w = self.store.value(self.w_out);
        let b = self.store.value(self.b_out);
        let wt = self.out_proj_t();
        let mut out = Tensor::zeros(xn.rows, self.cfg.vocab);
        let rows: Vec<usize> = (0..xn.rows).collect();
        let out_rows = out.as_mut_slice();
        crate::decode::project_logits(&rows, xn.as_slice(), w, &wt, b.as_slice(), out_rows);
        out
    }
}

impl Seq2Seq for Transformer {
    fn train_pair(&mut self, src: &[usize], tgt_in: &[usize], tgt_out: &[usize]) -> f32 {
        let src = &src[..src.len().min(self.cfg.max_len)];
        let (tgt_in, tgt_out) = crate::seq2seq::clamp_forced(tgt_in, tgt_out, self.cfg.max_len);
        // Detach the tiny layer descriptors so `store` can be lent mutably.
        let me = self.clone_shallow();
        let mut g = Graph::new(&mut self.store);
        let enc = me.encode(&mut g, src);
        let logits = me.decode(&mut g, tgt_in, enc);
        g.cross_entropy_backward(logits, tgt_out)
    }

    fn step(&mut self, lr: f32) {
        self.store.adam_step(lr);
    }

    fn take_grads(&mut self) -> Vec<Tensor> {
        self.store.take_grads()
    }

    fn merge_grads(&mut self, grads: &[Tensor]) {
        self.store.merge_grads(grads);
    }

    fn greedy(&mut self, src: &[usize], bos: usize, eos: usize, max_len: usize) -> Vec<usize> {
        self.begin_decode(src).greedy(bos, eos, max_len)
    }

    fn save_json(&self) -> String {
        self.to_json_value().render()
    }

    fn forced_logprob(&mut self, src: &[usize], tgt_in: &[usize], tgt_out: &[usize]) -> f32 {
        // One prefill pass over the whole forced prefix; bit-identical to the
        // token-at-a-time loop (`step_many` is pinned against repeated `step`
        // by the spec-equivalence suite).
        self.begin_decode(src).forced_logprob(tgt_in, tgt_out)
    }
}

impl Transformer {
    /// The pre-fast-path greedy decode: re-runs the full decoder over the
    /// whole prefix through an autograd [`Graph`] for every emitted token
    /// (O(T²) layer passes). Kept as the reference implementation the
    /// equivalence suite and `vega-bench decode` compare the incremental
    /// [`Seq2Seq::greedy`] against — the two must produce bit-identical
    /// token streams.
    pub fn greedy_graph(
        &mut self,
        src: &[usize],
        bos: usize,
        eos: usize,
        max_len: usize,
    ) -> Vec<usize> {
        let src = self.clamp_len(src).to_vec();
        let me = self.clone_shallow();
        let mut out: Vec<usize> = vec![bos];
        let cap = max_len.min(self.cfg.max_len);
        // Encode once; reuse the encoder output tensor as a constant.
        let enc_value = {
            let mut g = Graph::new(&mut self.store);
            let enc = me.encode(&mut g, &src);
            g.value(enc).clone()
        };
        while out.len() < cap {
            let xn = {
                let mut g = Graph::new(&mut self.store);
                let enc = g.constant(enc_value.clone());
                let xn = me.decode_xn(&mut g, &out, enc);
                g.value(xn).clone()
            };
            let v = self.project_rows(&xn);
            let next = crate::seq2seq::argmax(v.row(v.rows - 1)).unwrap_or(eos);
            vega_obs::global().counter_add("decode.graph_tokens", 1);
            if next == eos {
                break;
            }
            out.push(next);
            if crate::seq2seq::looks_degenerate(&out) {
                break;
            }
        }
        out.remove(0);
        out
    }

    /// Graph-path teacher-forced log-probability (reference twin of the
    /// incremental [`Seq2Seq::forced_logprob`]; the two must agree bitwise).
    pub fn forced_logprob_graph(
        &mut self,
        src: &[usize],
        tgt_in: &[usize],
        tgt_out: &[usize],
    ) -> f32 {
        let src = &src[..src.len().min(self.cfg.max_len)];
        let (tgt_in, tgt_out) = crate::seq2seq::clamp_forced(tgt_in, tgt_out, self.cfg.max_len);
        let me = self.clone_shallow();
        let xn = {
            let mut g = Graph::new(&mut self.store);
            let enc = me.encode(&mut g, src);
            let xn = me.decode_xn(&mut g, tgt_in, enc);
            g.value(xn).clone()
        };
        let probs = self.project_rows(&xn).softmax_rows();
        let mut lp = 0.0f32;
        for (r, &t) in tgt_out.iter().enumerate() {
            lp += probs.at(r, t).max(1e-12).ln();
        }
        lp
    }

    /// Graph-path logits for a full teacher-forced decode (`tgt_in.len()`
    /// rows, clamped to `max_len`). Exposed so the equivalence suite can
    /// compare raw logits bits against [`crate::DecodeState::step`].
    pub fn logits_rows_graph(&mut self, src: &[usize], tgt_in: &[usize]) -> Tensor {
        let src = &src[..src.len().min(self.cfg.max_len)];
        let tgt_in = &tgt_in[..tgt_in.len().min(self.cfg.max_len)];
        let me = self.clone_shallow();
        let xn = {
            let mut g = Graph::new(&mut self.store);
            let enc = me.encode(&mut g, src);
            let xn = me.decode_xn(&mut g, tgt_in, enc);
            g.value(xn).clone()
        };
        self.project_rows(&xn)
    }

    /// Graph-path forced decode: feeds each token of `feed` (clamped to
    /// `max_len`) and returns the argmax id after every step, re-running the
    /// decoder over the growing prefix each time — the O(T²) twin of
    /// [`Transformer::forced_steps`], used by the decode bench for
    /// controlled-length comparisons.
    pub fn forced_steps_graph(&mut self, src: &[usize], feed: &[usize]) -> Vec<usize> {
        let src = self.clamp_len(src).to_vec();
        let feed = &feed[..feed.len().min(self.cfg.max_len)];
        let me = self.clone_shallow();
        let enc_value = {
            let mut g = Graph::new(&mut self.store);
            let enc = me.encode(&mut g, &src);
            g.value(enc).clone()
        };
        let mut out = Vec::with_capacity(feed.len());
        for i in 1..=feed.len() {
            let xn = {
                let mut g = Graph::new(&mut self.store);
                let enc = g.constant(enc_value.clone());
                let xn = me.decode_xn(&mut g, &feed[..i], enc);
                g.value(xn).clone()
            };
            let v = self.project_rows(&xn);
            out.push(crate::seq2seq::argmax(v.row(v.rows - 1)).unwrap_or(0));
            vega_obs::global().counter_add("decode.graph_tokens", 1);
        }
        out
    }
}

impl Transformer {
    /// A parameter-id-only copy used to borrow layer descriptors while the
    /// store is mutably lent to a [`Graph`]. Weights are shared through the
    /// store, not this copy.
    fn clone_shallow(&self) -> ShallowRef {
        ShallowRef {
            cfg: self.cfg.clone(),
            tok_emb: self.tok_emb,
            pos_emb: self.pos_emb,
            enc_layers: self.enc_layers.clone(),
            dec_layers: self.dec_layers.clone(),
            final_ln: self.final_ln.clone(),
            w_out: self.w_out,
            b_out: self.b_out,
        }
    }

    /// Scalars held in owned (heap) storage, as opposed to borrowed from a
    /// shared checkpoint mapping. Zero for a freshly mapped model; grows
    /// only when weights are mutated (copy-on-write).
    pub fn owned_scalars(&self) -> usize {
        self.store.owned_scalars()
    }

    /// Restores a transformer saved with [`Seq2Seq::save_json`].
    ///
    /// # Errors
    /// Returns an error if the JSON does not describe a transformer.
    pub fn load_json(s: &str) -> Result<Self, JsonError> {
        Self::from_json_value(&Json::parse(s)?)
    }

    /// Serializes to a JSON value for embedding in a larger document.
    pub fn to_json_value(&self) -> Json {
        self.to_json_with(self.store.to_json_value())
    }

    /// Like [`Transformer::to_json_value`], but tensor data goes into
    /// `table` and the JSON holds only shapes and byte offsets (the
    /// `vega-ckpt/v2` binary layout).
    pub fn to_json_value_tabled(&self, table: &mut crate::storage::TensorTable) -> Json {
        let store = self.store.to_json_value_tabled(table);
        self.to_json_with(store)
    }

    fn to_json_with(&self, store: Json) -> Json {
        let cfg = Json::obj([
            ("vocab", Json::num_usize(self.cfg.vocab)),
            ("d_model", Json::num_usize(self.cfg.d_model)),
            ("n_heads", Json::num_usize(self.cfg.n_heads)),
            ("d_ff", Json::num_usize(self.cfg.d_ff)),
            ("n_enc_layers", Json::num_usize(self.cfg.n_enc_layers)),
            ("n_dec_layers", Json::num_usize(self.cfg.n_dec_layers)),
            ("max_len", Json::num_usize(self.cfg.max_len)),
            ("seed", Json::num_u64(self.cfg.seed)),
        ]);
        Json::obj([
            ("cfg", cfg),
            ("store", store),
            ("tok_emb", pid_json(self.tok_emb)),
            ("pos_emb", pid_json(self.pos_emb)),
            (
                "enc_layers",
                Json::Arr(
                    self.enc_layers
                        .iter()
                        .map(EncLayer::to_json_value)
                        .collect(),
                ),
            ),
            (
                "dec_layers",
                Json::Arr(
                    self.dec_layers
                        .iter()
                        .map(DecLayer::to_json_value)
                        .collect(),
                ),
            ),
            ("final_ln", self.final_ln.to_json_value()),
            ("w_out", pid_json(self.w_out)),
            ("b_out", pid_json(self.b_out)),
        ])
    }

    /// Restores from [`Transformer::to_json_value`] output.
    ///
    /// # Errors
    /// Returns an error if the value does not describe a transformer.
    pub fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        let store = ParamStore::from_json_value(v.field("store")?)?;
        Self::from_json_with(v, store)
    }

    /// Restores from [`Transformer::to_json_value_tabled`] output, reading
    /// tensor data straight out of `region` (shared, zero-copy where the
    /// platform allows).
    ///
    /// # Errors
    /// Returns an error if the value does not describe a tabled transformer
    /// or a tensor entry falls outside the region.
    pub fn from_json_value_tabled(
        v: &Json,
        region: &std::sync::Arc<crate::storage::ByteRegion>,
        data_base: usize,
    ) -> Result<Self, JsonError> {
        let store = ParamStore::from_json_value_tabled(v.field("store")?, region, data_base)?;
        Self::from_json_with(v, store)
    }

    fn from_json_with(v: &Json, store: ParamStore) -> Result<Self, JsonError> {
        let c = v.field("cfg")?;
        let cfg = TransformerConfig {
            vocab: c.field("vocab")?.as_usize()?,
            d_model: c.field("d_model")?.as_usize()?,
            n_heads: c.field("n_heads")?.as_usize()?,
            d_ff: c.field("d_ff")?.as_usize()?,
            n_enc_layers: c.field("n_enc_layers")?.as_usize()?,
            n_dec_layers: c.field("n_dec_layers")?.as_usize()?,
            max_len: c.field("max_len")?.as_usize()?,
            seed: c.field("seed")?.as_u64()?,
        };
        let t = Transformer {
            cfg,
            store,
            tok_emb: pid_from(v.field("tok_emb")?)?,
            pos_emb: pid_from(v.field("pos_emb")?)?,
            enc_layers: v
                .field("enc_layers")?
                .as_array()?
                .iter()
                .map(EncLayer::from_json_value)
                .collect::<Result<Vec<EncLayer>, JsonError>>()?,
            dec_layers: v
                .field("dec_layers")?
                .as_array()?
                .iter()
                .map(DecLayer::from_json_value)
                .collect::<Result<Vec<DecLayer>, JsonError>>()?,
            final_ln: LnParams::from_json_value(v.field("final_ln")?)?,
            w_out: pid_from(v.field("w_out")?)?,
            b_out: pid_from(v.field("b_out")?)?,
            out_t: OutProjCache::default(),
        };
        // Pre-transpose the output projection once at checkpoint load so the
        // first decode doesn't pay for it (the cache is epoch-keyed, so a
        // later fine-tune step just rebuilds it).
        let _ = t.out_proj_t();
        Ok(t)
    }
}

/// Layer descriptors detached from the parameter store (see
/// [`Transformer::clone_shallow`]).
struct ShallowRef {
    cfg: TransformerConfig,
    tok_emb: ParamId,
    pos_emb: ParamId,
    enc_layers: Vec<EncLayer>,
    dec_layers: Vec<DecLayer>,
    final_ln: LnParams,
    w_out: ParamId,
    b_out: ParamId,
}

impl ShallowRef {
    fn embed_with_pos(&self, g: &mut Graph<'_>, ids: &[usize]) -> NodeId {
        let tok = g.param(self.tok_emb);
        let pos = g.param(self.pos_emb);
        let te = g.embed(tok, ids);
        let positions: Vec<usize> = (0..ids.len())
            .map(|i| i.min(self.cfg.max_len - 1))
            .collect();
        let pe = g.embed(pos, &positions);
        g.add(te, pe)
    }

    fn ln(&self, g: &mut Graph<'_>, x: NodeId, p: &LnParams) -> NodeId {
        let gain = g.param(p.gain);
        let bias = g.param(p.bias);
        g.layer_norm(x, gain, bias)
    }

    fn attention(
        &self,
        g: &mut Graph<'_>,
        q_input: NodeId,
        kv_input: NodeId,
        p: &AttnParams,
        mask: Option<&Tensor>,
    ) -> NodeId {
        let dh = self.cfg.d_model / self.cfg.n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut head_outs: Vec<NodeId> = Vec::with_capacity(self.cfg.n_heads);
        for h in 0..self.cfg.n_heads {
            let wq = g.param(p.wq[h]);
            let wk = g.param(p.wk[h]);
            let wv = g.param(p.wv[h]);
            let q = g.matmul(q_input, wq, false);
            let k = g.matmul(kv_input, wk, false);
            let v = g.matmul(kv_input, wv, false);
            let scores = g.matmul(q, k, true);
            let scores = g.scale(scores, scale);
            let scores = match mask {
                Some(m) => g.add_const(scores, m),
                None => scores,
            };
            let a = g.softmax_rows(scores);
            head_outs.push(g.matmul(a, v, false));
        }
        let mut concat = head_outs[0];
        for h in &head_outs[1..] {
            concat = g.concat_cols(concat, *h);
        }
        let wo = g.param(p.wo);
        g.matmul(concat, wo, false)
    }

    fn feed_forward(&self, g: &mut Graph<'_>, x: NodeId, p: &FfParams) -> NodeId {
        let w1 = g.param(p.w1);
        let b1 = g.param(p.b1);
        let w2 = g.param(p.w2);
        let b2 = g.param(p.b2);
        let h = g.matmul(x, w1, false);
        let h = g.add_row_broadcast(h, b1);
        let h = g.relu(h);
        let h = g.matmul(h, w2, false);
        g.add_row_broadcast(h, b2)
    }

    fn encode(&self, g: &mut Graph<'_>, src: &[usize]) -> NodeId {
        let mut x = self.embed_with_pos(g, src);
        for layer in &self.enc_layers {
            let xn = self.ln(g, x, &layer.ln1);
            let att = self.attention(g, xn, xn, &layer.attn, None);
            x = g.add(x, att);
            let xn = self.ln(g, x, &layer.ln2);
            let ffo = self.feed_forward(g, xn, &layer.ff);
            x = g.add(x, ffo);
        }
        x
    }

    /// The decoder stack through the final layer norm — everything *before*
    /// the output projection. Reference twins that must match the
    /// incremental fast path bitwise take these rows out of the graph and
    /// project them through [`Transformer::project_rows`], which branches on
    /// the same dot-form predicate the fast path uses.
    fn decode_xn(&self, g: &mut Graph<'_>, tgt_in: &[usize], enc: NodeId) -> NodeId {
        let l = tgt_in.len();
        let mut mask = Tensor::zeros(l, l);
        let ms = mask.as_mut_slice();
        for r in 0..l {
            for c in (r + 1)..l {
                ms[r * l + c] = -1e9;
            }
        }
        let mut x = self.embed_with_pos(g, tgt_in);
        for layer in &self.dec_layers {
            let xn = self.ln(g, x, &layer.ln1);
            let att = self.attention(g, xn, xn, &layer.self_attn, Some(&mask));
            x = g.add(x, att);
            let xn = self.ln(g, x, &layer.ln2);
            let cross = self.attention(g, xn, enc, &layer.cross_attn, None);
            x = g.add(x, cross);
            let xn = self.ln(g, x, &layer.ln3);
            let ffo = self.feed_forward(g, xn, &layer.ff);
            x = g.add(x, ffo);
        }
        self.ln(g, x, &self.final_ln)
    }

    fn decode(&self, g: &mut Graph<'_>, tgt_in: &[usize], enc: NodeId) -> NodeId {
        let xn = self.decode_xn(g, tgt_in, enc);
        let w = g.param(self.w_out);
        let b = g.param(self.b_out);
        let logits = g.matmul(xn, w, false);
        g.add_row_broadcast(logits, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq2seq::train_until;

    #[test]
    fn learns_to_copy_short_sequences() {
        // Task: echo the source sequence. BOS=0, EOS=1, tokens 2..8.
        let mut t = Transformer::new(TransformerConfig::tiny(10));
        let pairs: Vec<(Vec<usize>, Vec<usize>)> = vec![
            (vec![2, 3, 4], vec![2, 3, 4]),
            (vec![5, 6], vec![5, 6]),
            (vec![7, 8, 2], vec![7, 8, 2]),
            (vec![4, 4, 5], vec![4, 4, 5]),
        ];
        let loss = train_until(&mut t, &pairs, 0, 1, 300, 3e-3, 0.05);
        assert!(loss < 0.3, "did not converge: {loss}");
        let out = t.greedy(&[5, 6], 0, 1, 10);
        assert_eq!(out, vec![5, 6]);
    }

    #[test]
    fn save_load_roundtrip_preserves_decoding() {
        let mut t = Transformer::new(TransformerConfig::tiny(12));
        let pairs = vec![(vec![3usize, 4], vec![4usize, 3])];
        let _ = train_until(&mut t, &pairs, 0, 1, 150, 3e-3, 0.05);
        let json = t.save_json();
        let mut t2 = Transformer::load_json(&json).unwrap();
        assert_eq!(t.greedy(&[3, 4], 0, 1, 8), t2.greedy(&[3, 4], 0, 1, 8));
    }

    #[test]
    fn param_count_scales_with_config() {
        let small = Transformer::new(TransformerConfig::tiny(10));
        let big = Transformer::new(TransformerConfig::small(10));
        assert!(big.num_params() > small.num_params());
        assert!(small.num_params() > 1000);
    }
}
