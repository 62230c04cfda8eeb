//! CodeBE: the pre-trained sequence model behind VEGA (paper §3.3).
//!
//! The paper fine-tunes UniXcoder; we (1) *pre-train* a from-scratch
//! transformer with a denoising objective over corpus code — the analog of
//! starting from a code-pretrained checkpoint — and (2) *fine-tune* it on
//! `(feature vector → statement)` pairs. A GRU variant and a no-pretraining
//! variant support the paper's model ablation.

use crate::backend::{BackendHandle, DecodeAbort};
use crate::vocab::{Special, Vocab};
use std::time::Instant;
use vega_nn::{
    DecodeState, GruConfig, GruDecodeState, GruSeq2Seq, Seq2Seq, Transformer, TransformerConfig,
};
use vega_obs::json::{Json, JsonError};
use vega_obs::{CurvePoint, TrainingCurve};

/// Which architecture backs CodeBE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelChoice {
    /// Encoder–decoder transformer (the CodeBE default).
    Transformer,
    /// GRU seq2seq — the "RNN-based VEGA" ablation arm.
    Gru,
}

#[derive(Debug, Clone)]
enum ModelKind {
    Transformer(Transformer),
    Gru(GruSeq2Seq),
}

impl ModelKind {
    fn as_seq2seq(&mut self) -> &mut dyn Seq2Seq {
        match self {
            ModelKind::Transformer(t) => t,
            ModelKind::Gru(g) => g,
        }
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Denoising pre-training steps (0 = no pre-training, the ablation arm).
    pub pretrain_steps: usize,
    /// Fine-tuning epochs over the paired data.
    pub finetune_epochs: usize,
    /// Learning rate (the paper uses 6e-5 at 125M parameters; this scale
    /// wants more).
    pub lr: f32,
    /// Shuffling/masking seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            pretrain_steps: 600,
            finetune_epochs: 36,
            lr: 2e-3,
            seed: 1,
        }
    }
}

impl TrainConfig {
    /// Tiny settings for unit tests.
    pub fn tiny() -> Self {
        TrainConfig {
            pretrain_steps: 0,
            finetune_epochs: 20,
            lr: 3e-3,
            seed: 1,
        }
    }
}

/// The CodeBE model: vocabulary plus sequence model.
#[derive(Debug, Clone)]
pub struct CodeBe {
    /// The shared subword vocabulary.
    pub vocab: Vocab,
    model: ModelKind,
    /// Per-epoch telemetry from the most recent [`CodeBe::finetune`] call
    /// (not serialized).
    curve: TrainingCurve,
    /// Optional decode backend: when set, [`CodeBe::try_generate`] and
    /// [`CodeBe::try_sequence_logprob`] route through it instead of running
    /// the in-process incremental path (not serialized; clones share it).
    backend: Option<BackendHandle>,
}

/// One encoded input serving many decode calls; see [`CodeBe::session`].
pub struct DecodeSession<'a> {
    input: &'a [usize],
    bos: usize,
    eos: usize,
    state: SessionState<'a>,
}

enum SessionState<'a> {
    /// A decode backend is installed: calls forward to it unchanged.
    Backend(&'a BackendHandle),
    Transformer(Box<DecodeState<'a>>),
    Gru(Box<GruDecodeState<'a>>),
}

impl DecodeSession<'_> {
    /// Greedy generation of at most `max_len` tokens, from the session's
    /// encoding — the session form of [`CodeBe::try_generate`].
    ///
    /// # Errors
    /// Returns [`DecodeAbort`] only when a backend is installed and aborts.
    pub fn try_generate(
        &mut self,
        max_len: usize,
        deadline: Option<Instant>,
    ) -> Result<Vec<usize>, DecodeAbort> {
        let (bos, eos) = (self.bos, self.eos);
        match &mut self.state {
            SessionState::Backend(b) => b.backend().generate(self.input, max_len, deadline),
            SessionState::Transformer(st) => Ok(st.greedy(bos, eos, max_len)),
            SessionState::Gru(st) => Ok(st.greedy(bos, eos, max_len)),
        }
    }

    /// Log-probability of the model emitting `output`, from the session's
    /// encoding — the session form of [`CodeBe::try_sequence_logprob`], and
    /// the one-output case of [`DecodeSession::try_sequence_logprobs`].
    ///
    /// # Errors
    /// Returns [`DecodeAbort`] only when a backend is installed and aborts.
    pub fn try_sequence_logprob(
        &mut self,
        output: &[usize],
        deadline: Option<Instant>,
    ) -> Result<f32, DecodeAbort> {
        Ok(self.try_sequence_logprobs(&[output], deadline)?[0])
    }

    /// Log-probabilities of the model emitting each of `outputs`, in order,
    /// from the session's encoding, each bit-identical to
    /// [`DecodeSession::try_sequence_logprob`] on that output alone. The
    /// transformer scores them all in one decoder forward that feeds their
    /// shared prefix once ([`vega_nn::DecodeState::forced_logprobs`]); the
    /// GRU scores them one after another. With a decode backend installed,
    /// each output is forwarded to it unchanged, one call per output.
    ///
    /// # Errors
    /// Returns [`DecodeAbort`] only when a backend is installed and aborts.
    pub fn try_sequence_logprobs<O: AsRef<[usize]>>(
        &mut self,
        outputs: &[O],
        deadline: Option<Instant>,
    ) -> Result<Vec<f32>, DecodeAbort> {
        let (bos, eos) = (self.bos, self.eos);
        let pairs = || -> Vec<(Vec<usize>, Vec<usize>)> {
            outputs
                .iter()
                .map(|o| vega_nn::forced_pair(o.as_ref(), bos, eos))
                .collect()
        };
        match &mut self.state {
            SessionState::Backend(b) => outputs
                .iter()
                .map(|o| {
                    b.backend()
                        .sequence_logprob(self.input, o.as_ref(), deadline)
                })
                .collect(),
            SessionState::Transformer(st) => Ok(st.forced_logprobs(&pairs())),
            SessionState::Gru(st) => Ok(st.forced_logprobs(&pairs())),
        }
    }
}

/// Deterministic shuffling/masking RNG (splitmix64, private copy).
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
    fn chance(&mut self, p: f64) -> bool {
        (self.next() as f64 / u64::MAX as f64) < p
    }
}

impl CodeBe {
    /// Creates a transformer-backed CodeBE with the given width scale.
    pub fn transformer(
        vocab: Vocab,
        cfg_for_vocab: impl FnOnce(usize) -> TransformerConfig,
    ) -> Self {
        let cfg = cfg_for_vocab(vocab.len());
        CodeBe {
            vocab,
            model: ModelKind::Transformer(Transformer::new(cfg)),
            curve: TrainingCurve::new(),
            backend: None,
        }
    }

    /// Creates a GRU-backed CodeBE (ablation).
    pub fn gru(vocab: Vocab, cfg_for_vocab: impl FnOnce(usize) -> GruConfig) -> Self {
        let cfg = cfg_for_vocab(vocab.len());
        CodeBe {
            vocab,
            model: ModelKind::Gru(GruSeq2Seq::new(cfg)),
            curve: TrainingCurve::new(),
            backend: None,
        }
    }

    /// Per-epoch loss/lr/throughput telemetry recorded by the most recent
    /// [`CodeBe::finetune`] call (empty before the first call).
    pub fn training_curve(&self) -> &TrainingCurve {
        &self.curve
    }

    /// The maximum input sequence length the underlying architecture was
    /// sized for — checkpoints trained at one scale must not silently serve
    /// longer inputs, so loaders validate against this.
    pub fn max_len(&self) -> usize {
        match &self.model {
            ModelKind::Transformer(t) => t.cfg.max_len,
            ModelKind::Gru(g) => g.cfg.max_len,
        }
    }

    /// Short architecture name (`"transformer"` or `"gru"`), for checkpoint
    /// metadata and load-time diagnostics.
    pub fn arch_name(&self) -> &'static str {
        match &self.model {
            ModelKind::Transformer(_) => "transformer",
            ModelKind::Gru(_) => "gru",
        }
    }

    /// Denoising pre-training: mask ~30% of pieces, reconstruct the original.
    /// Returns the running loss at the end.
    pub fn pretrain(&mut self, sequences: &[Vec<usize>], steps: usize, lr: f32, seed: u64) -> f32 {
        if sequences.is_empty() || steps == 0 {
            return 0.0;
        }
        let span = vega_obs::global().span("pretrain");
        let mask_id = self.vocab.special(Special::Mask);
        let bos = self.vocab.special(Special::Bos);
        let eos = self.vocab.special(Special::Eos);
        let mut rng = Rng(seed ^ 0xDEC0DE);
        let mut running = f32::NAN;
        // Sample the running loss every CURVE_EVERY steps as pseudo-epochs.
        const CURVE_EVERY: usize = 20;
        let t0 = std::time::Instant::now();
        let mut last_sample = 0.0f64;
        for step in 0..steps {
            let seq = &sequences[rng.below(sequences.len())];
            if seq.is_empty() {
                continue;
            }
            let corrupted: Vec<usize> = seq
                .iter()
                .map(|&id| if rng.chance(0.3) { mask_id } else { id })
                .collect();
            let loss = self
                .model
                .as_seq2seq()
                .train_example(&corrupted, seq, bos, eos);
            self.model.as_seq2seq().step(lr);
            running = if running.is_nan() {
                loss
            } else {
                0.95 * running + 0.05 * loss
            };
            if (step + 1) % CURVE_EVERY == 0 {
                let now = t0.elapsed().as_secs_f64();
                vega_obs::global().curve_point(
                    "pretrain",
                    CurvePoint {
                        epoch: step / CURVE_EVERY,
                        loss: running,
                        lr,
                        examples: CURVE_EVERY,
                        seconds: now - last_sample,
                    },
                );
                last_sample = now;
            }
        }
        let _ = span.finish();
        running
    }

    /// Fine-tunes on `(input, output)` id sequences for the configured number
    /// of epochs, shuffling each epoch. Returns the mean loss of the final
    /// epoch.
    ///
    /// Micro-batches are data-parallel: each micro-batch is split into
    /// gradient shards of a fixed size, every shard trains on a cloned
    /// replica (possibly on a `vega-par` worker), and the shard gradients
    /// are merged in shard-index order before the single Adam step. Because
    /// the shard structure and merge order never depend on the thread count,
    /// loss curves and final weights are bit-identical for any
    /// `VEGA_THREADS`, including 1.
    pub fn finetune(&mut self, pairs: &[(Vec<usize>, Vec<usize>)], cfg: &TrainConfig) -> f32 {
        if pairs.is_empty() {
            return 0.0;
        }
        let span = vega_obs::global().span("finetune");
        let bos = self.vocab.special(Special::Bos);
        let eos = self.vocab.special(Special::Eos);
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        let mut rng = Rng(cfg.seed ^ 0xF17E);
        let mut last_epoch_loss = 0.0;
        self.curve = TrainingCurve::new();
        const MICRO_BATCH: usize = 8;
        /// Examples per gradient shard — a constant so the f32 reduction
        /// tree is fixed by the data, not by the machine.
        const GRAD_SHARD: usize = 2;
        for epoch in 0..cfg.finetune_epochs {
            let epoch_start = std::time::Instant::now();
            // Inverse-decay schedule smooths late epochs.
            let lr = cfg.lr / (1.0 + 0.04 * epoch as f32);
            // Fisher-Yates shuffle.
            for i in (1..order.len()).rev() {
                let j = rng.below(i + 1);
                order.swap(i, j);
            }
            let mut sum = 0.0f32;
            for batch in order.chunks(MICRO_BATCH) {
                let shards: Vec<&[usize]> = batch.chunks(GRAD_SHARD).collect();
                let model_ref = &self.model;
                let sharded: Vec<(f32, Vec<vega_nn::Tensor>)> =
                    vega_par::par_map_slice(&shards, |_, shard| {
                        let mut replica = model_ref.clone();
                        let s2s = replica.as_seq2seq();
                        let mut loss = 0.0f32;
                        for &i in shard.iter() {
                            let (src, tgt) = &pairs[i];
                            loss += s2s.train_example(src, tgt, bos, eos);
                        }
                        (loss, s2s.take_grads())
                    });
                // Merge in shard order, then one Adam step per micro-batch.
                for (loss, grads) in &sharded {
                    sum += loss;
                    self.model.as_seq2seq().merge_grads(grads);
                }
                self.model.as_seq2seq().step(lr);
            }
            last_epoch_loss = sum / pairs.len() as f32;
            let point = CurvePoint {
                epoch,
                loss: last_epoch_loss,
                lr,
                examples: pairs.len(),
                seconds: epoch_start.elapsed().as_secs_f64(),
            };
            self.curve.push(point);
            vega_obs::global().curve_point("finetune", point);
        }
        let _ = span.finish();
        last_epoch_loss
    }

    /// Installs (or with `None`, removes) a decode backend. See the
    /// [`crate::backend`] module docs: backends must be bit-identical to the
    /// local path; clones made after this call share the handle.
    pub fn set_decode_backend(&mut self, backend: Option<BackendHandle>) {
        self.backend = backend;
    }

    /// Greedy generation for an input id sequence.
    ///
    /// # Panics
    /// Panics if an installed decode backend aborts; use
    /// [`CodeBe::try_generate`] to observe deadline expiry.
    pub fn generate(&self, input: &[usize], max_len: usize) -> Vec<usize> {
        self.try_generate(input, max_len, None)
            .expect("decode backend aborted a deadline-free generate")
    }

    /// Greedy generation with an optional deadline: a one-call
    /// [`CodeBe::session`]. The in-process path ignores the deadline and
    /// runs to completion (generation of one function is short; serving
    /// enforces deadlines before dispatch). Only an installed decode backend
    /// receives the deadline, and only it can abort.
    ///
    /// # Errors
    /// Returns [`DecodeAbort`] only when a backend is installed and aborts.
    pub fn try_generate(
        &self,
        input: &[usize],
        max_len: usize,
        deadline: Option<Instant>,
    ) -> Result<Vec<usize>, DecodeAbort> {
        self.session(input).try_generate(max_len, deadline)
    }

    /// Log-probability of the model emitting `output` for `input` —
    /// the scoring primitive behind template-guided decoding.
    ///
    /// # Panics
    /// Panics if an installed decode backend aborts; use
    /// [`CodeBe::try_sequence_logprob`] to observe deadline expiry.
    pub fn sequence_logprob(&self, input: &[usize], output: &[usize]) -> f32 {
        self.try_sequence_logprob(input, output, None)
            .expect("decode backend aborted a deadline-free logprob")
    }

    /// Forced-sequence log-probability with an optional deadline; deadline
    /// semantics match [`CodeBe::try_generate`]. A one-call
    /// [`CodeBe::session`].
    ///
    /// # Errors
    /// Returns [`DecodeAbort`] only when a backend is installed and aborts.
    pub fn try_sequence_logprob(
        &self,
        input: &[usize],
        output: &[usize],
        deadline: Option<Instant>,
    ) -> Result<f32, DecodeAbort> {
        self.session(input).try_sequence_logprob(output, deadline)
    }

    /// Opens a decode session over `input`: the input is encoded **once**
    /// here, and the session then answers any mix of
    /// [`DecodeSession::try_generate`],
    /// [`DecodeSession::try_sequence_logprob`] and
    /// [`DecodeSession::try_sequence_logprobs`] calls from that encoding,
    /// each bit-identical to the per-call [`CodeBe::try_generate`] /
    /// [`CodeBe::try_sequence_logprob`]. Stage 3 opens one per statement
    /// (head decode, then one batched score per slot's candidates), and
    /// serve's `score` op one per request (one batched score).
    ///
    /// With a decode backend installed nothing is encoded locally: every
    /// call forwards unchanged to the backend.
    pub fn session<'a>(&'a self, input: &'a [usize]) -> DecodeSession<'a> {
        let state = match (&self.backend, &self.model) {
            (Some(b), _) => SessionState::Backend(b),
            (None, ModelKind::Transformer(t)) => {
                SessionState::Transformer(Box::new(t.begin_decode(input)))
            }
            (None, ModelKind::Gru(g)) => SessionState::Gru(Box::new(g.begin_decode(input))),
        };
        DecodeSession {
            input,
            bos: self.vocab.special(Special::Bos),
            eos: self.vocab.special(Special::Eos),
            state,
        }
    }

    /// Exact-match rate over a verification set (the paper reports 99.03%).
    pub fn exact_match(&self, pairs: &[(Vec<usize>, Vec<usize>)], max_len: usize) -> f64 {
        if pairs.is_empty() {
            return 1.0;
        }
        let hits = pairs
            .iter()
            .filter(|(src, tgt)| &self.generate(src, max_len) == tgt)
            .count();
        hits as f64 / pairs.len() as f64
    }

    /// Scalars held in owned (heap) storage rather than borrowed from a
    /// shared checkpoint mapping. Zero right after a v2 binary load; any
    /// weight mutation (training) copies the touched tensors out.
    pub fn owned_scalars(&self) -> usize {
        match &self.model {
            ModelKind::Transformer(t) => t.owned_scalars(),
            ModelKind::Gru(g) => g.owned_scalars(),
        }
    }

    /// Renders the `vega-ckpt/v2` header JSON, externally tagged by
    /// architecture (`{"vocab":{...},"model":{"Transformer":{...}}}`); every
    /// tensor is an `{rows, cols, off}` descriptor whose data went into
    /// `table`.
    pub(crate) fn header_json_tabled(&self, table: &mut vega_nn::TensorTable) -> String {
        let model = match &self.model {
            ModelKind::Transformer(t) => {
                Json::obj([("Transformer", t.to_json_value_tabled(table))])
            }
            ModelKind::Gru(g) => Json::obj([("Gru", g.to_json_value_tabled(table))]),
        };
        Json::obj([("vocab", self.vocab.to_json_value()), ("model", model)]).render()
    }

    /// Rebuilds a model from a `vega-ckpt/v2` header, borrowing tensor data
    /// from `region` (the mapped checkpoint) starting at `data_base`.
    pub(crate) fn from_header_tabled(
        v: &Json,
        region: &std::sync::Arc<vega_nn::ByteRegion>,
        data_base: usize,
    ) -> Result<Self, JsonError> {
        let vocab = Vocab::from_json_value(v.field("vocab")?)?;
        let m = v.field("model")?;
        let model = if let Ok(t) = m.field("Transformer") {
            ModelKind::Transformer(Transformer::from_json_value_tabled(t, region, data_base)?)
        } else if let Ok(g) = m.field("Gru") {
            ModelKind::Gru(GruSeq2Seq::from_json_value_tabled(g, region, data_base)?)
        } else {
            return Err(JsonError {
                msg: "unknown model kind".into(),
            });
        };
        Ok(CodeBe {
            vocab,
            model,
            curve: TrainingCurve::new(),
            backend: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subtok::tokens_to_pieces;
    use vega_cpplite::lex;

    fn tiny_codebe(samples: &[&str]) -> (CodeBe, Vec<Vec<usize>>) {
        let mut all_pieces: Vec<String> = Vec::new();
        let mut seqs = Vec::new();
        for s in samples {
            let toks = lex(s).unwrap();
            all_pieces.extend(tokens_to_pieces(&toks));
        }
        let vocab = Vocab::build(all_pieces.iter().map(String::as_str));
        for s in samples {
            let toks = lex(s).unwrap();
            seqs.push(vocab.encode_pieces(&tokens_to_pieces(&toks)));
        }
        (CodeBe::transformer(vocab, TransformerConfig::tiny), seqs)
    }

    #[test]
    fn finetune_memorizes_small_mapping() {
        let (mut m, seqs) = tiny_codebe(&["x = 1;", "return x;"]);
        let pairs: Vec<(Vec<usize>, Vec<usize>)> = vec![
            (seqs[0].clone(), seqs[1].clone()),
            (seqs[1].clone(), seqs[0].clone()),
        ];
        let mut cfg = TrainConfig::tiny();
        cfg.finetune_epochs = 900; // micro-batched: one step per epoch here
        let loss = m.finetune(&pairs, &cfg);
        assert!(loss < 0.25, "loss {loss}");
        let out = m.generate(&seqs[0], 16);
        assert_eq!(
            m.vocab.decode_spellings(&out),
            m.vocab.decode_spellings(&seqs[1])
        );
        assert!(m.exact_match(&pairs, 16) > 0.4);
    }

    #[test]
    fn finetune_records_one_curve_point_per_epoch() {
        let (mut m, seqs) = tiny_codebe(&["x = 1;", "return x;"]);
        let pairs = vec![(seqs[0].clone(), seqs[1].clone())];
        let mut cfg = TrainConfig::tiny();
        cfg.finetune_epochs = 5;
        assert!(m.training_curve().is_empty());
        let loss = m.finetune(&pairs, &cfg);
        let curve = m.training_curve();
        assert_eq!(curve.len(), 5);
        assert_eq!(curve.final_loss(), Some(loss));
        for (i, p) in curve.points.iter().enumerate() {
            assert_eq!(p.epoch, i);
            assert_eq!(p.examples, pairs.len());
            assert!(p.lr > 0.0 && p.lr <= cfg.lr);
        }
        // The inverse-decay schedule makes lr strictly decreasing.
        assert!(curve.points.windows(2).all(|w| w[1].lr < w[0].lr));
    }

    #[test]
    fn pretrain_runs_and_reduces_loss() {
        let (mut m, seqs) = tiny_codebe(&["return Value & 255;", "return Value;"]);
        let final_loss = m.pretrain(&seqs, 120, 3e-3, 9);
        assert!(final_loss.is_finite());
        assert!(final_loss < 4.0, "denoising loss {final_loss}");
    }

    #[test]
    fn save_load_roundtrip() {
        let (m, seqs) = tiny_codebe(&["x = 1;"]);
        let path = std::env::temp_dir().join(format!(
            "vega-model-codebe-roundtrip-{}.ckpt",
            std::process::id()
        ));
        m.save_file_v2(&path).unwrap();
        let m2 = CodeBe::load_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(m.generate(&seqs[0], 8), m2.generate(&seqs[0], 8));
        // Architecture metadata survives the round trip.
        assert_eq!(m2.arch_name(), "transformer");
        assert_eq!(m2.max_len(), m.max_len());
        assert_eq!(m2.vocab.len(), m.vocab.len());
    }

    #[test]
    fn gru_variant_trains() {
        let toks = lex("a = 1; b = 2;").unwrap();
        let vocab = Vocab::build(tokens_to_pieces(&toks).iter().map(String::as_str));
        let seq = vocab.encode_pieces(&tokens_to_pieces(&lex("a = 1;").unwrap()));
        let mut m = CodeBe::gru(vocab, GruConfig::tiny);
        let pairs = vec![(seq.clone(), seq.clone())];
        let mut cfg = TrainConfig::tiny();
        cfg.finetune_epochs = 80;
        let loss = m.finetune(&pairs, &cfg);
        assert!(loss.is_finite());
    }
}
