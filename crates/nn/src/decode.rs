//! Forward-only incremental inference (the generation fast path).
//!
//! Training builds an autograd [`Graph`](crate::Graph) per forward pass; the
//! graph-based `greedy` additionally re-runs the whole decoder over the full
//! prefix for every emitted token — O(T²) layer passes plus per-step tape and
//! parameter-clone allocation for work that is pure inference. This module is
//! the O(T)-per-token replacement: a [`DecodeState`] holds
//!
//! * the encoder output, computed **once** per state,
//! * per-decoder-layer **cross-attention K/V**, projected once from the
//!   encoder output,
//! * per-layer **self-attention K/V caches** that grow by one row per emitted
//!   token, and
//! * reusable scratch buffers, so the steady-state decode loop performs no
//!   heap allocation (cache rows land in pre-reserved vectors).
//!
//! [`GruDecodeState`] is the analogous path for the GRU baseline: the
//! recurrent hidden state is carried across steps instead of being rebuilt
//! from scratch on a fresh graph at every token.
//!
//! Both states carry the two whole-sequence loops, `greedy` and
//! `forced_logprob`, and `reset` to the just-encoded state before each, so
//! one state answers any mix of decodes and scores of its source after a
//! single encoder pass. `Seq2Seq::greedy` / `forced_logprob` are
//! `begin_decode` followed by the same loops.
//!
//! # Bit-identity
//!
//! Every kernel here replays the *same f32 operations in the same order* as
//! the graph path, so decoded token streams and logits are bit-identical to
//! the graph implementations (`greedy_graph`, `forced_logprob_graph`) at
//! every configuration and thread count — *within a kernel mode* (see
//! [`crate::kernel`]; changing `VEGA_KERNEL` changes reduction order and may
//! move low bits). That identity is load-bearing: the determinism and chaos
//! suites, the serve cache (equal keys must imply byte-identical payloads),
//! and the golden vectors all assume generation is a pure function of
//! (weights, input, kernel mode). The specific invariants:
//!
//! * Row kernels are the *same code* as [`Tensor::matmul`]'s inner loops —
//!   both dispatch through the [`crate::kernel`] tier, which accumulates
//!   each output element one rank-1 update at a time in ascending `k`
//!   (with the exact zero-skip) and takes one full-length dot per
//!   transposed-product element, so the decode and graph paths cannot
//!   drift apart.
//! * The causal mask adds `-1e9` before softmax in the graph path; `exp`
//!   underflows those lanes to exactly `0.0`, so softmax over the unmasked
//!   prefix — what the cache computes — yields the identical row, and the
//!   masked zeros are exact no-ops in the attention-value product.
//! * Layer norm, softmax, and the activations copy the graph ops' expression
//!   shapes verbatim (same reduction order, same `(x - mean) / std * g + b`
//!   association).

use crate::gru::{GruCell, GruSeq2Seq};
use crate::kernel::{with_kernel, Kernel, K_TILE};
use crate::tensor::Tensor;
use crate::transformer::{AttnParams, FfParams, LnParams, Transformer};
use std::sync::Arc;

/// Per-thread decode attribution: how many tokens the *current thread* has
/// decoded, and how long the decode steps took, since the last [`reset`].
///
/// The global obs registry aggregates `decode.tokens` /
/// `decode.step_seconds` across every thread in the process, which is right
/// for fleet-level dashboards but useless for answering "how much decode
/// work did *this request* do". Generation runs single-threaded on whichever
/// worker picked the job up, so a thread-local tally that the serve engine
/// resets before calling `generate_function` and snapshots after is an exact
/// per-request attribution — no locks, no ids threaded through the model
/// layer. The greedy decode loop (both model families) bumps it alongside
/// the global counters.
pub mod tally {
    use std::cell::Cell;

    thread_local! {
        static TOKENS: Cell<u64> = const { Cell::new(0) };
        static SECONDS: Cell<f64> = const { Cell::new(0.0) };
    }

    /// Zeroes the calling thread's tally (call before a generation).
    pub fn reset() {
        TOKENS.with(|t| t.set(0));
        SECONDS.with(|s| s.set(0.0));
    }

    /// Records one decoded token that took `seconds` on this thread.
    pub fn bump(seconds: f64) {
        TOKENS.with(|t| t.set(t.get() + 1));
        SECONDS.with(|s| s.set(s.get() + seconds));
    }

    /// Records `tokens` decoded tokens that took `seconds` in one call.
    ///
    /// Used when decode work happened *off* this thread — a continuous-
    /// batching broker steps many sessions on its own thread and hands each
    /// requester back its exact token count and its share of the batched
    /// step time; the requester bumps its own thread-local so the
    /// reset/snapshot attribution protocol keeps working unchanged.
    pub fn bump_n(tokens: u64, seconds: f64) {
        TOKENS.with(|t| t.set(t.get() + tokens));
        SECONDS.with(|s| s.set(s.get() + seconds));
    }

    /// The calling thread's `(tokens, seconds)` since the last [`reset`].
    pub fn snapshot() -> (u64, f64) {
        (TOKENS.with(Cell::get), SECONDS.with(Cell::get))
    }
}

// ---------------------------------------------------------------------------
// Row kernels (shared by the transformer and GRU fast paths)
// ---------------------------------------------------------------------------
//
// The hand-rolled per-row loops that used to live here are now the single
// implementations in `crate::kernel`, dispatched by `VEGA_KERNEL`. The
// decode fast paths and the tensor/graph path call the exact same code, so
// within a kernel mode their f32 sequences cannot drift apart. Attention-
// weighted sums over cached value rows (`out = scores · v_rows`) are
// `row_matmul_into` too: its zero-skip drops exactly the softmax lanes that
// underflowed to zero, as the graph path's matmul does.
pub(crate) use crate::kernel::{add_assign, dot, layer_norm_row, row_matmul_into};

/// In-place softmax over one row (re-exported from the kernel tier; see
/// [`crate::kernel::softmax_row`] for the determinism contract).
///
/// Public so external decode drivers (the serve-side continuous-batching
/// broker scoring forced sequences) can replicate `forced_logprob`'s exact
/// f32 sequence instead of reimplementing it.
pub use crate::kernel::softmax_row;

/// One logits row `out = xn · w + b`, branching on
/// [`crate::kernel::dot_form_logits`]: dot-form reads the pre-transposed
/// weight `wt` (`vocab × d`) one contiguous row per vocab id through the
/// fixed-tree [`Kernel::dot`] (the AVX2 win the matmul bench measures);
/// axpy-form is the classic [`row_matmul_into`] column sweep (faster in
/// scalar mode, whose serial-chain `dot` loses ~4×). Every decode *and*
/// graph-reference path funnels through this same branch, so within one
/// (kernel mode, dot-form) setting the two sides stay bit-identical.
pub(crate) fn project_logits_row(xn: &[f32], w: &Tensor, wt: &Tensor, b: &[f32], out: &mut [f32]) {
    if crate::kernel::dot_form_logits() {
        for (v, o) in out.iter_mut().enumerate() {
            *o = dot(xn, wt.row(v));
        }
    } else {
        row_matmul_into(xn, w, out);
    }
    add_assign(out, b);
}

// ---------------------------------------------------------------------------
// Decode loops (shared by the transformer and GRU states)
// ---------------------------------------------------------------------------

/// The greedy loop both model families run: starts from `bos`, feeds each
/// emitted token back through `next` (which steps the state and returns the
/// argmax of the new logits row), and stops at `eos`, at `cap` tokens
/// including `bos`, or on a degenerate tail. Returns the emitted ids
/// without `bos`/`eos`.
fn greedy_loop(
    bos: usize,
    eos: usize,
    cap: usize,
    mut next: impl FnMut(usize) -> Option<usize>,
) -> Vec<usize> {
    let mut out: Vec<usize> = vec![bos];
    let obs = vega_obs::global();
    while out.len() < cap {
        let t0 = std::time::Instant::now();
        let last = *out.last().expect("out starts with bos");
        let token = next(last).unwrap_or(eos);
        let dt = t0.elapsed().as_secs_f64();
        obs.observe("decode.step_seconds", dt);
        obs.counter_add("decode.tokens", 1);
        tally::bump(dt);
        if token == eos {
            break;
        }
        out.push(token);
        if crate::seq2seq::looks_degenerate(&out) {
            break;
        }
    }
    out.remove(0);
    out
}

/// The forced scorer's reduction both model families run: `fill(r, probs)`
/// writes the logits row for position `r`, and the sum of
/// `ln softmax(row)[tgt_out[r]]` over the positions is returned.
fn forced_sum(vocab: usize, tgt_out: &[usize], mut fill: impl FnMut(usize, &mut [f32])) -> f32 {
    let mut probs = vec![0.0f32; vocab];
    let mut lp = 0.0f32;
    for (r, &to) in tgt_out.iter().enumerate() {
        fill(r, &mut probs);
        softmax_row(&mut probs);
        lp += probs[to].max(1e-12).ln();
    }
    vega_obs::global().counter_add("decode.scored_tokens", tgt_out.len() as u64);
    lp
}

/// Batched [`project_logits_row`]: one logits row per listed slot (`xn` at
/// stride `w.rows`, `out` at stride `w.cols`). The dot-form loop is
/// weight-major — each transposed weight row crosses the cache hierarchy
/// once for the whole batch, mirroring [`batch_row_matmul_into`]'s
/// amortization — and per slot the f32 sequence is exactly the single-row
/// helper's, so batch and single logits agree bitwise.
pub(crate) fn project_logits_rows(
    slots: &[usize],
    xn: &[f32],
    w: &Tensor,
    wt: &Tensor,
    b: &[f32],
    out: &mut [f32],
) {
    let (d, vocab) = (w.rows, w.cols);
    if crate::kernel::dot_form_logits() {
        for v in 0..vocab {
            let wr = wt.row(v);
            for &s in slots {
                out[s * vocab + v] = dot(&xn[s * d..(s + 1) * d], wr);
            }
        }
    } else {
        batch_row_matmul_into(slots, xn, w, out);
    }
    for &s in slots {
        add_assign(&mut out[s * vocab..(s + 1) * vocab], b);
    }
}

// ---------------------------------------------------------------------------
// Forward-only matrix helpers (encoder; runs once per decode)
// ---------------------------------------------------------------------------

/// Row-wise layer norm over a matrix, replicating `Graph::layer_norm`.
fn layer_norm_rows(x: &Tensor, gain: &Tensor, bias: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(x.rows, x.cols);
    for r in 0..x.rows {
        layer_norm_row(x.row(r), gain.as_slice(), bias.as_slice(), out.row_mut(r));
    }
    out
}

/// Column concatenation, replicating `Graph::concat_cols`.
fn concat_cols(a: &Tensor, b: &Tensor) -> Tensor {
    debug_assert_eq!(a.rows, b.rows, "concat rows");
    let mut out = Tensor::zeros(a.rows, a.cols + b.cols);
    for r in 0..a.rows {
        out.row_mut(r)[..a.cols].copy_from_slice(a.row(r));
        out.row_mut(r)[a.cols..].copy_from_slice(b.row(r));
    }
    out
}

/// Elementwise ReLU, replicating `Graph::relu`.
fn relu(x: &Tensor) -> Tensor {
    Tensor::from_vec(
        x.rows,
        x.cols,
        x.as_slice().iter().map(|v| v.max(0.0)).collect(),
    )
}

impl Transformer {
    fn embed_with_pos_fwd(&self, ids: &[usize]) -> Tensor {
        let tok = self.store.value(self.tok_emb);
        let pos = self.store.value(self.pos_emb);
        let mut te = Tensor::zeros(ids.len(), tok.cols);
        let mut pe = Tensor::zeros(ids.len(), pos.cols);
        for (r, &id) in ids.iter().enumerate() {
            te.row_mut(r).copy_from_slice(tok.row(id));
            pe.row_mut(r)
                .copy_from_slice(pos.row(r.min(self.cfg.max_len - 1)));
        }
        te.add(&pe)
    }

    /// Unmasked multi-head attention on plain tensors (encoder self-attention
    /// uses `q_in == kv`), replaying the graph op sequence exactly.
    fn attention_fwd(&self, q_in: &Tensor, kv: &Tensor, p: &AttnParams) -> Tensor {
        let dh = self.cfg.d_model / self.cfg.n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut concat: Option<Tensor> = None;
        for h in 0..self.cfg.n_heads {
            let q = q_in.matmul(self.store.value(p.wq[h]), false);
            let k = kv.matmul(self.store.value(p.wk[h]), false);
            let v = kv.matmul(self.store.value(p.wv[h]), false);
            let scores = q.matmul(&k, true).scale(scale);
            let a = scores.softmax_rows();
            let head = a.matmul(&v, false);
            concat = Some(match concat {
                None => head,
                Some(c) => concat_cols(&c, &head),
            });
        }
        concat
            .expect("at least one attention head")
            .matmul(self.store.value(p.wo), false)
    }

    fn feed_forward_fwd(&self, x: &Tensor, p: &FfParams) -> Tensor {
        let h = x
            .matmul(self.store.value(p.w1), false)
            .add_row_broadcast(self.store.value(p.b1));
        relu(&h)
            .matmul(self.store.value(p.w2), false)
            .add_row_broadcast(self.store.value(p.b2))
    }

    fn ln_fwd(&self, x: &Tensor, p: &LnParams) -> Tensor {
        layer_norm_rows(x, self.store.value(p.gain), self.store.value(p.bias))
    }

    /// Forward-only encoder pass (no autograd tape); bit-identical to the
    /// graph path's `encode`.
    pub(crate) fn encode_fwd(&self, src: &[usize]) -> Tensor {
        let mut x = self.embed_with_pos_fwd(src);
        for layer in &self.enc_layers {
            let xn = self.ln_fwd(&x, &layer.ln1);
            let att = self.attention_fwd(&xn, &xn, &layer.attn);
            x = x.add(&att);
            let xn = self.ln_fwd(&x, &layer.ln2);
            let ffo = self.feed_forward_fwd(&xn, &layer.ff);
            x = x.add(&ffo);
        }
        x
    }

    /// Starts an incremental decode session over `src` (clamped to
    /// `max_len`): encodes once, projects every decoder layer's
    /// cross-attention K/V once, and allocates the self-attention caches and
    /// scratch buffers. Subsequent [`DecodeState::step`] calls cost one
    /// token-row pass through the decoder instead of a full-prefix re-run.
    /// Each call is one encoder pass, counted in `decode.encoder_runs`.
    pub fn begin_decode(&self, src: &[usize]) -> DecodeState<'_> {
        let src = &src[..src.len().min(self.cfg.max_len)];
        vega_obs::global().counter_add("decode.encoder_runs", 1);
        let enc = self.encode_fwd(src);
        let d = self.cfg.d_model;
        let dh = d / self.cfg.n_heads;
        let mut cross_k = Vec::with_capacity(self.dec_layers.len());
        let mut cross_v = Vec::with_capacity(self.dec_layers.len());
        let mut self_k = Vec::with_capacity(self.dec_layers.len());
        let mut self_v = Vec::with_capacity(self.dec_layers.len());
        for layer in &self.dec_layers {
            let mut lk = Vec::with_capacity(self.cfg.n_heads);
            let mut lv = Vec::with_capacity(self.cfg.n_heads);
            let mut sk = Vec::with_capacity(self.cfg.n_heads);
            let mut sv = Vec::with_capacity(self.cfg.n_heads);
            for h in 0..self.cfg.n_heads {
                lk.push(enc.matmul(self.store.value(layer.cross_attn.wk[h]), false));
                lv.push(enc.matmul(self.store.value(layer.cross_attn.wv[h]), false));
                let empty = || Tensor::with_row_capacity(dh, self.cfg.max_len);
                sk.push(empty());
                sv.push(empty());
            }
            cross_k.push(lk);
            cross_v.push(lv);
            self_k.push(sk);
            self_v.push(sv);
        }
        DecodeState {
            model: self,
            wt: self.out_proj_t(),
            cross_k,
            cross_v,
            self_k,
            self_v,
            len: 0,
            x: vec![0.0; d],
            xn: vec![0.0; d],
            q: vec![0.0; dh],
            kv_row: vec![0.0; dh],
            scores: vec![0.0; self.cfg.max_len.max(enc.rows)],
            heads: vec![0.0; d],
            tmp_d: vec![0.0; d],
            ff: vec![0.0; self.cfg.d_ff],
            logits: vec![0.0; self.cfg.vocab],
            many: ManyScratch::default(),
        }
    }

    /// Incremental forced decode: feeds each token of `feed` through a fresh
    /// [`DecodeState`] and returns the argmax token id after every step — the
    /// fast-path twin of [`Transformer::forced_steps_graph`] for equivalence
    /// tests and benches that need decodes of a controlled length.
    pub fn forced_steps(&self, src: &[usize], feed: &[usize]) -> Vec<usize> {
        let feed = &feed[..feed.len().min(self.cfg.max_len)];
        let mut st = self.begin_decode(src);
        feed.iter()
            .map(|&t| crate::seq2seq::argmax(st.step(t)).unwrap_or(0))
            .collect()
    }
}

/// Incremental decoder state for a [`Transformer`]: encoder-derived
/// cross-attention K/V (computed once), growing per-layer self-attention K/V
/// caches, and reusable scratch rows. Create with
/// [`Transformer::begin_decode`], advance with [`DecodeState::step`].
///
/// One state serves any number of whole decodes of its source:
/// [`DecodeState::greedy`] and [`DecodeState::forced_logprob`] each
/// [`reset`](DecodeState::reset) to the just-encoded state first, so every
/// call after the first skips the encoder and the cross-attention K/V
/// projections and is still bit-identical to a fresh `begin_decode` — the
/// "encode once per statement" path behind `vega-model`'s decode session.
pub struct DecodeState<'m> {
    model: &'m Transformer,
    /// The output projection pre-transposed to `vocab × d`, snapshotted from
    /// the model's epoch-keyed cache once per session (weights are immutable
    /// while the state borrows the model, so it cannot go stale mid-decode).
    wt: Arc<Tensor>,
    /// `[layer][head]`: encoder keys/values (`enc_len × d_head`), fixed.
    cross_k: Vec<Vec<Tensor>>,
    cross_v: Vec<Vec<Tensor>>,
    /// `[layer][head]`: cached self-attention keys/values, one row per
    /// decoded position (pre-reserved to `max_len` rows).
    self_k: Vec<Vec<Tensor>>,
    self_v: Vec<Vec<Tensor>>,
    len: usize,
    // Scratch rows, reused every step.
    x: Vec<f32>,
    xn: Vec<f32>,
    q: Vec<f32>,
    kv_row: Vec<f32>,
    scores: Vec<f32>,
    heads: Vec<f32>,
    tmp_d: Vec<f32>,
    ff: Vec<f32>,
    logits: Vec<f32>,
    /// Flat multi-position scratch for [`DecodeState::step_many`], grown
    /// lazily to the largest chunk fed (plain `step` never touches it).
    many: ManyScratch,
}

/// Flat per-position scratch for [`DecodeState::step_many`]: one row per
/// chunk position at the natural stride for each buffer, mirroring
/// [`BatchDecodeState`]'s layout with positions in place of slots.
#[derive(Default)]
struct ManyScratch {
    ids: Vec<usize>,
    x: Vec<f32>,
    xn: Vec<f32>,
    q: Vec<f32>,
    kv_row: Vec<f32>,
    heads: Vec<f32>,
    tmp_d: Vec<f32>,
    ff: Vec<f32>,
    logits: Vec<f32>,
}

impl ManyScratch {
    fn ensure(&mut self, t: usize, d: usize, dh: usize, d_ff: usize, vocab: usize) {
        fn grow(v: &mut Vec<f32>, n: usize) {
            if v.len() < n {
                v.resize(n, 0.0);
            }
        }
        if self.ids.len() != t {
            self.ids = (0..t).collect();
        }
        grow(&mut self.x, t * d);
        grow(&mut self.xn, t * d);
        grow(&mut self.q, t * dh);
        grow(&mut self.kv_row, t * dh);
        grow(&mut self.heads, t * d);
        grow(&mut self.tmp_d, t * d);
        grow(&mut self.ff, t * d_ff);
        grow(&mut self.logits, t * vocab);
    }
}

impl DecodeState<'_> {
    /// Number of tokens fed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before the first [`DecodeState::step`].
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Feeds `token` at the next position and returns the logits row for it —
    /// bit-identical to the last row of the graph path's full-prefix decode,
    /// at one token-row of work per layer instead of a full-prefix re-run.
    ///
    /// # Panics
    /// Panics if more than `max_len` tokens are fed (the graph path would
    /// index the positional table out of range at the same point).
    pub fn step(&mut self, token: usize) -> &[f32] {
        let m = self.model;
        let d = m.cfg.d_model;
        let n_heads = m.cfg.n_heads;
        let dh = d / n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        assert!(self.len < m.cfg.max_len, "decode past max_len");
        let pos = self.len.min(m.cfg.max_len - 1);
        // Token + positional embedding for this row.
        let te = m.store.value(m.tok_emb).row(token);
        let pe = m.store.value(m.pos_emb).row(pos);
        for c in 0..d {
            self.x[c] = te[c] + pe[c];
        }
        for (l, layer) in m.dec_layers.iter().enumerate() {
            // Self-attention over the cached prefix plus this row.
            layer_norm_row(
                &self.x,
                m.store.value(layer.ln1.gain).as_slice(),
                m.store.value(layer.ln1.bias).as_slice(),
                &mut self.xn,
            );
            for h in 0..n_heads {
                row_matmul_into(&self.xn, m.store.value(layer.self_attn.wq[h]), &mut self.q);
                let (sk, sv) = (&mut self.self_k[l][h], &mut self.self_v[l][h]);
                row_matmul_into(
                    &self.xn,
                    m.store.value(layer.self_attn.wk[h]),
                    &mut self.kv_row,
                );
                sk.push_row(&self.kv_row);
                row_matmul_into(
                    &self.xn,
                    m.store.value(layer.self_attn.wv[h]),
                    &mut self.kv_row,
                );
                sv.push_row(&self.kv_row);
                let t1 = sk.rows;
                for j in 0..t1 {
                    self.scores[j] = dot(&self.q, sk.row(j)) * scale;
                }
                softmax_row(&mut self.scores[..t1]);
                row_matmul_into(
                    &self.scores[..t1],
                    sv,
                    &mut self.heads[h * dh..(h + 1) * dh],
                );
            }
            row_matmul_into(
                &self.heads,
                m.store.value(layer.self_attn.wo),
                &mut self.tmp_d,
            );
            add_assign(&mut self.x, &self.tmp_d);
            // Cross-attention against the fixed encoder K/V.
            layer_norm_row(
                &self.x,
                m.store.value(layer.ln2.gain).as_slice(),
                m.store.value(layer.ln2.bias).as_slice(),
                &mut self.xn,
            );
            for h in 0..n_heads {
                row_matmul_into(&self.xn, m.store.value(layer.cross_attn.wq[h]), &mut self.q);
                let (ck, cv) = (&self.cross_k[l][h], &self.cross_v[l][h]);
                for j in 0..ck.rows {
                    self.scores[j] = dot(&self.q, ck.row(j)) * scale;
                }
                softmax_row(&mut self.scores[..ck.rows]);
                row_matmul_into(
                    &self.scores[..ck.rows],
                    cv,
                    &mut self.heads[h * dh..(h + 1) * dh],
                );
            }
            row_matmul_into(
                &self.heads,
                m.store.value(layer.cross_attn.wo),
                &mut self.tmp_d,
            );
            add_assign(&mut self.x, &self.tmp_d);
            // Feed-forward.
            layer_norm_row(
                &self.x,
                m.store.value(layer.ln3.gain).as_slice(),
                m.store.value(layer.ln3.bias).as_slice(),
                &mut self.xn,
            );
            row_matmul_into(&self.xn, m.store.value(layer.ff.w1), &mut self.ff);
            add_assign(&mut self.ff, m.store.value(layer.ff.b1).as_slice());
            for v in self.ff.iter_mut() {
                *v = v.max(0.0);
            }
            row_matmul_into(&self.ff, m.store.value(layer.ff.w2), &mut self.tmp_d);
            add_assign(&mut self.tmp_d, m.store.value(layer.ff.b2).as_slice());
            add_assign(&mut self.x, &self.tmp_d);
        }
        layer_norm_row(
            &self.x,
            m.store.value(m.final_ln.gain).as_slice(),
            m.store.value(m.final_ln.bias).as_slice(),
            &mut self.xn,
        );
        project_logits_row(
            &self.xn,
            m.store.value(m.w_out),
            &self.wt,
            m.store.value(m.b_out).as_slice(),
            &mut self.logits,
        );
        self.len += 1;
        &self.logits
    }

    /// Feeds `tokens` at the next `tokens.len()` positions in **one**
    /// causal-masked multi-position pass and returns their logits rows,
    /// flattened (`tokens.len() × vocab`, row `i` for `tokens[i]`).
    ///
    /// Bit-identical to calling [`DecodeState::step`] once per token: the
    /// batched projections reuse [`batch_row_matmul_into`] (per-row
    /// bit-identical to the single-row kernel), K/V rows are appended in
    /// position order, and each position attends only over its causal prefix
    /// of the shared cache — later rows exist but are never read, exactly as
    /// the graph path's `-1e9` mask zeroes them out. This is the verify pass
    /// of speculative decoding and the one-pass prompt prefill for forced
    /// scoring; per-position cost amortizes every weight read over the chunk.
    ///
    /// # Panics
    /// Panics if the chunk would run past `max_len`.
    pub fn step_many(&mut self, tokens: &[usize]) -> &[f32] {
        let m = self.model;
        let d = m.cfg.d_model;
        let n_heads = m.cfg.n_heads;
        let dh = d / n_heads;
        let vocab = m.cfg.vocab;
        let scale = 1.0 / (dh as f32).sqrt();
        let t = tokens.len();
        assert!(self.len + t <= m.cfg.max_len, "decode past max_len");
        self.many.ensure(t, d, dh, m.cfg.d_ff, vocab);
        let len_before = self.len;
        // Token + positional embedding per position.
        let tok = m.store.value(m.tok_emb);
        let pos_t = m.store.value(m.pos_emb);
        for (i, &token) in tokens.iter().enumerate() {
            let te = tok.row(token);
            let pe = pos_t.row((len_before + i).min(m.cfg.max_len - 1));
            let x = &mut self.many.x[i * d..(i + 1) * d];
            for c in 0..d {
                x[c] = te[c] + pe[c];
            }
        }
        for (l, layer) in m.dec_layers.iter().enumerate() {
            // Self-attention: project and append ALL chunk K/V rows first
            // (row j depends only on its own input), then attend each
            // position over its own causal prefix `len_before + i + 1`.
            for &i in &self.many.ids {
                layer_norm_row(
                    &self.many.x[i * d..(i + 1) * d],
                    m.store.value(layer.ln1.gain).as_slice(),
                    m.store.value(layer.ln1.bias).as_slice(),
                    &mut self.many.xn[i * d..(i + 1) * d],
                );
            }
            for h in 0..n_heads {
                batch_row_matmul_into(
                    &self.many.ids,
                    &self.many.xn,
                    m.store.value(layer.self_attn.wq[h]),
                    &mut self.many.q,
                );
                batch_row_matmul_into(
                    &self.many.ids,
                    &self.many.xn,
                    m.store.value(layer.self_attn.wk[h]),
                    &mut self.many.kv_row,
                );
                for &i in &self.many.ids {
                    self.self_k[l][h].push_row(&self.many.kv_row[i * dh..(i + 1) * dh]);
                }
                batch_row_matmul_into(
                    &self.many.ids,
                    &self.many.xn,
                    m.store.value(layer.self_attn.wv[h]),
                    &mut self.many.kv_row,
                );
                for &i in &self.many.ids {
                    self.self_v[l][h].push_row(&self.many.kv_row[i * dh..(i + 1) * dh]);
                }
                for &i in &self.many.ids {
                    let (sk, sv) = (&self.self_k[l][h], &self.self_v[l][h]);
                    let t1 = len_before + i + 1;
                    let scores = &mut self.scores[..t1];
                    let q = &self.many.q[i * dh..(i + 1) * dh];
                    for (j, sc) in scores.iter_mut().enumerate() {
                        *sc = dot(q, sk.row(j)) * scale;
                    }
                    softmax_row(scores);
                    row_matmul_into(
                        scores,
                        sv,
                        &mut self.many.heads[i * d + h * dh..i * d + (h + 1) * dh],
                    );
                }
            }
            batch_row_matmul_into(
                &self.many.ids,
                &self.many.heads,
                m.store.value(layer.self_attn.wo),
                &mut self.many.tmp_d,
            );
            for &i in &self.many.ids {
                add_assign(
                    &mut self.many.x[i * d..(i + 1) * d],
                    &self.many.tmp_d[i * d..(i + 1) * d],
                );
            }
            // Cross-attention against the fixed encoder K/V.
            for &i in &self.many.ids {
                layer_norm_row(
                    &self.many.x[i * d..(i + 1) * d],
                    m.store.value(layer.ln2.gain).as_slice(),
                    m.store.value(layer.ln2.bias).as_slice(),
                    &mut self.many.xn[i * d..(i + 1) * d],
                );
            }
            for h in 0..n_heads {
                batch_row_matmul_into(
                    &self.many.ids,
                    &self.many.xn,
                    m.store.value(layer.cross_attn.wq[h]),
                    &mut self.many.q,
                );
                for &i in &self.many.ids {
                    let (ck, cv) = (&self.cross_k[l][h], &self.cross_v[l][h]);
                    let scores = &mut self.scores[..ck.rows];
                    let q = &self.many.q[i * dh..(i + 1) * dh];
                    for (j, sc) in scores.iter_mut().enumerate() {
                        *sc = dot(q, ck.row(j)) * scale;
                    }
                    softmax_row(scores);
                    row_matmul_into(
                        scores,
                        cv,
                        &mut self.many.heads[i * d + h * dh..i * d + (h + 1) * dh],
                    );
                }
            }
            batch_row_matmul_into(
                &self.many.ids,
                &self.many.heads,
                m.store.value(layer.cross_attn.wo),
                &mut self.many.tmp_d,
            );
            for &i in &self.many.ids {
                add_assign(
                    &mut self.many.x[i * d..(i + 1) * d],
                    &self.many.tmp_d[i * d..(i + 1) * d],
                );
            }
            // Feed-forward.
            for &i in &self.many.ids {
                layer_norm_row(
                    &self.many.x[i * d..(i + 1) * d],
                    m.store.value(layer.ln3.gain).as_slice(),
                    m.store.value(layer.ln3.bias).as_slice(),
                    &mut self.many.xn[i * d..(i + 1) * d],
                );
            }
            let d_ff = m.cfg.d_ff;
            batch_row_matmul_into(
                &self.many.ids,
                &self.many.xn,
                m.store.value(layer.ff.w1),
                &mut self.many.ff,
            );
            for &i in &self.many.ids {
                let ff = &mut self.many.ff[i * d_ff..(i + 1) * d_ff];
                add_assign(ff, m.store.value(layer.ff.b1).as_slice());
                for v in ff.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            batch_row_matmul_into(
                &self.many.ids,
                &self.many.ff,
                m.store.value(layer.ff.w2),
                &mut self.many.tmp_d,
            );
            for &i in &self.many.ids {
                let tmp = &mut self.many.tmp_d[i * d..(i + 1) * d];
                add_assign(tmp, m.store.value(layer.ff.b2).as_slice());
            }
            for &i in &self.many.ids {
                add_assign(
                    &mut self.many.x[i * d..(i + 1) * d],
                    &self.many.tmp_d[i * d..(i + 1) * d],
                );
            }
        }
        for &i in &self.many.ids {
            layer_norm_row(
                &self.many.x[i * d..(i + 1) * d],
                m.store.value(m.final_ln.gain).as_slice(),
                m.store.value(m.final_ln.bias).as_slice(),
                &mut self.many.xn[i * d..(i + 1) * d],
            );
        }
        project_logits_rows(
            &self.many.ids,
            &self.many.xn,
            m.store.value(m.w_out),
            &self.wt,
            m.store.value(m.b_out).as_slice(),
            &mut self.many.logits,
        );
        self.len += t;
        &self.many.logits[..t * vocab]
    }

    /// Rolls the session back to `len` fed tokens, popping the newer
    /// self-attention K/V rows in every layer and head — how speculative
    /// decoding discards positions whose input tokens the verifier rejected.
    /// Scratch and the fixed cross-attention K/V are untouched; re-feeding
    /// over the popped rows reproduces the sequential path bit for bit (and
    /// reuses the retained cache capacity).
    ///
    /// # Panics
    /// Panics if `len` exceeds the current length.
    pub fn truncate(&mut self, len: usize) {
        assert!(len <= self.len, "truncate beyond current length");
        for layer in self.self_k.iter_mut().chain(self.self_v.iter_mut()) {
            for cache in layer.iter_mut() {
                cache.truncate_rows(len);
            }
        }
        self.len = len;
    }

    /// Rolls back to the just-encoded state (`truncate(0)`): every decoded
    /// position is dropped, the encoder-derived cross-attention K/V stay.
    pub fn reset(&mut self) {
        self.truncate(0);
    }

    /// Greedy decode from the just-encoded state: starts from `bos`, stops
    /// at `eos` or `max_len` (capped at the model's). Returns the generated
    /// ids without `bos`/`eos` — exactly what [`Seq2Seq::greedy`] returns
    /// for this state's source.
    ///
    /// [`Seq2Seq::greedy`]: crate::Seq2Seq::greedy
    pub fn greedy(&mut self, bos: usize, eos: usize, max_len: usize) -> Vec<usize> {
        self.reset();
        let cap = max_len.min(self.model.cfg.max_len);
        greedy_loop(bos, eos, cap, |t| crate::seq2seq::argmax(self.step(t)))
    }

    /// Teacher-forced log-probability of `tgt_out` given the shifted decoder
    /// input `tgt_in`, from the just-encoded state — exactly what
    /// [`Seq2Seq::forced_logprob`] returns for this state's source. The
    /// whole forced prefix is known up front, so it is fed in one
    /// [`DecodeState::step_many`] prefill pass.
    ///
    /// [`Seq2Seq::forced_logprob`]: crate::Seq2Seq::forced_logprob
    pub fn forced_logprob(&mut self, tgt_in: &[usize], tgt_out: &[usize]) -> f32 {
        self.reset();
        let (tgt_in, tgt_out) =
            crate::seq2seq::clamp_forced(tgt_in, tgt_out, self.model.cfg.max_len);
        let vocab = self.model.cfg.vocab;
        let rows = self.step_many(tgt_in);
        forced_sum(vocab, tgt_out, |r, probs| {
            probs.copy_from_slice(&rows[r * vocab..(r + 1) * vocab]);
        })
    }
}

// ---------------------------------------------------------------------------
// GRU fast path
// ---------------------------------------------------------------------------

impl GruSeq2Seq {
    /// Starts an incremental GRU decode over `src` (clamped to `max_len`):
    /// runs the encoder once and seeds the decoder hidden state, which is
    /// then carried across [`GruDecodeState::step`] calls instead of being
    /// recomputed from scratch per token on a fresh graph. Each call is one
    /// encoder pass, counted in `decode.encoder_runs`.
    pub fn begin_decode(&self, src: &[usize]) -> GruDecodeState<'_> {
        let src = &src[..src.len().min(self.cfg.max_len)];
        vega_obs::global().counter_add("decode.encoder_runs", 1);
        let d = self.cfg.d_model;
        let mut st = GruDecodeState {
            model: self,
            wt: self.out_proj_t(),
            h: vec![0.0; d],
            h0: Vec::new(),
            xin: vec![0.0; 2 * d],
            z: vec![0.0; d],
            r: vec![0.0; d],
            hcand: vec![0.0; d],
            rh: vec![0.0; d],
            logits: vec![0.0; self.cfg.vocab],
        };
        let emb = self.store.value(self.emb);
        for &id in src {
            st.cell_fwd(&self.enc, emb.row(id));
        }
        st.h0 = st.save();
        st
    }

    /// Incremental forced decode for the GRU (see
    /// [`Transformer::forced_steps`]).
    pub fn forced_steps(&self, src: &[usize], feed: &[usize]) -> Vec<usize> {
        let feed = &feed[..feed.len().min(self.cfg.max_len)];
        let mut st = self.begin_decode(src);
        feed.iter()
            .map(|&t| crate::seq2seq::argmax(st.step(t)).unwrap_or(0))
            .collect()
    }
}

/// Incremental decoder state for a [`GruSeq2Seq`]: the recurrent hidden
/// state plus reusable gate scratch. Create with
/// [`GruSeq2Seq::begin_decode`], advance with [`GruDecodeState::step`].
/// Like [`DecodeState`], one state serves any number of whole decodes of
/// its source ([`GruDecodeState::reset`] restores the post-encoder hidden
/// state).
pub struct GruDecodeState<'m> {
    model: &'m GruSeq2Seq,
    /// Pre-transposed output projection, snapshotted like `DecodeState`'s.
    wt: Arc<Tensor>,
    h: Vec<f32>,
    /// The hidden state the encoder left, restored by `reset`.
    h0: Vec<f32>,
    xin: Vec<f32>,
    z: Vec<f32>,
    r: Vec<f32>,
    hcand: Vec<f32>,
    rh: Vec<f32>,
    logits: Vec<f32>,
}

impl GruDecodeState<'_> {
    /// One GRU cell update `h ← cell(x, h)`, replaying the graph path's
    /// `cell_step` op sequence bit for bit.
    fn cell_fwd(&mut self, cell: &GruCell, x: &[f32]) {
        let m = self.model;
        let d = m.cfg.d_model;
        self.xin[..d].copy_from_slice(x);
        self.xin[d..].copy_from_slice(&self.h);
        row_matmul_into(&self.xin, m.store.value(cell.wz), &mut self.z);
        add_assign(&mut self.z, m.store.value(cell.bz).as_slice());
        for v in self.z.iter_mut() {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
        row_matmul_into(&self.xin, m.store.value(cell.wr), &mut self.r);
        add_assign(&mut self.r, m.store.value(cell.br).as_slice());
        for v in self.r.iter_mut() {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
        for i in 0..d {
            self.rh[i] = self.r[i] * self.h[i];
        }
        self.xin[..d].copy_from_slice(x);
        self.xin[d..].copy_from_slice(&self.rh);
        row_matmul_into(&self.xin, m.store.value(cell.wh), &mut self.hcand);
        add_assign(&mut self.hcand, m.store.value(cell.bh).as_slice());
        for v in self.hcand.iter_mut() {
            *v = v.tanh();
        }
        // h' = (1 - z) ⊙ h + z ⊙ ĥ, associated exactly as the graph ops are:
        // keep = (−z + 1) ⊙ h, new = z ⊙ ĥ, h' = keep + new.
        for i in 0..d {
            let keep = (self.z[i] * -1.0 + 1.0) * self.h[i];
            let new = self.z[i] * self.hcand[i];
            self.h[i] = keep + new;
        }
    }

    /// Feeds `token` through the decoder cell and returns its logits row —
    /// bit-identical to the last row of the graph path's full-prefix decode.
    pub fn step(&mut self, token: usize) -> &[f32] {
        let m = self.model;
        let emb = m.store.value(m.emb);
        let x: Vec<f32> = emb.row(token).to_vec();
        self.cell_fwd(&m.dec, &x);
        project_logits_row(
            &self.h,
            m.store.value(m.w_out),
            &self.wt,
            m.store.value(m.b_out).as_slice(),
            &mut self.logits,
        );
        &self.logits
    }

    /// Snapshots the recurrent hidden state. With [`GruDecodeState::restore`]
    /// this is the GRU's whole-state rollback: the speculative driver saves
    /// before advancing the draft past unverified tokens and restores to the
    /// last verified position on a mismatch (the recurrent analog of
    /// [`DecodeState::truncate`]).
    pub fn save(&self) -> Vec<f32> {
        self.h.clone()
    }

    /// Restores a snapshot taken by [`GruDecodeState::save`].
    ///
    /// # Panics
    /// Panics if `h` was saved from a different width.
    pub fn restore(&mut self, h: &[f32]) {
        self.h.copy_from_slice(h);
    }

    /// Rolls back to the just-encoded state: restores the hidden state the
    /// encoder left (the recurrent analog of [`DecodeState::reset`]).
    pub fn reset(&mut self) {
        self.h.copy_from_slice(&self.h0);
    }

    /// Greedy decode from the just-encoded state (see
    /// [`DecodeState::greedy`]).
    pub fn greedy(&mut self, bos: usize, eos: usize, max_len: usize) -> Vec<usize> {
        self.reset();
        let cap = max_len.min(self.model.cfg.max_len);
        greedy_loop(bos, eos, cap, |t| crate::seq2seq::argmax(self.step(t)))
    }

    /// Teacher-forced log-probability from the just-encoded state (see
    /// [`DecodeState::forced_logprob`]), one recurrent step per position.
    pub fn forced_logprob(&mut self, tgt_in: &[usize], tgt_out: &[usize]) -> f32 {
        self.reset();
        let (tgt_in, tgt_out) =
            crate::seq2seq::clamp_forced(tgt_in, tgt_out, self.model.cfg.max_len);
        forced_sum(self.model.cfg.vocab, tgt_out, |r, probs| {
            probs.copy_from_slice(self.step(tgt_in[r]));
        })
    }
}

// ---------------------------------------------------------------------------
// Batched decode (N sessions in lockstep through shared weights)
// ---------------------------------------------------------------------------

/// Batched row matmul: for every slot `s` in `slots`,
/// `out[s] = a[s] · b`, where `a` holds one row per slot at stride `b.rows`
/// and `out` one row per slot at stride `b.cols`.
///
/// The loop nest is k-blocked: weight rows are streamed sequentially (so the
/// hardware prefetcher sees one linear pass over the matrix per step) in
/// blocks of [`K_TILE`], and inside a block every slot consumes all
/// [`K_TILE`] rows while they are cache-hot — the weight bytes cross the
/// cache hierarchy **once** per step for the whole batch instead of once
/// per session, which is what amortizes weight reads N× over a batch. When
/// a slot's [`K_TILE`] activations are all nonzero the fused path folds all
/// eight rank-1 updates into one pass over the output row (eight FMAs per
/// load/store instead of one); otherwise the per-k path applies exactly the
/// nonzero terms.
///
/// Per slot, the accumulation into any output element is element-by-element
/// in ascending `k` with the exact zero-skip (the fused [`Kernel::fma_tile`]
/// path's `+=` chain is the same rounding sequence), i.e. bit-identical to
/// [`row_matmul_into`] on that slot's row alone; blocking only reorders
/// work *across* slots, and no f32 op mixes slots.
fn batch_row_matmul_into(slots: &[usize], a: &[f32], b: &Tensor, out: &mut [f32]) {
    let (kdim, odim) = (b.rows, b.cols);
    for &s in slots {
        out[s * odim..(s + 1) * odim].fill(0.0);
    }
    with_kernel!(kr => {
        let mut kb = 0;
        while kb + K_TILE <= kdim {
            let rows: [&[f32]; K_TILE] = std::array::from_fn(|t| b.row(kb + t));
            for &s in slots {
                let avs: [f32; K_TILE] = std::array::from_fn(|t| a[s * kdim + kb + t]);
                let orow = &mut out[s * odim..(s + 1) * odim];
                if avs.iter().all(|&av| av != 0.0) {
                    kr.fma_tile(&avs, &rows, orow);
                } else {
                    for (&av, row) in avs.iter().zip(rows.iter()) {
                        if av == 0.0 {
                            continue;
                        }
                        kr.axpy(av, row, orow);
                    }
                }
            }
            kb += K_TILE;
        }
        // Tail rows (kdim % K_TILE), per-k like the plain row kernel.
        for k in kb..kdim {
            let brow = b.row(k);
            for &s in slots {
                let av = a[s * kdim + k];
                if av == 0.0 {
                    continue;
                }
                kr.axpy(av, brow, &mut out[s * odim..(s + 1) * odim]);
            }
        }
    });
}

/// A fixed-capacity batch of independent incremental decode sessions that
/// step in lockstep through shared weights.
///
/// Sessions occupy *slots* (`0..capacity`). [`BatchDecode::join`] starts a
/// session in a free slot, [`BatchDecode::step`] advances any subset of
/// active slots by one token each (one shared pass over every weight
/// matrix), and [`BatchDecode::retire`] frees a slot — immediately, at any
/// point, so finished sessions leave the batch at a token boundary without
/// barriers. Per-slot K/V state is private to the slot; ragged lengths need
/// no masks because attention runs against each slot's own cache.
///
/// The contract shared by both implementations ([`BatchDecodeState`],
/// [`GruBatchDecodeState`]): the logits produced for a slot are
/// **bit-identical** to a single-session [`DecodeState`] /
/// [`GruDecodeState`] fed the same source and token stream, at every batch
/// size and join/retire order.
pub trait BatchDecode {
    /// Total slot count.
    fn capacity(&self) -> usize;

    /// Currently occupied slot count.
    fn active(&self) -> usize;

    /// Starts a session over `src` (clamped to the model's `max_len`) in a
    /// free slot and returns its slot id; `None` when the batch is full.
    fn join(&mut self, src: &[usize]) -> Option<usize>;

    /// Frees `slot` (dropping its K/V state). No-op if already free.
    fn retire(&mut self, slot: usize);

    /// Advances each `(slot, token)` in `feeds` by one position in one
    /// shared weight pass. Slots not listed do not advance.
    ///
    /// # Panics
    /// Panics if a fed slot is free, is listed twice, or is at `max_len`.
    fn step(&mut self, feeds: &[(usize, usize)]);

    /// The logits row produced for `slot` by the most recent step that fed
    /// it.
    fn logits(&self, slot: usize) -> &[f32];

    /// Tokens fed to `slot` so far.
    fn slot_len(&self, slot: usize) -> usize;
}

/// Asserts `feeds` is a valid step: no duplicate slots (`seen` is a
/// scratch bitmap of at least `capacity` bools, reset here).
fn check_feeds(feeds: &[(usize, usize)], seen: &mut [bool]) {
    seen.fill(false);
    for &(s, _) in feeds {
        assert!(!seen[s], "slot {s} fed twice in one step");
        seen[s] = true;
    }
}

/// Per-slot state of a transformer batch session: the same cross-attention
/// projections and self-attention caches a [`DecodeState`] holds, minus the
/// shared scratch (which lives once per batch, not per slot).
struct TfSlot {
    cross_k: Vec<Vec<Tensor>>,
    cross_v: Vec<Vec<Tensor>>,
    self_k: Vec<Vec<Tensor>>,
    self_v: Vec<Vec<Tensor>>,
    len: usize,
}

/// Batched incremental decoder for a [`Transformer`]: N sessions share one
/// pass over every weight matrix per step (see [`batch_row_matmul_into`])
/// while keeping per-slot K/V caches. Create with
/// [`Transformer::begin_batch_decode`]; drive through the [`BatchDecode`]
/// trait.
pub struct BatchDecodeState<'m> {
    model: &'m Transformer,
    /// Pre-transposed output projection, snapshotted once per batch.
    wt: Arc<Tensor>,
    slots: Vec<Option<TfSlot>>,
    occupied: usize,
    // Shared scratch, one row per slot (flat, stride = row width).
    x: Vec<f32>,
    xn: Vec<f32>,
    q: Vec<f32>,
    kv_row: Vec<f32>,
    scores: Vec<f32>,
    heads: Vec<f32>,
    tmp_d: Vec<f32>,
    ff: Vec<f32>,
    logits: Vec<f32>,
    seen: Vec<bool>,
}

impl Transformer {
    /// Starts an empty batch of `capacity` incremental decode slots. Scratch
    /// is allocated once here; joins allocate only per-slot K/V state.
    pub fn begin_batch_decode(&self, capacity: usize) -> BatchDecodeState<'_> {
        let cap = capacity.max(1);
        let d = self.cfg.d_model;
        let dh = d / self.cfg.n_heads;
        BatchDecodeState {
            model: self,
            wt: self.out_proj_t(),
            slots: (0..cap).map(|_| None).collect(),
            occupied: 0,
            x: vec![0.0; cap * d],
            xn: vec![0.0; cap * d],
            q: vec![0.0; cap * dh],
            kv_row: vec![0.0; cap * dh],
            scores: vec![0.0; cap * self.cfg.max_len],
            heads: vec![0.0; cap * d],
            tmp_d: vec![0.0; cap * d],
            ff: vec![0.0; cap * self.cfg.d_ff],
            logits: vec![0.0; cap * self.cfg.vocab],
            seen: vec![false; cap],
        }
    }
}

impl BatchDecode for BatchDecodeState<'_> {
    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn active(&self) -> usize {
        self.occupied
    }

    fn join(&mut self, src: &[usize]) -> Option<usize> {
        let s = self.slots.iter().position(Option::is_none)?;
        // `begin_decode` runs the encoder (counting it in
        // `decode.encoder_runs`) and projects cross K/V exactly as the
        // single path does; the batch adopts its per-session state and
        // discards the single-session scratch.
        let st = self.model.begin_decode(src);
        self.slots[s] = Some(TfSlot {
            cross_k: st.cross_k,
            cross_v: st.cross_v,
            self_k: st.self_k,
            self_v: st.self_v,
            len: 0,
        });
        self.occupied += 1;
        Some(s)
    }

    fn retire(&mut self, slot: usize) {
        if self.slots[slot].take().is_some() {
            self.occupied -= 1;
        }
    }

    fn step(&mut self, feeds: &[(usize, usize)]) {
        let m = self.model;
        let d = m.cfg.d_model;
        let n_heads = m.cfg.n_heads;
        let dh = d / n_heads;
        let max_len = m.cfg.max_len;
        let scale = 1.0 / (dh as f32).sqrt();
        check_feeds(feeds, &mut self.seen);
        let ids: Vec<usize> = feeds.iter().map(|&(s, _)| s).collect();
        // Token + positional embedding per slot.
        let tok = m.store.value(m.tok_emb);
        let pos_t = m.store.value(m.pos_emb);
        for &(s, token) in feeds {
            let slot = self.slots[s].as_ref().expect("step on a free slot");
            assert!(slot.len < max_len, "decode past max_len");
            let te = tok.row(token);
            let pe = pos_t.row(slot.len.min(max_len - 1));
            let x = &mut self.x[s * d..(s + 1) * d];
            for c in 0..d {
                x[c] = te[c] + pe[c];
            }
        }
        for (l, layer) in m.dec_layers.iter().enumerate() {
            // Self-attention over each slot's cached prefix plus this row.
            for &s in &ids {
                layer_norm_row(
                    &self.x[s * d..(s + 1) * d],
                    m.store.value(layer.ln1.gain).as_slice(),
                    m.store.value(layer.ln1.bias).as_slice(),
                    &mut self.xn[s * d..(s + 1) * d],
                );
            }
            for h in 0..n_heads {
                batch_row_matmul_into(
                    &ids,
                    &self.xn,
                    m.store.value(layer.self_attn.wq[h]),
                    &mut self.q,
                );
                batch_row_matmul_into(
                    &ids,
                    &self.xn,
                    m.store.value(layer.self_attn.wk[h]),
                    &mut self.kv_row,
                );
                for &s in &ids {
                    let slot = self.slots[s].as_mut().expect("active slot");
                    slot.self_k[l][h].push_row(&self.kv_row[s * dh..(s + 1) * dh]);
                }
                batch_row_matmul_into(
                    &ids,
                    &self.xn,
                    m.store.value(layer.self_attn.wv[h]),
                    &mut self.kv_row,
                );
                for &s in &ids {
                    let slot = self.slots[s].as_mut().expect("active slot");
                    slot.self_v[l][h].push_row(&self.kv_row[s * dh..(s + 1) * dh]);
                }
                for &s in &ids {
                    let slot = self.slots[s].as_ref().expect("active slot");
                    let (sk, sv) = (&slot.self_k[l][h], &slot.self_v[l][h]);
                    let t1 = sk.rows;
                    let scores = &mut self.scores[s * max_len..s * max_len + t1];
                    let q = &self.q[s * dh..(s + 1) * dh];
                    for (j, sc) in scores.iter_mut().enumerate() {
                        *sc = dot(q, sk.row(j)) * scale;
                    }
                    softmax_row(scores);
                    row_matmul_into(
                        scores,
                        sv,
                        &mut self.heads[s * d + h * dh..s * d + (h + 1) * dh],
                    );
                }
            }
            batch_row_matmul_into(
                &ids,
                &self.heads,
                m.store.value(layer.self_attn.wo),
                &mut self.tmp_d,
            );
            for &s in &ids {
                add_assign(
                    &mut self.x[s * d..(s + 1) * d],
                    &self.tmp_d[s * d..(s + 1) * d],
                );
            }
            // Cross-attention against each slot's fixed encoder K/V.
            for &s in &ids {
                layer_norm_row(
                    &self.x[s * d..(s + 1) * d],
                    m.store.value(layer.ln2.gain).as_slice(),
                    m.store.value(layer.ln2.bias).as_slice(),
                    &mut self.xn[s * d..(s + 1) * d],
                );
            }
            for h in 0..n_heads {
                batch_row_matmul_into(
                    &ids,
                    &self.xn,
                    m.store.value(layer.cross_attn.wq[h]),
                    &mut self.q,
                );
                for &s in &ids {
                    let slot = self.slots[s].as_ref().expect("active slot");
                    let (ck, cv) = (&slot.cross_k[l][h], &slot.cross_v[l][h]);
                    let scores = &mut self.scores[s * max_len..s * max_len + ck.rows];
                    let q = &self.q[s * dh..(s + 1) * dh];
                    for (j, sc) in scores.iter_mut().enumerate() {
                        *sc = dot(q, ck.row(j)) * scale;
                    }
                    softmax_row(scores);
                    row_matmul_into(
                        scores,
                        cv,
                        &mut self.heads[s * d + h * dh..s * d + (h + 1) * dh],
                    );
                }
            }
            batch_row_matmul_into(
                &ids,
                &self.heads,
                m.store.value(layer.cross_attn.wo),
                &mut self.tmp_d,
            );
            for &s in &ids {
                add_assign(
                    &mut self.x[s * d..(s + 1) * d],
                    &self.tmp_d[s * d..(s + 1) * d],
                );
            }
            // Feed-forward.
            for &s in &ids {
                layer_norm_row(
                    &self.x[s * d..(s + 1) * d],
                    m.store.value(layer.ln3.gain).as_slice(),
                    m.store.value(layer.ln3.bias).as_slice(),
                    &mut self.xn[s * d..(s + 1) * d],
                );
            }
            let d_ff = m.cfg.d_ff;
            batch_row_matmul_into(&ids, &self.xn, m.store.value(layer.ff.w1), &mut self.ff);
            for &s in &ids {
                let ff = &mut self.ff[s * d_ff..(s + 1) * d_ff];
                add_assign(ff, m.store.value(layer.ff.b1).as_slice());
                for v in ff.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            batch_row_matmul_into(&ids, &self.ff, m.store.value(layer.ff.w2), &mut self.tmp_d);
            for &s in &ids {
                let tmp = &mut self.tmp_d[s * d..(s + 1) * d];
                add_assign(tmp, m.store.value(layer.ff.b2).as_slice());
            }
            for &s in &ids {
                add_assign(
                    &mut self.x[s * d..(s + 1) * d],
                    &self.tmp_d[s * d..(s + 1) * d],
                );
            }
        }
        for &s in &ids {
            layer_norm_row(
                &self.x[s * d..(s + 1) * d],
                m.store.value(m.final_ln.gain).as_slice(),
                m.store.value(m.final_ln.bias).as_slice(),
                &mut self.xn[s * d..(s + 1) * d],
            );
        }
        project_logits_rows(
            &ids,
            &self.xn,
            m.store.value(m.w_out),
            &self.wt,
            m.store.value(m.b_out).as_slice(),
            &mut self.logits,
        );
        for &s in &ids {
            self.slots[s].as_mut().expect("active slot").len += 1;
        }
    }

    fn logits(&self, slot: usize) -> &[f32] {
        assert!(self.slots[slot].is_some(), "logits of a free slot");
        let vocab = self.model.cfg.vocab;
        &self.logits[slot * vocab..(slot + 1) * vocab]
    }

    fn slot_len(&self, slot: usize) -> usize {
        self.slots[slot].as_ref().map_or(0, |s| s.len)
    }
}

/// Per-slot state of a GRU batch session: just the recurrent hidden vector
/// (held in the batch's flat `h` buffer) and its length.
struct GruSlot {
    len: usize,
}

/// Batched incremental decoder for a [`GruSeq2Seq`]; the GRU analog of
/// [`BatchDecodeState`]. Create with [`GruSeq2Seq::begin_batch_decode`].
pub struct GruBatchDecodeState<'m> {
    model: &'m GruSeq2Seq,
    /// Pre-transposed output projection, snapshotted once per batch.
    wt: Arc<Tensor>,
    slots: Vec<Option<GruSlot>>,
    occupied: usize,
    /// Hidden states, one row of width `d_model` per slot.
    h: Vec<f32>,
    // Shared scratch, one row per slot.
    x: Vec<f32>,
    xin: Vec<f32>,
    z: Vec<f32>,
    r: Vec<f32>,
    hcand: Vec<f32>,
    rh: Vec<f32>,
    logits: Vec<f32>,
    seen: Vec<bool>,
}

impl GruSeq2Seq {
    /// Starts an empty batch of `capacity` incremental GRU decode slots.
    pub fn begin_batch_decode(&self, capacity: usize) -> GruBatchDecodeState<'_> {
        let cap = capacity.max(1);
        let d = self.cfg.d_model;
        GruBatchDecodeState {
            model: self,
            wt: self.out_proj_t(),
            slots: (0..cap).map(|_| None).collect(),
            occupied: 0,
            h: vec![0.0; cap * d],
            x: vec![0.0; cap * d],
            xin: vec![0.0; cap * 2 * d],
            z: vec![0.0; cap * d],
            r: vec![0.0; cap * d],
            hcand: vec![0.0; cap * d],
            rh: vec![0.0; cap * d],
            logits: vec![0.0; cap * self.cfg.vocab],
            seen: vec![false; cap],
        }
    }
}

impl BatchDecode for GruBatchDecodeState<'_> {
    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn active(&self) -> usize {
        self.occupied
    }

    fn join(&mut self, src: &[usize]) -> Option<usize> {
        let s = self.slots.iter().position(Option::is_none)?;
        let d = self.model.cfg.d_model;
        // The single-session path runs (and counts) the encoder
        // bit-for-bit; adopt its seeded hidden state.
        let st = self.model.begin_decode(src);
        self.h[s * d..(s + 1) * d].copy_from_slice(&st.h);
        self.slots[s] = Some(GruSlot { len: 0 });
        self.occupied += 1;
        Some(s)
    }

    fn retire(&mut self, slot: usize) {
        if self.slots[slot].take().is_some() {
            self.occupied -= 1;
        }
    }

    fn step(&mut self, feeds: &[(usize, usize)]) {
        let m = self.model;
        let d = m.cfg.d_model;
        check_feeds(feeds, &mut self.seen);
        let ids: Vec<usize> = feeds.iter().map(|&(s, _)| s).collect();
        let emb = m.store.value(m.emb);
        for &(s, token) in feeds {
            assert!(self.slots[s].is_some(), "step on a free slot");
            self.x[s * d..(s + 1) * d].copy_from_slice(emb.row(token));
        }
        // One decoder cell update per slot, phase-batched: each weight
        // matrix is read once for all slots, each slot's f32 sequence is
        // exactly `GruDecodeState::cell_fwd`.
        let cell = &m.dec;
        for &s in &ids {
            self.xin[s * 2 * d..s * 2 * d + d].copy_from_slice(&self.x[s * d..(s + 1) * d]);
            self.xin[s * 2 * d + d..(s + 1) * 2 * d].copy_from_slice(&self.h[s * d..(s + 1) * d]);
        }
        batch_row_matmul_into(&ids, &self.xin, m.store.value(cell.wz), &mut self.z);
        for &s in &ids {
            let z = &mut self.z[s * d..(s + 1) * d];
            add_assign(z, m.store.value(cell.bz).as_slice());
            for v in z.iter_mut() {
                *v = 1.0 / (1.0 + (-*v).exp());
            }
        }
        batch_row_matmul_into(&ids, &self.xin, m.store.value(cell.wr), &mut self.r);
        for &s in &ids {
            let r = &mut self.r[s * d..(s + 1) * d];
            add_assign(r, m.store.value(cell.br).as_slice());
            for v in r.iter_mut() {
                *v = 1.0 / (1.0 + (-*v).exp());
            }
        }
        for &s in &ids {
            for i in 0..d {
                self.rh[s * d + i] = self.r[s * d + i] * self.h[s * d + i];
            }
            self.xin[s * 2 * d + d..(s + 1) * 2 * d].copy_from_slice(&self.rh[s * d..(s + 1) * d]);
        }
        batch_row_matmul_into(&ids, &self.xin, m.store.value(cell.wh), &mut self.hcand);
        for &s in &ids {
            let hc = &mut self.hcand[s * d..(s + 1) * d];
            add_assign(hc, m.store.value(cell.bh).as_slice());
            for v in hc.iter_mut() {
                *v = v.tanh();
            }
        }
        for &s in &ids {
            for i in 0..d {
                let keep = (self.z[s * d + i] * -1.0 + 1.0) * self.h[s * d + i];
                let new = self.z[s * d + i] * self.hcand[s * d + i];
                self.h[s * d + i] = keep + new;
            }
        }
        project_logits_rows(
            &ids,
            &self.h,
            m.store.value(m.w_out),
            &self.wt,
            m.store.value(m.b_out).as_slice(),
            &mut self.logits,
        );
        for &s in &ids {
            self.slots[s].as_mut().expect("active slot").len += 1;
        }
    }

    fn logits(&self, slot: usize) -> &[f32] {
        assert!(self.slots[slot].is_some(), "logits of a free slot");
        let vocab = self.model.cfg.vocab;
        &self.logits[slot * vocab..(slot + 1) * vocab]
    }

    fn slot_len(&self, slot: usize) -> usize {
        self.slots[slot].as_ref().map_or(0, |s| s.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_matmul_matches_tensor_matmul_bitwise() {
        let a = Tensor::from_vec(1, 4, vec![0.5, 0.0, -1.25, 2.0]);
        let b = Tensor::from_vec(4, 3, (0..12).map(|i| i as f32 * 0.3 - 1.0).collect());
        let full = a.matmul(&b, false);
        let mut out = vec![0.0f32; 3];
        row_matmul_into(a.row(0), &b, &mut out);
        for (x, y) in out.iter().zip(full.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn softmax_row_matches_tensor_softmax_bitwise() {
        let t = Tensor::from_vec(1, 5, vec![0.1, -2.0, 3.5, 0.0, 1.0]);
        let full = t.softmax_rows();
        let mut row = t.as_slice().to_vec();
        softmax_row(&mut row);
        for (x, y) in row.iter().zip(full.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn masked_softmax_prefix_is_exact() {
        // The graph path softmaxes the full row with -1e9 added to masked
        // lanes; the fast path softmaxes only the prefix. The masked lanes
        // must underflow to exactly zero for the two to agree.
        let scores = [0.3f32, -1.2, 0.9];
        let mut masked: Vec<f32> = scores.to_vec();
        masked.extend([0.4f32 + -1e9, -0.7 + -1e9]);
        softmax_row(&mut masked);
        let mut prefix = scores.to_vec();
        softmax_row(&mut prefix);
        for (x, y) in prefix.iter().zip(&masked) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(masked[3], 0.0);
        assert_eq!(masked[4], 0.0);
    }

    #[test]
    fn batch_row_matmul_matches_scalar_kernel_bitwise() {
        let b = Tensor::from_vec(4, 3, (0..12).map(|i| i as f32 * 0.3 - 1.0).collect());
        // Three slot rows at stride 4, one containing zeros (zero-skip path).
        let a = vec![
            0.5, 0.0, -1.25, 2.0, // slot 0
            -0.1, 0.2, 0.3, -0.4, // slot 1
            0.0, 0.0, 1.5, 0.0, // slot 2
        ];
        let mut batched = vec![7.0f32; 3 * 3];
        batch_row_matmul_into(&[2, 0, 1], &a, &b, &mut batched);
        for s in 0..3 {
            let mut single = vec![0.0f32; 3];
            row_matmul_into(&a[s * 4..(s + 1) * 4], &b, &mut single);
            for (x, y) in batched[s * 3..(s + 1) * 3].iter().zip(&single) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn transformer_batch_step_matches_single_bitwise() {
        use crate::{Seq2Seq, Transformer, TransformerConfig};
        let mut m = Transformer::new(TransformerConfig::tiny(10));
        for _ in 0..5 {
            m.train_example(&[2, 3, 4], &[3, 4], 0, 1);
            m.step(3e-3);
        }
        let srcs: [&[usize]; 3] = [&[2, 3, 4], &[4, 2], &[3]];
        let mut batch = m.begin_batch_decode(4);
        let mut singles: Vec<DecodeState> = srcs.iter().map(|s| m.begin_decode(s)).collect();
        let slots: Vec<usize> = srcs.iter().map(|s| batch.join(s).unwrap()).collect();
        for step in 0..4 {
            let feeds: Vec<(usize, usize)> = slots.iter().map(|&s| (s, step + 1)).collect();
            batch.step(&feeds);
            for (i, st) in singles.iter_mut().enumerate() {
                let want = st.step(step + 1);
                let got = batch.logits(slots[i]);
                for (x, y) in got.iter().zip(want) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn gru_batch_step_matches_single_bitwise() {
        use crate::{GruConfig, GruSeq2Seq, Seq2Seq};
        let mut m = GruSeq2Seq::new(GruConfig::tiny(8));
        for _ in 0..5 {
            m.train_example(&[2, 3], &[3, 2], 0, 1);
            m.step(3e-3);
        }
        let srcs: [&[usize]; 2] = [&[2, 3], &[3]];
        let mut batch = m.begin_batch_decode(2);
        let mut singles: Vec<GruDecodeState> = srcs.iter().map(|s| m.begin_decode(s)).collect();
        let slots: Vec<usize> = srcs.iter().map(|s| batch.join(s).unwrap()).collect();
        for step in 0..3 {
            let feeds: Vec<(usize, usize)> = slots.iter().map(|&s| (s, step + 2)).collect();
            batch.step(&feeds);
            for (i, st) in singles.iter_mut().enumerate() {
                let want = st.step(step + 2);
                let got = batch.logits(slots[i]);
                for (x, y) in got.iter().zip(want) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }
}
