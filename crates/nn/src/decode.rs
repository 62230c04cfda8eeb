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
//! `forced_logprobs` (with `forced_logprob` its one-pair case), and `reset`
//! to the just-encoded state before each, so one state answers any mix of
//! decodes and scores of its source after a single encoder pass.
//! `Seq2Seq::greedy` / `forced_logprob` are `begin_decode` followed by the
//! same loops.
//!
//! # One forward
//!
//! Every transformer decode path runs the same decoder forward over *rows*.
//! A row is a session's K/V cache, a position in it, the token fed there
//! and a scratch row to compute in. [`DecodeState::step`] is one row,
//! [`DecodeState::step_many`] is one row per token of one session, and
//! [`DecodeState::forced_logprobs`] is every candidate's positions past
//! their shared prefix, each candidate on its own fork of the session
//! cache. The GRU paths (the encoder pass and [`GruDecodeState::step`])
//! share one GRU cell, and every path, the graph references included,
//! shares one logits projection.
//!
//! The row count picks the loop, never the result. One row takes the
//! per-`k` [`row_matmul_into`] and the row-major dot-form logits loop;
//! several rows take the k-tiled loop, which streams each weight matrix
//! once for all of them, and the weight-major logits loop. Per row both
//! are the same f32 operations in the same order. The transformer encoder
//! runs its weight products on the same k-tiled loop, one row per source
//! position.
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

use crate::gru::{GruCell, GruConfig, GruSeq2Seq};
use crate::kernel::{with_kernel, Kernel, K_TILE};
use crate::params::ParamId;
use crate::tensor::Tensor;
use crate::transformer::{FfParams, LnParams, Transformer, TransformerConfig};
use std::sync::Arc;

/// Per-thread decode attribution: how many tokens the *current thread* has
/// decoded, and how long the decode steps took, since the last
/// [`reset`](crate::decode::tally::reset).
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
/// Public so tests and benches can replicate `forced_logprob`'s exact f32
/// sequence from single-step logits rows instead of reimplementing it.
pub use crate::kernel::softmax_row;

/// `out[s] = a[s] · b` for every scratch row `s` in `rows`, where `a` holds
/// one row per scratch index at stride `b.rows` and `out` one at stride
/// `b.cols` — the matmul behind every decode path.
///
/// One row runs [`row_matmul_into`]'s per-`k` loop. Several rows run a
/// k-blocked loop: weight rows are streamed sequentially (so the hardware
/// prefetcher sees one linear pass over the matrix) in blocks of
/// [`K_TILE`], and inside a block every row consumes all [`K_TILE`] weight
/// rows while they are cache-hot — the weight bytes cross the cache
/// hierarchy **once** for all rows instead of once per row. When a row's
/// [`K_TILE`] activations are all nonzero the fused path folds all eight
/// rank-1 updates into one pass over the output row (eight FMAs per
/// load/store instead of one); otherwise the per-k path applies exactly the
/// nonzero terms.
///
/// Per row, the accumulation into any output element is element-by-element
/// in ascending `k` with the exact zero-skip (the fused [`Kernel::fma_tile`]
/// path's `+=` chain is the same rounding sequence), i.e. bit-identical to
/// [`row_matmul_into`] on that row alone; blocking only reorders work
/// *across* rows, and no f32 op mixes rows.
fn rows_matmul_into(rows: &[usize], a: &[f32], b: &Tensor, out: &mut [f32]) {
    let (kdim, odim) = (b.rows, b.cols);
    if let [s] = *rows {
        let (a, out) = (
            &a[s * kdim..(s + 1) * kdim],
            &mut out[s * odim..(s + 1) * odim],
        );
        return row_matmul_into(a, b, out);
    }
    for &s in rows {
        out[s * odim..(s + 1) * odim].fill(0.0);
    }
    with_kernel!(kr => {
        let mut kb = 0;
        while kb + K_TILE <= kdim {
            let wrows: [&[f32]; K_TILE] = std::array::from_fn(|t| b.row(kb + t));
            for &s in rows {
                let avs: [f32; K_TILE] = std::array::from_fn(|t| a[s * kdim + kb + t]);
                let orow = &mut out[s * odim..(s + 1) * odim];
                if avs.iter().all(|&av| av != 0.0) {
                    kr.fma_tile(&avs, &wrows, orow);
                } else {
                    for (&av, row) in avs.iter().zip(wrows.iter()) {
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
            for &s in rows {
                let av = a[s * kdim + k];
                if av == 0.0 {
                    continue;
                }
                kr.axpy(av, brow, &mut out[s * odim..(s + 1) * odim]);
            }
        }
    });
}

/// The logits projection every decode path and both graph references run:
/// `out[s] = xn[s] · w + b` for every scratch row `s` in `rows` (`xn` at
/// stride `w.rows`, `out` at stride `w.cols`), branching on
/// [`crate::kernel::dot_form_logits`]. Dot-form reads the pre-transposed
/// weight `wt` (`vocab × d`) one contiguous row per vocab id through the
/// fixed-tree [`Kernel::dot`] (the AVX2 win the matmul bench measures):
/// row-major for one row, weight-major for several, so each transposed
/// weight row crosses the cache hierarchy once for all of them.
/// Axpy-form is [`rows_matmul_into`] (faster in scalar mode, whose
/// serial-chain `dot` loses ~4×). Per row the f32 sequence is the same
/// either way, so within one (kernel mode, dot-form) setting every path
/// stays bit-identical.
pub(crate) fn project_logits(
    rows: &[usize],
    xn: &[f32],
    w: &Tensor,
    wt: &Tensor,
    b: &[f32],
    out: &mut [f32],
) {
    let (d, vocab) = (w.rows, w.cols);
    if !crate::kernel::dot_form_logits() {
        rows_matmul_into(rows, xn, w, out);
    } else if let [s] = *rows {
        let xn = &xn[s * d..(s + 1) * d];
        for (v, o) in out[s * vocab..(s + 1) * vocab].iter_mut().enumerate() {
            *o = dot(xn, wt.row(v));
        }
    } else {
        for v in 0..vocab {
            let wr = wt.row(v);
            for &s in rows {
                out[s * vocab + v] = dot(&xn[s * d..(s + 1) * d], wr);
            }
        }
    }
    for &s in rows {
        add_assign(&mut out[s * vocab..(s + 1) * vocab], b);
    }
}

/// Grows `v` to at least `n` zeroed elements; never shrinks, so scratch
/// sized for the largest chunk so far is reused without allocating.
fn grow(v: &mut Vec<f32>, n: usize) {
    if v.len() < n {
        v.resize(n, 0.0);
    }
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

/// The GRU's forced scorer: `fill(r, probs)` writes the logits row for
/// position `r`, and the sum of `ln softmax(row)[tgt_out[r]]` over the
/// positions, in position order, is returned. [`DecodeState`] sums its
/// rows in the same order ([`DecodeState::forced_logprobs`]).
fn forced_sum(vocab: usize, tgt_out: &[usize], mut fill: impl FnMut(usize, &mut [f32])) -> f32 {
    let mut probs = vec![0.0f32; vocab];
    let mut lp = 0.0f32;
    for (r, &to) in tgt_out.iter().enumerate() {
        fill(r, &mut probs);
        softmax_row(&mut probs);
        lp += probs[to].max(1e-12).ln();
    }
    count_scored(tgt_out.len(), tgt_out.len());
    lp
}

/// Records one forced-scoring call: `tokens` scored positions
/// (`decode.scored_tokens`) computed from `rows` decoder rows
/// (`decode.scored_rows`; fewer than `tokens` when candidates share a
/// prefix).
fn count_scored(tokens: usize, rows: usize) {
    let obs = vega_obs::global();
    obs.counter_add("decode.scored_tokens", tokens as u64);
    obs.counter_add("decode.scored_rows", rows as u64);
}

// ---------------------------------------------------------------------------
// Row helpers shared by the transformer encoder and decoder forward
// ---------------------------------------------------------------------------

/// One head's attention for one row, `out = softmax(q · kᵀ · scale) · v`
/// over the first `n` rows of `k` and `v`, with `scores` (at least `n`
/// long) as scratch — the graph path's scale-then-softmax-then-matmul
/// sequence, per row.
fn attend(
    q: &[f32],
    k: &Tensor,
    v: &Tensor,
    n: usize,
    scale: f32,
    scores: &mut [f32],
    out: &mut [f32],
) {
    let scores = &mut scores[..n];
    for (j, sc) in scores.iter_mut().enumerate() {
        *sc = dot(q, k.row(j)) * scale;
    }
    softmax_row(scores);
    row_matmul_into(scores, v, out);
}

/// `x[a] += y[a]` for every row `a` in `ids` (both at stride `d`): the
/// residual connection.
fn add_rows(ids: &[usize], d: usize, x: &mut [f32], y: &[f32]) {
    for &a in ids {
        add_assign(&mut x[a * d..(a + 1) * d], &y[a * d..(a + 1) * d]);
    }
}

impl Transformer {
    /// `xn[a] = layer_norm(x[a])` for every row `a` in `ids`.
    fn norm_rows(&self, p: &LnParams, ids: &[usize], x: &[f32], xn: &mut [f32]) {
        let d = self.cfg.d_model;
        let (g, b) = (self.store.value(p.gain), self.store.value(p.bias));
        for &a in ids {
            let (x, xn) = (&x[a * d..(a + 1) * d], &mut xn[a * d..(a + 1) * d]);
            layer_norm_row(x, g.as_slice(), b.as_slice(), xn);
        }
    }

    /// The feed-forward block for every row `a` in `ids`:
    /// `out[a] = relu(xn[a] · w1 + b1) · w2 + b2`, with `ff` holding the
    /// hidden rows.
    fn feed_forward_rows(
        &self,
        p: &FfParams,
        ids: &[usize],
        xn: &[f32],
        ff: &mut [f32],
        out: &mut [f32],
    ) {
        let (d, d_ff) = (self.cfg.d_model, self.cfg.d_ff);
        let w = |p: ParamId| self.store.value(p);
        rows_matmul_into(ids, xn, w(p.w1), ff);
        for &a in ids {
            let f = &mut ff[a * d_ff..(a + 1) * d_ff];
            add_assign(f, w(p.b1).as_slice());
            for v in f.iter_mut() {
                *v = v.max(0.0);
            }
        }
        rows_matmul_into(ids, ff, w(p.w2), out);
        for &a in ids {
            add_assign(&mut out[a * d..(a + 1) * d], w(p.b2).as_slice());
        }
    }

    /// `a · w` as a new tensor with one row per row of `a` (listed in
    /// `ids` as `0..n`, at stride `w.rows`), on the k-tiled loop.
    fn project(&self, ids: &[usize], a: &[f32], w: ParamId) -> Tensor {
        let w = self.store.value(w);
        let mut out = vec![0.0f32; ids.len() * w.cols];
        rows_matmul_into(ids, a, w, &mut out);
        Tensor::from_vec(ids.len(), w.cols, out)
    }

    /// Forward-only encoder pass (no autograd tape), one row per source
    /// position; bit-identical to the graph path's `encode`. Every weight
    /// product runs on [`rows_matmul_into`]'s k-tiled loop, so each weight
    /// matrix streams once for the whole source.
    pub(crate) fn encode_fwd(&self, src: &[usize]) -> Tensor {
        let cfg = &self.cfg;
        let (n, d) = (src.len(), cfg.d_model);
        let dh = d / cfg.n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let ids: Vec<usize> = (0..n).collect();
        let w = |p: ParamId| self.store.value(p);
        let mut x = vec![0.0f32; n * d];
        for (r, &id) in src.iter().enumerate() {
            let te = w(self.tok_emb).row(id);
            let pe = w(self.pos_emb).row(r.min(cfg.max_len - 1));
            for (c, o) in x[r * d..(r + 1) * d].iter_mut().enumerate() {
                *o = te[c] + pe[c];
            }
        }
        let (mut xn, mut heads, mut tmp) = (vec![0.0; n * d], vec![0.0; n * d], vec![0.0; n * d]);
        let (mut q, mut ff, mut scores) =
            (vec![0.0; n * dh], vec![0.0; n * cfg.d_ff], vec![0.0; n]);
        for layer in &self.enc_layers {
            // Unmasked self-attention: every row attends over every row.
            self.norm_rows(&layer.ln1, &ids, &x, &mut xn);
            let p = &layer.attn;
            for h in 0..cfg.n_heads {
                let (k, v) = (
                    self.project(&ids, &xn, p.wk[h]),
                    self.project(&ids, &xn, p.wv[h]),
                );
                rows_matmul_into(&ids, &xn, w(p.wq[h]), &mut q);
                for r in 0..n {
                    let out = &mut heads[r * d + h * dh..r * d + (h + 1) * dh];
                    attend(&q[r * dh..(r + 1) * dh], &k, &v, n, scale, &mut scores, out);
                }
            }
            rows_matmul_into(&ids, &heads, w(p.wo), &mut tmp);
            add_rows(&ids, d, &mut x, &tmp);
            self.norm_rows(&layer.ln2, &ids, &x, &mut xn);
            self.feed_forward_rows(&layer.ff, &ids, &xn, &mut ff, &mut tmp);
            add_rows(&ids, d, &mut x, &tmp);
        }
        Tensor::from_vec(n, d, x)
    }
}

// ---------------------------------------------------------------------------
// Transformer fast path: one decoder forward over rows
// ---------------------------------------------------------------------------

/// One session's decoder cache, for a [`DecodeState`] or a fork of one:
/// encoder-derived cross-attention K/V (fixed) and self-attention K/V that
/// grow by one row per fed position.
#[derive(Default)]
struct KvCache {
    /// `[layer][head]`: encoder keys/values (`enc_len × d_head`), fixed and
    /// shared by every fork of the session.
    cross_k: Arc<Vec<Vec<Tensor>>>,
    cross_v: Arc<Vec<Vec<Tensor>>>,
    /// `[layer][head]`: cached self-attention keys/values, one row per
    /// decoded position (pre-reserved to `max_len` rows).
    self_k: Vec<Vec<Tensor>>,
    self_v: Vec<Vec<Tensor>>,
    /// Positions fed so far.
    len: usize,
}

impl KvCache {
    /// Makes this cache a fork of `from`: the same cross-attention K/V and
    /// a copy of `from`'s self-attention rows, reusing this cache's row
    /// capacity.
    fn fork_from(&mut self, from: &KvCache) {
        self.cross_k = Arc::clone(&from.cross_k);
        self.cross_v = Arc::clone(&from.cross_v);
        let pairs = self.self_k.iter_mut().zip(&from.self_k);
        for (dst, src) in pairs.chain(self.self_v.iter_mut().zip(&from.self_v)) {
            for (dst, src) in dst.iter_mut().zip(src) {
                dst.truncate_rows(0);
                for r in 0..src.rows {
                    dst.push_row(src.row(r));
                }
            }
        }
        self.len = from.len;
    }
}

/// One row of a decoder forward: `token` fed at position `pos` of session
/// cache `cache`, computed in scratch row `at`.
#[derive(Clone, Copy)]
struct Row {
    cache: usize,
    pos: usize,
    token: usize,
    at: usize,
}

/// Scratch for [`Transformer::decode_rows`]: one row per scratch index at
/// the natural stride of each buffer, grown lazily to the largest index
/// used, so the steady-state decode loop allocates nothing.
#[derive(Default)]
struct Scratch {
    /// The rows of the next forward, set by the caller.
    rows: Vec<Row>,
    /// `rows`' scratch indices, in row order.
    ids: Vec<usize>,
    x: Vec<f32>,
    xn: Vec<f32>,
    q: Vec<f32>,
    kv: Vec<f32>,
    heads: Vec<f32>,
    tmp_d: Vec<f32>,
    ff: Vec<f32>,
    logits: Vec<f32>,
    /// One attention row, reused by every row and head in turn.
    scores: Vec<f32>,
}

impl Scratch {
    /// Grows every buffer to hold scratch rows `0..n`.
    fn ensure(&mut self, cfg: &TransformerConfig, n: usize) {
        let d = cfg.d_model;
        let dh = d / cfg.n_heads;
        for (v, width) in [
            (&mut self.x, d),
            (&mut self.xn, d),
            (&mut self.q, dh),
            (&mut self.kv, dh),
            (&mut self.heads, d),
            (&mut self.tmp_d, d),
            (&mut self.ff, cfg.d_ff),
            (&mut self.logits, cfg.vocab),
        ] {
            grow(v, n * width);
        }
        grow(&mut self.scores, cfg.max_len);
    }
}

impl Transformer {
    /// Encodes `src` (clamped to `max_len`) into a fresh session cache: the
    /// encoder runs once (counted in `decode.encoder_runs`), each decoder
    /// layer's cross-attention K/V is projected once, and the
    /// self-attention caches are reserved to `max_len` rows.
    fn encode_cache(&self, src: &[usize]) -> KvCache {
        let src = &src[..src.len().min(self.cfg.max_len)];
        vega_obs::global().counter_add("decode.encoder_runs", 1);
        let enc = self.encode_fwd(src);
        let ids: Vec<usize> = (0..enc.rows).collect();
        let project = |ws: &[ParamId]| -> Vec<Tensor> {
            ws.iter()
                .map(|&w| self.project(&ids, enc.as_slice(), w))
                .collect()
        };
        let (mut cross_k, mut cross_v) = (Vec::new(), Vec::new());
        for layer in &self.dec_layers {
            cross_k.push(project(&layer.cross_attn.wk));
            cross_v.push(project(&layer.cross_attn.wv));
        }
        KvCache {
            cross_k: Arc::new(cross_k),
            cross_v: Arc::new(cross_v),
            ..self.empty_cache()
        }
    }

    /// A cache with no cross-attention K/V and empty self-attention
    /// caches, reserved to `max_len` rows per layer and head.
    fn empty_cache(&self) -> KvCache {
        let dh = self.cfg.d_model / self.cfg.n_heads;
        let empty = || -> Vec<Vec<Tensor>> {
            let heads = || {
                (0..self.cfg.n_heads)
                    .map(|_| Tensor::with_row_capacity(dh, self.cfg.max_len))
                    .collect()
            };
            self.dec_layers.iter().map(|_| heads()).collect()
        };
        KvCache {
            self_k: empty(),
            self_v: empty(),
            ..KvCache::default()
        }
    }

    /// The decoder forward behind every transformer decode path: feeds each
    /// of `sc.rows` through every decoder layer and the logits projection,
    /// leaving row `r`'s logits in scratch row `r.at`.
    ///
    /// Per layer and head, every row's self-attention K/V is appended to its
    /// session cache (in row order) before any row attends, and row `r` then
    /// attends over the first `r.pos + 1` positions of its cache. So a
    /// session's rows must be listed at ascending positions starting at its
    /// length; its later rows exist in the cache but are never read, exactly
    /// as the graph path's `-1e9` mask zeroes them out, and every row is
    /// bit-identical to feeding its session one token at a time.
    ///
    /// No rows is a no-op.
    ///
    /// # Panics
    /// Panics if a row's position is at or past `max_len` (the graph path
    /// would index the positional table out of range at the same point).
    fn decode_rows(&self, wt: &Tensor, caches: &mut [KvCache], sc: &mut Scratch) {
        if sc.rows.is_empty() {
            return;
        }
        let cfg = &self.cfg;
        let d = cfg.d_model;
        let dh = d / cfg.n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut n = 0;
        for r in &sc.rows {
            assert!(r.pos < cfg.max_len, "decode past max_len");
            n = n.max(r.at + 1);
        }
        sc.ensure(cfg, n);
        let Scratch {
            rows,
            ids,
            x,
            xn,
            q,
            kv,
            heads,
            tmp_d,
            ff,
            logits,
            scores,
        } = sc;
        ids.clear();
        ids.extend(rows.iter().map(|r| r.at));
        let ids: &[usize] = ids;
        let w = |p: ParamId| self.store.value(p);
        // Token + positional embedding per row.
        for r in rows.iter() {
            let (te, pe) = (w(self.tok_emb).row(r.token), w(self.pos_emb).row(r.pos));
            for (c, o) in x[r.at * d..(r.at + 1) * d].iter_mut().enumerate() {
                *o = te[c] + pe[c];
            }
        }
        let head = |h: usize, a: usize| a * d + h * dh..a * d + (h + 1) * dh;
        for (l, layer) in self.dec_layers.iter().enumerate() {
            // Self-attention: append every row's K/V, then attend each row
            // over its own causal prefix.
            self.norm_rows(&layer.ln1, ids, x, xn);
            let p = &layer.self_attn;
            for h in 0..cfg.n_heads {
                rows_matmul_into(ids, xn, w(p.wq[h]), q);
                rows_matmul_into(ids, xn, w(p.wk[h]), kv);
                for r in rows.iter() {
                    caches[r.cache].self_k[l][h].push_row(&kv[r.at * dh..(r.at + 1) * dh]);
                }
                rows_matmul_into(ids, xn, w(p.wv[h]), kv);
                for r in rows.iter() {
                    caches[r.cache].self_v[l][h].push_row(&kv[r.at * dh..(r.at + 1) * dh]);
                }
                for r in rows.iter() {
                    let c = &caches[r.cache];
                    let (k, v) = (&c.self_k[l][h], &c.self_v[l][h]);
                    let q = &q[r.at * dh..(r.at + 1) * dh];
                    attend(q, k, v, r.pos + 1, scale, scores, &mut heads[head(h, r.at)]);
                }
            }
            rows_matmul_into(ids, heads, w(p.wo), tmp_d);
            add_rows(ids, d, x, tmp_d);
            // Cross-attention against each session's fixed encoder K/V.
            self.norm_rows(&layer.ln2, ids, x, xn);
            let p = &layer.cross_attn;
            for h in 0..cfg.n_heads {
                rows_matmul_into(ids, xn, w(p.wq[h]), q);
                for r in rows.iter() {
                    let c = &caches[r.cache];
                    let (k, v) = (&c.cross_k[l][h], &c.cross_v[l][h]);
                    let q = &q[r.at * dh..(r.at + 1) * dh];
                    attend(q, k, v, k.rows, scale, scores, &mut heads[head(h, r.at)]);
                }
            }
            rows_matmul_into(ids, heads, w(p.wo), tmp_d);
            add_rows(ids, d, x, tmp_d);
            // Feed-forward.
            self.norm_rows(&layer.ln3, ids, x, xn);
            self.feed_forward_rows(&layer.ff, ids, xn, ff, tmp_d);
            add_rows(ids, d, x, tmp_d);
        }
        self.norm_rows(&self.final_ln, ids, x, xn);
        project_logits(ids, xn, w(self.w_out), wt, w(self.b_out).as_slice(), logits);
        for r in rows.iter() {
            caches[r.cache].len += 1;
        }
    }

    /// Starts an incremental decode session over `src` (clamped to
    /// `max_len`): encodes once and projects every decoder layer's
    /// cross-attention K/V once. Subsequent [`DecodeState::step`] calls cost
    /// one token-row pass through the decoder instead of a full-prefix
    /// re-run. Each call is one encoder pass, counted in
    /// `decode.encoder_runs`.
    pub fn begin_decode(&self, src: &[usize]) -> DecodeState<'_> {
        DecodeState {
            model: self,
            wt: self.out_proj_t(),
            cache: self.encode_cache(src),
            forks: Vec::new(),
            sc: Scratch::default(),
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
/// [`DecodeState::greedy`] and [`DecodeState::forced_logprobs`] each
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
    cache: KvCache,
    /// Forks of `cache` for [`DecodeState::forced_logprobs`], one per
    /// candidate that runs past the shared prefix; grown lazily to the
    /// largest call and reused.
    forks: Vec<KvCache>,
    sc: Scratch,
}

impl DecodeState<'_> {
    /// Number of tokens fed so far.
    pub fn len(&self) -> usize {
        self.cache.len
    }

    /// True before the first [`DecodeState::step`].
    pub fn is_empty(&self) -> bool {
        self.cache.len == 0
    }

    /// Feeds `token` at the next position and returns the logits row for it —
    /// bit-identical to the last row of the graph path's full-prefix decode,
    /// at one token-row of work per layer instead of a full-prefix re-run.
    ///
    /// # Panics
    /// Panics if more than `max_len` tokens are fed (the graph path would
    /// index the positional table out of range at the same point).
    pub fn step(&mut self, token: usize) -> &[f32] {
        self.step_many(&[token])
    }

    /// Feeds `tokens` at the next `tokens.len()` positions in **one**
    /// causal-masked multi-position pass and returns their logits rows,
    /// flattened (`tokens.len() × vocab`, row `i` for `tokens[i]`).
    ///
    /// Bit-identical to calling [`DecodeState::step`] once per token: it is
    /// the same decoder forward with one row per token, every weight matrix
    /// is read once for the whole chunk, and each position attends only over
    /// its causal prefix of the shared cache. This is the one-pass prefill
    /// of forced scoring's shared prefix; per-position cost amortizes every
    /// weight read over the chunk.
    ///
    /// # Panics
    /// Panics if the chunk would run past `max_len`.
    pub fn step_many(&mut self, tokens: &[usize]) -> &[f32] {
        let len = self.cache.len;
        self.sc.rows.clear();
        self.sc
            .rows
            .extend(tokens.iter().enumerate().map(|(i, &token)| Row {
                cache: 0,
                pos: len + i,
                token,
                at: i,
            }));
        let caches = std::slice::from_mut(&mut self.cache);
        self.model.decode_rows(&self.wt, caches, &mut self.sc);
        &self.sc.logits[..tokens.len() * self.model.cfg.vocab]
    }

    /// Rolls back to the just-encoded state: every decoded position's
    /// self-attention K/V rows are dropped (their capacity is kept), the
    /// encoder-derived cross-attention K/V stay.
    pub fn reset(&mut self) {
        let c = &mut self.cache;
        for layer in c.self_k.iter_mut().chain(c.self_v.iter_mut()) {
            for cache in layer.iter_mut() {
                cache.truncate_rows(0);
            }
        }
        c.len = 0;
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
    /// one-pair case of [`DecodeState::forced_logprobs`]: the whole input is
    /// the shared prefix, fed in one pass on the session cache.
    ///
    /// [`Seq2Seq::forced_logprob`]: crate::Seq2Seq::forced_logprob
    pub fn forced_logprob(&mut self, tgt_in: &[usize], tgt_out: &[usize]) -> f32 {
        self.forced_logprobs(&[(tgt_in, tgt_out)])[0]
    }

    /// Teacher-forced log-probabilities of many `(tgt_in, tgt_out)` pairs
    /// from the just-encoded state, in pair order, in one decoder forward
    /// over all candidates. Each score is bit-identical to
    /// [`DecodeState::forced_logprob`] on that pair alone (pairs clamp to
    /// `max_len` the same way); an empty list returns an empty result and
    /// runs no forward.
    ///
    /// The pairs' longest common decoder-input prefix is fed once, on the
    /// session cache. Every pair that runs past it gets a fork of the cache
    /// (the cross-attention K/V shared, the prefix's self-attention rows
    /// copied), and all their remaining positions are rows of one more
    /// forward, so each weight matrix streams twice per call instead of
    /// once per pair. The prefix's logits rows serve every pair and each
    /// row's softmax runs once; each pair then sums its positions in order.
    ///
    /// Memory: the fork pool and the scratch grow lazily to the largest
    /// call and are reused — at most one fork per pair and one scratch row
    /// per fed position, so `pairs.len() × max_len` rows at most.
    pub fn forced_logprobs<P: AsRef<[usize]>>(&mut self, pairs: &[(P, P)]) -> Vec<f32> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let (vocab, max_len) = (self.model.cfg.vocab, self.model.cfg.max_len);
        let pairs: Vec<(&[usize], &[usize])> = pairs
            .iter()
            .map(|(i, o)| crate::seq2seq::clamp_forced(i.as_ref(), o.as_ref(), max_len))
            .collect();
        let first = pairs[0].0;
        let shared = pairs.iter().fold(first.len(), |n, (tin, _)| {
            tin.iter()
                .zip(&first[..n])
                .take_while(|(a, b)| a == b)
                .count()
        });
        // The shared prefix, in scratch rows 0..shared of the session.
        self.reset();
        self.step_many(&first[..shared]);
        // Every pair's tail, on its own fork, in the scratch rows after.
        let mut tails = Vec::with_capacity(pairs.len());
        let (mut at, mut forks) = (shared, 0);
        self.sc.rows.clear();
        for (tin, _) in &pairs {
            tails.push(at);
            if tin.len() == shared {
                continue;
            }
            if forks == self.forks.len() {
                self.forks.push(self.model.empty_cache());
            }
            self.forks[forks].fork_from(&self.cache);
            let rows = tin[shared..].iter().enumerate().map(|(i, &token)| Row {
                cache: forks,
                pos: shared + i,
                token,
                at: at + i,
            });
            self.sc.rows.extend(rows);
            at += tin.len() - shared;
            forks += 1;
        }
        let caches = &mut self.forks[..forks];
        self.model.decode_rows(&self.wt, caches, &mut self.sc);
        let logits = &mut self.sc.logits[..at * vocab];
        for row in logits.chunks_exact_mut(vocab) {
            softmax_row(row);
        }
        let scores = pairs
            .iter()
            .zip(&tails)
            .map(|((_, tgt_out), &tail)| {
                let mut lp = 0.0f32;
                for (r, &to) in tgt_out.iter().enumerate() {
                    let row = if r < shared { r } else { tail + r - shared };
                    lp += logits[row * vocab + to].max(1e-12).ln();
                }
                lp
            })
            .collect();
        count_scored(pairs.iter().map(|(_, o)| o.len()).sum(), at);
        scores
    }
}

// ---------------------------------------------------------------------------
// GRU fast path: one cell
// ---------------------------------------------------------------------------

/// Scratch for [`GruSeq2Seq::cell`] and the GRU logits, allocated once per
/// state and reused by every step.
struct GruScratch {
    /// The cell input `[x, h]`, then `[x, r ⊙ h]`.
    xin: Vec<f32>,
    z: Vec<f32>,
    r: Vec<f32>,
    hcand: Vec<f32>,
    logits: Vec<f32>,
}

impl GruScratch {
    fn new(cfg: &GruConfig) -> Self {
        let d = cfg.d_model;
        GruScratch {
            xin: vec![0.0; 2 * d],
            z: vec![0.0; d],
            r: vec![0.0; d],
            hcand: vec![0.0; d],
            logits: vec![0.0; cfg.vocab],
        }
    }
}

/// Adds `bias` to `out` and applies `f` elementwise: one GRU gate's
/// activation.
fn gate(out: &mut [f32], bias: &[f32], f: impl Fn(f32) -> f32) {
    add_assign(out, bias);
    for v in out.iter_mut() {
        *v = f(*v);
    }
}

impl GruSeq2Seq {
    /// The GRU cell behind every GRU path (the encoder pass and
    /// [`GruDecodeState::step`]): `h ← cell(emb[token], h)`, replaying the
    /// graph path's `cell_step` op sequence bit for bit. `h` is one hidden
    /// row of width `d_model`.
    fn cell(&self, cell: &GruCell, token: usize, h: &mut [f32], sc: &mut GruScratch) {
        let d = self.cfg.d_model;
        let w = |p: ParamId| self.store.value(p);
        let GruScratch {
            xin, z, r, hcand, ..
        } = sc;
        xin[..d].copy_from_slice(w(self.emb).row(token));
        xin[d..].copy_from_slice(h);
        let sigmoid = |v: f32| 1.0 / (1.0 + (-v).exp());
        row_matmul_into(xin, w(cell.wz), z);
        gate(z, w(cell.bz).as_slice(), sigmoid);
        row_matmul_into(xin, w(cell.wr), r);
        gate(r, w(cell.br).as_slice(), sigmoid);
        // The candidate reads [x, r ⊙ h]; x is still in place.
        for i in 0..d {
            xin[d + i] = r[i] * h[i];
        }
        row_matmul_into(xin, w(cell.wh), hcand);
        gate(hcand, w(cell.bh).as_slice(), f32::tanh);
        // h' = (1 - z) ⊙ h + z ⊙ ĥ, associated exactly as the graph ops are:
        // keep = (−z + 1) ⊙ h, new = z ⊙ ĥ, h' = keep + new.
        for ((h, &z), &hc) in h.iter_mut().zip(z.iter()).zip(hcand.iter()) {
            let keep = (z * -1.0 + 1.0) * *h;
            let new = z * hc;
            *h = keep + new;
        }
    }

    /// Runs the encoder over `src` (clamped to `max_len`) from a zero hidden
    /// state into `h`: one encoder pass, counted in `decode.encoder_runs`.
    fn encode_into(&self, src: &[usize], h: &mut [f32], sc: &mut GruScratch) {
        let src = &src[..src.len().min(self.cfg.max_len)];
        vega_obs::global().counter_add("decode.encoder_runs", 1);
        h.fill(0.0);
        for &id in src {
            self.cell(&self.enc, id, h, sc);
        }
    }

    /// One decoder step: the decoder cell on `token`, then its logits into
    /// `sc.logits`.
    fn decode_step(&self, wt: &Tensor, token: usize, h: &mut [f32], sc: &mut GruScratch) {
        self.cell(&self.dec, token, h, sc);
        let (w, b) = (self.store.value(self.w_out), self.store.value(self.b_out));
        project_logits(&[0], h, w, wt, b.as_slice(), &mut sc.logits);
    }

    /// Starts an incremental GRU decode over `src` (clamped to `max_len`):
    /// runs the encoder once and seeds the decoder hidden state, which is
    /// then carried across [`GruDecodeState::step`] calls instead of being
    /// recomputed from scratch per token on a fresh graph. Each call is one
    /// encoder pass, counted in `decode.encoder_runs`.
    pub fn begin_decode(&self, src: &[usize]) -> GruDecodeState<'_> {
        let mut h = vec![0.0; self.cfg.d_model];
        let mut sc = GruScratch::new(&self.cfg);
        self.encode_into(src, &mut h, &mut sc);
        GruDecodeState {
            model: self,
            wt: self.out_proj_t(),
            h0: h.clone(),
            h,
            sc,
        }
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
    sc: GruScratch,
}

impl GruDecodeState<'_> {
    /// Feeds `token` through the decoder cell and returns its logits row —
    /// bit-identical to the last row of the graph path's full-prefix decode.
    pub fn step(&mut self, token: usize) -> &[f32] {
        self.model
            .decode_step(&self.wt, token, &mut self.h, &mut self.sc);
        &self.sc.logits[..self.model.cfg.vocab]
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
    /// [`DecodeState::forced_logprob`]): the one-pair case of
    /// [`GruDecodeState::forced_logprobs`].
    pub fn forced_logprob(&mut self, tgt_in: &[usize], tgt_out: &[usize]) -> f32 {
        self.forced_logprobs(&[(tgt_in, tgt_out)])[0]
    }

    /// Teacher-forced log-probabilities of many pairs from the just-encoded
    /// state, in pair order (see [`DecodeState::forced_logprobs`]): one pair
    /// after another, each from a [`reset`](GruDecodeState::reset) and one
    /// recurrent step per position. No batching across pairs.
    pub fn forced_logprobs<P: AsRef<[usize]>>(&mut self, pairs: &[(P, P)]) -> Vec<f32> {
        let (vocab, max_len) = (self.model.cfg.vocab, self.model.cfg.max_len);
        pairs
            .iter()
            .map(|(tgt_in, tgt_out)| {
                self.reset();
                let (tgt_in, tgt_out) =
                    crate::seq2seq::clamp_forced(tgt_in.as_ref(), tgt_out.as_ref(), max_len);
                forced_sum(vocab, tgt_out, |r, probs| {
                    probs.copy_from_slice(self.step(tgt_in[r]));
                })
            })
            .collect()
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
    fn rows_matmul_matches_row_kernel_bitwise() {
        // kdim 12 = one K_TILE block plus a 4-row tail.
        let b = Tensor::from_vec(12, 3, (0..36).map(|i| i as f32 * 0.3 - 5.0).collect());
        // Three scratch rows at stride 12: row 1 has no zeros (fused tile
        // path), rows 0 and 2 hold zeros (zero-skip path). Listing all three
        // runs the k-tiled loop; listing one runs the per-k loop.
        let a: Vec<f32> = (0..36)
            .map(|i| {
                if i % 5 == 0 && i / 12 != 1 {
                    0.0
                } else {
                    (i as f32 * 0.37).sin() + 0.1
                }
            })
            .collect();
        for rows in [&[2, 0, 1][..], &[1]] {
            let mut out = vec![7.0f32; 3 * 3];
            rows_matmul_into(rows, &a, &b, &mut out);
            for &s in rows {
                let mut single = vec![0.0f32; 3];
                row_matmul_into(&a[s * 12..(s + 1) * 12], &b, &mut single);
                for (x, y) in out[s * 3..(s + 1) * 3].iter().zip(&single) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }
}
