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
//! # One forward
//!
//! Every transformer decode path runs the same decoder forward over *rows*.
//! A row is a session's K/V cache, a position in it, the token fed there
//! and a scratch row to compute in. [`DecodeState::step`] is one row,
//! [`DecodeState::step_many`] is one row per token of one session, and a
//! [`BatchDecodeState`] step is one row per fed slot. The GRU paths (the
//! encoder pass, [`GruDecodeState::step`] and the batch step) share one
//! GRU cell over rows in the same way, and every path, the graph
//! references included, shares one logits projection.
//!
//! The row count picks the loop, never the result. One row takes the
//! per-`k` [`row_matmul_into`] and the row-major dot-form logits loop;
//! several rows take the k-tiled loop, which streams each weight matrix
//! once for all of them, and the weight-major logits loop. Per row both
//! are the same f32 operations in the same order.
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
use crate::transformer::{AttnParams, FfParams, LnParams, Transformer, TransformerConfig};
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
}

// ---------------------------------------------------------------------------
// Transformer fast path: one decoder forward over rows
// ---------------------------------------------------------------------------

/// One session's decoder cache, for a [`DecodeState`] or a batch slot:
/// encoder-derived cross-attention K/V (fixed) and self-attention K/V that
/// grow by one row per fed position.
#[derive(Default)]
struct KvCache {
    /// `[layer][head]`: encoder keys/values (`enc_len × d_head`), fixed.
    cross_k: Vec<Vec<Tensor>>,
    cross_v: Vec<Vec<Tensor>>,
    /// `[layer][head]`: cached self-attention keys/values, one row per
    /// decoded position (pre-reserved to `max_len` rows).
    self_k: Vec<Vec<Tensor>>,
    self_v: Vec<Vec<Tensor>>,
    /// Positions fed so far.
    len: usize,
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
        let cross = |ws: &[ParamId]| -> Vec<Tensor> {
            ws.iter()
                .map(|&w| enc.matmul(self.store.value(w), false))
                .collect()
        };
        let dh = self.cfg.d_model / self.cfg.n_heads;
        let empty = || -> Vec<Tensor> {
            let rows = self.cfg.max_len;
            (0..self.cfg.n_heads)
                .map(|_| Tensor::with_row_capacity(dh, rows))
                .collect()
        };
        let mut c = KvCache::default();
        for layer in &self.dec_layers {
            c.cross_k.push(cross(&layer.cross_attn.wk));
            c.cross_v.push(cross(&layer.cross_attn.wv));
            c.self_k.push(empty());
            c.self_v.push(empty());
        }
        c
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
    /// # Panics
    /// Panics if a row's position is at or past `max_len` (the graph path
    /// would index the positional table out of range at the same point).
    fn decode_rows(&self, wt: &Tensor, caches: &mut [KvCache], sc: &mut Scratch) {
        let cfg = &self.cfg;
        let d = cfg.d_model;
        let dh = d / cfg.n_heads;
        let d_ff = cfg.d_ff;
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
        let norm = |p: &LnParams, x: &[f32], xn: &mut [f32]| {
            let (g, b) = (w(p.gain).as_slice(), w(p.bias).as_slice());
            for &a in ids {
                layer_norm_row(&x[a * d..(a + 1) * d], g, b, &mut xn[a * d..(a + 1) * d]);
            }
        };
        let residual = |x: &mut [f32], y: &[f32]| {
            for &a in ids {
                add_assign(&mut x[a * d..(a + 1) * d], &y[a * d..(a + 1) * d]);
            }
        };
        // One head's attention for one row: `out = softmax(q · kᵀ · scale) · v`
        // over the first `n` rows of `k` and `v`.
        let mut attend = |q: &[f32], k: &Tensor, v: &Tensor, n: usize, out: &mut [f32]| {
            let scores = &mut scores[..n];
            for (j, sc) in scores.iter_mut().enumerate() {
                *sc = dot(q, k.row(j)) * scale;
            }
            softmax_row(scores);
            row_matmul_into(scores, v, out);
        };
        let head = |h: usize, a: usize| a * d + h * dh..a * d + (h + 1) * dh;
        for (l, layer) in self.dec_layers.iter().enumerate() {
            // Self-attention: append every row's K/V, then attend each row
            // over its own causal prefix.
            norm(&layer.ln1, x, xn);
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
                    attend(q, k, v, r.pos + 1, &mut heads[head(h, r.at)]);
                }
            }
            rows_matmul_into(ids, heads, w(p.wo), tmp_d);
            residual(x, tmp_d);
            // Cross-attention against each session's fixed encoder K/V.
            norm(&layer.ln2, x, xn);
            let p = &layer.cross_attn;
            for h in 0..cfg.n_heads {
                rows_matmul_into(ids, xn, w(p.wq[h]), q);
                for r in rows.iter() {
                    let c = &caches[r.cache];
                    let (k, v) = (&c.cross_k[l][h], &c.cross_v[l][h]);
                    let q = &q[r.at * dh..(r.at + 1) * dh];
                    attend(q, k, v, k.rows, &mut heads[head(h, r.at)]);
                }
            }
            rows_matmul_into(ids, heads, w(p.wo), tmp_d);
            residual(x, tmp_d);
            // Feed-forward.
            norm(&layer.ln3, x, xn);
            rows_matmul_into(ids, xn, w(layer.ff.w1), ff);
            for &a in ids {
                let f = &mut ff[a * d_ff..(a + 1) * d_ff];
                add_assign(f, w(layer.ff.b1).as_slice());
                for v in f.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            rows_matmul_into(ids, ff, w(layer.ff.w2), tmp_d);
            for &a in ids {
                add_assign(&mut tmp_d[a * d..(a + 1) * d], w(layer.ff.b2).as_slice());
            }
            residual(x, tmp_d);
        }
        norm(&self.final_ln, x, xn);
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
    cache: KvCache,
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
    /// its causal prefix of the shared cache. This is the verify pass of
    /// speculative decoding and the one-pass prompt prefill for forced
    /// scoring; per-position cost amortizes every weight read over the chunk.
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
        assert!(len <= self.cache.len, "truncate beyond current length");
        let c = &mut self.cache;
        for layer in c.self_k.iter_mut().chain(c.self_v.iter_mut()) {
            for cache in layer.iter_mut() {
                cache.truncate_rows(len);
            }
        }
        c.len = len;
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
// GRU fast path: one cell over rows
// ---------------------------------------------------------------------------

/// Scratch for [`GruSeq2Seq::cell_rows`] and the GRU logits, one row per
/// hidden row at the natural stride of each buffer, grown lazily like
/// [`Scratch`].
#[derive(Default)]
struct GruScratch {
    /// The hidden rows the last cell update fed, in feed order.
    ids: Vec<usize>,
    /// Cell input rows `[x, h]`, then `[x, r ⊙ h]`.
    xin: Vec<f32>,
    z: Vec<f32>,
    r: Vec<f32>,
    hcand: Vec<f32>,
    logits: Vec<f32>,
}

impl GruScratch {
    /// Grows every buffer to hold rows `0..n`.
    fn ensure(&mut self, cfg: &GruConfig, n: usize) {
        let d = cfg.d_model;
        for (v, width) in [
            (&mut self.xin, 2 * d),
            (&mut self.z, d),
            (&mut self.r, d),
            (&mut self.hcand, d),
            (&mut self.logits, cfg.vocab),
        ] {
            grow(v, n * width);
        }
    }
}

/// Adds `bias` to each listed row of `out` (stride `bias.len()`) and
/// applies `f` elementwise: one GRU gate's activation.
fn gate(rows: &[usize], out: &mut [f32], bias: &[f32], f: impl Fn(f32) -> f32) {
    let d = bias.len();
    for &s in rows {
        let o = &mut out[s * d..(s + 1) * d];
        add_assign(o, bias);
        for v in o.iter_mut() {
            *v = f(*v);
        }
    }
}

impl GruSeq2Seq {
    /// The GRU cell behind every GRU path (the encoder pass,
    /// [`GruDecodeState::step`] and the batch step): for each `(row, token)`
    /// in `feeds`, `h[row] ← cell(emb[token], h[row])`, replaying the graph
    /// path's `cell_step` op sequence bit for bit per row. `h` holds one
    /// hidden row of width `d_model` per row index; the fed rows are left in
    /// `sc.ids`.
    fn cell_rows(
        &self,
        cell: &GruCell,
        feeds: &[(usize, usize)],
        h: &mut [f32],
        sc: &mut GruScratch,
    ) {
        let d = self.cfg.d_model;
        sc.ensure(&self.cfg, h.len() / d);
        sc.ids.clear();
        sc.ids.extend(feeds.iter().map(|&(s, _)| s));
        let w = |p: ParamId| self.store.value(p);
        for &(s, token) in feeds {
            let xin = &mut sc.xin[s * 2 * d..(s + 1) * 2 * d];
            xin[..d].copy_from_slice(w(self.emb).row(token));
            xin[d..].copy_from_slice(&h[s * d..(s + 1) * d]);
        }
        let sigmoid = |v: f32| 1.0 / (1.0 + (-v).exp());
        rows_matmul_into(&sc.ids, &sc.xin, w(cell.wz), &mut sc.z);
        gate(&sc.ids, &mut sc.z, w(cell.bz).as_slice(), sigmoid);
        rows_matmul_into(&sc.ids, &sc.xin, w(cell.wr), &mut sc.r);
        gate(&sc.ids, &mut sc.r, w(cell.br).as_slice(), sigmoid);
        // The candidate reads [x, r ⊙ h]; x is still in place.
        for &s in &sc.ids {
            for i in 0..d {
                sc.xin[s * 2 * d + d + i] = sc.r[s * d + i] * h[s * d + i];
            }
        }
        rows_matmul_into(&sc.ids, &sc.xin, w(cell.wh), &mut sc.hcand);
        gate(&sc.ids, &mut sc.hcand, w(cell.bh).as_slice(), f32::tanh);
        // h' = (1 - z) ⊙ h + z ⊙ ĥ, associated exactly as the graph ops are:
        // keep = (−z + 1) ⊙ h, new = z ⊙ ĥ, h' = keep + new.
        for &s in &sc.ids {
            let row = s * d..(s + 1) * d;
            let (z, hc) = (&sc.z[row.clone()], &sc.hcand[row.clone()]);
            for ((h, &z), &hc) in h[row].iter_mut().zip(z).zip(hc) {
                let keep = (z * -1.0 + 1.0) * *h;
                let new = z * hc;
                *h = keep + new;
            }
        }
    }

    /// Runs the encoder over `src` (clamped to `max_len`) from a zero hidden
    /// state into row `row` of `h`: one encoder pass, counted in
    /// `decode.encoder_runs`.
    fn encode_into(&self, src: &[usize], row: usize, h: &mut [f32], sc: &mut GruScratch) {
        let src = &src[..src.len().min(self.cfg.max_len)];
        vega_obs::global().counter_add("decode.encoder_runs", 1);
        let d = self.cfg.d_model;
        h[row * d..(row + 1) * d].fill(0.0);
        for &id in src {
            self.cell_rows(&self.enc, &[(row, id)], h, sc);
        }
    }

    /// One decoder step over rows: the decoder cell, then the logits of
    /// every fed row into `sc.logits`.
    fn decode_rows(
        &self,
        wt: &Tensor,
        feeds: &[(usize, usize)],
        h: &mut [f32],
        sc: &mut GruScratch,
    ) {
        self.cell_rows(&self.dec, feeds, h, sc);
        let (w, b) = (self.store.value(self.w_out), self.store.value(self.b_out));
        project_logits(&sc.ids, h, w, wt, b.as_slice(), &mut sc.logits);
    }

    /// Starts an incremental GRU decode over `src` (clamped to `max_len`):
    /// runs the encoder once and seeds the decoder hidden state, which is
    /// then carried across [`GruDecodeState::step`] calls instead of being
    /// recomputed from scratch per token on a fresh graph. Each call is one
    /// encoder pass, counted in `decode.encoder_runs`.
    pub fn begin_decode(&self, src: &[usize]) -> GruDecodeState<'_> {
        let mut st = GruDecodeState {
            model: self,
            wt: self.out_proj_t(),
            h: vec![0.0; self.cfg.d_model],
            h0: Vec::new(),
            sc: GruScratch::default(),
        };
        self.encode_into(src, 0, &mut st.h, &mut st.sc);
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
    sc: GruScratch,
}

impl GruDecodeState<'_> {
    /// Feeds `token` through the decoder cell and returns its logits row —
    /// bit-identical to the last row of the graph path's full-prefix decode.
    pub fn step(&mut self, token: usize) -> &[f32] {
        self.model
            .decode_rows(&self.wt, &[(0, token)], &mut self.h, &mut self.sc);
        &self.sc.logits[..self.model.cfg.vocab]
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

/// Asserts `feeds` is a valid step: every fed slot is live and none is
/// listed twice (`seen` is a scratch bitmap of `live.len()` bools, reset
/// here).
fn check_feeds(feeds: &[(usize, usize)], live: &[bool], seen: &mut [bool]) {
    seen.fill(false);
    for &(s, _) in feeds {
        assert!(live[s], "step on a free slot");
        assert!(!seen[s], "slot {s} fed twice in one step");
        seen[s] = true;
    }
}

/// Batched incremental decoder for a [`Transformer`]: N sessions share one
/// pass over every weight matrix per step, each slot with its own K/V
/// cache, bit-identical per slot to a [`DecodeState`]. Create with
/// [`Transformer::begin_batch_decode`]; drive through the [`BatchDecode`]
/// trait.
pub struct BatchDecodeState<'m> {
    model: &'m Transformer,
    /// Pre-transposed output projection, snapshotted once per batch.
    wt: Arc<Tensor>,
    /// One cache per slot (empty while the slot is free).
    caches: Vec<KvCache>,
    /// Which slots hold a session.
    live: Vec<bool>,
    seen: Vec<bool>,
    /// Scratch row `s` belongs to slot `s`.
    sc: Scratch,
}

impl Transformer {
    /// Starts an empty batch of `capacity` incremental decode slots. Scratch
    /// is allocated once here; joins allocate only per-slot K/V state.
    pub fn begin_batch_decode(&self, capacity: usize) -> BatchDecodeState<'_> {
        let cap = capacity.max(1);
        let mut sc = Scratch::default();
        sc.ensure(&self.cfg, cap);
        BatchDecodeState {
            model: self,
            wt: self.out_proj_t(),
            caches: (0..cap).map(|_| KvCache::default()).collect(),
            live: vec![false; cap],
            seen: vec![false; cap],
            sc,
        }
    }
}

impl BatchDecode for BatchDecodeState<'_> {
    fn capacity(&self) -> usize {
        self.live.len()
    }

    fn active(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    fn join(&mut self, src: &[usize]) -> Option<usize> {
        let s = self.live.iter().position(|&l| !l)?;
        self.live[s] = true;
        self.caches[s] = self.model.encode_cache(src);
        Some(s)
    }

    fn retire(&mut self, slot: usize) {
        self.live[slot] = false;
        self.caches[slot] = KvCache::default();
    }

    fn step(&mut self, feeds: &[(usize, usize)]) {
        check_feeds(feeds, &self.live, &mut self.seen);
        let caches = &self.caches;
        self.sc.rows.clear();
        self.sc.rows.extend(feeds.iter().map(|&(s, token)| Row {
            cache: s,
            pos: caches[s].len,
            token,
            at: s,
        }));
        self.model
            .decode_rows(&self.wt, &mut self.caches, &mut self.sc);
    }

    fn logits(&self, slot: usize) -> &[f32] {
        assert!(self.live[slot], "logits of a free slot");
        let vocab = self.model.cfg.vocab;
        &self.sc.logits[slot * vocab..(slot + 1) * vocab]
    }

    fn slot_len(&self, slot: usize) -> usize {
        self.caches[slot].len
    }
}

/// Batched incremental decoder for a [`GruSeq2Seq`]; the GRU analog of
/// [`BatchDecodeState`]. Create with [`GruSeq2Seq::begin_batch_decode`].
pub struct GruBatchDecodeState<'m> {
    model: &'m GruSeq2Seq,
    /// Pre-transposed output projection, snapshotted once per batch.
    wt: Arc<Tensor>,
    /// Hidden states, one row of width `d_model` per slot.
    h: Vec<f32>,
    /// Tokens fed per slot (0 while the slot is free).
    lens: Vec<usize>,
    /// Which slots hold a session.
    live: Vec<bool>,
    seen: Vec<bool>,
    /// Scratch row `s` belongs to slot `s`.
    sc: GruScratch,
}

impl GruSeq2Seq {
    /// Starts an empty batch of `capacity` incremental GRU decode slots.
    pub fn begin_batch_decode(&self, capacity: usize) -> GruBatchDecodeState<'_> {
        let cap = capacity.max(1);
        let mut sc = GruScratch::default();
        sc.ensure(&self.cfg, cap);
        GruBatchDecodeState {
            model: self,
            wt: self.out_proj_t(),
            h: vec![0.0; cap * self.cfg.d_model],
            lens: vec![0; cap],
            live: vec![false; cap],
            seen: vec![false; cap],
            sc,
        }
    }
}

impl BatchDecode for GruBatchDecodeState<'_> {
    fn capacity(&self) -> usize {
        self.live.len()
    }

    fn active(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    fn join(&mut self, src: &[usize]) -> Option<usize> {
        let s = self.live.iter().position(|&l| !l)?;
        self.live[s] = true;
        self.model.encode_into(src, s, &mut self.h, &mut self.sc);
        Some(s)
    }

    fn retire(&mut self, slot: usize) {
        self.live[slot] = false;
        self.lens[slot] = 0;
    }

    fn step(&mut self, feeds: &[(usize, usize)]) {
        check_feeds(feeds, &self.live, &mut self.seen);
        self.model
            .decode_rows(&self.wt, feeds, &mut self.h, &mut self.sc);
        for &(s, _) in feeds {
            self.lens[s] += 1;
        }
    }

    fn logits(&self, slot: usize) -> &[f32] {
        assert!(self.live[slot], "logits of a free slot");
        let vocab = self.model.cfg.vocab;
        &self.sc.logits[slot * vocab..(slot + 1) * vocab]
    }

    fn slot_len(&self, slot: usize) -> usize {
        self.lens[slot]
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
