//! Incremental-vs-graph decode equivalence.
//!
//! The forward-only fast path (`DecodeState` / `GruDecodeState`) must be
//! **bit-identical** to the autograd-graph reference decode: the determinism
//! and chaos suites, the serve cache keys, and the golden vectors all assume
//! generation is a pure function of (weights, input). These tests compare
//! token streams, teacher-forced log-probabilities (by `to_bits`), and raw
//! logits rows between the two paths, for trained and untrained weights,
//! both model families, and the truncation / degenerate-exit edge cases.
//! One state reused across a greedy decode, many forced scores and another
//! greedy decode must answer exactly as a fresh `begin_decode` per call.
//! `step_many` must match the same tokens fed one `step` at a time, the
//! forced scorer's one-pass prefill must match a token-stepped loop, and the
//! dot-form logits projection (`VEGA_DOT_FORM`) is pinned on both sides of
//! its switch. `ci.sh` runs this suite at `VEGA_THREADS=1` and `4`.
//! Dot-form policy is process-global, so the test that switches it
//! serializes through `MODE_LOCK` and restores `Auto` on exit.

use std::sync::Mutex;
use vega_nn::kernel::{self, DotForm};
use vega_nn::{
    forced_pair, DecodeState, GruConfig, GruDecodeState, GruSeq2Seq, Seq2Seq, Transformer,
    TransformerConfig,
};

static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Deterministic pseudo-random token ids in `[lo, hi)` (splitmix64).
fn tokens(seed: u64, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            lo + (z as usize) % (hi - lo)
        })
        .collect()
}

fn trained_copy_transformer() -> Transformer {
    let mut t = Transformer::new(TransformerConfig::tiny(10));
    let pairs: Vec<(Vec<usize>, Vec<usize>)> = vec![
        (vec![2, 3, 4], vec![2, 3, 4]),
        (vec![5, 6], vec![5, 6]),
        (vec![7, 8, 2], vec![7, 8, 2]),
        (vec![4, 4, 5], vec![4, 4, 5]),
    ];
    let loss = vega_nn::train_until(&mut t, &pairs, 0, 1, 300, 3e-3, 0.05);
    assert!(loss < 0.3, "copy task did not converge: {loss}");
    t
}

#[test]
fn transformer_greedy_matches_graph_when_trained() {
    let mut t = trained_copy_transformer();
    for src in [vec![5usize, 6], vec![2, 3, 4], vec![7, 8, 2], vec![4, 4, 5]] {
        let fast = t.greedy(&src, 0, 1, 10);
        let graph = t.greedy_graph(&src, 0, 1, 10);
        assert_eq!(fast, graph, "greedy diverged for src {src:?}");
    }
    // And the trained behavior itself still holds on the fast path.
    assert_eq!(t.greedy(&[5, 6], 0, 1, 10), vec![5, 6]);
}

#[test]
fn transformer_greedy_matches_graph_untrained_small() {
    // Untrained weights exercise arbitrary logits (ties, negative values).
    let mut t = Transformer::new(TransformerConfig::small(64));
    for seed in 0..4u64 {
        let src = tokens(seed, 17, 2, 64);
        let fast = t.greedy(&src, 0, 1, 96);
        let graph = t.greedy_graph(&src, 0, 1, 96);
        assert_eq!(fast, graph, "greedy diverged for seed {seed}");
    }
}

#[test]
fn transformer_logits_bitwise_identical_over_full_prefix() {
    let mut t = Transformer::new(TransformerConfig::small(64));
    let src = tokens(11, 32, 2, 64);
    let feed = tokens(13, 96, 2, 64);
    let graph = t.logits_rows_graph(&src, &feed);
    let mut st = t.begin_decode(&src);
    for (r, &tok) in feed.iter().enumerate() {
        let row = st.step(tok);
        assert_eq!(row.len(), graph.cols);
        for (c, &v) in row.iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                graph.at(r, c).to_bits(),
                "logit bits diverged at row {r} col {c}"
            );
        }
    }
}

#[test]
fn transformer_forced_logprob_matches_graph_bitwise() {
    let mut t = Transformer::new(TransformerConfig::small(64));
    for (seed, n) in [(1u64, 5usize), (2, 40), (3, 96)] {
        let src = tokens(seed, 20, 2, 64);
        let tgt_in = tokens(seed + 100, n, 2, 64);
        let tgt_out = tokens(seed + 200, n, 2, 64);
        let fast = t.forced_logprob(&src, &tgt_in, &tgt_out);
        let graph = t.forced_logprob_graph(&src, &tgt_in, &tgt_out);
        assert_eq!(
            fast.to_bits(),
            graph.to_bits(),
            "forced_logprob diverged for n={n}: {fast} vs {graph}"
        );
    }
}

#[test]
fn transformer_forced_logprob_truncates_identically_past_max_len() {
    // src and tgt both longer than max_len=96: both paths must clamp alike.
    let mut t = Transformer::new(TransformerConfig::small(64));
    let src = tokens(21, 130, 2, 64);
    let tgt_in = tokens(22, 120, 2, 64);
    let tgt_out = tokens(23, 110, 2, 64);
    let fast = t.forced_logprob(&src, &tgt_in, &tgt_out);
    let graph = t.forced_logprob_graph(&src, &tgt_in, &tgt_out);
    assert_eq!(fast.to_bits(), graph.to_bits());
}

#[test]
fn transformer_forced_steps_matches_graph() {
    let mut t = Transformer::new(TransformerConfig::small(64));
    let src = tokens(31, 48, 2, 64);
    let feed = tokens(32, 96, 2, 64);
    let fast = t.forced_steps(&src, &feed);
    let graph = t.forced_steps_graph(&src, &feed);
    assert_eq!(fast, graph);
    assert_eq!(fast.len(), 96);
}

#[test]
fn transformer_degenerate_early_exit_matches_graph() {
    // Teach the model to emit an unbounded run of 3s; looks_degenerate must
    // cut both paths at the same point.
    let mut t = Transformer::new(TransformerConfig::tiny(10));
    let pairs = vec![(vec![2usize], vec![3usize; 10])];
    let _ = vega_nn::train_until(&mut t, &pairs, 0, 1, 250, 3e-3, 0.05);
    let fast = t.greedy(&[2], 0, 1, 20);
    let graph = t.greedy_graph(&[2], 0, 1, 20);
    assert_eq!(fast, graph);
    if fast == vec![3, 3, 3] {
        // Converged run: the period-1 detector fired well before the cap.
        assert!(vega_nn::looks_degenerate(&[0, 3, 3, 3]));
    }
}

#[test]
fn transformer_sequence_logprob_matches_graph_composition() {
    // sequence_logprob (the serve/scoring entry point) builds BOS/EOS
    // framing on top of forced_logprob; check the full composition.
    let mut t = trained_copy_transformer();
    let src = vec![5usize, 6];
    let tgt = vec![5usize, 6];
    let fast = t.sequence_logprob(&src, &tgt, 0, 1);
    let mut tgt_in = vec![0usize];
    tgt_in.extend_from_slice(&tgt);
    let mut tgt_out = tgt.clone();
    tgt_out.push(1);
    let graph = t.forced_logprob_graph(&src, &tgt_in, &tgt_out);
    assert_eq!(fast.to_bits(), graph.to_bits());
}

// ---------------------------------------------------------------------------
// GRU
// ---------------------------------------------------------------------------

#[test]
fn gru_greedy_matches_graph_trained_and_untrained() {
    let mut m = GruSeq2Seq::new(GruConfig::tiny(8));
    let pairs = vec![(vec![2usize, 3], vec![3usize]), (vec![4, 5], vec![5])];
    let loss = vega_nn::train_until(&mut m, &pairs, 0, 1, 400, 5e-3, 0.05);
    assert!(loss < 0.3, "gru did not converge: {loss}");
    for src in [vec![2usize, 3], vec![4, 5], vec![2], vec![5, 4, 3]] {
        assert_eq!(
            m.greedy(&src, 0, 1, 8),
            m.greedy_graph(&src, 0, 1, 8),
            "gru greedy diverged for src {src:?}"
        );
    }
    assert_eq!(m.greedy(&[2, 3], 0, 1, 4), vec![3]);

    let mut u = GruSeq2Seq::new(GruConfig::small(64));
    for seed in 0..3u64 {
        let src = tokens(seed + 40, 25, 2, 64);
        assert_eq!(u.greedy(&src, 0, 1, 96), u.greedy_graph(&src, 0, 1, 96));
    }
}

#[test]
fn gru_logits_bitwise_identical_over_full_prefix() {
    let mut m = GruSeq2Seq::new(GruConfig::small(64));
    let src = tokens(51, 30, 2, 64);
    let feed = tokens(52, 96, 2, 64);
    let graph = m.logits_rows_graph(&src, &feed);
    let mut st = m.begin_decode(&src);
    for (r, &tok) in feed.iter().enumerate() {
        let row = st.step(tok);
        for (c, &v) in row.iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                graph.at(r, c).to_bits(),
                "gru logit bits diverged at row {r} col {c}"
            );
        }
    }
}

#[test]
fn gru_forced_logprob_matches_graph_bitwise_incl_truncation() {
    let mut m = GruSeq2Seq::new(GruConfig::small(64));
    for (seed, src_n, n) in [(61u64, 10usize, 8usize), (62, 40, 96), (63, 130, 120)] {
        let src = tokens(seed, src_n, 2, 64);
        let tgt_in = tokens(seed + 7, n, 2, 64);
        let tgt_out = tokens(seed + 9, n, 2, 64);
        let fast = m.forced_logprob(&src, &tgt_in, &tgt_out);
        let graph = m.forced_logprob_graph(&src, &tgt_in, &tgt_out);
        assert_eq!(
            fast.to_bits(),
            graph.to_bits(),
            "gru forced_logprob diverged for seed {seed}"
        );
    }
}

#[test]
fn gru_forced_steps_matches_graph() {
    let mut m = GruSeq2Seq::new(GruConfig::small(64));
    let src = tokens(71, 20, 2, 64);
    let feed = tokens(72, 96, 2, 64);
    assert_eq!(
        m.forced_steps(&src, &feed),
        m.forced_steps_graph(&src, &feed)
    );
}

// ---------------------------------------------------------------------------
// One state, many decodes (the encode-once session path)
// ---------------------------------------------------------------------------

/// The whole-sequence loops both decode states carry.
trait Session {
    fn greedy(&mut self, bos: usize, eos: usize, max_len: usize) -> Vec<usize>;
    fn forced_logprob(&mut self, tgt_in: &[usize], tgt_out: &[usize]) -> f32;
}

impl Session for DecodeState<'_> {
    fn greedy(&mut self, bos: usize, eos: usize, max_len: usize) -> Vec<usize> {
        DecodeState::greedy(self, bos, eos, max_len)
    }
    fn forced_logprob(&mut self, tgt_in: &[usize], tgt_out: &[usize]) -> f32 {
        DecodeState::forced_logprob(self, tgt_in, tgt_out)
    }
}

impl Session for GruDecodeState<'_> {
    fn greedy(&mut self, bos: usize, eos: usize, max_len: usize) -> Vec<usize> {
        GruDecodeState::greedy(self, bos, eos, max_len)
    }
    fn forced_logprob(&mut self, tgt_in: &[usize], tgt_out: &[usize]) -> f32 {
        GruDecodeState::forced_logprob(self, tgt_in, tgt_out)
    }
}

/// Forced pairs of mixed lengths: a long one before short ones (so a reset
/// that left stale rows would show), an unframed empty pair, an empty
/// candidate framed as `sequence_logprob` frames it, and one past `max_len`.
fn session_candidates(vocab: usize, max_len: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    vec![
        forced_pair(&tokens(81, 10, 2, vocab), 0, 1),
        (
            tokens(82, max_len + 5, 2, vocab),
            tokens(83, max_len + 3, 2, vocab),
        ),
        (Vec::new(), Vec::new()),
        forced_pair(&tokens(84, 3, 2, vocab), 0, 1),
        forced_pair(&[], 0, 1),
        forced_pair(&tokens(85, 7, 2, vocab), 0, 1),
    ]
}

/// Drives `reused` through a greedy decode, every candidate's forced score,
/// and a greedy decode again; each answer must equal a `fresh()` state's
/// (one `begin_decode` per call) bit for bit.
fn assert_reuse_matches_fresh<S: Session>(
    mut reused: S,
    fresh: impl Fn() -> S,
    vocab: usize,
    max_len: usize,
) {
    let want = fresh().greedy(0, 1, max_len);
    assert_eq!(reused.greedy(0, 1, max_len), want, "first greedy");
    for (i, (tgt_in, tgt_out)) in session_candidates(vocab, max_len).iter().enumerate() {
        let got = reused.forced_logprob(tgt_in, tgt_out);
        let want = fresh().forced_logprob(tgt_in, tgt_out);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "candidate {i}: reused state scored {got}, fresh state {want}"
        );
    }
    assert_eq!(reused.greedy(0, 1, max_len), want, "greedy after scoring");
}

#[test]
fn transformer_tiny_state_reuse_matches_fresh_bitwise() {
    let t = trained_copy_transformer();
    for src in [vec![5usize, 6], vec![2, 3, 4]] {
        assert_reuse_matches_fresh(
            t.begin_decode(&src),
            || t.begin_decode(&src),
            t.cfg.vocab,
            t.cfg.max_len,
        );
    }
}

#[test]
fn transformer_small_state_reuse_matches_fresh_bitwise() {
    let t = Transformer::new(TransformerConfig::small(64));
    let src = tokens(86, 48, 2, 64);
    assert_reuse_matches_fresh(
        t.begin_decode(&src),
        || t.begin_decode(&src),
        t.cfg.vocab,
        t.cfg.max_len,
    );
}

#[test]
fn gru_state_reuse_matches_fresh_bitwise() {
    let m = GruSeq2Seq::new(GruConfig::small(64));
    let src = tokens(87, 30, 2, 64);
    assert_reuse_matches_fresh(
        m.begin_decode(&src),
        || m.begin_decode(&src),
        m.cfg.vocab,
        m.cfg.max_len,
    );
}

#[test]
fn state_reuse_matches_graph_reference() {
    // Anchor the reused path to the graph reference too, not only to itself
    // (the graph path cannot decode zero positions, so the unframed empty
    // pair sits this one out).
    let mut t = Transformer::new(TransformerConfig::small(64));
    let src = tokens(88, 20, 2, 64);
    let mut cands = session_candidates(64, t.cfg.max_len);
    cands.retain(|(i, o)| !i.is_empty() && !o.is_empty());
    let got: Vec<u32> = {
        let mut st = t.begin_decode(&src);
        cands
            .iter()
            .map(|(i, o)| st.forced_logprob(i, o).to_bits())
            .collect()
    };
    for ((tgt_in, tgt_out), bits) in cands.iter().zip(got) {
        assert_eq!(
            t.forced_logprob_graph(&src, tgt_in, tgt_out).to_bits(),
            bits
        );
    }
    let mut g = GruSeq2Seq::new(GruConfig::small(64));
    let got: Vec<u32> = {
        let mut st = g.begin_decode(&src);
        cands
            .iter()
            .map(|(i, o)| st.forced_logprob(i, o).to_bits())
            .collect()
    };
    for ((tgt_in, tgt_out), bits) in cands.iter().zip(got) {
        assert_eq!(
            g.forced_logprob_graph(&src, tgt_in, tgt_out).to_bits(),
            bits
        );
    }
}

// ---------------------------------------------------------------------------
// step_many, the dot-form switch and the forced-scoring prefill
// ---------------------------------------------------------------------------

#[test]
fn step_many_matches_single_steps_bitwise() {
    let t = Transformer::new(TransformerConfig::small(64));
    let src = tokens(301, 24, 2, 64);
    let feed = tokens(302, 64, 2, 64);
    // Reference: one token at a time.
    let mut single = t.begin_decode(&src);
    let mut want: Vec<u32> = Vec::new();
    for &tok in &feed {
        want.extend(single.step(tok).iter().map(|v| v.to_bits()));
    }
    // Same tokens through step_many in assorted chunk sizes.
    for chunks in [
        vec![1usize; 64],
        vec![2; 32],
        vec![4; 16],
        vec![8; 8],
        vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 9],
    ] {
        assert_eq!(chunks.iter().sum::<usize>(), feed.len());
        let mut st = t.begin_decode(&src);
        let mut got: Vec<u32> = Vec::new();
        let mut off = 0;
        for &c in &chunks {
            got.extend(
                st.step_many(&feed[off..off + c])
                    .iter()
                    .map(|v| v.to_bits()),
            );
            off += c;
        }
        assert_eq!(st.len(), feed.len());
        assert_eq!(got, want, "step_many diverged for chunking {chunks:?}");
    }
}

#[test]
fn dot_form_on_and_off_both_match_graph_reference() {
    // Both sides of the dot-form switch must keep fast-path == graph
    // bit-identity: the fast decode and the graph twins branch on the same
    // predicate, whichever way it points.
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for policy in [DotForm::On, DotForm::Off] {
        kernel::set_dot_form(policy);
        let mut t = Transformer::new(TransformerConfig::small(48));
        let src = tokens(371, 14, 2, 48);
        let feed = tokens(372, 24, 2, 48);
        let graph = t.logits_rows_graph(&src, &feed);
        let mut st = t.begin_decode(&src);
        for (r, &tok) in feed.iter().enumerate() {
            for (c, &v) in st.step(tok).iter().enumerate() {
                assert_eq!(
                    v.to_bits(),
                    graph.at(r, c).to_bits(),
                    "dot-form {policy:?}: logit bits diverged at row {r} col {c}"
                );
            }
        }
        let fast = t.greedy(&src, 0, 1, 24);
        let reference = t.greedy_graph(&src, 0, 1, 24);
        assert_eq!(fast, reference, "dot-form {policy:?}: greedy diverged");

        let mut g = GruSeq2Seq::new(GruConfig::small(48));
        assert_eq!(
            g.greedy(&src, 0, 1, 24),
            g.greedy_graph(&src, 0, 1, 24),
            "dot-form {policy:?}: GRU greedy diverged"
        );
    }
    kernel::set_dot_form(DotForm::Auto);
}

#[test]
fn forced_logprob_prefill_matches_stepwise_loop_bitwise() {
    let mut t = Transformer::new(TransformerConfig::small(64));
    let src = tokens(391, 18, 2, 64);
    let tgt_in = tokens(392, 30, 2, 64);
    let tgt_out = tokens(393, 30, 2, 64);
    let fast = t.forced_logprob(&src, &tgt_in, &tgt_out);
    // Reference: the pre-prefill implementation, one step per target token.
    let mut st = t.begin_decode(&src);
    let mut lp = 0.0f32;
    let mut probs = vec![0.0f32; 64];
    for (&from, &to) in tgt_in.iter().zip(tgt_out.iter()) {
        probs.copy_from_slice(st.step(from));
        vega_nn::decode::softmax_row(&mut probs);
        lp += probs[to].max(1e-12).ln();
    }
    assert_eq!(
        fast.to_bits(),
        lp.to_bits(),
        "prefilled forced_logprob diverged from the stepwise loop"
    );
}
