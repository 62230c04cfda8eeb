//! Per-mode determinism: same seed + same kernel mode → bit-identical
//! outputs, for every mode this CPU can run.
//!
//! The kernel tier's contract (see `crates/nn/src/kernel.rs`) is that each
//! mode is *individually* deterministic — reruns from the same weight seed
//! produce the same token streams and the same logprob **bits** — while
//! different modes may differ in low bits. These tests pin the first half;
//! `kernel_conformance.rs` pins the cross-mode tolerance. They also re-check
//! the decode-vs-graph bit-identity *inside* each mode, which is the
//! invariant AVX2 could most plausibly break (it is why `softmax_row`'s
//! exp-sum stays sequential in every mode).
//!
//! The kernel mode is process-global, so every test here serializes through
//! `MODE_LOCK` and restores `Auto` on exit. On CPUs without AVX2 only the
//! scalar mode runs (with a logged notice).

use std::sync::Mutex;
use vega_nn::kernel::{self, avx2_available, KernelMode};
use vega_nn::{GruConfig, GruSeq2Seq, Seq2Seq, Transformer, TransformerConfig};

static MODE_LOCK: Mutex<()> = Mutex::new(());

fn available_modes() -> Vec<KernelMode> {
    if avx2_available() {
        vec![KernelMode::Scalar, KernelMode::Avx2]
    } else {
        eprintln!("kernel_determinism: CPU lacks AVX2; scalar mode only");
        vec![KernelMode::Scalar]
    }
}

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

/// One full generation under the current mode: greedy stream, teacher-forced
/// logprob bits, and the raw logits bits of a short forced decode.
fn transformer_trace() -> (Vec<usize>, u32, Vec<u32>) {
    let mut t = Transformer::new(TransformerConfig::small(48));
    let src = tokens(21, 12, 2, 48);
    let tgt = tokens(22, 8, 2, 48);
    let stream = t.greedy(&src, 0, 1, 24);
    let lp = t
        .forced_logprob(&src, &tgt[..tgt.len() - 1], &tgt[1..])
        .to_bits();
    let mut st = t.begin_decode(&src);
    let mut logit_bits = Vec::new();
    for &tok in &tgt {
        logit_bits.extend(st.step(tok).iter().map(|v| v.to_bits()));
    }
    (stream, lp, logit_bits)
}

fn gru_trace() -> (Vec<usize>, u32) {
    let mut g = GruSeq2Seq::new(GruConfig::tiny(12));
    let src = tokens(31, 6, 2, 12);
    let tgt = tokens(32, 5, 2, 12);
    let stream = g.greedy(&src, 0, 1, 12);
    let lp = g
        .forced_logprob(&src, &tgt[..tgt.len() - 1], &tgt[1..])
        .to_bits();
    (stream, lp)
}

#[test]
fn reruns_are_bit_identical_within_each_mode() {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for mode in available_modes() {
        kernel::set_mode(mode);
        let (s1, lp1, lb1) = transformer_trace();
        let (s2, lp2, lb2) = transformer_trace();
        assert_eq!(s1, s2, "mode {}: greedy stream drifted", mode.name());
        assert_eq!(lp1, lp2, "mode {}: logprob bits drifted", mode.name());
        assert_eq!(lb1, lb2, "mode {}: logits bits drifted", mode.name());
        let (g1, glp1) = gru_trace();
        let (g2, glp2) = gru_trace();
        assert_eq!(g1, g2, "mode {}: GRU stream drifted", mode.name());
        assert_eq!(glp1, glp2, "mode {}: GRU logprob bits drifted", mode.name());
    }
    kernel::set_mode(KernelMode::Auto);
}

#[test]
fn decode_matches_graph_within_each_mode() {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for mode in available_modes() {
        kernel::set_mode(mode);
        let mut t = Transformer::new(TransformerConfig::small(48));
        for seed in 0..3u64 {
            let src = tokens(seed, 9, 2, 48);
            let fast = t.greedy(&src, 0, 1, 24);
            let graph = t.greedy_graph(&src, 0, 1, 24);
            assert_eq!(
                fast,
                graph,
                "mode {}: decode diverged from graph for seed {seed}",
                mode.name()
            );
        }
    }
    kernel::set_mode(KernelMode::Auto);
}

#[test]
fn forked_scoring_matches_single_within_each_mode() {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for mode in available_modes() {
        kernel::set_mode(mode);
        let t = Transformer::new(TransformerConfig::tiny(10));
        let src = [2, 3, 4];
        // Ragged pairs: two share a 3-token prefix, one stops inside it, one
        // shares only the first token.
        let pairs: Vec<(Vec<usize>, Vec<usize>)> = vec![
            (vec![0, 5, 6, 7, 8], vec![5, 6, 7, 8, 1]),
            (vec![0, 5, 6, 2], vec![5, 6, 2, 1]),
            (vec![0, 5], vec![5, 1]),
            (vec![0, 9, 3, 3, 4, 2], vec![9, 3, 3, 4, 2, 1]),
        ];
        let forked = t.begin_decode(&src).forced_logprobs(&pairs);
        for (i, (tgt_in, tgt_out)) in pairs.iter().enumerate() {
            let single = t.begin_decode(&src).forced_logprob(tgt_in, tgt_out);
            assert_eq!(
                forked[i].to_bits(),
                single.to_bits(),
                "mode {}: forked/single score diverged, pair {i}",
                mode.name()
            );
        }
    }
    kernel::set_mode(KernelMode::Auto);
}
