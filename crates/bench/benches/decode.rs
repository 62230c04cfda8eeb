//! Graph-path vs incremental (KV-cached) decode throughput, per kernel mode.
//!
//! Runs teacher-forced decodes of controlled length (prefix 8/32/96) through
//! both paths on the small transformer config on one thread (no decode path
//! and no `Tensor::matmul` uses the `vega-par` pool, so more threads would
//! time the same work), under every kernel mode this CPU can run (`scalar`
//! always, `avx2` when detected — see `vega_nn::kernel`), reports
//! tokens/sec, and writes a
//! machine-readable baseline to `BENCH_decode.json` (override the path with
//! `VEGA_BENCH_OUT`; `VEGA_DECODE_BENCH_FAST=1` shrinks the sample count for
//! the CI smoke run). A matmul section times the dot-heavy transposed
//! product and the k-tiled non-transposed product per mode, since those are
//! the two inner-loop shapes `Tensor::matmul` dispatches.
//!
//! The ISA headline is measured on a *wide* decode (d_model 128): the small
//! config's 40-wide rows leave exp/normalization — scalar by the
//! determinism contract in every mode — as roughly half of each token, so
//! Amdahl caps any SIMD win there regardless of kernel quality. At
//! representative widths the kernel tier dominates and the ratio reflects
//! the kernels themselves. Both configs' rows land in the JSON.
//!
//! The wide section also times `forks8`: one `forced_logprobs` call over 8
//! candidates that share only BOS, so 753 decoder rows (the BOS prefix,
//! then 8 × 94 tail rows on forks of the session cache) run through each
//! weight matrix in one forward — the candidate-scoring shape.
//!
//! An attention section times one tiny encoder head (48 keys, width 8,
//! every row) through the fused `kernel::attention` against a bench-local
//! replay of the per-key loop it replaced, per mode, and an `encoder` row
//! times a whole tiny-pipeline `begin_decode` pass.
//!
//! The timed workloads double as equivalence checks: incremental == graph
//! token streams within each mode, forked scores == per-candidate scores,
//! fused attention == the per-key loop, and — every ISA computing the same
//! bits — the wide streams and the `forks8` score bits equal across modes.
//! The run prints `decode: smoke=ok` only if the incremental path is at
//! least as fast as the graph path at prefix 96 in every mode and — when
//! AVX2 is available — the AVX2 kernel beats scalar by the floors below on
//! the transposed matmul and on `forks8`, and the fused attention beats the
//! per-key loop by its floor.

use std::time::Instant;
use vega_bench::fmt_secs;
use vega_nn::kernel::{self, avx2_available, Isa};
use vega_nn::{forced_pair, DecodeState, Tensor, Transformer, TransformerConfig};
use vega_obs::json::Json;

/// Smoke floor for AVX2-vs-scalar on the transposed matmul. The scalar dot
/// sums in the AVX2 kernel's lane tree, spelled as arrays of 8-lane
/// accumulators the compiler keeps in 128-bit registers, so AVX2's edge is
/// its wider lanes: 2.2–2.3× in full runs on a 2-vCPU AVX2 host, and
/// 1.6–2.8× in fast smoke runs there. The gate sits far below the
/// measurement so a noisy shared core doesn't flake the build; the committed
/// JSON carries the measured ratios.
const AVX2_SPEEDUP_FLOOR: f64 = 1.2;

/// Smoke floor for AVX2-vs-scalar on `forks8`, the many-row wide decode.
/// Decode is axpy-shaped (ascending-`k`, bit-identical across modes),
/// which the scalar build auto-vectorizes with SSE2, so ~1.1–1.6× *is* the
/// honest decode ratio on a 2-vCPU AVX2 host. The gate only guards against
/// AVX2 regressing below scalar.
const AVX2_DECODE_FLOOR: f64 = 1.05;

/// Smoke floor for the fused attention op against the per-key loop it
/// replaced, on one tiny encoder head (48 keys, width 8, every row) under
/// AVX2: 2.35–2.50× in full and fast runs on a 2-vCPU AVX2 host (11–19 µs
/// against 28–45 µs per head). The gate sits well below that so a noisy
/// shared core does not flake the build.
const ATTENTION_FLOOR: f64 = 1.5;

/// Deterministic pseudo-random token ids (splitmix64).
fn tokens(seed: u64, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            lo + (z as usize) % (hi - lo)
        })
        .collect()
}

/// Minimum seconds per call over `samples` timed calls (after one warm-up).
/// On a shared core, interference only ever *adds* time, so the minimum is
/// the robust estimator of the workload's true cost — medians still wander
/// by ±25% run to run here.
fn min_secs(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn available_modes() -> Vec<Isa> {
    if avx2_available() {
        vec![Isa::Scalar, Isa::Avx2]
    } else {
        println!("(CPU lacks AVX2; benching scalar only)");
        vec![Isa::Scalar]
    }
}

fn main() {
    const VOCAB: usize = 512;
    const SRC_LEN: usize = 48;
    const MM_DIM: usize = 256;
    let fast_mode = std::env::var("VEGA_DECODE_BENCH_FAST").is_ok();
    let samples = if fast_mode { 2 } else { 5 };
    let mm_samples = if fast_mode { 3 } else { 9 };
    let mut model = Transformer::new(TransformerConfig::small(VOCAB));
    let src = tokens(101, SRC_LEN, 2, VOCAB);
    let feed = tokens(102, 96, 2, VOCAB);

    let mut rows = Vec::new();
    let mut smoke_ok = true;
    let mut speedup_p96_t1 = 0.0f64;
    // Per-mode incremental tok/s at prefix 96, 1 thread (the decode number
    // the AVX2-vs-scalar ratio is computed from).
    let mut inc_tps_by_mode: Vec<(&'static str, f64)> = Vec::new();

    vega_par::set_threads(1);
    println!("== decode (small config, vocab {VOCAB}, src len {SRC_LEN}, 1 thread) ==");
    for mode in available_modes() {
        kernel::set_mode(mode);
        let kname = mode.name();
        for &prefix in &[8usize, 32, 96] {
            let feed = &feed[..prefix];
            // The timed workloads are also an equivalence check.
            let reference = model.forced_steps(&src, feed);
            assert_eq!(
                reference,
                model.forced_steps_graph(&src, feed),
                "incremental and graph decode diverged (kernel {kname}, prefix {prefix})"
            );
            let inc_secs = min_secs(samples, || {
                std::hint::black_box(model.forced_steps(&src, feed));
            });
            let graph_secs = min_secs(samples, || {
                std::hint::black_box(model.forced_steps_graph(&src, feed));
            });
            let inc_tps = prefix as f64 / inc_secs;
            let graph_tps = prefix as f64 / graph_secs;
            let speedup = graph_secs / inc_secs;
            println!(
                "[{kname:>6}] prefix {prefix:>2}: incremental {:>9}/decode ({inc_tps:>9.0} tok/s) | graph {:>9}/decode ({graph_tps:>8.0} tok/s) | speedup {speedup:.1}x",
                fmt_secs(inc_secs),
                fmt_secs(graph_secs),
            );
            for (path, secs, tps) in [
                ("incremental", inc_secs, inc_tps),
                ("graph", graph_secs, graph_tps),
            ] {
                rows.push(Json::obj([
                    ("prefix", Json::num_usize(prefix)),
                    ("threads", Json::num_usize(1)),
                    ("path", Json::str(path)),
                    ("kernel", Json::str(kname)),
                    ("seconds_per_decode", Json::num_f64(secs)),
                    ("tokens_per_sec", Json::num_f64(tps)),
                ]));
            }
            if prefix == 96 {
                speedup_p96_t1 = speedup;
                inc_tps_by_mode.push((kname, inc_tps));
                smoke_ok &= inc_tps >= graph_tps;
            }
        }
    }

    // Wide decode: the per-ISA headline. d_model 128 / 4 heads / d_ff 256 is
    // the shape the kernel tier is for; prefix 96 at 1 thread isolates the
    // kernels from pool scheduling.
    const WIDE_VOCAB: usize = 1024;
    let mut wide = Transformer::new(TransformerConfig {
        vocab: WIDE_VOCAB,
        d_model: 128,
        n_heads: 4,
        d_ff: 256,
        n_enc_layers: 1,
        n_dec_layers: 2,
        max_len: 96,
        seed: 0xC0DE,
    });
    let wide_src = tokens(201, SRC_LEN, 2, WIDE_VOCAB);
    let wide_feed = tokens(202, 96, 2, WIDE_VOCAB);
    // forks8: 8 candidates of 94 tokens with distinct first tokens, so they
    // share only BOS and every pair fills the 96-position window.
    const FORKS: usize = 8;
    let fork_pairs: Vec<(Vec<usize>, Vec<usize>)> = (0..FORKS)
        .map(|c| {
            let mut cand = tokens(300 + c as u64, 94, 2, WIDE_VOCAB);
            cand[0] = 2 + c;
            forced_pair(&cand, 0, 1)
        })
        .collect();
    let fork_tokens: usize = fork_pairs.iter().map(|(_, o)| o.len()).sum();
    let mut wide_tps_by_mode: Vec<(&'static str, f64)> = Vec::new();
    let mut forks_tps_by_mode: Vec<(&'static str, f64)> = Vec::new();
    println!("== decode (wide config: d_model 128, vocab {WIDE_VOCAB}, prefix 96, 1 thread) ==");
    {
        let modes = available_modes();
        // Equivalence check once per mode before timing: incremental ==
        // graph, and every mode's stream equal to the first's.
        let mut streams = Vec::new();
        for &mode in &modes {
            kernel::set_mode(mode);
            let kname = mode.name();
            let reference = wide.forced_steps(&wide_src, &wide_feed);
            assert_eq!(
                reference,
                wide.forced_steps_graph(&wide_src, &wide_feed),
                "incremental and graph decode diverged (wide config, kernel {kname})"
            );
            streams.push(reference);
        }
        assert!(
            streams.windows(2).all(|w| w[0] == w[1]),
            "wide decode streams differ across ISAs"
        );
        // One encoded state per mode, encoded under that mode and outside
        // the timed region: `forks8` times the candidate forward alone. Its
        // scores must match one `forced_logprob` per candidate, and carry
        // the same bits in every mode.
        let mut states: Vec<DecodeState> = Vec::new();
        let mut fork_bits: Vec<Vec<u32>> = Vec::new();
        for &mode in &modes {
            kernel::set_mode(mode);
            let kname = mode.name();
            let mut st = wide.begin_decode(&wide_src);
            let forked: Vec<u32> = st
                .forced_logprobs(&fork_pairs)
                .iter()
                .map(|s| s.to_bits())
                .collect();
            let single: Vec<u32> = fork_pairs
                .iter()
                .map(|(i, o)| st.forced_logprob(i, o).to_bits())
                .collect();
            assert_eq!(forked, single, "forks8 diverged (kernel {kname})");
            fork_bits.push(forked);
            states.push(st);
        }
        assert!(
            fork_bits.windows(2).all(|w| w[0] == w[1]),
            "forks8 score bits differ across ISAs"
        );
        // Interference on this shared core is low-frequency (whole seconds
        // of steal), so timing all of one mode's samples before the other's
        // lets a burst land on one side of the ratio. Interleave the modes
        // round-robin and take per-mode minima instead; round 0 is warm-up.
        let mut inc_min = vec![f64::INFINITY; modes.len()];
        let mut forks_min = vec![f64::INFINITY; modes.len()];
        for round in 0..samples + 1 {
            for (mi, &mode) in modes.iter().enumerate() {
                kernel::set_mode(mode);
                let t0 = Instant::now();
                std::hint::black_box(wide.forced_steps(&wide_src, &wide_feed));
                let inc = t0.elapsed().as_secs_f64();
                // forks8: the single-stream decode streams every weight
                // matrix from memory per token (bandwidth-bound, which caps
                // any ISA ratio); one forward over 753 rows amortizes that
                // stream, so this is the number that reflects the kernels.
                let t0 = Instant::now();
                std::hint::black_box(states[mi].forced_logprobs(&fork_pairs));
                let forks = t0.elapsed().as_secs_f64();
                if round > 0 {
                    inc_min[mi] = inc_min[mi].min(inc);
                    forks_min[mi] = forks_min[mi].min(forks);
                }
            }
        }
        for (mi, &mode) in modes.iter().enumerate() {
            kernel::set_mode(mode);
            let kname = mode.name();
            let (inc_secs, forks_secs) = (inc_min[mi], forks_min[mi]);
            let inc_tps = wide_feed.len() as f64 / inc_secs;
            let forks_tps = fork_tokens as f64 / forks_secs;
            println!(
                "[{kname:>6}] incremental {:>9}/decode ({inc_tps:>9.0} tok/s) | forks {FORKS} {:>9}/call ({forks_tps:>9.0} tok/s)",
                fmt_secs(inc_secs),
                fmt_secs(forks_secs),
            );
            for (path, secs, tps) in [
                ("incremental", inc_secs, inc_tps),
                ("forks8", forks_secs, forks_tps),
            ] {
                rows.push(Json::obj([
                    ("config", Json::str("wide")),
                    ("prefix", Json::num_usize(wide_feed.len())),
                    ("threads", Json::num_usize(1)),
                    ("path", Json::str(path)),
                    ("kernel", Json::str(kname)),
                    ("seconds_per_decode", Json::num_f64(secs)),
                    ("tokens_per_sec", Json::num_f64(tps)),
                ]));
            }
            wide_tps_by_mode.push((kname, inc_tps));
            forks_tps_by_mode.push((kname, forks_tps));
        }
    }

    // Matmul section: the two inner-loop shapes the kernel tier serves.
    // Transposed products take one full-length dot per output element (the
    // fixed lane tree, where AVX2's 8-wide lanes win most); non-transposed
    // products run the k-tiled `rows_matmul_into`, ascending-k chains
    // vectorized over the output row.
    println!("== matmul ({MM_DIM}x{MM_DIM} · {MM_DIM}x{MM_DIM}, 1 thread) ==");
    let a = Tensor::from_vec(
        MM_DIM,
        MM_DIM,
        (0..MM_DIM * MM_DIM)
            .map(|i| ((i * 7 % 23) as f32) * 0.05 - 0.5)
            .collect(),
    );
    let b = Tensor::from_vec(
        MM_DIM,
        MM_DIM,
        (0..MM_DIM * MM_DIM)
            .map(|i| ((i * 5 % 19) as f32) * 0.04 - 0.4)
            .collect(),
    );
    let mut mm_secs_by_mode: Vec<(&'static str, f64, f64)> = Vec::new();
    for mode in available_modes() {
        kernel::set_mode(mode);
        let kname = mode.name();
        let t_secs = min_secs(mm_samples, || {
            std::hint::black_box(a.matmul(&b, true));
        });
        let n_secs = min_secs(mm_samples, || {
            std::hint::black_box(a.matmul(&b, false));
        });
        let flops = 2.0 * (MM_DIM as f64).powi(3);
        println!(
            "[{kname:>6}] transposed {:>9}/mul ({:>5.2} GFLOP/s) | plain {:>9}/mul ({:>5.2} GFLOP/s)",
            fmt_secs(t_secs),
            flops / t_secs / 1e9,
            fmt_secs(n_secs),
            flops / n_secs / 1e9,
        );
        for (shape, secs) in [("transposed", t_secs), ("plain", n_secs)] {
            rows.push(Json::obj([
                ("bench", Json::str("matmul")),
                ("dim", Json::num_usize(MM_DIM)),
                ("shape", Json::str(shape)),
                ("threads", Json::num_usize(1)),
                ("kernel", Json::str(kname)),
                ("seconds_per_matmul", Json::num_f64(secs)),
                ("gflops", Json::num_f64(flops / secs / 1e9)),
            ]));
        }
        mm_secs_by_mode.push((kname, t_secs, n_secs));
    }

    // Attention section: one tiny encoder head — 48 keys of width 8, every
    // row attending over every key — through the fused `kernel::attention`,
    // against a bench-local replay of the per-key loop it replaced: per row,
    // one `kernel::dot` per key times the scale, `softmax_row`, then
    // `row_matmul_into` over the value rows. The outputs must be bit-equal
    // before anything is timed; the two paths run interleaved, each sample
    // is ATT_REPS heads, and each path keeps its minimum.
    const ATT_KEYS: usize = 48;
    const ATT_WIDTH: usize = 8;
    const ATT_REPS: usize = 200;
    println!("== attention (one head: {ATT_KEYS} keys, width {ATT_WIDTH}, every row, 1 thread) ==");
    let att_vals = |len: usize, mul: usize| -> Vec<f32> {
        (0..len)
            .map(|i| ((i * mul % 37) as f32) * 0.05 - 0.9)
            .collect()
    };
    let att_q = att_vals(ATT_KEYS * ATT_WIDTH, 7);
    let att_k = Tensor::from_vec(ATT_KEYS, ATT_WIDTH, att_vals(ATT_KEYS * ATT_WIDTH, 11));
    let att_v = Tensor::from_vec(ATT_KEYS, ATT_WIDTH, att_vals(ATT_KEYS * ATT_WIDTH, 13));
    let att_keys = kernel::Keys::from_rows(&att_k);
    let att_scale = 1.0 / (ATT_WIDTH as f32).sqrt();
    // Path 0 is the fused op, path 1 the per-key loop.
    const ATT_PATHS: [&str; 2] = ["fused", "per_key"];
    let run = |path: usize, out: &mut [f32], scores: &mut [f32]| {
        if path == 0 {
            let (q, k, v) = (&att_q, &att_keys, &att_v);
            kernel::attention(q, k, v, ATT_KEYS, att_scale, scores, out, ATT_WIDTH);
            return;
        }
        for (q, out) in att_q
            .chunks_exact(ATT_WIDTH)
            .zip(out.chunks_exact_mut(ATT_WIDTH))
        {
            for (j, s) in scores.iter_mut().enumerate() {
                *s = kernel::dot(q, att_k.row(j)) * att_scale;
            }
            kernel::softmax_row(scores);
            kernel::row_matmul_into(scores, &att_v, out);
        }
    };
    let mut att_ratio_by_mode: Vec<(&'static str, f64)> = Vec::new();
    for mode in available_modes() {
        kernel::set_mode(mode);
        let kname = mode.name();
        let mut scores = vec![0.0f32; ATT_KEYS];
        let outs: Vec<Vec<f32>> = (0..ATT_PATHS.len())
            .map(|path| {
                let mut out = vec![0.0f32; ATT_KEYS * ATT_WIDTH];
                run(path, &mut out, &mut scores);
                out
            })
            .collect();
        assert!(
            outs[0]
                .iter()
                .zip(&outs[1])
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "fused attention differs from the per-key loop (kernel {kname})"
        );
        let mut out = vec![0.0f32; ATT_KEYS * ATT_WIDTH];
        let mut best = [f64::INFINITY; 2];
        for round in 0..mm_samples + 1 {
            for (path, best) in best.iter_mut().enumerate() {
                let t0 = Instant::now();
                for _ in 0..ATT_REPS {
                    run(path, &mut out, &mut scores);
                    std::hint::black_box(&mut out);
                }
                if round > 0 {
                    *best = best.min(t0.elapsed().as_secs_f64() / ATT_REPS as f64);
                }
            }
        }
        let ratio = best[1] / best[0];
        println!(
            "[{kname:>6}] fused {:>9}/head | per-key loop {:>9}/head | {ratio:.2}x",
            fmt_secs(best[0]),
            fmt_secs(best[1]),
        );
        for (path, secs) in ATT_PATHS.into_iter().zip(best) {
            rows.push(Json::obj([
                ("bench", Json::str("attention")),
                ("keys", Json::num_usize(ATT_KEYS)),
                ("width", Json::num_usize(ATT_WIDTH)),
                ("path", Json::str(path)),
                ("kernel", Json::str(kname)),
                ("seconds_per_head", Json::num_f64(secs)),
            ]));
        }
        att_ratio_by_mode.push((kname, ratio));
    }

    // One whole tiny encoder pass, as Stage 3 runs it per statement: the
    // tiny pipeline's transformer (d_model 16, two heads, 48 positions)
    // through `begin_decode`, which encodes and projects the
    // cross-attention K/V. An absolute row, under the detected ISA.
    const ENC_REPS: usize = 50;
    kernel::set_mode(Isa::detect());
    let tiny = Transformer::new(TransformerConfig {
        max_len: SRC_LEN,
        ..TransformerConfig::tiny(VOCAB)
    });
    let enc_src = tokens(401, SRC_LEN, 2, VOCAB);
    let enc_secs = min_secs(mm_samples, || {
        for _ in 0..ENC_REPS {
            std::hint::black_box(tiny.begin_decode(&enc_src));
        }
    }) / ENC_REPS as f64;
    let kname = Isa::detect().name();
    println!(
        "[{kname:>6}] tiny begin_decode (src len {SRC_LEN}): {}/pass",
        fmt_secs(enc_secs)
    );
    rows.push(Json::obj([
        ("bench", Json::str("encoder")),
        ("config", Json::str("tiny")),
        ("src_len", Json::num_usize(SRC_LEN)),
        ("kernel", Json::str(kname)),
        ("seconds_per_pass", Json::num_f64(enc_secs)),
    ]));

    kernel::set_mode(Isa::detect());
    vega_par::set_threads(0);

    // AVX2-vs-scalar ratios (1.0 when only one mode ran).
    let ratio = |xs: &[(&str, f64)]| -> f64 {
        match (
            xs.iter().find(|(k, _)| *k == "scalar"),
            xs.iter().find(|(k, _)| *k == "avx2"),
        ) {
            (Some((_, s)), Some((_, a))) => s / a,
            _ => 1.0,
        }
    };
    let mm_t: Vec<(&str, f64)> = mm_secs_by_mode.iter().map(|&(k, t, _)| (k, t)).collect();
    let mm_n: Vec<(&str, f64)> = mm_secs_by_mode.iter().map(|&(k, _, n)| (k, n)).collect();
    let matmul_speedup = ratio(&mm_t);
    let matmul_plain_speedup = ratio(&mm_n);
    let inv = |xs: &[(&'static str, f64)]| -> Vec<(&str, f64)> {
        xs.iter().map(|&(k, tps)| (k, 1.0 / tps)).collect()
    };
    let decode_small_speedup = ratio(&inv(&inc_tps_by_mode));
    let decode_wide1_speedup = ratio(&inv(&wide_tps_by_mode));
    let decode_speedup = ratio(&inv(&forks_tps_by_mode));
    if avx2_available() {
        println!(
            "avx2 vs scalar: matmul(transposed) {matmul_speedup:.2}x, matmul(plain) {matmul_plain_speedup:.2}x, decode(wide forks8) {decode_speedup:.2}x, decode(wide batch1) {decode_wide1_speedup:.2}x, decode(small) {decode_small_speedup:.2}x"
        );
        smoke_ok &= matmul_speedup >= AVX2_SPEEDUP_FLOOR;
        smoke_ok &= decode_speedup >= AVX2_DECODE_FLOOR;
    }
    let attention_speedup = att_ratio_by_mode
        .iter()
        .find(|(k, _)| *k == Isa::detect().name())
        .map_or(1.0, |&(_, r)| r);
    if avx2_available() {
        smoke_ok &= attention_speedup >= ATTENTION_FLOOR;
    }

    let out_path =
        std::env::var("VEGA_BENCH_OUT").unwrap_or_else(|_| "BENCH_decode.json".to_string());
    let doc = Json::obj([
        ("bench", Json::str("decode")),
        ("config", Json::str("small")),
        ("vocab", Json::num_usize(VOCAB)),
        ("src_len", Json::num_usize(SRC_LEN)),
        ("samples_per_point", Json::num_usize(samples)),
        ("results", Json::Arr(rows)),
        ("speedup_prefix96_threads1", Json::num_f64(speedup_p96_t1)),
        ("avx2_matmul_speedup", Json::num_f64(matmul_speedup)),
        ("avx2_decode_speedup", Json::num_f64(decode_speedup)),
        (
            "avx2_decode_speedup_batch1",
            Json::num_f64(decode_wide1_speedup),
        ),
        (
            "avx2_decode_speedup_small",
            Json::num_f64(decode_small_speedup),
        ),
        ("attention_speedup", Json::num_f64(attention_speedup)),
    ]);
    std::fs::write(&out_path, doc.render()).expect("write bench json");
    println!("wrote {out_path} (decode speedup at prefix 96, 1 thread: {speedup_p96_t1:.1}x)");
    if smoke_ok {
        println!("decode: smoke=ok");
    } else {
        println!(
            "decode: smoke=FAIL (incremental slower than graph at prefix 96, avx2 matmul under \
             {AVX2_SPEEDUP_FLOOR}x scalar, avx2 forks8 decode under {AVX2_DECODE_FLOOR}x, or \
             avx2 fused attention under {ATTENTION_FLOOR}x the per-key loop)"
        );
        std::process::exit(1);
    }
}
