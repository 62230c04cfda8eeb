//! Graph-path vs incremental (KV-cached) decode throughput, per kernel mode.
//!
//! Runs teacher-forced decodes of controlled length (prefix 8/32/96) through
//! both paths on the small transformer config at 1 and 4 threads, under
//! every kernel mode this CPU can run (`scalar` always, `avx2` when
//! detected — see `vega_nn::kernel`), reports tokens/sec, and writes a
//! machine-readable baseline to `BENCH_decode.json` (override the path with
//! `VEGA_BENCH_OUT`; `VEGA_DECODE_BENCH_FAST=1` shrinks the sample count for
//! the CI smoke run). A matmul section times the dot-heavy transposed
//! product and the axpy non-transposed product per mode, since those are the
//! two inner-loop shapes the kernel tier dispatches.
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
//! weight matrix in one forward — the candidate-scoring shape. A
//! logits-projection section times the dot-form (pre-transposed) output
//! projection against the axpy-form layout it replaces on AVX2.
//!
//! The timed workloads double as equivalence checks (incremental == graph
//! token streams within each mode, forked scores == per-candidate scores).
//! The run prints `decode: smoke=ok` only if the incremental path is at
//! least as fast as the graph path at prefix 96 in every mode and — when
//! AVX2 is available — the AVX2 kernel beats scalar by the floors below on
//! the transposed matmul and on `forks8`, and dot-form logits stay above
//! the trip-wire floor against axpy-form.

use std::time::Instant;
use vega_bench::fmt_secs;
use vega_nn::kernel::{self, avx2_available, KernelMode};
use vega_nn::{forced_pair, DecodeState, Tensor, Transformer, TransformerConfig};
use vega_obs::json::Json;

/// Smoke floor for AVX2-vs-scalar on the transposed matmul (measured
/// 5.5–6.8× here: the scalar dot is a serial dependency chain the
/// auto-vectorizer must preserve, so the fixed-tree AVX2 reduction wins
/// big). The gate sits far below the measurement so a noisy shared core
/// doesn't flake the build; the committed JSON carries the measured ratios.
const AVX2_SPEEDUP_FLOOR: f64 = 1.2;

/// Smoke floor for AVX2-vs-scalar on `forks8`, the many-row wide decode.
/// Decode is axpy-shaped (ascending-`k`, bit-identical across modes),
/// which the scalar build auto-vectorizes with SSE2 — and this host
/// executes 256-bit mul/add streams at barely above its 128-bit rate
/// (plain matmul measures ~1.2× too), so ~1.1–1.3× *is* the honest decode
/// ratio here. The gate only guards against AVX2 regressing below scalar.
const AVX2_DECODE_FLOOR: f64 = 1.05;

/// Smoke floor for dot-form-vs-axpy logits projection on AVX2 (the form
/// `kernel::dot_form_logits` switches to there). Both forms stream the same
/// weight bytes, so the matvec is bandwidth-bound and the AVX2 ratio
/// hovers around parity (0.9–1.2× run to run on this shared core) — the
/// headline dot-form win is AVX2-vs-scalar on the transposed shape
/// (`AVX2_SPEEDUP_FLOOR`), not dot-vs-axpy within AVX2. Scalar measures
/// ~0.27× (the serial dot chain loses badly, which is why the switch is
/// ISA-gated). The floor is a trip-wire: if the AVX2 ratio ever drops
/// toward the scalar number, the fixed-tree dot kernel stopped being
/// dispatched.
const DOT_FORM_FLOOR: f64 = 0.6;

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

fn available_modes() -> Vec<KernelMode> {
    if avx2_available() {
        vec![KernelMode::Scalar, KernelMode::Avx2]
    } else {
        println!("(CPU lacks AVX2; benching scalar only)");
        vec![KernelMode::Scalar]
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

    println!("== decode (small config, vocab {VOCAB}, src len {SRC_LEN}) ==");
    for mode in available_modes() {
        let isa = kernel::set_mode(mode);
        let kname = isa.name();
        for &threads in &[1usize, 4] {
            vega_par::set_threads(threads);
            for &prefix in &[8usize, 32, 96] {
                let feed = &feed[..prefix];
                // The timed workloads are also an equivalence check.
                let reference = model.forced_steps(&src, feed);
                assert_eq!(
                    reference,
                    model.forced_steps_graph(&src, feed),
                    "incremental and graph decode diverged \
                     (kernel {kname}, prefix {prefix}, {threads} threads)"
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
                    "[{kname:>6}] prefix {prefix:>2}, {threads} thread(s): incremental {:>9}/decode ({inc_tps:>9.0} tok/s) | graph {:>9}/decode ({graph_tps:>8.0} tok/s) | speedup {speedup:.1}x",
                    fmt_secs(inc_secs),
                    fmt_secs(graph_secs),
                );
                for (path, secs, tps) in [
                    ("incremental", inc_secs, inc_tps),
                    ("graph", graph_secs, graph_tps),
                ] {
                    rows.push(Json::obj([
                        ("prefix", Json::num_usize(prefix)),
                        ("threads", Json::num_usize(threads)),
                        ("path", Json::str(path)),
                        ("kernel", Json::str(kname)),
                        ("seconds_per_decode", Json::num_f64(secs)),
                        ("tokens_per_sec", Json::num_f64(tps)),
                    ]));
                }
                if prefix == 96 {
                    if threads == 1 {
                        speedup_p96_t1 = speedup;
                        inc_tps_by_mode.push((kname, inc_tps));
                    }
                    smoke_ok &= inc_tps >= graph_tps;
                }
            }
        }
        vega_par::set_threads(1);
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
        // Equivalence check once per mode before timing.
        for &mode in &modes {
            let kname = kernel::set_mode(mode).name();
            let reference = wide.forced_steps(&wide_src, &wide_feed);
            assert_eq!(
                reference,
                wide.forced_steps_graph(&wide_src, &wide_feed),
                "incremental and graph decode diverged (wide config, kernel {kname})"
            );
        }
        // One encoded state per mode, encoded under that mode and outside
        // the timed region: `forks8` times the candidate forward alone. Its
        // scores must match one `forced_logprob` per candidate.
        let mut states: Vec<DecodeState> = Vec::new();
        for &mode in &modes {
            let kname = kernel::set_mode(mode).name();
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
            states.push(st);
        }
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
            let kname = kernel::set_mode(mode).name();
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
    // AVX2 fixed-tree reduction — the big win); non-transposed products are
    // ascending-k axpy chains (bit-identical across modes, vectorized over
    // the output row).
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
        let isa = kernel::set_mode(mode);
        let kname = isa.name();
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

    // Dot-form logits micro-bench: the per-token output projection
    // `h(1×d) · W_out` in its two layouts. Axpy form streams `W` (d×vocab)
    // with ascending-k accumulator updates; dot form streams the
    // pre-transposed `Wᵀ` (vocab×d) with one fixed-tree dot per logit —
    // the layout `kernel::dot_form_logits` switches decode to on AVX2.
    // Scalar is recorded too: its serial dot chain *loses* to the
    // auto-vectorized axpy, which is exactly why the switch is ISA-gated.
    const LOGITS_D: usize = 128;
    const LOGITS_REPS: usize = 256;
    println!("== logits projection (1x{LOGITS_D} · {LOGITS_D}x{WIDE_VOCAB}, {LOGITS_REPS} reps, 1 thread) ==");
    let h = Tensor::from_vec(
        1,
        LOGITS_D,
        (0..LOGITS_D)
            .map(|i| ((i % 13) as f32) * 0.03 - 0.2)
            .collect(),
    );
    let w_axpy = Tensor::from_vec(
        LOGITS_D,
        WIDE_VOCAB,
        (0..LOGITS_D * WIDE_VOCAB)
            .map(|i| ((i * 11 % 29) as f32) * 0.02 - 0.3)
            .collect(),
    );
    let w_dot = Tensor::from_vec(
        WIDE_VOCAB,
        LOGITS_D,
        (0..WIDE_VOCAB * LOGITS_D)
            .map(|i| ((i * 11 % 29) as f32) * 0.02 - 0.3)
            .collect(),
    );
    let mut dot_form_speedup = 1.0f64;
    for mode in available_modes() {
        let kname = kernel::set_mode(mode).name();
        // Interleave the two forms round-robin (as in the wide-decode
        // section): timing all of one form's samples before the other's
        // lets a steal burst land on one side of the ratio. Round 0 is
        // warm-up.
        let (mut axpy_secs, mut dot_secs) = (f64::INFINITY, f64::INFINITY);
        for round in 0..mm_samples + 1 {
            let t0 = Instant::now();
            for _ in 0..LOGITS_REPS {
                std::hint::black_box(h.matmul(&w_axpy, false));
            }
            let a = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            for _ in 0..LOGITS_REPS {
                std::hint::black_box(h.matmul(&w_dot, true));
            }
            let d = t0.elapsed().as_secs_f64();
            if round > 0 {
                axpy_secs = axpy_secs.min(a);
                dot_secs = dot_secs.min(d);
            }
        }
        let gain = axpy_secs / dot_secs;
        println!(
            "[{kname:>6}] axpy-form {:>9}/proj | dot-form {:>9}/proj | dot-form gain {gain:.2}x",
            fmt_secs(axpy_secs / LOGITS_REPS as f64),
            fmt_secs(dot_secs / LOGITS_REPS as f64),
        );
        for (form, secs) in [("axpy", axpy_secs), ("dot", dot_secs)] {
            rows.push(Json::obj([
                ("bench", Json::str("logits_projection")),
                ("d_model", Json::num_usize(LOGITS_D)),
                ("vocab", Json::num_usize(WIDE_VOCAB)),
                ("form", Json::str(form)),
                ("threads", Json::num_usize(1)),
                ("kernel", Json::str(kname)),
                (
                    "seconds_per_projection",
                    Json::num_f64(secs / LOGITS_REPS as f64),
                ),
            ]));
        }
        if kname == "avx2" {
            dot_form_speedup = gain;
            smoke_ok &= gain >= DOT_FORM_FLOOR;
        }
    }
    kernel::set_mode(KernelMode::Auto);
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
    println!("dot-form logits {dot_form_speedup:.2}x axpy on avx2");

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
        ("dot_form_logits_speedup", Json::num_f64(dot_form_speedup)),
    ]);
    std::fs::write(&out_path, doc.render()).expect("write bench json");
    println!("wrote {out_path} (decode speedup at prefix 96, 1 thread: {speedup_p96_t1:.1}x)");
    if smoke_ok {
        println!("decode: smoke=ok");
    } else {
        println!(
            "decode: smoke=FAIL (incremental slower than graph at prefix 96, avx2 matmul under \
             {AVX2_SPEEDUP_FLOOR}x scalar, avx2 forks8 decode under {AVX2_DECODE_FLOOR}x, or \
             dot-form logits under {DOT_FORM_FLOOR}x axpy on avx2)"
        );
        std::process::exit(1);
    }
}
