//! Kernel conformance: pins the one contract of `crates/nn/src/kernel.rs`
//! — every ISA returns `ScalarKernel`'s bits.
//!
//! One class of property, checked over Mix64-driven randomized vectors
//! (lengths straddling 0 / 1 / K_TILE±1 / the 8- and 32-lane block widths /
//! large, with exact zeros of both signs and subnormals mixed in; the
//! cross-ISA checks also draw magnitudes up to ~1e6): `Avx2Kernel` agrees
//! with `ScalarKernel` *bit for bit* on all eight `Kernel` ops, and so do the
//! row ops built on them (`row_matmul_into`, `layer_norm_row`, the
//! masked-softmax prefix identity, and the fused `attention`) under each
//! kernel mode. `dot_panel` must be one `dot` per key, zeros' signs
//! included, and `attention` must equal the per-key loop it replaced (one
//! `dot` per key, `softmax_row`, `row_matmul_into`) at head widths 8–128
//! and 1–48 keys, with rows whose `exp` underflows to exact zeros.
//!
//! Bit equality alone would accept two equal wrong answers, so
//! `ScalarKernel`'s sums are also checked against an f64 reference with a
//! bound scaled by the magnitude sum of the terms: that shows the lane tree
//! computes the sum at all.
//!
//! On machines without AVX2 the cross-ISA checks log a notice and are
//! skipped; the f64 reference checks still run.
//!
//! The mode-level tests at the bottom flip the process-global kernel mode
//! with `set_mode`; they serialize through `MODE_LOCK` because the global is
//! shared by every test thread in this binary.

use std::sync::{Mutex, MutexGuard};
use vega_corpus::Mix64;
use vega_nn::kernel::{self, avx2_available, Avx2Kernel, Isa, Kernel, ScalarKernel, K_TILE};

/// Serializes tests that touch the process-global kernel mode.
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Acquires the mode lock (poison-tolerant: a prior panic must not cascade)
/// and returns a guard that restores the detected ISA on drop.
fn mode_guard() -> (MutexGuard<'static, ()>, ModeRestore) {
    let guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    (guard, ModeRestore)
}

struct ModeRestore;

impl Drop for ModeRestore {
    fn drop(&mut self) {
        kernel::set_mode(Isa::detect());
    }
}

/// The AVX2 kernel, or `None` (with one logged notice) when the CPU lacks
/// AVX2 and the cross-ISA half of the suite degenerates.
fn avx2_or_notice(test: &str) -> Option<Avx2Kernel> {
    let k = Avx2Kernel::new();
    if k.is_none() {
        eprintln!("kernel_conformance::{test}: CPU lacks AVX2; cross-ISA checks skipped");
    }
    k
}

/// Vector lengths that straddle every structural boundary in the kernels:
/// empty, single, the K_TILE (= 8-lane) edge, the 32-element 4-accumulator
/// block edge, and sizes large enough to exercise all loops plus tails.
const LENGTHS: &[usize] = &[
    0,
    1,
    2,
    K_TILE - 1,
    K_TILE,
    K_TILE + 1,
    31,
    32,
    33,
    63,
    64,
    65,
    100,
    1024,
    1027,
];

/// A uniform f32 in [0, 1).
fn unit(rng: &mut Mix64) -> f32 {
    rng.next_u64() as f32 / u64::MAX as f32
}

/// A randomized f32 in roughly [-2, 2), with exact zeros of both signs (the
/// callers' zero-skip must see real zeros) and occasional subnormal
/// magnitudes (no ISA may flush them differently). The f64-reference and
/// masked-softmax checks draw only from this: a few huge terms would widen
/// the magnitude-scaled bound until dropping ordinary terms passed, and one
/// large score would turn most softmax rows one-hot.
fn gen_value(rng: &mut Mix64) -> f32 {
    match rng.below(10) {
        0 => 0.0,
        1 => -0.0,
        2 => {
            // Subnormal: tiny fixed scale times a small integer.
            let m = rng.range(1, 255) as f32;
            m * 1.0e-41
        }
        _ => (unit(rng) - 0.5) * 4.0,
    }
}

/// [`gen_value`] with one draw in 12 widened to a magnitude up to ~1e6,
/// which stresses rounding and absorption in every lane order. Only the
/// bit-for-bit cross-ISA checks use it; they have no bound to widen.
fn gen_wide_value(rng: &mut Mix64) -> f32 {
    if rng.below(12) == 0 {
        (unit(rng) - 0.5) * 2.0e6
    } else {
        gen_value(rng)
    }
}

fn gen_vec(rng: &mut Mix64, n: usize) -> Vec<f32> {
    (0..n).map(|_| gen_value(rng)).collect()
}

fn gen_wide_vec(rng: &mut Mix64, n: usize) -> Vec<f32> {
    (0..n).map(|_| gen_wide_value(rng)).collect()
}

/// `|got - want_f64| ≤ 1e-5 · Σ|termᵢ| + 1e-12`: absolute floor for
/// near-zero results, magnitude-sum scaling so cancellation does not turn
/// the bound vacuous.
fn assert_close(got: f32, want: f64, mag: f64, what: &str) {
    let bound = 1e-5 * mag + 1e-12;
    let err = (f64::from(got) - want).abs();
    assert!(
        err <= bound,
        "{what}: got {got}, f64 reference {want}, err {err:.3e} > bound {bound:.3e}"
    );
}

/// Asserts two slices hold the same bits, lane by lane.
fn assert_bits(scalar: &[f32], avx2: &[f32], what: &str) {
    assert_eq!(scalar.len(), avx2.len(), "{what}: lengths");
    for (i, (s, a)) in scalar.iter().zip(avx2).enumerate() {
        assert_eq!(
            s.to_bits(),
            a.to_bits(),
            "{what} lane {i}: scalar {s} vs avx2 {a}"
        );
    }
}

#[test]
fn dot_matches_f64_reference_within_tolerance() {
    let mut rng = Mix64::keyed(0xC0DE, "conformance/dot");
    for &n in LENGTHS {
        for rep in 0..8 {
            let a = gen_vec(&mut rng, n);
            let b = gen_vec(&mut rng, n);
            let mut want = 0.0f64;
            let mut mag = 0.0f64;
            for (&x, &y) in a.iter().zip(&b) {
                let t = f64::from(x) * f64::from(y);
                want += t;
                mag += t.abs();
            }
            let s = ScalarKernel.dot(&a, &b);
            assert_close(s, want, mag, &format!("scalar dot n={n} rep={rep}"));
        }
    }
    // Empty slices reduce to exactly +0.0.
    assert_eq!(ScalarKernel.dot(&[], &[]).to_bits(), 0.0f32.to_bits());
}

#[test]
fn sum_and_sq_diff_sum_match_f64_reference_within_tolerance() {
    let mut rng = Mix64::keyed(0xC0DE, "conformance/sum");
    for &n in LENGTHS {
        for rep in 0..8 {
            let x = gen_vec(&mut rng, n);
            let want: f64 = x.iter().map(|&v| f64::from(v)).sum();
            let mag: f64 = x.iter().map(|&v| f64::from(v).abs()).sum();
            let s = ScalarKernel.sum(&x);
            assert_close(s, want, mag, &format!("scalar sum n={n} rep={rep}"));

            // Layer-norm variance numerator around the actual mean, the way
            // layer_norm_row calls it.
            if n > 0 {
                let mean = s / n as f32;
                let want_sq: f64 = x
                    .iter()
                    .map(|&v| {
                        let d = f64::from(v) - f64::from(mean);
                        d * d
                    })
                    .sum();
                let sq_s = ScalarKernel.sq_diff_sum(&x, mean);
                assert_close(
                    sq_s,
                    want_sq,
                    want_sq,
                    &format!("scalar sq_diff_sum n={n} rep={rep}"),
                );
            }
        }
    }
}

#[test]
fn reductions_are_bit_identical_across_isas() {
    let Some(avx2) = avx2_or_notice("reductions") else {
        return;
    };
    let mut rng = Mix64::keyed(0xC0DE, "conformance/reductions");
    for &n in LENGTHS {
        for rep in 0..8 {
            let a = gen_wide_vec(&mut rng, n);
            let b = gen_wide_vec(&mut rng, n);
            let mean = gen_wide_value(&mut rng);
            let ops: [(&str, f32, f32); 4] = [
                ("dot", ScalarKernel.dot(&a, &b), avx2.dot(&a, &b)),
                ("sum", ScalarKernel.sum(&a), avx2.sum(&a)),
                (
                    "sq_diff_sum",
                    ScalarKernel.sq_diff_sum(&a, mean),
                    avx2.sq_diff_sum(&a, mean),
                ),
                ("max", ScalarKernel.max(&a), avx2.max(&a)),
            ];
            for (op, s, v) in ops {
                assert_bits(&[s], &[v], &format!("{op} n={n} rep={rep}"));
            }
        }
    }
}

#[test]
fn axpy_is_bit_identical_across_isas() {
    let Some(avx2) = avx2_or_notice("axpy") else {
        return;
    };
    let mut rng = Mix64::keyed(0xC0DE, "conformance/axpy");
    for &n in LENGTHS {
        for _ in 0..8 {
            let a = gen_wide_value(&mut rng);
            let x = gen_wide_vec(&mut rng, n);
            let base = gen_wide_vec(&mut rng, n);
            let mut s_out = base.clone();
            ScalarKernel.axpy(a, &x, &mut s_out);
            let mut a_out = base.clone();
            avx2.axpy(a, &x, &mut a_out);
            assert_bits(&s_out, &a_out, &format!("axpy n={n}"));
        }
    }
}

#[test]
fn fma_tile_is_bit_identical_across_isas_and_to_sequential_axpy() {
    let avx2 = avx2_or_notice("fma_tile");
    let mut rng = Mix64::keyed(0xC0DE, "conformance/fma_tile");
    for &n in LENGTHS {
        for _ in 0..8 {
            let avs: [f32; K_TILE] = std::array::from_fn(|_| gen_wide_value(&mut rng));
            let row_data: Vec<Vec<f32>> = (0..K_TILE).map(|_| gen_wide_vec(&mut rng, n)).collect();
            let rows: [&[f32]; K_TILE] = std::array::from_fn(|t| row_data[t].as_slice());
            let base = gen_wide_vec(&mut rng, n);

            let mut s_out = base.clone();
            ScalarKernel.fma_tile(&avs, &rows, &mut s_out);

            // The fused step is defined as the same rounding sequence as
            // K_TILE sequential axpy calls on finite data.
            let mut seq_out = base.clone();
            for (t, row) in rows.iter().enumerate() {
                ScalarKernel.axpy(avs[t], row, &mut seq_out);
            }
            for (i, (f, q)) in s_out.iter().zip(&seq_out).enumerate() {
                assert_eq!(
                    f.to_bits(),
                    q.to_bits(),
                    "fma_tile n={n} lane {i}: fused {f} vs sequential axpy {q}"
                );
            }

            if let Some(v) = &avx2 {
                let mut a_out = base.clone();
                v.fma_tile(&avs, &rows, &mut a_out);
                assert_bits(&s_out, &a_out, &format!("fma_tile n={n}"));
            }
        }
    }
}

#[test]
fn max_returns_an_exact_input_element() {
    let mut rng = Mix64::keyed(0xC0DE, "conformance/max");
    for &n in LENGTHS {
        for _ in 0..8 {
            let x = gen_vec(&mut rng, n);
            let s = ScalarKernel.max(&x);
            if n == 0 {
                assert_eq!(s, f32::NEG_INFINITY);
            } else {
                assert!(
                    x.iter().any(|&v| v.to_bits() == s.to_bits()),
                    "scalar max {s} not an input element"
                );
                assert!(x.iter().all(|&v| v <= s), "scalar max {s} not the max");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Mode-level properties (process-global kernel mode; serialized)
// ---------------------------------------------------------------------------

#[test]
fn row_matmul_is_bit_identical_across_modes() {
    let _guard = mode_guard();
    if avx2_or_notice("row_matmul").is_none() {
        return;
    }
    let mut rng = Mix64::keyed(0xC0DE, "conformance/row_matmul");
    for &(kdim, odim) in &[(1usize, 1usize), (7, 5), (8, 8), (33, 17), (64, 40)] {
        let a = gen_wide_vec(&mut rng, kdim);
        let b = vega_nn::Tensor::from_vec(kdim, odim, gen_wide_vec(&mut rng, kdim * odim));
        let mut s_out = vec![0.0f32; odim];
        kernel::set_mode(Isa::Scalar);
        kernel::row_matmul_into(&a, &b, &mut s_out);
        let mut a_out = vec![0.0f32; odim];
        kernel::set_mode(Isa::Avx2);
        kernel::row_matmul_into(&a, &b, &mut a_out);
        assert_bits(&s_out, &a_out, &format!("row_matmul {kdim}x{odim}"));
    }
}

#[test]
fn masked_softmax_prefix_stays_exact_in_every_mode() {
    let _guard = mode_guard();
    let isas: &[Isa] = if avx2_available() {
        &[Isa::Scalar, Isa::Avx2]
    } else {
        eprintln!("kernel_conformance::softmax: CPU lacks AVX2; checking scalar only");
        &[Isa::Scalar]
    };
    let mut rng = Mix64::keyed(0xC0DE, "conformance/softmax");
    for &isa in isas {
        kernel::set_mode(isa);
        let isa = isa.name();
        for &live in &[1usize, 3, 8, 9, 31, 40] {
            let scores: Vec<f32> = (0..live).map(|_| gen_value(&mut rng)).collect();
            // Graph path: full row, masked lanes pushed to -1e9 so exp
            // underflows them to exact zero.
            let masked_tail = rng.range(0, 16) as usize;
            let mut masked = scores.clone();
            masked.extend((0..masked_tail).map(|_| gen_value(&mut rng) + -1e9));
            kernel::softmax_row(&mut masked);
            // Decode path: live prefix only.
            let mut prefix = scores.clone();
            kernel::softmax_row(&mut prefix);
            for (i, (p, m)) in prefix.iter().zip(&masked).enumerate() {
                assert_eq!(
                    p.to_bits(),
                    m.to_bits(),
                    "{isa} live={live} tail={masked_tail} lane {i}: prefix {p} vs masked {m}"
                );
            }
            for (i, m) in masked[live..].iter().enumerate() {
                assert_eq!(
                    m.to_bits(),
                    0.0f32.to_bits(),
                    "{isa} masked lane {i} not exactly zero: {m}"
                );
            }
        }
    }
}

#[test]
fn layer_norm_row_is_bit_identical_across_modes() {
    let _guard = mode_guard();
    if avx2_or_notice("layer_norm").is_none() {
        return;
    }
    let mut rng = Mix64::keyed(0xC0DE, "conformance/layer_norm");
    for &d in &[1usize, 8, 16, 40, 64, 100] {
        let x = gen_wide_vec(&mut rng, d);
        let gain = gen_wide_vec(&mut rng, d);
        let bias = gen_wide_vec(&mut rng, d);
        let mut s_out = vec![0.0f32; d];
        kernel::set_mode(Isa::Scalar);
        let (s_mean, s_std) = kernel::layer_norm_row(&x, &gain, &bias, &mut s_out);
        let mut a_out = vec![0.0f32; d];
        kernel::set_mode(Isa::Avx2);
        let (a_mean, a_std) = kernel::layer_norm_row(&x, &gain, &bias, &mut a_out);
        assert_bits(
            &[s_mean, s_std],
            &[a_mean, a_std],
            &format!("d={d} (mean, std)"),
        );
        assert_bits(&s_out, &a_out, &format!("layer_norm d={d}"));
    }
}

// ---------------------------------------------------------------------------
// Attention: the panel dots, the value sum and the fused op
// ---------------------------------------------------------------------------

/// Head widths the attention checks cover: panel widths with and without
/// a tail past the 8-element blocks, and row widths from the panel limit
/// up.
const HEAD_WIDTHS: &[usize] = &[8, 16, 20, 24, 32, 64, 128];

/// Key counts around the 8-key panel edge, plus the tiny pipeline's
/// 47-position encoder rows and a full 48.
const KEY_COUNTS: &[usize] = &[1, 7, 8, 9, 47, 48];

/// `keys[l]` laid out as one panel: element `c` of key `l` at `8 * c + l`.
fn panel_of(keys: &[Vec<f32>], width: usize) -> Vec<f32> {
    let mut panel = vec![0.0f32; 8 * width];
    for (l, key) in keys.iter().enumerate() {
        for (c, &x) in key.iter().enumerate() {
            panel[8 * c + l] = x;
        }
    }
    panel
}

#[test]
fn dot_panel_is_one_dot_per_key_in_every_isa() {
    let avx2 = avx2_or_notice("dot_panel");
    let mut rng = Mix64::keyed(0xC0DE, "conformance/dot_panel");
    for width in [0usize, 1, 3, 7, 8, 9, 13, 16, 20, 24, 31] {
        for rep in 0..12 {
            let q = gen_wide_vec(&mut rng, width);
            let mut keys: Vec<Vec<f32>> = (0..8).map(|_| gen_wide_vec(&mut rng, width)).collect();
            // Keys whose every product with `q` is a zero of either sign:
            // `dot` returns +0.0 for them, whatever the signs.
            keys[0] = q
                .iter()
                .map(|&x| if x > 0.0 { -0.0 } else { 0.0 })
                .collect();
            keys[1] = vec![-0.0; width];
            let panel = panel_of(&keys, width);
            let want: Vec<f32> = keys.iter().map(|k| ScalarKernel.dot(&q, k)).collect();
            let mut got = [0.0f32; 8];
            ScalarKernel.dot_panel(&q, &panel, &mut got);
            assert_bits(
                &want,
                &got,
                &format!("scalar dot_panel width={width} rep={rep}"),
            );
            if let Some(v) = &avx2 {
                let mut got = [0.0f32; 8];
                v.dot_panel(&q, &panel, &mut got);
                assert_bits(&want, &got, &format!("dot_panel width={width} rep={rep}"));
            }
        }
    }
}

#[test]
fn weighted_sum_is_the_zero_skipping_axpy_loop_in_every_isa() {
    let avx2 = avx2_or_notice("weighted_sum");
    let mut rng = Mix64::keyed(0xC0DE, "conformance/weighted_sum");
    for &width in &[1usize, 7, 8, 9, 16, 20, 24, 32, 33, 40, 64, 128] {
        for &n in &[0usize, 1, 7, 8, 9, 47, 48] {
            let w = gen_wide_vec(&mut rng, n);
            let rows = gen_wide_vec(&mut rng, n * width);
            let mut want = vec![0.0f32; width];
            for (k, &wk) in w.iter().enumerate() {
                if wk != 0.0 {
                    ScalarKernel.axpy(wk, &rows[k * width..(k + 1) * width], &mut want);
                }
            }
            let mut got = vec![f32::NAN; width];
            ScalarKernel.weighted_sum(&w, &rows, &mut got);
            assert_bits(&want, &got, &format!("scalar weighted_sum {n}x{width}"));
            if let Some(v) = &avx2 {
                let mut got = vec![f32::NAN; width];
                v.weighted_sum(&w, &rows, &mut got);
                assert_bits(&want, &got, &format!("weighted_sum {n}x{width}"));
            }
        }
    }
}

/// The per-key loop the fused op replaced, for one query row: one
/// `kernel::dot` per key times `scale`, `softmax_row`, then
/// `row_matmul_into` over the value rows.
fn attention_per_key(
    q: &[f32],
    k: &vega_nn::Tensor,
    v: &vega_nn::Tensor,
    n: usize,
    scale: f32,
) -> Vec<f32> {
    let mut scores: Vec<f32> = (0..n).map(|j| kernel::dot(q, k.row(j)) * scale).collect();
    kernel::softmax_row(&mut scores);
    let mut out = vec![0.0f32; v.cols];
    kernel::row_matmul_into(&scores, v, &mut out);
    out
}

#[test]
fn attention_matches_the_per_key_loop_in_every_mode() {
    let _guard = mode_guard();
    let isas: &[Isa] = if avx2_available() {
        &[Isa::Scalar, Isa::Avx2]
    } else {
        eprintln!("kernel_conformance::attention: CPU lacks AVX2; checking scalar only");
        &[Isa::Scalar]
    };
    const ROWS: usize = 3;
    const GAP: usize = 5;
    let mut rng = Mix64::keyed(0xC0DE, "conformance/attention");
    let mut underflowed = 0usize;
    for &width in HEAD_WIDTHS {
        for &n in KEY_COUNTS {
            // Three keys past `n`, as in a decoder cache whose later rows a
            // causal prefix does not read.
            let held = n + 3;
            let mut kdata = gen_vec(&mut rng, held * width);
            // A key of negative zeros: every product with it is a zero.
            kdata[..width].fill(-0.0);
            let k = vega_nn::Tensor::from_vec(held, width, kdata);
            let v = vega_nn::Tensor::from_vec(held, width, gen_vec(&mut rng, held * width));
            let q = gen_vec(&mut rng, ROWS * width);
            let keys = kernel::Keys::from_rows(&k);
            assert_eq!(keys.len(), held);
            // The model's scale, and a steep one under which most keys'
            // exp underflows to an exact zero that the value sum skips.
            for scale in [1.0 / (width as f32).sqrt(), 80.0] {
                kernel::set_mode(Isa::Scalar);
                let want: Vec<Vec<f32>> = (0..ROWS)
                    .map(|r| attention_per_key(&q[r * width..(r + 1) * width], &k, &v, n, scale))
                    .collect();
                let mut probs: Vec<f32> = (0..n)
                    .map(|j| kernel::dot(&q[..width], k.row(j)) * scale)
                    .collect();
                kernel::softmax_row(&mut probs);
                underflowed += probs.iter().filter(|&&p| p == 0.0).count();
                for &isa in isas {
                    kernel::set_mode(isa);
                    let stride = width + GAP;
                    let mut out = vec![7.5f32; ROWS * stride];
                    let mut scores = vec![0.0f32; held];
                    kernel::attention(&q, &keys, &v, n, scale, &mut scores, &mut out, stride);
                    for (r, want) in want.iter().enumerate() {
                        let what = format!(
                            "{} attention width={width} n={n} scale={scale} row {r}",
                            isa.name()
                        );
                        assert_bits(want, &out[r * stride..r * stride + width], &what);
                        if r + 1 < ROWS {
                            let gap = &out[r * stride + width..(r + 1) * stride];
                            assert!(gap.iter().all(|&x| x == 7.5), "{what}: wrote past its row");
                        }
                    }
                }
            }
        }
    }
    assert!(underflowed > 0, "no softmax lane underflowed to zero");
}

#[test]
fn keys_pushed_one_at_a_time_equal_keys_from_rows() {
    let _guard = mode_guard();
    let mut rng = Mix64::keyed(0xC0DE, "conformance/keys");
    for &width in &[8usize, 20, 64] {
        let n = 11;
        let k = vega_nn::Tensor::from_vec(n, width, gen_vec(&mut rng, n * width));
        let v = vega_nn::Tensor::from_vec(n, width, gen_vec(&mut rng, n * width));
        let q = gen_vec(&mut rng, width);
        let whole = kernel::Keys::from_rows(&k);
        let mut grown = kernel::Keys::with_capacity(width, 2);
        // Stale keys from an earlier use must not survive `clear`.
        grown.push(&vec![3.0; width]);
        grown.clear();
        let mut fork = kernel::Keys::with_capacity(width, 0);
        for j in 0..n {
            grown.push(k.row(j));
            fork.clone_from(&grown);
            let mut scores = vec![0.0f32; n];
            let (mut a, mut b, mut c) = (
                vec![0.0f32; width],
                vec![0.0f32; width],
                vec![0.0f32; width],
            );
            kernel::attention(&q, &whole, &v, j + 1, 0.5, &mut scores, &mut a, width);
            kernel::attention(&q, &grown, &v, j + 1, 0.5, &mut scores, &mut b, width);
            kernel::attention(&q, &fork, &v, j + 1, 0.5, &mut scores, &mut c, width);
            assert_bits(&a, &b, &format!("grown keys width={width} n={}", j + 1));
            assert_bits(&a, &c, &format!("forked keys width={width} n={}", j + 1));
        }
    }
}
