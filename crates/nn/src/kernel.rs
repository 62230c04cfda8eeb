//! The SIMD kernel tier: one home for the inner-loop math, with runtime ISA
//! dispatch.
//!
//! Every hot f32 loop in the crate routes through the [`Kernel`] trait
//! defined here: the two matmul loops, [`row_matmul_into`] for one row and
//! the k-tiled `rows_matmul_into` for several (the decoder forward and
//! every `A·B` of [`Tensor::matmul`](crate::Tensor::matmul) run them), the
//! transposed products' dot, one head's fused [`attention`], and the
//! softmax/layer-norm reductions. Two implementations exist:
//!
//! * [`ScalarKernel`] — portable Rust, and the statement of the order every
//!   op accumulates in (the callers add the exact `a == 0.0` skip).
//! * [`Avx2Kernel`] — `std::arch::x86_64` AVX2 intrinsics, selected at
//!   runtime via `is_x86_feature_detected!("avx2")`. On every other
//!   architecture (or when detection fails) the scalar kernel serves.
//!
//! # Dispatch
//!
//! [`active`] picks AVX2 when the CPU has it and scalar otherwise;
//! [`set_mode`] switches ISA in process for tests and benches. Each public
//! op reads the ISA once per call. The loops — [`row_matmul_into`],
//! `rows_matmul_into`, the `A·Bᵀ` loop of `Tensor::matmul` and
//! [`attention`] — are generic `#[inline(always)]` bodies over `K: Kernel`,
//! and the AVX2 arm enters its body through one
//! `#[target_feature(enable = "avx2")]` function. The whole loop is then
//! compiled for AVX2 and the kernel's primitives inline into it; without
//! that, each primitive stays an out-of-line call, which costs more than
//! the arithmetic on 8- and 16-wide rows. Only `avx2` is enabled, never
//! `fma`: Rust never contracts `a * b + c`, so the scalar code inside the
//! region rounds exactly as it does outside.
//!
//! # Determinism contract
//!
//! Every kernel op returns [`ScalarKernel`]'s bits for every input, so
//! generation is a pure function of (weights, input) under either ISA and
//! at any thread count; the ISA changes only speed. Transcendental
//! functions (`exp`, `ln`, `tanh`, `powf`) are not kernel ops: they come
//! from the platform libm, which this contract does not cover.
//!
//! * [`Kernel::axpy`], [`Kernel::fma_tile`] and [`Kernel::weighted_sum`]
//!   vectorize over the *output* dimension only: each output element
//!   receives separately-rounded multiply-then-add contributions in
//!   ascending order (no FMA contraction).
//! * [`Kernel::dot`], [`Kernel::sum`] and [`Kernel::sq_diff_sum`] accumulate
//!   in one fixed lane order that depends only on the length: four 8-lane
//!   accumulators over 32-element blocks, single 8-element blocks into
//!   accumulator 0, one fixed horizontal tree, then the remaining elements
//!   in sequence. [`Kernel::dot_panel`] is eight such dots, one per key of a
//!   transposed panel. [`Kernel::max`] keeps 8 lanes under `_mm256_max_ps`'s
//!   rule. The scalar kernel spells these orders out in portable Rust
//!   without `mul_add`: Rust never fuses `a * b + c`, so each step rounds
//!   like `_mm256_mul_ps` followed by `_mm256_add_ps`.
//! * [`attention`] is, per query row, the graph path's sequence: one
//!   `dot(q, k_j) * scale` per key, [`softmax_row`], then the value sum
//!   `Σ_j p_j · v_j` in ascending `j` with the exact zero-skip
//!   ([`row_matmul_into`]'s order). Heads narrower than [`PANEL_WIDTH`]
//!   score eight keys per [`Kernel::dot_panel`] call, and the value sum
//!   holds its output in registers; neither moves a bit.
//! * The graph path and every decode path (single step, multi-position and
//!   forked, all one decoder forward) stay bit-identical to each other:
//!   every path calls the same kernel ops over the same slices. The
//!   masked-softmax prefix trick (exp-underflowed lanes are exact zeros and
//!   must be no-ops) is why [`softmax_row`]'s exp-sum stays sequential — a
//!   lane-tree sum over a zero tail would *not* be a structural no-op.
//!
//! `crates/nn/tests/kernel_conformance.rs` compares the two kernels op by
//! op, bit for bit; the root `tests/contracts.rs` compares whole models
//! trained and decoded under each ISA.

// The AVX2 implementation is the one place (besides `storage`) that needs
// `unsafe`: `#[target_feature]` functions and raw-pointer loads/stores.
#![allow(unsafe_code)]

use crate::tensor::Tensor;
use std::sync::atomic::{AtomicU8, Ordering};

/// `k`-dimension block width of the k-tiled multi-row matmul (see
/// [`Kernel::fma_tile`]).
pub const K_TILE: usize = 8;

/// Heads narrower than this keep their keys in transposed 8-key panels and
/// score them with [`Kernel::dot_panel`]; wider heads keep key rows and take
/// one [`Kernel::dot`] per key. Under 32 elements `dot` fills one 8-lane
/// accumulator, so a panel needs only eight vector accumulators.
pub const PANEL_WIDTH: usize = 32;

// ---------------------------------------------------------------------------
// Mode selection
// ---------------------------------------------------------------------------

/// The ISA every kernel op dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar loops.
    Scalar,
    /// 8-lane AVX2 (runtime-detected; `x86_64` only).
    Avx2,
}

impl Isa {
    /// Stable lowercase name (printed in startup logs and bench rows).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
        }
    }

    /// The process default: AVX2 when the CPU has it, else scalar.
    pub fn detect() -> Isa {
        if avx2_available() {
            Isa::Avx2
        } else {
            Isa::Scalar
        }
    }
}

/// True when this CPU can run the AVX2 kernel.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

const ISA_UNRESOLVED: u8 = u8::MAX;

/// The active ISA, encoded as `Isa as u8`; `ISA_UNRESOLVED` before first
/// use. One relaxed load on the hot path.
static ACTIVE_ISA: AtomicU8 = AtomicU8::new(ISA_UNRESOLVED);

/// The ISA every kernel op dispatches to: [`Isa::detect`], resolved on first
/// use; override with [`set_mode`].
#[inline]
pub fn active() -> Isa {
    match ACTIVE_ISA.load(Ordering::Relaxed) {
        0 => Isa::Scalar,
        1 => Isa::Avx2,
        _ => {
            let isa = Isa::detect();
            set_mode(isa);
            isa
        }
    }
}

/// [`active`]'s stable name (`"scalar"` | `"avx2"`) — the string startup
/// logs, serve stats and bench rows print.
pub fn active_name() -> &'static str {
    active().name()
}

/// Switches every kernel op to `isa` (for tests and benches; the process
/// default is [`Isa::detect`]). Every ISA computes the same bits.
///
/// Process-global: concurrent callers race, so tests that switch ISA must
/// serialize themselves (the conformance suite holds a lock).
///
/// # Panics
/// Panics on [`Isa::Avx2`] when the CPU lacks AVX2 ([`avx2_available`]).
pub fn set_mode(isa: Isa) {
    assert!(
        isa == Isa::Scalar || avx2_available(),
        "AVX2 kernel selected on a CPU without AVX2"
    );
    ACTIVE_ISA.store(isa as u8, Ordering::Relaxed);
}

/// Dispatches `$body` once over the active kernel, binding `$k` to a
/// monomorphized `&impl Kernel` — hoists the mode check out of inner loops.
macro_rules! with_kernel {
    ($k:ident => $body:expr) => {
        match $crate::kernel::active() {
            $crate::kernel::Isa::Scalar => {
                let $k = &$crate::kernel::ScalarKernel;
                $body
            }
            $crate::kernel::Isa::Avx2 => {
                // Invariant: `set_mode` admits `Avx2` only when
                // `avx2_available()`, so the kernel is safe to run.
                let $k = &$crate::kernel::Avx2Kernel::new_unchecked();
                $body
            }
        }
    };
}
#[cfg(test)]
pub(crate) use with_kernel;

/// Runs `$body(&kernel, args…)` — a generic `#[inline(always)]` loop over
/// `K: Kernel` — once under the active kernel. The AVX2 arm enters the body
/// through one `#[target_feature(enable = "avx2")]` function, so the loop
/// is compiled for AVX2 and the kernel's primitives inline into it. The
/// arguments are listed with their types, which that function's signature
/// needs.
macro_rules! dispatch {
    ($body:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?) => {{
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn avx2_region($($arg: $ty),*) $(-> $ret)? {
            $body(&Avx2Kernel::new_unchecked(), $($arg),*)
        }
        match active() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `set_mode` admits `Avx2` only when the CPU has AVX2.
            Isa::Avx2 => unsafe { avx2_region($($arg),*) },
            _ => $body(&ScalarKernel, $($arg),*),
        }
    }};
}

// ---------------------------------------------------------------------------
// The trait and its two implementations
// ---------------------------------------------------------------------------

/// The inner-loop ops every hot path is built from.
///
/// The one contract: every implementation returns [`ScalarKernel`]'s bits
/// for every input — no timing, alignment or ISA dependence. The scalar
/// kernel is the portable statement of each op's order.
pub trait Kernel {
    /// Stable lowercase name.
    fn name(&self) -> &'static str;

    /// Dot product of two equal-length slices.
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;

    /// `out[i] += a * x[i]` — one rank-1 update row. Bit-identical across
    /// implementations (vectorized over `i` only; separate mul and add).
    fn axpy(&self, a: f32, x: &[f32], out: &mut [f32]);

    /// The fused k-tile step: `out[j] += Σ_t avs[t] * rows[t][j]`,
    /// accumulated per element as a chain in ascending `t` (separately
    /// rounded mul/add — bit-identical to [`K_TILE`] sequential
    /// [`Kernel::axpy`] calls on finite data).
    fn fma_tile(&self, avs: &[f32; K_TILE], rows: &[&[f32]; K_TILE], out: &mut [f32]);

    /// Sum of a slice.
    fn sum(&self, x: &[f32]) -> f32;

    /// `Σ (x[i] - mean)²` — the layer-norm variance numerator.
    fn sq_diff_sum(&self, x: &[f32], mean: f32) -> f32;

    /// Maximum element (`-inf` for an empty slice). NaN handling is
    /// implementation-defined; callers feed finite data.
    fn max(&self, x: &[f32]) -> f32;

    /// Eight dot products at once: `out[l] = dot(q, key l)` for the eight
    /// keys of one transposed panel, where `panel[8 * c + l]` is element
    /// `c` of key `l`. Each is [`Kernel::dot`]'s bits. Only for
    /// `q.len() < PANEL_WIDTH`, where `dot` uses one accumulator.
    fn dot_panel(&self, q: &[f32], panel: &[f32], out: &mut [f32; 8]);

    /// `out = Σ_k w[k] · rows[k]` over the first `w.len()` rows of `rows`
    /// (row-major, `out.len()` wide), each element accumulated from `0.0`
    /// in ascending `k`, skipping exact-zero weights — [`row_matmul_into`]'s
    /// order.
    fn weighted_sum(&self, w: &[f32], rows: &[f32], out: &mut [f32]);
}

/// The portable kernel: plain Rust that performs each op in the order the
/// AVX2 kernel's lanes do, so both return the same bits.
pub struct ScalarKernel;

/// Sums `term(a[i], b[i])` over the slices' common length in the AVX2
/// kernel's order: 32-element blocks into four 8-lane accumulators, then
/// 8-element blocks into accumulator 0, then the fixed tree — lanes
/// `(a0 + a1) + (a2 + a3)`, halves `v[j] + v[j + 4]`, then
/// `(q0 + q2) + (q1 + q3)` — then the remaining elements in sequence. The
/// fixed-size arrays let the compiler keep the lanes in vector registers
/// without reordering any lane's chain, and `term` must not use `mul_add`:
/// unfused, each step rounds like `_mm256_mul_ps` then `_mm256_add_ps`.
/// One-slice ops pass their slice twice and ignore the second element.
#[inline(always)]
fn lane_tree_sum(a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [[0.0f32; 8]; 4];
    let (blocks_a, blocks_b) = (a.chunks_exact(32), b.chunks_exact(32));
    let (rest_a, rest_b) = (blocks_a.remainder(), blocks_b.remainder());
    for (ca, cb) in blocks_a.zip(blocks_b) {
        let ca: &[f32; 32] = ca.try_into().expect("32-element block");
        let cb: &[f32; 32] = cb.try_into().expect("32-element block");
        for (t, lanes) in acc.iter_mut().enumerate() {
            for (l, s) in lanes.iter_mut().enumerate() {
                *s += term(ca[8 * t + l], cb[8 * t + l]);
            }
        }
    }
    let (octs_a, octs_b) = (rest_a.chunks_exact(8), rest_b.chunks_exact(8));
    let (tail_a, tail_b) = (octs_a.remainder(), octs_b.remainder());
    for (ca, cb) in octs_a.zip(octs_b) {
        let ca: &[f32; 8] = ca.try_into().expect("8-element block");
        let cb: &[f32; 8] = cb.try_into().expect("8-element block");
        for (l, s) in acc[0].iter_mut().enumerate() {
            *s += term(ca[l], cb[l]);
        }
    }
    let v: [f32; 8] = std::array::from_fn(|l| (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]));
    let q: [f32; 4] = std::array::from_fn(|j| v[j] + v[j + 4]);
    let mut s = (q[0] + q[2]) + (q[1] + q[3]);
    for (&x, &y) in tail_a.iter().zip(tail_b) {
        s += term(x, y);
    }
    s
}

impl Kernel for ScalarKernel {
    fn name(&self) -> &'static str {
        "scalar"
    }

    #[inline]
    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len(), "dot length");
        lane_tree_sum(a, b, |x, y| x * y)
    }

    #[inline]
    fn axpy(&self, a: f32, x: &[f32], out: &mut [f32]) {
        for (o, &xv) in out.iter_mut().zip(x.iter()) {
            *o += a * xv;
        }
    }

    #[inline]
    fn fma_tile(&self, avs: &[f32; K_TILE], rows: &[&[f32]; K_TILE], out: &mut [f32]) {
        for (j, o) in out.iter_mut().enumerate() {
            let mut v = *o;
            v += avs[0] * rows[0][j];
            v += avs[1] * rows[1][j];
            v += avs[2] * rows[2][j];
            v += avs[3] * rows[3][j];
            v += avs[4] * rows[4][j];
            v += avs[5] * rows[5][j];
            v += avs[6] * rows[6][j];
            v += avs[7] * rows[7][j];
            *o = v;
        }
    }

    #[inline]
    fn sum(&self, x: &[f32]) -> f32 {
        lane_tree_sum(x, x, |v, _| v)
    }

    #[inline]
    fn sq_diff_sum(&self, x: &[f32], mean: f32) -> f32 {
        lane_tree_sum(x, x, |v, _| (v - mean) * (v - mean))
    }

    /// Eight lanes over 8-element blocks, each step `if a > b { a } else
    /// { b }` (`_mm256_max_ps`'s rule, which returns `b` on a tie or a
    /// NaN), the same rule down the tree `max(v[j], v[j + 4])` →
    /// `max(max(q0, q2), max(q1, q3))`, then [`f32::max`] over the tail.
    /// Under eight elements the lanes stay `-inf` and only the tail counts.
    #[inline]
    fn max(&self, x: &[f32]) -> f32 {
        let gt = |a: f32, b: f32| if a > b { a } else { b };
        let octs = x.chunks_exact(8);
        let tail = octs.remainder();
        let mut v = [f32::NEG_INFINITY; 8];
        for c in octs {
            let c: &[f32; 8] = c.try_into().expect("8-element block");
            for (l, m) in v.iter_mut().enumerate() {
                *m = gt(*m, c[l]);
            }
        }
        let q: [f32; 4] = std::array::from_fn(|j| gt(v[j], v[j + 4]));
        let m = gt(gt(q[0], q[2]), gt(q[1], q[3]));
        tail.iter().fold(m, |m, &t| m.max(t))
    }

    /// The eight dots in lockstep, one key per array lane, in the AVX2
    /// kernel's `dot_panel` order: `acc[j]` holds lane `j` of
    /// [`Kernel::dot`]'s accumulator 0 for every key. It starts at the
    /// first product rather than at `0.0`, which can differ only in the
    /// sign of a zero; the tree's first step, `+ 0.0` (accumulators 1–3
    /// are empty under 32 elements), makes every such zero `+0.0` as `dot`
    /// does. Then the halves `v[j] + v[j + 4]`, the pairs, and the tail in
    /// sequence.
    #[inline]
    fn dot_panel(&self, q: &[f32], panel: &[f32], out: &mut [f32; 8]) {
        type Lanes = [f32; 8];
        let width = q.len();
        assert!(width < PANEL_WIDTH, "dot_panel width {width}");
        let term = |c: usize| -> Lanes { std::array::from_fn(|l| q[c] * panel[8 * c + l]) };
        let add = |a: Lanes, b: Lanes| -> Lanes { std::array::from_fn(|l| a[l] + b[l]) };
        let blocks = width / 8;
        let mut s = [0.0f32; 8];
        if blocks > 0 {
            let mut acc: [Lanes; 8] = std::array::from_fn(term);
            for b in 1..blocks {
                for (j, a) in acc.iter_mut().enumerate() {
                    *a = add(*a, term(8 * b + j));
                }
            }
            let v: [Lanes; 8] = std::array::from_fn(|j| add(acc[j], [0.0; 8]));
            let h: [Lanes; 4] = std::array::from_fn(|j| add(v[j], v[j + 4]));
            s = add(add(h[0], h[2]), add(h[1], h[3]));
        }
        for c in 8 * blocks..width {
            s = add(s, term(c));
        }
        *out = s;
    }

    /// One [`Kernel::axpy`] per nonzero weight, into a zeroed `out`.
    #[inline]
    fn weighted_sum(&self, w: &[f32], rows: &[f32], out: &mut [f32]) {
        let width = out.len();
        out.fill(0.0);
        for (k, &wk) in w.iter().enumerate() {
            if wk != 0.0 {
                self.axpy(wk, &rows[k * width..(k + 1) * width], out);
            }
        }
    }
}

/// The AVX2 kernel. Only constructible when the CPU supports AVX2
/// ([`Avx2Kernel::new`]), which is what makes calling the
/// `#[target_feature]` functions sound.
pub struct Avx2Kernel(());

impl Avx2Kernel {
    /// The AVX2 kernel, or `None` when the CPU lacks AVX2.
    pub fn new() -> Option<Avx2Kernel> {
        if avx2_available() {
            Some(Avx2Kernel(()))
        } else {
            None
        }
    }

    /// Internal constructor for the dispatch macro, whose `Isa::Avx2` arm
    /// is reachable only after detection succeeded.
    #[inline]
    pub(crate) fn new_unchecked() -> Avx2Kernel {
        debug_assert!(avx2_available(), "Avx2Kernel on a CPU without AVX2");
        Avx2Kernel(())
    }
}

#[cfg(target_arch = "x86_64")]
impl Kernel for Avx2Kernel {
    fn name(&self) -> &'static str {
        "avx2"
    }

    #[inline]
    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len(), "dot length");
        // SAFETY: `self` exists only if AVX2 was detected.
        unsafe { avx2::dot(a, b) }
    }

    #[inline]
    fn axpy(&self, a: f32, x: &[f32], out: &mut [f32]) {
        // SAFETY: as above.
        unsafe { avx2::axpy(a, x, out) }
    }

    #[inline]
    fn fma_tile(&self, avs: &[f32; K_TILE], rows: &[&[f32]; K_TILE], out: &mut [f32]) {
        // SAFETY: as above.
        unsafe { avx2::fma_tile(avs, rows, out) }
    }

    #[inline]
    fn sum(&self, x: &[f32]) -> f32 {
        // SAFETY: as above.
        unsafe { avx2::sum(x) }
    }

    #[inline]
    fn sq_diff_sum(&self, x: &[f32], mean: f32) -> f32 {
        // SAFETY: as above.
        unsafe { avx2::sq_diff_sum(x, mean) }
    }

    /// The scalar kernel's 8-lane max: an intrinsic copy of it was no
    /// faster end to end.
    #[inline]
    fn max(&self, x: &[f32]) -> f32 {
        ScalarKernel.max(x)
    }

    #[inline]
    fn dot_panel(&self, q: &[f32], panel: &[f32], out: &mut [f32; 8]) {
        assert!(q.len() < PANEL_WIDTH, "dot_panel width {}", q.len());
        assert!(panel.len() >= 8 * q.len(), "dot_panel panel length");
        // SAFETY: as above; the asserts bound every panel load.
        unsafe { avx2::dot_panel(q, panel, out) }
    }

    #[inline]
    fn weighted_sum(&self, w: &[f32], rows: &[f32], out: &mut [f32]) {
        assert!(rows.len() >= w.len() * out.len(), "weighted_sum rows");
        // SAFETY: as above; the assert bounds every row load.
        unsafe { avx2::weighted_sum(w, rows, out) }
    }
}

/// On non-x86_64 targets the AVX2 kernel is never selected ([`active`]
/// resolves to scalar); the impl delegates so the type still compiles.
#[cfg(not(target_arch = "x86_64"))]
impl Kernel for Avx2Kernel {
    fn name(&self) -> &'static str {
        "avx2"
    }
    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        ScalarKernel.dot(a, b)
    }
    fn axpy(&self, a: f32, x: &[f32], out: &mut [f32]) {
        ScalarKernel.axpy(a, x, out)
    }
    fn fma_tile(&self, avs: &[f32; K_TILE], rows: &[&[f32]; K_TILE], out: &mut [f32]) {
        ScalarKernel.fma_tile(avs, rows, out)
    }
    fn sum(&self, x: &[f32]) -> f32 {
        ScalarKernel.sum(x)
    }
    fn sq_diff_sum(&self, x: &[f32], mean: f32) -> f32 {
        ScalarKernel.sq_diff_sum(x, mean)
    }
    fn max(&self, x: &[f32]) -> f32 {
        ScalarKernel.max(x)
    }
    fn dot_panel(&self, q: &[f32], panel: &[f32], out: &mut [f32; 8]) {
        ScalarKernel.dot_panel(q, panel, out)
    }
    fn weighted_sum(&self, w: &[f32], rows: &[f32], out: &mut [f32]) {
        ScalarKernel.weighted_sum(w, rows, out)
    }
}

/// The `std::arch::x86_64` implementations.
///
/// Reduction shape (shared by `dot`/`sum`/`sq_diff_sum`): four 8-lane
/// accumulators consume 32-element blocks, then single 8-lane blocks feed
/// accumulator 0, then the scalar tail is folded in sequentially *after*
/// the fixed horizontal tree `((acc0+acc1)+(acc2+acc3)) → 128-bit halves →
/// pairwise`. The structure depends only on `len`, so results are pure
/// functions of the input — deterministic across runs, threads, and
/// alignments (all loads are unaligned loads).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::K_TILE;
    use std::arch::x86_64::*;

    /// Horizontal sum with a fixed tree: 256→128 halves, then two pairwise
    /// steps.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let q = _mm_add_ps(lo, hi);
        let p = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let s = _mm_add_ss(p, _mm_shuffle_ps(p, p, 0b01));
        _mm_cvtss_f32(s)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = [_mm256_setzero_ps(); 4];
        let mut i = 0;
        while i + 32 <= n {
            for (t, accv) in acc.iter_mut().enumerate() {
                let av = _mm256_loadu_ps(ap.add(i + 8 * t));
                let bv = _mm256_loadu_ps(bp.add(i + 8 * t));
                *accv = _mm256_add_ps(*accv, _mm256_mul_ps(av, bv));
            }
            i += 32;
        }
        while i + 8 <= n {
            let av = _mm256_loadu_ps(ap.add(i));
            let bv = _mm256_loadu_ps(bp.add(i));
            acc[0] = _mm256_add_ps(acc[0], _mm256_mul_ps(av, bv));
            i += 8;
        }
        let tree = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
        let mut s = hsum(tree);
        while i < n {
            s += a[i] * b[i];
            i += 1;
        }
        s
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(a: f32, x: &[f32], out: &mut [f32]) {
        let n = x.len().min(out.len());
        let av = _mm256_set1_ps(a);
        let xp = x.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        // Every element is independent, so unrolling only amortizes loop
        // overhead — it cannot change any element's rounding. Separate
        // mul + add (no FMA) throughout: identical rounding to the scalar
        // chain, element by element.
        while i + 32 <= n {
            let v0 = _mm256_add_ps(
                _mm256_loadu_ps(op.add(i)),
                _mm256_mul_ps(av, _mm256_loadu_ps(xp.add(i))),
            );
            let v1 = _mm256_add_ps(
                _mm256_loadu_ps(op.add(i + 8)),
                _mm256_mul_ps(av, _mm256_loadu_ps(xp.add(i + 8))),
            );
            let v2 = _mm256_add_ps(
                _mm256_loadu_ps(op.add(i + 16)),
                _mm256_mul_ps(av, _mm256_loadu_ps(xp.add(i + 16))),
            );
            let v3 = _mm256_add_ps(
                _mm256_loadu_ps(op.add(i + 24)),
                _mm256_mul_ps(av, _mm256_loadu_ps(xp.add(i + 24))),
            );
            _mm256_storeu_ps(op.add(i), v0);
            _mm256_storeu_ps(op.add(i + 8), v1);
            _mm256_storeu_ps(op.add(i + 16), v2);
            _mm256_storeu_ps(op.add(i + 24), v3);
            i += 32;
        }
        while i + 8 <= n {
            let xv = _mm256_loadu_ps(xp.add(i));
            let ov = _mm256_loadu_ps(op.add(i));
            _mm256_storeu_ps(op.add(i), _mm256_add_ps(ov, _mm256_mul_ps(av, xv)));
            i += 8;
        }
        while i < n {
            out[i] += a * x[i];
            i += 1;
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn fma_tile(avs: &[f32; K_TILE], rows: &[&[f32]; K_TILE], out: &mut [f32]) {
        let n = out.len();
        let avv: [__m256; K_TILE] = std::array::from_fn(|t| _mm256_set1_ps(avs[t]));
        let op = out.as_mut_ptr();
        let mut j = 0;
        // Four independent 8-lane chains per iteration: each output vector's
        // eight adds form a serial dependency (latency-bound on their own),
        // so interleaving more vectors hides the add latency until the load
        // ports bind instead — without touching any single chain's order.
        while j + 32 <= n {
            let mut v0 = _mm256_loadu_ps(op.add(j));
            let mut v1 = _mm256_loadu_ps(op.add(j + 8));
            let mut v2 = _mm256_loadu_ps(op.add(j + 16));
            let mut v3 = _mm256_loadu_ps(op.add(j + 24));
            for t in 0..K_TILE {
                let rp = rows[t].as_ptr();
                v0 = _mm256_add_ps(v0, _mm256_mul_ps(avv[t], _mm256_loadu_ps(rp.add(j))));
                v1 = _mm256_add_ps(v1, _mm256_mul_ps(avv[t], _mm256_loadu_ps(rp.add(j + 8))));
                v2 = _mm256_add_ps(v2, _mm256_mul_ps(avv[t], _mm256_loadu_ps(rp.add(j + 16))));
                v3 = _mm256_add_ps(v3, _mm256_mul_ps(avv[t], _mm256_loadu_ps(rp.add(j + 24))));
            }
            _mm256_storeu_ps(op.add(j), v0);
            _mm256_storeu_ps(op.add(j + 8), v1);
            _mm256_storeu_ps(op.add(j + 16), v2);
            _mm256_storeu_ps(op.add(j + 24), v3);
            j += 32;
        }
        while j + 16 <= n {
            let mut v0 = _mm256_loadu_ps(op.add(j));
            let mut v1 = _mm256_loadu_ps(op.add(j + 8));
            for t in 0..K_TILE {
                let rp = rows[t].as_ptr();
                v0 = _mm256_add_ps(v0, _mm256_mul_ps(avv[t], _mm256_loadu_ps(rp.add(j))));
                v1 = _mm256_add_ps(v1, _mm256_mul_ps(avv[t], _mm256_loadu_ps(rp.add(j + 8))));
            }
            _mm256_storeu_ps(op.add(j), v0);
            _mm256_storeu_ps(op.add(j + 8), v1);
            j += 16;
        }
        while j + 8 <= n {
            let mut v = _mm256_loadu_ps(op.add(j));
            for t in 0..K_TILE {
                let rv = _mm256_loadu_ps(rows[t].as_ptr().add(j));
                v = _mm256_add_ps(v, _mm256_mul_ps(avv[t], rv));
            }
            _mm256_storeu_ps(op.add(j), v);
            j += 8;
        }
        while j < n {
            let mut v = out[j];
            for t in 0..K_TILE {
                v += avs[t] * rows[t][j];
            }
            out[j] = v;
            j += 1;
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum(x: &[f32]) -> f32 {
        let n = x.len();
        let xp = x.as_ptr();
        let mut acc = [_mm256_setzero_ps(); 4];
        let mut i = 0;
        while i + 32 <= n {
            for (t, accv) in acc.iter_mut().enumerate() {
                *accv = _mm256_add_ps(*accv, _mm256_loadu_ps(xp.add(i + 8 * t)));
            }
            i += 32;
        }
        while i + 8 <= n {
            acc[0] = _mm256_add_ps(acc[0], _mm256_loadu_ps(xp.add(i)));
            i += 8;
        }
        let tree = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
        let mut s = hsum(tree);
        while i < n {
            s += x[i];
            i += 1;
        }
        s
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_diff_sum(x: &[f32], mean: f32) -> f32 {
        let n = x.len();
        let xp = x.as_ptr();
        let mv = _mm256_set1_ps(mean);
        let mut acc = [_mm256_setzero_ps(); 4];
        let mut i = 0;
        while i + 32 <= n {
            for (t, accv) in acc.iter_mut().enumerate() {
                let d = _mm256_sub_ps(_mm256_loadu_ps(xp.add(i + 8 * t)), mv);
                *accv = _mm256_add_ps(*accv, _mm256_mul_ps(d, d));
            }
            i += 32;
        }
        while i + 8 <= n {
            let d = _mm256_sub_ps(_mm256_loadu_ps(xp.add(i)), mv);
            acc[0] = _mm256_add_ps(acc[0], _mm256_mul_ps(d, d));
            i += 8;
        }
        let tree = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
        let mut s = hsum(tree);
        while i < n {
            s += (x[i] - mean) * (x[i] - mean);
            i += 1;
        }
        s
    }

    /// `dot`'s order for eight keys at once, one key per lane: lane `l` of
    /// `acc[j]` is lane `j` of `dot`'s accumulator 0 for key `l` (the
    /// scalar kernel's `dot_panel` spells out the same steps). `dot` starts
    /// that accumulator at `0.0`; starting at the first product instead
    /// differs only in the sign of a zero, which the tree's first step
    /// (`acc0 + acc1` with `acc1` still `0.0`) turns to `+0.0` either way —
    /// so that step must stay. Then the halves, the pairs and the tail, as
    /// in `hsum` and `dot`.
    ///
    /// # Safety
    /// The CPU must have AVX2, and `panel.len() >= 8 * q.len()` (every
    /// panel load is unchecked). `q.len() < 32` is needed for `dot`'s bits.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_panel(q: &[f32], panel: &[f32], out: &mut [f32; 8]) {
        let n = q.len();
        let pp = panel.as_ptr();
        let term = |c: usize| _mm256_mul_ps(_mm256_set1_ps(q[c]), _mm256_loadu_ps(pp.add(8 * c)));
        let zero = _mm256_setzero_ps();
        let blocks = n / 8;
        let mut s = zero;
        if blocks > 0 {
            let mut acc: [__m256; 8] = std::array::from_fn(term);
            for b in 1..blocks {
                for (l, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_add_ps(*a, term(8 * b + l));
                }
            }
            let v: [__m256; 8] = std::array::from_fn(|l| _mm256_add_ps(acc[l], zero));
            let h: [__m256; 4] = std::array::from_fn(|j| _mm256_add_ps(v[j], v[j + 4]));
            s = _mm256_add_ps(_mm256_add_ps(h[0], h[2]), _mm256_add_ps(h[1], h[3]));
        }
        for c in 8 * blocks..n {
            s = _mm256_add_ps(s, term(c));
        }
        _mm256_storeu_ps(out.as_mut_ptr(), s);
    }

    /// The value sum with the output held in registers: 32 columns (four
    /// vectors) at a time over every `k`, then 8, then single columns —
    /// each element's chain is `0.0`, then `+ w[k] * rows[k][c]` for every
    /// nonzero `w[k]` in ascending `k`.
    ///
    /// # Safety
    /// The CPU must have AVX2, and `rows.len() >= w.len() * out.len()`
    /// (every row load is unchecked).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn weighted_sum(w: &[f32], rows: &[f32], out: &mut [f32]) {
        let width = out.len();
        let (rp, op) = (rows.as_ptr(), out.as_mut_ptr());
        let mut j = 0;
        while j + 32 <= width {
            let mut acc = [_mm256_setzero_ps(); 4];
            for (k, &wk) in w.iter().enumerate() {
                if wk == 0.0 {
                    continue;
                }
                let (wv, row) = (_mm256_set1_ps(wk), rp.add(k * width + j));
                for (t, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(wv, _mm256_loadu_ps(row.add(8 * t))));
                }
            }
            for (t, a) in acc.iter().enumerate() {
                _mm256_storeu_ps(op.add(j + 8 * t), *a);
            }
            j += 32;
        }
        while j + 8 <= width {
            let mut acc = _mm256_setzero_ps();
            for (k, &wk) in w.iter().enumerate() {
                if wk != 0.0 {
                    let x = _mm256_loadu_ps(rp.add(k * width + j));
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(wk), x));
                }
            }
            _mm256_storeu_ps(op.add(j), acc);
            j += 8;
        }
        while j < width {
            let mut acc = 0.0f32;
            for (k, &wk) in w.iter().enumerate() {
                if wk != 0.0 {
                    acc += wk * rows[k * width + j];
                }
            }
            out[j] = acc;
            j += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Shared row ops (the single home of the scalar semantics)
// ---------------------------------------------------------------------------

/// `out = a · b` for a single row `a` (len `b.rows`), accumulating in
/// ascending `k` with the exact `a[k] == 0.0` skip — the semantics every
/// matmul path shares. Used for weight products (`b` a weight matrix) and
/// the GRU cell.
///
/// Kept as a plain per-`k` [`Kernel::axpy`] loop rather than the
/// [`Kernel::fma_tile`] tiling `rows_matmul_into` uses for several rows:
/// single-row outputs here are short (d_model-ish), so the chained-add tile
/// is latency-bound and measured slower on AVX2, while the zero-skip
/// matters. Every one-row matmul is this loop.
pub fn row_matmul_into(a: &[f32], b: &Tensor, out: &mut [f32]) {
    // `<=` rather than `==`: the loop reads only rows `< a.len()`, so
    // trailing rows of `b` are ignored.
    debug_assert!(a.len() <= b.rows, "row matmul inner dim");
    debug_assert_eq!(out.len(), b.cols, "row matmul out dim");
    dispatch!(row_matmul_body(a: &[f32], b: &Tensor, out: &mut [f32]))
}

#[inline(always)]
fn row_matmul_body<K: Kernel>(kr: &K, a: &[f32], b: &Tensor, out: &mut [f32]) {
    let (bs, n) = (b.as_slice(), b.cols);
    out.fill(0.0);
    for (k, &av) in a.iter().enumerate() {
        if av != 0.0 {
            kr.axpy(av, &bs[k * n..(k + 1) * n], out);
        }
    }
}

/// `out[s] = a[s] · b` for every scratch row `s` in `rows`, where `a` holds
/// one row per scratch index at stride `b.rows` and `out` one at stride
/// `b.cols` — the matmul behind every decode path, and behind
/// [`Tensor::matmul`]'s `A·B` over all of `A`'s rows.
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
pub(crate) fn rows_matmul_into(rows: &[usize], a: &[f32], b: &Tensor, out: &mut [f32]) {
    dispatch!(rows_matmul_body(rows: &[usize], a: &[f32], b: &Tensor, out: &mut [f32]))
}

#[inline(always)]
fn rows_matmul_body<K: Kernel>(kr: &K, rows: &[usize], a: &[f32], b: &Tensor, out: &mut [f32]) {
    let (kdim, odim, bs) = (b.rows, b.cols, b.as_slice());
    let brow = |k: usize| &bs[k * odim..(k + 1) * odim];
    if let [s] = *rows {
        let (a, out) = (
            &a[s * kdim..(s + 1) * kdim],
            &mut out[s * odim..(s + 1) * odim],
        );
        return row_matmul_body(kr, a, b, out);
    }
    for &s in rows {
        out[s * odim..(s + 1) * odim].fill(0.0);
    }
    let mut kb = 0;
    while kb + K_TILE <= kdim {
        let wrows: [&[f32]; K_TILE] = std::array::from_fn(|t| brow(kb + t));
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
        for &s in rows {
            let av = a[s * kdim + k];
            if av == 0.0 {
                continue;
            }
            kr.axpy(av, brow(k), &mut out[s * odim..(s + 1) * odim]);
        }
    }
}

/// `A·Bᵀ` for [`Tensor::matmul`]: one [`Kernel::dot`] per output element,
/// row by row, returned row-major (`a.rows × b.rows`).
pub(crate) fn dot_rows(a: &Tensor, b: &Tensor) -> Vec<f32> {
    dispatch!(dot_rows_body(a: &Tensor, b: &Tensor) -> Vec<f32>)
}

#[inline(always)]
fn dot_rows_body<K: Kernel>(kr: &K, a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (asl, bsl, n) = (a.as_slice(), b.as_slice(), a.cols);
    let mut out = Vec::with_capacity(a.rows * b.rows);
    for i in 0..a.rows {
        let ar = &asl[i * n..(i + 1) * n];
        for j in 0..b.rows {
            out.push(kr.dot(ar, &bsl[j * n..(j + 1) * n]));
        }
    }
    out
}

/// One attention head's keys, laid out for [`attention`]. Heads narrower
/// than [`PANEL_WIDTH`] store them transposed in panels of eight keys
/// (`8 × width` floats each, element `c` of key `l` at `8 * c + l`, the
/// last panel zero-padded); wider heads store plain rows. Grows one key at
/// a time, like a decoder's self-attention cache.
#[derive(Debug)]
pub struct Keys {
    width: usize,
    len: usize,
    data: Vec<f32>,
}

impl Keys {
    /// No keys of `width` elements, with room for `cap` before the first
    /// reallocation.
    pub fn with_capacity(width: usize, cap: usize) -> Keys {
        let slots = if width < PANEL_WIDTH {
            cap.div_ceil(8) * 8
        } else {
            cap
        };
        Keys {
            width,
            len: 0,
            data: Vec::with_capacity(slots * width),
        }
    }

    /// Every row of `k` as a key.
    pub fn from_rows(k: &Tensor) -> Keys {
        let mut keys = Keys::with_capacity(k.cols, k.rows);
        for r in 0..k.rows {
            keys.push(k.row(r));
        }
        keys
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no key is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one key.
    ///
    /// # Panics
    /// Panics if `key` is not `width` long.
    pub fn push(&mut self, key: &[f32]) {
        assert_eq!(key.len(), self.width, "key width");
        if self.width < PANEL_WIDTH {
            let (panel, l) = (self.len / 8, self.len % 8);
            if l == 0 {
                self.data.resize((panel + 1) * 8 * self.width, 0.0);
            }
            let panel = &mut self.data[panel * 8 * self.width..];
            for (c, &x) in key.iter().enumerate() {
                panel[8 * c + l] = x;
            }
        } else {
            self.data.extend_from_slice(key);
        }
        self.len += 1;
    }

    /// Drops every key, keeping the capacity.
    pub fn clear(&mut self) {
        self.data.clear();
        self.len = 0;
    }
}

impl Clone for Keys {
    fn clone(&self) -> Keys {
        Keys {
            data: self.data.clone(),
            ..*self
        }
    }

    /// Reuses this set's capacity (a decode fork copies its session's keys
    /// this way).
    fn clone_from(&mut self, from: &Keys) {
        self.width = from.width;
        self.len = from.len;
        self.data.clone_from(&from.data);
    }
}

/// One head of scaled dot-product attention for a block of query rows:
/// for each `width`-long row of `q`, `softmax(q · kᵀ · scale) · v` over the
/// first `n` keys and value rows, written `width` wide at stride
/// `out_stride` in `out`. `scores` (at least `n` long) is scratch.
///
/// Per row this is exactly the graph path's sequence (see the module docs):
/// `dot(q, k_j) * scale` for every key (eight at a time from panels for
/// narrow heads), [`softmax_row`], then the value sum in ascending key
/// order with the exact zero-skip, so exp-underflowed and causally masked
/// keys are no-ops.
///
/// # Panics
/// Panics if `n` exceeds the keys or value rows held, if the values are not
/// as wide as the keys, or if `scores` is shorter than `n`.
#[allow(clippy::too_many_arguments)]
pub fn attention(
    q: &[f32],
    keys: &Keys,
    v: &Tensor,
    n: usize,
    scale: f32,
    scores: &mut [f32],
    out: &mut [f32],
    out_stride: usize,
) {
    assert!(n <= keys.len && n <= v.rows, "attention over {n} keys");
    assert_eq!(v.cols, keys.width, "attention value width");
    let scores = &mut scores[..n];
    dispatch!(attention_body(
        q: &[f32],
        keys: &Keys,
        v: &Tensor,
        scale: f32,
        scores: &mut [f32],
        out: &mut [f32],
        out_stride: usize,
    ))
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn attention_body<K: Kernel>(
    kr: &K,
    q: &[f32],
    keys: &Keys,
    v: &Tensor,
    scale: f32,
    scores: &mut [f32],
    out: &mut [f32],
    out_stride: usize,
) {
    let width = keys.width;
    let values = &v.as_slice()[..scores.len() * width];
    for (r, q) in q.chunks_exact(width).enumerate() {
        if width < PANEL_WIDTH {
            let panels = keys.data.chunks_exact(8 * width);
            for (chunk, panel) in scores.chunks_mut(8).zip(panels) {
                let mut dots = [0.0f32; 8];
                kr.dot_panel(q, panel, &mut dots);
                for (s, &d) in chunk.iter_mut().zip(&dots) {
                    *s = d * scale;
                }
            }
        } else {
            let krows = keys.data.chunks_exact(width);
            for (s, k) in scores.iter_mut().zip(krows) {
                *s = kr.dot(q, k) * scale;
            }
        }
        softmax_body(kr, scores);
        let at = r * out_stride;
        kr.weighted_sum(scores, values, &mut out[at..at + width]);
    }
}

/// Dot product under the active kernel (the fixed lane-tree order).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    with_kernel!(kr => kr.dot(a, b))
}

/// Sum under the active kernel.
#[inline]
pub fn sum(x: &[f32]) -> f32 {
    with_kernel!(kr => kr.sum(x))
}

/// Max under the active kernel (NaN-free data).
#[inline]
pub fn max(x: &[f32]) -> f32 {
    with_kernel!(kr => kr.max(x))
}

/// In-place softmax over one row: max, exponentiate accumulating the sum,
/// divide.
///
/// The exp-sum is **sequential**, not a lane tree: the graph path softmaxes
/// full rows whose causally-masked lanes underflow to exact `0.0`, while
/// the decode path softmaxes only the live prefix — a sequential sum over
/// an exact-zero tail is a chain of exact no-ops, so the two agree bit for
/// bit; a lane-tree sum would place live elements into different chains and
/// break that. The max may use lanes (it returns an exact element), and the
/// divides are per-element (vector division rounds identically to scalar).
pub fn softmax_row(row: &mut [f32]) {
    dispatch!(softmax_body(row: &mut [f32]))
}

#[inline(always)]
fn softmax_body<K: Kernel>(kr: &K, row: &mut [f32]) {
    let maxv = kr.max(row);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - maxv).exp();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// Row-wise layer norm (`(x - mean) / std * gain + bias`, EPS `1e-5`),
/// returning `(mean, std)` for the autograd backward cache. The mean and
/// variance reductions dispatch on the active kernel; the normalization is
/// per-element.
pub fn layer_norm_row(x: &[f32], gain: &[f32], bias: &[f32], out: &mut [f32]) -> (f32, f32) {
    dispatch!(layer_norm_body(x: &[f32], gain: &[f32], bias: &[f32], out: &mut [f32]) -> (f32, f32))
}

#[inline(always)]
fn layer_norm_body<K: Kernel>(
    kr: &K,
    x: &[f32],
    gain: &[f32],
    bias: &[f32],
    out: &mut [f32],
) -> (f32, f32) {
    const EPS: f32 = 1e-5;
    let d = x.len() as f32;
    let mean = kr.sum(x) / d;
    let var = kr.sq_diff_sum(x, mean) / d;
    let std = (var + EPS).sqrt();
    for c in 0..x.len() {
        out[c] = (x[c] - mean) / std * gain[c] + bias[c];
    }
    (mean, std)
}

/// `x += y` elementwise (order-free).
pub fn add_assign(x: &mut [f32], y: &[f32]) {
    for (a, b) in x.iter_mut().zip(y.iter()) {
        *a += *b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_kernel_reference_values() {
        let k = ScalarKernel;
        assert_eq!(k.dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(k.sum(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(k.max(&[1.0, -2.0, 3.0]), 3.0);
        assert_eq!(k.max(&[]), f32::NEG_INFINITY);
        assert_eq!(k.sq_diff_sum(&[1.0, 3.0], 2.0), 2.0);
        let mut out = [1.0f32, 1.0];
        k.axpy(2.0, &[3.0, 4.0], &mut out);
        assert_eq!(out, [7.0, 9.0]);
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
