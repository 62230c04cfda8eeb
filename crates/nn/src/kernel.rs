//! The SIMD kernel tier: one home for the inner-loop math, with runtime ISA
//! dispatch.
//!
//! Every hot f32 loop in the crate — the matmul kernels in
//! [`Tensor::matmul`](crate::Tensor::matmul), the decoder forward's row ops
//! (its per-`k` single-row matmul and its k-tiled multi-row matmul), and the
//! softmax/layer-norm reductions — routes through the [`Kernel`] trait
//! defined here. Two implementations exist:
//!
//! * [`ScalarKernel`] — the original scalar loops, byte-for-byte. This is
//!   the reference semantics: ascending-`k` accumulation, sequential
//!   reductions, and (in the callers) the exact `a == 0.0` skip.
//! * [`Avx2Kernel`] — `std::arch::x86_64` AVX2 intrinsics, selected at
//!   runtime via `is_x86_feature_detected!("avx2")`. On every other
//!   architecture (or when detection fails) the scalar kernel serves.
//!
//! The active kernel is chosen once per process from the `VEGA_KERNEL`
//! environment variable (`auto` | `scalar` | `avx2`, default `auto`);
//! [`set_mode`] re-resolves it for tests and benches.
//!
//! # Determinism contract
//!
//! The repo's signature guarantee — generation is a pure function of
//! (weights, input) — holds **per kernel mode**:
//!
//! * Each mode is individually deterministic: same seed + same mode + any
//!   thread count → bit-identical outputs. The AVX2 reductions use a
//!   *fixed-tree* lane order (4 × 8-lane accumulators over 32-element
//!   blocks, one 8-lane block loop, a sequential scalar tail, then one
//!   fixed horizontal reduction tree), so their result is a pure function
//!   of the input slice — never of timing, alignment, or thread count.
//! * [`Kernel::axpy`] and [`Kernel::fma_tile`] vectorize over the *output*
//!   dimension only: each output element still receives separately-rounded
//!   multiply-then-add contributions in the same order as the scalar loop,
//!   so these ops are **bit-identical across modes** (no FMA contraction).
//!   This keeps the non-transposed matmul paths and most of the decode hot
//!   loop exactly equal to scalar.
//! * [`Kernel::dot`], [`Kernel::sum`], and [`Kernel::sq_diff_sum`] reorder
//!   their accumulation across lanes, so AVX2 results differ from scalar
//!   within floating-point tolerance (pinned by
//!   `crates/nn/tests/kernel_conformance.rs`). [`Kernel::max`] is
//!   order-insensitive on NaN-free data and returns an exact input element.
//! * Within one mode, the graph path and every decode path (single step,
//!   multi-position and forked, all one decoder forward) stay
//!   bit-identical to each other: every path calls the same kernel ops over
//!   the same slices. The masked-softmax prefix trick (exp-underflowed
//!   lanes are exact zeros and must be no-ops) is why [`softmax_row`]'s
//!   exp-sum stays sequential in every mode — a lane-tree sum over a zero
//!   tail would *not* be a structural no-op.
//!
//! Because modes differ bitwise, anything keyed on output bytes must carry
//! the mode: serve cache keys embed [`active_name`], and cached artifacts
//! produced under one mode must not be compared bit-for-bit against another
//! (equivalence at tolerance is what the conformance suite pins).

// The AVX2 implementation is the one place (besides `storage`) that needs
// `unsafe`: `#[target_feature]` functions and raw-pointer loads/stores.
#![allow(unsafe_code)]

use crate::tensor::Tensor;
use std::sync::atomic::{AtomicU8, Ordering};

/// `k`-dimension block width of the decoder forward's multi-row matmul
/// loop (see [`Kernel::fma_tile`] and `decode::rows_matmul_into`).
pub const K_TILE: usize = 8;

// ---------------------------------------------------------------------------
// Mode selection
// ---------------------------------------------------------------------------

/// What the user asked for (`VEGA_KERNEL` / [`set_mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Use the best ISA the CPU supports (AVX2 when detected, else scalar).
    Auto,
    /// Force the scalar reference kernel.
    Scalar,
    /// Request AVX2; falls back to scalar (with a logged notice) when the
    /// CPU lacks it.
    Avx2,
}

impl KernelMode {
    /// Parses a `VEGA_KERNEL` value. Unknown strings yield `None`.
    pub fn parse(s: &str) -> Option<KernelMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => Some(KernelMode::Auto),
            "scalar" => Some(KernelMode::Scalar),
            "avx2" => Some(KernelMode::Avx2),
            _ => None,
        }
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            KernelMode::Auto => "auto",
            KernelMode::Scalar => "scalar",
            KernelMode::Avx2 => "avx2",
        }
    }
}

/// The ISA a mode resolved to — what actually executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar loops.
    Scalar,
    /// 8-lane AVX2 (runtime-detected; `x86_64` only).
    Avx2,
}

impl Isa {
    /// Stable lowercase name (embedded in cache keys and bench rows).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
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

/// The resolved ISA, encoded as `Isa as u8`; `ISA_UNRESOLVED` before first
/// use. One relaxed load on the hot path.
static ACTIVE_ISA: AtomicU8 = AtomicU8::new(ISA_UNRESOLVED);

fn resolve(mode: KernelMode) -> Isa {
    match mode {
        KernelMode::Scalar => Isa::Scalar,
        KernelMode::Auto => {
            if avx2_available() {
                Isa::Avx2
            } else {
                Isa::Scalar
            }
        }
        KernelMode::Avx2 => {
            if avx2_available() {
                Isa::Avx2
            } else {
                vega_obs::global().event(
                    vega_obs::Level::Warn,
                    "VEGA_KERNEL=avx2 requested but the CPU lacks AVX2; using scalar",
                );
                Isa::Scalar
            }
        }
    }
}

#[cold]
fn resolve_from_env() -> Isa {
    let mode = match std::env::var("VEGA_KERNEL") {
        Ok(v) => KernelMode::parse(&v).unwrap_or_else(|| {
            vega_obs::global().event(
                vega_obs::Level::Warn,
                format!("unknown VEGA_KERNEL value `{v}` (want auto|scalar|avx2); using auto"),
            );
            KernelMode::Auto
        }),
        Err(_) => KernelMode::Auto,
    };
    let isa = resolve(mode);
    ACTIVE_ISA.store(isa as u8, Ordering::Relaxed);
    isa
}

/// The ISA every kernel op dispatches to. Resolved from `VEGA_KERNEL` on
/// first use; override with [`set_mode`].
#[inline]
pub fn active() -> Isa {
    match ACTIVE_ISA.load(Ordering::Relaxed) {
        0 => Isa::Scalar,
        1 => Isa::Avx2,
        _ => resolve_from_env(),
    }
}

/// [`active`]'s stable name (`"scalar"` | `"avx2"`) — the string serve
/// cache keys and bench rows embed.
pub fn active_name() -> &'static str {
    active().name()
}

/// Re-resolves the active kernel from `mode` (for tests and benches; the
/// process default comes from `VEGA_KERNEL`). Returns what the mode
/// resolved to — [`KernelMode::Avx2`] resolves to [`Isa::Scalar`], with a
/// logged notice, when the CPU lacks AVX2.
///
/// Process-global: concurrent callers race, so tests that switch modes must
/// serialize themselves (the conformance suite holds a lock).
pub fn set_mode(mode: KernelMode) -> Isa {
    let isa = resolve(mode);
    ACTIVE_ISA.store(isa as u8, Ordering::Relaxed);
    isa
}

/// Policy for the dot-form decode logits projection (see
/// [`dot_form_logits`]). `Auto` follows the active ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DotForm {
    /// Dot-form iff the active ISA is AVX2 (the default).
    Auto,
    /// Always project via pre-transposed `dot` rows.
    On,
    /// Always project via the axpy-form row matmul.
    Off,
}

const DOT_FORM_UNRESOLVED: u8 = u8::MAX;
/// 0 = Off, 1 = On, 2 = Auto, `DOT_FORM_UNRESOLVED` before the first use
/// reads `VEGA_DOT_FORM`.
static DOT_FORM: AtomicU8 = AtomicU8::new(DOT_FORM_UNRESOLVED);

/// Whether decode logits should use the *dot-form* projection: the output
/// weight pre-transposed to `vocab × d` so each logit is one
/// [`Kernel::dot`]. Worth it only where `dot` beats the axpy-form column
/// sweep — AVX2's fixed-tree lanes win (~1.15× on the committed matmul
/// bench), while the scalar `dot` is a serial dependency chain and loses
/// badly (~4.4× slower). So `Auto` (the default) answers true exactly when
/// [`active`] is [`Isa::Avx2`]. Override with `VEGA_DOT_FORM`
/// (`auto` | `on` | `off`) or [`set_dot_form`]; every decode and
/// graph-reference path branches on this same predicate, so per-mode
/// bit-identity holds on both sides of the switch.
pub fn dot_form_logits() -> bool {
    let policy = match DOT_FORM.load(Ordering::Relaxed) {
        0 => DotForm::Off,
        1 => DotForm::On,
        2 => DotForm::Auto,
        _ => {
            let parsed = match std::env::var("VEGA_DOT_FORM").as_deref() {
                Ok("on") => DotForm::On,
                Ok("off") => DotForm::Off,
                Ok("auto") | Err(_) => DotForm::Auto,
                Ok(other) => {
                    vega_obs::global().event(
                        vega_obs::Level::Warn,
                        &format!("VEGA_DOT_FORM={other} not recognized; using auto"),
                    );
                    DotForm::Auto
                }
            };
            set_dot_form(parsed);
            parsed
        }
    };
    match policy {
        DotForm::On => true,
        DotForm::Off => false,
        DotForm::Auto => matches!(active(), Isa::Avx2),
    }
}

/// Overrides the dot-form logits policy (tests and benches; the process
/// default comes from `VEGA_DOT_FORM`). Process-global, same serialization
/// caveat as [`set_mode`].
pub fn set_dot_form(policy: DotForm) {
    let code = match policy {
        DotForm::Off => 0,
        DotForm::On => 1,
        DotForm::Auto => 2,
    };
    DOT_FORM.store(code, Ordering::Relaxed);
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
                // Invariant: `active()` returns `Avx2` only after
                // `avx2_available()` succeeded, so the kernel is safe to run.
                let $k = &$crate::kernel::Avx2Kernel::new_unchecked();
                $body
            }
        }
    };
}
pub(crate) use with_kernel;

// ---------------------------------------------------------------------------
// The trait and its two implementations
// ---------------------------------------------------------------------------

/// The inner-loop ops every hot path is built from.
///
/// Implementations must be pure functions of their inputs (no timing or
/// alignment dependence) so each mode is individually deterministic. `axpy`
/// and `fma_tile` must round each output element exactly like the scalar
/// chain (multiply, then add, per `k` in order); the reductions may reorder
/// lanes but must use one fixed order per input length.
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
}

/// The original scalar loops — the reference semantics every other
/// implementation is measured against.
pub struct ScalarKernel;

impl Kernel for ScalarKernel {
    fn name(&self) -> &'static str {
        "scalar"
    }

    #[inline]
    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len(), "dot length");
        let mut s = 0.0f32;
        for (&x, &y) in a.iter().zip(b.iter()) {
            s += x * y;
        }
        s
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
        let mut s = 0.0f32;
        for &v in x {
            s += v;
        }
        s
    }

    #[inline]
    fn sq_diff_sum(&self, x: &[f32], mean: f32) -> f32 {
        let mut s = 0.0f32;
        for &v in x {
            s += (v - mean) * (v - mean);
        }
        s
    }

    #[inline]
    fn max(&self, x: &[f32]) -> f32 {
        x.iter().copied().fold(f32::NEG_INFINITY, f32::max)
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

    #[inline]
    fn max(&self, x: &[f32]) -> f32 {
        // SAFETY: as above.
        unsafe { avx2::max(x) }
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

    #[target_feature(enable = "avx2")]
    pub unsafe fn max(x: &[f32]) -> f32 {
        let n = x.len();
        let xp = x.as_ptr();
        let mut i = 0;
        let mut m = f32::NEG_INFINITY;
        if n >= 8 {
            let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
            while i + 8 <= n {
                acc = _mm256_max_ps(acc, _mm256_loadu_ps(xp.add(i)));
                i += 8;
            }
            let lo = _mm256_castps256_ps128(acc);
            let hi = _mm256_extractf128_ps(acc, 1);
            let q = _mm_max_ps(lo, hi);
            let p = _mm_max_ps(q, _mm_movehl_ps(q, q));
            let s = _mm_max_ss(p, _mm_shuffle_ps(p, p, 0b01));
            m = _mm_cvtss_f32(s);
        }
        while i < n {
            m = m.max(x[i]);
            i += 1;
        }
        m
    }
}

// ---------------------------------------------------------------------------
// Shared row ops (the single home of the scalar semantics)
// ---------------------------------------------------------------------------

/// `out = a · b` for a single row `a` (len `b.rows`), accumulating in
/// ascending `k` with the exact `a[k] == 0.0` skip — the semantics every
/// matmul path shares. Used for weight products (`b` a weight matrix) and
/// attention-weighted value sums (`b` a K/V cache, where softmax lanes that
/// underflowed to exact zero must be exact no-ops).
///
/// Kept as a plain per-`k` [`Kernel::axpy`] loop rather than the
/// [`Kernel::fma_tile`] tiling the decoder forward uses for several rows:
/// single-row outputs here are short (d_model-ish), so the chained-add tile
/// is latency-bound and measured slower on AVX2, while the zero-skip
/// matters (softmax tails). The forward's one-row matmul is this loop.
pub fn row_matmul_into(a: &[f32], b: &Tensor, out: &mut [f32]) {
    // `<=` rather than `==`: the decoder forward attends each row over a
    // causal *prefix* of a K/V cache that already holds every row of its
    // session fed in the same pass. The loop below only ever reads rows
    // `< a.len()`, so trailing rows of `b` are simply ignored.
    debug_assert!(a.len() <= b.rows, "row matmul inner dim");
    debug_assert_eq!(out.len(), b.cols, "row matmul out dim");
    out.fill(0.0);
    with_kernel!(kr => {
        for (k, &av) in a.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            kr.axpy(av, b.row(k), out);
        }
    });
}

/// Dot product under the active kernel (ascending index order in scalar
/// mode; fixed-tree lanes under AVX2).
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
/// The exp-sum is **sequential in every mode**: the graph path softmaxes
/// full rows whose causally-masked lanes underflow to exact `0.0`, while
/// the decode path softmaxes only the live prefix — a sequential sum over
/// an exact-zero tail is a chain of exact no-ops, so the two agree bit for
/// bit; a lane-tree sum would place live elements into different chains and
/// break that. The max may use lanes (it returns an exact element), and the
/// divides are per-element (vector division rounds identically to scalar).
pub fn softmax_row(row: &mut [f32]) {
    let maxv = max(row);
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
    const EPS: f32 = 1e-5;
    let d = x.len() as f32;
    with_kernel!(kr => {
        let mean = kr.sum(x) / d;
        let var = kr.sq_diff_sum(x, mean) / d;
        let std = (var + EPS).sqrt();
        for c in 0..x.len() {
            out[c] = (x[c] - mean) / std * gain[c] + bias[c];
        }
        (mean, std)
    })
}

/// `x += y` elementwise (order-free; identical in every mode).
pub fn add_assign(x: &mut [f32], y: &[f32]) {
    for (a, b) in x.iter_mut().zip(y.iter()) {
        *a += *b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        assert_eq!(KernelMode::parse("auto"), Some(KernelMode::Auto));
        assert_eq!(KernelMode::parse(""), Some(KernelMode::Auto));
        assert_eq!(KernelMode::parse("Scalar"), Some(KernelMode::Scalar));
        assert_eq!(KernelMode::parse(" AVX2 "), Some(KernelMode::Avx2));
        assert_eq!(KernelMode::parse("neon"), None);
        assert_eq!(KernelMode::Avx2.name(), "avx2");
    }

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
    fn avx2_resolution_falls_back_when_unavailable() {
        // On machines with AVX2 this resolves to Avx2; elsewhere it must
        // fall back to Scalar (with a notice) rather than fault.
        let isa = resolve(KernelMode::Avx2);
        if avx2_available() {
            assert_eq!(isa, Isa::Avx2);
            assert!(Avx2Kernel::new().is_some());
        } else {
            assert_eq!(isa, Isa::Scalar);
            assert!(Avx2Kernel::new().is_none());
        }
        assert_eq!(resolve(KernelMode::Scalar), Isa::Scalar);
    }
}
