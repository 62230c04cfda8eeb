//! Dense 2-D tensors (row-major `f32`) with the handful of kernels the
//! sequence models need.
//!
//! Products run on the [`crate::kernel`] tier's loops: [`Tensor::matmul`]'s
//! `A·B` is the decoder forward's k-tiled `rows_matmul_into`, so training
//! and inference multiply through one loop.
//!
//! Storage is abstracted behind [`Tensor`]: a tensor either owns its values
//! (`Vec<f32>`, the default for anything freshly built or trained) or
//! borrows a read-only slice of a shared [`ByteRegion`] — a mapped v2
//! checkpoint. Every read path (kernels, autograd, the incremental decode
//! engine) goes through [`Tensor::as_slice`] and works identically on both;
//! mutation goes through [`Tensor::as_mut_slice`], which copies a shared
//! tensor into owned storage first (copy-on-write), so fine-tuning a mapped
//! model never writes through the mapping.

use crate::kernel;
use crate::storage::{ByteRegion, TensorTable};
use std::sync::Arc;
use vega_obs::json::{Json, JsonError};

/// Where a tensor's values live.
#[derive(Clone)]
enum TensorData {
    /// Private, mutable values.
    Owned(Vec<f32>),
    /// A read-only window into a shared region (`len` f32 values starting at
    /// byte `off`). Cloning is an `Arc` bump, not a copy.
    Shared {
        region: Arc<ByteRegion>,
        off: usize,
        len: usize,
    },
}

/// A row-major 2-D tensor.
#[derive(Clone)]
pub struct Tensor {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    data: TensorData,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tensor")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("shared", &self.is_shared())
            .field("data", &self.as_slice())
            .finish()
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.as_slice() == other.as_slice()
    }
}

impl Tensor {
    /// A zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: TensorData::Owned(vec![0.0; rows * cols]),
        }
    }

    /// Builds a tensor from data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "tensor shape mismatch");
        Tensor {
            rows,
            cols,
            data: TensorData::Owned(data),
        }
    }

    /// An owned tensor with zero rows and capacity for `rows_cap` more —
    /// grown row-by-row with [`Tensor::push_row`] (the decode KV caches).
    pub fn with_row_capacity(cols: usize, rows_cap: usize) -> Self {
        Tensor {
            rows: 0,
            cols,
            data: TensorData::Owned(Vec::with_capacity(rows_cap * cols)),
        }
    }

    /// A read-only view of `rows × cols` values at byte offset `off` inside
    /// `region`. The view shares the region (no copy); mutating accessors
    /// copy on write.
    ///
    /// # Errors
    /// Returns a message naming the problem if the shape overflows, the
    /// range falls outside the region, or `off` is not 4-byte aligned.
    pub fn from_region(
        rows: usize,
        cols: usize,
        region: &Arc<ByteRegion>,
        off: usize,
    ) -> Result<Tensor, String> {
        let len = rows
            .checked_mul(cols)
            .ok_or_else(|| format!("tensor shape {rows}x{cols} overflows"))?;
        let nbytes = len
            .checked_mul(4)
            .ok_or_else(|| format!("tensor byte size {len}x4 overflows"))?;
        let end = off
            .checked_add(nbytes)
            .ok_or_else(|| format!("tensor end offset overflows (off {off} + {nbytes})"))?;
        if end > region.len() {
            return Err(format!(
                "tensor range {off}..{end} exceeds region of {} bytes",
                region.len()
            ));
        }
        if off % 4 != 0 {
            return Err(format!("tensor offset {off} is not 4-byte aligned"));
        }
        Ok(Tensor {
            rows,
            cols,
            data: TensorData::Shared {
                region: Arc::clone(region),
                off,
                len,
            },
        })
    }

    /// The values as a contiguous row-major slice (shared or owned alike).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        match &self.data {
            TensorData::Owned(v) => v,
            TensorData::Shared { region, off, len } => region.f32s(*off, *len),
        }
    }

    /// Mutable access to the values, copying a shared tensor into owned
    /// storage first (copy-on-write).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.make_owned();
        match &mut self.data {
            TensorData::Owned(v) => v,
            TensorData::Shared { .. } => unreachable!("make_owned left shared storage"),
        }
    }

    /// Converts shared storage into a private copy; owned tensors are
    /// untouched. After this call the tensor no longer references its
    /// region.
    pub fn make_owned(&mut self) {
        if let TensorData::Shared { region, off, len } = &self.data {
            self.data = TensorData::Owned(region.f32s(*off, *len).to_vec());
        }
    }

    /// True when the values are a view into a shared region.
    pub fn is_shared(&self) -> bool {
        matches!(self.data, TensorData::Shared { .. })
    }

    /// Number of scalar values (`rows * cols`).
    #[inline]
    pub fn len(&self) -> usize {
        match &self.data {
            TensorData::Owned(v) => v.len(),
            TensorData::Shared { len, .. } => *len,
        }
    }

    /// True for a 0-element tensor.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one row (must be `cols` wide). Requires owned storage — the
    /// KV caches that grow this way are always owned scratch.
    ///
    /// # Panics
    /// Panics if `row.len() != self.cols`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "push_row width");
        self.make_owned();
        if let TensorData::Owned(v) = &mut self.data {
            v.extend_from_slice(row);
        }
        self.rows += 1;
    }

    /// Drops rows from the end, keeping the first `rows`. The inverse of
    /// [`Tensor::push_row`] — a decode state uses it to empty its K/V
    /// caches on reset. Capacity is retained, so re-growing over the popped
    /// rows does not reallocate.
    ///
    /// # Panics
    /// Panics if `rows` exceeds the current row count.
    pub fn truncate_rows(&mut self, rows: usize) {
        assert!(rows <= self.rows, "truncate_rows beyond end");
        self.make_owned();
        if let TensorData::Owned(v) = &mut self.data {
            v.truncate(rows * self.cols);
        }
        self.rows = rows;
    }

    /// Appends the values to a v2 data region and returns the header entry
    /// (`{"rows":r,"cols":c,"off":o}` with `off` relative to the region).
    pub(crate) fn to_table_entry(&self, table: &mut TensorTable) -> Json {
        let off = table.push_f32s(self.as_slice());
        Json::obj([
            ("rows", Json::num_usize(self.rows)),
            ("cols", Json::num_usize(self.cols)),
            ("off", Json::num_usize(off)),
        ])
    }

    /// Restores a shared view from a [`Tensor::to_table_entry`] header entry
    /// against `region`, whose data section starts at byte `data_base`.
    /// Errors name the absolute byte offset of the offending tensor.
    pub(crate) fn from_table_entry(
        v: &Json,
        region: &Arc<ByteRegion>,
        data_base: usize,
    ) -> Result<Tensor, JsonError> {
        let rows = v.field("rows")?.as_usize()?;
        let cols = v.field("cols")?.as_usize()?;
        let off = v.field("off")?.as_usize()?;
        let abs = data_base.checked_add(off).ok_or_else(|| JsonError {
            msg: format!("tensor offset {off} overflows past data base {data_base}"),
        })?;
        #[cfg(target_endian = "little")]
        {
            Tensor::from_region(rows, cols, region, abs).map_err(|msg| JsonError {
                msg: format!("tensor table entry at byte {abs}: {msg}"),
            })
        }
        #[cfg(not(target_endian = "little"))]
        {
            // Big-endian fallback: decode the little-endian payload into an
            // owned tensor (no zero-copy sharing, but files stay portable).
            let len = rows.checked_mul(cols).ok_or_else(|| JsonError {
                msg: format!("tensor shape {rows}x{cols} overflows"),
            })?;
            let bytes = region.bytes();
            let end = abs.checked_add(len * 4).ok_or_else(|| JsonError {
                msg: format!("tensor end overflows at byte {abs}"),
            })?;
            if end > bytes.len() {
                return Err(JsonError {
                    msg: format!("tensor table entry at byte {abs}: range exceeds region"),
                });
            }
            let data = bytes[abs..end]
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            Ok(Tensor::from_vec(rows, cols, data))
        }
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.as_slice()[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        let idx = r * self.cols + c;
        &mut self.as_mut_slice()[idx]
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.as_slice()[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let (start, end) = (r * self.cols, (r + 1) * self.cols);
        &mut self.as_mut_slice()[start..end]
    }

    /// Matrix product `self · other` (optionally with `other` transposed).
    ///
    /// `A·B` runs the kernel tier's `rows_matmul_into` over every row of
    /// `self`, the k-tiled loop the decoder forward runs: each output element
    /// receives its rank-1 updates one at a time in ascending `k`, with the
    /// exact zero-skip (a no-op for the finite values training produces).
    /// `A·Bᵀ` takes one full-length [`Kernel::dot`](crate::Kernel::dot) per
    /// output element. Either ISA gives the same bits.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor, transpose_other: bool) -> Tensor {
        if transpose_other {
            assert_eq!(self.cols, other.cols, "matmul(T) inner dim");
            let out = kernel::dot_rows(self, other);
            Tensor::from_vec(self.rows, other.rows, out)
        } else {
            assert_eq!(self.cols, other.rows, "matmul inner dim");
            let rows: Vec<usize> = (0..self.rows).collect();
            let mut out = vec![0.0f32; self.rows * other.cols];
            kernel::rows_matmul_into(&rows, self.as_slice(), other, &mut out);
            Tensor::from_vec(self.rows, other.cols, out)
        }
    }

    /// `self + other`, elementwise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add shape"
        );
        let data = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        Tensor::from_vec(self.rows, self.cols, data)
    }

    /// Adds `row` (a 1×cols tensor) to every row.
    ///
    /// # Panics
    /// Panics if `row` is not `1 × self.cols`.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        assert_eq!(row.rows, 1, "broadcast row must be 1 x cols");
        assert_eq!(row.cols, self.cols, "broadcast width");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, b) in out.row_mut(r).iter_mut().zip(row.as_slice()) {
                *o += b;
            }
        }
        out
    }

    /// Elementwise product.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn hadamard(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "hadamard shape"
        );
        let data = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| a * b)
            .collect();
        Tensor::from_vec(self.rows, self.cols, data)
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f32) -> Tensor {
        Tensor::from_vec(
            self.rows,
            self.cols,
            self.as_slice().iter().map(|v| v * s).collect(),
        )
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Tensor {
        let mut out = vec![0.0f32; self.rows * self.cols];
        let src = self.as_slice();
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[c * self.rows + r] = src[r * self.cols + c];
            }
        }
        Tensor::from_vec(self.cols, self.rows, out)
    }

    /// Row-wise softmax (see [`kernel::softmax_row`] for the determinism
    /// contract shared with the decode fast path).
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..out.rows {
            kernel::softmax_row(out.row_mut(r));
        }
        out
    }

    /// Frobenius-norm squared (for tests/regularization diagnostics).
    pub fn norm_sq(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{with_kernel, Kernel};

    #[test]
    fn matmul_matches_by_hand() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b, false);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_transposed_agrees_with_explicit_transpose() {
        let a = Tensor::from_vec(2, 3, vec![1., -2., 3., 0.5, 5., -6.]);
        let b = Tensor::from_vec(4, 3, (0..12).map(|i| i as f32 * 0.3).collect());
        let direct = a.matmul(&b, true);
        let explicit = a.matmul(&b.transposed(), false);
        for (x, y) in direct.as_slice().iter().zip(explicit.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_rows_normalize() {
        let t = Tensor::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        assert!(s.at(0, 2) > s.at(0, 1));
    }

    #[test]
    fn broadcast_add() {
        let t = Tensor::zeros(2, 2);
        let row = Tensor::from_vec(1, 2, vec![1., 2.]);
        let out = t.add_row_broadcast(&row);
        assert_eq!(out.as_slice(), &[1., 2., 1., 2.]);
    }

    #[test]
    #[should_panic(expected = "matmul inner dim")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(4, 2);
        let _ = a.matmul(&b, false);
    }

    #[test]
    fn from_table_entry_rejects_shape_overflow() {
        let big = usize::MAX / 2;
        let v = Json::obj([
            ("rows", Json::num_usize(big)),
            ("cols", Json::num_usize(3)),
            ("off", Json::num_usize(0)),
        ]);
        let region = Arc::new(ByteRegion::from_bytes(&[0u8; 64]));
        let err = Tensor::from_table_entry(&v, &region, 0).unwrap_err();
        assert!(err.msg.contains("overflows"), "got: {}", err.msg);
    }

    /// A shared tensor over a heap-backed region holding `vals`.
    fn shared(rows: usize, cols: usize, vals: &[f32]) -> (Tensor, Arc<ByteRegion>) {
        let mut table = TensorTable::new();
        let off = table.push_f32s(vals);
        let region = Arc::new(ByteRegion::from_bytes(&table.into_bytes()));
        let t = Tensor::from_region(rows, cols, &region, off).unwrap();
        (t, region)
    }

    #[test]
    fn shared_tensors_read_like_owned_and_copy_on_write() {
        let vals = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let (mut t, region) = shared(2, 3, &vals);
        assert!(t.is_shared());
        assert_eq!(t.as_slice(), &vals[..]);
        assert_eq!(t.at(1, 2), 6.0);
        assert_eq!(t.row(0), &vals[..3]);
        // A clone shares the same region (no copy).
        let twin = t.clone();
        assert!(twin.is_shared());
        // Mutation detaches: the region stays untouched.
        *t.at_mut(0, 0) = 99.0;
        assert!(!t.is_shared());
        assert_eq!(t.at(0, 0), 99.0);
        assert_eq!(twin.at(0, 0), 1.0, "the shared view must not see writes");
        assert_eq!(region.f32s(0, 6), &vals[..], "the region is immutable");
    }

    #[test]
    fn shared_and_owned_matmul_are_bit_identical() {
        let av: Vec<f32> = (0..6).map(|i| i as f32 * 0.7 - 2.0).collect();
        let bv: Vec<f32> = (0..12).map(|i| i as f32 * 0.3 + 0.1).collect();
        let (a_shared, _r1) = shared(2, 3, &av);
        let (b_shared, _r2) = shared(3, 4, &bv);
        let a_owned = Tensor::from_vec(2, 3, av);
        let b_owned = Tensor::from_vec(3, 4, bv);
        let x = a_shared.matmul(&b_shared, false);
        let y = a_owned.matmul(&b_owned, false);
        assert!(x
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits()));
        assert_eq!(a_shared, a_owned, "PartialEq sees through storage");
    }

    #[test]
    fn from_region_rejects_bad_ranges() {
        let region = Arc::new(ByteRegion::from_bytes(&[0u8; 16]));
        assert!(Tensor::from_region(2, 2, &region, 0).is_ok());
        let err = Tensor::from_region(2, 3, &region, 0).unwrap_err();
        assert!(err.contains("exceeds region"), "got: {err}");
        let err = Tensor::from_region(1, 1, &region, 2).unwrap_err();
        assert!(err.contains("aligned"), "got: {err}");
        let err = Tensor::from_region(usize::MAX, 2, &region, 0).unwrap_err();
        assert!(err.contains("overflows"), "got: {err}");
    }

    #[test]
    fn push_row_grows_a_kv_cache_shape() {
        let mut t = Tensor::with_row_capacity(3, 4);
        assert_eq!((t.rows, t.cols), (0, 3));
        t.push_row(&[1.0, 2.0, 3.0]);
        t.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(t.rows, 2);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
    }

    /// Deterministic pseudo-random fill (splitmix64) with zeros and negative
    /// values mixed in, so the zero-skip branches are exercised.
    fn fill(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut state = seed;
        let data = (0..rows * cols)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                if z % 5 == 0 {
                    0.0
                } else {
                    ((z >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
                }
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    /// The untiled reference: one [`Kernel::axpy`] per `k` with the exact
    /// zero-skip for `A·B`, one [`Kernel::dot`] per element for `A·Bᵀ` —
    /// the per-element order every `matmul` must keep.
    fn untiled_matmul(a: &Tensor, b: &Tensor, transpose_b: bool) -> Vec<f32> {
        with_kernel!(kr => if transpose_b {
            (0..a.rows)
                .flat_map(|i| (0..b.rows).map(move |j| kr.dot(a.row(i), b.row(j))))
                .collect()
        } else {
            let mut out = vec![0.0f32; a.rows * b.cols];
            for i in 0..a.rows {
                let out_row = &mut out[i * b.cols..(i + 1) * b.cols];
                for (k, &av) in a.row(i).iter().enumerate() {
                    if av != 0.0 {
                        kr.axpy(av, b.row(k), out_row);
                    }
                }
            }
            out
        })
    }

    #[test]
    fn matmul_matches_untiled_reference_on_shape_grid() {
        // Inner dims straddle K_TILE (the fused tile and its per-k tail), and
        // the grid includes zero- and one-row products.
        use crate::kernel::K_TILE;
        for &(m, k, n) in &[
            (0, 9, 4),
            (1, 1, 1),
            (1, 17, 10),
            (3, 5, 7),
            (9, K_TILE - 1, 5),
            (12, K_TILE + 1, 33),
            (16, 64, 16),
            (17, 65, 19),
            (33, 130, 9),
            (40, 200, 23),
            (70, 96, 41),
        ] {
            let a = fill(m, k, 0xA5EED ^ (m * 1000 + k) as u64);
            let b = fill(k, n, 0xB5EED ^ (k * 1000 + n) as u64);
            let bt = fill(n, k, 0xC5EED ^ (n * 1000 + k) as u64);
            for (got, want) in [
                (a.matmul(&b, false), untiled_matmul(&a, &b, false)),
                (a.matmul(&bt, true), untiled_matmul(&a, &bt, true)),
            ] {
                assert_eq!(got.len(), want.len());
                for (i, (x, y)) in got.as_slice().iter().zip(&want).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{m}x{k}x{n} elem {i}: matmul {x} vs untiled {y}"
                    );
                }
            }
        }
    }
}
