//! `vega-nn`: the neural substrate for CodeBE.
//!
//! A self-contained, dependency-light deep-learning stack sized for one CPU
//! core: dense [`Tensor`]s, a reverse-mode autograd tape ([`Graph`]) whose
//! backward rules are verified against finite differences, Adam
//! ([`ParamStore::adam_step`]), an encoder–decoder [`Transformer`] (the
//! architecture behind the paper's UniXcoder-based CodeBE), and a
//! [`GruSeq2Seq`] baseline for the RNN ablation. Both models implement
//! [`Seq2Seq`] and serialize to a JSON header plus a [`TensorTable`] of
//! weights, the `vega-ckpt/v2` layout.
//!
//! Generation runs on a forward-only fast path ([`DecodeState`] /
//! [`GruDecodeState`], see the [`mod@decode`] module docs) that caches
//! per-layer attention K/V and is bit-identical to the autograd-graph
//! reference decode.
//!
//! Every hot inner loop dispatches through the [`mod@kernel`] tier: a
//! [`Kernel`] trait with a portable scalar implementation and an AVX2
//! implementation used when the CPU has it. Both return the same bits for
//! every op, so results do not depend on which one runs; see the module
//! docs.
//!
//! # Examples
//! ```
//! use vega_nn::{Seq2Seq, Transformer, TransformerConfig};
//! let mut model = Transformer::new(TransformerConfig::tiny(10));
//! // Teach the model to echo [2, 3].
//! for _ in 0..30 {
//!     model.train_example(&[2, 3], &[2, 3], 0, 1);
//!     model.step(3e-3);
//! }
//! let out = model.greedy(&[2, 3], 0, 1, 8);
//! assert!(out.len() <= 8);
//! ```

#![warn(missing_docs)]
// `deny` rather than `forbid`: the storage module opts back in for the
// mmap/reinterpretation primitives, and the kernel module for its
// `#[target_feature]` SIMD implementations (nothing else does).
#![deny(unsafe_code)]

pub mod decode;
mod graph;
mod gru;
pub mod kernel;
mod params;
mod seq2seq;
pub mod storage;
mod tensor;
mod transformer;

pub use decode::{DecodeState, GruDecodeState};
pub use graph::{Graph, NodeId};
pub use gru::{GruConfig, GruSeq2Seq};
pub use kernel::{Isa, Kernel};
pub use params::{Init, ParamId, ParamStore};
pub use seq2seq::{argmax, forced_pair, looks_degenerate, train_until, Seq2Seq};
pub use storage::{ByteRegion, TensorTable};
pub use tensor::Tensor;
pub use transformer::{Transformer, TransformerConfig};
