//! `vega-model`: subword tokenization, vocabulary, and the CodeBE model.
//!
//! Sits between the VEGA pipeline (which thinks in statements, templates and
//! feature vectors) and the raw sequence models in [`vega_nn`]:
//!
//! * [`split_ident`] / [`tokens_to_pieces`] — a reversible subword scheme so
//!   never-seen identifiers (`fixup_riscv_pcrel_hi20`) decompose into known
//!   pieces, as UniXcoder's BPE does for the paper;
//! * [`Vocab`] — specials (`[CLS]`, `[SEP]`, `[E2D]`, `[NULL]`, …), the 21
//!   quantized confidence-score tokens, char fallback, corpus pieces;
//! * [`CodeBe`] — denoising pre-training + fine-tuning + greedy generation
//!   over a transformer (default) or GRU (ablation).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
mod ckpt;
mod ckpt2;
mod codebe;
mod subtok;
mod vocab;

pub use backend::{BackendHandle, DecodeAbort, DecodeBackend};
pub use ckpt::{tmp_path, CkptError, CKPT_FORMAT};
pub use ckpt2::{encode_v2, CkptFormat, CKPT_FORMAT_V2, V2_MAGIC};
pub use codebe::{CodeBe, DecodeSession, ModelChoice, TrainConfig};
pub use subtok::{
    pieces_to_spellings, spellings_to_source, split_ident, string_to_pieces, token_to_pieces,
    tokens_to_pieces, TargetNorm, TGT_SENTINELS, WORD_START,
};
pub use vocab::{Special, Vocab, NUM_SCORE_TOKENS};
