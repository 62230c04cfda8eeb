//! `vega-serve`: a batching, caching generation service over trained
//! checkpoints.
//!
//! The one-shot `vega-experiments` binary retrains from scratch every run;
//! this crate is the serving half the ROADMAP's north star asks for. It
//! loads a `CodeBe` checkpoint (produced by `vega-experiments --save-model`),
//! rebuilds the deterministic Stage-1 artifacts around it
//! ([`vega::Vega::with_model`]), and serves Stage-3 generation over a
//! line-delimited JSON TCP protocol with:
//!
//! * a checkpoint [`registry`] that validates at load time (unreadable /
//!   unparseable / corpus-mismatched checkpoints are reported, not decoded);
//! * a content-addressed [`lru`] generation cache whose keys
//!   ([`engine::Engine::cache_key`]) cover the model digest, target
//!   descriptions and the exact signature feature vector — cache hits are
//!   byte-identical to the generation that populated them;
//! * a bounded request queue with coalescing, per-request deadlines,
//!   `overloaded` shedding and graceful drain ([`server`]);
//! * full `vega-obs` integration: `serve.request` spans, cache hit/miss
//!   counters and request-latency histograms in the JSONL trace;
//! * deterministic chaos hooks (`vega-fault`): the connection path carries
//!   `serve.conn.drop` / `serve.conn.stall` / `serve.conn.corrupt` fault
//!   sites, the server closes idle connections, and the [`client`] recovers
//!   from drops and malformed frames with deterministic exponential backoff
//!   ([`client::RetryPolicy`]) — so `VEGA_FAULT_PLAN` chaos runs complete
//!   with byte-identical successful responses.
//!
//! Binaries: `vega-serve` (the daemon) and `vega-loadgen` (a concurrent load
//! generator that measures throughput/p50/p99 and verifies responses against
//! direct in-process generation). Both parse their flags through [`cli`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod client;
pub mod engine;
pub mod hash;
pub mod lru;
pub mod protocol;
pub mod registry;
pub mod server;

pub use client::{Client, RetryPolicy};
pub use engine::{Engine, EngineError};
pub use lru::LruCache;
pub use protocol::{ErrorKind, Request};
pub use registry::{
    load_checkpoint, load_checkpoint_prefault, Checkpoint, CheckpointMeta, RegistryError,
};
pub use server::{ServeConfig, ServeStats, Server};
