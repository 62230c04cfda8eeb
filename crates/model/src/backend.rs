//! Pluggable decode backends for [`CodeBe`](crate::CodeBe).
//!
//! A backend intercepts the two decode primitives — greedy generation and
//! forced-sequence scoring — so a caller can observe or relocate the
//! arithmetic without changing it. A model with a backend installed opens
//! no local decode state: every [`DecodeSession`](crate::DecodeSession)
//! call forwards to the backend unchanged, one call per generation or per
//! scored output, so it gets neither the session's encode-once nor its
//! prefix-shared scoring. The in-tree users are timing interposers (the
//! end-to-end benchmark's traced run, which wraps a backend-free clone of
//! the model) and tests; the serving engine decodes locally on its one
//! shared model. The backend contract demands bit-identity with the local
//! path: installing or removing a backend must never change a single output
//! bit, only where (and how fast) the arithmetic happens.
//!
//! Backend calls are *fallible*: a backend may honour the per-call deadline
//! it is handed, or fail outright. The local in-process path never aborts
//! (it ignores deadlines), so code that does not opt into deadlines keeps
//! the original infallible API.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Why a backend decode call gave up before producing a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeAbort {
    /// The per-call deadline passed and the backend gave up. No partial
    /// output is returned — a partial generation must never be cached or
    /// served.
    Expired,
    /// The backend itself failed. Carries a diagnostic message.
    Broken(String),
}

impl fmt::Display for DecodeAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeAbort::Expired => write!(f, "decode deadline expired"),
            DecodeAbort::Broken(msg) => write!(f, "decode backend broken: {msg}"),
        }
    }
}

/// An engine that can run CodeBE's decode primitives on behalf of a caller.
///
/// Implementations must be bit-identical to the single-threaded in-process
/// path: same token streams, same logprob bits, for every input. `deadline`
/// is a best-effort abort the backend may check; `None` means run to
/// completion.
pub trait DecodeBackend: Send + Sync {
    /// Greedy generation — the backend analog of
    /// [`CodeBe::generate`](crate::CodeBe::generate).
    fn generate(
        &self,
        input: &[usize],
        max_len: usize,
        deadline: Option<Instant>,
    ) -> Result<Vec<usize>, DecodeAbort>;

    /// Forced-sequence log-probability — the backend analog of
    /// [`CodeBe::sequence_logprob`](crate::CodeBe::sequence_logprob).
    fn sequence_logprob(
        &self,
        input: &[usize],
        output: &[usize],
        deadline: Option<Instant>,
    ) -> Result<f32, DecodeAbort>;
}

/// A cloneable, debuggable handle to a shared [`DecodeBackend`].
///
/// `CodeBe` derives `Debug`/`Clone`; trait objects provide neither, so the
/// handle wraps the `Arc` and fills both in. Cloning a model clones the
/// handle, so a clone decodes through the same backend.
#[derive(Clone)]
pub struct BackendHandle(Arc<dyn DecodeBackend>);

impl BackendHandle {
    /// Wraps a backend for installation via
    /// [`CodeBe::set_decode_backend`](crate::CodeBe::set_decode_backend).
    pub fn new(backend: impl DecodeBackend + 'static) -> Self {
        BackendHandle(Arc::new(backend))
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &dyn DecodeBackend {
        self.0.as_ref()
    }
}

impl fmt::Debug for BackendHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BackendHandle(..)")
    }
}
