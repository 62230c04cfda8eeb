//! Encode once per statement: the `decode.encoder_runs` counter pins how
//! often generation and scoring run the encoder, and a decode backend sees
//! every call unchanged.
//!
//! * `generate_backend` runs the encoder once per generated statement — one
//!   signature decode per function, then one decode session per body
//!   statement serving its head decode and every candidate score — so the
//!   counter moves by the sum of `stmts.len()` over the functions.
//! * A `score` request runs the encoder once, however many candidates it
//!   carries, and one decoder forward that feeds the candidates' shared
//!   prefix once: 8 candidates of 10 tokens sharing only BOS score 88
//!   positions from 81 decoder rows (`decode.scored_rows`).
//! * On a model carrying a decode backend, scoring forwards each candidate
//!   to the backend and returns the same bits as on the model without one.
//!
//! One `#[test]`: obs counters are process-global.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vega::{Vega, VegaConfig};
use vega_model::{BackendHandle, CodeBe, DecodeAbort, DecodeBackend};
use vega_serve::Engine;

fn encoder_runs() -> u64 {
    vega_obs::global().counter("decode.encoder_runs")
}

/// `(decode.scored_tokens, decode.scored_rows)`.
fn scored() -> (u64, u64) {
    let obs = vega_obs::global();
    (
        obs.counter("decode.scored_tokens"),
        obs.counter("decode.scored_rows"),
    )
}

/// A backend that forwards every call to its own backend-free model and
/// counts the calls — the shape of any interposer (timing, tracing).
struct Forwarding {
    model: CodeBe,
    calls: Arc<AtomicUsize>,
}

impl DecodeBackend for Forwarding {
    fn generate(
        &self,
        input: &[usize],
        max_len: usize,
        deadline: Option<Instant>,
    ) -> Result<Vec<usize>, DecodeAbort> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.model.try_generate(input, max_len, deadline)
    }

    fn sequence_logprob(
        &self,
        input: &[usize],
        output: &[usize],
        deadline: Option<Instant>,
    ) -> Result<f32, DecodeAbort> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.model.try_sequence_logprob(input, output, deadline)
    }
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

#[test]
fn encoder_runs_once_per_statement_and_once_per_score_request() {
    let vega = Vega::train(VegaConfig::tiny());

    // Stage 3: one encoder pass per generated statement.
    let before = encoder_runs();
    let backend = vega.generate_backend("RISCV");
    let runs = encoder_runs() - before;
    let stmts: usize = backend.functions.iter().map(|(_, f)| f.stmts.len()).sum();
    assert!(
        stmts > backend.functions.len(),
        "no body statements generated"
    );
    assert_eq!(
        runs, stmts as u64,
        "generate_backend ran the encoder {runs} times for {stmts} statements"
    );

    // `score`: one encoder pass per request, not per candidate.
    let engine = Engine::new(vega);
    let target = &engine.target_names()[0];
    let group = &engine.group_names()[0];
    let candidates: Vec<Vec<usize>> = (0..8)
        .map(|c| (0..10).map(|t| 4 + (c * 7 + t * 3) % 16).collect())
        .collect();
    let before = encoder_runs();
    let (tokens_before, rows_before) = scored();
    let direct = engine
        .try_score_with(engine.vega().model(), target, group, &candidates, None)
        .expect("direct scoring");
    assert_eq!(
        encoder_runs() - before,
        1,
        "one score request, one encoding"
    );
    let (tokens, rows) = scored();
    assert_eq!(
        tokens - tokens_before,
        88,
        "8 candidates x (10 tokens + EOS)"
    );
    assert_eq!(rows - rows_before, 81, "BOS once, then 8 x 10 forked rows");
    assert_eq!(direct.len(), candidates.len());

    // A copy carrying a forwarding backend: every candidate reaches the
    // backend, and the bits match the backend-free model's.
    let calls = Arc::new(AtomicUsize::new(0));
    let mut forwarded = engine.replica();
    forwarded.set_decode_backend(Some(BackendHandle::new(Forwarding {
        model: engine.replica(),
        calls: Arc::clone(&calls),
    })));
    let via_backend = engine
        .try_score_with(&forwarded, target, group, &candidates, None)
        .expect("scoring through the backend");
    assert_eq!(calls.load(Ordering::Relaxed), candidates.len());
    assert_eq!(bits(&via_backend), bits(&direct));
}
