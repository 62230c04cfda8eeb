//! Scoring throughput on the `score` request path: the in-process kernels
//! behind the `score` op, on a deploy-shaped model.
//!
//! Every token of a `score` candidate is known up front, so the forced
//! scorer feeds a whole sequence in ONE multi-position pass — each weight
//! matrix streams from memory once per forward instead of once per token.
//!
//! Setup: a deploy-shaped (untrained) transformer over the default corpus
//! vocabulary — d_model 512, d_ff 2048, 1 encoder + 3 decoder layers, far
//! larger than L2, so single-stream decode is weight-bandwidth-bound. Three
//! measurements, each bit-checked before timing:
//!
//! * **prefill vs stepped** — in-process, the one-pass `forced_logprob`
//!   against the token-at-a-time `begin_decode`/`step` loop it replaced
//!   (bit-identical logprob asserted first), interleaved round-robin with
//!   per-path minima so a steal burst cannot land on one side of the ratio;
//! * **session vs per-call** — in-process, on the `score` request shape of
//!   the end-to-end benchmark (8 candidates x 10 tokens against one
//!   48-token source): every candidate scored on one decode state, so the
//!   source is encoded once, against one `forced_logprob` per candidate,
//!   each re-encoding it (bit-identical logprobs asserted first; same
//!   interleaved-min timing);
//! * **batched vs per-candidate** — in-process, on the same shape and one
//!   already-encoded decode state: one `forced_logprobs` call over the 8
//!   candidates (their shared BOS fed once, then one 80-row forward on
//!   forks of the session cache, so each weight matrix streams twice per
//!   request) against one `forced_logprob` per candidate (an 11-row
//!   forward each; bit-identical logprobs asserted first; same
//!   interleaved-min timing).
//!
//! Writes `BENCH_serve.json` (override with `VEGA_BENCH_OUT`;
//! `VEGA_SERVE_BENCH_FAST=1` shrinks the round count for the CI smoke run).
//! Prints `serve: smoke=ok` only if all three floors hold.

use std::time::Instant;
use vega::{Vega, VegaConfig};
use vega_model::Special;
use vega_nn::kernel::softmax_row;
use vega_nn::{forced_pair, DecodeState, Seq2Seq, Transformer, TransformerConfig};
use vega_obs::json::Json;

const CANDS: usize = 4;
const CAND_LEN: usize = 88;

/// Floor for the one-pass prefill scorer against the token-stepped loop it
/// replaced, on the deploy-shaped model (measured ~3x here: 88 rows per
/// weight-matrix stream vs 1). Falling toward 1x means `forced_logprob`
/// stopped using `step_many`.
const PREFILL_SPEEDUP_FLOOR: f64 = 1.5;

/// The end-to-end benchmark's `score` request shape: candidates per
/// request, tokens per candidate, and source tokens.
const SESSION_CANDS: usize = 8;
const SESSION_CAND_LEN: usize = 10;
const SESSION_SRC_LEN: usize = 48;

/// Floor for scoring a request's candidates on one decode state (one
/// encoder pass) against one `forced_logprob` per candidate (an encoder
/// pass each). On the k-tiled encoder one encoder pass costs about two
/// candidate prefills, so ~2.0x is expected; falling toward 1x
/// means scoring went back to encoding once per candidate.
const SESSION_SPEEDUP_FLOOR: f64 = 1.5;

/// Floor for one `forced_logprobs` call over a request's candidates against
/// one `forced_logprob` per candidate, both on one encoded state. The
/// batched call streams each weight matrix twice per request instead of
/// once per candidate; ~1.3x is expected. Falling toward 1x
/// means candidates went back to one decoder forward each.
const BATCHED_SPEEDUP_FLOOR: f64 = 1.15;

/// Small-scale pipeline config, zero training epochs: only the corpus
/// vocabulary matters here; the bench model's weights are freshly
/// initialized below.
fn bench_config() -> VegaConfig {
    let mut cfg = VegaConfig::default();
    cfg.train.pretrain_steps = 0;
    cfg.train.finetune_epochs = 0;
    cfg
}

/// A deploy-shaped transformer over a `vocab`-piece vocabulary: weight
/// matrices that dwarf the cache hierarchy, seeded init.
fn deploy_cfg(vocab: usize) -> TransformerConfig {
    TransformerConfig {
        vocab,
        d_model: 512,
        n_heads: 4,
        d_ff: 2048,
        n_enc_layers: 1,
        n_dec_layers: 3,
        max_len: 128,
        seed: 0xC0DE,
    }
}

/// splitmix64 — the workspace's stock deterministic mixer.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic candidate sequences for one request, from low token ids
/// every vocabulary contains.
fn candidates_for(request: usize) -> Vec<Vec<usize>> {
    (0..CANDS)
        .map(|c| {
            (0..CAND_LEN)
                .map(|t| {
                    4 + (splitmix((request as u64) << 32 | (c as u64) << 16 | t as u64) % 16)
                        as usize
                })
                .collect()
        })
        .collect()
}

fn main() {
    let fast_mode = std::env::var("VEGA_SERVE_BENCH_FAST").is_ok();
    // Interleaved rounds, per-path minima; round 0 is warm-up.
    let rounds = if fast_mode { 2 } else { 4 };

    // One compute thread: any win is amortization, not parallelism.
    vega_par::set_threads(1);
    let vocab = Vega::train(bench_config()).model().vocab.clone();
    println!("== serve (score path, deploy-shaped model, 1 compute thread, {rounds} rounds) ==");

    // One multi-position prefill pass per candidate vs the token-at-a-time
    // loop `forced_logprob` used before `step_many` existed.
    let vocab_n = vocab.len();
    let mut model = Transformer::new(deploy_cfg(vocab_n));
    let src: Vec<usize> = (0..SESSION_SRC_LEN)
        .map(|t| 4 + (splitmix(0xBEEF ^ t as u64) % 16) as usize)
        .collect();
    let nn_pairs: Vec<(Vec<usize>, Vec<usize>)> = candidates_for(0)
        .into_iter()
        .map(|c| {
            let mut tin = vec![1usize];
            tin.extend(&c[..c.len() - 1]);
            (tin, c)
        })
        .collect();
    let stepped_once = |m: &Transformer| -> f32 {
        let mut total = 0.0f32;
        let mut probs = vec![0.0f32; vocab_n];
        for (tin, tout) in &nn_pairs {
            let mut st = m.begin_decode(&src);
            let mut lp = 0.0f32;
            for (&ti, &to) in tin.iter().zip(tout.iter()) {
                probs.copy_from_slice(st.step(ti));
                softmax_row(&mut probs);
                lp += probs[to].max(1e-12).ln();
            }
            total += lp;
        }
        total
    };
    let prefill_lp: f32 = nn_pairs
        .iter()
        .map(|(tin, tout)| model.forced_logprob(&src, tin, tout))
        .sum();
    let stepped_lp = stepped_once(&model);
    assert_eq!(
        prefill_lp.to_bits(),
        stepped_lp.to_bits(),
        "prefill scoring diverged from the token-stepped loop \
         (prefill {prefill_lp}, stepped {stepped_lp})"
    );
    let (mut prefill_secs, mut stepped_secs) = (f64::INFINITY, f64::INFINITY);
    for round in 0..rounds + 1 {
        let t0 = Instant::now();
        for (tin, tout) in &nn_pairs {
            std::hint::black_box(model.forced_logprob(&src, tin, tout));
        }
        let p = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        std::hint::black_box(stepped_once(&model));
        let s = t0.elapsed().as_secs_f64();
        if round > 0 {
            prefill_secs = prefill_secs.min(p);
            stepped_secs = stepped_secs.min(s);
        }
    }
    let score_tokens = (CANDS * CAND_LEN) as f64;
    let prefill_speedup = stepped_secs / prefill_secs;
    println!(
        "prefill: {:>8.0} tok/s | stepped: {:>8.0} tok/s | prefill speedup {prefill_speedup:.2}x",
        score_tokens / prefill_secs,
        score_tokens / stepped_secs,
    );

    // In-process: encode once per request. One decode state (one encoder
    // pass; its `forced_logprob` resets to the just-encoded state) scores
    // every candidate, against one `Seq2Seq::forced_logprob` call (one
    // encoder pass) per candidate.
    let (bos, eos) = (vocab.special(Special::Bos), vocab.special(Special::Eos));
    let session_pairs: Vec<(Vec<usize>, Vec<usize>)> = (0..SESSION_CANDS)
        .map(|c| {
            let cand: Vec<usize> = (0..SESSION_CAND_LEN)
                .map(|t| 4 + (splitmix(0x5E55 << 32 | (c as u64) << 16 | t as u64) % 16) as usize)
                .collect();
            forced_pair(&cand, bos, eos)
        })
        .collect();
    let session_once = |m: &Transformer| -> Vec<u32> {
        let mut st = m.begin_decode(&src);
        session_pairs
            .iter()
            .map(|(tin, tout)| st.forced_logprob(tin, tout).to_bits())
            .collect()
    };
    let per_call_once = |m: &mut Transformer| -> Vec<u32> {
        session_pairs
            .iter()
            .map(|(tin, tout)| m.forced_logprob(&src, tin, tout).to_bits())
            .collect()
    };
    assert_eq!(
        session_once(&model),
        per_call_once(&mut model),
        "session scoring diverged from one forced_logprob per candidate"
    );
    let (mut session_secs, mut per_call_secs) = (f64::INFINITY, f64::INFINITY);
    for round in 0..rounds + 1 {
        let t0 = Instant::now();
        std::hint::black_box(session_once(&model));
        let s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        std::hint::black_box(per_call_once(&mut model));
        let p = t0.elapsed().as_secs_f64();
        if round > 0 {
            session_secs = session_secs.min(s);
            per_call_secs = per_call_secs.min(p);
        }
    }
    let session_speedup = per_call_secs / session_secs;
    println!(
        "session: {:>7.1} ms/request | per-call: {:>7.1} ms/request | session speedup \
         {session_speedup:.2}x ({SESSION_CANDS}x{SESSION_CAND_LEN}-token candidates, \
         {SESSION_SRC_LEN}-token source)",
        session_secs * 1e3,
        per_call_secs * 1e3,
    );

    // In-process: one decoder forward per request. On one encoded state,
    // one `forced_logprobs` call over every candidate against one
    // `forced_logprob` per candidate (each resets to the just-encoded
    // state, so neither side pays the encoder).
    let mut st = model.begin_decode(&src);
    let batched_once = |st: &mut DecodeState| -> Vec<u32> {
        let scores = st.forced_logprobs(&session_pairs);
        scores.iter().map(|s| s.to_bits()).collect()
    };
    let per_candidate_once = |st: &mut DecodeState| -> Vec<u32> {
        session_pairs
            .iter()
            .map(|(tin, tout)| st.forced_logprob(tin, tout).to_bits())
            .collect()
    };
    assert_eq!(
        batched_once(&mut st),
        per_candidate_once(&mut st),
        "batched scoring diverged from one forced_logprob per candidate"
    );
    let (mut batched_secs, mut per_cand_secs) = (f64::INFINITY, f64::INFINITY);
    for round in 0..rounds + 1 {
        let t0 = Instant::now();
        std::hint::black_box(batched_once(&mut st));
        let b = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        std::hint::black_box(per_candidate_once(&mut st));
        let p = t0.elapsed().as_secs_f64();
        if round > 0 {
            batched_secs = batched_secs.min(b);
            per_cand_secs = per_cand_secs.min(p);
        }
    }
    drop(st);
    vega_par::set_threads(0);
    let batched_speedup = per_cand_secs / batched_secs;
    println!(
        "batched: {:>7.1} ms/request | per-candidate: {:>7.1} ms/request | batched speedup \
         {batched_speedup:.2}x (one encoded state)",
        batched_secs * 1e3,
        per_cand_secs * 1e3,
    );

    let out_path =
        std::env::var("VEGA_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".to_string());
    let doc = Json::obj([
        ("bench", Json::str("serve")),
        ("workload", Json::str("score")),
        (
            "model",
            Json::str("transformer d512 ff2048 enc1 dec3 (untrained)"),
        ),
        ("candidates_per_request", Json::num_usize(CANDS)),
        ("candidate_tokens", Json::num_usize(CAND_LEN)),
        ("compute_threads", Json::num_usize(1)),
        ("rounds", Json::num_usize(rounds)),
        (
            "scoring",
            Json::Arr(
                [("prefill", prefill_secs), ("stepped", stepped_secs)]
                    .into_iter()
                    .map(|(path, secs)| {
                        Json::obj([
                            ("path", Json::str(path)),
                            ("seconds_per_request", Json::num_f64(secs)),
                            ("tokens_per_sec", Json::num_f64(score_tokens / secs)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("prefill_scoring_speedup", Json::num_f64(prefill_speedup)),
        (
            "session_scoring_shape",
            Json::obj([
                ("candidates", Json::num_usize(SESSION_CANDS)),
                ("candidate_tokens", Json::num_usize(SESSION_CAND_LEN)),
                ("source_tokens", Json::num_usize(SESSION_SRC_LEN)),
            ]),
        ),
        (
            "session_scoring",
            Json::Arr(
                [("session", session_secs), ("per_call", per_call_secs)]
                    .into_iter()
                    .map(|(path, secs)| {
                        Json::obj([
                            ("path", Json::str(path)),
                            ("seconds_per_request", Json::num_f64(secs)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("session_scoring_speedup", Json::num_f64(session_speedup)),
        (
            "batched_scoring",
            Json::Arr(
                [("batched", batched_secs), ("per_candidate", per_cand_secs)]
                    .into_iter()
                    .map(|(path, secs)| {
                        Json::obj([
                            ("path", Json::str(path)),
                            ("seconds_per_request", Json::num_f64(secs)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("batched_scoring_speedup", Json::num_f64(batched_speedup)),
    ]);
    std::fs::write(&out_path, doc.render()).expect("write bench json");
    println!(
        "wrote {out_path} (prefill scoring speedup {prefill_speedup:.2}x, \
         session scoring speedup {session_speedup:.2}x, batched scoring speedup \
         {batched_speedup:.2}x)"
    );
    if prefill_speedup >= PREFILL_SPEEDUP_FLOOR
        && session_speedup >= SESSION_SPEEDUP_FLOOR
        && batched_speedup >= BATCHED_SPEEDUP_FLOOR
    {
        println!("serve: smoke=ok");
    } else {
        println!(
            "serve: smoke=FAIL (prefill scoring under {PREFILL_SPEEDUP_FLOOR}x the token-stepped \
             loop, session scoring under {SESSION_SPEEDUP_FLOOR}x one forced_logprob per \
             candidate, or batched scoring under {BATCHED_SPEEDUP_FLOOR}x one forced_logprob \
             per candidate on one state)"
        );
        std::process::exit(1);
    }
}
