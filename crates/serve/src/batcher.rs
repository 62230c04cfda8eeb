//! Continuous batching: one forward pass serves many requests.
//!
//! The replica-pool dispatcher gives every in-flight generation its own full
//! weight-matrix traversal. This module amortizes those traversals: a single
//! **broker** thread owns a [`vega_nn::BatchDecode`] batch over one model
//! and steps every in-flight decode *session* in lockstep — each step reads
//! every weight row once and advances all sessions, so weight bandwidth is
//! shared N ways instead of paid N times.
//!
//! Scheduling is *continuous*: sessions join the running batch at any token
//! boundary (no micro-batch barrier to wait for) and leave the moment they
//! finish, freeing their slot for the next queued session. A session is one
//! decode primitive — a greedy generation or a forced-sequence scoring — so
//! a single `generate` request contributes many short sessions over its
//! lifetime, interleaving naturally with other requests.
//!
//! Wiring: dispatcher workers hold model replicas with a [`BatchBackend`]
//! installed (see [`vega_model::DecodeBackend`]). Every decode call the
//! generation pipeline makes on such a replica turns into a message to the
//! broker and a blocking wait for the reply. The broker replicates the
//! single-session `greedy`/`forced_logprob` loops *exactly* — same argmax,
//! same degeneracy exit, same softmax and clamp — over per-slot logits that
//! are themselves bit-identical to the single path (the `vega-nn` batch
//! contract), so installing the backend changes no output bit.
//!
//! Deadlines are honored at token boundaries: before each lockstep pass the
//! broker retires expired sessions with [`DecodeAbort::Expired`]; nothing
//! partial escapes. The `serve.batch` chaos site kills a live slot
//! mid-generation; recovery replays the session from scratch — generation
//! is a pure function of weights and input, so the replay is
//! byte-identical and the caller never observes the fault.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::time::Instant;
use vega_model::{BackendHandle, CodeBe, DecodeAbort, DecodeBackend, Special};
use vega_nn::decode::softmax_row;
use vega_nn::{argmax, looks_degenerate, BatchDecode};

/// What a session computes.
enum Work {
    /// Greedy generation: emit tokens until EOS / degeneracy / length cap.
    Greedy { input: Vec<usize>, max_len: usize },
    /// Forced-sequence scoring: sum per-step log-probabilities of `output`.
    Logprob {
        input: Vec<usize>,
        output: Vec<usize>,
    },
}

/// A decode request from a dispatcher worker to the broker.
struct SessionReq {
    work: Work,
    deadline: Option<Instant>,
    reply: Sender<SessionReply>,
}

/// The broker's answer: the decode result plus this session's share of the
/// batched step time, which the *worker* thread feeds into the thread-local
/// decode tally so per-request attribution keeps working (the broker thread
/// can't bump a waiter's thread-local).
struct SessionReply {
    result: Result<SessionOut, DecodeAbort>,
    tokens: u64,
    seconds: f64,
}

enum SessionOut {
    Tokens(Vec<usize>),
    Logprob(f32),
}

/// The [`DecodeBackend`] installed on dispatcher replicas in batch mode:
/// forwards both decode primitives to the broker and blocks for the reply.
pub struct BatchBackend {
    tx: Sender<SessionReq>,
}

impl BatchBackend {
    fn call(&self, work: Work, deadline: Option<Instant>) -> Result<SessionOut, DecodeAbort> {
        let (reply_tx, reply_rx) = channel();
        let req = SessionReq {
            work,
            deadline,
            reply: reply_tx,
        };
        if self.tx.send(req).is_err() {
            return Err(DecodeAbort::Broken("batch broker is gone".into()));
        }
        let reply = reply_rx
            .recv()
            .map_err(|_| DecodeAbort::Broken("batch broker dropped the session".into()))?;
        // Attribute this session's decode work to the calling thread, where
        // the dispatcher's tally reset/snapshot protocol expects it.
        vega_nn::decode::tally::bump_n(reply.tokens, reply.seconds);
        reply.result
    }
}

impl DecodeBackend for BatchBackend {
    fn generate(
        &self,
        input: &[usize],
        max_len: usize,
        deadline: Option<Instant>,
    ) -> Result<Vec<usize>, DecodeAbort> {
        match self.call(
            Work::Greedy {
                input: input.to_vec(),
                max_len,
            },
            deadline,
        )? {
            SessionOut::Tokens(t) => Ok(t),
            SessionOut::Logprob(_) => Err(DecodeAbort::Broken("broker replied wrong kind".into())),
        }
    }

    fn sequence_logprob(
        &self,
        input: &[usize],
        output: &[usize],
        deadline: Option<Instant>,
    ) -> Result<f32, DecodeAbort> {
        match self.call(
            Work::Logprob {
                input: input.to_vec(),
                output: output.to_vec(),
            },
            deadline,
        )? {
            SessionOut::Logprob(lp) => Ok(lp),
            SessionOut::Tokens(_) => Err(DecodeAbort::Broken("broker replied wrong kind".into())),
        }
    }
}

/// A running broker thread plus the sender used to mint backends.
///
/// Dropping the handle drops its own sender and joins the broker; the
/// broker exits once *every* sender is gone, so the handle must be dropped
/// after the replicas holding [`BackendHandle`] clones (struct field order
/// in `ModelSet` guarantees this).
pub(crate) struct BatcherHandle {
    tx: Option<Sender<SessionReq>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl BatcherHandle {
    /// Spawns a broker over its own replica of `model` (which must have no
    /// backend installed) with `capacity` lockstep slots.
    pub(crate) fn spawn(model: CodeBe, capacity: usize) -> BatcherHandle {
        assert!(
            !model.has_decode_backend(),
            "broker model must decode locally"
        );
        let (tx, rx) = channel();
        let thread = std::thread::Builder::new()
            .name("vega-batch-broker".into())
            .spawn(move || broker_loop(&model, capacity.max(1), &rx))
            .expect("spawn batch broker");
        BatcherHandle {
            tx: Some(tx),
            thread: Some(thread),
        }
    }

    /// A backend handle for installation on a dispatcher replica.
    pub(crate) fn backend(&self) -> BackendHandle {
        BackendHandle::new(BatchBackend {
            tx: self.tx.clone().expect("batcher running"),
        })
    }
}

impl Drop for BatcherHandle {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One in-flight session occupying a batch slot.
struct Active {
    slot: usize,
    deadline: Option<Instant>,
    reply: Sender<SessionReply>,
    state: ActiveState,
    /// Attributed decode work: emitted-token count and share of step time.
    tokens: u64,
    seconds: f64,
    /// The original request's work, kept verbatim so a chaos-killed slot
    /// can replay the session from scratch.
    work: Work,
}

enum ActiveState {
    Greedy {
        /// The emitted stream including the leading BOS, exactly as the
        /// single-session greedy loop carries it.
        out: Vec<usize>,
        cap: usize,
    },
    Logprob {
        tgt_in: Vec<usize>,
        tgt_out: Vec<usize>,
        pos: usize,
        n: usize,
        lp: f32,
        probs: Vec<f32>,
    },
}

fn broker_loop(model: &CodeBe, capacity: usize, rx: &Receiver<SessionReq>) {
    let obs = vega_obs::global();
    let bos = model.vocab.special(Special::Bos);
    let eos = model.vocab.special(Special::Eos);
    let model_max = model.max_len();
    let vocab_len = model.vocab.len();
    let mut batch = model.begin_batch_decode(capacity);
    let mut pending: VecDeque<(SessionReq, Instant)> = VecDeque::new();
    let mut active: Vec<Active> = Vec::new();
    let mut disconnected = false;
    loop {
        // --- Token-boundary join: drain queued requests without blocking;
        // block only when the batch is idle and nothing is pending.
        if active.is_empty() && pending.is_empty() {
            if disconnected {
                return;
            }
            match rx.recv() {
                Ok(req) => pending.push_back((req, Instant::now())),
                Err(_) => return,
            }
        }
        loop {
            match rx.try_recv() {
                Ok(req) => pending.push_back((req, Instant::now())),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        // --- Admit pending sessions into free slots.
        while active.len() < capacity {
            let Some((req, received)) = pending.pop_front() else {
                break;
            };
            obs.observe(
                "serve.batch.join_wait_ms",
                received.elapsed().as_secs_f64() * 1e3,
            );
            if let Some(a) = admit(req, &mut *batch, bos, eos, model_max, vocab_len) {
                obs.counter_add("serve.batch.joins", 1);
                active.push(a);
            }
        }
        obs.gauge_set("serve.batch.active", active.len() as f64);
        // --- Chaos site: a live slot dies mid-generation. Recovery: retire
        // the slot and replay its session from scratch — generation is a
        // pure function of weights + input, so the caller's bytes are
        // unchanged and only latency (and the replay counter) show it.
        if !active.is_empty() && vega_fault::check(vega_fault::sites::SERVE_BATCH).is_some() {
            let victim = active.remove(0);
            batch.retire(victim.slot);
            pending.push_front((
                SessionReq {
                    work: victim.work,
                    deadline: victim.deadline,
                    reply: victim.reply,
                },
                Instant::now(),
            ));
            obs.counter_add("serve.batch.replays", 1);
            vega_fault::recovered(vega_fault::sites::SERVE_BATCH);
            continue;
        }
        // --- Deadline checks at the token boundary, before paying for the
        // next lockstep pass. Expired sessions abort whole: no partial
        // token stream or score ever reaches a caller.
        let now = Instant::now();
        let mut i = 0;
        while i < active.len() {
            if active[i].deadline.is_some_and(|d| now > d) {
                let a = active.swap_remove(i);
                batch.retire(a.slot);
                let _ = a.reply.send(SessionReply {
                    result: Err(DecodeAbort::Expired),
                    tokens: a.tokens,
                    seconds: a.seconds,
                });
            } else {
                i += 1;
            }
        }
        if active.is_empty() {
            continue;
        }
        // --- One lockstep pass: every session advances one token through a
        // single shared traversal of the weights.
        let feeds: Vec<(usize, usize)> = active
            .iter()
            .map(|a| {
                let token = match &a.state {
                    ActiveState::Greedy { out, .. } => *out.last().expect("greedy carries bos"),
                    ActiveState::Logprob { tgt_in, pos, .. } => tgt_in[*pos],
                };
                (a.slot, token)
            })
            .collect();
        let t0 = Instant::now();
        batch.step(&feeds);
        let dt = t0.elapsed().as_secs_f64();
        let share = dt / feeds.len() as f64;
        obs.counter_add("serve.batch.steps", 1);
        obs.observe("serve.batch.occupancy", feeds.len() as f64);
        // --- Advance every fed session; retire the finished.
        let mut i = 0;
        while i < active.len() {
            let a = &mut active[i];
            let done = match &mut a.state {
                ActiveState::Greedy { out, cap } => {
                    // Exact single-path greedy step: argmax → EOS exit →
                    // emit → degeneracy exit → length cap. Tokens and step
                    // time are attributed per step, mirroring the single
                    // path's per-token `decode.tokens`/`step_seconds`.
                    let next = argmax(batch.logits(a.slot)).unwrap_or(eos);
                    obs.observe("decode.step_seconds", share);
                    obs.counter_add("decode.tokens", 1);
                    a.tokens += 1;
                    a.seconds += share;
                    if next == eos {
                        true
                    } else {
                        out.push(next);
                        looks_degenerate(out) || out.len() >= *cap
                    }
                }
                ActiveState::Logprob {
                    tgt_out,
                    pos,
                    n,
                    lp,
                    probs,
                    ..
                } => {
                    probs.copy_from_slice(batch.logits(a.slot));
                    softmax_row(probs);
                    *lp += probs[tgt_out[*pos]].max(1e-12).ln();
                    *pos += 1;
                    *pos >= *n
                }
            };
            if !done {
                i += 1;
                continue;
            }
            let a = active.swap_remove(i);
            batch.retire(a.slot);
            let (result, tokens, seconds) = match a.state {
                ActiveState::Greedy { mut out, .. } => {
                    out.remove(0); // strip BOS, as the single path does
                    (SessionOut::Tokens(out), a.tokens, a.seconds)
                }
                ActiveState::Logprob { n, lp, .. } => {
                    // One fed row per scored position: the broker shares
                    // no prefix across sessions.
                    obs.counter_add("decode.scored_tokens", n as u64);
                    obs.counter_add("decode.scored_rows", n as u64);
                    // Scoring never bumps the decode tally on the single
                    // path (only `greedy` does), so the attribution a
                    // logprob session hands back is zero too.
                    (SessionOut::Logprob(lp), 0, 0.0)
                }
            };
            let _ = a.reply.send(SessionReply {
                result: Ok(result),
                tokens,
                seconds,
            });
        }
    }
}

/// Turns a request into an active session, or answers it immediately when
/// it needs no decode step (zero-length caps/targets — the single path
/// returns without stepping for those too).
fn admit(
    req: SessionReq,
    batch: &mut dyn BatchDecode,
    bos: usize,
    eos: usize,
    model_max: usize,
    vocab_len: usize,
) -> Option<Active> {
    let deadline = req.deadline;
    match &req.work {
        Work::Greedy { input, max_len } => {
            let cap = (*max_len).min(model_max);
            if cap <= 1 {
                // `greedy` never enters its loop: the BOS-only stream
                // strips to an empty output.
                let _ = req.reply.send(SessionReply {
                    result: Ok(SessionOut::Tokens(Vec::new())),
                    tokens: 0,
                    seconds: 0.0,
                });
                return None;
            }
            let slot = batch.join(input).expect("admit into a full batch");
            Some(Active {
                slot,
                deadline,
                reply: req.reply,
                state: ActiveState::Greedy {
                    out: vec![bos],
                    cap,
                },
                tokens: 0,
                seconds: 0.0,
                work: req.work,
            })
        }
        Work::Logprob { input, output } => {
            // Replicate the `Seq2Seq::sequence_logprob` default: teacher
            // forcing over `[bos] + output` scoring `output + [eos]`.
            let mut tgt_in = Vec::with_capacity(output.len() + 1);
            tgt_in.push(bos);
            tgt_in.extend_from_slice(output);
            let mut tgt_out = output.clone();
            tgt_out.push(eos);
            let n = tgt_in.len().min(tgt_out.len()).min(model_max);
            if n == 0 {
                let _ = req.reply.send(SessionReply {
                    result: Ok(SessionOut::Logprob(0.0)),
                    tokens: 0,
                    seconds: 0.0,
                });
                return None;
            }
            let slot = batch.join(input).expect("admit into a full batch");
            Some(Active {
                slot,
                deadline,
                reply: req.reply,
                state: ActiveState::Logprob {
                    tgt_in,
                    tgt_out,
                    pos: 0,
                    n,
                    lp: 0.0,
                    probs: vec![0.0; vocab_len],
                },
                tokens: 0,
                seconds: 0.0,
                work: req.work,
            })
        }
    }
}
