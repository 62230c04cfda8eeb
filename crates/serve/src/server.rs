//! The TCP service: bounded request queue, coalescing, batched dispatch.
//!
//! One thread accepts connections, one thread per connection parses requests,
//! and a single dispatcher thread drains the bounded queue in micro-batches,
//! running each batch's jobs concurrently on the one shared model via
//! `vega-par`. The control rules, in order, for a `generate` request:
//!
//! 1. **Cache** — if the content address is cached, answer immediately.
//! 2. **Coalesce** — if the same key is already queued or generating, attach
//!    to it; coalesced requests consume no queue slot and all attached
//!    requests receive the identical payload.
//! 3. **Backpressure** — if the queue holds `queue_cap` jobs, shed with an
//!    explicit `overloaded` response. The server never blocks an enqueue.
//! 4. **Deadline** — a job dequeued after its deadline is answered with
//!    `deadline_exceeded` instead of being generated. A generation that has
//!    started runs to completion: the deadline is checked before dispatch,
//!    never between tokens.
//! 5. **Shutdown** — after shutdown begins, new work is refused with
//!    `shutting_down`, but everything already queued is generated and
//!    answered before the dispatcher exits.

use crate::engine::Engine;
use crate::lru::LruCache;
use crate::protocol::{self, ErrorKind, LineBuf, Request};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vega_obs::json::Json;
use vega_obs::TraceCtx;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Generation-cache capacity in entries (0 disables caching).
    pub cache_cap: usize,
    /// Bounded queue capacity; a full queue sheds with `overloaded`.
    pub queue_cap: usize,
    /// Jobs per micro-batch, generated concurrently on the shared model
    /// (0 → `vega_par::threads()`).
    pub batch: usize,
    /// Deadline applied when a request carries none.
    pub default_deadline_ms: u64,
    /// Fault injection: sleep this long inside every fresh generation (used
    /// by tests and CI to provoke queue overflow deterministically).
    pub slow_ms: u64,
    /// Flight-recorder capacity in records; `Server::start` configures the
    /// process-wide recorder with it. 0 leaves the recorder untouched
    /// (disabled unless something else enabled it) — the default, so
    /// embedded servers in tests don't clobber each other's recorders. The
    /// `vega-serve` daemon enables it (default 256, `--flight-cap`).
    pub flight_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_cap: 512,
            queue_cap: 64,
            batch: 0,
            default_deadline_ms: 120_000,
            slow_ms: 0,
            flight_cap: 0,
        }
    }
}

/// A connection that completes no request line for this long is closed, so
/// half-open or stalled peers cannot pin a connection thread forever.
const CONN_IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// A queued generation job.
struct Job {
    key: String,
    target: String,
    group: String,
    deadline: Instant,
    /// The submitting request's trace context; the dispatch worker adopts
    /// it so generation spans and flight records carry the caller's trace.
    trace: Option<TraceCtx>,
    /// When the job entered the queue (`timing.queue_ms` measures from
    /// here to dispatch).
    enqueued: Instant,
    /// The engine this job was keyed against, pinned at submit time. A hot
    /// swap flips the registry for *new* submissions; jobs already queued
    /// generate on the engine their cache key came from, so a swap never
    /// mixes keys and weights and never loses in-flight work.
    engine: Arc<Engine>,
}

/// What a waiter receives when its job resolves.
#[derive(Debug, Clone)]
enum Outcome {
    Done {
        /// The rendered `result` payload, shared with the cache entry.
        payload: Arc<str>,
        /// Queue wait of the job that produced the payload, in ms.
        queue_ms: u64,
        /// Decode time attributed to the generation, in ms.
        decode_ms: f64,
        /// Tokens the greedy decoder emitted for the generation.
        tokens: u64,
    },
    Failed {
        kind: ErrorKind,
        msg: String,
    },
}

/// Mutable server state, all under one lock (requests touch it for
/// microseconds; generation happens outside it).
struct State {
    queue: VecDeque<Job>,
    inflight: BTreeMap<String, Vec<Sender<Outcome>>>,
    /// Rendered `result` payloads by cache key: a hit clones an `Arc`.
    cache: LruCache<Arc<str>>,
    shutting_down: bool,
    requests: u64,
    coalesced: u64,
    shed: u64,
    deadline_exceeded: u64,
    generated: u64,
    score_requests: u64,
}

/// A point-in-time statistics snapshot (also the `stats` op payload).
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Generate submissions seen (including cache hits and shed requests).
    pub requests: u64,
    /// Cache lookups that answered immediately.
    pub cache_hits: u64,
    /// Cache lookups that found nothing.
    pub cache_misses: u64,
    /// Entries evicted to make room.
    pub cache_evictions: u64,
    /// Entries currently cached.
    pub cache_len: u64,
    /// Requests attached to an already-pending identical job.
    pub coalesced: u64,
    /// Requests shed with `overloaded`.
    pub shed: u64,
    /// Jobs answered with `deadline_exceeded`.
    pub deadline_exceeded: u64,
    /// Fresh (non-cached) generations performed.
    pub generated: u64,
    /// `score` requests handled (they bypass cache, coalescing, and queue).
    pub score_requests: u64,
    /// Jobs currently queued.
    pub queue_depth: u64,
    /// Tokens emitted by the incremental greedy decoder (process-wide
    /// `decode.tokens` obs counter) — with wall-clock deltas this yields the
    /// serving-level tokens/sec that `vega-loadgen` reports.
    pub decode_tokens: u64,
    /// Tokens scored through the incremental `forced_logprob` path
    /// (process-wide `decode.scored_tokens` obs counter).
    pub decode_scored_tokens: u64,
    /// Cache hits as a fraction of all lookups (`0.0` before any lookup) —
    /// the same ratio the `metrics` op's counters imply, precomputed so
    /// `stats` and dashboards agree without client-side arithmetic.
    pub cache_hit_ratio: f64,
    /// p50 of the `decode.step_seconds` obs histogram (NaN when empty).
    pub decode_step_p50: f64,
    /// p90 of the `decode.step_seconds` obs histogram (NaN when empty).
    pub decode_step_p90: f64,
    /// p99 of the `decode.step_seconds` obs histogram (NaN when empty).
    pub decode_step_p99: f64,
    /// Active SIMD kernel (`"scalar"` or `"avx2"`, whichever the CPU runs —
    /// see `vega_nn::kernel`). Both compute the same bits; the ISA decides
    /// only speed.
    pub kernel: &'static str,
}

impl ServeStats {
    /// Renders the snapshot as the `stats` payload.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("requests", Json::num_u64(self.requests)),
            ("cache_hits", Json::num_u64(self.cache_hits)),
            ("cache_misses", Json::num_u64(self.cache_misses)),
            ("cache_evictions", Json::num_u64(self.cache_evictions)),
            ("cache_len", Json::num_u64(self.cache_len)),
            ("coalesced", Json::num_u64(self.coalesced)),
            ("shed", Json::num_u64(self.shed)),
            ("deadline_exceeded", Json::num_u64(self.deadline_exceeded)),
            ("generated", Json::num_u64(self.generated)),
            ("score_requests", Json::num_u64(self.score_requests)),
            ("queue_depth", Json::num_u64(self.queue_depth)),
            ("decode_tokens", Json::num_u64(self.decode_tokens)),
            (
                "decode_scored_tokens",
                Json::num_u64(self.decode_scored_tokens),
            ),
            ("cache_hit_ratio", Json::num_f64(self.cache_hit_ratio)),
            ("decode_step_p50", Json::num_f64(self.decode_step_p50)),
            ("decode_step_p90", Json::num_f64(self.decode_step_p90)),
            ("decode_step_p99", Json::num_f64(self.decode_step_p99)),
            ("kernel", Json::str(self.kernel)),
        ])
    }
}

struct Shared {
    cfg: ServeConfig,
    state: Mutex<State>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
    /// The live engine. Request paths take the read lock for just long
    /// enough to clone the `Arc`; a hot swap takes the write lock for just
    /// long enough to store a new one.
    engine: RwLock<Arc<Engine>>,
    /// Serializes `swap` operations (loading a checkpoint is slow; two
    /// concurrent swaps must not interleave their load/flip sequences).
    swap_lock: Mutex<()>,
}

/// The current engine (pinning it keeps it alive across any concurrent
/// swap).
fn live_engine(shared: &Shared) -> Arc<Engine> {
    Arc::clone(&shared.engine.read().unwrap())
}

/// A running vega-serve instance.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds, spawns the accept and dispatcher threads, and returns.
    ///
    /// # Errors
    /// Propagates socket bind errors.
    pub fn start(engine: Engine, mut cfg: ServeConfig) -> std::io::Result<Server> {
        if cfg.batch == 0 {
            cfg.batch = vega_par::threads().max(1);
        }
        if cfg.flight_cap > 0 {
            vega_obs::flight::configure(cfg.flight_cap);
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        vega_obs::info!(
            "[vega-serve] listening on {local_addr} (kernel={})",
            vega_nn::kernel::active_name()
        );
        vega_obs::global().gauge_set(
            "serve.kernel.avx2",
            if vega_nn::kernel::active() == vega_nn::Isa::Avx2 {
                1.0
            } else {
                0.0
            },
        );
        let cache = LruCache::new(cfg.cache_cap);
        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                inflight: BTreeMap::new(),
                cache,
                shutting_down: false,
                requests: 0,
                coalesced: 0,
                shed: 0,
                deadline_exceeded: 0,
                generated: 0,
                score_requests: 0,
            }),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            local_addr,
            engine: RwLock::new(Arc::new(engine)),
            swap_lock: Mutex::new(()),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || dispatcher_loop(&shared))
        };
        let conns = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || accept_loop(&shared, &listener, &conns))
        };
        Ok(Server {
            shared,
            accept: Some(accept),
            dispatcher: Some(dispatcher),
            conns,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Begins graceful shutdown (idempotent): queued work is finished, new
    /// work is refused, all threads exit.
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// A statistics snapshot.
    pub fn stats(&self) -> ServeStats {
        snapshot(&self.shared)
    }

    /// As [`Server::join`], returning the final statistics snapshot.
    pub fn join_with_stats(self) -> ServeStats {
        let shared = Arc::clone(&self.shared);
        self.join();
        snapshot(&shared)
    }

    /// Blocks until the server has fully stopped (call [`Server::shutdown`]
    /// first, or have a client send the `shutdown` op).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in conns {
            let _ = h.join();
        }
    }
}

fn snapshot(shared: &Shared) -> ServeStats {
    let obs = vega_obs::global();
    let step_hist = obs.histogram("decode.step_seconds");
    let step_q = |q: f64| step_hist.as_ref().map_or(f64::NAN, |h| h.quantile(q));
    let st = shared.state.lock().unwrap();
    let (hits, misses) = (st.cache.hits(), st.cache.misses());
    ServeStats {
        requests: st.requests,
        cache_hits: hits,
        cache_misses: misses,
        cache_evictions: st.cache.evictions(),
        cache_len: st.cache.len() as u64,
        coalesced: st.coalesced,
        shed: st.shed,
        deadline_exceeded: st.deadline_exceeded,
        generated: st.generated,
        score_requests: st.score_requests,
        queue_depth: st.queue.len() as u64,
        decode_tokens: obs.counter("decode.tokens"),
        decode_scored_tokens: obs.counter("decode.scored_tokens"),
        cache_hit_ratio: if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        decode_step_p50: step_q(0.5),
        decode_step_p90: step_q(0.9),
        decode_step_p99: step_q(0.99),
        kernel: vega_nn::kernel::active_name(),
    }
}

fn trigger_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    vega_obs::info!("[vega-serve] shutdown requested; draining queue");
    shared.state.lock().unwrap().shutting_down = true;
    shared.work_cv.notify_all();
    // Unblock the accept loop with a throwaway connection.
    let _ = TcpStream::connect(shared.local_addr);
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener, conns: &Mutex<Vec<JoinHandle<()>>>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || handle_conn(&shared, stream));
        conns.lock().unwrap().push(handle);
    }
}

fn handle_conn(shared: &Shared, mut stream: TcpStream) {
    // Short read timeouts keep the thread responsive to shutdown without
    // busy-waiting; the per-connection idle timeout is tracked on top.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_nodelay(true);
    let obs = vega_obs::global();
    let mut last_line = Instant::now();
    let mut lines = LineBuf::default();
    loop {
        while let Some(line) = lines.next_line() {
            if line.is_empty() {
                continue;
            }
            last_line = Instant::now();
            // Connection chaos sites. The drain path is excluded: once
            // shutdown has begun the listener no longer accepts, so a
            // dropped client could not reconnect to resend — injecting
            // there would turn a graceful drain into a spurious failure.
            let chaos = !shared.shutdown.load(Ordering::SeqCst);
            // Chaos site: a connection dropped mid-request — the client sees
            // EOF instead of a response and must reconnect and resend.
            if chaos && vega_fault::check(vega_fault::sites::SERVE_CONN_DROP).is_some() {
                return;
            }
            let response = handle_line(shared, &line);
            // Chaos site: a stalled response (argument = milliseconds).
            if chaos {
                if let Some(f) = vega_fault::check(vega_fault::sites::SERVE_CONN_STALL) {
                    std::thread::sleep(Duration::from_millis(f.arg));
                    vega_fault::recovered(vega_fault::sites::SERVE_CONN_STALL);
                }
            }
            // Chaos site: a malformed frame written instead of the response;
            // the client must reject it and resend the request. The shutdown
            // op itself is never corrupted (its handling flips the shutdown
            // flag above, so `chaos` was computed before, but a corrupted
            // shutdown ack would strand the client against a dead listener) —
            // re-check the flag here.
            if chaos
                && !shared.shutdown.load(Ordering::SeqCst)
                && vega_fault::check(vega_fault::sites::SERVE_CONN_CORRUPT).is_some()
            {
                if stream.write_all(b"!corrupt-frame!\n").is_err() {
                    return;
                }
                continue;
            }
            if stream.write_all(response.as_bytes()).is_err() || stream.write_all(b"\n").is_err() {
                return;
            }
        }
        match lines.fill(&mut stream) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if last_line.elapsed() > CONN_IDLE_TIMEOUT {
                    obs.counter_add("serve.conn.idle_timeouts", 1);
                    vega_obs::debug!("[vega-serve] closing idle connection");
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn handle_line(shared: &Shared, line: &str) -> String {
    let (id, req) = match protocol::parse_request(line) {
        Ok(parsed) => parsed,
        Err((id, msg)) => return protocol::err_response(&id, ErrorKind::BadRequest, &msg),
    };
    match req {
        Request::Ping => protocol::ok_response(&id, [("pong", Json::Bool(true))]),
        Request::Targets => protocol::ok_response(
            &id,
            [(
                "targets",
                Json::Arr(
                    live_engine(shared)
                        .target_names()
                        .into_iter()
                        .map(Json::str)
                        .collect(),
                ),
            )],
        ),
        Request::Groups => protocol::ok_response(
            &id,
            [(
                "groups",
                Json::Arr(
                    live_engine(shared)
                        .group_names()
                        .into_iter()
                        .map(Json::str)
                        .collect(),
                ),
            )],
        ),
        Request::Stats => protocol::ok_response(&id, [("stats", snapshot(shared).to_json())]),
        Request::Metrics => {
            let obs = vega_obs::global();
            protocol::ok_response(
                &id,
                [
                    ("stats", snapshot(shared).to_json()),
                    ("metrics", obs.metrics_json()),
                    ("text", Json::str(obs.prometheus_text())),
                ],
            )
        }
        Request::FlightDump => protocol::ok_response(
            &id,
            [
                ("enabled", Json::Bool(vega_obs::flight::enabled())),
                ("records", vega_obs::flight::dump_json()),
            ],
        ),
        Request::Swap { path } => handle_swap(shared, &id, &path),
        Request::Shutdown => {
            trigger_shutdown(shared);
            protocol::ok_response(&id, [("stopping", Json::Bool(true))])
        }
        Request::Generate {
            target,
            group,
            deadline_ms,
            trace,
        } => handle_generate(shared, &id, &target, &group, deadline_ms, trace),
        Request::Backend {
            target,
            deadline_ms,
            trace,
        } => handle_backend(shared, &id, &target, deadline_ms, trace),
        Request::Score {
            target,
            group,
            candidates,
            deadline_ms,
            trace,
        } => handle_score(
            shared,
            &id,
            &target,
            &group,
            &candidates,
            deadline_ms,
            trace,
        ),
    }
}

/// The `timing` breakdown of a generate or score response. `cache` is
/// `"hit"`, `"miss"`, or `"coalesced"` (`"none"` for score, which bypasses
/// the cache); `queue_ms`/`decode_ms`/`tokens` describe the work that
/// produced the payload (zero for cache hits; for score, `tokens` is the
/// summed candidate length and `decode_ms` the wall time of the scoring
/// call).
fn timing_json(queue_ms: u64, cache: &str, decode_ms: f64, tokens: u64) -> Json {
    Json::obj([
        ("queue_ms", Json::num_u64(queue_ms)),
        ("cache", Json::str(cache)),
        ("decode_ms", Json::num_f64(decode_ms)),
        ("tokens", Json::num_u64(tokens)),
    ])
}

fn handle_generate(
    shared: &Shared,
    id: &Json,
    target: &str,
    group: &str,
    deadline_ms: Option<u64>,
    trace: Option<TraceCtx>,
) -> String {
    let obs = vega_obs::global();
    // Adopt the caller's trace for everything this request does on this
    // thread — the `serve.request` span below closes carrying it.
    let _trace_guard = obs.adopt_trace(trace);
    let span = obs.span("serve.request");
    let t0 = Instant::now();
    let deadline_ms = deadline_ms.unwrap_or(shared.cfg.default_deadline_ms);
    let deadline = t0 + Duration::from_millis(deadline_ms);
    let engine = live_engine(shared);
    let response = match submit(shared, &engine, target, group, deadline, trace) {
        Submit::Cached(payload) => generate_ok(
            id,
            true,
            false,
            payload,
            trace,
            timing_json(0, "hit", 0.0, 0),
        ),
        Submit::Wait { rx, coalesced } => wait_outcome(&rx, deadline_ms, id, coalesced, trace),
        Submit::Shed => protocol::err_response(
            id,
            ErrorKind::Overloaded,
            &format!(
                "queue full ({} jobs); request shed, retry later",
                shared.cfg.queue_cap
            ),
        ),
        Submit::ShuttingDown => {
            protocol::err_response(id, ErrorKind::ShuttingDown, "server is draining")
        }
        Submit::Reject { kind, msg } => protocol::err_response(id, kind, &msg),
    };
    obs.observe("serve.request_seconds", t0.elapsed().as_secs_f64());
    let _ = span.finish();
    response
}

fn generate_ok(
    id: &Json,
    cached: bool,
    coalesced: bool,
    payload: Arc<str>,
    trace: Option<TraceCtx>,
    timing: Json,
) -> String {
    let mut fields = vec![
        ("cached", Json::Bool(cached)),
        ("coalesced", Json::Bool(coalesced)),
        ("result", Json::Raw(payload)),
    ];
    if let Some(t) = trace {
        fields.push(("trace", Json::str(t.render())));
    }
    fields.push(("timing", timing));
    protocol::ok_response(id, fields)
}

/// Waits for a queued job's outcome. The wait is bounded (deadline plus a
/// wide dispatch margin) so a lost job can never hang the connection.
fn wait_outcome(
    rx: &Receiver<Outcome>,
    deadline_ms: u64,
    id: &Json,
    coalesced: bool,
    trace: Option<TraceCtx>,
) -> String {
    let margin = Duration::from_millis(deadline_ms) + Duration::from_secs(300);
    match rx.recv_timeout(margin) {
        Ok(Outcome::Done {
            payload,
            queue_ms,
            decode_ms,
            tokens,
        }) => generate_ok(
            id,
            false,
            coalesced,
            payload,
            trace,
            timing_json(
                queue_ms,
                if coalesced { "coalesced" } else { "miss" },
                decode_ms,
                tokens,
            ),
        ),
        Ok(Outcome::Failed { kind, msg }) => protocol::err_response(id, kind, &msg),
        Err(_) => protocol::err_response(
            id,
            ErrorKind::Internal,
            "generation worker did not answer within the dispatch margin",
        ),
    }
}

fn handle_backend(
    shared: &Shared,
    id: &Json,
    target: &str,
    deadline_ms: Option<u64>,
    trace: Option<TraceCtx>,
) -> String {
    let obs = vega_obs::global();
    let _trace_guard = obs.adopt_trace(trace);
    let span = obs.span("serve.request");
    let t0 = Instant::now();
    // Pin one engine for the whole backend: the group list and every
    // sub-request stay mutually consistent even if a swap lands mid-way.
    let engine = live_engine(shared);
    if let Err(e) = engine.validate_target(target) {
        let _ = span.finish();
        return protocol::err_response(id, e.kind, &e.msg);
    }
    // Sub-requests run sequentially through the same cache/queue path, so a
    // backend request holds at most one queue slot at a time and repeated
    // backends are served from cache. The deadline spans the whole backend.
    let overall_ms = deadline_ms
        .unwrap_or(shared.cfg.default_deadline_ms * engine.group_names().len().max(1) as u64);
    let deadline = t0 + Duration::from_millis(overall_ms);
    let mut functions = Vec::new();
    let mut errors = Vec::new();
    for group in engine.group_names() {
        let outcome = match submit(shared, &engine, target, &group, deadline, trace) {
            Submit::Cached(payload) => Ok(payload),
            Submit::Wait { rx, .. } => match rx.recv_timeout(
                deadline.saturating_duration_since(Instant::now()) + Duration::from_secs(300),
            ) {
                Ok(Outcome::Done { payload, .. }) => Ok(payload),
                Ok(Outcome::Failed { kind, msg }) => Err((kind, msg)),
                Err(_) => Err((
                    ErrorKind::Internal,
                    "generation worker did not answer".to_string(),
                )),
            },
            Submit::Shed => Err((ErrorKind::Overloaded, "queue full".to_string())),
            Submit::ShuttingDown => {
                Err((ErrorKind::ShuttingDown, "server is draining".to_string()))
            }
            Submit::Reject { kind, msg } => Err((kind, msg)),
        };
        match outcome {
            Ok(payload) => functions.push(Json::Raw(payload)),
            Err((kind, msg)) => errors.push(Json::obj([
                ("group", Json::str(group.clone())),
                ("error", Json::str(kind.code())),
                ("message", Json::str(msg)),
            ])),
        }
    }
    let mut fields = vec![
        ("target", Json::str(target)),
        ("functions", Json::Arr(functions)),
        ("errors", Json::Arr(errors)),
    ];
    if let Some(t) = trace {
        fields.push(("trace", Json::str(t.render())));
    }
    let response = protocol::ok_response(id, fields);
    obs.observe("serve.request_seconds", t0.elapsed().as_secs_f64());
    let _ = span.finish();
    response
}

/// Handles the `score` op: ranks candidate token-id sequences against one
/// `(target, group)` signature. Scoring bypasses the cache, coalescing, and
/// the job queue — the response is a pure function of the request, there is
/// nothing to coalesce, and the work runs right here on the connection
/// thread against the pinned engine's model, which every request reads and
/// none mutates.
///
/// [`Engine::try_score_with`] encodes the signature input once in a decode
/// session and scores every candidate in one decoder forward over that
/// encoding (the candidates' shared prefix fed once, then every
/// candidate's remaining positions as rows of one pass), amortizing weight
/// reads across the whole request. The deadline is checked once, before
/// that forward.
#[allow(clippy::too_many_arguments)]
fn handle_score(
    shared: &Shared,
    id: &Json,
    target: &str,
    group: &str,
    candidates: &[Vec<usize>],
    deadline_ms: Option<u64>,
    trace: Option<TraceCtx>,
) -> String {
    let obs = vega_obs::global();
    let _trace_guard = obs.adopt_trace(trace);
    let span = obs.span("serve.request");
    let t0 = Instant::now();
    // Pin one engine for the whole request (a concurrent swap must not
    // change the weights mid-scoring).
    let engine = live_engine(shared);
    {
        let mut st = shared.state.lock().unwrap();
        st.requests += 1;
        st.score_requests += 1;
        if st.shutting_down {
            drop(st);
            let _ = span.finish();
            return protocol::err_response(id, ErrorKind::ShuttingDown, "server is draining");
        }
    }
    obs.counter_add("serve.requests", 1);
    obs.counter_add("serve.score.requests", 1);
    obs.counter_add("serve.score.candidates", candidates.len() as u64);
    let deadline =
        t0 + Duration::from_millis(deadline_ms.unwrap_or(shared.cfg.default_deadline_ms));
    let result = engine.try_score_with(
        engine.vega().model(),
        target,
        group,
        candidates,
        Some(deadline),
    );
    let response = match result {
        Ok(scores) => {
            let tokens: u64 = candidates.iter().map(|c| c.len() as u64).sum();
            let mut fields = vec![
                ("target", Json::str(target)),
                ("group", Json::str(group)),
                (
                    "scores",
                    Json::Arr(scores.into_iter().map(Json::num_f32).collect()),
                ),
            ];
            if let Some(t) = trace {
                fields.push(("trace", Json::str(t.render())));
            }
            fields.push((
                "timing",
                timing_json(0, "none", t0.elapsed().as_secs_f64() * 1e3, tokens),
            ));
            protocol::ok_response(id, fields)
        }
        Err(e) => {
            if e.kind == ErrorKind::DeadlineExceeded {
                shared.state.lock().unwrap().deadline_exceeded += 1;
                obs.counter_add("serve.deadline_exceeded", 1);
            }
            protocol::err_response(id, e.kind, &e.msg)
        }
    };
    obs.observe("serve.request_seconds", t0.elapsed().as_secs_f64());
    let _ = span.finish();
    response
}

/// Handles the `swap` op: loads and validates the checkpoint at `path` off
/// to the side, flips the live registry atomically, then waits (bounded)
/// for requests pinned to the old model to drain. Any failure — unreadable
/// file, digest mismatch, corpus mismatch, injected chaos — leaves the old
/// model serving untouched.
fn handle_swap(shared: &Shared, id: &Json, path: &str) -> String {
    let obs = vega_obs::global();
    let span = obs.span("serve.swap");
    // One swap at a time; requests keep flowing under the read lock.
    let _swap_guard = shared.swap_lock.lock().unwrap();
    let fail = |msg: &str| {
        vega_obs::global().counter_add("serve.swap.failed", 1);
        protocol::err_response(id, ErrorKind::SwapFailed, msg)
    };
    // Chaos site: the swap dies after being accepted but before any state
    // change — exactly the window a crashy checkpoint load would hit.
    if vega_fault::check(vega_fault::sites::SERVE_SWAP).is_some() {
        let _ = span.finish();
        return fail(&format!(
            "injected swap failure for `{path}` (fault site `{}`); old model still serving",
            vega_fault::sites::SERVE_SWAP
        ));
    }
    let old = live_engine(shared);
    let config = old.vega().config.clone();
    let loaded = crate::registry::load_checkpoint(std::path::Path::new(path))
        .and_then(|c| c.into_engine(config));
    let (meta, engine) = match loaded {
        Ok(v) => v,
        Err(e) => {
            let _ = span.finish();
            return fail(&e.to_string());
        }
    };
    let digest_changed = engine.model_digest() != old.model_digest();
    *shared.engine.write().unwrap() = Arc::new(engine);
    // Cache keys embed the model digest, so stale entries can never alias
    // the new model's; clearing on a digest change only frees memory. An
    // unchanged model keeps its cache — and its byte-identical hits.
    if digest_changed {
        shared.state.lock().unwrap().cache.clear();
    }
    // Jobs pin their engine, so in-flight work on the old model finishes
    // on the old model. Wait (bounded) until every pin is gone: a successful
    // swap response means the old weights are fully retired.
    let drain_deadline = Instant::now() + Duration::from_secs(60);
    let drained = loop {
        if Arc::strong_count(&old) == 1 {
            break true;
        }
        if Instant::now() > drain_deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    obs.counter_add("serve.swaps", 1);
    vega_obs::info!(
        "[vega-serve] swapped model to {} ({}, {}, digest_changed={digest_changed}, drained={drained})",
        meta.path.display(),
        meta.format,
        meta.arch
    );
    let _ = span.finish();
    protocol::ok_response(
        id,
        [
            ("swapped", Json::Bool(true)),
            ("path", Json::str(meta.path.display().to_string())),
            ("format", Json::str(meta.format)),
            ("arch", Json::str(meta.arch)),
            ("vocab_pieces", Json::num_usize(meta.vocab_pieces)),
            ("max_len", Json::num_usize(meta.max_len)),
            ("digest_changed", Json::Bool(digest_changed)),
            ("cache_cleared", Json::Bool(digest_changed)),
            ("drained", Json::Bool(drained)),
        ],
    )
}

enum Submit {
    Cached(Arc<str>),
    Wait {
        rx: Receiver<Outcome>,
        coalesced: bool,
    },
    Shed,
    ShuttingDown,
    Reject {
        kind: ErrorKind,
        msg: String,
    },
}

/// Answers one `(target, group)` sub-request on `engine`, which the caller
/// pinned: the cache key and the generation come from that one engine, so a
/// swap landing mid-request can neither cache one model's output under
/// another's key nor mix two models in one `backend` response.
fn submit(
    shared: &Shared,
    engine: &Arc<Engine>,
    target: &str,
    group: &str,
    deadline: Instant,
    trace: Option<TraceCtx>,
) -> Submit {
    let key = match engine.cache_key(target, group) {
        Ok(k) => k,
        Err(e) => {
            return Submit::Reject {
                kind: e.kind,
                msg: e.msg,
            }
        }
    };
    let obs = vega_obs::global();
    // The cache-lookup span covers the cache/coalesce/enqueue decision; it
    // runs on the connection thread, where the request's trace (if any) is
    // already adopted, so its close record carries the caller's trace id.
    let lookup_span = obs.span("serve.cache_lookup");
    let mut st = shared.state.lock().unwrap();
    st.requests += 1;
    obs.counter_add("serve.requests", 1);
    if let Some(payload) = st.cache.get(&key) {
        obs.counter_add("serve.cache.hits", 1);
        drop(st);
        let _ = lookup_span.finish();
        return Submit::Cached(payload);
    }
    let (tx, rx) = channel();
    if let Some(waiters) = st.inflight.get_mut(&key) {
        waiters.push(tx);
        st.coalesced += 1;
        obs.counter_add("serve.coalesced", 1);
        drop(st);
        let _ = lookup_span.finish();
        return Submit::Wait {
            rx,
            coalesced: true,
        };
    }
    obs.counter_add("serve.cache.misses", 1);
    if st.shutting_down {
        drop(st);
        let _ = lookup_span.finish();
        return Submit::ShuttingDown;
    }
    if st.queue.len() >= shared.cfg.queue_cap {
        st.shed += 1;
        obs.counter_add("serve.shed", 1);
        drop(st);
        let _ = lookup_span.finish();
        return Submit::Shed;
    }
    st.inflight.insert(key.clone(), vec![tx]);
    obs.gauge_set("serve.inflight", st.inflight.len() as f64);
    st.queue.push_back(Job {
        key,
        target: target.to_string(),
        group: group.to_string(),
        deadline,
        trace,
        enqueued: Instant::now(),
        engine: Arc::clone(engine),
    });
    obs.gauge_set("serve.queue_depth", st.queue.len() as f64);
    drop(st);
    let _ = lookup_span.finish();
    shared.work_cv.notify_all();
    Submit::Wait {
        rx,
        coalesced: false,
    }
}

fn finish(shared: &Shared, key: &str, outcome: &Outcome) {
    let waiters = {
        let mut st = shared.state.lock().unwrap();
        let waiters = st.inflight.remove(key).unwrap_or_default();
        vega_obs::global().gauge_set("serve.inflight", st.inflight.len() as f64);
        waiters
    };
    for tx in waiters {
        let _ = tx.send(outcome.clone());
    }
}

/// Answers a job whose deadline passed before it reached a model.
fn fail_predispatch(shared: &Shared, job: &Job) {
    shared.state.lock().unwrap().deadline_exceeded += 1;
    vega_obs::global().counter_add("serve.deadline_exceeded", 1);
    finish(
        shared,
        &job.key,
        &Outcome::Failed {
            kind: ErrorKind::DeadlineExceeded,
            msg: format!(
                "deadline elapsed before `{}`/`{}` was dispatched",
                job.target, job.group
            ),
        },
    );
}

/// The outcome of [`run_job`]: `(job, result, queue_ms, tokens, decode_ms)`.
type JobRun = (
    Job,
    Result<(vega_corpus::Module, vega::GeneratedFunction), crate::engine::EngineError>,
    u64,
    u64,
    f64,
);

/// Runs one job on its pinned engine. The job's deadline was checked before
/// dispatch; once started, the generation runs to completion. The deadline
/// is still handed to [`Engine::try_generate`], which passes it to the
/// model's decode backend when one is installed (the local decode path
/// ignores it).
fn run_job(shared: &Shared, job: Job) -> JobRun {
    let worker_obs = vega_obs::global();
    let _trace_guard = worker_obs.adopt_trace(job.trace);
    let gen_span = worker_obs.span("serve.generate");
    let queue_ms = job.enqueued.elapsed().as_millis() as u64;
    if shared.cfg.slow_ms > 0 {
        std::thread::sleep(Duration::from_millis(shared.cfg.slow_ms));
    }
    // Generation runs single-threaded on this worker, so the thread-local
    // tally is an exact per-job decode attribution.
    vega_nn::decode::tally::reset();
    // The job's pinned engine (not the live registry): key and weights must
    // describe the same model even mid-swap.
    let result = job
        .engine
        .try_generate(&job.target, &job.group, Some(job.deadline));
    let (tokens, decode_s) = vega_nn::decode::tally::snapshot();
    let _ = gen_span.finish();
    (job, result, queue_ms, tokens, decode_s * 1e3)
}

/// Publishes a finished job: cache + counters on success (a failed or
/// expired generation is never cached — no partial output can poison the
/// content-addressed cache), waiter notification either way. The payload is
/// rendered once here; the cache entry and every waiter share that text.
fn settle_job(shared: &Shared, run: JobRun) {
    let obs = vega_obs::global();
    let (job, result, queue_ms, tokens, decode_ms) = run;
    match result {
        Ok((module, gf)) => {
            let payload: Arc<str> =
                protocol::render_generated(&job.target, &job.group, module, &gf)
                    .render()
                    .into();
            {
                let mut st = shared.state.lock().unwrap();
                st.cache.insert(&job.key, payload.clone());
                st.generated += 1;
            }
            obs.counter_add("serve.generated", 1);
            finish(
                shared,
                &job.key,
                &Outcome::Done {
                    payload,
                    queue_ms,
                    decode_ms,
                    tokens,
                },
            );
        }
        Err(e) => {
            if e.kind == ErrorKind::DeadlineExceeded {
                shared.state.lock().unwrap().deadline_exceeded += 1;
                obs.counter_add("serve.deadline_exceeded", 1);
            }
            finish(
                shared,
                &job.key,
                &Outcome::Failed {
                    kind: e.kind,
                    msg: e.msg,
                },
            );
        }
    }
}

/// Drains the queue in micro-batches of up to `batch` jobs, generating each
/// batch's jobs concurrently on the shared model. Exits once the queue is
/// empty after shutdown began.
fn dispatcher_loop(shared: &Shared) {
    let obs = vega_obs::global();
    loop {
        let jobs: Vec<Job> = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if !st.queue.is_empty() {
                    break;
                }
                if st.shutting_down {
                    return;
                }
                st = shared.work_cv.wait(st).unwrap();
            }
            let n = st.queue.len().min(shared.cfg.batch);
            let jobs = st.queue.drain(..n).collect();
            obs.gauge_set("serve.queue_depth", st.queue.len() as f64);
            jobs
        };
        let now = Instant::now();
        let mut live = Vec::new();
        for job in jobs {
            if now > job.deadline {
                fail_predispatch(shared, &job);
            } else {
                live.push(job);
            }
        }
        if live.is_empty() {
            continue;
        }
        let span = obs.span("serve.batch");
        // Jobs only read their engine's model, so they share it with no
        // lock. `par_map` returns results in job order, and jobs settle in
        // that order — cache insertion order (hence LRU eviction order) is
        // independent of which worker finishes first. Each worker adopts
        // its job's trace (the batch as a whole has no single trace) so the
        // `serve.generate` span and decode attribution carry the caller's
        // id.
        let results = vega_par::par_map(live, |_, job| run_job(shared, job));
        for run in results {
            settle_job(shared, run);
        }
        let _ = span.finish();
    }
}
