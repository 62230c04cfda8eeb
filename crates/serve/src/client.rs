//! A minimal blocking client for the line-delimited JSON protocol, shared by
//! `vega-loadgen` and the integration tests.
//!
//! Transport failures are expected under chaos plans (and on real networks):
//! [`Client::connect_with_retry`] survives a listener that is not up yet
//! (the classic `ECONNREFUSED` startup race), and
//! [`Client::request_with_retry`] survives dropped connections and malformed
//! frames by reconnecting and resending. Backoff between attempts is
//! exponential with *deterministic* capped jitter ([`RetryPolicy`]) — two
//! runs with the same policy wait the same schedule, so chaos tests stay
//! reproducible. Retrying a generate request is safe: generation is
//! deterministic and cached, so a resend can only return the identical
//! bytes.
//!
//! With [`Client::set_tracer`] the client also mints one deterministic
//! [`TraceCtx`] per logical generate request and sends it on the wire; the
//! server adopts it, stamps its spans and flight-recorder records with it,
//! and echoes it back beside a per-stage `timing` breakdown.

use crate::protocol::LineBuf;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;
use vega_obs::json::Json;
use vega_obs::{TraceCtx, TraceIdGen};

/// Deterministic exponential backoff with capped jitter.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 0 behaves as 1.
    pub max_attempts: u32,
    /// Backoff before retry `k` (1-based) is `base_ms · 2^(k-1)` plus
    /// jitter, capped at [`RetryPolicy::cap_ms`].
    pub base_ms: u64,
    /// Upper bound on any single backoff (jitter included).
    pub cap_ms: u64,
    /// Jitter seed: the jitter for attempt `k` is a pure function of
    /// `(seed, k)`, so retry schedules are reproducible run to run.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_ms: 10,
            cap_ms: 500,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff to sleep before (1-based) retry `attempt`, in
    /// milliseconds: exponential in the attempt number, plus deterministic
    /// jitter of at most `base_ms`, capped at `cap_ms`.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20));
        let jitter = splitmix(self.seed ^ u64::from(attempt)) % (self.base_ms + 1);
        exp.saturating_add(jitter).min(self.cap_ms)
    }
}

/// splitmix64 — the workspace's stock deterministic mixer.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One TCP connection speaking the vega-serve protocol.
pub struct Client {
    stream: TcpStream,
    addr: String,
    lines: LineBuf,
    tracer: Option<TraceIdGen>,
}

impl Client {
    /// Connects. Reads are capped at ten minutes so a dead server surfaces
    /// as an error, never a hang.
    ///
    /// # Errors
    /// Propagates connect/configure errors.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = open(addr)?;
        Ok(Client {
            stream,
            addr: addr.to_string(),
            lines: LineBuf::default(),
            tracer: None,
        })
    }

    /// Enables end-to-end tracing: every subsequent `generate` request mints
    /// one [`TraceCtx`] from a deterministic splitmix64 stream over `seed`
    /// and sends it in the request's `trace` field. The server adopts it and
    /// echoes it back, so the response's `trace` names the server-side spans
    /// and flight-recorder records this request produced.
    ///
    /// Minting happens once per *logical* request — a transport retry
    /// resends the identical line, trace included — and the stream is a pure
    /// function of `(seed, mint count)`, so same-seed runs (chaos replays
    /// under `VEGA_FAULT_PLAN` included) mint identical trace-id sequences.
    pub fn set_tracer(&mut self, seed: u64) {
        self.tracer = Some(TraceIdGen::new(seed));
    }

    /// Mints the next trace context when tracing is enabled.
    fn mint_trace(&mut self) -> Option<TraceCtx> {
        self.tracer.as_mut().map(TraceIdGen::mint)
    }

    /// As [`Client::connect`], retrying refused/failed connects under
    /// `policy` — the fix for racing a server that has not bound yet.
    ///
    /// # Errors
    /// The last connect error once attempts are exhausted.
    pub fn connect_with_retry(addr: &str, policy: &RetryPolicy) -> std::io::Result<Client> {
        let mut attempt = 0u32;
        loop {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    attempt += 1;
                    if attempt >= policy.max_attempts.max(1) {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(policy.backoff_ms(attempt)));
                }
            }
        }
    }

    /// Drops the current socket and dials the same address again.
    ///
    /// # Errors
    /// Propagates connect/configure errors.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        self.stream = open(&self.addr)?;
        self.lines = LineBuf::default();
        Ok(())
    }

    /// Sends one request line and reads one response line.
    ///
    /// # Errors
    /// Propagates socket errors; an EOF before a full line arrives is
    /// reported as `UnexpectedEof`.
    pub fn request_raw(&mut self, line: &str) -> std::io::Result<String> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        loop {
            if let Some(line) = self.lines.next_line() {
                return Ok(line);
            }
            if self.lines.fill(&mut self.stream)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before a response line arrived",
                ));
            }
        }
    }

    /// Sends a request value and parses the response.
    ///
    /// # Errors
    /// Socket errors, plus `InvalidData` when the response is not JSON.
    pub fn request(&mut self, req: &Json) -> std::io::Result<Json> {
        let line = self.request_raw(&req.render())?;
        Json::parse(&line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad response line: {e}"),
            )
        })
    }

    /// As [`Client::request`], retrying transport failures under `policy`:
    /// a dropped connection is redialed and the request resent; a malformed
    /// response frame is discarded and the request resent on the same
    /// connection. Valid *error responses* (`overloaded`, …) are returned,
    /// not retried — only the transport is retried, never server decisions.
    ///
    /// Each failed-then-recovered attempt reports one `serve.conn` recovery
    /// to `vega-fault`, so chaos traces can match injected drop/corrupt
    /// faults against client-side recoveries.
    ///
    /// # Errors
    /// The last transport error once attempts are exhausted.
    pub fn request_with_retry(
        &mut self,
        req: &Json,
        policy: &RetryPolicy,
    ) -> std::io::Result<Json> {
        let mut failures = 0u32;
        loop {
            match self.request(req) {
                Ok(v) => {
                    vega_fault::recovered_n(vega_fault::sites::SERVE_CONN, u64::from(failures));
                    return Ok(v);
                }
                Err(e) => {
                    failures += 1;
                    if failures >= policy.max_attempts.max(1) {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(policy.backoff_ms(failures)));
                    if e.kind() == std::io::ErrorKind::InvalidData {
                        // Malformed frame: the connection itself is fine.
                        continue;
                    }
                    // Dropped/reset connection: redial (with connect retry,
                    // in case the drop raced the accept loop).
                    if let Err(redial) = self.reconnect() {
                        if failures + 1 >= policy.max_attempts.max(1) {
                            return Err(redial);
                        }
                    }
                }
            }
        }
    }

    /// Convenience: a `generate` request (traced when
    /// [`Client::set_tracer`] was called).
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn generate(
        &mut self,
        target: &str,
        group: &str,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<Json> {
        let trace = self.mint_trace();
        self.request(&generate_request(target, group, deadline_ms, trace))
    }

    /// [`Client::generate`] with transport retry. The trace context is
    /// minted once, before the retry loop: every resend of this logical
    /// request carries the identical trace id.
    ///
    /// # Errors
    /// See [`Client::request_with_retry`].
    pub fn generate_with_retry(
        &mut self,
        target: &str,
        group: &str,
        deadline_ms: Option<u64>,
        policy: &RetryPolicy,
    ) -> std::io::Result<Json> {
        let trace = self.mint_trace();
        self.request_with_retry(&generate_request(target, group, deadline_ms, trace), policy)
    }

    /// Convenience: a `score` request (traced when [`Client::set_tracer`]
    /// was called) — ranks candidate token-id sequences against one
    /// `(target, group)` signature; the response's `scores` array holds one
    /// logprob per candidate, in order.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn score(
        &mut self,
        target: &str,
        group: &str,
        candidates: &[Vec<usize>],
        deadline_ms: Option<u64>,
    ) -> std::io::Result<Json> {
        let trace = self.mint_trace();
        self.request(&score_request(
            target,
            group,
            candidates,
            deadline_ms,
            trace,
        ))
    }

    /// [`Client::score`] with transport retry. Safe to resend: scoring is a
    /// pure function of the request and the serving model.
    ///
    /// # Errors
    /// See [`Client::request_with_retry`].
    pub fn score_with_retry(
        &mut self,
        target: &str,
        group: &str,
        candidates: &[Vec<usize>],
        deadline_ms: Option<u64>,
        policy: &RetryPolicy,
    ) -> std::io::Result<Json> {
        let trace = self.mint_trace();
        self.request_with_retry(
            &score_request(target, group, candidates, deadline_ms, trace),
            policy,
        )
    }

    /// Convenience: a `swap` request — hot-reload the serving model from the
    /// checkpoint at `path` (a path on the *server's* filesystem).
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn swap(&mut self, path: &str) -> std::io::Result<Json> {
        self.request(&Json::obj([
            ("op", Json::str("swap")),
            ("path", Json::str(path)),
        ]))
    }

    /// Convenience: a bare-`op` request (`ping`, `stats`, `shutdown`, …).
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn op(&mut self, op: &str) -> std::io::Result<Json> {
        self.request(&Json::obj([("op", Json::str(op))]))
    }

    /// [`Client::op`] with transport retry.
    ///
    /// # Errors
    /// See [`Client::request_with_retry`].
    pub fn op_with_retry(&mut self, op: &str, policy: &RetryPolicy) -> std::io::Result<Json> {
        self.request_with_retry(&Json::obj([("op", Json::str(op))]), policy)
    }
}

fn open(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn generate_request(
    target: &str,
    group: &str,
    deadline_ms: Option<u64>,
    trace: Option<TraceCtx>,
) -> Json {
    let mut fields = vec![
        ("op", Json::str("generate")),
        ("target", Json::str(target)),
        ("group", Json::str(group)),
    ];
    if let Some(d) = deadline_ms {
        fields.push(("deadline_ms", Json::num_u64(d)));
    }
    if let Some(t) = trace {
        fields.push(("trace", Json::str(t.render())));
    }
    Json::obj(fields)
}

fn score_request(
    target: &str,
    group: &str,
    candidates: &[Vec<usize>],
    deadline_ms: Option<u64>,
    trace: Option<TraceCtx>,
) -> Json {
    let cands = candidates
        .iter()
        .map(|c| Json::Arr(c.iter().map(|&id| Json::num_usize(id)).collect()))
        .collect();
    let mut fields = vec![
        ("op", Json::str("score")),
        ("target", Json::str(target)),
        ("group", Json::str(group)),
        ("candidates", Json::Arr(cands)),
    ];
    if let Some(d) = deadline_ms {
        fields.push(("deadline_ms", Json::num_u64(d)));
    }
    if let Some(t) = trace {
        fields.push(("trace", Json::str(t.render())));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_ms: 10,
            cap_ms: 200,
            seed: 42,
        };
        let a: Vec<u64> = (1..=8).map(|k| p.backoff_ms(k)).collect();
        let b: Vec<u64> = (1..=8).map(|k| p.backoff_ms(k)).collect();
        assert_eq!(a, b, "same policy, same schedule");
        // Exponential shape until the cap, then flat at the cap.
        assert!(a[0] >= 10 && a[0] <= 20);
        assert!(a[1] >= 20 && a[1] <= 30);
        assert!(a.iter().all(|&ms| ms <= 200));
        assert_eq!(a[7], 200, "large attempts saturate at cap_ms");
        // A different seed shifts jitter but stays within bounds.
        let q = RetryPolicy { seed: 43, ..p };
        assert!((1..=4).all(|k| q.backoff_ms(k) <= 200));
    }

    #[test]
    fn connect_retry_gives_up_with_the_connect_error() {
        // Nothing listens on this port (reserved, bound-then-dropped).
        let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = sock.local_addr().unwrap().to_string();
        drop(sock);
        let policy = RetryPolicy {
            max_attempts: 3,
            base_ms: 1,
            cap_ms: 2,
            seed: 0,
        };
        let t0 = std::time::Instant::now();
        assert!(Client::connect_with_retry(&addr, &policy).is_err());
        assert!(t0.elapsed() < Duration::from_secs(5), "bounded retries");
    }
}
