//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, over a plain TCP
//! stream. Every request is a JSON object with an `op` field and an optional
//! `id` the server echoes back verbatim, so clients may pipeline requests.
//!
//! Requests:
//!
//! ```text
//! {"id":1,"op":"generate","target":"RISCV","group":"getRelocType","deadline_ms":2000}
//! {"id":2,"op":"backend","target":"RI5CY"}
//! {"id":4,"op":"score","target":"RISCV","group":"getRelocType","candidates":[[5,9,2],[5,7]]}
//! {"op":"targets"}   {"op":"groups"}   {"op":"stats"}   {"op":"ping"}
//! {"op":"metrics"}   {"op":"flightdump"}   {"op":"shutdown"}
//! {"id":3,"op":"swap","path":"/path/to/model.ckpt"}
//! ```
//!
//! `swap` hot-reloads the model: the checkpoint at `path` is loaded and
//! validated off to the side, the serving registry flips atomically, and
//! requests already in flight finish on the model they were submitted
//! against. A failed swap (`swap_failed`) leaves the old model serving.
//!
//! `score` ranks caller-supplied candidate token-id sequences against one
//! `(target, group)` signature: the response's `scores` array holds the
//! model's log-probability of emitting each candidate from the exact
//! signature frame generation would decode from, in candidate order. At most
//! [`MAX_SCORE_CANDIDATES`] candidates per request, each a non-empty array
//! of token ids. The request is scored on its connection thread, on the
//! shared model, which encodes the signature once and scores every
//! candidate in one decoder forward (their shared prefix fed once).
//!
//! `deadline_ms` is checked before work starts: a `generate` job still
//! queued when its deadline passes, or a `score` request whose deadline
//! passed before its forward, is answered with `deadline_exceeded`. Work
//! that has started runs to completion; no decode is aborted between
//! tokens. A `backend` request's deadline spans all its groups.
//!
//! `generate`, `backend`, and `score` additionally accept an optional `trace` field —
//! a [`vega_obs::TraceCtx`] in its `render` form
//! (`<32 hex trace id>/<16 hex span id>`). The server re-establishes the
//! caller's trace context around everything it does for the request
//! (queue wait, cache lookup, dispatch, decode), so server-side spans and
//! flight-recorder records carry the client's trace id. A malformed `trace`
//! is ignored rather than rejected: tracing is observability, and a client
//! bug there must not turn into request failures.
//!
//! Responses are `{"id":…,"ok":true,…}` or
//! `{"id":…,"ok":false,"error":"<kind>","message":"…"}`. Generation
//! responses carry the rendered function in `result` plus `cached` /
//! `coalesced` flags, the echoed `trace` (when one was sent), and a `timing`
//! breakdown (`queue_ms`, `cache`, `decode_ms`, `tokens`); `result` is
//! rendered by [`render_generated`] on both the serving and the verifying
//! side, which is what makes byte-identity checkable — which is exactly why
//! `trace`/`timing` live in the envelope beside `result`, never inside it.
//!
//! `metrics` returns the live obs registry as both a JSON snapshot
//! (`metrics`) and Prometheus text exposition (`text`); `flightdump`
//! returns the flight recorder's retained records.

use std::io::Read;
use vega::{GeneratedFunction, SIG_NODE};
use vega_corpus::Module;
use vega_obs::json::Json;
use vega_obs::TraceCtx;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Generate one interface function for a target.
    Generate {
        /// Target namespace (e.g. `RISCV`).
        target: String,
        /// Interface-function group (e.g. `getRelocType`).
        group: String,
        /// Per-request deadline; the server default applies when absent.
        deadline_ms: Option<u64>,
        /// Caller trace context to adopt (malformed values parse to `None`).
        trace: Option<TraceCtx>,
    },
    /// Generate every interface function for a target.
    Backend {
        /// Target namespace.
        target: String,
        /// Per-request deadline over the whole backend.
        deadline_ms: Option<u64>,
        /// Caller trace context to adopt (malformed values parse to `None`).
        trace: Option<TraceCtx>,
    },
    /// Score candidate token-id sequences against a target/group signature.
    Score {
        /// Target namespace.
        target: String,
        /// Interface-function group.
        group: String,
        /// Candidate output sequences, each a non-empty list of token ids.
        candidates: Vec<Vec<usize>>,
        /// Per-request deadline; the server default applies when absent.
        deadline_ms: Option<u64>,
        /// Caller trace context to adopt (malformed values parse to `None`).
        trace: Option<TraceCtx>,
    },
    /// List the servable targets.
    Targets,
    /// List the interface-function groups.
    Groups,
    /// Server/cache/queue statistics.
    Stats,
    /// Live obs registry: JSON snapshot plus Prometheus text exposition.
    Metrics,
    /// The flight recorder's retained records.
    FlightDump,
    /// Liveness probe.
    Ping,
    /// Hot-swap the serving model to the checkpoint at `path`.
    Swap {
        /// Filesystem path of the replacement checkpoint (v1 or v2).
        path: String,
    },
    /// Begin graceful shutdown.
    Shutdown,
}

/// The most candidates one `score` request may carry. Caps the work one
/// request can force on its connection thread, which scores all of its
/// candidates in one decoder forward: at most `MAX_SCORE_CANDIDATES` ×
/// the model's `max_len` rows, with one decoder cache fork per candidate.
pub const MAX_SCORE_CANDIDATES: usize = 16;

/// Machine-readable error kinds (`error` field of failure responses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed request line.
    BadRequest,
    /// Target not in the corpus.
    UnknownTarget,
    /// Interface group not templated.
    UnknownGroup,
    /// Bounded queue full — request shed, retry later.
    Overloaded,
    /// Deadline elapsed before the request was dispatched.
    DeadlineExceeded,
    /// Server is draining; no new work accepted.
    ShuttingDown,
    /// A model hot swap could not be completed; the old model still serves.
    SwapFailed,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorKind {
    /// The wire spelling.
    pub fn code(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnknownTarget => "unknown_target",
            ErrorKind::UnknownGroup => "unknown_group",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::SwapFailed => "swap_failed",
            ErrorKind::Internal => "internal",
        }
    }
}

/// Parses one request line. On failure the caller still gets the request's
/// `id` (when one could be extracted) for the error response.
///
/// # Errors
/// Returns the extracted `id` and a description of what was malformed.
pub fn parse_request(line: &str) -> Result<(Json, Request), (Json, String)> {
    let v = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return Err((Json::Null, format!("unparseable request: {e}"))),
    };
    let id = v.field("id").cloned().unwrap_or(Json::Null);
    let op = match v.field("op").and_then(|o| o.as_str()) {
        Ok(op) => op.to_string(),
        Err(_) => return Err((id, "missing string field `op`".to_string())),
    };
    let str_field = |name: &str| -> Result<String, (Json, String)> {
        v.field(name)
            .and_then(|f| f.as_str())
            .map(str::to_string)
            .map_err(|_| (id.clone(), format!("op `{op}` needs string field `{name}`")))
    };
    let deadline = v.field("deadline_ms").ok().and_then(|d| d.as_u64().ok());
    let trace = v
        .field("trace")
        .ok()
        .and_then(|t| t.as_str().ok())
        .and_then(TraceCtx::parse);
    let req = match op.as_str() {
        "generate" => Request::Generate {
            target: str_field("target")?,
            group: str_field("group")?,
            deadline_ms: deadline,
            trace,
        },
        "backend" => Request::Backend {
            target: str_field("target")?,
            deadline_ms: deadline,
            trace,
        },
        "score" => {
            let outer = v
                .field("candidates")
                .and_then(|c| c.as_array())
                .map_err(|_| {
                    (
                        id.clone(),
                        "op `score` needs array field `candidates`".to_string(),
                    )
                })?;
            if outer.is_empty() || outer.len() > MAX_SCORE_CANDIDATES {
                return Err((
                    id,
                    format!(
                        "op `score` takes 1..={MAX_SCORE_CANDIDATES} candidates, got {}",
                        outer.len()
                    ),
                ));
            }
            let mut candidates = Vec::with_capacity(outer.len());
            for (i, cand) in outer.iter().enumerate() {
                let ids = cand
                    .as_array()
                    .and_then(|a| {
                        a.iter()
                            .map(|t| t.as_usize())
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .map_err(|_| {
                        (
                            id.clone(),
                            format!("candidate {i} must be an array of token ids"),
                        )
                    })?;
                if ids.is_empty() {
                    return Err((id, format!("candidate {i} is empty")));
                }
                candidates.push(ids);
            }
            Request::Score {
                target: str_field("target")?,
                group: str_field("group")?,
                candidates,
                deadline_ms: deadline,
                trace,
            }
        }
        "targets" => Request::Targets,
        "groups" => Request::Groups,
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "flightdump" => Request::FlightDump,
        "ping" => Request::Ping,
        "swap" => Request::Swap {
            path: str_field("path")?,
        },
        "shutdown" => Request::Shutdown,
        other => return Err((id, format!("unknown op `{other}`"))),
    };
    Ok((id, req))
}

/// Renders a generation result as the canonical `result` payload. The server
/// caches this rendering and `vega-loadgen` recomputes it locally from a
/// direct [`vega::generate_function`] call, so its bytes must be a pure
/// function of the generation — no timestamps, no server state.
pub fn render_generated(target: &str, group: &str, module: Module, gf: &GeneratedFunction) -> Json {
    let stmts: Vec<Json> = gf
        .stmts
        .iter()
        .map(|s| {
            Json::obj([
                (
                    "node",
                    if s.node == SIG_NODE {
                        Json::num_i64(-1)
                    } else {
                        Json::num_usize(s.node)
                    },
                ),
                ("score", Json::num_f64(s.score)),
                ("kept", Json::Bool(s.kept)),
                ("line", Json::str(s.line.clone())),
            ])
        })
        .collect();
    Json::obj([
        ("target", Json::str(target)),
        ("group", Json::str(group)),
        ("module", Json::str(module.code())),
        ("confidence", Json::num_f64(gf.confidence)),
        ("multi_source", Json::Bool(gf.multi_source)),
        (
            "function",
            match &gf.function {
                Some(f) => Json::str(vega_cpplite::render_function(f)),
                None => Json::Null,
            },
        ),
        ("stmts", Json::Arr(stmts)),
    ])
}

/// Bytes asked of the stream per [`LineBuf::fill`].
const READ_CHUNK: usize = 4096;

/// Splits a byte stream into protocol lines, on both ends of a connection.
/// Each byte is scanned for the line end once, however many reads its line
/// arrives in, and a consumed line is dropped from the buffer at the next
/// read, so framing costs time linear in the bytes received.
#[derive(Debug, Default)]
pub(crate) struct LineBuf {
    buf: Vec<u8>,
    /// Start of the first line not yet returned.
    start: usize,
    /// `buf[start..scanned]` holds no line end.
    scanned: usize,
}

impl LineBuf {
    /// The next complete line, lossily decoded and trimmed, or `None` until
    /// its line end has arrived.
    pub(crate) fn next_line(&mut self) -> Option<String> {
        // `skip_until` on a byte slice searches with std's memchr, a
        // word-at-a-time scan, rather than one comparison per byte; the
        // count it returns includes the line end when one was found.
        let unscanned = &self.buf[self.scanned..];
        let read = std::io::BufRead::skip_until(&mut &unscanned[..], b'\n')
            .expect("reading a slice cannot fail");
        let found = unscanned[..read].last() == Some(&b'\n');
        self.scanned += read;
        if !found {
            return None;
        }
        let line = String::from_utf8_lossy(&self.buf[self.start..self.scanned - 1])
            .trim()
            .to_string();
        self.start = self.scanned;
        Some(line)
    }

    /// Reads once from `stream` into the buffer, returning the byte count
    /// (0 at end of stream).
    ///
    /// # Errors
    /// The read's error; the buffer keeps what it held.
    pub(crate) fn fill(&mut self, stream: &mut impl Read) -> std::io::Result<usize> {
        self.buf.drain(..self.start);
        self.scanned -= self.start;
        self.start = 0;
        let len = self.buf.len();
        self.buf.resize(len + READ_CHUNK, 0);
        let read = stream.read(&mut self.buf[len..]);
        self.buf.truncate(len + read.as_ref().map_or(0, |&n| n));
        read
    }
}

/// A success envelope around extra fields.
pub fn ok_response(id: &Json, fields: impl IntoIterator<Item = (&'static str, Json)>) -> String {
    let mut all = vec![
        ("id".to_string(), id.clone()),
        ("ok".to_string(), Json::Bool(true)),
    ];
    all.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(all).render()
}

/// A failure envelope.
pub fn err_response(id: &Json, kind: ErrorKind, message: &str) -> String {
    Json::obj([
        ("id", id.clone()),
        ("ok", Json::Bool(false)),
        ("error", Json::str(kind.code())),
        ("message", Json::str(message)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_generate_and_preserves_id() {
        let (id, req) =
            parse_request(r#"{"id":42,"op":"generate","target":"RISCV","group":"getRelocType"}"#)
                .unwrap();
        assert_eq!(id, Json::Num("42".into()));
        assert_eq!(
            req,
            Request::Generate {
                target: "RISCV".into(),
                group: "getRelocType".into(),
                deadline_ms: None,
                trace: None,
            }
        );
        let (_, req) = parse_request(r#"{"op":"ping"}"#).unwrap();
        assert_eq!(req, Request::Ping);
        let (_, req) = parse_request(r#"{"op":"metrics"}"#).unwrap();
        assert_eq!(req, Request::Metrics);
        let (_, req) = parse_request(r#"{"op":"flightdump"}"#).unwrap();
        assert_eq!(req, Request::FlightDump);
        let (_, req) = parse_request(r#"{"op":"swap","path":"/tmp/m.ckpt"}"#).unwrap();
        assert_eq!(
            req,
            Request::Swap {
                path: "/tmp/m.ckpt".into()
            }
        );
        let (_, msg) = parse_request(r#"{"op":"swap"}"#).unwrap_err();
        assert!(msg.contains("path"), "{msg}");
    }

    #[test]
    fn trace_field_parses_and_malformed_traces_are_ignored() {
        let ctx = vega_obs::TraceIdGen::new(7).mint();
        let line = format!(
            r#"{{"op":"generate","target":"T","group":"G","trace":"{}"}}"#,
            ctx.render()
        );
        let (_, req) = parse_request(&line).unwrap();
        match req {
            Request::Generate { trace, .. } => assert_eq!(trace, Some(ctx)),
            other => panic!("parsed {other:?}"),
        }
        // A malformed trace must not fail the request.
        let (_, req) =
            parse_request(r#"{"op":"generate","target":"T","group":"G","trace":"zzz"}"#).unwrap();
        match req {
            Request::Generate { trace, .. } => assert_eq!(trace, None),
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn parses_score_and_rejects_malformed_candidates() {
        let (id, req) = parse_request(
            r#"{"id":9,"op":"score","target":"RISCV","group":"getRelocType","candidates":[[5,9,2],[5,7]]}"#,
        )
        .unwrap();
        assert_eq!(id, Json::Num("9".into()));
        assert_eq!(
            req,
            Request::Score {
                target: "RISCV".into(),
                group: "getRelocType".into(),
                candidates: vec![vec![5, 9, 2], vec![5, 7]],
                deadline_ms: None,
                trace: None,
            }
        );
        // Missing / empty / oversized candidate lists fail to parse.
        let (_, msg) = parse_request(r#"{"op":"score","target":"T","group":"G"}"#).unwrap_err();
        assert!(msg.contains("candidates"), "{msg}");
        let (_, msg) = parse_request(r#"{"op":"score","target":"T","group":"G","candidates":[]}"#)
            .unwrap_err();
        assert!(msg.contains("1..="), "{msg}");
        let (_, msg) =
            parse_request(r#"{"op":"score","target":"T","group":"G","candidates":[[1],[]]}"#)
                .unwrap_err();
        assert!(msg.contains("candidate 1 is empty"), "{msg}");
        let (_, msg) =
            parse_request(r#"{"op":"score","target":"T","group":"G","candidates":[[1],"x"]}"#)
                .unwrap_err();
        assert!(msg.contains("array of token ids"), "{msg}");
        let too_many = format!(
            r#"{{"op":"score","target":"T","group":"G","candidates":[{}]}}"#,
            vec!["[1]"; MAX_SCORE_CANDIDATES + 1].join(",")
        );
        let (_, msg) = parse_request(&too_many).unwrap_err();
        assert!(msg.contains("1..="), "{msg}");
    }

    #[test]
    fn malformed_requests_keep_the_id_for_the_error() {
        let (id, msg) = parse_request(r#"{"id":"a","op":"generate"}"#).unwrap_err();
        assert_eq!(id, Json::Str("a".into()));
        assert!(msg.contains("target"), "{msg}");
        let (id, _) = parse_request("not json").unwrap_err();
        assert_eq!(id, Json::Null);
        let (_, msg) = parse_request(r#"{"op":"frobnicate"}"#).unwrap_err();
        assert!(msg.contains("frobnicate"));
    }

    #[test]
    fn line_buf_splits_lines_across_and_within_reads() {
        let mut lines = LineBuf::default();
        let mut stream: &[u8] = b"{\"op\":\"ping\"}\r\n\n  x \ntail";
        let mut got = Vec::new();
        // One byte per read: every line spans reads.
        loop {
            while let Some(line) = lines.next_line() {
                got.push(line);
            }
            let (head, rest) = stream.split_at(stream.len().min(1));
            stream = rest;
            if lines.fill(&mut &head[..]).unwrap() == 0 {
                break;
            }
        }
        assert_eq!(got, ["{\"op\":\"ping\"}", "", "x"]);
        // Several lines in one read come out in order; the unterminated
        // tail waits for its line end.
        let mut lines = LineBuf::default();
        lines.fill(&mut &b"a\nb\nc"[..]).unwrap();
        assert_eq!(lines.next_line().as_deref(), Some("a"));
        assert_eq!(lines.next_line().as_deref(), Some("b"));
        assert_eq!(lines.next_line(), None);
        lines.fill(&mut &b"d\n"[..]).unwrap();
        assert_eq!(lines.next_line().as_deref(), Some("cd"));
        assert_eq!(lines.buf.len() - lines.start, 0, "nothing left over");
    }

    #[test]
    fn envelopes_roundtrip_through_the_parser() {
        let ok = ok_response(&Json::num_i64(7), [("pong", Json::Bool(true))]);
        let v = Json::parse(&ok).unwrap();
        assert_eq!(v.field("ok").unwrap(), &Json::Bool(true));
        assert_eq!(v.field("id").unwrap(), &Json::Num("7".into()));
        let err = err_response(&Json::Null, ErrorKind::Overloaded, "queue full");
        let v = Json::parse(&err).unwrap();
        assert_eq!(v.field("error").unwrap().as_str().unwrap(), "overloaded");
    }
}
