//! Concurrent load generator and verifier for vega-serve.
//!
//! ```text
//! vega-loadgen --addr HOST:PORT [--requests N] [--conns C] [--distinct D]
//!              [--deadline-ms MS] [--op generate|score] [--cands K] [--cand-len L]
//!              [--verify-checkpoint PATH [--scale tiny|small] [--synthetic N] [--seed S]]
//!              [--overload-burst B] [--shutdown]
//! vega-loadgen --addr HOST:PORT --top TICKS [--top-interval-ms MS]
//! ```
//!
//! `--op score` switches the workload from `generate` to `score` requests:
//! each request carries `--cands` deterministic candidate token-id sequences
//! of `--cand-len` tokens (a pure function of the pair index, so repeats are
//! byte-checkable and `--verify-checkpoint` can recompute them locally).
//! Scoring bypasses the server cache, so the cache check is skipped in this
//! mode.
//!
//! Fires `--requests` generate requests over `--conns` connections, cycling
//! through `--distinct` (target, group) pairs so repeats exercise the cache,
//! and reports throughput and p50/p99 latency plus the server's cache
//! statistics. Every request is traced: each worker mints deterministic
//! trace ids (seeded from `--seed` and the worker index), and the server
//! must echo each one back with a `timing` breakdown, which is aggregated
//! into a `loadgen: timing …` line. Four checks, each printed as a greppable
//! `loadgen:` line and reflected in the exit code:
//!
//! * **byte-identity** — every response for a pair must be byte-identical,
//!   and with `--verify-checkpoint` also byte-identical to a direct
//!   in-process `generate_function` call on the same checkpoint;
//! * **trace** — every generate response must echo the minted trace id;
//! * **cache** — repeated requests must produce a nonzero hit rate;
//! * **overload** (with `--overload-burst`) — a burst of distinct requests
//!   must receive explicit `overloaded` responses, not hang.
//!
//! `--top` is a different mode entirely (vega-top): instead of generating
//! load it polls `{"op":"metrics"}` every `--top-interval-ms` and renders a
//! live one-line dashboard (rps, tokens/s, cache hit rate, request p50/p99,
//! inflight, queued, shed) for `TICKS` ticks, then exits.
//!
//! A missing or malformed flag value exits with status 2, naming the flag.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use vega::{Scale, VegaConfig};
use vega_obs::json::Json;
use vega_obs::TraceIdGen;
use vega_serve::cli::{FlagError, Flags};
use vega_serve::{load_checkpoint, protocol, Client, RetryPolicy};

struct Args {
    addr: String,
    requests: usize,
    conns: usize,
    distinct: usize,
    deadline_ms: Option<u64>,
    verify_checkpoint: Option<PathBuf>,
    scale: Scale,
    synthetic: Option<usize>,
    seed: u64,
    overload_burst: usize,
    shutdown: bool,
    top: usize,
    top_interval_ms: u64,
    score: bool,
    cands: usize,
    cand_len: usize,
}

/// splitmix64 — the workspace's stock deterministic mixer.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The candidate sequences for one pair index: a pure function of
/// `(pair_ix, cands, cand_len)`, drawn from low token ids (4..20) that every
/// vocabulary contains, so the server and a local verifier recompute the
/// identical request without a side channel.
fn score_candidates(pair_ix: usize, cands: usize, cand_len: usize) -> Vec<Vec<usize>> {
    (0..cands)
        .map(|c| {
            (0..cand_len)
                .map(|t| {
                    4 + (splitmix((pair_ix as u64) << 32 | (c as u64) << 16 | t as u64) % 16)
                        as usize
                })
                .collect()
        })
        .collect()
}

/// Per-worker aggregation of the `timing`/`trace` response fields.
#[derive(Default)]
struct TimingTally {
    queue_ms: u64,
    decode_ms: f64,
    tokens: u64,
    cache_hit: u64,
    cache_miss: u64,
    coalesced: u64,
    trace_ok: u64,
    trace_bad: u64,
}

impl TimingTally {
    fn absorb(&mut self, resp: &Json, expected_trace: &str) {
        match resp.field("trace").ok().and_then(|t| t.as_str().ok()) {
            Some(echoed) if echoed == expected_trace => self.trace_ok += 1,
            _ => self.trace_bad += 1,
        }
        let Ok(timing) = resp.field("timing") else {
            return;
        };
        let num = |k: &str| -> f64 { timing.field(k).and_then(|v| v.as_f64()).unwrap_or(0.0) };
        self.queue_ms += num("queue_ms") as u64;
        self.decode_ms += num("decode_ms");
        self.tokens += num("tokens") as u64;
        match timing.field("cache").ok().and_then(|c| c.as_str().ok()) {
            Some("hit") => self.cache_hit += 1,
            Some("coalesced") => self.coalesced += 1,
            _ => self.cache_miss += 1,
        }
    }

    fn merge(&mut self, other: &TimingTally) {
        self.queue_ms += other.queue_ms;
        self.decode_ms += other.decode_ms;
        self.tokens += other.tokens;
        self.cache_hit += other.cache_hit;
        self.cache_miss += other.cache_miss;
        self.coalesced += other.coalesced;
        self.trace_ok += other.trace_ok;
        self.trace_bad += other.trace_bad;
    }
}

const SCALES: &[(&str, Scale)] = &[("tiny", Scale::Tiny), ("small", Scale::Small)];
const OPS: &[(&str, bool)] = &[("generate", false), ("score", true)];

fn parse_args() -> Result<Args, FlagError> {
    let mut args = Args {
        addr: String::new(),
        requests: 40,
        conns: 4,
        distinct: 5,
        deadline_ms: None,
        verify_checkpoint: None,
        scale: Scale::Tiny,
        synthetic: None,
        seed: 0,
        overload_burst: 0,
        shutdown: false,
        top: 0,
        top_interval_ms: 500,
        score: false,
        cands: 4,
        cand_len: 24,
    };
    let mut flags = Flags::from_env();
    while let Some(flag) = flags.next() {
        let f = flag.as_str();
        match f {
            "--addr" => args.addr = flags.value(f)?,
            "--requests" => args.requests = flags.value(f)?,
            "--conns" => args.conns = flags.value(f)?,
            "--distinct" => args.distinct = flags.value(f)?,
            "--deadline-ms" => args.deadline_ms = Some(flags.value(f)?),
            "--verify-checkpoint" => args.verify_checkpoint = Some(flags.value(f)?),
            "--scale" => args.scale = flags.choice(f, SCALES)?,
            "--synthetic" => args.synthetic = Some(flags.value(f)?),
            "--seed" => args.seed = flags.value(f)?,
            "--op" => args.score = flags.choice(f, OPS)?,
            "--cands" => args.cands = flags.value(f)?,
            "--cand-len" => args.cand_len = flags.value(f)?,
            "--overload-burst" => args.overload_burst = flags.value(f)?,
            "--top" => args.top = flags.value(f)?,
            "--top-interval-ms" => args.top_interval_ms = flags.value(f)?,
            "--shutdown" => args.shutdown = true,
            other => return Err(FlagError(format!("unknown flag {other}"))),
        }
    }
    if args.addr.is_empty() {
        return Err(FlagError(
            "usage: vega-loadgen --addr HOST:PORT [--requests N] …".to_string(),
        ));
    }
    Ok(args)
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let ix = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[ix.min(sorted.len() - 1)]
}

/// Reads one numeric field out of a `stats` response (0 on any error).
fn stat_u64(resp: &std::io::Result<Json>, key: &str) -> u64 {
    resp.as_ref()
        .ok()
        .and_then(|v| {
            v.field("stats")
                .and_then(|s| s.field(key))
                .and_then(Json::as_u64)
                .ok()
        })
        .unwrap_or(0)
}

/// vega-top: polls `{"op":"metrics"}` and renders a live one-line dashboard
/// per tick. Rates (rps, tokens/s) are deltas between consecutive ticks;
/// percentiles and the hit rate are cumulative over the server's lifetime.
/// Returns false when the server cannot be reached or answers garbage.
fn run_top(addr: &str, ticks: usize, interval_ms: u64, retry: &RetryPolicy) -> bool {
    let mut client = match Client::connect_with_retry(addr, retry) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return false;
        }
    };
    let mut prev: Option<(Instant, f64, f64)> = None;
    for tick in 0..ticks.max(1) {
        let resp = match client.op_with_retry("metrics", retry) {
            Ok(v) => v,
            Err(e) => {
                println!("vega-top: FAIL (metrics op: {e})");
                return false;
            }
        };
        let counter = |name: &str| -> f64 {
            resp.field("metrics")
                .and_then(|m| m.field("counters"))
                .and_then(|c| c.field(name))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        };
        let gauge = |name: &str| -> f64 {
            resp.field("metrics")
                .and_then(|m| m.field("gauges"))
                .and_then(|g| g.field(name))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        };
        let hist_q = |name: &str, q: &str| -> f64 {
            resp.field("metrics")
                .and_then(|m| m.field("hists"))
                .and_then(|h| h.field(name))
                .and_then(|h| h.field(q))
                .and_then(|v| v.as_f64())
                .unwrap_or(f64::NAN)
        };
        let hit_ratio = resp
            .field("stats")
            .and_then(|s| s.field("cache_hit_ratio"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let now = Instant::now();
        let (requests, tokens) = (counter("serve.requests"), counter("decode.tokens"));
        let (rps, tps) = match prev {
            Some((t, r0, k0)) => {
                let dt = now.duration_since(t).as_secs_f64().max(1e-9);
                ((requests - r0) / dt, (tokens - k0) / dt)
            }
            None => (0.0, 0.0),
        };
        println!(
            "vega-top: rps={rps:.1} tokens/s={tps:.1} cache_hit={:.1}% \
             p50={:.1}ms p99={:.1}ms inflight={:.0} queued={:.0} shed={:.0}",
            hit_ratio * 100.0,
            hist_q("serve.request_seconds", "p50") * 1e3,
            hist_q("serve.request_seconds", "p99") * 1e3,
            gauge("serve.inflight"),
            gauge("serve.queue_depth"),
            counter("serve.shed"),
        );
        prev = Some((now, requests, tokens));
        if tick + 1 < ticks {
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
    }
    true
}

/// The canonical bytes of a generate response's `result` field (or a score
/// response's `scores` field).
fn result_bytes(response: &Json, field: &str) -> Result<String, String> {
    match response.field("ok") {
        Ok(Json::Bool(true)) => {}
        _ => return Err(format!("server returned an error: {}", response.render())),
    }
    response
        .field(field)
        .map(Json::render)
        .map_err(|e| format!("response has no {field} field: {e}"))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let mut failed = false;

    // Transport retry policy: absorbs the startup race where the first
    // connect lands before the listener is up (ECONNREFUSED), and recovers
    // dropped/corrupted connections under chaos plans.
    let retry = RetryPolicy::default();

    // vega-top mode: live dashboard instead of load.
    if args.top > 0 {
        let ok = run_top(&args.addr, args.top, args.top_interval_ms, &retry);
        std::process::exit(if ok { 0 } else { 1 });
    }

    // Discover what the server can generate.
    let mut control = match Client::connect_with_retry(&args.addr, &retry) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {}: {e}", args.addr);
            std::process::exit(2);
        }
    };
    let names = |resp: std::io::Result<Json>, field: &str| -> Vec<String> {
        resp.ok()
            .and_then(|v| v.field(field).ok().cloned())
            .and_then(|v| match v {
                Json::Arr(items) => Some(
                    items
                        .iter()
                        .filter_map(|i| i.as_str().ok().map(str::to_string))
                        .collect(),
                ),
                _ => None,
            })
            .unwrap_or_default()
    };
    let targets = names(control.op_with_retry("targets", &retry), "targets");
    let groups = names(control.op_with_retry("groups", &retry), "groups");
    if targets.is_empty() || groups.is_empty() {
        eprintln!("server reported no targets/groups");
        std::process::exit(2);
    }
    let mut pairs: Vec<(String, String)> = Vec::new();
    'outer: for g in &groups {
        for t in &targets {
            pairs.push((t.clone(), g.clone()));
            if pairs.len() >= args.distinct.max(1) {
                break 'outer;
            }
        }
    }

    // Decode-token counter before the measured load, so the wall-clock
    // window yields serving-level tokens/sec for the fast decode path.
    let tokens_before = stat_u64(&control.op_with_retry("stats", &retry), "decode_tokens");

    // Fire the measured load across connections.
    let t0 = Instant::now();
    let per_conn = args.requests.div_ceil(args.conns.max(1));
    type WorkerOut = (Vec<(usize, Duration, String)>, TimingTally);
    let workers: Vec<_> = (0..args.conns.max(1))
        .map(|c| {
            let addr = args.addr.clone();
            let pairs = pairs.clone();
            let deadline = args.deadline_ms;
            let (score, n_cands, cand_len) = (args.score, args.cands, args.cand_len);
            let retry = RetryPolicy {
                seed: c as u64,
                ..RetryPolicy::default()
            };
            // Each worker mints deterministic trace ids; a twin generator
            // with the same seed predicts the exact sequence, so the echoed
            // `trace` field is checked without any side channel.
            let trace_seed = args.seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            std::thread::spawn(move || -> Result<WorkerOut, String> {
                let mut client = Client::connect_with_retry(&addr, &retry)
                    .map_err(|e| format!("connect: {e}"))?;
                client.set_tracer(trace_seed);
                let mut expect = TraceIdGen::new(trace_seed);
                let mut out = Vec::new();
                let mut tally = TimingTally::default();
                for r in 0..per_conn {
                    let pair_ix = (c + r * 7) % pairs.len();
                    let (target, group) = &pairs[pair_ix];
                    let expected_trace = expect.mint().render();
                    let q0 = Instant::now();
                    let (resp, field) = if score {
                        let cands = score_candidates(pair_ix, n_cands, cand_len);
                        (
                            client.score_with_retry(target, group, &cands, deadline, &retry),
                            "scores",
                        )
                    } else {
                        (
                            client.generate_with_retry(target, group, deadline, &retry),
                            "result",
                        )
                    };
                    let resp = resp.map_err(|e| format!("request: {e}"))?;
                    let bytes = result_bytes(&resp, field)?;
                    tally.absorb(&resp, &expected_trace);
                    out.push((pair_ix, q0.elapsed(), bytes));
                }
                Ok((out, tally))
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = Vec::new();
    let mut by_pair: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let mut timing = TimingTally::default();
    for w in workers {
        match w.join().expect("worker thread panicked") {
            Ok((results, tally)) => {
                timing.merge(&tally);
                for (pair_ix, lat, bytes) in results {
                    latencies.push(lat);
                    by_pair.entry(pair_ix).or_default().push(bytes);
                }
            }
            Err(e) => {
                println!("loadgen: worker=FAIL ({e})");
                failed = true;
            }
        }
    }
    let wall = t0.elapsed();
    let stats_after = control.op_with_retry("stats", &retry);
    let decode_tokens = stat_u64(&stats_after, "decode_tokens").saturating_sub(tokens_before);
    latencies.sort();
    println!(
        "loadgen: requests={} wall={:.2}s throughput={:.1}/s tokens/s={:.1} \
         decode_tokens={decode_tokens} p50={:.1}ms p99={:.1}ms",
        latencies.len(),
        wall.as_secs_f64(),
        latencies.len() as f64 / wall.as_secs_f64().max(1e-9),
        decode_tokens as f64 / wall.as_secs_f64().max(1e-9),
        percentile(&latencies, 0.50).as_secs_f64() * 1e3,
        percentile(&latencies, 0.99).as_secs_f64() * 1e3,
    );

    // Server-reported per-request timing breakdown, aggregated.
    println!(
        "loadgen: timing queue_ms={} decode_ms={:.1} tokens={} \
         cache_hit={} cache_miss={} coalesced={}",
        timing.queue_ms,
        timing.decode_ms,
        timing.tokens,
        timing.cache_hit,
        timing.cache_miss,
        timing.coalesced,
    );
    // Every response must echo the trace id the worker minted for it.
    if timing.trace_bad == 0 && timing.trace_ok == latencies.len() as u64 {
        println!(
            "loadgen: trace=ok ({} responses echoed their trace)",
            timing.trace_ok
        );
    } else {
        println!(
            "loadgen: trace=FAIL ({} echoed, {} missing/mismatched)",
            timing.trace_ok, timing.trace_bad
        );
        failed = true;
    }

    // Byte-identity across responses for the same pair.
    let mut mismatches = 0usize;
    for (pair_ix, renders) in &by_pair {
        if renders.windows(2).any(|w| w[0] != w[1]) {
            let (t, g) = &pairs[*pair_ix];
            println!("loadgen: identity=FAIL ({t}/{g} responses differ across requests)");
            mismatches += 1;
        }
    }

    // Byte-identity against direct in-process generation.
    if let Some(ckpt) = &args.verify_checkpoint {
        let mut cfg = match args.scale {
            Scale::Tiny => VegaConfig::tiny(),
            Scale::Small => VegaConfig::default(),
        };
        if let Some(n) = args.synthetic {
            cfg.corpus.synthetic_targets = n;
        }
        cfg.seed = args.seed;
        cfg.train.seed = args.seed ^ 1;
        let engine = load_checkpoint(ckpt)
            .and_then(|c| c.into_engine(cfg))
            .map(|(_, e)| e);
        match engine {
            Ok(engine) => {
                for (pair_ix, renders) in &by_pair {
                    let (t, g) = &pairs[*pair_ix];
                    let expect = if args.score {
                        // Recompute the worker's candidates (same pure
                        // function of the pair index) and score them on a
                        // backend-free local replica.
                        let cands = score_candidates(*pair_ix, args.cands, args.cand_len);
                        let mut replica = engine.replica();
                        match engine.try_score_with(&mut replica, t, g, &cands, None) {
                            Ok(scores) => {
                                Json::Arr(scores.into_iter().map(Json::num_f32).collect()).render()
                            }
                            Err(e) => {
                                println!("loadgen: verify=FAIL (local score {t}/{g}: {})", e.msg);
                                mismatches += 1;
                                continue;
                            }
                        }
                    } else {
                        match engine.generate(t, g) {
                            Ok((module, gf)) => {
                                protocol::render_generated(t, g, module, &gf).render()
                            }
                            Err(e) => {
                                println!(
                                    "loadgen: verify=FAIL (local generate {t}/{g}: {})",
                                    e.msg
                                );
                                mismatches += 1;
                                continue;
                            }
                        }
                    };
                    if renders.iter().any(|r| r != &expect) {
                        println!("loadgen: verify=FAIL ({t}/{g} differs from direct generation)");
                        mismatches += 1;
                    }
                }
            }
            Err(e) => {
                println!("loadgen: verify=FAIL ({e})");
                mismatches += 1;
            }
        }
    }
    if mismatches == 0 {
        println!(
            "loadgen: verify=ok ({} pairs byte-identical{})",
            by_pair.len(),
            if args.verify_checkpoint.is_some() {
                ", matched direct generation"
            } else {
                ""
            }
        );
    } else {
        failed = true;
    }

    // Server-side cache statistics.
    match control.op_with_retry("stats", &retry) {
        Ok(v) => {
            let get = |k: &str| -> u64 {
                v.field("stats")
                    .and_then(|s| s.field(k))
                    .and_then(|n| n.as_u64())
                    .unwrap_or(0)
            };
            let hits = get("cache_hits");
            let misses = get("cache_misses");
            let rate = 100.0 * hits as f64 / (hits + misses).max(1) as f64;
            println!(
                "loadgen: cache_hits={hits} cache_misses={misses} hit_rate={rate:.1}% \
                 coalesced={} shed={} generated={}",
                get("coalesced"),
                get("shed"),
                get("generated"),
            );
            if args.score {
                // Scoring bypasses the cache by design; nothing to check.
                println!("loadgen: cache=skipped (score workload is uncached)");
            } else if args.requests > pairs.len() && hits == 0 {
                println!("loadgen: cache=FAIL (repeats sent but zero cache hits)");
                failed = true;
            } else {
                println!("loadgen: cache=ok");
            }
        }
        Err(e) => {
            println!("loadgen: cache=FAIL (stats op: {e})");
            failed = true;
        }
    }

    // Overload probe: burst distinct uncached pairs; expect explicit sheds.
    if args.overload_burst > 0 {
        let mut burst_pairs: Vec<(String, String)> = Vec::new();
        'fill: for g in groups.iter().rev() {
            for t in targets.iter().rev() {
                burst_pairs.push((t.clone(), g.clone()));
                if burst_pairs.len() >= args.overload_burst {
                    break 'fill;
                }
            }
        }
        let probes: Vec<_> = burst_pairs
            .into_iter()
            .map(|(t, g)| {
                let addr = args.addr.clone();
                std::thread::spawn(move || -> Result<String, String> {
                    let retry = RetryPolicy::default();
                    let mut client = Client::connect_with_retry(&addr, &retry)
                        .map_err(|e| format!("connect: {e}"))?;
                    let resp = client
                        .generate(&t, &g, Some(60_000))
                        .map_err(|e| format!("request: {e}"))?;
                    match resp.field("ok") {
                        Ok(Json::Bool(true)) => Ok("ok".to_string()),
                        _ => Ok(resp
                            .field("error")
                            .ok()
                            .and_then(|e| e.as_str().ok().map(str::to_string))
                            .unwrap_or_else(|| "unknown".to_string())),
                    }
                })
            })
            .collect();
        let mut overloaded = 0usize;
        let mut answered = 0usize;
        for p in probes {
            match p.join().expect("probe thread panicked") {
                Ok(code) => {
                    answered += 1;
                    if code == "overloaded" {
                        overloaded += 1;
                    }
                }
                Err(e) => {
                    println!("loadgen: overload=FAIL (probe error: {e})");
                    failed = true;
                }
            }
        }
        if overloaded > 0 {
            println!(
                "loadgen: overload=ok ({overloaded}/{answered} probes shed with `overloaded`)"
            );
        } else {
            println!("loadgen: overload=FAIL (no probe was shed; {answered} answered)");
            failed = true;
        }
    }

    if args.shutdown {
        match control.op_with_retry("shutdown", &retry) {
            Ok(v) if matches!(v.field("ok"), Ok(Json::Bool(true))) => {
                println!("loadgen: shutdown=ok");
            }
            other => {
                println!("loadgen: shutdown=FAIL ({other:?})");
                failed = true;
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
}
