//! End-to-end tests for the vega-serve service: one tiny pipeline is trained
//! once, then reused as a checkpoint across several server instances to cover
//! caching, coalescing, byte-identity across thread counts, backpressure,
//! deadlines, error paths, the `score` op, and graceful shutdown (idle and
//! under load).
//!
//! Everything lives in a single `#[test]` because `vega_par::set_threads` is
//! process-global and the scenarios deliberately flip it between 1 and 4.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::time::Duration;
use vega::{Vega, VegaConfig};
use vega_model::CodeBe;
use vega_obs::json::Json;
use vega_obs::TraceIdGen;
use vega_serve::{protocol, Client, Engine, ServeConfig, Server};

/// Builds a serving engine around a copy of the trained model, as the daemon
/// does with the model its checkpoint loads.
fn engine_from(checkpoint: &CodeBe) -> Engine {
    let vega = Vega::with_model(VegaConfig::tiny(), checkpoint.clone())
        .expect("checkpoint fits the corpus");
    Engine::new(vega)
}

fn start(checkpoint: &CodeBe, cfg: ServeConfig) -> (Server, String) {
    let server = Server::start(engine_from(checkpoint), cfg).expect("bind 127.0.0.1:0");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn result_render(resp: &Json) -> String {
    assert_eq!(
        resp.field("ok").unwrap(),
        &Json::Bool(true),
        "expected success: {}",
        resp.render()
    );
    resp.field("result").unwrap().render()
}

fn error_code(resp: &Json) -> String {
    assert_eq!(
        resp.field("ok").unwrap(),
        &Json::Bool(false),
        "expected failure: {}",
        resp.render()
    );
    resp.field("error").unwrap().as_str().unwrap().to_string()
}

fn stat_u64(stats: &Json, key: &str) -> u64 {
    stats
        .field("stats")
        .and_then(|s| s.field(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|e| panic!("stats.{key}: {e}"))
}

#[test]
fn serve_end_to_end() {
    vega_par::set_threads(4);
    let trained = Vega::train(VegaConfig::tiny());
    let checkpoint = trained.model().clone();

    // Direct in-process generations are the byte-identity reference.
    let reference = Engine::new(trained);
    let groups = reference.group_names();
    let targets = reference.target_names();
    assert!(groups.len() >= 2 && targets.len() >= 2);
    let (t0, g0) = (targets[0].clone(), groups[0].clone());
    let expect = |target: &str, group: &str| -> String {
        let (module, gf) = reference
            .generate(target, group)
            .expect("direct generation");
        protocol::render_generated(target, group, module, &gf).render()
    };
    let expected_t0g0 = expect(&t0, &g0);

    sequential_cache_and_errors(&checkpoint, &t0, &targets[1], &g0, &expected_t0g0);
    concurrent_coalescing(&checkpoint, &t0, &g0, &expected_t0g0);
    backpressure_and_deadlines(&checkpoint, &targets, &groups);
    telemetry_and_flight(&checkpoint, &t0, &g0, &expected_t0g0);
    served_score_matches_direct(&checkpoint, &t0, &g0);

    let pairs: Vec<(String, String)> = targets
        .iter()
        .take(2)
        .flat_map(|t| groups.iter().take(2).map(move |g| (t.clone(), g.clone())))
        .collect();
    let expected: BTreeMap<(String, String), String> = pairs
        .iter()
        .map(|(t, g)| ((t.clone(), g.clone()), expect(t, g)))
        .collect();
    drain_under_load(&checkpoint, &pairs, &expected);
    vega_par::set_threads(0);
}

/// threads=1: cache hits, byte-identity against direct generation, error
/// responses, and shutdown-refuses-new-work.
fn sequential_cache_and_errors(checkpoint: &CodeBe, t0: &str, t1: &str, g0: &str, expected: &str) {
    vega_par::set_threads(1);
    let (server, addr) = start(checkpoint, ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();

    let pong = c.op("ping").unwrap();
    assert_eq!(pong.field("pong").unwrap(), &Json::Bool(true));

    // First request is a miss, second a hit; both byte-identical to the
    // direct generate_function call.
    let first = c.generate(t0, g0, None).unwrap();
    assert_eq!(first.field("cached").unwrap(), &Json::Bool(false));
    assert_eq!(
        result_render(&first),
        expected,
        "server response differs from direct generation"
    );
    let second = c.generate(t0, g0, None).unwrap();
    assert_eq!(second.field("cached").unwrap(), &Json::Bool(true));
    assert_eq!(
        result_render(&second),
        expected,
        "cache hit is not byte-identical"
    );

    // Error paths name what exists.
    let bad_target = c.generate("NoSuchTarget", g0, None).unwrap();
    assert_eq!(error_code(&bad_target), "unknown_target");
    let msg = bad_target
        .field("message")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert!(msg.contains("NoSuchTarget") && msg.contains(t0), "{msg}");
    let bad_group = c.generate(t0, "noSuchGroup", None).unwrap();
    assert_eq!(error_code(&bad_group), "unknown_group");
    assert!(
        bad_group
            .field("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains(g0),
        "unknown-group message should list available groups"
    );
    let garbage = c.request_raw("this is not json").unwrap();
    assert_eq!(error_code(&Json::parse(&garbage).unwrap()), "bad_request");

    // Shutdown refuses fresh generate work (but the cache still answers
    // during the drain), then the server joins cleanly with accurate
    // counters.
    let stopping = c.op("shutdown").unwrap();
    assert_eq!(stopping.field("stopping").unwrap(), &Json::Bool(true));
    let refused = c.generate(t1, g0, None).unwrap();
    assert_eq!(error_code(&refused), "shutting_down");
    let drained = c.generate(t0, g0, None).unwrap();
    assert_eq!(drained.field("cached").unwrap(), &Json::Bool(true));
    assert_eq!(result_render(&drained), expected);
    let stats = server.join_with_stats();
    assert_eq!(stats.cache_hits, 2, "exactly two cache hits expected");
    assert_eq!(stats.generated, 1, "exactly one fresh generation expected");
    assert!(stats.requests >= 4);
}

/// threads=4: concurrent identical requests are answered byte-identically to
/// the sequential (threads=1) run, and the key is generated exactly once —
/// every other request either coalesced onto it or hit the cache.
fn concurrent_coalescing(checkpoint: &CodeBe, t0: &str, g0: &str, expected: &str) {
    vega_par::set_threads(4);
    let (server, addr) = start(checkpoint, ServeConfig::default());
    let workers: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            let (t0, g0) = (t0.to_string(), g0.to_string());
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                c.generate(&t0, &g0, None).unwrap()
            })
        })
        .collect();
    for w in workers {
        let resp = w.join().expect("client thread");
        assert_eq!(
            result_render(&resp),
            expected,
            "concurrent response differs from the threads=1 sequential generation"
        );
    }
    server.shutdown();
    let stats = server.join_with_stats();
    assert_eq!(stats.requests, 8);
    assert_eq!(
        stats.generated, 1,
        "8 identical concurrent requests must generate exactly once \
         (coalesced={} cache_hits={})",
        stats.coalesced, stats.cache_hits
    );
    assert_eq!(stats.coalesced + stats.cache_hits, 7);
}

/// A deliberately slow one-job-at-a-time server with a one-slot queue: excess
/// concurrent work is shed with `overloaded` (never hung), and a job whose
/// deadline elapses while queued is answered with `deadline_exceeded`.
fn backpressure_and_deadlines(checkpoint: &CodeBe, targets: &[String], groups: &[String]) {
    vega_par::set_threads(1);
    let cfg = ServeConfig {
        cache_cap: 0, // every request is fresh work
        queue_cap: 1,
        batch: 1,
        slow_ms: 400,
        ..ServeConfig::default()
    };
    let (server, addr) = start(checkpoint, cfg);

    // Deadline: occupy the one dispatch slot, then queue a job that cannot
    // be dispatched before its 1 ms deadline.
    let slow = {
        let addr = addr.clone();
        let (t, g) = (targets[0].clone(), groups[0].clone());
        std::thread::spawn(move || {
            Client::connect(&addr)
                .unwrap()
                .generate(&t, &g, None)
                .unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(150));
    let mut c = Client::connect(&addr).unwrap();
    let late = c.generate(&targets[1], &groups[0], Some(1)).unwrap();
    assert_eq!(error_code(&late), "deadline_exceeded");
    assert_eq!(slow.join().unwrap().field("ok").unwrap(), &Json::Bool(true));

    // Overload: burst six distinct fresh jobs at a server that can hold at
    // most one running plus one queued. At least one must be shed, every
    // probe must get an answer, and successes still verify.
    let mut pairs = Vec::new();
    'outer: for g in groups.iter().rev() {
        for t in targets.iter().rev() {
            pairs.push((t.clone(), g.clone()));
            if pairs.len() == 6 {
                break 'outer;
            }
        }
    }
    let probes: Vec<_> = pairs
        .into_iter()
        .map(|(t, g)| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                Client::connect(&addr)
                    .unwrap()
                    .generate(&t, &g, Some(30_000))
                    .unwrap()
            })
        })
        .collect();
    let mut shed = 0;
    let mut answered = 0;
    for p in probes {
        let resp = p.join().expect("probe answered (never hangs)");
        answered += 1;
        if resp.field("ok").unwrap() == &Json::Bool(false) {
            assert_eq!(error_code(&resp), "overloaded");
            let msg = resp.field("message").unwrap().as_str().unwrap().to_string();
            assert!(msg.contains("queue full"), "{msg}");
            shed += 1;
        }
    }
    assert_eq!(answered, 6);
    assert!(shed >= 1, "a 6-request burst at queue_cap=1 must shed");

    server.shutdown();
    let stats = server.join_with_stats();
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.deadline_exceeded, 1);
}

/// Traced requests echo the caller's trace id and a timing breakdown, the
/// `stats`, `metrics` and Prometheus `text` views of the same process agree
/// with each other, and the flight recorder retains trace-stamped spans
/// served by the `flightdump` op — without perturbing the `result` bytes.
fn telemetry_and_flight(checkpoint: &CodeBe, t0: &str, g0: &str, expected: &str) {
    vega_par::set_threads(1);
    let cfg = ServeConfig {
        flight_cap: 128,
        ..ServeConfig::default()
    };
    let (server, addr) = start(checkpoint, cfg);
    let mut c = Client::connect(&addr).unwrap();
    c.set_tracer(0xC0FFEE);
    // A twin generator predicts every trace the client will mint.
    let mut twin = TraceIdGen::new(0xC0FFEE);

    // Fresh generation: trace echoed, timing says miss, result bytes
    // untouched by the new envelope fields.
    let miss = c.generate(t0, g0, None).unwrap();
    let miss_trace = twin.mint().render();
    assert_eq!(result_render(&miss), expected);
    assert_eq!(
        miss.field("trace").unwrap().as_str().unwrap(),
        miss_trace,
        "response must echo the caller's trace id"
    );
    let timing = miss.field("timing").unwrap();
    assert_eq!(timing.field("cache").unwrap().as_str().unwrap(), "miss");
    let tokens = timing.field("tokens").unwrap().as_u64().unwrap();
    assert!(tokens > 0, "a fresh generation decodes at least one token");
    assert!(timing.field("decode_ms").unwrap().as_f64().unwrap() >= 0.0);
    timing.field("queue_ms").unwrap().as_u64().unwrap();

    // Cache hit: new trace, timing says hit with zero decode work.
    let hit = c.generate(t0, g0, None).unwrap();
    let hit_trace = twin.mint().render();
    assert_eq!(hit.field("trace").unwrap().as_str().unwrap(), hit_trace);
    let hit_timing = hit.field("timing").unwrap();
    assert_eq!(hit_timing.field("cache").unwrap().as_str().unwrap(), "hit");
    assert_eq!(hit_timing.field("tokens").unwrap().as_u64().unwrap(), 0);

    // The metrics op returns three views of the same instant; they must
    // agree exactly (golden consistency, not approximate).
    let m = c.op("metrics").unwrap();
    assert_eq!(m.field("ok").unwrap(), &Json::Bool(true));
    let stats = m.field("stats").unwrap();
    let metrics = m.field("metrics").unwrap();
    let stat_f64 = |name: &str| stats.field(name).unwrap().as_f64().unwrap();
    let stat_u64 = |name: &str| stats.field(name).unwrap().as_u64().unwrap();

    assert_eq!(stat_u64("cache_hits"), 1);
    assert_eq!(stat_u64("cache_misses"), 1);
    assert_eq!(
        stat_f64("cache_hit_ratio"),
        0.5,
        "one hit + one miss must precompute to exactly 0.5"
    );

    // stats.decode_tokens mirrors the obs counter verbatim, and the
    // decode.step_seconds histogram observed exactly one sample per token.
    let counters = metrics.field("counters").unwrap();
    let decode_tokens = counters.field("decode.tokens").unwrap().as_u64().unwrap();
    assert_eq!(stat_u64("decode_tokens"), decode_tokens);
    let step = metrics
        .field("hists")
        .unwrap()
        .field("decode.step_seconds")
        .unwrap();
    assert_eq!(
        step.field("count").unwrap().as_u64().unwrap(),
        decode_tokens
    );
    for (stat_name, hist_q) in [
        ("decode_step_p50", "p50"),
        ("decode_step_p90", "p90"),
        ("decode_step_p99", "p99"),
    ] {
        let from_stats = stat_f64(stat_name);
        let from_hist = step.field(hist_q).unwrap().as_f64().unwrap();
        assert_eq!(
            from_stats, from_hist,
            "stats.{stat_name} and hists.decode.step_seconds.{hist_q} disagree"
        );
    }

    // The Prometheus exposition is well-formed `name value` text with the
    // same sample count.
    let text = m.field("text").unwrap().as_str().unwrap().to_string();
    let mut prom_count = None;
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let mut parts = line.split_whitespace();
        let name = parts.next().expect("metric name");
        let value = parts.next().expect("metric value");
        assert_eq!(
            parts.next(),
            None,
            "exposition lines are `name value`: {line}"
        );
        assert!(name.starts_with("vega_"), "{line}");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("bad value in {line}"));
        if name == "vega_decode_step_seconds_count" {
            prom_count = Some(value.parse::<f64>().unwrap());
        }
    }
    assert_eq!(
        prom_count,
        Some(decode_tokens as f64),
        "Prometheus _count must match the JSON histogram count"
    );
    assert!(
        text.contains("le=\"+Inf\""),
        "cumulative buckets must end at +Inf:\n{text}"
    );

    // The flight recorder retained trace-stamped spans for both requests.
    let fd = c.op("flightdump").unwrap();
    assert_eq!(fd.field("enabled").unwrap(), &Json::Bool(true));
    let records = fd.field("records").unwrap().as_array().unwrap();
    // `what` is the dotted span path, so match on the leaf name.
    let has = |leaf: &str, trace: &str| {
        records.iter().any(|r| {
            r.field("what")
                .ok()
                .and_then(|w| w.as_str().ok())
                .is_some_and(|w| w.ends_with(leaf))
                && r.field("trace").ok().and_then(|t| t.as_str().ok()) == Some(trace)
        })
    };
    assert!(
        has("serve.generate", &miss_trace),
        "the miss's generate span must be in the flight dump: {}",
        fd.render()
    );
    assert!(
        has("serve.cache_lookup", &hit_trace),
        "the hit's cache-lookup span must be in the flight dump: {}",
        fd.render()
    );

    server.shutdown();
    server.join_with_stats();
    // The recorder is process-global; leave it off for whatever runs next.
    vega_obs::flight::configure(0);
}

/// The `score` op: two concurrent connections get score bits equal to
/// direct in-process scoring on the loaded model, `timing.tokens` is
/// the summed candidate length, and malformed requests (an out-of-vocabulary
/// id, an over-long candidate, an unknown group, an empty candidate list)
/// are rejected explicitly, never decoded. A request line of over 64 KB,
/// written in 1 KB pieces, is answered correctly.
fn served_score_matches_direct(checkpoint: &CodeBe, t: &str, g: &str) {
    vega_par::set_threads(1);
    let candidates: Vec<Vec<usize>> = vec![vec![5, 9, 2], vec![5, 9], vec![7, 7, 7, 7]];
    let cand_tokens: u64 = candidates.iter().map(|c| c.len() as u64).sum();

    let reference = engine_from(checkpoint);
    let direct = reference
        .try_score_with(reference.vega().model(), t, g, &candidates, None)
        .expect("direct scoring");
    let direct_render = Json::Arr(direct.into_iter().map(Json::num_f32).collect()).render();

    let cfg = ServeConfig {
        batch: 2,
        ..ServeConfig::default()
    };
    let (server, addr) = start(checkpoint, cfg);
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let (t, g) = (t.to_string(), g.to_string());
            let cands = candidates.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                c.score(&t, &g, &cands, None).unwrap()
            })
        })
        .collect();
    for w in workers {
        let resp = w.join().expect("score client thread");
        assert_eq!(
            resp.field("ok").unwrap(),
            &Json::Bool(true),
            "{}",
            resp.render()
        );
        assert_eq!(
            resp.field("scores").unwrap().render(),
            direct_render,
            "served scores differ from direct scoring"
        );
        let tokens = resp
            .field("timing")
            .unwrap()
            .field("tokens")
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(
            tokens, cand_tokens,
            "score attributes the summed candidate length"
        );
    }

    let mut c = Client::connect(&addr).unwrap();
    // Out-of-vocabulary token id: rejected before any decode.
    let bad = c.score(t, g, &[vec![1_000_000]], None).unwrap();
    assert_eq!(error_code(&bad), "bad_request");
    // Candidate longer than the model can score (max_len - 2).
    let bad = c.score(t, g, &[vec![5; 500]], None).unwrap();
    assert_eq!(error_code(&bad), "bad_request");
    let bad = c.score(t, "no-such-group", &candidates, None).unwrap();
    assert_eq!(error_code(&bad), "unknown_group");
    // Protocol-level rejection: an empty candidate list never parses.
    let raw = c
        .request_raw(&format!(
            r#"{{"op":"score","target":"{t}","group":"{g}","candidates":[]}}"#
        ))
        .unwrap();
    assert_eq!(error_code(&Json::parse(&raw).unwrap()), "bad_request");

    // A 64 KB request line (the score request, padded with whitespace the
    // parser skips) written in 1 KB pieces is framed and answered like the
    // short one.
    let cands = Json::Arr(
        candidates
            .iter()
            .map(|c| Json::Arr(c.iter().map(|&id| Json::num_usize(id)).collect()))
            .collect(),
    );
    let long = format!(
        r#"{{"op":"score","target":"{t}","group":"{g}","candidates":{}{}}}"#,
        cands.render(),
        " ".repeat(64 * 1024)
    ) + "\n";
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    for piece in long.as_bytes().chunks(1024) {
        stream.write_all(piece).unwrap();
        std::thread::sleep(Duration::from_micros(200));
    }
    let mut answer = String::new();
    BufReader::new(&stream).read_line(&mut answer).unwrap();
    let resp = Json::parse(answer.trim()).unwrap();
    assert_eq!(resp.field("scores").unwrap().render(), direct_render);

    // Every handled score request (errors included) is counted; the
    // unparseable line is not.
    let stats = c.op("stats").unwrap();
    assert_eq!(stat_u64(&stats, "score_requests"), 6);

    server.shutdown();
    server.join_with_stats();
}

/// Shutdown under load: six clients race a slow batch-2 server and a
/// shutdown lands 30 ms in. Every client gets an answer (a drain that
/// dropped a queued job would hang its join), at least one generation
/// completes, and each answer is either byte-identical to direct
/// generation or an explicit `shutting_down`.
fn drain_under_load(
    checkpoint: &CodeBe,
    pairs: &[(String, String)],
    expected: &BTreeMap<(String, String), String>,
) {
    vega_par::set_threads(1);
    let cfg = ServeConfig {
        batch: 2,
        cache_cap: 0,
        slow_ms: 60, // keep the dispatcher busy long enough for shutdown to land
        ..ServeConfig::default()
    };
    let (server, addr) = start(checkpoint, cfg);

    let workers: Vec<_> = (0..6)
        .map(|i| {
            let addr = addr.clone();
            let (t, g) = pairs[i % pairs.len()].clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                ((t.clone(), g.clone()), c.generate(&t, &g, None).unwrap())
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    let stopping = Client::connect(&addr).unwrap().op("shutdown").unwrap();
    assert_eq!(stopping.field("stopping").unwrap(), &Json::Bool(true));

    let mut completed = 0usize;
    for w in workers {
        let (pair, resp) = w.join().expect("request answered during drain");
        if resp.field("ok").unwrap() == &Json::Bool(true) {
            assert_eq!(
                result_render(&resp),
                expected[&pair],
                "drained response must stay byte-identical"
            );
            completed += 1;
        } else {
            assert_eq!(
                error_code(&resp),
                "shutting_down",
                "losers must be refused explicitly, never dropped"
            );
        }
    }
    assert!(
        completed >= 1,
        "at least the in-flight request must drain to completion"
    );
    server.join_with_stats();
}
