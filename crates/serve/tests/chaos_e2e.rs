//! Chaos end-to-end test: under a deterministic `VEGA_FAULT_PLAN`-style
//! plan injecting connection drops, stalls and corrupt frames, a retrying
//! load completes with zero hangs, every successful response is
//! byte-identical to direct in-process generation, and the obs trace shows
//! matching injected/recovered fault counts — at pool sizes 1 and 4.
//!
//! A second pass runs the same sequential workload twice under the same
//! seed and asserts the *fault sequence itself* is identical: same per-site
//! fired counts, same response bytes. Fire decisions are a pure function of
//! (seed, site, hit index), so chaos runs are replayable.
//!
//! One `#[test]`: the fault plan, thread override and obs counters are all
//! process-global.

use std::collections::BTreeMap;
use vega::{Vega, VegaConfig};
use vega_fault::{sites, FaultPlan};
use vega_model::CodeBe;
use vega_obs::json::Json;
use vega_obs::TraceIdGen;
use vega_serve::{protocol, Client, Engine, RetryPolicy, ServeConfig, Server};

const PLAN: &str = "seed=7;serve.conn.drop=0.2;serve.conn.stall=0.15:15;serve.conn.corrupt=0.2";

fn engine_from(checkpoint: &CodeBe) -> Engine {
    let vega = Vega::with_model(VegaConfig::tiny(), checkpoint.clone())
        .expect("checkpoint fits the corpus");
    Engine::new(vega)
}

fn counter(name: &str) -> u64 {
    vega_obs::global().counter(name)
}

fn result_render(resp: &Json) -> String {
    assert_eq!(
        resp.field("ok").unwrap(),
        &Json::Bool(true),
        "chaos must only delay successes, never turn them into errors: {}",
        resp.render()
    );
    resp.field("result").unwrap().render()
}

struct Counters {
    drop: u64,
    stall: u64,
    corrupt: u64,
    conn_recovered: u64,
    stall_recovered: u64,
}

fn snapshot() -> Counters {
    Counters {
        drop: counter(&format!("fault.injected.{}", sites::SERVE_CONN_DROP)),
        stall: counter(&format!("fault.injected.{}", sites::SERVE_CONN_STALL)),
        corrupt: counter(&format!("fault.injected.{}", sites::SERVE_CONN_CORRUPT)),
        conn_recovered: counter(&format!("fault.recovered.{}", sites::SERVE_CONN)),
        stall_recovered: counter(&format!("fault.recovered.{}", sites::SERVE_CONN_STALL)),
    }
}

/// Runs `conns` concurrent retrying clients against a chaos server and
/// checks byte-identity plus injected/recovered bookkeeping.
fn chaos_pool_run(
    checkpoint: &CodeBe,
    pairs: &[(String, String)],
    expected: &BTreeMap<(String, String), String>,
    pool: usize,
    conns: usize,
    reps: usize,
) {
    vega_par::set_threads(pool);
    vega_fault::set_plan(Some(FaultPlan::parse(PLAN).unwrap()));
    let before = snapshot();

    let cfg = ServeConfig {
        batch: pool,
        ..ServeConfig::default()
    };
    let server = Server::start(engine_from(checkpoint), cfg).expect("bind 127.0.0.1:0");
    let addr = server.local_addr().to_string();

    let workers: Vec<_> = (0..conns)
        .map(|c| {
            let addr = addr.clone();
            let pairs = pairs.to_vec();
            std::thread::spawn(move || {
                let policy = RetryPolicy {
                    max_attempts: 16,
                    base_ms: 2,
                    cap_ms: 40,
                    seed: c as u64,
                };
                let mut client = Client::connect_with_retry(&addr, &policy).expect("chaos connect");
                let mut out = Vec::new();
                for rep in 0..reps {
                    let (t, g) = &pairs[(c + rep) % pairs.len()];
                    let resp = client
                        .generate_with_retry(t, g, None, &policy)
                        .expect("request must complete under chaos");
                    out.push(((t.clone(), g.clone()), result_render(&resp)));
                }
                out
            })
        })
        .collect();
    for w in workers {
        // Joining every worker is the zero-hangs check: a stuck request
        // would wedge the test instead of silently passing.
        for (pair, render) in w.join().expect("chaos client thread") {
            assert_eq!(
                &render, &expected[&pair],
                "pool={pool}: successful response not byte-identical to direct generation"
            );
        }
    }

    server.shutdown();
    let stats = server.join_with_stats();

    let after = snapshot();
    let (dropped, corrupted) = (after.drop - before.drop, after.corrupt - before.corrupt);
    // Every drop and every corrupt frame costs the client exactly one
    // resend. Dropped lines die before the request counter; corrupted ones
    // are counted, then their response is replaced with garbage.
    assert_eq!(
        stats.requests,
        (conns * reps) as u64 + corrupted,
        "pool={pool}: request count = clean requests + corrupt-frame resends"
    );
    assert!(
        dropped + corrupted > 0,
        "the chaos plan should actually fire at pool={pool}"
    );
    assert_eq!(
        dropped + corrupted,
        after.conn_recovered - before.conn_recovered,
        "pool={pool}: every injected drop/corrupt must be recovered by the client"
    );
    assert_eq!(
        after.stall - before.stall,
        after.stall_recovered - before.stall_recovered,
        "pool={pool}: every injected stall must be survived"
    );
    vega_fault::set_plan(None);
}

/// One sequential client under the chaos plan; returns the per-site fired
/// log and every response body, in order.
fn chaos_sequential_run(
    checkpoint: &CodeBe,
    pairs: &[(String, String)],
    reps: usize,
) -> (Vec<(String, u64)>, Vec<String>) {
    vega_par::set_threads(1);
    vega_fault::set_plan(Some(FaultPlan::parse(PLAN).unwrap()));
    let server =
        Server::start(engine_from(checkpoint), ServeConfig::default()).expect("bind 127.0.0.1:0");
    let addr = server.local_addr().to_string();

    let policy = RetryPolicy {
        max_attempts: 16,
        base_ms: 1,
        cap_ms: 10,
        seed: 99,
    };
    let mut client = Client::connect_with_retry(&addr, &policy).expect("chaos connect");
    let mut renders = Vec::new();
    for rep in 0..reps {
        let (t, g) = &pairs[rep % pairs.len()];
        let resp = client
            .generate_with_retry(t, g, None, &policy)
            .expect("sequential chaos request");
        renders.push(result_render(&resp));
    }
    drop(client);
    server.shutdown();
    server.join_with_stats();

    let plan = vega_fault::active_plan().expect("plan still installed");
    let log = plan.fired_log();
    vega_fault::set_plan(None);
    (log, renders)
}

/// One traced sequential client under the chaos plan with the flight
/// recorder on; returns the echoed trace ids (in request order) and the
/// stable flight-dump render.
fn chaos_traced_run(
    checkpoint: &CodeBe,
    pairs: &[(String, String)],
    pool: usize,
    reps: usize,
    trace_seed: u64,
) -> (Vec<String>, String) {
    vega_par::set_threads(pool);
    vega_fault::set_plan(Some(FaultPlan::parse(PLAN).unwrap()));
    // Fresh recorder per run so the dump holds exactly this workload.
    vega_obs::flight::configure(512);
    let cfg = ServeConfig {
        batch: pool,
        ..ServeConfig::default()
    };
    let server = Server::start(engine_from(checkpoint), cfg).expect("bind 127.0.0.1:0");
    let addr = server.local_addr().to_string();

    let policy = RetryPolicy {
        max_attempts: 16,
        base_ms: 1,
        cap_ms: 10,
        seed: 99,
    };
    let mut client = Client::connect_with_retry(&addr, &policy).expect("chaos connect");
    client.set_tracer(trace_seed);
    let mut traces = Vec::new();
    for rep in 0..reps {
        let (t, g) = &pairs[rep % pairs.len()];
        let resp = client
            .generate_with_retry(t, g, None, &policy)
            .expect("traced chaos request");
        result_render(&resp);
        traces.push(
            resp.field("trace")
                .expect("traced request must echo its trace")
                .as_str()
                .unwrap()
                .to_string(),
        );
    }
    drop(client);
    server.shutdown();
    server.join_with_stats();
    vega_fault::set_plan(None);

    let stable = vega_obs::flight::dump_stable_json().render();
    vega_obs::flight::configure(0);
    (traces, stable)
}

#[test]
fn chaos_serve_end_to_end() {
    vega_par::set_threads(4);
    let trained = Vega::train(VegaConfig::tiny());
    let checkpoint = trained.model().clone();

    // Byte-identity reference: direct in-process generation, no faults.
    let reference = Engine::new(trained);
    let groups = reference.group_names();
    let targets = reference.target_names();
    let pairs: Vec<(String, String)> = targets
        .iter()
        .take(2)
        .flat_map(|t| groups.iter().take(2).map(move |g| (t.clone(), g.clone())))
        .collect();
    assert_eq!(pairs.len(), 4);
    let expected: BTreeMap<(String, String), String> = pairs
        .iter()
        .map(|(t, g)| {
            let (module, gf) = reference.generate(t, g).expect("direct generation");
            (
                (t.clone(), g.clone()),
                protocol::render_generated(t, g, module, &gf).render(),
            )
        })
        .collect();

    // Concurrent retrying load under chaos, at both pool sizes.
    chaos_pool_run(&checkpoint, &pairs, &expected, 1, 4, 6);
    chaos_pool_run(&checkpoint, &pairs, &expected, 4, 4, 6);

    // Replayability: the same seed injects the identical fault sequence and
    // yields byte-identical responses across two separate runs.
    let (log_a, renders_a) = chaos_sequential_run(&checkpoint, &pairs, 8);
    let (log_b, renders_b) = chaos_sequential_run(&checkpoint, &pairs, 8);
    assert!(
        log_a.iter().any(|(_, n)| *n > 0),
        "the replay runs should inject at least one fault: {log_a:?}"
    );
    assert_eq!(
        log_a, log_b,
        "same seed must inject the identical fault sequence"
    );
    assert_eq!(
        renders_a, renders_b,
        "same seed must yield byte-identical responses"
    );
    for (i, r) in renders_a.iter().enumerate() {
        assert_eq!(r, &expected[&pairs[i % pairs.len()]]);
    }

    // Trace determinism: the same seeded sequential workload at pool sizes
    // 1 and 4 mints the identical trace-id sequence (predictable by a twin
    // generator) and leaves byte-identical stable flight dumps — retries
    // reuse their request's trace, and the stable form strips wall-clock.
    let trace_seed = 0x51DE;
    let (traces_1, dump_1) = chaos_traced_run(&checkpoint, &pairs, 1, 8, trace_seed);
    let (traces_4, dump_4) = chaos_traced_run(&checkpoint, &pairs, 4, 8, trace_seed);
    let mut twin = TraceIdGen::new(trace_seed);
    let predicted: Vec<String> = (0..8).map(|_| twin.mint().render()).collect();
    assert_eq!(
        traces_1, predicted,
        "echoed traces must follow the seeded mint sequence"
    );
    assert_eq!(
        traces_1, traces_4,
        "trace-id sequence must not depend on pool size"
    );
    assert!(
        dump_1.contains("serve.generate"),
        "the stable dump should retain traced generate spans: {dump_1}"
    );
    assert!(
        dump_1.contains(&predicted[0]),
        "the stable dump should carry the first request's trace: {dump_1}"
    );
    assert_eq!(
        dump_1, dump_4,
        "same-seed stable flight dumps must be byte-identical across pool sizes"
    );

    vega_par::set_threads(0);
}
