//! Hot model swap end-to-end: a live server flips from checkpoint A to
//! checkpoint B without a restart, without losing a single request, and
//! without ever mixing one model's weights with another's cache key —
//! at batch sizes 1 and 4, with failed and chaos-injected swaps
//! leaving the old model serving, and with a swap landing in the middle
//! of a `backend` request, whose groups all come from the model it
//! started on.
//!
//! Everything lives in a single `#[test]` because `vega_par::set_threads`
//! and the fault plan are process-global.

use std::collections::BTreeMap;
use std::path::Path;
use vega::{Vega, VegaConfig};
use vega_fault::FaultPlan;
use vega_obs::json::Json;
use vega_serve::{load_checkpoint, protocol, Client, Engine, ServeConfig, Server};

fn engine_from_file(path: &Path) -> Engine {
    let ckpt = load_checkpoint(path).expect("checkpoint loads");
    assert_eq!(ckpt.meta.format, "vega-ckpt/v2");
    let (_meta, engine) = ckpt
        .into_engine(VegaConfig::tiny())
        .expect("checkpoint fits the corpus");
    engine
}

fn start(path: &Path, cfg: ServeConfig) -> (Server, String) {
    let server = Server::start(engine_from_file(path), cfg).expect("bind 127.0.0.1:0");
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

fn bool_field(resp: &Json, name: &str) -> bool {
    resp.field(name).unwrap() == &Json::Bool(true)
}

#[test]
fn hot_swap_loses_nothing_and_never_mixes_models() {
    vega_par::set_threads(4);
    let dir = std::env::temp_dir().join("vega-serve-swap-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path_a = dir.join("model-a.ckpt");
    let path_b = dir.join("model-b.ckpt");

    // Model A is the trained pipeline; model B is A perturbed by a few
    // deterministic pretraining steps — same vocabulary and shape (so it
    // fits the same corpus), different weights and digest.
    let trained = Vega::train(VegaConfig::tiny());
    trained.model().save_file_v2(&path_a).unwrap();
    let mut model_b = trained.model().clone();
    let probe: Vec<usize> = (2..10).collect();
    model_b.pretrain(&[probe], 200, 1e-2, 7);
    model_b.save_file_v2(&path_b).unwrap();

    // Reference generations for both models, straight from the v2 files the
    // server will serve — the byte-identity oracle for every scenario.
    let ref_a = engine_from_file(&path_a);
    let ref_b = engine_from_file(&path_b);
    assert_ne!(
        ref_a.model_digest(),
        ref_b.model_digest(),
        "perturbed model must have a different digest"
    );
    let targets = ref_a.target_names();
    let groups = ref_a.group_names();
    let mut pairs: Vec<(String, String)> = Vec::new();
    for t in &targets {
        for g in &groups {
            pairs.push((t.clone(), g.clone()));
        }
    }
    let mut expected: BTreeMap<(String, String), (String, String)> = BTreeMap::new();
    for (t, g) in &pairs {
        let render = |engine: &Engine| {
            let (module, gf) = engine.generate(t, g).expect("direct generation");
            protocol::render_generated(t, g, module, &gf).render()
        };
        expected.insert((t.clone(), g.clone()), (render(&ref_a), render(&ref_b)));
    }
    // At least one pair must decode differently under B, or the swap
    // assertions below would be vacuous; use it as the probe pair.
    let probe_pair = pairs
        .iter()
        .find(|p| expected[*p].0 != expected[*p].1)
        .expect("perturbed model must change at least one generation")
        .clone();

    swap_sequential(&path_a, &path_b, &probe_pair, &expected);
    swap_mid_backend(&path_a, &path_b, &targets, &groups, &expected);
    swap_under_concurrent_load(&path_a, &path_b, &probe_pair, &pairs, &expected);
}

/// Pool size 1: a swap A→B sent from a second connection once a cold
/// `backend` request is past its first group. The request pinned model A,
/// so every function it returns must be A's, although the swap landed
/// before its last group: the swap's cache clear drops the groups cached
/// before it, so what is cached afterwards is exactly the groups generated
/// after it.
fn swap_mid_backend(
    path_a: &Path,
    path_b: &Path,
    targets: &[String],
    groups: &[String],
    expected: &BTreeMap<(String, String), (String, String)>,
) {
    vega_par::set_threads(1);
    // The target whose groups model B changes most, so a response that
    // took its later groups from B cannot pass.
    let changed = |t: &String| {
        let differs = |g: &String| {
            let (a, b) = &expected[&(t.clone(), g.clone())];
            a != b
        };
        groups.iter().filter(|g| differs(g)).count()
    };
    let target = targets.iter().max_by_key(|t| changed(t)).unwrap().clone();
    assert!(
        changed(&target) * 2 > groups.len(),
        "model B must change most of {target}'s groups"
    );
    let cfg = ServeConfig {
        batch: 1,
        // Every group takes at least this long, so the swap (a checkpoint
        // load) lands well before the request's last group.
        slow_ms: 10,
        ..ServeConfig::default()
    };
    let (server, addr) = start(path_a, cfg);
    let request = {
        let (addr, target) = (addr.clone(), target.clone());
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.request_raw(&format!(r#"{{"op":"backend","target":"{target}"}}"#))
                .unwrap()
        })
    };
    let give_up = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while server.stats().generated == 0 {
        assert!(
            std::time::Instant::now() < give_up,
            "backend request never started"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let mut c = Client::connect(&addr).unwrap();
    let swap = c.swap(&path_b.display().to_string()).unwrap();
    assert!(bool_field(&swap, "swapped"), "{}", swap.render());
    assert!(bool_field(&swap, "cache_cleared"));
    assert!(
        bool_field(&swap, "drained"),
        "the pinned model A must drain"
    );

    let resp = Json::parse(&request.join().expect("backend request answered")).unwrap();
    assert_eq!(resp.field("errors").unwrap().as_array().unwrap().len(), 0);
    let functions = resp.field("functions").unwrap().as_array().unwrap();
    assert_eq!(functions.len(), groups.len());
    for (g, f) in groups.iter().zip(functions) {
        assert_eq!(
            f.render(),
            expected[&(target.clone(), g.clone())].0,
            "{target}/{g} in a backend request started on model A must be model A"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.generated, groups.len() as u64);
    assert!(
        stats.cache_len > 0 && stats.cache_len < groups.len() as u64,
        "the swap must land mid-request: {} of {} groups cached after its clear",
        stats.cache_len,
        groups.len()
    );
    server.shutdown();
    server.join();
}

/// Pool size 1: swap A→B changes responses and clears the cache, re-swapping
/// the identical checkpoint keeps the cache, and failed/chaos swaps leave
/// the current model serving.
fn swap_sequential(
    path_a: &Path,
    path_b: &Path,
    probe_pair: &(String, String),
    expected: &BTreeMap<(String, String), (String, String)>,
) {
    vega_par::set_threads(1);
    let cfg = ServeConfig {
        batch: 1,
        ..ServeConfig::default()
    };
    let (server, addr) = start(path_a, cfg);
    let mut c = Client::connect(&addr).unwrap();
    let (t0, g0) = probe_pair.clone();
    let (exp_a, exp_b) = expected[probe_pair].clone();

    // Serving A.
    let first = c.generate(&t0, &g0, None).unwrap();
    assert_eq!(result_render(&first), exp_a);

    // Swap A→B: acknowledged with metadata, drained, cache cleared.
    let swap = c.swap(&path_b.display().to_string()).unwrap();
    assert!(bool_field(&swap, "swapped"), "{}", swap.render());
    assert!(bool_field(&swap, "digest_changed"));
    assert!(bool_field(&swap, "cache_cleared"));
    assert!(bool_field(&swap, "drained"));
    assert_eq!(
        swap.field("format").unwrap().as_str().unwrap(),
        "vega-ckpt/v2"
    );

    // Serving B now; the A-keyed cache entry is gone (fresh generation).
    let after = c.generate(&t0, &g0, None).unwrap();
    assert_eq!(after.field("cached").unwrap(), &Json::Bool(false));
    assert_eq!(
        result_render(&after),
        exp_b,
        "post-swap response must be byte-identical to direct generation on B"
    );

    // Re-swapping the *same* checkpoint: digest unchanged, cache kept — the
    // next request is a byte-identical cache hit.
    let same = c.swap(&path_b.display().to_string()).unwrap();
    assert!(bool_field(&same, "swapped"));
    assert!(!bool_field(&same, "digest_changed"));
    assert!(!bool_field(&same, "cache_cleared"));
    let hit = c.generate(&t0, &g0, None).unwrap();
    assert_eq!(hit.field("cached").unwrap(), &Json::Bool(true));
    assert_eq!(result_render(&hit), exp_b);

    // A swap to a missing file fails by name and changes nothing.
    let missing = c.swap("/nonexistent/model.ckpt").unwrap();
    assert_eq!(error_code(&missing), "swap_failed");
    assert!(missing
        .field("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("/nonexistent/model.ckpt"));

    // Chaos: an injected `serve.swap` fault aborts the swap before any state
    // change; the old model keeps serving byte-identically.
    vega_fault::set_plan(Some(
        FaultPlan::parse(&format!("{}=@0", vega_fault::sites::SERVE_SWAP)).unwrap(),
    ));
    let chaos = c.swap(&path_a.display().to_string()).unwrap();
    vega_fault::set_plan(None);
    assert_eq!(error_code(&chaos), "swap_failed");
    assert!(chaos
        .field("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains(vega_fault::sites::SERVE_SWAP));
    assert!(
        vega_obs::global().counter(&format!("fault.injected.{}", vega_fault::sites::SERVE_SWAP))
            >= 1
    );
    let still_b = c.generate(&t0, &g0, None).unwrap();
    assert_eq!(result_render(&still_b), exp_b);

    server.shutdown();
    let stats = server.join_with_stats();
    assert_eq!(stats.generated, 2, "A once, B once; the rest were hits");
}

/// Pool size 4: clients hammer the server while a chaos-failed then a real
/// swap land mid-stream. Three synced workers prove every pre-swap response
/// is model A and every post-swap response is model B; a free-running
/// streamer overlaps the swap itself and proves no response is ever a
/// mixture. Every request is answered.
fn swap_under_concurrent_load(
    path_a: &Path,
    path_b: &Path,
    probe_pair: &(String, String),
    pairs: &[(String, String)],
    expected: &BTreeMap<(String, String), (String, String)>,
) {
    vega_par::set_threads(4);
    let cfg = ServeConfig {
        cache_cap: 0, // every response is a fresh generation on live weights
        batch: 4,
        slow_ms: 20,
        ..ServeConfig::default()
    };
    let (server, addr) = start(path_a, cfg);

    // Barriers gate 3 synced workers + the main thread: phase 1 requests all
    // complete before the swap starts, phase 2 requests all start after it
    // succeeds.
    let before_swap = std::sync::Arc::new(std::sync::Barrier::new(4));
    let after_swap = std::sync::Arc::new(std::sync::Barrier::new(4));
    let synced: Vec<_> = (0..3)
        .map(|w| {
            let addr = addr.clone();
            let pairs = pairs.to_vec();
            let expected = expected.clone();
            let before_swap = std::sync::Arc::clone(&before_swap);
            let after_swap = std::sync::Arc::clone(&after_swap);
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                let mut answered = 0usize;
                for i in 0..4 {
                    let (t, g) = &pairs[(w * 3 + i) % pairs.len()];
                    let resp = c.generate(t, g, Some(60_000)).unwrap();
                    assert_eq!(
                        result_render(&resp),
                        expected[&(t.clone(), g.clone())].0,
                        "pre-swap response for {t}/{g} must be model A"
                    );
                    answered += 1;
                }
                before_swap.wait();
                after_swap.wait();
                for i in 0..4 {
                    let (t, g) = &pairs[(w * 5 + i) % pairs.len()];
                    let resp = c.generate(t, g, Some(60_000)).unwrap();
                    assert_eq!(
                        result_render(&resp),
                        expected[&(t.clone(), g.clone())].1,
                        "post-swap response for {t}/{g} must be model B"
                    );
                    answered += 1;
                }
                answered
            })
        })
        .collect();

    // The streamer free-runs across the swap window: each response must be
    // byte-identical to model A or model B for its pair — never a blend of
    // fresh weights with a stale engine or cache entry.
    let streamer = {
        let addr = addr.clone();
        let pairs = pairs.to_vec();
        let expected = expected.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            let mut answered = 0usize;
            for i in 0..12 {
                let (t, g) = &pairs[i % pairs.len()];
                let resp = c.generate(t, g, Some(60_000)).unwrap();
                let body = result_render(&resp);
                let (exp_a, exp_b) = &expected[&(t.clone(), g.clone())];
                assert!(
                    &body == exp_a || &body == exp_b,
                    "response for {t}/{g} matches neither model A nor model B"
                );
                answered += 1;
            }
            answered
        })
    };

    // The swap window: first a chaos-injected swap that must fail harmlessly
    // (streamer traffic may be in flight), then the real swap.
    before_swap.wait();
    let mut c = Client::connect(&addr).unwrap();
    vega_fault::set_plan(Some(
        FaultPlan::parse(&format!("{}=@0", vega_fault::sites::SERVE_SWAP)).unwrap(),
    ));
    let chaos = c.swap(&path_b.display().to_string()).unwrap();
    vega_fault::set_plan(None);
    assert_eq!(error_code(&chaos), "swap_failed");
    let swap = c.swap(&path_b.display().to_string()).unwrap();
    assert!(bool_field(&swap, "swapped"), "{}", swap.render());
    assert!(
        bool_field(&swap, "drained"),
        "in-flight work on model A must drain"
    );
    after_swap.wait();

    let mut answered = 0usize;
    for w in synced {
        answered += w.join().expect("synced worker (no lost requests)");
    }
    answered += streamer.join().expect("streamer (no lost requests)");
    assert_eq!(answered, 3 * 8 + 12, "all requests answered");

    // After the dust settles, a fresh request is pure model B.
    let (t0, g0) = probe_pair.clone();
    let settle = c.generate(&t0, &g0, None).unwrap();
    assert_eq!(result_render(&settle), expected[probe_pair].1);

    server.shutdown();
    server.join_with_stats();
    std::fs::remove_dir_all(std::env::temp_dir().join("vega-serve-swap-e2e")).ok();
}
