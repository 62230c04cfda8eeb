//! Stage-3 generation time (paper Fig. 7) and the slot ranking inside it.
//!
//! Setup: the tiny pipeline (`VegaConfig::tiny()`), trained once, on one
//! compute thread. Two measurements, interleaved round-robin with per-path
//! minima so a steal burst cannot land on one side (round 0 is warm-up):
//!
//! * **generate_backend** — one whole backend per Fig. 7 target (RISC-V,
//!   RI5CY, xCORE), with the `generate.slot_rankings` counter's delta per
//!   backend;
//! * **ranking** — every slot ranking of one RISC-V backend, replayed
//!   through `rank_by_name` (each candidate keyed once) and through a copy
//!   of the comparator sort it replaced, which re-derives both sides'
//!   `(similarity, unused)` keys on every comparison. The replay ranks each
//!   (preorder node, slot) pair whose slot has a property with a value
//!   source, as generation does (its count is asserted equal to the
//!   counter's RISC-V delta), over the slot's full candidate list; each
//!   property's `used` set accumulates the best-ranked value of its earlier
//!   slots in the function, standing in for the model's choices. The two
//!   orders are asserted equal before timing.
//!
//! Writes `BENCH_generate.json` (override with `VEGA_BENCH_OUT`;
//! `VEGA_GENERATE_BENCH_FAST=1` shrinks the round count for the CI smoke
//! run). Prints `generate: smoke=ok` only if the ranking floor holds.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;
use vega::{
    rank_by_name, slot_candidates, slot_value_string, NameRefs, TgtIndex, Vega, VegaConfig,
};
use vega_corpus::EVAL_TARGET_NAMES;
use vega_obs::json::Json;

/// Floor for keying each candidate once against the comparator sort, over
/// one RISC-V backend's rankings (measured ~16x). Falling toward 1x means
/// ranking went back to re-splitting every training value per comparison.
const RANKING_SPEEDUP_FLOOR: f64 = 4.0;

/// Candidates kept per slot, as generation keeps them.
const CAP: usize = 8;

/// One slot ranking's inputs.
struct Ranking {
    candidates: Vec<String>,
    train_values: Vec<String>,
    used: Option<HashSet<String>>,
}

/// The comparator sort `rank_by_name` replaced: both keys are recomputed,
/// splitting every training value again, on every comparison.
fn comparator_rank(
    mut candidates: Vec<String>,
    train_values: &[String],
    used: Option<&HashSet<String>>,
    cap: usize,
) -> Vec<String> {
    let similarity = |c: &str| NameRefs::new(train_values).similarity(c);
    candidates.sort_by(|a, b| {
        let ka = (
            similarity(a),
            u8::from(!used.is_some_and(|u| u.contains(a))),
        );
        let kb = (
            similarity(b),
            u8::from(!used.is_some_and(|u| u.contains(b))),
        );
        kb.partial_cmp(&ka).unwrap()
    });
    candidates.truncate(cap);
    candidates
}

/// Every slot ranking one backend for `target` performs, in generation
/// order.
fn backend_rankings(vega: &Vega, target: &str) -> Vec<Ranking> {
    let ix = TgtIndex::build(vega.corpus.tgt_fs(target).expect("target descriptions"));
    let mut out = Vec::new();
    for bundle in vega.templates.values() {
        let (template, feats) = (&bundle.template, &bundle.features);
        let mut used: BTreeMap<usize, HashSet<String>> = BTreeMap::new();
        for node_id in template.preorder() {
            let mut chosen = Vec::new();
            for (slot_id, slot) in template.stmts[node_id].slots.iter().enumerate() {
                let Some(&prop) = feats.slot_props.get(&(node_id, slot_id)) else {
                    continue;
                };
                let Some(source) = feats.props[prop].source.as_ref() else {
                    continue;
                };
                let ranking = Ranking {
                    candidates: slot_candidates(source, &ix),
                    train_values: slot
                        .values
                        .values()
                        .map(|v| slot_value_string(v))
                        .filter(|s| !s.is_empty())
                        .collect(),
                    used: used.get(&prop).cloned(),
                };
                let best = rank_by_name(
                    ranking.candidates.clone(),
                    &ranking.train_values,
                    ranking.used.as_ref(),
                    1,
                );
                chosen.extend(best.into_iter().map(|v| (prop, v)));
                out.push(ranking);
            }
            for (prop, v) in chosen {
                used.entry(prop).or_default().insert(v);
            }
        }
    }
    out
}

fn main() {
    let fast_mode = std::env::var("VEGA_GENERATE_BENCH_FAST").is_ok();
    let rounds = if fast_mode { 2 } else { 5 };

    vega_par::set_threads(1);
    let vega = Vega::train(VegaConfig::tiny());
    println!("== generate (tiny pipeline, 1 compute thread, {rounds} rounds) ==");

    let rankings = backend_rankings(&vega, "RISCV");
    let candidates: usize = rankings.iter().map(|r| r.candidates.len()).sum();
    let keyed_once = |rs: &[Ranking]| -> Vec<Vec<String>> {
        rs.iter()
            .map(|r| rank_by_name(r.candidates.clone(), &r.train_values, r.used.as_ref(), CAP))
            .collect()
    };
    let comparator = |rs: &[Ranking]| -> Vec<Vec<String>> {
        rs.iter()
            .map(|r| comparator_rank(r.candidates.clone(), &r.train_values, r.used.as_ref(), CAP))
            .collect()
    };
    assert!(
        keyed_once(&rankings) == comparator(&rankings),
        "rank_by_name diverged from the comparator sort"
    );

    let counter = || vega_obs::global().counter("generate.slot_rankings");
    let mut backend_secs = [f64::INFINITY; EVAL_TARGET_NAMES.len()];
    let mut backend_rankings_n = [0u64; EVAL_TARGET_NAMES.len()];
    let (mut keyed_secs, mut comparator_secs) = (f64::INFINITY, f64::INFINITY);
    for round in 0..rounds + 1 {
        for (i, target) in EVAL_TARGET_NAMES.iter().enumerate() {
            let before = counter();
            let t0 = Instant::now();
            std::hint::black_box(vega.generate_backend(target));
            let secs = t0.elapsed().as_secs_f64();
            backend_rankings_n[i] = counter() - before;
            if round > 0 {
                backend_secs[i] = backend_secs[i].min(secs);
            }
        }
        let t0 = Instant::now();
        std::hint::black_box(keyed_once(&rankings));
        let k = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        std::hint::black_box(comparator(&rankings));
        let c = t0.elapsed().as_secs_f64();
        if round > 0 {
            keyed_secs = keyed_secs.min(k);
            comparator_secs = comparator_secs.min(c);
        }
    }
    vega_par::set_threads(0);
    assert_eq!(
        backend_rankings_n[0],
        rankings.len() as u64,
        "the replay does not rank what RISC-V generation ranks"
    );
    for ((target, secs), n) in EVAL_TARGET_NAMES
        .iter()
        .zip(&backend_secs)
        .zip(&backend_rankings_n)
    {
        println!(
            "generate_backend {target:<6} {:>7.1} ms ({n} slot rankings)",
            secs * 1e3
        );
    }
    let ranking_speedup = comparator_secs / keyed_secs;
    println!(
        "ranking (RISCV, {} rankings, {candidates} candidates): keyed once {:>7.2} ms | \
         comparator {:>7.2} ms | speedup {ranking_speedup:.2}x",
        rankings.len(),
        keyed_secs * 1e3,
        comparator_secs * 1e3,
    );

    let out_path =
        std::env::var("VEGA_BENCH_OUT").unwrap_or_else(|_| "BENCH_generate.json".to_string());
    let doc = Json::obj([
        ("bench", Json::str("generate")),
        ("pipeline", Json::str("VegaConfig::tiny()")),
        ("compute_threads", Json::num_usize(1)),
        ("rounds", Json::num_usize(rounds)),
        (
            "generate_backend",
            Json::Arr(
                EVAL_TARGET_NAMES
                    .iter()
                    .zip(&backend_secs)
                    .zip(&backend_rankings_n)
                    .map(|((target, &secs), &n)| {
                        Json::obj([
                            ("target", Json::str(*target)),
                            ("seconds", Json::num_f64(secs)),
                            ("slot_rankings", Json::num_u64(n)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "ranking",
            Json::obj([
                ("target", Json::str("RISCV")),
                ("rankings", Json::num_usize(rankings.len())),
                ("candidates", Json::num_usize(candidates)),
                ("cap", Json::num_usize(CAP)),
                ("rank_by_name_seconds", Json::num_f64(keyed_secs)),
                ("comparator_seconds", Json::num_f64(comparator_secs)),
            ]),
        ),
        ("ranking_speedup", Json::num_f64(ranking_speedup)),
        (
            "ranking_speedup_floor",
            Json::num_f64(RANKING_SPEEDUP_FLOOR),
        ),
    ]);
    std::fs::write(&out_path, doc.render()).expect("write bench json");
    println!("wrote {out_path} (ranking speedup {ranking_speedup:.2}x)");
    if ranking_speedup >= RANKING_SPEEDUP_FLOOR {
        println!("generate: smoke=ok");
    } else {
        println!(
            "generate: smoke=FAIL (rank_by_name under {RANKING_SPEEDUP_FLOOR}x the comparator \
             sort)"
        );
        std::process::exit(1);
    }
}
