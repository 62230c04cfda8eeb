//! Checkpoint costs: `vega-ckpt/v2` save and load, and replica spawn
//! (`CodeBe::clone`, what `vega-serve` pays per pool worker) for a model
//! that owns its weights against one mapped from a v2 file.
//!
//! An owned replica deep-copies every weight; a mapped replica bumps an
//! `Arc` on the shared mapping and copies only descriptors, so spawning is
//! O(header) regardless of model size. This bench pins that contract: the
//! run fails unless the mapped spawn is at least [`SPAWN_SPEEDUP_FLOOR`]×
//! faster than the owned one and the mapped model re-encodes to the owned
//! model's bytes. Writes a machine-readable baseline to `BENCH_ckpt.json`
//! (override with `VEGA_BENCH_OUT`; `VEGA_CKPT_BENCH_FAST=1` shrinks
//! iteration counts for the CI smoke run). Prints `ckpt: smoke=ok` on
//! success.

use std::time::Instant;
use vega_model::{encode_v2, CodeBe, Vocab};
use vega_nn::TransformerConfig;
use vega_obs::json::Json;

/// Smoke floor for mapped-vs-owned replica spawn.
const SPAWN_SPEEDUP_FLOOR: f64 = 10.0;

/// Median ns/iteration over `samples` timed batches of `iters` calls each
/// (after one warm-up batch).
fn median_ns_per_iter(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let batch = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed().as_secs_f64() * 1e9 / iters as f64
    };
    batch(&mut f);
    let mut times: Vec<f64> = (0..samples).map(|_| batch(&mut f)).collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

fn main() {
    let fast_mode = std::env::var("VEGA_CKPT_BENCH_FAST").is_ok();
    let samples = if fast_mode { 3 } else { 7 };
    let scale = if fast_mode { 1 } else { 5 };

    // A mid-sized transformer (~1.3M parameters) over a synthetic vocabulary:
    // big enough that deep-copying weights visibly costs, small enough that
    // the bench stays a smoke test.
    let pieces: Vec<String> = (0..512).map(|i| format!("tok{i:03}")).collect();
    let vocab = Vocab::build(pieces.iter().map(String::as_str));
    let owned = CodeBe::transformer(vocab, |v| TransformerConfig {
        vocab: v,
        d_model: 128,
        n_heads: 4,
        d_ff: 256,
        n_enc_layers: 2,
        n_dec_layers: 2,
        max_len: 96,
        seed: 0xC0DE,
    });

    let dir = std::env::temp_dir().join("vega-bench-ckpt");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.ckpt");

    let mut rows = Vec::new();
    let mut push = |op: &str, ns: f64| {
        println!("{op:<22} {:>10.1} µs/call", ns / 1e3);
        rows.push(Json::obj([
            ("op", Json::str(op)),
            ("ns_per_call", Json::num_f64(ns)),
        ]));
    };

    println!("== checkpoint (median of {samples} batches) ==");
    let save_ns = median_ns_per_iter(samples, 2 * scale, || {
        owned.save_file_v2(&path).expect("v2 save");
    });
    push("save/v2", save_ns);
    let load_ns = median_ns_per_iter(samples, 2 * scale, || {
        let _ = std::hint::black_box(CodeBe::load_file(&path).expect("v2 load"));
    });
    push("load/v2", load_ns);

    // Replica spawn: what the serve pool pays per worker. The freshly built
    // model owns its weights (clone deep-copies); the loaded one borrows the
    // mapping (clone bumps the Arc and copies descriptors).
    let mapped = CodeBe::load_file(&path).expect("v2 load");
    let bit_identical = encode_v2(&owned) == encode_v2(&mapped);
    let spawn_owned_ns = median_ns_per_iter(samples, 20 * scale, || {
        let _ = std::hint::black_box(owned.clone());
    });
    push("replica_spawn/owned", spawn_owned_ns);
    let spawn_mapped_ns = median_ns_per_iter(samples, 2000 * scale, || {
        let _ = std::hint::black_box(mapped.clone());
    });
    push("replica_spawn/mapped", spawn_mapped_ns);
    let speedup = spawn_owned_ns / spawn_mapped_ns;

    let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "file size {file_bytes} B; replica spawn speedup {speedup:.1}x \
         (mapped scalars owned: {})",
        mapped.owned_scalars()
    );

    let out_path =
        std::env::var("VEGA_BENCH_OUT").unwrap_or_else(|_| "BENCH_ckpt.json".to_string());
    let doc = Json::obj([
        ("bench", Json::str("ckpt")),
        ("samples_per_point", Json::num_usize(samples)),
        ("file_bytes_v2", Json::num_u64(file_bytes)),
        ("replica_spawn_speedup", Json::num_f64(speedup)),
        ("speedup_min", Json::num_f64(SPAWN_SPEEDUP_FLOOR)),
        ("bit_identical", Json::Bool(bit_identical)),
        ("results", Json::Arr(rows)),
    ]);
    std::fs::write(&out_path, doc.render()).expect("write bench json");
    println!("wrote {out_path} (spawn speedup {speedup:.1}x, floor {SPAWN_SPEEDUP_FLOOR:.0}x)");
    std::fs::remove_dir_all(&dir).ok();

    if !bit_identical {
        println!("ckpt: smoke=FAIL (the mapped model re-encodes to different bytes)");
        std::process::exit(1);
    }
    if speedup < SPAWN_SPEEDUP_FLOOR {
        println!(
            "ckpt: smoke=FAIL (mapped replica spawn only {speedup:.1}x faster than owned, \
             floor {SPAWN_SPEEDUP_FLOOR:.0}x)"
        );
        std::process::exit(1);
    }
    println!("ckpt: smoke=ok");
}
