//! The developer-productivity story: use VEGA's confidence scores to direct
//! manual review to the code most likely to be wrong (paper §4.2, "Manual
//! Effort Required for VEGA").
//!
//! ```sh
//! cargo run --release --example confidence_review
//! ```

use vega::{Vega, VegaConfig};
use vega_eval::eval_generated_backend;

fn main() {
    let mut cfg = VegaConfig::tiny();
    cfg.train.finetune_epochs = 4;
    println!("training (tiny) and generating the RI5CY backend …\n");
    let vega = Vega::train(cfg);
    let backend = vega.generate_backend("RI5CY");
    let eval = eval_generated_backend(&vega.corpus, &backend);

    // Rank functions by confidence, lowest first — the review queue.
    let mut queue: Vec<_> = eval.functions.iter().collect();
    queue.sort_by(|a, b| a.confidence.partial_cmp(&b.confidence).unwrap());

    println!("review queue (lowest confidence first):");
    println!(
        "{:<28} {:>10} {:>8}   verdict",
        "function", "confidence", "module"
    );
    for f in queue.iter().take(12) {
        println!(
            "{:<28} {:>10.2} {:>8}   {}",
            f.name,
            f.confidence,
            f.module.code(),
            if f.accurate {
                "actually fine"
            } else {
                "needs work"
            }
        );
    }

    // How well does confidence predict correctness?
    let bins = [(0.0, 0.5), (0.5, 0.9), (0.9, 1.01)];
    println!("\ncalibration:");
    for (lo, hi) in bins {
        let in_bin: Vec<_> = eval
            .functions
            .iter()
            .filter(|f| f.confidence >= lo && f.confidence < hi)
            .collect();
        if in_bin.is_empty() {
            continue;
        }
        let acc = in_bin.iter().filter(|f| f.accurate).count();
        println!(
            "  confidence [{lo:.1}, {hi:.1}): {acc}/{} accurate",
            in_bin.len()
        );
    }

    // Statement-level: the lowest-scored kept statements of one function.
    if let Some(f) = backend.function("getRelocType") {
        let mut stmts: Vec<_> = f.stmts.iter().filter(|s| s.kept).collect();
        stmts.sort_by(|a, b| a.score.partial_cmp(&b.score).unwrap());
        println!("\nlowest-confidence kept statements of getRelocType:");
        for s in stmts.iter().take(5) {
            println!("  [{:.2}] {}", s.score, s.line);
        }
    }
}
