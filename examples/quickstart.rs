//! Quickstart: train a tiny VEGA and generate the motivating example —
//! a RISC-V `getRelocType` — from RISC-V's description files alone.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use vega::{Vega, VegaConfig};

fn main() {
    // Stage 1 + 2: build the miniature backend corpus, fold function groups
    // into templates, select features, train CodeBE. The tiny configuration
    // trades accuracy for speed; see `generate_riscv_backend` for the full
    // experiment scale.
    let mut cfg = VegaConfig::tiny();
    cfg.train.finetune_epochs = 3;
    println!("training VEGA (tiny configuration) …");
    let vega = Vega::train(cfg);
    println!(
        "  {} function templates, {} training samples, stage 2 in {:.1}s\n",
        vega.templates.len(),
        vega.train_samples.len(),
        vega.timings.model_creation.as_secs_f64()
    );

    // Stage 3: generate the whole RISC-V backend from its .td/.h/.def files.
    let backend = vega.generate_backend("RISCV");
    println!(
        "generated {} functions for RISC-V in {:.1}s\n",
        backend.functions.len(),
        backend.total_time.as_secs_f64()
    );

    // Show the paper's running example with its statement confidence scores.
    let f = backend
        .function("getRelocType")
        .expect("getRelocType generated");
    println!("getRelocType — function confidence {:.2}", f.confidence);
    for s in &f.stmts {
        let mark = if s.kept { ' ' } else { 'x' };
        println!("  [{:.2}]{mark} {}", s.score, s.line);
    }
    if let Some(func) = &f.function {
        println!(
            "\nassembled function:\n{}",
            vega_cpplite::render_function(func)
        );
    } else {
        println!("\n(function did not assemble under the tiny model)");
    }

    // Everything above was recorded by vega-obs: the span tree covers corpus
    // construction and all three pipeline stages, plus counters, the
    // confidence histogram, and the fine-tune loss curve.
    println!("\n{}", vega_obs::global().text_report());
}
