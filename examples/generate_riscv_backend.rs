//! Generate a complete RISC-V backend and evaluate it with pass@1 regression
//! tests — the paper's core experiment, end to end.
//!
//! ```sh
//! # quick (tiny model):
//! cargo run --release --example generate_riscv_backend
//! # experiment scale (minutes):
//! VEGA_SCALE=small cargo run --release --example generate_riscv_backend
//! ```

use vega::{Scale, Vega, VegaConfig};
use vega_eval::eval_generated_backend;

fn main() {
    let mut cfg = if std::env::var("VEGA_SCALE").as_deref() == Ok("small") {
        VegaConfig::default()
    } else {
        let mut c = VegaConfig::tiny();
        c.train.finetune_epochs = 4;
        c.scale = Scale::Tiny;
        c
    };
    cfg.seed = std::env::var("VEGA_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);

    println!("training …");
    let vega = Vega::train(cfg);
    println!("generating the RISC-V backend …");
    let backend = vega.generate_backend("RISCV");
    let eval = eval_generated_backend(&vega.corpus, &backend);

    println!(
        "\npass@1 function accuracy: {:.1}% ({} / {})",
        100.0 * eval.function_accuracy(),
        eval.functions.iter().filter(|f| f.accurate).count(),
        eval.functions.len()
    );
    println!("\nper module:");
    for (module, (acc, total)) in eval.module_accuracy() {
        println!("  {module}: {acc}/{total}");
    }
    println!("\nper function (pass@1, confidence):");
    for f in &eval.functions {
        println!(
            "  {:<28} {}  confidence {:.2}{}",
            f.name,
            if f.accurate { "PASS" } else { "fail" },
            f.confidence,
            if f.multi_source {
                "  [multi-target]"
            } else {
                ""
            }
        );
    }
}
