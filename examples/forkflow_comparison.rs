//! Compare VEGA against the traditional fork-flow approach on one target
//! (the paper's §4.2 "Comparing with ForkFlow").
//!
//! ```sh
//! cargo run --release --example forkflow_comparison [TARGET]
//! ```

use vega::{Vega, VegaConfig};
use vega_eval::{eval_generated_backend, eval_plain_backend};
use vega_forkflow::forkflow_backend;

fn main() {
    let target = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "RI5CY".to_string());
    let mut cfg = VegaConfig::tiny();
    cfg.train.finetune_epochs = 4;
    println!("training VEGA (tiny) and forking from MIPS for {target} …\n");
    let vega = Vega::train(cfg);

    let gen = vega.generate_backend(&target);
    let vega_eval = eval_generated_backend(&vega.corpus, &gen);
    let forked = forkflow_backend(&vega.corpus, "Mips", &target);
    let fork_eval = eval_plain_backend(&vega.corpus, &forked, &target);

    println!(
        "{target}: VEGA pass@1 {:.1}%  vs  ForkFlow pass@1 {:.1}%",
        100.0 * vega_eval.function_accuracy(),
        100.0 * fork_eval.function_accuracy()
    );
    println!(
        "{target}: VEGA stmt accuracy {:.1}%  vs  ForkFlow {:.1}%\n",
        100.0 * vega_eval.stmt_accuracy(),
        100.0 * fork_eval.stmt_accuracy()
    );

    // Show what the fork got wrong on the motivating example.
    let reference = vega.corpus.target(&target).unwrap();
    if let (Some(ff), Some(rf)) = (
        forked.function("getRelocType"),
        reference.backend.function("getRelocType"),
    ) {
        let outcome = vega_minicc::regression_test("getRelocType", ff, rf, &reference.spec);
        println!("ForkFlow getRelocType regression: {outcome:?}");
        println!(
            "\nForkFlow's forked getRelocType:\n{}",
            vega_cpplite::render_function(ff)
        );
    }
}
