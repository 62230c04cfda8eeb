//! Developer diagnostics: train briefly, then dump verification exact-match,
//! training-sample shapes, and the raw generation transcript for one group.

use vega::{Scale, Vega, VegaConfig};
use vega_model::TrainConfig;

fn main() {
    let group = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "getRelocType".into());
    let epochs: usize = std::env::var("EPOCHS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let pretrain: usize = std::env::var("PRETRAIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let synthetic: usize = std::env::var("SYN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let mut cfg = VegaConfig {
        scale: Scale::Small,
        ..VegaConfig::tiny()
    };
    cfg.corpus.synthetic_targets = synthetic;
    cfg.train = TrainConfig {
        pretrain_steps: pretrain,
        finetune_epochs: epochs,
        lr: 2e-3,
        seed: 1,
    };

    let vega = Vega::train(cfg);
    vega_obs::info!(
        "templates={} train={} verify={} stage2={:.0}s",
        vega.templates.len(),
        vega.train_samples.len(),
        vega.verify_samples.len(),
        vega.timings.model_creation.as_secs_f64()
    );

    // Sample shapes.
    let mut in_len = 0usize;
    let mut out_len = 0usize;
    for s in &vega.train_samples {
        in_len = in_len.max(s.input.len());
        out_len = out_len.max(s.output.len());
    }
    vega_obs::info!("max input len {in_len}, max output len {out_len}");

    // Verification exact match on a subsample.
    let sub: Vec<(Vec<usize>, Vec<usize>)> = vega
        .verify_samples
        .iter()
        .take(120)
        .map(|s| (s.input.clone(), s.output.clone()))
        .collect();
    let em = vega.model().exact_match(&sub, 72);
    vega_obs::info!(
        "verification exact match (first {} samples): {:.1}%",
        sub.len(),
        100.0 * em
    );

    // A couple of verify samples: expected vs generated.
    let vocab = &vega.model().vocab;
    for s in vega.verify_samples.iter().take(6) {
        let gen = vega.model().generate(&s.input, 72);
        vega_obs::debug!(
            "[{}::{}::{}]\n  expect: {:?} {}\n  gen:    {:?} {}",
            s.group,
            s.target,
            s.node,
            s.output.first().and_then(|&i| vocab.score_of(i)),
            vocab.decode_spellings(&s.output).join(" "),
            gen.first().and_then(|&i| vocab.score_of(i)),
            vocab.decode_spellings(&gen).join(" "),
        );
    }

    // Full generation transcript for one group on RISC-V.
    let backend = vega.generate_backend("RISCV");
    let Some(gf) = backend.function(&group) else {
        vega_obs::error!(
            "unknown function group `{group}`; available groups: {}",
            backend
                .functions
                .iter()
                .map(|(_, f)| f.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    };
    println!(
        "\n=== generated {group} (confidence {:.2}) ===",
        gf.confidence
    );
    for s in &gf.stmts {
        println!(
            "[{:.2}]{} {}",
            s.score,
            if s.kept { ' ' } else { 'x' },
            s.line
        );
    }
    // Whole-backend verdicts with first counterexamples.
    let reference = match vega.corpus.try_target("RISCV") {
        Ok(t) => t,
        Err(e) => {
            vega_obs::error!("{e}");
            std::process::exit(2);
        }
    };
    println!("\n=== per-function verdicts (RISCV) ===");
    for (module, gf) in &backend.functions {
        let Some(rf) = reference.backend.function(&gf.name) else {
            continue;
        };
        let verdict = match &gf.function {
            Some(f) => match vega_minicc::regression_test(&gf.name, f, rf, &reference.spec) {
                vega_minicc::RegressionOutcome::Pass => "PASS".to_string(),
                vega_minicc::RegressionOutcome::Fail {
                    vector,
                    expected,
                    got,
                } => {
                    format!("fail v{vector}: want {expected} got {got}")
                }
                vega_minicc::RegressionOutcome::NoSuite => "nosuite".to_string(),
            },
            None => "NOT ASSEMBLED".to_string(),
        };
        println!("  {module} {:<26} {verdict}", gf.name);
    }
    let rf = reference.backend.function(&group).expect("reference");
    println!("\n=== reference ===\n{}", vega_cpplite::render_function(rf));
    if let Some(f) = &gf.function {
        println!("=== assembled ===\n{}", vega_cpplite::render_function(f));
        let out = vega_minicc::regression_test(&group, f, rf, &reference.spec);
        println!("regression: {out:?}");
    } else {
        println!("=== did not assemble ===");
    }
}
