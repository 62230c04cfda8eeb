//! End-to-end integration: corpus → templates → features → model →
//! generation → pass@1 evaluation → corrected compiler, across crates.

use std::fmt::Write as _;
use vega::{Vega, VegaConfig};
use vega_corpus::EVAL_TARGET_NAMES;
use vega_eval::{corrected_backend, eval_generated_backend};
use vega_minicc::{benchmark_suite, regression_test, run_kernel, BackendVm, OptLevel};
use vega_serve::hash::digest_str;
use vega_serve::protocol::render_generated;

fn tiny_vega() -> Vega {
    let mut cfg = VegaConfig::tiny();
    cfg.train.finetune_epochs = 2;
    Vega::train(cfg)
}

#[test]
fn full_pipeline_produces_consistent_artifacts() {
    let mut vega = tiny_vega();
    let gen = vega.generate_backend("RISCV");
    let eval = eval_generated_backend(&vega.corpus, &gen);

    // Every evaluated function came from a real template and is scored.
    assert!(!eval.functions.is_empty());
    for f in &eval.functions {
        assert!(
            (0.0..=1.0).contains(&f.confidence),
            "{}: {}",
            f.name,
            f.confidence
        );
        assert!(f.stmt_accurate + f.stmt_manual > 0 || f.stmt_total == 0);
        if f.accurate {
            assert!(f.generated, "{} accurate but not generated", f.name);
            assert_eq!(f.stmt_manual, 0);
            assert_eq!(f.stmt_accurate, f.stmt_total);
        }
    }

    // Generated statement records are per template node and score-bounded.
    for (_, gf) in &gen.functions {
        assert!(!gf.stmts.is_empty());
        for s in &gf.stmts {
            assert!((0.0..=1.0).contains(&s.score));
        }
        // Every assembled function round-trips through the pretty-printer.
        if let Some(f) = &gf.function {
            let text = vega_cpplite::render_function(f);
            let reparsed = vega_cpplite::parse_function(&text).expect("round trip");
            assert_eq!(&reparsed, f);
        }
    }
}

#[test]
fn corrected_compiler_is_robust_and_performs_like_base() {
    let mut vega = tiny_vega();
    let gen = vega.generate_backend("RI5CY");
    let eval = eval_generated_backend(&vega.corpus, &gen);
    let corrected = corrected_backend(&vega.corpus, &eval, &gen);
    let t = vega.corpus.target("RI5CY").unwrap();

    // §4.3 robustness: every interface function passes regression.
    for (name, _, reference) in t.backend.iter() {
        let f = corrected.function(name).expect("function present");
        assert!(
            regression_test(name, f, reference, &t.spec).passed(),
            "corrected {name} fails regression"
        );
    }

    // §4.3 performance: identical cycle counts to the base compiler.
    let base_vm = BackendVm::new(&t.spec, &t.backend);
    let fixed_vm = BackendVm::new(&t.spec, &corrected);
    for kernel in benchmark_suite() {
        for level in [OptLevel::O0, OptLevel::O3] {
            let a = run_kernel(&kernel, &base_vm, level).unwrap();
            let b = run_kernel(&kernel, &fixed_vm, level).unwrap();
            assert_eq!(a.result, b.result, "{}", kernel.name);
            assert!((a.cycles - b.cycles).abs() < 1e-9, "{}", kernel.name);
        }
    }
}

#[test]
fn generation_uses_only_description_files() {
    // Generating from the description FS alone (no corpus access by name)
    // must give the same backend as the by-name entry point.
    let mut vega = tiny_vega();
    let desc = vega.corpus.tgt_fs("XCore").unwrap().clone();
    let a = vega.generate_backend("XCore");
    let b = vega.generate_backend_from("XCore", &desc);
    assert_eq!(a.functions.len(), b.functions.len());
    for ((_, fa), (_, fb)) in a.functions.iter().zip(&b.functions) {
        assert_eq!(fa.name, fb.name);
        assert_eq!(fa.confidence, fb.confidence);
        for (sa, sb) in fa.stmts.iter().zip(&fb.stmts) {
            assert_eq!(sa.line, sb.line, "{}", fa.name);
            assert_eq!(sa.score, sb.score);
        }
    }
}

#[test]
fn pipeline_is_bit_identical_across_thread_counts() {
    // The full pipeline — corpus build, template folding, fine-tuning,
    // generation — must produce byte-identical artifacts whether vega-par
    // runs one worker or four.
    let run = |threads: usize| -> (Vec<u8>, Vec<String>, Vec<u64>) {
        vega_par::set_threads(threads);
        let mut cfg = VegaConfig::tiny();
        cfg.train.finetune_epochs = 1;
        let mut vega = Vega::train(cfg);
        let gen = vega.generate_backend("RISCV");
        let model_bytes = vega_model::encode_v2(vega.model());
        let mut lines = Vec::new();
        let mut confs = Vec::new();
        for (_, f) in &gen.functions {
            confs.push(f.confidence.to_bits());
            for s in &f.stmts {
                lines.push(format!("{}|{}|{}|{}", f.name, s.node, s.score, s.line));
            }
            if let Some(func) = &f.function {
                lines.push(vega_cpplite::render_function(func));
            }
        }
        (model_bytes, lines, confs)
    };
    let one = run(1);
    let four = run(4);
    vega_par::set_threads(0);
    assert_eq!(one.2, four.2, "confidences differ across thread counts");
    assert_eq!(
        one.1, four.1,
        "generated backends differ across thread counts"
    );
    assert!(
        one.0 == four.0,
        "encoded model bytes differ across thread counts"
    );
}

/// Every generated function of the three Fig. 7 targets, one line each:
/// target, module, name, confidence, kept/total statements, and a digest over
/// the function's served rendering plus every statement record (node, exact
/// score bits, kept, line). A Stage-3 change that moves any generated byte
/// fails here even when pass@1 does not move. On a mismatch the actual file
/// is written to the test scratch directory (`CARGO_TARGET_TMPDIR`) so the
/// difference can be reviewed and, for an intended behaviour change, copied
/// over the golden.
#[test]
fn generated_backends_match_golden() {
    let mut vega = tiny_vega();
    let mut actual = String::new();
    for target in EVAL_TARGET_NAMES {
        let gen = vega.generate_backend(target);
        for (module, f) in &gen.functions {
            let mut record = render_generated(target, &f.name, *module, f).render();
            for s in &f.stmts {
                let (node, score, kept) = (s.node, s.score.to_bits(), s.kept);
                write!(record, "\n{node}\t{score:016x}\t{kept}\t{}", s.line).unwrap();
            }
            let kept = f.stmts.iter().filter(|s| s.kept).count();
            writeln!(
                actual,
                "{target}\t{}\t{}\t{:.4}\t{kept}/{}\t{}",
                module.code(),
                f.name,
                f.confidence,
                f.stmts.len(),
                digest_str(&record)
            )
            .unwrap();
        }
    }
    let golden = include_str!("golden/backends_tiny.txt");
    if actual != golden {
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("backends_tiny.txt");
        std::fs::write(&out, &actual).expect("write actual backends");
        let first = actual
            .lines()
            .zip(golden.lines())
            .find(|(a, g)| a != g)
            .map_or_else(
                || "line count differs".to_string(),
                |(a, g)| format!("want {g}\n got {a}"),
            );
        panic!(
            "generated backends differ from tests/golden/backends_tiny.txt \
             (actual written to {}):\n{first}",
            out.display()
        );
    }
}

#[test]
fn verification_split_is_disjoint_and_scored() {
    let mut vega = tiny_vega();
    // No (group, node, target) triple may appear in both splits.
    let key = |s: &vega::StatementSample| (s.group.clone(), s.node, s.target.clone());
    let train: std::collections::HashSet<_> = vega.train_samples.iter().map(key).collect();
    assert!(vega.verify_samples.iter().all(|s| !train.contains(&key(s))));
    let em = vega.verification_exact_match();
    assert!((0.0..=1.0).contains(&em));
}
