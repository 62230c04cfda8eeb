//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! vega-experiments [all|headline|fig6|fig7|fig8|table2|fig9|table3|table4|
//!                   fig10|verify|robustness|ablation-split|ablation-model]
//!                  [--scale tiny|small] [--synthetic N] [--epochs E]
//!                  [--pretrain STEPS] [--seed S] [--threads N]
//!                  [--trace-out PATH] [--save-model PATH] [--load-model PATH]
//!                  [--ckpt-format v1|v2] [--model transformer|gru]
//! ```
//!
//! `all` trains once and renders every artifact off the same model; the
//! ablations train additional models. Progress messages go through the
//! `vega-obs` event log (set `VEGA_LOG=info` to see them); `--trace-out`
//! writes the full span/metric/curve trace as JSON lines. `--threads`
//! overrides the `vega-par` pool size (default: `VEGA_THREADS` or the core
//! count); results are bit-identical for any value.
//!
//! `--save-model` writes the trained CodeBE checkpoint after stage 2;
//! `--ckpt-format` picks the on-disk layout (`v2`, the default, is the
//! binary mmap-shareable `vega-ckpt/v2`; `v1` is the JSON envelope).
//! `--load-model` skips training and reuses such a checkpoint — the format
//! is auto-detected from the file, and a malformed file is rejected with
//! the detected format and the offending byte offset. The checkpoint must
//! have been produced with the same `--scale`/`--synthetic`/`--seed`, or
//! loading fails with a vocabulary mismatch. `vega-serve` consumes the
//! same files.
//!
//! `--model gru` trains the GRU baseline instead of the transformer (the
//! paper's RNN-based VEGA arm).

use std::path::PathBuf;
use std::time::Instant;
use vega::{Scale, Split, Vega, VegaConfig};
use vega_eval::exp::{self, Workbench};
use vega_eval::pct;
use vega_model::ModelChoice;

struct Args {
    command: String,
    scale: Scale,
    synthetic: Option<usize>,
    epochs: Option<usize>,
    pretrain: Option<usize>,
    seed: u64,
    threads: Option<usize>,
    trace_out: Option<PathBuf>,
    save_model: Option<PathBuf>,
    load_model: Option<PathBuf>,
    ckpt_format: vega_model::CkptFormat,
    model: ModelChoice,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: "all".to_string(),
        scale: Scale::Small,
        synthetic: None,
        epochs: None,
        pretrain: None,
        seed: 0,
        threads: None,
        trace_out: None,
        save_model: None,
        load_model: None,
        ckpt_format: vega_model::CkptFormat::V2,
        model: ModelChoice::Transformer,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                args.scale = match argv.get(i).map(String::as_str) {
                    Some("tiny") => Scale::Tiny,
                    _ => Scale::Small,
                };
            }
            "--synthetic" => {
                i += 1;
                args.synthetic = argv.get(i).and_then(|v| v.parse().ok());
            }
            "--epochs" => {
                i += 1;
                args.epochs = argv.get(i).and_then(|v| v.parse().ok());
            }
            "--pretrain" => {
                i += 1;
                args.pretrain = argv.get(i).and_then(|v| v.parse().ok());
            }
            "--seed" => {
                i += 1;
                args.seed = argv.get(i).and_then(|v| v.parse().ok()).unwrap_or(0);
            }
            "--threads" => {
                i += 1;
                args.threads = argv.get(i).and_then(|v| v.parse().ok());
            }
            "--trace-out" => {
                i += 1;
                args.trace_out = argv.get(i).map(PathBuf::from);
            }
            "--save-model" => {
                i += 1;
                args.save_model = argv.get(i).map(PathBuf::from);
            }
            "--load-model" => {
                i += 1;
                args.load_model = argv.get(i).map(PathBuf::from);
            }
            "--ckpt-format" => {
                i += 1;
                let name = argv.get(i).map(String::as_str).unwrap_or("");
                args.ckpt_format = vega_model::CkptFormat::parse(name).unwrap_or_else(|e| {
                    vega_obs::error!("--ckpt-format: {e}");
                    std::process::exit(2);
                });
            }
            "--model" => {
                i += 1;
                args.model = match argv.get(i).map(String::as_str) {
                    Some("gru") => ModelChoice::Gru,
                    Some("transformer") | None => ModelChoice::Transformer,
                    Some(other) => {
                        vega_obs::error!(
                            "--model: unknown architecture `{other}` (transformer|gru)"
                        );
                        std::process::exit(2);
                    }
                };
            }
            cmd if !cmd.starts_with("--") => args.command = cmd.to_string(),
            other => vega_obs::warn!("ignoring unknown flag {other}"),
        }
        i += 1;
    }
    args
}

fn config_from(args: &Args) -> VegaConfig {
    let mut cfg = match args.scale {
        Scale::Tiny => VegaConfig::tiny(),
        Scale::Small => VegaConfig::default(),
    };
    if let Some(n) = args.synthetic {
        cfg.corpus.synthetic_targets = n;
    }
    if let Some(e) = args.epochs {
        cfg.train.finetune_epochs = e;
    }
    if let Some(p) = args.pretrain {
        cfg.train.pretrain_steps = p;
    }
    cfg.seed = args.seed;
    cfg.train.seed = args.seed ^ 1;
    cfg.model = args.model;
    cfg
}

fn ablation_split(base: &VegaConfig) -> String {
    // Function-group split vs backend split: accuracy drop per target.
    let mut out = String::from("§4.2 ablation — function-group vs backend-based split\n");
    let acc = |split: Split| -> Vec<(String, f64)> {
        let mut cfg = base.clone();
        cfg.split = split;
        let mut vega = Vega::train(cfg);
        vega_corpus::EVAL_TARGET_NAMES
            .iter()
            .map(|t| {
                let gen = vega.generate_backend(t);
                let ev = vega_eval::eval_generated_backend(&vega.corpus, &gen);
                (t.to_string(), ev.function_accuracy())
            })
            .collect()
    };
    let fg = acc(Split::FunctionGroup);
    let be = acc(Split::Backend);
    let mut t =
        vega_eval::TextTable::new(["Target", "FunctionGroup split", "Backend split", "Drop"]);
    for ((name, a), (_, b)) in fg.iter().zip(&be) {
        t.row([
            name.clone(),
            pct(*a),
            pct(*b),
            format!("{:+.1}pp", 100.0 * (b - a)),
        ]);
    }
    out.push_str(&t.render());
    out
}

fn ablation_model(base: &VegaConfig) -> String {
    // Pretrained transformer vs no-pretraining vs GRU.
    let mut out = String::from("§4.1.2 ablation — model architecture and pre-training\n");
    let run = |label: &str, model: ModelChoice, pretrain: usize| -> (String, Vec<f64>) {
        let mut cfg = base.clone();
        cfg.model = model;
        cfg.train.pretrain_steps = pretrain;
        let mut vega = Vega::train(cfg);
        let accs = vega_corpus::EVAL_TARGET_NAMES
            .iter()
            .map(|t| {
                let gen = vega.generate_backend(t);
                vega_eval::eval_generated_backend(&vega.corpus, &gen).function_accuracy()
            })
            .collect();
        (label.to_string(), accs)
    };
    let arms = vec![
        run(
            "Transformer + pretraining (CodeBE)",
            ModelChoice::Transformer,
            base.train.pretrain_steps.max(1),
        ),
        run("Transformer, no pretraining", ModelChoice::Transformer, 0),
        run("GRU seq2seq (RNN-based VEGA)", ModelChoice::Gru, 0),
    ];
    let mut t = vega_eval::TextTable::new(["Model", "RISC-V", "RI5CY", "xCORE"]);
    for (label, accs) in arms {
        t.row([label, pct(accs[0]), pct(accs[1]), pct(accs[2])]);
    }
    out.push_str(&t.render());
    out
}

fn main() {
    let args = parse_args();
    if let Some(n) = args.threads {
        vega_par::set_threads(n);
    }
    // Results are bit-identical at any thread count *within* a kernel mode,
    // so surface the resolved mode next to the run's other reproducibility
    // inputs (seed, scale) before any math runs.
    vega_obs::info!(
        "[vega-experiments] kernel={} threads={}",
        vega_nn::kernel::active_name(),
        vega_par::threads()
    );
    let cfg = config_from(&args);
    run(&args, &cfg);
    if let Some(path) = &args.trace_out {
        match vega_obs::global().write_trace(path) {
            Ok(()) => vega_obs::info!("trace written to {}", path.display()),
            Err(e) => vega_obs::error!("failed to write trace {}: {e}", path.display()),
        }
    }
}

fn run(args: &Args, cfg: &VegaConfig) {
    let t0 = Instant::now();

    match args.command.as_str() {
        "ablation-split" => {
            println!("{}", ablation_split(cfg));
            return;
        }
        "ablation-model" => {
            println!("{}", ablation_model(cfg));
            return;
        }
        _ => {}
    }

    let checkpoint = args.load_model.as_ref().map(|path| {
        let (model, format) = vega_model::CodeBe::load_file_detect(path).unwrap_or_else(|e| {
            vega_obs::error!("cannot load checkpoint {}: {e}", path.display());
            std::process::exit(2);
        });
        vega_obs::info!(
            "[vega-experiments] loaded checkpoint {} ({}, {}, {} pieces)",
            path.display(),
            format,
            model.arch_name(),
            model.vocab.len()
        );
        model
    });
    if checkpoint.is_none() {
        vega_obs::info!("[vega-experiments] training (scale {:?}) …", cfg.scale);
    }
    let mut wb = Workbench::run_with(cfg.clone(), checkpoint).unwrap_or_else(|e| {
        vega_obs::error!("{e}");
        std::process::exit(2);
    });
    if let Some(path) = &args.save_model {
        // Crash-safe write: digest-stamped bytes to a temp file, then an
        // atomic rename, so a crash mid-save never clobbers an old checkpoint.
        match wb.vega.model().save_file_as(path, args.ckpt_format) {
            Ok(()) => vega_obs::info!(
                "[vega-experiments] checkpoint saved to {} ({})",
                path.display(),
                args.ckpt_format
            ),
            Err(e) => {
                vega_obs::error!("cannot write checkpoint {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    vega_obs::info!(
        "[vega-experiments] trained in {:.1}s (stage1 {:.1}s, stage2 {:.1}s); {} templates, {} train samples",
        t0.elapsed().as_secs_f64(),
        wb.vega.timings.code_feature_mapping.as_secs_f64(),
        wb.vega.timings.model_creation.as_secs_f64(),
        wb.vega.templates.len(),
        wb.vega.train_samples.len(),
    );

    let run_one = |wb: &mut Workbench, cmd: &str| -> Option<String> {
        Some(match cmd {
            "headline" => exp::headline(wb),
            "fig6" => exp::fig6(wb),
            "fig7" => exp::fig7(wb),
            "fig8" => exp::fig8(wb),
            "table2" => exp::table2(wb),
            "fig9" => exp::fig9(wb),
            "table3" => exp::table3(wb),
            "table4" => exp::table4(wb),
            "fig10" => exp::fig10(wb),
            "robustness" => exp::robustness(wb),
            "verify" => exp::verification(wb),
            "update" => exp::update_mechanism(wb),
            _ => return None,
        })
    };

    if args.command == "all" {
        for cmd in [
            "headline",
            "fig6",
            "fig7",
            "fig8",
            "table2",
            "fig9",
            "table3",
            "table4",
            "fig10",
            "robustness",
            "verify",
            "update",
        ] {
            println!("{}", run_one(&mut wb, cmd).unwrap());
        }
        println!("{}", ablation_split(cfg));
        println!("{}", ablation_model(cfg));
    } else {
        match run_one(&mut wb, &args.command) {
            Some(text) => println!("{text}"),
            None => vega_obs::error!("unknown command `{}`", args.command),
        }
    }
    vega_obs::info!(
        "[vega-experiments] done in {:.1}s",
        t0.elapsed().as_secs_f64()
    );
}
