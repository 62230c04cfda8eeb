//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! vega-experiments [all|headline|fig6|fig7|fig8|table2|fig9|table3|table4|
//!                   fig10|robustness|verify|update|ablation-split|
//!                   ablation-model]
//!                  [--scale tiny|small] [--synthetic N] [--epochs E]
//!                  [--pretrain STEPS] [--seed S] [--threads N]
//!                  [--trace-out PATH] [--save-model PATH] [--load-model PATH]
//!                  [--model transformer|gru]
//! ```
//!
//! An unknown command or flag, or a flag value that does not parse, exits
//! with status 2 and a message naming it, before anything trains.
//!
//! `all` trains once and renders every artifact off the same model; the
//! ablations train additional models. Progress messages go through the
//! `vega-obs` event log (set `VEGA_LOG=info` to see them); `--trace-out`
//! writes the full span/metric/curve trace as JSON lines. `--threads`
//! overrides the `vega-par` pool size (default: `VEGA_THREADS` or the core
//! count); results are bit-identical for any value.
//!
//! `--save-model` writes the trained CodeBE checkpoint after stage 2, as a
//! binary mmap-shareable `vega-ckpt/v2` file. `--load-model` skips training
//! and reuses such a checkpoint; a malformed file is rejected with the
//! offending byte offset. The checkpoint must have been produced with the
//! same `--scale`/`--synthetic`/`--seed`, or loading fails with a
//! vocabulary mismatch. `vega-serve` consumes the same files.
//!
//! `--model gru` trains the GRU baseline instead of the transformer (the
//! paper's RNN-based VEGA arm).

use std::path::PathBuf;
use std::time::Instant;
use vega::{Scale, Split, Vega, VegaConfig};
use vega_eval::exp::{self, Workbench};
use vega_eval::pct;
use vega_model::ModelChoice;
use vega_serve::cli::{FlagError, Flags};

/// The artifacts `all` renders, in order, off one trained model.
const ARTIFACTS: &[&str] = &[
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
];
/// Commands that train models of their own.
const ABLATIONS: &[&str] = &["ablation-split", "ablation-model"];
const SCALES: &[(&str, Scale)] = &[("tiny", Scale::Tiny), ("small", Scale::Small)];
const MODELS: &[(&str, ModelChoice)] = &[
    ("transformer", ModelChoice::Transformer),
    ("gru", ModelChoice::Gru),
];

#[derive(Debug)]
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
    model: ModelChoice,
}

/// Parses `argv` (without the program name). Every command, flag and value
/// is checked here, so a typo fails before anything trains.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, FlagError> {
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
        model: ModelChoice::Transformer,
    };
    let mut flags = Flags::new(argv);
    while let Some(arg) = flags.next() {
        let f = arg.as_str();
        match f {
            "--scale" => args.scale = flags.choice(f, SCALES)?,
            "--synthetic" => args.synthetic = Some(flags.value(f)?),
            "--epochs" => args.epochs = Some(flags.value(f)?),
            "--pretrain" => args.pretrain = Some(flags.value(f)?),
            "--seed" => args.seed = flags.value(f)?,
            "--threads" => args.threads = Some(flags.value(f)?),
            "--trace-out" => args.trace_out = Some(flags.value(f)?),
            "--save-model" => args.save_model = Some(flags.value(f)?),
            "--load-model" => args.load_model = Some(flags.value(f)?),
            "--model" => args.model = flags.choice(f, MODELS)?,
            cmd if !cmd.starts_with("--") => {
                let known: Vec<&str> = std::iter::once("all")
                    .chain(ARTIFACTS.iter().chain(ABLATIONS).copied())
                    .collect();
                if !known.contains(&cmd) {
                    return Err(FlagError(format!(
                        "unknown command `{cmd}` (expected one of: {})",
                        known.join(", ")
                    )));
                }
                args.command = cmd.to_string();
            }
            other => return Err(FlagError(format!("unknown flag {other}"))),
        }
    }
    Ok(args)
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
        let vega = Vega::train(cfg);
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
        let vega = Vega::train(cfg);
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
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        vega_obs::error!("{e}");
        std::process::exit(2);
    });
    if let Some(n) = args.threads {
        vega_par::set_threads(n);
    }
    // Results are bit-identical at any thread count and on any ISA; the
    // kernel ISA and the thread count decide only speed, so log them beside
    // the run's other inputs before any math runs.
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
        match wb.vega.model().save_file_v2(path) {
            Ok(()) => vega_obs::info!(
                "[vega-experiments] checkpoint saved to {} ({})",
                path.display(),
                vega_model::CKPT_FORMAT_V2
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

    let artifact = |wb: &mut Workbench, cmd: &str| -> String {
        match cmd {
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
            other => unreachable!("parse_args admits no artifact `{other}`"),
        }
    };

    if args.command == "all" {
        for cmd in ARTIFACTS {
            println!("{}", artifact(&mut wb, cmd));
        }
        println!("{}", ablation_split(cfg));
        println!("{}", ablation_model(cfg));
    } else {
        println!("{}", artifact(&mut wb, &args.command));
    }
    vega_obs::info!(
        "[vega-experiments] done in {:.1}s",
        t0.elapsed().as_secs_f64()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, FlagError> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_smoke_command_line() {
        let args = parse("headline --scale tiny --epochs 1 --pretrain 0 --model gru").unwrap();
        assert_eq!(args.command, "headline");
        assert_eq!(args.scale, Scale::Tiny);
        assert_eq!((args.epochs, args.pretrain), (Some(1), Some(0)));
        assert_eq!(args.model, ModelChoice::Gru);
        let defaults = parse("").unwrap();
        assert_eq!(defaults.command, "all");
        assert_eq!(defaults.scale, Scale::Small);
    }

    #[test]
    fn bad_command_lines_fail_naming_the_flag_and_value() {
        let cases: &[(&str, &[&str])] = &[
            ("--scale tiyn", &["--scale", "`tiyn`", "tiny, small"]),
            ("--epochs x", &["--epochs", "`x`"]),
            ("--seed -1", &["--seed", "`-1`"]),
            ("--model rnn", &["--model", "`rnn`"]),
            ("--threads", &["--threads needs a value"]),
            ("--speculate 4 headline", &["unknown flag --speculate"]),
            ("headlin", &["unknown command `headlin`", "ablation-model"]),
        ];
        for (line, wants) in cases {
            let err = parse(line).unwrap_err().to_string();
            for want in *wants {
                assert!(err.contains(want), "`{line}`: `{err}` lacks `{want}`");
            }
        }
    }
}
