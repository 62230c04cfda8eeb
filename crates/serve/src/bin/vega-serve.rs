//! The vega-serve daemon.
//!
//! ```text
//! vega-serve --checkpoint PATH [--scale tiny|small] [--synthetic N] [--seed S]
//!            [--addr HOST:PORT] [--port-file PATH]
//!            [--cache-cap N] [--queue-cap N] [--batch N] [--threads N]
//!            [--deadline-ms MS] [--slow-ms MS] [--trace-out PATH]
//!            [--flight-cap N]
//! ```
//!
//! Loads the checkpoint, rebuilds Stage-1 artifacts for the configured corpus
//! (must match the checkpoint's training configuration), binds, and serves
//! until a client sends `{"op":"shutdown"}` (or the process is killed).
//! `--batch` caps the jobs generated at once on the shared model (default:
//! the `--threads` pool size); `--port-file` writes the resolved port for
//! scripts binding port 0;
//! `--slow-ms` injects per-generation latency so tests can provoke overload;
//! `--flight-cap` sizes the flight recorder (default 256 records, 0
//! disables). The recorder's retained records are served by the
//! `{"op":"flightdump"}` protocol op and dumped to stderr on panic. A
//! missing or malformed flag value exits with status 2, naming the flag.

use std::path::PathBuf;
use vega::{Scale, VegaConfig};
use vega_serve::cli::{FlagError, Flags};
use vega_serve::{load_checkpoint, ServeConfig, Server};

struct Args {
    checkpoint: PathBuf,
    scale: Scale,
    synthetic: Option<usize>,
    seed: u64,
    port_file: Option<PathBuf>,
    threads: Option<usize>,
    trace_out: Option<PathBuf>,
    serve: ServeConfig,
}

const SCALES: &[(&str, Scale)] = &[("tiny", Scale::Tiny), ("small", Scale::Small)];

fn parse_args() -> Result<Args, FlagError> {
    let mut args = Args {
        checkpoint: PathBuf::new(),
        scale: Scale::Tiny,
        synthetic: None,
        seed: 0,
        port_file: None,
        threads: None,
        trace_out: None,
        serve: ServeConfig {
            // The daemon keeps a black box by default; embedded test servers
            // (ServeConfig::default) leave the process-global recorder alone.
            flight_cap: 256,
            ..ServeConfig::default()
        },
    };
    let mut flags = Flags::from_env();
    while let Some(flag) = flags.next() {
        let f = flag.as_str();
        match f {
            "--checkpoint" => args.checkpoint = flags.value(f)?,
            "--scale" => args.scale = flags.choice(f, SCALES)?,
            "--synthetic" => args.synthetic = Some(flags.value(f)?),
            "--seed" => args.seed = flags.value(f)?,
            "--addr" => args.serve.addr = flags.value(f)?,
            "--port-file" => args.port_file = Some(flags.value(f)?),
            "--cache-cap" => args.serve.cache_cap = flags.value(f)?,
            "--queue-cap" => args.serve.queue_cap = flags.value(f)?,
            "--batch" => args.serve.batch = flags.value(f)?,
            "--threads" => args.threads = Some(flags.value(f)?),
            "--deadline-ms" => args.serve.default_deadline_ms = flags.value(f)?,
            "--slow-ms" => args.serve.slow_ms = flags.value(f)?,
            "--trace-out" => args.trace_out = Some(flags.value(f)?),
            "--flight-cap" => args.serve.flight_cap = flags.value(f)?,
            other => return Err(FlagError(format!("unknown flag {other}"))),
        }
    }
    if args.checkpoint.as_os_str().is_empty() {
        return Err(FlagError(
            "usage: vega-serve --checkpoint PATH [--scale tiny|small] [--addr HOST:PORT] …"
                .to_string(),
        ));
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
    cfg.seed = args.seed;
    cfg.train.seed = args.seed ^ 1;
    cfg
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        vega_obs::error!("{e}");
        std::process::exit(2);
    });
    // A panicking daemon leaves its flight-recorder black box on stderr.
    vega_obs::flight::install_panic_hook();
    if let Some(n) = args.threads {
        vega_par::set_threads(n);
    }

    let checkpoint = match load_checkpoint(&args.checkpoint) {
        Ok(c) => c,
        Err(e) => {
            vega_obs::error!("{e}");
            std::process::exit(2);
        }
    };
    vega_obs::info!(
        "[vega-serve] checkpoint {} ({}, {} pieces, max_len {}, {} bytes)",
        checkpoint.meta.path.display(),
        checkpoint.meta.arch,
        checkpoint.meta.vocab_pieces,
        checkpoint.meta.max_len,
        checkpoint.meta.bytes
    );
    let (_meta, engine) = match checkpoint.into_engine(config_from(&args)) {
        Ok(v) => v,
        Err(e) => {
            vega_obs::error!("{e}");
            std::process::exit(2);
        }
    };
    vega_obs::info!(
        "[vega-serve] engine ready: {} targets, {} groups",
        engine.target_names().len(),
        engine.group_names().len()
    );

    let server = match Server::start(engine, args.serve.clone()) {
        Ok(s) => s,
        Err(e) => {
            vega_obs::error!("cannot bind {}: {e}", args.serve.addr);
            std::process::exit(2);
        }
    };
    let addr = server.local_addr();
    // The listening line goes to stdout (scripts wait for it); everything
    // else is on the obs event log.
    println!("listening on {addr}");
    if let Some(pf) = &args.port_file {
        if let Err(e) = std::fs::write(pf, addr.port().to_string()) {
            vega_obs::error!("cannot write port file {}: {e}", pf.display());
            server.shutdown();
            server.join();
            std::process::exit(2);
        }
    }

    let stats = server.join_with_stats();
    println!(
        "served requests={} cache_hits={} cache_misses={} coalesced={} shed={} \
         deadline_exceeded={} generated={}",
        stats.requests,
        stats.cache_hits,
        stats.cache_misses,
        stats.coalesced,
        stats.shed,
        stats.deadline_exceeded,
        stats.generated
    );
    if let Some(path) = &args.trace_out {
        match vega_obs::global().write_trace(path) {
            Ok(()) => vega_obs::info!("trace written to {}", path.display()),
            Err(e) => vega_obs::error!("failed to write trace {}: {e}", path.display()),
        }
    }
}
