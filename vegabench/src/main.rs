//! The VEGA end-to-end benchmark; see `README.md` beside this package.
//!
//! One process per run, one compute thread, a fixed op count per
//! `--seconds`, every output checked against a direct in-process call, and
//! a one-line JSON report as the last line of standard output.
//!
//! A run alternates set-up and measurement: [`SETUPS`] rounds, each a timed
//! set-up followed by its share of the ops. The host's slow phases last tens
//! of seconds, so ops spread over the whole run sample more of them than one
//! contiguous window would, and the per-run figures vary less.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};
use vega::{GeneratedBackend, Vega, VegaConfig};
use vega_corpus::{Corpus, Module, EVAL_TARGET_NAMES};
use vega_eval::eval_generated_backend;
use vega_model::{BackendHandle, CodeBe, DecodeAbort, DecodeBackend, TrainConfig};
use vega_nn::{Seq2Seq, Transformer, TransformerConfig};
use vega_obs::json::Json;
use vega_serve::hash::digest_str;
use vega_serve::{load_checkpoint, protocol, Client, Engine, ServeConfig, Server};
use vegabench::{
    backend_sequences, best_per_class, median, p90, popularity, score_requests, splitmix, Args,
    Report, Rng, Workload, CACHED_TARGETS, END_TO_END, MAX_CONNS, PER_LAYER, SCORE_CAND_LEN, USAGE,
};

/// Set-up rounds per run; `setup_s` is the median of their set-up times.
const SETUPS: usize = 3;

/// `max_len` of the two-token presence/confidence head decode that
/// `generate_function` runs per statement; signature decodes ask for more.
const HEAD_DECODE_LEN: usize = 2;

/// Mean candidate length `generate_function` scores on the tiny model.
const FIG7_CAND_LEN: usize = 9;

/// Feature-vector length at `Scale::Tiny`, the input every model call sees.
const TINY_INPUT_LEN: usize = 48;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("vegabench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    vega_par::set_threads(1);
    let calib_start = calib_probe();
    let scratch = Scratch::create();
    let m = match args.workload {
        Workload::Fig7 => fig7(&args),
        Workload::ServeBackend => serve_backend(&args, &scratch),
        Workload::ServeScore => serve_score(&args, &scratch),
    };
    drop(scratch);
    let calib_end = calib_probe();

    let attempted = m.latencies.len() as u64;
    let ops_per_s = attempted as f64 / m.window_s;
    let latency_p50_s = median(&m.latencies);
    let (catalogue, values): (&[_], Vec<_>) = if args.trace {
        let mut values = vec![
            ("host.calib_s", (calib_start + calib_end) / 2.0),
            ("ops_per_s", ops_per_s),
            ("latency_p50_s", latency_p50_s),
        ];
        match p90(&m.latencies) {
            Ok(p) => values.push(("latency_p90_s", p)),
            Err(e) => println!("vegabench: latency_p90_s not reported: {e}"),
        }
        values.extend(m.layers);
        (&PER_LAYER, values)
    } else {
        let values = vec![
            ("setup_s", median(&m.setup_s)),
            ("latency_best_s", best_per_class(&m.latencies, &m.classes)),
            ("peak_rss_mb", peak_rss_mb()),
            ("success_rate", 1.0 - m.failed as f64 / attempted as f64),
        ];
        (&END_TO_END, values)
    };
    println!(
        "vegabench: workload={} seed={} trace={} ops={} failed={} kernel={} compute_threads={} \
         nproc={} host.calib_s={calib_start:.4}/{calib_end:.4} ops_per_s={ops_per_s:.4} \
         latency_p50_s={latency_p50_s:.5} {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        attempted,
        m.failed,
        vega_nn::kernel::active_name(),
        vega_par::threads(),
        nproc(),
        m.info,
    );
    let report = match Report::build(m.failed == 0, attempted, m.failed, catalogue, &values) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("vegabench: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", report.render());
    if !report.correct {
        std::process::exit(1);
    }
}

/// What a workload measured, before it becomes the report.
#[derive(Default)]
struct Measured {
    /// Duration of each set-up.
    setup_s: Vec<f64>,
    /// Latency of each op, in seconds.
    latencies: Vec<f64>,
    /// The op class of each latency, for `latency_best_s`.
    classes: Vec<usize>,
    /// Wall time the ops took, summed over the windows.
    window_s: f64,
    /// Ops that failed or whose output did not match.
    failed: u64,
    /// Per-layer values (traced runs only).
    layers: Vec<(&'static str, f64)>,
    /// Extra `key=value` pairs for the diagnostic line.
    info: String,
}

/// A per-process directory for checkpoints under the working directory,
/// removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Scratch {
        let dir = PathBuf::from(format!(".vegabench-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create a scratch directory in the working directory");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A fixed host probe: a dependent pointer chase over 8 MB (memory side)
/// plus a multiply chain (ALU), timed as the best of three. It flags a
/// slow host phase; it tracks memory contention only in part, so no metric
/// is ever divided by it.
fn calib_probe() -> f64 {
    const SLOTS: usize = 1 << 21;
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    // Sattolo's shuffle: one cycle through every slot.
    let mut rng = Rng::keyed(0xCA11B, 0);
    for i in (1..SLOTS).rev() {
        let j = rng.below(i);
        next.swap(i, j);
    }
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut p = 0usize;
            for _ in 0..SLOTS {
                p = next[p] as usize;
            }
            let mut x = 0x9E37_79B9u64;
            for _ in 0..(1 << 23) {
                x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
            }
            std::hint::black_box((p, x));
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Splits `ops` into [`SETUPS`] consecutive rounds, as evenly as possible:
/// the op range each round measures.
fn rounds(ops: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..SETUPS).map(move |r| r * ops / SETUPS..(r + 1) * ops / SETUPS)
}

/// Count and wall time of one kind of model call.
#[derive(Default)]
struct Calls {
    count: AtomicU64,
    nanos: AtomicU64,
}

impl Calls {
    fn record(&self, took: Duration) {
        // Relaxed: plain statistics, read after the measured window.
        self.count.fetch_add(1, Ordering::Relaxed);
        self.nanos
            .fetch_add(took.as_nanos() as u64, Ordering::Relaxed);
    }

    /// `(count, seconds)` since the last take.
    fn take(&self) -> (f64, f64) {
        (
            self.count.swap(0, Ordering::Relaxed) as f64,
            self.nanos.swap(0, Ordering::Relaxed) as f64 * 1e-9,
        )
    }
}

/// Model calls by kind, as `generate_function` makes them.
#[derive(Default)]
struct ModelCalls {
    sig_decode: Calls,
    head_decode: Calls,
    score: Calls,
}

/// The traced run's interposer: a `DecodeBackend` that runs every decode
/// call on one backend-free copy of the model, made once at install time
/// (weights are never cloned per call), and times it by kind.
struct TimedBackend {
    model: Mutex<CodeBe>,
    calls: Arc<ModelCalls>,
}

impl DecodeBackend for TimedBackend {
    fn generate(
        &self,
        input: &[usize],
        max_len: usize,
        deadline: Option<Instant>,
    ) -> Result<Vec<usize>, DecodeAbort> {
        let t0 = Instant::now();
        let out = self
            .model
            .lock()
            .expect("a decode call panicked while holding the model")
            .try_generate(input, max_len, deadline);
        let kind = if max_len == HEAD_DECODE_LEN {
            &self.calls.head_decode
        } else {
            &self.calls.sig_decode
        };
        kind.record(t0.elapsed());
        out
    }

    fn sequence_logprob(
        &self,
        input: &[usize],
        output: &[usize],
        deadline: Option<Instant>,
    ) -> Result<f32, DecodeAbort> {
        let t0 = Instant::now();
        let out = self
            .model
            .lock()
            .expect("a decode call panicked while holding the model")
            .try_sequence_logprob(input, output, deadline);
        self.calls.score.record(t0.elapsed());
        out
    }
}

/// Installs a [`TimedBackend`] recording into `calls` on `model`; clones
/// made afterwards (the pipeline's per-function replicas, the server's
/// pool) share it.
fn install_interposer(model: &mut CodeBe, calls: &Arc<ModelCalls>) {
    let mut inner = model.clone();
    inner.set_decode_backend(None);
    model.set_decode_backend(Some(BackendHandle::new(TimedBackend {
        model: Mutex::new(inner),
        calls: Arc::clone(calls),
    })));
}

/// Readings summed over a run's measurement windows: the obs registry
/// (reset as each window opens, so set-ups and warm-ups between windows
/// never count), the interposer's calls and the server's statistics.
#[derive(Default)]
struct Totals(BTreeMap<&'static str, f64>);

impl Totals {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Starts a window: zeroes the obs registry and the call counters.
    fn open(calls: &ModelCalls) {
        vega_obs::global().reset();
        for c in [&calls.sig_decode, &calls.head_decode, &calls.score] {
            c.take();
        }
    }

    /// Adds what the window recorded.
    fn close(&mut self, calls: &ModelCalls) {
        let obs = vega_obs::global();
        for name in [
            "decode.tokens",
            "decode.scored_tokens",
            "serve.score.candidates",
        ] {
            self.add(name, obs.counter(name) as f64);
        }
        if let Some(h) = obs.histogram("serve.request_seconds") {
            self.add("requests", h.count() as f64);
            self.add("request_s", h.sum());
        }
        // With one compute thread `par_map` runs jobs inline, so each
        // `serve.generate` span nests in the dispatcher's `serve.batch`.
        self.add("generate_s", span_s("serve.batch.serve.generate"));
        for module in Module::ALL {
            let path = format!("pipeline.stage3.generate.{}", module.code());
            self.add(module_row(module), span_s(&path));
        }
        for (kind, n, s) in [
            (
                &calls.sig_decode,
                "model.sig_decode_calls",
                "model.sig_decode_s",
            ),
            (
                &calls.head_decode,
                "model.head_decode_calls",
                "model.head_decode_s",
            ),
            (&calls.score, "model.score_calls", "model.score_s"),
        ] {
            let (count, seconds) = kind.take();
            self.add(n, count);
            self.add(s, seconds);
        }
    }

    /// The per-op `model.*`, `nn.*` token and encoder-run rows; returns the
    /// model seconds per op. Without an interposer, an encoder run is one
    /// scored `score` candidate.
    fn model_rows(&self, ops: f64, layers: &mut Vec<(&'static str, f64)>) -> f64 {
        let mut calls = 0.0;
        let mut model_s = 0.0;
        for (n, s) in [
            ("model.sig_decode_calls", "model.sig_decode_s"),
            ("model.head_decode_calls", "model.head_decode_s"),
            ("model.score_calls", "model.score_s"),
        ] {
            calls += self.get(n);
            model_s += self.get(s);
            layers.extend([(n, self.get(n) / ops), (s, self.get(s) / ops)]);
        }
        let encoder_runs = if calls > 0.0 {
            calls
        } else {
            self.get("serve.score.candidates")
        };
        layers.extend([
            ("nn.encoder_runs", encoder_runs / ops),
            ("nn.decode_tokens", self.get("decode.tokens") / ops),
            ("nn.scored_tokens", self.get("decode.scored_tokens") / ops),
        ]);
        model_s / ops
    }

    /// Mean `serve.request_seconds` observation.
    fn request_s(&self) -> f64 {
        self.get("request_s") / self.get("requests").max(1.0)
    }
}

/// Splits one scoring call into encoder time (`Transformer::begin_decode`)
/// and decoder prefill (`forced_logprob` minus that), on a standalone
/// transformer built from the served model's configuration (same seed,
/// same shapes). Each is the median of `reps` calls, after one warm-up.
fn nn_split(
    cfg: TransformerConfig,
    cand_len: usize,
    reps: usize,
    layers: &mut Vec<(&'static str, f64)>,
) {
    let vocab = cfg.vocab as u64;
    let ids = |n: usize, salt: u64| -> Vec<usize> {
        (0..n)
            .map(|i| 4 + (splitmix(salt ^ i as u64) % (vocab - 4)) as usize)
            .collect()
    };
    let src = ids(TINY_INPUT_LEN, 0x5C);
    let tgt_out = ids(cand_len, 0xCA);
    let mut tgt_in = vec![1];
    tgt_in.extend(&tgt_out[..cand_len - 1]);
    let mut model = Transformer::new(cfg);
    let (mut encode, mut full) = (Vec::new(), Vec::new());
    for rep in 0..=reps {
        let t0 = Instant::now();
        drop(std::hint::black_box(model.begin_decode(&src)));
        let e = secs(t0);
        let t0 = Instant::now();
        std::hint::black_box(model.forced_logprob(&src, &tgt_in, &tgt_out));
        let f = secs(t0);
        if rep > 0 {
            encode.push(e);
            full.push(f);
        }
    }
    let e = median(&encode);
    layers.extend([
        ("nn.encode_s", e),
        ("nn.prefill_s", (median(&full) - e).max(0.0)),
    ]);
}

/// Per-layer rows of one set-up.
type Rows = Vec<(&'static str, f64)>;

/// Builds the corpus and runs Stages 1–2 on it, as `Vega::train` does,
/// adding the corpus build, Stage 1 and model creation times to `rows`.
fn train(cfg: &VegaConfig, rows: &mut Rows) -> Vega {
    let t0 = Instant::now();
    let corpus = Corpus::build(&cfg.corpus);
    let corpus_s = secs(t0);
    let vega = Vega::train_on(cfg.clone(), corpus);
    rows.extend([
        ("corpus.build_s", corpus_s),
        (
            "core.stage1_s",
            vega.timings.code_feature_mapping.as_secs_f64(),
        ),
        ("model.train_s", vega.timings.model_creation.as_secs_f64()),
    ]);
    vega
}

/// Saves `model` as a v2 checkpoint and loads it into a serving engine.
/// Untraced, it loads through the registry, as the `vega-serve` daemon
/// does. Traced, it takes the registry's public steps one by one, adding
/// their times to `rows`, and installs the interposer on the loaded model
/// when `calls` is given.
fn save_and_load(
    model: &CodeBe,
    path: &Path,
    cfg: &VegaConfig,
    traced: bool,
    calls: Option<&Arc<ModelCalls>>,
    rows: &mut Rows,
) -> Engine {
    let t0 = Instant::now();
    model
        .save_file_v2(path)
        .unwrap_or_else(|e| panic!("save {}: {e}", path.display()));
    rows.push(("ckpt.save_s", secs(t0)));
    if !traced {
        return load_checkpoint(path)
            .and_then(|c| c.into_engine(cfg.clone()))
            .map(|(_, engine)| engine)
            .unwrap_or_else(|e| panic!("{e}"));
    }
    let t0 = Instant::now();
    let (mut loaded, _) = CodeBe::load_file_detect(path).unwrap_or_else(|e| panic!("{e}"));
    rows.push(("ckpt.load_s", secs(t0)));
    if let Some(calls) = calls {
        install_interposer(&mut loaded, calls);
    }
    let vega = Vega::with_model(cfg.clone(), loaded).unwrap_or_else(|e| panic!("{e}"));
    let t0 = Instant::now();
    let engine = Engine::new(vega);
    rows.push(("serve.engine_new_s", secs(t0)));
    engine
}

/// A canonical rendering of a generated backend, for byte comparison.
fn backend_digest(backend: &GeneratedBackend) -> String {
    let functions: Vec<Json> = backend
        .functions
        .iter()
        .map(|(module, f)| protocol::render_generated(&backend.target, &f.name, *module, f))
        .collect();
    digest_str(&Json::Arr(functions).render())
}

fn module_row(module: Module) -> &'static str {
    match module {
        Module::Sel => "core.module_s.SEL",
        Module::Reg => "core.module_s.REG",
        Module::Opt => "core.module_s.OPT",
        Module::Sch => "core.module_s.SCH",
        Module::Emi => "core.module_s.EMI",
        Module::Ass => "core.module_s.ASS",
        Module::Dis => "core.module_s.DIS",
    }
}

fn span_s(path: &str) -> f64 {
    vega_obs::global()
        .span_total(path)
        .map_or(0.0, |d| d.as_secs_f64())
}

/// `fig7`: the paper's Fig. 7 inference job in process. One op generates
/// one backend and evaluates it (pass@1); ops take the RISC-V, RI5CY and
/// xCORE targets in turn, in a seeded order. Every op must reproduce the
/// direct pipeline's bytes and pass@1 for its target, computed once before
/// the first window (and before any interposer).
fn fig7(args: &Args) -> Measured {
    let cfg = VegaConfig::tiny();
    let mut m = Measured::default();
    let ops = Workload::Fig7.ops(args.seconds);
    let mut order: Vec<usize> = (0..EVAL_TARGET_NAMES.len()).collect();
    Rng::keyed(args.seed, 0xF17).shuffle(&mut order);
    let calls = Arc::new(ModelCalls::default());
    let mut totals = Totals::default();
    let mut reference: Vec<(String, f64)> = Vec::new();
    let mut vocab = 0;
    let (mut generate_s, mut eval_s) = (0.0, 0.0);
    for (round, range) in rounds(ops).enumerate() {
        let t0 = Instant::now();
        let mut rows = Rows::new();
        let mut vega = train(&cfg, &mut rows);
        m.setup_s.push(secs(t0));
        if round == 0 {
            if args.trace {
                m.layers.append(&mut rows);
            }
            vocab = vega.model().vocab.len();
            reference = EVAL_TARGET_NAMES
                .iter()
                .map(|t| {
                    let backend = vega.generate_backend(t);
                    let pass = eval_generated_backend(&vega.corpus, &backend).function_accuracy();
                    (backend_digest(&backend), pass)
                })
                .collect();
        }
        if args.trace {
            install_interposer(vega.model_mut(), &calls);
        }
        Totals::open(&calls);
        for op in range {
            let ti = order[op % order.len()];
            let t0 = Instant::now();
            let backend = vega.generate_backend(EVAL_TARGET_NAMES[ti]);
            let te = Instant::now();
            let pass = eval_generated_backend(&vega.corpus, &backend).function_accuracy();
            m.latencies.push(secs(t0));
            m.classes.push(ti);
            generate_s += (te - t0).as_secs_f64();
            eval_s += secs(te);
            // Checked outside the op's time.
            if backend_digest(&backend) != reference[ti].0 || pass != reference[ti].1 {
                m.failed += 1;
            }
        }
        totals.close(&calls);
    }
    m.window_s = m.latencies.iter().sum();
    let pass_at_1 = reference.iter().map(|r| r.1).sum::<f64>() / reference.len() as f64;
    m.info = format!(
        "pass_at_1={pass_at_1} decode_tokens={} scored_tokens={}",
        totals.get("decode.tokens"),
        totals.get("decode.scored_tokens")
    );

    if args.trace {
        let n = ops as f64;
        let model_s = totals.model_rows(n, &mut m.layers);
        for module in Module::ALL {
            let row = module_row(module);
            m.layers.push((row, totals.get(row) / n));
        }
        m.layers.extend([
            ("eval.pass_at_1", pass_at_1),
            ("core.backend_s", generate_s / n),
            ("core.self_s", generate_s / n - model_s),
            ("eval.pass_at_1_s", eval_s / n),
        ]);
        let tiny = TransformerConfig {
            max_len: TINY_INPUT_LEN,
            ..TransformerConfig::tiny(vocab)
        };
        nn_split(tiny, FIG7_CAND_LEN, 200, &mut m.layers);
    }
    m
}

/// The `backend` request line for `target` (no id, no trace).
fn backend_line(target: &str) -> String {
    Json::obj([("op", Json::str("backend")), ("target", Json::str(target))]).render()
}

/// Digest of the exact response line the server must send for a `backend`
/// request: every group generated directly on `engine` and rendered as the
/// server renders it.
fn expected_backend_line(engine: &Engine, target: &str, groups: &[String]) -> String {
    let functions = groups
        .iter()
        .map(|g| {
            let (module, f) = engine
                .generate(target, g)
                .unwrap_or_else(|e| panic!("direct generation of {target}/{g}: {}", e.msg));
            protocol::render_generated(target, g, module, &f)
        })
        .collect();
    digest_str(&protocol::ok_response(
        &Json::Null,
        [
            ("target", Json::str(target)),
            ("functions", Json::Arr(functions)),
            ("errors", Json::Arr(Vec::new())),
        ],
    ))
}

/// One client-side `backend` op: target index, latency, and the digest
/// and size of the response line (`None` on a transport error).
struct BackendOp {
    target: usize,
    latency: f64,
    response: Option<(String, usize)>,
}

/// Sends each sequence's `backend` requests on its own closed-loop
/// connection, all connections starting together.
fn run_clients(addr: &str, seqs: &[&[usize]], targets: &[String]) -> Vec<BackendOp> {
    let barrier = Barrier::new(seqs.len());
    std::thread::scope(|s| {
        let clients: Vec<_> = seqs
            .iter()
            .map(|&seq| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut client =
                        Client::connect(addr).expect("connect to the in-process server");
                    barrier.wait();
                    seq.iter()
                        .map(|&target| {
                            let line = backend_line(&targets[target]);
                            let t0 = Instant::now();
                            let response = client.request_raw(&line);
                            BackendOp {
                                target,
                                latency: secs(t0),
                                response: response.ok().map(|r| (digest_str(&r), r.len())),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    })
}

/// `serve-backend`: `backend` requests through an in-process vega-serve
/// with one replica, loaded from a v2 checkpoint as the daemon loads it.
/// Two closed-loop connections draw targets from a seeded Zipf-like
/// popularity; the cache holds [`CACHED_TARGETS`] targets' worth of
/// entries, warmed with the most popular ones before each window. Every
/// response must equal, byte for byte, the line rendered from direct
/// `Engine::generate` output, computed before the first server starts.
fn serve_backend(args: &Args, scratch: &Scratch) -> Measured {
    let cfg = VegaConfig::tiny();
    let path = scratch.path("backend.ckpt");
    let mut m = Measured::default();
    let calls = Arc::new(ModelCalls::default());
    let mut totals = Totals::default();
    let conns = MAX_CONNS.min(nproc());
    let per_conn = Workload::ServeBackend.ops(args.seconds).div_ceil(conns);
    let (mut targets, mut groups, mut seqs) = (Vec::new(), Vec::new(), Vec::new());
    let mut expected: BTreeMap<usize, String> = BTreeMap::new();
    let mut served_bytes = 0;
    for (round, range) in rounds(per_conn).enumerate() {
        let t0 = Instant::now();
        let mut rows = Rows::new();
        let trained = train(&cfg, &mut rows);
        let interposer = args.trace.then_some(&calls);
        let engine = save_and_load(
            trained.model(),
            &path,
            &cfg,
            args.trace,
            interposer,
            &mut rows,
        );
        drop(trained);
        m.setup_s.push(secs(t0));
        if round == 0 {
            if args.trace {
                m.layers.append(&mut rows);
            }
            targets = engine.target_names();
            groups = engine.group_names();
            seqs = backend_sequences(args.seed, targets.len(), conns, per_conn);
            for &t in seqs.concat().iter() {
                expected
                    .entry(t)
                    .or_insert_with(|| expected_backend_line(&engine, &targets[t], &groups));
            }
        }

        let server = Server::start(
            engine,
            ServeConfig {
                batch: 1,
                cache_cap: CACHED_TARGETS * groups.len(),
                ..ServeConfig::default()
            },
        )
        .expect("bind 127.0.0.1:0");
        let addr = server.local_addr().to_string();
        let mut warm = Client::connect(&addr).expect("connect to the in-process server");
        for &t in &popularity(args.seed, targets.len())[..CACHED_TARGETS] {
            warm.request_raw(&backend_line(&targets[t]))
                .expect("warm-up request");
        }
        drop(warm);

        Totals::open(&calls);
        let before = server.stats();
        let window: Vec<&[usize]> = seqs.iter().map(|s| &s[range.clone()]).collect();
        let t0 = Instant::now();
        let results = run_clients(&addr, &window, &targets);
        m.window_s += secs(t0);
        let after = server.stats();
        totals.close(&calls);
        totals.add("cache_hits", (after.cache_hits - before.cache_hits) as f64);
        totals.add(
            "cache_lookups",
            (after.cache_hits + after.cache_misses - before.cache_hits - before.cache_misses)
                as f64,
        );
        totals.add(
            "cache_evictions",
            (after.cache_evictions - before.cache_evictions) as f64,
        );
        totals.add("generated", (after.generated - before.generated) as f64);
        server.shutdown();
        server.join();

        for op in results {
            m.latencies.push(op.latency);
            match op.response {
                Some((digest, bytes)) if digest == expected[&op.target] => served_bytes += bytes,
                _ => m.failed += 1,
            }
        }
    }
    m.classes = vec![0; m.latencies.len()];
    let hit_ratio = totals.get("cache_hits") / totals.get("cache_lookups").max(1.0);
    m.info = format!(
        "connections={conns} decode_tokens={} scored_tokens={} served_bytes={served_bytes} \
         cache_hit_ratio={hit_ratio:.3}",
        totals.get("decode.tokens"),
        totals.get("decode.scored_tokens"),
    );

    if args.trace {
        let n = m.latencies.len() as f64;
        let model_s = totals.model_rows(n, &mut m.layers);
        let generate_s = totals.get("generate_s");
        m.layers.extend([
            ("serve.cache_hit_ratio", hit_ratio),
            ("serve.cache_evictions", totals.get("cache_evictions")),
            ("serve.generated", totals.get("generated")),
            ("serve.request_s", totals.request_s()),
            ("serve.generate_s", generate_s / n),
            (
                "serve.wait_s",
                (m.latencies.iter().sum::<f64>() - generate_s) / n,
            ),
            ("core.self_s", generate_s / n - model_s),
        ]);
    }
    m
}

/// The `serve-score` model: the untrained deploy-shaped transformer of
/// `benches/serve.rs` (d_model 512, d_ff 2048, 1 encoder + 3 decoder
/// layers), far larger than L2, so the `vega-nn` kernels dominate.
fn deploy_cfg(vocab: usize) -> TransformerConfig {
    TransformerConfig {
        vocab,
        d_model: 512,
        n_heads: 4,
        d_ff: 2048,
        n_enc_layers: 1,
        n_dec_layers: 3,
        max_len: 128,
        seed: 0xC0DE,
    }
}

/// `serve-score`: `score` requests (8 candidates of 10 tokens) on one
/// connection to an in-process vega-serve whose model is the deploy-shaped
/// transformer over the tiny corpus's vocabulary, saved as v2 and loaded
/// through the registry. Scoring bypasses the cache and the queue. The
/// run cycles through [`vegabench::SCORE_DISTINCT`] seeded requests; every
/// response's score bits must equal `Engine::try_score_with` in process,
/// computed before the first server starts. No interposer here: with a
/// backend installed, `try_score_with` fans candidates out to one thread
/// each.
fn serve_score(args: &Args, scratch: &Scratch) -> Measured {
    let cfg = VegaConfig::tiny();
    // Only the corpus-derived vocabulary is needed: no fine-tuning.
    let vocab_cfg = VegaConfig {
        train: TrainConfig {
            finetune_epochs: 0,
            ..cfg.train.clone()
        },
        ..cfg.clone()
    };
    let path = scratch.path("score.ckpt");
    let mut m = Measured::default();
    let calls = ModelCalls::default();
    let mut totals = Totals::default();
    let ops = Workload::ServeScore.ops(args.seconds);
    let (mut targets, mut groups, mut requests) = (Vec::new(), Vec::new(), Vec::new());
    let (mut expected, mut engine_s) = (Vec::new(), Vec::new());
    let mut vocab = 0;
    let mut server_s = 0.0;
    for (round, range) in rounds(ops).enumerate() {
        let t0 = Instant::now();
        let mut rows = Rows::new();
        let base = train(&vocab_cfg, &mut rows);
        let ti = Instant::now();
        let model = CodeBe::transformer(base.model().vocab.clone(), deploy_cfg);
        // Model creation here is the deploy model's initialization.
        rows.retain(|(name, _)| *name != "model.train_s");
        rows.push(("model.train_s", secs(ti)));
        drop(base);
        let engine = save_and_load(&model, &path, &cfg, args.trace, None, &mut rows);
        drop(model);
        m.setup_s.push(secs(t0));
        if round == 0 {
            if args.trace {
                m.layers.append(&mut rows);
            }
            targets = engine.target_names();
            groups = engine.group_names();
            vocab = engine.vega().model().vocab.len();
            requests = score_requests(args.seed, targets.len(), groups.len(), vocab);
            let mut replica = engine.replica();
            for (t, g, cands) in &requests {
                let t0 = Instant::now();
                let scores = engine
                    .try_score_with(&mut replica, &targets[*t], &groups[*g], cands, None)
                    .unwrap_or_else(|e| panic!("in-process scoring: {}", e.msg));
                engine_s.push(secs(t0));
                expected.push(Json::Arr(scores.into_iter().map(Json::num_f32).collect()).render());
            }
        }

        let server = Server::start(
            engine,
            ServeConfig {
                batch: 1,
                cache_cap: 0,
                ..ServeConfig::default()
            },
        )
        .expect("bind 127.0.0.1:0");
        let mut client = Client::connect(&server.local_addr().to_string())
            .expect("connect to the in-process server");
        Totals::open(&calls);
        let t0 = Instant::now();
        for op in range {
            let r = op % requests.len();
            let (t, g, cands) = &requests[r];
            let ts = Instant::now();
            let response = client.score(&targets[*t], &groups[*g], cands, None);
            m.latencies.push(secs(ts));
            m.classes.push(0);
            let matched = response.ok().and_then(|v| {
                let scores = v.field("scores").ok()?.render();
                let timing = v.field("timing").ok()?;
                let ms = timing.field("decode_ms").ok()?.as_f64().ok()?;
                (scores == expected[r]).then_some(ms / 1e3)
            });
            match matched {
                Some(s) => server_s += s,
                None => m.failed += 1,
            }
        }
        m.window_s += secs(t0);
        totals.close(&calls);
        drop(client);
        server.shutdown();
        server.join();
    }
    m.info = format!(
        "connections=1 decode_tokens={} scored_tokens={}",
        totals.get("decode.tokens"),
        totals.get("decode.scored_tokens")
    );

    if args.trace {
        let n = ops as f64;
        totals.model_rows(n, &mut m.layers);
        m.layers.extend([
            ("engine.score_s", median(&engine_s)),
            (
                "serve.transport_s",
                (m.latencies.iter().sum::<f64>() - server_s) / n,
            ),
            ("serve.request_s", totals.request_s()),
        ]);
        nn_split(deploy_cfg(vocab), SCORE_CAND_LEN, 5, &mut m.layers);
    }
    m
}
