//! One bench group per paper table/figure, at reduced scale.
//!
//! These benches time the machinery that *regenerates* each artifact; the
//! artifact contents themselves come from `vega-experiments`.

use vega_bench::{trained_tiny_vega, Bench};
use vega_corpus::{Corpus, CorpusConfig};
use vega_eval::{eval_generated_backend, eval_plain_backend, DeveloperProfile};
use vega_forkflow::forkflow_backend;
use vega_minicc::{benchmark_suite, run_kernel, BackendVm, OptLevel};

/// Fig. 7 — inference: generating one backend from description files.
fn bench_fig7_inference() {
    let vega = trained_tiny_vega();
    let mut g = Bench::group("fig7_inference");
    g.bench_function("generate_backend(RISCV)", || vega.generate_backend("RISCV"));
    g.finish();
}

/// Fig. 8 — pass@1 evaluation of a generated backend.
fn bench_fig8_passk() {
    let vega = trained_tiny_vega();
    let backend = vega.generate_backend("RISCV");
    let mut g = Bench::group("fig8_passk");
    g.bench_function("eval_generated_backend(RISCV)", || {
        eval_generated_backend(&vega.corpus, &backend)
    });
    g.finish();
}

/// Table 2 — error-taxonomy computation over an evaluated backend.
fn bench_table2_taxonomy() {
    let vega = trained_tiny_vega();
    let backend = vega.generate_backend("RI5CY");
    let eval = eval_generated_backend(&vega.corpus, &backend);
    let mut g = Bench::group("table2_taxonomy");
    g.bench_function("error_rates", || eval.error_rates());
    g.finish();
}

/// Fig. 9 — the ForkFlow baseline: fork + statement-level evaluation.
fn bench_fig9_forkflow() {
    let corpus = Corpus::build(&CorpusConfig::tiny());
    let mut g = Bench::group("fig9_forkflow");
    g.bench_function("fork(Mips→RISCV)+stmt_eval", || {
        let ff = forkflow_backend(&corpus, "Mips", "RISCV");
        eval_plain_backend(&corpus, &ff, "RISCV").stmt_accuracy()
    });
    g.finish();
}

/// Tables 3/4 — statement counting and the effort model.
fn bench_table34_effort() {
    let corpus = Corpus::build(&CorpusConfig::tiny());
    let ff = forkflow_backend(&corpus, "Mips", "RISCV");
    let eval = eval_plain_backend(&corpus, &ff, "RISCV");
    let dev = DeveloperProfile::developer_a();
    let mut g = Bench::group("table34_effort");
    g.bench_function("module_stmt_counts+hours", || {
        let manual: std::collections::BTreeMap<_, _> = eval
            .module_stmt_counts()
            .into_iter()
            .map(|(m, (_, man))| (m, man))
            .collect();
        dev.estimate(&manual)
    });
    g.finish();
}

/// Fig. 10 — compiling and simulating the benchmark suite at -O0 and -O3.
fn bench_fig10_perf() {
    let corpus = Corpus::build(&CorpusConfig::tiny());
    let t = corpus.target("RISCV").unwrap();
    let vm = BackendVm::new(&t.spec, &t.backend);
    let kernels = benchmark_suite();
    let mut g = Bench::group("fig10_perf");
    g.bench_function("suite_O0_and_O3", || {
        let mut total = 0.0;
        for k in &kernels {
            total += run_kernel(k, &vm, OptLevel::O0).unwrap().cycles;
            total += run_kernel(k, &vm, OptLevel::O3).unwrap().cycles;
        }
        total
    });
    g.finish();
}

/// §4.1.2 — Stage 1 code-feature mapping over the whole corpus.
fn bench_stage1_mapping() {
    let corpus = Corpus::build(&CorpusConfig::tiny());
    let mut g = Bench::group("stage1_code_feature_mapping");
    g.bench_function("templates+features(all groups)", || {
        let catalog = vega::prop_catalog(corpus.llvm_fs());
        let mut ixs = std::collections::BTreeMap::new();
        for t in corpus.training_targets() {
            ixs.insert(t.spec.name.clone(), vega::TgtIndex::build(&t.descriptions));
        }
        let mut n = 0usize;
        for (name, (_, members)) in corpus.function_groups(false) {
            let template = vega::FunctionTemplate::build(&name, &members);
            let feats = vega::select_features(&template, &catalog, &ixs);
            n += feats.props.len();
        }
        n
    });
    g.finish();
}

fn main() {
    bench_fig7_inference();
    bench_fig8_passk();
    bench_table2_taxonomy();
    bench_fig9_forkflow();
    bench_table34_effort();
    bench_fig10_perf();
    bench_stage1_mapping();
}
