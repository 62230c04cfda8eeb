//! 1-thread vs N-thread wall-clock for one data-parallel fine-tune epoch,
//! whose gradient shards fan out over the `vega-par` pool. The outputs are
//! bit-identical across rows by construction — only the wall-clock may
//! differ (on a single-core host the rows should roughly tie).

use vega_bench::Bench;
use vega_cpplite::lex;
use vega_model::{tokens_to_pieces, CodeBe, TrainConfig, Vocab};
use vega_nn::TransformerConfig;

fn bench_finetune_epoch(threads: &[usize]) {
    // A small synthetic mapping task, big enough to fill several
    // micro-batches so the gradient shards actually fan out.
    let samples = [
        "x = 1;",
        "return x;",
        "y = x & 255;",
        "return y;",
        "z = x + y;",
        "return z;",
        "x = z;",
        "return 0;",
    ];
    let mut all_pieces: Vec<String> = Vec::new();
    for s in &samples {
        all_pieces.extend(tokens_to_pieces(&lex(s).unwrap()));
    }
    let vocab = Vocab::build(all_pieces.iter().map(String::as_str));
    let seqs: Vec<Vec<usize>> = samples
        .iter()
        .map(|s| vocab.encode_pieces(&tokens_to_pieces(&lex(s).unwrap())))
        .collect();
    let pairs: Vec<(Vec<usize>, Vec<usize>)> = (0..seqs.len())
        .map(|i| (seqs[i].clone(), seqs[(i + 1) % seqs.len()].clone()))
        .collect();
    let base = CodeBe::transformer(vocab, TransformerConfig::tiny);
    let cfg = TrainConfig {
        pretrain_steps: 0,
        finetune_epochs: 1,
        lr: 3e-3,
        seed: 1,
    };
    let mut g = Bench::group("finetune epoch (8 pairs, tiny transformer)");
    for &t in threads {
        vega_par::set_threads(t);
        g.bench_function(&format!("{t} thread(s)"), || {
            let mut m = base.clone();
            m.finetune(&pairs, &cfg)
        });
    }
    vega_par::set_threads(0);
    g.finish();
}

fn main() {
    let n = vega_par::threads().max(4);
    let threads = [1, n];
    bench_finetune_epoch(&threads);
}
