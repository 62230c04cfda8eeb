//! Fast tier-1 guards for the crate contracts: one representative case per
//! contract, so `cargo test` at the workspace root catches what the full
//! crate suites under `ci.sh` catch, in seconds.

use std::sync::{Mutex, MutexGuard};
use vega::{generate_function, TgtIndex, Vega, VegaConfig};
use vega_cpplite::lex;
use vega_model::{encode_v2, tokens_to_pieces, CkptError, CodeBe, TrainConfig, Vocab};
use vega_nn::decode::softmax_row;
use vega_nn::kernel::{self, avx2_available};
use vega_nn::{GruConfig, GruSeq2Seq, Isa, Seq2Seq, TensorTable, Transformer, TransformerConfig};
use vega_obs::json::Json;
use vega_serve::{protocol, Client, Engine, ServeConfig, Server};

/// Serializes this file's tests: the obs counters some of them read are
/// process-global, and every test here runs an encoder.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A vocabulary over one C++ line and that line's ids.
fn line_vocab() -> (Vocab, Vec<usize>) {
    let source = "if (Kind == FK_Data_4) return Value & 0xffff; else return Value >> 2;";
    let pieces = tokens_to_pieces(&lex(source).expect("source lexes"));
    let vocab = Vocab::build(pieces.iter().map(String::as_str));
    let input = vocab.encode_pieces(&pieces);
    (vocab, input)
}

/// Decode session: one encoding serves a greedy decode, every candidate
/// score and a second decode, each bit-identical to the per-call path that
/// encodes afresh — for the transformer and the GRU. The candidates include
/// an empty one and one longer than the tiny models' `max_len`.
#[test]
fn decode_session_matches_per_call_bitwise() {
    let _serial = serial();
    let (vocab, input) = line_vocab();
    let n = vocab.len();
    let candidates: Vec<Vec<usize>> = vec![
        input[..6].to_vec(),
        Vec::new(),
        (0..40).map(|i| 4 + (i * 5) % (n - 4)).collect(),
        input[3..5].to_vec(),
    ];
    for model in [
        CodeBe::transformer(vocab.clone(), TransformerConfig::tiny),
        CodeBe::gru(vocab.clone(), GruConfig::tiny),
    ] {
        let arch = model.arch_name();
        let want_decode = model.try_generate(&input, 16, None).unwrap();
        let want_scores: Vec<u32> = candidates
            .iter()
            .map(|c| {
                model
                    .try_sequence_logprob(&input, c, None)
                    .unwrap()
                    .to_bits()
            })
            .collect();
        let mut session = model.session(&input);
        assert_eq!(
            session.try_generate(16, None).unwrap(),
            want_decode,
            "{arch}"
        );
        for (c, want) in candidates.iter().zip(&want_scores) {
            let got = session.try_sequence_logprob(c, None).unwrap().to_bits();
            assert_eq!(got, *want, "{arch}: candidate {c:?}");
        }
        assert_eq!(
            session.try_generate(16, None).unwrap(),
            want_decode,
            "{arch}"
        );
    }
}

/// Batched scoring: one `try_sequence_logprobs` call returns, for every
/// candidate, the bits `try_sequence_logprob` gives on a fresh session —
/// for ragged candidates sharing a multi-token prefix, candidates sharing
/// only BOS, duplicates, a single candidate, an empty list and a set with
/// one candidate past `max_len` — for the transformer and the GRU. All sets
/// run on one session, which runs the encoder exactly once.
#[test]
fn batched_scoring_matches_per_candidate_bitwise() {
    let _serial = serial();
    let (vocab, input) = line_vocab();
    let n = vocab.len();
    let prefixed = |tail: &[usize]| -> Vec<usize> { [&input[..4], tail].concat() };
    let long: Vec<usize> = (0..40).map(|i| 4 + (i * 5) % (n - 4)).collect();
    let sets: Vec<Vec<Vec<usize>>> = vec![
        vec![
            prefixed(&input[6..8]),
            prefixed(&input[4..9]),
            prefixed(&[]),
            prefixed(&input[9..10]),
        ],
        vec![
            input[2..5].to_vec(),
            input[5..7].to_vec(),
            input[8..9].to_vec(),
        ],
        vec![
            input[3..6].to_vec(),
            input[3..6].to_vec(),
            input[1..4].to_vec(),
        ],
        vec![input[..6].to_vec()],
        Vec::new(),
        vec![input[..3].to_vec(), long.clone(), long[..10].to_vec()],
    ];
    let encoder_runs = || vega_obs::global().counter("decode.encoder_runs");
    for model in [
        CodeBe::transformer(vocab.clone(), TransformerConfig::tiny),
        CodeBe::gru(vocab.clone(), GruConfig::tiny),
    ] {
        let arch = model.arch_name();
        let want: Vec<Vec<u32>> = sets
            .iter()
            .map(|set| {
                set.iter()
                    .map(|c| {
                        model
                            .try_sequence_logprob(&input, c, None)
                            .unwrap()
                            .to_bits()
                    })
                    .collect()
            })
            .collect();
        let before = encoder_runs();
        let mut session = model.session(&input);
        for (set, want) in sets.iter().zip(&want) {
            let got = session.try_sequence_logprobs(set, None).unwrap();
            let got: Vec<u32> = got.iter().map(|s| s.to_bits()).collect();
            assert_eq!(&got, want, "{arch}: candidates {set:?}");
        }
        assert_eq!(
            encoder_runs() - before,
            1,
            "{arch}: one session, one encoding"
        );
    }
}

/// One decoder forward: single steps and one `step_many` over the same
/// tokens give the same logits bits row by row, and `forced_logprobs` over
/// two pairs that share a 3-token prefix (the prefix fed once, each tail on
/// its own fork of the cache) scores each pair exactly as a sum, in
/// position order, over single-step logits rows run through `softmax_row`.
#[test]
fn decoder_forward_paths_agree_bitwise() {
    let _serial = serial();
    let bits = |row: &[f32]| -> Vec<u32> { row.iter().map(|v| v.to_bits()).collect() };
    let (vocab, bos, eos) = (12, 0, 1);
    let mut tf = Transformer::new(TransformerConfig::tiny(vocab));
    for _ in 0..20 {
        for pair in [[2, 3, 4, 5], [6, 7, 8, 9], [4, 9, 2, 7]] {
            tf.train_example(&pair, &pair, bos, eos);
        }
        tf.step(3e-3);
    }
    let src = [2, 3, 4, 5];
    let feed = [bos, 2, 3, 4, 5, 9, 11];

    let mut st = tf.begin_decode(&src);
    let stepped: Vec<Vec<u32>> = feed.iter().map(|&t| bits(st.step(t))).collect();
    let mut st = tf.begin_decode(&src);
    assert_eq!(bits(st.step_many(&feed)), stepped.concat(), "step_many");

    let pairs: Vec<(Vec<usize>, Vec<usize>)> = vec![
        (feed.to_vec(), vec![2, 3, 4, 5, 9, 11, eos]),
        ([&feed[..3], &[7, 6]].concat(), vec![2, 3, 7, 6, eos]),
    ];
    let forked = tf.begin_decode(&src).forced_logprobs(&pairs);
    for (i, (tgt_in, tgt_out)) in pairs.iter().enumerate() {
        let mut st = tf.begin_decode(&src);
        let mut lp = 0.0f32;
        for (&from, &to) in tgt_in.iter().zip(tgt_out) {
            let mut row = st.step(from).to_vec();
            softmax_row(&mut row);
            lp += row[to].max(1e-12).ln();
        }
        assert_eq!(forked[i].to_bits(), lp.to_bits(), "fork, pair {i}");
    }
}

/// Every model path the kernel tier serves, run under `isa`: labelled bit
/// patterns in a fixed order. Training runs the graph forward and backward
/// (both orientations of `Tensor::matmul`, layer norm, softmax max); the
/// decode paths run the row kernels.
fn isa_trace(isa: Isa) -> Vec<(&'static str, Vec<u32>)> {
    kernel::set_mode(isa);
    let bits = |row: &[f32]| -> Vec<u32> { row.iter().map(|v| v.to_bits()).collect() };
    let ids = |toks: &[usize]| -> Vec<u32> { toks.iter().map(|&t| t as u32).collect() };
    // 40 logits fill one 32-element block and one 8-element block of the
    // lane tree.
    let (vocab, bos, eos) = (40, 0, 1);
    let mut tf = Transformer::new(TransformerConfig::tiny(vocab));
    let mut losses = Vec::new();
    for _ in 0..4 {
        for pair in [[2, 13, 24, 35, 7], [38, 3, 19, 4, 30], [9, 9, 21, 33, 2]] {
            losses.push(tf.train_example(&pair, &pair, bos, eos));
        }
        tf.step(3e-3);
    }
    let mut table = TensorTable::new();
    tf.to_json_value_tabled(&mut table);
    let weights: Vec<u32> = table
        .into_bytes()
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();

    let src = [2, 13, 24, 35, 7];
    let pairs: Vec<(Vec<usize>, Vec<usize>)> = vec![
        (vec![bos, 2, 13, 24, 35], vec![2, 13, 24, 35, eos]),
        (vec![bos, 2, 13, 5], vec![2, 13, 5, eos]),
    ];
    let greedy = ids(&tf.greedy(&src, bos, eos, 16));
    let mut st = tf.begin_decode(&src);
    st.step(bos);
    let step_row = bits(st.step(2));
    let forked = bits(&st.forced_logprobs(&pairs));
    let graph = tf.forced_logprob_graph(&src, &pairs[0].0, &pairs[0].1);

    let mut gru = GruSeq2Seq::new(GruConfig::tiny(vocab));
    let gru_greedy = ids(&gru.greedy(&src, bos, eos, 16));
    let gru_lp = gru.forced_logprob(&src, &pairs[1].0, &pairs[1].1);
    vec![
        ("training losses", bits(&losses)),
        ("trained weights", weights),
        ("greedy stream", greedy),
        ("step logits row", step_row),
        ("forced_logprobs", forked),
        ("forced_logprob_graph", bits(&[graph])),
        ("GRU greedy stream", gru_greedy),
        ("GRU forced_logprob", bits(&[gru_lp])),
    ]
}

/// Every kernel ISA computes the same bits: a tiny transformer trained a
/// few steps from its seed, its greedy stream, a decode-step logits row,
/// forked scoring over pairs sharing a prefix, the graph scorer, and a
/// tiny GRU's greedy stream and score, recorded once under the scalar
/// kernel and once under AVX2, are equal bit for bit. On a CPU without AVX2
/// the AVX2 leg is skipped with a notice.
#[test]
fn kernel_isas_agree_bitwise() {
    let _serial = serial();
    let scalar = isa_trace(Isa::Scalar);
    let avx2 = avx2_available().then(|| isa_trace(Isa::Avx2));
    kernel::set_mode(Isa::detect());
    let Some(avx2) = avx2 else {
        eprintln!("kernel_isas_agree_bitwise: CPU lacks AVX2; AVX2 leg skipped");
        return;
    };
    for ((what, s), (_, a)) in scalar.iter().zip(&avx2) {
        if let Some(i) = s.iter().zip(a).position(|(x, y)| x != y) {
            panic!(
                "{what}: value {i} differs, scalar {:#010x} vs avx2 {:#010x}",
                s[i], a[i]
            );
        }
        assert_eq!(s.len(), a.len(), "{what}: lengths differ");
    }
}

/// Checkpoint: a tiny transformer saved as `vega-ckpt/v2` and loaded back
/// re-encodes to the file's bytes, and scores and decodes bit-identically to
/// the in-memory model. A flipped data byte fails the digest, a 10-byte stub
/// fails at byte 10, and a JSON file is not a checkpoint.
#[test]
fn v2_checkpoint_round_trips_bitwise_and_rejects_corruption() {
    let _serial = serial();
    let (vocab, input) = line_vocab();
    let model = CodeBe::transformer(vocab, TransformerConfig::tiny);
    let dir = std::env::temp_dir().join(format!("vega-contracts-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.ckpt");
    model.save_file_v2(&path).unwrap();
    let raw = std::fs::read(&path).unwrap();
    let loaded = CodeBe::load_file(&path).unwrap();
    assert!(
        encode_v2(&loaded) == raw,
        "re-encoding differs from the file"
    );
    let output = &input[2..7];
    assert_eq!(
        loaded.sequence_logprob(&input, output).to_bits(),
        model.sequence_logprob(&input, output).to_bits()
    );
    assert_eq!(loaded.generate(&input, 16), model.generate(&input, 16));

    let load = |name: &str, bytes: &[u8]| -> CkptError {
        let bad = dir.join(name);
        std::fs::write(&bad, bytes).unwrap();
        match CodeBe::load_file(&bad) {
            Err(e) => e,
            Ok(_) => panic!("{name} loaded as a checkpoint"),
        }
    };
    let mut flipped = raw.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x10;
    let err = load("flipped.ckpt", &flipped);
    assert!(matches!(err, CkptError::DigestMismatch { .. }), "{err}");
    let err = load("stub.ckpt", &raw[..10]);
    assert!(matches!(err, CkptError::Binary { offset: 10, .. }), "{err}");
    let err = load("model.json", br#"{"vocab":{"pieces":[]},"model":{}}"#);
    assert!(matches!(err, CkptError::Corrupt(_)), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a of the v2 checkpoint [`training_bits_are_pinned_at_every_pool_size`]
/// trains, recorded from the code whose `Tensor::matmul` still chose among
/// an untiled loop, a 64-wide k-tiled loop and a row-block fan-out.
const TRAINED_CKPT_DIGEST: u64 = 0x948c_7543_8255_07cb;

/// Training bits: a small-config transformer pretrained for a few denoising
/// steps and fine-tuned for one epoch writes the same v2 checkpoint at
/// `vega_par` pool sizes 1 and 4, and its bytes digest to
/// [`TRAINED_CKPT_DIGEST`]. The lengths give every product size the old
/// dispatch told apart: the 5- and 6-token sequences' projections stay under
/// 2^15 multiply-adds, the feed-forward layers of the longer ones run
/// between 2^15 and 2^18, and the 48-token logits (228-piece vocabulary)
/// and their gradients pass 2^18 over more than 16 rows. Pretraining runs
/// on the calling thread, so at pool size 4 those products were the ones
/// that fanned out.
#[test]
fn training_bits_are_pinned_at_every_pool_size() {
    let _serial = serial();
    let vocab = Vocab::build(std::iter::empty());
    let n = vocab.len();
    let seq = |len: usize, salt: usize| -> Vec<usize> {
        (0..len)
            .map(|i| 11 + (i * 7 + salt * 31) % (n - 11))
            .collect()
    };
    let sequences = [seq(48, 1), seq(6, 2), seq(20, 3)];
    let pairs: Vec<(Vec<usize>, Vec<usize>)> = (0..12)
        .map(|i| (seq([5, 30, 12][i % 3], i), seq([7, 40, 10][i % 3], i + 5)))
        .collect();
    let cfg = TrainConfig {
        pretrain_steps: 6,
        finetune_epochs: 1,
        lr: 2e-3,
        seed: 3,
    };
    let train = |pool: usize| -> Vec<u8> {
        vega_par::set_threads(pool);
        let mut model = CodeBe::transformer(vocab.clone(), TransformerConfig::small);
        model.pretrain(&sequences, cfg.pretrain_steps, cfg.lr, cfg.seed);
        model.finetune(&pairs, &cfg);
        encode_v2(&model)
    };
    let (one, four) = (train(1), train(4));
    vega_par::set_threads(0);
    assert!(
        one == four,
        "pool sizes 1 and 4 wrote different checkpoints"
    );
    let digest = vega_fault::fnv1a_64(&one);
    assert_eq!(
        digest, TRAINED_CKPT_DIGEST,
        "trained checkpoint digest {digest:#018x} moved"
    );
}

/// Rank once per statement: generating a function ranks each (preorder
/// node, slot) pair whose slot has a property with a value source exactly
/// once, counted in `generate.slot_rankings`. The feature vector,
/// realization and the dropped-statement record all read that one ranking,
/// so the count holds for kept and dropped statements alike (the case
/// requires both to occur).
#[test]
fn generation_ranks_each_slot_once() {
    let _serial = serial();
    let vega = Vega::train(VegaConfig::tiny());
    let ix = TgtIndex::build(vega.corpus.tgt_fs("RISCV").expect("RISCV descriptions"));
    let rankings = || vega_obs::global().counter("generate.slot_rankings");
    let (mut ranked, mut kept, mut dropped) = (0, 0, 0);
    for bundle in vega.templates.values() {
        let (template, feats) = (&bundle.template, &bundle.features);
        let want: usize = template
            .preorder()
            .into_iter()
            .map(|node| {
                (0..template.stmts[node].slots.len())
                    .filter(|&slot| {
                        feats
                            .slot_props
                            .get(&(node, slot))
                            .is_some_and(|&p| feats.props[p].source.is_some())
                    })
                    .count()
            })
            .sum();
        let before = rankings();
        let f = generate_function(
            vega.model(),
            "RISCV",
            template,
            feats,
            &ix,
            &vega.catalog,
            vega.max_input_len(),
        );
        assert_eq!(rankings() - before, want as u64, "{}", template.name);
        ranked += want;
        kept += f.stmts.iter().skip(1).filter(|s| s.kept).count();
        dropped += f.stmts.iter().skip(1).filter(|s| !s.kept).count();
    }
    assert!(
        ranked > 0 && kept > 0 && dropped > 0,
        "{ranked} rankings over {kept} kept and {dropped} dropped statements"
    );
}

/// The served `backend` op, cold and cached: on the tiny pipeline behind an
/// in-process server, a cold `backend` request and its cached repeat answer
/// the same line byte for byte, and that line is the one rendered from
/// direct `Engine::generate` output. A cached `generate` carries the same
/// `result` bytes as its miss.
#[test]
fn served_cache_hits_are_byte_identical() {
    let _serial = serial();
    let engine = Engine::new(Vega::train(VegaConfig::tiny()));
    let (targets, groups) = (engine.target_names(), engine.group_names());
    let (backend_target, generate_target, group) = (&targets[0], &targets[1], &groups[0]);
    let direct = |target: &str, group: &str| -> Json {
        let (module, f) = engine.generate(target, group).expect("direct generation");
        protocol::render_generated(target, group, module, &f)
    };
    let expected_backend = protocol::ok_response(
        &Json::Null,
        [
            ("target", Json::str(backend_target.as_str())),
            (
                "functions",
                Json::Arr(groups.iter().map(|g| direct(backend_target, g)).collect()),
            ),
            ("errors", Json::Arr(Vec::new())),
        ],
    );
    let expected_result = direct(generate_target, group).render();

    let server = Server::start(
        engine,
        ServeConfig {
            batch: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind 127.0.0.1:0");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let backend = format!(r#"{{"op":"backend","target":"{backend_target}"}}"#);
    let cold = client.request_raw(&backend).expect("cold backend");
    let cold_stats = server.stats();
    let cached = client.request_raw(&backend).expect("cached backend");
    let cached_stats = server.stats();
    assert_eq!(
        (cold_stats.generated, cold_stats.cache_hits),
        (groups.len() as u64, 0),
        "the first backend request generates every group"
    );
    assert_eq!(
        (cached_stats.generated, cached_stats.cache_hits),
        (groups.len() as u64, groups.len() as u64),
        "the repeat is answered from the cache"
    );
    assert!(
        cold == expected_backend,
        "cold backend line differs from direct generation"
    );
    assert!(
        cached == cold,
        "cached backend line differs from the cold one"
    );

    let mut result = |cached: bool| -> String {
        let resp = client
            .generate(generate_target, group, None)
            .expect("generate");
        assert_eq!(
            resp.field("cached").unwrap(),
            &Json::Bool(cached),
            "{}",
            resp.render()
        );
        resp.field("result").unwrap().render()
    };
    let miss = result(false);
    assert_eq!(
        miss, expected_result,
        "served result differs from direct generation"
    );
    assert_eq!(result(true), miss, "cached result differs from its miss");
    server.shutdown();
    server.join();
}
