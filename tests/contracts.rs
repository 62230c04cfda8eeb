//! Fast tier-1 guards for the crate contracts: one representative case per
//! contract, so `cargo test` at the workspace root catches what the full
//! crate suites under `ci.sh` catch, in seconds.

use std::sync::{Mutex, MutexGuard};
use vega_cpplite::lex;
use vega_model::{tokens_to_pieces, CodeBe, Vocab};
use vega_nn::{
    speculative_greedy, BatchDecode, GruConfig, GruSeq2Seq, Seq2Seq, Transformer, TransformerConfig,
};

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
    for mut model in [
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
    for mut model in [
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

/// One decoder forward: single steps, one `step_many` over the same tokens
/// and a batch slot (run beside a second session, across a retire and a
/// re-join) give the same logits bits row by row; speculative greedy
/// returns plain greedy's tokens; and a GRU batch slot, run the same way,
/// matches its single-session mirror.
#[test]
fn decoder_forward_paths_agree_bitwise() {
    let _serial = serial();
    let bits = |row: &[f32]| -> Vec<u32> { row.iter().map(|v| v.to_bits()).collect() };
    let (vocab, bos, eos) = (12, 0, 1);
    let mut tf = Transformer::new(TransformerConfig::tiny(vocab));
    let mut gru = GruSeq2Seq::new(GruConfig::tiny(vocab));
    for _ in 0..20 {
        for pair in [[2, 3, 4, 5], [6, 7, 8, 9], [4, 9, 2, 7]] {
            tf.train_example(&pair, &pair, bos, eos);
            gru.train_example(&pair, &pair, bos, eos);
        }
        tf.step(3e-3);
        gru.step(3e-3);
    }
    let (src, other) = ([2, 3, 4, 5], [6, 7, 8]);
    let feed = [bos, 2, 3, 4, 5, 9, 11];

    let mut st = tf.begin_decode(&src);
    let stepped: Vec<Vec<u32>> = feed.iter().map(|&t| bits(st.step(t))).collect();
    let mut st = tf.begin_decode(&src);
    assert_eq!(bits(st.step_many(&feed)), stepped.concat(), "step_many");
    let mut batch = tf.begin_batch_decode(2);
    let neighbour = batch.join(&other).unwrap();
    let slot = batch.join(&src).unwrap();
    batch.step(&[(slot, feed[0]), (neighbour, 2)]);
    batch.retire(slot);
    let slot = batch.join(&src).unwrap();
    for (i, (&t, want)) in feed.iter().zip(&stepped).enumerate() {
        batch.step(&[(neighbour, 3 + i), (slot, t)]);
        assert_eq!(&bits(batch.logits(slot)), want, "batch slot, row {i}");
    }

    for k in [1, 3] {
        let (spec, _) = speculative_greedy(&tf, &gru, &src, bos, eos, 16, k);
        assert_eq!(spec, tf.greedy(&src, bos, eos, 16), "speculation depth {k}");
    }

    let mut mirror = gru.begin_decode(&src);
    let mut batch = gru.begin_batch_decode(2);
    let neighbour = batch.join(&other).unwrap();
    let slot = batch.join(&src).unwrap();
    batch.step(&[(slot, feed[0]), (neighbour, 2)]);
    batch.retire(slot);
    let slot = batch.join(&src).unwrap();
    for (i, &t) in feed.iter().enumerate() {
        batch.step(&[(slot, t), (neighbour, 3 + i)]);
        let want = bits(mirror.step(t));
        assert_eq!(bits(batch.logits(slot)), want, "GRU batch slot, row {i}");
    }
}
