//! Fast tier-1 guards for the crate contracts: one representative case per
//! contract, so `cargo test` at the workspace root catches what the full
//! crate suites under `ci.sh` catch, in seconds.

use std::sync::{Mutex, MutexGuard};
use vega_cpplite::lex;
use vega_model::{tokens_to_pieces, CodeBe, Vocab};
use vega_nn::decode::softmax_row;
use vega_nn::{GruConfig, Seq2Seq, Transformer, TransformerConfig};

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
