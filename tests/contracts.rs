//! Fast tier-1 guards for the crate contracts: one representative case per
//! contract, so `cargo test` at the workspace root catches what the full
//! crate suites under `ci.sh` catch, in seconds.

use vega_cpplite::lex;
use vega_model::{tokens_to_pieces, CodeBe, Vocab};
use vega_nn::{
    speculative_greedy, BatchDecode, GruConfig, GruSeq2Seq, Seq2Seq, Transformer, TransformerConfig,
};

/// Decode session: one encoding serves a greedy decode, every candidate
/// score and a second decode, each bit-identical to the per-call path that
/// encodes afresh — for the transformer and the GRU. The candidates include
/// an empty one and one longer than the tiny models' `max_len`.
#[test]
fn decode_session_matches_per_call_bitwise() {
    let source = "if (Kind == FK_Data_4) return Value & 0xffff; else return Value >> 2;";
    let pieces = tokens_to_pieces(&lex(source).expect("source lexes"));
    let vocab = Vocab::build(pieces.iter().map(String::as_str));
    let input = vocab.encode_pieces(&pieces);
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

/// One decoder forward: single steps, one `step_many` over the same tokens
/// and a batch slot (run beside a second session, across a retire and a
/// re-join) give the same logits bits row by row; speculative greedy
/// returns plain greedy's tokens; and a GRU batch slot, run the same way,
/// matches its single-session mirror.
#[test]
fn decoder_forward_paths_agree_bitwise() {
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
