//! `vega-ckpt/v2` checkpoint tests: a save/load round trip re-encodes to
//! the same bytes, a mapped model shares weights until written
//! (copy-on-write), and bad files are rejected with named errors — a missing
//! file, truncation, bit flips, version skew, a doctored tensor table, and an
//! injected crash mid-save.
//!
//! Everything runs in one `#[test]` because the fault plan is process-global
//! and the scenarios install and clear plans.

use std::path::Path;
use vega_cpplite::lex;
use vega_fault::FaultPlan;
use vega_model::{
    encode_v2, tmp_path, tokens_to_pieces, CkptError, CodeBe, TrainConfig, Vocab, CKPT_FORMAT_V2,
    V2_MAGIC,
};
use vega_nn::TransformerConfig;

/// A tiny transformer CodeBE over the pieces of `samples`, plus the encoded
/// sequences (mirrors the model crate's own unit-test helper).
fn tiny_model(samples: &[&str]) -> (CodeBe, Vec<Vec<usize>>) {
    let mut all_pieces: Vec<String> = Vec::new();
    for s in samples {
        all_pieces.extend(tokens_to_pieces(&lex(s).unwrap()));
    }
    let vocab = Vocab::build(all_pieces.iter().map(String::as_str));
    let seqs = samples
        .iter()
        .map(|s| vocab.encode_pieces(&tokens_to_pieces(&lex(s).unwrap())))
        .collect();
    (CodeBe::transformer(vocab, TransformerConfig::tiny), seqs)
}

/// Patches the v2 digest field after a deliberate header mutation, so the
/// file passes the integrity check and exercises the *structural* tensor
/// validation behind it.
fn refresh_digest(bytes: &mut [u8]) {
    let digest = vega_fault::fnv1a_64(&bytes[24..]);
    bytes[16..24].copy_from_slice(&digest.to_le_bytes());
}

#[test]
fn v2_checkpoints_roundtrip_share_weights_and_reject_corruption() {
    let dir = std::env::temp_dir().join("vega-model-ckpt-v2");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.ckpt");
    let (mut model, seqs) = tiny_model(&["x = 1;", "return x;"]);
    // Train a little so the weights are not at init.
    let mut cfg = TrainConfig::tiny();
    cfg.finetune_epochs = 3;
    model.finetune(&[(seqs[0].clone(), seqs[1].clone())], &cfg);
    let encoded = encode_v2(&model);
    let baseline = model.generate(&seqs[0], 8);
    let base_lp = model.sequence_logprob(&seqs[0], &seqs[1]);

    // --- save -> load: the format tag, bit-identical weights --------------
    model.save_file_v2(&path).unwrap();
    assert!(!tmp_path(&path).exists());
    let raw = std::fs::read(&path).unwrap();
    assert_eq!(&raw[..8], &V2_MAGIC);
    assert_eq!(raw, encoded, "the file holds exactly the encoded bytes");
    let (mapped, fmt) = CodeBe::load_file_detect(&path).unwrap();
    assert_eq!(fmt, CKPT_FORMAT_V2);
    assert_eq!(
        encode_v2(&mapped),
        raw,
        "a loaded model must re-encode to the bytes it was loaded from"
    );
    assert_eq!(mapped.generate(&seqs[0], 8), baseline);
    assert_eq!(
        mapped.sequence_logprob(&seqs[0], &seqs[1]).to_bits(),
        base_lp.to_bits(),
        "logprobs must agree to the bit across a save and load"
    );
    assert_eq!(encode_v2(&CodeBe::load_file(&path).unwrap()), raw);

    // --- shared storage + copy-on-write ----------------------------------
    #[cfg(target_endian = "little")]
    assert_eq!(
        mapped.owned_scalars(),
        0,
        "a freshly loaded v2 model owns no weight data"
    );
    let mut replica = mapped.clone();
    replica.finetune(&[(seqs[1].clone(), seqs[0].clone())], &cfg);
    assert!(
        replica.owned_scalars() > 0,
        "training must copy tensors out of the mapping"
    );
    #[cfg(target_endian = "little")]
    assert_eq!(
        mapped.owned_scalars(),
        0,
        "training a replica must not detach the source model's weights"
    );
    assert_eq!(
        mapped.generate(&seqs[0], 8),
        baseline,
        "the mapped model must be untouched by replica training"
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        raw,
        "the on-disk checkpoint must be untouched by replica training"
    );
    assert_eq!(
        encode_v2(&mapped),
        raw,
        "replica training must not change what the mapped model encodes to"
    );

    // --- missing file: named Io error --------------------------------------
    assert!(matches!(
        CodeBe::load_file(Path::new("/nonexistent/model.ckpt")),
        Err(CkptError::Io(_))
    ));

    // --- truncation below the prologue: named Binary error ----------------
    let stub = dir.join("stub.ckpt");
    std::fs::write(&stub, &raw[..10]).unwrap();
    match CodeBe::load_file(&stub) {
        Err(CkptError::Binary { format, offset, .. }) => {
            assert_eq!(format, "vega-ckpt/v2");
            assert_eq!(offset, 10);
        }
        other => panic!("10-byte stub must be a Binary error, got {other:?}"),
    }

    // --- truncation mid-data: DigestMismatch ------------------------------
    let cut = dir.join("cut.ckpt");
    std::fs::write(&cut, &raw[..raw.len() - 3]).unwrap();
    assert!(
        matches!(
            CodeBe::load_file(&cut),
            Err(CkptError::DigestMismatch { .. })
        ),
        "a truncated data region must fail the digest check"
    );

    // --- bit flip in the weight data: DigestMismatch ----------------------
    let mut flipped = raw.clone();
    let n = flipped.len();
    flipped[n - 40] ^= 0x10;
    let bad = dir.join("bitflip.ckpt");
    std::fs::write(&bad, &flipped).unwrap();
    match CodeBe::load_file(&bad) {
        Err(CkptError::DigestMismatch { expected, found }) => assert_ne!(expected, found),
        other => panic!("bit flip must be a DigestMismatch, got {other:?}"),
    }

    // --- header length overrun: Binary error at the length field ----------
    let mut overrun = raw.clone();
    overrun[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    let opath = dir.join("overrun.ckpt");
    std::fs::write(&opath, &overrun).unwrap();
    match CodeBe::load_file(&opath) {
        Err(CkptError::Binary { offset, .. }) => assert_eq!(offset, 8),
        other => panic!("header overrun must be a Binary error, got {other:?}"),
    }

    // --- future version byte: named VersionMismatch -----------------------
    let mut future = raw.clone();
    future[7] = b'3'; // VEGACKP3
    let fpath = dir.join("future.ckpt");
    std::fs::write(&fpath, &future).unwrap();
    match CodeBe::load_file(&fpath) {
        Err(CkptError::VersionMismatch { found }) => assert!(found.contains("VEGACKP3")),
        other => panic!("future magic must be a VersionMismatch, got {other:?}"),
    }

    // --- doctored tensor table (valid digest, bogus offset) ---------------
    // The first tensor sits at offset 0; nudging it to 1 breaks f32
    // alignment, which the loader must catch by bounds/alignment checks,
    // not by reading garbage.
    let mut doctored = raw.clone();
    let needle = b"\"off\":0";
    let at = doctored
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("header contains a tensor at offset 0");
    doctored[at + needle.len() - 1] = b'1';
    refresh_digest(&mut doctored);
    let dpath = dir.join("doctored.ckpt");
    std::fs::write(&dpath, &doctored).unwrap();
    match CodeBe::load_file(&dpath) {
        Err(CkptError::Payload(msg)) => assert!(
            msg.contains("byte"),
            "tensor-table rejection must name a byte offset, got: {msg}"
        ),
        other => panic!("doctored tensor table must be a Payload error, got {other:?}"),
    }

    // --- injected crash mid-save leaves the previous v2 file intact -------
    let (newer, _) = tiny_model(&["return Value & 255;", "y = 2;"]);
    vega_fault::set_plan(Some(
        FaultPlan::parse(&format!("{}=@0", vega_fault::sites::CKPT_SAVE_CRASH)).unwrap(),
    ));
    let crashed = newer.save_file_v2(&path);
    vega_fault::set_plan(None);
    assert!(matches!(crashed, Err(CkptError::InjectedCrash)));
    assert_eq!(
        std::fs::read(&path).unwrap(),
        raw,
        "a crash mid-save must not touch the previous v2 checkpoint"
    );
    let tmp = tmp_path(&path);
    assert!(tmp.exists());
    assert!(
        CodeBe::load_file(&tmp).is_err(),
        "the partial temp file must never load as a checkpoint"
    );
    assert!(
        vega_obs::global().counter(&format!(
            "fault.injected.{}",
            vega_fault::sites::CKPT_SAVE_CRASH
        )) >= 1
    );

    // A clean re-save replaces the checkpoint normally afterwards.
    newer.save_file_v2(&path).unwrap();
    assert_ne!(std::fs::read(&path).unwrap(), raw);
    CodeBe::load_file(&path).unwrap();

    std::fs::remove_dir_all(&dir).ok();
}
