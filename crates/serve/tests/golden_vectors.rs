//! Golden vectors pinning the serve hash and cache-key formats.
//!
//! The cache key and the target/model digests are part of the trace
//! contract: loadgen, the JSONL trace, and cross-run determinism checks all
//! compare them textually. These constants were computed once from the
//! two-lane FNV-1a definition in `serve::hash`; if any of them changes, the
//! on-the-wire key format changed and every cached/traced digest in the
//! wild is invalidated — that must be a deliberate, versioned decision
//! (bump the `vega-serve/v3` domain string), never an accident. Two such
//! decisions have happened: v1 → v2 appended the kernel mode (`scalar` |
//! `avx2`) as the final field, so cached payloads could never be served
//! across kernel modes whose low bits differed; v2 → v3 dropped that field
//! again once every kernel ISA computed the same bits, so one key now
//! addresses the same payload whichever ISA runs.
//!
//! The model digest's *input* changed once without changing the key
//! format: `Engine::model_digest` used to hash the model's JSON
//! serialization and now hashes its `vega-ckpt/v2` bytes under the
//! `vega-ckpt/v2` tag (`vega_serve::engine::model_digest`). Equal digests
//! still mean identical weights, and the key's field sequence and the
//! vectors below are unchanged, but every model digest, and so every cache
//! key, has a new value: keys recorded before that change do not match
//! keys computed after it.

use vega_serve::hash::{digest_str, StableHasher};

#[test]
fn digest_str_golden_vectors() {
    assert_eq!(digest_str(""), "559814a3c99499dfa8c7f832281a39c5");
    assert_eq!(digest_str("abc"), "529ecc3a0fdfe6eac11ab6d2519bc2b2");
    assert_eq!(
        digest_str("vega-serve/v1"),
        "ddeb43d8fefe8eb5172ac9838de85c7d"
    );
    assert_eq!(
        digest_str("vega-serve/v2"),
        "ddeb40d8fefe899c172ac6838de85764"
    );
    assert_eq!(
        digest_str("getRelocType"),
        "691c4651214229c2d2216287e01a8e94"
    );
    assert_eq!(digest_str("RISCV"), "ddfa6a5971f390c7c3645c37b6362717");
}

#[test]
fn cache_key_format_golden_vector() {
    // The exact field sequence Engine::cache_key feeds: domain string, model
    // digest, target name, target-description digest, function group, then
    // the signature feature ids. Synthetic stand-ins keep the vector
    // independent of any trained model.
    let mut h = StableHasher::new();
    h.write_str("vega-serve/v3");
    h.write_str("0123456789abcdef0123456789abcdef");
    h.write_str("RISCV");
    h.write_str("fedcba9876543210fedcba9876543210");
    h.write_str("getRelocType");
    h.write_ids(&[1, 2, 3, 40, 500]);
    assert_eq!(h.finish_hex(), "992579133e4a35745cb13e46ca1a7482");
}

#[test]
fn key_shape_is_stable() {
    // 32 lowercase hex chars, pure function of input, order-sensitive.
    let k = digest_str("anything");
    assert_eq!(k.len(), 32);
    assert!(k
        .chars()
        .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
    assert_eq!(digest_str("anything"), k);

    let mut a = StableHasher::new();
    a.write_str("x");
    a.write_str("y");
    let mut b = StableHasher::new();
    b.write_str("y");
    b.write_str("x");
    assert_ne!(a.finish_hex(), b.finish_hex(), "field order must matter");
}

#[test]
fn fault_layer_fnv_golden_vectors() {
    // The checkpoint digest and the fault-plan site hashing share
    // this single-lane FNV-1a; pin the canonical test vectors.
    assert_eq!(vega_fault::fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(vega_fault::fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(vega_fault::fnv1a_64(b"abc"), 0xe71f_a219_0541_574b);
}
