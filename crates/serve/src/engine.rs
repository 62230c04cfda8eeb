//! The generation engine: a trained [`Vega`] pipeline prepared for serving.
//!
//! Stage-1 artifacts (templates, features, the `PropList` catalog) and each
//! target's description index are built once at startup; request handling
//! only reads them. Cache keys are content addresses over everything a
//! generation depends on: the model checkpoint, the target's description
//! files, and the encoded signature feature vector — two requests with equal
//! keys are guaranteed byte-identical generations, so the server may answer
//! the second from cache.

use crate::hash::StableHasher;
use crate::protocol::ErrorKind;
use std::collections::BTreeMap;
use std::time::Instant;
use vega::{signature_feature_input, try_generate_function, GeneratedFunction, TgtIndex, Vega};
use vega_corpus::Module;
use vega_model::{CodeBe, DecodeAbort};

/// A serving-layer failure with its protocol error kind.
#[derive(Debug, Clone)]
pub struct EngineError {
    /// Protocol error classification.
    pub kind: ErrorKind,
    /// Human-readable description (names the unknown target/group and lists
    /// what exists).
    pub msg: String,
}

/// Maps a decode-backend abort to its protocol error.
fn abort_error(abort: DecodeAbort) -> EngineError {
    match abort {
        DecodeAbort::Expired => EngineError {
            kind: ErrorKind::DeadlineExceeded,
            msg: "deadline elapsed before the decode finished".into(),
        },
        DecodeAbort::Broken(msg) => EngineError {
            kind: ErrorKind::Internal,
            msg: format!("decode backend failed: {msg}"),
        },
    }
}

/// Stable digest of a model: its `vega-ckpt/v2` encoding (vocabulary, the
/// architecture header with tensor shapes, and the raw f32 bits of every
/// weight) hashed under the format tag, so equal digests mean identical
/// weights. Hashing the binary encoding avoids rendering every weight as
/// JSON text; the digest is the same for owned and checkpoint-mapped
/// tensors.
pub fn model_digest(model: &CodeBe) -> String {
    let mut h = StableHasher::new();
    h.write_str(vega_model::CKPT_FORMAT_V2);
    h.write(&vega_model::encode_v2(model));
    h.finish_hex()
}

/// Per-target serving state.
#[derive(Debug)]
struct TargetCtx {
    /// The description-file index Stage 3 resolves values against.
    ix: TgtIndex,
    /// Content digest of the description files — part of every cache key, so
    /// a corpus rebuilt with different descriptions can never alias an old
    /// cache entry.
    digest: String,
}

/// A trained pipeline plus precomputed per-target serving state.
pub struct Engine {
    vega: Vega,
    targets: BTreeMap<String, TargetCtx>,
    model_digest: String,
}

impl Engine {
    /// Prepares `vega` for serving: indexes every corpus target and
    /// fingerprints the model.
    pub fn new(vega: Vega) -> Self {
        let mut targets = BTreeMap::new();
        for t in vega.corpus.targets() {
            let mut h = StableHasher::new();
            for (path, content) in t.descriptions.iter() {
                h.write_str(path);
                h.write_str(content);
            }
            targets.insert(
                t.spec.name.clone(),
                TargetCtx {
                    ix: TgtIndex::build(&t.descriptions),
                    digest: h.finish_hex(),
                },
            );
        }
        let model_digest = model_digest(vega.model());
        Engine {
            vega,
            targets,
            model_digest,
        }
    }

    /// The underlying pipeline.
    pub fn vega(&self) -> &Vega {
        &self.vega
    }

    /// Stable digest of the model weights ([`model_digest`]), as embedded in
    /// every cache key. Two engines with equal digests generate
    /// byte-identical responses, so a hot swap between them may keep the
    /// cache.
    pub fn model_digest(&self) -> &str {
        &self.model_digest
    }

    /// Servable target names, in corpus order.
    pub fn target_names(&self) -> Vec<String> {
        self.vega
            .corpus
            .targets()
            .iter()
            .map(|t| t.spec.name.clone())
            .collect()
    }

    /// Interface-function group names, in template order.
    pub fn group_names(&self) -> Vec<String> {
        self.vega.templates.keys().cloned().collect()
    }

    /// A fresh model replica for a dispatcher worker.
    pub fn replica(&self) -> CodeBe {
        self.vega.model().clone()
    }

    /// Checks that `target` is servable.
    ///
    /// # Errors
    /// [`EngineError`] with [`ErrorKind::UnknownTarget`] listing the targets
    /// that exist.
    pub fn validate_target(&self, target: &str) -> Result<(), EngineError> {
        self.target_ctx(target).map(|_| ())
    }

    fn target_ctx(&self, target: &str) -> Result<&TargetCtx, EngineError> {
        match self.vega.corpus.try_target(target) {
            Ok(_) => Ok(&self.targets[target]),
            Err(e) => Err(EngineError {
                kind: ErrorKind::UnknownTarget,
                msg: e.to_string(),
            }),
        }
    }

    fn bundle(&self, group: &str) -> Result<&vega::TemplateBundle, EngineError> {
        self.vega.templates.get(group).ok_or_else(|| EngineError {
            kind: ErrorKind::UnknownGroup,
            msg: format!(
                "unknown function group `{group}`; available groups: {}",
                self.group_names().join(", ")
            ),
        })
    }

    /// The content address of one `(target, group)` generation.
    ///
    /// The key covers the model digest, the target name and its description
    /// digest, the group name, the exact signature feature-vector ids the
    /// model would be fed, and the active kernel mode. Everything downstream
    /// of the signature input (body feature vectors, candidate ranking) is a
    /// deterministic function of the same description index *within a kernel
    /// mode* — scalar and AVX2 kernels differ in reduction order, so the
    /// mode must be part of the address or a cache hit could cross modes and
    /// break the equal-keys-imply-byte-identical-payloads contract.
    ///
    /// # Errors
    /// [`EngineError`] with [`ErrorKind::UnknownTarget`] or
    /// [`ErrorKind::UnknownGroup`].
    pub fn cache_key(&self, target: &str, group: &str) -> Result<String, EngineError> {
        let ctx = self.target_ctx(target)?;
        let bundle = self.bundle(group)?;
        let sig_input = signature_feature_input(
            &self.vega.model().vocab,
            target,
            &bundle.template,
            &bundle.features,
            &ctx.ix,
            &self.vega.catalog,
            self.vega.max_input_len(),
        );
        let mut h = StableHasher::new();
        h.write_str("vega-serve/v2");
        h.write_str(&self.model_digest);
        h.write_str(target);
        h.write_str(&ctx.digest);
        h.write_str(group);
        h.write_ids(&sig_input);
        h.write_str(vega_nn::kernel::active_name());
        Ok(h.finish_hex())
    }

    /// Generates one function on the given model replica.
    ///
    /// # Errors
    /// [`EngineError`] with [`ErrorKind::UnknownTarget`] or
    /// [`ErrorKind::UnknownGroup`].
    pub fn generate_with(
        &self,
        model: &mut CodeBe,
        target: &str,
        group: &str,
    ) -> Result<(Module, GeneratedFunction), EngineError> {
        self.try_generate_with(model, target, group, None)
    }

    /// Generates one function on the given model replica. The local decode
    /// path ignores `deadline` and runs to completion (the server checks
    /// deadlines before dispatch); it only reaches a decode backend
    /// installed on the replica, which may abort on it.
    ///
    /// # Errors
    /// [`ErrorKind::UnknownTarget`] / [`ErrorKind::UnknownGroup`] as in
    /// [`Engine::generate_with`]; [`ErrorKind::DeadlineExceeded`] when an
    /// installed backend aborted at the deadline; [`ErrorKind::Internal`]
    /// when the backend itself failed.
    pub fn try_generate_with(
        &self,
        model: &mut CodeBe,
        target: &str,
        group: &str,
        deadline: Option<Instant>,
    ) -> Result<(Module, GeneratedFunction), EngineError> {
        let ctx = self.target_ctx(target)?;
        let bundle = self.bundle(group)?;
        let gf = try_generate_function(
            model,
            target,
            &bundle.template,
            &bundle.features,
            &ctx.ix,
            &self.vega.catalog,
            self.vega.max_input_len(),
            deadline,
        )
        .map_err(abort_error)?;
        Ok((bundle.module, gf))
    }

    /// Scores candidate token-id sequences for one `(target, group)`
    /// signature: the model's log-probability of emitting each candidate
    /// given the exact signature feature vector generation would decode
    /// from (the same frame the cache key covers). Returns one logprob per
    /// candidate, in order.
    ///
    /// All candidates are scored on one [`CodeBe::session`] over the
    /// signature input in one batched call
    /// ([`vega_model::DecodeSession::try_sequence_logprobs`]): the request
    /// runs the encoder **once** and, on a transformer, one decoder forward
    /// over every candidate after feeding their shared prefix once, so each
    /// weight matrix streams twice per request (prefix, then candidates)
    /// rather than once per candidate. Each score is bit-identical to a
    /// per-candidate [`CodeBe::try_sequence_logprob`]. The forward's rows
    /// and fork caches are bounded by the candidates' fed positions: at most
    /// [`MAX_SCORE_CANDIDATES`](crate::protocol::MAX_SCORE_CANDIDATES) ×
    /// the model's `max_len` rows.
    ///
    /// The deadline is checked once, before the forward; a forward that has
    /// started runs to completion (it is one pass, not a loop over
    /// candidates). On a replica that carries a decode backend, the session
    /// forwards each candidate to it unchanged, deadline included.
    ///
    /// # Errors
    /// [`ErrorKind::UnknownTarget`] / [`ErrorKind::UnknownGroup`] as in
    /// [`Engine::generate_with`]; [`ErrorKind::BadRequest`] for an empty,
    /// over-long, or out-of-vocabulary candidate;
    /// [`ErrorKind::DeadlineExceeded`] / [`ErrorKind::Internal`] as in
    /// [`Engine::try_generate_with`].
    pub fn try_score_with(
        &self,
        model: &mut CodeBe,
        target: &str,
        group: &str,
        candidates: &[Vec<usize>],
        deadline: Option<Instant>,
    ) -> Result<Vec<f32>, EngineError> {
        let ctx = self.target_ctx(target)?;
        let bundle = self.bundle(group)?;
        let vocab_len = self.vega.model().vocab.len();
        let max_out = self.vega.model().max_len().saturating_sub(2);
        for (i, cand) in candidates.iter().enumerate() {
            if cand.is_empty() || cand.len() > max_out {
                return Err(EngineError {
                    kind: ErrorKind::BadRequest,
                    msg: format!(
                        "candidate {i}: length must be 1..={max_out} tokens, got {}",
                        cand.len()
                    ),
                });
            }
            if let Some(&id) = cand.iter().find(|&&id| id >= vocab_len) {
                return Err(EngineError {
                    kind: ErrorKind::BadRequest,
                    msg: format!(
                        "candidate {i}: token id {id} out of vocabulary (size {vocab_len})"
                    ),
                });
            }
        }
        let sig_input = signature_feature_input(
            &self.vega.model().vocab,
            target,
            &bundle.template,
            &bundle.features,
            &ctx.ix,
            &self.vega.catalog,
            self.vega.max_input_len(),
        );
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(abort_error(DecodeAbort::Expired));
        }
        model
            .session(&sig_input)
            .try_sequence_logprobs(candidates, deadline)
            .map_err(abort_error)
    }

    /// Generates one function on a one-off replica (the reference path the
    /// loadgen verifier compares server responses against).
    ///
    /// # Errors
    /// See [`Engine::generate_with`].
    pub fn generate(
        &self,
        target: &str,
        group: &str,
    ) -> Result<(Module, GeneratedFunction), EngineError> {
        let mut replica = self.replica();
        self.generate_with(&mut replica, target, group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vega_model::{TrainConfig, Vocab};
    use vega_nn::TransformerConfig;

    #[test]
    fn model_digest_follows_weights_not_storage() {
        let vocab = Vocab::build(["x", "=", "1", ";", "return"].into_iter());
        let mut model = CodeBe::transformer(vocab, TransformerConfig::tiny);
        let digest = model_digest(&model);
        assert_eq!(digest.len(), 32);

        // A v2 reload maps the tensors instead of owning them.
        let dir = std::env::temp_dir().join(format!("vega-serve-digest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        model.save_file_v2(&path).unwrap();
        let mapped = CodeBe::load_file(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(mapped.owned_scalars(), 0, "reload should map its tensors");
        assert_eq!(model_digest(&mapped), digest);

        let ids = model
            .vocab
            .encode_pieces(&["x".into(), "=".into(), "1".into()]);
        let mut cfg = TrainConfig::tiny();
        cfg.finetune_epochs = 1;
        model.finetune(&[(ids.clone(), ids)], &cfg);
        assert_ne!(model_digest(&model), digest, "one fine-tune step");
    }
}
