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
            msg: "deadline elapsed mid-generation at a token boundary".into(),
        },
        DecodeAbort::Broken(msg) => EngineError {
            kind: ErrorKind::Internal,
            msg: format!("decode backend failed: {msg}"),
        },
    }
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
        let model_digest = crate::hash::digest_str(&vega.model().save_json());
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

    /// Stable digest of the model weights, as embedded in every cache key.
    /// Two engines with equal digests generate byte-identical responses, so
    /// a hot swap between them may keep the cache.
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

    /// Generates one function on the given model replica, honoring
    /// `deadline` at token boundaries when the replica routes decode through
    /// a batching backend. Without a backend the deadline is ignored and
    /// generation runs to completion (replica mode enforces deadlines before
    /// dispatch instead).
    ///
    /// # Errors
    /// [`ErrorKind::UnknownTarget`] / [`ErrorKind::UnknownGroup`] as in
    /// [`Engine::generate_with`]; [`ErrorKind::DeadlineExceeded`] when the
    /// backend aborted at the deadline; [`ErrorKind::Internal`] when the
    /// backend itself failed.
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
    /// signature input, so the request runs the encoder **once** however
    /// many candidates it carries; each score is bit-identical to a
    /// per-candidate [`CodeBe::try_sequence_logprob`]. Candidates are scored
    /// in order with a deadline check between them (matching replica-mode
    /// generate, which enforces deadlines at dispatch boundaries). On a
    /// replica that carries a decode backend, the session forwards each
    /// candidate to it unchanged.
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
        let mut session = model.session(&sig_input);
        let mut scores = Vec::with_capacity(candidates.len());
        for cand in candidates {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Err(abort_error(DecodeAbort::Expired));
                }
            }
            scores.push(
                session
                    .try_sequence_logprob(cand, deadline)
                    .map_err(abort_error)?,
            );
        }
        Ok(scores)
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
