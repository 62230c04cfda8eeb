//! The end-to-end VEGA pipeline (Fig. 5): preprocessing → Stage 1
//! code-feature mapping → Stage 2 model creation → Stage 3 target-specific
//! code generation.

use crate::features::{
    global_signals, prop_catalog, select_features, GlobalSignals, PropCatalog, TemplateFeatures,
    TgtIndex,
};
use crate::featvec::{
    build_input, statement_line_pieces, template_line_pieces, training_values, StatementSample,
    SIG_NODE,
};
use crate::generate::{generate_function, training_confidence, GeneratedFunction};
use crate::template::FunctionTemplate;
use std::collections::{BTreeMap, HashSet};
use std::time::Duration;
use vega_corpus::{Corpus, CorpusConfig, Mix64, Module, VirtualFs};
use vega_cpplite::Token;
use vega_model::{token_to_pieces, CodeBe, ModelChoice, TargetNorm, TrainConfig, Vocab};
use vega_nn::{GruConfig, TransformerConfig};

/// How the training/verification split is drawn (paper §4.1.2 and the split
/// ablation in §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// 75% of the *functions in each group* train, 25% verify (the paper's
    /// chosen scheme — every template is covered).
    FunctionGroup,
    /// 75% of the *backends* train; templates built from those backends only
    /// (the ablated scheme that loses template coverage).
    Backend,
}

/// Model width presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Unit-test scale (seconds).
    Tiny,
    /// Experiment scale (minutes on one core).
    Small,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct VegaConfig {
    /// Corpus construction parameters.
    pub corpus: CorpusConfig,
    /// Model width preset.
    pub scale: Scale,
    /// Training hyperparameters.
    pub train: TrainConfig,
    /// Architecture choice (transformer vs. GRU ablation).
    pub model: ModelChoice,
    /// Split strategy.
    pub split: Split,
    /// Master seed for splits.
    pub seed: u64,
}

impl Default for VegaConfig {
    fn default() -> Self {
        VegaConfig {
            corpus: CorpusConfig::default(),
            scale: Scale::Small,
            train: TrainConfig::default(),
            model: ModelChoice::Transformer,
            split: Split::FunctionGroup,
            seed: 0,
        }
    }
}

impl VegaConfig {
    /// A fast configuration for unit/integration tests: tiny corpus, tiny
    /// model, one epoch, no pre-training.
    pub fn tiny() -> Self {
        VegaConfig {
            corpus: CorpusConfig::tiny(),
            scale: Scale::Tiny,
            train: TrainConfig {
                pretrain_steps: 0,
                finetune_epochs: 1,
                lr: 3e-3,
                seed: 1,
            },
            model: ModelChoice::Transformer,
            split: Split::FunctionGroup,
            seed: 0,
        }
    }
}

/// A loaded checkpoint that does not fit the pipeline it was asked to serve
/// (vocabulary or sequence-length mismatch). Returned by
/// [`Vega::with_model`] so callers surface a diagnostic instead of decoding
/// garbage with silently re-indexed token ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelLoadError {
    /// Human-readable mismatch description.
    pub msg: String,
}

impl std::fmt::Display for ModelLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model load error: {}", self.msg)
    }
}

impl std::error::Error for ModelLoadError {}

/// A function template bundled with its module and discovered features.
#[derive(Debug, Clone)]
pub struct TemplateBundle {
    /// Backend module of the interface function.
    pub module: Module,
    /// The function template.
    pub template: FunctionTemplate,
    /// Its properties and per-target values.
    pub features: TemplateFeatures,
}

/// Timing breakdown of the pipeline stages.
#[derive(Debug, Clone, Default)]
pub struct StageTimings {
    /// Stage 1: code-feature mapping.
    pub code_feature_mapping: Duration,
    /// Stage 2: model creation (pre-training + fine-tuning).
    pub model_creation: Duration,
}

/// A backend generated for a new target, with per-module timing (Fig. 7).
#[derive(Debug, Clone)]
pub struct GeneratedBackend {
    /// Target name.
    pub target: String,
    /// Generated functions with confidence metadata.
    pub functions: Vec<(Module, GeneratedFunction)>,
    /// Wall-clock generation time per module.
    pub module_times: BTreeMap<Module, Duration>,
    /// Total generation time.
    pub total_time: Duration,
}

impl GeneratedBackend {
    /// Looks up a generated function by interface name.
    pub fn function(&self, name: &str) -> Option<&GeneratedFunction> {
        self.functions
            .iter()
            .find(|(_, f)| f.name == name)
            .map(|(_, f)| f)
    }
}

/// The trained VEGA system.
pub struct Vega {
    /// Pipeline configuration.
    pub config: VegaConfig,
    /// The backend corpus.
    pub corpus: Corpus,
    /// The `PropList` catalog.
    pub catalog: PropCatalog,
    /// Function templates with features, keyed by interface name.
    pub templates: BTreeMap<String, TemplateBundle>,
    /// Training samples (75% split).
    pub train_samples: Vec<StatementSample>,
    /// Verification samples (25% split).
    pub verify_samples: Vec<StatementSample>,
    /// Stage timings.
    pub timings: StageTimings,
    model: CodeBe,
    max_input_len: usize,
    tgt_ix: BTreeMap<String, TgtIndex>,
}

impl std::fmt::Debug for Vega {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vega")
            .field("templates", &self.templates.len())
            .field("train_samples", &self.train_samples.len())
            .field("verify_samples", &self.verify_samples.len())
            .finish()
    }
}

impl Vega {
    /// Runs preprocessing, Stage 1 and Stage 2: builds the corpus, folds
    /// function groups into templates, selects features, builds the
    /// vocabulary, pre-trains and fine-tunes CodeBE.
    pub fn train(config: VegaConfig) -> Self {
        let corpus = Corpus::build(&config.corpus);
        Self::train_on(config, corpus)
    }

    /// As [`Vega::train`] but over a pre-built corpus.
    pub fn train_on(config: VegaConfig, corpus: Corpus) -> Self {
        Self::assemble(config, corpus, None)
            .expect("fresh training derives its model from the corpus and cannot mismatch")
    }

    /// Builds the full system around an already-trained CodeBE checkpoint:
    /// Stage 1 (templates, features, samples) runs as in [`Vega::train`],
    /// Stage 2 is replaced by the loaded model. This is how the serving
    /// layer and `vega-experiments --load-model` reuse a checkpoint without
    /// retraining.
    ///
    /// # Errors
    /// Returns [`ModelLoadError`] when the checkpoint's vocabulary differs
    /// from the one this corpus/config derives, or when the model was sized
    /// for shorter inputs than this scale produces.
    pub fn with_model(config: VegaConfig, model: CodeBe) -> Result<Self, ModelLoadError> {
        let corpus = Corpus::build(&config.corpus);
        Self::with_model_on(config, corpus, model)
    }

    /// As [`Vega::with_model`] but over a pre-built corpus.
    ///
    /// # Errors
    /// See [`Vega::with_model`].
    pub fn with_model_on(
        config: VegaConfig,
        corpus: Corpus,
        model: CodeBe,
    ) -> Result<Self, ModelLoadError> {
        Self::assemble(config, corpus, Some(model))
    }

    fn assemble(
        config: VegaConfig,
        corpus: Corpus,
        pretrained: Option<CodeBe>,
    ) -> Result<Self, ModelLoadError> {
        let stage1 = vega_obs::global().span("pipeline.stage1.feature_mapping");
        let catalog = prop_catalog(corpus.llvm_fs());

        // Choose the training backends (Backend split drops 25% entirely).
        let mut training_targets: Vec<String> = corpus
            .training_targets()
            .map(|t| t.spec.name.clone())
            .collect();
        #[allow(unused_assignments)]
        let mut holdout_backends: HashSet<String> = HashSet::default();
        if config.split == Split::Backend {
            let mut rng = Mix64::keyed(config.seed, "backend-split");
            let mut order = training_targets.clone();
            for i in (1..order.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                order.swap(i, j);
            }
            let n_hold = order.len() / 4;
            holdout_backends = order[..n_hold].iter().cloned().collect();
            training_targets.retain(|t| !holdout_backends.contains(t));
        }

        // Per-target description indexes.
        let mut tgt_ix: BTreeMap<String, TgtIndex> = BTreeMap::new();
        for t in corpus.training_targets() {
            tgt_ix.insert(t.spec.name.clone(), TgtIndex::build(&t.descriptions));
        }

        // Stage 1: templates + features per function group. Groups build
        // independently on the pool; collecting into a BTreeMap keeps the
        // template order thread-count independent (it is keyed anyway).
        let groups = corpus.function_groups(false);
        let group_list: Vec<_> = groups.iter().collect();
        let built = vega_par::par_map_slice(&group_list, |_, (name, (module, members))| {
            let members: Vec<(&str, &vega_cpplite::Function)> = members
                .iter()
                .filter(|(t, _)| training_targets.iter().any(|tt| tt == t))
                .map(|(t, f)| (*t, *f))
                .collect();
            if members.is_empty() {
                return None;
            }
            let template = FunctionTemplate::build(name, &members);
            let member_ix: BTreeMap<String, TgtIndex> = template
                .targets
                .iter()
                .filter_map(|t| tgt_ix.get(t).map(|ix| (t.clone(), ix.clone())))
                .collect();
            let features = select_features(&template, &catalog, &member_ix);
            Some((
                (*name).clone(),
                TemplateBundle {
                    module: *module,
                    template,
                    features,
                },
            ))
        });
        let templates: BTreeMap<String, TemplateBundle> = built.into_iter().flatten().collect();

        // Vocabulary from all training-backend statements plus description
        // identifiers.
        let vocab = build_vocab(&corpus, &training_targets);

        // Stage 1c: samples, split 75/25.
        let max_input_len = match config.scale {
            Scale::Tiny => 48,
            Scale::Small => 128,
        };
        let (train_samples, verify_samples) = build_samples(
            &templates,
            &tgt_ix,
            &vocab,
            config.seed,
            config.split,
            max_input_len,
        );
        let code_feature_mapping = stage1.finish();

        // Stage 2: model creation — or validation of a loaded checkpoint.
        let stage2 = vega_obs::global().span("pipeline.stage2.model_creation");
        let model = match pretrained {
            Some(model) => {
                // The checkpoint must tokenize exactly like this corpus, or
                // every sample/generation id would silently mean a different
                // piece. Serialized piece lists compare the whole table.
                if model.vocab.to_json_value().render() != vocab.to_json_value().render() {
                    return Err(ModelLoadError {
                        msg: format!(
                            "checkpoint vocabulary ({} pieces) does not match the \
                             corpus-derived vocabulary ({} pieces); was the checkpoint \
                             trained with the same --scale/--synthetic/--seed?",
                            model.vocab.len(),
                            vocab.len()
                        ),
                    });
                }
                if model.max_len() < max_input_len {
                    return Err(ModelLoadError {
                        msg: format!(
                            "checkpoint max input length {} is shorter than the {} this \
                             scale produces; reload with the scale it was trained at",
                            model.max_len(),
                            max_input_len
                        ),
                    });
                }
                model
            }
            None => {
                let mut model = match (config.model, config.scale) {
                    (ModelChoice::Transformer, Scale::Tiny) => {
                        CodeBe::transformer(vocab, |v| TransformerConfig {
                            max_len: 48,
                            ..TransformerConfig::tiny(v)
                        })
                    }
                    (ModelChoice::Transformer, Scale::Small) => {
                        CodeBe::transformer(vocab, |v| TransformerConfig {
                            max_len: 128,
                            ..TransformerConfig::small(v)
                        })
                    }
                    (ModelChoice::Gru, Scale::Tiny) => CodeBe::gru(vocab, |v| GruConfig {
                        max_len: 48,
                        ..GruConfig::tiny(v)
                    }),
                    (ModelChoice::Gru, Scale::Small) => CodeBe::gru(vocab, |v| GruConfig {
                        max_len: 128,
                        ..GruConfig::small(v)
                    }),
                };
                if config.train.pretrain_steps > 0 {
                    let sequences = pretrain_sequences(&corpus, &training_targets, &model.vocab);
                    model.pretrain(
                        &sequences,
                        config.train.pretrain_steps,
                        config.train.lr,
                        config.seed,
                    );
                }
                let mut dedup: HashSet<(Vec<usize>, Vec<usize>)> = HashSet::new();
                let mut pairs: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
                let mut sig_pairs: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
                for s in &train_samples {
                    if !dedup.insert((s.input.clone(), s.output.clone())) {
                        continue;
                    }
                    if s.node == crate::featvec::SIG_NODE {
                        sig_pairs.push((s.input.clone(), s.output.clone()));
                    }
                    pairs.push((s.input.clone(), s.output.clone()));
                }
                // Signatures are ~5% of samples but carry the whole-function
                // confidence; oversample them so they train as reliably as
                // bodies.
                for _ in 0..3 {
                    pairs.extend(sig_pairs.iter().cloned());
                }
                model.finetune(&pairs, &config.train);
                model
            }
        };
        let model_creation = stage2.finish();

        Ok(Vega {
            config,
            corpus,
            catalog,
            templates,
            train_samples,
            verify_samples,
            timings: StageTimings {
                code_feature_mapping,
                model_creation,
            },
            model,
            max_input_len,
            tgt_ix,
        })
    }

    /// The paper's proposed *software update mechanism* (§6): once a target's
    /// backend has been corrected by developers, VEGA incorporates it —
    /// templates absorb the new implementations, features are re-selected,
    /// and CodeBE is fine-tuned on the new samples (with replay of earlier
    /// data so it does not forget). Subsequent generations benefit from the
    /// added coverage.
    pub fn learn_target(
        &mut self,
        target: &str,
        backend: &vega_corpus::Backend,
        descriptions: &VirtualFs,
        epochs: usize,
    ) {
        let ix = TgtIndex::build(descriptions);
        self.tgt_ix.insert(target.to_string(), ix);
        // 1. Absorb implementations into the templates; re-select features.
        for (name, module, f) in backend.iter() {
            match self.templates.get_mut(name) {
                Some(bundle) => {
                    if !bundle.template.targets.iter().any(|t| t == target) {
                        bundle.template.merge_target(target, f);
                    }
                }
                None => {
                    let template = FunctionTemplate::build(name, &[(target, f)]);
                    self.templates.insert(
                        name.to_string(),
                        TemplateBundle {
                            module,
                            template,
                            features: crate::features::TemplateFeatures {
                                props: Vec::new(),
                                bool_values: BTreeMap::new(),
                                slot_props: std::collections::HashMap::new(),
                            },
                        },
                    );
                }
            }
        }
        let names: Vec<String> = self.templates.keys().cloned().collect();
        for name in names {
            let bundle = self.templates.get_mut(&name).unwrap();
            if !bundle.template.targets.iter().any(|t| t == target) {
                continue;
            }
            let member_ix: BTreeMap<String, TgtIndex> = bundle
                .template
                .targets
                .iter()
                .filter_map(|t| self.tgt_ix.get(t).map(|ix| (t.clone(), ix.clone())))
                .collect();
            bundle.features = select_features(&bundle.template, &self.catalog, &member_ix);
        }
        // 2. Build the new target's samples.
        let vocab = self.model.vocab.clone();
        let mut new_samples: Vec<StatementSample> = Vec::new();
        for (group, bundle) in &self.templates {
            if !bundle.template.targets.iter().any(|t| t == target) {
                continue;
            }
            let ix = &self.tgt_ix[target];
            let prop_candidates: BTreeMap<usize, usize> = bundle
                .features
                .props
                .iter()
                .enumerate()
                .filter_map(|(i, p)| {
                    p.source
                        .as_ref()
                        .map(|s| (i, ix.candidates(s).len().max(1)))
                })
                .collect();
            new_samples.extend(samples_for_target(
                group,
                bundle,
                target,
                &vocab,
                &prop_candidates,
                &global_signals(ix),
                self.max_input_len,
            ));
        }
        // 3. Fine-tune on the new samples plus a replay slice of the old.
        let mut pairs: Vec<(Vec<usize>, Vec<usize>)> = new_samples
            .iter()
            .map(|s| (s.input.clone(), s.output.clone()))
            .collect();
        for (i, s) in self.train_samples.iter().enumerate() {
            if i % 4 == 0 {
                pairs.push((s.input.clone(), s.output.clone()));
            }
        }
        let cfg = TrainConfig {
            pretrain_steps: 0,
            finetune_epochs: epochs,
            lr: self.config.train.lr * 0.5,
            seed: self.config.train.seed ^ 0x0DD,
        };
        self.model.finetune(&pairs, &cfg);
        self.train_samples.extend(new_samples);
    }

    /// Exact-match rate on the verification split (the paper reports 99.03%).
    pub fn verification_exact_match(&self) -> f64 {
        let pairs: Vec<(Vec<usize>, Vec<usize>)> = self
            .verify_samples
            .iter()
            .map(|s| (s.input.clone(), s.output.clone()))
            .collect();
        self.model.exact_match(&pairs, 72)
    }

    /// Stage 3: generates a complete backend for a target from its
    /// description files alone.
    pub fn generate_backend(&self, target: &str) -> GeneratedBackend {
        let descriptions: VirtualFs = self.corpus.tgt_fs(target).cloned().unwrap_or_default();
        self.generate_backend_from(target, &descriptions)
    }

    /// Stage 3 over explicit description files (for targets outside the
    /// corpus).
    pub fn generate_backend_from(
        &self,
        target: &str,
        descriptions: &VirtualFs,
    ) -> GeneratedBackend {
        let ix = TgtIndex::build(descriptions);
        let mut functions = Vec::new();
        let mut module_times: BTreeMap<Module, Duration> = BTreeMap::new();
        let stage3 = vega_obs::global().span("pipeline.stage3.generate");
        // Functions generate independently on the pool, all on the one
        // model: generation only reads weights (each decode owns its
        // session state), so every worker decodes exactly what a sequential
        // run would. Results come back in template order; Duration sums are
        // exact integers, so `module_times` is reduction-order independent
        // too.
        let bundles: Vec<&TemplateBundle> = self.templates.values().collect();
        let generated = vega_par::par_map_slice(&bundles, |_, bundle| {
            // Child spans aggregate per module ("pipeline.stage3.generate.SEL"
            // etc.) while `module_times` keeps the public per-module map.
            let mspan = vega_obs::global().span(bundle.module.code());
            let f = generate_function(
                &self.model,
                target,
                &bundle.template,
                &bundle.features,
                &ix,
                &self.catalog,
                self.max_input_len,
            );
            (bundle.module, mspan.finish(), f)
        });
        for (module, dur, f) in generated {
            *module_times.entry(module).or_default() += dur;
            functions.push((module, f));
        }
        GeneratedBackend {
            target: target.to_string(),
            functions,
            module_times,
            total_time: stage3.finish(),
        }
    }

    /// Access to the trained model (ablations, persistence).
    pub fn model_mut(&mut self) -> &mut CodeBe {
        &mut self.model
    }

    /// Read access to the trained model (persistence, serving).
    pub fn model(&self) -> &CodeBe {
        &self.model
    }

    /// The feature-vector truncation length this pipeline encodes at.
    pub fn max_input_len(&self) -> usize {
        self.max_input_len
    }
}

/// Builds the vocabulary over the training backends and description files.
fn build_vocab(corpus: &Corpus, training_targets: &[String]) -> Vocab {
    let mut pieces: Vec<String> = Vec::new();
    for t in corpus.training_targets() {
        if !training_targets.iter().any(|tt| tt == &t.spec.name) {
            continue;
        }
        let norm = TargetNorm::new(&t.spec.name);
        for (_, _, f) in t.backend.iter() {
            pieces.extend(
                norm.anonymize_pieces(
                    &f.signature_tokens()
                        .iter()
                        .flat_map(token_to_pieces)
                        .collect::<Vec<_>>(),
                ),
            );
            for s in f.iter_stmts() {
                pieces.extend(
                    norm.anonymize_pieces(
                        &s.line_tokens()
                            .iter()
                            .flat_map(token_to_pieces)
                            .collect::<Vec<_>>(),
                    ),
                );
            }
        }
        for (_, content) in t.descriptions.iter() {
            for tok in vega_cpplite::lex_lossy(content) {
                if matches!(tok, Token::Ident(_) | Token::Str(_)) {
                    pieces.extend(norm.anonymize_pieces(&token_to_pieces(&tok)));
                }
            }
        }
    }
    Vocab::build(pieces.iter().map(String::as_str))
}

/// Encoded statement sequences for the denoising pre-training pass.
fn pretrain_sequences(
    corpus: &Corpus,
    training_targets: &[String],
    vocab: &Vocab,
) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for t in corpus.training_targets() {
        if !training_targets.iter().any(|tt| tt == &t.spec.name) {
            continue;
        }
        let norm = TargetNorm::new(&t.spec.name);
        for (_, _, f) in t.backend.iter() {
            for s in f.iter_stmts() {
                let mut ids = Vec::new();
                crate::featvec::encode_tokens_anonymized(&s.line_tokens(), vocab, &norm, &mut ids);
                ids.truncate(40);
                if !ids.is_empty() {
                    out.push(ids);
                }
            }
        }
    }
    out
}

/// Builds all statement samples and splits them 75/25.
fn build_samples(
    templates: &BTreeMap<String, TemplateBundle>,
    tgt_ix: &BTreeMap<String, TgtIndex>,
    vocab: &Vocab,
    seed: u64,
    split: Split,
    max_input_len: usize,
) -> (Vec<StatementSample>, Vec<StatementSample>) {
    let mut train = Vec::new();
    let mut verify = Vec::new();
    for (group, bundle) in templates {
        let template = &bundle.template;
        let feats = &bundle.features;
        // 75/25 member split per group (FunctionGroup scheme); under the
        // Backend scheme every member trains (the holdout never got here).
        let mut members = template.targets.clone();
        let mut rng = Mix64::keyed(seed, &format!("split/{group}"));
        for i in (1..members.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            members.swap(i, j);
        }
        let n_train = match split {
            Split::FunctionGroup => ((members.len() * 3) + 3) / 4,
            Split::Backend => members.len(),
        };
        for (mi, target) in members.iter().enumerate() {
            let Some(ix) = tgt_ix.get(target) else {
                continue;
            };
            let prop_candidates: BTreeMap<usize, usize> = feats
                .props
                .iter()
                .enumerate()
                .filter_map(|(i, p)| {
                    p.source
                        .as_ref()
                        .map(|s| (i, ix.candidates(s).len().max(1)))
                })
                .collect();
            let samples = samples_for_target(
                group,
                bundle,
                target,
                vocab,
                &prop_candidates,
                &global_signals(ix),
                max_input_len,
            );
            if mi < n_train {
                train.extend(samples);
            } else {
                verify.extend(samples);
            }
        }
    }
    (train, verify)
}

/// All statement samples of one target's implementation of one group.
#[allow(clippy::too_many_arguments)]
fn samples_for_target(
    group: &str,
    bundle: &TemplateBundle,
    target: &str,
    vocab: &Vocab,
    prop_candidates: &BTreeMap<usize, usize>,
    signals: &GlobalSignals,
    max_input_len: usize,
) -> Vec<StatementSample> {
    let template = &bundle.template;
    let feats = &bundle.features;
    let norm = TargetNorm::new(target);
    let mut out = Vec::new();

    // Signature sample.
    let sig_node = crate::generate::signature_node_for(template);
    let mut sig_tline = Vec::new();
    template_line_pieces(&sig_node, vocab, &mut sig_tline);
    let mut sig_values = training_values(template, feats, SIG_NODE, target);
    crate::featvec::append_global_signals(&mut sig_values, signals);
    let sig_input = build_input(vocab, &norm, None, &sig_tline, &sig_values, max_input_len);
    let mut sig_out = vec![vocab.score_token(1.0)];
    if let Some(toks) = crate::generate::sig_tokens_for_pub(template, target) {
        crate::featvec::encode_tokens_anonymized(&toks, vocab, &norm, &mut sig_out);
        sig_out.truncate(64);
        out.push(StatementSample {
            group: group.to_string(),
            node: SIG_NODE,
            target: target.to_string(),
            input: sig_input,
            output: sig_out,
        });
    }
    let mut prev_line: Option<Vec<usize>> = out.last().map(|s| s.output[1..].to_vec());

    for node_id in template.preorder() {
        let node = &template.stmts[node_id];
        let mut tline = Vec::new();
        template_line_pieces(node, vocab, &mut tline);
        let mut values = training_values(template, feats, node_id, target);
        crate::featvec::append_global_signals(&mut values, signals);
        let input = build_input(
            vocab,
            &norm,
            prev_line.as_deref(),
            &tline,
            &values,
            max_input_len,
        );
        let score = training_confidence(template, feats, node_id, target, prop_candidates);
        let mut output = vec![vocab.score_token(score)];
        match node.head_for(target) {
            Some(head) => {
                statement_line_pieces(node, &head, vocab, &norm, &mut output);
                output.truncate(64);
                prev_line = Some(output[1..].to_vec());
            }
            None => {
                // Absent statement: [CS_0] + the template line (paper §3.3).
                output.extend(tline.iter().copied());
                output.truncate(64);
            }
        }
        out.push(StatementSample {
            group: group.to_string(),
            node: node_id,
            target: target.to_string(),
            input,
            output,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_pipeline_trains_and_generates() {
        let vega = Vega::train(VegaConfig::tiny());
        assert!(vega.templates.len() >= 30);
        assert!(!vega.train_samples.is_empty());
        assert!(!vega.verify_samples.is_empty());
        // Roughly a 75/25 split.
        let frac = vega.train_samples.len() as f64
            / (vega.train_samples.len() + vega.verify_samples.len()) as f64;
        assert!(frac > 0.6 && frac < 0.9, "train fraction {frac}");

        let backend = vega.generate_backend("RISCV");
        assert_eq!(backend.functions.len(), vega.templates.len());
        // Every module appears in the timing map (xCORE-only DIS absence is a
        // per-target evaluation matter, not a generation one).
        assert!(backend.module_times.len() >= 6);
        // At least some functions assemble into parseable ASTs even with a
        // barely-trained model (fallback signature path).
        let assembled = backend
            .functions
            .iter()
            .filter(|(_, f)| f.function.is_some())
            .count();
        assert!(assembled > 0, "no function assembled");
    }

    #[test]
    fn model_persistence_roundtrip_preserves_generation() {
        let mut vega = Vega::train(VegaConfig::tiny());
        let path =
            std::env::temp_dir().join(format!("vega-core-persistence-{}.ckpt", std::process::id()));
        vega.model().save_file_v2(&path).unwrap();
        let a = vega.generate_backend("XCore");
        *vega.model_mut() = vega_model::CodeBe::load_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let b = vega.generate_backend("XCore");
        for ((_, fa), (_, fb)) in a.functions.iter().zip(&b.functions) {
            assert_eq!(fa.confidence, fb.confidence, "{}", fa.name);
            for (sa, sb) in fa.stmts.iter().zip(&fb.stmts) {
                assert_eq!(sa.line, sb.line);
            }
        }
    }

    #[test]
    fn with_model_reuses_a_checkpoint_and_validates_fit() {
        let trained = Vega::train(VegaConfig::tiny());
        let a = trained.generate_backend("RI5CY");

        // Same config + the trained model → identical generations, no stage 2.
        let checkpoint = trained.model().clone();
        let served = Vega::with_model(VegaConfig::tiny(), checkpoint).unwrap();
        assert!(
            served.timings.model_creation < trained.timings.model_creation,
            "validation must be cheaper than training"
        );
        let b = served.generate_backend("RI5CY");
        for ((_, fa), (_, fb)) in a.functions.iter().zip(&b.functions) {
            assert_eq!(fa.confidence, fb.confidence, "{}", fa.name);
            for (sa, sb) in fa.stmts.iter().zip(&fb.stmts) {
                assert_eq!(sa.line, sb.line);
            }
        }

        // A corpus with a different vocabulary must be rejected, not decoded
        // against re-indexed token ids.
        let mut other = VegaConfig::tiny();
        other.corpus.synthetic_targets = 2;
        let checkpoint = trained.model().clone();
        let err = Vega::with_model(other, checkpoint).unwrap_err();
        assert!(err.msg.contains("vocabulary"), "{}", err.msg);
    }

    #[test]
    fn learn_target_extends_templates_and_samples() {
        let mut vega = Vega::train(VegaConfig::tiny());
        let before_samples = vega.train_samples.len();
        let reloc_targets = vega.templates["getRelocType"].template.targets.len();
        let (backend, desc) = {
            let rv = vega.corpus.target("RISCV").unwrap();
            (rv.backend.clone(), rv.descriptions.clone())
        };
        vega.learn_target("RISCV", &backend, &desc, 1);
        assert!(vega.train_samples.len() > before_samples);
        let t = &vega.templates["getRelocType"].template;
        assert_eq!(t.targets.len(), reloc_targets + 1);
        assert!(t.targets.iter().any(|x| x == "RISCV"));
        // Idempotent on the template side.
        vega.learn_target("RISCV", &backend, &desc, 0);
        assert_eq!(
            vega.templates["getRelocType"].template.targets.len(),
            reloc_targets + 1
        );
    }

    #[test]
    fn backend_split_reduces_training_targets() {
        let cfg_fg = VegaConfig::tiny();
        let mut cfg_be = VegaConfig::tiny();
        cfg_be.split = Split::Backend;
        let vega_fg = Vega::train(cfg_fg);
        let vega_be = Vega::train(cfg_be);
        let fg_members: usize = vega_fg
            .templates
            .values()
            .map(|b| b.template.targets.len())
            .sum();
        let be_members: usize = vega_be
            .templates
            .values()
            .map(|b| b.template.targets.len())
            .sum();
        assert!(be_members < fg_members);
        // Backend split trains on everything it kept; verification is empty.
        assert!(vega_be.verify_samples.is_empty());
    }
}
