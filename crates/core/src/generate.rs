//! Stage 3 — Target-Specific Code Generation (paper §3.4).
//!
//! For a new target, VEGA sees only its description files. Per statement
//! template it (1) replays the learned update-site recipes to collect
//! candidate values from the new target's files and ranks each slot's
//! candidates once by name similarity to the values the slot took on
//! training targets, (2) fills the feature vector with each slot's best
//! candidate, (3) lets CodeBE generate `[CS] statement` and realizes it from
//! the same ranking, and (4) assembles the kept statements (score ≥ 0.5)
//! back into a function following the template's tree structure.

use crate::features::{
    global_signals, resolve_bool_for_target, PropCatalog, TemplateFeatures, TgtIndex, ValueSource,
};
use crate::featvec::{
    build_input, confidence_score, slot_candidate_counts, template_line_pieces, ResolvedValue,
    ResolvedValues, SIG_NODE,
};
use crate::template::{FunctionTemplate, PatTok, SlotData, StmtTemplate};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;
use vega_cpplite::{lex, parse_function, Function, Stmt, StmtKind, Token};
use vega_model::{split_ident, CodeBe, DecodeAbort, DecodeSession, TargetNorm};

/// One generated statement with its confidence.
#[derive(Debug, Clone)]
pub struct GeneratedStmt {
    /// Template node id ([`SIG_NODE`] for the signature).
    pub node: usize,
    /// Decoded confidence score (0 when the model emitted none).
    pub score: f64,
    /// Decoded statement line (source text).
    pub line: String,
    /// Whether the statement survived the 0.5 threshold and was assembled.
    pub kept: bool,
}

/// A generated interface function with confidence metadata.
#[derive(Debug, Clone)]
pub struct GeneratedFunction {
    /// Interface name.
    pub name: String,
    /// The assembled function (None when assembly failed outright).
    pub function: Option<Function>,
    /// Per-template-node generation record (signature first).
    pub stmts: Vec<GeneratedStmt>,
    /// Function-level confidence (the first line's score, §3.4).
    pub confidence: f64,
    /// True when no single training target covers all kept statements — the
    /// paper's "accurate code derived from multiple existing targets".
    pub multi_source: bool,
}

/// Maximum decode length for one statement.
const DECODE_LEN: usize = 72;

/// Reference values for name similarity, split once into their lowercase
/// subword-piece sets so scoring many candidates against them re-splits
/// nothing. Used for Stage 3 value selection and by the ForkFlow baseline's
/// renamer.
#[derive(Debug)]
pub struct NameRefs {
    pieces: Vec<Vec<String>>,
}

impl NameRefs {
    /// Splits every reference value.
    pub fn new(train_values: &[String]) -> Self {
        NameRefs {
            pieces: train_values.iter().map(|v| name_pieces(v)).collect(),
        }
    }

    /// Name similarity of `candidate` to these references: the max Jaccard
    /// index of lowercase subword pieces. Never NaN, and 0 (not −0) when
    /// nothing matches.
    pub fn similarity(&self, candidate: &str) -> f64 {
        let cand = name_pieces(candidate);
        if cand.is_empty() {
            return 0.0;
        }
        self.pieces
            .iter()
            .map(|tv| {
                let inter = cand.iter().filter(|p| tv.binary_search(p).is_ok()).count();
                inter as f64 / (cand.len() + tv.len() - inter) as f64
            })
            .fold(0.0, f64::max)
    }
}

/// A name's distinct lowercase subword pieces that hold an alphanumeric
/// character, sorted.
fn name_pieces(name: &str) -> Vec<String> {
    let mut pieces: Vec<String> = split_ident(name)
        .into_iter()
        .map(|p| p.to_lowercase())
        .filter(|p| p.chars().any(char::is_alphanumeric))
        .collect();
    pieces.sort_unstable();
    pieces.dedup();
    pieces
}

/// Orders `candidates` best first by name similarity to `train_values`,
/// putting values not in `used` ahead of used ones at equal similarity, and
/// keeps the first `cap`. Each candidate is keyed once, and the sort is
/// stable: candidates with equal keys keep their input order.
pub fn rank_by_name(
    candidates: Vec<String>,
    train_values: &[String],
    used: Option<&HashSet<String>>,
    cap: usize,
) -> Vec<String> {
    let refs = NameRefs::new(train_values);
    let mut keyed: Vec<(f64, bool, String)> = candidates
        .into_iter()
        .map(|c| {
            let unused = !used.is_some_and(|u| u.contains(&c));
            (refs.similarity(&c), unused, c)
        })
        .collect();
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
    keyed.into_iter().take(cap).map(|(_, _, c)| c).collect()
}

/// Generation-time state tracking recently chosen def names so that numeric
/// field values (latency, opcode, …) can be read off the right record.
#[derive(Debug)]
struct GenState {
    last_def: Option<String>,
    /// Whether `last_def` was inferred from a field value (an opcode number
    /// pinning an instruction) rather than chosen as a def name directly.
    last_def_from_field: bool,
    used_values: BTreeMap<usize, HashSet<String>>, // prop idx → consumed values
    /// The new target's name normalizer (for renaming fallback runs).
    new_norm: TargetNorm,
}

impl GenState {
    fn new(target_ns: &str) -> Self {
        GenState {
            last_def: None,
            last_def_from_field: false,
            used_values: BTreeMap::new(),
            new_norm: TargetNorm::new(target_ns),
        }
    }
}

/// Ranked candidate values for one slot (best first, capped). Every call
/// counts in `generate.slot_rankings`.
fn slot_candidates_ranked(
    prop_idx: usize,
    source: &ValueSource,
    ix: &TgtIndex,
    train_values: &[String],
    state: &GenState,
    cap: usize,
) -> Vec<String> {
    vega_obs::global().counter_add("generate.slot_rankings", 1);
    // Def-scoped fields (latency/opcode of the instruction the previous
    // statement named) have a single right answer.
    if let ValueSource::Field { field } = source {
        if let Some(def) = &state.last_def {
            if let Some(a) = ix
                .assigns
                .iter()
                .find(|a| a.def_name.as_deref() == Some(def.as_str()) && &a.lhs == field)
            {
                return vec![a.rhs.clone()];
            }
        }
    }
    // A def pinned by a *field value* (the opcode number the previous case
    // named) is the near-certain answer for a def-name slot. A def chosen by
    // name must not hijack later def slots (`ADD` guarding a fold must still
    // let the body pick `ADDI`).
    if let ValueSource::DefNames { class } = source {
        if state.last_def_from_field {
            if let Some(def) = &state.last_def {
                if ix.defs.iter().any(|d| &d.name == def && &d.class == class) {
                    return vec![def.clone()];
                }
            }
        }
    }
    rank_by_name(
        slot_candidates(source, ix),
        train_values,
        state.used_values.get(&prop_idx),
        cap,
    )
}

/// The values a slot whose property has value source `source` ranks on a
/// new target, in discovery order.
pub fn slot_candidates(source: &ValueSource, ix: &TgtIndex) -> Vec<String> {
    let mut candidates = ix.candidates(source);
    // Field values come in both original and lowercase spellings (assembly
    // names are conventionally lowercase; partial matching in the paper is
    // case-tolerant too).
    if matches!(source, ValueSource::Field { .. }) {
        let lowers: Vec<String> = candidates
            .iter()
            .map(|c| c.to_lowercase())
            .filter(|l| !candidates.contains(l))
            .collect();
        candidates.extend(lowers);
    }
    candidates.dedup();
    candidates
}

/// A slot's property index and its candidate values, best first.
type SlotRanking = (usize, Vec<String>);

/// Ranks each slot of a statement once, against the generation state before
/// its head decode: indexed by slot id, `None` for a slot without a property
/// value source. The feature vector, realization and the dropped-statement
/// record all read this one ranking.
fn rank_slots(
    node_id: usize,
    node: &StmtTemplate,
    feats: &TemplateFeatures,
    ix: &TgtIndex,
    state: &GenState,
) -> Vec<Option<SlotRanking>> {
    node.slots
        .iter()
        .enumerate()
        .map(|(slot_id, slot)| {
            let prop_idx = *feats.slot_props.get(&(node_id, slot_id))?;
            let source = feats.props[prop_idx].source.as_ref()?;
            let train_values: Vec<String> = slot
                .values
                .values()
                .map(|v| crate::features::slot_value_string(v))
                .filter(|s| !s.is_empty())
                .collect();
            let ranked = slot_candidates_ranked(prop_idx, source, ix, &train_values, state, 8);
            Some((prop_idx, ranked))
        })
        .collect()
}

/// Marks a chosen value as consumed and tracks def scoping: choosing a def
/// name (`ADD`) or a uniquely-identifying field value (`Opcode = 7`) focuses
/// subsequent field/def slots on that record.
fn note_choice(
    prop_idx: usize,
    value: &str,
    source: &ValueSource,
    ix: &TgtIndex,
    state: &mut GenState,
) {
    state
        .used_values
        .entry(prop_idx)
        .or_default()
        .insert(value.to_string());
    if ix.defs.iter().any(|d| d.name == value) {
        state.last_def = Some(value.to_string());
        state.last_def_from_field = false;
        return;
    }
    if let ValueSource::Field { field } = source {
        let mut matching = ix
            .assigns
            .iter()
            .filter(|a| &a.lhs == field && a.rhs == value)
            .filter_map(|a| a.def_name.clone());
        if let (Some(def), None) = (matching.next(), matching.next()) {
            state.last_def = Some(def);
            state.last_def_from_field = true;
        }
    }
}

/// Resolves `V_k` for a *new* target in Stage 3: the boolean properties,
/// then each ranked slot's best candidate (`rankings` is empty for the
/// signature).
fn generation_values(
    feats: &TemplateFeatures,
    ix: &TgtIndex,
    catalog: &PropCatalog,
    rankings: &[Option<SlotRanking>],
) -> ResolvedValues {
    let mut values = vec![ResolvedValue::Null; feats.props.len()];
    for (i, prop) in feats.props.iter().enumerate() {
        if prop.is_bool {
            values[i] = ResolvedValue::Bool(resolve_bool_for_target(prop, ix, catalog));
        }
    }
    for (prop_idx, ranked) in rankings.iter().flatten() {
        if let Some(v) = ranked.first() {
            values[*prop_idx] = ResolvedValue::Str(v.clone());
        }
    }
    ResolvedValues { values }
}

/// The encoded feature-vector input for a function's *signature* on a new
/// target — exactly the id sequence [`generate_function`] feeds the model
/// first. Deterministic in its arguments and side-effect free, so it doubles
/// as a content address for generation caching: two requests with equal
/// signature inputs (same target description state, same template) replay the
/// same generation.
pub fn signature_feature_input(
    vocab: &vega_model::Vocab,
    target_ns: &str,
    template: &FunctionTemplate,
    feats: &TemplateFeatures,
    ix: &TgtIndex,
    catalog: &PropCatalog,
    max_input_len: usize,
) -> Vec<usize> {
    // The signature ranks no slots, so it reads no generation state.
    let norm = TargetNorm::new(target_ns);
    let signals = global_signals(ix);
    let sig_node = signature_node_for(template);
    let mut sig_values = generation_values(feats, ix, catalog, &[]);
    crate::featvec::append_global_signals(&mut sig_values, &signals);
    let mut sig_tline = Vec::new();
    template_line_pieces(&sig_node, vocab, &mut sig_tline);
    build_input(vocab, &norm, None, &sig_tline, &sig_values, max_input_len)
}

/// Generates one function for a new target.
///
/// Infallible wrapper around [`try_generate_function`] for callers that set
/// no deadline: without one, the decode chain never aborts (the local
/// in-process path ignores deadlines, and backends only abort *at* one).
///
/// # Panics
/// Panics if the model's decode backend aborts despite the absent deadline.
pub fn generate_function(
    model: &CodeBe,
    target_ns: &str,
    template: &FunctionTemplate,
    feats: &TemplateFeatures,
    ix: &TgtIndex,
    catalog: &PropCatalog,
    max_input_len: usize,
) -> GeneratedFunction {
    try_generate_function(
        model,
        target_ns,
        template,
        feats,
        ix,
        catalog,
        max_input_len,
        None,
    )
    .expect("decode aborted without a deadline")
}

/// Generates one function for a new target, honoring `deadline` at token
/// boundaries when the model routes decode through a backend (see
/// [`CodeBe::try_generate`]). On abort no partial result escapes — the
/// caller gets the error and nothing cacheable.
///
/// # Errors
/// Returns [`DecodeAbort::Expired`] when the deadline passed mid-decode,
/// [`DecodeAbort::Broken`] when the backend failed.
#[allow(clippy::too_many_arguments)]
pub fn try_generate_function(
    model: &CodeBe,
    target_ns: &str,
    template: &FunctionTemplate,
    feats: &TemplateFeatures,
    ix: &TgtIndex,
    catalog: &PropCatalog,
    max_input_len: usize,
    deadline: Option<Instant>,
) -> Result<GeneratedFunction, DecodeAbort> {
    let obs = vega_obs::global();
    // Per-function timing is a span (nested under the caller's module span,
    // e.g. `pipeline.stage3.generate.SEL.function`), mirrored into the
    // `generate.function_seconds` histogram for quantiles.
    let fn_span = obs.span("function");
    let conf_buckets = vega_obs::Buckets::linear(0.0, 1.0, 20);
    let mut state = GenState::new(target_ns);
    let norm = TargetNorm::new(target_ns);
    let signals = global_signals(ix);
    let mut stmts: Vec<GeneratedStmt> = Vec::new();
    let mut prev_line_ids: Option<Vec<usize>> = None;

    // --- Signature -----------------------------------------------------------
    let input = signature_feature_input(
        &model.vocab,
        target_ns,
        template,
        feats,
        ix,
        catalog,
        max_input_len,
    );
    let out = model.try_generate(&input, DECODE_LEN, deadline)?;
    let (sig_score, sig_line) = split_output(model, &norm, &out);
    obs.observe_with("generate.confidence", &conf_buckets, sig_score);
    let sig_kept = sig_score >= 0.5;
    stmts.push(GeneratedStmt {
        node: SIG_NODE,
        score: sig_score,
        line: sig_line.clone(),
        kept: sig_kept,
    });
    // The first body statement's context is the signature line. Feed the
    // template-derived one (identical to what training saw) rather than the
    // raw decode, so one bad signature cannot poison the whole body.
    if let Some(seed) = template.targets.first() {
        if let Some(toks) = sig_tokens_for_pub(template, seed) {
            let seed_norm = TargetNorm::new(seed);
            let pieces = seed_norm.anonymize_pieces(&vega_model::tokens_to_pieces(&toks));
            let mut ids = Vec::new();
            for p in pieces {
                model.vocab.encode_piece(&p, &mut ids);
            }
            ids.truncate(64);
            prev_line_ids = Some(ids);
        }
    }
    if prev_line_ids.is_none() && sig_kept {
        prev_line_ids = Some(out[score_offset(&out, model)..].to_vec());
    }

    // --- Body statements in preorder -----------------------------------------
    let preorder = template.preorder();
    let mut kept_heads: BTreeMap<usize, Vec<Token>> = BTreeMap::new();
    for node_id in preorder {
        let node = &template.stmts[node_id];
        let rankings = rank_slots(node_id, node, feats, ix, &state);
        let mut values = generation_values(feats, ix, catalog, &rankings);
        crate::featvec::append_global_signals(&mut values, &signals);
        let mut tline = Vec::new();
        template_line_pieces(node, &model.vocab, &mut tline);
        let input = build_input(
            &model.vocab,
            &norm,
            prev_line_ids.as_deref(),
            &tline,
            &values,
            max_input_len,
        );
        // One encoding of the feature vector serves the head decode and
        // every candidate score below.
        let mut session = model.session(&input);
        // 1. Presence + confidence: the first decoded token is the score.
        let head_decode = session.try_generate(2, deadline)?;
        let score = head_decode
            .first()
            .and_then(|&id| model.vocab.score_of(id))
            .unwrap_or(0.0);
        obs.observe_with("generate.confidence", &conf_buckets, score);
        let kept = score >= 0.5;
        if !kept {
            // Record the prior-best realization so Err-CS (dropped but
            // actually correct) remains measurable.
            let mut chosen: BTreeMap<usize, Vec<Token>> = BTreeMap::new();
            for (slot_id, (slot, ranking)) in node.slots.iter().zip(&rankings).enumerate() {
                let (_, runs) = slot_candidate_runs(slot, ranking.as_ref(), &state.new_norm);
                chosen.insert(slot_id, runs.first().cloned().unwrap_or_default());
            }
            let line = Stmt::new(node.kind, fill_pattern(node, &chosen), Vec::new()).head_line();
            stmts.push(GeneratedStmt {
                node: node_id,
                score,
                line,
                kept: false,
            });
            continue;
        }
        // 2. Template-guided realization: the statement is the template with
        // each slot filled by the candidate CodeBE assigns the highest
        // probability (§2.4: "selecting the correct combination of values for
        // each SV_k … heavily depends on the statement's context").
        let score_id = head_decode.first().copied();
        let (head, out_ids) = realize_statement(
            model,
            &mut session,
            &norm,
            node,
            feats,
            ix,
            &rankings,
            score_id,
            &mut state,
            deadline,
        )?;
        let line = Stmt::new(node.kind, head.clone(), Vec::new()).head_line();
        // A realization no candidate could make parseable is recorded but
        // cannot be assembled (it would corrupt the function AST).
        if parse_generated_head(node.kind, &line).is_some() {
            kept_heads.insert(node_id, head);
            prev_line_ids = Some(out_ids);
        }
        stmts.push(GeneratedStmt {
            node: node_id,
            score,
            line,
            kept: true,
        });
    }

    // --- Assembly -------------------------------------------------------------
    let body = assemble(template, &template.roots, &kept_heads);
    let function = assemble_function(template, target_ns, &stmts[0], body);

    let multi_source = compute_multi_source(template, &kept_heads);
    obs.observe("generate.function_seconds", fn_span.finish().as_secs_f64());
    obs.counter_add("generate.functions", 1);
    Ok(GeneratedFunction {
        name: template.name.clone(),
        function,
        confidence: sig_score,
        stmts,
        multi_source,
    })
}

/// Candidate token runs for one slot: its ranked new-target values when it
/// has a nonempty ranking, the slot's training token runs otherwise (right
/// for target-independent literals like field masks).
fn slot_candidate_runs(
    slot: &SlotData,
    ranking: Option<&SlotRanking>,
    new_norm: &TargetNorm,
) -> (Option<usize>, Vec<Vec<Token>>) {
    // Training runs shape candidate typing: a slot whose values are string
    // literals must be filled with a string literal, not a bare token.
    let exemplar = slot.values.values().next();
    let typed_run = |c: &str| -> Vec<Token> {
        match exemplar.map(Vec::as_slice) {
            Some([Token::Str(_)]) => vec![Token::Str(c.to_string())],
            Some([Token::Int(_)]) => c
                .parse::<i64>()
                .map(|v| vec![Token::Int(v)])
                .unwrap_or_else(|_| vec![Token::ident(c)]),
            _ => lex(c).unwrap_or_else(|_| vec![Token::ident(c)]),
        }
    };
    if let Some((prop_idx, ranked)) = ranking {
        if !ranked.is_empty() {
            let runs = ranked.iter().map(|c| typed_run(c)).collect();
            return (Some(*prop_idx), runs);
        }
    }
    // Fallback: distinct training runs, most common first, with the source
    // target's own name rewritten onto this target (a run like
    // `Syn00::C_ADD` must arrive as `<NS>::C_ADD`).
    let mut counts: BTreeMap<Vec<Token>, usize> = BTreeMap::new();
    for (src_target, v) in &slot.values {
        let src_norm = TargetNorm::new(src_target);
        let renamed: Vec<Token> = v
            .iter()
            .map(|t| match t {
                Token::Ident(id) => Token::Ident(new_norm.restore(&src_norm.anonymize(id))),
                Token::Str(st) => Token::Str(new_norm.restore(&src_norm.anonymize(st))),
                other => other.clone(),
            })
            .collect();
        *counts.entry(renamed).or_default() += 1;
    }
    let mut runs: Vec<(Vec<Token>, usize)> = counts.into_iter().collect();
    runs.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    (None, runs.into_iter().map(|(r, _)| r).take(8).collect())
}

/// Realizes a statement's head by filling each slot with the candidate the
/// model scores highest (sequential left-to-right choice, remaining slots
/// held at their prior-best), scoring on the statement's `session` with one
/// batched call per slot. Candidates come from the statement's `rankings`.
/// Fallible because candidate scoring runs the model, which can abort at
/// `deadline` when routed through a backend.
#[allow(clippy::too_many_arguments)]
fn realize_statement(
    model: &CodeBe,
    session: &mut DecodeSession<'_>,
    norm: &TargetNorm,
    node: &StmtTemplate,
    feats: &TemplateFeatures,
    ix: &TgtIndex,
    rankings: &[Option<SlotRanking>],
    score_id: Option<usize>,
    state: &mut GenState,
    deadline: Option<Instant>,
) -> Result<(Vec<Token>, Vec<usize>), DecodeAbort> {
    // Collect per-slot candidates (pattern order).
    let slot_ids: Vec<usize> = node
        .pattern
        .iter()
        .filter_map(|p| match p {
            PatTok::Slot(i) => Some(*i),
            PatTok::Common(_) => None,
        })
        .collect();
    let mut options: BTreeMap<usize, (Option<usize>, Vec<Vec<Token>>)> = BTreeMap::new();
    for &sid in &slot_ids {
        options.insert(
            sid,
            slot_candidate_runs(&node.slots[sid], rankings[sid].as_ref(), &state.new_norm),
        );
    }
    // Current assignment: prior-best everywhere.
    let mut chosen: BTreeMap<usize, Vec<Token>> = BTreeMap::new();
    for (&sid, (_, runs)) in &options {
        chosen.insert(sid, runs.first().cloned().unwrap_or_default());
    }
    let realize_ids = |model: &CodeBe, chosen: &BTreeMap<usize, Vec<Token>>| -> Vec<usize> {
        let head = fill_pattern(node, chosen);
        let stmt = Stmt::new(node.kind, head, Vec::new());
        let mut ids = Vec::new();
        crate::featvec::encode_tokens_anonymized(&stmt.line_tokens(), &model.vocab, norm, &mut ids);
        ids.truncate(63);
        ids
    };
    // Trained outputs begin with a score token; candidates are scored in
    // the same frame so the comparison is in-distribution.
    let with_score = |ids: &[usize]| -> Vec<usize> {
        match score_id {
            Some(sid) => {
                let mut v = Vec::with_capacity(ids.len() + 1);
                v.push(sid);
                v.extend_from_slice(ids);
                v
            }
            None => ids.to_vec(),
        }
    };
    // Choose sequentially, scoring full realizations with the model; only
    // candidates whose realization stays parseable are eligible.
    let line_ok = |chosen: &BTreeMap<usize, Vec<Token>>| -> bool {
        let head = fill_pattern(node, chosen);
        parse_generated_head(
            node.kind,
            &Stmt::new(node.kind, head, Vec::new()).head_line(),
        )
        .is_some()
    };
    for &sid in &slot_ids {
        let (_, runs) = &options[&sid];
        if runs.len() > 1 {
            // The slot's eligible candidates, scored in one call.
            let (mut cis, mut cands) = (Vec::new(), Vec::new());
            for (ci, cand) in runs.iter().enumerate() {
                let mut trial = chosen.clone();
                trial.insert(sid, cand.clone());
                if line_ok(&trial) {
                    cis.push(ci);
                    cands.push(with_score(&realize_ids(model, &trial)));
                }
            }
            let lps = session.try_sequence_logprobs(&cands, deadline)?;
            let mut best: Option<(f32, usize)> = None;
            for ((&ci, ids), lp) in cis.iter().zip(&cands).zip(lps) {
                let lp = lp / ids.len().max(1) as f32;
                if best.is_none() || lp > best.unwrap().0 {
                    best = Some((lp, ci));
                }
            }
            if let Some((_, ci)) = best {
                chosen.insert(sid, runs[ci].clone());
            }
        }
        // Track consumption / def scoping for later slots and statements.
        if let (Some(prop_idx), _) = options[&sid] {
            if let Some(source) = feats.props[prop_idx].source.as_ref() {
                let v = crate::features::slot_value_string(&chosen[&sid]);
                note_choice(prop_idx, &v, source, ix, state);
            }
        }
    }
    let mut head = fill_pattern(node, &chosen);
    // Nodes present in a single training target can carry that target's name
    // inside *common* tokens (nothing existed to diff them against); rename
    // those onto the new target.
    if node.present.len() == 1 {
        let src_norm = TargetNorm::new(&node.present[0]);
        for t in &mut head {
            match t {
                Token::Ident(id) => *id = state.new_norm.restore(&src_norm.anonymize(id)),
                Token::Str(st) => *st = state.new_norm.restore(&src_norm.anonymize(st)),
                _ => {}
            }
        }
    }
    let out_ids = {
        let stmt = Stmt::new(node.kind, head.clone(), Vec::new());
        let mut ids = Vec::new();
        crate::featvec::encode_tokens_anonymized(&stmt.line_tokens(), &model.vocab, norm, &mut ids);
        ids.truncate(63);
        ids
    };
    Ok((head, out_ids))
}

/// Instantiates a node's pattern with a slot assignment.
fn fill_pattern(node: &StmtTemplate, chosen: &BTreeMap<usize, Vec<Token>>) -> Vec<Token> {
    let mut out = Vec::with_capacity(node.pattern.len() + 4);
    for p in &node.pattern {
        match p {
            PatTok::Common(t) => out.push(t.clone()),
            PatTok::Slot(i) => out.extend(chosen.get(i).cloned().unwrap_or_default()),
        }
    }
    out
}

/// The signature rendered as a pseudo statement-template node.
pub fn signature_node_for(template: &FunctionTemplate) -> StmtTemplate {
    StmtTemplate {
        kind: StmtKind::Simple,
        parent: None,
        in_else: false,
        pattern: template.signature.pattern.clone(),
        slots: template.signature.slots.clone(),
        present: template.targets.clone(),
        children: Vec::new(),
        else_children: Vec::new(),
    }
}

fn score_offset(out: &[usize], model: &CodeBe) -> usize {
    usize::from(
        out.first()
            .is_some_and(|&id| model.vocab.score_of(id).is_some()),
    )
}

/// Splits a decoded output into (score, statement text), restoring the
/// target's name for the anonymization sentinels.
fn split_output(model: &CodeBe, norm: &TargetNorm, out: &[usize]) -> (f64, String) {
    let score = out
        .first()
        .and_then(|&id| model.vocab.score_of(id))
        .unwrap_or(0.0);
    let rest = &out[score_offset(out, model)..];
    let spellings = model.vocab.decode_spellings(rest);
    (score, norm.restore(&spellings.join(" ")))
}

/// Parses a generated line back into head tokens according to the template
/// node's statement kind; `None` when the line is hopeless.
pub fn parse_generated_head(kind: StmtKind, line: &str) -> Option<Vec<Token>> {
    let toks = lex(line).ok()?;
    let strip = |toks: &[Token], lead: &[&str], trail: &[&str]| -> Vec<Token> {
        let mut start = 0usize;
        for l in lead {
            if toks
                .get(start)
                .is_some_and(|t| t.is_ident(l) || t.is_punct(l))
            {
                start += 1;
            }
        }
        let mut end = toks.len();
        for t in trail.iter().rev() {
            if end > start && (toks[end - 1].is_ident(t) || toks[end - 1].is_punct(t)) {
                end -= 1;
            }
        }
        toks[start..end].to_vec()
    };
    let head = match kind {
        StmtKind::Simple => strip(&toks, &[], &[";"]),
        StmtKind::Return => strip(&toks, &["return"], &[";"]),
        StmtKind::If => strip(&toks, &["if", "("], &[")", "{"]),
        StmtKind::Switch => strip(&toks, &["switch", "("], &[")", "{"]),
        StmtKind::While => strip(&toks, &["while", "("], &[")", "{"]),
        StmtKind::For => strip(&toks, &["for", "("], &[")", "{"]),
        StmtKind::Case => strip(&toks, &["case"], &[":"]),
        StmtKind::Default | StmtKind::Break | StmtKind::Block => Vec::new(),
    };
    // Validate: the head must render into a line the parser accepts, or
    // downstream assembly would produce an unparseable function.
    let probe = Stmt::new(kind, head.clone(), Vec::new());
    let full = match kind {
        StmtKind::If | StmtKind::Switch | StmtKind::While | StmtKind::For | StmtKind::Block => {
            format!("{} }}", probe.head_line())
        }
        StmtKind::Case | StmtKind::Default => format!("switch (x) {{ {} }}", probe.head_line()),
        _ => probe.head_line(),
    };
    // Heads must also be *expression*-parseable for their kind, or the
    // interpreter would abort the whole surrounding construct on a malformed
    // fragment like `case MVT:: :`.
    let expr_ok = match kind {
        StmtKind::Simple => head.is_empty() || vega_cpplite::parse_head_expr(&head).is_ok(),
        StmtKind::Return => head.is_empty() || vega_cpplite::parse_expr_tokens(&head).is_ok(),
        StmtKind::If | StmtKind::While | StmtKind::Case | StmtKind::Switch => {
            vega_cpplite::parse_expr_tokens(&head).is_ok()
        }
        _ => true,
    };
    if !expr_ok {
        return None;
    }
    let reparsed = vega_cpplite::parse_stmts(&full).ok()?;
    // The line must reparse as exactly one statement *of the template’s
    // kind* — a Simple head spelling `return 0` would silently change kind
    // on the next parse and break AST round-tripping.
    match reparsed.as_slice() {
        [one] if one.kind == kind => Some(head),
        [vega_cpplite::Stmt {
            kind: StmtKind::Switch,
            children,
            ..
        }] if matches!(kind, StmtKind::Case | StmtKind::Default)
            && children.len() == 1
            && children[0].kind == kind =>
        {
            Some(head)
        }
        _ => None,
    }
}

/// Rebuilds the statement tree over kept nodes.
fn assemble(
    template: &FunctionTemplate,
    ids: &[usize],
    kept_heads: &BTreeMap<usize, Vec<Token>>,
) -> Vec<Stmt> {
    let mut out = Vec::new();
    for &id in ids {
        let node = &template.stmts[id];
        let Some(head) = kept_heads.get(&id) else {
            continue;
        };
        let mut s = Stmt::new(
            node.kind,
            head.clone(),
            assemble(template, &node.children, kept_heads),
        );
        s.else_children = assemble(template, &node.else_children, kept_heads);
        out.push(s);
    }
    out
}

/// Builds the final [`Function`]: parse the generated signature; fall back to
/// the template's seed-target signature (renamed onto the new target) when
/// the generated one is malformed.
fn assemble_function(
    template: &FunctionTemplate,
    target_ns: &str,
    sig: &GeneratedStmt,
    body: Vec<Stmt>,
) -> Option<Function> {
    let new_norm = TargetNorm::new(target_ns);
    let try_parse = |sig_text: &str| -> Option<Function> {
        let text = format!("{} }}", ensure_open_brace(sig_text));
        parse_function(&text).ok()
    };
    // The interface contract (return type, parameters) comes from the
    // template — the paper notes VEGA's templates "correctly specify names,
    // parameters, and types" even when statements are wrong. The generated
    // signature line still carries the confidence score.
    let template_sig = {
        let seed = template.targets.first()?;
        let seed_norm = TargetNorm::new(seed);
        let toks = sig_tokens_for_pub(template, seed)?;
        let text = new_norm.restore(&seed_norm.anonymize(&vega_cpplite::render_tokens(&toks)));
        try_parse(&text)?
    };
    let mut f =
        if sig.kept { try_parse(&sig.line) } else { None }.unwrap_or_else(|| template_sig.clone());
    f.ret = template_sig.ret;
    f.params = template_sig.params;
    f.name = template.name.clone();
    f.body = body;
    Some(f)
}

fn ensure_open_brace(sig: &str) -> String {
    let t = sig.trim_end();
    if t.ends_with('{') {
        t.to_string()
    } else {
        format!("{t} {{")
    }
}

/// The signature token sequence a given target had (slots substituted).
pub fn sig_tokens_for_pub(template: &FunctionTemplate, target: &str) -> Option<Vec<Token>> {
    let mut out = Vec::new();
    for p in &template.signature.pattern {
        match p {
            PatTok::Common(t) => out.push(t.clone()),
            PatTok::Slot(i) => {
                let v = template.signature.slots.get(*i)?.values.get(target)?;
                out.extend(v.iter().cloned());
            }
        }
    }
    Some(out)
}

/// True when no single training target contains every kept statement.
fn compute_multi_source(
    template: &FunctionTemplate,
    kept_heads: &BTreeMap<usize, Vec<Token>>,
) -> bool {
    if kept_heads.is_empty() {
        return false;
    }
    !template.targets.iter().any(|t| {
        kept_heads
            .keys()
            .all(|&id| template.stmts[id].present.iter().any(|p| p == t))
    })
}

/// Confidence labels for training outputs (Eq. (1) per target) — exported so
/// Stage 2 shares the identical computation.
pub fn training_confidence(
    template: &FunctionTemplate,
    feats: &TemplateFeatures,
    node_id: usize,
    target: &str,
    tgt_candidates: &BTreeMap<usize, usize>,
) -> f64 {
    if node_id == SIG_NODE {
        return if template.targets.iter().any(|t| t == target) {
            1.0
        } else {
            0.0
        };
    }
    let node = &template.stmts[node_id];
    let has = template.has(node_id, target);
    let counts = slot_candidate_counts(node_id, node, feats, tgt_candidates);
    confidence_score(node, &counts, has)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_generated_head_strips_structure() {
        let head =
            parse_generated_head(StmtKind::Case, "case RISCV :: fixup_riscv_hi16 :").unwrap();
        assert_eq!(
            vega_cpplite::render_tokens(&head),
            "RISCV::fixup_riscv_hi16"
        );
        let head = parse_generated_head(StmtKind::If, "if ( IsPCRel ) {").unwrap();
        assert_eq!(vega_cpplite::render_tokens(&head), "IsPCRel");
        let head = parse_generated_head(StmtKind::Return, "return ELF :: R_X_NONE ;").unwrap();
        assert_eq!(vega_cpplite::render_tokens(&head), "ELF::R_X_NONE");
        // Malformed lines still produce best-effort heads.
        let head = parse_generated_head(StmtKind::Return, "ELF :: R_X_NONE").unwrap();
        assert_eq!(vega_cpplite::render_tokens(&head), "ELF::R_X_NONE");
    }

    #[test]
    fn candidate_similarity_prefers_matching_kind() {
        let train = vec![
            "fixup_arm_movt_hi16".to_string(),
            "fixup_MIPS_HI16".to_string(),
        ];
        let refs = NameRefs::new(&train);
        let hi = refs.similarity("fixup_riscv_hi16");
        let lo = refs.similarity("fixup_riscv_call");
        assert!(hi > lo, "hi {hi} lo {lo}");
    }
}
