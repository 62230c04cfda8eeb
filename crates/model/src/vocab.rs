//! The CodeBE vocabulary: special tokens, subword pieces, char fallback.

use crate::subtok::{pieces_to_spellings, WORD_START};
use std::collections::HashMap;
use vega_obs::json::{Json, JsonError};

/// Number of quantized confidence-score tokens (`[CS_0]`=0.00 … `[CS_20]`=1.00).
pub const NUM_SCORE_TOKENS: usize = 21;

/// Special vocabulary entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Special {
    /// Padding.
    Pad,
    /// Decoder start (the paper's `[E2D]` mode token doubles as BOS here).
    Bos,
    /// End of sequence.
    Eos,
    /// Separator between the statement template and the property values.
    Sep,
    /// Sequence-leading classification token.
    Cls,
    /// Encoder-decoder mode marker.
    E2d,
    /// A NULL property value (target-dependent property absent).
    Null,
    /// Boolean true property value.
    True,
    /// Boolean false property value.
    False,
    /// Mask token for the denoising pre-training objective.
    Mask,
    /// Placeholder marker rendered for template slots (`SV` in the paper).
    Slot,
}

const SPECIAL_NAMES: &[(&str, Special)] = &[
    ("[PAD]", Special::Pad),
    ("[BOS]", Special::Bos),
    ("[EOS]", Special::Eos),
    ("[SEP]", Special::Sep),
    ("[CLS]", Special::Cls),
    ("[E2D]", Special::E2d),
    ("[NULL]", Special::Null),
    ("[TRUE]", Special::True),
    ("[FALSE]", Special::False),
    ("[MASK]", Special::Mask),
    ("[SV]", Special::Slot),
];

/// A frozen subword vocabulary. Only the piece list is serialized; the
/// lookup map is rebuilt on load. The contents live behind an `Arc`, so
/// cloning a vocabulary — and hence a model — shares one frozen piece table
/// instead of copying thousands of strings.
#[derive(Debug, Clone)]
pub struct Vocab {
    inner: std::sync::Arc<VocabInner>,
}

#[derive(Debug)]
struct VocabInner {
    pieces: Vec<String>,
    ids: HashMap<String, usize>,
}

impl Vocab {
    /// Freezes a piece list, building the lookup index.
    fn freeze(pieces: Vec<String>) -> Self {
        let ids = pieces
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i))
            .collect();
        Vocab {
            inner: std::sync::Arc::new(VocabInner { pieces, ids }),
        }
    }

    /// Builds a vocabulary from the subword pieces observed in a corpus.
    /// Specials and score tokens come first, then a full single-character
    /// fallback (both ▁-marked and continuation forms), then observed pieces.
    pub fn build<'a>(observed: impl IntoIterator<Item = &'a str>) -> Self {
        let mut pieces: Vec<String> = Vec::new();
        for (name, _) in SPECIAL_NAMES {
            pieces.push((*name).to_string());
        }
        for k in 0..NUM_SCORE_TOKENS {
            pieces.push(format!("[CS_{k}]"));
        }
        // Char fallback: printable ASCII in both positions.
        for c in 32u8..127 {
            let ch = c as char;
            pieces.push(format!("{WORD_START}{ch}"));
            pieces.push(ch.to_string());
        }
        // Target-name sentinels (see `TargetNorm`).
        for ch in crate::subtok::TGT_SENTINELS {
            pieces.push(format!("{WORD_START}{ch}"));
            pieces.push(ch.to_string());
        }
        let mut seen: HashMap<String, usize> = pieces
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i))
            .collect();
        let mut ordered: Vec<String> = Vec::new();
        for p in observed {
            if !seen.contains_key(p) {
                seen.insert(p.to_string(), 0);
                ordered.push(p.to_string());
            }
        }
        ordered.sort_unstable();
        pieces.extend(ordered);
        Vocab::freeze(pieces)
    }

    /// Serializes to a JSON value (`{"pieces":[...]}`).
    pub fn to_json_value(&self) -> Json {
        Json::obj([(
            "pieces",
            Json::Arr(self.inner.pieces.iter().map(Json::str).collect()),
        )])
    }

    /// Restores from [`Vocab::to_json_value`] output, rebuilding the index.
    ///
    /// # Errors
    /// Returns an error if the value does not describe a vocabulary.
    pub fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        let pieces = v
            .field("pieces")?
            .as_array()?
            .iter()
            .map(|p| Ok(p.as_str()?.to_string()))
            .collect::<Result<Vec<String>, JsonError>>()?;
        Ok(Vocab::freeze(pieces))
    }

    /// Vocabulary size.
    pub fn len(&self) -> usize {
        self.inner.pieces.len()
    }

    /// Returns `true` if the vocabulary is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.inner.pieces.is_empty()
    }

    /// Id of a special token.
    pub fn special(&self, s: Special) -> usize {
        let name = SPECIAL_NAMES
            .iter()
            .find(|(_, sp)| *sp == s)
            .map(|(n, _)| *n)
            .expect("special registered");
        self.inner.ids[name]
    }

    /// Id of the quantized score token for a confidence in `[0, 1]`.
    pub fn score_token(&self, confidence: f64) -> usize {
        let k = (confidence.clamp(0.0, 1.0) * (NUM_SCORE_TOKENS - 1) as f64).round() as usize;
        self.inner.ids[&format!("[CS_{k}]")]
    }

    /// The confidence represented by an id, if it is a score token.
    pub fn score_of(&self, id: usize) -> Option<f64> {
        let p = self.inner.pieces.get(id)?;
        let k: usize = p.strip_prefix("[CS_")?.strip_suffix(']')?.parse().ok()?;
        Some(k as f64 / (NUM_SCORE_TOKENS - 1) as f64)
    }

    /// Encodes one piece, falling back to characters for unknown pieces.
    pub fn encode_piece(&self, piece: &str, out: &mut Vec<usize>) {
        if let Some(&id) = self.inner.ids.get(piece) {
            out.push(id);
            return;
        }
        // Char fallback, preserving the word-start marker on the first char.
        let (marked, body) = match piece.strip_prefix(WORD_START) {
            Some(rest) => (true, rest),
            None => (false, piece),
        };
        for (i, ch) in body.chars().enumerate() {
            let key = if i == 0 && marked {
                format!("{WORD_START}{ch}")
            } else {
                ch.to_string()
            };
            if let Some(&id) = self.inner.ids.get(&key) {
                out.push(id);
            }
            // Non-ASCII chars outside the fallback are dropped.
        }
    }

    /// Encodes a piece stream.
    pub fn encode_pieces(&self, pieces: &[String]) -> Vec<usize> {
        let mut out = Vec::with_capacity(pieces.len());
        for p in pieces {
            self.encode_piece(p, out.as_mut());
        }
        out
    }

    /// Decodes ids into pieces, skipping specials and score tokens.
    pub fn decode_pieces(&self, ids: &[usize]) -> Vec<String> {
        ids.iter()
            .filter_map(|&id| self.inner.pieces.get(id))
            .filter(|p| !(p.starts_with('[') && p.ends_with(']')))
            .cloned()
            .collect()
    }

    /// Decodes ids into source-token spellings.
    pub fn decode_spellings(&self, ids: &[usize]) -> Vec<String> {
        pieces_to_spellings(&self.decode_pieces(ids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subtok::tokens_to_pieces;
    use vega_cpplite::lex;

    fn sample_vocab() -> Vocab {
        let toks = lex("case ARM::fixup_arm_movt_hi16: return ELF::R_ARM_MOVT_PREL;").unwrap();
        let pieces = tokens_to_pieces(&toks);
        let refs: Vec<&str> = pieces.iter().map(String::as_str).collect();
        Vocab::build(refs)
    }

    #[test]
    fn roundtrip_known_statement() {
        let v = sample_vocab();
        let toks = lex("case ARM::fixup_arm_movt_hi16:").unwrap();
        let ids = v.encode_pieces(&tokens_to_pieces(&toks));
        let spell = v.decode_spellings(&ids);
        assert_eq!(spell, vec!["case", "ARM", "::", "fixup_arm_movt_hi16", ":"]);
    }

    #[test]
    fn unknown_pieces_fall_back_to_chars() {
        let v = sample_vocab();
        let toks = lex("zzqy").unwrap();
        let ids = v.encode_pieces(&tokens_to_pieces(&toks));
        assert!(!ids.is_empty());
        let spell = v.decode_spellings(&ids);
        assert_eq!(spell, vec!["zzqy"]);
    }

    #[test]
    fn score_tokens_roundtrip() {
        let v = sample_vocab();
        for conf in [0.0, 0.23, 0.5, 0.77, 1.0] {
            let id = v.score_token(conf);
            let back = v.score_of(id).unwrap();
            assert!((back - conf).abs() <= 0.025 + 1e-9, "{conf} → {back}");
        }
        assert_eq!(v.score_of(v.special(Special::Sep)), None);
    }

    #[test]
    fn specials_are_distinct() {
        let v = sample_vocab();
        let ids: Vec<usize> = [
            Special::Pad,
            Special::Bos,
            Special::Eos,
            Special::Sep,
            Special::Cls,
            Special::E2d,
            Special::Null,
            Special::True,
            Special::False,
            Special::Mask,
        ]
        .iter()
        .map(|&s| v.special(s))
        .collect();
        let mut d = ids.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), ids.len());
    }

    #[test]
    fn json_roundtrip_with_reindex() {
        let v = sample_vocab();
        let json = v.to_json_value().render();
        let v2 = Vocab::from_json_value(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(v.len(), v2.len());
        assert_eq!(v.special(Special::Sep), v2.special(Special::Sep));
    }
}
