//! Property-based tests over the substrates, spanning crates.
//!
//! Inputs are drawn from the deterministic [`Mix64`] generator (the same one
//! the corpus uses), so the 96 cases per property are identical on every run
//! and no external property-testing crate is needed.

use std::collections::HashSet;
use vega::{rank_by_name, NameRefs};
use vega_corpus::Mix64;
use vega_cpplite::{lex, parse_stmts, render_stmts, Token};
use vega_model::{pieces_to_spellings, spellings_to_source, split_ident, tokens_to_pieces};
use vega_treediff::{align_sequences, align_stmts, lcs_indices, lcs_similarity};

const CASES: u64 = 96;

const KEYWORDS: &[&str] = &[
    "if", "else", "switch", "case", "default", "return", "break", "while", "for", "true", "false",
    "nullptr", "const",
];

/// A small identifier, never a keyword.
fn ident(rng: &mut Mix64) -> String {
    loop {
        let len = rng.range(1, 13) as usize;
        let mut s = String::with_capacity(len);
        const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
        const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
        s.push(*rng.pick(FIRST) as char);
        for _ in 1..len {
            s.push(*rng.pick(REST) as char);
        }
        if !KEYWORDS.contains(&s.as_str()) {
            return s;
        }
    }
}

/// A simple assignment statement.
fn simple_stmt(rng: &mut Mix64) -> String {
    format!("{} = {} + {};", ident(rng), ident(rng), rng.below(10000))
}

/// A statement block with nesting up to `depth`.
fn stmt_block(rng: &mut Mix64, depth: u32) -> String {
    if depth == 0 {
        return simple_stmt(rng);
    }
    match rng.below(3) {
        0 => simple_stmt(rng),
        1 => format!("if ({}) {{ {} }}", ident(rng), stmt_block(rng, depth - 1)),
        _ => format!(
            "switch ({}) {{ case {}: {} break; default: {} break; }}",
            ident(rng),
            rng.below(50),
            stmt_block(rng, depth - 1),
            stmt_block(rng, depth - 1)
        ),
    }
}

/// A source snippet of 1–3 top-level blocks.
fn source(rng: &mut Mix64) -> String {
    let n = rng.range(1, 3);
    (0..n)
        .map(|_| stmt_block(rng, 2))
        .collect::<Vec<_>>()
        .join(" ")
}

fn byte_vec(rng: &mut Mix64, max_len: u64, bound: u64) -> Vec<u8> {
    (0..rng.below(max_len))
        .map(|_| rng.below(bound) as u8)
        .collect()
}

/// parse → render → parse is the identity on the statement AST.
#[test]
fn parse_render_roundtrip() {
    for case in 0..CASES {
        let mut rng = Mix64::keyed(case, "parse_render_roundtrip");
        let src = source(&mut rng);
        let stmts = parse_stmts(&src).expect("generated source parses");
        let printed = render_stmts(&stmts, 0);
        let reparsed = parse_stmts(&printed).expect("printed source parses");
        assert_eq!(stmts, reparsed, "case {case}: {src}");
    }
}

/// Subword pieces reassemble to the exact token spellings.
#[test]
fn subtok_roundtrip() {
    for case in 0..CASES {
        let mut rng = Mix64::keyed(case, "subtok_roundtrip");
        let n = rng.range(1, 3);
        let src = (0..n)
            .map(|_| simple_stmt(&mut rng))
            .collect::<Vec<_>>()
            .join(" ");
        let toks = lex(&src).unwrap();
        let pieces = tokens_to_pieces(&toks);
        let spell = pieces_to_spellings(&pieces);
        let rejoined = spellings_to_source(&spell);
        assert_eq!(lex(&rejoined).unwrap(), toks, "case {case}: {src}");
    }
}

/// LCS length is symmetric, bounded, and its pairs are strictly monotone.
#[test]
fn lcs_is_sane() {
    for case in 0..CASES {
        let mut rng = Mix64::keyed(case, "lcs_is_sane");
        let a = byte_vec(&mut rng, 24, 6);
        let b = byte_vec(&mut rng, 24, 6);
        let ab = lcs_indices(&a, &b, |x, y| x == y);
        let ba = lcs_indices(&b, &a, |x, y| x == y);
        assert_eq!(ab.len(), ba.len());
        assert!(ab.len() <= a.len().min(b.len()));
        for w in ab.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1);
        }
        for (i, j) in &ab {
            assert_eq!(a[*i], b[*j]);
        }
        let sim = lcs_similarity(&a, &b, |x, y| x == y);
        assert!((0.0..=1.0).contains(&sim));
        let self_sim = lcs_similarity(&a, &a, |x, y| x == y);
        assert!((self_sim - 1.0).abs() < 1e-12);
    }
}

/// Weighted alignment never pairs below the threshold and is monotone.
#[test]
fn alignment_respects_threshold() {
    for case in 0..CASES {
        let mut rng = Mix64::keyed(case, "alignment_respects_threshold");
        let a: Vec<i32> = (0..rng.below(16)).map(|_| rng.below(8) as i32).collect();
        let b: Vec<i32> = (0..rng.below(16)).map(|_| rng.below(8) as i32).collect();
        let sim = |x: &i32, y: &i32| 1.0 - (x - y).abs() as f64 / 8.0;
        let pairs = align_sequences(&a, &b, sim, 0.8);
        for (i, j) in &pairs {
            assert!(sim(&a[*i], &b[*j]) >= 0.8);
        }
        for w in pairs.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1);
        }
    }
}

/// Aligning a forest with itself matches every statement.
#[test]
fn self_alignment_is_total() {
    for case in 0..CASES {
        let mut rng = Mix64::keyed(case, "self_alignment_is_total");
        let src = source(&mut rng);
        let stmts = parse_stmts(&src).unwrap();
        let al = align_stmts(&stmts, &stmts);
        assert_eq!(al.pairs.len(), al.left_len, "case {case}: {src}");
        assert!(al.pairs.iter().all(|(l, r)| l == r));
    }
}

/// The lexer never loses integer values.
#[test]
fn lexer_preserves_ints() {
    for case in 0..CASES {
        let mut rng = Mix64::keyed(case, "lexer_preserves_ints");
        let v = rng.below(1_000_000_000) as i64;
        let toks = lex(&format!("x = {v};")).unwrap();
        assert!(toks.contains(&Token::Int(v)), "case {case}: {v}");
    }
}

/// Reference name similarity: a copy of the original per-call
/// implementation, which builds a `HashSet` of lowercase alphanumeric pieces
/// for the candidate and for every training value on each call.
fn reference_similarity(candidate: &str, train_values: &[String]) -> f64 {
    let pieces = |name: &str| -> HashSet<String> {
        split_ident(name)
            .into_iter()
            .map(|p| p.to_lowercase())
            .filter(|p| p.chars().any(|c| c.is_alphanumeric()))
            .collect()
    };
    let cand = pieces(candidate);
    if cand.is_empty() {
        return 0.0;
    }
    train_values
        .iter()
        .map(|tv| {
            let tvs = pieces(tv);
            let inter = cand.intersection(&tvs).count();
            let union = cand.union(&tvs).count();
            if union == 0 {
                0.0
            } else {
                inter as f64 / union as f64
            }
        })
        .fold(0.0, f64::max)
}

/// Reference ranking: a copy of the original comparator sort, which
/// re-derives both sides' `(similarity, unused)` keys on every comparison.
fn reference_rank(
    mut candidates: Vec<String>,
    train_values: &[String],
    used: Option<&HashSet<String>>,
    cap: usize,
) -> Vec<String> {
    candidates.sort_by(|a, b| {
        let ka = (
            reference_similarity(a, train_values),
            u8::from(!used.is_some_and(|u| u.contains(a))),
        );
        let kb = (
            reference_similarity(b, train_values),
            u8::from(!used.is_some_and(|u| u.contains(b))),
        );
        kb.partial_cmp(&ka).unwrap()
    });
    candidates.truncate(cap);
    candidates
}

/// A value name in the corpus's styles: `_`/`::`-joined or camel-cased
/// pieces from a small shared pool (so similarities tie often), mixed case
/// and digit runs, and now and then a name with no alphanumeric piece.
fn value_name(rng: &mut Mix64) -> String {
    const PIECES: &[&str] = &[
        "fixup", "riscv", "RISCV", "hi16", "lo12", "HI", "pcrel", "add", "ADD", "Addi32", "x",
        "X15", "gpr", "GPR", "Reg", "R_", "call", "7", "32", "V4I32",
    ];
    const PUNCT_ONLY: &[&str] = &["_", "::", "__", "_::_", ""];
    if rng.chance(0.08) {
        return rng.pick(PUNCT_ONLY).to_string();
    }
    let sep = *rng.pick(&["_", "::", ""]);
    (0..rng.range(1, 4))
        .map(|_| *rng.pick(PIECES))
        .collect::<Vec<_>>()
        .join(sep)
}

/// `rank_by_name` keys each candidate once, yet returns exactly what the
/// original comparator sort returned, element for element: same order, same
/// stable tie order, same cap. Cases cover ties and duplicate candidates,
/// names whose similarity is 0 (no alphanumeric piece), empty training
/// lists, mixed case and digit runs, random `used` sets, and caps of 8 and
/// above the list length. `NameRefs` scores every candidate with the
/// reference similarity's exact bits.
#[test]
fn rank_by_name_matches_comparator_sort() {
    // How many cases exercised each shape the property must cover.
    let (mut ties, mut unscored, mut no_train, mut used_moves, mut over_cap) = (0, 0, 0, 0, 0);
    for case in 0..CASES {
        let mut rng = Mix64::keyed(case, "rank_by_name_matches_comparator_sort");
        let mut candidates: Vec<String> = Vec::new();
        for _ in 0..rng.below(24) {
            let name = if !candidates.is_empty() && rng.chance(0.2) {
                rng.pick(&candidates).clone()
            } else {
                value_name(&mut rng)
            };
            candidates.push(name);
        }
        let train: Vec<String> = (0..rng.below(6)).map(|_| value_name(&mut rng)).collect();
        let used: Option<HashSet<String>> = rng.chance(0.6).then(|| {
            let mut u: HashSet<String> = candidates
                .iter()
                .filter(|_| rng.chance(0.3))
                .cloned()
                .collect();
            u.insert(value_name(&mut rng));
            u
        });
        let cap = if rng.chance(0.5) {
            8
        } else {
            candidates.len() + rng.range(1, 4) as usize
        };
        let refs = NameRefs::new(&train);
        let mut keys = HashSet::new();
        for c in &candidates {
            let sim = refs.similarity(c);
            assert_eq!(
                sim.to_bits(),
                reference_similarity(c, &train).to_bits(),
                "case {case}: {c:?} against {train:?}"
            );
            let unused = !used.as_ref().is_some_and(|u| u.contains(c));
            if !keys.insert((sim.to_bits(), unused)) {
                ties += 1;
            }
            unscored += usize::from(!c.chars().any(char::is_alphanumeric));
        }
        no_train += usize::from(train.is_empty() && !candidates.is_empty());
        over_cap += usize::from(cap > candidates.len() && !candidates.is_empty());
        let ranked = rank_by_name(candidates.clone(), &train, used.as_ref(), cap);
        assert_eq!(
            ranked,
            reference_rank(candidates.clone(), &train, used.as_ref(), cap),
            "case {case}: {candidates:?} against {train:?}, used {used:?}, cap {cap}"
        );
        used_moves += usize::from(ranked != rank_by_name(candidates, &train, None, cap));
    }
    for (shape, n) in [
        ("tied keys", ties),
        ("names without an alphanumeric piece", unscored),
        ("empty training lists", no_train),
        ("orders moved by `used`", used_moves),
        ("caps above the list length", over_cap),
    ] {
        assert!(n >= 10, "only {n} cases with {shape}");
    }
}
