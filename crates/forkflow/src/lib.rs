//! `vega-forkflow`: the traditional fork-flow baseline (paper §4.2).
//!
//! ForkFlow forks a function from the most similar existing backend (the
//! paper forks from MIPS) and renames target-specific identifiers using the
//! new target's description files — the mechanical part of what a developer
//! would do before the real porting work begins. Its pass@1 accuracy is the
//! baseline VEGA is compared against (the paper measures < 8%).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use vega::{NameRefs, TgtIndex, ValueSource};
use vega_corpus::{ArchSpec, Backend, Corpus, TargetData};
use vega_cpplite::{Function, Stmt, Token};

/// Identifier categories rewritten during the fork.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Category {
    Namespace,
    Fixup,
    Reloc,
    Instr,
    Reg,
    VariantKind,
}

/// A fork-and-rename of one source backend onto a new target.
#[derive(Debug)]
pub struct ForkFlow {
    source_ns: String,
    target_ns: String,
    /// Source identifier → category.
    source_cats: HashMap<String, Category>,
    /// Category → target candidate values.
    target_values: HashMap<Category, Vec<String>>,
    /// Source mnemonic strings → target mnemonic strings.
    mnemonic_map: HashMap<String, String>,
    /// Memoized renames so a source identifier maps consistently.
    renames: HashMap<String, String>,
}

impl ForkFlow {
    /// Prepares a fork from `source` (its spec is known — the developer owns
    /// that backend) onto `target`, about which only the description files
    /// are consulted.
    pub fn new(source: &ArchSpec, target_ns: &str, target_desc: &TgtIndex) -> Self {
        let mut source_cats = HashMap::new();
        for f in &source.fixups {
            source_cats.insert(f.name.clone(), Category::Fixup);
            source_cats.insert(f.reloc_abs.clone(), Category::Reloc);
            if let Some(p) = &f.reloc_pcrel {
                source_cats.insert(p.clone(), Category::Reloc);
            }
        }
        source_cats.insert(
            format!("R_{}_NONE", source.name.to_uppercase()),
            Category::Reloc,
        );
        for i in &source.instrs {
            source_cats.insert(i.name.clone(), Category::Instr);
        }
        for rc in &source.regs {
            for n in 0..rc.count {
                source_cats.insert(format!("{}{}", rc.prefix, n), Category::Reg);
            }
        }
        for v in &source.variant_kinds {
            source_cats.insert(v.clone(), Category::VariantKind);
        }
        source_cats.insert(source.name.clone(), Category::Namespace);

        let mut target_values = HashMap::new();
        target_values.insert(
            Category::Fixup,
            target_desc.candidates(&ValueSource::TgtEnum {
                llvm_name: "MCFixupKind".into(),
            }),
        );
        target_values.insert(
            Category::Reloc,
            target_desc.candidates(&ValueSource::TgtEnum {
                llvm_name: "ELF".into(),
            }),
        );
        target_values.insert(
            Category::Instr,
            target_desc.candidates(&ValueSource::DefNames {
                class: "Instruction".into(),
            }),
        );
        target_values.insert(
            Category::Reg,
            target_desc.candidates(&ValueSource::RegNames),
        );
        target_values.insert(
            Category::VariantKind,
            target_desc.candidates(&ValueSource::TgtEnum {
                llvm_name: "VariantKind".into(),
            }),
        );

        // Mnemonic strings: source mnemonic → most similar target mnemonic.
        let target_mnemonics = target_desc.candidates(&ValueSource::Field {
            field: "Mnemonic".into(),
        });
        let mut mnemonic_map = HashMap::new();
        for i in &source.instrs {
            if let Some(best) = best_match(&i.mnemonic, &target_mnemonics) {
                mnemonic_map.insert(i.mnemonic.clone(), best);
            }
        }

        ForkFlow {
            source_ns: source.name.clone(),
            target_ns: target_ns.to_string(),
            source_cats,
            target_values,
            mnemonic_map,
            renames: HashMap::new(),
        }
    }

    /// Forks one function.
    pub fn fork_function(&mut self, f: &Function) -> Function {
        let mut out = f.clone();
        out.qualifier = out
            .qualifier
            .iter()
            .map(|q| q.replace(&self.source_ns, &self.target_ns))
            .collect();
        out.ret = self.rewrite_tokens(&f.ret);
        for p in &mut out.params {
            p.ty = self.rewrite_tokens(&p.ty);
        }
        out.body = f.body.iter().map(|s| self.rewrite_stmt(s)).collect();
        out
    }

    fn rewrite_stmt(&mut self, s: &Stmt) -> Stmt {
        let mut out = s.clone();
        out.head = self.rewrite_tokens(&s.head);
        out.children = s.children.iter().map(|c| self.rewrite_stmt(c)).collect();
        out.else_children = s
            .else_children
            .iter()
            .map(|c| self.rewrite_stmt(c))
            .collect();
        out
    }

    fn rewrite_tokens(&mut self, toks: &[Token]) -> Vec<Token> {
        toks.iter()
            .map(|t| match t {
                Token::Ident(id) => Token::Ident(self.rename(id)),
                Token::Str(s) if *s == self.source_ns => Token::Str(self.target_ns.clone()),
                Token::Str(s) => Token::Str(
                    self.mnemonic_map
                        .get(s)
                        .cloned()
                        .unwrap_or_else(|| s.clone()),
                ),
                other => other.clone(),
            })
            .collect()
    }

    fn rename(&mut self, id: &str) -> String {
        if let Some(r) = self.renames.get(id) {
            return r.clone();
        }
        let renamed = match self.source_cats.get(id) {
            Some(Category::Namespace) => self.target_ns.clone(),
            Some(cat) => {
                let cands = self.target_values.get(cat).cloned().unwrap_or_default();
                best_match(id, &cands).unwrap_or_else(|| id.to_string())
            }
            None => {
                // Embedded-namespace identifiers like `MipsELFObjectWriter`.
                if id.contains(&self.source_ns) {
                    id.replace(&self.source_ns, &self.target_ns)
                } else {
                    id.to_string()
                }
            }
        };
        self.renames.insert(id.to_string(), renamed.clone());
        renamed
    }
}

/// The candidate most similar in name to `value` (the last one on a tie).
fn best_match(value: &str, candidates: &[String]) -> Option<String> {
    let refs = NameRefs::new(&[value.to_string()]);
    candidates
        .iter()
        .map(|c| (refs.similarity(c), c))
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, c)| c.clone())
}

/// Forks the whole `source` backend onto `target` using only the target's
/// description files from the corpus.
///
/// # Panics
/// Panics if either target is not in the corpus.
pub fn forkflow_backend(corpus: &Corpus, source: &str, target: &str) -> Backend {
    let src: &TargetData = corpus.target(source).expect("source target");
    let tgt: &TargetData = corpus.target(target).expect("target");
    let ix = TgtIndex::build(&tgt.descriptions);
    let mut ff = ForkFlow::new(&src.spec, &tgt.spec.name, &ix);
    let mut out = Backend::new(tgt.spec.name.clone());
    for (_, module, f) in src.backend.iter() {
        out.insert(module, ff.fork_function(f));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vega_corpus::{Corpus, CorpusConfig};
    use vega_minicc::regression_test;

    #[test]
    fn best_match_keeps_the_last_of_equal_maxima() {
        let cands = ["fixup_a_hi16", "R_X_NONE", "fixup_b_hi16"].map(String::from);
        assert_eq!(
            best_match("fixup_mips_hi16", &cands).as_deref(),
            Some("fixup_b_hi16")
        );
        assert_eq!(best_match("fixup_mips_hi16", &[]), None);
    }

    #[test]
    fn fork_renames_namespace_and_values() {
        let corpus = Corpus::build(&CorpusConfig::tiny());
        let forked = forkflow_backend(&corpus, "Mips", "RISCV");
        let f = forked.function("getRelocType").unwrap();
        let text = vega_cpplite::render_function(f);
        assert!(!text.contains("Mips"), "{text}");
        assert!(text.contains("RISCV"), "{text}");
        assert!(text.contains("fixup_riscv_"), "{text}");
    }

    #[test]
    fn forked_backend_mostly_fails_regression() {
        let corpus = Corpus::build(&CorpusConfig::tiny());
        let forked = forkflow_backend(&corpus, "Mips", "RISCV");
        let rv = corpus.target("RISCV").unwrap();
        let mut pass = 0usize;
        let mut total = 0usize;
        for (name, _, reference) in rv.backend.iter() {
            let Some(cand) = forked.function(name) else {
                continue;
            };
            total += 1;
            if regression_test(name, cand, reference, &rv.spec).passed() {
                pass += 1;
            }
        }
        assert!(total >= 25);
        let acc = pass as f64 / total as f64;
        assert!(acc < 0.5, "forkflow suspiciously accurate: {acc}");
    }

    #[test]
    fn fork_is_deterministic() {
        let corpus = Corpus::build(&CorpusConfig::tiny());
        let a = forkflow_backend(&corpus, "Mips", "XCore");
        let b = forkflow_backend(&corpus, "Mips", "XCore");
        for (name, _, f) in a.iter() {
            assert_eq!(Some(f), b.function(name));
        }
    }
}
