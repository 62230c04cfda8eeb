//! Accuracy metrics: pass@1 function accuracy (Fig. 8), statement-level
//! accuracy (Fig. 9 / Table 3), and the error taxonomy (Table 2).

use std::collections::BTreeMap;
use vega::{GeneratedBackend, GeneratedFunction};
use vega_corpus::{ArchSpec, Backend, Corpus, Module};
use vega_cpplite::{Function, Stmt};
use vega_minicc::regression_test;
use vega_treediff::align_stmts;

/// Evaluation of one generated function against its reference.
#[derive(Debug, Clone)]
pub struct FunctionEval {
    /// Interface name.
    pub name: String,
    /// Backend module.
    pub module: Module,
    /// Whether the function was assembled at all.
    pub generated: bool,
    /// pass@1 verdict.
    pub accurate: bool,
    /// Function-level confidence score (0 for baselines without scores).
    pub confidence: f64,
    /// Whether the generated statements span multiple training targets.
    pub multi_source: bool,
    /// Reference statement count.
    pub stmt_total: usize,
    /// Statements counted accurate (all of them when the function passes).
    pub stmt_accurate: usize,
    /// Statements needing manual modification or supplementation.
    pub stmt_manual: usize,
    /// Wrong target-specific value in an otherwise-aligned statement.
    pub err_v: bool,
    /// Confidence score contradicting statement correctness.
    pub err_cs: bool,
    /// Missing or spurious statements.
    pub err_def: bool,
}

/// Evaluation of a whole generated backend.
#[derive(Debug, Clone)]
pub struct BackendEval {
    /// Target name.
    pub target: String,
    /// Per-function results (functions absent from the base compiler — e.g.
    /// DIS on xCORE — are excluded, as in the paper).
    pub functions: Vec<FunctionEval>,
}

impl BackendEval {
    /// Function-level accuracy over all evaluated functions.
    pub fn function_accuracy(&self) -> f64 {
        ratio(
            self.functions.iter().filter(|f| f.accurate).count(),
            self.functions.len(),
        )
    }

    /// Function accuracy per module.
    pub fn module_accuracy(&self) -> BTreeMap<Module, (usize, usize)> {
        let mut m: BTreeMap<Module, (usize, usize)> = BTreeMap::new();
        for f in &self.functions {
            let e = m.entry(f.module).or_insert((0, 0));
            e.1 += 1;
            if f.accurate {
                e.0 += 1;
            }
        }
        m
    }

    /// `(accurate, manual)` statement counts per module (Table 3).
    pub fn module_stmt_counts(&self) -> BTreeMap<Module, (usize, usize)> {
        let mut m: BTreeMap<Module, (usize, usize)> = BTreeMap::new();
        for f in &self.functions {
            let e = m.entry(f.module).or_insert((0, 0));
            e.0 += f.stmt_accurate;
            e.1 += f.stmt_manual;
        }
        m
    }

    /// Statement-level accuracy over everything.
    pub fn stmt_accuracy(&self) -> f64 {
        let acc: usize = self.functions.iter().map(|f| f.stmt_accurate).sum();
        let man: usize = self.functions.iter().map(|f| f.stmt_manual).sum();
        ratio(acc, acc + man)
    }

    /// Error-type rates over all functions (Table 2).
    pub fn error_rates(&self) -> (f64, f64, f64) {
        let n = self.functions.len();
        (
            ratio(self.functions.iter().filter(|f| f.err_v).count(), n),
            ratio(self.functions.iter().filter(|f| f.err_cs).count(), n),
            ratio(self.functions.iter().filter(|f| f.err_def).count(), n),
        )
    }
}

fn ratio(a: usize, b: usize) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Flattened view of a statement forest in alignment preorder.
fn flatten(stmts: &[Stmt]) -> Vec<&Stmt> {
    let mut out = Vec::new();
    fn walk<'a>(s: &'a Stmt, out: &mut Vec<&'a Stmt>) {
        out.push(s);
        for c in &s.children {
            walk(c, out);
        }
        for c in &s.else_children {
            walk(c, out);
        }
    }
    for s in stmts {
        walk(s, &mut out);
    }
    out
}

/// Statement-level comparison of a candidate against the reference.
struct StmtDiff {
    accurate: usize,
    manual: usize,
    value_mismatch: bool,
    missing_or_spurious: bool,
}

fn diff_stmts(candidate: &Function, reference: &Function) -> StmtDiff {
    let al = align_stmts(&candidate.body, &reference.body);
    let cand = flatten(&candidate.body);
    let refs = flatten(&reference.body);
    let mut matched_ref = vec![false; refs.len()];
    let mut accurate = 0usize;
    let mut value_mismatch = false;
    for (ci, ri) in &al.pairs {
        matched_ref[*ri] = true;
        let (c, r) = (cand[*ci], refs[*ri]);
        if c.kind == r.kind && c.head == r.head {
            accurate += 1;
        } else {
            value_mismatch = true;
        }
    }
    let missing = matched_ref.iter().filter(|m| !**m).count();
    let spurious = cand.len() - al.pairs.len();
    let mismatched = al.pairs.len() - accurate;
    StmtDiff {
        accurate,
        manual: missing + spurious + mismatched,
        value_mismatch,
        missing_or_spurious: missing + spurious > 0,
    }
}

/// Evaluates one generated function.
pub fn eval_function(
    gf: &GeneratedFunction,
    module: Module,
    reference: &Function,
    spec: &ArchSpec,
) -> FunctionEval {
    let stmt_total = reference.stmt_count();
    let (generated, accurate, diff) = match &gf.function {
        Some(f) => {
            let accurate = regression_test(&gf.name, f, reference, spec).passed();
            (true, accurate, Some(diff_stmts(f, reference)))
        }
        None => (false, false, None),
    };
    let (stmt_accurate, stmt_manual, err_v, err_def) = if accurate {
        (stmt_total, 0, false, false)
    } else {
        match &diff {
            Some(d) => (
                d.accurate,
                d.manual,
                d.value_mismatch,
                d.missing_or_spurious,
            ),
            None => (0, stmt_total, false, true),
        }
    };

    // Err-CS: a *confidence contradiction* — the score asserts near-certain
    // correctness (≥ 0.9) for a statement the reference does not contain, or
    // asserts incorrectness (< 0.5, dropped) for a statement the reference
    // does contain. Plain value mistakes at middling confidence are Err-V
    // territory, not calibration failures.
    let ref_lines: std::collections::HashSet<String> = flatten(&reference.body)
        .iter()
        .map(|s| s.head_line())
        .collect();
    let mut err_cs = false;
    for s in gf.stmts.iter().filter(|s| s.node != usize::MAX) {
        let line_matches = canonical_line(&s.line)
            .map(|l| ref_lines.contains(&l))
            .unwrap_or(false);
        if s.kept && s.score >= 0.9 && !line_matches && !accurate {
            err_cs = true;
        }
        if !s.kept && line_matches {
            err_cs = true;
        }
    }

    FunctionEval {
        name: gf.name.clone(),
        module,
        generated,
        accurate,
        confidence: gf.confidence,
        multi_source: gf.multi_source,
        stmt_total,
        stmt_accurate,
        stmt_manual,
        err_v,
        err_cs,
        err_def,
    }
}

/// Re-lexes a decoded line into the canonical `head_line` spelling so it can
/// be compared against reference lines.
fn canonical_line(line: &str) -> Option<String> {
    let stmts = vega_cpplite::parse_stmts(line).ok()?;
    stmts.first().map(|s| s.head_line())
}

/// Evaluates a VEGA-generated backend against the corpus reference.
pub fn eval_generated_backend(corpus: &Corpus, gen: &GeneratedBackend) -> BackendEval {
    let t = corpus.target(&gen.target).expect("target in corpus");
    let mut functions = Vec::new();
    for (module, gf) in &gen.functions {
        // The base compiler must implement the interface for pass@1 to be
        // defined (e.g. DIS does not exist for xCORE).
        let Some(reference) = t.backend.function(&gf.name) else {
            continue;
        };
        functions.push(eval_function(gf, *module, reference, &t.spec));
    }
    BackendEval {
        target: gen.target.clone(),
        functions,
    }
}

/// Evaluates a plain (score-less) candidate backend, e.g. ForkFlow output.
pub fn eval_plain_backend(corpus: &Corpus, candidate: &Backend, target: &str) -> BackendEval {
    let t = corpus.target(target).expect("target in corpus");
    let mut functions = Vec::new();
    for (name, module, reference) in t.backend.iter() {
        let Some(f) = candidate.function(name) else {
            functions.push(FunctionEval {
                name: name.to_string(),
                module,
                generated: false,
                accurate: false,
                confidence: 0.0,
                multi_source: false,
                stmt_total: reference.stmt_count(),
                stmt_accurate: 0,
                stmt_manual: reference.stmt_count(),
                err_v: false,
                err_cs: false,
                err_def: true,
            });
            continue;
        };
        let accurate = regression_test(name, f, reference, &t.spec).passed();
        let stmt_total = reference.stmt_count();
        let d = diff_stmts(f, reference);
        let (sa, sm) = if accurate {
            (stmt_total, 0)
        } else {
            (d.accurate, d.manual)
        };
        functions.push(FunctionEval {
            name: name.to_string(),
            module,
            generated: true,
            accurate,
            confidence: 0.0,
            multi_source: false,
            stmt_total,
            stmt_accurate: sa,
            stmt_manual: sm,
            err_v: !accurate && d.value_mismatch,
            err_cs: false,
            err_def: !accurate && d.missing_or_spurious,
        });
    }
    BackendEval {
        target: target.to_string(),
        functions,
    }
}

/// The corrected compiler of §4.3: generated-and-accurate functions kept,
/// every inaccurate one replaced by its base-compiler reference.
pub fn corrected_backend(corpus: &Corpus, eval: &BackendEval, gen: &GeneratedBackend) -> Backend {
    let t = corpus.target(&gen.target).expect("target");
    let mut out = t.backend.clone();
    for fe in &eval.functions {
        if fe.accurate {
            if let Some(gf) = gen.function(&fe.name) {
                if let Some(f) = &gf.function {
                    out.replace(&fe.name, f.clone());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vega_corpus::{Corpus, CorpusConfig};

    #[test]
    fn reference_as_candidate_scores_perfectly() {
        let corpus = Corpus::build(&CorpusConfig::tiny());
        let rv = corpus.target("RISCV").unwrap();
        let eval = eval_plain_backend(&corpus, &rv.backend.clone(), "RISCV");
        assert!(eval.function_accuracy() > 0.999);
        assert_eq!(eval.stmt_accuracy(), 1.0);
        let (v, cs, d) = eval.error_rates();
        assert_eq!((v, cs, d), (0.0, 0.0, 0.0));
    }

    #[test]
    fn forkflow_scores_poorly_but_nonzero_totals() {
        let corpus = Corpus::build(&CorpusConfig::tiny());
        let ff = vega_forkflow::forkflow_backend(&corpus, "Mips", "RISCV");
        let eval = eval_plain_backend(&corpus, &ff, "RISCV");
        assert!(!eval.functions.is_empty());
        assert!(eval.function_accuracy() < 0.5);
        // Statement counts are consistent.
        for f in &eval.functions {
            assert!(f.stmt_accurate + f.stmt_manual >= f.stmt_total.min(1));
        }
    }

    #[test]
    fn missing_candidate_function_counts_as_err_def() {
        let corpus = Corpus::build(&CorpusConfig::tiny());
        let rv = corpus.target("RISCV").unwrap();
        // A candidate backend with a single function: everything else counts
        // as missing with full manual effort.
        let mut partial = vega_corpus::Backend::new("RISCV");
        partial.insert(
            Module::Reg,
            rv.backend.function("getPointerRegClass").unwrap().clone(),
        );
        let eval = eval_plain_backend(&corpus, &partial, "RISCV");
        let missing: Vec<_> = eval.functions.iter().filter(|f| !f.generated).collect();
        assert!(!missing.is_empty());
        for f in &missing {
            assert!(f.err_def && !f.accurate);
            assert_eq!(f.stmt_manual, f.stmt_total);
        }
        let present = eval
            .functions
            .iter()
            .find(|f| f.name == "getPointerRegClass")
            .unwrap();
        assert!(present.accurate);
    }

    #[test]
    fn stmt_diff_counts_value_mismatch() {
        let corpus = Corpus::build(&CorpusConfig::tiny());
        let rv = corpus.target("RISCV").unwrap();
        assert!(rv.backend.function("getFrameRegister").is_some());
        // Same structure, one wrong register value (the return-address reg
        // instead of the frame pointer) — aligns but mismatches.
        let wrong = vega_cpplite::parse_function(&format!(
            "unsigned RISCVRegisterInfo::getFrameRegister(const MachineFunction &MF) {{ if (MF.hasFP()) {{ return RISCV::{}; }} return RISCV::{}; }}",
            rv.spec.ra_reg, rv.spec.sp_reg
        ))
        .unwrap();
        let mut cand = rv.backend.clone();
        cand.replace("getFrameRegister", wrong);
        let eval = eval_plain_backend(&corpus, &cand, "RISCV");
        let f = eval
            .functions
            .iter()
            .find(|f| f.name == "getFrameRegister")
            .unwrap();
        assert!(!f.accurate);
        assert!(f.err_v, "value mismatch must be Err-V");
        assert!(f.stmt_accurate > 0, "aligned-equal statements still count");
        assert!(f.stmt_manual > 0);
    }

    #[test]
    fn xcore_dis_functions_excluded() {
        let corpus = Corpus::build(&CorpusConfig::tiny());
        // The xCORE base backend has no DIS functions, so a fork from a
        // DIS-capable target must not produce DIS rows.
        let ff = vega_forkflow::forkflow_backend(&corpus, "Mips", "XCore");
        let eval = eval_plain_backend(&corpus, &ff, "XCore");
        assert!(eval.functions.iter().all(|f| f.module != Module::Dis));
    }
}
