//! Statement normalization (paper §3.1): equivalent `if`/`else if` selection
//! chains are rewritten into `switch` statements so that different targets'
//! implementations align structurally.

use crate::ast::{Stmt, StmtKind};
use crate::eval::split_toplevel;
use crate::token::Token;

/// Normalizes a statement list in place: every `if (X == A) ... else if
/// (X == B) ... else ...` chain with a common scrutinee `X` and at least two
/// comparisons becomes `switch (X) { case A: ...; case B: ...; default: ... }`.
///
/// # Examples
/// ```
/// use vega_cpplite::{normalize_stmts, parse_stmts, StmtKind};
/// let mut stmts = parse_stmts(
///     "if (Kind == 1) { return 10; } else if (Kind == 2) { return 20; } else { return 0; }",
/// )?;
/// normalize_stmts(&mut stmts);
/// assert_eq!(stmts[0].kind, StmtKind::Switch);
/// assert_eq!(stmts[0].children.len(), 3); // two cases + default
/// # Ok::<(), vega_cpplite::ParseError>(())
/// ```
pub fn normalize_stmts(stmts: &mut Vec<Stmt>) {
    for s in stmts.iter_mut() {
        normalize_children(s);
        if let Some(sw) = try_chain_to_switch(s) {
            *s = sw;
        }
    }
}

fn normalize_children(s: &mut Stmt) {
    normalize_stmts(&mut s.children);
    normalize_stmts(&mut s.else_children);
}

/// Splits a condition `X == A` into `(X-tokens, A-tokens)` when it is a single
/// top-level equality.
fn split_equality(cond: &[Token]) -> Option<(Vec<Token>, Vec<Token>)> {
    let parts = split_toplevel(cond, "==");
    if parts.len() == 2 && !parts[0].is_empty() && !parts[1].is_empty() {
        Some((parts[0].clone(), parts[1].clone()))
    } else {
        None
    }
}

/// Ensures each case body ends the statement group (append `break;` unless the
/// body already returns or breaks).
fn terminated(body: &[Stmt]) -> bool {
    matches!(
        body.last().map(|s| s.kind),
        Some(StmtKind::Return) | Some(StmtKind::Break)
    )
}

fn try_chain_to_switch(s: &Stmt) -> Option<Stmt> {
    if s.kind != StmtKind::If {
        return None;
    }
    let mut cases: Vec<(Vec<Token>, Vec<Stmt>)> = Vec::new();
    let mut default_body: Option<Vec<Stmt>> = None;
    let mut scrutinee: Option<Vec<Token>> = None;
    let mut cur = s;
    loop {
        let (lhs, rhs) = split_equality(&cur.head)?;
        match &scrutinee {
            None => scrutinee = Some(lhs),
            Some(x) if *x == lhs => {}
            Some(_) => return None,
        }
        cases.push((rhs, cur.children.clone()));
        match cur.else_children.as_slice() {
            [] => break,
            [next] if next.kind == StmtKind::If => cur = next,
            other => {
                default_body = Some(other.to_vec());
                break;
            }
        }
    }
    if cases.len() < 2 {
        return None;
    }
    let mut children = Vec::with_capacity(cases.len() + 1);
    for (label, mut body) in cases {
        if !terminated(&body) {
            body.push(Stmt::new(StmtKind::Break, Vec::new(), Vec::new()));
        }
        children.push(Stmt::new(StmtKind::Case, label, body));
    }
    if let Some(mut body) = default_body {
        if !terminated(&body) {
            body.push(Stmt::new(StmtKind::Break, Vec::new(), Vec::new()));
        }
        children.push(Stmt::new(StmtKind::Default, Vec::new(), body));
    }
    Some(Stmt::new(StmtKind::Switch, scrutinee.unwrap(), children))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{EmptyEnv, Interp};
    use crate::parser::parse_stmts;

    #[test]
    fn converts_equality_chain() {
        let mut stmts = parse_stmts(
            "if (Kind == 1) { x = 10; } else if (Kind == 2) { return 20; } else { x = 0; } return x;",
        )
        .unwrap();
        normalize_stmts(&mut stmts);
        let sw = &stmts[0];
        assert_eq!(sw.kind, StmtKind::Switch);
        assert_eq!(sw.children.len(), 3);
        // Non-terminated case bodies gained a break.
        assert_eq!(
            sw.children[0].children.last().unwrap().kind,
            StmtKind::Break
        );
        // Terminated ones did not.
        assert_eq!(sw.children[1].children.len(), 1);
    }

    #[test]
    fn leaves_single_if_alone() {
        let mut stmts = parse_stmts("if (Kind == 1) { return 10; }").unwrap();
        normalize_stmts(&mut stmts);
        assert_eq!(stmts[0].kind, StmtKind::If);
    }

    #[test]
    fn leaves_mixed_scrutinee_alone() {
        let mut stmts =
            parse_stmts("if (a == 1) { return 1; } else if (b == 2) { return 2; }").unwrap();
        normalize_stmts(&mut stmts);
        assert_eq!(stmts[0].kind, StmtKind::If);
    }

    #[test]
    fn normalization_preserves_semantics() {
        let src =
            "if (Kind == 1) { x = 10; } else if (Kind == 2) { x = 20; } else { x = 0; } return x;";
        for k in [1i64, 2, 3] {
            let stmts = parse_stmts(src).unwrap();
            let mut normed = stmts.clone();
            normalize_stmts(&mut normed);
            let run = |ss: &[Stmt]| {
                let mut env = EmptyEnv;
                let mut it = Interp::new(&mut env);
                let pre = parse_stmts(&format!("Kind = {k};")).unwrap();
                it.run_stmts(&pre).unwrap();
                it.run_stmts(ss).unwrap()
            };
            assert_eq!(run(&stmts), run(&normed), "k={k}");
        }
    }

    #[test]
    fn normalizes_nested_chains() {
        let mut stmts =
            parse_stmts("if (outer) { if (k == 1) { return 1; } else if (k == 2) { return 2; } }")
                .unwrap();
        normalize_stmts(&mut stmts);
        assert_eq!(stmts[0].kind, StmtKind::If);
        assert_eq!(stmts[0].children[0].kind, StmtKind::Switch);
    }
}
