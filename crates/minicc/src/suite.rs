//! The built-in benchmark suite (the Fig. 10 workload).
//!
//! Small kernels in the spirit of Embench / the PULP regression suite:
//! iterative Fibonacci, vector sum, dot product, CRC-style bit mixing,
//! bubble sort, polynomial evaluation, memset/strided store, and a
//! divisions-and-shifts kernel. Each stresses a different optimization
//! (constant folding, immediate folding, strength reduction, MAC fusion).

use crate::ir::{Cond, IrBuilder, IrFunction, IrOp};

/// All benchmark kernels.
pub fn benchmark_suite() -> Vec<IrFunction> {
    vec![
        fib(18),
        vecsum(48),
        dotprod(32),
        crc_mix(40),
        bubble(12),
        poly_eval(24),
        memset_stride(64),
        shifty(36),
    ]
}

/// Iterative Fibonacci.
pub fn fib(n: i64) -> IrFunction {
    let mut b = IrBuilder::new("fib");
    let a = b.constant(0);
    let bb = b.constant(1);
    let i = b.constant(0);
    let limit = b.constant(n);
    let one = b.constant(1);
    let zero = b.constant(0);
    let loop_top = b.label();
    let done = b.label();
    b.mark(loop_top);
    b.branch(Cond::Ge, i, limit, done);
    let t = b.bin(IrOp::Add, a, bb);
    b.bin_into(a, IrOp::Add, bb, zero); // a = b
    b.bin_into(bb, IrOp::Add, t, zero); // b = t
    b.bin_into(i, IrOp::Add, i, one);
    b.jump(loop_top);
    b.mark(done);
    b.ret(bb);
    b.finish()
}

/// Sum `a[0..n]` after initializing `a[i] = i*3`.
pub fn vecsum(n: i64) -> IrFunction {
    let mut b = IrBuilder::new("vecsum");
    let base = b.constant(16);
    let i = b.constant(0);
    let limit = b.constant(n);
    let one = b.constant(1);
    let three = b.constant(3);
    let init_top = b.label();
    let init_done = b.label();
    b.mark(init_top);
    b.branch(Cond::Ge, i, limit, init_done);
    let v = b.bin(IrOp::Mul, i, three);
    let addr = b.bin(IrOp::Add, base, i);
    b.store(v, addr, 0);
    b.bin_into(i, IrOp::Add, i, one);
    b.jump(init_top);
    b.mark(init_done);

    let sum = b.constant(0);
    let j = b.constant(0);
    let sum_top = b.label();
    let sum_done = b.label();
    b.mark(sum_top);
    b.branch(Cond::Ge, j, limit, sum_done);
    let addr2 = b.bin(IrOp::Add, base, j);
    let x = b.load(addr2, 0);
    b.bin_into(sum, IrOp::Add, sum, x);
    b.bin_into(j, IrOp::Add, j, one);
    b.jump(sum_top);
    b.mark(sum_done);
    b.ret(sum);
    b.finish()
}

/// Dot product of two strided vectors — the MAC-fusion showcase.
pub fn dotprod(n: i64) -> IrFunction {
    let mut b = IrBuilder::new("dotprod");
    let xs = b.constant(64);
    let ys = b.constant(512);
    let i = b.constant(0);
    let limit = b.constant(n);
    let one = b.constant(1);
    let seven = b.constant(7);
    let five = b.constant(5);
    let init_top = b.label();
    let init_done = b.label();
    b.mark(init_top);
    b.branch(Cond::Ge, i, limit, init_done);
    let xv = b.bin(IrOp::Add, i, seven);
    let yv = b.bin(IrOp::Xor, i, five);
    let xa = b.bin(IrOp::Add, xs, i);
    let ya = b.bin(IrOp::Add, ys, i);
    b.store(xv, xa, 0);
    b.store(yv, ya, 0);
    b.bin_into(i, IrOp::Add, i, one);
    b.jump(init_top);
    b.mark(init_done);

    let acc = b.constant(0);
    let j = b.constant(0);
    let top = b.label();
    let done = b.label();
    b.mark(top);
    b.branch(Cond::Ge, j, limit, done);
    let xa2 = b.bin(IrOp::Add, xs, j);
    let ya2 = b.bin(IrOp::Add, ys, j);
    let x = b.load(xa2, 0);
    let y = b.load(ya2, 0);
    let prod = b.bin(IrOp::Mul, x, y);
    b.bin_into(acc, IrOp::Add, prod, acc); // mul directly feeding add → MAC
    b.bin_into(j, IrOp::Add, j, one);
    b.jump(top);
    b.mark(done);
    b.ret(acc);
    b.finish()
}

/// CRC-style shift/xor mixing.
pub fn crc_mix(rounds: i64) -> IrFunction {
    let mut b = IrBuilder::new("crc_mix");
    let state = b.constant(0x1d0f);
    let i = b.constant(0);
    let limit = b.constant(rounds);
    let one = b.constant(1);
    let poly = b.constant(0x8005);
    let top = b.label();
    let done = b.label();
    b.mark(top);
    b.branch(Cond::Ge, i, limit, done);
    let sh = b.bin(IrOp::Shl, state, one);
    let mixed = b.bin(IrOp::Xor, sh, poly);
    let masked_in = b.bin(IrOp::And, mixed, i);
    b.bin_into(state, IrOp::Xor, mixed, masked_in);
    b.bin_into(i, IrOp::Add, i, one);
    b.jump(top);
    b.mark(done);
    b.ret(state);
    b.finish()
}

/// Bubble sort over n pseudo-random words; returns the median element.
pub fn bubble(n: i64) -> IrFunction {
    let mut b = IrBuilder::new("bubble");
    let base = b.constant(128);
    let i = b.constant(0);
    let limit = b.constant(n);
    let one = b.constant(1);
    let seed_mul = b.constant(13);
    let seed_mask = b.constant(63);
    let init_top = b.label();
    let init_done = b.label();
    b.mark(init_top);
    b.branch(Cond::Ge, i, limit, init_done);
    let v = b.bin(IrOp::Mul, i, seed_mul);
    let v2 = b.bin(IrOp::And, v, seed_mask);
    let addr = b.bin(IrOp::Add, base, i);
    b.store(v2, addr, 0);
    b.bin_into(i, IrOp::Add, i, one);
    b.jump(init_top);
    b.mark(init_done);

    // Outer/inner bubble passes.
    let pass = b.constant(0);
    let outer_top = b.label();
    let outer_done = b.label();
    b.mark(outer_top);
    b.branch(Cond::Ge, pass, limit, outer_done);
    let j = b.constant(0);
    let inner_limit = b.bin(IrOp::Sub, limit, one);
    let inner_top = b.label();
    let inner_done = b.label();
    let no_swap = b.label();
    b.mark(inner_top);
    b.branch(Cond::Ge, j, inner_limit, inner_done);
    let a1 = b.bin(IrOp::Add, base, j);
    let x = b.load(a1, 0);
    let y = b.load(a1, 1);
    b.branch(Cond::Lt, x, y, no_swap);
    b.store(y, a1, 0);
    b.store(x, a1, 1);
    b.mark(no_swap);
    b.bin_into(j, IrOp::Add, j, one);
    b.jump(inner_top);
    b.mark(inner_done);
    b.bin_into(pass, IrOp::Add, pass, one);
    b.jump(outer_top);
    b.mark(outer_done);

    let two = b.constant(2);
    let mid = b.bin(IrOp::Div, limit, two);
    let mid_addr = b.bin(IrOp::Add, base, mid);
    let med = b.load(mid_addr, 0);
    b.ret(med);
    b.finish()
}

/// Horner evaluation of a fixed polynomial at several points.
pub fn poly_eval(points: i64) -> IrFunction {
    let mut b = IrBuilder::new("poly_eval");
    let acc = b.constant(0);
    let x = b.constant(0);
    let limit = b.constant(points);
    let one = b.constant(1);
    // Coefficients 5, 3, 2 with constant-foldable setup 2*16/4 etc.
    let sixteen = b.constant(16);
    let four = b.constant(4);
    let c2 = b.bin(IrOp::Div, sixteen, four); // folds to 4 at O3
    let c1 = b.constant(3);
    let c0 = b.constant(5);
    let top = b.label();
    let done = b.label();
    b.mark(top);
    b.branch(Cond::Ge, x, limit, done);
    let t1 = b.bin(IrOp::Mul, c2, x);
    let t2 = b.bin(IrOp::Add, t1, c1);
    let t3 = b.bin(IrOp::Mul, t2, x);
    let t4 = b.bin(IrOp::Add, t3, c0);
    b.bin_into(acc, IrOp::Add, acc, t4);
    b.bin_into(x, IrOp::Add, x, one);
    b.jump(top);
    b.mark(done);
    b.ret(acc);
    b.finish()
}

/// Strided memory fill; returns the last written address value.
pub fn memset_stride(n: i64) -> IrFunction {
    let mut b = IrBuilder::new("memset_stride");
    let base = b.constant(1024);
    let i = b.constant(0);
    let limit = b.constant(n);
    let one = b.constant(1);
    let two = b.constant(2);
    let fill = b.constant(0xAB);
    let top = b.label();
    let done = b.label();
    b.mark(top);
    b.branch(Cond::Ge, i, limit, done);
    let off = b.bin(IrOp::Mul, i, two); // strength-reducible ×2
    let addr = b.bin(IrOp::Add, base, off);
    b.store(fill, addr, 0);
    b.bin_into(i, IrOp::Add, i, one);
    b.jump(top);
    b.mark(done);
    let final_addr = b.bin(IrOp::Add, base, limit);
    let v = b.load(final_addr, 0);
    b.ret(v);
    b.finish()
}

/// Division/shift heavy kernel (exercises expansion on div-less targets).
pub fn shifty(n: i64) -> IrFunction {
    let mut b = IrBuilder::new("shifty");
    let acc = b.constant(0x7fff);
    let i = b.constant(1);
    let limit = b.constant(n);
    let one = b.constant(1);
    let three = b.constant(3);
    let top = b.label();
    let done = b.label();
    b.mark(top);
    b.branch(Cond::Ge, i, limit, done);
    let q = b.bin(IrOp::Div, acc, three);
    let s = b.bin(IrOp::Shr, acc, one);
    b.bin_into(acc, IrOp::Add, q, s);
    let odd = b.bin(IrOp::And, i, one);
    b.bin_into(acc, IrOp::Xor, acc, odd);
    b.bin_into(i, IrOp::Add, i, one);
    b.jump(top);
    b.mark(done);
    b.ret(acc);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eight_distinct_kernels() {
        let s = benchmark_suite();
        assert_eq!(s.len(), 8);
        let mut names: Vec<&str> = s.iter().map(|k| k.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn kernels_are_well_formed() {
        for k in benchmark_suite() {
            // Every jump/branch targets a marked label.
            let labels = k.label_map();
            for inst in &k.insts {
                match inst {
                    crate::ir::Inst::Jump { target } | crate::ir::Inst::Branch { target, .. } => {
                        assert!(labels.contains_key(target), "{}: missing label", k.name);
                    }
                    _ => {}
                }
            }
            // Ends in a return.
            assert!(matches!(k.insts.last(), Some(crate::ir::Inst::Ret { .. })));
        }
    }
}
