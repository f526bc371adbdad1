//! Seeded, terminating MIR program generator.
//!
//! Design constraints, in priority order:
//!
//! 1. **Determinism** — one `u64` seed fully determines the program.
//!    The harness and the pinned regression tests rely on this.
//! 2. **No undefined behaviour** — generated programs never trap: all
//!    divisors are masked into `1..=8`, all array indices are masked
//!    into bounds, and every loop is counted with a constant trip
//!    count, so the interpreter, the `-O0` program, and the `-O1`
//!    program must agree on *normal termination*, not just on output.
//! 3. **Total liveness** — every scalar variable is printed before
//!    `main` returns and loop bodies print intermediate state, so the
//!    optimizer cannot delete its way past a miscompilation.  This is
//!    what makes the fuzzer a *differential* witness rather than a
//!    crash hunter.
//! 4. **Shape diversity** — nested diamonds and counted loops (the
//!    split-block CFGs IR-EDDI produces), frame-slot merges through
//!    memory (the exact shape the slot-aware LVN rewrites), helper
//!    calls, global and local arrays, and mixed 64/32-bit arithmetic.

use ferrum_mir::builder::FunctionBuilder;
use ferrum_mir::func::Function;
use ferrum_mir::inst::{BinOp, ICmpPred};
use ferrum_mir::module::{Global, Module};
use ferrum_mir::types::Ty;
use ferrum_mir::value::Value;
use ferrum_rng::Rng64;

/// Every generated array (global or local) has this many words, and
/// every masked index lands in `0..ARRAY_LEN`.
pub const ARRAY_LEN: u32 = 8;

/// Shape summary of one generated program, for fuzz-report rollups.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenStats {
    /// Static MIR instructions across all functions.
    pub mir_insts: usize,
    /// Basic blocks in `main`.
    pub blocks: usize,
    /// Helper functions generated.
    pub helpers: usize,
}

const PREDS: [ICmpPred; 10] = [
    ICmpPred::Eq,
    ICmpPred::Ne,
    ICmpPred::Slt,
    ICmpPred::Sle,
    ICmpPred::Sgt,
    ICmpPred::Sge,
    ICmpPred::Ult,
    ICmpPred::Ule,
    ICmpPred::Ugt,
    ICmpPred::Uge,
];

fn pick<T: Copy>(rng: &mut Rng64, xs: &[T]) -> T {
    xs[rng.gen_below(xs.len() as u64) as usize]
}

/// A small signed constant with occasional interesting extremes.
fn small_const(rng: &mut Rng64) -> i64 {
    match rng.gen_below(10) {
        0 => 0,
        1 => -1,
        2 => i64::from(i32::MAX),
        3 => -(1 << 20),
        _ => (rng.next_u64() % 2000) as i64 - 1000,
    }
}

/// A trap-free binary operation: divisors and shift amounts are
/// masked so no operand choice can fault.
fn safe_bin(b: &mut FunctionBuilder, rng: &mut Rng64, ty: Ty, x: Value, y: Value) -> Value {
    match rng.gen_below(10) {
        0 => b.bin(BinOp::Add, ty, x, y),
        1 => b.bin(BinOp::Sub, ty, x, y),
        2 => b.bin(BinOp::Mul, ty, x, y),
        3 => b.bin(BinOp::And, ty, x, y),
        4 => b.bin(BinOp::Or, ty, x, y),
        5 => b.bin(BinOp::Xor, ty, x, y),
        6 | 7 => {
            // Divisor masked into 1..=8: never zero, never -1, so
            // neither divide-by-zero nor MIN/-1 overflow can occur.
            let seven = b.iconst(ty, 7);
            let one = b.iconst(ty, 1);
            let m = b.bin(BinOp::And, ty, y, seven);
            let d = b.bin(BinOp::Add, ty, m, one);
            let op = if rng.gen_below(2) == 0 {
                BinOp::SDiv
            } else {
                BinOp::SRem
            };
            b.bin(op, ty, x, d)
        }
        _ => {
            // Shift amount masked into 0..=7, well inside every width.
            let seven = b.iconst(ty, 7);
            let amt = b.bin(BinOp::And, ty, y, seven);
            let op = pick(rng, &[BinOp::Shl, BinOp::AShr, BinOp::LShr]);
            b.bin(op, ty, x, amt)
        }
    }
}

/// A pure helper: straight-line arithmetic over its parameters with a
/// comparison folded in through `sext`, returning one `i64`.
fn gen_helper(rng: &mut Rng64, name: &str, arity: usize) -> Function {
    let params = vec![Ty::I64; arity];
    let mut b = FunctionBuilder::new(name, &params, Some(Ty::I64));
    let mut pool: Vec<Value> = (0..arity as u32).map(|i| b.arg(i)).collect();
    pool.push(b.iconst(Ty::I64, small_const(rng)));
    for _ in 0..3 + rng.gen_below(5) {
        let x = pick(rng, &pool);
        let y = pick(rng, &pool);
        let v = if rng.gen_below(5) == 0 {
            let c = b.icmp(pick(rng, &PREDS), Ty::I64, x, y);
            b.sext(Ty::I1, Ty::I64, c)
        } else {
            safe_bin(&mut b, rng, Ty::I64, x, y)
        };
        pool.push(v);
    }
    let r = pick(rng, &pool);
    b.ret(Some(r));
    b.finish()
}

struct MainGen<'r> {
    rng: &'r mut Rng64,
    b: FunctionBuilder,
    /// Scalar `i64` frame slots (alloca'd in the entry block).
    slots: Vec<Value>,
    /// Array base pointers, each `ARRAY_LEN` words.
    arrays: Vec<Value>,
    /// Free loop-counter slots.  Disjoint from `slots` — ordinary
    /// statements must never store through a live counter, or a loop
    /// body could reset its own induction variable forever.
    counters: Vec<Value>,
    helpers: Vec<(String, usize)>,
    /// Remaining statement budget, shared across nesting levels.
    budget: usize,
}

impl MainGen<'_> {
    /// Loads a random live variable, or materializes a constant.
    fn val(&mut self) -> Value {
        if self.rng.gen_below(4) == 0 {
            let c = small_const(self.rng);
            self.b.iconst(Ty::I64, c)
        } else {
            let s = pick(self.rng, &self.slots);
            self.b.load(Ty::I64, s)
        }
    }

    /// An in-bounds element address of a random array.
    fn elem_addr(&mut self) -> Value {
        let base = pick(self.rng, &self.arrays);
        let idx = if self.rng.gen_below(2) == 0 {
            let i = self.rng.gen_below(u64::from(ARRAY_LEN)) as i64;
            self.b.iconst(Ty::I64, i)
        } else {
            // Data-dependent but masked in bounds.
            let v = self.val();
            let mask = self.b.iconst(Ty::I64, i64::from(ARRAY_LEN) - 1);
            self.b.and(Ty::I64, v, mask)
        };
        self.b.gep(base, idx)
    }

    /// A small trap-free expression over live variables.
    fn expr(&mut self) -> Value {
        let mut acc = self.val();
        for _ in 0..1 + self.rng.gen_below(3) {
            let y = self.val();
            acc = match self.rng.gen_below(8) {
                0 => {
                    let c = self.b.icmp(pick(self.rng, &PREDS), Ty::I64, acc, y);
                    self.b.sext(Ty::I1, Ty::I64, c)
                }
                1 => {
                    // 32-bit excursion: truncate, operate narrow,
                    // widen back — exercises the W32 lowering paths.
                    let a32 = self.b.trunc(Ty::I64, Ty::I32, acc);
                    let y32 = self.b.trunc(Ty::I64, Ty::I32, y);
                    let r32 = safe_bin(&mut self.b, self.rng, Ty::I32, a32, y32);
                    if self.rng.gen_below(2) == 0 {
                        self.b.sext(Ty::I32, Ty::I64, r32)
                    } else {
                        self.b.zext(Ty::I32, Ty::I64, r32)
                    }
                }
                2 if !self.helpers.is_empty() => {
                    let (name, arity) = pick_owned(self.rng, &self.helpers);
                    let mut args = vec![acc];
                    for _ in 1..arity {
                        args.push(y);
                    }
                    self.b
                        .call(name, args, Some(Ty::I64))
                        .expect("helper returns")
                }
                3 => {
                    let addr = self.elem_addr();
                    let loaded = self.b.load(Ty::I64, addr);
                    safe_bin(&mut self.b, self.rng, Ty::I64, acc, loaded)
                }
                _ => safe_bin(&mut self.b, self.rng, Ty::I64, acc, y),
            };
        }
        acc
    }

    fn stmt(&mut self, depth: usize) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        match self.rng.gen_below(if depth < 2 { 8 } else { 5 }) {
            0 | 1 => {
                let v = self.expr();
                let s = pick(self.rng, &self.slots);
                self.b.store(Ty::I64, v, s);
            }
            2 => {
                let v = self.expr();
                let addr = self.elem_addr();
                self.b.store(Ty::I64, v, addr);
            }
            3 => {
                let v = self.expr();
                self.b.print(v);
            }
            4 => {
                let addr = self.elem_addr();
                let v = self.b.load(Ty::I64, addr);
                let s = pick(self.rng, &self.slots);
                self.b.store(Ty::I64, v, s);
            }
            5 | 6 => self.if_stmt(depth),
            _ => self.loop_stmt(depth),
        }
    }

    /// A diamond merging through frame slots (MIR has no phis — both
    /// arms store, the continuation loads).
    fn if_stmt(&mut self, depth: usize) {
        let x = self.val();
        let y = self.val();
        let c = self.b.icmp(pick(self.rng, &PREDS), Ty::I64, x, y);
        let then_bb = self.b.create_block("t");
        let else_bb = self.b.create_block("e");
        let join_bb = self.b.create_block("j");
        self.b.br(c, then_bb, else_bb);

        self.b.switch_to(then_bb);
        for _ in 0..1 + self.rng.gen_below(2) {
            self.stmt(depth + 1);
        }
        self.b.jmp(join_bb);

        self.b.switch_to(else_bb);
        for _ in 0..1 + self.rng.gen_below(2) {
            self.stmt(depth + 1);
        }
        self.b.jmp(join_bb);

        self.b.switch_to(join_bb);
    }

    /// A counted loop: trip count is a constant `2..=ARRAY_LEN - 1`,
    /// so the loop counter doubles as an always-in-bounds array index.
    fn loop_stmt(&mut self, depth: usize) {
        let Some(i_slot) = self.counters.pop() else {
            // Counter slots exhausted (deep nesting) — degrade to a
            // diamond rather than risk a shared induction variable.
            self.if_stmt(depth);
            return;
        };
        let trips = 2 + self.rng.gen_below(u64::from(ARRAY_LEN) - 2) as i64;
        let zero = self.b.iconst(Ty::I64, 0);
        self.b.store(Ty::I64, zero, i_slot);

        let header = self.b.create_block("h");
        let body = self.b.create_block("b");
        let exit = self.b.create_block("x");
        self.b.jmp(header);

        self.b.switch_to(header);
        let iv = self.b.load(Ty::I64, i_slot);
        let bound = self.b.iconst(Ty::I64, trips);
        let c = self.b.icmp(ICmpPred::Slt, Ty::I64, iv, bound);
        self.b.br(c, body, exit);

        self.b.switch_to(body);
        // Touch an array element at the loop counter.
        let base = pick(self.rng, &self.arrays);
        let iv2 = self.b.load(Ty::I64, i_slot);
        let addr = self.b.gep(base, iv2);
        if self.rng.gen_below(2) == 0 {
            let v = self.b.load(Ty::I64, addr);
            let acc = pick(self.rng, &self.slots);
            let old = self.b.load(Ty::I64, acc);
            let sum = self.b.add(Ty::I64, old, v);
            self.b.store(Ty::I64, sum, acc);
        } else {
            let v = self.expr();
            self.b.store(Ty::I64, v, addr);
        }
        for _ in 0..self.rng.gen_below(2) {
            self.stmt(depth + 1);
        }
        // i += 1 — reload, because nested statements may have clobbered
        // the register the header value lived in (that pressure is the
        // point).
        let iv3 = self.b.load(Ty::I64, i_slot);
        let one = self.b.iconst(Ty::I64, 1);
        let next = self.b.add(Ty::I64, iv3, one);
        self.b.store(Ty::I64, next, i_slot);
        self.b.jmp(header);

        self.b.switch_to(exit);
        self.counters.push(i_slot);
    }
}

fn pick_owned(rng: &mut Rng64, xs: &[(String, usize)]) -> (String, usize) {
    let (n, a) = &xs[rng.gen_below(xs.len() as u64) as usize];
    (n.clone(), *a)
}

/// Generates one complete, verified-shape module from `seed`.
///
/// The same seed always yields the same module; different seeds yield
/// structurally diverse ones (0–2 helpers, 1–2 globals, up to two
/// levels of control-flow nesting, 10–28 statements).
pub fn generate_module(seed: u64) -> (Module, GenStats) {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut module = Module::new();

    let n_globals = 1 + rng.gen_below(2);
    let mut global_bases = Vec::new();
    for g in 0..n_globals {
        let words: Vec<i64> = (0..ARRAY_LEN).map(|_| small_const(&mut rng)).collect();
        global_bases.push(module.add_global(Global::new(format!("g{g}"), words)));
    }

    let n_helpers = rng.gen_below(3) as usize;
    let mut helpers = Vec::new();
    for h in 0..n_helpers {
        let arity = 1 + rng.gen_below(2) as usize;
        let name = format!("helper{h}");
        module.functions.push(gen_helper(&mut rng, &name, arity));
        helpers.push((name, arity));
    }

    let mut b = FunctionBuilder::new("main", &[], Some(Ty::I64));
    let n_slots = 3 + rng.gen_below(3) as usize;
    let mut slots = Vec::new();
    for _ in 0..n_slots {
        slots.push(b.alloca(Ty::I64));
    }
    let counters = (0..3).map(|_| b.alloca(Ty::I64)).collect::<Vec<_>>();
    let mut arrays: Vec<Value> = vec![b.alloca_array(Ty::I64, ARRAY_LEN)];
    for gid in &global_bases {
        arrays.push(b.global(*gid));
    }
    // Seed every slot with a distinct constant so nothing is read
    // uninitialized.
    for s in slots.clone() {
        let c = small_const(&mut rng);
        let v = b.iconst(Ty::I64, c);
        b.store(Ty::I64, v, s);
    }
    // The local array too.
    let local = arrays[0];
    for i in 0..i64::from(ARRAY_LEN) {
        let idx = b.iconst(Ty::I64, i);
        let addr = b.gep(local, idx);
        let c = small_const(&mut rng);
        let v = b.iconst(Ty::I64, c);
        b.store(Ty::I64, v, addr);
    }

    let budget = 10 + rng.gen_below(19) as usize;
    let mut g = MainGen {
        rng: &mut rng,
        b,
        slots,
        arrays,
        counters,
        helpers,
        budget,
    };
    while g.budget > 0 {
        g.stmt(0);
    }

    // Make the whole store observable: print every scalar slot and the
    // fence-post elements of every array.
    for s in g.slots.clone() {
        let v = g.b.load(Ty::I64, s);
        g.b.print(v);
    }
    for base in g.arrays.clone() {
        for i in [0, i64::from(ARRAY_LEN) - 1] {
            let idx = g.b.iconst(Ty::I64, i);
            let addr = g.b.gep(base, idx);
            let v = g.b.load(Ty::I64, addr);
            g.b.print(v);
        }
    }
    let zero = g.b.iconst(Ty::I64, 0);
    g.b.ret(Some(zero));
    let main = g.b.finish();

    let stats = GenStats {
        mir_insts: main.inst_count()
            + module
                .functions
                .iter()
                .map(Function::inst_count)
                .sum::<usize>(),
        blocks: main.blocks.len(),
        helpers: n_helpers,
    };
    module.functions.push(main);
    (module, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..20 {
            let (a, _) = generate_module(seed);
            let (b, _) = generate_module(seed);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn generated_modules_verify_and_terminate() {
        for seed in 0..50 {
            let (m, stats) = generate_module(seed);
            ferrum_mir::verify::verify_module(&m).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            let r = ferrum_mir::interp::Interp::new(&m)
                .run()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(!r.output.is_empty(), "seed {seed}: nothing printed");
            assert!(stats.mir_insts > 0);
        }
    }

    #[test]
    fn seeds_produce_structural_diversity() {
        let mut saw_loop = false;
        let mut saw_helper = false;
        for seed in 0..40 {
            let (m, stats) = generate_module(seed);
            let main = m.function("main").expect("main exists");
            if main.blocks.len() > 4 {
                saw_loop = true;
            }
            if stats.helpers > 0 {
                saw_helper = true;
            }
        }
        assert!(saw_loop, "no seed produced interesting CFG");
        assert!(saw_helper, "no seed produced helpers");
    }
}
