//! The `-O1` pass pipeline: global available-loads forwarding,
//! cmp/branch fusion, dead-store elimination, and a dead-code sweep.
//!
//! At `-O0` the backend reproduces the paper's naive lowering: every
//! value round-trips through its `%rbp` frame slot, so IR-level
//! duplication survives lowering almost intact and IR-EDDI's measured
//! coverage gap stays small.  The paper's second root cause —
//! *"IR-level protection becomes ineffective after lowering"* (§IV-B1)
//! — needs a backend that folds and forwards.  These passes supply
//! exactly the transformations that break IR-level shadows:
//!
//! * **Available-loads forwarding** proves, by forward dataflow over
//!   the CFG, that a register already holds the value of a frame word
//!   (directly addressed slots *and* `lea`-addressed alloca words) and
//!   rewrites the reload into a register copy — which collapses an
//!   IR-EDDI shadow load of an unduplicated pointer into a copy of the
//!   master value: a single point of failure.
//! * **Local value numbering** (shadow-computation CSE) proves, per
//!   block, that an ALU result was already computed into another
//!   register and rewrites the recomputation into a register copy —
//!   which is what real `-O1` value numbering does to an IR-EDDI
//!   shadow chain once forwarding has collapsed its operand loads:
//!   the entire duplicate computation degenerates into copies of the
//!   master values, and every master writeback becomes a single point
//!   of failure.
//! * **Cmp/branch fusion** rewrites the lowered
//!   `cmp; setcc; movzx; …; test; jne` chain into a direct `cmp; jcc`
//!   when the boolean is otherwise dead, removing the re-test the
//!   paper's Fig. 9 shows and leaving one unprotected flags site.
//! * **Dead-store elimination** drops spills whose slot is never
//!   reloaded (backward slot-liveness dataflow).
//! * **Dead-code sweep** removes register writes whose bytes are dead
//!   (`ferrum_asm::analysis::liveness` at byte granularity), plus
//!   fall-through jumps.
//!
//! The bundle runs to a fixpoint, so `optimize` is idempotent:
//! applying it to its own output changes nothing.
//!
//! # Soundness preconditions
//!
//! Same frame discipline as [`crate::peephole`]: directly addressed
//! `disp(%rbp)` slots are disjoint from all indirectly addressed
//! memory except `lea`-materialised alloca words, and `gep` indexing
//! stays inside its allocation.  The pipeline only runs these passes
//! on backend output, before any protection pass.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ferrum_asm::analysis::cfg::Cfg;
use ferrum_asm::analysis::liveness::{inst_kills, inst_reads, reg_bytes, Liveness};
use ferrum_asm::flags::Cc;
use ferrum_asm::inst::Inst;
use ferrum_asm::operand::{MemRef, Operand};
use ferrum_asm::program::{AsmFunction, AsmProgram};
use ferrum_asm::reg::{Gpr, Reg, Width, ALL_GPRS};
use ferrum_mir::inst::MirInst;
use ferrum_mir::module::Module;

use crate::frame::{Frame, SlotKind};

/// Backend optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum OptLevel {
    /// Naive lowering, byte-identical to [`crate::compile`].
    #[default]
    O0,
    /// Linear-scan register allocation plus the assembly pass bundle.
    O1,
}

impl OptLevel {
    /// Parses `0`/`1` (also `O0`/`o1`).
    pub fn parse(s: &str) -> Option<OptLevel> {
        match s {
            "0" | "O0" | "o0" => Some(OptLevel::O0),
            "1" | "O1" | "o1" => Some(OptLevel::O1),
            _ => None,
        }
    }

    /// `"O0"` / `"O1"`.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::O0 => "O0",
            OptLevel::O1 => "O1",
        }
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What the `-O1` pipeline did, per pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Intervals eligible for a register.
    pub regalloc_candidates: usize,
    /// Intervals that received one.
    pub regalloc_allocated: usize,
    /// Frame-word reloads rewritten into register copies.
    pub loads_forwarded: usize,
    /// Frame-word reloads deleted outright.
    pub loads_removed: usize,
    /// Recomputations rewritten into register copies by value
    /// numbering.
    pub exprs_forwarded: usize,
    /// Recomputations whose destination already held the result,
    /// deleted by value numbering.
    pub exprs_removed: usize,
    /// Dead slot stores deleted.
    pub stores_removed: usize,
    /// `cmp`/`setcc`/`test`/`jcc` chains fused into direct `jcc`s.
    pub branches_fused: usize,
    /// Instructions deleted by fusion (the test and the boolean chain).
    pub fused_insts_removed: usize,
    /// Dead register writes swept.
    pub dead_removed: usize,
    /// Fall-through jumps dropped.
    pub jumps_removed: usize,
}

impl PassStats {
    /// Total instructions deleted — the exact static-size delta of the
    /// assembly bundle (forwarding rewrites in place and deletes
    /// nothing).
    pub fn insts_removed(&self) -> u64 {
        (self.loads_removed
            + self.exprs_removed
            + self.stores_removed
            + self.fused_insts_removed
            + self.dead_removed
            + self.jumps_removed) as u64
    }

    /// True when the assembly bundle changed nothing.
    pub fn bundle_is_noop(&self) -> bool {
        self.loads_forwarded == 0 && self.exprs_forwarded == 0 && self.insts_removed() == 0
    }

    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: &PassStats) {
        self.regalloc_candidates += other.regalloc_candidates;
        self.regalloc_allocated += other.regalloc_allocated;
        self.loads_forwarded += other.loads_forwarded;
        self.loads_removed += other.loads_removed;
        self.exprs_forwarded += other.exprs_forwarded;
        self.exprs_removed += other.exprs_removed;
        self.stores_removed += other.stores_removed;
        self.branches_fused += other.branches_fused;
        self.fused_insts_removed += other.fused_insts_removed;
        self.dead_removed += other.dead_removed;
        self.jumps_removed += other.jumps_removed;
    }
}

/// Per-function frame facts the passes need (which `%rbp` offsets are
/// result/argument slots, which are alloca words).
#[derive(Debug, Clone, Default)]
pub struct FuncMeta {
    /// Result and argument spill slots: never address-taken, never
    /// aliased by indirect memory operations.
    pub tracked: BTreeSet<i64>,
    /// Individual alloca words: reached through `lea`-materialised
    /// pointers, so an unknown indirect store may alias any of them.
    pub alloca_words: BTreeSet<i64>,
}

/// Frame facts for every function of a module.
#[derive(Debug, Clone, Default)]
pub struct ProgramMeta {
    funcs: BTreeMap<String, FuncMeta>,
}

impl ProgramMeta {
    /// Recomputes the (deterministic) frame layout of each function.
    pub fn from_module(m: &Module) -> ProgramMeta {
        let mut funcs = BTreeMap::new();
        for f in &m.functions {
            let frame = Frame::layout(f);
            let mut meta = FuncMeta::default();
            for i in 0..f.params.len() {
                meta.tracked.insert(frame.arg_offset(i as u32));
            }
            for inst in f.insts() {
                match inst {
                    MirInst::Alloca { id, count, .. } => {
                        if let SlotKind::AllocaBase(base) = frame.slot(*id) {
                            for k in 0..i64::from(*count) {
                                meta.alloca_words.insert(base + 8 * k);
                            }
                        }
                    }
                    _ => {
                        if let Some(id) = inst.result() {
                            if let SlotKind::Result(off) = frame.slot(id) {
                                meta.tracked.insert(off);
                            }
                        }
                    }
                }
            }
            funcs.insert(f.name.clone(), meta);
        }
        ProgramMeta { funcs }
    }

    /// Facts for one function.
    pub fn function(&self, name: &str) -> Option<&FuncMeta> {
        self.funcs.get(name)
    }
}

/// Runs the assembly pass bundle to a fixpoint and reports exact
/// per-pass counts.  Functions without an entry in `meta` are left
/// untouched (their aliasing is unknown).
pub fn optimize(p: &mut AsmProgram, meta: &ProgramMeta) -> PassStats {
    let mut stats = PassStats::default();
    for f in &mut p.functions {
        let Some(fm) = meta.funcs.get(&f.name) else {
            continue;
        };
        // Each pass is monotone (memory traffic and instruction count
        // never increase), so the bundle reaches a fixpoint; 64 rounds
        // is far beyond any real chain of enablements.
        for _ in 0..64 {
            let mut round = PassStats::default();
            let (fwd, rm) = forward_available_loads(f, fm);
            round.loads_forwarded = fwd;
            round.loads_removed = rm;
            let (cse_fwd, cse_rm) = cse_local(f, fm);
            round.exprs_forwarded = cse_fwd;
            round.exprs_removed = cse_rm;
            let (fused, fused_rm) = fuse_compare_branches(f);
            round.branches_fused = fused;
            round.fused_insts_removed = fused_rm;
            round.stores_removed = eliminate_dead_stores(f, fm);
            round.dead_removed = sweep_dead_code(f);
            round.jumps_removed = crate::peephole::eliminate_fallthrough_jumps(f);
            let done = round.bundle_is_noop();
            stats.absorb(&round);
            if done {
                break;
            }
        }
    }
    stats
}

// ---------------------------------------------------------------------
// Available-loads forwarding
// ---------------------------------------------------------------------

/// What a register provably holds at a program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Fact {
    /// The value of frame word `off(%rbp)`.
    Val(i64),
    /// The address `%rbp + off` (a `lea`-materialised alloca base).
    Addr(i64),
}

/// Register facts, keyed by `Gpr::index()`.
type Facts = BTreeMap<usize, BTreeSet<Fact>>;

fn meet(a: &Facts, b: &Facts) -> Facts {
    let mut out = Facts::new();
    for (g, fa) in a {
        if let Some(fb) = b.get(g) {
            let inter: BTreeSet<Fact> = fa.intersection(fb).copied().collect();
            if !inter.is_empty() {
                out.insert(*g, inter);
            }
        }
    }
    out
}

/// A frame word directly addressed as `disp(%rbp)`.
fn direct_slot(m: &MemRef) -> Option<i64> {
    match (m.base, m.index, &m.symbol) {
        (Some(Gpr::Rbp), None, None) => Some(m.disp),
        _ => None,
    }
}

/// Resolves a memory operand to a frame-word offset: either a direct
/// slot or an indirect access through a register carrying an `Addr`
/// fact.
fn resolve_word(m: &MemRef, st: &Facts) -> Option<i64> {
    if let Some(off) = direct_slot(m) {
        return Some(off);
    }
    match (m.base, m.index, &m.symbol) {
        (Some(b), None, None) => st.get(&b.index()).and_then(|fs| {
            fs.iter().find_map(|f| match f {
                Fact::Addr(off) => Some(off + m.disp),
                Fact::Val(_) => None,
            })
        }),
        _ => None,
    }
}

fn kill_reg(st: &mut Facts, g: Gpr) {
    st.remove(&g.index());
}

fn kill_val(st: &mut Facts, off: i64) {
    st.retain(|_, fs| {
        fs.remove(&Fact::Val(off));
        !fs.is_empty()
    });
}

fn kill_all_alloca_vals(st: &mut Facts, fm: &FuncMeta) {
    st.retain(|_, fs| {
        fs.retain(|f| match f {
            Fact::Val(off) => !fm.alloca_words.contains(off),
            Fact::Addr(_) => true,
        });
        !fs.is_empty()
    });
}

fn kill_all_vals(st: &mut Facts) {
    st.retain(|_, fs| {
        fs.retain(|f| matches!(f, Fact::Addr(_)));
        !fs.is_empty()
    });
}

/// The register currently holding `Val(off)`, lowest index first for
/// determinism.
fn holder_of(st: &Facts, off: i64) -> Option<Gpr> {
    st.iter()
        .find(|(_, fs)| fs.contains(&Fact::Val(off)))
        .map(|(&gi, _)| ALL_GPRS[gi])
}

enum Action {
    Keep,
    Delete,
    Replace(Inst),
}

/// Transfers one instruction over `st`, returning the rewrite the
/// forwarding pass would apply.  The transfer models the *rewritten*
/// instruction, which is also sound for the original (a forwarded copy
/// and the reload it replaces leave identical register contents).
fn step(st: &mut Facts, inst: &Inst, fm: &FuncMeta) -> Action {
    match inst {
        // 64-bit load from a resolvable frame word.
        Inst::Mov {
            w: Width::W64,
            src: Operand::Mem(m),
            dst: Operand::Reg(r),
        } if r.width == Width::W64 => {
            if let Some(off) = resolve_word(m, st) {
                let rf = st.get(&r.gpr.index());
                if rf.is_some_and(|fs| fs.contains(&Fact::Val(off))) {
                    return Action::Delete;
                }
                if let Some(h) = holder_of(st, off) {
                    let mut facts = st.get(&h.index()).cloned().unwrap_or_default();
                    facts.insert(Fact::Val(off));
                    st.insert(r.gpr.index(), facts);
                    return Action::Replace(Inst::Mov {
                        w: Width::W64,
                        src: Operand::Reg(Reg::q(h)),
                        dst: Operand::Reg(Reg::q(r.gpr)),
                    });
                }
                st.insert(r.gpr.index(), BTreeSet::from([Fact::Val(off)]));
            } else {
                kill_reg(st, r.gpr);
            }
            Action::Keep
        }
        // 64-bit register copy propagates facts.
        Inst::Mov {
            w: Width::W64,
            src: Operand::Reg(s),
            dst: Operand::Reg(r),
        } if s.width == Width::W64 && r.width == Width::W64 => {
            match st.get(&s.gpr.index()).cloned() {
                Some(fs) => st.insert(r.gpr.index(), fs),
                None => st.remove(&r.gpr.index()),
            };
            Action::Keep
        }
        // Stores.
        Inst::Mov {
            w,
            src,
            dst: Operand::Mem(m),
        } => {
            if let Some(off) = resolve_word(m, st) {
                kill_val(st, off);
                if *w == Width::W64 {
                    if let Operand::Reg(s) = src {
                        if s.width == Width::W64 {
                            st.entry(s.gpr.index()).or_default().insert(Fact::Val(off));
                        }
                    }
                }
            } else {
                kill_all_alloca_vals(st, fm);
            }
            Action::Keep
        }
        // Other register writes through mov (imm loads, narrow movs).
        Inst::Mov {
            dst: Operand::Reg(r),
            ..
        } => {
            kill_reg(st, r.gpr);
            Action::Keep
        }
        Inst::Lea { mem, dst } => {
            if let Some(off) = direct_slot(mem) {
                st.insert(dst.gpr.index(), BTreeSet::from([Fact::Addr(off)]));
            } else {
                kill_reg(st, dst.gpr);
            }
            Action::Keep
        }
        // The branch-materialisation re-test of a frame word: compare
        // the holding register instead, enabling fusion and freeing the
        // slot store for elimination.
        Inst::Cmp {
            w: Width::W64,
            src: Operand::Imm(i),
            dst: Operand::Mem(m),
        } => {
            if let Some(off) = resolve_word(m, st) {
                if let Some(h) = holder_of(st, off) {
                    return Action::Replace(Inst::Cmp {
                        w: Width::W64,
                        src: Operand::Imm(*i),
                        dst: Operand::Reg(Reg::q(h)),
                    });
                }
            }
            Action::Keep
        }
        Inst::Call { .. } => {
            st.clear();
            Action::Keep
        }
        Inst::Push { .. } => Action::Keep, // writes below the frame
        Inst::Pop {
            dst: Operand::Reg(r),
        } => {
            kill_reg(st, r.gpr);
            Action::Keep
        }
        // Reads (cmp/test/idiv sources, jumps, ret) change nothing.
        Inst::Cmp { .. } | Inst::Test { .. } | Inst::Jmp { .. } | Inst::Jcc { .. } | Inst::Ret => {
            Action::Keep
        }
        other => {
            for g in other.gprs_written() {
                kill_reg(st, g);
            }
            // The only remaining memory writers (no SIMD instruction
            // stores to memory in this machine): drop every value fact.
            if matches!(
                other,
                Inst::Alu {
                    dst: Operand::Mem(_),
                    ..
                } | Inst::Unary {
                    dst: Operand::Mem(_),
                    ..
                } | Inst::Shift {
                    dst: Operand::Mem(_),
                    ..
                } | Inst::Setcc {
                    dst: Operand::Mem(_),
                    ..
                } | Inst::Pop {
                    dst: Operand::Mem(_)
                }
            ) {
                kill_all_vals(st);
            }
            Action::Keep
        }
    }
}

/// Runs the forward available-loads dataflow to its fixpoint and
/// returns the converged entry facts per block (`None` = unreachable).
fn converged_entry_facts(f: &AsmFunction, fm: &FuncMeta) -> Vec<Option<Facts>> {
    let cfg = Cfg::build(f);
    let n = f.blocks.len();
    let mut ins: Vec<Option<Facts>> = vec![None; n];
    let mut outs: Vec<Option<Facts>> = vec![None; n];
    if n == 0 {
        return ins;
    }
    ins[0] = Some(Facts::new());
    loop {
        let mut changed = false;
        for bi in 0..n {
            let mut inb = if bi == 0 {
                Some(Facts::new())
            } else {
                let mut acc: Option<Facts> = None;
                for &p in &cfg.preds[bi] {
                    if let Some(po) = &outs[p] {
                        acc = Some(match acc {
                            None => po.clone(),
                            Some(a) => meet(&a, po),
                        });
                    }
                }
                acc
            };
            // A block both unreachable and predecessor-less stays ⊤.
            if inb != ins[bi] {
                std::mem::swap(&mut ins[bi], &mut inb);
                changed = true;
            }
            let outb = ins[bi].clone().map(|mut st| {
                for ai in &f.blocks[bi].insts {
                    let _ = step(&mut st, &ai.inst, fm);
                }
                st
            });
            if outb != outs[bi] {
                outs[bi] = outb;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    ins
}

fn forward_available_loads(f: &mut AsmFunction, fm: &FuncMeta) -> (usize, usize) {
    let ins = converged_entry_facts(f, fm);
    // Rewrite with the converged entry facts.
    let mut forwarded = 0;
    let mut removed = 0;
    for (entry, block) in ins.iter().zip(f.blocks.iter_mut()) {
        let Some(mut st) = entry.clone() else {
            continue;
        };
        let mut keep = Vec::with_capacity(block.insts.len());
        for mut ai in block.insts.drain(..) {
            match step(&mut st, &ai.inst, fm) {
                Action::Keep => keep.push(ai),
                Action::Delete => removed += 1,
                Action::Replace(inst) => {
                    ai.inst = inst;
                    forwarded += 1;
                    keep.push(ai);
                }
            }
        }
        block.insts = keep;
    }
    (forwarded, removed)
}

// ---------------------------------------------------------------------
// Local value numbering (shadow-computation CSE)
// ---------------------------------------------------------------------

/// Interned expression: `(tag, sub-opcode, operand vn, operand vn)`.
/// Sub-opcodes are the fieldless-enum discriminants, so equal keys mean
/// identical computations over identical values.
type ExprKey = (u8, u64, u64, u64);

const TAG_ALU: u8 = 1;
const TAG_IMUL: u8 = 2;
const TAG_SHIFT: u8 = 3;
const TAG_UNARY: u8 = 4;
const TAG_MOVZX8: u8 = 5;

/// Block-local value-numbering state.  Value numbers are immutable
/// names for runtime values; `reg64`/`reg8` say which number each
/// register currently holds (full 64-bit content / low byte), and
/// `table` interns expressions over numbers, so a hit means the
/// instruction recomputes a value some register may still hold.
#[derive(Clone, Default)]
struct Lvn {
    next: u64,
    reg64: BTreeMap<usize, u64>,
    reg8: BTreeMap<usize, u64>,
    imm: BTreeMap<i64, u64>,
    table: BTreeMap<ExprKey, u64>,
    /// Contents of tracked frame slots (see [`FuncMeta::tracked`]:
    /// result/argument spill words, never address-taken, so no indirect
    /// store or callee can alias them).  This is what lets the
    /// numbering follow a value through its slot round-trip — the
    /// backend spills every MIR result, so without it each reload
    /// would mint a fresh number and no recomputation would ever match.
    slot: BTreeMap<i64, u64>,
}

impl Lvn {
    fn fresh(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    /// The 64-bit content number of `g`, minting one if unknown.
    fn vn64(&mut self, g: Gpr) -> u64 {
        if let Some(&v) = self.reg64.get(&g.index()) {
            v
        } else {
            let v = self.fresh();
            self.reg64.insert(g.index(), v);
            v
        }
    }

    /// The low-byte content number of `g`, minting one if unknown.
    fn vn8(&mut self, g: Gpr) -> u64 {
        if let Some(&v) = self.reg8.get(&g.index()) {
            v
        } else {
            let v = self.fresh();
            self.reg8.insert(g.index(), v);
            v
        }
    }

    /// Value number of a 64-bit ALU operand (`None` for memory).
    fn operand64(&mut self, op: &Operand) -> Option<u64> {
        match op {
            Operand::Reg(r) if r.width == Width::W64 => Some(self.vn64(r.gpr)),
            Operand::Imm(i) => {
                if let Some(&v) = self.imm.get(i) {
                    Some(v)
                } else {
                    let v = self.fresh();
                    self.imm.insert(*i, v);
                    Some(v)
                }
            }
            _ => None,
        }
    }

    /// Interns `key`, returning `(vn, was_known)`.
    fn intern(&mut self, key: ExprKey) -> (u64, bool) {
        if let Some(&v) = self.table.get(&key) {
            (v, true)
        } else {
            let v = self.fresh();
            self.table.insert(key, v);
            (v, false)
        }
    }

    /// The lowest-indexed register whose full 64 bits hold `v`.
    fn holder64(&self, v: u64) -> Option<Gpr> {
        self.reg64
            .iter()
            .find(|(_, &x)| x == v)
            .map(|(&gi, _)| ALL_GPRS[gi])
    }

    /// The lowest-offset tracked slot whose word holds `v`.
    fn slot_holder(&self, v: u64) -> Option<i64> {
        self.slot
            .iter()
            .find(|(_, &x)| x == v)
            .map(|(&off, _)| off)
    }

    fn kill(&mut self, g: Gpr) {
        self.reg64.remove(&g.index());
        self.reg8.remove(&g.index());
    }

    /// Seeds register numbers from the forwarding pass's converged
    /// entry facts.  All facts one register carries name the same
    /// runtime value, so registers whose fact sets overlap hold equal
    /// values and must share a number — this is what carries
    /// master/shadow equality across block boundaries (e.g. a
    /// loop-carried IR-EDDI shadow whose reload was collapsed in the
    /// loop header).
    fn seed_from_facts(&mut self, facts: &Facts) {
        let mut fact_vn: BTreeMap<Fact, u64> = BTreeMap::new();
        for (&gi, fs) in facts {
            let mut found: Vec<u64> = fs.iter().filter_map(|f| fact_vn.get(f).copied()).collect();
            found.sort_unstable();
            found.dedup();
            let v = match found.first() {
                Some(&v) => v,
                None => self.fresh(),
            };
            if found.len() > 1 {
                // Transitive merge: this register proves several
                // previously separate classes equal.
                for x in fact_vn.values_mut() {
                    if found.contains(x) {
                        *x = v;
                    }
                }
                for x in self.reg64.values_mut() {
                    if found.contains(x) {
                        *x = v;
                    }
                }
                for x in self.slot.values_mut() {
                    if found.contains(x) {
                        *x = v;
                    }
                }
            }
            for f in fs {
                fact_vn.insert(*f, v);
                // `Val(off)` means the register equals the slot's
                // current word, so the slot holds the same value.
                if let Fact::Val(off) = f {
                    self.slot.insert(*off, v);
                }
            }
            self.reg64.insert(gi, v);
        }
    }

    /// Records a full-width definition of `g` as value `v`.
    fn def64(&mut self, g: Gpr, v: u64) {
        self.reg64.insert(g.index(), v);
        self.reg8.remove(&g.index());
    }
}

fn reads_flags(inst: &Inst) -> bool {
    matches!(inst, Inst::Jcc { .. } | Inst::Setcc { .. })
}

fn alu_commutes(op: ferrum_asm::inst::AluOp) -> bool {
    use ferrum_asm::inst::AluOp;
    matches!(op, AluOp::Add | AluOp::And | AluOp::Or | AluOp::Xor)
}

/// Transfers one instruction over the value-numbering state and
/// decides its rewrite.  Replacing an ALU instruction with a copy also
/// removes its flags write, so ALU rewrites additionally require
/// `flags_dead` (no consumer before the next flags writer).
fn cse_step(s: &mut Lvn, inst: &Inst, fm: &FuncMeta, flags_dead: bool) -> Action {
    use ferrum_asm::inst::ShiftAmount;
    match inst {
        // 64-bit reload of a tracked frame slot: the slot's content
        // number (if any) flows into the register; a register already
        // holding it turns the load into a copy.
        Inst::Mov {
            w: Width::W64,
            src: Operand::Mem(m),
            dst: Operand::Reg(r),
        } if r.width == Width::W64
            && direct_slot(m).is_some_and(|off| fm.tracked.contains(&off)) =>
        {
            let off = direct_slot(m).expect("guard");
            if let Some(&v) = s.slot.get(&off) {
                if s.reg64.get(&r.gpr.index()) == Some(&v) {
                    return Action::Delete;
                }
                let holder = s.holder64(v);
                s.def64(r.gpr, v);
                if let Some(h) = holder {
                    return Action::Replace(Inst::Mov {
                        w: Width::W64,
                        src: Operand::Reg(Reg::q(h)),
                        dst: Operand::Reg(Reg::q(r.gpr)),
                    });
                }
            } else {
                let v = s.fresh();
                s.slot.insert(off, v);
                s.def64(r.gpr, v);
            }
            Action::Keep
        }
        // 64-bit register copy: both content numbers propagate.
        Inst::Mov {
            w: Width::W64,
            src: Operand::Reg(sr),
            dst: Operand::Reg(dr),
        } if sr.width == Width::W64 && dr.width == Width::W64 => {
            let v = s.vn64(sr.gpr);
            s.reg64.insert(dr.gpr.index(), v);
            match s.reg8.get(&sr.gpr.index()).copied() {
                Some(b) => {
                    s.reg8.insert(dr.gpr.index(), b);
                }
                None => {
                    s.reg8.remove(&dr.gpr.index());
                }
            }
            Action::Keep
        }
        // Constant materialisation: equal immediates are equal values.
        Inst::Mov {
            w: Width::W64,
            src: Operand::Imm(i),
            dst: Operand::Reg(dr),
        } if dr.width == Width::W64 => {
            let v = s.operand64(&Operand::Imm(*i)).expect("imm interns");
            s.def64(dr.gpr, v);
            Action::Keep
        }
        // Byte copy: writes the low byte only, so the 64-bit content
        // number dies but the byte number propagates.
        Inst::Mov {
            w: Width::W8,
            src: Operand::Reg(sr),
            dst: Operand::Reg(dr),
        } if sr.width == Width::W8 && dr.width == Width::W8 => {
            s.reg64.remove(&dr.gpr.index());
            let b = s.vn8(sr.gpr);
            s.reg8.insert(dr.gpr.index(), b);
            Action::Keep
        }
        // Any other register-writing mov (loads, narrow widths).
        Inst::Mov {
            dst: Operand::Reg(r),
            ..
        } => {
            s.kill(r.gpr);
            Action::Keep
        }
        // Stores don't touch register contents, but a direct store
        // redefines its slot's content number.  Indirect stores cannot
        // alias tracked slots (never address-taken), so the map only
        // ever holds tracked offsets and needs no other invalidation.
        Inst::Mov {
            w,
            src,
            dst: Operand::Mem(m),
        } => {
            if let Some(off) = direct_slot(m) {
                s.slot.remove(&off);
                if *w == Width::W64 && fm.tracked.contains(&off) {
                    match src {
                        Operand::Reg(sr) if sr.width == Width::W64 => {
                            let v = s.vn64(sr.gpr);
                            s.slot.insert(off, v);
                        }
                        Operand::Imm(i) => {
                            let v = s.operand64(&Operand::Imm(*i)).expect("imm interns");
                            s.slot.insert(off, v);
                        }
                        _ => {}
                    }
                }
            }
            Action::Keep
        }
        Inst::Mov { .. } => Action::Keep,
        // Boolean widening: the canonical second half of the lowered
        // `setcc; movzx` materialisation.
        Inst::Movzx {
            src_w: Width::W8,
            dst_w: Width::W64,
            src: Operand::Reg(sr),
            dst,
        } if sr.width == Width::W8 => {
            let b = s.vn8(sr.gpr);
            let (v, known) = s.intern((TAG_MOVZX8, 0, b, 0));
            let holder = s.holder64(v);
            s.reg64.insert(dst.gpr.index(), v);
            // Zero-extension preserves the low byte.
            s.reg8.insert(dst.gpr.index(), b);
            if known {
                if let Some(h) = holder {
                    if h == dst.gpr {
                        return Action::Delete;
                    }
                    return Action::Replace(Inst::Mov {
                        w: Width::W64,
                        src: Operand::Reg(Reg::q(h)),
                        dst: Operand::Reg(Reg::q(dst.gpr)),
                    });
                }
                if let Some(off) = s.slot_holder(v) {
                    return Action::Replace(Inst::Mov {
                        w: Width::W64,
                        src: Operand::Mem(MemRef::base_disp(Gpr::Rbp, off)),
                        dst: Operand::Reg(Reg::q(dst.gpr)),
                    });
                }
            }
            Action::Keep
        }
        Inst::Movzx { dst, .. } | Inst::Movsx { dst, .. } => {
            s.kill(dst.gpr);
            Action::Keep
        }
        // Two-operand ALU over known values.
        Inst::Alu {
            op,
            w: Width::W64,
            src,
            dst: Operand::Reg(r),
        } if r.width == Width::W64 => {
            let a = s.vn64(r.gpr);
            let Some(b) = s.operand64(src) else {
                s.kill(r.gpr);
                return Action::Keep;
            };
            let (x, y) = if alu_commutes(*op) && b < a { (b, a) } else { (a, b) };
            let (v, known) = s.intern((TAG_ALU, *op as u64, x, y));
            let holder = s.holder64(v);
            s.def64(r.gpr, v);
            if known && flags_dead {
                if let Some(h) = holder {
                    if h == r.gpr {
                        return Action::Delete;
                    }
                    return Action::Replace(Inst::Mov {
                        w: Width::W64,
                        src: Operand::Reg(Reg::q(h)),
                        dst: Operand::Reg(Reg::q(r.gpr)),
                    });
                }
                if let Some(off) = s.slot_holder(v) {
                    return Action::Replace(Inst::Mov {
                        w: Width::W64,
                        src: Operand::Mem(MemRef::base_disp(Gpr::Rbp, off)),
                        dst: Operand::Reg(Reg::q(r.gpr)),
                    });
                }
            }
            Action::Keep
        }
        Inst::Imul {
            w: Width::W64,
            src,
            dst,
        } if dst.width == Width::W64 => {
            let a = s.vn64(dst.gpr);
            let Some(b) = s.operand64(src) else {
                s.kill(dst.gpr);
                return Action::Keep;
            };
            let (x, y) = if b < a { (b, a) } else { (a, b) };
            let (v, known) = s.intern((TAG_IMUL, 0, x, y));
            let holder = s.holder64(v);
            s.def64(dst.gpr, v);
            if known && flags_dead {
                if let Some(h) = holder {
                    if h == dst.gpr {
                        return Action::Delete;
                    }
                    return Action::Replace(Inst::Mov {
                        w: Width::W64,
                        src: Operand::Reg(Reg::q(h)),
                        dst: Operand::Reg(Reg::q(dst.gpr)),
                    });
                }
                if let Some(off) = s.slot_holder(v) {
                    return Action::Replace(Inst::Mov {
                        w: Width::W64,
                        src: Operand::Mem(MemRef::base_disp(Gpr::Rbp, off)),
                        dst: Operand::Reg(Reg::q(dst.gpr)),
                    });
                }
            }
            Action::Keep
        }
        Inst::Shift {
            op,
            w: Width::W64,
            amount: ShiftAmount::Imm(k),
            dst: Operand::Reg(r),
        } if r.width == Width::W64 => {
            let a = s.vn64(r.gpr);
            let (v, known) = s.intern((TAG_SHIFT, (*op as u64) << 8 | u64::from(*k), a, 0));
            let holder = s.holder64(v);
            s.def64(r.gpr, v);
            if known && flags_dead {
                if let Some(h) = holder {
                    if h == r.gpr {
                        return Action::Delete;
                    }
                    return Action::Replace(Inst::Mov {
                        w: Width::W64,
                        src: Operand::Reg(Reg::q(h)),
                        dst: Operand::Reg(Reg::q(r.gpr)),
                    });
                }
                if let Some(off) = s.slot_holder(v) {
                    return Action::Replace(Inst::Mov {
                        w: Width::W64,
                        src: Operand::Mem(MemRef::base_disp(Gpr::Rbp, off)),
                        dst: Operand::Reg(Reg::q(r.gpr)),
                    });
                }
            }
            Action::Keep
        }
        Inst::Unary {
            op,
            w: Width::W64,
            dst: Operand::Reg(r),
        } if r.width == Width::W64 => {
            let a = s.vn64(r.gpr);
            let (v, known) = s.intern((TAG_UNARY, *op as u64, a, 0));
            let holder = s.holder64(v);
            s.def64(r.gpr, v);
            if known && flags_dead {
                if let Some(h) = holder {
                    if h == r.gpr {
                        return Action::Delete;
                    }
                    return Action::Replace(Inst::Mov {
                        w: Width::W64,
                        src: Operand::Reg(Reg::q(h)),
                        dst: Operand::Reg(Reg::q(r.gpr)),
                    });
                }
                if let Some(off) = s.slot_holder(v) {
                    return Action::Replace(Inst::Mov {
                        w: Width::W64,
                        src: Operand::Mem(MemRef::base_disp(Gpr::Rbp, off)),
                        dst: Operand::Reg(Reg::q(r.gpr)),
                    });
                }
            }
            Action::Keep
        }
        // Flag materialisation is deliberately NOT value-numbered: a
        // duplicated `cmp; setcc` chain could collapse into a byte
        // copy, but rewriting flag producers/consumers is the business
        // of the dedicated fusion pass, which has the strict adjacency
        // conditions x86 flags semantics demand.  `cmp`/`test` only
        // read registers, so they leave the state untouched.
        Inst::Cmp { .. } | Inst::Test { .. } => Action::Keep,
        Inst::Setcc {
            dst: Operand::Reg(r),
            ..
        } => {
            s.kill(r.gpr);
            Action::Keep
        }
        Inst::Call { .. } => {
            s.reg64.clear();
            s.reg8.clear();
            Action::Keep
        }
        Inst::Jmp { .. } | Inst::Jcc { .. } | Inst::Ret | Inst::Push { .. } => Action::Keep,
        other => {
            // Any remaining direct frame write invalidates its slot
            // entry (read-modify-write ALU forms, setcc/pop to memory).
            if let Inst::Alu {
                dst: Operand::Mem(m),
                ..
            }
            | Inst::Unary {
                dst: Operand::Mem(m),
                ..
            }
            | Inst::Shift {
                dst: Operand::Mem(m),
                ..
            }
            | Inst::Setcc {
                dst: Operand::Mem(m),
                ..
            }
            | Inst::Pop {
                dst: Operand::Mem(m),
            } = other
            {
                if let Some(off) = direct_slot(m) {
                    s.slot.remove(&off);
                }
            }
            for g in other.gprs_written() {
                s.kill(g);
            }
            Action::Keep
        }
    }
}

/// Runs block-local value numbering over every block, rewriting proven
/// recomputations into register copies.  Returns
/// `(rewritten, deleted)`.
fn cse_local(f: &mut AsmFunction, fm: &FuncMeta) -> (usize, usize) {
    let entry = converged_entry_facts(f, fm);
    let cfg = Cfg::build(f);
    // Whether a block consumes flags before writing them — backend
    // output never does (flags producers and consumers are adjacent),
    // but compute it so end-of-block flags deadness stays sound.
    let entry_reads_flags: Vec<bool> = f
        .blocks
        .iter()
        .map(|b| {
            for ai in &b.insts {
                if reads_flags(&ai.inst) {
                    return true;
                }
                if ai.inst.writes_flags() {
                    return false;
                }
            }
            false
        })
        .collect();
    let mut rewritten = 0;
    let mut deleted = 0;
    // Extended-basic-block scope: a block with a single already-numbered
    // predecessor inherits that predecessor's exit state wholesale.  The
    // IR-level EDDI pass splits blocks at every check, so the master and
    // its shadow routinely land on opposite sides of a check-continuation
    // edge; those continuation blocks have exactly one predecessor and
    // the carried state keeps the master/shadow value chain visible.
    let mut exit: Vec<Option<Lvn>> = vec![None; f.blocks.len()];
    for bi in 0..f.blocks.len() {
        let n = f.blocks[bi].insts.len();
        // flags_dead[i]: no instruction after i consumes the flags
        // that are live right after i.
        let mut flags_dead = vec![false; n];
        let mut dead = !cfg.succs[bi].iter().any(|&sb| entry_reads_flags[sb]);
        for i in (0..n).rev() {
            flags_dead[i] = dead;
            let inst = &f.blocks[bi].insts[i].inst;
            if inst.writes_flags() {
                dead = true;
            } else if reads_flags(inst) {
                dead = false;
            }
        }
        let inherited = match cfg.preds[bi].as_slice() {
            [p] if *p < bi => exit[*p].clone(),
            _ => None,
        };
        let mut lvn = match inherited {
            Some(state) => state,
            None => {
                let mut fresh = Lvn::default();
                if let Some(facts) = &entry[bi] {
                    fresh.seed_from_facts(facts);
                }
                fresh
            }
        };
        let actions: Vec<Action> = f.blocks[bi]
            .insts
            .iter()
            .enumerate()
            .map(|(i, ai)| cse_step(&mut lvn, &ai.inst, fm, flags_dead[i]))
            .collect();
        exit[bi] = Some(lvn);
        let block = &mut f.blocks[bi];
        let mut keep = Vec::with_capacity(n);
        for (mut ai, action) in block.insts.drain(..).zip(actions) {
            match action {
                Action::Keep => keep.push(ai),
                Action::Delete => deleted += 1,
                Action::Replace(inst) => {
                    ai.inst = inst;
                    rewritten += 1;
                    keep.push(ai);
                }
            }
        }
        block.insts = keep;
    }
    (rewritten, deleted)
}

// ---------------------------------------------------------------------
// Cmp/branch fusion
// ---------------------------------------------------------------------

/// One fusable chain: the re-test at `test_pos`, the `jcc` right after
/// it, and the boolean-materialisation instructions to delete.
struct FusionPlan {
    block: usize,
    jcc_pos: usize,
    cc: Cc,
    delete: Vec<usize>,
}

fn fuse_compare_branches(f: &mut AsmFunction) -> (usize, usize) {
    let cfg = Cfg::build(f);
    let lv = Liveness::compute(f, &cfg);
    let mut plans = Vec::new();
    for bi in 0..f.blocks.len() {
        let after = lv.live_after_each(f, bi);
        if let Some(plan) = find_fusion(f, bi, &after) {
            plans.push(plan);
        }
    }
    let fused = plans.len();
    let mut deleted = 0;
    for plan in plans {
        let block = &mut f.blocks[plan.block];
        if let Inst::Jcc { cc, .. } = &mut block.insts[plan.jcc_pos].inst {
            *cc = plan.cc;
        }
        let del: BTreeSet<usize> = plan.delete.iter().copied().collect();
        deleted += del.len();
        let mut i = 0;
        block.insts.retain(|_| {
            let keep = !del.contains(&i);
            i += 1;
            keep
        });
    }
    (fused, deleted)
}

/// Finds the `…; setcc cc; movzx; [mov]*; test/cmp0; jcc ne` chain in
/// block `bi` and checks every side condition:
///
/// * the traced defs form exactly the boolean-materialisation shape;
/// * no non-chain instruction reads a chain register inside its
///   def-to-consumer window, so the chain can be deleted whole
///   (leaving a partial chain would put GPR sites between the compare
///   and the fused `jcc`, which the hybrid baseline's checker cannot
///   protect without clobbering live flags);
/// * no non-chain instruction between the `setcc` and the `jcc` writes
///   flags, so the fused `jcc` observes exactly the flags the `setcc`
///   encoded;
/// * every chain register is dead after the `jcc` on all paths.
fn find_fusion(f: &AsmFunction, bi: usize, live_after: &[u128]) -> Option<FusionPlan> {
    let insts = &f.blocks[bi].insts;
    // Locate `test r, r` or `cmp $0, r` immediately before a `jcc ne`.
    let (t, j, tested) = insts.iter().enumerate().find_map(|(j, ai)| {
        if !matches!(&ai.inst, Inst::Jcc { cc: Cc::Ne, .. }) || j == 0 {
            return None;
        }
        let t = j - 1;
        let tested = match &insts[t].inst {
            Inst::Test {
                w: Width::W64,
                src: Operand::Reg(a),
                dst: Operand::Reg(b),
            } if a.gpr == b.gpr && a.width == Width::W64 => Some(a.gpr),
            Inst::Cmp {
                w: Width::W64,
                src: Operand::Imm(0),
                dst: Operand::Reg(r),
            } if r.width == Width::W64 => Some(r.gpr),
            _ => None,
        };
        tested.map(|g| (t, j, g))
    })?;

    // Trace the boolean's defining chain backwards.
    let mut delete = vec![t];
    let mut chain_regs = vec![tested];
    let mut links: Vec<(usize, usize, Gpr)> = Vec::new(); // (def, consumer, reg)
    let mut cur = tested;
    let mut consumer = t;
    let (setcc_pos, cc) = loop {
        let def = (0..consumer)
            .rev()
            .find(|&k| inst_kills(&insts[k].inst) & reg_bytes(cur) != 0)?;
        links.push((def, consumer, cur));
        delete.push(def);
        match &insts[def].inst {
            Inst::Setcc {
                cc,
                dst: Operand::Reg(r),
            } if r.gpr == cur => break (def, *cc),
            Inst::Movzx {
                src_w: Width::W8,
                dst_w: Width::W64,
                src: Operand::Reg(s),
                dst,
            } if dst.gpr == cur => {
                cur = s.gpr;
                chain_regs.push(cur);
                consumer = def;
            }
            Inst::Mov {
                w: Width::W64,
                src: Operand::Reg(s),
                dst: Operand::Reg(d),
            } if d.gpr == cur && s.width == Width::W64 => {
                cur = s.gpr;
                chain_regs.push(cur);
                consumer = def;
            }
            _ => return None,
        }
    };

    let in_delete = |q: usize| delete.contains(&q);
    // Everything between the setcc and the jcc must be chain (and thus
    // deleted): the fused `jcc` has to land immediately after the
    // original compare, because FERRUM's deferred-flags scheme (§III-B2)
    // and the hybrid baseline's checker both require a flags producer's
    // consumer to be adjacent.
    for q in setcc_pos + 1..j {
        if !in_delete(q) {
            return None;
        }
    }
    // No non-chain reads of a chain register inside its window.
    for &(def, cons, g) in &links {
        for (q, ai) in insts.iter().enumerate().take(cons).skip(def + 1) {
            if !in_delete(q) && inst_reads(&ai.inst) & reg_bytes(g) != 0 {
                return None;
            }
        }
    }
    // No surviving flag writer between the setcc and the jcc.
    for (q, ai) in insts.iter().enumerate().take(j).skip(setcc_pos + 1) {
        if !in_delete(q) && ai.inst.writes_flags() {
            return None;
        }
    }
    // Chain registers must be dead after the branch on every path.
    for &g in &chain_regs {
        if live_after[j] & reg_bytes(g) != 0 {
            return None;
        }
    }
    Some(FusionPlan {
        block: bi,
        jcc_pos: j,
        cc,
        delete,
    })
}

// ---------------------------------------------------------------------
// Dead-store elimination
// ---------------------------------------------------------------------

/// Accesses one instruction makes to directly addressed frame words.
enum SlotAccess {
    /// A full-width overwrite of one slot.
    PureWrite(i64),
    /// Reads (possibly several: both operands can be memory-free; the
    /// vector is usually empty).
    Reads(Vec<i64>),
}

fn slot_access(inst: &Inst) -> SlotAccess {
    if let Inst::Mov {
        w: Width::W64,
        src,
        dst: Operand::Mem(m),
    } = inst
    {
        let full_src = match src {
            Operand::Reg(r) => r.width == Width::W64,
            Operand::Imm(_) => true,
            Operand::Mem(_) => false,
        };
        if full_src {
            if let Some(off) = direct_slot(m) {
                return SlotAccess::PureWrite(off);
            }
        }
    }
    // Everything else: any direct-slot memory operand counts as a read
    // (including RMW destinations and `lea`, conservatively).
    let mut reads = Vec::new();
    let mut note = |m: &MemRef| {
        if let Some(off) = direct_slot(m) {
            reads.push(off);
        }
    };
    match inst {
        Inst::Mov { src, dst, .. }
        | Inst::Alu { src, dst, .. }
        | Inst::Cmp { src, dst, .. }
        | Inst::Test { src, dst, .. } => {
            if let Operand::Mem(m) = src {
                note(m);
            }
            if let Operand::Mem(m) = dst {
                note(m);
            }
        }
        Inst::Movsx { src, .. } | Inst::Movzx { src, .. } => {
            if let Operand::Mem(m) = src {
                note(m);
            }
        }
        Inst::Imul { src, .. } | Inst::Idiv { src, .. } | Inst::Push { src, .. } => {
            if let Operand::Mem(m) = src {
                note(m);
            }
        }
        Inst::Lea { mem, .. } => note(mem),
        Inst::Shift { dst, .. } | Inst::Unary { dst, .. } | Inst::Setcc { dst, .. } | Inst::Pop { dst } => {
            if let Operand::Mem(m) = dst {
                note(m);
            }
        }
        _ => {
            // SIMD loads/stores and control flow: SIMD memory operands
            // address batch buffers through registers, never direct
            // slots; if one ever did, the operand patterns above would
            // need extending. Conservatively scan via reg_masks-free
            // variants is unnecessary for backend output.
        }
    }
    SlotAccess::Reads(reads)
}

fn eliminate_dead_stores(f: &mut AsmFunction, fm: &FuncMeta) -> usize {
    let cfg = Cfg::build(f);
    let n = f.blocks.len();
    // Backward fixpoint over live tracked slots.
    let transfer = |bi: usize, out: &BTreeSet<i64>| -> BTreeSet<i64> {
        let mut live = out.clone();
        for ai in f.blocks[bi].insts.iter().rev() {
            match slot_access(&ai.inst) {
                SlotAccess::PureWrite(off) => {
                    live.remove(&off);
                }
                SlotAccess::Reads(rs) => {
                    for off in rs {
                        if fm.tracked.contains(&off) {
                            live.insert(off);
                        }
                    }
                }
            }
        }
        live
    };
    let mut live_in: Vec<BTreeSet<i64>> = vec![BTreeSet::new(); n];
    loop {
        let mut changed = false;
        for bi in (0..n).rev() {
            let mut out = BTreeSet::new();
            for &s in &cfg.succs[bi] {
                out.extend(live_in[s].iter().copied());
            }
            let inn = transfer(bi, &out);
            if inn != live_in[bi] {
                live_in[bi] = inn;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Delete dead stores with the converged facts.
    let mut removed = 0;
    for bi in 0..n {
        let mut live = BTreeSet::new();
        for &s in &cfg.succs[bi] {
            live.extend(live_in[s].iter().copied());
        }
        let block = &mut f.blocks[bi];
        let mut dead = Vec::new();
        for (i, ai) in block.insts.iter().enumerate().rev() {
            match slot_access(&ai.inst) {
                SlotAccess::PureWrite(off) => {
                    if fm.tracked.contains(&off) && !live.contains(&off) {
                        dead.push(i);
                    } else {
                        live.remove(&off);
                    }
                }
                SlotAccess::Reads(rs) => {
                    for off in rs {
                        if fm.tracked.contains(&off) {
                            live.insert(off);
                        }
                    }
                }
            }
        }
        removed += dead.len();
        let del: BTreeSet<usize> = dead.into_iter().collect();
        let mut i = 0;
        block.insts.retain(|_| {
            let keep = !del.contains(&i);
            i += 1;
            keep
        });
    }
    removed
}

// ---------------------------------------------------------------------
// Dead-code sweep
// ---------------------------------------------------------------------

/// Registers written by a deletable instruction, with the kill width —
/// `None` when the instruction has side effects (flags, memory,
/// control) and must stay.
fn dce_candidate(inst: &Inst) -> Option<u128> {
    match inst {
        Inst::Mov {
            w,
            dst: Operand::Reg(r),
            ..
        } => Some(ferrum_asm::analysis::liveness::kill_bytes(r.gpr, *w)),
        Inst::Movsx { dst_w, dst, .. } | Inst::Movzx { dst_w, dst, .. } => {
            Some(ferrum_asm::analysis::liveness::kill_bytes(dst.gpr, *dst_w))
        }
        Inst::Lea { dst, .. } => Some(ferrum_asm::analysis::liveness::kill_bytes(
            dst.gpr,
            Width::W64,
        )),
        Inst::Setcc {
            dst: Operand::Reg(r),
            ..
        } => Some(ferrum_asm::analysis::liveness::kill_bytes(r.gpr, Width::W8)),
        _ => None,
    }
}

fn sweep_dead_code(f: &mut AsmFunction) -> usize {
    let mut removed = 0;
    loop {
        let cfg = Cfg::build(f);
        let lv = Liveness::compute(f, &cfg);
        let mut any = false;
        for bi in 0..f.blocks.len() {
            let after = lv.live_after_each(f, bi);
            let block = &mut f.blocks[bi];
            let del: BTreeSet<usize> = block
                .insts
                .iter()
                .enumerate()
                .filter(|(i, ai)| {
                    dce_candidate(&ai.inst).is_some_and(|kill| after[*i] & kill == 0)
                })
                .map(|(i, _)| i)
                .collect();
            if del.is_empty() {
                continue;
            }
            any = true;
            removed += del.len();
            let mut i = 0;
            block.insts.retain(|_| {
                let keep = !del.contains(&i);
                i += 1;
                keep
            });
        }
        if !any {
            return removed;
        }
    }
}
