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
//! The bundle runs in rounds until a round changes nothing, so
//! `optimize` is idempotent: applying it to its own output changes
//! nothing.  Each round computes the available-loads facts once and
//! hands them to both forwarding and value numbering, and every pass
//! of every round shares one CFG per function: no pass adds, removes
//! or retargets a branch (fusion rewrites only a `jcc`'s condition,
//! and the fall-through pass drops only a block-final `jmp` to the
//! next block, an edge the CFG keeps as the fall-through).
//!
//! # Soundness preconditions
//!
//! Same frame discipline as [`crate::peephole`]: directly addressed
//! `disp(%rbp)` slots are disjoint from all indirectly addressed
//! memory except `lea`-materialised alloca words, and `gep` indexing
//! stays inside its allocation.  Block labels are unique.  The
//! pipeline only runs these passes on backend output, before any
//! protection pass.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ferrum_asm::analysis::cfg::Cfg;
use ferrum_asm::analysis::liveness::{gprs_in, inst_kills, inst_reads, reg_bytes, Liveness};
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
        let cfg = Cfg::build(f);
        // Each pass is monotone (memory traffic and instruction count
        // never increase), so the bundle reaches a fixpoint; 64 rounds
        // is far beyond any real chain of enablements.
        for _ in 0..64 {
            let mut round = PassStats::default();
            // Forwarding's rewrite agrees with its own transfer at the
            // converged facts, so they stay a fixpoint of the rewritten
            // function and value numbering seeds from the same facts.
            let words = FrameWords::of(f, fm);
            let entry = converged_entry_facts(f, &cfg, &words);
            let (fwd, rm) = forward_available_loads(f, &words, &entry);
            round.loads_forwarded = fwd;
            round.loads_removed = rm;
            let (cse_fwd, cse_rm) = cse_local(f, fm, &cfg, &words, &entry);
            round.exprs_forwarded = cse_fwd;
            round.exprs_removed = cse_rm;
            let (fused, fused_rm) = fuse_compare_branches(f, &cfg);
            round.branches_fused = fused;
            round.fused_insts_removed = fused_rm;
            round.stores_removed = eliminate_dead_stores(f, fm, &cfg);
            round.dead_removed = sweep_dead_code(f, &cfg);
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

/// Number of general-purpose registers (every `Gpr::index()` is below
/// it).
const GPRS: usize = ALL_GPRS.len();

/// The frame words one round of forwarding can name, in ascending
/// offset order: every direct `disp(%rbp)` operand of a `mov`/`cmp`,
/// plus every `lea`'d frame base added to every displacement of a
/// base-only indirect `mov`/`cmp` operand.  Those are all the offsets
/// [`resolve_word`] can return, so bit `i` of a register's fact row
/// names the value of word `offs[i]`, and bit order is offset order.
struct FrameWords {
    offs: Vec<i64>,
    /// `u64`s per register row.
    stride: usize,
    /// The bits of alloca words, which an unresolvable store may alias.
    alloca: Vec<u64>,
}

impl FrameWords {
    fn of(f: &AsmFunction, fm: &FuncMeta) -> FrameWords {
        let mut offs = Vec::new();
        let mut bases = Vec::new();
        let mut disps = Vec::new();
        for inst in f.blocks.iter().flat_map(|b| &b.insts).map(|ai| &ai.inst) {
            match inst {
                Inst::Mov { src, dst, .. } | Inst::Cmp { src, dst, .. } => {
                    for m in [src, dst].into_iter().filter_map(Operand::as_mem) {
                        match (m.base, m.index, &m.symbol) {
                            (Some(Gpr::Rbp), None, None) => offs.push(m.disp),
                            (Some(_), None, None) => disps.push(m.disp),
                            _ => {}
                        }
                    }
                }
                Inst::Lea { mem, .. } => bases.extend(direct_slot(mem)),
                _ => {}
            }
        }
        bases.sort_unstable();
        bases.dedup();
        disps.sort_unstable();
        disps.dedup();
        for &base in &bases {
            offs.extend(disps.iter().map(|&d| base.wrapping_add(d)));
        }
        offs.sort_unstable();
        offs.dedup();
        let stride = offs.len().div_ceil(64);
        let mut alloca = vec![0; stride];
        for (i, off) in offs.iter().enumerate() {
            if fm.alloca_words.contains(off) {
                alloca[i / 64] |= 1 << (i % 64);
            }
        }
        FrameWords {
            offs,
            stride,
            alloca,
        }
    }

    /// The bit of frame word `off`.
    fn bit(&self, off: i64) -> Option<usize> {
        self.offs.binary_search(&off).ok()
    }
}

/// What each register provably holds at a program point: row `g` of
/// `vals` is the set of frame words (bits over [`FrameWords`]) whose
/// value register `g` holds, and `addr[g]` the address `%rbp + off` of
/// a `lea`-materialised alloca base it holds.  A register holds at
/// most one address: `lea` sets exactly one and no transfer unions
/// two.
#[derive(Clone, PartialEq, Eq)]
struct Facts {
    stride: usize,
    vals: Vec<u64>,
    addr: [Option<i64>; GPRS],
}

impl Facts {
    /// No facts (the function entry).
    fn empty(words: &FrameWords) -> Facts {
        Facts {
            stride: words.stride,
            vals: vec![0; GPRS * words.stride],
            addr: [None; GPRS],
        }
    }

    fn row(&self, g: usize) -> &[u64] {
        &self.vals[g * self.stride..(g + 1) * self.stride]
    }

    fn row_mut(&mut self, g: usize) -> &mut [u64] {
        &mut self.vals[g * self.stride..(g + 1) * self.stride]
    }

    /// The frame-word bits register `g` holds, ascending.
    fn bits(&self, g: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(g).iter().enumerate().flat_map(|(k, &w)| {
            (0..64)
                .filter(move |b| w >> b & 1 != 0)
                .map(move |b| k * 64 + b)
        })
    }

    fn holds(&self, g: usize, bit: usize) -> bool {
        bit_is_set(self.row(g), bit)
    }

    fn add(&mut self, g: usize, bit: usize) {
        set_bit(self.row_mut(g), bit, true);
    }

    /// The register holding the value of word `bit`, lowest index first
    /// for determinism.
    fn holder(&self, bit: usize) -> Option<Gpr> {
        (0..GPRS).find(|&g| self.holds(g, bit)).map(|g| ALL_GPRS[g])
    }

    fn kill_reg(&mut self, g: usize) {
        self.row_mut(g).fill(0);
        self.addr[g] = None;
    }

    /// Register `to` now holds whatever `from` holds.
    fn copy_reg(&mut self, from: usize, to: usize) {
        let s = self.stride;
        self.vals.copy_within(from * s..(from + 1) * s, to * s);
        self.addr[to] = self.addr[from];
    }

    /// Word `bit` was overwritten: no register holds its value anymore.
    fn kill_word(&mut self, bit: usize) {
        let mask = !(1u64 << (bit % 64));
        for w in self.vals.iter_mut().skip(bit / 64).step_by(self.stride) {
            *w &= mask;
        }
    }

    /// Drops every value fact in `words` (a bit mask of one row).
    fn kill_words(&mut self, words: &[u64]) {
        // A function without frame words has empty rows.
        for row in self.vals.chunks_exact_mut(self.stride.max(1)) {
            for (w, &m) in row.iter_mut().zip(words) {
                *w &= !m;
            }
        }
    }

    /// Forgets everything (a call may leave anything anywhere).
    fn clear(&mut self) {
        self.vals.fill(0);
        self.addr = [None; GPRS];
    }

    /// Overwrites `self` with `other` without reallocating.
    fn assign(&mut self, other: &Facts) {
        self.vals.copy_from_slice(&other.vals);
        self.addr = other.addr;
    }

    /// The control-flow meet: facts that hold on both paths.
    fn meet(&mut self, other: &Facts) {
        for (a, &b) in self.vals.iter_mut().zip(&other.vals) {
            *a &= b;
        }
        for (a, b) in self.addr.iter_mut().zip(&other.addr) {
            if a != b {
                *a = None;
            }
        }
    }
}

fn bit_is_set(set: &[u64], bit: usize) -> bool {
    set[bit / 64] >> (bit % 64) & 1 != 0
}

fn set_bit(set: &mut [u64], bit: usize, on: bool) {
    if on {
        set[bit / 64] |= 1 << (bit % 64);
    } else {
        set[bit / 64] &= !(1 << (bit % 64));
    }
}

/// A frame word directly addressed as `disp(%rbp)`.
fn direct_slot(m: &MemRef) -> Option<i64> {
    match (m.base, m.index, &m.symbol) {
        (Some(Gpr::Rbp), None, None) => Some(m.disp),
        _ => None,
    }
}

/// Resolves a memory operand to a frame word's bit: either a direct
/// slot or an indirect access through a register holding an alloca
/// address.
fn resolve_word(m: &MemRef, st: &Facts, words: &FrameWords) -> Option<usize> {
    let off = match (m.base, m.index, &m.symbol) {
        (Some(Gpr::Rbp), None, None) => m.disp,
        (Some(b), None, None) => st.addr[b.index()]?.wrapping_add(m.disp),
        _ => return None,
    };
    words.bit(off)
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
fn step(st: &mut Facts, inst: &Inst, words: &FrameWords) -> Action {
    match inst {
        // 64-bit load from a resolvable frame word.
        Inst::Mov {
            w: Width::W64,
            src: Operand::Mem(m),
            dst: Operand::Reg(r),
        } if r.width == Width::W64 => {
            let g = r.gpr.index();
            if let Some(bit) = resolve_word(m, st, words) {
                if st.holds(g, bit) {
                    return Action::Delete;
                }
                if let Some(h) = st.holder(bit) {
                    st.copy_reg(h.index(), g);
                    st.add(g, bit);
                    return Action::Replace(Inst::Mov {
                        w: Width::W64,
                        src: Operand::Reg(Reg::q(h)),
                        dst: Operand::Reg(Reg::q(r.gpr)),
                    });
                }
                st.kill_reg(g);
                st.add(g, bit);
            } else {
                st.kill_reg(g);
            }
            Action::Keep
        }
        // 64-bit register copy propagates facts.
        Inst::Mov {
            w: Width::W64,
            src: Operand::Reg(s),
            dst: Operand::Reg(r),
        } if s.width == Width::W64 && r.width == Width::W64 => {
            st.copy_reg(s.gpr.index(), r.gpr.index());
            Action::Keep
        }
        // Stores.
        Inst::Mov {
            w,
            src,
            dst: Operand::Mem(m),
        } => {
            if let Some(bit) = resolve_word(m, st, words) {
                st.kill_word(bit);
                if *w == Width::W64 {
                    if let Operand::Reg(s) = src {
                        if s.width == Width::W64 {
                            st.add(s.gpr.index(), bit);
                        }
                    }
                }
            } else {
                st.kill_words(&words.alloca);
            }
            Action::Keep
        }
        // Other register writes through mov (imm loads, narrow movs).
        Inst::Mov {
            dst: Operand::Reg(r),
            ..
        } => {
            st.kill_reg(r.gpr.index());
            Action::Keep
        }
        Inst::Lea { mem, dst } => {
            st.kill_reg(dst.gpr.index());
            st.addr[dst.gpr.index()] = direct_slot(mem);
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
            if let Some(h) = resolve_word(m, st, words).and_then(|bit| st.holder(bit)) {
                return Action::Replace(Inst::Cmp {
                    w: Width::W64,
                    src: Operand::Imm(*i),
                    dst: Operand::Reg(Reg::q(h)),
                });
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
            st.kill_reg(r.gpr.index());
            Action::Keep
        }
        // Reads (cmp/test/idiv sources, jumps, ret) change nothing.
        Inst::Cmp { .. } | Inst::Test { .. } | Inst::Jmp { .. } | Inst::Jcc { .. } | Inst::Ret => {
            Action::Keep
        }
        other => {
            for g in gprs_in(inst_kills(other)) {
                st.kill_reg(g.index());
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
                st.vals.fill(0);
            }
            Action::Keep
        }
    }
}

/// Runs the forward available-loads dataflow to its fixpoint and
/// returns the converged entry facts per block (`None` = unreachable).
/// Sweeps visit blocks in index order, and a block is re-transferred
/// only when its entry facts changed since its last transfer.
fn converged_entry_facts(f: &AsmFunction, cfg: &Cfg, words: &FrameWords) -> Vec<Option<Facts>> {
    let n = f.blocks.len();
    let mut ins: Vec<Option<Facts>> = vec![None; n];
    let mut outs: Vec<Option<Facts>> = vec![None; n];
    if n == 0 {
        return ins;
    }
    ins[0] = Some(Facts::empty(words));
    let mut stale = vec![true; n];
    let mut meet = Facts::empty(words);
    loop {
        let mut changed = false;
        for bi in 0..n {
            if bi != 0 {
                let mut reached = false;
                for po in cfg.preds[bi].iter().filter_map(|&p| outs[p].as_ref()) {
                    if reached {
                        meet.meet(po);
                    } else {
                        meet.assign(po);
                        reached = true;
                    }
                }
                // A block both unreachable and predecessor-less stays ⊤.
                let same = match &ins[bi] {
                    Some(cur) => reached && *cur == meet,
                    None => !reached,
                };
                if !same {
                    ins[bi] = reached.then(|| meet.clone());
                    stale[bi] = true;
                    changed = true;
                }
            }
            if !std::mem::take(&mut stale[bi]) {
                continue;
            }
            let outb = ins[bi].clone().map(|mut st| {
                for ai in &f.blocks[bi].insts {
                    let _ = step(&mut st, &ai.inst, words);
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

/// Rewrites every reload the converged `entry` facts prove redundant.
fn forward_available_loads(
    f: &mut AsmFunction,
    words: &FrameWords,
    entry: &[Option<Facts>],
) -> (usize, usize) {
    let mut forwarded = 0;
    let mut removed = 0;
    for (entry, block) in entry.iter().zip(f.blocks.iter_mut()) {
        let Some(mut st) = entry.clone() else {
            continue;
        };
        block
            .insts
            .retain_mut(|ai| match step(&mut st, &ai.inst, words) {
                Action::Keep => true,
                Action::Delete => {
                    removed += 1;
                    false
                }
                Action::Replace(inst) => {
                    ai.inst = inst;
                    forwarded += 1;
                    true
                }
            });
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
/// names for runtime values, counted from 1; `reg64`/`reg8` say which
/// number each register (by `Gpr::index()`) currently holds (full
/// 64-bit content / low byte, 0 when unknown), and `table` interns
/// expressions over numbers, so a hit means the instruction recomputes
/// a value some register may still hold.
#[derive(Clone, Default)]
struct Lvn {
    next: u64,
    reg64: [u64; GPRS],
    reg8: [u64; GPRS],
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
        if self.reg64[g.index()] == 0 {
            self.reg64[g.index()] = self.fresh();
        }
        self.reg64[g.index()]
    }

    /// The low-byte content number of `g`, minting one if unknown.
    fn vn8(&mut self, g: Gpr) -> u64 {
        if self.reg8[g.index()] == 0 {
            self.reg8[g.index()] = self.fresh();
        }
        self.reg8[g.index()]
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
            .position(|&x| x == v)
            .map(|gi| ALL_GPRS[gi])
    }

    /// The lowest-offset tracked slot whose word holds `v`.
    fn slot_holder(&self, v: u64) -> Option<i64> {
        self.slot.iter().find(|(_, &x)| x == v).map(|(&off, _)| off)
    }

    fn kill(&mut self, g: Gpr) {
        self.reg64[g.index()] = 0;
        self.reg8[g.index()] = 0;
    }

    /// Seeds register numbers from the forwarding pass's converged
    /// entry facts.  All facts one register carries name the same
    /// runtime value, so registers whose fact sets overlap hold equal
    /// values and must share a number — this is what carries
    /// master/shadow equality across block boundaries (e.g. a
    /// loop-carried IR-EDDI shadow whose reload was collapsed in the
    /// loop header).
    fn seed_from_facts(&mut self, facts: &Facts, words: &FrameWords) {
        // The number each fact was given: frame words by bit, alloca
        // addresses by offset (0 = none yet).
        let mut word_vn = vec![0u64; words.offs.len()];
        let mut addr_vn: Vec<(i64, u64)> = Vec::new();
        let mut found: Vec<u64> = Vec::new();
        for (gi, &addr) in facts.addr.iter().enumerate() {
            if addr.is_none() && facts.bits(gi).next().is_none() {
                continue;
            }
            found.clear();
            found.extend(facts.bits(gi).map(|bit| word_vn[bit]).filter(|&v| v != 0));
            if let Some(a) = addr {
                found.extend(addr_vn.iter().filter(|(o, _)| *o == a).map(|(_, v)| *v));
            }
            found.sort_unstable();
            found.dedup();
            let v = match found.first() {
                Some(&v) => v,
                None => self.fresh(),
            };
            if found.len() > 1 {
                // Transitive merge: this register proves several
                // previously separate classes equal.
                let known = word_vn
                    .iter_mut()
                    .chain(addr_vn.iter_mut().map(|(_, x)| x))
                    .chain(self.reg64.iter_mut())
                    .chain(self.slot.values_mut());
                for x in known {
                    if found.contains(x) {
                        *x = v;
                    }
                }
            }
            for bit in facts.bits(gi) {
                word_vn[bit] = v;
                // The register equals the word's current content, so
                // the slot holds the same value.
                self.slot.insert(words.offs[bit], v);
            }
            if let Some(a) = addr {
                match addr_vn.iter_mut().find(|(o, _)| *o == a) {
                    Some((_, x)) => *x = v,
                    None => addr_vn.push((a, v)),
                }
            }
            self.reg64[gi] = v;
        }
    }

    /// Records a full-width definition of `g` as value `v`.
    fn def64(&mut self, g: Gpr, v: u64) {
        self.reg64[g.index()] = v;
        self.reg8[g.index()] = 0;
    }
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
                if s.reg64[r.gpr.index()] == v {
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
            s.reg64[dr.gpr.index()] = v;
            s.reg8[dr.gpr.index()] = s.reg8[sr.gpr.index()];
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
            s.reg64[dr.gpr.index()] = 0;
            let b = s.vn8(sr.gpr);
            s.reg8[dr.gpr.index()] = b;
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
            s.reg64[dst.gpr.index()] = v;
            // Zero-extension preserves the low byte.
            s.reg8[dst.gpr.index()] = b;
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
            let (x, y) = if alu_commutes(*op) && b < a {
                (b, a)
            } else {
                (a, b)
            };
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
            s.reg64 = [0; GPRS];
            s.reg8 = [0; GPRS];
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
            for g in gprs_in(inst_kills(other)) {
                s.kill(g);
            }
            Action::Keep
        }
    }
}

/// Runs block-local value numbering over every block, rewriting proven
/// recomputations into register copies; blocks that start a scope are
/// seeded from the round's converged available-loads `entry` facts.
/// Returns `(rewritten, deleted)`.
fn cse_local(
    f: &mut AsmFunction,
    fm: &FuncMeta,
    cfg: &Cfg,
    words: &FrameWords,
    entry: &[Option<Facts>],
) -> (usize, usize) {
    // Whether a block consumes flags before writing them — backend
    // output never does (flags producers and consumers are adjacent),
    // but compute it so end-of-block flags deadness stays sound.
    let entry_reads_flags: Vec<bool> = f
        .blocks
        .iter()
        .map(|b| {
            for ai in &b.insts {
                if ai.inst.reads_flags() {
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
    let inherits = |bi: usize| match cfg.preds[bi].as_slice() {
        [p] if *p < bi => Some(*p),
        _ => None,
    };
    // How many blocks still inherit each block's exit state: the last
    // one takes it instead of cloning it.
    let mut heirs = vec![0usize; f.blocks.len()];
    for p in (0..f.blocks.len()).filter_map(inherits) {
        heirs[p] += 1;
    }
    let mut exit: Vec<Option<Lvn>> = vec![None; f.blocks.len()];
    let mut flags_dead = Vec::new();
    for bi in 0..f.blocks.len() {
        // flags_dead[i]: no instruction after i consumes the flags
        // that are live right after i.
        let insts = &f.blocks[bi].insts;
        flags_dead.clear();
        flags_dead.resize(insts.len(), false);
        let mut dead = !cfg.succs[bi].iter().any(|&sb| entry_reads_flags[sb]);
        for (i, ai) in insts.iter().enumerate().rev() {
            flags_dead[i] = dead;
            if ai.inst.writes_flags() {
                dead = true;
            } else if ai.inst.reads_flags() {
                dead = false;
            }
        }
        let inherited = inherits(bi).and_then(|p| {
            heirs[p] -= 1;
            if heirs[p] == 0 {
                exit[p].take()
            } else {
                exit[p].clone()
            }
        });
        let mut lvn = inherited.unwrap_or_else(|| {
            let mut fresh = Lvn::default();
            if let Some(facts) = &entry[bi] {
                fresh.seed_from_facts(facts, words);
            }
            fresh
        });
        let mut i = 0;
        f.blocks[bi].insts.retain_mut(|ai| {
            let action = cse_step(&mut lvn, &ai.inst, fm, flags_dead[i]);
            i += 1;
            match action {
                Action::Keep => true,
                Action::Delete => {
                    deleted += 1;
                    false
                }
                Action::Replace(inst) => {
                    ai.inst = inst;
                    rewritten += 1;
                    true
                }
            }
        });
        if heirs[bi] > 0 {
            exit[bi] = Some(lvn);
        }
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

fn fuse_compare_branches(f: &mut AsmFunction, cfg: &Cfg) -> (usize, usize) {
    let lv = Liveness::compute(f, cfg);
    let plans: Vec<FusionPlan> = (0..f.blocks.len())
        .filter_map(|bi| find_fusion(f, bi, &lv))
        .collect();
    let fused = plans.len();
    let mut deleted = 0;
    for plan in plans {
        let block = &mut f.blocks[plan.block];
        if let Inst::Jcc { cc, .. } = &mut block.insts[plan.jcc_pos].inst {
            *cc = plan.cc;
        }
        let mut marked = vec![false; block.insts.len()];
        for &q in &plan.delete {
            marked[q] = true;
        }
        deleted += retain_unmarked(&mut block.insts, &marked);
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
fn find_fusion(f: &AsmFunction, bi: usize, lv: &Liveness) -> Option<FusionPlan> {
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
    let live = lv.live_after_each(f, bi)[j];
    if chain_regs.iter().any(|&g| live & reg_bytes(g) != 0) {
        return None;
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
    /// Reads of up to two slots (one per memory operand; usually none).
    Reads([Option<i64>; 2]),
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
    let slot = |op: &Operand| op.as_mem().and_then(direct_slot);
    let reads = match inst {
        Inst::Mov { src, dst, .. }
        | Inst::Alu { src, dst, .. }
        | Inst::Cmp { src, dst, .. }
        | Inst::Test { src, dst, .. } => [slot(src), slot(dst)],
        Inst::Movsx { src, .. }
        | Inst::Movzx { src, .. }
        | Inst::Imul { src, .. }
        | Inst::Idiv { src, .. }
        | Inst::Push { src, .. } => [slot(src), None],
        Inst::Lea { mem, .. } => [direct_slot(mem), None],
        Inst::Shift { dst, .. }
        | Inst::Unary { dst, .. }
        | Inst::Setcc { dst, .. }
        | Inst::Pop { dst } => [slot(dst), None],
        // SIMD loads/stores and control flow: SIMD memory operands
        // address batch buffers through registers, never direct slots;
        // if one ever did, the operand patterns above would need
        // extending.
        _ => [None, None],
    };
    SlotAccess::Reads(reads)
}

/// Bitsets over a function's tracked slots, one row of `stride` `u64`s
/// per block.
struct SlotSets {
    stride: usize,
    bits: Vec<u64>,
}

impl SlotSets {
    fn new(stride: usize, rows: usize) -> SlotSets {
        SlotSets {
            stride,
            bits: vec![0; stride * rows],
        }
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.stride..(i + 1) * self.stride]
    }

    fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.bits[i * self.stride..(i + 1) * self.stride]
    }
}

fn eliminate_dead_stores(f: &mut AsmFunction, fm: &FuncMeta, cfg: &Cfg) -> usize {
    let n = f.blocks.len();
    // Tracked slots by bit, in ascending offset order.
    let tracked: Vec<i64> = fm.tracked.iter().copied().collect();
    let slot_bit = |off: i64| tracked.binary_search(&off).ok();
    let stride = tracked.len().div_ceil(64);
    // Per block: tracked slots read before any overwrite (`gen`) and
    // slots overwritten (`kill`), so live-in = gen ∪ (live-out − kill).
    let mut gen = SlotSets::new(stride, n);
    let mut kill = SlotSets::new(stride, n);
    for (bi, block) in f.blocks.iter().enumerate() {
        for ai in block.insts.iter().rev() {
            match slot_access(&ai.inst) {
                SlotAccess::PureWrite(off) => {
                    if let Some(bit) = slot_bit(off) {
                        set_bit(gen.row_mut(bi), bit, false);
                        set_bit(kill.row_mut(bi), bit, true);
                    }
                }
                SlotAccess::Reads(rs) => {
                    for bit in rs.into_iter().flatten().filter_map(slot_bit) {
                        set_bit(gen.row_mut(bi), bit, true);
                    }
                }
            }
        }
    }
    // Backward fixpoint over live tracked slots.
    let mut live_in = SlotSets::new(stride, n);
    let mut live = vec![0u64; stride];
    let live_out = |live: &mut Vec<u64>, live_in: &SlotSets, bi: usize| {
        live.fill(0);
        for &s in &cfg.succs[bi] {
            for (w, &x) in live.iter_mut().zip(live_in.row(s)) {
                *w |= x;
            }
        }
    };
    loop {
        let mut changed = false;
        for bi in (0..n).rev() {
            live_out(&mut live, &live_in, bi);
            for (k, w) in live.iter_mut().enumerate() {
                *w = gen.row(bi)[k] | (*w & !kill.row(bi)[k]);
            }
            if live_in.row(bi) != live.as_slice() {
                live_in.row_mut(bi).copy_from_slice(&live);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Delete dead stores with the converged facts.
    let mut removed = 0;
    let mut dead = Vec::new();
    for bi in 0..n {
        live_out(&mut live, &live_in, bi);
        let block = &mut f.blocks[bi];
        dead.clear();
        dead.resize(block.insts.len(), false);
        for (i, ai) in block.insts.iter().enumerate().rev() {
            match slot_access(&ai.inst) {
                SlotAccess::PureWrite(off) => {
                    if let Some(bit) = slot_bit(off) {
                        if bit_is_set(&live, bit) {
                            set_bit(&mut live, bit, false);
                        } else {
                            dead[i] = true;
                        }
                    }
                }
                SlotAccess::Reads(rs) => {
                    for bit in rs.into_iter().flatten().filter_map(slot_bit) {
                        set_bit(&mut live, bit, true);
                    }
                }
            }
        }
        removed += retain_unmarked(&mut block.insts, &dead);
    }
    removed
}

/// Deletes the elements whose `marked` entry is set and returns how
/// many went.
fn retain_unmarked<T>(items: &mut Vec<T>, marked: &[bool]) -> usize {
    let before = items.len();
    let mut i = 0;
    items.retain(|_| {
        i += 1;
        !marked[i - 1]
    });
    before - items.len()
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

/// Deletes dead register writes until none is left.  Deleting a dead
/// write never makes a byte live anywhere (the bytes it kills are dead
/// after it, and its reads go), so every order of deletion ends in the
/// same program; each block is therefore swept transitively in one
/// backward walk, and only deletions that free writes in other blocks
/// cost another liveness computation.
fn sweep_dead_code(f: &mut AsmFunction, cfg: &Cfg) -> usize {
    let mut removed = 0;
    let mut dead = Vec::new();
    loop {
        let lv = Liveness::compute(f, cfg);
        let mut any = false;
        for (bi, block) in f.blocks.iter_mut().enumerate() {
            dead.clear();
            dead.resize(block.insts.len(), false);
            let mut live = lv.live_out[bi];
            for (i, ai) in block.insts.iter().enumerate().rev() {
                dead[i] = dce_candidate(&ai.inst).is_some_and(|kill| live & kill == 0);
                if !dead[i] {
                    live = inst_reads(&ai.inst) | (live & !inst_kills(&ai.inst));
                }
            }
            let swept = retain_unmarked(&mut block.insts, &dead);
            any |= swept > 0;
            removed += swept;
        }
        if !any {
            return removed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_asm::program::{AsmBlock, AsmInst};

    fn slot(off: i64) -> MemRef {
        MemRef::base_disp(Gpr::Rbp, off)
    }

    fn load(m: MemRef, r: Gpr) -> Inst {
        Inst::Mov {
            w: Width::W64,
            src: Operand::Mem(m),
            dst: Operand::Reg(Reg::q(r)),
        }
    }

    fn store(r: Gpr, m: MemRef) -> Inst {
        Inst::Mov {
            w: Width::W64,
            src: Operand::Reg(Reg::q(r)),
            dst: Operand::Mem(m),
        }
    }

    fn copy(src: Gpr, dst: Gpr) -> Inst {
        Inst::Mov {
            w: Width::W64,
            src: Operand::Reg(Reg::q(src)),
            dst: Operand::Reg(Reg::q(dst)),
        }
    }

    fn lea(off: i64, dst: Gpr) -> Inst {
        Inst::Lea {
            mem: slot(off),
            dst: Reg::q(dst),
        }
    }

    fn func(blocks: Vec<(&str, Vec<Inst>)>) -> AsmFunction {
        let mut f = AsmFunction::new("main");
        for (label, insts) in blocks {
            let mut b = AsmBlock::new(label);
            b.insts.extend(insts.into_iter().map(AsmInst::synthetic));
            f.blocks.push(b);
        }
        f
    }

    /// Slot `-8` is a tracked result slot; `-32` and `-24` are the two
    /// words of an alloca.
    fn meta() -> FuncMeta {
        FuncMeta {
            tracked: BTreeSet::from([-8, -16]),
            alloca_words: BTreeSet::from([-32, -24]),
        }
    }

    /// One forwarding pass over `f`, returning `(forwarded, removed)`.
    fn forward(f: &mut AsmFunction) -> (usize, usize) {
        let cfg = Cfg::build(f);
        let words = FrameWords::of(f, &meta());
        let entry = converged_entry_facts(f, &cfg, &words);
        forward_available_loads(f, &words, &entry)
    }

    fn insts(f: &AsmFunction, block: usize) -> Vec<Inst> {
        f.blocks[block]
            .insts
            .iter()
            .map(|ai| ai.inst.clone())
            .collect()
    }

    #[test]
    fn indirect_load_through_a_leaed_alloca_pointer_is_forwarded() {
        // %rcx = &alloca, so 8(%rcx) is the word at -24.
        let mut f = func(vec![(
            "entry",
            vec![
                lea(-32, Gpr::Rcx),
                load(slot(-24), Gpr::Rax),
                load(MemRef::base_disp(Gpr::Rcx, 8), Gpr::Rdx),
                Inst::Ret,
            ],
        )]);
        assert_eq!(forward(&mut f), (1, 0));
        assert_eq!(insts(&f, 0)[2], copy(Gpr::Rax, Gpr::Rdx));
    }

    #[test]
    fn unresolvable_store_kills_alloca_words_but_keeps_tracked_slots() {
        let mut f = func(vec![(
            "entry",
            vec![
                load(slot(-8), Gpr::Rax),
                load(slot(-32), Gpr::Rbx),
                // %rsi holds no address: this may write any alloca word.
                store(Gpr::Rdi, MemRef::base_disp(Gpr::Rsi, 0)),
                load(slot(-8), Gpr::Rdx),
                load(slot(-32), Gpr::R8),
                Inst::Ret,
            ],
        )]);
        assert_eq!(forward(&mut f), (1, 0));
        let out = insts(&f, 0);
        assert_eq!(out[3], copy(Gpr::Rax, Gpr::Rdx));
        assert_eq!(out[4], load(slot(-32), Gpr::R8));
    }

    #[test]
    fn call_clears_every_fact() {
        let body = |call: bool| {
            let mut insts = vec![lea(-32, Gpr::Rbx), load(slot(-8), Gpr::R12)];
            if call {
                insts.push(Inst::Call {
                    target: "helper".into(),
                });
            }
            insts.extend([
                load(slot(-8), Gpr::R12),
                load(MemRef::base_disp(Gpr::Rbx, 0), Gpr::R13),
                load(slot(-32), Gpr::R14),
                Inst::Ret,
            ]);
            func(vec![("entry", insts)])
        };
        // Without the call the reload goes and the alloca word, read
        // through the `lea`'d pointer, is forwarded.
        let mut plain = body(false);
        assert_eq!(forward(&mut plain), (1, 1));
        // After it, neither the value nor the address survives.
        let mut called = body(true);
        assert_eq!(forward(&mut called), (0, 0));
        assert_eq!(called, body(true));
    }

    #[test]
    fn back_edge_that_clobbers_the_holder_drops_the_fact_at_the_header() {
        let looped = |clobber: bool| {
            let mut body = vec![load(slot(-8), Gpr::Rcx)];
            if clobber {
                body.push(Inst::Mov {
                    w: Width::W64,
                    src: Operand::Imm(1),
                    dst: Operand::Reg(Reg::q(Gpr::Rax)),
                });
            }
            body.extend([
                Inst::Test {
                    w: Width::W64,
                    src: Operand::Reg(Reg::q(Gpr::Rcx)),
                    dst: Operand::Reg(Reg::q(Gpr::Rcx)),
                },
                Inst::Jcc {
                    cc: Cc::Ne,
                    target: "loop".into(),
                },
            ]);
            func(vec![
                ("entry", vec![load(slot(-8), Gpr::Rax)]),
                ("loop", body),
                ("exit", vec![Inst::Ret]),
            ])
        };
        let mut kept = looped(false);
        assert_eq!(forward(&mut kept), (1, 0));
        assert_eq!(insts(&kept, 1)[0], copy(Gpr::Rax, Gpr::Rcx));
        let mut clobbered = looped(true);
        assert_eq!(forward(&mut clobbered), (0, 0));
        assert_eq!(insts(&clobbered, 1)[0], load(slot(-8), Gpr::Rcx));
    }

    #[test]
    fn the_lowest_index_holder_is_chosen() {
        // %rdi and then %rcx hold slot -8; %rcx has the lower index.
        let mut f = func(vec![(
            "entry",
            vec![
                load(slot(-8), Gpr::Rdi),
                copy(Gpr::Rdi, Gpr::Rcx),
                load(slot(-8), Gpr::Rax),
                Inst::Ret,
            ],
        )]);
        assert_eq!(forward(&mut f), (1, 0));
        assert_eq!(insts(&f, 0)[2], copy(Gpr::Rcx, Gpr::Rax));
    }
}
