//! Linear-scan register allocation over MIR liveness intervals.
//!
//! At `-O1` the backend promotes MIR values out of their `%rbp` frame
//! slots into a small pool of general-purpose registers.  The pool is
//! deliberately restricted to registers the `-O0` backend already
//! touches (`%rsi`, `%rdi`, `%r8`, `%r9` — the tail of the argument
//! set): `%rbx` and `%r10`–`%r15` and every SIMD register stay spare,
//! so FERRUM's spare-register scanner and the hybrid baseline's
//! `%r10`/`%r11` scratch pair find exactly the slack they found at
//! `-O0`, and any [`ProtectionManifest`] reserved register is
//! untouchable by construction.
//!
//! The scan is conservative where the lowering is simple:
//!
//! * intervals are single `[start, end]` spans over the block layout
//!   order (holes are not reused);
//! * any interval overlapping a call position — including one whose
//!   last use *is* the call's argument staging — is left in memory,
//!   because calls clobber the caller-saved pool and argument staging
//!   itself cycles through `%rdi`/`%rsi`/`%r8`/`%r9`;
//! * allocas (frame addresses) and incoming arguments keep their
//!   slots.
//!
//! Values that do not receive a register keep their `-O0` frame-slot
//! home, so allocation failure is never a compile failure.
//!
//! [`ProtectionManifest`]: ferrum_asm::analysis::lint::ProtectionManifest

use std::collections::HashMap;

use ferrum_asm::reg::Gpr;
use ferrum_mir::func::Function;
use ferrum_mir::inst::{InstId, MirInst};
use ferrum_mir::liveness::MirLiveness;
use ferrum_mir::value::Value;

/// The allocatable pool, in assignment preference order.  Must stay
/// disjoint from the `-O0` scratch set (`%rax`, `%rcx`, `%rdx`) and
/// from the spare set FERRUM requisitions (`%rbx`, `%r10`–`%r15`).
pub const POOL: [Gpr; 4] = [Gpr::Rsi, Gpr::Rdi, Gpr::R8, Gpr::R9];

/// Result of allocation for one function.
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    regs: HashMap<u32, Gpr>,
    /// Intervals that were eligible for a register.
    pub candidates: usize,
    /// Intervals that received one.
    pub allocated: usize,
}

impl Allocation {
    /// The register assigned to `id`, if any.
    pub fn reg(&self, id: InstId) -> Option<Gpr> {
        self.regs.get(&id.0).copied()
    }

    /// Iterates over all assignments.
    pub fn assignments(&self) -> impl Iterator<Item = (InstId, Gpr)> + '_ {
        self.regs.iter().map(|(&id, &g)| (InstId(id), g))
    }
}

#[derive(Debug, Clone, Copy)]
struct Interval {
    id: u32,
    start: usize,
    end: usize,
}

/// Runs linear scan over `f` and returns the register assignment.
pub fn allocate(f: &Function) -> Allocation {
    let lv = MirLiveness::compute(f);

    // Linearise: each MIR instruction gets one position in block layout
    // order; block boundaries get positions too so liveness extension
    // covers whole blocks.
    let mut pos = 0usize;
    let mut block_span = Vec::with_capacity(f.blocks.len());
    let mut inst_pos: Vec<(usize, &MirInst)> = Vec::new();
    for b in &f.blocks {
        let start = pos;
        for inst in &b.insts {
            inst_pos.push((pos, inst));
            pos += 1;
        }
        // Empty blocks still occupy a position.
        let end = pos.max(start + 1) - 1;
        block_span.push((start, end));
        pos = end + 1;
    }

    // Build conservative [min, max] intervals.
    let mut ranges: HashMap<u32, (usize, usize)> = HashMap::new();
    let touch = |id: u32, p: usize, ranges: &mut HashMap<u32, (usize, usize)>| {
        let e = ranges.entry(id).or_insert((p, p));
        e.0 = e.0.min(p);
        e.1 = e.1.max(p);
    };
    let mut eligible: HashMap<u32, bool> = HashMap::new();
    for (bi, &(bstart, bend)) in block_span.iter().enumerate() {
        for &id in lv.live_in(bi) {
            touch(id, bstart, &mut ranges);
        }
        for &id in lv.live_out(bi) {
            touch(id, bend, &mut ranges);
        }
    }
    let mut call_positions: Vec<usize> = Vec::new();
    for &(p, inst) in &inst_pos {
        if let Some(id) = inst.result() {
            touch(id.0, p, &mut ranges);
            let ok = !matches!(inst, MirInst::Alloca { .. });
            eligible.insert(id.0, ok);
        }
        for v in inst.operands() {
            if let Value::Inst(id) = v {
                touch(id.0, p, &mut ranges);
            }
        }
        if matches!(inst, MirInst::Call { .. }) {
            call_positions.push(p);
        }
    }

    let mut intervals: Vec<Interval> = ranges
        .iter()
        .filter(|(id, _)| eligible.get(*id).copied().unwrap_or(false))
        .map(|(&id, &(start, end))| Interval { id, start, end })
        // A value live into a call position (used at or across it) must
        // stay in its slot; a value *defined by* the call (start == p)
        // is safe — the definition lands after the callee returns.
        .filter(|iv| !call_positions.iter().any(|&p| iv.start < p && p <= iv.end))
        .collect();
    intervals.sort_by_key(|iv| (iv.start, iv.id));

    let mut alloc = Allocation {
        candidates: intervals.len(),
        ..Allocation::default()
    };
    // active: (end, reg)
    let mut active: Vec<(usize, Gpr)> = Vec::new();
    let mut free: Vec<Gpr> = POOL.iter().rev().copied().collect();
    for iv in intervals {
        // Expire intervals that ended strictly before this start: their
        // last read happens before the new value's defining write.
        active.retain(|&(end, reg)| {
            if end < iv.start {
                free.push(reg);
                false
            } else {
                true
            }
        });
        if let Some(reg) = free.pop() {
            active.push((iv.end, reg));
            alloc.regs.insert(iv.id, reg);
            alloc.allocated += 1;
        }
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_mir::builder::FunctionBuilder;
    use ferrum_mir::types::Ty;

    #[test]
    fn straight_line_values_get_registers_from_the_pool() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let x = b.iconst(Ty::I64, 3);
        let y = b.iconst(Ty::I64, 4);
        let s = b.add(Ty::I64, x, y);
        let t = b.mul(Ty::I64, s, s);
        b.print(t);
        b.ret(None);
        let f = b.finish();
        let a = allocate(&f);
        assert!(a.allocated > 0);
        for (_, g) in a.assignments() {
            assert!(POOL.contains(&g), "{g} outside pool");
        }
        // `t` is consumed by the print call's argument staging: it must
        // stay in memory.
        assert_eq!(a.reg(t.as_inst().unwrap()), None);
        // `s` dies before the call position.
        assert!(a.reg(s.as_inst().unwrap()).is_some());
    }

    #[test]
    fn values_live_across_calls_stay_in_slots() {
        let mut callee = FunctionBuilder::new("g", &[], Some(Ty::I64));
        let one = callee.iconst(Ty::I64, 1);
        callee.ret(Some(one));
        let mut b = FunctionBuilder::new("f", &[], None);
        let three = b.iconst(Ty::I64, 3);
        let four = b.iconst(Ty::I64, 4);
        let x = b.add(Ty::I64, three, four);
        let r = b.call("g", vec![], Some(Ty::I64)).unwrap();
        let s = b.add(Ty::I64, x, r);
        let t = b.add(Ty::I64, s, s);
        b.print(t);
        b.ret(None);
        let f = b.finish();
        let a = allocate(&f);
        // `x` crosses the call; `r` is defined by it (allocatable); `s`
        // lives between the call and the print staging.
        assert_eq!(a.reg(x.as_inst().unwrap()), None);
        assert!(a.reg(s.as_inst().unwrap()).is_some());
    }

    #[test]
    fn allocas_are_never_allocated() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let p = b.alloca(Ty::I64);
        let c = b.iconst(Ty::I64, 9);
        b.store(Ty::I64, c, p);
        let v = b.load(Ty::I64, p);
        let w = b.add(Ty::I64, v, v);
        b.store(Ty::I64, w, p);
        b.ret(None);
        let f = b.finish();
        let a = allocate(&f);
        assert_eq!(a.reg(p.as_inst().unwrap()), None);
        assert!(a.reg(v.as_inst().unwrap()).is_some());
    }

    #[test]
    fn overlapping_intervals_get_distinct_registers() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let zero = b.iconst(Ty::I64, 0);
        let mut vals = Vec::new();
        for i in 0..4 {
            let c = b.iconst(Ty::I64, i);
            vals.push(b.add(Ty::I64, c, zero));
        }
        // All four sums stay live until the final reductions.
        let s01 = b.add(Ty::I64, vals[0], vals[1]);
        let s23 = b.add(Ty::I64, vals[2], vals[3]);
        let s = b.add(Ty::I64, s01, s23);
        b.print(s);
        b.ret(None);
        let f = b.finish();
        let a = allocate(&f);
        let regs: Vec<Option<Gpr>> = vals.iter().map(|v| a.reg(v.as_inst().unwrap())).collect();
        let assigned: Vec<Gpr> = regs.iter().flatten().copied().collect();
        let mut dedup = assigned.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(assigned.len(), dedup.len(), "register reused while live");
        assert!(a.allocated >= 4, "pool of 4 covers the overlapping sums");
    }

    #[test]
    fn pool_exhaustion_degrades_to_memory_not_panic() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let zero = b.iconst(Ty::I64, 0);
        let mut vals = Vec::new();
        for i in 0..8 {
            let c = b.iconst(Ty::I64, i);
            vals.push(b.add(Ty::I64, c, zero));
        }
        let mut acc = b.add(Ty::I64, vals[0], vals[1]);
        for v in &vals[2..] {
            acc = b.add(Ty::I64, acc, *v);
        }
        b.print(acc);
        b.ret(None);
        let f = b.finish();
        let a = allocate(&f);
        assert!(a.allocated <= a.candidates);
        assert!(a.candidates >= 8);
        // With only four pool registers, at least one of the eight
        // simultaneously-live constants must stay in memory.
        assert!(a.allocated < a.candidates);
    }
}
