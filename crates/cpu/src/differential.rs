//! Differential-execution primitives: compare two lock-stepped runs of
//! the same image architecturally — which registers, SIMD lanes, flags,
//! memory bytes, and output entries disagree — without ever scanning
//! the full address space.
//!
//! The forensics engine (`ferrum_faultsim::forensics`) steps a golden
//! and a faulted [`crate::snapshot::Machine`] from the injection
//! boundary and uses these helpers to locate the first architectural
//! divergence and to track the live corruption set over time.  Memory
//! divergence is maintained *incrementally*: as long as both runs sit
//! at the same pc, only the bytes an instruction is about to write can
//! change the divergence set, so [`store_ranges`] predicts those
//! targets (in both states — effective addresses may themselves have
//! diverged) and [`MemDivergence::update`] re-compares exactly them.

use std::collections::BTreeSet;
use std::fmt;

use ferrum_asm::inst::Inst;
use ferrum_asm::operand::Operand;
use ferrum_asm::reg::{Gpr, Width, Zmm, ALL_GPRS};

use crate::exec::State;
use crate::image::{Image, TargetRef};
use crate::mem::Memory;

/// One architectural location where two executions disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffLoc {
    /// A general-purpose register.
    Gpr(Gpr),
    /// One 64-bit lane of a SIMD register unit.
    SimdLane {
        /// Register unit index (0..16).
        reg: u8,
        /// Lane index (0..8).
        lane: u8,
    },
    /// The RFLAGS register.
    Flags,
    /// One memory byte.
    Mem {
        /// Absolute byte address.
        addr: u64,
    },
    /// A program-output entry.
    Output {
        /// Index into the output buffer.
        index: usize,
    },
}

impl fmt::Display for DiffLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffLoc::Gpr(g) => write!(f, "{g}"),
            DiffLoc::SimdLane { reg, lane } => write!(f, "%zmm{reg}[{lane}]"),
            DiffLoc::Flags => write!(f, "rflags"),
            DiffLoc::Mem { addr } => write!(f, "mem[{addr:#x}]"),
            DiffLoc::Output { index } => write!(f, "output[{index}]"),
        }
    }
}

/// The live register-file divergence between two states.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegDiff {
    /// GPRs holding different 64-bit values.
    pub gprs: Vec<Gpr>,
    /// `(register unit, lane)` pairs of differing 64-bit SIMD lanes.
    pub simd_lanes: Vec<(u8, u8)>,
    /// Whether RFLAGS differ.
    pub flags: bool,
}

impl RegDiff {
    /// No live register divergence at all.
    pub fn is_empty(&self) -> bool {
        self.gprs.is_empty() && self.simd_lanes.is_empty() && !self.flags
    }

    /// Number of divergent register-file locations (flags count as one).
    pub fn count(&self) -> usize {
        self.gprs.len() + self.simd_lanes.len() + usize::from(self.flags)
    }
}

/// Compares the complete register files of two states.
pub fn diff_regs(a: &State, b: &State) -> RegDiff {
    let mut d = RegDiff::default();
    for g in ALL_GPRS {
        if a.regs.read64(g) != b.regs.read64(g) {
            d.gprs.push(g);
        }
    }
    for reg in 0..16u8 {
        let x = a.regs.read_zmm(Zmm::new(reg));
        let y = b.regs.read_zmm(Zmm::new(reg));
        for lane in 0..8u8 {
            if x[lane as usize] != y[lane as usize] {
                d.simd_lanes.push((reg, lane));
            }
        }
    }
    d.flags = a.regs.flags != b.regs.flags;
    d
}

/// Byte ranges `(address, length)` the instruction at `st.pc` will
/// write to memory when stepped from `st`.  Over-approximates for
/// zero-amount shifts (which architecturally leave memory unchanged —
/// harmless here, since re-comparing equal bytes is a no-op).
pub fn store_ranges(image: &Image, st: &State) -> Vec<(u64, u64)> {
    let li = &image.insts[st.pc];
    let mut out = Vec::new();
    let mut mem_dst = |dst: &Operand, w: Width| {
        if let Operand::Mem(m) = dst {
            out.push((st.ea(m), w.bytes()));
        }
    };
    match &li.inst {
        Inst::Mov { w, dst, .. }
        | Inst::Alu { w, dst, .. }
        | Inst::Unary { w, dst, .. }
        | Inst::Shift { w, dst, .. } => mem_dst(dst, *w),
        Inst::Setcc { dst, .. } => mem_dst(dst, Width::W8),
        Inst::Push { .. } => out.push((st.regs.read64(Gpr::Rsp).wrapping_sub(8), 8)),
        Inst::Call { .. } => {
            // Only intra-image calls spill a return slot; `print_i64`
            // and `exit_function` are modelled without stack traffic.
            if let TargetRef::Index(_) = li.target {
                out.push((st.regs.read64(Gpr::Rsp).wrapping_sub(8), 8));
            }
        }
        _ => {}
    }
    out
}

/// Byte ranges `(address, length)` the instruction at `st.pc` will
/// read from memory when stepped from `st`.
pub fn load_ranges(image: &Image, st: &State) -> Vec<(u64, u64)> {
    let li = &image.insts[st.pc];
    let mut out = Vec::new();
    let mut mem_op = |op: &Operand, w: Width| {
        if let Operand::Mem(m) = op {
            out.push((st.ea(m), w.bytes()));
        }
    };
    match &li.inst {
        Inst::Mov { w, src, .. } | Inst::Idiv { w, src } | Inst::Imul { w, src, .. } => {
            mem_op(src, *w)
        }
        Inst::Movsx { src_w, src, .. } | Inst::Movzx { src_w, src, .. } => mem_op(src, *src_w),
        // Read-modify-write destinations.
        Inst::Alu { w, src, dst, .. } => {
            mem_op(src, *w);
            mem_op(dst, *w);
        }
        Inst::Unary { w, dst, .. } | Inst::Shift { w, dst, .. } => mem_op(dst, *w),
        Inst::Cmp { w, src, dst } | Inst::Test { w, src, dst } => {
            mem_op(src, *w);
            mem_op(dst, *w);
        }
        Inst::Push { src } => mem_op(src, Width::W64),
        Inst::Pop { .. } => out.push((st.regs.read64(Gpr::Rsp), 8)),
        Inst::Ret => out.push((st.regs.read64(Gpr::Rsp), 8)),
        Inst::MovqToXmm { src, .. } | Inst::Pinsrq { src, .. } => mem_op(src, Width::W64),
        _ => {}
    }
    out
}

/// Incrementally maintained set of memory byte addresses at which two
/// executions disagree.
///
/// Callers feed it the union of both runs' [`store_ranges`] right
/// after each lock step; bytes that re-converge are removed, so the
/// set always reflects the *live* memory divergence.
#[derive(Debug, Clone, Default)]
pub struct MemDivergence {
    bytes: BTreeSet<u64>,
}

impl MemDivergence {
    /// An empty divergence set (two identical memories).
    pub fn new() -> MemDivergence {
        MemDivergence::default()
    }

    /// Re-compares the given byte ranges between the two memories,
    /// inserting bytes that differ and clearing bytes that agree again.
    pub fn update(&mut self, a: &Memory, b: &Memory, ranges: &[(u64, u64)]) {
        for &(addr, len) in ranges {
            for i in 0..len {
                let p = addr.wrapping_add(i);
                // Out-of-bounds probes compare as equal-and-unmapped.
                let va = a.load(p, Width::W8).ok();
                let vb = b.load(p, Width::W8).ok();
                if va == vb {
                    self.bytes.remove(&p);
                } else {
                    self.bytes.insert(p);
                }
            }
        }
    }

    /// Number of currently divergent bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the two memories agree everywhere ever compared.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Whether the byte at `addr` currently diverges.
    pub fn contains(&self, addr: u64) -> bool {
        self.bytes.contains(&addr)
    }

    /// Whether any byte of the given ranges currently diverges.
    pub fn overlaps(&self, ranges: &[(u64, u64)]) -> bool {
        ranges.iter().any(|&(addr, len)| {
            self.bytes
                .range(addr..addr.wrapping_add(len))
                .next()
                .is_some()
        })
    }

    /// The divergent addresses in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.bytes.iter().copied()
    }
}

/// The first architectural difference between two states, in a fixed
/// priority order (GPRs by index, then SIMD lanes, flags, memory, and
/// output) so the location reported for a given divergence is
/// deterministic.
pub fn first_divergence(a: &State, b: &State, mem: &MemDivergence) -> Option<DiffLoc> {
    let rd = diff_regs(a, b);
    if let Some(&g) = rd.gprs.first() {
        return Some(DiffLoc::Gpr(g));
    }
    if let Some(&(reg, lane)) = rd.simd_lanes.first() {
        return Some(DiffLoc::SimdLane { reg, lane });
    }
    if rd.flags {
        return Some(DiffLoc::Flags);
    }
    if let Some(addr) = mem.iter().next() {
        return Some(DiffLoc::Mem { addr });
    }
    if a.output != b.output {
        let index = a
            .output
            .iter()
            .zip(&b.output)
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.output.len().min(b.output.len()));
        return Some(DiffLoc::Output { index });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;
    use crate::run::Cpu;
    use crate::snapshot::Machine;
    use ferrum_asm::inst::AluOp;
    use ferrum_asm::operand::MemRef;
    use ferrum_asm::program::single_block_main;
    use ferrum_asm::reg::Reg;

    fn store_cpu() -> Cpu {
        // rax = 7; push rax; mem[rsp] += 1; pop rbx
        let p = single_block_main(vec![
            Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(7),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            },
            Inst::Push {
                src: Operand::Reg(Reg::q(Gpr::Rax)),
            },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                src: Operand::Imm(1),
                dst: Operand::Mem(MemRef::base_disp(Gpr::Rsp, 0)),
            },
            Inst::Pop {
                dst: Operand::Reg(Reg::q(Gpr::Rbx)),
            },
        ]);
        Cpu::load(&p).unwrap()
    }

    #[test]
    fn identical_states_have_no_divergence() {
        let cpu = store_cpu();
        let a = Machine::new(&cpu);
        let b = Machine::new(&cpu);
        let mem = MemDivergence::new();
        assert!(diff_regs(a.state(), b.state()).is_empty());
        assert_eq!(first_divergence(a.state(), b.state(), &mem), None);
    }

    #[test]
    fn a_flipped_gpr_is_located() {
        let cpu = store_cpu();
        let golden = Machine::new(&cpu);
        let mut faulty = golden.clone();
        // Flip bit 3 of the first mov's destination (%rax).
        faulty.state_mut().regs.flip_gpr_bit(Reg::q(Gpr::Rax), 3);
        let d = diff_regs(golden.state(), faulty.state());
        assert_eq!(d.gprs, vec![Gpr::Rax]);
        assert_eq!(d.count(), 1);
        assert_eq!(
            first_divergence(golden.state(), faulty.state(), &MemDivergence::new()),
            Some(DiffLoc::Gpr(Gpr::Rax))
        );
    }

    #[test]
    fn store_and_load_ranges_cover_stack_traffic() {
        let cpu = store_cpu();
        let mut m = Machine::new(&cpu);
        m.step(); // mov
        let rsp = m.state().regs.read64(Gpr::Rsp);
        // push writes 8 bytes below rsp
        assert_eq!(store_ranges(cpu.image(), m.state()), vec![(rsp - 8, 8)]);
        m.step(); // push
                  // add $1, (%rsp): RMW — reads and writes the slot
        assert_eq!(store_ranges(cpu.image(), m.state()), vec![(rsp - 8, 8)]);
        assert!(load_ranges(cpu.image(), m.state()).contains(&(rsp - 8, 8)));
        m.step(); // add
                  // pop reads the slot back
        assert_eq!(load_ranges(cpu.image(), m.state()), vec![(rsp - 8, 8)]);
    }

    #[test]
    fn mem_divergence_tracks_corrupted_stores_and_reconvergence() {
        let cpu = store_cpu();
        let fault = FaultSpec::new(0, 3); // corrupt %rax after the mov
        let mut golden = Machine::new(&cpu);
        let mut faulty = Machine::new(&cpu);
        golden.step();
        faulty.step_faulted(&[fault]);
        let mut mem = MemDivergence::new();

        // The push stores the corrupted value: one range, 8 bytes, and
        // the divergence set picks up the differing byte.
        let mut ranges = store_ranges(cpu.image(), golden.state());
        ranges.extend(store_ranges(cpu.image(), faulty.state()));
        golden.step();
        faulty.step();
        mem.update(&golden.state().mem, &faulty.state().mem, &ranges);
        assert_eq!(mem.len(), 1, "bit 3 corrupts exactly one byte");
        let addr = mem.iter().next().unwrap();
        assert!(mem.contains(addr));
        assert!(mem.overlaps(&[(addr, 1)]));
        assert!(!mem.overlaps(&[(addr + 1, 4)]));

        // Writing the same value to both sides re-converges the byte.
        golden.state_mut().mem.store(addr, Width::W8, 0).unwrap();
        faulty.state_mut().mem.store(addr, Width::W8, 0).unwrap();
        mem.update(&golden.state().mem, &faulty.state().mem, &[(addr, 1)]);
        assert!(mem.is_empty());
    }

    #[test]
    fn output_divergence_is_last_resort() {
        let cpu = store_cpu();
        let mut a = Machine::new(&cpu);
        let b = Machine::new(&cpu);
        a.state_mut().output.push(9);
        assert_eq!(
            first_divergence(a.state(), b.state(), &MemDivergence::new()),
            Some(DiffLoc::Output { index: 0 })
        );
        assert_eq!(format!("{}", DiffLoc::Output { index: 0 }), "output[0]");
        assert_eq!(format!("{}", DiffLoc::Gpr(Gpr::Rax)), "%rax");
    }
}
