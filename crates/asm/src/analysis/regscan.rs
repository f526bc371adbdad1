//! Register-usage scanning: FERRUM's spare-register discovery (§III-B1).
//!
//! The scanner walks every instruction of a function and records which
//! general-purpose and SIMD registers it touches.  FERRUM requires two
//! spare GPRs (one for GENERAL-INSTRUCTION duplication, two for
//! comparison protection) and four spare XMM registers (two original +
//! two duplicate accumulators that are widened into two YMM registers).

use crate::analysis::liveness::gprs_in;
use crate::program::AsmFunction;
use crate::reg::{Gpr, ALL_GPRS};

/// Bitset of general-purpose registers (16 bits) and SIMD registers
/// (16 bits), accumulated per function or per block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegUsage {
    gpr_bits: u16,
    simd_bits: u16,
}

impl RegUsage {
    /// Empty usage.
    pub fn new() -> RegUsage {
        RegUsage::default()
    }

    /// Records a general-purpose register as used.
    pub fn touch_gpr(&mut self, g: Gpr) {
        self.gpr_bits |= 1 << g.index();
    }

    /// Records an XMM/YMM register (by index) as used.
    pub fn touch_simd(&mut self, idx: u8) {
        self.simd_bits |= 1 << idx;
    }

    /// True if the GPR is used.
    pub fn uses_gpr(&self, g: Gpr) -> bool {
        self.gpr_bits & (1 << g.index()) != 0
    }

    /// True if the SIMD register (by index) is used.
    pub fn uses_simd(&self, idx: u8) -> bool {
        self.simd_bits & (1 << idx) != 0
    }

    /// Union with another usage set.
    pub fn merge(&mut self, other: RegUsage) {
        self.gpr_bits |= other.gpr_bits;
        self.simd_bits |= other.simd_bits;
    }

    /// Scans a single instruction: every register its
    /// [`Inst::effects`](crate::inst::Inst::effects) read or write.
    pub fn scan_inst(&mut self, inst: &crate::inst::Inst) {
        let e = inst.effects();
        for g in gprs_in(e.gpr_read | e.gpr_write) {
            self.touch_gpr(g);
        }
        for (r, bytes) in e.simd_read.into_iter().chain([e.simd_write]) {
            if bytes != 0 {
                self.touch_simd(r);
            }
        }
    }

    /// GPRs *not* used, excluding `%rsp`/`%rbp` (reserved for the frame).
    pub fn spare_gprs(&self) -> Vec<Gpr> {
        ALL_GPRS
            .into_iter()
            .filter(|g| !g.is_frame() && !self.uses_gpr(*g))
            .collect()
    }

    /// SIMD register indices not used.
    pub fn spare_simd(&self) -> Vec<u8> {
        (0u8..16).filter(|&i| !self.uses_simd(i)).collect()
    }
}

/// Result of scanning a function: whole-function usage plus per-block
/// usage (the per-block sets drive stack-level requisition, Fig. 7).
#[derive(Debug, Clone)]
pub struct SpareReport {
    /// Usage across the whole function.
    pub function: RegUsage,
    /// Usage per block, indexed like [`AsmFunction::blocks`].
    pub per_block: Vec<RegUsage>,
}

impl SpareReport {
    /// Scans `f`.
    pub fn scan(f: &AsmFunction) -> SpareReport {
        let mut function = RegUsage::new();
        let mut per_block = Vec::with_capacity(f.blocks.len());
        for b in &f.blocks {
            let mut u = RegUsage::new();
            for ai in &b.insts {
                u.scan_inst(&ai.inst);
            }
            function.merge(u);
            per_block.push(u);
        }
        SpareReport {
            function,
            per_block,
        }
    }

    /// GPRs unused in the whole function (candidates for permanent
    /// protection registers).
    pub fn function_spare_gprs(&self) -> Vec<Gpr> {
        self.function.spare_gprs()
    }

    /// GPRs unused inside block `bi` (candidates for push/pop
    /// requisition, Fig. 7).
    pub fn block_spare_gprs(&self, bi: usize) -> Vec<Gpr> {
        self.per_block[bi].spare_gprs()
    }

    /// True if the function has at least `n_gpr` spare GPRs and
    /// `n_simd` spare SIMD registers — the thresholds of §III-B1.
    pub fn meets_thresholds(&self, n_gpr: usize, n_simd: usize) -> bool {
        self.function.spare_gprs().len() >= n_gpr && self.function.spare_simd().len() >= n_simd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Inst};
    use crate::operand::{MemRef, Operand};
    use crate::program::{AsmBlock, AsmFunction};
    use crate::provenance::Provenance;
    use crate::reg::{Reg, Width, Xmm};

    fn func_with(insts: Vec<Inst>) -> AsmFunction {
        let mut f = AsmFunction::new("main");
        let mut b = AsmBlock::new("entry");
        for i in insts {
            b.push(i, Provenance::Synthetic);
        }
        f.blocks.push(b);
        f
    }

    #[test]
    fn scan_records_reads_writes_and_addresses() {
        let f = func_with(vec![Inst::Mov {
            w: Width::W64,
            src: Operand::Mem(MemRef::base_disp(Gpr::Rbp, -8)),
            dst: Operand::Reg(Reg::q(Gpr::Rax)),
        }]);
        let rep = SpareReport::scan(&f);
        assert!(rep.function.uses_gpr(Gpr::Rax));
        assert!(rep.function.uses_gpr(Gpr::Rbp));
        assert!(!rep.function.uses_gpr(Gpr::R10));
    }

    #[test]
    fn spare_gprs_exclude_frame_registers() {
        let f = func_with(vec![Inst::Nop]);
        let spare = SpareReport::scan(&f).function_spare_gprs();
        assert!(!spare.contains(&Gpr::Rsp));
        assert!(!spare.contains(&Gpr::Rbp));
        assert_eq!(spare.len(), 14); // everything else unused
    }

    #[test]
    fn simd_usage_tracked() {
        let f = func_with(vec![Inst::MovqToXmm {
            src: Operand::Reg(Reg::q(Gpr::Rax)),
            dst: Xmm::new(3),
        }]);
        let rep = SpareReport::scan(&f);
        assert!(rep.function.uses_simd(3));
        assert!(!rep.function.uses_simd(0));
        assert_eq!(rep.function.spare_simd().len(), 15);
    }

    #[test]
    fn per_block_usage_differs_from_function_usage() {
        let mut f = AsmFunction::new("main");
        let mut b0 = AsmBlock::new("b0");
        b0.push(
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                src: Operand::Reg(Reg::q(Gpr::R10)),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            },
            Provenance::Synthetic,
        );
        let mut b1 = AsmBlock::new("b1");
        b1.push(Inst::Ret, Provenance::Synthetic);
        f.blocks.push(b0);
        f.blocks.push(b1);
        let rep = SpareReport::scan(&f);
        assert!(!rep.block_spare_gprs(0).contains(&Gpr::R10));
        assert!(rep.block_spare_gprs(1).contains(&Gpr::R10));
        assert!(!rep.function_spare_gprs().contains(&Gpr::R10));
    }

    #[test]
    fn block_reading_and_requisitioning_same_gpr_is_not_spare() {
        // A block that both reads %rbx (original code) and requisitions
        // it (push/pop instrumentation) must not report it spare: a
        // second requisition pass would otherwise grab a register whose
        // save slot is already in use.
        let mut f = AsmFunction::new("main");
        let mut b = AsmBlock::new("entry");
        b.push(
            Inst::Push {
                src: Operand::Reg(Reg::q(Gpr::Rbx)),
            },
            Provenance::Synthetic,
        );
        b.push(
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                src: Operand::Reg(Reg::q(Gpr::Rbx)),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            },
            Provenance::Synthetic,
        );
        b.push(
            Inst::Pop {
                dst: Operand::Reg(Reg::q(Gpr::Rbx)),
            },
            Provenance::Synthetic,
        );
        b.push(Inst::Ret, Provenance::Synthetic);
        f.blocks.push(b);
        let rep = SpareReport::scan(&f);
        assert!(!rep.block_spare_gprs(0).contains(&Gpr::Rbx));
        assert!(!rep.function_spare_gprs().contains(&Gpr::Rbx));
        // An uninvolved register is still spare in the same block.
        assert!(rep.block_spare_gprs(0).contains(&Gpr::R12));
    }

    #[test]
    fn call_to_print_intrinsic_claims_rdi() {
        // Regression: `call print_i64` architecturally reads its
        // argument from %rdi, so a block containing only that call must
        // not report %rdi spare (a requisition pass that grabbed it
        // would corrupt the printed value).
        let f = func_with(vec![
            Inst::Call {
                target: crate::PRINT_I64.into(),
            },
            Inst::Ret,
        ]);
        let rep = SpareReport::scan(&f);
        assert!(rep.function.uses_gpr(Gpr::Rdi));
        assert!(!rep.function_spare_gprs().contains(&Gpr::Rdi));
        assert!(!rep.block_spare_gprs(0).contains(&Gpr::Rdi));
        // A call to an ordinary function leaves %rdi spare.
        let g = func_with(vec![
            Inst::Call {
                target: "helper".into(),
            },
            Inst::Ret,
        ]);
        assert!(SpareReport::scan(&g)
            .function_spare_gprs()
            .contains(&Gpr::Rdi));
    }

    #[test]
    fn scan_matches_effects_union() {
        // Audit: the function-level rollup must equal the union of the
        // registers each instruction's effects read or write.
        let insts = vec![
            Inst::Mov {
                w: Width::W64,
                src: Operand::Mem(MemRef::base_disp(Gpr::Rbp, -8)),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            },
            Inst::Call {
                target: crate::PRINT_I64.into(),
            },
            Inst::MovqToXmm {
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: Xmm::new(3),
            },
            Inst::Pinsrq {
                lane: 1,
                src: Operand::Reg(Reg::q(Gpr::R9)),
                dst: Xmm::new(5),
            },
            Inst::Vinserti128 {
                lane: 1,
                src: Xmm::new(6),
                src2: crate::reg::Ymm::new(7),
                dst: crate::reg::Ymm::new(8),
            },
            Inst::Ret,
        ];
        let f = func_with(insts.clone());
        let rep = SpareReport::scan(&f);
        let mut gpr_bytes = 0;
        let mut simd = Vec::new();
        for e in insts.iter().map(Inst::effects) {
            gpr_bytes |= e.gpr_read | e.gpr_write;
            let [(r0, m0), (r1, m1)] = e.simd_read;
            let (r2, m2) = e.simd_write;
            simd.extend(
                [(r0, m0), (r1, m1), (r2, m2)]
                    .into_iter()
                    .filter(|&(_, m)| m != 0)
                    .map(|(r, _)| r),
            );
        }
        for g in crate::reg::ALL_GPRS {
            let touched = gpr_bytes & crate::analysis::liveness::reg_bytes(g) != 0;
            assert_eq!(rep.function.uses_gpr(g), touched, "{g:?}");
        }
        for i in 0u8..16 {
            assert_eq!(rep.function.uses_simd(i), simd.contains(&i), "simd {i}");
        }
        assert_eq!(rep.function.spare_simd().len(), 11);
    }

    #[test]
    fn thresholds() {
        let f = func_with(vec![Inst::Nop]);
        let rep = SpareReport::scan(&f);
        assert!(rep.meets_thresholds(2, 4));
        assert!(rep.meets_thresholds(14, 16));
        assert!(!rep.meets_thresholds(15, 16));
    }

    #[test]
    fn merge_is_union() {
        let mut a = RegUsage::new();
        a.touch_gpr(Gpr::Rax);
        let mut b = RegUsage::new();
        b.touch_gpr(Gpr::Rbx);
        b.touch_simd(5);
        a.merge(b);
        assert!(a.uses_gpr(Gpr::Rax) && a.uses_gpr(Gpr::Rbx) && a.uses_simd(5));
    }
}
