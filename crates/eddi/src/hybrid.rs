//! HYBRID-ASSEMBLY-LEVEL-EDDI — the paper's replicated plain
//! assembly-level EDDI baseline (§IV-A1, Table I row 2).
//!
//! Pipeline: the [`crate::signature::SignaturePass`] protects
//! comparisons and branches at IR level, the backend lowers the result,
//! and then *every* injectable GPR-destination assembly instruction is
//! immediately duplicated and checked with the scalar idiom of Fig. 4 —
//! including all the backend glue that IR-level EDDI cannot see.  No
//! SIMD, no deferred flag detection, no peephole: the brute-force
//! baseline whose overhead exceeds even IR-level EDDI (Fig. 11).

use ferrum_asm::inst::{DestClass, Inst};
use ferrum_asm::program::{AsmFunction, AsmProgram};
use ferrum_asm::provenance::TechniqueTag;
use ferrum_asm::reg::Gpr;
use ferrum_mir::module::Module;

use crate::annotate::flags_live_at;
use crate::scalar::protect_general;
use crate::signature::SignaturePass;
use crate::PassError;

/// The hybrid baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct HybridAsmEddi;

impl HybridAsmEddi {
    /// Creates the pass.
    pub fn new() -> HybridAsmEddi {
        HybridAsmEddi
    }

    /// Protects a MIR module end to end: signature prepass → backend →
    /// scalar assembly duplication.
    ///
    /// # Errors
    ///
    /// Propagates backend failures as [`PassError::Invalid`] and
    /// assembly-shape problems as [`PassError::Unsupported`].
    pub fn protect(&self, m: &Module) -> Result<AsmProgram, PassError> {
        self.protect_opt(m, ferrum_backend::OptLevel::O0)
            .map(|(p, _)| p)
    }

    /// [`HybridAsmEddi::protect`] compiling at the given optimization
    /// level; returns the backend's pass statistics alongside.  The
    /// scalar duplication runs on the *optimized* output, so — unlike
    /// pure IR-level EDDI — coverage does not decay with `-O1`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HybridAsmEddi::protect`].
    pub fn protect_opt(
        &self,
        m: &Module,
        opt: ferrum_backend::OptLevel,
    ) -> Result<(AsmProgram, ferrum_backend::PassStats), PassError> {
        let (sig, shadows) = SignaturePass::new().protect_tracked(m);
        let (mut asm, stats) = ferrum_backend::compile_with_stats(&sig, opt)
            .map_err(|e| PassError::Invalid(e.to_string()))?;
        crate::ir_eddi::retag_shadows(&mut asm, &shadows, TechniqueTag::HybridAsmEddi);
        Ok((self.protect_asm(&asm)?, stats))
    }

    /// Applies only the assembly-level scalar duplication (callers that
    /// already ran the signature prepass and backend).
    ///
    /// # Errors
    ///
    /// [`PassError::Unsupported`] when an instruction cannot be
    /// duplicated with the available scratch registers.
    pub fn protect_asm(&self, p: &AsmProgram) -> Result<AsmProgram, PassError> {
        let mut out = p.clone();
        for f in &mut out.functions {
            protect_function(f)?;
        }
        Ok(out)
    }
}

const SCRATCH: Gpr = Gpr::R10;
const SCRATCH2: Gpr = Gpr::R11;

fn protect_function(f: &mut AsmFunction) -> Result<(), PassError> {
    // The scratch registers must be genuinely spare.
    let usage = ferrum_asm::analysis::regscan::SpareReport::scan(f);
    for s in [SCRATCH, SCRATCH2] {
        if usage.function.uses_gpr(s) {
            return Err(PassError::NoSpareRegisters {
                function: f.name.clone(),
                block: "<function>".into(),
            });
        }
    }
    for b in &mut f.blocks {
        let orig_block = b.clone();
        let mut out = Vec::with_capacity(b.insts.len() * 3);
        for (i, ai) in orig_block.insts.iter().enumerate() {
            let site = ai.inst.injectable_bits().is_some();
            let is_flags = matches!(ai.inst.dest_class(), DestClass::Rflags);
            let is_simd_dest =
                matches!(ai.inst.dest_class(), DestClass::Xmm(_) | DestClass::Ymm(_));
            if is_simd_dest {
                return Err(PassError::Unsupported {
                    function: f.name.clone(),
                    what: "SIMD instruction in input program".into(),
                });
            }
            if !site || is_flags {
                // Flags sites are covered by the IR-level signature
                // prepass (Table I: comparison/branch at IR).
                //
                // Protection-tagged GPR sites are NOT exempt: on
                // optimized input the backend may route master dataflow
                // through a lowered signature shadow (value numbering
                // picks whichever register already holds the value), so
                // "faults in protection code are always caught by its
                // own check" only holds for `-O0` output.  Duplicating
                // those sites too keeps every GPR write checked.
                out.push(ai.clone());
                continue;
            }
            if flags_live_at(&orig_block, i + 1) && !matches!(ai.inst, Inst::Setcc { .. }) {
                return Err(PassError::Unsupported {
                    function: f.name.clone(),
                    what: "checker would clobber live flags".into(),
                });
            }
            protect_general(ai, SCRATCH, SCRATCH2, TechniqueTag::HybridAsmEddi, &mut out).map_err(
                |e| match e {
                    PassError::Unsupported { what, .. } => PassError::Unsupported {
                        function: f.name.clone(),
                        what,
                    },
                    other => other,
                },
            )?;
        }
        b.insts = out;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_asm::provenance::Provenance;
    use ferrum_cpu::outcome::StopReason;
    use ferrum_cpu::run::Cpu;
    use ferrum_mir::builder::FunctionBuilder;
    use ferrum_mir::inst::ICmpPred;
    use ferrum_mir::module::Global;
    use ferrum_mir::types::Ty;

    fn loop_module() -> Module {
        // Weighted sum over a global array with a branch inside the loop.
        let mut module = Module::new();
        let g = module.add_global(Global::new("tab", vec![5, -3, 7, -1, 9]));
        let mut b = FunctionBuilder::new("main", &[], None);
        let header = b.create_block("header");
        let body = b.create_block("body");
        let neg = b.create_block("neg");
        let join = b.create_block("join");
        let exit = b.create_block("exit");
        let base = b.global(g);
        let pi = b.alloca(Ty::I64);
        let ps = b.alloca(Ty::I64);
        let zero = b.iconst(Ty::I64, 0);
        b.store(Ty::I64, zero, pi);
        b.store(Ty::I64, zero, ps);
        b.jmp(header);
        b.switch_to(header);
        let i = b.load(Ty::I64, pi);
        let n = b.iconst(Ty::I64, 5);
        let c = b.icmp(ICmpPred::Slt, Ty::I64, i, n);
        b.br(c, body, exit);
        b.switch_to(body);
        let i2 = b.load(Ty::I64, pi);
        let p = b.gep(base, i2);
        let v = b.load(Ty::I64, p);
        let isneg = b.icmp(ICmpPred::Slt, Ty::I64, v, zero);
        b.br(isneg, neg, join);
        b.switch_to(neg);
        let nv = b.sub(Ty::I64, zero, v);
        let s = b.load(Ty::I64, ps);
        let s2 = b.add(Ty::I64, s, nv);
        b.store(Ty::I64, s2, ps);
        b.jmp(join);
        b.switch_to(join);
        let s3 = b.load(Ty::I64, ps);
        let v2 = b.load(Ty::I64, p);
        let both = b.add(Ty::I64, s3, v2);
        b.store(Ty::I64, both, ps);
        let one = b.iconst(Ty::I64, 1);
        let i3 = b.add(Ty::I64, i2, one);
        b.store(Ty::I64, i3, pi);
        b.jmp(header);
        b.switch_to(exit);
        let r = b.load(Ty::I64, ps);
        b.print(r);
        b.ret(None);
        module.functions.push(b.finish());
        module
    }

    #[test]
    fn protected_program_preserves_output() {
        let m = loop_module();
        let golden = ferrum_mir::interp::Interp::new(&m).run().unwrap();
        let prot = HybridAsmEddi::new().protect(&m).expect("protects");
        assert!(prot.validate().is_ok());
        let cpu = Cpu::load(&prot).expect("loads");
        let r = cpu.run(None);
        assert_eq!(r.stop, StopReason::MainReturned);
        assert_eq!(r.output, golden.output);
    }

    #[test]
    fn every_gpr_site_is_followed_by_protection() {
        let m = loop_module();
        let prot = HybridAsmEddi::new().protect(&m).expect("protects");
        // Count: every non-protection instruction with a plain GPR
        // destination must be adjacent to protection-tagged code.
        for f in &prot.functions {
            for b in &f.blocks {
                for (i, ai) in b.insts.iter().enumerate() {
                    if ai.prov.is_protection() {
                        continue;
                    }
                    if let DestClass::Gpr(r) = ai.inst.dest_class() {
                        if r.gpr.is_frame() {
                            continue;
                        }
                        let before = i.checked_sub(1).map(|j| b.insts[j].prov.is_protection());
                        let after = b.insts.get(i + 1).map(|a| a.prov.is_protection());
                        assert!(
                            before == Some(true) || after == Some(true),
                            "unprotected site {:?} in {}",
                            ai.inst,
                            b.label
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn protection_overhead_is_substantial() {
        let m = loop_module();
        let raw = ferrum_backend::compile(&m).unwrap();
        let prot = HybridAsmEddi::new().protect(&m).unwrap();
        let raw_cycles = Cpu::load(&raw).unwrap().run(None).cycles;
        let prot_cycles = Cpu::load(&prot).unwrap().run(None).cycles;
        assert!(
            prot_cycles as f64 > raw_cycles as f64 * 1.3,
            "hybrid should cost well over 30% ({raw_cycles} vs {prot_cycles})"
        );
    }

    #[test]
    fn rejects_input_that_uses_the_scratch_registers() {
        use ferrum_asm::operand::Operand;
        use ferrum_asm::reg::{Reg, Width};
        let mut p = ferrum_asm::program::single_block_main(vec![Inst::Mov {
            w: Width::W64,
            src: Operand::Imm(1),
            dst: Operand::Reg(Reg::q(Gpr::R10)),
        }]);
        p.functions[0].blocks[0].insts[0].prov = Provenance::Synthetic;
        assert!(matches!(
            HybridAsmEddi::new().protect_asm(&p),
            Err(PassError::NoSpareRegisters { .. })
        ));
    }

    #[test]
    fn rejects_simd_in_input() {
        let p = ferrum_asm::program::single_block_main(vec![Inst::MovqToXmm {
            src: ferrum_asm::operand::Operand::Reg(ferrum_asm::reg::Reg::q(Gpr::Rax)),
            dst: ferrum_asm::reg::Xmm::new(0),
        }]);
        assert!(matches!(
            HybridAsmEddi::new().protect_asm(&p),
            Err(PassError::Unsupported { .. })
        ));
    }
}
