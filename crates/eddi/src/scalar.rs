//! Scalar duplication idioms shared by HYBRID-ASSEMBLY-LEVEL-EDDI and
//! FERRUM's GENERAL-INSTRUCTION path.
//!
//! Three shapes, all ending in a `jne exit_function` checker:
//!
//! * **duplicate-first** (Fig. 4 of the paper): re-execute the
//!   instruction into a spare register *before* the original, then XOR
//!   the two results.  Running the duplicate first means source operands
//!   are still pristine even when the original overwrites one of them
//!   (e.g. `movq (%rax), %rax`).
//! * **pre-copy replay** for read-modify-write instructions (two-operand
//!   ALU, shifts, `neg`/`not`, `imul`): capture the destination into the
//!   spare, replay the operation on the spare, run the original, compare.
//! * **double execution** for `idiv`, which consumes and produces
//!   `%rax`/`%rdx`: stash inputs, divide, stash results, restore inputs,
//!   divide again, compare quotient and remainder.
//!
//! Every inserted instruction is tagged
//! [`Provenance::Protection`], so passes never re-protect their own
//! output and the fault injector can attribute faults hitting checker
//! code.

use ferrum_asm::analysis::liveness::reg_bytes;
use ferrum_asm::flags::Cc;
use ferrum_asm::inst::{AluOp, Inst};
use ferrum_asm::operand::{MemRef, Operand};
use ferrum_asm::program::AsmInst;
use ferrum_asm::provenance::{Mechanism, Provenance, TechniqueTag};
use ferrum_asm::reg::{Gpr, Reg, Width};

use crate::PassError;

/// Replaces the written GPR of a non-RMW instruction with `g`, keeping
/// the written width.  Returns `None` when the instruction has no plain
/// GPR destination.
pub fn with_dest_gpr(inst: &Inst, g: Gpr) -> Option<Inst> {
    let mut out = inst.clone();
    match &mut out {
        Inst::Mov {
            w,
            dst: Operand::Reg(r),
            ..
        } => *r = Reg::gpr(g, *w),
        Inst::Movsx { dst, .. } | Inst::Movzx { dst, .. } => *dst = Reg::gpr(g, dst.width),
        Inst::Lea { dst, .. } => *dst = Reg::q(g),
        Inst::Setcc {
            dst: Operand::Reg(r),
            ..
        } => *r = Reg::b(g),
        Inst::MovqFromXmm { dst, .. } | Inst::Pextrq { dst, .. } => *dst = Reg::q(g),
        Inst::Alu {
            dst: Operand::Reg(r),
            ..
        } => *r = Reg::gpr(g, r.width),
        Inst::Imul { dst, .. } => *dst = Reg::gpr(g, dst.width),
        Inst::Unary {
            dst: Operand::Reg(r),
            ..
        } => *r = Reg::gpr(g, r.width),
        Inst::Shift {
            dst: Operand::Reg(r),
            ..
        } => *r = Reg::gpr(g, r.width),
        _ => return None,
    }
    Some(out)
}

/// True when the instruction reads the register it writes (so the
/// duplicate cannot simply be re-executed into a spare).
pub fn is_rmw(inst: &Inst) -> bool {
    inst.dest_gpr().is_some()
        && matches!(
            inst,
            Inst::Alu { .. } | Inst::Unary { .. } | Inst::Shift { .. } | Inst::Imul { .. }
        )
}

fn prot(tag: TechniqueTag, mech: Mechanism, inst: Inst) -> AsmInst {
    AsmInst::new(inst, Provenance::Protection(tag, mech))
}

/// Duplicate-stream scaffolding (pre-copies, replays, stashes).
fn dup(tag: TechniqueTag, inst: Inst) -> AsmInst {
    prot(tag, Mechanism::Dup, inst)
}

fn jne_exit(tag: TechniqueTag) -> AsmInst {
    prot(
        tag,
        Mechanism::Check,
        Inst::Jcc {
            cc: Cc::Ne,
            target: ferrum_asm::EXIT_FUNCTION.into(),
        },
    )
}

fn xor_check(tag: TechniqueTag, w: Width, orig: Gpr, dup: Gpr, out: &mut Vec<AsmInst>) {
    out.push(prot(
        tag,
        Mechanism::Check,
        Inst::Alu {
            op: AluOp::Xor,
            w,
            src: Operand::Reg(Reg::gpr(orig, w)),
            dst: Operand::Reg(Reg::gpr(dup, w)),
        },
    ));
    out.push(jne_exit(tag));
}

fn cmp_check(tag: TechniqueTag, w: Width, a: Gpr, b: Gpr, out: &mut Vec<AsmInst>) {
    out.push(prot(
        tag,
        Mechanism::Check,
        Inst::Cmp {
            w,
            src: Operand::Reg(Reg::gpr(a, w)),
            dst: Operand::Reg(Reg::gpr(b, w)),
        },
    ));
    out.push(jne_exit(tag));
}

/// Emits the *batched* duplication of one GENERAL instruction: the
/// duplicate executes into `scratch`, the original runs, and instead of
/// an immediate `xor`+`jne` the caller captures both results into the
/// SIMD batch (the paper's "shift multiple duplication and original
/// results to SIMD registers, then compare the values at once", §III-B3).
///
/// Returns the `(duplicate, original)` register pair to capture, or
/// `Ok(None)` when the instruction cannot be batch-checked (narrow
/// destinations whose upper register bits are unspecified, `idiv`,
/// `pop`) — the caller falls back to [`protect_general`].
///
/// # Errors
///
/// [`PassError::Unsupported`] for scratch-register aliasing.
pub fn protect_general_batched(
    ai: &AsmInst,
    scratch: Gpr,
    tag: TechniqueTag,
    out: &mut Vec<AsmInst>,
) -> Result<Option<(Gpr, Gpr)>, PassError> {
    let inst = &ai.inst;
    let err = |what: &str| PassError::Unsupported {
        function: String::new(),
        what: what.into(),
    };
    // Only full-register results can be compared through 64-bit lanes:
    // W64 writes replace the register and W32 writes zero-extend, so the
    // duplicate and original agree on all 64 bits when fault-free.
    let dest = match inst.dest_gpr() {
        Some(d) if matches!(d.width, Width::W32 | Width::W64) => d,
        _ => return Ok(None),
    };
    if matches!(inst, Inst::Idiv { .. } | Inst::Pop { .. }) {
        return Ok(None);
    }
    if dest.gpr == scratch {
        return Err(err("destination aliases the scratch register"));
    }
    match inst {
        Inst::Cqo { w } => {
            let (view, shift) = match w {
                Width::W64 => (Reg::q(scratch), 63u8),
                _ => (Reg::l(scratch), 31u8),
            };
            let rax_view = Reg::gpr(Gpr::Rax, view.width);
            out.push(dup(
                tag,
                Inst::Mov {
                    w: view.width,
                    src: Operand::Reg(rax_view),
                    dst: Operand::Reg(view),
                },
            ));
            out.push(dup(
                tag,
                Inst::Shift {
                    op: ferrum_asm::inst::ShiftOp::Sar,
                    w: view.width,
                    amount: ferrum_asm::inst::ShiftAmount::Imm(shift),
                    dst: Operand::Reg(view),
                },
            ));
            out.push(ai.clone());
            Ok(Some((scratch, Gpr::Rdx)))
        }
        _ if is_rmw(inst) => {
            let replay = with_dest_gpr(inst, scratch)
                .ok_or_else(|| err("rmw shape without register destination"))?;
            out.push(dup(
                tag,
                Inst::Mov {
                    w: Width::W64,
                    src: Operand::Reg(Reg::q(dest.gpr)),
                    dst: Operand::Reg(Reg::q(scratch)),
                },
            ));
            out.push(dup(tag, replay));
            out.push(ai.clone());
            Ok(Some((scratch, dest.gpr)))
        }
        _ => {
            if inst.effects().gpr_read & reg_bytes(scratch) != 0 {
                return Err(err("instruction aliases the scratch register"));
            }
            let dup_inst = match with_dest_gpr(inst, scratch) {
                Some(d) => d,
                None => return Ok(None),
            };
            out.push(dup(tag, dup_inst));
            out.push(ai.clone());
            Ok(Some((scratch, dest.gpr)))
        }
    }
}

/// Emits the scalar protection of one GENERAL instruction.
///
/// `ai` must be an injectable GPR-destination instruction that is not a
/// `cmp`/`test` (those use deferred detection) and not already
/// protection code.  `scratch`/`scratch2` are spare registers the
/// emitted code may clobber.
///
/// # Errors
///
/// [`PassError::Unsupported`] when the instruction shape cannot be
/// duplicated (e.g. an `idiv` whose divisor lives in `%rax`/`%rdx`).
pub fn protect_general(
    ai: &AsmInst,
    scratch: Gpr,
    scratch2: Gpr,
    tag: TechniqueTag,
    out: &mut Vec<AsmInst>,
) -> Result<(), PassError> {
    let inst = &ai.inst;
    let err = |what: &str| PassError::Unsupported {
        function: String::new(),
        what: what.into(),
    };
    match inst {
        Inst::Idiv { w, src } => {
            // Double execution (see module docs).
            for g in src.as_reg().map(|r| vec![r.gpr]).unwrap_or_else(|| {
                src.as_mem()
                    .map(|m| m.regs_read().collect())
                    .unwrap_or_default()
            }) {
                if g == Gpr::Rax || g == Gpr::Rdx || g == scratch || g == scratch2 {
                    return Err(err("idiv divisor aliases rax/rdx/scratch"));
                }
            }
            let q = |g| Operand::Reg(Reg::q(g));
            out.push(dup(
                tag,
                Inst::Mov {
                    w: Width::W64,
                    src: q(Gpr::Rax),
                    dst: q(scratch),
                },
            ));
            out.push(dup(tag, Inst::Push { src: q(Gpr::Rdx) }));
            out.push(ai.clone()); // original idiv
            out.push(dup(
                tag,
                Inst::Mov {
                    w: Width::W64,
                    src: q(Gpr::Rax),
                    dst: q(scratch2),
                },
            ));
            out.push(dup(tag, Inst::Push { src: q(Gpr::Rdx) }));
            out.push(dup(
                tag,
                Inst::Mov {
                    w: Width::W64,
                    src: q(scratch),
                    dst: q(Gpr::Rax),
                },
            ));
            out.push(dup(
                tag,
                Inst::Mov {
                    w: Width::W64,
                    src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, 8)),
                    dst: q(Gpr::Rdx),
                },
            ));
            out.push(dup(
                tag,
                Inst::Idiv {
                    w: *w,
                    src: src.clone(),
                },
            )); // replay
            cmp_check(tag, Width::W64, scratch2, Gpr::Rax, out);
            out.push(dup(tag, Inst::Pop { dst: q(scratch) }));
            cmp_check(tag, Width::W64, scratch, Gpr::Rdx, out);
            out.push(dup(
                tag,
                Inst::Alu {
                    op: AluOp::Add,
                    w: Width::W64,
                    src: Operand::Imm(8),
                    dst: q(Gpr::Rsp),
                },
            ));
            Ok(())
        }
        Inst::Cqo { w } => {
            // Replay the sign extension manually into the spare.
            let (view, shift) = match w {
                Width::W64 => (Reg::q(scratch), 63u8),
                _ => (Reg::l(scratch), 31u8),
            };
            let rax_view = match w {
                Width::W64 => Reg::q(Gpr::Rax),
                _ => Reg::l(Gpr::Rax),
            };
            out.push(dup(
                tag,
                Inst::Mov {
                    w: view.width,
                    src: Operand::Reg(rax_view),
                    dst: Operand::Reg(view),
                },
            ));
            out.push(dup(
                tag,
                Inst::Shift {
                    op: ferrum_asm::inst::ShiftOp::Sar,
                    w: view.width,
                    amount: ferrum_asm::inst::ShiftAmount::Imm(shift),
                    dst: Operand::Reg(view),
                },
            ));
            out.push(ai.clone());
            xor_check(tag, view.width, Gpr::Rdx, scratch, out);
            Ok(())
        }
        Inst::Pop {
            dst: Operand::Reg(r),
        } => {
            // Red-zone check: the popped word is still addressable just
            // below the (already bumped) stack pointer.
            out.push(ai.clone());
            out.push(prot(
                tag,
                Mechanism::Check,
                Inst::Cmp {
                    w: Width::W64,
                    src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
                    dst: Operand::Reg(Reg::q(r.gpr)),
                },
            ));
            out.push(jne_exit(tag));
            Ok(())
        }
        _ if is_rmw(inst) => {
            let dest = inst.dest_gpr().expect("rmw has gpr dest");
            if dest.gpr == scratch {
                return Err(err("destination aliases the scratch register"));
            }
            let replay = with_dest_gpr(inst, scratch)
                .ok_or_else(|| err("rmw shape without register destination"))?;
            out.push(dup(
                tag,
                Inst::Mov {
                    w: Width::W64,
                    src: Operand::Reg(Reg::q(dest.gpr)),
                    dst: Operand::Reg(Reg::q(scratch)),
                },
            ));
            out.push(dup(tag, replay));
            out.push(ai.clone());
            xor_check(tag, dest.width, dest.gpr, scratch, out);
            Ok(())
        }
        _ => {
            // Duplicate-first (Fig. 4).
            let dest = inst
                .dest_gpr()
                .ok_or_else(|| err("no register destination to protect"))?;
            if dest.gpr == scratch || inst.effects().gpr_read & reg_bytes(scratch) != 0 {
                return Err(err("instruction aliases the scratch register"));
            }
            let dup_inst = with_dest_gpr(inst, scratch)
                .ok_or_else(|| err("shape without replaceable destination"))?;
            out.push(dup(tag, dup_inst));
            out.push(ai.clone());
            xor_check(tag, dest.width, dest.gpr, scratch, out);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_asm::printer::print_inst;

    fn texts(out: &[AsmInst]) -> Vec<String> {
        out.iter().map(|ai| print_inst(&ai.inst)).collect()
    }

    #[test]
    fn fig4_shape_for_movslq() {
        // The paper's Fig. 4: movslq %ecx, %r10 / movslq %ecx, %rcx /
        // xorq %rcx, %r10 / jne exit_function — with the duplicate first.
        let orig = AsmInst::synthetic(Inst::Movsx {
            src_w: Width::W32,
            dst_w: Width::W64,
            src: Operand::Reg(Reg::l(Gpr::Rcx)),
            dst: Reg::q(Gpr::Rcx),
        });
        let mut out = Vec::new();
        protect_general(&orig, Gpr::R10, Gpr::R11, TechniqueTag::Ferrum, &mut out).unwrap();
        assert_eq!(
            texts(&out),
            vec![
                "movslq %ecx, %r10",
                "movslq %ecx, %rcx",
                "xorq %rcx, %r10",
                "jne exit_function",
            ]
        );
    }

    #[test]
    fn rmw_uses_pre_copy_replay() {
        let orig = AsmInst::synthetic(Inst::Alu {
            op: AluOp::Add,
            w: Width::W32,
            src: Operand::Reg(Reg::l(Gpr::Rcx)),
            dst: Operand::Reg(Reg::l(Gpr::Rax)),
        });
        let mut out = Vec::new();
        protect_general(
            &orig,
            Gpr::R10,
            Gpr::R11,
            TechniqueTag::HybridAsmEddi,
            &mut out,
        )
        .unwrap();
        assert_eq!(
            texts(&out),
            vec![
                "movq %rax, %r10",
                "addl %ecx, %r10d",
                "addl %ecx, %eax",
                "xorl %eax, %r10d",
                "jne exit_function",
            ]
        );
    }

    #[test]
    fn load_into_own_address_register_is_safe() {
        // movq (%rax), %rax — the duplicate must read (%rax) first.
        let orig = AsmInst::synthetic(Inst::Mov {
            w: Width::W64,
            src: Operand::Mem(MemRef::base_disp(Gpr::Rax, 0)),
            dst: Operand::Reg(Reg::q(Gpr::Rax)),
        });
        let mut out = Vec::new();
        protect_general(&orig, Gpr::R10, Gpr::R11, TechniqueTag::Ferrum, &mut out).unwrap();
        assert_eq!(
            texts(&out),
            vec![
                "movq (%rax), %r10",
                "movq (%rax), %rax",
                "xorq %rax, %r10",
                "jne exit_function",
            ]
        );
    }

    #[test]
    fn idiv_double_execution_shape() {
        let orig = AsmInst::synthetic(Inst::Idiv {
            w: Width::W64,
            src: Operand::Reg(Reg::q(Gpr::Rcx)),
        });
        let mut out = Vec::new();
        protect_general(&orig, Gpr::R10, Gpr::R11, TechniqueTag::Ferrum, &mut out).unwrap();
        let t = texts(&out);
        assert_eq!(t[0], "movq %rax, %r10");
        assert_eq!(t[1], "pushq %rdx");
        assert_eq!(t[2], "idivq %rcx");
        assert!(t.contains(&"idivq %rcx".to_owned()));
        assert_eq!(t.iter().filter(|s| s.starts_with("idiv")).count(), 2);
        assert_eq!(t.iter().filter(|s| *s == "jne exit_function").count(), 2);
        assert_eq!(t.last().unwrap(), "addq $8, %rsp");
    }

    #[test]
    fn idiv_divisor_aliasing_rejected() {
        let orig = AsmInst::synthetic(Inst::Idiv {
            w: Width::W64,
            src: Operand::Reg(Reg::q(Gpr::Rdx)),
        });
        let mut out = Vec::new();
        assert!(matches!(
            protect_general(&orig, Gpr::R10, Gpr::R11, TechniqueTag::Ferrum, &mut out),
            Err(PassError::Unsupported { .. })
        ));
    }

    #[test]
    fn cqo_replay() {
        let orig = AsmInst::synthetic(Inst::Cqo { w: Width::W64 });
        let mut out = Vec::new();
        protect_general(&orig, Gpr::R10, Gpr::R11, TechniqueTag::Ferrum, &mut out).unwrap();
        assert_eq!(
            texts(&out),
            vec![
                "movq %rax, %r10",
                "sarq $63, %r10",
                "cqto",
                "xorq %rdx, %r10",
                "jne exit_function",
            ]
        );
    }

    #[test]
    fn pop_uses_red_zone_compare() {
        let orig = AsmInst::synthetic(Inst::Pop {
            dst: Operand::Reg(Reg::q(Gpr::R13)),
        });
        let mut out = Vec::new();
        protect_general(&orig, Gpr::R10, Gpr::R11, TechniqueTag::Ferrum, &mut out).unwrap();
        assert_eq!(
            texts(&out),
            vec!["popq %r13", "cmpq -8(%rsp), %r13", "jne exit_function"]
        );
    }

    #[test]
    fn setcc_duplicate_reads_same_flags() {
        let orig = AsmInst::synthetic(Inst::Setcc {
            cc: Cc::L,
            dst: Operand::Reg(Reg::b(Gpr::Rax)),
        });
        let mut out = Vec::new();
        protect_general(&orig, Gpr::R10, Gpr::R11, TechniqueTag::Ferrum, &mut out).unwrap();
        assert_eq!(
            texts(&out),
            vec![
                "setl %r10b",
                "setl %al",
                "xorb %al, %r10b",
                "jne exit_function"
            ]
        );
    }

    #[test]
    fn scratch_alias_rejected() {
        let orig = AsmInst::synthetic(Inst::Mov {
            w: Width::W64,
            src: Operand::Reg(Reg::q(Gpr::R10)),
            dst: Operand::Reg(Reg::q(Gpr::Rax)),
        });
        let mut out = Vec::new();
        assert!(
            protect_general(&orig, Gpr::R10, Gpr::R11, TechniqueTag::Ferrum, &mut out).is_err()
        );
    }

    #[test]
    fn all_inserted_instructions_are_protection_tagged() {
        let orig = AsmInst::synthetic(Inst::Lea {
            mem: MemRef::base_disp(Gpr::Rbp, -16),
            dst: Reg::q(Gpr::Rax),
        });
        let mut out = Vec::new();
        protect_general(&orig, Gpr::R10, Gpr::R11, TechniqueTag::Ferrum, &mut out).unwrap();
        let orig_count = out
            .iter()
            .filter(|a| a.prov == Provenance::Synthetic)
            .count();
        assert_eq!(orig_count, 1, "exactly the original keeps its provenance");
        assert!(out
            .iter()
            .filter(|a| a.prov != Provenance::Synthetic)
            .all(|a| matches!(a.prov, Provenance::Protection(TechniqueTag::Ferrum, _))));
        // The duplicate carries Dup, the xor + jne carry Check.
        let mechs: Vec<_> = out.iter().filter_map(|a| a.prov.mechanism()).collect();
        assert_eq!(
            mechs,
            vec![Mechanism::Dup, Mechanism::Check, Mechanism::Check]
        );
    }
}
