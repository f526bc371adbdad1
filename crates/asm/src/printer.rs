//! AT&T-style textual output for instructions and programs.
//!
//! The format matches the listings in the paper's figures, e.g.
//! `movslq %ecx, %r10`, `vinserti128 $1, %xmm2, %ymm0, %ymm0`,
//! `jne exit_function`.  [`crate::parser`] parses this format back.

use std::fmt::{self, Write as _};

use crate::inst::{Inst, ShiftAmount};
use crate::program::{AsmProgram, DataObject};

/// Renders one instruction in AT&T syntax (no trailing newline).
pub fn print_inst(inst: &Inst) -> String {
    let mut out = String::new();
    // Writing to a `String` cannot fail.
    let _ = write_inst(&mut out, inst);
    out
}

/// Writes one instruction in AT&T syntax (no trailing newline) to
/// `out`: the renderer behind [`print_inst`], for callers that stream
/// the text elsewhere (the function content hash does).
pub(crate) fn write_inst(out: &mut impl fmt::Write, inst: &Inst) -> fmt::Result {
    match inst {
        Inst::Mov { w, src, dst } => write!(out, "mov{} {}, {}", w.suffix(), src, dst),
        Inst::Movsx {
            src_w,
            dst_w,
            src,
            dst,
        } => {
            write!(
                out,
                "movs{}{} {}, {}",
                src_w.suffix(),
                dst_w.suffix(),
                src,
                dst
            )
        }
        Inst::Movzx {
            src_w,
            dst_w,
            src,
            dst,
        } => {
            write!(
                out,
                "movz{}{} {}, {}",
                src_w.suffix(),
                dst_w.suffix(),
                src,
                dst
            )
        }
        Inst::Lea { mem, dst } => write!(out, "leaq {}, {}", mem, dst),
        Inst::Alu { op, w, src, dst } => {
            write!(out, "{}{} {}, {}", op.mnemonic(), w.suffix(), src, dst)
        }
        Inst::Imul { w, src, dst } => write!(out, "imul{} {}, {}", w.suffix(), src, dst),
        Inst::Unary { op, w, dst } => write!(out, "{}{} {}", op.mnemonic(), w.suffix(), dst),
        Inst::Shift { op, w, amount, dst } => match amount {
            ShiftAmount::Imm(n) => write!(out, "{}{} ${}, {}", op.mnemonic(), w.suffix(), n, dst),
            ShiftAmount::Cl => write!(out, "{}{} %cl, {}", op.mnemonic(), w.suffix(), dst),
        },
        Inst::Cqo { w } => out.write_str(match w {
            crate::reg::Width::W64 => "cqto",
            _ => "cltd",
        }),
        Inst::Idiv { w, src } => write!(out, "idiv{} {}", w.suffix(), src),
        Inst::Cmp { w, src, dst } => write!(out, "cmp{} {}, {}", w.suffix(), src, dst),
        Inst::Test { w, src, dst } => write!(out, "test{} {}, {}", w.suffix(), src, dst),
        Inst::Setcc { cc, dst } => write!(out, "set{} {}", cc.mnemonic(), dst),
        Inst::Jmp { target } => write!(out, "jmp {target}"),
        Inst::Jcc { cc, target } => write!(out, "j{} {}", cc.mnemonic(), target),
        Inst::Call { target } => write!(out, "call {target}"),
        Inst::Ret => out.write_str("ret"),
        Inst::Push { src } => write!(out, "pushq {src}"),
        Inst::Pop { dst } => write!(out, "popq {dst}"),
        Inst::MovqToXmm { src, dst } => write!(out, "movq {}, {}", src, dst),
        Inst::MovqFromXmm { src, dst } => write!(out, "movq {}, {}", src, dst),
        Inst::Pinsrq { lane, src, dst } => write!(out, "pinsrq ${}, {}, {}", lane, src, dst),
        Inst::Pextrq { lane, src, dst } => write!(out, "pextrq ${}, {}, {}", lane, src, dst),
        Inst::Vinserti128 {
            lane,
            src,
            src2,
            dst,
        } => {
            write!(out, "vinserti128 ${}, {}, {}, {}", lane, src, src2, dst)
        }
        Inst::Vpxor { a, b, dst } => write!(out, "vpxor {}, {}, {}", a, b, dst),
        Inst::Vptest { a, b } => write!(out, "vptest {}, {}", a, b),
        Inst::Vpxor128 { a, b, dst } => write!(out, "vpxor {}, {}, {}", a, b, dst),
        Inst::Vptest128 { a, b } => write!(out, "vptest {}, {}", a, b),
        Inst::Vinserti64x4 {
            lane,
            src,
            src2,
            dst,
        } => {
            write!(out, "vinserti64x4 ${}, {}, {}, {}", lane, src, src2, dst)
        }
        Inst::Vpxor512 { a, b, dst } => write!(out, "vpxorq {}, {}, {}", a, b, dst),
        Inst::Vptest512 { a, b } => write!(out, "vptestq {}, {}", a, b),
        Inst::Nop => out.write_str("nop"),
    }
}

/// Renders a whole program as an assembly listing with provenance
/// comments.
pub fn print_program(p: &AsmProgram) -> String {
    let mut out = String::new();
    for d in &p.data {
        print_data(&mut out, d);
    }
    for f in &p.functions {
        let _ = writeln!(out, ".globl {}", f.name);
        let _ = writeln!(out, "{}:", f.name);
        for b in &f.blocks {
            let _ = writeln!(out, "{}:", b.label);
            for ai in &b.insts {
                out.push('\t');
                let _ = write_inst(&mut out, &ai.inst);
                let _ = writeln!(out, "\t# {}", ai.prov);
            }
        }
    }
    out
}

fn print_data(out: &mut String, d: &DataObject) {
    let _ = writeln!(out, ".data {}:", d.name);
    for w in &d.words {
        let _ = writeln!(out, "\t.quad {w}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::Cc;
    use crate::inst::{AluOp, ShiftOp, UnaryOp};
    use crate::operand::{MemRef, Operand};
    use crate::program::single_block_main;
    use crate::reg::{Gpr, Reg, Width, Xmm, Ymm};

    #[test]
    fn paper_fig4_general_instruction_protection() {
        // movslq %ecx, %r10 / movslq %ecx, %rcx / xorq %rcx, %r10
        let dup = Inst::Movsx {
            src_w: Width::W32,
            dst_w: Width::W64,
            src: Operand::Reg(Reg::l(Gpr::Rcx)),
            dst: Reg::q(Gpr::R10),
        };
        assert_eq!(print_inst(&dup), "movslq %ecx, %r10");
        let check = Inst::Alu {
            op: AluOp::Xor,
            w: Width::W64,
            src: Operand::Reg(Reg::q(Gpr::Rcx)),
            dst: Operand::Reg(Reg::q(Gpr::R10)),
        };
        assert_eq!(print_inst(&check), "xorq %rcx, %r10");
        assert_eq!(
            print_inst(&Inst::Jcc {
                cc: Cc::Ne,
                target: "exit_function".into()
            }),
            "jne exit_function"
        );
    }

    #[test]
    fn paper_fig5_comparison_protection() {
        let cmp = Inst::Cmp {
            w: Width::W32,
            src: Operand::Mem(MemRef::base_disp(Gpr::Rbp, -12)),
            dst: Operand::Reg(Reg::l(Gpr::Rax)),
        };
        assert_eq!(print_inst(&cmp), "cmpl -12(%rbp), %eax");
        let set = Inst::Setcc {
            cc: Cc::E,
            dst: Operand::Reg(Reg::b(Gpr::R11)),
        };
        assert_eq!(print_inst(&set), "sete %r11b");
    }

    #[test]
    fn paper_fig6_simd_sequence() {
        assert_eq!(
            print_inst(&Inst::MovqToXmm {
                src: Operand::Mem(MemRef::base_disp(Gpr::Rbp, -24)),
                dst: Xmm::new(0),
            }),
            "movq -24(%rbp), %xmm0"
        );
        assert_eq!(
            print_inst(&Inst::Pinsrq {
                lane: 1,
                src: Operand::Mem(MemRef::base_disp(Gpr::Rax, 8)),
                dst: Xmm::new(0),
            }),
            "pinsrq $1, 8(%rax), %xmm0"
        );
        assert_eq!(
            print_inst(&Inst::Vinserti128 {
                lane: 1,
                src: Xmm::new(2),
                src2: Ymm::new(0),
                dst: Ymm::new(0),
            }),
            "vinserti128 $1, %xmm2, %ymm0, %ymm0"
        );
        assert_eq!(
            print_inst(&Inst::Vpxor {
                a: Ymm::new(1),
                b: Ymm::new(0),
                dst: Ymm::new(0)
            }),
            "vpxor %ymm1, %ymm0, %ymm0"
        );
        assert_eq!(
            print_inst(&Inst::Vptest {
                a: Ymm::new(0),
                b: Ymm::new(0)
            }),
            "vptest %ymm0, %ymm0"
        );
    }

    #[test]
    fn paper_fig7_stack_requisition() {
        assert_eq!(
            print_inst(&Inst::Push {
                src: Operand::Reg(Reg::q(Gpr::R10))
            }),
            "pushq %r10"
        );
        assert_eq!(
            print_inst(&Inst::Pop {
                dst: Operand::Reg(Reg::q(Gpr::R10))
            }),
            "popq %r10"
        );
    }

    #[test]
    fn misc_instructions() {
        assert_eq!(print_inst(&Inst::Cqo { w: Width::W64 }), "cqto");
        assert_eq!(print_inst(&Inst::Cqo { w: Width::W32 }), "cltd");
        assert_eq!(
            print_inst(&Inst::Idiv {
                w: Width::W32,
                src: Operand::Reg(Reg::l(Gpr::Rcx))
            }),
            "idivl %ecx"
        );
        assert_eq!(
            print_inst(&Inst::Shift {
                op: ShiftOp::Sar,
                w: Width::W64,
                amount: ShiftAmount::Imm(3),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            }),
            "sarq $3, %rax"
        );
        assert_eq!(
            print_inst(&Inst::Unary {
                op: UnaryOp::Neg,
                w: Width::W32,
                dst: Operand::Reg(Reg::l(Gpr::Rdx)),
            }),
            "negl %edx"
        );
        assert_eq!(
            print_inst(&Inst::Lea {
                mem: MemRef::global("arr", 0),
                dst: Reg::q(Gpr::Rax)
            }),
            "leaq arr(%rip), %rax"
        );
        assert_eq!(print_inst(&Inst::Nop), "nop");
        assert_eq!(print_inst(&Inst::Ret), "ret");
        assert_eq!(
            print_inst(&Inst::Call {
                target: "print_i64".into()
            }),
            "call print_i64"
        );
    }

    #[test]
    fn program_listing_contains_labels_and_provenance() {
        let p = single_block_main(vec![Inst::Nop]);
        let text = print_program(&p);
        assert!(text.contains("main:"));
        assert!(text.contains("main_entry:"));
        assert!(text.contains("nop"));
        assert!(text.contains("# synthetic"));
    }
}
