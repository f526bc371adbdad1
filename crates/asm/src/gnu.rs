//! GNU-assembler output: turns an [`AsmProgram`] into a real `.s` file
//! that `gcc` can assemble and link into a native x86-64 executable.
//!
//! This is the bridge from the simulation substrate back to actual
//! silicon: the instruction dialect is a genuine x86-64 subset, so a
//! FERRUM-protected program can be assembled, run on a real CPU
//! (SSE4.1 + AVX2 required for the checker instructions), and checked
//! against the oracle — the native end-to-end validation lives in
//! `tests/native.rs`.
//!
//! Runtime shims appended to every emission:
//!
//! * `print_i64` — prints `%rdi` in decimal via `printf`,
//! * `exit_function` — the detection handler; exits with status 57,
//! * a zeroed `%eax` before `main`'s `ret` so the process exit status
//!   is 0 on success.

use std::fmt::Write as _;

use crate::inst::Inst;
use crate::operand::Operand;
use crate::printer::print_inst;
use crate::program::AsmProgram;

/// Process exit status used by the native detection handler.
pub const DETECTED_EXIT_CODE: i32 = 57;

fn render_native(inst: &Inst) -> String {
    // 64-bit immediates beyond the i32 range need `movabsq` in GNU as.
    if let Inst::Mov {
        w: crate::reg::Width::W64,
        src: Operand::Imm(v),
        dst: dst @ Operand::Reg(_),
    } = inst
    {
        if i32::try_from(*v).is_err() {
            return format!("movabsq ${v}, {dst}");
        }
    }
    // VEX encodings for the SIMD checker instructions.  The paper's
    // Fig. 6 listing mixes legacy-SSE (`movq`, `pinsrq`) with VEX
    // (`vinserti128`, `vpxor`); on real Haswell-and-later silicon that
    // mix incurs SSE↔AVX transition penalties that our native timing
    // measured at two orders of magnitude (EXPERIMENTS.md).  The VEX
    // forms are semantically equivalent for the generated patterns
    // (their upper-lane zeroing is always overwritten or compared on
    // equal values before being read).
    match inst {
        Inst::MovqToXmm { src, dst } => format!("vmovq {src}, {dst}"),
        Inst::MovqFromXmm { src, dst } => format!("vmovq {src}, {dst}"),
        Inst::Pinsrq { lane, src, dst } => format!("vpinsrq ${lane}, {src}, {dst}, {dst}"),
        Inst::Pextrq { lane, src, dst } => format!("vpextrq ${lane}, {src}, {dst}"),
        _ => print_inst(inst),
    }
}

/// Emits a timing harness: the program's `main` is renamed
/// `ferrum_kernel`, `print_i64` becomes a no-op, and a fresh `main`
/// calls the kernel `iters` times — wall-clock measurements of the
/// *computation* (not printf) on real hardware.  Note the kernel
/// mutates its globals across iterations; the harness times work, it
/// does not validate output (the plain [`emit_gnu`] path does that).
pub fn emit_gnu_timing(p: &AsmProgram, iters: u32) -> String {
    let mut renamed = p.clone();
    for f in &mut renamed.functions {
        if f.name == "main" {
            f.name = "ferrum_kernel".into();
        }
    }
    let mut out = emit_body(&renamed, true);
    let _ = writeln!(out, "	.text");
    let _ = writeln!(out, "	.globl main");
    let _ = writeln!(out, "main:");
    let _ = writeln!(out, "	pushq %rbp");
    let _ = writeln!(out, "	movq %rsp, %rbp");
    let _ = writeln!(out, "	pushq %rbx");
    let _ = writeln!(out, "	pushq %r15");
    let _ = writeln!(out, "	movl ${iters}, %ebx");
    let _ = writeln!(out, ".Lferrum_loop:");
    let _ = writeln!(out, "	call ferrum_kernel");
    let _ = writeln!(out, "	subl $1, %ebx");
    let _ = writeln!(out, "	jne .Lferrum_loop");
    let _ = writeln!(out, "	popq %r15");
    let _ = writeln!(out, "	popq %rbx");
    let _ = writeln!(out, "	movq %rbp, %rsp");
    let _ = writeln!(out, "	popq %rbp");
    let _ = writeln!(out, "	xorl %eax, %eax");
    let _ = writeln!(out, "	ret");
    out
}

/// Emits a complete GNU-assembler translation unit.
pub fn emit_gnu(p: &AsmProgram) -> String {
    emit_body(p, false)
}

fn emit_body(p: &AsmProgram, quiet_print: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\t.text");
    for f in &p.functions {
        let _ = writeln!(out, "\t.globl {}", f.name);
        let _ = writeln!(out, "\t.type {}, @function", f.name);
        let _ = writeln!(out, "{}:", f.name);
        for b in &f.blocks {
            let _ = writeln!(out, "{}:", b.label);
            for ai in &b.insts {
                if f.name == "main" && matches!(ai.inst, Inst::Ret) {
                    // A clean process exit status for the C runtime.
                    let _ = writeln!(out, "\txorl %eax, %eax");
                }
                let _ = writeln!(out, "\t{}", render_native(&ai.inst));
            }
        }
    }
    // Detection handler: report and exit with a recognisable status.
    let _ = writeln!(out, "\t.globl exit_function");
    let _ = writeln!(out, "exit_function:");
    let _ = writeln!(out, "\tleaq .Lferrum_detected(%rip), %rdi");
    let _ = writeln!(out, "\txorl %eax, %eax");
    let _ = writeln!(out, "\tandq $-16, %rsp");
    let _ = writeln!(out, "\tcall printf@PLT");
    let _ = writeln!(out, "\tmovl ${DETECTED_EXIT_CODE}, %edi");
    let _ = writeln!(out, "\tcall exit@PLT");
    // Output intrinsic: decimal + newline (or a no-op for timing runs).
    let _ = writeln!(out, "print_i64:");
    if quiet_print {
        let _ = writeln!(out, "\tret");
    }
    let _ = writeln!(out, "\tpushq %rbp");
    let _ = writeln!(out, "\tmovq %rsp, %rbp");
    let _ = writeln!(out, "\tmovq %rdi, %rsi");
    let _ = writeln!(out, "\tleaq .Lferrum_fmt(%rip), %rdi");
    let _ = writeln!(out, "\txorl %eax, %eax");
    let _ = writeln!(out, "\tcall printf@PLT");
    let _ = writeln!(out, "\tmovq %rbp, %rsp");
    let _ = writeln!(out, "\tpopq %rbp");
    let _ = writeln!(out, "\tret");
    let _ = writeln!(out, "\t.section .rodata");
    let _ = writeln!(out, ".Lferrum_fmt:\t.string \"%ld\\n\"");
    let _ = writeln!(
        out,
        ".Lferrum_detected:\t.string \"ferrum: fault detected\\n\""
    );
    if !p.data.is_empty() {
        let _ = writeln!(out, "\t.data");
        for d in &p.data {
            let _ = writeln!(out, "\t.align 8");
            let _ = writeln!(out, "{}:", d.name);
            for w in &d.words {
                let _ = writeln!(out, "\t.quad {w}");
            }
        }
    }
    let _ = writeln!(out, "\t.section .note.GNU-stack,\"\",@progbits");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;
    use crate::operand::Operand;
    use crate::program::{single_block_main, DataObject};
    use crate::reg::{Gpr, Reg, Width};

    #[test]
    fn emission_contains_shims_and_sections() {
        let mut p = single_block_main(vec![Inst::Call {
            target: "print_i64".into(),
        }]);
        p.data.push(DataObject::new("tab", vec![1, 2]));
        let s = emit_gnu(&p);
        assert!(s.contains("\t.text"));
        assert!(s.contains(".globl main"));
        assert!(s.contains("print_i64:"));
        assert!(s.contains("exit_function:"));
        assert!(s.contains("call printf@PLT"));
        assert!(s.contains("tab:"));
        assert!(s.contains("\t.quad 1"));
        assert!(s.contains(".note.GNU-stack"));
    }

    #[test]
    fn main_ret_is_preceded_by_status_zeroing() {
        let p = single_block_main(vec![Inst::Nop]);
        let s = emit_gnu(&p);
        let ret_pos = s.find("\tret").expect("ret present");
        let xor_pos = s.find("\txorl %eax, %eax").expect("zeroing present");
        assert!(xor_pos < ret_pos);
    }

    #[test]
    fn simd_checkers_use_vex_encodings_natively() {
        use crate::reg::Xmm;
        let p = single_block_main(vec![
            Inst::MovqToXmm {
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: Xmm::new(0),
            },
            Inst::Pinsrq {
                lane: 1,
                src: Operand::Reg(Reg::q(Gpr::Rcx)),
                dst: Xmm::new(0),
            },
        ]);
        let s = emit_gnu(&p);
        assert!(s.contains("vmovq %rax, %xmm0"), "{s}");
        assert!(s.contains("vpinsrq $1, %rcx, %xmm0, %xmm0"));
        assert!(!s.contains("	movq %rax, %xmm0"), "no legacy-SSE forms");
    }

    #[test]
    fn wide_immediates_use_movabsq() {
        let p = single_block_main(vec![
            Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(6364136223846793005),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            },
            Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(7),
                dst: Operand::Reg(Reg::q(Gpr::Rcx)),
            },
        ]);
        let s = emit_gnu(&p);
        assert!(s.contains("movabsq $6364136223846793005, %rax"));
        assert!(s.contains("movq $7, %rcx"));
    }
}
