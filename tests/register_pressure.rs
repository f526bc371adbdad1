//! Natural (non-forced) stack requisition: hand-written assembly that
//! uses nearly every general-purpose register leaves FERRUM fewer than
//! the three spares it needs, so the pass must fall into the Fig.-7
//! path on its own — and stay transparent and fully protective.

use ferrum_asm::inst::{AluOp, Inst};
use ferrum_asm::operand::Operand;
use ferrum_asm::program::{AsmBlock, AsmFunction, AsmInst, AsmProgram};
use ferrum_asm::reg::{Gpr, Reg, Width};
use ferrum_cpu::outcome::StopReason;
use ferrum_cpu::run::Cpu;
use ferrum_eddi::ferrum::Ferrum;
use ferrum_faultsim::Campaign;

/// Builds a program whose blocks collectively touch every non-frame
/// register, but where each block leaves a few unused — requisitionable
/// — registers.
fn pressure_program() -> AsmProgram {
    let q = |g| Operand::Reg(Reg::q(g));
    let mov = |v: i64, dst| Inst::Mov {
        w: Width::W64,
        src: Operand::Imm(v),
        dst: q(dst),
    };
    let add = |src, dst| Inst::Alu {
        op: AluOp::Add,
        w: Width::W64,
        src: q(src),
        dst: q(dst),
    };

    let mut f = AsmFunction::new("main");
    // Block 0 uses rax..r9 (leaving r10..r15 block-spare).
    let mut b0 = AsmBlock::new("p_bb0");
    for (v, g) in [
        (1, Gpr::Rax),
        (2, Gpr::Rbx),
        (3, Gpr::Rcx),
        (4, Gpr::Rdx),
        (5, Gpr::Rsi),
        (6, Gpr::R8),
        (7, Gpr::R9),
    ] {
        b0.insts.push(AsmInst::synthetic(mov(v, g)));
    }
    for g in [Gpr::Rbx, Gpr::Rcx, Gpr::Rdx, Gpr::Rsi, Gpr::R8, Gpr::R9] {
        b0.insts.push(AsmInst::synthetic(add(g, Gpr::Rax)));
    }
    // Block 1 uses r10..r15 (leaving rbx.. block-spare), accumulating
    // into rax as well.
    let mut b1 = AsmBlock::new("p_bb1");
    for (v, g) in [
        (10, Gpr::R10),
        (11, Gpr::R11),
        (12, Gpr::R12),
        (13, Gpr::R13),
        (14, Gpr::R14),
        (15, Gpr::R15),
    ] {
        b1.insts.push(AsmInst::synthetic(mov(v, g)));
    }
    for g in [Gpr::R10, Gpr::R11, Gpr::R12, Gpr::R13, Gpr::R14, Gpr::R15] {
        b1.insts.push(AsmInst::synthetic(add(g, Gpr::Rax)));
    }
    // Print and exit.
    b1.insts.push(AsmInst::synthetic(Inst::Mov {
        w: Width::W64,
        src: q(Gpr::Rax),
        dst: q(Gpr::Rdi),
    }));
    b1.insts.push(AsmInst::synthetic(Inst::Call {
        target: "print_i64".into(),
    }));
    b1.insts.push(AsmInst::synthetic(Inst::Ret));
    f.blocks.push(b0);
    f.blocks.push(b1);
    AsmProgram {
        functions: vec![f],
        data: Vec::new(),
    }
}

const EXPECTED: i64 = (1 + 2 + 3 + 4 + 5 + 6 + 7) + (10 + 11 + 12 + 13 + 14 + 15);

#[test]
fn pressure_program_runs_unprotected() {
    let p = pressure_program();
    assert!(p.validate().is_ok());
    let r = Cpu::load(&p).unwrap().run(None);
    assert_eq!(r.stop, StopReason::MainReturned);
    assert_eq!(r.output, vec![EXPECTED]);
}

#[test]
fn ferrum_requisitions_naturally_under_register_pressure() {
    let p = pressure_program();
    let (prot, stats) = Ferrum::new().protect_with_stats(&p).expect("protects");
    assert!(
        stats.requisitioned_blocks > 0,
        "fewer than 3 function-wide spares must trigger requisition: {stats:?}"
    );
    assert!(prot.validate().is_ok(), "{:?}", prot.validate());
    let r = Cpu::load(&prot).unwrap().run(None);
    assert_eq!(r.stop, StopReason::MainReturned, "output {:?}", r.output);
    assert_eq!(r.output, vec![EXPECTED]);
}

#[test]
fn natural_requisition_keeps_full_coverage_exhaustively() {
    let p = pressure_program();
    let prot = Ferrum::new().protect(&p).expect("protects");
    let cpu = Cpu::load(&prot).unwrap();
    let profile = cpu.profile();
    let res = Campaign::exhaustive(6).run(&cpu, &profile).unwrap();
    assert_eq!(res.sdc, 0, "{res:?}");
    assert!(res.detected > 0);
}
