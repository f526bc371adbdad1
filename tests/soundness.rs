//! Whole-campaign soundness: under exhaustive single-bit write-back
//! faults, FERRUM- and hybrid-protected programs never silently corrupt
//! output — the paper's 100% SDC-coverage claim, checked per fault site.

use ferrum_cpu::run::Cpu;
use ferrum_eddi::ferrum::{Ferrum, FerrumConfig};
use ferrum_eddi::hybrid::HybridAsmEddi;
use ferrum_faultsim::{Campaign, Engine};
use ferrum_mir::builder::FunctionBuilder;
use ferrum_mir::inst::ICmpPred;
use ferrum_mir::module::{Global, Module};
use ferrum_mir::types::Ty;

fn kernel() -> Module {
    let mut module = Module::new();
    let g = module.add_global(Global::new("tab", vec![4, -2, 9, -7, 3, 8]));
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
    let n = b.iconst(Ty::I64, 6);
    let c = b.icmp(ICmpPred::Slt, Ty::I64, i, n);
    b.br(c, body, exit);
    b.switch_to(body);
    let i2 = b.load(Ty::I64, pi);
    let p = b.gep(base, i2);
    let v = b.load(Ty::I64, p);
    let isneg = b.icmp(ICmpPred::Slt, Ty::I64, v, zero);
    b.br(isneg, neg, join);
    b.switch_to(neg);
    let tv = b.mul(Ty::I64, v, v);
    let s0 = b.load(Ty::I64, ps);
    let s1 = b.add(Ty::I64, s0, tv);
    b.store(Ty::I64, s1, ps);
    b.jmp(join);
    b.switch_to(join);
    let s2 = b.load(Ty::I64, ps);
    let d = b.iconst(Ty::I64, 3);
    let q = b.sdiv(Ty::I64, v, d);
    let s3 = b.add(Ty::I64, s2, q);
    b.store(Ty::I64, s3, ps);
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

fn assert_no_sdc(asm: &ferrum_asm::program::AsmProgram, what: &str) {
    let cpu = Cpu::load(asm).expect("loads");
    let profile = cpu.profile();
    assert_eq!(
        profile.result.stop,
        ferrum_cpu::outcome::StopReason::MainReturned,
        "{what}: fault-free run must complete"
    );
    let res = Campaign::exhaustive(4)
        .run(Engine::Interpreter(&cpu), &profile)
        .unwrap();
    assert_eq!(
        res.sdc,
        0,
        "{what}: SDCs under exhaustive injection: {:?} sites={} total={}",
        res.records
            .iter()
            .filter(|(_, o)| *o == ferrum_faultsim::campaign::Outcome::Sdc)
            .take(5)
            .collect::<Vec<_>>(),
        profile.sites.len(),
        res.total()
    );
    assert!(res.detected > 0, "{what}: detections expected");
}

#[test]
fn ferrum_full_coverage_exhaustive() {
    let m = kernel();
    let prot = Ferrum::new().protect_module(&m).expect("protects");
    assert_no_sdc(&prot, "ferrum");
}

#[test]
fn ferrum_requisition_full_coverage_exhaustive() {
    let m = kernel();
    let asm = ferrum_backend::compile(&m).unwrap();
    let cfg = FerrumConfig {
        force_requisition: true,
        ..FerrumConfig::default()
    };
    let prot = Ferrum::with_config(cfg).protect(&asm).expect("protects");
    assert_no_sdc(&prot, "ferrum-requisition");
}

#[test]
fn hybrid_full_coverage_exhaustive() {
    let m = kernel();
    let prot = HybridAsmEddi::new().protect(&m).expect("protects");
    assert_no_sdc(&prot, "hybrid");
}

#[test]
fn ferrum_full_coverage_with_function_calls() {
    // Calls matter: the callee's own protection clobbers the comparison
    // pair and the SIMD accumulators, so this exercises the
    // flush-before-call rule and the cross-function pair invariant.
    let mut callee = FunctionBuilder::new("combine", &[Ty::I64, Ty::I64], Some(Ty::I64));
    let t = callee.create_block("t");
    let e = callee.create_block("e");
    let a = callee.arg(0);
    let b2 = callee.arg(1);
    let c = callee.icmp(ICmpPred::Slt, Ty::I64, a, b2);
    callee.br(c, t, e);
    callee.switch_to(t);
    let m = callee.mul(Ty::I64, a, b2);
    callee.ret(Some(m));
    callee.switch_to(e);
    let s = callee.sub(Ty::I64, a, b2);
    callee.ret(Some(s));

    let mut main = FunctionBuilder::new("main", &[], None);
    let x = main.iconst(Ty::I64, 6);
    let y = main.iconst(Ty::I64, 7);
    let r1 = main.call("combine", vec![x, y], Some(Ty::I64)).unwrap();
    let r2 = main.call("combine", vec![y, x], Some(Ty::I64)).unwrap();
    let total = main.add(Ty::I64, r1, r2);
    main.print(total);
    main.ret(None);
    let m = Module::from_functions(vec![main.finish(), callee.finish()]);
    let prot = Ferrum::new().protect_module(&m).expect("protects");
    assert_no_sdc(&prot, "ferrum-with-calls");
}

#[test]
fn unprotected_program_is_vulnerable() {
    let m = kernel();
    let asm = ferrum_backend::compile(&m).unwrap();
    let cpu = Cpu::load(&asm).unwrap();
    let profile = cpu.profile();
    let res = Campaign::exhaustive(4)
        .run(Engine::Interpreter(&cpu), &profile)
        .unwrap();
    assert!(res.sdc > 0, "raw program should show SDCs");
}
