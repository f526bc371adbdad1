//! Native hardware validation: emit GNU assembly, assemble with `gcc`,
//! and run the protected benchmarks on the *real* CPU.  This closes the
//! loop on the simulation substrate — the instruction dialect is a
//! genuine x86-64 subset, so FERRUM-protected code must compute the
//! oracle's answer on silicon too (SSE4.1 + AVX2 required for the
//! checker instructions).
//!
//! Every test skips gracefully when the environment can't run native
//! x86-64 binaries.

use std::process::Command;

use ferrum::{Pipeline, Technique};
use ferrum_workloads::{all_workloads, Scale};

fn native_available() -> bool {
    if !cfg!(target_arch = "x86_64") || !cfg!(target_os = "linux") {
        return false;
    }
    if Command::new("gcc").arg("--version").output().is_err() {
        return false;
    }
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    cpuinfo.contains("avx2") && cpuinfo.contains("sse4_1")
}

fn assemble_and_run(asm_text: &str, tag: &str) -> Vec<i64> {
    let dir = std::env::temp_dir().join(format!("ferrum_native_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let s_path = dir.join("prog.s");
    let bin_path = dir.join("prog");
    std::fs::write(&s_path, asm_text).expect("write .s");
    let gcc = Command::new("gcc")
        .arg("-no-pie")
        .arg("-o")
        .arg(&bin_path)
        .arg(&s_path)
        .output()
        .expect("run gcc");
    assert!(
        gcc.status.success(),
        "gcc failed for {tag}:\n{}",
        String::from_utf8_lossy(&gcc.stderr)
    );
    let run = Command::new(&bin_path).output().expect("run binary");
    assert!(
        run.status.success(),
        "native {tag} exited with {:?}: {}",
        run.status.code(),
        String::from_utf8_lossy(&run.stderr)
    );
    let out = String::from_utf8_lossy(&run.stdout)
        .lines()
        .map(|l| l.trim().parse::<i64>().expect("numeric output line"))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn protected_benchmarks_compute_the_oracle_on_real_hardware() {
    if !native_available() {
        eprintln!("skipping native test: no x86-64 linux + gcc + AVX2");
        return;
    }
    let pipeline = Pipeline::new();
    for w in all_workloads() {
        let module = w.build(Scale::Test);
        let oracle = w.oracle(Scale::Test);
        for t in [
            Technique::None,
            Technique::IrEddi,
            Technique::HybridAsmEddi,
            Technique::Ferrum,
        ] {
            let prog = pipeline.protect(&module, t).expect("protects");
            let text = ferrum_asm::gnu::emit_gnu(&prog);
            let got = assemble_and_run(&text, &format!("{}_{t:?}", w.name));
            assert_eq!(got, oracle, "{} under {t} on real hardware", w.name);
        }
    }
}

#[test]
fn zmm_free_checkers_run_natively() {
    // The AVX2 (non-ZMM) FERRUM configuration is the hardware-portable
    // one; make sure its full checker set (pinsrq, vinserti128, vpxor,
    // vptest) executes on this machine for a compute-heavy kernel.
    if !native_available() {
        eprintln!("skipping native test: no x86-64 linux + gcc + AVX2");
        return;
    }
    let w = ferrum_workloads::workload("particlefilter").expect("exists");
    let module = w.build(Scale::Test);
    let pipeline = Pipeline::new();
    let prog = pipeline
        .protect(&module, Technique::Ferrum)
        .expect("protects");
    let text = ferrum_asm::gnu::emit_gnu(&prog);
    assert!(text.contains("vptest"), "SIMD checkers present");
    let got = assemble_and_run(&text, "pf_ferrum");
    assert_eq!(got, w.oracle(Scale::Test));
}

#[test]
fn tampered_duplicate_is_detected_on_real_hardware() {
    // Simulate a stuck-at fault by statically corrupting one duplicate:
    // the native binary must take the exit_function path (exit code 57)
    // instead of printing wrong output.
    if !native_available() {
        eprintln!("skipping native test: no x86-64 linux + gcc + AVX2");
        return;
    }
    let w = ferrum_workloads::workload("pathfinder").expect("exists");
    let module = w.build(Scale::Test);
    let pipeline = Pipeline::new();
    let mut prog = pipeline
        .protect(&module, Technique::Ferrum)
        .expect("protects");
    // Find a protection-inserted immediate move (a duplicated constant)
    // and corrupt it.
    let mut tampered = false;
    'outer: for f in &mut prog.functions {
        for b in &mut f.blocks {
            for ai in &mut b.insts {
                if ai.prov.is_protection() {
                    // A 64-bit duplicated constant that feeds a batch
                    // check (the W8 pair initialisers are overwritten
                    // before any check reads them, so skip those).
                    if let ferrum_asm::inst::Inst::Mov {
                        w: ferrum_asm::reg::Width::W64,
                        src: ferrum_asm::operand::Operand::Imm(v),
                        dst: ferrum_asm::operand::Operand::Reg(_),
                    } = &mut ai.inst
                    {
                        *v ^= 1;
                        tampered = true;
                        break 'outer;
                    }
                }
            }
        }
    }
    assert!(tampered, "no duplicate immediate found to corrupt");
    let text = ferrum_asm::gnu::emit_gnu(&prog);

    let dir = std::env::temp_dir().join(format!("ferrum_native_tamper_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let s_path = dir.join("prog.s");
    let bin_path = dir.join("prog");
    std::fs::write(&s_path, text).expect("write .s");
    let gcc = Command::new("gcc")
        .arg("-no-pie")
        .arg("-o")
        .arg(&bin_path)
        .arg(&s_path)
        .output()
        .expect("run gcc");
    assert!(
        gcc.status.success(),
        "{}",
        String::from_utf8_lossy(&gcc.stderr)
    );
    let run = Command::new(&bin_path).output().expect("run binary");
    assert_eq!(
        run.status.code(),
        Some(ferrum_asm::gnu::DETECTED_EXIT_CODE),
        "the checker must fire on real hardware; stdout: {}",
        String::from_utf8_lossy(&run.stdout)
    );
    assert!(String::from_utf8_lossy(&run.stdout).contains("ferrum: fault detected"));
    let _ = std::fs::remove_dir_all(&dir);
}
