//! Fig. 11 on real silicon: assembles each benchmark × technique with
//! `gcc` via the timing harness (`emit_gnu_timing`), runs the binaries
//! natively, and reports wall-clock overheads — the empirical check on
//! the simulator's cost model.  The closing line gives the simulated
//! averages of the same programs (`repro_fig11`'s average row at the
//! same `--scale`).  Requires x86-64 Linux with gcc and AVX2; exits
//! quietly otherwise.

use std::process::Command;
use std::time::Instant;

use ferrum::{Pipeline, Technique};
use ferrum_eddi::ferrum::FerrumConfig;
use ferrum_faultsim::stats::runtime_overhead;
use ferrum_workloads::all_workloads;

const ITERS: u32 = 3000;
const REPS: usize = 7;

fn native_available() -> bool {
    cfg!(all(target_arch = "x86_64", target_os = "linux"))
        && Command::new("gcc").arg("--version").output().is_ok()
        && std::fs::read_to_string("/proc/cpuinfo")
            .unwrap_or_default()
            .contains("avx2")
}

fn build(asm_text: &str, path: &std::path::Path) {
    let s_path = path.with_extension("s");
    std::fs::write(&s_path, asm_text).expect("write .s");
    let out = Command::new("gcc")
        .arg("-no-pie")
        .arg("-o")
        .arg(path)
        .arg(&s_path)
        .output()
        .expect("gcc");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

fn time_binary(path: &std::path::Path) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let out = Command::new(path).output().expect("run");
        assert!(out.status.success());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    if !native_available() {
        eprintln!("native timing unavailable (needs x86-64 linux, gcc, AVX2)");
        return;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = ferrum_bench::eval_config_or_exit(env!("CARGO_BIN_NAME"), &args);
    let dir = std::env::temp_dir().join(format!("ferrum_timing_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("dir");
    let pipeline = Pipeline::new();
    println!(
        "Fig. 11 on real hardware — {} kernel iterations, best of {} runs, {:?} scale",
        ITERS, REPS, cfg.scale
    );
    println!(
        "{:<16}{:>12}{:>14}{:>14}{:>14}{:>14}",
        "benchmark", "raw (ms)", "IR-EDDI", "HYBRID-ASM", "FERRUM", "FERRUM-noSIMD"
    );
    let mut sums = [0.0f64; 4];
    let mut sim_sums = [0.0f64; 3];
    let mut count = 0usize;
    let sim_cycles = |p: &ferrum_asm::AsmProgram| pipeline.load(p).expect("loads").run(None).cycles;
    for w in all_workloads() {
        let module = w.build(cfg.scale);
        let raw = pipeline.protect(&module, Technique::None).expect("compiles");
        let raw_cycles = sim_cycles(&raw);
        let raw_bin = dir.join(format!("{}_raw", w.name));
        build(&ferrum_asm::gnu::emit_gnu_timing(&raw, ITERS), &raw_bin);
        let raw_t = time_binary(&raw_bin);
        print!("{:<16}{:>12.2}", w.name, raw_t * 1e3);
        for (i, t) in Technique::PROTECTED.into_iter().enumerate() {
            let prog = pipeline.protect(&module, t).expect("protects");
            sim_sums[i] += runtime_overhead(raw_cycles, sim_cycles(&prog));
            let bin = dir.join(format!("{}_{i}", w.name));
            build(&ferrum_asm::gnu::emit_gnu_timing(&prog, ITERS), &bin);
            let t_prot = time_binary(&bin);
            let overhead = t_prot / raw_t - 1.0;
            sums[i] += overhead;
            print!("{:>13.1}%", overhead * 100.0);
        }
        // FERRUM with SIMD batching disabled: isolates the cost of the
        // GPR→vector capture traffic.
        let noswim = Pipeline::new().with_ferrum_config(FerrumConfig {
            simd: false,
            ..FerrumConfig::default()
        });
        let prog = noswim.protect(&module, Technique::Ferrum).expect("protects");
        let bin = dir.join(format!("{}_nosimd", w.name));
        build(&ferrum_asm::gnu::emit_gnu_timing(&prog, ITERS), &bin);
        let overhead = time_binary(&bin) / raw_t - 1.0;
        sums[3] += overhead;
        print!("{:>13.1}%", overhead * 100.0);
        println!();
        count += 1;
    }
    print!("{:<16}{:>12}", "average", "");
    for s in sums {
        print!("{:>13.1}%", s / count as f64 * 100.0);
    }
    println!();
    let _ = std::fs::remove_dir_all(&dir);
    println!();
    let [ir, hybrid, ferrum] = sim_sums.map(|s| s / count as f64 * 100.0);
    println!(
        "(simulated averages for comparison: IR {ir:.1}%, HYBRID {hybrid:.1}%, FERRUM {ferrum:.1}%)"
    );
}
