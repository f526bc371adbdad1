//! Quantifies the paper's §IV-B2 explanation for the hybrid baseline's
//! overhead: "there are more assembly instructions generated when
//! compiled from IR to assembly.  The additional assembly instructions
//! ... are also duplicated by HYBRID-ASSEMBLY-LEVEL-EDDI (but they do
//! not appear at IR level protection)".
//!
//! Prints, per benchmark: the raw program's dynamic glue share (the
//! cross-layer footprint), and each technique's dynamic expansion
//! factor.

use ferrum::{Pipeline, Technique};
use ferrum_workloads::all_workloads;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = ferrum_bench::eval_config_or_exit(env!("CARGO_BIN_NAME"), &args);
    let pipeline = Pipeline::new();
    println!(
        "§IV-B2 — cross-layer footprint and dynamic expansion ({:?} scale)",
        cfg.scale
    );
    println!(
        "{:<16}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "benchmark", "raw dyn", "glue share", "IR-EDDI x", "HYBRID x", "FERRUM x"
    );
    for w in all_workloads() {
        let module = w.build(cfg.scale);
        let raw = pipeline
            .protect(&module, Technique::None)
            .expect("compiles");
        let raw_prof = pipeline.load(&raw).expect("loads").profile();
        let raw_dyn = raw_prof.result.dyn_insts;
        let glue_share = raw_prof.prov_counts.glue as f64 / raw_dyn as f64;
        print!("{:<16}{:>12}{:>11.1}%", w.name, raw_dyn, glue_share * 100.0);
        for t in Technique::PROTECTED {
            let p = pipeline.protect(&module, t).expect("protects");
            let d = pipeline.load(&p).expect("loads").run(None).dyn_insts;
            print!("{:>11.2}x", d as f64 / raw_dyn as f64);
        }
        println!();
    }
    println!();
    println!("HYBRID duplicates the glue share too (scalar, per-instruction checks);");
    println!("IR-EDDI cannot see it; FERRUM covers it with batched SIMD checks.");
}
