//! Regenerates Fig. 11: runtime performance overhead per benchmark for
//! the three techniques, from fault-free simulated cycles.
//!
//! Paper reference points (averages): IR-LEVEL-EDDI 62.27%,
//! HYBRID-ASSEMBLY-LEVEL-EDDI 83.39%, FERRUM 29.83% — i.e. FERRUM is
//! the cheapest and the hybrid baseline the most expensive, with an
//! ~52% speed-up of FERRUM over IR-level EDDI.

use ferrum::{Pipeline, Technique};
use ferrum_faultsim::stats::runtime_overhead;
use ferrum_workloads::all_workloads;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = ferrum_bench::eval_config_or_exit(env!("CARGO_BIN_NAME"), &args);
    let pipeline = Pipeline::new();
    println!("Fig. 11 — runtime performance overhead (lower is better)");
    println!(
        "{:<16}{:>12}{:>14}{:>14}{:>14}",
        "benchmark", "raw cycles", "IR-EDDI", "HYBRID-ASM", "FERRUM"
    );
    let mut sums = [0.0f64; 3];
    let mut count = 0usize;
    for w in all_workloads() {
        let module = w.build(cfg.scale);
        let raw = pipeline
            .protect(&module, Technique::None)
            .expect("compiles");
        let raw_cycles = pipeline.load(&raw).expect("loads").run(None).cycles;
        print!("{:<16}{:>12}", w.name, raw_cycles);
        for (i, t) in Technique::PROTECTED.into_iter().enumerate() {
            let p = pipeline.protect(&module, t).expect("protects");
            let cycles = pipeline.load(&p).expect("loads").run(None).cycles;
            let o = runtime_overhead(raw_cycles, cycles);
            sums[i] += o;
            print!("{:>13.1}%", o * 100.0);
        }
        println!();
        count += 1;
    }
    print!("{:<16}{:>12}", "average", "");
    for s in sums {
        print!("{:>13.1}%", s / count as f64 * 100.0);
    }
    println!();
}
