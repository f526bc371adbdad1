//! Regenerates Table II: the benchmark inventory, extended with the
//! measured static/dynamic sizes of this reproduction.

use ferrum::{Pipeline, Technique};
use ferrum_workloads::all_workloads;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = ferrum_bench::eval_config_or_exit(env!("CARGO_BIN_NAME"), &args);
    let pipeline = Pipeline::new();
    println!("Table II — benchmark details ({:?} scale)", cfg.scale);
    println!(
        "{:<16}{:<10}{:<22}{:>14}{:>14}",
        "Benchmark", "Suite", "Domain", "static insts", "dyn insts"
    );
    for w in all_workloads() {
        let module = w.build(cfg.scale);
        let prog = pipeline
            .protect(&module, Technique::None)
            .expect("compiles");
        let run = pipeline.load(&prog).expect("loads").run(None);
        println!(
            "{:<16}{:<10}{:<22}{:>14}{:>14}",
            w.name,
            w.suite,
            w.domain,
            prog.static_inst_count(),
            run.dyn_insts
        );
    }
}
