//! Regenerates Fig. 10: SDC coverage per benchmark for IR-LEVEL-EDDI,
//! HYBRID-ASSEMBLY-LEVEL-EDDI, and FERRUM, measured with assembly-level
//! fault injection (1000 sampled single-bit faults per configuration by
//! default).
//!
//! Paper reference points: FERRUM and the hybrid baseline reach 100%
//! everywhere; IR-level EDDI averages 72%, bottoming out around 50–54%
//! on kNN and Needle.

use ferrum::{evaluate_workload, Pipeline};
use ferrum_workloads::all_workloads;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let cfg = ferrum_bench::eval_config_or_exit(env!("CARGO_BIN_NAME"), &args);
    let pipeline = Pipeline::new();
    eprintln!(
        "# Fig. 10 reproduction — {} faults/config, seed {}, {:?} scale, {}",
        cfg.samples,
        cfg.seed,
        cfg.scale,
        cfg.opt.label()
    );
    let mut reports = Vec::new();
    for w in all_workloads() {
        eprintln!("  running {} ...", w.name);
        let r = evaluate_workload(&pipeline, &w, cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        reports.push(r);
    }
    if json {
        // Machine-readable artifact: full per-benchmark reports.
        let mut slim = reports.clone();
        for r in &mut slim {
            for t in &mut r.techniques {
                t.campaign.records.clear();
            }
        }
        println!("{}", ferrum::report::to_json(&slim));
        return;
    }
    println!("Fig. 10 — SDC coverage (higher is better)");
    print!("{}", ferrum::report::render_coverage_table(&reports));
    println!();
    print!(
        "{}",
        ferrum::report::render_bars("SDC coverage per benchmark:", &reports, |t| t.coverage, 1.0)
    );
    println!();
    println!("raw SDC probability per benchmark (context):");
    for r in &reports {
        println!("  {:<16}{:>6.1}%", r.name, r.raw_sdc_prob * 100.0);
    }
    println!();
    println!("campaign-engine throughput (snapshot engine, see repro_speedup):");
    print!("{}", ferrum::report::render_throughput_table(&reports));
}
