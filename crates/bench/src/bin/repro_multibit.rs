//! Extension experiment (the paper's stated future work, §II-A):
//! **double-fault campaigns**.  Two independent single-bit faults are
//! injected per execution.  Duplication-based detection is built for
//! single faults; with two, a value and its duplicate can in principle
//! be corrupted consistently, so coverage may drop below 100% — this
//! harness measures by how much.

use ferrum::{Pipeline, Technique};
use ferrum_faultsim::stats::sdc_coverage;
use ferrum_faultsim::{Campaign, CampaignConfig};
use ferrum_workloads::all_workloads;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = ferrum_bench::eval_config_or_exit(env!("CARGO_BIN_NAME"), &args);
    let pipeline = Pipeline::new();
    println!(
        "double-fault extension — {} fault pairs/config, {:?} scale",
        cfg.samples, cfg.scale
    );
    println!(
        "{:<16}{:>12}{:>14}{:>14}{:>16}",
        "benchmark", "raw 2-SDC", "FERRUM cov.", "single cov.", "FERRUM 2-SDCs"
    );
    let mut cov2_sum = 0.0;
    let mut n = 0usize;
    for w in all_workloads() {
        let module = w.build(cfg.scale);
        let raw = pipeline
            .protect(&module, Technique::None)
            .expect("compiles");
        let raw_cpu = pipeline.load(&raw).expect("loads");
        let raw_profile = raw_cpu.profile();
        let c = CampaignConfig {
            samples: cfg.samples,
            seed: cfg.seed,
        };
        let raw2 = Campaign::double(c).run(&raw_cpu, &raw_profile).unwrap();
        let prog = pipeline
            .protect(&module, Technique::Ferrum)
            .expect("protects");
        let cpu = pipeline.load(&prog).expect("loads");
        let profile = cpu.profile();
        let prot2 = Campaign::double(c).run(&cpu, &profile).unwrap();
        let raw1 = Campaign::sampled(c).run(&raw_cpu, &raw_profile).unwrap();
        let prot1 = Campaign::sampled(c).run(&cpu, &profile).unwrap();
        let cov2 = sdc_coverage(raw2.sdc_prob(), prot2.sdc_prob());
        let cov1 = sdc_coverage(raw1.sdc_prob(), prot1.sdc_prob());
        cov2_sum += cov2;
        n += 1;
        println!(
            "{:<16}{:>11.1}%{:>13.1}%{:>13.1}%{:>16}",
            w.name,
            raw2.sdc_prob() * 100.0,
            cov2 * 100.0,
            cov1 * 100.0,
            prot2.sdc
        );
    }
    println!();
    println!(
        "average FERRUM double-fault coverage: {:.2}% (single-fault: 100%)",
        cov2_sum / n as f64 * 100.0
    );
    println!("a drop below 100% here is expected and motivates the paper's future work");
}
