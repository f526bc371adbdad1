//! Run a full fault-injection campaign on one benchmark and print the
//! outcome distribution per technique — a single-benchmark slice of the
//! paper's Fig. 10 methodology.
//!
//! ```sh
//! cargo run --release --example fault_campaign [benchmark] [samples]
//! ```

use ferrum::{Pipeline, Technique};
use ferrum_faultsim::stats::{sdc_coverage, wilson_interval};
use ferrum_faultsim::{Campaign, CampaignConfig};
use ferrum_workloads::{workload, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str).unwrap_or("needle");
    let samples: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(500);
    let w = workload(name).unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
    let module = w.build(Scale::Test);
    let pipeline = Pipeline::new();

    println!("fault campaign on `{name}` — {samples} single-bit faults per config");
    println!(
        "{:<28}{:>8}{:>10}{:>8}{:>9}{:>8}{:>11}",
        "configuration", "SDC", "detected", "crash", "timeout", "benign", "coverage"
    );

    let raw = pipeline.protect(&module, Technique::None)?;
    let raw_cpu = pipeline.load(&raw)?;
    let raw_profile = raw_cpu.profile();
    let raw_res =
        Campaign::sampled(CampaignConfig { samples, seed: 7 }).run(&raw_cpu, &raw_profile)?;
    println!(
        "{:<28}{:>8}{:>10}{:>8}{:>9}{:>8}{:>11}",
        "RAW", raw_res.sdc, raw_res.detected, raw_res.crash, raw_res.timeout, raw_res.benign, "-"
    );

    for t in Technique::PROTECTED {
        let prog = pipeline.protect(&module, t)?;
        let cpu = pipeline.load(&prog)?;
        let profile = cpu.profile();
        let res = Campaign::sampled(CampaignConfig { samples, seed: 8 }).run(&cpu, &profile)?;
        let cov = sdc_coverage(raw_res.sdc_prob(), res.sdc_prob());
        println!(
            "{:<28}{:>8}{:>10}{:>8}{:>9}{:>8}{:>10.1}%",
            t.label(),
            res.sdc,
            res.detected,
            res.crash,
            res.timeout,
            res.benign,
            cov * 100.0
        );
    }

    let (lo, hi) = wilson_interval(raw_res.sdc, samples);
    println!();
    println!(
        "raw SDC probability: {:.1}% (95% CI {:.1}%–{:.1}%) over {} injectable sites",
        raw_res.sdc_prob() * 100.0,
        lo * 100.0,
        hi * 100.0,
        raw_profile.sites.len()
    );
    Ok(())
}
