//! Extension: selective protection sweep — the coverage/overhead
//! trade-off curve of the EDDI literature (the paper's related work:
//! SDCTune \[9\], selective duplication evaluation \[19\]).  FERRUM's
//! `selective_percent` stripes protection evenly over the site stream.

use ferrum::{Pipeline, Technique};
use ferrum_eddi::ferrum::FerrumConfig;
use ferrum_faultsim::stats::{runtime_overhead, sdc_coverage};
use ferrum_faultsim::{Campaign, CampaignConfig};
use ferrum_workloads::all_workloads;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = ferrum_bench::parse_eval_config(&args);
    println!(
        "selective FERRUM sweep — {} faults/config, {:?} scale (suite averages)",
        cfg.samples, cfg.scale
    );
    println!("{:>10}{:>14}{:>14}", "percent", "overhead", "coverage");
    for percent in [0u8, 25, 50, 75, 100] {
        let fcfg = FerrumConfig {
            selective_percent: percent,
            ..FerrumConfig::default()
        };
        let pipeline = Pipeline::new().with_ferrum_config(fcfg);
        let mut o_sum = 0.0;
        let mut c_sum = 0.0;
        let mut n = 0usize;
        for w in all_workloads() {
            let module = w.build(cfg.scale);
            let raw = pipeline
                .protect(&module, Technique::None)
                .expect("compiles");
            let raw_cpu = pipeline.load(&raw).expect("loads");
            let raw_prof = raw_cpu.profile();
            let raw_res = Campaign::sampled(CampaignConfig {
                samples: cfg.samples,
                seed: cfg.seed,
            })
            .run(&raw_cpu, &raw_prof)
            .unwrap();
            let prog = pipeline
                .protect(&module, Technique::Ferrum)
                .expect("protects");
            let cpu = pipeline.load(&prog).expect("loads");
            let prof = cpu.profile();
            let res = Campaign::sampled(CampaignConfig {
                samples: cfg.samples,
                seed: cfg.seed + 1,
            })
            .run(&cpu, &prof)
            .unwrap();
            o_sum += runtime_overhead(raw_prof.result.cycles, prof.result.cycles);
            c_sum += sdc_coverage(raw_res.sdc_prob(), res.sdc_prob());
            n += 1;
        }
        println!(
            "{:>9}%{:>13.1}%{:>13.1}%",
            percent,
            o_sum / n as f64 * 100.0,
            c_sum / n as f64 * 100.0
        );
    }
}
