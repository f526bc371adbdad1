//! Ablation study over FERRUM's design choices (DESIGN.md §4):
//!
//! * SIMD batching off → every site falls back to scalar Fig.-4 checks,
//! * deferred flag detection off → `cmp`/`test` faults go unprotected
//!   (coverage drops below 100%),
//! * peephole off → no compiler-level transformations,
//! * forced requisition → the Fig.-7 stack path everywhere,
//! * ZMM mode → AVX-512 batches of eight (paper §III-B3's "also viable"),
//! * serial machine (no co-issue discount) → protection at full price.
//!
//! Reports runtime overhead and SDC coverage per variant, averaged over
//! the benchmark suite.

use ferrum::{CostModel, Pipeline, Technique};
use ferrum_eddi::ferrum::FerrumConfig;
use ferrum_faultsim::stats::{runtime_overhead, sdc_coverage};
use ferrum_faultsim::{Campaign, CampaignConfig};
use ferrum_workloads::all_workloads;

struct Variant {
    name: &'static str,
    cfg: FerrumConfig,
    cost: CostModel,
}

fn variants() -> Vec<Variant> {
    let full = FerrumConfig::default();
    let base_cost = CostModel::default();
    let serial = CostModel {
        protection_percent: 100,
        ..base_cost
    };
    vec![
        Variant {
            name: "full FERRUM",
            cfg: full,
            cost: base_cost,
        },
        Variant {
            name: "no SIMD",
            cfg: FerrumConfig {
                simd: false,
                ..full
            },
            cost: base_cost,
        },
        Variant {
            name: "no deferred flags",
            cfg: FerrumConfig {
                deferred_flags: false,
                ..full
            },
            cost: base_cost,
        },
        Variant {
            name: "no peephole",
            cfg: FerrumConfig {
                peephole: false,
                ..full
            },
            cost: base_cost,
        },
        Variant {
            name: "forced requisition",
            cfg: FerrumConfig {
                force_requisition: true,
                ..full
            },
            cost: base_cost,
        },
        Variant {
            name: "ZMM (AVX-512) batches",
            cfg: FerrumConfig { zmm: true, ..full },
            cost: base_cost,
        },
        Variant {
            name: "serial machine",
            cfg: full,
            cost: serial,
        },
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = ferrum_bench::parse_eval_config(&args);
    println!(
        "FERRUM ablations — {} faults/config, {:?} scale",
        cfg.samples, cfg.scale
    );
    println!("{:<22}{:>14}{:>14}", "variant", "overhead", "coverage");
    for v in variants() {
        let pipeline = Pipeline::new()
            .with_ferrum_config(v.cfg)
            .with_cost_model(v.cost);
        let mut overhead_sum = 0.0;
        let mut coverage_sum = 0.0;
        let mut n = 0usize;
        for w in all_workloads() {
            let module = w.build(cfg.scale);
            let raw = pipeline
                .protect(&module, Technique::None)
                .expect("compiles");
            let raw_cpu = pipeline.load(&raw).expect("loads");
            let raw_profile = raw_cpu.profile();
            let raw_campaign = Campaign::sampled(CampaignConfig {
                samples: cfg.samples,
                seed: cfg.seed,
            })
            .run(&raw_cpu, &raw_profile)
            .unwrap();
            let prot = pipeline
                .protect(&module, Technique::Ferrum)
                .expect("protects");
            let cpu = pipeline.load(&prot).expect("loads");
            let profile = cpu.profile();
            let campaign = Campaign::sampled(CampaignConfig {
                samples: cfg.samples,
                seed: cfg.seed + 1,
            })
            .run(&cpu, &profile)
            .unwrap();
            overhead_sum += runtime_overhead(raw_profile.result.cycles, profile.result.cycles);
            coverage_sum += sdc_coverage(raw_campaign.sdc_prob(), campaign.sdc_prob());
            n += 1;
        }
        println!(
            "{:<22}{:>13.1}%{:>13.1}%",
            v.name,
            overhead_sum / n as f64 * 100.0,
            coverage_sum / n as f64 * 100.0
        );
    }
}
