//! Whole-suite campaign invariants: the paper's coverage claims hold on
//! every benchmark, not just hand-picked kernels.

use ferrum::{Pipeline, Technique};
use ferrum_faultsim::rootcause::attribute_sdcs;
use ferrum_faultsim::{Campaign, CampaignConfig};
use ferrum_workloads::{all_workloads, Scale};

const SAMPLES: usize = 220;

#[test]
fn raw_programs_are_vulnerable_everywhere() {
    let pipeline = Pipeline::new();
    for w in all_workloads() {
        let prog = pipeline
            .protect(&w.build(Scale::Test), Technique::None)
            .unwrap();
        let cpu = pipeline.load(&prog).unwrap();
        let profile = cpu.profile();
        let res = Campaign::sampled(CampaignConfig {
            samples: SAMPLES,
            seed: 1,
        })
        .run(&cpu, &profile)
        .unwrap();
        assert!(res.sdc > 0, "{}: expected SDCs in the raw program", w.name);
        assert_eq!(
            res.detected, 0,
            "{}: nothing to detect without protection",
            w.name
        );
    }
}

#[test]
fn ferrum_shows_no_sdc_on_any_workload() {
    let pipeline = Pipeline::new();
    for w in all_workloads() {
        let prog = pipeline
            .protect(&w.build(Scale::Test), Technique::Ferrum)
            .unwrap();
        let cpu = pipeline.load(&prog).unwrap();
        let profile = cpu.profile();
        let res = Campaign::sampled(CampaignConfig {
            samples: SAMPLES,
            seed: 2,
        })
        .run(&cpu, &profile)
        .unwrap();
        assert_eq!(
            res.sdc, 0,
            "{}: FERRUM must give 100% coverage: {res:?}",
            w.name
        );
        assert!(res.detected > 0, "{}: checkers should fire", w.name);
    }
}

#[test]
fn hybrid_shows_no_sdc_on_any_workload() {
    let pipeline = Pipeline::new();
    for w in all_workloads() {
        let prog = pipeline
            .protect(&w.build(Scale::Test), Technique::HybridAsmEddi)
            .unwrap();
        let cpu = pipeline.load(&prog).unwrap();
        let profile = cpu.profile();
        let res = Campaign::sampled(CampaignConfig {
            samples: SAMPLES,
            seed: 3,
        })
        .run(&cpu, &profile)
        .unwrap();
        assert_eq!(res.sdc, 0, "{}: hybrid must give 100% coverage", w.name);
        assert!(res.detected > 0, "{}", w.name);
    }
}

#[test]
fn ir_eddi_detects_much_but_leaks_in_backend_glue() {
    let pipeline = Pipeline::new();
    let mut leaked_total = 0usize;
    let mut glue_attributed = 0usize;
    for w in all_workloads() {
        let prog = pipeline
            .protect(&w.build(Scale::Test), Technique::IrEddi)
            .unwrap();
        let cpu = pipeline.load(&prog).unwrap();
        let profile = cpu.profile();
        let res = Campaign::sampled(CampaignConfig {
            samples: SAMPLES,
            seed: 4,
        })
        .run(&cpu, &profile)
        .unwrap();
        assert!(
            res.detected > 0,
            "{}: IR-EDDI must detect something",
            w.name
        );
        let rc = attribute_sdcs(&cpu, &profile, &res);
        assert_eq!(
            rc.protection, 0,
            "{}: protection code must never cause SDC",
            w.name
        );
        leaked_total += rc.total_sdc;
        glue_attributed += rc.glue_total();
    }
    assert!(
        leaked_total > 0,
        "IR-EDDI must leak somewhere across the suite"
    );
    assert!(
        glue_attributed * 2 >= leaked_total,
        "most residual SDCs should be backend glue: {glue_attributed}/{leaked_total}"
    );
}

#[test]
fn overhead_ordering_matches_the_paper() {
    // Averaged over the suite: FERRUM < IR-EDDI < HYBRID (Fig. 11).
    let pipeline = Pipeline::new();
    let mut sums = [0.0f64; 3];
    for w in all_workloads() {
        let module = w.build(Scale::Test);
        let raw = pipeline.protect(&module, Technique::None).unwrap();
        let raw_cycles = pipeline.load(&raw).unwrap().run(None).cycles as f64;
        for (i, t) in Technique::PROTECTED.into_iter().enumerate() {
            let p = pipeline.protect(&module, t).unwrap();
            let c = pipeline.load(&p).unwrap().run(None).cycles as f64;
            sums[i] += (c - raw_cycles) / raw_cycles;
        }
    }
    let [ir, hybrid, ferrum] = sums;
    assert!(ferrum < ir, "FERRUM {ferrum} should beat IR-EDDI {ir}");
    assert!(ir < hybrid, "IR-EDDI {ir} should beat hybrid {hybrid}");
    // The headline: FERRUM is at least 35% faster than IR-level EDDI
    // (the paper reports ~52%).
    assert!(
        ferrum < ir * 0.65,
        "FERRUM {ferrum} vs IR {ir}: speed-up too small"
    );
}

#[test]
fn timeouts_and_crashes_are_classified_not_conflated() {
    // Faults in loop counters can cause both; the classifier must keep
    // them apart from SDCs.
    let pipeline = Pipeline::new();
    let w = ferrum_workloads::workload("bfs").expect("exists");
    let prog = pipeline
        .protect(&w.build(Scale::Test), Technique::None)
        .unwrap();
    let cpu = pipeline.load(&prog).unwrap();
    let profile = cpu.profile();
    let res = Campaign::sampled(CampaignConfig {
        samples: 400,
        seed: 9,
    })
    .run(&cpu, &profile)
    .unwrap();
    assert!(
        res.crash > 0,
        "pointer-heavy code should crash sometimes: {res:?}"
    );
    assert_eq!(res.total(), 400);
}
