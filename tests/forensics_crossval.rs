//! Cross-validation of differential-replay forensics against campaign
//! ground truth — the acceptance contract of `ferrum-forensics`.
//!
//! Four halves, mirroring the acceptance criteria (DESIGN.md §5e):
//!
//! 1. **Replay is observational**: `forensic_report` replays exactly
//!    the campaign's matching records, fault for fault and with the
//!    outcomes the campaign booked, across every catalog workload ×
//!    technique.
//! 2. **Every SDC is explained**: each analyzed SDC record locates its
//!    first architectural divergence exactly at the injected dynamic
//!    index, and at least 90% carry a classified escape reason (the
//!    engine achieves 100%; the floor leaves slack for future
//!    classifiers).
//! 3. **Explanations are internally consistent**: cumulative taint is
//!    monotone, the kill window contains the divergence, and the
//!    window closes no later than the corruption's arrival at the
//!    output.
//! 4. **Unknown sites get diagnosed**: statically-`Unknown` coverage
//!    sites that produced an SDC cross-link to a measured explanation.
//!
//! A property-based module (compiled only with `--features proptest`
//! after restoring the external dev-dependency) re-checks the
//! invariants over random seeds.

use ferrum::{
    explain_unknown_sites, forensic_report, Campaign, CampaignConfig, CoverageMap, ForensicConfig,
    Outcome, Pipeline, Technique,
};
use ferrum_faultsim::forensics::{EscapeReason, ForensicRecord, ForensicsReport};
use ferrum_workloads::catalog::{all_workloads, Scale};

const SAMPLES: usize = 200;
const SEED: u64 = 0xF0E2;

fn analyze(
    pipeline: &Pipeline,
    module: &ferrum_mir::module::Module,
    technique: Technique,
    outcomes: Vec<Outcome>,
) -> (
    ferrum::CampaignResult,
    ForensicsReport,
    Vec<ferrum::UnknownSiteExplanation>,
) {
    let prog = pipeline.protect(module, technique).expect("protects");
    let map = CoverageMap::analyze(&prog);
    let cpu = pipeline.load(&prog).expect("loads");
    let profile = cpu.profile();
    let cfg = CampaignConfig {
        samples: SAMPLES,
        seed: SEED,
    };
    let serial = Campaign::sampled(cfg).run(&cpu, &profile).unwrap();
    let fcfg = ForensicConfig {
        outcomes,
        max_records: usize::MAX,
        ..ForensicConfig::default()
    };
    let report = forensic_report(&cpu, &profile, &serial, &fcfg);
    let expl = explain_unknown_sites(&profile, &map, &report);
    (serial, report, expl)
}

/// The consistency contract for one record (halves 2 and 3 above).
fn check_record(ctx: &str, r: &ForensicRecord) {
    let d = r
        .divergence
        .unwrap_or_else(|| panic!("{ctx}: record has no divergence"));
    assert_eq!(
        d.dyn_index, r.fault.dyn_index,
        "{ctx}: divergence must sit at the injected site"
    );
    assert!(
        r.primary_reason.is_some() || r.outcome != Outcome::Sdc,
        "{ctx}: every SDC must be classified"
    );
    let mut prev = 0usize;
    let mut prev_dyn = 0u64;
    for (i, s) in r.taint.samples.iter().enumerate() {
        assert!(
            s.cumulative >= prev,
            "{ctx}: cumulative taint must be monotone"
        );
        assert!(
            i == 0 || s.dyn_index > prev_dyn,
            "{ctx}: taint samples must advance in time"
        );
        prev = s.cumulative;
        prev_dyn = s.dyn_index;
    }
    assert!(
        r.taint.propagation_depth >= 1,
        "{ctx}: a bit flip taints at least one location"
    );
    if let Some(w) = &r.kill_window {
        if !w.escaped {
            assert!(
                w.contains(d.dyn_index),
                "{ctx}: kill window [{}, {}] must contain the divergence at {}",
                w.start,
                w.end,
                d.dyn_index
            );
            if let Some(out) = r.taint.time_to_output {
                assert!(
                    w.end <= out,
                    "{ctx}: repairs past the output write ({out}) cannot kill the fault"
                );
            }
        }
    }
}

#[test]
fn forensic_campaigns_are_outcome_identical_for_all_workloads() {
    let pipeline = Pipeline::new();
    for w in all_workloads() {
        let module = w.build(Scale::Test);
        for technique in [
            Technique::None,
            Technique::IrEddi,
            Technique::HybridAsmEddi,
            Technique::Ferrum,
        ] {
            let (serial, report, _) = analyze(&pipeline, &module, technique, vec![Outcome::Sdc]);
            let replayed: Vec<_> = report
                .records
                .iter()
                .map(|r| (r.fault, r.outcome))
                .collect();
            let matching: Vec<_> = serial
                .records
                .iter()
                .filter(|r| r.1 == Outcome::Sdc)
                .copied()
                .collect();
            assert_eq!(
                replayed, matching,
                "{}/{technique}: forensic replay diverged from the campaign's records",
                w.name
            );
        }
    }
}

#[test]
fn every_sdc_is_located_and_classified() {
    let pipeline = Pipeline::new();
    let mut total_sdc = 0usize;
    for w in all_workloads() {
        let module = w.build(Scale::Test);
        // IR-EDDI leaks SDCs through backend glue; the raw build leaks
        // everywhere.  Between them every workload contributes records.
        for technique in [Technique::None, Technique::IrEddi] {
            let (forensic, report, _) = analyze(&pipeline, &module, technique, vec![Outcome::Sdc]);
            assert_eq!(
                report.matching_total, forensic.sdc,
                "{}/{technique}: every SDC must be selected",
                w.name
            );
            assert_eq!(
                report.analyzed(),
                report.matching_total,
                "{}/{technique}: every selected SDC must be analyzed",
                w.name
            );
            assert_eq!(
                report.located(),
                report.analyzed(),
                "{}/{technique}: every record must locate its divergence",
                w.name
            );
            assert!(
                report.classified() as f64 >= 0.9 * report.analyzed() as f64,
                "{}/{technique}: at least 90% of records must be classified ({}/{})",
                w.name,
                report.classified(),
                report.analyzed()
            );
            total_sdc += forensic.sdc;
            for r in &report.records {
                check_record(&format!("{}/{technique}", w.name), r);
            }
            let hist_sum: usize = report.reason_histogram.iter().map(|&(_, n)| n).sum();
            assert_eq!(
                hist_sum,
                report.classified(),
                "{}/{technique}: histogram must account for every classification",
                w.name
            );
        }
    }
    assert!(
        total_sdc > 0,
        "the suite must exercise real SDCs to mean anything"
    );
}

#[test]
fn non_sdc_outcomes_replay_consistently() {
    let pipeline = Pipeline::new();
    let module = ferrum_workloads::workload("pathfinder")
        .expect("exists")
        .build(Scale::Test);
    let (forensic, report, _) =
        analyze(&pipeline, &module, Technique::Ferrum, Outcome::ALL.to_vec());
    assert_eq!(report.matching_total, forensic.total());
    assert_eq!(report.analyzed(), report.matching_total);
    for r in &report.records {
        check_record("pathfinder/all-outcomes", r);
        if r.outcome == Outcome::Benign {
            assert_eq!(
                r.taint.time_to_output, None,
                "a benign fault never corrupts the output"
            );
        }
        if r.outcome == Outcome::Detected {
            assert!(
                r.checkers
                    .iter()
                    .all(|c| c.reason != EscapeReason::CheckerNotReached),
                "a detected fault by definition reached a checker"
            );
        }
    }
}

#[test]
fn unknown_coverage_sites_cross_link_to_explanations() {
    let pipeline = Pipeline::new();
    let mut linked = 0usize;
    for w in all_workloads() {
        let module = w.build(Scale::Test);
        let (_, report, expl) = analyze(&pipeline, &module, Technique::IrEddi, vec![Outcome::Sdc]);
        // Every explanation must point back to an analyzed SDC record.
        for e in &expl {
            let rec = report
                .records
                .iter()
                .find(|r| r.fault.dyn_index == e.dyn_index && r.fault.raw_bit == e.raw_bit)
                .unwrap_or_else(|| panic!("{}: dangling explanation", w.name));
            assert_eq!(rec.outcome, Outcome::Sdc);
            assert_eq!(e.reason, rec.primary_reason);
        }
        linked += expl.len();
    }
    // The suite as a whole must produce at least one cross-link — an
    // IR-EDDI SDC on a site static analysis could not decide.
    assert!(
        linked > 0,
        "expected at least one statically-unknown SDC site across the catalog"
    );
}

/// Property-based re-checks of the record invariants over random seeds.
/// Compiled only with `--features proptest` after restoring the
/// external `proptest` dev-dependency (hermetic-build policy).
#[cfg(feature = "proptest")]
mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn records_stay_consistent_over_seeds(seed in 0u64..1_000_000) {
            let pipeline = Pipeline::new();
            let module = ferrum_workloads::workload("bfs").expect("exists").build(Scale::Test);
            let prog = pipeline.protect(&module, Technique::IrEddi).expect("protects");
            let cpu = pipeline.load(&prog).expect("loads");
            let profile = cpu.profile();
            let cfg = CampaignConfig { samples: 60, seed };
            let serial = Campaign::sampled(cfg).run(&cpu, &profile).unwrap();
            let fcfg = ForensicConfig {
                outcomes: vec![Outcome::Sdc],
                max_records: usize::MAX,
                ..ForensicConfig::default()
            };
            let report = forensic_report(&cpu, &profile, &serial, &fcfg);
            prop_assert_eq!(report.matching_total, serial.sdc);
            for r in &report.records {
                check_record(&format!("bfs/seed{seed}"), r);
            }
        }
    }
}
