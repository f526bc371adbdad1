//! Cross-validation of the static coverage map against injection
//! ground truth — the soundness contract of `ferrum-coverage`.
//!
//! Three halves, mirroring the acceptance criteria (DESIGN.md §5d):
//!
//! 1. **Sound verdicts are never wrong**: across every catalog
//!    workload × {ferrum, requisition, hybrid, ir-eddi}, injection
//!    must agree with every `Masked` (→ `Benign`) and `Detected`
//!    (→ `Detected`) claim — in particular, no SDC may ever land on a
//!    statically-decided site.
//! 2. **Pruning changes nothing**: a plan pruned by the map is
//!    outcome-identical to the serial engine per seed, fault for
//!    fault.
//! 3. **Pruning is worth it**: on FERRUM-protected catalog binaries
//!    the reported prune rate clears 20%.

use ferrum::{Pipeline, Technique};
use ferrum_asm::analysis::coverage::{CoverageMap, StaticVerdict};
use ferrum_asm::program::AsmProgram;
use ferrum_cpu::outcome::StopReason;
use ferrum_cpu::run::{Cpu, Profile};
use ferrum_cpu::fault::FaultSpec;
use ferrum_eddi::ferrum::{Ferrum, FerrumConfig};
use ferrum_eddi::hybrid::HybridAsmEddi;
use ferrum_faultsim::campaign::{CampaignConfig, Outcome, SnapshotPolicy};
use ferrum_faultsim::Campaign;
use ferrum_mir::module::Module;
use ferrum_workloads::catalog::{all_workloads, Scale};

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// All four protection configurations under test.
fn protect_all(m: &Module) -> Vec<(&'static str, AsmProgram)> {
    let requisition = {
        let asm = ferrum_backend::compile(m).expect("compiles");
        let cfg = FerrumConfig {
            force_requisition: true,
            ..FerrumConfig::default()
        };
        Ferrum::with_config(cfg).protect(&asm).expect("protects")
    };
    vec![
        (
            "ferrum",
            Ferrum::new().protect_module(m).expect("ferrum protects"),
        ),
        ("requisition", requisition),
        (
            "hybrid",
            HybridAsmEddi::new().protect(m).expect("hybrid protects"),
        ),
        (
            "ir-eddi",
            Pipeline::new()
                .protect(m, Technique::IrEddi)
                .expect("ir-eddi protects"),
        ),
    ]
}

/// The static verdict governing one sampled fault, via the profile's
/// dyn-index → pc mapping.
fn verdict_of(profile: &Profile, map: &CoverageMap, fault: FaultSpec) -> Option<StaticVerdict> {
    let i = profile
        .sites
        .binary_search_by_key(&fault.dyn_index, |s| s.dyn_index)
        .expect("sampled fault must come from a profiled site");
    map.verdict_at(profile.sites[i].pc, fault.raw_bit)
}

/// Injects `samples` faults into `asm` and asserts every record agrees
/// with the map's sound verdicts.  `expect_decided` additionally
/// requires that some sampled fault actually hit a decided site (true
/// for the asm-level techniques, whose checker idioms the analysis
/// recognises; ir-eddi's lowered checks are opaque to it and may
/// yield no decided sites at all).
fn assert_sound(what: &str, asm: &AsmProgram, samples: usize, expect_decided: bool) {
    let map = CoverageMap::analyze(asm);
    let cpu = Cpu::load(asm).expect("loads");
    let profile = cpu.profile();
    assert_eq!(
        profile.result.stop,
        StopReason::MainReturned,
        "{what}: golden run must complete"
    );
    let cfg = CampaignConfig {
        samples,
        seed: 0xC0DE,
    };
    let res = Campaign::sampled(cfg)
        .threads(threads())
        .snapshots(SnapshotPolicy::default())
        .run(&cpu, &profile)
        .unwrap();
    let mut decided = 0usize;
    for &(fault, outcome) in &res.records {
        match verdict_of(&profile, &map, fault) {
            Some(StaticVerdict::Masked) => {
                decided += 1;
                assert_eq!(
                    outcome,
                    Outcome::Benign,
                    "{what}: Masked site {fault:?} produced {outcome:?}"
                );
            }
            Some(StaticVerdict::Detected) => {
                decided += 1;
                assert_eq!(
                    outcome,
                    Outcome::Detected,
                    "{what}: Detected site {fault:?} produced {outcome:?}"
                );
            }
            _ => {}
        }
    }
    // Sanity: the check must actually exercise sound verdicts on
    // protected binaries, or the test proves nothing.
    assert!(
        !expect_decided || decided > 0,
        "{what}: no sampled fault hit a statically-decided site"
    );
}

#[test]
fn sound_verdicts_match_injection_on_every_workload_and_config() {
    for w in all_workloads() {
        let m = w.build(Scale::Test);
        for (cfg_name, asm) in protect_all(&m) {
            let expect_decided = cfg_name != "ir-eddi";
            assert_sound(&format!("{}/{}", cfg_name, w.name), &asm, 800, expect_decided);
        }
    }
}

#[test]
fn pruned_engine_is_outcome_identical_across_configs() {
    // Every config on one workload; the FERRUM config on every
    // workload is covered by the prune-rate test below.
    let w = ferrum_workloads::workload("pathfinder").expect("exists");
    let m = w.build(Scale::Test);
    for (cfg_name, asm) in protect_all(&m) {
        let map = CoverageMap::analyze(&asm);
        let cpu = Cpu::load(&asm).expect("loads");
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: 400,
            seed: 0xFE44,
        };
        let serial = Campaign::sampled(cfg).run(&cpu, &profile).unwrap();
        let pruned = Campaign::sampled(cfg)
            .prune(&map)
            .run(&cpu, &profile)
            .unwrap();
        assert_eq!(
            serial, pruned,
            "{cfg_name}/pathfinder: pruned engine diverged from serial"
        );
    }
}

#[test]
fn ferrum_prune_rate_clears_twenty_percent_on_all_workloads() {
    for w in all_workloads() {
        let m = w.build(Scale::Test);
        let asm = Ferrum::new().protect_module(&m).expect("protects");
        let map = CoverageMap::analyze(&asm);
        let cpu = Cpu::load(&asm).expect("loads");
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: 400,
            seed: 0xFE44,
        };
        let serial = Campaign::sampled(cfg).run(&cpu, &profile).unwrap();
        let pruned = Campaign::sampled(cfg)
            .prune(&map)
            .run(&cpu, &profile)
            .unwrap();
        assert_eq!(
            serial, pruned,
            "ferrum/{}: pruned engine diverged from serial",
            w.name
        );
        assert!(
            pruned.stats.prune_rate() >= 0.20,
            "ferrum/{}: prune rate {:.1}% below the 20% floor ({} of {} pruned)",
            w.name,
            pruned.stats.prune_rate() * 100.0,
            pruned.stats.pruned_sites,
            pruned.total(),
        );
    }
}

/// The manifest-validated analysis must stay sound too (it can only
/// demote claims, never add them) and keep stock FERRUM output above
/// the prune floor.
#[test]
fn manifest_validated_map_is_sound_and_still_prunes() {
    let w = ferrum_workloads::workload("backprop").expect("exists");
    let m = w.build(Scale::Test);
    let asm = ferrum_backend::compile(&m).expect("compiles");
    let (prot, manifests) = Ferrum::new().protect_with_manifest(&asm).expect("protects");
    let plain = CoverageMap::analyze(&prot);
    let validated = CoverageMap::analyze_with(&prot, Some(&manifests));
    // Validation only demotes Detected → Unknown.
    let (p, v) = (plain.rollup(), validated.rollup());
    assert_eq!(p.masked, v.masked);
    assert!(v.detected <= p.detected);
    assert_eq!(p.total(), v.total());

    let cpu = Cpu::load(&prot).expect("loads");
    let profile = cpu.profile();
    let cfg = CampaignConfig {
        samples: 400,
        seed: 0xBEEF,
    };
    let serial = Campaign::sampled(cfg).run(&cpu, &profile).unwrap();
    let pruned = Campaign::sampled(cfg)
        .prune(&validated)
        .run(&cpu, &profile)
        .unwrap();
    assert_eq!(serial, pruned);
    assert!(
        pruned.stats.prune_rate() >= 0.20,
        "manifest-validated prune rate {:.1}% below the 20% floor",
        pruned.stats.prune_rate() * 100.0
    );
}
