//! Stack-level register requisition (paper §III-B4, Fig. 7) under
//! stress: the forced-requisition configuration must stay transparent
//! and fully protective across the entire benchmark suite, and must
//! actually emit the push/pop idiom.

use ferrum::{EngineKind, Pipeline, StopReason, Technique};
use ferrum_asm::inst::Inst;
use ferrum_eddi::ferrum::{Ferrum, FerrumConfig};
use ferrum_faultsim::{Campaign, CampaignConfig};
use ferrum_workloads::{all_workloads, Scale};

fn requisition_pipeline() -> Pipeline {
    Pipeline::new().with_ferrum_config(FerrumConfig {
        force_requisition: true,
        ..FerrumConfig::default()
    })
}

#[test]
fn forced_requisition_is_transparent_on_every_workload() {
    let pipeline = requisition_pipeline();
    for w in all_workloads() {
        let module = w.build(Scale::Test);
        let prog = pipeline
            .protect(&module, Technique::Ferrum)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        prog.validate()
            .unwrap_or_else(|e| panic!("{}: {e:?}", w.name));
        let run = pipeline.load(&prog).expect("loads").run(None);
        assert_eq!(run.stop, StopReason::MainReturned, "{}", w.name);
        assert_eq!(run.output, w.oracle(Scale::Test), "{}", w.name);
    }
}

#[test]
fn forced_requisition_keeps_full_coverage() {
    let pipeline = requisition_pipeline();
    for w in all_workloads() {
        let module = w.build(Scale::Test);
        let build = pipeline.build(&module, Technique::Ferrum).expect("builds");
        let res = Campaign::sampled(CampaignConfig {
            samples: 150,
            seed: 31,
        })
        .run(build.engine(EngineKind::default()), build.profile())
        .unwrap();
        assert_eq!(res.sdc, 0, "{}: requisition mode must stay at 100%", w.name);
    }
}

#[test]
fn requisition_emits_fig7_idiom_with_red_zone_checks() {
    let w = ferrum_workloads::workload("pathfinder").expect("exists");
    let module = w.build(Scale::Test);
    let asm = ferrum_backend::compile(&module).expect("compiles");
    let cfg = FerrumConfig {
        force_requisition: true,
        ..FerrumConfig::default()
    };
    let (prog, stats) = Ferrum::with_config(cfg)
        .protect_with_stats(&asm)
        .expect("protects");
    assert!(stats.requisitioned_blocks > 0);
    let main = prog.function("main").expect("main");
    let pushes = main
        .insts()
        .filter(|a| a.prov.is_protection() && matches!(a.inst, Inst::Push { .. }))
        .count();
    let pops = main
        .insts()
        .filter(|a| a.prov.is_protection() && matches!(a.inst, Inst::Pop { .. }))
        .count();
    assert!(pushes > 0, "requisition pushes expected");
    // Every exit path pops what the entry pushed; stubs add more exits,
    // so pops ≥ pushes.
    assert!(pops >= pushes, "pushes {pushes} pops {pops}");
    // Each protection pop is followed by its red-zone verification.
    for b in &main.blocks {
        for (i, ai) in b.insts.iter().enumerate() {
            if ai.prov.is_protection() && matches!(ai.inst, Inst::Pop { .. }) {
                let next = &b.insts[i + 1].inst;
                assert!(
                    matches!(next, Inst::Cmp { .. }),
                    "pop without red-zone check in {}",
                    b.label
                );
            }
        }
    }
}

#[test]
fn requisition_mode_costs_more_than_normal_mode() {
    // The paper: requisition trades performance for registers
    // ("with some extra performance overheads", §III-B4).
    let w = ferrum_workloads::workload("needle").expect("exists");
    let module = w.build(Scale::Test);
    let normal = Pipeline::new();
    let forced = requisition_pipeline();
    let pn = normal.protect(&module, Technique::Ferrum).unwrap();
    let pf = forced.protect(&module, Technique::Ferrum).unwrap();
    let cn = normal.load(&pn).unwrap().run(None).cycles;
    let cf = forced.load(&pf).unwrap().run(None).cycles;
    assert!(
        cf > cn,
        "requisition {cf} should cost more than normal {cn}"
    );
}
