//! Keeps docs/TUTORIAL.md honest: every code block in the walkthrough,
//! compiled and executed.

use ferrum::{EngineKind, Pipeline, Technique};
use ferrum_cpu::fault::FaultSpec;
use ferrum_faultsim::{Campaign, CampaignConfig};
use ferrum_mir::builder::FunctionBuilder;
use ferrum_mir::module::{Global, Module};
use ferrum_mir::types::Ty;
use ferrum_workloads::dsl::{for_loop, load_elem, Var};

fn dot_product() -> Module {
    let mut module = Module::new();
    let ga = module.add_global(Global::new("a", vec![1, 2, 3, 4]));
    let gb = module.add_global(Global::new("b", vec![4, 3, 2, 1]));
    let mut b = FunctionBuilder::new("main", &[], None);
    let (a, bb) = (b.global(ga), b.global(gb));
    let acc = Var::zero(&mut b, Ty::I64);
    let zero = b.iconst(Ty::I64, 0);
    let n = b.iconst(Ty::I64, 4);
    for_loop(&mut b, zero, n, |b, i| {
        let x = load_elem(b, a, i);
        let y = load_elem(b, bb, i);
        let p = b.mul(Ty::I64, x, y);
        acc.add_assign(b, p);
    });
    let r = acc.get(&mut b);
    b.print(r);
    b.ret(None);
    module.functions.push(b.finish());
    module
}

#[test]
fn tutorial_step_1_kernel_and_interpreter() {
    let m = dot_product();
    ferrum_mir::verify::verify_module(&m).unwrap();
    let out = ferrum_mir::interp::Interp::new(&m).run().unwrap();
    assert_eq!(out.output, vec![4 + 6 + 6 + 4]);
}

#[test]
fn tutorial_step_2_listing_has_provenance() {
    let m = dot_product();
    let asm = ferrum_backend::compile(&m).unwrap();
    let listing = ferrum_asm::printer::print_program(&asm);
    assert!(listing.contains("# ir:"));
    assert!(listing.contains("# glue:"));
}

#[test]
fn tutorial_steps_3_to_5_protect_inject_measure() {
    let m = dot_product();
    let pipeline = Pipeline::new();
    let raw = pipeline.build(&m, Technique::None).unwrap();
    let ferrum_ = pipeline.build(&m, Technique::Ferrum).unwrap();
    assert!(ferrum_.program().static_inst_count() > raw.program().static_inst_count());
    assert_eq!(raw.profile().result.output, ferrum_.profile().result.output);

    let profile = ferrum_.profile();
    let plan = Campaign::sampled(CampaignConfig {
        samples: 500,
        seed: 1,
    });
    let res = plan
        .run(ferrum_.engine(EngineKind::default()), profile)
        .unwrap();
    assert_eq!(res.sdc, 0);
    assert!(res.detected > 0);
    let fast = plan.threads(4);
    assert_eq!(
        fast.run(ferrum_.engine(EngineKind::default()), profile)
            .unwrap(),
        res
    );
    assert_eq!(
        plan.run(ferrum_.engine(EngineKind::Interpreter), profile)
            .unwrap(),
        res
    );

    let raw_cycles = raw.profile().result.cycles;
    let prot_cycles = ferrum_.profile().result.cycles;
    assert!(prot_cycles > raw_cycles / 2, "sanity");

    let trace = ferrum_.cpu().run_traced(Some(FaultSpec::new(40, 3)), 200);
    assert!(!trace.render().is_empty());
}

#[test]
fn tutorial_step_3b_config_knobs() {
    use ferrum_eddi::ferrum::FerrumConfig;
    let m = dot_product();
    let cfg = FerrumConfig {
        zmm: true,
        selective_percent: 75,
        ..FerrumConfig::default()
    };
    let pipeline = Pipeline::new().with_ferrum_config(cfg);
    let prot = pipeline.build(&m, Technique::Ferrum).unwrap();
    let golden = pipeline.build(&m, Technique::None).unwrap();
    assert_eq!(prot.profile().result.output, golden.profile().result.output);
}
