//! Demonstrate the paper's central observation (§IV-B1): IR-level EDDI
//! looks fully protective at IR level, yet assembly-level fault
//! injection finds silent corruptions — all of them in code the backend
//! generated behind the IR's back.
//!
//! ```sh
//! cargo run --release --example coverage_gap
//! ```

use ferrum::{EngineKind, Pipeline, Technique};
use ferrum_faultsim::rootcause::{attribute_sdcs, render};
use ferrum_faultsim::{Campaign, CampaignConfig};
use ferrum_workloads::{workload, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = workload("kmeans").expect("in catalog");
    let module = w.build(Scale::Test);
    let pipeline = Pipeline::new();

    let build = pipeline.build(&module, Technique::IrEddi)?;
    let prog = build.program();

    // Static view: how much of the program is glue the IR never saw?
    let total = prog.static_inst_count();
    let glue: usize = prog
        .functions
        .iter()
        .flat_map(|f| f.insts())
        .filter(|ai| ai.prov.is_glue())
        .count();
    println!("IR-EDDI-protected kmeans: {total} instructions, {glue} backend glue");
    println!("(store staging, branch materialisation, call glue, frame setup)");
    println!();

    // Dynamic view: inject faults and attribute every silent corruption.
    let profile = build.profile();
    let res = Campaign::sampled(CampaignConfig {
        samples: 2000,
        seed: 13,
    })
    .run(build.engine(EngineKind::default()), profile)?;
    println!(
        "2000 faults into the protected program: {} SDC, {} detected, {} crash, {} benign",
        res.sdc, res.detected, res.crash, res.benign
    );
    println!();
    let report = attribute_sdcs(profile, &res);
    println!("{}", render(&report));
    println!("every residual SDC hit backend-generated or sync-point code —");
    println!("exactly the cross-layer gap FERRUM closes (coverage table: Fig. 10).");

    // Contrast: FERRUM on the same program.
    let ferrum = pipeline.build(&module, Technique::Ferrum)?;
    let fres = Campaign::sampled(CampaignConfig {
        samples: 2000,
        seed: 13,
    })
    .run(ferrum.engine(EngineKind::default()), ferrum.profile())?;
    println!();
    println!(
        "FERRUM, same campaign: {} SDC, {} detected, {} crash, {} benign",
        fres.sdc, fres.detected, fres.crash, fres.benign
    );
    assert_eq!(fres.sdc, 0);
    Ok(())
}
