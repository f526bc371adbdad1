//! The exact-sum property of per-mechanism overhead attribution: on
//! every catalog workload, the per-mechanism executed-instruction (and
//! cycle) counts from the fault-free profile must account for the
//! FERRUM-minus-baseline delta *exactly*, where the baseline is the
//! peepholed unprotected build (FERRUM peepholes before protecting).
//! A failure here means a protection emission site lost its
//! `Provenance::Protection(_, Mechanism)` tag.

use ferrum::{diff_profile, Error, Mechanism, OverheadAttribution, Pipeline, Technique};
use ferrum_eddi::FerrumConfig;
use ferrum_mir::module::Module;
use ferrum_workloads::{all_workloads, Scale};

/// FERRUM on `module` against its baseline, both under `pipeline`.
fn attribute(pipeline: &Pipeline, module: &Module) -> Result<OverheadAttribution, Error> {
    let baseline = pipeline.baseline(module)?;
    let ferrum = pipeline.build(module, Technique::Ferrum)?;
    Ok(diff_profile(&baseline, &ferrum)?.attribution)
}

#[test]
fn mechanism_counts_sum_exactly_on_every_catalog_workload() {
    let pipeline = Pipeline::new();
    let mut seen = [0u64; Mechanism::ALL.len()];
    for w in all_workloads() {
        let module = w.build(Scale::Test);
        let att = attribute(&pipeline, &module).expect(w.name);
        assert!(
            att.protection_insts() > 0,
            "{}: no protection insts",
            w.name
        );
        assert!(
            att.reconciles(),
            "{}: baseline {} insts + mechanism sum {} != protected {} \
             (cycles {} + {} vs {})",
            w.name,
            att.baseline_dyn_insts,
            att.protection_insts(),
            att.protected_dyn_insts,
            att.baseline_cycles,
            att.protection_cycles(),
            att.protected_cycles,
        );
        for m in Mechanism::ALL {
            seen[m as usize] += att.mech.get(m).insts;
        }
    }
    // Across the catalog every mechanism except stack requisition must
    // fire (requisition only triggers under register exhaustion).
    for m in Mechanism::ALL {
        if m == Mechanism::Requisition {
            continue;
        }
        assert!(seen[m as usize] > 0, "{}: never executed", m.label());
    }
}

#[test]
fn requisition_mechanism_reconciles_when_forced() {
    let pipeline = Pipeline::new().with_ferrum_config(FerrumConfig {
        force_requisition: true,
        ..FerrumConfig::default()
    });
    let w = ferrum_workloads::workload("bfs").expect("exists");
    let att = attribute(&pipeline, &w.build(Scale::Test)).expect("attributes");
    assert!(
        att.mech.get(Mechanism::Requisition).insts > 0,
        "forced requisition must execute requisition glue: {att:?}"
    );
    assert!(att.reconciles(), "{att:?}");
}
