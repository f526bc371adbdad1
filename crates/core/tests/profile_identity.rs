//! Cross-engine profile identity over the full catalog.
//!
//! The exact profile is a cross-engine oracle (DESIGN.md §5j): both
//! engines charge every dynamic instruction to its pc during the
//! profile walk, so the per-pc, per-function, and folded-stack counts
//! — and the per-mechanism rollup — must be byte-identical between the
//! reference interpreter and the decode-once engine for every
//! workload, technique, and optimization level.  A divergence here
//! means the engines disagree on dispatch order, cycle pricing, or
//! call tracking, which would silently skew every downstream
//! overhead table.

use ferrum::{OptLevel, Pipeline, Technique};
use ferrum_workloads::{all_workloads, Scale};

const TECHNIQUES: [Technique; 4] = [
    Technique::None,
    Technique::IrEddi,
    Technique::HybridAsmEddi,
    Technique::Ferrum,
];

#[test]
fn per_pc_profiles_are_byte_identical_across_engines() {
    for opt in [OptLevel::O0, OptLevel::O1] {
        let pipeline = Pipeline::new().with_opt_level(opt);
        for w in all_workloads() {
            let module = w.build(Scale::Test);
            for technique in TECHNIQUES {
                let ctx = format!("{}/{technique}/{}", w.name, opt.label());
                let build = pipeline
                    .build(&module, technique)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                // A build's golden profile comes from the decoded engine.
                let interp = build.cpu().profile();
                let decoded = build.profile();
                assert_eq!(interp.result, decoded.result, "{ctx}: golden result");
                assert_eq!(interp.pcs.pcs, decoded.pcs.pcs, "{ctx}: per-pc counts");
                assert_eq!(
                    interp.pcs.funcs, decoded.pcs.funcs,
                    "{ctx}: per-function counts"
                );
                assert_eq!(
                    interp.pcs.stacks, decoded.pcs.stacks,
                    "{ctx}: folded stacks"
                );
                assert_eq!(
                    interp.mech_counts, decoded.mech_counts,
                    "{ctx}: mechanism rollup"
                );
                // The profile reconciles with itself: pc totals equal
                // the golden run, and folded stacks partition it.
                let total = interp.pcs.total();
                assert_eq!(total.insts, interp.result.dyn_insts, "{ctx}");
                assert_eq!(total.cycles, interp.result.cycles, "{ctx}");
                let stack_cycles: u64 = interp.pcs.stacks.iter().map(|(_, c)| c.cycles).sum();
                assert_eq!(stack_cycles, interp.result.cycles, "{ctx}");
            }
        }
    }
}

#[test]
fn per_site_overhead_reconciles_for_the_full_matrix() {
    // The pc-granular refinement of the PR 3 exact-sum invariant:
    // summing the per-site mechanism counts of the differential
    // profile must land exactly on the whole-program per-mechanism
    // attribution, for every workload x technique x opt level.
    for opt in [OptLevel::O0, OptLevel::O1] {
        let pipeline = Pipeline::new().with_opt_level(opt);
        for w in all_workloads() {
            let module = w.build(Scale::Test);
            let baseline = pipeline.baseline(&module).expect("builds");
            for technique in TECHNIQUES {
                let ctx = format!("{}/{technique}/{}", w.name, opt.label());
                let d = pipeline
                    .build(&module, technique)
                    .and_then(|build| ferrum::diff_profile(&baseline, &build))
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert!(d.sites_reconcile(), "{ctx}: site sum != mechanism totals");
            }
        }
    }
}
