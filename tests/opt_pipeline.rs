//! Pass-pipeline invariants for the `-O1` backend: `-O0` byte-identity,
//! semantic equivalence on every workload, idempotence, pass-stat
//! exactness, and register-pool discipline against protection
//! manifests.

use ferrum::{Pipeline, StopReason};
use ferrum_backend::{compile, compile_opt, compile_with_stats, OptLevel, ProgramMeta};
use ferrum_workloads::{all_workloads, Scale};

#[test]
fn o0_is_byte_identical_to_the_plain_compiler() {
    for w in all_workloads() {
        let module = w.build(Scale::Test);
        let plain = compile(&module).expect("compiles");
        let o0 = compile_opt(&module, OptLevel::O0).expect("compiles");
        assert_eq!(plain, o0, "{}: -O0 must not perturb output", w.name);
    }
}

#[test]
fn o1_preserves_semantics_on_every_workload() {
    let pipeline = Pipeline::new();
    for w in all_workloads() {
        let module = w.build(Scale::Test);
        let oracle = w.oracle(Scale::Test);
        let prog = compile_opt(&module, OptLevel::O1)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        prog.validate()
            .unwrap_or_else(|e| panic!("{}: {e:?}", w.name));
        let run = pipeline.load(&prog).expect("loads").run(None);
        assert_eq!(run.stop, StopReason::MainReturned, "{}", w.name);
        assert_eq!(run.output, oracle, "{}: -O1 output vs oracle", w.name);
    }
}

#[test]
fn o1_shrinks_every_workload() {
    for w in all_workloads() {
        let module = w.build(Scale::Test);
        let o0 = compile(&module).expect("compiles");
        let (o1, stats) = compile_with_stats(&module, OptLevel::O1).expect("compiles");
        assert!(
            o1.static_inst_count() < o0.static_inst_count(),
            "{}: -O1 ({}) not smaller than -O0 ({})",
            w.name,
            o1.static_inst_count(),
            o0.static_inst_count()
        );
        assert!(stats.regalloc_allocated > 0, "{}: nothing allocated", w.name);
        assert!(
            stats.loads_forwarded + stats.loads_removed > 0,
            "{}: forwarding never fired",
            w.name
        );
    }
}

#[test]
fn the_pass_bundle_is_idempotent() {
    for w in all_workloads() {
        let module = w.build(Scale::Test);
        let meta = ProgramMeta::from_module(&module);
        let mut prog = compile_opt(&module, OptLevel::O1).expect("compiles");
        let before = prog.clone();
        let stats = ferrum_backend::opt::optimize(&mut prog, &meta);
        assert!(
            stats.bundle_is_noop(),
            "{}: second bundle run still changed code: {stats:?}",
            w.name
        );
        assert_eq!(before, prog, "{}: O1(O1(p)) != O1(p)", w.name);
    }
}

#[test]
fn pass_stats_account_for_the_exact_size_delta() {
    for w in all_workloads() {
        let module = w.build(Scale::Test);
        let meta = ProgramMeta::from_module(&module);
        // Run the bundle on plain -O0 output so both endpoints are
        // observable from outside.
        let mut prog = compile(&module).expect("compiles");
        let before = prog.static_inst_count() as u64;
        let stats = ferrum_backend::opt::optimize(&mut prog, &meta);
        let after = prog.static_inst_count() as u64;
        assert_eq!(
            before - after,
            stats.insts_removed(),
            "{}: stats {stats:?} disagree with size delta {before} -> {after}",
            w.name
        );
    }
}

#[test]
fn optimized_output_still_runs_after_bundling_o0_code() {
    let pipeline = Pipeline::new();
    for w in all_workloads() {
        let module = w.build(Scale::Test);
        let oracle = w.oracle(Scale::Test);
        let meta = ProgramMeta::from_module(&module);
        let mut prog = compile(&module).expect("compiles");
        ferrum_backend::opt::optimize(&mut prog, &meta);
        prog.validate()
            .unwrap_or_else(|e| panic!("{}: {e:?}", w.name));
        let run = pipeline.load(&prog).expect("loads").run(None);
        assert_eq!(run.stop, StopReason::MainReturned, "{}", w.name);
        assert_eq!(run.output, oracle, "{}: bundled -O0 output vs oracle", w.name);
    }
}

#[test]
fn regalloc_pool_never_touches_manifest_reserved_registers() {
    // FERRUM declares its requisitioned spares in a ProtectionManifest;
    // the -O1 pool must be disjoint so protection always finds them.
    let ferrum_pass = ferrum_eddi::Ferrum::new();
    for w in all_workloads() {
        let module = w.build(Scale::Test);
        let prog = compile_opt(&module, OptLevel::O1).expect("compiles");
        let (_, manifests) = ferrum_pass
            .protect_with_manifest(&prog)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for (fname, man) in &manifests {
            for g in &man.reserved_gprs {
                assert!(
                    !ferrum_backend::regalloc::POOL.contains(g),
                    "{}/{fname}: pool register {g} reserved by protection",
                    w.name
                );
            }
        }
    }
}

#[test]
fn asm_level_protection_keeps_full_coverage_on_optimized_programs() {
    // Regression for the hybrid pass's -O0-only assumption: it used to
    // skip asm-duplication of protection-tagged GPR sites on the theory
    // that protection code is always guarded by its own check.  After
    // -O1 value numbering that is false — master dataflow can be routed
    // through a lowered signature shadow, so a fault there corrupts
    // real output after the guarding check already ran.  Both asm-level
    // techniques must stay SDC-free on optimized input.
    use ferrum::{CampaignConfig, Technique};
    use ferrum_faultsim::Campaign;
    for name in ["needle", "kmeans", "pathfinder"] {
        let w = ferrum_workloads::workload(name).expect("in catalog");
        let module = w.build(Scale::Test);
        let pipeline = Pipeline::new().with_opt_level(OptLevel::O1);
        for technique in [Technique::HybridAsmEddi, Technique::Ferrum] {
            let prog = pipeline.protect(&module, technique).expect("protects");
            let cpu = pipeline.load(&prog).expect("loads");
            let profile = cpu.profile();
            let cfg = CampaignConfig {
                samples: 400,
                seed: 0xFE44,
            };
            let result = Campaign::sampled(cfg).run(&cpu, &profile).unwrap();
            assert_eq!(
                result.sdc, 0,
                "{name}/{technique}@O1: {} SDCs escaped asm-level protection",
                result.sdc
            );
        }
    }
}
