//! Cross-engine and cross-schedule determinism beyond the axis matrix
//! of `tests/campaign_plan.rs`: the whole catalog on the decoded
//! engine, `-O1` programs, worker counts, and seeds.  Every plan must
//! produce identical `CampaignResult`s (same aggregate counts AND same
//! per-fault outcome records, in sampling order) to the one-thread
//! interpreter plan for the same seed, and that plan's records must
//! classify as whole runs of their faults do.

use ferrum::{Campaign, CampaignConfig, CampaignResult, DecodedCpu, Engine, Pipeline, Technique};
use ferrum_cpu::run::Cpu;
use ferrum_cpu::Profile;
use ferrum_faultsim::campaign::classify;
use ferrum_workloads::{all_workloads, workload, Scale};

fn load(name: &str, t: Technique) -> (Cpu, Profile) {
    load_opt(name, t, ferrum::OptLevel::O0)
}

fn load_opt(name: &str, t: Technique, opt: ferrum::OptLevel) -> (Cpu, Profile) {
    let w = workload(name).expect("in catalog");
    let module = w.build(Scale::Test);
    let pipeline = Pipeline::new().with_opt_level(opt);
    let prog = pipeline.protect(&module, t).expect("protects");
    let cpu = pipeline.load(&prog).expect("loads");
    let profile = cpu.profile();
    (cpu, profile)
}

fn assert_identical(a: &CampaignResult, b: &CampaignResult, what: &str) {
    assert_eq!(a.records, b.records, "{what}: per-fault records differ");
    assert_eq!(a, b, "{what}: aggregate counts differ");
    assert_eq!(
        a.stats.latency, b.stats.latency,
        "{what}: latency distributions differ"
    );
}

#[test]
fn decoded_engine_is_byte_identical_across_the_whole_catalog() {
    // Every catalog workload × every technique: campaign outcomes per
    // seed must not depend on the engine.  (Run + profile identity over
    // the same sweep is `ferrum selfcheck cpu` in tier-1.)
    for w in all_workloads() {
        for technique in [
            Technique::None,
            Technique::IrEddi,
            Technique::HybridAsmEddi,
            Technique::Ferrum,
        ] {
            let (cpu, profile) = load(w.name, technique);
            let decoded = DecodedCpu::new(&cpu);
            let cfg = CampaignConfig {
                samples: 60,
                seed: 0xFE44_0006,
            };
            assert_identical(
                &Campaign::sampled(cfg)
                    .run(Engine::Decoded(&decoded), &profile)
                    .unwrap(),
                &Campaign::sampled(cfg)
                    .run(Engine::Interpreter(&cpu), &profile)
                    .unwrap(),
                &format!("{}/{technique}", w.name),
            );
        }
    }
}

#[test]
fn engines_and_executors_agree_on_optimized_programs() {
    // The -O1 pass bundle rewires register flow and deletes frame
    // round-trips; the decoded engine's superinstruction fusion and
    // checkpointed replay on four workers must stay byte-identical on
    // that output too, for raw and protected programs alike.
    for name in ["needle", "kmeans"] {
        for technique in [Technique::None, Technique::IrEddi, Technique::Ferrum] {
            let (cpu, profile) = load_opt(name, technique, ferrum::OptLevel::O1);
            let decoded = DecodedCpu::new(&cpu);
            let cfg = CampaignConfig {
                samples: 200,
                seed: 0x01F0_2024,
            };
            let what = format!("{name}/{technique}@O1");

            let serial = Campaign::sampled(cfg)
                .run(Engine::Interpreter(&cpu), &profile)
                .unwrap();
            assert_identical(
                &Campaign::sampled(cfg)
                    .run(Engine::Decoded(&decoded), &profile)
                    .unwrap(),
                &serial,
                &format!("{what} decoded"),
            );
            for engine in [Engine::Interpreter(&cpu), Engine::Decoded(&decoded)] {
                let kind = engine.kind().label();
                assert_identical(
                    &Campaign::sampled(cfg)
                        .threads(4)
                        .run(engine, &profile)
                        .unwrap(),
                    &serial,
                    &format!("{what} ×4/{kind}"),
                );
            }
        }
    }
}

#[test]
fn checkpoint_replay_never_changes_outcomes() {
    // Every record of a three-worker campaign, replayed from golden
    // checkpoints on either engine, classifies as the whole run of its
    // fault from the entry state does.
    let (cpu, profile) = load("bfs", Technique::Ferrum);
    let decoded = DecodedCpu::new(&cpu);
    let cfg = CampaignConfig {
        samples: 200,
        seed: 7,
    };
    let serial = Campaign::sampled(cfg)
        .run(Engine::Interpreter(&cpu), &profile)
        .unwrap();
    assert!(serial.stats.snapshot_hits > 0, "{:?}", serial.stats);
    for (k, &(fault, outcome)) in serial.records.iter().enumerate() {
        let whole = cpu.run(Some(fault));
        let o = classify(whole.stop, &whole.output, &profile.result.output);
        assert_eq!(o, outcome, "record {k}: {fault:?}");
    }
    for engine in [Engine::Interpreter(&cpu), Engine::Decoded(&decoded)] {
        let plan = Campaign::sampled(cfg).threads(3);
        let what = format!("×3/{}", engine.kind().label());
        assert_identical(&serial, &plan.run(engine, &profile).unwrap(), &what);
    }
}

#[test]
fn same_seed_same_result_different_seed_different_samples() {
    let (cpu, profile) = load("knn", Technique::None);
    let run = |seed, threads| {
        Campaign::sampled(CampaignConfig { samples: 250, seed })
            .threads(threads)
            .run(Engine::Interpreter(&cpu), &profile)
            .unwrap()
    };
    let (a, b, c) = (run(1, 2), run(1, 4), run(2, 4));
    assert_identical(&a, &b, "same seed, different thread counts");
    assert_ne!(
        a.records, c.records,
        "different seeds must sample different faults"
    );
}

#[test]
fn throughput_counters_are_populated() {
    let (cpu, profile) = load("pathfinder", Technique::None);
    let r = Campaign::sampled(CampaignConfig {
        samples: 400,
        seed: 3,
    })
    .threads(4)
    .run(Engine::Interpreter(&cpu), &profile)
    .unwrap();
    let s = &r.stats;
    assert_eq!(s.injections, 400);
    assert!(s.injections_per_sec > 0.0);
    assert!(s.threads >= 1);
    assert!(s.snapshots_taken > 0, "{s:?}");
    assert!(s.snapshot_hits > 0, "{s:?}");
    assert!(s.steps_saved > 0, "{s:?}");
    assert!(s.snapshot_hit_rate() <= 1.0);
    assert!(s.steps_saved_ratio() <= 1.0);
}
