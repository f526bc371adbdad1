//! One generated identity test over the campaign plan's axes.
//!
//! For each fault list, every valid combination of the other axes —
//! engine × threads {1, 3} × snapshots {off, default, dense} × prune
//! {off, coverage map} × reuse {none, a journal cut at its midpoint, a
//! warm shard cache} — must return the records and the
//! detection-latency distribution of the one-thread cold interpreter
//! plan over the same fault list, with `stats` in the 18-key schema of
//! docs/campaign-schema.md.  A fault booked without executing (pruned
//! or reused) has no dynamic trace and so no latency sample: when a
//! plan books any, its latency samples must be a sub-multiset of the
//! reference's.  Sampled plans run on two workloads, each
//! unprotected and FERRUM-protected; stratified plans compare against
//! the cold stratified plan; double-fault and exhaustive plans close
//! the matrix on a small kernel.

use ferrum::json::{Json, ToJson};
use ferrum::{
    Campaign, CampaignCache, CampaignConfig, CampaignFingerprint, CampaignResult, CoverageMap,
    DecodedCpu, Engine, EngineKind, FaultList, JournalSnapshot, OutcomeTallies, Pipeline, Reuse,
    ShardRecord, SnapshotPolicy, Technique,
};
use ferrum_asm::program::AsmProgram;
use ferrum_cpu::run::{Cpu, Profile};
use ferrum_workloads::{workload, Scale};

/// Key list of the `stats` object, in emission order — update
/// docs/campaign-schema.md when this changes.
const STATS_KEYS: &str = "engine wall_nanos injections injections_per_sec threads \
    snapshots_taken snapshot_hits snapshot_hit_rate steps_saved steps_executed \
    steps_saved_ratio per_worker worker_balance detection_latency pruned_sites prune_rate \
    reused_sites reuse_rate";

const CFG: CampaignConfig = CampaignConfig {
    samples: 48,
    seed: 0xDECADE,
};

const SNAPSHOTS: [Option<SnapshotPolicy>; 3] = [
    None,
    Some(SnapshotPolicy {
        max_snapshots: 64,
        min_interval: 64,
    }),
    // Dense: a snapshot every few instructions, up to a large cap.
    Some(SnapshotPolicy {
        max_snapshots: 512,
        min_interval: 4,
    }),
];

/// A loaded program with everything the axes need.
struct Subject {
    label: String,
    prog: AsmProgram,
    cpu: Cpu,
    decoded: DecodedCpu,
    profile: Profile,
    map: CoverageMap,
}

impl Subject {
    fn catalog(name: &str, technique: Technique) -> Subject {
        let module = workload(name).expect("in catalog").build(Scale::Test);
        let pipeline = Pipeline::new();
        let prog = pipeline.protect(&module, technique).expect("protects");
        Subject::of(format!("{name}/{technique}"), prog)
    }

    fn of(label: String, prog: AsmProgram) -> Subject {
        let cpu = Cpu::load(&prog).expect("loads");
        let decoded = DecodedCpu::new(&cpu);
        let profile = cpu.profile();
        // Profiles, and hence fault lists, do not depend on the engine.
        let dprofile = Engine::Decoded(&decoded).profile();
        assert_eq!(profile.sites, dprofile.sites, "{label}: decoded sites");
        assert_eq!(
            profile.result, dprofile.result,
            "{label}: decoded golden run"
        );
        let map = CoverageMap::analyze(&prog);
        Subject {
            label,
            prog,
            cpu,
            decoded,
            profile,
            map,
        }
    }

    /// Runs every valid combination of threads, snapshots, prune (when
    /// `prunable`), and `reuses` over `faults` on both engines, and
    /// checks each against `reference`.
    fn check_axes(
        &self,
        faults: FaultList<'_>,
        prunable: bool,
        reuses: &[Reuse<'_>],
        reference: &CampaignResult,
    ) -> usize {
        let prunes = [None, Some(&self.map)];
        let prunes = &prunes[..1 + usize::from(prunable)];
        let mut plans = 0;
        for engine in [Engine::from(&self.cpu), Engine::from(&self.decoded)] {
            for threads in [1, 3] {
                for snapshots in SNAPSHOTS {
                    for &prune in prunes {
                        for &reuse in reuses {
                            let plan = Campaign::new(faults)
                                .threads(threads)
                                .snapshots(snapshots)
                                .prune(prune)
                                .reuse(reuse);
                            let what = format!(
                                "{} {} ×{threads} {snapshots:?} prune={} on {}",
                                self.label,
                                plan.executor(),
                                prune.is_some(),
                                engine.kind().label()
                            );
                            let got = plan
                                .run(engine, &self.profile)
                                .unwrap_or_else(|e| panic!("{what}: {e}"));
                            assert_identical(&got, reference, &what);
                            check_stats(&what, engine.kind(), threads, &got);
                            if prune.is_none() {
                                assert_eq!(got.stats.pruned_sites, 0, "{what}: pruned");
                            }
                            if matches!(reuse, Reuse::None) {
                                assert_eq!(got.stats.reused_sites, 0, "{what}: reused");
                            }
                            plans += 1;
                        }
                    }
                }
            }
        }
        plans
    }
}

fn assert_identical(got: &CampaignResult, reference: &CampaignResult, what: &str) {
    assert_eq!(
        got.records, reference.records,
        "{what}: per-fault records differ"
    );
    assert_eq!(got, reference, "{what}: aggregate counts differ");
    let (got_lat, ref_lat) = (
        got.stats.latency.samples(),
        reference.stats.latency.samples(),
    );
    if got.stats.pruned_sites + got.stats.reused_sites == 0 {
        assert_eq!(got_lat, ref_lat, "{what}: latency distributions differ");
        assert_eq!(
            got_lat.len(),
            got.detected,
            "{what}: one sample per detection"
        );
    } else {
        // Both sorted: a merge walk finds every sample in the reference.
        let mut rest = ref_lat.iter();
        assert!(
            got_lat.iter().all(|s| rest.any(|r| r == s)),
            "{what}: latency samples {got_lat:?} not drawn from {ref_lat:?}"
        );
    }
}

/// The 18 keys of the `stats` JSON, in order, with every derived rate
/// finite and in [0, 1].
fn check_schema(label: &str, result: &CampaignResult) {
    let j = result.stats.to_json();
    let Json::Obj(fields) = &j else {
        panic!("{label}: stats is not an object: {j:?}")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        STATS_KEYS.split_whitespace().collect::<Vec<_>>(),
        "{label}: stats keys"
    );
    let latency = j.get("detection_latency").expect("latency");
    for key in ["count", "p50", "p95", "max"] {
        assert!(latency.get(key).is_some(), "{label}: latency.{key} missing");
    }
    for key in [
        "snapshot_hit_rate",
        "steps_saved_ratio",
        "worker_balance",
        "prune_rate",
        "reuse_rate",
    ] {
        let v = j.get(key).and_then(Json::as_f64).expect(key);
        assert!((0.0..=1.0).contains(&v), "{label}: {key} = {v}");
    }
}

/// The schema plus worker accounting: at most one worker per thread,
/// per-worker injections and steps summing to the totals, and
/// throughput measured on the engine that ran.
fn check_stats(label: &str, engine: EngineKind, threads: usize, result: &CampaignResult) {
    check_schema(label, result);
    let s = &result.stats;
    assert_eq!(s.engine, engine, "{label}: engine");
    assert!(
        (1..=threads).contains(&s.per_worker.len()) && s.threads <= threads,
        "{label}: {s:?}"
    );
    let injections: usize = s.per_worker.iter().map(|w| w.injections).sum();
    let steps: u64 = s.per_worker.iter().map(|w| w.steps_executed).sum();
    assert_eq!(
        (injections, steps),
        (s.injections, s.steps_executed),
        "{label}: per-worker sums"
    );
    assert!(
        s.wall_nanos > 0 && s.injections_per_sec > 0.0,
        "{label}: throughput"
    );
}

/// The write-ahead journal a kill halfway through `reference` leaves
/// behind, with one fault per shard.
fn journal_cut_at_midpoint(
    profile: &Profile,
    cfg: CampaignConfig,
    reference: &CampaignResult,
) -> JournalSnapshot {
    let shards = reference.records[..cfg.samples / 2]
        .iter()
        .enumerate()
        .map(|(i, &(fault, outcome))| {
            let mut tallies = OutcomeTallies::default();
            tallies.add(outcome);
            ShardRecord {
                shard: i,
                start: i,
                len: 1,
                seed: cfg.seed,
                program_hash: 0,
                tallies,
                records: vec![(fault, outcome)],
            }
        })
        .collect();
    let fingerprint = CampaignFingerprint {
        executor: "serial".to_owned(),
        samples: cfg.samples,
        seed: cfg.seed,
        sites: profile.sites.len(),
        golden_dyn_insts: profile.result.dyn_insts,
        ..CampaignFingerprint::default()
    };
    let (total, shard_size, finished) = (cfg.samples, 1, false);
    JournalSnapshot {
        fingerprint,
        total,
        shard_size,
        shards,
        finished,
    }
}

/// Sampled plans: prune and journal reuse on top of every schedule.
fn sampled_matrix(s: &Subject, cfg: CampaignConfig) {
    let reference = Campaign::sampled(cfg)
        .run(&s.cpu, &s.profile)
        .expect("runs");
    let journal = journal_cut_at_midpoint(&s.profile, cfg, &reference);
    assert!(journal.completed() > 0 && journal.completed() < cfg.samples);
    let plans = s.check_axes(
        FaultList::Sampled(cfg),
        true,
        &[Reuse::None, Reuse::Journal(&journal)],
        &reference,
    );
    assert_eq!(plans, 2 * 2 * 3 * 2 * 2);

    // Resumed plans book exactly the journaled faults as reused, and
    // a FERRUM coverage map decides some faults statically.
    let resumed = Campaign::sampled(cfg)
        .threads(3)
        .snapshots(SNAPSHOTS[2])
        .prune(&s.map)
        .reuse(Reuse::Journal(&journal))
        .run(&s.decoded, &s.profile)
        .expect("resumes");
    assert_eq!(
        resumed.stats.reused_sites,
        journal.completed(),
        "{}",
        s.label
    );
    if s.label.ends_with("FERRUM") {
        assert!(
            resumed.stats.pruned_sites > 0,
            "{}: nothing pruned",
            s.label
        );
    }
}

#[test]
fn sampled_plans_agree_on_knn_unprotected() {
    sampled_matrix(&Subject::catalog("knn", Technique::None), CFG);
}

#[test]
fn sampled_plans_agree_on_knn_ferrum() {
    sampled_matrix(&Subject::catalog("knn", Technique::Ferrum), CFG);
}

#[test]
fn sampled_plans_agree_on_pathfinder_unprotected() {
    sampled_matrix(&Subject::catalog("pathfinder", Technique::None), CFG);
}

#[test]
fn sampled_plans_agree_on_pathfinder_ferrum() {
    sampled_matrix(&Subject::catalog("pathfinder", Technique::Ferrum), CFG);
}

/// Stratified plans, cold and with a warm shard cache, against the
/// cold stratified plan.
fn stratified_matrix(s: &Subject) {
    let cfg = CampaignConfig {
        samples: 32,
        seed: 0x5EED,
    };
    let reference = Campaign::stratified(cfg, &s.prog)
        .run(&s.cpu, &s.profile)
        .expect("runs");
    let cache = CampaignCache::from_result(&s.prog, &s.profile, cfg, &reference);
    let faults = FaultList::Stratified(cfg, &s.prog);
    let reuses = [Reuse::None, Reuse::Cache(&cache)];
    assert_eq!(
        s.check_axes(faults, true, &reuses, &reference),
        2 * 2 * 3 * 2 * 2
    );

    // A warm cache replays everything; the rebuilt cache of any plan
    // over this fault list is the same cache.
    let warm = Campaign::new(faults)
        .threads(3)
        .snapshots(SNAPSHOTS[1])
        .reuse(Reuse::Cache(&cache))
        .run(&s.decoded, &s.profile)
        .expect("runs");
    assert_eq!(warm.stats.reused_sites, warm.total(), "{}", s.label);
    assert_eq!(
        warm.stats.steps_executed, 0,
        "{}: nothing executes",
        s.label
    );
    let rebuilt = CampaignCache::from_result(&s.prog, &s.profile, cfg, &warm);
    assert_eq!(rebuilt, cache, "{}", s.label);
}

#[test]
fn stratified_plans_agree_on_knn_unprotected() {
    stratified_matrix(&Subject::catalog("knn", Technique::None));
}

#[test]
fn stratified_plans_agree_on_pathfinder_ferrum() {
    stratified_matrix(&Subject::catalog("pathfinder", Technique::Ferrum));
}

/// `main` sums a four-entry table: small enough to sweep exhaustively.
fn sum_kernel() -> ferrum_mir::module::Module {
    use ferrum_mir::builder::FunctionBuilder;
    use ferrum_mir::module::{Global, Module};
    use ferrum_mir::types::Ty;
    let mut module = Module::new();
    let g = module.add_global(Global::new("tab", vec![1, 2, 3, 4]));
    let mut b = FunctionBuilder::new("main", &[], None);
    let base = b.global(g);
    let mut acc = b.iconst(Ty::I64, 0);
    for i in 0..4 {
        let idx = b.iconst(Ty::I64, i);
        let p = b.gep(base, idx);
        let v = b.load(Ty::I64, p);
        acc = b.add(Ty::I64, acc, v);
    }
    b.print(acc);
    b.ret(None);
    module.functions.push(b.finish());
    module
}

/// The kernel above, unprotected and FERRUM-protected.
fn small_kernels() -> Vec<Subject> {
    let pipeline = Pipeline::new();
    [Technique::None, Technique::Ferrum]
        .into_iter()
        .map(|t| {
            let prog = pipeline.protect(&sum_kernel(), t).expect("protects");
            Subject::of(format!("sum/{t}"), prog)
        })
        .collect()
}

const SMALL: CampaignConfig = CampaignConfig {
    samples: 96,
    seed: 77,
};

#[test]
fn sampled_plans_agree_on_a_small_kernel() {
    for s in small_kernels() {
        sampled_matrix(&s, SMALL);
    }
}

#[test]
fn double_fault_plans_agree_on_a_small_kernel() {
    for s in small_kernels() {
        let double = Campaign::double(SMALL)
            .run(&s.cpu, &s.profile)
            .expect("runs");
        assert_eq!(double.total(), SMALL.samples);
        if s.label.ends_with("RAW") {
            assert!(double.sdc > 0, "two faults in an unprotected program");
        }
        let plans = s.check_axes(FaultList::Double(SMALL), false, &[Reuse::None], &double);
        assert_eq!(plans, 2 * 2 * 3);
    }
}

#[test]
fn exhaustive_plans_agree_on_a_small_kernel() {
    for s in small_kernels() {
        let exhaustive = Campaign::exhaustive(2)
            .run(&s.cpu, &s.profile)
            .expect("runs");
        assert_eq!(exhaustive.total(), s.profile.sites.len() * 2);
        let plans = s.check_axes(FaultList::Exhaustive(2), true, &[Reuse::None], &exhaustive);
        assert_eq!(plans, 2 * 2 * 3 * 2);
    }
}

#[test]
fn zero_sample_stats_keep_the_schema_without_dividing_by_zero() {
    let s = Subject::catalog("bfs", Technique::None);
    let cfg = CampaignConfig {
        samples: 0,
        seed: 1,
    };
    for plan in [
        Campaign::sampled(cfg),
        Campaign::sampled(cfg).threads(8).snapshots(SNAPSHOTS[1]),
        Campaign::stratified(cfg, &s.prog),
        Campaign::double(cfg),
    ] {
        let result = plan.run(&s.cpu, &s.profile).expect("runs");
        assert_eq!(result.total(), 0);
        assert!(result.records.is_empty() && result.sdc_prob() == 0.0);
        assert!(result.stats.injections_per_sec.is_finite());
        check_schema(plan.executor(), &result);
    }
}
