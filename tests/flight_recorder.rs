//! The campaign flight recorder's contract (DESIGN.md §5h):
//!
//! 1. **Observational purity**: installing a recorder never changes a
//!    campaign's outcomes — recorder-on and recorder-off runs of the
//!    same seed are identical for every kind of plan on both engines.
//! 2. **Stream consistency**: sequence numbers are dense and
//!    monotone, the stream is bracketed by `started`/`finished`,
//!    shard-completion records reassemble the exact campaign record
//!    stream, and every progress snapshot's tallies sum to its `done`
//!    counter with the final snapshot equal to the final stats.
//! 3. **Resume determinism**: a journal cut at ANY shard boundary
//!    resumes to a `CampaignResult` byte-identical to the
//!    uninterrupted run, reusing exactly the journaled faults.
//! 4. **Degenerate telemetry** never panics: zero-sample campaigns,
//!    single-worker balance, empty rolling-rate windows.
//! 5. **Stage timing covers every plan**: the `injection` (cold) or
//!    `replay` (snapshot) stage counts of every recorded plan sum to
//!    the number of faults it executed.
//!
//! The recorder is a process-wide singleton, so every test that
//! installs one holds `LOCK` for its whole body.

use std::sync::{Arc, Mutex};

use ferrum::flight::{event_to_ndjson, journal_from_ndjson, parse_events, NdjsonSink};
use ferrum::{
    install_flight_recorder, program_signature, uninstall_flight_recorder, Campaign, CampaignCache,
    CampaignConfig, CampaignEvent, CampaignResult, CoverageMap, EngineKind, FlightEvent,
    FlightPolicy, FlightRecorder, JournalSnapshot, MemorySink, Pipeline, Reuse, SnapshotPolicy,
    Stage, Technique,
};
use ferrum_asm::program::AsmProgram;
use ferrum_cpu::run::{Cpu, Profile};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A loaded catalog program.
struct Subject {
    prog: AsmProgram,
    cpu: Cpu,
    profile: Profile,
}

fn load(name: &str, technique: Technique) -> Subject {
    let w = ferrum_workloads::workload(name).expect("in catalog");
    let module = w.build(ferrum_workloads::Scale::Test);
    let pipeline = Pipeline::new();
    let prog = pipeline.protect(&module, technique).expect("protects");
    let cpu = pipeline.load(&prog).expect("loads");
    let profile = cpu.profile();
    Subject { prog, cpu, profile }
}

/// [`record_with`] under the default recorder policy.
fn record(
    s: &Subject,
    engine: EngineKind,
    plan: Campaign<'_>,
) -> (CampaignResult, Vec<FlightEvent>) {
    record_with(s, engine, FlightPolicy::default(), plan)
}

/// Runs `plan` on `engine` with a recorder installed and returns the
/// result with the captured stream, after checking that the stream's
/// stage timings count every executed fault exactly once: under
/// `injection` when it ran cold, under `replay` after a
/// `snapshot-restore` when it ran from a snapshot.
fn record_with(
    s: &Subject,
    engine: EngineKind,
    policy: FlightPolicy,
    plan: Campaign<'_>,
) -> (CampaignResult, Vec<FlightEvent>) {
    let sink = Arc::new(MemorySink::new());
    install_flight_recorder(Arc::new(
        FlightRecorder::new(sink.clone())
            .with_policy(policy)
            .with_program_hash(program_signature(&s.prog)),
    ));
    let result = engine.with_cpu(&s.cpu, |e| plan.run(e, &s.profile));
    uninstall_flight_recorder();
    let result = result.unwrap();
    let events = sink.events();

    let count = |stage: Stage| -> u64 {
        events
            .iter()
            .filter_map(|e| match e.event {
                CampaignEvent::StageTiming {
                    stage: t, count, ..
                } if t == stage => Some(count),
                _ => None,
            })
            .sum()
    };
    let executed = (result.total() - result.stats.pruned_sites - result.stats.reused_sites) as u64;
    let (cold, restored, replayed) = (
        count(Stage::Injection),
        count(Stage::SnapshotRestore),
        count(Stage::Replay),
    );
    let what = format!("{}/{}", plan.executor(), engine.label());
    assert_eq!(
        cold + replayed,
        executed,
        "{what}: injection + replay counts"
    );
    assert!(
        cold == 0 || replayed == 0,
        "{what}: {cold} cold, {replayed} replayed"
    );
    assert_eq!(restored, replayed, "{what}: a restore per replay");
    (result, events)
}

const CFG: CampaignConfig = CampaignConfig {
    samples: 96,
    seed: 0xFE44,
};

// ---------------------------------------------------------------------
// 1. Observational purity
// ---------------------------------------------------------------------

#[test]
fn recording_never_changes_outcomes() {
    let _g = lock();
    let s = load("bfs", Technique::Ferrum);
    let map = CoverageMap::analyze(&s.prog);
    let sampled = Campaign::sampled(CFG);
    let stratified = Campaign::stratified(CFG, &s.prog);
    let cold = stratified.run(&s.cpu, &s.profile).unwrap();
    let cache = CampaignCache::from_result(&s.prog, &s.profile, CFG, &cold);
    let (_, events) = record(&s, EngineKind::Interpreter, sampled);
    let journal = JournalSnapshot::from_events(cut_after_shards(&events, 3)).expect("journal");
    let (journal, cache) = (Reuse::Journal(&journal), Reuse::Cache(&cache));
    let snapshots = SnapshotPolicy::default();
    // One plan of every kind the tools run, plus mixed axes.
    let plans = [
        sampled,
        sampled.threads(3),
        sampled.threads(2).snapshots(snapshots),
        sampled.prune(&map),
        sampled.threads(2).snapshots(snapshots).prune(&map),
        sampled.reuse(journal),
        sampled.threads(3).snapshots(snapshots).reuse(journal),
        stratified,
        stratified.threads(3).snapshots(snapshots),
        stratified.reuse(cache),
        Campaign::double(CFG),
        Campaign::double(CFG).threads(2).snapshots(snapshots),
    ];
    for engine in EngineKind::ALL {
        for plan in plans {
            let what = format!("{}/{}", plan.executor(), engine.label());
            let bare = engine
                .with_cpu(&s.cpu, |e| plan.run(e, &s.profile))
                .unwrap();
            let (recorded, events) = record(&s, engine, plan);
            assert_eq!(recorded, bare, "{what}: recorder changed outcomes");
            assert_eq!(
                recorded.stats.latency, bare.stats.latency,
                "{what}: latency"
            );
            match events.first().map(|e| &e.event) {
                Some(CampaignEvent::Started { fingerprint, .. }) => {
                    assert_eq!(fingerprint.executor, plan.executor(), "{what}: label");
                }
                other => panic!("{what}: stream starts with {other:?}"),
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. Stream consistency
// ---------------------------------------------------------------------

#[test]
fn event_stream_is_internally_consistent() {
    let _g = lock();
    for (name, technique) in [("pathfinder", Technique::Ferrum), ("knn", Technique::None)] {
        let s = load(name, technique);
        let (result, events) = record(&s, EngineKind::Interpreter, Campaign::sampled(CFG));

        // Dense, monotone sequence numbers in delivery order.
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.seq, i as u64, "{name}: seq hole at {i}");
        }
        assert!(matches!(
            events.first().map(|e| &e.event),
            Some(CampaignEvent::Started { .. })
        ));
        assert!(matches!(
            events.last().map(|e| &e.event),
            Some(CampaignEvent::Finished { .. })
        ));

        // Shard records reassemble the campaign's record stream.
        let mut shards: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.event {
                CampaignEvent::ShardCompleted(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        shards.sort_by_key(|s| s.start);
        let reassembled: Vec<_> = shards.iter().flat_map(|s| s.records.iter().copied()).collect();
        assert_eq!(reassembled, result.records, "{name}: shard reassembly");
        let declared = match &events[0].event {
            CampaignEvent::Started { shards, .. } => *shards,
            _ => unreachable!(),
        };
        assert_eq!(shards.len(), declared, "{name}: shard count");

        // Progress snapshots: tallies sum to done, monotone, and the
        // final one equals the final stats.
        let snapshots: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.event {
                CampaignEvent::Progress(p) => Some(p.clone()),
                _ => None,
            })
            .collect();
        assert!(!snapshots.is_empty(), "{name}: no snapshots");
        let mut last = 0;
        for p in &snapshots {
            assert_eq!(p.tallies.total(), p.done, "{name}: snapshot tally sum");
            assert!(p.done >= last, "{name}: progress went backwards");
            last = p.done;
        }
        let fin = snapshots.last().expect("non-empty");
        assert_eq!(fin.done, result.total(), "{name}: final snapshot done");
        assert!(fin.tallies.matches(&result), "{name}: final snapshot tallies");

        // The finished event repeats the final counts.
        if let CampaignEvent::Finished { tallies, .. } = &events.last().expect("last").event {
            assert!(tallies.matches(&result), "{name}: finished tallies");
        }
    }
}

#[test]
fn ndjson_file_round_trip_preserves_the_stream() {
    let _g = lock();
    let s = load("needle", Technique::Ferrum);
    let path = std::env::temp_dir().join("ferrum-flight-roundtrip.ndjson");
    let path_s = path.to_str().expect("utf8 temp path");

    let sink = Arc::new(MemorySink::new());
    let file = Arc::new(NdjsonSink::create(path_s).expect("creates"));
    install_flight_recorder(Arc::new(
        FlightRecorder::new(Arc::new(ferrum::TeeSink::new(vec![sink.clone(), file])))
            .with_program_hash(program_signature(&s.prog)),
    ));
    let result = Campaign::sampled(CFG).run(&s.cpu, &s.profile).unwrap();
    uninstall_flight_recorder();

    let text = std::fs::read_to_string(&path).expect("reads back");
    let parsed = parse_events(&text).expect("parses");
    assert_eq!(parsed, sink.events(), "file != memory stream");

    // The journal reconstructed from the file resumes to the same
    // result even though nothing was killed (everything is reused).
    let journal = journal_from_ndjson(&text).expect("journal");
    assert!(journal.finished);
    let resumed = Campaign::sampled(CFG)
        .reuse(Reuse::Journal(&journal))
        .run(&s.cpu, &s.profile)
        .expect("resumes");
    assert_eq!(resumed, result);
    assert_eq!(resumed.stats.reused_sites, result.total());
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// 3. Resume determinism: every shard boundary
// ---------------------------------------------------------------------

/// Truncates `events` right after the `k`-th shard completion — the
/// write-ahead journal a kill at that boundary would leave behind.
fn cut_after_shards(events: &[FlightEvent], k: usize) -> &[FlightEvent] {
    if k == 0 {
        // Killed before any shard completed: only the header survives.
        return &events[..1];
    }
    let mut seen = 0;
    for (i, ev) in events.iter().enumerate() {
        if matches!(ev.event, CampaignEvent::ShardCompleted(_)) {
            seen += 1;
            if seen == k {
                return &events[..=i];
            }
        }
    }
    events
}

#[test]
fn resume_at_every_shard_boundary_is_byte_identical() {
    let _g = lock();
    let s = load("bfs", Technique::Ferrum);
    for engine in EngineKind::ALL {
        let (full, events) = record(&s, engine, Campaign::sampled(CFG));
        let shards = events
            .iter()
            .filter(|e| matches!(e.event, CampaignEvent::ShardCompleted(_)))
            .count();
        assert!(shards > 2, "{}: want a multi-shard campaign", engine.label());

        for k in 0..=shards {
            let journal = JournalSnapshot::from_events(cut_after_shards(&events, k))
                .expect("journal from header");
            assert_eq!(journal.completed(), k * journal.shard_size.min(CFG.samples));
            let resume = Campaign::sampled(CFG).reuse(Reuse::Journal(&journal));
            let resumed = engine
                .with_cpu(&s.cpu, |e| resume.run(e, &s.profile))
                .unwrap_or_else(|e| panic!("{}: resume at {k}: {e}", engine.label()));
            assert_eq!(resumed, full, "{}: kill after shard {k}", engine.label());
            assert_eq!(
                resumed.stats.reused_sites,
                journal.completed(),
                "{}: reuse at {k}",
                engine.label()
            );
        }
    }
}

#[test]
fn resume_rejects_a_mismatched_journal() {
    let _g = lock();
    let s = load("bfs", Technique::Ferrum);
    let (_, events) = record(&s, EngineKind::Interpreter, Campaign::sampled(CFG));
    let mut journal = JournalSnapshot::from_events(cut_after_shards(&events, 2)).expect("journal");
    let resume = |cfg: CampaignConfig, journal: &JournalSnapshot| {
        Campaign::sampled(cfg)
            .reuse(Reuse::Journal(journal))
            .run(&s.cpu, &s.profile)
    };

    // Wrong seed: the journaled faults no longer match this campaign.
    let other = CampaignConfig {
        samples: CFG.samples,
        seed: CFG.seed + 1,
    };
    let err = resume(other, &journal).expect_err("seed mismatch accepted");
    assert!(err.to_string().contains("seed"), "unhelpful error: {err}");

    // Tampered program hash: content drift is refused outright.
    journal.fingerprint.program_hash ^= 1;
    let err = resume(CFG, &journal).expect_err("hash mismatch accepted");
    assert!(err.to_string().contains("hash"), "unhelpful error: {err}");
}

// ---------------------------------------------------------------------
// 4. Degenerate telemetry
// ---------------------------------------------------------------------

#[test]
fn zero_sample_campaign_emits_a_complete_stream() {
    let _g = lock();
    let s = load("bfs", Technique::None);
    let empty = CampaignConfig {
        samples: 0,
        seed: 7,
    };
    let (result, events) = record(&s, EngineKind::Interpreter, Campaign::sampled(empty));
    assert_eq!(result.total(), 0);
    assert!(matches!(
        events.first().map(|e| &e.event),
        Some(CampaignEvent::Started { total: 0, .. })
    ));
    assert!(matches!(
        events.last().map(|e| &e.event),
        Some(CampaignEvent::Finished { .. })
    ));
    // The final snapshot exists and divides nothing by zero.
    let snap = events
        .iter()
        .find_map(|e| match &e.event {
            CampaignEvent::Progress(p) => Some(p.clone()),
            _ => None,
        })
        .expect("zero-sample campaign still snapshots");
    assert_eq!(snap.done, 0);
    assert!(snap.rate >= 0.0 && snap.rate.is_finite());
    assert!(snap.sdc_ci.0.is_finite() && snap.sdc_ci.1.is_finite());

    // No work ran: balance is the documented 0.0, never NaN.
    assert_eq!(result.stats.worker_balance(), 0.0);
    assert!(result.stats.injections_per_sec.is_finite());
}

#[test]
fn tiny_policy_windows_do_not_panic() {
    let _g = lock();
    let s = load("bfs", Technique::None);
    // Pathological policy: snapshot after every injection with a
    // minimal rolling window — rates must stay finite.
    let policy = FlightPolicy {
        shard_size: 1,
        progress_every: 1,
        heartbeat_every: 1,
        window: 1,
    };
    let tiny = CampaignConfig {
        samples: 5,
        seed: 3,
    };
    let (result, events) =
        record_with(&s, EngineKind::Interpreter, policy, Campaign::sampled(tiny));
    assert_eq!(result.total(), 5);
    for ev in &events {
        if let CampaignEvent::Progress(p) = &ev.event {
            assert!(p.rate.is_finite(), "rate blew up: {}", p.rate);
            for r in &p.worker_rates {
                assert!(r.is_finite());
            }
        }
    }
    let shards = events
        .iter()
        .filter(|e| matches!(e.event, CampaignEvent::ShardCompleted(_)))
        .count();
    assert_eq!(shards, 5, "one shard per injection");

    // A lone worker that did run is perfectly balanced.
    assert!((result.stats.worker_balance() - 1.0).abs() < 1e-12);
}

// ---------------------------------------------------------------------
// NDJSON torn-tail semantics on a real journal
// ---------------------------------------------------------------------

#[test]
fn torn_journal_tail_resumes_from_the_last_complete_record() {
    let _g = lock();
    let s = load("bfs", Technique::Ferrum);
    let (full, events) = record(&s, EngineKind::Interpreter, Campaign::sampled(CFG));
    let ndjson: String = events.iter().map(|e| event_to_ndjson(e) + "\n").collect();
    // Kill mid-write: drop the trailing newline and half the last line.
    let torn = &ndjson[..ndjson.len() - ndjson.lines().last().expect("lines").len() / 2 - 1];
    let journal = journal_from_ndjson(torn).expect("torn tail is not fatal");
    assert!(!journal.finished || journal.completed() == full.total());
    let resumed = Campaign::sampled(CFG)
        .reuse(Reuse::Journal(&journal))
        .run(&s.cpu, &s.profile)
        .expect("resumes");
    assert_eq!(resumed, full);
}

// ---------------------------------------------------------------------
// Proptest sweep (off by default; hermetic-build policy)
// ---------------------------------------------------------------------

#[cfg(feature = "proptest")]
mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any seed, any kill point: resume is byte-identical.
        #[test]
        fn resume_is_identical_for_any_seed_and_kill_point(
            seed in 0u64..u64::MAX,
            kill in 0usize..32,
        ) {
            let _g = lock();
            let s = load("bfs", Technique::Ferrum);
            let cfg = CampaignConfig { samples: 64, seed };
            let (full, events) = record(&s, EngineKind::Interpreter, Campaign::sampled(cfg));
            let shards = events
                .iter()
                .filter(|e| matches!(e.event, CampaignEvent::ShardCompleted(_)))
                .count();
            let k = kill % (shards + 1);
            let journal = JournalSnapshot::from_events(cut_after_shards(&events, k))
                .expect("journal");
            let resumed = Campaign::sampled(cfg).reuse(Reuse::Journal(&journal))
            .run(&s.cpu, &s.profile)
            .expect("resumes");
            prop_assert_eq!(resumed, full);
        }
    }
}
