//! The campaign flight recorder's contract (DESIGN.md §5h):
//!
//! 1. **Observational purity**: observing a plan never changes a
//!    campaign's outcomes — recorder-on and recorder-off runs of the
//!    same seed are identical for every kind of plan on both engines.
//! 2. **Stream consistency**: sequence numbers are dense and
//!    monotone, the stream is bracketed by `started`/`finished`,
//!    shard-completion records reassemble the exact campaign record
//!    stream, and every progress snapshot's tallies sum to its `done`
//!    counter with the final snapshot equal to the final stats.
//! 3. **Resume determinism**: a journal cut at ANY shard boundary
//!    resumes to a `CampaignResult` byte-identical to the
//!    uninterrupted run, reusing exactly the journaled faults, for a
//!    fixed seed and three drawn from a seeded `ferrum-rng` generator.
//! 4. **Degenerate telemetry** never panics: zero-sample campaigns,
//!    single-worker balance, empty rolling-rate windows.
//! 5. **Stage timing covers every plan**: the `replay` stage count of
//!    every recorded plan is the number of faults it executed, each
//!    after one `snapshot-restore`.
//! 6. **Isolation**: campaigns running at once, each observed by its
//!    own recorder, stream exactly their own events.

use std::sync::Arc;

use ferrum::flight::{event_to_ndjson, journal_from_ndjson, parse_events, NdjsonSink};
use ferrum::{
    program_signature, Build, Campaign, CampaignCache, CampaignConfig, CampaignError,
    CampaignEvent, CampaignResult, CoverageMap, EngineKind, FlightEvent, FlightRecorder,
    JournalSnapshot, MemorySink, Outcome, Pipeline, Reuse, ShardRecord, Stage, Technique,
};
use ferrum_rng::Rng64;

/// A catalog program, built.
fn load(name: &str, technique: Technique) -> Build {
    let w = ferrum_workloads::workload(name).expect("in catalog");
    let module = w.build(ferrum_workloads::Scale::Test);
    Pipeline::new().build(&module, technique).expect("builds")
}

/// Runs `plan` on `engine` observed by a recorder and returns the
/// result with the captured stream, after checking that the stream's
/// stage timings count every executed fault exactly once, under
/// `replay` after a `snapshot-restore`.
fn record(s: &Build, engine: EngineKind, plan: Campaign<'_>) -> (CampaignResult, Vec<FlightEvent>) {
    let sink = Arc::new(MemorySink::new());
    let recorder =
        FlightRecorder::new(sink.clone()).with_program_hash(program_signature(s.program()));
    let result = plan
        .observe(&recorder)
        .run(s.engine(engine), s.profile())
        .unwrap();
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
    let (restored, replayed) = (count(Stage::SnapshotRestore), count(Stage::Replay));
    let what = format!("{}/{}", plan.executor(), engine.label());
    assert_eq!(replayed, executed, "{what}: replay counts");
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
    let s = load("bfs", Technique::Ferrum);
    let map = CoverageMap::analyze(s.program());
    let sampled = Campaign::sampled(CFG);
    let stratified = Campaign::stratified(CFG, s.program());
    let cold = stratified
        .run(s.engine(EngineKind::Interpreter), s.profile())
        .unwrap();
    let cache = CampaignCache::from_result(s.program(), s.profile(), CFG, &cold);
    let (_, events) = record(&s, EngineKind::Interpreter, sampled);
    let journal = JournalSnapshot::from_events(cut_after_shards(&events, 3)).expect("journal");
    let (journal, cache) = (Reuse::Journal(&journal), Reuse::Cache(&cache));
    // One plan of every kind the tools run, plus mixed axes.
    let plans = [
        sampled,
        sampled.threads(3),
        sampled.prune(&map),
        sampled.threads(2).prune(&map),
        sampled.reuse(journal),
        sampled.threads(3).reuse(journal),
        stratified,
        stratified.threads(3),
        stratified.reuse(cache),
        Campaign::double(CFG),
        Campaign::double(CFG).threads(2),
    ];
    for engine in EngineKind::ALL {
        for plan in plans {
            let what = format!("{}/{}", plan.executor(), engine.label());
            let bare = plan.run(s.engine(engine), s.profile()).unwrap();
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
        let reassembled: Vec<_> = shards
            .iter()
            .flat_map(|s| s.records.iter().copied())
            .collect();
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
        assert!(
            fin.tallies.matches(&result),
            "{name}: final snapshot tallies"
        );

        // The finished event repeats the final counts.
        if let CampaignEvent::Finished { tallies, .. } = &events.last().expect("last").event {
            assert!(tallies.matches(&result), "{name}: finished tallies");
        }
    }
}

#[test]
fn ndjson_file_round_trip_preserves_the_stream() {
    let s = load("needle", Technique::Ferrum);
    let path = std::env::temp_dir().join("ferrum-flight-roundtrip.ndjson");
    let path_s = path.to_str().expect("utf8 temp path");

    let sink = Arc::new(MemorySink::new());
    let file = Arc::new(NdjsonSink::create(path_s).expect("creates"));
    let recorder = FlightRecorder::new(Arc::new(ferrum::TeeSink::new(vec![sink.clone(), file])))
        .with_program_hash(program_signature(s.program()));
    let result = Campaign::sampled(CFG)
        .observe(&recorder)
        .run(s.engine(EngineKind::Interpreter), s.profile())
        .unwrap();

    let text = std::fs::read_to_string(&path).expect("reads back");
    let parsed = parse_events(&text).expect("parses");
    assert_eq!(parsed, sink.events(), "file != memory stream");

    // The journal reconstructed from the file resumes to the same
    // result even though nothing was killed (everything is reused).
    let journal = journal_from_ndjson(&text).expect("journal");
    assert!(journal.finished);
    let resumed = Campaign::sampled(CFG)
        .reuse(Reuse::Journal(&journal))
        .run(s.engine(EngineKind::Interpreter), s.profile())
        .expect("resumes");
    assert_eq!(resumed, result);
    assert_eq!(resumed.stats.reused_sites, result.total());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_journal_with_a_retired_injection_stage_still_resumes() {
    let s = load("bfs", Technique::Ferrum);
    let (full, events) = record(&s, EngineKind::Interpreter, Campaign::sampled(CFG));
    // The complete journal an older build wrote: its faults ran whole,
    // so their stage record said `injection` where this one says
    // `replay`.
    let journal_with = |stage: &str| -> String {
        events
            .iter()
            .map(|e| {
                event_to_ndjson(e)
                    .replace("\"stage\":\"replay\"", &format!("\"stage\":\"{stage}\""))
                    + "\n"
            })
            .collect()
    };
    let old = journal_with("injection");
    assert!(
        old.contains("\"stage\":\"injection\""),
        "no stage record relabelled"
    );
    let journal = journal_from_ndjson(&old).expect("a retired stage label parses");
    assert!(journal.finished);
    let resumed = Campaign::sampled(CFG)
        .reuse(Reuse::Journal(&journal))
        .run(s.engine(EngineKind::Interpreter), s.profile())
        .expect("resumes");
    assert_eq!(resumed, full);
    assert_eq!(resumed.stats.reused_sites, full.total());

    // Only the retired label is forgiven: any other unknown stage is a
    // malformed line.
    let err = journal_from_ndjson(&journal_with("teleport")).expect_err("unknown stage accepted");
    assert!(err.starts_with("malformed event at line"), "{err}");
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
    let s = load("bfs", Technique::Ferrum);
    // The fixed seed, then three drawn from a fixed generator.
    let mut rng = Rng64::seed_from_u64(0x4E5E);
    let seeds = [CFG.seed, rng.next_u64(), rng.next_u64(), rng.next_u64()];
    for (seed, engine) in seeds
        .into_iter()
        .flat_map(|s| EngineKind::ALL.map(|e| (s, e)))
    {
        let cfg = CampaignConfig { seed, ..CFG };
        let what = format!("seed {seed}, {}", engine.label());
        let (full, events) = record(&s, engine, Campaign::sampled(cfg));
        let shards = events
            .iter()
            .filter(|e| matches!(e.event, CampaignEvent::ShardCompleted(_)))
            .count();
        assert!(shards > 2, "{what}: want a multi-shard campaign");

        for k in 0..=shards {
            let journal = JournalSnapshot::from_events(cut_after_shards(&events, k))
                .expect("journal from header");
            assert_eq!(journal.completed(), k * journal.shard_size.min(cfg.samples));
            let resume = Campaign::sampled(cfg).reuse(Reuse::Journal(&journal));
            let resumed = resume
                .run(s.engine(engine), s.profile())
                .unwrap_or_else(|e| panic!("{what}: resume at {k}: {e}"));
            assert_eq!(resumed, full, "{what}: kill after shard {k}");
            assert_eq!(
                resumed.stats.reused_sites,
                journal.completed(),
                "{what}: reuse at {k}"
            );
        }
    }
}

#[test]
fn resume_rejects_a_mismatched_journal() {
    let s = load("bfs", Technique::Ferrum);
    let (_, events) = record(&s, EngineKind::Interpreter, Campaign::sampled(CFG));
    let mut journal = JournalSnapshot::from_events(cut_after_shards(&events, 2)).expect("journal");
    let resume = |cfg: CampaignConfig, journal: &JournalSnapshot| {
        Campaign::sampled(cfg)
            .reuse(Reuse::Journal(journal))
            .run(s.engine(EngineKind::Interpreter), s.profile())
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

#[test]
fn resume_rejects_a_shard_whose_records_disagree_with_its_tallies() {
    let s = load("bfs", Technique::None);
    let (_, events) = record(&s, EngineKind::Interpreter, Campaign::sampled(CFG));
    let mut journal = JournalSnapshot::from_events(cut_after_shards(&events, 2)).expect("journal");
    // Flip one journaled outcome and leave its shard's tallies alone.
    let record = &mut journal.shards[1].records[0].1;
    *record = match *record {
        Outcome::Sdc => Outcome::Benign,
        _ => Outcome::Sdc,
    };
    let err = Campaign::sampled(CFG)
        .reuse(Reuse::Journal(&journal))
        .run(s.engine(EngineKind::Interpreter), s.profile())
        .expect_err("a shard that contradicts its tallies was accepted");
    assert!(matches!(err, CampaignError::Journal(_)), "{err:?}");
    assert!(
        err.to_string().contains("tallies"),
        "unhelpful error: {err}"
    );
}

// ---------------------------------------------------------------------
// 4. Degenerate telemetry
// ---------------------------------------------------------------------

#[test]
fn zero_sample_campaign_emits_a_complete_stream() {
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
    let s = load("bfs", Technique::None);
    // Five faults derive the smallest cadences: one fault per shard,
    // and a snapshot and a heartbeat after every injection.  No rate
    // window gets the two clock samples a rate needs, so every rate is
    // the documented 0.0 and must stay finite.
    let tiny = CampaignConfig {
        samples: 5,
        seed: 3,
    };
    let (result, events) = record(&s, EngineKind::Interpreter, Campaign::sampled(tiny));
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
    let heartbeats = events
        .iter()
        .filter(|e| matches!(e.event, CampaignEvent::Heartbeat { .. }))
        .count();
    assert_eq!(heartbeats, 5, "one heartbeat per injection");

    // A lone worker that did run is perfectly balanced.
    assert!((result.stats.worker_balance() - 1.0).abs() < 1e-12);
}

// ---------------------------------------------------------------------
// NDJSON torn-tail semantics on a real journal
// ---------------------------------------------------------------------

#[test]
fn torn_journal_tail_resumes_from_the_last_complete_record() {
    let s = load("bfs", Technique::Ferrum);
    let (full, events) = record(&s, EngineKind::Interpreter, Campaign::sampled(CFG));
    let ndjson: String = events.iter().map(|e| event_to_ndjson(e) + "\n").collect();
    // Kill mid-write: drop the trailing newline and half the last line.
    let torn = &ndjson[..ndjson.len() - ndjson.lines().last().expect("lines").len() / 2 - 1];
    let journal = journal_from_ndjson(torn).expect("torn tail is not fatal");
    assert!(!journal.finished || journal.completed() == full.total());
    let resumed = Campaign::sampled(CFG)
        .reuse(Reuse::Journal(&journal))
        .run(s.engine(EngineKind::Interpreter), s.profile())
        .expect("resumes");
    assert_eq!(resumed, full);
}

// ---------------------------------------------------------------------
// 6. Isolation: concurrent campaigns, one recorder each
// ---------------------------------------------------------------------

#[test]
fn concurrent_campaigns_stream_into_their_own_recorders() {
    let subjects = [
        ("bfs", load("bfs", Technique::Ferrum)),
        ("knn", load("knn", Technique::None)),
    ];
    let start = std::sync::Barrier::new(subjects.len());
    let runs: Vec<(CampaignResult, Vec<FlightEvent>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = subjects
            .iter()
            .map(|(name, s)| {
                let start = &start;
                scope.spawn(move || {
                    let sink = Arc::new(MemorySink::new());
                    let recorder = FlightRecorder::new(sink.clone()).with_labels(name, "");
                    let plan = Campaign::sampled(CFG).threads(2).observe(&recorder);
                    start.wait();
                    let result = plan
                        .run(s.engine(EngineKind::Interpreter), s.profile())
                        .unwrap();
                    (result, sink.events())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign thread panicked"))
            .collect()
    });
    assert_ne!(runs[0].0.records, runs[1].0.records, "distinct campaigns");
    for ((name, s), (result, events)) in subjects.iter().zip(&runs) {
        let started: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.event {
                CampaignEvent::Started { fingerprint, .. } => Some(fingerprint),
                _ => None,
            })
            .collect();
        assert_eq!(started.len(), 1, "{name}: one started event");
        assert_eq!(started[0].workload, *name);
        assert_eq!(started[0].sites, s.profile().sites.len(), "{name}: sites");
        let mut shards: Vec<&ShardRecord> = events
            .iter()
            .filter_map(|e| match &e.event {
                CampaignEvent::ShardCompleted(r) => Some(r),
                _ => None,
            })
            .collect();
        shards.sort_by_key(|r| r.start);
        let records: Vec<_> = shards
            .iter()
            .flat_map(|r| r.records.iter().copied())
            .collect();
        assert_eq!(records, result.records, "{name}: shard reassembly");
        match events.last().map(|e| &e.event) {
            Some(CampaignEvent::Finished { tallies, .. }) => {
                assert!(tallies.matches(result), "{name}: finished tallies");
            }
            other => panic!("{name}: stream ends with {other:?}"),
        }
    }
}
