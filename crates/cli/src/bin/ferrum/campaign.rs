//! `ferrum campaign` — long-running campaigns with live telemetry and
//! a resume-grade journal.
//!
//! The tool protects and loads the workload and runs a sampled
//! [`Campaign`](ferrum::Campaign) that a
//! [`FlightRecorder`](ferrum::FlightRecorder) observes, with a live
//! progress table on stdout.
//! `--threads` sets its workers (one by default).  `--events` and
//! `--journal` tee the same event stream into NDJSON files; a journal
//! cut short by a crash or kill feeds `--resume`, which replays
//! completed shards and injects only the remainder — the result is
//! byte-identical to an uninterrupted run of the same seed.
//!
//! Self-check, for all four techniques: every record of the case's
//! serial interpreter campaign classifies as the whole run of its fault
//! does, and on both engines event streams are internally consistent
//! (monotone sequence numbers, shard records reassemble the exact
//! campaign record stream, progress tallies sum to the final stats),
//! recording is outcome-pure (recorder on/off results are identical),
//! NDJSON round-trips losslessly, and journal-resume after a simulated
//! mid-campaign kill is byte-identical with the journaled fraction
//! reused.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ferrum::flight::{journal_from_ndjson, parse_events, NdjsonSink, StallTracker};
use ferrum::json::{id_to_json, Json, ToJson};
use ferrum::report::{render_flight_summary, render_progress_header, render_progress_row_flagged};
use ferrum::{
    program_signature, Campaign, CampaignConfig, CampaignEvent, CampaignFingerprint,
    CampaignResult, EngineKind, FlightEvent, FlightRecorder, FlightSink, JournalSnapshot,
    MemorySink, Reuse, Technique, TeeSink,
};
use ferrum_cli::args::{
    parse_args, technique_label, ArgError, ArgHelp, ArgSpec, UsageSpec, ENGINE_ARG, OPT_ARG,
    SCALE_ARG, TECHNIQUE_ARG,
};
use ferrum_faultsim::campaign::classify;
use ferrum_workloads::catalog::Scale;

use crate::selfcheck::{Record, Setup};
use crate::{Case, TECHNIQUES};

pub const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum campaign",
    forms: &["<workload> [options]"],
    args: &[
        TECHNIQUE_ARG,
        ArgHelp::option("--samples", "<n>", "sampled faults (default 400)"),
        ArgHelp::option("--seed", "<s>", "campaign seed (default 0xFE44)"),
        SCALE_ARG,
        OPT_ARG,
        ENGINE_ARG,
        ArgHelp::option("--threads", "<n>", "worker threads (default 1)"),
        ArgHelp::option(
            "--events",
            "<path>",
            "stream NDJSON events to <path> (docs/events-schema.md)",
        ),
        ArgHelp::option("--journal", "<path>", "write-ahead journal at <path> (shard completions)"),
        ArgHelp::flag(
            "--resume",
            "resume a killed campaign from --journal: replay its\ncompleted shards, inject only the remainder, and rewrite\nthe journal complete",
        ),
        ArgHelp::flag("--json", "emit the final result as JSON instead of text"),
    ],
    spec: ArgSpec {
        flags: &["--resume", "--json"],
        values: &[
            "--technique",
            "--samples",
            "--seed",
            "--scale",
            "--opt",
            "--engine",
            "--threads",
            "--events",
            "--journal",
        ],
        positional: true,
    },
};

struct Options {
    technique: Technique,
    samples: usize,
    seed: u64,
    scale: Scale,
    opt: ferrum::OptLevel,
    engine: EngineKind,
    threads: usize,
    events: Option<String>,
    journal: Option<String>,
    resume: bool,
    json: bool,
}

/// Live TTY sink: header on campaign start, one row per progress
/// snapshot, stalled workers (heartbeats silent for more than twice
/// their observed cadence) flagged on the row.  Purely observational,
/// like every flight sink.
struct LiveProgress {
    started: AtomicBool,
    tracker: std::sync::Mutex<StallTracker>,
}

impl FlightSink for LiveProgress {
    fn record_event(&self, ev: &FlightEvent) {
        if let Ok(mut t) = self.tracker.lock() {
            t.observe(ev);
        }
        match &ev.event {
            CampaignEvent::Started {
                fingerprint,
                total,
                shards,
                ..
            } if !self.started.swap(true, Ordering::Relaxed) => {
                println!(
                    "campaign [{}:{}] seed {:#x}: {} faults in {} shards",
                    fingerprint.executor,
                    fingerprint.engine.label(),
                    fingerprint.seed,
                    total,
                    shards
                );
                print!("{}", render_progress_header());
            }
            CampaignEvent::Progress(p) => {
                let stalled = self
                    .tracker
                    .lock()
                    .map_or_else(|_| Vec::new(), |t| t.stalled(ev.nanos));
                print!("{}", render_progress_row_flagged(p, &stalled));
            }
            _ => {}
        }
    }
}

/// Assembles the tee of enabled sinks; `None` when nothing listens
/// (the campaign runs unobserved).
fn build_sinks(opts: &Options) -> Result<Option<Arc<dyn FlightSink>>, String> {
    let mut sinks: Vec<Arc<dyn FlightSink>> = Vec::new();
    if !opts.json {
        sinks.push(Arc::new(LiveProgress {
            started: AtomicBool::new(false),
            tracker: std::sync::Mutex::new(StallTracker::new()),
        }));
    }
    if let Some(path) = &opts.events {
        sinks.push(Arc::new(
            NdjsonSink::create(path).map_err(|e| format!("--events {path}: {e}"))?,
        ));
    }
    if let Some(path) = &opts.journal {
        sinks.push(Arc::new(
            NdjsonSink::create(path).map_err(|e| format!("--journal {path}: {e}"))?,
        ));
    }
    Ok(match sinks.len() {
        0 => None,
        1 => Some(sinks.pop().expect("len 1")),
        _ => Some(Arc::new(TeeSink::new(sinks))),
    })
}

pub fn run(args: &[String]) -> Result<ExitCode, ArgError> {
    let p = parse_args(args, &USAGE.spec)?;
    let opts = Options {
        technique: p.technique_core(Technique::Ferrum)?,
        samples: p.samples(400)?,
        seed: p.seed(0xFE44)?,
        scale: p.scale()?,
        opt: p.opt_level()?,
        engine: p.engine()?,
        threads: p.parsed("--threads")?.unwrap_or(1),
        events: p.value("--events").map(str::to_owned),
        journal: p.value("--journal").map(str::to_owned),
        resume: p.flag("--resume"),
        json: p.flag("--json"),
    };
    let Some(name) = p.positional.as_deref() else {
        return Err(ArgError::Help);
    };
    let context = format!("campaign: {name}");
    Ok(crate::exit_on_error(&context, || run_one(name, &opts)))
}

fn run_one(name: &str, opts: &Options) -> Result<ExitCode, ferrum::Error> {
    // Read the journal *before* sinks truncate it for rewriting.
    let journal: Option<JournalSnapshot> = if opts.resume {
        let Some(path) = &opts.journal else {
            return Err(ferrum::Error::msg("--resume needs --journal <path>"));
        };
        let snapshot = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| journal_from_ndjson(&text))
            .map_err(|e| ferrum::Error::msg(format!("--resume {path}: {e}")))?;
        Some(snapshot)
    } else {
        None
    };

    let case = Case::open(name, opts.scale, opts.opt)?;
    let build = case.build(opts.technique)?;
    let profile = build.profile();
    let cfg = CampaignConfig {
        samples: opts.samples,
        seed: opts.seed,
    };
    let recorder = build_sinks(opts).map_err(ferrum::Error::msg)?.map(|sink| {
        FlightRecorder::new(sink)
            .with_labels(name, technique_label(opts.technique))
            .with_program_hash(program_signature(build.program()))
    });
    let plan = Campaign::sampled(cfg)
        .threads(opts.threads)
        .reuse(journal.as_ref().map_or(Reuse::None, Reuse::Journal))
        .observe(recorder.as_ref());
    let result = plan.run(build.engine(opts.engine), profile)?;

    let fp = CampaignFingerprint {
        workload: name.to_owned(),
        technique: technique_label(opts.technique).to_owned(),
        executor: plan.executor().to_owned(),
        engine: opts.engine,
        samples: cfg.samples,
        seed: cfg.seed,
        sites: profile.sites.len(),
        golden_dyn_insts: profile.result.dyn_insts,
        program_hash: program_signature(build.program()),
    };
    if opts.json {
        let doc = Json::obj(vec![
            ("workload", name.to_json()),
            ("technique", technique_label(opts.technique).to_json()),
            ("executor", fp.executor.to_json()),
            ("program_hash", id_to_json(fp.program_hash)),
            ("sdc", result.sdc.to_json()),
            ("detected", result.detected.to_json()),
            ("crash", result.crash.to_json()),
            ("timeout", result.timeout.to_json()),
            ("benign", result.benign.to_json()),
            ("sdc_prob", result.sdc_prob().to_json()),
            ("stats", result.stats.to_json()),
        ]);
        println!("{}", doc.to_string_pretty());
    } else {
        print!("{}", render_flight_summary(&fp, &result));
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// Self-check
// ---------------------------------------------------------------------------

/// Records `problem` unless `ok`.
fn require(problems: &mut Vec<&'static str>, ok: bool, problem: &'static str) {
    if !ok {
        problems.push(problem);
    }
}

/// Checks one captured event stream against the final result: the
/// monotone-counter and snapshot-sum consistency contract.  Returns
/// the problems found and the number of completed shards.
fn audit_stream(
    events: &[FlightEvent],
    result: &CampaignResult,
    problems: &mut Vec<&'static str>,
) -> usize {
    require(problems, !events.is_empty(), "stream empty");
    // seq is 0..n in delivery order.
    let dense = events.iter().enumerate().all(|(i, e)| e.seq == i as u64);
    require(problems, dense, "seq not monotone");
    let first = events.first().map(|e| &e.event);
    let last = events.last().map(|e| &e.event);
    let started = matches!(first, Some(CampaignEvent::Started { .. }));
    require(problems, started, "first event not started");
    let finished = matches!(last, Some(CampaignEvent::Finished { .. }));
    require(problems, finished, "last event not finished");

    let (mut scheduled, mut declared) = (0usize, 0usize);
    if let Some(CampaignEvent::Started { total, shards, .. }) = first {
        declared = *shards;
        require(
            problems,
            *total == result.total(),
            "started total != result",
        );
    }
    let mut tallies_sum = 0usize;
    let mut shard_list = Vec::new();
    let mut last_done = 0usize;
    let mut monotone = true;
    let mut final_snapshot_ok = false;
    for ev in events {
        match &ev.event {
            CampaignEvent::ShardScheduled { .. } => scheduled += 1,
            CampaignEvent::ShardCompleted(s) => {
                tallies_sum += s.tallies.total();
                shard_list.push(s);
            }
            CampaignEvent::Progress(p) => {
                monotone &= p.done >= last_done;
                last_done = p.done;
                final_snapshot_ok =
                    p.done == p.total && p.done == result.total() && p.tallies.matches(result);
            }
            _ => {}
        }
    }
    shard_list.sort_by_key(|s| s.start);
    let records: Vec<_> = shard_list
        .iter()
        .flat_map(|s| s.records.iter().copied())
        .collect();
    require(
        problems,
        scheduled == declared,
        "scheduled != declared shards",
    );
    require(
        problems,
        shard_list.len() == declared,
        "completed != declared shards",
    );
    require(
        problems,
        tallies_sum == result.total(),
        "shard tallies != total",
    );
    require(
        problems,
        records == result.records,
        "shard records != campaign records",
    );
    require(problems, monotone, "progress not monotone");
    require(problems, final_snapshot_ok, "final snapshot != final stats");
    shard_list.len()
}

/// Self-check for one case: every technique against whole runs, then
/// × both engines.  The recorder-off reference on the interpreter is
/// the case's shared serial campaign.
pub fn check(s: &Setup) -> Vec<Record> {
    let mut records = Vec::new();
    for technique in TECHNIQUES {
        let label = technique_label(technique);
        let labels = [("technique", label), ("reference", "whole runs")];
        records.push(s.item(&labels, || check_whole_runs(s, technique)));
        for engine in EngineKind::ALL {
            let labels = [("technique", label), ("engine", engine.label())];
            records.push(s.item(&labels, || check_one(s, technique, engine)));
        }
    }
    records
}

/// The cold anchor: re-runs every record of the serial campaign, which
/// replays its faults from golden checkpoints, whole from the entry
/// state on the interpreter, and fails on any outcome that differs.
fn check_whole_runs(s: &Setup, technique: Technique) -> Result<Record, ferrum::Error> {
    let b = s.build(technique)?;
    let (engine, golden) = (
        b.engine(EngineKind::Interpreter),
        &b.profile().result.output,
    );
    let serial = s.serial(technique)?;
    let differ: Vec<usize> = serial
        .records
        .iter()
        .enumerate()
        .filter(|(_, &(fault, outcome))| {
            let whole = engine.run(Some(fault));
            classify(whole.stop, &whole.output, golden) != outcome
        })
        .map(|(i, _)| i)
        .collect();
    let ok = differ.is_empty();
    Ok(Record {
        ok,
        json: Json::obj(vec![
            ("records", serial.records.len().to_json()),
            (
                "differing",
                Json::Arr(differ.iter().map(|i| i.to_json()).collect()),
            ),
        ]),
        text: if ok {
            format!(
                "{} records, every outcome matches its whole run",
                serial.records.len()
            )
        } else {
            format!(
                "{} records DIFFER from their whole runs: {differ:?}",
                differ.len()
            )
        },
    })
}

fn check_one(s: &Setup, technique: Technique, engine: EngineKind) -> Result<Record, ferrum::Error> {
    let b = s.build(technique)?;
    let (run_on, profile) = (b.engine(engine), b.profile());
    let plan = Campaign::sampled(s.cfg);
    // Baseline without a recorder: the purity reference.
    let bare = match engine {
        EngineKind::Interpreter => s.serial(technique)?.clone(),
        EngineKind::Decoded => plan.run(run_on, profile)?,
    };

    // Recorded run.
    let sink = Arc::new(MemorySink::new());
    let recorder = FlightRecorder::new(sink.clone())
        .with_labels(s.case.workload.name, technique_label(technique))
        .with_program_hash(program_signature(b.program()));
    let recorded = plan.observe(&recorder).run(run_on, profile)?;
    let events = sink.events();

    let mut problems = Vec::new();
    let shards = audit_stream(&events, &recorded, &mut problems);
    require(
        &mut problems,
        recorded == bare,
        "recording not outcome-pure",
    );

    // NDJSON round-trip on the real stream.
    let ndjson: String = events
        .iter()
        .map(|e| ferrum::flight::event_to_ndjson(e) + "\n")
        .collect();
    let round = parse_events(&ndjson).unwrap_or_default();
    require(&mut problems, round == events, "ndjson round-trip lossy");

    // Simulated mid-campaign kill: truncate the stream right after half
    // the shard completions, resume from what's left of the journal.
    let kill_after = (shards / 2).max(1);
    let mut seen = 0usize;
    let cut = events
        .iter()
        .position(|e| {
            if matches!(e.event, CampaignEvent::ShardCompleted(_)) {
                seen += 1;
            }
            seen == kill_after
        })
        .map_or(events.len(), |i| i + 1);
    let (resume_ok, reused_ok) = match JournalSnapshot::from_events(&events[..cut]) {
        Some(journal) if !journal.finished => {
            let completed = journal.completed();
            let resume = plan.reuse(Reuse::Journal(&journal));
            match resume.run(run_on, profile) {
                Ok(resumed) => (
                    resumed == bare,
                    resumed.stats.reused_sites == completed && completed > 0,
                ),
                Err(_) => (false, false),
            }
        }
        _ => (false, false),
    };
    require(&mut problems, resume_ok, "resume not byte-identical");
    require(&mut problems, reused_ok, "resume reuse wrong");

    let ok = problems.is_empty();
    Ok(Record {
        ok,
        json: Json::obj(vec![
            ("events", events.len().to_json()),
            ("shards", shards.to_json()),
            (
                "problems",
                Json::Arr(problems.iter().map(|&p| p.to_json()).collect()),
            ),
        ]),
        text: format!(
            "{} events, {shards} shards — {}",
            events.len(),
            if ok {
                "stream consistent, pure, resume identical".to_owned()
            } else {
                problems.join("; ")
            },
        ),
    })
}
