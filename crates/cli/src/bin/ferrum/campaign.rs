//! `ferrum campaign` — long-running campaigns with live telemetry and
//! a resume-grade journal.
//!
//! The tool protects and loads the workload, installs a
//! [`FlightRecorder`](ferrum::FlightRecorder), and runs a sampled
//! [`Campaign`](ferrum::Campaign) with a live progress table on stdout.
//! `--executor` picks the plan's axes: `serial` is one cold thread,
//! `parallel` is `--threads` cold workers, `snapshot` is `--threads`
//! workers replaying from golden-prefix snapshots.  `--events` and
//! `--journal` tee the same event stream into NDJSON files; a journal
//! cut short by a crash or kill feeds `--resume`, which replays
//! completed shards and injects only the remainder — the result is
//! byte-identical to an uninterrupted run of the same seed.
//!
//! Self-check, for all four techniques × both engines: event streams
//! are internally consistent (monotone sequence numbers, shard records
//! reassemble the exact campaign record stream, snapshot tallies sum to
//! the final stats), recording is outcome-pure (recorder on/off results
//! are identical), NDJSON round-trips losslessly, and journal-resume
//! after a simulated mid-campaign kill is byte-identical with the
//! journaled fraction reused.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ferrum::flight::{journal_from_ndjson, parse_events, NdjsonSink, StallTracker};
use ferrum::json::{Json, ToJson};
use ferrum::report::{render_flight_summary, render_progress_header, render_progress_row_flagged};
use ferrum::{
    install_flight_recorder, program_signature, uninstall_flight_recorder, Campaign,
    CampaignConfig, CampaignEvent, CampaignFingerprint, CampaignResult, EngineKind, FlightEvent,
    FlightRecorder, FlightSink, JournalSnapshot, MemorySink, Reuse, SnapshotPolicy, Technique,
    TeeSink,
};
use ferrum_cli::args::{
    parse_args, technique_label, ArgError, ArgHelp, ArgSpec, UsageSpec, ENGINE_ARG, OPT_ARG,
    SCALE_ARG, TECHNIQUE_ARG,
};
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
        ArgHelp::option("--executor", "<x>", "serial | parallel | snapshot   (default: serial)"),
        ArgHelp::option("--threads", "<n>", "worker threads for parallel/snapshot (default 4)"),
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
            "--executor",
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
    /// `--executor` and `--threads` as plan axes.
    threads: usize,
    snapshots: Option<SnapshotPolicy>,
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
/// (no recorder installed — the campaign runs probe-free).
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
    let threads = p.parsed("--threads")?.unwrap_or(4);
    let (threads, snapshots) = match p.value("--executor").unwrap_or("serial") {
        "serial" => (1, None),
        "parallel" => (threads, None),
        "snapshot" => (threads, Some(SnapshotPolicy::default())),
        s => {
            return Err(ArgError::Message(format!(
                "unknown executor `{s}` (serial | parallel | snapshot)"
            )))
        }
    };
    let opts = Options {
        technique: p.technique_core(Technique::Ferrum)?,
        samples: p.samples(400)?,
        seed: p.seed(0xFE44)?,
        scale: p.scale()?,
        opt: p.opt_level()?,
        engine: p.engine()?,
        threads,
        snapshots,
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
    let prot = case.protect(opts.technique)?;
    let profile = prot.profile();
    let cfg = CampaignConfig {
        samples: opts.samples,
        seed: opts.seed,
    };
    if let Some(sink) = build_sinks(opts).map_err(ferrum::Error::msg)? {
        install_flight_recorder(Arc::new(
            FlightRecorder::new(sink)
                .with_labels(name, technique_label(opts.technique))
                .with_program_hash(program_signature(&prot.prog)),
        ));
    }
    let plan = Campaign::sampled(cfg)
        .threads(opts.threads)
        .snapshots(opts.snapshots)
        .reuse(journal.as_ref().map_or(Reuse::None, Reuse::Journal));
    let result = opts
        .engine
        .with_cpu(&prot.cpu, |engine| plan.run(engine, profile));
    uninstall_flight_recorder();
    let result = result?;

    let fp = CampaignFingerprint {
        workload: name.to_owned(),
        technique: technique_label(opts.technique).to_owned(),
        executor: plan.executor().to_owned(),
        engine: opts.engine,
        samples: cfg.samples,
        seed: cfg.seed,
        sites: profile.sites.len(),
        golden_dyn_insts: profile.result.dyn_insts,
        program_hash: program_signature(&prot.prog),
    };
    if opts.json {
        let doc = Json::obj(vec![
            ("workload", name.to_json()),
            ("technique", technique_label(opts.technique).to_json()),
            ("executor", fp.executor.to_json()),
            ("program_hash", fp.program_hash.to_json()),
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

/// Self-check for one case: every technique × both engines.  The
/// recorder-off reference on the interpreter is the case's shared
/// serial campaign.
pub fn check(s: &Setup) -> Vec<Record> {
    let mut records = Vec::new();
    for technique in TECHNIQUES {
        let label = technique_label(technique);
        for engine in EngineKind::ALL {
            let labels = [("technique", label), ("engine", engine.label())];
            records.push(s.item(&labels, || check_one(s, technique, engine)));
        }
    }
    records
}

fn check_one(s: &Setup, technique: Technique, engine: EngineKind) -> Result<Record, ferrum::Error> {
    let prot = s.protected(technique)?;
    let (cpu, profile) = (&prot.cpu, prot.profile());
    let plan = Campaign::sampled(s.cfg);
    // Baseline without a recorder: the purity reference.
    let bare = match engine {
        EngineKind::Interpreter => s.serial(technique)?.clone(),
        EngineKind::Decoded => engine.with_cpu(cpu, |e| plan.run(e, profile))?,
    };

    // Recorded run.
    let sink = Arc::new(MemorySink::new());
    install_flight_recorder(Arc::new(
        FlightRecorder::new(sink.clone())
            .with_labels(s.case.workload.name, technique_label(technique))
            .with_program_hash(program_signature(&prot.prog)),
    ));
    let recorded = engine.with_cpu(cpu, |e| plan.run(e, profile));
    uninstall_flight_recorder();
    let recorded = recorded?;
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
            match engine.with_cpu(cpu, |e| resume.run(e, profile)) {
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
