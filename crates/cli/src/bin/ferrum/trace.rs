//! `ferrum trace` — pipeline observability: per-mechanism overhead
//! attribution and campaign telemetry.
//!
//! Built with the `trace` cargo feature, the run also installs a
//! [`ferrum_trace::RingSink`] and prints a probe summary (span wall
//! time and counters).  Without the feature the probes compile out and
//! the attribution/telemetry sections — which flow through provenance
//! and [`ferrum::CampaignStats`], not the sink — are unchanged.
//!
//! Self-check: the per-mechanism executed-instruction (and cycle)
//! counts must sum *exactly* to the protected-minus-baseline delta, and
//! campaign outcomes must be identical with and without a trace sink
//! installed.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

use ferrum::json::{Json, ToJson};
use ferrum::report::{render_attribution_table, render_latency_histogram};
use ferrum::{attribute_overhead, CampaignConfig, CampaignResult, SnapshotPolicy, Technique};
use ferrum_cli::args::{parse_args, ArgError, ArgHelp, ArgSpec, UsageSpec, OPT_ARG, SCALE_ARG};
use ferrum_faultsim::{Campaign, EngineKind};
use ferrum_trace::{EventKind, RingSink};

use crate::selfcheck::{Record, Setup};
use crate::{Case, Protected};

pub const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum trace",
    forms: &["<workload> [options]"],
    args: &[
        ArgHelp::option("--samples", "<n>", "faults per campaign (default 400)"),
        ArgHelp::option("--seed", "<s>", "campaign seed (default 0xFE44)"),
        SCALE_ARG,
        OPT_ARG,
        ArgHelp::option(
            "--engine",
            "<e>",
            "decoded | interpreter   (default: decoded;\noutcomes are byte-identical, only throughput moves)",
        ),
        ArgHelp::flag("--json", "emit the report as JSON instead of text"),
    ],
    spec: ArgSpec {
        flags: &["--json"],
        values: &["--samples", "--seed", "--scale", "--opt", "--engine"],
        positional: true,
    },
};

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs the FERRUM campaign on the snapshot executor.
fn ferrum_campaign(
    prot: &Protected,
    engine: EngineKind,
    cfg: CampaignConfig,
) -> Result<CampaignResult, ferrum::Error> {
    let plan = Campaign::sampled(cfg)
        .threads(threads())
        .snapshots(SnapshotPolicy::default());
    Ok(engine.with_cpu(&prot.cpu, |e| plan.run(e, prot.profile()))?)
}

/// Aggregates ring-buffer events into per-name span nanos and counter
/// totals (empty when the `trace` feature is off — the sink never saw
/// an event).
fn probe_summary(sink: &RingSink) -> (BTreeMap<&'static str, u64>, BTreeMap<&'static str, u64>) {
    let mut spans = BTreeMap::new();
    let mut counters = BTreeMap::new();
    for ev in sink.events() {
        match ev.kind {
            EventKind::SpanEnd => *spans.entry(ev.name).or_insert(0) += ev.value,
            EventKind::Counter => *counters.entry(ev.name).or_insert(0) += ev.value,
            EventKind::SpanStart => {}
        }
    }
    (spans, counters)
}

pub fn run(args: &[String]) -> Result<ExitCode, ArgError> {
    let p = parse_args(args, &USAGE.spec)?;
    let cfg = CampaignConfig {
        samples: p.samples(400)?,
        seed: p.seed(0xFE44)?,
    };
    let (scale, opt, engine) = (p.scale()?, p.opt_level()?, p.engine()?);
    let json = p.flag("--json");
    let Some(name) = p.positional.as_deref() else {
        return Err(ArgError::Help);
    };
    let context = format!("trace: {name}");
    Ok(crate::exit_on_error::<ferrum::Error>(&context, || {
        let case = Case::open(name, scale, opt)?;
        let sink = Arc::new(RingSink::new(64 * 1024));
        ferrum_trace::install(sink.clone());
        let traced = (|| -> Result<_, ferrum::Error> {
            let att = attribute_overhead(&case.pipeline, &case.module)?;
            let prot = case.protect(Technique::Ferrum)?;
            Ok((att, ferrum_campaign(&prot, engine, cfg)?))
        })();
        ferrum_trace::uninstall();
        let (att, campaign) = traced?;

        if json {
            let (spans, counters) = probe_summary(&sink);
            let map = |m: BTreeMap<&'static str, u64>| {
                Json::Obj(
                    m.into_iter()
                        .map(|(k, v)| (k.to_owned(), v.to_json()))
                        .collect(),
                )
            };
            let doc = Json::obj(vec![
                ("workload", name.to_json()),
                ("attribution", att.to_json()),
                ("campaign_stats", campaign.stats.to_json()),
                ("probe_spans_nanos", map(spans)),
                ("probe_counters", map(counters)),
            ]);
            println!("{}", doc.to_string_pretty());
        } else {
            print!("{}", render_attribution_table(name, &att));
            println!();
            print!("{}", render_latency_histogram(&campaign.stats.latency));
            let s = &campaign.stats;
            println!(
                "campaign: {} injections, {} threads, {:.0} inj/sec, snapshot hit-rate \
                 {:.0}%, steps saved {:.0}%, worker balance {:.2}",
                s.injections,
                s.threads,
                s.injections_per_sec,
                s.snapshot_hit_rate() * 100.0,
                s.steps_saved_ratio() * 100.0,
                s.worker_balance(),
            );
            let (spans, counters) = probe_summary(&sink);
            if spans.is_empty() && counters.is_empty() {
                println!(
                    "probes: none recorded (build with `--features trace` for span/counter events)"
                );
            } else {
                for (n, nanos) in spans {
                    println!("span    {n:<28} {:>12.3} ms", nanos as f64 / 1e6);
                }
                for (n, v) in counters {
                    println!("counter {n:<28} {v:>12}");
                }
            }
        }
        if att.reconciles() {
            Ok(ExitCode::SUCCESS)
        } else {
            eprintln!("ferrum trace: {name}: mechanism counts do not reconcile");
            Ok(ExitCode::from(1))
        }
    }))
}

/// Self-check for one case: exact per-mechanism reconciliation and
/// trace-sink transparency (FERRUM campaign outcomes identical with
/// and without a sink installed).
pub fn check(s: &Setup) -> Vec<Record> {
    vec![s.item(&[], || {
        let att = attribute_overhead(&s.case.pipeline, &s.case.module)?;
        let exact = att.reconciles();
        let prot = s.protected(Technique::Ferrum)?;
        let engine = EngineKind::default();

        let sink = Arc::new(RingSink::new(4096));
        ferrum_trace::install(sink);
        let traced = ferrum_campaign(prot, engine, s.cfg);
        ferrum_trace::uninstall();
        let plain = ferrum_campaign(prot, engine, s.cfg)?;
        let traced = traced?;
        let transparent = traced == plain && traced.stats.latency == plain.stats.latency;

        Ok(Record {
            ok: exact && transparent,
            json: Json::obj(vec![
                ("protection_insts", att.protection_insts().to_json()),
                ("mechanism_sum_exact", Json::Bool(exact)),
                ("trace_transparent", Json::Bool(transparent)),
            ]),
            text: format!(
                "mechanism sum {} ({} prot insts, +{:.1}% cycles); trace on/off outcomes {}",
                if exact { "exact" } else { "MISMATCH" },
                att.protection_insts(),
                att.cycle_overhead() * 100.0,
                if transparent { "identical" } else { "DIVERGED" },
            ),
        })
    })]
}
