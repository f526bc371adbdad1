//! `ferrum-trace` — pipeline observability: per-mechanism overhead
//! attribution and campaign telemetry.
//!
//! ```text
//! usage: ferrum-trace <workload> [options]
//!        ferrum-trace --catalog [--json]
//!   --samples <n>   faults per campaign (default 400)
//!   --seed <s>      campaign seed (default 0xFE44)
//!   --scale <s>     test | paper   (default: test)
//!   --opt <l>       backend optimization level 0 | 1   (default: 0)
//!   --engine <e>    interpreter | decoded   (default: interpreter;
//!                   outcomes are byte-identical, only throughput moves)
//!   --json          emit the report as JSON instead of text
//!   --catalog       self-check across every bundled workload: the
//!                   per-mechanism executed-instruction (and cycle)
//!                   counts must sum *exactly* to the protected-minus-
//!                   baseline delta, and campaign outcomes must be
//!                   identical with and without a trace sink installed
//! ```
//!
//! Built with the `trace` cargo feature, the run also installs a
//! [`ferrum_trace::RingSink`] and prints a probe summary (span wall
//! time and counters).  Without the feature the probes compile out and
//! the attribution/telemetry sections — which flow through provenance
//! and [`ferrum::CampaignStats`], not the sink — are unchanged.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

use ferrum::json::{Json, ToJson};
use ferrum::report::{render_attribution_table, render_latency_histogram};
use ferrum::{
    attribute_overhead, CampaignConfig, CampaignResult, Pipeline, SnapshotPolicy, Technique,
};
use ferrum_cli::args::{parse_args, usage_exit, ArgError, ArgHelp, ArgSpec, UsageSpec};
use ferrum_cli::catalog::{catalog_exit, catalog_selfcheck, CheckLine};
use ferrum_faultsim::Campaign;
use ferrum_faultsim::EngineKind;
use ferrum_trace::{EventKind, RingSink};
use ferrum_workloads::catalog::{workload, Scale, Workload};

const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum-trace",
    forms: &["<workload> [options]", "--catalog [--json]"],
    args: &[
        ArgHelp {
            name: "--samples",
            value: Some("<n>"),
            help: "faults per campaign (default 400)",
        },
        ArgHelp {
            name: "--seed",
            value: Some("<s>"),
            help: "campaign seed (default 0xFE44)",
        },
        ArgHelp {
            name: "--scale",
            value: Some("<s>"),
            help: "test | paper   (default: test)",
        },
        ArgHelp {
            name: "--opt",
            value: Some("<l>"),
            help: "backend optimization level 0 | 1   (default: 0;\n--catalog: both levels)",
        },
        ArgHelp {
            name: "--engine",
            value: Some("<e>"),
            help: "interpreter | decoded   (default: interpreter;\noutcomes are byte-identical, only throughput moves)",
        },
        ArgHelp {
            name: "--json",
            value: None,
            help: "emit the report as JSON instead of text",
        },
        ArgHelp {
            name: "--catalog",
            value: None,
            help: "self-check across every bundled workload: the\nper-mechanism executed-instruction (and cycle) counts\nmust sum exactly to the protected-minus-baseline\ndelta, and campaign outcomes must be identical with\nand without a trace sink installed",
        },
    ],
    spec: ArgSpec {
        flags: &["--json", "--catalog"],
        values: &["--samples", "--seed", "--scale", "--opt", "--engine"],
        positional: true,
    },
};

struct Options {
    samples: usize,
    seed: u64,
    scale: Scale,
    opt: Option<ferrum::OptLevel>,
    engine: EngineKind,
    json: bool,
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs the FERRUM campaign for one workload on the snapshot engine.
fn ferrum_campaign(
    pipeline: &Pipeline,
    w: &Workload,
    opts: &Options,
) -> Result<CampaignResult, ferrum::Error> {
    let module = w.build(opts.scale);
    let prog = pipeline.protect(&module, Technique::Ferrum)?;
    let cpu = pipeline.load(&prog)?;
    let profile = cpu.profile();
    let plan = Campaign::sampled(CampaignConfig {
        samples: opts.samples,
        seed: opts.seed,
    })
    .threads(threads())
    .snapshots(SnapshotPolicy::default());
    Ok(opts
        .engine
        .with_cpu(&cpu, |engine| plan.run(engine, &profile))?)
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

fn run_one(name: &str, opts: &Options) -> ExitCode {
    let Some(w) = workload(name) else {
        eprintln!("ferrum-trace: unknown workload `{name}`");
        return ExitCode::FAILURE;
    };
    let pipeline = Pipeline::new().with_opt_level(opts.opt.unwrap_or_default());
    let module = w.build(opts.scale);

    let sink = Arc::new(RingSink::new(64 * 1024));
    ferrum_trace::install(sink.clone());
    let att = match attribute_overhead(&pipeline, &module) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ferrum-trace: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let campaign = match ferrum_campaign(&pipeline, &w, opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ferrum-trace: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    ferrum_trace::uninstall();

    if opts.json {
        let (spans, counters) = probe_summary(&sink);
        let map = |m: BTreeMap<&'static str, u64>| {
            Json::Obj(m.into_iter().map(|(k, v)| (k.to_owned(), v.to_json())).collect())
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
            "campaign: {} injections, {} threads, {:.0} inj/sec, snapshot hit-rate {:.0}%, steps saved {:.0}%, worker balance {:.2}",
            s.injections,
            s.threads,
            s.injections_per_sec,
            s.snapshot_hit_rate() * 100.0,
            s.steps_saved_ratio() * 100.0,
            s.worker_balance(),
        );
        let (spans, counters) = probe_summary(&sink);
        if spans.is_empty() && counters.is_empty() {
            println!("probes: none recorded (build with `--features trace` for span/counter events)");
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
        ExitCode::SUCCESS
    } else {
        eprintln!("ferrum-trace: {name}: mechanism counts do not reconcile");
        ExitCode::from(1)
    }
}

/// Self-check for one workload: exact per-mechanism reconciliation and
/// trace-sink transparency (outcomes identical with and without a sink
/// installed).  Driven by the shared [`catalog_selfcheck`] loop.
fn catalog_check(
    pipeline: &Pipeline,
    w: &Workload,
    opts: &Options,
) -> Result<Vec<CheckLine>, ferrum::Error> {
    let opt = pipeline.opt_level();
    let module = w.build(opts.scale);
    let att = attribute_overhead(pipeline, &module)?;
    let exact = att.reconciles();

    let sink = Arc::new(RingSink::new(4096));
    ferrum_trace::install(sink);
    let traced = ferrum_campaign(pipeline, w, opts);
    ferrum_trace::uninstall();
    let plain = ferrum_campaign(pipeline, w, opts)?;
    let traced = traced?;
    let transparent = traced == plain && traced.stats.latency == plain.stats.latency;

    Ok(vec![CheckLine {
        ok: exact && transparent,
        json: Json::obj(vec![
            ("workload", w.name.to_json()),
            ("opt", opt.to_json()),
            ("protection_insts", att.protection_insts().to_json()),
            ("mechanism_sum_exact", Json::Bool(exact)),
            ("trace_transparent", Json::Bool(transparent)),
        ]),
        text: format!(
            "{} [{}]: mechanism sum {} ({} prot insts, +{:.1}% cycles); trace on/off outcomes {}",
            w.name,
            opt.label(),
            if exact { "exact" } else { "MISMATCH" },
            att.protection_insts(),
            att.cycle_overhead() * 100.0,
            if transparent { "identical" } else { "DIVERGED" },
        ),
    }])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (parsed, opts) = match parse_args(&args, &USAGE.spec).and_then(|p| {
        let opts = Options {
            samples: p.samples(400)?,
            seed: p.seed(0xFE44)?,
            scale: p.scale()?,
            opt: p.opt_level()?,
            engine: p.engine()?,
            json: p.flag("--json"),
        };
        Ok((p, opts))
    }) {
        Ok(r) => r,
        Err(e) => return usage_exit(&USAGE.render(), &e),
    };

    if parsed.flag("--catalog") {
        let levels = ferrum_cli::catalog::catalog_levels(opts.opt);
        return catalog_exit(catalog_selfcheck("ferrum-trace", opts.json, |w| {
            let mut lines = Vec::new();
            for &o in &levels {
                let pipeline = Pipeline::new().with_opt_level(o);
                lines.extend(catalog_check(&pipeline, w, &opts)?);
            }
            Ok::<_, ferrum::Error>(lines)
        }));
    }
    match parsed.positional.as_deref() {
        Some(n) => run_one(n, &opts),
        None => usage_exit(&USAGE.render(), &ArgError::Help),
    }
}

#[cfg(test)]
mod spec_tests {
    #[test]
    fn spec_rejects_duplicate_and_swallowed_arguments() {
        ferrum_cli::args::assert_usage_consistent(&super::USAGE);
    }
}
