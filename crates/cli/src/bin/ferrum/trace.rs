//! `ferrum trace` — pipeline observability: per-mechanism overhead
//! attribution and campaign telemetry.
//!
//! Both sections flow through provenance tags and
//! [`ferrum::CampaignStats`]: the attribution table, the FERRUM
//! campaign's detection-latency histogram, and one campaign line
//! (throughput, snapshot hit-rate, steps saved, worker balance).
//! Per-event campaign telemetry is the flight recorder's stream
//! (`ferrum campaign --events`).
//!
//! Self-check: the per-mechanism executed-instruction (and cycle)
//! counts must sum *exactly* to the protected-minus-baseline delta.

use std::process::ExitCode;

use ferrum::json::{Json, ToJson};
use ferrum::report::{render_attribution_table, render_latency_histogram};
use ferrum::{diff_profile, Campaign, CampaignConfig, Technique};
use ferrum_cli::args::{parse_args, ArgError, ArgHelp, ArgSpec, UsageSpec, OPT_ARG, SCALE_ARG};

use crate::selfcheck::{Record, Setup};
use crate::Case;

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
        let ferrum = case.build(Technique::Ferrum)?;
        let att = diff_profile(&case.pipeline.baseline(&case.module)?, &ferrum)?.attribution;
        // The FERRUM campaign on all cores.
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let plan = Campaign::sampled(cfg).threads(threads);
        let campaign = plan.run(ferrum.engine(engine), ferrum.profile())?;

        if json {
            let doc = Json::obj(vec![
                ("workload", name.to_json()),
                ("attribution", att.to_json()),
                ("campaign_stats", campaign.stats.to_json()),
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
        }
        if att.reconciles() {
            Ok(ExitCode::SUCCESS)
        } else {
            eprintln!("ferrum trace: {name}: mechanism counts do not reconcile");
            Ok(ExitCode::from(1))
        }
    }))
}

/// Self-check for one case: exact per-mechanism reconciliation.
pub fn check(s: &Setup) -> Vec<Record> {
    vec![s.item(&[], || {
        let att = diff_profile(s.baseline()?, s.build(Technique::Ferrum)?)?.attribution;
        let exact = att.reconciles();
        Ok(Record {
            ok: exact,
            json: Json::obj(vec![
                ("protection_insts", att.protection_insts().to_json()),
                ("mechanism_sum_exact", Json::Bool(exact)),
            ]),
            text: format!(
                "mechanism sum {} ({} prot insts, +{:.1}% cycles)",
                if exact { "exact" } else { "MISMATCH" },
                att.protection_insts(),
                att.cycle_overhead() * 100.0,
            ),
        })
    })]
}
