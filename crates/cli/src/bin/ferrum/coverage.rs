//! `ferrum coverage` — static per-site vulnerability maps.
//!
//! The tool protects the workload, classifies every injectable fault
//! site (`ferrum_asm::analysis::coverage`), prints the per-mechanism
//! rollups with the predicted detection-coverage bounds, then runs a
//! pruned injection campaign and prints the predicted-vs-measured
//! table.
//!
//! Self-check: under FERRUM the pruned campaign must be
//! outcome-identical to the serial one, every sound verdict must agree
//! with injection, and the prune rate must clear 20%.

use std::process::ExitCode;

use ferrum::json::{Json, ToJson};
use ferrum::report::{
    coverage_to_json, predicted_vs_measured_to_json, render_predicted_vs_measured,
    render_static_coverage,
};
use ferrum::{static_outcome, Campaign, CampaignConfig, CoverageMap, EngineKind, Technique};
use ferrum_cli::args::{
    parse_args, technique_label, ArgError, ArgHelp, ArgSpec, UsageSpec, OPT_ARG, SCALE_ARG,
    TECHNIQUE_ARG,
};

use crate::selfcheck::{Record, Setup};
use crate::Case;

pub const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum coverage",
    forms: &["<workload> [options]"],
    args: &[
        TECHNIQUE_ARG,
        ArgHelp::option(
            "--samples",
            "<n>",
            "faults for the measured campaign (default 400)",
        ),
        ArgHelp::option("--seed", "<s>", "campaign seed (default 0xFE44)"),
        SCALE_ARG,
        OPT_ARG,
        ArgHelp::flag(
            "--sites",
            "include the per-site verdict lists in the output",
        ),
        ArgHelp::flag("--json", "emit the report as JSON instead of text"),
    ],
    spec: ArgSpec {
        flags: &["--json", "--sites"],
        values: &["--technique", "--samples", "--seed", "--scale", "--opt"],
        positional: true,
    },
};

pub fn run(args: &[String]) -> Result<ExitCode, ArgError> {
    let p = parse_args(args, &USAGE.spec)?;
    let technique = p.technique_core(Technique::Ferrum)?;
    let cfg = CampaignConfig {
        samples: p.samples(400)?,
        seed: p.seed(0xFE44)?,
    };
    let (scale, opt) = (p.scale()?, p.opt_level()?);
    let (sites, json) = (p.flag("--sites"), p.flag("--json"));
    let Some(name) = p.positional.as_deref() else {
        return Err(ArgError::Help);
    };
    let context = format!("coverage: {name}");
    Ok(crate::exit_on_error::<ferrum::Error>(&context, || {
        let build = Case::open(name, scale, opt)?.build(technique)?;
        let map = CoverageMap::analyze(build.program());
        let campaign = Campaign::sampled(cfg)
            .prune(&map)
            .run(build.engine(EngineKind::default()), build.profile())?;

        if json {
            let doc = Json::obj(vec![
                ("workload", name.to_json()),
                ("technique", technique_label(technique).to_json()),
                ("coverage", coverage_to_json(&map, sites)),
                (
                    "predicted_vs_measured",
                    predicted_vs_measured_to_json(&map, &campaign),
                ),
                ("campaign_stats", campaign.stats.to_json()),
                ("detected", campaign.detected.to_json()),
                ("benign", campaign.benign.to_json()),
                ("sdc", campaign.sdc.to_json()),
            ]);
            println!("{}", doc.to_string_pretty());
        } else {
            let label = format!("{name} ({})", technique_label(technique));
            print!("{}", render_static_coverage(&label, &map));
            if sites {
                for f in &map.functions {
                    let r = &f.rollup;
                    println!(
                        "  fn {:<24} {:>5} sites: {} masked, {} detected, {} vulnerable, \
                         {} unknown",
                        f.name,
                        f.sites.len(),
                        r.masked,
                        r.detected,
                        r.vulnerable,
                        r.unknown
                    );
                }
            }
            println!();
            print!("{}", render_predicted_vs_measured(&label, &map, &campaign));
        }
        Ok(ExitCode::SUCCESS)
    }))
}

/// Self-check for one case under FERRUM: every sound verdict must
/// agree with injection, the pruned campaign (on the default engine)
/// must be outcome-identical to the serial one, and the prune rate
/// must clear the 20% floor.
pub fn check(s: &Setup) -> Vec<Record> {
    vec![s.item(&[], || {
        let b = s.build(Technique::Ferrum)?;
        let map = CoverageMap::analyze(b.program());
        let profile = b.profile();
        let serial = s.serial(Technique::Ferrum)?;
        let pruned = Campaign::sampled(s.cfg)
            .prune(&map)
            .run(b.engine(EngineKind::default()), profile)?;

        let identical = *serial == pruned;
        let prune_ok = pruned.stats.prune_rate() >= 0.20;
        // Soundness: the serial (all-injected) outcomes must agree with
        // every decided verdict the map claims for the sampled faults.
        let sound = serial.records.iter().all(|&(fault, outcome)| {
            static_outcome(&map, profile, fault).is_none_or(|o| o == outcome)
        });

        let rollup = map.rollup();
        Ok(Record {
            ok: identical && prune_ok && sound,
            json: Json::obj(vec![
                ("total_sites", map.total_sites().to_json()),
                ("decided_fraction", rollup.decided_fraction().to_json()),
                ("prune_rate", pruned.stats.prune_rate().to_json()),
                ("pruned_identical", Json::Bool(identical)),
                ("verdicts_sound", Json::Bool(sound)),
            ]),
            text: format!(
                "{} sites, {:.1}% decided, prune rate {:.1}% ({} of {}); pruned outcomes {}; verdicts {}",
                map.total_sites(),
                rollup.decided_fraction() * 100.0,
                pruned.stats.prune_rate() * 100.0,
                pruned.stats.pruned_sites,
                pruned.total(),
                if identical { "identical" } else { "DIVERGED" },
                if sound { "sound" } else { "UNSOUND" },
            ),
        })
    })]
}
