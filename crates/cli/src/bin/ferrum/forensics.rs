//! `ferrum forensics` — differential-replay SDC forensics.
//!
//! The tool protects the workload, runs a fault campaign, replays its
//! selected records differentially ([`ferrum::forensic_report`]), and
//! explains each selected outcome: first architectural divergence,
//! taint fan-out, the checkers that ran afterwards with classified
//! escape reasons, and the bisected kill window.  SDC records are then
//! cross-linked to the static coverage map so every statically-`Unknown`
//! site that produced an SDC gets a measured explanation.
//!
//! Self-check, under FERRUM and IR-EDDI: the replayed records must be
//! the campaign's first SDC records with their outcomes, every analyzed
//! record must locate its divergence at the injected site, at least 90%
//! must carry a classified escape reason, and every bisected kill
//! window must contain the injection.

use std::process::ExitCode;

use ferrum::json::{Json, ToJson};
use ferrum::report::{
    render_forensic_record, render_forensics_report, render_unknown_site_explanations,
};
use ferrum::{
    explain_unknown_sites, forensic_report, Campaign, CampaignConfig, CoverageMap, ForensicConfig,
    Outcome, Technique,
};
use ferrum_cli::args::{
    parse_args, technique_label, ArgError, ArgHelp, ArgSpec, ParsedArgs, UsageSpec, OPT_ARG,
    SCALE_ARG, TECHNIQUE_ARG,
};

use crate::selfcheck::{Record, Setup};
use crate::Case;

pub const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum forensics",
    forms: &["<workload> [options]"],
    args: &[
        TECHNIQUE_ARG,
        ArgHelp::option("--samples", "<n>", "faults for the campaign (default 400)"),
        ArgHelp::option("--seed", "<s>", "campaign seed (default 0xFE44)"),
        SCALE_ARG,
        OPT_ARG,
        ArgHelp::option(
            "--outcome",
            "<o>",
            "sdc | detected | crash | timeout | benign | all\n-- which campaign outcomes to replay (default: sdc)",
        ),
        ArgHelp::option("--records", "<n>", "cap on fully analyzed records (default 64)"),
        ArgHelp::option("--show", "<n>", "print the first n full incident records (default 3)"),
        ArgHelp::flag("--no-bisect", "skip kill-window bisection (faster)"),
        ArgHelp::flag("--json", "emit the report as JSON instead of text"),
    ],
    spec: ArgSpec {
        flags: &["--json", "--no-bisect"],
        values: &[
            "--technique",
            "--samples",
            "--seed",
            "--scale",
            "--opt",
            "--outcome",
            "--records",
            "--show",
        ],
        positional: true,
    },
};

fn parse_outcomes(p: &ParsedArgs) -> Result<Vec<Outcome>, ArgError> {
    match p.value("--outcome") {
        None | Some("sdc") => Ok(vec![Outcome::Sdc]),
        Some("detected") => Ok(vec![Outcome::Detected]),
        Some("crash") => Ok(vec![Outcome::Crash]),
        Some("timeout") => Ok(vec![Outcome::Timeout]),
        Some("benign") => Ok(vec![Outcome::Benign]),
        Some("all") => Ok(Outcome::ALL.to_vec()),
        Some(other) => Err(ArgError::Message(format!(
            "unknown outcome `{other}` (sdc | detected | crash | timeout | benign | all)"
        ))),
    }
}

pub fn run(args: &[String]) -> Result<ExitCode, ArgError> {
    let p = parse_args(args, &USAGE.spec)?;
    let defaults = ForensicConfig::default();
    let records = p.parsed("--records")?.unwrap_or(defaults.max_records);
    let show = p.parsed("--show")?.unwrap_or(3);
    let technique = p.technique_core(Technique::Ferrum)?;
    let cfg = CampaignConfig {
        samples: p.samples(400)?,
        seed: p.seed(0xFE44)?,
    };
    let (scale, opt) = (p.scale()?, p.opt_level()?);
    let fcfg = ForensicConfig {
        outcomes: parse_outcomes(&p)?,
        max_records: records,
        bisect: !p.flag("--no-bisect"),
        ..defaults
    };
    let json = p.flag("--json");
    let Some(name) = p.positional.as_deref() else {
        return Err(ArgError::Help);
    };
    let context = format!("forensics: {name}");
    Ok(crate::exit_on_error::<ferrum::Error>(&context, || {
        let prot = Case::open(name, scale, opt)?.protect(technique)?;
        let map = CoverageMap::analyze(&prot.prog);
        let profile = prot.profile();
        let campaign = Campaign::sampled(cfg).run(&prot.cpu, profile)?;
        let report = forensic_report(&prot.cpu, profile, &campaign, &fcfg);
        let explanations = explain_unknown_sites(profile, &map, &report);

        let label = format!("{name} ({})", technique_label(technique));
        if json {
            let doc = Json::obj(vec![
                ("workload", name.to_json()),
                ("technique", technique_label(technique).to_json()),
                ("sdc", campaign.sdc.to_json()),
                ("detected", campaign.detected.to_json()),
                ("crash", campaign.crash.to_json()),
                ("timeout", campaign.timeout.to_json()),
                ("benign", campaign.benign.to_json()),
                ("forensics", report.to_json()),
                ("unknown_site_explanations", explanations.to_json()),
            ]);
            println!("{}", doc.to_string_pretty());
        } else {
            println!(
                "campaign ({} faults): SDC {}  detected {}  crash {}  timeout {}  benign {}",
                campaign.total(),
                campaign.sdc,
                campaign.detected,
                campaign.crash,
                campaign.timeout,
                campaign.benign
            );
            print!("{}", render_forensics_report(&label, &report));
            for rec in report.records.iter().take(show) {
                println!();
                print!("{}", render_forensic_record(rec));
            }
            println!();
            print!("{}", render_unknown_site_explanations(&explanations));
        }
        Ok(ExitCode::SUCCESS)
    }))
}

/// Self-check for one case under FERRUM and IR-EDDI: the report must
/// replay exactly the campaign's first SDC records, in sampling order,
/// with the outcomes the campaign booked; every record must locate its
/// first divergence exactly at the injected site, at least 90% of the
/// records must carry a classified escape reason, and every bisected,
/// non-escaped kill window must contain the injection boundary.
pub fn check(s: &Setup) -> Vec<Record> {
    [Technique::Ferrum, Technique::IrEddi]
        .into_iter()
        .map(|t| {
            s.item(&[("technique", technique_label(t))], || {
                let prot = s.protected(t)?;
                let serial = s.serial(t)?;
                let fcfg = ForensicConfig::default();
                let report = forensic_report(&prot.cpu, prot.profile(), serial, &fcfg);

                let matching = serial
                    .records
                    .iter()
                    .filter(|(_, o)| fcfg.outcomes.contains(o));
                let identical = report.matching_total == matching.clone().count()
                    && report
                        .records
                        .iter()
                        .map(|r| (r.fault, r.outcome))
                        .eq(matching.take(fcfg.max_records).copied());
                let located = report.records.iter().all(|r| {
                    r.divergence
                        .is_some_and(|d| d.dyn_index == r.fault.dyn_index)
                });
                let classified = report.analyzed() == 0
                    || report.classified() as f64 >= 0.9 * report.analyzed() as f64;
                let windows_ok = report.records.iter().all(|r| {
                    r.kill_window
                        .is_none_or(|kw| kw.escaped || kw.contains(r.fault.dyn_index))
                });

                Ok(Record {
                    ok: identical && located && classified && windows_ok,
                    json: Json::obj(vec![
                        ("sdc", serial.sdc.to_json()),
                        ("analyzed", report.analyzed().to_json()),
                        ("outcomes_identical", Json::Bool(identical)),
                        ("divergences_located", Json::Bool(located)),
                        ("classified", report.classified().to_json()),
                        ("kill_windows_sound", Json::Bool(windows_ok)),
                    ]),
                    text: format!(
                        "{} SDC, {} analyzed ({} classified); outcomes {}; divergences {}; kill windows {}",
                        serial.sdc,
                        report.analyzed(),
                        report.classified(),
                        if identical { "identical" } else { "DIVERGED" },
                        if located { "located" } else { "MISLOCATED" },
                        if windows_ok { "sound" } else { "UNSOUND" },
                    ),
                })
            })
        })
        .collect()
}
