//! `ferrum-forensics` — differential-replay SDC forensics.
//!
//! ```text
//! usage: ferrum-forensics <workload> [options]
//!        ferrum-forensics --catalog [--json]
//!   --technique <t>   ferrum | hybrid | ir-eddi | none   (default: ferrum)
//!   --samples <n>     faults for the campaign (default 400)
//!   --seed <s>        campaign seed (default 0xFE44)
//!   --scale <s>       test | paper   (default: test)
//!   --opt <l>         backend optimization level 0 | 1   (default: 0)
//!   --outcome <o>     sdc | detected | crash | timeout | benign | all
//!                     — which campaign outcomes to replay (default: sdc)
//!   --records <n>     cap on fully analyzed records (default 64)
//!   --show <n>        print the first n full incident records (default 3)
//!   --no-bisect       skip kill-window bisection (faster)
//!   --json            emit the report as JSON instead of text
//!   --catalog         self-check across every bundled workload under
//!                     FERRUM and IR-EDDI: the replayed records must be
//!                     the campaign's first matching records with their
//!                     outcomes, every
//!                     analyzed record must locate its divergence at the
//!                     injected site, at least 90% must carry a
//!                     classified escape reason, and every bisected kill
//!                     window must contain the injection
//! ```
//!
//! The tool protects the workload, runs a fault campaign, replays its
//! selected records differentially ([`ferrum::forensic_report`]), and
//! explains each selected outcome: first architectural divergence,
//! taint fan-out, the checkers that ran afterwards with classified
//! escape reasons, and the bisected kill window.  SDC records are then
//! cross-linked to the static coverage map so every statically-`Unknown`
//! site that produced an SDC gets a measured explanation.

use std::process::ExitCode;

use ferrum::json::{Json, ToJson};
use ferrum::report::{
    render_forensic_record, render_forensics_report, render_unknown_site_explanations,
};
use ferrum::{
    explain_unknown_sites, forensic_report, Campaign, CampaignConfig, CoverageMap, ForensicConfig,
    Outcome, Pipeline, Technique,
};
use ferrum_cli::args::{
    parse_args, technique_label, usage_exit, ArgError, ArgHelp, ArgSpec, ParsedArgs, UsageSpec,
};
use ferrum_cli::catalog::{catalog_exit, catalog_selfcheck, CheckLine};
use ferrum_workloads::catalog::{workload, Scale, Workload};

const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum-forensics",
    forms: &["<workload> [options]", "--catalog [--json]"],
    args: &[
        ArgHelp {
            name: "--technique",
            value: Some("<t>"),
            help: "ferrum | hybrid | ir-eddi | none   (default: ferrum)",
        },
        ArgHelp {
            name: "--samples",
            value: Some("<n>"),
            help: "faults for the campaign (default 400)",
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
            name: "--outcome",
            value: Some("<o>"),
            help: "sdc | detected | crash | timeout | benign | all\n-- which campaign outcomes to replay (default: sdc)",
        },
        ArgHelp {
            name: "--records",
            value: Some("<n>"),
            help: "cap on fully analyzed records (default 64)",
        },
        ArgHelp {
            name: "--show",
            value: Some("<n>"),
            help: "print the first n full incident records (default 3)",
        },
        ArgHelp {
            name: "--no-bisect",
            value: None,
            help: "skip kill-window bisection (faster)",
        },
        ArgHelp {
            name: "--json",
            value: None,
            help: "emit the report as JSON instead of text",
        },
        ArgHelp {
            name: "--catalog",
            value: None,
            help: "self-check across every bundled workload under\nFERRUM and IR-EDDI: the replayed records must be the\ncampaign's first matching records with their outcomes,\nevery record must locate its divergence at the injected\nsite, and every bisected kill window must contain the\ninjection",
        },
    ],
    spec: ArgSpec {
        flags: &["--json", "--catalog", "--no-bisect"],
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

struct Options {
    technique: Technique,
    samples: usize,
    seed: u64,
    scale: Scale,
    opt: Option<ferrum::OptLevel>,
    fcfg: ForensicConfig,
    show: usize,
    json: bool,
}

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

fn options(p: &ParsedArgs) -> Result<Options, ArgError> {
    let defaults = ForensicConfig::default();
    let records = match p.value("--records") {
        None => defaults.max_records,
        Some(raw) => raw
            .parse()
            .map_err(|_| ArgError::Message(format!("`--records` cannot parse `{raw}`")))?,
    };
    let show = match p.value("--show") {
        None => 3,
        Some(raw) => raw
            .parse()
            .map_err(|_| ArgError::Message(format!("`--show` cannot parse `{raw}`")))?,
    };
    Ok(Options {
        technique: p.technique_core(Technique::Ferrum)?,
        samples: p.samples(400)?,
        seed: p.seed(0xFE44)?,
        scale: p.scale()?,
        opt: p.opt_level()?,
        fcfg: ForensicConfig {
            outcomes: parse_outcomes(p)?,
            max_records: records,
            bisect: !p.flag("--no-bisect"),
            ..defaults
        },
        show,
        json: p.flag("--json"),
    })
}

fn run_one(name: &str, opts: &Options) -> ExitCode {
    let Some(w) = workload(name) else {
        eprintln!("ferrum-forensics: unknown workload `{name}`");
        return ExitCode::FAILURE;
    };
    let pipeline = Pipeline::new().with_opt_level(opts.opt.unwrap_or_default());
    let module = w.build(opts.scale);
    let cfg = CampaignConfig {
        samples: opts.samples,
        seed: opts.seed,
    };
    let (campaign, report, explanations) = match (|| {
        let prog = pipeline.protect(&module, opts.technique)?;
        let map = CoverageMap::analyze(&prog);
        let cpu = pipeline.load(&prog)?;
        let profile = cpu.profile();
        let campaign = Campaign::sampled(cfg).run(&cpu, &profile)?;
        let report = forensic_report(&cpu, &profile, &campaign, &opts.fcfg);
        let explanations = explain_unknown_sites(&profile, &map, &report);
        Ok::<_, ferrum::Error>((campaign, report, explanations))
    })() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ferrum-forensics: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let label = format!("{name} ({})", technique_label(opts.technique));
    if opts.json {
        let doc = Json::obj(vec![
            ("workload", name.to_json()),
            ("technique", technique_label(opts.technique).to_json()),
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
        for rec in report.records.iter().take(opts.show) {
            println!();
            print!("{}", render_forensic_record(rec));
        }
        println!();
        print!("{}", render_unknown_site_explanations(&explanations));
    }
    ExitCode::SUCCESS
}

/// Self-check for one workload under one technique: the report must
/// replay exactly the campaign's first matching records, in sampling
/// order, with the outcomes the campaign booked; every record must
/// locate its first
/// divergence exactly at the injected site, at least 90% of the records
/// must carry a classified escape reason, and every bisected,
/// non-escaped kill window must contain the injection boundary.
fn check_one(
    pipeline: &Pipeline,
    w: &Workload,
    technique: Technique,
    opts: &Options,
) -> Result<CheckLine, ferrum::Error> {
    let opt = pipeline.opt_level();
    let module = w.build(opts.scale);
    let prog = pipeline.protect(&module, technique)?;
    let cpu = pipeline.load(&prog)?;
    let profile = cpu.profile();
    let cfg = CampaignConfig {
        samples: opts.samples,
        seed: opts.seed,
    };
    let serial = Campaign::sampled(cfg).run(&cpu, &profile)?;
    let report = forensic_report(&cpu, &profile, &serial, &opts.fcfg);

    // The replayed records are the campaign's first matching records,
    // in sampling order, with the outcomes the campaign booked.
    let matching = serial
        .records
        .iter()
        .filter(|(_, o)| opts.fcfg.outcomes.contains(o));
    let identical = report.matching_total == matching.clone().count()
        && report
            .records
            .iter()
            .map(|r| (r.fault, r.outcome))
            .eq(matching.take(opts.fcfg.max_records).copied());
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

    let label = technique_label(technique);
    Ok(CheckLine {
        ok: identical && located && classified && windows_ok,
        json: Json::obj(vec![
            ("workload", w.name.to_json()),
            ("technique", label.to_json()),
            ("opt", opt.to_json()),
            ("sdc", serial.sdc.to_json()),
            ("analyzed", report.analyzed().to_json()),
            ("outcomes_identical", Json::Bool(identical)),
            ("divergences_located", Json::Bool(located)),
            ("classified", report.classified().to_json()),
            ("kill_windows_sound", Json::Bool(windows_ok)),
        ]),
        text: format!(
            "{}/{label} [{}]: {} SDC, {} analyzed ({} classified); outcomes {}; divergences {}; kill windows {}",
            w.name,
            opt.label(),
            serial.sdc,
            report.analyzed(),
            report.classified(),
            if identical { "identical" } else { "DIVERGED" },
            if located { "located" } else { "MISLOCATED" },
            if windows_ok { "sound" } else { "UNSOUND" },
        ),
    })
}

fn catalog_check(
    pipeline: &Pipeline,
    w: &Workload,
    opts: &Options,
) -> Result<Vec<CheckLine>, ferrum::Error> {
    [Technique::Ferrum, Technique::IrEddi]
        .into_iter()
        .map(|t| check_one(pipeline, w, t, opts))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args, &USAGE.spec) {
        Ok(p) => p,
        Err(e) => return usage_exit(&USAGE.render(), &e),
    };
    let opts = match options(&parsed) {
        Ok(o) => o,
        Err(e) => return usage_exit(&USAGE.render(), &e),
    };

    if parsed.flag("--catalog") {
        let levels = ferrum_cli::catalog::catalog_levels(opts.opt);
        return catalog_exit(catalog_selfcheck("ferrum-forensics", opts.json, |w| {
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
