//! `ferrum fuzz` — differential fuzzing of the compile + protect
//! pipeline.
//!
//! Each seeded program is pushed through the whole oracle stack
//! (`ferrum_fuzz::harness`): MIR interpreter vs `-O0` vs `-O1` on
//! both execution engines, pass-bundle idempotence and stat
//! exactness, protection transparency and lint cleanliness for every
//! technique at both levels, and static-coverage soundness under a
//! small pruned-vs-serial campaign.  Exit status 0 means every check
//! of every program agreed; 1 means at least one divergence (each is
//! printed with its seed, stage, and detail — pin it in
//! `tests/fuzz_regressions.rs`).  Defaults are [`FuzzConfig::default`];
//! seeds wrap at `u64::MAX` as in the harness.
//!
//! Self-check: the pinned window, [`FuzzConfig::default`], runs clean.

use std::process::ExitCode;

use ferrum::json::{id_to_json, Json, ToJson};
use ferrum_cli::args::{parse_args, ArgError, ArgHelp, ArgSpec, UsageSpec};
use ferrum_fuzz::{run_fuzz, FuzzConfig, FuzzReport};

use crate::selfcheck::Record;

pub const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum fuzz",
    forms: &["[options]"],
    args: &[
        ArgHelp::option("--programs", "<n>", "programs to generate and check (default 200)"),
        ArgHelp::option(
            "--seed",
            "<s>",
            "seed of the first program; program i uses s+i\n(default 42)",
        ),
        ArgHelp::option(
            "--samples",
            "<n>",
            "faults for each coverage cross-check campaign\n(default 25; 0 disables the campaign stage)",
        ),
        ArgHelp::flag("--json", "emit the final report as JSON instead of text"),
    ],
    spec: ArgSpec {
        flags: &["--json"],
        values: &["--programs", "--seed", "--samples"],
        positional: false,
    },
};

/// The report as one JSON object (the `--json` document).
fn report_json(cfg: &FuzzConfig, report: &FuzzReport) -> Json {
    Json::obj(vec![
        ("programs", report.programs.to_json()),
        ("base_seed", id_to_json(cfg.base_seed)),
        ("campaign_samples", cfg.campaign_samples.to_json()),
        ("checks", report.checks.to_json()),
        ("mir_insts", report.mir_insts.to_json()),
        (
            "divergences",
            Json::Arr(
                report
                    .divergences
                    .iter()
                    .map(|d| {
                        Json::obj(vec![
                            ("seed", id_to_json(d.seed)),
                            ("stage", d.stage.to_json()),
                            ("detail", d.detail.as_str().to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The one-line summary: program count, the seed window, and totals.
fn summary(cfg: &FuzzConfig, report: &FuzzReport) -> String {
    // Program i runs seed `base_seed.wrapping_add(i)`, so the window
    // may wrap past `u64::MAX`.
    let seeds = match report.programs.checked_sub(1) {
        Some(last) => format!(
            "seeds {}..={}",
            cfg.base_seed,
            cfg.base_seed.wrapping_add(last)
        ),
        None => "no seeds".to_owned(),
    };
    format!(
        "{} programs ({seeds}), {} checks, {} MIR insts generated",
        report.programs, report.checks, report.mir_insts
    )
}

pub fn run(args: &[String]) -> Result<ExitCode, ArgError> {
    let p = parse_args(args, &USAGE.spec)?;
    let defaults = FuzzConfig::default();
    let cfg = FuzzConfig {
        programs: p.parsed("--programs")?.unwrap_or(defaults.programs),
        base_seed: p.seed(defaults.base_seed)?,
        campaign_samples: p.samples(defaults.campaign_samples)?,
    };
    let json = p.flag("--json");

    let report = run_fuzz(&cfg, |done, rep| {
        if !json && done % 100 == 0 {
            println!(
                "  {done}/{} programs, {} checks, {} divergences",
                cfg.programs,
                rep.checks,
                rep.divergences.len()
            );
        }
    });

    if json {
        println!("{}", report_json(&cfg, &report).to_string_pretty());
    } else {
        println!("ferrum fuzz: {}", summary(&cfg, &report));
        for d in &report.divergences {
            println!("  DIVERGENCE seed {} [{}]: {}", d.seed, d.stage, d.detail);
        }
        println!(
            "result: {}",
            if report.is_clean() {
                "clean — every layer agreed on every program".to_owned()
            } else {
                format!("{} divergences", report.divergences.len())
            }
        );
    }
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Self-check: the pinned window runs clean.
pub fn check() -> Record {
    let cfg = FuzzConfig::default();
    let report = run_fuzz(&cfg, |_, _| {});
    let mut text = format!(
        "{}: {}",
        summary(&cfg, &report),
        if report.is_clean() {
            "clean"
        } else {
            "DIVERGED"
        }
    );
    for d in &report.divergences {
        text.push_str(&format!(
            "\n  DIVERGENCE seed {} [{}]: {}",
            d.seed, d.stage, d.detail
        ));
    }
    Record {
        ok: report.is_clean(),
        json: report_json(&cfg, &report),
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_states_the_harness_defaults() {
        let d = FuzzConfig::default();
        let help = USAGE.render();
        assert!(
            help.contains(&format!("(default {})", d.programs)),
            "{help}"
        );
        assert!(
            help.contains(&format!("(default {})", d.base_seed)),
            "{help}"
        );
        assert!(
            help.contains(&format!("(default {};", d.campaign_samples)),
            "{help}"
        );
    }

    #[test]
    fn the_seed_window_wraps_like_the_harness() {
        let cfg = FuzzConfig {
            programs: 2,
            base_seed: u64::MAX,
            campaign_samples: 0,
        };
        let report = FuzzReport {
            programs: 2,
            ..FuzzReport::default()
        };
        assert!(summary(&cfg, &report).contains(&format!("seeds {}..=0", u64::MAX)));
        let none = FuzzReport::default();
        assert!(summary(&cfg, &none).contains("no seeds"));
    }
}
