//! `ferrum profile` — exact execution profiles and differential
//! overhead attribution at pc granularity.
//!
//! Profiles are **exact**, not sampled: both engines charge every
//! dynamic instruction to its pc during the golden walk, so the profile
//! doubles as a cross-engine oracle — any divergence in dispatch order,
//! cycle pricing, or call tracking fails the run before it can corrupt
//! a campaign.  `ferrum profile` therefore *always* collects the
//! profile on both engines and refuses to print a mismatch.
//!
//! Self-check, for every technique: per-pc profiles must be
//! byte-identical across the interpreter and decoded engines, and
//! per-site overhead must sum exactly to the per-mechanism attribution
//! totals.

use std::process::ExitCode;

use ferrum::json::{Json, ToJson};
use ferrum::report::{
    pc_profile_to_json, render_diff_sites, render_function_profile, render_hotspots,
};
use ferrum::{diff_profile, Technique};
use ferrum_cli::args::{
    parse_args, technique_label, ArgError, ArgHelp, ArgSpec, UsageSpec, OPT_ARG, SCALE_ARG,
    TECHNIQUE_ARG,
};

use crate::selfcheck::{Record, Setup};
use crate::{engines_identical, Case, TECHNIQUES};

pub const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum profile",
    forms: &["<workload> [options]"],
    args: &[
        TECHNIQUE_ARG,
        SCALE_ARG,
        OPT_ARG,
        ArgHelp::option(
            "--top",
            "<n>",
            "rows in the hot-spot / site tables (default 10)",
        ),
        ArgHelp::flag("--diff", "per-site overhead vs the peepholed baseline"),
        ArgHelp::flag(
            "--folded",
            "folded call stacks (flamegraph format) to stdout",
        ),
        ArgHelp::flag("--json", "emit per docs/profile-schema.md instead of text"),
    ],
    spec: ArgSpec {
        flags: &["--diff", "--folded", "--json"],
        values: &["--technique", "--scale", "--opt", "--top"],
        positional: true,
    },
};

pub fn run(args: &[String]) -> Result<ExitCode, ArgError> {
    let p = parse_args(args, &USAGE.spec)?;
    let top = p.parsed("--top")?.unwrap_or(10);
    let technique = p.technique_core(Technique::Ferrum)?;
    let (scale, opt) = (p.scale()?, p.opt_level()?);
    let (diff, folded, json) = (p.flag("--diff"), p.flag("--folded"), p.flag("--json"));
    let Some(name) = p.positional.as_deref() else {
        return Err(ArgError::Help);
    };
    let context = format!("profile: {name}");
    Ok(crate::exit_on_error::<ferrum::Error>(&context, || {
        let case = Case::open(name, scale, opt)?;
        let build = case.build(technique)?;
        if !engines_identical(&build) {
            eprintln!("ferrum profile: {name}: interpreter and decoded profiles DIVERGED");
            return Ok(ExitCode::from(1));
        }
        let (image, profile) = (build.cpu().image(), build.profile());
        if folded {
            print!("{}", profile.pcs.folded(image));
            return Ok(ExitCode::SUCCESS);
        }
        if diff {
            let d = diff_profile(&case.pipeline.baseline(&case.module)?, &build)?;
            if json {
                let doc = Json::obj(vec![
                    ("workload", name.to_json()),
                    ("opt", opt.to_json()),
                    ("diff", d.to_json()),
                ]);
                println!("{}", doc.to_string_pretty());
            } else {
                print!("{}", render_diff_sites(name, &d, top));
            }
            if !d.sites_reconcile() {
                eprintln!("ferrum profile: {name}: site overhead does not reconcile");
                return Ok(ExitCode::from(1));
            }
            return Ok(ExitCode::SUCCESS);
        }
        if json {
            let doc = Json::obj(vec![
                ("workload", name.to_json()),
                ("technique", technique.to_json()),
                ("opt", opt.to_json()),
                ("engines_identical", Json::Bool(true)),
                ("profile", pc_profile_to_json(image, &profile.pcs)),
            ]);
            println!("{}", doc.to_string_pretty());
        } else {
            print!("{}", render_hotspots(name, image, &profile.pcs, top));
            println!();
            print!("{}", render_function_profile(image, &profile.pcs));
        }
        Ok(ExitCode::SUCCESS)
    }))
}

/// Self-check for one case: for every technique, the cross-engine
/// profile oracle and the exact per-site reconciliation down to pc
/// granularity.
pub fn check(s: &Setup) -> Vec<Record> {
    TECHNIQUES
        .iter()
        .map(|&t| {
            s.item(&[("technique", technique_label(t))], || {
                let b = s.build(t)?;
                let identical = engines_identical(b);
                let d = diff_profile(s.baseline()?, b)?;
                let reconciles = d.sites_reconcile();
                let total = b.profile().pcs.total();
                Ok(Record {
                    ok: identical && reconciles,
                    json: Json::obj(vec![
                        ("dyn_insts", total.insts.to_json()),
                        ("cycles", total.cycles.to_json()),
                        ("sites", (d.sites.len() as u64).to_json()),
                        ("engines_identical", Json::Bool(identical)),
                        ("sites_reconcile", Json::Bool(reconciles)),
                    ]),
                    text: format!(
                        "{} dyn insts / {} cycles, {} site(s); engines {}; site sum {}",
                        total.insts,
                        total.cycles,
                        d.sites.len(),
                        if identical { "identical" } else { "DIVERGED" },
                        if reconciles { "exact" } else { "MISMATCH" },
                    ),
                })
            })
        })
        .collect()
}
