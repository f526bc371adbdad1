//! `ferrum compose` — compositional verdicts and incremental campaigns.
//!
//! The tool protects the workload, computes per-function
//! fault-propagation summaries (`ferrum_asm::analysis::summary`),
//! composes them through caller-side liveness into whole-program
//! verdicts (`ferrum_faultsim::compose`), prints the per-function
//! lift table, then runs a stratified campaign and replays it
//! incrementally to report the cache reuse rate.  JSON output follows
//! docs/compose-schema.md.
//!
//! Self-check, under FERRUM: no composed Masked/Detected verdict may be
//! contradicted by a monolithic campaign outcome, and an incremental
//! re-run against the fresh cache must be record-identical to the
//! stratified campaign with a 100% reuse rate.

use std::process::ExitCode;

use ferrum::json::{Json, ToJson};
use ferrum::report::{composition_to_json, render_composition};
use ferrum::{
    compose, static_outcome, Build, Campaign, CampaignCache, CampaignConfig, CoverageMap,
    EngineKind, Reuse, SummaryMap, Technique,
};
use ferrum_cli::args::{
    parse_args, technique_label, ArgError, ArgHelp, ArgSpec, UsageSpec, OPT_ARG, SCALE_ARG,
    TECHNIQUE_ARG,
};
use ferrum_cpu::run::Profile;
use ferrum_faultsim::campaign::CampaignResult;

use crate::selfcheck::{Record, Setup};
use crate::Case;

pub const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum compose",
    forms: &["<workload> [options]"],
    args: &[
        TECHNIQUE_ARG,
        ArgHelp::option(
            "--samples",
            "<n>",
            "faults for the stratified campaign (default 400)",
        ),
        ArgHelp::option("--seed", "<s>", "campaign seed (default 0xFE44)"),
        SCALE_ARG,
        OPT_ARG,
        ArgHelp::flag("--json", "emit the report as JSON instead of text"),
    ],
    spec: ArgSpec {
        flags: &["--json"],
        values: &["--technique", "--samples", "--seed", "--scale", "--opt"],
        positional: true,
    },
};

/// Checks every monolithic campaign outcome against the composed map
/// ([`static_outcome`]).  Returns the number of contradicted records.
fn contradictions(composed: &CoverageMap, profile: &Profile, serial: &CampaignResult) -> usize {
    serial
        .records
        .iter()
        .filter(|&&(fault, outcome)| {
            static_outcome(composed, profile, fault).is_some_and(|o| o != outcome)
        })
        .count()
}

/// The coverage map of a protected program, its composition and the
/// call-site count of each function.
fn composition(build: &Build) -> (CoverageMap, CoverageMap, Vec<usize>) {
    let prog = build.program();
    let coverage = CoverageMap::analyze(prog);
    let (composed, call_sites) = compose(prog, &coverage, &SummaryMap::build(prog, &coverage));
    (coverage, composed, call_sites)
}

/// The stratified campaign on the default engine, then an incremental
/// re-run that reuses the cache rebuilt from it.
fn stratified_then_incremental(
    build: &Build,
    cfg: CampaignConfig,
) -> Result<(CampaignResult, CampaignResult), ferrum::Error> {
    let (engine, prog) = (build.engine(EngineKind::default()), build.program());
    let profile = build.profile();
    let plan = Campaign::stratified(cfg, prog);
    let stratified = plan.run(engine, profile)?;
    let cache = CampaignCache::from_result(prog, profile, cfg, &stratified);
    let incremental = plan.reuse(Reuse::Cache(&cache)).run(engine, profile)?;
    Ok((stratified, incremental))
}

pub fn run(args: &[String]) -> Result<ExitCode, ArgError> {
    let p = parse_args(args, &USAGE.spec)?;
    let technique = p.technique_core(Technique::Ferrum)?;
    let cfg = CampaignConfig {
        samples: p.samples(400)?,
        seed: p.seed(0xFE44)?,
    };
    let (scale, opt) = (p.scale()?, p.opt_level()?);
    let json = p.flag("--json");
    let Some(name) = p.positional.as_deref() else {
        return Err(ArgError::Help);
    };
    let context = format!("compose: {name}");
    Ok(crate::exit_on_error::<ferrum::Error>(&context, || {
        let build = Case::open(name, scale, opt)?.build(technique)?;
        let (local, composed, call_sites) = composition(&build);
        let (stratified, incremental) = stratified_then_incremental(&build, cfg)?;

        if json {
            let doc = Json::obj(vec![
                ("workload", name.to_json()),
                ("technique", technique_label(technique).to_json()),
                (
                    "composition",
                    composition_to_json(&local, &composed, &call_sites),
                ),
                ("campaign_stats", stratified.stats.to_json()),
                ("detected", stratified.detected.to_json()),
                ("benign", stratified.benign.to_json()),
                ("sdc", stratified.sdc.to_json()),
                ("incremental_stats", incremental.stats.to_json()),
                (
                    "incremental_identical",
                    Json::Bool(incremental == stratified),
                ),
            ]);
            println!("{}", doc.to_string_pretty());
        } else {
            let label = format!("{name} ({})", technique_label(technique));
            print!(
                "{}",
                render_composition(&label, &local, &composed, &call_sites)
            );
            println!();
            println!(
                "stratified campaign: {} injections, SDC {}  detected {}  benign {}",
                stratified.total(),
                stratified.sdc,
                stratified.detected,
                stratified.benign,
            );
            println!(
                "incremental replay: {} of {} faults reused ({:.1}%), outcomes {}",
                incremental.stats.reused_sites,
                incremental.total(),
                incremental.stats.reuse_rate() * 100.0,
                if incremental == stratified {
                    "identical"
                } else {
                    "DIVERGED"
                },
            );
        }
        Ok(ExitCode::SUCCESS)
    }))
}

/// Self-check for one case under FERRUM: the composed verdicts must
/// never contradict a monolithic campaign outcome, and the incremental
/// plan must reproduce the stratified campaign exactly from a fresh
/// cache.
pub fn check(s: &Setup) -> Vec<Record> {
    vec![s.item(&[], || {
        let b = s.build(Technique::Ferrum)?;
        let (coverage, composed, _) = composition(b);
        let contradicted = contradictions(&composed, b.profile(), s.serial(Technique::Ferrum)?);
        let lifted = composed.rollup().masked - coverage.rollup().masked;

        let (stratified, incremental) = stratified_then_incremental(b, s.cfg)?;
        let identical = incremental == stratified;
        let full_reuse = incremental.stats.reused_sites == incremental.total();

        Ok(Record {
            ok: contradicted == 0 && identical && full_reuse,
            json: Json::obj(vec![
                ("total_sites", coverage.total_sites().to_json()),
                ("lifted", lifted.to_json()),
                ("contradicted", contradicted.to_json()),
                ("incremental_identical", Json::Bool(identical)),
                ("reuse_rate", incremental.stats.reuse_rate().to_json()),
            ]),
            text: format!(
                "{} sites, {} lifted; composed verdicts {}; incremental {} (reuse {:.1}%)",
                coverage.total_sites(),
                lifted,
                if contradicted == 0 {
                    "sound".to_owned()
                } else {
                    format!("{contradicted} CONTRADICTED")
                },
                if identical { "identical" } else { "DIVERGED" },
                incremental.stats.reuse_rate() * 100.0,
            ),
        })
    })]
}
