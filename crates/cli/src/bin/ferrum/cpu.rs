//! `ferrum cpu` — run one workload on either execution engine.
//!
//! Exit status 1 when the output differs from the workload's oracle.
//!
//! Self-check, the gate for `ferrum_cpu::decoded`: for every technique,
//! the decode-once flattened engine must reproduce the reference
//! interpreter byte-for-byte — the same run result and the same
//! profile (injectable sites, provenance counts, mechanism counts,
//! golden output).

use std::process::ExitCode;

use ferrum::json::{Json, ToJson};
use ferrum::{DecodedCpu, Technique};
use ferrum_cli::args::{
    parse_args, technique_label, ArgError, ArgHelp, ArgSpec, UsageSpec, ENGINE_ARG, OPT_ARG,
    SCALE_ARG, TECHNIQUE_ARG,
};
use ferrum_cpu::run::Profile;

use crate::selfcheck::{Record, Setup};
use crate::{Case, TECHNIQUES};

pub const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum cpu",
    forms: &["<workload> [options]"],
    args: &[
        TECHNIQUE_ARG,
        SCALE_ARG,
        ENGINE_ARG,
        OPT_ARG,
        ArgHelp::flag("--json", "emit the run result as JSON instead of text"),
    ],
    spec: ArgSpec {
        flags: &["--json"],
        values: &["--technique", "--scale", "--engine", "--opt"],
        positional: true,
    },
};

pub fn run(args: &[String]) -> Result<ExitCode, ArgError> {
    let parsed = parse_args(args, &USAGE.spec)?;
    let technique = parsed.technique_core(Technique::Ferrum)?;
    let scale = parsed.scale()?;
    let engine = parsed.engine()?;
    let opt = parsed.opt_level()?;
    let json = parsed.flag("--json");
    let Some(name) = parsed.positional.as_deref() else {
        return Err(ArgError::Help);
    };
    let context = format!("cpu: {name}");
    Ok(crate::exit_on_error::<ferrum::Error>(&context, || {
        let case = Case::open(name, scale, opt)?;
        let prot = case.protect(technique)?;
        let r = engine.with_cpu(&prot.cpu, |e| e.run(None));
        let correct = r.output == case.workload.oracle(scale);
        if json {
            let doc = Json::obj(vec![
                ("workload", name.to_json()),
                ("technique", technique.label().to_json()),
                ("engine", engine.label().to_json()),
                ("stop", format!("{:?}", r.stop).to_json()),
                (
                    "output",
                    Json::Arr(r.output.iter().map(|&x| Json::Int(x)).collect()),
                ),
                ("output_correct", Json::Bool(correct)),
                ("cycles", r.cycles.to_json()),
                ("dyn_insts", r.dyn_insts.to_json()),
            ]);
            println!("{}", doc.to_string_pretty());
        } else {
            println!(
                "{name}/{} on {}: {:?}, {} dyn insts, {} cycles, output {}",
                technique.label(),
                engine.label(),
                r.stop,
                r.dyn_insts,
                r.cycles,
                if correct { "correct" } else { "WRONG" },
            );
        }
        Ok(if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        })
    }))
}

fn profiles_match(a: &Profile, b: &Profile) -> bool {
    a.sites == b.sites
        && a.prov_counts == b.prov_counts
        && a.mech_counts == b.mech_counts
        && a.result == b.result
}

/// Engine identity for one case: run and profile identity of the
/// decoded engine against the interpreter, per technique.
pub fn check(s: &Setup) -> Vec<Record> {
    TECHNIQUES
        .iter()
        .map(|&t| {
            s.item(&[("technique", technique_label(t))], || {
                let prot = s.protected(t)?;
                let decoded = DecodedCpu::new(&prot.cpu);
                let run_ok = decoded.run(None) == prot.cpu.run(None);
                let (ip, dp) = (prot.profile(), decoded.profile());
                let profile_ok = profiles_match(ip, &dp);
                Ok(Record {
                    ok: run_ok && profile_ok,
                    json: Json::obj(vec![
                        ("run_identical", Json::Bool(run_ok)),
                        ("profile_identical", Json::Bool(profile_ok)),
                        ("sites", ip.sites.len().to_json()),
                        ("superinstructions", decoded.superinstructions().to_json()),
                    ]),
                    text: format!(
                        "run {}, profile {} ({} sites, {} superinstructions)",
                        if run_ok { "identical" } else { "DIVERGED" },
                        if profile_ok { "identical" } else { "DIVERGED" },
                        ip.sites.len(),
                        decoded.superinstructions(),
                    ),
                })
            })
        })
        .collect()
}
