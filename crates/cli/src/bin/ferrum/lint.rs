//! `ferrum lint` — static protection-soundness analysis.
//!
//! The listing is protected *in-memory* and the pass output linted
//! directly: a printed listing has lost the provenance tags
//! (`Provenance::Protection`) the lint keys on.  Exit status 0 means
//! the report was clean; 1 means at least one contract violation.
//!
//! Self-check: every bundled workload protected under FERRUM
//! (manifest-driven lint) and the hybrid baseline must lint clean.

use std::process::ExitCode;

use ferrum::json::ToJson;
use ferrum::report::render_lint_report;
use ferrum::Technique;
use ferrum_asm::analysis::lint::{lint_program_with, LintReport};
use ferrum_cli::args::{parse_args, technique_label, ArgError, ArgHelp, ArgSpec, UsageSpec};
use ferrum_cli::lint_listing;

use crate::selfcheck::{Record, Setup};

pub const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum lint",
    forms: &["<input.s | -> [options]"],
    args: &[
        ArgHelp::option(
            "--technique",
            "<t>",
            "ferrum | ferrum-zmm | scalar   (default: ferrum)",
        ),
        ArgHelp::flag("--json", "emit the report as JSON instead of text"),
    ],
    spec: ArgSpec {
        flags: &["--json"],
        values: &["--technique"],
        positional: true,
    },
};

pub fn run(args: &[String]) -> Result<ExitCode, ArgError> {
    let parsed = parse_args(args, &USAGE.spec)?;
    let technique = parsed.technique_cli()?;
    let Some(input) = parsed.positional.as_deref() else {
        return Err(ArgError::Help);
    };
    let json = parsed.flag("--json");
    Ok(crate::exit_on_error::<String>("lint", || {
        let text = crate::read_listing(input)?;
        let rep = lint_listing(&text, technique).map_err(|e| e.to_string())?;
        if json {
            println!("{}", rep.to_json().to_string_pretty());
        } else {
            print!("{input} [{technique}]: {}", render_lint_report(&rep));
        }
        Ok(if rep.is_clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        })
    }))
}

/// Self-check for one case: FERRUM (linted against its protection
/// manifests) and the hybrid baseline (which has none) must both lint
/// clean.
pub fn check(s: &Setup) -> Vec<Record> {
    [Technique::Ferrum, Technique::HybridAsmEddi]
        .into_iter()
        .map(|t| {
            s.item(&[("technique", technique_label(t))], || {
                let b = s.build(t)?;
                Ok(record(&lint_program_with(b.program(), b.manifests())))
            })
        })
        .collect()
}

fn record(rep: &LintReport) -> Record {
    Record {
        ok: rep.is_clean(),
        json: rep.to_json(),
        text: if rep.is_clean() {
            format!("clean ({} insts)", rep.insts_scanned)
        } else {
            render_lint_report(rep).trim_end().to_owned()
        },
    }
}
