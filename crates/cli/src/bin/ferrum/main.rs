//! `ferrum` — the reproduction's command line: one binary, one
//! subcommand per tool.
//!
//! ```text
//! usage: ferrum <subcommand> [options]
//! ```
//!
//! [`COMMANDS`] is the dispatch table: each entry names a subcommand,
//! its usage (the `--help` text and the parser spec), its run
//! function, and its self-check where it has one.  `ferrum selfcheck`
//! walks the table's self-checks over the bundled catalog in one
//! process.  `ferrum`, `ferrum --help` and an unknown subcommand print
//! the table and exit 2; a subcommand's usage error prints its usage
//! and exits 2.
//!
//! The workload subcommands share one front half, [`Case`]: look the
//! workload up, build it, then protect, load and (on demand) profile
//! it under a technique.

mod campaign;
mod compose;
mod coverage;
mod cpu;
mod forensics;
mod fuzz;
mod lint;
mod profile;
mod protect;
mod selfcheck;
mod trace;

use std::cell::OnceCell;
use std::fmt::Display;
use std::io::Read;
use std::process::ExitCode;

use ferrum::{OptLevel, Pipeline, Technique};
use ferrum_asm::AsmProgram;
use ferrum_cli::args::{usage_exit, ArgError, UsageSpec};
use ferrum_cpu::run::{Cpu, Profile};
use ferrum_mir::module::Module;
use ferrum_workloads::catalog::{workload, Scale, Workload};

/// One subcommand.
struct Command {
    /// The subcommand name (`ferrum <name>`).
    name: &'static str,
    /// One line for the subcommand table.
    summary: &'static str,
    /// The `--help` text and the parser spec.
    usage: &'static UsageSpec,
    /// Runs the subcommand on its arguments; an [`ArgError`] prints
    /// the usage and exits 2.
    run: fn(&[String]) -> Result<ExitCode, ArgError>,
    /// The subcommand's part of `ferrum selfcheck`, if any.
    check: Option<selfcheck::Check>,
}

/// The dispatch table, in `--help` and `selfcheck` order.
const COMMANDS: &[Command] = &[
    Command {
        name: "protect",
        summary: "apply assembly-level EDDI to an assembly listing",
        usage: &protect::USAGE,
        run: protect::run,
        check: None,
    },
    Command {
        name: "lint",
        summary: "protect a listing and statically check the result",
        usage: &lint::USAGE,
        run: lint::run,
        check: Some(selfcheck::Check::PerCase(lint::check)),
    },
    Command {
        name: "cpu",
        summary: "run a workload on either execution engine",
        usage: &cpu::USAGE,
        run: cpu::run,
        check: Some(selfcheck::Check::PerCase(cpu::check)),
    },
    Command {
        name: "trace",
        summary: "per-mechanism overhead attribution and campaign telemetry",
        usage: &trace::USAGE,
        run: trace::run,
        check: Some(selfcheck::Check::PerCase(trace::check)),
    },
    Command {
        name: "coverage",
        summary: "static per-site vulnerability map and pruned campaign",
        usage: &coverage::USAGE,
        run: coverage::run,
        check: Some(selfcheck::Check::PerCase(coverage::check)),
    },
    Command {
        name: "forensics",
        summary: "differential-replay SDC forensics",
        usage: &forensics::USAGE,
        run: forensics::run,
        check: Some(selfcheck::Check::PerCase(forensics::check)),
    },
    Command {
        name: "compose",
        summary: "compositional verdicts and incremental campaigns",
        usage: &compose::USAGE,
        run: compose::run,
        check: Some(selfcheck::Check::PerCase(compose::check)),
    },
    Command {
        name: "campaign",
        summary: "campaign with live telemetry, event stream and resume journal",
        usage: &campaign::USAGE,
        run: campaign::run,
        check: Some(selfcheck::Check::PerCase(campaign::check)),
    },
    Command {
        name: "profile",
        summary: "exact execution profile and per-site overhead",
        usage: &profile::USAGE,
        run: profile::run,
        check: Some(selfcheck::Check::PerCase(profile::check)),
    },
    Command {
        name: "fuzz",
        summary: "differential fuzzing of the compile + protect pipeline",
        usage: &fuzz::USAGE,
        run: fuzz::run,
        check: Some(selfcheck::Check::Once(fuzz::check)),
    },
    Command {
        name: "selfcheck",
        summary: "every self-check above, over the whole catalog, in one process",
        usage: &selfcheck::USAGE,
        run: selfcheck::run,
        check: None,
    },
];

/// The subcommand table printed by `ferrum --help`.
fn command_table() -> String {
    let mut out = String::from("usage: ferrum <subcommand> [options]\n");
    for c in COMMANDS {
        out.push_str(&format!("  {:<9}  {}\n", c.name, c.summary));
    }
    out.push_str("`ferrum <subcommand> --help` lists a subcommand's options");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((sub, rest)) = args.split_first() else {
        return usage_exit(&command_table(), &ArgError::Help);
    };
    match COMMANDS.iter().find(|c| c.name == sub) {
        Some(cmd) => (cmd.run)(rest).unwrap_or_else(|e| usage_exit(&cmd.usage.render(), &e)),
        None if sub == "--help" || sub == "-h" => usage_exit(&command_table(), &ArgError::Help),
        None => usage_exit(
            &command_table(),
            &ArgError::Message(format!("unknown subcommand `{sub}`")),
        ),
    }
}

/// Runs a subcommand body; an error is printed as
/// `ferrum <context>: <error>` and exits 1.
fn exit_on_error<E: Display>(
    context: &str,
    body: impl FnOnce() -> Result<ExitCode, E>,
) -> ExitCode {
    body().unwrap_or_else(|e| {
        eprintln!("ferrum {context}: {e}");
        ExitCode::FAILURE
    })
}

/// Reads an assembly listing from `path`, or from stdin for `-`.
fn read_listing(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|_| "failed to read stdin".to_owned())?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
    }
}

/// The four techniques of the paper's comparison, in report order.
const TECHNIQUES: [Technique; 4] = [
    Technique::None,
    Technique::IrEddi,
    Technique::HybridAsmEddi,
    Technique::Ferrum,
];

/// One bundled workload built at one scale and opt level.
struct Case {
    workload: Workload,
    pipeline: Pipeline,
    module: Module,
}

/// A [`Case`] under one technique: protected and loaded, profiled on
/// first use.
struct Protected {
    prog: AsmProgram,
    cpu: Cpu,
    profile: OnceCell<Profile>,
}

impl Case {
    fn new(workload: Workload, scale: Scale, opt: OptLevel) -> Case {
        Case {
            module: workload.build(scale),
            workload,
            pipeline: Pipeline::new().with_opt_level(opt),
        }
    }

    /// Looks a bundled workload up by name and builds it.
    fn open(name: &str, scale: Scale, opt: OptLevel) -> Result<Case, ferrum::Error> {
        workload(name)
            .map(|w| Case::new(w, scale, opt))
            .ok_or_else(|| ferrum::Error::msg(format!("unknown workload `{name}`")))
    }

    fn opt(&self) -> OptLevel {
        self.pipeline.opt_level()
    }

    /// Protects the module with `technique` and loads the result.
    fn protect(&self, technique: Technique) -> Result<Protected, ferrum::Error> {
        let prog = self.pipeline.protect(&self.module, technique)?;
        let cpu = self.pipeline.load(&prog)?;
        Ok(Protected {
            prog,
            cpu,
            profile: OnceCell::new(),
        })
    }
}

impl Protected {
    /// The golden-run profile (sites, mechanism counts, output).
    fn profile(&self) -> &Profile {
        self.profile.get_or_init(|| self.cpu.profile())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_subcommand_usage_matches_its_parser() {
        for c in COMMANDS {
            ferrum_cli::args::assert_usage_consistent(c.usage);
            assert_eq!(c.usage.tool, format!("ferrum {}", c.name));
        }
    }

    #[test]
    fn the_table_lists_every_subcommand_once() {
        let table = command_table();
        for c in COMMANDS {
            let rows = table
                .lines()
                .filter(|l| l.split_whitespace().next() == Some(c.name))
                .count();
            assert_eq!(rows, 1, "{}", c.name);
        }
    }
}
