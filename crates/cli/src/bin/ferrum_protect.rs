//! `ferrum-protect` — apply assembly-level EDDI to an assembly listing.
//!
//! ```text
//! usage: ferrum-protect <input.s | -> [options]
//!   -o <file>            write the protected listing (default: stdout)
//!   --technique <t>      ferrum | ferrum-zmm | scalar   (default: ferrum)
//!   --run                simulate the protected program and print its output
//!   --campaign <n>       run an n-fault campaign and print the outcome counts
//!   --stats              print static instruction counts before/after
//!   --emit-gnu           write GNU-assembler output (assemble with
//!                        `gcc -no-pie out.s` and run on real x86-64)
//! ```

use std::io::Read;
use std::process::ExitCode;

use ferrum_cli::args::{parse_args, usage_exit, ArgError, ArgHelp, ArgSpec, UsageSpec};
use ferrum_cli::protect_listing;
use ferrum_faultsim::{Campaign, CampaignConfig};

const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum-protect",
    forms: &["<input.s | -> [options]"],
    args: &[
        ArgHelp {
            name: "-o",
            value: Some("<file>"),
            help: "write the protected listing (default: stdout)",
        },
        ArgHelp {
            name: "--technique",
            value: Some("<t>"),
            help: "ferrum | ferrum-zmm | scalar   (default: ferrum)",
        },
        ArgHelp {
            name: "--run",
            value: None,
            help: "simulate the protected program and print its output",
        },
        ArgHelp {
            name: "--campaign",
            value: Some("<n>"),
            help: "run an n-fault campaign and print the outcome counts",
        },
        ArgHelp {
            name: "--stats",
            value: None,
            help: "print static instruction counts before/after",
        },
        ArgHelp {
            name: "--emit-gnu",
            value: None,
            help: "write GNU-assembler output (assemble with\n`gcc -no-pie out.s` and run on real x86-64)",
        },
    ],
    spec: ArgSpec {
        flags: &["--run", "--stats", "--emit-gnu"],
        values: &["-o", "--technique", "--campaign"],
        positional: true,
    },
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args, &USAGE.spec) {
        Ok(p) => p,
        Err(e) => return usage_exit(&USAGE.render(), &e),
    };
    let technique = match parsed.technique_cli() {
        Ok(t) => t,
        Err(e) => return usage_exit(&USAGE.render(), &e),
    };
    let campaign: Option<usize> = match parsed.value("--campaign").map(str::parse) {
        None => None,
        Some(Ok(n)) => Some(n),
        Some(Err(_)) => {
            return usage_exit(
                &USAGE.render(),
                &ArgError::Message("`--campaign` needs a fault count".into()),
            )
        }
    };
    let Some(input) = parsed.positional.clone() else {
        return usage_exit(&USAGE.render(), &ArgError::Help);
    };
    let out_path = parsed.value("-o").map(str::to_owned);
    let do_run = parsed.flag("--run");
    let stats = parsed.flag("--stats");
    let emit_gnu = parsed.flag("--emit-gnu");

    let text = if input == "-" {
        let mut buf = String::new();
        if std::io::stdin().read_to_string(&mut buf).is_err() {
            eprintln!("failed to read stdin");
            return ExitCode::FAILURE;
        }
        buf
    } else {
        match std::fs::read_to_string(&input) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read `{input}`: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let before = ferrum_asm::parser::parse_program(&text)
        .map(|p| p.static_inst_count())
        .unwrap_or(0);
    let prot = match protect_listing(&text, technique) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ferrum-protect: {e}");
            return ExitCode::FAILURE;
        }
    };
    if stats {
        eprintln!(
            "{technique}: {before} -> {} static instructions",
            prot.static_inst_count()
        );
    }
    if do_run || campaign.is_some() {
        let cpu = match ferrum_cpu::run::Cpu::load(&prot) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("load error: {e}");
                return ExitCode::FAILURE;
            }
        };
        if do_run {
            let r = cpu.run(None);
            println!("stop: {}", r.stop);
            println!("output: {:?}", r.output);
            println!(
                "cycles: {}  dynamic instructions: {}",
                r.cycles, r.dyn_insts
            );
        }
        if let Some(n) = campaign {
            let profile = cpu.profile();
            let plan = Campaign::sampled(CampaignConfig {
                samples: n,
                seed: 7,
            });
            let res = match plan.run(&cpu, &profile) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("ferrum-protect: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "campaign ({n} faults): SDC {}  detected {}  crash {}  timeout {}  benign {}",
                res.sdc, res.detected, res.crash, res.timeout, res.benign
            );
        }
        return ExitCode::SUCCESS;
    }
    let listing = if emit_gnu {
        ferrum_asm::gnu::emit_gnu(&prot)
    } else {
        ferrum_asm::printer::print_program(&prot)
    };
    match out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, listing) {
                eprintln!("cannot write `{p}`: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => print!("{listing}"),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod spec_tests {
    #[test]
    fn spec_rejects_duplicate_and_swallowed_arguments() {
        ferrum_cli::args::assert_usage_consistent(&super::USAGE);
    }
}
