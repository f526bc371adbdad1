//! `ferrum protect` — apply assembly-level EDDI to an assembly listing.

use std::process::ExitCode;

use ferrum_cli::args::{parse_args, ArgError, ArgHelp, ArgSpec, UsageSpec};
use ferrum_cli::protect_listing;
use ferrum_faultsim::{Campaign, CampaignConfig};

pub const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum protect",
    forms: &["<input.s | -> [options]"],
    args: &[
        ArgHelp::option("-o", "<file>", "write the protected listing (default: stdout)"),
        ArgHelp::option("--technique", "<t>", "ferrum | ferrum-zmm | scalar   (default: ferrum)"),
        ArgHelp::flag("--run", "simulate the protected program and print its output"),
        ArgHelp::option(
            "--campaign",
            "<n>",
            "run an n-fault campaign and print the outcome counts",
        ),
        ArgHelp::flag("--stats", "print static instruction counts before/after"),
        ArgHelp::flag(
            "--emit-gnu",
            "write GNU-assembler output (assemble with\n`gcc -no-pie out.s` and run on real x86-64)",
        ),
    ],
    spec: ArgSpec {
        flags: &["--run", "--stats", "--emit-gnu"],
        values: &["-o", "--technique", "--campaign"],
        positional: true,
    },
};

pub fn run(args: &[String]) -> Result<ExitCode, ArgError> {
    let parsed = parse_args(args, &USAGE.spec)?;
    let technique = parsed.technique_cli()?;
    let campaign: Option<usize> = parsed.parsed("--campaign")?;
    let Some(input) = parsed.positional.as_deref() else {
        return Err(ArgError::Help);
    };
    let out_path = parsed.value("-o");
    let do_run = parsed.flag("--run");
    let stats = parsed.flag("--stats");
    let emit_gnu = parsed.flag("--emit-gnu");

    Ok(crate::exit_on_error::<String>("protect", || {
        let text = crate::read_listing(input)?;
        let before = ferrum_asm::parser::parse_program(&text)
            .map(|p| p.static_inst_count())
            .unwrap_or(0);
        let prot = protect_listing(&text, technique).map_err(|e| e.to_string())?;
        if stats {
            eprintln!(
                "{technique}: {before} -> {} static instructions",
                prot.static_inst_count()
            );
        }
        if do_run || campaign.is_some() {
            let cpu = ferrum_cpu::run::Cpu::load(&prot).map_err(|e| format!("load error: {e}"))?;
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
                let res = plan.run(&cpu, &profile).map_err(|e| e.to_string())?;
                println!(
                    "campaign ({n} faults): SDC {}  detected {}  crash {}  timeout {}  benign {}",
                    res.sdc, res.detected, res.crash, res.timeout, res.benign
                );
            }
            return Ok(ExitCode::SUCCESS);
        }
        let listing = if emit_gnu {
            ferrum_asm::gnu::emit_gnu(&prot)
        } else {
            ferrum_asm::printer::print_program(&prot)
        };
        match out_path {
            Some(p) => {
                std::fs::write(p, listing).map_err(|e| format!("cannot write `{p}`: {e}"))?
            }
            None => print!("{listing}"),
        }
        Ok(ExitCode::SUCCESS)
    }))
}
