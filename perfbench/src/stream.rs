//! `protect-stream`: the `ferrum-protect` / `ferrum-lint` /
//! `ferrum-coverage` use, on a seeded stream of fuzz programs.
//!
//! Every program is compiled at `-O0` and `-O1`, protected by all three
//! techniques at both levels, linted (FERRUM against its manifests,
//! hybrid plainly), analysed by `CoverageMap::analyze` and
//! `SummaryMap::build`, loaded, and run once fault-free; each output is
//! checked against the MIR interpreter.  There is no injection, so the
//! workload is compile- and analysis-bound, and its programs vary in
//! size and CFG shape in ways the eight fixed kernels do not.

use ferrum_asm::analysis::coverage::CoverageMap;
use ferrum_asm::analysis::lint::{lint_program, lint_program_with};
use ferrum_asm::analysis::summary::SummaryMap;
use ferrum_asm::AsmProgram;
use ferrum_backend::OptLevel;
use ferrum_cpu::{Cpu, StopReason};
use ferrum_fuzz::generate_module;
use ferrum_mir::interp::Interp;
use ferrum_mir::module::Module;

use crate::trace::Tracer;
use crate::{
    compile_and_protect, count_static, cycles_key, derive_seed, Bench, Round, Size, TECHNIQUES,
};

/// Programs per round in a full-size run: enough that fifteen
/// per-program latencies lie beyond the 95th percentile and that the
/// mix of program sizes differs little from seed to seed, few enough
/// that a 45 s run times each program in two or three rounds.
const PROGRAMS: usize = 300;
/// Programs per round in a smoke run.
const SMOKE_PROGRAMS: usize = 3;

struct Input {
    module: Module,
    /// Static MIR instructions the generator emitted.
    mir_insts: usize,
    /// The MIR interpreter's output, or why it failed.
    oracle: Result<Vec<i64>, String>,
}

/// The `protect-stream` workload.
pub struct ProtectStream {
    seed: u64,
    programs: usize,
    inputs: Vec<Input>,
}

impl ProtectStream {
    /// The workload at `size`; program `i` is generated from a seed
    /// derived from `seed` and `i`.
    pub fn new(seed: u64, size: Size) -> ProtectStream {
        ProtectStream {
            seed,
            programs: match size {
                Size::Full => PROGRAMS,
                Size::Smoke => SMOKE_PROGRAMS,
            },
            inputs: Vec::new(),
        }
    }
}

impl Bench for ProtectStream {
    fn setup(&mut self, tr: &Tracer) {
        let seed = self.seed;
        self.inputs = (0..self.programs)
            .map(|i| {
                let (module, stats) = tr.span("fuzz.generate_s", || {
                    generate_module(derive_seed(seed, i as u64))
                });
                let oracle = tr
                    .span("mir.interp_s", || Interp::new(&module).run())
                    .map(|r| r.output)
                    .map_err(|e| e.to_string());
                Input {
                    module,
                    mir_insts: stats.mir_insts,
                    oracle,
                }
            })
            .collect();
    }

    fn round(&self, tr: &Tracer) -> Round {
        let mut round = Round::default();
        for (k, input) in self.inputs.iter().enumerate() {
            round.begin_program();
            let mut fp = Vec::new();
            round.count("fuzz.mir_insts", input.mir_insts as f64);
            match &input.oracle {
                Ok(oracle) => {
                    for opt in [OptLevel::O0, OptLevel::O1] {
                        if let Err(e) =
                            one_level(tr, &mut round, &mut fp, &input.module, oracle, opt)
                        {
                            round.fail(k, e);
                        }
                    }
                }
                Err(e) => round.fail(k, format!("MIR interpreter: {e}")),
            }
            round.end_program(fp);
        }
        round.close();
        round
    }
}

/// One optimisation level of one program.  Failed checks are booked
/// as `Err` text (several per level are joined).
fn one_level(
    tr: &Tracer,
    round: &mut Round,
    fp: &mut Vec<u64>,
    module: &Module,
    oracle: &[i64],
    opt: OptLevel,
) -> Result<(), String> {
    let p = compile_and_protect(tr, module, opt)?;
    count_static(round, &p, fp);
    let mut problems = Vec::new();

    let lints = [
        (
            "ferrum",
            tr.span("asm.lint_s", || {
                lint_program_with(&p.programs[2], &p.manifests)
            }),
        ),
        (
            "hybrid",
            tr.span("asm.lint_s", || lint_program(&p.programs[1])),
        ),
    ];
    for (label, rep) in &lints {
        round.count("asm.lint_findings", rep.findings.len() as f64);
        fp.push(rep.findings.len() as u64);
        if !rep.is_clean() {
            problems.push(format!(
                "{} lint {label}: {} findings",
                opt.label(),
                rep.findings.len()
            ));
        }
    }

    for prog in &p.programs {
        let (map, units) = tr.span("asm.coverage_s", || {
            let map = CoverageMap::analyze(prog);
            let units = map.rollup();
            (map, units)
        });
        let summary = tr.span("asm.summary_s", || SummaryMap::build(prog, &map));
        round.count("asm.units", units.total() as f64);
        round.count("asm.units_decided", (units.masked + units.detected) as f64);
        fp.extend([
            units.masked as u64,
            units.detected as u64,
            summary.total_sites() as u64,
        ]);
    }

    let (raw_cycles, _) =
        run_checked(tr, &p.raw, oracle).map_err(|e| format!("{} raw: {e}", opt.label()))?;
    round.count(cycles_key(None), raw_cycles as f64);
    fp.push(raw_cycles);
    for (t, prog) in p.programs.iter().enumerate() {
        match run_checked(tr, prog, oracle) {
            Ok((cycles, insts)) => {
                round.cycles[t].push((raw_cycles, cycles));
                round.count(cycles_key(Some(t)), cycles as f64);
                round.count("cpu.golden_insts", insts as f64);
                fp.extend([cycles, insts]);
            }
            Err(e) => problems.push(format!("{} {}: {e}", opt.label(), TECHNIQUES[t])),
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// Loads and runs `prog` fault-free; its output must equal `oracle`.
/// Returns the simulated cycles and dynamic instructions.
fn run_checked(tr: &Tracer, prog: &AsmProgram, oracle: &[i64]) -> Result<(u64, u64), String> {
    let cpu = tr
        .span("cpu.load_s", || Cpu::load(prog))
        .map_err(|e| e.to_string())?;
    let run = tr.span("cpu.run_s", || cpu.run(None));
    if run.stop != StopReason::MainReturned || run.output != oracle {
        return Err(format!(
            "stop {:?}, output differs from the MIR interpreter",
            run.stop
        ));
    }
    Ok((run.cycles, run.dyn_insts))
}
