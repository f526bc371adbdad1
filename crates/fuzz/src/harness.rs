//! The differential oracle stack.
//!
//! One seed flows through every layer the repo has and every layer
//! must agree:
//!
//! ```text
//! MIR interpreter  ──┐
//! -O0 × {interp, decoded} engines ──┤
//! -O1 × {interp, decoded} engines ──┼──  identical printed output
//! {ir-eddi, hybrid, ferrum} × {-O0, -O1}, fault-free ──┘
//!
//! plus: per-pc profiles byte-identical across engines (profile oracle)
//!       O1(O1(p)) == O1(p)            (idempotence)
//!       Δsize == PassStats claims      (stat exactness)
//!       manifests ∩ regalloc pool = ∅  (reservation discipline)
//!       lint(ferrum|hybrid) clean      (protection contracts)
//!       parse(print(ferrum|hybrid)) == itself  (listing round trip)
//!       pruned campaign ≡ serial       (coverage soundness)
//!       composed verdicts ⊆ serial outcomes  (composition soundness)
//!       campaign(ferrum|hybrid) books no SDC  (the zero-SDC invariant)
//! ```
//!
//! A failed check is a [`Divergence`] naming the seed and the stage;
//! the harness never panics on a finding, so one bad seed cannot mask
//! others in the same run.

use ferrum::{
    compose, static_outcome, Build, CampaignConfig, CampaignResult, CoverageMap, EngineKind,
    Pipeline, StopReason, SummaryMap, Technique,
};
use ferrum_asm::analysis::lint::{lint_program, lint_program_with};
use ferrum_asm::parser::parse_program;
use ferrum_asm::printer::print_program;
use ferrum_backend::{compile, OptLevel, ProgramMeta};
use ferrum_faultsim::Campaign;
use ferrum_mir::interp::Interp;

use crate::gen::generate_module;

/// One failed differential check.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The generator seed that produced the program.
    pub seed: u64,
    /// Which check failed (stable label, e.g. `"o1-semantics"`).
    pub stage: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

/// Fuzzing campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Number of programs; program `i` uses seed `base_seed + i`.
    pub programs: u64,
    /// Seed of the first program.
    pub base_seed: u64,
    /// Faults for each campaign stage, the coverage cross-check and
    /// the no-SDC check (0 skips every campaign; campaigns dominate
    /// runtime).
    pub campaign_samples: usize,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            programs: 200,
            base_seed: 42,
            campaign_samples: 25,
        }
    }
}

/// Aggregate result of a fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Programs generated and checked.
    pub programs: u64,
    /// Individual differential checks executed.
    pub checks: u64,
    /// Total static MIR instructions generated.
    pub mir_insts: u64,
    /// Every failed check, in seed order.
    pub divergences: Vec<Divergence>,
}

impl FuzzReport {
    /// True when every check of every program agreed.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

struct Checker {
    seed: u64,
    checks: u64,
    divergences: Vec<Divergence>,
}

impl Checker {
    fn check(&mut self, stage: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.divergences.push(Divergence {
                seed: self.seed,
                stage,
                detail: detail(),
            });
        }
    }
}

/// Runs the full oracle stack on one seed.  Returns the check count
/// and any divergences; a stage whose prerequisites failed is skipped
/// rather than reported twice.
pub fn check_program(seed: u64, campaign_samples: usize) -> (u64, u64, Vec<Divergence>) {
    let (module, stats) = generate_module(seed);
    let mut c = Checker {
        seed,
        checks: 0,
        divergences: Vec::new(),
    };

    let verified = ferrum_mir::verify::verify_module(&module);
    c.check("verify", verified.is_ok(), || {
        format!("{:?}", verified.unwrap_err())
    });

    // Golden oracle: the MIR interpreter.
    let oracle = match Interp::new(&module).run() {
        Ok(r) => r.output,
        Err(e) => {
            c.check("interp-trap", false, || e.to_string());
            return (stats.mir_insts as u64, c.checks, c.divergences);
        }
    };
    c.check("interp-output", !oracle.is_empty(), || {
        "program printed nothing".into()
    });

    // Raw compilation at both levels, on both execution engines.
    let mut levels = Vec::new();
    for opt in [OptLevel::O0, OptLevel::O1] {
        let pipeline = Pipeline::new().with_opt_level(opt);
        let raw = match pipeline.build(&module, Technique::None) {
            Ok(b) => b,
            Err(e) => {
                c.check("compile", false, || format!("[{}] {e}", opt.label()));
                continue;
            }
        };
        let valid = raw.program().validate();
        c.check("validate", valid.is_ok(), || {
            format!("[{}] {:?}", opt.label(), valid.unwrap_err())
        });
        let run = raw.engine(EngineKind::Interpreter).run(None);
        c.check(
            "semantics",
            run.stop == StopReason::MainReturned && run.output == oracle,
            || {
                format!(
                    "[{}] stop {:?}, output {:?} vs oracle {:?}",
                    opt.label(),
                    run.stop,
                    run.output,
                    oracle
                )
            },
        );
        let decoded = raw.engine(EngineKind::Decoded).run(None);
        c.check(
            "engine-identity",
            decoded.output == run.output && decoded.stop == run.stop,
            || {
                format!(
                    "[{}] decoded engine disagrees with interpreter engine",
                    opt.label()
                )
            },
        );
        // Exact profiles are a stronger identity oracle than output
        // comparison: both engines must charge every dynamic
        // instruction to the same pc, function, and call stack.  The
        // build's own profile is the decoded engine's.
        let (iprof, dprof) = (raw.cpu().profile(), raw.profile());
        c.check(
            "profile-identity",
            iprof.pcs == dprof.pcs && iprof.mech_counts == dprof.mech_counts,
            || format!("[{}] per-pc profiles diverge between engines", opt.label()),
        );
        c.check(
            "profile-totals",
            iprof.pcs.total().insts == iprof.result.dyn_insts
                && iprof.pcs.total().cycles == iprof.result.cycles,
            || {
                format!(
                    "[{}] pc totals {:?} disagree with golden run ({} insts / {} cycles)",
                    opt.label(),
                    iprof.pcs.total(),
                    iprof.result.dyn_insts,
                    iprof.result.cycles
                )
            },
        );
        levels.push((pipeline, raw));
    }

    // Pass-bundle algebra on the raw programs.
    let meta = ProgramMeta::from_module(&module);
    if let Some((_, o1)) = levels.iter().find(|(p, _)| p.opt_level() == OptLevel::O1) {
        let o1 = o1.program();
        let mut again = o1.clone();
        let stats2 = ferrum_backend::opt::optimize(&mut again, &meta);
        c.check(
            "idempotence",
            stats2.bundle_is_noop() && again == *o1,
            || format!("second bundle run changed code: {stats2:?}"),
        );
    }
    if let Ok(mut prog) = compile(&module) {
        let before = prog.static_inst_count() as u64;
        let pass_stats = ferrum_backend::opt::optimize(&mut prog, &meta);
        let after = prog.static_inst_count() as u64;
        c.check(
            "pass-stats",
            before - after == pass_stats.insts_removed(),
            || format!("size delta {before} -> {after}, stats claim {pass_stats:?}"),
        );
    }

    // At both levels: protection transparency and lint cleanliness,
    // the listing round trip and no SDC under FERRUM and hybrid, and
    // coverage soundness under FERRUM.  One build per technique serves
    // every check of its configuration.
    let plan = Campaign::sampled(CampaignConfig {
        samples: campaign_samples,
        seed: seed ^ 0xC0FFEE,
    });
    for (pipeline, _) in &levels {
        let opt = pipeline.opt_level();
        for technique in Technique::PROTECTED {
            let build = match pipeline.build(&module, technique) {
                Ok(b) => b,
                Err(e) => {
                    c.check("protect", false, || {
                        format!("[{}/{technique}] {e}", opt.label())
                    });
                    continue;
                }
            };
            let run = build.engine(EngineKind::Interpreter).run(None);
            c.check(
                "protect-semantics",
                run.stop == StopReason::MainReturned && run.output == oracle,
                || {
                    format!(
                        "[{}/{technique}] stop {:?}, output {:?} vs oracle {:?}",
                        opt.label(),
                        run.stop,
                        run.output,
                        oracle
                    )
                },
            );
            match technique {
                Technique::Ferrum => {
                    // Lint under FERRUM's declared reservations, which
                    // must be disjoint from the -O1 pool.
                    let rep = lint_program_with(build.program(), build.manifests());
                    c.check("lint-ferrum", rep.is_clean(), || {
                        format!("[{}] {} findings", opt.label(), rep.findings.len())
                    });
                    let mut reserved = build
                        .manifests()
                        .values()
                        .flat_map(|m| m.reserved_gprs.iter());
                    let clash = reserved.find(|g| ferrum_backend::regalloc::POOL.contains(g));
                    c.check("manifest-pool", clash.is_none(), || {
                        let clash = clash.unwrap();
                        format!("[{}] reserved {clash} is in the regalloc pool", opt.label())
                    });
                }
                Technique::HybridAsmEddi => {
                    let rep = lint_program(build.program());
                    c.check("lint-hybrid", rep.is_clean(), || {
                        format!("[{}] {} findings", opt.label(), rep.findings.len())
                    });
                }
                Technique::None | Technique::IrEddi => continue,
            }
            // The printed listing keeps every instruction's provenance
            // as a comment, so it must parse back to the same program.
            let back = parse_program(&print_program(build.program()));
            c.check(
                "round-trip",
                back.as_ref() == Ok(build.program()),
                || match back {
                    Err(e) => format!("[{}/{technique}] {e}", opt.label()),
                    Ok(_) => format!(
                        "[{}/{technique}] listing parses to another program",
                        opt.label()
                    ),
                },
            );
            if campaign_samples == 0 {
                continue;
            }
            // Under FERRUM the serial campaign of the coverage check is
            // the one that must book no SDC.
            let campaign = if technique == Technique::Ferrum {
                coverage_soundness(&mut c, opt, &build, plan)
            } else {
                match plan.run(build.engine(EngineKind::default()), build.profile()) {
                    Ok(r) => Some(r),
                    Err(e) => {
                        c.check("campaign", false, || e.to_string());
                        None
                    }
                }
            };
            if let Some(r) = campaign {
                c.check("no-sdc", r.sdc == 0, || {
                    let (sdc, total) = (r.sdc, r.total());
                    let opt = opt.label();
                    format!("[{opt}/{technique}] {sdc} of {total} sampled faults are SDCs")
                });
            }
        }
    }

    (stats.mir_insts as u64, c.checks, c.divergences)
}

/// Coverage soundness on a FERRUM build: the pruned campaign on the
/// default engine must be outcome-identical to the serial campaign on
/// the reference interpreter, and no decided verdict of the coverage
/// map or of its composition may be contradicted by injection.
/// Returns the serial campaign, or `None` when a campaign could not
/// run.
fn coverage_soundness(
    c: &mut Checker,
    opt: OptLevel,
    build: &Build,
    plan: Campaign<'_>,
) -> Option<CampaignResult> {
    let map = CoverageMap::analyze(build.program());
    let profile = build.profile();
    let runs = plan
        .run(build.engine(EngineKind::Interpreter), profile)
        .and_then(|serial| {
            let pruned = plan
                .prune(&map)
                .run(build.engine(EngineKind::default()), profile)?;
            Ok((serial, pruned))
        });
    let (serial, pruned) = match runs {
        Ok(r) => r,
        Err(e) => {
            c.check("campaign", false, || {
                format!("[{}/ferrum] {e}", opt.label())
            });
            return None;
        }
    };
    c.check("pruned-identity", serial == pruned, || {
        format!(
            "[{}] pruned campaign diverged from the serial interpreter campaign",
            opt.label()
        )
    });
    let contradicted = |map: &CoverageMap| {
        serial
            .records
            .iter()
            .filter(|&&(fault, outcome)| {
                static_outcome(map, profile, fault).is_some_and(|o| o != outcome)
            })
            .count()
    };
    let local = contradicted(&map);
    c.check("verdict-soundness", local == 0, || {
        format!(
            "[{}] {local} static verdicts contradicted by injection",
            opt.label()
        )
    });
    let prog = build.program();
    let (composed, _) = compose(prog, &map, &SummaryMap::build(prog, &map));
    let whole = contradicted(&composed);
    c.check("composed-soundness", whole == 0, || {
        format!(
            "[{}] {whole} composed verdicts contradicted by injection",
            opt.label()
        )
    });
    Some(serial)
}

/// Runs the whole campaign.  `progress` is called after every program
/// with `(programs_done, &report_so_far)`.
pub fn run_fuzz(cfg: &FuzzConfig, mut progress: impl FnMut(u64, &FuzzReport)) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..cfg.programs {
        let seed = cfg.base_seed.wrapping_add(i);
        let (insts, checks, divs) = check_program(seed, cfg.campaign_samples);
        report.programs += 1;
        report.checks += checks;
        report.mir_insts += insts;
        report.divergences.extend(divs);
        progress(i + 1, &report);
    }
    report
}

/// Every divergence of one seed under the default 25-fault campaigns,
/// as `ferrum fuzz` reports it: the in-process reproduction of a
/// failing seed.
pub fn divergences_for_seed(seed: u64) -> Vec<Divergence> {
    check_program(seed, 25).2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_sweep_is_clean() {
        let report = run_fuzz(
            &FuzzConfig {
                programs: 25,
                base_seed: 42,
                campaign_samples: 10,
            },
            |_, _| {},
        );
        assert_eq!(report.programs, 25);
        assert!(report.is_clean(), "divergences: {:#?}", report.divergences);
    }
}
