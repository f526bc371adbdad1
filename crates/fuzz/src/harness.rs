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
//!       pruned campaign ≡ serial       (coverage soundness)
//! ```
//!
//! A failed check is a [`Divergence`] naming the seed and the stage;
//! the harness never panics on a finding, so one bad seed cannot mask
//! others in the same run.

use ferrum::{
    CampaignConfig, CoverageMap, Outcome, Pipeline, StaticVerdict, StopReason, Technique,
};
use ferrum_asm::analysis::lint::{lint_program, lint_program_with};
use ferrum_backend::{compile, compile_opt, OptLevel, ProgramMeta};
use ferrum_cpu::decoded::DecodedCpu;
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
    /// Faults for the coverage cross-check campaign (0 disables the
    /// campaign stage, which dominates runtime).
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
    c.check("verify", verified.is_ok(), || format!("{:?}", verified.unwrap_err()));

    // Golden oracle: the MIR interpreter.
    let oracle = match Interp::new(&module).run() {
        Ok(r) => r.output,
        Err(e) => {
            c.check("interp-trap", false, || e.to_string());
            return (stats.mir_insts as u64, c.checks, c.divergences);
        }
    };
    c.check("interp-output", !oracle.is_empty(), || "program printed nothing".into());

    // Raw compilation at both levels, on both execution engines.
    let mut programs = Vec::new();
    for opt in [OptLevel::O0, OptLevel::O1] {
        let prog = match compile_opt(&module, opt) {
            Ok(p) => p,
            Err(e) => {
                c.check("compile", false, || format!("[{}] {e}", opt.label()));
                continue;
            }
        };
        let valid = prog.validate();
        c.check("validate", valid.is_ok(), || {
            format!("[{}] {:?}", opt.label(), valid.unwrap_err())
        });
        let cpu = match ferrum_cpu::run::Cpu::load(&prog) {
            Ok(cpu) => cpu,
            Err(e) => {
                c.check("load", false, || format!("[{}] {e}", opt.label()));
                continue;
            }
        };
        let run = cpu.run(None);
        c.check("semantics", run.stop == StopReason::MainReturned && run.output == oracle, || {
            format!(
                "[{}] stop {:?}, output {:?} vs oracle {:?}",
                opt.label(),
                run.stop,
                run.output,
                oracle
            )
        });
        let decoded = DecodedCpu::new(&cpu).run(None);
        c.check("engine-identity", decoded.output == run.output && decoded.stop == run.stop, || {
            format!("[{}] decoded engine disagrees with interpreter engine", opt.label())
        });
        // Exact profiles are a stronger identity oracle than output
        // comparison: both engines must charge every dynamic
        // instruction to the same pc, function, and call stack.
        let iprof = cpu.profile();
        let dprof = DecodedCpu::new(&cpu).profile();
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
        programs.push((opt, prog));
    }

    // Pass-bundle algebra on the raw programs.
    let meta = ProgramMeta::from_module(&module);
    if let Some((_, o1)) = programs.iter().find(|(o, _)| *o == OptLevel::O1) {
        let mut again = o1.clone();
        let stats2 = ferrum_backend::opt::optimize(&mut again, &meta);
        c.check("idempotence", stats2.bundle_is_noop() && again == *o1, || {
            format!("second bundle run changed code: {stats2:?}")
        });
    }
    if let Ok(mut prog) = compile(&module) {
        let before = prog.static_inst_count() as u64;
        let pass_stats = ferrum_backend::opt::optimize(&mut prog, &meta);
        let after = prog.static_inst_count() as u64;
        c.check("pass-stats", before - after == pass_stats.insts_removed(), || {
            format!("size delta {before} -> {after}, stats claim {pass_stats:?}")
        });
    }

    // Protection transparency and lint cleanliness at both levels.
    for (opt, raw) in &programs {
        let pipeline = Pipeline::new().with_opt_level(*opt);
        for technique in Technique::PROTECTED {
            let prog = match pipeline.protect(&module, technique) {
                Ok(p) => p,
                Err(e) => {
                    c.check("protect", false, || format!("[{}/{technique}] {e}", opt.label()));
                    continue;
                }
            };
            let run = match pipeline.load(&prog) {
                Ok(cpu) => cpu.run(None),
                Err(e) => {
                    c.check("protect-load", false, || {
                        format!("[{}/{technique}] {e}", opt.label())
                    });
                    continue;
                }
            };
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
        }

        // FERRUM with manifests: lint under the declared reservations,
        // and the reservations must be disjoint from the -O1 pool.
        match ferrum_eddi::Ferrum::new().protect_with_manifest(raw) {
            Ok((prot, manifests)) => {
                let rep = lint_program_with(&prot, &manifests);
                c.check("lint-ferrum", rep.is_clean(), || {
                    format!("[{}] {} findings", opt.label(), rep.findings.len())
                });
                let clash = manifests.values().flat_map(|m| m.reserved_gprs.iter()).find(|g| {
                    ferrum_backend::regalloc::POOL.contains(g)
                });
                c.check("manifest-pool", clash.is_none(), || {
                    format!("[{}] reserved {} is in the regalloc pool", opt.label(), clash.unwrap())
                });
            }
            Err(e) => c.check("lint-ferrum", false, || format!("[{}] {e}", opt.label())),
        }
        match ferrum_eddi::HybridAsmEddi::new().protect_opt(&module, *opt) {
            Ok((prot, _)) => {
                let rep = lint_program(&prot);
                c.check("lint-hybrid", rep.is_clean(), || {
                    format!("[{}] {} findings", opt.label(), rep.findings.len())
                });
            }
            Err(e) => c.check("lint-hybrid", false, || format!("[{}] {e}", opt.label())),
        }
    }

    // Coverage soundness on the optimized FERRUM program: the pruned
    // campaign must be outcome-identical to the serial engine, and no
    // decided static verdict may be contradicted by injection.
    if campaign_samples > 0 {
        let pipeline = Pipeline::new().with_opt_level(OptLevel::O1);
        if let Ok(prog) = pipeline.protect(&module, Technique::Ferrum) {
            if let Ok(cpu) = pipeline.load(&prog) {
                let map = CoverageMap::analyze(&prog);
                let profile = cpu.profile();
                let cfg = CampaignConfig {
                    samples: campaign_samples,
                    seed: seed ^ 0xC0FFEE,
                };
                let plan = Campaign::sampled(cfg);
                let runs = plan.run(&cpu, &profile).and_then(|serial| {
                    let pruned = plan.prune(&map).run(&cpu, &profile)?;
                    Ok((serial, pruned))
                });
                let (serial, pruned) = match runs {
                    Ok(r) => r,
                    Err(e) => {
                        c.check("campaign", false, || e.to_string());
                        return (stats.mir_insts as u64, c.checks, c.divergences);
                    }
                };
                c.check("pruned-identity", serial == pruned, || {
                    "pruned campaign diverged from serial engine".into()
                });
                let contradicted = serial
                    .records
                    .iter()
                    .filter(|&&(fault, outcome)| {
                        let verdict = profile
                            .sites
                            .binary_search_by_key(&fault.dyn_index, |s| s.dyn_index)
                            .ok()
                            .and_then(|i| map.verdict_at(profile.sites[i].pc, fault.raw_bit));
                        match verdict {
                            Some(StaticVerdict::Masked) => outcome != Outcome::Benign,
                            Some(StaticVerdict::Detected) => outcome != Outcome::Detected,
                            _ => false,
                        }
                    })
                    .count();
                c.check("verdict-soundness", contradicted == 0, || {
                    format!("{contradicted} static verdicts contradicted by injection")
                });
            }
        }
    }

    (stats.mir_insts as u64, c.checks, c.divergences)
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

/// Collects the manifest-less lint helper used above; exposed for the
/// regression tests so a pinned seed can re-run exactly one stage.
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
        assert!(
            report.is_clean(),
            "divergences: {:#?}",
            report.divergences
        );
    }
}
