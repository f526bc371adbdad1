//! The paper's evaluation loop: per-benchmark SDC coverage (Fig. 10),
//! runtime overhead (Fig. 11), and root-cause attribution (§IV-B1).

use ferrum_backend::{OptLevel, PassStats};
use ferrum_eddi::Technique;
use ferrum_faultsim::campaign::{CampaignConfig, CampaignResult};
use ferrum_faultsim::engine::EngineKind;
use ferrum_faultsim::plan::Campaign;
use ferrum_faultsim::rootcause::{attribute_sdcs, RootCauseReport};
use ferrum_faultsim::stats::{runtime_overhead, sdc_coverage};
use ferrum_workloads::{Scale, Workload};

use crate::{Error, Pipeline};

/// Evaluation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Faults sampled per configuration (the paper uses 1000).
    pub samples: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Problem-size scale.
    pub scale: Scale,
    /// Backend optimization level.  The config is authoritative:
    /// [`evaluate_workload`] compiles every technique at this level
    /// regardless of the pipeline's own setting, so a single `--opt`
    /// flag steers the whole evaluation.
    pub opt: OptLevel,
}

impl Default for EvalConfig {
    fn default() -> EvalConfig {
        EvalConfig {
            samples: 1000,
            seed: 0xFE44,
            scale: Scale::Paper,
            opt: OptLevel::O0,
        }
    }
}

/// Measurements for one technique on one benchmark.
#[derive(Debug, Clone)]
pub struct TechniqueReport {
    /// The technique.
    pub technique: Technique,
    /// Fault-free simulated cycles.
    pub cycles: u64,
    /// Runtime overhead versus the unprotected build.
    pub overhead: f64,
    /// SDC probability under the campaign.
    pub sdc_prob: f64,
    /// SDC coverage versus the unprotected build (the Fig. 10 metric).
    pub coverage: f64,
    /// Static instruction count of the protected program.
    pub static_insts: usize,
    /// Fault-free dynamic instruction count.
    pub dyn_insts: u64,
    /// Full campaign counts.
    pub campaign: CampaignResult,
    /// SDCs attributed to instruction provenance.
    pub rootcause: RootCauseReport,
    /// Backend pass statistics for this technique's compile
    /// (all-zero at `-O0`).
    pub pass_stats: PassStats,
}

/// Everything measured for one benchmark.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Benchmark name.
    pub name: String,
    /// Unprotected cycles.
    pub raw_cycles: u64,
    /// Unprotected static instruction count.
    pub raw_static_insts: usize,
    /// Unprotected SDC probability.
    pub raw_sdc_prob: f64,
    /// Optimization level every program in this report was compiled at.
    pub opt: OptLevel,
    /// Backend pass statistics for the unprotected compile.
    pub raw_pass_stats: PassStats,
    /// One report per protected technique, in
    /// [`Technique::PROTECTED`] order.
    pub techniques: Vec<TechniqueReport>,
}

impl WorkloadReport {
    /// The report for `t`.
    pub fn technique(&self, t: Technique) -> Option<&TechniqueReport> {
        self.techniques.iter().find(|r| r.technique == t)
    }
}

/// Runs the full evaluation (all techniques) for one benchmark.
///
/// Each of the four programs (raw plus the three techniques) is one
/// [`Build`](crate::Build) whose golden profile and campaign run on
/// the default [`EngineKind`]; records are byte-identical to the
/// one-thread interpreter plan with the same seed.  A protected build
/// is dropped once its report row is taken.
///
/// # Errors
///
/// Propagates pipeline and campaign failures, and fails when a
/// program's fault-free output diverges from the workload's oracle.
pub fn evaluate_workload(
    pipeline: &Pipeline,
    w: &Workload,
    cfg: EvalConfig,
) -> Result<WorkloadReport, Error> {
    let module = w.build(cfg.scale);
    let golden = w.oracle(cfg.scale);
    let pipeline = &pipeline.clone().with_opt_level(cfg.opt);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Builds, profiles and injects one program, with work stealing
    // over every core.
    let measure = |t: Technique, seed: u64| {
        let build = pipeline.build(&module, t)?;
        let profile = build.profile();
        if profile.result.output != golden {
            return Err(Error::msg(format!(
                "{}/{t}: simulated output diverges from the oracle",
                w.name
            )));
        }
        let campaign = Campaign::sampled(CampaignConfig {
            samples: cfg.samples,
            seed,
        })
        .threads(threads)
        .run(build.engine(EngineKind::default()), profile)?;
        Ok((build, campaign))
    };

    // `raw` lives to the end: freeing its profile's large site list
    // before the protected builds run leaves the process's peak RSS
    // bimodal under glibc's adaptive mmap threshold.
    let (raw, raw_campaign) = measure(Technique::None, cfg.seed)?;
    let mut report = WorkloadReport {
        name: w.name.to_owned(),
        raw_cycles: raw.profile().result.cycles,
        raw_static_insts: raw.program().static_inst_count(),
        raw_sdc_prob: raw_campaign.sdc_prob(),
        opt: cfg.opt,
        raw_pass_stats: raw.pass_stats(),
        techniques: Vec::new(),
    };
    for (k, t) in Technique::PROTECTED.into_iter().enumerate() {
        let (build, campaign) = measure(t, cfg.seed.wrapping_add(k as u64 + 1))?;
        let profile = build.profile();
        report.techniques.push(TechniqueReport {
            technique: t,
            cycles: profile.result.cycles,
            overhead: runtime_overhead(report.raw_cycles, profile.result.cycles),
            sdc_prob: campaign.sdc_prob(),
            coverage: sdc_coverage(report.raw_sdc_prob, campaign.sdc_prob()),
            static_insts: build.program().static_inst_count(),
            dyn_insts: profile.result.dyn_insts,
            rootcause: attribute_sdcs(profile, &campaign),
            campaign,
            pass_stats: build.pass_stats(),
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_workloads::workload;

    #[test]
    fn report_matches_the_one_thread_interpreter_reference() {
        let w = workload("pathfinder").expect("exists");
        let cfg = EvalConfig {
            samples: 150,
            seed: 5,
            scale: Scale::Test,
            ..EvalConfig::default()
        };
        let pipeline = Pipeline::new().with_opt_level(cfg.opt);
        let report = evaluate_workload(&pipeline, &w, cfg).expect("evaluates");

        // Each configuration again, on the interpreter with one thread,
        // with the seeds `evaluate_workload` uses.
        let module = w.build(cfg.scale);
        let reference = |t: Technique, seed: u64| {
            let build = pipeline.build(&module, t).expect("builds");
            let profile = build.cpu().profile();
            let campaign = Campaign::sampled(CampaignConfig {
                samples: cfg.samples,
                seed,
            })
            .run(build.engine(EngineKind::Interpreter), &profile)
            .expect("runs");
            (build.program().clone(), profile, campaign)
        };
        let (raw_prog, raw_profile, raw) = reference(Technique::None, cfg.seed);
        assert_eq!(report.raw_sdc_prob, raw.sdc_prob());
        assert_eq!(report.raw_cycles, raw_profile.result.cycles);
        assert_eq!(report.raw_static_insts, raw_prog.static_inst_count());
        for (k, t) in Technique::PROTECTED.into_iter().enumerate() {
            let (prog, profile, campaign) = reference(t, cfg.seed.wrapping_add(k as u64 + 1));
            let r = report.technique(t).expect("reported");
            assert_eq!(r.campaign.stats.engine, EngineKind::Decoded, "{t}");
            assert_eq!(r.campaign.records, campaign.records, "{t}");
            assert_eq!(r.campaign.stats.latency, campaign.stats.latency, "{t}");
            assert_eq!(r.sdc_prob, campaign.sdc_prob(), "{t}");
            assert_eq!(
                r.coverage,
                sdc_coverage(raw.sdc_prob(), campaign.sdc_prob()),
                "{t}"
            );
            assert_eq!(r.cycles, profile.result.cycles, "{t}");
            assert_eq!(r.dyn_insts, profile.result.dyn_insts, "{t}");
            assert_eq!(r.static_insts, prog.static_inst_count(), "{t}");
            assert_eq!(r.rootcause, attribute_sdcs(&profile, &campaign), "{t}");
        }
    }

    #[test]
    fn a_golden_run_that_misses_the_oracle_is_an_error() {
        // A 100-step budget times the golden run out long before the
        // kernel prints its result.
        let w = workload("pathfinder").expect("exists");
        let cfg = EvalConfig {
            samples: 10,
            scale: Scale::Test,
            ..EvalConfig::default()
        };
        let pipeline = Pipeline::new().with_step_limit(100);
        let err = evaluate_workload(&pipeline, &w, cfg).expect_err("oracle mismatch");
        assert_eq!(
            err.to_string(),
            "pathfinder/RAW: simulated output diverges from the oracle"
        );
    }

    #[test]
    fn evaluation_reproduces_the_papers_shape_on_one_benchmark() {
        let pipeline = Pipeline::new();
        let w = workload("pathfinder").expect("exists");
        let cfg = EvalConfig {
            samples: 400,
            seed: 99,
            scale: Scale::Test,
            ..EvalConfig::default()
        };
        let report = evaluate_workload(&pipeline, &w, cfg).expect("evaluates");

        assert!(report.raw_sdc_prob > 0.0, "raw program must show SDCs");

        let ir = report.technique(Technique::IrEddi).unwrap();
        let hybrid = report.technique(Technique::HybridAsmEddi).unwrap();
        let ferrum = report.technique(Technique::Ferrum).unwrap();

        // Coverage: asm-level techniques are full; IR level is not.
        assert!((hybrid.coverage - 1.0).abs() < f64::EPSILON, "{hybrid:?}");
        assert!((ferrum.coverage - 1.0).abs() < f64::EPSILON, "{ferrum:?}");
        assert!(ir.coverage < 1.0, "IR-EDDI should leak: {ir:?}");

        // Overhead: FERRUM cheapest, hybrid most expensive.
        assert!(
            ferrum.overhead < ir.overhead,
            "{} vs {}",
            ferrum.overhead,
            ir.overhead
        );
        assert!(ferrum.overhead < hybrid.overhead);
        assert!(ir.overhead > 0.0 && hybrid.overhead > 0.0 && ferrum.overhead > 0.0);
    }
}
