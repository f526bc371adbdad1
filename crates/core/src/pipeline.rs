//! Compile → protect → load, once per configuration: [`Pipeline::build`]
//! returns the [`Build`] every consumer of the configuration reads.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use ferrum_asm::analysis::lint::ProtectionManifest;
use ferrum_asm::program::AsmProgram;
use ferrum_backend::{OptLevel, PassStats};
use ferrum_cpu::cost::CostModel;
use ferrum_cpu::decoded::DecodedCpu;
use ferrum_cpu::run::{Cpu, Profile};
use ferrum_eddi::ferrum::{Ferrum, FerrumConfig};
use ferrum_eddi::hybrid::HybridAsmEddi;
use ferrum_eddi::ir_eddi::IrEddi;
use ferrum_eddi::Technique;
use ferrum_faultsim::engine::{Engine, EngineKind};
use ferrum_mir::module::Module;

use crate::Error;

/// A compiled configuration: the program, the backend's pass
/// statistics (all-zero at `-O0`) and FERRUM's per-function manifests
/// (empty for every other technique).
type Compiled = (AsmProgram, PassStats, BTreeMap<String, ProtectionManifest>);

/// The compile-protect-load pipeline with shared simulation settings.
#[derive(Debug, Clone)]
pub struct Pipeline {
    cost: CostModel,
    step_limit: u64,
    ferrum_cfg: FerrumConfig,
    opt: OptLevel,
}

impl Default for Pipeline {
    fn default() -> Pipeline {
        Pipeline::new()
    }
}

impl Pipeline {
    /// Default cost model, 50 M-step limit, full FERRUM configuration.
    pub fn new() -> Pipeline {
        Pipeline {
            cost: CostModel::default(),
            step_limit: 50_000_000,
            ferrum_cfg: FerrumConfig::default(),
            opt: OptLevel::O0,
        }
    }

    /// Selects the backend optimization level used by every
    /// compilation (default [`OptLevel::O0`], the paper's naive
    /// lowering).
    pub fn with_opt_level(mut self, opt: OptLevel) -> Pipeline {
        self.opt = opt;
        self
    }

    /// The backend optimization level this pipeline compiles at.
    pub fn opt_level(&self) -> OptLevel {
        self.opt
    }

    /// Overrides the cycle cost model programs are loaded with.
    pub fn with_cost_model(mut self, cost: CostModel) -> Pipeline {
        self.cost = cost;
        self
    }

    /// Overrides the step limit (timeout bound) for simulations.
    pub fn with_step_limit(mut self, limit: u64) -> Pipeline {
        self.step_limit = limit;
        self
    }

    /// Overrides FERRUM's configuration (for ablations).
    pub fn with_ferrum_config(mut self, cfg: FerrumConfig) -> Pipeline {
        self.ferrum_cfg = cfg;
        self
    }

    /// The FERRUM configuration this pipeline protects with.
    pub fn ferrum_config(&self) -> FerrumConfig {
        self.ferrum_cfg
    }

    /// Compiles `module` and applies `technique`, without loading the
    /// result: for consumers that only read the program.
    ///
    /// # Errors
    ///
    /// Propagates compilation and protection failures.
    pub fn protect(&self, module: &Module, technique: Technique) -> Result<AsmProgram, Error> {
        self.compile(module, technique).map(|(program, ..)| program)
    }

    /// Compiles `module`, applies `technique` and loads the result.
    ///
    /// # Errors
    ///
    /// Propagates compilation, protection and image-construction
    /// failures.
    pub fn build(&self, module: &Module, technique: Technique) -> Result<Build, Error> {
        self.assemble(technique, self.compile(module, technique)?)
    }

    /// The unprotected reference [`crate::diff_profile`] diffs against:
    /// the raw compile at this pipeline's opt level, peepholed when the
    /// FERRUM configuration peepholes (as FERRUM does before it
    /// protects), so that the difference is protection alone.
    ///
    /// # Errors
    ///
    /// Propagates compilation and image-construction failures.
    pub fn baseline(&self, module: &Module) -> Result<Build, Error> {
        let (mut program, pass_stats) = ferrum_backend::compile_with_stats(module, self.opt)?;
        if self.ferrum_cfg.peephole {
            ferrum_backend::peephole::run(&mut program);
        }
        self.assemble(Technique::None, (program, pass_stats, BTreeMap::new()))
    }

    /// Loads a program for simulation with this pipeline's settings.
    ///
    /// # Errors
    ///
    /// Propagates image-construction failures.
    pub fn load(&self, program: &AsmProgram) -> Result<Cpu, Error> {
        Ok(Cpu::load(program)?
            .with_cost_model(self.cost)
            .with_step_limit(self.step_limit))
    }

    fn compile(&self, module: &Module, technique: Technique) -> Result<Compiled, Error> {
        Ok(match technique {
            Technique::None => {
                let (asm, stats) = ferrum_backend::compile_with_stats(module, self.opt)?;
                (asm, stats, BTreeMap::new())
            }
            Technique::IrEddi => {
                // The paper's root cause 2 in action: IR-level shadows
                // ride through register allocation and forwarding like
                // any other code, and merge with their masters.
                let (protected, shadows) = IrEddi::new().protect_tracked(module);
                let (mut asm, stats) = ferrum_backend::compile_with_stats(&protected, self.opt)?;
                ferrum_eddi::ir_eddi::retag_shadows(
                    &mut asm,
                    &shadows,
                    ferrum_asm::provenance::TechniqueTag::IrEddi,
                );
                (asm, stats, BTreeMap::new())
            }
            Technique::HybridAsmEddi => {
                let (asm, stats) = HybridAsmEddi::new().protect_opt(module, self.opt)?;
                (asm, stats, BTreeMap::new())
            }
            Technique::Ferrum => {
                // Assembly-level protection runs *after* the optimizer,
                // so its coverage is indifferent to the opt level.
                let (asm, stats) = ferrum_backend::compile_with_stats(module, self.opt)?;
                let (protected, manifests) =
                    Ferrum::with_config(self.ferrum_cfg).protect_with_manifest(&asm)?;
                (protected, stats, manifests)
            }
        })
    }

    fn assemble(&self, technique: Technique, compiled: Compiled) -> Result<Build, Error> {
        let (program, pass_stats, manifests) = compiled;
        Ok(Build {
            cpu: self.load(&program)?,
            technique,
            program,
            pass_stats,
            manifests,
            decoded: OnceLock::new(),
            profile: OnceLock::new(),
        })
    }
}

/// One configuration — a module under a technique, with a
/// [`Pipeline`]'s settings — compiled, protected and loaded once, from
/// [`Pipeline::build`] or [`Pipeline::baseline`].  The decoded image
/// and the golden profile are computed at most once, on first use, and
/// shared by every reader.
#[derive(Debug)]
pub struct Build {
    technique: Technique,
    program: AsmProgram,
    pass_stats: PassStats,
    manifests: BTreeMap<String, ProtectionManifest>,
    cpu: Cpu,
    decoded: OnceLock<DecodedCpu>,
    profile: OnceLock<Profile>,
}

impl Build {
    /// The technique this build applied ([`Technique::None`] for a
    /// raw build or a baseline).
    pub fn technique(&self) -> Technique {
        self.technique
    }

    /// The protected program.
    pub fn program(&self) -> &AsmProgram {
        &self.program
    }

    /// The backend's per-pass statistics for this build's compile
    /// (all-zero at `-O0`).
    pub fn pass_stats(&self) -> PassStats {
        self.pass_stats
    }

    /// FERRUM's per-function protection manifests, the claims the
    /// lint verifies (`lint_program_with`); empty for every other
    /// technique.
    pub fn manifests(&self) -> &BTreeMap<String, ProtectionManifest> {
        &self.manifests
    }

    /// The program loaded for the reference interpreter.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The decode-once flattened image, decoded on first use.
    pub fn decoded(&self) -> &DecodedCpu {
        self.decoded.get_or_init(|| DecodedCpu::new(&self.cpu))
    }

    /// The program on the `kind` engine.  Both run byte-identically;
    /// the decoded one is faster.
    pub fn engine(&self, kind: EngineKind) -> Engine<'_> {
        match kind {
            EngineKind::Interpreter => Engine::Interpreter(&self.cpu),
            EngineKind::Decoded => Engine::Decoded(self.decoded()),
        }
    }

    /// The golden profile (sites, counts, fault-free result), taken on
    /// the decoded engine on first use; it is byte-identical to the
    /// interpreter's.
    pub fn profile(&self) -> &Profile {
        self.profile.get_or_init(|| self.decoded().profile())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_cpu::outcome::StopReason;
    use ferrum_faultsim::campaign::CampaignConfig;
    use ferrum_faultsim::plan::Campaign;
    use ferrum_workloads::{workload, Scale};

    const TECHNIQUES: [Technique; 4] = [
        Technique::None,
        Technique::IrEddi,
        Technique::HybridAsmEddi,
        Technique::Ferrum,
    ];

    #[test]
    fn protected_programs_are_larger_and_slower() {
        let w = workload("needle").expect("exists");
        let module = w.build(Scale::Test);
        let pipeline = Pipeline::new();
        let raw = pipeline.build(&module, Technique::None).unwrap();
        let raw_cycles = raw.profile().result.cycles;
        for t in Technique::PROTECTED {
            let cycles = pipeline.build(&module, t).unwrap().profile().result.cycles;
            assert!(cycles > raw_cycles, "{t}: {cycles} vs raw {raw_cycles}");
        }
    }

    #[test]
    fn ferrum_config_reaches_the_pass() {
        let w = workload("knn").expect("exists");
        let module = w.build(Scale::Test);
        let cfg = FerrumConfig {
            simd: false,
            ..FerrumConfig::default()
        };
        let pipeline = Pipeline::new().with_ferrum_config(cfg);
        let p = pipeline.protect(&module, Technique::Ferrum).unwrap();
        assert!(!p
            .function("main")
            .unwrap()
            .insts()
            .any(|a| matches!(a.inst, ferrum_asm::inst::Inst::Vptest { .. })));
    }

    #[test]
    fn a_build_is_what_each_layer_computes_on_its_own() {
        let w = workload("pathfinder").expect("exists");
        let (module, golden) = (w.build(Scale::Test), w.oracle(Scale::Test));
        let cfg = CampaignConfig {
            samples: 60,
            seed: 3,
        };
        for opt in [OptLevel::O0, OptLevel::O1] {
            let pipeline = Pipeline::new().with_opt_level(opt);
            let (raw, raw_stats) = ferrum_backend::compile_with_stats(&module, opt).unwrap();
            for t in TECHNIQUES {
                let ctx = format!("{t} {}", opt.label());
                let b = pipeline.build(&module, t).unwrap();
                assert_eq!(b.technique(), t, "{ctx}");
                assert!(b.program().validate().is_ok(), "{ctx}");
                assert_eq!(*b.program(), pipeline.protect(&module, t).unwrap(), "{ctx}");
                if matches!(t, Technique::None | Technique::Ferrum) {
                    assert_eq!(b.pass_stats(), raw_stats, "{ctx}");
                }
                if t == Technique::Ferrum {
                    let (_, manifests) = Ferrum::new().protect_with_manifest(&raw).unwrap();
                    assert_eq!(*b.manifests(), manifests, "{ctx}");
                } else {
                    assert!(b.manifests().is_empty(), "{ctx}");
                }

                let (decoded, interp) = (b.profile(), b.cpu().profile());
                assert_eq!(decoded.sites, interp.sites, "{ctx}");
                assert_eq!(decoded.prov_counts, interp.prov_counts, "{ctx}");
                assert_eq!(decoded.mech_counts, interp.mech_counts, "{ctx}");
                assert_eq!(decoded.pcs, interp.pcs, "{ctx}");
                assert_eq!(decoded.result, interp.result, "{ctx}");
                assert_eq!(decoded.result.stop, StopReason::MainReturned, "{ctx}");
                assert_eq!(decoded.result.output, golden, "{ctx}");

                let plan = Campaign::sampled(cfg);
                let on = |kind| plan.run(b.engine(kind), b.profile()).unwrap();
                let (i, d) = (on(EngineKind::Interpreter), on(EngineKind::Decoded));
                assert_eq!(i.records, d.records, "{ctx}");
                assert_eq!(d.stats.engine, EngineKind::Decoded, "{ctx}");

                // Every decoded-engine reader shares the one decode.
                let decodes: Vec<&DecodedCpu> = (0..2)
                    .map(|_| match b.engine(EngineKind::Decoded) {
                        Engine::Decoded(d) => d,
                        Engine::Interpreter(_) => panic!("{ctx}: not the decoded engine"),
                    })
                    .collect();
                assert!(std::ptr::eq(decodes[0], decodes[1]), "{ctx}");
                assert!(std::ptr::eq(decodes[0], b.decoded()), "{ctx}");
                assert_eq!(
                    decodes[0].decode_nanos(),
                    decodes[1].decode_nanos(),
                    "{ctx}"
                );
            }
            let baseline = pipeline.baseline(&module).unwrap();
            let ferrum = pipeline.build(&module, Technique::Ferrum).unwrap();
            let d = crate::diff_profile(&baseline, &ferrum).unwrap();
            assert!(
                d.attribution.reconciles(),
                "{}: {:?}",
                opt.label(),
                d.attribution
            );
        }
    }
}
