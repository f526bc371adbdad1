//! Execution-engine selection for campaigns.
//!
//! Every campaign plan runs on an [`Engine`]: either
//! the reference interpreter ([`Cpu`]) or the decode-once flattened
//! engine ([`DecodedCpu`], `ferrum_cpu::decoded`).  Both expose the
//! same surface — `run`, `run_multi`, `profile`, and a steppable
//! machine with interchangeable [`Snapshot`]s — and are
//! byte-identical per seed, so a campaign's outcome counts, records,
//! and latency distribution never depend on the engine; only
//! throughput does.  `EngineKind` is the serializable selector CLI
//! flags and campaign reports carry.

use ferrum_cpu::decoded::{DecodedCpu, DecodedMachine};
use ferrum_cpu::exec::{State, StepEvent};
use ferrum_cpu::fault::FaultSpec;
use ferrum_cpu::image::Image;
use ferrum_cpu::outcome::{RunResult, StopReason};
use ferrum_cpu::run::{Cpu, Profile};
use ferrum_cpu::snapshot::{Machine, Snapshot};

/// Which execution engine a campaign runs on.  The default is the
/// decoded engine; the interpreter stays the reference the identity
/// suites compare it against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The reference interpreter (`ferrum_cpu::exec::step`).
    Interpreter,
    /// The decode-once flattened engine (`ferrum_cpu::decoded`).
    #[default]
    Decoded,
}

impl EngineKind {
    /// All engine kinds.
    pub const ALL: [EngineKind; 2] = [EngineKind::Interpreter, EngineKind::Decoded];

    /// Label for reports and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Interpreter => "interpreter",
            EngineKind::Decoded => "decoded",
        }
    }

    /// Parses a CLI flag value.
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s {
            "interpreter" => Some(EngineKind::Interpreter),
            "decoded" => Some(EngineKind::Decoded),
            _ => None,
        }
    }
}

/// A borrowed execution engine: the interpreter or the decoded engine
/// over the same loaded image.  Every campaign names its engine;
/// `ferrum::Build::engine` hands out either over one build.
#[derive(Debug, Clone, Copy)]
pub enum Engine<'a> {
    /// Reference interpreter.
    Interpreter(&'a Cpu),
    /// Decode-once flattened engine.
    Decoded(&'a DecodedCpu),
}

impl<'a> Engine<'a> {
    /// Which engine this is.
    pub fn kind(&self) -> EngineKind {
        match self {
            Engine::Interpreter(_) => EngineKind::Interpreter,
            Engine::Decoded(_) => EngineKind::Decoded,
        }
    }

    /// The loaded image both engines execute.
    pub fn image(&self) -> &'a Image {
        match self {
            Engine::Interpreter(c) => c.image(),
            Engine::Decoded(d) => d.image(),
        }
    }

    /// Runs the program, optionally injecting one fault.
    pub fn run(&self, fault: Option<FaultSpec>) -> RunResult {
        match self {
            Engine::Interpreter(c) => c.run(fault),
            Engine::Decoded(d) => d.run(fault),
        }
    }

    /// Runs the program injecting every fault in `faults`.
    pub fn run_multi(&self, faults: &[FaultSpec]) -> RunResult {
        match self {
            Engine::Interpreter(c) => c.run_multi(faults),
            Engine::Decoded(d) => d.run_multi(faults),
        }
    }

    /// Profiles the fault-free run (byte-identical across engines).
    pub fn profile(&self) -> Profile {
        match self {
            Engine::Interpreter(c) => c.profile(),
            Engine::Decoded(d) => d.profile(),
        }
    }

    /// A steppable machine at the program entry point.
    pub fn machine(&self) -> EngineMachine<'a> {
        match self {
            Engine::Interpreter(c) => EngineMachine::Interpreter(Machine::new(c)),
            Engine::Decoded(d) => EngineMachine::Decoded(DecodedMachine::new(d)),
        }
    }
}

/// A steppable machine over either engine — the campaign replay,
/// the golden checkpoint walk and the forensics replay run on this so
/// they work identically on interpreter and decoded state.
#[derive(Debug, Clone)]
pub enum EngineMachine<'a> {
    /// Interpreter machine.
    Interpreter(Machine<'a>),
    /// Decoded machine.
    Decoded(DecodedMachine<'a>),
}

impl EngineMachine<'_> {
    /// Dynamic instructions executed so far.
    pub fn dyn_insts(&self) -> u64 {
        match self {
            EngineMachine::Interpreter(m) => m.dyn_insts(),
            EngineMachine::Decoded(m) => m.dyn_insts(),
        }
    }

    /// Why the run stopped, if it has.
    pub fn stop_reason(&self) -> Option<StopReason> {
        match self {
            EngineMachine::Interpreter(m) => m.stop_reason(),
            EngineMachine::Decoded(m) => m.stop_reason(),
        }
    }

    /// The architectural state at the current instruction boundary.
    pub fn state(&self) -> &State {
        match self {
            EngineMachine::Interpreter(m) => m.state(),
            EngineMachine::Decoded(m) => m.state(),
        }
    }

    /// Mutable architectural state (forensic state surgery).
    pub fn state_mut(&mut self) -> &mut State {
        match self {
            EngineMachine::Interpreter(m) => m.state_mut(),
            EngineMachine::Decoded(m) => m.state_mut(),
        }
    }

    /// Captures a snapshot usable by either engine.
    pub fn snapshot(&self) -> Snapshot {
        match self {
            EngineMachine::Interpreter(m) => m.snapshot(),
            EngineMachine::Decoded(m) => m.snapshot(),
        }
    }

    /// Reinstates a snapshot, clearing any stop condition.
    pub fn restore(&mut self, snap: &Snapshot) {
        match self {
            EngineMachine::Interpreter(m) => m.restore(snap),
            EngineMachine::Decoded(m) => m.restore(snap),
        }
    }

    /// Executes one instruction with the fault hook armed.
    pub fn step_faulted(&mut self, faults: &[FaultSpec]) -> StepEvent {
        match self {
            EngineMachine::Interpreter(m) => m.step_faulted(faults),
            EngineMachine::Decoded(m) => m.step_faulted(faults),
        }
    }

    /// Executes one fault-free instruction.
    pub fn step(&mut self) -> StepEvent {
        self.step_faulted(&[])
    }

    /// Advances fault-free until `boundary` dynamic instructions have
    /// executed, returning the stop reason once the program (or its
    /// step budget) has stopped, at or before the boundary.
    /// The decoded engine runs its tight dispatch loop; the
    /// interpreter — the measured baseline — steps one instruction at
    /// a time, exactly as a step loop would.
    pub fn advance_to(&mut self, boundary: u64) -> Option<StopReason> {
        match self {
            EngineMachine::Interpreter(m) => {
                while m.dyn_insts() < boundary {
                    if let StepEvent::Stop(s) = m.step_faulted(&[]) {
                        return Some(s);
                    }
                }
                m.stop_reason()
            }
            EngineMachine::Decoded(m) => m.advance_to(boundary),
        }
    }

    /// Runs until the program stops, injecting `faults` along the way.
    pub fn run_to_completion(&mut self, faults: &[FaultSpec]) -> RunResult {
        match self {
            EngineMachine::Interpreter(m) => m.run_to_completion(faults),
            EngineMachine::Decoded(m) => m.run_to_completion(faults),
        }
    }

    /// [`EngineMachine::run_to_completion`] with the golden-trace
    /// convergence short-circuit where the engine has one: the decoded
    /// engine compares the post-fault run against the fault-free
    /// `checkpoints` and stitches the remainder from `golden` on an
    /// exact state match; the interpreter — the measured baseline —
    /// ignores the golden data and runs plainly.  Outcomes are
    /// byte-identical either way: the short-circuit fires only on full
    /// architectural-state equality.
    pub fn run_converging(
        &mut self,
        faults: &[FaultSpec],
        checkpoints: &[Snapshot],
        golden: &RunResult,
    ) -> RunResult {
        match self {
            EngineMachine::Interpreter(m) => m.run_to_completion(faults),
            EngineMachine::Decoded(m) => m.run_converging(faults, checkpoints, golden),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_mir::builder::FunctionBuilder;
    use ferrum_mir::module::Module;
    use ferrum_mir::types::Ty;

    fn cpu() -> Cpu {
        let mut b = FunctionBuilder::new("main", &[], None);
        let v = b.iconst(Ty::I64, 20);
        let w = b.iconst(Ty::I64, 22);
        let s = b.add(Ty::I64, v, w);
        b.print(s);
        b.ret(None);
        let module = Module::from_functions(vec![b.finish()]);
        let asm = ferrum_backend::compile(&module).unwrap();
        Cpu::load(&asm).unwrap()
    }

    #[test]
    fn engines_agree_on_every_surface() {
        let c = cpu();
        let d = DecodedCpu::new(&c);
        let (ei, ed) = (Engine::Interpreter(&c), Engine::Decoded(&d));
        assert_eq!(ei.kind(), EngineKind::Interpreter);
        assert_eq!(ed.kind(), EngineKind::Decoded);
        assert_eq!(ei.run(None), ed.run(None));
        assert_eq!(ei.profile().sites, ed.profile().sites);
        let mut mi = ei.machine();
        let mut md = ed.machine();
        mi.step();
        md.step();
        assert_eq!(mi.dyn_insts(), md.dyn_insts());
        assert_eq!(mi.state().pc, md.state().pc);
        // Cross-engine snapshot interchange.
        md.restore(&mi.snapshot());
        assert_eq!(md.run_to_completion(&[]), {
            let mut m = ei.machine();
            m.restore(&mi.snapshot());
            m.run_to_completion(&[])
        });
    }

    #[test]
    fn kind_labels_round_trip() {
        for k in EngineKind::ALL {
            assert_eq!(EngineKind::parse(k.label()), Some(k));
        }
        assert_eq!(EngineKind::parse("jit"), None);
        assert_eq!(EngineKind::default(), EngineKind::Decoded);
    }
}
