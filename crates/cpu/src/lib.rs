//! # ferrum-cpu — architectural simulator for the `ferrum-asm` ISA
//!
//! Executes [`ferrum_asm::AsmProgram`]s with:
//!
//! * an architecturally faithful register file (sub-register write
//!   semantics, XMM/YMM aliasing, RFLAGS),
//! * byte-addressable memory split into a global data segment and a
//!   downward-growing stack,
//! * a configurable per-instruction-class [`cost::CostModel`] whose cycle
//!   counts stand in for the paper's wall-clock measurements,
//! * a single-fault write-back corruption hook ([`fault::FaultSpec`]):
//!   at a chosen dynamic instruction, one bit of the instruction's
//!   destination (register, RFLAGS, or SIMD register) is flipped right
//!   after write-back — the PINFI-style fault model of §IV-A2,
//! * run profiling ([`run::Cpu::profile`]) that enumerates every
//!   injectable dynamic fault site with its width and provenance, which
//!   the campaign sampler draws from,
//! * snapshot/restore execution ([`snapshot::Machine`]): the complete
//!   architectural state can be checkpointed at any instruction
//!   boundary, at the cost of the stack in use, and resumed on either
//!   engine — every campaign starts each faulted run from the nearest
//!   golden checkpoint instead of re-executing the prefix.
//!
//! A transfer to the `exit_function` label stops the run with
//! [`outcome::StopReason::Detected`] — the paper's checker-fired event.
//!
//! ## Example
//!
//! ```
//! use ferrum_mir::builder::FunctionBuilder;
//! use ferrum_mir::module::Module;
//! use ferrum_mir::types::Ty;
//! use ferrum_cpu::run::Cpu;
//! use ferrum_cpu::outcome::StopReason;
//!
//! let mut b = FunctionBuilder::new("main", &[], None);
//! let v = b.iconst(Ty::I64, 41);
//! let one = b.iconst(Ty::I64, 1);
//! let s = b.add(Ty::I64, v, one);
//! b.print(s);
//! b.ret(None);
//! let module = Module::from_functions(vec![b.finish()]);
//! let asm = ferrum_backend::compile(&module).expect("compiles");
//! let cpu = Cpu::load(&asm).expect("loads");
//! let result = cpu.run(None);
//! assert_eq!(result.stop, StopReason::MainReturned);
//! assert_eq!(result.output, vec![42]);
//! ```

pub mod cost;
pub mod decoded;
pub mod differential;
pub mod exec;
pub mod fault;
pub mod image;
pub mod machine;
pub mod mem;
pub mod outcome;
pub mod profile;
pub mod run;
pub mod snapshot;
pub mod trace;

pub use cost::{CostClass, CostModel};
pub use decoded::{DecodedCpu, DecodedMachine};
pub use differential::{diff_regs, first_divergence, DiffLoc, MemDivergence, RegDiff};
pub use fault::FaultSpec;
pub use image::{FuncSpan, Image};
pub use outcome::{CrashKind, RunResult, StopReason};
pub use profile::{PcCount, PcProfile, ProfileBuilder};
pub use run::{Cpu, Profile, SiteInfo};
pub use snapshot::{Machine, Snapshot};
pub use trace::{Trace, TraceEntry, WroteValue};
