//! # ferrum-asm — an x86-64 assembly subset model
//!
//! This crate models the slice of the x86-64 ISA that the FERRUM paper
//! (DSN 2024, *"A Fast Low-Level Error Detection Technique"*) operates on:
//!
//! * the sixteen general-purpose registers with their 8/16/32/64-bit views
//!   and the architectural sub-register write semantics,
//! * the XMM/YMM SIMD register files (YMM aliasing XMM in the low lanes),
//! * the RFLAGS condition flags written by `cmp`/`test`/ALU instructions,
//! * a structured instruction AST covering data movement (`mov`, `movslq`,
//!   `lea`, `push`/`pop`), integer ALU, comparisons and `setcc`, control
//!   flow, and the SIMD instructions FERRUM's checkers are built from
//!   (`movq`-to-XMM, `pinsrq`, `vinserti128`, `vpxor`, `vptest`),
//! * an AT&T-style printer and a round-tripping parser,
//! * static analyses used by the protection passes: control-flow graph
//!   construction, register-usage scanning (spare-register discovery) and
//!   backward liveness.
//!
//! Every instruction in a [`program::AsmProgram`] carries a
//! [`provenance::Provenance`] tag recording whether it was lowered from an
//! IR instruction, emitted as backend glue, or inserted by a protection
//! pass.  The fault-injection campaigns use this to attribute silent data
//! corruptions to their cross-layer root cause, reproducing the analysis
//! in §IV-B1 of the paper.
//!
//! ## Example
//!
//! ```
//! use ferrum_asm::inst::{AluOp, Inst};
//! use ferrum_asm::operand::Operand;
//! use ferrum_asm::reg::{Gpr, Reg, Width};
//!
//! // xorq %rcx, %r10  — the checker idiom from Fig. 4 of the paper.
//! let check = Inst::Alu {
//!     op: AluOp::Xor,
//!     w: Width::W64,
//!     src: Operand::Reg(Reg::gpr(Gpr::Rcx, Width::W64)),
//!     dst: Operand::Reg(Reg::gpr(Gpr::R10, Width::W64)),
//! };
//! assert_eq!(ferrum_asm::printer::print_inst(&check), "xorq %rcx, %r10");
//! ```

pub mod analysis;
pub mod flags;
pub mod gnu;
pub mod inst;
pub mod operand;
pub mod parser;
pub mod printer;
pub mod program;
pub mod provenance;
pub mod reg;

pub use flags::{Cc, Flags};
pub use inst::{AluOp, Inst, ShiftAmount, ShiftOp, UnaryOp};
pub use operand::{MemRef, Operand, Scale};
pub use program::{AsmBlock, AsmFunction, AsmInst, AsmProgram, Label};
pub use provenance::{GlueKind, Mechanism, Provenance, TechniqueTag};
pub use reg::{Gpr, Reg, Width, Xmm, Ymm, Zmm};

/// The label every protection technique jumps to when a checker detects a
/// mismatch.  The simulator treats a transfer to this label as an
/// error-detection event (paper Figs. 4–7: `jne exit_function`).
pub const EXIT_FUNCTION: &str = "exit_function";

/// Name of the output intrinsic: `call print_i64` prints the value in
/// `%rdi` to the simulated program output stream.
pub const PRINT_I64: &str = "print_i64";
