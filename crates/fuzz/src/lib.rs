//! Differential fuzzing for the FERRUM compilation and protection
//! pipeline.
//!
//! The crate has two halves:
//!
//! * [`gen`] — a seeded, terminating MIR program generator.  Programs
//!   are built from the same [`ferrum_mir::builder::FunctionBuilder`]
//!   the bundled workloads use, with bounded loops, nested diamonds,
//!   local and global arrays, helper calls, and mixed-width
//!   arithmetic.  Every scalar variable the program computes is
//!   printed before `main` returns, so no miscompilation can hide
//!   behind dead code — the generator keeps the whole store live.
//! * [`harness`] — the differential oracle stack.  For each seed the
//!   harness checks the MIR interpreter, the `-O0` and `-O1` backend
//!   output on both execution engines, pass-bundle idempotence and
//!   stat exactness, protection transparency and lint cleanliness for
//!   every technique at both optimization levels, the print/parse
//!   round trip of FERRUM and hybrid listings, and (optionally)
//!   static-coverage soundness against a pruned-vs-serial FERRUM
//!   campaign and no SDC in a sampled FERRUM or hybrid campaign.
//!
//! The harness exists because the `-O1` pass bundle rewrites exactly
//! the code shapes the protection passes key on (frame-slot
//! round-trips, duplicated ALU chains, compare/branch sequences).
//! Eight bundled workloads are nowhere near enough to trust that
//! interaction; a thousand seeded programs with adversarial CFGs are
//! a much stronger witness.  Every divergence the harness ever finds
//! is minimized into `tests/fuzz_regressions.rs` at the workspace
//! root and pinned by seed.

pub mod gen;
pub mod harness;

pub use gen::{generate_module, GenStats};
pub use harness::{check_program, run_fuzz, Divergence, FuzzConfig, FuzzReport};
