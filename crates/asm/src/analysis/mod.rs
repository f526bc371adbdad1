//! Static analyses over assembly functions.
//!
//! These are the analyses FERRUM's first phase performs (§III-B1 of the
//! paper): control-flow discovery, register-usage scanning to find spare
//! registers, and liveness to justify register reuse after checks.

pub mod cfg;
pub mod coverage;
pub mod lint;
pub mod liveness;
pub mod regscan;
pub mod summary;

pub use cfg::{Cfg, Dominators};
pub use coverage::{CoverageMap, FunctionCoverage, SiteCoverage, StaticVerdict, VerdictCounts};
pub use lint::{
    lint_function, lint_function_with, lint_program, lint_program_with, LintContract, LintFinding,
    LintReport, ProtectionManifest,
};
pub use liveness::Liveness;
pub use regscan::{RegUsage, SpareReport};
pub use summary::{function_hash, EscapeFootprint, EscapeRollup, SummaryMap, UnitSummary};
