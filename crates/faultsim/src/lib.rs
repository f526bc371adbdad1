//! # ferrum-faultsim — assembly-level fault-injection campaigns
//!
//! Implements the paper's evaluation methodology (§IV-A2): sample a
//! dynamically executed instruction uniformly from the injectable
//! sites, flip one random bit in its destination register (or RFLAGS
//! for `cmp`/`test`), one fault per program execution, and classify the
//! outcome:
//!
//! * **SDC** — the program completed but printed the wrong output,
//! * **Detected** — a checker transferred control to `exit_function`,
//! * **Crash** — a hardware-style exception (segfault, divide error),
//! * **Timeout** — the fault sent the program into a non-terminating
//!   path,
//! * **Benign** — the program completed with the correct output.
//!
//! [`Campaign`] is the one campaign plan: sampled campaigns (the paper
//! uses 1000 faults per benchmark), double faults, exhaustive sweeps
//! (used by the soundness tests that prove the 100%-coverage claim on
//! small kernels), and stratified per-function campaigns, each run on
//! any number of threads, cold or from golden-prefix snapshots, with
//! static pruning and journal or cache reuse, on either engine.
//! [`campaign`] holds its vocabulary (outcomes, results, telemetry).
//! [`stats`] computes
//! SDC probability and the paper's SDC-coverage metric with
//! binomial confidence intervals, and [`rootcause`] attributes SDCs to
//! the provenance of the faulted instruction, reproducing the paper's
//! root-cause analysis of IR-level EDDI's coverage loss (§IV-B1).

pub mod campaign;
pub mod compose;
pub mod crossval;
pub mod engine;
pub mod flight;
pub mod forensics;
pub mod plan;
pub mod rootcause;
pub mod stats;

pub use campaign::{CampaignConfig, CampaignResult, CampaignStats, Outcome, SnapshotPolicy};
pub use compose::{
    compose, CampaignCache, ComposedFunction, ComposedMap, ComposedSite, FunctionShard, ShardDraw,
};
pub use engine::{Engine, EngineKind, EngineMachine};
pub use flight::{
    program_signature, CampaignEvent, CampaignFingerprint, FlightEvent, FlightPolicy,
    FlightRecorder, FlightSink, JournalSnapshot, MemorySink, OutcomeTallies, ProgressSnapshot,
    ShardRecord, TeeSink,
};
pub use forensics::{
    explain_unknown_sites, forensic_replay, forensic_report, CheckerEscape, Divergence,
    EscapeReason, ForensicConfig, ForensicRecord, ForensicsReport, KillWindow, TaintSample,
    TaintTimeline, UnknownSiteExplanation,
};
pub use plan::{Campaign, CampaignError, FaultList, Reuse};
pub use rootcause::{attribute_sdcs, breakdown_by_kind, KindBreakdown, RootCauseReport};
pub use stats::{min_median_max, percentile_nearest_rank, sdc_coverage, wilson_interval};
