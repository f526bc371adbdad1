//! # ferrum — the public API of the FERRUM reproduction
//!
//! One façade over the whole stack built for the DSN 2024 paper *"A Fast
//! Low-Level Error Detection Technique"*:
//!
//! * [`Pipeline::build`] — compile a MIR module, protect it with any
//!   [`Technique`] (none / IR-level EDDI / hybrid assembly EDDI /
//!   FERRUM) and load it: one [`Build`] per configuration, which hands
//!   out either execution [`Engine`] and the golden profile;
//! * [`experiment`] — the paper's evaluation loop: fault-injection
//!   campaigns (SDC coverage, Fig. 10), runtime overhead (Fig. 11), and
//!   root-cause attribution (§IV-B1) over the benchmark suite;
//! * [`Campaign`] — the one fault-injection campaign plan, whose axes
//!   (fault list, threads, snapshots, pruning, reuse, observing
//!   recorder, engine) cover every campaign the tools run;
//! * re-exports of the most used types from the underlying crates.
//!
//! ## Quickstart
//!
//! ```
//! use ferrum::{EngineKind, Pipeline, Technique};
//! use ferrum_workloads::{workload, Scale};
//!
//! # fn main() -> Result<(), ferrum::Error> {
//! let bfs = workload("bfs").expect("in catalog");
//! let module = bfs.build(Scale::Test);
//!
//! let pipeline = Pipeline::new();
//! let raw = pipeline.build(&module, Technique::None)?;
//! let protected = pipeline.build(&module, Technique::Ferrum)?;
//!
//! let raw_run = raw.engine(EngineKind::default()).run(None);
//! let prot_run = protected.engine(EngineKind::default()).run(None);
//! assert_eq!(raw_run.output, prot_run.output); // protection is transparent
//! assert_eq!(raw_run.output, bfs.oracle(Scale::Test));
//! # Ok(())
//! # }
//! ```

pub mod attribution;
pub mod error;
pub mod experiment;
pub mod flight;
pub mod json;
pub mod pipeline;
pub mod profile;
pub mod report;

pub use attribution::OverheadAttribution;
pub use error::Error;
pub use experiment::{evaluate_workload, EvalConfig, TechniqueReport, WorkloadReport};
pub use pipeline::{Build, Pipeline};
pub use profile::{diff_profile, DiffProfile, SiteOverhead};

pub use ferrum_asm::analysis::coverage::{
    CoverageMap, FunctionCoverage, SiteCoverage, StaticVerdict, VerdictCounts,
};
pub use ferrum_asm::analysis::summary::{
    function_hash, EscapeFootprint, EscapeRollup, SummaryMap, UnitSummary,
};
pub use ferrum_asm::provenance::Mechanism;
pub use ferrum_backend::{OptLevel, PassStats};
pub use ferrum_cpu::cost::CostModel;
pub use ferrum_cpu::decoded::{DecodedCpu, DecodedMachine};
pub use ferrum_cpu::outcome::{RunResult, StopReason};
pub use ferrum_cpu::run::{MechCount, MechCounts};
pub use ferrum_cpu::{PcCount, PcProfile};
pub use ferrum_eddi::Technique;
pub use ferrum_faultsim::campaign::{
    CampaignConfig, CampaignResult, CampaignStats, DetectionLatency, Outcome, WorkerStats,
};
pub use ferrum_faultsim::compose::{compose, CampaignCache, FunctionShard, ShardDraw};
pub use ferrum_faultsim::engine::{Engine, EngineKind, EngineMachine};
pub use ferrum_faultsim::flight::{
    program_signature, CampaignEvent, CampaignFingerprint, FlightEvent, FlightRecorder, FlightSink,
    JournalSnapshot, MemorySink, OutcomeTallies, ProgressSnapshot, ShardRecord, Stage, TeeSink,
};
pub use ferrum_faultsim::forensics::{
    explain_unknown_sites, forensic_replay, forensic_report, CheckerEscape, Divergence,
    EscapeReason, FaultPastRun, ForensicConfig, ForensicRecord, ForensicsReport, KillWindow,
    TaintTimeline, UnknownSiteExplanation,
};
pub use ferrum_faultsim::plan::{static_outcome, Campaign, CampaignError, FaultList, Reuse};
pub use ferrum_workloads::{all_workloads, workload, Scale, Workload};
