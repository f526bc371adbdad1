//! The campaign plan: one run loop behind every fault-injection
//! campaign.
//!
//! Every campaign draws faults, runs each one, and classifies it
//! against the golden output, so a [`Campaign`] names the variations as
//! independent axes: the [`FaultList`], worker threads, an optional
//! [`CoverageMap`] to prune with, outcomes to [`Reuse`], an optional
//! [`FlightRecorder`] to stream events into, and the [`Engine`]
//! [`Campaign::run`] takes.  For one fault list every combination of
//! the other axes returns the same records and detection-latency
//! distribution (`tests/campaign_plan.rs`, `tests/flight_recorder.rs`);
//! only [`CampaignResult::stats`] differs.
//!
//! Every executed fault runs the same way: the plan walks the golden
//! run once, keeping at most 64 checkpoints at least 64 instructions
//! apart, and replays the fault from the nearest checkpoint at or
//! before its injection index — the reuse of injection work FastFlip
//! applies (`PAPERS.md`).  On the decoded engine the replay stops
//! early once the faulted run's state equals a later checkpoint; the
//! interpreter, the reference, runs it out.
//! Combinations without meaning, and plans that must draw faults from a
//! program without injectable sites, are a [`CampaignError`].
//!
//! Results derived from a finished campaign are post-passes over its
//! [`CampaignResult`]: [`crate::rootcause::attribute_sdcs`],
//! [`crate::forensics::forensic_report`], and
//! [`CampaignCache::from_result`].

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ferrum_asm::analysis::coverage::{CoverageMap, StaticVerdict};
use ferrum_asm::AsmProgram;
use ferrum_cpu::fault::FaultSpec;
use ferrum_cpu::run::Profile;
use ferrum_cpu::snapshot::Snapshot;

use crate::campaign::{
    classify, detection_latency, exhaustive_faults, finish_stats, sample_faults, sample_pairs,
    CampaignConfig, CampaignResult, DetectionLatency, Outcome, WorkerStats,
};
use crate::compose::{stratified_faults, CampaignCache};
use crate::engine::Engine;
use crate::flight::{Booking, FlightRecorder, JournalSnapshot, Stage, StageClock};

/// Which faults a campaign injects, in sampling order.
#[derive(Debug, Clone, Copy)]
pub enum FaultList<'a> {
    /// `cfg.samples` single-bit faults at sites drawn uniformly from
    /// the profile — the paper's method.
    Sampled(CampaignConfig),
    /// `cfg.samples` runs with two independent single-bit faults each —
    /// the paper's future work (§II-A), where duplication can be
    /// defeated.  `records` keep the first fault of each pair.
    Double(CampaignConfig),
    /// Every site with this many bit positions, spread evenly over the
    /// site's destination width — the sweep that proves coverage
    /// claims on small kernels.
    Exhaustive(u16),
    /// Each function's sites sampled by its own RNG stream keyed by the
    /// function name, with quotas proportional to its site count (at
    /// least one, so the total can exceed `cfg.samples`).  An edit to
    /// one function cannot perturb another's draws, which is what makes
    /// [`Reuse::Cache`] sound.
    Stratified(CampaignConfig, &'a AsmProgram),
}

/// Outcomes known before the campaign runs, booked without executing.
#[derive(Debug, Clone, Copy, Default)]
pub enum Reuse<'a> {
    /// Execute every fault.
    #[default]
    None,
    /// The completed shards of a killed [`FaultList::Sampled`]
    /// campaign's journal, which must match the plan and the profile.
    Journal(&'a JournalSnapshot),
    /// Per-function shards of an earlier [`FaultList::Stratified`]
    /// campaign: every function whose content hash and dynamic-site
    /// count are unchanged replays its shard.  A cache drawn with a
    /// different seed or sample budget is ignored wholesale.
    Cache(&'a CampaignCache),
}

/// A fault-injection campaign: one fault list plus how to obtain each
/// fault's outcome.  Build one with [`Campaign::sampled`] (or its
/// siblings) and set the other axes with the chainable setters:
///
/// ```
/// # use ferrum_faultsim::{Campaign, CampaignConfig};
/// let cfg = CampaignConfig { samples: 200, seed: 7 };
/// let plan = Campaign::sampled(cfg).threads(4);
/// assert_eq!(plan.executor(), "parallel");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Campaign<'a> {
    faults: FaultList<'a>,
    threads: usize,
    prune: Option<&'a CoverageMap>,
    reuse: Reuse<'a>,
    observe: Option<&'a FlightRecorder>,
}

/// Why a campaign could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The plan draws faults, but the program executes no instruction
    /// with an injectable destination.
    NoSites,
    /// The plan combines axes that do not compose; the message says
    /// which and why.
    InvalidPlan(&'static str),
    /// The journal to resume from does not belong to this campaign.
    Journal(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::NoSites => f.write_str(
                "no injectable sites: the program executes no instruction with an injectable destination",
            ),
            CampaignError::InvalidPlan(why) => write!(f, "invalid campaign plan: {why}"),
            CampaignError::Journal(why) => write!(f, "cannot resume from journal: {why}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// The drawn fault list plus whatever is known before execution.
#[derive(Default)]
struct Work {
    /// Config stamped into the fingerprint.
    cfg: CampaignConfig,
    /// The recorded fault of each run, in sampling order.
    faults: Vec<FaultSpec>,
    /// The second fault of each run (double-fault plans only).
    partners: Vec<FaultSpec>,
    /// Outcomes booked without executing, per run.
    decided: Vec<Option<(Outcome, Booking)>>,
    /// Stratified plans: `(name, hash, sites, draws, reused)` per
    /// function shard, for the flight recorder.
    shards: Vec<(String, u64, usize, usize, bool)>,
}

impl Work {
    /// Dynamic index at which run `i`'s first fault fires.
    fn first(&self, i: usize) -> u64 {
        let at = self.faults[i].dyn_index;
        self.partners.get(i).map_or(at, |p| p.dyn_index.min(at))
    }
}

/// Most golden checkpoints a plan keeps: each holds the registers, the
/// globals and the stack in use, so this bounds a campaign's memory.
const MAX_CHECKPOINTS: u64 = 64;
/// Fewest dynamic instructions between two golden checkpoints.
const MIN_INTERVAL: u64 = 64;

/// What one worker hands back.
#[derive(Default)]
struct WorkerOut {
    /// `(sampling index, outcome, detection latency)` per booked run.
    outcomes: Vec<(usize, Outcome, Option<u64>)>,
    steps: u64,
    saved: u64,
    hits: usize,
}

impl<'a> Campaign<'a> {
    /// One thread, nothing pruned or reused, over `faults`.
    pub fn new(faults: FaultList<'a>) -> Campaign<'a> {
        Campaign {
            faults,
            threads: 1,
            prune: None,
            reuse: Reuse::None,
            observe: None,
        }
    }

    /// [`Campaign::new`] over [`FaultList::Sampled`].
    pub fn sampled(cfg: CampaignConfig) -> Campaign<'a> {
        Campaign::new(FaultList::Sampled(cfg))
    }

    /// [`Campaign::new`] over [`FaultList::Double`].
    pub fn double(cfg: CampaignConfig) -> Campaign<'a> {
        Campaign::new(FaultList::Double(cfg))
    }

    /// [`Campaign::new`] over [`FaultList::Exhaustive`].
    pub fn exhaustive(bits_per_site: u16) -> Campaign<'a> {
        Campaign::new(FaultList::Exhaustive(bits_per_site))
    }

    /// [`Campaign::new`] over [`FaultList::Stratified`].
    pub fn stratified(cfg: CampaignConfig, program: &'a AsmProgram) -> Campaign<'a> {
        Campaign::new(FaultList::Stratified(cfg, program))
    }

    /// Runs on `n` workers that steal the next fault from a shared
    /// counter (0 counts as 1).
    #[must_use]
    pub fn threads(self, n: usize) -> Campaign<'a> {
        Campaign { threads: n, ..self }
    }

    /// Books every fault the map's sound verdicts decide without
    /// executing it (`None`, the default, executes them).
    #[must_use]
    pub fn prune(self, map: impl Into<Option<&'a CoverageMap>>) -> Campaign<'a> {
        Campaign {
            prune: map.into(),
            ..self
        }
    }

    /// Books the outcomes `reuse` holds without executing them.
    #[must_use]
    pub fn reuse(self, reuse: Reuse<'a>) -> Campaign<'a> {
        Campaign { reuse, ..self }
    }

    /// Streams every run's events into `recorder` (`None`, the
    /// default, runs unobserved and never reads a clock for stage
    /// timing).  Observing changes no outcome, and campaigns with
    /// recorders of their own can run at once.
    #[must_use]
    pub fn observe(self, recorder: impl Into<Option<&'a FlightRecorder>>) -> Campaign<'a> {
        Campaign {
            observe: recorder.into(),
            ..self
        }
    }

    /// The flight-recorder fingerprint's `executor` label, derived
    /// from the axes: `resume` (journal reuse), `incremental` (cache
    /// reuse), else the fault list when it is not sampled (`stratified`,
    /// `double`, `exhaustive`), else `pruned`, `parallel` (more than one
    /// thread), or `serial`, first match wins.  Only sampled plans carry
    /// `serial`, `parallel`, `pruned`, or `resume`, the labels whose
    /// journals resume.
    pub fn executor(&self) -> &'static str {
        match (self.reuse, self.faults) {
            (Reuse::Journal(_), _) => "resume",
            (Reuse::Cache(_), _) => "incremental",
            (_, FaultList::Stratified(..)) => "stratified",
            (_, FaultList::Double(_)) => "double",
            (_, FaultList::Exhaustive(_)) => "exhaustive",
            _ if self.prune.is_some() => "pruned",
            _ if self.threads > 1 => "parallel",
            _ => "serial",
        }
    }

    /// Runs the campaign on `engine` against the golden `profile`.
    /// Records come back in sampling order; outcomes and the latency
    /// distribution do not depend on the engine or on any axis but the
    /// fault list.
    ///
    /// # Errors
    ///
    /// [`CampaignError::InvalidPlan`] for a coverage map on double
    /// faults (a single-fault verdict says nothing about a pair), a
    /// cache on a non-stratified plan, or a journal on a non-sampled
    /// plan; [`CampaignError::NoSites`] when faults must be drawn from
    /// a profile without sites; [`CampaignError::Journal`] when the
    /// journal does not belong to this campaign.
    pub fn run(
        &self,
        engine: Engine<'_>,
        profile: &Profile,
    ) -> Result<CampaignResult, CampaignError> {
        let t0 = Instant::now();
        let work = self.work(profile)?;
        if let Some(r) = self.observe {
            r.on_started(
                self.executor(),
                engine.kind(),
                work.cfg,
                profile,
                work.faults.len(),
            );
            if let Engine::Decoded(d) = engine {
                r.on_stage(0, Stage::Decode, d.decode_nanos());
            }
        }
        let mut result = self.execute(engine, profile, &work);
        let threads = self.threads.clamp(1, work.faults.len().max(1));
        finish_stats(&mut result, t0, threads, engine.kind());
        if let Some(r) = self.observe {
            for (name, hash, sites, draws, reused) in &work.shards {
                r.on_function_shard(name, *hash, *sites, *draws, *reused);
            }
            r.on_finished(&result);
        }
        Ok(result)
    }

    /// Refuses axis combinations that do not compose.
    fn check_axes(&self) -> Result<(), CampaignError> {
        let why = match (self.faults, self.reuse) {
            (FaultList::Double(_), _) if self.prune.is_some() => {
                "a coverage map decides single faults; its verdicts say nothing about a fault pair"
            }
            (FaultList::Stratified(..), Reuse::Cache(_)) | (_, Reuse::None) => return Ok(()),
            (FaultList::Sampled(_), Reuse::Journal(_)) => return Ok(()),
            (_, Reuse::Cache(_)) => {
                "a shard cache replays stratified per-function draws; this plan does not stratify"
            }
            (_, Reuse::Journal(_)) => {
                "a journal replays the sampled fault list; this plan draws its faults differently"
            }
        };
        Err(CampaignError::InvalidPlan(why))
    }

    /// Draws the fault list and books everything known in advance.
    fn work(&self, profile: &Profile) -> Result<Work, CampaignError> {
        self.check_axes()?;
        let drawable = |cfg: CampaignConfig| {
            if cfg.samples > 0 && profile.sites.is_empty() {
                Err(CampaignError::NoSites)
            } else {
                Ok(cfg)
            }
        };
        let mut work = Work::default();
        match self.faults {
            FaultList::Sampled(cfg) => {
                work.cfg = drawable(cfg)?;
                work.faults = sample_faults(profile, cfg);
            }
            FaultList::Double(cfg) => {
                work.cfg = drawable(cfg)?;
                (work.faults, work.partners) = sample_pairs(profile, cfg);
            }
            FaultList::Exhaustive(bits) => {
                work.faults = exhaustive_faults(profile, bits);
                work.cfg = CampaignConfig {
                    samples: work.faults.len(),
                    seed: 0,
                };
            }
            FaultList::Stratified(cfg, program) => {
                work.cfg = drawable(cfg)?;
                let cache = match self.reuse {
                    Reuse::Cache(c) => Some(c),
                    _ => None,
                };
                let (faults, cached, shards) = stratified_faults(program, profile, cfg, cache);
                work.faults = faults;
                work.decided = cached
                    .into_iter()
                    .map(|o| o.map(|o| (o, Booking::Reused)))
                    .collect();
                work.shards = shards;
            }
        }
        work.decided.resize(work.faults.len(), None);
        if let Reuse::Journal(journal) = self.reuse {
            let journaled = journal.outcomes(work.cfg, profile, &work.faults)?;
            for (slot, o) in work.decided.iter_mut().zip(journaled) {
                *slot = o.map(|o| (o, Booking::Reused));
            }
        }
        if let Some(map) = self.prune {
            for (slot, &fault) in work.decided.iter_mut().zip(&work.faults) {
                if slot.is_none() {
                    *slot = static_outcome(map, profile, fault).map(|o| (o, Booking::Pruned));
                }
            }
        }
        Ok(work)
    }

    /// The run loop: workers steal the next fault, book it if its
    /// outcome is already known, and otherwise replay it from the
    /// nearest golden checkpoint.
    fn execute(&self, engine: Engine<'_>, profile: &Profile, work: &Work) -> CampaignResult {
        let n = work.faults.len();
        let golden = &profile.result.output;
        // Consecutive work items then start from the same checkpoint.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| work.first(i));
        let checkpoints = if work.decided.iter().any(Option::is_none) {
            golden_checkpoints(engine, profile, self.observe)
        } else {
            Vec::new()
        };
        let (order, checkpoints) = (&order, &checkpoints);
        let next = AtomicUsize::new(0);
        let worker = |t: usize| {
            let mut out = WorkerOut::default();
            // One machine per worker, restored in place per fault;
            // `entry` is the program start, for faults before the first
            // checkpoint.
            let mut m = engine.machine();
            let entry = m.snapshot();
            loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = order.get(k) else {
                    return out;
                };
                let fault = work.faults[i];
                if let Some((o, booking)) = work.decided[i] {
                    if let Some(r) = self.observe {
                        r.on_injection(t, i, fault, o, 0, booking);
                    }
                    out.outcomes.push((i, o, None));
                    continue;
                }
                let pair = [fault, work.partners.get(i).copied().unwrap_or(fault)];
                let faults = &pair[..1 + usize::from(!work.partners.is_empty())];
                let at = work.first(i);
                // The last checkpoint with dyn_insts <= at.
                let pos = checkpoints.partition_point(|c| c.dyn_insts() <= at);
                let start = match pos.checked_sub(1) {
                    Some(j) => {
                        out.hits += 1;
                        out.saved += checkpoints[j].dyn_insts();
                        &checkpoints[j]
                    }
                    None => &entry,
                };
                let clock = StageClock::start(self.observe);
                m.restore(start);
                clock.stop(t, Stage::SnapshotRestore);
                let clock = StageClock::start(self.observe);
                let run = m.run_converging(faults, checkpoints, &profile.result);
                clock.stop(t, Stage::Replay);
                // The machine's own count, not `run.dyn_insts`: a
                // converged run stitches its golden suffix in without
                // executing it.
                out.steps += m.dyn_insts() - start.dyn_insts();
                let o = classify(run.stop, &run.output, golden);
                // `restore` carries the checkpoint's dynamic instruction
                // count, so `run.dyn_insts` is the whole-run total.
                let lat = (o == Outcome::Detected).then(|| detection_latency(run.dyn_insts, at));
                if let Some(r) = self.observe {
                    r.on_injection(t, i, fault, o, run.dyn_insts, Booking::Executed);
                }
                out.outcomes.push((i, o, lat));
            }
        };

        let threads = self.threads.clamp(1, n.max(1));
        let outs: Vec<WorkerOut> = if threads == 1 {
            vec![worker(0)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| scope.spawn(move || worker(t)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("campaign worker panicked"))
                    .collect()
            })
        };

        // Every index was booked exactly once; stitch back in sampling
        // order.
        let mut booked: Vec<_> = outs
            .iter()
            .flat_map(|w| w.outcomes.iter().copied())
            .collect();
        booked.sort_unstable_by_key(|&(i, ..)| i);
        let mut result = CampaignResult::default();
        let mut latencies = Vec::new();
        for ((_, o, lat), &fault) in booked.into_iter().zip(&work.faults) {
            latencies.extend(lat);
            result.record(fault, o);
        }
        for out in &outs {
            result.stats.steps_executed += out.steps;
            result.stats.steps_saved += out.saved;
            result.stats.snapshot_hits += out.hits;
        }
        for (_, booking) in work.decided.iter().flatten() {
            match booking {
                Booking::Pruned => result.stats.pruned_sites += 1,
                Booking::Reused => result.stats.reused_sites += 1,
                Booking::Executed => {}
            }
        }
        result.stats.snapshots_taken = checkpoints.len();
        result.stats.per_worker = outs
            .iter()
            .map(|w| WorkerStats {
                injections: w.outcomes.len(),
                steps_executed: w.steps,
            })
            .collect();
        result.stats.latency = DetectionLatency::from_samples(latencies);
        result
    }
}

/// The outcome `map`'s verdict proves for `fault`, if any: a `Masked`
/// unit is `Benign` and a `Detected` one `Detected`.  This is the one
/// soundness oracle: a pruned plan books the outcome without
/// executing, and every check of a static map against injection
/// compares an injected outcome with it.
pub fn static_outcome(map: &CoverageMap, profile: &Profile, fault: FaultSpec) -> Option<Outcome> {
    let site = profile.site_at(fault.dyn_index)?;
    match map.verdict_at(site.pc, fault.raw_bit)? {
        StaticVerdict::Masked => Some(Outcome::Benign),
        StaticVerdict::Detected => Some(Outcome::Detected),
        _ => None,
    }
}

/// The golden walk: advances fault-free through the golden run and
/// checkpoints every `interval` instructions, where `interval` is at
/// least `MIN_INTERVAL` and spreads at most `MAX_CHECKPOINTS` over the
/// run.  A checkpoint at boundary k starts any fault with
/// `dyn_index >= k`, and the decoded engine compares faulted runs
/// against the checkpoints after their fault to stop them early.
fn golden_checkpoints(
    engine: Engine<'_>,
    profile: &Profile,
    observe: Option<&FlightRecorder>,
) -> Vec<Snapshot> {
    let horizon = profile.result.dyn_insts;
    let interval = MIN_INTERVAL.max(horizon / MAX_CHECKPOINTS);
    let mut checkpoints = Vec::new();
    let mut m = engine.machine();
    for k in 1..=MAX_CHECKPOINTS {
        let clock = StageClock::start(observe);
        let stopped = m.advance_to(k * interval).is_some();
        clock.stop(0, Stage::GoldenRun);
        if stopped {
            break;
        }
        let clock = StageClock::start(observe);
        checkpoints.push(m.snapshot());
        clock.stop(0, Stage::SnapshotCapture);
    }
    checkpoints
}

#[cfg(test)]
mod tests {
    //! Behaviour of single plans, with records checked against whole
    //! runs.  Identity across the axes — every schedule, prune, reuse,
    //! and engine against the one-thread interpreter plan — is the
    //! generated `tests/campaign_plan.rs`.
    use super::*;
    use crate::campaign::tests::{sum_cpu, sum_module};
    use crate::campaign::CampaignStats;
    use ferrum_cpu::decoded::DecodedCpu;
    use ferrum_cpu::run::Cpu;

    fn cfg(samples: usize, seed: u64) -> CampaignConfig {
        CampaignConfig { samples, seed }
    }

    #[test]
    fn unprotected_program_shows_sdcs() {
        let cpu = sum_cpu();
        let res = Campaign::sampled(cfg(300, 7))
            .run(Engine::Interpreter(&cpu), &cpu.profile())
            .unwrap();
        assert_eq!(res.total(), 300);
        assert!(
            res.sdc > 0,
            "unprotected program must exhibit SDCs: {res:?}"
        );
        assert_eq!(
            res.detected, 0,
            "nothing can detect in an unprotected program"
        );
        assert!((res.sdc_prob() - res.sdc as f64 / 300.0).abs() < 1e-12);
    }

    /// The FERRUM-protected kernel and its coverage map.
    fn protected() -> (Cpu, Profile, CoverageMap) {
        let asm = ferrum_eddi::ferrum::Ferrum::new()
            .protect_module(&sum_module())
            .unwrap();
        let cpu = Cpu::load(&asm).unwrap();
        let profile = cpu.profile();
        (cpu, profile, CoverageMap::analyze(&asm))
    }

    #[test]
    fn pruning_skips_statically_decided_faults() {
        let (cpu, profile, coverage) = protected();
        let plan = Campaign::sampled(cfg(300, 11));
        let serial = plan.run(Engine::Interpreter(&cpu), &profile).unwrap();
        let pruned = plan
            .prune(&coverage)
            .run(Engine::Interpreter(&cpu), &profile)
            .unwrap();
        assert_eq!(serial, pruned, "pruned plan must be outcome-identical");
        let s = &pruned.stats;
        assert!(s.pruned_sites > 0, "FERRUM has decided sites");
        assert!((s.prune_rate() - s.pruned_sites as f64 / 300.0).abs() < 1e-12);
        assert!(s.steps_executed < serial.stats.steps_executed);
    }

    #[test]
    fn an_empty_coverage_map_prunes_nothing() {
        let (cpu, profile, _) = protected();
        let plan = Campaign::sampled(cfg(300, 11));
        let serial = plan.run(Engine::Interpreter(&cpu), &profile).unwrap();
        let none = plan
            .prune(&CoverageMap::default())
            .run(Engine::Interpreter(&cpu), &profile)
            .unwrap();
        assert_eq!((none.stats.pruned_sites, none.stats.prune_rate()), (0, 0.0));
        assert_eq!(none.stats.steps_executed, serial.stats.steps_executed);
        assert_eq!(none.stats.latency, serial.stats.latency);
    }

    /// A test-scale catalog kernel, long enough to be checkpointed.
    fn kernel(name: &str, step_limit: u64) -> Cpu {
        let module = ferrum_workloads::workload(name)
            .expect("in catalog")
            .build(ferrum_workloads::Scale::Test);
        let asm = ferrum_backend::compile(&module).unwrap();
        Cpu::load(&asm).unwrap().with_step_limit(step_limit)
    }

    /// Re-runs every record of `result` whole on the interpreter and
    /// checks its outcome, and the latency of every detection.
    fn assert_whole_runs_agree(cpu: &Cpu, profile: &Profile, result: &CampaignResult, what: &str) {
        let golden = &profile.result.output;
        let mut latencies = Vec::new();
        for (k, &(fault, outcome)) in result.records.iter().enumerate() {
            let whole = cpu.run(Some(fault));
            assert_eq!(
                classify(whole.stop, &whole.output, golden),
                outcome,
                "{what}: record {k}"
            );
            if outcome == Outcome::Detected {
                latencies.push(detection_latency(whole.dyn_insts, fault.dyn_index));
            }
        }
        assert_eq!(
            result.stats.latency,
            DetectionLatency::from_samples(latencies),
            "{what}"
        );
    }

    #[test]
    fn golden_checkpoints_are_few_evenly_spaced_and_engine_independent() {
        let cpu = kernel("pathfinder", 50_000_000);
        let profile = cpu.profile();
        let decoded = DecodedCpu::new(&cpu);
        let golden = profile.result.dyn_insts;
        let at = |engine| -> Vec<u64> {
            golden_checkpoints(engine, &profile, None)
                .iter()
                .map(Snapshot::dyn_insts)
                .collect()
        };
        let interp = at(Engine::Interpreter(&cpu));
        assert_eq!(interp, at(Engine::Decoded(&decoded)));
        let interval = MIN_INTERVAL.max(golden / MAX_CHECKPOINTS);
        assert!(
            !interp.is_empty() && interp.len() as u64 <= MAX_CHECKPOINTS,
            "{interp:?}"
        );
        for (k, &d) in interp.iter().enumerate() {
            assert_eq!(d, (k as u64 + 1) * interval);
            assert!(d < golden);
        }
        // A run shorter than the interval keeps none.
        let sum = sum_cpu();
        assert!(sum.profile().result.dyn_insts < MIN_INTERVAL);
        assert!(golden_checkpoints(Engine::Interpreter(&sum), &sum.profile(), None).is_empty());
    }

    #[test]
    fn plans_report_checkpoint_savings_and_worker_load() {
        let cpu = kernel("knn", 50_000_000);
        let profile = cpu.profile();
        let one = Campaign::sampled(cfg(200, 9))
            .run(Engine::Interpreter(&cpu), &profile)
            .unwrap();
        assert_eq!(one.stats.per_worker.len(), 1);
        assert!((one.stats.worker_balance() - 1.0).abs() < 1e-12);
        let four = Campaign::sampled(cfg(200, 9))
            .threads(4)
            .run(Engine::Interpreter(&cpu), &profile)
            .unwrap();
        assert_eq!(one, four);
        let s = &four.stats;
        assert!(s.snapshots_taken > 0 && s.snapshot_hits > 0, "{s:?}");
        assert!(s.steps_saved > 0 && s.steps_saved_ratio() > 0.0, "{s:?}");
        // Where each fault starts, and what it executes, does not depend
        // on the worker that runs it.
        let counts = |s: &CampaignStats| {
            (
                s.snapshots_taken,
                s.snapshot_hits,
                s.steps_saved,
                s.steps_executed,
            )
        };
        assert_eq!(counts(&one.stats), counts(s));
        assert!((1..=4).contains(&s.per_worker.len()) && s.threads <= 4);
        assert!(s.wall_nanos > 0 && s.injections_per_sec > 0.0);
        assert_whole_runs_agree(&cpu, &profile, &four, "knn");
    }

    #[test]
    fn timeout_budget_is_engine_independent() {
        // Step-budget audit (resume accounting): a checkpoint carries its
        // dyn_insts, so a replayed faulted run gets only the *remaining*
        // budget.  A limit that cuts the golden run itself short makes
        // any double-counting of the prefix allowance visible: every
        // record must classify as the whole run does, on both engines.
        let cpu = kernel("pathfinder", 1_000);
        let profile = cpu.profile();
        assert_eq!(
            profile.result.stop,
            ferrum_cpu::outcome::StopReason::Timeout
        );
        let decoded = DecodedCpu::new(&cpu);
        let plan = Campaign::sampled(cfg(150, 8)).threads(2);
        let interp = plan.run(Engine::Interpreter(&cpu), &profile).unwrap();
        assert!(interp.stats.snapshot_hits > 0, "{:?}", interp.stats);
        assert!(interp.timeout > 0, "{interp:?}");
        assert_whole_runs_agree(&cpu, &profile, &interp, "interpreter");
        assert_eq!(
            plan.run(Engine::Decoded(&decoded), &profile).unwrap(),
            interp
        );
    }

    #[test]
    fn double_fault_records_match_whole_runs_of_their_pairs() {
        let cpu = kernel("bfs", 50_000_000);
        let profile = cpu.profile();
        let decoded = DecodedCpu::new(&cpu);
        let c = cfg(120, 21);
        let (firsts, seconds) = sample_pairs(&profile, c);
        let golden = &profile.result.output;
        let mut latencies = Vec::new();
        let whole: Vec<(FaultSpec, Outcome)> = firsts
            .iter()
            .zip(&seconds)
            .map(|(&a, &b)| {
                let run = cpu.run_multi(&[a, b]);
                let o = classify(run.stop, &run.output, golden);
                if o == Outcome::Detected {
                    let at = a.dyn_index.min(b.dyn_index);
                    latencies.push(detection_latency(run.dyn_insts, at));
                }
                (a, o)
            })
            .collect();
        let latency = DetectionLatency::from_samples(latencies);
        for engine in [Engine::Interpreter(&cpu), Engine::Decoded(&decoded)] {
            for threads in [1, 3] {
                let r = Campaign::double(c)
                    .threads(threads)
                    .run(engine, &profile)
                    .unwrap();
                let what = format!("{} ×{threads}", engine.kind().label());
                assert!(r.stats.snapshot_hits > 0, "{what}");
                assert_eq!(r.records, whole, "{what}");
                assert_eq!(r.stats.latency, latency, "{what}");
            }
        }
    }

    #[test]
    fn a_killed_journal_labelled_snapshot_still_resumes() {
        use crate::flight::{CampaignEvent, MemorySink};
        use std::sync::Arc;
        // A `snapshot` journal label names a sampled plan whose faults
        // replayed from golden-prefix snapshots: the same fault list.
        let cpu = kernel("knn", 50_000_000);
        let profile = cpu.profile();
        let plan = Campaign::sampled(cfg(64, 5));
        let sink = Arc::new(MemorySink::new());
        let recorder = FlightRecorder::new(sink.clone());
        let full = plan
            .observe(&recorder)
            .run(Engine::Interpreter(&cpu), &profile)
            .unwrap();
        let events = sink.events();
        let cut = events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.event, CampaignEvent::ShardCompleted(_)))
            .nth(1)
            .map(|(i, _)| i + 1)
            .expect("two shards");
        let mut journal = JournalSnapshot::from_events(&events[..cut]).expect("journal");
        assert!(!journal.finished && journal.completed() > 0);
        journal.fingerprint.executor = "snapshot".to_owned();
        let resumed = plan
            .reuse(Reuse::Journal(&journal))
            .run(Engine::Interpreter(&cpu), &profile)
            .unwrap();
        assert_eq!(resumed, full);
        assert_eq!(resumed.stats.latency, full.stats.latency);
        assert_eq!(resumed.stats.reused_sites, journal.completed());
    }

    #[test]
    fn plans_that_must_draw_from_no_sites_are_refused() {
        // `nop` / `ret`: runs, but executes no instruction with an
        // injectable destination.
        let asm = ferrum_asm::parser::parse_program(".globl main\nmain:\n    nop\n    ret\n")
            .expect("parses");
        let cpu = Cpu::load(&asm).expect("loads");
        let profile = cpu.profile();
        assert!(profile.sites.is_empty());
        for plan in [
            Campaign::sampled(cfg(10, 7)),
            Campaign::double(cfg(10, 7)),
            Campaign::stratified(cfg(10, 7), &asm),
            Campaign::sampled(cfg(10, 7)).threads(3),
        ] {
            let err = plan
                .run(Engine::Interpreter(&cpu), &profile)
                .expect_err("no sites accepted");
            assert_eq!(err, CampaignError::NoSites, "{}", plan.executor());
            assert!(err.to_string().contains("no injectable sites"), "{err}");
        }
        // Nothing to draw: an empty result, not an error.
        assert_eq!(
            Campaign::sampled(cfg(0, 7))
                .run(Engine::Interpreter(&cpu), &profile)
                .unwrap()
                .total(),
            0
        );
        assert_eq!(
            Campaign::exhaustive(8)
                .run(Engine::Interpreter(&cpu), &profile)
                .unwrap()
                .total(),
            0
        );
    }

    #[test]
    fn axes_that_do_not_compose_are_refused() {
        let cpu = sum_cpu();
        let profile = cpu.profile();
        let asm = ferrum_backend::compile(&sum_module()).unwrap();
        let (map, cache) = (CoverageMap::default(), CampaignCache::default());
        let journal = JournalSnapshot::default();
        let (pair, cached, journaled) = ("fault pair", "does not stratify", "sampled fault list");
        for (plan, why) in [
            (Campaign::double(cfg(20, 3)).prune(&map), pair),
            (
                Campaign::sampled(cfg(20, 3)).reuse(Reuse::Cache(&cache)),
                cached,
            ),
            (Campaign::exhaustive(2).reuse(Reuse::Cache(&cache)), cached),
            (
                Campaign::stratified(cfg(20, 3), &asm).reuse(Reuse::Journal(&journal)),
                journaled,
            ),
            (
                Campaign::double(cfg(20, 3)).reuse(Reuse::Journal(&journal)),
                journaled,
            ),
        ] {
            match plan.run(Engine::Interpreter(&cpu), &profile) {
                Err(CampaignError::InvalidPlan(msg)) => assert!(msg.contains(why), "{msg}"),
                other => panic!(
                    "{}: expected an invalid plan, got {other:?}",
                    plan.executor()
                ),
            }
        }
    }

    #[test]
    fn executor_labels_follow_the_axes() {
        let asm = ferrum_backend::compile(&sum_module()).unwrap();
        let (map, cache) = (CoverageMap::default(), CampaignCache::default());
        let journal = JournalSnapshot::default();
        let sampled = Campaign::sampled(cfg(1, 1));
        for (plan, label) in [
            (sampled, "serial"),
            (sampled.threads(3), "parallel"),
            (sampled.threads(3).prune(&map), "pruned"),
            (sampled.reuse(Reuse::Journal(&journal)), "resume"),
            (Campaign::double(cfg(1, 1)), "double"),
            (Campaign::exhaustive(4).threads(2), "exhaustive"),
            (Campaign::stratified(cfg(1, 1), &asm), "stratified"),
            (
                Campaign::stratified(cfg(1, 1), &asm).reuse(Reuse::Cache(&cache)),
                "incremental",
            ),
        ] {
            assert_eq!(plan.executor(), label);
        }
    }
}
