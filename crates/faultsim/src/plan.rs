//! The campaign plan: one run loop behind every fault-injection
//! campaign.
//!
//! Every campaign draws faults, runs each one, and classifies it
//! against the golden output, so a [`Campaign`] names the variations as
//! independent axes: the [`FaultList`], worker threads, an optional
//! [`SnapshotPolicy`] (replay from golden-prefix snapshots instead of
//! cold starts), an optional [`CoverageMap`] to prune with, outcomes to
//! [`Reuse`], and the [`Engine`] [`Campaign::run`] takes.  For one
//! fault list every combination of the other axes returns the same
//! records and detection-latency distribution
//! (`tests/campaign_plan.rs`); only [`CampaignResult::stats`] differs.
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
    CampaignConfig, CampaignResult, DetectionLatency, Outcome, SnapshotPolicy, WorkerStats,
};
use crate::compose::{stratified_faults, CampaignCache};
use crate::engine::{Engine, EngineKind};
use crate::flight::{self, Booking, JournalSnapshot, Stage, StageClock};

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
/// # use ferrum_faultsim::{Campaign, CampaignConfig, SnapshotPolicy};
/// let cfg = CampaignConfig { samples: 200, seed: 7 };
/// let plan = Campaign::sampled(cfg).threads(4).snapshots(SnapshotPolicy::default());
/// assert_eq!(plan.executor(), "snapshot");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Campaign<'a> {
    faults: FaultList<'a>,
    threads: usize,
    snapshots: Option<SnapshotPolicy>,
    prune: Option<&'a CoverageMap>,
    reuse: Reuse<'a>,
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
    /// One thread, cold starts, nothing pruned or reused, over `faults`.
    pub fn new(faults: FaultList<'a>) -> Campaign<'a> {
        Campaign {
            faults,
            threads: 1,
            snapshots: None,
            prune: None,
            reuse: Reuse::None,
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

    /// `Some(policy)`: walks the golden prefix once and replays every
    /// fault from the nearest snapshot the policy placed at or before
    /// it.  `None` (the default): every fault runs cold from the entry
    /// state.
    #[must_use]
    pub fn snapshots(self, policy: impl Into<Option<SnapshotPolicy>>) -> Campaign<'a> {
        Campaign {
            snapshots: policy.into(),
            ..self
        }
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

    /// The flight-recorder fingerprint's `executor` label, derived
    /// from the axes: `resume` (journal reuse), `incremental` (cache
    /// reuse), else the fault list when it is not sampled (`stratified`,
    /// `double`, `exhaustive`), else `pruned`, `snapshot`, `parallel`
    /// (more than one thread), or `serial`, first match wins.  Only
    /// sampled plans carry `serial`, `parallel`, `snapshot`, `pruned`,
    /// or `resume`, the labels whose journals resume.
    pub fn executor(&self) -> &'static str {
        match (self.reuse, self.faults) {
            (Reuse::Journal(_), _) => "resume",
            (Reuse::Cache(_), _) => "incremental",
            (_, FaultList::Stratified(..)) => "stratified",
            (_, FaultList::Double(_)) => "double",
            (_, FaultList::Exhaustive(_)) => "exhaustive",
            _ if self.prune.is_some() => "pruned",
            _ if self.snapshots.is_some() => "snapshot",
            _ if self.threads > 1 => "parallel",
            _ => "serial",
        }
    }

    /// Runs the campaign on `engine` (a [`Engine`], or a `&Cpu` /
    /// `&DecodedCpu` to bind one) against the golden `profile`.
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
    pub fn run<'e>(
        &self,
        engine: impl Into<Engine<'e>>,
        profile: &Profile,
    ) -> Result<CampaignResult, CampaignError> {
        let engine = engine.into();
        let _span = ferrum_trace::span("campaign.run");
        let t0 = Instant::now();
        let work = self.work(profile)?;
        flight::campaign_started(
            self.executor(),
            engine.kind(),
            work.cfg,
            profile,
            work.faults.len(),
        );
        let mut result = self.execute(engine, profile, &work);
        for (name, hash, sites, draws, reused) in &work.shards {
            flight::function_shard(name, *hash, *sites, *draws, *reused);
        }
        let threads = self.threads.clamp(1, work.faults.len().max(1));
        finish_stats(&mut result, t0, threads, engine.kind());
        ferrum_trace::counter("campaign.injections", result.total() as u64);
        ferrum_trace::counter("campaign.pruned", result.stats.pruned_sites as u64);
        ferrum_trace::counter("campaign.reused", result.stats.reused_sites as u64);
        ferrum_trace::counter("campaign.snapshot.hits", result.stats.snapshot_hits as u64);
        ferrum_trace::counter("campaign.snapshot.steps_saved", result.stats.steps_saved);
        flight::campaign_finished(&result);
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
    /// outcome is already known, and otherwise execute it cold or from
    /// the nearest golden-prefix snapshot.
    fn execute(&self, engine: Engine<'_>, profile: &Profile, work: &Work) -> CampaignResult {
        let n = work.faults.len();
        let golden = &profile.result.output;
        let mut order: Vec<usize> = (0..n).collect();
        let mut snapshots = Vec::new();
        if let Some(policy) = self.snapshots {
            // Consecutive work items then share snapshots, and the
            // prefix walk runs once, up to the last executed injection.
            order.sort_by_key(|&i| work.first(i));
            if let Some(&last) = order.iter().rev().find(|&&i| work.decided[i].is_none()) {
                snapshots = golden_snapshots(engine, profile, work.first(last), policy);
            }
        }
        let (order, snapshots) = (&order, &snapshots);
        let next = AtomicUsize::new(0);
        let worker = |t: usize| {
            let mut out = WorkerOut::default();
            // Snapshot plans reuse one machine per worker, restored in
            // place per fault — the decoded engine's restore is bounded
            // by the stack low-water mark, so reuse turns per-injection
            // state setup from a 512 KiB clone into a few touched
            // kilobytes.  `entry` is the program start, for faults
            // before the first snapshot.
            let mut machine = self.snapshots.map(|_| {
                let m = engine.machine();
                let entry = m.snapshot();
                (m, entry)
            });
            loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = order.get(k) else {
                    return out;
                };
                let fault = work.faults[i];
                if let Some((o, booking)) = work.decided[i] {
                    flight::injection(t, i, fault, o, 0, booking);
                    out.outcomes.push((i, o, None));
                    continue;
                }
                let pair = [fault, work.partners.get(i).copied().unwrap_or(fault)];
                let faults = &pair[..1 + usize::from(!work.partners.is_empty())];
                let at = work.first(i);
                let run = match &mut machine {
                    None => {
                        let clock = StageClock::start();
                        let run = engine.run_multi(faults);
                        clock.stop(t, Stage::Injection);
                        out.steps += run.dyn_insts;
                        run
                    }
                    Some((m, entry)) => {
                        // Nearest snapshot at-or-before the injection
                        // index: the last one with dyn_insts <= at.
                        let pos = match snapshots.binary_search_by_key(&(at + 1), |s| s.dyn_insts())
                        {
                            Ok(j) | Err(j) => j,
                        };
                        let start = match pos.checked_sub(1).map(|j| &snapshots[j]) {
                            Some(s) => {
                                out.hits += 1;
                                out.saved += s.dyn_insts();
                                s
                            }
                            None => &*entry,
                        };
                        let clock = StageClock::start();
                        m.restore(start);
                        clock.stop(t, Stage::SnapshotRestore);
                        let clock = StageClock::start();
                        let run = m.run_converging(faults, snapshots, &profile.result);
                        clock.stop(t, Stage::Replay);
                        out.steps += run.dyn_insts - start.dyn_insts();
                        run
                    }
                };
                let o = classify(run.stop, &run.output, golden);
                // `Machine::restore` preserves the golden-prefix
                // dynamic instruction count, so `run.dyn_insts` is the
                // whole-run total on every path and the latency
                // distribution does not depend on the axes.
                let lat = (o == Outcome::Detected).then(|| detection_latency(run.dyn_insts, at));
                flight::injection(t, i, fault, o, run.dyn_insts, Booking::Executed);
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
        result.stats.snapshots_taken = snapshots.len();
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

/// The outcome a static verdict proves for `fault`, if any.  Sites are
/// recorded in dynamic order, so `dyn_index` is sorted.
fn static_outcome(map: &CoverageMap, profile: &Profile, fault: FaultSpec) -> Option<Outcome> {
    let i = profile
        .sites
        .binary_search_by_key(&fault.dyn_index, |s| s.dyn_index)
        .ok()?;
    match map.verdict_at(profile.sites[i].pc, fault.raw_bit)? {
        StaticVerdict::Masked => Some(Outcome::Benign),
        StaticVerdict::Detected => Some(Outcome::Detected),
        _ => None,
    }
}

/// Golden-prefix pass: walks fault-free, snapshotting at the policy's
/// cadence.  The machine state at boundary k is usable by any fault
/// with dyn_index >= k.  The interpreter walks only to the last
/// injection point (snapshots are pure prefix-skips); the decoded
/// engine walks the whole golden run, because its snapshots double as
/// the convergence checkpoints `run_converging` compares against — a
/// checkpoint after a fault is what lets the post-fault suffix be
/// stitched instead of re-executed.
fn golden_snapshots(
    engine: Engine<'_>,
    profile: &Profile,
    last_injection: u64,
    policy: SnapshotPolicy,
) -> Vec<Snapshot> {
    let horizon = match engine.kind() {
        EngineKind::Interpreter => last_injection,
        EngineKind::Decoded => profile.result.dyn_insts,
    };
    let interval = policy
        .min_interval
        .max(horizon / policy.max_snapshots.max(1) as u64)
        .max(1);
    let mut snapshots: Vec<Snapshot> = Vec::new();
    let mut m = engine.machine();
    while m.dyn_insts() < horizon {
        if m.dyn_insts() > 0
            && m.dyn_insts().is_multiple_of(interval)
            && snapshots.len() < policy.max_snapshots
        {
            let clock = StageClock::start();
            snapshots.push(m.snapshot());
            clock.stop(0, Stage::SnapshotCapture);
        }
        // Advance to the next snapshot boundary (or the horizon) in one
        // call — the decoded engine covers the span in its tight
        // dispatch loop instead of per-step calls.
        let next = if snapshots.len() < policy.max_snapshots {
            (m.dyn_insts() / interval + 1) * interval
        } else {
            horizon
        };
        let clock = StageClock::start();
        let stopped = m.advance_to(next.min(horizon)).is_some();
        clock.stop(0, Stage::GoldenRun);
        if stopped {
            // Golden run ended before the last injection index — the
            // remaining faults land past program end and classify as
            // whatever the resumed (fault-free) tail produces.
            break;
        }
    }
    snapshots
}

#[cfg(test)]
mod tests {
    //! Behaviour of single plans.  Identity across the axes — every
    //! schedule, snapshot policy, prune, reuse, and engine against the
    //! one-thread cold plan — is the generated `tests/campaign_plan.rs`.
    use super::*;
    use crate::campaign::tests::{sum_cpu, sum_module};
    use ferrum_cpu::decoded::DecodedCpu;
    use ferrum_cpu::run::Cpu;

    fn cfg(samples: usize, seed: u64) -> CampaignConfig {
        CampaignConfig { samples, seed }
    }

    #[test]
    fn unprotected_program_shows_sdcs() {
        let cpu = sum_cpu();
        let res = Campaign::sampled(cfg(300, 7))
            .run(&cpu, &cpu.profile())
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
        let serial = plan.run(&cpu, &profile).unwrap();
        let pruned = plan.prune(&coverage).run(&cpu, &profile).unwrap();
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
        let serial = plan.run(&cpu, &profile).unwrap();
        let none = plan
            .prune(&CoverageMap::default())
            .run(&cpu, &profile)
            .unwrap();
        assert_eq!((none.stats.pruned_sites, none.stats.prune_rate()), (0, 0.0));
        assert_eq!(none.stats.steps_executed, serial.stats.steps_executed);
        assert_eq!(none.stats.latency, serial.stats.latency);
    }

    #[test]
    fn snapshot_plans_report_savings_and_worker_load() {
        let cpu = sum_cpu();
        let profile = cpu.profile();
        let serial = Campaign::sampled(cfg(200, 9)).run(&cpu, &profile).unwrap();
        assert_eq!(serial.stats.per_worker.len(), 1);
        assert!((serial.stats.worker_balance() - 1.0).abs() < 1e-12);
        let snap = Campaign::sampled(cfg(200, 9))
            .threads(4)
            .snapshots(SnapshotPolicy {
                max_snapshots: 1000,
                min_interval: 1,
            })
            .run(&cpu, &profile)
            .unwrap();
        let s = &snap.stats;
        assert!(s.snapshots_taken > 0 && s.snapshot_hits > 0, "{s:?}");
        assert!(s.steps_saved > 0 && s.steps_saved_ratio() > 0.0, "{s:?}");
        // The cold plan re-executes everything.
        assert!(serial.stats.steps_executed > s.steps_executed);
        assert!((1..=4).contains(&s.per_worker.len()) && s.threads <= 4);
        assert!(s.wall_nanos > 0 && s.injections_per_sec > 0.0);
    }

    #[test]
    fn timeout_budget_is_engine_independent() {
        // Step-budget audit (resume accounting): a snapshot carries its
        // dyn_insts, so a resumed faulted run gets only the *remaining*
        // budget — snapshot plans on either engine must classify
        // exactly the same faults as Timeout as the cold plan, which
        // never resumes.  A tight limit makes any double-counting of
        // the prefix allowance visible immediately.
        let cpu = sum_cpu().with_step_limit(12);
        let profile = cpu.profile();
        assert!(
            !profile.sites.is_empty(),
            "tight-limit profile still has sites"
        );
        let serial = Campaign::sampled(cfg(150, 8)).run(&cpu, &profile).unwrap();
        let snap = Campaign::sampled(cfg(150, 8))
            .threads(2)
            .snapshots(SnapshotPolicy {
                max_snapshots: 64,
                min_interval: 1,
            });
        assert_eq!(snap.run(&cpu, &profile).unwrap(), serial);
        assert_eq!(snap.run(&DecodedCpu::new(&cpu), &profile).unwrap(), serial);
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
            Campaign::sampled(cfg(10, 7))
                .threads(3)
                .snapshots(SnapshotPolicy::default()),
        ] {
            let err = plan.run(&cpu, &profile).expect_err("no sites accepted");
            assert_eq!(err, CampaignError::NoSites, "{}", plan.executor());
            assert!(err.to_string().contains("no injectable sites"), "{err}");
        }
        // Nothing to draw: an empty result, not an error.
        assert_eq!(
            Campaign::sampled(cfg(0, 7))
                .run(&cpu, &profile)
                .unwrap()
                .total(),
            0
        );
        assert_eq!(
            Campaign::exhaustive(8).run(&cpu, &profile).unwrap().total(),
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
            match plan.run(&cpu, &profile) {
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
        let (sampled, snapshots) = (
            Campaign::sampled(cfg(1, 1)),
            Some(SnapshotPolicy::default()),
        );
        for (plan, label) in [
            (sampled, "serial"),
            (sampled.threads(3), "parallel"),
            (sampled.snapshots(snapshots), "snapshot"),
            (sampled.snapshots(snapshots).prune(&map), "pruned"),
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
