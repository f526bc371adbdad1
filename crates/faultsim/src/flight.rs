//! Campaign flight recorder: live streaming telemetry, progress
//! snapshots, and a resume-grade event journal.
//!
//! A running fault-injection campaign used to be a black box between
//! process start and the final [`CampaignResult`].  This module makes
//! every campaign plan *observable while it runs* and *resumable after
//! a kill*, in three layers:
//!
//! 1. **Event stream** — the plan's run loop emits structured
//!    [`CampaignEvent`]s
//!    through a process-global [`FlightRecorder`] (installed like a
//!    `ferrum-trace` sink: [`install`] / [`uninstall`], one relaxed
//!    atomic load when dormant).  The stream carries the campaign's
//!    full config fingerprint ([`CampaignFingerprint`]), shard
//!    scheduling and completion, per-worker heartbeats, and periodic
//!    [`ProgressSnapshot`]s with rolling-window injections/sec,
//!    running outcome tallies with Wilson confidence intervals
//!    ([`crate::stats::wilson_interval`]), prune/reuse rates, and an
//!    ETA.
//! 2. **Write-ahead journal** — the recorder partitions the sampled
//!    fault list into fixed index ranges and emits a
//!    [`ShardRecord`] the moment every fault in a range has been
//!    classified, carrying the seed, the site partition, the outcome
//!    tallies, and the per-fault records.  A journal truncated by a
//!    mid-campaign kill still ends on a complete shard boundary, which
//!    is exactly what a resume needs.
//! 3. **Resume** — a sampled plan with [`Reuse::Journal`] re-derives
//!    the deterministic fault list from the seed, books the journaled
//!    shards without executing them (validating that every recorded
//!    fault matches the re-sampled one), executes only the remainder,
//!    and reassembles the records in sampling order.  The result is
//!    byte-identical (counts and records) to an uninterrupted run of
//!    the same seed; the replayed fraction is reported through
//!    [`CampaignStats::reused_sites`].
//!
//! Like tracing, flight recording is **observational by contract**:
//! the recorder never feeds information back into a campaign, never
//! panics out of a probe, and installing or removing one cannot change
//! campaign outcomes (`tests/flight_recorder.rs` asserts this).  The
//! recorder tracks one campaign at a time — a new
//! campaign-started probe rebinds it.
//!
//! Serialization of the event stream as NDJSON lives in
//! `ferrum::flight` (the `ferrum::json` layer, see
//! docs/events-schema.md); the live TTY table lives in
//! `ferrum::report`; both are fronted by the `ferrum-campaign` CLI.
//!
//! [`CampaignStats::reused_sites`]: crate::campaign::CampaignStats::reused_sites
//! [`Reuse::Journal`]: crate::plan::Reuse::Journal

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use ferrum_cpu::fault::FaultSpec;
use ferrum_cpu::run::Profile;

use crate::campaign::{CampaignConfig, CampaignResult, Outcome};
use crate::engine::EngineKind;
use crate::plan::CampaignError;
use crate::stats::wilson_interval;

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// Full config fingerprint of a campaign, carried by
/// [`CampaignEvent::Started`] and validated on resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignFingerprint {
    /// Workload label (empty when the caller did not set one).
    pub workload: String,
    /// Technique label (empty when the caller did not set one).
    pub technique: String,
    /// The plan that produced the stream, as
    /// [`Campaign::executor`](crate::plan::Campaign::executor) labels
    /// it: `"serial"`, `"parallel"`, `"snapshot"`, `"pruned"`,
    /// `"double"`, `"exhaustive"`, `"stratified"`, `"incremental"`, or
    /// `"resume"` (older journals may also carry `"forensic"`).
    pub executor: String,
    /// Execution engine.
    pub engine: EngineKind,
    /// Sample budget of the campaign config.
    pub samples: usize,
    /// Campaign RNG seed.
    pub seed: u64,
    /// Injectable dynamic sites in the profile.
    pub sites: usize,
    /// Dynamic instructions of the golden run (profile identity).
    pub golden_dyn_insts: u64,
    /// Program content hash (fold of the PR 7 per-function
    /// [`ferrum_asm::analysis::summary::function_hash`]); 0 when the
    /// caller did not provide one.
    pub program_hash: u64,
}

/// Running outcome counts, the streaming mirror of the five
/// [`CampaignResult`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeTallies {
    /// Silent data corruptions.
    pub sdc: usize,
    /// Detections.
    pub detected: usize,
    /// Crashes.
    pub crash: usize,
    /// Timeouts.
    pub timeout: usize,
    /// Benign completions.
    pub benign: usize,
}

impl OutcomeTallies {
    /// Books one outcome.
    pub fn add(&mut self, o: Outcome) {
        match o {
            Outcome::Sdc => self.sdc += 1,
            Outcome::Detected => self.detected += 1,
            Outcome::Crash => self.crash += 1,
            Outcome::Timeout => self.timeout += 1,
            Outcome::Benign => self.benign += 1,
        }
    }

    /// Merges another tally in.
    pub fn merge(&mut self, other: &OutcomeTallies) {
        self.sdc += other.sdc;
        self.detected += other.detected;
        self.crash += other.crash;
        self.timeout += other.timeout;
        self.benign += other.benign;
    }

    /// Total outcomes booked.
    pub fn total(&self) -> usize {
        self.sdc + self.detected + self.crash + self.timeout + self.benign
    }

    /// The tallies of a finished campaign result.
    pub fn from_result(r: &CampaignResult) -> OutcomeTallies {
        OutcomeTallies {
            sdc: r.sdc,
            detected: r.detected,
            crash: r.crash,
            timeout: r.timeout,
            benign: r.benign,
        }
    }

    /// True when the tallies equal the result's outcome counters.
    pub fn matches(&self, r: &CampaignResult) -> bool {
        *self == OutcomeTallies::from_result(r)
    }
}

/// A periodic progress snapshot of the running campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSnapshot {
    /// Faults classified so far.
    pub done: usize,
    /// Total faults the campaign will classify.
    pub total: usize,
    /// Running outcome counts (sum to `done`).
    pub tallies: OutcomeTallies,
    /// 95% Wilson interval on the running SDC probability.
    pub sdc_ci: (f64, f64),
    /// Rolling-window injections/sec over the whole campaign (0.0
    /// while the window holds fewer than two completions).
    pub rate: f64,
    /// Rolling-window injections/sec per worker, indexed by worker.
    pub worker_rates: Vec<f64>,
    /// Estimated nanoseconds to completion; `None` while the rolling
    /// rate is zero.
    pub eta_nanos: Option<u64>,
    /// Faults booked from a static coverage verdict so far.
    pub pruned: usize,
    /// Faults replayed from a cache or journal so far.
    pub reused: usize,
    /// Nanoseconds since the campaign started.
    pub elapsed_nanos: u64,
}

/// One completed journal shard: a contiguous index range of the
/// sampled fault list with every outcome classified.  Carries enough
/// state — seed, site partition (the index range), tallies, records,
/// and the program content hash — for a resume to skip it wholesale.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRecord {
    /// Shard index (ranges are `shard * shard_size ..`).
    pub shard: usize,
    /// First sampling index covered.
    pub start: usize,
    /// Number of faults covered.
    pub len: usize,
    /// Campaign seed (journal self-validation).
    pub seed: u64,
    /// Program content hash from the fingerprint (0 when unset).
    pub program_hash: u64,
    /// Outcome counts over the shard (sum to `len`).
    pub tallies: OutcomeTallies,
    /// The shard's records, in sampling order.
    pub records: Vec<(FaultSpec, Outcome)>,
}

/// One harness execution stage, as timed by the campaign run loop.
///
/// Stage probes are gated on an installed recorder: an un-instrumented
/// campaign never reads the clock for them.  Decode runs during engine
/// binding — *before* the run loop emits its started event — so the
/// recorder credits pre-start stage observations to the next campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Decoding the loaded image into the flattened engine's arrays
    /// (engine binding, before the campaign's started event).
    Decode,
    /// The fault-free golden walk (profile or snapshot-prefix pass).
    GoldenRun,
    /// Capturing architectural snapshots on the golden walk.
    SnapshotCapture,
    /// Restoring a worker's machine from a snapshot.
    SnapshotRestore,
    /// Faulted executions run whole from the entry state.
    Injection,
    /// Faulted replays resumed from a snapshot (including the
    /// convergence stitch where the engine has one).
    Replay,
}

impl Stage {
    /// All stages, in reporting order.
    pub const ALL: [Stage; 6] = [
        Stage::Decode,
        Stage::GoldenRun,
        Stage::SnapshotCapture,
        Stage::SnapshotRestore,
        Stage::Injection,
        Stage::Replay,
    ];

    /// Stable text label (reports, NDJSON).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::GoldenRun => "golden-run",
            Stage::SnapshotCapture => "snapshot-capture",
            Stage::SnapshotRestore => "snapshot-restore",
            Stage::Injection => "injection",
            Stage::Replay => "replay",
        }
    }

    /// Parses a [`Stage::label`] back into the enum.
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.iter().copied().find(|st| st.label() == s)
    }

    fn index(self) -> usize {
        Stage::ALL
            .iter()
            .position(|&s| s == self)
            .expect("stage in ALL")
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One structured campaign event.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignEvent {
    /// Campaign began: full fingerprint plus the shard layout.
    Started {
        /// Config fingerprint.
        fingerprint: CampaignFingerprint,
        /// Total faults the campaign will classify.
        total: usize,
        /// Faults per journal shard.
        shard_size: usize,
        /// Number of shards scheduled.
        shards: usize,
    },
    /// A journal shard was scheduled (emitted for every shard at
    /// campaign start; completion order may differ under work
    /// stealing).
    ShardScheduled {
        /// Shard index.
        shard: usize,
        /// First sampling index covered.
        start: usize,
        /// Number of faults covered.
        len: usize,
    },
    /// Periodic per-worker liveness: cumulative work by one worker.
    Heartbeat {
        /// Worker index (0 for one-thread plans).
        worker: usize,
        /// Faults this worker has classified so far.
        injections: usize,
        /// Dynamic instructions this worker has executed so far.
        steps: u64,
    },
    /// Periodic whole-campaign progress.
    Progress(ProgressSnapshot),
    /// Every fault in a shard's range is classified — the write-ahead
    /// journal record.
    ShardCompleted(ShardRecord),
    /// A stratified/incremental per-function shard finished (carries
    /// the PR 7 content hash; `reused` marks cache replays).
    FunctionShardCompleted {
        /// Function name (the shard key).
        name: String,
        /// Function content hash.
        hash: u64,
        /// Dynamic sites owned by the function.
        sites: usize,
        /// Faults drawn for the function.
        draws: usize,
        /// True when the shard was replayed from a cache.
        reused: bool,
    },
    /// Cumulative wall-clock one worker spent in one execution stage,
    /// emitted once per active `(worker, stage)` pair just before the
    /// finished event.  Stage timings observed before the started
    /// event (decode happens during engine binding) are credited to
    /// worker 0 of the campaign that starts next.
    StageTiming {
        /// Worker index (0 for one-thread plans and pre-start stages).
        worker: usize,
        /// The execution stage.
        stage: Stage,
        /// Cumulative wall-clock nanoseconds spent in the stage.
        nanos: u64,
        /// Number of timed entries into the stage.
        count: u64,
    },
    /// Campaign ended; final tallies mirror the returned result.
    Finished {
        /// Final outcome counts.
        tallies: OutcomeTallies,
        /// Wall-clock duration.
        wall_nanos: u64,
        /// Overall injections/sec.
        injections_per_sec: f64,
        /// Total faults booked from static verdicts.
        pruned: usize,
        /// Total faults replayed from a cache or journal.
        reused: usize,
    },
}

/// A sequenced, timestamped event as delivered to a [`FlightSink`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Strictly increasing per campaign, starting at 0.
    pub seq: u64,
    /// Nanoseconds since the campaign's started event.
    pub nanos: u64,
    /// The event payload.
    pub event: CampaignEvent,
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Receiver for flight events.  Implementations must be observational:
/// they may write files or update displays but must never feed
/// information back into the running campaign.
pub trait FlightSink: Send + Sync {
    /// Accepts one event.
    fn record_event(&self, ev: &FlightEvent);
}

/// In-memory sink: keeps every event, for tests, self-checks, and
/// simulated-kill journal truncation.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<FlightEvent>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A copy of the events recorded so far.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.events.lock().map(|e| e.clone()).unwrap_or_default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().map(|e| e.len()).unwrap_or(0)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl FlightSink for MemorySink {
    fn record_event(&self, ev: &FlightEvent) {
        if let Ok(mut events) = self.events.lock() {
            events.push(ev.clone());
        }
    }
}

/// Fans one event stream out to several sinks (e.g. a TTY progress
/// table plus an NDJSON journal file).
pub struct TeeSink {
    sinks: Vec<Arc<dyn FlightSink>>,
}

impl TeeSink {
    /// Builds the tee.
    pub fn new(sinks: Vec<Arc<dyn FlightSink>>) -> TeeSink {
        TeeSink { sinks }
    }
}

impl FlightSink for TeeSink {
    fn record_event(&self, ev: &FlightEvent) {
        for s in &self.sinks {
            s.record_event(ev);
        }
    }
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// Cadence policy for the recorder.  Zero means "derive from the
/// campaign's total" (the defaults scale from unit tests to
/// million-injection campaigns without reconfiguration).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlightPolicy {
    /// Faults per journal shard (0 = `total/16`, at least 1).
    pub shard_size: usize,
    /// Injections between progress snapshots (0 = `total/10`, at
    /// least 1).
    pub progress_every: usize,
    /// Per-worker injections between heartbeats (0 = follow
    /// `progress_every`).
    pub heartbeat_every: usize,
    /// Rolling-window length in completions for the rate estimate
    /// (0 = 64).
    pub window: usize,
}

/// Rolling rate estimator over sampled `(completion count, timestamp)`
/// pairs; rate is completions between the oldest and newest sample
/// over their time span.  The recorder samples the clock only every
/// `rate_stride`-th completion, so at paper-scale injection rates the
/// common probe path never reads the clock at all.  Fewer than two
/// samples, or a zero-width span, reports 0.0 rather than dividing by
/// zero.
#[derive(Debug, Default)]
struct RateWindow {
    samples: VecDeque<(u64, u64)>,
}

impl RateWindow {
    fn push(&mut self, count: u64, now: u64, cap: usize) {
        self.samples.push_back((count, now));
        while self.samples.len() > cap.max(2) {
            self.samples.pop_front();
        }
    }

    fn rate(&self) -> f64 {
        let (Some(&(c0, t0)), Some(&(c1, t1))) = (self.samples.front(), self.samples.back())
        else {
            return 0.0;
        };
        if self.samples.len() < 2 || t1 <= t0 {
            return 0.0;
        }
        (c1 - c0) as f64 / ((t1 - t0) as f64 / 1e9)
    }
}

#[derive(Debug)]
struct ShardState {
    start: usize,
    len: usize,
    remaining: usize,
    slots: Vec<Option<(FaultSpec, Outcome)>>,
}

#[derive(Debug, Default)]
struct WorkerState {
    injections: usize,
    steps: u64,
    window: RateWindow,
    since_heartbeat: usize,
}

/// Per-campaign recorder state, rebuilt by each campaign-started
/// probe.  The effective policy cadences (`progress_every`,
/// `heartbeat_every`, the rate-sampling stride) are resolved once
/// here so the per-injection probe does no policy arithmetic.
#[derive(Debug, Default)]
struct RecState {
    active: bool,
    fingerprint: Option<CampaignFingerprint>,
    total: usize,
    shard_size: usize,
    shards: Vec<ShardState>,
    tallies: OutcomeTallies,
    done: usize,
    pruned: usize,
    reused: usize,
    workers: Vec<WorkerState>,
    /// Cumulative `(nanos, count)` per stage, per worker (indexed by
    /// [`Stage::index`]).
    stage_times: Vec<[(u64, u64); Stage::ALL.len()]>,
    /// Stage observations made while no campaign is active — decode
    /// runs during engine binding, before the started event — drained
    /// into the next campaign's worker 0.
    pending_stages: Vec<(Stage, u64)>,
    global_window: RateWindow,
    since_progress: usize,
    seq: u64,
    /// Campaign epoch; event `nanos` are measured from here.
    t0: Option<Instant>,
    /// Sample the clock into the rate windows every Nth completion.
    rate_stride: usize,
    /// Samples kept per rate window (spans ~`policy.window` completions).
    window_cap: usize,
    progress_every: usize,
    heartbeat_every: usize,
}

/// The campaign flight recorder: receives run-loop probes, maintains
/// shard/worker/progress state, and emits [`FlightEvent`]s into its
/// sink.  Install process-globally with [`install`].
pub struct FlightRecorder {
    sink: Arc<dyn FlightSink>,
    policy: FlightPolicy,
    workload: String,
    technique: String,
    program_hash: u64,
    state: Mutex<RecState>,
}

impl FlightRecorder {
    /// A recorder delivering events to `sink` with the default policy.
    pub fn new(sink: Arc<dyn FlightSink>) -> FlightRecorder {
        FlightRecorder {
            sink,
            policy: FlightPolicy::default(),
            workload: String::new(),
            technique: String::new(),
            program_hash: 0,
            state: Mutex::new(RecState::default()),
        }
    }

    /// Overrides the cadence policy.
    #[must_use]
    pub fn with_policy(mut self, policy: FlightPolicy) -> FlightRecorder {
        self.policy = policy;
        self
    }

    /// Sets the workload/technique labels stamped into the
    /// fingerprint (campaigns cannot know them).
    #[must_use]
    pub fn with_labels(mut self, workload: &str, technique: &str) -> FlightRecorder {
        self.workload = workload.to_owned();
        self.technique = technique.to_owned();
        self
    }

    /// Sets the program content hash stamped into the fingerprint and
    /// every shard record (see
    /// [`program_signature`]).
    #[must_use]
    pub fn with_program_hash(mut self, hash: u64) -> FlightRecorder {
        self.program_hash = hash;
        self
    }

    fn elapsed(st: &RecState) -> u64 {
        st.t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0)
    }

    fn emit(&self, st: &mut RecState, nanos: u64, event: CampaignEvent) {
        let ev = FlightEvent {
            seq: st.seq,
            nanos,
            event,
        };
        st.seq += 1;
        self.sink.record_event(&ev);
    }

    fn on_started(
        &self,
        executor: &'static str,
        engine: EngineKind,
        cfg: CampaignConfig,
        profile: &Profile,
        total: usize,
    ) {
        let Ok(mut st) = self.state.lock() else {
            return;
        };
        let shard_size = match self.policy.shard_size {
            0 => (total / 16).max(1),
            s => s,
        };
        let window = if self.policy.window == 0 {
            64
        } else {
            self.policy.window
        };
        let progress_every = match self.policy.progress_every {
            0 => (total / 10).max(1),
            p => p,
        };
        let heartbeat_every = match self.policy.heartbeat_every {
            0 => progress_every,
            h => h,
        };
        // Keeping ~16 samples spanning `window` completions means the
        // clock is read on at most every `rate_stride`-th injection.
        let rate_stride = (window / 16).max(1);
        let window_cap = (window / rate_stride).max(2);
        let shards: Vec<ShardState> = (0..total)
            .step_by(shard_size)
            .map(|start| {
                let len = shard_size.min(total - start);
                ShardState {
                    start,
                    len,
                    remaining: len,
                    slots: vec![None; len],
                }
            })
            .collect();
        let fingerprint = CampaignFingerprint {
            workload: self.workload.clone(),
            technique: self.technique.clone(),
            executor: executor.to_owned(),
            engine,
            samples: cfg.samples,
            seed: cfg.seed,
            sites: profile.sites.len(),
            golden_dyn_insts: profile.result.dyn_insts,
            program_hash: self.program_hash,
        };
        let n_shards = shards.len();
        let pending = std::mem::take(&mut st.pending_stages);
        *st = RecState {
            active: true,
            fingerprint: Some(fingerprint.clone()),
            total,
            shard_size,
            shards,
            t0: Some(Instant::now()),
            rate_stride,
            window_cap,
            progress_every,
            heartbeat_every,
            ..RecState::default()
        };
        // Pre-start stage observations (decode during engine binding)
        // belong to this campaign's worker 0.
        for (stage, nanos) in pending {
            Self::book_stage(&mut st, 0, stage, nanos);
        }
        self.emit(
            &mut st,
            0,
            CampaignEvent::Started {
                fingerprint,
                total,
                shard_size,
                shards: n_shards,
            },
        );
        for i in 0..n_shards {
            let (start, len) = (st.shards[i].start, st.shards[i].len);
            self.emit(
                &mut st,
                0,
                CampaignEvent::ShardScheduled {
                    shard: i,
                    start,
                    len,
                },
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_injection(
        &self,
        worker: usize,
        index: usize,
        fault: FaultSpec,
        outcome: Outcome,
        steps: u64,
        booking: Booking,
    ) {
        let Ok(mut st) = self.state.lock() else {
            return;
        };
        // Events from a campaign the recorder is not tracking (or an
        // out-of-range index) are dropped, never panicked on.
        if !st.active || index >= st.total {
            return;
        }
        // Reading the clock dominates the probe cost at paper-scale
        // injection rates, so it is lazy: a plain injection that hits
        // no sampling stride and emits no event never reads it.
        let t0 = st.t0;
        let mut now_cache: Option<u64> = None;
        let mut now =
            move || *now_cache.get_or_insert_with(|| {
                t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0)
            });
        st.done += 1;
        st.tallies.add(outcome);
        match booking {
            Booking::Executed => {}
            Booking::Pruned => st.pruned += 1,
            Booking::Reused => st.reused += 1,
        }
        if st.done % st.rate_stride == 0 {
            let (count, t, cap) = (st.done as u64, now(), st.window_cap);
            st.global_window.push(count, t, cap);
        }
        if st.workers.len() <= worker {
            st.workers.resize_with(worker + 1, WorkerState::default);
        }
        {
            let w = &mut st.workers[worker];
            w.injections += 1;
            w.steps += steps;
            w.since_heartbeat += 1;
        }
        if st.workers[worker].injections % st.rate_stride == 0 {
            let (count, t, cap) = (
                st.workers[worker].injections as u64,
                now(),
                st.window_cap,
            );
            st.workers[worker].window.push(count, t, cap);
        }
        if st.workers[worker].since_heartbeat >= st.heartbeat_every {
            st.workers[worker].since_heartbeat = 0;
            let (injections, wsteps) = (st.workers[worker].injections, st.workers[worker].steps);
            let t = now();
            self.emit(
                &mut st,
                t,
                CampaignEvent::Heartbeat {
                    worker,
                    injections,
                    steps: wsteps,
                },
            );
        }

        // Book into the shard and journal it when it drains.
        let si = index / st.shard_size;
        let slot = index - st.shards[si].start;
        if st.shards[si].slots[slot].is_none() {
            st.shards[si].slots[slot] = Some((fault, outcome));
            st.shards[si].remaining -= 1;
            if st.shards[si].remaining == 0 {
                let sh = &st.shards[si];
                let records: Vec<(FaultSpec, Outcome)> =
                    sh.slots.iter().map(|s| s.expect("shard drained")).collect();
                let mut tallies = OutcomeTallies::default();
                for &(_, o) in &records {
                    tallies.add(o);
                }
                let rec = ShardRecord {
                    shard: si,
                    start: sh.start,
                    len: sh.len,
                    seed: st.fingerprint.as_ref().map_or(0, |f| f.seed),
                    program_hash: self.program_hash,
                    tallies,
                    records,
                };
                let t = now();
                self.emit(&mut st, t, CampaignEvent::ShardCompleted(rec));
            }
        }

        st.since_progress += 1;
        if st.since_progress >= st.progress_every {
            st.since_progress = 0;
            let t = now();
            let snap = Self::snapshot_locked(&st, t);
            self.emit(&mut st, t, CampaignEvent::Progress(snap));
        }
    }

    fn snapshot_locked(st: &RecState, now: u64) -> ProgressSnapshot {
        let rate = st.global_window.rate();
        let remaining = st.total.saturating_sub(st.done);
        let eta_nanos = if rate > 0.0 {
            Some((remaining as f64 / rate * 1e9) as u64)
        } else {
            None
        };
        ProgressSnapshot {
            done: st.done,
            total: st.total,
            tallies: st.tallies,
            sdc_ci: wilson_interval(st.tallies.sdc, st.done),
            rate,
            worker_rates: st.workers.iter().map(|w| w.window.rate()).collect(),
            eta_nanos,
            pruned: st.pruned,
            reused: st.reused,
            elapsed_nanos: now,
        }
    }

    fn book_stage(st: &mut RecState, worker: usize, stage: Stage, nanos: u64) {
        if st.stage_times.len() <= worker {
            st.stage_times
                .resize(worker + 1, [(0, 0); Stage::ALL.len()]);
        }
        let slot = &mut st.stage_times[worker][stage.index()];
        slot.0 += nanos;
        slot.1 += 1;
    }

    fn on_stage(&self, worker: usize, stage: Stage, nanos: u64) {
        let Ok(mut st) = self.state.lock() else {
            return;
        };
        if st.active {
            Self::book_stage(&mut st, worker, stage, nanos);
        } else if st.pending_stages.len() < 1024 {
            // Buffered for the next campaign (bounded so stray probes
            // with no campaign following cannot grow without limit).
            st.pending_stages.push((stage, nanos));
        }
    }

    fn on_function_shard(&self, name: &str, hash: u64, sites: usize, draws: usize, reused: bool) {
        let Ok(mut st) = self.state.lock() else {
            return;
        };
        if !st.active {
            return;
        }
        let now = Self::elapsed(&st);
        self.emit(
            &mut st,
            now,
            CampaignEvent::FunctionShardCompleted {
                name: name.to_owned(),
                hash,
                sites,
                draws,
                reused,
            },
        );
    }

    fn on_finished(&self, result: &CampaignResult) {
        let Ok(mut st) = self.state.lock() else {
            return;
        };
        if !st.active {
            return;
        }
        let now = Self::elapsed(&st);
        // Stage timings drain first: one event per active
        // (worker, stage) pair, in worker then Stage::ALL order.
        let stage_times = std::mem::take(&mut st.stage_times);
        for (worker, stages) in stage_times.into_iter().enumerate() {
            for stage in Stage::ALL {
                let (nanos, count) = stages[stage.index()];
                if count > 0 {
                    self.emit(
                        &mut st,
                        now,
                        CampaignEvent::StageTiming {
                            worker,
                            stage,
                            nanos,
                            count,
                        },
                    );
                }
            }
        }
        // Always end on a fresh snapshot so consumers can equate the
        // final snapshot with the campaign stats (even for zero-sample
        // campaigns that never crossed a progress boundary).
        let snap = Self::snapshot_locked(&st, now);
        self.emit(&mut st, now, CampaignEvent::Progress(snap));
        self.emit(
            &mut st,
            now,
            CampaignEvent::Finished {
                tallies: OutcomeTallies::from_result(result),
                wall_nanos: result.stats.wall_nanos as u64,
                injections_per_sec: result.stats.injections_per_sec,
                pruned: result.stats.pruned_sites,
                reused: result.stats.reused_sites,
            },
        );
        st.active = false;
    }
}

/// How a fault's outcome was obtained, for prune/reuse telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Booking {
    /// The faulted run executed.
    Executed,
    /// Booked from a static coverage verdict.
    Pruned,
    /// Replayed from an incremental cache or a resume journal.
    Reused,
}

// ---------------------------------------------------------------------------
// Process-global install (the ferrum-trace sink pattern)
// ---------------------------------------------------------------------------

/// Install generation: 0 means no recorder; every [`install`] bumps
/// it to a fresh nonzero value so per-thread caches know to refresh.
static INSTALLED: AtomicUsize = AtomicUsize::new(0);
static NEXT_GEN: AtomicUsize = AtomicUsize::new(1);
static RECORDER: RwLock<Option<Arc<FlightRecorder>>> = RwLock::new(None);

thread_local! {
    /// Per-thread recorder cache keyed by install generation: the hot
    /// probe path costs one atomic load plus a thread-local compare,
    /// not a process-wide `RwLock` read per injection.
    static CACHED: std::cell::RefCell<(usize, Option<Arc<FlightRecorder>>)> =
        const { std::cell::RefCell::new((0, None)) };
}

/// Installs the process-global recorder.  Executors feed it until
/// [`uninstall`].
pub fn install(rec: Arc<FlightRecorder>) {
    if let Ok(mut slot) = RECORDER.write() {
        *slot = Some(rec);
        INSTALLED.store(NEXT_GEN.fetch_add(1, Ordering::Relaxed), Ordering::Release);
    }
}

/// Removes the process-global recorder (probes go dormant: one
/// atomic load each).  Threads that cached the recorder release
/// their reference the next time a recorder is installed.
pub fn uninstall() {
    INSTALLED.store(0, Ordering::Release);
    if let Ok(mut slot) = RECORDER.write() {
        *slot = None;
    }
}

/// True when a recorder is currently installed.
#[must_use]
pub fn enabled() -> bool {
    INSTALLED.load(Ordering::Acquire) != 0
}

fn with_recorder(f: impl FnOnce(&FlightRecorder)) {
    let gen = INSTALLED.load(Ordering::Acquire);
    if gen == 0 {
        return;
    }
    CACHED.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.0 != gen {
            *cache = (gen, RECORDER.read().ok().and_then(|s| s.as_ref().cloned()));
        }
        // Probes never re-enter, so holding the borrow across `f` is
        // safe and avoids a per-injection `Arc` refcount bump.
        if let Some(rec) = cache.1.as_ref() {
            f(rec);
        }
    });
}

/// Probe: a campaign is starting.  `total` is the number of
/// faults it will classify (not always `cfg.samples`: exhaustive
/// sweeps enumerate sites).
pub(crate) fn campaign_started(
    executor: &'static str,
    engine: EngineKind,
    cfg: CampaignConfig,
    profile: &Profile,
    total: usize,
) {
    with_recorder(|r| r.on_started(executor, engine, cfg, profile, total));
}

/// Probe: fault `index` (sampling order) classified as `outcome` by
/// `worker`, having executed `steps` dynamic instructions.
pub(crate) fn injection(
    worker: usize,
    index: usize,
    fault: FaultSpec,
    outcome: Outcome,
    steps: u64,
    booking: Booking,
) {
    with_recorder(|r| r.on_injection(worker, index, fault, outcome, steps, booking));
}

/// Probe: a stratified/incremental per-function shard finished.
pub(crate) fn function_shard(name: &str, hash: u64, sites: usize, draws: usize, reused: bool) {
    with_recorder(|r| r.on_function_shard(name, hash, sites, draws, reused));
}

/// Probe: `worker` spent `nanos` wall-clock in `stage` once.
pub(crate) fn stage_time(worker: usize, stage: Stage, nanos: u64) {
    with_recorder(|r| r.on_stage(worker, stage, nanos));
}

/// Wall-clock guard for stage timing.  Reads the clock only when a
/// recorder is installed, so campaigns running without one never pay
/// for stage timestamps.
#[derive(Debug)]
pub(crate) struct StageClock(Option<Instant>);

impl StageClock {
    /// Starts timing (a no-op without an installed recorder).
    pub(crate) fn start() -> StageClock {
        StageClock(enabled().then(Instant::now))
    }

    /// Stops timing and books the elapsed wall-clock into `stage` for
    /// `worker`.
    pub(crate) fn stop(self, worker: usize, stage: Stage) {
        if let Some(t) = self.0 {
            stage_time(worker, stage, t.elapsed().as_nanos() as u64);
        }
    }
}

/// Probe: the campaign finished; `result` is what it returns.
pub(crate) fn campaign_finished(result: &CampaignResult) {
    with_recorder(|r| r.on_finished(result));
}

// ---------------------------------------------------------------------------
// Journal reconstruction and resume
// ---------------------------------------------------------------------------

/// Content hash over a whole program: a rotation-fold of the PR 7
/// per-function [`function_hash`] values, stamped into fingerprints
/// and shard records so a journal cannot silently resume against an
/// edited program.
///
/// [`function_hash`]: ferrum_asm::analysis::summary::function_hash
pub fn program_signature(p: &ferrum_asm::AsmProgram) -> u64 {
    let mut h = 0xFE44_u64;
    for f in &p.functions {
        h = h
            .rotate_left(9)
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(ferrum_asm::analysis::summary::function_hash(f));
    }
    h
}

/// What survives of a campaign in a (possibly truncated) event
/// stream: the fingerprint plus every complete shard.  Build one with
/// [`JournalSnapshot::from_events`] and hand it to a sampled plan as
/// [`Reuse::Journal`](crate::plan::Reuse::Journal).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalSnapshot {
    /// The campaign's fingerprint from its started event.
    pub fingerprint: CampaignFingerprint,
    /// Total faults the original campaign scheduled.
    pub total: usize,
    /// Faults per shard.
    pub shard_size: usize,
    /// Completed shards, sorted by shard index (kill order does not
    /// matter).
    pub shards: Vec<ShardRecord>,
    /// True when the stream carries the finished event (nothing to
    /// resume).
    pub finished: bool,
}

impl Default for CampaignFingerprint {
    fn default() -> CampaignFingerprint {
        CampaignFingerprint {
            workload: String::new(),
            technique: String::new(),
            executor: String::new(),
            engine: EngineKind::Interpreter,
            samples: 0,
            seed: 0,
            sites: 0,
            golden_dyn_insts: 0,
            program_hash: 0,
        }
    }
}

impl JournalSnapshot {
    /// Reconstructs the journal from an event stream (e.g. a parsed
    /// NDJSON file, possibly truncated by a kill).  Returns `None`
    /// when the stream has no campaign-started event.  Duplicate
    /// shard records (a resume re-journaling completed shards) keep
    /// the first occurrence.
    pub fn from_events(events: &[FlightEvent]) -> Option<JournalSnapshot> {
        let mut journal: Option<JournalSnapshot> = None;
        for ev in events {
            match (&ev.event, &mut journal) {
                (
                    CampaignEvent::Started {
                        fingerprint,
                        total,
                        shard_size,
                        ..
                    },
                    j,
                ) => {
                    // A later campaign in the same stream supersedes
                    // the earlier one.
                    *j = Some(JournalSnapshot {
                        fingerprint: fingerprint.clone(),
                        total: *total,
                        shard_size: *shard_size,
                        shards: Vec::new(),
                        finished: false,
                    });
                }
                (CampaignEvent::ShardCompleted(rec), Some(j))
                    if !j.shards.iter().any(|s| s.shard == rec.shard) =>
                {
                    j.shards.push(rec.clone());
                }
                (CampaignEvent::Finished { .. }, Some(j)) => j.finished = true,
                _ => {}
            }
        }
        if let Some(j) = &mut journal {
            j.shards.sort_by_key(|s| s.shard);
        }
        journal
    }

    /// Faults covered by completed shards.
    pub fn completed(&self) -> usize {
        self.shards.iter().map(|s| s.len).sum()
    }
}

/// Executor labels whose journals replay against the shared
/// [`sample_faults`] list: every label a [`FaultList::Sampled`] plan
/// can carry, plus `forensic`, which older journals carry.  Stratified
/// plans resume through their own [`CampaignCache`]; double and
/// exhaustive sweeps draw differently.
///
/// [`sample_faults`]: crate::campaign::sample_faults
/// [`FaultList::Sampled`]: crate::plan::FaultList::Sampled
/// [`CampaignCache`]: crate::compose::CampaignCache
const RESUMABLE: &[&str] = &["serial", "parallel", "snapshot", "pruned", "forensic", "resume"];

impl JournalSnapshot {
    /// The journaled outcome of each of `faults` — the re-drawn fault
    /// list of the sampled campaign `cfg` over `profile` — or `None`
    /// where no completed shard covers it.
    ///
    /// # Errors
    ///
    /// Rejects a journal whose fingerprint does not match the config
    /// and profile (seed, samples, site census, golden run, or — when
    /// both sides carry one — program hash), whose executor does not
    /// sample from the shared fault list, or whose shard records
    /// disagree with the re-drawn faults.
    pub(crate) fn outcomes(
        &self,
        cfg: CampaignConfig,
        profile: &Profile,
        faults: &[FaultSpec],
    ) -> Result<Vec<Option<Outcome>>, CampaignError> {
        let fail = |why: String| Err(CampaignError::Journal(why));
        let fp = &self.fingerprint;
        if !RESUMABLE.contains(&fp.executor.as_str()) {
            return fail(format!(
                "journal from `{}` executor does not replay against the sampled fault list",
                fp.executor
            ));
        }
        if fp.seed != cfg.seed || fp.samples != cfg.samples {
            return fail(format!(
                "journal fingerprint (seed {:#x}, {} samples) does not match config (seed {:#x}, {} samples)",
                fp.seed, fp.samples, cfg.seed, cfg.samples
            ));
        }
        if self.total != cfg.samples {
            return fail(format!(
                "journal total {} does not match the {}-sample config",
                self.total, cfg.samples
            ));
        }
        if fp.sites != profile.sites.len() || fp.golden_dyn_insts != profile.result.dyn_insts {
            return fail(format!(
                "journal profile ({} sites, {} golden instructions) does not match this program ({} sites, {})",
                fp.sites,
                fp.golden_dyn_insts,
                profile.sites.len(),
                profile.result.dyn_insts
            ));
        }
        let mut journaled = vec![None; faults.len()];
        for shard in &self.shards {
            if shard.seed != cfg.seed {
                return fail(format!(
                    "shard {} carries foreign seed {:#x}",
                    shard.shard, shard.seed
                ));
            }
            if shard.program_hash != 0
                && fp.program_hash != 0
                && shard.program_hash != fp.program_hash
            {
                return fail(format!(
                    "shard {} carries a foreign program hash",
                    shard.shard
                ));
            }
            if shard.records.len() != shard.len
                || shard
                    .start
                    .checked_add(shard.len)
                    .is_none_or(|end| end > faults.len())
            {
                return fail(format!("shard {} is malformed", shard.shard));
            }
            for (k, &(fault, outcome)) in shard.records.iter().enumerate() {
                let i = shard.start + k;
                if fault != faults[i] {
                    return fail(format!(
                        "journaled fault at index {i} does not match the seed's sample — wrong program or corrupt journal"
                    ));
                }
                journaled[i] = Some(outcome);
            }
        }
        Ok(journaled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_cpu::outcome::{RunResult, StopReason};

    fn empty_profile() -> Profile {
        Profile {
            sites: Vec::new(),
            prov_counts: Default::default(),
            mech_counts: Default::default(),
            pcs: Default::default(),
            result: RunResult {
                stop: StopReason::MainReturned,
                output: Vec::new(),
                cycles: 0,
                dyn_insts: 0,
            },
        }
    }

    fn fp(samples: usize, seed: u64) -> CampaignFingerprint {
        CampaignFingerprint {
            executor: "serial".to_owned(),
            samples,
            seed,
            ..CampaignFingerprint::default()
        }
    }

    #[test]
    fn rate_window_degenerates_to_zero_not_nan() {
        // Satellite: empty-window rolling rates must not divide by
        // zero — empty, single-entry, and zero-span windows all
        // report 0.0.
        let mut w = RateWindow::default();
        assert_eq!(w.rate(), 0.0, "empty window");
        w.push(1, 100, 8);
        assert_eq!(w.rate(), 0.0, "single sample");
        w.push(2, 100, 8);
        assert_eq!(w.rate(), 0.0, "zero time span");
        w.push(3, 100 + 1_000_000_000, 8);
        assert!((w.rate() - 2.0).abs() < 1e-9, "2 completions over 1s");
    }

    #[test]
    fn rate_window_is_bounded() {
        let mut w = RateWindow::default();
        for i in 0..100 {
            w.push(i, i * 1_000, 8);
        }
        assert_eq!(w.samples.len(), 8);
    }

    #[test]
    fn tallies_track_and_match_results() {
        let mut t = OutcomeTallies::default();
        for o in Outcome::ALL {
            t.add(o);
        }
        assert_eq!(t.total(), 5);
        let mut r = CampaignResult::default();
        for o in Outcome::ALL {
            r.record(FaultSpec::new(0, 0), o);
        }
        assert!(t.matches(&r));
        t.add(Outcome::Sdc);
        assert!(!t.matches(&r));
    }

    #[test]
    fn recorder_assembles_shards_and_snapshots() {
        // Drive the recorder directly (no global install): 10 faults,
        // shard size 4 -> shards of 4, 4, 2; progress every 5.
        let sink = Arc::new(MemorySink::new());
        let rec = FlightRecorder::new(sink.clone()).with_policy(FlightPolicy {
            shard_size: 4,
            progress_every: 5,
            heartbeat_every: 100,
            window: 8,
        });
        let profile = empty_profile();
        let cfg = CampaignConfig { samples: 10, seed: 7 };
        rec.on_started("serial", EngineKind::Interpreter, cfg, &profile, 10);
        // Complete out of order, as a work-stealing executor would.
        for i in [9usize, 3, 1, 0, 2, 8, 4, 5, 6, 7] {
            rec.on_injection(
                0,
                i,
                FaultSpec::new(i as u64, 0),
                Outcome::Benign,
                10,
                Booking::Executed,
            );
        }
        let mut done = CampaignResult::default();
        for i in 0..10u64 {
            done.record(FaultSpec::new(i, 0), Outcome::Benign);
        }
        rec.on_finished(&done);

        let events = sink.events();
        // Sequencing is strictly increasing from 0.
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
        }
        let started: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.event {
                CampaignEvent::Started { total, shards, shard_size, .. } => {
                    Some((*total, *shards, *shard_size))
                }
                _ => None,
            })
            .collect();
        assert_eq!(started, vec![(10, 3, 4)]);
        let scheduled = events
            .iter()
            .filter(|e| matches!(e.event, CampaignEvent::ShardScheduled { .. }))
            .count();
        assert_eq!(scheduled, 3);
        let shards: Vec<&ShardRecord> = events
            .iter()
            .filter_map(|e| match &e.event {
                CampaignEvent::ShardCompleted(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(shards.len(), 3);
        // Shard records are in sampling order regardless of completion
        // order, and tallies sum to the shard length.
        let mut all: Vec<u64> = Vec::new();
        for s in &shards {
            assert_eq!(s.records.len(), s.len);
            assert_eq!(s.tallies.total(), s.len);
            assert_eq!(s.seed, 7);
            all.extend(s.records.iter().map(|(f, _)| f.dyn_index));
        }
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<u64>>());
        // Progress snapshots: done is monotone; the finish snapshot
        // covers the whole campaign.
        let snaps: Vec<&ProgressSnapshot> = events
            .iter()
            .filter_map(|e| match &e.event {
                CampaignEvent::Progress(p) => Some(p),
                _ => None,
            })
            .collect();
        assert!(!snaps.is_empty());
        assert!(snaps.windows(2).all(|w| w[0].done <= w[1].done));
        let last = snaps.last().unwrap();
        assert_eq!((last.done, last.total), (10, 10));
        assert_eq!(last.tallies.benign, 10);
        assert_eq!(last.sdc_ci, wilson_interval(0, 10));
        assert!(matches!(
            events.last().unwrap().event,
            CampaignEvent::Finished { .. }
        ));
    }

    #[test]
    fn recorder_survives_zero_sample_campaigns() {
        // Satellite: degenerate telemetry — a zero-sample campaign
        // still produces a consistent started/progress/finished
        // stream with no division by zero.
        let sink = Arc::new(MemorySink::new());
        let rec = FlightRecorder::new(sink.clone());
        let profile = empty_profile();
        let cfg = CampaignConfig { samples: 0, seed: 1 };
        rec.on_started("serial", EngineKind::Interpreter, cfg, &profile, 0);
        rec.on_finished(&CampaignResult::default());
        let events = sink.events();
        assert!(matches!(events[0].event, CampaignEvent::Started { total: 0, .. }));
        let snap = events
            .iter()
            .find_map(|e| match &e.event {
                CampaignEvent::Progress(p) => Some(p),
                _ => None,
            })
            .expect("finish snapshot");
        assert_eq!((snap.done, snap.total), (0, 0));
        assert_eq!(snap.rate, 0.0);
        assert_eq!(snap.eta_nanos, None);
        assert_eq!(snap.sdc_ci, (0.0, 1.0), "Wilson degenerate interval");
        assert!(matches!(events.last().unwrap().event, CampaignEvent::Finished { .. }));
    }

    #[test]
    fn recorder_drops_foreign_events_gracefully() {
        // An injection for an index past the tracked total (a
        // concurrent foreign campaign) is dropped, not panicked on.
        let sink = Arc::new(MemorySink::new());
        let rec = FlightRecorder::new(sink.clone());
        let profile = empty_profile();
        rec.on_started(
            "serial",
            EngineKind::Interpreter,
            CampaignConfig { samples: 2, seed: 1 },
            &profile,
            2,
        );
        rec.on_injection(0, 99, FaultSpec::new(0, 0), Outcome::Benign, 0, Booking::Executed);
        // And before any campaign is bound, probes are inert.
        rec.on_finished(&CampaignResult::default());
        rec.on_injection(0, 0, FaultSpec::new(0, 0), Outcome::Benign, 0, Booking::Executed);
        let baseline = sink.len();
        rec.on_finished(&CampaignResult::default());
        assert_eq!(sink.len(), baseline, "finished without active campaign is inert");
    }

    #[test]
    fn journal_reconstruction_keeps_first_shard_and_sorts() {
        let shard = |i: usize| {
            CampaignEvent::ShardCompleted(ShardRecord {
                shard: i,
                start: i * 2,
                len: 2,
                seed: 5,
                program_hash: 0,
                tallies: OutcomeTallies::default(),
                records: vec![
                    (FaultSpec::new(i as u64 * 2, 0), Outcome::Benign),
                    (FaultSpec::new(i as u64 * 2 + 1, 0), Outcome::Benign),
                ],
            })
        };
        let wrap = |seq: u64, event: CampaignEvent| FlightEvent { seq, nanos: 0, event };
        let events = vec![
            wrap(
                0,
                CampaignEvent::Started {
                    fingerprint: fp(6, 5),
                    total: 6,
                    shard_size: 2,
                    shards: 3,
                },
            ),
            wrap(1, shard(2)),
            wrap(2, shard(0)),
            wrap(3, shard(2)),
        ];
        let j = JournalSnapshot::from_events(&events).expect("journal");
        assert_eq!(j.total, 6);
        assert_eq!(j.shards.iter().map(|s| s.shard).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(j.completed(), 4);
        assert!(!j.finished);
        assert!(JournalSnapshot::from_events(&[wrap(0, shard(0))]).is_none(), "no started event");
    }

    #[test]
    fn journal_outcomes_reject_foreign_and_malformed_shards() {
        let profile = empty_profile();
        let cfg = CampaignConfig {
            samples: 2,
            seed: 5,
        };
        let faults = [FaultSpec::new(0, 1), FaultSpec::new(1, 2)];
        let shard = |seed: u64, fault: FaultSpec| ShardRecord {
            shard: 0,
            start: 0,
            len: 1,
            seed,
            program_hash: 0,
            tallies: OutcomeTallies::default(),
            records: vec![(fault, Outcome::Benign)],
        };
        let journal = |shards| JournalSnapshot {
            fingerprint: fp(2, 5),
            total: 2,
            shard_size: 1,
            shards,
            finished: false,
        };
        let good = journal(vec![shard(5, faults[0])]);
        assert_eq!(
            good.outcomes(cfg, &profile, &faults),
            Ok(vec![Some(Outcome::Benign), None])
        );
        for (bad, why) in [
            (journal(vec![shard(6, faults[0])]), "foreign seed"),
            (
                journal(vec![shard(5, faults[1])]),
                "does not match the seed's sample",
            ),
            (
                journal(vec![ShardRecord {
                    len: 2,
                    ..shard(5, faults[0])
                }]),
                "malformed",
            ),
        ] {
            match bad.outcomes(cfg, &profile, &faults) {
                Err(CampaignError::Journal(m)) => assert!(m.contains(why), "{m}"),
                other => panic!("{why}: accepted as {other:?}"),
            }
        }
        let other = CampaignConfig {
            samples: 2,
            seed: 6,
        };
        assert!(
            good.outcomes(other, &profile, &faults).is_err(),
            "seed mismatch"
        );
        // Journals of plans that do not draw the sampled list.
        for label in ["exhaustive", "double", "stratified", "incremental"] {
            let mut foreign = good.clone();
            foreign.fingerprint.executor = label.to_owned();
            let err = foreign.outcomes(cfg, &profile, &faults).unwrap_err();
            assert!(
                matches!(&err, CampaignError::Journal(m) if m.contains(label)),
                "{err}"
            );
        }
    }

    #[test]
    fn stage_labels_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::parse(s.label()), Some(s));
        }
        assert_eq!(Stage::parse("warp-drive"), None);
        let mut labels: Vec<&str> = Stage::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Stage::ALL.len());
    }

    #[test]
    fn stage_timings_aggregate_and_drain_before_finished() {
        let sink = Arc::new(MemorySink::new());
        let rec = FlightRecorder::new(sink.clone());
        // Decode runs during engine binding, before the started event:
        // it must be credited to the campaign that starts next.
        rec.on_stage(0, Stage::Decode, 500);
        let cfg = CampaignConfig { samples: 4, seed: 1 };
        rec.on_started("snapshot", EngineKind::Decoded, cfg, &empty_profile(), 4);
        rec.on_stage(0, Stage::GoldenRun, 1000);
        rec.on_stage(1, Stage::Replay, 300);
        rec.on_stage(1, Stage::Replay, 200);
        let mut done = CampaignResult::default();
        for i in 0..4u64 {
            rec.on_injection(
                (i % 2) as usize,
                i as usize,
                FaultSpec::new(i, 0),
                Outcome::Benign,
                10,
                Booking::Executed,
            );
            done.record(FaultSpec::new(i, 0), Outcome::Benign);
        }
        rec.on_finished(&done);

        let events = sink.events();
        let stages: Vec<(usize, Stage, u64, u64)> = events
            .iter()
            .filter_map(|e| match e.event {
                CampaignEvent::StageTiming {
                    worker,
                    stage,
                    nanos,
                    count,
                } => Some((worker, stage, nanos, count)),
                _ => None,
            })
            .collect();
        // Same-worker same-stage observations aggregate; emission is
        // worker-major in Stage::ALL order.
        assert_eq!(
            stages,
            vec![
                (0, Stage::Decode, 500, 1),
                (0, Stage::GoldenRun, 1000, 1),
                (1, Stage::Replay, 500, 2),
            ]
        );
        // The drain sits between the last injection-driven event and
        // the closing progress + finished pair.
        let first_stage = events
            .iter()
            .position(|e| matches!(e.event, CampaignEvent::StageTiming { .. }))
            .expect("stage events present");
        assert!(matches!(
            events[first_stage + 3].event,
            CampaignEvent::Progress(_)
        ));
        assert!(matches!(
            events[first_stage + 4].event,
            CampaignEvent::Finished { .. }
        ));
        // A second campaign starts clean: no stale stage state.
        rec.on_started("serial", EngineKind::Interpreter, cfg, &empty_profile(), 4);
        rec.on_finished(&CampaignResult::default());
        let second: Vec<FlightEvent> = sink.events().split_off(events.len());
        assert!(
            !second
                .iter()
                .any(|e| matches!(e.event, CampaignEvent::StageTiming { .. })),
            "no stage probes fired in the second campaign"
        );
    }

    #[test]
    fn global_install_toggles() {
        // Keep this test free of campaigns: other tests in this
        // binary run concurrently and must not observe the recorder.
        assert!(!enabled());
        let rec = Arc::new(FlightRecorder::new(Arc::new(MemorySink::new())));
        install(rec);
        assert!(enabled());
        uninstall();
        assert!(!enabled());
    }

    #[test]
    fn program_signature_tracks_function_edits() {
        let text = "\
.globl main
main:
    movq $5, %rax
    ret
";
        let a = ferrum_asm::parser::parse_program(text).unwrap();
        let mut b = a.clone();
        b.functions[0]
            .blocks[0]
            .insts
            .insert(0, ferrum_asm::AsmInst::synthetic(ferrum_asm::Inst::Nop));
        assert_ne!(program_signature(&a), program_signature(&b));
        assert_eq!(program_signature(&a), program_signature(&a.clone()));
    }
}
