//! Campaign vocabulary: outcomes, configs, results, telemetry, and
//! the fault samplers.
//!
//! Every campaign runs through one plan ([`crate::plan::Campaign`]);
//! this module defines what it consumes and returns.  The samplers
//! (`sample_faults` and its double-fault and exhaustive siblings)
//! are deterministic per seed, which is what makes every plan over the
//! same fault list record-identical whatever its threads, pruning,
//! reuse, or engine.
//!
//! [`CampaignResult::stats`] carries campaign telemetry: throughput
//! (wall time, injections/sec), checkpoint hit-rate and steps saved,
//! per-worker load ([`WorkerStats`]), and the detection-latency
//! distribution ([`DetectionLatency`] — the dynamic-instruction
//! distance from each injection to the checker that caught it).
//! `stats` is deliberately excluded from `PartialEq`: two campaigns
//! are *equal* when their sampled faults and classified outcomes
//! agree, however long they took.  A plan observed by a flight
//! recorder ([`crate::flight`]) also streams its events; recording
//! never feeds back into the campaign and can never change outcomes.

use std::time::Instant;

use ferrum_rng::Rng64;

use ferrum_cpu::fault::FaultSpec;
use ferrum_cpu::outcome::StopReason;
use ferrum_cpu::run::Profile;

use crate::engine::EngineKind;

/// Classified result of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Completed with wrong output: silent data corruption.
    Sdc,
    /// A checker fired.
    Detected,
    /// Hardware-style exception.
    Crash,
    /// Step budget exhausted.
    Timeout,
    /// Completed with the correct output.
    Benign,
}

impl Outcome {
    /// All outcome classes.
    pub const ALL: [Outcome; 5] = [
        Outcome::Sdc,
        Outcome::Detected,
        Outcome::Crash,
        Outcome::Timeout,
        Outcome::Benign,
    ];

    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Sdc => "SDC",
            Outcome::Detected => "detected",
            Outcome::Crash => "crash",
            Outcome::Timeout => "timeout",
            Outcome::Benign => "benign",
        }
    }

    /// The variant name used by the JSON schemas
    /// (docs/campaign-schema.md records, docs/events-schema.md).
    pub fn variant(self) -> &'static str {
        match self {
            Outcome::Sdc => "Sdc",
            Outcome::Detected => "Detected",
            Outcome::Crash => "Crash",
            Outcome::Timeout => "Timeout",
            Outcome::Benign => "Benign",
        }
    }

    /// Parses a [`Outcome::variant`] name back; `None` otherwise.
    pub fn parse(s: &str) -> Option<Outcome> {
        Outcome::ALL.into_iter().find(|o| o.variant() == s)
    }
}

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Number of sampled faults (the paper uses 1000 per benchmark).
    pub samples: usize,
    /// RNG seed (campaigns are fully reproducible).
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            samples: 1000,
            seed: 0xFE44_0001,
        }
    }
}

/// Per-worker telemetry for one campaign.
///
/// Entry `i` describes worker thread `i`; a one-thread campaign reports
/// a single entry.  Work stealing makes the split vary run to run,
/// which is one reason `stats` is excluded from result equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Faults this worker booked (executed, pruned, or reused).
    pub injections: usize,
    /// Dynamic instructions this worker executed.
    pub steps_executed: u64,
}

/// Detection-latency distribution: for every [`Outcome::Detected`]
/// record, the dynamic-instruction distance from the faulted
/// instruction to the checker that fired.
///
/// Samples are stored sorted, so the distribution compares equal
/// across plans regardless of worker scheduling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetectionLatency {
    samples: Vec<u64>,
}

impl DetectionLatency {
    /// Builds the distribution from raw samples (any order).
    pub fn from_samples(mut samples: Vec<u64>) -> DetectionLatency {
        samples.sort_unstable();
        DetectionLatency { samples }
    }

    /// Number of detections observed.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The samples, sorted ascending.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Nearest-rank percentile for `p` in `0.0..=100.0`; `None` when no
    /// detections were observed.  Delegates to the shared
    /// [`crate::stats::percentile_nearest_rank`] definition so latency
    /// reporting, forensic summaries, and flight-recorder snapshots
    /// agree on what a percentile is.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        crate::stats::percentile_nearest_rank(&self.samples, p)
    }

    /// Median detection latency.
    pub fn p50(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// 95th-percentile detection latency.
    pub fn p95(&self) -> Option<u64> {
        self.percentile(95.0)
    }

    /// Worst observed detection latency.
    pub fn max(&self) -> Option<u64> {
        self.samples.last().copied()
    }

    /// Log2-bucketed histogram as `(lo, hi, count)` rows covering
    /// `lo..=hi`.  Bucket 0 is the exact-zero bucket `[0, 0]` (the
    /// checker immediately following the fault); bucket `k > 0` covers
    /// `[2^(k-1), 2^k - 1]`.  Empty buckets up to the maximum sample
    /// are included so renderers get a contiguous axis.
    pub fn histogram_log2(&self) -> Vec<(u64, u64, u64)> {
        let Some(&max) = self.samples.last() else {
            return Vec::new();
        };
        let bucket = |s: u64| (64 - s.leading_zeros()) as usize;
        let mut counts = vec![0u64; bucket(max) + 1];
        for &s in &self.samples {
            counts[bucket(s)] += 1;
        }
        counts
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                let lo = if k == 0 { 0 } else { 1u64 << (k - 1) };
                let hi = if k == 0 { 0 } else { (1u64 << k) - 1 };
                (lo, hi, c)
            })
            .collect()
    }
}

/// Campaign telemetry: throughput, snapshot efficiency, per-worker
/// load, and detection-latency distribution.
///
/// Purely observational: excluded from [`CampaignResult`] equality so
/// determinism assertions compare sampled faults and outcomes only.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignStats {
    /// Wall-clock duration of the campaign in nanoseconds.
    pub wall_nanos: u128,
    /// Total injected faults (mirrors [`CampaignResult::total`] so the
    /// stats are self-contained).
    pub injections: usize,
    /// Injected faults per wall-clock second.
    pub injections_per_sec: f64,
    /// Worker threads used.
    pub threads: usize,
    /// Checkpoints captured on the golden walk.
    pub snapshots_taken: usize,
    /// Faulted runs that started from a checkpoint past instruction 0.
    pub snapshot_hits: usize,
    /// Dynamic instructions *not* re-executed thanks to checkpoints
    /// (the sum of each chosen checkpoint's instruction boundary).
    pub steps_saved: u64,
    /// Dynamic instructions actually executed across all faulted runs.
    /// A golden suffix the decoded engine stitched in after converging
    /// is not executed, so it counts in neither this nor `steps_saved`.
    pub steps_executed: u64,
    /// Per-worker injections and steps, indexed by worker thread.
    pub per_worker: Vec<WorkerStats>,
    /// Injection→detection instruction-distance distribution.
    pub latency: DetectionLatency,
    /// Faults booked from a static coverage verdict instead of being
    /// executed (see [`crate::plan::Campaign::prune`]).
    pub pruned_sites: usize,
    /// Faults replayed from a shard cache or a resume journal instead
    /// of being executed (see [`crate::plan::Reuse`]).
    pub reused_sites: usize,
    /// Execution engine the campaign ran on.  Purely informational —
    /// outcome records are engine-independent per seed; only the
    /// throughput counters above reflect the choice.
    pub engine: EngineKind,
}

impl CampaignStats {
    /// Ratio of the least- to the most-loaded worker's injections:
    /// 1.0 is perfect balance, 0.0 when no work ran.
    pub fn worker_balance(&self) -> f64 {
        let max = self
            .per_worker
            .iter()
            .map(|w| w.injections)
            .max()
            .unwrap_or(0);
        let min = self
            .per_worker
            .iter()
            .map(|w| w.injections)
            .min()
            .unwrap_or(0);
        if max == 0 {
            0.0
        } else {
            min as f64 / max as f64
        }
    }

    /// Fraction of faulted runs that resumed from a snapshot.
    pub fn snapshot_hit_rate(&self) -> f64 {
        if self.injections == 0 {
            0.0
        } else {
            self.snapshot_hits as f64 / self.injections as f64
        }
    }

    /// Fraction of `steps_saved + steps_executed` that snapshot
    /// restores skipped: prefix skipping only (stitched golden suffixes
    /// are in neither term, see `steps_executed`).
    pub fn steps_saved_ratio(&self) -> f64 {
        let total = self.steps_saved + self.steps_executed;
        if total == 0 {
            0.0
        } else {
            self.steps_saved as f64 / total as f64
        }
    }

    /// Fraction of injections decided statically (skipped) by a
    /// coverage map.
    pub fn prune_rate(&self) -> f64 {
        if self.injections == 0 {
            0.0
        } else {
            self.pruned_sites as f64 / self.injections as f64
        }
    }

    /// Fraction of injections replayed from a shard cache or journal
    /// instead of executed.
    pub fn reuse_rate(&self) -> f64 {
        if self.injections == 0 {
            0.0
        } else {
            self.reused_sites as f64 / self.injections as f64
        }
    }
}

/// Aggregated campaign outcome counts.
///
/// Equality compares the deterministic payload (counts and records)
/// and ignores [`CampaignResult::stats`].
#[derive(Debug, Clone, Default)]
pub struct CampaignResult {
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
    /// Every injected fault with its outcome (for root-cause analysis).
    pub records: Vec<(FaultSpec, Outcome)>,
    /// Throughput observability (not part of equality).
    pub stats: CampaignStats,
}

impl PartialEq for CampaignResult {
    fn eq(&self, other: &CampaignResult) -> bool {
        self.sdc == other.sdc
            && self.detected == other.detected
            && self.crash == other.crash
            && self.timeout == other.timeout
            && self.benign == other.benign
            && self.records == other.records
    }
}

impl CampaignResult {
    /// Total injections.
    pub fn total(&self) -> usize {
        self.sdc + self.detected + self.crash + self.timeout + self.benign
    }

    /// SDC probability over the campaign.
    pub fn sdc_prob(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.sdc as f64 / self.total() as f64
        }
    }

    pub(crate) fn record(&mut self, f: FaultSpec, o: Outcome) {
        match o {
            Outcome::Sdc => self.sdc += 1,
            Outcome::Detected => self.detected += 1,
            Outcome::Crash => self.crash += 1,
            Outcome::Timeout => self.timeout += 1,
            Outcome::Benign => self.benign += 1,
        }
        self.records.push((f, o));
    }
}

/// Classifies one faulted run against the golden output.
pub fn classify(stop: StopReason, output: &[i64], golden: &[i64]) -> Outcome {
    match stop {
        StopReason::Detected => Outcome::Detected,
        StopReason::Crash(_) => Outcome::Crash,
        StopReason::Timeout => Outcome::Timeout,
        StopReason::MainReturned => {
            if output == golden {
                Outcome::Benign
            } else {
                Outcome::Sdc
            }
        }
    }
}

/// Injection→detection distance in dynamic instructions.  The checker
/// that fired is the last executed instruction (dynamic index
/// `dyn_insts - 1`, zero-based); the fault fired while executing the
/// instruction at `inject`.  Saturating: a fault index at-or-past the
/// detecting instruction (possible only for faults sampled past
/// program end) reports 0 rather than wrapping.
pub(crate) fn detection_latency(dyn_insts: u64, inject: u64) -> u64 {
    dyn_insts.saturating_sub(1).saturating_sub(inject)
}

/// Pre-samples the campaign's fault list: `cfg.samples` single-bit
/// faults at sites drawn uniformly from `profile.sites`.  Every
/// sampled plan uses this one function, so the sampled list — and
/// therefore the record stream — is identical across serial,
/// work-stealing, pruned, resumed, and decoded runs of the same seed.
///
/// The bit position is drawn uniformly from the site's own
/// `eligible_dest_bits` width ([`ferrum_cpu::run::SiteInfo::bits`]),
/// not from the full `u16` range: a raw bit wider than the destination
/// would be reduced modulo the width at injection time, and for
/// non-power-of-two widths (RFLAGS' 4 probability-relevant bits today;
/// any future irregular destination) `u16::MAX + 1` values folded onto
/// `width` buckets over-weight the low residues.  Drawing below the
/// width keeps every destination bit exactly equally likely
/// (`Rng64::gen_below` is Lemire-unbiased).
pub(crate) fn sample_faults(profile: &Profile, cfg: CampaignConfig) -> Vec<FaultSpec> {
    let mut rng = Rng64::seed_from_u64(cfg.seed);
    (0..cfg.samples)
        .map(|_| {
            let site = profile.sites[rng.gen_range(0..profile.sites.len())];
            FaultSpec::new(site.dyn_index, rng.gen_below(u64::from(site.bits)) as u16)
        })
        .collect()
}

/// Pre-samples a double-fault campaign: per run, two sites drawn
/// independently and uniformly, each with a bit drawn below its own
/// width.  Returns the first and the second fault of each run.
pub(crate) fn sample_pairs(
    profile: &Profile,
    cfg: CampaignConfig,
) -> (Vec<FaultSpec>, Vec<FaultSpec>) {
    let sites = &profile.sites;
    let mut rng = Rng64::seed_from_u64(cfg.seed);
    (0..cfg.samples)
        .map(|_| {
            let a = sites[rng.gen_range(0..sites.len())];
            let b = sites[rng.gen_range(0..sites.len())];
            (
                FaultSpec::new(a.dyn_index, rng.gen_below(u64::from(a.bits)) as u16),
                FaultSpec::new(b.dyn_index, rng.gen_below(u64::from(b.bits)) as u16),
            )
        })
        .unzip()
}

/// Multiplier for the exhaustive sweep's bit stride.  Odd, hence
/// coprime with 256: `k ↦ k·97 mod 256` is a permutation of `0..256`,
/// and consecutive `k` land ~97 bit positions apart, spreading a small
/// `bits_per_site` across the whole 256-bit range.  (The previous
/// multiplier, 257, is ≡ 1 mod 256 — the identity permutation — so
/// "evenly spread" silently degraded to "the lowest k bits".)
const BIT_STRIDE: u32 = 97;

/// Every site with `bits_per_site` bit positions, in site order.
pub(crate) fn exhaustive_faults(profile: &Profile, bits_per_site: u16) -> Vec<FaultSpec> {
    let mut faults = Vec::with_capacity(profile.sites.len() * usize::from(bits_per_site));
    for site in &profile.sites {
        for k in 0..bits_per_site {
            // Spread raw bits across this site's own destination width.
            // (Spreading over a fixed 256 and reducing modulo the width
            // at injection time collapses the stride for narrow
            // destinations: e.g. `k·97 mod 256` reduced mod 4 for an
            // RFLAGS site walks residues unevenly.  Every eligible
            // width is a power of two and 97 is odd, so `k·97 mod w`
            // still permutes `0..w` per site.)
            let raw = (u32::from(k) * BIT_STRIDE % site.bits.max(1)) as u16;
            faults.push(FaultSpec::new(site.dyn_index, raw));
        }
    }
    faults
}

pub(crate) fn finish_stats(
    result: &mut CampaignResult,
    t0: Instant,
    threads: usize,
    engine: EngineKind,
) {
    result.stats.engine = engine;
    let wall = t0.elapsed();
    result.stats.wall_nanos = wall.as_nanos();
    result.stats.injections = result.total();
    result.stats.threads = threads;
    let secs = wall.as_secs_f64();
    result.stats.injections_per_sec = if secs > 0.0 {
        result.total() as f64 / secs
    } else {
        0.0
    };
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ferrum_cpu::run::Cpu;
    use ferrum_mir::builder::FunctionBuilder;
    use ferrum_mir::module::{Global, Module};
    use ferrum_mir::types::Ty;

    pub(crate) fn sum_module() -> Module {
        let mut module = Module::new();
        let g = module.add_global(Global::new("tab", vec![1, 2, 3, 4]));
        let mut b = FunctionBuilder::new("main", &[], None);
        let base = b.global(g);
        let mut acc = b.iconst(Ty::I64, 0);
        for i in 0..4 {
            let idx = b.iconst(Ty::I64, i);
            let p = b.gep(base, idx);
            let v = b.load(Ty::I64, p);
            acc = b.add(Ty::I64, acc, v);
        }
        b.print(acc);
        b.ret(None);
        module.functions.push(b.finish());
        module
    }

    pub(crate) fn sum_cpu() -> Cpu {
        let asm = ferrum_backend::compile(&sum_module()).unwrap();
        Cpu::load(&asm).unwrap()
    }

    pub(crate) fn protected_sum_cpu() -> Cpu {
        let asm = ferrum_eddi::ferrum::Ferrum::new()
            .protect_module(&sum_module())
            .unwrap();
        Cpu::load(&asm).unwrap()
    }

    #[test]
    fn classification_rules() {
        use ferrum_cpu::outcome::CrashKind;
        assert_eq!(classify(StopReason::Detected, &[], &[]), Outcome::Detected);
        assert_eq!(
            classify(StopReason::Crash(CrashKind::DivideError), &[], &[]),
            Outcome::Crash
        );
        assert_eq!(classify(StopReason::Timeout, &[], &[]), Outcome::Timeout);
        assert_eq!(
            classify(StopReason::MainReturned, &[1], &[1]),
            Outcome::Benign
        );
        assert_eq!(classify(StopReason::MainReturned, &[2], &[1]), Outcome::Sdc);
        assert_eq!(classify(StopReason::MainReturned, &[], &[1]), Outcome::Sdc);
    }

    #[test]
    fn exhaustive_bit_stride_spreads_positions() {
        // The first n raw values must be distinct and genuinely spread
        // over 0..256, not the lowest n bit positions.
        let raws: Vec<u16> = (0..8u16)
            .map(|k| (u32::from(k) * BIT_STRIDE % 256) as u16)
            .collect();
        let mut sorted = raws.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "positions must be distinct: {raws:?}");
        // Even spread: consecutive sorted positions (cyclically) are at
        // least 16 apart for n = 8 over a 256-bit range.
        for w in sorted.windows(2) {
            assert!(w[1] - w[0] >= 16, "clustered positions: {sorted:?}");
        }
        assert!(256 - sorted.last().unwrap() + sorted.first().unwrap() >= 16);
        // And the full 256-value cycle is a permutation of 0..256.
        let mut all: Vec<u16> = (0..256u16)
            .map(|k| (u32::from(k) * BIT_STRIDE % 256) as u16)
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 256);
    }

    #[test]
    fn latency_percentiles_are_nearest_rank() {
        let lat = DetectionLatency::from_samples(vec![5, 1, 3, 2, 4]);
        assert_eq!(lat.count(), 5);
        assert_eq!(lat.samples(), &[1, 2, 3, 4, 5]);
        assert_eq!(lat.p50(), Some(3));
        assert_eq!(lat.p95(), Some(5));
        assert_eq!(lat.max(), Some(5));
        assert_eq!(lat.percentile(0.0), Some(1));
        assert_eq!(lat.percentile(100.0), Some(5));
        let empty = DetectionLatency::default();
        assert_eq!(empty.p50(), None);
        assert_eq!(empty.max(), None);
        assert!(empty.histogram_log2().is_empty());
    }

    #[test]
    fn latency_percentile_edge_cases() {
        // Nearest-rank on degenerate distributions: empty (no
        // detections), a single sample, and all-equal samples.
        let empty = DetectionLatency::from_samples(vec![]);
        assert_eq!(empty.count(), 0);
        for p in [0.0, 50.0, 95.0, 100.0] {
            assert_eq!(empty.percentile(p), None);
        }
        assert_eq!(empty.p50(), None);
        assert_eq!(empty.p95(), None);
        assert_eq!(empty.max(), None);

        let single = DetectionLatency::from_samples(vec![42]);
        assert_eq!(single.count(), 1);
        for p in [0.0, 1.0, 50.0, 95.0, 100.0] {
            assert_eq!(single.percentile(p), Some(42), "p={p}");
        }
        assert_eq!(
            (single.p50(), single.p95(), single.max()),
            (Some(42), Some(42), Some(42))
        );
        assert_eq!(
            single
                .histogram_log2()
                .iter()
                .map(|&(_, _, c)| c)
                .sum::<u64>(),
            1
        );

        let equal = DetectionLatency::from_samples(vec![7; 9]);
        assert_eq!(equal.count(), 9);
        for p in [0.0, 50.0, 95.0, 100.0] {
            assert_eq!(equal.percentile(p), Some(7), "p={p}");
        }
        assert_eq!(equal.max(), Some(7));
        // All nine samples land in the [4,7] bucket.
        assert_eq!(equal.histogram_log2().last(), Some(&(4, 7, 9)));
    }

    #[test]
    fn latency_histogram_buckets_are_log2() {
        let lat = DetectionLatency::from_samples(vec![0, 1, 2, 3, 4, 9]);
        let h = lat.histogram_log2();
        // [0,0]=1, [1,1]=1, [2,3]=2, [4,7]=1, [8,15]=1
        assert_eq!(
            h,
            vec![(0, 0, 1), (1, 1, 1), (2, 3, 2), (4, 7, 1), (8, 15, 1)]
        );
        // Contiguous axis even with an empty bucket.
        let sparse = DetectionLatency::from_samples(vec![1, 8]);
        assert_eq!(
            sparse.histogram_log2(),
            vec![(0, 0, 0), (1, 1, 1), (2, 3, 0), (4, 7, 0), (8, 15, 1)]
        );
    }

    #[test]
    fn detection_latency_distance_is_saturating() {
        assert_eq!(detection_latency(10, 4), 5);
        assert_eq!(detection_latency(10, 9), 0);
        assert_eq!(detection_latency(10, 20), 0);
        assert_eq!(detection_latency(0, 0), 0);
    }

    #[test]
    fn sampled_raw_bits_stay_within_site_width() {
        // Regression (fault-bit uniformity fix): the sampler must draw
        // the bit position from the site's own eligible width, never
        // from the full u16 range.  Pre-fix code used `gen_u16()`, so
        // with hundreds of samples some raw_bit always landed >= bits.
        let cpu = protected_sum_cpu();
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: 500,
            seed: 31,
        };
        for fault in sample_faults(&profile, cfg) {
            let bits = profile
                .site_at(fault.dyn_index)
                .expect("sampled faults land on profiled sites")
                .bits;
            assert!(
                u32::from(fault.raw_bit) < bits,
                "raw_bit {} out of range for a {bits}-bit destination",
                fault.raw_bit
            );
        }
    }

    #[test]
    fn sampled_bits_are_uniform_within_width() {
        // Chi-square uniformity over the 64-bit GPR sites: bucket the
        // sampled bit positions into 8 byte-lanes and require the
        // statistic to stay below the p=0.001 critical value for 7
        // degrees of freedom (24.32).  The pre-fix sampler fails the
        // companion range test above; this one pins that the *new*
        // draw is genuinely uniform, not merely in range.
        let cpu = sum_cpu();
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: 4000,
            seed: 1234,
        };
        let mut buckets = [0u64; 8];
        let mut n = 0u64;
        for fault in sample_faults(&profile, cfg) {
            if profile.site_at(fault.dyn_index).unwrap().bits == 64 {
                buckets[usize::from(fault.raw_bit) / 8] += 1;
                n += 1;
            }
        }
        assert!(n > 1000, "not enough 64-bit samples: {n}");
        let expected = n as f64 / 8.0;
        let chi2: f64 = buckets
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(
            chi2 < 24.32,
            "non-uniform bit sampling: chi2={chi2} {buckets:?}"
        );
    }
}
