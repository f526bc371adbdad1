//! The repository benchmark: two workloads driven through the public
//! API of the workspace crates, with end-to-end metrics from untraced
//! rounds and per-layer metrics from a separate traced run.
//!
//! * `fig10` — the paper-figure path (`ferrum::evaluate_workload` over
//!   the eight catalog kernels, then the Fig. 10/11 report render).
//! * `protect-stream` — seeded `ferrum_fuzz` programs compiled,
//!   protected, linted, analysed and run fault-free; no injection.
//!
//! A run repeats the workload's round until `--seconds` have passed,
//! setting up its inputs in timed batches before each round (the median
//! batch mean is `setup_s`), and reports each program's median time over
//! the rounds.  Every time is corrected for the host's speed by a
//! reference kernel timed around it (see [`calib`]).  See `README.md`
//! beside this crate.

pub mod bounds;
mod calib;
mod fig10;
pub mod stamp;
mod stats;
mod stream;
mod trace;

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use ferrum_asm::analysis::lint::ProtectionManifest;
use ferrum_asm::{AsmProgram, TechniqueTag};
use ferrum_backend::{compile_with_stats, CompileError, OptLevel, PassStats};
use ferrum_eddi::{Ferrum, HybridAsmEddi, IrEddi};
use ferrum_mir::module::Module;

use crate::calib::{reference_s, speed};
use crate::stats::{geomean, median, percentile};
use crate::trace::{Summary, Tracer};

/// Metric labels of the three protected techniques, in
/// `Technique::PROTECTED` order.
const TECHNIQUES: [&str; 3] = ["ir_eddi", "hybrid", "ferrum"];

/// Counter keys of the protected static sizes, in [`TECHNIQUES`] order.
const STATIC_KEYS: [&str; 3] = [
    "eddi.static_insts.ir_eddi",
    "eddi.static_insts.hybrid",
    "eddi.static_insts.ferrum",
];

/// The end-to-end metrics, `(name, unit)`, printed by an untraced run.
const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("programs_per_s", "1/s"),
    ("program_ms.p50", "ms"),
    ("program_ms.p95", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_overhead_pct.ir_eddi", "%"),
    ("sim_overhead_pct.hybrid", "%"),
    ("sim_overhead_pct.ferrum", "%"),
    ("code_growth.ir_eddi", "ratio"),
    ("code_growth.hybrid", "ratio"),
    ("code_growth.ferrum", "ratio"),
];

/// Span keys timed during set-up.
const SETUP_SPANS: [&str; 4] = [
    "workloads.build_s",
    "workloads.oracle_s",
    "fuzz.generate_s",
    "mir.interp_s",
];

/// Span keys timed during rounds.
const ROUND_SPANS: [&str; 13] = [
    "backend.compile_s.o0",
    "backend.compile_s.o1",
    "eddi.protect_s.ir_eddi",
    "eddi.protect_s.hybrid",
    "eddi.protect_s.ferrum",
    "asm.lint_s",
    "asm.summary_s",
    "asm.coverage_s",
    "cpu.load_s",
    "cpu.run_s",
    "faultsim.campaign_s",
    "core.evaluate_residual_s",
    "core.report_s",
];

/// Counters reported as their sum over a round.
const COUNTS: [&str; 13] = [
    "fuzz.mir_insts",
    "backend.insts_removed",
    "backend.static_insts",
    "eddi.static_insts.ir_eddi",
    "eddi.static_insts.hybrid",
    "eddi.static_insts.ferrum",
    "asm.lint_findings",
    "cpu.sim_cycles.none",
    "cpu.sim_cycles.ir_eddi",
    "cpu.sim_cycles.hybrid",
    "cpu.sim_cycles.ferrum",
    "cpu.golden_insts",
    "faultsim.injections_executed",
];

/// The per-layer metrics, `(name, unit)`, printed by a traced run.
const PER_LAYER: [(&str, &str); 41] = [
    ("workloads.build_s", "s"),
    ("workloads.oracle_s", "s"),
    ("fuzz.generate_s", "s"),
    ("fuzz.mir_insts", "count"),
    ("mir.interp_s", "s"),
    ("backend.compile_s.o0", "s"),
    ("backend.compile_s.o1", "s"),
    ("backend.insts_removed", "count"),
    ("backend.static_insts", "count"),
    ("eddi.protect_s.ir_eddi", "s"),
    ("eddi.protect_s.hybrid", "s"),
    ("eddi.protect_s.ferrum", "s"),
    ("eddi.static_insts.ir_eddi", "count"),
    ("eddi.static_insts.hybrid", "count"),
    ("eddi.static_insts.ferrum", "count"),
    ("asm.lint_s", "s"),
    ("asm.summary_s", "s"),
    ("asm.lint_findings", "count"),
    ("asm.coverage_s", "s"),
    ("asm.coverage_decided_frac", "ratio"),
    ("cpu.load_s", "s"),
    ("cpu.run_s", "s"),
    ("cpu.sim_cycles.none", "count"),
    ("cpu.sim_cycles.ir_eddi", "count"),
    ("cpu.sim_cycles.hybrid", "count"),
    ("cpu.sim_cycles.ferrum", "count"),
    ("cpu.golden_insts", "count"),
    ("faultsim.campaign_s", "s"),
    ("faultsim.injections_per_s", "1/s"),
    ("faultsim.injections_executed", "count"),
    ("faultsim.steps_per_injection", "count"),
    ("faultsim.snapshot_hit_rate", "ratio"),
    ("faultsim.steps_saved_frac", "ratio"),
    ("faultsim.worker_balance", "ratio"),
    ("core.evaluate_s", "s"),
    ("core.evaluate_residual_s", "s"),
    ("core.report_s", "s"),
    ("unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Set-up batches before each round; `setup_s` is the median over all
/// batches of the mean set-up time within a batch.
const SETUP_BATCHES_PER_ROUND: usize = 10;
/// A set-up batch repeats the set-up until this many seconds have
/// passed, so that a sub-millisecond set-up is timed over a window long
/// enough to be steady.
const SETUP_BATCH_S: f64 = 0.05;
/// Fewest rounds a run makes (of each kind, in a traced run).
const MIN_ROUNDS: usize = 2;
/// Largest share of a traced round's wall time that may lie outside
/// every span before the round counts as failed: more means a call into
/// the crates went untraced.  At full size the share is under 0.1% on
/// `fig10` and about 3% on `protect-stream`, whose drops of programs
/// and analyses run between spans.
const MAX_UNATTRIBUTED_FRAC: f64 = 0.1;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper-figure path, injection-bound.
    Fig10,
    /// Seeded fuzz programs through compile, protect and analysis.
    ProtectStream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Fig10, Workload::ProtectStream];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig10 => "fig10",
            Workload::ProtectStream => "protect-stream",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size: `Full` is the measured benchmark; `Smoke` is a tiny run
/// for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark as measured.
    Full,
    /// Test-scale inputs that finish in seconds.
    Smoke,
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Rounds repeat until this many seconds have passed.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// What one round of a workload did.  The fingerprint repeats exactly
/// from round to round for a given seed.
#[derive(Debug, Default)]
struct Round {
    /// Wall seconds spent on each input program, in program order.
    program_s: Vec<f64>,
    /// Reference kernel times: one before each program and one at the
    /// end of the round, so program `p` lies between `p` and `p + 1`.
    reference_s: Vec<f64>,
    /// When the open program started.
    started: Option<Instant>,
    /// `(raw, protected)` simulated cycles per program, per technique.
    cycles: [Vec<(u64, u64)>; 3],
    /// `(raw, protected)` static instructions per program, per technique.
    static_insts: [Vec<(u64, u64)>; 3],
    /// Per-layer counters, summed over the round.
    counts: BTreeMap<&'static str, f64>,
    /// Deterministic outputs per program, compared across rounds.
    fingerprint: Vec<Vec<u64>>,
    /// `(program, reason)` for every failed check.
    failures: Vec<(usize, String)>,
}

impl Round {
    fn count(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_default() += v;
    }

    fn fail(&mut self, program: usize, reason: String) {
        self.failures.push((program, reason));
    }

    /// Times the reference, then starts the clock of the next program.
    fn begin_program(&mut self) {
        self.reference_s.push(reference_s());
        self.started = Some(Instant::now());
    }

    /// Closes the open program with its deterministic outputs.
    fn end_program(&mut self, fp: Vec<u64>) {
        let wall = self
            .started
            .take()
            .map_or(0.0, |t| t.elapsed().as_secs_f64());
        self.program_s.push(wall);
        self.fingerprint.push(fp);
    }

    /// Times the reference once more, after the last program.
    fn close(&mut self) {
        self.reference_s.push(reference_s());
    }

    /// Program `p`'s time in nominal-host seconds.
    fn corrected_s(&self, p: usize) -> f64 {
        self.program_s[p] * speed(self.reference_s[p], self.reference_s[p + 1])
    }

    /// The speed factor of the round as a whole.
    fn speed(&self) -> f64 {
        let mean = self.reference_s.iter().sum::<f64>() / self.reference_s.len().max(1) as f64;
        speed(mean, mean)
    }
}

/// A workload: inputs built by `setup`, measured by `round`.
trait Bench {
    /// Builds (or rebuilds) the inputs.
    fn setup(&mut self, tr: &Tracer);
    /// Runs the workload once over every input, each program between
    /// `Round::begin_program` and `Round::end_program`, then closes the
    /// round with `Round::close`.
    fn round(&self, tr: &Tracer) -> Round;
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Programs (and traced-round span checks) attempted over all rounds.
    pub attempted: u64,
    /// Those that failed a check.
    pub failed: u64,
    /// `(name, value, unit)` for every end-to-end or per-layer metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Hash of every deterministic output of the first round.
    pub fingerprint: u64,
    /// Worker threads the workload's campaigns ran on.
    pub threads: usize,
}

struct RoundRecord {
    /// Wall seconds of the round, the reference runs left out.
    wall: f64,
    round: Round,
    trace: Option<Summary>,
}

fn bench_for(opts: &Options) -> Box<dyn Bench> {
    match opts.workload {
        Workload::Fig10 => Box::new(fig10::Fig10::new(opts.seed, opts.size)),
        Workload::ProtectStream => Box::new(stream::ProtectStream::new(opts.seed, opts.size)),
    }
}

/// Runs one benchmark invocation.
pub fn run(opts: &Options) -> Report {
    let mut bench = bench_for(opts);
    let mut setup_s = Vec::new();
    let mut setup_traces = Vec::new();

    // Untraced and traced rounds alternate in a traced run, so the
    // tracing overhead is measured under the same conditions.  Set-up
    // batches run before every round, so that they sample the whole run
    // rather than its first moments; every pass rebuilds the same inputs.
    let start = Instant::now();
    let mut plain: Vec<RoundRecord> = Vec::new();
    let mut traced: Vec<RoundRecord> = Vec::new();
    loop {
        for _ in 0..SETUP_BATCHES_PER_ROUND {
            let (s, summary) = setup_batch(bench.as_mut(), opts.trace);
            setup_s.push(s);
            setup_traces.push(summary);
        }
        let traced_turn = opts.trace && plain.len() > traced.len();
        let tr = Tracer::new(traced_turn);
        let t = Instant::now();
        let round = bench.round(&tr);
        let wall = t.elapsed().as_secs_f64() - round.reference_s.iter().sum::<f64>();
        eprintln!(
            "perfbench: round {} ({}) {wall:.4} s, host speed {:.3}",
            plain.len() + traced.len(),
            if traced_turn { "traced" } else { "untraced" },
            round.speed()
        );
        let rec = RoundRecord {
            wall,
            round,
            trace: traced_turn.then(|| tr.summary()),
        };
        if traced_turn {
            traced.push(rec);
        } else {
            plain.push(rec);
        }
        // Stop at the round boundary nearest to `--seconds`.
        let enough = plain.len() >= MIN_ROUNDS && (!opts.trace || traced.len() >= MIN_ROUNDS);
        let elapsed = start.elapsed().as_secs_f64();
        let per_round = elapsed / (plain.len() + traced.len()) as f64;
        if enough && elapsed + per_round / 2.0 >= opts.seconds {
            break;
        }
    }

    let (attempted, failed, failures) = check_rounds(plain.iter().chain(&traced));
    let first = &plain[0].round;
    Report {
        attempted,
        failed,
        metrics: if opts.trace {
            layer_metrics(&setup_traces, &plain, &traced)
        } else {
            end_to_end_metrics(&setup_s, &plain)
        },
        failures,
        fingerprint: fingerprint_hash(&first.fingerprint),
        threads: first
            .counts
            .get("faultsim.threads")
            .map_or(1, |&t| t as usize),
    }
}

/// Times one set-up batch: the set-up repeated until [`SETUP_BATCH_S`]
/// have passed, between two reference runs.  Returns the mean pass time
/// and the mean pass's spans, both in nominal-host seconds.
fn setup_batch(bench: &mut dyn Bench, trace: bool) -> (f64, Summary) {
    let tr = Tracer::new(trace);
    let before = reference_s();
    let t = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || t.elapsed().as_secs_f64() < SETUP_BATCH_S {
        bench.setup(&tr);
        passes += 1;
    }
    let elapsed = t.elapsed().as_secs_f64();
    let k = speed(before, reference_s()) / f64::from(passes);
    (elapsed * k, tr.summary().scaled(k))
}

/// Counts attempts and failures: every program of every round, plus the
/// span check of every traced round.  A program whose deterministic
/// outputs differ from the first round's has failed.
fn check_rounds<'a>(rounds: impl Iterator<Item = &'a RoundRecord>) -> (u64, u64, Vec<String>) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut lines = Vec::new();
    let mut reference: Option<&Vec<Vec<u64>>> = None;
    for (k, rec) in rounds.enumerate() {
        let r = &rec.round;
        let mut bad: BTreeSet<usize> = r.failures.iter().map(|f| f.0).collect();
        for (p, why) in &r.failures {
            lines.push(format!("round {k} program {p}: {why}"));
        }
        match reference {
            None => reference = Some(&r.fingerprint),
            Some(fp) => {
                for p in 0..r.program_s.len() {
                    if fp.get(p) != r.fingerprint.get(p) {
                        bad.insert(p);
                        lines.push(format!(
                            "round {k} program {p}: outputs differ from round 0"
                        ));
                    }
                }
            }
        }
        attempted += r.program_s.len() as u64;
        failed += bad.len() as u64;
        if let Some(s) = &rec.trace {
            // Self times sum to the time the top-level spans cover, and
            // the rest of the wall time is unattributed, so the two add
            // up to the wall time exactly when the spans nest and do not
            // overlap.  That leaves two checks: the spans are well formed,
            // and little of the round runs outside every span.
            attempted += 1;
            let unattributed = rec.wall - s.covered_s;
            if !s.well_formed {
                failed += 1;
                lines.push(format!("round {k}: spans overlap or outlast their parent"));
            } else if !(0.0..=MAX_UNATTRIBUTED_FRAC * rec.wall).contains(&unattributed) {
                failed += 1;
                lines.push(format!(
                    "round {k}: {unattributed} s of the {} s wall time lies outside every span",
                    rec.wall
                ));
            }
        }
    }
    (attempted, failed, lines)
}

fn fingerprint_hash(fp: &[Vec<u64>]) -> u64 {
    // FNV-1a over every value: stable across builds and platforms.
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for v in fp
        .iter()
        .flat_map(|p| std::iter::once(p.len() as u64).chain(p.iter().copied()))
    {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics.  Timings take each program's host-corrected
/// time at its median round, so that neither a burst of interference
/// nor a lucky quiet moment moves them; `setup_s` is the median of the
/// set-up batches.
fn end_to_end_metrics(
    setup_s: &[f64],
    rounds: &[RoundRecord],
) -> Vec<(&'static str, f64, &'static str)> {
    let med = |f: &dyn Fn(&RoundRecord) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let first = &rounds[0].round;
    let programs = first.program_s.len();
    let per_program: Vec<f64> = (0..programs)
        .map(|p| med(&|r: &RoundRecord| r.round.corrected_s(p)))
        .collect();
    // The round's own time outside its programs (the report render).
    let between =
        med(&|r: &RoundRecord| (r.wall - r.round.program_s.iter().sum::<f64>()) * r.round.speed());
    let ratio = |pairs: &[(u64, u64)]| {
        geomean(
            &pairs
                .iter()
                .map(|&(raw, prot)| prot as f64 / raw.max(1) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let wall = per_program.iter().sum::<f64>() + between.max(0.0);
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert("setup_s", median(setup_s));
    values.insert("wall_s", wall);
    values.insert("programs_per_s", programs as f64 / wall);
    values.insert("program_ms.p50", percentile(&per_program, 50.0) * 1e3);
    values.insert("program_ms.p95", percentile(&per_program, 95.0) * 1e3);
    values.insert("peak_rss_mb", peak_rss_mb());
    for (t, &(overhead, _)) in END_TO_END[6..9].iter().enumerate() {
        values.insert(overhead, (ratio(&first.cycles[t]) - 1.0) * 100.0);
    }
    for (t, &(growth, _)) in END_TO_END[9..12].iter().enumerate() {
        values.insert(growth, ratio(&first.static_insts[t]));
    }
    END_TO_END
        .iter()
        .map(|&(name, unit)| (name, values[name], unit))
        .collect()
}

fn layer_metrics(
    setup: &[Summary],
    plain: &[RoundRecord],
    traced: &[RoundRecord],
) -> Vec<(&'static str, f64, &'static str)> {
    let med = |f: &dyn Fn(&RoundRecord) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    // Span times are scaled by their round's speed, like every time.
    let span = |r: &RoundRecord, key: &str, whole: bool| {
        r.trace
            .as_ref()
            .and_then(|s| {
                if whole {
                    s.total_s.get(key)
                } else {
                    s.self_s.get(key)
                }
            })
            .copied()
            .unwrap_or(0.0)
            * r.round.speed()
    };
    let count = |key: &str| med(&|r: &RoundRecord| r.round.counts.get(key).copied().unwrap_or(0.0));
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for key in SETUP_SPANS {
        let v: Vec<f64> = setup
            .iter()
            .map(|s| s.self_s.get(key).copied().unwrap_or(0.0))
            .collect();
        values.insert(key, median(&v));
    }
    for key in ROUND_SPANS {
        values.insert(key, med(&|r: &RoundRecord| span(r, key, false)));
    }
    // The evaluate span books its self time, the residual after the
    // campaigns; `core.evaluate_s` is the whole call.
    values.insert(
        "core.evaluate_s",
        med(&|r: &RoundRecord| span(r, "core.evaluate_residual_s", true)),
    );
    for key in COUNTS {
        values.insert(key, count(key));
    }
    values.insert(
        "asm.coverage_decided_frac",
        ratio(count("asm.units_decided"), count("asm.units")),
    );
    // Booked outcomes per second of the campaigns' own wall time.
    values.insert(
        "faultsim.injections_per_s",
        med(&|r: &RoundRecord| {
            ratio(
                r.round
                    .counts
                    .get("faultsim.outcomes")
                    .copied()
                    .unwrap_or(0.0),
                span(r, "faultsim.campaign_s", false),
            )
        }),
    );
    values.insert(
        "faultsim.steps_per_injection",
        ratio(
            count("faultsim.steps_executed"),
            count("faultsim.injections_executed"),
        ),
    );
    values.insert(
        "faultsim.snapshot_hit_rate",
        ratio(
            count("faultsim.snapshot_hits"),
            count("faultsim.injections"),
        ),
    );
    let saved = count("faultsim.steps_saved");
    values.insert(
        "faultsim.steps_saved_frac",
        ratio(saved, saved + count("faultsim.steps_executed")),
    );
    values.insert(
        "faultsim.worker_balance",
        ratio(count("faultsim.balance_sum"), count("faultsim.campaigns")),
    );
    values.insert(
        "unattributed_s",
        med(&|r: &RoundRecord| {
            (r.wall
                - r.trace
                    .as_ref()
                    .map_or(0.0, |s| s.self_s.values().sum::<f64>()))
                * r.round.speed()
        }),
    );
    let traced_wall = med(&|r: &RoundRecord| r.wall * r.round.speed());
    let plain_wall = median(
        &plain
            .iter()
            .map(|r| r.wall * r.round.speed())
            .collect::<Vec<_>>(),
    );
    values.insert("trace.wall_s", traced_wall);
    values.insert("trace.untraced_wall_s", plain_wall);
    values.insert(
        "trace.overhead_pct",
        (traced_wall / plain_wall - 1.0) * 100.0,
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values[name], unit))
        .collect()
}

/// The span key of a backend compile at `opt`.
fn compile_key(opt: OptLevel) -> &'static str {
    match opt {
        OptLevel::O0 => "backend.compile_s.o0",
        OptLevel::O1 => "backend.compile_s.o1",
    }
}

/// A raw compile plus its three protected versions.
struct Protected {
    /// The unprotected program.
    raw: AsmProgram,
    /// Backend pass statistics of the raw compile.
    pass_stats: PassStats,
    /// IR-EDDI, hybrid and FERRUM programs, in [`TECHNIQUES`] order.
    programs: [AsmProgram; 3],
    /// FERRUM's per-function protection manifests (for the lint).
    manifests: BTreeMap<String, ProtectionManifest>,
}

/// Compiles `module` at `opt` and protects it with every technique, the
/// way `ferrum::Pipeline` composes the crates, with one span per crate
/// call.  IR-EDDI's backend compile is booked to the backend; hybrid's
/// runs inside its own pass and stays in `eddi`.
fn compile_and_protect(tr: &Tracer, module: &Module, opt: OptLevel) -> Result<Protected, String> {
    let (raw, pass_stats) = tr
        .span(compile_key(opt), || compile_with_stats(module, opt))
        .map_err(|e| format!("compile {}: {e}", opt.label()))?;
    let ir = tr
        .span("eddi.protect_s.ir_eddi", || {
            let (shadowed, shadows) = IrEddi::new().protect_tracked(module);
            let (mut asm, _) = tr.span(compile_key(opt), || compile_with_stats(&shadowed, opt))?;
            ferrum_eddi::ir_eddi::retag_shadows(&mut asm, &shadows, TechniqueTag::IrEddi);
            Ok::<_, CompileError>(asm)
        })
        .map_err(|e| format!("ir-eddi {}: {e}", opt.label()))?;
    let (hybrid, _) = tr
        .span("eddi.protect_s.hybrid", || {
            HybridAsmEddi::new().protect_opt(module, opt)
        })
        .map_err(|e| format!("hybrid {}: {e}", opt.label()))?;
    let (ferrum, manifests) = tr
        .span("eddi.protect_s.ferrum", || {
            Ferrum::new().protect_with_manifest(&raw)
        })
        .map_err(|e| format!("ferrum {}: {e}", opt.label()))?;
    Ok(Protected {
        raw,
        pass_stats,
        programs: [ir, hybrid, ferrum],
        manifests,
    })
}

/// Books the static sizes of `p` into `round` and the fingerprint.
fn count_static(round: &mut Round, p: &Protected, fp: &mut Vec<u64>) {
    let raw = p.raw.static_inst_count() as u64;
    round.count("backend.static_insts", raw as f64);
    round.count("backend.insts_removed", p.pass_stats.insts_removed() as f64);
    fp.push(raw);
    for (t, prog) in p.programs.iter().enumerate() {
        let n = prog.static_inst_count() as u64;
        round.count(STATIC_KEYS[t], n as f64);
        round.static_insts[t].push((raw, n));
        fp.push(n);
    }
}

/// Counter key of the simulated cycles of technique `t` (`None` for the
/// raw program).
fn cycles_key(t: Option<usize>) -> &'static str {
    match t {
        None => "cpu.sim_cycles.none",
        Some(0) => "cpu.sim_cycles.ir_eddi",
        Some(1) => "cpu.sim_cycles.hybrid",
        Some(_) => "cpu.sim_cycles.ferrum",
    }
}

/// Mixes the run seed with an index into an independent 64-bit seed
/// (splitmix64).
fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(wall: f64, covered_s: f64, well_formed: bool) -> RoundRecord {
        RoundRecord {
            wall,
            round: Round::default(),
            trace: Some(Summary {
                covered_s,
                well_formed,
                ..Summary::default()
            }),
        }
    }

    #[test]
    fn a_traced_round_fails_when_much_of_it_lies_outside_every_span() {
        let check = |rec: RoundRecord| {
            let (attempted, failed, _) = check_rounds([rec].iter());
            assert_eq!(attempted, 1);
            failed
        };
        assert_eq!(check(traced(1.0, 0.99, true)), 0);
        assert_eq!(check(traced(1.0, 0.5, true)), 1);
        assert_eq!(check(traced(1.0, 1.0, false)), 1);
    }
}
