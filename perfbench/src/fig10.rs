//! `fig10`: the path every paper figure takes.
//!
//! Exactly what `repro_fig10` does — `ferrum::evaluate_workload` on all
//! eight catalog kernels at `-O0` (raw plus the three techniques, the
//! interpreter engine, the snapshot executor on `available_parallelism`
//! threads) — followed by the Fig. 10/11 report render.  It is
//! injection-bound, so a change to the engine, executor or snapshot
//! shows here and a change to the compiler or analyses does not.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ferrum::report::{
    render_bars, render_coverage_table, render_overhead_table, render_throughput_table,
};
use ferrum::{evaluate_workload, CampaignResult, EvalConfig, OptLevel, Pipeline, WorkloadReport};
use ferrum_workloads::{all_workloads, Scale, Workload};

use crate::trace::Tracer;
use crate::{cycles_key, Bench, Round, Size, STATIC_KEYS, TECHNIQUES};

/// Faults sampled per configuration in a full-size run: enough that the
/// campaigns dominate a round, few enough that a fault running to the
/// step limit is rare (see `README.md`, *Sizing `fig10`*).
const SAMPLES: usize = 200;
/// Faults sampled per configuration in a smoke run.
const SMOKE_SAMPLES: usize = 8;

/// The `fig10` workload.
pub struct Fig10 {
    cfg: EvalConfig,
    kernels: Vec<Workload>,
}

impl Fig10 {
    /// The workload at `size`, with campaign seed `seed`.
    pub fn new(seed: u64, size: Size) -> Fig10 {
        let (samples, scale) = match size {
            Size::Full => (SAMPLES, Scale::Paper),
            Size::Smoke => (SMOKE_SAMPLES, Scale::Test),
        };
        Fig10 {
            cfg: EvalConfig {
                samples,
                seed,
                scale,
                opt: OptLevel::O0,
            },
            kernels: Vec::new(),
        }
    }
}

/// Builds every catalog kernel and its native oracle.
fn build_kernels(
    tr: &Tracer,
    scale: Scale,
) -> (
    Vec<Workload>,
    Vec<ferrum_mir::module::Module>,
    Vec<Vec<i64>>,
) {
    let kernels = all_workloads();
    let modules = kernels
        .iter()
        .map(|w| tr.span("workloads.build_s", || w.build(scale)))
        .collect();
    let oracles = kernels
        .iter()
        .map(|w| tr.span("workloads.oracle_s", || w.oracle(scale)))
        .collect();
    (kernels, modules, oracles)
}

impl Bench for Fig10 {
    fn setup(&mut self, tr: &Tracer) {
        // `evaluate_workload` builds each kernel and checks it against
        // its oracle itself; they are built here too so that set-up
        // costs what a user's inputs cost on every workload.
        let (kernels, modules, oracles) = build_kernels(tr, self.cfg.scale);
        std::hint::black_box((modules, oracles));
        self.kernels = kernels;
    }

    fn round(&self, tr: &Tracer) -> Round {
        let pipeline = Pipeline::new();
        let mut round = Round::default();
        let mut reports: Vec<WorkloadReport> = Vec::new();
        for (k, w) in self.kernels.iter().enumerate() {
            round.begin_program();
            // The oracle check lives inside `evaluate_workload` as an
            // assertion; a panic is booked as a failure, not a crash.
            let result = tr.span("core.evaluate_residual_s", || {
                catch_unwind(AssertUnwindSafe(|| {
                    evaluate_workload(&pipeline, w, self.cfg)
                }))
            });
            let mut fp = Vec::new();
            match result {
                Ok(Ok(report)) => {
                    // Only the protected campaigns' stats come back from
                    // the call; the raw campaign's time stays in the
                    // residual.
                    let campaign_ns: u128 = report
                        .techniques
                        .iter()
                        .map(|t| t.campaign.stats.wall_nanos)
                        .sum();
                    tr.split_last(
                        "faultsim.campaign_s",
                        u64::try_from(campaign_ns).unwrap_or(u64::MAX),
                    );
                    book(&mut round, &mut fp, k, &report);
                    reports.push(report);
                }
                Ok(Err(e)) => round.fail(k, format!("{}: {e}", w.name)),
                Err(_) => round.fail(
                    k,
                    format!("{}: evaluation panicked (oracle mismatch)", w.name),
                ),
            }
            round.end_program(fp);
        }
        let rendered = tr.span("core.report_s", || {
            let mut out = render_coverage_table(&reports);
            out += &render_bars("SDC coverage per benchmark:", &reports, |t| t.coverage, 1.0);
            out += &render_overhead_table(&reports);
            out += &render_throughput_table(&reports);
            out
        });
        std::hint::black_box(rendered);
        round.close();
        round
    }
}

fn book(round: &mut Round, fp: &mut Vec<u64>, k: usize, r: &WorkloadReport) {
    fp.extend([
        r.raw_cycles,
        r.raw_static_insts as u64,
        r.raw_sdc_prob.to_bits(),
    ]);
    round.count("backend.static_insts", r.raw_static_insts as f64);
    round.count(
        "backend.insts_removed",
        r.raw_pass_stats.insts_removed() as f64,
    );
    round.count(cycles_key(None), r.raw_cycles as f64);
    for (t, label) in TECHNIQUES.iter().enumerate() {
        let Some(tr) = r.techniques.get(t) else {
            round.fail(k, format!("{}: no {label} report", r.name));
            continue;
        };
        if t > 0 && tr.coverage != 1.0 {
            round.fail(
                k,
                format!("{}/{label}: SDC coverage {} < 1", r.name, tr.coverage),
            );
        }
        round.cycles[t].push((r.raw_cycles, tr.cycles));
        round.static_insts[t].push((r.raw_static_insts as u64, tr.static_insts as u64));
        round.count(cycles_key(Some(t)), tr.cycles as f64);
        round.count(STATIC_KEYS[t], tr.static_insts as f64);
        round.count("cpu.golden_insts", tr.dyn_insts as f64);
        round
            .counts
            .insert("faultsim.threads", tr.campaign.stats.threads as f64);
        fp.extend([tr.cycles, tr.static_insts as u64, tr.dyn_insts]);
        book_campaign(round, fp, &tr.campaign);
    }
}

/// Books a campaign's stats and outcome tallies into `round` and
/// the fingerprint.
fn book_campaign(round: &mut Round, fp: &mut Vec<u64>, c: &CampaignResult) {
    let s = &c.stats;
    round.count("faultsim.outcomes", c.total() as f64);
    round.count("faultsim.injections", s.injections as f64);
    round.count(
        "faultsim.injections_executed",
        (s.injections - s.pruned_sites - s.reused_sites) as f64,
    );
    round.count("faultsim.steps_executed", s.steps_executed as f64);
    round.count("faultsim.steps_saved", s.steps_saved as f64);
    round.count("faultsim.snapshot_hits", s.snapshot_hits as f64);
    round.count("faultsim.balance_sum", s.worker_balance());
    round.count("faultsim.campaigns", 1.0);
    fp.extend([
        c.sdc as u64,
        c.detected as u64,
        c.crash as u64,
        c.timeout as u64,
        c.benign as u64,
    ]);
}
