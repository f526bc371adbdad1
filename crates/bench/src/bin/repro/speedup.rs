//! The campaign machinery's own speed: worker threads, coverage
//! pruning, the decoded engine, the flight recorder and incremental
//! campaigns, each against the plan it accelerates.
//!
//! Every table first checks that the plans it compares return
//! identical records, and fails naming the table and the workload when
//! they do not.  The file has two halves.  Above the [`TIMINGS`] marker are the
//! values a seed fixes, each rate printed as the counts it comes from,
//! so `repro check` compares them exactly.  Below it are host timings,
//! which `repro check` does not compare; the render itself fails when a
//! pruned speedup leaves [`PRUNED`], or a decoded one or their geomean
//! leaves [`DECODED`].

use std::sync::Arc;
use std::time::Instant;

use ferrum::flight::NdjsonSink;
use ferrum::{
    all_workloads, program_signature, Build, Campaign, CampaignCache, CampaignConfig,
    CampaignResult, CoverageMap, Engine, EngineKind, Error, FlightRecorder, Pipeline, Reuse,
    Technique,
};
use ferrum_asm::inst::Inst;
use ferrum_asm::program::AsmInst;
use ferrum_cpu::run::Cpu;
use ferrum_mir::builder::FunctionBuilder;
use ferrum_mir::module::{Global, Module};
use ferrum_mir::types::Ty;
use ferrum_mir::value::Value;

use crate::{Columns, Opts};

/// Worker threads of the workers and latency tables' parallel plans.
const THREADS: usize = 4;
/// Runs of each pruned and recorder configuration, of which the
/// fastest is printed: one campaign lasts milliseconds, so a single
/// scheduler interrupt would otherwise swamp the ratio it prices.
const REPS: usize = 2;
/// The line after which every line is a host timing.
pub const TIMINGS: &str = "host timings";
/// The range every pruned-vs-serial speedup must lie in.
const PRUNED: (f64, f64) = (1.0, 16.0);
/// The range every decoded-vs-interpreter speedup, and their geomean,
/// must lie in.
const DECODED: (f64, f64) = (1.25, 37.0);

/// One catalog workload's raw and FERRUM builds, which every catalog
/// table reads.
struct Built {
    name: &'static str,
    raw: Build,
    ferrum: Build,
}

/// The file's two halves, filled table by table.
#[derive(Default)]
struct Out {
    checked: String,
    timings: String,
}

impl Out {
    /// Opens a table in both halves, each under its own header.
    fn table(&mut self, title: &str, checked: Option<String>, timings: String) {
        if let Some(header) = checked {
            self.checked += &format!("\n{title}\n{header}");
        }
        self.timings += &format!("\n{title}\n{timings}");
    }
}

/// Speedup tables at `o`'s campaign configuration (`--samples`,
/// `--seed`, `--scale`).
pub fn speedup(_: &mut crate::Ctx, o: &Opts) -> Result<String, Error> {
    let c = CampaignConfig {
        samples: o.cfg.samples,
        seed: o.cfg.seed,
    };
    let pipeline = Pipeline::new();
    let suite = all_workloads()
        .iter()
        .map(|w| {
            let module = w.build(o.cfg.scale);
            let raw = pipeline.build(&module, Technique::None)?;
            let ferrum = pipeline.build(&module, Technique::Ferrum)?;
            Ok(Built {
                name: w.name,
                raw,
                ferrum,
            })
        })
        .collect::<Result<Vec<_>, Error>>()?;
    let mut out = Out::default();
    workers(&mut out, &suite, c)?;
    latency(&mut out, &suite, c)?;
    pruned(&mut out, &suite, c)?;
    decoded(&mut out, &suite, c)?;
    recorder(&mut out, &suite, c)?;
    incremental(&mut out, &pipeline, c)?;
    let (samples, seed, scale) = (o.cfg.samples, o.cfg.seed, o.cfg.scale);
    Ok(format!(
        "campaign-engine speedup — {samples} faults, seed {seed:#x}, {scale:?} scale\n\
         the plans each table compares return identical records\n{}\n\
         {TIMINGS} (not compared; a pruned speedup must lie in [{}, {}], \
         a decoded one and their geomean in [{}, {}])\n{}",
        out.checked, PRUNED.0, PRUNED.1, DECODED.0, DECODED.1, out.timings
    ))
}

/// The error for two plans of `table` that disagree on `workload`.
fn diverged(table: &str, workload: &str, what: &str) -> Error {
    Error::msg(format!("{table}/{workload}: {what}"))
}

/// `Ok` when `speedup` lies in `range`.
fn in_range(table: &str, row: &str, speedup: f64, range: (f64, f64)) -> Result<(), Error> {
    if (range.0..=range.1).contains(&speedup) {
        return Ok(());
    }
    Err(Error::msg(format!(
        "{table}/{row}: speedup {speedup:.2}x outside [{}, {}]",
        range.0, range.1
    )))
}

fn ips(r: &CampaignResult) -> String {
    format!("{:.0}", r.stats.injections_per_sec)
}

/// A configuration's first campaign result and its best injections/sec.
type Best = (CampaignResult, f64);

/// Runs `a` and `b` interleaved, so host drift reaches both alike,
/// [`REPS`] times each, and returns their first results with each
/// one's best injections/sec.
fn best_of_reps(
    a: impl Fn() -> Result<CampaignResult, Error>,
    b: impl Fn() -> Result<CampaignResult, Error>,
) -> Result<(Best, Best), Error> {
    let (ra, rb) = (a()?, b()?);
    let (mut ia, mut ib) = (ra.stats.injections_per_sec, rb.stats.injections_per_sec);
    for _ in 1..REPS {
        ia = ia.max(a()?.stats.injections_per_sec);
        ib = ib.max(b()?.stats.injections_per_sec);
    }
    Ok(((ra, ia), (rb, ib)))
}

fn times(x: f64) -> String {
    format!("{x:.2}x")
}

/// The one plan on one worker and on [`THREADS`] work-stealing ones,
/// on the raw programs and the interpreter.  Where each fault starts
/// and what it executes does not depend on the worker, so the counts
/// agree too.
fn workers(out: &mut Out, suite: &[Built], c: CampaignConfig) -> Result<(), Error> {
    let checked = Columns(&[16, 11, 12, 14, 16]);
    let timed = Columns(&[16, 14, 14, 10, 10]);
    let header = ["snap hits", "injections", "steps saved", "steps executed"];
    let threads_ips = format!("{THREADS} workers i/s");
    out.table(
        &format!("1 vs {THREADS} workers (raw programs, interpreter)"),
        Some(checked.line("benchmark", header)),
        timed.line(
            "benchmark",
            ["1 worker i/s", threads_ips.as_str(), "speedup", "balance"],
        ),
    );
    for b in suite {
        let (engine, profile) = (b.raw.engine(EngineKind::Interpreter), b.raw.profile());
        let plan = Campaign::sampled(c);
        let one = plan.run(engine, profile)?;
        let many = plan.threads(THREADS).run(engine, profile)?;
        let counts = |s: &ferrum::CampaignStats| {
            [
                s.snapshot_hits as u64,
                s.injections as u64,
                s.steps_saved,
                s.steps_executed,
            ]
        };
        if one != many
            || one.stats.latency != many.stats.latency
            || counts(&one.stats) != counts(&many.stats)
        {
            let what = format!("1 and {THREADS} workers disagree");
            return Err(diverged("workers", b.name, &what));
        }
        out.checked += &checked.line(b.name, counts(&many.stats));
        let speedup = many.stats.injections_per_sec / one.stats.injections_per_sec;
        let balance = format!("{:.2}", many.stats.worker_balance());
        out.timings += &timed.line(b.name, [ips(&one), ips(&many), times(speedup), balance]);
    }
    Ok(())
}

/// FERRUM's injection-to-detection distance on [`THREADS`] workers.
fn latency(out: &mut Out, suite: &[Built], c: CampaignConfig) -> Result<(), Error> {
    let checked = Columns(&[16, 10, 8, 8, 8]);
    let timed = Columns(&[16, 10]);
    out.table(
        &format!("detection latency (FERRUM, snapshot executor, interpreter, {THREADS} threads)"),
        Some(checked.line("benchmark", ["detected", "p50", "p95", "max"])),
        timed.line("benchmark", ["balance"]),
    );
    let plan = Campaign::sampled(c).threads(THREADS);
    for b in suite {
        let snap = plan.run(b.ferrum.engine(EngineKind::Interpreter), b.ferrum.profile())?;
        let lat = &snap.stats.latency;
        let cell = |v: Option<u64>| v.map_or_else(|| "-".into(), |v| v.to_string());
        let cells = [
            lat.count().to_string(),
            cell(lat.p50()),
            cell(lat.p95()),
            cell(lat.max()),
        ];
        out.checked += &checked.line(b.name, cells);
        out.timings += &timed.line(b.name, [format!("{:.2}", snap.stats.worker_balance())]);
    }
    Ok(())
}

/// FERRUM's serial campaign with and without a coverage map to prune,
/// on the interpreter, best of [`REPS`].  Pruning saves
/// `1 - pruned/serial` of the serial campaign's steps.
fn pruned(out: &mut Out, suite: &[Built], c: CampaignConfig) -> Result<(), Error> {
    let checked = Columns(&[16, 8, 9, 14, 14]);
    let timed = Columns(&[16, 12, 12, 10]);
    out.table(
        "coverage-pruned executor vs serial (FERRUM, interpreter, 1 thread)",
        Some(checked.line(
            "benchmark",
            ["pruned", "sampled", "serial steps", "pruned steps"],
        )),
        timed.line("benchmark", ["serial i/s", "pruned i/s", "speedup"]),
    );
    for b in suite {
        let (engine, profile) = (b.ferrum.engine(EngineKind::Interpreter), b.ferrum.profile());
        let map = CoverageMap::analyze(b.ferrum.program());
        let plan = Campaign::sampled(c);
        let ((serial, serial_ips), (pruned, pruned_ips)) = best_of_reps(
            || Ok(plan.run(engine, profile)?),
            || Ok(plan.prune(&map).run(engine, profile)?),
        )?;
        if serial != pruned {
            return Err(diverged(
                "pruned",
                b.name,
                "pruned and serial executors disagree",
            ));
        }
        let (s, p) = (&serial.stats, &pruned.stats);
        let counts = [
            p.pruned_sites as u64,
            p.injections as u64,
            s.steps_executed,
            p.steps_executed,
        ];
        out.checked += &checked.line(b.name, counts);
        let speedup = pruned_ips / serial_ips;
        let cells = [
            format!("{serial_ips:.0}"),
            format!("{pruned_ips:.0}"),
            times(speedup),
        ];
        out.timings += &timed.line(b.name, cells);
        in_range("pruned", b.name, speedup, PRUNED)?;
    }
    Ok(())
}

/// FERRUM's campaign on the decoded engine against the interpreter,
/// one thread each.
fn decoded(out: &mut Out, suite: &[Built], c: CampaignConfig) -> Result<(), Error> {
    let checked = Columns(&[16, 18]);
    let timed = Columns(&[16, 12, 12, 10]);
    out.table(
        "decoded engine vs interpreter (FERRUM, snapshot executor, 1 thread)",
        Some(checked.line("benchmark", ["superinstructions"])),
        timed.line("benchmark", ["interp i/s", "decoded i/s", "speedup"]),
    );
    let plan = Campaign::sampled(c);
    let mut log_sum = 0.0;
    for b in suite {
        let interp = plan.run(b.ferrum.engine(EngineKind::Interpreter), b.ferrum.profile())?;
        let fast = plan.run(b.ferrum.engine(EngineKind::Decoded), b.ferrum.profile())?;
        if interp != fast || interp.stats.latency != fast.stats.latency {
            return Err(diverged(
                "decoded",
                b.name,
                "decoded engine and interpreter disagree",
            ));
        }
        out.checked += &checked.line(b.name, [b.ferrum.decoded().superinstructions()]);
        let speedup = fast.stats.injections_per_sec / interp.stats.injections_per_sec;
        out.timings += &timed.line(b.name, [ips(&interp), ips(&fast), times(speedup)]);
        in_range("decoded", b.name, speedup, DECODED)?;
        log_sum += speedup.ln();
    }
    let geomean = (log_sum / suite.len().max(1) as f64).exp();
    out.timings += &format!("geomean speedup: {}\n", times(geomean));
    in_range("decoded", "geomean", geomean, DECODED)
}

/// FERRUM's campaign on the decoded engine, bare and observed
/// by a recorder that serializes every event to a null sink, so the
/// overhead is the probes and the NDJSON writer without disk IO.
fn recorder(out: &mut Out, suite: &[Built], c: CampaignConfig) -> Result<(), Error> {
    let timed = Columns(&[16, 12, 12, 10]);
    out.table(
        &format!(
            "flight-recorder overhead (FERRUM, decoded engine, snapshot executor, 1 thread, \
             NDJSON to a null sink, best of {REPS})"
        ),
        None,
        timed.line("benchmark", ["off i/s", "on i/s", "overhead"]),
    );
    let mut log_sum = 0.0;
    for b in suite {
        let recorder = FlightRecorder::new(Arc::new(NdjsonSink::new(Box::new(std::io::sink()))))
            .with_labels(b.name, "ferrum")
            .with_program_hash(program_signature(b.ferrum.program()));
        let run = |recorded: bool| {
            let plan = Campaign::sampled(c).observe(recorded.then_some(&recorder));
            Ok(plan.run(b.ferrum.engine(EngineKind::Decoded), b.ferrum.profile())?)
        };
        let ((off, off_ips), (on, on_ips)) = best_of_reps(|| run(false), || run(true))?;
        if off != on {
            return Err(diverged(
                "recorder",
                b.name,
                "recording changed the records",
            ));
        }
        let ratio = on_ips / off_ips;
        log_sum += ratio.ln();
        let overhead = format!("{:.2}%", (1.0 - ratio) * 100.0);
        out.timings += &timed.line(
            b.name,
            [format!("{off_ips:.0}"), format!("{on_ips:.0}"), overhead],
        );
    }
    let geomean = 1.0 - (log_sum / suite.len().max(1) as f64).exp();
    out.timings += &format!("geomean overhead: {:.2}%\n", geomean * 100.0);
    Ok(())
}

/// A multi-function program for the incremental table: `main` sums
/// six helpers over a global table.  The catalog workloads compile to
/// a single function, so an edit there invalidates the whole cache;
/// this shape gives the incremental executor untouched shards to
/// reuse, which is the FastFlip scenario (edit one section, re-inject
/// only that section).
fn multi_function_module(helpers: usize, chain: usize) -> Module {
    let mut module = Module::new();
    let g = module.add_global(Global::new("tab", vec![3, 1, 4, 1, 5, 9, 2, 6]));
    for h in 0..helpers {
        let mut f = FunctionBuilder::new(format!("helper{h}"), &[Ty::I64], Some(Ty::I64));
        let mut x = Value::Arg(0);
        for i in 0..chain {
            let k = f.iconst(Ty::I64, (h * chain + i) as i64 % 7 + 1);
            let m = f.mul(Ty::I64, x, Value::const_int(Ty::I64, 3));
            x = f.add(Ty::I64, m, k);
        }
        f.ret(Some(x));
        module.functions.push(f.finish());
    }
    let mut b = FunctionBuilder::new("main", &[], None);
    let base = b.global(g);
    let mut acc = b.iconst(Ty::I64, 0);
    for i in 0..8 {
        let idx = b.iconst(Ty::I64, i);
        let p = b.gep(base, idx);
        let v = b.load(Ty::I64, p);
        for h in 0..helpers {
            let d = b
                .call(format!("helper{h}"), vec![v], Some(Ty::I64))
                .expect("returns a value");
            acc = b.add(Ty::I64, acc, d);
        }
    }
    b.print(acc);
    b.ret(None);
    module.functions.push(b.finish());
    module
}

/// A stratified FERRUM campaign on the multi-function program, after a
/// synthetic `nop` edits one function, re-run in full and incrementally
/// from the unedited program's shard cache, on the interpreter.
fn incremental(out: &mut Out, pipeline: &Pipeline, c: CampaignConfig) -> Result<(), Error> {
    let checked = Columns(&[16, 12, 12]);
    let timed = Columns(&[16, 12, 12, 10]);
    out.table(
        "incremental campaign after one edit (FERRUM, multi-function program, interpreter)",
        Some(checked.line("edited fn", ["reinjected", "reused"])),
        timed.line("edited fn", ["full ms", "incr ms", "speedup"]),
    );
    let built = pipeline.build(&multi_function_module(6, 24), Technique::Ferrum)?;
    let (base, base_profile) = (built.program(), built.profile());
    let base_result =
        Campaign::stratified(c, base).run(built.engine(EngineKind::Interpreter), base_profile)?;
    let cache = CampaignCache::from_result(base, base_profile, c, &base_result);
    for (i, f) in base.functions.iter().enumerate() {
        let mut edited = base.clone();
        edited.functions[i].blocks[0]
            .insts
            .insert(0, AsmInst::synthetic(Inst::Nop));
        let cpu = Cpu::load(&edited)?;
        let profile = cpu.profile();
        let plan = Campaign::stratified(c, &edited);
        let t0 = Instant::now();
        let full = plan.run(Engine::Interpreter(&cpu), &profile)?;
        let t_full = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let inc = plan
            .reuse(Reuse::Cache(&cache))
            .run(Engine::Interpreter(&cpu), &profile)?;
        let t_inc = t1.elapsed().as_secs_f64();
        if full != inc {
            return Err(diverged(
                "incremental",
                &f.name,
                "incremental and full runs disagree",
            ));
        }
        let reused = inc.stats.reused_sites;
        out.checked += &checked.line(&f.name, [inc.total() - reused, reused]);
        let cells = [
            format!("{:.1}", t_full * 1e3),
            format!("{:.1}", t_inc * 1e3),
            times(t_full / t_inc.max(1e-9)),
        ];
        out.timings += &timed.line(&f.name, cells);
    }
    Ok(())
}
