//! Experiments beyond the paper's figures: design-choice ablations,
//! the extensions the paper names as future work, native timing,
//! escape forensics, and the static coverage maps.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use ferrum::{
    all_workloads, forensic_report, Campaign, CampaignConfig, CostModel, CoverageMap, EngineKind,
    Error, EscapeReason, ForensicConfig, OptLevel, Pipeline, SummaryMap, Technique,
};
use ferrum_arm::exec::{profile, run, ArmFault, ArmOutcome};
use ferrum_arm::kernels::{scale_add, sum_gt};
use ferrum_arm::neon::protect_neon;
use ferrum_arm::program::ArmProgram;
use ferrum_asm::AsmProgram;
use ferrum_eddi::ferrum::FerrumConfig;
use ferrum_faultsim::stats::{runtime_overhead, sdc_coverage};
use ferrum_mir::module::Module;

use crate::figures::average_overheads;
use crate::{campaign, pct, Columns, Ctx, Opts};

/// Per workload: the module, the raw program's fault-free cycles and
/// its SDC probability over `Campaign::sampled` at the configured seed.
/// None of them depends on the FERRUM configuration or on the
/// protection discount, so the FERRUM sweeps measure them once.
fn raw_baselines(o: &Opts) -> Result<Vec<(Module, u64, f64)>, Error> {
    let pipeline = Pipeline::new();
    let plan = Campaign::sampled(CampaignConfig {
        samples: o.cfg.samples,
        seed: o.cfg.seed,
    });
    all_workloads()
        .iter()
        .map(|w| {
            let module = w.build(o.cfg.scale);
            let raw = pipeline.build(&module, Technique::None)?;
            let sdc = campaign(&raw, plan)?.sdc_prob();
            Ok((module, raw.profile().result.cycles, sdc))
        })
        .collect()
}

/// FERRUM under `pipeline` against the raw baselines: the suite's
/// average runtime overhead and SDC coverage, as percentages.
fn ferrum_averages(
    pipeline: &Pipeline,
    raw: &[(Module, u64, f64)],
    o: &Opts,
) -> Result<[String; 2], Error> {
    let plan = Campaign::sampled(CampaignConfig {
        samples: o.cfg.samples,
        seed: o.cfg.seed.wrapping_add(1),
    });
    let (mut overhead, mut coverage) = (0.0, 0.0);
    for (module, raw_cycles, raw_sdc) in raw {
        let ferrum = pipeline.build(module, Technique::Ferrum)?;
        let sdc = campaign(&ferrum, plan)?.sdc_prob();
        overhead += runtime_overhead(*raw_cycles, ferrum.profile().result.cycles);
        coverage += sdc_coverage(*raw_sdc, sdc);
    }
    let n = raw.len() as f64;
    Ok([pct(overhead / n), pct(coverage / n)])
}

/// Ablations over FERRUM's design choices (DESIGN.md §4): SIMD
/// batching, deferred flag detection, the peephole, forced
/// requisition (the Fig.-7 stack path everywhere), ZMM batches of
/// eight, and a serial machine without the co-issue discount.
pub fn ablation(_: &mut Ctx, o: &Opts) -> Result<String, Error> {
    let full = FerrumConfig::default();
    let with = |edit: fn(&mut FerrumConfig)| {
        let mut cfg = full;
        edit(&mut cfg);
        cfg
    };
    let cost = CostModel::default();
    let serial = CostModel {
        protection_percent: 100,
        ..cost
    };
    let variants = [
        ("full FERRUM", full, cost),
        ("no SIMD", with(|c| c.simd = false), cost),
        (
            "no deferred flags",
            with(|c| c.deferred_flags = false),
            cost,
        ),
        ("no peephole", with(|c| c.peephole = false), cost),
        (
            "forced requisition",
            with(|c| c.force_requisition = true),
            cost,
        ),
        ("ZMM (AVX-512) batches", with(|c| c.zmm = true), cost),
        ("serial machine", full, serial),
    ];
    let raw = raw_baselines(o)?;
    let cols = Columns(&[22, 14, 14]);
    let (samples, scale) = (o.cfg.samples, o.cfg.scale);
    let mut out = format!("FERRUM ablations — {samples} faults/config, {scale:?} scale\n");
    out += &cols.line("variant", ["overhead", "coverage"]);
    for (name, fcfg, cost) in variants {
        let pipeline = Pipeline::new()
            .with_ferrum_config(fcfg)
            .with_cost_model(cost);
        out += &cols.line(name, ferrum_averages(&pipeline, &raw, o)?);
    }
    Ok(out)
}

/// Selective protection (the paper's related work, SDCTune \[9\] and
/// \[19\]): FERRUM's `selective_percent` stripes protection evenly
/// over the site stream, tracing the coverage/overhead curve.
pub fn selective(_: &mut Ctx, o: &Opts) -> Result<String, Error> {
    let raw = raw_baselines(o)?;
    let cols = Columns(&[10, 14, 14]);
    let (samples, scale) = (o.cfg.samples, o.cfg.scale);
    let mut out = format!(
        "selective FERRUM sweep — {samples} faults/config, {scale:?} scale (suite averages)\n"
    );
    out += &cols.line(&format!("{:>10}", "percent"), ["overhead", "coverage"]);
    for percent in [0u8, 25, 50, 75, 100] {
        let pipeline = Pipeline::new().with_ferrum_config(FerrumConfig {
            selective_percent: percent,
            ..FerrumConfig::default()
        });
        let averages = ferrum_averages(&pipeline, &raw, o)?;
        out += &cols.line(&format!("{percent:>9}%"), averages);
    }
    Ok(out)
}

/// Double-fault campaigns (the paper's future work, §II-A): two
/// independent single-bit faults per run.  Duplication is built for
/// single faults, so coverage may drop below 100%; this measures by
/// how much.
pub fn multibit(_: &mut Ctx, o: &Opts) -> Result<String, Error> {
    let pipeline = Pipeline::new();
    let c = CampaignConfig {
        samples: o.cfg.samples,
        seed: o.cfg.seed,
    };
    let cols = Columns(&[16, 12, 14, 14, 16]);
    let (samples, scale) = (o.cfg.samples, o.cfg.scale);
    let mut out =
        format!("double-fault extension — {samples} fault pairs/config, {scale:?} scale\n");
    let header = ["raw 2-SDC", "FERRUM cov.", "single cov.", "FERRUM 2-SDCs"];
    out += &cols.line("benchmark", header);
    let workloads = all_workloads();
    let mut cov2_sum = 0.0;
    for w in &workloads {
        let module = w.build(o.cfg.scale);
        let raw = pipeline.build(&module, Technique::None)?;
        let prot = pipeline.build(&module, Technique::Ferrum)?;
        let raw2 = campaign(&raw, Campaign::double(c))?;
        let prot2 = campaign(&prot, Campaign::double(c))?;
        let raw1 = campaign(&raw, Campaign::sampled(c))?;
        let prot1 = campaign(&prot, Campaign::sampled(c))?;
        let cov2 = sdc_coverage(raw2.sdc_prob(), prot2.sdc_prob());
        let cov1 = sdc_coverage(raw1.sdc_prob(), prot1.sdc_prob());
        cov2_sum += cov2;
        let cells = [
            pct(raw2.sdc_prob()),
            pct(cov2),
            pct(cov1),
            prot2.sdc.to_string(),
        ];
        out += &cols.line(w.name, cells);
    }
    out += &format!(
        "\naverage FERRUM double-fault coverage: {:.2}% (single-fault: 100%)\n",
        cov2_sum / workloads.len() as f64 * 100.0
    );
    out += "a drop below 100% here is expected and motivates the paper's future work\n";
    Ok(out)
}

const ARM_BITS: [u16; 8] = [0, 1, 3, 7, 15, 31, 47, 63];

/// SDC, detected, crash and benign counts of a single-bit sweep over
/// every dynamic site of `p`.
fn arm_sweep(p: &ArmProgram) -> [u64; 4] {
    let (prof, clean) = profile(p);
    let mut counts = [0; 4];
    for &dyn_index in &prof.sites {
        for raw_bit in ARM_BITS {
            let r = run(p, Some(ArmFault { dyn_index, raw_bit }));
            counts[match r.outcome {
                ArmOutcome::Detected => 1,
                ArmOutcome::Crash | ArmOutcome::Timeout => 2,
                ArmOutcome::Completed if r.x0 != clean.x0 || r.data != clean.data => 0,
                ArmOutcome::Completed => 3,
            }] += 1;
        }
    }
    counts
}

/// The AArch64/NEON port (the paper's §III-B5 future work): the two
/// A64 kernels raw and FERRUM-NEON-protected, swept exhaustively.
pub fn arm(_: &mut Ctx, _: &Opts) -> Result<String, Error> {
    let cols = Columns(&[22, 8, 10, 8, 8, 12, 12]);
    let mut out = format!(
        "AArch64/NEON port — exhaustive single-bit sweep ({} bits/site)\n",
        ARM_BITS.len()
    );
    let header = [
        "SDC",
        "detected",
        "crash",
        "benign",
        "raw cycles",
        "prot cycles",
    ];
    out += &cols.line("kernel", header);
    let data = vec![12, -5, 33, 7, -19, 4, 28, 1];
    for (name, p) in [
        ("sum_gt", sum_gt(data.clone(), 5)),
        ("scale_add", scale_add(data, 3)),
    ] {
        let prot = protect_neon(&p).map_err(|e| Error::msg(format!("{name}: {e}")))?;
        let counts = arm_sweep(&prot);
        let cycles = [run(&p, None).cycles, run(&prot, None).cycles];
        let label = format!("{name} (raw SDC {})", arm_sweep(&p)[0]);
        out += &cols.line(&label, counts.into_iter().chain(cycles));
        if counts[0] != 0 {
            return Err(Error::msg(format!(
                "{name}: {} SDCs under the NEON port, which keeps full coverage",
                counts[0]
            )));
        }
    }
    out += "\nA64 notes: three-operand data processing removes every pre-copy replay;\n\
            flag-free checkers (eor+cbnz) make deferred detection unnecessary;\n\
            two-lane NEON batches tie with scalar checks (wider vectors are the win).\n";
    Ok(out)
}

const NATIVE_ITERS: u32 = 3000;
const NATIVE_REPS: usize = 7;

/// Assembles `prog`'s timing harness with `gcc` into `path` and returns
/// its best wall time over [`NATIVE_REPS`] runs, in seconds.
fn native_seconds(prog: &AsmProgram, path: &Path) -> Result<f64, Error> {
    let s_path = path.with_extension("s");
    let io = |e: std::io::Error| Error::msg(format!("{}: {e}", path.display()));
    let asm = ferrum_asm::gnu::emit_gnu_timing(prog, NATIVE_ITERS);
    std::fs::write(&s_path, asm).map_err(io)?;
    let gcc = Command::new("gcc")
        .arg("-no-pie")
        .arg("-o")
        .arg(path)
        .arg(&s_path)
        .output()
        .map_err(io)?;
    if !gcc.status.success() {
        return Err(Error::msg(String::from_utf8_lossy(&gcc.stderr)));
    }
    let mut best = f64::MAX;
    for _ in 0..NATIVE_REPS {
        let t0 = Instant::now();
        if !Command::new(path).output().map_err(io)?.status.success() {
            return Err(Error::msg(format!("{} failed", path.display())));
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    Ok(best)
}

/// Fig. 11 on real silicon: each benchmark × technique assembled with
/// `gcc` and timed natively — the empirical check on the simulator's
/// cost model.  The closing line gives the simulated averages of the
/// same programs (fig11's average row at the same `--scale`).  Needs
/// x86-64 Linux with gcc and AVX2.
pub fn native(ctx: &mut Ctx, o: &Opts) -> Result<String, Error> {
    let available = cfg!(all(target_arch = "x86_64", target_os = "linux"))
        && Command::new("gcc").arg("--version").output().is_ok()
        && std::fs::read_to_string("/proc/cpuinfo")
            .unwrap_or_default()
            .contains("avx2");
    if !available {
        return Err(Error::msg("native timing needs x86-64 Linux, gcc and AVX2"));
    }
    let dir = std::env::temp_dir().join(format!("ferrum_timing_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| Error::msg(format!("{}: {e}", dir.display())))?;
    let table = native_table(o, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let [ir, hybrid, ferrum] = average_overheads(&ctx.sweep(o.cfg)?).map(|x| x * 100.0);
    Ok(table?
        + &format!(
            "\n(simulated averages for comparison: IR {ir:.1}%, HYBRID {hybrid:.1}%, FERRUM {ferrum:.1}%)\n"
        ))
}

fn native_table(o: &Opts, dir: &Path) -> Result<String, Error> {
    let pipeline = Pipeline::new();
    // FERRUM with SIMD batching disabled isolates the cost of the
    // GPR→vector capture traffic.
    let no_simd = Pipeline::new().with_ferrum_config(FerrumConfig {
        simd: false,
        ..FerrumConfig::default()
    });
    let cols = Columns(&[16, 12, 14, 14, 14, 14]);
    let mut out = format!(
        "Fig. 11 on real hardware — {NATIVE_ITERS} kernel iterations, best of {NATIVE_REPS} \
         runs, {:?} scale\n",
        o.cfg.scale
    );
    let header = [
        "raw (ms)",
        "IR-EDDI",
        "HYBRID-ASM",
        "FERRUM",
        "FERRUM-noSIMD",
    ];
    out += &cols.line("benchmark", header);
    let mut sums = [0.0f64; 4];
    let workloads = all_workloads();
    for w in &workloads {
        let module = w.build(o.cfg.scale);
        let raw = pipeline.build(&module, Technique::None)?;
        let raw_t = native_seconds(raw.program(), &dir.join(format!("{}_raw", w.name)))?;
        let mut builds = Vec::new();
        for t in Technique::PROTECTED {
            builds.push(pipeline.build(&module, t)?);
        }
        builds.push(no_simd.build(&module, Technique::Ferrum)?);
        let mut cells = vec![format!("{:.2}", raw_t * 1e3)];
        for (i, (sum, build)) in sums.iter_mut().zip(&builds).enumerate() {
            let bin = dir.join(format!("{}_{i}", w.name));
            let overhead = native_seconds(build.program(), &bin)? / raw_t - 1.0;
            *sum += overhead;
            cells.push(pct(overhead));
        }
        out += &cols.line(w.name, cells);
    }
    let n = workloads.len() as f64;
    let averages = sums.map(|s| pct(s / n));
    out += &cols.line("average", [String::new()].into_iter().chain(averages));
    Ok(out)
}

/// The forensics columns after "SDCs": a heading and the escape
/// reasons it counts.
const ESCAPES: [(&str, &[EscapeReason]); 6] = [
    ("dup-corr", &[EscapeReason::DupAlsoCorrupted]),
    ("masked", &[EscapeReason::MaskedBeforeCheck]),
    (
        "blind",
        &[
            EscapeReason::CheckerBlind,
            EscapeReason::BatchFlushedEarly,
            EscapeReason::DeferredFlagOverwritten,
        ],
    ),
    ("no-check", &[EscapeReason::CheckerNotReached]),
    ("escaped", &[EscapeReason::StoreEscapedWindow]),
    ("ctl-div", &[EscapeReason::ControlFlowDiverged]),
];

/// Differential-replay forensics: every residual SDC of every workload
/// and protected technique replayed and classified by why it escaped —
/// the per-incident companion to the root-cause table.
pub fn forensics(_: &mut Ctx, o: &Opts) -> Result<String, Error> {
    let pipeline = Pipeline::new();
    let fcfg = ForensicConfig {
        max_records: usize::MAX,
        ..ForensicConfig::default()
    };
    let plan = Campaign::sampled(CampaignConfig {
        samples: o.cfg.samples,
        seed: o.cfg.seed,
    });
    let cols = Columns(&[40, 6, 10, 10, 10, 10, 10, 10]);
    let mut out = String::from("escape-reason forensics of residual SDCs (per technique)\n");
    let header = ["SDCs"].into_iter().chain(ESCAPES.map(|(h, _)| h));
    out += &cols.line("benchmark/technique", header);
    let mut totals = [0usize; 7];
    for w in all_workloads() {
        let module = w.build(o.cfg.scale);
        for technique in Technique::PROTECTED {
            let name = format!("{}/{technique}", w.name);
            let build = pipeline.build(&module, technique)?;
            let result = campaign(&build, plan)?;
            let engine = build.engine(EngineKind::default());
            let report = forensic_report(engine, build.profile(), &result, &fcfg)?;
            // Classified records are analysed ones, which are matching ones.
            if report.classified() != report.matching_total {
                return Err(Error::msg(format!(
                    "{name}: {} of {} SDCs analysed and classified, not all",
                    report.classified(),
                    report.matching_total
                )));
            }
            let mut row = [result.sdc; 7];
            for (cell, (_, reasons)) in row[1..].iter_mut().zip(ESCAPES) {
                let hist = report.reason_histogram.iter();
                *cell = hist
                    .filter(|(r, _)| reasons.contains(r))
                    .map(|&(_, n)| n)
                    .sum();
            }
            out += &cols.line(&name, row);
            for (t, x) in totals.iter_mut().zip(row) {
                *t += x;
            }
        }
    }
    out += &cols.line("total", totals);
    out += &format!(
        "\nclassified escapes: {} of {} residual SDCs\n",
        totals[1..].iter().sum::<usize>(),
        totals[0]
    );
    Ok(out)
}

/// Static coverage maps (DESIGN.md §5d, §5g) on the catalog.  First
/// FERRUM at `-O0`: sites, the share of units the analysis decides,
/// and the prune and measured detection rates of a pruned sampled
/// campaign.  Then every protected technique at `-O0` and `-O1`: the
/// verdict rollup of `CoverageMap::analyze` and the escape classes of
/// `SummaryMap::build`, so regenerating the file checks that the
/// analyses change no verdict and no escape footprint.
pub fn coverage(_: &mut Ctx, o: &Opts) -> Result<String, Error> {
    let (samples, seed, scale) = (o.cfg.samples, o.cfg.seed, o.cfg.scale);
    let plan = Campaign::sampled(CampaignConfig { samples, seed });
    let workloads = all_workloads();
    let modules: Vec<_> = workloads.iter().map(|w| w.build(scale)).collect();
    let o0 = Pipeline::new();
    let cols = Columns(&[16, 8, 10, 10, 10]);
    let mut out = format!("static coverage maps — {scale:?} scale\n");
    out += &format!("FERRUM -O0, {samples}-fault pruned campaign per benchmark, seed {seed:#x}\n");
    out += &cols.line("benchmark", ["sites", "decided", "prune", "detected"]);
    for (w, module) in workloads.iter().zip(&modules) {
        let ferrum = o0.build(module, Technique::Ferrum)?;
        let map = CoverageMap::analyze(ferrum.program());
        let r = campaign(&ferrum, plan.prune(&map))?;
        let (prune, detected) = (
            r.stats.prune_rate(),
            r.detected as f64 / r.total().max(1) as f64,
        );
        let decided = pct(map.rollup().decided_fraction());
        out += &cols.line(
            w.name,
            [
                map.total_sites().to_string(),
                decided,
                pct(prune),
                pct(detected),
            ],
        );
    }
    let cols = Columns(&[46, 8, 10, 12, 9, 8, 10, 8, 12]);
    out += "\nverdict units (CoverageMap) and escape classes (SummaryMap)\n";
    let header = [
        "masked",
        "detected",
        "vulnerable",
        "unknown",
        "clean",
        "register",
        "wide",
        "may_detect",
    ];
    out += &cols.line("benchmark/technique/opt", header);
    for opt in [OptLevel::O0, OptLevel::O1] {
        let pipeline = Pipeline::new().with_opt_level(opt);
        for (w, module) in workloads.iter().zip(&modules) {
            for technique in Technique::PROTECTED {
                let prog = pipeline.protect(module, technique)?;
                let map = CoverageMap::analyze(&prog);
                let e = SummaryMap::build(&prog, &map).escape_rollup(&map);
                let v = map.rollup();
                let cells = [v.masked, v.detected, v.vulnerable, v.unknown]
                    .into_iter()
                    .chain([e.clean, e.register, e.wide, e.may_detect]);
                out += &cols.line(&format!("{}/{technique}/-{opt}", w.name), cells);
            }
        }
    }
    Ok(out)
}
