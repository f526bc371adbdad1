//! The paper's own tables and figures (§IV).

use std::time::Instant;

use ferrum::report::{render_bars, render_coverage_table, render_throughput_table, to_json};
use ferrum::{all_workloads, Error, OptLevel, Pipeline, Technique, WorkloadReport};
use ferrum_eddi::ferrum::Ferrum;

use crate::{pct, Columns, Ctx, Opts};

/// Fig. 10: SDC coverage per benchmark for IR-LEVEL-EDDI,
/// HYBRID-ASSEMBLY-LEVEL-EDDI and FERRUM under assembly-level fault
/// injection.  `--json` prints the full reports without their records.
///
/// Paper reference points: FERRUM and the hybrid baseline reach 100%
/// everywhere; IR-level EDDI averages 72%, bottoming out around 50–54%
/// on kNN and Needle.
pub fn fig10(ctx: &mut Ctx, o: &Opts) -> Result<String, Error> {
    let reports = ctx.sweep(o.cfg)?;
    if o.json {
        let mut slim = reports.to_vec();
        for t in slim.iter_mut().flat_map(|r| &mut r.techniques) {
            t.campaign.records.clear();
        }
        return Ok(format!("{}\n", to_json(&slim)));
    }
    let mut out = String::from("Fig. 10 — SDC coverage (higher is better)\n");
    out += &render_coverage_table(&reports);
    out += "\n";
    out += &render_bars("SDC coverage per benchmark:", &reports, |t| t.coverage, 1.0);
    out += "\nraw SDC probability per benchmark (context):\n";
    for r in reports.iter() {
        out += &format!("  {:<16}{:>7}\n", r.name, pct(r.raw_sdc_prob));
    }
    out += "\ncampaign-engine throughput (snapshot engine, see repro speedup):\n";
    out += &render_throughput_table(&reports);
    Ok(out)
}

/// Fig. 11: runtime overhead per benchmark from the fault-free
/// simulated cycles of fig10's sweep.
///
/// Paper reference points (averages): IR-LEVEL-EDDI 62.27%,
/// HYBRID-ASSEMBLY-LEVEL-EDDI 83.39%, FERRUM 29.83%.
pub fn fig11(ctx: &mut Ctx, o: &Opts) -> Result<String, Error> {
    let reports = ctx.sweep(o.cfg)?;
    let cols = Columns(&[16, 12, 14, 14, 14]);
    let mut out = String::from("Fig. 11 — runtime performance overhead (lower is better)\n");
    out += &cols.line(
        "benchmark",
        ["raw cycles", "IR-EDDI", "HYBRID-ASM", "FERRUM"],
    );
    for r in reports.iter() {
        let overheads = r.techniques.iter().map(|t| pct(t.overhead));
        out += &cols.line(
            &r.name,
            [r.raw_cycles.to_string()].into_iter().chain(overheads),
        );
    }
    let averages = average_overheads(&reports).map(pct);
    out += &cols.line("average", [String::new()].into_iter().chain(averages));
    Ok(out)
}

/// The suite-average runtime overhead of each protected technique,
/// in [`Technique::PROTECTED`] order: Fig. 11's average row.
pub fn average_overheads(reports: &[WorkloadReport]) -> [f64; 3] {
    let n = reports.len() as f64;
    [0, 1, 2].map(|i| {
        reports
            .iter()
            .map(|r| r.techniques[i].overhead)
            .sum::<f64>()
            / n
    })
}

/// Table I: which instruction classes each technique protects, and at
/// which layer.
pub fn table1(_: &mut Ctx, _: &Opts) -> Result<String, Error> {
    Ok(format!(
        "Table I — technique capability matrix\n{}\n\
         legend: IR = protected at IR level, AS_1 = assembly without SIMD,\n        \
         AS_2 = assembly with SIMD, / = not covered\n",
        ferrum_eddi::capability::render_table()
    ))
}

/// Table II: the benchmark inventory, with the measured static and
/// dynamic sizes of the raw programs.
pub fn table2(_: &mut Ctx, o: &Opts) -> Result<String, Error> {
    let pipeline = Pipeline::new();
    // Name, suite and domain, each left-aligned: in 16, 10 and 22.
    let cols = Columns(&[48, 14, 14]);
    let name = |name, suite, domain| format!("{name:<16}{suite:<10}{domain}");
    let mut out = format!("Table II — benchmark details ({:?} scale)\n", o.cfg.scale);
    out += &cols.line(
        &name("Benchmark", "Suite", "Domain"),
        ["static insts", "dyn insts"],
    );
    for w in all_workloads() {
        let raw = pipeline.build(&w.build(o.cfg.scale), Technique::None)?;
        let sizes = [
            raw.program().static_inst_count() as u64,
            raw.profile().result.dyn_insts,
        ];
        out += &cols.line(&name(w.name, w.suite, w.domain), sizes);
    }
    Ok(out)
}

/// §IV-B3: the FERRUM transformation's own time against each
/// benchmark's static size (median of 9 runs).
///
/// Paper reference points: 0.117 s on average, maximum on
/// Particlefilter (2230 static instructions), minimum on BFS (406),
/// growing linearly with static size.
pub fn exectime(_: &mut Ctx, o: &Opts) -> Result<String, Error> {
    let cols = Columns(&[16, 14, 16, 14]);
    let mut out = format!(
        "§IV-B3 — FERRUM transformation time ({:?} scale)\n",
        o.cfg.scale
    );
    out += &cols.line("benchmark", ["static insts", "pass time (µs)", "µs / inst"]);
    let mut rows = Vec::new();
    for w in all_workloads() {
        let asm = ferrum_backend::compile(&w.build(o.cfg.scale))?;
        let statics = asm.static_inst_count() as f64;
        let mut times = Vec::new();
        for _ in 0..9 {
            let t0 = Instant::now();
            Ferrum::new().protect(&asm)?;
            times.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        times.sort_by(f64::total_cmp);
        let us = times[times.len() / 2];
        let cells = [
            statics.to_string(),
            format!("{us:.1}"),
            format!("{:.3}", us / statics),
        ];
        out += &cols.line(w.name, cells);
        rows.push((w.name, statics, us));
    }
    let n = rows.len() as f64;
    let mx = rows.iter().map(|r| r.1).sum::<f64>() / n;
    let my = rows.iter().map(|r| r.2).sum::<f64>() / n;
    out += &cols.line("average", [String::new(), format!("{my:.1}")]);
    let slowest = rows.iter().max_by(|a, b| a.2.total_cmp(&b.2));
    let fastest = rows.iter().min_by(|a, b| a.2.total_cmp(&b.2));
    if let (Some(max), Some(min)) = (slowest, fastest) {
        out += &format!("\nslowest: {} ({} static insts)\n", max.0, max.1);
        out += &format!("fastest: {} ({} static insts)\n", min.0, min.1);
    }
    // Linearity: correlation between static size and time.
    let cov: f64 = rows.iter().map(|r| (r.1 - mx) * (r.2 - my)).sum();
    let vx: f64 = rows.iter().map(|r| (r.1 - mx).powi(2)).sum();
    let vy: f64 = rows.iter().map(|r| (r.2 - my).powi(2)).sum();
    let r = cov / (vx * vy).sqrt();
    out += &format!("pearson r (static insts vs time) = {r:.3}\n");
    Ok(out)
}

/// §IV-B1 root cause: under IR-LEVEL-EDDI, which cross-layer
/// instruction class did each residual SDC's fault hit?  Provenance
/// tags attribute every SDC directly.
pub fn rootcause(ctx: &mut Ctx, o: &Opts) -> Result<String, Error> {
    let reports = ctx.sweep(o.cfg)?;
    let cols = Columns(&[16, 8, 10, 14, 12, 10, 12, 12]);
    let mut out = format!(
        "§IV-B1 — provenance of residual SDCs under IR-LEVEL-EDDI ({})\n",
        o.cfg.opt.label()
    );
    let header = [
        "SDCs",
        "from-IR",
        "branch-mat.",
        "store-stg",
        "call",
        "other-glue",
        "protection",
    ];
    out += &cols.line("benchmark", header);
    let mut totals = [0usize; 7];
    for r in reports.iter() {
        let rc = match r.technique(Technique::IrEddi) {
            Some(ir) => &ir.rootcause,
            None => return Err(Error::msg(format!("{}: no IR-EDDI report", r.name))),
        };
        let g = |k: &str| rc.glue.get(k).copied().unwrap_or(0);
        let (branch, store) = (g("branch-materialize"), g("store-staging"));
        let call = g("call-glue") + g("ret-glue");
        let other = rc.glue_total() - branch - store - call;
        let v = [
            rc.total_sdc,
            rc.from_ir,
            branch,
            store,
            call,
            other,
            rc.protection,
        ];
        out += &cols.line(&r.name, v);
        for (t, x) in totals.iter_mut().zip(v) {
            *t += x;
        }
        // At -O0 the shadow chain is genuinely redundant, so a fault in
        // protection code is always caught by its own check (or
        // masked).  At -O1 value numbering may route *master* dataflow
        // through a lowered shadow instruction — whichever register
        // already holds the value — so a fault there can corrupt real
        // output after the guarding check already ran: the
        // protection/computation boundary itself dissolves under
        // optimization (root cause 2 again, seen from the other side).
        if o.cfg.opt == OptLevel::O0 && rc.protection != 0 {
            return Err(Error::msg(format!(
                "{}: {} SDCs from -O0 protection code, which never causes one",
                r.name, rc.protection
            )));
        }
    }
    out += &cols.line("total", totals);
    let glue = 100.0 * (totals[0] - totals[1]) as f64 / totals[0].max(1) as f64;
    out += &format!("\nbackend-glue share of residual SDCs: {glue:.1}%\n");
    Ok(out)
}

/// §IV-B2's explanation of the hybrid baseline's overhead: the raw
/// program's dynamic glue share (the cross-layer footprint no IR pass
/// sees) and each technique's dynamic expansion factor.
pub fn footprint(_: &mut Ctx, o: &Opts) -> Result<String, Error> {
    let pipeline = Pipeline::new();
    let cols = Columns(&[16, 12, 12, 12, 12, 12]);
    let mut out = format!(
        "§IV-B2 — cross-layer footprint and dynamic expansion ({:?} scale)\n",
        o.cfg.scale
    );
    let header = ["raw dyn", "glue share", "IR-EDDI x", "HYBRID x", "FERRUM x"];
    out += &cols.line("benchmark", header);
    for w in all_workloads() {
        let module = w.build(o.cfg.scale);
        let raw = pipeline.build(&module, Technique::None)?;
        let raw_dyn = raw.profile().result.dyn_insts as f64;
        let glue = pct(raw.profile().prov_counts.glue as f64 / raw_dyn);
        let mut cells = vec![raw_dyn.to_string(), glue];
        for t in Technique::PROTECTED {
            let dyn_insts = pipeline.build(&module, t)?.profile().result.dyn_insts;
            cells.push(format!("{:.2}x", dyn_insts as f64 / raw_dyn));
        }
        out += &cols.line(w.name, cells);
    }
    out += "\nHYBRID duplicates the glue share too (scalar, per-instruction checks);\n\
            IR-EDDI cannot see it; FERRUM covers it with batched SIMD checks.\n";
    Ok(out)
}
