//! Regenerates the paper's §IV-B1 root-cause analysis: under IR-LEVEL-EDDI,
//! which cross-layer instruction class did each residual SDC's fault hit?
//!
//! The paper identifies branch materialisation (Figs. 8–9), store
//! staging, and call glue as the backend-generated fault sites invisible
//! to IR-level protection; provenance tags let us attribute every SDC
//! directly.

use ferrum::{evaluate_workload, Pipeline, Technique};
use ferrum_workloads::all_workloads;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = ferrum_bench::eval_config_or_exit(env!("CARGO_BIN_NAME"), &args);
    let pipeline = Pipeline::new();
    println!(
        "§IV-B1 — provenance of residual SDCs under IR-LEVEL-EDDI ({})",
        cfg.opt.label()
    );
    println!(
        "{:<16}{:>8}{:>10}{:>14}{:>12}{:>10}{:>12}{:>12}",
        "benchmark", "SDCs", "from-IR", "branch-mat.", "store-stg", "call", "other-glue", "protection"
    );
    let mut totals = [0usize; 7];
    for w in all_workloads() {
        let report =
            evaluate_workload(&pipeline, &w, cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let ir = report.technique(Technique::IrEddi).expect("ir report");
        let rc = &ir.rootcause;
        let g = |k: &str| rc.glue.get(k).copied().unwrap_or(0);
        let branch = g("branch-materialize");
        let store = g("store-staging");
        let call = g("call-glue") + g("ret-glue");
        let other = rc.glue_total() - branch - store - call;
        println!(
            "{:<16}{:>8}{:>10}{:>14}{:>12}{:>10}{:>12}{:>12}",
            w.name, rc.total_sdc, rc.from_ir, branch, store, call, other, rc.protection
        );
        for (i, v) in [
            rc.total_sdc,
            rc.from_ir,
            branch,
            store,
            call,
            other,
            rc.protection,
        ]
        .into_iter()
        .enumerate()
        {
            totals[i] += v;
        }
        // At -O0 the shadow chain is genuinely redundant, so a fault in
        // protection code is always caught by its own check (or
        // masked).  At -O1 value numbering may route *master* dataflow
        // through a lowered shadow instruction — whichever register
        // already holds the value — so a fault there can corrupt real
        // output after the guarding check already ran: the
        // protection/computation boundary itself dissolves under
        // optimization (root cause 2 again, seen from the other side).
        if cfg.opt == ferrum::OptLevel::O0 {
            assert_eq!(
                rc.protection, 0,
                "{}: at -O0 protection code must never cause SDC",
                w.name
            );
        }
    }
    println!(
        "{:<16}{:>8}{:>10}{:>14}{:>12}{:>10}{:>12}{:>12}",
        "total", totals[0], totals[1], totals[2], totals[3], totals[4], totals[5], totals[6]
    );
    println!();
    println!(
        "backend-glue share of residual SDCs: {:.1}%",
        100.0 * (totals[0] - totals[1]) as f64 / totals[0].max(1) as f64
    );
}
