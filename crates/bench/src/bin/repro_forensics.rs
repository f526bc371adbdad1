//! Differential-replay forensics across the benchmark suite: for every
//! workload and protected technique, replay each residual SDC and
//! tabulate *why* it escaped.
//!
//! This is the per-incident companion to the §IV-B1 root-cause table:
//! root-cause attributes the faulted instruction's provenance, while
//! forensics explains the downstream escape — whether the duplicate was
//! corrupted consistently, the corruption was masked before any check,
//! a checker ran blind, or no checker executed at all.

use ferrum::{
    forensic_report, Campaign, CampaignConfig, EscapeReason, ForensicConfig, Pipeline, Technique,
};
use ferrum_workloads::all_workloads;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = ferrum_bench::parse_eval_config(&args);
    let pipeline = Pipeline::new();
    let fcfg = ForensicConfig {
        max_records: usize::MAX,
        ..ForensicConfig::default()
    };
    println!("escape-reason forensics of residual SDCs (per technique)");
    println!(
        "{:<40}{:>6}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}",
        "benchmark/technique", "SDCs", "dup-corr", "masked", "blind", "no-check", "escaped", "ctl-div"
    );
    let mut totals = [0usize; 7];
    for w in all_workloads() {
        let module = w.build(cfg.scale);
        for technique in Technique::PROTECTED {
            let (prog, cpu) = match pipeline
                .protect(&module, technique)
                .and_then(|p| pipeline.load(&p).map(|c| (p, c)))
            {
                Ok(r) => r,
                Err(e) => panic!("{}/{technique}: {e}", w.name),
            };
            let _ = prog;
            let profile = cpu.profile();
            let campaign = Campaign::sampled(CampaignConfig {
                samples: cfg.samples,
                seed: cfg.seed,
            })
            .run(&cpu, &profile)
            .unwrap();
            let report = forensic_report(&cpu, &profile, &campaign, &fcfg);
            let count = |r: EscapeReason| {
                report
                    .reason_histogram
                    .iter()
                    .find(|&&(reason, _)| reason == r)
                    .map_or(0, |&(_, n)| n)
            };
            let row = [
                campaign.sdc,
                count(EscapeReason::DupAlsoCorrupted),
                count(EscapeReason::MaskedBeforeCheck),
                count(EscapeReason::CheckerBlind)
                    + count(EscapeReason::BatchFlushedEarly)
                    + count(EscapeReason::DeferredFlagOverwritten),
                count(EscapeReason::CheckerNotReached),
                count(EscapeReason::StoreEscapedWindow),
                count(EscapeReason::ControlFlowDiverged),
            ];
            println!(
                "{:<40}{:>6}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}",
                format!("{}/{technique}", w.name),
                row[0],
                row[1],
                row[2],
                row[3],
                row[4],
                row[5],
                row[6],
            );
            for (t, v) in totals.iter_mut().zip(row) {
                *t += v;
            }
            assert_eq!(
                report.analyzed(),
                report.matching_total,
                "{}/{technique}: every SDC must be analyzed",
                w.name
            );
            assert_eq!(
                report.classified(),
                report.analyzed(),
                "{}/{technique}: every analyzed SDC must be classified",
                w.name
            );
        }
    }
    println!(
        "{:<40}{:>6}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}",
        "total", totals[0], totals[1], totals[2], totals[3], totals[4], totals[5], totals[6]
    );
    println!();
    println!(
        "classified escapes: {} of {} residual SDCs",
        totals[1..].iter().sum::<usize>(),
        totals[0]
    );
}
