//! Regenerates §IV-B3: the time to execute the FERRUM transformation
//! itself, against the static instruction count of each benchmark.
//!
//! Paper reference points: 0.117 s on average, maximum on
//! Particlefilter (2230 static instructions), minimum on BFS (406);
//! time grows linearly with static size because FERRUM scans the code
//! once and emits transformations.

use std::time::Instant;

use ferrum_eddi::ferrum::Ferrum;
use ferrum_workloads::all_workloads;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = ferrum_bench::eval_config_or_exit(env!("CARGO_BIN_NAME"), &args);
    println!(
        "§IV-B3 — FERRUM transformation time ({:?} scale)",
        cfg.scale
    );
    println!(
        "{:<16}{:>14}{:>16}{:>14}",
        "benchmark", "static insts", "pass time (µs)", "µs / inst"
    );
    let mut total_us = 0f64;
    let mut rows = Vec::new();
    for w in all_workloads() {
        let module = w.build(cfg.scale);
        let asm = ferrum_backend::compile(&module).expect("compiles");
        let statics = asm.static_inst_count();
        // Median of several runs to suppress allocator noise.
        let mut times: Vec<f64> = (0..9)
            .map(|_| {
                let t0 = Instant::now();
                let _ = Ferrum::new().protect(&asm).expect("protects");
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        times.sort_by(|a, b| a.total_cmp(b));
        let us = times[times.len() / 2];
        total_us += us;
        rows.push((w.name, statics, us));
        println!(
            "{:<16}{:>14}{:>16.1}{:>14.3}",
            w.name,
            statics,
            us,
            us / statics as f64
        );
    }
    println!(
        "{:<16}{:>14}{:>16.1}",
        "average",
        "",
        total_us / rows.len() as f64
    );
    let max = rows
        .iter()
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .expect("rows");
    let min = rows
        .iter()
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .expect("rows");
    println!();
    println!("slowest: {} ({} static insts)", max.0, max.1);
    println!("fastest: {} ({} static insts)", min.0, min.1);
    // Linearity check: correlation between static size and time.
    let n = rows.len() as f64;
    let (mx, my) = (
        rows.iter().map(|r| r.1 as f64).sum::<f64>() / n,
        rows.iter().map(|r| r.2).sum::<f64>() / n,
    );
    let cov: f64 = rows
        .iter()
        .map(|r| (r.1 as f64 - mx) * (r.2 - my))
        .sum::<f64>();
    let vx: f64 = rows.iter().map(|r| (r.1 as f64 - mx).powi(2)).sum::<f64>();
    let vy: f64 = rows.iter().map(|r| (r.2 - my).powi(2)).sum::<f64>();
    println!(
        "pearson r (static insts vs time) = {:.3}",
        cov / (vx * vy).sqrt()
    );
}
