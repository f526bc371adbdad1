//! Command-line front end of the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|smoke]
//! perfbench --compare <base-results> <new-results>
//! ```
//!
//! A run prints a stamp line, a fingerprint line and a metric table,
//! then, as its last line, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.  `--compare` reads such lines
//! from two files and exits 1 when a metric regressed past its bound.

use std::process::ExitCode;

use ferrum::json::Json;
use perfbench::bounds::{compare, parse_results, parse_spec, Verdict};
use perfbench::stamp::Stamp;
use perfbench::{run, Options, Size, Workload};

const USAGE: &str = "usage: perfbench --workload <fig10|protect-stream> \
--seed <n> --seconds <s> --trace <0|1> [--size full|smoke]
       perfbench --compare <base-results> <new-results>";

fn parse_options(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = Size::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                );
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {value}: not a duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                });
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err(format!("--size {value}: expected full or smoke")),
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let need = |name: &str| format!("{name} is required");
    Ok(Options {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
        size,
    })
}

/// The benchmark's spec, at the root of the repository it builds from.
const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Runs the regression check; `Ok(false)` when a metric regressed or
/// is missing.
fn run_compare(args: &[String]) -> Result<bool, String> {
    let [base, new] = args else {
        return Err(USAGE.to_owned());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let spec = parse_spec(&read(SPEC)?)?;
    let findings = compare(
        &spec.end_to_end,
        &parse_results(&read(base.as_str())?),
        &parse_results(&read(new.as_str())?),
    );
    let mut ok = true;
    for f in &findings {
        println!(
            "{:<28} base {:>14.6} new {:>14.6} worse by {:>+8.2}% (bound {:.0}%) {:?}",
            f.name,
            f.base,
            f.new,
            f.worse_by * 100.0,
            f.bound * 100.0,
            f.verdict
        );
        ok &= !matches!(f.verdict, Verdict::Regressed | Verdict::Missing);
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--compare") {
        return match run_compare(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stamp = Stamp::collect();
    let report = run(&opts);
    for line in &report.failures {
        eprintln!("perfbench: {line}");
    }
    println!(
        "{}",
        Json::obj(vec![("stamp", stamp.to_json(report.threads))]).to_string_compact()
    );
    println!(
        "{}",
        Json::obj(vec![
            ("workload", Json::Str(opts.workload.name().to_owned())),
            ("seed", Json::Str(opts.seed.to_string())),
            (
                "fingerprint",
                Json::Str(format!("{:016x}", report.fingerprint))
            ),
        ])
        .to_string_compact()
    );
    for (name, value, unit) in &report.metrics {
        println!("  {name:<32}{value:>20.6} {unit}");
    }
    println!(
        "  {:<32}{:>20.6} ratio ({} of {} failed)",
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    let metrics = report
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            let m = Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.to_owned())),
            ]);
            (name.to_owned(), m)
        })
        .collect();
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(report.failed == 0)),
            ("attempted", Json::Int(report.attempted as i64)),
            ("failed", Json::Int(report.failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string_compact()
    );
    ExitCode::SUCCESS
}
