//! The benchmark's own tests: a smoke-size run of every workload in both
//! modes, the printed metric names and units against `BENCHMARK.json`,
//! deterministic outputs repeating across processes, and the regression
//! check flagging a doctored result.  The smoke runs simulate real
//! campaigns, so run these with `--release`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ferrum::json::{parse, Json};
use perfbench::bounds::{compare, parse_results, parse_spec, Spec, Verdict};
use perfbench::Workload;

const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn spec() -> Spec {
    let text = std::fs::read_to_string(SPEC).expect("BENCHMARK.json sits beside the benchmark");
    parse_spec(&text).expect("BENCHMARK.json parses")
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark starts")
}

/// One smoke-size run; returns its standard output.
fn smoke(workload: &str, seed: u64, trace: bool) -> String {
    let seed = seed.to_string();
    let trace = if trace { "1" } else { "0" };
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        "0",
        "--trace",
        trace,
        "--size",
        "smoke",
    ]);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The first JSON line of `stdout` that has member `key`.
fn line_with(stdout: &str, key: &str) -> Json {
    stdout
        .lines()
        .filter_map(|l| parse(l).ok())
        .find(|j| j.get(key).is_some())
        .unwrap_or_else(|| panic!("no `{key}` line in {stdout}"))
}

#[test]
fn every_workload_runs_clean_and_prints_the_declared_metrics() {
    let spec = spec();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, names);
    let end_to_end: Vec<(String, String)> = spec
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    for w in &spec.workloads {
        for trace in [false, true] {
            let out = smoke(w, 7, trace);
            let doc = parse(out.lines().last().expect("output")).expect("the last line is JSON");
            let Json::Obj(members) = &doc else {
                panic!("{w}: the result is not an object")
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{w}: {out}");
            assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
            assert!(doc
                .get("attempted")
                .and_then(Json::as_u64)
                .is_some_and(|n| n >= 1));
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("{w}: no metrics")
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
                    (k.clone(), unit.to_owned())
                })
                .collect();
            let declared = if trace { &spec.per_layer } else { &end_to_end };
            assert_eq!(&printed, declared, "{w}, trace {trace}");
            for (k, v) in metrics {
                let x = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                assert!(x.is_finite(), "{w}: {k} = {x}");
                assert!(
                    trace || x > 0.0,
                    "{w}: end-to-end {k} must never be 0, is {x}"
                );
            }
            let stamp = line_with(&out, "stamp");
            for key in [
                "nproc",
                "cpu_model",
                "rustc",
                "git_commit",
                "campaign_threads",
            ] {
                assert!(
                    stamp.get("stamp").and_then(|s| s.get(key)).is_some(),
                    "stamp lacks {key}"
                );
            }
        }
    }
}

#[test]
fn deterministic_outputs_repeat_across_processes() {
    const EXACT: [&str; 6] = [
        "sim_overhead_pct.ir_eddi",
        "sim_overhead_pct.hybrid",
        "sim_overhead_pct.ferrum",
        "code_growth.ir_eddi",
        "code_growth.hybrid",
        "code_growth.ferrum",
    ];
    for w in Workload::ALL {
        let (a, b) = (smoke(w.name(), 11, false), smoke(w.name(), 11, false));
        assert_eq!(
            line_with(&a, "fingerprint"),
            line_with(&b, "fingerprint"),
            "{}",
            w.name()
        );
        let (ra, rb) = (parse_results(&a).remove(0), parse_results(&b).remove(0));
        for k in EXACT {
            assert_eq!(ra[k].to_bits(), rb[k].to_bits(), "{}: {k}", w.name());
        }
    }
}

fn write_results(path: &Path, runs: &[BTreeMap<String, f64>]) {
    let text: String = runs
        .iter()
        .map(|r| {
            let metrics = r
                .iter()
                .map(|(k, v)| (k.clone(), Json::obj(vec![("value", Json::Num(*v))])))
                .collect();
            Json::obj(vec![("metrics", Json::Obj(metrics))]).to_string_compact() + "\n"
        })
        .collect();
    std::fs::write(path, text).expect("writes results");
}

#[test]
fn the_bounds_check_flags_a_doctored_regression() {
    let spec = spec();
    let one = parse_results(&smoke("fig10", 3, false)).remove(0);
    // Ten honest runs that differ by less than 1%.
    let base: Vec<BTreeMap<String, f64>> = (0..10)
        .map(|i| {
            let jitter = 1.0 + 0.001 * f64::from(i);
            one.iter().map(|(k, v)| (k.clone(), v * jitter)).collect()
        })
        .collect();
    let same = compare(&spec.end_to_end, &base, &base);
    assert!(
        same.iter().all(|f| f.verdict == Verdict::Within),
        "{same:?}"
    );
    // The doctored set: every run takes half as long again.
    let doctored: Vec<BTreeMap<String, f64>> = base
        .iter()
        .cloned()
        .map(|mut r| {
            *r.get_mut("wall_s").expect("wall_s") *= 1.5;
            *r.get_mut("programs_per_s").expect("programs_per_s") /= 1.5;
            r
        })
        .collect();
    for f in compare(&spec.end_to_end, &base, &doctored) {
        let slowed = f.name == "wall_s" || f.name == "programs_per_s";
        let want = if slowed {
            Verdict::Regressed
        } else {
            Verdict::Within
        };
        assert_eq!(f.verdict, want, "{f:?}");
    }
    // The same verdicts through the command line.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (b, d) = (dir.join("base.jsonl"), dir.join("doctored.jsonl"));
    write_results(&b, &base);
    write_results(&d, &doctored);
    let status = |new: &Path| {
        let (b, new) = (
            b.to_str().expect("utf-8 path"),
            new.to_str().expect("utf-8 path"),
        );
        perfbench(&["--compare", b, new]).status.code()
    };
    assert_eq!(status(b.as_path()), Some(0));
    assert_eq!(status(d.as_path()), Some(1));
}
