//! The `ferrum` front door: the subcommand table, per-subcommand
//! usage, rejected options, and the machine-readable selfcheck stream.

use std::process::{Command, Output};

use ferrum::json::{parse, Json};

const SUBCOMMANDS: [&str; 11] = [
    "protect",
    "lint",
    "cpu",
    "trace",
    "coverage",
    "forensics",
    "compose",
    "campaign",
    "profile",
    "fuzz",
    "selfcheck",
];

fn ferrum(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ferrum"))
        .args(args)
        .output()
        .expect("runs ferrum")
}

fn assert_prints_the_table(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("usage: ferrum <subcommand>"), "{stderr}");
    for sub in SUBCOMMANDS {
        assert!(
            stderr.lines().any(|l| l.trim_start().starts_with(sub)),
            "`{sub}` missing from the table:\n{stderr}"
        );
    }
}

#[test]
fn no_arguments_or_an_unknown_subcommand_print_the_table_and_exit_2() {
    assert_prints_the_table(&ferrum(&[]));
    assert_prints_the_table(&ferrum(&["--help"]));
    let out = ferrum(&["frobnicate"]);
    assert_prints_the_table(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand `frobnicate`"));
}

#[test]
fn every_subcommand_prints_its_usage_on_help_and_exits_2() {
    for sub in SUBCOMMANDS {
        let out = ferrum(&[sub, "--help"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{sub}: {stderr}");
        assert!(
            stderr.starts_with(&format!("usage: ferrum {sub} ")),
            "{sub}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{sub}");
    }
}

#[test]
fn the_catalog_flag_is_an_unknown_option() {
    let out = ferrum(&["coverage", "--catalog"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown option `--catalog`"), "{stderr}");
    assert!(stderr.contains("usage: ferrum coverage"), "{stderr}");
}

#[test]
fn an_unknown_check_is_a_usage_error() {
    let out = ferrum(&["selfcheck", "protect"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown check `protect`"), "{stderr}");
}

#[test]
fn selfcheck_lint_prints_one_compact_passing_record_per_line() {
    let out = ferrum(&["selfcheck", "lint", "--json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    // 8 workloads × 2 opt levels × {ferrum, hybrid}.
    assert_eq!(lines.len(), 32, "{stdout}");
    for line in lines {
        let rec = parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let Json::Obj(fields) = &rec else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys[..2], ["check", "ok"], "{line}");
        assert_eq!(rec.get("check").and_then(Json::as_str), Some("lint"));
        assert_eq!(rec.get("ok"), Some(&Json::Bool(true)), "{line}");
        for key in ["workload", "technique", "opt", "findings"] {
            assert!(rec.get(key).is_some(), "`{key}` missing: {line}");
        }
    }
}

#[test]
fn a_failing_check_exits_1_and_the_sweep_goes_on() {
    // With no samples nothing is pruned, so every case misses the 20%
    // prune-rate floor; each still prints its record.
    let out = ferrum(&["selfcheck", "coverage", "--samples", "0", "--json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    let records: Vec<Json> = stdout
        .lines()
        .map(|l| parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    assert_eq!(records.len(), 16, "{stdout}");
    assert!(records
        .iter()
        .all(|r| r.get("ok") == Some(&Json::Bool(false))));
}

#[test]
fn fuzz_seed_window_wraps_at_the_top_of_the_seed_space() {
    // Debug builds trap on overflow, so this pins wrapping arithmetic.
    let out = ferrum(&[
        "fuzz",
        "--seed",
        "18446744073709551615",
        "--programs",
        "1",
        "--samples",
        "0",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("seeds 18446744073709551615..=18446744073709551615"),
        "{stdout}"
    );
}
