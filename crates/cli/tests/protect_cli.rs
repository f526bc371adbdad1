//! `ferrum protect` on outside input: a campaign over a program with
//! no injectable site, or a program that writes an immediate operand,
//! is a typed error on stderr and exit status 1, never a panic.

use std::process::Command;

/// Runs `ferrum protect` on `listing` with `args`; returns the exit
/// status and stderr.  `name` keeps concurrent tests' files apart.
fn protect(name: &str, listing: &str, args: &[&str]) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("ferrum-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("x.s");
    std::fs::write(&path, listing).expect("writes listing");

    let out = Command::new(env!("CARGO_BIN_EXE_ferrum"))
        .arg("protect")
        .arg(&path)
        .args(args)
        .output()
        .expect("runs ferrum protect");
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn campaign_on_a_program_without_sites_exits_1_with_the_error() {
    let listing = ".globl main\nmain:\n    nop\n    ret\n";
    let args = ["--technique", "scalar", "--campaign", "10"];
    let (code, stderr) = protect("no-sites", listing, &args);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("no injectable sites"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn an_immediate_destination_exits_1_with_the_error() {
    let listing = ".globl main\nmain:\n    movq $1, %rcx\n    movq %rcx, $0\n    ret\n";
    let runs: [&[&str]; 4] = [
        &[],
        &["--run"],
        &["--campaign", "20"],
        &["--technique", "scalar"],
    ];
    for args in runs {
        let (code, stderr) = protect("immediate", listing, args);
        assert_eq!(code, Some(1), "{args:?}: stderr: {stderr}");
        assert!(
            stderr.contains("writes an immediate operand"),
            "{args:?}: stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: stderr: {stderr}");
    }
}
