//! `ferrum protect` on outside input: a campaign over a program with
//! no injectable site is a typed error on stderr and exit status 1,
//! never a panic.

use std::process::Command;

#[test]
fn campaign_on_a_program_without_sites_exits_1_with_the_error() {
    let dir = std::env::temp_dir().join(format!("ferrum-cli-protect-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let listing = dir.join("x.s");
    std::fs::write(&listing, ".globl main\nmain:\n    nop\n    ret\n").expect("writes listing");

    let out = Command::new(env!("CARGO_BIN_EXE_ferrum"))
        .arg("protect")
        .arg(&listing)
        .args(["--technique", "scalar", "--campaign", "10"])
        .output()
        .expect("runs ferrum protect");
    let _ = std::fs::remove_dir_all(&dir);

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("no injectable sites"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
