//! Convenience driver: regenerates every artifact into `results/`.
//!
//! ```sh
//! cargo run --release -p ferrum-bench --bin repro_all [--samples N]
//! ```

use std::process::Command;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every binary below reads these flags: reject a bad one before
    // running any of them.
    ferrum_bench::eval_config_or_exit(env!("CARGO_BIN_NAME"), &args);
    std::fs::create_dir_all("results").expect("create results/");
    let bins = [
        ("repro_fig10", "fig10.txt"),
        ("repro_fig11", "fig11.txt"),
        ("repro_table1", "table1.txt"),
        ("repro_table2", "table2.txt"),
        ("repro_exectime", "exectime.txt"),
        ("repro_rootcause", "rootcause.txt"),
        ("repro_ablation", "ablation.txt"),
        ("repro_multibit", "multibit.txt"),
    ];
    for (bin, out) in bins {
        eprintln!("== {bin} -> results/{out}");
        let exe = std::env::current_exe().expect("self path");
        let sibling = exe.with_file_name(bin);
        let output = Command::new(&sibling)
            .args(&args)
            .output()
            .unwrap_or_else(|e| panic!("run {bin}: {e} (build with --release first)"));
        assert!(output.status.success(), "{bin} failed: {output:?}");
        std::fs::write(format!("results/{out}"), &output.stdout).expect("write");
    }
    eprintln!("all artifacts regenerated under results/");
}
