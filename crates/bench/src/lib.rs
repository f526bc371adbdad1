//! # ferrum-bench — regenerating the paper's tables and figures
//!
//! One binary per artifact of the evaluation section:
//!
//! | Binary            | Artifact |
//! |-------------------|----------|
//! | `repro_fig10`     | Fig. 10 — SDC coverage per benchmark × technique |
//! | `repro_fig11`     | Fig. 11 — runtime performance overhead |
//! | `repro_table1`    | Table I — technique capability matrix |
//! | `repro_table2`    | Table II — benchmark details |
//! | `repro_exectime`  | §IV-B3 — FERRUM pass execution time vs static size |
//! | `repro_rootcause` | §IV-B1 — provenance attribution of IR-EDDI's SDCs |
//! | `repro_ablation`  | design-choice ablations (SIMD / deferred flags / peephole / requisition) |
//!
//! | `repro_speedup`   | snapshot campaign engine vs serial executor throughput |
//!
//! Each prints an aligned text table; `--samples N`, `--seed S`, and
//! `--scale test|paper` tune campaign size where applicable.  The
//! tool's own speed per stage (compile, protect, simulate) is
//! perfbench's per-layer breakdown (`perfbench/`), not a binary here.

use ferrum::{EvalConfig, OptLevel, Scale};

pub mod benchjson;

/// Parses the common `--samples`, `--seed`, `--scale`, `--opt` flags.
/// Other arguments pass through untouched: each binary reads its own
/// (`--json`, `--threads`, ...).
///
/// # Errors
///
/// One of the four flags without a value, or with a value that does
/// not parse: a typo must not silently run the default configuration.
pub fn parse_eval_config(args: &[String]) -> Result<EvalConfig, String> {
    let mut cfg = EvalConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let set: fn(&mut EvalConfig, &str) -> Option<()> = match flag.as_str() {
            "--samples" => |c, v| v.parse().ok().map(|n| c.samples = n),
            "--seed" => |c, v| v.parse().ok().map(|s| c.seed = s),
            "--scale" => |c, v| {
                c.scale = match v {
                    "test" => Scale::Test,
                    "paper" => Scale::Paper,
                    _ => return None,
                };
                Some(())
            },
            "--opt" => |c, v| OptLevel::parse(v).map(|o| c.opt = o),
            _ => continue,
        };
        let value = it
            .next()
            .filter(|v| !v.starts_with("--"))
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        set(&mut cfg, value).ok_or_else(|| format!("`{flag}` cannot parse `{value}`"))?;
    }
    Ok(cfg)
}

/// [`parse_eval_config`] for a `repro_*` binary's `main`: on an error,
/// prints it with the usage line and exits with status 2.
pub fn eval_config_or_exit(bin: &str, args: &[String]) -> EvalConfig {
    parse_eval_config(args).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        eprintln!("usage: {bin} [--samples N] [--seed S] [--scale test|paper] [--opt 0|1]");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<EvalConfig, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_eval_config(&args)
    }

    #[test]
    fn flag_parsing() {
        let cfg = parse(&["--samples", "250", "--seed", "7", "--scale", "test"]).unwrap();
        assert_eq!(cfg.samples, 250);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.scale, Scale::Test);
        assert_eq!(cfg.opt, OptLevel::O0);
        let cfg = parse(&[]).unwrap();
        assert_eq!(cfg.samples, 1000);
        assert_eq!(cfg.scale, Scale::Paper);
        assert_eq!(parse(&["--opt", "1"]).unwrap().opt, OptLevel::O1);
        // Flags the binaries read themselves pass through.
        assert_eq!(parse(&["--json", "--samples", "9"]).unwrap().samples, 9);
        assert_eq!(
            parse(&["--json-out", "x", "--threads", "4"]).unwrap().seed,
            0xFE44
        );
    }

    #[test]
    fn bad_samples_are_an_error() {
        assert_eq!(
            parse(&["--samples"]).unwrap_err(),
            "`--samples` needs a value"
        );
        assert_eq!(
            parse(&["--samples", "lots"]).unwrap_err(),
            "`--samples` cannot parse `lots`"
        );
        assert!(parse(&["--samples", "-3"]).is_err());
    }

    #[test]
    fn bad_seed_is_an_error() {
        assert_eq!(
            parse(&["--seed", "--scale", "test"]).unwrap_err(),
            "`--seed` needs a value"
        );
        assert!(parse(&["--seed", "0xFE44"]).is_err());
    }

    #[test]
    fn bad_scale_is_an_error() {
        assert_eq!(parse(&["--scale", "paper"]).unwrap().scale, Scale::Paper);
        assert_eq!(
            parse(&["--scale", "tset"]).unwrap_err(),
            "`--scale` cannot parse `tset`"
        );
        assert!(parse(&["--scale"]).is_err());
    }

    #[test]
    fn bad_opt_is_an_error() {
        assert_eq!(parse(&["--opt", "O1"]).unwrap().opt, OptLevel::O1);
        assert_eq!(
            parse(&["--opt", "O2"]).unwrap_err(),
            "`--opt` cannot parse `O2`"
        );
        assert!(parse(&["--opt"]).is_err());
    }
}
