//! # ferrum-bench — regenerating the paper's tables and figures
//!
//! | Binary          | What it does |
//! |-----------------|--------------|
//! | `repro`         | every artifact of `results/`: `repro <entry>` prints one, `repro all` rewrites them, `repro check` compares them with the committed files |
//! | `repro_speedup` | snapshot campaign engine vs serial executor throughput, and `results/bench.json` |
//! | `bench_check`   | gates a fresh `bench.json` against the committed baseline |
//!
//! The tool's own speed per stage (compile, protect, simulate) is
//! perfbench's per-layer breakdown (`perfbench/`), not a binary here.

use ferrum::{EvalConfig, OptLevel, Scale};

pub mod benchjson;

/// The campaign flags, each followed by a value.
pub const EVAL_FLAGS: [&str; 4] = ["--samples", "--seed", "--scale", "--opt"];

/// Parses the `--samples`, `--seed`, `--scale` and `--opt` flags that
/// `accepts` names.  Any other name in `accepts` is a switch the caller
/// reads itself (`--json`).
///
/// # Errors
///
/// An argument `accepts` does not name, or one of the four flags
/// without a value or with a value that does not parse: a typo must
/// not silently run the default configuration.
pub fn parse_eval_config(args: &[String], accepts: &[&str]) -> Result<EvalConfig, String> {
    parse_flags(args, Some(accepts))
}

/// The four flags for `repro_speedup`'s `main`, which reads its own
/// `--threads`, `--json-out` and `--reps`: other arguments pass
/// through.  On an error, prints it with the usage line and exits with
/// status 2.
pub fn eval_config_or_exit(bin: &str, args: &[String]) -> EvalConfig {
    parse_flags(args, None).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        eprintln!("usage: {bin} [--samples N] [--seed S] [--scale test|paper] [--opt 0|1]");
        std::process::exit(2)
    })
}

/// [`parse_eval_config`]; `None` passes unknown arguments through.
fn parse_flags(args: &[String], accepts: Option<&[&str]>) -> Result<EvalConfig, String> {
    let mut cfg = EvalConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if accepts.is_some_and(|a| !a.contains(&flag.as_str())) {
            return Err(format!("unknown argument `{flag}`"));
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn parse(args: &[&str]) -> Result<EvalConfig, String> {
        parse_eval_config(&strings(args), &EVAL_FLAGS)
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
        // A switch the caller reads itself passes where it is accepted.
        let json = parse_eval_config(
            &strings(&["--json", "--samples", "9"]),
            &["--samples", "--json"],
        );
        assert_eq!(json.unwrap().samples, 9);
    }

    #[test]
    fn unknown_flags_are_an_error() {
        let campaign = ["--samples", "--seed", "--scale"];
        assert_eq!(
            parse_eval_config(&strings(&["--sample", "300"]), &campaign).unwrap_err(),
            "unknown argument `--sample`"
        );
        // A flag of another entry is unknown to one that does not read it.
        assert_eq!(
            parse_eval_config(&strings(&["--opt", "1"]), &campaign).unwrap_err(),
            "unknown argument `--opt`"
        );
        assert_eq!(parse(&["--json"]).unwrap_err(), "unknown argument `--json`");
        assert_eq!(parse(&["300"]).unwrap_err(), "unknown argument `300`");
        assert!(parse_eval_config(&strings(&["--scale", "test"]), &[]).is_err());
        // `repro_speedup`'s own flags still pass through its lenient form.
        let speedup = strings(&["--json-out", "x", "--threads", "4", "--samples", "9"]);
        assert_eq!(parse_flags(&speedup, None).unwrap().samples, 9);
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
