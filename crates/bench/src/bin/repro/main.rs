//! `repro` — regenerates the evaluation's tables and figures, and
//! checks the committed ones under `results/` against the code.
//!
//! ```text
//! usage: repro <entry> [flags]   print one artifact
//!        repro all               rewrite every file under results/
//!        repro check             compare every checked artifact with results/
//! ```
//!
//! [`ARTIFACTS`] is the table: one entry per file of `results/`, with
//! the arguments that file is written with, the flags its figure reads,
//! and which of its lines are host timings.  `repro <entry>` starts
//! from the entry's arguments, so without flags it prints the committed
//! file; its flags override them.  `repro check` regenerates every
//! entry whose content does not depend on the host, in memory, and
//! exits 1 naming the first `file:line` whose non-timing content
//! differs.  An entry that fails (a broken invariant, a pipeline error)
//! is reported by name and `all`/`check` go on with the next one, then
//! exit 1.  Usage errors exit 2.
//!
//! Entries share work within one process: fig10 and rootcause at one
//! configuration render from one `evaluate_workload` sweep.

mod extensions;
mod figures;
mod speedup;

use std::fmt::Display;
use std::path::Path;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use ferrum::{
    all_workloads, evaluate_workload, Build, Campaign, CampaignResult, EngineKind, Error,
    EvalConfig, OptLevel, Pipeline, Scale, WorkloadReport,
};

/// The directory `all` writes and `check` reads, relative to the
/// working directory (the repository root).
const RESULTS: &str = "results";

/// Which lines of an artifact hold host-dependent values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Timing {
    /// None: every line is deterministic.
    None,
    /// Every line after the first one starting with this marker.
    After(&'static str),
    /// Every line (host speed, `gcc`): `repro check` skips the entry.
    All,
}

impl Timing {
    /// Index of the first timing line of `lines`.
    fn start(self, lines: &[&str]) -> usize {
        match self {
            Timing::None => usize::MAX,
            Timing::After(marker) => lines
                .iter()
                .position(|l| l.starts_with(marker))
                .map_or(usize::MAX, |i| i + 1),
            Timing::All => 0,
        }
    }
}

/// What a render reads from its arguments.
struct Opts {
    cfg: EvalConfig,
    /// `--json` (fig10 only).
    json: bool,
}

/// One file of `results/` and how to regenerate it.
struct Artifact {
    /// `repro <name>`; entries that differ only in arguments share it.
    name: &'static str,
    /// The file under `results/`.
    file: &'static str,
    /// The arguments the file is written with.
    args: &'static [&'static str],
    /// The flags `repro <name>` takes: the ones its figure reads.
    flags: &'static [&'static str],
    /// Which lines hold host timings.
    timing: Timing,
    render: fn(&mut Ctx, &Opts) -> Result<String, Error>,
}

const FIG10: &[&str] = &["--samples", "--seed", "--scale", "--opt", "--json"];
const CAMPAIGN: &[&str] = &["--samples", "--seed", "--scale"];
const SCALE: &[&str] = &["--scale"];
const THROUGHPUT: Timing = Timing::After("campaign-engine throughput");

/// An [`Artifact`], its fields in order.
const fn entry(
    name: &'static str,
    file: &'static str,
    args: &'static [&'static str],
    flags: &'static [&'static str],
    timing: Timing,
    render: fn(&mut Ctx, &Opts) -> Result<String, Error>,
) -> Artifact {
    Artifact {
        name,
        file,
        args,
        flags,
        timing,
        render,
    }
}

/// Every artifact, in `repro all` order.
#[rustfmt::skip]
const ARTIFACTS: &[Artifact] = &[
    entry("fig10",     "fig10.txt",        &[],                 FIG10,       THROUGHPUT,   figures::fig10),
    entry("fig10",     "fig10_o1.txt",     &["--opt", "1"],     FIG10,       THROUGHPUT,   figures::fig10),
    entry("fig11",     "fig11.txt",        &[],                 SCALE,       Timing::None, figures::fig11),
    entry("table1",    "table1.txt",       &[],                 &[],         Timing::None, figures::table1),
    entry("table2",    "table2.txt",       &[],                 SCALE,       Timing::None, figures::table2),
    entry("exectime",  "exectime.txt",     &[],                 SCALE,       Timing::All,  figures::exectime),
    entry("rootcause", "rootcause.txt",    &[],                 &EVAL_FLAGS, Timing::None, figures::rootcause),
    entry("rootcause", "rootcause_o1.txt", &["--opt", "1"],     &EVAL_FLAGS, Timing::None, figures::rootcause),
    entry("footprint", "footprint.txt",    &[],                 SCALE,       Timing::None, figures::footprint),
    entry("ablation",  "ablation.txt",     &["--samples", "1000"], CAMPAIGN, Timing::None, extensions::ablation),
    entry("multibit",  "multibit.txt",     &["--samples", "1000"], CAMPAIGN, Timing::None, extensions::multibit),
    entry("selective", "selective.txt",    &["--samples", "250"],  CAMPAIGN, Timing::None, extensions::selective),
    entry("arm",       "arm.txt",          &[],                 &[],         Timing::None, extensions::arm),
    entry("native",    "native.txt",       &[],                 SCALE,       Timing::All,  extensions::native),
    entry("forensics", "forensics.txt",    &[],                 CAMPAIGN,    Timing::None, extensions::forensics),
    entry("coverage",  "coverage.txt",     &["--samples", "400", "--scale", "test"], CAMPAIGN, Timing::None, extensions::coverage),
    entry("speedup",   "speedup.txt",      &["--samples", "200", "--seed", "65092", "--scale", "test"], CAMPAIGN, Timing::After(speedup::TIMINGS), speedup::speedup),
];

/// The campaign flags, each followed by a value.
const EVAL_FLAGS: [&str; 4] = ["--samples", "--seed", "--scale", "--opt"];

/// Parses the `--samples`, `--seed`, `--scale` and `--opt` flags that
/// `accepts` names.  Any other name in `accepts` is a switch the caller
/// reads itself (`--json`).
///
/// # Errors
///
/// An argument `accepts` does not name, or one of the four flags
/// without a value or with a value that does not parse: a typo must
/// not silently run the default configuration.
fn parse_eval_config(args: &[String], accepts: &[&str]) -> Result<EvalConfig, String> {
    let mut cfg = EvalConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !accepts.contains(&flag.as_str()) {
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

/// Work the entries of one process share.
#[derive(Default)]
struct Ctx {
    /// `evaluate_workload` over the suite, per configuration.
    sweeps: Vec<(EvalConfig, Rc<[WorkloadReport]>)>,
}

impl Ctx {
    /// The suite evaluated at `cfg`, computed on first use.
    fn sweep(&mut self, cfg: EvalConfig) -> Result<Rc<[WorkloadReport]>, Error> {
        if let Some((_, reports)) = self.sweeps.iter().find(|(c, _)| *c == cfg) {
            return Ok(reports.clone());
        }
        let pipeline = Pipeline::new();
        let reports: Rc<[WorkloadReport]> = all_workloads()
            .iter()
            .map(|w| {
                evaluate_workload(&pipeline, w, cfg)
                    .map_err(|e| Error::msg(format!("{}: {e}", w.name)))
            })
            .collect::<Result<_, _>>()?;
        self.sweeps.push((cfg, reports.clone()));
        Ok(reports)
    }
}

/// Text-table columns: the first cell left-aligned in the first
/// width, every other cell right-aligned in its own.
struct Columns(&'static [usize]);

impl Columns {
    fn line<T: Display>(&self, first: &str, rest: impl IntoIterator<Item = T>) -> String {
        let mut line = format!("{first:<w$}", w = self.0[0]);
        for (cell, &w) in rest.into_iter().zip(&self.0[1..]) {
            line += &format!("{cell:>w$}");
        }
        line + "\n"
    }
}

/// `x` as a percentage with one decimal.
fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Runs `plan` on `build` the way `evaluate_workload` does: on the
/// default engine, on every core.
fn campaign(build: &Build, plan: Campaign<'_>) -> Result<CampaignResult, Error> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let engine = build.engine(EngineKind::default());
    Ok(plan.threads(threads).run(engine, build.profile())?)
}

impl Artifact {
    /// Parses the entry's table arguments followed by `extra` against
    /// its flags.
    fn opts(&self, extra: &[String]) -> Result<Opts, String> {
        let args: Vec<String> = self.args.iter().map(|a| a.to_string()).collect();
        let args = [args, extra.to_vec()].concat();
        Ok(Opts {
            cfg: parse_eval_config(&args, self.flags)?,
            json: args.iter().any(|a| a == "--json"),
        })
    }

    fn usage(&self) -> String {
        let mut usage = format!("usage: repro {}", self.name);
        for flag in self.flags {
            let value = match *flag {
                "--samples" => " N",
                "--seed" => " S",
                "--scale" => " test|paper",
                "--opt" => " 0|1",
                _ => "",
            };
            usage += &format!(" [{flag}{value}]");
        }
        usage
    }
}

/// The first line, 1-based, where `fresh` differs from `committed`
/// outside timing lines, and how.  A line only one side has always
/// counts.
fn first_difference(timing: Timing, committed: &str, fresh: &str) -> Option<(usize, String)> {
    let old: Vec<&str> = committed.lines().collect();
    let new: Vec<&str> = fresh.lines().collect();
    let timing_from = timing.start(&old).max(timing.start(&new));
    (0..old.len().max(new.len())).find_map(|i| {
        let what = match (old.get(i), new.get(i)) {
            (Some(a), Some(b)) if a == b || i >= timing_from => return None,
            (Some(a), Some(b)) => format!("committed `{a}`, regenerated `{b}`"),
            (Some(a), None) => format!("committed `{a}`, missing from the regenerated output"),
            (None, Some(b)) => format!("regenerated `{b}`, missing from the committed file"),
            (None, None) => return None,
        };
        Some((i + 1, what))
    })
}

fn usage_error(msg: &str) -> ExitCode {
    if !msg.is_empty() {
        eprintln!("repro: {msg}");
    }
    eprintln!("usage: repro <entry> [flags]   print one artifact");
    eprintln!("       repro all               rewrite every file under {RESULTS}/");
    eprintln!("       repro check             compare every checked artifact with {RESULTS}/");
    eprintln!("entries (host-timed ones are not checked):");
    for a in ARTIFACTS {
        let timed = if a.timing == Timing::All {
            "host-timed"
        } else {
            ""
        };
        let line = format!(
            "  {:<10} {RESULTS}/{:<17} {:<16} {timed}",
            a.name,
            a.file,
            a.args.join(" ")
        );
        eprintln!("{}", line.trim_end());
    }
    ExitCode::from(2)
}

/// `repro <entry> [flags]`.
fn print_entry(a: &Artifact, flags: &[String]) -> ExitCode {
    let opts = match a.opts(flags) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("repro {}: {e}\n{}", a.name, a.usage());
            return ExitCode::from(2);
        }
    };
    match (a.render)(&mut Ctx::default(), &opts) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repro {}: {e}", a.name);
            ExitCode::FAILURE
        }
    }
}

/// `repro all` (`write`) rewrites every artifact; `repro check`
/// regenerates every one not host-timed in every line and compares it
/// with the committed file.  Both go on past a failing entry, then
/// exit 1.
fn run_table(write: bool) -> ExitCode {
    let mode = if write { "all" } else { "check" };
    let entries: Vec<&Artifact> = ARTIFACTS
        .iter()
        .filter(|a| write || a.timing != Timing::All)
        .collect();
    let mut ctx = Ctx::default();
    let mut failed = 0;
    let t0 = Instant::now();
    for a in &entries {
        let t = Instant::now();
        let path = Path::new(RESULTS).join(a.file);
        let at = |e: std::io::Error| format!("{}: {e}", path.display());
        let outcome = a
            .opts(&[])
            .and_then(|opts| (a.render)(&mut ctx, &opts).map_err(|e| e.to_string()))
            .map_err(|e| format!("{}: {e}", a.name))
            .and_then(|fresh| {
                if write {
                    return std::fs::create_dir_all(RESULTS)
                        .and_then(|()| std::fs::write(&path, fresh))
                        .map_err(at);
                }
                let committed = std::fs::read_to_string(&path).map_err(at)?;
                match first_difference(a.timing, &committed, &fresh) {
                    Some((line, what)) => Err(format!("{}:{line}: {what}", path.display())),
                    None => Ok(()),
                }
            });
        match outcome {
            Ok(()) => eprintln!("  {} ({:.1} s)", path.display(), t.elapsed().as_secs_f64()),
            Err(msg) => {
                eprintln!("repro {mode}: {msg}");
                failed += 1;
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let ok = entries.len() - failed;
    eprintln!(
        "repro {mode}: {ok} of {} artifacts ok in {secs:.1} s",
        entries.len()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => usage_error(""),
        Some(mode @ ("all" | "check")) if args.len() > 1 => {
            usage_error(&format!("`{mode}` takes no flags"))
        }
        Some("all") => run_table(true),
        Some("check") => run_table(false),
        Some(name) => match ARTIFACTS.iter().find(|a| a.name == name) {
            Some(a) => print_entry(a, &args[1..]),
            None => usage_error(&format!("unknown entry `{name}`")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_result_file_has_exactly_one_entry() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(RESULTS);
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .expect("results/ exists")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        let mut entries: Vec<String> = ARTIFACTS.iter().map(|a| a.file.to_owned()).collect();
        entries.sort();
        assert_eq!(files, entries);
    }

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

    #[test]
    fn table_arguments_parse_with_their_entry_flags() {
        for a in ARTIFACTS {
            assert!(a.opts(&[]).is_ok(), "{}: {:?}", a.file, a.args);
        }
    }

    const COMMITTED: &str = "Fig. 10\nbenchmark  cov\nbfs  93.5%\n\
                             campaign-engine throughput (see repro speedup):\n\
                             benchmark  inj/sec\nbfs/FERRUM  3520\n";

    #[test]
    fn comparator_names_a_changed_missing_or_extra_line() {
        let diff = |fresh: &str| first_difference(THROUGHPUT, COMMITTED, fresh);
        assert_eq!(diff(COMMITTED), None);
        let changed = COMMITTED.replace("93.5%", "93.4%");
        assert_eq!(
            diff(&changed),
            Some((3, "committed `bfs  93.5%`, regenerated `bfs  93.4%`".into()))
        );
        let missing = COMMITTED.replace("bfs  93.5%\n", "");
        assert_eq!(diff(&missing).map(|d| d.0), Some(3));
        let extra = COMMITTED.replace("bfs  93.5%\n", "bfs  93.5%\nknn  96.0%\n");
        assert_eq!(diff(&extra).map(|d| d.0), Some(4));
        // The marker line itself is checked, and so is every line of a
        // file without timings.
        let marker = COMMITTED.replace("(see", "(cf.");
        assert_eq!(diff(&marker).map(|d| d.0), Some(4));
        let timing = COMMITTED.replace("3520", "9999");
        assert_eq!(
            first_difference(Timing::None, COMMITTED, &timing).map(|d| d.0),
            Some(6)
        );
        // A truncated file misses its last line.
        let cut = COMMITTED.replace("bfs/FERRUM  3520\n", "");
        assert_eq!(
            diff(&cut),
            Some((
                6,
                "committed `bfs/FERRUM  3520`, missing from the regenerated output".into()
            ))
        );
    }

    #[test]
    fn comparator_passes_a_changed_timing_line() {
        let fresh = COMMITTED.replace("3520", "38585");
        assert_eq!(first_difference(THROUGHPUT, COMMITTED, &fresh), None);
        let header = COMMITTED.replace("inj/sec", "injections/s");
        assert_eq!(first_difference(THROUGHPUT, COMMITTED, &header), None);
    }
}
