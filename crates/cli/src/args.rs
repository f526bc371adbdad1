//! Shared command-line parsing for the `ferrum` subcommands.
//!
//! Every subcommand speaks the same dialect: at most one positional
//! operand (a workload name, an input listing, or a check name),
//! boolean flags, and valued options, with `-h`/`--help` anywhere
//! producing the usage text.  This module is that parsing loop written
//! once, plus typed accessors for the options the subcommands share
//! (`--samples`, `--seed`, `--scale`, `--opt`, `--technique`,
//! `--engine`).

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use ferrum_eddi::Technique;
use ferrum_faultsim::EngineKind;
use ferrum_workloads::Scale;

use crate::CliTechnique;

/// What a subcommand accepts: its boolean flags, its valued options,
/// and whether it takes a positional operand.
#[derive(Debug, Clone, Copy)]
pub struct ArgSpec {
    /// Boolean flags (`--json`, `--sites`, ...).
    pub flags: &'static [&'static str],
    /// Options that consume the next argument (`--samples`, `-o`, ...).
    pub values: &'static [&'static str],
    /// Whether one positional operand is accepted.
    pub positional: bool,
}

/// Why parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `-h`/`--help` was given (or the command line was empty): print
    /// the usage text and exit with status 2.
    Help,
    /// A real mistake, with a message for stderr.
    Message(String),
}

/// The parsed command line.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    /// The positional operand, when the spec accepts one.
    pub positional: Option<String>,
    flags: BTreeSet<&'static str>,
    values: BTreeMap<&'static str, String>,
}

/// Parses `args` (without the program name) against `spec`.
///
/// # Errors
///
/// [`ArgError::Help`] for an empty line or an explicit help request;
/// [`ArgError::Message`] for unknown options, missing option values,
/// repeated flags or options, and unexpected positionals.
pub fn parse_args(args: &[String], spec: &ArgSpec) -> Result<ParsedArgs, ArgError> {
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        return Err(ArgError::Help);
    }
    let mut parsed = ParsedArgs::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(&flag) = spec.flags.iter().find(|&&f| f == a) {
            if !parsed.flags.insert(flag) {
                return Err(ArgError::Message(format!("duplicate flag `{flag}`")));
            }
        } else if let Some(&opt) = spec.values.iter().find(|&&v| v == a) {
            let Some(v) = it.next() else {
                return Err(ArgError::Message(format!("`{opt}` needs a value")));
            };
            // `--samples --json` used to swallow `--json` as the value,
            // silently dropping the flag; nothing in this dialect takes
            // a `--`-prefixed value, so refuse to consume one.
            if v.starts_with("--") {
                return Err(ArgError::Message(format!(
                    "`{opt}` needs a value, found option `{v}`"
                )));
            }
            if parsed.values.insert(opt, v.clone()).is_some() {
                return Err(ArgError::Message(format!("duplicate option `{opt}`")));
            }
        } else if spec.positional
            && parsed.positional.is_none()
            && (!a.starts_with('-') || a == "-")
        {
            parsed.positional = Some(a.clone());
        } else {
            return Err(ArgError::Message(format!("unknown option `{a}`")));
        }
    }
    Ok(parsed)
}

impl ParsedArgs {
    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains(name)
    }

    /// The raw value of an option, when given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The value of an option parsed as a `T` (a count, a seed, ...),
    /// when given.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ArgError> {
        match self.value(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| ArgError::Message(format!("`{name}` cannot parse `{raw}`"))),
        }
    }

    /// `--samples`, defaulting to the campaign-size `default`.
    pub fn samples(&self, default: usize) -> Result<usize, ArgError> {
        Ok(self.parsed("--samples")?.unwrap_or(default))
    }

    /// `--seed`, defaulting to `default`.
    pub fn seed(&self, default: u64) -> Result<u64, ArgError> {
        Ok(self.parsed("--seed")?.unwrap_or(default))
    }

    /// `--scale test|paper`, defaulting to [`Scale::Test`].
    pub fn scale(&self) -> Result<Scale, ArgError> {
        match self.value("--scale") {
            None | Some("test") => Ok(Scale::Test),
            Some("paper") => Ok(Scale::Paper),
            Some(other) => Err(ArgError::Message(format!(
                "unknown scale `{other}` (test | paper)"
            ))),
        }
    }

    /// `--opt 0|1`, the backend optimization level, defaulting to
    /// `-O0`.
    pub fn opt_level(&self) -> Result<ferrum_backend::OptLevel, ArgError> {
        match self.value("--opt") {
            None => Ok(ferrum_backend::OptLevel::default()),
            Some(s) => ferrum_backend::OptLevel::parse(s)
                .ok_or_else(|| ArgError::Message(format!("unknown opt level `{s}` (0 | 1)"))),
        }
    }

    /// `--technique` as a pipeline [`Technique`] (the workload
    /// subcommands), defaulting to `default`.
    pub fn technique_core(&self, default: Technique) -> Result<Technique, ArgError> {
        match self.value("--technique") {
            None => Ok(default),
            Some("ferrum") => Ok(Technique::Ferrum),
            Some("hybrid") => Ok(Technique::HybridAsmEddi),
            Some("ir-eddi") => Ok(Technique::IrEddi),
            Some("none") => Ok(Technique::None),
            Some(other) => Err(ArgError::Message(format!(
                "unknown technique `{other}` (ferrum | hybrid | ir-eddi | none)"
            ))),
        }
    }

    /// `--engine interpreter|decoded`, defaulting to the reference
    /// interpreter.
    pub fn engine(&self) -> Result<EngineKind, ArgError> {
        match self.value("--engine") {
            None => Ok(EngineKind::default()),
            Some(s) => EngineKind::parse(s).ok_or_else(|| {
                ArgError::Message(format!("unknown engine `{s}` (interpreter | decoded)"))
            }),
        }
    }

    /// `--technique` as a listing-level [`CliTechnique`] (the
    /// subcommands that operate on bare assembly), defaulting to FERRUM.
    pub fn technique_cli(&self) -> Result<CliTechnique, ArgError> {
        match self.value("--technique") {
            None => Ok(CliTechnique::Ferrum),
            Some(s) => CliTechnique::parse(s).ok_or_else(|| {
                ArgError::Message(format!(
                    "unknown technique `{s}` (ferrum | ferrum-zmm | scalar)"
                ))
            }),
        }
    }
}

/// The `--technique` value naming `t` (the inverse of
/// [`ParsedArgs::technique_core`]), also the label reports carry.
pub fn technique_label(t: Technique) -> &'static str {
    match t {
        Technique::None => "none",
        Technique::IrEddi => "ir-eddi",
        Technique::HybridAsmEddi => "hybrid",
        Technique::Ferrum => "ferrum",
    }
}

/// One documented argument in a subcommand's usage text.
#[derive(Debug, Clone, Copy)]
pub struct ArgHelp {
    /// The flag or option name (`--samples`, `-o`).
    pub name: &'static str,
    /// The value placeholder for options (`<n>`); `None` for flags.
    pub value: Option<&'static str>,
    /// Help text; embedded newlines continue at the help column.
    pub help: &'static str,
}

impl ArgHelp {
    /// A documented boolean flag.
    pub const fn flag(name: &'static str, help: &'static str) -> ArgHelp {
        ArgHelp {
            name,
            value: None,
            help,
        }
    }

    /// A documented option taking a `value`.
    pub const fn option(name: &'static str, value: &'static str, help: &'static str) -> ArgHelp {
        ArgHelp {
            name,
            value: Some(value),
            help,
        }
    }
}

/// Usage of `--technique` as parsed by [`ParsedArgs::technique_core`]
/// with a FERRUM default.
pub const TECHNIQUE_ARG: ArgHelp = ArgHelp::option(
    "--technique",
    "<t>",
    "ferrum | hybrid | ir-eddi | none   (default: ferrum)",
);
/// Usage of `--scale` ([`ParsedArgs::scale`]).
pub const SCALE_ARG: ArgHelp = ArgHelp::option("--scale", "<s>", "test | paper   (default: test)");
/// Usage of `--opt` ([`ParsedArgs::opt_level`]).
pub const OPT_ARG: ArgHelp = ArgHelp::option(
    "--opt",
    "<l>",
    "backend optimization level 0 | 1   (default: 0)",
);
/// Usage of `--engine` ([`ParsedArgs::engine`]).
pub const ENGINE_ARG: ArgHelp = ArgHelp::option(
    "--engine",
    "<e>",
    "interpreter | decoded   (default: interpreter)",
);

/// A subcommand's complete command-line surface: the usage forms, the
/// documented arguments, and the [`ArgSpec`] the parser enforces.
/// [`render`](UsageSpec::render) derives the `--help` text from this
/// one table, so the help can never drift from what the parser
/// actually accepts — [`check`](UsageSpec::check) pins the two
/// together, and the `ferrum` dispatch table asserts it for every
/// subcommand.
#[derive(Debug, Clone, Copy)]
pub struct UsageSpec {
    /// The command as typed (`ferrum coverage`).
    pub tool: &'static str,
    /// Usage forms, without the tool name (`"<workload> [options]"`).
    pub forms: &'static [&'static str],
    /// One entry per flag and option in [`UsageSpec::spec`].
    pub args: &'static [ArgHelp],
    /// The machine-readable spec handed to [`parse_args`].
    pub spec: ArgSpec,
}

impl UsageSpec {
    /// Renders the usage text: the `usage:` forms followed by an
    /// aligned two-column argument table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, form) in self.forms.iter().enumerate() {
            let head = if i == 0 { "usage:" } else { "      " };
            out.push_str(&format!("{head} {} {form}\n", self.tool));
        }
        let label = |a: &ArgHelp| match a.value {
            Some(v) => format!("{} {v}", a.name),
            None => a.name.to_owned(),
        };
        let width = self.args.iter().map(|a| label(a).len()).max().unwrap_or(0);
        for a in self.args {
            for (i, line) in a.help.split('\n').enumerate() {
                if i == 0 {
                    out.push_str(&format!("  {:<width$}  {line}\n", label(a)));
                } else {
                    out.push_str(&format!("  {:<width$}  {line}\n", ""));
                }
            }
        }
        // Callers print with `eprintln!`; drop the trailing newline.
        out.pop();
        out
    }

    /// Checks that the argument table and the parser spec agree: every
    /// flag is documented without a value placeholder, every option
    /// with one, and nothing is documented that the parser rejects.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first mismatch.
    pub fn check(&self) -> Result<(), String> {
        for &f in self.spec.flags {
            match self.args.iter().find(|a| a.name == f) {
                None => return Err(format!("{}: flag `{f}` is undocumented", self.tool)),
                Some(a) if a.value.is_some() => {
                    return Err(format!("{}: flag `{f}` documented with a value", self.tool))
                }
                Some(_) => {}
            }
        }
        for &v in self.spec.values {
            match self.args.iter().find(|a| a.name == v) {
                None => return Err(format!("{}: option `{v}` is undocumented", self.tool)),
                Some(a) if a.value.is_none() => {
                    return Err(format!("{}: option `{v}` documented as a flag", self.tool))
                }
                Some(_) => {}
            }
        }
        for a in self.args {
            if !self.spec.flags.contains(&a.name) && !self.spec.values.contains(&a.name) {
                return Err(format!(
                    "{}: `{}` documented but not parsed",
                    self.tool, a.name
                ));
            }
        }
        if self.forms.is_empty() {
            return Err(format!("{}: no usage forms", self.tool));
        }
        Ok(())
    }
}

/// Test support for the subcommands: asserts the usage table matches
/// the parser spec ([`UsageSpec::check`]), that the rendered text mentions
/// the tool and every argument, and that the spec rejects argument
/// misuse ([`assert_spec_rejects_misuse`]).
pub fn assert_usage_consistent(u: &UsageSpec) {
    if let Err(m) = u.check() {
        panic!("{m}");
    }
    let text = u.render();
    assert!(text.starts_with("usage: "), "{}: bad header", u.tool);
    assert!(text.contains(u.tool), "{}: tool name missing", u.tool);
    for a in u.args {
        assert!(text.contains(a.name), "{}: `{}` not rendered", u.tool, a.name);
    }
    assert_spec_rejects_misuse(&u.spec);
}

/// Test support for the subcommands: asserts that `spec` rejects every
/// repeated flag, every repeated option, and every option that would
/// otherwise swallow a `--`-prefixed token as its value.  It runs
/// against every subcommand's own [`ArgSpec`] so the duplicate-argument
/// regressions stay pinned per subcommand, not just on the shared
/// parser.
pub fn assert_spec_rejects_misuse(spec: &ArgSpec) {
    let v = |args: &[&str]| -> Vec<String> { args.iter().map(|s| (*s).to_owned()).collect() };
    for flag in spec.flags {
        let err = parse_args(&v(&[flag, flag]), spec).expect_err("duplicate flag accepted");
        assert_eq!(
            err,
            ArgError::Message(format!("duplicate flag `{flag}`")),
            "{flag}"
        );
    }
    for opt in spec.values {
        let err =
            parse_args(&v(&[opt, "1", opt, "1"]), spec).expect_err("duplicate option accepted");
        assert_eq!(
            err,
            ArgError::Message(format!("duplicate option `{opt}`")),
            "{opt}"
        );
        let err = parse_args(&v(&[opt, "--warp"]), spec).expect_err("option swallowed a flag");
        assert_eq!(
            err,
            ArgError::Message(format!("`{opt}` needs a value, found option `--warp`")),
            "{opt}"
        );
    }
}

/// Standard error exit: prints the message (if any) and the usage text
/// to stderr, and returns the conventional status 2.
pub fn usage_exit(usage: &str, err: &ArgError) -> ExitCode {
    if let ArgError::Message(m) = err {
        eprintln!("{m}");
    }
    eprintln!("{usage}");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: ArgSpec = ArgSpec {
        flags: &["--json", "--sites"],
        values: &["--samples", "--seed", "--scale", "--technique"],
        positional: true,
    };

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_common_shape() {
        let p = parse_args(
            &v(&["bfs", "--json", "--samples", "250", "--seed", "9"]),
            &SPEC,
        )
        .expect("parses");
        assert_eq!(p.positional.as_deref(), Some("bfs"));
        assert!(p.flag("--json"));
        assert!(!p.flag("--sites"));
        assert_eq!(p.samples(400).unwrap(), 250);
        assert_eq!(p.seed(0xFE44).unwrap(), 9);
        assert_eq!(p.scale().unwrap(), Scale::Test);
    }

    #[test]
    fn defaults_apply_when_options_are_absent() {
        let p = parse_args(&v(&["--sites"]), &SPEC).expect("parses");
        assert_eq!(p.positional, None);
        assert_eq!(p.samples(400).unwrap(), 400);
        assert_eq!(p.seed(0xFE44).unwrap(), 0xFE44);
        assert_eq!(
            p.technique_core(Technique::Ferrum).unwrap(),
            Technique::Ferrum
        );
        assert_eq!(p.technique_cli().unwrap(), CliTechnique::Ferrum);
    }

    #[test]
    fn technique_labels_round_trip_through_the_flag() {
        for t in [
            Technique::None,
            Technique::IrEddi,
            Technique::HybridAsmEddi,
            Technique::Ferrum,
        ] {
            let p =
                parse_args(&v(&["x", "--technique", technique_label(t)]), &SPEC).expect("parses");
            assert_eq!(p.technique_core(Technique::Ferrum).unwrap(), t);
        }
    }

    #[test]
    fn typed_accessors_parse_their_domains() {
        let p = parse_args(
            &v(&["x", "--scale", "paper", "--technique", "hybrid"]),
            &SPEC,
        )
        .expect("parses");
        assert_eq!(p.scale().unwrap(), Scale::Paper);
        assert_eq!(
            p.technique_core(Technique::Ferrum).unwrap(),
            Technique::HybridAsmEddi
        );
        let p = parse_args(&v(&["x", "--technique", "ferrum-zmm"]), &SPEC).expect("parses");
        assert_eq!(p.technique_cli().unwrap(), CliTechnique::FerrumZmm);
        assert!(p.technique_core(Technique::Ferrum).is_err());
    }

    #[test]
    fn duplicate_flags_are_rejected() {
        // Regression: `--json --json` used to silently collapse into
        // one flag; repeated arguments are always a user mistake.
        let err = parse_args(&v(&["bfs", "--json", "--json"]), &SPEC).unwrap_err();
        assert_eq!(
            err,
            ArgError::Message("duplicate flag `--json`".to_owned())
        );
    }

    #[test]
    fn duplicate_options_are_rejected() {
        // Regression: `--samples 1 --samples 2` used to silently keep
        // the last value.
        let err = parse_args(&v(&["bfs", "--samples", "1", "--samples", "2"]), &SPEC).unwrap_err();
        assert_eq!(
            err,
            ArgError::Message("duplicate option `--samples`".to_owned())
        );
        let err = parse_args(&v(&["--seed", "1", "--seed", "1"]), &SPEC).unwrap_err();
        assert!(matches!(err, ArgError::Message(m) if m.contains("duplicate option `--seed`")));
    }

    #[test]
    fn options_do_not_swallow_flags_as_values() {
        // Regression: `--samples --json` used to consume `--json` as
        // the sample count, silently dropping the flag; `--seed --warp`
        // likewise hid the unknown `--warp` inside the seed value.
        for tail in [
            &["--samples", "--json"][..],
            &["--samples", "--samples"][..],
            &["--seed", "--warp"][..],
        ] {
            let mut args = vec!["bfs"];
            args.extend_from_slice(tail);
            let err = parse_args(&v(&args), &SPEC).unwrap_err();
            assert_eq!(
                err,
                ArgError::Message(format!("`{}` needs a value, found option `{}`", tail[0], tail[1])),
                "{tail:?}"
            );
        }
    }

    #[test]
    fn engine_accessor_parses_both_engines() {
        const ENGINE_SPEC: ArgSpec = ArgSpec {
            flags: &[],
            values: &["--engine"],
            positional: true,
        };
        let p = parse_args(&v(&["bfs"]), &ENGINE_SPEC).expect("parses");
        assert_eq!(p.engine().unwrap(), EngineKind::Interpreter);
        let p = parse_args(&v(&["bfs", "--engine", "decoded"]), &ENGINE_SPEC).expect("parses");
        assert_eq!(p.engine().unwrap(), EngineKind::Decoded);
        let p = parse_args(&v(&["bfs", "--engine", "interpreter"]), &ENGINE_SPEC).expect("parses");
        assert_eq!(p.engine().unwrap(), EngineKind::Interpreter);
        let p = parse_args(&v(&["bfs", "--engine", "jit"]), &ENGINE_SPEC).expect("parses");
        assert!(p.engine().is_err());
    }

    #[test]
    fn usage_spec_renders_aligned_help() {
        const U: UsageSpec = UsageSpec {
            tool: "ferrum x",
            forms: &["<workload> [options]", "--sites [--json]"],
            args: &[
                ArgHelp {
                    name: "--json",
                    value: None,
                    help: "emit JSON",
                },
                ArgHelp {
                    name: "--sites",
                    value: None,
                    help: "list the verdicts of\nevery site",
                },
                ArgHelp {
                    name: "--samples",
                    value: Some("<n>"),
                    help: "fault budget",
                },
            ],
            spec: ArgSpec {
                flags: &["--json", "--sites"],
                values: &["--samples"],
                positional: true,
            },
        };
        U.check().expect("consistent");
        let text = U.render();
        assert!(text.starts_with("usage: ferrum x <workload> [options]\n"));
        assert!(text.contains("       ferrum x --sites [--json]\n"));
        assert!(text.contains("--samples <n>  fault budget"));
        // The multi-line help continues at the help column.
        let cont = text
            .lines()
            .find(|l| l.contains("every site"))
            .expect("continuation");
        assert_eq!(
            cont.find("every site"),
            text.lines()
                .find(|l| l.contains("list the verdicts of"))
                .and_then(|l| l.find("list the verdicts of"))
        );
        assert_usage_consistent(&U);
    }

    #[test]
    fn usage_spec_check_finds_drift() {
        const SPEC_ONLY: ArgSpec = ArgSpec {
            flags: &["--json"],
            values: &[],
            positional: false,
        };
        // Undocumented flag.
        let u = UsageSpec {
            tool: "t",
            forms: &["x"],
            args: &[],
            spec: SPEC_ONLY,
        };
        assert!(u.check().unwrap_err().contains("undocumented"));
        // Documented but unparsed argument.
        let u = UsageSpec {
            tool: "t",
            forms: &["x"],
            args: &[
                ArgHelp {
                    name: "--json",
                    value: None,
                    help: "j",
                },
                ArgHelp {
                    name: "--ghost",
                    value: None,
                    help: "g",
                },
            ],
            spec: SPEC_ONLY,
        };
        assert!(u.check().unwrap_err().contains("not parsed"));
        // Flag documented as an option.
        let u = UsageSpec {
            tool: "t",
            forms: &["x"],
            args: &[ArgHelp {
                name: "--json",
                value: Some("<v>"),
                help: "j",
            }],
            spec: SPEC_ONLY,
        };
        assert!(u.check().unwrap_err().contains("with a value"));
    }

    #[test]
    fn stdin_dash_is_a_positional() {
        let p = parse_args(&v(&["-", "--json"]), &SPEC).expect("parses");
        assert_eq!(p.positional.as_deref(), Some("-"));
    }

    #[test]
    fn errors_are_distinguished_from_help() {
        assert!(matches!(parse_args(&v(&[]), &SPEC), Err(ArgError::Help)));
        assert!(matches!(
            parse_args(&v(&["bfs", "--help"]), &SPEC),
            Err(ArgError::Help)
        ));
        assert!(matches!(
            parse_args(&v(&["--warp"]), &SPEC),
            Err(ArgError::Message(_))
        ));
        assert!(matches!(
            parse_args(&v(&["--samples"]), &SPEC),
            Err(ArgError::Message(_))
        ));
        let p = parse_args(&v(&["x", "--samples", "many"]), &SPEC).expect("parses");
        assert!(matches!(p.samples(400), Err(ArgError::Message(_))));
        // Two positionals: the second is rejected.
        assert!(matches!(
            parse_args(&v(&["a", "b"]), &SPEC),
            Err(ArgError::Message(_))
        ));
    }
}
