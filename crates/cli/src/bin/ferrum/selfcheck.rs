//! `ferrum selfcheck` — every catalog self-check in one process.
//!
//! The sweep walks every bundled workload at test scale × both opt
//! levels once.  Each such case is one [`Setup`]: the module is built
//! once, each technique's [`Build`] and the attribution baseline are
//! built at most once (so each decodes and profiles at most once), and
//! each technique's serial campaign on the reference interpreter runs
//! at most once, shared by every check that needs it.  The per-case
//! checks of [`crate::COMMANDS`] run in table order on each case, then
//! the once-only checks (the pinned fuzz window,
//! `FuzzConfig::default()`, which `--samples` and `--seed` do not
//! change).  Naming a check reruns it alone.
//!
//! Checks run one at a time on this thread.  None of them touches
//! process-global state: the campaign check hands its flight recorder
//! to the plan it observes.
//!
//! Every item prints one record — under `--json` a compact object
//! whose first two fields are `check` and `ok`.  An item that cannot
//! run is a failed record carrying its `error`, and the sweep goes on.
//! Exit status: 0 every record ok, 1 any failure, 2 a usage error.

use std::cell::OnceCell;
use std::process::ExitCode;

use ferrum::json::{Json, ToJson};
use ferrum::{Build, Campaign, CampaignConfig, CampaignResult, EngineKind, OptLevel, Technique};
use ferrum_cli::args::{parse_args, ArgError, ArgHelp, ArgSpec, ParsedArgs, UsageSpec};
use ferrum_workloads::catalog::{all_workloads, Scale};

use crate::{Case, COMMANDS, TECHNIQUES};

pub const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum selfcheck",
    forms: &[
        "[options]",
        "lint|cpu|trace|coverage|forensics|compose|campaign|profile|fuzz [options]",
    ],
    args: &[
        ArgHelp::option(
            "--samples",
            "<n>",
            "faults per catalog campaign (default 200; the fuzz\nwindow is always FuzzConfig::default())",
        ),
        ArgHelp::option("--seed", "<s>", "catalog campaign seed (default 0xFE44)"),
        ArgHelp::flag("--json", "one compact JSON record per line instead of text"),
    ],
    spec: ArgSpec {
        flags: &["--json"],
        values: &["--samples", "--seed"],
        positional: true,
    },
};

/// When a subcommand's self-check runs.
#[derive(Clone, Copy)]
pub enum Check {
    /// On every workload × opt level case of the sweep.
    PerCase(fn(&Setup) -> Vec<Record>),
    /// Once, after the sweep.
    Once(fn() -> Record),
}

/// One self-check result.
pub struct Record {
    /// Whether the item passed.
    pub ok: bool,
    /// The record's fields (an object), printed after `check` and `ok`
    /// under `--json`.
    pub json: Json,
    /// The text line.
    pub text: String,
}

/// One case of the sweep: the shared setup every per-case check reads.
pub struct Setup {
    pub case: Case,
    /// The campaign size and seed of every check's campaigns.
    pub cfg: CampaignConfig,
    builds: [OnceCell<Result<Build, ferrum::Error>>; 4],
    baseline: OnceCell<Result<Build, ferrum::Error>>,
    serial: [OnceCell<Result<CampaignResult, ferrum::Error>>; 4],
}

fn slot(t: Technique) -> usize {
    TECHNIQUES
        .iter()
        .position(|&x| x == t)
        .expect("TECHNIQUES lists every technique")
}

impl Setup {
    fn new(case: Case, cfg: CampaignConfig) -> Setup {
        Setup {
            case,
            cfg,
            builds: Default::default(),
            baseline: OnceCell::new(),
            serial: Default::default(),
        }
    }

    /// The case under `t`, built on first use.
    pub fn build(&self, t: Technique) -> Result<&Build, ferrum::Error> {
        self.builds[slot(t)]
            .get_or_init(|| self.case.build(t))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The case's attribution baseline, built on first use.
    pub fn baseline(&self) -> Result<&Build, ferrum::Error> {
        self.baseline
            .get_or_init(|| self.case.pipeline.baseline(&self.case.module))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The serial campaign of [`Setup::cfg`] under `t` on the
    /// reference interpreter, run on first use: the reference the
    /// checks compare their plans against, itself checked against
    /// whole runs by the campaign check.
    pub fn serial(&self, t: Technique) -> Result<&CampaignResult, ferrum::Error> {
        self.serial[slot(t)]
            .get_or_init(|| {
                let b = self.build(t)?;
                let engine = b.engine(EngineKind::Interpreter);
                Ok(Campaign::sampled(self.cfg).run(engine, b.profile())?)
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Runs one item of a check and labels its record: `workload`, the
    /// item's `labels`, `opt`, then the check's own fields.  An item
    /// that cannot run becomes a failed record carrying its `error`.
    pub fn item(
        &self,
        labels: &[(&str, &str)],
        body: impl FnOnce() -> Result<Record, ferrum::Error>,
    ) -> Record {
        let (name, opt) = (self.case.workload.name, self.case.opt());
        let mut fields = vec![("workload".to_owned(), name.to_json())];
        fields.extend(labels.iter().map(|&(k, v)| (k.to_owned(), v.to_json())));
        fields.push(("opt".to_owned(), opt.to_json()));
        let path: Vec<&str> = std::iter::once(name)
            .chain(labels.iter().map(|&(_, v)| v))
            .collect();
        let (ok, own, text) = match body() {
            Ok(r) => (r.ok, r.json, r.text),
            Err(e) => (
                false,
                Json::obj(vec![("error", e.to_string().to_json())]),
                format!("ERROR {e}"),
            ),
        };
        if let Json::Obj(own) = own {
            fields.extend(own);
        }
        Record {
            ok,
            json: Json::Obj(fields),
            text: format!("{} [{}]: {text}", path.join("/"), opt.label()),
        }
    }
}

/// Prints one record and returns whether it passed.
fn emit(check: &str, rec: Record, json: bool) -> bool {
    if json {
        let mut fields = vec![
            ("check".to_owned(), check.to_json()),
            ("ok".to_owned(), Json::Bool(rec.ok)),
        ];
        if let Json::Obj(own) = rec.json {
            fields.extend(own);
        }
        println!("{}", Json::Obj(fields).to_string_compact());
    } else {
        println!("{check:<9}  {}", rec.text);
    }
    rec.ok
}

pub fn run(args: &[String]) -> Result<ExitCode, ArgError> {
    // Unlike the tools, a bare `ferrum selfcheck` is a full run.
    let p = if args.is_empty() {
        ParsedArgs::default()
    } else {
        parse_args(args, &USAGE.spec)?
    };
    let cfg = CampaignConfig {
        samples: p.samples(200)?,
        seed: p.seed(0xFE44)?,
    };
    let json = p.flag("--json");
    let checks = COMMANDS.iter().filter_map(|c| Some((c.name, c.check?)));
    let only = p.positional.as_deref();
    let selected: Vec<(&str, Check)> = checks
        .clone()
        .filter(|&(name, _)| only.is_none_or(|o| o == name))
        .collect();
    if let (Some(o), true) = (only, selected.is_empty()) {
        let names: Vec<&str> = checks.map(|(name, _)| name).collect();
        return Err(ArgError::Message(format!(
            "unknown check `{o}` ({})",
            names.join(" | ")
        )));
    }
    let (mut records, mut failed) = (0usize, 0usize);
    let mut tally = |check: &str, rec: Record| {
        records += 1;
        if !emit(check, rec, json) {
            failed += 1;
        }
    };
    if selected.iter().any(|(_, c)| matches!(c, Check::PerCase(_))) {
        for w in all_workloads() {
            for opt in [OptLevel::O0, OptLevel::O1] {
                let setup = Setup::new(Case::new(w.clone(), Scale::Test, opt), cfg);
                for &(name, c) in &selected {
                    if let Check::PerCase(check) = c {
                        for rec in check(&setup) {
                            tally(name, rec);
                        }
                    }
                }
            }
        }
    }
    for &(name, c) in &selected {
        if let Check::Once(check) = c {
            tally(name, check());
        }
    }
    if !json {
        println!("selfcheck: {records} records, {failed} failed");
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_workloads::catalog::workload;

    #[test]
    fn an_item_that_cannot_run_is_a_failed_record_carrying_its_error() {
        let case = Case::new(workload("bfs").expect("bundled"), Scale::Test, OptLevel::O1);
        let setup = Setup::new(
            case,
            CampaignConfig {
                samples: 1,
                seed: 1,
            },
        );
        let rec = setup.item(&[("technique", "ferrum")], || {
            Err(ferrum::Error::msg("boom"))
        });
        assert!(!rec.ok);
        assert_eq!(rec.text, "bfs/ferrum [O1]: ERROR boom");
        let Json::Obj(fields) = &rec.json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["workload", "technique", "opt", "error"]);
        assert_eq!(rec.json.get("error").and_then(Json::as_str), Some("boom"));
    }

    #[test]
    fn the_usage_names_every_check_in_table_order() {
        let names: Vec<&str> = COMMANDS
            .iter()
            .filter(|c| c.check.is_some())
            .map(|c| c.name)
            .collect();
        assert_eq!(USAGE.forms[1], format!("{} [options]", names.join("|")));
    }
}
