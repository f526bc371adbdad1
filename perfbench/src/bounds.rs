//! The regression check: two sets of results compared against the
//! bounds `BENCHMARK.json` fixes for each end-to-end metric.
//!
//! A metric regresses when the median of the new runs is worse than the
//! median of the base runs by more than its bound (a share of the base
//! median).  When either side's quartile spread is wider than the
//! bound, a result within the bound is *unresolved* rather than
//! unchanged, unless every new run reads better than every base run.

use std::collections::BTreeMap;

use ferrum::json::{parse, Json};

use crate::stats::{median, relative_spread};

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// True when a smaller value is better.
    pub lower_is_better: bool,
    /// Allowed worsening, as a share of the base median.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the check and the tests read.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics, `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn array<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| format!("`{key}` is not an array"))
}

/// Parses `BENCHMARK.json`.
///
/// # Errors
///
/// Malformed JSON or a missing or mistyped field.
pub fn parse_spec(json: &str) -> Result<Spec, String> {
    let doc = parse(json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads = array(&doc, "workloads")?
        .iter()
        .map(|w| text(w, "name"))
        .collect::<Result<_, _>>()?;
    let end_to_end = array(&doc, "end_to_end")?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                lower_is_better: match text(m, "better")?.as_str() {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("`better` is `{other}`")),
                },
                bound: field(m, "bound")?
                    .as_f64()
                    .ok_or_else(|| "`bound` is not a number".to_owned())?,
            })
        })
        .collect::<Result<_, String>>()?;
    let per_layer = array(&doc, "per_layer")?
        .iter()
        .map(|m| Ok((text(m, "name")?, text(m, "unit")?)))
        .collect::<Result<_, String>>()?;
    Ok(Spec {
        workloads,
        end_to_end,
        per_layer,
    })
}

/// The metric values of every result line in `output` (the last line a
/// run prints); other lines are skipped.
pub fn parse_results(output: &str) -> Vec<BTreeMap<String, f64>> {
    output
        .lines()
        .filter_map(|l| parse(l.trim()).ok())
        .filter_map(|doc| match doc.get("metrics") {
            Some(Json::Obj(m)) => Some(
                m.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                    .collect(),
            ),
            _ => None,
        })
        .collect()
}

/// How one metric moved between the two sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is narrower than the bound.
    Within,
    /// Worse than the base by more than the bound.
    Regressed,
    /// Within the bound, but the runs spread wider than the bound.
    Unresolved,
    /// Missing from one of the sets.
    Missing,
}

/// The comparison of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Metric name.
    pub name: String,
    /// Median of the base runs.
    pub base: f64,
    /// Median of the new runs.
    pub new: f64,
    /// How much worse the new median is, as a share of the base
    /// median (negative when better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares `new` runs against `base` runs, metric by metric.
pub fn compare(
    spec: &[MetricSpec],
    base: &[BTreeMap<String, f64>],
    new: &[BTreeMap<String, f64>],
) -> Vec<Finding> {
    spec.iter()
        .map(|m| {
            let values = |runs: &[BTreeMap<String, f64>]| {
                runs.iter()
                    .filter_map(|r| r.get(&m.name).copied())
                    .collect::<Vec<f64>>()
            };
            let (b, n) = (values(base), values(new));
            let (bm, nm) = (median(&b), median(&n));
            let worse_by = if bm == 0.0 {
                0.0
            } else if m.lower_is_better {
                (nm - bm) / bm.abs()
            } else {
                (bm - nm) / bm.abs()
            };
            let better = |x: f64, y: f64| if m.lower_is_better { x < y } else { x > y };
            let all_better = n.iter().all(|&x| b.iter().all(|&y| better(x, y)));
            let noisy = [&b, &n]
                .iter()
                .any(|v| relative_spread(v).is_some_and(|s| s > m.bound));
            let verdict = if b.is_empty() || n.is_empty() {
                Verdict::Missing
            } else if worse_by > m.bound {
                Verdict::Regressed
            } else if noisy && !all_better {
                Verdict::Unresolved
            } else {
                Verdict::Within
            };
            Finding {
                name: m.name.clone(),
                base: bm,
                new: nm,
                worse_by,
                bound: m.bound,
                verdict,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Vec<MetricSpec> {
        vec![
            MetricSpec {
                name: "wall_s".into(),
                unit: "s".into(),
                lower_is_better: true,
                bound: 0.1,
            },
            MetricSpec {
                name: "rate".into(),
                unit: "1/s".into(),
                lower_is_better: false,
                bound: 0.1,
            },
        ]
    }

    fn runs(wall: &[f64], rate: &[f64]) -> Vec<BTreeMap<String, f64>> {
        wall.iter()
            .zip(rate)
            .map(|(&w, &r)| BTreeMap::from([("wall_s".to_owned(), w), ("rate".to_owned(), r)]))
            .collect()
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let base = runs(&[1.0, 1.01, 0.99, 1.0], &[100.0, 101.0, 99.0, 100.0]);
        let slower = runs(&[1.2, 1.21, 1.19, 1.2], &[80.0, 81.0, 79.0, 80.0]);
        let f = compare(&spec(), &base, &slower);
        assert!(f.iter().all(|f| f.verdict == Verdict::Regressed), "{f:?}");
        let faster = runs(&[0.8, 0.81, 0.79, 0.8], &[120.0, 121.0, 119.0, 120.0]);
        let f = compare(&spec(), &base, &faster);
        assert!(f.iter().all(|f| f.verdict == Verdict::Within), "{f:?}");
    }

    #[test]
    fn a_wide_spread_is_unresolved() {
        let base = runs(&[0.6, 1.0, 1.4, 1.0], &[100.0; 4]);
        let f = compare(&spec(), &base, &base);
        assert_eq!(f[0].verdict, Verdict::Unresolved);
        assert_eq!(f[1].verdict, Verdict::Within);
        assert_eq!(compare(&spec(), &base, &[])[0].verdict, Verdict::Missing);
    }
}
