//! Compare mode: two sets of runs (a parent commit's and a change's), a
//! verdict per workload and end-to-end metric.
//!
//! Each set is a directory of result files named `<workload>-<seed>.json`,
//! each holding a run's output (its last line is the result). Runs pair up
//! by seed order. The rules are those of the benchmark's method: a change
//! improves a metric only when it wins at least nine tenths of the pairs
//! and the medians differ by more than the parent's interquartile range; it
//! regresses one when its median is worse than the parent's by more than
//! the metric's bound; a metric whose spread is wider than its bound is
//! unresolved unless every run of the change beats every run of the
//! parent.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::stats::{median, quartiles, relative_spread};

/// The outcome for one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the pairs rule.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse than the bound allows.
    Regressed,
    /// Too noisy to tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `head` against `base` for a metric where lower is better when
/// `lower_is_better`, with regression bound `bound` (a share of the base
/// median). Unless `spread_held`, a spread wider than the bound does not
/// make the verdict unresolved and only the medians are judged.
///
/// # Panics
/// Panics if either side is empty.
pub fn verdict(
    base: &[f64],
    head: &[f64],
    lower_is_better: bool,
    bound: f64,
    spread_held: bool,
) -> Verdict {
    let sign = if lower_is_better { -1.0 } else { 1.0 };
    let better = |h: f64, b: f64| sign * (h - b) > 0.0;
    let (bq1, bmed, bq3) = quartiles(base);
    let hmed = median(head);
    let pairs = base.len().min(head.len());
    let wins = base
        .iter()
        .zip(head)
        .filter(|&(&b, &h)| better(h, b))
        .count();
    if better(hmed, bmed) && wins * 10 >= pairs * 9 && (hmed - bmed).abs() > bq3 - bq1 {
        return Verdict::Improved;
    }
    let noisy = spread_held && relative_spread(base).max(relative_spread(head)) > bound;
    let all_better = head.iter().all(|&h| base.iter().all(|&b| better(h, b)));
    if noisy && !all_better {
        return Verdict::Unresolved;
    }
    let worse = sign * (bmed - hmed) / bmed.abs().max(f64::MIN_POSITIVE);
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// Regression bound.
    pub bound: f64,
}

/// The end-to-end metrics of a `BENCHMARK.json` document.
pub fn end_to_end_specs(benchmark: &str) -> Result<Vec<MetricSpec>, String> {
    let doc: serde::Value = serde_json::from_str(benchmark).map_err(|e| e.to_string())?;
    let list: Vec<serde::Value> = doc.field("end_to_end").map_err(|e| e.to_string())?;
    list.iter()
        .map(|m| {
            let better: String = m.field("better").map_err(|e| e.to_string())?;
            Ok(MetricSpec {
                name: m.field("name").map_err(|e| e.to_string())?,
                unit: m.field("unit").map_err(|e| e.to_string())?,
                lower_is_better: better == "lower",
                bound: m.field("bound").map_err(|e| e.to_string())?,
            })
        })
        .collect()
}

/// Runs of one set: workload → (seed, metric → value), seed-ordered.
type RunSet = BTreeMap<String, Vec<(u64, BTreeMap<String, f64>)>>;

/// Reads a directory of `<workload>-<seed>.json` result files.
pub fn read_set(dir: &Path) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir:?}: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let Some((workload, seed)) = stem.rsplit_once('-') else {
            continue;
        };
        let Ok(seed) = seed.parse::<u64>() else {
            continue;
        };
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
        let line = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| format!("{path:?} is empty"))?;
        let doc: serde::Value = serde_json::from_str(line).map_err(|e| format!("{path:?}: {e}"))?;
        let mut values = BTreeMap::new();
        if let Some(serde::Value::Table(metrics)) = doc.get("metrics") {
            for (name, m) in metrics {
                let v: f64 = m.field("value").map_err(|e| format!("{path:?}: {e}"))?;
                values.insert(name.clone(), v);
            }
        }
        set.entry(workload.to_string())
            .or_default()
            .push((seed, values));
    }
    for runs in set.values_mut() {
        runs.sort_by_key(|r| r.0);
    }
    Ok(set)
}

/// The compare report, one row per workload and end-to-end metric.
pub fn report(benchmark: &str, base: &RunSet, head: &RunSet) -> Result<String, String> {
    let specs = end_to_end_specs(benchmark)?;
    let mut out = String::new();
    writeln!(
        out,
        "{:<16} {:<12} {:>5} {:>32} {:>32} {:>6}  verdict",
        "workload", "metric", "runs", "base median [q1, q3]", "head median [q1, q3]", "wins"
    )
    .expect("writing to a String");
    for (workload, base_runs) in base {
        let Some(head_runs) = head.get(workload) else {
            continue;
        };
        for m in &specs {
            let pick = |runs: &[(u64, BTreeMap<String, f64>)]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.1.get(&m.name).copied())
                    .collect()
            };
            let (b, h) = (pick(base_runs), pick(head_runs));
            if b.is_empty() || h.is_empty() {
                continue;
            }
            let (bq1, bmed, bq3) = quartiles(&b);
            let (hq1, hmed, hq3) = quartiles(&h);
            let sign = if m.lower_is_better { -1.0 } else { 1.0 };
            let wins = b
                .iter()
                .zip(&h)
                .filter(|&(&x, &y)| sign * (y - x) > 0.0)
                .count();
            // Set-up time is held by its median only: a run sets up a few
            // times, so its spread follows the machine's drift.
            let v = verdict(&b, &h, m.lower_is_better, m.bound, m.name != "setup_s");
            writeln!(
                out,
                "{:<16} {:<12} {:>2}/{:<2} {:>32} {:>32} {:>3}/{:<2}  {}",
                workload,
                m.name,
                b.len(),
                h.len(),
                format!("{bmed:.4} [{bq1:.4}, {bq3:.4}]"),
                format!("{hmed:.4} [{hq1:.4}, {hq3:.4}]"),
                wins,
                b.len().min(h.len()),
                v.label()
            )
            .expect("writing to a String");
        }
    }
    Ok(out)
}
