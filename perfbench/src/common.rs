//! What every workload shares: options, the metric catalogue, the result
//! line, output-check tallies, the scratch directory and process probes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// A seconds-long variant of every workload for the test suite.
    Smoke,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (see [`crate::WORKLOADS`]).
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// How long the measured loop runs (it always completes one unit).
    pub seconds: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Run size.
    pub scale: Scale,
    /// Root under which scratch directories and span files go.
    pub out_root: PathBuf,
}

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "1/s"),
    ("tasks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Each workload lists the
/// ones it measures (its `LAYERS`); it reports 0 for the others.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("daggen.generate_s", "s"),
    ("sched.alloc_s", "s"),
    ("sched.alloc_calls", "count"),
    ("sched.map_s", "s"),
    ("sched.map_s.hcpa", "s"),
    ("sched.map_s.delta", "s"),
    ("sched.map_s.time-cost", "s"),
    ("sched.map_tasks", "count"),
    ("sched.estimates", "count"),
    ("sched.estimates_pruned", "count"),
    ("sched.redist_cache_hit_ratio", "ratio"),
    ("sched.redist_cache_lookups", "count"),
    ("sim.simulate_s", "s"),
    ("sim.calls", "count"),
    ("sim.tasks_per_s", "1/s"),
    ("sim.network_bytes", "bytes"),
    ("redist.flows_per_job", "count"),
    ("experiments.executor_idle_s", "s"),
    ("experiments.record_write_s", "s"),
    ("experiments.record_bytes", "bytes"),
    ("experiments.merge_s", "s"),
    ("experiments.record_read_s", "s"),
    ("submit_cold_ms.p50", "ms"),
    ("submit_cold_ms.p90", "ms"),
    ("submit_warm_ms.p50", "ms"),
    ("submit_warm_ms.p90", "ms"),
    ("server.accept_ms.cold", "ms"),
    ("server.accept_ms.warm", "ms"),
    ("server.first_record_ms.cold", "ms"),
    ("server.first_record_ms.warm", "ms"),
    ("server.stream_ms.cold", "ms"),
    ("server.stream_ms.warm", "ms"),
    ("server.done_ms.cold", "ms"),
    ("server.done_ms.warm", "ms"),
    ("warm.population_hit_ratio", "ratio"),
    ("warm.population_lookups", "count"),
    ("warm.alloc_hit_ratio", "ratio"),
    ("warm.alloc_lookups", "count"),
    ("journal.events_per_submit", "count"),
    ("journal.bytes_per_submit", "bytes"),
    ("trace_wall_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead_s", "s"),
];

/// Metric values a workload measured, by catalogue name.
pub type Values = BTreeMap<&'static str, f64>;

/// Output-check tallies: operations attempted and failed, with the reason
/// for each failure printed to stderr as it is found.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
}

impl Checks {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` failed operations and says why.
    pub fn fail(&mut self, n: u64, why: &str) {
        self.failed += n;
        eprintln!("perfbench: check failed ({n} ops): {why}");
    }

    /// Fails `n` operations unless `ok`.
    pub fn expect(&mut self, ok: bool, n: u64, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(n, &why());
        }
    }
}

/// What one run prints as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// `(name, value, unit)` for every metric of the run's mode.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// Assembles the result for `trace` mode from a workload's values:
    /// every catalogue metric of the mode, in catalogue order. `layers`
    /// names the per-layer metrics the workload measures; any other
    /// per-layer metric reads 0.
    ///
    /// # Errors
    /// When an end-to-end metric, or in `trace` mode a metric of `layers`,
    /// is missing or not finite: the workload failed to measure it.
    pub fn new(
        checks: &Checks,
        values: &Values,
        trace: bool,
        layers: &[&str],
    ) -> Result<Self, String> {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = match values.get(name).copied().filter(|v| v.is_finite()) {
                    Some(v) => v,
                    None if trace && !layers.contains(&name) => 0.0,
                    None => return Err(format!("metric `{name}` was not measured")),
                };
                Ok((name.to_string(), value, unit.to_string()))
            })
            .collect::<Result<_, String>>()?;
        Ok(Outcome {
            correct: checks.failed == 0 && checks.attempted > 0,
            attempted: checks.attempted,
            failed: checks.failed,
            metrics,
        })
    }

    /// The single-line JSON result.
    pub fn to_json(&self) -> String {
        let mut metrics = serde::Value::table();
        for (name, value, unit) in &self.metrics {
            let mut m = serde::Value::table();
            m.insert("value", value).insert("unit", unit);
            metrics.insert(name, &m);
        }
        let mut t = serde::Value::table();
        t.insert("correct", &self.correct)
            .insert("attempted", &self.attempted)
            .insert("failed", &self.failed)
            .insert("metrics", &metrics);
        serde_json::to_string(&t).expect("results always serialize")
    }
}

/// A scratch directory under the run's output root, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `<out_root>/work-<tag>-<pid>` afresh.
    pub fn new(out_root: &Path, tag: &str) -> std::io::Result<Self> {
        let path = out_root.join(format!("work-{tag}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Current value of a registered `rats-telemetry` counter (0 when absent).
pub fn counter(name: &str) -> u64 {
    rats_telemetry::global()
        .metrics()
        .iter()
        .find_map(|m| match m {
            rats_telemetry::Metric::Counter(c) if c.name() == name => Some(c.get()),
            _ => None,
        })
        .unwrap_or(0)
}

/// The mapping counters the traced runs report as deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct MapCounters {
    estimates: u64,
    pruned: u64,
    redist_hits: u64,
    redist_misses: u64,
}

impl MapCounters {
    /// Reads the counters now.
    pub fn read() -> Self {
        rats_telemetry::global().register(rats_sched::telemetry::METRICS);
        MapCounters {
            estimates: counter("rats_mapping_estimates_total"),
            pruned: counter("rats_mapping_estimates_pruned_total"),
            redist_hits: counter("rats_mapping_redist_cache_hits_total"),
            redist_misses: counter("rats_mapping_redist_cache_misses_total"),
        }
    }

    /// Counter growth since `before`.
    pub fn since(before: Self) -> Self {
        let now = Self::read();
        MapCounters {
            estimates: now.estimates - before.estimates,
            pruned: now.pruned - before.pruned,
            redist_hits: now.redist_hits - before.redist_hits,
            redist_misses: now.redist_misses - before.redist_misses,
        }
    }

    /// Adds another delta.
    pub fn add(&mut self, other: Self) {
        self.estimates += other.estimates;
        self.pruned += other.pruned;
        self.redist_hits += other.redist_hits;
        self.redist_misses += other.redist_misses;
    }

    /// Writes the `sched.*` counter metrics, divided by `units`.
    pub fn report(&self, units: f64, v: &mut Values) {
        let lookups = (self.redist_hits + self.redist_misses) as f64;
        v.insert("sched.estimates", self.estimates as f64 / units);
        v.insert("sched.estimates_pruned", self.pruned as f64 / units);
        v.insert("sched.redist_cache_lookups", lookups / units);
        v.insert(
            "sched.redist_cache_hit_ratio",
            self.redist_hits as f64 / lookups,
        );
    }
}

/// The name of a mapping strategy's family, as the `sched.map_s.*`
/// metrics and spans spell it.
pub fn strategy_kind(s: rats_sched::MappingStrategy) -> &'static str {
    match s {
        rats_sched::MappingStrategy::Hcpa => "hcpa",
        rats_sched::MappingStrategy::RatsDelta(_) => "delta",
        rats_sched::MappingStrategy::RatsTimeCost(_) => "time-cost",
        rats_sched::MappingStrategy::RatsCombined(_) => "combined",
    }
}

/// Writes `sched.map_s` and its per-kind split from span totals.
pub fn report_map_spans(
    totals: &BTreeMap<String, crate::trace::LayerTotals>,
    units: f64,
    v: &mut Values,
) {
    let mut all = 0.0;
    for (kind, metric) in [
        ("hcpa", "sched.map_s.hcpa"),
        ("delta", "sched.map_s.delta"),
        ("time-cost", "sched.map_s.time-cost"),
    ] {
        let s = span_s(totals, &format!("sched.map.{kind}"));
        all += s;
        v.insert(metric, s / units);
    }
    v.insert("sched.map_s", all / units);
}

/// Span total of `name` in seconds. NaN when no such span was recorded,
/// so a metric derived from it reads as unmeasured.
pub fn span_s(totals: &BTreeMap<String, crate::trace::LayerTotals>, name: &str) -> f64 {
    totals.get(name).map_or(f64::NAN, |t| t.total_s)
}

/// Span count of `name`; NaN when absent, as for [`span_s`].
pub fn span_count(totals: &BTreeMap<String, crate::trace::LayerTotals>, name: &str) -> f64 {
    totals.get(name).map_or(f64::NAN, |t| t.count as f64)
}

/// Median of a setup closure's wall time over `reps` repetitions; returns
/// the last repetition's product.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        let product = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(product);
    }
    Ok((
        last.expect("at least one repetition"),
        crate::stats::median(&times),
    ))
}
