//! Campaigns as data: a serde-backed experiment specification.
//!
//! [`ExperimentSpec`] makes a campaign a document — which suite, which
//! clusters, which mapping strategies, which seed — that round-trips
//! through TOML and JSON and executes with [`ExperimentSpec::run`]. The
//! paper's artifacts are built-in specs (see
//! [`artifacts`](crate::artifacts)). The `campaign` binary runs a spec
//! file from disk:
//!
//! ```text
//! cargo run --release -p rats-server --bin campaign -- spec.toml
//! ```
//!
//! A TOML spec looks like:
//!
//! ```text
//! name = "naive-grillon"
//! seed = 20080929
//! suite = "mini"              # or "paper" (the 557-configuration set)
//! clusters = ["grillon"]
//!
//! [[strategies]]
//! kind = "hcpa"
//!
//! [[strategies]]
//! kind = "delta"
//! mindelta = 0.5
//! maxdelta = 0.5
//!
//! [[strategies]]
//! kind = "time-cost"
//! minrho = 0.5
//! allow_packing = true
//! ```

use std::fmt;

use rats_daggen::suite::{self, Scenario};
use rats_model::CostParams;
use rats_platform::ClusterSpec;
use rats_sched::{MappingStrategy, StrategyError};
use rats_workloads::WorkloadSpec;
use serde::{Deserialize, Serialize, Value};

use crate::campaign::{fold_records, run_jobs, AlgoResults};
use crate::grid::{JobGrid, JobId, ShardSpec};
use crate::runner::default_threads;
use crate::shard::ShardHooks;
use crate::stats;

/// Which scenario population a campaign runs on.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum SuiteSpec {
    /// The paper's full 557-configuration population.
    Paper,
    /// The smoke-test population (one scenario per family).
    #[default]
    Mini,
    /// A synthesized population: declarative DAG families and generated
    /// cluster topologies (see the `rats-workloads` crate). Serialized as
    /// `suite = "custom"` plus top-level `[[families]]` / `[[topologies]]`
    /// tables.
    Custom(WorkloadSpec),
}

/// Every suite name a spec document may carry. The parse error for an
/// unknown suite enumerates this list, so it can never go stale against
/// the accepted set.
pub const SUITE_NAMES: [&str; 3] = ["paper", "mini", "custom"];

impl SuiteSpec {
    fn as_str(&self) -> &'static str {
        match self {
            SuiteSpec::Paper => "paper",
            SuiteSpec::Mini => "mini",
            SuiteSpec::Custom(_) => "custom",
        }
    }

    /// Number of scenarios the suite generates — known without generating a
    /// single DAG, so job grids and merge coverage checks stay cheap.
    pub fn len(&self) -> usize {
        match self {
            SuiteSpec::Paper => suite::SUITE_COUNT,
            SuiteSpec::Mini => suite::MINI_COUNT,
            SuiteSpec::Custom(w) => w.len(),
        }
    }

    /// Suites are never empty (validation rejects empty custom specs).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The suite's population tag: `paper`/`mini`, or `custom-<8 hex>` —
    /// content-derived, so two different custom workloads never share a
    /// tag. Population cache files record and validate it.
    pub fn name(&self) -> String {
        match self {
            SuiteSpec::Custom(w) => w.tag(),
            other => other.as_str().to_string(),
        }
    }

    /// A plain-text population census (counts per family, generated
    /// clusters) computed from the spec alone — what `campaign describe`
    /// prints.
    pub fn census(&self) -> String {
        match self {
            SuiteSpec::Paper => format!(
                "population: {} scenarios (paper Table III)\n  \
                 Layered    {:>6} scenarios\n  Random     {:>6} scenarios\n  \
                 FFT        {:>6} scenarios\n  Strassen   {:>6} scenarios\n\
                 clusters: none generated (paper presets only)\n",
                suite::SUITE_COUNT,
                suite::LAYERED_COUNT,
                suite::IRREGULAR_COUNT,
                suite::FFT_COUNT,
                suite::STRASSEN_COUNT
            ),
            SuiteSpec::Mini => format!(
                "population: {} scenarios (mini smoke suite, all four paper \
                 families)\nclusters: none generated (paper presets only)\n",
                suite::MINI_COUNT
            ),
            SuiteSpec::Custom(w) => w.census(),
        }
    }
}

/// A mapping strategy as plain data (`kind` tag plus parameters), the
/// serializable mirror of [`MappingStrategy`].
#[derive(Debug, Clone, PartialEq)]
pub enum StrategySpec {
    /// The non-adopting baseline.
    Hcpa,
    /// RATS delta (structural pack/stretch bounds).
    Delta {
        /// Pack bound magnitude.
        mindelta: f64,
        /// Stretch bound.
        maxdelta: f64,
    },
    /// RATS time-cost (work-efficiency driven).
    TimeCost {
        /// Minimal acceptable work ratio for stretching.
        minrho: f64,
        /// Whether packing is allowed.
        allow_packing: bool,
    },
    /// The combined extension (delta bounds + estimate validation).
    Combined {
        /// Pack bound magnitude.
        mindelta: f64,
        /// Stretch bound.
        maxdelta: f64,
        /// Minimal acceptable work ratio for stretching.
        minrho: f64,
    },
}

impl StrategySpec {
    /// Validates and converts to the executable strategy.
    pub fn to_strategy(&self) -> Result<MappingStrategy, StrategyError> {
        match *self {
            StrategySpec::Hcpa => Ok(MappingStrategy::Hcpa),
            StrategySpec::Delta { mindelta, maxdelta } => {
                MappingStrategy::try_rats_delta(mindelta, maxdelta)
            }
            StrategySpec::TimeCost {
                minrho,
                allow_packing,
            } => MappingStrategy::try_rats_time_cost(minrho, allow_packing),
            StrategySpec::Combined {
                mindelta,
                maxdelta,
                minrho,
            } => MappingStrategy::try_rats_combined(mindelta, maxdelta, minrho),
        }
    }

    /// The data form of an executable strategy (inverse of
    /// [`Self::to_strategy`]).
    pub fn from_strategy(s: MappingStrategy) -> Self {
        match s {
            MappingStrategy::Hcpa => StrategySpec::Hcpa,
            MappingStrategy::RatsDelta(p) => StrategySpec::Delta {
                mindelta: p.mindelta,
                maxdelta: p.maxdelta,
            },
            MappingStrategy::RatsTimeCost(p) => StrategySpec::TimeCost {
                minrho: p.minrho,
                allow_packing: p.allow_packing,
            },
            MappingStrategy::RatsCombined(p) => StrategySpec::Combined {
                mindelta: p.delta.mindelta,
                maxdelta: p.delta.maxdelta,
                minrho: p.minrho,
            },
        }
    }
}

impl Serialize for StrategySpec {
    fn serialize(&self) -> Value {
        let mut t = Value::table();
        match *self {
            StrategySpec::Hcpa => {
                t.insert("kind", "hcpa");
            }
            StrategySpec::Delta { mindelta, maxdelta } => {
                t.insert("kind", "delta")
                    .insert("mindelta", &mindelta)
                    .insert("maxdelta", &maxdelta);
            }
            StrategySpec::TimeCost {
                minrho,
                allow_packing,
            } => {
                t.insert("kind", "time-cost")
                    .insert("minrho", &minrho)
                    .insert("allow_packing", &allow_packing);
            }
            StrategySpec::Combined {
                mindelta,
                maxdelta,
                minrho,
            } => {
                t.insert("kind", "combined")
                    .insert("mindelta", &mindelta)
                    .insert("maxdelta", &maxdelta)
                    .insert("minrho", &minrho);
            }
        }
        t
    }
}

impl Deserialize for StrategySpec {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let kind: String = v.field("kind")?;
        match kind.as_str() {
            "hcpa" => Ok(StrategySpec::Hcpa),
            "delta" => Ok(StrategySpec::Delta {
                mindelta: v.field("mindelta")?,
                maxdelta: v.field("maxdelta")?,
            }),
            "time-cost" => Ok(StrategySpec::TimeCost {
                minrho: v.field("minrho")?,
                allow_packing: v.field_or("allow_packing", true)?,
            }),
            "combined" => Ok(StrategySpec::Combined {
                mindelta: v.field("mindelta")?,
                maxdelta: v.field("maxdelta")?,
                minrho: v.field("minrho")?,
            }),
            other => Err(serde::Error::new(format!(
                "unknown strategy kind `{other}` (expected hcpa/delta/time-cost/combined)"
            ))),
        }
    }
}

/// A declarative campaign: who runs (strategies), on what (suite × cost
/// model × seed), and where (clusters).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Campaign name (recorded in the report header).
    pub name: String,
    /// Workload generation seed.
    pub seed: u64,
    /// Scenario population.
    pub suite: SuiteSpec,
    /// Cluster names; each must be a paper cluster (`chti`, `grillon`,
    /// `grelon`).
    pub clusters: Vec<String>,
    /// The strategies to compare; the first is the baseline of the
    /// relative statistics.
    pub strategies: Vec<StrategySpec>,
    /// Worker threads (`None` = all cores).
    pub threads: Option<usize>,
    /// Restrict execution to one shard of the job grid (`None` = the full
    /// campaign). Serialized as a `[shard]` table with `index` and `count`;
    /// excluded (like `threads`) from [`Self::spec_hash`], so every shard of
    /// a campaign shares one hash.
    pub shard: Option<ShardSpec>,
}

impl ExperimentSpec {
    /// The paper's naive three-strategy comparison on one cluster.
    pub fn naive(name: &str, cluster: &str, suite: SuiteSpec, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            seed,
            suite,
            clusters: vec![cluster.to_string()],
            strategies: vec![
                StrategySpec::Hcpa,
                StrategySpec::Delta {
                    mindelta: 0.5,
                    maxdelta: 0.5,
                },
                StrategySpec::TimeCost {
                    minrho: 0.5,
                    allow_packing: true,
                },
            ],
            threads: None,
            shard: None,
        }
    }

    /// Parses a spec from TOML text.
    pub fn from_toml(text: &str) -> Result<Self, SpecError> {
        toml::from_str(text).map_err(|e| SpecError::Parse(e.to_string()))
    }

    /// Parses a spec from JSON text.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        serde_json::from_str(text).map_err(|e| SpecError::Parse(e.to_string()))
    }

    /// Renders the spec as TOML.
    pub fn to_toml(&self) -> String {
        toml::to_string(self).expect("specs always serialize")
    }

    /// Renders the spec as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("specs always serialize")
    }

    /// Validates the executable parts: strategies, the suite (custom
    /// workloads validate their families and topology generators) and
    /// cluster names — paper presets or clusters the suite generates.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.strategies.is_empty() {
            return Err(SpecError::Invalid(
                "a spec needs at least one strategy".into(),
            ));
        }
        if self.clusters.is_empty() {
            return Err(SpecError::Invalid(
                "a spec needs at least one cluster".into(),
            ));
        }
        for s in &self.strategies {
            s.to_strategy().map_err(SpecError::Strategy)?;
        }
        if let SuiteSpec::Custom(w) = &self.suite {
            w.validate().map_err(SpecError::Invalid)?;
        }
        for c in &self.clusters {
            self.cluster_spec(c)?;
        }
        if let Some(shard) = self.shard {
            shard.validate().map_err(SpecError::Invalid)?;
        }
        Ok(())
    }

    /// Resolves a cluster name: the paper presets (`chti`, `grillon`,
    /// `grelon`) plus — for custom suites — every cluster the workload's
    /// topology generators emit.
    pub fn cluster_spec(&self, name: &str) -> Result<ClusterSpec, SpecError> {
        if let Some(c) = ClusterSpec::paper_clusters()
            .into_iter()
            .find(|c| c.name == name)
        {
            return Ok(c);
        }
        if let SuiteSpec::Custom(w) = &self.suite {
            if let Some(c) = w.clusters().into_iter().find(|c| c.name == name) {
                return Ok(c);
            }
        }
        Err(SpecError::UnknownCluster(name.to_string()))
    }

    /// The job grid this spec enumerates: `clusters × scenarios ×
    /// strategies`, with stable [`JobId`](crate::grid::JobId) addressing.
    pub fn grid(&self) -> JobGrid {
        JobGrid::new(self.clusters.len(), self.suite.len(), self.strategies.len())
    }

    /// The spec with execution-only fields (`shard`, `threads`) cleared —
    /// what shard manifests embed and [`Self::spec_hash`] digests.
    pub fn normalized(&self) -> Self {
        let mut spec = self.clone();
        spec.shard = None;
        spec.threads = None;
        spec
    }

    /// A stable content hash (FNV-1a 64, hex) of the normalized spec.
    /// Shards of the same campaign share it; merge refuses to combine shard
    /// files whose hashes differ.
    pub fn spec_hash(&self) -> String {
        let text = serde_json::to_string(&self.normalized()).expect("specs always serialize");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// Generates the spec's scenario population (deterministic in
    /// `(suite, seed)`). Workers that share a population cache (see the
    /// `rats-dispatch` crate) load the serialized form instead of calling
    /// this — the two paths produce bit-identical scenarios.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let cost = CostParams::paper();
        match &self.suite {
            SuiteSpec::Paper => suite::paper_suite(&cost, self.seed),
            SuiteSpec::Mini => suite::mini_suite(&cost, self.seed),
            SuiteSpec::Custom(w) => w.generate(&cost, self.seed),
        }
    }

    /// Executes the campaign **in-process**: every job of the grid through
    /// the same job loop shard workers run, committed into memory, then
    /// folded with the same code [`merge_shards`](crate::shard::merge_shards)
    /// uses. A spec that selects a proper shard is rejected — partial grids
    /// go through the shard executor ([`shard::run_shard`](crate::shard::run_shard)).
    pub fn run(&self) -> Result<SpecOutcome, SpecError> {
        self.validate()?;
        if self.shard.is_some_and(|s| !s.is_full()) {
            return Err(SpecError::Invalid(format!(
                "spec selects shard {} — run it with the shard executor \
                 (`campaign run`), or clear `shard` for in-process execution",
                self.shard.expect("just checked")
            )));
        }
        let threads = self.threads.unwrap_or_else(default_threads);
        let jobs: Vec<JobId> = self.grid().shard_jobs(ShardSpec::default()).collect();
        let mut records = Vec::with_capacity(jobs.len());
        run_jobs(self, &jobs, threads, &mut ShardHooks::default(), |chunk| {
            records.extend_from_slice(chunk);
            Ok::<_, SpecError>(())
        })?;
        fold_records(self.clone(), &records)
    }
}

impl Serialize for ExperimentSpec {
    fn serialize(&self) -> Value {
        let mut t = Value::table();
        t.insert("name", &self.name)
            .insert("seed", &self.seed)
            .insert("suite", self.suite.as_str())
            .insert("clusters", &self.clusters)
            .insert("strategies", &self.strategies);
        if let SuiteSpec::Custom(w) = &self.suite {
            // The workload's fields flatten into the spec document
            // (`[[families]]`, `[[topologies]]`, `total`), keeping the TOML
            // form within the flat table/array-of-tables subset.
            if let Value::Table(fields) = w.serialize() {
                for (key, value) in fields {
                    t.insert(&key, &value);
                }
            }
        }
        if let Some(threads) = self.threads {
            t.insert("threads", &threads);
        }
        if let Some(shard) = &self.shard {
            t.insert("shard", shard);
        }
        t
    }
}

impl Deserialize for ExperimentSpec {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let suite_name: String = v.field_or("suite", "mini".to_string())?;
        let suite = match suite_name.as_str() {
            "paper" => SuiteSpec::Paper,
            "mini" => SuiteSpec::Mini,
            "custom" => SuiteSpec::Custom(WorkloadSpec::deserialize(v)?),
            other => {
                return Err(serde::Error::new(format!(
                    "unknown suite `{other}` (expected one of: {})",
                    SUITE_NAMES.join(", ")
                )))
            }
        };
        Ok(Self {
            name: v.field("name")?,
            seed: v.field_or("seed", crate::campaign::BASE_SEED)?,
            suite,
            clusters: v.field("clusters")?,
            strategies: v.field("strategies")?,
            threads: v.field_or("threads", None)?,
            shard: v.field_or("shard", None)?,
        })
    }
}

/// One cluster's scenario-aligned results, one [`AlgoResults`] per
/// strategy (spec order).
#[derive(Debug, Clone)]
pub struct ClusterResults {
    /// Cluster name.
    pub cluster: String,
    /// Per-strategy results, aligned with the spec's strategy order.
    pub results: Vec<AlgoResults>,
}

/// The executed campaign: the spec plus every cluster's results.
#[derive(Debug, Clone)]
pub struct SpecOutcome {
    /// The spec that produced these numbers.
    pub spec: ExperimentSpec,
    /// One entry per requested cluster, in spec order.
    pub clusters: Vec<ClusterResults>,
}

impl SpecOutcome {
    /// A plain-text report: per cluster, each strategy's mean relative
    /// makespan and win rate against the spec's first (baseline) strategy.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "# campaign `{}` — suite {}, seed {}\n",
            self.spec.name,
            self.spec.suite.name(),
            self.spec.seed
        );
        for cr in &self.clusters {
            let _ = writeln!(
                out,
                "\n[{}] {} scenarios, baseline {}",
                cr.cluster,
                cr.results.first().map_or(0, |r| r.runs.len()),
                cr.results.first().map_or("-", |r| r.name.as_str())
            );
            let base = cr.results[0].makespans();
            for algo in &cr.results[1..] {
                let rel = stats::relative(&algo.makespans(), &base);
                let s = stats::summarize(&rel);
                let _ = writeln!(
                    out,
                    "  {:<12} mean rel makespan {:.4} ({:+.1} %), better in {:.1} % of scenarios",
                    algo.name,
                    s.mean_ratio,
                    (s.mean_ratio - 1.0) * 100.0,
                    s.wins * 100.0
                );
            }
        }
        out
    }
}

/// Errors from parsing, validating or running a spec.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document failed to parse or deserialize.
    Parse(String),
    /// The document parsed but is not executable.
    Invalid(String),
    /// A strategy's parameters were rejected.
    Strategy(StrategyError),
    /// A cluster name is not a known preset.
    UnknownCluster(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(m) => write!(f, "spec parse error: {m}"),
            SpecError::Invalid(m) => write!(f, "invalid spec: {m}"),
            SpecError::Strategy(e) => write!(f, "invalid strategy: {e}"),
            SpecError::UnknownCluster(c) => write!(
                f,
                "unknown cluster `{c}` (not a paper preset — chti, grillon, grelon — \
                 and not generated by the spec's topologies)"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentSpec {
        let mut spec = ExperimentSpec::naive("naive", "grillon", SuiteSpec::Mini, 7);
        spec.strategies.push(StrategySpec::Combined {
            mindelta: 0.5,
            maxdelta: 1.0,
            minrho: 0.4,
        });
        spec
    }

    #[test]
    fn toml_round_trip() {
        let spec = sample();
        let text = spec.to_toml();
        assert_eq!(ExperimentSpec::from_toml(&text).unwrap(), spec);
    }

    #[test]
    fn json_round_trip() {
        let spec = sample();
        let text = spec.to_json();
        assert_eq!(ExperimentSpec::from_json(&text).unwrap(), spec);
    }

    #[test]
    fn strategy_specs_mirror_strategies() {
        for s in [
            MappingStrategy::Hcpa,
            MappingStrategy::rats_delta(0.25, 1.0),
            MappingStrategy::rats_time_cost(0.4, false),
            MappingStrategy::rats_combined(0.5, 1.0, 0.6),
        ] {
            let spec = StrategySpec::from_strategy(s);
            assert_eq!(spec.to_strategy().unwrap(), s);
        }
    }

    /// The vendored TOML parser is flat: an inline array holding a `[` is
    /// rejected at depth 1, so no nesting depth can recurse. Run on a small
    /// stack so a recursive parser would abort the test instead of passing.
    #[test]
    fn deeply_nested_toml_values_are_errors() {
        let results = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let open = "[".repeat(100_000);
                [open.clone(), open + &"]".repeat(100_000)].map(|value| {
                    ExperimentSpec::from_toml(&format!("name = {value}\n")).map(|_| ())
                })
            })
            .unwrap()
            .join()
            .unwrap();
        for result in results {
            assert!(matches!(result, Err(SpecError::Parse(_))), "{result:?}");
        }
    }

    #[test]
    fn rejects_bad_documents() {
        assert!(matches!(
            ExperimentSpec::from_toml("strategies = 4"),
            Err(SpecError::Parse(_))
        ));
        let toml = "name = \"x\"\nclusters = [\"nowhere\"]\n[[strategies]]\nkind = \"hcpa\"\n";
        let spec = ExperimentSpec::from_toml(toml).unwrap();
        assert_eq!(
            spec.validate(),
            Err(SpecError::UnknownCluster("nowhere".into()))
        );
        let toml =
            "name = \"x\"\nclusters = [\"chti\"]\n[[strategies]]\nkind = \"time-cost\"\nminrho = 0.0\n";
        let spec = ExperimentSpec::from_toml(toml).unwrap();
        assert!(matches!(spec.validate(), Err(SpecError::Strategy(_))));
    }

    #[test]
    fn defaults_fill_in() {
        let toml = "name = \"d\"\nclusters = [\"chti\"]\n[[strategies]]\nkind = \"hcpa\"\n";
        let spec = ExperimentSpec::from_toml(toml).unwrap();
        assert_eq!(spec.seed, crate::campaign::BASE_SEED);
        assert_eq!(spec.suite, SuiteSpec::Mini);
        assert_eq!(spec.threads, None);
        assert_eq!(spec.shard, None);
    }

    #[test]
    fn shard_round_trips_toml_and_json() {
        let mut spec = sample();
        spec.shard = Some(ShardSpec::new(2, 5));
        let toml = spec.to_toml();
        assert!(toml.contains("[shard]"), "got:\n{toml}");
        assert_eq!(ExperimentSpec::from_toml(&toml).unwrap(), spec);
        let json = spec.to_json();
        assert_eq!(ExperimentSpec::from_json(&json).unwrap(), spec);
        // A hand-written document with an explicit shard table.
        let doc = "name = \"w\"\nclusters = [\"chti\"]\n[shard]\nindex = 1\ncount = 3\n\
                   \n[[strategies]]\nkind = \"hcpa\"\n";
        let parsed = ExperimentSpec::from_toml(doc).unwrap();
        assert_eq!(parsed.shard, Some(ShardSpec::new(1, 3)));
    }

    #[test]
    fn shard_bounds_are_validated_and_gate_in_process_runs() {
        let mut spec = ExperimentSpec::naive("s", "chti", SuiteSpec::Mini, 1);
        spec.shard = Some(ShardSpec::new(3, 3));
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        spec.shard = Some(ShardSpec::new(1, 3));
        assert!(spec.validate().is_ok());
        // A proper shard cannot run in-process...
        assert!(matches!(spec.run(), Err(SpecError::Invalid(_))));
        // ...but the trivial 0/1 shard is the full campaign.
        spec.shard = Some(ShardSpec::default());
        spec.threads = Some(2);
        assert!(spec.run().is_ok());
    }

    #[test]
    fn spec_hash_ignores_execution_fields_only() {
        let base = sample();
        let mut sharded = base.clone();
        sharded.shard = Some(ShardSpec::new(1, 4));
        sharded.threads = Some(3);
        assert_eq!(base.spec_hash(), sharded.spec_hash());
        assert_eq!(sharded.normalized(), base.normalized());
        let mut reseeded = base.clone();
        reseeded.seed += 1;
        assert_ne!(base.spec_hash(), reseeded.spec_hash());
        let mut restrategized = base.clone();
        restrategized.strategies.pop();
        assert_ne!(base.spec_hash(), restrategized.spec_hash());
    }

    #[test]
    fn grid_matches_spec_shape() {
        let spec = sample();
        let grid = spec.grid();
        assert_eq!(grid.clusters(), 1);
        assert_eq!(grid.scenarios(), SuiteSpec::Mini.len());
        assert_eq!(grid.strategies(), 4);
        assert_eq!(SuiteSpec::Paper.len(), 557);
    }

    /// A small custom campaign: three DAG families, a star cluster and a
    /// heterogeneous-speed sweep, mixed with a paper preset.
    fn custom_toml() -> &'static str {
        "name = \"custom-smoke\"\n\
         seed = 5\n\
         suite = \"custom\"\n\
         total = 6\n\
         clusters = [\"edge\", \"het-p8x2\", \"grillon\"]\n\
         \n\
         [[strategies]]\n\
         kind = \"hcpa\"\n\
         \n\
         [[strategies]]\n\
         kind = \"time-cost\"\n\
         minrho = 0.5\n\
         \n\
         [[families]]\n\
         kind = \"chain\"\n\
         count = 2\n\
         n = [5, 9]\n\
         \n\
         [[families]]\n\
         kind = \"fork-join\"\n\
         stages = 2\n\
         branches = 3\n\
         weight = 1.0\n\
         \n\
         [[families]]\n\
         kind = \"out-tree\"\n\
         depth = 2\n\
         ccr = \"loguniform(0.5, 2.0)\"\n\
         \n\
         [[topologies]]\n\
         name = \"edge\"\n\
         kind = \"star\"\n\
         procs = 9\n\
         backbone_mbps = 250.0\n\
         \n\
         [[topologies]]\n\
         name = \"het\"\n\
         kind = \"flat\"\n\
         procs = [8, 16]\n\
         gflops = [2.0, 6.0]\n"
    }

    #[test]
    fn custom_suite_round_trips_and_validates() {
        let spec = ExperimentSpec::from_toml(custom_toml()).unwrap();
        assert!(matches!(spec.suite, SuiteSpec::Custom(_)));
        assert_eq!(spec.suite.len(), 6);
        spec.validate().unwrap();
        // TOML and JSON round trips preserve the whole workload.
        let toml = spec.to_toml();
        assert_eq!(ExperimentSpec::from_toml(&toml).unwrap(), spec);
        let json = spec.to_json();
        assert_eq!(ExperimentSpec::from_json(&json).unwrap(), spec);
        // The suite tag is content-derived and stable across round trips.
        let tag = spec.suite.name();
        assert!(tag.starts_with("custom-"), "{tag}");
        assert_eq!(ExperimentSpec::from_toml(&toml).unwrap().suite.name(), tag);
        // The census is computable without generating any DAG.
        let census = spec.suite.census();
        assert!(census.contains("6 scenarios"), "{census}");
        assert!(census.contains("het-p16x6"), "{census}");
    }

    #[test]
    fn custom_suite_generates_and_executes() {
        let mut spec = ExperimentSpec::from_toml(custom_toml()).unwrap();
        spec.threads = Some(2);
        let scenarios = spec.scenarios();
        assert_eq!(scenarios.len(), 6);
        for (i, s) in scenarios.iter().enumerate() {
            assert_eq!(s.id, i);
            s.dag.validate().unwrap();
        }
        let outcome = spec.run().unwrap();
        assert_eq!(outcome.clusters.len(), 3);
        assert_eq!(outcome.clusters[0].cluster, "edge");
        for cr in &outcome.clusters {
            for algo in &cr.results {
                assert_eq!(algo.runs.len(), 6);
                assert!(algo.runs.iter().all(|r| r.makespan > 0.0));
            }
        }
        let report = outcome.render();
        assert!(report.contains("suite custom-"), "{report}");
    }

    #[test]
    fn suite_errors_enumerate_accepted_names() {
        let toml = "name = \"x\"\nsuite = \"paperclip\"\nclusters = [\"chti\"]\n\
                    [[strategies]]\nkind = \"hcpa\"\n";
        let err = ExperimentSpec::from_toml(toml).unwrap_err().to_string();
        for name in SUITE_NAMES {
            assert!(err.contains(name), "`{name}` missing from: {err}");
        }
    }

    #[test]
    fn custom_suite_validation_failures_are_spec_errors() {
        // A generated-cluster name referenced without its generator.
        let doc = custom_toml().replace("name = \"edge\"", "name = \"fringe\"");
        let spec = ExperimentSpec::from_toml(&doc).unwrap();
        match spec.validate() {
            Err(SpecError::UnknownCluster(c)) => assert_eq!(c, "edge"),
            other => panic!("expected UnknownCluster, got {other:?}"),
        }
        // An invalid family parameter surfaces as Invalid.
        let doc = custom_toml().replace("branches = 3", "branches = 0");
        let spec = ExperimentSpec::from_toml(&doc).unwrap();
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        // An unknown family kind fails at parse time, naming the kinds.
        let doc = custom_toml().replace("kind = \"chain\"", "kind = \"butterfly\"");
        let err = ExperimentSpec::from_toml(&doc).unwrap_err().to_string();
        assert!(
            err.contains("butterfly") && err.contains("fork-join"),
            "{err}"
        );
    }

    #[test]
    fn non_finite_link_parameters_fail_validation() {
        // Both parse (the TOML reader turns 1e999 into ∞) and, unvalidated,
        // panic the job: an infinite latency never ends its flows'
        // latency phase, and an infinite zero-latency link leaves an
        // uncapped flow unbounded in the max-min solve.
        for link in [
            "latency_us = 1e999",
            "latency_us = 0.0\nbandwidth_mbps = 1e999",
        ] {
            let doc = format!(
                "name = \"inf\"\nsuite = \"custom\"\ntotal = 1\nclusters = [\"flat\"]\n\
                 [[strategies]]\nkind = \"hcpa\"\n\
                 [[families]]\nkind = \"chain\"\nn = 5\n\
                 [[topologies]]\nname = \"flat\"\nkind = \"flat\"\nprocs = 4\n{link}\n"
            );
            let spec = ExperimentSpec::from_toml(&doc).unwrap();
            match spec.validate() {
                Err(SpecError::Invalid(msg)) => assert!(msg.contains("finite"), "{msg}"),
                other => panic!("`{link}`: expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn custom_spec_hash_tracks_workload_content() {
        let a = ExperimentSpec::from_toml(custom_toml()).unwrap();
        let mut b = ExperimentSpec::from_toml(custom_toml()).unwrap();
        assert_eq!(a.spec_hash(), b.spec_hash());
        if let SuiteSpec::Custom(w) = &mut b.suite {
            w.families[1].branches = rats_workloads::IntDist::Fixed(4);
        }
        assert_ne!(a.spec_hash(), b.spec_hash());
        assert_ne!(a.suite.name(), b.suite.name());
    }

    #[test]
    fn mini_campaign_executes() {
        let mut spec = ExperimentSpec::naive("smoke", "chti", SuiteSpec::Mini, 3);
        spec.threads = Some(2);
        let outcome = spec.run().unwrap();
        assert_eq!(outcome.clusters.len(), 1);
        let cr = &outcome.clusters[0];
        assert_eq!(cr.results.len(), 3);
        assert_eq!(cr.results[0].name, "HCPA");
        for algo in &cr.results {
            assert!(algo.runs.iter().all(|r| r.makespan > 0.0));
        }
        let report = outcome.render();
        assert!(report.contains("campaign `smoke`"));
        assert!(report.contains("time-cost"));
    }
}
