//! Campaign execution: the one job loop behind in-process runs, shard
//! workers and the server, and the one fold from records to results. Every
//! mapping strategy shares the HCPA allocation (step one) per scenario and
//! cluster, as in the paper.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use rats_daggen::suite::{AppFamily, Scenario};
use rats_journal::Event;
use rats_platform::Platform;
use rats_sched::{allocate, AllocParams, Allocation, MappingStrategy, Scheduler};
use rats_sim::simulate;

use crate::grid::{JobCoords, JobId};
use crate::record::RunRecord;
use crate::runner::{parallel_map, parallel_map_pooled};
use crate::shard::ShardHooks;
use crate::spec::{ClusterResults, ExperimentSpec, SpecError, SpecOutcome};

/// Number of jobs evaluated between commits — the upper bound on work a
/// crash can lose per cluster batch.
const WRITE_CHUNK: usize = 256;

/// The base seed of the reproduction campaign (any change regenerates a new
/// random population with the same statistics).
///
/// Sharding interplay: the seed *is* the scenario population, so every
/// shard file embeds it (in the manifest and in each record) and
/// [`merge_shards`](crate::shard::merge_shards) rejects mixed-seed inputs
/// — two workers that disagree on the seed ran two different campaigns,
/// and combining their records would silently misattribute results. The
/// `sharding` integration tests pin this with a negative test.
pub const BASE_SEED: u64 = 20080929; // CLUSTER 2008 opened Sept 29, Tsukuba

/// One (scenario, strategy) evaluation.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Scenario id within its suite.
    pub scenario_id: usize,
    /// Application family (for Table IV-style grouping).
    pub family: AppFamily,
    /// Simulated makespan in seconds (lower is better).
    pub makespan: f64,
    /// Total work in processor-seconds (lower is cheaper).
    pub work: f64,
}

/// All results of one strategy over a suite, aligned by scenario index.
#[derive(Debug, Clone)]
pub struct AlgoResults {
    /// Strategy display name (`"HCPA"`, `"delta"`, `"time-cost"`).
    pub name: String,
    /// One result per scenario, in suite order.
    pub runs: Vec<RunResult>,
}

impl AlgoResults {
    /// The makespans, in suite order.
    pub fn makespans(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.makespan).collect()
    }

    /// The works, in suite order.
    pub fn works(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.work).collect()
    }
}

/// A scenario with its step-one output precomputed for a given platform.
///
/// The allocation depends only on the DAG and the platform, so tuning
/// sweeps that evaluate dozens of mapping-parameter combinations reuse it —
/// exactly mirroring the paper's design where every strategy "relies on the
/// allocation procedure of HCPA".
#[derive(Debug, Clone)]
pub struct PreparedScenario {
    /// The underlying scenario.
    pub scenario: Scenario,
    /// HCPA allocation on the target platform.
    pub alloc: Allocation,
}

impl PreparedScenario {
    /// Allocates (step one) every scenario of a suite in parallel.
    pub fn prepare(suite: Vec<Scenario>, platform: &Platform, threads: usize) -> Vec<Self> {
        let allocs = parallel_map(&suite, threads, |_, s| {
            let _span = rats_telemetry::span(&rats_sched::telemetry::ALLOC_SECONDS);
            allocate(&s.dag, platform, AllocParams::default())
        });
        suite
            .into_iter()
            .zip(allocs)
            .map(|(scenario, alloc)| Self { scenario, alloc })
            .collect()
    }

    /// Maps (step two) with `strategy` and simulates; returns the result.
    pub fn evaluate(&self, platform: &Platform, strategy: MappingStrategy) -> RunResult {
        evaluate(&self.scenario, &self.alloc, platform, strategy)
    }
}

/// One campaign job: maps `scenario` (step two) with `strategy` on top of
/// its step-one `alloc`, then simulates the schedule.
fn evaluate(
    scenario: &Scenario,
    alloc: &Allocation,
    platform: &Platform,
    strategy: MappingStrategy,
) -> RunResult {
    let schedule = Scheduler::new(platform)
        .strategy(strategy)
        .schedule_with_allocation(&scenario.dag, alloc);
    let outcome = simulate(&scenario.dag, &schedule, platform);
    RunResult {
        scenario_id: scenario.id,
        family: scenario.family,
        makespan: outcome.makespan,
        work: outcome.total_work,
    }
}

/// The job loop behind [`ExperimentSpec::run`] and
/// [`run_shard_hooked`](crate::shard::run_shard_hooked): evaluates `jobs`
/// (ascending ids of the spec's grid) cluster by cluster and hands each
/// batch of at most [`WRITE_CHUNK`] records, in job order, to `commit`.
///
/// Per cluster, step one runs once for every scenario the jobs touch —
/// taken from `hooks.allocs` when it holds the allocation (a pure function
/// of DAG and platform, so a hit is bit-identical to recomputation),
/// computed and published otherwise. The population is `hooks.scenarios`,
/// or generated from the spec once a cluster has jobs. After a batch
/// commits, its records go to `hooks.on_record`, and one clock reading
/// feeds both the journal's `chunk-done` event and the chunk histogram.
/// Returns `true` when `hooks.cancel` stopped the loop early.
pub(crate) fn run_jobs<E: From<SpecError>>(
    spec: &ExperimentSpec,
    jobs: &[JobId],
    threads: usize,
    hooks: &mut ShardHooks<'_>,
    mut commit: impl FnMut(&[RunRecord]) -> Result<(), E>,
) -> Result<bool, E> {
    let grid = spec.grid();
    let strategies: Vec<MappingStrategy> = spec
        .strategies
        .iter()
        .map(|s| s.to_strategy().map_err(SpecError::Strategy))
        .collect::<Result<_, _>>()?;
    let shard = spec.shard.unwrap_or_default().index as u64;
    let cancel = hooks.cancel;
    let cancelled = || cancel.is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed));
    let mut generated: Option<Vec<Scenario>> = None;
    for (ci, cluster) in spec.clusters.iter().enumerate() {
        if cancelled() {
            return Ok(true);
        }
        let cluster_jobs: Vec<JobId> = jobs
            .iter()
            .copied()
            .filter(|&j| grid.coords(j).cluster == ci)
            .collect();
        if cluster_jobs.is_empty() {
            continue;
        }
        let scenarios: &[Scenario] = match hooks.scenarios {
            Some(provided) => provided,
            None => generated.get_or_insert_with(|| spec.scenarios()),
        };
        assert_eq!(
            scenarios.len(),
            grid.scenarios(),
            "suite size constants out of sync with the generators"
        );
        let platform = Platform::from_spec(&spec.cluster_spec(cluster)?);
        let needed: BTreeSet<usize> = cluster_jobs
            .iter()
            .map(|&j| grid.coords(j).scenario)
            .collect();
        let mut allocs: BTreeMap<usize, Allocation> = BTreeMap::new();
        let mut misses: Vec<&Scenario> = Vec::new();
        for &n in &needed {
            match hooks.allocs.and_then(|src| src.lookup(cluster, n)) {
                Some(alloc) => {
                    allocs.insert(n, alloc);
                }
                None => misses.push(&scenarios[n]),
            }
        }
        let computed = parallel_map_pooled(hooks.pool, &misses, threads, |_, s| {
            let _span = rats_telemetry::span(&rats_sched::telemetry::ALLOC_SECONDS);
            allocate(&s.dag, &platform, AllocParams::default())
        });
        for (s, alloc) in misses.iter().zip(computed) {
            if let Some(src) = hooks.allocs {
                src.publish(cluster, s.id, &alloc);
            }
            allocs.insert(s.id, alloc);
        }
        for chunk in cluster_jobs.chunks(WRITE_CHUNK) {
            if cancelled() {
                return Ok(true);
            }
            let started = Instant::now();
            let results = parallel_map_pooled(hooks.pool, chunk, threads, |_, &job| {
                let c = grid.coords(job);
                evaluate(
                    &scenarios[c.scenario],
                    &allocs[&c.scenario],
                    &platform,
                    strategies[c.strategy],
                )
            });
            let records: Vec<RunRecord> = chunk
                .iter()
                .zip(&results)
                .map(|(&job, result)| {
                    let strategy = spec.strategies[grid.coords(job).strategy].clone();
                    RunRecord::new(job.0, cluster, strategy, spec.seed, result)
                })
                .collect();
            commit(&records)?;
            if let Some(cb) = hooks.on_record.as_deref_mut() {
                records.iter().for_each(cb);
            }
            let elapsed = started.elapsed();
            if let Some(j) = hooks.journal.as_deref_mut() {
                j.emit(Event::ChunkDone {
                    job: shard,
                    jobs: chunk.len() as u64,
                    elapsed_ms: elapsed.as_millis() as u64,
                });
            }
            crate::telemetry::RECORDS.add(chunk.len() as u64);
            if rats_telemetry::enabled() {
                crate::telemetry::CHUNK_SECONDS.observe(elapsed.as_secs_f64());
            }
        }
    }
    Ok(false)
}

/// Folds the records of a whole grid — one per job, in job-id order —
/// into per-cluster, per-strategy, scenario-aligned results: the one
/// assembly behind [`ExperimentSpec::run`] and
/// [`merge_shards`](crate::shard::merge_shards).
pub(crate) fn fold_records(
    spec: ExperimentSpec,
    records: &[RunRecord],
) -> Result<SpecOutcome, SpecError> {
    let grid = spec.grid();
    let mut clusters = Vec::with_capacity(spec.clusters.len());
    for (ci, cluster) in spec.clusters.iter().enumerate() {
        let mut results = Vec::with_capacity(spec.strategies.len());
        for (si, strategy) in spec.strategies.iter().enumerate() {
            let runs = (0..grid.scenarios())
                .map(|scenario| {
                    let job = grid.id(JobCoords {
                        cluster: ci,
                        scenario,
                        strategy: si,
                    });
                    records[job.0 as usize].result()
                })
                .collect();
            results.push(AlgoResults {
                name: strategy
                    .to_strategy()
                    .map_err(SpecError::Strategy)?
                    .name()
                    .to_string(),
                runs,
            });
        }
        clusters.push(ClusterResults {
            cluster: cluster.clone(),
            results,
        });
    }
    Ok(SpecOutcome { spec, clusters })
}

/// The paper's three compared algorithms with *naive* RATS parameters
/// (section IV-B): `mindelta = maxdelta = 0.5`, `minrho = 0.5`,
/// packing allowed.
pub fn naive_strategies() -> Vec<MappingStrategy> {
    vec![
        MappingStrategy::Hcpa,
        MappingStrategy::rats_delta(0.5, 0.5),
        MappingStrategy::rats_time_cost(0.5, true),
    ]
}

#[cfg(test)]
mod tests {
    use crate::spec::{ExperimentSpec, SuiteSpec};

    #[test]
    fn campaign_runs_all_strategies_aligned() {
        let mut spec = ExperimentSpec::naive("aligned", "chti", SuiteSpec::Mini, 1);
        spec.threads = Some(2);
        let outcome = spec.run().unwrap();
        let results = &outcome.clusters[0].results;
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].name, "HCPA");
        for algo in results {
            assert_eq!(algo.runs.len(), SuiteSpec::Mini.len());
            for (i, r) in algo.runs.iter().enumerate() {
                assert_eq!(r.scenario_id, i);
                assert!(r.makespan > 0.0);
                assert!(r.work > 0.0);
            }
        }
    }
}
