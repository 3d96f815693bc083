//! Campaign execution: the one job loop behind in-process runs, shard
//! workers and the server, and the one fold from records to results. Every
//! mapping strategy shares the HCPA allocation (step one) per scenario and
//! cluster, as in the paper.
//!
//! The loop hands out one pool task per `(cluster, scenario)` group of a
//! write chunk, and the group task simulates each distinct schedule once.
//! `simulate` is a pure function of the DAG, the platform, every entry's
//! ordered processor set and the schedule's `order`; it reads no estimate.
//! So two strategies of a group that map to equal processor sets in the
//! same order have bit-identical outcomes, and the later job takes the
//! earlier one's makespan and work. The memo lives for one group only (a
//! group split by a chunk boundary carries it into the next chunk). Sweeps
//! whose parameter points map alike gain most; a strided shard holds few
//! strategies per scenario and rarely hits.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;
use std::time::Instant;

use rats_daggen::suite::{AppFamily, Scenario};
use rats_journal::Event;
use rats_platform::Platform;
use rats_sched::{allocate, AllocParams, Allocation, MappingStrategy, Schedule, Scheduler};
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

/// Maps `scenario` (step two) with `strategy` on top of its step-one
/// `alloc`.
fn map(
    scenario: &Scenario,
    alloc: &Allocation,
    platform: &Platform,
    strategy: MappingStrategy,
) -> Schedule {
    Scheduler::new(platform)
        .strategy(strategy)
        .schedule_with_allocation(&scenario.dag, alloc)
}

/// The result of a job on `scenario` whose schedule simulated to `makespan`
/// and `work`.
fn run_result(scenario: &Scenario, makespan: f64, work: f64) -> RunResult {
    RunResult {
        scenario_id: scenario.id,
        family: scenario.family,
        makespan,
        work,
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
    let schedule = map(scenario, alloc, platform, strategy);
    let outcome = simulate(&scenario.dag, &schedule, platform);
    run_result(scenario, outcome.makespan, outcome.total_work)
}

/// A schedule a group task simulated, kept so that a later job of the same
/// `(cluster, scenario)` group with an identical schedule takes its outcome.
struct Simulated {
    /// [`fingerprint`] of `schedule`.
    fingerprint: u64,
    schedule: Schedule,
    makespan: f64,
    work: f64,
}

/// An FNV-1a fold of every entry's processor-set fingerprint: a cheap
/// filter before [`same_simulation`] decides.
fn fingerprint(schedule: &Schedule) -> u64 {
    schedule.entries.iter().fold(0xcbf2_9ce4_8422_2325, |h, e| {
        (h ^ e.procs.fingerprint()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Whether `simulate` reads the same input from `a` and `b` on one DAG and
/// platform: the same `order` and, entry by entry, the same ordered
/// processor set (the estimates it never reads may differ).
fn same_simulation(a: &Schedule, b: &Schedule) -> bool {
    a.order == b.order
        && a.entries.len() == b.entries.len()
        && a.entries
            .iter()
            .zip(&b.entries)
            .all(|(x, y)| x.procs == y.procs)
}

/// Evaluates the jobs of one `(cluster, scenario)` group in job order, one
/// per `strategies` item, into the matching `out` slot. Each job is mapped;
/// a schedule equal to an earlier one of the group (`carried` holds those
/// the group simulated in the previous chunk) takes that simulation's
/// makespan and work and counts in
/// [`SHARED`](rats_sim::telemetry::SHARED), any other is simulated.
///
/// A simulated schedule is kept only while a later job could repeat it:
/// for the rest of the group, and past its last job when `keep` (the group
/// goes on in the next chunk), in which case the kept schedules are
/// returned. A group of one job, with nothing carried in or kept, is
/// mapped and simulated as [`evaluate`] does: no fingerprint, clone or
/// allocation on top.
fn evaluate_group(
    scenario: &Scenario,
    alloc: &Allocation,
    platform: &Platform,
    strategies: impl Iterator<Item = MappingStrategy>,
    carried: &[Simulated],
    keep: bool,
    out: &[OnceLock<RunResult>],
) -> Vec<Simulated> {
    let mut memo: Vec<Simulated> = Vec::new();
    for (k, (strategy, slot)) in strategies.zip(out).enumerate() {
        let schedule = map(scenario, alloc, platform, strategy);
        let remember = keep || k + 1 < out.len();
        let fp =
            (remember || !carried.is_empty() || !memo.is_empty()).then(|| fingerprint(&schedule));
        let hit = fp.and_then(|fp| {
            carried
                .iter()
                .chain(&memo)
                .find(|m| m.fingerprint == fp && same_simulation(&m.schedule, &schedule))
        });
        let (makespan, work) = match hit {
            Some(m) => {
                rats_sim::telemetry::SHARED.inc();
                (m.makespan, m.work)
            }
            None => {
                let outcome = simulate(&scenario.dag, &schedule, platform);
                let (makespan, work) = (outcome.makespan, outcome.total_work);
                if let Some(fingerprint) = fp.filter(|_| remember) {
                    memo.push(Simulated {
                        fingerprint,
                        schedule,
                        makespan,
                        work,
                    });
                }
                (makespan, work)
            }
        };
        slot.set(run_result(scenario, makespan, work))
            .expect("each job is evaluated once");
    }
    if keep {
        memo
    } else {
        Vec::new()
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
/// or generated from the spec once a cluster has jobs.
///
/// Strategy is the innermost grid coordinate, so the jobs of one
/// `(cluster, scenario)` are contiguous in any ascending job list, a
/// strided shard's included. Each chunk runs one pool task per such group
/// ([`evaluate_group`]): it simulates each distinct schedule of the group
/// once, and a chunk boundary that splits a group carries the group's
/// simulated schedules into the next chunk's first task. Only the last
/// group of a chunk can keep schedules past its task, so a chunk holds at
/// most one group's. The key is the whole simulator input, compared in
/// full, so the records are bit-identical to simulating every job. A
/// strided shard of `count` holds ~`strategies / count` jobs per scenario:
/// most of its groups are single jobs, which pay nothing for the memo.
///
/// After a batch commits, its records go to `hooks.on_record`, and one
/// clock reading feeds both the journal's `chunk-done` event and the chunk
/// histogram. Returns `true` when `hooks.cancel` stopped the loop early.
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
            allocate(&s.dag, &platform, AllocParams::default())
        });
        for (s, alloc) in misses.iter().zip(computed) {
            if let Some(src) = hooks.allocs {
                src.publish(cluster, s.id, &alloc);
            }
            allocs.insert(s.id, alloc);
        }
        let scenario_of = |job: &JobId| grid.coords(*job).scenario;
        // The simulated schedules of the group the previous chunk ended in,
        // when this chunk goes on with it.
        let mut carry: Vec<Simulated> = Vec::new();
        for (k, chunk) in cluster_jobs.chunks(WRITE_CHUNK).enumerate() {
            if cancelled() {
                return Ok(true);
            }
            let started = Instant::now();
            let mut offset = 0;
            let groups: Vec<(usize, &[JobId])> = chunk
                .chunk_by(|a, b| scenario_of(a) == scenario_of(b))
                .map(|group| {
                    offset += group.len();
                    (offset - group.len(), group)
                })
                .collect();
            let last = groups.len() - 1;
            let continues = cluster_jobs
                .get((k + 1) * WRITE_CHUNK)
                .is_some_and(|next| scenario_of(next) == scenario_of(&chunk[chunk.len() - 1]));
            let carried = std::mem::take(&mut carry);
            let slots: Vec<OnceLock<RunResult>> = chunk.iter().map(|_| OnceLock::new()).collect();
            let mut kept = parallel_map_pooled(hooks.pool, &groups, threads, |g, &(at, jobs)| {
                let n = scenario_of(&jobs[0]);
                evaluate_group(
                    &scenarios[n],
                    &allocs[&n],
                    &platform,
                    jobs.iter().map(|&j| strategies[grid.coords(j).strategy]),
                    if g == 0 { &carried } else { &[] },
                    g == last && continues,
                    &slots[at..at + jobs.len()],
                )
            });
            if continues {
                carry = kept.pop().expect("a chunk has a group");
                if last == 0 {
                    // One group spans the whole chunk: what it carried in
                    // stays comparable after the chunk.
                    carry.splice(0..0, carried);
                }
            }
            let records: Vec<RunRecord> = chunk
                .iter()
                .zip(slots)
                .map(|(&job, slot)| {
                    let result = slot.into_inner().expect("every job was evaluated");
                    let strategy = spec.strategies[grid.coords(job).strategy].clone();
                    RunRecord::new(job.0, cluster, strategy, spec.seed, &result)
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
    use super::*;
    use crate::spec::{StrategySpec, SuiteSpec};

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

    /// One scenario's 600 identical strategies span three write chunks:
    /// the middle chunk is one group that takes the first chunk's
    /// simulation and hands it on to the third, so each scenario simulates
    /// once.
    #[test]
    fn a_group_spanning_write_chunks_simulates_once() {
        let mut spec = ExperimentSpec::naive("long", "chti", SuiteSpec::Mini, 1);
        spec.strategies = vec![StrategySpec::Hcpa; 600];
        let jobs: Vec<JobId> = (0..1200).map(JobId).collect();
        let before = rats_sim::telemetry::SHARED.get();
        let mut records = Vec::new();
        run_jobs(&spec, &jobs, 2, &mut ShardHooks::default(), |chunk| {
            records.extend_from_slice(chunk);
            Ok::<_, SpecError>(())
        })
        .unwrap();
        // Other tests only add to the counter.
        assert!(rats_sim::telemetry::SHARED.get() - before >= 1198);
        let platform = Platform::from_spec(&spec.cluster_spec("chti").unwrap());
        let prepared = PreparedScenario::prepare(spec.scenarios(), &platform, 2);
        let expected: Vec<RunResult> = prepared[..2]
            .iter()
            .map(|p| p.evaluate(&platform, MappingStrategy::Hcpa))
            .collect();
        assert_eq!(records.len(), jobs.len());
        for (r, job) in records.iter().zip(&jobs) {
            let e = expected[job.0 as usize / 600];
            assert_eq!(r.job, job.0);
            assert_eq!(r.makespan.to_bits(), e.makespan.to_bits());
            assert_eq!(r.work.to_bits(), e.work.to_bits());
        }
    }
}
