//! The job loop simulates each distinct schedule of a `(cluster, scenario)`
//! group once and hands its outcome to every job that maps identically.
//! Its records must equal simulating every job on its own
//! ([`PreparedScenario::evaluate`]) bit for bit: in-process, as the whole
//! grid in one shard file (each cluster's 297 jobs split scenario 7 across
//! the 256-job write chunk, so its schedules are carried), and as a strided
//! shard. `rats_sim_shared_total` must grow by exactly the jobs whose
//! schedule repeats an earlier one of their group.
//!
//! The counter is process-global, so every test here holds [`SERIAL`].

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use rats_experiments::grid::{JobId, ShardSpec};
use rats_experiments::shard::{read_shard_file, run_shard};
use rats_experiments::spec::{ExperimentSpec, StrategySpec, SuiteSpec};
use rats_experiments::tuning::sweep_specs;
use rats_experiments::PreparedScenario;
use rats_platform::Platform;
use rats_sched::{Schedule, Scheduler};
use rats_sim::telemetry::SHARED;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rats-memo-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec(clusters: &[&str], strategies: Vec<StrategySpec>) -> ExperimentSpec {
    let mut spec = ExperimentSpec::naive("memo", clusters[0], SuiteSpec::Mini, 20080929);
    spec.clusters = clusters.iter().map(|c| c.to_string()).collect();
    spec.strategies = strategies;
    spec.threads = Some(2);
    spec
}

fn sweep() -> ExperimentSpec {
    spec(&["chti", "grillon", "grelon"], sweep_specs())
}

/// One job evaluated on its own: its makespan and work bits, and the index
/// (within its group) of the first strategy whose schedule equals its own.
struct Reference {
    bits: (u64, u64),
    class: usize,
}

fn same_simulation(a: &Schedule, b: &Schedule) -> bool {
    a.order == b.order
        && a.entries.len() == b.entries.len()
        && a.entries
            .iter()
            .zip(&b.entries)
            .all(|(x, y)| x.procs == y.procs)
}

/// Every job of the sweep grid, in job order, evaluated per job.
fn reference() -> &'static [Reference] {
    static REFERENCE: OnceLock<Vec<Reference>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let spec = sweep();
        let mut out = Vec::new();
        for cluster in &spec.clusters {
            let platform = Platform::from_spec(&spec.cluster_spec(cluster).unwrap());
            let prepared = PreparedScenario::prepare(spec.scenarios(), &platform, 2);
            for p in &prepared {
                let mut schedules: Vec<Schedule> = Vec::new();
                for s in &spec.strategies {
                    let strategy = s.to_strategy().unwrap();
                    let r = p.evaluate(&platform, strategy);
                    let schedule = Scheduler::new(&platform)
                        .strategy(strategy)
                        .schedule_with_allocation(&p.scenario.dag, &p.alloc);
                    let class = schedules
                        .iter()
                        .position(|s| same_simulation(s, &schedule))
                        .unwrap_or(schedules.len());
                    schedules.push(schedule);
                    out.push(Reference {
                        bits: (r.makespan.to_bits(), r.work.to_bits()),
                        class,
                    });
                }
            }
        }
        out
    })
}

/// The jobs among `jobs` (ascending) whose schedule equals an earlier one
/// of the same group within `jobs`: what the memo shares.
fn repeats(jobs: &[u64]) -> u64 {
    let strategies = sweep().strategies.len() as u64;
    let mut seen: BTreeSet<(u64, usize)> = BTreeSet::new();
    jobs.iter()
        .filter(|&&j| !seen.insert((j / strategies, reference()[j as usize].class)))
        .count() as u64
}

/// Runs `shard` of the sweep into a fresh directory and checks every
/// record and the counter delta against the per-job reference.
fn check_shard(shard: ShardSpec) {
    let reference = reference();
    let mut spec = sweep();
    spec.shard = Some(shard);
    let jobs: Vec<u64> = spec.grid().shard_jobs(shard).map(|j| j.0).collect();
    let dir = temp_dir(&format!("{}-{}", shard.index, shard.count));
    let before = SHARED.get();
    let run = run_shard(&spec, &dir, None).unwrap();
    assert_eq!(SHARED.get() - before, repeats(&jobs));
    let file = read_shard_file(&run.path).unwrap();
    let got: Vec<u64> = file.records.iter().map(|r| r.job).collect();
    assert_eq!(got, jobs);
    for r in &file.records {
        assert_eq!(
            (r.makespan.to_bits(), r.work.to_bits()),
            reference[r.job as usize].bits,
            "job {}",
            r.job
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn in_process_sweep_matches_per_job_evaluation() {
    let _serial = serial();
    let reference = reference();
    let spec = sweep();
    let grid = spec.grid();
    let all: Vec<u64> = (0..grid.len()).collect();
    let before = SHARED.get();
    let outcome = spec.run().unwrap();
    let shared = SHARED.get() - before;
    assert_eq!(shared, repeats(&all));
    assert!(shared > 0, "the sweep's parameter points map alike");
    for (ci, cluster) in outcome.clusters.iter().enumerate() {
        for (si, algo) in cluster.results.iter().enumerate() {
            for (n, r) in algo.runs.iter().enumerate() {
                let job = grid.id(rats_experiments::JobCoords {
                    cluster: ci,
                    scenario: n,
                    strategy: si,
                });
                assert_eq!(
                    (r.makespan.to_bits(), r.work.to_bits()),
                    reference[job.0 as usize].bits,
                    "job {job}"
                );
            }
        }
    }
}

#[test]
fn whole_grid_shard_carries_a_split_group_and_matches_per_job_evaluation() {
    let _serial = serial();
    // The first write chunk of each cluster ends inside scenario 7.
    let grid = sweep().grid();
    assert_eq!(grid.coords(JobId(255)).scenario, 7);
    assert_eq!(grid.coords(JobId(256)).scenario, 7);
    check_shard(ShardSpec::new(0, 1));
}

#[test]
fn strided_shard_matches_per_job_evaluation() {
    let _serial = serial();
    check_shard(ShardSpec::new(2, 7));
}

#[test]
fn two_strategies_with_equal_schedules_simulate_once() {
    let _serial = serial();
    let spec = spec(&["chti"], vec![StrategySpec::Hcpa, StrategySpec::Hcpa]);
    rats_telemetry::set_enabled(true);
    let simulations = rats_sim::telemetry::SIMULATE_SECONDS.count();
    let before = SHARED.get();
    let outcome = spec.run().unwrap();
    let scenarios = SuiteSpec::Mini.len() as u64;
    assert_eq!(SHARED.get() - before, scenarios);
    assert_eq!(
        rats_sim::telemetry::SIMULATE_SECONDS.count() - simulations,
        scenarios
    );
    let [first, second] = &outcome.clusters[0].results[..] else {
        panic!("two strategies")
    };
    for (a, b) in first.runs.iter().zip(&second.runs) {
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.work.to_bits(), b.work.to_bits());
    }
}
