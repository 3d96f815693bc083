//! `paper_campaign`: a strided shard of the paper campaign (557 scenarios,
//! grillon, the three naive strategies) through the `campaign run` path,
//! [`run_shard`] into a fresh directory, on two threads.
//!
//! The shard is fixed at `0/10` (168 jobs): strided shards of the paper grid
//! differ in cost by up to 2x, so a seed-chosen shard would measure the
//! shard, not the code. The paper population is fixed by the paper, so the
//! workload seed does not change this workload's inputs. A run repeats the
//! batch call until its time is up and reports the median rate.
//!
//! The traced run alternates an untraced [`run_shard`] call with
//! [`traced_pass`], a replica of the shard loop that records a span around
//! each call into a layer. The replica must write a shard file
//! byte-identical to the untraced call's, which proves both do the same
//! work.

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rats_daggen::suite::Scenario;
use rats_experiments::shard::ShardManifest;
use rats_experiments::{
    parallel_map, read_shard_file, run_shard, shard_file_name, ExperimentSpec, JobId,
    PreparedScenario, RunRecord, RunResult, ShardSpec, SuiteSpec, BASE_SEED,
};
use rats_platform::Platform;
use rats_sched::{allocate, AllocParams, MappingStrategy, Schedule, Scheduler};
use rats_sim::{simulate, SimOutcome};

use crate::common::{
    report_map_spans, span_count, span_s, strategy_kind, timed_setup, Checks, MapCounters, Options,
    Scale, Values, WorkDir,
};
use crate::stats::{digest, median};
use crate::trace::{self, Recorder};

/// Worker threads of the batch call.
pub const THREADS: usize = 2;
/// The strided shard every run executes.
pub const SHARD: ShardSpec = ShardSpec {
    index: 0,
    count: 10,
};
/// A small shard, disjoint from [`SHARD`], run once per set-up so that
/// code, caches and the allocator are warm before timing.
const WARMUP: ShardSpec = ShardSpec {
    index: 1,
    count: 50,
};
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;
/// Jobs per committed write batch in the shard executor.
const WRITE_CHUNK: usize = 256;
/// Per-layer metrics the traced run measures.
pub const LAYERS: &[&str] = &[
    "daggen.generate_s",
    "sched.alloc_s",
    "sched.alloc_calls",
    "sched.map_s",
    "sched.map_s.hcpa",
    "sched.map_s.delta",
    "sched.map_s.time-cost",
    "sched.map_tasks",
    "sched.estimates",
    "sched.estimates_pruned",
    "sched.redist_cache_lookups",
    "sim.simulate_s",
    "sim.calls",
    "sim.tasks_per_s",
    "sim.network_bytes",
    "redist.flows_per_job",
    "experiments.executor_idle_s",
    "experiments.record_write_s",
    "experiments.record_bytes",
    "experiments.record_read_s",
    "trace_wall_s",
    "unattributed_s",
    "trace_overhead_s",
];

/// The campaign the workload runs.
pub fn spec(scale: Scale) -> ExperimentSpec {
    match scale {
        Scale::Full => {
            let mut spec =
                ExperimentSpec::naive("paper_campaign", "grillon", SuiteSpec::Paper, BASE_SEED);
            spec.shard = Some(SHARD);
            spec
        }
        Scale::Smoke => {
            ExperimentSpec::naive("paper_campaign", "grillon", SuiteSpec::Mini, BASE_SEED)
        }
    }
}

/// Everything the checks need, built before the measured loop.
struct Setup {
    spec: ExperimentSpec,
    /// Task count per scenario.
    tasks: Vec<usize>,
    /// Results digest recorded for this shard, when there is one.
    expected: Option<String>,
}

fn setup(opts: &Options, work: &WorkDir) -> Result<(Setup, f64), String> {
    timed_setup(SETUPS, || {
        let spec = spec(opts.scale);
        spec.validate().map_err(|e| e.to_string())?;
        let tasks = spec.scenarios().iter().map(|s| s.dag.num_tasks()).collect();
        let expected = match opts.scale {
            Scale::Full => Some(crate::expected::digest("paper_campaign", 0)?),
            Scale::Smoke => None,
        };
        let mut warmup = spec.clone();
        warmup.shard = Some(WARMUP);
        let dir = work.path().join("warmup");
        let run = run_shard(&warmup, &dir, Some(THREADS)).map_err(|e| e.to_string())?;
        if run.executed != run.total || run.total == 0 {
            return Err(format!(
                "warm-up shard ran {} of {} jobs",
                run.executed, run.total
            ));
        }
        fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        Ok(Setup {
            spec,
            tasks,
            expected,
        })
    })
}

/// Checks one shard file: every record parses, sits at its grid address
/// and the shard is covered; the results digest matches. Returns the
/// digest, the number of tasks the shard's jobs carried and the seconds
/// [`read_shard_file`] took.
fn check_shard(path: &Path, s: &Setup, checks: &mut Checks) -> (String, usize, f64) {
    let grid = s.spec.grid();
    let shard = s.spec.shard.unwrap_or_default();
    let want: Vec<JobId> = grid.shard_jobs(shard).collect();
    checks.attempt(want.len() as u64);
    let t0 = Instant::now();
    let file = read_shard_file(path);
    let read_s = t0.elapsed().as_secs_f64();
    let file = match file {
        Ok(f) => f,
        Err(e) => {
            checks.fail(want.len() as u64, &format!("unreadable shard file: {e}"));
            return (String::new(), 0, read_s);
        }
    };
    let mut bad = 0;
    let mut tasks = 0;
    for (i, job) in want.iter().enumerate() {
        let c = grid.coords(*job);
        match file.records.get(i) {
            Some(r) if r.job == job.0 && r.scenario_id == c.scenario => {
                tasks += s.tasks[c.scenario];
            }
            _ => bad += 1,
        }
    }
    if file.records.len() != want.len() || file.truncated_tail {
        bad = want.len();
    }
    checks.expect(bad == 0, bad as u64, || {
        format!("{bad} shard jobs missing or misplaced")
    });
    let d = digest(file.records.iter().flat_map(|r| [r.makespan, r.work]));
    if let Some(expected) = &s.expected {
        checks.expect(&d == expected, want.len() as u64, || {
            format!("results digest {d}, recorded {expected}")
        });
    }
    (d, tasks, read_s)
}

/// One untraced batch call into a fresh directory: wall seconds and the
/// shard file written.
fn batch_call(spec: &ExperimentSpec, dir: &Path) -> Result<(f64, PathBuf), String> {
    let t0 = Instant::now();
    let run = run_shard(spec, dir, Some(THREADS)).map_err(|e| e.to_string())?;
    Ok((t0.elapsed().as_secs_f64(), run.path))
}

/// Runs the workload.
pub fn run(opts: &Options) -> Result<(Checks, Values), String> {
    let work = WorkDir::new(&opts.out_root, "paper_campaign").map_err(|e| e.to_string())?;
    let (s, setup_s) = setup(opts, &work)?;
    let mut checks = Checks::default();
    let mut v = Values::new();
    if opts.trace {
        traced_run(opts, &s, &work, &mut checks, &mut v)?;
        return Ok((checks, v));
    }
    let mut jobs_rates = Vec::new();
    let mut task_rates = Vec::new();
    let mut first: Option<String> = None;
    let start = Instant::now();
    for call in 0.. {
        let dir = work.path().join(format!("call-{call}"));
        let (wall, path) = batch_call(&s.spec, &dir)?;
        let (d, tasks, _) = check_shard(&path, &s, &mut checks);
        let jobs = s.spec.grid().shard_len(s.spec.shard.unwrap_or_default()) as f64;
        jobs_rates.push(jobs / wall);
        task_rates.push(tasks as f64 / wall);
        let first = first.get_or_insert_with(|| d.clone());
        checks.expect(*first == d, jobs as u64, || {
            format!("call {call} digest {d} differs from the first call's {first}")
        });
        fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        if start.elapsed() >= opts.seconds {
            break;
        }
    }
    v.insert("jobs_per_s", median(&jobs_rates));
    v.insert("tasks_per_s", median(&task_rates));
    v.insert("setup_s", setup_s);
    Ok((checks, v))
}

/// One job of the traced replica, kept for the checks after the pass.
struct JobOut {
    scenario: usize,
    schedule: Schedule,
    outcome: SimOutcome,
}

/// The shard loop of [`run_shard`] for a fresh directory, rebuilt from the
/// same public calls with a span around each layer call. Returns the shard
/// file and the evaluated jobs.
fn traced_pass(
    spec: &ExperimentSpec,
    dir: &Path,
    rec: &Recorder,
    op: u64,
) -> Result<(PathBuf, Vec<JobOut>), String> {
    let io = |e: std::io::Error| e.to_string();
    spec.validate().map_err(|e| e.to_string())?;
    let shard = spec.shard.unwrap_or_default();
    let manifest = ShardManifest {
        spec: spec.normalized(),
        spec_hash: spec.spec_hash(),
        seed: spec.seed,
        shard,
        threads: THREADS,
    };
    fs::create_dir_all(dir).map_err(io)?;
    let path = dir.join(shard_file_name(spec));
    {
        let _w = rec.open("experiments.record_write", None, op);
        let tmp = path.with_extension("jsonl.tmp");
        let mut file = fs::File::create(&tmp).map_err(io)?;
        let line = serde_json::to_string(&manifest).map_err(|e| e.to_string())?;
        writeln!(file, "{line}").map_err(io)?;
        drop(file);
        fs::rename(&tmp, &path).map_err(io)?;
    }
    let grid = spec.grid();
    let todo: Vec<JobId> = grid.shard_jobs(shard).collect();
    let strategies: Vec<MappingStrategy> = spec
        .strategies
        .iter()
        .map(|s| s.to_strategy().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let scenarios: Vec<Scenario> = {
        let _g = rec.open("daggen.generate", None, op);
        spec.scenarios()
    };
    let mut file = fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .map_err(io)?;
    let mut jobs_out = Vec::with_capacity(todo.len());
    for (ci, cluster_name) in spec.clusters.iter().enumerate() {
        let cluster_jobs: Vec<JobId> = todo
            .iter()
            .copied()
            .filter(|&j| grid.coords(j).cluster == ci)
            .collect();
        if cluster_jobs.is_empty() {
            continue;
        }
        let platform =
            Platform::from_spec(&spec.cluster_spec(cluster_name).map_err(|e| e.to_string())?);
        let needed: Vec<usize> = {
            let set: HashSet<usize> = cluster_jobs
                .iter()
                .map(|&j| grid.coords(j).scenario)
                .collect();
            let mut v: Vec<usize> = set.into_iter().collect();
            v.sort_unstable();
            v
        };
        let refs: Vec<&Scenario> = needed.iter().map(|&n| &scenarios[n]).collect();
        let allocs = {
            let batch = rec.open("sched.alloc_batch", None, op);
            let parent = Some(batch.id());
            parallel_map(&refs, THREADS, |_, s| {
                let _a = rec.open("sched.alloc", parent, op);
                allocate(&s.dag, &platform, AllocParams::default())
            })
        };
        let prepared: BTreeMap<usize, PreparedScenario> = {
            let _p = rec.open("experiments.prepare", None, op);
            needed
                .iter()
                .zip(allocs)
                .map(|(&n, alloc)| {
                    (
                        n,
                        PreparedScenario {
                            scenario: scenarios[n].clone(),
                            alloc,
                        },
                    )
                })
                .collect()
        };
        for chunk in cluster_jobs.chunks(WRITE_CHUNK) {
            let results = {
                let exec = rec.open("experiments.execute", None, op);
                let parent = Some(exec.id());
                parallel_map(chunk, THREADS, |_, &job| {
                    let job_span = rec.open("experiments.job", parent, op);
                    let c = grid.coords(job);
                    let p = &prepared[&c.scenario];
                    let strategy = strategies[c.strategy];
                    let schedule = {
                        let name = format!("sched.map.{}", strategy_kind(strategy));
                        let _m = rec.open(&name, Some(job_span.id()), op);
                        Scheduler::new(&platform)
                            .strategy(strategy)
                            .schedule_with_allocation(&p.scenario.dag, &p.alloc)
                    };
                    let outcome = {
                        let _s = rec.open("sim.simulate", Some(job_span.id()), op);
                        simulate(&p.scenario.dag, &schedule, &platform)
                    };
                    let result = RunResult {
                        scenario_id: p.scenario.id,
                        family: p.scenario.family,
                        makespan: outcome.makespan,
                        work: outcome.total_work,
                    };
                    (result, schedule, outcome)
                })
            };
            let _w = rec.open("experiments.record_write", None, op);
            for (&job, (result, schedule, outcome)) in chunk.iter().zip(results) {
                let c = grid.coords(job);
                let record = RunRecord::new(
                    job.0,
                    cluster_name,
                    spec.strategies[c.strategy].clone(),
                    spec.seed,
                    &result,
                );
                writeln!(file, "{}", record.to_jsonl()).map_err(io)?;
                jobs_out.push(JobOut {
                    scenario: c.scenario,
                    schedule,
                    outcome,
                });
            }
        }
    }
    Ok((path, jobs_out))
}

/// Alternates untraced batch calls with traced replica passes until the
/// run's time is up; reports per-pass layer metrics.
fn traced_run(
    opts: &Options,
    s: &Setup,
    work: &WorkDir,
    checks: &mut Checks,
    v: &mut Values,
) -> Result<(), String> {
    let rec = Recorder::new();
    let platform = Platform::from_spec(
        &s.spec
            .cluster_spec(&s.spec.clusters[0])
            .map_err(|e| e.to_string())?,
    );
    let scenarios = s.spec.scenarios();
    let mut counters = MapCounters::default();
    let mut walls = Vec::new();
    let mut overheads = Vec::new();
    let mut unattributed = Vec::new();
    let (mut tasks, mut flows, mut jobs, mut bytes, mut record_bytes) =
        (0usize, 0u64, 0u64, 0.0, 0u64);
    let mut read_s = 0.0;
    let start = Instant::now();
    let mut passes = 0u64;
    for op in 0.. {
        let plain_dir = work.path().join(format!("plain-{op}"));
        let (plain_wall, plain_path) = batch_call(&s.spec, &plain_dir)?;
        let traced_dir = work.path().join(format!("traced-{op}"));
        let before = MapCounters::read();
        let t0 = Instant::now();
        let (path, outs) = traced_pass(&s.spec, &traced_dir, &rec, op)?;
        let wall = t0.elapsed().as_secs_f64();
        counters.add(MapCounters::since(before));
        walls.push(wall);
        overheads.push(wall - plain_wall);
        let spans: Vec<_> = rec.spans().into_iter().filter(|x| x.op == op).collect();
        unattributed.push(wall - trace::top_level_s(&spans));
        passes += 1;

        let same = fs::read(&plain_path).ok() == fs::read(&path).ok();
        checks.attempt(1);
        checks.expect(same, 1, || {
            format!("traced pass {op} wrote a shard file that differs from run_shard's")
        });
        read_s += check_shard(&path, s, checks).2;
        record_bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        for j in &outs {
            let dag = &scenarios[j.scenario].dag;
            checks.attempt(1);
            if let Err(e) = j.outcome.validate(dag, &j.schedule, &platform) {
                checks.fail(1, &format!("simulated schedule invalid: {e}"));
            }
            tasks += dag.num_tasks();
            bytes += j.outcome.network_bytes;
            jobs += 1;
            for e in dag.edge_ids() {
                let edge = dag.edge(e);
                let r = rats_redist::redistribute(
                    edge.bytes,
                    &j.schedule.entry(edge.src).procs,
                    &j.schedule.entry(edge.dst).procs,
                );
                flows += r.transfers.len() as u64;
            }
        }
        fs::remove_dir_all(&plain_dir).map_err(|e| e.to_string())?;
        fs::remove_dir_all(&traced_dir).map_err(|e| e.to_string())?;
        if start.elapsed() >= opts.seconds {
            break;
        }
    }
    let spans = rec.spans();
    let totals = trace::totals(&spans);
    let n = passes as f64;
    v.insert("daggen.generate_s", span_s(&totals, "daggen.generate") / n);
    v.insert("sched.alloc_s", span_s(&totals, "sched.alloc") / n);
    v.insert("sched.alloc_calls", span_count(&totals, "sched.alloc") / n);
    report_map_spans(&totals, n, v);
    v.insert("sched.map_tasks", tasks as f64 / n);
    counters.report(n, v);
    let sim_s = span_s(&totals, "sim.simulate");
    v.insert("sim.simulate_s", sim_s / n);
    v.insert("sim.calls", span_count(&totals, "sim.simulate") / n);
    v.insert("sim.tasks_per_s", tasks as f64 / sim_s);
    v.insert("sim.network_bytes", bytes / n);
    v.insert("redist.flows_per_job", flows as f64 / jobs as f64);
    let busy = span_s(&totals, "experiments.job");
    let chunks = span_s(&totals, "experiments.execute");
    v.insert(
        "experiments.executor_idle_s",
        (THREADS as f64 * chunks - busy) / n,
    );
    v.insert(
        "experiments.record_write_s",
        span_s(&totals, "experiments.record_write") / n,
    );
    v.insert("experiments.record_bytes", record_bytes as f64 / n);
    v.insert("experiments.record_read_s", read_s / n);
    v.insert("trace_wall_s", median(&walls));
    v.insert("unattributed_s", median(&unattributed));
    v.insert("trace_overhead_s", median(&overheads));
    crate::write_spans(opts, &rec)
}
