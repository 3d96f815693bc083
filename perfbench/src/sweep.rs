//! `large_dag_sweep`: step one and step two on large DAGs, no simulation.
//!
//! A DAG set is four DAGs on grillon (irregular n=2000 and n=5000, layered
//! n=2000, FFT k=256: ~11.6k tasks, ~143k edges). Setup generates
//! [`VARIANTS`] such sets. A pass takes one set, runs one `allocate` per
//! DAG, then `schedule_with_allocation` for each of the 33 tuning-sweep
//! strategies, on one thread. Passes cycle through the sets starting at
//! the one the workload seed picks, so every run covers all of them and
//! seeds differ in order only. A run makes at least one full cycle and
//! reports rates over a cycle of each set's median pass time.

use std::time::Instant;

use rats_dag::TaskGraph;
use rats_daggen::{fft_dag, irregular_dag, layered_dag, scenario_seed, DagParams};
use rats_model::CostParams;
use rats_platform::{ClusterSpec, Platform};
use rats_sched::{allocate, AllocParams, MappingStrategy, Scheduler};

use crate::common::{
    report_map_spans, span_count, span_s, strategy_kind, timed_setup, Checks, MapCounters, Options,
    Scale, Values,
};
use crate::stats::{digest, median};
use crate::trace::{self, Recorder};

/// Distinct DAG sets.
pub const VARIANTS: usize = 8;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 15;
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
    "sched.redist_cache_hit_ratio",
    "sched.redist_cache_lookups",
    "trace_wall_s",
    "unattributed_s",
    "trace_overhead_s",
];

/// DAG set `variant`, generated with a span per DAG when traced.
pub fn dags(variant: usize, scale: Scale, rec: Option<&Recorder>) -> Vec<TaskGraph> {
    let base = 0x5eed_0000 + variant as u64;
    let cost = CostParams::paper();
    let irregular = |n| DagParams {
        n,
        width: 0.5,
        regularity: 0.5,
        density: 0.5,
        jump: 2,
    };
    let (small, large, fft_k) = match scale {
        Scale::Full => (2000, 5000, 256),
        Scale::Smoke => (60, 120, 8),
    };
    let gens: [&dyn Fn(u64) -> TaskGraph; 4] = [
        &|s| irregular_dag(&irregular(small), &cost, s),
        &|s| irregular_dag(&irregular(large), &cost, s),
        &|s| layered_dag(&DagParams::layered(small, 0.5, 0.5, 0.5), &cost, s),
        &|s| fft_dag(fft_k, &cost, s),
    ];
    gens.iter()
        .enumerate()
        .map(|(i, g)| {
            let _span = rec.map(|r| r.open("daggen.generate", None, 0));
            g(scenario_seed(base, i))
        })
        .collect()
}

/// One pass's measurements.
pub struct Pass {
    /// Seconds inside `allocate` and `schedule_with_allocation`.
    pub busy: f64,
    /// `makespan_estimate` of every schedule, DAG-major.
    pub estimates: Vec<f64>,
}

/// Runs one pass over a DAG set, validating every schedule when `validate`
/// (outside the timed calls) and recording spans when `rec` is given.
pub fn pass(
    dags: &[TaskGraph],
    platform: &Platform,
    strategies: &[MappingStrategy],
    validate: Option<&mut Checks>,
    rec: Option<(&Recorder, u64)>,
) -> Pass {
    let mut busy = 0.0;
    let mut estimates = Vec::with_capacity(dags.len() * strategies.len());
    let mut failures = Vec::new();
    for dag in dags {
        let t0 = Instant::now();
        let alloc = {
            let _a = rec.map(|(r, op)| r.open("sched.alloc", None, op));
            allocate(dag, platform, AllocParams::default())
        };
        busy += t0.elapsed().as_secs_f64();
        for &strategy in strategies {
            let t0 = Instant::now();
            let schedule = {
                let _m = rec.map(|(r, op)| {
                    r.open(&format!("sched.map.{}", strategy_kind(strategy)), None, op)
                });
                Scheduler::new(platform)
                    .strategy(strategy)
                    .schedule_with_allocation(dag, &alloc)
            };
            busy += t0.elapsed().as_secs_f64();
            estimates.push(schedule.makespan_estimate());
            if validate.is_some() {
                if let Err(e) = schedule.validate(dag, platform) {
                    failures.push(format!("{} schedule invalid: {e}", strategy.name()));
                }
            }
        }
    }
    if let Some(checks) = validate {
        checks.attempt(estimates.len() as u64);
        for f in failures {
            checks.fail(1, &f);
        }
    }
    Pass { busy, estimates }
}

/// Runs the workload.
pub fn run(opts: &Options) -> Result<(Checks, Values), String> {
    let rec = Recorder::new();
    let (sets, setup_s) = timed_setup(SETUPS, || {
        Ok((0..VARIANTS)
            .map(|v| dags(v, opts.scale, opts.trace.then_some(&rec)))
            .collect::<Vec<_>>())
    })?;
    let expected: Vec<Option<String>> = (0..VARIANTS)
        .map(|v| match opts.scale {
            Scale::Full => crate::expected::digest("large_dag_sweep", v).map(Some),
            Scale::Smoke => Ok(None),
        })
        .collect::<Result<_, _>>()?;
    let platform = Platform::from_spec(&ClusterSpec::grillon());
    let strategies = rats_experiments::sweep_strategies();
    let mut first: Vec<Option<String>> = vec![None; VARIANTS];
    let mut checks = Checks::default();
    let mut check_digest = |variant: usize, p: &Pass, checks: &mut Checks| {
        let d = digest(p.estimates.iter().copied());
        if let Some(e) = &expected[variant] {
            checks.expect(&d == e, p.estimates.len() as u64, || {
                format!("set {variant}: makespan_estimate digest {d}, recorded {e}")
            });
        }
        let first = first[variant].get_or_insert_with(|| d.clone());
        checks.expect(*first == d, p.estimates.len() as u64, || {
            format!("set {variant}: digest {d} differs from its first pass's {first}")
        });
    };

    let mut v = Values::new();
    // Busy seconds of every untraced pass, per DAG set.
    let mut busy: Vec<Vec<f64>> = vec![Vec::new(); VARIANTS];
    let (mut walls, mut overheads, mut unattributed) = (Vec::new(), Vec::new(), Vec::new());
    let mut counters = MapCounters::default();
    let (mut mapped, mut passes) = (0.0, 0u64);
    let start = Instant::now();
    for op in 0u64.. {
        let variant = ((opts.seed % VARIANTS as u64 + op) % VARIANTS as u64) as usize;
        let dags = &sets[variant];
        let tasks: usize = dags.iter().map(TaskGraph::num_tasks).sum();
        let validate = (op < VARIANTS as u64).then_some(&mut checks);
        let p = pass(dags, &platform, &strategies, validate, None);
        check_digest(variant, &p, &mut checks);
        busy[variant].push(p.busy);
        if opts.trace {
            let before = MapCounters::read();
            let t0 = Instant::now();
            let traced = pass(dags, &platform, &strategies, None, Some((&rec, op + 1)));
            let wall = t0.elapsed().as_secs_f64();
            counters.add(MapCounters::since(before));
            check_digest(variant, &traced, &mut checks);
            let spans: Vec<_> = rec.spans().into_iter().filter(|s| s.op == op + 1).collect();
            walls.push(wall);
            unattributed.push(wall - trace::top_level_s(&spans));
            overheads.push(wall - p.busy);
            mapped += (tasks * strategies.len()) as f64;
            passes += 1;
        }
        if op + 1 >= VARIANTS as u64 && start.elapsed() >= opts.seconds {
            break;
        }
    }
    if opts.trace {
        let totals = trace::totals(&rec.spans());
        let n = passes as f64;
        v.insert(
            "daggen.generate_s",
            span_s(&totals, "daggen.generate") / (SETUPS * VARIANTS) as f64,
        );
        v.insert("sched.alloc_s", span_s(&totals, "sched.alloc") / n);
        v.insert("sched.alloc_calls", span_count(&totals, "sched.alloc") / n);
        report_map_spans(&totals, n, &mut v);
        v.insert("sched.map_tasks", mapped / n);
        counters.report(n, &mut v);
        v.insert("trace_wall_s", median(&walls));
        v.insert("unattributed_s", median(&unattributed));
        v.insert("trace_overhead_s", median(&overheads));
        crate::write_spans(opts, &rec)?;
    } else {
        // Every set's median pass time, summed: a cycle over all sets, so
        // the rate does not depend on where the last cycle stopped.
        let cycle: f64 = busy.iter().map(|b| median(b)).sum();
        let dags: usize = sets.iter().map(Vec::len).sum();
        let tasks: usize = sets.iter().flatten().map(TaskGraph::num_tasks).sum();
        v.insert("jobs_per_s", (dags * strategies.len()) as f64 / cycle);
        v.insert("tasks_per_s", (tasks * strategies.len()) as f64 / cycle);
        v.insert("setup_s", setup_s);
    }
    Ok((checks, v))
}
