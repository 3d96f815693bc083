//! The retained whole-pass allocation loop: two full bottom-level passes
//! (through [`critical_path_length`] and [`critical_path`]), a fresh entry
//! list and a fresh work sum per granted processor. The parity oracle for
//! the incremental [`allocate`](super::allocate) and the "before" side of
//! the allocation bench.

use rats_dag::{critical_path, critical_path_length, TaskGraph};
use rats_platform::Platform;

use super::{reference_bandwidth, AllocParams, Allocation, AreaPolicy};

/// [`allocate`](super::allocate) as it ran before the incremental
/// bottom-level update: the same procedure and the same result, bit for
/// bit, at the cost of two full bottom-level passes per granted processor.
pub fn reference_allocate(dag: &TaskGraph, platform: &Platform, params: AllocParams) -> Allocation {
    let n = dag.num_tasks();
    assert!(n > 0, "cannot allocate an empty task graph");
    let p_total = platform.num_procs();
    let gflops = platform.gflops();
    let beta = reference_bandwidth(platform);

    let mut alloc = vec![1u32; n];
    let mut times: Vec<f64> = dag
        .task_ids()
        .map(|t| dag.task(t).cost.time(1, gflops))
        .collect();
    let edge_cost = |bytes: f64| {
        if params.cp_includes_comm {
            bytes / beta
        } else {
            0.0
        }
    };

    // Effective processor count for the average area.
    let p_eff = match params.policy {
        AreaPolicy::CpaClassic => p_total,
        AreaPolicy::Hcpa | AreaPolicy::Mcpa => p_total.min(n as u32),
    };

    // MCPA: per-task cap so each DAG level fits on the cluster concurrently.
    let level_cap: Option<Vec<u32>> = match params.policy {
        AreaPolicy::Mcpa => {
            let by_level = dag.tasks_by_level();
            let mut cap = vec![p_total; n];
            for level in &by_level {
                let per_task = (p_total / level.len() as u32).max(1);
                for &t in level {
                    cap[t.index()] = per_task;
                }
            }
            Some(cap)
        }
        _ => None,
    };
    let cap_of = |i: usize| level_cap.as_ref().map_or(p_total, |c| c[i]);

    let total_work = |alloc: &[u32]| -> f64 {
        dag.task_ids()
            .map(|t| dag.task(t).cost.work(alloc[t.index()], gflops))
            .sum()
    };

    loop {
        let c_inf = critical_path_length(dag, &times, |_, bytes| edge_cost(bytes));
        let w = total_work(&alloc) / f64::from(p_eff);
        if c_inf <= w {
            break;
        }
        // Give one more processor to the critical task that gains the most
        // execution time from it.
        let cp = critical_path(dag, &times, |_, bytes| edge_cost(bytes));
        let mut best: Option<(f64, usize)> = None;
        for t in cp {
            let i = t.index();
            if alloc[i] >= cap_of(i) {
                continue;
            }
            let gain = times[i] - dag.task(t).cost.time(alloc[i] + 1, gflops);
            let better = match best {
                None => true,
                Some((g, bi)) => gain > g || (gain == g && i < bi),
            };
            if better {
                best = Some((gain, i));
            }
        }
        let Some((gain, i)) = best else {
            break; // every critical task is saturated
        };
        if gain <= 0.0 {
            break; // nothing on the critical path benefits any more
        }
        alloc[i] += 1;
        times[i] = dag
            .task(rats_dag::TaskId::from_index(i))
            .cost
            .time(alloc[i], gflops);
    }

    Allocation { procs: alloc }
}
