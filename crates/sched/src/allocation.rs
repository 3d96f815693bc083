//! Step one: processor-count allocation (CPA, HCPA, MCPA).

use rats_dag::{critical_path, critical_path_length, TaskGraph};
use rats_platform::Platform;

/// How the *average area* `W` — the allocation stopping criterion — is
/// computed (paper, section II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AreaPolicy {
    /// Classic CPA: `W = Σωᵢ / P`. On large clusters `W` stays small, which
    /// drives allocations excessively high.
    CpaClassic,
    /// HCPA's de-biased area: `W = Σωᵢ / min(P, N)` where `N` is the task
    /// count — "a modified definition of W to remove the bias induced by a
    /// large number of available processors".
    Hcpa,
    /// MCPA: like HCPA, but a task's allocation may also never exceed
    /// `P / width(level)` so all tasks of a DAG level can run concurrently.
    Mcpa,
}

/// Tuning knobs of the allocation procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocParams {
    /// Area policy (default: [`AreaPolicy::Hcpa`], as in the paper).
    pub policy: AreaPolicy,
    /// Whether the critical path driving the allocation loop includes edge
    /// (communication) weights.
    ///
    /// Default **false**, the CPA/HCPA behaviour: allocation grows against
    /// the *computation* critical path. Including communication weights
    /// (whose duration more processors cannot reduce) makes the loop pump
    /// processors into every task until the average area reaches the
    /// communication scale — the cluster saturates and task parallelism
    /// dies. Exposed as a knob for the allocation ablation
    /// (`campaign paper ablation`).
    pub cp_includes_comm: bool,
}

impl Default for AllocParams {
    fn default() -> Self {
        Self {
            policy: AreaPolicy::Hcpa,
            cp_includes_comm: false,
        }
    }
}

/// The result of the allocation step: a processor count per task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    procs: Vec<u32>,
}

impl Allocation {
    /// Builds an allocation directly from per-task processor counts (useful
    /// for tests and for replaying externally computed allocations).
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn from_counts(procs: Vec<u32>) -> Self {
        assert!(
            procs.iter().all(|&p| p >= 1),
            "every task needs at least one processor"
        );
        Self { procs }
    }

    /// Processor count of task index `i`.
    #[inline]
    pub fn of_index(&self, i: usize) -> u32 {
        self.procs[i]
    }

    /// Processor count of task `t`.
    #[inline]
    pub fn of(&self, t: rats_dag::TaskId) -> u32 {
        self.procs[t.index()]
    }

    /// All counts, indexed by task.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.procs
    }

    /// Consumes the allocation into the raw per-task vector.
    pub fn into_vec(self) -> Vec<u32> {
        self.procs
    }
}

/// A pessimistic single-flow bandwidth used to weigh edges inside the
/// allocation step's critical-path computation (redistribution end-points
/// are unknown until mapping, so a scalar stand-in is all CPA/HCPA can use).
pub(crate) fn reference_bandwidth(platform: &Platform) -> f64 {
    let p = platform.num_procs();
    if p < 2 {
        return f64::INFINITY;
    }
    // Worst pair: first and last processor (crosses cabinets when the
    // topology is hierarchical).
    platform.effective_bandwidth(0, p - 1)
}

/// Runs the CPA-family allocation procedure: start every task at one
/// processor, then repeatedly give one more processor to the critical-path
/// task that benefits the most, until the critical path `C∞` drops below
/// the average area `W` (both are lower bounds on the makespan; their
/// crossing is the optimal compromise).
pub fn allocate(dag: &TaskGraph, platform: &Platform, params: AllocParams) -> Allocation {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rats_daggen::{fft_dag, layered_dag, strassen_dag, DagParams};
    use rats_model::{CostParams, TaskCost};
    use rats_platform::ClusterSpec;

    fn grillon() -> Platform {
        Platform::from_spec(&ClusterSpec::grillon())
    }

    #[test]
    fn single_task_gets_many_processors() {
        let mut g = TaskGraph::new();
        g.add_task("t", TaskCost::new(100_000_000, 512.0, 0.01));
        let p = grillon();
        let a = allocate(&g, &p, AllocParams::default());
        // One task: C∞ = T(t, a), W = work/1 = T·a → stop when T ≤ T·a,
        // i.e. immediately at a = 1? No: W uses p_eff = min(P, N) = 1, so
        // W = T(t,a)·a ≥ C∞ always — allocation stays 1.
        assert_eq!(a.of_index(0), 1);
    }

    #[test]
    fn chain_tasks_scale_up() {
        // A chain has no task parallelism: every processor should go to the
        // critical path (all tasks), bounded by W's growth.
        let mut g = TaskGraph::new();
        let mut prev = None;
        for i in 0..5 {
            let t = g.add_task(format!("t{i}"), TaskCost::new(50_000_000, 256.0, 0.05));
            if let Some(p) = prev {
                g.add_edge(p, t, 8.0 * 50_000_000.0);
            }
            prev = Some(t);
        }
        let p = grillon();
        let a = allocate(&g, &p, AllocParams::default());
        for i in 0..5 {
            assert!(a.of_index(i) > 1, "chain task {i} stuck at 1 processor");
        }
    }

    #[test]
    fn wide_graphs_spread_processors() {
        // 16 independent tasks + entry/exit: allocations must stay small so
        // tasks can run concurrently.
        let mut g = TaskGraph::new();
        let entry = g.add_task("in", TaskCost::zero());
        let exit = g.add_task("out", TaskCost::zero());
        for i in 0..16 {
            let t = g.add_task(format!("t{i}"), TaskCost::new(20_000_000, 128.0, 0.1));
            g.add_edge(entry, t, 1e6);
            g.add_edge(t, exit, 1e6);
        }
        let p = grillon();
        let a = allocate(&g, &p, AllocParams::default());
        let max = (0..g.num_tasks()).map(|i| a.of_index(i)).max().unwrap();
        assert!(
            max <= p.num_procs() / 4,
            "wide graph should not hog the cluster (max = {max})"
        );
    }

    #[test]
    fn hcpa_allocates_no_more_than_cpa() {
        // HCPA's larger W stops allocation earlier (or at the same point)
        // whenever the cluster has more processors than the DAG has tasks.
        let g = strassen_dag(&CostParams::paper(), 3);
        let p = Platform::from_spec(&ClusterSpec::grelon()); // 120 > 25
        let cpa = allocate(
            &g,
            &p,
            AllocParams {
                policy: AreaPolicy::CpaClassic,
                ..AllocParams::default()
            },
        );
        let hcpa = allocate(&g, &p, AllocParams::default());
        let sum = |a: &Allocation| a.as_slice().iter().map(|&x| u64::from(x)).sum::<u64>();
        assert!(
            sum(&hcpa) <= sum(&cpa),
            "HCPA {} > CPA {}",
            sum(&hcpa),
            sum(&cpa)
        );
    }

    #[test]
    fn mcpa_respects_level_width() {
        let g = layered_dag(
            &DagParams::layered(50, 0.8, 0.8, 0.5),
            &CostParams::paper(),
            1,
        );
        let p = grillon();
        let a = allocate(
            &g,
            &p,
            AllocParams {
                policy: AreaPolicy::Mcpa,
                ..AllocParams::default()
            },
        );
        for level in g.tasks_by_level() {
            let per_task_cap = (p.num_procs() / level.len() as u32).max(1);
            for t in level {
                assert!(a.of(t) <= per_task_cap);
            }
        }
    }

    #[test]
    fn allocations_never_exceed_cluster() {
        for seed in 0..5 {
            let g = fft_dag(8, &CostParams::paper(), seed);
            let p = Platform::from_spec(&ClusterSpec::chti());
            let a = allocate(&g, &p, AllocParams::default());
            for i in 0..g.num_tasks() {
                let x = a.of_index(i);
                assert!(x >= 1 && x <= p.num_procs());
            }
        }
    }

    #[test]
    fn allocation_is_deterministic() {
        let g = fft_dag(16, &CostParams::paper(), 11);
        let p = grillon();
        let a = allocate(&g, &p, AllocParams::default());
        let b = allocate(&g, &p, AllocParams::default());
        assert_eq!(a, b);
    }

    #[test]
    fn stopping_criterion_holds() {
        // After allocation, C∞ ≤ W (or no task can grow any further).
        let g = fft_dag(8, &CostParams::paper(), 2);
        let p = grillon();
        let a = allocate(&g, &p, AllocParams::default());
        let gflops = p.gflops();
        let times: Vec<f64> = g
            .task_ids()
            .map(|t| g.task(t).cost.time(a.of(t), gflops))
            .collect();
        let c_inf = critical_path_length(&g, &times, |_, _| 0.0);
        let w: f64 = g
            .task_ids()
            .map(|t| g.task(t).cost.work(a.of(t), gflops))
            .sum::<f64>()
            / f64::from(p.num_procs().min(g.num_tasks() as u32));
        let saturated = g.task_ids().all(|t| a.of(t) >= p.num_procs());
        assert!(
            c_inf <= w * (1.0 + 1e-9) || saturated,
            "C∞ = {c_inf} > W = {w} without saturation"
        );
    }
}
