//! Step one: processor-count allocation (CPA, HCPA, MCPA).
//!
//! [`allocate`] grants one processor per step to the critical-path task
//! that gains the most from it, until the critical path `C∞` falls to the
//! average area `W`. Every step needs the bottom levels under the current
//! task times: `C∞` is the largest entry bottom level, and the critical
//! path is walked along them. One full pass computes them at set-up; each
//! step then recomputes only the levels its grant can change.
//!
//! * **Who can change.** A grant changes one task's time, so only that
//!   task and its ancestors can change bottom level. All of them sit
//!   before it in the topological order.
//! * **Topological window sweep.** The update walks the topological order
//!   downward from the granted task, with no heap, and recomputes each
//!   task it meets with the per-node formula of the full pass (`0.0`
//!   folded with `max` over the successors, in successor order, of
//!   `edge_cost + bl[successor]`, plus the task's time). A task's
//!   successors sit later in the order, so they are final when it is
//!   recomputed. A task whose bits change lowers the sweep's stop to its
//!   lowest predecessor position, precomputed once; a task whose bits do
//!   not change extends nothing. Below the stop no task has a changed
//!   successor, so its bits equal a full pass's without being touched.
//!
//! So after every step the bottom levels hold the bits a full pass would
//! produce. `C∞` and the critical path (ties toward the lowest id, among
//! entries and among successors) are read from them as
//! [`rats_dag::critical_path_length`] and [`rats_dag::critical_path`]
//! compute them, and `W` is a fresh task-order sum of per-task work. The
//! returned [`Allocation`] is therefore bit-identical to the whole-pass
//! loop retained as `reference_allocate` (`reference` feature), which the
//! parity suite checks on random, layered, FFT and Strassen DAGs.
//!
//! The window visits every task between the granted one and the stop,
//! changed or not. On the large-DAG sweep about 44% of the levels change
//! per grant, and this contiguous walk beats following only the changed
//! tasks through their predecessor lists with a cached per-task tail:
//! measured against the whole-pass loop, that design ran ~2× faster and
//! this one 3–4×.

use rats_dag::{TaskGraph, TaskId};
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
///
/// Each step recomputes only the part of the topological order the
/// granted processor can reach, not a full pass (see the module docs); the
/// result is bit-identical to the whole-pass loop.
pub fn allocate(dag: &TaskGraph, platform: &Platform, params: AllocParams) -> Allocation {
    let _span = rats_telemetry::span(&crate::telemetry::ALLOC_SECONDS);
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
    // Per-task work, summed in task order every step so `W` keeps the bits
    // of a fresh sum.
    let mut work: Vec<f64> = dag
        .task_ids()
        .map(|t| dag.task(t).cost.work(1, gflops))
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

    let mut levels = BottomLevels::new(dag, &times, edge_cost);
    let mut steps = 0u64;
    loop {
        let c_inf = levels.critical_path_length();
        let w = work.iter().sum::<f64>() / f64::from(p_eff);
        if c_inf <= w {
            break;
        }
        // Give one more processor to the critical task that gains the most
        // execution time from it.
        let mut best: Option<(f64, usize)> = None;
        for t in levels.critical_path() {
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
        let cost = &dag.task(TaskId::from_index(i)).cost;
        times[i] = cost.time(alloc[i], gflops);
        work[i] = cost.work(alloc[i], gflops);
        levels.update(i, &times);
        steps += 1;
    }
    crate::telemetry::ALLOC_STEPS.add(steps);

    Allocation { procs: alloc }
}

/// Bottom levels of the allocation's critical-path graph, kept equal to a
/// full [`rats_dag::bottom_levels`] pass as task times change (the
/// invariant is in the module docs).
struct BottomLevels<'g, F> {
    dag: &'g TaskGraph,
    /// Edge cost by byte payload.
    edge_cost: F,
    /// The cached topological order, and each task's position in it.
    order: &'g [TaskId],
    pos: Vec<u32>,
    /// The lowest topological position among each task's predecessors
    /// (`u32::MAX` for an entry): a change to the task's bottom level can
    /// reach no task below it.
    lowest_pred: Vec<u32>,
    /// Entry tasks, ascending.
    entries: Vec<TaskId>,
    bl: Vec<f64>,
}

impl<'g, F: Fn(f64) -> f64> BottomLevels<'g, F> {
    /// One full pass in reverse topological order.
    fn new(dag: &'g TaskGraph, times: &[f64], edge_cost: F) -> Self {
        let n = dag.num_tasks();
        let order = dag
            .topo_order_cached()
            .expect("allocation requires an acyclic graph");
        let mut pos = vec![0u32; n];
        let mut lowest_pred = vec![u32::MAX; n];
        for (p, &t) in order.iter().enumerate() {
            pos[t.index()] = p as u32;
            for a in dag.succs_flat(t) {
                let low = &mut lowest_pred[a.task.index()];
                *low = (*low).min(p as u32);
            }
        }
        let mut levels = Self {
            dag,
            edge_cost,
            order,
            pos,
            lowest_pred,
            entries: dag.entries(),
            bl: vec![0.0; n],
        };
        for &t in order.iter().rev() {
            let i = t.index();
            levels.bl[i] = levels.level(i, times);
        }
        levels
    }

    /// Task `i`'s bottom level from its successors' current ones: the
    /// per-node formula of [`rats_dag::bottom_levels`], successors folded
    /// in the same order.
    fn level(&self, i: usize, times: &[f64]) -> f64 {
        let mut tail: f64 = 0.0;
        for a in self.dag.succs_flat(TaskId::from_index(i)) {
            tail = tail.max((self.edge_cost)(a.bytes) + self.bl[a.task.index()]);
        }
        times[i] + tail
    }

    /// `C∞`, as [`rats_dag::critical_path_length`] computes it.
    fn critical_path_length(&self) -> f64 {
        self.entries
            .iter()
            .map(|t| self.bl[t.index()])
            .fold(0.0, f64::max)
    }

    /// The critical path [`rats_dag::critical_path`] returns, walked lazily:
    /// the heaviest entry, then the heaviest successor, ties toward the
    /// lowest task id.
    fn critical_path(&self) -> impl Iterator<Item = TaskId> + '_ {
        let start = self.entries.iter().copied().max_by(|a, b| {
            self.bl[a.index()]
                .partial_cmp(&self.bl[b.index()])
                .expect("bottom levels are finite")
                .then(b.index().cmp(&a.index()))
        });
        std::iter::successors(start, move |&cur| {
            self.dag
                .succs_flat(cur)
                .iter()
                .max_by(|a, b| {
                    let wa = (self.edge_cost)(a.bytes) + self.bl[a.task.index()];
                    let wb = (self.edge_cost)(b.bytes) + self.bl[b.task.index()];
                    wa.partial_cmp(&wb)
                        .expect("path weights are finite")
                        .then(b.task.index().cmp(&a.task.index()))
                })
                .map(|a| a.task)
        })
    }

    /// Brings the bottom levels up to date after `times[i]` changed: a
    /// sweep down the topological order from `i` that recomputes every
    /// task until it passes the lowest predecessor of any task whose bits
    /// changed.
    fn update(&mut self, i: usize, times: &[f64]) {
        let mut low = self.pos[i] as usize;
        let mut p = low + 1;
        while p > low {
            p -= 1;
            let u = self.order[p].index();
            let bl = self.level(u, times);
            if bl.to_bits() != self.bl[u].to_bits() {
                self.bl[u] = bl;
                low = low.min(self.lowest_pred[u] as usize);
            }
        }
    }
}

#[cfg(test)]
mod parity_tests;
#[cfg(any(test, feature = "reference"))]
mod reference;
#[cfg(any(test, feature = "reference"))]
pub use reference::reference_allocate;

#[cfg(test)]
mod tests {
    use super::*;
    use rats_dag::critical_path_length;
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
