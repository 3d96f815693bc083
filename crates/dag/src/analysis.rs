//! Scheduling analyses: top/bottom levels and critical paths.
//!
//! All functions take the task execution times as a slice indexed by
//! [`TaskId::index`] and the communication cost of each edge as a closure
//! `(edge id, edge bytes) -> cost`, so the same graph can be analysed under
//! different allocations (CPA/HCPA re-evaluate the critical path after every
//! allocation change) and under different platform parameters. The scans
//! walk the flat successor view ([`TaskGraph::succs_flat`]) and hand the
//! closure each edge's payload from the edge list, so cost models keyed on
//! transfer size need no lookup of their own.

use crate::graph::TaskGraph;
use crate::ids::{EdgeId, TaskId};

/// The *bottom level* of every task: the length of the longest path from the
/// start of the task to the end of the application, counting task times and
/// edge costs. The mapping phases of CPA/HCPA/RATS process ready tasks by
/// decreasing bottom level ("the farther a task is from the end of the
/// application, the more critical it is").
///
/// # Panics
///
/// Panics if `task_time` has the wrong length or the graph is cyclic.
pub fn bottom_levels<F>(g: &TaskGraph, task_time: &[f64], edge_cost: F) -> Vec<f64>
where
    F: Fn(EdgeId, f64) -> f64,
{
    assert_eq!(
        task_time.len(),
        g.num_tasks(),
        "task_time must have one entry per task"
    );
    let order = g
        .topo_order_cached()
        .expect("bottom_levels requires an acyclic graph");
    let mut bl = vec![0.0; g.num_tasks()];
    for &t in order.iter().rev() {
        let mut tail: f64 = 0.0;
        for a in g.succs_flat(t) {
            tail = tail.max(edge_cost(a.edge, g.edge(a.edge).bytes) + bl[a.task.index()]);
        }
        bl[t.index()] = task_time[t.index()] + tail;
    }
    bl
}

/// The *top level* of every task: the length of the longest path from the
/// application entry to the start of the task (excluding the task itself).
///
/// # Panics
///
/// Panics if `task_time` has the wrong length or the graph is cyclic.
pub fn top_levels<F>(g: &TaskGraph, task_time: &[f64], edge_cost: F) -> Vec<f64>
where
    F: Fn(EdgeId, f64) -> f64,
{
    assert_eq!(
        task_time.len(),
        g.num_tasks(),
        "task_time must have one entry per task"
    );
    let order = g
        .topo_order_cached()
        .expect("top_levels requires an acyclic graph");
    let mut tl = vec![0.0; g.num_tasks()];
    for &t in order {
        for a in g.succs_flat(t) {
            let dst = a.task;
            let candidate =
                tl[t.index()] + task_time[t.index()] + edge_cost(a.edge, g.edge(a.edge).bytes);
            if candidate > tl[dst.index()] {
                tl[dst.index()] = candidate;
            }
        }
    }
    tl
}

/// The critical-path length `C∞`: the heaviest entry-to-exit path weight.
pub fn critical_path_length<F>(g: &TaskGraph, task_time: &[f64], edge_cost: F) -> f64
where
    F: Fn(EdgeId, f64) -> f64,
{
    let bl = bottom_levels(g, task_time, edge_cost);
    g.entries()
        .iter()
        .map(|t| bl[t.index()])
        .fold(0.0, f64::max)
}

/// One concrete critical path (entry → … → exit), as a task list.
///
/// Ties are broken toward the lowest task id so the result is deterministic.
pub fn critical_path<F>(g: &TaskGraph, task_time: &[f64], edge_cost: F) -> Vec<TaskId>
where
    F: Fn(EdgeId, f64) -> f64,
{
    let bl = bottom_levels(g, task_time, &edge_cost);
    let mut path = Vec::new();
    let Some(start) = g.entries().into_iter().max_by(|a, b| {
        bl[a.index()]
            .partial_cmp(&bl[b.index()])
            .expect("bottom levels are finite")
            // prefer the lower id on ties (entries() is ascending, and
            // max_by keeps the *last* maximum, so invert the id order)
            .then(b.index().cmp(&a.index()))
    }) else {
        return path;
    };
    let mut cur = start;
    loop {
        path.push(cur);
        let next = g
            .succs_flat(cur)
            .iter()
            .max_by(|a, b| {
                let wa = edge_cost(a.edge, g.edge(a.edge).bytes) + bl[a.task.index()];
                let wb = edge_cost(b.edge, g.edge(b.edge).bytes) + bl[b.task.index()];
                wa.partial_cmp(&wb)
                    .expect("path weights are finite")
                    .then(b.task.index().cmp(&a.task.index()))
            })
            .map(|a| a.task);
        match next {
            Some(t) => cur = t,
            None => break,
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use rats_model::TaskCost;

    fn cost() -> TaskCost {
        TaskCost::new(1_000_000, 100.0, 0.1)
    }

    /// a → b → d and a → c → d with distinct times; returns (graph, ids).
    fn diamond() -> (TaskGraph, [TaskId; 4]) {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", cost());
        let b = g.add_task("b", cost());
        let c = g.add_task("c", cost());
        let d = g.add_task("d", cost());
        g.add_edge(a, b, 10.0);
        g.add_edge(a, c, 10.0);
        g.add_edge(b, d, 10.0);
        g.add_edge(c, d, 10.0);
        (g, [a, b, c, d])
    }

    #[test]
    fn bottom_levels_zero_comm() {
        let (g, [a, b, c, d]) = diamond();
        // times: a=1, b=5, c=2, d=1
        let t = |id: TaskId, v: f64| (id, v);
        let mut times = vec![0.0; 4];
        for (id, v) in [t(a, 1.0), t(b, 5.0), t(c, 2.0), t(d, 1.0)] {
            times[id.index()] = v;
        }
        let bl = bottom_levels(&g, &times, |_, _| 0.0);
        assert_eq!(bl[d.index()], 1.0);
        assert_eq!(bl[b.index()], 6.0);
        assert_eq!(bl[c.index()], 3.0);
        assert_eq!(bl[a.index()], 7.0); // a + b + d
    }

    #[test]
    fn bottom_levels_with_comm() {
        let (g, [a, b, c, d]) = diamond();
        let times = {
            let mut v = vec![0.0; 4];
            v[a.index()] = 1.0;
            v[b.index()] = 5.0;
            v[c.index()] = 2.0;
            v[d.index()] = 1.0;
            v
        };
        // Edge cost 100 on c→d (edge id 3) makes a→c→d the critical path.
        let bl = bottom_levels(&g, &times, |e, _| if e.index() == 3 { 100.0 } else { 0.0 });
        assert_eq!(bl[c.index()], 103.0);
        assert_eq!(bl[a.index()], 104.0);
    }

    #[test]
    fn top_plus_bottom_is_constant_on_critical_path() {
        let (g, [a, b, _c, d]) = diamond();
        let times = {
            let mut v = vec![0.0; 4];
            v[a.index()] = 1.0;
            v[b.index()] = 5.0;
            v[_c.index()] = 2.0;
            v[d.index()] = 1.0;
            v
        };
        let bl = bottom_levels(&g, &times, |_, _| 0.0);
        let tl = top_levels(&g, &times, |_, _| 0.0);
        let cp = critical_path_length(&g, &times, |_, _| 0.0);
        for t in [a, b, d] {
            let through = tl[t.index()] + bl[t.index()];
            assert!((through - cp).abs() < 1e-12, "task {t}: {through} != {cp}");
        }
    }

    #[test]
    fn critical_path_follows_heaviest_route() {
        let (g, [a, b, _c, d]) = diamond();
        let times = {
            let mut v = vec![0.0; 4];
            v[a.index()] = 1.0;
            v[b.index()] = 5.0;
            v[_c.index()] = 2.0;
            v[d.index()] = 1.0;
            v
        };
        let cp = critical_path(&g, &times, |_, _| 0.0);
        assert_eq!(cp, vec![a, b, d]);
        let len = critical_path_length(&g, &times, |_, _| 0.0);
        let sum: f64 = cp.iter().map(|t| times[t.index()]).sum();
        assert!((sum - len).abs() < 1e-12);
    }

    #[test]
    fn chain_critical_path_is_everything() {
        let mut g = TaskGraph::new();
        let ids: Vec<TaskId> = (0..5)
            .map(|i| g.add_task(format!("t{i}"), cost()))
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 1.0);
        }
        let times = vec![2.0; 5];
        assert_eq!(critical_path(&g, &times, |_, _| 1.0), ids);
        // 5 tasks × 2.0 + 4 edges × 1.0
        assert!((critical_path_length(&g, &times, |_, _| 1.0) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn independent_tasks_have_no_interaction() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", cost());
        let b = g.add_task("b", cost());
        let times = {
            let mut v = vec![0.0; 2];
            v[a.index()] = 3.0;
            v[b.index()] = 9.0;
            v
        };
        let bl = bottom_levels(&g, &times, |_, _| 0.0);
        assert_eq!(bl, vec![3.0, 9.0]);
        assert_eq!(critical_path_length(&g, &times, |_, _| 0.0), 9.0);
        assert_eq!(critical_path(&g, &times, |_, _| 0.0), vec![b]);
    }

    #[test]
    #[should_panic(expected = "one entry per task")]
    fn wrong_times_length_panics() {
        let (g, _) = diamond();
        bottom_levels(&g, &[1.0], |_, _| 0.0);
    }
}
