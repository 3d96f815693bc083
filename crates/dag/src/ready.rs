//! Event-driven readiness tracking for list schedulers.
//!
//! The mapping driver's original formulation re-scanned every task per
//! ready-list round to find those whose predecessors were all placed — an
//! O(n²) pattern (worse with in-degree factored in). [`ReadyTracker`]
//! replaces the scan with Kahn-style in-degree counters over the graph's
//! flat successor view ([`TaskGraph::succs_flat`]): placing a task
//! discovers its newly ready successors in O(out-degree).

use crate::graph::TaskGraph;
use crate::ids::TaskId;

/// Incremental ready-set maintenance: an in-degree counter per task plus a
/// batch of tasks that became ready since the last [`take_batch`] call.
///
/// The batch discipline mirrors round-based list scheduling: the driver
/// takes the current batch, orders and places every task in it (calling
/// [`complete`] per placement), and the successors that became ready during
/// the round accumulate into the *next* batch. This reproduces exactly the
/// rounds a full readiness re-scan would produce, because a round drains
/// every ready task before the next scan.
///
/// [`take_batch`]: ReadyTracker::take_batch
/// [`complete`]: ReadyTracker::complete
#[derive(Debug, Clone)]
pub struct ReadyTracker<'g> {
    graph: &'g TaskGraph,
    /// Remaining unplaced predecessors per task.
    pending_preds: Vec<u32>,
    /// Tasks that became ready since the last `take_batch` (roots at start),
    /// in discovery order.
    batch: Vec<TaskId>,
    remaining: usize,
}

impl<'g> ReadyTracker<'g> {
    /// Builds the tracker; the first batch holds the graph's entry tasks in
    /// ascending id order.
    pub fn new(graph: &'g TaskGraph) -> Self {
        let pending_preds: Vec<u32> = graph
            .task_ids()
            .map(|t| graph.in_degree(t) as u32)
            .collect();
        let batch: Vec<TaskId> = graph
            .task_ids()
            .filter(|t| pending_preds[t.index()] == 0)
            .collect();
        let remaining = graph.num_tasks();
        Self {
            graph,
            pending_preds,
            batch,
            remaining,
        }
    }

    /// Takes every task that became ready since the previous call (the entry
    /// tasks on the first call). Returns an empty vector once the batch is
    /// drained; on an acyclic graph the batch is non-empty whenever
    /// unplaced tasks remain.
    pub fn take_batch(&mut self) -> Vec<TaskId> {
        std::mem::take(&mut self.batch)
    }

    /// Like [`take_batch`](Self::take_batch), but moves the batch into
    /// `out` (cleared first) and reuses `out`'s buffer as the next batch's
    /// storage — round-based drivers ping-pong one buffer instead of
    /// allocating a fresh `Vec` per round.
    pub fn take_batch_into(&mut self, out: &mut Vec<TaskId>) {
        out.clear();
        std::mem::swap(&mut self.batch, out);
    }

    /// The tasks currently waiting in the batch (ready but not yet taken).
    pub fn batch(&self) -> &[TaskId] {
        &self.batch
    }

    /// Records that `t` has been placed: each successor's pending-predecessor
    /// counter drops, and successors reaching zero join the next batch.
    /// O(out-degree of `t`).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `t` still has unplaced predecessors or is
    /// completed twice — both indicate a driver bug.
    pub fn complete(&mut self, t: TaskId) {
        debug_assert!(
            self.pending_preds[t.index()] == 0,
            "completed {t} with unplaced predecessors"
        );
        debug_assert!(self.remaining > 0, "completed more tasks than exist");
        self.remaining -= 1;
        for a in self.graph.succs_flat(t) {
            let s = a.task;
            let c = &mut self.pending_preds[s.index()];
            debug_assert!(*c > 0, "{s} lost more predecessors than it has");
            *c -= 1;
            if *c == 0 {
                self.batch.push(s);
            }
        }
    }

    /// Number of tasks not yet completed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// `true` once every task has been completed.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rats_model::TaskCost;

    fn cost() -> TaskCost {
        TaskCost::new(1_000_000, 100.0, 0.1)
    }

    /// a → b, a → c, b → d, c → d.
    fn diamond() -> (TaskGraph, [TaskId; 4]) {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", cost());
        let b = g.add_task("b", cost());
        let c = g.add_task("c", cost());
        let d = g.add_task("d", cost());
        g.add_edge(a, b, 8.0);
        g.add_edge(a, c, 8.0);
        g.add_edge(b, d, 8.0);
        g.add_edge(c, d, 8.0);
        (g, [a, b, c, d])
    }

    #[test]
    fn diamond_readiness_rounds() {
        let (g, [a, b, c, d]) = diamond();
        let mut tr = ReadyTracker::new(&g);
        assert_eq!(tr.remaining(), 4);
        assert_eq!(tr.take_batch(), vec![a]);
        tr.complete(a);
        // Both children become ready only after a completes, in edge order.
        assert_eq!(tr.batch(), &[b, c]);
        let batch = tr.take_batch();
        for t in batch {
            tr.complete(t);
        }
        // d becomes ready exactly once, despite two incoming edges.
        assert_eq!(tr.take_batch(), vec![d]);
        tr.complete(d);
        assert!(tr.is_done());
        assert!(tr.take_batch().is_empty());
    }

    #[test]
    fn multi_root_graphs_seed_all_roots() {
        // Three roots, one shared sink, one isolated task.
        let mut g = TaskGraph::new();
        let r0 = g.add_task("r0", cost());
        let r1 = g.add_task("r1", cost());
        let r2 = g.add_task("r2", cost());
        let sink = g.add_task("sink", cost());
        let lone = g.add_task("lone", cost());
        g.add_edge(r0, sink, 1.0);
        g.add_edge(r1, sink, 1.0);
        g.add_edge(r2, sink, 1.0);
        let mut tr = ReadyTracker::new(&g);
        assert_eq!(tr.take_batch(), vec![r0, r1, r2, lone]);
        tr.complete(r0);
        tr.complete(r1);
        assert!(tr.batch().is_empty(), "sink waits for its third parent");
        tr.complete(r2);
        assert_eq!(tr.batch(), &[sink]);
        tr.complete(lone);
        tr.complete(sink);
        assert!(tr.is_done());
    }

    #[test]
    fn batches_match_full_rescan_rounds() {
        // Against a layered random-ish graph, tracker batches must equal the
        // rounds a full readiness re-scan would compute.
        let mut g = TaskGraph::new();
        let tasks: Vec<TaskId> = (0..12)
            .map(|i| g.add_task(format!("t{i}"), cost()))
            .collect();
        // Edges forming two interleaved diamonds plus a long chain.
        for (s, d) in [
            (0, 2),
            (0, 3),
            (1, 3),
            (1, 4),
            (2, 5),
            (3, 5),
            (3, 6),
            (4, 6),
            (5, 7),
            (6, 7),
            (7, 8),
            (8, 9),
            (9, 10),
            (10, 11),
        ] {
            g.add_edge(tasks[s], tasks[d], 1.0);
        }
        let mut tr = ReadyTracker::new(&g);
        let mut placed = vec![false; g.num_tasks()];
        let mut total = 0;
        while total < g.num_tasks() {
            // Reference: full scan.
            let scan: Vec<TaskId> = g
                .task_ids()
                .filter(|&t| {
                    !placed[t.index()] && g.predecessors(t).all(|(p, _)| placed[p.index()])
                })
                .collect();
            let mut batch = tr.take_batch();
            batch.sort_by_key(|t| t.index());
            assert_eq!(batch, scan, "round {total}");
            for t in batch {
                placed[t.index()] = true;
                tr.complete(t);
                total += 1;
            }
        }
        assert!(tr.is_done());
    }
}
