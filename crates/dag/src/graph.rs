//! The task-graph data structure.

use std::fmt;
use std::sync::OnceLock;

use rats_model::TaskCost;

use crate::ids::{EdgeId, TaskId};

/// A data-parallel task: a node of the application DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskNode {
    /// Human-readable label (used in DOT output and error messages).
    pub name: String,
    /// Computational cost model of the task.
    pub cost: TaskCost,
}

/// A precedence/communication edge: `src` must send `bytes` bytes to `dst`
/// before `dst` can start. The redistribution cost is zero whenever both
/// tasks run on the same set of processors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Producing task.
    pub src: TaskId,
    /// Consuming task.
    pub dst: TaskId,
    /// Amount of data transferred, in bytes.
    pub bytes: f64,
}

/// Structural problems detected by [`TaskGraph::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// The graph contains no tasks.
    Empty,
    /// The graph contains a dependence cycle through the named task.
    Cycle(TaskId),
    /// The graph has no entry (source) task.
    NoEntry,
    /// The graph has no exit (sink) task.
    NoExit,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Empty => write!(f, "task graph is empty"),
            DagError::Cycle(t) => write!(f, "task graph has a cycle through {t}"),
            DagError::NoEntry => write!(f, "task graph has no entry task"),
            DagError::NoExit => write!(f, "task graph has no exit task"),
        }
    }
}

impl std::error::Error for DagError {}

/// One neighbor in a flat adjacency view: the neighboring task, the
/// connecting edge, and the edge's byte payload, packed into 16 bytes so
/// hot scans touch one contiguous array instead of chasing edge ids into
/// the edge table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdjEdge {
    /// The neighboring task (the predecessor in [`TaskGraph::preds_flat`],
    /// the successor in [`TaskGraph::succs_flat`]).
    pub task: TaskId,
    /// The connecting edge.
    pub edge: EdgeId,
    /// Bytes carried by the edge (copied from [`Edge::bytes`]).
    pub bytes: f64,
}

/// A CSR (compressed sparse row) adjacency snapshot: the neighbors of task
/// `t` sit in `items[start[t] .. start[t + 1]]`, in edge id order.
#[derive(Debug, Clone, Default)]
struct FlatAdj {
    start: Vec<u32>,
    items: Vec<AdjEdge>,
}

/// A directed acyclic graph of moldable data-parallel tasks.
///
/// Nodes and edges are stored in insertion order and addressed by the dense
/// [`TaskId`] / [`EdgeId`] indices. The edge list is the only adjacency
/// store; besides it the graph keeps one in-degree and one out-degree
/// counter per task, maintained by [`add_edge`](Self::add_edge), so degree
/// queries during construction build nothing.
///
/// Scans read two flat CSR views ([`preds_flat`](Self::preds_flat) /
/// [`succs_flat`](Self::succs_flat)): one contiguous `(task, edge, bytes)`
/// array per direction, built lazily by one counting sort over the edge
/// list and dropped by mutation. The sort visits edges in id order, so the
/// neighbors of every task come out in the order their edges were added;
/// [`successors`](Self::successors), [`predecessors`](Self::predecessors)
/// and every fold over them see that order.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    nodes: Vec<TaskNode>,
    edges: Vec<Edge>,
    in_deg: Vec<u32>,
    out_deg: Vec<u32>,
    flat_pred: OnceLock<FlatAdj>,
    flat_succ: OnceLock<FlatAdj>,
    topo: OnceLock<Result<Vec<TaskId>, DagError>>,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with preallocated capacity.
    pub fn with_capacity(tasks: usize, edges: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(tasks),
            edges: Vec::with_capacity(edges),
            in_deg: Vec::with_capacity(tasks),
            out_deg: Vec::with_capacity(tasks),
            ..Self::default()
        }
    }

    /// Drops the cached flat adjacency views and topological order; called
    /// by every mutation that could invalidate them.
    fn invalidate_flat(&mut self) {
        self.flat_pred.take();
        self.flat_succ.take();
        self.topo.take();
    }

    /// Number of tasks.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// `true` if the graph has no tasks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a task and returns its id.
    pub fn add_task(&mut self, name: impl Into<String>, cost: TaskCost) -> TaskId {
        self.invalidate_flat();
        let id = TaskId::from_index(self.nodes.len());
        self.nodes.push(TaskNode {
            name: name.into(),
            cost,
        });
        self.in_deg.push(0);
        self.out_deg.push(0);
        id
    }

    /// Adds a dependence edge carrying `bytes` bytes from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, out-of-range ids, or negative/non-finite sizes.
    /// Acyclicity is *not* checked here (use [`validate`](Self::validate)).
    pub fn add_edge(&mut self, src: TaskId, dst: TaskId, bytes: f64) -> EdgeId {
        self.invalidate_flat();
        assert!(src != dst, "self-loop on task {src}");
        assert!(
            src.index() < self.nodes.len() && dst.index() < self.nodes.len(),
            "edge endpoints out of range"
        );
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "edge weight must be a finite non-negative byte count, got {bytes}"
        );
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(Edge { src, dst, bytes });
        self.out_deg[src.index()] += 1;
        self.in_deg[dst.index()] += 1;
        id
    }

    /// The task with the given id.
    #[inline]
    pub fn task(&self, id: TaskId) -> &TaskNode {
        &self.nodes[id.index()]
    }

    /// Mutable access to a task (e.g. to adjust generated costs).
    #[inline]
    pub fn task_mut(&mut self, id: TaskId) -> &mut TaskNode {
        &mut self.nodes[id.index()]
    }

    /// The edge with the given id.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Sets the payload of edge `e` to `bytes`. Endpoints never move, so
    /// the degree counters and the topological order stay valid; only the
    /// flat views, which carry the payloads, are dropped.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite size.
    pub fn set_edge_bytes(&mut self, e: EdgeId, bytes: f64) {
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "edge weight must be a finite non-negative byte count, got {bytes}"
        );
        self.flat_pred.take();
        self.flat_succ.take();
        self.edges[e.index()].bytes = bytes;
    }

    /// Iterates over all task ids in insertion order.
    pub fn task_ids(&self) -> impl ExactSizeIterator<Item = TaskId> + use<> {
        (0..self.nodes.len()).map(TaskId::from_index)
    }

    /// Iterates over all edge ids in insertion order.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + use<> {
        (0..self.edges.len()).map(EdgeId::from_index)
    }

    /// Successor tasks of `t` (with the connecting edge id), in edge id
    /// order.
    pub fn successors(&self, t: TaskId) -> impl Iterator<Item = (TaskId, EdgeId)> + '_ {
        self.succs_flat(t).iter().map(|a| (a.task, a.edge))
    }

    /// Predecessor tasks of `t` (with the connecting edge id), in edge id
    /// order.
    pub fn predecessors(&self, t: TaskId) -> impl Iterator<Item = (TaskId, EdgeId)> + '_ {
        self.preds_flat(t).iter().map(|a| (a.task, a.edge))
    }

    /// Builds a flat CSR adjacency in the given direction: one counting
    /// sort of the edge list by destination (`pred`) or source, stable in
    /// edge id order.
    fn build_flat(&self, pred: bool) -> FlatAdj {
        let deg = if pred { &self.in_deg } else { &self.out_deg };
        // `start[t + 1]` begins as the offset of `t` and serves as its
        // fill cursor, ending as the offset of `t + 1`.
        let mut start = Vec::with_capacity(deg.len() + 1);
        start.push(0u32);
        let mut offset = 0u32;
        for &d in deg {
            start.push(offset);
            offset += d;
        }
        let blank = AdjEdge {
            task: TaskId(0),
            edge: EdgeId(0),
            bytes: 0.0,
        };
        let mut items = vec![blank; self.edges.len()];
        for (i, edge) in self.edges.iter().enumerate() {
            let (key, task) = if pred {
                (edge.dst, edge.src)
            } else {
                (edge.src, edge.dst)
            };
            let cursor = &mut start[key.index() + 1];
            items[*cursor as usize] = AdjEdge {
                task,
                edge: EdgeId::from_index(i),
                bytes: edge.bytes,
            };
            *cursor += 1;
        }
        FlatAdj { start, items }
    }

    /// The incoming edges of `t` as one contiguous slice, in the same order
    /// [`predecessors`](Self::predecessors) yields. Built lazily on first
    /// use (O(edges)), cached until the graph is mutated.
    #[inline]
    pub fn preds_flat(&self, t: TaskId) -> &[AdjEdge] {
        let f = self.flat_pred.get_or_init(|| self.build_flat(true));
        &f.items[f.start[t.index()] as usize..f.start[t.index() + 1] as usize]
    }

    /// The outgoing edges of `t` as one contiguous slice, in the same order
    /// [`successors`](Self::successors) yields. Built lazily on first use
    /// (O(edges)), cached until the graph is mutated.
    #[inline]
    pub fn succs_flat(&self, t: TaskId) -> &[AdjEdge] {
        let f = self.flat_succ.get_or_init(|| self.build_flat(false));
        &f.items[f.start[t.index()] as usize..f.start[t.index() + 1] as usize]
    }

    /// In-degree of `t`.
    #[inline]
    pub fn in_degree(&self, t: TaskId) -> usize {
        self.in_deg[t.index()] as usize
    }

    /// Out-degree of `t`.
    #[inline]
    pub fn out_degree(&self, t: TaskId) -> usize {
        self.out_deg[t.index()] as usize
    }

    /// Entry tasks (no predecessors).
    pub fn entries(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.in_degree(t) == 0)
            .collect()
    }

    /// Exit tasks (no successors).
    pub fn exits(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.out_degree(t) == 0)
            .collect()
    }

    /// A topological order of the tasks (Kahn's algorithm), or the id of a
    /// task on a cycle.
    ///
    /// The order is computed once per graph and cached (mutation
    /// invalidates it); this returns an owned copy — analyses on the hot
    /// path use [`topo_order_cached`](Self::topo_order_cached) to borrow
    /// the cached slice instead.
    pub fn topo_order(&self) -> Result<Vec<TaskId>, DagError> {
        self.topo_order_cached().map(<[TaskId]>::to_vec)
    }

    /// The cached topological order as a borrowed slice (computed on first
    /// use, dropped on mutation), or the id of a task on a cycle.
    pub fn topo_order_cached(&self) -> Result<&[TaskId], DagError> {
        match self.topo.get_or_init(|| self.compute_topo()) {
            Ok(order) => Ok(order),
            Err(e) => Err(e.clone()),
        }
    }

    fn compute_topo(&self) -> Result<Vec<TaskId>, DagError> {
        let n = self.num_tasks();
        let mut indeg = self.in_deg.clone();
        let mut order = Vec::with_capacity(n);
        let mut queue: Vec<TaskId> = self.task_ids().filter(|t| indeg[t.index()] == 0).collect();
        // Use a FIFO index rather than pop() so insertion order is preserved
        // among simultaneously-ready tasks; this keeps the order deterministic.
        let mut head = 0;
        while head < queue.len() {
            let t = queue[head];
            head += 1;
            order.push(t);
            for a in self.succs_flat(t) {
                let s = a.task;
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            let on_cycle = self
                .task_ids()
                .find(|t| indeg[t.index()] > 0)
                .expect("cycle implies a node with residual in-degree");
            Err(DagError::Cycle(on_cycle))
        }
    }

    /// `true` if the graph contains no cycle.
    pub fn is_acyclic(&self) -> bool {
        self.topo_order().is_ok()
    }

    /// Checks structural sanity: non-empty, acyclic, has entries and exits.
    pub fn validate(&self) -> Result<(), DagError> {
        if self.is_empty() {
            return Err(DagError::Empty);
        }
        self.topo_order()?;
        if self.entries().is_empty() {
            return Err(DagError::NoEntry);
        }
        if self.exits().is_empty() {
            return Err(DagError::NoExit);
        }
        Ok(())
    }

    /// The *depth level* of every task: entry tasks are level 0 and every
    /// other task sits one past its deepest predecessor (longest-path depth).
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic.
    pub fn levels(&self) -> Vec<u32> {
        let order = self
            .topo_order()
            .expect("levels() requires an acyclic graph");
        let mut level = vec![0u32; self.num_tasks()];
        for &t in &order {
            for a in self.succs_flat(t) {
                let s = a.task;
                level[s.index()] = level[s.index()].max(level[t.index()] + 1);
            }
        }
        level
    }

    /// Groups task ids by depth level (index = level).
    pub fn tasks_by_level(&self) -> Vec<Vec<TaskId>> {
        let levels = self.levels();
        let depth = levels.iter().copied().max().map_or(0, |d| d as usize + 1);
        let mut buckets = vec![Vec::new(); depth];
        for t in self.task_ids() {
            buckets[levels[t.index()] as usize].push(t);
        }
        buckets
    }

    /// Total sequential work of the application in flop.
    pub fn total_seq_flops(&self) -> f64 {
        self.nodes.iter().map(|n| n.cost.seq_flops()).sum()
    }

    /// Total bytes carried by all edges.
    pub fn total_edge_bytes(&self) -> f64 {
        self.edges.iter().map(|e| e.bytes).sum()
    }

    /// Renders the graph in Graphviz DOT syntax (task names and edge MB).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph G {\n  rankdir=TB;\n");
        for t in self.task_ids() {
            let n = self.task(t);
            let _ = writeln!(
                out,
                "  {} [label=\"{}\\n{:.1} Gflop\"];",
                t,
                n.name,
                n.cost.seq_flops() / 1e9
            );
        }
        for e in self.edge_ids() {
            let Edge { src, dst, bytes } = *self.edge(e);
            let _ = writeln!(out, "  {src} -> {dst} [label=\"{:.1} MB\"];", bytes / 1e6);
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cost() -> TaskCost {
        TaskCost::new(1_000_000, 100.0, 0.1)
    }

    /// A diamond: a → b, a → c, b → d, c → d.
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
    fn build_and_query() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.entries(), vec![a]);
        assert_eq!(g.exits(), vec![d]);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        let succs: Vec<TaskId> = g.successors(a).map(|(t, _)| t).collect();
        assert_eq!(succs, vec![b, c]);
        let preds: Vec<TaskId> = g.predecessors(d).map(|(t, _)| t).collect();
        assert_eq!(preds, vec![b, c]);
    }

    #[test]
    fn topo_order_respects_edges() {
        let (g, _) = diamond();
        let order = g.topo_order().unwrap();
        let pos: Vec<usize> = {
            let mut pos = vec![0; g.num_tasks()];
            for (i, t) in order.iter().enumerate() {
                pos[t.index()] = i;
            }
            pos
        };
        for e in g.edge_ids() {
            let edge = g.edge(e);
            assert!(pos[edge.src.index()] < pos[edge.dst.index()]);
        }
    }

    #[test]
    fn cycle_detection() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", cost());
        let b = g.add_task("b", cost());
        g.add_edge(a, b, 1.0);
        g.add_edge(b, a, 1.0);
        assert!(!g.is_acyclic());
        assert!(matches!(g.validate(), Err(DagError::Cycle(_))));
    }

    #[test]
    fn empty_graph_invalid() {
        assert_eq!(TaskGraph::new().validate(), Err(DagError::Empty));
    }

    #[test]
    fn levels_of_diamond() {
        let (g, [a, b, c, d]) = diamond();
        let lv = g.levels();
        assert_eq!(lv[a.index()], 0);
        assert_eq!(lv[b.index()], 1);
        assert_eq!(lv[c.index()], 1);
        assert_eq!(lv[d.index()], 2);
        let by = g.tasks_by_level();
        assert_eq!(by.len(), 3);
        assert_eq!(by[1], vec![b, c]);
    }

    #[test]
    fn totals() {
        let (g, _) = diamond();
        assert!((g.total_edge_bytes() - 32.0).abs() < 1e-12);
        assert!((g.total_seq_flops() - 4.0 * 1e8).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", cost());
        g.add_edge(a, a, 1.0);
    }

    #[test]
    #[should_panic(expected = "edge weight")]
    fn rejects_negative_weight() {
        let (mut g, [a, b, ..]) = diamond();
        g.add_edge(b, a, -1.0);
    }

    #[test]
    fn dot_output_mentions_every_task() {
        let (g, _) = diamond();
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph"));
        for t in g.task_ids() {
            assert!(dot.contains(&format!("{t} ")));
        }
        assert!(dot.contains("->"));
    }

    #[test]
    fn topo_order_is_deterministic() {
        let (g, _) = diamond();
        assert_eq!(g.topo_order().unwrap(), g.topo_order().unwrap());
    }

    /// Every adjacency accessor of `g`, checked against a naive rebuild
    /// from the edge list alone: per-task neighbor lists in edge id order,
    /// degrees, entries, exits and a FIFO Kahn order.
    fn check_against_edge_list(g: &TaskGraph) {
        let n = g.num_tasks();
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for e in g.edge_ids() {
            let Edge { src, dst, bytes } = *g.edge(e);
            succ[src.index()].push(AdjEdge {
                task: dst,
                edge: e,
                bytes,
            });
            pred[dst.index()].push(AdjEdge {
                task: src,
                edge: e,
                bytes,
            });
        }
        let pairs = |list: &[AdjEdge]| -> Vec<(TaskId, EdgeId)> {
            list.iter().map(|a| (a.task, a.edge)).collect()
        };
        for t in g.task_ids() {
            let (s, p) = (&succ[t.index()], &pred[t.index()]);
            prop_assert_eq!(g.succs_flat(t), s.as_slice());
            prop_assert_eq!(g.preds_flat(t), p.as_slice());
            prop_assert_eq!(g.successors(t).collect::<Vec<_>>(), pairs(s));
            prop_assert_eq!(g.predecessors(t).collect::<Vec<_>>(), pairs(p));
            prop_assert_eq!(g.out_degree(t), s.len());
            prop_assert_eq!(g.in_degree(t), p.len());
        }
        let without = |lists: &[Vec<AdjEdge>]| -> Vec<TaskId> {
            g.task_ids()
                .filter(|t| lists[t.index()].is_empty())
                .collect()
        };
        prop_assert_eq!(g.entries(), without(&pred));
        prop_assert_eq!(g.exits(), without(&succ));
        let mut indeg: Vec<usize> = pred.iter().map(Vec::len).collect();
        let mut order = without(&pred);
        let mut head = 0;
        while head < order.len() {
            let t = order[head];
            head += 1;
            for a in &succ[t.index()] {
                indeg[a.task.index()] -= 1;
                if indeg[a.task.index()] == 0 {
                    order.push(a.task);
                }
            }
        }
        let naive = match g.task_ids().find(|t| indeg[t.index()] > 0) {
            None => Ok(order),
            Some(t) => Err(DagError::Cycle(t)),
        };
        prop_assert_eq!(g.topo_order(), naive);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random graphs grown by `add_task`, `add_edge` and
        /// `set_edge_bytes`, with queries interleaved so that mutations
        /// also land after the views were built: after each queried step
        /// every accessor matches a rebuild from the edge list.
        #[test]
        fn flat_views_match_the_edge_list(seed in 0u64..u64::MAX) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut g = TaskGraph::new();
            for _ in 0..rng.random_range(1..80u32) {
                let n = g.num_tasks();
                match rng.random_range(0..8u32) {
                    0..=1 => {
                        g.add_task("t", cost());
                    }
                    // Mostly forward edges (acyclic), sometimes any
                    // direction, so cycles show up too.
                    2..=5 if n >= 2 => {
                        let a = rng.random_range(0..n);
                        let b = (a + rng.random_range(1..n)) % n;
                        let (src, dst) = if rng.random_bool(0.8) {
                            (a.min(b), a.max(b))
                        } else {
                            (a, b)
                        };
                        let bytes = f64::from(rng.random_range(0..100u32));
                        g.add_edge(TaskId::from_index(src), TaskId::from_index(dst), bytes);
                    }
                    6..=7 if g.num_edges() > 0 => {
                        let e = EdgeId::from_index(rng.random_range(0..g.num_edges()));
                        g.set_edge_bytes(e, f64::from(rng.random_range(0..100u32)));
                    }
                    _ => {}
                }
                if rng.random_bool(0.5) {
                    check_against_edge_list(&g);
                }
            }
            check_against_edge_list(&g);
        }
    }
}
