//! FFT task graphs (recursive decomposition + butterfly stages).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rats_dag::{TaskGraph, TaskId};
use rats_model::{CostParams, TaskCost};

use crate::assign_level_costs;

/// Number of tasks of the FFT graph for `k` data points:
/// `2k − 1` recursive-call tasks plus `k·log₂ k` butterfly tasks
/// (5, 15, 39, 95 for k = 2, 4, 8, 16 — the paper's sizes).
pub fn fft_task_count(k: u32) -> u32 {
    assert!(
        k.is_power_of_two() && k >= 2,
        "k must be a power of two ≥ 2"
    );
    2 * k - 1 + k * k.ilog2()
}

/// Builds the FFT task graph for `k` data points (`k` a power of two ≥ 2).
///
/// The graph has two parts:
///
/// * a binary tree of **recursive-call** tasks: the root splits the input
///   in halves down to `k` leaves (`2k − 1` tasks, `log₂ k + 1` levels);
/// * `log₂ k` levels of `k` **butterfly** tasks; the butterfly task `i` of
///   stage `s` combines the results of tasks `i` and `i XOR 2^(s−1)` of the
///   previous stage (stage 0 being the recursion leaves).
///
/// All tasks of a level share one randomly drawn cost, which makes *every*
/// entry-to-exit path a critical path — the paper's key property of this
/// family. The graph has a single entry (the root) and `k` exits.
pub fn fft_dag(k: u32, cost: &CostParams, seed: u64) -> TaskGraph {
    assert!(
        k.is_power_of_two() && k >= 2,
        "k must be a power of two ≥ 2"
    );
    let stages = k.ilog2();
    // `2(k − 1)` tree edges plus two inputs per butterfly task.
    let edges = (2 * (k - 1) + 2 * k * stages) as usize;
    let mut g = TaskGraph::with_capacity(fft_task_count(k) as usize, edges);
    let mut rng = StdRng::seed_from_u64(seed);

    // Recursive-call tree, level by level: level d has 2^d tasks.
    let mut tree_levels: Vec<Vec<TaskId>> = Vec::with_capacity(stages as usize + 1);
    for d in 0..=stages {
        let level: Vec<TaskId> = (0..(1u32 << d))
            .map(|i| g.add_task(format!("rec{d}_{i}"), TaskCost::zero()))
            .collect();
        if d > 0 {
            for (i, &t) in level.iter().enumerate() {
                g.add_edge(tree_levels[d as usize - 1][i / 2], t, 0.0);
            }
        }
        tree_levels.push(level);
    }

    // Butterfly stages: stage 0 is the tree's leaf level.
    let mut prev: Vec<TaskId> = tree_levels.last().expect("tree has levels").clone();
    for s in 1..=stages {
        let stage: Vec<TaskId> = (0..k)
            .map(|i| g.add_task(format!("bfly{s}_{i}"), TaskCost::zero()))
            .collect();
        let stride = 1u32 << (s - 1);
        for (i, &t) in stage.iter().enumerate() {
            let i = i as u32;
            g.add_edge(prev[i as usize], t, 0.0);
            g.add_edge(prev[(i ^ stride) as usize], t, 0.0);
        }
        prev = stage;
    }
    debug_assert_eq!(g.num_edges(), edges);

    assign_level_costs(&mut g, cost, &mut rng);
    debug_assert!(g.validate().is_ok());
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rats_dag::{bottom_levels, critical_path_length, top_levels};

    #[test]
    fn paper_task_counts() {
        assert_eq!(fft_task_count(2), 5);
        assert_eq!(fft_task_count(4), 15);
        assert_eq!(fft_task_count(8), 39);
        assert_eq!(fft_task_count(16), 95);
    }

    #[test]
    fn structure_k4() {
        let g = fft_dag(4, &CostParams::tiny(), 0);
        assert_eq!(g.num_tasks(), 15);
        assert_eq!(g.entries().len(), 1, "single root entry");
        assert_eq!(g.exits().len(), 4, "k exit tasks");
        g.validate().unwrap();
        // Tree edges: 2 + 4; butterfly edges: 2 stages × 4 tasks × 2 parents.
        assert_eq!(g.num_edges(), 6 + 16);
    }

    #[test]
    fn every_path_is_critical() {
        // With per-level uniform costs, top + bottom level must be the
        // critical-path length at *every* task.
        for k in [2u32, 4, 8, 16] {
            let g = fft_dag(k, &CostParams::tiny(), 9);
            let times: Vec<f64> = g.task_ids().map(|t| g.task(t).cost.time(1, 3.0)).collect();
            let comm = |_: rats_dag::EdgeId, bytes: f64| bytes / 125e6;
            let bl = bottom_levels(&g, &times, comm);
            let tl = top_levels(&g, &times, comm);
            let cp = critical_path_length(&g, &times, comm);
            for t in g.task_ids() {
                let through = tl[t.index()] + bl[t.index()];
                assert!(
                    (through - cp).abs() < 1e-9 * cp,
                    "k={k}, task {t}: {through} vs {cp}"
                );
            }
        }
    }

    #[test]
    fn butterfly_tasks_have_two_parents() {
        let g = fft_dag(8, &CostParams::tiny(), 4);
        let levels = g.levels();
        let tree_depth = 3; // log2(8): levels 0..=3 are the tree
        for t in g.task_ids() {
            if levels[t.index()] > tree_depth {
                assert_eq!(g.in_degree(t), 2, "butterfly task {t}");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = fft_dag(8, &CostParams::tiny(), 77);
        let b = fft_dag(8, &CostParams::tiny(), 77);
        for (x, y) in a.task_ids().zip(b.task_ids()) {
            assert_eq!(a.task(x).cost, b.task(y).cost);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        fft_dag(6, &CostParams::tiny(), 0);
    }
}
