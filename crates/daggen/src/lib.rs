//! Task-graph generators for the paper's four application families.
//!
//! The evaluation (section IV-A, Table III) uses 557 application
//! configurations drawn from four families:
//!
//! * **layered random DAGs** (108) — levels of tasks where every task in a
//!   level has the *same* cost, so all transfers between two levels share
//!   the same communication cost;
//! * **irregular random DAGs** (324) — per-task random costs plus random
//!   *jump edges* that skip over levels (`jump ∈ {1, 2, 4}`), capturing
//!   "the heterogeneous and unpredictable aspects of scientific workflows";
//! * **FFT task graphs** (100) — `2k−1` recursive-call tasks and
//!   `k·log₂ k` butterfly tasks for `k ∈ {2, 4, 8, 16}` data points
//!   (5, 15, 39 and 95 tasks); every entry-to-exit path is critical;
//! * **Strassen task graphs** (25) — the 25-task graph of Strassen's
//!   matrix multiplication: 10 entry addition tasks, 7 sub-multiplications
//!   and 8 combination additions.
//!
//! Random DAG shape follows the three classic parameters of Suter's
//! `daggen` program (the paper's reference \[12\]): **width** (`n^width`
//! tasks per level — small values give chains, large values fork-joins),
//! **regularity** (how uniform level sizes are) and **density** (how many
//! edges connect consecutive levels). All generators are deterministic
//! functions of a `u64` seed.

mod fft;
pub mod population;
mod random;
mod shapes;
mod strassen;
pub mod suite;

pub use fft::{fft_dag, fft_task_count};
pub use population::{fnv1a, read_population, write_population, Population, PopulationError};
pub use random::{irregular_dag, layered_dag, DagParams};
pub use shapes::{chain_dag, fork_join_dag, in_tree_dag, out_tree_dag, tree_task_count};
pub use strassen::{strassen_dag, STRASSEN_TASKS};
pub use suite::{paper_suite, scenario_seed, AppFamily, Scenario};

use rand::rngs::StdRng;

use rats_dag::TaskGraph;
use rats_model::CostParams;

/// Assigns per-*level* random costs to every task of `g` (the paper's rule
/// for layered, FFT and Strassen graphs: "computation or communication
/// tasks in a given level have the same cost") and sets every edge's payload
/// to its producer's dataset size.
pub(crate) fn assign_level_costs(g: &mut TaskGraph, cost: &CostParams, rng: &mut StdRng) {
    let levels = g.levels();
    let depth = levels.iter().copied().max().map_or(0, |d| d as usize + 1);
    let per_level: Vec<_> = (0..depth).map(|_| cost.sample(rng)).collect();
    for t in g.task_ids() {
        g.task_mut(t).cost = per_level[levels[t.index()] as usize];
    }
    set_edge_payloads(g);
}

/// Sets every edge's byte count to the dataset size of its producing task
/// ("the volume of data communicated by a task to each of its children is
/// equal to m").
pub(crate) fn set_edge_payloads(g: &mut TaskGraph) {
    for e in g.edge_ids() {
        let src = g.edge(e).src;
        let bytes = g.task(src).cost.data_bytes();
        g.set_edge_bytes(e, bytes);
    }
}

/// Draws `k` distinct values from `0..n` (k ≤ n), in random order, using
/// `pool` as scratch so repeated draws reuse one buffer.
pub(crate) fn sample_distinct<'p>(
    rng: &mut StdRng,
    n: u32,
    k: u32,
    pool: &'p mut Vec<u32>,
) -> &'p [u32] {
    use rand::Rng;
    debug_assert!(k <= n);
    pool.clear();
    pool.extend(0..n);
    for i in 0..k as usize {
        let j = rng.random_range(i..n as usize);
        pool.swap(i, j);
    }
    &pool[..k as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn level_costs_are_uniform_within_levels() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = fft_dag(4, &CostParams::tiny(), 3);
        assign_level_costs(&mut g, &CostParams::tiny(), &mut rng);
        let levels = g.levels();
        for a in g.task_ids() {
            for b in g.task_ids() {
                if levels[a.index()] == levels[b.index()] {
                    assert_eq!(g.task(a).cost, g.task(b).cost);
                }
            }
        }
    }

    #[test]
    fn edge_payloads_follow_producers() {
        let g = fft_dag(8, &CostParams::tiny(), 5);
        for e in g.edge_ids() {
            let edge = g.edge(e);
            assert_eq!(edge.bytes, g.task(edge.src).cost.data_bytes());
        }
    }

    #[test]
    fn sample_distinct_is_distinct() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut pool = Vec::new();
        for _ in 0..100 {
            let mut v = sample_distinct(&mut rng, 10, 7, &mut pool).to_vec();
            v.sort_unstable();
            v.dedup();
            assert_eq!(v.len(), 7);
        }
    }
}
