//! Random layered and irregular DAG generation (after Suter's `daggen`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rats_dag::{TaskGraph, TaskId};
use rats_model::CostParams;

use crate::{assign_level_costs, sample_distinct, set_edge_payloads};

/// Shape parameters of a random DAG (paper, Table III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagParams {
    /// Number of computation tasks (25, 50 or 100 in the paper).
    pub n: u32,
    /// Width ∈ (0, 1]: a level holds about `n^width` tasks. "A small value
    /// leads to chain graphs and a large value leads to fork-join graphs."
    pub width: f64,
    /// Regularity ∈ [0, 1]: uniformity of level sizes. Low values make
    /// levels very dissimilar in size.
    pub regularity: f64,
    /// Density ∈ [0, 1]: how many edges connect two consecutive levels.
    pub density: f64,
    /// Maximal jump length: edges may go from level `l` to `l + j` for
    /// `j ∈ {1, …, jump}`. `jump = 1` means no level is skipped (the
    /// layered case).
    pub jump: u32,
}

impl DagParams {
    /// Parameters with `jump = 1` (layered shape).
    pub fn layered(n: u32, width: f64, regularity: f64, density: f64) -> Self {
        Self {
            n,
            width,
            regularity,
            density,
            jump: 1,
        }
    }

    fn validate(&self) {
        assert!(self.n > 0, "DAG must have at least one task");
        assert!(
            self.width > 0.0 && self.width <= 1.0,
            "width must be in (0, 1], got {}",
            self.width
        );
        assert!(
            (0.0..=1.0).contains(&self.regularity),
            "regularity must be in [0, 1], got {}",
            self.regularity
        );
        assert!(
            (0.0..=1.0).contains(&self.density),
            "density must be in [0, 1], got {}",
            self.density
        );
        assert!(self.jump >= 1, "jump must be at least 1");
    }
}

/// Splits `n` tasks into levels: the "perfect" level size is `n^width`,
/// individual levels deviate by up to `±(1 − regularity)` of it.
fn level_sizes(p: &DagParams, rng: &mut StdRng) -> Vec<u32> {
    let perfect = (f64::from(p.n).powf(p.width)).round().max(1.0);
    let lo = (perfect * p.regularity).round().max(1.0) as u32;
    let hi = (perfect * (2.0 - p.regularity)).round().max(1.0) as u32;
    let mut sizes = Vec::new();
    let mut left = p.n;
    while left > 0 {
        let s = rng.random_range(lo..=hi).min(left);
        sizes.push(s);
        left -= s;
    }
    sizes
}

/// Builds the task structure and edges; costs are filled in by the caller.
fn build_structure(p: &DagParams, rng: &mut StdRng) -> (TaskGraph, Vec<Vec<TaskId>>) {
    let sizes = level_sizes(p, rng);
    let mut g = TaskGraph::with_capacity(p.n as usize, p.n as usize * 2);
    let mut by_level: Vec<Vec<TaskId>> = Vec::with_capacity(sizes.len());
    for (l, &s) in sizes.iter().enumerate() {
        let level: Vec<TaskId> = (0..s)
            .map(|i| g.add_task(format!("t{l}_{i}"), rats_model::TaskCost::zero()))
            .collect();
        by_level.push(level);
    }
    // Parents: every task of level l ≥ 1 gets ≥ 1 parent in level l−1 (so
    // the depth level equals the generated level) and up to
    // `density · |level l−1|` parents drawn from levels l−j, j ≤ jump.
    let mut pool = Vec::new();
    for l in 1..by_level.len() {
        let prev_size = by_level[l - 1].len() as u32;
        for i in 0..by_level[l].len() {
            let t = by_level[l][i];
            let extra = (p.density * f64::from(prev_size) * rng.random_range(0.0..1.0)) as u32;
            let nb_parents = (1 + extra).min(prev_size);
            // First (and possibly only) parents come from level l−1.
            for &pi in sample_distinct(rng, prev_size, nb_parents, &mut pool) {
                g.add_edge(by_level[l - 1][pi as usize], t, 0.0);
            }
            // Jump edges from farther levels (irregular DAGs only).
            if p.jump > 1 {
                let max_d = p.jump.min(l as u32);
                for d in 2..=max_d {
                    if rng.random_range(0.0..1.0) < p.density {
                        let far = &by_level[l - d as usize];
                        let pi = rng.random_range(0..far.len());
                        g.add_edge(far[pi], t, 0.0);
                    }
                }
            }
        }
        // Keep the flow connected: any childless task of level l−1 feeds a
        // random task of level l.
        for &u in &by_level[l - 1] {
            if g.out_degree(u) == 0 {
                let ci = rng.random_range(0..by_level[l].len());
                g.add_edge(u, by_level[l][ci], 0.0);
            }
        }
    }
    (g, by_level)
}

/// Generates a **layered** random DAG: all tasks of a level share one
/// randomly drawn cost, so all transfers between two levels carry the same
/// amount of data.
pub fn layered_dag(p: &DagParams, cost: &CostParams, seed: u64) -> TaskGraph {
    p.validate();
    assert_eq!(p.jump, 1, "layered DAGs have no jump edges");
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut g, _) = build_structure(p, &mut rng);
    assign_level_costs(&mut g, cost, &mut rng);
    debug_assert!(g.validate().is_ok());
    g
}

/// Generates an **irregular** random DAG: tasks of the same level may have
/// different costs, and edges may jump over up to `p.jump − 1` levels.
pub fn irregular_dag(p: &DagParams, cost: &CostParams, seed: u64) -> TaskGraph {
    p.validate();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut g, _) = build_structure(p, &mut rng);
    for t in g.task_ids() {
        g.task_mut(t).cost = cost.sample(&mut rng);
    }
    set_edge_payloads(&mut g);
    debug_assert!(g.validate().is_ok());
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn params(n: u32, width: f64, regularity: f64, density: f64, jump: u32) -> DagParams {
        DagParams {
            n,
            width,
            regularity,
            density,
            jump,
        }
    }

    #[test]
    fn layered_has_requested_task_count() {
        for n in [25, 50, 100] {
            let g = layered_dag(
                &DagParams::layered(n, 0.5, 0.8, 0.5),
                &CostParams::tiny(),
                42,
            );
            assert_eq!(g.num_tasks(), n as usize);
            g.validate().unwrap();
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = params(50, 0.5, 0.2, 0.8, 4);
        let a = irregular_dag(&p, &CostParams::tiny(), 7);
        let b = irregular_dag(&p, &CostParams::tiny(), 7);
        assert_eq!(a.num_tasks(), b.num_tasks());
        assert_eq!(a.num_edges(), b.num_edges());
        for (ea, eb) in a.edge_ids().zip(b.edge_ids()) {
            assert_eq!(a.edge(ea), b.edge(eb));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = params(50, 0.5, 0.2, 0.8, 1);
        let a = layered_dag(
            &DagParams::layered(50, 0.5, 0.2, 0.8),
            &CostParams::tiny(),
            1,
        );
        let b = layered_dag(
            &DagParams::layered(50, 0.5, 0.2, 0.8),
            &CostParams::tiny(),
            2,
        );
        // Either the shape or the costs must differ.
        let same_shape = a.num_edges() == b.num_edges();
        let same_costs = a
            .task_ids()
            .zip(b.task_ids())
            .all(|(x, y)| a.task(x).cost == b.task(y).cost);
        assert!(!(same_shape && same_costs), "seeds {p:?} collided");
    }

    #[test]
    fn width_controls_parallelism() {
        let narrow = layered_dag(
            &DagParams::layered(100, 0.2, 0.8, 0.5),
            &CostParams::tiny(),
            3,
        );
        let wide = layered_dag(
            &DagParams::layered(100, 0.8, 0.8, 0.5),
            &CostParams::tiny(),
            3,
        );
        let max_width = |g: &TaskGraph| g.tasks_by_level().iter().map(Vec::len).max().unwrap();
        assert!(
            max_width(&wide) > max_width(&narrow),
            "wide {} vs narrow {}",
            max_width(&wide),
            max_width(&narrow)
        );
        assert!(
            narrow.tasks_by_level().len() > wide.tasks_by_level().len(),
            "narrow graphs must be deeper"
        );
    }

    #[test]
    fn layered_levels_share_costs() {
        let g = layered_dag(
            &DagParams::layered(50, 0.5, 0.8, 0.8),
            &CostParams::tiny(),
            11,
        );
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
    fn irregular_jump_edges_skip_levels() {
        let p = params(100, 0.5, 0.8, 0.8, 4);
        let g = irregular_dag(&p, &CostParams::tiny(), 13);
        let levels = g.levels();
        let mut max_span = 0;
        for e in g.edge_ids() {
            let edge = g.edge(e);
            let span = levels[edge.dst.index()] - levels[edge.src.index()];
            max_span = max_span.max(span);
        }
        assert!(max_span >= 2, "expected at least one jump edge");
        assert!(max_span <= 4, "jump edges must respect the bound");
    }

    #[test]
    fn no_level_is_skipped_structurally() {
        // Every non-entry task has a parent exactly one level above.
        let p = params(80, 0.5, 0.2, 0.5, 4);
        let g = irregular_dag(&p, &CostParams::tiny(), 17);
        let levels = g.levels();
        for t in g.task_ids() {
            if g.in_degree(t) > 0 {
                let has_adjacent = g
                    .predecessors(t)
                    .any(|(p, _)| levels[p.index()] + 1 == levels[t.index()]);
                assert!(has_adjacent, "task {t} floats below its level");
            }
        }
    }

    #[test]
    #[should_panic(expected = "no jump edges")]
    fn layered_rejects_jump() {
        layered_dag(&params(10, 0.5, 0.5, 0.5, 2), &CostParams::tiny(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any parameter combination yields a valid DAG of the right size.
        #[test]
        fn always_valid(
            n in 1u32..120,
            width in 0.1f64..1.0,
            regularity in 0.0f64..1.0,
            density in 0.0f64..1.0,
            jump in 1u32..5,
            seed in 0u64..100,
        ) {
            let p = params(n, width, regularity, density, jump);
            let g = irregular_dag(&p, &CostParams::tiny(), seed);
            prop_assert_eq!(g.num_tasks(), n as usize);
            prop_assert!(g.validate().is_ok());
            // Only level-0 tasks are entries.
            let levels = g.levels();
            for t in g.task_ids() {
                if g.in_degree(t) == 0 {
                    prop_assert_eq!(levels[t.index()], 0);
                }
            }
        }
    }
}
