//! Parameter tuning: the paper's section IV-C.
//!
//! Tuning sweeps are ordinary campaigns: each grid point is a
//! [`MappingStrategy`] value, evaluated by the one job executor
//! ([`ExperimentSpec::run`](crate::spec::ExperimentSpec::run)) — in-process,
//! sharded or served. Figure 4, Figure 5 and Table IV are pure assemblies
//! over the per-strategy results, which they look up by strategy value, so
//! every path that produced the results agrees bit for bit.

use rats_daggen::suite::AppFamily;
use rats_sched::MappingStrategy;

use crate::campaign::{AlgoResults, RunResult};
use crate::spec::StrategySpec;

/// The `mindelta` grid of Figure 4 (magnitudes of the paper's negative
/// values −0.75 … 0).
pub const MINDELTA_GRID: [f64; 4] = [0.0, 0.25, 0.5, 0.75];
/// The `maxdelta` grid of Figure 4 (1 is tested for stretching only — "
/// allowing to remove all the processors of an allocation … does not make
/// sense").
pub const MAXDELTA_GRID: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
/// The `minrho` grid of Figure 5.
pub const MINRHO_GRID: [f64; 6] = [0.2, 0.4, 0.5, 0.6, 0.8, 1.0];

/// A tuned RATS parameter triple, as listed per (application type, cluster)
/// in the paper's Table IV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunedParams {
    /// Packing bound magnitude (paper writes it negative).
    pub mindelta: f64,
    /// Stretching bound.
    pub maxdelta: f64,
    /// Time-cost efficiency threshold.
    pub minrho: f64,
}

impl TunedParams {
    /// The tuned comparison's three strategies: the HCPA baseline, delta
    /// with these bounds and time-cost (packing enabled) with this
    /// threshold.
    pub(crate) fn strategies(self) -> [MappingStrategy; 3] {
        [
            MappingStrategy::Hcpa,
            MappingStrategy::rats_delta(self.mindelta, self.maxdelta),
            MappingStrategy::rats_time_cost(self.minrho, true),
        ]
    }
}

/// The delta-strategy grid points of Figure 4, `mindelta`-major
/// (`MINDELTA_GRID[i] × MAXDELTA_GRID[j]` flattens to index
/// `i * MAXDELTA_GRID.len() + j`).
pub fn delta_strategies() -> Vec<MappingStrategy> {
    MINDELTA_GRID
        .iter()
        .flat_map(|&mind| {
            MAXDELTA_GRID
                .iter()
                .map(move |&maxd| MappingStrategy::rats_delta(mind, maxd))
        })
        .collect()
}

/// One curve of Figure 5: the time-cost strategy at every [`MINRHO_GRID`]
/// value, with packing enabled or disabled.
pub(crate) fn rho_curve_strategies(allow_packing: bool) -> Vec<MappingStrategy> {
    MINRHO_GRID
        .iter()
        .map(|&rho| MappingStrategy::rats_time_cost(rho, allow_packing))
        .collect()
}

/// The time-cost grid points of Figure 5: every [`MINRHO_GRID`] value with
/// packing enabled, then the same values with packing disabled.
pub fn rho_strategies() -> Vec<MappingStrategy> {
    let mut out = rho_curve_strategies(true);
    out.extend(rho_curve_strategies(false));
    out
}

/// The full tuning sweep as one flat strategy list — the HCPA baseline
/// first, then [`delta_strategies`], then [`rho_strategies`] — ready to run
/// through the campaign job grid, in-process or sharded. Every strategy
/// the paper reports, naive or tuned, is one of these points.
pub fn sweep_strategies() -> Vec<MappingStrategy> {
    let mut out = vec![MappingStrategy::Hcpa];
    out.extend(delta_strategies());
    out.extend(rho_strategies());
    out
}

/// [`sweep_strategies`] in data form, ready to drop into an
/// [`ExperimentSpec`](crate::spec::ExperimentSpec)'s strategy list.
pub fn sweep_specs() -> Vec<StrategySpec> {
    sweep_strategies()
        .into_iter()
        .map(StrategySpec::from_strategy)
        .collect()
}

/// Scenario-aligned results looked up by strategy value: what the sweep
/// assemblies read, whichever campaign (and scenario subset) produced them.
/// [`MappingStrategy::Hcpa`] must resolve to the baseline.
pub(crate) type Lookup<'a> = dyn Fn(MappingStrategy) -> &'a AlgoResults + 'a;

/// Mean of `makespan / baseline` over one strategy's scenario-ordered runs
/// — the single summation every path uses, so their averages are
/// bit-identical.
fn mean_relative(runs: &[RunResult], base: &[f64]) -> f64 {
    assert_eq!(runs.len(), base.len(), "misaligned sweep");
    runs.iter()
        .zip(base)
        .map(|(r, &b)| r.makespan / b)
        .sum::<f64>()
        / base.len() as f64
}

/// The average relative makespan (against HCPA) of each strategy, in
/// order.
fn relative_means(strategies: &[MappingStrategy], runs: &Lookup<'_>) -> Vec<f64> {
    let base = runs(MappingStrategy::Hcpa).makespans();
    strategies
        .iter()
        .map(|&s| mean_relative(&runs(s).runs, &base))
        .collect()
}

/// Figure 4: the average relative makespan of the delta strategy for every
/// `(mindelta, maxdelta)` grid point, as `grid[i][j]` for
/// `MINDELTA_GRID[i]` × `MAXDELTA_GRID[j]`.
pub(crate) fn delta_grid(runs: &Lookup<'_>) -> Vec<Vec<f64>> {
    relative_means(&delta_strategies(), runs)
        .chunks(MAXDELTA_GRID.len())
        .map(<[f64]>::to_vec)
        .collect()
}

/// Figure 5: one curve of the time-cost strategy's average relative
/// makespan, one value per [`MINRHO_GRID`] entry.
pub(crate) fn rho_curve(allow_packing: bool, runs: &Lookup<'_>) -> Vec<f64> {
    relative_means(&rho_curve_strategies(allow_packing), runs)
}

/// Table IV for one scenario set: the `(mindelta, maxdelta)` pair
/// minimizing the delta strategy's average relative makespan, and the
/// `minrho` minimizing the time-cost strategy's (packing enabled, which
/// the paper found always preferable). Argmin by strict `<` in grid order.
pub(crate) fn tuned(runs: &Lookup<'_>) -> TunedParams {
    let mut best_delta = (f64::INFINITY, 0.0, 0.0);
    for (i, row) in delta_grid(runs).iter().enumerate() {
        for (j, &avg) in row.iter().enumerate() {
            if avg < best_delta.0 {
                best_delta = (avg, MINDELTA_GRID[i], MAXDELTA_GRID[j]);
            }
        }
    }
    let mut best_rho = (f64::INFINITY, MINRHO_GRID[0]);
    for (&rho, avg) in MINRHO_GRID.iter().zip(rho_curve(true, runs)) {
        if avg < best_rho.0 {
            best_rho = (avg, rho);
        }
    }
    TunedParams {
        mindelta: best_delta.1,
        maxdelta: best_delta.2,
        minrho: best_rho.1,
    }
}

/// Figure 4, Figure 5 and Table IV, reassembled from per-strategy sweep
/// results.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTables {
    /// Figure 4's `grid[mindelta][maxdelta]` of average relative makespans.
    pub delta_grid: Vec<Vec<f64>>,
    /// Figure 5's curve with packing enabled, one value per [`MINRHO_GRID`]
    /// entry.
    pub rho_with_packing: Vec<f64>,
    /// Figure 5's curve with packing disabled.
    pub rho_without_packing: Vec<f64>,
    /// Table IV's tuned parameter triple.
    pub tuned: TunedParams,
}

/// Assembles [`SweepTables`] from scenario-aligned results in
/// [`sweep_strategies`] order (`results[0]` is the HCPA baseline) — e.g.
/// the merged output of a sharded tuning campaign.
///
/// # Panics
/// Panics if the result list does not have the sweep's shape.
pub fn sweep_tables(results: &[AlgoResults]) -> SweepTables {
    let strategies = sweep_strategies();
    assert_eq!(
        results.len(),
        strategies.len(),
        "results are not in sweep_strategies() order"
    );
    let runs = |s: MappingStrategy| {
        let i = strategies
            .iter()
            .position(|&t| t == s)
            .expect("every strategy read is a sweep point");
        &results[i]
    };
    SweepTables {
        delta_grid: delta_grid(&runs),
        rho_with_packing: rho_curve(true, &runs),
        rho_without_packing: rho_curve(false, &runs),
        tuned: tuned(&runs),
    }
}

/// The tuned values the **paper** reports in Table IV, which the tuned
/// comparisons (Figures 6/7, Tables V/VI) run with instead of re-tuning.
/// (`mindelta` is stored as a magnitude.)
pub fn paper_tuned(family: AppFamily, cluster: &str) -> TunedParams {
    let (mindelta, maxdelta, minrho) = match (cluster, family) {
        ("chti", AppFamily::Fft) => (0.5, 1.0, 0.2),
        ("chti", AppFamily::Strassen) => (0.25, 0.5, 0.5),
        ("chti", AppFamily::Layered) => (0.5, 1.0, 0.2),
        ("chti", AppFamily::Irregular) => (0.75, 1.0, 0.5),
        ("grillon", AppFamily::Fft) => (0.5, 1.0, 0.2),
        ("grillon", AppFamily::Strassen) => (0.0, 1.0, 0.4),
        ("grillon", AppFamily::Layered) => (0.25, 1.0, 0.2),
        ("grillon", AppFamily::Irregular) => (0.75, 1.0, 0.5),
        ("grelon", AppFamily::Fft) => (0.25, 0.75, 0.4),
        ("grelon", AppFamily::Strassen) => (0.25, 1.0, 0.5),
        ("grelon", AppFamily::Layered) => (0.5, 1.0, 0.2),
        ("grelon", AppFamily::Irregular) => (0.75, 1.0, 0.4),
        (c, f) => panic!("no paper-tuned parameters for cluster {c:?}, family {f:?}"),
    };
    TunedParams {
        mindelta,
        maxdelta,
        minrho,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ExperimentSpec, SuiteSpec};

    /// A sweep campaign over the mini suite on chti, results in
    /// [`sweep_strategies`] order.
    fn mini_sweep(seed: u64) -> Vec<AlgoResults> {
        let mut spec = ExperimentSpec::naive("sweep", "chti", SuiteSpec::Mini, seed);
        spec.strategies = sweep_specs();
        spec.threads = Some(2);
        spec.run().unwrap().clusters.remove(0).results
    }

    #[test]
    fn grids_match_paper_sizes() {
        assert_eq!(MINDELTA_GRID.len(), 4);
        assert_eq!(MAXDELTA_GRID.len(), 5);
        assert_eq!(MINRHO_GRID.len(), 6);
    }

    #[test]
    fn sweep_strategy_list_has_the_documented_shape() {
        let sweep = sweep_strategies();
        assert_eq!(sweep.len(), 1 + 4 * 5 + 2 * 6);
        assert_eq!(sweep[0], MappingStrategy::Hcpa);
        // mindelta-major delta block: the second entry moves maxdelta.
        assert_eq!(sweep[1], MappingStrategy::rats_delta(0.0, 0.0));
        assert_eq!(sweep[2], MappingStrategy::rats_delta(0.0, 0.25));
        // rho block: packing-enabled first.
        assert_eq!(sweep[21], MappingStrategy::rats_time_cost(0.2, true));
        assert_eq!(sweep[27], MappingStrategy::rats_time_cost(0.2, false));
        // The data form mirrors the strategies one-to-one.
        let specs = sweep_specs();
        for (spec, strategy) in specs.iter().zip(&sweep) {
            assert_eq!(spec.to_strategy().unwrap(), *strategy);
        }
    }

    #[test]
    fn paper_tuned_covers_all_combinations() {
        let sweep = sweep_strategies();
        for cluster in ["chti", "grillon", "grelon"] {
            for family in AppFamily::PAPER {
                let t = paper_tuned(family, cluster);
                assert!(t.maxdelta <= 1.0 && t.minrho > 0.0);
                // Every tuned comparison reads points of the sweep.
                assert!(t.strategies().iter().all(|s| sweep.contains(s)));
            }
        }
    }

    #[test]
    fn tune_family_returns_grid_values() {
        let t = sweep_tables(&mini_sweep(4)).tuned;
        assert!(MINDELTA_GRID.contains(&t.mindelta));
        assert!(MAXDELTA_GRID.contains(&t.maxdelta));
        assert!(MINRHO_GRID.contains(&t.minrho));
    }

    #[test]
    fn delta_grid_has_expected_shape() {
        let tables = sweep_tables(&mini_sweep(5));
        assert_eq!(tables.delta_grid.len(), MINDELTA_GRID.len());
        for row in &tables.delta_grid {
            assert_eq!(row.len(), MAXDELTA_GRID.len());
            for &v in row {
                assert!(v.is_finite() && v > 0.0);
            }
        }
        assert_eq!(tables.rho_with_packing.len(), MINRHO_GRID.len());
        assert_eq!(tables.rho_without_packing.len(), MINRHO_GRID.len());
    }

    #[test]
    fn lookups_ignore_result_order() {
        // The assemblies read by strategy value: a reversed result list
        // behind a value lookup yields the same tables as sweep order.
        let results = mini_sweep(6);
        let tables = sweep_tables(&results);
        let reversed: Vec<(MappingStrategy, &AlgoResults)> =
            sweep_strategies().into_iter().zip(&results).rev().collect();
        let runs = |s: MappingStrategy| {
            reversed
                .iter()
                .find(|(t, _)| *t == s)
                .map(|(_, r)| *r)
                .unwrap()
        };
        assert_eq!(delta_grid(&runs), tables.delta_grid);
        assert_eq!(rho_curve(false, &runs), tables.rho_without_packing);
        assert_eq!(tuned(&runs), tables.tuned);
    }
}
