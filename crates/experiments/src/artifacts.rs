//! The paper's artifacts — Tables II–VI and Figures 2–7 — plus the
//! quality ablation, as `campaign paper <artifact>` prints them.
//!
//! Every computed artifact is a pure renderer over a [`SpecOutcome`]. It
//! declares the clusters and the [`sweep_strategies`] points it reads
//! ([`Artifact::spec`]); [`paper`] runs the smallest campaign covering the
//! request through [`ExperimentSpec::run`], the one job executor behind
//! sharded, dispatched and served campaigns, and the renderer looks the
//! results up by strategy value. `quick = true` swaps the
//! 557-configuration paper suite for the mini suite (smoke-test scale).

use std::fmt::Write as _;

use rats_daggen::suite::{self, AppFamily, Scenario};
use rats_model::CostParams;
use rats_platform::{ClusterSpec, Platform};
use rats_sched::MappingStrategy;

use crate::ablation;
use crate::campaign::{naive_strategies, AlgoResults, PreparedScenario, BASE_SEED};
use crate::figures;
use crate::spec::{ExperimentSpec, SpecOutcome, StrategySpec, SuiteSpec};
use crate::stats;
use crate::tuning::{self, paper_tuned, sweep_strategies};

/// The paper's clusters, in paper order.
const CLUSTERS: [&str; 3] = ["chti", "grillon", "grelon"];

/// The artifacts the full report prints, in paper order.
const REPORT: [Artifact; 9] = [
    Artifact::Table2,
    Artifact::Table3,
    Artifact::Fig2_3,
    Artifact::Fig4,
    Artifact::Fig5,
    Artifact::Table4,
    Artifact::Fig6_7,
    Artifact::Table5,
    Artifact::Table6,
];

/// The tuned comparison's algorithms, in [`tuning::TunedParams::strategies`]
/// order.
const TUNED_NAMES: [&str; 3] = ["HCPA", "delta", "time-cost"];

/// What `campaign paper` prints: one table or figure of the paper, the
/// full report (`all`), or the quality ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// Table II: cluster characteristics.
    Table2,
    /// Table III: DAG generation parameters and population counts.
    Table3,
    /// Figures 2 and 3: naive RATS vs HCPA on grillon.
    Fig2_3,
    /// Figure 4: the delta parameter surface, FFT DAGs on grillon.
    Fig4,
    /// Figure 5: the `minrho` curves, irregular DAGs on grillon.
    Fig5,
    /// Table IV: tuned parameters per family and cluster.
    Table4,
    /// Figures 6 and 7: tuned RATS vs HCPA on grillon.
    Fig6_7,
    /// Table V: pairwise comparison of the tuned algorithms.
    Table5,
    /// Table VI: average degradation from best.
    Table6,
    /// Tables V and VI together.
    Table5_6,
    /// Every table and figure, in paper order.
    All,
    /// The quality ablations (see [`ablation`]).
    Ablation,
}

impl Artifact {
    /// Every artifact under its command-line name.
    pub const NAMES: [(&'static str, Artifact); 12] = [
        ("table2", Artifact::Table2),
        ("table3", Artifact::Table3),
        ("fig2_3", Artifact::Fig2_3),
        ("fig4", Artifact::Fig4),
        ("fig5", Artifact::Fig5),
        ("table4", Artifact::Table4),
        ("fig6_7", Artifact::Fig6_7),
        ("table5", Artifact::Table5),
        ("table6", Artifact::Table6),
        ("table5_6", Artifact::Table5_6),
        ("all", Artifact::All),
        ("ablation", Artifact::Ablation),
    ];

    /// The artifact's command-line name.
    pub fn name(self) -> &'static str {
        Self::NAMES
            .iter()
            .find(|(_, a)| *a == self)
            .expect("every artifact is named")
            .0
    }

    /// Parses a command-line name (see [`Self::NAMES`]).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::NAMES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, a)| *a)
    }

    /// The clusters and strategies the artifact reads, or `None` when it
    /// renders without a campaign (Tables II and III; the ablation varies
    /// knobs a strategy spec cannot express and keeps its own evaluator).
    fn reads(self) -> Option<(Vec<&'static str>, Vec<MappingStrategy>)> {
        let hcpa = || vec![MappingStrategy::Hcpa];
        let tuned = |clusters: &[&str]| -> Vec<MappingStrategy> {
            clusters
                .iter()
                .flat_map(|&c| AppFamily::PAPER.map(|f| paper_tuned(f, c).strategies()))
                .flatten()
                .collect()
        };
        Some(match self {
            Artifact::Table2 | Artifact::Table3 | Artifact::Ablation => return None,
            Artifact::Fig2_3 => (vec!["grillon"], naive_strategies()),
            Artifact::Fig4 => (
                vec!["grillon"],
                [hcpa(), tuning::delta_strategies()].concat(),
            ),
            Artifact::Fig5 => (vec!["grillon"], [hcpa(), tuning::rho_strategies()].concat()),
            Artifact::Table4 => (
                CLUSTERS.to_vec(),
                [
                    hcpa(),
                    tuning::delta_strategies(),
                    tuning::rho_curve_strategies(true),
                ]
                .concat(),
            ),
            Artifact::Fig6_7 => (vec!["grillon"], tuned(&["grillon"])),
            Artifact::Table5 | Artifact::Table6 | Artifact::Table5_6 => {
                (CLUSTERS.to_vec(), tuned(&CLUSTERS))
            }
            Artifact::All => {
                let (clusters, strategies): (Vec<_>, Vec<_>) =
                    REPORT.iter().filter_map(|a| a.reads()).unzip();
                (clusters.concat(), strategies.concat())
            }
        })
    }

    /// The smallest campaign covering the artifact: the clusters it reads
    /// in paper order and the strategies it reads in [`sweep_strategies`]
    /// order, on the paper suite (or the mini suite when `quick`). `None`
    /// for artifacts that run no campaign.
    pub fn spec(self, quick: bool) -> Option<ExperimentSpec> {
        let (clusters, strategies) = self.reads()?;
        Some(ExperimentSpec {
            name: format!("paper-{}", self.name()),
            seed: BASE_SEED,
            suite: if quick {
                SuiteSpec::Mini
            } else {
                SuiteSpec::Paper
            },
            clusters: CLUSTERS
                .iter()
                .filter(|c| clusters.contains(c))
                .map(|c| c.to_string())
                .collect(),
            strategies: sweep_strategies()
                .into_iter()
                .filter(|s| strategies.contains(s))
                .map(StrategySpec::from_strategy)
                .collect(),
            threads: None,
            shard: None,
        })
    }

    /// Renders the artifact from the outcome of its [`Self::spec`] (or of
    /// any campaign covering it).
    ///
    /// # Panics
    ///
    /// Panics if a computed artifact gets no outcome.
    pub fn render(self, quick: bool, threads: usize, outcome: Option<&SpecOutcome>) -> String {
        let outcome = || outcome.expect("computed artifacts render from their campaign");
        match self {
            Artifact::Table2 => table2(),
            Artifact::Table3 => table3(quick),
            Artifact::Fig2_3 => fig2_3(outcome()),
            Artifact::Fig4 => fig4(outcome()),
            Artifact::Fig5 => fig5(outcome()),
            Artifact::Table4 => table4(outcome()),
            Artifact::Fig6_7 => fig6_7(outcome()),
            Artifact::Table5 => table5(outcome()),
            Artifact::Table6 => table6(outcome()),
            Artifact::Table5_6 => format!("{}\n{}\n", table5(outcome()), table6(outcome())),
            Artifact::All => REPORT
                .map(|a| a.render(quick, threads, Some(outcome())))
                .join("\n"),
            Artifact::Ablation => {
                let platform = Platform::from_spec(&ClusterSpec::grillon());
                let prepared = PreparedScenario::prepare(load_suite(quick), &platform, threads);
                ablation::run(&prepared, &platform, threads)
            }
        }
    }
}

/// Prints `artifact` at paper scale (or on the mini suite when `quick`):
/// runs the campaign [`Artifact::spec`] declares through
/// [`ExperimentSpec::run`] on `threads` workers and renders its outcome.
/// The ablation varies knobs a strategy spec cannot express and runs its
/// own evaluator instead.
pub fn paper(artifact: Artifact, quick: bool, threads: usize) -> String {
    let outcome = artifact.spec(quick).map(|mut spec| {
        spec.threads = Some(threads);
        spec.run().expect("the built-in paper specs are valid")
    });
    artifact.render(quick, threads, outcome.as_ref())
}

/// Loads the scenario suite (full paper population or mini).
pub fn load_suite(quick: bool) -> Vec<Scenario> {
    if quick {
        suite::mini_suite(&CostParams::paper(), BASE_SEED)
    } else {
        suite::paper_suite(&CostParams::paper(), BASE_SEED)
    }
}

/// One cluster's results in a campaign outcome, looked up by strategy
/// value and optionally restricted to one application family.
struct Selection {
    strategies: Vec<MappingStrategy>,
    results: Vec<AlgoResults>,
}

impl Selection {
    fn new(outcome: &SpecOutcome, cluster: &str, family: Option<AppFamily>) -> Self {
        let results = &outcome
            .clusters
            .iter()
            .find(|c| c.cluster == cluster)
            .unwrap_or_else(|| panic!("the campaign does not run on {cluster}"))
            .results;
        Self {
            strategies: outcome
                .spec
                .strategies
                .iter()
                .map(|s| s.to_strategy().expect("a campaign that ran is valid"))
                .collect(),
            results: results
                .iter()
                .map(|r| AlgoResults {
                    name: r.name.clone(),
                    runs: r
                        .runs
                        .iter()
                        .filter(|run| family.is_none_or(|f| run.family == f))
                        .copied()
                        .collect(),
                })
                .collect(),
        }
    }

    fn get(&self, strategy: MappingStrategy) -> &AlgoResults {
        let i = self
            .strategies
            .iter()
            .position(|&s| s == strategy)
            .unwrap_or_else(|| panic!("the campaign does not run {strategy:?}"));
        &self.results[i]
    }

    fn pick(&self, strategies: &[MappingStrategy]) -> Vec<AlgoResults> {
        strategies.iter().map(|&s| self.get(s).clone()).collect()
    }

    fn scenarios(&self) -> usize {
        self.results[0].runs.len()
    }

    /// The tuned comparison `[HCPA, delta, time-cost]`: every scenario
    /// with its family's paper-tuned parameters for `cluster`.
    fn tuned(&self, cluster: &str) -> Vec<AlgoResults> {
        (0..TUNED_NAMES.len())
            .map(|k| AlgoResults {
                name: TUNED_NAMES[k].to_string(),
                runs: (0..self.scenarios())
                    .map(|i| {
                        let family = self.results[0].runs[i].family;
                        self.get(paper_tuned(family, cluster).strategies()[k]).runs[i]
                    })
                    .collect(),
            })
            .collect()
    }
}

/// Table II: cluster characteristics.
pub fn table2() -> String {
    let mut out = String::from("# Table II — cluster characteristics\n");
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>12} {:>14}",
        "cluster", "#proc", "GFlop/s", "topology"
    );
    for spec in ClusterSpec::paper_clusters() {
        let topo = match spec.topology {
            rats_platform::TopologySpec::Flat => "flat".to_string(),
            rats_platform::TopologySpec::Hierarchical {
                cabinets,
                nodes_per_cabinet,
                ..
            } => format!("{cabinets}x{nodes_per_cabinet} cab"),
            rats_platform::TopologySpec::Star { .. } => "star".to_string(),
            rats_platform::TopologySpec::Bus { .. } => "bus".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>12.3} {:>14}",
            spec.name, spec.num_procs, spec.gflops, topo
        );
    }
    out
}

/// Table III: DAG generation parameters and realized population counts.
pub fn table3(quick: bool) -> String {
    let suite = load_suite(quick);
    let mut out = String::from("# Table III — random DAG generation parameters\n");
    out.push_str("#computation tasks : 25, 50, 100\n");
    out.push_str("non-parallelizable : [0.0, 0.25]\n");
    out.push_str("width              : 0.2, 0.5, 0.8\n");
    out.push_str("density            : 0.2, 0.8\n");
    out.push_str("regularity         : 0.2, 0.8\n");
    out.push_str("jump (irregular)   : 1, 2, 4\n");
    out.push_str("#samples           : 3 (random), 25 (FFT per k, Strassen)\n\n");
    let _ = writeln!(out, "realized population ({} configurations):", suite.len());
    for f in AppFamily::PAPER {
        let n = suite.iter().filter(|s| s.family == f).count();
        let tasks: usize = suite
            .iter()
            .filter(|s| s.family == f)
            .map(|s| s.dag.num_tasks())
            .sum();
        let _ = writeln!(
            out,
            "  {:<10} {:>4} DAGs, {:>6} tasks total",
            f.name(),
            n,
            tasks
        );
    }
    out
}

/// Figures 2 and 3: relative makespan and relative work of RATS (naive
/// parameters) vs HCPA on grillon.
fn fig2_3(outcome: &SpecOutcome) -> String {
    render_relative_pair(
        "Figure 2 — relative makespan (naive parameters, grillon)",
        "Figure 3 — relative work (naive parameters, grillon)",
        &Selection::new(outcome, "grillon", None).pick(&naive_strategies()),
    )
}

/// Figure 4, Figure 5 and the tuned triple from a completed tuning sweep
/// (results in [`tuning::sweep_strategies`] order, e.g. merged from
/// shards). A pure renderer over [`tuning::sweep_tables`].
pub fn render_sweep(cluster: &str, results: &[AlgoResults]) -> String {
    let tables = tuning::sweep_tables(results);
    let n = results.first().map_or(0, |r| r.runs.len());
    let mut out = figures::render_delta_grid(
        &format!("Figure 4 — avg relative makespan of delta vs (mindelta, maxdelta), {cluster} ({n} DAGs)"),
        &tables.delta_grid,
    );
    out.push('\n');
    out.push_str(&figures::render_rho_curves(
        &format!("Figure 5 — avg relative makespan of time-cost vs minrho, {cluster} ({n} DAGs)"),
        &tables.rho_with_packing,
        &tables.rho_without_packing,
    ));
    let t = tables.tuned;
    let _ = writeln!(
        out,
        "tuned (Table IV style): (-{}, {}, {})",
        t.mindelta, t.maxdelta, t.minrho
    );
    out
}

/// Renders the makespan + work relative-series pair shared by Figures 2/3
/// and 6/7. `results[0]` must be the baseline. A **pure renderer**: the
/// results may come from an in-process campaign or from merged shard
/// records (`campaign merge --figures`) — the output is identical.
pub fn render_relative_pair(
    title_makespan: &str,
    title_work: &str,
    results: &[AlgoResults],
) -> String {
    let base_m = results[0].makespans();
    let base_w = results[0].works();
    let labels: Vec<&str> = results[1..].iter().map(|r| r.name.as_str()).collect();

    let rel_m: Vec<Vec<f64>> = results[1..]
        .iter()
        .map(|r| stats::relative(&r.makespans(), &base_m))
        .collect();
    let rel_w: Vec<Vec<f64>> = results[1..]
        .iter()
        .map(|r| stats::relative(&r.works(), &base_w))
        .collect();

    let mut out = String::new();
    let sorted_m: Vec<Vec<f64>> = rel_m
        .iter()
        .map(|v| stats::sorted_ascending(v.clone()))
        .collect();
    out.push_str(&figures::render_relative_series(
        title_makespan,
        &labels,
        &sorted_m,
        21,
    ));
    for (label, rel) in labels.iter().zip(&rel_m) {
        let _ = writeln!(
            out,
            "{}",
            figures::render_summary(label, stats::summarize(rel))
        );
    }
    for (label, algo) in labels.iter().zip(&results[1..]) {
        let by = stats::summarize_by_family(&algo.runs, &results[0].runs);
        let cells: Vec<String> = by
            .iter()
            .map(|(f, s)| format!("{} {:.3}", f.name(), s.mean_ratio))
            .collect();
        let _ = writeln!(out, "{label} by family: {}", cells.join(", "));
    }
    out.push('\n');
    let sorted_w: Vec<Vec<f64>> = rel_w
        .iter()
        .map(|v| stats::sorted_ascending(v.clone()))
        .collect();
    out.push_str(&figures::render_relative_series(
        title_work, &labels, &sorted_w, 21,
    ));
    for (label, rel) in labels.iter().zip(&rel_w) {
        let _ = writeln!(
            out,
            "{}",
            figures::render_summary(label, stats::summarize(rel))
        );
    }
    out
}

/// Figure 4: delta-strategy parameter surface for FFT DAGs on grillon.
fn fig4(outcome: &SpecOutcome) -> String {
    let fft = Selection::new(outcome, "grillon", Some(AppFamily::Fft));
    figures::render_delta_grid(
        &format!(
            "Figure 4 — avg relative makespan of delta vs (mindelta, maxdelta), \
             FFT on grillon ({} DAGs)",
            fft.scenarios()
        ),
        &tuning::delta_grid(&|s| fft.get(s)),
    )
}

/// Figure 5: time-cost `minrho` curves (packing on/off) for irregular DAGs
/// on grillon.
fn fig5(outcome: &SpecOutcome) -> String {
    let irregular = Selection::new(outcome, "grillon", Some(AppFamily::Irregular));
    let runs = |s| irregular.get(s);
    figures::render_rho_curves(
        &format!(
            "Figure 5 — avg relative makespan of time-cost vs minrho, \
             irregular DAGs on grillon ({} DAGs)",
            irregular.scenarios()
        ),
        &tuning::rho_curve(true, &runs),
        &tuning::rho_curve(false, &runs),
    )
}

/// Table IV: tuned parameters per application family and cluster,
/// recomputed from the Figure 4/5 grids.
fn table4(outcome: &SpecOutcome) -> String {
    let mut out =
        String::from("# Table IV — tuned (mindelta, maxdelta, minrho) per family and cluster\n");
    let _ = write!(out, "{:<10}", "cluster");
    for f in AppFamily::PAPER {
        let _ = write!(out, "{:>22}", f.name());
    }
    out.push('\n');
    for cluster in &outcome.spec.clusters {
        let _ = write!(out, "{cluster:<10}");
        for family in AppFamily::PAPER {
            let fam = Selection::new(outcome, cluster, Some(family));
            if fam.scenarios() == 0 {
                let _ = write!(out, "{:>22}", "-");
                continue;
            }
            let t = tuning::tuned(&|s| fam.get(s));
            let _ = write!(
                out,
                "{:>22}",
                format!("(-{}, {}, {})", t.mindelta, t.maxdelta, t.minrho)
            );
        }
        out.push('\n');
    }
    out
}

/// Figures 6 and 7: the Figure 2/3 comparison with tuned parameters.
fn fig6_7(outcome: &SpecOutcome) -> String {
    render_relative_pair(
        "Figure 6 — relative makespan (tuned parameters, grillon)",
        "Figure 7 — relative work (tuned parameters, grillon)",
        &Selection::new(outcome, "grillon", None).tuned("grillon"),
    )
}

/// The tuned comparison's makespans on every cluster of the campaign, as
/// `makespans[cluster][algo][scenario]`.
fn tuned_makespans(outcome: &SpecOutcome) -> Vec<Vec<Vec<f64>>> {
    outcome
        .spec
        .clusters
        .iter()
        .map(|c| {
            Selection::new(outcome, c, None)
                .tuned(c)
                .iter()
                .map(AlgoResults::makespans)
                .collect()
        })
        .collect()
}

/// Table V: pairwise better/equal/worse counts of the tuned algorithms on
/// the three clusters.
fn table5(outcome: &SpecOutcome) -> String {
    let names = TUNED_NAMES;
    let makespans = tuned_makespans(outcome);
    let mut t5 = String::from(
        "# Table V — pairwise better/equal/worse counts (tuned), chti / grillon / grelon\n",
    );
    for (ai, a) in names.iter().enumerate() {
        let columns: Vec<&str> = names
            .iter()
            .enumerate()
            .filter(|(bi, _)| *bi != ai)
            .map(|(_, n)| *n)
            .collect();
        let counts: Vec<[stats::PairwiseCount; 3]> = names
            .iter()
            .enumerate()
            .filter(|(bi, _)| *bi != ai)
            .map(|(bi, _)| {
                std::array::from_fn(|cl| stats::pairwise(&makespans[cl][ai], &makespans[cl][bi]))
            })
            .collect();
        let combined: [stats::PairwiseCount; 3] = std::array::from_fn(|cl| {
            let others: Vec<&[f64]> = (0..names.len())
                .filter(|&bi| bi != ai)
                .map(|bi| makespans[cl][bi].as_slice())
                .collect();
            stats::pairwise_combined(&makespans[cl][ai], &others)
        });
        t5.push_str(&figures::render_pairwise_block(
            a, &columns, &counts, &combined,
        ));
        t5.push('\n');
    }
    t5
}

/// Table VI: average degradation from best of the tuned algorithms, per
/// cluster.
fn table6(outcome: &SpecOutcome) -> String {
    let mut t6 = String::from("# Table VI — average degradation from best (tuned)\n");
    for (cluster, makespans) in outcome.spec.clusters.iter().zip(tuned_makespans(outcome)) {
        let deg = stats::degradation_from_best(&makespans);
        t6.push_str(&figures::render_degradation(cluster, &TUNED_NAMES, &deg));
    }
    t6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lists_all_clusters() {
        let t = table2();
        for c in ["chti", "grillon", "grelon"] {
            assert!(t.contains(c));
        }
    }

    #[test]
    fn table3_quick_counts_families() {
        let t = table3(true);
        for f in ["FFT", "Strassen", "Layered", "Random"] {
            assert!(t.contains(f), "missing {f} in:\n{t}");
        }
    }

    #[test]
    fn fig2_3_quick_produces_both_figures() {
        let s = paper(Artifact::Fig2_3, true, 2);
        assert!(s.contains("Figure 2"));
        assert!(s.contains("Figure 3"));
        assert!(s.contains("delta"));
        assert!(s.contains("time-cost"));
    }

    #[test]
    fn tuned_pipeline_quick_smoke() {
        let s = paper(Artifact::Table5_6, true, 2);
        assert!(s.contains("HCPA"));
        assert!(s.contains("# not best"));
    }

    #[test]
    fn artifact_names_round_trip() {
        for (name, a) in Artifact::NAMES {
            assert_eq!(a.name(), name);
            assert_eq!(Artifact::from_name(name), Some(a));
        }
        assert_eq!(Artifact::from_name("table7"), None);
    }
}
