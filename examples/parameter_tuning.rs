//! Tuning the RATS parameters for a custom workload — the paper's
//! section IV-C methodology on a user-supplied scenario population — and
//! running the tuned policy through the `Pipeline`.
//!
//! ```text
//! cargo run --release --example parameter_tuning
//! ```

use rats::daggen::suite::{AppFamily, Scenario};
use rats::experiments::campaign::{AlgoResults, PreparedScenario};
use rats::experiments::parallel_map;
use rats::experiments::tuning::{
    sweep_strategies, sweep_tables, MAXDELTA_GRID, MINDELTA_GRID, MINRHO_GRID,
};
use rats::prelude::*;

fn main() {
    // The workload to tune for: 12 irregular pipelines of 40 tasks.
    let cost = CostParams::paper();
    let scenarios: Vec<Scenario> = (0..12)
        .map(|i| Scenario {
            id: i,
            name: format!("pipeline-{i}"),
            family: AppFamily::Irregular,
            dag: rats::daggen::irregular_dag(
                &DagParams {
                    n: 40,
                    width: 0.4,
                    regularity: 0.7,
                    density: 0.3,
                    jump: 2,
                },
                &cost,
                9000 + i as u64,
            ),
        })
        .collect();

    let platform = Platform::from_spec(&ClusterSpec::grillon());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let prepared = PreparedScenario::prepare(scenarios, &platform, threads);
    // Every grid point on the shared step-one allocations, the HCPA
    // baseline first; the tables below are assembled from these results.
    let results: Vec<AlgoResults> = sweep_strategies()
        .into_iter()
        .map(|strategy| AlgoResults {
            name: strategy.name().to_string(),
            runs: parallel_map(&prepared, threads, |_, p| p.evaluate(&platform, strategy)),
        })
        .collect();
    let tables = sweep_tables(&results);

    // Figure 4 methodology: the (mindelta, maxdelta) surface.
    println!("delta surface (avg makespan relative to HCPA):");
    print!("{:>10}", "mindelta");
    for maxd in MAXDELTA_GRID {
        print!("  maxd={maxd:<5}");
    }
    println!();
    for (i, row) in tables.delta_grid.iter().enumerate() {
        print!("{:>10}", format!("-{}", MINDELTA_GRID[i]));
        for v in row {
            print!("{v:>11.3}");
        }
        println!();
    }

    // Figure 5 methodology: the minrho curve.
    println!("\nminrho curve (avg makespan relative to HCPA):");
    println!("{:>8} {:>10} {:>12}", "minrho", "packing", "no packing");
    for (i, rho) in MINRHO_GRID.iter().enumerate() {
        println!(
            "{rho:>8} {:>10.3} {:>12.3}",
            tables.rho_with_packing[i], tables.rho_without_packing[i]
        );
    }

    // The headline: the tuned triple for this workload.
    let tuned = tables.tuned;
    println!(
        "\ntuned parameters for this workload: (mindelta, maxdelta, minrho) = \
         (-{}, {}, {})",
        tuned.mindelta, tuned.maxdelta, tuned.minrho
    );

    // And the payoff, end to end through the Pipeline: tuned time-cost vs
    // the HCPA baseline on the first workload instance.
    let dag = &prepared[0].scenario.dag;
    let base = Pipeline::from_spec(&ClusterSpec::grillon())
        .seed(9000)
        .run(dag);
    let tuned_run = Pipeline::from_spec(&ClusterSpec::grillon())
        .policy(MappingStrategy::rats_time_cost(tuned.minrho, true))
        .seed(9000)
        .run(dag);
    println!(
        "\npipeline check on {}: {} {:.2} s vs {} {:.2} s",
        prepared[0].scenario.name,
        base.provenance.policy,
        base.makespan(),
        tuned_run.provenance.policy,
        tuned_run.makespan()
    );
}
