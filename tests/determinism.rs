//! Bit-for-bit reproducibility of the entire pipeline.

use rats::daggen::suite::{mini_suite, paper_suite};
use rats::experiments::spec::{ExperimentSpec, SuiteSpec};
use rats::prelude::*;

#[test]
fn suite_generation_is_stable_across_calls() {
    let a = mini_suite(&CostParams::tiny(), 7);
    let b = mini_suite(&CostParams::tiny(), 7);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.dag.num_tasks(), y.dag.num_tasks());
        assert_eq!(x.dag.num_edges(), y.dag.num_edges());
        for (ta, tb) in x.dag.task_ids().zip(y.dag.task_ids()) {
            assert_eq!(x.dag.task(ta).cost, y.dag.task(tb).cost);
        }
    }
}

#[test]
fn paper_suite_population_is_exactly_557() {
    // Generating the full population is cheap (no scheduling); its size and
    // family split are part of the paper's experimental identity.
    let suite = paper_suite(&CostParams::tiny(), 42);
    assert_eq!(suite.len(), 557);
}

#[test]
fn campaign_results_are_thread_count_independent() {
    let mut spec = ExperimentSpec::naive("threads", "chti", SuiteSpec::Mini, 3);
    spec.threads = Some(1);
    let seq = spec.run().unwrap();
    spec.threads = Some(4);
    let par = spec.run().unwrap();
    for (a, b) in seq.clusters[0].results.iter().zip(&par.clusters[0].results) {
        assert_eq!(a.name, b.name);
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.makespan.to_bits(), y.makespan.to_bits());
            assert_eq!(x.work.to_bits(), y.work.to_bits());
        }
    }
}

#[test]
fn schedule_and_simulation_are_pure_functions() {
    let platform = Platform::from_spec(&ClusterSpec::grillon());
    let dag = fft_dag(8, &CostParams::tiny(), 77);
    let strategy = MappingStrategy::rats_time_cost(0.5, true);
    let s1 = Scheduler::new(&platform).strategy(strategy).schedule(&dag);
    let s2 = Scheduler::new(&platform).strategy(strategy).schedule(&dag);
    assert_eq!(
        s1.makespan_estimate().to_bits(),
        s2.makespan_estimate().to_bits()
    );
    let o1 = simulate(&dag, &s1, &platform);
    let o2 = simulate(&dag, &s2, &platform);
    assert_eq!(o1.makespan.to_bits(), o2.makespan.to_bits());
    assert_eq!(o1.task_start, o2.task_start);
}
