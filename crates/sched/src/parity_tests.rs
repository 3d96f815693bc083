//! Engine parity: the incremental mapping engine must produce
//! **byte-identical** schedules to the retained naive reference driver
//! (`reference.rs`) — same entries, same processor rank orders, same
//! bit-level start/finish estimates, same placement order — for every
//! shipped policy, on the paper's scenario suite and on random DAG /
//! platform pairs.

use proptest::prelude::*;

use rats_dag::TaskGraph;
use rats_daggen::suite::mini_suite;
use rats_daggen::{fft_dag, irregular_dag, layered_dag, scenario_seed, strassen_dag, DagParams};
use rats_model::CostParams;
use rats_platform::{ClusterSpec, Platform};

use crate::allocation::{allocate, AllocParams};
use crate::mapping::Scheduler;
use crate::strategy::{CandidatePolicy, MappingStrategy};

/// Every shipped policy, pack/stretch parameters chosen to exercise all
/// adoption branches.
fn all_policies() -> Vec<MappingStrategy> {
    vec![
        MappingStrategy::Hcpa,
        MappingStrategy::rats_delta(0.5, 0.5),
        MappingStrategy::rats_delta(0.75, 1.0),
        MappingStrategy::rats_time_cost(0.5, true),
        MappingStrategy::rats_time_cost(0.8, false),
        MappingStrategy::rats_combined(0.5, 1.0, 0.4),
    ]
}

/// Asserts bit-for-bit schedule equality (entries, rank orders, estimate
/// bits, placement order).
fn assert_identical(label: &str, incremental: &crate::Schedule, reference: &crate::Schedule) {
    assert_eq!(
        incremental.order, reference.order,
        "{label}: placement order diverged"
    );
    assert_eq!(
        incremental.entries.len(),
        reference.entries.len(),
        "{label}: entry count diverged"
    );
    for (a, b) in incremental.entries.iter().zip(&reference.entries) {
        assert_eq!(a.task, b.task, "{label}: task order diverged");
        assert_eq!(
            a.procs.as_slice(),
            b.procs.as_slice(),
            "{label}: {} mapped on different ordered sets",
            a.task
        );
        assert_eq!(
            a.est_start.to_bits(),
            b.est_start.to_bits(),
            "{label}: {} start {} != {}",
            a.task,
            a.est_start,
            b.est_start
        );
        assert_eq!(
            a.est_finish.to_bits(),
            b.est_finish.to_bits(),
            "{label}: {} finish {} != {}",
            a.task,
            a.est_finish,
            b.est_finish
        );
    }
    assert_eq!(
        incremental.makespan_estimate().to_bits(),
        reference.makespan_estimate().to_bits(),
        "{label}: makespan diverged"
    );
}

fn check_parity(dag: &TaskGraph, platform: &Platform, label: &str) {
    let alloc = allocate(dag, platform, AllocParams::default());
    for strategy in all_policies() {
        for candidates in [CandidatePolicy::EarliestK, CandidatePolicy::ParentAware] {
            let scheduler = Scheduler::new(platform)
                .strategy(strategy)
                .candidate_policy(candidates);
            let incremental = scheduler.schedule_with_allocation(dag, &alloc);
            let reference = scheduler.reference_schedule_with_allocation(dag, &alloc);
            assert_identical(
                &format!("{label}/{}/{candidates:?}", strategy.name()),
                &incremental,
                &reference,
            );
        }
    }
}

#[test]
fn paper_suite_parity_on_all_clusters() {
    for spec in [
        ClusterSpec::chti(),
        ClusterSpec::grillon(),
        ClusterSpec::grelon(),
    ] {
        let platform = Platform::from_spec(&spec);
        for scenario in mini_suite(&CostParams::paper(), 17) {
            check_parity(
                &scenario.dag,
                &platform,
                &format!("{}/{}", platform.name(), scenario.name),
            );
        }
    }
}

#[test]
fn structured_families_parity() {
    let platform = Platform::from_spec(&ClusterSpec::grillon());
    for (name, dag) in [
        ("fft16", fft_dag(16, &CostParams::paper(), 5)),
        ("strassen", strassen_dag(&CostParams::paper(), 6)),
        (
            "layered",
            layered_dag(
                &DagParams::layered(60, 0.5, 0.6, 0.6),
                &CostParams::paper(),
                7,
            ),
        ),
    ] {
        check_parity(&dag, &platform, name);
    }
}

#[test]
fn parity_holds_with_telemetry_spans_active() {
    // Telemetry is observational only: with wall-time capture enabled
    // process-wide (spans recording, tallies flushing), every policy must
    // still match the reference engine bit for bit. The flag is global;
    // other tests in this process are unaffected because metrics are never
    // read back by the engine.
    rats_telemetry::set_enabled(true);
    let platform = Platform::from_spec(&ClusterSpec::grillon());
    for (name, dag) in [
        ("telemetry/fft16", fft_dag(16, &CostParams::paper(), 5)),
        (
            "telemetry/layered",
            layered_dag(
                &DagParams::layered(120, 0.5, 0.6, 0.6),
                &CostParams::paper(),
                11,
            ),
        ),
    ] {
        check_parity(&dag, &platform, name);
    }
    rats_telemetry::set_enabled(false);
    // And the run actually recorded: placements flushed into the tally,
    // and `allocate` timed itself and counted its grants.
    assert!(crate::telemetry::TASKS.get() > 0);
    assert!(crate::telemetry::MAP_SECONDS.count() > 0);
    assert!(crate::telemetry::ALLOC_SECONDS.count() > 0);
    assert!(crate::telemetry::ALLOC_STEPS.get() > 0);
}

#[test]
fn parity_on_platforms_spanning_procset_tiers() {
    // 64/65/256/257 processors put the largest processor id at
    // 63/64/255/256 — exactly straddling the ProcSet mask tiers (single
    // word `< 64`, four-word array `< 256`, spilled beyond). Every policy
    // must agree with the reference on all three representations.
    let params = DagParams {
        n: 90,
        width: 0.5,
        regularity: 0.5,
        density: 0.5,
        jump: 2,
    };
    for procs in [64u32, 65, 256, 257] {
        let platform = Platform::from_spec(&ClusterSpec::flat(format!("flat{procs}"), procs, 2.0));
        let dag = irregular_dag(&params, &CostParams::paper(), 0xD00D + u64::from(procs));
        check_parity(&dag, &platform, &format!("procset-tier(p={procs})"));
    }
}

#[test]
fn default_scheduler_prunes_parent_aware_candidates_with_bound_scalars() {
    // `Scheduler::new` defaults to HCPA, which estimates only the default
    // placement; its parent-aware candidate blocks are min-reduced through
    // the bound scalars' finish lower bounds, and must match the reference
    // bit for bit.
    let platform = Platform::from_spec(&ClusterSpec::grillon());
    let params = DagParams {
        n: 200,
        width: 0.5,
        regularity: 0.5,
        density: 0.5,
        jump: 2,
    };
    let dag = irregular_dag(&params, &CostParams::paper(), 18);
    let scheduler = Scheduler::new(&platform).candidate_policy(CandidatePolicy::ParentAware);
    assert_identical(
        "default/ParentAware",
        &scheduler.schedule(&dag),
        &scheduler.reference_schedule(&dag),
    );
}

#[test]
fn large_dag_sweep_parity() {
    // The irregular n=2000 DAG of the large-DAG sweep's first DAG set, on
    // grillon: the scale where the closed-form one-to-one arrivals and the
    // bound arena filter act on most estimates.
    let params = DagParams {
        n: 2000,
        width: 0.5,
        regularity: 0.5,
        density: 0.5,
        jump: 2,
    };
    let dag = irregular_dag(&params, &CostParams::paper(), scenario_seed(0x5eed_0000, 0));
    let platform = Platform::from_spec(&ClusterSpec::grillon());
    let alloc = allocate(&dag, &platform, AllocParams::default());
    for strategy in [
        MappingStrategy::Hcpa,
        MappingStrategy::rats_delta(0.5, 0.5),
        MappingStrategy::rats_time_cost(0.5, true),
    ] {
        let scheduler = Scheduler::new(&platform).strategy(strategy);
        assert_identical(
            &format!("large-dag/{}", strategy.name()),
            &scheduler.schedule_with_allocation(&dag, &alloc),
            &scheduler.reference_schedule_with_allocation(&dag, &alloc),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random DAG shapes × random platforms: the engines never diverge.
    #[test]
    fn random_dag_platform_parity(
        n in 10u32..70,
        width in 1u32..10,
        density in 0u32..10,
        jump in 1u32..4,
        seed in 0u64..10_000,
        cluster in 0u32..3,
    ) {
        let params = DagParams {
            n,
            width: f64::from(width) / 10.0,
            regularity: 0.5,
            density: f64::from(density) / 10.0,
            jump,
        };
        let dag = irregular_dag(&params, &CostParams::paper(), seed);
        let spec = match cluster {
            0 => ClusterSpec::chti(),
            1 => ClusterSpec::grillon(),
            _ => ClusterSpec::grelon(),
        };
        let platform = Platform::from_spec(&spec);
        check_parity(&dag, &platform, &format!("random(n={n},seed={seed})"));
    }
}
