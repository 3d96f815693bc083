//! Seeded, scaled-down checks of the paper's headline claims.
//!
//! These are *shape* assertions (who wins, in which direction), not
//! absolute-number reproductions: the full 557-configuration campaign runs
//! with `campaign paper all` (the `campaign` binary of `rats-server`).

use rats::daggen::{fft_dag, irregular_dag, layered_dag, strassen_dag, DagParams};
use rats::prelude::*;
use rats::sched::allocate;

/// A small but diverse workload population (deterministic).
fn workload() -> Vec<rats::dag::TaskGraph> {
    let cost = CostParams::paper();
    let mut dags = Vec::new();
    for k in [4u32, 8, 16] {
        dags.push(fft_dag(k, &cost, 100 + u64::from(k)));
    }
    for s in 0..3 {
        dags.push(strassen_dag(&cost, 200 + s));
    }
    for (i, w) in [0.2, 0.5, 0.8].into_iter().enumerate() {
        dags.push(layered_dag(
            &DagParams::layered(25, w, 0.8, 0.5),
            &cost,
            300 + i as u64,
        ));
        dags.push(irregular_dag(
            &DagParams {
                n: 25,
                width: w,
                regularity: 0.8,
                density: 0.5,
                jump: 2,
            },
            &cost,
            400 + i as u64,
        ));
    }
    dags
}

fn simulated_makespans(strategy: MappingStrategy) -> Vec<f64> {
    let platform = Platform::from_spec(&ClusterSpec::grillon());
    workload()
        .iter()
        .map(|dag| {
            let alloc = allocate(dag, &platform, Default::default());
            let schedule = Scheduler::new(&platform)
                .strategy(strategy)
                .schedule_with_allocation(dag, &alloc);
            simulate(dag, &schedule, &platform).makespan
        })
        .collect()
}

#[test]
fn time_cost_beats_hcpa_on_average() {
    let hcpa = simulated_makespans(MappingStrategy::Hcpa);
    let tc = simulated_makespans(MappingStrategy::rats_time_cost(0.5, true));
    let mean_ratio: f64 = tc.iter().zip(&hcpa).map(|(t, h)| t / h).sum::<f64>() / hcpa.len() as f64;
    assert!(
        mean_ratio < 1.0,
        "time-cost must shorten schedules on average (got {mean_ratio:.3})"
    );
}

#[test]
fn time_cost_wins_a_majority_of_scenarios() {
    let hcpa = simulated_makespans(MappingStrategy::Hcpa);
    let tc = simulated_makespans(MappingStrategy::rats_time_cost(0.5, true));
    let wins = tc.iter().zip(&hcpa).filter(|(t, h)| *t < *h).count();
    assert!(
        wins * 2 > hcpa.len(),
        "time-cost won only {wins}/{} scenarios",
        hcpa.len()
    );
}

#[test]
fn ranking_time_cost_then_delta_then_hcpa() {
    // The paper's Table V ranking, by mean relative makespan.
    let hcpa = simulated_makespans(MappingStrategy::Hcpa);
    let delta = simulated_makespans(MappingStrategy::rats_delta(0.5, 0.5));
    let tc = simulated_makespans(MappingStrategy::rats_time_cost(0.5, true));
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (mh, md, mt) = (mean(&hcpa), mean(&delta), mean(&tc));
    assert!(
        mt < mh,
        "time-cost ({mt:.1}) must beat HCPA ({mh:.1}) on average"
    );
    assert!(
        mt <= md,
        "time-cost ({mt:.1}) must not lose to delta ({md:.1}) on average"
    );
}

#[test]
fn delta_consumes_least_work() {
    // Figure 3/7: the delta strategy is the most frugal in total work.
    let platform = Platform::from_spec(&ClusterSpec::grillon());
    let mut total = [0.0f64; 3];
    for dag in workload() {
        let alloc = allocate(&dag, &platform, Default::default());
        for (i, strategy) in [
            MappingStrategy::Hcpa,
            MappingStrategy::rats_delta(0.5, 0.5),
            MappingStrategy::rats_time_cost(0.5, true),
        ]
        .into_iter()
        .enumerate()
        {
            let schedule = Scheduler::new(&platform)
                .strategy(strategy)
                .schedule_with_allocation(&dag, &alloc);
            total[i] += schedule.total_work(&dag, &platform);
        }
    }
    assert!(
        total[1] <= total[2],
        "delta work ({:.0}) must not exceed time-cost work ({:.0})",
        total[1],
        total[2]
    );
}

#[test]
fn adopting_strategies_avoid_network_bytes() {
    // The whole point of RATS: fewer bytes cross the network.
    let platform = Platform::from_spec(&ClusterSpec::grillon());
    let mut bytes = [0.0f64; 2];
    for dag in workload() {
        let alloc = allocate(&dag, &platform, Default::default());
        for (i, strategy) in [
            MappingStrategy::Hcpa,
            MappingStrategy::rats_time_cost(0.5, true),
        ]
        .into_iter()
        .enumerate()
        {
            let schedule = Scheduler::new(&platform)
                .strategy(strategy)
                .schedule_with_allocation(&dag, &alloc);
            bytes[i] += simulate(&dag, &schedule, &platform).network_bytes;
        }
    }
    assert!(
        bytes[1] < bytes[0],
        "time-cost must move fewer bytes ({:.3e} vs HCPA {:.3e})",
        bytes[1],
        bytes[0]
    );
}
