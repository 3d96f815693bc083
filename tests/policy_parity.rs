//! Parity between the `Pipeline` façade and a hand-wired `Scheduler` +
//! `simulate` chain: for every `MappingStrategy` variant, both must produce
//! **byte-identical** schedules and makespans.

use rats::prelude::*;
use rats::sched::MappingStrategy;

/// Strategies covering every variant.
fn strategies() -> [MappingStrategy; 6] {
    [
        MappingStrategy::Hcpa,
        MappingStrategy::rats_delta(0.5, 0.5),
        MappingStrategy::rats_delta(-0.75, 1.0),
        MappingStrategy::rats_time_cost(0.5, true),
        MappingStrategy::rats_time_cost(0.2, false),
        MappingStrategy::rats_combined(0.5, 1.0, 0.4),
    ]
}

fn assert_identical(a: &Schedule, b: &Schedule, context: &str) {
    assert_eq!(a.entries.len(), b.entries.len(), "{context}: entry count");
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert_eq!(x.task, y.task, "{context}: task order");
        assert_eq!(x.procs, y.procs, "{context}: processor sets");
        assert_eq!(
            x.est_start.to_bits(),
            y.est_start.to_bits(),
            "{context}: start bits"
        );
        assert_eq!(
            x.est_finish.to_bits(),
            y.est_finish.to_bits(),
            "{context}: finish bits"
        );
    }
    assert_eq!(a.order, b.order, "{context}: mapping order");
}

#[test]
fn pipeline_matches_scheduler_for_every_variant() {
    let spec = ClusterSpec::chti();
    let platform = Platform::from_spec(&spec);
    let dag = fft_dag(8, &CostParams::paper(), 23);
    for strategy in strategies() {
        let via_scheduler = Scheduler::new(&platform).strategy(strategy).schedule(&dag);
        let run = Pipeline::from_spec(&spec).policy(strategy).run(&dag);
        assert_identical(&via_scheduler, &run.schedule, strategy.name());
        let direct = simulate(&dag, &via_scheduler, &platform);
        assert_eq!(run.makespan().to_bits(), direct.makespan.to_bits());
    }
}
