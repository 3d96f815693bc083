//! Simulator metrics: wall time per [`simulate`](crate::simulate) call,
//! work counters (events, max-min solves, filling rounds, rounds resumed
//! from the previous solve, flows solved, transfer steps) and the campaign
//! jobs that shared another job's simulation.
//!
//! Everything is observational: the simulator never reads a metric back,
//! and the golden digest holds with telemetry enabled. The event loop does
//! not touch atomics — events are tallied in a local and the max-min work
//! in the network's own [`NetStats`], flushed once per call.

use rats_simnet::NetStats;
use rats_telemetry::{Counter, Histogram, Metric, TIME_BUCKETS};

/// Wall time of one `simulate` call.
pub static SIMULATE_SECONDS: Histogram = Histogram::new(
    "rats_sim_simulate_seconds",
    "Wall time per simulate call (one schedule replayed through the fluid network).",
    TIME_BUCKETS,
);

/// Simulation events processed.
pub static EVENTS: Counter = Counter::new(
    "rats_sim_events_total",
    "Event times the simulator advanced to (task finishes and network events).",
);

/// Max-min solves.
pub static SOLVES: Counter = Counter::new(
    "rats_sim_maxmin_solves_total",
    "Max-min fair-share solves (one per change of the transferring flow set).",
);

/// Progressive-filling rounds.
pub static ROUNDS: Counter = Counter::new(
    "rats_sim_maxmin_rounds_total",
    "Progressive-filling rounds across all max-min solves.",
);

/// Progressive-filling rounds resumed.
pub static ROUNDS_RESUMED: Counter = Counter::new(
    "rats_sim_maxmin_rounds_resumed_total",
    "Progressive-filling rounds that max-min solves took from their replay of the previous solve instead of filling them (counted in rats_sim_maxmin_rounds_total too).",
);

/// Flows solved.
pub static FLOWS: Counter = Counter::new(
    "rats_sim_maxmin_flows_total",
    "Flows rated by max-min solves (a flow counts once per solve it is in).",
);

/// Transfer steps.
pub static FLOW_STEPS: Counter = Counter::new(
    "rats_sim_flow_steps_total",
    "Transferring flows the network's advances walked (each progressed and tested for completion); divided by rats_sim_events_total, the flows per event.",
);

/// Simulations shared between jobs.
pub static SHARED: Counter = Counter::new(
    "rats_sim_shared_total",
    "Campaign jobs that took the outcome of an identical schedule simulated earlier for the same cluster and scenario instead of simulating (not counted in rats_sim_simulate_seconds).",
);

/// Every metric this crate exports, for registry registration.
pub static METRICS: &[Metric] = &[
    Metric::Histogram(&SIMULATE_SECONDS),
    Metric::Counter(&EVENTS),
    Metric::Counter(&SOLVES),
    Metric::Counter(&ROUNDS),
    Metric::Counter(&ROUNDS_RESUMED),
    Metric::Counter(&FLOWS),
    Metric::Counter(&FLOW_STEPS),
    Metric::Counter(&SHARED),
];

/// Publishes one `simulate` call's tally into the global counters.
pub(crate) fn flush(events: u64, net: NetStats) {
    EVENTS.add(events);
    SOLVES.add(net.solves);
    ROUNDS.add(net.rounds);
    ROUNDS_RESUMED.add(net.resumed);
    FLOWS.add(net.flows);
    FLOW_STEPS.add(net.steps);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rats_daggen::fft_dag;
    use rats_model::CostParams;
    use rats_platform::{ClusterSpec, Platform};
    use rats_sched::Scheduler;

    /// The FFT's butterfly stages redistribute between many processor
    /// pairs at once, so its solves resume past rounds of the solve before.
    #[test]
    fn simulate_bumps_every_metric() {
        rats_telemetry::set_enabled(true);
        let dag = fft_dag(8, &CostParams::paper(), 7);
        let p = Platform::from_spec(&ClusterSpec::grillon());
        let sched = Scheduler::new(&p).schedule(&dag);
        // Other tests may simulate concurrently: counters only grow, so
        // each must have grown past its value before this call.
        let counters = [
            &EVENTS,
            &SOLVES,
            &ROUNDS,
            &ROUNDS_RESUMED,
            &FLOWS,
            &FLOW_STEPS,
        ];
        let before: Vec<u64> = counters.iter().map(|c| c.get()).collect();
        let runs = SIMULATE_SECONDS.count();
        crate::simulate(&dag, &sched, &p);
        for (c, b) in counters.iter().zip(before) {
            assert!(c.get() > b, "{} did not move", c.name());
        }
        assert!(SIMULATE_SECONDS.count() > runs);
    }
}
