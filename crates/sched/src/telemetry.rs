//! Mapping-engine metrics: phase histograms (step-one allocation, whole
//! mapping runs, ready-list rounds) and work counters (processors granted
//! by step one, estimates evaluated vs. pruned, `data_ready` memo and
//! [`rats_redist::RedistCache`] hit rates, [`ArgminTree`](crate::mapping)
//! updates).
//!
//! Everything is observational: the engine never reads a metric back, and
//! the parity suite pins byte-identical schedules with telemetry enabled.
//! The hot loop does not touch atomics — per-run tallies accumulate in
//! plain [`Cell`]s on the mapper ([`RunTally`]) and flush into the global
//! counters once per mapping run.

use std::cell::Cell;

use rats_telemetry::{Counter, Histogram, Metric, TIME_BUCKETS};

/// Step-one (CPA/HCPA) allocation wall time, one observation per
/// [`allocate`](crate::allocate) call.
pub static ALLOC_SECONDS: Histogram = Histogram::new(
    "rats_mapping_alloc_seconds",
    "Step-one (CPA/HCPA) allocation wall time per allocate call.",
    TIME_BUCKETS,
);

/// Processors granted by the step-one loop, added once per
/// [`allocate`](crate::allocate) call.
pub static ALLOC_STEPS: Counter = Counter::new(
    "rats_mapping_alloc_steps_total",
    "Processors granted by the step-one (CPA/HCPA) allocation loop.",
);

/// Whole mapping-step wall time, one observation per run.
pub static MAP_SECONDS: Histogram = Histogram::new(
    "rats_mapping_map_seconds",
    "Mapping-step wall time per scheduling run (all ready-list rounds).",
    TIME_BUCKETS,
);

/// Per-round wall time of the ready-list drain loop.
pub static ROUND_SECONDS: Histogram = Histogram::new(
    "rats_mapping_round_seconds",
    "Ready-list round wall time in the incremental mapping driver.",
    TIME_BUCKETS,
);

/// Completed mapping runs.
pub static RUNS: Counter = Counter::new(
    "rats_mapping_runs_total",
    "Mapping runs completed by the incremental driver.",
);

/// Ready-list rounds drained.
pub static ROUNDS: Counter = Counter::new(
    "rats_mapping_rounds_total",
    "Ready-list rounds drained across all mapping runs.",
);

/// Tasks placed.
pub static TASKS: Counter = Counter::new(
    "rats_mapping_tasks_total",
    "Tasks placed across all mapping runs.",
);

/// Exact candidate estimates evaluated.
pub static ESTIMATES: Counter = Counter::new(
    "rats_mapping_estimates_total",
    "Exact candidate (start, finish) estimates evaluated.",
);

/// Candidate estimates skipped by sound pruning.
pub static ESTIMATES_PRUNED: Counter = Counter::new(
    "rats_mapping_estimates_pruned_total",
    "Candidate estimates skipped by sound finish lower bounds or duplicate-set detection.",
);

/// `data_ready` memo hits.
pub static MEMO_HITS: Counter = Counter::new(
    "rats_mapping_data_ready_memo_hits_total",
    "data_ready evaluations answered from the per-task candidate-set memo.",
);

/// `data_ready` memo misses.
pub static MEMO_MISSES: Counter = Counter::new(
    "rats_mapping_data_ready_memo_misses_total",
    "data_ready evaluations that had to walk predecessor arrivals.",
);

/// Redistribution cache hits.
pub static REDIST_HITS: Counter = Counter::new(
    "rats_mapping_redist_cache_hits_total",
    "Redistribution arrival estimates answered from the streaming RedistCache.",
);

/// Redistribution cache misses.
pub static REDIST_MISSES: Counter = Counter::new(
    "rats_mapping_redist_cache_misses_total",
    "Redistribution arrival estimates computed by the streaming estimator.",
);

/// Argmin tournament-tree updates.
pub static ARGMIN_UPDATES: Counter = Counter::new(
    "rats_mapping_argmin_updates_total",
    "ArgminTree leaf updates applied by task placements.",
);

/// Every metric this crate exports, for registry registration.
pub static METRICS: &[Metric] = &[
    Metric::Histogram(&ALLOC_SECONDS),
    Metric::Counter(&ALLOC_STEPS),
    Metric::Histogram(&MAP_SECONDS),
    Metric::Histogram(&ROUND_SECONDS),
    Metric::Counter(&RUNS),
    Metric::Counter(&ROUNDS),
    Metric::Counter(&TASKS),
    Metric::Counter(&ESTIMATES),
    Metric::Counter(&ESTIMATES_PRUNED),
    Metric::Counter(&MEMO_HITS),
    Metric::Counter(&MEMO_MISSES),
    Metric::Counter(&REDIST_HITS),
    Metric::Counter(&REDIST_MISSES),
    Metric::Counter(&ARGMIN_UPDATES),
];

/// Per-run tally kept on the mapper: plain (non-atomic) cells so the
/// estimate fast paths pay an increment, not an atomic RMW. Flushed once
/// per run by [`RunTally::flush`].
#[derive(Default)]
pub(crate) struct RunTally {
    pub(crate) estimates: Cell<u64>,
    pub(crate) pruned: Cell<u64>,
    pub(crate) memo_hits: Cell<u64>,
    pub(crate) memo_misses: Cell<u64>,
    pub(crate) argmin_updates: Cell<u64>,
    pub(crate) rounds: Cell<u64>,
}

/// Adds one to a tally cell.
#[inline]
pub(crate) fn bump(cell: &Cell<u64>) {
    cell.set(cell.get() + 1);
}

impl RunTally {
    /// Publishes the run's tally (plus the task count and the redist
    /// cache's own hit statistics) into the global counters.
    pub(crate) fn flush(&self, tasks: u64, redist_hits: u64, redist_misses: u64) {
        RUNS.inc();
        TASKS.add(tasks);
        ROUNDS.add(self.rounds.get());
        ESTIMATES.add(self.estimates.get());
        ESTIMATES_PRUNED.add(self.pruned.get());
        MEMO_HITS.add(self.memo_hits.get());
        MEMO_MISSES.add(self.memo_misses.get());
        ARGMIN_UPDATES.add(self.argmin_updates.get());
        REDIST_HITS.add(redist_hits);
        REDIST_MISSES.add(redist_misses);
    }
}
