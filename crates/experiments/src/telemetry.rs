//! Job-loop metrics: per-shard and per-chunk wall-time histograms and
//! record throughput counters. Observational only — each chunk and shard
//! takes one clock reading that feeds both the journal and these
//! histograms, and nothing reads a metric back.

use rats_telemetry::{Counter, Histogram, Metric, TIME_BUCKETS};

/// Whole shard-job wall time ([`run_shard_hooked`](crate::shard)), one
/// observation per invocation.
pub static JOB_SECONDS: Histogram = Histogram::new(
    "rats_shard_job_seconds",
    "Shard job wall time per run_shard invocation.",
    TIME_BUCKETS,
);

/// Per write-chunk wall time (schedule + simulate + commit one chunk), in
/// shard runs and in-process runs alike.
pub static CHUNK_SECONDS: Histogram = Histogram::new(
    "rats_shard_chunk_seconds",
    "Shard write-chunk wall time (evaluate + commit).",
    TIME_BUCKETS,
);

/// Shard jobs run to completion (not aborted by cancellation).
pub static JOBS_COMPLETED: Counter = Counter::new(
    "rats_shard_jobs_completed_total",
    "Shard jobs run to completion (resumed-empty jobs included).",
);

/// Grid jobs executed (records committed).
pub static RECORDS: Counter = Counter::new(
    "rats_shard_records_total",
    "Grid-job records executed and committed (shard file or in-process run).",
);

/// Grid jobs resumed from disk instead of re-executed.
pub static RESUMED: Counter = Counter::new(
    "rats_shard_grid_jobs_resumed_total",
    "Grid jobs found already recorded on disk and skipped (resume).",
);

/// Every metric this crate exports, for registry registration.
pub static METRICS: &[Metric] = &[
    Metric::Histogram(&JOB_SECONDS),
    Metric::Histogram(&CHUNK_SECONDS),
    Metric::Counter(&JOBS_COMPLETED),
    Metric::Counter(&RECORDS),
    Metric::Counter(&RESUMED),
];
