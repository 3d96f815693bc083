//! Server metrics and the workspace-wide registration entry point.
//!
//! The server is where every instrumented layer meets one process, so
//! [`register_all`] registers the full set — scheduler, simulator, shard
//! executor, dispatch queue and the server's own series — into the global
//! registry.
//! Warm-state series are gauges refreshed from the owning
//! [`WarmState`](crate::warm::WarmState) at collection time
//! ([`refresh_warm`]): the instance holds the authoritative counters, and
//! scrape-time mirroring keeps multi-instance test processes from
//! cross-contaminating each other's numbers.

use rats_telemetry::{Counter, Gauge, Metric};

use crate::warm::WarmStats;

/// Campaign submissions accepted.
pub static SUBMISSIONS: Counter = Counter::new(
    "rats_serve_submissions_total",
    "Campaign submissions accepted by the server.",
);

/// Metrics documents rendered (scrapes + metrics ops).
pub static SCRAPES: Counter = Counter::new(
    "rats_serve_metrics_scrapes_total",
    "Metrics documents rendered (HTTP scrapes and metrics ops).",
);

/// Campaigns resident in the server's handle table.
pub static CAMPAIGNS: Gauge = Gauge::new(
    "rats_serve_campaigns_resident",
    "Campaigns resident in the server's handle table.",
);

/// Warm population cache hits (mirrored from the live `WarmState`).
pub static WARM_POP_HITS: Gauge = Gauge::new(
    "rats_warm_population_hits",
    "Population requests served from the resident cache.",
);

/// Warm population cache misses.
pub static WARM_POP_MISSES: Gauge = Gauge::new(
    "rats_warm_population_misses",
    "Population requests that had to generate.",
);

/// Warm population evictions.
pub static WARM_POP_EVICTIONS: Gauge = Gauge::new(
    "rats_warm_population_evictions",
    "Populations evicted by the LRU bound.",
);

/// Warm allocation cache hits.
pub static WARM_ALLOC_HITS: Gauge = Gauge::new(
    "rats_warm_alloc_hits",
    "Step-one allocation lookups served warm.",
);

/// Warm allocation cache misses.
pub static WARM_ALLOC_MISSES: Gauge = Gauge::new(
    "rats_warm_alloc_misses",
    "Step-one allocation lookups that had to compute.",
);

/// Warm allocation evictions.
pub static WARM_ALLOC_EVICTIONS: Gauge = Gauge::new(
    "rats_warm_alloc_evictions",
    "Allocations evicted by the LRU bound.",
);

/// Populations currently resident.
pub static WARM_RESIDENT_POPULATIONS: Gauge = Gauge::new(
    "rats_warm_resident_populations",
    "Populations currently resident.",
);

/// Allocations currently resident.
pub static WARM_RESIDENT_ALLOCS: Gauge = Gauge::new(
    "rats_warm_resident_allocs",
    "Step-one allocations currently resident.",
);

/// Approximate bytes held by resident populations.
pub static WARM_POP_RESIDENT_BYTES: Gauge = Gauge::new(
    "rats_warm_population_resident_bytes",
    "Approximate bytes held by resident populations.",
);

/// Approximate bytes held by resident allocations.
pub static WARM_ALLOC_RESIDENT_BYTES: Gauge = Gauge::new(
    "rats_warm_alloc_resident_bytes",
    "Approximate bytes held by resident allocations.",
);

/// Every metric this crate exports, for registry registration.
pub static METRICS: &[Metric] = &[
    Metric::Counter(&SUBMISSIONS),
    Metric::Counter(&SCRAPES),
    Metric::Gauge(&CAMPAIGNS),
    Metric::Gauge(&WARM_POP_HITS),
    Metric::Gauge(&WARM_POP_MISSES),
    Metric::Gauge(&WARM_POP_EVICTIONS),
    Metric::Gauge(&WARM_ALLOC_HITS),
    Metric::Gauge(&WARM_ALLOC_MISSES),
    Metric::Gauge(&WARM_ALLOC_EVICTIONS),
    Metric::Gauge(&WARM_RESIDENT_POPULATIONS),
    Metric::Gauge(&WARM_RESIDENT_ALLOCS),
    Metric::Gauge(&WARM_POP_RESIDENT_BYTES),
    Metric::Gauge(&WARM_ALLOC_RESIDENT_BYTES),
];

/// Registers every instrumented layer's metrics into the process-global
/// registry. Idempotent — the registry deduplicates by name — so the
/// server, the CLI subcommands and in-process tests can all call it.
pub fn register_all() {
    let registry = rats_telemetry::global();
    registry.register(rats_sched::telemetry::METRICS);
    registry.register(rats_sim::telemetry::METRICS);
    registry.register(rats_experiments::telemetry::METRICS);
    registry.register(rats_dispatch::telemetry::METRICS);
    registry.register(METRICS);
}

/// Mirrors a warm-state snapshot into the scrape gauges (called at
/// collection time, so the document always reflects the live instance).
pub fn refresh_warm(stats: &WarmStats) {
    WARM_POP_HITS.set(stats.population_hits);
    WARM_POP_MISSES.set(stats.population_misses);
    WARM_POP_EVICTIONS.set(stats.population_evictions);
    WARM_ALLOC_HITS.set(stats.alloc_hits);
    WARM_ALLOC_MISSES.set(stats.alloc_misses);
    WARM_ALLOC_EVICTIONS.set(stats.alloc_evictions);
    WARM_RESIDENT_POPULATIONS.set(stats.resident_populations as u64);
    WARM_RESIDENT_ALLOCS.set(stats.resident_allocs as u64);
    WARM_POP_RESIDENT_BYTES.set(stats.resident_population_bytes);
    WARM_ALLOC_RESIDENT_BYTES.set(stats.resident_alloc_bytes);
}
