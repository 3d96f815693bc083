//! Gated benchmarks of the rats workspace. The library is empty; the
//! benches live in `benches/`:
//!
//! * `mapping_engine` — the step-two mapping engine against its retained
//!   reference driver, with a committed `BENCH_mapping.json` baseline and
//!   a `-- --check` regression gate (throughput floor, zero marginal
//!   allocations per task);
//! * `maxmin` — the persistent max-min solver against its retained
//!   reference at 10, 100 and 1000 flows, with a committed
//!   `BENCH_sim.json` baseline and a `-- --check` regression gate (speedup
//!   floor, zero heap operations per warm solve);
//! * `allocation` — the incremental step-one allocation against its
//!   retained whole-pass reference on the large-DAG sweep's irregular
//!   n=2000 and n=5000 DAGs, with a committed `BENCH_alloc.json` baseline
//!   and a `-- --check` regression gate (speedup floor, zero heap
//!   operations in grant steps).
//!
//! End-to-end and per-layer numbers for the whole job pipeline come from
//! `perfbench` and `campaign profile`.
