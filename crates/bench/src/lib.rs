//! Gated benchmarks of the rats workspace. The library is empty; the
//! benches live in `benches/`:
//!
//! * `mapping_engine` — the step-two mapping engine against its retained
//!   reference driver, with a committed `BENCH_mapping.json` baseline and
//!   a `-- --check` regression gate (throughput floor, zero marginal
//!   allocations per task);
//! * `maxmin` — the max-min fairness solver under growing flow counts,
//!   the starting point of the simulator gate.
//!
//! End-to-end and per-layer numbers for the whole job pipeline come from
//! `perfbench` and `campaign profile`.
