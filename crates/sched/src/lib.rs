//! Two-step scheduling of mixed-parallel applications: CPA/HCPA allocation
//! plus the paper's **Redistribution Aware Two-Step (RATS)** mapping,
//! behind an open policy interface.
//!
//! Two-step schedulers first decide *how many* processors each moldable task
//! gets (**allocation**, [`allocate`]) and then *which* processors each task
//! runs on (**mapping**, [`Scheduler::schedule`]). The paper's contribution
//! is to let the mapping step *reconsider* the allocation of a ready task so
//! it can reuse a predecessor's exact processor set — eliminating the data
//! redistribution on that edge entirely:
//!
//! * **pack** — shrink the allocation to a smaller predecessor's set; the
//!   task runs longer but may start earlier and leaves room for concurrent
//!   tasks;
//! * **stretch** — grow the allocation to a larger predecessor's set; the
//!   task runs faster *and* avoids a redistribution, at the price of more
//!   work.
//!
//! ## The policy interface
//!
//! The decision of *when* to pack or stretch is the open variation point:
//! every policy is an implementation of the object-safe [`MappingPolicy`]
//! trait, fed a read-only [`MapView`] of the in-progress mapping. The
//! shipped policies are the variants of the `Copy` [`MappingStrategy`] enum
//! — HCPA (the non-adopting baseline), delta, time-cost and combined —
//! which implements the trait directly, so sweeps and serialized
//! experiment specs drive exactly the engine path each strategy declares.
//! External crates can define their own policies (see the example in
//! [`policy`]).
//!
//! Invalid parameters are reported through [`StrategyError`] by the
//! `Result` constructors ([`DeltaParams::new`], [`TimeCostParams::new`],
//! [`CombinedParams::new`], and the enum's `try_rats_*` functions).
//!
//! ## The incremental engine
//!
//! The mapping driver behind [`Scheduler::schedule`] is *incremental*:
//! readiness is maintained event-driven by a [`rats_dag::ReadyTracker`]
//! (newly ready tasks discovered in O(out-degree) at placement, not by
//! re-scanning the graph per round), redistribution arrival times come from
//! the streaming, memoizing [`rats_redist::RedistCache`] (no transfer
//! matrix is materialized per candidate evaluation), per-task `data_ready`
//! terms are cached per candidate-set fingerprint, ready-list sort keys are
//! computed once per round, and the earliest-k placement search uses O(P)
//! partial selection. None of this changes behavior: the pre-incremental
//! driver is retained under the `reference` cargo feature
//! ([`Scheduler::reference_schedule`] and
//! [`Scheduler::reference_schedule_with_allocation`], also compiled for
//! tests) and parity tests assert **byte-identical** schedules — entries,
//! processor rank orders, bit-level estimates and placement order — across
//! all shipped policies on the paper suite and random DAG/platform pairs.
//! The `mapping_engine` bench in `crates/bench` records the before/after
//! throughput (`BENCH_mapping.json`).
//!
//! Step one is incremental too: [`allocate`] keeps the bottom levels
//! between grants and recomputes only the part of the topological order a
//! granted processor can reach. The whole-pass loop is retained as
//! `reference_allocate` under the same feature, a parity proptest asserts
//! equal allocations, and the `allocation` bench records the speedup
//! (`BENCH_alloc.json`).
//!
//! ```
//! use rats_daggen::fft_dag;
//! use rats_model::CostParams;
//! use rats_platform::{ClusterSpec, Platform};
//! use rats_sched::{MappingStrategy, Scheduler};
//!
//! let platform = Platform::from_spec(&ClusterSpec::grillon());
//! let dag = fft_dag(8, &CostParams::paper(), 42);
//! let schedule = Scheduler::new(&platform)
//!     .strategy(MappingStrategy::try_rats_time_cost(0.5, true)?)
//!     .schedule(&dag);
//! assert!(schedule.makespan_estimate() > 0.0);
//! schedule.validate(&dag, &platform).unwrap();
//! # Ok::<(), rats_sched::StrategyError>(())
//! ```

mod allocation;
mod mapping;
#[cfg(test)]
mod parity_tests;
pub mod policy;
#[cfg(any(test, feature = "reference"))]
mod reference;
mod schedule;
mod strategy;
pub mod telemetry;

#[cfg(any(test, feature = "reference"))]
pub use allocation::reference_allocate;
pub use allocation::{allocate, AllocParams, Allocation, AreaPolicy};
pub use mapping::Scheduler;
pub use policy::{MapView, MappingDecision, MappingPolicy, Placement};
pub use schedule::{Schedule, ScheduleEntry, ScheduleError};
pub use strategy::{
    CandidatePolicy, CombinedParams, DeltaParams, MappingStrategy, SecondarySort, StrategyError,
    TimeCostParams,
};
