//! Discrete-event execution of schedules with network contention.
//!
//! The scheduling heuristics in `rats-sched` work with *contention-free*
//! redistribution estimates. The paper evaluates the resulting schedules by
//! discrete-event **simulation** (with SimGrid v3.3): redistributions become
//! real network flows that compete for link bandwidth under max-min
//! fairness, and tasks start only when their data has actually arrived and
//! their processors are actually free. The makespans the paper reports are
//! these *simulated* makespans — the gap between estimate and simulation is
//! part of what RATS exploits (and what limits the time-cost strategy on
//! small clusters, section IV-D).
//!
//! [`simulate`] replays a [`Schedule`](rats_sched::Schedule) on a
//! [`Platform`](rats_platform::Platform):
//!
//! * when a task finishes, each outgoing edge's redistribution starts as a
//!   set of point-to-point flows ([`rats_redist::redistribute`]) in the
//!   fluid network simulator ([`rats_simnet::NetSim`]);
//! * a task starts when **all** its input redistributions completed *and*
//!   every processor it is mapped on is idle; waiting tasks are scanned in
//!   mapping order (the list scheduler's priority), but a task whose data
//!   is still in flight does not block later tasks mapped on the same
//!   processors — execution order emerges from data availability, like in
//!   the paper's TGrid runtime that launches ready nodes as they appear;
//! * the simulation ends when every task finished: the makespan is the
//!   latest finish time.
//!
//! `tests/golden.rs` pins every output bit of [`simulate`] (times, byte
//! counts, work) on a fixed job set by one digest, so a refactor of the
//! simulator is proven bit-identical by a test.
//!
//! [`telemetry`] exports `rats_sim_*` metrics: a wall-time histogram per
//! [`simulate`] call and counters for events, max-min solves, filling
//! rounds and flows solved.

mod executor;
mod outcome;
pub mod telemetry;

pub use executor::simulate;
pub use outcome::{EdgeRedistStats, SimOutcome};
