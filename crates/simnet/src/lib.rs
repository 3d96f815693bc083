//! Flow-level network simulation substrate (SimGrid replacement).
//!
//! The paper evaluates schedules with the SimGrid v3.3 toolkit, whose
//! network model has three defining features (paper, section IV-A):
//!
//! 1. **bounded multi-port** — a node can exchange data with several peers
//!    simultaneously, but all flows share its private link's bandwidth;
//! 2. **max-min fairness** — the bandwidth allotted to concurrent flows is
//!    the max-min fair share over all crossed links (fluid model, rates
//!    recomputed whenever a flow starts or finishes);
//! 3. **empirical TCP bandwidth** — a flow's rate never exceeds
//!    `β' = min(β, Wmax/RTT)` where `RTT` is twice the one-way path latency.
//!
//! This crate rebuilds that model from scratch:
//!
//! * [`maxmin`] — progressive filling for max-min fair rates with per-flow
//!   rate caps. [`maxmin::Solver`] is persistent and allocation-free when
//!   warm, and a filling round touches only the links that still carry
//!   unfrozen flows plus the flows it freezes. The `reference` cargo
//!   feature (always on in tests) keeps the original whole-rescan solver
//!   as `maxmin::reference`, the oracle the parity proptest compares
//!   `Solver` against `to_bits()` for `to_bits()`; both optimality
//!   conditions are property-tested on `Solver` too;
//! * [`NetSim`] — an event-driven fluid simulator: flows go through a
//!   latency phase, then transfer at their fair rate; the embedding
//!   simulation (e.g. `rats-sim`) advances it to each next event time and
//!   gets back the caller tags of the flows that completed. It holds only
//!   the live flows, re-solves through one `Solver` whenever the
//!   transferring set changes, and counts that work in [`NetStats`].

pub mod maxmin;

mod engine;

pub use engine::{NetSim, NetStats};
