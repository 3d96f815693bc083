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
//!   rate caps. [`maxmin::Solver`] is persistent: it keeps its flow set
//!   between solves. [`add_flow`](maxmin::Solver::add_flow) returns a slot,
//!   [`remove_flow`](maxmin::Solver::remove_flow) frees it for reuse, and
//!   [`solve`](maxmin::Solver::solve) rates every live flow, read back with
//!   [`rate`](maxmin::Solver::rate). Each link keeps its flow list, every
//!   slot's route is a region of one shared hop array (a freed slot keeps
//!   its region; a longer route moves it to the array's end), and flows
//!   are grouped by cap value in ascending order, so a solve neither
//!   re-indexes nor sorts, and once warm nothing allocates. A solve
//!   resumes: it keeps a history of the last solve (per filling round the
//!   increment, the link term and a link attaining it; per round start the
//!   level, the cap-group pointer and every link's and cap group's state),
//!   and `add_flow`/`remove_flow` log the links and cap groups they touch.
//!   The next solve replays that history on the touched links only,
//!   proves rounds `0..K` unchanged (untouched argmin link, no touched
//!   share below the link term, same saturation rounds, same cap walk),
//!   restores the start of round `K` and fills from there, at a cost of
//!   `O(K · (touched + added + removed))` for the replay plus the rounds
//!   from `K` on; [`resumed`](maxmin::Solver::resumed) reports `K`. A new
//!   or emptied cap group forces `K = 0`. A solve's rates depend only on
//!   the multiset of `(links, cap)`, so the order flows arrived and left
//!   in, which slots they got and where a solve resumed cannot move a bit.
//!   The `reference` cargo feature (always on in tests) keeps the original
//!   whole-rescan solver as `maxmin::reference`, the oracle the parity
//!   proptests compare `Solver` against `to_bits()` for `to_bits()` over
//!   random add/remove sequences (resumed solves also against a fresh
//!   `Solver`, history included); both optimality conditions are
//!   property-tested on `Solver` too;
//! * [`NetSim`] — an event-driven fluid simulator: flows go through a
//!   latency phase, then transfer at their fair rate; the embedding
//!   simulation (e.g. `rats-sim`) advances it to each next event time and
//!   gets back, in a buffer it owns, the caller tags of the flows that
//!   completed, in start order. A flow waits in a short list through its
//!   latency phase, then enters the solver and flat transfer columns
//!   (bytes remaining, done threshold, rate, slot, tag, start number) and
//!   leaves both when it completes; each event is one pass over the
//!   columns. `NetSim` re-solves whenever the transferring set changes,
//!   copies the rates into the rate column once per solve, and counts its
//!   work in [`NetStats`] (solves, rounds, rounds resumed, flows, transfer
//!   steps). The layout changes no arithmetic operand, so every bit
//!   matches the engine before it. The
//!   same feature keeps the engine that rebuilt the whole problem per solve
//!   as `reference::NetSim`, the oracle of the engine parity proptest and
//!   of `rats-sim`'s paper-scale parity test.

pub mod maxmin;

mod engine;

#[cfg(any(test, feature = "reference"))]
pub use engine::reference;
pub use engine::{NetSim, NetStats};
