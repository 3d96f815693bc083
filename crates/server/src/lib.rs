//! `rats-server` — scheduling as a long-lived service.
//!
//! The batch pipeline (`rats-dispatch`) pays its fixed costs on every
//! invocation: regenerate the scenario population, recompute every
//! step-one allocation, spawn worker processes, tear everything down.
//! This crate keeps those costs *resident*: a `campaign serve` process
//! holds a [`Fleet`] of worker threads and a [`WarmState`] of
//! content-keyed caches, accepts campaign submissions over a
//! line-delimited JSON TCP protocol ([`protocol`]), streams each
//! [`RunRecord`](rats_experiments::RunRecord) back to the submitting
//! client as it lands, and multiplexes any number of concurrent campaigns
//! over the one fleet.
//!
//! The durable substrate is unchanged: every submission materializes a
//! normal campaign root (spec.json, scenarios.cache, filesystem queue,
//! hash-chained journal) through the campaign-root lifecycle the batch
//! dispatcher and its workers run (`rats_dispatch::lifecycle`: prepare,
//! lease, merge), so served campaigns resume after crashes and remain
//! inspectable by the batch tooling — and the merged outcome is
//! **bit-identical** to batch `spec.run()`, pinned by tests.
//!
//! Module map:
//!
//! * [`fleet`] — the resident thread pool ([`ParallelExec`] impl).
//! * [`warm`] — LRU-bounded population + allocation caches with
//!   hit/miss/eviction counters.
//! * [`protocol`] — the wire messages and line framing.
//! * [`server`] — the accept loop, the submit flow (one shared-lifecycle
//!   lease per submission), status/cancel.
//! * [`client`] — the thin client the CLI and the tests drive.
//! * [`telemetry`] — server metrics plus [`telemetry::register_all`],
//!   the one-call registration of every instrumented layer.
//! * [`metrics_http`] — the minimal `GET /metrics` listener for
//!   Prometheus-compatible scrapers.
//!
//! [`ParallelExec`]: rats_experiments::ParallelExec

pub mod client;
pub mod fleet;
pub mod metrics_http;
pub mod protocol;
pub mod server;
pub mod telemetry;
pub mod warm;

pub use client::{Client, SubmitEnd};
pub use fleet::Fleet;
pub use protocol::{Request, Response, SpecFormat, DEFAULT_ADDR};
pub use server::{Server, ServerConfig};
pub use warm::{WarmState, WarmStats};
