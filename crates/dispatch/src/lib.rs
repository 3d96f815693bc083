//! Fault-tolerant multi-worker campaign dispatch over a filesystem work
//! queue.
//!
//! The sharded campaign engine (`rats_experiments::shard`) made every
//! campaign a flat deterministic job grid with durable, location-transparent
//! shard files — but left scheduling the shards to the operator. This crate
//! closes that gap with a master–worker layer in the spirit of the
//! star-platform scheduling literature (Marchal et al., arXiv:cs/0610131)
//! and resizable-pool computations (Sudarsan & Ribbens, arXiv:0706.2146):
//! the worker pool can grow, shrink or lose members mid-campaign and the
//! dispatcher adapts, because all coordination lives in the filesystem.
//!
//! * [`inventory`] — hosts as data ([`HostInventory`], TOML-loadable):
//!   capacity weights auto-plan the shard count and per-worker thread
//!   budgets ([`DispatchPlan`]).
//! * [`queue`] — the filesystem work queue: one file per shard job under
//!   the campaign's manifest directory, claimed by **atomic rename** and
//!   kept alive by **heartbeat rewrites**, so any number of worker
//!   processes — one host or many, via a shared directory — pull jobs
//!   concurrently with no coordination service.
//! * [`cache`] — the shared scenario cache: the population is generated
//!   once, serialized under the manifest directory
//!   (`rats_daggen::population`), and read back by every worker.
//! * [`lifecycle`] — the campaign-root lifecycle the dispatcher, the
//!   workers and `campaign serve` share: [`prepare_root`] (spec, cache,
//!   queue), [`run_lease`] (claim → adopt partial output from dead
//!   predecessors → execute via the durable shard engine while
//!   heartbeating → mark done) and [`merge_root`].
//! * [`worker`] — the worker loop: [`run_lease`] until every job is done.
//! * [`status`] — read-only observability: scan a campaign's queue
//!   directory and report per-job state, stale-lease hints and progress
//!   (the `campaign status` subcommand) without touching anything.
//! * [`dispatcher`] — the orchestrator: plans from an inventory, spawns
//!   local `campaign worker` processes, watches heartbeats, reclaims and
//!   re-dispatches shards from dead or straggling workers, and finishes
//!   with the validated merge — the dispatched result is **bit-identical**
//!   to the in-process [`ExperimentSpec::run`] outcome.
//! * [`replay_check`] — the journal invariant checker: replays the
//!   campaign's hash-chained event journal (`rats_journal`) and verifies
//!   the reconstructed per-job state matches the live queue directory
//!   (the `campaign replay --check` subcommand).
//!
//! The `campaign` binary (this crate) fronts the whole engine:
//!
//! ```text
//! campaign dispatch spec.toml --inventory hosts.toml --out dispatch/
//! campaign worker  dispatch/<name>-<hash>   # on any host sharing the dir
//! ```

use std::fmt;

use rats_experiments::shard::{MergeError, ShardError};
use rats_experiments::spec::SpecError;

pub mod cache;
pub mod dispatcher;
pub mod inventory;
pub mod lifecycle;
pub mod queue;
pub mod replay_check;
pub mod status;
pub mod telemetry;
pub mod worker;

pub use cache::{ensure_cache, load_cache, CACHE_FILE};
pub use dispatcher::{campaign_root, dispatch, DispatchConfig, DispatchReport};
pub use inventory::{DispatchPlan, HostInventory, HostSpec, InventoryError, WorkerPlan};
pub use lifecycle::{merge_root, prepare_root, run_lease, LeaseHolder, RootMerge};
pub use queue::{JobState, Lease, QueueError, QueueStatus, WorkQueue};
pub use replay_check::{replay_check, ReplayCheckReport};
pub use status::{campaign_status, CampaignStatus, JobView, JournalInsight};
pub use worker::{run_worker, ChaosPhase, WorkerConfig, WorkerReport};

/// Errors from the dispatch layer.
#[derive(Debug)]
pub enum DispatchError {
    /// The spec is invalid or not dispatchable.
    Spec(SpecError),
    /// The host inventory is invalid.
    Inventory(InventoryError),
    /// A work-queue operation failed.
    Queue(QueueError),
    /// Shard execution failed in a worker.
    Shard(ShardError),
    /// The final merge failed (incomplete or inconsistent shard files).
    Merge(MergeError),
    /// The event journal is unreadable, tampered with, or absent where
    /// one is required.
    Journal(rats_journal::JournalError),
    /// Filesystem failure outside the queue.
    Io(String),
    /// A worker process could not be spawned or kept failing past the
    /// respawn budget.
    Worker {
        /// The worker slot's base id.
        id: String,
        /// What happened.
        message: String,
    },
    /// The dispatch deadline passed with jobs still outstanding.
    Timeout {
        /// Jobs finished.
        done: usize,
        /// Total jobs.
        total: usize,
    },
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::Spec(e) => write!(f, "{e}"),
            DispatchError::Inventory(e) => write!(f, "{e}"),
            DispatchError::Queue(e) => write!(f, "{e}"),
            DispatchError::Shard(e) => write!(f, "{e}"),
            DispatchError::Merge(e) => write!(f, "{e}"),
            DispatchError::Journal(e) => write!(f, "{e}"),
            DispatchError::Io(m) => write!(f, "dispatch io error: {m}"),
            DispatchError::Worker { id, message } => {
                write!(f, "worker `{id}`: {message}")
            }
            DispatchError::Timeout { done, total } => write!(
                f,
                "dispatch timed out with {done}/{total} jobs done (raise --timeout-ms, \
                 or inspect the queue directory for stuck leases)"
            ),
        }
    }
}

impl std::error::Error for DispatchError {}

impl From<SpecError> for DispatchError {
    fn from(e: SpecError) -> Self {
        DispatchError::Spec(e)
    }
}

impl From<InventoryError> for DispatchError {
    fn from(e: InventoryError) -> Self {
        DispatchError::Inventory(e)
    }
}

impl From<QueueError> for DispatchError {
    fn from(e: QueueError) -> Self {
        DispatchError::Queue(e)
    }
}

impl From<ShardError> for DispatchError {
    fn from(e: ShardError) -> Self {
        DispatchError::Shard(e)
    }
}

impl From<MergeError> for DispatchError {
    fn from(e: MergeError) -> Self {
        DispatchError::Merge(e)
    }
}

impl From<rats_journal::JournalError> for DispatchError {
    fn from(e: rats_journal::JournalError) -> Self {
        DispatchError::Journal(e)
    }
}

impl From<std::io::Error> for DispatchError {
    fn from(e: std::io::Error) -> Self {
        DispatchError::Io(e.to_string())
    }
}

/// Restricts a name to `[A-Za-z0-9_-]` so it can live inside file names
/// (worker ids become claim-file suffixes; campaign names become directory
/// names).
pub(crate) fn sanitize(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "x".to_string()
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_keeps_names_filesystem_safe() {
        assert_eq!(sanitize("alpha-w0"), "alpha-w0");
        assert_eq!(sanitize("a b/c.d"), "a-b-c-d");
        assert_eq!(sanitize(""), "x");
    }
}
