//! The worker loop: claim shard jobs from the queue and execute them with
//! the durable shard engine, heartbeating the lease all the while.
//!
//! A worker is deliberately dumb: it knows the campaign root directory and
//! nothing else. It attaches to the queue (validating the spec hash),
//! loads the shared scenario cache (or regenerates on a cache miss), then
//! loops: claim the lowest todo job, adopt whatever partial shard file a
//! dead predecessor left for that job, run the shard, mark it done. When
//! nothing is claimable it idles until the campaign completes — reclaimed
//! jobs may reappear at any time — and exits once every job is done.
//!
//! Crash safety comes from composing two layers: the queue's lease
//! protocol (a dead worker's lease goes stale and is reclaimed by the
//! dispatcher) and the shard engine's append-only JSONL files (the
//! adopting worker resumes after the last committed record, re-running at
//! most one job). Because every job is a deterministic pure function of
//! the spec, even a *straggler* that was reclaimed while still alive is
//! harmless — its duplicate records are bit-identical and merge cleanly.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rats_daggen::suite::Scenario;
use rats_experiments::shard::{run_shard_hooked, shard_file_name, ShardHooks};
use rats_experiments::spec::ExperimentSpec;
use rats_journal::{log, Event, Journal};

use crate::lifecycle::{run_lease, LeaseHolder, BEAT_MS};
use crate::queue::{Lease, WorkQueue};
use crate::{sanitize, DispatchError};

/// Subdirectory of the campaign root holding per-worker shard output.
pub const SHARDS_DIR: &str = "shards";

/// Name of the spec document the dispatcher writes under the campaign root.
pub const SPEC_FILE: &str = "spec.json";

/// Fault-injection points for tests and the CI kill-a-worker smoke: the
/// worker aborts (as if SIGKILLed — no cleanup, no lease release) at a
/// precisely reproducible place in its first claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPhase {
    /// Die right after claiming: lease held, no shard file at all.
    Claim,
    /// Die after writing the shard manifest line but before the first
    /// record.
    Manifest,
    /// Die mid-shard: some records committed, plus a torn trailing line.
    Partial,
}

impl ChaosPhase {
    /// Parses the CLI spelling.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "claim" => Some(ChaosPhase::Claim),
            "manifest" => Some(ChaosPhase::Manifest),
            "partial" => Some(ChaosPhase::Partial),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ChaosPhase::Claim => "claim",
            ChaosPhase::Manifest => "manifest",
            ChaosPhase::Partial => "partial",
        }
    }
}

/// Configuration of one worker process.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Campaign root directory (holds `queue/`, `shards/`, `spec.json`).
    pub root: PathBuf,
    /// This worker's id (unique per live worker; filesystem-safe).
    pub worker_id: String,
    /// Threads for shard execution.
    pub threads: usize,
    /// Heartbeat period.
    pub beat_ms: u64,
    /// Idle poll period when nothing is claimable.
    pub poll_ms: u64,
    /// Give up after this long without claiming anything while the
    /// campaign is still incomplete (`0` = wait forever). Protects manual
    /// workers from orphaned queues.
    pub idle_timeout_ms: u64,
    /// Exit when this process disappears (the dispatcher passes its own
    /// pid, so its workers do not poll forever as orphans if the
    /// dispatcher is killed — nobody would reclaim leases or merge).
    pub parent_pid: Option<u32>,
    /// Fault injection for tests (see [`ChaosPhase`]).
    pub chaos: Option<ChaosPhase>,
}

/// Whether the process with `pid` is still alive, judged by `/proc`.
/// Returns `true` (assume alive) on systems without a `/proc` to consult.
fn process_alive(pid: u32) -> bool {
    if !std::path::Path::new("/proc/self").exists() {
        return true;
    }
    std::path::Path::new(&format!("/proc/{pid}")).exists()
}

impl WorkerConfig {
    /// A worker on `root` with default timing (200 ms beats, 100 ms polls,
    /// wait forever).
    pub fn new(root: impl Into<PathBuf>, worker_id: &str) -> Self {
        Self {
            root: root.into(),
            worker_id: sanitize(worker_id),
            threads: 1,
            beat_ms: BEAT_MS,
            poll_ms: 100,
            idle_timeout_ms: 0,
            parent_pid: None,
            chaos: None,
        }
    }
}

/// What a worker accomplished before exiting.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkerReport {
    /// Shard jobs completed (claim → done).
    pub jobs_done: usize,
    /// Grid jobs executed across those shards.
    pub executed: usize,
    /// Grid jobs skipped because an adopted file already held them.
    pub resumed: usize,
    /// Leases lost to reclaim while still working.
    pub leases_lost: usize,
    /// Whether the scenario population came from the shared cache.
    pub used_cache: bool,
}

/// Loads the campaign spec the dispatcher serialized under `root`.
pub fn load_root_spec(root: &Path) -> Result<ExperimentSpec, DispatchError> {
    let path = root.join(SPEC_FILE);
    let text = fs::read_to_string(&path)
        .map_err(|e| DispatchError::Io(format!("cannot read campaign spec {path:?}: {e}")))?;
    Ok(ExperimentSpec::from_json(&text)?)
}

/// Runs the worker loop to completion (all queue jobs done) or error.
pub fn run_worker(cfg: &WorkerConfig) -> Result<WorkerReport, DispatchError> {
    let spec = load_root_spec(&cfg.root)?;
    let queue = WorkQueue::attach(&cfg.root, &spec)?;
    let mut journal = Journal::open(&cfg.root, &cfg.worker_id, queue.spec_hash());
    let (scenarios, used_cache) = crate::cache::load_or_generate(&cfg.root, &spec);
    journal.emit(Event::PopulationLoaded {
        from_cache: used_cache,
    });
    let mut holder = LeaseHolder {
        id: cfg.worker_id.clone(),
        shard_dir: cfg.root.join(SHARDS_DIR).join(&cfg.worker_id),
        threads: cfg.threads,
        beat_ms: cfg.beat_ms,
        take_over: false,
        chaos: cfg.chaos,
    };

    let mut report = WorkerReport {
        used_cache,
        ..WorkerReport::default()
    };
    let mut last_progress = Instant::now();
    loop {
        let hooks = ShardHooks {
            scenarios: Some(&scenarios),
            ..ShardHooks::default()
        };
        match run_lease(&spec, &queue, &mut holder, &mut journal, hooks)? {
            Some((run, kept)) => {
                last_progress = Instant::now();
                report.executed += run.executed;
                report.resumed += run.skipped;
                if kept {
                    report.jobs_done += 1;
                } else {
                    report.leases_lost += 1;
                }
            }
            None => {
                let status = queue.status()?;
                if status.all_done() {
                    break;
                }
                if let Some(pid) = cfg.parent_pid {
                    if !process_alive(pid) {
                        eprintln!(
                            "worker {}: dispatcher (pid {pid}) is gone with the campaign \
                             at {status}; exiting",
                            cfg.worker_id
                        );
                        break;
                    }
                }
                if cfg.idle_timeout_ms > 0
                    && last_progress.elapsed() > Duration::from_millis(cfg.idle_timeout_ms)
                {
                    return Err(DispatchError::Worker {
                        id: cfg.worker_id.clone(),
                        message: format!(
                            "idle for {} ms with campaign at {status}",
                            cfg.idle_timeout_ms
                        ),
                    });
                }
                std::thread::sleep(Duration::from_millis(cfg.poll_ms.max(1)));
            }
        }
    }
    Ok(report)
}

/// Reproduces a worker death at a precise point of its first claim, then
/// aborts the process (no unwinding, no lease cleanup — the closest safe
/// approximation of `kill -9` that a test can trigger deterministically).
pub(crate) fn inject_chaos(
    phase: ChaosPhase,
    shard_spec: &ExperimentSpec,
    lease: &Lease,
    my_dir: &Path,
    threads: usize,
    scenarios: Option<&[Scenario]>,
) -> Result<(), DispatchError> {
    let hooks = || ShardHooks {
        scenarios,
        ..ShardHooks::default()
    };
    match phase {
        ChaosPhase::Claim => {}
        ChaosPhase::Manifest | ChaosPhase::Partial => {
            // Run the real executor to the end, then cut its file back to
            // what a crash leaves: the manifest alone ("died between
            // manifest write and first record"), or roughly half the
            // records and a torn next line.
            run_shard_hooked(shard_spec, my_dir, Some(threads), hooks())?;
            let path = my_dir.join(shard_file_name(shard_spec));
            let bytes = fs::read(&path)?;
            let lines: Vec<&[u8]> = log::committed(&bytes).0.collect();
            let partial = phase == ChaosPhase::Partial;
            let keep = if partial {
                1 + (lines.len() - 1) / 2
            } else {
                1
            };
            let mut crashed: Vec<u8> = lines[..keep].join(&b'\n');
            crashed.push(b'\n');
            if let Some(next) = lines.get(keep).filter(|_| partial) {
                crashed.extend_from_slice(&next[..next.len() / 2]);
            }
            fs::write(&path, crashed)?;
        }
    }
    eprintln!(
        "worker {}: chaos `{}` on job {} — aborting",
        lease.worker,
        phase.as_str(),
        lease.job
    );
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_phases_parse() {
        for phase in [ChaosPhase::Claim, ChaosPhase::Manifest, ChaosPhase::Partial] {
            assert_eq!(ChaosPhase::parse(phase.as_str()), Some(phase));
        }
        assert_eq!(ChaosPhase::parse("sigsegv"), None);
    }
}
