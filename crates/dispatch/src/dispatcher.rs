//! The dispatcher: plan, spawn, watch, reclaim, merge.
//!
//! [`dispatch`] drives a whole campaign end to end:
//!
//! 1. **Plan** — [`HostInventory::plan`] picks the shard count and per-
//!    worker thread budgets from capacity weights.
//! 2. **Prepare** — [`prepare_root`] gives the campaign root
//!    (`<out>/<name>-<hash8>/`) the normalized spec, the shared scenario
//!    cache and the seeded work queue. Everything is idempotent:
//!    re-dispatching a crashed campaign resumes it.
//! 3. **Spawn** — one `campaign worker` OS process per local worker plan
//!    (remote plans are printed for the operator to start on their hosts).
//! 4. **Watch** — the monitor loop observes lease heartbeats *by content
//!    change* (no cross-host clock trust), reclaims leases that stop
//!    moving, sweeps conflict files, and respawns dead worker processes
//!    while work remains — the pool is resizable in the sense of
//!    arXiv:0706.2146: workers may join, die or be killed at any point.
//! 5. **Merge** — when every job is done, [`merge_root`] merges all
//!    per-worker shard files; its validation (coverage, duplicates, seed,
//!    spec hash) guarantees the result is bit-identical to the in-process
//!    [`ExperimentSpec::run`] outcome.
//!
//! Steps 2 and 5, and the workers' leases, are the shared campaign-root
//! lifecycle ([`crate::lifecycle`]) that `campaign serve` runs too.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rats_experiments::shard::collect_shard_files;
use rats_experiments::spec::{ExperimentSpec, SpecError, SpecOutcome};
use rats_journal::{Event, Journal, JournalTail};

use crate::inventory::{DispatchPlan, HostInventory, WorkerPlan};
use crate::lifecycle::{merge_root, prepare_root, BEAT_MS};
use crate::queue::WorkQueue;
use crate::worker::ChaosPhase;
use crate::{sanitize, DispatchError};

/// Everything [`dispatch`] needs besides the spec.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Output directory; the campaign root is created under it.
    pub out: PathBuf,
    /// The worker pool description.
    pub inventory: HostInventory,
    /// Target shards for the least-capable worker (default 4).
    pub oversub: usize,
    /// Worker heartbeat period in milliseconds.
    pub beat_ms: u64,
    /// Dispatcher monitor poll period in milliseconds.
    pub poll_ms: u64,
    /// A lease whose content has not changed for this long is considered
    /// dead and reclaimed.
    pub stale_ms: u64,
    /// Overall deadline in milliseconds (`0`, the default, = none —
    /// paper-suite campaigns legitimately run for hours; tests and CI set
    /// a real deadline).
    pub timeout_ms: u64,
    /// Respawn budget per worker slot.
    pub max_respawns: usize,
    /// Override the per-worker thread budget from the plan.
    pub threads_override: Option<usize>,
    /// Fault injection: the first spawned worker gets this chaos phase
    /// (tests and the CI kill-a-worker smoke).
    pub chaos: Option<ChaosPhase>,
    /// The executable to spawn workers with (defaults to the current
    /// executable — correct when the caller *is* the `campaign` binary).
    pub worker_exe: Option<PathBuf>,
}

impl DispatchConfig {
    /// Sensible defaults for dispatching into `out` with the given
    /// inventory.
    pub fn new(out: impl Into<PathBuf>, inventory: HostInventory) -> Self {
        Self {
            out: out.into(),
            inventory,
            oversub: 4,
            beat_ms: BEAT_MS,
            poll_ms: 100,
            stale_ms: 5_000,
            timeout_ms: 0,
            max_respawns: 3,
            threads_override: None,
            chaos: None,
            worker_exe: None,
        }
    }
}

/// What a completed dispatch did, plus the merged outcome.
#[derive(Debug)]
pub struct DispatchReport {
    /// The merged campaign outcome (bit-identical to `spec.run()`).
    pub outcome: SpecOutcome,
    /// The campaign root directory used.
    pub root: PathBuf,
    /// The plan that was executed.
    pub plan: DispatchPlan,
    /// Worker processes spawned (including respawns).
    pub spawned: usize,
    /// Worker processes respawned after dying with work remaining.
    pub respawned: usize,
    /// Leases reclaimed from dead or straggling workers.
    pub reclaimed: usize,
    /// Whether this dispatch wrote the scenario cache (false: reused).
    pub cache_written: bool,
}

/// The campaign root directory for a spec: `<out>/<name>-<hash8>`. Shard
/// state, queue and cache all live under it, keyed by the spec hash so two
/// campaigns never collide.
pub fn campaign_root(out: &Path, spec: &ExperimentSpec) -> PathBuf {
    let hash = spec.spec_hash();
    out.join(format!("{}-{}", sanitize(&spec.name), &hash[..8]))
}

/// One spawned worker process and its slot bookkeeping.
struct WorkerProc {
    plan: WorkerPlan,
    child: Child,
    /// How many processes this slot has consumed (1 = original).
    generation: usize,
}

/// Observation of one lease: the last seen content and when it changed.
struct LeaseWatch {
    content: String,
    changed: Instant,
}

/// Dispatches the campaign across worker processes and merges the result.
/// See the module docs for the protocol.
pub fn dispatch(
    spec: &ExperimentSpec,
    cfg: &DispatchConfig,
) -> Result<DispatchReport, DispatchError> {
    spec.validate()?;
    if cfg.stale_ms <= cfg.beat_ms.saturating_mul(2) {
        // A staleness threshold inside the heartbeat period reclaims every
        // *live* lease between two beats: workers lose their jobs
        // mid-shard, the jobs return to todo, and the campaign livelocks.
        return Err(DispatchError::Spec(SpecError::Invalid(format!(
            "stale-ms ({}) must exceed twice beat-ms ({}) or healthy leases \
             get reclaimed between heartbeats",
            cfg.stale_ms, cfg.beat_ms
        ))));
    }
    if spec.shard.is_some_and(|s| !s.is_full()) {
        return Err(DispatchError::Spec(SpecError::Invalid(
            "the spec selects a single shard — dispatch plans its own sharding; \
             clear `shard` and re-run"
                .into(),
        )));
    }
    let normalized = spec.normalized();
    let plan = cfg.inventory.plan(normalized.grid().len(), cfg.oversub)?;

    let root = campaign_root(&cfg.out, &normalized);
    let (queue, cache_written) = prepare_root(&root, &normalized, plan.shard_count, None)?;

    // The dispatcher's own journal segment, plus a tail over everyone
    // else's so worker-side events (notably partial-shard adoptions)
    // surface as live notices. The tail starts before any worker spawns,
    // so nothing is missed.
    let mut journal = Journal::open(&root, "dispatcher", &normalized.spec_hash());
    journal.emit(Event::CacheReady {
        written: cache_written,
    });
    journal.emit(Event::QueueInit {
        jobs: plan.shard_count as u64,
    });
    let mut tail = JournalTail::new(&root);

    let exe = match &cfg.worker_exe {
        Some(path) => path.clone(),
        None => std::env::current_exe()
            .map_err(|e| DispatchError::Io(format!("cannot locate the worker executable: {e}")))?,
    };

    // Spawn the local workers; the first one carries the chaos flag.
    let mut procs: Vec<WorkerProc> = Vec::new();
    let mut spawned = 0usize;
    let mut chaos = cfg.chaos;
    for wp in plan.local_workers() {
        let child = spawn_worker(&exe, &root, wp, cfg, chaos.take())?;
        spawned += 1;
        crate::telemetry::WORKERS_SPAWNED.inc();
        journal.emit(Event::WorkerSpawned {
            worker: wp.id.clone(),
            generation: 1,
        });
        procs.push(WorkerProc {
            plan: wp.clone(),
            child,
            generation: 1,
        });
    }
    let remote: Vec<&WorkerPlan> = plan.remote_workers().collect();
    if !remote.is_empty() {
        eprintln!("{}", plan.render(&root));
    }
    if procs.is_empty() && remote.is_empty() {
        return Err(DispatchError::Worker {
            id: "-".into(),
            message: "the inventory plans zero workers".into(),
        });
    }

    // Monitor: observe leases, reclaim stale ones, respawn dead workers.
    let started = Instant::now();
    let stale_after = Duration::from_millis(cfg.stale_ms.max(1));
    let mut watches: HashMap<(usize, String), LeaseWatch> = HashMap::new();
    let mut missing_last_scan: Vec<usize> = Vec::new();
    let mut reclaimed = 0usize;
    let mut respawned = 0usize;
    let outcome = loop {
        // One directory scan per tick feeds status, lease liveness, the
        // conflict sweep and the missing-job check — metadata round-trips
        // matter on the network filesystems multi-host dispatch targets.
        let files = queue.scan()?;
        let status = queue.status_of(&files);
        if status.all_done() {
            break finish(&root, &queue, &mut procs, &mut journal, &mut tail)?;
        }
        if cfg.timeout_ms > 0 && started.elapsed() > Duration::from_millis(cfg.timeout_ms) {
            kill_all(&mut procs);
            return Err(DispatchError::Timeout {
                done: status.done,
                total: status.total,
            });
        }

        // Lease liveness, by observed content change.
        let now = Instant::now();
        watches.retain(|(job, worker), _| {
            files
                .get(job)
                .is_some_and(|f| !f.done && f.claims.iter().any(|w| w == worker))
        });
        for (job, f) in &files {
            if f.done {
                continue;
            }
            for worker in &f.claims {
                let Some(content) = queue.read_claim(*job, worker)? else {
                    continue;
                };
                let key = (*job, worker.clone());
                let watch = watches.entry(key).or_insert_with(|| LeaseWatch {
                    content: String::new(),
                    changed: now,
                });
                if watch.content != content {
                    watch.content = content;
                    watch.changed = now;
                } else if now.duration_since(watch.changed) > stale_after
                    && queue.reclaim(*job, worker)?
                {
                    eprintln!(
                        "dispatch: reclaimed job {job} from silent worker `{worker}` \
                         (no heartbeat for {} ms)",
                        now.duration_since(watch.changed).as_millis()
                    );
                    journal.emit(Event::LeaseReclaimed {
                        job: *job as u64,
                        worker: worker.clone(),
                    });
                    reclaimed += 1;
                }
            }
        }
        let swept = queue.sweep_conflicts_of(&files);
        if swept > 0 {
            journal.emit(Event::ConflictsSwept {
                removed: swept as u64,
            });
        }

        notice_adoptions(&mut tail);

        // A job with no file in any state was deleted externally (a rename
        // in flight can hide a job for one scan, never two): re-seed its
        // todo so the campaign can still complete.
        let missing_now: Vec<usize> = (0..queue.shard_count())
            .filter(|job| !files.contains_key(job))
            .collect();
        for job in &missing_now {
            if missing_last_scan.contains(job) {
                eprintln!("dispatch: job {job} lost all queue files; re-seeding its todo");
                queue.reseed(*job)?;
                journal.emit(Event::JobReseeded { job: *job as u64 });
            }
        }
        missing_last_scan = missing_now;

        // Worker process lifecycle.
        let mut exhausted: Option<(String, String)> = None;
        for proc in &mut procs {
            let Some(exit) = proc
                .child
                .try_wait()
                .map_err(|e| DispatchError::Io(format!("waiting on worker: {e}")))?
            else {
                continue;
            };
            let status_now = queue.status()?;
            if status_now.all_done() {
                continue; // Finished pool winds down on its own.
            }
            // The dying process's id: the base plan id for generation 1,
            // the `-r<n>` respawn id afterwards.
            let current_id = if proc.generation == 1 {
                proc.plan.id.clone()
            } else {
                format!("{}-r{}", proc.plan.id, proc.generation - 1)
            };
            journal.emit(Event::WorkerDied {
                worker: current_id.clone(),
                exit: exit.to_string(),
            });
            if proc.generation > cfg.max_respawns {
                exhausted = Some((
                    proc.plan.id.clone(),
                    format!(
                        "died with {exit} and exhausted its {} respawns \
                         (campaign at {status_now})",
                        cfg.max_respawns
                    ),
                ));
                break;
            }
            eprintln!(
                "dispatch: worker `{}` exited with {exit} and {status_now}; respawning",
                proc.plan.id
            );
            // A fresh id per generation keeps claim files of the dead
            // process distinguishable from the replacement's.
            let mut plan = proc.plan.clone();
            plan.id = format!("{}-r{}", proc.plan.id, proc.generation);
            let child = spawn_worker(&exe, &root, &plan, cfg, None)?;
            journal.emit(Event::WorkerRespawned {
                worker: current_id,
                replacement: plan.id.clone(),
            });
            journal.emit(Event::WorkerSpawned {
                worker: plan.id.clone(),
                generation: proc.generation as u64 + 1,
            });
            proc.child = child;
            proc.generation += 1;
            spawned += 1;
            respawned += 1;
            crate::telemetry::WORKERS_SPAWNED.inc();
            crate::telemetry::WORKERS_RESPAWNED.inc();
        }
        if let Some((id, message)) = exhausted {
            kill_all(&mut procs);
            return Err(DispatchError::Worker { id, message });
        }

        std::thread::sleep(Duration::from_millis(cfg.poll_ms.max(1)));
    };

    Ok(DispatchReport {
        outcome,
        root,
        plan,
        spawned,
        respawned,
        reclaimed,
        cache_written,
    })
}

fn spawn_worker(
    exe: &Path,
    root: &Path,
    plan: &WorkerPlan,
    cfg: &DispatchConfig,
    chaos: Option<ChaosPhase>,
) -> Result<Child, DispatchError> {
    let threads = cfg.threads_override.unwrap_or(plan.threads).max(1);
    let mut cmd = Command::new(exe);
    cmd.arg("worker")
        .arg(root)
        .arg("--worker-id")
        .arg(&plan.id)
        .arg("--threads")
        .arg(threads.to_string())
        .arg("--beat-ms")
        .arg(cfg.beat_ms.to_string())
        .arg("--poll-ms")
        .arg(cfg.poll_ms.to_string())
        .arg("--parent-pid")
        .arg(std::process::id().to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    if let Some(phase) = chaos {
        cmd.arg("--chaos").arg(phase.as_str());
    }
    cmd.spawn().map_err(|e| DispatchError::Worker {
        id: plan.id.clone(),
        message: format!("failed to spawn {exe:?}: {e}"),
    })
}

/// All jobs are done: let workers drain, then merge every shard file under
/// the campaign root.
fn finish(
    root: &Path,
    queue: &WorkQueue,
    procs: &mut Vec<WorkerProc>,
    journal: &mut Journal,
    tail: &mut JournalTail,
) -> Result<SpecOutcome, DispatchError> {
    // Workers exit by themselves once they observe the all-done queue;
    // give them a moment, then insist.
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        procs.retain_mut(|p| matches!(p.child.try_wait(), Ok(None)));
        if procs.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    kill_all(procs);
    let swept = queue.sweep_conflicts()?;
    if swept > 0 {
        journal.emit(Event::ConflictsSwept {
            removed: swept as u64,
        });
    }
    // One last tail drain so adoptions landing in the final beat still get
    // their notice before the merge summary.
    notice_adoptions(tail);

    let merged = merge_root(root)?;
    journal.emit(Event::MergeCompleted {
        shard_files: merged.shard_files as u64,
        records: merged.outcome.spec.grid().len(),
    });
    Ok(merged.outcome)
}

/// Surfaces the worker-side journal events worth a live notice: partial
/// shard files adopted from dead workers.
fn notice_adoptions(tail: &mut JournalTail) {
    for (writer, event) in tail.poll() {
        if let Event::AdoptedPartial {
            job,
            donor,
            records,
            ..
        } = event
        {
            eprintln!(
                "dispatch: worker `{writer}` adopted {records} committed record(s) \
                 from dead worker `{donor}` for job {job}"
            );
        }
    }
}

fn kill_all(procs: &mut Vec<WorkerProc>) {
    for p in procs.iter_mut() {
        let _ = p.child.kill();
        let _ = p.child.wait();
    }
    procs.clear();
}

/// Every `*.jsonl` under `dir`, descending one level into the per-worker
/// subdirectories, name-sorted for deterministic merge input order. Each
/// directory level delegates to [`collect_shard_files`] so "what counts as
/// a shard file" has exactly one definition.
pub fn collect_shard_files_recursive(dir: &Path) -> Result<Vec<PathBuf>, DispatchError> {
    let mut out = collect_shard_files(dir)?;
    let entries = fs::read_dir(dir).map_err(|e| DispatchError::Io(format!("{dir:?}: {e}")))?;
    for entry in entries {
        let entry = entry.map_err(|e| DispatchError::Io(e.to_string()))?;
        let path = entry.path();
        if path.is_dir() {
            out.extend(collect_shard_files(&path)?);
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rats_experiments::spec::SuiteSpec;

    #[test]
    fn campaign_roots_are_hash_keyed() {
        let a = ExperimentSpec::naive("my run", "chti", SuiteSpec::Mini, 1);
        let mut b = a.clone();
        b.seed = 2;
        let out = Path::new("/tmp/x");
        let ra = campaign_root(out, &a);
        let rb = campaign_root(out, &b);
        assert_ne!(ra, rb, "different campaigns, different roots");
        assert!(ra.to_string_lossy().contains("my-run-"));
        // Execution-only fields do not move the root.
        let mut c = a.clone();
        c.threads = Some(7);
        assert_eq!(campaign_root(out, &c), ra);
    }

    #[test]
    fn dispatch_rejects_stale_inside_the_beat_period() {
        let spec = ExperimentSpec::naive("s", "chti", SuiteSpec::Mini, 1);
        let mut cfg = DispatchConfig::new(
            std::env::temp_dir().join("rats-dispatch-stale"),
            HostInventory::localhost(2, 1),
        );
        cfg.beat_ms = 1000;
        cfg.stale_ms = 500; // healthy leases would be reclaimed between beats
        match dispatch(&spec, &cfg) {
            Err(DispatchError::Spec(e)) => {
                assert!(e.to_string().contains("stale-ms"), "{e}")
            }
            other => panic!("expected a stale-ms validation error, got {other:?}"),
        }
    }

    #[test]
    fn dispatch_rejects_pre_sharded_specs() {
        let mut spec = ExperimentSpec::naive("s", "chti", SuiteSpec::Mini, 1);
        spec.shard = Some(rats_experiments::grid::ShardSpec::new(1, 3));
        let cfg = DispatchConfig::new(
            std::env::temp_dir().join("rats-dispatch-reject"),
            HostInventory::localhost(2, 1),
        );
        assert!(matches!(dispatch(&spec, &cfg), Err(DispatchError::Spec(_))));
    }
}
