//! The campaign-root lifecycle every lease holder shares. The dispatcher,
//! `campaign worker` and `campaign serve` all prepare a root with
//! [`prepare_root`], run its jobs with [`run_lease`] and merge it with
//! [`merge_root`], so they cannot drift apart.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use rats_daggen::suite::Scenario;
use rats_experiments::record::RunRecord;
use rats_experiments::shard::{
    merge_shard_files, parse_shard_file, run_shard_hooked, shard_file_name, ShardHooks, ShardRun,
};
use rats_experiments::spec::{ExperimentSpec, SpecOutcome};
use rats_journal::{log, Event, Journal};

use crate::dispatcher::collect_shard_files_recursive;
use crate::queue::{Lease, WorkQueue};
use crate::worker::{inject_chaos, ChaosPhase, SHARDS_DIR, SPEC_FILE};
use crate::DispatchError;

/// Default heartbeat period of a lease holder, in milliseconds.
pub const BEAT_MS: u64 = 200;

/// Prepares the campaign root for the normalized `spec`, idempotently:
/// `spec.json`, the scenario cache (see [`crate::cache::ensure_cache`])
/// and a `shard_count`-job queue. Returns the queue and whether the cache
/// was written.
pub fn prepare_root(
    root: &Path,
    spec: &ExperimentSpec,
    shard_count: usize,
    population: Option<&[Scenario]>,
) -> Result<(WorkQueue, bool), DispatchError> {
    fs::create_dir_all(root.join(SHARDS_DIR))?;
    log::write_atomic(
        &root.join(SPEC_FILE),
        format!("{}\n", spec.to_json()).as_bytes(),
    )?;
    let cache_written = crate::cache::ensure_cache(root, spec, population)?;
    Ok((WorkQueue::init(root, spec, shard_count)?, cache_written))
}

/// Who holds leases, and how: the per-holder half of [`run_lease`].
#[derive(Debug, Clone)]
pub struct LeaseHolder {
    /// Claim-file suffix and journal writer id.
    pub id: String,
    /// This holder's shard-file directory, `<root>/shards/<dir>`.
    pub shard_dir: PathBuf,
    /// Threads for shard execution.
    pub threads: usize,
    /// Heartbeat period in milliseconds.
    pub beat_ms: u64,
    /// Return other holders' leases on unfinished jobs to todo before
    /// claiming: a foreign lease on a server's own root is a dead server's,
    /// while batch workers leave staleness to the dispatcher's watch.
    pub take_over: bool,
    /// Fault injection on the next claim (see [`ChaosPhase`]).
    pub chaos: Option<ChaosPhase>,
}

/// Claims the lowest todo job of `queue` for `holder` and runs it to the
/// end: adopt partial output, execute the shard with the lease
/// heartbeating, then mark it done. A failed or aborted run returns the
/// job to todo (committed records stay resumable) and journals
/// `lease-reclaimed`. The shard runs with `hooks`, but journals to
/// `journal`. Returns the shard run and whether the job was marked done
/// under this lease; `None` when nothing was claimable.
pub fn run_lease(
    spec: &ExperimentSpec,
    queue: &WorkQueue,
    holder: &mut LeaseHolder,
    journal: &mut Journal,
    hooks: ShardHooks<'_>,
) -> Result<Option<(ShardRun, bool)>, DispatchError> {
    if holder.take_over {
        for (job, f) in queue.scan()?.iter().filter(|(_, f)| !f.done) {
            for worker in &f.claims {
                if queue.reclaim(*job, worker)? {
                    journal.emit(Event::LeaseReclaimed {
                        job: *job as u64,
                        worker: worker.clone(),
                    });
                }
            }
        }
    }
    let Some(lease) = queue.claim(&holder.id)? else {
        return Ok(None);
    };
    // Journal the claim before any chaos injection: a holder that dies
    // right after claiming has still claimed, and its segment must say so
    // for replay to match the live queue.
    journal.emit(Event::JobClaimed {
        job: lease.job as u64,
        worker: lease.worker.clone(),
    });
    let mut shard_spec = spec.clone();
    shard_spec.shard = Some(lease.shard());
    let dir = &holder.shard_dir;
    fs::create_dir_all(dir)?;
    let ShardHooks {
        scenarios,
        on_record,
        allocs,
        pool,
        cancel,
        ..
    } = hooks;
    if let Some(phase) = holder.chaos.take() {
        inject_chaos(phase, &shard_spec, &lease, dir, holder.threads, scenarios)?;
    }
    if let Some((donor, records)) = adopt_partial_output(&shard_spec, dir) {
        journal.emit(Event::AdoptedPartial {
            job: lease.job as u64,
            worker: lease.worker.clone(),
            donor,
            records: records as u64,
        });
    }

    let run = with_heartbeat(&lease, holder.beat_ms, || {
        let hooks = ShardHooks {
            scenarios,
            journal: Some(&mut *journal),
            // Shortens the callback's trait-object lifetime to this call's.
            on_record: on_record.map(|f| f as &mut dyn FnMut(&RunRecord)),
            allocs,
            pool,
            cancel,
        };
        run_shard_hooked(&shard_spec, dir, Some(holder.threads), hooks)
    });
    let (job, worker) = (lease.job as u64, lease.worker.clone());
    let run = match run {
        Ok(run) if !run.aborted => run,
        failed => {
            if queue.reclaim(lease.job, &lease.worker).unwrap_or(false) {
                journal.emit(Event::LeaseReclaimed { job, worker });
            }
            return Ok(Some((failed?, false)));
        }
    };
    let kept = queue.mark_done(&lease)?;
    journal.emit(if kept {
        Event::JobDone { job, worker }
    } else {
        Event::LeaseLost { job, worker }
    });
    Ok(Some((run, kept)))
}

/// Runs `work` while a scoped thread beats `lease` every `beat_ms`. The
/// beater waits on a channel that `work`'s end — return or unwind —
/// disconnects, so it stops at once instead of sleeping out a period.
fn with_heartbeat<T>(lease: &Lease, beat_ms: u64, work: impl FnOnce() -> T) -> T {
    let period = Duration::from_millis(beat_ms.max(1));
    let (done, finished) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let mut beater = lease.clone();
        scope.spawn(move || {
            while finished.recv_timeout(period) == Err(RecvTimeoutError::Timeout) {
                // Lease gone (reclaimed) or unreachable: stop beating; the
                // holder finds out when it marks the job done.
                if !matches!(beater.beat(), Ok(true)) {
                    break;
                }
            }
        });
        let _done = done;
        work()
    })
}

/// Seeds `dir` with the most advanced copy of the shard's file another
/// holder (typically a dead one) left under the same `shards/` directory,
/// so a resumed shard skips the jobs already committed instead of
/// recomputing them. Purely best-effort: on any doubt the copy is
/// discarded and the shard runs from scratch. On success returns the
/// donor's directory name and how many committed records the copy held.
fn adopt_partial_output(shard_spec: &ExperimentSpec, dir: &Path) -> Option<(String, usize)> {
    let file_name = shard_file_name(shard_spec);
    let mine = dir.join(&file_name);
    if mine.exists() {
        return None; // Our own previous attempt; run_shard resumes it directly.
    }
    let entries = fs::read_dir(dir.parent()?).ok()?;
    let expected_hash = shard_spec.spec_hash();
    let mut best: Option<(usize, PathBuf, Vec<u8>)> = None;
    for entry in entries.flatten() {
        let candidate = entry.path().join(&file_name);
        if entry.path() == dir {
            continue;
        }
        // The bytes read here are the bytes copied: a donor still
        // appending cannot tear the copy (a torn *final* line is fine —
        // the shard engine drops and re-runs it).
        let Ok(bytes) = fs::read(&candidate) else {
            continue;
        };
        let Ok(Some(loaded)) = parse_shard_file(&candidate, &bytes) else {
            continue;
        };
        let records = loaded.records.len();
        if loaded.manifest.spec_hash == expected_hash
            && loaded.manifest.shard == shard_spec.shard.unwrap_or_default()
            && best.as_ref().is_none_or(|(n, ..)| records > *n)
        {
            best = Some((records, candidate, bytes));
        }
    }
    let (records, source, bytes) = best?;
    let donor = source.parent()?.file_name()?.to_string_lossy().into_owned();
    log::write_atomic(&mine, &bytes).ok()?;
    Some((donor, records))
}

/// A merged campaign root.
#[derive(Debug)]
pub struct RootMerge {
    /// The merged outcome (bit-identical to `spec.run()`).
    pub outcome: SpecOutcome,
    /// Every job's record, in job-id order.
    pub records: Vec<RunRecord>,
    /// Shard files merged.
    pub shard_files: usize,
}

/// Merges every shard file under `root`, validating coverage, duplicates
/// and spec identity, and reads each file once.
///
/// A pre-manifest wreck (a file whose manifest line never committed, see
/// [`parse_shard_file`]) holds no record, so it is skipped rather than
/// wedging the merge; coverage validation still catches any job that is
/// missing.
pub fn merge_root(root: &Path) -> Result<RootMerge, DispatchError> {
    let mut files = Vec::new();
    for path in collect_shard_files_recursive(&root.join(SHARDS_DIR))? {
        let bytes = fs::read(&path).map_err(|e| DispatchError::Io(format!("{path:?}: {e}")))?;
        match parse_shard_file(&path, &bytes)? {
            Some(file) => files.push((path, file)),
            None => eprintln!("dispatch: skipping pre-manifest shard wreck {path:?}"),
        }
    }
    let shard_files = files.len();
    let (outcome, records) = merge_shard_files(files)?;
    Ok(RootMerge {
        outcome,
        records,
        shard_files,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rats_experiments::spec::SuiteSpec;
    use std::sync::atomic::AtomicBool;
    use std::time::Instant;

    fn prepared(tag: &str) -> (PathBuf, ExperimentSpec, WorkQueue, Journal) {
        let root =
            std::env::temp_dir().join(format!("rats-lifecycle-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let spec = ExperimentSpec::naive("life", "chti", SuiteSpec::Mini, 3).normalized();
        let (queue, cache_written) = prepare_root(&root, &spec, 1, None).unwrap();
        assert!(cache_written);
        let journal = Journal::open(&root, "h", &spec.spec_hash());
        (root, spec, queue, journal)
    }

    fn holder(root: &Path, beat_ms: u64) -> LeaseHolder {
        LeaseHolder {
            id: "h".into(),
            shard_dir: root.join(SHARDS_DIR).join("h"),
            threads: 1,
            beat_ms,
            take_over: false,
            chaos: None,
        }
    }

    fn reclaimed(root: &Path, worker: &str) -> bool {
        let segments = rats_journal::read_journal(root).unwrap();
        let reclaim = Event::LeaseReclaimed {
            job: 0,
            worker: worker.into(),
        };
        segments
            .iter()
            .flat_map(|s| &s.records)
            .any(|r| r.event == reclaim)
    }

    #[test]
    fn a_lease_ends_without_waiting_out_its_beat_period() {
        let (root, spec, queue, mut journal) = prepared("prompt");
        let mut slow = holder(&root, 60_000);
        let started = Instant::now();
        let (run, kept) = run_lease(
            &spec,
            &queue,
            &mut slow,
            &mut journal,
            ShardHooks::default(),
        )
        .unwrap()
        .expect("the only job is claimable");
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the beater held the lease for {:?}",
            started.elapsed()
        );
        assert!(kept && !run.aborted);
        let again = run_lease(
            &spec,
            &queue,
            &mut slow,
            &mut journal,
            ShardHooks::default(),
        );
        assert!(
            again.unwrap().is_none(),
            "a finished queue has nothing left"
        );
        let merged = merge_root(&root).unwrap();
        assert_eq!(merged.records.len() as u64, spec.grid().len());
        assert_eq!(merged.outcome.render(), spec.run().unwrap().render());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn aborted_runs_and_foreign_leases_return_to_todo() {
        let (root, spec, queue, mut journal) = prepared("abort");
        let cancel = AtomicBool::new(true);
        let hooks = ShardHooks {
            cancel: Some(&cancel),
            ..ShardHooks::default()
        };
        let mut heir = holder(&root, BEAT_MS);
        let (run, kept) = run_lease(&spec, &queue, &mut heir, &mut journal, hooks)
            .unwrap()
            .unwrap();
        assert!(run.aborted && !kept);
        assert_eq!(queue.status().unwrap().todo, 1);
        assert!(reclaimed(&root, "h"), "the abort is journaled");

        // A foreign lease is left alone unless the holder takes over.
        queue.claim("dead").unwrap().unwrap();
        let run = run_lease(
            &spec,
            &queue,
            &mut heir,
            &mut journal,
            ShardHooks::default(),
        );
        assert!(run.unwrap().is_none());
        heir.take_over = true;
        let (_, kept) = run_lease(
            &spec,
            &queue,
            &mut heir,
            &mut journal,
            ShardHooks::default(),
        )
        .unwrap()
        .unwrap();
        assert!(kept);
        assert!(reclaimed(&root, "dead"), "the take-over is journaled");
        assert!(queue.status().unwrap().all_done());
        fs::remove_dir_all(&root).unwrap();
    }
}
