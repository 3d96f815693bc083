//! Read-only campaign observability: `campaign status`.
//!
//! A long paper-suite dispatch runs for hours across many worker
//! processes; the only ground truth of its progress is the queue directory.
//! [`campaign_status`] scans it **without mutating anything** — no
//! reclaims, no sweeps, no reseeds — and reports per-job state
//! (todo/claimed/done), which leases look stale, and a completed/total
//! progress line. Safe to run at any time, from any host that mounts the
//! campaign root, while the dispatcher and workers are live.
//!
//! When the campaign has an event journal (`<root>/journal/`, written by
//! journal-aware dispatchers and workers), staleness and progress come
//! from it: a lease is stale when its holder has emitted no event within
//! the threshold, and `job-finished` timing events yield a mean per-job
//! duration, an ETA and a completion throughput. Campaigns without a
//! journal (older builds, or a removed directory) fall back to the
//! original mtime heuristic: the claim file's mtime against the local
//! clock. Either way a lease flagged stale by `status` is a hint to look
//! closer, not proof of death — the dispatcher's reclaim logic watches
//! lease *content change* over time and trusts no cross-host clock.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use rats_journal::{Event, JobView as Live};
use serde::{Serialize, Value};

use crate::queue::{JobFiles, QueueStatus, WorkQueue};
use crate::worker::load_root_spec;
use crate::DispatchError;

/// One job's observed state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobView {
    /// Waiting to be claimed.
    Todo,
    /// Leased; `stale` leases have not changed for longer than the
    /// threshold (by local-clock mtime — advisory only).
    Claimed {
        /// Lease holders (normally one; more means a conflict in flight).
        workers: Vec<String>,
        /// Whether every claim file's mtime is older than the threshold.
        stale: bool,
    },
    /// Completed.
    Done,
    /// No file in any state (a rename mid-flight, or external deletion).
    Missing,
}

/// The scan result: aggregate counts plus one [`JobView`] per job.
#[derive(Debug, Clone)]
pub struct CampaignStatus {
    /// Campaign name (from the root's spec document).
    pub name: String,
    /// Suite tag.
    pub suite: String,
    /// Workload seed.
    pub seed: u64,
    /// Spec hash (the queue's identity key).
    pub spec_hash: String,
    /// Aggregate queue counts, derived from [`Self::jobs`] so the summary
    /// can never contradict the per-job list. Unlike the raw
    /// [`WorkQueue::status_of`] aggregate (which lumps file-less jobs in
    /// with claimed, the dispatcher's conservative reading), `missing`
    /// jobs are counted on their own here.
    pub queue: QueueStatus,
    /// Jobs with no file in any state (a rename mid-flight, or external
    /// deletion the dispatcher would re-seed).
    pub missing: usize,
    /// Per-job state, indexed by shard job number.
    pub jobs: Vec<JobView>,
    /// Number of leased jobs whose every claim looks stale.
    pub stale: usize,
    /// Timing and fault intelligence from the event journal, when the
    /// campaign has one (`None`: no journal, mtime heuristics were used).
    pub journal: Option<JournalInsight>,
    /// The campaign root that was scanned.
    pub root: PathBuf,
}

/// Progress intelligence derived from the campaign's event journal:
/// real per-job timing instead of mtime guesswork.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalInsight {
    /// Events across all verified segments.
    pub events: usize,
    /// Mean wall clock per completed shard job (`job-finished` events).
    pub mean_job_ms: Option<u64>,
    /// Estimated remaining wall clock: mean job duration × jobs remaining
    /// ÷ workers currently holding leases.
    pub eta_ms: Option<u64>,
    /// Completion throughput over the observed `job-done` span.
    pub jobs_per_min: Option<f64>,
    /// Leases reclaimed so far (from the dispatcher's events).
    pub reclaimed: u64,
    /// Partial shard files adopted from dead predecessors.
    pub adopted: u64,
}

impl CampaignStatus {
    /// Fraction of jobs completed, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.queue.total == 0 {
            1.0
        } else {
            self.queue.done as f64 / self.queue.total as f64
        }
    }

    /// Machine-readable form of the report, as one JSON document. Shared
    /// by `campaign status --json` and the server's `status` response so
    /// the two can never drift apart.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.serialize()).expect("status reports always serialize")
    }
}

impl Serialize for JobView {
    fn serialize(&self) -> Value {
        let mut t = Value::table();
        match self {
            JobView::Todo => t.insert("state", "todo"),
            JobView::Done => t.insert("state", "done"),
            JobView::Missing => t.insert("state", "missing"),
            JobView::Claimed { workers, stale } => t
                .insert("state", "claimed")
                .insert("workers", workers)
                .insert("stale", stale),
        };
        t
    }
}

impl Serialize for JournalInsight {
    fn serialize(&self) -> Value {
        let mut t = Value::table();
        t.insert("events", &self.events)
            .insert("mean_job_ms", &self.mean_job_ms)
            .insert("eta_ms", &self.eta_ms)
            .insert("jobs_per_min", &self.jobs_per_min)
            .insert("reclaimed", &self.reclaimed)
            .insert("adopted", &self.adopted);
        t
    }
}

impl Serialize for CampaignStatus {
    fn serialize(&self) -> Value {
        let jobs: Vec<Value> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(job, view)| {
                let mut t = view.serialize();
                t.insert("job", &job);
                t
            })
            .collect();
        let mut t = Value::table();
        t.insert("name", &self.name)
            .insert("suite", &self.suite)
            .insert("seed", &self.seed)
            .insert("spec_hash", &self.spec_hash)
            .insert("root", &self.root.display().to_string())
            .insert("total", &self.queue.total)
            .insert("todo", &self.queue.todo)
            .insert("claimed", &self.queue.claimed)
            .insert("done", &self.queue.done)
            .insert("missing", &self.missing)
            .insert("stale", &self.stale)
            .insert("progress", &self.progress())
            .insert("jobs", &jobs)
            .insert("journal", &self.journal);
        t
    }
}

impl fmt::Display for CampaignStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "campaign `{}` — suite {}, seed {}, spec {} at {:?}",
            self.name, self.suite, self.seed, self.spec_hash, self.root
        )?;
        for (job, view) in self.jobs.iter().enumerate() {
            let line = match view {
                JobView::Todo => "todo".to_string(),
                JobView::Done => "done".to_string(),
                JobView::Missing => "missing (rename in flight or externally deleted)".into(),
                JobView::Claimed { workers, stale } => format!(
                    "claimed by {}{}",
                    workers.join(", "),
                    if *stale { "  [stale?]" } else { "" }
                ),
            };
            writeln!(f, "  job {job:>4}/{}  {line}", self.jobs.len())?;
        }
        if self.stale > 0 {
            if self.journal.is_some() {
                writeln!(
                    f,
                    "stale leases: {} (journal-based hint: the holder emitted no \
                     event within the threshold)",
                    self.stale
                )?;
            } else {
                writeln!(
                    f,
                    "stale leases: {} (mtime-based hint; the dispatcher reclaims by \
                     observed content change)",
                    self.stale
                )?;
            }
        }
        write!(
            f,
            "progress: {}/{} done ({:.1} %), {} leased, {} todo",
            self.queue.done,
            self.queue.total,
            self.progress() * 100.0,
            self.queue.claimed,
            self.queue.todo
        )?;
        if self.missing > 0 {
            write!(f, ", {} missing", self.missing)?;
        }
        if let Some(j) = &self.journal {
            write!(f, "\njournal: {} event(s)", j.events)?;
            if j.reclaimed > 0 {
                write!(f, ", {} lease(s) reclaimed", j.reclaimed)?;
            }
            if j.adopted > 0 {
                write!(f, ", {} partial shard(s) adopted", j.adopted)?;
            }
            if let Some(mean) = j.mean_job_ms {
                write!(f, "; mean job {:.1} s", mean as f64 / 1000.0)?;
            }
            if self.queue.done < self.queue.total {
                if let Some(eta) = j.eta_ms {
                    write!(f, ", ETA ~{:.1} s", eta as f64 / 1000.0)?;
                }
            }
            if let Some(rate) = j.jobs_per_min {
                write!(f, " ({rate:.1} jobs/min)")?;
            }
        }
        Ok(())
    }
}

/// Scans the campaign rooted at `root` (a directory created by `campaign
/// dispatch`, holding `spec.json` and `queue/`). Claims whose file mtime is
/// older than `stale_ms` are flagged stale. Strictly read-only.
pub fn campaign_status(root: &Path, stale_ms: u64) -> Result<CampaignStatus, DispatchError> {
    let spec = load_root_spec(root)?;
    let queue = WorkQueue::attach(root, &spec)?;
    let files = queue.scan()?;
    let now = SystemTime::now();
    let is_stale = |path: &Path| -> bool {
        fs::metadata(path)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| now.duration_since(mtime).ok())
            .is_some_and(|age| age.as_millis() > u128::from(stale_ms))
    };

    // Journal enrichment (still strictly read-only): a verified journal
    // replaces the mtime staleness heuristic with per-worker event
    // activity and yields timing intelligence. Unreadable or tampered
    // journals are reported and ignored — status never fails over
    // provenance.
    let segments = match rats_journal::read_journal(root) {
        Ok(segs) => segs,
        Err(e) => {
            eprintln!("status: ignoring the event journal ({e})");
            Vec::new()
        }
    };
    let last_event_by_writer: BTreeMap<&str, u64> = segments
        .iter()
        .filter_map(|s| s.records.last().map(|rec| (s.writer.as_str(), rec.ms)))
        .collect();
    // Reference clock for event ages: the local clock, advanced to the
    // newest event seen so a fast worker clock cannot make everyone else
    // look stale.
    let local_ms = now
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let now_ref = last_event_by_writer
        .values()
        .copied()
        .max()
        .map_or(local_ms, |newest| newest.max(local_ms));

    let mut jobs = Vec::with_capacity(queue.shard_count());
    let mut stale = 0usize;
    for job in 0..queue.shard_count() {
        let view = match files.get(&job).map_or(Live::Missing, JobFiles::view) {
            Live::Done => JobView::Done,
            Live::Todo => JobView::Todo,
            Live::Claimed(workers) => {
                let all_stale = workers.iter().all(|w| {
                    match last_event_by_writer.get(w.as_str()) {
                        // Journal-based: no event from the holder within
                        // the threshold.
                        Some(&last) if !segments.is_empty() => {
                            now_ref.saturating_sub(last) > stale_ms
                        }
                        // Worker unknown to the journal (manual worker,
                        // older build): fall back to the claim mtime.
                        _ => is_stale(&queue.job_path(job, &format!("claim-{w}"))),
                    }
                });
                if all_stale {
                    stale += 1;
                }
                JobView::Claimed {
                    workers,
                    stale: all_stale,
                }
            }
            Live::Missing => JobView::Missing,
        };
        jobs.push(view);
    }
    // Aggregate counts come from the views just built, so the report's
    // summary and its per-job list always agree (file-less jobs count as
    // missing, not as claimed).
    let count = |want: fn(&JobView) -> bool| jobs.iter().filter(|v| want(v)).count();
    let aggregate = QueueStatus {
        total: jobs.len(),
        todo: count(|v| matches!(v, JobView::Todo)),
        claimed: count(|v| matches!(v, JobView::Claimed { .. })),
        done: count(|v| matches!(v, JobView::Done)),
    };

    let journal = if segments.is_empty() {
        None
    } else {
        let events: usize = segments.iter().map(|s| s.records.len()).sum();
        let mut finished: Vec<u64> = Vec::new();
        let mut done_stamps: Vec<u64> = Vec::new();
        let mut reclaimed = 0u64;
        let mut adopted = 0u64;
        for seg in &segments {
            for rec in &seg.records {
                match &rec.event {
                    Event::JobFinished { elapsed_ms, .. } => finished.push(*elapsed_ms),
                    Event::JobDone { .. } => done_stamps.push(rec.ms),
                    Event::LeaseReclaimed { .. } => reclaimed += 1,
                    Event::AdoptedPartial { .. } => adopted += 1,
                    _ => {}
                }
            }
        }
        let mean_job_ms =
            (!finished.is_empty()).then(|| finished.iter().sum::<u64>() / finished.len() as u64);
        let active_workers: BTreeSet<&String> = jobs
            .iter()
            .filter_map(|v| match v {
                JobView::Claimed { workers, .. } => Some(workers.iter()),
                _ => None,
            })
            .flatten()
            .collect();
        let remaining = (aggregate.total - aggregate.done) as u64;
        let eta_ms = mean_job_ms.map(|mean| mean * remaining / active_workers.len().max(1) as u64);
        done_stamps.sort_unstable();
        let jobs_per_min = match (done_stamps.first(), done_stamps.last()) {
            (Some(&first), Some(&last)) if last > first => {
                Some((done_stamps.len() as f64 - 1.0) * 60_000.0 / (last - first) as f64)
            }
            _ => None,
        };
        Some(JournalInsight {
            events,
            mean_job_ms,
            eta_ms,
            jobs_per_min,
            reclaimed,
            adopted,
        })
    };
    Ok(CampaignStatus {
        name: spec.name.clone(),
        suite: spec.suite.name(),
        seed: spec.seed,
        spec_hash: spec.spec_hash(),
        queue: aggregate,
        missing: count(|v| matches!(v, JobView::Missing)),
        jobs,
        stale,
        journal,
        root: root.to_path_buf(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::SPEC_FILE;
    use rats_experiments::spec::{ExperimentSpec, SuiteSpec};

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rats-status-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn status_reports_states_without_mutating() {
        let root = temp_root("basic");
        let spec = ExperimentSpec::naive("st", "grillon", SuiteSpec::Mini, 3);
        fs::write(root.join(SPEC_FILE), format!("{}\n", spec.to_json())).unwrap();
        let queue = WorkQueue::init(&root, &spec, 3).unwrap();
        let lease = queue.claim("w0").unwrap().unwrap();
        let done = queue.claim("w1").unwrap().unwrap();
        queue.mark_done(&done).unwrap();

        let status = campaign_status(&root, 60_000).unwrap();
        assert_eq!(status.queue.total, 3);
        assert_eq!(status.queue.done, 1);
        assert_eq!(status.queue.claimed, 1);
        assert_eq!(status.queue.todo, 1);
        assert_eq!(status.stale, 0, "fresh lease is not stale");
        assert!(matches!(
            &status.jobs[lease.job],
            JobView::Claimed { workers, stale: false } if workers == &vec!["w0".to_string()]
        ));
        assert!((status.progress() - 1.0 / 3.0).abs() < 1e-12);
        let rendered = status.to_string();
        assert!(rendered.contains("claimed by w0"), "{rendered}");
        assert!(rendered.contains("1/3 done"), "{rendered}");

        // A zero threshold flags the live lease as stale — advisory only.
        // (Give the claim file's mtime a moment to age past 0 ms.)
        std::thread::sleep(std::time::Duration::from_millis(30));
        let status = campaign_status(&root, 0).unwrap();
        assert_eq!(status.stale, 1);
        assert!(status.to_string().contains("[stale?]"));

        // The scan mutated nothing: the same queue state is still there.
        let again = campaign_status(&root, 60_000).unwrap();
        assert_eq!(again.queue, status.queue);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_claim_beside_a_todo_reads_as_claimed_everywhere() {
        let root = temp_root("claim-and-todo");
        let spec = ExperimentSpec::naive("ct", "grillon", SuiteSpec::Mini, 5).normalized();
        let (queue, _) = crate::lifecycle::prepare_root(&root, &spec, 2, None).unwrap();
        let mut journal = rats_journal::Journal::open(&root, "w0", &spec.spec_hash());
        journal.emit(Event::QueueInit { jobs: 2 });
        let lease = queue.claim("w0").unwrap().unwrap();
        journal.emit(Event::JobClaimed {
            job: lease.job as u64,
            worker: "w0".into(),
        });
        // A reclaim the holder has not noticed yet: a todo beside the claim.
        fs::write(queue.job_path(lease.job, "todo"), "{}\n").unwrap();

        let status = campaign_status(&root, 60_000).unwrap();
        assert!(matches!(
            &status.jobs[lease.job],
            JobView::Claimed { workers, .. } if workers == &vec!["w0".to_string()]
        ));
        assert_eq!((status.queue.todo, status.queue.claimed), (1, 1));
        assert_eq!(queue.status().unwrap(), status.queue);
        let check = crate::replay_check(&root).unwrap();
        assert!(check.ok(), "{check}");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn file_less_jobs_count_as_missing_not_leased() {
        let root = temp_root("missing");
        let spec = ExperimentSpec::naive("mi", "grillon", SuiteSpec::Mini, 4);
        fs::write(root.join(SPEC_FILE), format!("{}\n", spec.to_json())).unwrap();
        let queue = WorkQueue::init(&root, &spec, 2).unwrap();
        fs::remove_file(queue.dir().join("job-1-of-2.todo")).unwrap();
        let status = campaign_status(&root, 60_000).unwrap();
        assert_eq!(status.jobs[1], JobView::Missing);
        assert_eq!(status.missing, 1);
        assert_eq!(status.queue.claimed, 0, "missing is not leased");
        let rendered = status.to_string();
        assert!(
            rendered.contains("0 leased, 1 todo, 1 missing"),
            "{rendered}"
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn json_report_matches_the_scan() {
        let root = temp_root("json");
        let spec = ExperimentSpec::naive("js", "grillon", SuiteSpec::Mini, 9);
        fs::write(root.join(SPEC_FILE), format!("{}\n", spec.to_json())).unwrap();
        let queue = WorkQueue::init(&root, &spec, 2).unwrap();
        let done = queue.claim("w0").unwrap().unwrap();
        queue.mark_done(&done).unwrap();

        let status = campaign_status(&root, 60_000).unwrap();
        let parsed: Value = serde_json::from_str(&status.to_json()).expect("valid JSON");
        assert_eq!(
            parsed.field::<String>("spec_hash").unwrap(),
            spec.spec_hash()
        );
        assert_eq!(parsed.field::<usize>("total").unwrap(), 2);
        assert_eq!(parsed.field::<usize>("done").unwrap(), 1);
        assert_eq!(parsed.field::<usize>("todo").unwrap(), 1);
        let jobs: Vec<Value> = parsed.field("jobs").unwrap();
        assert_eq!(jobs.len(), 2);
        let states: Vec<String> = jobs.iter().map(|j| j.field("state").unwrap()).collect();
        assert!(states.contains(&"done".to_string()), "{states:?}");
        assert!(states.contains(&"todo".to_string()), "{states:?}");
        assert_eq!(jobs[done.job].field::<usize>("job").unwrap(), done.job);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn status_rejects_a_rootless_directory() {
        let root = temp_root("empty");
        assert!(campaign_status(&root, 1000).is_err());
        fs::remove_dir_all(&root).unwrap();
    }
}
