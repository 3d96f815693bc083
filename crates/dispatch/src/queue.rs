//! The filesystem work queue: shard jobs as files, claimed by atomic
//! rename, kept alive by heartbeat rewrites.
//!
//! Layout, under a campaign root directory (shared between every worker,
//! locally or over a network filesystem):
//!
//! ```text
//! <root>/queue/meta.json                 queue identity: spec hash, seed,
//!                                        shard count
//! <root>/queue/job-<i>-of-<n>.todo       unclaimed shard job
//! <root>/queue/job-<i>-of-<n>.claim-<w>  leased by worker <w>; the file's
//!                                        content is the lease (heartbeats
//!                                        rewrite it)
//! <root>/queue/job-<i>-of-<n>.done       completed shard job
//! ```
//!
//! Every transition is a single `rename(2)`, which is atomic on POSIX
//! filesystems: two workers racing for the same `.todo` both call rename,
//! exactly one succeeds, the loser sees `ENOENT` and moves on — no lock
//! server, no fsync ordering between processes, no shared memory. A lease
//! carries a monotonically increasing beat counter; liveness is judged by
//! *observed content change* (the dispatcher remembers when it last saw the
//! content move), so nothing depends on clocks being synchronized across
//! hosts.
//!
//! Completion beats everything: once a `.done` file exists for a job, stray
//! `.todo`/`.claim` files for the same job (left by a zombie worker's last
//! heartbeat racing a reclaim) are garbage the dispatcher sweeps up.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use rats_experiments::grid::ShardSpec;
use rats_experiments::spec::ExperimentSpec;
use rats_journal::{log, JobView};
use serde::{Deserialize, Serialize, Value};

/// Name of the queue subdirectory under the campaign root.
pub const QUEUE_DIR: &str = "queue";

/// Name of the queue identity file inside the queue directory.
pub const META_FILE: &str = "meta.json";

/// Errors from queue operations.
#[derive(Debug)]
pub struct QueueError {
    message: String,
}

impl QueueError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "work queue: {}", self.message)
    }
}

impl std::error::Error for QueueError {}

fn io_err(context: &str, e: std::io::Error) -> QueueError {
    QueueError::new(format!("{context}: {e}"))
}

/// The queue's identity line, written once at init.
#[derive(Debug, Clone, PartialEq)]
struct QueueMeta {
    spec_hash: String,
    seed: u64,
    shard_count: usize,
}

impl Serialize for QueueMeta {
    fn serialize(&self) -> Value {
        let mut t = Value::table();
        t.insert("kind", "queue-meta")
            .insert("spec_hash", &self.spec_hash)
            .insert("seed", &self.seed)
            .insert("shard_count", &self.shard_count);
        t
    }
}

impl Deserialize for QueueMeta {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let kind: String = v.field("kind")?;
        if kind != "queue-meta" {
            return Err(serde::Error::new(format!(
                "expected a queue-meta document, got kind `{kind}`"
            )));
        }
        Ok(Self {
            spec_hash: v.field("spec_hash")?,
            seed: v.field("seed")?,
            shard_count: v.field("shard_count")?,
        })
    }
}

/// The state a job file encodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Unclaimed, ready to be picked up.
    Todo,
    /// Leased by the named worker.
    Claimed {
        /// The worker id embedded in the claim file name.
        worker: String,
    },
    /// Completed.
    Done,
}

/// A live lease on one shard job, held by one worker process.
#[derive(Debug, Clone)]
pub struct Lease {
    /// Shard index of the job.
    pub job: usize,
    /// Total shard count of the campaign.
    pub count: usize,
    /// The holder's worker id.
    pub worker: String,
    /// Process id recorded in the lease (diagnostics only).
    pub pid: u32,
    path: PathBuf,
    beats: u64,
}

impl Lease {
    /// The shard coordinates this lease covers.
    pub fn shard(&self) -> ShardSpec {
        ShardSpec::new(self.job, self.count)
    }

    /// The lease file's path (content changes on every beat).
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn body(&self) -> String {
        let mut t = Value::table();
        t.insert("kind", "lease")
            .insert("job", &self.job)
            .insert("count", &self.count)
            .insert("worker", &self.worker)
            .insert("pid", &u64::from(self.pid))
            .insert("beats", &self.beats);
        serde_json::to_string(&t).expect("leases always serialize")
    }

    /// Rewrites the lease file with an incremented beat counter (via a
    /// temp file + rename, so readers never see a torn lease). Returns
    /// `false` — without beating — when the claim file is gone: the lease
    /// was reclaimed, and the holder should treat it as lost.
    pub fn beat(&mut self) -> Result<bool, QueueError> {
        if !self.path.exists() {
            return Ok(false);
        }
        self.beats += 1;
        write_atomically(&self.path, &self.body())?;
        crate::telemetry::LEASE_RENEWALS.inc();
        Ok(true)
    }
}

/// One job's file presence, as observed by a directory scan.
#[derive(Debug, Clone, Default)]
pub struct JobFiles {
    /// A `.todo` file exists.
    pub todo: bool,
    /// Claim files and their holders (normally at most one).
    pub claims: Vec<String>,
    /// A `.done` file exists.
    pub done: bool,
}

impl JobFiles {
    /// The job's state under the journal fold's done-wins order: done, then
    /// claimed (a todo beside a claim is a reclaim the holder has not
    /// noticed yet), then todo. Holders are sorted.
    pub fn view(&self) -> JobView {
        if self.done {
            JobView::Done
        } else if !self.claims.is_empty() {
            let mut workers = self.claims.clone();
            workers.sort();
            JobView::Claimed(workers)
        } else if self.todo {
            JobView::Todo
        } else {
            JobView::Missing
        }
    }
}

/// Aggregate queue state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueStatus {
    /// Total jobs the queue was initialized with.
    pub total: usize,
    /// Jobs waiting to be claimed.
    pub todo: usize,
    /// Jobs currently leased.
    pub claimed: usize,
    /// Jobs completed.
    pub done: usize,
}

impl QueueStatus {
    /// Whether every job is done.
    pub fn all_done(&self) -> bool {
        self.done >= self.total
    }
}

impl fmt::Display for QueueStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} done, {} leased, {} todo",
            self.done, self.total, self.claimed, self.todo
        )
    }
}

/// A handle on a campaign's work queue (see the module docs for the
/// on-disk protocol).
#[derive(Debug, Clone)]
pub struct WorkQueue {
    dir: PathBuf,
    spec_hash: String,
    shard_count: usize,
}

impl WorkQueue {
    /// Creates (or idempotently re-opens) the queue for `spec` under
    /// `root`, with one job per shard of an `shard_count`-way split.
    /// Re-initializing an existing queue validates identity and leaves
    /// claimed/done jobs untouched, so a crashed dispatcher can simply be
    /// re-run.
    pub fn init(
        root: &Path,
        spec: &ExperimentSpec,
        shard_count: usize,
    ) -> Result<Self, QueueError> {
        if shard_count == 0 {
            return Err(QueueError::new("shard count must be at least 1"));
        }
        let dir = root.join(QUEUE_DIR);
        fs::create_dir_all(&dir).map_err(|e| io_err("creating queue directory", e))?;
        let meta = QueueMeta {
            spec_hash: spec.spec_hash(),
            seed: spec.seed,
            shard_count,
        };
        let meta_path = dir.join(META_FILE);
        if meta_path.exists() {
            let existing = read_meta(&meta_path)?;
            if existing.spec_hash != meta.spec_hash || existing.seed != meta.seed {
                return Err(QueueError::new(format!(
                    "queue at {dir:?} belongs to a different campaign \
                     (spec hash {} / seed {} on disk, {} / {} requested)",
                    existing.spec_hash, existing.seed, meta.spec_hash, meta.seed
                )));
            }
            if existing.shard_count != shard_count {
                return Err(QueueError::new(format!(
                    "queue at {dir:?} was planned with {} shards, not {shard_count} \
                     (finish or delete it before replanning)",
                    existing.shard_count
                )));
            }
        } else {
            let body = serde_json::to_string(&meta).expect("queue meta always serializes");
            write_atomically(&meta_path, &body)?;
        }
        let queue = Self {
            dir,
            spec_hash: meta.spec_hash,
            shard_count,
        };
        // Seed the todo files for jobs that have no file in any state yet.
        let files = queue.scan()?;
        for job in 0..shard_count {
            let f = files.get(&job);
            let present = f.map(|f| f.todo || f.done || !f.claims.is_empty());
            if !present.unwrap_or(false) {
                let path = queue.job_path(job, "todo");
                write_atomically(&path, &queue.todo_body(job))?;
            }
        }
        Ok(queue)
    }

    /// Opens an existing queue, checking it belongs to `spec`.
    pub fn attach(root: &Path, spec: &ExperimentSpec) -> Result<Self, QueueError> {
        let dir = root.join(QUEUE_DIR);
        let meta = read_meta(&dir.join(META_FILE))?;
        let hash = spec.spec_hash();
        if meta.spec_hash != hash || meta.seed != spec.seed {
            return Err(QueueError::new(format!(
                "queue at {dir:?} belongs to a different campaign \
                 (spec hash {} / seed {} on disk, {hash} / {} in the spec)",
                meta.spec_hash, meta.seed, spec.seed
            )));
        }
        Ok(Self {
            dir,
            spec_hash: meta.spec_hash,
            shard_count: meta.shard_count,
        })
    }

    /// The queue directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of shard jobs.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The campaign's spec hash (identity key of the queue).
    pub fn spec_hash(&self) -> &str {
        &self.spec_hash
    }

    pub(crate) fn job_path(&self, job: usize, state: &str) -> PathBuf {
        self.dir
            .join(format!("job-{job}-of-{}.{state}", self.shard_count))
    }

    fn todo_body(&self, job: usize) -> String {
        let mut t = Value::table();
        t.insert("kind", "todo")
            .insert("job", &job)
            .insert("count", &self.shard_count)
            .insert("spec_hash", &self.spec_hash);
        serde_json::to_string(&t).expect("todo bodies always serialize")
    }

    /// Scans the queue directory; returns each job's file presence.
    pub fn scan(&self) -> Result<BTreeMap<usize, JobFiles>, QueueError> {
        let mut out: BTreeMap<usize, JobFiles> = BTreeMap::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err("reading queue directory", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("reading queue entry", e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some((job, state)) = parse_job_file(name, self.shard_count) else {
                continue;
            };
            let slot = out.entry(job).or_default();
            match state {
                JobState::Todo => slot.todo = true,
                JobState::Claimed { worker } => slot.claims.push(worker),
                JobState::Done => slot.done = true,
            }
        }
        Ok(out)
    }

    /// Aggregate counts, one per job's [`JobFiles::view`]: a job with a
    /// `.done` file counts as done no matter what other stray files exist;
    /// otherwise a claim wins over a todo.
    pub fn status(&self) -> Result<QueueStatus, QueueError> {
        Ok(self.status_of(&self.scan()?))
    }

    /// [`Self::status`] over an existing [`Self::scan`] snapshot — no I/O.
    /// The dispatcher's monitor derives status, lease liveness and the
    /// missing-job check from one scan per tick instead of re-reading the
    /// directory for each.
    pub fn status_of(&self, files: &BTreeMap<usize, JobFiles>) -> QueueStatus {
        let mut status = QueueStatus {
            total: self.shard_count,
            todo: 0,
            claimed: 0,
            done: 0,
        };
        for job in 0..self.shard_count {
            match files.get(&job).map_or(JobView::Missing, JobFiles::view) {
                JobView::Done => status.done += 1,
                JobView::Todo => status.todo += 1,
                JobView::Claimed(_) => status.claimed += 1,
                // No file at all: a claim/done rename is mid-flight (the
                // source vanished, the destination not yet scanned) or the
                // job file was externally deleted. Count it as claimed; a
                // rename resolves by the next scan, and the dispatcher
                // re-seeds jobs that stay file-less ([`Self::reseed`]).
                JobView::Missing => status.claimed += 1,
            }
        }
        status
    }

    /// Tries to claim the lowest-numbered unclaimed job for `worker`.
    /// Returns `None` when nothing is claimable right now (jobs may still
    /// be leased to others — not the same as the campaign being done).
    pub fn claim(&self, worker: &str) -> Result<Option<Lease>, QueueError> {
        let worker = crate::sanitize(worker);
        let files = self.scan()?;
        for (job, f) in &files {
            if !f.todo || f.done {
                continue;
            }
            let from = self.job_path(*job, "todo");
            let to = self.job_path(*job, &format!("claim-{worker}"));
            match fs::rename(&from, &to) {
                Ok(()) => {
                    let mut lease = Lease {
                        job: *job,
                        count: self.shard_count,
                        worker: worker.clone(),
                        pid: std::process::id(),
                        path: to,
                        beats: 0,
                    };
                    // Publish the initial lease body (beat 1). Losing the
                    // file already — reclaimed before the first beat — is
                    // indistinguishable from an instant reclaim; treat the
                    // claim as lost and keep looking.
                    if lease.beat()? {
                        crate::telemetry::CLAIMS.inc();
                        return Ok(Some(lease));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    // Lost the race to another worker; try the next job.
                    crate::telemetry::CLAIM_RACES.inc();
                }
                Err(e) => return Err(io_err("claiming job", e)),
            }
        }
        Ok(None)
    }

    /// Reads the current content of a job's claim file (the lease body, or
    /// the original todo body right after the claim rename). `None` if the
    /// file is gone.
    pub fn read_claim(&self, job: usize, worker: &str) -> Result<Option<String>, QueueError> {
        let path = self.job_path(job, &format!("claim-{worker}"));
        match fs::read_to_string(&path) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("reading claim", e)),
        }
    }

    /// Returns a claimed job to the todo state (the dispatcher's reclaim of
    /// a dead or straggling worker's lease). Atomic: if the holder
    /// completes the job concurrently, exactly one of the two renames wins.
    /// Returns `false` if the claim was already gone.
    pub fn reclaim(&self, job: usize, worker: &str) -> Result<bool, QueueError> {
        let from = self.job_path(job, &format!("claim-{worker}"));
        let to = self.job_path(job, "todo");
        match fs::rename(&from, &to) {
            Ok(()) => {
                crate::telemetry::RECLAIMS.inc();
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(io_err("reclaiming job", e)),
        }
    }

    /// Marks a leased job done. Returns `false` when the lease had been
    /// reclaimed (the job will be re-executed elsewhere; because jobs are
    /// deterministic, the duplicate results merge bit-identically).
    pub fn mark_done(&self, lease: &Lease) -> Result<bool, QueueError> {
        let to = self.job_path(lease.job, "done");
        match fs::rename(&lease.path, &to) {
            Ok(()) => {
                crate::telemetry::JOBS_DONE.inc();
                crate::telemetry::WORKER_JOBS.inc(&lease.worker);
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(io_err("completing job", e)),
        }
    }

    /// Re-seeds the `.todo` file of a job that has lost *every* file (an
    /// external deletion — operator cleanup, filesystem hiccup). Safe to
    /// race: if the job was actually claimed or done, the stray todo is a
    /// conflict [`Self::sweep_conflicts`] resolves (done wins; duplicate
    /// execution is harmless because jobs are deterministic).
    pub fn reseed(&self, job: usize) -> Result<(), QueueError> {
        if job >= self.shard_count {
            return Err(QueueError::new(format!(
                "cannot reseed job {job} of a {}-job queue",
                self.shard_count
            )));
        }
        let path = self.job_path(job, "todo");
        write_atomically(&path, &self.todo_body(job))?;
        crate::telemetry::RESEEDS.inc();
        Ok(())
    }

    /// Sweeps contradictory files: once a job is done, stray `.todo` and
    /// `.claim-*` files for it are deleted; a job with both a todo and a
    /// claim (a zombie heartbeat re-published a reclaimed lease) loses the
    /// claim. Returns how many files were removed.
    pub fn sweep_conflicts(&self) -> Result<usize, QueueError> {
        let files = self.scan()?;
        Ok(self.sweep_conflicts_of(&files))
    }

    /// [`Self::sweep_conflicts`] over an existing scan snapshot. Acting on
    /// a slightly stale snapshot is safe: removals of already-gone files
    /// are ignored, and a conflict that appears after the scan is caught
    /// by the next one.
    pub fn sweep_conflicts_of(&self, files: &BTreeMap<usize, JobFiles>) -> usize {
        let mut removed = 0;
        for (job, f) in files {
            if f.done {
                if f.todo && fs::remove_file(self.job_path(*job, "todo")).is_ok() {
                    removed += 1;
                }
                for w in &f.claims {
                    if fs::remove_file(self.job_path(*job, &format!("claim-{w}"))).is_ok() {
                        removed += 1;
                    }
                }
            } else if f.todo {
                for w in &f.claims {
                    if fs::remove_file(self.job_path(*job, &format!("claim-{w}"))).is_ok() {
                        removed += 1;
                    }
                }
            }
        }
        crate::telemetry::CONFLICTS_SWEPT.add(removed as u64);
        removed
    }
}

fn read_meta(path: &Path) -> Result<QueueMeta, QueueError> {
    let text = fs::read_to_string(path)
        .map_err(|e| QueueError::new(format!("no queue at {path:?}: {e}")))?;
    serde_json::from_str(text.trim())
        .map_err(|e| QueueError::new(format!("corrupt queue meta {path:?}: {e}")))
}

/// Publishes a one-line queue file through [`log::write_atomic`], so a
/// crash never leaves a torn file and concurrent writers of identical
/// content are harmless.
fn write_atomically(path: &Path, line: &str) -> Result<(), QueueError> {
    log::write_atomic(path, format!("{line}\n").as_bytes())
        .map_err(|e| io_err("publishing file", e))
}

/// Parses `job-<i>-of-<n>.<state>` file names; ignores everything else
/// (temp files, the meta file, foreign shard counts).
fn parse_job_file(name: &str, shard_count: usize) -> Option<(usize, JobState)> {
    let rest = name.strip_prefix("job-")?;
    let (coords, state) = rest.split_once('.')?;
    let (job, count) = coords.split_once("-of-")?;
    let job: usize = job.parse().ok()?;
    let count: usize = count.parse().ok()?;
    if count != shard_count || job >= count {
        return None;
    }
    let state = match state {
        "todo" => JobState::Todo,
        "done" => JobState::Done,
        other => {
            // Temp files from atomic rewrites extend the file name
            // (`job-i-of-n.claim-<w>.tmp-<pid>-<n>`); the dot guard keeps
            // them, and any other multi-extension leftover, from
            // masquerading as claims.
            let worker = other.strip_prefix("claim-")?;
            if worker.contains('.') {
                return None;
            }
            JobState::Claimed {
                worker: worker.to_string(),
            }
        }
    };
    Some((job, state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rats_experiments::spec::SuiteSpec;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rats-queue-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec(seed: u64) -> ExperimentSpec {
        ExperimentSpec::naive("q", "grillon", SuiteSpec::Mini, seed)
    }

    #[test]
    fn job_file_names_parse() {
        assert_eq!(
            parse_job_file("job-3-of-8.todo", 8),
            Some((3, JobState::Todo))
        );
        assert_eq!(
            parse_job_file("job-0-of-8.done", 8),
            Some((0, JobState::Done))
        );
        assert_eq!(
            parse_job_file("job-2-of-8.claim-alpha-w0", 8),
            Some((
                2,
                JobState::Claimed {
                    worker: "alpha-w0".into()
                }
            ))
        );
        // Worker ids that merely *start* with "tmp-" are legitimate (a
        // host named "tmp" in an inventory): their claims must be seen.
        assert_eq!(
            parse_job_file("job-2-of-8.claim-tmp-w0", 8),
            Some((
                2,
                JobState::Claimed {
                    worker: "tmp-w0".into()
                }
            ))
        );
        // Foreign counts, temp files and the meta file are ignored.
        assert_eq!(parse_job_file("job-2-of-9.todo", 8), None);
        assert_eq!(parse_job_file("job-2-of-8.tmp-123", 8), None);
        assert_eq!(parse_job_file("job-2-of-8.claim-a.tmp-a", 8), None);
        assert_eq!(parse_job_file("job-2-of-8.todo.tmp-123-0", 8), None);
        assert_eq!(parse_job_file("job-2-of-8.claim-a.tmp-123-0", 8), None);
        assert_eq!(parse_job_file("meta.json", 8), None);
        assert_eq!(parse_job_file("job-9-of-8.todo", 8), None);
    }

    #[test]
    fn init_seeds_todos_and_is_idempotent() {
        let root = temp_root("init");
        let s = spec(1);
        let q = WorkQueue::init(&root, &s, 5).unwrap();
        let st = q.status().unwrap();
        assert_eq!((st.total, st.todo, st.claimed, st.done), (5, 5, 0, 0));
        // Re-init keeps state.
        let lease = q.claim("w0").unwrap().unwrap();
        q.mark_done(&lease).unwrap();
        let q2 = WorkQueue::init(&root, &s, 5).unwrap();
        let st = q2.status().unwrap();
        assert_eq!((st.todo, st.done), (4, 1));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn init_rejects_identity_changes() {
        let root = temp_root("identity");
        WorkQueue::init(&root, &spec(1), 4).unwrap();
        assert!(WorkQueue::init(&root, &spec(1), 5).is_err(), "shard count");
        assert!(WorkQueue::init(&root, &spec(2), 4).is_err(), "seed/hash");
        assert!(WorkQueue::attach(&root, &spec(2)).is_err());
        let q = WorkQueue::attach(&root, &spec(1)).unwrap();
        assert_eq!(q.shard_count(), 4);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn claim_lease_done_lifecycle() {
        let root = temp_root("lifecycle");
        let q = WorkQueue::init(&root, &spec(3), 2).unwrap();
        let mut lease = q.claim("w-a").unwrap().unwrap();
        assert_eq!(lease.job, 0, "lowest job first");
        assert_eq!(lease.shard(), ShardSpec::new(0, 2));
        let body = q.read_claim(0, "w-a").unwrap().unwrap();
        assert!(body.contains("\"beats\":1"), "{body}");
        assert!(lease.beat().unwrap());
        let body = q.read_claim(0, "w-a").unwrap().unwrap();
        assert!(body.contains("\"beats\":2"), "{body}");

        let second = q.claim("w-b").unwrap().unwrap();
        assert_eq!(second.job, 1);
        assert!(q.claim("w-c").unwrap().is_none(), "everything is leased");
        let st = q.status().unwrap();
        assert_eq!((st.todo, st.claimed, st.done), (0, 2, 0));

        assert!(q.mark_done(&lease).unwrap());
        assert!(q.mark_done(&second).unwrap());
        assert!(q.status().unwrap().all_done());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reclaim_returns_jobs_and_breaks_dead_leases() {
        let root = temp_root("reclaim");
        let q = WorkQueue::init(&root, &spec(4), 1).unwrap();
        let mut lease = q.claim("w0").unwrap().unwrap();
        assert!(q.reclaim(0, "w0").unwrap());
        assert!(!q.reclaim(0, "w0").unwrap(), "second reclaim is a no-op");
        // The holder notices the reclaim on its next beat and stops.
        assert!(!lease.beat().unwrap(), "beat reports the lost lease");
        // A zombie losing the beat-vs-reclaim race can still re-publish a
        // claim next to the todo; sweep resolves it in favour of the todo.
        fs::write(q.job_path(0, "claim-w0"), "{}\n").unwrap();
        assert_eq!(q.sweep_conflicts().unwrap(), 1);
        let st = q.status().unwrap();
        assert_eq!((st.todo, st.claimed), (1, 0));
        // And the holder's mark_done now fails (lease lost).
        assert!(!q.mark_done(&lease).unwrap());
        let other = q.claim("w1").unwrap().unwrap();
        assert!(q.mark_done(&other).unwrap());
        assert!(q.status().unwrap().all_done());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reseed_recovers_externally_deleted_jobs() {
        let root = temp_root("reseed");
        let q = WorkQueue::init(&root, &spec(9), 2).unwrap();
        // An operator (or a filesystem mishap) deletes a todo outright.
        fs::remove_file(q.job_path(1, "todo")).unwrap();
        let st = q.status().unwrap();
        assert_eq!(
            (st.todo, st.claimed),
            (1, 1),
            "file-less job reads as claimed"
        );
        q.reseed(1).unwrap();
        let st = q.status().unwrap();
        assert_eq!((st.todo, st.claimed), (2, 0));
        assert!(q.claim("w").unwrap().is_some());
        assert!(q.reseed(5).is_err(), "out-of-range job");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn done_wins_over_stray_files() {
        let root = temp_root("donewins");
        let q = WorkQueue::init(&root, &spec(5), 1).unwrap();
        let lease = q.claim("w0").unwrap().unwrap();
        assert!(q.mark_done(&lease).unwrap());
        // A very confused zombie resurrects both a todo and a claim.
        fs::write(q.job_path(0, "todo"), "{}\n").unwrap();
        fs::write(q.job_path(0, "claim-zombie"), "{}\n").unwrap();
        assert!(q.status().unwrap().all_done(), "done wins");
        assert_eq!(q.sweep_conflicts().unwrap(), 2);
        assert!(q.claim("w1").unwrap().is_none());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn concurrent_claims_never_double_assign() {
        let root = temp_root("race");
        let jobs = 24;
        let q = WorkQueue::init(&root, &spec(6), jobs).unwrap();
        let claimed: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    let q = q.clone();
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(lease) = q.claim(&format!("w{w}")).unwrap() {
                            mine.push(lease.job);
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<usize> = claimed.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..jobs).collect::<Vec<_>>(), "each job exactly once");
        fs::remove_dir_all(&root).unwrap();
    }
}
