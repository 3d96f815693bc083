//! The journal invariant checker: does replaying the event journal
//! reconstruct exactly the state the live queue directory shows?
//!
//! [`replay_check`] reads every hash-chained segment under
//! `<root>/journal/` (chain verification included — a tampered segment
//! fails here with the offending sequence number), folds the stitched
//! timeline through [`rats_journal::Replay`], and compares the resulting
//! per-job view against a fresh scan of `<root>/queue/`. Both sides apply
//! the same *done-wins* rule, so a campaign whose history was fully
//! journaled matches bit for bit — any mismatch means events were lost,
//! fabricated, or the queue directory was mutated behind the journal's
//! back.

use std::fmt;
use std::path::Path;

use rats_journal::{read_journal, JobView, JournalError, Replay, ReplayState, JOURNAL_DIR};

use crate::queue::{JobFiles, WorkQueue};
use crate::worker::load_root_spec;
use crate::DispatchError;

/// The outcome of one invariant check.
#[derive(Debug, Clone)]
pub struct ReplayCheckReport {
    /// Events replayed across all segments.
    pub events: usize,
    /// Segments (writers) read.
    pub segments: usize,
    /// Queue jobs compared.
    pub jobs: usize,
    /// Human-readable descriptions of every divergence (empty = pass).
    pub mismatches: Vec<String>,
    /// The final replayed state (counters for reclaims, adoptions, …).
    pub state: ReplayState,
}

impl ReplayCheckReport {
    /// Whether the journal and the live queue agree everywhere.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

impl fmt::Display for ReplayCheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "replayed {} event(s) from {} segment(s) over {} job(s): \
             {} reclaimed, {} adopted, {} worker(s) spawned, {} died",
            self.events,
            self.segments,
            self.jobs,
            self.state.reclaimed,
            self.state.adopted,
            self.state.workers_spawned,
            self.state.workers_died,
        )?;
        if self.ok() {
            write!(f, "journal and live queue agree on every job")
        } else {
            writeln!(f, "{} mismatch(es):", self.mismatches.len())?;
            for (i, m) in self.mismatches.iter().enumerate() {
                if i > 0 {
                    writeln!(f)?;
                }
                write!(f, "  - {m}")?;
            }
            Ok(())
        }
    }
}

/// Replays `<root>/journal/` and checks the reconstruction against the
/// live queue. Chain verification failures (tampering) and i/o errors
/// surface as [`DispatchError::Journal`]; state divergence lands in the
/// report's `mismatches`.
pub fn replay_check(root: &Path) -> Result<ReplayCheckReport, DispatchError> {
    let spec = load_root_spec(root)?;
    let segments = read_journal(root)?;
    if segments.is_empty() {
        return Err(DispatchError::Journal(JournalError::Malformed {
            path: root.join(JOURNAL_DIR),
            message: "no journal segments found (campaign predates journaling, \
                      or the journal directory was removed)"
                .into(),
        }));
    }

    let mut mismatches = Vec::new();
    let expected_hash = spec.spec_hash();
    for seg in &segments {
        if seg.spec_hash != expected_hash {
            mismatches.push(format!(
                "segment `{}` was written under spec hash {} but the campaign \
                 spec hashes to {expected_hash}",
                seg.writer, seg.spec_hash
            ));
        }
    }

    let mut replay = Replay::new(&segments);
    let events = replay.len();
    let state = replay.run_to_end().clone();

    let queue = WorkQueue::attach(root, &spec)?;
    let files = queue.scan()?;
    let jobs = queue.shard_count();
    if state.jobs != Some(jobs as u64) {
        mismatches.push(format!(
            "journal says the queue holds {} job(s), the live queue holds {jobs}",
            state
                .jobs
                .map_or("an unknown number of".to_string(), |j| j.to_string()),
        ));
    }

    for job in 0..jobs {
        // The live view under the same done-wins priority the replay fold
        // applies (and the queue's conflict sweep enforces eventually).
        let live = files.get(&job).map_or(JobView::Missing, JobFiles::view);
        let replayed = state.view(job as u64);
        if live != replayed {
            mismatches.push(format!(
                "job {job}: journal replays to `{replayed}`, live queue shows `{live}`"
            ));
        }
    }

    Ok(ReplayCheckReport {
        events,
        segments: segments.len(),
        jobs,
        mismatches,
        state,
    })
}
