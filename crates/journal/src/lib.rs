//! Append-only, hash-chained campaign event journal.
//!
//! Run records capture *outcomes*; this crate captures *history*: who
//! claimed which job when, which leases went stale and were reclaimed,
//! which workers died mid-shard, what the merge decided. Every process in
//! the dispatch stack appends typed [`Event`]s to its own segment file
//! under `<campaign root>/journal/` — one writer per process, so no
//! cross-process locking is ever needed — and readers stitch the segments
//! back together by writer name and sequence number.
//!
//! # File layout
//!
//! ```text
//! <root>/journal/events-<writer>.jsonl
//!   {"format":1,"kind":"journal-segment","spec_hash":"…","writer":"…"}
//!   {"event":"queue-init","hash":"…","jobs":6,"ms":…,"prev":"…","seq":0}
//!   {"event":"job-claimed","hash":"…","job":0,…,"prev":"…","seq":1}
//!   …
//! ```
//!
//! # Chain format
//!
//! Each record carries a dense sequence number (`seq`, 0-based), the chain
//! hash of its predecessor (`prev`; the FNV-1a 64 hash of the header line
//! for the first record), and its own hash (`hash`): FNV-1a 64 over the
//! canonical encoding of the record *without* the `hash` key. The encoding
//! is byte-stable — JSON objects with sorted keys — so any byte flip,
//! dropped line, or reordered pair of lines breaks the chain at a precise
//! sequence number, which [`reader::read_segment`] reports as
//! [`JournalError::ChainBroken`], including a byte that is not UTF-8.
//! Segments share the shard files' crash rule ([`log`]): a line counts
//! once its newline is on disk. Bytes after the last newline (a writer
//! killed mid-append) are dropped as a torn tail, and a segment whose
//! header never committed holds no event: [`reader::read_journal`] skips
//! it and its writer starts it over.
//!
//! # Replay and diff
//!
//! [`replay::Replay`] is a cursor (`next_step` / `reset`) that folds the
//! stitched timeline into a [`replay::ReplayState`] — a reconstructed view
//! of the work queue that `campaign replay --check` compares against the
//! live queue directory. [`diff::diff`] aligns the *normalized* event
//! streams of two campaigns (wall-clock durations stripped, writers in
//! lexicographic order) and pinpoints the first divergent event plus
//! per-job claim/reclaim deltas.
//!
//! Journaling is strictly best-effort on the write side: an emit failure
//! degrades the journal (with a one-line warning) but never fails the
//! campaign. The journal is provenance, not a dependency.

pub mod diff;
pub mod event;
pub mod log;
pub mod reader;
pub mod replay;
pub mod writer;

pub use diff::{diff, Divergence, JobDelta, JournalDiff};
pub use event::{Event, EventRecord};
pub use reader::{read_journal, read_segment, JournalTail, Segment};
pub use replay::{JobView, Replay, ReplayState};
pub use writer::{segment_path, Journal};

use std::fmt;
use std::path::PathBuf;

/// Subdirectory of a campaign root holding the journal segments.
pub const JOURNAL_DIR: &str = "journal";

/// FNV-1a 64 as a 16-digit hex string — the workspace's content-hash idiom
/// (spec hashes, population digests) and the journal's chain hash.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Everything that can go wrong reading or writing a journal.
#[derive(Debug)]
pub enum JournalError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A segment file is structurally unusable (missing or unparseable
    /// header, bad name) — distinct from a broken chain *inside* a
    /// well-formed segment.
    Malformed {
        /// The segment file.
        path: PathBuf,
        /// What was wrong.
        message: String,
    },
    /// The hash chain of a segment does not verify: the first offending
    /// record's sequence number is reported.
    ChainBroken {
        /// The segment's writer id.
        writer: String,
        /// Sequence number of the first record that fails verification.
        seq: u64,
        /// What broke (sequence gap, prev-hash mismatch, content hash
        /// mismatch, unparseable line).
        message: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, source } => {
                write!(f, "journal i/o error at {}: {source}", path.display())
            }
            JournalError::Malformed { path, message } => {
                write!(f, "malformed journal segment {}: {message}", path.display())
            }
            JournalError::ChainBroken {
                writer,
                seq,
                message,
            } => write!(
                f,
                "journal chain broken in segment `{writer}` at seq {seq}: {message}"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
        assert_eq!(fnv1a_hex(b"foobar"), "85944171f73967e8");
    }
}
