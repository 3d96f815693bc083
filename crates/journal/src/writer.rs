//! The single-writer, append-only side of the journal.
//!
//! Each process owns exactly one segment file named after its writer id,
//! so concurrent workers never contend for a file. [`Journal::open`] is
//! infallible by design: any failure to create or resume the segment
//! degrades the journal to a no-op (with one warning line on stderr) —
//! history is provenance, and must never take a campaign down with it.

use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use serde::Value;

use crate::event::{Event, EventRecord};
use crate::reader::load_segment;
use crate::{fnv1a_hex, log, JournalError, JOURNAL_DIR};

/// The segment file a given writer appends to.
pub fn segment_path(root: &Path, writer: &str) -> PathBuf {
    root.join(JOURNAL_DIR)
        .join(format!("events-{}.jsonl", sanitize(writer)))
}

/// Restricts a writer id to filename-safe characters, the same alphabet
/// the dispatch layer already enforces for worker ids.
fn sanitize(writer: &str) -> String {
    writer
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// The canonical header line of a segment (no trailing newline). Its
/// FNV-1a 64 hash is the genesis `prev` of the chain.
pub(crate) fn header_line(writer: &str, spec_hash: &str) -> String {
    let mut t = Value::table();
    t.insert("format", &1u64)
        .insert("kind", "journal-segment")
        .insert("spec_hash", spec_hash)
        .insert("writer", writer);
    serde_json::to_string(&t).expect("tables always serialize")
}

/// An open, appendable journal segment for one writer.
pub struct Journal {
    path: PathBuf,
    writer: String,
    /// Sequence number the next record gets.
    seq: u64,
    /// Chain hash of the predecessor (header hash at genesis).
    head: String,
    /// Set once an i/o failure turns the journal into a no-op.
    degraded: bool,
}

impl Journal {
    /// Opens (creating or resuming) the segment for `writer` under `root`.
    ///
    /// Never fails: if the segment cannot be created, or an existing one
    /// fails chain verification, the returned journal is *degraded* — all
    /// [`emit`](Self::emit) calls become no-ops — and a single warning is
    /// printed. A resumable segment with a torn tail is rewritten without
    /// it first, and a segment whose header never committed is started
    /// over, the same way shard files recover (see [`log`]).
    pub fn open(root: &Path, writer: &str, spec_hash: &str) -> Self {
        match Self::try_open(root, writer, spec_hash) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("[journal] disabled for `{writer}`: {e}");
                Journal {
                    path: segment_path(root, writer),
                    writer: writer.to_string(),
                    seq: 0,
                    head: String::new(),
                    degraded: true,
                }
            }
        }
    }

    fn try_open(root: &Path, writer: &str, spec_hash: &str) -> Result<Self, JournalError> {
        let path = segment_path(root, writer);
        let dir = root.join(JOURNAL_DIR);
        fs::create_dir_all(&dir).map_err(|source| JournalError::Io {
            path: dir.clone(),
            source,
        })?;
        let io = |source: std::io::Error| JournalError::Io {
            path: path.clone(),
            source,
        };
        let segment = if path.is_file() {
            load_segment(&path)?
        } else {
            None
        };
        let Some(segment) = segment else {
            // A new segment, or a pre-header wreck to start over.
            let header = header_line(writer, spec_hash);
            log::create(&path, [&header]).map_err(io)?;
            return Ok(Journal {
                head: fnv1a_hex(header.as_bytes()),
                path,
                writer: writer.to_string(),
                seq: 0,
                degraded: false,
            });
        };
        // Drop a torn tail so the next append lands on a committed line.
        if segment.torn_tail {
            let records = segment.records.iter().map(EventRecord::to_line);
            log::create(
                &path,
                std::iter::once(segment.header.clone()).chain(records),
            )
            .map_err(io)?;
        }
        let head = match segment.records.last() {
            Some(last) => last.hash.clone(),
            None => fnv1a_hex(segment.header.as_bytes()),
        };
        Ok(Journal {
            path,
            writer: writer.to_string(),
            seq: segment.records.len() as u64,
            head,
            degraded: false,
        })
    }

    /// Appends one event to the chain. Best-effort: an i/o failure prints
    /// one warning, degrades the journal, and is otherwise swallowed.
    pub fn emit(&mut self, event: Event) {
        if self.degraded {
            return;
        }
        let mut record = EventRecord {
            seq: self.seq,
            ms: now_ms(),
            prev: self.head.clone(),
            hash: String::new(),
            event,
        };
        record.hash = fnv1a_hex(record.preimage().as_bytes());
        let appended = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .and_then(|mut f| log::append(&mut f, [record.to_line()]));
        match appended {
            Ok(()) => {
                self.seq += 1;
                self.head = record.hash;
            }
            Err(e) => {
                eprintln!(
                    "[journal] append failed for `{}` ({}): journaling disabled",
                    self.writer, e
                );
                self.degraded = true;
            }
        }
    }

    /// Whether the journal has been disabled by a failure.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The writer id this journal appends under.
    pub fn writer_id(&self) -> &str {
        &self.writer
    }

    /// Records appended so far (= next sequence number).
    pub fn len(&self) -> u64 {
        self.seq
    }

    /// Whether no records have been appended yet.
    pub fn is_empty(&self) -> bool {
        self.seq == 0
    }
}

/// Milliseconds since the Unix epoch by this process's clock — display
/// and advisory staleness only, never trusted across hosts.
pub(crate) fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::{read_journal, read_segment};
    use std::io::Write as _;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_root(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rats-journal-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn emits_verify_and_resume() {
        let root = temp_root("emit");
        let mut j = Journal::open(&root, "w0", "hash16");
        j.emit(Event::QueueInit { jobs: 3 });
        j.emit(Event::JobClaimed {
            job: 0,
            worker: "w0".into(),
        });
        assert!(!j.is_degraded());
        assert_eq!(j.len(), 2);
        drop(j);

        let seg = read_segment(&segment_path(&root, "w0")).unwrap();
        assert_eq!(seg.writer, "w0");
        assert_eq!(seg.spec_hash, "hash16");
        assert_eq!(seg.records.len(), 2);
        assert!(!seg.torn_tail);

        // Re-open resumes the chain where it left off.
        let mut j = Journal::open(&root, "w0", "hash16");
        assert_eq!(j.len(), 2);
        j.emit(Event::JobDone {
            job: 0,
            worker: "w0".into(),
        });
        let seg = read_segment(&segment_path(&root, "w0")).unwrap();
        assert_eq!(seg.records.len(), 3);
        assert_eq!(seg.records[2].seq, 2);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_on_resume() {
        let root = temp_root("torn");
        let mut j = Journal::open(&root, "w0", "h");
        j.emit(Event::QueueInit { jobs: 1 });
        drop(j);
        let path = segment_path(&root, "w0");
        // Simulate a writer killed mid-append: a half line, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"event\":\"job-cl").unwrap();
        drop(f);

        let mut j = Journal::open(&root, "w0", "h");
        assert!(!j.is_degraded());
        assert_eq!(j.len(), 1, "torn tail dropped, chain resumes after it");
        j.emit(Event::JobReseeded { job: 0 });
        let seg = read_segment(&path).unwrap();
        assert_eq!(seg.records.len(), 2);
        assert!(!seg.torn_tail);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_line_that_lost_its_newline_is_dropped_on_resume() {
        let root = temp_root("newline");
        let mut j = Journal::open(&root, "w0", "h");
        j.emit(Event::QueueInit { jobs: 1 });
        j.emit(Event::JobReseeded { job: 0 });
        drop(j);
        // A writer killed between a record's bytes and its newline: the
        // line parses and verifies, but it never committed.
        let path = segment_path(&root, "w0");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();

        let mut j = Journal::open(&root, "w0", "h");
        j.emit(Event::JobReseeded { job: 0 });
        let seg = read_segment(&path).unwrap();
        assert_eq!(seg.records.len(), 2, "the line was dropped, not glued onto");
        assert!(!seg.torn_tail);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_segment_without_its_header_is_started_over() {
        let root = temp_root("wreck");
        Journal::open(&root, "w0", "h").emit(Event::QueueInit { jobs: 1 });
        // A writer killed while creating its segment, with nothing or a
        // torn header on disk.
        for wreck in [&b""[..], b"{\"format\":1,\"kind\":\"jour"] {
            fs::write(segment_path(&root, "w1"), wreck).unwrap();
            let segments = read_journal(&root).unwrap();
            assert_eq!(segments.len(), 1, "the wreck holds no event");
            assert_eq!(segments[0].writer, "w0");

            let mut j = Journal::open(&root, "w1", "h");
            assert!(!j.is_degraded());
            j.emit(Event::JobReseeded { job: 0 });
            let seg = read_segment(&segment_path(&root, "w1")).unwrap();
            assert_eq!((seg.writer.as_str(), seg.records.len()), ("w1", 1));
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn writer_ids_are_sanitized_in_filenames() {
        let root = temp_root("sanitize");
        let j = Journal::open(&root, "host/0:a", "h");
        assert!(!j.is_degraded());
        assert!(segment_path(&root, "host/0:a").ends_with("events-host-0-a.jsonl"));
        fs::remove_dir_all(&root).unwrap();
    }
}
