//! The verifying read side: segment parsing with full chain verification,
//! whole-journal stitching, and an incremental tail for live monitoring.

use std::fs;
use std::path::{Path, PathBuf};

use serde::Value;

use crate::event::{Event, EventRecord};
use crate::{fnv1a_hex, log, JournalError, JOURNAL_DIR};

/// One writer's fully verified segment.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Writer id, from the segment header.
    pub writer: String,
    /// Spec hash the segment was opened under.
    pub spec_hash: String,
    /// The raw header line (no newline) — its hash is the genesis `prev`.
    pub header: String,
    /// The verified records, in sequence order.
    pub records: Vec<EventRecord>,
    /// Whether bytes after the last newline (a writer killed mid-append)
    /// were dropped. Complete-but-corrupt lines are *never* tolerated —
    /// they are tampering and fail with [`JournalError::ChainBroken`].
    pub torn_tail: bool,
}

/// Reads one segment file under the [`log`] rule and verifies its entire
/// hash chain. Per committed record, in order: the line must parse, `seq`
/// must equal the record's position, `prev` must equal the predecessor's
/// hash (the header's hash for seq 0), and `hash` must equal the FNV-1a 64
/// of the record's canonical preimage. The first violation is reported as
/// [`JournalError::ChainBroken`] with the offending sequence number —
/// whether the cause was a flipped byte, a dropped line, or a reordered
/// pair. A file without a committed header is [`JournalError::Malformed`].
pub fn read_segment(path: &Path) -> Result<Segment, JournalError> {
    load_segment(path)?.ok_or_else(|| JournalError::Malformed {
        path: path.to_path_buf(),
        message: "no committed header line (writer died creating the segment)".into(),
    })
}

/// [`read_segment`], with `Ok(None)` for a pre-header wreck: a segment
/// whose writer died before its header committed holds no event, so the
/// journal reads past it and its writer starts it over.
pub(crate) fn load_segment(path: &Path) -> Result<Option<Segment>, JournalError> {
    let bytes = fs::read(path).map_err(|source| JournalError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    let Some(lines) = log::split(&bytes) else {
        return Ok(None);
    };
    let malformed = |message: String| JournalError::Malformed {
        path: path.to_path_buf(),
        message,
    };
    let header =
        std::str::from_utf8(lines.header).map_err(|e| malformed(format!("bad header: {e}")))?;
    let hv: Value =
        serde_json::from_str(header).map_err(|e| malformed(format!("bad header: {e}")))?;
    if hv
        .field_or::<String>("kind", String::new())
        .map_err(|e| malformed(e.to_string()))?
        != "journal-segment"
    {
        return Err(malformed("header is not a journal-segment record".into()));
    }
    let writer: String = hv
        .field("writer")
        .map_err(|e| malformed(format!("header: {e}")))?;
    let spec_hash: String = hv
        .field("spec_hash")
        .map_err(|e| malformed(format!("header: {e}")))?;

    let mut prev = fnv1a_hex(header.as_bytes());
    let mut records = Vec::with_capacity(lines.body.len());
    for (i, line) in lines.body.iter().enumerate() {
        let seq = i as u64;
        match verify(line, seq, &prev) {
            Ok(rec) => {
                prev.clone_from(&rec.hash);
                records.push(rec);
            }
            Err(message) => {
                return Err(JournalError::ChainBroken {
                    writer,
                    seq,
                    message,
                })
            }
        }
    }
    Ok(Some(Segment {
        writer,
        spec_hash,
        header: header.to_string(),
        records,
        torn_tail: lines.torn_tail,
    }))
}

/// Verifies one committed line as the record at `seq` after chain head
/// `prev`.
fn verify(line: &[u8], seq: u64, prev: &str) -> Result<EventRecord, String> {
    let rec = std::str::from_utf8(line)
        .map_err(|e| e.to_string())
        .and_then(|line| EventRecord::from_line(line).map_err(|e| e.to_string()))
        .map_err(|e| format!("unparseable record: {e}"))?;
    if rec.seq != seq {
        return Err(format!(
            "sequence mismatch: recorded {}, expected {seq} (dropped or reordered event)",
            rec.seq
        ));
    }
    if rec.prev != prev {
        return Err(format!(
            "prev-hash mismatch: recorded {}, chain head {prev}",
            rec.prev
        ));
    }
    let computed = fnv1a_hex(rec.preimage().as_bytes());
    if computed != rec.hash {
        return Err(format!(
            "content hash mismatch: recorded {}, computed {computed}",
            rec.hash
        ));
    }
    Ok(rec)
}

/// Lists a campaign root's segment files, sorted by file name.
pub fn segment_files(root: &Path) -> Result<Vec<PathBuf>, JournalError> {
    let dir = root.join(JOURNAL_DIR);
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let entries = fs::read_dir(&dir).map_err(|source| JournalError::Io {
        path: dir.clone(),
        source,
    })?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|source| JournalError::Io {
            path: dir.clone(),
            source,
        })?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_file() && name.starts_with("events-") && name.ends_with(".jsonl") {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

/// Reads and verifies every segment of a campaign's journal, sorted by
/// writer name. An absent `journal/` directory yields an empty vector
/// (pre-journal campaign roots stay readable), and a segment without a
/// committed header holds no event and is skipped with a warning.
pub fn read_journal(root: &Path) -> Result<Vec<Segment>, JournalError> {
    let mut segments = Vec::new();
    for path in segment_files(root)? {
        match load_segment(&path)? {
            Some(segment) => segments.push(segment),
            None => eprintln!("[journal] skipping header-less segment {}", path.display()),
        }
    }
    segments.sort_by(|a, b| a.writer.cmp(&b.writer));
    Ok(segments)
}

/// An incremental, non-verifying reader for live monitoring: polls the
/// journal directory for new complete lines since the last poll, so the
/// dispatcher can surface worker events (e.g. partial-output adoption) as
/// they happen without re-reading whole segments every tick.
pub struct JournalTail {
    root: PathBuf,
    /// Byte offset of the first unread byte, per segment file.
    offsets: std::collections::BTreeMap<PathBuf, u64>,
}

impl JournalTail {
    /// A tail over the given campaign root, starting from the present end
    /// of every existing segment (only *new* events are reported).
    pub fn new(root: &Path) -> Self {
        let mut tail = JournalTail {
            root: root.to_path_buf(),
            offsets: Default::default(),
        };
        if let Ok(files) = segment_files(root) {
            for f in files {
                let len = fs::metadata(&f).map(|m| m.len()).unwrap_or(0);
                tail.offsets.insert(f, len);
            }
        }
        tail
    }

    /// Returns events appended since the last poll, as `(writer, event)`
    /// pairs. Best-effort: torn or unparseable lines are skipped, i/o
    /// errors yield an empty batch.
    pub fn poll(&mut self) -> Vec<(String, Event)> {
        let mut out = Vec::new();
        let Ok(files) = segment_files(&self.root) else {
            return out;
        };
        for path in files {
            let from = *self.offsets.get(&path).unwrap_or(&0);
            let Ok(bytes) = fs::read(&path) else { continue };
            // A torn tail stays unread and is retried (complete) next poll.
            let (lines, end) = log::committed(bytes.get(from as usize..).unwrap_or_default());
            if end == 0 {
                continue;
            }
            self.offsets.insert(path.clone(), from + end as u64);
            let stem = path.file_stem().unwrap_or_default().to_string_lossy();
            let writer = stem.strip_prefix("events-").unwrap_or(&stem).to_string();
            // A segment's first line is its header, not an event.
            for line in lines.skip(usize::from(from == 0)) {
                let line = std::str::from_utf8(line).ok();
                if let Some(rec) = line.and_then(|l| EventRecord::from_line(l).ok()) {
                    out.push((writer.clone(), rec.event));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{segment_path, Journal};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::OnceLock;

    fn temp_root(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rats-reader-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seeded_root(tag: &str, events: usize) -> (PathBuf, PathBuf) {
        let root = temp_root(tag);
        let mut j = Journal::open(&root, "w0", "h");
        j.emit(Event::QueueInit {
            jobs: events as u64,
        });
        for i in 0..events.saturating_sub(1) {
            j.emit(Event::JobClaimed {
                job: i as u64,
                worker: "w0".into(),
            });
        }
        (root.clone(), segment_path(&root, "w0"))
    }

    fn broken_seq(err: JournalError) -> u64 {
        match err {
            JournalError::ChainBroken { seq, .. } => seq,
            other => panic!("expected ChainBroken, got {other}"),
        }
    }

    #[test]
    fn flipped_byte_reports_the_exact_sequence() {
        let (root, path) = seeded_root("flip", 5);
        let text = fs::read_to_string(&path).unwrap();
        // One payload byte of the record at seq 2 (line 3): another digit,
        // or a byte that is not UTF-8.
        let at = text.find("\"job\":1").unwrap() + "\"job\":".len();
        for byte in [b'7', 0xff] {
            let mut bytes = text.clone().into_bytes();
            bytes[at] = byte;
            fs::write(&path, bytes).unwrap();
            assert_eq!(broken_seq(read_segment(&path).unwrap_err()), 2);
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn dropped_event_reports_the_gap() {
        let (root, path) = seeded_root("drop", 5);
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines.remove(2); // drop the record at seq 1
        fs::write(&path, lines.join("\n") + "\n").unwrap();
        assert_eq!(broken_seq(read_segment(&path).unwrap_err()), 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reordered_events_report_the_first_out_of_place() {
        let (root, path) = seeded_root("swap", 5);
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines.swap(2, 3); // swap records seq 1 and seq 2
        fs::write(&path, lines.join("\n") + "\n").unwrap();
        assert_eq!(broken_seq(read_segment(&path).unwrap_err()), 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn tampered_final_line_is_not_mistaken_for_a_torn_tail() {
        let (root, path) = seeded_root("last", 3);
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let last = lines.len() - 1;
        lines[last] = lines[last].replace("\"job\":1", "\"job\":9");
        // Newline-terminated: a complete, corrupt line — tampering.
        fs::write(&path, lines.join("\n") + "\n").unwrap();
        assert_eq!(broken_seq(read_segment(&path).unwrap_err()), 2);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn journal_of_absent_directory_is_empty() {
        let root = temp_root("absent");
        assert!(read_journal(&root).unwrap().is_empty());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn tail_reports_only_new_complete_lines() {
        let root = temp_root("tail");
        let mut j = Journal::open(&root, "w0", "h");
        j.emit(Event::QueueInit { jobs: 2 });
        let mut tail = JournalTail::new(&root);
        assert!(tail.poll().is_empty(), "existing history is not replayed");
        j.emit(Event::AdoptedPartial {
            job: 1,
            worker: "w0".into(),
            donor: "dead".into(),
            records: 4,
        });
        let batch = tail.poll();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].0, "w0");
        assert!(matches!(
            batch[0].1,
            Event::AdoptedPartial {
                job: 1,
                records: 4,
                ..
            }
        ));
        assert!(tail.poll().is_empty());
        fs::remove_dir_all(&root).unwrap();
    }

    /// A committed seven-event segment: its bytes, the offset just past
    /// each line's newline, and its records.
    fn fuzz_seed() -> &'static (Vec<u8>, Vec<usize>, Vec<EventRecord>) {
        static SEED: OnceLock<(Vec<u8>, Vec<usize>, Vec<EventRecord>)> = OnceLock::new();
        SEED.get_or_init(|| {
            let (root, path) = seeded_root("fuzz-seed", 7);
            let bytes = fs::read(&path).unwrap();
            let records = read_segment(&path).unwrap().records;
            fs::remove_dir_all(&root).unwrap();
            let ends: Vec<usize> = (0..bytes.len())
                .filter(|&i| bytes[i] == b'\n')
                .map(|i| i + 1)
                .collect();
            (bytes, ends, records)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// A segment cut at any byte, or with one byte set to any value
        /// (so invalid UTF-8 and stray newlines too), reads as `Ok`,
        /// `ChainBroken` or `Malformed` — never an I/O error or a panic.
        /// A cut is a crash mid-append: the committed record prefix reads
        /// back whole, with `torn_tail` set exactly when the cut falls
        /// inside a line, and a cut inside the header is `Malformed`.
        #[test]
        fn damaged_segments_read_as_ok_or_broken(at in 0.0f64..1.0, damage in 0u32..512) {
            let (bytes, ends, records) = fuzz_seed();
            prop_assert_eq!(records.len(), 7);
            let k = (at * bytes.len() as f64) as usize;
            let cut = damage >= 256;
            let mut damaged = bytes.clone();
            if cut {
                damaged.truncate(k);
            } else {
                damaged[k] = damage as u8;
            }
            let path = std::env::temp_dir()
                .join(format!("rats-reader-fuzz-{}.jsonl", std::process::id()));
            fs::write(&path, &damaged).unwrap();
            let committed = ends.iter().filter(|&&end| end <= k).count();
            match read_segment(&path) {
                Ok(segment) if cut => {
                    prop_assert_eq!(&segment.records, &records[..committed - 1]);
                    prop_assert_eq!(segment.torn_tail, !ends.contains(&k));
                }
                Err(JournalError::Malformed { .. }) if cut => prop_assert_eq!(committed, 0),
                Ok(_) | Err(JournalError::ChainBroken { .. } | JournalError::Malformed { .. }) => {
                    prop_assert!(!cut)
                }
                Err(e) => panic!("byte {k} damage {damage}: {e}"),
            }
            let _ = fs::remove_file(&path);
        }
    }
}
