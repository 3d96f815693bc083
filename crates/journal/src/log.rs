//! The crash-safe line log behind every append-only JSONL file of a
//! campaign: shard files (`rats-experiments`) and journal segments.
//!
//! A log is a header line, then body lines, and **a line is committed
//! once its `\n` is on disk.** Bytes after the last newline are an append
//! a crash cut short: never read as a line, and dropped by the next writer
//! before it appends. A file with no committed line is a *pre-header
//! wreck* that holds nothing. [`create`] writes a whole log (a new one, or
//! an old one without its tail) and [`write_atomic`] any small file that
//! must never be seen torn, both through a temp file and a rename;
//! [`append`] writes a batch of lines at once. What a committed line that
//! does not parse means is the caller's rule: a tail to a shard file,
//! tampering to a journal segment.

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// A log buffer split under the commit rule.
pub struct Lines<'a> {
    /// The first committed line.
    pub header: &'a [u8],
    /// The committed lines after the header, in file order.
    pub body: Vec<&'a [u8]>,
    /// Whether bytes follow the last newline (an uncommitted append).
    pub torn_tail: bool,
}

/// Splits a whole log file's bytes into its header, its committed body
/// lines and whether an uncommitted tail follows them. `None` is a
/// pre-header wreck: the buffer holds no newline. Lines are returned
/// without their `\n` and without a `\r` before it.
pub fn split(bytes: &[u8]) -> Option<Lines<'_>> {
    let (mut lines, end) = committed(bytes);
    Some(Lines {
        header: lines.next()?,
        body: lines.collect(),
        torn_tail: end < bytes.len(),
    })
}

/// The committed lines at the start of `bytes` (as [`split`] returns
/// them) and the number of bytes they span, up to and including the last
/// newline. A reader that follows a growing log consumes exactly that many.
pub fn committed(bytes: &[u8]) -> (impl Iterator<Item = &[u8]>, usize) {
    let end = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let lines = bytes[..end].split_inclusive(|&b| b == b'\n').map(|line| {
        let line = &line[..line.len() - 1];
        line.strip_suffix(b"\r").unwrap_or(line)
    });
    (lines, end)
}

/// Writes a whole log, header first, each line followed by `\n`, through
/// [`write_atomic`].
pub fn create<L: AsRef<[u8]>>(path: &Path, lines: impl IntoIterator<Item = L>) -> io::Result<()> {
    write_atomic(path, &joined(lines))
}

/// Appends `lines`, each followed by `\n`, to an open log with one write.
pub fn append<L: AsRef<[u8]>>(
    file: &mut fs::File,
    lines: impl IntoIterator<Item = L>,
) -> io::Result<()> {
    file.write_all(&joined(lines))
}

/// Replaces `path` with `bytes` through a sibling temp file and a rename,
/// so a reader or a crash sees the old file or the whole new one. The temp
/// name, `<file name>.tmp-<pid>-<n>`, is unique per call and matches no
/// scan for the real file's name or extension.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(
        ".tmp-{}-{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(name);
    let written = fs::write(&tmp, bytes).and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

fn joined<L: AsRef<[u8]>>(lines: impl IntoIterator<Item = L>) -> Vec<u8> {
    let mut buf = Vec::new();
    for line in lines {
        buf.extend_from_slice(line.as_ref());
        buf.push(b'\n');
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_line_counts_once_its_newline_is_on_disk() {
        let lines = split(b"h\na\r\nb\nhalf").unwrap();
        assert_eq!(lines.header, b"h");
        assert_eq!(lines.body, [&b"a"[..], b"b"]);
        assert!(lines.torn_tail);

        let lines = split(b"h\na\n").unwrap();
        assert_eq!(lines.body, [&b"a"[..]]);
        assert!(!lines.torn_tail);

        let lines = split(b"h\n\n").unwrap();
        assert_eq!(lines.body, [&b""[..]], "a blank committed line is a line");
    }

    #[test]
    fn no_committed_header_is_a_wreck() {
        assert!(split(b"").is_none());
        assert!(split(b"{\"kind\":\"head").is_none());
        let (lines, end) = committed(b"partial");
        assert_eq!((lines.count(), end), (0, 0));
    }

    #[test]
    fn create_and_append_write_whole_lines() {
        let dir = std::env::temp_dir().join(format!("rats-log-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.jsonl");
        fs::write(&path, b"wreck").unwrap();
        create(&path, ["h", "a"]).unwrap();
        let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
        append(&mut file, ["b", "c"]).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"h\na\nb\nc\n");
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["x.jsonl"], "no temp file is left behind");
        fs::remove_dir_all(&dir).unwrap();
    }
}
