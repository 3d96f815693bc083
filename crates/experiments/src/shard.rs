//! Shard execution and merge: the durable, resumable campaign executor.
//!
//! A worker owns one [`ShardSpec`] of a spec's job grid and appends to a
//! JSONL shard file in an output directory:
//!
//! ```text
//! <dir>/<name>-shard-<index>-of-<count>.jsonl
//!   line 1:  manifest — normalized spec + spec hash, seed, shard
//!            coordinates, worker threads
//!   line 2…: one RunRecord per completed job, in job-id order
//! ```
//!
//! The file is a [`rats_journal::log`] line log, the format journal
//! segments share: created with its manifest through a temp file and a
//! rename, appended one write batch at a time, and read under one rule —
//! a record counts once its trailing newline is on disk. Restarting a
//! worker re-reads the file, validates the manifest against the spec,
//! skips every job already on disk and resumes with the rest, so crash
//! recovery needs no extra bookkeeping. An uncommitted tail, or a complete
//! final line that does not parse, is dropped and its job re-executed. A
//! file with no committed manifest (a worker killed while creating it)
//! holds no record and is started over.
//!
//! [`merge_shards`] reads any set of shard files, refuses mixed seeds or
//! mismatched spec hashes, verifies full grid coverage (no holes, no
//! conflicting duplicates) and reassembles the exact [`SpecOutcome`] the
//! in-process path ([`ExperimentSpec::run`]) produces — bit for bit, which
//! the `sharding` integration tests and the CI smoke step pin.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use rats_daggen::suite::Scenario;
use rats_journal::{log, Event, Journal};
use rats_sched::Allocation;
use serde::{Deserialize, Serialize, Value};

use crate::campaign::{fold_records, run_jobs};
use crate::grid::{JobId, ShardSpec};
use crate::record::RunRecord;
use crate::runner::{default_threads, ParallelExec};
use crate::spec::{ExperimentSpec, SpecError, SpecOutcome};

/// Current shard-file format version.
const FORMAT: u64 = 1;

/// First line of every shard file: what was run, under which addressing.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// The campaign, normalized (no `shard`, no `threads`).
    pub spec: ExperimentSpec,
    /// [`ExperimentSpec::spec_hash`] of `spec` — merge's compatibility key.
    pub spec_hash: String,
    /// Workload seed (also inside `spec`; kept explicit so mixed-seed
    /// merges are rejected with a precise error).
    pub seed: u64,
    /// Which shard of the grid this file covers.
    pub shard: ShardSpec,
    /// Worker threads used (provenance only — results do not depend on it).
    pub threads: usize,
}

impl Serialize for ShardManifest {
    fn serialize(&self) -> Value {
        let mut t = Value::table();
        t.insert("kind", "manifest")
            .insert("format", &FORMAT)
            .insert("spec", &self.spec)
            .insert("spec_hash", &self.spec_hash)
            .insert("seed", &self.seed)
            .insert("shard", &self.shard)
            .insert("threads", &self.threads);
        t
    }
}

impl Deserialize for ShardManifest {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let kind: String = v.field("kind")?;
        if kind != "manifest" {
            return Err(serde::Error::new(format!(
                "expected a manifest line, got kind `{kind}`"
            )));
        }
        let format: u64 = v.field("format")?;
        if format != FORMAT {
            return Err(serde::Error::new(format!(
                "unsupported shard file format {format} (this build reads {FORMAT})"
            )));
        }
        Ok(Self {
            spec: v.field("spec")?,
            spec_hash: v.field("spec_hash")?,
            seed: v.field("seed")?,
            shard: v.field("shard")?,
            threads: v.field("threads")?,
        })
    }
}

/// Outcome of one [`run_shard`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRun {
    /// The shard file written or extended.
    pub path: PathBuf,
    /// Jobs evaluated by this call.
    pub executed: usize,
    /// Jobs already on disk and skipped (resume).
    pub skipped: usize,
    /// Total jobs in the shard.
    pub total: usize,
    /// Whether a [`ShardHooks::cancel`] flag stopped the run early. The
    /// records written so far are committed (a later run resumes past
    /// them); `executed` counts only what landed.
    pub aborted: bool,
}

/// A warm source of step-one (HCPA) allocations, keyed by cluster name and
/// scenario id.
///
/// `allocate` is a pure function of `(dag, platform)`, so a cached
/// allocation is bit-identical to a recomputed one — serving it from a
/// resident cache changes wall-clock, never results. A long-lived server
/// implements this over an LRU keyed by population + cluster shape;
/// [`run_shard_hooked`] consults it before step one and publishes whatever
/// it had to compute.
pub trait AllocSource: Sync {
    /// A cached allocation for `scenario` on `cluster`, if present.
    fn lookup(&self, cluster: &str, scenario: usize) -> Option<Allocation>;
    /// Offers a freshly computed allocation to the cache.
    fn publish(&self, cluster: &str, scenario: usize, alloc: &Allocation);
}

/// Optional extension points for [`run_shard_hooked`] — and the options of
/// the job loop behind it and [`ExperimentSpec::run`]. `Default` is the
/// plain batch behaviour ([`run_shard`] passes it).
#[derive(Default)]
pub struct ShardHooks<'a> {
    /// The spec's scenario population, exactly what
    /// [`ExperimentSpec::scenarios`] would generate (same suite, same seed
    /// — ids dense and in order). Dispatch workers and the server pass a
    /// population loaded from a shared cache so one generation serves many
    /// runs; `None` generates it locally, and only if a job needs it.
    pub scenarios: Option<&'a [Scenario]>,
    /// Campaign journal: the run emits `job-started` on entry (after
    /// resume bookkeeping, so `skipped` is the resumed count), `chunk-done`
    /// after each committed write batch, and `job-finished` with the
    /// wall-clock total — the timing events `campaign status` turns into
    /// ETA and throughput. Journaling is provenance, not control flow, and
    /// never fails the shard.
    pub journal: Option<&'a mut Journal>,
    /// Called once per record after its write batch is appended to the
    /// shard file — the streaming hook a server uses to push results to a
    /// client as they land. Records arrive in job-id order within the run;
    /// resumed (skipped) jobs are not replayed through this hook.
    pub on_record: Option<&'a mut dyn FnMut(&RunRecord)>,
    /// Warm step-one allocations (see [`AllocSource`]).
    pub allocs: Option<&'a dyn AllocSource>,
    /// Resident execution pool; `None` uses per-call scoped threads.
    pub pool: Option<&'a dyn ParallelExec>,
    /// Cooperative cancellation, checked between write chunks: when set,
    /// the run returns early with [`ShardRun::aborted`] instead of an
    /// error, leaving a resumable shard file behind.
    pub cancel: Option<&'a std::sync::atomic::AtomicBool>,
}

/// Errors from executing a shard.
#[derive(Debug)]
pub enum ShardError {
    /// The spec is not executable.
    Spec(SpecError),
    /// Filesystem failure.
    Io(String),
    /// An existing shard file is unreadable (a bad or uncommitted
    /// manifest, or a corrupt record line that is not the final one).
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// Parse failure detail.
        message: String,
    },
    /// An existing shard file belongs to a different campaign, seed or
    /// shard coordinate.
    ManifestMismatch {
        /// Offending file.
        path: PathBuf,
        /// What differed.
        message: String,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Spec(e) => write!(f, "{e}"),
            ShardError::Io(m) => write!(f, "shard io error: {m}"),
            ShardError::Corrupt {
                path,
                line,
                message,
            } => write!(f, "corrupt shard file {path:?} line {line}: {message}"),
            ShardError::ManifestMismatch { path, message } => {
                write!(f, "shard file {path:?} does not match the spec: {message}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl From<SpecError> for ShardError {
    fn from(e: SpecError) -> Self {
        ShardError::Spec(e)
    }
}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e.to_string())
    }
}

/// The file name a spec's shard writes: `<name>-shard-<i>-of-<n>.jsonl`
/// (non-portable characters in the campaign name replaced by `-`).
pub fn shard_file_name(spec: &ExperimentSpec) -> String {
    let shard = spec.shard.unwrap_or_default();
    let name: String = spec
        .name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '-'
            }
        })
        .collect();
    format!("{name}-shard-{}-of-{}.jsonl", shard.index, shard.count)
}

/// Executes the spec's shard (default: the full grid as shard `0/1`),
/// appending one JSONL record per job to `dir/`[`shard_file_name`]. Jobs
/// already recorded are skipped, so re-running after a crash resumes where
/// the file ends. `threads` overrides the spec's thread count; the value
/// actually used is recorded in the manifest.
pub fn run_shard(
    spec: &ExperimentSpec,
    dir: &Path,
    threads: Option<usize>,
) -> Result<ShardRun, ShardError> {
    run_shard_hooked(spec, dir, threads, ShardHooks::default())
}

/// [`run_shard`] with extension points ([`ShardHooks`]): a supplied
/// scenario population, a campaign journal, per-record streaming, warm
/// step-one allocations, a resident execution pool and cooperative
/// cancellation.
///
/// Every hook is wall-clock-only: the shard file bytes, the record values
/// and the journal decision stream are bit-identical to the default batch
/// path (warm allocations are pure-function cache hits, the pool preserves
/// [`parallel_map`](crate::runner::parallel_map)'s ordered collection).
/// Cancellation is the one behavioural addition — it commits the chunks
/// written so far and returns [`ShardRun::aborted`].
pub fn run_shard_hooked(
    spec: &ExperimentSpec,
    dir: &Path,
    threads: Option<usize>,
    mut hooks: ShardHooks<'_>,
) -> Result<ShardRun, ShardError> {
    spec.validate()?;
    if let Some(provided) = hooks.scenarios {
        let expected = spec.suite.len();
        if provided.len() != expected {
            return Err(ShardError::Spec(SpecError::Invalid(format!(
                "provided scenario population has {} scenarios, suite `{}` needs {expected}",
                provided.len(),
                spec.suite.name()
            ))));
        }
        if let Some((i, s)) = provided.iter().enumerate().find(|(i, s)| s.id != *i) {
            return Err(ShardError::Spec(SpecError::Invalid(format!(
                "provided scenario population has id {} at position {i} (ids must be dense)",
                s.id
            ))));
        }
    }
    let shard = spec.shard.unwrap_or_default();
    let threads = threads
        .or(spec.threads)
        .unwrap_or_else(default_threads)
        .max(1);
    let manifest = ShardManifest {
        spec: spec.normalized(),
        spec_hash: spec.spec_hash(),
        seed: spec.seed,
        shard,
        threads,
    };

    fs::create_dir_all(dir)?;
    let path = dir.join(shard_file_name(spec));
    let existing = if path.exists() {
        load_shard_file(&path)?
    } else {
        None
    };
    let mut done: HashSet<u64> = HashSet::new();
    if let Some(loaded) = existing {
        let on_disk = &loaded.manifest;
        let mismatch = if on_disk.seed != manifest.seed {
            Some(format!(
                "seed {} on disk vs {} in the spec",
                on_disk.seed, manifest.seed
            ))
        } else if on_disk.spec_hash != manifest.spec_hash {
            Some(format!(
                "spec hash {} on disk vs {}",
                on_disk.spec_hash, manifest.spec_hash
            ))
        } else if on_disk.shard != shard {
            Some(format!("shard {} on disk vs {shard}", on_disk.shard))
        } else {
            None
        };
        if let Some(message) = mismatch {
            return Err(ShardError::ManifestMismatch { path, message });
        }
        if loaded.truncated_tail {
            // Drop the uncommitted line a crash left behind; its job re-runs.
            let records = loaded.records.iter().map(RunRecord::to_jsonl);
            log::create(
                &path,
                std::iter::once(manifest_line(&loaded.manifest)).chain(records),
            )?;
        }
        done.extend(loaded.records.iter().map(|r| r.job));
    } else {
        // A new file, or a pre-manifest wreck to start over.
        log::create(&path, [manifest_line(&manifest)])?;
    }

    let grid = spec.grid();
    let todo: Vec<JobId> = grid
        .shard_jobs(shard)
        .filter(|j| !done.contains(&j.0))
        .collect();
    let total = grid.shard_len(shard) as usize;
    let skipped = total - todo.len();
    let started = std::time::Instant::now();
    if let Some(j) = hooks.journal.as_deref_mut() {
        j.emit(Event::JobStarted {
            job: shard.index as u64,
            total: total as u64,
            skipped: skipped as u64,
        });
    }
    let mut file = fs::OpenOptions::new().append(true).open(&path)?;
    let mut executed = 0usize;
    let aborted = run_jobs(spec, &todo, threads, &mut hooks, |records| {
        log::append(&mut file, records.iter().map(RunRecord::to_jsonl))?;
        executed += records.len();
        Ok::<_, ShardError>(())
    })?;
    if !aborted {
        let elapsed = started.elapsed();
        if let Some(j) = hooks.journal {
            j.emit(Event::JobFinished {
                job: shard.index as u64,
                executed: executed as u64,
                skipped: skipped as u64,
                elapsed_ms: elapsed.as_millis() as u64,
            });
        }
        crate::telemetry::JOBS_COMPLETED.inc();
        crate::telemetry::RESUMED.add(skipped as u64);
        if rats_telemetry::enabled() {
            crate::telemetry::JOB_SECONDS.observe(elapsed.as_secs_f64());
        }
    }
    Ok(ShardRun {
        path,
        executed,
        skipped,
        total,
        aborted,
    })
}

/// A parsed shard file.
#[derive(Debug, Clone)]
pub struct ShardFile {
    /// The manifest on line 1.
    pub manifest: ShardManifest,
    /// Every committed, well-formed record.
    pub records: Vec<RunRecord>,
    /// Whether an uncommitted tail, or a complete final line that does not
    /// parse, was dropped (a crash mid-append).
    pub truncated_tail: bool,
}

/// Reads and validates one shard file. An uncommitted tail or a corrupt
/// final line is tolerated (reported via [`ShardFile::truncated_tail`]);
/// corruption anywhere else is an error, and so is a file with no
/// committed manifest line.
pub fn read_shard_file(path: &Path) -> Result<ShardFile, ShardError> {
    load_shard_file(path)?.ok_or_else(|| ShardError::Corrupt {
        path: path.to_path_buf(),
        line: 1,
        message: "no committed manifest line".into(),
    })
}

fn load_shard_file(path: &Path) -> Result<Option<ShardFile>, ShardError> {
    let bytes = fs::read(path).map_err(|e| ShardError::Io(format!("{path:?}: {e}")))?;
    parse_shard_file(path, &bytes)
}

/// Parses the bytes of the shard file at `path` under the
/// [`rats_journal::log`] rule, as [`read_shard_file`] does, but returns
/// `Ok(None)` for a pre-manifest wreck: a file whose manifest line never
/// committed, so no record can be in it.
pub fn parse_shard_file(path: &Path, bytes: &[u8]) -> Result<Option<ShardFile>, ShardError> {
    let Some(lines) = log::split(bytes) else {
        return Ok(None);
    };
    let corrupt = |line: usize, message: String| ShardError::Corrupt {
        path: path.to_path_buf(),
        line,
        message,
    };
    let manifest: ShardManifest =
        parse_line(lines.header, serde_json::from_str).map_err(|e| corrupt(1, e))?;
    if manifest.spec.spec_hash() != manifest.spec_hash {
        return Err(corrupt(
            1,
            format!(
                "manifest hash {} does not match its own spec ({})",
                manifest.spec_hash,
                manifest.spec.spec_hash()
            ),
        ));
    }
    let mut records = Vec::with_capacity(lines.body.len());
    let mut truncated_tail = lines.torn_tail;
    for (i, line) in lines.body.iter().enumerate() {
        let is_final = i + 1 == lines.body.len() && !lines.torn_tail;
        match parse_line(line, RunRecord::from_jsonl) {
            Ok(r) => records.push(r),
            Err(_) if is_final => truncated_tail = true,
            Err(e) => return Err(corrupt(i + 2, e)),
        }
    }
    Ok(Some(ShardFile {
        manifest,
        records,
        truncated_tail,
    }))
}

/// Parses one committed line. A damaged line that is not UTF-8 is a
/// corrupt line, not an unreadable file.
fn parse_line<T, E: fmt::Display>(
    line: &[u8],
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, String> {
    let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
    parse(text).map_err(|e| e.to_string())
}

fn manifest_line(manifest: &ShardManifest) -> String {
    serde_json::to_string(manifest).expect("manifests always serialize")
}

/// Errors from merging shard files.
#[derive(Debug)]
pub enum MergeError {
    /// No input files.
    NoShards,
    /// A shard file failed to read or parse (see [`ShardError`]).
    Shard(ShardError),
    /// The embedded spec is not executable (e.g. a hand-edited manifest).
    Spec(SpecError),
    /// Two shard files were generated under different workload seeds —
    /// they describe different scenario populations and must never be
    /// combined.
    SeedMismatch {
        /// Seed of the first file read.
        first: u64,
        /// The conflicting seed.
        other: u64,
        /// File carrying the conflicting seed.
        path: PathBuf,
    },
    /// Two shard files hash to different campaigns.
    SpecMismatch {
        /// Hash of the first file read.
        first: String,
        /// The conflicting hash.
        other: String,
        /// File carrying the conflicting hash.
        path: PathBuf,
    },
    /// A record contradicts the grid addressing or an identical job id
    /// already merged with different numbers.
    RecordMismatch {
        /// Offending job id.
        job: u64,
        /// What disagreed.
        message: String,
    },
    /// The merged set does not cover the whole grid.
    MissingJobs {
        /// How many jobs are absent.
        missing: u64,
        /// The first few absent ids (diagnostics).
        first: Vec<u64>,
        /// Grid size, for context.
        total: u64,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NoShards => write!(f, "no shard files to merge"),
            MergeError::Shard(e) => write!(f, "{e}"),
            MergeError::Spec(e) => write!(f, "merged spec is invalid: {e}"),
            MergeError::SeedMismatch { first, other, path } => write!(
                f,
                "refusing to merge mixed seeds: {path:?} was generated under seed {other}, \
                 other shards under seed {first} (different seeds are different populations)"
            ),
            MergeError::SpecMismatch { first, other, path } => write!(
                f,
                "refusing to merge different campaigns: {path:?} has spec hash {other}, \
                 other shards have {first}"
            ),
            MergeError::RecordMismatch { job, message } => {
                write!(f, "record for job #{job} is inconsistent: {message}")
            }
            MergeError::MissingJobs {
                missing,
                first,
                total,
            } => write!(
                f,
                "incomplete campaign: {missing} of {total} jobs missing (first absent ids: \
                 {first:?}) — run the remaining shards or resume the crashed ones"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

impl From<ShardError> for MergeError {
    fn from(e: ShardError) -> Self {
        MergeError::Shard(e)
    }
}

impl From<SpecError> for MergeError {
    fn from(e: SpecError) -> Self {
        MergeError::Spec(e)
    }
}

/// All `*.jsonl` files of a directory, name-sorted (the natural input to
/// [`merge_shards`] when every worker wrote to one output directory).
pub fn collect_shard_files(dir: &Path) -> Result<Vec<PathBuf>, MergeError> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir)
        .map_err(|e| MergeError::Shard(ShardError::Io(format!("{dir:?}: {e}"))))?;
    for entry in entries {
        let entry = entry.map_err(|e| MergeError::Shard(ShardError::Io(e.to_string())))?;
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "jsonl") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Merges shard files back into the exact in-process campaign outcome.
///
/// Validation: all manifests must agree on seed and spec hash (shard
/// *granularity* may differ — a 2-way and a 3-way split of the same
/// campaign address the same job ids and merge fine); every record must sit
/// at its grid address; duplicates must agree bit-for-bit; and the union
/// must cover the grid with no holes. The returned [`SpecOutcome`] is
/// bit-identical to what [`ExperimentSpec::run`] returns for the same
/// (normalized) spec.
pub fn merge_shards(paths: &[PathBuf]) -> Result<SpecOutcome, MergeError> {
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        files.push((path.clone(), read_shard_file(path)?));
    }
    Ok(merge_shard_files(files)?.0)
}

/// [`merge_shards`] over shard files already read, each paired with its
/// path. Also returns the merged records, one per job in job-id order (the
/// first copy in file order), so a caller that streams them needs no
/// second read.
pub fn merge_shard_files(
    files: Vec<(PathBuf, ShardFile)>,
) -> Result<(SpecOutcome, Vec<RunRecord>), MergeError> {
    let Some((_, reference)) = files.first() else {
        return Err(MergeError::NoShards);
    };
    let spec = reference.manifest.spec.clone();
    let seed = reference.manifest.seed;
    let hash = reference.manifest.spec_hash.clone();
    for (path, file) in &files {
        if file.manifest.seed != seed {
            return Err(MergeError::SeedMismatch {
                first: seed,
                other: file.manifest.seed,
                path: path.clone(),
            });
        }
        if file.manifest.spec_hash != hash {
            return Err(MergeError::SpecMismatch {
                first: hash,
                other: file.manifest.spec_hash.clone(),
                path: path.clone(),
            });
        }
    }
    spec.validate()?;
    let grid = spec.grid();

    let mut by_job: BTreeMap<u64, RunRecord> = BTreeMap::new();
    for (_, file) in files {
        for record in file.records {
            let mismatch = |message: String| MergeError::RecordMismatch {
                job: record.job,
                message,
            };
            if record.job >= grid.len() {
                return Err(mismatch(format!(
                    "job id out of range for the {}-job grid",
                    grid.len()
                )));
            }
            if record.seed != seed {
                return Err(mismatch(format!(
                    "record seed {} differs from the campaign seed {seed}",
                    record.seed
                )));
            }
            let c = grid.coords(JobId(record.job));
            if spec.clusters[c.cluster] != record.cluster {
                return Err(mismatch(format!(
                    "cluster `{}` does not match grid address `{}`",
                    record.cluster, spec.clusters[c.cluster]
                )));
            }
            if spec.strategies[c.strategy] != record.strategy {
                return Err(mismatch(format!(
                    "strategy {:?} does not match grid address {:?}",
                    record.strategy, spec.strategies[c.strategy]
                )));
            }
            if c.scenario != record.scenario_id {
                return Err(mismatch(format!(
                    "scenario id {} does not match grid address {}",
                    record.scenario_id, c.scenario
                )));
            }
            if let Some(existing) = by_job.get(&record.job) {
                let identical = existing.makespan.to_bits() == record.makespan.to_bits()
                    && existing.work.to_bits() == record.work.to_bits()
                    && existing.family == record.family;
                if !identical {
                    return Err(mismatch(
                        "duplicate job with different results (mixed campaign outputs?)".into(),
                    ));
                }
            } else {
                by_job.insert(record.job, record);
            }
        }
    }

    let total = grid.len();
    if (by_job.len() as u64) < total {
        let first: Vec<u64> = (0..total)
            .filter(|j| !by_job.contains_key(j))
            .take(5)
            .collect();
        return Err(MergeError::MissingJobs {
            missing: total - by_job.len() as u64,
            first,
            total,
        });
    }

    let records: Vec<RunRecord> = by_job.into_values().collect();
    Ok((fold_records(spec, &records)?, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SuiteSpec;

    #[test]
    fn shard_file_names_are_filesystem_safe() {
        let mut spec = ExperimentSpec::naive("a b/c", "chti", SuiteSpec::Mini, 1);
        spec.shard = Some(ShardSpec::new(1, 2));
        assert_eq!(shard_file_name(&spec), "a-b-c-shard-1-of-2.jsonl");
        spec.shard = None;
        assert_eq!(shard_file_name(&spec), "a-b-c-shard-0-of-1.jsonl");
    }

    #[test]
    fn manifest_round_trips() {
        let spec = ExperimentSpec::naive("m", "grillon", SuiteSpec::Mini, 5);
        let manifest = ShardManifest {
            spec: spec.normalized(),
            spec_hash: spec.spec_hash(),
            seed: spec.seed,
            shard: ShardSpec::new(1, 3),
            threads: 4,
        };
        let line = serde_json::to_string(&manifest).unwrap();
        let back: ShardManifest = serde_json::from_str(&line).unwrap();
        assert_eq!(back, manifest);
    }

    #[test]
    fn merge_of_nothing_is_an_error() {
        assert!(matches!(merge_shards(&[]), Err(MergeError::NoShards)));
    }
}
