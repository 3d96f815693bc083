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
//! The file is append-only: restarting a worker re-reads it, validates the
//! manifest against the spec, skips every job already on disk and resumes
//! with the rest — crash recovery needs no extra bookkeeping. A partially
//! written trailing line (the signature of a crash mid-append) is dropped
//! and re-executed.
//!
//! [`merge_shards`] reads any set of shard files, refuses mixed seeds or
//! mismatched spec hashes, verifies full grid coverage (no holes, no
//! conflicting duplicates) and reassembles the exact [`SpecOutcome`] the
//! in-process path ([`ExperimentSpec::run`]) produces — bit for bit, which
//! the `sharding` integration tests and the CI smoke step pin.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use rats_daggen::suite::Scenario;
use rats_journal::{Event, Journal};
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
    /// An existing shard file is unreadable (bad manifest or a corrupt
    /// record line that is not the final one).
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
        match read_shard_file(&path) {
            Ok(loaded) => Some(loaded),
            // A crash between creating the file and committing the manifest
            // line leaves an empty or single-unterminated-line file. No
            // record can have landed yet, so start the shard over instead
            // of wedging every future resume on the corrupt line 1.
            Err(ShardError::Corrupt { line: 1, .. })
                if fs::read(&path)
                    .map(|bytes| String::from_utf8_lossy(&bytes).lines().count() <= 1)
                    .unwrap_or(false) =>
            {
                None
            }
            Err(e) => return Err(e),
        }
    } else {
        None
    };
    let mut done: HashSet<u64> = HashSet::new();
    if let Some(loaded) = existing {
        if loaded.manifest.seed != manifest.seed {
            return Err(ShardError::ManifestMismatch {
                path,
                message: format!(
                    "seed {} on disk vs {} in the spec",
                    loaded.manifest.seed, manifest.seed
                ),
            });
        }
        if loaded.manifest.spec_hash != manifest.spec_hash {
            return Err(ShardError::ManifestMismatch {
                path,
                message: format!(
                    "spec hash {} on disk vs {}",
                    loaded.manifest.spec_hash, manifest.spec_hash
                ),
            });
        }
        if loaded.manifest.shard != shard {
            return Err(ShardError::ManifestMismatch {
                path,
                message: format!("shard {} on disk vs {shard}", loaded.manifest.shard),
            });
        }
        if loaded.truncated_tail {
            // Drop the uncommitted line a crash left behind; its job re-runs.
            rewrite_without_tail(&path, &loaded)?;
        }
        done.extend(loaded.records.iter().map(|r| r.job));
    } else {
        // The manifest line lands via a temp file + rename, so no crash
        // window can leave an empty or torn-line-1 shard file behind: a
        // shard file either does not exist yet or starts with a complete
        // manifest. (The truncated-single-line recovery above remains for
        // files written by older builds.) The rename also truncates any
        // pre-manifest wreck this resume just decided to restart.
        let tmp = path.with_extension("jsonl.tmp");
        {
            let mut file = fs::File::create(&tmp)?;
            writeln!(
                file,
                "{}",
                serde_json::to_string(&manifest).expect("manifests always serialize")
            )?;
        }
        fs::rename(&tmp, &path)?;
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
        for record in records {
            writeln!(file, "{}", record.to_jsonl())?;
            executed += 1;
        }
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
    /// Every well-formed record.
    pub records: Vec<RunRecord>,
    /// Whether an unparseable **final** line was dropped (crash mid-append).
    pub truncated_tail: bool,
}

/// Reads and validates one shard file. A corrupt **or unterminated** final
/// line is tolerated (reported via [`ShardFile::truncated_tail`]);
/// corruption anywhere else is an error.
///
/// A record only counts once its trailing newline hit the disk: the record
/// bytes and the `\n` are separate writes, so a crash between them leaves a
/// line that parses but is not yet committed — accepting it would make the
/// next append glue two records onto one line.
pub fn read_shard_file(path: &Path) -> Result<ShardFile, ShardError> {
    let bytes = fs::read(path).map_err(|e| ShardError::Io(format!("{path:?}: {e}")))?;
    let terminated = bytes.ends_with(b"\n");
    // Lines as `str::lines` splits them, but still bytes: a damaged line
    // that is not UTF-8 is a corrupt line, not an unreadable file.
    let mut lines: Vec<&[u8]> = bytes
        .split(|&b| b == b'\n')
        .map(|l| l.strip_suffix(b"\r").unwrap_or(l))
        .collect();
    if terminated || bytes.is_empty() {
        lines.pop();
    }
    let corrupt = |line: usize, message: String| ShardError::Corrupt {
        path: path.to_path_buf(),
        line,
        message,
    };
    let first = lines
        .first()
        .ok_or_else(|| corrupt(1, "empty shard file".into()))?;
    if lines.len() == 1 && !terminated {
        return Err(corrupt(1, "unterminated manifest line".into()));
    }
    let manifest: ShardManifest = std::str::from_utf8(first)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
        .map_err(|e| corrupt(1, e))?;
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
    let mut records = Vec::with_capacity(lines.len().saturating_sub(1));
    let mut truncated_tail = false;
    for (i, line) in lines.iter().enumerate().skip(1) {
        let is_final = i + 1 == lines.len();
        if is_final && !terminated {
            // A crash mid-append leaves exactly one uncommitted final line.
            truncated_tail = true;
            continue;
        }
        let record = std::str::from_utf8(line)
            .map_err(|e| e.to_string())
            .and_then(|text| RunRecord::from_jsonl(text).map_err(|e| e.to_string()));
        match record {
            Ok(r) => records.push(r),
            Err(_) if is_final => truncated_tail = true,
            Err(e) => return Err(corrupt(i + 1, e)),
        }
    }
    Ok(ShardFile {
        manifest,
        records,
        truncated_tail,
    })
}

/// Rewrites a shard file from its parsed good lines, dropping the partial
/// tail. The rewrite goes through a temp file + rename so a second crash
/// cannot corrupt the journal further.
fn rewrite_without_tail(path: &Path, loaded: &ShardFile) -> Result<(), ShardError> {
    let tmp = path.with_extension("jsonl.tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        writeln!(
            file,
            "{}",
            serde_json::to_string(&loaded.manifest).expect("manifests always serialize")
        )?;
        for r in &loaded.records {
            writeln!(file, "{}", r.to_jsonl())?;
        }
    }
    fs::rename(&tmp, path)?;
    Ok(())
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
