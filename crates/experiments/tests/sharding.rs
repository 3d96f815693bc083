//! Sharded execution is provably equivalent to the in-process path:
//! `merge(shards 0..n)` reproduces the single-process `AlgoResults` (and
//! tuning tables) bit for bit, for n ∈ {1, 2, 3}, including after a
//! crash-resume; mixed seeds are rejected; a damaged record line reads as
//! corrupt or as a dropped tail, never as a panic.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use rats_experiments::grid::ShardSpec;
use rats_experiments::record::RunRecord;
use rats_experiments::shard::{merge_shards, read_shard_file, run_shard, MergeError, ShardError};
use rats_experiments::spec::{ExperimentSpec, SpecOutcome, SuiteSpec};
use rats_experiments::tuning;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rats-sharding-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn mini_spec(name: &str, seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::naive(name, "grillon", SuiteSpec::Mini, seed);
    spec.threads = Some(2);
    spec
}

/// Runs every shard of an n-way split into `dir` and returns the files.
fn run_all_shards(spec: &ExperimentSpec, n: usize, dir: &Path) -> Vec<PathBuf> {
    (0..n)
        .map(|i| {
            let mut shard_spec = spec.clone();
            shard_spec.shard = Some(ShardSpec::new(i, n));
            let run = run_shard(&shard_spec, dir, None).unwrap();
            assert_eq!(run.executed + run.skipped, run.total);
            run.path
        })
        .collect()
}

fn assert_outcomes_bit_identical(merged: &SpecOutcome, reference: &SpecOutcome) {
    assert_eq!(merged.clusters.len(), reference.clusters.len());
    for (mc, rc) in merged.clusters.iter().zip(&reference.clusters) {
        assert_eq!(mc.cluster, rc.cluster);
        assert_eq!(mc.results.len(), rc.results.len());
        for (ma, ra) in mc.results.iter().zip(&rc.results) {
            assert_eq!(ma.name, ra.name);
            assert_eq!(ma.runs.len(), ra.runs.len());
            for (mr, rr) in ma.runs.iter().zip(&ra.runs) {
                assert_eq!(mr.scenario_id, rr.scenario_id);
                assert_eq!(mr.family, rr.family);
                assert_eq!(
                    mr.makespan.to_bits(),
                    rr.makespan.to_bits(),
                    "makespan differs for {} scenario {}",
                    ma.name,
                    mr.scenario_id
                );
                assert_eq!(mr.work.to_bits(), rr.work.to_bits());
            }
        }
    }
    // The rendered reports are therefore identical too (what the CI smoke
    // step diffs).
    assert_eq!(merged.render(), reference.render());
}

/// A custom workload campaign: three synthesized DAG families on a star
/// platform, a slow bus and one cell of a heterogeneous-speed sweep.
fn custom_spec(name: &str, seed: u64) -> ExperimentSpec {
    let toml = format!(
        "name = \"{name}\"\n\
         seed = {seed}\n\
         suite = \"custom\"\n\
         total = 5\n\
         threads = 2\n\
         clusters = [\"edge\", \"ether\", \"het-p8x4\"]\n\
         \n\
         [[strategies]]\n\
         kind = \"hcpa\"\n\
         \n\
         [[strategies]]\n\
         kind = \"delta\"\n\
         mindelta = 0.5\n\
         maxdelta = 0.5\n\
         \n\
         [[families]]\n\
         kind = \"fork-join\"\n\
         count = 2\n\
         stages = \"range(2, 3)\"\n\
         branches = 4\n\
         \n\
         [[families]]\n\
         kind = \"irregular\"\n\
         n = [20, 30]\n\
         width = \"uniform(0.3, 0.7)\"\n\
         \n\
         [[families]]\n\
         kind = \"in-tree\"\n\
         depth = 3\n\
         ccr = \"loguniform(0.5, 2.0)\"\n\
         \n\
         [[topologies]]\n\
         name = \"edge\"\n\
         kind = \"star\"\n\
         procs = 9\n\
         backbone_mbps = 250.0\n\
         \n\
         [[topologies]]\n\
         name = \"ether\"\n\
         kind = \"bus\"\n\
         procs = 6\n\
         backbone_mbps = 12.5\n\
         \n\
         [[topologies]]\n\
         name = \"het\"\n\
         kind = \"flat\"\n\
         procs = [8, 16]\n\
         gflops = [2.0, 4.0]\n"
    );
    ExperimentSpec::from_toml(&toml).unwrap()
}

#[test]
fn custom_suite_shard_count_invariance() {
    // The acceptance invariant for SuiteSpec::Custom: spec → shard → merge
    // reproduces spec.run() bit for bit, at every shard granularity, on
    // generated star/bus/heterogeneous clusters.
    let spec = custom_spec("custom-invariance", 2026);
    let reference = spec.run().unwrap();
    for n in 1..=3usize {
        let dir = temp_dir(&format!("custom{n}"));
        let files = run_all_shards(&spec, n, &dir);
        let merged = merge_shards(&files).unwrap();
        assert_outcomes_bit_identical(&merged, &reference);
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn custom_campaigns_with_different_workloads_do_not_merge() {
    // Same name, seed and counts — but different family parameters, so the
    // spec hashes (and suite tags) differ and merge must refuse.
    let dir_a = temp_dir("custom-a");
    let dir_b = temp_dir("custom-b");
    let a = custom_spec("mixed", 7);
    let mut b = custom_spec("mixed", 7);
    if let rats_experiments::spec::SuiteSpec::Custom(w) = &mut b.suite {
        w.families[0].branches = rats_workloads::IntDist::Fixed(5);
    }
    assert_ne!(a.spec_hash(), b.spec_hash());
    let fa = run_all_shards(&a, 2, &dir_a);
    let fb = run_all_shards(&b, 2, &dir_b);
    match merge_shards(&[fa[0].clone(), fb[1].clone()]) {
        Err(MergeError::SpecMismatch { .. }) => {}
        other => panic!("expected SpecMismatch, got {other:?}"),
    }
    fs::remove_dir_all(&dir_a).unwrap();
    fs::remove_dir_all(&dir_b).unwrap();
}

#[test]
fn shard_count_invariance() {
    let spec = mini_spec("invariance", 77);
    let reference = spec.run().unwrap();
    for n in 1..=3usize {
        let dir = temp_dir(&format!("inv{n}"));
        let files = run_all_shards(&spec, n, &dir);
        assert_eq!(files.len(), n);
        let merged = merge_shards(&files).unwrap();
        assert_outcomes_bit_identical(&merged, &reference);
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn mixed_granularity_shards_merge() {
    // A 2-way and a 3-way split of the same campaign address the same job
    // ids; any covering union merges.
    let spec = mini_spec("granularity", 78);
    let reference = spec.run().unwrap();
    let dir2 = temp_dir("gran2");
    let dir3 = temp_dir("gran3");
    let mut files = run_all_shards(&spec, 2, &dir2);
    files.extend(run_all_shards(&spec, 3, &dir3));
    let merged = merge_shards(&files).unwrap();
    assert_outcomes_bit_identical(&merged, &reference);
    fs::remove_dir_all(&dir2).unwrap();
    fs::remove_dir_all(&dir3).unwrap();
}

#[test]
fn resume_after_partial_shard_and_truncated_tail() {
    let spec = mini_spec("resume", 79);
    let reference = spec.run().unwrap();
    let dir = temp_dir("resume");
    let files = run_all_shards(&spec, 2, &dir);

    // Simulate a crash: keep the manifest + 3 records of shard 0 and half
    // of a fourth record line.
    let text = fs::read_to_string(&files[0]).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 5, "mini shard should have several records");
    let mut crashed = lines[..4].join("\n");
    crashed.push('\n');
    crashed.push_str(&lines[4][..lines[4].len() / 2]);
    fs::write(&files[0], &crashed).unwrap();

    // Resume: the partial line is dropped, done jobs are skipped, the rest
    // re-executes.
    let mut shard0 = spec.clone();
    shard0.shard = Some(ShardSpec::new(0, 2));
    let resumed = run_shard(&shard0, &dir, None).unwrap();
    assert_eq!(resumed.skipped, 3);
    assert_eq!(resumed.executed, resumed.total - 3);

    let loaded = read_shard_file(&files[0]).unwrap();
    assert!(!loaded.truncated_tail);

    let merged = merge_shards(&files).unwrap();
    assert_outcomes_bit_identical(&merged, &reference);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unterminated_final_record_is_not_glued_onto_by_resume() {
    // A crash can land *between* a record's bytes and its trailing newline:
    // the line parses, but accepting it would make the next append glue two
    // records onto one line. The uncommitted record must re-run instead.
    let spec = mini_spec("unterminated", 82);
    let reference = spec.run().unwrap();
    let dir = temp_dir("unterminated");
    let files = run_all_shards(&spec, 2, &dir);

    let text = fs::read_to_string(&files[0]).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // Manifest + 3 complete records + a 4th record missing its newline.
    let crashed = lines[..5].join("\n");
    fs::write(&files[0], &crashed).unwrap();
    let loaded = read_shard_file(&files[0]).unwrap();
    assert!(loaded.truncated_tail);
    assert_eq!(loaded.records.len(), 3);

    let mut shard0 = spec.clone();
    shard0.shard = Some(ShardSpec::new(0, 2));
    let resumed = run_shard(&shard0, &dir, None).unwrap();
    assert_eq!(resumed.skipped, 3);

    // Every line of the repaired file parses — nothing got glued.
    let repaired = fs::read_to_string(&files[0]).unwrap();
    assert!(repaired.ends_with('\n'));
    for line in repaired.lines().skip(1) {
        rats_experiments::record::RunRecord::from_jsonl(line).unwrap();
    }
    let merged = merge_shards(&files).unwrap();
    assert_outcomes_bit_identical(&merged, &reference);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_before_manifest_commit_recovers() {
    // A worker that dies between File::create and the manifest write leaves
    // an empty (or partial single-line) file; the next run must start the
    // shard over instead of failing forever on the corrupt line 1.
    let spec = mini_spec("premanifest", 83);
    let reference = spec.run().unwrap();
    let dir = temp_dir("premanifest");
    let mut shard0 = spec.clone();
    shard0.shard = Some(ShardSpec::new(0, 2));

    // The last wreck ends inside a two-byte UTF-8 character.
    for wreck in [&b""[..], b"{\"kind\":\"mani", b"{\"name\":\"caf\xc3"] {
        let path = dir.join("premanifest-shard-0-of-2.jsonl");
        fs::write(&path, wreck).unwrap();
        let run = run_shard(&shard0, &dir, None).unwrap();
        assert_eq!(run.skipped, 0);
        assert_eq!(run.executed, run.total);
        assert!(read_shard_file(&path).is_ok());
    }

    let mut shard1 = spec.clone();
    shard1.shard = Some(ShardSpec::new(1, 2));
    let s1 = run_shard(&shard1, &dir, None).unwrap();
    let s0 = dir.join("premanifest-shard-0-of-2.jsonl");
    let merged = merge_shards(&[s0, s1.path]).unwrap();
    assert_outcomes_bit_identical(&merged, &reference);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn rerunning_a_complete_shard_is_a_no_op() {
    let spec = mini_spec("noop", 80);
    let dir = temp_dir("noop");
    let files = run_all_shards(&spec, 2, &dir);
    let before = fs::read_to_string(&files[1]).unwrap();
    let mut shard1 = spec.clone();
    shard1.shard = Some(ShardSpec::new(1, 2));
    let rerun = run_shard(&shard1, &dir, None).unwrap();
    assert_eq!(rerun.executed, 0);
    assert_eq!(rerun.skipped, rerun.total);
    assert_eq!(fs::read_to_string(&files[1]).unwrap(), before);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mixed_seed_shards_are_rejected() {
    // BASE_SEED interplay: the seed generates the scenario population, so
    // every shard file embeds it and merge refuses to mix populations.
    let dir = temp_dir("seeds");
    let a = run_all_shards(&mini_spec("seeds", 101), 2, &dir);
    // Same name, different seed: same file-name scheme would collide, so
    // run the second campaign into its own directory.
    let dir_b = temp_dir("seeds-b");
    let b = run_all_shards(&mini_spec("seeds", 202), 2, &dir_b);
    let mixed = vec![a[0].clone(), b[1].clone()];
    match merge_shards(&mixed) {
        Err(MergeError::SeedMismatch { first, other, .. }) => {
            assert_eq!(first, 101);
            assert_eq!(other, 202);
        }
        other => panic!("expected SeedMismatch, got {other:?}"),
    }
    // The executor equally refuses to resume a shard file under a
    // different seed.
    let mut reseeded = mini_spec("seeds", 303);
    reseeded.shard = Some(ShardSpec::new(0, 2));
    assert!(run_shard(&reseeded, &dir, None).is_err());
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&dir_b).unwrap();
}

#[test]
fn merge_reports_holes() {
    let spec = mini_spec("holes", 104);
    let dir = temp_dir("holes");
    let mut with_shard = spec.clone();
    with_shard.shard = Some(ShardSpec::new(0, 3));
    let run = run_shard(&with_shard, &dir, None).unwrap();
    match merge_shards(&[run.path]) {
        Err(MergeError::MissingJobs { missing, total, .. }) => {
            assert_eq!(total, spec.grid().len());
            assert_eq!(missing, total - run.total as u64);
        }
        other => panic!("expected MissingJobs, got {other:?}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sharded_tuning_sweep_matches_in_process_tables_bit_for_bit() {
    // The tuning grids flow through the same job grid: a sweep campaign
    // executed in shards merges into the in-process run's tables.
    let mut spec = mini_spec("sweep", 91);
    spec.strategies = tuning::sweep_specs();
    let reference = spec.run().unwrap();
    let dir = temp_dir("sweep");
    let files = run_all_shards(&spec, 3, &dir);
    let merged = merge_shards(&files).unwrap();
    assert_outcomes_bit_identical(&merged, &reference);

    let merged_tables = tuning::sweep_tables(&merged.clusters[0].results);
    let reference_tables = tuning::sweep_tables(&reference.clusters[0].results);
    assert_eq!(merged_tables, reference_tables);
    fs::remove_dir_all(&dir).unwrap();
}

/// Cooperative cancellation through [`ShardHooks::cancel`]: a set flag
/// aborts before any work, a flag set mid-run leaves a resumable file, and
/// the resumed campaign merges bit-identical to the uncancelled one.
#[test]
fn cancelled_shard_aborts_resumably() {
    use rats_experiments::shard::{run_shard_hooked, ShardHooks};
    use std::sync::atomic::{AtomicBool, Ordering};

    // Two clusters: the cancel flag is observed between write chunks and
    // between clusters, and a whole mini cluster fits one chunk — so the
    // mid-run cancel below stops at the cluster boundary.
    let mut spec = mini_spec("cancel", 904);
    spec.clusters.push("chti".to_string());
    let reference = spec.run().unwrap();
    let dir = temp_dir("cancel");

    // Pre-set flag: nothing executes, the run reports aborted.
    let cancel = AtomicBool::new(true);
    let run = run_shard_hooked(
        &spec,
        &dir,
        Some(2),
        ShardHooks {
            cancel: Some(&cancel),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(run.aborted);
    assert_eq!(run.executed, 0, "a pre-set cancel stops before any chunk");

    // Cancel from the on_record hook: some records commit, then the run
    // stops between chunks — still aborted, still resumable.
    cancel.store(false, Ordering::SeqCst);
    let mut seen = 0usize;
    let mut on_record = |_: &rats_experiments::record::RunRecord| {
        seen += 1;
        cancel.store(true, Ordering::SeqCst);
    };
    let run = run_shard_hooked(
        &spec,
        &dir,
        Some(2),
        ShardHooks {
            on_record: Some(&mut on_record),
            cancel: Some(&cancel),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(run.aborted);
    assert!(run.executed > 0 && run.executed < run.total);
    assert_eq!(run.executed, seen, "every committed record was streamed");

    // Resume with the flag cleared: the rest executes, nothing re-runs.
    cancel.store(false, Ordering::SeqCst);
    let resumed = run_shard_hooked(
        &spec,
        &dir,
        Some(2),
        ShardHooks {
            cancel: Some(&cancel),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(!resumed.aborted);
    assert_eq!(resumed.skipped, run.executed);
    assert_eq!(resumed.executed + resumed.skipped, resumed.total);
    let merged = merge_shards(std::slice::from_ref(&resumed.path)).unwrap();
    assert_outcomes_bit_identical(&merged, &reference);
    fs::remove_dir_all(&dir).unwrap();
}

/// A supplied population must be the spec's: the wrong length or ids that
/// are not dense and in order fail as spec errors before any shard file
/// is written.
#[test]
fn supplied_population_is_validated() {
    use rats_experiments::shard::{run_shard_hooked, ShardError, ShardHooks};

    let spec = mini_spec("population", 17);
    let dir = temp_dir("population");
    let short: Vec<_> = spec.scenarios().into_iter().skip(1).collect();
    let mut shuffled = spec.scenarios();
    shuffled.swap(0, 1);
    for bad in [&short, &shuffled] {
        let hooks = ShardHooks {
            scenarios: Some(bad),
            ..Default::default()
        };
        match run_shard_hooked(&spec, &dir, Some(2), hooks) {
            Err(ShardError::Spec(_)) => {}
            other => panic!("expected a spec error, got {other:?}"),
        }
    }
    assert_eq!(
        fs::read_dir(&dir).unwrap().count(),
        0,
        "no shard file written"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// A committed mini-run shard file: its bytes and its parsed records.
fn fuzz_seed_file() -> &'static (Vec<u8>, Vec<RunRecord>) {
    static FILE: OnceLock<(Vec<u8>, Vec<RunRecord>)> = OnceLock::new();
    FILE.get_or_init(|| {
        let dir = temp_dir("fuzz-seed");
        let run = run_shard(&mini_spec("fuzz", 5), &dir, None).unwrap();
        let bytes = fs::read(&run.path).unwrap();
        let records = read_shard_file(&run.path).unwrap().records;
        let _ = fs::remove_dir_all(&dir);
        (bytes, records)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Record lines truncated or with one byte flipped (any value, so
    /// invalid UTF-8 and stray newlines too) read as `Ok` or
    /// `Err(Corrupt)` — never a panic or an I/O error. A truncation inside
    /// a line is a crash mid-append: the prefix reads back whole, with
    /// `truncated_tail` set.
    #[test]
    fn damaged_record_lines_read_as_ok_or_corrupt(
        line in 1usize..28,
        at in 0.0f64..1.0,
        flip in 0u32..256,
    ) {
        let (bytes, records) = fuzz_seed_file();
        prop_assert_eq!(records.len(), 27);
        let starts: Vec<usize> = std::iter::once(0)
            .chain(bytes.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i + 1))
            .collect();
        let (start, len) = (starts[line], starts[line + 1] - 1 - starts[line]);
        let k = start + (at * len as f64) as usize;
        let mut damaged = bytes.clone();
        if flip == 0 {
            damaged.truncate(k);
        } else {
            damaged[k] ^= flip as u8;
        }
        let dir = std::env::temp_dir().join(format!("rats-sharding-fuzz-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("damaged.jsonl");
        fs::write(&path, &damaged).unwrap();
        match read_shard_file(&path) {
            Ok(file) if flip == 0 => {
                prop_assert_eq!(&file.records, &records[..line - 1]);
                prop_assert_eq!(file.truncated_tail, k > start);
            }
            Ok(_) => {}
            Err(ShardError::Corrupt { line: bad, .. }) => prop_assert!(flip != 0 && bad >= 2),
            Err(e) => panic!("line {line} byte {k} flip {flip:#x}: {e}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
