//! End-to-end dispatch equivalence: a campaign dispatched across real
//! worker OS processes — including workers killed mid-shard and reclaimed
//! — merges to the bit-identical in-process outcome.

mod common;

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use common::{assert_outcomes_bit_identical, temp_dir};
use rats_dispatch::dispatcher::{campaign_root, collect_shard_files_recursive};
use rats_dispatch::lifecycle::{merge_root, prepare_root};
use rats_dispatch::worker::{ChaosPhase, SHARDS_DIR};
use rats_dispatch::{dispatch, DispatchConfig, HostInventory, WorkQueue};
use rats_experiments::spec::{ExperimentSpec, SuiteSpec};

/// The `campaign` binary of this crate (built by cargo for us).
fn campaign_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_campaign"))
}

fn temp_out(tag: &str) -> PathBuf {
    temp_dir(&format!("dispatch-{tag}"))
}

fn mini_spec(name: &str, seed: u64) -> ExperimentSpec {
    ExperimentSpec::naive(name, "grillon", SuiteSpec::Mini, seed)
}

fn test_config(out: &Path, workers: usize) -> DispatchConfig {
    let mut cfg = DispatchConfig::new(out, HostInventory::localhost(workers * 2, workers));
    cfg.worker_exe = Some(campaign_exe());
    cfg.beat_ms = 40;
    cfg.poll_ms = 25;
    cfg.stale_ms = 600;
    cfg.timeout_ms = 120_000;
    cfg
}

#[test]
fn dispatched_campaign_is_bit_identical_to_in_process() {
    let mut spec = mini_spec("dispatch-eq", 501);
    spec.threads = Some(2);
    let reference = spec.run().unwrap();
    let out = temp_out("eq");
    let cfg = test_config(&out, 3);
    let report = dispatch(&spec, &cfg).unwrap();
    assert!(report.plan.shard_count >= 3);
    assert_eq!(report.respawned, 0, "healthy workers need no respawn");
    assert!(report.cache_written, "first dispatch writes the cache");
    assert_outcomes_bit_identical(&report.outcome, &reference);
    // Workers really used the shared cache (per-worker shard dirs exist,
    // cache file present).
    assert!(report.root.join("scenarios.cache").is_file());
    let worker_dirs = fs::read_dir(report.root.join(SHARDS_DIR)).unwrap().count();
    assert!(worker_dirs >= 2, "expected multiple worker shard dirs");
    fs::remove_dir_all(&out).unwrap();
}

/// A `SuiteSpec::Custom` campaign — synthesized families on generated
/// star/bus/heterogeneous clusters — dispatched across two real worker
/// processes merges to the bit-identical in-process outcome, with the
/// custom population served from the shared cache.
#[test]
fn dispatched_custom_workload_is_bit_identical_to_in_process() {
    let toml = "name = \"dispatch-custom\"\n\
                seed = 808\n\
                suite = \"custom\"\n\
                total = 5\n\
                threads = 2\n\
                clusters = [\"edge\", \"ether\"]\n\
                \n\
                [[strategies]]\n\
                kind = \"hcpa\"\n\
                \n\
                [[strategies]]\n\
                kind = \"time-cost\"\n\
                minrho = 0.5\n\
                \n\
                [[families]]\n\
                kind = \"irregular\"\n\
                count = 2\n\
                n = [20, 30]\n\
                width = \"uniform(0.3, 0.7)\"\n\
                \n\
                [[families]]\n\
                kind = \"out-tree\"\n\
                depth = 2\n\
                arity = 3\n\
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
                backbone_mbps = 25.0\n";
    let spec = ExperimentSpec::from_toml(toml).unwrap();
    let reference = spec.run().unwrap();
    let out = temp_out("custom");
    let cfg = test_config(&out, 2);
    let report = dispatch(&spec, &cfg).unwrap();
    assert!(report.cache_written, "custom population cache written once");
    assert_outcomes_bit_identical(&report.outcome, &reference);
    // The cache on disk is the custom population, tagged by content.
    let cache = fs::read_to_string(report.root.join("scenarios.cache")).unwrap();
    assert!(cache.contains("suite custom-"), "tag records the workload");
    assert!(cache.contains("OutTree"), "synthesized families serialized");
    fs::remove_dir_all(&out).unwrap();
}

/// One worker per chaos phase is killed (abort, no cleanup) at a precise
/// point of its first claim; the dispatcher must reclaim its lease,
/// respawn the slot and still merge the bit-identical outcome.
#[test]
fn killed_workers_are_reclaimed_and_resumed() {
    for (tag, phase) in [
        ("claim", ChaosPhase::Claim),
        ("manifest", ChaosPhase::Manifest),
        ("partial", ChaosPhase::Partial),
    ] {
        let mut spec = mini_spec(&format!("dispatch-{tag}"), 600 + tag.len() as u64);
        spec.threads = Some(2);
        let reference = spec.run().unwrap();
        let out = temp_out(&format!("chaos-{tag}"));
        let mut cfg = test_config(&out, 3);
        cfg.chaos = Some(phase);
        let report = dispatch(&spec, &cfg).unwrap();
        assert!(
            report.respawned >= 1,
            "{tag}: the killed worker must be respawned"
        );
        assert!(
            report.reclaimed >= 1,
            "{tag}: the killed worker's lease must be reclaimed"
        );
        assert_outcomes_bit_identical(&report.outcome, &reference);
        fs::remove_dir_all(&out).unwrap();
    }
}

/// The `partial` chaos phase leaves a shard file with committed records and
/// a torn tail; the adopting worker must *resume* it (skip the committed
/// jobs) rather than recompute from scratch.
#[test]
fn partial_output_of_a_dead_worker_is_adopted() {
    let mut spec = mini_spec("dispatch-adopt", 777);
    spec.threads = Some(2);
    let out = temp_out("adopt");
    let mut cfg = test_config(&out, 2);
    // One shard per worker × oversub 1 keeps shards large enough that the
    // partial file actually contains records to adopt.
    cfg.oversub = 1;
    cfg.chaos = Some(ChaosPhase::Partial);
    let report = dispatch(&spec, &cfg).unwrap();
    assert!(report.reclaimed >= 1);
    // The dead worker's directory still holds its partial file; some other
    // directory holds a completed file for the same shard whose record
    // count is at least as large.
    let files = collect_shard_files_recursive(&report.root.join(SHARDS_DIR)).unwrap();
    let mut by_name: std::collections::HashMap<String, Vec<usize>> = Default::default();
    for f in &files {
        let loaded = rats_experiments::shard::read_shard_file(f).unwrap();
        by_name
            .entry(f.file_name().unwrap().to_string_lossy().into_owned())
            .or_default()
            .push(loaded.records.len());
    }
    assert!(
        by_name.values().any(|counts| counts.len() >= 2),
        "expected the torn shard to exist in two worker directories: {by_name:?}"
    );
    assert_outcomes_bit_identical(&report.outcome, &spec.run().unwrap());
    fs::remove_dir_all(&out).unwrap();
}

/// Dispatching an already-complete campaign is a fast no-op resume: the
/// queue is all-done, nothing executes again, and the merge reproduces the
/// same outcome.
#[test]
fn re_dispatch_resumes_to_the_same_outcome() {
    let mut spec = mini_spec("dispatch-resume", 910);
    spec.threads = Some(2);
    let out = temp_out("redispatch");
    let cfg = test_config(&out, 2);
    let first = dispatch(&spec, &cfg).unwrap();
    // A dead worker's pre-manifest wreck (empty shard file) must not wedge
    // the re-merge — no record can live in it.
    let wreck_dir = first.root.join(SHARDS_DIR).join("deadbeat");
    fs::create_dir_all(&wreck_dir).unwrap();
    fs::write(wreck_dir.join("whatever-shard-0-of-1.jsonl"), "").unwrap();
    let again = dispatch(&spec, &cfg).unwrap();
    assert!(!again.cache_written, "cache is reused on resume");
    assert_eq!(again.reclaimed, 0);
    assert_outcomes_bit_identical(&again.outcome, &first.outcome);
    fs::remove_dir_all(&out).unwrap();
}

/// A raw `kill -9` on a worker process (no cooperative abort): whatever
/// state it died in, reclaim plus deterministic re-execution converge to
/// the bit-identical outcome. Exercises the real dispatcher code path the
/// CI smoke step uses.
#[test]
fn sigkilled_worker_process_recovers() {
    let mut spec = mini_spec("dispatch-kill9", 1234);
    spec.threads = Some(1);
    let reference = spec.run().unwrap();
    let out = temp_out("kill9");

    // Prepare the campaign root the way `dispatch` does.
    let normalized = spec.normalized();
    let root = campaign_root(&out, &normalized);
    let (queue, _) = prepare_root(&root, &normalized, 6, None).unwrap();

    // Three manual workers; the kill lands ~120 ms in, so the victim is
    // likely mid-shard — but the test is correct whatever it was doing.
    let spawn = |id: &str| {
        std::process::Command::new(campaign_exe())
            .args([
                "worker",
                root.to_str().unwrap(),
                "--worker-id",
                id,
                "--threads",
                "1",
                "--beat-ms",
                "40",
                "--poll-ms",
                "25",
            ])
            .stdout(std::process::Stdio::null())
            .spawn()
            .unwrap()
    };
    let mut victim = spawn("victim");
    let mut others = vec![spawn("w-a"), spawn("w-b")];
    std::thread::sleep(Duration::from_millis(120));
    victim.kill().unwrap();
    victim.wait().unwrap();

    // Play dispatcher: reclaim anything the victim still holds, then wait
    // for the survivors to drain the queue.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let files = queue.scan().unwrap();
        for (job, f) in &files {
            for w in &f.claims {
                if w.starts_with("victim") && !f.done {
                    queue.reclaim(*job, w).unwrap();
                }
            }
        }
        queue.sweep_conflicts().unwrap();
        if queue.status().unwrap().all_done() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "queue stuck: {}",
            queue.status().unwrap()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    for child in &mut others {
        let status = child.wait().unwrap();
        assert!(status.success(), "surviving workers exit cleanly");
    }

    let merged = merge_root(&root).unwrap().outcome;
    assert_outcomes_bit_identical(&merged, &reference);
    fs::remove_dir_all(&out).unwrap();
}

/// Workers reject queues whose spec does not match (hash check), and
/// pre-sharded specs are rejected by dispatch.
#[test]
fn queue_identity_is_enforced_end_to_end() {
    let spec = mini_spec("dispatch-id", 42);
    let out = temp_out("identity");
    let normalized = spec.normalized();
    let root = campaign_root(&out, &normalized);
    fs::create_dir_all(&root).unwrap();
    WorkQueue::init(&root, &normalized, 3).unwrap();
    let mut other = spec.clone();
    other.seed = 43;
    assert!(WorkQueue::attach(&root, &other).is_err());
    assert!(WorkQueue::attach(&root, &normalized).is_ok());
    fs::remove_dir_all(&out).unwrap();
}
