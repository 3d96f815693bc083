//! Population-cache corruption must never poison workers: a
//! digest-mismatched, truncated or cyclic `scenarios.cache` makes every worker
//! silently fall back to regeneration, and the campaign outcome stays
//! bit-identical to the in-process run.

mod common;

use std::fs;
use std::path::{Path, PathBuf};

use common::{assert_outcomes_bit_identical, temp_dir};
use rats_dispatch::cache::{ensure_cache, load_cache, CACHE_FILE};
use rats_dispatch::dispatcher::collect_shard_files_recursive;
use rats_dispatch::worker::{run_worker, WorkerConfig, SHARDS_DIR, SPEC_FILE};
use rats_dispatch::WorkQueue;
use rats_experiments::shard::merge_shards;
use rats_experiments::spec::{ExperimentSpec, SpecOutcome};

fn temp_root(tag: &str) -> PathBuf {
    temp_dir(&format!("poison-{tag}"))
}

/// A small custom-workload campaign, so the corruption paths are exercised
/// on a synthesized population (generated star cluster included).
fn custom_spec(seed: u64) -> ExperimentSpec {
    let toml = format!(
        "name = \"poison\"\n\
         seed = {seed}\n\
         suite = \"custom\"\n\
         threads = 2\n\
         clusters = [\"edge\"]\n\
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
         stages = 2\n\
         branches = 3\n\
         \n\
         [[families]]\n\
         kind = \"chain\"\n\
         count = 2\n\
         n = [4, 7]\n\
         \n\
         [[topologies]]\n\
         name = \"edge\"\n\
         kind = \"star\"\n\
         procs = 6\n"
    );
    ExperimentSpec::from_toml(&toml).unwrap()
}

/// Prepares a campaign root the way `campaign dispatch` would, runs one
/// in-process worker to completion, and returns its merged outcome plus
/// whether the worker loaded the cache.
fn run_one_worker(root: &Path, spec: &ExperimentSpec, worker_id: &str) -> (SpecOutcome, bool) {
    let normalized = spec.normalized();
    fs::write(root.join(SPEC_FILE), format!("{}\n", normalized.to_json())).unwrap();
    WorkQueue::init(root, &normalized, 2).unwrap();
    let mut cfg = WorkerConfig::new(root.to_path_buf(), worker_id);
    cfg.threads = 2;
    cfg.beat_ms = 25;
    cfg.poll_ms = 10;
    cfg.idle_timeout_ms = 60_000;
    let report = run_worker(&cfg).unwrap();
    let files = collect_shard_files_recursive(&root.join(SHARDS_DIR)).unwrap();
    (merge_shards(&files).unwrap(), report.used_cache)
}

#[test]
fn valid_cache_is_used_and_round_trips_custom_populations() {
    let root = temp_root("valid");
    let spec = custom_spec(41);
    let reference = spec.run().unwrap();
    let normalized = spec.normalized();
    assert!(ensure_cache(&root, &normalized, None).unwrap());
    // The cached custom population is bit-exactly what the spec generates.
    let cached = load_cache(&root, &normalized).expect("fresh cache must load");
    let generated = normalized.scenarios();
    assert_eq!(cached.len(), generated.len());
    for (a, b) in cached.iter().zip(&generated) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.family, b.family);
        for (x, y) in a.dag.edge_ids().zip(b.dag.edge_ids()) {
            assert_eq!(a.dag.edge(x).bytes.to_bits(), b.dag.edge(y).bytes.to_bits());
        }
    }
    let (outcome, used_cache) = run_one_worker(&root, &spec, "w-valid");
    assert!(used_cache, "an intact cache must be loaded");
    assert_outcomes_bit_identical(&outcome, &reference);
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn digest_mismatched_cache_falls_back_to_regeneration() {
    let root = temp_root("digest");
    let spec = custom_spec(42);
    let reference = spec.run().unwrap();
    let normalized = spec.normalized();
    ensure_cache(&root, &normalized, None).unwrap();
    // Flip content without touching the digest trailer.
    let path = root.join(CACHE_FILE);
    let text = fs::read_to_string(&path).unwrap();
    fs::write(&path, text.replacen("task", "tusk", 1)).unwrap();
    assert!(load_cache(&root, &normalized).is_none(), "digest must fail");

    let (outcome, used_cache) = run_one_worker(&root, &spec, "w-digest");
    assert!(!used_cache, "corrupt cache must be bypassed, not trusted");
    assert_outcomes_bit_identical(&outcome, &reference);
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn cyclic_cache_with_a_valid_digest_falls_back_to_regeneration() {
    let root = temp_root("cycle");
    let spec = custom_spec(45);
    let reference = spec.run().unwrap();
    let normalized = spec.normalized();
    ensure_cache(&root, &normalized, None).unwrap();
    // Close a cycle by adding the reverse of the first edge right after it,
    // then re-sign the file so it passes the digest check.
    let path = root.join(CACHE_FILE);
    let text = fs::read_to_string(&path).unwrap();
    let start = text.find("\nedge ").unwrap() + 1;
    let end = start + text[start..].find('\n').unwrap() + 1;
    let fields: Vec<&str> = text[start..end].split_whitespace().collect();
    let back_edge = format!("edge {} {} {}\n", fields[2], fields[1], fields[3]);
    let body_end = text.rfind("digest ").unwrap();
    let body = format!("{}{back_edge}{}", &text[..end], &text[end..body_end]);
    let digest = rats_daggen::fnv1a(body.as_bytes());
    fs::write(&path, format!("{body}digest {digest:016x}\n")).unwrap();
    assert!(
        load_cache(&root, &normalized).is_none(),
        "a cycle must fail"
    );

    let (outcome, used_cache) = run_one_worker(&root, &spec, "w-cycle");
    assert!(!used_cache, "a cyclic cache must be bypassed, not trusted");
    assert_outcomes_bit_identical(&outcome, &reference);
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn truncated_cache_falls_back_to_regeneration() {
    let root = temp_root("torn");
    let spec = custom_spec(43);
    let reference = spec.run().unwrap();
    let normalized = spec.normalized();
    ensure_cache(&root, &normalized, None).unwrap();
    // A torn write: half the file, no digest trailer.
    let path = root.join(CACHE_FILE);
    let text = fs::read_to_string(&path).unwrap();
    fs::write(&path, &text[..text.len() / 2]).unwrap();
    assert!(load_cache(&root, &normalized).is_none());

    let (outcome, used_cache) = run_one_worker(&root, &spec, "w-torn");
    assert!(!used_cache);
    assert_outcomes_bit_identical(&outcome, &reference);
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn sibling_campaigns_cache_is_rejected_by_identity() {
    // A cache from a *different* custom workload (same seed, same scenario
    // count) must be rejected by its suite tag, not silently served.
    let root = temp_root("sibling");
    let spec = custom_spec(44);
    let mut other = custom_spec(44);
    if let rats_experiments::spec::SuiteSpec::Custom(w) = &mut other.suite {
        w.families[0].branches = rats_workloads::IntDist::Fixed(4);
    }
    assert_eq!(spec.suite.len(), other.suite.len());
    ensure_cache(&root, &other.normalized(), None).unwrap();
    assert!(
        load_cache(&root, &spec.normalized()).is_none(),
        "a sibling workload's population must not be served"
    );
    let (outcome, used_cache) = run_one_worker(&root, &spec, "w-sibling");
    assert!(!used_cache);
    assert_outcomes_bit_identical(&outcome, &spec.run().unwrap());
    fs::remove_dir_all(&root).unwrap();
}
