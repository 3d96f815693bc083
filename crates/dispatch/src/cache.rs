//! The shared scenario cache: generate the population once, serve every
//! worker from disk.
//!
//! Each worker process used to regenerate the campaign's entire scenario
//! population (557 DAGs for the paper suite) before touching its first
//! shard. Under dispatch, the dispatcher serializes the population once to
//! `<root>/scenarios.cache` (the [`rats_daggen::population`] text format,
//! digest-protected), and workers read it back — one generation per
//! campaign instead of one per process, and the read path is plain
//! sequential file I/O the OS page cache shares between all workers on a
//! host.
//!
//! The cache is an optimization, never a correctness dependency: a missing,
//! torn or mismatched cache file makes a worker silently fall back to
//! regeneration, and the round trip is bit-exact, so results are identical
//! either way (pinned by tests here and by the dispatch equivalence tests).

use std::borrow::Cow;
use std::fs;
use std::path::Path;

use rats_daggen::population::{read_population, write_population};
use rats_daggen::suite::Scenario;
use rats_experiments::spec::ExperimentSpec;

use crate::DispatchError;

/// Cache file name under the campaign root.
pub const CACHE_FILE: &str = "scenarios.cache";

/// Writes the spec's scenario population cache under `root` if no valid
/// cache is present, from `population` when the caller already holds it
/// (a server's resident copy) and by generating it otherwise. Returns
/// whether it wrote the file (`false`: a valid cache already existed).
pub fn ensure_cache(
    root: &Path,
    spec: &ExperimentSpec,
    population: Option<&[Scenario]>,
) -> Result<bool, DispatchError> {
    if load_cache(root, spec).is_some() {
        return Ok(false);
    }
    let scenarios = population.map_or_else(|| Cow::Owned(spec.scenarios()), Cow::Borrowed);
    let text = write_population(&scenarios, spec.seed, &spec.suite.name());
    rats_journal::log::write_atomic(&root.join(CACHE_FILE), text.as_bytes())?;
    Ok(true)
}

/// Loads the population cache for `spec` from `root`, or `None` when the
/// file is absent, unreadable, fails its digest, or belongs to a different
/// `(suite, seed, size)` — any of which means the caller should fall back
/// to [`ExperimentSpec::scenarios`].
pub fn load_cache(root: &Path, spec: &ExperimentSpec) -> Option<Vec<Scenario>> {
    let text = fs::read_to_string(root.join(CACHE_FILE)).ok()?;
    let pop = read_population(&text).ok()?;
    if pop.seed != spec.seed
        || pop.suite != spec.suite.name()
        || pop.scenarios.len() != spec.suite.len()
    {
        return None;
    }
    Some(pop.scenarios)
}

/// Loads the cache or regenerates; `true` in the second slot means the
/// population came from the cache.
pub fn load_or_generate(root: &Path, spec: &ExperimentSpec) -> (Vec<Scenario>, bool) {
    match load_cache(root, spec) {
        Some(scenarios) => (scenarios, true),
        None => (spec.scenarios(), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rats_experiments::spec::SuiteSpec;
    use std::path::PathBuf;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rats-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn cache_round_trips_and_is_idempotent() {
        let root = temp_root("roundtrip");
        let spec = ExperimentSpec::naive("c", "chti", SuiteSpec::Mini, 9);
        assert!(ensure_cache(&root, &spec, None).unwrap());
        let written_again = ensure_cache(&root, &spec, None).unwrap();
        assert!(!written_again, "valid cache is reused");
        let (cached, from_cache) = load_or_generate(&root, &spec);
        assert!(from_cache);
        let generated = spec.scenarios();
        assert_eq!(cached.len(), generated.len());
        for (a, b) in cached.iter().zip(&generated) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.family, b.family);
            assert_eq!(a.dag.num_tasks(), b.dag.num_tasks());
        }
        // A cache written from a held population has the generated bytes.
        let held = temp_root("roundtrip-held");
        assert!(ensure_cache(&held, &spec, Some(&generated)).unwrap());
        let bytes = |dir: &Path| fs::read(dir.join(CACHE_FILE)).unwrap();
        assert_eq!(bytes(&held), bytes(&root));
        fs::remove_dir_all(&held).unwrap();
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn mismatched_or_corrupt_cache_falls_back() {
        let root = temp_root("fallback");
        let spec = ExperimentSpec::naive("c", "chti", SuiteSpec::Mini, 9);
        ensure_cache(&root, &spec, None).unwrap();
        // A different seed must not accept this cache.
        let reseeded = ExperimentSpec::naive("c", "chti", SuiteSpec::Mini, 10);
        assert!(load_cache(&root, &reseeded).is_none());
        let (_, from_cache) = load_or_generate(&root, &reseeded);
        assert!(!from_cache);
        // Corruption is detected by the digest and falls back too.
        let path = root.join(CACHE_FILE);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replacen("task", "tusk", 1)).unwrap();
        assert!(load_cache(&root, &spec).is_none());
        fs::remove_dir_all(&root).unwrap();
    }
}
