//! Results digests recorded for every input of a workload, and the
//! `digests` mode that recomputes them.
//!
//! `expected.json` holds, per workload, one digest per input: the paper
//! campaign's shard and the [`sweep::VARIANTS`](crate::sweep::VARIANTS) DAG
//! sets of the sweep. A run whose outputs move fails its checks; a change that is
//! meant to move outputs regenerates the file with `digests`.

use std::path::Path;

use rats_experiments::{read_shard_file, run_shard};
use rats_platform::{ClusterSpec, Platform};

use crate::common::Scale;
use crate::stats::digest as fnv;

const RECORDED: &str = include_str!("../expected.json");

/// The recorded digest of input `index` of `workload`.
pub fn digest(workload: &str, index: usize) -> Result<String, String> {
    let doc: serde::Value = serde_json::from_str(RECORDED).map_err(|e| e.to_string())?;
    let list: Vec<String> = doc
        .get(workload)
        .ok_or_else(|| format!("expected.json has no `{workload}` digests"))?
        .field("digests")
        .map_err(|e| e.to_string())?;
    list.get(index)
        .cloned()
        .ok_or_else(|| format!("expected.json has no `{workload}` digest #{index}"))
}

/// Recomputes every digest and returns the `expected.json` document.
pub fn recompute(out_root: &Path) -> Result<String, String> {
    let work = crate::common::WorkDir::new(out_root, "digests").map_err(|e| e.to_string())?;
    let spec = crate::paper::spec(Scale::Full);
    let run =
        run_shard(&spec, work.path(), Some(crate::paper::THREADS)).map_err(|e| e.to_string())?;
    let file = read_shard_file(&run.path).map_err(|e| e.to_string())?;
    let paper = vec![fnv(file.records.iter().flat_map(|r| [r.makespan, r.work]))];
    let platform = Platform::from_spec(&ClusterSpec::grillon());
    let strategies = rats_experiments::sweep_strategies();
    let sweep: Vec<String> = (0..crate::sweep::VARIANTS)
        .map(|v| {
            let dags = crate::sweep::dags(v, Scale::Full, None);
            fnv(crate::sweep::pass(&dags, &platform, &strategies, None, None).estimates)
        })
        .collect();
    let entry = |digests: Vec<String>| {
        let mut t = serde::Value::table();
        t.insert("digests", &digests);
        t
    };
    let mut doc = serde::Value::table();
    doc.insert("paper_campaign", &entry(paper))
        .insert("large_dag_sweep", &entry(sweep));
    serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())
}
