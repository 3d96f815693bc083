//! End-to-end and per-layer benchmark of the rats job pipeline.
//!
//! Three workloads exercise different layers of the pipeline (population
//! generation → step-one allocation → step-two mapping → simulation →
//! record commit → merge and serve):
//!
//! * [`paper`] — `paper_campaign`, where simulation is ~99% of the work;
//! * [`sweep`] — `large_dag_sweep`, allocation and mapping only;
//! * [`serve`] — `serve_mixed`, the server, queue, journal, warm caches
//!   and record encoding and decoding.
//!
//! An untraced run reports the end-to-end metrics; a traced run records
//! spans at the benchmark's calls into each layer ([`trace`]) and reports
//! the per-layer metrics. See `README.md` beside this crate.

pub mod common;
pub mod compare;
pub mod expected;
pub mod paper;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod trace;

pub use common::{Options, Outcome, Scale, END_TO_END, PER_LAYER};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["paper_campaign", "large_dag_sweep", "serve_mixed"];

/// Runs one workload and assembles its result line.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (layers, (checks, mut values)) = match opts.workload.as_str() {
        "paper_campaign" => (paper::LAYERS, paper::run(opts)?),
        "large_dag_sweep" => (sweep::LAYERS, sweep::run(opts)?),
        "serve_mixed" => (serve::LAYERS, serve::run(opts)?),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    if !opts.trace {
        values.insert("peak_rss_mb", common::peak_rss_mb()?);
    }
    Outcome::new(&checks, &values, opts.trace, layers)
}

/// Writes a traced run's spans to `<out_root>/spans-<workload>-<seed>.json`.
pub fn write_spans(opts: &Options, rec: &trace::Recorder) -> Result<(), String> {
    let path = opts
        .out_root
        .join(format!("spans-{}-{}.json", opts.workload, opts.seed));
    std::fs::write(&path, rec.to_json()).map_err(|e| format!("{path:?}: {e}"))
}
