//! The paper's evaluation campaign (section IV), as a library.
//!
//! * [`campaign`] — the one job loop behind in-process, sharded and served
//!   runs: HCPA and both RATS variants over scenario suites on the three
//!   Grid'5000 clusters, with per-scenario allocation sharing (all mapping
//!   strategies consume the *same* HCPA step-one output, as in the paper)
//!   and simulated-makespan evaluation;
//! * [`artifacts`] — every table and figure of the paper as a pure
//!   renderer over a campaign outcome, each declaring the smallest
//!   campaign that covers it ([`artifacts::Artifact`]);
//! * [`stats`] — relative makespan/work series (Figures 2/3/6/7), pairwise
//!   better/equal/worse counts (Table V) and degradation-from-best
//!   (Table VI);
//! * [`tuning`] — the `mindelta × maxdelta` grid (Figure 4), the `minrho`
//!   curve (Figure 5) and the per-family/per-cluster tuning (Table IV),
//!   assembled from sweep results looked up by strategy value;
//! * [`figures`] — plain-text renderers that print each artifact in the
//!   paper's layout;
//! * [`runner`] — a deterministic scoped-thread parallel map;
//! * [`grid`] — every campaign as a flat, deterministic job-id space
//!   (`cluster × scenario × strategy`), the unit of sharding;
//! * [`record`] — the serialized per-job artifact ([`record::RunRecord`]);
//! * [`shard`] — the durable executor: run one shard to an append-only
//!   JSONL file (crash-resume included) and merge shard files back into
//!   the bit-identical in-process outcome.
//!
//! The `campaign` binary (in `rats-server`) prints the artifacts with
//! `campaign paper [--quick] [--threads N] <artifact>`: `table2`,
//! `table3`, `fig2_3`, `fig4`, `fig5`, `table4`, `fig6_7`, `table5`,
//! `table6`, `table5_6`, `all`, plus the beyond-paper quality
//! [`ablation`]s. `--quick` runs on the mini suite (for smoke tests); full
//! runs reproduce the paper's 557-configuration campaign. The same binary
//! runs spec files — in-process, sharded, dispatched or served.

pub mod ablation;
pub mod artifacts;
pub mod campaign;
pub mod figures;
pub mod grid;
pub mod record;
pub mod runner;
pub mod shard;
pub mod spec;
pub mod stats;
pub mod telemetry;
pub mod tuning;

pub use campaign::{AlgoResults, PreparedScenario, RunResult, BASE_SEED};
pub use grid::{JobCoords, JobGrid, JobId, ShardSpec};
pub use record::RunRecord;
pub use runner::{parallel_map, parallel_map_pooled, ParallelExec};
pub use shard::{
    collect_shard_files, merge_shards, read_shard_file, run_shard, run_shard_hooked,
    shard_file_name, AllocSource, MergeError, ShardError, ShardHooks, ShardManifest, ShardRun,
};
pub use spec::{ExperimentSpec, SpecError, SpecOutcome, StrategySpec, SuiteSpec, SUITE_NAMES};
pub use stats::{degradation_from_best, pairwise, summarize, Degradation, PairwiseCount};
pub use tuning::{
    paper_tuned, sweep_specs, sweep_strategies, sweep_tables, SweepTables, TunedParams,
};
