//! Runs declarative campaigns from TOML or JSON spec files — in one
//! process, sharded by hand, or dispatched across a fault-tolerant
//! multi-worker pool.
//!
//! ```text
//! campaign <spec.toml|spec.json> [--threads N]
//!     run the whole campaign in-process and print the report
//!
//! campaign run <spec> [--shard I/N] [--out DIR] [--threads N]
//!         [--metrics-out FILE]
//!     execute one shard of the campaign's job grid, appending JSONL
//!     records to DIR (default ./shards). Re-running resumes: jobs already
//!     on disk are skipped. --metrics-out additionally enables phase
//!     timing and writes the full metrics registry as JSON on completion.
//!
//! campaign merge <DIR|file.jsonl ...> [--figures]
//!     validate shard files (coverage, seed, spec hash) and print the
//!     report reassembled from them — bit-identical to the in-process run.
//!     Directories are searched recursively one level (the dispatch
//!     layout). --figures additionally renders the relative series.
//!
//! campaign dispatch <spec> [--inventory hosts.toml] [--workers N]
//!         [--out DIR] [--oversub K] [--threads N] [--beat-ms MS]
//!         [--stale-ms MS] [--poll-ms MS] [--timeout-ms MS]
//!         [--chaos claim|manifest|partial] [--metrics-out FILE]
//!     plan shard counts and thread budgets from the host inventory, spawn
//!     local `campaign worker` processes, watch their lease heartbeats,
//!     reclaim and re-dispatch shards from dead workers, then merge and
//!     print the report — bit-identical to the in-process run.
//!
//! campaign worker <ROOT> [--worker-id W] [--threads N] [--beat-ms MS]
//!         [--poll-ms MS] [--idle-timeout-ms MS] [--parent-pid PID]
//!     join the campaign rooted at ROOT (created by `campaign dispatch`);
//!     run on any host that shares the directory. --parent-pid makes the
//!     worker exit if that process dies (the dispatcher passes its own
//!     pid so killed dispatches do not leave orphan pollers).
//!
//! campaign paper [--quick] [--threads N] <artifact>
//!     print one of the paper's artifacts — table2, table3, fig2_3, fig4,
//!     fig5, table4, fig6_7, table5, table6, table5_6, all (every table
//!     and figure in paper order) or ablation — by running the smallest
//!     campaign that covers it in-process. --quick runs on the mini suite
//!     instead of the 557-configuration paper suite.
//!
//! campaign describe <spec>
//!     validate the spec and print its identity (suite tag, spec hash),
//!     job-grid shape and population census — per-family scenario counts
//!     and generated cluster inventory — without generating a single DAG.
//!
//! campaign profile <spec> [--threads N]
//!     run the campaign in-process with phase timing enabled and print,
//!     after the report, a per-phase profile: scheduling/shard histograms
//!     (count, total, mean, occupied buckets) and every engine counter
//!     (estimator calls and prunes, the redistribution cache hit rate
//!     over its memo lookups — one-to-one arrivals skip the memo —,
//!     the share of max-min rounds resumed, the share of jobs that took
//!     an identical schedule's simulation, the network's flows per event,
//!     argmin-tree updates).
//!
//! campaign status <ROOT> [--stale-ms MS] [--json]
//!     read-only scan of a dispatched campaign's queue directory: per-job
//!     state (todo/claimed/done), stale-lease hints (journal-based when
//!     the campaign has an event journal, mtime-based otherwise; default
//!     threshold 30000 ms) and a completed/total progress line with ETA
//!     and throughput derived from journal timing events. Safe to run
//!     while the dispatcher and workers are live. --json emits the same
//!     scan as one machine-readable JSON document.
//!
//! campaign serve [--addr HOST:PORT] [--out DIR] [--fleet N]
//!         [--warm-populations N] [--warm-allocs N]
//!         [--metrics-addr HOST:PORT]
//!     run the long-lived scheduling service: accept campaign submissions
//!     over a line-delimited JSON TCP protocol, execute them on a resident
//!     worker fleet with warm (content-keyed, LRU-bounded) scenario
//!     populations and step-one allocations, and stream records back to
//!     each submitting client as they land. Every submission materializes
//!     a normal campaign root under DIR — resumable, journaled, and
//!     bit-identical to the batch run. Port 0 picks a free port; the
//!     bound address is printed on stdout when ready. --metrics-addr
//!     additionally serves Prometheus text exposition on
//!     `GET /metrics` (phase histograms, cache hit rates, warm-state
//!     residency gauges).
//!
//! campaign client submit <spec> [--addr A] [--name N] [--records FILE]
//! campaign client status [CAMPAIGN] [--addr A] [--stale-ms MS]
//! campaign client results <CAMPAIGN> [--addr A] [--records FILE]
//! campaign client cancel <CAMPAIGN> [--addr A]
//! campaign client metrics [--addr A]
//! campaign client shutdown [--addr A]
//!     talk to a running `campaign serve`. `submit` streams record lines
//!     (stdout, or FILE with --records) and then prints the merged report
//!     on stdout — byte-identical to running the spec in-process. CAMPAIGN
//!     is the spec hash `submit`/`describe` print. `metrics` prints the
//!     server's Prometheus document over the protocol (no HTTP listener
//!     required).
//!
//! campaign replay <ROOT> [--check] [--events]
//!     verify and replay the campaign's hash-chained event journal
//!     (`<ROOT>/journal/`): summarize what happened, or with --events
//!     print the stitched timeline. --check additionally compares the
//!     replayed per-job state against the live queue directory and exits
//!     non-zero on any mismatch (or on a tampered chain, reporting the
//!     first broken sequence number).
//!
//! campaign diff <ROOT-A> <ROOT-B>
//!     compare two campaigns' journals after normalization (timing
//!     stripped): identically-seeded runs diff empty; otherwise the first
//!     divergent event and per-job claim/reclaim deltas are printed and
//!     the exit code is non-zero.
//!
//! campaign --print-template
//! ```
//!
//! Unknown subcommands, flags and stray arguments all exit 2 with the
//! usage text; operational failures exit 1.

use std::path::PathBuf;

use rats_dispatch::worker::{run_worker, ChaosPhase, WorkerConfig};
use rats_dispatch::{dispatch, replay_check, DispatchConfig, HostInventory};
use rats_experiments::artifacts::{self, Artifact};
use rats_experiments::grid::ShardSpec;
use rats_experiments::shard::{merge_shards, run_shard};
use rats_experiments::spec::{ExperimentSpec, SuiteSpec};
use rats_journal::{diff as journal_diff, read_journal, JobView as JournalJobView, Replay};
use rats_server::{Client, Server, ServerConfig, SpecFormat, SubmitEnd};

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("campaign: {message}");
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!(
        "usage: campaign <spec.toml|spec.json> [--threads N]\n\
         \x20      campaign run <spec> [--shard I/N] [--out DIR] [--threads N]\n\
         \x20                        [--metrics-out FILE]\n\
         \x20      campaign merge <DIR|file.jsonl ...> [--figures]\n\
         \x20      campaign dispatch <spec> [--inventory hosts.toml] [--workers N]\n\
         \x20                        [--out DIR] [--oversub K] [--threads N]\n\
         \x20                        [--beat-ms MS] [--stale-ms MS] [--poll-ms MS]\n\
         \x20                        [--timeout-ms MS] [--chaos PHASE]\n\
         \x20                        [--metrics-out FILE]\n\
         \x20      campaign worker <ROOT> [--worker-id W] [--threads N]\n\
         \x20                        [--beat-ms MS] [--poll-ms MS] [--idle-timeout-ms MS]\n\
         \x20      campaign paper [--quick] [--threads N] <artifact>\n\
         \x20                        (table2 table3 fig2_3 fig4 fig5 table4 fig6_7\n\
         \x20                         table5 table6 table5_6 all ablation)\n\
         \x20      campaign describe <spec>\n\
         \x20      campaign profile <spec> [--threads N]\n\
         \x20      campaign status <ROOT> [--stale-ms MS] [--json]\n\
         \x20      campaign replay <ROOT> [--check] [--events]\n\
         \x20      campaign diff <ROOT-A> <ROOT-B>\n\
         \x20      campaign serve [--addr HOST:PORT] [--out DIR] [--fleet N]\n\
         \x20                        [--warm-populations N] [--warm-allocs N]\n\
         \x20                        [--metrics-addr HOST:PORT]\n\
         \x20      campaign client submit <spec> [--addr A] [--name N] [--records FILE]\n\
         \x20      campaign client status [CAMPAIGN] [--addr A] [--stale-ms MS]\n\
         \x20      campaign client results <CAMPAIGN> [--addr A] [--records FILE]\n\
         \x20      campaign client cancel <CAMPAIGN> [--addr A]\n\
         \x20      campaign client metrics [--addr A]\n\
         \x20      campaign client shutdown [--addr A]\n\
         \x20      campaign --print-template"
    );
    std::process::exit(2);
}

fn unknown(what: &str, value: &str) -> ! {
    eprintln!("campaign: unknown {what} `{value}`\n");
    usage();
}

fn load_spec(path: &str) -> ExperimentSpec {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format_args!("cannot read spec {path:?}: {e}")));
    if path.ends_with(".json") {
        ExperimentSpec::from_json(&text)
    } else {
        ExperimentSpec::from_toml(&text)
    }
    .unwrap_or_else(|e| fail(e))
}

fn parse_shard(text: &str) -> ShardSpec {
    let parsed = text.split_once('/').and_then(|(i, n)| {
        Some(ShardSpec::new(
            i.trim().parse().ok()?,
            n.trim().parse().ok()?,
        ))
    });
    let shard = parsed
        .unwrap_or_else(|| fail(format_args!("--shard expects I/N (e.g. 0/4), got {text:?}")));
    shard
        .validate()
        .unwrap_or_else(|e| fail(format_args!("--shard {text}: {e}")));
    shard
}

fn parse_threads(value: Option<String>) -> usize {
    value
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| fail("--threads needs a positive number"))
}

fn parse_ms(flag: &str, value: Option<String>) -> u64 {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| fail(format_args!("{flag} needs a millisecond count")))
}

/// Whether a first argument plausibly names a spec file (as opposed to a
/// mistyped subcommand): it parses as a path that exists, or carries a
/// spec extension.
fn looks_like_spec(arg: &str) -> bool {
    arg.ends_with(".toml") || arg.ends_with(".json") || std::path::Path::new(arg).is_file()
}

/// Registers every layer's metrics and turns phase timing on — the front
/// half of `--metrics-out` and `profile`.
fn metrics_begin() {
    rats_server::telemetry::register_all();
    rats_telemetry::set_enabled(true);
}

/// Dumps the metrics registry as one JSON document — the back half of
/// `--metrics-out`.
fn metrics_dump(path: &str) {
    std::fs::write(path, rats_telemetry::global().render_json())
        .unwrap_or_else(|e| fail(format_args!("cannot write metrics to {path:?}: {e}")));
    eprintln!("campaign: metrics written to {path:?}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => usage(),
        Some("--help" | "-h") => usage(),
        Some("--print-template") => {
            let template = ExperimentSpec::naive(
                "naive-grillon",
                "grillon",
                SuiteSpec::Mini,
                rats_experiments::campaign::BASE_SEED,
            );
            print!("{}", template.to_toml());
        }
        Some("run") => cmd_run(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("dispatch") => cmd_dispatch(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        Some("paper") => cmd_paper(&args[1..]),
        Some("describe") => cmd_describe(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some(flag) if flag.starts_with('-') => unknown("flag", flag),
        Some(spec_path) if looks_like_spec(spec_path) => cmd_in_process(spec_path, &args[1..]),
        Some(other) => unknown("subcommand", other),
    }
}

fn cmd_in_process(spec_path: &str, rest: &[String]) {
    let mut threads = None;
    let mut rest = rest.iter().cloned();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--threads" => threads = Some(parse_threads(rest.next())),
            other => unknown("flag", other),
        }
    }
    let mut spec = load_spec(spec_path);
    if threads.is_some() {
        spec.threads = threads;
    }
    let outcome = spec.run().unwrap_or_else(|e| fail(e));
    print!("{}", outcome.render());
}

fn cmd_run(args: &[String]) {
    let mut spec_path = None;
    let mut out = PathBuf::from("shards");
    let mut shard = None;
    let mut threads = None;
    let mut metrics_out: Option<String> = None;
    let mut rest = args.iter().cloned();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--shard" => {
                shard = Some(parse_shard(
                    &rest.next().unwrap_or_else(|| fail("--shard needs I/N")),
                ))
            }
            "--out" => {
                out = PathBuf::from(
                    rest.next()
                        .unwrap_or_else(|| fail("--out needs a directory")),
                )
            }
            "--threads" => threads = Some(parse_threads(rest.next())),
            "--metrics-out" => {
                metrics_out = Some(
                    rest.next()
                        .unwrap_or_else(|| fail("--metrics-out needs a file")),
                )
            }
            other if spec_path.is_none() && !other.starts_with('-') => {
                spec_path = Some(other.to_string())
            }
            other => unknown("flag", other),
        }
    }
    let mut spec = load_spec(&spec_path.unwrap_or_else(|| usage()));
    if let Some(shard) = shard {
        spec.shard = Some(shard);
    }
    if metrics_out.is_some() {
        metrics_begin();
    }
    let run = run_shard(&spec, &out, threads).unwrap_or_else(|e| fail(e));
    eprintln!(
        "campaign: shard {} — {} jobs executed, {} resumed from disk, {} total → {:?}",
        spec.shard.unwrap_or_default(),
        run.executed,
        run.skipped,
        run.total,
        run.path
    );
    if let Some(path) = metrics_out {
        metrics_dump(&path);
    }
}

fn cmd_merge(args: &[String]) {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut figures = false;
    for a in args {
        match a.as_str() {
            "--figures" => figures = true,
            other if other.starts_with('-') => unknown("flag", other),
            other => {
                let p = PathBuf::from(other);
                if p.is_dir() {
                    // Collects flat shard directories and the dispatch
                    // layout alike (per-worker directories one level deep).
                    paths.extend(
                        rats_dispatch::dispatcher::collect_shard_files_recursive(&p)
                            .unwrap_or_else(|e| fail(e)),
                    );
                } else {
                    paths.push(p);
                }
            }
        }
    }
    if paths.is_empty() {
        usage();
    }
    let outcome = merge_shards(&paths).unwrap_or_else(|e| fail(e));
    print!("{}", outcome.render());
    if figures {
        // A tuning sweep is recognized by its exact strategy list, not by
        // a length coincidence.
        let is_sweep = outcome.spec.strategies == rats_experiments::tuning::sweep_specs();
        for cluster in &outcome.clusters {
            if is_sweep {
                print!(
                    "\n{}",
                    artifacts::render_sweep(&cluster.cluster, &cluster.results)
                );
            } else if cluster.results.len() >= 2 {
                print!(
                    "\n{}",
                    artifacts::render_relative_pair(
                        &format!("relative makespan ({})", cluster.cluster),
                        &format!("relative work ({})", cluster.cluster),
                        &cluster.results,
                    )
                );
            }
        }
    }
}

fn cmd_dispatch(args: &[String]) {
    let mut spec_path = None;
    let mut inventory_path: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut cfg = DispatchConfig::new(PathBuf::from("dispatch"), HostInventory::localhost(1, 1));
    let mut metrics_out: Option<String> = None;
    let mut rest = args.iter().cloned();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--inventory" => {
                inventory_path = Some(
                    rest.next()
                        .unwrap_or_else(|| fail("--inventory needs a file")),
                )
            }
            "--workers" => {
                workers = Some(
                    rest.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| fail("--workers needs a positive number")),
                )
            }
            "--out" => {
                cfg.out = PathBuf::from(
                    rest.next()
                        .unwrap_or_else(|| fail("--out needs a directory")),
                )
            }
            "--oversub" => {
                cfg.oversub = rest
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail("--oversub needs a positive number"))
            }
            "--threads" => cfg.threads_override = Some(parse_threads(rest.next())),
            "--beat-ms" => cfg.beat_ms = parse_ms("--beat-ms", rest.next()),
            "--stale-ms" => cfg.stale_ms = parse_ms("--stale-ms", rest.next()),
            "--poll-ms" => cfg.poll_ms = parse_ms("--poll-ms", rest.next()),
            "--timeout-ms" => cfg.timeout_ms = parse_ms("--timeout-ms", rest.next()),
            "--metrics-out" => {
                metrics_out = Some(
                    rest.next()
                        .unwrap_or_else(|| fail("--metrics-out needs a file")),
                )
            }
            "--chaos" => {
                let phase = rest.next().unwrap_or_else(|| fail("--chaos needs a phase"));
                cfg.chaos = Some(ChaosPhase::parse(&phase).unwrap_or_else(|| {
                    fail(format_args!(
                        "--chaos expects claim, manifest or partial, got `{phase}`"
                    ))
                }));
            }
            other if spec_path.is_none() && !other.starts_with('-') => {
                spec_path = Some(other.to_string())
            }
            other => unknown("flag", other),
        }
    }
    let spec = load_spec(&spec_path.unwrap_or_else(|| usage()));
    cfg.inventory = match (&inventory_path, workers) {
        (Some(path), _) => {
            if workers.is_some() {
                fail("--workers and --inventory are mutually exclusive");
            }
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format_args!("cannot read inventory {path:?}: {e}")));
            HostInventory::from_toml(&text).unwrap_or_else(|e| fail(e))
        }
        (None, n) => {
            let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
            HostInventory::localhost(cores, n.unwrap_or_else(|| cores.clamp(1, 4)))
        }
    };
    if metrics_out.is_some() {
        metrics_begin();
    }
    let report = dispatch(&spec, &cfg).unwrap_or_else(|e| fail(e));
    eprintln!(
        "campaign: dispatched {} jobs as {} shards over {} workers \
         ({} spawned, {} respawned, {} leases reclaimed, cache {}) → {:?}",
        report.plan.jobs,
        report.plan.shard_count,
        report.plan.workers.len(),
        report.spawned,
        report.respawned,
        report.reclaimed,
        if report.cache_written {
            "written"
        } else {
            "reused"
        },
        report.root
    );
    print!("{}", report.outcome.render());
    if let Some(path) = metrics_out {
        metrics_dump(&path);
    }
}

fn cmd_paper(args: &[String]) {
    let mut artifact = None;
    let mut quick = false;
    let mut threads = None;
    let mut rest = args.iter().cloned();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--threads" => threads = Some(parse_threads(rest.next())),
            other if artifact.is_none() && !other.starts_with('-') => {
                artifact =
                    Some(Artifact::from_name(other).unwrap_or_else(|| unknown("artifact", other)))
            }
            other => unknown("flag", other),
        }
    }
    let artifact = artifact.unwrap_or_else(|| usage());
    let threads = threads.unwrap_or_else(rats_experiments::runner::default_threads);
    print!("{}", artifacts::paper(artifact, quick, threads));
}

fn cmd_describe(args: &[String]) {
    let mut spec_path = None;
    for a in args {
        match a.as_str() {
            other if other.starts_with('-') => unknown("flag", other),
            other if spec_path.is_none() => spec_path = Some(other.to_string()),
            other => unknown("argument", other),
        }
    }
    let spec = load_spec(&spec_path.unwrap_or_else(|| usage()));
    spec.validate().unwrap_or_else(|e| fail(e));
    let grid = spec.grid();
    println!(
        "campaign `{}` — suite {}, seed {}, spec hash {}",
        spec.name,
        spec.suite.name(),
        spec.seed,
        spec.spec_hash()
    );
    println!(
        "grid: {} clusters x {} scenarios x {} strategies = {} jobs",
        grid.clusters(),
        grid.scenarios(),
        grid.strategies(),
        grid.len()
    );
    let strategies: Vec<&str> = spec
        .strategies
        .iter()
        .map(|s| s.to_strategy().expect("spec validated").name())
        .collect();
    println!("strategies: {}", strategies.join(", "));
    println!("clusters: {}", spec.clusters.join(", "));
    print!("{}", spec.suite.census());
}

fn cmd_profile(args: &[String]) {
    let mut spec_path = None;
    let mut threads = None;
    let mut rest = args.iter().cloned();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--threads" => threads = Some(parse_threads(rest.next())),
            other if spec_path.is_none() && !other.starts_with('-') => {
                spec_path = Some(other.to_string())
            }
            other => unknown("flag", other),
        }
    }
    let mut spec = load_spec(&spec_path.unwrap_or_else(|| usage()));
    if threads.is_some() {
        spec.threads = threads;
    }
    metrics_begin();
    let started = std::time::Instant::now();
    let outcome = spec.run().unwrap_or_else(|e| fail(e));
    let wall = started.elapsed().as_secs_f64();
    rats_telemetry::set_enabled(false);
    print!("{}", outcome.render());
    print!("\n{}", render_profile(wall));
}

/// Renders the per-phase profile from the process-global registry: every
/// histogram that saw an observation (count, total, mean, occupied
/// buckets), then every non-zero counter and family cell. Ratios a reader
/// would otherwise compute by hand — estimator prune rate, cache hit
/// rates — ride along on the counter lines.
fn render_profile(wall_seconds: f64) -> String {
    use std::fmt::Write as _;
    let metrics = rats_telemetry::global().metrics();
    let mut out = format!("profile: wall {wall_seconds:.3}s\n\n");
    writeln!(
        out,
        "{:<40} {:>9} {:>12} {:>12}",
        "phase", "count", "total s", "mean µs"
    )
    .unwrap();
    for m in &metrics {
        let rats_telemetry::Metric::Histogram(h) = m else {
            continue;
        };
        let count = h.count();
        if count == 0 {
            continue;
        }
        let sum = h.sum();
        writeln!(
            out,
            "{:<40} {:>9} {:>12.4} {:>12.2}",
            h.name(),
            count,
            sum,
            sum / count as f64 * 1e6
        )
        .unwrap();
        let mut spread = String::new();
        for (i, &c) in h.bucket_counts().iter().enumerate() {
            if c == 0 {
                continue;
            }
            match h.bounds().get(i) {
                Some(b) => write!(spread, "  ≤{b}s: {c}").unwrap(),
                None => write!(spread, "  >{}s: {c}", h.bounds().last().unwrap()).unwrap(),
            }
        }
        if !spread.is_empty() {
            writeln!(out, "  buckets{spread}").unwrap();
        }
    }
    writeln!(out, "\n{:<52} {:>10}", "counter", "value").unwrap();
    for m in &metrics {
        match m {
            rats_telemetry::Metric::Counter(c) if c.get() > 0 => {
                writeln!(out, "{:<52} {:>10}", c.name(), c.get()).unwrap();
            }
            rats_telemetry::Metric::Family(f) => {
                for (key, v) in f.snapshot() {
                    let cell = format!("{}{{{}=\"{key}\"}}", f.name(), f.label());
                    writeln!(out, "{cell:<52} {v:>10}").unwrap();
                }
            }
            _ => {}
        }
    }
    let rate = |hits: u64, misses: u64| -> String {
        let total = hits + misses;
        if total == 0 {
            "n/a".to_string()
        } else {
            format!("{:.1}% of {total}", hits as f64 / total as f64 * 100.0)
        }
    };
    // Resumed rounds are counted in the rounds total too.
    let rounds = rats_sim::telemetry::ROUNDS.get();
    let resumed = rats_sim::telemetry::ROUNDS_RESUMED.get().min(rounds);
    let events = rats_sim::telemetry::EVENTS.get();
    let flows_per_event = if events == 0 {
        "n/a".to_string()
    } else {
        format!(
            "{:.1}",
            rats_sim::telemetry::FLOW_STEPS.get() as f64 / events as f64
        )
    };
    // Every job counts as a record; a shared one did not simulate.
    let jobs = rats_experiments::telemetry::RECORDS.get();
    let shared = rats_sim::telemetry::SHARED.get().min(jobs);
    writeln!(
        out,
        "\nhit rates: redistribution cache {}, max-min rounds resumed {}, \
         simulations shared {}, flows per event {flows_per_event}",
        rate(
            rats_sched::telemetry::REDIST_HITS.get(),
            rats_sched::telemetry::REDIST_MISSES.get()
        ),
        rate(resumed, rounds - resumed),
        rate(shared, jobs - shared),
    )
    .unwrap();
    out
}

fn cmd_status(args: &[String]) {
    let mut root: Option<String> = None;
    let mut stale_ms = 30_000u64;
    let mut json = false;
    let mut rest = args.iter().cloned();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--stale-ms" => stale_ms = parse_ms("--stale-ms", rest.next()),
            "--json" => json = true,
            other if other.starts_with('-') => unknown("flag", other),
            other if root.is_none() => root = Some(other.to_string()),
            other => unknown("argument", other),
        }
    }
    let root = PathBuf::from(root.unwrap_or_else(|| usage()));
    let status = rats_dispatch::campaign_status(&root, stale_ms).unwrap_or_else(|e| fail(e));
    if json {
        println!("{}", status.to_json());
    } else {
        println!("{status}");
    }
}

fn cmd_replay(args: &[String]) {
    let mut root: Option<String> = None;
    let mut check = false;
    let mut events = false;
    for a in args {
        match a.as_str() {
            "--check" => check = true,
            "--events" => events = true,
            other if other.starts_with('-') => unknown("flag", other),
            other if root.is_none() => root = Some(other.to_string()),
            other => unknown("argument", other),
        }
    }
    let root = PathBuf::from(root.unwrap_or_else(|| usage()));

    if check {
        let report = replay_check(&root).unwrap_or_else(|e| fail(e));
        println!("{report}");
        if !report.ok() {
            fail(format_args!(
                "journal replay and the live queue disagree ({} mismatch(es))",
                report.mismatches.len()
            ));
        }
        return;
    }

    let segments = read_journal(&root).unwrap_or_else(|e| fail(e));
    if segments.is_empty() {
        fail(format_args!(
            "no journal segments under {:?} — was this campaign dispatched \
             by a journal-aware build?",
            root.join(rats_journal::JOURNAL_DIR)
        ));
    }
    let torn: Vec<&str> = segments
        .iter()
        .filter(|s| s.torn_tail)
        .map(|s| s.writer.as_str())
        .collect();
    if !torn.is_empty() {
        eprintln!(
            "campaign: dropped a torn trailing line in segment(s) {} \
             (writer died mid-append)",
            torn.join(", ")
        );
    }
    let mut replay = Replay::new(&segments);
    if events {
        let mut index = 0usize;
        while let Some(entry) = replay.next_step() {
            println!(
                "[{index:>4}] {} #{} {}",
                entry.writer, entry.record.seq, entry.record.event
            );
            index += 1;
        }
    } else {
        replay.run_to_end();
    }
    let state = replay.state();
    println!(
        "replayed {} event(s) from {} segment(s)",
        replay.len(),
        segments.len()
    );
    let views = state.views();
    let done = views
        .values()
        .filter(|v| **v == JournalJobView::Done)
        .count();
    let claimed = views
        .values()
        .filter(|v| matches!(v, JournalJobView::Claimed(_)))
        .count();
    let todo = views
        .values()
        .filter(|v| **v == JournalJobView::Todo)
        .count();
    println!(
        "jobs: {} total — {done} done, {claimed} claimed, {todo} todo",
        views.len()
    );
    for (job, view) in &views {
        if *view != JournalJobView::Done {
            println!("  job {job}: {view}");
        }
    }
    println!(
        "faults: {} lease(s) reclaimed, {} job(s) re-seeded, {} partial shard(s) \
         adopted, {} worker(s) spawned, {} died",
        state.reclaimed, state.reseeded, state.adopted, state.workers_spawned, state.workers_died
    );
    match state.merge {
        Some((files, records)) => {
            println!("merge: completed from {files} shard file(s) covering {records} grid job(s)")
        }
        None => println!("merge: not yet completed"),
    }
}

fn cmd_diff(args: &[String]) {
    let mut roots: Vec<PathBuf> = Vec::new();
    for a in args {
        match a.as_str() {
            other if other.starts_with('-') => unknown("flag", other),
            other if roots.len() < 2 => roots.push(PathBuf::from(other)),
            other => unknown("argument", other),
        }
    }
    if roots.len() != 2 {
        usage();
    }
    let mut journals = Vec::new();
    for root in &roots {
        let segments = read_journal(root).unwrap_or_else(|e| fail(e));
        if segments.is_empty() {
            fail(format_args!(
                "no journal segments under {:?}",
                root.join(rats_journal::JOURNAL_DIR)
            ));
        }
        journals.push(segments);
    }
    let d = journal_diff(&journals[0], &journals[1]);
    println!("{d}");
    if !d.is_empty() {
        std::process::exit(1);
    }
}

/// Validates an `--addr` value up front: malformed addresses are usage
/// errors (exit 2), unlike operational failures such as a refused
/// connection (exit 1).
fn parse_addr(addr: &str) -> String {
    use std::net::ToSocketAddrs as _;
    if addr
        .to_socket_addrs()
        .map_or(true, |mut it| it.next().is_none())
    {
        eprintln!("campaign: --addr expects HOST:PORT, got `{addr}`\n");
        usage();
    }
    addr.to_string()
}

fn cmd_serve(args: &[String]) {
    let mut cfg = ServerConfig::new("serve");
    let mut addr = rats_server::DEFAULT_ADDR.to_string();
    let mut rest = args.iter().cloned();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--addr" => {
                addr = parse_addr(
                    &rest
                        .next()
                        .unwrap_or_else(|| fail("--addr needs HOST:PORT")),
                )
            }
            "--out" => {
                cfg.out = PathBuf::from(
                    rest.next()
                        .unwrap_or_else(|| fail("--out needs a directory")),
                )
            }
            "--fleet" => {
                cfg.fleet = rest
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail("--fleet needs a positive number"))
            }
            "--warm-populations" => {
                cfg.warm_populations = rest
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail("--warm-populations needs a positive number"))
            }
            "--warm-allocs" => {
                cfg.warm_allocs = rest
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail("--warm-allocs needs a positive number"))
            }
            "--metrics-addr" => {
                cfg.metrics_addr = Some(parse_addr(
                    &rest
                        .next()
                        .unwrap_or_else(|| fail("--metrics-addr needs HOST:PORT")),
                ))
            }
            other => unknown("flag", other),
        }
    }
    let fleet = cfg.fleet;
    let out = cfg.out.clone();
    let server =
        Server::bind(&addr, cfg).unwrap_or_else(|e| fail(format_args!("cannot bind {addr}: {e}")));
    // The ready line goes to stdout so scripts (and the CI smoke) can read
    // the actually-bound address back, port 0 included.
    match server.metrics_addr() {
        Some(m) => println!(
            "campaign: serving on {} (out {:?}, fleet {fleet}, metrics http://{m}/metrics)",
            server.local_addr(),
            out
        ),
        None => println!(
            "campaign: serving on {} (out {:?}, fleet {fleet})",
            server.local_addr(),
            out
        ),
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.serve().unwrap_or_else(|e| fail(e));
}

/// A line sink for streamed records: a file when `--records FILE` was
/// given, stdout otherwise.
fn record_sink(records: Option<String>) -> Box<dyn std::io::Write> {
    match records {
        Some(path) => Box::new(
            std::fs::File::create(&path)
                .map(std::io::BufWriter::new)
                .unwrap_or_else(|e| fail(format_args!("cannot create {path:?}: {e}"))),
        ),
        None => Box::new(std::io::stdout()),
    }
}

fn cmd_client(args: &[String]) {
    let Some(op) = args.first() else { usage() };
    let rest = &args[1..];
    let mut addr = rats_server::DEFAULT_ADDR.to_string();
    let mut name: Option<String> = None;
    let mut records: Option<String> = None;
    let mut stale_ms = 30_000u64;
    let mut positional: Option<String> = None;
    let mut it = rest.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                addr = parse_addr(&it.next().unwrap_or_else(|| fail("--addr needs HOST:PORT")))
            }
            "--name" => name = Some(it.next().unwrap_or_else(|| fail("--name needs a value"))),
            "--records" => {
                records = Some(it.next().unwrap_or_else(|| fail("--records needs a file")))
            }
            "--stale-ms" => stale_ms = parse_ms("--stale-ms", it.next()),
            other if other.starts_with('-') => unknown("flag", other),
            other if positional.is_none() => positional = Some(other.to_string()),
            other => unknown("argument", other),
        }
    }
    let connect = |addr: &str| {
        Client::connect(addr)
            .unwrap_or_else(|e| fail(format_args!("cannot connect to {addr}: {e}")))
    };
    match op.as_str() {
        "submit" => {
            let spec_path = positional.unwrap_or_else(|| usage());
            let text = std::fs::read_to_string(&spec_path)
                .unwrap_or_else(|e| fail(format_args!("cannot read spec {spec_path:?}: {e}")));
            let format = if spec_path.ends_with(".json") {
                SpecFormat::Json
            } else {
                SpecFormat::Toml
            };
            let default_name = format!("client-{}", std::process::id());
            let mut sink = record_sink(records);
            let mut client = connect(&addr);
            let end = client
                .submit(
                    name.as_deref().unwrap_or(&default_name),
                    format,
                    &text,
                    |campaign, root, jobs, warm| {
                        eprintln!(
                            "campaign: accepted as `{campaign}` ({jobs} jobs, \
                             population {}) at {root}",
                            if warm { "warm" } else { "cold" }
                        );
                    },
                    |line| {
                        use std::io::Write as _;
                        writeln!(sink, "{line}")
                            .unwrap_or_else(|e| fail(format_args!("writing records: {e}")));
                    },
                )
                .unwrap_or_else(|e| fail(e));
            use std::io::Write as _;
            sink.flush()
                .unwrap_or_else(|e| fail(format_args!("flushing records: {e}")));
            drop(sink);
            match end {
                SubmitEnd::Done {
                    campaign,
                    executed,
                    resumed,
                    streamed,
                    population,
                    report,
                } => {
                    eprintln!(
                        "campaign: `{campaign}` done — {executed} executed, {resumed} \
                         resumed, {streamed} streamed, population {population}"
                    );
                    print!("{report}");
                }
                SubmitEnd::Aborted { campaign, executed } => fail(format_args!(
                    "`{campaign}` aborted after {executed} jobs (cancelled); \
                     committed records remain on the server — resubmit to resume"
                )),
            }
        }
        "status" => {
            let mut client = connect(&addr);
            let body = client
                .status(positional, stale_ms)
                .unwrap_or_else(|e| fail(e));
            println!(
                "{}",
                serde_json::to_string(&body).unwrap_or_else(|e| fail(e))
            );
        }
        "results" => {
            let campaign = positional.unwrap_or_else(|| usage());
            let mut sink = record_sink(records);
            let mut client = connect(&addr);
            let end = client
                .results(&campaign, |line| {
                    use std::io::Write as _;
                    writeln!(sink, "{line}")
                        .unwrap_or_else(|e| fail(format_args!("writing records: {e}")));
                })
                .unwrap_or_else(|e| fail(e));
            use std::io::Write as _;
            sink.flush()
                .unwrap_or_else(|e| fail(format_args!("flushing records: {e}")));
            drop(sink);
            if let SubmitEnd::Done {
                streamed, report, ..
            } = end
            {
                eprintln!("campaign: `{campaign}` — {streamed} records from disk");
                print!("{report}");
            }
        }
        "cancel" => {
            let campaign = positional.unwrap_or_else(|| usage());
            connect(&addr).cancel(&campaign).unwrap_or_else(|e| fail(e));
            eprintln!("campaign: cancel delivered to `{campaign}`");
        }
        "metrics" => {
            let text = connect(&addr).metrics().unwrap_or_else(|e| fail(e));
            print!("{text}");
        }
        "shutdown" => {
            connect(&addr).shutdown().unwrap_or_else(|e| fail(e));
            eprintln!("campaign: server at {addr} acknowledged shutdown");
        }
        other => unknown("client operation", other),
    }
}

fn cmd_worker(args: &[String]) {
    let mut root: Option<String> = None;
    let mut worker_id: Option<String> = None;
    let mut threads = None;
    let mut beat_ms = None;
    let mut poll_ms = None;
    let mut idle_timeout_ms = None;
    let mut parent_pid = None;
    let mut chaos = None;
    let mut rest = args.iter().cloned();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--worker-id" => {
                worker_id = Some(
                    rest.next()
                        .unwrap_or_else(|| fail("--worker-id needs a name")),
                )
            }
            "--threads" => threads = Some(parse_threads(rest.next())),
            "--beat-ms" => beat_ms = Some(parse_ms("--beat-ms", rest.next())),
            "--poll-ms" => poll_ms = Some(parse_ms("--poll-ms", rest.next())),
            "--idle-timeout-ms" => {
                idle_timeout_ms = Some(parse_ms("--idle-timeout-ms", rest.next()))
            }
            "--parent-pid" => {
                parent_pid = Some(
                    rest.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| fail("--parent-pid needs a process id")),
                )
            }
            "--chaos" => {
                let phase = rest.next().unwrap_or_else(|| fail("--chaos needs a phase"));
                chaos = Some(ChaosPhase::parse(&phase).unwrap_or_else(|| {
                    fail(format_args!(
                        "--chaos expects claim, manifest or partial, got `{phase}`"
                    ))
                }));
            }
            other if root.is_none() && !other.starts_with('-') => root = Some(other.to_string()),
            other => unknown("flag", other),
        }
    }
    let root = root.unwrap_or_else(|| usage());
    let default_id = format!("w{}", std::process::id());
    let mut cfg = WorkerConfig::new(root, worker_id.as_deref().unwrap_or(&default_id));
    cfg.threads =
        threads.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |c| c.get()));
    if let Some(ms) = beat_ms {
        cfg.beat_ms = ms;
    }
    if let Some(ms) = poll_ms {
        cfg.poll_ms = ms;
    }
    if let Some(ms) = idle_timeout_ms {
        cfg.idle_timeout_ms = ms;
    }
    cfg.parent_pid = parent_pid;
    cfg.chaos = chaos;
    let report = run_worker(&cfg).unwrap_or_else(|e| fail(e));
    eprintln!(
        "campaign: worker `{}` done — {} shard jobs completed, {} grid jobs executed, \
         {} resumed from disk, {} leases lost, scenario cache {}",
        cfg.worker_id,
        report.jobs_done,
        report.executed,
        report.resumed,
        report.leases_lost,
        if report.used_cache { "hit" } else { "miss" }
    );
}
