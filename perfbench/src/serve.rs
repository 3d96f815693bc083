//! `serve_mixed`: a resident `campaign serve` (fleet 2, loopback) driven by
//! one client on one connection in a closed loop.
//!
//! The client alternates two submissions:
//!
//! * **cold** — a mini-suite naive campaign with a fresh seed from the
//!   workload seed stream: the server generates, allocates, executes,
//!   writes and streams 27 jobs;
//! * **warm** — a resubmission of the campaign completed during setup
//!   (mini suite at the base seed × the three paper clusters × the 33 sweep
//!   strategies, 891 jobs): the server executes nothing and merges,
//!   back-fills and streams 891 records from disk.
//!
//! Latency runs from sending `submit` to receiving `done`. Every streamed
//! record must equal its line in the server's shard file, and every warm
//! stream must equal the campaign's first stream.

use std::fs;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use rats_experiments::{
    collect_shard_files, merge_shards, read_shard_file, shard_file_name, sweep_specs,
    ExperimentSpec, SuiteSpec, BASE_SEED,
};
use rats_server::{Client, Server, ServerConfig, SpecFormat, SubmitEnd};

use crate::common::{Checks, MapCounters, Options, Scale, Values, WorkDir};
use crate::stats::{median, percentile, reportable_percentile, SeedStream};
use crate::trace::Recorder;

/// Resident fleet width.
const FLEET: usize = 2;
/// Set-up repetitions (a fresh server and warm campaign each); `setup_s`
/// is their median.
const SETUPS: usize = 15;
/// Per-layer metrics the traced run measures.
pub const LAYERS: &[&str] = &[
    "submit_cold_ms.p50",
    "submit_cold_ms.p90",
    "submit_warm_ms.p50",
    "submit_warm_ms.p90",
    "server.accept_ms.cold",
    "server.accept_ms.warm",
    "server.first_record_ms.cold",
    "server.first_record_ms.warm",
    "server.stream_ms.cold",
    "server.stream_ms.warm",
    "server.done_ms.cold",
    "server.done_ms.warm",
    "warm.population_hit_ratio",
    "warm.population_lookups",
    "warm.alloc_hit_ratio",
    "warm.alloc_lookups",
    "experiments.record_bytes",
    "experiments.merge_s",
    "experiments.record_read_s",
    "journal.events_per_submit",
    "journal.bytes_per_submit",
    "trace_wall_s",
    "unattributed_s",
    "trace_overhead_s",
];

/// Whether `n` submissions of each kind are enough: at full scale, when the
/// p90 has at least ten samples beyond it.
fn enough_samples(n: usize, scale: Scale) -> bool {
    match scale {
        Scale::Full => reportable_percentile(n).is_some_and(|p| p >= 90.0),
        Scale::Smoke => n >= 2,
    }
}

/// The campaign completed during setup and resubmitted warm. Its seed is
/// fixed: one population is set up per run, and populations of other seeds
/// differ in cost by up to a third, which `setup_s` would measure.
fn warm_spec(scale: Scale) -> ExperimentSpec {
    let mut spec = ExperimentSpec::naive("warm", "grillon", SuiteSpec::Mini, BASE_SEED);
    if scale == Scale::Full {
        spec.clusters = ["chti", "grillon", "grelon"].map(String::from).to_vec();
        spec.strategies = sweep_specs();
    }
    spec
}

/// One submission as the client saw it.
struct Submission {
    lines: Vec<String>,
    root: PathBuf,
    executed: u64,
    streamed: u64,
    sent: Instant,
    accepted: Instant,
    first: Instant,
    last: Instant,
    done: Instant,
}

impl Submission {
    fn latency_ms(&self) -> f64 {
        ms(self.sent, self.done)
    }
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

fn submit(client: &mut Client, spec: &ExperimentSpec) -> Result<Submission, String> {
    let text = spec.to_json();
    let mut lines = Vec::new();
    let mut root = PathBuf::new();
    let mut accepted = None;
    let (mut first, mut last) = (None, None);
    let sent = Instant::now();
    let end = client
        .submit(
            "perfbench",
            SpecFormat::Json,
            &text,
            |_, r, _, _| {
                accepted = Some(Instant::now());
                root = PathBuf::from(r);
            },
            |line| {
                let now = Instant::now();
                first.get_or_insert(now);
                last = Some(now);
                lines.push(line.to_string());
            },
        )
        .map_err(|e| format!("submit: {e}"))?;
    let done = Instant::now();
    let SubmitEnd::Done {
        executed, streamed, ..
    } = end
    else {
        return Err("submission aborted".into());
    };
    let accepted = accepted.ok_or("no accepted response")?;
    Ok(Submission {
        lines,
        root,
        executed,
        streamed,
        sent,
        accepted,
        first: first.unwrap_or(accepted),
        last: last.unwrap_or(accepted),
        done,
    })
}

/// A resident server and its client connection.
struct Served {
    client: Client,
    thread: JoinHandle<std::io::Result<()>>,
    /// The warm campaign's first stream.
    warm_stream: Vec<String>,
    warm_root: PathBuf,
}

impl Served {
    /// Binds a server under `out`, connects, and completes the warm
    /// campaign.
    fn start(out: &Path, warm: &ExperimentSpec) -> Result<Self, String> {
        let mut cfg = ServerConfig::new(out);
        cfg.fleet = FLEET;
        let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.serve());
        let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        let first = submit(&mut client, warm)?;
        Ok(Served {
            client,
            thread,
            warm_stream: first.lines,
            warm_root: first.root,
        })
    }

    /// Shuts the server down and waits for it.
    fn stop(mut self) -> Result<(), String> {
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("serve: {e}"))
    }
}

/// Record lines of a shard file (the manifest line dropped).
fn file_records(path: &Path) -> Vec<String> {
    fs::read_to_string(path)
        .map(|t| t.lines().skip(1).map(String::from).collect())
        .unwrap_or_default()
}

/// Journal event lines and bytes under every campaign root in `out`.
fn journal_totals(out: &Path) -> (u64, u64) {
    let (mut events, mut bytes) = (0, 0);
    for root in fs::read_dir(out).into_iter().flatten().flatten() {
        let dir = root.path().join(rats_journal::JOURNAL_DIR);
        for seg in fs::read_dir(dir).into_iter().flatten().flatten() {
            if let Ok(text) = fs::read_to_string(seg.path()) {
                events += text.lines().count() as u64;
                bytes += text.len() as u64;
            }
        }
    }
    (events, bytes)
}

/// Warm-state hit and miss counters from the `status` op.
fn warm_counters(client: &mut Client) -> Result<[u64; 4], String> {
    let body = client.status(None, 0).map_err(|e| format!("status: {e}"))?;
    let warm = body.get("warm").ok_or("status without warm stats")?;
    let get = |k: &str| warm.field::<u64>(k).map_err(|e| e.to_string());
    Ok([
        get("population_hits")?,
        get("population_misses")?,
        get("alloc_hits")?,
        get("alloc_misses")?,
    ])
}

/// Runs the workload.
pub fn run(opts: &Options) -> Result<(Checks, Values), String> {
    let mut seeds = SeedStream::new(opts.seed);
    let warm = warm_spec(opts.scale);
    let work = WorkDir::new(&opts.out_root, "serve_mixed").map_err(|e| e.to_string())?;
    // Keep the last set-up's server.
    let mut setup_times = Vec::new();
    let mut served: Option<Served> = None;
    let mut out = PathBuf::new();
    for i in 0..SETUPS {
        if let Some(old) = served.take() {
            old.stop()?;
        }
        out = work.path().join(format!("serve-{i}"));
        let t0 = Instant::now();
        served = Some(Served::start(&out, &warm)?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let mut served = served.expect("set up at least once");
    let setup_s = median(&setup_times);
    let cold_tasks: u64 = {
        let spec = ExperimentSpec::naive("cold", "grillon", SuiteSpec::Mini, 0);
        let per_strategy: usize = spec.scenarios().iter().map(|s| s.dag.num_tasks()).sum();
        (per_strategy * spec.strategies.len()) as u64
    };

    let mut checks = Checks::default();
    let warm_jobs = warm.grid().len();
    checks.attempt(1);
    checks.expect(served.warm_stream.len() as u64 == warm_jobs, 1, || {
        format!(
            "setup streamed {} of {warm_jobs} warm records",
            served.warm_stream.len()
        )
    });
    let rec = Recorder::new();
    let warm_before = warm_counters(&mut served.client)?;
    let map_before = MapCounters::read();
    let (mut cold, mut warm_subs): (Vec<Submission>, Vec<Submission>) = (Vec::new(), Vec::new());
    let mut record_s = Vec::new();
    // Each throughput follows one path: executed (cold) tasks per second of
    // cold latency, read-back (warm) records per second of warm latency.
    let (mut warm_records, mut tasks, mut cold_s, mut warm_s) = (0u64, 0u64, 0.0, 0.0);
    let start = Instant::now();
    for op in 0u64.. {
        let spec = ExperimentSpec::naive("cold", "grillon", SuiteSpec::Mini, seeds.next_seed());
        let c = submit(&mut served.client, &spec)?;
        let check = Instant::now();
        checks.attempt(1);
        let on_disk = file_records(&c.root.join("shards/serve").join(shard_file_name(&spec)));
        let ok = c.executed == spec.grid().len()
            && c.streamed == c.lines.len() as u64
            && c.lines == on_disk;
        checks.expect(ok, 1, || {
            format!("cold stream of {:?} differs from its shard file", c.root)
        });
        let c_check = (check, Instant::now());

        let w = submit(&mut served.client, &warm)?;
        let check = Instant::now();
        checks.attempt(1);
        checks.expect(w.executed == 0 && w.lines == served.warm_stream, 1, || {
            "warm stream differs from the campaign's first stream".into()
        });
        let w_check = (check, Instant::now());

        warm_records += w.lines.len() as u64;
        tasks += cold_tasks;
        cold_s += (c.done - c.sent).as_secs_f64();
        warm_s += (w.done - w.sent).as_secs_f64();
        if opts.trace {
            let t0 = Instant::now();
            for (kind, s, chk) in [("cold", &c, c_check), ("warm", &w, w_check)] {
                let top = rec.record(&format!("serve.submit.{kind}"), None, op, s.sent, s.done);
                rec.record("server.accept", Some(top), op, s.sent, s.accepted);
                rec.record("server.first_record", Some(top), op, s.accepted, s.first);
                rec.record("server.stream", Some(top), op, s.first, s.last);
                rec.record("server.done", Some(top), op, s.last, s.done);
                rec.record("check.stream", None, op, chk.0, chk.1);
            }
            record_s.push(t0.elapsed().as_secs_f64());
        }
        cold.push(c);
        warm_subs.push(w);
        if enough_samples(cold.len(), opts.scale) && start.elapsed() >= opts.seconds {
            break;
        }
    }
    let loop_wall = start.elapsed().as_secs_f64();
    let pairs = cold.len() as f64;

    let mut v = Values::new();
    if opts.trace {
        let lat = |subs: &[Submission]| subs.iter().map(Submission::latency_ms).collect::<Vec<_>>();
        let (cl, wl) = (lat(&cold), lat(&warm_subs));
        v.insert("submit_cold_ms.p50", percentile(&cl, 50.0));
        v.insert("submit_cold_ms.p90", percentile(&cl, 90.0));
        v.insert("submit_warm_ms.p50", percentile(&wl, 50.0));
        v.insert("submit_warm_ms.p90", percentile(&wl, 90.0));
        let phases: [(&[Submission], [&'static str; 4]); 2] = [
            (
                &cold,
                [
                    "server.accept_ms.cold",
                    "server.first_record_ms.cold",
                    "server.stream_ms.cold",
                    "server.done_ms.cold",
                ],
            ),
            (
                &warm_subs,
                [
                    "server.accept_ms.warm",
                    "server.first_record_ms.warm",
                    "server.stream_ms.warm",
                    "server.done_ms.warm",
                ],
            ),
        ];
        for (subs, keys) in phases {
            let phase = |f: fn(&Submission) -> f64| median(&subs.iter().map(f).collect::<Vec<_>>());
            v.insert(keys[0], phase(|s| ms(s.sent, s.accepted)));
            v.insert(keys[1], phase(|s| ms(s.accepted, s.first)));
            v.insert(keys[2], phase(|s| ms(s.first, s.last)));
            v.insert(keys[3], phase(|s| ms(s.last, s.done)));
        }
        MapCounters::since(map_before).report(pairs, &mut v);
        let after = warm_counters(&mut served.client)?;
        let d: Vec<f64> = (0..4).map(|i| (after[i] - warm_before[i]) as f64).collect();
        v.insert("warm.population_hit_ratio", d[0] / (d[0] + d[1]));
        v.insert("warm.population_lookups", (d[0] + d[1]) / pairs);
        v.insert("warm.alloc_hit_ratio", d[2] / (d[2] + d[3]));
        v.insert("warm.alloc_lookups", (d[2] + d[3]) / pairs);
        let bytes: usize = cold
            .iter()
            .chain(&warm_subs)
            .flat_map(|s| &s.lines)
            .map(|l| l.len() + 1)
            .sum();
        v.insert("experiments.record_bytes", bytes as f64 / pairs);

        let shard_dir = served.warm_root.join("shards/serve");
        let (mut merge_s, mut read_s) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            let t0 = Instant::now();
            let merged = collect_shard_files(&shard_dir).and_then(|p| merge_shards(&p));
            merge_s.push(t0.elapsed().as_secs_f64());
            checks.attempt(1);
            checks.expect(merged.is_ok(), 1, || format!("merge failed: {merged:?}"));
            let t0 = Instant::now();
            let file = read_shard_file(&shard_dir.join(shard_file_name(&warm)));
            read_s.push(t0.elapsed().as_secs_f64());
            checks.attempt(1);
            checks.expect(
                file.is_ok_and(|f| f.records.len() as u64 == warm_jobs),
                1,
                || "warm shard file unreadable or incomplete".into(),
            );
        }
        v.insert("experiments.merge_s", median(&merge_s));
        v.insert("experiments.record_read_s", median(&read_s));
        let spans = rec.spans();
        v.insert("trace_wall_s", loop_wall / pairs);
        v.insert(
            "unattributed_s",
            (loop_wall - crate::trace::top_level_s(&spans)) / pairs,
        );
        v.insert("trace_overhead_s", median(&record_s));
        crate::write_spans(opts, &rec)?;
    }
    served.stop()?;
    if opts.trace {
        let (events, bytes) = journal_totals(&out);
        let submissions = 1.0 + 2.0 * pairs;
        v.insert("journal.events_per_submit", events as f64 / submissions);
        v.insert("journal.bytes_per_submit", bytes as f64 / submissions);
    } else {
        v.insert("jobs_per_s", warm_records as f64 / warm_s);
        v.insert("tasks_per_s", tasks as f64 / cold_s);
        v.insert("setup_s", setup_s);
    }
    Ok((checks, v))
}
