//! The resident scheduling service: accept submissions over TCP, execute
//! them on the warm fleet, stream results back as they land.
//!
//! One [`Server`] owns one [`Fleet`](crate::fleet::Fleet) and one
//! [`WarmState`](crate::warm::WarmState); every connection gets a thread,
//! and any number of campaigns multiplex over the shared fleet. The
//! filesystem queue + journal stay the durable substrate — each submission
//! materializes a normal campaign root under the server's `out` directory
//! (spec.json, scenarios.cache, queue/, shards/, journal/), so everything
//! the batch tooling understands (`campaign status`, `campaign replay`,
//! `campaign merge`) works on a served campaign, and a server crash loses
//! no committed work: resubmitting the same spec resumes from disk.
//!
//! Determinism contract: the merged outcome of a served campaign is
//! **bit-identical** to batch [`ExperimentSpec::run`] — warm populations
//! and warm allocations are pure-function caches, the fleet preserves
//! `parallel_map` semantics, and the wire protocol ships raw record lines.
//! The serve/batch equivalence tests pin this.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rats_dispatch::cache::load_cache;
use rats_dispatch::dispatcher::{campaign_root, collect_shard_files_recursive};
use rats_dispatch::queue::WorkQueue;
use rats_dispatch::status::campaign_status;
use rats_dispatch::worker::{SHARDS_DIR, SPEC_FILE};
use rats_dispatch::CACHE_FILE;
use rats_experiments::record::RunRecord;
use rats_experiments::shard::{merge_shards, read_shard_file, run_shard_hooked, ShardHooks};
use rats_experiments::spec::ExperimentSpec;
use rats_journal::{Event, Journal};
use serde::{Serialize, Value};

use crate::fleet::Fleet;
use crate::protocol::{read_line, write_line, Request, Response, SpecFormat};
use crate::warm::{WarmState, WarmStats};

/// Knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Output directory: campaign roots are materialized under it.
    pub out: PathBuf,
    /// Resident fleet width (0 = one thread).
    pub fleet: usize,
    /// LRU bound on resident scenario populations.
    pub warm_populations: usize,
    /// LRU bound on resident step-one allocations.
    pub warm_allocs: usize,
    /// When set, serve `GET /metrics` (Prometheus text exposition) on
    /// this address (use port 0 to let the OS pick).
    pub metrics_addr: Option<String>,
}

impl ServerConfig {
    /// Defaults: a 4-thread fleet, 8 resident populations, 4096 resident
    /// allocations.
    pub fn new(out: impl Into<PathBuf>) -> Self {
        Self {
            out: out.into(),
            fleet: 4,
            warm_populations: 8,
            warm_allocs: 4096,
            metrics_addr: None,
        }
    }
}

/// Per-campaign resident bookkeeping, keyed by spec hash.
struct CampaignHandle {
    name: String,
    root: PathBuf,
    /// Grid jobs the campaign covers.
    jobs: u64,
    /// Cooperative cancel flag, observed between the executor's write
    /// chunks. Reset at the start of every submission.
    cancel: AtomicBool,
    /// Serializes submissions of the *same* campaign (different campaigns
    /// run concurrently): two clients racing the same spec must not both
    /// claim queue files and double-execute.
    gate: Mutex<()>,
}

struct ServerState {
    cfg: ServerConfig,
    addr: SocketAddr,
    fleet: Fleet,
    warm: WarmState,
    campaigns: Mutex<BTreeMap<String, Arc<CampaignHandle>>>,
    shutdown: AtomicBool,
    /// Total submissions accepted; also numbers journal writer ids
    /// (`serve-1`, `serve-2`, …) so concurrent submissions never share a
    /// hash-chained segment.
    submissions: AtomicU64,
}

/// A bound, not-yet-serving scheduling service.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    metrics_addr: Option<SocketAddr>,
}

impl Server {
    /// Binds the service (use port 0 to let the OS pick). When the config
    /// names a metrics address, the `/metrics` HTTP listener starts here
    /// too, so scrapes work for the service's whole lifetime.
    pub fn bind(addr: &str, cfg: ServerConfig) -> std::io::Result<Self> {
        crate::telemetry::register_all();
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            fleet: Fleet::new(cfg.fleet),
            warm: WarmState::new(cfg.warm_populations, cfg.warm_allocs),
            cfg,
            addr,
            campaigns: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
            submissions: AtomicU64::new(0),
        });
        let metrics_addr = match &state.cfg.metrics_addr {
            Some(maddr) => {
                let scrape_state = Arc::clone(&state);
                Some(crate::metrics_http::spawn_metrics_listener(
                    maddr,
                    Arc::new(move || metrics_text(&scrape_state)),
                )?)
            }
            None => None,
        };
        Ok(Server {
            listener,
            state,
            metrics_addr,
        })
    }

    /// The actually bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// The bound `/metrics` address, when the config asked for one.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Current warm-state counters (tests assert on these in-process).
    pub fn warm_stats(&self) -> WarmStats {
        self.state.warm.stats()
    }

    /// Runs the accept loop until a `shutdown` request arrives. Each
    /// connection is served on its own thread; in-flight connections are
    /// joined before this returns.
    pub fn serve(self) -> std::io::Result<()> {
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let state = Arc::clone(&self.state);
            conns.push(std::thread::spawn(move || handle_conn(&state, stream)));
            conns.retain(|c| !c.is_finished());
        }
        for c in conns {
            let _ = c.join();
        }
        Ok(())
    }
}

/// One connection: a loop of requests. A malformed line gets an `error`
/// response and the connection stays usable; EOF or `shutdown` ends it.
fn handle_conn(state: &Arc<ServerState>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut r = BufReader::new(read_half);
    let mut w = BufWriter::new(stream);
    loop {
        let req = match read_line::<Request>(&mut r) {
            Ok(None) => return,
            Ok(Some(req)) => req,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                let resp = Response::Error {
                    message: format!("malformed request: {e}"),
                };
                if write_line(&mut w, &resp).is_err() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        let done = matches!(req, Request::Shutdown);
        if handle_request(state, req, &mut w).is_err() {
            return;
        }
        if done {
            return;
        }
    }
}

/// Dispatches one request. `Err` means the connection itself is dead;
/// request-level failures become `error` responses.
fn handle_request(
    state: &Arc<ServerState>,
    req: Request,
    w: &mut impl Write,
) -> std::io::Result<()> {
    match req {
        Request::Submit {
            client,
            format,
            spec,
        } => handle_submit(state, &client, format, &spec, w),
        Request::Status { campaign, stale_ms } => match campaign {
            None => write_line(
                w,
                &Response::Status {
                    body: server_status(state),
                },
            ),
            Some(hash) => match lookup(state, &hash) {
                None => fail(w, format!("unknown campaign `{hash}`")),
                Some(handle) => match campaign_status(&handle.root, stale_ms) {
                    Ok(status) => write_line(
                        w,
                        &Response::Status {
                            body: status.serialize(),
                        },
                    ),
                    Err(e) => fail(w, format!("status of `{hash}`: {e}")),
                },
            },
        },
        Request::Results { campaign } => handle_results(state, &campaign, w),
        Request::Cancel { campaign } => match lookup(state, &campaign) {
            None => fail(w, format!("unknown campaign `{campaign}`")),
            Some(handle) => {
                handle.cancel.store(true, Ordering::SeqCst);
                write_line(w, &Response::Cancelled { campaign })
            }
        },
        Request::Metrics => write_line(
            w,
            &Response::Metrics {
                text: metrics_text(state),
            },
        ),
        Request::Shutdown => {
            state.shutdown.store(true, Ordering::SeqCst);
            let ack = write_line(w, &Response::Bye);
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(state.addr);
            ack
        }
    }
}

fn lookup(state: &ServerState, hash: &str) -> Option<Arc<CampaignHandle>> {
    state
        .campaigns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(hash)
        .cloned()
}

fn fail(w: &mut impl Write, message: String) -> std::io::Result<()> {
    write_line(w, &Response::Error { message })
}

/// Renders the Prometheus document for this server instance: warm gauges
/// are mirrored from the live `WarmState` first so the snapshot is
/// consistent with what a `status` op would report.
fn metrics_text(state: &ServerState) -> String {
    crate::telemetry::refresh_warm(&state.warm.stats());
    crate::telemetry::CAMPAIGNS.set(state.campaigns.lock().unwrap().len() as u64);
    crate::telemetry::SCRAPES.inc();
    rats_telemetry::global().render_prometheus()
}

/// The server-wide status document.
fn server_status(state: &ServerState) -> Value {
    let campaigns = state.campaigns.lock().unwrap_or_else(|e| e.into_inner());
    let list: Vec<Value> = campaigns
        .iter()
        .map(|(hash, h)| {
            let mut t = Value::table();
            t.insert("campaign", hash)
                .insert("name", &h.name)
                .insert("root", &h.root.display().to_string())
                .insert("jobs", &h.jobs);
            t
        })
        .collect();
    let mut t = Value::table();
    t.insert("kind", "server-status")
        .insert("fleet", &state.fleet.width())
        .insert("submissions", &state.submissions.load(Ordering::SeqCst))
        .insert("warm", &state.warm.stats())
        .insert("campaigns", &Value::Array(list));
    t
}

/// Atomic file publication (tmp + rename), the same pattern the batch
/// dispatcher uses for spec.json and the cache.
fn write_atomic(path: &Path, content: &str) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    fs::write(&tmp, content)?;
    fs::rename(&tmp, path)
}

/// The whole submit flow: materialize the campaign root, execute (or
/// resume) on the warm fleet while streaming records, merge, report.
fn handle_submit(
    state: &Arc<ServerState>,
    client: &str,
    format: SpecFormat,
    spec_text: &str,
    w: &mut impl Write,
) -> std::io::Result<()> {
    let parsed = match format {
        SpecFormat::Toml => ExperimentSpec::from_toml(spec_text),
        SpecFormat::Json => ExperimentSpec::from_json(spec_text),
    };
    let spec = match parsed.and_then(|s| s.validate().map(|()| s)) {
        Ok(spec) => spec.normalized(),
        Err(e) => return fail(w, format!("rejected spec: {e}")),
    };
    let hash = spec.spec_hash();
    let grid_jobs = spec.grid().len();
    let root = campaign_root(&state.cfg.out, &spec);

    let handle = {
        let mut campaigns = state.campaigns.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(campaigns.entry(hash.clone()).or_insert_with(|| {
            Arc::new(CampaignHandle {
                name: spec.name.clone(),
                root: root.clone(),
                jobs: grid_jobs,
                cancel: AtomicBool::new(false),
                gate: Mutex::new(()),
            })
        }))
    };
    // One submission of a given campaign at a time; a concurrent duplicate
    // waits here and then resumes from the finished state on disk.
    let _gate = handle.gate.lock().unwrap_or_else(|e| e.into_inner());
    handle.cancel.store(false, Ordering::SeqCst);

    // Materialize the campaign root exactly like the batch dispatcher:
    // normalized spec, population cache, seeded queue — all idempotent.
    let shard_dir = root.join(SHARDS_DIR).join("serve");
    if let Err(e) = fs::create_dir_all(&shard_dir) {
        return fail(w, format!("creating campaign root {root:?}: {e}"));
    }
    if let Err(e) = write_atomic(&root.join(SPEC_FILE), &format!("{}\n", spec.to_json())) {
        return fail(w, format!("writing spec.json: {e}"));
    }
    let (population, warm_hit) = state.warm.population(&spec);
    // The on-disk cache is written from the *resident* population — no
    // regeneration — so batch tools attached to this root see the exact
    // bytes a cold dispatch would have written.
    let cache_written = if load_cache(&root, &spec).is_none() {
        let text =
            rats_daggen::population::write_population(&population, spec.seed, &spec.suite.name());
        if let Err(e) = write_atomic(&root.join(CACHE_FILE), &text) {
            return fail(w, format!("writing scenario cache: {e}"));
        }
        true
    } else {
        false
    };
    let queue = match WorkQueue::init(&root, &spec, 1) {
        Ok(q) => q,
        Err(e) => return fail(w, e.to_string()),
    };

    let submission = state.submissions.fetch_add(1, Ordering::SeqCst) + 1;
    crate::telemetry::SUBMISSIONS.inc();
    let writer_id = format!("serve-{submission}");
    let mut journal = Journal::open(&root, &writer_id, &hash);
    journal.emit(Event::CampaignSubmitted {
        client: client.to_string(),
        jobs: grid_jobs,
    });
    journal.emit(Event::CacheReady {
        written: cache_written,
    });
    journal.emit(Event::QueueInit { jobs: 1 });
    journal.emit(Event::PopulationLoaded {
        from_cache: warm_hit,
    });

    write_line(
        w,
        &Response::Accepted {
            campaign: hash.clone(),
            root: root.display().to_string(),
            jobs: grid_jobs,
            warm_population: warm_hit,
        },
    )?;

    // Claim the campaign's single queue job. `None` + not-all-done means a
    // previous server process died holding the lease: reclaim and retry —
    // the shard file's committed records are still resumed.
    let mut lease = match queue.claim(&writer_id) {
        Ok(l) => l,
        Err(e) => return fail(w, e.to_string()),
    };
    if lease.is_none() {
        let files = match queue.scan() {
            Ok(f) => f,
            Err(e) => return fail(w, e.to_string()),
        };
        if !queue.status_of(&files).all_done() {
            for (job, f) in &files {
                if f.done {
                    continue;
                }
                for worker in &f.claims {
                    if queue.reclaim(*job, worker).unwrap_or(false) {
                        journal.emit(Event::LeaseReclaimed {
                            job: *job as u64,
                            worker: worker.clone(),
                        });
                    }
                }
            }
            lease = match queue.claim(&writer_id) {
                Ok(l) => l,
                Err(e) => return fail(w, e.to_string()),
            };
        }
    }

    let mut streamed_jobs: BTreeSet<u64> = BTreeSet::new();
    let mut streamed: u64 = 0;
    let (executed, resumed) = match lease {
        Some(lease) => {
            let job = lease.shard().index;
            journal.emit(Event::JobClaimed {
                job: job as u64,
                worker: writer_id.clone(),
            });
            let warm_allocs = state.warm.allocs_for(&spec);
            let run = {
                let cancel_on_stream_loss = &handle.cancel;
                let jobs_seen = &mut streamed_jobs;
                let count = &mut streamed;
                let sink = &mut *w;
                let mut on_record = move |record: &RunRecord| {
                    jobs_seen.insert(record.job);
                    let line = Response::Record {
                        line: record.to_jsonl(),
                    };
                    if write_line(sink, &line).is_err() {
                        // The consumer is gone: stop producing. Committed
                        // records stay resumable on disk.
                        cancel_on_stream_loss.store(true, Ordering::SeqCst);
                    } else {
                        *count += 1;
                    }
                };
                run_shard_hooked(
                    &spec,
                    &shard_dir,
                    Some(state.fleet.width()),
                    ShardHooks {
                        scenarios: Some(&population),
                        journal: Some(&mut journal),
                        on_record: Some(&mut on_record),
                        allocs: Some(&warm_allocs),
                        pool: Some(&state.fleet),
                        cancel: Some(&handle.cancel),
                    },
                )
            };
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    if queue.reclaim(job, &writer_id).unwrap_or(false) {
                        journal.emit(Event::LeaseReclaimed {
                            job: job as u64,
                            worker: writer_id.clone(),
                        });
                    }
                    return fail(w, format!("shard execution failed: {e}"));
                }
            };
            if run.aborted {
                // Cooperative stop (cancel op, or the stream died): the
                // job goes back to todo, committed records survive.
                if queue.reclaim(job, &writer_id).unwrap_or(false) {
                    journal.emit(Event::LeaseReclaimed {
                        job: job as u64,
                        worker: writer_id.clone(),
                    });
                }
                return write_line(
                    w,
                    &Response::Aborted {
                        campaign: hash,
                        executed: run.executed as u64,
                    },
                );
            }
            match queue.mark_done(&lease) {
                Ok(true) => journal.emit(Event::JobDone {
                    job: job as u64,
                    worker: writer_id.clone(),
                }),
                Ok(false) => journal.emit(Event::LeaseLost {
                    job: job as u64,
                    worker: writer_id.clone(),
                }),
                Err(e) => return fail(w, e.to_string()),
            }
            (run.executed as u64, run.skipped as u64)
        }
        // All jobs already done: a warm resubmission — everything comes
        // from disk backfill below.
        None => (0, 0),
    };

    // Merge first (it validates coverage, duplicates and spec identity),
    // then backfill-stream any record the live hook did not deliver —
    // resumed jobs, or the whole campaign on a resubmission.
    let paths = match collect_shard_files_recursive(&root.join(SHARDS_DIR)) {
        Ok(p) => p,
        Err(e) => return fail(w, e.to_string()),
    };
    let outcome = match merge_shards(&paths) {
        Ok(o) => o,
        Err(e) => return fail(w, format!("merge failed: {e}")),
    };
    let mut backfill: BTreeMap<u64, RunRecord> = BTreeMap::new();
    for path in &paths {
        if let Ok(file) = read_shard_file(path) {
            for record in file.records {
                backfill.entry(record.job).or_insert(record);
            }
        }
    }
    // Resumed = committed grid jobs this submission did not execute
    // (covers both the partial-resume and the full-resubmission case).
    let resumed = resumed.max((backfill.len() as u64).saturating_sub(executed));
    for (job, record) in &backfill {
        if !streamed_jobs.contains(job) {
            write_line(
                w,
                &Response::Record {
                    line: record.to_jsonl(),
                },
            )?;
            streamed += 1;
        }
    }
    journal.emit(Event::ResultsStreamed {
        job: 0,
        records: streamed,
    });
    journal.emit(Event::MergeCompleted {
        shard_files: paths.len() as u64,
        records: outcome.spec.grid().len(),
    });
    journal.emit(Event::CampaignCompleted {
        records: outcome.spec.grid().len(),
    });
    write_line(
        w,
        &Response::Done {
            campaign: hash,
            executed,
            resumed,
            streamed,
            population: if warm_hit { "warm" } else { "cold" }.to_string(),
            report: outcome.render(),
        },
    )
}

/// Re-streams a finished campaign's records from disk, then reports.
fn handle_results(
    state: &Arc<ServerState>,
    campaign: &str,
    w: &mut impl Write,
) -> std::io::Result<()> {
    let Some(handle) = lookup(state, campaign) else {
        return fail(w, format!("unknown campaign `{campaign}`"));
    };
    // Do not interleave with a running submission of the same campaign.
    let _gate = handle.gate.lock().unwrap_or_else(|e| e.into_inner());
    let paths = match collect_shard_files_recursive(&handle.root.join(SHARDS_DIR)) {
        Ok(p) if !p.is_empty() => p,
        Ok(_) => return fail(w, format!("campaign `{campaign}` has no results yet")),
        Err(e) => return fail(w, e.to_string()),
    };
    let outcome = match merge_shards(&paths) {
        Ok(o) => o,
        Err(e) => return fail(w, format!("campaign `{campaign}` is incomplete: {e}")),
    };
    let mut records: BTreeMap<u64, RunRecord> = BTreeMap::new();
    for path in &paths {
        if let Ok(file) = read_shard_file(path) {
            for record in file.records {
                records.entry(record.job).or_insert(record);
            }
        }
    }
    let total = records.len() as u64;
    for record in records.values() {
        write_line(
            w,
            &Response::Record {
                line: record.to_jsonl(),
            },
        )?;
    }
    write_line(
        w,
        &Response::Done {
            campaign: campaign.to_string(),
            executed: 0,
            resumed: total,
            streamed: total,
            population: "disk".to_string(),
            report: outcome.render(),
        },
    )
}
