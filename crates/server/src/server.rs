//! The resident scheduling service: accept submissions over TCP, execute
//! them on the warm fleet, stream results back as they land.
//!
//! One [`Server`] owns one [`Fleet`](crate::fleet::Fleet) and one
//! [`WarmState`](crate::warm::WarmState); every connection gets a thread,
//! and any number of campaigns multiplex over the shared fleet. The
//! filesystem queue + journal stay the durable substrate — each submission
//! runs the batch dispatcher's campaign-root lifecycle under the server's
//! `out` directory ([`prepare_root`], one [`run_lease`] on the warm fleet,
//! [`merge_root`]), so everything the batch tooling understands (`campaign
//! status`, `campaign replay`, `campaign merge`) works on a served
//! campaign, and a server crash loses no committed work: resubmitting the
//! same spec takes the dead server's lease over and resumes from disk.
//!
//! Determinism contract: the merged outcome of a served campaign is
//! **bit-identical** to batch [`ExperimentSpec::run`] — warm populations
//! and warm allocations are pure-function caches, the fleet preserves
//! `parallel_map` semantics, and the wire protocol ships raw record lines.
//! The serve/batch equivalence tests pin this.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rats_dispatch::dispatcher::campaign_root;
use rats_dispatch::lifecycle::{merge_root, prepare_root, run_lease, LeaseHolder, BEAT_MS};
use rats_dispatch::status::campaign_status;
use rats_dispatch::worker::SHARDS_DIR;
use rats_experiments::record::RunRecord;
use rats_experiments::shard::ShardHooks;
use rats_experiments::spec::ExperimentSpec;
use rats_journal::{Event, Journal};
use serde::{Serialize, Value};

use crate::fleet::Fleet;
use crate::protocol::{read_line, write_line, LineTooLong, Request, Response, SpecFormat};
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
                // An over-long line was read only up to the cap, so the
                // rest of it cannot be told from the next request: answer
                // once, then close.
                if e.get_ref().is_some_and(|inner| inner.is::<LineTooLong>()) {
                    let _ = w.get_ref().shutdown(Shutdown::Write);
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

/// The whole submit flow: prepare the campaign root, run (or resume) its
/// one lease on the warm fleet while streaming records, merge, report —
/// all through the campaign-root lifecycle the batch dispatcher uses.
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

    // The on-disk cache is written from the *resident* population — no
    // regeneration — so batch tools attached to this root see the exact
    // bytes a cold dispatch would have written.
    let (population, warm_hit) = state.warm.population(&spec);
    let (queue, cache_written) = match prepare_root(&root, &spec, 1, Some(&population)) {
        Ok(prepared) => prepared,
        Err(e) => return fail(w, format!("preparing campaign root {root:?}: {e}")),
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

    // Run the campaign's single queue job, taking over a dead server's
    // lease (its committed records are resumed). `None`: the job is done
    // already — a warm resubmission, served from disk below.
    let mut holder = LeaseHolder {
        id: writer_id,
        shard_dir: root.join(SHARDS_DIR).join("serve"),
        threads: state.fleet.width(),
        beat_ms: BEAT_MS,
        take_over: true,
        chaos: None,
    };
    let mut streamed_jobs: BTreeSet<u64> = BTreeSet::new();
    let mut streamed: u64 = 0;
    let lease = {
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
        let warm_allocs = state.warm.allocs_for(&spec);
        let hooks = ShardHooks {
            scenarios: Some(&population),
            on_record: Some(&mut on_record),
            allocs: Some(&warm_allocs),
            pool: Some(&state.fleet),
            cancel: Some(&handle.cancel),
            ..ShardHooks::default()
        };
        run_lease(&spec, &queue, &mut holder, &mut journal, hooks)
    };
    let (executed, resumed) = match lease {
        Err(e) => return fail(w, format!("shard execution failed: {e}")),
        // Cooperative stop (cancel op, or the stream died): the job went
        // back to todo, committed records survive.
        Ok(Some((run, _))) if run.aborted => {
            return write_line(
                w,
                &Response::Aborted {
                    campaign: hash,
                    executed: run.executed as u64,
                },
            )
        }
        Ok(Some((run, _))) => (run.executed as u64, run.skipped as u64),
        Ok(None) => (0, 0),
    };

    // Merge (it validates coverage, duplicates and spec identity), then
    // backfill-stream any record the live hook did not deliver — resumed
    // jobs, or the whole campaign on a resubmission.
    let merged = match merge_root(&root) {
        Ok(merged) => merged,
        Err(e) => return fail(w, format!("merge failed: {e}")),
    };
    // Resumed = committed grid jobs this submission did not execute
    // (covers both the partial-resume and the full-resubmission case).
    let resumed = resumed.max((merged.records.len() as u64).saturating_sub(executed));
    streamed += stream_records(w, &merged.records, &streamed_jobs)?;
    let records = merged.outcome.spec.grid().len();
    journal.emit(Event::ResultsStreamed {
        job: 0,
        records: streamed,
    });
    journal.emit(Event::MergeCompleted {
        shard_files: merged.shard_files as u64,
        records,
    });
    journal.emit(Event::CampaignCompleted { records });
    write_line(
        w,
        &Response::Done {
            campaign: hash,
            executed,
            resumed,
            streamed,
            population: if warm_hit { "warm" } else { "cold" }.to_string(),
            report: merged.outcome.render(),
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
    let merged = match merge_root(&handle.root) {
        Ok(merged) => merged,
        Err(e) => return fail(w, format!("campaign `{campaign}` is incomplete: {e}")),
    };
    let total = stream_records(w, &merged.records, &BTreeSet::new())?;
    write_line(
        w,
        &Response::Done {
            campaign: campaign.to_string(),
            executed: 0,
            resumed: total,
            streamed: total,
            population: "disk".to_string(),
            report: merged.outcome.render(),
        },
    )
}

/// Streams the records whose jobs are not in `sent`; returns how many.
fn stream_records(
    w: &mut impl Write,
    records: &[RunRecord],
    sent: &BTreeSet<u64>,
) -> std::io::Result<u64> {
    let mut streamed = 0;
    for record in records.iter().filter(|r| !sent.contains(&r.job)) {
        let line = record.to_jsonl();
        write_line(w, &Response::Record { line })?;
        streamed += 1;
    }
    Ok(streamed)
}
