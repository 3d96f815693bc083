//! End-to-end service tests over real TCP: warm-vs-cold bit identity,
//! concurrent multi-campaign submissions, cancel semantics, lease
//! take-over after a server death, and protocol robustness.

#[allow(dead_code)]
mod common;

use std::fs;
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use common::temp_dir;
use rats_dispatch::dispatcher::campaign_root;
use rats_dispatch::lifecycle::prepare_root;
use rats_experiments::record::RunRecord;
use rats_experiments::shard::run_shard;
use rats_experiments::spec::{ExperimentSpec, SuiteSpec};
use rats_journal::{read_journal, Event, Replay};
use rats_server::protocol::MAX_LINE_BYTES;
use rats_server::{Client, Server, ServerConfig, SpecFormat, SubmitEnd};

fn mini_spec(name: &str, seed: u64) -> ExperimentSpec {
    ExperimentSpec::naive(name, "grillon", SuiteSpec::Mini, seed)
}

/// Binds a server on an OS-picked port, serves it on a background thread,
/// and returns the address plus the join handle.
fn start_server(cfg: ServerConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind an ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.serve().expect("serve loop"));
    (addr, handle)
}

struct Submission {
    campaign: String,
    records: Vec<String>,
    executed: u64,
    resumed: u64,
    population: String,
    report: String,
}

fn submit(addr: &str, client_name: &str, spec: &ExperimentSpec) -> Submission {
    let mut client = Client::connect(addr).expect("connect");
    let mut records = Vec::new();
    let end = client
        .submit(
            client_name,
            SpecFormat::Toml,
            &spec.to_toml(),
            |_, _, _, _| {},
            |line| records.push(line.to_string()),
        )
        .expect("submission completes");
    match end {
        SubmitEnd::Done {
            campaign,
            executed,
            resumed,
            population,
            report,
            streamed,
        } => {
            assert_eq!(streamed as usize, records.len(), "streamed count matches");
            Submission {
                campaign,
                records,
                executed,
                resumed,
                population,
                report,
            }
        }
        SubmitEnd::Aborted { .. } => panic!("submission unexpectedly aborted"),
    }
}

fn warm_counter(addr: &str, key: &str) -> u64 {
    let mut client = Client::connect(addr).expect("connect");
    let body = client.status(None, 30_000).expect("server status");
    body.get("warm")
        .expect("server status carries warm stats")
        .field::<u64>(key)
        .expect("warm counters are integers")
}

fn shutdown(addr: &str, server: std::thread::JoinHandle<()>) {
    Client::connect(addr)
        .expect("connect for shutdown")
        .shutdown()
        .expect("server acknowledges");
    server.join().expect("serve loop exits cleanly");
}

/// The tentpole invariant: a cold submission, a warm resubmission, and a
/// warm same-population sibling campaign all stream byte-identical records
/// and render the report byte-identical to batch `spec.run()` — and the
/// warm paths provably skip population regeneration (hit counters).
#[test]
fn warm_and_cold_submissions_are_bit_identical() {
    let out = temp_dir("serve-warmcold");
    let mut cfg = ServerConfig::new(out.join("serve"));
    cfg.fleet = 2;
    let (addr, server) = start_server(cfg);

    let spec = mini_spec("serve-a", 7001);
    let jobs = spec.grid().len();
    let reference = spec.run().unwrap();

    // Cold: first contact generates the population and executes everything.
    let cold = submit(&addr, "t-cold", &spec);
    assert_eq!(cold.population, "cold");
    assert_eq!((cold.executed, cold.resumed), (jobs, 0));
    assert_eq!(cold.records.len() as u64, jobs);
    assert_eq!(
        cold.report,
        reference.render(),
        "served report is byte-identical to batch run()"
    );
    assert_eq!(warm_counter(&addr, "population_misses"), 1);

    // Warm resubmission of the identical spec: nothing re-executes, the
    // whole stream is disk backfill — and the bytes match exactly.
    let warm = submit(&addr, "t-warm", &spec);
    assert_eq!(warm.campaign, cold.campaign);
    assert_eq!(warm.population, "warm");
    assert_eq!((warm.executed, warm.resumed), (0, jobs));
    assert_eq!(warm.records, cold.records, "byte-identical record stream");
    assert_eq!(warm.report, cold.report);

    // A sibling campaign (different name, same suite+seed) re-executes on
    // the *resident* population: records carry no campaign name, so the
    // stream must again be byte-identical — computed from warm state.
    let sibling = submit(&addr, "t-sib", &mini_spec("serve-b", 7001));
    assert_ne!(sibling.campaign, cold.campaign, "different spec hash");
    assert_eq!(sibling.population, "warm");
    assert_eq!((sibling.executed, sibling.resumed), (jobs, 0));
    assert_eq!(
        sibling.records, cold.records,
        "warm population + warm allocations reproduce the cold bytes"
    );

    assert_eq!(
        warm_counter(&addr, "population_misses"),
        1,
        "the population was generated exactly once across three submissions"
    );
    assert!(warm_counter(&addr, "population_hits") >= 2);
    assert_eq!(warm_counter(&addr, "population_evictions"), 0);
    assert!(
        warm_counter(&addr, "alloc_hits") > 0,
        "the sibling campaign reused resident step-one allocations"
    );

    shutdown(&addr, server);
    fs::remove_dir_all(&out).unwrap();
}

/// The LRU bound is real: with room for one resident population, an
/// alternating workload evicts and regenerates, and the counters say so.
#[test]
fn population_lru_eviction_is_counted_over_the_wire() {
    let out = temp_dir("serve-evict");
    let mut cfg = ServerConfig::new(out.join("serve"));
    cfg.fleet = 1;
    cfg.warm_populations = 1;
    let (addr, server) = start_server(cfg);

    submit(&addr, "t", &mini_spec("e-1", 7101));
    submit(&addr, "t", &mini_spec("e-2", 7102)); // evicts seed 7101
    let back = submit(&addr, "t", &mini_spec("e-1b", 7101)); // regenerates
    assert_eq!(back.population, "cold", "evicted population went cold");
    assert!(warm_counter(&addr, "population_evictions") >= 2);
    assert_eq!(warm_counter(&addr, "resident_populations"), 1);

    shutdown(&addr, server);
    fs::remove_dir_all(&out).unwrap();
}

/// The observability surface over real sockets: the `metrics` protocol op
/// and the `GET /metrics` HTTP listener both render the same registry,
/// the document carries scheduler histograms, warm-state gauges (resident
/// bytes included) and server counters, and the scrape counter is
/// monotone across scrapes.
#[test]
fn metrics_are_scrapable_over_protocol_and_http() {
    use std::io::{Read, Write};

    let out = temp_dir("serve-metrics");
    let mut cfg = ServerConfig::new(out.join("serve"));
    cfg.fleet = 1;
    cfg.metrics_addr = Some("127.0.0.1:0".to_string());
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind an ephemeral port");
    let addr = server.local_addr().to_string();
    let http_addr = server
        .metrics_addr()
        .expect("metrics listener bound")
        .to_string();
    let handle = std::thread::spawn(move || server.serve().expect("serve loop"));

    submit(&addr, "t-metrics", &mini_spec("serve-metrics", 7301));

    // The protocol op renders a Prometheus document with series from
    // every instrumented layer that ran in this process.
    let text = Client::connect(&addr)
        .expect("connect")
        .metrics()
        .expect("metrics op");
    for series in [
        "# TYPE rats_mapping_map_seconds histogram",
        "rats_mapping_map_seconds_bucket{le=\"+Inf\"}",
        "rats_mapping_tasks_total",
        "rats_shard_jobs_completed_total",
        "rats_warm_population_resident_bytes",
        "rats_warm_alloc_resident_bytes",
    ] {
        assert!(text.contains(series), "missing `{series}` in:\n{text}");
    }
    // Counters are process-global and other tests in this binary also
    // submit, so assert at-least-one rather than an exact count.
    let submissions: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("rats_serve_submissions_total "))
        .expect("submissions series present")
        .trim()
        .parse()
        .expect("integer submission count");
    assert!(submissions >= 1);

    // The HTTP listener serves the same registry with the Prometheus
    // content type; a second scrape sees a strictly larger scrape count.
    let scrape = |path: &str| -> String {
        let mut stream = TcpStream::connect(&http_addr).expect("connect scrape");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    };
    let scrape_count = |body: &str| -> u64 {
        body.lines()
            .find_map(|l| l.strip_prefix("rats_serve_metrics_scrapes_total "))
            .expect("scrape counter series present")
            .trim()
            .parse()
            .expect("integer scrape count")
    };
    let first = scrape("/metrics");
    assert!(first.starts_with("HTTP/1.1 200 OK\r\n"), "{first}");
    assert!(
        first.contains("Content-Type: text/plain; version=0.0.4"),
        "{first}"
    );
    assert!(first.contains("rats_warm_population_resident_bytes"));
    assert!(first.contains("rats_mapping_map_seconds_sum"));
    let second = scrape("/metrics?ts=1");
    assert!(
        scrape_count(&second) > scrape_count(&first),
        "scrape counter is monotone"
    );
    assert!(
        scrape("/elsewhere").starts_with("HTTP/1.1 404"),
        "unknown paths 404"
    );

    shutdown(&addr, handle);
    fs::remove_dir_all(&out).unwrap();
}

/// Two clients submit different campaigns concurrently over one fleet:
/// streams do not cross-contaminate (every record carries its own
/// campaign's seed), reports match the per-spec batch outcome, and each
/// campaign root's journal segments verify and replay to completion.
#[test]
fn concurrent_submissions_do_not_cross_contaminate() {
    let out = temp_dir("serve-concurrent");
    let serve_out = out.join("serve");
    let mut cfg = ServerConfig::new(&serve_out);
    cfg.fleet = 2;
    let (addr, server) = start_server(cfg);

    let specs = [mini_spec("con-a", 7201), mini_spec("con-b", 7202)];
    let submissions: Vec<(ExperimentSpec, Submission)> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|spec| {
                let addr = addr.clone();
                scope.spawn(move || (spec.clone(), submit(&addr, &spec.name, spec)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (spec, sub) in &submissions {
        let jobs = spec.grid().len();
        assert_eq!(sub.records.len() as u64, jobs);
        for line in &sub.records {
            let record = RunRecord::from_jsonl(line).expect("streamed lines parse");
            assert_eq!(
                record.seed, spec.seed,
                "a record from the other campaign leaked into this stream"
            );
        }
        assert_eq!(sub.report, spec.run().unwrap().render());

        // The durable substrate holds up under concurrency: per-writer
        // journal segments verify (hash chains intact) and replay to a
        // completed campaign.
        let root = campaign_root(Path::new(&serve_out), &spec.normalized());
        let segments = read_journal(&root).expect("journal chains verify");
        assert!(!segments.is_empty());
        let mut replay = Replay::new(&segments);
        let state = replay.run_to_end();
        assert!(state.all_done(), "replayed queue state is complete");
        assert!(state.submissions >= 1, "the submission was journaled");
        assert!(state.merge.is_some(), "the merge was journaled");
    }

    shutdown(&addr, server);
    fs::remove_dir_all(&out).unwrap();
}

/// Cancel and error-path semantics: cancelling a finished campaign does
/// not poison the next submission; unknown campaigns error without
/// killing the connection; a malformed request line gets an `error`
/// response and the connection keeps working; `results` re-streams a
/// finished campaign byte-identically.
#[test]
fn cancel_results_and_protocol_errors_behave() {
    let out = temp_dir("serve-cancel");
    let mut cfg = ServerConfig::new(out.join("serve"));
    cfg.fleet = 1;
    let (addr, server) = start_server(cfg);

    let spec = mini_spec("cx", 7301);
    let first = submit(&addr, "t", &spec);

    // Cancel a finished campaign: acknowledged, and the flag must not
    // leak into the next submission of the same campaign.
    let mut client = Client::connect(&addr).unwrap();
    client.cancel(&first.campaign).expect("cancel acknowledged");
    let again = submit(&addr, "t", &spec);
    assert_eq!(
        (again.executed, again.resumed),
        (0, spec.grid().len()),
        "the stale cancel flag was reset, the resubmission resumed"
    );
    assert_eq!(again.records, first.records);

    // Unknown campaign ids error but leave the connection usable.
    assert!(client.cancel("no-such-hash").is_err());
    assert!(client.status(Some("no-such-hash".into()), 1_000).is_err());

    // Per-campaign status over the wire: the shared serializer reports
    // the finished single-job queue.
    let body = client
        .status(Some(first.campaign.clone()), 30_000)
        .expect("per-campaign status");
    assert_eq!(body.field::<u64>("done").unwrap(), 1);
    assert_eq!(body.field::<u64>("total").unwrap(), 1);
    assert_eq!(body.field::<String>("spec_hash").unwrap(), first.campaign);

    // `results` re-streams the identical bytes from disk.
    let mut streamed = Vec::new();
    let end = client
        .results(&first.campaign, |line| streamed.push(line.to_string()))
        .expect("results stream");
    assert_eq!(streamed, first.records);
    match end {
        SubmitEnd::Done { report, .. } => assert_eq!(report, first.report),
        other => panic!("expected done, got {other:?}"),
    }

    // A malformed line is answered with an `error` response and the
    // connection survives to serve the next request.
    {
        use std::io::{BufRead, BufReader, Write};
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.write_all(b"this is not json\n").unwrap();
        raw.flush().unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("\"error\"") && line.contains("malformed"),
            "got: {line}"
        );
        raw.write_all(b"{\"op\":\"status\"}\n").unwrap();
        raw.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("server-status"),
            "connection still serves after a bad line: {line}"
        );
    }

    // A rejected spec errors without executing anything.
    let mut bad = Client::connect(&addr).unwrap();
    let err = bad
        .submit(
            "t",
            SpecFormat::Toml,
            "name = \"x\"\n",
            |_, _, _, _| {},
            |_| {},
        )
        .expect_err("an invalid spec is rejected");
    assert!(err.to_string().contains("rejected spec"), "got: {err}");

    // Close the long-lived connections before asking the server to stop:
    // `serve()` joins connection threads, which exit on client EOF.
    drop(client);
    drop(bad);
    shutdown(&addr, server);
    fs::remove_dir_all(&out).unwrap();
}

/// An over-long request line is answered with one `error`, then the server
/// closes the connection: the rest of the line never comes back as further
/// errors, and nothing after it is read as a request.
#[test]
fn an_over_long_request_line_gets_one_error_then_eof() {
    use std::io::{BufRead, BufReader, Write};
    let out = temp_dir("serve-long-line");
    let mut cfg = ServerConfig::new(out.join("serve"));
    cfg.fleet = 1;
    let (addr, server) = start_server(cfg);

    let mut raw = TcpStream::connect(&addr).unwrap();
    let chunk = vec![b'x'; 1 << 20];
    let mut left = MAX_LINE_BYTES + 1;
    while left > 0 {
        let n = left.min(chunk.len());
        raw.write_all(&chunk[..n]).unwrap();
        left -= n;
    }
    raw.write_all(b"\n{\"op\":\"status\"}\n").unwrap();
    raw.flush().unwrap();

    let mut reader = BufReader::new(raw);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"error\"") && line.contains("exceeds"),
        "got: {line}"
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "then EOF: {line}");

    drop(reader);
    shutdown(&addr, server);
    fs::remove_dir_all(&out).unwrap();
}

/// The batch tooling understands a served campaign root: `spec.json`,
/// the scenario cache, the queue and the shard files are all in the
/// standard layout.
#[test]
fn served_roots_are_batch_tool_compatible() {
    let out = temp_dir("serve-root");
    let serve_out = out.join("serve");
    let (addr, server) = start_server(ServerConfig::new(&serve_out));

    let spec = mini_spec("root-compat", 7401);
    submit(&addr, "t", &spec);
    let root: PathBuf = campaign_root(Path::new(&serve_out), &spec.normalized());
    assert!(root.join("spec.json").is_file());
    assert!(root.join("scenarios.cache").is_file());
    assert!(root.join("queue").is_dir());
    let status = rats_dispatch::campaign_status(&root, 30_000).expect("status scan");
    assert_eq!(status.queue.done, 1);
    let report = rats_dispatch::replay_check(&root).expect("replay check runs");
    assert!(report.ok(), "journal replay matches the live queue");

    shutdown(&addr, server);
    fs::remove_dir_all(&out).unwrap();
}

/// A server that died holding a campaign's lease leaves a foreign claim
/// file in the queue. Resubmitting the campaign to a new server takes the
/// lease over, journals the reclaim, streams records byte-identical to a
/// batch shard run and a report byte-identical to `spec.run()`, and leaves
/// a journal that replays to the live queue.
#[test]
fn resubmission_takes_over_a_dead_servers_lease() {
    let out = temp_dir("serve-takeover");
    let serve_out = out.join("serve");
    let spec = mini_spec("takeover", 7501);
    let normalized = spec.normalized();
    let root = campaign_root(&serve_out, &normalized);
    let (queue, _) = prepare_root(&root, &normalized, 1, None).unwrap();
    queue
        .claim("serve-dead")
        .unwrap()
        .expect("the only job is claimable");

    let (addr, server) = start_server(ServerConfig::new(&serve_out));
    let sub = submit(&addr, "t", &spec);
    assert_eq!((sub.executed, sub.resumed), (spec.grid().len(), 0));
    assert_eq!(sub.report, spec.run().unwrap().render());
    let batch = out.join("batch");
    let run = run_shard(&spec, &batch, None).unwrap();
    let batch_records: Vec<String> = fs::read_to_string(&run.path)
        .unwrap()
        .lines()
        .skip(1)
        .map(String::from)
        .collect();
    assert_eq!(sub.records, batch_records, "byte-identical record stream");

    let segments = read_journal(&root).expect("journal chains verify");
    let reclaimed = segments.iter().flat_map(|s| &s.records).any(
        |r| matches!(&r.event, Event::LeaseReclaimed { job: 0, worker } if worker == "serve-dead"),
    );
    assert!(reclaimed, "the take-over is journaled");
    let check = rats_dispatch::replay_check(&root).expect("replay check runs");
    assert!(check.ok(), "{check}");
    assert_eq!(check.state.reclaimed, 1);

    shutdown(&addr, server);
    fs::remove_dir_all(&out).unwrap();
}
