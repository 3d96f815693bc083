//! CLI coverage for the service subcommands: the exit-2 usage convention
//! extended to `serve`/`client`, `status --json`, and a full binary
//! end-to-end session over real TCP (serve → submit → stream → status →
//! replay-check → shutdown).

#[allow(dead_code)]
mod common;

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

use common::temp_dir;
use rats_experiments::record::RunRecord;
use rats_experiments::spec::{ExperimentSpec, SuiteSpec};
use serde::Value;

fn campaign_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_campaign"))
}

fn mini_spec(name: &str, seed: u64) -> ExperimentSpec {
    ExperimentSpec::naive(name, "grillon", SuiteSpec::Mini, seed)
}

/// Usage errors exit 2 with usage text; operational failures exit 1. The
/// serve/client subcommands follow the same convention as the rest of the
/// CLI.
#[test]
fn serve_and_client_usage_errors_exit_2() {
    let cases: &[&[&str]] = &[
        &["serve", "--addr", "not-an-address"],
        &["serve", "--bogus"],
        &["client", "submit", "spec.toml", "--addr", "no-port-here"],
        &["client", "frobnicate"],
        &["client"],
        &["client", "cancel", "one", "two"],
        &["client", "submit", "spec.toml", "--bogus"],
    ];
    for args in cases {
        let output = Command::new(campaign_exe()).args(*args).output().unwrap();
        assert_eq!(
            output.status.code(),
            Some(2),
            "expected usage exit for {args:?}, stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }

    // The usage text advertises the service subcommands.
    let output = Command::new(campaign_exe())
        .arg("frobnicate")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("campaign serve"), "{stderr}");
    assert!(stderr.contains("campaign client submit"), "{stderr}");

    // A malformed --addr is a usage error even though the op is valid.
    let output = Command::new(campaign_exe())
        .args(["client", "shutdown", "--addr", "no-port-here"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("--addr expects HOST:PORT"),
        "stderr names the expected shape"
    );

    // ...while a refused connection to a well-formed address is
    // operational: exit 1, not 2.
    let output = Command::new(campaign_exe())
        .args(["client", "shutdown", "--addr", "127.0.0.1:1"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
}

/// `campaign paper` prints an artifact exactly as the library renders it,
/// and malformed requests follow the exit-2 usage convention.
#[test]
fn paper_prints_artifacts_and_rejects_unknown_ones() {
    use rats_experiments::artifacts::{paper, Artifact};
    let output = Command::new(campaign_exe())
        .args(["paper", "table2"])
        .output()
        .unwrap();
    assert!(output.status.success());
    assert_eq!(
        String::from_utf8(output.stdout).unwrap(),
        paper(Artifact::Table2, false, 1)
    );
    let cases: &[&[&str]] = &[
        &["paper"],
        &["paper", "table7"],
        &["paper", "fig4", "fig5"],
        &["paper", "table4", "--thin", "2"],
    ];
    for args in cases {
        let output = Command::new(campaign_exe()).args(*args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("campaign paper"),
            "{args:?} printed no usage"
        );
    }
}

/// The observability CLI through the real binary: `campaign profile`
/// prints the report followed by the phase table, and `campaign run
/// --metrics-out` dumps the registry as parseable JSON with the shard
/// engine's series populated.
#[test]
fn profile_and_metrics_out_through_the_binary() {
    let out = temp_dir("cli-profile");
    let spec = mini_spec("cli-profile", 7601);
    let spec_path = out.join("spec.toml");
    fs::write(&spec_path, spec.to_toml()).unwrap();

    let profile = Command::new(campaign_exe())
        .arg("profile")
        .arg(&spec_path)
        .args(["--threads", "2"])
        .output()
        .unwrap();
    assert!(
        profile.status.success(),
        "{}",
        String::from_utf8_lossy(&profile.stderr)
    );
    let stdout = String::from_utf8_lossy(&profile.stdout);
    assert!(
        stdout.contains(&spec.run().unwrap().render()),
        "profile still prints the full report:\n{stdout}"
    );
    for needle in [
        "profile: wall ",
        "rats_mapping_map_seconds",
        "rats_mapping_alloc_seconds",
        "rats_mapping_alloc_steps_total",
        "rats_mapping_argmin_updates_total",
        "rats_sim_simulate_seconds",
        "rats_sim_maxmin_solves_total",
        "rats_sim_flow_steps_total",
        "hit rates:",
        "simulations shared",
        "flows per event",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}`:\n{stdout}");
    }

    let metrics_path = out.join("metrics.json");
    let run = Command::new(campaign_exe())
        .arg("run")
        .arg(&spec_path)
        .args(["--threads", "2", "--out"])
        .arg(out.join("shards"))
        .arg("--metrics-out")
        .arg(&metrics_path)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let doc: Value = serde_json::from_str(&fs::read_to_string(&metrics_path).unwrap())
        .expect("--metrics-out writes parseable JSON");
    let counters = doc.get("counters").expect("counters section");
    assert_eq!(
        counters
            .field::<u64>("rats_shard_jobs_completed_total")
            .unwrap(),
        1,
        "the shard engine's counters are populated"
    );
    assert!(
        counters.field::<u64>("rats_mapping_runs_total").unwrap() > 0,
        "scheduling counters ride along"
    );
    assert!(
        counters.field::<u64>("rats_sim_events_total").unwrap() > 0,
        "simulator counters ride along"
    );
    doc.get("histograms")
        .and_then(|h| h.get("rats_shard_job_seconds"))
        .expect("shard phase histogram present");

    fs::remove_dir_all(&out).unwrap();
}

/// The full service loop through the real binary: background `campaign
/// serve` on an ephemeral port, a client submission streaming records to a
/// file, `status --json` over the materialized root, `replay --check`, a
/// warm resubmission, and a clean shutdown.
#[test]
fn binary_end_to_end_session_over_tcp() {
    let out = temp_dir("cli-e2e");
    let spec = mini_spec("cli-e2e", 7501);
    let spec_path = out.join("spec.toml");
    fs::write(&spec_path, spec.to_toml()).unwrap();
    let reference = spec.run().unwrap();

    let mut server = Command::new(campaign_exe())
        .args(["serve", "--addr", "127.0.0.1:0", "--fleet", "2", "--out"])
        .arg(out.join("serve"))
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    // The ready line carries the actually-bound address.
    let mut ready = String::new();
    BufReader::new(server.stdout.take().unwrap())
        .read_line(&mut ready)
        .unwrap();
    let addr = ready
        .split("serving on ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in ready line: {ready:?}"))
        .to_string();

    // Submit: report on stdout, streamed records in the --records file,
    // progress lines (with the campaign root) on stderr.
    let records_path = out.join("records.jsonl");
    let submit = |tag: &str| {
        Command::new(campaign_exe())
            .args(["client", "submit"])
            .arg(&spec_path)
            .args(["--addr", &addr, "--name", tag, "--records"])
            .arg(&records_path)
            .output()
            .unwrap()
    };
    let cold = submit("smoke-cold");
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&cold.stdout),
        reference.render(),
        "served report is byte-identical to the in-process run"
    );
    let cold_records = fs::read_to_string(&records_path).unwrap();
    assert_eq!(cold_records.lines().count() as u64, spec.grid().len());
    for line in cold_records.lines() {
        RunRecord::from_jsonl(line).expect("streamed record lines parse");
    }
    let stderr = String::from_utf8_lossy(&cold.stderr);
    let root = stderr
        .lines()
        .find_map(|l| l.split(") at ").nth(1))
        .expect("accepted line names the campaign root")
        .trim()
        .to_string();

    // The shared status serializer speaks JSON over the served root.
    let status = Command::new(campaign_exe())
        .args(["status", &root, "--json"])
        .output()
        .unwrap();
    assert!(status.status.success());
    let body: Value = serde_json::from_str(&String::from_utf8_lossy(&status.stdout))
        .expect("status --json emits parseable JSON");
    assert_eq!(body.field::<u64>("done").unwrap(), 1);
    assert_eq!(body.field::<u64>("total").unwrap(), 1);
    assert_eq!(body.field::<String>("suite").unwrap(), "mini");

    // The journal the server wrote replays clean against its live queue.
    let replay = Command::new(campaign_exe())
        .args(["replay", &root, "--check"])
        .output()
        .unwrap();
    assert!(
        replay.status.success(),
        "replay --check: {}",
        String::from_utf8_lossy(&replay.stderr)
    );

    // Warm resubmission: same bytes, nothing re-executed.
    let warm = submit("smoke-warm");
    assert!(warm.status.success());
    assert_eq!(String::from_utf8_lossy(&warm.stdout), reference.render());
    assert_eq!(fs::read_to_string(&records_path).unwrap(), cold_records);
    let warm_stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_stderr.contains("0 executed") && warm_stderr.contains("population warm"),
        "warm resubmission resumes from disk: {warm_stderr}"
    );

    let bye = Command::new(campaign_exe())
        .args(["client", "shutdown", "--addr", &addr])
        .output()
        .unwrap();
    assert!(bye.status.success());
    let code = server.wait().unwrap();
    assert!(code.success(), "serve exits 0 after a shutdown request");

    fs::remove_dir_all(&out).unwrap();
}
