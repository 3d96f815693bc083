//! The paper harness: every artifact renders from the outcome of one spec
//! campaign, and the quick report is pinned byte for byte.

use rats_experiments::artifacts::{paper, Artifact};
use rats_experiments::spec::SpecOutcome;
use rats_experiments::tuning::sweep_specs;

/// `campaign paper all --quick` as printed before the artifacts moved onto
/// the spec executor. Identical at every thread count.
const GOLDEN: &str = include_str!("golden/paper_quick.txt");

/// `campaign paper fig2_3 --threads 1` at paper scale: grillon × the 557
/// paper scenarios × the naive strategies (1671 jobs).
const GOLDEN_FIG2_3: &str = include_str!("golden/paper_fig2_3.txt");

/// FNV-1a over the `to_bits()` of every record's `makespan` and `work` in
/// the paper-scale fig2_3 outcome (cluster, strategy, scenario order). The
/// rendered figures round their numbers; this pins the unrounded records.
const RECORDS_FIG2_3: u64 = 0x390a_9551_3701_8e5f;

/// `campaign paper all --threads 2` at paper scale: every table and figure
/// of the report, from one campaign over the three paper clusters, the 557
/// paper scenarios and every sweep strategy.
const GOLDEN_ALL: &str = include_str!("golden/paper_all.txt");

/// [`records_digest`] of the paper-scale `all` outcome.
const RECORDS_ALL: u64 = 0xdd39_c959_c361_5ee3;

/// FNV-1a over the bits of every record's `makespan` and `work`.
fn records_digest(outcome: &SpecOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let runs = outcome
        .clusters
        .iter()
        .flat_map(|c| &c.results)
        .flat_map(|r| &r.runs);
    for run in runs {
        for x in [run.makespan, run.work] {
            for b in x.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Panics with the first differing line if `report` is not `golden`.
fn assert_matches_golden(what: &str, report: &str, golden: &str) {
    if report != golden {
        let line = report
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map_or("a trailing line".to_string(), |i| format!("line {}", i + 1));
        panic!("{what} differs from the golden file at {line}:\n{report}");
    }
}

#[test]
fn quick_report_matches_the_golden_file() {
    assert_matches_golden("quick report", &paper(Artifact::All, true, 2), GOLDEN);
}

/// Every number of these figures sits on step-one allocation, step-two
/// mapping and the simulator at paper scale. The campaign runs once: its
/// rendering must match the golden text and its records the golden
/// digest. Ignored by default: it runs 1671 jobs (about 10 s in a release
/// build, minutes in a debug one); run it with
/// `cargo test --release -p rats-experiments --test paper -- --ignored
/// paper_scale_fig2_3`.
#[test]
#[ignore]
fn paper_scale_fig2_3_matches_the_golden_file() {
    let mut spec = Artifact::Fig2_3
        .spec(false)
        .expect("fig2_3 runs a campaign");
    spec.threads = Some(1);
    let outcome = spec.run().expect("the built-in paper specs are valid");
    assert_matches_golden(
        "paper-scale fig2_3",
        &Artifact::Fig2_3.render(false, 1, Some(&outcome)),
        GOLDEN_FIG2_3,
    );
    let jobs: usize = outcome
        .clusters
        .iter()
        .flat_map(|c| &c.results)
        .map(|r| r.runs.len())
        .sum();
    assert_eq!(jobs, 1671, "grillon × 557 scenarios × 3 naive strategies");
    let digest = records_digest(&outcome);
    assert_eq!(
        digest, RECORDS_FIG2_3,
        "paper-scale fig2_3 records digest {digest:#018x}"
    );
}

/// The whole report at paper scale: its rendering must match the golden
/// text and its records the golden digest. Ignored by default: it runs
/// the report's one campaign (about 90 s in a release build on two
/// threads); run it with `cargo test --release -p rats-experiments --test
/// paper -- --ignored paper_scale_report`.
#[test]
#[ignore]
fn paper_scale_report_matches_the_golden_file() {
    let mut spec = Artifact::All
        .spec(false)
        .expect("the report runs a campaign");
    spec.threads = Some(2);
    let outcome = spec.run().expect("the built-in paper specs are valid");
    assert_matches_golden(
        "paper-scale report",
        &Artifact::All.render(false, 2, Some(&outcome)),
        GOLDEN_ALL,
    );
    let digest = records_digest(&outcome);
    assert_eq!(
        digest, RECORDS_ALL,
        "paper-scale report records digest {digest:#018x}"
    );
}

#[test]
fn artifact_specs_read_ordered_sweep_points_of_the_report_clusters() {
    let sweep = sweep_specs();
    let all = Artifact::All
        .spec(true)
        .expect("the report runs a campaign");
    assert_eq!(all.strategies, sweep, "the report reads the whole sweep");
    for (_, artifact) in Artifact::NAMES {
        let Some(spec) = artifact.spec(true) else {
            continue;
        };
        spec.validate().unwrap();
        // An ordered subsequence: each strategy found after the previous.
        let mut rest = sweep.iter();
        for s in &spec.strategies {
            assert!(
                rest.any(|t| t == s),
                "{}: {s:?} is out of sweep order or not a sweep point",
                artifact.name()
            );
        }
        for c in &spec.clusters {
            assert!(all.clusters.contains(c), "{}: {c}", artifact.name());
        }
    }
}
