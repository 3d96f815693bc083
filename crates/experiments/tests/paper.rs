//! The paper harness: every artifact renders from the outcome of one spec
//! campaign, and the quick report is pinned byte for byte.

use rats_experiments::artifacts::{paper, Artifact};
use rats_experiments::tuning::sweep_specs;

/// `campaign paper all --quick` as printed before the artifacts moved onto
/// the spec executor. Identical at every thread count.
const GOLDEN: &str = include_str!("golden/paper_quick.txt");

/// `campaign paper fig2_3 --threads 1` at paper scale: grillon × the 557
/// paper scenarios × the naive strategies (1671 jobs).
const GOLDEN_FIG2_3: &str = include_str!("golden/paper_fig2_3.txt");

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
/// mapping and the simulator at paper scale. Ignored by default: it runs
/// 1671 jobs (about 10 s in a release build, minutes in a debug one); run
/// it with `cargo test --release -p rats-experiments --test paper --
/// --ignored`.
#[test]
#[ignore]
fn paper_scale_fig2_3_matches_the_golden_file() {
    assert_matches_golden(
        "paper-scale fig2_3",
        &paper(Artifact::Fig2_3, false, 1),
        GOLDEN_FIG2_3,
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
