//! The paper harness: every artifact renders from the outcome of one spec
//! campaign, and the quick report is pinned byte for byte.

use rats_experiments::artifacts::{paper, Artifact};
use rats_experiments::tuning::sweep_specs;

/// `campaign paper all --quick` as printed before the artifacts moved onto
/// the spec executor. Identical at every thread count.
const GOLDEN: &str = include_str!("golden/paper_quick.txt");

#[test]
fn quick_report_matches_the_golden_file() {
    let report = paper(Artifact::All, true, 2);
    if report != GOLDEN {
        let line = report
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .map_or("a trailing line".to_string(), |i| format!("line {}", i + 1));
        panic!("quick report differs from the golden file at {line}:\n{report}");
    }
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
