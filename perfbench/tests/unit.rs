//! Unit tests of the benchmark's statistics, seed stream, digest, span
//! accounting and compare verdicts, plus a smoke-scale run of every
//! workload that checks the printed metrics against `BENCHMARK.json`. A
//! traced run fails when its workload leaves one of its `LAYERS`
//! unmeasured, so the smoke run also checks those.

use std::time::Duration;

use rats_perfbench::common::{Checks, Values};
use rats_perfbench::compare::{verdict, Verdict};
use rats_perfbench::stats::{
    digest, median, percentile, quartiles, relative_spread, reportable_percentile, SeedStream,
};
use rats_perfbench::trace::{self, Recorder, SpanRecord};
use rats_perfbench::{run, Options, Outcome, Scale, WORKLOADS};

#[test]
fn reportable_percentile_leaves_ten_samples_beyond_it() {
    assert_eq!(reportable_percentile(9), None);
    assert_eq!(reportable_percentile(19), None);
    assert_eq!(reportable_percentile(20), Some(50.0));
    assert_eq!(reportable_percentile(40), Some(75.0));
    assert_eq!(reportable_percentile(100), Some(90.0));
    assert_eq!(reportable_percentile(199), Some(90.0));
    assert_eq!(reportable_percentile(200), Some(95.0));
    assert_eq!(reportable_percentile(1000), Some(99.0));
    assert_eq!(reportable_percentile(10_000), Some(99.9));
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 90.0), 90.0);
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    assert_eq!(percentile(&[7.0], 90.0), 7.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
    // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[9.0]), 9.0);
    assert_eq!(relative_spread(&ten), (8.25 - 2.75) / 5.5);
}

#[test]
fn seed_stream_is_deterministic_and_fits_i64() {
    let draw = |seed| {
        let mut s = SeedStream::new(seed);
        (0..64).map(|_| s.next_seed()).collect::<Vec<_>>()
    };
    assert_eq!(draw(7), draw(7));
    assert_ne!(draw(7), draw(8));
    assert!(draw(7).iter().all(|&x| x <= i64::MAX as u64));
    let distinct: std::collections::HashSet<u64> = draw(7).into_iter().collect();
    assert_eq!(distinct.len(), 64);
}

#[test]
fn digest_is_fnv1a_over_bit_patterns_in_order() {
    assert_eq!(digest([]), "cbf29ce484222325");
    assert_eq!(digest([1.5, 2.0]), digest([1.5, 2.0]));
    assert_ne!(digest([1.5, 2.0]), digest([2.0, 1.5]));
    // Bit patterns, not values: the two zeros differ.
    assert_ne!(digest([0.0]), digest([-0.0]));
}

fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> SpanRecord {
    SpanRecord {
        name: name.into(),
        start,
        end,
        parent,
        op: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_child_intervals() {
    let spans = vec![
        span("chunk", 0.0, 10.0, None),
        // Two parallel children overlapping on [2, 3]; one spills past
        // the parent's end.
        span("job", 1.0, 3.0, Some(0)),
        span("job", 2.0, 5.0, Some(0)),
        span("job", 9.0, 12.0, Some(0)),
        span("sim", 2.0, 2.5, Some(1)),
    ];
    let own = trace::self_times(&spans);
    assert_eq!(own[0], 10.0 - 4.0 - 1.0);
    assert_eq!(own[1], 1.5);
    assert_eq!(own[4], 0.5);
    let totals = trace::totals(&spans);
    assert_eq!(totals["job"].count, 3);
    assert_eq!(totals["job"].total_s, 2.0 + 3.0 + 3.0);
    assert_eq!(trace::top_level_s(&spans), 10.0);
}

#[test]
fn recorder_nests_spans_and_writes_json() {
    let rec = Recorder::new();
    {
        let outer = rec.open("outer", None, 3);
        let _inner = rec.open("inner", Some(outer.id()), 3);
    }
    let spans = rec.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans.iter().all(|s| s.end >= s.start && s.op == 3));
    let json = rec.to_json();
    assert!(json.starts_with('[') && json.contains("\"inner\""));
}

#[test]
fn verdicts_follow_bounds_and_the_pairs_rule() {
    let base = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
    ];
    let same = base.map(|x| x + 0.05);
    assert_eq!(verdict(&base, &same, true, 0.1, true), Verdict::Unchanged);
    let faster = base.map(|x| x * 0.8);
    assert_eq!(verdict(&base, &faster, true, 0.1, true), Verdict::Improved);
    assert_eq!(verdict(&base, &faster, false, 0.1, true), Verdict::Regressed);
    let noisy = [
        50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
    ];
    assert_eq!(verdict(&base, &noisy, true, 0.1, true), Verdict::Unresolved);
    // Judged by the medians alone.
    assert_eq!(verdict(&base, &noisy, true, 0.1, false), Verdict::Unchanged);
}

#[test]
fn outcome_rejects_a_layer_the_workload_left_unmeasured() {
    let checks = Checks {
        attempted: 1,
        failed: 0,
    };
    let mut values = Values::new();
    values.insert("sim.simulate_s", 0.5);
    let outcome = Outcome::new(&checks, &values, true, &["sim.simulate_s"]).unwrap();
    let read = |name: &str| outcome.metrics.iter().find(|m| m.0 == name).unwrap().1;
    assert_eq!(read("sim.simulate_s"), 0.5);
    // Outside the workload's layers, a metric reads 0.
    assert_eq!(read("sched.alloc_s"), 0.0);
    assert!(Outcome::new(&checks, &values, true, &["sched.alloc_s"]).is_err());
    values.insert("sched.alloc_s", f64::NAN);
    assert!(Outcome::new(&checks, &values, true, &["sched.alloc_s"]).is_err());
    assert!(Outcome::new(&checks, &values, false, &[]).is_err());
}

/// Every metric named in `BENCHMARK.json` for the mode, with its unit.
fn declared(trace: bool) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let key = if trace { "per_layer" } else { "end_to_end" };
    let list: Vec<serde::Value> = doc.field(key).expect("metric list");
    list.iter()
        .map(|m| (m.field("name").unwrap(), m.field("unit").unwrap()))
        .collect()
}

#[test]
fn smoke_run_of_every_workload_prints_every_declared_metric() {
    let out_root = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&out_root).unwrap();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = Options {
                workload: workload.to_string(),
                seed: 5,
                seconds: Duration::ZERO,
                trace,
                scale: Scale::Smoke,
                out_root: out_root.clone(),
            };
            let outcome = run(&opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(outcome.correct, "{workload} trace={trace}: {outcome:?}");
            assert!(outcome.attempted > 0 && outcome.failed == 0);
            let printed: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|(n, _, u)| (n.clone(), u.clone()))
                .collect();
            assert_eq!(printed, declared(trace), "{workload} trace={trace}");
            if !trace {
                assert!(
                    outcome.metrics.iter().all(|(_, v, _)| *v > 0.0),
                    "{workload}: an end-to-end metric read 0: {outcome:?}"
                );
            }
            let line = outcome.to_json();
            let doc: serde::Value = serde_json::from_str(&line).unwrap();
            for key in ["correct", "attempted", "failed", "metrics"] {
                assert!(doc.get(key).is_some(), "{key} missing from {line}");
            }
        }
    }
}
