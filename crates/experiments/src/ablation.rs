//! Quality ablations of the scheduler's design choices: mapping strategies
//! against candidate policies on a shared allocation (A), and allocation
//! policies under time-cost mapping (B). They measure **schedule
//! quality**, not speed: how each alternative moves the simulated makespan
//! across a scenario suite. `campaign paper ablation` prints them.

use rats_platform::Platform;
use rats_sched::{allocate, AllocParams, AreaPolicy, CandidatePolicy, MappingStrategy, Scheduler};
use rats_sim::simulate;

use crate::campaign::PreparedScenario;
use crate::runner::parallel_map;
use crate::stats;

/// Mean relative makespan + win fraction of an algorithm against a
/// scenario-aligned baseline.
fn summary_line(name: &str, makespans: &[f64], base: &[f64]) -> String {
    let rel = stats::relative(makespans, base);
    let s = stats::summarize(&rel);
    format!(
        "  {name:<22} mean {:.4} ({:+.1} %), better in {:.1} %\n",
        s.mean_ratio,
        (s.mean_ratio - 1.0) * 100.0,
        s.wins * 100.0
    )
}

/// Ablation A — mapping strategies and candidate policies, on a shared HCPA
/// allocation. Shows how much of RATS's win a merely *stronger baseline
/// placement* (parent-aware candidate search) would capture, and where the
/// combined extension lands.
pub fn mapping_ablation(
    prepared: &[PreparedScenario],
    platform: &Platform,
    threads: usize,
) -> String {
    let evaluate = |strategy: MappingStrategy, candidates: CandidatePolicy| -> Vec<f64> {
        parallel_map(prepared, threads, |_, p| {
            let schedule = Scheduler::new(platform)
                .strategy(strategy)
                .candidate_policy(candidates)
                .schedule_with_allocation(&p.scenario.dag, &p.alloc);
            simulate(&p.scenario.dag, &schedule, platform).makespan
        })
    };
    let base = evaluate(MappingStrategy::Hcpa, CandidatePolicy::EarliestK);
    let mut out = format!(
        "# Ablation A — mapping strategies vs HCPA/earliest-k on {} ({} scenarios)\n",
        platform.name(),
        prepared.len()
    );
    for (name, strategy, candidates) in [
        (
            "HCPA parent-aware",
            MappingStrategy::Hcpa,
            CandidatePolicy::ParentAware,
        ),
        (
            "delta (0.5, 0.5)",
            MappingStrategy::rats_delta(0.5, 0.5),
            CandidatePolicy::EarliestK,
        ),
        (
            "time-cost (0.5, pack)",
            MappingStrategy::rats_time_cost(0.5, true),
            CandidatePolicy::EarliestK,
        ),
        (
            "combined (.5, 1, .4)",
            MappingStrategy::rats_combined(0.5, 1.0, 0.4),
            CandidatePolicy::EarliestK,
        ),
    ] {
        let m = evaluate(strategy, candidates);
        out.push_str(&summary_line(name, &m, &base));
    }
    out
}

/// Ablation B — allocation-step policies (area definition and the
/// communication-inclusive critical path), all evaluated under the
/// time-cost mapping.
pub fn allocation_ablation(
    prepared: &[PreparedScenario],
    platform: &Platform,
    threads: usize,
) -> String {
    let evaluate = |params: AllocParams| -> Vec<f64> {
        parallel_map(prepared, threads, |_, p| {
            let alloc = allocate(&p.scenario.dag, platform, params);
            let schedule = Scheduler::new(platform)
                .strategy(MappingStrategy::rats_time_cost(0.5, true))
                .schedule_with_allocation(&p.scenario.dag, &alloc);
            simulate(&p.scenario.dag, &schedule, platform).makespan
        })
    };
    let base = evaluate(AllocParams::default());
    let mut out = format!(
        "# Ablation B — allocation policies (time-cost mapping) on {} ({} scenarios)\n",
        platform.name(),
        prepared.len()
    );
    for (name, params) in [
        (
            "CPA classic area",
            AllocParams {
                policy: AreaPolicy::CpaClassic,
                ..AllocParams::default()
            },
        ),
        (
            "MCPA level cap",
            AllocParams {
                policy: AreaPolicy::Mcpa,
                ..AllocParams::default()
            },
        ),
        (
            "comm-inclusive C-inf",
            AllocParams {
                policy: AreaPolicy::Hcpa,
                cp_includes_comm: true,
            },
        ),
    ] {
        let m = evaluate(params);
        out.push_str(&summary_line(name, &m, &base));
    }
    out
}

/// Both ablations on one platform.
pub fn run(prepared: &[PreparedScenario], platform: &Platform, threads: usize) -> String {
    let mut out = mapping_ablation(prepared, platform, threads);
    out.push('\n');
    out.push_str(&allocation_ablation(prepared, platform, threads));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rats_daggen::suite::mini_suite;
    use rats_model::CostParams;
    use rats_platform::ClusterSpec;

    #[test]
    fn ablation_report_smoke() {
        let platform = Platform::from_spec(&ClusterSpec::chti());
        let prepared = PreparedScenario::prepare(mini_suite(&CostParams::tiny(), 13), &platform, 2);
        let report = run(&prepared, &platform, 2);
        assert!(report.contains("Ablation A"));
        assert!(report.contains("Ablation B"));
        assert!(report.contains("combined"));
        assert!(report.contains("MCPA"));
    }
}
