//! Bit-level golden for the simulator.
//!
//! Every output bit of [`simulate`] on a fixed set of jobs is folded into one
//! FNV-1a digest: the mini suite on the three paper clusters plus a star and
//! a bus platform, under five mapping strategies, and the paper-suite FFT
//! scenario whose transfer completion coincides with a task finish. A change
//! that moves any makespan, task or edge time, or byte count by one ulp
//! fails here. Only a change that deliberately alters the simulator's
//! arithmetic may update [`GOLDEN`], and it must say so.

use rats_daggen::{fft_dag, suite};
use rats_model::CostParams;
use rats_platform::{ClusterSpec, LinkSpec, Platform};
use rats_sched::{MappingStrategy, Scheduler};
use rats_sim::{simulate, SimOutcome};

/// Digest of every job's outcome, in the order [`jobs_digest`] runs them.
const GOLDEN: u64 = 0x912e_c248_4166_8a15;

/// Base seed of the paper suite.
const SEED: u64 = 20080929;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn f64(&mut self, x: f64) {
        for b in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn outcome(&mut self, out: &SimOutcome) {
        self.f64(out.makespan);
        out.task_start.iter().for_each(|&x| self.f64(x));
        out.task_finish.iter().for_each(|&x| self.f64(x));
        for e in &out.edge_stats {
            self.f64(e.start);
            self.f64(e.finish);
            self.f64(e.network_bytes);
        }
        self.f64(out.network_bytes);
        self.f64(out.self_bytes);
        self.f64(out.total_work);
    }
}

fn platforms() -> Vec<Platform> {
    let hub = LinkSpec {
        latency_s: 100e-6,
        bandwidth_bps: 250e6,
    };
    [
        ClusterSpec::chti(),
        ClusterSpec::grillon(),
        ClusterSpec::grelon(),
        ClusterSpec::star("star", 32, 3.379, hub),
        ClusterSpec::bus("bus", 16, 3.379, LinkSpec::gigabit()),
    ]
    .iter()
    .map(Platform::from_spec)
    .collect()
}

fn strategies() -> [MappingStrategy; 5] {
    [
        MappingStrategy::Hcpa,
        MappingStrategy::rats_delta(0.5, 0.5),
        MappingStrategy::rats_time_cost(0.5, true),
        MappingStrategy::rats_time_cost(0.8, true),
        MappingStrategy::rats_combined(0.5, 1.0, 0.4),
    ]
}

/// Runs every golden job and returns (job count, digest).
fn jobs_digest() -> (usize, u64) {
    let mut fnv = Fnv::new();
    let mut jobs = 0;
    let mini = suite::mini_suite(&CostParams::paper(), SEED);
    for p in platforms() {
        for scenario in &mini {
            for strategy in strategies() {
                let sched = Scheduler::new(&p)
                    .strategy(strategy)
                    .schedule(&scenario.dag);
                fnv.outcome(&simulate(&scenario.dag, &sched, &p));
                jobs += 1;
            }
        }
    }
    // Paper scenario 523 (FFT, k = 16) on grillon under time-cost(0.8,
    // packing): a transfer ends within the network's completion tolerance
    // of a task finish.
    let dag = fft_dag(16, &CostParams::paper(), suite::scenario_seed(SEED, 523));
    let p = Platform::from_spec(&ClusterSpec::grillon());
    let sched = Scheduler::new(&p)
        .strategy(MappingStrategy::rats_time_cost(0.8, true))
        .schedule(&dag);
    fnv.outcome(&simulate(&dag, &sched, &p));
    (jobs + 1, fnv.0)
}

#[test]
fn simulator_output_matches_the_golden_digest() {
    let (jobs, digest) = jobs_digest();
    assert_eq!(jobs, 5 * 9 * 5 + 1);
    assert_eq!(
        digest, GOLDEN,
        "simulator output moved: digest {digest:#018x} over {jobs} jobs"
    );
}

#[test]
fn golden_holds_with_telemetry_on() {
    rats_telemetry::set_enabled(true);
    let solves = rats_sim::telemetry::SOLVES.get();
    let (_, digest) = jobs_digest();
    assert_eq!(digest, GOLDEN, "telemetry moved the simulator output");
    assert!(rats_sim::telemetry::SOLVES.get() > solves);
}
