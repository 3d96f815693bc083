//! Allocation parity: the incremental [`allocate`] must return exactly the
//! [`Allocation`] of the whole-pass [`reference_allocate`] on every DAG
//! family, area policy, edge-cost setting and cluster size, and its
//! bottom levels must hold the bits of a full pass after every update.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rats_dag::{bottom_levels, critical_path, critical_path_length, TaskGraph, TaskId};
use rats_daggen::{fft_dag, irregular_dag, layered_dag, strassen_dag, DagParams};
use rats_model::{CostParams, TaskCost};
use rats_platform::{ClusterSpec, Platform};

use super::{allocate, reference_allocate, AllocParams, AreaPolicy, BottomLevels};

/// The three paper clusters plus 1- and 2-processor clusters.
fn platforms() -> Vec<Platform> {
    [
        ClusterSpec::chti(),
        ClusterSpec::grillon(),
        ClusterSpec::grelon(),
        ClusterSpec::flat("p1", 1, 3.0),
        ClusterSpec::flat("p2", 2, 3.0),
    ]
    .iter()
    .map(Platform::from_spec)
    .collect()
}

/// Every area policy with and without edge costs on the critical path.
fn all_params() -> Vec<AllocParams> {
    let mut params = Vec::new();
    for policy in [AreaPolicy::CpaClassic, AreaPolicy::Hcpa, AreaPolicy::Mcpa] {
        for cp_includes_comm in [false, true] {
            params.push(AllocParams {
                policy,
                cp_includes_comm,
            });
        }
    }
    params
}

/// Asserts `allocate == reference_allocate` for every parameter set on
/// every platform; returns how many runs granted at least one processor.
fn check_parity(dag: &TaskGraph, label: &str) -> usize {
    let mut granting = 0;
    for platform in platforms() {
        for params in all_params() {
            let fast = allocate(dag, &platform, params);
            let reference = reference_allocate(dag, &platform, params);
            assert_eq!(
                fast,
                reference,
                "{label} on {} with {params:?}",
                platform.name()
            );
            granting += usize::from(fast.as_slice().iter().any(|&p| p > 1));
        }
    }
    granting
}

/// A random DAG of one of the four generated families.
fn random_dag(rng: &mut StdRng) -> (String, TaskGraph) {
    let cost = CostParams::paper();
    let seed = rng.random_range(0..u64::MAX);
    match rng.random_range(0..4u32) {
        0 => {
            let p = DagParams {
                n: rng.random_range(1..=80u32),
                width: rng.random_range(0.1..=1.0),
                regularity: rng.random_range(0.0..=1.0),
                density: rng.random_range(0.0..=1.0),
                jump: rng.random_range(1..=3u32),
            };
            (
                format!("irregular {p:?} seed {seed}"),
                irregular_dag(&p, &cost, seed),
            )
        }
        1 => {
            let p = DagParams::layered(
                rng.random_range(1..=80u32),
                rng.random_range(0.1..=1.0),
                rng.random_range(0.0..=1.0),
                rng.random_range(0.0..=1.0),
            );
            (
                format!("layered {p:?} seed {seed}"),
                layered_dag(&p, &cost, seed),
            )
        }
        2 => {
            let k = 1 << rng.random_range(1..=4u32);
            (format!("fft k={k} seed {seed}"), fft_dag(k, &cost, seed))
        }
        _ => (format!("strassen seed {seed}"), strassen_dag(&cost, seed)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn allocate_matches_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (label, dag) = random_dag(&mut rng);
        check_parity(&dag, &label);
    }

    /// Changes random task times on a DAG with small-integer times and edge
    /// costs, so equal terms and equal bottom levels are common, and
    /// compares the updated levels with a full pass after every change.
    #[test]
    fn bottom_levels_track_a_full_pass(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = DagParams {
            n: rng.random_range(1..=60u32),
            width: rng.random_range(0.1..=1.0),
            regularity: rng.random_range(0.0..=1.0),
            density: rng.random_range(0.0..=1.0),
            jump: rng.random_range(1..=3u32),
        };
        let mut dag = irregular_dag(&p, &CostParams::paper(), seed);
        for e in dag.edge_ids().collect::<Vec<_>>() {
            dag.set_edge_bytes(e, f64::from(rng.random_range(0..3u32)));
        }
        let mut times: Vec<f64> = (0..dag.num_tasks())
            .map(|_| f64::from(rng.random_range(0..5u32)))
            .collect();
        let comm = rng.random_bool(0.5);
        let cost = move |bytes: f64| if comm { bytes } else { 0.0 };
        let mut levels = BottomLevels::new(&dag, &times, cost);
        for _ in 0..40 {
            let i = rng.random_range(0..dag.num_tasks());
            times[i] = f64::from(rng.random_range(0..5u32));
            levels.update(i, &times);
            let full = bottom_levels(&dag, &times, |_, b| cost(b));
            for (t, (a, b)) in levels.bl.iter().zip(&full).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "bl of task {} ({:?})", t, p);
            }
            prop_assert_eq!(
                levels.critical_path_length().to_bits(),
                critical_path_length(&dag, &times, |_, b| cost(b)).to_bits()
            );
            prop_assert_eq!(
                levels.critical_path().collect::<Vec<_>>(),
                critical_path(&dag, &times, |_, b| cost(b))
            );
        }
    }
}

/// `k` equal chains of `len` tasks between a zero-cost entry and exit:
/// every chain is critical, so every step breaks ties among equal entries
/// of the path walk's successor choice.
fn parallel_chains(k: usize, len: usize, cost: TaskCost) -> TaskGraph {
    let mut g = TaskGraph::new();
    let entry = g.add_task("in", TaskCost::zero());
    let exit = g.add_task("out", TaskCost::zero());
    for c in 0..k {
        let mut prev = entry;
        for j in 0..len {
            let t = g.add_task(format!("c{c}.{j}"), cost);
            g.add_edge(prev, t, 8e6);
            prev = t;
        }
        g.add_edge(prev, exit, 8e6);
    }
    g
}

#[test]
fn equal_parallel_chains() {
    let cost = TaskCost::new(50_000_000, 256.0, 0.05);
    for (k, len) in [(2, 1), (2, 3), (4, 2), (8, 4)] {
        let dag = parallel_chains(k, len, cost);
        let granting = check_parity(&dag, &format!("{k} chains of {len}"));
        assert!(
            granting > 0,
            "{k} chains of {len}: no run granted a processor"
        );
    }
}

#[test]
fn zero_cost_tasks() {
    // Zero-cost tasks interleaved with real ones: their bottom levels equal
    // their tails, and a zero-time task gains nothing from a processor.
    let mut g = TaskGraph::new();
    let heavy = TaskCost::new(80_000_000, 200.0, 0.02);
    let mut prev: Option<TaskId> = None;
    for i in 0..6 {
        let cost = if i % 2 == 0 { TaskCost::zero() } else { heavy };
        let t = g.add_task(format!("t{i}"), cost);
        if let Some(p) = prev {
            g.add_edge(p, t, 1e6);
        }
        prev = Some(t);
    }
    let side = g.add_task("side", TaskCost::zero());
    g.add_edge(TaskId::from_index(0), side, 0.0);
    g.add_edge(side, TaskId::from_index(5), 0.0);
    assert!(check_parity(&g, "zero-cost chain") > 0);
    // All tasks zero-cost: C∞ = W = 0 at once.
    let mut all_zero = TaskGraph::new();
    let a = all_zero.add_task("a", TaskCost::zero());
    let b = all_zero.add_task("b", TaskCost::zero());
    all_zero.add_edge(a, b, 1e6);
    check_parity(&all_zero, "all zero-cost");
}

#[test]
fn equal_bottom_level_entries() {
    // Several identical entries feeding one task, plus identical
    // independent tasks: the walk must start at the lowest equal entry
    // every step, as grants change which entries tie.
    let cost = TaskCost::new(60_000_000, 300.0, 0.03);
    let mut g = TaskGraph::new();
    let sink = g.add_task("sink", cost);
    for i in 0..5 {
        let t = g.add_task(format!("src{i}"), cost);
        g.add_edge(t, sink, 4e6);
    }
    for i in 0..3 {
        g.add_task(format!("alone{i}"), cost);
    }
    assert!(check_parity(&g, "equal entries") > 0);
    // Independent identical tasks only: every one is an entry and an exit.
    let mut flat = TaskGraph::new();
    for i in 0..6 {
        flat.add_task(format!("t{i}"), cost);
    }
    check_parity(&flat, "independent equals");
}

#[test]
fn paper_scale_irregular_parity() {
    // One large_dag_sweep-like irregular DAG, big enough that a step
    // changes only part of the levels and the skip test does real work.
    let p = DagParams {
        n: 400,
        width: 0.5,
        regularity: 0.5,
        density: 0.5,
        jump: 2,
    };
    let dag = irregular_dag(&p, &CostParams::paper(), 0x5eed);
    let platform = Platform::from_spec(&ClusterSpec::grillon());
    for params in all_params() {
        assert_eq!(
            allocate(&dag, &platform, params),
            reference_allocate(&dag, &platform, params),
            "irregular n=400 with {params:?}"
        );
    }
}
