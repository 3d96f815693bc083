//! Before/after cost of step-one allocation (CPA/HCPA), the largest layer
//! of a large-DAG sweep.
//!
//! Times the incremental [`allocate`] against the retained whole-pass
//! [`reference_allocate`] (`reference` feature) **in the same run**, on the
//! irregular n=2000 and n=5000 DAGs of perfbench's `large_dag_sweep` (DAG
//! set 0) on grillon, counts the processors granted and the heap operations
//! of the grant steps, and writes the numbers to `BENCH_alloc.json` at the
//! workspace root.
//!
//! Run modes:
//!
//! * `cargo bench -p rats-bench --bench allocation` — measure and write
//!   `BENCH_alloc.json`;
//! * `… -- --check` — regression gate: fails (exit 1) if the in-run
//!   speedup on the n=2000 DAG falls below [`SPEEDUP_FLOOR`] or a grant
//!   step touches the heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rats_dag::TaskGraph;
use rats_daggen::{irregular_dag, scenario_seed, DagParams};
use rats_model::CostParams;
use rats_platform::{ClusterSpec, Platform};
use rats_sched::telemetry::ALLOC_STEPS;
use rats_sched::{allocate, reference_allocate, AllocParams, Allocation};

/// Heap-op counting allocator: every `alloc`/`realloc` bumps a counter, so
/// the bench can report the heap operations of the grant steps.
struct CountingAlloc;

static HEAP_OPS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Minimum reference/incremental time ratio on the n=2000 DAG for
/// `--check`: about half the median speedup measured when the gate was set
/// (see `BENCH_alloc.json`), so a noisy runner passes but an allocation
/// loop that loses most of its lead does not.
const SPEEDUP_FLOOR: f64 = 1.7;

/// Task count of the DAG the gate judges.
const GATE_TASKS: u32 = 2000;

/// The irregular DAG of `large_dag_sweep` DAG set 0 with `n` tasks (its
/// generator index in the set is 0 for n=2000 and 1 for n=5000).
fn sweep_dag(n: u32) -> TaskGraph {
    let params = DagParams {
        n,
        width: 0.5,
        regularity: 0.5,
        density: 0.5,
        jump: 2,
    };
    let index = usize::from(n != 2000);
    irregular_dag(
        &params,
        &CostParams::paper(),
        scenario_seed(0x5eed_0000, index),
    )
}

/// Heap operations of one `allocate` call, and the processors it granted.
fn heap_ops(dag: &TaskGraph, platform: &Platform) -> (u64, u64) {
    let (ops, steps) = (HEAP_OPS.load(Ordering::Relaxed), ALLOC_STEPS.get());
    black_box(allocate(dag, platform, AllocParams::default()));
    (
        HEAP_OPS.load(Ordering::Relaxed) - ops,
        ALLOC_STEPS.get() - steps,
    )
}

/// Mean seconds per call of `reference` and `incremental`, timed in
/// alternating batches of at least 20 ms each: returns the best batch of
/// each and the median per-pair time ratio (reference / incremental), so
/// load that hits one pair of batches moves neither.
fn time_pair(
    mut reference: impl FnMut() -> Allocation,
    mut incremental: impl FnMut() -> Allocation,
) -> (f64, f64, f64) {
    let calls = |run: &mut dyn FnMut() -> Allocation| {
        let start = Instant::now();
        let mut calls = 0u32;
        while start.elapsed().as_secs_f64() < 0.02 {
            black_box(run());
            calls += 1;
        }
        calls
    };
    let batch = |run: &mut dyn FnMut() -> Allocation, calls: u32| {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(run());
        }
        start.elapsed().as_secs_f64() / f64::from(calls)
    };
    let (ref_calls, inc_calls) = (calls(&mut reference), calls(&mut incremental));
    let (mut best_ref, mut best_inc) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::new();
    for _ in 0..9 {
        let r = batch(&mut reference, ref_calls);
        let s = batch(&mut incremental, inc_calls);
        best_ref = best_ref.min(r);
        best_inc = best_inc.min(s);
        ratios.push(r / s);
    }
    ratios.sort_by(f64::total_cmp);
    (best_ref, best_inc, ratios[ratios.len() / 2])
}

struct Measurement {
    tasks: usize,
    edges: usize,
    /// Processors granted by one call.
    steps: u64,
    reference_s: f64,
    allocate_s: f64,
    /// Median per-pair reference/incremental time ratio.
    speedup: f64,
    /// Heap operations of a call that grants nothing (the set-up).
    setup_heap_ops: u64,
    /// Heap operations of a granting call beyond the set-up.
    grant_heap_ops: u64,
}

impl Measurement {
    fn to_json(&self) -> String {
        format!(
            "    {{\"tasks\": {}, \"edges\": {}, \"steps\": {}, \"reference_s\": {:.6}, \
             \"allocate_s\": {:.6}, \"speedup\": {:.2}, \"setup_heap_ops\": {}, \
             \"grant_heap_ops\": {}}}",
            self.tasks,
            self.edges,
            self.steps,
            self.reference_s,
            self.allocate_s,
            self.speedup,
            self.setup_heap_ops,
            self.grant_heap_ops,
        )
    }
}

fn measure(n: u32) -> Measurement {
    let dag = sweep_dag(n);
    let grillon = Platform::from_spec(&ClusterSpec::grillon());
    // One processor: every critical task is saturated at once, so the call
    // runs the set-up and grants nothing.
    let single = Platform::from_spec(&ClusterSpec::flat("single", 1, grillon.gflops()));
    let params = AllocParams::default();
    // Warm the graph's cached views, and check parity while at it.
    assert_eq!(
        allocate(&dag, &grillon, params),
        reference_allocate(&dag, &grillon, params),
        "allocate and reference_allocate disagree at n={n}"
    );
    let (setup_heap_ops, idle) = heap_ops(&dag, &single);
    assert_eq!(idle, 0, "a one-processor cluster granted a processor");
    let (ops, steps) = heap_ops(&dag, &grillon);
    let (reference_s, allocate_s, speedup) = time_pair(
        || reference_allocate(&dag, &grillon, params),
        || allocate(&dag, &grillon, params),
    );
    let m = Measurement {
        tasks: dag.num_tasks(),
        edges: dag.num_edges(),
        steps,
        reference_s,
        allocate_s,
        speedup,
        setup_heap_ops,
        grant_heap_ops: ops.saturating_sub(setup_heap_ops),
    };
    println!(
        "bench allocation/irregular-{n:<5} {:>4} steps   ref {:>10.2?}   allocate {:>10.2?}   \
         speedup {:>5.2}x   {} set-up heap ops, {} in grant steps",
        m.steps,
        std::time::Duration::from_secs_f64(m.reference_s),
        std::time::Duration::from_secs_f64(m.allocate_s),
        m.speedup,
        m.setup_heap_ops,
        m.grant_heap_ops,
    );
    m
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    if check {
        let m = measure(GATE_TASKS);
        let speed_ok = m.speedup >= SPEEDUP_FLOOR;
        let alloc_ok = m.grant_heap_ops == 0;
        println!(
            "check allocation/irregular-{GATE_TASKS} speedup {:.2}x (floor {SPEEDUP_FLOOR}) {}   \
             {} heap ops in grant steps (ceiling 0) {}",
            m.speedup,
            if speed_ok { "ok" } else { "FAIL" },
            m.grant_heap_ops,
            if alloc_ok { "ok" } else { "FAIL" },
        );
        let failures = i32::from(!speed_ok) + i32::from(!alloc_ok);
        if failures > 0 {
            eprintln!("bench --check: {failures} gate(s) failed");
            std::process::exit(1);
        }
        println!("bench --check: all gates passed");
        return;
    }

    let results: Vec<Measurement> = [GATE_TASKS, 5000].into_iter().map(measure).collect();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"allocation\",");
    let _ = writeln!(
        json,
        "  \"problem\": \"HCPA allocation of the large_dag_sweep irregular DAGs (set 0: width, regularity, density 0.5, jump 2) on grillon\","
    );
    let _ = writeln!(
        json,
        "  \"gate\": {{\"tasks\": {GATE_TASKS}, \"speedup_floor\": {SPEEDUP_FLOOR}, \"grant_heap_ops\": 0}},"
    );
    let _ = writeln!(json, "  \"cases\": [");
    for (i, m) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(json, "{}{}", m.to_json(), sep);
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_alloc.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
