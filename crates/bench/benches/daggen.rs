//! Footprint and generation time of the task graphs of a large-DAG sweep.
//!
//! Generates DAG set 0 of perfbench's `large_dag_sweep` (irregular n=2000
//! and n=5000, layered n=2000, FFT k=256: 11,559 tasks, 147,521 edges),
//! builds both flat adjacency views of every graph, and reports the heap
//! bytes the set retains per edge (counted by a live-bytes allocator) and
//! the wall time to generate the set. Writes the numbers to
//! `BENCH_daggen.json` at the workspace root.
//!
//! Run modes:
//!
//! * `cargo bench -p rats-bench --bench daggen` — measure and write
//!   `BENCH_daggen.json`;
//! * `… -- --check` — regression gate: fails (exit 1) if the retained heap
//!   bytes per edge exceed [`BYTES_PER_EDGE_CEILING`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use rats_dag::{TaskGraph, TaskId};
use rats_daggen::{fft_dag, irregular_dag, layered_dag, scenario_seed, DagParams};
use rats_model::CostParams;

/// Live-bytes allocator: tracks the bytes currently allocated, so the
/// bench can report what a generated graph keeps on the heap.
struct LiveAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees under the `GlobalAlloc` contract are exactly the
// ones `System` needs; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for LiveAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` comes from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` (through this allocator)
        // with `layout`, as our caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and `new_size` meets `realloc`'s
        // contract because our caller's does.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveAlloc = LiveAlloc;

/// Most retained heap bytes per edge `--check` accepts: about 5% above the
/// 63.0 measured when the gate was set (see `BENCH_daggen.json`). The
/// edge list (16 bytes an edge, plus the spare capacity its doubling left)
/// and the two flat views (16 bytes an edge each) make up most of it; task
/// nodes, names and degree counters add a few bytes an edge. Per-task edge
/// lists beside the views measured 77.4, so a second adjacency store fails
/// the gate.
const BYTES_PER_EDGE_CEILING: f64 = 66.0;

/// Timed generations of the set; the report gives the best and the median.
const REPS: usize = 15;

/// DAG set 0 of `large_dag_sweep`, in the sweep's generator order.
fn sweep_set() -> Vec<TaskGraph> {
    let base = 0x5eed_0000;
    let cost = CostParams::paper();
    let irregular = |n| DagParams {
        n,
        width: 0.5,
        regularity: 0.5,
        density: 0.5,
        jump: 2,
    };
    vec![
        irregular_dag(&irregular(2000), &cost, scenario_seed(base, 0)),
        irregular_dag(&irregular(5000), &cost, scenario_seed(base, 1)),
        layered_dag(
            &DagParams::layered(2000, 0.5, 0.5, 0.5),
            &cost,
            scenario_seed(base, 2),
        ),
        fft_dag(256, &cost, scenario_seed(base, 3)),
    ]
}

struct Measurement {
    tasks: usize,
    edges: usize,
    /// Heap bytes the set holds once both views of every graph are built.
    retained_bytes: usize,
    best_s: f64,
    median_s: f64,
}

impl Measurement {
    fn bytes_per_edge(&self) -> f64 {
        self.retained_bytes as f64 / self.edges as f64
    }
}

fn measure(reps: usize) -> Measurement {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let set = sweep_set();
    for g in &set {
        let t = TaskId::from_index(0);
        black_box((g.preds_flat(t), g.succs_flat(t)));
    }
    let retained_bytes = LIVE_BYTES.load(Ordering::Relaxed) - before;
    let tasks = set.iter().map(TaskGraph::num_tasks).sum();
    let edges = set.iter().map(TaskGraph::num_edges).sum();
    drop(set);
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(sweep_set());
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    Measurement {
        tasks,
        edges,
        retained_bytes,
        best_s: times[0],
        median_s: times[times.len() / 2],
    }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let m = measure(if check { 1 } else { REPS });
    println!(
        "bench daggen/sweep-set-0 {} tasks {} edges   retained {} B ({:.1} B/edge)   \
         generate best {:.2?} median {:.2?}",
        m.tasks,
        m.edges,
        m.retained_bytes,
        m.bytes_per_edge(),
        std::time::Duration::from_secs_f64(m.best_s),
        std::time::Duration::from_secs_f64(m.median_s),
    );
    if check {
        let ok = m.bytes_per_edge() <= BYTES_PER_EDGE_CEILING;
        println!(
            "check daggen/sweep-set-0 {:.1} retained bytes per edge (ceiling \
             {BYTES_PER_EDGE_CEILING}) {}",
            m.bytes_per_edge(),
            if ok { "ok" } else { "FAIL" },
        );
        if !ok {
            eprintln!("bench --check: 1 gate(s) failed");
            std::process::exit(1);
        }
        println!("bench --check: all gates passed");
        return;
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"daggen\",");
    let _ = writeln!(
        json,
        "  \"problem\": \"large_dag_sweep DAG set 0 (irregular n=2000 and n=5000, layered n=2000, FFT k=256), both flat views built\","
    );
    let _ = writeln!(
        json,
        "  \"gate\": {{\"bytes_per_edge_ceiling\": {BYTES_PER_EDGE_CEILING}}},"
    );
    let _ = writeln!(
        json,
        "  \"tasks\": {}, \"edges\": {}, \"retained_bytes\": {}, \"bytes_per_edge\": {:.2},",
        m.tasks,
        m.edges,
        m.retained_bytes,
        m.bytes_per_edge()
    );
    let _ = writeln!(
        json,
        "  \"generate_best_s\": {:.6}, \"generate_median_s\": {:.6}",
        m.best_s, m.median_s
    );
    json.push_str("}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_daggen.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
