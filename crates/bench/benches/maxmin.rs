//! Before/after cost of the max-min fair-share solve, the simulator's hot
//! inner loop.
//!
//! Times the persistent [`Solver`] against the retained whole-rescan
//! reference solver (`maxmin::reference`, `reference` feature) **in the
//! same run**, on a grillon-like problem at 10, 100 and 1000 flows, counts
//! heap operations per warm solve, and writes the numbers to
//! `BENCH_sim.json` at the workspace root.
//!
//! Run modes:
//!
//! * `cargo bench -p rats-bench --bench maxmin` — measure and write
//!   `BENCH_sim.json`;
//! * `… -- --check` — regression gate: fails (exit 1) if the in-run
//!   speedup at 100 flows falls below [`SPEEDUP_FLOOR`] or a warm
//!   `Solver::solve` allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rats_simnet::maxmin::reference::{FlowSpec, Problem};
use rats_simnet::maxmin::Solver;

/// Heap-op counting allocator: every `alloc`/`realloc` bumps a counter, so
/// the bench can report heap operations per warm solve.
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

/// Minimum reference/solver time ratio at 100 flows for `--check`: about
/// half the median speedup measured when the gate was set (3.3–3.7× on a
/// 2-vCPU VM, see `BENCH_sim.json`), so a noisy runner passes but a solver
/// that loses most of its lead does not.
const SPEEDUP_FLOOR: f64 = 1.7;

/// Flow count the gate judges.
const GATE_FLOWS: usize = 100;

/// A grillon-like problem: `n` flows over 47 node links of 125 MB/s, each
/// flow crossing a sender and a receiver link, every third one capped at
/// the TCP-window rate.
fn problem(n: usize) -> Problem {
    let links = 47usize;
    let capacity = vec![125e6; links];
    let flows = (0..n)
        .map(|i| {
            let src = i % links;
            let dst = (i * 7 + 1) % links;
            FlowSpec {
                links: if src == dst {
                    vec![src]
                } else {
                    vec![src, dst]
                },
                rate_cap: if i % 3 == 0 { 81.92e6 } else { f64::INFINITY },
            }
        })
        .collect();
    Problem { capacity, flows }
}

/// One solve as the simulator runs it: refill the flows, then solve.
fn solver_solve(solver: &mut Solver, p: &Problem) -> f64 {
    solver.clear();
    for f in &p.flows {
        solver.push_flow(f.links.iter().copied(), f.rate_cap);
    }
    solver.solve()[0]
}

/// Mean seconds per call of `reference` and `solver`, timed in alternating
/// batches of about 10 ms each: returns the best batch of each and the
/// median per-pair time ratio (reference / solver), so load that hits one
/// pair of batches moves neither.
fn time_pair(
    mut reference: impl FnMut() -> f64,
    mut solver: impl FnMut() -> f64,
) -> (f64, f64, f64) {
    let calls = |run: &mut dyn FnMut() -> f64| {
        let start = Instant::now();
        let mut calls = 0u32;
        while start.elapsed().as_secs_f64() < 0.01 {
            black_box(run());
            calls += 1;
        }
        calls
    };
    let batch = |run: &mut dyn FnMut() -> f64, calls: u32| {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(run());
        }
        start.elapsed().as_secs_f64() / f64::from(calls)
    };
    let (ref_calls, solver_calls) = (calls(&mut reference), calls(&mut solver));
    let (mut best_ref, mut best_solver) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::new();
    for _ in 0..9 {
        let r = batch(&mut reference, ref_calls);
        let s = batch(&mut solver, solver_calls);
        best_ref = best_ref.min(r);
        best_solver = best_solver.min(s);
        ratios.push(r / s);
    }
    ratios.sort_by(f64::total_cmp);
    (best_ref, best_solver, ratios[ratios.len() / 2])
}

struct Measurement {
    flows: usize,
    rounds: u64,
    reference_s: f64,
    solver_s: f64,
    /// Median per-pair reference/solver time ratio.
    speedup: f64,
    heap_ops_per_warm_solve: u64,
}

impl Measurement {
    fn to_json(&self) -> String {
        format!(
            "    {{\"flows\": {}, \"rounds\": {}, \"reference_s\": {:.9}, \"solver_s\": {:.9}, \
             \"speedup\": {:.2}, \"heap_ops_per_warm_solve\": {}}}",
            self.flows,
            self.rounds,
            self.reference_s,
            self.solver_s,
            self.speedup,
            self.heap_ops_per_warm_solve
        )
    }
}

fn measure(n: usize) -> Measurement {
    let p = problem(n);
    let mut solver = Solver::new(p.capacity.clone());
    // Warm the buffers, and check parity while at it.
    solver_solve(&mut solver, &p);
    let want = p.solve();
    assert!(
        solver
            .solve()
            .iter()
            .zip(&want)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "solver and reference disagree at {n} flows"
    );
    let before = HEAP_OPS.load(Ordering::Relaxed);
    black_box(solver_solve(&mut solver, &p));
    let heap_ops_per_warm_solve = HEAP_OPS.load(Ordering::Relaxed) - before;
    let (reference_s, solver_s, speedup) =
        time_pair(|| p.solve()[0], || solver_solve(&mut solver, &p));
    let m = Measurement {
        flows: n,
        rounds: solver.rounds(),
        reference_s,
        solver_s,
        speedup,
        heap_ops_per_warm_solve,
    };
    println!(
        "bench maxmin/{n:<5} flows {:>3} rounds   ref {:>10.2?}   solver {:>10.2?}   \
         speedup {:>6.2}x   {} heap ops/warm solve",
        m.rounds,
        std::time::Duration::from_secs_f64(m.reference_s),
        std::time::Duration::from_secs_f64(m.solver_s),
        m.speedup,
        m.heap_ops_per_warm_solve,
    );
    m
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    if check {
        let m = measure(GATE_FLOWS);
        let speed_ok = m.speedup >= SPEEDUP_FLOOR;
        let alloc_ok = m.heap_ops_per_warm_solve == 0;
        println!(
            "check maxmin/{GATE_FLOWS} speedup {:.2}x (floor {SPEEDUP_FLOOR}) {}   \
             {} heap ops/warm solve (ceiling 0) {}",
            m.speedup,
            if speed_ok { "ok" } else { "FAIL" },
            m.heap_ops_per_warm_solve,
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

    let results: Vec<Measurement> = [10, GATE_FLOWS, 1000].into_iter().map(measure).collect();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"maxmin\",");
    let _ = writeln!(
        json,
        "  \"problem\": \"grillon-like: 47 links of 125 MB/s, 2-link routes, every third flow capped at 81.92 MB/s\","
    );
    let _ = writeln!(
        json,
        "  \"gate\": {{\"flows\": {GATE_FLOWS}, \"speedup_floor\": {SPEEDUP_FLOOR}, \"heap_ops_per_warm_solve\": 0}},"
    );
    let _ = writeln!(json, "  \"cases\": [");
    for (i, m) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(json, "{}{}", m.to_json(), sep);
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
