//! Before/after cost of the max-min fair-share solve, the simulator's hot
//! inner loop.
//!
//! Times the persistent [`Solver`] against the retained whole-rescan
//! reference solver (`maxmin::reference`, `reference` feature) **in the
//! same run**, in two shapes, counts heap operations, and writes the
//! numbers to `BENCH_sim.json` at the workspace root:
//!
//! * a fixed grillon-like problem at 10, 100 and 1000 flows, solved from
//!   scratch by both: before each solver call the whole flow set is
//!   removed and added back, untimed. Emptying the cap group makes the
//!   timed `solve` structural, so it starts at round 0 (a solve of an
//!   unchanged flow set would resume past every round and time no
//!   filling at all);
//! * an event replay in the simulator's traffic shape: 176 live flows over
//!   47 links, and between solves the three oldest flows leave and three
//!   new ones arrive (a paper-suite job makes ~636 solves of ~176 flows).
//!   The solver removes and adds those flows in place and resumes from
//!   the first round they change (the replay reports the share of rounds
//!   resumed); the reference rebuilds and solves the whole problem. Six
//!   changed flows touch about a quarter of the links, so few of these
//!   solves resume; the simulator changes one flow per event, and
//!   `campaign profile` shows ~40–48% of its rounds resumed.
//!
//! Run modes:
//!
//! * `cargo bench -p rats-bench --bench maxmin` — measure and write
//!   `BENCH_sim.json`;
//! * `… -- --check` — regression gate: fails (exit 1) if the in-run
//!   speedup at 100 flows falls below [`SPEEDUP_FLOOR`], or if once warm a
//!   from-scratch solver call (flows replaced, then `Solver::solve`) or an
//!   event (its `remove_flow`/`add_flow` cycle and resumed solve) touches
//!   the heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rats_simnet::maxmin::reference::{FlowSpec, Problem};
use rats_simnet::maxmin::Solver;

/// Heap-op counting allocator: every `alloc`/`realloc` bumps a counter, so
/// the bench can report heap operations per warm solve and per event.
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
/// 2-vCPU VM; from-scratch solves now measure 5–6×, see `BENCH_sim.json`),
/// so a noisy runner passes but a solver that loses most of its lead does
/// not.
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

/// Live flows of the event replay.
const REPLAY_FLOWS: usize = 176;

/// Flows that leave, and flows that arrive, between two solves.
const REPLAY_CHANGES: usize = 3;

/// The event replay's arrivals, cycled: grillon-like 2-link routes, half
/// of the flows capped at the TCP-window rate.
fn arrivals() -> Vec<FlowSpec> {
    let links = 47usize;
    (0..1024usize)
        .map(|i| {
            let src = (i * 13) % links;
            let dst = (src + 1 + (i * 29) % (links - 1)) % links;
            FlowSpec {
                links: vec![src, dst],
                rate_cap: if i % 2 == 0 { 81.92e6 } else { f64::INFINITY },
            }
        })
        .collect()
}

/// The fixed problem on the persistent solver, solved from scratch: every
/// call replaces the whole flow set before solving.
struct FreshSolve {
    solver: Solver,
    flows: Vec<FlowSpec>,
    slots: Vec<usize>,
}

impl FreshSolve {
    fn new(p: &Problem) -> Self {
        let mut solver = Solver::new(p.capacity.clone());
        let slots = p
            .flows
            .iter()
            .map(|f| solver.add_flow(f.links.iter().copied(), f.rate_cap))
            .collect();
        Self {
            solver,
            flows: p.flows.clone(),
            slots,
        }
    }

    /// Removes and re-adds every flow.
    fn replace(&mut self) {
        for &slot in &self.slots {
            self.solver.remove_flow(slot);
        }
        for (slot, f) in self.slots.iter_mut().zip(&self.flows) {
            *slot = self.solver.add_flow(f.links.iter().copied(), f.rate_cap);
        }
    }

    /// Solves; returns flow 0's rate.
    fn solve(&mut self) -> f64 {
        self.solver.solve();
        self.solver.rate(self.slots[0])
    }
}

/// The event replay on the persistent solver: a ring of live slots whose
/// oldest [`REPLAY_CHANGES`] are replaced by new arrivals before each solve.
struct SolverReplay {
    solver: Solver,
    slots: Vec<usize>,
    oldest: usize,
    next: usize,
}

impl SolverReplay {
    fn new(pool: &[FlowSpec]) -> Self {
        let mut solver = Solver::new(vec![125e6; 47]);
        let slots = pool[..REPLAY_FLOWS]
            .iter()
            .map(|f| solver.add_flow(f.links.iter().copied(), f.rate_cap))
            .collect();
        Self {
            solver,
            slots,
            oldest: 0,
            next: REPLAY_FLOWS,
        }
    }

    /// One event: three flows leave, three arrive, then a solve.
    fn event(&mut self, pool: &[FlowSpec]) -> f64 {
        for _ in 0..REPLAY_CHANGES {
            let f = &pool[self.next % pool.len()];
            self.solver.remove_flow(self.slots[self.oldest]);
            self.slots[self.oldest] = self.solver.add_flow(f.links.iter().copied(), f.rate_cap);
            self.oldest = (self.oldest + 1) % REPLAY_FLOWS;
            self.next += 1;
        }
        self.solver.solve();
        self.solver.rate(self.slots[0])
    }
}

/// The same replay on the reference: the live flows in a ring, rebuilt
/// into one problem that is solved from scratch.
struct ReferenceReplay {
    problem: Problem,
    oldest: usize,
    next: usize,
}

impl ReferenceReplay {
    fn new(pool: &[FlowSpec]) -> Self {
        Self {
            problem: Problem {
                capacity: vec![125e6; 47],
                flows: pool[..REPLAY_FLOWS].to_vec(),
            },
            oldest: 0,
            next: REPLAY_FLOWS,
        }
    }

    fn event(&mut self, pool: &[FlowSpec]) -> Vec<f64> {
        for _ in 0..REPLAY_CHANGES {
            self.problem.flows[self.oldest] = pool[self.next % pool.len()].clone();
            self.oldest = (self.oldest + 1) % REPLAY_FLOWS;
            self.next += 1;
        }
        self.problem.solve()
    }
}

/// Runs `f` once; returns the seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

/// Mean seconds per call of `reference` and `solver`, each of which
/// returns the seconds of its measured part (see [`timed`]), in
/// alternating batches of about 10 ms each: returns the best batch of each
/// and the median per-pair time ratio (reference / solver), so load that
/// hits one pair of batches moves neither.
fn time_pair(
    mut reference: impl FnMut() -> f64,
    mut solver: impl FnMut() -> f64,
) -> (f64, f64, f64) {
    let calls = |run: &mut dyn FnMut() -> f64| {
        let start = Instant::now();
        let mut calls = 0u32;
        while start.elapsed().as_secs_f64() < 0.01 {
            run();
            calls += 1;
        }
        calls
    };
    let batch = |run: &mut dyn FnMut() -> f64, calls: u32| {
        (0..calls).map(|_| run()).sum::<f64>() / f64::from(calls)
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
    let mut fresh = FreshSolve::new(&p);
    // Warm the buffers, and check parity while at it.
    fresh.solve();
    fresh.replace();
    fresh.solve();
    let want = p.solve();
    assert!(
        fresh
            .slots
            .iter()
            .zip(&want)
            .all(|(&s, w)| fresh.solver.rate(s).to_bits() == w.to_bits()),
        "solver and reference disagree at {n} flows"
    );
    let before = HEAP_OPS.load(Ordering::Relaxed);
    fresh.replace();
    fresh.solve();
    let heap_ops_per_warm_solve = HEAP_OPS.load(Ordering::Relaxed) - before;
    assert_eq!(
        fresh.solver.resumed(),
        0,
        "a from-scratch call resumed past {} rounds",
        fresh.solver.resumed()
    );
    // Only the solve is timed: the reference's call builds its problem
    // from scratch too, but re-adding the flows is not part of a solve.
    let (reference_s, solver_s, speedup) = time_pair(
        || timed(|| p.solve()),
        || {
            fresh.replace();
            timed(|| fresh.solve())
        },
    );
    let m = Measurement {
        flows: n,
        rounds: fresh.solver.rounds(),
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

struct Replay {
    rounds_per_solve: f64,
    /// Share of those rounds the solves resumed past.
    resumed_share: f64,
    reference_s: f64,
    solver_s: f64,
    /// Median per-pair reference/solver time ratio.
    speedup: f64,
    heap_ops_per_event: u64,
}

impl Replay {
    fn to_json(&self) -> String {
        format!(
            "{{\"live_flows\": {REPLAY_FLOWS}, \"links\": 47, \"changes_per_event\": {REPLAY_CHANGES}, \
             \"rounds_per_solve\": {:.1}, \"resumed_share\": {:.3}, \"reference_s\": {:.9}, \
             \"solver_s\": {:.9}, \"speedup\": {:.2}, \"heap_ops_per_event\": {}}}",
            self.rounds_per_solve,
            self.resumed_share,
            self.reference_s,
            self.solver_s,
            self.speedup,
            self.heap_ops_per_event
        )
    }
}

/// Warm events before the heap count: enough for every ring position, cap
/// group and link list to reach its working size.
const WARM_EVENTS: usize = 2000;

fn measure_replay() -> Replay {
    let pool = arrivals();
    let mut solver = SolverReplay::new(&pool);
    let mut reference = ReferenceReplay::new(&pool);
    // Warm up, checking every rate against the reference on the way.
    let (mut rounds, mut resumed) = (0, 0);
    for _ in 0..WARM_EVENTS {
        solver.event(&pool);
        rounds += solver.solver.rounds();
        resumed += solver.solver.resumed();
        let want = reference.event(&pool);
        assert!(
            solver
                .slots
                .iter()
                .zip(&want)
                .all(|(&s, w)| solver.solver.rate(s).to_bits() == w.to_bits()),
            "solver and reference disagree in the event replay"
        );
    }
    let events = 100;
    let before = HEAP_OPS.load(Ordering::Relaxed);
    for _ in 0..events {
        black_box(solver.event(&pool));
    }
    let heap_ops_per_event = (HEAP_OPS.load(Ordering::Relaxed) - before).div_ceil(events);
    let (reference_s, solver_s, speedup) = time_pair(
        || timed(|| reference.event(&pool)),
        || timed(|| solver.event(&pool)),
    );
    let r = Replay {
        rounds_per_solve: rounds as f64 / WARM_EVENTS as f64,
        resumed_share: resumed as f64 / rounds as f64,
        reference_s,
        solver_s,
        speedup,
        heap_ops_per_event,
    };
    println!(
        "bench maxmin/replay {REPLAY_FLOWS} flows, {REPLAY_CHANGES} out + {REPLAY_CHANGES} in per solve, \
         {:.1} rounds ({:.1}% resumed)   ref {:>10.2?}   solver {:>10.2?}   speedup {:>6.2}x   \
         {} heap ops/event",
        r.rounds_per_solve,
        r.resumed_share * 100.0,
        std::time::Duration::from_secs_f64(r.reference_s),
        std::time::Duration::from_secs_f64(r.solver_s),
        r.speedup,
        r.heap_ops_per_event,
    );
    r
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
        let r = measure_replay();
        let event_alloc_ok = r.heap_ops_per_event == 0;
        println!(
            "check maxmin/replay {} heap ops/event (ceiling 0) {}",
            r.heap_ops_per_event,
            if event_alloc_ok { "ok" } else { "FAIL" },
        );
        let failures = i32::from(!speed_ok) + i32::from(!alloc_ok) + i32::from(!event_alloc_ok);
        if failures > 0 {
            eprintln!("bench --check: {failures} gate(s) failed");
            std::process::exit(1);
        }
        println!("bench --check: all gates passed");
        return;
    }

    let results: Vec<Measurement> = [10, GATE_FLOWS, 1000].into_iter().map(measure).collect();
    let replay = measure_replay();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"maxmin\",");
    let _ = writeln!(
        json,
        "  \"problem\": \"grillon-like: 47 links of 125 MB/s, 2-link routes, every third flow capped at 81.92 MB/s\","
    );
    let _ = writeln!(
        json,
        "  \"gate\": {{\"flows\": {GATE_FLOWS}, \"speedup_floor\": {SPEEDUP_FLOOR}, \"heap_ops_per_warm_solve\": 0, \"heap_ops_per_event\": 0}},"
    );
    let _ = writeln!(
        json,
        "  \"cases_solve\": \"from scratch: the flow set is replaced, untimed, before each timed solve\","
    );
    let _ = writeln!(json, "  \"event_replay\": {},", replay.to_json());
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
