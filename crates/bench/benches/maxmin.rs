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
//!   47 links (a paper-suite job makes ~636 solves of ~176 flows), and
//!   between solves one flow changes, as in the simulator: by turns, the
//!   flow that completes first leaves (the replay runs 0.1–10 MB flows as
//!   a fluid at their solved rates) and a new one arrives in its place.
//!   The solver removes or adds that flow in place and resumes from the
//!   first round it changes; the replay reports the share of rounds
//!   resumed (~34%, against the ~40–48% `campaign profile` shows on the
//!   paper suite). The reference rebuilds and solves the whole problem.
//!
//! It also times the network engine's event loop, `NetSim` against the
//! whole-rebuild `reference::NetSim`: ~176 flows in flight on grillon,
//! each event advancing to the next network event and starting one new
//! flow per completed one.
//!
//! Run modes:
//!
//! * `cargo bench -p rats-bench --bench maxmin` — measure and write
//!   `BENCH_sim.json`;
//! * `… -- --check` — regression gate: fails (exit 1) if the in-run
//!   speedup at 100 flows falls below [`SPEEDUP_FLOOR`], or if once warm a
//!   from-scratch solver call (flows replaced, then `Solver::solve`), a
//!   replay event (its `remove_flow` or `add_flow` and resumed solve) or a
//!   network event (`next_event`, `advance_to` and the `start_flow`s that
//!   replace the completed flows) touches the heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rats_platform::{ClusterSpec, Platform};
use rats_simnet::maxmin::reference::{FlowSpec, Problem};
use rats_simnet::maxmin::Solver;
use rats_simnet::{reference, NetSim};

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

/// Live flows of the event replay (one fewer after a departure).
const REPLAY_FLOWS: usize = 176;

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

/// The replay's flow sizes, by flow number: 0.1–10 MB.
fn size(n: usize) -> f64 {
    1e5 * (1 + n * 7919 % 100) as f64
}

/// Bytes left per replay position: the replay runs the flows as a fluid
/// at their solved rates, so the flow that leaves is the one that
/// completes first, as in the simulator.
struct Fluid {
    remaining: Vec<f64>,
}

impl Fluid {
    fn new() -> Self {
        Self {
            remaining: (0..REPLAY_FLOWS).map(size).collect(),
        }
    }

    /// Progresses every flow to the first completion at `rate` per
    /// position, and returns the position of the flow that completes then.
    fn depart(&mut self, rate: impl Fn(usize) -> f64) -> usize {
        let mut first = (0, f64::INFINITY);
        for (k, &r) in self.remaining.iter().enumerate() {
            let t = r / rate(k);
            if t < first.1 {
                first = (k, t);
            }
        }
        for (k, r) in self.remaining.iter_mut().enumerate() {
            *r -= rate(k) * first.1;
        }
        first.0
    }
}

/// The event replay on the persistent solver: [`REPLAY_FLOWS`] positions
/// in which, by turns, the flow that completes first leaves (its position
/// becomes the hole) and a new arrival fills the hole, with a solve after
/// each change.
struct SolverReplay {
    solver: Solver,
    slots: Vec<usize>,
    fluid: Fluid,
    hole: Option<usize>,
    next: usize,
}

impl SolverReplay {
    fn new(pool: &[FlowSpec]) -> Self {
        let mut solver = Solver::new(vec![125e6; 47]);
        let slots = pool[..REPLAY_FLOWS]
            .iter()
            .map(|f| solver.add_flow(f.links.iter().copied(), f.rate_cap))
            .collect();
        solver.solve();
        Self {
            solver,
            slots,
            fluid: Fluid::new(),
            hole: None,
            next: REPLAY_FLOWS,
        }
    }

    /// One event: the first flow to complete leaves or an arrival fills
    /// its position, then a solve; returns the rate at position 0.
    fn event(&mut self, pool: &[FlowSpec]) -> f64 {
        match self.hole.take() {
            Some(k) => {
                let f = &pool[self.next % pool.len()];
                self.slots[k] = self.solver.add_flow(f.links.iter().copied(), f.rate_cap);
                self.fluid.remaining[k] = size(self.next);
                self.next += 1;
            }
            None => {
                let (solver, slots) = (&self.solver, &self.slots);
                let k = self.fluid.depart(|k| solver.rate(slots[k]));
                self.solver.remove_flow(self.slots[k]);
                self.hole = Some(k);
            }
        }
        self.solver.solve();
        self.solver.rate(self.slots[0])
    }

    /// The live slots in position order, skipping the hole.
    fn live(&self) -> impl Iterator<Item = usize> + '_ {
        (0..REPLAY_FLOWS)
            .filter(|&k| Some(k) != self.hole)
            .map(|k| self.slots[k])
    }
}

/// The same replay on the reference: the live flows in position order,
/// the hole left out, solved from scratch.
struct ReferenceReplay {
    problem: Problem,
    /// The rates of the last solve, in `problem.flows` order.
    rates: Vec<f64>,
    fluid: Fluid,
    hole: Option<usize>,
    next: usize,
}

impl ReferenceReplay {
    fn new(pool: &[FlowSpec]) -> Self {
        let problem = Problem {
            capacity: vec![125e6; 47],
            flows: pool[..REPLAY_FLOWS].to_vec(),
        };
        Self {
            rates: problem.solve(),
            problem,
            fluid: Fluid::new(),
            hole: None,
            next: REPLAY_FLOWS,
        }
    }

    fn event(&mut self, pool: &[FlowSpec]) -> &[f64] {
        match self.hole.take() {
            Some(k) => {
                let f = pool[self.next % pool.len()].clone();
                self.problem.flows.insert(k, f);
                self.fluid.remaining[k] = size(self.next);
                self.next += 1;
            }
            None => {
                // No hole: positions index the rates.
                let rates = &self.rates;
                let k = self.fluid.depart(|k| rates[k]);
                self.problem.flows.remove(k);
                self.hole = Some(k);
            }
        }
        self.rates = self.problem.solve();
        &self.rates
    }
}

/// Flows the network event loop keeps started.
const NET_FLOWS: u64 = 176;

/// The network event loop on one engine: every event advances to the next
/// network event and starts one new flow per completed one, so about
/// [`NET_FLOWS`] flows stay in flight (in their latency phase or
/// transferring).
struct NetLoop<N> {
    net: N,
    done: Vec<u64>,
    next: u64,
}

/// The calls the loop makes, on either engine.
trait Engine {
    fn start_flow(&mut self, src: u32, dst: u32, bytes: f64, tag: u64) -> bool;
    fn next_event(&mut self) -> Option<f64>;
    fn advance_to(&mut self, t: f64, completed: &mut Vec<u64>);
}

impl Engine for NetSim<'_> {
    fn start_flow(&mut self, src: u32, dst: u32, bytes: f64, tag: u64) -> bool {
        NetSim::start_flow(self, src, dst, bytes, tag)
    }
    fn next_event(&mut self) -> Option<f64> {
        NetSim::next_event(self)
    }
    fn advance_to(&mut self, t: f64, completed: &mut Vec<u64>) {
        NetSim::advance_to(self, t, completed);
    }
}

impl Engine for reference::NetSim<'_> {
    fn start_flow(&mut self, src: u32, dst: u32, bytes: f64, tag: u64) -> bool {
        reference::NetSim::start_flow(self, src, dst, bytes, tag)
    }
    fn next_event(&mut self) -> Option<f64> {
        reference::NetSim::next_event(self)
    }
    fn advance_to(&mut self, t: f64, completed: &mut Vec<u64>) {
        reference::NetSim::advance_to(self, t, completed);
    }
}

impl<N: Engine> NetLoop<N> {
    fn new(net: N) -> Self {
        let mut l = Self {
            net,
            done: Vec::new(),
            next: 0,
        };
        for _ in 0..NET_FLOWS {
            l.start();
        }
        l
    }

    /// Starts flow number `next`: a grillon-like pair of distinct nodes,
    /// 0.1–10 MB.
    fn start(&mut self) {
        let i = self.next;
        let src = (i * 13 % 47) as u32;
        let dst = ((u64::from(src) + 1 + i * 29 % 46) % 47) as u32;
        let bytes = 1e5 * (1 + i * 7919 % 100) as f64;
        assert!(self.net.start_flow(src, dst, bytes, i));
        self.next += 1;
    }

    /// One event; returns its time.
    fn event(&mut self) -> f64 {
        let t = self.net.next_event().expect("flows are in flight");
        self.net.advance_to(t, &mut self.done);
        for _ in 0..self.done.len() {
            self.start();
        }
        t
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
            "{{\"live_flows\": {REPLAY_FLOWS}, \"links\": 47, \"changes_per_event\": 1, \
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

/// Events checked against the reference before the heap count.
const WARM_EVENTS: usize = 2000;

/// Events per warm-up window (see [`warm`]).
const WARM_WINDOW: usize = 1000;

/// Windows [`warm`] runs at most.
const MAX_WARM_WINDOWS: usize = 50;

/// Runs `event` until a window of [`WARM_WINDOW`] events makes no heap
/// operation, or [`MAX_WARM_WINDOWS`] windows ran. Neither event stream is
/// periodic, so link lists, cap groups and history rows reach their peak
/// sizes over a while; an engine that touches the heap on every event
/// never passes a window, and fails the count that follows.
fn warm(mut event: impl FnMut()) {
    for _ in 0..MAX_WARM_WINDOWS {
        let before = HEAP_OPS.load(Ordering::Relaxed);
        for _ in 0..WARM_WINDOW {
            event();
        }
        if HEAP_OPS.load(Ordering::Relaxed) == before {
            return;
        }
    }
}

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
                .live()
                .zip(want)
                .all(|(s, w)| solver.solver.rate(s).to_bits() == w.to_bits()),
            "solver and reference disagree in the event replay"
        );
    }
    warm(|| {
        black_box(solver.event(&pool));
    });
    let events = 100;
    let before = HEAP_OPS.load(Ordering::Relaxed);
    for _ in 0..events {
        black_box(solver.event(&pool));
    }
    let heap_ops_per_event = (HEAP_OPS.load(Ordering::Relaxed) - before).div_ceil(events);
    let (reference_s, solver_s, speedup) = time_pair(
        || timed(|| reference.event(&pool).len()),
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
        "bench maxmin/replay {REPLAY_FLOWS} flows, 1 out or 1 in per solve, \
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

struct NetMeasurement {
    /// Transferring flows per event.
    transferring: f64,
    reference_s: f64,
    netsim_s: f64,
    /// Median per-pair reference/`NetSim` time ratio.
    speedup: f64,
    heap_ops_per_event: u64,
}

impl NetMeasurement {
    fn to_json(&self) -> String {
        format!(
            "{{\"platform\": \"grillon\", \"flows_in_flight\": {NET_FLOWS}, \
             \"transferring_per_event\": {:.1}, \"reference_s\": {:.9}, \"netsim_s\": {:.9}, \
             \"speedup\": {:.2}, \"heap_ops_per_event\": {}}}",
            self.transferring,
            self.reference_s,
            self.netsim_s,
            self.speedup,
            self.heap_ops_per_event
        )
    }
}

fn measure_net() -> NetMeasurement {
    let platform = Platform::from_spec(&ClusterSpec::grillon());
    let mut net = NetLoop::new(NetSim::new(&platform));
    let mut reference = NetLoop::new(reference::NetSim::new(&platform));
    // Warm up in lock step, checking every event time and completion list
    // against the reference on the way.
    for _ in 0..WARM_EVENTS {
        let (t, want) = (net.event(), reference.event());
        assert!(
            t.to_bits() == want.to_bits() && net.done == reference.done,
            "NetSim and the reference disagree in the network event loop"
        );
    }
    warm(|| {
        black_box(net.event());
    });
    let (steps, events) = (net.net.stats().steps, 100);
    let before = HEAP_OPS.load(Ordering::Relaxed);
    for _ in 0..events {
        black_box(net.event());
    }
    let heap_ops_per_event = (HEAP_OPS.load(Ordering::Relaxed) - before).div_ceil(events);
    let transferring = (net.net.stats().steps - steps) as f64 / events as f64;
    let (reference_s, netsim_s, speedup) =
        time_pair(|| timed(|| reference.event()), || timed(|| net.event()));
    let m = NetMeasurement {
        transferring,
        reference_s,
        netsim_s,
        speedup,
        heap_ops_per_event,
    };
    println!(
        "bench maxmin/netsim grillon, {NET_FLOWS} flows in flight, {:.1} transferring per event   \
         ref {:>10.2?}   netsim {:>10.2?}   speedup {:>6.2}x   {} heap ops/event",
        m.transferring,
        std::time::Duration::from_secs_f64(m.reference_s),
        std::time::Duration::from_secs_f64(m.netsim_s),
        m.speedup,
        m.heap_ops_per_event,
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
        let r = measure_replay();
        let event_alloc_ok = r.heap_ops_per_event == 0;
        println!(
            "check maxmin/replay {} heap ops/event (ceiling 0) {}",
            r.heap_ops_per_event,
            if event_alloc_ok { "ok" } else { "FAIL" },
        );
        let n = measure_net();
        let net_alloc_ok = n.heap_ops_per_event == 0;
        println!(
            "check maxmin/netsim {} heap ops/event (ceiling 0) {}",
            n.heap_ops_per_event,
            if net_alloc_ok { "ok" } else { "FAIL" },
        );
        let failures = i32::from(!speed_ok)
            + i32::from(!alloc_ok)
            + i32::from(!event_alloc_ok)
            + i32::from(!net_alloc_ok);
        if failures > 0 {
            eprintln!("bench --check: {failures} gate(s) failed");
            std::process::exit(1);
        }
        println!("bench --check: all gates passed");
        return;
    }

    let results: Vec<Measurement> = [10, GATE_FLOWS, 1000].into_iter().map(measure).collect();
    let replay = measure_replay();
    let net = measure_net();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"maxmin\",");
    let _ = writeln!(
        json,
        "  \"problem\": \"grillon-like: 47 links of 125 MB/s, 2-link routes, every third flow capped at 81.92 MB/s\","
    );
    let _ = writeln!(
        json,
        "  \"gate\": {{\"flows\": {GATE_FLOWS}, \"speedup_floor\": {SPEEDUP_FLOOR}, \"heap_ops_per_warm_solve\": 0, \"heap_ops_per_event\": 0, \"netsim_heap_ops_per_event\": 0}},"
    );
    let _ = writeln!(
        json,
        "  \"cases_solve\": \"from scratch: the flow set is replaced, untimed, before each timed solve\","
    );
    let _ = writeln!(json, "  \"event_replay\": {},", replay.to_json());
    let _ = writeln!(json, "  \"netsim_events\": {},", net.to_json());
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
