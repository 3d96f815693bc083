//! The discrete-event replay engine.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rats_dag::{EdgeId, TaskGraph, TaskId};
use rats_platform::Platform;
use rats_redist::redistribute;
use rats_sched::Schedule;
use rats_simnet::{NetSim, NetStats};

use crate::outcome::{EdgeRedistStats, SimOutcome};
use crate::telemetry;

/// Total-ordered f64 for the event heap (all times are finite).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("event times are finite")
    }
}

/// The network calls [`simulate`]'s event loop makes. [`NetSim`] is the
/// one network it runs; tests drive the same loop over [`NetSim`] and the
/// reference engine in lock step.
trait Network {
    fn start_flow(&mut self, src: u32, dst: u32, bytes: f64, tag: u64) -> bool;
    fn next_event(&mut self) -> Option<f64>;
    fn advance_to(&mut self, t: f64, completed: &mut Vec<u64>);
    fn stats(&self) -> NetStats;
}

impl Network for NetSim<'_> {
    fn start_flow(&mut self, src: u32, dst: u32, bytes: f64, tag: u64) -> bool {
        NetSim::start_flow(self, src, dst, bytes, tag)
    }

    fn next_event(&mut self) -> Option<f64> {
        NetSim::next_event(self)
    }

    fn advance_to(&mut self, t: f64, completed: &mut Vec<u64>) {
        NetSim::advance_to(self, t, completed);
    }

    fn stats(&self) -> NetStats {
        NetSim::stats(self)
    }
}

/// Simulates the execution of `schedule` on `platform`.
///
/// See the crate docs for the model; the short version: redistribution
/// flows contend under max-min fairness, a task starts once its inputs
/// have arrived and all its processors are idle (waiting tasks are scanned
/// in mapping-priority order, without head-of-line blocking), and the
/// makespan is the completion time of the last task.
///
/// # Panics
///
/// Panics if the schedule does not cover exactly the tasks of `dag`.
pub fn simulate(dag: &TaskGraph, schedule: &Schedule, platform: &Platform) -> SimOutcome {
    let _span = rats_telemetry::span(&telemetry::SIMULATE_SECONDS);
    replay(dag, schedule, platform, &mut NetSim::new(platform))
}

/// [`simulate`] over the network `net`.
fn replay<N: Network>(
    dag: &TaskGraph,
    schedule: &Schedule,
    platform: &Platform,
    net: &mut N,
) -> SimOutcome {
    let n = dag.num_tasks();
    assert_eq!(
        schedule.entries.len(),
        n,
        "schedule must map every task of the graph"
    );
    let gflops = platform.gflops();
    let mut run = Run {
        dag,
        schedule,
        gflops,
        net,
        completed: Vec::new(),
        now: 0.0,
        proc_busy: vec![false; platform.num_procs() as usize],
        started: vec![false; n],
        pending_inputs: dag.task_ids().map(|t| dag.in_degree(t) as u32).collect(),
        edge_flows: vec![0; dag.num_edges()],
        finish_events: BinaryHeap::new(),
        task_start: vec![0.0; n],
        task_finish: vec![0.0; n],
        network_bytes: 0.0,
        self_bytes: 0.0,
        edge_stats: vec![
            EdgeRedistStats {
                start: 0.0,
                finish: 0.0,
                network_bytes: 0.0,
            };
            dag.num_edges()
        ],
    };

    // Entry tasks have no inputs pending from the start.
    run.start_ready_tasks();
    let mut done = 0usize;
    let mut events = 0u64;
    // Liveness, checked in debug builds: an iteration that moves no clock,
    // completes no flow and starts or finishes no task can only have ended
    // a latency phase, and the iteration after that one moves the clock or
    // completes the flow. Two such iterations in a row are a stall.
    let mut idle_iterations = 0u32;
    while done < n {
        events += 1;
        let (then, done_before, running_before) = (run.now, done, run.finish_events.len());
        let next_task = run.finish_events.peek().map(|Reverse((t, _))| t.0);
        run.now = match (next_task, run.net.next_event()) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => {
                panic!("simulation deadlock: {done}/{n} tasks done and no pending events")
            }
        };
        let now = run.now;

        // 1. Network completions at `now`. The network clock moves in
        // lock-step even when a task event set `now`, and a transfer ending
        // within the engine's completion tolerance of it completes here.
        run.net.advance_to(now, &mut run.completed);
        for &tag in &run.completed {
            let e = tag as usize;
            run.edge_flows[e] -= 1;
            if run.edge_flows[e] == 0 {
                let dst = dag.edge(EdgeId::from_index(e)).dst;
                run.pending_inputs[dst.index()] -= 1;
                run.edge_stats[e].finish = now;
            }
        }

        // 2. Task completions at `now`: free the processors and launch the
        // outgoing redistributions.
        while let Some(&Reverse((OrdF64(tf), t))) = run.finish_events.peek() {
            if tf > now + 1e-15 {
                break;
            }
            run.finish_events.pop();
            run.task_finish[t.index()] = tf;
            done += 1;
            for p in schedule.entries[t.index()].procs.iter() {
                run.proc_busy[p as usize] = false;
            }
            for &e in dag.out_edges(t) {
                run.start_edge(e);
            }
        }

        // 3. Start whatever became startable.
        run.start_ready_tasks();

        let moved = now != then
            || !run.completed.is_empty()
            || done != done_before
            || run.finish_events.len() != running_before;
        idle_iterations = if moved { 0 } else { idle_iterations + 1 };
        debug_assert!(
            idle_iterations < 2,
            "simulation stalled at t = {now}: {done}/{n} tasks done"
        );
    }

    telemetry::flush(events, run.net.stats());

    let total_work: f64 = dag
        .task_ids()
        .map(|t| {
            dag.task(t)
                .cost
                .work(schedule.entries[t.index()].procs.len(), gflops)
        })
        .sum();

    SimOutcome {
        makespan: run.task_finish.iter().copied().fold(0.0, f64::max),
        task_start: run.task_start,
        task_finish: run.task_finish,
        total_work,
        network_bytes: run.network_bytes,
        self_bytes: run.self_bytes,
        edge_stats: run.edge_stats,
    }
}

/// The state of one [`simulate`] run.
struct Run<'a, N> {
    dag: &'a TaskGraph,
    schedule: &'a Schedule,
    gflops: f64,
    net: &'a mut N,
    /// Tags of the flows the last network advance completed.
    completed: Vec<u64>,
    now: f64,
    /// Processor occupancy: a task atomically grabs all its processors when
    /// it starts and releases them when it finishes.
    proc_busy: Vec<bool>,
    started: Vec<bool>,
    /// Incomplete input redistributions per task.
    pending_inputs: Vec<u32>,
    /// Network flows still in flight per edge.
    edge_flows: Vec<u32>,
    /// (finish time, task) events of running tasks.
    finish_events: BinaryHeap<Reverse<(OrdF64, TaskId)>>,
    task_start: Vec<f64>,
    task_finish: Vec<f64>,
    network_bytes: f64,
    self_bytes: f64,
    edge_stats: Vec<EdgeRedistStats>,
}

impl<N: Network> Run<'_, N> {
    /// Starts the redistribution of edge `e` at the current time. An edge
    /// with no network flow (all data stays on its processors) delivers its
    /// input at once.
    fn start_edge(&mut self, e: EdgeId) {
        let edge = self.dag.edge(e);
        let src_procs = &self.schedule.entries[edge.src.index()].procs;
        let dst_procs = &self.schedule.entries[edge.dst.index()].procs;
        let r = redistribute(edge.bytes, src_procs, dst_procs);
        let network_bytes = r.network_bytes();
        self.network_bytes += network_bytes;
        self.self_bytes += r.self_bytes;
        self.edge_stats[e.index()] = EdgeRedistStats {
            start: self.now,
            finish: self.now,
            network_bytes,
        };
        let mut flows = 0u32;
        for t in &r.transfers {
            flows += u32::from(self.net.start_flow(t.src, t.dst, t.bytes, e.index() as u64));
        }
        self.edge_flows[e.index()] = flows;
        if flows == 0 {
            self.pending_inputs[edge.dst.index()] -= 1;
        }
    }

    /// Starts, at the current time, every waiting task whose inputs have
    /// arrived and whose processors are all idle. Tasks are scanned in
    /// mapping order (the list scheduler's priority), but a task whose data
    /// has not arrived does not block later tasks mapped on the same
    /// processors — execution order emerges from data availability, as in
    /// the paper's runtime where ready tasks are launched as they appear.
    ///
    /// One pass suffices: starting a task only occupies processors, so it
    /// can never make another task startable.
    fn start_ready_tasks(&mut self) {
        let schedule = self.schedule;
        for &t in &schedule.order {
            let i = t.index();
            if self.started[i] || self.pending_inputs[i] > 0 {
                continue;
            }
            let procs = &schedule.entries[i].procs;
            if procs.iter().any(|p| self.proc_busy[p as usize]) {
                continue;
            }
            for p in procs.iter() {
                self.proc_busy[p as usize] = true;
            }
            self.started[i] = true;
            self.task_start[i] = self.now;
            let dur = self.dag.task(t).cost.time(procs.len(), self.gflops);
            self.finish_events
                .push(Reverse((OrdF64(self.now + dur), t)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rats_daggen::{fft_dag, strassen_dag, suite};
    use rats_model::{CostParams, TaskCost};
    use rats_platform::{ClusterSpec, ProcSet};
    use rats_sched::{MappingStrategy, Scheduler};
    use rats_simnet::reference;

    /// [`NetSim`] and the reference engine driven by the same calls: every
    /// returned time must match by `to_bits()` and every completion list
    /// exactly.
    struct Lockstep<'p> {
        net: NetSim<'p>,
        reference: reference::NetSim<'p>,
        expected: Vec<u64>,
    }

    impl Network for Lockstep<'_> {
        fn start_flow(&mut self, src: u32, dst: u32, bytes: f64, tag: u64) -> bool {
            let started = self.net.start_flow(src, dst, bytes, tag);
            assert_eq!(started, self.reference.start_flow(src, dst, bytes, tag));
            started
        }

        fn next_event(&mut self) -> Option<f64> {
            let got = self.net.next_event();
            let want = self.reference.next_event();
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "next_event {got:?} vs reference {want:?}"
            );
            got
        }

        fn advance_to(&mut self, t: f64, completed: &mut Vec<u64>) {
            self.net.advance_to(t, completed);
            self.reference.advance_to(t, &mut self.expected);
            assert_eq!(*completed, self.expected, "completions at {t}");
        }

        /// Read once per replay, by the telemetry flush: both engines must
        /// have solved on the same events.
        fn stats(&self) -> NetStats {
            let stats = self.net.stats();
            assert_eq!(stats.solves, self.reference.solves());
            stats
        }
    }

    /// Replays `schedule` through [`Lockstep`], so every network call of
    /// the event loop is checked against the reference engine.
    fn assert_engines_agree(dag: &TaskGraph, schedule: &Schedule, p: &Platform) {
        let mut net = Lockstep {
            net: NetSim::new(p),
            reference: reference::NetSim::new(p),
            expected: Vec::new(),
        };
        replay(dag, schedule, p, &mut net);
    }

    #[test]
    fn net_sim_matches_the_reference_engine_on_the_mini_suite() {
        let p = Platform::from_spec(&ClusterSpec::grelon());
        for scenario in suite::mini_suite(&CostParams::paper(), 21)
            .iter()
            .step_by(3)
        {
            let sched = Scheduler::new(&p)
                .strategy(MappingStrategy::rats_time_cost(0.5, true))
                .schedule(&scenario.dag);
            assert_engines_agree(&scenario.dag, &sched, &p);
        }
    }

    /// Simulator parity at paper scale: the flow traffic `simulate` makes
    /// for every 9th paper scenario on chti, grillon and grelon under the
    /// naive strategies, through [`NetSim`] and the reference engine in
    /// lock step. Ignored by default (a few seconds in release); run it
    /// with `cargo test --release -p rats-sim --lib -- --ignored
    /// net_sim_matches_the_reference_engine_at_paper_scale`.
    #[test]
    #[ignore]
    fn net_sim_matches_the_reference_engine_at_paper_scale() {
        let scenarios = suite::paper_suite(&CostParams::paper(), 20080929);
        let strategies = [
            MappingStrategy::Hcpa,
            MappingStrategy::rats_delta(0.5, 0.5),
            MappingStrategy::rats_time_cost(0.5, true),
        ];
        for spec in ClusterSpec::paper_clusters() {
            let p = Platform::from_spec(&spec);
            for scenario in scenarios.iter().step_by(9) {
                for strategy in strategies {
                    let sched = Scheduler::new(&p)
                        .strategy(strategy)
                        .schedule(&scenario.dag);
                    assert_engines_agree(&scenario.dag, &sched, &p);
                }
            }
        }
    }

    fn grillon() -> Platform {
        Platform::from_spec(&ClusterSpec::grillon())
    }

    fn hand_schedule(entries: Vec<(TaskId, Vec<u32>)>) -> Schedule {
        let order: Vec<TaskId> = entries.iter().map(|(t, _)| *t).collect();
        Schedule {
            entries: entries
                .into_iter()
                .map(|(task, procs)| rats_sched::ScheduleEntry {
                    task,
                    procs: ProcSet::new(procs),
                    est_start: 0.0,
                    est_finish: 0.0,
                })
                .collect(),
            order,
        }
    }

    #[test]
    fn transfers_finishing_at_a_task_event_are_not_lost() {
        // Paper-suite scenario 523 (FFT, k = 16) under time-cost (minrho
        // 0.8, packing) on grillon: a redistribution flow ends within the
        // network engine's completion tolerance of a task-finish event, so
        // advancing the network to that event completes it. Dropping that
        // completion left two tasks waiting for input forever.
        let dag = fft_dag(
            16,
            &CostParams::paper(),
            suite::scenario_seed(20080929, 523),
        );
        let p = grillon();
        let s = Scheduler::new(&p)
            .strategy(MappingStrategy::rats_time_cost(0.8, true))
            .schedule(&dag);
        let out = simulate(&dag, &s, &p);
        assert!(out.makespan.is_finite() && out.makespan > 0.0);
    }

    #[test]
    fn single_task_runs_for_its_execution_time() {
        let mut g = TaskGraph::new();
        let t = g.add_task("t", TaskCost::new(10_000_000, 128.0, 0.1));
        let p = grillon();
        let s = hand_schedule(vec![(t, vec![0, 1, 2, 3])]);
        let out = simulate(&g, &s, &p);
        let expected = g.task(t).cost.time(4, p.gflops());
        assert!((out.makespan - expected).abs() < 1e-12);
        assert_eq!(out.network_bytes, 0.0);
    }

    #[test]
    fn same_set_chain_has_no_communication() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", TaskCost::new(10_000_000, 128.0, 0.1));
        let b = g.add_task("b", TaskCost::new(10_000_000, 128.0, 0.1));
        g.add_edge(a, b, 8e7);
        let p = grillon();
        let s = hand_schedule(vec![(a, vec![0, 1]), (b, vec![0, 1])]);
        let out = simulate(&g, &s, &p);
        let expected = g.task(a).cost.time(2, p.gflops()) + g.task(b).cost.time(2, p.gflops());
        assert!((out.makespan - expected).abs() < 1e-9, "{}", out.makespan);
        assert_eq!(out.network_bytes, 0.0);
        assert!(out.self_bytes > 0.0);
    }

    #[test]
    fn disjoint_chain_pays_the_transfer() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", TaskCost::new(10_000_000, 128.0, 0.1));
        let b = g.add_task("b", TaskCost::new(10_000_000, 128.0, 0.1));
        let bytes = 125e6; // 1 s on one link
        g.add_edge(a, b, bytes);
        let p = grillon();
        let s = hand_schedule(vec![(a, vec![0]), (b, vec![1])]);
        let out = simulate(&g, &s, &p);
        let t = |task: TaskId| g.task(task).cost.time(1, p.gflops());
        // latency 2e-4 + 1 s transfer between the two tasks.
        let expected = t(a) + 2e-4 + 1.0 + t(b);
        assert!(
            (out.makespan - expected).abs() < 1e-6,
            "makespan {} vs {expected}",
            out.makespan
        );
        assert!((out.network_bytes - bytes).abs() < 1e-6);
    }

    #[test]
    fn fan_in_contention_slows_arrivals() {
        // Two producers send simultaneously to one consumer on one
        // processor: its link is shared, halving throughput.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", TaskCost::zero());
        let b = g.add_task("b", TaskCost::zero());
        let c = g.add_task("c", TaskCost::zero());
        let bytes = 125e6;
        g.add_edge(a, c, bytes);
        g.add_edge(b, c, bytes);
        let p = grillon();
        let s = hand_schedule(vec![(a, vec![0]), (b, vec![1]), (c, vec![2])]);
        let out = simulate(&g, &s, &p);
        // Both flows share c's 125 MB/s link → 2 s, plus latency.
        assert!(
            out.makespan > 2.0 && out.makespan < 2.01,
            "makespan {}",
            out.makespan
        );
    }

    #[test]
    fn processor_fifo_is_respected() {
        // Two independent tasks mapped on the same processor run serially
        // in mapping order.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", TaskCost::new(10_000_000, 128.0, 0.0));
        let b = g.add_task("b", TaskCost::new(10_000_000, 128.0, 0.0));
        let p = grillon();
        let s = hand_schedule(vec![(a, vec![5]), (b, vec![5])]);
        let out = simulate(&g, &s, &p);
        let t = g.task(a).cost.time(1, p.gflops());
        assert!((out.start(b) - t).abs() < 1e-12);
        assert!((out.makespan - 2.0 * t).abs() < 1e-12);
    }

    #[test]
    fn simulated_times_respect_all_invariants() {
        let p = grillon();
        for scenario in suite::mini_suite(&CostParams::paper(), 21) {
            for strat in [
                MappingStrategy::Hcpa,
                MappingStrategy::rats_delta(0.5, 0.5),
                MappingStrategy::rats_time_cost(0.5, true),
            ] {
                let sched = Scheduler::new(&p).strategy(strat).schedule(&scenario.dag);
                let out = simulate(&scenario.dag, &sched, &p);
                out.validate(&scenario.dag, &sched, &p)
                    .unwrap_or_else(|e| panic!("{} / {}: {e}", scenario.name, strat.name()));
                assert!(out.makespan > 0.0);
                // Tasks never start before every predecessor's data exists.
                for t in scenario.dag.task_ids() {
                    for (pred, _) in scenario.dag.predecessors(t) {
                        assert!(out.start(t) >= out.finish(pred) - 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let p = grillon();
        let dag = fft_dag(8, &CostParams::paper(), 13);
        let sched = Scheduler::new(&p)
            .strategy(MappingStrategy::rats_time_cost(0.5, true))
            .schedule(&dag);
        let a = simulate(&dag, &sched, &p);
        let b = simulate(&dag, &sched, &p);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.task_start, b.task_start);
    }

    /// `simulate` reads each entry's processor set and the schedule's
    /// order, never the mapper's estimates: the campaign loop shares one
    /// simulation between jobs whose schedules agree on those alone.
    #[test]
    fn estimates_do_not_move_the_simulation() {
        let p = grillon();
        let dag = fft_dag(8, &CostParams::paper(), 13);
        let sched = Scheduler::new(&p)
            .strategy(MappingStrategy::rats_time_cost(0.5, true))
            .schedule(&dag);
        let mut moved = sched.clone();
        for (i, e) in moved.entries.iter_mut().enumerate() {
            e.est_start = 1e6 - i as f64;
            e.est_finish = -e.est_finish - 1.0;
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (a, b) = (simulate(&dag, &sched, &p), simulate(&dag, &moved, &p));
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.total_work.to_bits(), b.total_work.to_bits());
        assert_eq!(a.network_bytes.to_bits(), b.network_bytes.to_bits());
        assert_eq!(a.self_bytes.to_bits(), b.self_bytes.to_bits());
        assert_eq!(bits(&a.task_start), bits(&b.task_start));
        assert_eq!(bits(&a.task_finish), bits(&b.task_finish));
        let edges = |o: &SimOutcome| {
            o.edge_stats
                .iter()
                .flat_map(|s| [s.start, s.finish, s.network_bytes])
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&edges(&a)), bits(&edges(&b)));
    }

    #[test]
    fn contention_makes_simulation_slower_than_estimate() {
        // On graphs with parallel transfers, the simulated makespan should
        // be at least the contention-free estimated makespan (up to noise).
        let p = grillon();
        let dag = strassen_dag(&CostParams::paper(), 3);
        let sched = Scheduler::new(&p).schedule(&dag);
        let out = simulate(&dag, &sched, &p);
        assert!(
            out.makespan >= sched.makespan_estimate() * 0.95,
            "sim {} vs est {}",
            out.makespan,
            sched.makespan_estimate()
        );
    }

    #[test]
    fn work_matches_schedule_work() {
        let p = grillon();
        let dag = fft_dag(4, &CostParams::paper(), 2);
        let sched = Scheduler::new(&p).schedule(&dag);
        let out = simulate(&dag, &sched, &p);
        assert!((out.total_work - sched.total_work(&dag, &p)).abs() < 1e-9);
    }

    #[test]
    fn stall_accounts_for_communication() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", TaskCost::new(10_000_000, 128.0, 0.1));
        let b = g.add_task("b", TaskCost::new(10_000_000, 128.0, 0.1));
        g.add_edge(a, b, 125e6);
        let p = grillon();
        let s = hand_schedule(vec![(a, vec![0]), (b, vec![1])]);
        let out = simulate(&g, &s, &p);
        assert!(out.total_stall(&g) > 1.0, "stall = {}", out.total_stall(&g));
    }

    #[test]
    fn edge_stats_track_redistribution_windows() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", TaskCost::new(10_000_000, 128.0, 0.1));
        let b = g.add_task("b", TaskCost::new(10_000_000, 128.0, 0.1));
        let e = g.add_edge(a, b, 125e6);
        let p = grillon();
        let s = hand_schedule(vec![(a, vec![0]), (b, vec![1])]);
        let out = simulate(&g, &s, &p);
        let stats = out.edge(e);
        assert!((stats.start - out.finish(a)).abs() < 1e-12);
        assert!((stats.finish - out.start(b)).abs() < 1e-9);
        assert!(stats.duration() > 1.0, "1 s of data + latency");
        assert!(!stats.was_free());
        assert!((out.total_redistribution_time() - stats.duration()).abs() < 1e-12);
        assert_eq!(out.free_edge_fraction(), 0.0);
    }

    #[test]
    fn free_edges_have_zero_duration() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", TaskCost::new(10_000_000, 128.0, 0.1));
        let b = g.add_task("b", TaskCost::new(10_000_000, 128.0, 0.1));
        let e = g.add_edge(a, b, 8e7);
        let p = grillon();
        let s = hand_schedule(vec![(a, vec![0, 1]), (b, vec![0, 1])]);
        let out = simulate(&g, &s, &p);
        assert!(out.edge(e).was_free());
        assert_eq!(out.edge(e).duration(), 0.0);
        assert_eq!(out.free_edge_fraction(), 1.0);
    }

    use rats_dag::TaskGraph;
}
