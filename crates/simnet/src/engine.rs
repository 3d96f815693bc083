//! Event-driven fluid simulation of network flows.

#[cfg(any(test, feature = "reference"))]
pub mod reference;

use rats_platform::{LinkId, Platform, Route};

use crate::maxmin::Solver;

/// A flow in its latency phase: no data moves until `until`.
#[derive(Debug, Clone)]
struct Waiting {
    until: f64,
    route: Route,
    rate_cap: f64,
    size: f64,
    tag: u64,
    /// Start sequence number: completions are reported in this order.
    seq: u64,
}

/// The transferring flows, one column per field, in no particular order:
/// a flow's row moves when another row is swap-removed.
#[derive(Debug, Clone, Default)]
struct Transfers {
    /// Bytes left to send.
    remaining: Vec<f64>,
    /// `size * 1e-9`: the flow is done once `remaining` is at most this.
    done_below: Vec<f64>,
    /// The rate of `slot` from the solver's latest solve (0 until the
    /// first solve after the flow entered).
    rate: Vec<f64>,
    /// The flow's solver slot.
    slot: Vec<u32>,
    tag: Vec<u64>,
    seq: Vec<u64>,
}

impl Transfers {
    fn len(&self) -> usize {
        self.remaining.len()
    }

    fn push(&mut self, size: f64, slot: usize, tag: u64, seq: u64) {
        self.remaining.push(size);
        self.done_below.push(size * 1e-9);
        self.rate.push(0.0);
        self.slot
            .push(u32::try_from(slot).expect("more than u32::MAX flows"));
        self.tag.push(tag);
        self.seq.push(seq);
    }

    fn swap_remove(&mut self, i: usize) {
        self.remaining.swap_remove(i);
        self.done_below.swap_remove(i);
        self.rate.swap_remove(i);
        self.slot.swap_remove(i);
        self.tag.swap_remove(i);
        self.seq.swap_remove(i);
    }
}

/// An event-driven fluid network simulator over a [`Platform`].
///
/// Flows started with [`start_flow`](Self::start_flow) first traverse a
/// *latency phase* equal to their one-way path latency, then transfer their
/// payload at the **max-min fair** rate over the links they cross, capped by
/// the empirical TCP bandwidth `Wmax/RTT`. Rates are recomputed whenever the
/// set of transferring flows changes — exactly SimGrid's fluid model.
///
/// A flow enters the persistent max-min [`Solver`] when its latency phase
/// ends (at once for a zero-latency route) and leaves it when it completes,
/// so a re-solve touches no flow that did not change. The `reference`
/// module (tests and the `reference` feature) keeps the engine that
/// rebuilt the whole problem for every solve, as the parity oracle.
///
/// # Layout
///
/// Flows in their latency phase wait in a short list with their route.
/// Transferring flows live in flat columns — bytes remaining, the done
/// threshold `size · 1e-9`, the rate, the solver slot, the tag and the
/// start sequence number — in no particular order. Each solve copies the
/// solver's rates into the rate column once; [`next_event`](Self::next_event)
/// scans the remaining/rate columns in four independent `min` lanes, and
/// [`advance_to`](Self::advance_to) makes one pass that progresses every
/// transfer and notes the done ones, which then leave by swap-removal.
/// Completions are sorted by start sequence number, so `completed` lists
/// them in start order whatever the rows' order.
///
/// # Why no bit moves
///
/// The layout changes no arithmetic: each transfer's `remaining -= rate ·
/// dt` reads the same rate bits, and its done test is the same expression.
/// The next event is `min(waiting until, time + min_i(remaining_i /
/// rate_i))`; `min` is exact, so the lane grouping cannot move a bit, and
/// rounding is monotone, so `min_i(time + x_i) = time + min_i(x_i)`. And
/// the solver's rates depend only on the multiset of `(links, cap)` of its
/// flows (see [`Solver`], "Why order cannot move a bit"), so neither the
/// slot a flow gets nor the order flows enter and leave in within one
/// advance can reach them.
///
/// The embedding discrete-event simulation drives it with:
///
/// ```text
/// loop {
///     t = min(own events, net.next_event());
///     net.advance_to(t, &mut completed);   // tags of the finished flows
///     …                                    // start new flows at the current time
/// }
/// ```
#[derive(Debug, Clone)]
pub struct NetSim<'p> {
    platform: &'p Platform,
    /// Flows in their latency phase, in start order.
    waiting: Vec<Waiting>,
    /// Flows in their transfer phase.
    transfers: Transfers,
    /// The max-min solver over the transferring flows: link capacities are
    /// set once, flows enter and leave as their phases change.
    solver: Solver,
    time: f64,
    dirty: bool,
    /// [`next_event`](Self::next_event)'s answer, until a flow starts or
    /// time advances.
    next: Option<Option<f64>>,
    /// Start sequence number of the next flow.
    seq: u64,
    /// Rows of the transfers that complete in the running advance.
    done: Vec<u32>,
    /// `(seq, tag)` of those transfers, sorted before they are reported.
    finished: Vec<(u64, u64)>,
    stats: NetStats,
}

/// Work counters of one [`NetSim`]: what its max-min solves and its
/// transfer passes cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Max-min solves (one per change of the transferring set).
    pub solves: u64,
    /// Progressive-filling rounds over all solves (the rounds of each
    /// solution, resumed ones included).
    pub rounds: u64,
    /// Rounds of `rounds` that solves took from their replay of the solve
    /// before instead of filling them.
    pub resumed: u64,
    /// Flows over all solves (a flow counts once per solve it is in).
    pub flows: u64,
    /// Transferring flows walked by [`advance_to`](NetSim::advance_to),
    /// summed over its calls: each is progressed (when time moves) and
    /// tested for completion.
    pub steps: u64,
}

impl<'p> NetSim<'p> {
    /// Creates an idle network at time 0.
    pub fn new(platform: &'p Platform) -> Self {
        let capacity = (0..platform.num_links())
            .map(|l| platform.link(LinkId::from_index(l)).bandwidth_bps)
            .collect();
        Self {
            platform,
            waiting: Vec::new(),
            transfers: Transfers::default(),
            solver: Solver::new(capacity),
            time: 0.0,
            dirty: false,
            next: None,
            seq: 0,
            done: Vec::new(),
            finished: Vec::new(),
            stats: NetStats::default(),
        }
    }

    /// Current simulated time in seconds.
    #[inline]
    pub fn time(&self) -> f64 {
        self.time
    }

    /// What the max-min solves and transfer passes of this network have
    /// cost so far.
    #[inline]
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Starts a transfer of `bytes` bytes from `src` to `dst` **at the
    /// current simulation time**; `tag` is an opaque caller identifier that
    /// [`advance_to`](Self::advance_to) returns when the flow completes.
    ///
    /// Returns whether a network flow was created: local transfers
    /// (`src == dst`) and empty payloads complete instantly (the paper's
    /// zero-cost same-processor rule) and return `false`.
    pub fn start_flow(&mut self, src: u32, dst: u32, bytes: f64, tag: u64) -> bool {
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "flow size must be finite and non-negative, got {bytes}"
        );
        if src == dst || bytes == 0.0 {
            return false;
        }
        let route = self.platform.route(src, dst);
        let rate_cap = self.platform.flow_rate_cap(src, dst);
        let seq = self.seq;
        self.seq += 1;
        self.next = None;
        if route.latency_s > 0.0 {
            self.waiting.push(Waiting {
                until: self.time + route.latency_s,
                route,
                rate_cap,
                size: bytes,
                tag,
                seq,
            });
        } else {
            self.enter_transfer(&route, rate_cap, bytes, tag, seq);
        }
        true
    }

    /// Enters a flow into the solver and the transfer columns: its transfer
    /// phase, at rate 0 until the next solve.
    fn enter_transfer(&mut self, route: &Route, rate_cap: f64, size: f64, tag: u64, seq: u64) {
        let links = route.links().iter().map(|l| l.index());
        let slot = self.solver.add_flow(links, rate_cap);
        self.transfers.push(size, slot, tag, seq);
        self.dirty = true;
    }

    /// The next time anything happens inside the network (a latency phase
    /// ends or a transfer completes), or `None` if the network is idle.
    pub fn next_event(&mut self) -> Option<f64> {
        if let Some(next) = self.next {
            return next;
        }
        self.refresh_rates();
        let mut next = self
            .waiting
            .iter()
            .fold(f64::INFINITY, |m, w| m.min(w.until));
        // Four independent lanes, so the divisions pipeline; `min` is
        // exact, so the grouping cannot move a bit.
        let until_done = |remaining: f64, rate: f64| {
            if rate > 0.0 {
                remaining / rate
            } else {
                f64::INFINITY
            }
        };
        let Transfers {
            remaining, rate, ..
        } = &self.transfers;
        let mut lanes = [f64::INFINITY; 4];
        let (rem4, rem_tail) = remaining.as_chunks::<4>();
        let (rate4, rate_tail) = rate.as_chunks::<4>();
        for (r, q) in rem4.iter().zip(rate4) {
            for k in 0..4 {
                lanes[k] = lanes[k].min(until_done(r[k], q[k]));
            }
        }
        for (&r, &q) in rem_tail.iter().zip(rate_tail) {
            lanes[0] = lanes[0].min(until_done(r, q));
        }
        let soonest = lanes[0].min(lanes[1]).min(lanes[2].min(lanes[3]));
        // Rounding is monotone: `time + min(x_i)` is `min(time + x_i)`.
        next = next.min(self.time + soonest);
        let next = next.is_finite().then_some(next);
        self.next = Some(next);
        next
    }

    /// Advances the simulation to time `t` (which must not skip past the
    /// next event) and replaces the contents of `completed` with the tags of
    /// the flows that completed at `t`, in start order.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past or beyond the next event.
    pub fn advance_to(&mut self, t: f64, completed: &mut Vec<u64>) {
        assert!(
            t.is_finite() && t >= self.time - 1e-12,
            "time went backwards"
        );
        if let Some(next) = self.next_event() {
            assert!(
                t <= next + next.abs().max(1.0) * 1e-9,
                "advance_to({t}) skips the next event at {next}"
            );
        }
        let dt = (t - self.time).max(0.0);
        self.time = t;
        self.next = None;
        // Transfers progress over `dt`; those done at `t` leave.
        self.progress(dt);
        completed.clear();
        if !self.done.is_empty() {
            self.dirty = true;
            // Descending rows: a swap-removal moves only a row not done.
            for &i in self.done.iter().rev() {
                let i = i as usize;
                let x = &mut self.transfers;
                self.solver.remove_flow(x.slot[i] as usize);
                self.finished.push((x.seq[i], x.tag[i]));
                x.swap_remove(i);
            }
            self.finished.sort_unstable_by_key(|&(seq, _)| seq);
            completed.extend(self.finished.drain(..).map(|(_, tag)| tag));
        }
        // Then latency phases due at `t` end.
        let eps_t = 1e-12 + t.abs() * 1e-12;
        let mut waiting = std::mem::take(&mut self.waiting);
        waiting.retain(|f| {
            let due = f.until <= t + eps_t;
            if due {
                self.enter_transfer(&f.route, f.rate_cap, f.size, f.tag, f.seq);
            }
            !due
        });
        self.waiting = waiting;
    }

    /// One pass over the transfer columns: `remaining -= rate · dt` (when
    /// time moved), noting in `done` the rows that are done.
    ///
    /// When time did not move, a transfer whose completion rounds to the
    /// clock (`time + remaining / rate == time`) is done too, though more
    /// than `size · 1e-9` bytes are left: [`next_event`](Self::next_event)
    /// made the same decision when it returned the current time, and no
    /// advance there could move a byte.
    fn progress(&mut self, dt: f64) {
        self.stats.steps += self.transfers.len() as u64;
        let Transfers {
            remaining,
            done_below,
            rate,
            ..
        } = &mut self.transfers;
        self.done.clear();
        let done = &mut self.done;
        if dt > 0.0 {
            for (i, ((r, &below), &rate)) in remaining
                .iter_mut()
                .zip(done_below.iter())
                .zip(rate.iter())
                .enumerate()
            {
                *r -= rate * dt;
                if *r <= below {
                    done.push(i as u32);
                }
            }
        } else {
            let time = self.time;
            for (i, ((&r, &below), &rate)) in remaining
                .iter()
                .zip(done_below.iter())
                .zip(rate.iter())
                .enumerate()
            {
                // At rate 0 the quotient is infinite and the test fails.
                if r <= below || time + r / rate == time {
                    done.push(i as u32);
                }
            }
        }
    }

    /// Recomputes max-min fair rates if the transferring set changed, and
    /// copies them into the rate column.
    fn refresh_rates(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.solver.solve();
        for (rate, &slot) in self.transfers.rate.iter_mut().zip(&self.transfers.slot) {
            *rate = self.solver.rate(slot as usize);
        }
        self.stats.solves += 1;
        self.stats.rounds += self.solver.rounds();
        self.stats.resumed += self.solver.resumed();
        self.stats.flows += self.solver.num_flows() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rats_platform::{ClusterSpec, LinkSpec, TopologySpec};

    impl NetSim<'_> {
        /// No flow waits or transfers, and the solver holds none.
        fn is_idle(&self) -> bool {
            self.waiting.is_empty() && self.transfers.len() == 0 && self.solver.num_flows() == 0
        }
    }

    fn zero_latency_cluster(n: u32) -> ClusterSpec {
        ClusterSpec {
            name: "test".into(),
            num_procs: n,
            gflops: 1.0,
            node_link: LinkSpec {
                latency_s: 0.0,
                bandwidth_bps: 100.0, // bytes/s, easy numbers
            },
            topology: TopologySpec::Flat,
            wmax_bytes: 1e18, // effectively uncapped
        }
    }

    /// Runs the network until every flow completed; returns the final time
    /// and the tags of all completions in chronological order.
    fn drain(net: &mut NetSim) -> (f64, Vec<u64>) {
        let (mut all, mut done) = (Vec::new(), Vec::new());
        while let Some(t) = net.next_event() {
            net.advance_to(t, &mut done);
            all.extend(&done);
        }
        (net.time(), all)
    }

    /// `advance_to` into a fresh buffer.
    fn advance(net: &mut NetSim, t: f64) -> Vec<u64> {
        let mut done = vec![u64::MAX]; // replaced, not appended to
        net.advance_to(t, &mut done);
        done
    }

    #[test]
    fn local_transfer_is_instant() {
        let spec = zero_latency_cluster(2);
        let p = Platform::from_spec(&spec);
        let mut net = NetSim::new(&p);
        assert!(!net.start_flow(0, 0, 1e9, 0));
        assert!(!net.start_flow(0, 1, 0.0, 0));
        assert_eq!(net.next_event(), None);
    }

    #[test]
    fn single_flow_completes_at_size_over_bandwidth() {
        let spec = zero_latency_cluster(2);
        let p = Platform::from_spec(&spec);
        let mut net = NetSim::new(&p);
        assert!(net.start_flow(0, 1, 200.0, 7));
        let t = net.next_event().unwrap();
        assert!((t - 2.0).abs() < 1e-9, "200 B at 100 B/s: t = {t}");
        let done = advance(&mut net, t);
        assert_eq!(done, [7]);
        assert!(net.is_idle());
    }

    #[test]
    fn latency_delays_completion() {
        let mut spec = zero_latency_cluster(2);
        spec.node_link.latency_s = 0.25; // path latency 0.5
        let p = Platform::from_spec(&spec);
        let mut net = NetSim::new(&p);
        net.start_flow(0, 1, 100.0, 0);
        // First event: latency phase end at 0.5.
        let t1 = net.next_event().unwrap();
        assert!((t1 - 0.5).abs() < 1e-9);
        assert!(advance(&mut net, t1).is_empty());
        // Then 1 s of transfer.
        let t2 = net.next_event().unwrap();
        assert!((t2 - 1.5).abs() < 1e-9, "t2 = {t2}");
        assert_eq!(advance(&mut net, t2).len(), 1);
    }

    #[test]
    fn sharing_halves_throughput() {
        let spec = zero_latency_cluster(3);
        let p = Platform::from_spec(&spec);
        let mut net = NetSim::new(&p);
        // Two flows into the same receiver: its link (100 B/s) is shared.
        net.start_flow(0, 2, 100.0, 1);
        net.start_flow(1, 2, 100.0, 2);
        let (t, done) = drain(&mut net);
        assert!((t - 2.0).abs() < 1e-9, "t = {t}");
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn staggered_flows_fair_share() {
        let spec = zero_latency_cluster(3);
        let p = Platform::from_spec(&spec);
        let mut net = NetSim::new(&p);
        // f1: 200 B alone from t=0 (100 B/s). At t=1 f2 (100 B) joins on the
        // shared receiver link; both run at 50 B/s.
        // f1: 100 B left at t=1 → done at t=3. f2: done at t=3 too.
        net.start_flow(0, 2, 200.0, 1);
        advance(&mut net, 1.0);
        net.start_flow(1, 2, 100.0, 2);
        let (t, done) = drain(&mut net);
        assert!((t - 3.0).abs() < 1e-9, "t = {t}");
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn release_speeds_up_survivors() {
        let spec = zero_latency_cluster(3);
        let p = Platform::from_spec(&spec);
        let mut net = NetSim::new(&p);
        // f1: 100 B, f2: 300 B, same receiver. Shared at 50 B/s until f1
        // finishes at t=2 (f2 has 200 left), then f2 at 100 B/s → t=4.
        net.start_flow(0, 2, 100.0, 1);
        net.start_flow(1, 2, 300.0, 2);
        let t1 = net.next_event().unwrap();
        assert!((t1 - 2.0).abs() < 1e-9);
        let done = advance(&mut net, t1);
        assert_eq!(done, [1]);
        let t2 = net.next_event().unwrap();
        assert!((t2 - 4.0).abs() < 1e-9, "t2 = {t2}");
    }

    #[test]
    fn window_cap_limits_rate() {
        let mut spec = zero_latency_cluster(2);
        spec.node_link.latency_s = 0.5; // RTT = 2 s
        spec.wmax_bytes = 50.0; // cap = 25 B/s < 100 B/s
        let p = Platform::from_spec(&spec);
        let mut net = NetSim::new(&p);
        net.start_flow(0, 1, 100.0, 0);
        let (t, _) = drain(&mut net);
        // 1 s latency + 100 B at 25 B/s = 5 s.
        assert!((t - 5.0).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn many_flows_conserve_bytes() {
        let spec = zero_latency_cluster(8);
        let p = Platform::from_spec(&spec);
        let mut net = NetSim::new(&p);
        let mut started = 0;
        for i in 0..8u32 {
            for j in 0..8u32 {
                if i != j {
                    net.start_flow(i, j, 100.0 + f64::from(i * 8 + j), i as u64);
                    started += 1;
                }
            }
        }
        let (t, done) = drain(&mut net);
        assert_eq!(done.len(), started);
        assert!(t > 0.0);
        assert!(net.is_idle());
    }

    #[test]
    #[should_panic(expected = "skips the next event")]
    fn cannot_skip_events() {
        let spec = zero_latency_cluster(2);
        let p = Platform::from_spec(&spec);
        let mut net = NetSim::new(&p);
        net.start_flow(0, 1, 100.0, 0);
        advance(&mut net, 100.0);
    }

    #[test]
    fn idle_network_can_jump_time() {
        let spec = zero_latency_cluster(2);
        let p = Platform::from_spec(&spec);
        let mut net = NetSim::new(&p);
        assert!(advance(&mut net, 42.0).is_empty());
        assert_eq!(net.time(), 42.0);
    }

    /// Two cabinets of six nodes, 100 B/s everywhere; only the uplinks
    /// have latency (0.25 s each), so a flow between cabinets waits 0.5 s
    /// and one inside a cabinet transfers at once.
    fn uplink_latency_cluster() -> Platform {
        let mut spec = zero_latency_cluster(12);
        spec.topology = TopologySpec::Hierarchical {
            cabinets: 2,
            nodes_per_cabinet: 6,
            uplink: LinkSpec {
                latency_s: 0.25,
                bandwidth_bps: 100.0,
            },
        };
        Platform::from_spec(&spec)
    }

    /// Advances both engines to their next event; returns its time and the
    /// completions, asserted equal.
    fn step_both(net: &mut NetSim, want: &mut reference::NetSim) -> (f64, Vec<u64>) {
        let t = next_events(net, want).expect("a pending event");
        let mut done = Vec::new();
        net.advance_to(t, &mut done);
        let mut expected = Vec::new();
        want.advance_to(t, &mut expected);
        assert_eq!(done, expected, "completions at {t}");
        (t, done)
    }

    #[test]
    fn completions_come_in_start_order_after_the_rows_are_scrambled() {
        let p = uplink_latency_cluster();
        let mut net = NetSim::new(&p);
        let mut want = reference::NetSim::new(&p);
        // a: between cabinets, starts first but transfers from 0.5 s on;
        // b and e: done at 1.5 s, like a; c: done at 1 s. No links shared.
        for (src, dst, bytes, tag) in [
            (0, 6, 100.0, 0),
            (1, 2, 150.0, 1),
            (7, 8, 150.0, 2),
            (3, 4, 100.0, 3),
        ] {
            assert!(net.start_flow(src, dst, bytes, tag));
            assert!(want.start_flow(src, dst, bytes, tag));
        }
        assert_eq!(net.transfers.tag, [1, 2, 3], "a waits");
        assert_eq!(step_both(&mut net, &mut want), (0.5, vec![]));
        assert_eq!(net.transfers.tag, [1, 2, 3, 0], "a enters last");
        assert_eq!(step_both(&mut net, &mut want), (1.0, vec![3]));
        assert_eq!(net.transfers.tag, [1, 2, 0], "a moved into c's row");
        // Rows b, e, a complete together: they leave last row first and
        // are reported in start order, which is neither order.
        assert_eq!(step_both(&mut net, &mut want), (1.5, vec![0, 1, 2]));
        assert!(net.is_idle());
        assert_eq!(next_events(&mut net, &mut want), None);
    }

    #[test]
    fn a_latency_phase_ends_at_the_time_a_transfer_completes() {
        let p = uplink_latency_cluster();
        let mut net = NetSim::new(&p);
        let mut want = reference::NetSim::new(&p);
        // x sends 50 B out of node 0 alone: done at 0.5 s, when y's latency
        // phase ends. y then has node 0's link to itself: 100 B in 1 s.
        for (src, dst, bytes, tag) in [(0, 1, 50.0, 0), (0, 6, 100.0, 1)] {
            assert!(net.start_flow(src, dst, bytes, tag));
            assert!(want.start_flow(src, dst, bytes, tag));
        }
        assert_eq!(step_both(&mut net, &mut want), (0.5, vec![0]));
        assert_eq!(net.transfers.tag, [1], "y transfers, x has left");
        assert!(net.waiting.is_empty());
        assert_eq!(net.transfers.remaining, [100.0], "y has not progressed yet");
        assert_eq!(step_both(&mut net, &mut want), (1.5, vec![1]));
        assert!(net.is_idle());
        assert_eq!(net.stats().solves, want.solves());
    }

    /// At t = 26,987.6 s a 1 kB transfer has 7.8e-5 B left at 6.25e7 B/s,
    /// more than its `size · 1e-9` threshold. Its time to completion,
    /// 1.25e-12 s, is below half an ulp of the clock, so its next event is
    /// the current time: the advance there moves no byte and must complete
    /// it rather than stall.
    #[test]
    fn a_transfer_whose_completion_rounds_to_the_clock_completes() {
        let mut spec = zero_latency_cluster(4);
        spec.node_link.bandwidth_bps = 6.25e7;
        let p = Platform::from_spec(&spec);
        let mut net = NetSim::new(&p);
        let mut want = reference::NetSim::new(&p);
        advance_both(26_987.6, &mut net, &mut want);
        // Three flows share node 0's link; the 11 B and 20 B ones leave
        // first, then the 1 kB one runs alone.
        for (dst, bytes, tag) in [(1, 1e3, 0), (2, 11.0, 1), (3, 20.0, 2)] {
            assert!(net.start_flow(0, dst, bytes, tag));
            assert!(want.start_flow(0, dst, bytes, tag));
        }
        assert_eq!(step_both(&mut net, &mut want).1, [1]);
        assert_eq!(step_both(&mut net, &mut want).1, [2]);
        let (t, done) = step_both(&mut net, &mut want);
        assert!(done.is_empty());
        let (left, rate) = (net.transfers.remaining[0], net.transfers.rate[0]);
        assert!(left > 1e3 * 1e-9 && left < 1e-4, "{left} B left");
        assert_eq!(rate, 6.25e7);
        assert_eq!(t + left / rate, t, "completion rounds to the clock");
        assert_eq!(step_both(&mut net, &mut want), (t, vec![0]));
        assert!(net.is_idle());
        assert_eq!(next_events(&mut net, &mut want), None);
    }

    /// A small random platform for the engine parity suite: flat,
    /// hierarchical (grelon-like), star or bus; zero, uniform or mixed
    /// latencies (so some routes skip the latency phase); a TCP window that
    /// binds, or one that does not.
    fn parity_platform(rng: &mut StdRng) -> Platform {
        let latency = |rng: &mut StdRng| [0.0, 100e-6, 1e-3][rng.random_range(0..3usize)];
        let link = |rng: &mut StdRng| LinkSpec {
            latency_s: latency(rng),
            bandwidth_bps: [125e6, 125e6, 40e6, 1e3][rng.random_range(0..4usize)],
        };
        let num_procs = rng.random_range(2..=12u32);
        let topology = match rng.random_range(0..4usize) {
            0 => TopologySpec::Flat,
            1 => {
                let cabinets = rng.random_range(2..=3u32);
                TopologySpec::Hierarchical {
                    cabinets,
                    nodes_per_cabinet: num_procs.div_ceil(cabinets),
                    uplink: link(rng),
                }
            }
            2 => TopologySpec::Star { hub: link(rng) },
            _ => TopologySpec::Bus { bus: link(rng) },
        };
        let spec = ClusterSpec {
            name: "parity".into(),
            num_procs,
            gflops: 1.0,
            node_link: link(rng),
            topology,
            // 1 KiB binds on every route with latency; 1e18 never does.
            wmax_bytes: [65536.0, 1024.0, 1e18][rng.random_range(0..3usize)],
        };
        Platform::from_spec(&spec)
    }

    /// Starts a few random flows on both engines: local and zero-byte ones
    /// included, sizes from a small palette so completions coincide.
    fn start_flows(
        rng: &mut StdRng,
        n: u32,
        tag: &mut u64,
        net: &mut NetSim,
        want: &mut reference::NetSim,
    ) {
        for _ in 0..rng.random_range(1..=6usize) {
            let (src, dst) = (rng.random_range(0..n), rng.random_range(0..n));
            let bytes = match rng.random_range(0..6usize) {
                0 => 0.0,
                1 | 2 => [1e3, 5e5, 2e6][rng.random_range(0..3usize)],
                _ => rng.random_range(1.0..5e7),
            };
            let started = net.start_flow(src, dst, bytes, *tag);
            assert_eq!(started, want.start_flow(src, dst, bytes, *tag));
            *tag += 1;
        }
    }

    /// Both engines' next events, asserted equal bit for bit.
    fn next_events(net: &mut NetSim, want: &mut reference::NetSim) -> Option<f64> {
        let got = net.next_event();
        let expected = want.next_event();
        assert_eq!(
            got.map(f64::to_bits),
            expected.map(f64::to_bits),
            "next_event: {got:?} vs reference {expected:?}"
        );
        got
    }

    /// Advances both engines to `t`; asserts equal completions and clocks.
    /// Returns whether a flow completed.
    fn advance_both(t: f64, net: &mut NetSim, want: &mut reference::NetSim) -> bool {
        let (mut got, mut expected) = (Vec::new(), Vec::new());
        net.advance_to(t, &mut got);
        want.advance_to(t, &mut expected);
        assert_eq!(got, expected, "completions at {t}");
        assert_eq!(net.time().to_bits(), want.time().to_bits());
        assert_eq!(net.stats().solves, want.solves());
        !got.is_empty()
    }

    proptest! {
        /// Engine parity: one random script of `start_flow`, `next_event`
        /// and `advance_to` calls (to the next event, part way to it, or
        /// standing still) drives both engines; every returned time must
        /// match the reference by `to_bits()` and every completion list
        /// exactly, through to the drained network.
        #[test]
        fn net_sim_matches_the_reference_engine(seed in 0u64..u64::MAX) {
            parity_script(seed);
        }
    }

    // The same parity property at 20,000 cases, for a release run:
    // `cargo test --release -p rats-simnet --lib -- --ignored`. Every
    // script must drain without a stall (see `parity_script`).
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        #[ignore = "deep parity run, ~2 s in release"]
        fn net_sim_matches_the_reference_engine_deep(seed in 0u64..u64::MAX) {
            parity_script(seed);
        }
    }

    /// Runs one random engine script (see
    /// `net_sim_matches_the_reference_engine`) and drains it to an idle
    /// network.
    ///
    /// # Panics
    ///
    /// Panics if the engines diverge, or if they stall in the drain.
    fn parity_script(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let platform = parity_platform(&mut rng);
        let n = platform.num_procs();
        let mut net = NetSim::new(&platform);
        let mut want = reference::NetSim::new(&platform);
        let mut tag = 0;
        for _ in 0..rng.random_range(1..=40usize) {
            match rng.random_range(0..10usize) {
                0..=3 => start_flows(&mut rng, n, &mut tag, &mut net, &mut want),
                4..=6 => {
                    if let Some(t) = next_events(&mut net, &mut want) {
                        advance_both(t, &mut net, &mut want);
                    }
                }
                7 => {
                    let now = net.time();
                    let t = match next_events(&mut net, &mut want) {
                        Some(next) => now + (next - now) * rng.random_range(0.0..1.0),
                        None => now + rng.random_range(0.0..1.0),
                    };
                    advance_both(t, &mut net, &mut want);
                }
                8 => {
                    next_events(&mut net, &mut want);
                }
                _ => {
                    advance_both(net.time(), &mut net, &mut want);
                }
            }
        }
        // Drain. Two advances in a row to the current time that complete
        // nothing leave a state no later call changes: a stall.
        let mut idle_advances = 0;
        while let Some(t) = next_events(&mut net, &mut want) {
            let now = net.time();
            let completed = advance_both(t, &mut net, &mut want);
            idle_advances = if t == now && !completed {
                idle_advances + 1
            } else {
                0
            };
            assert!(
                idle_advances < 2,
                "seed {seed}: both engines stalled at {t}"
            );
        }
        assert!(net.is_idle());
    }
}
