//! Event-driven fluid simulation of network flows.

#[cfg(any(test, feature = "reference"))]
pub mod reference;

use rats_platform::{LinkId, Platform, Route};

use crate::maxmin::Solver;

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Connection establishment: no data moves until `until`.
    Latency { until: f64 },
    /// Fluid transfer at the max-min fair rate of its solver slot.
    Transfer { slot: u32 },
}

#[derive(Debug, Clone)]
struct Flow {
    route: Route,
    rate_cap: f64,
    remaining: f64,
    size: f64,
    phase: Phase,
    tag: u64,
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
    /// Flows in latency or transfer phase, in start order.
    flows: Vec<Flow>,
    /// The max-min solver over the transferring flows: link capacities are
    /// set once, flows enter and leave as their phases change.
    solver: Solver,
    time: f64,
    dirty: bool,
    /// [`next_event`](Self::next_event)'s answer, until a flow starts or
    /// time advances.
    next: Option<Option<f64>>,
    stats: NetStats,
}

/// Work counters of one [`NetSim`]: what its max-min solves cost.
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
}

impl<'p> NetSim<'p> {
    /// Creates an idle network at time 0.
    pub fn new(platform: &'p Platform) -> Self {
        let capacity = (0..platform.num_links())
            .map(|l| platform.link(LinkId::from_index(l)).bandwidth_bps)
            .collect();
        Self {
            platform,
            flows: Vec::new(),
            solver: Solver::new(capacity),
            time: 0.0,
            dirty: false,
            next: None,
            stats: NetStats::default(),
        }
    }

    /// Current simulated time in seconds.
    #[inline]
    pub fn time(&self) -> f64 {
        self.time
    }

    /// What the max-min solves of this network have cost so far.
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
        let phase = if route.latency_s > 0.0 {
            Phase::Latency {
                until: self.time + route.latency_s,
            }
        } else {
            self.dirty = true;
            transfer(&mut self.solver, &route, rate_cap)
        };
        self.next = None;
        self.flows.push(Flow {
            route,
            rate_cap,
            remaining: bytes,
            size: bytes,
            phase,
            tag,
        });
        true
    }

    /// The next time anything happens inside the network (a latency phase
    /// ends or a transfer completes), or `None` if the network is idle.
    pub fn next_event(&mut self) -> Option<f64> {
        if let Some(next) = self.next {
            return next;
        }
        self.refresh_rates();
        let mut next = f64::INFINITY;
        for f in &self.flows {
            let t = match f.phase {
                Phase::Latency { until } => until,
                Phase::Transfer { slot } => {
                    let rate = self.solver.rate(slot as usize);
                    if rate > 0.0 {
                        self.time + f.remaining / rate
                    } else {
                        f64::INFINITY
                    }
                }
            };
            next = next.min(t);
        }
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
        // Transfers progress over `dt`, then phase transitions due at `t`.
        completed.clear();
        let eps_t = 1e-12 + t.abs() * 1e-12;
        let (dirty, solver) = (&mut self.dirty, &mut self.solver);
        self.flows.retain_mut(|f| match f.phase {
            Phase::Latency { until } => {
                if until <= t + eps_t {
                    f.phase = transfer(solver, &f.route, f.rate_cap);
                    *dirty = true;
                }
                true
            }
            Phase::Transfer { slot } => {
                if dt > 0.0 {
                    f.remaining -= solver.rate(slot as usize) * dt;
                }
                let done = f.remaining <= f.size * 1e-9;
                if done {
                    solver.remove_flow(slot as usize);
                    *dirty = true;
                    completed.push(f.tag);
                }
                !done
            }
        });
    }

    /// Recomputes max-min fair rates if the transferring set changed.
    fn refresh_rates(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.solver.solve();
        self.stats.solves += 1;
        self.stats.rounds += self.solver.rounds();
        self.stats.resumed += self.solver.resumed();
        self.stats.flows += self.solver.num_flows() as u64;
    }
}

/// Enters a flow over `route` into `solver`: its transfer phase.
fn transfer(solver: &mut Solver, route: &Route, rate_cap: f64) -> Phase {
    let links = route.links().iter().map(|l| l.index());
    let slot = solver.add_flow(links, rate_cap);
    Phase::Transfer {
        slot: u32::try_from(slot).expect("more than u32::MAX flows"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rats_platform::{ClusterSpec, LinkSpec, TopologySpec};

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
        assert!(net.flows.is_empty());
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
        assert!(net.flows.is_empty());
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
    fn advance_both(t: f64, net: &mut NetSim, want: &mut reference::NetSim) {
        let (mut got, mut expected) = (Vec::new(), Vec::new());
        net.advance_to(t, &mut got);
        want.advance_to(t, &mut expected);
        assert_eq!(got, expected, "completions at {t}");
        assert_eq!(net.time().to_bits(), want.time().to_bits());
        assert_eq!(net.stats().solves, want.solves());
    }

    proptest! {
        /// Engine parity: one random script of `start_flow`, `next_event`
        /// and `advance_to` calls (to the next event, part way to it, or
        /// standing still) drives both engines; every returned time must
        /// match the reference by `to_bits()` and every completion list
        /// exactly, through to the drained network.
        #[test]
        fn net_sim_matches_the_reference_engine(seed in 0u64..u64::MAX) {
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
                    _ => advance_both(net.time(), &mut net, &mut want),
                }
            }
            while let Some(t) = next_events(&mut net, &mut want) {
                advance_both(t, &mut net, &mut want);
            }
            prop_assert!(net.flows.is_empty());
            prop_assert_eq!(net.solver.num_flows(), 0);
        }
    }
}
