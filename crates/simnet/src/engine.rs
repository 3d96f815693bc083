//! Event-driven fluid simulation of network flows.

use rats_platform::{LinkId, Platform, Route};

use crate::maxmin::Solver;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Connection establishment: no data moves until `until`.
    Latency { until: f64 },
    /// Fluid transfer at the current max-min fair rate.
    Transfer,
}

#[derive(Debug, Clone)]
struct Flow {
    route: Route,
    rate_cap: f64,
    remaining: f64,
    size: f64,
    rate: f64,
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
/// The embedding discrete-event simulation drives it with:
///
/// ```text
/// loop {
///     t = min(own events, net.next_event());
///     completed = net.advance_to(t);   // tags of the finished flows
///     …                                // start new flows at the current time
/// }
/// ```
#[derive(Debug, Clone)]
pub struct NetSim<'p> {
    platform: &'p Platform,
    /// Flows in latency or transfer phase, in start order.
    flows: Vec<Flow>,
    /// The max-min solver: link capacities are set once, the transferring
    /// flows are refilled on every solve.
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
    /// Progressive-filling rounds over all solves.
    pub rounds: u64,
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
        let phase = if route.latency_s > 0.0 {
            Phase::Latency {
                until: self.time + route.latency_s,
            }
        } else {
            self.dirty = true;
            Phase::Transfer
        };
        self.next = None;
        self.flows.push(Flow {
            route,
            rate_cap: self.platform.flow_rate_cap(src, dst),
            remaining: bytes,
            size: bytes,
            rate: 0.0,
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
                Phase::Transfer if f.rate > 0.0 => self.time + f.remaining / f.rate,
                Phase::Transfer => f64::INFINITY,
            };
            next = next.min(t);
        }
        let next = next.is_finite().then_some(next);
        self.next = Some(next);
        next
    }

    /// Advances the simulation to time `t` (which must not skip past the
    /// next event) and returns the tags of the flows that completed at `t`,
    /// in start order.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past or beyond the next event.
    pub fn advance_to(&mut self, t: f64) -> Vec<u64> {
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
        if dt > 0.0 {
            for f in &mut self.flows {
                if f.phase == Phase::Transfer {
                    f.remaining -= f.rate * dt;
                }
            }
        }
        // Phase transitions due at t.
        let mut completed = Vec::new();
        let eps_t = 1e-12 + t.abs() * 1e-12;
        let dirty = &mut self.dirty;
        self.flows.retain_mut(|f| match f.phase {
            Phase::Latency { until } if until <= t + eps_t => {
                f.phase = Phase::Transfer;
                *dirty = true;
                true
            }
            Phase::Transfer if f.remaining <= f.size * 1e-9 => {
                *dirty = true;
                completed.push(f.tag);
                false
            }
            _ => true,
        });
        completed
    }

    /// Recomputes max-min fair rates if the transferring set changed.
    fn refresh_rates(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        let transferring = |f: &&mut Flow| f.phase == Phase::Transfer;
        self.solver.clear();
        for f in self.flows.iter_mut().filter(transferring) {
            let links = f.route.links().iter().map(|l| l.index());
            self.solver.push_flow(links, f.rate_cap);
        }
        let rates = self.solver.solve();
        for (f, &r) in self.flows.iter_mut().filter(transferring).zip(rates) {
            f.rate = r;
        }
        self.stats.solves += 1;
        self.stats.rounds += self.solver.rounds();
        self.stats.flows += self.solver.num_flows() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut all = Vec::new();
        while let Some(t) = net.next_event() {
            all.extend(net.advance_to(t));
        }
        (net.time(), all)
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
        let done = net.advance_to(t);
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
        assert!(net.advance_to(t1).is_empty());
        // Then 1 s of transfer.
        let t2 = net.next_event().unwrap();
        assert!((t2 - 1.5).abs() < 1e-9, "t2 = {t2}");
        assert_eq!(net.advance_to(t2).len(), 1);
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
        net.advance_to(1.0);
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
        let done = net.advance_to(t1);
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
        net.advance_to(100.0);
    }

    #[test]
    fn idle_network_can_jump_time() {
        let spec = zero_latency_cluster(2);
        let p = Platform::from_spec(&spec);
        let mut net = NetSim::new(&p);
        assert!(net.advance_to(42.0).is_empty());
        assert_eq!(net.time(), 42.0);
    }
}
