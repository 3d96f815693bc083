//! The retained network engine: today's [`NetSim`](super::NetSim) must
//! match it bit for bit.
//!
//! This is the engine the simulator ran before the persistent solver: every
//! flow carries its own rate, and every change of the transferring set
//! rebuilds the whole max-min problem from the live flows and solves it
//! with [`maxmin::reference`](crate::maxmin::reference). It is compiled
//! only for tests and under the `reference` feature, as the oracle of the
//! engine parity suites.

use rats_platform::{LinkId, Platform, Route};

use crate::maxmin::reference::{FlowSpec, Problem};

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

/// The whole-rebuild fluid network simulator: same model and same calls
/// as [`NetSim`](super::NetSim).
#[derive(Debug, Clone)]
pub struct NetSim<'p> {
    platform: &'p Platform,
    /// Flows in latency or transfer phase, in start order.
    flows: Vec<Flow>,
    /// Link capacities, plus the transferring flows refilled per solve.
    problem: Problem,
    time: f64,
    dirty: bool,
    /// [`next_event`](Self::next_event)'s answer, until a flow starts or
    /// time advances.
    next: Option<Option<f64>>,
    /// Max-min solves so far.
    solves: u64,
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
            problem: Problem {
                capacity,
                flows: Vec::new(),
            },
            time: 0.0,
            dirty: false,
            next: None,
            solves: 0,
        }
    }

    /// Current simulated time in seconds.
    #[inline]
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Max-min solves so far (one per change of the transferring set).
    #[inline]
    pub fn solves(&self) -> u64 {
        self.solves
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
        if dt > 0.0 {
            for f in &mut self.flows {
                if f.phase == Phase::Transfer {
                    f.remaining -= f.rate * dt;
                }
            }
        }
        // Phase transitions due at t. When time did not move, a transfer
        // whose completion rounds to the clock is done: `next_event`
        // returned `t` for it, and no advance to `t` could move a byte.
        completed.clear();
        let eps_t = 1e-12 + t.abs() * 1e-12;
        let dirty = &mut self.dirty;
        self.flows.retain_mut(|f| match f.phase {
            Phase::Latency { until } if until <= t + eps_t => {
                f.phase = Phase::Transfer;
                *dirty = true;
                true
            }
            Phase::Transfer
                if f.remaining <= f.size * 1e-9 || (dt == 0.0 && t + f.remaining / f.rate == t) =>
            {
                *dirty = true;
                completed.push(f.tag);
                false
            }
            _ => true,
        });
    }

    /// Recomputes max-min fair rates if the transferring set changed.
    fn refresh_rates(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        let transferring = |f: &&mut Flow| f.phase == Phase::Transfer;
        self.problem.flows.clear();
        for f in self.flows.iter_mut().filter(transferring) {
            self.problem.flows.push(FlowSpec {
                links: f.route.links().iter().map(|l| l.index()).collect(),
                rate_cap: f.rate_cap,
            });
        }
        let rates = self.problem.solve();
        for (f, r) in self.flows.iter_mut().filter(transferring).zip(rates) {
            f.rate = r;
        }
        self.solves += 1;
    }
}
