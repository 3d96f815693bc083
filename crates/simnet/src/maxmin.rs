//! Max-min fair rate allocation by progressive filling.
//!
//! Given a set of links with capacities and a set of flows, each crossing a
//! subset of the links and optionally carrying an individual rate cap (the
//! TCP-window empirical bandwidth), the **max-min fair** allocation is the
//! unique rate vector in which no flow's rate can be increased without
//! decreasing the rate of a flow that already has an equal or smaller rate.
//!
//! The classic *progressive filling* (water-filling) algorithm computes it:
//! grow all rates uniformly; whenever a link saturates, freeze every flow
//! crossing it (they are *bottlenecked* there); whenever a flow hits its own
//! cap, freeze just that flow; repeat with the survivors.
//!
//! [`Solver`] is the implementation the simulator runs: it is persistent
//! (capacities and the freezing tolerance are set once, every buffer is
//! reused across solves) and a filling round touches only the links that
//! still carry unfrozen flows plus the flows it freezes. The `reference`
//! module (tests and the `reference` feature) keeps the original
//! whole-problem rescan as the oracle: [`Solver::solve`] returns its rates
//! bit for bit.

#[cfg(any(test, feature = "reference"))]
pub mod reference;

/// A persistent max-min fairness solver over a fixed set of links.
///
/// Fill it with [`push_flow`](Self::push_flow), call
/// [`solve`](Self::solve), then [`clear`](Self::clear) the flows for the
/// next problem. Flows live in a CSR arena and all per-solve state is kept
/// between solves, so a warm solve does not allocate.
///
/// A solve costs `O(L + Σ|links| + F log F)` to set up (link→flow
/// adjacency, cap order), then `O(A)` per filling round, where `A` is the
/// number of links still carrying an unfrozen flow, plus `O(|links|)` once
/// per flow when it freezes.
#[derive(Debug, Clone)]
pub struct Solver {
    capacity: Vec<f64>,
    /// Freezing tolerance: `1e-9 · max(1, max capacity)`.
    eps: f64,
    /// Flow `i` crosses `links[offsets[i]..offsets[i + 1]]`.
    links: Vec<u32>,
    offsets: Vec<u32>,
    caps: Vec<f64>,
    // Per-solve state, reused across solves.
    residual: Vec<f64>,
    /// Unfrozen flows crossing each link.
    flows_on_link: Vec<u32>,
    /// Flows crossing link `l`: `adj[adj_start[l]..adj_start[l + 1]]`.
    adj_start: Vec<u32>,
    adj: Vec<u32>,
    /// Links with `flows_on_link > 0`.
    active: Vec<u32>,
    /// Flows with a finite cap, in ascending cap order.
    by_cap: Vec<u32>,
    frozen: Vec<bool>,
    rates: Vec<f64>,
    rounds: u64,
}

impl Solver {
    /// A solver over links with the given capacities (bytes/s, index =
    /// link id) and no flows.
    ///
    /// # Panics
    ///
    /// Panics if a capacity is negative or NaN.
    pub fn new(capacity: Vec<f64>) -> Self {
        for c in &capacity {
            assert!(*c >= 0.0 && !c.is_nan(), "negative or NaN link capacity");
        }
        assert!(
            u32::try_from(capacity.len()).is_ok(),
            "more than u32::MAX links"
        );
        let eps = 1e-9 * capacity.iter().fold(1.0f64, |a, &b| a.max(b));
        let nl = capacity.len();
        Self {
            eps,
            links: Vec::new(),
            offsets: vec![0],
            caps: Vec::new(),
            residual: vec![0.0; nl],
            flows_on_link: vec![0; nl],
            adj_start: vec![0; nl + 1],
            adj: Vec::new(),
            active: Vec::with_capacity(nl),
            by_cap: Vec::new(),
            frozen: Vec::new(),
            rates: Vec::new(),
            rounds: 0,
            capacity,
        }
    }

    /// Number of flows pushed since the last [`clear`](Self::clear).
    pub fn num_flows(&self) -> usize {
        self.caps.len()
    }

    /// Removes every flow, keeping the buffers.
    pub fn clear(&mut self) {
        self.links.clear();
        self.offsets.truncate(1);
        self.caps.clear();
    }

    /// Adds a flow crossing `links` with rate cap `rate_cap`
    /// (`f64::INFINITY` for an uncapped flow). Flows are numbered in push
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if a link is out of range or the cap is NaN.
    pub fn push_flow(&mut self, links: impl IntoIterator<Item = usize>, rate_cap: f64) {
        assert!(!rate_cap.is_nan(), "NaN rate cap");
        assert!(
            self.caps.len() < u32::MAX as usize,
            "more than u32::MAX flows"
        );
        let nl = self.capacity.len();
        for l in links {
            assert!(l < nl, "flow references unknown link {l}");
            self.links.push(l as u32);
        }
        let end = u32::try_from(self.links.len()).expect("more than u32::MAX flow links");
        self.offsets.push(end);
        self.caps.push(rate_cap);
    }

    /// Filling rounds of the most recent [`solve`](Self::solve).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Solves for the max-min fair rate of every flow, in push order.
    ///
    /// Flows crossing no link are only limited by their cap (or unbounded).
    /// The rates equal the `reference` solver's bit for bit: each round
    /// takes the same increment (the cap term is `min(cap) − level`, which
    /// equals `min(cap − level)` because rounding is monotone) and freezes
    /// the same flows (a flow's freezing test reads only the round's
    /// `residual` and `level`, so the order flows are visited in cannot
    /// matter). Links without unfrozen flows are skipped: their residual
    /// would not change.
    ///
    /// # Panics
    ///
    /// Panics if the problem is unbounded (an uncapped flow crosses only
    /// infinite-capacity links) or filling stalls.
    pub fn solve(&mut self) -> &[f64] {
        let nf = self.caps.len();
        let nl = self.capacity.len();
        self.rounds = 0;
        self.rates.clear();
        self.rates.resize(nf, 0.0);
        self.frozen.clear();
        self.frozen.resize(nf, false);
        self.residual.copy_from_slice(&self.capacity);

        // Link→flow adjacency by counting sort: `adj_start[l]` first holds
        // the end of link `l`'s run and is decremented to its start.
        self.flows_on_link.fill(0);
        for &l in &self.links {
            self.flows_on_link[l as usize] += 1;
        }
        let mut end = 0;
        self.active.clear();
        for l in 0..nl {
            end += self.flows_on_link[l];
            self.adj_start[l] = end;
            if self.flows_on_link[l] > 0 {
                self.active.push(l as u32);
            }
        }
        self.adj_start[nl] = end;
        self.adj.resize(end as usize, 0);
        for i in (0..nf).rev() {
            for k in self.offsets[i]..self.offsets[i + 1] {
                let l = self.links[k as usize] as usize;
                self.adj_start[l] -= 1;
                self.adj[self.adj_start[l] as usize] = i as u32;
            }
        }

        self.by_cap.clear();
        self.by_cap
            .extend((0..nf as u32).filter(|&i| self.caps[i as usize].is_finite()));
        let caps = &self.caps;
        self.by_cap
            .sort_unstable_by(|&a, &b| caps[a as usize].total_cmp(&caps[b as usize]));
        let mut next_cap = 0;

        let mut level = 0.0f64; // common rate of all unfrozen flows
        let mut unfrozen = nf;

        // Flows with no links and no cap would grow forever: freeze them at
        // infinity straight away.
        for i in 0..nf {
            if self.offsets[i] == self.offsets[i + 1] && self.caps[i].is_infinite() {
                self.rates[i] = f64::INFINITY;
                self.frozen[i] = true;
                unfrozen -= 1;
            }
        }

        while unfrozen > 0 {
            self.rounds += 1;
            // Largest uniform increment before a link saturates or a flow
            // hits its cap.
            let mut d = f64::INFINITY;
            for &l in &self.active {
                let l = l as usize;
                d = d.min(self.residual[l] / f64::from(self.flows_on_link[l]));
            }
            // The freeze walk below leaves `next_cap` on the unfrozen
            // flow with the smallest cap.
            if let Some(&i) = self.by_cap.get(next_cap) {
                d = d.min(self.caps[i as usize] - level);
            }
            assert!(
                d.is_finite(),
                "unbounded max-min problem: an unfrozen flow crosses no \
                 saturable link and has no cap"
            );
            let d = d.max(0.0);
            level += d;
            for &l in &self.active {
                let l = l as usize;
                self.residual[l] -= d * f64::from(self.flows_on_link[l]);
            }

            // Freeze flows bottlenecked by a saturated link or their cap.
            let before = unfrozen;
            for a in 0..self.active.len() {
                let l = self.active[a] as usize;
                // `<=` as in the reference: a NaN residual saturates nothing.
                if self.residual[l] <= self.eps {
                    for k in self.adj_start[l]..self.adj_start[l + 1] {
                        let i = self.adj[k as usize] as usize;
                        if !self.frozen[i] {
                            self.freeze(i, level);
                            unfrozen -= 1;
                        }
                    }
                }
            }
            while let Some(&i) = self.by_cap.get(next_cap) {
                let i = i as usize;
                if !self.frozen[i] {
                    if level < self.caps[i] - self.eps {
                        break;
                    }
                    self.freeze(i, level);
                    unfrozen -= 1;
                }
                next_cap += 1;
            }
            assert!(
                unfrozen < before,
                "progressive filling stalled (d = {d}, level = {level})"
            );
            let flows_on_link = &self.flows_on_link;
            self.active.retain(|&l| flows_on_link[l as usize] > 0);
        }
        &self.rates
    }

    /// Freezes flow `i` at the current `level` (or its cap, if lower).
    fn freeze(&mut self, i: usize, level: f64) {
        self.rates[i] = level.min(self.caps[i]);
        self.frozen[i] = true;
        for k in self.offsets[i]..self.offsets[i + 1] {
            self.flows_on_link[self.links[k as usize] as usize] -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{FlowSpec, Problem};
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn flow(links: &[usize]) -> FlowSpec {
        FlowSpec {
            links: links.to_vec(),
            rate_cap: f64::INFINITY,
        }
    }

    fn capped(links: &[usize], cap: f64) -> FlowSpec {
        FlowSpec {
            links: links.to_vec(),
            rate_cap: cap,
        }
    }

    /// Loads `flows` into `solver` (replacing its flows) and solves.
    fn solve_on(solver: &mut Solver, flows: &[FlowSpec]) -> Vec<f64> {
        solver.clear();
        for f in flows {
            solver.push_flow(f.links.iter().copied(), f.rate_cap);
        }
        solver.solve().to_vec()
    }

    /// Solves `p` with a fresh [`Solver`].
    fn solve(p: &Problem) -> Vec<f64> {
        solve_on(&mut Solver::new(p.capacity.clone()), &p.flows)
    }

    #[test]
    fn single_flow_takes_whole_link() {
        let p = Problem {
            capacity: vec![10.0],
            flows: vec![flow(&[0])],
        };
        assert_eq!(solve(&p), vec![10.0]);
    }

    #[test]
    fn equal_sharing_on_one_link() {
        let p = Problem {
            capacity: vec![9.0],
            flows: vec![flow(&[0]), flow(&[0]), flow(&[0])],
        };
        for r in solve(&p) {
            assert!((r - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn textbook_two_link_example() {
        // Link A (cap 1): f0, f1. Link B (cap 10): f1, f2.
        // Max-min: f0 = f1 = 0.5 (A saturates), f2 = 9.5.
        let p = Problem {
            capacity: vec![1.0, 10.0],
            flows: vec![flow(&[0]), flow(&[0, 1]), flow(&[1])],
        };
        let r = solve(&p);
        assert!((r[0] - 0.5).abs() < 1e-9);
        assert!((r[1] - 0.5).abs() < 1e-9);
        assert!((r[2] - 9.5).abs() < 1e-9);
    }

    #[test]
    fn parking_lot_topology() {
        // Chain of 3 links cap 1; one long flow over all, one short per link.
        // Long flow and shorts all get 0.5.
        let p = Problem {
            capacity: vec![1.0, 1.0, 1.0],
            flows: vec![flow(&[0, 1, 2]), flow(&[0]), flow(&[1]), flow(&[2])],
        };
        for x in solve(&p) {
            assert!((x - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn cap_releases_bandwidth_to_others() {
        // One link cap 1; f0 capped at 0.2 → f1 gets 0.8.
        let p = Problem {
            capacity: vec![1.0],
            flows: vec![capped(&[0], 0.2), flow(&[0])],
        };
        let r = solve(&p);
        assert!((r[0] - 0.2).abs() < 1e-9);
        assert!((r[1] - 0.8).abs() < 1e-9);
    }

    #[test]
    fn cap_above_fair_share_is_inert() {
        let p = Problem {
            capacity: vec![1.0],
            flows: vec![capped(&[0], 5.0), flow(&[0])],
        };
        let r = solve(&p);
        assert!((r[0] - 0.5).abs() < 1e-9);
        assert!((r[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn linkless_capped_flow_runs_at_cap() {
        let p = Problem {
            capacity: vec![],
            flows: vec![capped(&[], 3.0)],
        };
        assert_eq!(solve(&p), vec![3.0]);
    }

    #[test]
    fn linkless_uncapped_flow_is_infinite() {
        let p = Problem {
            capacity: vec![],
            flows: vec![flow(&[])],
        };
        assert_eq!(solve(&p), vec![f64::INFINITY]);
    }

    #[test]
    fn zero_capacity_link_stalls_its_flows() {
        let p = Problem {
            capacity: vec![0.0, 1.0],
            flows: vec![flow(&[0]), flow(&[1])],
        };
        let r = solve(&p);
        assert_eq!(r[0], 0.0);
        assert!((r[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_flows_is_fine() {
        let p = Problem {
            capacity: vec![1.0],
            flows: vec![],
        };
        assert!(solve(&p).is_empty());
    }

    #[test]
    fn rounds_count_the_filling_rounds() {
        // The capped flow freezes first, then the link saturates.
        let mut s = Solver::new(vec![1.0]);
        s.push_flow([0], 0.2);
        s.push_flow([0], f64::INFINITY);
        s.solve();
        assert_eq!(s.rounds(), 2);
        s.clear();
        assert_eq!(s.num_flows(), 0);
        assert!(s.solve().is_empty());
        assert_eq!(s.rounds(), 0);
    }

    #[test]
    #[should_panic(expected = "negative or NaN link capacity")]
    fn negative_capacity_is_rejected_up_front() {
        Solver::new(vec![1.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn out_of_range_link_is_rejected() {
        Solver::new(vec![1.0]).push_flow([1], f64::INFINITY);
    }

    /// Rate bits, or the panic message.
    fn outcome(solve: impl FnOnce() -> Vec<f64>) -> Result<Vec<u64>, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(solve))
            .map(|r| r.iter().map(|x| x.to_bits()).collect())
            .map_err(|e| match e.downcast::<String>() {
                Ok(msg) => *msg,
                Err(e) => e.downcast_ref::<&str>().unwrap_or(&"").to_string(),
            })
    }

    #[test]
    fn infinite_capacity_overflow_matches_the_reference() {
        // `∞ − 3 · 1e308` is NaN: the reference never counts a NaN residual
        // as saturated, so after the capped flow freezes the two uncapped
        // flows are unbounded. The solver must fail the same way.
        let p = Problem {
            capacity: vec![f64::INFINITY],
            flows: vec![capped(&[0], 1e308), flow(&[0]), flow(&[0])],
        };
        let want = outcome(|| p.solve());
        assert!(
            want.as_ref().is_err_and(|m| m.contains("unbounded")),
            "{want:?}"
        );
        assert_eq!(outcome(|| solve(&p)), want);
        // Without the overflow both solve to the same bits.
        let p = Problem {
            capacity: vec![f64::INFINITY, 4.0],
            flows: vec![capped(&[0], 1e300), flow(&[0, 1]), capped(&[], 2.0)],
        };
        assert_eq!(outcome(|| solve(&p)), outcome(|| p.solve()));
    }

    /// Random problem generator for the property tests.
    fn random_problem(seed: u64, nl: usize, nf: usize) -> Problem {
        let mut rng = StdRng::seed_from_u64(seed);
        let capacity: Vec<f64> = (0..nl).map(|_| rng.random_range(0.1..100.0)).collect();
        let flows = (0..nf)
            .map(|_| {
                let k = rng.random_range(1..=nl.min(4));
                let mut links: Vec<usize> = (0..nl).collect();
                for i in 0..k {
                    let j = rng.random_range(i..nl);
                    links.swap(i, j);
                }
                links.truncate(k);
                let rate_cap = if rng.random_range(0.0..1.0) < 0.3 {
                    rng.random_range(0.05..50.0)
                } else {
                    f64::INFINITY
                };
                FlowSpec { links, rate_cap }
            })
            .collect();
        Problem { capacity, flows }
    }

    /// Link capacities drawn to provoke ties: a small palette (with a zero
    /// and repeats) or a random value.
    fn tie_prone_capacities(rng: &mut StdRng, nl: usize) -> Vec<f64> {
        const PALETTE: [f64; 5] = [0.0, 1.0, 3.0, 125e6, 81.92e6];
        (0..nl)
            .map(|_| match rng.random_range(0..4usize) {
                0 => PALETTE[rng.random_range(0..PALETTE.len())],
                1 => 10.0,
                _ => rng.random_range(0.1..100.0),
            })
            .collect()
    }

    /// One flow set over `capacity`: 0–4-link routes (linkless flows
    /// included), caps drawn from a tie-prone palette, at random, or set
    /// exactly to a crossed link's first-round fair share.
    fn tie_prone_flows(rng: &mut StdRng, capacity: &[f64], nf: usize) -> Vec<FlowSpec> {
        let nl = capacity.len();
        let mut flows: Vec<FlowSpec> = (0..nf)
            .map(|_| {
                let k = rng.random_range(0..=nl.min(4));
                let mut links: Vec<usize> = (0..nl).collect();
                for i in 0..k {
                    let j = rng.random_range(i..nl);
                    links.swap(i, j);
                }
                links.truncate(k);
                let rate_cap = match rng.random_range(0..5usize) {
                    0 | 1 => f64::INFINITY,
                    2 => [0.5, 1.0, 2.5][rng.random_range(0..3usize)],
                    _ => rng.random_range(0.05..50.0),
                };
                FlowSpec { links, rate_cap }
            })
            .collect();
        let mut on_link = vec![0u32; nl];
        for f in &flows {
            for &l in &f.links {
                on_link[l] += 1;
            }
        }
        for f in &mut flows {
            if let Some(&l) = f.links.first() {
                if rng.random_range(0..4usize) == 0 {
                    f.rate_cap = capacity[l] / f64::from(on_link[l]);
                }
            }
        }
        flows
    }

    /// Asserts that `solver` (reused, so its buffers hold the previous
    /// problem) returns the reference's rates, compared by `to_bits()`.
    fn assert_bit_identical(solver: &mut Solver, capacity: &[f64], flows: &[FlowSpec]) {
        let want = Problem {
            capacity: capacity.to_vec(),
            flows: flows.to_vec(),
        }
        .solve();
        let got = solve_on(solver, flows);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "flow {i}: solver {g} vs reference {w}\nflows: {flows:?}\ncapacity: {capacity:?}"
            );
        }
    }

    proptest! {
        /// Feasibility: no link carries more than its capacity.
        #[test]
        fn rates_are_feasible(seed in 0u64..2000) {
            let p = random_problem(seed, 6, 12);
            let r = solve(&p);
            let mut used = vec![0.0; p.capacity.len()];
            for (f, &rate) in p.flows.iter().zip(&r) {
                prop_assert!(rate >= 0.0);
                prop_assert!(rate <= f.rate_cap + 1e-6);
                for &l in &f.links {
                    used[l] += rate;
                }
            }
            for (l, &u) in used.iter().enumerate() {
                prop_assert!(u <= p.capacity[l] + 1e-6,
                    "link {l} overloaded: {u} > {}", p.capacity[l]);
            }
        }

        /// Max-min optimality: every flow is either at its cap or crosses a
        /// saturated link on which it has a maximal rate (its bottleneck).
        #[test]
        fn every_flow_is_bottlenecked(seed in 0u64..2000) {
            let p = random_problem(seed, 6, 12);
            let r = solve(&p);
            let mut used = vec![0.0; p.capacity.len()];
            for (f, &rate) in p.flows.iter().zip(&r) {
                for &l in &f.links {
                    used[l] += rate;
                }
            }
            for (i, f) in p.flows.iter().enumerate() {
                let at_cap = f.rate_cap.is_finite() && r[i] >= f.rate_cap - 1e-6;
                let bottled = f.links.iter().any(|&l| {
                    let saturated = used[l] >= p.capacity[l] - 1e-6;
                    let is_max = p.flows.iter().enumerate().all(|(j, g)| {
                        !g.links.contains(&l) || r[j] <= r[i] + 1e-6
                    });
                    saturated && is_max
                });
                prop_assert!(at_cap || bottled,
                    "flow {i} (rate {}) has no bottleneck", r[i]);
            }
        }

        /// Bit parity with the reference: several solves with different
        /// flow sets on one solver (so stale buffers would show), over
        /// tie-prone capacities and caps.
        #[test]
        fn solver_matches_reference_bit_for_bit(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let nl = rng.random_range(1..=8usize);
            let capacity = tie_prone_capacities(&mut rng, nl);
            let mut solver = Solver::new(capacity.clone());
            for _ in 0..rng.random_range(1..=5usize) {
                let nf = rng.random_range(0..=24usize);
                let flows = tie_prone_flows(&mut rng, &capacity, nf);
                assert_bit_identical(&mut solver, &capacity, &flows);
            }
        }

        /// Bit parity at simulator scale: a grillon-sized link set with up
        /// to a few hundred flows of 2-link routes, half of them capped at
        /// one shared TCP-window value.
        #[test]
        fn solver_matches_reference_at_scale(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let nl = 47;
            let capacity = vec![125e6; nl];
            let mut solver = Solver::new(capacity.clone());
            for _ in 0..3 {
                let nf = rng.random_range(1..=300usize);
                let flows: Vec<FlowSpec> = (0..nf)
                    .map(|_| {
                        let src = rng.random_range(0..nl);
                        let dst = (src + rng.random_range(1..nl)) % nl;
                        let rate_cap = if rng.random_bool(0.5) { 81.92e6 } else { f64::INFINITY };
                        FlowSpec { links: vec![src, dst], rate_cap }
                    })
                    .collect();
                assert_bit_identical(&mut solver, &capacity, &flows);
            }
        }
    }
}
