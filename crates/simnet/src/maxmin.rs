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
//! (capacities and the freezing tolerance are set once, and the flow set is
//! kept between solves, so a caller adds and removes only the flows that
//! changed) and a filling round touches only the links that still carry
//! unfrozen flows plus the flows it freezes. The `reference` module (tests
//! and the `reference` feature) keeps the original whole-problem rescan as
//! the oracle: [`Solver::solve`] returns its rates bit for bit.

#[cfg(any(test, feature = "reference"))]
pub mod reference;

/// "No cap group": the flow's cap is not finite.
const NO_GROUP: u32 = u32::MAX;

/// A persistent max-min fairness solver over a fixed set of links and a
/// changing set of flows.
///
/// # Slot lifecycle
///
/// [`add_flow`](Self::add_flow) enters a flow and returns its *slot*; the
/// flow stays in every later [`solve`](Self::solve) until
/// [`remove_flow`](Self::remove_flow) frees the slot, which a later
/// `add_flow` may reuse. [`rate`](Self::rate) reads a slot's rate from the
/// most recent solve.
///
/// # Why order cannot move a bit
///
/// A solve's rates depend only on the multiset of `(links, cap)` of the
/// live flows: each round's increment `d` is an exact `min`, each link's
/// residual falls by `d · count` of its unfrozen flows, and a flow freezes
/// at `level.min(cap)` by a test that reads only that round's residuals and
/// `level`. So slot numbers, the order of each link's flow list and the
/// order of the flows sharing a cap never reach the arithmetic, and the
/// rates equal the `reference` solver's whatever sequence of additions and
/// removals built the flow set.
///
/// # Cost
///
/// Each link keeps the list of flows crossing it, and each flow its
/// position in every such list, so adding or removing a flow costs
/// `O(|links|)` (plus `O(G)` when it creates or empties one of the `G`
/// distinct finite caps). Flows are grouped by cap value in ascending
/// order, so no solve sorts. A solve resets residuals, per-link counts and
/// frozen flags in `O(L + F)`, then costs `O(A)` per filling round, where
/// `A` is the number of links still carrying an unfrozen flow, plus
/// `O(|links|)` once per flow when it freezes. Buffers are kept, so once
/// warm neither a solve nor an add/remove cycle allocates.
#[derive(Debug, Clone)]
pub struct Solver {
    capacity: Vec<f64>,
    /// Freezing tolerance: `1e-9 · max(1, max capacity)`.
    eps: f64,
    /// Every slot ever handed out, live or free.
    slots: Vec<Slot>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
    /// Live slots, in no particular order.
    live: Vec<u32>,
    /// Live slots crossing each link (a slot appears once per crossing).
    on_link: Vec<Vec<u32>>,
    /// Cap groups by id, live or free.
    groups: Vec<CapGroup>,
    /// Ids of the non-empty cap groups, in ascending cap order.
    cap_order: Vec<u32>,
    /// Free cap-group ids.
    free_groups: Vec<u32>,
    // Per-solve state, reused across solves.
    residual: Vec<f64>,
    /// Unfrozen flows crossing each link.
    flows_on_link: Vec<u32>,
    /// Links with `flows_on_link > 0`.
    active: Vec<u32>,
    frozen: Vec<bool>,
    rates: Vec<f64>,
    /// Links of the flow being added, checked before any state changes.
    pending: Vec<u32>,
    rounds: u64,
}

/// One flow position of the solver.
#[derive(Debug, Clone, Default)]
struct Slot {
    /// `(link, position of this slot in on_link[link])` per crossing.
    route: Vec<(u32, u32)>,
    cap: f64,
    /// Cap group id ([`NO_GROUP`] for a non-finite cap) and the position
    /// of this slot in its member list.
    group: u32,
    group_pos: u32,
    /// Position in `live`, or `u32::MAX` while free.
    live_pos: u32,
}

/// The live flows sharing one finite cap value.
#[derive(Debug, Clone, Default)]
struct CapGroup {
    cap: f64,
    members: Vec<u32>,
    /// Members not yet frozen in the current solve.
    unfrozen: u32,
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
            slots: Vec::new(),
            free: Vec::new(),
            live: Vec::new(),
            on_link: vec![Vec::new(); nl],
            groups: Vec::new(),
            cap_order: Vec::new(),
            free_groups: Vec::new(),
            residual: vec![0.0; nl],
            flows_on_link: vec![0; nl],
            active: Vec::with_capacity(nl),
            frozen: Vec::new(),
            rates: Vec::new(),
            pending: Vec::new(),
            rounds: 0,
            capacity,
        }
    }

    /// Number of live flows.
    pub fn num_flows(&self) -> usize {
        self.live.len()
    }

    /// Adds a flow crossing `links` with rate cap `rate_cap`
    /// (`f64::INFINITY` for an uncapped flow) and returns its slot. Its
    /// [`rate`](Self::rate) reads 0 until the next [`solve`](Self::solve).
    ///
    /// # Panics
    ///
    /// Panics if a link is out of range or the cap is NaN.
    pub fn add_flow(&mut self, links: impl IntoIterator<Item = usize>, rate_cap: f64) -> usize {
        assert!(!rate_cap.is_nan(), "NaN rate cap");
        assert!(
            self.live.len() < u32::MAX as usize,
            "more than u32::MAX flows"
        );
        let nl = self.capacity.len();
        self.pending.clear();
        for l in links {
            assert!(l < nl, "flow references unknown link {l}");
            self.pending.push(l as u32);
        }
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(Slot::default());
                self.frozen.push(false);
                self.rates.push(0.0);
                (self.slots.len() - 1) as u32
            }
        };
        let s = slot as usize;
        self.rates[s] = 0.0;
        let mut route = std::mem::take(&mut self.slots[s].route);
        route.clear();
        for &l in &self.pending {
            let list = &mut self.on_link[l as usize];
            route.push((l, list.len() as u32));
            list.push(slot);
        }
        let (group, group_pos) = if rate_cap.is_finite() {
            let g = self.group_of(rate_cap);
            let members = &mut self.groups[g as usize].members;
            members.push(slot);
            (g, (members.len() - 1) as u32)
        } else {
            (NO_GROUP, 0)
        };
        self.slots[s] = Slot {
            route,
            cap: rate_cap,
            group,
            group_pos,
            live_pos: self.live.len() as u32,
        };
        self.live.push(slot);
        s
    }

    /// Removes the flow in `slot`, freeing the slot for reuse.
    ///
    /// # Panics
    ///
    /// Panics if `slot` holds no live flow.
    pub fn remove_flow(&mut self, slot: usize) {
        let live_pos = self.slots.get(slot).map_or(u32::MAX, |s| s.live_pos);
        assert!(live_pos != u32::MAX, "slot {slot} holds no live flow");
        // Swap-remove from each crossed link's list, re-pointing the flow
        // that moves into the hole. Entries are re-read each step: with a
        // repeated link, the moved flow may be this one.
        for k in 0..self.slots[slot].route.len() {
            let (l, pos) = self.slots[slot].route[k];
            let list = &mut self.on_link[l as usize];
            list.swap_remove(pos as usize);
            if let Some(&moved) = list.get(pos as usize) {
                let last = list.len() as u32;
                let hop = self.slots[moved as usize]
                    .route
                    .iter_mut()
                    .find(|h| **h == (l, last))
                    .expect("a listed flow records its position");
                hop.1 = pos;
            }
        }
        let Slot {
            group, group_pos, ..
        } = self.slots[slot];
        if group != NO_GROUP {
            let g = &mut self.groups[group as usize];
            g.members.swap_remove(group_pos as usize);
            if let Some(&moved) = g.members.get(group_pos as usize) {
                self.slots[moved as usize].group_pos = group_pos;
            }
            if g.members.is_empty() {
                let cap = g.cap;
                let at = self.cap_position(cap).expect("a live group is ordered");
                self.cap_order.remove(at);
                self.free_groups.push(group);
            }
        }
        self.live.swap_remove(live_pos as usize);
        if let Some(&moved) = self.live.get(live_pos as usize) {
            self.slots[moved as usize].live_pos = live_pos;
        }
        self.slots[slot].live_pos = u32::MAX;
        self.free.push(slot as u32);
    }

    /// Where `cap` sits in `cap_order`: `Ok` at its group, `Err` at the
    /// insertion point.
    fn cap_position(&self, cap: f64) -> Result<usize, usize> {
        self.cap_order
            .binary_search_by(|&g| self.groups[g as usize].cap.total_cmp(&cap))
    }

    /// The id of the group of the finite cap `cap`, created (at its place
    /// in the cap order) if no live flow has it.
    fn group_of(&mut self, cap: f64) -> u32 {
        match self.cap_position(cap) {
            Ok(at) => self.cap_order[at],
            Err(at) => {
                let g = self.free_groups.pop().unwrap_or_else(|| {
                    self.groups.push(CapGroup::default());
                    (self.groups.len() - 1) as u32
                });
                self.groups[g as usize].cap = cap;
                self.cap_order.insert(at, g);
                g
            }
        }
    }

    /// Filling rounds of the most recent [`solve`](Self::solve).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The rate of the flow in `slot` from the most recent
    /// [`solve`](Self::solve).
    #[inline]
    pub fn rate(&self, slot: usize) -> f64 {
        self.rates[slot]
    }

    /// Solves for the max-min fair rate of every live flow; read them with
    /// [`rate`](Self::rate).
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
    pub fn solve(&mut self) {
        self.rounds = 0;
        self.residual.copy_from_slice(&self.capacity);
        self.active.clear();
        for (l, flows) in self.on_link.iter().enumerate() {
            self.flows_on_link[l] = flows.len() as u32;
            if !flows.is_empty() {
                self.active.push(l as u32);
            }
        }
        for &g in &self.cap_order {
            let g = &mut self.groups[g as usize];
            g.unfrozen = g.members.len() as u32;
        }
        let mut next_group = 0; // into `cap_order`

        let mut level = 0.0f64; // common rate of all unfrozen flows
        let mut unfrozen = self.live.len();

        // Flows with no links and no cap would grow forever: freeze them at
        // infinity straight away.
        for &i in &self.live {
            let i = i as usize;
            let slot = &self.slots[i];
            let unbounded = slot.route.is_empty() && slot.cap.is_infinite();
            self.frozen[i] = unbounded;
            if unbounded {
                self.rates[i] = f64::INFINITY;
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
            // The freeze walk below leaves `next_group` on the smallest cap
            // with an unfrozen flow.
            if let Some(&g) = self.cap_order.get(next_group) {
                d = d.min(self.groups[g as usize].cap - level);
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
                    for k in 0..self.on_link[l].len() {
                        let i = self.on_link[l][k] as usize;
                        if !self.frozen[i] {
                            self.freeze(i, level);
                            unfrozen -= 1;
                        }
                    }
                }
            }
            while let Some(&g) = self.cap_order.get(next_group) {
                let g = g as usize;
                if self.groups[g].unfrozen > 0 {
                    if level < self.groups[g].cap - self.eps {
                        break;
                    }
                    for k in 0..self.groups[g].members.len() {
                        let i = self.groups[g].members[k] as usize;
                        if !self.frozen[i] {
                            self.freeze(i, level);
                            unfrozen -= 1;
                        }
                    }
                }
                next_group += 1;
            }
            assert!(
                unfrozen < before,
                "progressive filling stalled (d = {d}, level = {level})"
            );
            let flows_on_link = &self.flows_on_link;
            self.active.retain(|&l| flows_on_link[l as usize] > 0);
        }
    }

    /// Freezes flow `i` at the current `level` (or its cap, if lower).
    fn freeze(&mut self, i: usize, level: f64) {
        let slot = &self.slots[i];
        self.rates[i] = level.min(slot.cap);
        self.frozen[i] = true;
        for &(l, _) in &slot.route {
            self.flows_on_link[l as usize] -= 1;
        }
        if slot.group != NO_GROUP {
            self.groups[slot.group as usize].unfrozen -= 1;
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

    /// The slots listed on link `l`, in list order.
    fn listed(solver: &Solver, l: usize) -> Vec<usize> {
        solver.on_link[l].iter().map(|&i| i as usize).collect()
    }

    fn add(solver: &mut Solver, f: &FlowSpec) -> usize {
        solver.add_flow(f.links.iter().copied(), f.rate_cap)
    }

    /// Solves `p` with a fresh [`Solver`]; rates in flow order.
    fn solve(p: &Problem) -> Vec<f64> {
        let mut solver = Solver::new(p.capacity.clone());
        let slots: Vec<usize> = p.flows.iter().map(|f| add(&mut solver, f)).collect();
        solver.solve();
        slots.iter().map(|&s| solver.rate(s)).collect()
    }

    /// Solves the live flows of `solver` (`(slot, flow)` pairs, which
    /// together must be its whole flow set) and asserts that every rate
    /// equals the reference's, compared by `to_bits()`.
    fn assert_bit_identical(solver: &mut Solver, capacity: &[f64], live: &[(usize, FlowSpec)]) {
        assert_eq!(solver.num_flows(), live.len());
        let flows: Vec<FlowSpec> = live.iter().map(|(_, f)| f.clone()).collect();
        let want = Problem {
            capacity: capacity.to_vec(),
            flows,
        }
        .solve();
        solver.solve();
        for ((slot, f), w) in live.iter().zip(&want) {
            let g = solver.rate(*slot);
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "slot {slot} {f:?}: solver {g} vs reference {w}\nlive: {live:?}\ncapacity: {capacity:?}"
            );
        }
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
        let a = s.add_flow([0], 0.2);
        let b = s.add_flow([0], f64::INFINITY);
        s.solve();
        assert_eq!(s.rounds(), 2);
        s.remove_flow(a);
        s.remove_flow(b);
        assert_eq!(s.num_flows(), 0);
        s.solve();
        assert_eq!(s.rounds(), 0);
    }

    #[test]
    fn removing_a_middle_flow_then_resolving_matches_the_reference() {
        // Link 0 lists f0, f1, f2, f3; f1 is also first on link 1. Removing
        // it moves f3 into its place on link 0 and f4 on link 1.
        let capacity = [10.0, 4.0];
        let mut s = Solver::new(capacity.to_vec());
        let specs = [
            flow(&[0]),
            capped(&[0, 1], 3.0),
            flow(&[0]),
            capped(&[1, 0], 1.5),
            flow(&[1]),
        ];
        let mut live: Vec<(usize, FlowSpec)> =
            specs.iter().map(|f| (add(&mut s, f), f.clone())).collect();
        assert_bit_identical(&mut s, &capacity, &live);
        let (slot, _) = live.remove(1);
        s.remove_flow(slot);
        assert_eq!(listed(&s, 0), [0, 3, 2]);
        assert_eq!(listed(&s, 1), [4, 3]);
        assert_bit_identical(&mut s, &capacity, &live);
        // And again from the new middle, down to an empty solver.
        while !live.is_empty() {
            let (slot, _) = live.remove(live.len() / 2);
            s.remove_flow(slot);
            assert_bit_identical(&mut s, &capacity, &live);
        }
        assert!(s.on_link.iter().all(Vec::is_empty));
        assert!(s.cap_order.is_empty());
    }

    #[test]
    fn a_freed_slot_is_reused_with_a_new_route_and_cap() {
        let capacity = [10.0, 10.0, 10.0];
        let mut s = Solver::new(capacity.to_vec());
        let a = s.add_flow([0], f64::INFINITY);
        let b = s.add_flow([0, 1], 2.0);
        s.solve();
        assert_eq!(s.rate(a), 8.0);
        s.remove_flow(a);
        let c = s.add_flow([1, 2], 0.5);
        assert_eq!(c, a, "the freed slot is reused");
        assert_eq!(s.rate(c), 0.0, "an unsolved flow reads 0");
        let live = [(b, capped(&[0, 1], 2.0)), (c, capped(&[1, 2], 0.5))];
        assert_bit_identical(&mut s, &capacity, &live);
        assert_eq!(s.rate(c), 0.5);
        assert_eq!(listed(&s, 0), [b]);
        assert_eq!(listed(&s, 2), [c]);
    }

    #[test]
    fn a_new_flow_may_cross_a_removed_flows_links() {
        let capacity = [6.0, 3.0];
        let mut s = Solver::new(capacity.to_vec());
        let a = s.add_flow([0, 1], 1.0);
        let b = s.add_flow([1], f64::INFINITY);
        s.remove_flow(a);
        let c = s.add_flow([0, 1], f64::INFINITY);
        let live = [(b, flow(&[1])), (c, flow(&[0, 1]))];
        assert_bit_identical(&mut s, &capacity, &live);
        assert_eq!(s.rate(c), 1.5);
    }

    #[test]
    fn a_route_may_cross_a_link_twice() {
        // The reference counts a repeated link twice; removal must unhook
        // both crossings, whichever flow moves into the holes.
        let capacity = [9.0, 5.0];
        let mut s = Solver::new(capacity.to_vec());
        let a = s.add_flow([0, 0], f64::INFINITY);
        let b = s.add_flow([0], f64::INFINITY);
        let c = s.add_flow([1, 0, 1], 4.0);
        let mut live = vec![
            (a, flow(&[0, 0])),
            (b, flow(&[0])),
            (c, capped(&[1, 0, 1], 4.0)),
        ];
        assert_bit_identical(&mut s, &capacity, &live);
        s.remove_flow(a);
        live.remove(0);
        assert_bit_identical(&mut s, &capacity, &live);
        s.remove_flow(c);
        live.pop();
        assert_bit_identical(&mut s, &capacity, &live);
        assert_eq!(listed(&s, 0), [b]);
        assert!(s.on_link[1].is_empty());
    }

    #[test]
    fn new_caps_join_the_cap_order_below_between_and_above() {
        let capacity = [100.0];
        let mut s = Solver::new(capacity.to_vec());
        let caps = |s: &Solver| -> Vec<f64> {
            s.cap_order
                .iter()
                .map(|&g| s.groups[g as usize].cap)
                .collect()
        };
        let mut live = Vec::new();
        for cap in [2.0, 5.0, 1.0, 3.0, 9.0, 2.0, f64::INFINITY] {
            live.push((s.add_flow([0], cap), capped(&[0], cap)));
            assert_bit_identical(&mut s, &capacity, &live);
        }
        assert_eq!(caps(&s), [1.0, 2.0, 3.0, 5.0, 9.0]);
        // Emptying a group drops it from the order; a new value reuses it.
        let (slot, _) = live.remove(3);
        s.remove_flow(slot);
        assert_eq!(caps(&s), [1.0, 2.0, 5.0, 9.0]);
        assert_bit_identical(&mut s, &capacity, &live);
        live.push((s.add_flow([0], 4.0), capped(&[0], 4.0)));
        assert_eq!(caps(&s), [1.0, 2.0, 4.0, 5.0, 9.0]);
        assert_eq!(s.groups.len(), 5, "the emptied group was recycled");
        assert_bit_identical(&mut s, &capacity, &live);
        // A group with two members survives losing one.
        let (slot, _) = live.remove(0);
        s.remove_flow(slot);
        assert_eq!(caps(&s), [1.0, 2.0, 4.0, 5.0, 9.0]);
        assert_bit_identical(&mut s, &capacity, &live);
    }

    #[test]
    #[should_panic(expected = "negative or NaN link capacity")]
    fn negative_capacity_is_rejected_up_front() {
        Solver::new(vec![1.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn out_of_range_link_is_rejected() {
        Solver::new(vec![1.0]).add_flow([1], f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "NaN rate cap")]
    fn nan_cap_is_rejected() {
        Solver::new(vec![1.0]).add_flow([0], f64::NAN);
    }

    #[test]
    #[should_panic(expected = "holds no live flow")]
    fn removing_a_free_slot_is_rejected() {
        let mut s = Solver::new(vec![1.0]);
        let a = s.add_flow([0], f64::INFINITY);
        s.remove_flow(a);
        s.remove_flow(a);
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

        /// Bit parity with the reference over a random sequence of
        /// additions and removals on one solver (so stale lists, positions
        /// and cap groups would show), over tie-prone capacities and caps;
        /// now and then every flow is replaced at once.
        #[test]
        fn solver_matches_reference_bit_for_bit(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let nl = rng.random_range(1..=8usize);
            let capacity = tie_prone_capacities(&mut rng, nl);
            let mut solver = Solver::new(capacity.clone());
            let mut live: Vec<(usize, FlowSpec)> = Vec::new();
            for _ in 0..rng.random_range(1..=10usize) {
                let replace_all = rng.random_range(0..5usize) == 0;
                let p_remove = if replace_all { 1.0 } else { rng.random_range(0.0..0.6) };
                let mut k = 0;
                while k < live.len() {
                    if rng.random_bool(p_remove) {
                        solver.remove_flow(live.swap_remove(k).0);
                    } else {
                        k += 1;
                    }
                }
                let nf = rng.random_range(0..=12usize);
                for f in tie_prone_flows(&mut rng, &capacity, nf) {
                    live.push((add(&mut solver, &f), f));
                }
                assert_bit_identical(&mut solver, &capacity, &live);
            }
        }

        /// Bit parity at simulator scale: a grillon-sized link set with up
        /// to a few hundred flows of 2-link routes, half of them capped at
        /// one shared TCP-window value, then event-sized changes (a few
        /// flows leave, a few arrive) between solves.
        #[test]
        fn solver_matches_reference_at_scale(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let nl = 47;
            let capacity = vec![125e6; nl];
            let mut solver = Solver::new(capacity.clone());
            let mut live: Vec<(usize, FlowSpec)> = Vec::new();
            let arrive = |rng: &mut StdRng, solver: &mut Solver, live: &mut Vec<_>, n| {
                for _ in 0..n {
                    let src = rng.random_range(0..nl);
                    let dst = (src + rng.random_range(1..nl)) % nl;
                    let rate_cap = if rng.random_bool(0.5) { 81.92e6 } else { f64::INFINITY };
                    let f = FlowSpec { links: vec![src, dst], rate_cap };
                    live.push((add(solver, &f), f));
                }
            };
            let n = rng.random_range(1..=300usize);
            arrive(&mut rng, &mut solver, &mut live, n);
            assert_bit_identical(&mut solver, &capacity, &live);
            for _ in 0..4 {
                for _ in 0..rng.random_range(0..=4usize).min(live.len()) {
                    let k = rng.random_range(0..live.len());
                    solver.remove_flow(live.swap_remove(k).0);
                }
                let n = rng.random_range(0..=4usize);
                arrive(&mut rng, &mut solver, &mut live, n);
                assert_bit_identical(&mut solver, &capacity, &live);
            }
        }
    }
}
