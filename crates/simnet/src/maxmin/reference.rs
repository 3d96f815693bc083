//! The retained max-min solver: today's [`Solver`](super::Solver) must
//! match it bit for bit.
//!
//! This is the straightforward progressive filling the simulator ran
//! before [`Solver`](super::Solver): every solve allocates, and every
//! filling round scans every link and every flow (and folds the freezing
//! tolerance over every link once per flow). It is compiled only for tests
//! and under the `reference` feature, as the oracle of the bit-parity
//! suite and the "before" side of the `maxmin` bench.

/// One flow of a [`Problem`]: the link indices it crosses and its rate cap
/// (`f64::INFINITY` for uncapped flows).
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Indices into the problem's link-capacity array.
    pub links: Vec<usize>,
    /// Per-flow rate cap (`β' = Wmax/RTT`), or infinity.
    pub rate_cap: f64,
}

/// A max-min fairness problem: link capacities plus flows.
#[derive(Debug, Clone, Default)]
pub struct Problem {
    /// Capacity of each link (bytes/s). Index = link id.
    pub capacity: Vec<f64>,
    /// The competing flows.
    pub flows: Vec<FlowSpec>,
}

impl Problem {
    /// Solves for the max-min fair rate of every flow.
    ///
    /// Flows crossing no link are only limited by their cap (or unbounded).
    /// Runs in `O(rounds · F · L)` with at most one round per flow: the
    /// freezing tolerance is folded over all `L` links once per flow in
    /// every round.
    ///
    /// # Panics
    ///
    /// Panics if a flow references an out-of-range link, a capacity is
    /// negative, or a cap is NaN.
    pub fn solve(&self) -> Vec<f64> {
        let nf = self.flows.len();
        let nl = self.capacity.len();
        for c in &self.capacity {
            assert!(*c >= 0.0 && !c.is_nan(), "negative or NaN link capacity");
        }
        let mut residual = self.capacity.clone();
        let mut flows_on_link = vec![0u32; nl];
        for f in &self.flows {
            assert!(!f.rate_cap.is_nan(), "NaN rate cap");
            for &l in &f.links {
                assert!(l < nl, "flow references unknown link {l}");
                flows_on_link[l] += 1;
            }
        }

        let mut rate = vec![0.0f64; nf];
        let mut frozen = vec![false; nf];
        let mut level = 0.0f64; // common rate of all unfrozen flows
        let mut unfrozen = nf;

        // Flows with no links and no cap would grow forever: freeze them at
        // infinity straight away.
        for (i, f) in self.flows.iter().enumerate() {
            if f.links.is_empty() && f.rate_cap.is_infinite() {
                rate[i] = f64::INFINITY;
                frozen[i] = true;
                unfrozen -= 1;
            }
        }

        while unfrozen > 0 {
            // Largest uniform increment before a link saturates or a flow
            // hits its cap.
            let mut d = f64::INFINITY;
            for l in 0..nl {
                if flows_on_link[l] > 0 {
                    d = d.min(residual[l] / f64::from(flows_on_link[l]));
                }
            }
            for (i, f) in self.flows.iter().enumerate() {
                if !frozen[i] && f.rate_cap.is_finite() {
                    d = d.min(f.rate_cap - level);
                }
            }
            assert!(
                d.is_finite(),
                "unbounded max-min problem: an unfrozen flow crosses no \
                 saturable link and has no cap"
            );
            let d = d.max(0.0);
            level += d;
            for l in 0..nl {
                residual[l] -= d * f64::from(flows_on_link[l]);
            }

            // Freeze flows bottlenecked by a saturated link or their cap.
            let mut froze_any = false;
            for (i, f) in self.flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                let eps = 1e-9 * self.capacity.iter().fold(1.0f64, |a, &b| a.max(b));
                let at_cap = f.rate_cap.is_finite() && level >= f.rate_cap - eps;
                let at_link = f.links.iter().any(|&l| residual[l] <= eps);
                if at_cap || at_link {
                    rate[i] = level.min(f.rate_cap);
                    frozen[i] = true;
                    unfrozen -= 1;
                    froze_any = true;
                    for &l in &f.links {
                        flows_on_link[l] -= 1;
                    }
                }
            }
            assert!(
                froze_any,
                "progressive filling stalled (d = {d}, level = {level})"
            );
        }
        rate
    }
}
