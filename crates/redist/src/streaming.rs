//! Streaming redistribution-time estimation — the scalar cost without the
//! transfer matrix.
//!
//! The mapping engine evaluates `estimate_time(&redistribute(…))` for every
//! (task, candidate-set) pair, but only ever consumes the resulting scalar:
//! materializing the `Vec<Transfer>` per evaluation is pure allocation
//! traffic. [`RedistEstimator::estimate_cost`] walks the sender/receiver
//! block intervals in the *same order* as [`redistribute`] and folds each
//! would-be transfer directly into the per-link byte accumulators and flow
//! caps that [`estimate_time`] would compute — producing a **bit-identical**
//! `f64` (same floating-point operations in the same order) with zero
//! allocation per call (the per-link scratch is reused across calls).
//!
//! [`RedistCache`] adds memoization on top: arrival times keyed per
//! (caller-chosen slot, payload, candidate set). The intended slot is one
//! already-*placed* producer task — its processor set and finish time are
//! then immutable, so a cached arrival never goes stale, and every
//! consumer edge of that producer shares the same entries.
//!
//! # One processor to one processor
//!
//! Most arrivals the mapping engine asks for move data from one processor
//! to one processor. There the block walk reduces to a single transfer of
//! the whole payload (the 1×1 case of the block-boundary schedule), so
//! `RedistEstimator::one_to_one_cost` prices it in closed form from the
//! cached pair route, with the very operations the walk would perform.
//! Such arrivals are cheaper to recompute than to look up, so
//! [`RedistCache::arrival`] answers them without touching its memo; every
//! arrival with a wider source or destination set keeps the memo.
//!
//! [`redistribute`]: crate::matrix::redistribute
//! [`estimate_time`]: crate::estimate::estimate_time

use rats_platform::{LinkId, Platform, ProcSet, SetMemo};

use crate::block::{block_interval, block_owner_range};

/// The fixed per-(sender, receiver) route facts of one platform, computed
/// lazily once per processor pair: accumulating a transfer then touches only
/// the cached link ids — no `Route` is rebuilt and no
/// [`Platform::flow_rate_cap`] re-derives the route a second time (which is
/// what `estimate_time` does per transfer).
#[derive(Debug, Clone, Copy)]
struct PairRoute {
    /// One-way path latency.
    latency_s: f64,
    /// Per-flow rate cap: `min(min link bandwidth, Wmax/RTT)` — exactly the
    /// `cap` `estimate_time` computes per transfer.
    cap: f64,
    /// Link indices crossed, in route order.
    links: [u32; 4],
    len: u8,
    init: bool,
}

const UNINIT_PAIR: PairRoute = PairRoute {
    latency_s: 0.0,
    cap: 0.0,
    links: [0; 4],
    len: 0,
    init: false,
};

/// Reusable scratch state for streaming redistribution-time estimates.
///
/// Construction sizes the per-link accumulators and the pair-route table
/// for **one** platform; an estimator must not be shared across platforms
/// (debug-asserted). Reusing it keeps every call allocation-free.
#[derive(Debug, Clone)]
pub struct RedistEstimator {
    /// Bytes accumulated per link this call; all-zero between calls.
    per_link: Vec<f64>,
    /// Links touched this call (indices into `per_link`).
    touched: Vec<u32>,
    /// Lazily filled route facts, indexed `src · P + dst`. The table itself
    /// is also allocated lazily, on the first exact estimate: its P² entries
    /// are the dominant setup cost at small DAG sizes (a few dozen tasks
    /// finish mapping before ever amortizing an eager table).
    pairs: Vec<PairRoute>,
    num_procs: usize,
    /// ≥ any path latency on the platform (slightly inflated).
    ub_latency: f64,
    /// ≥ `1 / cap` for any processor pair (slightly inflated).
    ub_inv_cap: f64,
}

impl RedistEstimator {
    /// An estimator with scratch sized for `platform`.
    pub fn new(platform: &Platform) -> Self {
        let p = platform.num_procs() as usize;
        let mut min_bw = f64::INFINITY;
        let mut max_link_latency = 0.0f64;
        for l in 0..platform.num_links() {
            let link = platform.link(LinkId::from_index(l));
            min_bw = min_bw.min(link.bandwidth_bps);
            max_link_latency = max_link_latency.max(link.latency_s);
        }
        // A route crosses at most 2 links on a flat interconnect and 4 on a
        // hierarchical one; inflate every bound by 1 + 1e-9 so
        // floating-point rounding in the exact path can never make a true
        // estimate exceed the bound.
        const SLACK: f64 = 1.0 + 1e-9;
        let max_route_links = if platform.is_hierarchical() { 4.0 } else { 2.0 };
        let ub_latency = max_route_links * max_link_latency * SLACK;
        let min_cap = if ub_latency > 0.0 {
            min_bw.min(platform.wmax_bytes() / (2.0 * ub_latency))
        } else {
            min_bw
        };
        Self {
            per_link: vec![0.0; platform.num_links()],
            touched: Vec::with_capacity(platform.num_links().min(64)),
            pairs: Vec::new(),
            num_procs: p,
            ub_latency,
            ub_inv_cap: (1.0 / min_cap) * SLACK,
        }
    }

    /// A sound upper bound on [`Self::estimate_cost`] for *any* source and
    /// destination sets on this estimator's platform: no redistribution of
    /// `total_bytes` bytes can take longer. Three flops — cheap enough to
    /// prune exact evaluations that cannot win a max (the streaming
    /// engine's data-ready pruning relies on this).
    #[inline]
    pub fn cost_upper_bound(&self, total_bytes: f64) -> f64 {
        self.ub_latency + total_bytes * self.ub_inv_cap
    }

    /// The `(latency, inverse capacity)` coefficients behind
    /// [`Self::cost_upper_bound`] — callers on hot paths can fold
    /// `lat + bytes * inv` inline without reaching through the estimator
    /// (the expression must mirror `cost_upper_bound` exactly; pinned by
    /// its doc contract).
    pub fn upper_bound_coeffs(&self) -> (f64, f64) {
        (self.ub_latency, self.ub_inv_cap)
    }

    /// The cached route facts of the ordered pair `(sp, dp)`.
    #[inline]
    fn pair(&mut self, platform: &Platform, sp: u32, dp: u32) -> PairRoute {
        if self.pairs.is_empty() {
            self.pairs = vec![UNINIT_PAIR; self.num_procs * self.num_procs];
        }
        let idx = sp as usize * self.num_procs + dp as usize;
        let cached = self.pairs[idx];
        if cached.init {
            return cached;
        }
        let route = platform.route(sp, dp);
        let mut links = [0u32; 4];
        let mut min_bw = f64::INFINITY;
        for (i, &l) in route.links().iter().enumerate() {
            links[i] = l.index() as u32;
            min_bw = min_bw.min(platform.link(l).bandwidth_bps);
        }
        let len = route.links().len();
        let entry = PairRoute {
            latency_s: route.latency_s,
            cap: min_bw.min(platform.flow_rate_cap(sp, dp)),
            links,
            len: len as u8,
            init: true,
        };
        self.pairs[idx] = entry;
        entry
    }

    /// The contention-free duration of redistributing `total_bytes` bytes
    /// from the ordered set `src` to the ordered set `dst` on `platform` —
    /// exactly `estimate_time(&redistribute(total_bytes, src, dst),
    /// platform)`, computed in one pass without building the transfer list.
    ///
    /// # Panics
    ///
    /// Panics if either set is empty or `total_bytes` is negative or
    /// non-finite (mirroring [`redistribute`](crate::matrix::redistribute)).
    pub fn estimate_cost(
        &mut self,
        total_bytes: f64,
        src: &ProcSet,
        dst: &ProcSet,
        platform: &Platform,
    ) -> f64 {
        self.walk(total_bytes, src.as_slice(), dst.as_slice(), platform)
    }

    /// The asserts every estimate starts with.
    #[inline]
    fn check_inputs(&self, total_bytes: f64, platform: &Platform) {
        assert!(
            total_bytes.is_finite() && total_bytes >= 0.0,
            "data size must be finite and non-negative, got {total_bytes}"
        );
        debug_assert!(
            self.num_procs == platform.num_procs() as usize
                && self.per_link.len() == platform.num_links(),
            "a RedistEstimator is bound to the platform it was built for"
        );
    }

    /// [`Self::estimate_cost`] over rank-ordered processor slices: the
    /// block walk.
    fn walk(&mut self, total_bytes: f64, src: &[u32], dst: &[u32], platform: &Platform) -> f64 {
        assert!(!src.is_empty() && !dst.is_empty(), "empty processor set");
        self.check_inputs(total_bytes, platform);
        if total_bytes == 0.0 {
            return 0.0;
        }
        let (p, q) = (src.len() as u32, dst.len() as u32);
        // Same sliver threshold as `redistribute` (fp boundary noise).
        let eps = total_bytes / f64::from(p.max(q)) * 1e-6;
        let mut any_transfer = false;
        let mut max_latency = 0.0f64;
        let mut max_flow_time = 0.0f64;
        for i in 0..p {
            let (slo, shi) = block_interval(total_bytes, p, i);
            let Some((j0, j1)) = block_owner_range(total_bytes, q, slo, shi) else {
                continue;
            };
            for j in j0..=j1 {
                let (dlo, dhi) = block_interval(total_bytes, q, j);
                let overlap = shi.min(dhi) - slo.max(dlo);
                if overlap <= eps {
                    continue;
                }
                let (sp, dp) = (src[i as usize], dst[j as usize]);
                if sp == dp {
                    // Self communication is free and crosses no link.
                    continue;
                }
                any_transfer = true;
                let pair = self.pair(platform, sp, dp);
                max_latency = max_latency.max(pair.latency_s);
                for &l in &pair.links[..pair.len as usize] {
                    let idx = l as usize;
                    if self.per_link[idx] == 0.0 {
                        self.touched.push(l);
                    }
                    self.per_link[idx] += overlap;
                }
                max_flow_time = max_flow_time.max(overlap / pair.cap);
            }
        }
        if !any_transfer {
            return 0.0;
        }
        let mut link_time = 0.0f64;
        for &idx in &self.touched {
            let bytes = self.per_link[idx as usize];
            let bw = platform
                .link(LinkId::from_index(idx as usize))
                .bandwidth_bps;
            link_time = link_time.max(bytes / bw);
        }
        // Restore the all-zero invariant for the next call.
        for &idx in &self.touched {
            self.per_link[idx as usize] = 0.0;
        }
        self.touched.clear();
        max_latency + link_time.max(max_flow_time)
    }

    /// `estimate_cost(total_bytes, {sp}, {dp}, platform)`, bit for bit, in
    /// closed form.
    ///
    /// With one processor on each side the walk makes at most one
    /// transfer, of the whole payload: zero bytes or the same processor
    /// cost `0.0`, and otherwise every link of the route carries
    /// `total_bytes` once. The closed form performs exactly the walk's
    /// operations on that one transfer: the latency folded from `0.0`,
    /// the link time folded from `0.0` with `max(bytes / bandwidth)` in
    /// route order, and `latency + link_time.max(flow time)`. This relies on
    /// the route crossing each link once, as every route of
    /// [`Platform::route`] does (debug-asserted): the walk would charge a
    /// link crossed twice the payload twice.
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes` is negative or non-finite.
    fn one_to_one_cost(&mut self, total_bytes: f64, sp: u32, dp: u32, platform: &Platform) -> f64 {
        self.check_inputs(total_bytes, platform);
        if total_bytes == 0.0 || sp == dp {
            return 0.0;
        }
        let pair = self.pair(platform, sp, dp);
        let links = &pair.links[..pair.len as usize];
        debug_assert!(
            (1..links.len()).all(|i| !links[..i].contains(&links[i])),
            "a route crosses each link once"
        );
        let mut link_time = 0.0f64;
        for &l in links {
            let bw = platform.link(LinkId::from_index(l as usize)).bandwidth_bps;
            link_time = link_time.max(total_bytes / bw);
        }
        0.0f64.max(pair.latency_s) + link_time.max(0.0f64.max(total_bytes / pair.cap))
    }
}

/// One-shot streaming estimate (allocates a fresh scratch; use
/// [`RedistEstimator`] or [`RedistCache`] on hot paths).
pub fn estimate_cost(total_bytes: f64, src: &ProcSet, dst: &ProcSet, platform: &Platform) -> f64 {
    RedistEstimator::new(platform).estimate_cost(total_bytes, src, dst, platform)
}

/// Memoized arrival times over a streaming estimator.
///
/// A *slot* identifies one immutable producer context — in the mapping
/// engine, one **placed producer task**: its ordered processor set (`src`)
/// and finish time (`src_finish`) can never change once placed. Under that
/// contract, the arrival time of `total_bytes` produced in that context on
/// a candidate set depends only on `(slot, total_bytes, candidate)`, which
/// is exactly the cache key. Keying per producer (rather than per edge)
/// lets every consumer of the same producer share entries — and since task
/// graphs commonly fan the same payload out to all children, sibling
/// evaluations of the same candidate hit instead of recomputing.
///
/// Only arrivals with more than one processor on some side go through the
/// memo. One processor to one processor is priced in closed form from the
/// cached pair route, which costs less than a memo lookup, so those
/// arrivals neither read nor fill it, and the hit and miss counts are memo
/// traffic only.
#[derive(Debug, Clone)]
pub struct RedistCache {
    estimator: RedistEstimator,
    /// Memoized `(payload bits, arrival)` pairs per (slot, candidate set) —
    /// see [`SetMemo`] for why an arena-backed linear table fits here.
    arrivals: SetMemo<(u64, f64)>,
    hits: u64,
    misses: u64,
}

impl RedistCache {
    /// A cache with `slots` producer contexts on `platform`.
    pub fn new(platform: &Platform, slots: usize) -> Self {
        Self {
            estimator: RedistEstimator::new(platform),
            arrivals: SetMemo::new(slots),
            hits: 0,
            misses: 0,
        }
    }

    /// `(hits, misses)` of the memo lookups of [`Self::arrival`] so far
    /// (one-to-one arrivals skip the memo and count in neither).
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The time at which `total_bytes` sent by a producer that finishes at
    /// `src_finish` on the rank-ordered processors `src` become available
    /// on `dst`: `src_finish + estimate_cost(total_bytes, src, dst,
    /// platform)`. One processor to one processor is computed in closed
    /// form; every other arrival is memoized per `(slot, total_bytes,
    /// dst)`.
    ///
    /// The caller guarantees that `src` and `src_finish` are the same on
    /// every call with the same `slot` (see the type docs).
    ///
    /// # Panics
    ///
    /// As [`RedistEstimator::estimate_cost`].
    pub fn arrival(
        &mut self,
        slot: usize,
        total_bytes: f64,
        src: &[u32],
        src_finish: f64,
        dst: &ProcSet,
        platform: &Platform,
    ) -> f64 {
        if let (&[sp], &[dp]) = (src, dst.as_slice()) {
            return src_finish
                + self
                    .estimator
                    .one_to_one_cost(total_bytes, sp, dp, platform);
        }
        let bytes_bits = total_bytes.to_bits();
        if let Some((_, a)) = self.arrivals.get(slot, dst, |(b, _)| *b == bytes_bits) {
            self.hits += 1;
            return a;
        }
        self.misses += 1;
        let arrival = src_finish
            + self
                .estimator
                .walk(total_bytes, src, dst.as_slice(), platform);
        self.arrivals.insert(slot, dst, (bytes_bits, arrival));
        arrival
    }

    /// The underlying streaming estimator (for uncached estimates with the
    /// shared scratch).
    pub fn estimator(&mut self) -> &mut RedistEstimator {
        &mut self.estimator
    }

    /// See [`RedistEstimator::cost_upper_bound`].
    #[inline]
    pub fn cost_upper_bound(&self, total_bytes: f64) -> f64 {
        self.estimator.cost_upper_bound(total_bytes)
    }

    /// See [`RedistEstimator::upper_bound_coeffs`].
    pub fn upper_bound_coeffs(&self) -> (f64, f64) {
        self.estimator.upper_bound_coeffs()
    }

    /// Number of memoized arrivals across all slots.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// `true` if nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate_time;
    use crate::matrix::redistribute;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rats_platform::ClusterSpec;

    fn grillon() -> Platform {
        Platform::from_spec(&ClusterSpec::grillon())
    }

    #[test]
    fn matches_matrix_estimate_on_paper_example() {
        let p = grillon();
        let src = ProcSet::from_range(0, 4);
        let dst = ProcSet::from_range(4, 5);
        let via_matrix = estimate_time(&redistribute(10.0, &src, &dst), &p);
        let streamed = estimate_cost(10.0, &src, &dst, &p);
        assert_eq!(streamed, via_matrix, "must be bit-identical");
        assert!(streamed > 0.0);
    }

    #[test]
    fn identical_sets_are_instant_and_scratch_stays_clean() {
        let p = grillon();
        let s = ProcSet::new(vec![3, 7, 11]);
        let mut est = RedistEstimator::new(&p);
        assert_eq!(est.estimate_cost(1e6, &s, &s.clone(), &p), 0.0);
        // Reuse after a free redistribution and after a costly one.
        let dst = ProcSet::from_range(20, 6);
        let a = est.estimate_cost(5e8, &s, &dst, &p);
        let b = est.estimate_cost(5e8, &s, &dst, &p);
        assert_eq!(a, b, "scratch must reset between calls");
    }

    #[test]
    fn zero_bytes_is_instant() {
        let p = grillon();
        let s = ProcSet::from_range(0, 3);
        let d = ProcSet::from_range(5, 4);
        assert_eq!(estimate_cost(0.0, &s, &d, &p), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty processor set")]
    fn rejects_empty_sets() {
        let p = grillon();
        estimate_cost(1.0, &ProcSet::empty(), &ProcSet::from_range(0, 1), &p);
    }

    #[test]
    fn hierarchical_platform_matches_too() {
        let p = Platform::from_spec(&ClusterSpec::grelon());
        // Spans two cabinets: exercises uplink accumulation and window caps.
        let src = ProcSet::from_range(0, 30);
        let dst = ProcSet::from_range(20, 40);
        let via_matrix = estimate_time(&redistribute(2e9, &src, &dst), &p);
        assert_eq!(estimate_cost(2e9, &src, &dst, &p), via_matrix);
    }

    #[test]
    fn cache_memoizes_per_slot_and_candidate() {
        let p = grillon();
        let src = ProcSet::from_range(0, 4);
        let d1 = ProcSet::from_range(4, 5);
        let d2 = ProcSet::from_range(8, 3);
        let mut cache = RedistCache::new(&p, 2);
        assert!(cache.is_empty());
        let a = cache.arrival(0, 1e8, src.as_slice(), 2.5, &d1, &p);
        assert_eq!(a, 2.5 + estimate_cost(1e8, &src, &d1, &p));
        assert_eq!(cache.arrival(0, 1e8, src.as_slice(), 2.5, &d1, &p), a);
        assert_eq!(cache.len(), 1, "repeat lookups must hit the memo");
        let b = cache.arrival(1, 3e7, d1.as_slice(), 4.0, &d2, &p);
        assert_eq!(b, 4.0 + estimate_cost(3e7, &d1, &d2, &p));
        assert_eq!(cache.len(), 2);
        // Distinct payloads through the same producer slot stay distinct.
        let c = cache.arrival(0, 2e8, src.as_slice(), 2.5, &d1, &p);
        assert_eq!(c, 2.5 + estimate_cost(2e8, &src, &d1, &p));
        assert_eq!(cache.arrival(0, 1e8, src.as_slice(), 2.5, &d1, &p), a);
        assert_eq!(cache.hit_stats(), (2, 3));
    }

    #[test]
    fn one_to_one_arrivals_skip_the_memo() {
        let p = Platform::from_spec(&ClusterSpec::grelon());
        let mut cache = RedistCache::new(&p, 3);
        // Same cabinet, across cabinets, and the same processor; then a
        // one-member producer feeding a wider set, which keeps the memo.
        for (slot, sp, dp) in [(0, 3u32, 7u32), (1, 5, 100), (2, 9, 9)] {
            let (src, dst) = (ProcSet::from_slice(&[sp]), ProcSet::from_slice(&[dp]));
            for bytes in [0.0, 1.0, 3e7, 2e9] {
                let a = cache.arrival(slot, bytes, &[sp], 1.25, &dst, &p);
                let expected = 1.25 + estimate_cost(bytes, &src, &dst, &p);
                assert_eq!(a.to_bits(), expected.to_bits(), "{sp}->{dp}, {bytes} B");
            }
        }
        assert!(
            cache.is_empty(),
            "one-to-one arrivals must not fill the memo"
        );
        assert_eq!(cache.hit_stats(), (0, 0), "nor count as memo traffic");
        let wide = ProcSet::from_range(20, 3);
        let a = cache.arrival(0, 3e7, &[3], 1.25, &wide, &p);
        let expected = 1.25 + estimate_cost(3e7, &ProcSet::from_slice(&[3]), &wide, &p);
        assert_eq!(a.to_bits(), expected.to_bits());
        assert_eq!(cache.arrival(0, 3e7, &[3], 1.25, &wide, &p), a);
        assert_eq!((cache.len(), cache.hit_stats()), (1, (1, 1)));
    }

    #[test]
    #[should_panic(expected = "data size must be finite and non-negative")]
    fn one_to_one_rejects_negative_payloads() {
        let p = grillon();
        RedistEstimator::new(&p).one_to_one_cost(-1.0, 0, 1, &p);
    }

    /// The paper's three clusters and one generated platform of every
    /// interconnect layout, with a slower shared resource than the node
    /// links and latencies of their own.
    fn one_to_one_platforms() -> Vec<Platform> {
        use rats_workloads::{TopoKind, TopologyGenSpec};
        let mut specs = ClusterSpec::paper_clusters();
        for kind in TopoKind::ALL {
            let mut gen = TopologyGenSpec::new(format!("gen-{}", kind.as_str()), kind);
            gen.procs = vec![13];
            gen.latency_us = 37.0;
            gen.backbone_mbps = Some(60.0);
            gen.backbone_latency_us = Some(250.0);
            specs.extend(gen.generate());
        }
        specs.iter().map(Platform::from_spec).collect()
    }

    proptest! {
        /// The streaming estimate is bit-identical to materializing the
        /// transfer matrix and estimating it, for arbitrary overlapping
        /// shuffled sets on both platform shapes.
        #[test]
        fn streaming_equals_matrix_estimate(
            total in 1.0f64..1e9,
            p_len in 1u32..48,
            q_len in 1u32..48,
            seed in 0u64..500,
            hierarchical in 0u32..2,
        ) {
            let platform = if hierarchical == 1 {
                Platform::from_spec(&ClusterSpec::grelon())
            } else {
                grillon()
            };
            let n = platform.num_procs();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut all: Vec<u32> = (0..n).collect();
            all.shuffle(&mut rng);
            let src = ProcSet::new(all[..p_len.min(n) as usize].to_vec());
            let mut rest: Vec<u32> = (0..n).collect();
            rest.shuffle(&mut rng);
            let dst = ProcSet::new(rest[..q_len.min(n) as usize].to_vec());
            let via_matrix = estimate_time(&redistribute(total, &src, &dst), &platform);
            let streamed = estimate_cost(total, &src, &dst, &platform);
            prop_assert!(
                streamed == via_matrix,
                "streamed {streamed} != matrix {via_matrix}"
            );
            // The pruning bound must dominate every exact estimate.
            let bound = RedistEstimator::new(&platform).cost_upper_bound(total);
            prop_assert!(
                streamed <= bound,
                "estimate {streamed} exceeds its upper bound {bound}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// The closed form is bit-identical to the block walk over
        /// one-member sets, for zero, subnormal and 1 B to 1e15 B payloads,
        /// on every interconnect layout, the same processor included.
        #[test]
        fn one_to_one_equals_the_block_walk(
            total in prop_oneof![
                Just(0.0f64),
                (1u64..1 << 52).prop_map(f64::from_bits),
                (0.0f64..15.0).prop_map(|e| 10f64.powf(e)),
                (1u64..1 << 20).prop_map(|b| b as f64),
            ],
            procs in (0u32..1 << 16, 0u32..1 << 16, 0u32..4),
            which in 0usize..7,
        ) {
            let platform = &one_to_one_platforms()[which];
            let n = platform.num_procs();
            let a = procs.0 % n;
            // One case in four sends to the same processor.
            let b = if procs.2 == 0 { a } else { procs.1 % n };
            let walked = estimate_cost(
                total,
                &ProcSet::from_slice(&[a]),
                &ProcSet::from_slice(&[b]),
                platform,
            );
            let mut est = RedistEstimator::new(platform);
            let closed = est.one_to_one_cost(total, a, b, platform);
            prop_assert!(
                closed.to_bits() == walked.to_bits(),
                "{} {a}->{b}, {total:e} B: closed form {closed:e} != walk {walked:e}",
                platform.name()
            );
            // Again from the cached pair route.
            prop_assert_eq!(est.one_to_one_cost(total, a, b, platform).to_bits(), walked.to_bits());
        }
    }
}
