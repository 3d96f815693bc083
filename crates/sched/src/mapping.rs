//! Step two: list-scheduling task mapping, driven by a pluggable
//! [`MappingPolicy`] (paper, section III and Algorithm 1).
//!
//! The driver ([`Mapper`]) owns the mechanics every policy shares — ready
//! lists, bottom-level priorities, processor availability, candidate
//! placement and finish-time estimation — and delegates the per-task
//! adopt/pack/stretch verdict to the policy through a read-only
//! [`MapView`].
//!
//! # The incremental engine
//!
//! The driver is the hot path of every experiment, so its mechanics are
//! incremental rather than re-derived per round, and its state is laid out
//! as dense arrays with no per-task heap allocation in steady state:
//!
//! * **task state** — a struct-of-arrays [`TaskTable`] (allocation sizes,
//!   bottom levels, adoption flags, placed entries) replaces per-field
//!   vectors scattered across the driver; the per-task predecessor arrival
//!   bounds live in one contiguous CSR arena ([`MapCache::bitems`]) bump-
//!   filled on first use instead of a boxed slice per task;
//! * **readiness** — a [`rats_dag::ReadyTracker`] (in-degree counters over
//!   a flattened successor view) discovers newly ready tasks in
//!   O(out-degree) when a task is placed, replacing the per-round
//!   full-graph O(n²) re-scan; the round batch and sort-key buffers are
//!   reused across rounds ([`Scratch`]);
//! * **estimates** — redistribution times come from the streaming
//!   [`rats_redist::RedistCache`]: no transfer matrix is materialized, and
//!   arrival times are memoized per (producer entry, payload,
//!   candidate-set) — sound because a placed producer's set and finish time
//!   are immutable. On top, the driver memoizes each task's `data_ready`
//!   term per candidate-set fingerprint;
//! * **bound pruning** — `data_ready` is a max over predecessor arrivals,
//!   and `f64::max` over non-negative values is exact, so sound
//!   upper/lower bounds prune most exact evaluations bit-identically:
//!   per-task descending bound lists stop the arrival walk early; when the
//!   processors only come free after the task's arrival upper bound, no
//!   redistribution estimate is evaluated at all; and candidate blocks are
//!   min-reduced through cheap finish lower bounds before any exact
//!   estimate runs ([`Mapper::estimate_if_better`]);
//! * **ready ordering** — sort keys (bottom level, δ, gain) are computed
//!   once per task per round instead of inside the comparator;
//! * **placement search** — `earliest_k` selects the k earliest-available
//!   processors by partial selection (O(P)) in a reused scratch buffer
//!   instead of sorting all P in a fresh vector;
//! * **small DAGs** — below [`SMALL_DAG_TASKS`] tasks the memo tables and
//!   bound arenas never pay for themselves, so the driver skips their setup
//!   and evaluates `data_ready` directly (bit-identical: the memoized path
//!   computes the same max over the same arrivals).
//!
//! The engine is *behavior-preserving*: the pre-incremental driver is
//! retained verbatim (under `#[cfg(test)]` / the `reference` feature, see
//! [`reference`](crate::Scheduler)) and parity tests assert byte-identical
//! schedules between the two across all shipped policies.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use rats_dag::{bottom_levels, ReadyTracker, TaskGraph, TaskId};
use rats_platform::{Platform, ProcSet, SetMemo};
use rats_redist::{align_for_self_comm, RedistCache};

use crate::allocation::{allocate, reference_bandwidth, AllocParams, Allocation};
use crate::policy::{MapView, MappingDecision, MappingPolicy};
use crate::schedule::{Schedule, ScheduleEntry};
use crate::strategy::{CandidatePolicy, MappingStrategy, SecondarySort};

/// Below this many tasks the driver skips memo/arena setup entirely and
/// evaluates estimates directly — at small sizes the setup dominates the
/// run (pinned by the `small_dag_fast_path_parity` test spanning the
/// threshold).
pub(crate) const SMALL_DAG_TASKS: usize = 64;

/// Two-step scheduler: allocation (step one) + mapping (step two).
///
/// Built with a platform, an [`AllocParams`] (HCPA by default — the
/// allocation procedure RATS builds on) and a mapping policy (plain HCPA
/// mapping by default). The policy is either one of the shipped
/// [`MappingStrategy`] variants or any external [`MappingPolicy`]
/// implementation:
///
/// ```
/// use rats_daggen::fft_dag;
/// use rats_model::CostParams;
/// use rats_platform::{ClusterSpec, Platform};
/// use rats_sched::{MappingStrategy, Scheduler};
///
/// let platform = Platform::from_spec(&ClusterSpec::grillon());
/// let dag = fft_dag(4, &CostParams::tiny(), 42);
/// let time_cost = MappingStrategy::rats_time_cost(0.5, true);
/// let a = Scheduler::new(&platform).strategy(time_cost).schedule(&dag);
/// a.validate(&dag, &platform).unwrap();
/// // `strategy` is shorthand for `policy`, which also accepts any
/// // third-party `MappingPolicy` (see the `policy` module).
/// let b = Scheduler::new(&platform).policy(time_cost).schedule(&dag);
/// assert_eq!(a.makespan_estimate(), b.makespan_estimate());
/// ```
#[derive(Clone)]
pub struct Scheduler<'p> {
    platform: &'p Platform,
    alloc_params: AllocParams,
    policy: Arc<dyn MappingPolicy>,
    candidates: CandidatePolicy,
}

impl std::fmt::Debug for Scheduler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("platform", &self.platform.name())
            .field("alloc_params", &self.alloc_params)
            .field("policy", &self.policy.name())
            .field("candidates", &self.candidates)
            .finish()
    }
}

impl<'p> Scheduler<'p> {
    /// A scheduler with the paper's defaults (HCPA allocation, HCPA
    /// mapping).
    pub fn new(platform: &'p Platform) -> Self {
        Self {
            platform,
            alloc_params: AllocParams::default(),
            policy: Arc::new(MappingStrategy::Hcpa),
            candidates: CandidatePolicy::default(),
        }
    }

    /// Selects the allocation-step parameters.
    pub fn allocator(mut self, params: AllocParams) -> Self {
        self.alloc_params = params;
        self
    }

    /// Selects the allocation-step area policy.
    pub fn area_policy(mut self, policy: crate::allocation::AreaPolicy) -> Self {
        self.alloc_params.policy = policy;
        self
    }

    /// Selects one of the shipped strategies (shorthand for
    /// [`Self::policy`]).
    pub fn strategy(self, strategy: MappingStrategy) -> Self {
        self.policy(strategy)
    }

    /// Selects the mapping policy. Accepts any [`MappingPolicy`]
    /// implementation — a shipped [`MappingStrategy`] value or a
    /// third-party type (by value or already boxed).
    pub fn policy(mut self, policy: impl Into<Box<dyn MappingPolicy>>) -> Self {
        self.policy = Arc::from(policy.into());
        self
    }

    /// Selects an already-shared mapping policy without re-boxing it
    /// (used by façades that hold one policy across many schedulers).
    pub fn shared_policy(mut self, policy: Arc<dyn MappingPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// The active policy's display name (recorded in provenance).
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Selects the default-mapping candidate policy (see
    /// [`CandidatePolicy`]; the default reproduces the paper's HCPA).
    pub fn candidate_policy(mut self, candidates: CandidatePolicy) -> Self {
        self.candidates = candidates;
        self
    }

    /// Runs both steps and returns the schedule.
    pub fn schedule(&self, dag: &TaskGraph) -> Schedule {
        let alloc = allocate(dag, self.platform, self.alloc_params);
        self.schedule_with_allocation(dag, &alloc)
    }

    /// Runs only the mapping step on a precomputed allocation — this is how
    /// the experiments compare HCPA and both RATS variants *on the same
    /// step-one output*, isolating the effect of the mapping policy.
    pub fn schedule_with_allocation(&self, dag: &TaskGraph, alloc: &Allocation) -> Schedule {
        Mapper::new(
            dag,
            self.platform,
            alloc.as_slice().to_vec(),
            &*self.policy,
            self.candidates,
        )
        .run()
    }

    /// Runs both steps with the retained **naive reference engine** (the
    /// pre-incremental driver: full readiness re-scans, comparator-time sort
    /// keys, matrix-materializing estimates). The parity oracle for the
    /// incremental engine and the "before" side of the mapping benches.
    #[cfg(any(test, feature = "reference"))]
    pub fn reference_schedule(&self, dag: &TaskGraph) -> Schedule {
        let alloc = allocate(dag, self.platform, self.alloc_params);
        self.reference_schedule_with_allocation(dag, &alloc)
    }

    /// Mapping-only counterpart of [`Self::reference_schedule`] (see
    /// [`Self::schedule_with_allocation`]).
    #[cfg(any(test, feature = "reference"))]
    pub fn reference_schedule_with_allocation(
        &self,
        dag: &TaskGraph,
        alloc: &Allocation,
    ) -> Schedule {
        Mapper::new(
            dag,
            self.platform,
            alloc.as_slice().to_vec(),
            &*self.policy,
            self.candidates,
        )
        .into_naive()
        .run()
    }
}

/// Dense struct-of-arrays per-task state of one mapping run. Grouping the
/// parallel arrays in one place keeps their headers on the same cache lines
/// and makes the per-task state explicit: every array is indexed by
/// `TaskId::index()`.
#[repr(align(64))]
pub(crate) struct TaskTable {
    /// Current allocation; adopting policies rewrite entries when
    /// packing/stretching.
    pub(crate) alloc: Vec<u32>,
    /// Static priority: bottom level under the initial allocation.
    pub(crate) bottom: Vec<f64>,
    /// Tasks whose processor set has already been adopted by one child.
    pub(crate) adopted: Vec<bool>,
    /// Estimated finish of every placed task (dense mirror of
    /// `entries[t].est_finish`): the bound walks touch one f64 per
    /// predecessor instead of dragging whole entries through the cache.
    pub(crate) finish: Vec<f64>,
    /// Execution time of every task at its *current* allocation size —
    /// the value `exec_time(t, alloc[t])` would compute. Refreshed by
    /// [`Mapper::place`] when an adopting decision rewrites the size.
    pub(crate) exec: Vec<f64>,
    /// First (lowest-rank) processor of every placed task's set. Together
    /// with `alloc` this reconstructs singleton placements — the common
    /// case — without touching the schedule-entry table.
    pub(crate) placed_first: Vec<u32>,
    pub(crate) entries: Vec<Option<ScheduleEntry>>,
}

/// The candidate-independent bound scalars of one task, computed once from
/// its (immutable) placed predecessors. Cheap to build — one predecessor
/// pass, no sorting, no arena traffic — because every estimate needs them,
/// including the many that the bounds then prune.
#[derive(Clone, Copy)]
struct BoundScalars {
    /// Max over predecessors of `finish + cost_upper_bound(bytes)` — an
    /// **upper** bound on `data_ready`. `NaN` = not computed yet.
    bound_max: f64,
    /// Max predecessor finish — an exact **lower** bound on `data_ready`
    /// (every arrival is at least its producer's finish). Seeds the arrival
    /// walk and the candidate finish lower bounds.
    finish_max: f64,
}

const UNBUILT: u32 = u32::MAX;

const UNBUILT_SCALARS: BoundScalars = BoundScalars {
    bound_max: f64::NAN,
    finish_max: 0.0,
};

/// Memoized estimate state of one mapping run. Interior-mutable because the
/// policies observe the driver through the read-only [`MapView`] while the
/// caches warm up underneath.
///
/// Everything here is sound for one reason: every predecessor of a ready
/// task is placed, and placed entries are immutable.
struct MapCache {
    /// Streaming redistribution estimates, memoized per (producer entry,
    /// payload, candidate).
    redist: RedistCache,
    /// `data_ready` per task, keyed by candidate set (slot = consumer
    /// task).
    data_ready: SetMemo<f64>,
    /// Per-task CSR range (`bstart`, `blen`) into the `bitems` arena —
    /// built later and more rarely than the scalars, on the first estimate
    /// the scalar bound does *not* short-circuit. `bstart == u32::MAX` =
    /// not built.
    bstart: Vec<u32>,
    blen: Vec<u32>,
    /// `(arrival bound, pred, payload bytes)` triples of all built tasks,
    /// descending by bound per task, bump-appended back to back (capacity =
    /// edge count, so steady-state fills never reallocate). Walking a
    /// task's range in order allows breaking at the first bound that cannot
    /// beat the running max — every later one is smaller still.
    bitems: Vec<(f64, u32, f64)>,
}

/// Tournament tree over processor ready times: O(1) argmin by
/// `(ready, id)` with O(log P) updates, replacing the O(P) scan
/// `earliest_k` paid per singleton placement. Ready times only grow, so
/// the tree is update-only — no removals.
struct ArgminTree {
    /// Leaf count (next power of two ≥ P); leaves at `tree[leaves..]` hold
    /// proc ids (`u32::MAX` pads), internal nodes the winning leaf's id.
    leaves: usize,
    tree: Vec<u32>,
}

impl ArgminTree {
    fn new(p: u32) -> Self {
        let leaves = (p.max(1) as usize).next_power_of_two();
        let mut tree = vec![u32::MAX; 2 * leaves];
        for i in 0..p as usize {
            tree[leaves + i] = i as u32;
        }
        // All ready times start equal (0), so the lowest id wins every
        // match — seed internal nodes with the left child.
        for i in (1..leaves).rev() {
            tree[i] = tree[2 * i];
        }
        Self { leaves, tree }
    }

    /// `(ready, id)`-minimum of two entries; `u32::MAX` always loses.
    #[inline]
    fn win(a: u32, b: u32, ready: &[f64]) -> u32 {
        if b == u32::MAX {
            return a;
        }
        if a == u32::MAX {
            return b;
        }
        let (ra, rb) = (ready[a as usize], ready[b as usize]);
        // Total order on (ready, id): ids are distinct, times finite.
        if rb < ra || (rb == ra && b < a) {
            b
        } else {
            a
        }
    }

    /// Re-plays proc `p`'s matches after its ready time grew.
    fn update(&mut self, p: u32, ready: &[f64]) {
        let mut i = (self.leaves + p as usize) / 2;
        while i >= 1 {
            self.tree[i] = Self::win(self.tree[2 * i], self.tree[2 * i + 1], ready);
            i /= 2;
        }
    }

    /// The processor with the least `(ready, id)`.
    #[inline]
    fn min(&self) -> u32 {
        self.tree[1]
    }
}

/// Reused scratch buffers of one mapping run — cleared and refilled per
/// use, never reallocated in steady state. Split into independent
/// `RefCell`s because the buffers are live across nested `&self` calls
/// (e.g. the candidate block while each candidate is estimated).
struct Scratch {
    /// Processor id staging for `earliest_k` / `pred_candidate`.
    procs: RefCell<Vec<u32>>,
    /// Second staging buffer (`pred_candidate` pads from non-members).
    procs2: RefCell<Vec<u32>>,
    /// The candidate block of one `default_mapping` evaluation, with each
    /// candidate's finish lower bound.
    cands: RefCell<Vec<(ProcSet, f64)>>,
    /// Ready-list sort keys of one round.
    keyed: RefCell<Vec<(TaskId, f64)>>,
    /// Singleton adoption candidates already estimated for the task in
    /// `seen_task` (id + 1): a later predecessor placed on the same single
    /// processor yields the identical estimate, which can never *strictly*
    /// beat the incumbent the first one set — skipping it is a no-op (the
    /// policy loops replace only on `finish < best - 1e-15`).
    seen_task: std::cell::Cell<u32>,
    seen_firsts: RefCell<Vec<u32>>,
    /// Same idea for the `default_mapping` candidate block (its own scope:
    /// the adoption loops legitimately re-estimate sets the block already
    /// evaluated, so the two seen-lists must not bleed into each other).
    seen_cands: RefCell<Vec<u32>>,
}

/// The mapping driver: shared list-scheduling state and mechanics, with the
/// adopt/pack/stretch verdicts delegated to a [`MappingPolicy`].
pub(crate) struct Mapper<'a> {
    pub(crate) dag: &'a TaskGraph,
    pub(crate) platform: &'a Platform,
    policy: &'a dyn MappingPolicy,
    candidates: CandidatePolicy,
    /// Struct-of-arrays per-task state.
    /// `(seq_time, alpha)` of every task, unpacked from [`rats_model::TaskCost`]
    /// into one dense array so `exec_time` needs no task-node lookup.
    costs: Vec<(f64, f64)>,
    pub(crate) tasks: TaskTable,
    /// Next free time of every processor.
    pub(crate) proc_ready: Vec<f64>,
    /// Argmin-by-`(ready, id)` index over `proc_ready`, kept in step by
    /// [`Self::place`].
    proc_argmin: ArgminTree,
    /// Per-task bound scalars, computed on the first estimate of the task.
    /// `Cell`s rather than a `RefCell` table: the scalars gate *every*
    /// candidate estimate, and most of those are pruned right here — the
    /// fast path must not pay a borrow-flag round trip.
    bound: Vec<Cell<BoundScalars>>,
    /// `(latency, inverse capacity)` of the redistribution upper bound,
    /// copied out of the estimator so bound passes touch no cache.
    ub: (f64, f64),
    order: Vec<TaskId>,
    cache: RefCell<MapCache>,
    scratch: Scratch,
    /// Small-DAG fast path: skip memo/bound machinery entirely.
    small: bool,
    /// Single-estimate policy ([`MappingPolicy::repeats_estimates`] is
    /// `false`): every task is estimated once, so cached bounds cannot
    /// amortize — estimates run as one fused pass over the predecessors.
    single: bool,
    /// `data_ready` memoization on (see
    /// [`MappingPolicy::memoize_data_ready`]).
    memo: bool,
    /// Per-run telemetry tally (plain cells, flushed once per run —
    /// observational only, never read back by the engine).
    tally: crate::telemetry::RunTally,
    /// Run the retained pre-incremental engine instead (parity oracle).
    #[cfg(any(test, feature = "reference"))]
    pub(crate) naive: bool,
}

impl<'a> Mapper<'a> {
    fn new(
        dag: &'a TaskGraph,
        platform: &'a Platform,
        alloc: Vec<u32>,
        policy: &'a dyn MappingPolicy,
        candidates: CandidatePolicy,
    ) -> Self {
        let gflops = platform.gflops();
        let beta = reference_bandwidth(platform);
        // Unpack the cost model once: `time(p) = seq_time · (α + (1−α)/p)`,
        // reproduced operation-for-operation by `exec_time`, so the dense
        // table is bit-identical to going through `TaskCost`.
        let costs: Vec<(f64, f64)> = dag
            .task_ids()
            .map(|t| {
                let c = &dag.task(t).cost;
                (c.seq_time(gflops), c.alpha())
            })
            .collect();
        let times: Vec<f64> = costs
            .iter()
            .zip(alloc.as_slice())
            .map(|(&(seq, alpha), &p)| seq * (alpha + (1.0 - alpha) / f64::from(p)))
            .collect();
        let bottom = bottom_levels(dag, &times, |_, bytes| bytes / beta);
        let n = dag.num_tasks();
        let small = n < SMALL_DAG_TASKS;
        let single = !policy.repeats_estimates();
        let memo = !small && !single && policy.memoize_data_ready();
        Self {
            dag,
            platform,
            policy,
            candidates,
            costs,
            tasks: TaskTable {
                alloc,
                bottom,
                adopted: vec![false; n],
                finish: vec![0.0; n],
                exec: times,
                placed_first: vec![u32::MAX; n],
                entries: vec![None; n],
            },
            proc_ready: vec![0.0; platform.num_procs() as usize],
            proc_argmin: ArgminTree::new(platform.num_procs()),
            bound: if small || single {
                Vec::new()
            } else {
                vec![Cell::new(UNBUILT_SCALARS); n]
            },
            ub: RedistCache::new(platform, 0).upper_bound_coeffs(),
            order: Vec::with_capacity(n),
            cache: RefCell::new(MapCache {
                // One slot per task: slot t caches arrivals of data produced
                // by placed task t, shared by all of t's consumers.
                redist: RedistCache::new(platform, n),
                data_ready: SetMemo::new(if memo { n } else { 0 }),
                bstart: if small || single {
                    Vec::new()
                } else {
                    vec![UNBUILT; n]
                },
                blen: if small || single {
                    Vec::new()
                } else {
                    vec![0; n]
                },
                bitems: if small || single {
                    Vec::new()
                } else {
                    Vec::with_capacity(dag.num_edges())
                },
            }),
            scratch: Scratch {
                procs: RefCell::new(Vec::new()),
                procs2: RefCell::new(Vec::new()),
                cands: RefCell::new(Vec::new()),
                keyed: RefCell::new(Vec::new()),
                seen_task: std::cell::Cell::new(0),
                seen_firsts: RefCell::new(Vec::new()),
                seen_cands: RefCell::new(Vec::new()),
            },
            small,
            single,
            memo,
            tally: crate::telemetry::RunTally::default(),
            #[cfg(any(test, feature = "reference"))]
            naive: false,
        }
    }

    /// Switches this driver to the retained naive reference engine.
    #[cfg(any(test, feature = "reference"))]
    fn into_naive(mut self) -> Self {
        self.naive = true;
        self
    }

    /// The policy's secondary ready-list sort (for the reference engine,
    /// whose sort lives in another module).
    #[cfg(any(test, feature = "reference"))]
    pub(crate) fn policy_secondary_sort(&self) -> SecondarySort {
        self.policy.secondary_sort()
    }

    #[inline]
    pub(crate) fn exec_time(&self, t: TaskId, p: u32) -> f64 {
        debug_assert!(p > 0, "a task must run on at least one processor");
        let (seq, alpha) = self.costs[t.index()];
        seq * (alpha + (1.0 - alpha) / f64::from(p))
    }

    #[inline]
    pub(crate) fn work(&self, t: TaskId, p: u32) -> f64 {
        self.exec_time(t, p) * f64::from(p)
    }

    /// `exec_time(t, p)`, skipping the arithmetic when `p` is the task's
    /// current allocation size (the overwhelmingly common candidate size).
    #[inline]
    fn exec_on(&self, t: TaskId, p: u32) -> f64 {
        if p == self.tasks.alloc[t.index()] {
            self.tasks.exec[t.index()]
        } else {
            self.exec_time(t, p)
        }
    }

    pub(crate) fn entry_of(&self, t: TaskId) -> &ScheduleEntry {
        self.tasks.entries[t.index()]
            .as_ref()
            .expect("predecessors are mapped before their successors")
    }

    /// Max ready time over a candidate's processors.
    #[inline]
    fn proc_avail(&self, procs: &ProcSet) -> f64 {
        let mut avail = 0.0f64;
        for &p in procs.as_slice() {
            avail = avail.max(self.proc_ready[p as usize]);
        }
        avail
    }

    /// The task's bound scalars, computed on first use: one cheap pass over
    /// the predecessors, no arena traffic.
    fn bound_scalars(&self, t: TaskId) -> BoundScalars {
        let cell = &self.bound[t.index()];
        let sc = cell.get();
        if !sc.bound_max.is_nan() {
            return sc;
        }
        let (lat, inv) = self.ub;
        let mut bound_max = 0.0f64;
        let mut finish_max = 0.0f64;
        for a in self.dag.preds_flat(t) {
            let finish = self.tasks.finish[a.task.index()];
            finish_max = finish_max.max(finish);
            // Mirrors `RedistCache::cost_upper_bound` operation for
            // operation (see `upper_bound_coeffs`).
            bound_max = bound_max.max(finish + (lat + a.bytes * inv));
        }
        let sc = BoundScalars {
            bound_max,
            finish_max,
        };
        cell.set(sc);
        sc
    }

    /// The task's CSR bound-item range, built on the first estimate the
    /// scalar bound does not short-circuit: one predecessor pass bump-fills
    /// the arena, then the range is sorted descending by arrival bound.
    fn bound_items(&self, cache: &mut MapCache, t: TaskId) -> (u32, u32) {
        let start = cache.bstart[t.index()];
        if start != UNBUILT {
            return (start, cache.blen[t.index()]);
        }
        let start = cache.bitems.len();
        for a in self.dag.preds_flat(t) {
            let bound = self.tasks.finish[a.task.index()] + cache.redist.cost_upper_bound(a.bytes);
            cache.bitems.push((bound, a.task.index() as u32, a.bytes));
        }
        // Tiny ranges are the common case; a handwritten swap beats the
        // general small-sort machinery there.
        let range = &mut cache.bitems[start..];
        match range.len() {
            0 | 1 => {}
            2 => {
                if range[0].0 < range[1].0 {
                    range.swap(0, 1);
                }
            }
            _ => range.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).expect("bounds are finite")),
        }
        let len = (cache.bitems.len() - start) as u32;
        cache.bstart[t.index()] = start as u32;
        cache.blen[t.index()] = len;
        (start as u32, len)
    }

    /// The time every input of `t` has arrived on the candidate set `procs`
    /// (contention-free streaming estimates, memoized per task and
    /// candidate).
    ///
    /// `data_ready` is a **max** over predecessor arrivals, and `f64::max`
    /// over non-negative values is exact — so predecessors whose *sound
    /// upper bound* (finish + [`RedistCache::cost_upper_bound`]) cannot
    /// exceed the running max contribute nothing, bit-identically. The
    /// bounds are candidate-independent, so they are computed and sorted
    /// descending once per task; each evaluation walks them in order and
    /// stops at the first bound the running max already dominates.
    fn data_ready(
        &self,
        cache: &mut MapCache,
        t: TaskId,
        procs: &ProcSet,
        sc: BoundScalars,
    ) -> f64 {
        if self.memo {
            if let Some(v) = cache.data_ready.get(t.index(), procs, |_| true) {
                crate::telemetry::bump(&self.tally.memo_hits);
                return v;
            }
            crate::telemetry::bump(&self.tally.memo_misses);
        }
        let (start, len) = self.bound_items(cache, t);
        let MapCache {
            redist,
            data_ready,
            bitems,
            ..
        } = cache;
        // Seeding the running max with the latest predecessor finish only
        // removes evaluations whose arrival could not have raised the max —
        // the result is bit-identical.
        let mut ready = sc.finish_max;
        for &(bound, pred, bytes) in &bitems[start as usize..(start + len) as usize] {
            if bound <= ready {
                break; // every later bound is smaller still
            }
            // Singleton producers — the common case — are reconstructed
            // from the dense columns; only wider sets load the entry.
            let arrival = if self.tasks.alloc[pred as usize] == 1 {
                let first = self.tasks.placed_first[pred as usize];
                if procs.len() == 1 && procs.as_slice()[0] == first {
                    // Self-communication only — exactly zero cost (see the
                    // fused walk in `estimate_core`).
                    self.tasks.finish[pred as usize]
                } else {
                    let src = ProcSet::from_slice(&[first]);
                    redist.arrival(
                        pred as usize,
                        bytes,
                        &src,
                        self.tasks.finish[pred as usize],
                        procs,
                        self.platform,
                    )
                }
            } else {
                let pe = self.tasks.entries[pred as usize]
                    .as_ref()
                    .expect("predecessors are mapped before their successors");
                redist.arrival(
                    pred as usize,
                    bytes,
                    &pe.procs,
                    pe.est_finish,
                    procs,
                    self.platform,
                )
            };
            ready = ready.max(arrival);
        }
        if self.memo {
            data_ready.insert(t.index(), procs, ready);
        }
        ready
    }

    /// Small-DAG `data_ready`: the same max over the same arrivals, without
    /// memo tables or bound arenas (their setup dominates at a few dozen
    /// tasks). Bit-identical because `f64::max` over a fixed multiset of
    /// values is order-independent and exact.
    fn data_ready_small(&self, cache: &mut MapCache, t: TaskId, procs: &ProcSet) -> f64 {
        let mut ready = 0.0f64;
        for a in self.dag.preds_flat(t) {
            let pe = self.tasks.entries[a.task.index()]
                .as_ref()
                .expect("predecessors are mapped before their successors");
            let arrival = cache.redist.arrival(
                a.task.index(),
                a.bytes,
                &pe.procs,
                pe.est_finish,
                procs,
                self.platform,
            );
            ready = ready.max(arrival);
        }
        ready
    }

    /// Estimated (start, finish) of `t` on the candidate set `procs`:
    /// the task starts once every input redistribution has arrived
    /// (contention-free estimates) and all processors are free.
    ///
    /// When the processors only come free at or after the task-level
    /// `data_ready` upper bound, the start is the processor availability
    /// *exactly* and no redistribution estimate needs to be evaluated.
    pub(crate) fn estimate_on(&self, t: TaskId, procs: &ProcSet) -> (f64, f64) {
        #[cfg(any(test, feature = "reference"))]
        if self.naive {
            return self.estimate_on_naive(t, procs);
        }
        self.estimate_core(t, procs, None)
            .expect("estimate without a beat bound never prunes")
    }

    /// [`Self::estimate_on`], short-circuited through a sound finish lower
    /// bound: returns `None` — without evaluating any redistribution
    /// estimate — when the candidate provably cannot satisfy
    /// `finish < beat - 1e-15`, the strict improvement test every policy
    /// loop applies against its current best. The bound is
    /// `max(proc_avail, max predecessor finish) + exec_time`, which never
    /// exceeds the exact finish, so pruned candidates are exactly those the
    /// caller would have rejected — selection is bit-identical.
    ///
    /// In naive (reference) mode every candidate is evaluated exactly.
    /// Estimate adopting `pred`'s placed processor set for `t`.
    ///
    /// `None` means the candidate provably cannot *strictly* beat `beat` —
    /// either by the [`Self::estimate_if_better`] bound pruning, or because
    /// an identical candidate set was already estimated for `t` (its result
    /// is already the incumbent or lost to it; an equal finish never
    /// replaces). Singleton sets are reconstructed from the dense task
    /// table — the overwhelmingly common case — so the candidate loops stay
    /// off the schedule-entry table.
    pub(crate) fn estimate_adoption(
        &self,
        t: TaskId,
        pred: TaskId,
        beat: Option<f64>,
    ) -> Option<(ProcSet, f64, f64)> {
        #[cfg(any(test, feature = "reference"))]
        if self.naive {
            let procs = self.entry_of(pred).procs.clone();
            let (start, finish) = self.estimate_on_naive(t, &procs);
            return Some((procs, start, finish));
        }
        let np = self.tasks.alloc[pred.index()];
        if let Some(beat) = beat {
            // The predecessor's processors stay busy until it finishes, so
            // the start is at least its finish; and every placement of `t`
            // starts no earlier than its latest predecessor finish
            // (`finish_max`, already cached by the default estimate).
            // Prune before touching the set or the seen-list (sound for
            // the same reason as the scalar bound in `estimate_core`;
            // later duplicates face an equal-or-smaller `beat` and prune
            // identically).
            let mut lb = self.tasks.finish[pred.index()];
            if !self.small && !self.single {
                let sc = self.bound[t.index()].get();
                if !sc.bound_max.is_nan() {
                    lb = lb.max(sc.finish_max);
                }
            }
            if lb + self.exec_on(t, np) >= beat - 1e-15 {
                crate::telemetry::bump(&self.tally.pruned);
                return None;
            }
        }
        let procs = if np == 1 {
            let first = self.tasks.placed_first[pred.index()];
            // Duplicate singleton candidates for the same task are no-ops:
            // the estimate is identical to the first occurrence's, and equal
            // finishes never replace the incumbent.
            let marker = t.index() as u32 + 1;
            let mut seen = self.scratch.seen_firsts.borrow_mut();
            if self.scratch.seen_task.get() != marker {
                self.scratch.seen_task.set(marker);
                seen.clear();
            }
            if seen.contains(&first) {
                crate::telemetry::bump(&self.tally.pruned);
                return None;
            }
            seen.push(first);
            ProcSet::from_slice(&[first])
        } else {
            self.entry_of(pred).procs.clone()
        };
        let (start, finish) = self.estimate_core(t, &procs, beat)?;
        Some((procs, start, finish))
    }

    pub(crate) fn estimate_if_better(
        &self,
        t: TaskId,
        procs: &ProcSet,
        beat: Option<f64>,
    ) -> Option<(f64, f64)> {
        #[cfg(any(test, feature = "reference"))]
        if self.naive {
            return Some(self.estimate_on_naive(t, procs));
        }
        self.estimate_core(t, procs, beat)
    }

    /// One estimate under one cache borrow: availability and execution time
    /// are computed once and shared between the lower-bound test and the
    /// exact estimate it guards.
    fn estimate_core(&self, t: TaskId, procs: &ProcSet, beat: Option<f64>) -> Option<(f64, f64)> {
        let result = self.estimate_core_inner(t, procs, beat);
        crate::telemetry::bump(match result {
            Some(_) => &self.tally.estimates,
            None => &self.tally.pruned,
        });
        result
    }

    fn estimate_core_inner(
        &self,
        t: TaskId,
        procs: &ProcSet,
        beat: Option<f64>,
    ) -> Option<(f64, f64)> {
        let proc_avail = self.proc_avail(procs);
        let exec = self.exec_on(t, procs.len());
        if self.dag.in_degree(t) == 0 {
            // Entry task: `data_ready` is 0, the start is the availability.
            return Some((proc_avail, proc_avail + exec));
        }
        if self.small {
            // Small DAGs skip bounds too: estimates are few and cheap.
            let cache = &mut *self.cache.borrow_mut();
            let start = self.data_ready_small(cache, t, procs).max(proc_avail);
            return Some((start, start + exec));
        }
        if self.single {
            // Single-estimate policies visit each task once, so neither the
            // cached bound scalars nor the sorted bound arena can amortize.
            // One fused pass folds availability, predecessor finishes and
            // the arrivals that can still raise the running max. Skipping
            // an arrival whose upper bound cannot exceed the running start
            // drops only values that cannot change it, and `f64::max` over
            // non-negative values is exact and order-independent — the
            // result is bit-identical to the two-pass scheme.
            let cache = &mut *self.cache.borrow_mut();
            let redist = &mut cache.redist;
            let mut start = proc_avail;
            for a in self.dag.preds_flat(t) {
                let pred = a.task.index();
                let finish = self.tasks.finish[pred];
                start = start.max(finish);
                if finish + redist.cost_upper_bound(a.bytes) <= start {
                    continue;
                }
                let arrival = if self.tasks.alloc[pred] == 1 {
                    let first = self.tasks.placed_first[pred];
                    if procs.len() == 1 && procs.as_slice()[0] == first {
                        // Same single processor: pure self-communication,
                        // which the estimator prices at exactly zero — the
                        // arrival is the producer's finish.
                        finish
                    } else {
                        let src = ProcSet::from_slice(&[first]);
                        redist.arrival(pred, a.bytes, &src, finish, procs, self.platform)
                    }
                } else {
                    let pe = self.tasks.entries[pred]
                        .as_ref()
                        .expect("predecessors are mapped before their successors");
                    redist.arrival(
                        pred,
                        a.bytes,
                        &pe.procs,
                        pe.est_finish,
                        procs,
                        self.platform,
                    )
                };
                start = start.max(arrival);
            }
            if let Some(beat) = beat {
                if start + exec >= beat - 1e-15 {
                    return None;
                }
            }
            return Some((start, start + exec));
        }
        let sc = self.bound_scalars(t);
        if let Some(beat) = beat {
            // Sound: the start is at least max(proc_avail, finish_max) in
            // both estimate branches (`data_ready` never undercuts the
            // latest predecessor finish), and the execution time is exact.
            if proc_avail.max(sc.finish_max) + exec >= beat - 1e-15 {
                return None;
            }
        }
        let start = if proc_avail >= sc.bound_max {
            // No arrival can land after the processors come free: the
            // start is the availability *exactly*, no estimate needed.
            proc_avail
        } else {
            let cache = &mut *self.cache.borrow_mut();
            self.data_ready(cache, t, procs, sc).max(proc_avail)
        };
        Some((start, start + exec))
    }

    /// A sound lower bound on `estimate_on(t, procs).1` (see the bound
    /// argument in [`Self::estimate_core`]); used to min-reduce candidate
    /// blocks before any exact estimate runs.
    fn finish_lower_bound(&self, t: TaskId, procs: &ProcSet) -> f64 {
        let proc_avail = self.proc_avail(procs);
        let exec = self.exec_on(t, procs.len());
        // Single-estimate runs keep no bound scalars; availability alone is
        // still a sound bound, and the bound only prunes.
        if self.small || self.single || self.dag.in_degree(t) == 0 {
            return proc_avail + exec;
        }
        let sc = self.bound_scalars(t);
        proc_avail.max(sc.finish_max) + exec
    }

    /// The heaviest input edge's predecessor (most data to move) — the
    /// parent worth aligning a fresh candidate set against. Ties on equal
    /// byte counts deterministically go to the predecessor with the
    /// **lowest** task id, consistent with the delta strategy's tie-break
    /// (pinned by the `heaviest_pred_tie_breaks_to_lowest_id` test).
    pub(crate) fn heaviest_pred(&self, t: TaskId) -> Option<TaskId> {
        self.dag
            .preds_flat(t)
            .iter()
            .max_by(|a, b| {
                // More bytes wins; on equal bytes the *lower* id must
                // compare greater, hence the reversed id comparison.
                a.bytes
                    .partial_cmp(&b.bytes)
                    .expect("edge weights are finite")
                    .then_with(|| b.task.index().cmp(&a.task.index()))
            })
            .map(|a| a.task)
    }

    /// The `k` earliest-available processors (ties by id), rank-ordered for
    /// maximal self communication with the heaviest parent. The k-smallest
    /// selection is O(P) partial selection in a reused scratch buffer, not
    /// a full sort; the selected set is identical because the
    /// (ready time, id) order is total.
    fn earliest_k(&self, t: TaskId, k: u32) -> ProcSet {
        #[cfg(any(test, feature = "reference"))]
        if self.naive {
            return self.earliest_k_naive(t, k);
        }
        if k == 1 && self.platform.num_procs() > 0 {
            // Argmin by (ready time, id) — the full selection machinery and
            // the (trivial) singleton alignment collapse to one O(1) read
            // of the maintained tournament tree.
            return ProcSet::from_slice(&[self.proc_argmin.min()]);
        }
        let set = {
            let mut procs = self.scratch.procs.borrow_mut();
            procs.clear();
            procs.extend(0..self.platform.num_procs());
            let k = (k as usize).min(procs.len());
            if k < procs.len() {
                procs.select_nth_unstable_by(k, |&a, &b| {
                    self.proc_ready[a as usize]
                        .partial_cmp(&self.proc_ready[b as usize])
                        .expect("ready times are finite")
                        .then(a.cmp(&b))
                });
            }
            procs.truncate(k);
            procs.sort_unstable(); // deterministic rank order before alignment
            ProcSet::from_slice(&procs)
        };
        match self.heaviest_pred(t) {
            Some(p) => align_for_self_comm(&self.entry_of(p).procs, &set),
            None => set,
        }
    }

    /// A candidate derived from predecessor `pred`'s set, resized to `k`:
    /// its prefix when shrinking, or the full set padded with the earliest
    /// other processors when growing.
    fn pred_candidate(&self, pred: TaskId, k: u32) -> ProcSet {
        #[cfg(any(test, feature = "reference"))]
        if self.naive {
            return self.pred_candidate_naive(pred, k);
        }
        if k == 1 {
            // `first_k(1)` of any non-empty placed set is its first member,
            // which the dense `placed_first` column already holds.
            return ProcSet::from_slice(&[self.tasks.placed_first[pred.index()]]);
        }
        let pp = &self.entry_of(pred).procs;
        if pp.len() >= k {
            pp.first_k(k)
        } else {
            let mut procs = self.scratch.procs.borrow_mut();
            let mut others = self.scratch.procs2.borrow_mut();
            procs.clear();
            procs.extend_from_slice(pp.as_slice());
            others.clear();
            others.extend((0..self.platform.num_procs()).filter(|p| !pp.contains(*p)));
            let cmp = |a: &u32, b: &u32| {
                self.proc_ready[*a as usize]
                    .partial_cmp(&self.proc_ready[*b as usize])
                    .expect("ready times are finite")
                    .then(a.cmp(b))
            };
            let need = (k - pp.len()) as usize;
            if need < others.len() {
                others.select_nth_unstable_by(need, cmp);
                others.truncate(need);
            }
            // Padding order is rank order: restore the (ready, id) order a
            // full sort would have produced among the selected few.
            others.sort_by(cmp);
            procs.extend_from_slice(&others);
            ProcSet::from_slice(&procs)
        }
    }

    /// Default HCPA mapping: evaluate the candidate set(s) dictated by the
    /// [`CandidatePolicy`], pick the earliest estimated finish.
    ///
    /// With parent-aware candidates, the whole block's finish lower bounds
    /// are computed first; candidates whose bound cannot beat the running
    /// best skip the exact estimator entirely (a batched min-reduction —
    /// bit-identical, because a pruned candidate's exact finish could never
    /// have won the tolerance comparison either).
    pub(crate) fn default_mapping(&self, t: TaskId) -> (ProcSet, f64, f64) {
        let k = self.tasks.alloc[t.index()];
        let first = self.earliest_k(t, k);
        if self.candidates == CandidatePolicy::EarliestK {
            let (s, f) = self.estimate_on(t, &first);
            return (first, s, f);
        }
        #[cfg(any(test, feature = "reference"))]
        let prune = !self.naive;
        #[cfg(not(any(test, feature = "reference")))]
        let prune = true;
        let mut cands = self.scratch.cands.borrow_mut();
        cands.clear();
        let lb = |c: &ProcSet| {
            if prune {
                self.finish_lower_bound(t, c)
            } else {
                f64::NEG_INFINITY
            }
        };
        // Singleton allocations (the common case) draw every predecessor
        // candidate from one processor id, so duplicates abound — and each
        // duplicate that is not lower-bound-pruned pays a full exact
        // estimate. Identical sets yield identical estimates and the
        // selection below replaces only on strict improvement, so skipping
        // repeats is a no-op on the outcome.
        let mut seen = self.scratch.seen_cands.borrow_mut();
        let dedup = prune && k == 1;
        if dedup {
            seen.clear();
            seen.push(first.as_slice()[0]);
        }
        let b = lb(&first);
        cands.push((first, b));
        for a in self.dag.preds_flat(t) {
            if dedup {
                // `pred_candidate(pred, 1)` is exactly the singleton of the
                // predecessor's first placed processor.
                let p0 = self.tasks.placed_first[a.task.index()];
                if seen.contains(&p0) {
                    continue;
                }
                seen.push(p0);
                let c = ProcSet::from_slice(&[p0]);
                let b = lb(&c);
                cands.push((c, b));
                continue;
            }
            let c = self.pred_candidate(a.task, k);
            let b = lb(&c);
            cands.push((c, b));
        }
        let mut best: Option<(usize, f64, f64)> = None;
        for (i, (c, lb_f)) in cands.iter().enumerate() {
            if let Some((_, bs, bf)) = best {
                // A candidate whose finish provably exceeds `bf + 1e-15`
                // fails both clauses of the tolerance comparison below.
                if *lb_f > bf + 1e-15 {
                    continue;
                }
                let (s, f) = self.estimate_on(t, c);
                if f < bf - 1e-15 || (f <= bf + 1e-15 && s < bs - 1e-15) {
                    best = Some((i, s, f));
                }
            } else {
                let (s, f) = self.estimate_on(t, c);
                best = Some((i, s, f));
            }
        }
        let (i, s, f) = best.expect("at least the earliest-k candidate exists");
        (std::mem::replace(&mut cands[i].0, ProcSet::empty()), s, f)
    }

    /// δ(t) for the ready-list secondary sort: the smallest allocation
    /// modification that would adopt any predecessor's set.
    pub(crate) fn delta_key(&self, t: TaskId) -> f64 {
        let k = self.tasks.alloc[t.index()];
        let mut best = f64::INFINITY;
        for a in self.dag.preds_flat(t) {
            if self.tasks.adopted[a.task.index()] {
                continue;
            }
            // A placed task's `alloc` is its placed set size (see `place`).
            let np = self.tasks.alloc[a.task.index()];
            best = best.min(f64::from(np.abs_diff(k)));
        }
        best
    }

    /// gain(t) for the ready-list secondary sort: the largest execution-time
    /// reduction any predecessor's set offers.
    pub(crate) fn gain_key(&self, t: TaskId) -> f64 {
        let own = self.tasks.exec[t.index()];
        let mut best = f64::NEG_INFINITY;
        // Runs of predecessors share the same allocation size (most are
        // sequential); one remembered `exec_time` covers them all.
        let mut last: (u32, f64) = (0, 0.0);
        for a in self.dag.preds_flat(t) {
            if self.tasks.adopted[a.task.index()] {
                continue;
            }
            let np = self.tasks.alloc[a.task.index()];
            if np != last.0 {
                last = (np, self.exec_time(t, np));
            }
            best = best.max(own - last.1);
        }
        best
    }

    /// Sorts ready tasks by decreasing bottom level, then by the policy's
    /// stable secondary criterion, then by id (full determinism). Secondary
    /// keys are computed once per task up front into a reused buffer — they
    /// are pure functions of the pre-round state, so hoisting them out of
    /// the comparator changes nothing but the cost.
    fn sort_ready(&self, ready: &mut [TaskId]) {
        let secondary = self.policy.secondary_sort();
        // Both comparators end in the task-id tiebreak, i.e. they are total
        // orders — an unstable sort produces the identical permutation
        // without the stable sort's scratch allocation.
        if secondary == SecondarySort::None {
            ready.sort_unstable_by(|&a, &b| {
                self.tasks.bottom[b.index()]
                    .partial_cmp(&self.tasks.bottom[a.index()])
                    .expect("bottom levels are finite")
                    .then(a.index().cmp(&b.index()))
            });
            return;
        }
        let mut keyed = self.scratch.keyed.borrow_mut();
        keyed.clear();
        keyed.extend(ready.iter().map(|&t| {
            let key = match secondary {
                SecondarySort::None => unreachable!("handled above"),
                SecondarySort::DeltaAscending => self.delta_key(t),
                SecondarySort::GainDescending => self.gain_key(t),
            };
            (t, key)
        }));
        keyed.sort_unstable_by(|&(a, ka), &(b, kb)| {
            let bl = self.tasks.bottom[b.index()]
                .partial_cmp(&self.tasks.bottom[a.index()])
                .expect("bottom levels are finite");
            let sec = match secondary {
                SecondarySort::None => unreachable!("handled above"),
                SecondarySort::DeltaAscending => {
                    ka.partial_cmp(&kb).expect("delta keys are not NaN")
                }
                SecondarySort::GainDescending => {
                    kb.partial_cmp(&ka).expect("gain keys are not NaN")
                }
            };
            bl.then(sec).then(a.index().cmp(&b.index()))
        });
        for (slot, &(t, _)) in ready.iter_mut().zip(keyed.iter()) {
            *slot = t;
        }
    }

    pub(crate) fn place(&mut self, t: TaskId, procs: ProcSet, start: f64, finish: f64) {
        for &p in procs.as_slice() {
            self.proc_ready[p as usize] = finish;
            self.proc_argmin.update(p, &self.proc_ready);
            crate::telemetry::bump(&self.tally.argmin_updates);
        }
        if procs.len() != self.tasks.alloc[t.index()] {
            // An adopting decision rewrote the allocation size: keep the
            // cached execution time in step.
            self.tasks.exec[t.index()] = self.exec_time(t, procs.len());
            self.tasks.alloc[t.index()] = procs.len();
        }
        self.tasks.finish[t.index()] = finish;
        self.tasks.placed_first[t.index()] = procs.as_slice()[0];
        self.tasks.entries[t.index()] = Some(ScheduleEntry {
            task: t,
            procs,
            est_start: start,
            est_finish: finish,
        });
        self.order.push(t);
    }

    /// One policy verdict, validated and resolved to a placement.
    pub(crate) fn decide(&mut self, t: TaskId) -> (ProcSet, f64, f64) {
        let decision = self.policy.decide(&MapView { mapper: self }, t);
        match decision {
            MappingDecision::Adopt {
                from_pred,
                placement,
            } => {
                // Hard check even in release: external policies are
                // exactly the callers that can get this wrong, and
                // a silent double-adoption corrupts the schedule.
                // O(in-degree), negligible next to the estimates.
                assert!(
                    self.dag.predecessors(t).any(|(p, _)| p == from_pred)
                        && !self.tasks.adopted[from_pred.index()],
                    "policy {:?} adopted {from_pred:?} for {t:?}, which is not \
                     an unconsumed predecessor",
                    self.policy.name()
                );
                self.tasks.adopted[from_pred.index()] = true;
                (placement.procs, placement.start, placement.finish)
            }
            MappingDecision::Default(Some(p)) => (p.procs, p.start, p.finish),
            MappingDecision::Default(None) => self.default_mapping(t),
        }
    }

    /// Algorithm 1: repeatedly sort and drain the ready list, letting the
    /// policy adopt predecessor allocations where its conditions hold.
    ///
    /// Estimates are evaluated lazily at pop time, which subsumes the
    /// algorithm's "recompute … only if they have been computed using this
    /// parent allocation" bookkeeping: every decision sees the platform
    /// state left by all previously mapped tasks.
    ///
    /// Rounds are event-driven: the tasks that became ready while draining
    /// round *r* form round *r + 1*'s batch (see
    /// [`rats_dag::ReadyTracker`]) — exactly the set a full readiness
    /// re-scan would find, because a round drains every ready task. One
    /// batch buffer ping-pongs with the tracker across all rounds.
    fn run(mut self) -> Schedule {
        #[cfg(any(test, feature = "reference"))]
        if self.naive {
            return self.run_naive();
        }
        let _map_span = rats_telemetry::span(&crate::telemetry::MAP_SECONDS);
        let mut tracker = ReadyTracker::new(self.dag);
        let n = self.dag.num_tasks();
        let mut num_mapped = 0usize;
        let mut ready: Vec<TaskId> = Vec::new();
        while num_mapped < n {
            let _round_span = rats_telemetry::span(&crate::telemetry::ROUND_SECONDS);
            crate::telemetry::bump(&self.tally.rounds);
            tracker.take_batch_into(&mut ready);
            assert!(!ready.is_empty(), "acyclic graph always has ready tasks");
            self.sort_ready(&mut ready);
            for &t in &ready {
                let (procs, start, finish) = self.decide(t);
                self.place(t, procs, start, finish);
                tracker.complete(t);
                num_mapped += 1;
            }
        }
        let (redist_hits, redist_misses) = self.cache.borrow().redist.hit_stats();
        self.tally.flush(n as u64, redist_hits, redist_misses);
        self.into_schedule()
    }

    pub(crate) fn into_schedule(self) -> Schedule {
        Schedule {
            entries: self
                .tasks
                .entries
                .into_iter()
                .map(|e| e.expect("all tasks mapped"))
                .collect(),
            order: self.order,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rats_model::TaskCost;
    use rats_platform::ClusterSpec;

    /// Pins the documented `heaviest_pred` tie-break: equal byte counts go
    /// to the predecessor with the lowest task id.
    #[test]
    fn heaviest_pred_tie_breaks_to_lowest_id() {
        let cost = TaskCost::new(50_000_000, 256.0, 0.05);
        let mut g = TaskGraph::new();
        let a = g.add_task("a", cost);
        let b = g.add_task("b", cost);
        let c = g.add_task("c", cost);
        let d = g.add_task("d", cost);
        // Equal-byte edges into c (insertion order b first, then a: the
        // tie-break must not depend on iteration order), and a strictly
        // heavier edge into d.
        g.add_edge(b, c, 1e6);
        g.add_edge(a, c, 1e6);
        g.add_edge(a, d, 1.0);
        g.add_edge(b, d, 2.0);
        let platform = Platform::from_spec(&ClusterSpec::grillon());
        let policy = MappingStrategy::Hcpa;
        let mapper = Mapper::new(
            &g,
            &platform,
            vec![2, 2, 2, 2],
            &policy,
            CandidatePolicy::default(),
        );
        assert_eq!(
            mapper.heaviest_pred(c),
            Some(a),
            "tie goes to the lowest id"
        );
        assert_eq!(mapper.heaviest_pred(d), Some(b), "more bytes beat ids");
        assert_eq!(mapper.heaviest_pred(a), None, "entry tasks have no parent");
    }
}
