//! The open mapping-policy interface: step two's per-task adopt/pack/stretch
//! decision as an object-safe trait.
//!
//! The paper fixes a two-step skeleton — HCPA allocation, then list-mapping
//! with optional *adoption* of a predecessor's processor set, then
//! contention simulation — and varies only the policy that decides **when**
//! to adopt. [`MappingPolicy`] is that variation point. The shipped policies
//! are the [`MappingStrategy`] variants (HCPA, delta, time-cost and
//! combined), which implement it directly; external crates can plug in
//! their own policy without touching this crate:
//!
//! ```
//! use rats_sched::{MapView, MappingDecision, MappingPolicy, Scheduler};
//! use rats_daggen::{fft_dag};
//! use rats_model::CostParams;
//! use rats_platform::{ClusterSpec, Platform};
//! use rats_dag::TaskId;
//!
//! /// Adopt the heaviest-input predecessor's set whenever it is free.
//! #[derive(Debug)]
//! struct GreedyAdopt;
//!
//! impl MappingPolicy for GreedyAdopt {
//!     fn name(&self) -> &str {
//!         "greedy-adopt"
//!     }
//!
//!     fn decide(&self, view: &MapView<'_, '_>, task: TaskId) -> MappingDecision {
//!         let heaviest = view
//!             .adoptable_predecessors(task)
//!             .max_by(|&(_, a), &(_, b)| {
//!                 view.edge_bytes(a).total_cmp(&view.edge_bytes(b))
//!             });
//!         match heaviest {
//!             Some((pred, _)) => {
//!                 let procs = view.placement(pred).procs.clone();
//!                 let placement = view.estimate_on(task, procs);
//!                 MappingDecision::Adopt {
//!                     from_pred: pred,
//!                     placement,
//!                 }
//!             }
//!             None => MappingDecision::Default(None),
//!         }
//!     }
//! }
//!
//! let platform = Platform::from_spec(&ClusterSpec::grillon());
//! let dag = fft_dag(4, &CostParams::tiny(), 7);
//! let schedule = Scheduler::new(&platform).policy(GreedyAdopt).schedule(&dag);
//! schedule.validate(&dag, &platform).unwrap();
//! ```

use rats_dag::{EdgeId, TaskId};
use rats_platform::ProcSet;

use crate::mapping::Mapper;
use crate::schedule::ScheduleEntry;
use crate::strategy::{
    CombinedParams, DeltaParams, MappingStrategy, SecondarySort, TimeCostParams,
};

/// A fully-evaluated placement candidate: a processor set plus the
/// contention-free (start, finish) estimate of running the task there.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// The processors the task would run on.
    pub procs: ProcSet,
    /// Estimated start time (data ready and processors free).
    pub start: f64,
    /// Estimated finish time.
    pub finish: f64,
}

/// A policy's verdict for one ready task.
#[derive(Debug, Clone)]
pub enum MappingDecision {
    /// Adopt predecessor `from_pred`'s exact processor set (the
    /// redistribution on that edge becomes free). The predecessor is
    /// consumed: each parent's set can be adopted by at most one child, the
    /// bookkeeping without which all ready siblings would pile onto one
    /// parent's processors and serialize.
    Adopt {
        /// The predecessor whose placement is being reused.
        from_pred: TaskId,
        /// The adopted placement (as returned by [`MapView::estimate_on`]).
        placement: Placement,
    },
    /// Fall back to the scheduler's default mapping; pass a placement back
    /// if the policy already computed [`MapView::default_mapping`] so the
    /// driver does not evaluate it twice.
    Default(Option<Placement>),
}

/// Read-only view of the in-progress mapping, handed to
/// [`MappingPolicy::decide`] for each ready task.
///
/// All estimates are *contention-free* (section III): redistribution times
/// come from [`rats_redist::estimate_time`], and processor availability is
/// the driver's per-processor ready time after every previously mapped
/// task.
pub struct MapView<'v, 'a> {
    pub(crate) mapper: &'v Mapper<'a>,
}

impl<'a> MapView<'_, 'a> {
    /// The task graph being mapped.
    pub fn dag(&self) -> &'a rats_dag::TaskGraph {
        self.mapper.dag
    }

    /// The target platform.
    pub fn platform(&self) -> &'a rats_platform::Platform {
        self.mapper.platform
    }

    /// The task's current allocation size (step one's output, possibly
    /// already rewritten by earlier pack/stretch decisions of this run).
    pub fn allocated(&self, t: TaskId) -> u32 {
        self.mapper.tasks.alloc[t.index()]
    }

    /// The placement of an already-mapped task.
    ///
    /// # Panics
    /// Panics if `t` has not been mapped yet; predecessors of the task
    /// under decision always have been.
    pub fn placement(&self, t: TaskId) -> &ScheduleEntry {
        self.mapper.entry_of(t)
    }

    /// Whether `t`'s processor set has already been adopted by a child
    /// (an adopted set is consumed and cannot be adopted again).
    pub fn is_adopted(&self, t: TaskId) -> bool {
        self.mapper.tasks.adopted[t.index()]
    }

    /// The predecessors of `t` whose placements are still available for
    /// adoption, with the connecting edge.
    pub fn adoptable_predecessors(&self, t: TaskId) -> impl Iterator<Item = (TaskId, EdgeId)> + '_ {
        self.mapper
            .dag
            .preds_flat(t)
            .iter()
            .filter(|a| !self.mapper.tasks.adopted[a.task.index()])
            .map(|a| (a.task, a.edge))
    }

    /// The placed processor-set size of an already-mapped task — equal to
    /// `placement(t).procs.len()`, read from the engine's dense per-task
    /// state instead of the schedule entry.
    pub fn placed_size(&self, t: TaskId) -> u32 {
        debug_assert!(self.mapper.tasks.entries[t.index()].is_some());
        self.mapper.tasks.alloc[t.index()]
    }

    /// Payload of edge `e` in bytes.
    pub fn edge_bytes(&self, e: EdgeId) -> f64 {
        self.mapper.dag.edge(e).bytes
    }

    /// Estimated placement of `t` on the candidate set `procs`: the task
    /// starts once every input redistribution has arrived and all the
    /// processors are free.
    pub fn estimate_on(&self, t: TaskId, procs: ProcSet) -> Placement {
        let (start, finish) = self.mapper.estimate_on(t, &procs);
        Placement {
            procs,
            start,
            finish,
        }
    }

    /// [`Self::estimate_on`], short-circuited through a sound finish-time
    /// lower bound: returns `None` — without evaluating any redistribution
    /// estimate — when the candidate provably cannot satisfy
    /// `finish < beat - 1e-15` (the strict improvement test of a
    /// best-candidate loop). Candidate selection is bit-identical to
    /// estimating every candidate, because every pruned candidate would
    /// have failed that test; the processor set is cloned only for the
    /// survivors. Pass `beat = None` (or use [`Self::estimate_on`]) when
    /// there is no incumbent yet.
    pub fn estimate_if_better(
        &self,
        t: TaskId,
        procs: &ProcSet,
        beat: Option<f64>,
    ) -> Option<Placement> {
        let (start, finish) = self.mapper.estimate_if_better(t, procs, beat)?;
        Some(Placement {
            procs: procs.clone(),
            start,
            finish,
        })
    }

    /// Estimated placement of `t` on `pred`'s placed processor set, pruned
    /// by `beat` like [`estimate_if_better`](Self::estimate_if_better) —
    /// the adoption loops' fast path: the engine rebuilds singleton sets
    /// from its dense task table instead of loading the schedule entry.
    pub fn estimate_adoption(
        &self,
        t: TaskId,
        pred: TaskId,
        beat: Option<f64>,
    ) -> Option<Placement> {
        let (procs, start, finish) = self.mapper.estimate_adoption(t, pred, beat)?;
        Some(Placement {
            procs,
            start,
            finish,
        })
    }

    /// Execution time of `t` on `procs` processors (Amdahl model).
    pub fn exec_time(&self, t: TaskId, procs: u32) -> f64 {
        self.mapper.exec_time(t, procs)
    }

    /// Work (time × processors) of `t` on `procs` processors.
    pub fn work(&self, t: TaskId, procs: u32) -> f64 {
        self.mapper.work(t, procs)
    }

    /// The scheduler's default (non-adopting) mapping for `t`, following
    /// the configured [`crate::CandidatePolicy`].
    pub fn default_mapping(&self, t: TaskId) -> Placement {
        let (procs, start, finish) = self.mapper.default_mapping(t);
        Placement {
            procs,
            start,
            finish,
        }
    }
}

/// A step-two mapping policy: decides, per ready task, whether to adopt a
/// predecessor's processor set (pack/stretch) or fall back to the default
/// list-scheduling placement.
///
/// The trait is object safe; [`Scheduler::policy`](crate::Scheduler::policy)
/// accepts any implementation, so new strategies can live outside this
/// crate. Implementations must be `Send + Sync` (campaigns evaluate many
/// scenarios in parallel with a shared policy).
///
/// A policy chooses verdicts only: every estimate it asks the [`MapView`]
/// for runs through the driver's one incremental estimate path, whatever
/// the policy or the DAG size.
pub trait MappingPolicy: Send + Sync {
    /// Short display name used by experiment tables and provenance records.
    fn name(&self) -> &str;

    /// The ready-list secondary sort this policy wants (section III-C).
    fn secondary_sort(&self) -> SecondarySort {
        SecondarySort::None
    }

    /// The verdict for one ready task.
    fn decide(&self, view: &MapView<'_, '_>, task: TaskId) -> MappingDecision;
}

impl<P: MappingPolicy + 'static> From<P> for Box<dyn MappingPolicy> {
    fn from(policy: P) -> Self {
        Box::new(policy)
    }
}

/// The shipped strategies implement the policy interface directly: the
/// secondary sort and the verdict are read off the variant itself.
impl MappingPolicy for MappingStrategy {
    fn name(&self) -> &str {
        MappingStrategy::name(self)
    }

    fn secondary_sort(&self) -> SecondarySort {
        MappingStrategy::secondary_sort(self)
    }

    fn decide(&self, view: &MapView<'_, '_>, task: TaskId) -> MappingDecision {
        match self {
            // The HCPA baseline: allocations untouched, default placement
            // only (redistribution costs are accounted for in the
            // estimates, but no redistribution-avoiding alternative is
            // searched — the gap RATS closes).
            MappingStrategy::Hcpa => MappingDecision::Default(None),
            MappingStrategy::RatsDelta(params) => decide_delta(params, view, task),
            MappingStrategy::RatsTimeCost(params) => decide_time_cost(params, view, task),
            MappingStrategy::RatsCombined(params) => decide_combined(params, view, task),
        }
    }
}

/// The **delta** strategy (section III-A/III-B): among the predecessors
/// whose allocation is within the structural pack/stretch bounds, adopt the
/// one needing the smallest modification |δ|; ties go to the heaviest input
/// edge (the biggest avoided redistribution), then to the lowest
/// predecessor id.
fn decide_delta(params: &DeltaParams, view: &MapView<'_, '_>, task: TaskId) -> MappingDecision {
    let k = view.allocated(task);
    let (grow, shrink) = (params.delta_max(k), params.delta_min_magnitude(k));
    // (|δ|, edge bytes, pred) of the best qualifying predecessor.
    let mut chosen: Option<(u32, f64, TaskId)> = None;
    for a in view.dag().preds_flat(task) {
        let pred = a.task;
        if view.is_adopted(pred) {
            continue;
        }
        let np = view.placed_size(pred);
        let feasible = if np >= k {
            np - k <= grow
        } else {
            k - np <= shrink
        };
        if !feasible {
            continue;
        }
        let d = np.abs_diff(k);
        let bytes = view.dag().edge(a.edge).bytes;
        let better = match chosen {
            None => true,
            Some((bd, bb, bp)) => {
                d < bd || (d == bd && (bytes > bb + 1e-9 || (bytes >= bb - 1e-9 && pred < bp)))
            }
        };
        if better {
            chosen = Some((d, bytes, pred));
        }
    }
    match chosen {
        Some((_, _, pred)) => {
            let procs = view.placement(pred).procs.clone();
            MappingDecision::Adopt {
                from_pred: pred,
                placement: view.estimate_on(task, procs),
            }
        }
        None => MappingDecision::Default(None),
    }
}

/// The **time-cost** strategy: stretch when the work ratio stays above
/// `minrho` *and* the estimated finish does not regress; pack when the
/// estimated finish does not get worse.
///
/// The finish-time guard on stretching is our reading of the paper's
/// premise that the mapping procedure can "estimate accurately the
/// respective finish time of a task using several modified allocations"
/// (section III): adopting a busy parent set that *delays* the task would
/// contradict the strategy's goal (and, empirically, inverts the paper's
/// time-cost > delta > HCPA ranking).
fn decide_time_cost(
    params: &TimeCostParams,
    view: &MapView<'_, '_>,
    task: TaskId,
) -> MappingDecision {
    let k = view.allocated(task);
    let own_work = view.work(task, k);
    let default = view.default_mapping(task);
    // Stretch (or adopt an equal-size predecessor, ρ = 1): among the
    // efficient enough candidates (ρ ≥ minrho), take the best finish.
    let mut best_stretch: Option<(TaskId, Placement)> = None;
    // ρ is a pure function of the candidate size np, and runs of
    // predecessors share a size (most are singletons) — remember the
    // last (np, ρ) instead of re-dividing per predecessor.
    let mut last_rho: Option<(u32, f64)> = None;
    for (pred, _) in view.adoptable_predecessors(task) {
        let np = view.placed_size(pred);
        if np < k {
            continue;
        }
        let rho = if own_work == 0.0 {
            1.0
        } else {
            match last_rho {
                Some((n, r)) if n == np => r,
                _ => {
                    let r = own_work / view.work(task, np);
                    last_rho = Some((np, r));
                    r
                }
            }
        };
        if rho < params.minrho {
            continue;
        }
        let beat = best_stretch.as_ref().map(|(_, b)| b.finish);
        let Some(p) = view.estimate_adoption(task, pred, beat) else {
            continue; // provably cannot beat the incumbent
        };
        if best_stretch
            .as_ref()
            .is_none_or(|(_, b)| p.finish < b.finish - 1e-15)
        {
            best_stretch = Some((pred, p));
        }
    }
    if let Some((pred, placement)) = best_stretch {
        if placement.finish <= default.finish + 1e-15 {
            return MappingDecision::Adopt {
                from_pred: pred,
                placement,
            };
        }
    }
    if !params.allow_packing || k == 1 {
        // No predecessor can be placed on fewer than one processor, so
        // single-processor allocations have nothing to pack onto.
        return MappingDecision::Default(Some(default));
    }
    // Pack: adopt the smaller predecessor allocation with the best
    // estimated finish, but only if it beats the default mapping.
    let mut best_pack: Option<(TaskId, Placement)> = None;
    for (pred, _) in view.adoptable_predecessors(task) {
        let np = view.placed_size(pred);
        if np >= k {
            continue;
        }
        let beat = best_pack.as_ref().map(|(_, b)| b.finish);
        let Some(p) = view.estimate_adoption(task, pred, beat) else {
            continue;
        };
        if best_pack
            .as_ref()
            .is_none_or(|(_, b)| p.finish < b.finish - 1e-15)
        {
            best_pack = Some((pred, p));
        }
    }
    match best_pack {
        Some((pred, placement)) if placement.finish <= default.finish + 1e-15 => {
            MappingDecision::Adopt {
                from_pred: pred,
                placement,
            }
        }
        _ => MappingDecision::Default(Some(default)),
    }
}

/// The **combined** strategy (extension beyond the paper, in the direction
/// of its future-work "automatic tuning"): predecessors within the delta
/// bounds are candidates; the best estimated finish wins, and the adoption
/// must not regress versus the default mapping. Stretching additionally
/// honours the `minrho` efficiency threshold.
fn decide_combined(
    params: &CombinedParams,
    view: &MapView<'_, '_>,
    task: TaskId,
) -> MappingDecision {
    let k = view.allocated(task);
    let own_work = view.work(task, k);
    let default = view.default_mapping(task);
    let mut best: Option<(TaskId, Placement)> = None;
    let mut last_rho: Option<(u32, f64)> = None;
    for (pred, _) in view.adoptable_predecessors(task) {
        let np = view.placed_size(pred);
        let feasible = if np >= k {
            let rho = if own_work == 0.0 {
                1.0
            } else {
                match last_rho {
                    Some((n, r)) if n == np => r,
                    _ => {
                        let r = own_work / view.work(task, np);
                        last_rho = Some((np, r));
                        r
                    }
                }
            };
            np - k <= params.delta.delta_max(k) && rho >= params.minrho
        } else {
            k - np <= params.delta.delta_min_magnitude(k)
        };
        if !feasible {
            continue;
        }
        let beat = best.as_ref().map(|(_, b)| b.finish);
        let Some(p) = view.estimate_adoption(task, pred, beat) else {
            continue;
        };
        if best
            .as_ref()
            .is_none_or(|(_, b)| p.finish < b.finish - 1e-15)
        {
            best = Some((pred, p));
        }
    }
    match best {
        Some((pred, placement)) if placement.finish <= default.finish + 1e-15 => {
            MappingDecision::Adopt {
                from_pred: pred,
                placement,
            }
        }
        _ => MappingDecision::Default(Some(default)),
    }
}
