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
//! [`Solver`] is the implementation the simulator runs. It is persistent:
//! capacities and the freezing tolerance are set once, and the flow set is
//! kept between solves, so a caller adds and removes only the flows that
//! changed. A filling round touches only the links that still carry
//! unfrozen flows plus the flows it freezes. And a solve *resumes*: it keeps
//! a history of the last solve, replays that history on the links the
//! changes since then touched, and runs filling only from the first round
//! those changes can alter. The `reference` module (tests and the
//! `reference` feature) keeps the original whole-problem rescan as the
//! oracle: [`Solver::solve`] returns its rates bit for bit.

#[cfg(any(test, feature = "reference"))]
pub mod reference;

/// "No cap group": the flow's cap is not finite.
const NO_GROUP: u32 = u32::MAX;

/// "None" for a `u32` link, position or round: no link, not listed, never.
const NONE: u32 = u32::MAX;

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
/// # Resuming
///
/// A solve leaves a history for the next one: per round `k`, the increment
/// `d_k` (after `max(0)`), the link term `dl_k` (the least
/// `residual / count`) and a link attaining it, and each cap group's
/// unfrozen count after the round's link freezes; at the start of each
/// round (and at the end), `level`, the cap-group pointer, the unfrozen
/// total and every link's residual and unfrozen count and every cap
/// group's unfrozen count; per link, the round it saturated in; per slot,
/// the round its flow froze in and whether its cap froze it.
/// `add_flow` and `remove_flow` log what changed: the *touched* links
/// (crossed by an added or removed flow), the added slots, and each removed
/// flow of the last solve with its freeze round, cap group and links.
///
/// The next solve replays the history on the touched links. Round `k` is
/// identical if the recorded argmin link is untouched; every touched link
/// with unfrozen flows has `residual / count` not below `dl_k` (`<`, so a
/// NaN share never lowers it); every touched link saturates in round `k`
/// exactly when it did before; and the cap walk, run on the group counts
/// patched for removed and added members, ends where it ended before. A
/// touched link's count is the recorded one less the removed flows and
/// plus the added flows not yet frozen; an added flow freezes in round `k`
/// through a saturated touched link or through that cap walk, at the
/// recorded level. Each identical round's history row is rewritten with the
/// new values of the touched links and groups, so the history always
/// describes the latest solve. At the first round `K` that fails, the solve
/// restores the start-of-round-`K` state from the history, patches the
/// touched links and groups, and runs the filling loop from there. A flow
/// counts as frozen if it froze in this solve or its recorded freeze round
/// is below `K`, so no flag is reset per flow. A new or emptied cap group,
/// a linkless uncapped flow entering or leaving, and a missing history (the
/// first solve, or one after a panic) are *structural*: they force `K = 0`,
/// a fresh solve.
///
/// # Why no bit can move
///
/// By induction on `k < K`: an untouched link carries only unchanged flows,
/// and their freeze rounds are unchanged, so its residual and unfrozen
/// count at the start of round `k` equal the old ones bit for bit, and so
/// does its saturation test. The checks then make `d_k` (the untouched
/// argmin still attains the minimum, and the cap term reads the same
/// pointer and level) and the set of unchanged flows frozen in round `k`
/// equal to the old ones; a touched link's residual is recomputed by the
/// same operations a fresh solve performs. A flow frozen before `K` keeps
/// `level_r.min(cap)` from its unchanged round `r`, and from `K` on the
/// state equals a fresh solve's state at round `K`, so the rest of the
/// solve, panics included, is the fresh one's. (A replayed round cannot be
/// one where a fresh solve would panic: its increment is the recorded,
/// finite one, and it freezes a flow, since its untouched argmin link
/// saturates or the pointer group, which the walk check keeps non-empty,
/// reaches its cap.)
///
/// # Layout
///
/// Every slot's route lives in one shared hop array: a slot owns a region
/// of it (`hop_start`, `hop_len`, `hop_cap`) holding `(link, position in
/// that link's flow list)` per crossing. A freed slot keeps its region,
/// and `add_flow` moves a slot to a fresh region at the end of the array
/// only when the new route is longer than the region, so once every slot
/// has carried its longest route nothing allocates, and the array holds
/// at most `ℓ(ℓ + 1)/2` entries per slot for the longest route `ℓ`.
/// Freezing a flow, replaying a round, logging a removal and re-pointing
/// the flow a removal moves all read slices of that array, not a heap
/// allocation per slot.
///
/// # Cost
///
/// Each link keeps the list of flows crossing it, and each flow its
/// position in every such list, so adding or removing a flow costs
/// `O(|links|)` (plus `O(G)` when it creates or empties one of the `G`
/// distinct finite caps). Flows are grouped by cap value in ascending
/// order, so no solve sorts. The replay costs `O(K · (touched + added +
/// removed))`, the restore `O(L + G)`, and each round run from `K` on
/// `O(A + L + G)`, where `A` is the number of links still carrying an
/// unfrozen flow (the `L + G` copies the round's start into the history),
/// plus `O(|links|)` once per flow when it freezes. Buffers are kept, so
/// once warm neither a solve nor an add/remove cycle allocates.
#[derive(Debug, Clone)]
pub struct Solver {
    capacity: Vec<f64>,
    /// Freezing tolerance: `1e-9 · max(1, max capacity)`.
    eps: f64,
    /// Every slot ever handed out, live or free.
    slots: Vec<Slot>,
    /// Every slot's route, `(link, position of the slot in on_link[link])`
    /// per crossing, in one array: slot `i` owns the region
    /// `hop_start..hop_start + hop_cap` and its route is the first
    /// `hop_len` entries of it.
    hops: Vec<(u32, u32)>,
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
    /// How each slot's flow froze in the most recent solve.
    marks: Vec<Mark>,
    rates: Vec<f64>,
    /// Links of the flow being added, checked before any state changes.
    pending: Vec<u32>,
    /// Number of the running (or most recent) solve, never 0: a [`Mark`]
    /// with this stamp froze in it.
    solve_no: u32,
    /// First round the running (or most recent) solve filled: a flow whose
    /// mark records an earlier round froze in the replayed prefix.
    resume: u32,
    history: History,
    log: ChangeLog,
    scratch: Scratch,
}

/// One flow position of the solver.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Its region of [`Solver::hops`]: where it starts, how many entries
    /// the route fills and how many it can hold. A freed slot keeps its
    /// region for the next flow it takes.
    hop_start: u32,
    hop_len: u32,
    hop_cap: u32,
    cap: f64,
    /// Cap group id ([`NO_GROUP`] for a non-finite cap) and the position
    /// of this slot in its member list.
    group: u32,
    group_pos: u32,
    /// Position in `live`, or `u32::MAX` while free.
    live_pos: u32,
    /// Position in the change log's added slots, or [`NONE`].
    added_pos: u32,
}

/// The live flows sharing one finite cap value.
#[derive(Debug, Clone, Default)]
struct CapGroup {
    cap: f64,
    members: Vec<u32>,
    /// Members not yet frozen in the current solve.
    unfrozen: u32,
}

/// How a slot's flow froze.
#[derive(Debug, Clone, Copy)]
struct Mark {
    /// The solve it froze in (0: none).
    stamp: u32,
    /// The round it froze in ([`NONE`] for a flow added since the last
    /// solve and not yet frozen).
    round: u32,
    /// Whether its cap froze it, rather than a saturated link.
    by_cap: bool,
}

impl Slot {
    /// Its route's entries in [`Solver::hops`].
    #[inline]
    fn hops(&self) -> std::ops::Range<usize> {
        let start = self.hop_start as usize;
        start..start + self.hop_len as usize
    }
}

impl Mark {
    const UNFROZEN: Mark = Mark {
        stamp: 0,
        round: NONE,
        by_cap: false,
    };
}

/// What a solve leaves for the next one to replay (see [`Solver`],
/// "Resuming"). Link rows are `L` wide and cap-group rows `groups` wide,
/// by cap-order position.
#[derive(Debug, Clone, Default)]
struct History {
    /// Whether the rest describes the most recent solve: false before the
    /// first solve and while (or after) a solve panics.
    valid: bool,
    /// Filling rounds of that solve.
    rounds: usize,
    /// The number of cap groups.
    groups: usize,
    // One entry (or row) per round.
    /// The increment, after `max(0)`.
    d: Vec<f64>,
    /// The link term of the increment: the least `residual / count`.
    link_min: Vec<f64>,
    /// A link attaining `link_min` ([`NONE`] if no link was active).
    argmin: Vec<u32>,
    /// Unfrozen members per cap group after the round's link freezes.
    group_after: Vec<u32>,
    // One entry (or row) per round start, plus one for the end.
    level: Vec<f64>,
    /// The cap-group pointer (a position in `cap_order`).
    next_group: Vec<u32>,
    unfrozen: Vec<u32>,
    residual: Vec<f64>,
    count: Vec<u32>,
    group_count: Vec<u32>,
    /// Per link: the round it saturated in, or [`NONE`].
    saturated: Vec<u32>,
}

impl History {
    /// Keeps rounds `0..k`, dropping the start of round `k` too: the
    /// filling loop records it again.
    fn truncate(&mut self, k: usize, nl: usize) {
        let ng = self.groups;
        self.d.truncate(k);
        self.link_min.truncate(k);
        self.argmin.truncate(k);
        self.group_after.truncate(k * ng);
        self.level.truncate(k);
        self.next_group.truncate(k);
        self.unfrozen.truncate(k);
        self.residual.truncate(k * nl);
        self.count.truncate(k * nl);
        self.group_count.truncate(k * ng);
    }
}

/// The changes since the last solve, as its replay reads them.
#[derive(Debug, Clone, Default)]
struct ChangeLog {
    /// The next solve must start at round 0.
    structural: bool,
    /// Links crossed by an added or removed flow.
    links: Vec<u32>,
    /// Per link: its position in `links`, or [`NONE`].
    link_pos: Vec<u32>,
    /// Cap groups with an added or removed member.
    groups: Vec<u32>,
    /// Per cap-group id: its position in `groups`, or [`NONE`].
    group_pos: Vec<u32>,
    /// Live slots added since the last solve.
    added: Vec<u32>,
    /// Flows of the last solve removed since.
    removed: Vec<Removed>,
    /// The removed flows' links, concatenated.
    removed_links: Vec<u32>,
}

/// A flow of the last solve that has been removed.
#[derive(Debug, Clone, Copy)]
struct Removed {
    /// The round it froze in, and whether its cap froze it.
    round: u32,
    by_cap: bool,
    /// Its cap group id, or [`NO_GROUP`].
    group: u32,
    /// Its links: `removed_links[start..end]`.
    start: u32,
    end: u32,
}

impl ChangeLog {
    fn touch_link(&mut self, l: u32) {
        if self.link_pos[l as usize] == NONE {
            self.link_pos[l as usize] = self.links.len() as u32;
            self.links.push(l);
        }
    }

    fn touch_group(&mut self, g: u32) {
        if self.group_pos[g as usize] == NONE {
            self.group_pos[g as usize] = self.groups.len() as u32;
            self.groups.push(g);
        }
    }

    /// The touched-link position of `l` (which must be touched).
    #[inline]
    fn link(&self, l: u32) -> usize {
        self.link_pos[l as usize] as usize
    }

    /// The touched-group position of `g` (which must be touched).
    #[inline]
    fn group(&self, g: u32) -> usize {
        self.group_pos[g as usize] as usize
    }

    /// Empties the log, unmarking what it marked.
    fn clear(&mut self, slots: &mut [Slot]) {
        for &l in &self.links {
            self.link_pos[l as usize] = NONE;
        }
        for &g in &self.groups {
            self.group_pos[g as usize] = NONE;
        }
        for &a in &self.added {
            slots[a as usize].added_pos = NONE;
        }
        self.links.clear();
        self.groups.clear();
        self.added.clear();
        self.removed.clear();
        self.removed_links.clear();
        self.structural = false;
    }
}

/// The replay's working state: the new solve's values on the touched links
/// and groups at the start of the round being replayed.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Per touched link, in `ChangeLog::links` order.
    links: Vec<TouchedLink>,
    /// Per touched cap group, in `ChangeLog::groups` order.
    groups: Vec<TouchedGroup>,
    /// Per added slot: whether it freezes in this round, and whether by
    /// its cap.
    freezing: Vec<Option<bool>>,
    /// Removed flows that froze in this round or later.
    removed_left: u32,
    /// Added flows not yet frozen.
    added_left: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct TouchedLink {
    residual: f64,
    /// Residual after the round.
    next: f64,
    count: u32,
    /// Crossings of removed flows that froze in this round or later.
    removed: u32,
    /// Crossings of added flows not yet frozen.
    added: u32,
    saturated: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct TouchedGroup {
    /// Its position in `cap_order`.
    position: u32,
    /// Removed members that froze in this round or later.
    removed: u32,
    /// Added members not yet frozen.
    added: u32,
    /// Unfrozen members after the round's link freezes.
    after: u32,
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
            hops: Vec::new(),
            free: Vec::new(),
            live: Vec::new(),
            on_link: vec![Vec::new(); nl],
            groups: Vec::new(),
            cap_order: Vec::new(),
            free_groups: Vec::new(),
            residual: vec![0.0; nl],
            flows_on_link: vec![0; nl],
            active: Vec::with_capacity(nl),
            marks: Vec::new(),
            rates: Vec::new(),
            pending: Vec::new(),
            solve_no: 0,
            resume: 0,
            history: History {
                saturated: vec![NONE; nl],
                ..History::default()
            },
            log: ChangeLog {
                link_pos: vec![NONE; nl],
                ..ChangeLog::default()
            },
            scratch: Scratch::default(),
            capacity,
        }
    }

    /// Number of live flows.
    pub fn num_flows(&self) -> usize {
        self.live.len()
    }

    /// Whether changes are logged for the next solve's replay: there is a
    /// history to replay and no structural change has voided it.
    fn logging(&self) -> bool {
        self.history.valid && !self.log.structural
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
                self.marks.push(Mark::UNFROZEN);
                self.rates.push(0.0);
                (self.slots.len() - 1) as u32
            }
        };
        let s = slot as usize;
        self.rates[s] = 0.0;
        self.marks[s] = Mark::UNFROZEN;
        // The route goes into the slot's region, or into a fresh one at the
        // end of `hops` if it is longer than the region.
        let len = self.pending.len() as u32;
        let mut region = self.slots[s];
        if len > region.hop_cap {
            region.hop_start = u32::try_from(self.hops.len()).expect("more than u32::MAX hops");
            region.hop_cap = len;
            self.hops.resize(self.hops.len() + len as usize, (0, 0));
        }
        region.hop_len = len;
        for (hop, &l) in self.hops[region.hops()].iter_mut().zip(&self.pending) {
            let list = &mut self.on_link[l as usize];
            *hop = (l, list.len() as u32);
            list.push(slot);
        }
        let (group, group_pos) = if rate_cap.is_finite() {
            let g = self.group_of(rate_cap);
            let members = &mut self.groups[g as usize].members;
            members.push(slot);
            (g, (members.len() - 1) as u32)
        } else {
            // Frozen at infinity before the first round.
            self.log.structural |= self.pending.is_empty();
            (NO_GROUP, 0)
        };
        let added_pos = if self.logging() {
            for &l in &self.pending {
                self.log.touch_link(l);
            }
            if group != NO_GROUP {
                self.log.touch_group(group);
            }
            self.log.added.push(slot);
            (self.log.added.len() - 1) as u32
        } else {
            NONE
        };
        self.slots[s] = Slot {
            hop_start: region.hop_start,
            hop_len: len,
            hop_cap: region.hop_cap,
            cap: rate_cap,
            group,
            group_pos,
            live_pos: self.live.len() as u32,
            added_pos,
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
        self.log_removal(slot);
        // Swap-remove from each crossed link's list, re-pointing the flow
        // that moves into the hole. Entries are re-read each step: with a
        // repeated link, the moved flow may be this one.
        for k in self.slots[slot].hops() {
            let (l, pos) = self.hops[k];
            let list = &mut self.on_link[l as usize];
            list.swap_remove(pos as usize);
            if let Some(&moved) = list.get(pos as usize) {
                let last = list.len() as u32;
                let hop = self.hops[self.slots[moved as usize].hops()]
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
                self.log.structural = true;
            }
        }
        self.live.swap_remove(live_pos as usize);
        if let Some(&moved) = self.live.get(live_pos as usize) {
            self.slots[moved as usize].live_pos = live_pos;
        }
        self.slots[slot].live_pos = u32::MAX;
        self.free.push(slot as u32);
    }

    /// Logs the removal of the live flow in `slot`. A flow added since the
    /// last solve leaves no record (its links stay touched); a flow of the
    /// last solve leaves how it froze, its cap group and its links.
    fn log_removal(&mut self, slot: usize) {
        let added_pos = self.slots[slot].added_pos;
        if added_pos != NONE {
            self.log.added.swap_remove(added_pos as usize);
            if let Some(&moved) = self.log.added.get(added_pos as usize) {
                self.slots[moved as usize].added_pos = added_pos;
            }
            self.slots[slot].added_pos = NONE;
            return;
        }
        if !self.logging() {
            return;
        }
        let removed = self.slots[slot];
        let Slot { cap, group, .. } = removed;
        if removed.hop_len == 0 && cap.is_infinite() {
            self.log.structural = true;
            return;
        }
        let start = self.log.removed_links.len() as u32;
        for &(l, _) in &self.hops[removed.hops()] {
            self.log.touch_link(l);
            self.log.removed_links.push(l);
        }
        if group != NO_GROUP {
            self.log.touch_group(group);
        }
        let Mark { round, by_cap, .. } = self.marks[slot];
        self.log.removed.push(Removed {
            round,
            by_cap,
            group,
            start,
            end: self.log.removed_links.len() as u32,
        });
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
                    self.log.group_pos.push(NONE);
                    (self.groups.len() - 1) as u32
                });
                self.groups[g as usize].cap = cap;
                self.cap_order.insert(at, g);
                self.log.structural = true;
                g
            }
        }
    }

    /// Filling rounds of the most recent [`solve`](Self::solve): the
    /// rounds of its solution, [`resumed`](Self::resumed) ones included.
    pub fn rounds(&self) -> u64 {
        self.history.rounds as u64
    }

    /// Rounds the most recent [`solve`](Self::solve) took from its
    /// replay of the solve before instead of filling them: `K`, the first
    /// round the changes in between could alter (0 for a fresh solve).
    pub fn resumed(&self) -> u64 {
        u64::from(self.resume)
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
    /// would not change. The solve replays the previous one first and
    /// fills only from the first round the changes since then can alter
    /// (see [`Solver`], "Resuming").
    ///
    /// # Panics
    ///
    /// Panics if the problem is unbounded (an uncapped flow crosses only
    /// infinite-capacity links) or filling stalls.
    pub fn solve(&mut self) {
        self.solve_no = self.solve_no.wrapping_add(1);
        if self.solve_no == 0 {
            // The stamps wrapped: forget them all, so none can match.
            for m in &mut self.marks {
                m.stamp = 0;
            }
            self.solve_no = 1;
        }
        let resume = if self.logging() { self.replay() } else { 0 };
        self.history.valid = false;
        let (level, next_group, unfrozen) = if resume == 0 {
            self.start()
        } else {
            self.restore(resume)
        };
        self.log.clear(&mut self.slots);
        self.fill(resume, level, next_group, unfrozen);
        self.history.valid = true;
    }

    /// Sets up a fresh solve at round 0; returns `level`, the cap-group
    /// pointer and the unfrozen total.
    fn start(&mut self) -> (f64, usize, usize) {
        self.resume = 0;
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
        let h = &mut self.history;
        h.groups = self.cap_order.len();
        h.truncate(0, 0);
        h.saturated.fill(NONE);

        let mut unfrozen = self.live.len();
        // Flows with no links and no cap would grow forever: freeze them at
        // infinity straight away.
        for &i in &self.live {
            let i = i as usize;
            let slot = &self.slots[i];
            if slot.hop_len == 0 && slot.cap.is_infinite() {
                self.rates[i] = f64::INFINITY;
                self.marks[i] = Mark {
                    stamp: self.solve_no,
                    round: 0,
                    by_cap: false,
                };
                unfrozen -= 1;
            }
        }
        (0.0, 0, unfrozen)
    }

    /// Replays the history of the last solve against the change log and
    /// returns `K`, the first round that changes (the last solve's round
    /// count if none does). Rounds `0..K` are rewritten in the history with
    /// the new values of the touched links and groups, and the added flows
    /// that freeze in them are frozen; the scratch is left at the start of
    /// round `K` for [`restore`](Self::restore).
    fn replay(&mut self) -> u32 {
        let log = &self.log;
        let s = &mut self.scratch;
        debug_assert_eq!(self.history.groups, self.cap_order.len());
        s.links.clear();
        s.links.extend(log.links.iter().map(|&l| TouchedLink {
            residual: self.capacity[l as usize],
            ..TouchedLink::default()
        }));
        s.groups.clear();
        s.groups.extend(log.groups.iter().map(|&g| {
            let cap = self.groups[g as usize].cap;
            let position = self
                .cap_order
                .binary_search_by(|&o| self.groups[o as usize].cap.total_cmp(&cap))
                .expect("a touched group is ordered");
            TouchedGroup {
                position: position as u32,
                ..TouchedGroup::default()
            }
        }));
        s.freezing.clear();
        s.freezing.resize(log.added.len(), None);
        for r in &log.removed {
            for &l in &log.removed_links[r.start as usize..r.end as usize] {
                s.links[log.link(l)].removed += 1;
            }
            if r.group != NO_GROUP {
                s.groups[log.group(r.group)].removed += 1;
            }
        }
        for &a in &log.added {
            let slot = &self.slots[a as usize];
            for &(l, _) in &self.hops[slot.hops()] {
                s.links[log.link(l)].added += 1;
            }
            if slot.group != NO_GROUP {
                s.groups[log.group(slot.group)].added += 1;
            }
        }
        s.removed_left = log.removed.len() as u32;
        s.added_left = log.added.len() as u32;
        let mut k = 0;
        while k < self.history.rounds && self.replay_round(k) {
            k += 1;
        }
        k as u32
    }

    /// Checks that round `k` of the new solve is the last solve's round `k`
    /// on the untouched links and groups; if so, rewrites the round's
    /// history row for the touched ones, freezes the added flows that
    /// freeze in it and steps the scratch to round `k + 1`.
    fn replay_round(&mut self, k: usize) -> bool {
        let Self {
            capacity,
            eps,
            slots,
            hops,
            groups,
            cap_order,
            marks,
            rates,
            solve_no,
            history: h,
            log,
            scratch: s,
            ..
        } = self;
        let (row, grow) = (k * capacity.len(), k * h.groups);
        let round = k as u32;
        // The increment: the recorded link term must still be the least,
        // so its argmin must be untouched and no touched share below it.
        let argmin = h.argmin[k];
        if argmin != NONE && log.link_pos[argmin as usize] != NONE {
            return false;
        }
        let (link_min, d) = (h.link_min[k], h.d[k]);
        for (t, &l) in s.links.iter_mut().zip(&log.links) {
            let l = l as usize;
            let count = h.count[row + l] - t.removed + t.added;
            let mut next = t.residual;
            if count > 0 {
                // `<` as in the filling round: a NaN share never lowers it.
                if t.residual / f64::from(count) < link_min {
                    return false;
                }
                next -= d * f64::from(count);
            }
            let saturated = count > 0 && next <= *eps;
            if saturated != (h.saturated[l] == round) {
                return false;
            }
            t.count = count;
            t.next = next;
            t.saturated = saturated;
        }
        let level = h.level[k + 1];

        // Link freezes: an added flow freezes if one of its (touched) links
        // saturates.
        let mut freezing = 0;
        for (f, &a) in s.freezing.iter_mut().zip(&log.added) {
            let link_frozen = marks[a as usize].round == NONE
                && hops[slots[a as usize].hops()]
                    .iter()
                    .any(|&(l, _)| s.links[log.link(l)].saturated);
            *f = link_frozen.then_some(false);
            freezing += u32::from(link_frozen);
        }
        // Cap groups after the link freezes: the recorded count, less the
        // removed members it counted, plus the added members still unfrozen.
        for g in &mut s.groups {
            g.after = h.group_after[grow + g.position as usize] + g.added;
        }
        let mut removed_now = 0;
        for r in &log.removed {
            if r.round == round {
                removed_now += 1;
                if !r.by_cap && r.group != NO_GROUP {
                    s.groups[log.group(r.group)].after += 1;
                }
            }
        }
        for (f, &a) in s.freezing.iter().zip(&log.added) {
            let group = slots[a as usize].group;
            if f.is_some() && group != NO_GROUP {
                s.groups[log.group(group)].after -= 1;
            }
        }
        for g in &mut s.groups {
            g.after -= g.removed;
        }
        // The cap walk on those counts must end where it ended before.
        let mut p = h.next_group[k] as usize;
        while let Some(&g) = cap_order.get(p) {
            let j = log.group_pos[g as usize];
            let count = if j == NONE {
                h.group_after[grow + p]
            } else {
                s.groups[j as usize].after
            };
            if count > 0 {
                if level < groups[g as usize].cap - *eps {
                    break;
                }
                if j != NONE {
                    for (f, &a) in s.freezing.iter_mut().zip(&log.added) {
                        if slots[a as usize].group == g
                            && marks[a as usize].round == NONE
                            && f.is_none()
                        {
                            *f = Some(true);
                            freezing += 1;
                        }
                    }
                }
            }
            p += 1;
        }
        if p != h.next_group[k + 1] as usize {
            return false;
        }
        // A round that passes the checks freezes a flow, as every round of
        // a fresh solve must: its untouched argmin link saturates, or the
        // pointer group, which the walk check keeps non-empty, hits its cap.
        debug_assert!(
            h.unfrozen[k] - h.unfrozen[k + 1] - removed_now + freezing > 0,
            "replayed round {k} freezes nothing"
        );

        // Round `k` is the old one: write the touched links and groups into
        // its history row, then step them to round `k + 1`.
        h.unfrozen[k] = h.unfrozen[k] - s.removed_left + s.added_left;
        for (t, &l) in s.links.iter_mut().zip(&log.links) {
            h.residual[row + l as usize] = t.residual;
            h.count[row + l as usize] = t.count;
            t.residual = t.next;
        }
        for g in &s.groups {
            let at = grow + g.position as usize;
            h.group_count[at] = h.group_count[at] - g.removed + g.added;
            h.group_after[at] = g.after;
        }
        for (f, &a) in s.freezing.iter().zip(&log.added) {
            let Some(by_cap) = *f else {
                continue;
            };
            let slot = &slots[a as usize];
            rates[a as usize] = level.min(slot.cap);
            marks[a as usize] = Mark {
                stamp: *solve_no,
                round,
                by_cap,
            };
            for &(l, _) in &hops[slot.hops()] {
                s.links[log.link(l)].added -= 1;
            }
            if slot.group != NO_GROUP {
                s.groups[log.group(slot.group)].added -= 1;
            }
            s.added_left -= 1;
        }
        for r in &log.removed {
            if r.round == round {
                for &l in &log.removed_links[r.start as usize..r.end as usize] {
                    s.links[log.link(l)].removed -= 1;
                }
                if r.group != NO_GROUP {
                    s.groups[log.group(r.group)].removed -= 1;
                }
                s.removed_left -= 1;
            }
        }
        true
    }

    /// Restores the state at the start of round `resume` (≥ 1) from the
    /// history, patched for the touched links and groups; returns `level`,
    /// the cap-group pointer and the unfrozen total.
    fn restore(&mut self, resume: u32) -> (f64, usize, usize) {
        self.resume = resume;
        let k = resume as usize;
        let nl = self.capacity.len();
        let (h, log, s) = (&mut self.history, &self.log, &self.scratch);
        self.residual
            .copy_from_slice(&h.residual[k * nl..(k + 1) * nl]);
        self.flows_on_link
            .copy_from_slice(&h.count[k * nl..(k + 1) * nl]);
        for (t, &l) in s.links.iter().zip(&log.links) {
            let l = l as usize;
            self.residual[l] = t.residual;
            self.flows_on_link[l] = self.flows_on_link[l] - t.removed + t.added;
        }
        self.active.clear();
        for (l, (&count, saturated)) in self
            .flows_on_link
            .iter()
            .zip(h.saturated.iter_mut())
            .enumerate()
        {
            if count > 0 {
                self.active.push(l as u32);
            }
            if *saturated >= resume {
                *saturated = NONE;
            }
        }
        let grow = k * h.groups;
        for (p, &g) in self.cap_order.iter().enumerate() {
            self.groups[g as usize].unfrozen = h.group_count[grow + p];
        }
        for (t, &g) in s.groups.iter().zip(&log.groups) {
            let g = &mut self.groups[g as usize];
            g.unfrozen = g.unfrozen - t.removed + t.added;
        }
        let unfrozen = h.unfrozen[k] - s.removed_left + s.added_left;
        let (level, next_group) = (h.level[k], h.next_group[k]);
        h.truncate(k, nl);
        (level, next_group as usize, unfrozen as usize)
    }

    /// Runs progressive filling from round `first`, given the state at its
    /// start, recording the history as it goes.
    fn fill(&mut self, first: u32, mut level: f64, mut next_group: usize, mut unfrozen: usize) {
        let mut round = first;
        loop {
            self.record_start(level, next_group, unfrozen);
            if unfrozen == 0 {
                break;
            }
            // Largest uniform increment before a link saturates or a flow
            // hits its cap.
            let mut link_min = f64::INFINITY;
            let mut argmin = NONE;
            for &l in &self.active {
                let share = self.residual[l as usize] / f64::from(self.flows_on_link[l as usize]);
                // `<`, as `f64::min` would: a NaN share never lowers it.
                if share < link_min {
                    link_min = share;
                    argmin = l;
                }
            }
            let mut d = link_min;
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
                    self.history.saturated[l] = round;
                    for k in 0..self.on_link[l].len() {
                        let i = self.on_link[l][k] as usize;
                        if !self.is_frozen(i) {
                            self.freeze(i, level, round, false);
                            unfrozen -= 1;
                        }
                    }
                }
            }
            let h = &mut self.history;
            h.d.push(d);
            h.link_min.push(link_min);
            h.argmin.push(argmin);
            h.group_after.extend(
                self.cap_order
                    .iter()
                    .map(|&g| self.groups[g as usize].unfrozen),
            );
            while let Some(&g) = self.cap_order.get(next_group) {
                let g = g as usize;
                if self.groups[g].unfrozen > 0 {
                    if level < self.groups[g].cap - self.eps {
                        break;
                    }
                    for k in 0..self.groups[g].members.len() {
                        let i = self.groups[g].members[k] as usize;
                        if !self.is_frozen(i) {
                            self.freeze(i, level, round, true);
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
            round += 1;
        }
        self.history.rounds = round as usize;
    }

    /// Appends the state at the start of a round (or the end) to the
    /// history.
    fn record_start(&mut self, level: f64, next_group: usize, unfrozen: usize) {
        let h = &mut self.history;
        h.level.push(level);
        h.next_group.push(next_group as u32);
        h.unfrozen.push(unfrozen as u32);
        h.residual.extend_from_slice(&self.residual);
        h.count.extend_from_slice(&self.flows_on_link);
        h.group_count.extend(
            self.cap_order
                .iter()
                .map(|&g| self.groups[g as usize].unfrozen),
        );
    }

    /// Whether flow `i` is frozen in the running solve: it froze in this
    /// solve, or in the prefix the solve resumed past.
    #[inline]
    fn is_frozen(&self, i: usize) -> bool {
        let m = self.marks[i];
        m.stamp == self.solve_no || m.round < self.resume
    }

    /// Freezes flow `i` in `round` at the current `level` (or its cap, if
    /// lower).
    fn freeze(&mut self, i: usize, level: f64, round: u32, by_cap: bool) {
        let slot = &self.slots[i];
        self.rates[i] = level.min(slot.cap);
        self.marks[i] = Mark {
            stamp: self.solve_no,
            round,
            by_cap,
        };
        for &(l, _) in &self.hops[slot.hops()] {
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

    /// Solves as [`assert_bit_identical`] does, also checks the rates and
    /// the round count against a fresh solver over the same flows, and
    /// returns the rounds the solve resumed.
    fn resumed_solve(solver: &mut Solver, capacity: &[f64], live: &[(usize, FlowSpec)]) -> u64 {
        assert_bit_identical(solver, capacity, live);
        let mut fresh = Solver::new(capacity.to_vec());
        let slots: Vec<usize> = live.iter().map(|(_, f)| add(&mut fresh, f)).collect();
        fresh.solve();
        assert_eq!(fresh.resumed(), 0, "a first solve is fresh");
        assert_eq!(solver.rounds(), fresh.rounds(), "rounds of the solution");
        for ((slot, f), &fs) in live.iter().zip(&slots) {
            assert_eq!(
                solver.rate(*slot).to_bits(),
                fresh.rate(fs).to_bits(),
                "slot {slot} {f:?}: resumed {} vs fresh {}",
                solver.rate(*slot),
                fresh.rate(fs)
            );
        }
        assert!(solver.resumed() <= solver.rounds());
        let pairs: Vec<(usize, usize)> = live.iter().map(|(s, _)| *s).zip(slots).collect();
        assert_history_matches(solver, &fresh, &pairs);
        solver.resumed()
    }

    /// Asserts that `solver` keeps the history and freeze marks a fresh
    /// solve (`fresh`) of the same flows keeps: what the next replay reads
    /// must describe the latest solve, however it was reached. `pairs`
    /// maps each live slot of `solver` to its slot in `fresh`. Floats
    /// compare by `==` (a resumed prefix may carry the other zero's sign,
    /// which no rate can see); the argmin may be any link attaining the
    /// link term; residuals matter only on links with unfrozen flows.
    fn assert_history_matches(solver: &Solver, fresh: &Solver, pairs: &[(usize, usize)]) {
        let (h, f) = (&solver.history, &fresh.history);
        assert!(h.valid && f.valid);
        assert_eq!(h.rounds, f.rounds, "rounds");
        assert_eq!(h.groups, f.groups, "cap groups");
        assert_eq!(h.saturated, f.saturated, "saturation rounds");
        let nl = solver.capacity.len();
        for k in 0..=h.rounds {
            let row = k * nl..(k + 1) * nl;
            assert!(h.level[k] == f.level[k], "level at round {k}");
            assert_eq!(h.next_group[k], f.next_group[k], "cap pointer at round {k}");
            assert_eq!(h.unfrozen[k], f.unfrozen[k], "unfrozen at round {k}");
            assert_eq!(
                h.count[row.clone()],
                f.count[row.clone()],
                "counts at round {k}"
            );
            for l in row.clone().filter(|&l| f.count[l] > 0) {
                assert!(
                    h.residual[l] == f.residual[l]
                        || (h.residual[l].is_nan() && f.residual[l].is_nan()),
                    "residual of link {} at round {k}",
                    l - row.start
                );
            }
            let groups = k * h.groups..(k + 1) * h.groups;
            assert_eq!(
                h.group_count[groups.clone()],
                f.group_count[groups.clone()],
                "cap-group counts at round {k}"
            );
            if k == h.rounds {
                break;
            }
            assert!(h.d[k] == f.d[k], "increment of round {k}");
            assert!(h.link_min[k] == f.link_min[k], "link term of round {k}");
            assert_eq!(
                h.group_after[groups.clone()],
                f.group_after[groups],
                "cap-group counts after the link freezes of round {k}"
            );
            let argmin = h.argmin[k];
            if argmin == NONE {
                assert_eq!(h.link_min[k], f64::INFINITY, "round {k} has an argmin");
            } else {
                let l = row.start + argmin as usize;
                let share = h.residual[l] / f64::from(h.count[l]);
                assert!(
                    share == h.link_min[k],
                    "argmin of round {k} misses the link term"
                );
            }
        }
        for &(s, fs) in pairs {
            let (m, fm) = (solver.marks[s], fresh.marks[fs]);
            assert_eq!(
                (m.round, m.by_cap),
                (fm.round, fm.by_cap),
                "freeze mark of slot {s}"
            );
        }
    }

    /// Adds `flows` to `solver`, returning `(slot, flow)` pairs.
    fn add_all(solver: &mut Solver, flows: &[FlowSpec]) -> Vec<(usize, FlowSpec)> {
        flows.iter().map(|f| (add(solver, f), f.clone())).collect()
    }

    #[test]
    fn an_unchanged_flow_set_resumes_past_every_round() {
        let capacity = [1.0, 10.0, 3.0];
        let mut s = Solver::new(capacity.to_vec());
        let live = add_all(
            &mut s,
            &[flow(&[0]), capped(&[1], 2.0), flow(&[1, 2]), flow(&[2])],
        );
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 0);
        let rounds = s.rounds();
        assert_eq!(rounds, 3);
        assert_eq!(resumed_solve(&mut s, &capacity, &live), rounds);
        assert_eq!(resumed_solve(&mut s, &capacity, &live), rounds);
    }

    #[test]
    fn resume_stops_at_the_first_round_whose_argmin_link_is_touched() {
        // Link 0 sets round 0's increment, link 1 round 1's.
        let capacity = [1.0, 10.0];
        let mut s = Solver::new(capacity.to_vec());
        let mut live = add_all(&mut s, &[flow(&[0]), flow(&[1])]);
        resumed_solve(&mut s, &capacity, &live);
        assert_eq!(s.rounds(), 2);
        // A second flow on link 1 leaves round 0 as it was.
        live.extend(add_all(&mut s, &[flow(&[1])]));
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 1);
        // One on link 0 touches round 0's argmin.
        live.extend(add_all(&mut s, &[flow(&[0])]));
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 0);
    }

    #[test]
    fn resume_stops_where_a_touched_share_falls_below_the_link_term() {
        // Rounds: link 0 saturates at share 1, link 2 at 2, link 1 last.
        let capacity = [1.0, 10.0, 3.0];
        let mut s = Solver::new(capacity.to_vec());
        let mut live = add_all(&mut s, &[flow(&[0]), flow(&[1]), flow(&[2])]);
        resumed_solve(&mut s, &capacity, &live);
        assert_eq!(s.rounds(), 3);
        // Five flows on link 1: share 10/5 = 2 ≥ 1 in round 0, then
        // 5/5 = 1 < 2 in round 1.
        live.extend(add_all(
            &mut s,
            &[flow(&[1]), flow(&[1]), flow(&[1]), flow(&[1])],
        ));
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 1);
    }

    #[test]
    fn resume_stops_where_a_touched_link_saturates_later_or_earlier() {
        // Round 0: link 0 (share 0.5). Round 1: links 1 and 2 tie at 0.5
        // and both saturate; link 1 is the argmin.
        let capacity = [0.5, 1.0, 2.0];
        let mut s = Solver::new(capacity.to_vec());
        let mut live = add_all(&mut s, &[flow(&[0]), flow(&[1]), flow(&[2]), flow(&[2])]);
        resumed_solve(&mut s, &capacity, &live);
        assert_eq!(s.rounds(), 2);
        // Later: without one of its flows, link 2 no longer saturates in
        // round 1 (its share still passes).
        let (slot, _) = live.pop().unwrap();
        s.remove_flow(slot);
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 1);
        assert_eq!(s.rounds(), 3);
        // Earlier: a second flow on link 2 makes it saturate in round 1
        // again, with a share exactly equal to the link term.
        live.extend(add_all(&mut s, &[flow(&[2])]));
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 1);
        assert_eq!(s.rounds(), 2);
    }

    #[test]
    fn resume_stops_where_the_cap_walk_moves_past_a_group_left_without_unfrozen_members() {
        // Round 0: link 2 freezes e (cap 3). Round 1: a hits cap 1 and the
        // walk stops at cap 3 (c unfrozen). Round 2: c hits cap 3. Round 3:
        // link 0 saturates.
        let capacity = [10.0, 100.0, 0.2];
        let mut s = Solver::new(capacity.to_vec());
        let mut live = add_all(
            &mut s,
            &[
                capped(&[0], 1.0),
                flow(&[0]),
                capped(&[1], 3.0),
                capped(&[2], 3.0),
            ],
        );
        resumed_solve(&mut s, &capacity, &live);
        assert_eq!(s.rounds(), 4);
        // Without c, cap 3 has no unfrozen member after round 0, so round
        // 1's walk runs past it.
        let (slot, _) = live.remove(2);
        s.remove_flow(slot);
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 1);
    }

    #[test]
    fn a_linkless_capped_flow_freezes_in_the_replay() {
        let capacity = [1.0, 10.0];
        let mut s = Solver::new(capacity.to_vec());
        let mut live = add_all(&mut s, &[flow(&[0]), capped(&[1], 4.0), flow(&[1])]);
        resumed_solve(&mut s, &capacity, &live);
        assert_eq!(s.rounds(), 3);
        // Cap 4 is in use: the new flow joins its group and freezes with
        // it in round 1, so no round changes.
        live.extend(add_all(&mut s, &[capped(&[], 4.0)]));
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 3);
        assert_eq!(s.rate(live[3].0), 4.0);
    }

    #[test]
    fn creating_or_emptying_a_cap_group_or_a_linkless_uncapped_flow_solves_fresh() {
        let capacity = [1.0, 10.0];
        let mut s = Solver::new(capacity.to_vec());
        let mut live = add_all(&mut s, &[flow(&[0]), capped(&[1], 4.0), flow(&[1])]);
        resumed_solve(&mut s, &capacity, &live);
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 3);
        // A new cap value creates a group.
        live.extend(add_all(&mut s, &[capped(&[], 5.0)]));
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 0);
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 4);
        // Removing its only flow empties it.
        let (slot, _) = live.pop().unwrap();
        s.remove_flow(slot);
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 0);
        // A linkless uncapped flow enters, then leaves.
        live.extend(add_all(&mut s, &[flow(&[])]));
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 0);
        assert_eq!(s.rate(live[3].0), f64::INFINITY);
        let (slot, _) = live.pop().unwrap();
        s.remove_flow(slot);
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 0);
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 3);
    }

    #[test]
    fn a_panicking_solve_leaves_no_history_to_resume() {
        // `∞ − 3 · 1e308` is NaN: with two uncapped flows added the problem
        // is unbounded (see `infinite_capacity_overflow_matches_the_reference`).
        let capacity = [f64::INFINITY];
        let mut s = Solver::new(capacity.to_vec());
        let live = add_all(&mut s, &[capped(&[0], 1e308)]);
        resumed_solve(&mut s, &capacity, &live);
        let bad = [
            s.add_flow([0], f64::INFINITY),
            s.add_flow([0], f64::INFINITY),
        ];
        let err = outcome(|| {
            s.solve();
            Vec::new()
        });
        assert!(
            err.as_ref().is_err_and(|m| m.contains("unbounded")),
            "{err:?}"
        );
        for slot in bad {
            s.remove_flow(slot);
        }
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 0);
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 1);
    }

    #[test]
    fn a_flow_added_and_removed_between_solves_leaves_no_trace() {
        let capacity = [1.0, 10.0, 50.0];
        let mut s = Solver::new(capacity.to_vec());
        let live = add_all(&mut s, &[flow(&[0]), flow(&[1])]);
        resumed_solve(&mut s, &capacity, &live);
        // The transient flow leaves no record, but its links stay touched:
        // one on link 2 alone changes nothing...
        let transient = s.add_flow([2], f64::INFINITY);
        s.remove_flow(transient);
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 2);
        // ...while touching link 0, round 0's argmin, stops the replay
        // there.
        let transient = s.add_flow([2, 0], f64::INFINITY);
        s.remove_flow(transient);
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 0);
    }

    #[test]
    fn a_freed_slot_reused_between_solves_resumes_bit_for_bit() {
        // Round 0: link 0. Round 1: link 1. Round 2: cap 30 (level 30;
        // link 3's share 35 is the link term). Round 3: link 3.
        let capacity = [1.0, 10.0, 50.0, 45.0];
        let mut s = Solver::new(capacity.to_vec());
        let mut live = add_all(
            &mut s,
            &[
                flow(&[0]),
                flow(&[1]),
                capped(&[2], 30.0),
                capped(&[], 30.0),
                flow(&[3]),
            ],
        );
        resumed_solve(&mut s, &capacity, &live);
        assert_eq!(s.rounds(), 4);
        // A flow that froze by its cap in round 2 leaves, and its slot
        // takes a new flow that freezes by the same cap in the replay.
        let (old, _) = live.remove(2);
        s.remove_flow(old);
        let f = capped(&[2], 30.0);
        let slot = add(&mut s, &f);
        assert_eq!(slot, old, "the freed slot is reused");
        live.push((slot, f));
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 4);
        assert_eq!(s.rate(slot), 30.0);
    }

    #[test]
    fn a_route_crossing_a_link_twice_resumes_bit_for_bit() {
        // Round 0: link 2 (share 1). Round 1: link 0, counted three times.
        let capacity = [9.0, 5.0, 1.0];
        let mut s = Solver::new(capacity.to_vec());
        let mut live = add_all(&mut s, &[flow(&[0, 0]), flow(&[0]), flow(&[2])]);
        resumed_solve(&mut s, &capacity, &live);
        assert_eq!(s.rounds(), 2);
        live.extend(add_all(&mut s, &[flow(&[1, 0, 1])]));
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 1);
        let (slot, _) = live.remove(0);
        s.remove_flow(slot);
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 1);
    }

    #[test]
    fn a_zero_capacity_link_resumes_and_stalls_its_new_flow() {
        // Links 0 and 1 have no capacity: both saturate in round 0 at
        // share 0 (link 0 is the argmin); link 2 in round 1.
        let capacity = [0.0, 0.0, 1.0];
        let mut s = Solver::new(capacity.to_vec());
        let mut live = add_all(&mut s, &[flow(&[0]), flow(&[1]), flow(&[2])]);
        resumed_solve(&mut s, &capacity, &live);
        assert_eq!(s.rounds(), 2);
        live.extend(add_all(&mut s, &[flow(&[1])]));
        assert_eq!(resumed_solve(&mut s, &capacity, &live), 2);
        assert_eq!(s.rate(live[3].0), 0.0);
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

    /// Slot `i`'s region of the hop array: start, route length, capacity.
    fn region(s: &Solver, i: usize) -> (u32, u32, u32) {
        let slot = &s.slots[i];
        (slot.hop_start, slot.hop_len, slot.hop_cap)
    }

    #[test]
    fn a_freed_slot_keeps_its_hop_region_unless_the_new_route_is_longer() {
        let capacity = [10.0; 4];
        let mut s = Solver::new(capacity.to_vec());
        let a = s.add_flow([0, 1], f64::INFINITY);
        let b = s.add_flow([2], f64::INFINITY);
        assert_eq!((region(&s, a), region(&s, b)), ((0, 2, 2), (2, 1, 1)));
        // Shorter: the slot keeps its region.
        s.remove_flow(a);
        let c = s.add_flow([3], f64::INFINITY);
        assert_eq!(c, a, "the freed slot is reused");
        assert_eq!(region(&s, c), (0, 1, 2));
        assert_eq!(s.hops[..3], [(3, 0), (1, 0), (2, 0)]);
        // As long as the region: still in place.
        s.remove_flow(c);
        let d = s.add_flow([1, 3], f64::INFINITY);
        assert_eq!(region(&s, d), (0, 2, 2));
        // Longer: the slot moves to a fresh region at the end.
        s.remove_flow(b);
        let e = s.add_flow([0, 2, 3], 5.0);
        assert_eq!(e, b, "the freed slot is reused");
        assert_eq!(region(&s, e), (3, 3, 3));
        assert_eq!(s.hops, [(1, 0), (3, 0), (2, 0), (0, 0), (2, 0), (3, 1)]);
        let live = [(d, flow(&[1, 3])), (e, capped(&[0, 2, 3], 5.0))];
        assert_bit_identical(&mut s, &capacity, &live);
        assert_eq!(s.rate(e), 5.0);
    }

    #[test]
    fn remove_flow_repoints_the_moved_flows_hop_in_the_array() {
        let capacity = [10.0; 3];
        let mut s = Solver::new(capacity.to_vec());
        let a = s.add_flow([0], f64::INFINITY);
        let b = s.add_flow([1, 0], f64::INFINITY);
        let c = s.add_flow([2, 0], f64::INFINITY);
        // c, last on link 0, moves into a's place there.
        s.remove_flow(a);
        assert_eq!(listed(&s, 0), [c, b]);
        assert_eq!(s.hops[s.slots[c].hops()], [(2, 0), (0, 0)]);
        assert_eq!(s.hops[s.slots[b].hops()], [(1, 0), (0, 1)]);
        let mut live = vec![(b, flow(&[1, 0])), (c, flow(&[2, 0]))];
        assert_bit_identical(&mut s, &capacity, &live);
        // b, now last on link 0 again, moves into c's place.
        s.remove_flow(c);
        live.pop();
        assert_eq!(listed(&s, 0), [b]);
        assert_eq!(s.hops[s.slots[b].hops()], [(1, 0), (0, 0)]);
        assert_bit_identical(&mut s, &capacity, &live);
    }

    #[test]
    fn warm_add_remove_cycles_of_equal_length_routes_keep_the_hop_array_flat() {
        let capacity = vec![125e6; 8];
        let mut s = Solver::new(capacity.clone());
        let mut live: std::collections::VecDeque<(usize, FlowSpec)> = (0..6)
            .map(|i| {
                let f = flow(&[i, (i + 1) % 8]);
                (add(&mut s, &f), f)
            })
            .collect();
        s.solve();
        let len = s.hops.len();
        assert_eq!(len, 12);
        for i in 0..200usize {
            for _ in 0..2 {
                s.remove_flow(live.pop_front().unwrap().0);
            }
            for k in 0..2 {
                let cap = if (i + k) % 2 == 0 {
                    81.92e6
                } else {
                    f64::INFINITY
                };
                let f = capped(&[(i + k) % 8, (i + 3) % 8], cap);
                live.push_back((add(&mut s, &f), f));
            }
            s.solve();
            assert_eq!(s.hops.len(), len, "after cycle {i}");
        }
        assert_bit_identical(&mut s, &capacity, live.make_contiguous());
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
            add_remove_script(seed);
        }

        /// Bit parity at simulator scale: a grillon-sized link set with up
        /// to a few hundred flows of 2-link routes, half of them capped at
        /// one shared TCP-window value, then event-sized changes (a few
        /// flows leave, a few arrive) between solves.
        #[test]
        fn solver_matches_reference_at_scale(seed in 0u64..u64::MAX) {
            event_script_at_scale(seed);
        }

        /// Bit parity of resumed solves: event-sized scripts (a few flows
        /// leave, a few arrive, some arrive and leave before the solve)
        /// over flows drawn from a small pool, so routes and caps recur and
        /// most solves resume; each solve is checked against a fresh
        /// solver (rates and rounds) and the reference.
        #[test]
        fn resumed_solve_matches_a_fresh_solver_and_the_reference(seed in 0u64..u64::MAX) {
            resume_script(seed);
        }
    }

    // The same three parity properties at 20,000 cases each, for a release
    // run: `cargo test --release -p rats-simnet --lib -- --ignored`.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        #[ignore = "deep parity run, ~16 s in release"]
        fn solver_matches_reference_bit_for_bit_deep(seed in 0u64..u64::MAX) {
            add_remove_script(seed);
        }

        #[test]
        #[ignore = "deep parity run, ~16 s in release"]
        fn solver_matches_reference_at_scale_deep(seed in 0u64..u64::MAX) {
            event_script_at_scale(seed);
        }

        #[test]
        #[ignore = "deep parity run, ~16 s in release"]
        fn resumed_solve_matches_a_fresh_solver_and_the_reference_deep(seed in 0u64..u64::MAX) {
            resume_script(seed);
        }
    }

    fn add_remove_script(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = rng.random_range(1..=8usize);
        let capacity = tie_prone_capacities(&mut rng, nl);
        let mut solver = Solver::new(capacity.clone());
        let mut live: Vec<(usize, FlowSpec)> = Vec::new();
        for _ in 0..rng.random_range(1..=10usize) {
            let replace_all = rng.random_range(0..5usize) == 0;
            let p_remove = if replace_all {
                1.0
            } else {
                rng.random_range(0.0..0.6)
            };
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

    fn event_script_at_scale(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = 47;
        let capacity = vec![125e6; nl];
        let mut solver = Solver::new(capacity.clone());
        let mut live: Vec<(usize, FlowSpec)> = Vec::new();
        let arrive = |rng: &mut StdRng, solver: &mut Solver, live: &mut Vec<_>, n| {
            for _ in 0..n {
                let src = rng.random_range(0..nl);
                let dst = (src + rng.random_range(1..nl)) % nl;
                let rate_cap = if rng.random_bool(0.5) {
                    81.92e6
                } else {
                    f64::INFINITY
                };
                let f = FlowSpec {
                    links: vec![src, dst],
                    rate_cap,
                };
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

    fn resume_script(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = rng.random_range(1..=8usize);
        let capacity = tie_prone_capacities(&mut rng, nl);
        let pool = tie_prone_flows(&mut rng, &capacity, 16);
        let draw = |rng: &mut StdRng| pool[rng.random_range(0..pool.len())].clone();
        let mut solver = Solver::new(capacity.clone());
        let mut live: Vec<(usize, FlowSpec)> = Vec::new();
        for _ in 0..rng.random_range(0..=12usize) {
            let f = draw(&mut rng);
            live.push((add(&mut solver, &f), f));
        }
        resumed_solve(&mut solver, &capacity, &live);
        for _ in 0..rng.random_range(1..=12usize) {
            for _ in 0..rng.random_range(0..=3usize).min(live.len()) {
                let k = rng.random_range(0..live.len());
                solver.remove_flow(live.swap_remove(k).0);
            }
            for _ in 0..rng.random_range(0..=3usize) {
                let f = draw(&mut rng);
                let slot = add(&mut solver, &f);
                if rng.random_range(0..4usize) == 0 {
                    solver.remove_flow(slot);
                } else {
                    live.push((slot, f));
                }
            }
            resumed_solve(&mut solver, &capacity, &live);
        }
    }
}
