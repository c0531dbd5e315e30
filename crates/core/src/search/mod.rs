//! The n-way search for memory bottlenecks (paper section 2.2).
//!
//! With *n* base/bounds-qualified miss counters plus one global counter,
//! the search repeatedly measures *n* regions of the address space for one
//! timer interval, ranks every measured region in a priority queue by its
//! share of total misses, and refines the best regions — splitting them at
//! object-extent boundaries so no object ever spans a region — until the
//! top *n−1* queue entries each cover a single memory object (or until
//! everything still unsearched falls below a share threshold). Found
//! objects are then re-measured for several intervals with counters set to
//! their exact extents, and the averages of those *post-search* samples
//! are reported (which is why Table 2's su2cor pathology can report an
//! object found early with an estimate of 0.0%).
//!
//! Three paper-described mechanisms are implemented faithfully:
//!
//! * **priority-queue backtracking** (Figure 2) — vs. the greedy variant
//!   available as [`SearchStrategy::Greedy`] for the ablation study;
//! * **zero-miss retention** — a region that was recently ranked in the
//!   top n/2 is not discarded on a zero-miss interval; it is retained for
//!   up to `zero_keep` consecutive zero intervals, and each retention
//!   stretches subsequent measurement intervals (sections 2.2, 3.5);
//! * **threshold termination** — the search also ends when no splittable
//!   region reaches `threshold_pct` of misses, handling applications with
//!   fewer than n−1 significant regions.

pub mod log;
pub mod pqueue;
pub mod region;

use cachescope_hwpm::{CounterId, Interrupt, PmuConfig};
use cachescope_objmap::{AccessTrace, ObjectMap};
use cachescope_obs::ObsEvent;
use cachescope_sim::address_space::{INSTR_BASE, STATIC_BASE};
use cachescope_sim::{Addr, AddressSpace, Cycle, EngineCtx, Handler, ObjectDecl};

use crate::results::{Estimate, TechniqueReport};
use crate::technique::replay_trace;

pub use log::{IterationRecord, MeasuredRegion, RegionFate, SearchLog};
pub use pqueue::RegionQueue;
pub use region::{Region, RegionArena};

/// Region-refinement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Keep every measured region in a priority queue; refine the globally
    /// best candidates (the paper's algorithm).
    PriorityQueue,
    /// Refine only the best region of the current iteration and discard
    /// the rest — the early version the paper shows failing in Figure 2.
    Greedy,
}

/// Configuration of the n-way search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Length of one measurement interval in virtual cycles.
    pub interval: Cycle,
    /// Multiplier applied to the interval whenever a zero-miss region is
    /// retained (the phase-adaptation mechanism of section 3.5).
    pub stretch: f64,
    /// Upper bound on the interval, as a multiple of the base interval.
    pub max_stretch: f64,
    /// How many consecutive zero-miss intervals a previously-top region
    /// survives before being discarded.
    pub zero_keep: u32,
    /// Terminate when no splittable region reaches this share (percent).
    pub threshold_pct: f64,
    /// Post-search measurement rounds over the found objects' exact
    /// extents; their average is the reported estimate.
    pub final_rounds: u32,
    /// Refinement policy.
    pub strategy: SearchStrategy,
    /// Snap split points to object-extent boundaries so no object spans a
    /// region (the paper's fix for the straddling-array problem of
    /// section 2.2). Disable only for ablation studies: with raw midpoint
    /// splits, "an array causing many cache misses that spans a region
    /// boundary may not cause enough cache misses in any single region to
    /// attract the search to it".
    pub snap_to_objects: bool,
    /// Fixed virtual-cycle cost charged per search iteration (calibrated
    /// to the paper's 26k–64k cycles per interrupt including delivery).
    pub fixed_iteration_cycles: u64,
    /// Compute cycles per simulated-memory word the search touches.
    pub probe_cycles: u64,
    /// Address space to search; defaults to the whole application space.
    pub space: Option<(Addr, Addr)>,
    /// Treat same-named contiguous heap blocks as one logical object —
    /// the paper's section 5 plan: with a measurement-aware allocator
    /// keeping "related blocks of memory in contiguous regions", the
    /// search can consider an allocation site "as a unit". Off by
    /// default (the paper's evaluated tool resolves individual blocks).
    pub coalesce_sites: bool,
    /// Attach the rendered per-iteration progress log to the experiment
    /// report. The searcher always emits its iteration records into the
    /// engine's observability sink (tool-side, no simulated cost); this
    /// flag only controls whether the runner keeps the [`SearchLog`] view
    /// on the report.
    pub log_progress: bool,
    /// Logical search width n. When larger than the number of *physical*
    /// PMU region counters, the physical counters are **timeshared**: each
    /// measurement interval is divided into rotation slots, each logical
    /// region is counted during one slot, and its count is scaled by the
    /// number of slots. The paper describes exactly this ("multiple
    /// counters with separate base/bounds could be simulated by
    /// timesharing the single conditional counter", section 2.2) and
    /// warns it "may lead to increased inaccuracy" (section 3.4) — which
    /// this implementation lets you measure. `None` uses the physical
    /// width with no timesharing. At most [`SearchConfig::MAX_LOGICAL_WAYS`].
    pub logical_ways: Option<usize>,
    /// Measurement-hardening: cross-check each interval's region counts
    /// against the global counter and treat the interval as contaminated
    /// when the summed region counts exceed `total * (1 + tolerance)` —
    /// physically impossible on a fault-free PMU with dedicated counters
    /// (regions are disjoint), so a violation means a wrapped, jittered
    /// or otherwise corrupted read. `None` (the default) disables the
    /// check entirely; timeshared runs should allow slack for the
    /// duty-cycle scaling noise.
    pub consistency_tolerance: Option<f64>,
    /// How many times a contaminated interval is re-measured (with the
    /// same region assignment) before its data is accepted and the
    /// affected estimates flagged as degraded. Each retry stretches the
    /// interval like the phase-adaptation heuristic, so backoff and
    /// phase adaptation share one mechanism. `0` (the default) accepts
    /// every interval at face value.
    pub max_remeasure: u32,
    /// Per-interval outlier rejection: a single region counting more
    /// than this percentage of the interval's global total is physically
    /// implausible and marks the interval contaminated. `None` (the
    /// default) disables the check; `Some(100.0)` rejects only counts
    /// exceeding the whole total.
    pub outlier_pct: Option<f64>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            interval: 25_000_000,
            stretch: 1.5,
            max_stretch: 8.0,
            zero_keep: 3,
            threshold_pct: 2.0,
            final_rounds: 4,
            strategy: SearchStrategy::PriorityQueue,
            snap_to_objects: true,
            fixed_iteration_cycles: 15_000,
            probe_cycles: 10,
            space: None,
            coalesce_sites: false,
            log_progress: false,
            logical_ways: None,
            consistency_tolerance: None,
            max_remeasure: 0,
            outlier_pct: None,
        }
    }
}

impl SearchConfig {
    /// The widest logical search a run may ask for (the paper's is
    /// 10-way): the counter cap, so a search over every counter fits.
    pub const MAX_LOGICAL_WAYS: usize = PmuConfig::MAX_REGION_COUNTERS;

    /// Report label, e.g. `search(10-way)` once the width is known.
    pub fn label(&self) -> String {
        let base = match self.strategy {
            SearchStrategy::PriorityQueue => "search",
            SearchStrategy::Greedy => "search-greedy",
        };
        if self.is_hardened() {
            format!("{base}+hardened")
        } else {
            base.to_string()
        }
    }

    /// Is any measurement-hardening check enabled?
    pub fn is_hardened(&self) -> bool {
        self.consistency_tolerance.is_some() || self.outlier_pct.is_some()
    }

    /// Canonical JSON for content-addressed caching: every field that can
    /// change a simulation result (or the exported report, in
    /// `log_progress`'s case) appears in a fixed key order, so equal
    /// configurations render to identical bytes.
    pub fn to_json(&self) -> cachescope_obs::Json {
        use cachescope_obs::Json;
        let mut fields = vec![
            ("interval", Json::Uint(self.interval)),
            ("stretch", Json::Float(self.stretch)),
            ("max_stretch", Json::Float(self.max_stretch)),
            ("zero_keep", Json::Uint(u64::from(self.zero_keep))),
            ("threshold_pct", Json::Float(self.threshold_pct)),
            ("final_rounds", Json::Uint(u64::from(self.final_rounds))),
            (
                "strategy",
                Json::str(match self.strategy {
                    SearchStrategy::PriorityQueue => "priority_queue",
                    SearchStrategy::Greedy => "greedy",
                }),
            ),
            ("snap_to_objects", Json::Bool(self.snap_to_objects)),
            (
                "fixed_iteration_cycles",
                Json::Uint(self.fixed_iteration_cycles),
            ),
            ("probe_cycles", Json::Uint(self.probe_cycles)),
            (
                "space",
                self.space.map_or(Json::Null, |(lo, hi)| {
                    Json::Arr(vec![Json::Uint(lo), Json::Uint(hi)])
                }),
            ),
            ("coalesce_sites", Json::Bool(self.coalesce_sites)),
            ("log_progress", Json::Bool(self.log_progress)),
            (
                "logical_ways",
                self.logical_ways
                    .map_or(Json::Null, |n| Json::Uint(n as u64)),
            ),
        ];
        // Hardening knobs render only when non-default, so every
        // pre-hardening configuration keeps its exact canonical bytes
        // (and therefore its content-addressed cache hash).
        if let Some(tol) = self.consistency_tolerance {
            fields.push(("consistency_tolerance", Json::Float(tol)));
        }
        if self.max_remeasure != 0 {
            fields.push(("max_remeasure", Json::Uint(u64::from(self.max_remeasure))));
        }
        if let Some(pct) = self.outlier_pct {
            fields.push(("outlier_pct", Json::Float(pct)));
        }
        Json::obj(fields)
    }
}

#[derive(Debug)]
struct FinalSlot {
    region: u32,
    /// Queue key at termination — determines the reported rank.
    search_key: f64,
}

#[derive(Debug)]
enum State {
    Searching,
    /// Post-search measurement: counters sit on the found objects' exact
    /// extents for one long interval (`final_rounds x` the search
    /// interval), then the averages are reported.
    Final {
        slots: Vec<FinalSlot>,
    },
    Done,
}

/// One measurement target while timesharing physical counters.
#[derive(Debug, Clone, Copy)]
struct MuxEntry {
    /// Region index (searching) or final-slot position (final phase).
    tag: u32,
    lo: Addr,
    hi: Addr,
}

/// What to do once all rotation slots of a timeshared measurement have
/// been collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MuxAfter {
    Iteration,
    Final,
}

/// In-flight timeshared measurement: the logical targets are divided into
/// `groups` of at most `k` (the physical counter count); one group is on
/// the counters per rotation slot.
#[derive(Debug)]
struct MuxState {
    groups: Vec<Vec<MuxEntry>>,
    /// Index of the group currently on the physical counters.
    gi: usize,
    /// Raw (unscaled) counts per already-measured target, in group order.
    raw: Vec<(u32, u64)>,
    /// Global misses accumulated over the slots measured so far.
    total: u64,
    after: MuxAfter,
    /// Virtual cycles per rotation slot.
    sub_interval: Cycle,
}

/// The n-way search, run as a simulation [`Handler`].
///
/// ```
/// use cachescope_core::{SearchConfig, Searcher};
/// use cachescope_sim::{Engine, Program, RunLimit, SimConfig};
/// use cachescope_workloads::spec::{self, Scale};
///
/// let mut app = spec::compress(Scale::Test);
/// let cfg = SearchConfig { interval: 5_000_000, ..Default::default() };
/// let mut search = Searcher::new(cfg, &app.static_objects());
/// let mut engine = Engine::new(SimConfig::default());
/// engine.run(&mut app, &mut search, RunLimit::AppMisses(1_000_000));
///
/// let report = search.report().unwrap();
/// assert_eq!(report.estimates[0].name, "orig_text_buffer");
/// assert!((report.estimates[0].pct - 63.0).abs() < 3.0);
/// ```
pub struct Searcher {
    cfg: SearchConfig,
    map: ObjectMap,
    arena: RegionArena,
    pq: RegionQueue,
    /// Regions assigned for the current measurement interval.
    assigned: Vec<u32>,
    trace: AccessTrace,
    interval: Cycle,
    iterations: u64,
    state: State,
    mux: Option<MuxState>,
    report: Option<TechniqueReport>,
    /// Logical search width.
    n: usize,
    /// Physical PMU region counters available.
    k: usize,
    line: u64,
    /// Consecutive re-measurements of the current contaminated interval.
    remeasure_attempts: u32,
    /// Regions whose accepted measurements included a contaminated
    /// interval (retries exhausted); their estimates are flagged in the
    /// report rather than presented as trustworthy.
    degraded: std::collections::BTreeSet<u32>,
    /// Measurement intervals processed (hardened runs only).
    intervals_seen: u64,
    /// Intervals the consistency/outlier checks rejected. When a large
    /// share of intervals were contaminated, even the accepted ones were
    /// measured under a systematically faulty PMU, so the whole report
    /// is flagged degraded (mirrors the sampler's dropped-interval rule).
    contaminated_intervals: u64,
}

enum SplitOutcome {
    Children(u32, u32),
    BecameAtomic,
}

impl Searcher {
    /// Build a searcher over the given static declarations. Heap blocks
    /// are learned later from allocator events.
    pub fn new(cfg: SearchConfig, decls: &[ObjectDecl]) -> Self {
        let mut aspace = AddressSpace::new(64);
        let map = if cfg.coalesce_sites {
            ObjectMap::with_site_coalescing(decls, &mut aspace)
        } else {
            ObjectMap::new(decls, &mut aspace)
        };
        let arena = RegionArena::new(aspace.alloc_instr(64 * 1024 * region::REGION_BYTES));
        let pq = RegionQueue::new(aspace.alloc_instr(64 * 1024 * pqueue::SLOT_BYTES));
        Searcher {
            cfg,
            map,
            arena,
            pq,
            assigned: Vec::new(),
            trace: AccessTrace::new(),
            interval: 0,
            iterations: 0,
            state: State::Searching,
            mux: None,
            report: None,
            n: 0,
            k: 0,
            line: 64,
            remeasure_attempts: 0,
            degraded: std::collections::BTreeSet::new(),
            intervals_seen: 0,
            contaminated_intervals: 0,
        }
    }

    /// Did contamination taint enough intervals (more than 1 in 20) that
    /// every estimate should be flagged, not just the directly affected
    /// regions? Always false on a fault-free PMU: nothing contaminates.
    fn systematically_contaminated(&self) -> bool {
        self.contaminated_intervals * 20 > self.intervals_seen
    }

    /// Number of completed search iterations (timer interrupts handled).
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Has the search terminated and produced its final report?
    pub fn is_done(&self) -> bool {
        matches!(self.state, State::Done)
    }

    /// The final report (available once done, or best-effort from
    /// [`Handler::on_finish`]).
    pub fn report(&self) -> Option<&TechniqueReport> {
        self.report.as_ref()
    }

    fn search_space(&self) -> (Addr, Addr) {
        self.cfg.space.unwrap_or((STATIC_BASE, INSTR_BASE))
    }

    /// Report label suffix: logical width, plus the physical counter
    /// count when timesharing.
    fn width_label(&self) -> String {
        if self.k < self.n {
            format!("{}-way on {} ctrs", self.n, self.k)
        } else {
            format!("{}-way", self.n)
        }
    }

    /// Divide the search space into up to `n` initial regions with split
    /// points snapped to object-extent boundaries.
    fn seed_regions(&mut self, ctx: &mut EngineCtx) {
        let (lo, hi) = self.search_space();
        let boundaries = self.map.boundaries_in(lo, hi, &mut self.trace);
        let span = hi - lo;
        let mut points: Vec<Addr> = Vec::new();
        for i in 1..self.n as u64 {
            let raw = lo + span / self.n as u64 * i;
            let snapped = if self.cfg.snap_to_objects {
                boundaries
                    .iter()
                    .copied()
                    .min_by_key(|&b| b.abs_diff(raw))
                    .unwrap_or(raw)
            } else {
                raw
            };
            points.push(snapped);
        }
        points.sort_unstable();
        points.dedup();
        points.retain(|&p| p > lo && p < hi);

        self.assigned.clear();
        let mut prev = lo;
        for p in points.into_iter().chain(std::iter::once(hi)) {
            if p <= prev {
                continue;
            }
            let idx = self.arena.push(Region::new(prev, p));
            self.trace.write(self.arena.sim_addr(idx));
            self.assigned.push(idx);
            prev = p;
        }
        self.program_assigned(ctx);
    }

    /// Program one rotation group onto the physical counters.
    fn program_group(&mut self, ctx: &mut EngineCtx, group: &[MuxEntry]) {
        for (c, e) in group.iter().enumerate() {
            ctx.program_counter(CounterId(c as u32), e.lo, e.hi);
        }
        for c in group.len()..self.k {
            ctx.disable_counter(CounterId(c as u32));
        }
    }

    /// Start a measurement over `entries` lasting `interval` cycles in
    /// total; timeshares the physical counters when there are more
    /// entries than counters.
    fn begin_measurement(
        &mut self,
        ctx: &mut EngineCtx,
        entries: Vec<MuxEntry>,
        interval: Cycle,
        after: MuxAfter,
    ) {
        if entries.is_empty() {
            // Nothing to measure: idle for one interval and re-decide at
            // the next timer tick.
            self.mux = None;
            for c in 0..self.k {
                ctx.disable_counter(CounterId(c as u32));
            }
            ctx.read_and_clear_global();
            ctx.arm_timer_in(interval);
            return;
        }
        let groups: Vec<Vec<MuxEntry>> =
            entries.chunks(self.k.max(1)).map(|c| c.to_vec()).collect();
        let num_groups = groups.len().max(1);
        let sub_interval = (interval / num_groups as u64).max(1);
        if let Some(first) = groups.first() {
            let first = first.clone();
            self.program_group(ctx, &first);
        }
        self.mux = Some(MuxState {
            groups,
            gi: 0,
            raw: Vec::new(),
            total: 0,
            after,
            sub_interval,
        });
        ctx.read_and_clear_global();
        ctx.arm_timer_in(sub_interval);
    }

    /// Program the PMU for the current region assignment and start the
    /// next measurement interval.
    fn program_assigned(&mut self, ctx: &mut EngineCtx) {
        let entries: Vec<MuxEntry> = self
            .assigned
            .iter()
            .map(|&idx| {
                let r = self.arena.get(idx);
                MuxEntry {
                    tag: idx,
                    lo: r.lo,
                    hi: r.hi,
                }
            })
            .collect();
        let interval = self.interval;
        self.begin_measurement(ctx, entries, interval, MuxAfter::Iteration);
    }

    /// Collect the current rotation slot's counts; either advance to the
    /// next slot or complete the measurement and dispatch the results
    /// (counts scaled by the number of slots, so timeshared estimates are
    /// comparable to dedicated-counter ones).
    fn mux_step(&mut self, ctx: &mut EngineCtx) {
        let slot_total = ctx.read_and_clear_global();
        // Invariant: the timer that woke us was armed by
        // `begin_measurement`, which installs the mux state first. One
        // named check replaces the per-step unwraps; a violation recovers
        // by idling one interval instead of crashing mid-experiment.
        let Some(mut mux) = self.mux.take() else {
            debug_assert!(
                false,
                "mux_step entered without an active timeshared measurement"
            );
            ctx.arm_timer_in(self.interval.max(1));
            return;
        };
        mux.total += slot_total;
        let tags: Vec<u32> = mux.groups[mux.gi].iter().map(|e| e.tag).collect();
        for (c, tag) in tags.into_iter().enumerate() {
            let count = ctx.read_counter(CounterId(c as u32));
            mux.raw.push((tag, count));
        }
        mux.gi += 1;
        if mux.gi < mux.groups.len() {
            let next = mux.groups[mux.gi].clone();
            let sub = mux.sub_interval;
            self.mux = Some(mux);
            self.program_group(ctx, &next);
            ctx.arm_timer_in(sub);
            return;
        }
        // Measurement complete: scale counts by the duty cycle.
        let scale = mux.groups.len() as u64;
        let measured: Vec<(u32, u64)> = mux
            .raw
            .into_iter()
            .map(|(tag, c)| (tag, c * scale))
            .collect();
        match mux.after {
            MuxAfter::Iteration => self.process_iteration(ctx, measured, mux.total),
            MuxAfter::Final => self.process_final(ctx, measured, mux.total),
        }
    }

    fn split_region(&mut self, idx: u32) -> SplitOutcome {
        let (lo, hi) = {
            let r = self.arena.get(idx);
            (r.lo, r.hi)
        };
        self.trace.read(self.arena.sim_addr(idx));
        let objs = self.map.objects_intersecting(lo, hi, &mut self.trace);
        if !self.cfg.snap_to_objects {
            // Ablation: naive midpoint splitting. Regions stop at
            // cache-line granularity or when they no longer intersect
            // multiple objects *and* fit within one object's extent.
            let single = objs.len() == 1 && {
                let o = self.map.object(objs[0]);
                o.base <= lo && hi <= o.end()
            };
            if hi - lo > self.line && !single {
                let mid = (lo + (hi - lo) / 2) & !(self.line - 1);
                if mid > lo && mid < hi {
                    let was_top = self.arena.get(idx).was_top;
                    let mut lo_child = Region::new(lo, mid);
                    let mut hi_child = Region::new(mid, hi);
                    lo_child.was_top = was_top;
                    hi_child.was_top = was_top;
                    let a = self.arena.push(lo_child);
                    let b = self.arena.push(hi_child);
                    self.trace.write(self.arena.sim_addr(a));
                    self.trace.write(self.arena.sim_addr(b));
                    return SplitOutcome::Children(a, b);
                }
            }
            let object = objs.first().copied();
            let r = self.arena.get_mut(idx);
            r.atomic = true;
            r.object = object;
            self.trace.write(self.arena.sim_addr(idx));
            return SplitOutcome::BecameAtomic;
        }
        let split_at = if objs.len() >= 2 {
            self.map.snap_split(lo, hi, &mut self.trace)
        } else if objs.len() == 1 {
            match self.map.snap_split(lo, hi, &mut self.trace) {
                Some(b) => Some(b),
                None => {
                    let r = self.arena.get_mut(idx);
                    r.atomic = true;
                    r.object = Some(objs[0]);
                    self.trace.write(self.arena.sim_addr(idx));
                    return SplitOutcome::BecameAtomic;
                }
            }
        } else if hi - lo > self.line {
            // Object-free space (stack frames, gaps): refine blindly at a
            // line-aligned midpoint, as the paper does for memory its tool
            // cannot identify.
            Some((lo + (hi - lo) / 2) & !(self.line - 1))
        } else {
            let r = self.arena.get_mut(idx);
            r.atomic = true;
            r.object = None;
            self.trace.write(self.arena.sim_addr(idx));
            return SplitOutcome::BecameAtomic;
        };
        match split_at {
            Some(mid) if mid > lo && mid < hi => {
                // Children continue a region the search judged worth
                // refining, so they inherit its top-ranked standing for
                // the zero-miss retention heuristic — otherwise a phased
                // object's freshly split halves would be discarded the
                // first time they are measured in a quiet phase.
                let was_top = self.arena.get(idx).was_top;
                let mut lo_child = Region::new(lo, mid);
                let mut hi_child = Region::new(mid, hi);
                lo_child.was_top = was_top;
                hi_child.was_top = was_top;
                let a = self.arena.push(lo_child);
                let b = self.arena.push(hi_child);
                self.trace.write(self.arena.sim_addr(a));
                self.trace.write(self.arena.sim_addr(b));
                SplitOutcome::Children(a, b)
            }
            _ => {
                // No usable interior boundary after all.
                let object = objs.first().copied();
                let r = self.arena.get_mut(idx);
                r.atomic = true;
                r.object = object;
                self.trace.write(self.arena.sim_addr(idx));
                SplitOutcome::BecameAtomic
            }
        }
    }

    /// Decide whether the search is finished, per the two termination
    /// rules of section 2.2.
    fn should_terminate(&self) -> bool {
        if self.pq.is_empty() {
            return false;
        }
        let top = self.pq.top_k(self.n.saturating_sub(1).max(1));
        if top.iter().all(|&(_, idx)| self.arena.get(idx).atomic) {
            return true;
        }
        let has_named_atomic = self.pq.top_k(usize::MAX).iter().any(|&(_, idx)| {
            let r = self.arena.get(idx);
            r.atomic && r.object.is_some()
        });
        if !has_named_atomic {
            return false;
        }
        let max_splittable = self
            .pq
            .top_k(usize::MAX)
            .iter()
            .filter(|&&(_, idx)| !self.arena.get(idx).atomic)
            .map(|&(k, _)| k)
            .fold(0.0f64, f64::max);
        max_splittable < self.cfg.threshold_pct
    }

    /// Enter the post-search measurement phase over the found objects.
    fn begin_final(&mut self, ctx: &mut EngineCtx) {
        let mut slots = Vec::new();
        let mut entries = Vec::new();
        for (key, idx) in self.pq.top_k(usize::MAX) {
            if slots.len() >= self.n {
                break;
            }
            let r = self.arena.get(idx);
            if !r.atomic {
                continue;
            }
            // Measure the found object's exact extents — knowledge that
            // comes from the extent-snapped map; the naive (ablation)
            // variant only knows its region bounds.
            let (lo, hi) = match r.object {
                Some(id) if self.cfg.snap_to_objects => {
                    let o = self.map.object(id);
                    (o.base, o.end())
                }
                _ => (r.lo, r.hi),
            };
            entries.push(MuxEntry {
                tag: slots.len() as u32,
                lo,
                hi,
            });
            slots.push(FinalSlot {
                region: idx,
                search_key: key,
            });
        }
        let now = ctx.now();
        ctx.obs().emit(ObsEvent::SearchFinal {
            now,
            regions: slots.len(),
        });
        self.state = State::Final { slots };
        let interval = self.interval * self.cfg.final_rounds.max(1) as u64;
        self.begin_measurement(ctx, entries, interval, MuxAfter::Final);
    }

    fn finish_report(&mut self, slots: Vec<FinalSlot>) {
        let mut ests: Vec<(f64, Estimate)> = Vec::new();
        let mut unattributed = 0u64;
        let mut degraded_names: Vec<String> = Vec::new();
        for s in &slots {
            let r = self.arena.get(s.region);
            match r.object {
                Some(id) => {
                    let name = self.map.object(id).name.clone();
                    if self.degraded.contains(&s.region) && !degraded_names.contains(&name) {
                        degraded_names.push(name.clone());
                    }
                    ests.push((
                        s.search_key,
                        Estimate {
                            name,
                            // The running weighted average over every visit,
                            // post-search measurement included.
                            pct: r.avg_pct(),
                            weight: r.sum_count,
                        },
                    ));
                }
                None => unattributed += r.sum_count,
            }
        }
        // Rank by the final weighted-average estimate; the search-time key
        // breaks ties (stale keys can be badly out of date after a phase
        // change, as section 3.4 discusses).
        ests.sort_by(|a, b| {
            b.1.pct
                .total_cmp(&a.1.pct)
                .then_with(|| b.0.total_cmp(&a.0))
        });
        let estimates: Vec<Estimate> = ests.into_iter().map(|(_, e)| e).collect();
        if self.systematically_contaminated() {
            for e in &estimates {
                if !degraded_names.contains(&e.name) {
                    degraded_names.push(e.name.clone());
                }
            }
        }
        self.report = Some(TechniqueReport {
            estimates,
            label: format!("{}({})", self.cfg.label(), self.width_label()),
            unattributed_weight: unattributed,
            degraded: degraded_names,
        });
        self.state = State::Done;
    }

    /// Measurement-hardening cross-check (section 3.4's "increased
    /// inaccuracy" concern made explicit): does this interval's data
    /// violate a physical invariant of a fault-free PMU? Returns the
    /// violated invariant's name, or `None` when the interval is clean
    /// or hardening is disabled.
    fn interval_contaminated(&self, measured: &[(u32, u64)], total: u64) -> Option<&'static str> {
        let sum: u64 = measured.iter().map(|&(_, c)| c).sum();
        if let Some(tol) = self.cfg.consistency_tolerance {
            // Disjoint region counts can never sum past the global
            // counter; tolerance absorbs timesharing's duty-cycle noise.
            if sum as f64 > total as f64 * (1.0 + tol) {
                return Some("region_sum_exceeds_global");
            }
        }
        if let Some(pct) = self.cfg.outlier_pct {
            let cap = total as f64 * pct / 100.0;
            if measured.iter().any(|&(_, c)| c as f64 > cap) {
                return Some("region_count_outlier");
            }
        }
        None
    }

    /// Decide what to do with a contaminated interval: re-measure the
    /// same assignment (stretching the interval as backoff, the same
    /// mechanism phase adaptation uses) while retries remain, otherwise
    /// accept the data but remember the regions so their estimates are
    /// flagged as degraded instead of silently mis-ranked. Returns `true`
    /// when the interval was consumed by a retry.
    fn handle_contamination(
        &mut self,
        ctx: &mut EngineCtx,
        reason: &'static str,
        regions: &[(u32, u64)],
    ) -> bool {
        if self.remeasure_attempts < self.cfg.max_remeasure {
            self.remeasure_attempts += 1;
            let attempt = u64::from(self.remeasure_attempts);
            let now = ctx.now();
            ctx.obs().emit(ObsEvent::SearchIntervalRetry {
                now,
                attempt,
                reason,
            });
            let max = (self.cfg.interval as f64 * self.cfg.max_stretch) as Cycle;
            self.interval = ((self.interval as f64 * self.cfg.stretch) as Cycle).min(max);
            return true;
        }
        for &(idx, _) in regions {
            self.degraded.insert(idx);
        }
        false
    }

    /// Handle one completed measurement of the assigned regions:
    /// `measured` holds (region, scaled miss count) and `total` the global
    /// misses over the whole interval.
    fn process_iteration(&mut self, ctx: &mut EngineCtx, measured: Vec<(u32, u64)>, total: u64) {
        self.intervals_seen += 1;
        if let Some(reason) = self.interval_contaminated(&measured, total) {
            self.contaminated_intervals += 1;
            if self.handle_contamination(ctx, reason, &measured) {
                self.program_assigned(ctx);
                return;
            }
        } else {
            self.remeasure_attempts = 0;
        }
        if total == 0 {
            // Nothing happened (e.g. a pure-compute stretch): requeue the
            // same assignment for another interval.
            self.program_assigned(ctx);
            return;
        }

        // Mark the top half of this iteration's regions: only they earn
        // zero-miss retention later.
        let mut by_count = measured.clone();
        by_count.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        let top_half = measured.len().div_ceil(2);
        for &(idx, count) in by_count.iter().take(top_half) {
            if count > 0 {
                self.arena.get_mut(idx).was_top = true;
            }
        }

        let mut retained_splittable = false;
        let mut measured_regions: Vec<MeasuredRegion> = Vec::new();
        for (idx, count) in measured {
            self.trace.write(self.arena.sim_addr(idx));
            let fate;
            if count == 0 {
                // Single-object regions are never discarded: the paper
                // keeps them "in the priority queue and may be selected
                // for measurement in each iteration"; their weighted
                // average simply decays toward the object's true overall
                // share. Splittable regions survive zero intervals only
                // if recently top-ranked (the phase heuristic).
                let keep = {
                    let r = self.arena.get(idx);
                    r.atomic || (r.was_top && r.zero_streak < self.cfg.zero_keep)
                };
                if keep {
                    let r = self.arena.get_mut(idx);
                    r.zero_streak += 1;
                    // Only a region that has actually produced misses and
                    // then gone silent is evidence of a program *phase*;
                    // a never-hot gap region must not stretch the
                    // measurement interval.
                    if !r.atomic && r.sum_count > 0 {
                        retained_splittable = true;
                    }
                    // The zero visit counts toward the weighted average:
                    // this is what pulls a phase-hot object's estimate
                    // toward its overall share.
                    r.record_zero(total);
                    let key = r.key();
                    self.pq.push(key, idx, &mut self.trace);
                    fate = RegionFate::RetainedZero;
                } else {
                    fate = RegionFate::Dropped;
                }
                // Otherwise the region is discarded immediately.
            } else {
                let r = self.arena.get_mut(idx);
                r.record(count, total);
                let key = r.key();
                self.pq.push(key, idx, &mut self.trace);
                fate = RegionFate::Requeued;
            }
            let r = self.arena.get(idx);
            measured_regions.push(MeasuredRegion {
                lo: r.lo,
                hi: r.hi,
                count,
                atomic: r.atomic,
                object: r.object.map(|id| self.map.object(id).name.clone()),
                fate,
            });
        }
        if retained_splittable {
            // Phase adaptation: a search region went silent this interval,
            // so stretch future intervals (once per iteration) until one
            // measurement spans multiple phases (section 3.5).
            let max = (self.cfg.interval as f64 * self.cfg.max_stretch) as Cycle;
            self.interval = ((self.interval as f64 * self.cfg.stretch) as Cycle).min(max);
        } else {
            // Relax back toward the base interval while measurements are
            // healthy, so a burst of phase adaptation does not permanently
            // slow the search down.
            self.interval =
                ((self.interval as f64 / self.cfg.stretch) as Cycle).max(self.cfg.interval);
        }

        if self.cfg.strategy == SearchStrategy::Greedy {
            // Ablation mode: no backtracking — only the single best region
            // survives each iteration (Figure 2's failing algorithm).
            let best = self.pq.pop(&mut self.trace);
            self.pq.drain();
            if let Some((k, idx)) = best {
                self.pq.push(k, idx, &mut self.trace);
            }
        }

        let terminated = self.should_terminate();
        let depth = self.pq.len() as u64;
        let now = ctx.now();
        let obs = ctx.obs();
        obs.metrics.observe("search.pqueue_depth", depth);
        obs.emit(ObsEvent::SearchIteration(IterationRecord {
            now,
            interval: self.interval,
            total,
            regions: measured_regions,
            terminated,
        }));
        if terminated {
            self.begin_final(ctx);
            return;
        }

        // Build the next assignment from the queue. Once the search has
        // isolated at least one named object, regions below the share
        // threshold are never refined — they are the "unsearched"
        // remainder of section 2.2.
        let found_something = self.pq.top_k(usize::MAX).iter().any(|&(_, idx)| {
            let r = self.arena.get(idx);
            r.atomic && r.object.is_some()
        });
        self.assigned.clear();
        let mut left = self.n;
        let mut skipped: Vec<(f64, u32)> = Vec::new();
        while left > 0 {
            let Some((key, idx)) = self.pq.peek() else {
                break;
            };
            if self.arena.get(idx).atomic {
                self.pq.pop(&mut self.trace);
                self.assigned.push(idx);
                left -= 1;
            } else {
                if left < 2 {
                    break;
                }
                if found_something && key < self.cfg.threshold_pct {
                    // Set it aside so any atomic regions deeper in the
                    // queue can still claim counters for re-measurement.
                    self.pq.pop(&mut self.trace);
                    skipped.push((key, idx));
                    continue;
                }
                self.pq.pop(&mut self.trace);
                let (split_lo, split_hi) = {
                    let r = self.arena.get(idx);
                    (r.lo, r.hi)
                };
                let outcome = self.split_region(idx);
                let children: Vec<(Addr, Addr)> = match &outcome {
                    SplitOutcome::Children(a, b) => [*a, *b]
                        .iter()
                        .map(|&c| {
                            let r = self.arena.get(c);
                            (r.lo, r.hi)
                        })
                        .collect(),
                    SplitOutcome::BecameAtomic => Vec::new(),
                };
                let now = ctx.now();
                ctx.obs().emit(ObsEvent::RegionSplit {
                    now,
                    lo: split_lo,
                    hi: split_hi,
                    children,
                    became_atomic: matches!(outcome, SplitOutcome::BecameAtomic),
                });
                match outcome {
                    SplitOutcome::Children(a, b) => {
                        self.assigned.push(a);
                        self.assigned.push(b);
                        left -= 2;
                    }
                    SplitOutcome::BecameAtomic => {
                        self.assigned.push(idx);
                        left -= 1;
                    }
                }
            }
        }

        // Return below-threshold regions to the queue with their keys.
        for (key, idx) in skipped {
            self.pq.push(key, idx, &mut self.trace);
        }

        if self.assigned.is_empty() {
            if self.pq.is_empty() {
                // Everything was discarded (e.g. a long silent phase):
                // restart from the full space.
                self.seed_regions(ctx);
            } else {
                // Nothing currently refinable; wait another interval.
                ctx.read_and_clear_global();
                ctx.arm_timer_in(self.interval);
            }
            return;
        }
        self.program_assigned(ctx);
    }

    /// Handle the completed post-search measurement: `measured` holds
    /// (final-slot position, scaled miss count).
    fn process_final(&mut self, ctx: &mut EngineCtx, measured: Vec<(u32, u64)>, total: u64) {
        let regions: Vec<u32> = match &self.state {
            State::Final { slots } => slots.iter().map(|s| s.region).collect(),
            _ => unreachable!("process_final outside Final state"),
        };
        // The post-search measurement cannot be cheaply re-armed (its
        // found-object entries were consumed), so a contaminated final
        // interval flags its slots as degraded instead of retrying.
        self.intervals_seen += 1;
        if self.interval_contaminated(&measured, total).is_some() {
            self.contaminated_intervals += 1;
            for &(slot_pos, _) in &measured {
                self.degraded.insert(regions[slot_pos as usize]);
            }
        }
        for (slot_pos, count) in measured {
            let region = regions[slot_pos as usize];
            self.arena.get_mut(region).record(count, total);
            self.trace.write(self.arena.sim_addr(region));
        }
        let State::Final { slots } = &mut self.state else {
            unreachable!()
        };
        let slots = std::mem::take(slots);
        for c in 0..self.k {
            ctx.disable_counter(CounterId(c as u32));
        }
        ctx.disarm_timer();
        self.finish_report(slots);
    }

    /// Best-effort report from the current queue state (used when the run
    /// ends before the search terminates). If the search had already
    /// entered its post-search measurement phase, the found objects are
    /// in the final slots; otherwise any atomic regions still queued are
    /// reported with their running averages.
    fn provisional_report(&self) -> TechniqueReport {
        let mut ests: Vec<(f64, Estimate)> = Vec::new();
        let candidates: Vec<(f64, u32)> = match &self.state {
            State::Final { slots } => slots.iter().map(|s| (s.search_key, s.region)).collect(),
            _ => {
                // Queued regions plus whatever is currently on the
                // counters (popped from the queue for re-measurement).
                let mut c = self.pq.top_k(usize::MAX);
                for &idx in &self.assigned {
                    if !c.iter().any(|&(_, i)| i == idx) {
                        c.push((self.arena.get(idx).key(), idx));
                    }
                }
                c
            }
        };
        let mut degraded_names: Vec<String> = Vec::new();
        for (key, idx) in candidates {
            let r = self.arena.get(idx);
            if !r.atomic {
                continue;
            }
            if let Some(id) = r.object {
                let name = self.map.object(id).name.clone();
                if self.degraded.contains(&idx) && !degraded_names.contains(&name) {
                    degraded_names.push(name.clone());
                }
                ests.push((
                    key,
                    Estimate {
                        name,
                        pct: r.avg_pct(),
                        weight: r.sum_count,
                    },
                ));
            }
        }
        ests.sort_by(|a, b| b.0.total_cmp(&a.0));
        let estimates: Vec<Estimate> = ests.into_iter().map(|(_, e)| e).collect();
        if self.systematically_contaminated() {
            for e in &estimates {
                if !degraded_names.contains(&e.name) {
                    degraded_names.push(e.name.clone());
                }
            }
        }
        TechniqueReport {
            estimates,
            label: format!("{}({}, incomplete)", self.cfg.label(), self.width_label()),
            unattributed_weight: 0,
            degraded: degraded_names,
        }
    }
}

impl Handler for Searcher {
    fn init(&mut self, ctx: &mut EngineCtx) {
        self.k = ctx.num_counters();
        // check:allow(`run_refusals` refuses a zero count at every door: the CLI, the daemon hello, a campaign cell; check reports it as CS-P004)
        assert!(self.k >= 1, "the search needs at least 1 physical counter");
        // Logical width: timeshare the physical counters when asked for
        // (or forced to, with a single counter) more ways than exist.
        self.n = self.cfg.logical_ways.unwrap_or(self.k).max(2);
        self.interval = self.cfg.interval;
        self.seed_regions(ctx);
        replay_trace(ctx, &mut self.trace, self.cfg.probe_cycles);
    }

    fn on_interrupt(&mut self, intr: Interrupt, ctx: &mut EngineCtx) {
        if intr != Interrupt::Timer {
            return;
        }
        self.iterations += 1;
        if ctx.obs().profiler.is_enabled() {
            // Distribution of measurement-interval lengths (the interval
            // stretches under zero-activity ticks); profiled runs only.
            ctx.obs()
                .metrics
                .observe("search.interval_cycles", self.interval);
        }
        ctx.charge(self.cfg.fixed_iteration_cycles);
        if matches!(self.state, State::Done) {
            return;
        }
        if self.mux.is_some() {
            self.mux_step(ctx);
        } else {
            // Idle interval (nothing was measurable last tick).
            let total = ctx.read_and_clear_global();
            match self.state {
                State::Searching => self.process_iteration(ctx, Vec::new(), total),
                State::Final { .. } => self.process_final(ctx, Vec::new(), total),
                State::Done => unreachable!(),
            }
        }
        replay_trace(ctx, &mut self.trace, self.cfg.probe_cycles);
    }

    fn on_alloc(&mut self, base: Addr, size: u64, name: Option<&str>, ctx: &mut EngineCtx) {
        self.map.on_alloc(base, size, name, &mut self.trace);
        ctx.charge(120);
        replay_trace(ctx, &mut self.trace, self.cfg.probe_cycles);
    }

    fn on_free(&mut self, base: Addr, ctx: &mut EngineCtx) {
        self.map.on_free(base, &mut self.trace);
        ctx.charge(80);
        replay_trace(ctx, &mut self.trace, self.cfg.probe_cycles);
    }

    fn on_finish(&mut self, _ctx: &mut EngineCtx) {
        if self.report.is_none() {
            self.report = Some(self.provisional_report());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachescope_hwpm::PmuConfig;
    use cachescope_sim::{CacheConfig, Engine, Program, RunLimit, SimConfig};
    use cachescope_workloads::{PhaseBuilder, WorkloadBuilder, MIB};

    fn sim_cfg(counters: usize) -> SimConfig {
        SimConfig {
            cache: CacheConfig::default(),
            l1: None,
            pmu: PmuConfig {
                region_counters: counters,
            },
            costs: Default::default(),
            faults: Default::default(),
            timeline: None,
        }
    }

    fn search_cfg(interval: u64) -> SearchConfig {
        SearchConfig {
            interval,
            ..Default::default()
        }
    }

    #[test]
    fn finds_the_dominant_object() {
        let mut w = WorkloadBuilder::new("simple")
            .global("HOT", 8 * MIB)
            .global("WARM", 8 * MIB)
            .global("COLD", 8 * MIB)
            .phase(
                PhaseBuilder::new()
                    .misses(1_000_000)
                    .weight("HOT", 70.0)
                    .weight("WARM", 25.0)
                    .weight("COLD", 5.0)
                    .compute_per_miss(10)
                    .stochastic(11),
            )
            .build();
        let mut s = Searcher::new(search_cfg(1_000_000), &w.static_objects());
        let mut e = Engine::new(sim_cfg(10));
        e.run(&mut w, &mut s, RunLimit::AppMisses(2_000_000));
        assert!(s.is_done(), "search should terminate");
        let rep = s.report().unwrap();
        assert_eq!(rep.estimates[0].name, "HOT");
        assert!(
            (rep.estimates[0].pct - 70.0).abs() < 3.0,
            "estimate {:.1}",
            rep.estimates[0].pct
        );
        let (rank, pct) = rep.rank_of("WARM").unwrap();
        assert_eq!(rank, 2);
        assert!((pct - 25.0).abs() < 3.0);
    }

    #[test]
    fn two_way_search_works_with_priority_queue() {
        let mut w = WorkloadBuilder::new("simple2")
            .global("A", 8 * MIB)
            .global("B", 8 * MIB)
            .global("C", 8 * MIB)
            .global("D", 8 * MIB)
            .phase(
                PhaseBuilder::new()
                    .misses(1_000_000)
                    .weight("A", 10.0)
                    .weight("B", 20.0)
                    .weight("C", 40.0)
                    .weight("D", 30.0)
                    .compute_per_miss(10)
                    .stochastic(12),
            )
            .build();
        let mut s = Searcher::new(search_cfg(500_000), &w.static_objects());
        let mut e = Engine::new(sim_cfg(2));
        e.run(&mut w, &mut s, RunLimit::AppMisses(4_000_000));
        assert!(s.is_done());
        let rep = s.report().unwrap();
        assert_eq!(rep.estimates[0].name, "C", "top object found by 2-way");
    }

    #[test]
    fn figure_2_pathology_greedy_vs_queue() {
        // Figure 2's layout: one half of the space holds four arrays at
        // 15% each (60% total); the other half holds E at 25% plus a 15%
        // sibling. Greedy refinement descends into the 60% half and
        // terminates on a 15% array; the priority queue backtracks to E.
        let build = || {
            WorkloadBuilder::new("fig2")
                // A-D fill the lower half of the span (60% of misses,
                // 15% each); E (25%) and F (15%) fill the upper half, so
                // the midpoint split separates exactly as in Figure 2.
                .global("A", 4 * MIB)
                .global("B", 4 * MIB)
                .global("C", 4 * MIB)
                .global("D", 4 * MIB)
                .global("E", 8 * MIB)
                .global("F", 8 * MIB)
                .phase(
                    PhaseBuilder::new()
                        .misses(1_000_000)
                        .weight("A", 15.0)
                        .weight("B", 15.0)
                        .weight("C", 15.0)
                        .weight("D", 15.0)
                        .weight("E", 25.0)
                        .weight("F", 15.0)
                        .compute_per_miss(10)
                        .stochastic(13),
                )
                .build()
        };

        let mut w = build();
        let mut pq_search = Searcher::new(search_cfg(500_000), &w.static_objects());
        let mut e = Engine::new(sim_cfg(2));
        e.run(&mut w, &mut pq_search, RunLimit::AppMisses(6_000_000));
        let pq_top = &pq_search.report().unwrap().estimates[0];
        assert_eq!(pq_top.name, "E", "priority queue backtracks to E");

        let mut w = build();
        let mut greedy = Searcher::new(
            SearchConfig {
                strategy: SearchStrategy::Greedy,
                ..search_cfg(500_000)
            },
            &w.static_objects(),
        );
        let mut e = Engine::new(sim_cfg(2));
        e.run(&mut w, &mut greedy, RunLimit::AppMisses(6_000_000));
        let greedy_rep = greedy.report().unwrap();
        if let Some(top) = greedy_rep.estimates.first() {
            assert_ne!(
                top.name, "E",
                "greedy refinement must terminate on the wrong object"
            );
        }
    }

    #[test]
    fn search_handles_heap_objects() {
        let mut w = WorkloadBuilder::new("heapy")
            .heap_at(0x1_4102_0000, 8 * MIB)
            .global("buf", 8 * MIB)
            .phase(
                PhaseBuilder::new()
                    .misses(500_000)
                    .weight("0x141020000", 80.0)
                    .weight("buf", 20.0)
                    .compute_per_miss(10)
                    .stochastic(14),
            )
            .build();
        let mut s = Searcher::new(search_cfg(500_000), &w.static_objects());
        let mut e = Engine::new(sim_cfg(10));
        e.run(&mut w, &mut s, RunLimit::AppMisses(2_000_000));
        let rep = s.report().unwrap();
        assert_eq!(rep.estimates[0].name, "0x141020000");
    }

    #[test]
    fn below_threshold_objects_stay_unfound() {
        // 1.5% object: below the 2% refinement threshold, like compress's
        // htab in Table 1 — unless isolated as a split byproduct, it must
        // not be refined. Place it between two cold neighbours so the
        // byproduct path cannot isolate it.
        let mut w = WorkloadBuilder::new("thresh")
            .global("PAD1", 8 * MIB)
            .global("small", MIB)
            .global("PAD2", 8 * MIB)
            .global("BIG1", 8 * MIB)
            .global("BIG2", 8 * MIB)
            .phase(
                PhaseBuilder::new()
                    .misses(1_000_000)
                    .weight("PAD1", 0.25)
                    .weight("small", 1.5)
                    .weight("PAD2", 0.25)
                    .weight("BIG1", 58.0)
                    .weight("BIG2", 40.0)
                    .compute_per_miss(10)
                    .stochastic(15),
            )
            .build();
        let mut s = Searcher::new(search_cfg(500_000), &w.static_objects());
        let mut e = Engine::new(sim_cfg(4));
        e.run(&mut w, &mut s, RunLimit::AppMisses(4_000_000));
        let rep = s.report().unwrap();
        assert!(rep.rank_of("BIG1").is_some());
        assert!(rep.rank_of("BIG2").is_some());
        assert!(
            rep.rank_of("small").is_none(),
            "sub-threshold object should not be isolated: {:?}",
            rep.estimates
        );
    }

    #[test]
    fn timeshared_search_matches_dedicated_counters_on_steady_mix() {
        // 10 logical ways multiplexed onto 2 physical counters: on a
        // steady workload the scaled counts are unbiased, so the results
        // should match a fully-equipped search.
        let build = || {
            WorkloadBuilder::new("steady")
                .global("HOT", 8 * MIB)
                .global("WARM", 8 * MIB)
                .global("COOL", 8 * MIB)
                .phase(
                    PhaseBuilder::new()
                        .misses(1_000_000)
                        .weight("HOT", 60.0)
                        .weight("WARM", 30.0)
                        .weight("COOL", 10.0)
                        .compute_per_miss(10)
                        .stochastic(55),
                )
                .build()
        };
        let mut w = build();
        let mut s = Searcher::new(
            SearchConfig {
                logical_ways: Some(10),
                ..search_cfg(1_000_000)
            },
            &w.static_objects(),
        );
        let mut e = Engine::new(sim_cfg(2)); // only 2 physical counters
        e.run(&mut w, &mut s, RunLimit::AppMisses(4_000_000));
        let rep = s.report().unwrap();
        assert!(rep.label.contains("10-way on 2 ctrs"), "{}", rep.label);
        assert_eq!(rep.estimates[0].name, "HOT");
        assert!(
            (rep.estimates[0].pct - 60.0).abs() < 5.0,
            "timeshared estimate {:.1}",
            rep.estimates[0].pct
        );
        let (rank, warm) = rep.rank_of("WARM").unwrap();
        assert_eq!(rank, 2);
        assert!((warm - 30.0).abs() < 5.0);
    }

    #[test]
    fn single_physical_counter_still_searches() {
        // The paper: "multiple counters ... could be simulated by
        // timesharing the single conditional counter". One physical
        // counter, default logical width 2.
        let mut w = WorkloadBuilder::new("single")
            .global("BIG", 8 * MIB)
            .global("SMALL", 8 * MIB)
            .phase(
                PhaseBuilder::new()
                    .misses(500_000)
                    .weight("BIG", 80.0)
                    .weight("SMALL", 20.0)
                    .compute_per_miss(10)
                    .stochastic(56),
            )
            .build();
        let mut s = Searcher::new(search_cfg(1_000_000), &w.static_objects());
        let mut e = Engine::new(sim_cfg(1));
        e.run(&mut w, &mut s, RunLimit::AppMisses(5_000_000));
        let rep = s.report().unwrap();
        assert_eq!(rep.estimates.first().map(|e| e.name.as_str()), Some("BIG"));
    }

    #[test]
    fn progress_log_records_measurements_and_termination() {
        let mut w = WorkloadBuilder::new("logged")
            .global("X", 8 * MIB)
            .global("Y", 8 * MIB)
            .phase(
                PhaseBuilder::new()
                    .misses(500_000)
                    .weight("X", 70.0)
                    .weight("Y", 30.0)
                    .compute_per_miss(10)
                    .stochastic(61),
            )
            .build();
        let mut s = Searcher::new(
            SearchConfig {
                log_progress: true,
                ..search_cfg(500_000)
            },
            &w.static_objects(),
        );
        let mut e = Engine::new(sim_cfg(4));
        e.run(&mut w, &mut s, RunLimit::AppMisses(3_000_000));
        assert!(s.is_done());
        let log = SearchLog::from_events(e.obs().events());
        assert!(!log.is_empty());
        // Measured counts in any iteration never exceed the interval total.
        for it in &log.iterations {
            let sum: u64 = it.regions.iter().map(|r| r.count).sum();
            assert!(sum <= it.total, "counts {sum} vs total {}", it.total);
        }
        // Exactly one terminating iteration, and it is the last.
        let terminated: Vec<bool> = log.iterations.iter().map(|i| i.terminated).collect();
        assert_eq!(terminated.iter().filter(|&&t| t).count(), 1);
        assert_eq!(terminated.last(), Some(&true));
        // The render names the found objects.
        let text = log.render();
        assert!(text.contains("<X>") && text.contains("<Y>"), "{text}");
    }

    #[test]
    fn coalesced_search_finds_an_allocation_site_as_a_unit() {
        // The paper's section 5 combination: a measurement-aware
        // allocator keeps the churning site compact, and the coalescing
        // map lets the search treat it as one object.
        use cachescope_workloads::spec::Scale;
        use cachescope_workloads::spec2000::Mcf;

        let mut w = Mcf::with_measurement_allocator(Scale::Test);
        let mut s = Searcher::new(
            SearchConfig {
                interval: 5_000_000,
                coalesce_sites: true,
                ..Default::default()
            },
            &w.static_objects(),
        );
        let mut e = Engine::new(sim_cfg(10));
        e.run(&mut w, &mut s, RunLimit::AppMisses(6_000_000));
        let rep = s.report().expect("report produced");
        let (_, site_pct) = rep
            .rank_of("tree_node")
            .expect("coalesced site found as a unit");
        assert!(
            (site_pct - 18.6).abs() < 2.5,
            "site estimated at {site_pct:.1}% vs ~18.6% actual"
        );
        let (rank, _) = rep.rank_of("arcs").unwrap();
        assert_eq!(rank, 1);
    }

    #[test]
    fn without_snapping_straddled_objects_are_mismeasured() {
        // Section 2.2's motivation for extent snapping: with raw midpoint
        // splits, the hot object straddling the split boundary has its
        // misses divided between two regions; neither atomic region
        // covers it exactly, so its estimate degrades or it is lost.
        let build = || {
            WorkloadBuilder::new("straddle")
                .global("PAD", 3 * MIB)
                .global("HOT", 10 * MIB)
                .global("TAIL", 3 * MIB)
                .phase(
                    PhaseBuilder::new()
                        .misses(500_000)
                        .weight("PAD", 15.0)
                        .weight("HOT", 70.0)
                        .weight("TAIL", 15.0)
                        .compute_per_miss(10)
                        .stochastic(44),
                )
                .build()
        };
        let run = |snap: bool| {
            let mut w = build();
            let mut s = Searcher::new(
                SearchConfig {
                    snap_to_objects: snap,
                    ..search_cfg(500_000)
                },
                &w.static_objects(),
            );
            let mut e = Engine::new(sim_cfg(4));
            e.run(&mut w, &mut s, RunLimit::AppMisses(5_000_000));
            s.report().unwrap().clone()
        };
        let snapped = run(true);
        let (_, hot_pct) = snapped.rank_of("HOT").expect("snapped search finds HOT");
        let snapped_err = (hot_pct - 70.0).abs();
        assert!(snapped_err < 1.5, "snapped estimate {hot_pct:.1}");

        let naive = run(false);
        let naive_hot = naive.rank_of("HOT").map(|(_, p)| p).unwrap_or(0.0);
        let naive_err = (naive_hot - 70.0).abs();
        // Without extent knowledge the search can only measure whatever
        // interior piece its midpoint descent happens to isolate — it
        // systematically under-covers the straddled object.
        assert!(
            naive_hot < 70.0 && naive_err > snapped_err + 1.0,
            "naive splitting must be less accurate on the straddled object: \
             {naive_hot:.1}% (err {naive_err:.1}) vs snapped {hot_pct:.1}% \
             (err {snapped_err:.1})"
        );
    }

    #[test]
    fn hardening_knobs_stay_out_of_default_canonical_json() {
        // Content-addressed cache keys from before the hardening layer
        // must not change: the knobs render only when set.
        let rendered = SearchConfig::default().to_json().render();
        assert!(!rendered.contains("consistency_tolerance"), "{rendered}");
        assert!(!rendered.contains("max_remeasure"), "{rendered}");
        assert!(!rendered.contains("outlier_pct"), "{rendered}");
        let hardened = SearchConfig {
            consistency_tolerance: Some(0.05),
            max_remeasure: 2,
            outlier_pct: Some(100.0),
            ..Default::default()
        };
        let rendered = hardened.to_json().render();
        assert!(rendered.contains("consistency_tolerance"), "{rendered}");
        assert_eq!(hardened.label(), "search+hardened");
    }

    #[test]
    fn hardened_search_is_inert_on_a_fault_free_pmu() {
        // On a fault-free PMU the consistency invariants can never fire
        // (disjoint region counts sum to at most the global counter), so
        // hardening must not change a single estimate.
        let build = || {
            WorkloadBuilder::new("inert")
                .global("HOT", 8 * MIB)
                .global("WARM", 8 * MIB)
                .phase(
                    PhaseBuilder::new()
                        .misses(500_000)
                        .weight("HOT", 70.0)
                        .weight("WARM", 30.0)
                        .compute_per_miss(10)
                        .stochastic(21),
                )
                .build()
        };
        let run = |cfg: SearchConfig| {
            let mut w = build();
            let mut s = Searcher::new(cfg, &w.static_objects());
            let mut e = Engine::new(sim_cfg(4));
            e.run(&mut w, &mut s, RunLimit::AppMisses(2_000_000));
            s.report().unwrap().clone()
        };
        let plain = run(search_cfg(500_000));
        let hard = run(SearchConfig {
            consistency_tolerance: Some(0.01),
            max_remeasure: 3,
            outlier_pct: Some(100.0),
            ..search_cfg(500_000)
        });
        assert_eq!(plain.estimates, hard.estimates);
        assert!(hard.degraded.is_empty());
    }

    #[test]
    fn hardened_search_retries_and_flags_under_read_jitter() {
        use cachescope_hwpm::FaultConfig;
        let mut w = WorkloadBuilder::new("jittery")
            .global("HOT", 8 * MIB)
            .global("WARM", 8 * MIB)
            .phase(
                PhaseBuilder::new()
                    .misses(500_000)
                    .weight("HOT", 70.0)
                    .weight("WARM", 30.0)
                    .compute_per_miss(10)
                    .stochastic(22),
            )
            .build();
        let mut s = Searcher::new(
            SearchConfig {
                consistency_tolerance: Some(0.02),
                max_remeasure: 2,
                outlier_pct: Some(100.0),
                ..search_cfg(500_000)
            },
            &w.static_objects(),
        );
        let mut e = Engine::new(SimConfig {
            faults: FaultConfig {
                read_jitter: 0.5,
                seed: 7,
                ..Default::default()
            },
            ..sim_cfg(4)
        });
        e.run(&mut w, &mut s, RunLimit::AppMisses(3_000_000));
        let retried = e.obs().metrics.counter("search.intervals_retried");
        assert!(retried > 0, "jittered reads should trigger re-measurement");
    }

    #[test]
    fn survives_zero_miss_phases() {
        // Alternating phases: A hot then silent. The zero-miss retention
        // heuristic must keep A's region alive so A is still reported.
        let mut w = WorkloadBuilder::new("phases")
            .global("A", 8 * MIB)
            .global("B", 8 * MIB)
            .phase(
                PhaseBuilder::new()
                    .misses(60_000)
                    .weight("A", 80.0)
                    .weight("B", 20.0)
                    .compute_per_miss(10)
                    .stochastic(16),
            )
            .phase(
                PhaseBuilder::new()
                    .misses(20_000)
                    .weight("B", 100.0)
                    .compute_per_miss(10)
                    .stochastic(17),
            )
            .build();
        let mut s = Searcher::new(search_cfg(400_000), &w.static_objects());
        let mut e = Engine::new(sim_cfg(4));
        e.run(&mut w, &mut s, RunLimit::AppMisses(2_000_000));
        let rep = s.report().unwrap();
        assert!(
            rep.rank_of("A").is_some(),
            "A must survive its silent phases: {:?}",
            rep.estimates
        );
        assert!(rep.rank_of("B").is_some());
    }
}
