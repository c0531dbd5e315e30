//! Static attribution oracle: abstract interpretation of workload IR
//! into provable per-object miss bounds.
//!
//! The rest of the repo measures per-object cache misses by *running*
//! things — the simulator for ground truth, simulated PMUs for the
//! paper's techniques. This crate is the simulation-free second
//! opinion: a linear abstract interpretation over the same event IR
//! ([`Event`]/[`EventChunk`] streams) that computes, per object and per
//! phase, footprint, reuse-distance (Mattson stack-distance) histograms
//! and **provable min/max miss-count bounds** for a given cache
//! geometry. The bounds are sound by construction — never tight but
//! wrong — so any simulated ground truth that falls outside them proves
//! a bug in the engine or the analyzer (`CS-A004`), a failure class
//! differential testing cannot see.
//!
//! # Soundness model
//!
//! The monitored cache is set-associative with per-set LRU. For an
//! application access to line `L`, let `d` be the number of *distinct
//! other application lines* mapping to the same set touched since the
//! previous touch of `L` (the per-set stack distance), with `d = ∞` for
//! a first touch. Instrumentation traffic lives in its own address
//! segment and only ever *adds* distinct lines to a set, so:
//!
//! * `d = ∞` (first touch) is a **certain miss** under any policy and
//!   any interleaved instrumentation traffic (compulsory miss).
//! * `d >= assoc` under LRU is a **certain miss** under any interleaved
//!   traffic: at least `assoc` distinct same-set lines were touched
//!   after `L`, so `L` was evicted no matter what else happened.
//! * `d < assoc` is unknown: a hit in isolation, but instrumentation
//!   traffic may evict `L`. Hence the only sound per-object upper bound
//!   is the access count itself.
//!
//! So `min = |certain misses|`, `max = |accesses|`, both resolved to
//! the object covering the address at access time (mirroring the
//! engine's ground-truth attribution, including name pooling, heap
//! churn and unmapped traffic). Conservative **widening** keeps the
//! bounds sound when the certainty argument breaks:
//!
//! * non-LRU policies: only first touches are certain; `min` falls back
//!   to exact cold lines.
//! * an L1 in front of the monitored cache filters which accesses reach
//!   it at all: `min` widens to 0.
//! * data-dependent run limits (miss/cycle budgets) truncate the run at
//!   a point the analyzer cannot know exactly. It interprets until its
//!   *provable* miss/cycle floor reaches the budget — real misses and
//!   cycles dominate the floor at every prefix, so the real run stops at
//!   or before the analyzed prefix and the prefix access counts stay
//!   sound upper bounds. `min` widens to 0 when the limit trips (the
//!   real run may stop earlier); a stream that ends first needs no
//!   widening.
//! * the distinct-line *statistics* budget: footprint, cold and phase
//!   statistics freeze (bounds are unaffected under LRU — certainty
//!   comes from bounded per-set recency lists, not from the global
//!   line map).
//!
//! Statically provable pathologies are reported as [`Pathology`] values
//! (surfaced by `cachescope check` as `CS-A001..A003` diagnostics):
//! an object provably thrashing, two hot objects provably aliasing into
//! the same sets, and a phase whose working set provably exceeds
//! capacity.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use cachescope_obs::Json;
use cachescope_sim::{
    extent_of, CacheConfig, EpochIndex, Event, EventChunk, MemRef, ObjectDecl, Program,
    ReplacementPolicy, CHUNK_CAPACITY,
};

/// How the run whose misses we are bounding is limited.
///
/// Spec-analogue workloads are *infinite* streams — every real run is
/// bounded by a [`cachescope_sim::RunLimit`] — so the analyzer must
/// stop at a point provably at or past wherever the real run stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisLimit {
    /// The run executes the whole (finite) event stream
    /// ([`cachescope_sim::RunLimit::Exhausted`]).
    FullStream,
    /// The run stops exactly after this many application accesses
    /// ([`cachescope_sim::RunLimit::AppAccesses`]); the analyzer
    /// interprets exactly that prefix — the bounds-exact regime.
    Accesses(u64),
    /// The run stops once application misses reach this count
    /// ([`cachescope_sim::RunLimit::AppMisses`]). The analyzer
    /// interprets until its *provable* (certain) miss count reaches the
    /// budget: real misses dominate certain misses at every prefix, so
    /// the real run stops at or before that point. The exact stop is
    /// data-dependent, so min bounds widen to 0 when the limit trips.
    Misses(u64),
    /// The run stops once (application) cycles reach this count
    /// ([`cachescope_sim::RunLimit::Cycles`]/`AppCycles`). The analyzer
    /// interprets until its provable cycle floor (compute marks + one
    /// hit per access + one miss penalty per certain miss) reaches the
    /// budget; min bounds widen to 0 when the limit trips.
    Cycles(u64),
}

impl AnalysisLimit {
    fn kind(&self) -> &'static str {
        match self {
            AnalysisLimit::FullStream => "full_stream",
            AnalysisLimit::Accesses(_) => "accesses",
            AnalysisLimit::Misses(_) => "misses",
            AnalysisLimit::Cycles(_) => "cycles",
        }
    }

    fn base(&self) -> Option<u64> {
        match self {
            AnalysisLimit::FullStream => None,
            AnalysisLimit::Accesses(n) | AnalysisLimit::Misses(n) | AnalysisLimit::Cycles(n) => {
                Some(*n)
            }
        }
    }
}

/// Analyzer configuration: the monitored cache geometry plus what is in
/// front of it and how the run is limited.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// The monitored cache (the level ground truth attributes misses at).
    pub cache: CacheConfig,
    /// Whether an L1 filters traffic to the monitored cache
    /// (`SimConfig::l1`). Filtered accesses never reach the monitored
    /// level, so reuse arguments about it break: min bounds widen to 0.
    pub l1: bool,
    pub limit: AnalysisLimit,
    /// Budget on globally tracked distinct lines for the *statistics*
    /// (footprint, cold split, phases). Exceeding it freezes those
    /// statistics; under LRU the bounds themselves are unaffected.
    pub line_budget: usize,
    /// Hard safety cap on interpreted accesses, protecting against
    /// infinite streams whose provable miss/cycle floor never reaches a
    /// [`AnalysisLimit::Misses`]/[`AnalysisLimit::Cycles`] budget.
    /// Tripping it makes the bounds vacuous (`min = 0`,
    /// `max = u64::MAX`) — still sound, no longer useful.
    pub access_budget: u64,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            cache: CacheConfig::default(),
            l1: false,
            limit: AnalysisLimit::FullStream,
            line_budget: 4 << 20,
            access_budget: 200_000_000,
        }
    }
}

/// Reuse-histogram geometry: power-of-two stack-distance buckets
/// `0, 1, 2-3, 4-7, 8-15, 16-31, 32-63`, plus a final bucket for every
/// reuse at distance >= the recency-list depth *and* every access not
/// found in the list (cold or very distant).
pub const HIST_BUCKETS: usize = 8;

/// Display name of the pseudo-object collecting accesses that resolve
/// to no live extent (mirrors the engine's `unmapped_misses`).
pub const UNMAPPED: &str = "(unmapped)";

const MAX_PHASE_BITS: u32 = 64;

/// Per-object (name-pooled) analysis results.
#[derive(Debug, Clone)]
pub struct ObjectBounds {
    /// Display name, pooled exactly as the engine pools report rows:
    /// source name for statics/named heap blocks, hexadecimal base for
    /// anonymous heap blocks.
    pub name: String,
    /// Application accesses resolved to this object.
    pub accesses: u64,
    /// Distinct lines touched through this object (frozen at the
    /// statistics budget).
    pub footprint_lines: u64,
    /// First-ever touches of a line, attributed to this object (frozen
    /// at the statistics budget).
    pub cold_lines: u64,
    /// Accesses with per-set app-only stack distance >= associativity
    /// or beyond the recency depth: certain misses under LRU.
    pub certain_misses: u64,
    /// Provable lower bound on this object's misses (after widening).
    pub min_misses: u64,
    /// Provable upper bound on this object's misses.
    pub max_misses: u64,
    /// Distinct cache sets this object's footprint maps to (frozen at
    /// the statistics budget).
    pub sets_touched: u64,
    /// Stack-distance histogram of this object's reuses (see
    /// [`HIST_BUCKETS`]); cold first touches are *not* in the histogram.
    pub reuse_hist: [u64; HIST_BUCKETS],
}

impl ObjectBounds {
    /// Does a measured miss count fall inside the provable bounds?
    pub fn contains(&self, misses: u64) -> bool {
        misses >= self.min_misses && misses <= self.max_misses
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("object", Json::str(self.name.clone())),
            ("accesses", Json::Uint(self.accesses)),
            ("footprint_lines", Json::Uint(self.footprint_lines)),
            ("cold_lines", Json::Uint(self.cold_lines)),
            ("certain_misses", Json::Uint(self.certain_misses)),
            ("min_misses", Json::Uint(self.min_misses)),
            ("max_misses", Json::Uint(self.max_misses)),
            ("sets_touched", Json::Uint(self.sets_touched)),
            (
                "reuse_hist",
                Json::Arr(self.reuse_hist.iter().map(|&n| Json::Uint(n)).collect()),
            ),
        ])
    }
}

/// A statically provable pathology (rendered by `cachescope check` as a
/// `CS-A00x` diagnostic).
#[derive(Debug, Clone)]
pub enum Pathology {
    /// CS-A001: at least half of the object's accesses provably miss.
    Thrash {
        object: String,
        min_misses: u64,
        accesses: u64,
    },
    /// CS-A002: two hot objects provably alias into the same sets with
    /// more combined lines than ways — the sampler/search cannot
    /// separate their conflict misses.
    SetAlias {
        a: String,
        b: String,
        /// Sets both objects touch with combined distinct lines > assoc.
        conflict_sets: u64,
        sets_a: u64,
        sets_b: u64,
    },
    /// CS-A003: a phase's working set provably exceeds cache capacity.
    PhaseOverCapacity {
        phase: u32,
        distinct_lines: u64,
        capacity_lines: u64,
    },
}

impl Pathology {
    /// The stable diagnostic code this pathology maps to.
    pub fn code(&self) -> &'static str {
        match self {
            Pathology::Thrash { .. } => "CS-A001",
            Pathology::SetAlias { .. } => "CS-A002",
            Pathology::PhaseOverCapacity { .. } => "CS-A003",
        }
    }

    /// Human message (also the `message` field in JSON).
    pub fn message(&self) -> String {
        match self {
            Pathology::Thrash {
                object,
                min_misses,
                accesses,
            } => format!(
                "object '{object}' provably thrashes: >= {min_misses} of its \
                 {accesses} accesses miss"
            ),
            Pathology::SetAlias {
                a,
                b,
                conflict_sets,
                sets_a,
                sets_b,
            } => format!(
                "objects '{a}' ({sets_a} sets) and '{b}' ({sets_b} sets) provably \
                 alias: {conflict_sets} shared sets hold more lines than ways"
            ),
            Pathology::PhaseOverCapacity {
                phase,
                distinct_lines,
                capacity_lines,
            } => format!(
                "phase {phase} working set provably exceeds capacity: \
                 {distinct_lines} distinct lines > {capacity_lines} cache lines"
            ),
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![("code", Json::str(self.code()))];
        match self {
            Pathology::Thrash {
                object,
                min_misses,
                accesses,
            } => {
                fields.push(("object", Json::str(object.clone())));
                fields.push(("min_misses", Json::Uint(*min_misses)));
                fields.push(("accesses", Json::Uint(*accesses)));
            }
            Pathology::SetAlias {
                a,
                b,
                conflict_sets,
                sets_a,
                sets_b,
            } => {
                fields.push(("a", Json::str(a.clone())));
                fields.push(("b", Json::str(b.clone())));
                fields.push(("conflict_sets", Json::Uint(*conflict_sets)));
                fields.push(("sets_a", Json::Uint(*sets_a)));
                fields.push(("sets_b", Json::Uint(*sets_b)));
            }
            Pathology::PhaseOverCapacity {
                phase,
                distinct_lines,
                capacity_lines,
            } => {
                fields.push(("phase", Json::Uint(u64::from(*phase))));
                fields.push(("distinct_lines", Json::Uint(*distinct_lines)));
                fields.push(("capacity_lines", Json::Uint(*capacity_lines)));
            }
        }
        fields.push(("message", Json::str(self.message())));
        Json::obj(fields)
    }
}

/// The analyzer's output: per-object bounds, per-phase working sets,
/// provable pathologies, and every widening that was applied.
#[derive(Debug, Clone)]
pub struct BoundsReport {
    pub workload: String,
    pub cache: CacheConfig,
    pub l1: bool,
    pub limit: AnalysisLimit,
    /// Why (if at all) the bounds were widened, in a fixed order.
    pub widened: Vec<&'static str>,
    /// Whether footprint/cold/phase statistics froze at the line budget.
    pub stats_frozen: bool,
    pub total_accesses: u64,
    /// Distinct lines touched overall (frozen at the statistics budget).
    pub distinct_lines: u64,
    /// Named objects, sorted by accesses descending then name ascending.
    pub objects: Vec<ObjectBounds>,
    /// Accesses that resolved to no live extent.
    pub unmapped: ObjectBounds,
    /// `(phase id, distinct lines touched in it)`, phase id ascending.
    pub phases: Vec<(u32, u64)>,
    pub pathologies: Vec<Pathology>,
}

impl BoundsReport {
    /// Bounds row for a named object, if the analyzer saw it touched.
    pub fn object(&self, name: &str) -> Option<&ObjectBounds> {
        self.objects.iter().find(|o| o.name == name)
    }

    /// Deterministic JSON (`kind: "bounds_report"`, `v: 1`). Every
    /// numeric field is an integer, so byte stability is trivial.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::str("bounds_report")),
            ("v", Json::Uint(1)),
            ("workload", Json::str(self.workload.clone())),
            (
                "cache",
                Json::obj(vec![
                    ("size_bytes", Json::Uint(self.cache.size_bytes)),
                    ("line_bytes", Json::Uint(u64::from(self.cache.line_bytes))),
                    ("assoc", Json::Uint(u64::from(self.cache.assoc))),
                    (
                        "policy",
                        Json::str(match self.cache.policy {
                            ReplacementPolicy::Lru => "lru",
                            ReplacementPolicy::Fifo => "fifo",
                            ReplacementPolicy::PseudoRandom => "pseudo_random",
                        }),
                    ),
                    ("l1", Json::Bool(self.l1)),
                ]),
            ),
            ("limit", {
                let mut fields = vec![("kind", Json::str(self.limit.kind()))];
                if let Some(n) = self.limit.base() {
                    fields.push(("n", Json::Uint(n)));
                }
                Json::obj(fields)
            }),
            (
                "widened",
                Json::Arr(self.widened.iter().map(|&w| Json::str(w)).collect()),
            ),
            ("stats_frozen", Json::Bool(self.stats_frozen)),
            ("total_accesses", Json::Uint(self.total_accesses)),
            ("distinct_lines", Json::Uint(self.distinct_lines)),
            (
                "objects",
                Json::Arr(self.objects.iter().map(ObjectBounds::to_json).collect()),
            ),
            ("unmapped", self.unmapped.to_json()),
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|&(p, n)| {
                            Json::obj(vec![
                                ("phase", Json::Uint(u64::from(p))),
                                ("distinct_lines", Json::Uint(n)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "pathologies",
                Json::Arr(self.pathologies.iter().map(Pathology::to_json).collect()),
            ),
        ])
    }

    /// Human-readable bounds table.
    pub fn render_human(&self) -> String {
        let mut out = format!(
            "static bounds: {} ({} B / {} B lines / {}-way, {})\n",
            self.workload,
            self.cache.size_bytes,
            self.cache.line_bytes,
            self.cache.assoc,
            self.limit.kind(),
        );
        for w in &self.widened {
            out.push_str(&format!("  widened: {w}\n"));
        }
        out.push_str(&format!(
            "  {:<28} {:>12} {:>12} {:>12} {:>12}\n",
            "object", "accesses", "footprint", "min miss", "max miss"
        ));
        for o in self.objects.iter().chain(std::iter::once(&self.unmapped)) {
            if o.accesses == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<28} {:>12} {:>12} {:>12} {:>12}\n",
                o.name, o.accesses, o.footprint_lines, o.min_misses, o.max_misses
            ));
        }
        for (p, n) in &self.phases {
            out.push_str(&format!("  phase {p}: {n} distinct lines\n"));
        }
        for p in &self.pathologies {
            out.push_str(&format!("  [{}] {}\n", p.code(), p.message()));
        }
        out
    }
}

#[derive(Debug, Default)]
struct Tally {
    name: String,
    accesses: u64,
    cold_lines: u64,
    certain_misses: u64,
    hist: [u64; HIST_BUCKETS],
    lines: Vec<u64>, // distinct lines, deduplicated at finalize
}

impl Tally {
    fn named(name: String) -> Tally {
        Tally {
            name,
            ..Tally::default()
        }
    }
}

/// The streaming abstract interpreter. Feed it statics, then events in
/// program order (or drive it with [`analyze_program`]); `finish`
/// produces the [`BoundsReport`].
pub struct Analyzer {
    cfg: AnalyzeConfig,
    workload: String,
    line_shift: u32,
    set_mask: u64,
    assoc: usize,
    hist_depth: usize,
    /// Per-set most-recent-first distinct lines, truncated to
    /// `hist_depth` entries: exact `min(stack distance, hist_depth)`.
    recency: Vec<Vec<u64>>,
    /// line -> phase-presence bitmask; presence doubles as "seen".
    seen: HashMap<u64, u64>,
    stats_frozen: bool,
    tallies: Vec<Tally>,
    by_name: HashMap<String, u32>,
    unmapped: Tally,
    /// Live extents → tally ids, under the engine's extent rule.
    extents: EpochIndex,
    current_phase: u32,
    phase_seen: u64,
    phase_overflow: bool,
    total_accesses: u64,
    /// Total certain misses (all objects + unmapped): the provable miss
    /// floor that bounds where a miss-limited run can stop.
    certain_total: u64,
    /// Provable cycle floor: compute marks + one hit per access + one
    /// miss penalty per certain miss.
    cycle_floor: u64,
    /// A miss/cycle limit tripped: the exact stop point of the real run
    /// is data-dependent, so min bounds widen to 0.
    limit_tripped: bool,
    /// The safety access budget tripped first: bounds become vacuous.
    budget_tripped: bool,
    done: bool,
}

impl Analyzer {
    pub fn new(workload: impl Into<String>, cfg: AnalyzeConfig) -> Analyzer {
        cfg.cache.validate();
        let num_sets = cfg.cache.num_sets();
        let assoc = cfg.cache.assoc as usize;
        Analyzer {
            workload: workload.into(),
            line_shift: cfg.cache.line_bytes.trailing_zeros(),
            set_mask: num_sets - 1,
            assoc,
            hist_depth: assoc.max(64),
            recency: vec![Vec::new(); num_sets as usize],
            seen: HashMap::new(),
            stats_frozen: false,
            tallies: Vec::new(),
            by_name: HashMap::new(),
            unmapped: Tally::named(UNMAPPED.to_string()),
            extents: EpochIndex::new(),
            current_phase: 0,
            phase_seen: 0,
            phase_overflow: false,
            total_accesses: 0,
            certain_total: 0,
            cycle_floor: 0,
            limit_tripped: false,
            budget_tripped: false,
            done: false,
            cfg,
        }
    }

    /// Has the configured access limit been reached? Drivers stop
    /// feeding events once this is true.
    pub fn at_limit(&self) -> bool {
        self.done
    }

    fn tally_for(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.tallies.len() as u32;
        self.by_name.insert(name.to_string(), id);
        self.tallies.push(Tally::named(name.to_string()));
        id
    }

    /// Register a static/global object (before any events), mirroring
    /// the engine: a static overlapping an earlier live extent is
    /// rejected and never attributes anything.
    pub fn declare_static(&mut self, d: &ObjectDecl) {
        self.insert_extent(&d.name, d.base, d.size);
    }

    fn insert_extent(&mut self, name: &str, base: u64, size: u64) {
        // The engine refuses what the shared rule refuses (CS-W001,
        // W005, W006, P001); a contested range keeps attributing to the
        // prior extent, and a refused object gets no tally.
        let (base, end) = extent_of(base, size);
        if self.extents.check(base, end).is_ok() {
            let obj = self.tally_for(name);
            let _ = self.extents.insert(base, end, obj);
        }
    }

    /// Interpret one application access.
    pub fn access(&mut self, r: &MemRef) {
        if self.done {
            return;
        }
        self.total_accesses += 1;
        if let AnalysisLimit::Accesses(n) = self.cfg.limit {
            if self.total_accesses >= n {
                self.done = true;
            }
        }

        let line = r.addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;

        // Exact min(stack distance, hist_depth) from the truncated
        // per-set recency list.
        let list = &mut self.recency[set];
        let distance = match list.iter().position(|&l| l == line) {
            Some(p) => {
                list[..=p].rotate_right(1);
                Some(p)
            }
            None => {
                list.insert(0, line);
                list.truncate(self.hist_depth);
                None
            }
        };

        // Statistics: global first-touch and phase working sets, frozen
        // at the line budget (bounds below do not depend on them).
        let mut first_touch = false;
        if !self.stats_frozen {
            let phase_bit = 1u64 << self.current_phase.min(MAX_PHASE_BITS - 1);
            self.phase_seen |= phase_bit;
            match self.seen.entry(line) {
                Entry::Vacant(v) => {
                    v.insert(phase_bit);
                    first_touch = true;
                }
                Entry::Occupied(mut o) => *o.get_mut() |= phase_bit,
            }
            if self.seen.len() >= self.cfg.line_budget {
                self.stats_frozen = true;
            }
        }

        let (bucket, certain) = match distance {
            // log2 stack-distance bucket: 0, 1, 2-3, 4-7, ...
            Some(p) => {
                let bucket = if p == 0 {
                    0
                } else {
                    (HIST_BUCKETS - 1).min(p.ilog2() as usize + 1)
                };
                (bucket, p >= self.assoc)
            }
            // Not in the recency list: either a first touch
            // (compulsory miss) or a reuse at distance >= hist_depth
            // >= assoc (certain LRU eviction) — a miss either way.
            None => (HIST_BUCKETS - 1, true),
        };

        let tally = match self.extents.resolve(r.addr) {
            Some((_, _, id)) => &mut self.tallies[id as usize],
            None => &mut self.unmapped,
        };
        tally.accesses += 1;
        if first_touch {
            tally.cold_lines += 1;
            tally.lines.push(line);
        }
        tally.hist[bucket] += 1;
        if certain {
            tally.certain_misses += 1;
            self.certain_total += 1;
        }

        // The provable cycle floor: one hit charge per access plus one
        // miss penalty per certain miss (real cycles only grow from
        // there — extra misses, writebacks, instrumentation).
        self.cycle_floor = self
            .cycle_floor
            .saturating_add(self.cfg.cache.hit_cycles)
            .saturating_add(if certain {
                self.cfg.cache.miss_penalty
            } else {
                0
            });

        match self.cfg.limit {
            AnalysisLimit::Misses(n) if self.certain_total >= n => {
                self.done = true;
                self.limit_tripped = true;
            }
            AnalysisLimit::Cycles(n) if self.cycle_floor >= n => {
                self.done = true;
                self.limit_tripped = true;
            }
            _ => {}
        }
        if self.total_accesses >= self.cfg.access_budget {
            self.done = true;
            self.budget_tripped = true;
        }
    }

    /// Interpret one program event.
    pub fn event(&mut self, e: &Event) {
        if self.done {
            return;
        }
        match e {
            Event::Access(r) => self.access(r),
            Event::Compute(c) => self.cycle_floor = self.cycle_floor.saturating_add(*c),
            Event::Alloc { base, size, name } => {
                let display = name.clone().unwrap_or_else(|| format!("{:#x}", *base));
                self.insert_extent(&display, *base, *size);
            }
            Event::Free { base } => {
                self.extents.remove(*base);
            }
            Event::Phase(p) => {
                self.current_phase = *p;
                if *p >= MAX_PHASE_BITS {
                    self.phase_overflow = true;
                }
            }
        }
    }

    /// Walk a chunk exactly as the engine flattens it: marks at
    /// position `p` execute immediately before `refs[p]`, then the
    /// fused `pre_cycles[p]` compute charge, then the access.
    pub fn chunk(&mut self, chunk: &EventChunk) {
        let mut marks = chunk.marks.iter().peekable();
        for (i, r) in chunk.refs.iter().enumerate() {
            while let Some((pos, e)) = marks.peek() {
                if *pos as usize > i {
                    break;
                }
                self.event(e);
                marks.next();
            }
            if let Some(&c) = chunk.pre_cycles.get(i) {
                self.cycle_floor = self.cycle_floor.saturating_add(c);
            }
            self.access(r);
            if self.done {
                return;
            }
        }
        for (_, e) in marks {
            self.event(e);
        }
    }

    /// Finalize: apply widening, derive set geometry, detect
    /// pathologies, and sort deterministically.
    pub fn finish(mut self) -> BoundsReport {
        let lru = self.cfg.cache.policy == ReplacementPolicy::Lru;
        let mut widened = Vec::new();
        if !lru {
            widened.push("non-LRU replacement policy: min bounds fall back to cold lines");
        }
        if self.cfg.l1 {
            widened.push("L1 filters traffic to the monitored cache: min bounds widened to 0");
        }
        if self.limit_tripped {
            widened.push(
                "data-dependent run limit tripped: the real stop point is unknowable, \
                 min bounds widened to 0",
            );
        }
        if self.budget_tripped {
            widened.push("analysis access budget exhausted: bounds are vacuous");
        }
        if self.stats_frozen {
            widened.push("distinct-line budget exceeded: footprint/cold/phase statistics frozen");
        }
        let zero_min = self.cfg.l1 || self.limit_tripped || self.budget_tripped;
        let vacuous_max = self.budget_tripped;

        let set_mask = self.set_mask;
        let finalize = move |t: &mut Tally| -> ObjectBounds {
            t.lines.sort_unstable();
            t.lines.dedup();
            let mut sets: Vec<u64> = t.lines.iter().map(|l| l & set_mask).collect();
            sets.sort_unstable();
            sets.dedup();
            let min = if zero_min {
                0
            } else if lru {
                t.certain_misses
            } else {
                t.cold_lines
            };
            ObjectBounds {
                name: std::mem::take(&mut t.name),
                accesses: t.accesses,
                footprint_lines: t.lines.len() as u64,
                cold_lines: t.cold_lines,
                certain_misses: t.certain_misses,
                min_misses: min,
                max_misses: if vacuous_max { u64::MAX } else { t.accesses },
                sets_touched: sets.len() as u64,
                reuse_hist: t.hist,
            }
        };

        // Per-object per-set distinct-line counts for the alias check,
        // captured (with names) before finalize consumes the tallies.
        let hot: Vec<usize> = {
            let mut idx: Vec<usize> = (0..self.tallies.len())
                .filter(|&i| self.tallies[i].accesses >= 1000)
                .collect();
            idx.sort_by(|&a, &b| {
                self.tallies[b]
                    .accesses
                    .cmp(&self.tallies[a].accesses)
                    .then_with(|| self.tallies[a].name.cmp(&self.tallies[b].name))
            });
            idx.truncate(8);
            idx
        };
        let set_counts: Vec<(String, HashMap<u64, u64>)> = hot
            .iter()
            .map(|&i| {
                let mut lines = self.tallies[i].lines.clone();
                lines.sort_unstable();
                lines.dedup();
                let mut counts: HashMap<u64, u64> = HashMap::new();
                for l in lines {
                    *counts.entry(l & set_mask).or_insert(0) += 1;
                }
                (self.tallies[i].name.clone(), counts)
            })
            .collect();

        let mut objects: Vec<ObjectBounds> = self.tallies.iter_mut().map(finalize).collect();
        let unmapped = finalize(&mut self.unmapped);
        objects.retain(|o| o.accesses > 0 || o.footprint_lines > 0);
        objects.sort_by(|a, b| {
            b.accesses
                .cmp(&a.accesses)
                .then_with(|| a.name.cmp(&b.name))
        });

        // Phase working sets from the per-line phase masks.
        let mut phase_lines = [0u64; MAX_PHASE_BITS as usize];
        for mask in self.seen.values() {
            let mut m = *mask;
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                phase_lines[bit] += 1;
                m &= m - 1;
            }
        }
        let phases: Vec<(u32, u64)> = (0..MAX_PHASE_BITS)
            .filter(|&p| self.phase_seen & (1 << p) != 0)
            .map(|p| (p, phase_lines[p as usize]))
            .collect();

        // Pathologies. All predicates are conservative: none fire from
        // frozen (partial) statistics, and thrash/alias work off the
        // post-widening bounds.
        let mut pathologies = Vec::new();
        for o in &objects {
            if o.accesses >= 1000 && o.min_misses.saturating_mul(2) >= o.accesses {
                pathologies.push(Pathology::Thrash {
                    object: o.name.clone(),
                    min_misses: o.min_misses,
                    accesses: o.accesses,
                });
            }
        }
        if !self.stats_frozen {
            let assoc = u64::from(self.cfg.cache.assoc);
            for (ai, (na, ca)) in set_counts.iter().enumerate() {
                for (nb, cb) in set_counts.iter().skip(ai + 1) {
                    let (sa, sb) = (ca.len() as u64, cb.len() as u64);
                    let conflict = ca
                        .iter()
                        .filter(|(s, na)| cb.get(s).is_some_and(|nb| *na + nb > assoc))
                        .count() as u64;
                    if conflict > 0 && conflict.saturating_mul(5) >= sa.min(sb).saturating_mul(4) {
                        let (a, b, sets_a, sets_b) = if na <= nb {
                            (na.clone(), nb.clone(), sa, sb)
                        } else {
                            (nb.clone(), na.clone(), sb, sa)
                        };
                        pathologies.push(Pathology::SetAlias {
                            a,
                            b,
                            conflict_sets: conflict,
                            sets_a,
                            sets_b,
                        });
                    }
                }
            }
            for &(p, n) in &phases {
                if n > self.cfg.cache.num_lines() {
                    pathologies.push(Pathology::PhaseOverCapacity {
                        phase: p,
                        distinct_lines: n,
                        capacity_lines: self.cfg.cache.num_lines(),
                    });
                }
            }
        }
        pathologies.sort_by(|x, y| {
            x.code()
                .cmp(y.code())
                .then_with(|| x.message().cmp(&y.message()))
        });

        BoundsReport {
            workload: self.workload,
            cache: self.cfg.cache,
            l1: self.cfg.l1,
            limit: self.cfg.limit,
            widened,
            stats_frozen: self.stats_frozen,
            total_accesses: self.total_accesses,
            distinct_lines: self.seen.len() as u64,
            objects,
            unmapped,
            phases,
            pathologies,
        }
    }
}

/// Run the abstract interpreter over a whole program: statics first,
/// then chunked events, stopping exactly at the configured access
/// limit. This is the entry point the CLI, the bounds gates and the
/// serve fast-reject all share.
pub fn analyze_program<P: Program + ?Sized>(program: &mut P, cfg: &AnalyzeConfig) -> BoundsReport {
    let mut a = Analyzer::new(program.name().to_string(), cfg.clone());
    for d in program.static_objects() {
        a.declare_static(&d);
    }
    let mut chunk = EventChunk::with_capacity(CHUNK_CAPACITY);
    while !a.at_limit() {
        chunk.reset();
        if program.next_chunk(&mut chunk) == 0 {
            break;
        }
        a.chunk(&chunk);
    }
    a.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachescope_sim::AccessKind;

    fn cfg() -> AnalyzeConfig {
        AnalyzeConfig {
            cache: CacheConfig {
                size_bytes: 4096, // 64 lines
                line_bytes: 64,
                assoc: 4, // 16 sets
                ..CacheConfig::default()
            },
            ..AnalyzeConfig::default()
        }
    }

    fn read(addr: u64) -> MemRef {
        MemRef {
            addr,
            size: 8,
            kind: AccessKind::Read,
        }
    }

    fn analyzer_with_object(name: &str, base: u64, size: u64) -> Analyzer {
        let mut a = Analyzer::new("t", cfg());
        a.declare_static(&ObjectDecl::global(name, base, size));
        a
    }

    #[test]
    fn cold_misses_are_exact_for_a_single_stream() {
        let mut a = analyzer_with_object("arr", 0x1000, 64 * 64);
        for i in 0..64u64 {
            a.access(&read(0x1000 + i * 64));
        }
        let r = a.finish();
        let o = r.object("arr").expect("row");
        assert_eq!(o.accesses, 64);
        assert_eq!(o.cold_lines, 64);
        assert_eq!(o.min_misses, 64, "every first touch is a certain miss");
        assert_eq!(o.max_misses, 64);
        assert_eq!(o.footprint_lines, 64);
    }

    #[test]
    fn tight_reuse_is_not_a_certain_miss() {
        let mut a = analyzer_with_object("arr", 0x1000, 4096);
        // Touch one line twice back to back: distance 0 < assoc.
        a.access(&read(0x1000));
        a.access(&read(0x1000));
        let r = a.finish();
        let o = r.object("arr").expect("row");
        assert_eq!(o.min_misses, 1, "only the cold touch is certain");
        assert_eq!(o.max_misses, 2, "instrumentation could evict the line");
        assert_eq!(o.reuse_hist[0], 1, "one distance-0 reuse");
    }

    #[test]
    fn set_cycling_beyond_assoc_is_a_certain_miss_every_time() {
        // 16 sets, 4 ways: cycle 5 lines in the same set (stride =
        // 16 * 64 bytes), twice. Every revisit has distance 4 >= assoc.
        let mut a = analyzer_with_object("arr", 0x1000, 5 * 16 * 64);
        for _round in 0..2 {
            for i in 0..5u64 {
                a.access(&read(0x1000 + i * 16 * 64));
            }
        }
        let r = a.finish();
        let o = r.object("arr").expect("row");
        assert_eq!(o.cold_lines, 5);
        assert_eq!(o.min_misses, 10, "5 cold + 5 provable LRU evictions");
        assert_eq!(o.max_misses, 10);
        assert_eq!(o.sets_touched, 1);
    }

    #[test]
    fn unmapped_traffic_lands_in_the_unmapped_row() {
        let mut a = Analyzer::new("t", cfg());
        a.access(&read(0xdead_0000));
        let r = a.finish();
        assert_eq!(r.unmapped.accesses, 1);
        assert_eq!(r.unmapped.min_misses, 1);
        assert!(r.objects.is_empty());
    }

    #[test]
    fn alloc_free_churn_mirrors_engine_attribution() {
        let mut a = Analyzer::new("t", cfg());
        a.event(&Event::Alloc {
            base: 0x2000,
            size: 128,
            name: Some("buf".to_string()),
        });
        a.access(&read(0x2000));
        a.event(&Event::Free { base: 0x2000 });
        // Freed: same address is now unmapped.
        a.access(&read(0x2000));
        // Anonymous realloc at the same base pools under the hex name.
        a.event(&Event::Alloc {
            base: 0x2000,
            size: 128,
            name: None,
        });
        a.access(&read(0x2040));
        let r = a.finish();
        assert_eq!(r.object("buf").map(|o| o.accesses), Some(1));
        assert_eq!(r.object("0x2000").map(|o| o.accesses), Some(1));
        assert_eq!(r.unmapped.accesses, 1);
    }

    #[test]
    fn overlapping_alloc_is_rejected_like_the_engine() {
        let mut a = Analyzer::new("t", cfg());
        a.event(&Event::Alloc {
            base: 0x2000,
            size: 256,
            name: Some("live".to_string()),
        });
        a.event(&Event::Alloc {
            base: 0x2040,
            size: 64,
            name: Some("clash".to_string()),
        });
        a.access(&read(0x2040));
        let r = a.finish();
        assert_eq!(
            r.object("live").map(|o| o.accesses),
            Some(1),
            "contested range attributes to the prior live extent"
        );
        assert!(r.object("clash").is_none());
    }

    #[test]
    fn wrapping_and_empty_extents_are_refused_like_the_engine() {
        let mut a = Analyzer::new("t", cfg());
        a.declare_static(&ObjectDecl::global("a", 0x4000, 4096));
        // A wrap used to saturate to an extent reaching the top of the
        // address space; the engine refuses it (CS-P001).
        a.event(&Event::Alloc {
            base: 0xffff_ffff_ffff_f000,
            size: 8192,
            name: Some("wrap".to_string()),
        });
        a.event(&Event::Alloc {
            base: 0x4000,
            size: 0,
            name: Some("empty".to_string()),
        });
        a.access(&read(0xffff_ffff_ffff_f800));
        a.access(&read(0x4000));
        let r = a.finish();
        assert!(r.object("wrap").is_none());
        assert!(r.object("empty").is_none());
        assert_eq!(r.object("a").map(|o| o.accesses), Some(1));
        assert_eq!(r.unmapped.accesses, 1);
    }

    #[test]
    fn access_limit_stops_exactly() {
        let mut c = cfg();
        c.limit = AnalysisLimit::Accesses(3);
        let mut a = Analyzer::new("t", c);
        a.declare_static(&ObjectDecl::global("arr", 0x1000, 4096));
        for i in 0..10u64 {
            a.access(&read(0x1000 + i * 64));
        }
        let r = a.finish();
        assert_eq!(r.total_accesses, 3);
        assert_eq!(r.object("arr").map(|o| o.accesses), Some(3));
    }

    #[test]
    fn miss_limit_stops_at_the_provable_floor_and_widens_min() {
        let mut c = cfg();
        c.limit = AnalysisLimit::Misses(3);
        let mut a = Analyzer::new("t", c);
        a.declare_static(&ObjectDecl::global("arr", 0x1000, 4096));
        // Every access is a cold (certain) miss: the analyzer stops the
        // moment its provable miss count reaches the budget.
        for i in 0..10u64 {
            a.access(&read(0x1000 + i * 64));
        }
        let r = a.finish();
        assert_eq!(r.total_accesses, 3, "stops once 3 misses are provable");
        let o = r.object("arr").expect("row");
        assert_eq!(
            (o.min_misses, o.max_misses),
            (0, 3),
            "min widens (real run may stop earlier), max bounds the prefix"
        );
        assert!(!r.widened.is_empty());
    }

    #[test]
    fn miss_limit_not_reached_needs_no_widening() {
        let mut c = cfg();
        c.limit = AnalysisLimit::Misses(1000);
        let mut a = Analyzer::new("t", c);
        a.declare_static(&ObjectDecl::global("arr", 0x1000, 4096));
        for i in 0..10u64 {
            a.access(&read(0x1000 + i * 64));
        }
        let r = a.finish();
        let o = r.object("arr").expect("row");
        assert_eq!(
            (o.min_misses, o.max_misses),
            (10, 10),
            "the stream ended before the budget: bounds stay exact"
        );
        assert!(r.widened.is_empty());
    }

    #[test]
    fn cycle_limit_counts_compute_marks_and_certain_penalties() {
        let mut c = cfg();
        // hit=1, penalty=50: each cold miss costs a provable 51 cycles.
        c.limit = AnalysisLimit::Cycles(102);
        let mut a = Analyzer::new("t", c);
        a.declare_static(&ObjectDecl::global("arr", 0x1000, 4096));
        for i in 0..10u64 {
            a.event(&Event::Compute(0));
            a.access(&read(0x1000 + i * 64));
        }
        let r = a.finish();
        assert_eq!(r.total_accesses, 2, "floor reaches 102 on the 2nd miss");
        let o = r.object("arr").expect("row");
        assert_eq!((o.min_misses, o.max_misses), (0, 2));
    }

    #[test]
    fn access_budget_exhaustion_makes_bounds_vacuous_but_sound() {
        let mut c = cfg();
        c.limit = AnalysisLimit::Misses(u64::MAX); // never provably reached
        c.access_budget = 5;
        let mut a = Analyzer::new("t", c);
        a.declare_static(&ObjectDecl::global("arr", 0x1000, 4096));
        for _ in 0..10 {
            a.access(&read(0x1000));
        }
        let r = a.finish();
        assert_eq!(r.total_accesses, 5);
        let o = r.object("arr").expect("row");
        assert_eq!((o.min_misses, o.max_misses), (0, u64::MAX));
        assert!(
            r.widened.iter().any(|w| w.contains("access budget")),
            "{:?}",
            r.widened
        );
    }

    #[test]
    fn non_lru_policy_falls_back_to_cold_lines() {
        let mut c = cfg();
        c.cache.policy = ReplacementPolicy::PseudoRandom;
        let mut a = Analyzer::new("t", c);
        a.declare_static(&ObjectDecl::global("arr", 0x1000, 5 * 16 * 64));
        for _ in 0..2 {
            for i in 0..5u64 {
                a.access(&read(0x1000 + i * 16 * 64));
            }
        }
        let r = a.finish();
        let o = r.object("arr").expect("row");
        assert_eq!(
            o.min_misses, 5,
            "distant reuses are not provable evictions under random replacement"
        );
    }

    #[test]
    fn thrash_and_capacity_pathologies_fire() {
        // 64-line cache; stream 128 lines twice -> every access misses
        // and the phase working set is 2x capacity.
        let mut a = analyzer_with_object("huge", 0x1000, 128 * 64);
        for _ in 0..8 {
            for i in 0..128u64 {
                a.access(&read(0x1000 + i * 64));
            }
        }
        let r = a.finish();
        let codes: Vec<_> = r.pathologies.iter().map(Pathology::code).collect();
        assert!(codes.contains(&"CS-A001"), "{codes:?}");
        assert!(codes.contains(&"CS-A003"), "{codes:?}");
    }

    #[test]
    fn set_alias_pathology_fires_for_two_colliding_hot_objects() {
        // Two objects whose lines map to the same 4 sets, 3 lines each:
        // combined 6 > assoc 4 in every shared set.
        let mut a = Analyzer::new("t", cfg());
        a.declare_static(&ObjectDecl::global("a", 0x10000, 3 * 16 * 64));
        a.declare_static(&ObjectDecl::global("b", 0x20000, 3 * 16 * 64));
        for _ in 0..400 {
            for i in 0..3u64 {
                a.access(&read(0x10000 + i * 16 * 64));
                a.access(&read(0x20000 + i * 16 * 64));
            }
        }
        let r = a.finish();
        assert!(
            r.pathologies.iter().any(|p| p.code() == "CS-A002"),
            "{:?}",
            r.pathologies
        );
    }

    #[test]
    fn json_is_deterministic_and_tagged() {
        let mut a = analyzer_with_object("arr", 0x1000, 4096);
        a.access(&read(0x1000));
        let r = a.finish();
        let j = r.to_json();
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("bounds_report"));
        assert_eq!(j.get("v").and_then(Json::as_u64), Some(1));
        let again = {
            let mut a = analyzer_with_object("arr", 0x1000, 4096);
            a.access(&read(0x1000));
            a.finish().to_json()
        };
        assert_eq!(j.render(), again.render());
    }

    #[test]
    fn stats_budget_freezes_statistics_but_not_lru_bounds() {
        let mut c = cfg();
        c.line_budget = 4;
        let mut a = Analyzer::new("t", c);
        a.declare_static(&ObjectDecl::global("arr", 0x1000, 64 * 16 * 64));
        // 8 distinct lines in one set, twice: all 16 accesses are
        // certain misses even though the line map froze at 4.
        for _ in 0..2 {
            for i in 0..8u64 {
                a.access(&read(0x1000 + i * 16 * 64));
            }
        }
        let r = a.finish();
        assert!(r.stats_frozen);
        let o = r.object("arr").expect("row");
        assert_eq!(o.min_misses, 16, "bounds stay tight under LRU");
        assert!(o.cold_lines < 8, "cold statistics froze");
        assert!(
            r.pathologies.is_empty(),
            "frozen stats never fire pathologies"
        );
    }
}
