//! Generator-backed adversarial workloads ("fuzz scenarios").
//!
//! A [`Scenario`] is a small declarative description of a synthetic
//! program: a set of memory *targets* (placed as globals, heap blocks,
//! fixed-address heap blocks, or undeclared anonymous regions) and a
//! sequence of *phases* that interleave accesses to them under either a
//! seeded stochastic mix or an exactly periodic slot pattern, with
//! optional allocation/free churn. [`Scenario::generate`] composes
//! adversarial building blocks — working sets pinned just above/below
//! the cache size, conflict-miss set pileups via aliasing fixed-address
//! blocks, cache-thrash strides, phase shifts, allocation churn,
//! unattributable anonymous sprays — into a valid scenario, fully
//! determined by `(seed, budget_refs)`.
//!
//! [`FuzzWorkload`] realises a scenario as a [`Program`]: same scenario,
//! same event stream, byte for byte. Scenarios round-trip through JSON
//! ([`Scenario::to_json`] / [`Scenario::from_json`]) so minimized golden
//! reproducers can be committed and re-run verbatim.
//!
//! Everything here is deterministic; there is no wall-clock or OS
//! randomness anywhere in the pipeline.

use std::collections::VecDeque;

use cachescope_obs::json::{self, Json};
use cachescope_sim::address_space::{HEAP_BASE, INSTR_BASE};
use cachescope_sim::rng::SmallRng;
use cachescope_sim::{AddressSpace, Event, MemRef, ObjectDecl, Program};

use crate::{LINE, MIB};

/// Simulated last-level cache capacity the generator pins working sets
/// against (mirrors `CacheConfig::default`: 2 MiB, 64-byte lines,
/// 4-way LRU).
pub const CACHE_BYTES: u64 = 2 * MIB;

/// Address distance between two lines that map to the same cache set
/// (capacity / associativity for the default geometry). Blocks whose
/// bases are congruent modulo this span alias in every set they cover.
pub const SET_SPAN: u64 = CACHE_BYTES / 4;

/// Base address for *anonymous* targets: inside the static segment but
/// never declared as an object, so every miss there is unattributable.
const ANON_BASE: u64 = 0x3800_0000;

/// Upper bound on targets per scenario (keeps reports readable and the
/// minimizer's search space bounded).
pub const MAX_TARGETS: usize = 16;

/// Upper bound on total target bytes (address-space sanity).
const MAX_TOTAL_BYTES: u64 = 256 * MIB;

/// How a target is placed in the address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetKind {
    /// A global/static object (declared, attributable).
    Global,
    /// A heap block allocated at start (declared via `Alloc`).
    Heap,
    /// A heap block at a fixed address — the aliasing/conflict primitive.
    HeapAt(u64),
    /// An undeclared region: misses here are unattributable by design.
    Anon,
}

impl TargetKind {
    /// Is this kind realised with `Alloc`/`Free` events?
    pub fn is_heap(&self) -> bool {
        matches!(self, TargetKind::Heap | TargetKind::HeapAt(_))
    }
}

/// How addresses inside a target are produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessMode {
    /// Sequential line-granular walk, wrapping at the end.
    Stream,
    /// Uniform random line (seeded; reuse-heavy when the target fits in
    /// cache, thrash-heavy when it does not).
    RandomLine,
    /// Line walk advancing `lines` lines per access (cache-thrash and
    /// set-pileup strides).
    Stride { lines: u64 },
}

/// One memory target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetDef {
    pub name: String,
    pub size: u64,
    pub kind: TargetKind,
    pub mode: AccessMode,
}

/// Periodic allocation/free churn applied to one heap target: every
/// `period` slots the block is freed and immediately re-allocated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnDef {
    /// Index into `Scenario::targets`; must be a heap kind.
    pub target: usize,
    pub period: u64,
}

/// How a phase picks the target of each access slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pattern {
    /// Weighted random choice per slot (integer weights, one per
    /// target; seeded per phase).
    Mix { weights: Vec<u64> },
    /// Exactly periodic: slot `s` accesses `targets[slots[s % len]]`.
    /// The slot index resets at phase entry.
    Periodic { slots: Vec<u16> },
}

/// One phase: `refs` access slots under one pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseDef {
    /// Access slots in this phase (one access each).
    pub refs: u64,
    /// Compute cycles charged immediately before every access (0 = none).
    pub compute: u64,
    pub pattern: Pattern,
    pub churn: Option<ChurnDef>,
}

/// A complete generated workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub name: String,
    pub seed: u64,
    /// Total access slots across all phases (the phases partition it).
    pub budget_refs: u64,
    pub targets: Vec<TargetDef>,
    pub phases: Vec<PhaseDef>,
}

/// The registry name for a generated scenario.
pub fn fuzz_name(seed: u64, budget_refs: u64) -> String {
    format!("fuzz:{seed}:{budget_refs}")
}

/// Parse a `fuzz:<seed>:<budget>` registry name.
pub fn parse_fuzz_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("fuzz:")?;
    let (seed, budget) = rest.split_once(':')?;
    Some((seed.parse().ok()?, budget.parse().ok()?))
}

impl Scenario {
    /// Structural validation: everything [`FuzzWorkload::new`] and the
    /// checkers rely on. Returns the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario has an empty name".into());
        }
        if self.targets.is_empty() {
            return Err("scenario has no targets".into());
        }
        if self.targets.len() > MAX_TARGETS {
            return Err(format!(
                "scenario has {} targets (max {MAX_TARGETS})",
                self.targets.len()
            ));
        }
        if self.phases.is_empty() {
            return Err("scenario has no phases".into());
        }
        let mut total_bytes = 0u64;
        for (i, t) in self.targets.iter().enumerate() {
            if t.name.is_empty() {
                return Err(format!("target {i} has an empty name"));
            }
            if self.targets[..i].iter().any(|o| o.name == t.name) {
                return Err(format!("duplicate target name '{}'", t.name));
            }
            if t.size < LINE || t.size % LINE != 0 {
                return Err(format!(
                    "target '{}' size {} is not a positive multiple of the {LINE}-byte line",
                    t.name, t.size
                ));
            }
            total_bytes = total_bytes.saturating_add(t.size);
            if let AccessMode::Stride { lines } = t.mode {
                if lines == 0 {
                    return Err(format!("target '{}' has a zero stride", t.name));
                }
            }
            if let TargetKind::HeapAt(addr) = t.kind {
                if addr % LINE != 0 {
                    return Err(format!(
                        "target '{}' fixed address {addr:#x} is not line-aligned",
                        t.name
                    ));
                }
                if !(HEAP_BASE..INSTR_BASE).contains(&addr)
                    || addr.saturating_add(t.size) > INSTR_BASE
                {
                    return Err(format!(
                        "target '{}' extent {addr:#x}+{:#x} leaves the heap segment",
                        t.name, t.size
                    ));
                }
                for o in &self.targets[..i] {
                    if let TargetKind::HeapAt(oa) = o.kind {
                        if addr < oa.saturating_add(o.size) && oa < addr.saturating_add(t.size) {
                            return Err(format!(
                                "fixed-address targets '{}' and '{}' overlap",
                                o.name, t.name
                            ));
                        }
                    }
                }
            }
        }
        if total_bytes > MAX_TOTAL_BYTES {
            return Err(format!(
                "targets total {total_bytes} bytes (max {MAX_TOTAL_BYTES})"
            ));
        }
        let mut refs = 0u64;
        for (p, ph) in self.phases.iter().enumerate() {
            if ph.refs == 0 {
                return Err(format!("phase {p} has zero refs"));
            }
            refs = refs.saturating_add(ph.refs);
            match &ph.pattern {
                Pattern::Mix { weights } => {
                    if weights.len() != self.targets.len() {
                        return Err(format!(
                            "phase {p} mix has {} weights for {} targets",
                            weights.len(),
                            self.targets.len()
                        ));
                    }
                    if weights.iter().all(|&w| w == 0) {
                        return Err(format!("phase {p} mix weights are all zero"));
                    }
                }
                Pattern::Periodic { slots } => {
                    if slots.is_empty() {
                        return Err(format!("phase {p} periodic pattern is empty"));
                    }
                    if let Some(&s) = slots.iter().find(|&&s| s as usize >= self.targets.len()) {
                        return Err(format!(
                            "phase {p} periodic slot {s} exceeds target count {}",
                            self.targets.len()
                        ));
                    }
                }
            }
            if let Some(churn) = &ph.churn {
                if churn.period == 0 {
                    return Err(format!("phase {p} churn period is zero"));
                }
                match self.targets.get(churn.target) {
                    None => {
                        return Err(format!(
                            "phase {p} churn target {} out of range",
                            churn.target
                        ))
                    }
                    Some(t) if !t.kind.is_heap() => {
                        return Err(format!("phase {p} churns non-heap target '{}'", t.name))
                    }
                    Some(_) => {}
                }
            }
        }
        if refs != self.budget_refs {
            return Err(format!(
                "phase refs sum to {refs}, budget says {}",
                self.budget_refs
            ));
        }
        Ok(())
    }

    /// Serialize to the committed-golden JSON shape (`kind:
    /// "fuzz_scenario"`, `v: 1`). Field order is fixed so renders are
    /// byte-stable.
    pub fn to_json(&self) -> Json {
        let targets: Vec<Json> = self
            .targets
            .iter()
            .map(|t| {
                let mut fields = vec![
                    ("name", Json::str(t.name.clone())),
                    ("size", Json::Uint(t.size)),
                ];
                match &t.kind {
                    TargetKind::Global => fields.push(("kind", Json::str("global"))),
                    TargetKind::Heap => fields.push(("kind", Json::str("heap"))),
                    TargetKind::HeapAt(addr) => {
                        fields.push(("kind", Json::str("heap_at")));
                        fields.push(("addr", Json::Uint(*addr)));
                    }
                    TargetKind::Anon => fields.push(("kind", Json::str("anon"))),
                }
                match &t.mode {
                    AccessMode::Stream => fields.push(("mode", Json::str("stream"))),
                    AccessMode::RandomLine => fields.push(("mode", Json::str("random_line"))),
                    AccessMode::Stride { lines } => {
                        fields.push(("mode", Json::str("stride")));
                        fields.push(("stride_lines", Json::Uint(*lines)));
                    }
                }
                Json::obj(fields)
            })
            .collect();
        let phases: Vec<Json> = self
            .phases
            .iter()
            .map(|ph| {
                let pattern = match &ph.pattern {
                    Pattern::Mix { weights } => Json::obj(vec![(
                        "mix",
                        Json::Arr(weights.iter().map(|&w| Json::Uint(w)).collect()),
                    )]),
                    Pattern::Periodic { slots } => Json::obj(vec![(
                        "periodic",
                        Json::Arr(slots.iter().map(|&s| Json::Uint(u64::from(s))).collect()),
                    )]),
                };
                let mut fields = vec![
                    ("refs", Json::Uint(ph.refs)),
                    ("compute", Json::Uint(ph.compute)),
                    ("pattern", pattern),
                ];
                if let Some(churn) = &ph.churn {
                    fields.push((
                        "churn",
                        Json::obj(vec![
                            ("target", Json::Uint(churn.target as u64)),
                            ("period", Json::Uint(churn.period)),
                        ]),
                    ));
                }
                Json::obj(fields)
            })
            .collect();
        Json::obj(vec![
            ("kind", Json::str("fuzz_scenario")),
            ("v", Json::Uint(1)),
            ("name", Json::str(self.name.clone())),
            ("seed", Json::Uint(self.seed)),
            ("budget_refs", Json::Uint(self.budget_refs)),
            ("targets", Json::Arr(targets)),
            ("phases", Json::Arr(phases)),
        ])
    }

    /// Parse and validate a scenario from its JSON form.
    pub fn from_json(v: &Json) -> Result<Scenario, String> {
        match v.get("kind").and_then(Json::as_str) {
            Some("fuzz_scenario") => {}
            other => return Err(format!("kind is {other:?}, expected \"fuzz_scenario\"")),
        }
        match v.get("v").and_then(Json::as_u64) {
            Some(1) => {}
            other => return Err(format!("unsupported scenario version {other:?}")),
        }
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("scenario missing name")?
            .to_string();
        let seed = v
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("scenario missing seed")?;
        let budget_refs = v
            .get("budget_refs")
            .and_then(Json::as_u64)
            .ok_or("scenario missing budget_refs")?;
        let mut targets = Vec::new();
        for (i, t) in v
            .get("targets")
            .and_then(Json::as_arr)
            .ok_or("scenario missing targets array")?
            .iter()
            .enumerate()
        {
            let name = t
                .get("name")
                .and_then(Json::as_str)
                .ok_or(format!("target {i} missing name"))?
                .to_string();
            let size = t
                .get("size")
                .and_then(Json::as_u64)
                .ok_or(format!("target {i} missing size"))?;
            let kind = match t.get("kind").and_then(Json::as_str) {
                Some("global") => TargetKind::Global,
                Some("heap") => TargetKind::Heap,
                Some("heap_at") => TargetKind::HeapAt(
                    t.get("addr")
                        .and_then(Json::as_u64)
                        .ok_or(format!("target {i} heap_at missing addr"))?,
                ),
                Some("anon") => TargetKind::Anon,
                other => return Err(format!("target {i} has bad kind {other:?}")),
            };
            let mode = match t.get("mode").and_then(Json::as_str) {
                Some("stream") => AccessMode::Stream,
                Some("random_line") => AccessMode::RandomLine,
                Some("stride") => AccessMode::Stride {
                    lines: t
                        .get("stride_lines")
                        .and_then(Json::as_u64)
                        .ok_or(format!("target {i} stride missing stride_lines"))?,
                },
                other => return Err(format!("target {i} has bad mode {other:?}")),
            };
            targets.push(TargetDef {
                name,
                size,
                kind,
                mode,
            });
        }
        let mut phases = Vec::new();
        for (p, ph) in v
            .get("phases")
            .and_then(Json::as_arr)
            .ok_or("scenario missing phases array")?
            .iter()
            .enumerate()
        {
            let refs = ph
                .get("refs")
                .and_then(Json::as_u64)
                .ok_or(format!("phase {p} missing refs"))?;
            let compute = ph
                .get("compute")
                .and_then(Json::as_u64)
                .ok_or(format!("phase {p} missing compute"))?;
            let pat = ph
                .get("pattern")
                .ok_or(format!("phase {p} missing pattern"))?;
            let pattern = if let Some(mix) = pat.get("mix").and_then(Json::as_arr) {
                let weights = mix
                    .iter()
                    .map(|w| w.as_u64().ok_or(format!("phase {p} mix weight not a u64")))
                    .collect::<Result<Vec<u64>, String>>()?;
                Pattern::Mix { weights }
            } else if let Some(slots) = pat.get("periodic").and_then(Json::as_arr) {
                let slots = slots
                    .iter()
                    .map(|s| {
                        s.as_u64()
                            .filter(|&s| s <= u64::from(u16::MAX))
                            .map(|s| s as u16)
                            .ok_or(format!("phase {p} periodic slot not a small u64"))
                    })
                    .collect::<Result<Vec<u16>, String>>()?;
                Pattern::Periodic { slots }
            } else {
                return Err(format!("phase {p} pattern is neither mix nor periodic"));
            };
            let churn = match ph.get("churn") {
                None => None,
                Some(c) => Some(ChurnDef {
                    target: c
                        .get("target")
                        .and_then(Json::as_u64)
                        .ok_or(format!("phase {p} churn missing target"))?
                        as usize,
                    period: c
                        .get("period")
                        .and_then(Json::as_u64)
                        .ok_or(format!("phase {p} churn missing period"))?,
                }),
            };
            phases.push(PhaseDef {
                refs,
                compute,
                pattern,
                churn,
            });
        }
        let s = Scenario {
            name,
            seed,
            budget_refs,
            targets,
            phases,
        };
        s.validate()?;
        Ok(s)
    }

    /// Parse a scenario from JSON text.
    pub fn from_json_str(text: &str) -> Result<Scenario, String> {
        Scenario::from_json(&json::parse(text)?)
    }

    /// The budget a scenario generated for `budget_refs` runs: budgets
    /// below 1000 refs are raised to 1000 so every scenario exercises at
    /// least a few sampling intervals.
    pub fn budget_for(budget_refs: u64) -> u64 {
        budget_refs.max(1_000)
    }

    /// Compose a valid adversarial scenario, fully determined by
    /// `(seed, budget_refs)`, whose budget is
    /// [`Scenario::budget_for`]`(budget_refs)`.
    pub fn generate(seed: u64, budget_refs: u64) -> Scenario {
        let budget = Scenario::budget_for(budget_refs);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xF0CC_5EED_0000_0001);
        let mut targets: Vec<TargetDef> = Vec::new();
        // Fixed-address pileups carve disjoint 8 MiB arenas so several
        // pileup blocks in one scenario can never overlap.
        let mut pile_arena = HEAP_BASE + 32 * MIB;

        let n_blocks = rng.random_range(2u64..=4) as usize;
        for _ in 0..n_blocks {
            if targets.len() + 1 > MAX_TARGETS {
                break;
            }
            let i = targets.len();
            match rng.random_range(0u64..6) {
                // Big streaming array: working set several times the
                // cache, every fresh line a capacity miss.
                0 => targets.push(TargetDef {
                    name: format!("stream{i}"),
                    size: (4 + rng.random_range(0u64..13)) * MIB,
                    kind: TargetKind::Global,
                    mode: AccessMode::Stream,
                }),
                // Working set pinned a few lines above or below the
                // cache capacity — the boundary the techniques must
                // resolve.
                1 => {
                    let delta = rng.random_range(1u64..=8) * LINE;
                    let size = if rng.random_range(0u64..2) == 0 {
                        CACHE_BYTES + delta
                    } else {
                        CACHE_BYTES - delta
                    };
                    let mode = if rng.random_range(0u64..2) == 0 {
                        AccessMode::Stream
                    } else {
                        AccessMode::RandomLine
                    };
                    targets.push(TargetDef {
                        name: format!("edge{i}"),
                        size,
                        kind: TargetKind::Global,
                        mode,
                    });
                }
                // Conflict pileup: more aliasing fixed-address blocks
                // than cache ways, so a tiny working set still conflict-
                // misses.
                2 => {
                    let k = (rng.random_range(5u64..=6) as usize).min(MAX_TARGETS - targets.len());
                    let size = rng.random_range(1u64..=8) * 4096;
                    for j in 0..k {
                        targets.push(TargetDef {
                            name: format!("pile{i}_{j}"),
                            size,
                            kind: TargetKind::HeapAt(pile_arena + j as u64 * SET_SPAN),
                            mode: AccessMode::Stream,
                        });
                    }
                    pile_arena += 8 * MIB;
                }
                // Small lookup table: fits in cache, mostly hits — keeps
                // the actual ranking from being a single-object triviality.
                3 => targets.push(TargetDef {
                    name: format!("lut{i}"),
                    size: (4 + rng.random_range(0u64..61)) * 1024,
                    kind: TargetKind::Global,
                    mode: AccessMode::RandomLine,
                }),
                // Churnable heap buffer (phase generation may free/realloc
                // it periodically).
                4 => targets.push(TargetDef {
                    name: format!("buf{i}"),
                    size: rng.random_range(4u64..=16) * 64 * 1024,
                    kind: TargetKind::Heap,
                    mode: AccessMode::Stream,
                }),
                // Anonymous spray: undeclared memory, unattributable
                // misses by design.
                _ => targets.push(TargetDef {
                    name: format!("anon{i}"),
                    size: (1 + rng.random_range(0u64..8)) * 64 * 1024,
                    kind: TargetKind::Anon,
                    mode: AccessMode::RandomLine,
                }),
            }
        }
        // Rankings need at least two contenders.
        while targets.len() < 2 {
            let i = targets.len();
            targets.push(TargetDef {
                name: format!("stream{i}"),
                size: 8 * MIB,
                kind: TargetKind::Global,
                mode: AccessMode::Stream,
            });
        }
        // Occasionally thrash a streaming target with a large stride.
        if rng.random_range(0u64..3) == 0 {
            let stride = [3u64, 7, 9, 17][rng.random_range(0usize..4)];
            if let Some(t) = targets
                .iter_mut()
                .find(|t| t.mode == AccessMode::Stream && t.size >= MIB)
            {
                t.mode = AccessMode::Stride { lines: stride };
            }
        }

        let heap_targets: Vec<usize> = targets
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind.is_heap())
            .map(|(i, _)| i)
            .collect();
        let n_phases = rng.random_range(1u64..=3) as usize;
        let per = budget / n_phases as u64;
        let mut phases = Vec::new();
        for p in 0..n_phases {
            let refs = if p + 1 == n_phases {
                budget - per * (n_phases as u64 - 1)
            } else {
                per
            };
            let pattern = if rng.random_range(0u64..2) == 0 {
                let mut weights: Vec<u64> = (0..targets.len())
                    .map(|_| rng.random_range(0u64..=8))
                    .collect();
                if weights.iter().all(|&w| w == 0) {
                    weights[0] = 1;
                }
                Pattern::Mix { weights }
            } else {
                // Periods that divide the canonical 320-miss sampling
                // period are deliberately over-represented: resonance is
                // the classic sampling failure mode.
                let period = [8usize, 16, 20, 32, 40, 64][rng.random_range(0usize..6)];
                let slots = (0..period)
                    .map(|_| rng.random_range(0usize..targets.len()) as u16)
                    .collect();
                Pattern::Periodic { slots }
            };
            let compute = if rng.random_range(0u64..2) == 0 {
                rng.random_range(1u64..=6)
            } else {
                0
            };
            let churn = if !heap_targets.is_empty() && rng.random_range(0u64..3) == 0 {
                Some(ChurnDef {
                    target: heap_targets[rng.random_range(0usize..heap_targets.len())],
                    period: rng.random_range(64u64..=2048),
                })
            } else {
                None
            };
            phases.push(PhaseDef {
                refs,
                compute,
                pattern,
                churn,
            });
        }

        Scenario {
            name: fuzz_name(seed, budget_refs),
            seed,
            budget_refs: budget,
            targets,
            phases,
        }
    }
}

/// Where a target landed in the address space.
#[derive(Debug, Clone, Copy)]
struct Placement {
    base: u64,
}

/// A [`Scenario`] realised as a deterministic [`Program`].
pub struct FuzzWorkload {
    scenario: Scenario,
    statics: Vec<ObjectDecl>,
    places: Vec<Placement>,
    queue: VecDeque<Event>,
    /// Per-target byte cursor (Stream/Stride modes).
    cursors: Vec<u64>,
    addr_rng: SmallRng,
    mix_rng: SmallRng,
    phase: usize,
    slot: u64,
    started: bool,
    finished: bool,
}

impl FuzzWorkload {
    /// Validate and place the scenario. All address-space placement is
    /// two-pass (fixed addresses first) so cursor allocations can never
    /// collide with a `HeapAt` block.
    pub fn new(scenario: Scenario) -> Result<FuzzWorkload, String> {
        scenario.validate()?;
        let mut aspace = AddressSpace::new(LINE);
        let mut places = vec![Placement { base: 0 }; scenario.targets.len()];
        for (i, t) in scenario.targets.iter().enumerate() {
            if let TargetKind::HeapAt(addr) = t.kind {
                places[i].base = aspace.alloc_heap_at(addr, t.size);
            }
        }
        let mut anon_cursor = ANON_BASE;
        for (i, t) in scenario.targets.iter().enumerate() {
            match t.kind {
                TargetKind::HeapAt(_) => {}
                TargetKind::Global => places[i].base = aspace.alloc_static(t.size),
                TargetKind::Heap => places[i].base = aspace.alloc_heap(t.size),
                TargetKind::Anon => {
                    places[i].base = anon_cursor;
                    anon_cursor += t.size;
                }
            }
        }
        let statics = scenario
            .targets
            .iter()
            .zip(&places)
            .filter(|(t, _)| t.kind == TargetKind::Global)
            .map(|(t, p)| ObjectDecl::global(t.name.clone(), p.base, t.size))
            .collect();
        let seed = scenario.seed;
        let mut w = FuzzWorkload {
            cursors: vec![0; scenario.targets.len()],
            scenario,
            statics,
            places,
            queue: VecDeque::new(),
            addr_rng: SmallRng::seed_from_u64(seed ^ 0xADD2),
            mix_rng: SmallRng::seed_from_u64(0),
            phase: 0,
            slot: 0,
            started: false,
            finished: false,
        };
        w.mix_rng = w.phase_rng(0);
        Ok(w)
    }

    /// The scenario this workload realises.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    fn phase_rng(&self, phase: usize) -> SmallRng {
        SmallRng::seed_from_u64(
            self.scenario
                .seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(phase as u64 + 1)),
        )
    }

    fn enqueue_alloc(&mut self, t: usize) {
        let def = &self.scenario.targets[t];
        self.queue.push_back(Event::Alloc {
            base: self.places[t].base,
            size: def.size,
            name: Some(def.name.clone()),
        });
    }

    /// Phase-0 marker plus initial allocations for every heap target.
    fn enqueue_prologue(&mut self) {
        self.queue.push_back(Event::Phase(0));
        for t in 0..self.scenario.targets.len() {
            if self.scenario.targets[t].kind.is_heap() {
                self.enqueue_alloc(t);
            }
        }
    }

    /// Final frees so a completed stream leaks nothing (CS-W004-clean).
    fn enqueue_epilogue(&mut self) {
        for t in 0..self.scenario.targets.len() {
            if self.scenario.targets[t].kind.is_heap() {
                self.queue.push_back(Event::Free {
                    base: self.places[t].base,
                });
            }
        }
    }

    fn next_addr(&mut self, t: usize) -> u64 {
        let def = &self.scenario.targets[t];
        let base = self.places[t].base;
        match def.mode {
            AccessMode::Stream => {
                let a = base + self.cursors[t] % def.size;
                self.cursors[t] = self.cursors[t].wrapping_add(LINE);
                a
            }
            AccessMode::Stride { lines } => {
                let a = base + self.cursors[t] % def.size;
                self.cursors[t] = self.cursors[t].wrapping_add(LINE * lines);
                a
            }
            AccessMode::RandomLine => {
                let nlines = def.size / LINE;
                base + self.addr_rng.random_range(0..nlines) * LINE
            }
        }
    }

    /// Plan one access slot of the current phase into the queue.
    fn plan_slot(&mut self) {
        let p = self.phase;
        let s = self.slot;
        if let Some(churn) = self.scenario.phases[p].churn.clone() {
            if s > 0 && s.is_multiple_of(churn.period) {
                self.queue.push_back(Event::Free {
                    base: self.places[churn.target].base,
                });
                self.enqueue_alloc(churn.target);
            }
        }
        let t = match &self.scenario.phases[p].pattern {
            Pattern::Mix { weights } => {
                let total: u64 = weights.iter().sum();
                let mut r = self.mix_rng.random_range(0..total.max(1));
                let mut pick = weights.len() - 1;
                for (i, &w) in weights.iter().enumerate() {
                    if r < w {
                        pick = i;
                        break;
                    }
                    r -= w;
                }
                pick
            }
            Pattern::Periodic { slots } => slots[(s % slots.len() as u64) as usize] as usize,
        };
        let compute = self.scenario.phases[p].compute;
        if compute > 0 {
            self.queue.push_back(Event::Compute(compute));
        }
        let addr = self.next_addr(t);
        self.queue.push_back(Event::Access(MemRef::read(addr, 8)));
        self.slot += 1;
    }
}

impl Program for FuzzWorkload {
    fn name(&self) -> &str {
        &self.scenario.name
    }

    fn static_objects(&self) -> Vec<ObjectDecl> {
        self.statics.clone()
    }

    fn next_event(&mut self) -> Option<Event> {
        loop {
            if let Some(ev) = self.queue.pop_front() {
                return Some(ev);
            }
            if self.finished {
                return None;
            }
            if !self.started {
                self.started = true;
                self.enqueue_prologue();
                continue;
            }
            while self.phase < self.scenario.phases.len()
                && self.slot >= self.scenario.phases[self.phase].refs
            {
                self.phase += 1;
                self.slot = 0;
                if self.phase < self.scenario.phases.len() {
                    self.queue.push_back(Event::Phase(self.phase as u32));
                    self.mix_rng = self.phase_rng(self.phase);
                }
            }
            if self.phase >= self.scenario.phases.len() {
                self.finished = true;
                self.enqueue_epilogue();
                continue;
            }
            self.plan_slot();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut FuzzWorkload) -> Vec<Event> {
        let mut out = Vec::new();
        while let Some(ev) = w.next_event() {
            out.push(ev);
        }
        out
    }

    fn small() -> Scenario {
        Scenario {
            name: "t".into(),
            seed: 7,
            budget_refs: 100,
            targets: vec![
                TargetDef {
                    name: "a".into(),
                    size: 4 * MIB,
                    kind: TargetKind::Global,
                    mode: AccessMode::Stream,
                },
                TargetDef {
                    name: "h".into(),
                    size: 64 * 1024,
                    kind: TargetKind::Heap,
                    mode: AccessMode::RandomLine,
                },
            ],
            phases: vec![PhaseDef {
                refs: 100,
                compute: 2,
                pattern: Pattern::Mix {
                    weights: vec![3, 1],
                },
                churn: Some(ChurnDef {
                    target: 1,
                    period: 25,
                }),
            }],
        }
    }

    #[test]
    fn generate_is_deterministic_and_valid() {
        for seed in 0..20 {
            let a = Scenario::generate(seed, 50_000);
            let b = Scenario::generate(seed, 50_000);
            assert_eq!(a, b);
            a.validate().expect("generated scenario validates");
            assert_eq!(a.to_json().render(), b.to_json().render());
        }
    }

    #[test]
    fn json_round_trips() {
        let s = Scenario::generate(42, 10_000);
        let text = s.to_json().render();
        let back = Scenario::from_json_str(&text).expect("parses");
        assert_eq!(s, back);
        assert_eq!(back.to_json().render(), text);
    }

    #[test]
    fn workload_stream_is_deterministic_and_budgeted() {
        let mut w1 = FuzzWorkload::new(small()).expect("valid");
        let mut w2 = FuzzWorkload::new(small()).expect("valid");
        let e1 = drain(&mut w1);
        let e2 = drain(&mut w2);
        assert_eq!(e1, e2);
        let accesses = e1.iter().filter(|e| matches!(e, Event::Access(_))).count();
        assert_eq!(accesses, 100);
        // Churn at slots 25/50/75 → 3 free/realloc pairs + initial
        // alloc + final free.
        let allocs = e1
            .iter()
            .filter(|e| matches!(e, Event::Alloc { .. }))
            .count();
        let frees = e1
            .iter()
            .filter(|e| matches!(e, Event::Free { .. }))
            .count();
        assert_eq!(allocs, 4);
        assert_eq!(frees, 4);
        assert!(matches!(e1[0], Event::Phase(0)));
        assert!(matches!(e1.last(), Some(Event::Free { .. })));
    }

    #[test]
    fn validate_rejects_structural_breakage() {
        let mut s = small();
        s.phases[0].refs = 99;
        assert!(s.validate().is_err(), "refs/budget mismatch");

        let mut s = small();
        s.phases[0].pattern = Pattern::Periodic { slots: vec![2] };
        assert!(s.validate().is_err(), "slot out of range");

        let mut s = small();
        s.phases[0].pattern = Pattern::Mix { weights: vec![1] };
        assert!(s.validate().is_err(), "weight arity");

        let mut s = small();
        s.phases[0].churn = Some(ChurnDef {
            target: 0,
            period: 10,
        });
        assert!(s.validate().is_err(), "churn on a global");

        let mut s = small();
        s.targets.push(TargetDef {
            name: "p1".into(),
            size: 128 * 1024,
            kind: TargetKind::HeapAt(HEAP_BASE + 32 * MIB),
            mode: AccessMode::Stream,
        });
        s.targets.push(TargetDef {
            name: "p2".into(),
            size: 128 * 1024,
            kind: TargetKind::HeapAt(HEAP_BASE + 32 * MIB + 64 * 1024),
            mode: AccessMode::Stream,
        });
        s.phases[0].pattern = Pattern::Mix {
            weights: vec![1, 1, 1, 1],
        };
        assert!(s.validate().is_err(), "overlapping heap_at extents");
    }

    #[test]
    fn fuzz_names_round_trip() {
        assert_eq!(parse_fuzz_name(&fuzz_name(17, 40_000)), Some((17, 40_000)));
        assert_eq!(parse_fuzz_name("fuzz:1:2:3"), None);
        assert_eq!(parse_fuzz_name("mgrid"), None);
        assert_eq!(parse_fuzz_name("fuzz:x:1"), None);
    }
}
