//! Construct synthetic workloads: named objects + a phased access schedule.
//!
//! A workload is a set of *targets* (global arrays, heap blocks, and
//! undeclared regions standing in for the stack and other unidentified
//! memory) plus a cyclic schedule of *phases*. Each phase plans a number
//! of line-granular accesses distributed over the targets by a
//! [`PatternGen`], with a fixed compute cost inserted per access to set
//! the application's miss rate. Targets are sized well beyond the cache so
//! that cyclically swept lines are always evicted before reuse — every
//! planned access is a capacity miss, making the per-object miss shares
//! exact by construction while still flowing through a real LRU cache.

use std::collections::HashMap;
use std::collections::VecDeque;

use cachescope_sim::rng::SmallRng;

use cachescope_sim::{AddressSpace, Event, EventChunk, MemRef, ObjectDecl, Program};

use crate::pattern::PatternGen;
use crate::LINE;

/// Base of the undeclared ("stack") region area: inside the application's
/// address space but absent from symbol tables and allocator events, like
/// the stack frames the paper's tool cannot identify (section 5).
const ANON_BASE: u64 = 0x3000_0000;

#[derive(Debug, Clone)]
enum TargetKind {
    Global,
    Heap {
        at: Option<u64>,
        named: bool,
    },
    /// Present in the address space but never declared to instrumentation.
    Anonymous,
}

/// How a target's interior is traversed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessMode {
    /// Sweep line by line, wrapping at the end: every planned access
    /// touches a fresh line (pure streaming, no temporal reuse).
    #[default]
    Stream,
    /// Touch a pseudo-random line each time: small targets develop real
    /// temporal reuse (table lookups, pointer chasing), so their planned
    /// accesses can hit in the cache — or be absorbed by an L1.
    RandomLine,
}

#[derive(Debug, Clone)]
struct TargetSpec {
    name: String,
    size: u64,
    kind: TargetKind,
    mode: AccessMode,
}

#[derive(Debug, Clone)]
enum PhasePattern {
    Stochastic {
        seed: u64,
    },
    Resonant {
        period: usize,
        stride: usize,
        class: usize,
        class_weights: Vec<(String, f64)>,
    },
}

/// One phase under construction. See [`WorkloadBuilder::phase`].
#[derive(Debug, Clone)]
pub struct PhaseBuilder {
    misses: u64,
    weights: Vec<(String, f64)>,
    compute_per_miss: u64,
    pattern: PhasePattern,
}

impl Default for PhaseBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseBuilder {
    pub fn new() -> Self {
        PhaseBuilder {
            misses: 1_000_000,
            weights: Vec::new(),
            compute_per_miss: 0,
            pattern: PhasePattern::Stochastic { seed: 0x5EED },
        }
    }

    /// Phase duration in planned misses.
    pub fn misses(mut self, n: u64) -> Self {
        // check:allow(workloads are code; an inconsistent one is an authoring bug)
        assert!(n > 0, "phase must plan at least one miss");
        self.misses = n;
        self
    }

    /// Relative miss weight of target `name` during this phase (any scale;
    /// typically the paper's percentage).
    pub fn weight(mut self, name: &str, w: f64) -> Self {
        // check:allow(workloads are code; an inconsistent one is an authoring bug)
        assert!(w >= 0.0, "negative weight for {name}");
        self.weights.push((name.to_string(), w));
        self
    }

    /// Pure-compute cycles inserted before each access; sets the
    /// application miss rate (misses/Mcycle ~= 1e6 / (compute + access)).
    pub fn compute_per_miss(mut self, cycles: u64) -> Self {
        self.compute_per_miss = cycles;
        self
    }

    /// Draw targets from a seeded weighted random mix (the default).
    pub fn stochastic(mut self, seed: u64) -> Self {
        self.pattern = PhasePattern::Stochastic { seed };
        self
    }

    /// Use a rigidly periodic sequence with a skewed residue class — see
    /// [`PatternGen::periodic_resonant`]. `class_weights` gives the
    /// distribution observed by a resonant sampler.
    pub fn resonant(
        mut self,
        period: usize,
        stride: usize,
        class: usize,
        class_weights: &[(&str, f64)],
    ) -> Self {
        self.pattern = PhasePattern::Resonant {
            period,
            stride,
            class,
            class_weights: class_weights
                .iter()
                .map(|&(n, w)| (n.to_string(), w))
                .collect(),
        };
        self
    }
}

/// Builder for a [`SpecWorkload`].
///
/// ```
/// use cachescope_workloads::{PhaseBuilder, WorkloadBuilder, MIB};
/// use cachescope_sim::{Engine, NullHandler, RunLimit, SimConfig};
///
/// let mut app = WorkloadBuilder::new("demo")
///     .global("HOT", 8 * MIB)
///     .global("COLD", 8 * MIB)
///     .phase(
///         PhaseBuilder::new()
///             .misses(10_000)
///             .weight("HOT", 90.0)
///             .weight("COLD", 10.0)
///             .compute_per_miss(10)
///             .stochastic(42),
///     )
///     .build();
///
/// let stats = Engine::new(SimConfig::default())
///     .run(&mut app, &mut NullHandler, RunLimit::AppMisses(50_000));
/// let hot = stats.objects.iter().find(|o| o.name == "HOT").unwrap();
/// let share = hot.misses as f64 / stats.app.misses as f64;
/// assert!((share - 0.9).abs() < 0.02);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    name: String,
    targets: Vec<TargetSpec>,
    by_name: HashMap<String, u16>,
    phases: Vec<PhaseBuilder>,
}

impl WorkloadBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        WorkloadBuilder {
            name: name.into(),
            targets: Vec::new(),
            by_name: HashMap::new(),
            phases: Vec::new(),
        }
    }

    fn add_target(&mut self, name: String, size: u64, kind: TargetKind) -> &mut Self {
        // check:allow(workloads are code; an inconsistent one is an authoring bug)
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate target name {name}"
        );
        // check:allow(workloads are code; an inconsistent one is an authoring bug)
        assert!(size > 0, "target {name} must have nonzero size");
        self.by_name.insert(name.clone(), self.targets.len() as u16);
        self.targets.push(TargetSpec {
            name,
            size,
            kind,
            mode: AccessMode::Stream,
        });
        self
    }

    /// Change the most recently declared target's interior traversal to
    /// pseudo-random lines (temporal reuse). Panics if no target exists.
    pub fn random_access(mut self) -> Self {
        self.targets
            .last_mut()
            // check:allow(documented: panics if no target was declared)
            .expect("random_access must follow a target declaration")
            .mode = AccessMode::RandomLine;
        self
    }

    /// Declare a global/static array.
    pub fn global(mut self, name: &str, size: u64) -> Self {
        self.add_target(name.to_string(), size, TargetKind::Global);
        self
    }

    /// Declare a named heap block (allocated at start of execution).
    pub fn heap_named(mut self, name: &str, size: u64) -> Self {
        self.add_target(
            name.to_string(),
            size,
            TargetKind::Heap {
                at: None,
                named: true,
            },
        );
        self
    }

    /// Declare an anonymous heap block at an explicit address; it is
    /// referred to by its hexadecimal address, as in the paper's tables.
    pub fn heap_at(mut self, addr: u64, size: u64) -> Self {
        self.add_target(
            format!("{addr:#x}"),
            size,
            TargetKind::Heap {
                at: Some(addr),
                named: false,
            },
        );
        self
    }

    /// Declare an undeclared region (stack frames, runtime-internal
    /// memory): its misses are real but no instrumentation can name it.
    pub fn anonymous(mut self, name: &str, size: u64) -> Self {
        self.add_target(name.to_string(), size, TargetKind::Anonymous);
        self
    }

    /// Append a phase to the cyclic schedule.
    pub fn phase(mut self, p: PhaseBuilder) -> Self {
        self.phases.push(p);
        self
    }

    /// Materialise the workload. Panics on inconsistencies (unknown names
    /// in weights, no phases, ...).
    pub fn build(self) -> SpecWorkload {
        // check:allow(workloads are code; an inconsistent one is an authoring bug)
        assert!(!self.phases.is_empty(), "workload needs at least one phase");
        // check:allow(workloads are code; an inconsistent one is an authoring bug)
        assert!(
            !self.targets.is_empty(),
            "workload needs at least one target"
        );

        // Place targets in the simulated address space.
        let mut aspace = AddressSpace::new(LINE);
        let mut anon_cursor = ANON_BASE;
        let mut bases = Vec::with_capacity(self.targets.len());
        let mut decls = Vec::new();
        let mut allocs = VecDeque::new();
        for t in &self.targets {
            let base = match &t.kind {
                TargetKind::Global => {
                    let b = aspace.alloc_static(t.size);
                    decls.push(ObjectDecl::global(t.name.clone(), b, t.size));
                    b
                }
                TargetKind::Heap { at, named } => {
                    let b = match at {
                        Some(addr) => aspace.alloc_heap_at(*addr, t.size),
                        None => aspace.alloc_heap(t.size),
                    };
                    allocs.push_back(Event::Alloc {
                        base: b,
                        size: t.size,
                        name: named.then(|| t.name.clone()),
                    });
                    b
                }
                TargetKind::Anonymous => {
                    let b = anon_cursor;
                    anon_cursor += t.size.div_ceil(LINE) * LINE + LINE;
                    // check:allow(workloads are code; an inconsistent one is an authoring bug)
                    assert!(anon_cursor < 0x1_0000_0000, "anonymous area exhausted");
                    b
                }
            };
            bases.push(base);
        }

        let lookup = |name: &str| -> u16 {
            *self
                .by_name
                .get(name)
                // check:allow(a weight naming an unknown target is a builder bug)
                .unwrap_or_else(|| panic!("weight references unknown target {name}"))
        };

        // Materialise phases.
        let mut phases = Vec::with_capacity(self.phases.len());
        let mut share_acc: Vec<f64> = vec![0.0; self.targets.len()];
        let mut total_misses = 0u64;
        for (i, p) in self.phases.iter().enumerate() {
            // check:allow(workloads are code; an inconsistent one is an authoring bug)
            assert!(!p.weights.is_empty(), "phase {i} has no weights");
            let weights: Vec<(u16, f64)> = p.weights.iter().map(|(n, w)| (lookup(n), *w)).collect();
            let wsum: f64 = weights.iter().map(|&(_, w)| w).sum();
            // check:allow(workloads are code; an inconsistent one is an authoring bug)
            assert!(wsum > 0.0, "phase {i} weights sum to zero");
            for &(idx, w) in &weights {
                share_acc[idx as usize] += w / wsum * p.misses as f64;
            }
            total_misses += p.misses;

            let gen = match &p.pattern {
                PhasePattern::Stochastic { seed } => {
                    PatternGen::stochastic(&weights, seed.wrapping_add(i as u64))
                }
                PhasePattern::Resonant {
                    period,
                    stride,
                    class,
                    class_weights,
                } => {
                    let cw: Vec<(u16, f64)> =
                        class_weights.iter().map(|(n, w)| (lookup(n), *w)).collect();
                    PatternGen::periodic_resonant(*period, *stride, *class, &weights, &cw)
                }
            };
            phases.push(Phase {
                misses: p.misses,
                compute: p.compute_per_miss,
                gen,
            });
        }

        let expected_shares = self
            .targets
            .iter()
            .enumerate()
            .map(|(i, t)| (t.name.clone(), share_acc[i] / total_misses as f64 * 100.0))
            .collect();

        SpecWorkload {
            name: self.name,
            decls,
            pending_allocs: allocs,
            cursors: self
                .targets
                .iter()
                .zip(&bases)
                .map(|(t, &b)| Cursor {
                    base: b,
                    size: t.size,
                    next: 0,
                    mode: t.mode,
                })
                .collect(),
            addr_rng: SmallRng::seed_from_u64(0xADD2),
            phases,
            phase_idx: 0,
            emitted_in_phase: 0,
            pending_access: None,
            phase_marker_due: true,
            expected_shares,
        }
    }
}

#[derive(Debug, Clone)]
struct Cursor {
    base: u64,
    size: u64,
    next: u64,
    mode: AccessMode,
}

impl Cursor {
    #[inline]
    fn next_addr(&mut self, rng: &mut SmallRng) -> u64 {
        match self.mode {
            AccessMode::Stream => {
                let a = self.base + self.next;
                self.next += LINE;
                if self.next >= self.size {
                    self.next = 0;
                }
                a
            }
            AccessMode::RandomLine => {
                let lines = (self.size / LINE).max(1);
                self.base + rng.random_range(0..lines) * LINE
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Phase {
    misses: u64,
    compute: u64,
    gen: PatternGen,
}

/// A synthetic application: an infinite, deterministic event stream with
/// engineered per-object miss shares. Use a
/// [`cachescope_sim::RunLimit`] to bound execution.
#[derive(Debug, Clone)]
pub struct SpecWorkload {
    name: String,
    decls: Vec<ObjectDecl>,
    pending_allocs: VecDeque<Event>,
    cursors: Vec<Cursor>,
    phases: Vec<Phase>,
    phase_idx: usize,
    emitted_in_phase: u64,
    pending_access: Option<u16>,
    phase_marker_due: bool,
    expected_shares: Vec<(String, f64)>,
    addr_rng: SmallRng,
}

impl SpecWorkload {
    /// The designed long-run miss share (percent) of every target,
    /// including undeclared ones — the workload's own ground truth, useful
    /// for tests and for the experiment tables' "Actual" sanity checks.
    pub fn expected_shares(&self) -> &[(String, f64)] {
        &self.expected_shares
    }

    /// The designed share of target `name`, if it exists.
    pub fn expected_share(&self, name: &str) -> Option<f64> {
        self.expected_shares
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, s)| s)
    }

    /// Total planned misses in one full cycle through all phases.
    pub fn cycle_misses(&self) -> u64 {
        self.phases.iter().map(|p| p.misses).sum()
    }

    /// Number of phases in the schedule.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// Count `n` planned slots against the current phase, which they must
    /// not overrun; at its end, move to the next phase and owe its marker.
    #[inline]
    fn advance(&mut self, n: u64) {
        self.emitted_in_phase += n;
        if self.emitted_in_phase >= self.phases[self.phase_idx].misses {
            self.emitted_in_phase = 0;
            self.phase_idx = (self.phase_idx + 1) % self.phases.len();
            self.phase_marker_due = true;
        }
    }
}

impl Program for SpecWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn static_objects(&self) -> Vec<ObjectDecl> {
        self.decls.clone()
    }

    fn next_event(&mut self) -> Option<Event> {
        if let Some(ev) = self.pending_allocs.pop_front() {
            return Some(ev);
        }
        if let Some(target) = self.pending_access.take() {
            let addr = self.cursors[target as usize].next_addr(&mut self.addr_rng);
            return Some(Event::Access(MemRef::read(addr, 8)));
        }
        if self.phase_marker_due {
            self.phase_marker_due = false;
            return Some(Event::Phase(self.phase_idx as u32));
        }

        let phase = &mut self.phases[self.phase_idx];
        let target = phase.gen.next_object();
        let compute = phase.compute;
        self.advance(1);

        if compute > 0 {
            self.pending_access = Some(target);
            Some(Event::Compute(compute))
        } else {
            let addr = self.cursors[target as usize].next_addr(&mut self.addr_rng);
            Some(Event::Access(MemRef::read(addr, 8)))
        }
    }

    // Native chunk fill in straight runs. The head of the state machine
    // (pending allocs, then the deferred access of a compute/access pair,
    // then a due phase marker) takes one slot per event, as in
    // `next_event`. Between those events the rest of the phase is a run of
    // slots that differ only in their target and address, so it is filled
    // in one loop with the phase, its compute and the cursors hoisted out,
    // and each compute/access pair fused into the chunk's dense
    // `pre_cycles` side array. In the scalar stream nothing separates a
    // `Compute` from its access and no RNG draw happens in between, so
    // emitting the pairs this way keeps the flattened chunk — and the RNG
    // call order — equal to the scalar stream bit for bit. The workload is
    // infinite, so this always fills the chunk.
    fn next_chunk(&mut self, buf: &mut EventChunk) -> usize {
        // A fused pair counts as two events; stop while two slots remain
        // so a pair never overflows the chunk's capacity.
        while buf.remaining() >= 2 {
            if let Some(ev) = self.pending_allocs.pop_front() {
                buf.push_event(ev);
                continue;
            }
            if let Some(target) = self.pending_access.take() {
                let addr = self.cursors[target as usize].next_addr(&mut self.addr_rng);
                buf.push_ref(MemRef::read(addr, 8));
                continue;
            }
            if self.phase_marker_due {
                self.phase_marker_due = false;
                buf.push_mark(Event::Phase(self.phase_idx as u32));
                continue;
            }

            let phase = &mut self.phases[self.phase_idx];
            // The slots that fit while two events of room remain, and no
            // more than the phase has left.
            let room = match phase.compute {
                0 => buf.remaining() - 1,
                _ => buf.remaining() / 2,
            };
            let left = phase.misses - self.emitted_in_phase;
            let n = usize::try_from(left).map_or(room, |left| left.min(room));
            let (gen, cursors, rng) = (&mut phase.gen, &mut self.cursors, &mut self.addr_rng);
            buf.push_compute_run(phase.compute, |refs| {
                gen.extend_run(n, refs, |target| {
                    MemRef::read(cursors[target as usize].next_addr(rng), 8)
                })
            });
            self.advance(n as u64);
        }
        if buf.is_empty() {
            // Capacity-1 chunk: emit a single scalar event so a live
            // stream never reports end-of-program.
            if let Some(e) = self.next_event() {
                buf.push_event(e);
            }
        }
        buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MIB;
    use cachescope_sim::{Engine, NullHandler, RunLimit, SimConfig};

    fn two_array_workload() -> SpecWorkload {
        WorkloadBuilder::new("toy")
            .global("A", 8 * MIB)
            .global("B", 8 * MIB)
            .phase(
                PhaseBuilder::new()
                    .misses(10_000)
                    .weight("A", 75.0)
                    .weight("B", 25.0)
                    .compute_per_miss(10)
                    .stochastic(1),
            )
            .build()
    }

    #[test]
    fn shares_match_design_under_simulation() {
        let mut w = two_array_workload();
        let mut e = Engine::new(SimConfig::default());
        let stats = e.run(&mut w, &mut NullHandler, RunLimit::AppMisses(50_000));
        let a = stats.objects.iter().find(|o| o.name == "A").unwrap();
        let b = stats.objects.iter().find(|o| o.name == "B").unwrap();
        let total = stats.app.misses as f64;
        assert!((a.misses as f64 / total - 0.75).abs() < 0.01);
        assert!((b.misses as f64 / total - 0.25).abs() < 0.01);
        assert_eq!(stats.unmapped_misses, 0);
    }

    #[test]
    fn every_planned_access_misses_for_large_arrays() {
        let mut w = two_array_workload();
        let mut e = Engine::new(SimConfig::default());
        let stats = e.run(&mut w, &mut NullHandler, RunLimit::AppMisses(300_000));
        // 8 MiB arrays vs 2 MB cache: streaming always misses.
        assert_eq!(stats.app.accesses, stats.app.misses);
    }

    #[test]
    fn miss_rate_tracks_compute_per_miss() {
        let mut w = two_array_workload();
        let mut e = Engine::new(SimConfig::default());
        let stats = e.run(&mut w, &mut NullHandler, RunLimit::AppMisses(100_000));
        // Cost per miss = 10 compute + 1 hit + 50 penalty = 61 cycles.
        let expect = 1.0e6 / 61.0;
        let got = stats.misses_per_mcycle();
        assert!((got - expect).abs() / expect < 0.01, "{got} vs {expect}");
    }

    #[test]
    fn anonymous_targets_produce_unmapped_misses() {
        let mut w = WorkloadBuilder::new("anon")
            .global("A", 8 * MIB)
            .anonymous("stack", 8 * MIB)
            .phase(
                PhaseBuilder::new()
                    .misses(1_000)
                    .weight("A", 80.0)
                    .weight("stack", 20.0)
                    .stochastic(2),
            )
            .build();
        let mut e = Engine::new(SimConfig::default());
        let stats = e.run(&mut w, &mut NullHandler, RunLimit::AppMisses(50_000));
        let total = stats.app.misses as f64;
        assert!((stats.unmapped_misses as f64 / total - 0.20).abs() < 0.01);
        assert_eq!(stats.objects.len(), 1, "stack is not declared");
    }

    #[test]
    fn heap_targets_emit_alloc_events() {
        let mut w = WorkloadBuilder::new("heapy")
            .heap_at(0x1_4102_0000, 8 * MIB)
            .heap_named("buf", 8 * MIB)
            .phase(
                PhaseBuilder::new()
                    .misses(1_000)
                    .weight("0x141020000", 60.0)
                    .weight("buf", 40.0)
                    .stochastic(3),
            )
            .build();
        let mut e = Engine::new(SimConfig::default());
        let stats = e.run(&mut w, &mut NullHandler, RunLimit::AppMisses(20_000));
        let names: Vec<&str> = stats.objects.iter().map(|o| o.name.as_str()).collect();
        assert!(names.contains(&"0x141020000"));
        assert!(names.contains(&"buf"));
        assert_eq!(stats.unmapped_misses, 0);
    }

    #[test]
    fn phases_rotate_cyclically() {
        let mut w = WorkloadBuilder::new("phased")
            .global("A", 8 * MIB)
            .global("B", 8 * MIB)
            .phase(
                PhaseBuilder::new()
                    .misses(1_000)
                    .weight("A", 100.0)
                    .stochastic(1),
            )
            .phase(
                PhaseBuilder::new()
                    .misses(3_000)
                    .weight("B", 100.0)
                    .stochastic(1),
            )
            .build();
        assert_eq!(w.cycle_misses(), 4_000);
        let mut e = Engine::new(SimConfig::default());
        // Two full cycles.
        let stats = e.run(&mut w, &mut NullHandler, RunLimit::AppMisses(8_000));
        let a = stats.objects.iter().find(|o| o.name == "A").unwrap();
        let b = stats.objects.iter().find(|o| o.name == "B").unwrap();
        assert_eq!(a.misses, 2_000);
        assert_eq!(b.misses, 6_000);
    }

    #[test]
    fn expected_shares_aggregate_over_phases() {
        let w = WorkloadBuilder::new("phased")
            .global("A", MIB)
            .global("B", MIB)
            .phase(
                PhaseBuilder::new()
                    .misses(1_000)
                    .weight("A", 1.0)
                    .stochastic(1),
            )
            .phase(
                PhaseBuilder::new()
                    .misses(3_000)
                    .weight("B", 1.0)
                    .stochastic(1),
            )
            .build();
        assert!((w.expected_share("A").unwrap() - 25.0).abs() < 1e-9);
        assert!((w.expected_share("B").unwrap() - 75.0).abs() < 1e-9);
        assert_eq!(w.expected_share("C"), None);
    }

    #[test]
    fn workload_is_deterministic() {
        let mut a = two_array_workload();
        let mut b = two_array_workload();
        for _ in 0..10_000 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }

    #[test]
    fn chunked_stream_matches_scalar_stream() {
        // Compute-interleaved workload (pending_access path) plus a heap
        // target (pending_allocs path) plus two phases (marker rollover):
        // every branch of the native next_chunk gets exercised.
        let build = || {
            WorkloadBuilder::new("chunky")
                .global("A", 8 * MIB)
                .heap_named("buf", 8 * MIB)
                .global("LUT", 64 * 1024)
                .random_access()
                .phase(
                    PhaseBuilder::new()
                        .misses(700)
                        .weight("A", 50.0)
                        .weight("LUT", 50.0)
                        .compute_per_miss(7)
                        .stochastic(11),
                )
                .phase(
                    PhaseBuilder::new()
                        .misses(300)
                        .weight("buf", 100.0)
                        .stochastic(12),
                )
                .build()
        };
        let mut scalar = build();
        let mut chunked = build();
        let mut chunk = cachescope_sim::EventChunk::with_capacity(257);
        let mut replayed = 0usize;
        while replayed < 25_000 {
            chunk.reset();
            assert!(chunked.next_chunk(&mut chunk) > 0);
            for ev in chunk.to_events() {
                assert_eq!(Some(ev), scalar.next_event());
                replayed += 1;
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown target")]
    fn unknown_weight_name_panics() {
        WorkloadBuilder::new("bad")
            .global("A", MIB)
            .phase(PhaseBuilder::new().weight("Z", 1.0))
            .build();
    }

    #[test]
    #[should_panic(expected = "duplicate target")]
    fn duplicate_target_panics() {
        let _ = WorkloadBuilder::new("bad")
            .global("A", MIB)
            .global("A", MIB);
    }
}

#[cfg(test)]
mod access_mode_tests {
    use super::*;
    use crate::MIB;
    use cachescope_sim::{Engine, NullHandler, RunLimit, SimConfig};

    fn lut_mix() -> SpecWorkload {
        WorkloadBuilder::new("lutmix")
            .global("STREAM", 8 * MIB)
            .global("LUT", 16 * 1024) // 16 KiB, fits any cache level
            .random_access()
            .phase(
                PhaseBuilder::new()
                    .misses(100_000)
                    .weight("STREAM", 70.0)
                    .weight("LUT", 30.0)
                    .compute_per_miss(5)
                    .stochastic(77),
            )
            .build()
    }

    #[test]
    fn random_access_target_develops_temporal_reuse() {
        let mut w = lut_mix();
        let mut e = Engine::new(SimConfig::default());
        let stats = e.run(&mut w, &mut NullHandler, RunLimit::AppAccesses(200_000));
        // The LUT fits in the 2 MB cache: after warmup its random-line
        // touches hit, so its *real* miss share collapses.
        let lut = stats.objects.iter().find(|o| o.name == "LUT").unwrap();
        let share = lut.misses as f64 / stats.app.misses as f64 * 100.0;
        assert!(share < 2.0, "LUT share {share:.1}% (planned 30%)");
        // And the run's overall hit ratio reflects the 30% reuse.
        let hit_ratio = 1.0 - stats.app.misses as f64 / stats.app.accesses as f64;
        assert!(hit_ratio > 0.25, "hit ratio {hit_ratio:.2}");
    }

    #[test]
    fn random_access_is_deterministic() {
        let mut a = lut_mix();
        let mut b = lut_mix();
        for _ in 0..20_000 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }

    #[test]
    #[should_panic(expected = "must follow a target declaration")]
    fn random_access_requires_a_target() {
        let _ = WorkloadBuilder::new("bad").random_access();
    }

    #[test]
    fn stream_targets_unaffected_by_mode_addition() {
        // The original streaming behaviour: all planned accesses miss.
        let mut w = WorkloadBuilder::new("s")
            .global("A", 8 * MIB)
            .phase(
                PhaseBuilder::new()
                    .misses(10_000)
                    .weight("A", 1.0)
                    .stochastic(1),
            )
            .build();
        let mut e = Engine::new(SimConfig::default());
        let stats = e.run(&mut w, &mut NullHandler, RunLimit::AppAccesses(50_000));
        assert_eq!(stats.app.accesses, stats.app.misses);
    }
}
