//! `181.mcf` analogue — minimum-cost network flow.
//!
//! The SPEC2000 member the paper's future-work section is really about:
//! an application that "makes extensive use of dynamically allocated
//! memory". The real mcf spends its time chasing pointers through a
//! network whose basket/tree nodes are allocated and freed continuously.
//!
//! This analogue keeps a pool of live heap blocks, all allocated from the
//! same site (`tree_node`), and *churns* them throughout execution: every
//! `CHURN_PERIOD` planned misses the oldest block is freed and a fresh one
//! allocated at a new address. That exercises:
//!
//! * the engine's live ground-truth tracking,
//! * every technique's `on_alloc`/`on_free` path and the red-black heap
//!   tree's rebalancing under sustained insert/delete load,
//! * the allocation-site aggregation extension (section 5): per-block
//!   sample counts are meaningless, but the `tree_node` site collectively
//!   causes ~20% of all misses.

use std::collections::VecDeque;

use cachescope_sim::rng::SmallRng;
use cachescope_sim::{AddressSpace, Event, EventChunk, MemRef, ObjectDecl, Program};

use crate::spec::Scale;
use crate::{LINE, MIB};

/// Designed long-run miss shares (the `tree_node` share is the whole
/// allocation site, spread over every live block).
pub const ACTUAL: [(&str, f64); 5] = [
    ("arcs", 55.0),
    ("tree_node (site)", 20.0),
    ("nodes", 15.0),
    ("dummy_arcs", 4.0),
    ("stack", 6.0),
];

/// Live tree-node pool size.
pub const POOL: usize = 512;

/// Bytes per tree-node block.
pub const NODE_BYTES: u64 = 8 * 1024;

/// Planned misses between churn operations (one free + one alloc) at
/// paper scale.
pub const CHURN_PERIOD: u64 = 2_000;

/// The mcf analogue: a bespoke [`Program`] with continuous heap churn
/// (~19,600 misses/Mcycle — mcf is memory-bound).
#[derive(Debug, Clone)]
pub struct Mcf {
    /// Measurement-aware allocation (the paper's section 5 allocator):
    /// tree nodes are placed in a compact fixed arena and freed slots are
    /// reused immediately, keeping the site contiguous so instrumentation
    /// can treat it as a unit.
    compact: bool,
    /// Free slot bases within the compact arena (LIFO).
    free_slots: Vec<u64>,
    /// The swept arrays in class order: arcs, nodes, dummy_arcs, stack.
    sweeps: [Sweep; 4],
    // Churning pool: live block bases, oldest first.
    live: VecDeque<u64>,
    /// Bump cursor for fresh block addresses within the churn window.
    next_block: u64,
    churn_lo: u64,
    churn_hi: u64,
    churn_period: u64,
    /// Planned slots left up to and including the next churn.
    until_churn: u64,
    rng: SmallRng,
    pending: VecDeque<Event>,
}

/// One sequentially swept array: base, size and line cursor.
#[derive(Debug, Clone)]
struct Sweep {
    base: u64,
    size: u64,
    cur: u64,
}

impl Sweep {
    #[inline]
    fn next(&mut self) -> u64 {
        let a = self.base + self.cur;
        self.cur += LINE;
        if self.cur >= self.size {
            self.cur = 0;
        }
        a
    }
}

const NODES_SIZE: u64 = 4 * MIB;
const DUMMY_SIZE: u64 = 2 * MIB;
const STACK_SIZE: u64 = 4 * MIB;
const ARCS_SIZE: u64 = 16 * MIB;

/// Where each class after the first begins: arcs, tree node, nodes,
/// dummy_arcs, stack — the cumulative shares of [`ACTUAL`].
const CLASS_AT: [f64; 4] = [0.55, 0.75, 0.90, 0.94];

/// The class that picks a live tree node; every other class sweeps.
const TREE: usize = 1;

/// The class of a uniform draw `x`: the count of thresholds at or below
/// it, with no branch to mispredict.
#[inline]
fn class(x: f64) -> usize {
    CLASS_AT.iter().filter(|&&t| t <= x).count()
}

impl Mcf {
    pub fn new(scale: Scale) -> Self {
        Self::build(scale, false)
    }

    /// mcf with the measurement-aware allocator of the paper's section 5:
    /// "replacing the standard memory allocation functions with
    /// specialized ones that arrange memory for measurement". Tree nodes
    /// live in a compact arena (pool + 8 spare slots) and freed slots are
    /// reused at once, so the `tree_node` site stays contiguous.
    pub fn with_measurement_allocator(scale: Scale) -> Self {
        Self::build(scale, true)
    }

    fn build(scale: Scale, compact: bool) -> Self {
        let mut aspace = AddressSpace::new(LINE);
        let nodes_base = aspace.alloc_static(NODES_SIZE);
        let dummy_base = aspace.alloc_static(DUMMY_SIZE);
        let stack_base = 0x3000_0000;
        let arcs_base = aspace.alloc_heap(ARCS_SIZE);
        // Standard allocator: a generous churn window — blocks cycle
        // through it and addresses are only reused long after they were
        // freed. Measurement-aware allocator: a compact arena of
        // POOL + 8 slots.
        let window_slots: u64 = if compact { POOL as u64 + 8 } else { 64 * 1024 };
        let churn_lo = aspace.alloc_heap(window_slots * NODE_BYTES);
        let churn_hi = churn_lo + window_slots * NODE_BYTES;

        let mut pending = VecDeque::new();
        pending.push_back(Event::Alloc {
            base: arcs_base,
            size: ARCS_SIZE,
            name: Some("arcs".into()),
        });
        let mut live = VecDeque::with_capacity(POOL);
        let mut next_block = churn_lo;
        for _ in 0..POOL {
            pending.push_back(Event::Alloc {
                base: next_block,
                size: NODE_BYTES,
                name: Some("tree_node".into()),
            });
            live.push_back(next_block);
            next_block += NODE_BYTES;
        }

        let free_slots: Vec<u64> = if compact {
            (POOL as u64..window_slots)
                .map(|k| churn_lo + k * NODE_BYTES)
                .rev()
                .collect()
        } else {
            Vec::new()
        };

        let churn_period = scale.misses(CHURN_PERIOD).min(CHURN_PERIOD);
        let sweep = |base, size| Sweep { base, size, cur: 0 };
        Mcf {
            compact,
            free_slots,
            sweeps: [
                sweep(arcs_base, ARCS_SIZE),
                sweep(nodes_base, NODES_SIZE),
                sweep(dummy_base, DUMMY_SIZE),
                sweep(stack_base, STACK_SIZE),
            ],
            live,
            next_block,
            churn_lo,
            churn_hi,
            churn_period,
            until_churn: churn_period,
            rng: SmallRng::seed_from_u64(0x3CF0),
            pending,
        }
    }

    fn churn(&mut self) {
        // check:allow(churn only runs once the live pool is primed)
        let old = self.live.pop_front().expect("pool never empty");
        self.pending.push_back(Event::Free { base: old });
        if self.compact {
            // Measurement-aware allocator: hand the freed slot straight
            // back out (after one spare), keeping the site compact.
            self.free_slots.insert(0, old);
            // check:allow(the arena is sized with spare slots at construction)
            let slot = self.free_slots.pop().expect("arena has spare slots");
            self.pending.push_back(Event::Alloc {
                base: slot,
                size: NODE_BYTES,
                name: Some("tree_node".into()),
            });
            self.live.push_back(slot);
            return;
        }
        if self.next_block + NODE_BYTES > self.churn_hi {
            self.next_block = self.churn_lo;
        }
        // Skip addresses still live (possible after wrap-around).
        while self.live.contains(&self.next_block) {
            self.next_block += NODE_BYTES;
            if self.next_block + NODE_BYTES > self.churn_hi {
                self.next_block = self.churn_lo;
            }
        }
        self.pending.push_back(Event::Alloc {
            base: self.next_block,
            size: NODE_BYTES,
            name: Some("tree_node".into()),
        });
        self.live.push_back(self.next_block);
        self.next_block += NODE_BYTES;
    }

    /// One planned slot, shared by `next_event` and `next_chunk`: count
    /// down to the next churn, which runs *before* this access is planned
    /// and queues its Free/Alloc behind it, then plan the access.
    #[inline]
    fn slot(&mut self) -> MemRef {
        self.until_churn -= 1;
        if self.until_churn == 0 {
            self.until_churn = self.churn_period;
            self.churn();
        }
        MemRef::read(self.plan_access(), 8)
    }

    /// The address of one planned access. Only a tree node, a random line
    /// of a random live block (pointer chasing), draws again.
    #[inline]
    fn plan_access(&mut self) -> u64 {
        let class = class(self.rng.random());
        if class == TREE {
            let block = self.live[self.rng.random_range(0..self.live.len())];
            let line = self.rng.random_range(0..NODE_BYTES / LINE);
            return block + line * LINE;
        }
        self.sweeps[class - usize::from(class > TREE)].next()
    }
}

impl Program for Mcf {
    fn name(&self) -> &str {
        "mcf"
    }

    fn static_objects(&self) -> Vec<ObjectDecl> {
        let [_, nodes, dummy, _] = &self.sweeps;
        vec![
            ObjectDecl::global("nodes", nodes.base, nodes.size),
            ObjectDecl::global("dummy_arcs", dummy.base, dummy.size),
        ]
    }

    fn next_event(&mut self) -> Option<Event> {
        if let Some(ev) = self.pending.pop_front() {
            return Some(ev);
        }
        // mcf is memory-bound: no compute between accesses.
        Some(Event::Access(self.slot()))
    }

    // Native chunk fill in straight runs: drain pending allocator events
    // one slot each, then fill a run of planned slots that ends at the
    // chunk's end or at the next churn, whichever comes first. The churn
    // slot's Free/Alloc land in `pending` and are emitted before the
    // following access — exactly the scalar interleaving. mcf never
    // terminates, so the chunk always fills.
    fn next_chunk(&mut self, buf: &mut EventChunk) -> usize {
        while !buf.is_full() {
            if let Some(ev) = self.pending.pop_front() {
                buf.push_event(ev);
                continue;
            }
            let until_churn = usize::try_from(self.until_churn).unwrap_or(usize::MAX);
            let n = buf.remaining().min(until_churn);
            buf.push_compute_run(0, |refs| refs.extend((0..n).map(|_| self.slot())));
        }
        buf.len()
    }
}

/// Build the mcf analogue.
pub fn mcf(scale: Scale) -> Mcf {
    Mcf::new(scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachescope_sim::{Engine, NullHandler, RunLimit, SimConfig};

    fn run(misses: u64) -> cachescope_sim::RunStats {
        let mut w = mcf(Scale::Test);
        let mut e = Engine::new(SimConfig::default());
        e.run(&mut w, &mut NullHandler, RunLimit::AppMisses(misses))
    }

    #[test]
    fn shares_match_design() {
        let stats = run(400_000);
        let total = stats.app.misses as f64;
        let share = |pred: &dyn Fn(&str) -> bool| -> f64 {
            stats
                .objects
                .iter()
                .filter(|o| pred(&o.name))
                .map(|o| o.misses)
                .sum::<u64>() as f64
                / total
                * 100.0
        };
        assert!((share(&|n| n == "arcs") - 55.0).abs() < 1.5);
        assert!((share(&|n| n == "tree_node") - 20.0).abs() < 1.5);
        assert!((share(&|n| n == "nodes") - 15.0).abs() < 1.5);
        assert!((share(&|n| n == "dummy_arcs") - 4.0).abs() < 1.0);
        let stack = stats.unmapped_misses as f64 / total * 100.0;
        assert!((stack - 6.0).abs() < 1.0, "stack {stack:.1}");
    }

    #[test]
    fn miss_rate_is_memory_bound() {
        let stats = run(100_000);
        // ~51 cycles per miss -> ~19,600 misses/Mcycle.
        assert!(
            (stats.misses_per_mcycle() - 19_600.0).abs() < 700.0,
            "{}",
            stats.misses_per_mcycle()
        );
    }

    #[test]
    fn churn_allocates_and_frees_continuously() {
        let stats = run(300_000);
        // Pool of 512 plus arcs, plus one alloc per churn period.
        let heap_objects = stats
            .objects
            .iter()
            .filter(|o| o.name == "tree_node")
            .count();
        assert!(
            heap_objects > POOL + 100,
            "expected churn beyond the initial pool, got {heap_objects}"
        );
    }

    #[test]
    fn deterministic() {
        let mut a = mcf(Scale::Test);
        let mut b = mcf(Scale::Test);
        for _ in 0..50_000 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }

    /// The class the five-way `if x < …` chain picked before the count.
    fn chain_class(x: f64) -> usize {
        if x < 0.55 {
            0
        } else if x < 0.75 {
            1
        } else if x < 0.90 {
            2
        } else if x < 0.94 {
            3
        } else {
            4
        }
    }

    #[test]
    fn class_count_matches_the_threshold_chain() {
        let mut rng = SmallRng::seed_from_u64(0xC1A55);
        for _ in 0..100_000 {
            let x: f64 = rng.random();
            assert_eq!(class(x), chain_class(x), "x = {x}");
        }
        for t in CLASS_AT {
            for x in [t.next_down(), t, t.next_up()] {
                assert_eq!(class(x), chain_class(x), "x = {x}");
            }
        }
    }

    #[test]
    fn churn_follows_every_churn_period_th_access() {
        // Scale::Test churns every 1,000 planned accesses, before the
        // access is planned; its Free and Alloc trail that access.
        let mut w = mcf(Scale::Test);
        let (mut accesses, mut churns) = (0u64, 0u64);
        let mut last = None;
        while churns < 5 {
            let ev = w.next_event().expect("mcf never ends");
            match &ev {
                Event::Access(_) => accesses += 1,
                Event::Free { .. } => {
                    churns += 1;
                    assert_eq!(accesses, churns * 1_000, "churn {churns}");
                    assert!(matches!(last, Some(Event::Access(_))));
                }
                Event::Alloc { .. } if accesses > 0 => {
                    assert!(matches!(last, Some(Event::Free { .. })));
                }
                _ => {}
            }
            last = Some(ev);
        }
    }

    #[test]
    fn chunked_stream_matches_scalar_stream() {
        // Long enough to cross several churn periods, so the Free/Alloc
        // interleaving around churn boundaries is covered.
        let mut scalar = mcf(Scale::Test);
        let mut chunked = mcf(Scale::Test);
        let mut chunk = EventChunk::with_capacity(333);
        let mut replayed = 0usize;
        while replayed < 60_000 {
            chunk.reset();
            assert!(chunked.next_chunk(&mut chunk) > 0);
            for ev in chunk.to_events() {
                assert_eq!(Some(ev), scalar.next_event());
                replayed += 1;
            }
        }
    }
}

#[cfg(test)]
mod compact_tests {
    use super::*;
    use cachescope_sim::{Engine, NullHandler, Program, RunLimit, SimConfig};

    #[test]
    fn compact_variant_matches_design_shares_too() {
        let mut w = Mcf::with_measurement_allocator(Scale::Test);
        let mut e = Engine::new(SimConfig::default());
        let stats = e.run(&mut w, &mut NullHandler, RunLimit::AppMisses(400_000));
        let total = stats.app.misses as f64;
        let site: u64 = stats
            .objects
            .iter()
            .filter(|o| o.name == "tree_node")
            .map(|o| o.misses)
            .sum();
        assert!((site as f64 / total * 100.0 - 20.0).abs() < 2.0);
    }

    #[test]
    fn compact_blocks_stay_within_the_arena() {
        let mut w = Mcf::with_measurement_allocator(Scale::Test);
        let arena_span = (POOL as u64 + 8) * NODE_BYTES;
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        let mut events = 0;
        while events < 500_000 {
            match w.next_event() {
                Some(Event::Alloc { base, size, name }) if name.as_deref() == Some("tree_node") => {
                    lo = lo.min(base);
                    hi = hi.max(base + size);
                }
                Some(_) => {}
                None => break,
            }
            events += 1;
        }
        assert!(
            hi - lo <= arena_span,
            "site span {} vs arena {}",
            hi - lo,
            arena_span
        );
    }

    #[test]
    fn compact_variant_is_deterministic() {
        let mut a = Mcf::with_measurement_allocator(Scale::Test);
        let mut b = Mcf::with_measurement_allocator(Scale::Test);
        for _ in 0..50_000 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }
}
