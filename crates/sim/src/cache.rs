//! Single-level set-associative cache with true-LRU replacement.
//!
//! This is the cache the paper simulates: single level, set associative,
//! 2 MB in their experiments. Replacement is exact LRU: each set keeps
//! its lines in recency order, so the order is the replacement state.
//! The model is tag-only: no data is stored, and writes allocate like reads.

use crate::config::{CacheConfig, ReplacementPolicy};
use crate::memref::{AccessKind, MemRef};
use crate::Addr;

/// Result of applying one reference to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Did the reference hit in the cache?
    pub hit: bool,
    /// If a valid line was evicted to make room, the base address of the
    /// evicted line.
    pub evicted: Option<Addr>,
    /// The evicted line was dirty (a write-back occurred).
    pub wrote_back: bool,
}

/// The outcome of every hit.
const HIT: AccessOutcome = AccessOutcome {
    hit: true,
    evicted: None,
    wrote_back: false,
};

/// Tag-word flag: the way holds a valid line.
const VALID: u64 = 1 << 63;
/// Tag-word flag: the line has been written since allocation.
const DIRTY: u64 = 1 << 62;
const FLAGS: u64 = VALID | DIRTY;

/// A set-associative cache with LRU replacement.
///
/// Each set is `assoc` consecutive tag words, and their order is the
/// replacement state. Under [`ReplacementPolicy::Lru`] way 0 is the most
/// recently used line and the last way the least; under
/// [`ReplacementPolicy::Fifo`] way 0 is the newest insert. Under
/// [`ReplacementPolicy::PseudoRandom`] ways stay where they were filled.
/// Only [`SetAssocCache::flush`] invalidates a line, so a set's invalid
/// ways are always its tail.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// Per-way tag words: bit 63 = valid, bit 62 = dirty, low bits = tag.
    tags: Vec<u64>,
    set_count: u64,
    set_shift: u32,
    set_mask: u64,
    assoc: usize,
    /// Xorshift state for the pseudo-random policy.
    prng: u64,
    accesses: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Build an empty cache with the given geometry. Panics if the
    /// configuration is invalid (see [`CacheConfig::validate`]).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        let set_count = cfg.num_sets();
        let assoc = cfg.assoc as usize;
        SetAssocCache {
            set_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: set_count - 1,
            tags: vec![0; (set_count as usize) * assoc],
            set_count,
            assoc,
            cfg,
            prng: 0x9E37_79B9_7F4A_7C15,
            accesses: 0,
            misses: 0,
        }
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Total references applied so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The line-base address containing `addr`.
    #[inline]
    pub fn line_base(&self, addr: Addr) -> Addr {
        addr & !((self.cfg.line_bytes as u64) - 1)
    }

    #[inline]
    fn set_of(&self, addr: Addr) -> usize {
        (((addr >> self.set_shift) & self.set_mask) as usize) * self.assoc
    }

    #[inline]
    fn tag_of(&self, addr: Addr) -> u64 {
        addr >> self.set_shift
    }

    /// Apply one memory reference; returns hit/miss and any eviction.
    /// `inline(always)`: see [`crate::Engine`]'s `hierarchy_access` — the
    /// engine's per-reference chain must collapse into its loops.
    #[inline(always)]
    pub fn access(&mut self, r: MemRef) -> AccessOutcome {
        self.accesses += 1;
        let tag = self.tag_of(r.addr);
        debug_assert!(tag & FLAGS == 0, "address too high for packed tags");
        let base = self.set_of(r.addr);
        let want = tag | VALID;
        let dirty = if r.kind == AccessKind::Write {
            DIRTY
        } else {
            0
        };

        // Tags match with the dirty bit masked off. Way 0 holds the most
        // recent line (LRU) or the newest (FIFO), so a hit on it is one
        // compare and moves nothing.
        let (front, rest) = self.tags[base..base + self.assoc].split_at_mut(1);
        if front[0] & !DIRTY == want {
            front[0] |= dirty;
            return HIT;
        }
        let old = if self.cfg.policy == ReplacementPolicy::Lru {
            // One pass moves each way back one place while it looks for
            // the tag. A hit at way i goes to the front, with ways 0..i
            // behind it; after a miss the whole set has moved back and
            // `carry` is the old last way, which falls off.
            let mut carry = front[0];
            for way in rest {
                let t = std::mem::replace(way, carry);
                if t & !DIRTY == want {
                    front[0] = t | dirty;
                    return HIT;
                }
                carry = t;
            }
            front[0] = want | dirty;
            carry
        } else if let Some(way) = rest.iter_mut().find(|t| **t & !DIRTY == want) {
            // FIFO and pseudo-random hits leave the order alone.
            *way |= dirty;
            return HIT;
        } else {
            let set = &mut self.tags[base..base + self.assoc];
            let victim = if self.cfg.policy == ReplacementPolicy::Fifo {
                // The oldest insert (or an invalid way) comes to the front.
                set.rotate_right(1);
                0
            } else if let Some(invalid) = set.iter().position(|&t| t & VALID == 0) {
                invalid
            } else {
                self.prng ^= self.prng << 13;
                self.prng ^= self.prng >> 7;
                self.prng ^= self.prng << 17;
                (self.prng % self.assoc as u64) as usize
            };
            std::mem::replace(&mut set[victim], want | dirty)
        };

        self.misses += 1;
        AccessOutcome {
            hit: false,
            evicted: (old & VALID != 0).then(|| (old & !FLAGS) << self.set_shift),
            wrote_back: old & FLAGS == FLAGS,
        }
    }

    /// Is the line containing `addr` currently resident? (Does not count as
    /// an access and does not update LRU state.)
    pub fn contains(&self, addr: Addr) -> bool {
        let want = self.tag_of(addr) | VALID;
        let base = self.set_of(addr);
        self.tags[base..base + self.assoc]
            .iter()
            .any(|&t| t & !DIRTY == want)
    }

    /// Invalidate the whole cache and reset statistics.
    pub fn flush(&mut self) {
        self.tags.fill(0);
        self.prng = 0x9E37_79B9_7F4A_7C15;
        self.accesses = 0;
        self.misses = 0;
    }

    /// Number of currently valid lines (occupancy).
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t & VALID != 0).count()
    }

    /// Number of sets in the cache.
    pub fn num_sets(&self) -> u64 {
        self.set_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memref::MemRef;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            assoc: 2,
            hit_cycles: 1,
            miss_penalty: 50,
            writeback_penalty: 0,
            policy: Default::default(),
        })
    }

    fn rd(addr: u64) -> MemRef {
        MemRef::read(addr, 8)
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(rd(0)).hit);
        assert!(c.access(rd(8)).hit, "same line, different offset");
        assert_eq!(c.misses(), 1);
        assert_eq!(c.accesses(), 2);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        // 4 sets: addresses 0, 64, 128, 192 map to sets 0..3.
        for a in [0u64, 64, 128, 192] {
            assert!(!c.access(rd(a)).hit);
        }
        for a in [0u64, 64, 128, 192] {
            assert!(c.access(rd(a)).hit);
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines with addresses = k * 4 * 64 (4 sets).
        let line = |k: u64| k * 4 * 64;
        c.access(rd(line(0)));
        c.access(rd(line(1))); // set 0 now holds lines 0 and 1 (2-way)
        c.access(rd(line(0))); // touch 0, making 1 the LRU
        let out = c.access(rd(line(2))); // must evict line 1
        assert_eq!(out.evicted, Some(line(1)));
        assert!(c.contains(line(0)));
        assert!(!c.contains(line(1)));
        assert!(c.contains(line(2)));
    }

    #[test]
    fn eviction_reports_line_base_address() {
        let mut c = tiny();
        let line = |k: u64| k * 4 * 64;
        c.access(rd(line(0) + 24)); // interior offset
        c.access(rd(line(1)));
        let out = c.access(rd(line(2)));
        assert_eq!(
            out.evicted,
            Some(line(0)),
            "evicted address is line-aligned"
        );
    }

    #[test]
    fn invalid_ways_fill_before_eviction() {
        let mut c = tiny();
        let line = |k: u64| k * 4 * 64;
        assert_eq!(c.access(rd(line(0))).evicted, None);
        assert_eq!(c.access(rd(line(1))).evicted, None);
        assert!(c.access(rd(line(2))).evicted.is_some());
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        c.access(rd(0));
        assert_eq!(c.valid_lines(), 1);
        c.flush();
        assert_eq!(c.valid_lines(), 0);
        assert_eq!(c.accesses(), 0);
        assert!(!c.access(rd(0)).hit);
    }

    #[test]
    fn streaming_larger_than_cache_always_misses_on_revisit() {
        let mut c = tiny(); // 512 B cache
        let lines = 32; // 2 KiB working set, 4x capacity
        for pass in 0..3 {
            for k in 0..lines {
                let out = c.access(rd(k * 64));
                assert!(!out.hit, "pass {pass}, line {k} should miss (capacity)");
            }
        }
        assert_eq!(c.misses(), 3 * lines);
    }

    #[test]
    fn working_set_within_capacity_hits_after_warmup() {
        let mut c = tiny();
        let lines = 8; // exactly capacity (4 sets x 2 ways)
        for k in 0..lines {
            c.access(rd(k * 64));
        }
        for k in 0..lines {
            assert!(c.access(rd(k * 64)).hit, "line {k} resident");
        }
    }

    #[test]
    fn line_base_masks_offset() {
        let c = tiny();
        assert_eq!(c.line_base(0), 0);
        assert_eq!(c.line_base(63), 0);
        assert_eq!(c.line_base(64), 64);
        assert_eq!(c.line_base(130), 128);
    }

    #[test]
    fn writes_allocate_like_reads() {
        let mut c = tiny();
        assert!(!c.access(MemRef::write(0, 8)).hit);
        assert!(c.access(rd(0)).hit);
    }

    #[test]
    fn hits_never_evict() {
        let mut c = tiny();
        c.access(rd(0));
        let out = c.access(rd(8));
        assert!(out.hit);
        assert_eq!(out.evicted, None);
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = SetAssocCache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            assoc: 1,
            hit_cycles: 1,
            miss_penalty: 50,
            writeback_penalty: 0,
            policy: Default::default(),
        });
        // 4 sets, direct-mapped: addresses 0 and 256 collide in set 0.
        c.access(rd(0));
        let out = c.access(rd(256));
        assert!(!out.hit);
        assert_eq!(out.evicted, Some(0));
        assert!(!c.contains(0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::memref::MemRef;
    use crate::rng::SmallRng;

    /// Naive reference: per-set vectors in LRU order (front = MRU).
    struct RefCache {
        sets: Vec<Vec<u64>>, // tags, most recent first
        assoc: usize,
        line: u64,
        set_count: u64,
    }

    impl RefCache {
        fn new(cfg: &CacheConfig) -> Self {
            RefCache {
                sets: vec![Vec::new(); cfg.num_sets() as usize],
                assoc: cfg.assoc as usize,
                line: cfg.line_bytes as u64,
                set_count: cfg.num_sets(),
            }
        }

        fn access(&mut self, addr: u64) -> (bool, Option<u64>) {
            let tag = addr / self.line;
            let set = &mut self.sets[(tag % self.set_count) as usize];
            if let Some(pos) = set.iter().position(|&t| t == tag) {
                let t = set.remove(pos);
                set.insert(0, t);
                (true, None)
            } else {
                set.insert(0, tag);
                let evicted = if set.len() > self.assoc {
                    Some(set.pop().unwrap() * self.line)
                } else {
                    None
                };
                (false, evicted)
            }
        }
    }

    // Seeded randomized replays against the reference model (formerly
    // property-based; deterministic so results never flake).
    #[test]
    fn matches_reference_lru_model() {
        let mut rng = SmallRng::seed_from_u64(0xCAC4E);
        for case in 0..48 {
            let assoc = [1u32, 2, 4][case % 3];
            let cfg = CacheConfig {
                size_bytes: 2048,
                line_bytes: 64,
                assoc,
                hit_cycles: 1,
                miss_penalty: 10,
                writeback_penalty: 0,
                policy: Default::default(),
            };
            let n = rng.random_range(1usize..600);
            let accesses: Vec<u64> = (0..n).map(|_| rng.random_range(0u64..4096)).collect();
            let mut cache = SetAssocCache::new(cfg.clone());
            let mut reference = RefCache::new(&cfg);
            for &a in &accesses {
                let got = cache.access(MemRef::read(a, 1));
                let (hit, evicted) = reference.access(a);
                assert_eq!(got.hit, hit, "case {case} address {a}");
                assert_eq!(got.evicted, evicted, "case {case} address {a}");
            }
            // Aggregate counters agree with the replay.
            assert_eq!(cache.accesses(), accesses.len() as u64);
        }
    }

    #[test]
    fn contains_is_consistent_with_access() {
        let mut rng = SmallRng::seed_from_u64(0xC0174);
        for case in 0..48 {
            let mut cache = SetAssocCache::new(CacheConfig {
                size_bytes: 1024,
                line_bytes: 64,
                assoc: 2,
                hit_cycles: 1,
                miss_penalty: 10,
                writeback_penalty: 0,
                policy: Default::default(),
            });
            let n = rng.random_range(1usize..200);
            for _ in 0..n {
                let a = rng.random_range(0u64..2048);
                cache.access(MemRef::read(a, 1));
                // Just-accessed line must be resident.
                assert!(cache.contains(a), "case {case} address {a}");
            }
            // contains() predicts the next access's hit/miss.
            for probe in (0..2048u64).step_by(64) {
                let resident = cache.contains(probe);
                let out = cache.access(MemRef::read(probe, 1));
                assert_eq!(out.hit, resident, "case {case} probe {probe}");
            }
        }
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::config::ReplacementPolicy;
    use crate::memref::MemRef;

    fn tiny_with(policy: ReplacementPolicy) -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            assoc: 2,
            hit_cycles: 1,
            miss_penalty: 50,
            writeback_penalty: 0,
            policy,
        })
    }

    fn rd(addr: u64) -> MemRef {
        MemRef::read(addr, 8)
    }

    /// Lines mapping to set 0 of the 4-set cache.
    fn line(k: u64) -> u64 {
        k * 4 * 64
    }

    #[test]
    fn fifo_does_not_refresh_on_hit() {
        let mut c = tiny_with(ReplacementPolicy::Fifo);
        c.access(rd(line(0)));
        c.access(rd(line(1)));
        // Touch line 0: under LRU this would protect it; FIFO ignores it.
        assert!(c.access(rd(line(0))).hit);
        let out = c.access(rd(line(2)));
        assert_eq!(out.evicted, Some(line(0)), "FIFO evicts the oldest insert");
        assert!(c.contains(line(1)));
    }

    #[test]
    fn lru_differs_from_fifo_on_the_same_sequence() {
        let mut lru = tiny_with(ReplacementPolicy::Lru);
        let mut fifo = tiny_with(ReplacementPolicy::Fifo);
        for c in [&mut lru, &mut fifo] {
            c.access(rd(line(0)));
            c.access(rd(line(1)));
            c.access(rd(line(0)));
        }
        assert_eq!(lru.access(rd(line(2))).evicted, Some(line(1)));
        assert_eq!(fifo.access(rd(line(2))).evicted, Some(line(0)));
    }

    #[test]
    fn pseudo_random_is_deterministic_and_valid() {
        let run = || {
            let mut c = tiny_with(ReplacementPolicy::PseudoRandom);
            let mut evictions = Vec::new();
            for k in 0..50 {
                if let Some(e) = c.access(rd(line(k))).evicted {
                    evictions.push(e);
                }
            }
            evictions
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "pseudo-random policy must be deterministic");
        // Every eviction is a line that was actually resident (a set-0
        // line other than the incoming one).
        assert_eq!(a.len(), 48, "after the 2 ways fill, every miss evicts");
    }

    #[test]
    fn invalid_ways_fill_first_under_every_policy() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::PseudoRandom,
        ] {
            let mut c = tiny_with(policy);
            assert_eq!(c.access(rd(line(0))).evicted, None);
            assert_eq!(c.access(rd(line(1))).evicted, None, "{policy:?}");
        }
    }

    #[test]
    fn policies_agree_on_direct_mapped_caches() {
        // With one way there is no choice to make.
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::PseudoRandom,
        ] {
            let mut c = SetAssocCache::new(CacheConfig {
                size_bytes: 256,
                line_bytes: 64,
                assoc: 1,
                hit_cycles: 1,
                miss_penalty: 50,
                writeback_penalty: 0,
                policy,
            });
            c.access(rd(0));
            assert_eq!(c.access(rd(256)).evicted, Some(0), "{policy:?}");
        }
    }
}

#[cfg(test)]
mod packed_equivalence_tests {
    //! The stamp-based array-of-structs cache, kept as an independent
    //! reference: it picks victims by per-line timestamps, while the
    //! cache under test keeps each set's tag words in replacement order.

    use super::*;
    use crate::memref::{AccessKind, MemRef};
    use crate::rng::SmallRng;

    #[derive(Debug, Clone, Copy)]
    struct Line {
        tag: u64,
        last_used: u64,
        valid: bool,
        dirty: bool,
    }

    const INVALID: Line = Line {
        tag: 0,
        last_used: 0,
        valid: false,
        dirty: false,
    };

    struct NaiveCache {
        policy: ReplacementPolicy,
        lines: Vec<Line>,
        set_shift: u32,
        set_mask: u64,
        assoc: usize,
        stamp: u64,
        prng: u64,
    }

    impl NaiveCache {
        fn new(cfg: &CacheConfig) -> Self {
            NaiveCache {
                policy: cfg.policy,
                lines: vec![INVALID; (cfg.num_sets() as usize) * cfg.assoc as usize],
                set_shift: cfg.line_bytes.trailing_zeros(),
                set_mask: cfg.num_sets() - 1,
                assoc: cfg.assoc as usize,
                stamp: 0,
                prng: 0x9E37_79B9_7F4A_7C15,
            }
        }

        fn access(&mut self, r: MemRef) -> AccessOutcome {
            self.stamp += 1;
            let tag = r.addr >> self.set_shift;
            let base = (((r.addr >> self.set_shift) & self.set_mask) as usize) * self.assoc;
            let set = &mut self.lines[base..base + self.assoc];
            let mut oldest = 0usize;
            let mut oldest_stamp = u64::MAX;
            let mut invalid: Option<usize> = None;
            for (i, line) in set.iter_mut().enumerate() {
                if line.valid && line.tag == tag {
                    if self.policy == ReplacementPolicy::Lru {
                        line.last_used = self.stamp;
                    }
                    if r.kind == AccessKind::Write {
                        line.dirty = true;
                    }
                    return AccessOutcome {
                        hit: true,
                        evicted: None,
                        wrote_back: false,
                    };
                }
                if !line.valid {
                    invalid.get_or_insert(i);
                } else if line.last_used < oldest_stamp {
                    oldest = i;
                    oldest_stamp = line.last_used;
                }
            }
            let victim = invalid.unwrap_or_else(|| match self.policy {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => oldest,
                ReplacementPolicy::PseudoRandom => {
                    self.prng ^= self.prng << 13;
                    self.prng ^= self.prng >> 7;
                    self.prng ^= self.prng << 17;
                    (self.prng % self.assoc as u64) as usize
                }
            });
            let evicted = set[victim].valid.then(|| set[victim].tag << self.set_shift);
            let wrote_back = set[victim].valid && set[victim].dirty;
            set[victim] = Line {
                tag,
                last_used: self.stamp,
                valid: true,
                dirty: r.kind == AccessKind::Write,
            };
            AccessOutcome {
                hit: false,
                evicted,
                wrote_back,
            }
        }

        fn contains(&self, addr: u64) -> bool {
            let tag = addr >> self.set_shift;
            let base = (((addr >> self.set_shift) & self.set_mask) as usize) * self.assoc;
            self.lines[base..base + self.assoc]
                .iter()
                .any(|l| l.valid && l.tag == tag)
        }

        fn valid_lines(&self) -> usize {
            self.lines.iter().filter(|l| l.valid).count()
        }
    }

    /// Seeded randomized replay of mixed read/write streams: every
    /// outcome (hit, eviction address, write-back), residency probe and
    /// occupancy count of the recency-ordered cache must equal the naive
    /// model, for every replacement policy and geometries from direct
    /// mapped through 16 ways to one fully associative set of 64 ways.
    #[test]
    fn packed_layout_matches_naive_model_for_all_policies() {
        let mut rng = SmallRng::seed_from_u64(0x009A_CCED);
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::PseudoRandom,
        ] {
            for case in 0..24 {
                let assoc = [1u32, 2, 4, 8, 16, 64][case % 6];
                let cfg = CacheConfig {
                    size_bytes: 4096,
                    line_bytes: 64,
                    assoc,
                    hit_cycles: 1,
                    miss_penalty: 10,
                    writeback_penalty: 5,
                    policy,
                };
                let mut packed = SetAssocCache::new(cfg.clone());
                let mut naive = NaiveCache::new(&cfg);
                let n = rng.random_range(200usize..1200);
                for step in 0..n {
                    let addr = rng.random_range(0u64..16384);
                    let r = if rng.random_range(0u64..4) == 0 {
                        MemRef::write(addr, 8)
                    } else {
                        MemRef::read(addr, 8)
                    };
                    let got = packed.access(r);
                    let want = naive.access(r);
                    assert_eq!(
                        got, want,
                        "{policy:?} case {case} step {step} addr {addr:#x}"
                    );
                    assert_eq!(
                        packed.contains(addr),
                        naive.contains(addr),
                        "{policy:?} case {case} step {step}"
                    );
                }
                assert_eq!(
                    packed.valid_lines(),
                    naive.valid_lines(),
                    "{policy:?} {case}"
                );
                assert_eq!(packed.accesses(), n as u64);
            }
        }
    }

    /// Flushing must reset the tag order and the policy PRNG so post-flush
    /// behaviour replays a fresh cache exactly.
    #[test]
    fn flush_restores_fresh_cache_behaviour() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::PseudoRandom,
        ] {
            let cfg = CacheConfig {
                size_bytes: 512,
                line_bytes: 64,
                assoc: 2,
                hit_cycles: 1,
                miss_penalty: 10,
                writeback_penalty: 5,
                policy,
            };
            let trace: Vec<MemRef> = (0..200)
                .map(|i| {
                    let addr = (i * 37) % 4096;
                    if i % 5 == 0 {
                        MemRef::write(addr, 8)
                    } else {
                        MemRef::read(addr, 8)
                    }
                })
                .collect();
            let mut fresh = SetAssocCache::new(cfg.clone());
            let fresh_out: Vec<AccessOutcome> = trace.iter().map(|&r| fresh.access(r)).collect();
            let mut flushed = SetAssocCache::new(cfg);
            for &r in &trace {
                flushed.access(r);
            }
            flushed.flush();
            let flushed_out: Vec<AccessOutcome> =
                trace.iter().map(|&r| flushed.access(r)).collect();
            assert_eq!(fresh_out, flushed_out, "{policy:?}");
        }
    }
}

#[cfg(test)]
mod writeback_tests {
    use super::*;
    use crate::memref::MemRef;

    fn tiny() -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            assoc: 2,
            hit_cycles: 1,
            miss_penalty: 50,
            writeback_penalty: 20,
            policy: Default::default(),
        })
    }

    fn line(k: u64) -> u64 {
        k * 4 * 64
    }

    #[test]
    fn clean_eviction_does_not_write_back() {
        let mut c = tiny();
        c.access(MemRef::read(line(0), 8));
        c.access(MemRef::read(line(1), 8));
        let out = c.access(MemRef::read(line(2), 8));
        assert!(out.evicted.is_some());
        assert!(!out.wrote_back, "read-only lines are clean");
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = tiny();
        c.access(MemRef::write(line(0), 8)); // allocated dirty
        c.access(MemRef::read(line(1), 8));
        c.access(MemRef::read(line(1), 8)); // protect line 1 (LRU)
        let out = c.access(MemRef::read(line(2), 8)); // evicts dirty line 0
        assert_eq!(out.evicted, Some(line(0)));
        assert!(out.wrote_back);
    }

    #[test]
    fn write_hit_marks_line_dirty() {
        let mut c = tiny();
        c.access(MemRef::read(line(0), 8)); // clean allocate
        c.access(MemRef::write(line(0) + 8, 8)); // dirty it via a hit
        c.access(MemRef::read(line(1), 8));
        c.access(MemRef::read(line(1), 8));
        let out = c.access(MemRef::read(line(2), 8));
        assert_eq!(out.evicted, Some(line(0)));
        assert!(out.wrote_back);
    }

    #[test]
    fn writeback_state_cleared_on_flush() {
        let mut c = tiny();
        c.access(MemRef::write(line(0), 8));
        c.flush();
        c.access(MemRef::read(line(0), 8));
        c.access(MemRef::read(line(1), 8));
        let out = c.access(MemRef::read(line(2), 8));
        assert!(!out.wrote_back, "dirty bits do not survive a flush");
    }
}
