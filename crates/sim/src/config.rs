//! Cache and simulator configuration.

use crate::Cycle;

/// Replacement policy for the simulated cache. The paper's simulator is
/// not specific; exact LRU is the default, with FIFO and a deterministic
/// pseudo-random policy available for sensitivity studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used line (exact, per-set).
    #[default]
    Lru,
    /// Evict the oldest-inserted line (hits do not refresh age).
    Fifo,
    /// Evict a pseudo-randomly chosen way (deterministic xorshift).
    PseudoRandom,
}

/// Geometry and timing of the simulated single-level cache.
///
/// The paper's experiments use a 2 MB single-level set-associative cache;
/// associativity and line size are not stated, so we default to a
/// 4-way, 64-byte-line organisation typical of the era's L2 caches. All
/// parameters are configurable and validated.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a power of two.
    pub size_bytes: u64,
    /// Line size in bytes. Must be a power of two.
    pub line_bytes: u32,
    /// Associativity (ways per set). Must divide `size_bytes / line_bytes`.
    pub assoc: u32,
    /// Cycles charged for a cache hit.
    pub hit_cycles: Cycle,
    /// Additional cycles charged for a miss (memory access latency).
    pub miss_penalty: Cycle,
    /// Additional cycles charged when a miss evicts a *dirty* line
    /// (write-back traffic). Zero by default — the paper's simulator does
    /// not model write costs — but available for sensitivity studies.
    pub writeback_penalty: Cycle,
    /// Victim selection policy.
    pub policy: ReplacementPolicy,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            size_bytes: 2 * 1024 * 1024,
            line_bytes: 64,
            assoc: 4,
            hit_cycles: 1,
            miss_penalty: 50,
            writeback_penalty: 0,
            policy: ReplacementPolicy::Lru,
        }
    }
}

impl CacheConfig {
    /// Number of cache lines.
    pub fn num_lines(&self) -> u64 {
        self.size_bytes / self.line_bytes as u64
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.num_lines() / self.assoc as u64
    }

    /// The largest L1 [`CacheConfig::l1_kib`] builds: 64 MiB, 32 times
    /// the paper's 2 MB cache.
    pub const MAX_L1_KIB: u64 = 64 * 1024;

    /// The L1 `cachescope --l1 <kib>` puts in front of the monitored
    /// cache: `kib` KiB rounded up to a power of two, 64 B lines, 2 ways,
    /// a 1-cycle hit. Refuses 0 KiB, which holds no line, and more than
    /// [`CacheConfig::MAX_L1_KIB`], whose tag array could not be
    /// allocated; every size it accepts passes
    /// [`CacheConfig::validate`].
    pub fn l1_kib(kib: u64) -> Result<CacheConfig, String> {
        if kib == 0 || kib > Self::MAX_L1_KIB {
            return Err(format!(
                "an L1 of {kib} KiB: the size must be 1 to {} KiB",
                Self::MAX_L1_KIB
            ));
        }
        Ok(CacheConfig {
            size_bytes: (kib * 1024).next_power_of_two(),
            line_bytes: 64,
            assoc: 2,
            hit_cycles: 1,
            miss_penalty: 0,
            writeback_penalty: 0,
            policy: Default::default(),
        })
    }

    /// Panics with a descriptive message if the geometry is inconsistent.
    pub fn validate(&self) {
        // check:allow(geometries are code constants; --l1 gives a power of two, 64 B lines, 2 ways)
        assert!(
            self.size_bytes.is_power_of_two(),
            "cache size must be a power of two, got {}",
            self.size_bytes
        );
        // check:allow(geometries are code constants; --l1 gives a power of two, 64 B lines, 2 ways)
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two, got {}",
            self.line_bytes
        );
        // check:allow(geometries are code constants; --l1 gives a power of two, 64 B lines, 2 ways)
        assert!(self.assoc >= 1, "associativity must be at least 1");
        let lines = self.size_bytes / self.line_bytes as u64;
        // check:allow(code geometries divide evenly, and `CacheConfig::l1_kib` refuses the 0 KiB L1 that would hold no line)
        assert!(
            lines >= self.assoc as u64 && lines.is_multiple_of(self.assoc as u64),
            "associativity {} must divide line count {}",
            self.assoc,
            lines
        );
    }
}

/// Top-level simulator configuration.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// The monitored cache — the paper's single-level 2 MB cache. The
    /// PMU counts misses at this level and ground-truth attribution is
    /// by this level's misses.
    pub cache: CacheConfig,
    /// Optional first-level cache in front of the monitored cache. Hits
    /// in it never reach the monitored level (they are neither counted
    /// nor attributed), modelling measurement on a machine whose L1
    /// filters the traffic the PMU sees. `None` (the default) reproduces
    /// the paper's single-level setup.
    pub l1: Option<CacheConfig>,
    /// Number of PMU region counters (n for the n-way search, plus the
    /// global counter which always exists).
    pub pmu: cachescope_hwpm::PmuConfig,
    /// Instrumentation cost model.
    pub costs: cachescope_hwpm::CostModel,
    /// PMU fault injection (skid, dropped/spurious interrupts, counter
    /// wrap, delivery delay, read jitter). The default is inert: no
    /// fault model is constructed and the PMU is exact.
    pub faults: cachescope_hwpm::FaultConfig,
    /// Optional per-interval per-object miss timeline (Figure 5).
    pub timeline: Option<crate::stats::TimelineConfig>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_cache_size() {
        let c = CacheConfig::default();
        c.validate();
        assert_eq!(c.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.num_lines(), 32_768);
        assert_eq!(c.num_sets(), 8_192);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_size() {
        CacheConfig {
            size_bytes: 3_000_000,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_bad_associativity() {
        CacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            assoc: 3,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn direct_mapped_is_valid() {
        CacheConfig {
            size_bytes: 4096,
            line_bytes: 64,
            assoc: 1,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn fully_associative_is_valid() {
        let c = CacheConfig {
            size_bytes: 4096,
            line_bytes: 64,
            assoc: 64,
            ..Default::default()
        };
        c.validate();
        assert_eq!(c.num_sets(), 1);
    }
}
