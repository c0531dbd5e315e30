//! Search regions: contiguous address ranges under measurement.

use cachescope_objmap::ObjectId;
use cachescope_sim::Addr;

/// One region of the address space tracked by the n-way search.
#[derive(Debug, Clone)]
pub struct Region {
    /// Inclusive lower bound.
    pub lo: Addr,
    /// Exclusive upper bound.
    pub hi: Addr,
    /// Most recent measured share of total misses (percent).
    pub pct: f64,
    /// Cumulative misses measured in this region across all visits.
    pub sum_count: u64,
    /// Cumulative interval totals over those same visits. The ratio is the
    /// miss-weighted average share — the estimate the search reports for
    /// single-object regions ("measures the cache misses within it again
    /// and averages the results with the results from previous
    /// iterations", section 2.2). Zero-miss visits retained by the phase
    /// heuristic count toward the average, which is how an object that is
    /// hot in only some program phases converges to its overall share.
    pub sum_total: u64,
    /// Number of measurements (including retained zero-miss ones).
    pub visits: u32,
    /// Consecutive zero-miss measurements survived via the phase
    /// heuristic (section 2.2 / 3.5).
    pub zero_streak: u32,
    /// Was this region ever ranked in the top n/2 of an iteration? Only
    /// such regions are retained when they measure zero misses.
    pub was_top: bool,
    /// Region cannot be split further: it covers at most one object (or
    /// has been refined to cache-line granularity in object-free space).
    pub atomic: bool,
    /// The single object this region has been narrowed to, if any.
    pub object: Option<ObjectId>,
}

impl Region {
    /// A fresh, unmeasured region.
    pub fn new(lo: Addr, hi: Addr) -> Self {
        // check:allow(every caller splits strictly inside its parent or skips empty seeds)
        assert!(lo < hi, "empty region [{lo:#x}, {hi:#x})");
        Region {
            lo,
            hi,
            pct: 0.0,
            sum_count: 0,
            sum_total: 0,
            visits: 0,
            zero_streak: 0,
            was_top: false,
            atomic: false,
            object: None,
        }
    }

    /// Region width in bytes.
    pub fn span(&self) -> u64 {
        self.hi - self.lo
    }

    /// Miss-weighted average share over all visits.
    pub fn avg_pct(&self) -> f64 {
        if self.sum_total == 0 {
            self.pct
        } else {
            self.sum_count as f64 * 100.0 / self.sum_total as f64
        }
    }

    /// The ranking key used in the priority queue: averaged share for
    /// atomic regions (stable), latest share otherwise (responsive).
    pub fn key(&self) -> f64 {
        if self.atomic {
            self.avg_pct()
        } else {
            self.pct
        }
    }

    /// Record a measurement of `count` misses out of an interval total of
    /// `total`.
    pub fn record(&mut self, count: u64, total: u64) {
        self.pct = if total == 0 {
            0.0
        } else {
            count as f64 * 100.0 / total as f64
        };
        self.sum_count += count;
        self.sum_total += total;
        self.visits += 1;
        if count > 0 {
            self.zero_streak = 0;
        }
    }

    /// Record a retained zero-miss visit: the interval total enters the
    /// weighted average, but the *latest-share* field keeps its stale
    /// value so a splittable region retains its queue standing (the
    /// paper keeps such regions rather than discarding them).
    pub fn record_zero(&mut self, total: u64) {
        self.sum_total += total;
        self.visits += 1;
    }
}

/// Arena of regions with a simulated-memory footprint: region `i` lives at
/// `sim_base + i * REGION_BYTES`, so the searcher can report which regions
/// it touched.
#[derive(Debug, Clone)]
pub struct RegionArena {
    regions: Vec<Region>,
    sim_base: Addr,
}

/// Simulated bytes per region record (one cache line).
pub const REGION_BYTES: u64 = 64;

impl RegionArena {
    pub fn new(sim_base: Addr) -> Self {
        RegionArena {
            regions: Vec::new(),
            sim_base,
        }
    }

    /// Add a region, returning its arena index.
    pub fn push(&mut self, r: Region) -> u32 {
        self.regions.push(r);
        (self.regions.len() - 1) as u32
    }

    /// Number of regions ever created.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Is the arena empty?
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Simulated address of region `idx`.
    pub fn sim_addr(&self, idx: u32) -> Addr {
        self.sim_base + idx as u64 * REGION_BYTES
    }

    pub fn get(&self, idx: u32) -> &Region {
        &self.regions[idx as usize]
    }

    pub fn get_mut(&mut self, idx: u32) -> &mut Region {
        &mut self.regions[idx as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averaging_is_miss_weighted() {
        let mut r = Region::new(0, 100);
        r.record(10, 100); // 10% of a 100-miss interval
        r.record(60, 300); // 20% of a 300-miss interval
                           // Weighted: 70/400 = 17.5%, not the unweighted 15%.
        assert!((r.avg_pct() - 17.5).abs() < 1e-9);
        assert!((r.pct - 20.0).abs() < 1e-9);
        assert_eq!(r.visits, 2);
    }

    #[test]
    fn zero_visits_pull_the_average_down() {
        // The phase mechanism: an object hot in one phase and silent in
        // another converges to its overall share.
        let mut r = Region::new(0, 100);
        r.record(75, 100);
        r.record(0, 100);
        r.record(0, 100);
        r.record(0, 100);
        assert!((r.avg_pct() - 18.75).abs() < 1e-9);
    }

    #[test]
    fn key_uses_average_only_when_atomic() {
        let mut r = Region::new(0, 100);
        r.record(10, 100);
        r.record(30, 100);
        assert!((r.key() - 30.0).abs() < 1e-9, "latest while splittable");
        r.atomic = true;
        assert!((r.key() - 20.0).abs() < 1e-9, "average once atomic");
    }

    #[test]
    fn nonzero_record_clears_zero_streak() {
        let mut r = Region::new(0, 100);
        r.zero_streak = 2;
        r.record(5, 100);
        assert_eq!(r.zero_streak, 0);
        r.zero_streak = 2;
        r.record(0, 100);
        assert_eq!(r.zero_streak, 2, "zero measurement leaves streak alone");
    }

    #[test]
    #[should_panic(expected = "empty region")]
    fn empty_region_rejected() {
        Region::new(5, 5);
    }

    #[test]
    fn arena_assigns_sim_addresses() {
        let mut a = RegionArena::new(0x7_0000_0000);
        let i = a.push(Region::new(0, 10));
        let j = a.push(Region::new(10, 20));
        assert_eq!(a.sim_addr(i), 0x7_0000_0000);
        assert_eq!(a.sim_addr(j), 0x7_0000_0000 + REGION_BYTES);
        assert_eq!(a.get(j).lo, 10);
        a.get_mut(i).record(1, 100);
        assert_eq!(a.get(i).visits, 1);
    }
}
