//! Run statistics: ground-truth per-object miss counts, cost accounting
//! and the per-interval timeline behind Figure 5.

use crate::program::ObjectKind;
use crate::{Addr, Cycle};

/// Configuration for per-interval miss recording (Figure 5).
#[derive(Debug, Clone, Copy)]
pub struct TimelineConfig {
    /// Width of one timeline bucket in virtual cycles.
    pub bucket_cycles: Cycle,
}

impl TimelineConfig {
    /// A timeline of `bucket_cycles`-wide buckets. Refuses a zero width,
    /// which no bucket index can divide by.
    pub fn new(bucket_cycles: Cycle) -> Result<Self, String> {
        if bucket_cycles == 0 {
            return Err("a timeline bucket must be at least 1 cycle wide".to_string());
        }
        Ok(TimelineConfig { bucket_cycles })
    }
}

/// Per-object miss counts bucketed over virtual time, plus per-bucket
/// totals (references, misses, fault-degraded flag) for the phase
/// timeline export.
#[derive(Debug, Clone)]
pub struct Timeline {
    bucket_cycles: Cycle,
    /// `series[object_id][bucket]` = misses by that object in that bucket.
    series: Vec<Vec<u64>>,
    buckets: usize,
    /// Application references per bucket (all accesses, hit or miss).
    refs: Vec<u64>,
    /// Application misses per bucket (mapped and unmapped alike).
    misses: Vec<u64>,
    /// Buckets during which the PMU fault model injected at least one
    /// fault (skid, drop, spurious, wrap, delay, jitter).
    degraded: Vec<bool>,
}

impl Timeline {
    pub fn new(cfg: TimelineConfig) -> Self {
        // check:allow(`TimelineConfig::new`, which `--timeline` goes through, refuses a zero width)
        assert!(cfg.bucket_cycles > 0, "bucket width must be nonzero");
        Timeline {
            bucket_cycles: cfg.bucket_cycles,
            series: Vec::new(),
            buckets: 0,
            refs: Vec::new(),
            misses: Vec::new(),
            degraded: Vec::new(),
        }
    }

    #[inline]
    fn bucket_at(&mut self, now: Cycle) -> usize {
        let bucket = (now / self.bucket_cycles) as usize;
        if bucket >= self.buckets {
            self.buckets = bucket + 1;
        }
        bucket
    }

    /// Record one miss by `object` at virtual time `now`.
    pub fn record(&mut self, object: u32, now: Cycle) {
        let bucket = self.bucket_at(now);
        let id = object as usize;
        if id >= self.series.len() {
            self.series.resize_with(id + 1, Vec::new);
        }
        let row = &mut self.series[id];
        if row.len() <= bucket {
            row.resize(bucket + 1, 0);
        }
        row[bucket] += 1;
    }

    /// Record one application reference at virtual time `now`.
    #[inline]
    pub fn record_ref(&mut self, now: Cycle) {
        let bucket = self.bucket_at(now);
        if self.refs.len() <= bucket {
            self.refs.resize(bucket + 1, 0);
        }
        self.refs[bucket] += 1;
    }

    /// Record one application miss (mapped or unmapped) at `now`.
    #[inline]
    pub fn record_miss(&mut self, now: Cycle) {
        let bucket = self.bucket_at(now);
        if self.misses.len() <= bucket {
            self.misses.resize(bucket + 1, 0);
        }
        self.misses[bucket] += 1;
    }

    /// Mark the bucket containing `now` as fault-degraded.
    pub fn mark_degraded(&mut self, now: Cycle) {
        let bucket = self.bucket_at(now);
        if self.degraded.len() <= bucket {
            self.degraded.resize(bucket + 1, false);
        }
        self.degraded[bucket] = true;
    }

    /// Bucket width in cycles.
    pub fn bucket_cycles(&self) -> Cycle {
        self.bucket_cycles
    }

    /// Number of buckets observed.
    pub fn num_buckets(&self) -> usize {
        self.buckets
    }

    /// The miss series for `object`, padded with zeros to the full length.
    pub fn series(&self, object: u32) -> Vec<u64> {
        let mut row = self
            .series
            .get(object as usize)
            .cloned()
            .unwrap_or_default();
        row.resize(self.buckets, 0);
        row
    }

    /// References per bucket, padded to the full length.
    pub fn refs_series(&self) -> Vec<u64> {
        let mut row = self.refs.clone();
        row.resize(self.buckets, 0);
        row
    }

    /// Misses per bucket, padded to the full length.
    pub fn miss_series(&self) -> Vec<u64> {
        let mut row = self.misses.clone();
        row.resize(self.buckets, 0);
        row
    }

    /// Degraded flags per bucket, padded to the full length.
    pub fn degraded_series(&self) -> Vec<bool> {
        let mut row = self.degraded.clone();
        row.resize(self.buckets, false);
        row
    }
}

/// Ground-truth statistics for one program object.
#[derive(Debug, Clone)]
pub struct ObjectStats {
    pub name: String,
    pub base: Addr,
    pub size: u64,
    pub kind: ObjectKind,
    /// Cache misses attributed to this object by the simulator itself
    /// (the paper's "Actual" column).
    pub misses: u64,
}

/// Access/miss pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub accesses: u64,
    pub misses: u64,
}

/// Everything measured during one simulation run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Application references and misses *at the monitored cache level*
    /// (references absorbed by an optional L1 never reach it).
    pub app: Counts,
    /// First-level cache traffic, when an L1 is configured: `accesses` is
    /// every reference issued, `misses` the portion forwarded to the
    /// monitored cache.
    pub l1: Option<Counts>,
    /// Instrumentation references and misses (handler memory traffic).
    pub instr: Counts,
    /// Total virtual cycles elapsed (application + instrumentation).
    pub cycles: Cycle,
    /// Virtual cycles spent in instrumentation: handler work plus interrupt
    /// delivery plus the cache cost of handler memory traffic.
    pub instr_cycles: Cycle,
    /// Number of interrupts delivered.
    pub interrupts: u64,
    /// Dirty-line evictions (write-backs), application + instrumentation.
    /// Zero-cost unless `CacheConfig::writeback_penalty` is set.
    pub writebacks: u64,
    /// Per-object ground truth, indexed by the engine's object ids.
    pub objects: Vec<ObjectStats>,
    /// Application misses that fell outside every known object.
    pub unmapped_misses: u64,
    /// Optional per-interval miss series (Figure 5).
    pub timeline: Option<Timeline>,
}

impl RunStats {
    /// Total cache misses (application + instrumentation).
    pub fn total_misses(&self) -> u64 {
        self.app.misses + self.instr.misses
    }

    /// Application misses per million cycles (the paper quotes e.g. 144 for
    /// ijpeg, 361 for compress, 6,827 for mgrid).
    pub fn misses_per_mcycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.app.misses as f64 * 1.0e6 / self.cycles as f64
        }
    }

    /// Percentage of all application misses caused by object `id`.
    pub fn object_miss_pct(&self, id: usize) -> f64 {
        if self.app.misses == 0 {
            0.0
        } else {
            self.objects[id].misses as f64 * 100.0 / self.app.misses as f64
        }
    }

    /// Objects ranked by ground-truth misses, descending; ties broken by
    /// name for determinism. Returns `(rank, index, pct)` tuples where
    /// `rank` starts at 1.
    pub fn ranked_objects(&self) -> Vec<(usize, usize, f64)> {
        let mut idx: Vec<usize> = (0..self.objects.len()).collect();
        idx.sort_by(|&a, &b| {
            self.objects[b]
                .misses
                .cmp(&self.objects[a].misses)
                .then_with(|| self.objects[a].name.cmp(&self.objects[b].name))
        });
        idx.into_iter()
            .enumerate()
            .map(|(r, i)| (r + 1, i, self.object_miss_pct(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(name: &str, misses: u64) -> ObjectStats {
        ObjectStats {
            name: name.into(),
            base: 0,
            size: 64,
            kind: ObjectKind::Global,
            misses,
        }
    }

    fn stats(objs: Vec<ObjectStats>) -> RunStats {
        let app_misses: u64 = objs.iter().map(|o| o.misses).sum();
        RunStats {
            app: Counts {
                accesses: app_misses * 2,
                misses: app_misses,
            },
            l1: None,
            instr: Counts::default(),
            cycles: 1_000_000,
            instr_cycles: 0,
            interrupts: 0,
            writebacks: 0,
            objects: objs,
            unmapped_misses: 0,
            timeline: None,
        }
    }

    #[test]
    fn ranking_is_descending_with_name_tiebreak() {
        let s = stats(vec![obj("B", 10), obj("A", 10), obj("C", 30)]);
        let ranked = s.ranked_objects();
        let names: Vec<&str> = ranked
            .iter()
            .map(|&(_, i, _)| s.objects[i].name.as_str())
            .collect();
        assert_eq!(names, ["C", "A", "B"]);
        assert_eq!(ranked[0].0, 1);
        assert!((ranked[0].2 - 60.0).abs() < 1e-9);
    }

    #[test]
    fn miss_rate_per_mcycle() {
        let s = stats(vec![obj("A", 144)]);
        assert!((s.misses_per_mcycle() - 144.0).abs() < 1e-9);
    }

    #[test]
    fn pct_with_zero_misses_is_zero() {
        let s = stats(vec![obj("A", 0)]);
        assert_eq!(s.object_miss_pct(0), 0.0);
        assert_eq!(s.misses_per_mcycle(), 0.0);
    }

    #[test]
    fn timeline_buckets_and_padding() {
        let mut t = Timeline::new(TimelineConfig { bucket_cycles: 100 });
        t.record(0, 0);
        t.record(0, 99);
        t.record(1, 250);
        assert_eq!(t.num_buckets(), 3);
        assert_eq!(t.series(0), vec![2, 0, 0]);
        assert_eq!(t.series(1), vec![0, 0, 1]);
        assert_eq!(t.series(7), vec![0, 0, 0], "unknown object is all zeros");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn timeline_rejects_zero_bucket() {
        Timeline::new(TimelineConfig { bucket_cycles: 0 });
    }

    #[test]
    fn timeline_window_totals_and_degraded_flags() {
        let mut t = Timeline::new(TimelineConfig { bucket_cycles: 100 });
        t.record_ref(10);
        t.record_ref(20);
        t.record_miss(20);
        t.record(0, 20);
        t.record_ref(150);
        t.mark_degraded(150);
        // A trailing ref-only bucket still extends every padded series.
        t.record_ref(310);
        assert_eq!(t.num_buckets(), 4);
        assert_eq!(t.refs_series(), vec![2, 1, 0, 1]);
        assert_eq!(t.miss_series(), vec![1, 0, 0, 0]);
        assert_eq!(t.degraded_series(), vec![false, true, false, false]);
        assert_eq!(t.series(0), vec![1, 0, 0, 0]);
    }
}
