//! The metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! Tool-side only — recording a metric never charges simulated cycles.
//! The registry is snapshotted into the `ExperimentReport` at the end of
//! a run, printed by `--metrics`, and embedded in the `--json` export.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::Json;

/// Default histogram bucket upper bounds: powers of four, 1 .. 4^15.
/// Wide enough for inter-arrival cycles and region sizes alike.
fn default_bounds() -> Vec<u64> {
    (0..16).map(|k| 1u64 << (2 * k)).collect()
}

/// A fixed-bucket histogram of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Inclusive upper bounds of each bucket; one overflow bucket follows.
    bounds: Vec<u64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    fn new(bounds: Vec<u64>) -> Self {
        // check:allow(callers pass constant ascending bounds; with_bounds vets the rest)
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        // check:allow(callers pass constant ascending bounds; with_bounds vets the rest)
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        let counts = vec![0; bounds.len() + 1];
        Histogram {
            bounds,
            counts,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// A standalone histogram with explicit ascending bucket bounds;
    /// `None` if the bounds are empty or not strictly ascending.
    pub fn with_bounds(bounds: &[u64]) -> Option<Self> {
        if bounds.is_empty() || bounds.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        Some(Histogram::new(bounds.to_vec()))
    }

    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// bucket holding the `ceil(q * count)`-th observation. Observations
    /// in the overflow bucket report the exact recorded maximum, so the
    /// estimate never exceeds reality's range. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Overflow bucket (or any bucket wider than the data):
                // the recorded max is the tightest honest answer.
                return match self.bounds.get(i) {
                    Some(&b) => b.min(self.max),
                    None => self.max,
                };
            }
        }
        self.max
    }

    /// Median estimate (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate (bucket upper bound).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Fold `other` into `self`. Returns `false` (and changes nothing)
    /// when the bucket bounds differ — histograms only merge with their
    /// own shape.
    pub fn merge(&mut self, other: &Histogram) -> bool {
        if self.bounds != other.bounds {
            return false;
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        true
    }

    fn to_json(&self) -> Json {
        let mut buckets = Vec::with_capacity(self.counts.len());
        for (i, &c) in self.counts.iter().enumerate() {
            let le = self
                .bounds
                .get(i)
                .map(|&b| Json::Uint(b))
                .unwrap_or(Json::Null);
            buckets.push(Json::obj(vec![("le", le), ("count", Json::Uint(c))]));
        }
        Json::obj(vec![
            ("count", Json::Uint(self.count)),
            ("sum", Json::Uint(self.sum.min(u128::from(u64::MAX)) as u64)),
            ("min", Json::Uint(self.min())),
            ("max", Json::Uint(self.max())),
            ("mean", Json::Float(self.mean())),
            ("p50", Json::Uint(self.p50())),
            ("p95", Json::Uint(self.p95())),
            ("p99", Json::Uint(self.p99())),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

/// The registry. Names are dotted paths (`"engine.interrupts.timer"`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Increment a counter by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increment a counter by `delta`.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Read a counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a gauge to `value`.
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Read a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Register a histogram with explicit bucket bounds. No-op if the
    /// name already exists.
    pub fn register_histogram(&mut self, name: &'static str, bounds: &[u64]) {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(bounds.to_vec()));
    }

    /// Record an observation; auto-registers the histogram with
    /// power-of-four default buckets on first use.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(default_bounds()))
            .observe(value);
    }

    /// Read a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Fold another registry into this one: counters add, gauges take
    /// `other`'s value (last writer wins), histograms merge bucket-wise.
    /// Returns `false` if any histogram pair had mismatched bounds (that
    /// pair is left as-is; everything else still merges).
    pub fn merge(&mut self, other: &Metrics) -> bool {
        for (&k, &v) in &other.counters {
            self.add(k, v);
        }
        for (&k, &v) in &other.gauges {
            self.set_gauge(k, v);
        }
        let mut clean = true;
        for (&k, h) in &other.histograms {
            match self.histograms.entry(k) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(h.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    clean &= e.get_mut().merge(h);
                }
            }
        }
        clean
    }

    /// Serialize the whole registry.
    ///
    /// Keys are emitted in sorted (BTreeMap) order regardless of the
    /// order metrics were first recorded in, so two runs that touch the
    /// same metrics render byte-identical JSON — the golden gates in CI
    /// rely on this.
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(&k, &v)| (k.to_string(), Json::Uint(v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(&k, &v)| (k.to_string(), Json::Float(v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(&k, h)| (k.to_string(), h.to_json()))
            .collect();
        Json::Obj(vec![
            ("counters".to_string(), Json::Obj(counters)),
            ("gauges".to_string(), Json::Obj(gauges)),
            ("histograms".to_string(), Json::Obj(histograms)),
        ])
    }
}

impl fmt::Display for Metrics {
    /// The `--metrics` text rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (name, v) in &self.counters {
                writeln!(f, "  {name:<44} {v:>14}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (name, v) in &self.gauges {
                writeln!(f, "  {name:<44} {v:>14.4}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "histograms:")?;
            for (name, h) in &self.histograms {
                writeln!(
                    f,
                    "  {name:<44} count {:>10}  mean {:>14.1}  p50 {:>10}  p95 {:>10}  p99 {:>10}  max {:>12}",
                    h.count(),
                    h.mean(),
                    h.p50(),
                    h.p95(),
                    h.p99(),
                    h.max(),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.inc("a");
        m.inc("a");
        m.add("a", 3);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = Metrics::new();
        m.set_gauge("share", 1.0);
        m.set_gauge("share", 2.5);
        assert_eq!(m.gauge("share"), Some(2.5));
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut m = Metrics::new();
        m.register_histogram("h", &[10, 100]);
        for v in [1, 5, 10, 11, 100, 5000] {
            m.observe("h", v);
        }
        let h = m.histogram("h").unwrap();
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 5000);
        // Buckets: <=10 has {1,5,10}, <=100 has {11,100}, overflow {5000}.
        assert_eq!(h.counts, vec![3, 2, 1]);
    }

    #[test]
    fn observe_auto_registers() {
        let mut m = Metrics::new();
        m.observe("auto", 3);
        m.observe("auto", 1_000_000);
        assert_eq!(m.histogram("auto").unwrap().count(), 2);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::with_bounds(&[10, 100]).unwrap();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn single_sample_pins_every_quantile() {
        let mut h = Histogram::with_bounds(&[10, 100]).unwrap();
        h.observe(7);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 7);
        assert_eq!(h.max(), 7);
        // Bucket-upper-bound estimate, capped at the recorded max.
        assert_eq!(h.p50(), 7);
        assert_eq!(h.p95(), 7);
        assert_eq!(h.p99(), 7);
        assert_eq!(h.quantile(0.0), 7);
        assert_eq!(h.quantile(1.0), 7);
    }

    #[test]
    fn saturating_overflow_bucket_reports_recorded_max() {
        let mut h = Histogram::with_bounds(&[10]).unwrap();
        for _ in 0..99 {
            h.observe(1_000_000); // all land in the overflow bucket
        }
        h.observe(u64::MAX);
        assert_eq!(h.count(), 100);
        // The overflow bucket has no upper bound: quantiles fall back to
        // the exact max instead of inventing a bound.
        assert_eq!(h.p50(), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.counts, vec![0, 100]);
    }

    #[test]
    fn merge_adds_bucketwise_and_rejects_mismatched_bounds() {
        let mut a = Histogram::with_bounds(&[10, 100]).unwrap();
        let mut b = Histogram::with_bounds(&[10, 100]).unwrap();
        a.observe(5);
        a.observe(50);
        b.observe(7);
        b.observe(5000);
        assert!(a.merge(&b));
        assert_eq!(a.count(), 4);
        assert_eq!(a.counts, vec![2, 1, 1]);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 5000);

        let other_shape = Histogram::with_bounds(&[1, 2, 3]).unwrap();
        let before = a.clone();
        assert!(!a.merge(&other_shape));
        assert_eq!(a, before, "rejected merge must not mutate");
    }

    #[test]
    fn merging_an_empty_histogram_keeps_min_max() {
        let mut a = Histogram::with_bounds(&[10]).unwrap();
        a.observe(4);
        let b = Histogram::with_bounds(&[10]).unwrap();
        assert!(a.merge(&b));
        assert_eq!(a.min(), 4);
        assert_eq!(a.max(), 4);
    }

    #[test]
    fn with_bounds_rejects_bad_shapes() {
        assert!(Histogram::with_bounds(&[]).is_none());
        assert!(Histogram::with_bounds(&[5, 5]).is_none());
        assert!(Histogram::with_bounds(&[10, 2]).is_none());
    }

    #[test]
    fn quantiles_walk_buckets() {
        let mut h = Histogram::with_bounds(&[1, 2, 4, 8, 16]).unwrap();
        for v in [1, 1, 2, 2, 3, 5, 9] {
            h.observe(v);
        }
        assert_eq!(h.p50(), 2); // 4th of 7 observations sits in the <=2 bucket
        assert_eq!(h.quantile(1.0), 9); // <=16 bucket, capped at max
    }

    #[test]
    fn registry_merge_folds_all_kinds() {
        let mut a = Metrics::new();
        a.inc("runs");
        a.set_gauge("rate", 1.0);
        a.observe("depth", 4);
        let mut b = Metrics::new();
        b.add("runs", 2);
        b.set_gauge("rate", 3.0);
        b.observe("depth", 9);
        b.observe("other", 1);
        assert!(a.merge(&b));
        assert_eq!(a.counter("runs"), 3);
        assert_eq!(a.gauge("rate"), Some(3.0));
        assert_eq!(a.histogram("depth").unwrap().count(), 2);
        assert_eq!(a.histogram("other").unwrap().count(), 1);
    }

    #[test]
    fn json_export_is_insertion_order_invariant() {
        // Same metrics recorded in opposite orders must render
        // byte-identically: the golden gates diff `--metrics` output.
        let mut a = Metrics::new();
        a.inc("z.last");
        a.inc("a.first");
        a.set_gauge("m.mid", 0.5);
        a.observe("h.one", 3);
        a.observe("h.two", 9);

        let mut b = Metrics::new();
        b.observe("h.two", 9);
        b.observe("h.one", 3);
        b.set_gauge("m.mid", 0.5);
        b.inc("a.first");
        b.inc("z.last");

        assert_eq!(a.to_json().render(), b.to_json().render());
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn json_and_text_render() {
        let mut m = Metrics::new();
        m.inc("events");
        m.set_gauge("rate", 0.25);
        m.observe("depth", 4);
        let j = m.to_json();
        assert_eq!(
            j.get("counters").unwrap().get("events").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            j.get("gauges").unwrap().get("rate").unwrap().as_f64(),
            Some(0.25)
        );
        let text = m.to_string();
        assert!(text.contains("events"));
        assert!(text.contains("depth"));
        // And the whole thing is valid JSON.
        crate::json::parse(&j.render()).expect("valid");
    }
}
