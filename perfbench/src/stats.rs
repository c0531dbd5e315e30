//! Small numeric helpers: order statistics, the tail rule, peak RSS and
//! the simulated-statistics digest.

use cachescope_campaign::Fnv1a64;
use cachescope_sim::RunStats;

/// Median of `values` (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean of `values`.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample: the highest percentile that still has
/// at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile (the 11th-largest).
    pub value: f64,
    /// The percentile, `100 * (n - beyond) / n`.
    pub pct: f64,
    /// How many samples the percentile was taken over.
    pub n: usize,
}

/// The highest percentile of `values` with at least `beyond` samples
/// above it. With `n` samples sorted ascending that is `x[n - beyond - 1]`,
/// at percentile `100 * (n - beyond) / n`: exactly `beyond` samples are
/// larger. `None` when there are not more than `beyond` samples, since
/// then no percentile has that many samples beyond it.
pub fn tail(values: &[f64], beyond: usize) -> Option<Tail> {
    let n = values.len();
    if n <= beyond {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        value: v[n - beyond - 1],
        pct: 100.0 * (n - beyond) as f64 / n as f64,
        n,
    })
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// FNV-1a digest over every simulated statistic of a sequence of runs:
/// accesses, misses, cycles, interrupts and per-object misses. Host
/// times never enter it, so it repeats exactly for one seed and shows
/// that a simulator speed-up left the simulated results unchanged.
#[derive(Default)]
pub struct StatsDigest {
    h: Fnv1a64,
    runs: u64,
}

impl StatsDigest {
    pub fn add(&mut self, s: &RunStats) {
        self.runs += 1;
        for v in [
            s.app.accesses,
            s.app.misses,
            s.instr.accesses,
            s.instr.misses,
            s.cycles,
            s.instr_cycles,
            s.interrupts,
            s.writebacks,
            s.unmapped_misses,
            s.objects.len() as u64,
        ] {
            self.h.update(&v.to_le_bytes());
        }
        for o in &s.objects {
            self.h.update(o.name.as_bytes());
            self.h.update(&o.misses.to_le_bytes());
        }
    }

    pub fn runs(&self) -> u64 {
        self.runs
    }

    pub fn hex(&self) -> String {
        self.h.hex()
    }
}

/// Every miss is accounted for once: per-object misses plus unmapped
/// misses equal application misses.
pub fn conserves_misses(s: &RunStats) -> bool {
    let attributed: u64 = s.objects.iter().map(|o| o.misses).sum();
    attributed + s.unmapped_misses == s.app.misses
}

/// Simulated-statistics equality, field by field (the check the
/// `throughput` bench applies between a live run and its replay).
pub fn same_results(a: &RunStats, b: &RunStats) -> bool {
    a.app == b.app
        && a.cycles == b.cycles
        && a.unmapped_misses == b.unmapped_misses
        && a.objects.len() == b.objects.len()
        && a.objects
            .iter()
            .zip(&b.objects)
            .all(|(x, y)| x.name == y.name && x.misses == y.misses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, TAIL_BEYOND).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.n, 100);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_percentile_rises_with_the_sample_count() {
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let t = tail(&v, TAIL_BEYOND).unwrap();
        assert_eq!(t.value, 989.0);
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.n, 1000);
        let t = tail(&v[..11], TAIL_BEYOND).unwrap();
        assert_eq!(t.n, 11);
        assert!((t.pct - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_more_samples_than_it_leaves_beyond() {
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&v, TAIL_BEYOND), None);
        assert_eq!(tail(&[], TAIL_BEYOND), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
