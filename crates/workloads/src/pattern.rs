//! Access-pattern generators: which object does the next miss land in?
//!
//! Two generators cover the behaviours the paper's evaluation depends on:
//!
//! * [`PatternGen::stochastic`] — a seeded weighted random mix. Real
//!   applications' miss streams have enough mixing that sampling every
//!   k-th miss is unbiased; this models swim, su2cor, mgrid, applu,
//!   compress and ijpeg, whose sampled estimates in Table 1 are accurate.
//! * [`PatternGen::periodic_resonant`] — a rigidly periodic sequence with
//!   engineered residue-class structure, modelling tomcatv's vectorized
//!   mesh sweep. Section 3.1 reports that sampling 1 in 50,000 misses
//!   grossly misestimates tomcatv (RX at 37.1% vs an actual 22.5%) while a
//!   prime period of 50,111 is accurate: the sampling interval "coincides
//!   with the application's memory access patterns". The generator
//!   reproduces this: positions congruent to a chosen class modulo
//!   `stride` follow a different (skewed) object distribution than the
//!   rest, and the period is chosen so a resonant sampling interval only
//!   ever observes that class.

use cachescope_sim::rng::SmallRng;

use crate::wrr::SmoothWrr;

/// Yields, per planned miss, the index of the target object.
#[derive(Debug, Clone)]
pub enum PatternGen {
    Stochastic {
        /// Cumulative weights paired with object indices, each weight `c`
        /// held as `floor(c · 2⁵³)` so a 53-bit draw compares as an
        /// integer.
        cdf: Vec<(u64, u16)>,
        rng: SmallRng,
    },
    Periodic {
        /// The materialised repeating sequence of object indices.
        seq: Vec<u16>,
        pos: usize,
    },
}

impl PatternGen {
    /// A seeded weighted random mix. `weights` maps object index to
    /// relative weight (need not be normalised; zero-weight entries are
    /// allowed and never selected).
    pub fn stochastic(weights: &[(u16, f64)], seed: u64) -> Self {
        PatternGen::Stochastic {
            cdf: cumulative(weights)
                .into_iter()
                .map(|(c, idx)| ((c * UNIT).floor() as u64, idx))
                .collect(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// A rigidly periodic sequence of length `period` in which positions
    /// `p` with `p % stride == class` are drawn (by smooth weighted
    /// round-robin) from `class_weights` and all other positions from a
    /// complement distribution chosen so the *overall* sequence follows
    /// `overall_weights`.
    ///
    /// Requirements: `period % stride == 0`; the complement weights
    /// `(stride * overall - class) / (stride - 1)` must be non-negative,
    /// i.e. the class distribution cannot exceed `stride *` the overall
    /// share of any object.
    ///
    /// With a sampling interval `k` such that `gcd(k, period) == stride`
    /// and `k % stride == 0`, every k-th element of the stream falls in a
    /// single residue class — so an overflow-sampling profiler observes
    /// `class_weights` instead of `overall_weights`. Any interval coprime
    /// to `period` (e.g. a prime) observes the true mix.
    pub fn periodic_resonant(
        period: usize,
        stride: usize,
        class: usize,
        overall_weights: &[(u16, f64)],
        class_weights: &[(u16, f64)],
    ) -> Self {
        // check:allow(weights and periods are workload constants)
        assert!(stride >= 2, "stride must be at least 2");
        // check:allow(weights and periods are workload constants)
        assert_eq!(period % stride, 0, "period must be a multiple of stride");
        // check:allow(weights and periods are workload constants)
        assert!(class < stride, "class out of range");

        let scale = 1_000_000.0;
        let norm = |ws: &[(u16, f64)]| -> Vec<(u16, f64)> {
            let total: f64 = ws.iter().map(|&(_, w)| w).sum();
            // check:allow(weights and periods are workload constants)
            assert!(total > 0.0);
            ws.iter().map(|&(i, w)| (i, w / total)).collect()
        };
        let overall = norm(overall_weights);
        let cls = norm(class_weights);

        // Complement distribution for non-class positions.
        let class_of = |idx: u16| {
            cls.iter()
                .find(|&&(i, _)| i == idx)
                .map_or(0.0, |&(_, w)| w)
        };
        let mut rest: Vec<(u16, f64)> = Vec::new();
        for &(idx, w) in &overall {
            let r = (stride as f64 * w - class_of(idx)) / (stride as f64 - 1.0);
            // check:allow(weights and periods are workload constants)
            assert!(
                r >= -1e-9,
                "class weight for object {idx} exceeds stride x overall share"
            );
            rest.push((idx, r.max(0.0)));
        }

        let to_wrr = |ws: &[(u16, f64)]| {
            SmoothWrr::new(
                ws.iter()
                    .map(|&(_, w)| (w * scale).round() as i64)
                    .collect(),
            )
        };
        let mut wrr_class = to_wrr(&cls);
        let mut wrr_rest = to_wrr(&rest);
        let class_ids: Vec<u16> = cls.iter().map(|&(i, _)| i).collect();
        let rest_ids: Vec<u16> = rest.iter().map(|&(i, _)| i).collect();

        let seq = (0..period)
            .map(|p| {
                if p % stride == class {
                    class_ids[wrr_class.next_index()]
                } else {
                    rest_ids[wrr_rest.next_index()]
                }
            })
            .collect();
        PatternGen::Periodic { seq, pos: 0 }
    }

    /// A plain periodic sequence with the given object-index cycle.
    pub fn periodic(seq: Vec<u16>) -> Self {
        // check:allow(weights and periods are workload constants)
        assert!(!seq.is_empty(), "sequence must be non-empty");
        PatternGen::Periodic { seq, pos: 0 }
    }

    /// The object index targeted by the next planned miss.
    #[inline]
    pub fn next_object(&mut self) -> u16 {
        match self {
            PatternGen::Stochastic { cdf, rng } => Self::pick(cdf, rng.next_u64()),
            PatternGen::Periodic { seq, pos } => {
                let v = seq[*pos];
                *pos += 1;
                if *pos == seq.len() {
                    *pos = 0;
                }
                v
            }
        }
    }

    /// Push `f` of each target of the next `n` planned misses onto `out`:
    /// the targets `n` calls of [`PatternGen::next_object`] return. The
    /// variant is matched once per run, and the stochastic RNG is copied
    /// into a local for the run, which the compiler can keep in registers;
    /// a generator reached through the phase table is otherwise loaded and
    /// stored at every draw, since the writes to `out` might alias it.
    #[inline]
    pub(crate) fn extend_run<T>(
        &mut self,
        n: usize,
        out: &mut Vec<T>,
        mut f: impl FnMut(u16) -> T,
    ) {
        match self {
            PatternGen::Stochastic { cdf, rng } => {
                let mut draws = rng.clone();
                out.extend((0..n).map(|_| f(Self::pick(cdf, draws.next_u64()))));
                *rng = draws;
            }
            PatternGen::Periodic { .. } => out.extend((0..n).map(|_| f(self.next_object()))),
        }
    }

    /// The object a stochastic draw selects: the first CDF entry `c` with
    /// `c >= x`, where `x = (draw >> 11) · 2⁻⁵³` is the `[0, 1)` float
    /// `SmallRng::random::<f64>` makes of the same draw. That index is the
    /// count of entries below `x`, because the CDF is sorted, and it is
    /// counted without a branch, where a binary search mispredicts on
    /// random input. The integer compare is exact: `x` is `k · 2⁻⁵³` for
    /// the integer `k = draw >> 11`, so `c < x` holds exactly when
    /// `floor(c · 2⁵³) < k`. The last entry is 1.0, above every draw, so
    /// the count is at most the last index.
    #[inline]
    fn pick(cdf: &[(u64, u16)], draw: u64) -> u16 {
        let k = draw >> 11;
        let i = cdf.iter().filter(|&&(c, _)| c < k).count();
        cdf[i.min(cdf.len() - 1)].1
    }
}

/// `2⁵³`: one unit of a cumulative weight in [`PatternGen::pick`]'s
/// integer scale.
const UNIT: f64 = (1u64 << 53) as f64;

/// The normalised cumulative weights of the nonzero entries of
/// `weights`, paired with their object indices; the last is exactly 1.0.
fn cumulative(weights: &[(u16, f64)]) -> Vec<(f64, u16)> {
    let total: f64 = weights.iter().map(|&(_, w)| w).sum();
    // check:allow(weights and periods are workload constants)
    assert!(total > 0.0, "at least one weight must be positive");
    let mut acc = 0.0;
    let mut cdf = Vec::with_capacity(weights.len());
    for &(idx, w) in weights {
        // check:allow(weights and periods are workload constants)
        assert!(w >= 0.0, "negative weight for object {idx}");
        if w > 0.0 {
            acc += w / total;
            cdf.push((acc, idx));
        }
    }
    // Guard against floating-point shortfall at the top of the CDF.
    if let Some(last) = cdf.last_mut() {
        last.0 = 1.0;
    }
    cdf
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn shares(g: &mut PatternGen, n: usize) -> HashMap<u16, f64> {
        let mut h: HashMap<u16, u64> = HashMap::new();
        for _ in 0..n {
            *h.entry(g.next_object()).or_default() += 1;
        }
        h.into_iter()
            .map(|(k, v)| (k, v as f64 / n as f64))
            .collect()
    }

    #[test]
    fn stochastic_matches_weights() {
        let mut g = PatternGen::stochastic(&[(0, 0.5), (1, 0.3), (2, 0.2)], 42);
        let s = shares(&mut g, 200_000);
        assert!((s[&0] - 0.5).abs() < 0.01);
        assert!((s[&1] - 0.3).abs() < 0.01);
        assert!((s[&2] - 0.2).abs() < 0.01);
    }

    #[test]
    fn stochastic_is_deterministic_per_seed() {
        let mut a = PatternGen::stochastic(&[(0, 1.0), (1, 1.0)], 7);
        let mut b = PatternGen::stochastic(&[(0, 1.0), (1, 1.0)], 7);
        for _ in 0..1000 {
            assert_eq!(a.next_object(), b.next_object());
        }
    }

    #[test]
    fn stochastic_zero_weight_never_selected() {
        let mut g = PatternGen::stochastic(&[(0, 0.0), (1, 1.0)], 3);
        for _ in 0..1000 {
            assert_eq!(g.next_object(), 1);
        }
    }

    /// `next_object` as it was before the branchless pick: a binary
    /// search of the float CDF for the first entry at or above the draw.
    fn partition_point_oracle(cdf: &[(f64, u16)], x: f64) -> u16 {
        let i = cdf.partition_point(|&(c, _)| c < x);
        cdf[i.min(cdf.len() - 1)].1
    }

    #[test]
    fn pick_matches_the_partition_point_oracle() {
        let mgrid = vec![(0u16, 40.8), (1, 40.4), (2, 18.8)];
        let zeros = vec![(0u16, 0.0), (1, 2.5), (2, 0.0), (3, 1.0), (4, 0.0)];
        let one = vec![(9u16, 3.0)];
        let wide: Vec<(u16, f64)> = (0..13u16).map(|i| (i, 1.0 + f64::from(i) * 0.37)).collect();
        let tiny = vec![(0u16, 1.0), (1, 1e-12), (2, 1.0)];
        for (s, weights) in [mgrid, zeros, one, wide, tiny].iter().enumerate() {
            let cdf = cumulative(weights);
            let mut gen = PatternGen::stochastic(weights, 0xC0DE + s as u64);
            let mut draws = SmallRng::seed_from_u64(0xC0DE + s as u64);
            for n in 0..100_000 {
                let x: f64 = draws.random();
                let want = partition_point_oracle(&cdf, x);
                assert_eq!(gen.next_object(), want, "weights {s}, draw {n}");
            }
            // Random draws never land on an entry, so also try the draws
            // at and next to each entry's integer threshold.
            let PatternGen::Stochastic { cdf: ints, .. } = &gen else {
                unreachable!()
            };
            for &(c, _) in &cdf {
                let t = (c * UNIT).floor() as u64;
                for k in [t.saturating_sub(1), t, t + 1] {
                    let k = k.min((1 << 53) - 1);
                    let x = k as f64 / UNIT;
                    let want = partition_point_oracle(&cdf, x);
                    assert_eq!(PatternGen::pick(ints, k << 11), want, "weights {s}, k {k}");
                }
            }
        }
    }

    #[test]
    fn periodic_cycles() {
        let mut g = PatternGen::periodic(vec![3, 1, 4]);
        let got: Vec<u16> = (0..7).map(|_| g.next_object()).collect();
        assert_eq!(got, vec![3, 1, 4, 3, 1, 4, 3]);
    }

    #[test]
    fn resonant_overall_distribution_is_preserved() {
        let overall = [(0u16, 0.4), (1, 0.4), (2, 0.2)];
        let class = [(0u16, 0.9), (1, 0.05), (2, 0.05)];
        let mut g = PatternGen::periodic_resonant(8000, 8, 7, &overall, &class);
        let s = shares(&mut g, 8000);
        assert!((s[&0] - 0.4).abs() < 0.01, "share {}", s[&0]);
        assert!((s[&1] - 0.4).abs() < 0.01);
        assert!((s[&2] - 0.2).abs() < 0.01);
    }

    #[test]
    fn resonant_class_positions_follow_class_distribution() {
        let overall = [(0u16, 0.4), (1, 0.4), (2, 0.2)];
        let class = [(0u16, 0.9), (1, 0.05), (2, 0.05)];
        let g = PatternGen::periodic_resonant(8000, 8, 7, &overall, &class);
        let PatternGen::Periodic { seq, .. } = g else {
            unreachable!()
        };
        let class_positions: Vec<u16> = seq
            .iter()
            .enumerate()
            .filter(|&(p, _)| p % 8 == 7)
            .map(|(_, &v)| v)
            .collect();
        let n = class_positions.len() as f64;
        let share0 = class_positions.iter().filter(|&&v| v == 0).count() as f64 / n;
        assert!((share0 - 0.9).abs() < 0.01, "class share {share0}");
    }

    #[test]
    fn resonant_sampling_simulation() {
        // Simulate overflow sampling directly on the sequence: every
        // 1,000th element when period 8,000 has stride 8 and 1,000 % 8 == 0
        // hits one class; a coprime interval sees the truth.
        let overall = [(0u16, 0.4), (1, 0.4), (2, 0.2)];
        let class = [(0u16, 0.9), (1, 0.05), (2, 0.05)];
        let mut g = PatternGen::periodic_resonant(8000, 8, 7, &overall, &class);
        let stream: Vec<u16> = (0..800_000).map(|_| g.next_object()).collect();

        let sample = |k: usize| -> f64 {
            let picks: Vec<u16> = stream.iter().skip(k - 1).step_by(k).copied().collect();
            picks.iter().filter(|&&v| v == 0).count() as f64 / picks.len() as f64
        };
        // Resonant: gcd(1000, 8000) = 8, so only class-7 positions are
        // observed (position k-1 = 999 = 7 mod 8).
        let resonant = sample(1000);
        assert!(
            resonant > 0.8,
            "resonant estimate {resonant} should be ~0.9"
        );
        // Coprime: 1009 is prime, gcd(1009, 8000) = 1.
        let fair = sample(1009);
        assert!(
            (fair - 0.4).abs() < 0.05,
            "fair estimate {fair} should be ~0.4"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds stride")]
    fn resonant_rejects_impossible_class_weights() {
        // Object 2 overall 0.01 but class weight 0.5 > 8 * 0.01.
        let overall = [(0u16, 0.5), (1, 0.49), (2, 0.01)];
        let class = [(0u16, 0.25), (1, 0.25), (2, 0.5)];
        PatternGen::periodic_resonant(800, 8, 0, &overall, &class);
    }
}
