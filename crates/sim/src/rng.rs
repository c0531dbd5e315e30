//! Self-contained pseudo-random number generation.
//!
//! The workloads and the jittered/adaptive sampler need a small, fast,
//! seedable PRNG. To keep the workspace dependency-free we carry our own:
//! xoshiro256++ (Blackman & Vigna) seeded through SplitMix64 — the same
//! algorithm `rand`'s 64-bit `SmallRng` uses — with the handful of
//! sampling helpers the codebase needs (`random::<f64>()`,
//! `random_range` over integer and float ranges).
//!
//! Everything here is deterministic given the seed; simulator results are
//! reproducible across runs and platforms.

use std::ops::{Range, RangeInclusive};

/// A small, fast, seedable PRNG (xoshiro256++). Not cryptographically
/// secure — this is simulation plumbing, not key material.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Seed the full 256-bit state from a single `u64` via SplitMix64,
    /// so nearby seeds still yield uncorrelated streams.
    pub fn seed_from_u64(mut state: u64) -> Self {
        const PHI: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut s = [0u64; 4];
        for slot in s.iter_mut() {
            state = state.wrapping_add(PHI);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *slot = z ^ (z >> 31);
        }
        SmallRng { s }
    }

    /// The next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let res = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        res
    }

    /// A uniformly random value of `T` (`u64` over its full range, `f64`
    /// uniform in `[0, 1)`).
    #[inline]
    pub fn random<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// A uniformly random value in `range`. Supports `Range`/
    /// `RangeInclusive` over `u64`/`usize` and `Range<f64>`.
    #[inline]
    pub fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Unbiased integer in `[0, bound)` by widening multiply with
    /// rejection (Lemire's nearly-divisionless method). `bound` must be
    /// non-zero.
    #[inline]
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "empty range");
        // Reject the first `2^64 mod bound` values of the low product
        // half so every output value is equally likely. That threshold
        // is below `bound`, so a low half at or above `bound` is
        // accepted without computing it.
        let mut m = u128::from(self.next_u64()) * u128::from(bound);
        if (m as u64) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(bound);
            }
        }
        (m >> 64) as u64
    }
}

/// Types that can be drawn uniformly from a [`SmallRng`].
pub trait FromRng {
    fn from_rng(rng: &mut SmallRng) -> Self;
}

impl FromRng for u64 {
    #[inline]
    fn from_rng(rng: &mut SmallRng) -> u64 {
        rng.next_u64()
    }
}

impl FromRng for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn from_rng(rng: &mut SmallRng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges [`SmallRng::random_range`] can sample from.
pub trait SampleRange<T> {
    fn sample(self, rng: &mut SmallRng) -> T;
}

impl SampleRange<u64> for Range<u64> {
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> u64 {
        // check:allow(an empty range is a caller bug; callers pass non-empty ranges)
        assert!(self.start < self.end, "empty range");
        self.start + rng.below(self.end - self.start)
    }
}

impl SampleRange<u64> for RangeInclusive<u64> {
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> u64 {
        let (lo, hi) = (*self.start(), *self.end());
        // check:allow(an empty range is a caller bug; callers pass non-empty ranges)
        assert!(lo <= hi, "empty range");
        if lo == 0 && hi == u64::MAX {
            return rng.next_u64();
        }
        lo + rng.below(hi - lo + 1)
    }
}

impl SampleRange<usize> for Range<usize> {
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> usize {
        // check:allow(an empty range is a caller bug; callers pass non-empty ranges)
        assert!(self.start < self.end, "empty range");
        self.start + rng.below((self.end - self.start) as u64) as usize
    }
}

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> f64 {
        // check:allow(an empty range is a caller bug; callers pass non-empty ranges)
        assert!(self.start < self.end, "empty range");
        let x: f64 = rng.random();
        self.start + (self.end - self.start) * x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn nearby_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = SmallRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        // Mean of 10k uniforms should be close to 0.5.
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn ranges_stay_in_bounds_and_hit_endpoints() {
        let mut r = SmallRng::seed_from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = r.random_range(10u64..15);
            assert!((10..15).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of a small range occur");

        for _ in 0..1000 {
            let v = r.random_range(3u64..=4);
            assert!(v == 3 || v == 4);
            let u = r.random_range(0usize..7);
            assert!(u < 7);
            let f = r.random_range(0.95f64..1.05);
            assert!((0.95..1.05).contains(&f));
        }
    }

    /// `below` as it was before the nearly-divisionless form: the
    /// threshold computed before every draw.
    fn below_oracle(rng: &mut SmallRng, bound: u64) -> u64 {
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let m = u128::from(rng.next_u64()) * u128::from(bound);
            if m as u64 >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    #[test]
    fn below_matches_the_threshold_first_oracle() {
        let bounds = [1, 3, 7, 8, (1u64 << 32) + 1, u64::MAX, (1 << 63) + 1];
        for seed in 0..16u64 {
            for &bound in &bounds {
                let mut a = SmallRng::seed_from_u64(seed);
                let mut b = a.clone();
                for _ in 0..2_000 {
                    assert_eq!(a.below(bound), below_oracle(&mut b, bound), "bound {bound}");
                }
                // Same draws consumed, so the streams stay in step.
                assert_eq!(a, b, "seed {seed} bound {bound}");
            }
        }
    }

    #[test]
    fn small_bound_is_roughly_uniform() {
        let mut r = SmallRng::seed_from_u64(11);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[r.random_range(0usize..3)] += 1;
        }
        for c in counts {
            assert!((c as i64 - 10_000).abs() < 600, "{counts:?}");
        }
    }
}
