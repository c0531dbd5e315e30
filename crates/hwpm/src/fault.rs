//! Deterministic fault injection for the simulated PMU.
//!
//! The rest of the workspace assumes a *perfect* PMU: every miss counted,
//! every overflow interrupt delivered instantly, the last-miss-address
//! register always exact. Real hardware monitors are messier — the
//! R10000/Itanium-class counters the paper targets exhibit interrupt
//! *skid* (the sampled address lags the triggering miss), occasionally
//! drop or spuriously raise overflow interrupts, wrap at finite counter
//! widths, and deliver interrupts late. [`FaultModel`] injects exactly
//! those imperfections into [`crate::Pmu`], each independently rated by a
//! [`FaultConfig`] and driven by a self-contained seeded PRNG so every
//! faulty run is reproducible bit-for-bit.
//!
//! The zero-valued [`FaultConfig`] is **inert**: [`crate::Pmu::with_faults`]
//! builds no model at all for it, so the fault layer provably cannot
//! perturb fault-free experiments.

use crate::Addr;

/// Rates and parameters for each injected fault class. The default
/// (all-zero) configuration is inert: no model is constructed, no random
/// numbers are drawn, and the PMU behaves exactly as without this module.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Maximum skid depth: when a sample skids, the last-miss-address
    /// register reports a miss up to this many references old.
    pub skid_depth: usize,
    /// Probability that a recorded miss updates the last-miss-address
    /// register with a stale (skidded) address instead of its own.
    pub skid_rate: f64,
    /// Probability that an overflow which reaches its threshold is
    /// silently dropped; the counter re-arms for a full further period
    /// (models the counter wrapping and firing one period later).
    pub drop_rate: f64,
    /// Per-miss probability of latching a spurious overflow interrupt
    /// that no programmed countdown asked for.
    pub spurious_rate: f64,
    /// Counter read width in bits (e.g. 32); reads are truncated modulo
    /// `2^wrap_bits`. Zero means full 64-bit reads (off).
    pub wrap_bits: u32,
    /// Extra virtual cycles between an interrupt being latched and its
    /// handler running (charged by the engine at delivery).
    pub delivery_delay_cycles: u64,
    /// Relative read jitter: each counter read is perturbed by a factor
    /// uniform in `1 ± read_jitter`. Zero means exact reads.
    pub read_jitter: f64,
    /// PRNG seed for all fault draws.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            skid_depth: 0,
            skid_rate: 0.0,
            drop_rate: 0.0,
            spurious_rate: 0.0,
            wrap_bits: 0,
            delivery_delay_cycles: 0,
            read_jitter: 0.0,
            seed: 0,
        }
    }
}

impl FaultConfig {
    /// The deepest skid a run may ask for (real PMUs skid a few references; committed
    /// configurations use 4 and 8): it keeps a hostile depth from sizing the skid ring.
    pub const MAX_SKID_DEPTH: usize = 1024;

    /// True when no fault class is active: the PMU takes its fault-free
    /// fast path and the seed is irrelevant.
    pub fn is_inert(&self) -> bool {
        self.skid_rate == 0.0
            && self.drop_rate == 0.0
            && self.spurious_rate == 0.0
            && self.wrap_bits == 0
            && self.delivery_delay_cycles == 0
            && self.read_jitter == 0.0
    }
}

/// How many faults of each class a [`FaultModel`] has injected so far.
/// Tool-side bookkeeping, free in simulated time; feeds the
/// `hwpm.faults_injected` observability metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// Samples whose last-miss address was replaced by a stale one.
    pub skidded_samples: u64,
    /// Overflow interrupts suppressed at their threshold.
    pub dropped_overflows: u64,
    /// Overflow interrupts latched with no countdown behind them.
    pub spurious_overflows: u64,
    /// Counter reads truncated by the wrap mask.
    pub wrapped_reads: u64,
    /// Interrupt deliveries charged extra latency.
    pub delayed_deliveries: u64,
    /// Counter reads perturbed by jitter.
    pub jittered_reads: u64,
}

impl FaultTally {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.skidded_samples
            + self.dropped_overflows
            + self.spurious_overflows
            + self.wrapped_reads
            + self.delayed_deliveries
            + self.jittered_reads
    }
}

/// xoshiro256++ seeded via SplitMix64 — the same generator the simulator
/// uses, duplicated here because `cachescope-hwpm` sits below
/// `cachescope-sim` in the dependency order. Self-contained so fault
/// draws never perturb (or are perturbed by) any other random stream.
#[derive(Debug, Clone)]
struct FaultRng {
    s: [u64; 4],
}

impl FaultRng {
    fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        FaultRng {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let res = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        res
    }

    /// Uniform f64 in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in [0, bound) without modulo bias (Lemire's
    /// nearly-divisionless method: the rejection threshold `2^64 mod
    /// bound` is below `bound`, so it is computed only for a low product
    /// half under `bound`).
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let mut m = (self.next_u64() as u128) * (bound as u128);
        if (m as u64) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = (self.next_u64() as u128) * (bound as u128);
            }
        }
        (m >> 64) as u64
    }
}

/// Runtime state of the fault injector: the configuration, its private
/// PRNG, the ring of recent miss addresses (for skid), and the running
/// [`FaultTally`].
///
/// Draw discipline: a random number is drawn for a fault class only when
/// that class's rate is nonzero, in a fixed order per PMU operation —
/// skid, then drop (only at an overflow threshold), then spurious. Same
/// config + seed therefore always yields the identical fault sequence.
#[derive(Debug, Clone)]
pub struct FaultModel {
    cfg: FaultConfig,
    rng: FaultRng,
    /// The most recent *true* miss addresses, in a ring of
    /// `skid_depth.max(1)` slots (none without skid); a skidded sample
    /// reports one of these.
    recent: Box<[Addr]>,
    /// The ring slot the next miss address goes into.
    head: usize,
    /// Addresses held so far, up to the ring's length.
    held: usize,
    tally: FaultTally,
}

impl FaultModel {
    /// A model for `cfg`, seeded from `cfg.seed`.
    pub fn new(cfg: &FaultConfig) -> Self {
        let ring = if cfg.skid_rate > 0.0 {
            cfg.skid_depth.max(1)
        } else {
            0
        };
        FaultModel {
            cfg: cfg.clone(),
            rng: FaultRng::new(cfg.seed),
            recent: vec![0; ring].into_boxed_slice(),
            head: 0,
            held: 0,
            tally: FaultTally::default(),
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Faults injected so far.
    pub fn tally(&self) -> FaultTally {
        self.tally
    }

    /// Observe one true miss address; returns the address the last-miss
    /// register should report (the true one, or a stale one under skid).
    /// Region counters always see the true address — skid corrupts the
    /// *sampled* address, not the conditional counting.
    pub fn observe_miss(&mut self, addr: Addr) -> Addr {
        let depth = self.recent.len();
        let reported = if self.cfg.skid_rate > 0.0
            && self.held > 0
            && self.rng.next_f64() < self.cfg.skid_rate
        {
            // Lag uniformly 1..=depth references behind (bounded by
            // what has actually been seen): the slot `lag` behind the
            // head, wrapping.
            let lag = 1 + self.rng.below(self.held as u64) as usize;
            self.tally.skidded_samples += 1;
            let i = if lag <= self.head {
                self.head - lag
            } else {
                self.head + depth - lag
            };
            self.recent[i]
        } else {
            addr
        };
        if self.cfg.skid_rate > 0.0 {
            self.recent[self.head] = addr;
            self.head += 1;
            if self.head == depth {
                self.head = 0;
            }
            self.held = (self.held + 1).min(depth);
        }
        reported
    }

    /// Should the overflow that just reached its threshold be dropped?
    pub fn drop_overflow(&mut self) -> bool {
        if self.cfg.drop_rate > 0.0 && self.rng.next_f64() < self.cfg.drop_rate {
            self.tally.dropped_overflows += 1;
            true
        } else {
            false
        }
    }

    /// Should this miss latch a spurious overflow interrupt?
    pub fn spurious_overflow(&mut self) -> bool {
        if self.cfg.spurious_rate > 0.0 && self.rng.next_f64() < self.cfg.spurious_rate {
            self.tally.spurious_overflows += 1;
            true
        } else {
            false
        }
    }

    /// Apply wraparound then read jitter to a counter value being read.
    pub fn perturb_read(&mut self, v: u64) -> u64 {
        let mut out = v;
        if self.cfg.wrap_bits > 0 && self.cfg.wrap_bits < 64 {
            let wrapped = out & ((1u64 << self.cfg.wrap_bits) - 1);
            if wrapped != out {
                self.tally.wrapped_reads += 1;
            }
            out = wrapped;
        }
        if self.cfg.read_jitter > 0.0 {
            let f = self.rng.next_f64();
            let factor = 1.0 + self.cfg.read_jitter * (2.0 * f - 1.0);
            let jittered = ((out as f64) * factor).round().max(0.0) as u64;
            if jittered != out {
                self.tally.jittered_reads += 1;
            }
            out = jittered;
        }
        out
    }

    /// Extra cycles to charge for this interrupt delivery.
    pub fn delivery_delay(&mut self) -> u64 {
        if self.cfg.delivery_delay_cycles > 0 {
            self.tally.delayed_deliveries += 1;
        }
        self.cfg.delivery_delay_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faulty() -> FaultConfig {
        FaultConfig {
            skid_depth: 4,
            skid_rate: 0.5,
            drop_rate: 0.3,
            spurious_rate: 0.1,
            wrap_bits: 8,
            delivery_delay_cycles: 50,
            read_jitter: 0.1,
            seed: 42,
        }
    }

    #[test]
    fn default_config_is_inert() {
        assert!(FaultConfig::default().is_inert());
        assert!(!faulty().is_inert());
        // Each individual knob breaks inertness.
        for cfg in [
            FaultConfig {
                skid_rate: 0.1,
                ..Default::default()
            },
            FaultConfig {
                drop_rate: 0.1,
                ..Default::default()
            },
            FaultConfig {
                spurious_rate: 0.1,
                ..Default::default()
            },
            FaultConfig {
                wrap_bits: 32,
                ..Default::default()
            },
            FaultConfig {
                delivery_delay_cycles: 1,
                ..Default::default()
            },
            FaultConfig {
                read_jitter: 0.1,
                ..Default::default()
            },
        ] {
            assert!(!cfg.is_inert(), "{cfg:?} should not be inert");
        }
        // The seed alone does not make a config active.
        assert!(FaultConfig {
            seed: 7,
            ..Default::default()
        }
        .is_inert());
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let cfg = faulty();
        let mut a = FaultModel::new(&cfg);
        let mut b = FaultModel::new(&cfg);
        for i in 0..10_000u64 {
            assert_eq!(a.observe_miss(i), b.observe_miss(i));
            assert_eq!(a.drop_overflow(), b.drop_overflow());
            assert_eq!(a.spurious_overflow(), b.spurious_overflow());
            assert_eq!(a.perturb_read(i * 3), b.perturb_read(i * 3));
        }
        assert_eq!(a.tally(), b.tally());
        assert!(a.tally().total() > 0);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultModel::new(&faulty());
        let mut b = FaultModel::new(&FaultConfig {
            seed: 43,
            ..faulty()
        });
        let same = (0..1_000u64)
            .filter(|&i| a.observe_miss(i) == b.observe_miss(i))
            .count();
        assert!(same < 1_000);
    }

    #[test]
    fn skid_reports_a_recent_true_address() {
        let mut m = FaultModel::new(&FaultConfig {
            skid_depth: 4,
            skid_rate: 1.0,
            seed: 1,
            ..Default::default()
        });
        // The very first miss has no history to skid into.
        assert_eq!(m.observe_miss(100), 100);
        for i in 101..200u64 {
            let r = m.observe_miss(i);
            // Always a strictly older address, within the skid window.
            assert!(r < i && r >= i - 4, "reported {r} for miss {i}");
        }
        assert_eq!(m.tally().skidded_samples, 99);
    }

    /// `FaultRng::below` before the nearly-divisionless form: the
    /// threshold computed before every draw.
    fn below_oracle(rng: &mut FaultRng, bound: u64) -> u64 {
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let m = (rng.next_u64() as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    #[test]
    fn below_matches_the_threshold_first_oracle() {
        let bounds = [1, 3, 7, 8, (1u64 << 32) + 1, u64::MAX, (1 << 63) + 1];
        for seed in 0..16u64 {
            for &bound in &bounds {
                let mut a = FaultRng::new(seed);
                let mut b = a.clone();
                for _ in 0..2_000 {
                    assert_eq!(a.below(bound), below_oracle(&mut b, bound), "bound {bound}");
                }
                // Same draws consumed, so the streams stay in step.
                assert_eq!(a.s, b.s, "seed {seed} bound {bound}");
            }
        }
    }

    /// The skid history before the ring: a deque, newest last, trimmed
    /// to `skid_depth.max(1)` after each push, drawing through the
    /// threshold-first `below`.
    #[test]
    fn skid_ring_matches_the_deque_oracle() {
        for depth in [0usize, 1, 2, 3, 8] {
            for seed in 0..4u64 {
                let cfg = FaultConfig {
                    skid_depth: depth,
                    skid_rate: 0.7,
                    seed,
                    ..Default::default()
                };
                let mut model = FaultModel::new(&cfg);
                let mut rng = FaultRng::new(seed);
                let mut recent = std::collections::VecDeque::new();
                let mut addrs = FaultRng::new(seed ^ 0xadd5);
                for _ in 0..5_000 {
                    let addr = addrs.next_u64();
                    let want = if !recent.is_empty() && rng.next_f64() < cfg.skid_rate {
                        let avail = recent.len().min(depth.max(1));
                        let lag = 1 + below_oracle(&mut rng, avail as u64) as usize;
                        recent[recent.len() - lag]
                    } else {
                        addr
                    };
                    recent.push_back(addr);
                    while recent.len() > depth.max(1) {
                        recent.pop_front();
                    }
                    assert_eq!(model.observe_miss(addr), want, "depth {depth} seed {seed}");
                }
                assert!(model.tally().skidded_samples > 0);
            }
        }
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let mut m = FaultModel::new(&FaultConfig {
            drop_rate: 0.25,
            seed: 9,
            ..Default::default()
        });
        let dropped = (0..10_000).filter(|_| m.drop_overflow()).count();
        assert!((2_000..3_000).contains(&dropped), "dropped {dropped}");
    }

    #[test]
    fn wrap_masks_at_configured_width() {
        let mut m = FaultModel::new(&FaultConfig {
            wrap_bits: 8,
            seed: 1,
            ..Default::default()
        });
        assert_eq!(m.perturb_read(255), 255);
        assert_eq!(m.perturb_read(256), 0);
        assert_eq!(m.perturb_read(300), 44);
        assert_eq!(m.tally().wrapped_reads, 2);
    }

    #[test]
    fn jitter_stays_within_band() {
        let mut m = FaultModel::new(&FaultConfig {
            read_jitter: 0.1,
            seed: 5,
            ..Default::default()
        });
        for _ in 0..1_000 {
            let v = m.perturb_read(10_000);
            assert!((9_000..=11_000).contains(&v), "jittered to {v}");
        }
        assert!(m.tally().jittered_reads > 0);
    }

    #[test]
    fn delivery_delay_is_constant_and_tallied() {
        let mut m = FaultModel::new(&FaultConfig {
            delivery_delay_cycles: 75,
            seed: 1,
            ..Default::default()
        });
        assert_eq!(m.delivery_delay(), 75);
        assert_eq!(m.delivery_delay(), 75);
        assert_eq!(m.tally().delayed_deliveries, 2);
    }

    #[test]
    fn tally_total_sums_all_classes() {
        let t = FaultTally {
            skidded_samples: 1,
            dropped_overflows: 2,
            spurious_overflows: 3,
            wrapped_reads: 4,
            delayed_deliveries: 5,
            jittered_reads: 6,
        };
        assert_eq!(t.total(), 21);
    }
}
