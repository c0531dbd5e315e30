//! The performance-monitoring unit: counter file, global miss counter,
//! last-miss-address register, overflow and timer interrupt logic.

use crate::counter::{CounterId, RegionCounter};
use crate::fault::{FaultConfig, FaultModel, FaultTally};
use crate::{Addr, Cycle};

/// Static configuration of the simulated PMU.
#[derive(Debug, Clone)]
pub struct PmuConfig {
    /// Number of region-qualified miss counters (the paper's experiments
    /// assume ten for the 10-way search, two for the 2-way search).
    pub region_counters: usize,
}

impl Default for PmuConfig {
    fn default() -> Self {
        PmuConfig {
            region_counters: 10,
        }
    }
}

impl PmuConfig {
    /// The most region counters a configuration may ask for. Real PMUs
    /// carry a handful and the paper's widest search uses 10; the cap
    /// keeps a hostile count from sizing [`Pmu::new`]'s counter array.
    pub const MAX_REGION_COUNTERS: usize = 64;
}

/// An interrupt raised by the PMU, to be delivered by the simulation engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The global miss counter reached its programmed overflow threshold.
    MissOverflow,
    /// The virtual-cycle timer expired.
    Timer,
}

/// The simulated PMU register file.
///
/// The engine feeds every cache miss to [`Pmu::record_miss`] and polls for
/// pending interrupts with [`Pmu::take_pending`] at instruction boundaries.
/// Instrumentation code (running inside a delivered interrupt) reads and
/// reprograms the registers through the same struct; the engine charges the
/// access costs separately via the [`crate::CostModel`].
#[derive(Debug, Clone)]
pub struct Pmu {
    counters: Vec<RegionCounter>,
    /// How many of `counters` are currently enabled. Maintained by
    /// [`Pmu::program_counter`]/[`Pmu::disable_counter`] so
    /// [`Pmu::record_miss`] can skip the counter scan entirely on the
    /// (common) uninstrumented path where every counter is disabled.
    enabled_count: usize,
    /// Counts every cache miss regardless of address (the paper's extra
    /// "global" counter used to compute each region's percentage).
    global: u64,
    last_miss: Option<Addr>,
    /// Interrupt after this many further misses, if armed.
    overflow_remaining: Option<u64>,
    /// The period last armed via [`Pmu::arm_miss_overflow`] — kept so a
    /// dropped overflow can silently re-arm for a full further period.
    armed_period: Option<u64>,
    /// Absolute virtual cycle at which the timer fires, if armed.
    timer_deadline: Option<Cycle>,
    pending: Option<Interrupt>,
    /// While frozen (during interrupt handler execution) misses are not
    /// counted and do not update the last-miss register.
    frozen: bool,
    /// Tool-side activity tally (register-file traffic). Not part of the
    /// simulated machine state: reading it costs nothing and it survives
    /// freezes. Feeds the observability metrics snapshot.
    activity: PmuActivity,
    /// Fault injector, present only when a non-inert [`FaultConfig`] was
    /// supplied; `None` takes the exact fault-free code paths.
    faults: Option<FaultModel>,
}

/// How often each class of PMU register operation happened — tool-side
/// bookkeeping for the observability layer, free in simulated time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmuActivity {
    /// Region counter base/bound programmings.
    pub counter_programs: u64,
    /// Region counter disables.
    pub counter_disables: u64,
    /// Miss-overflow interrupt armings.
    pub overflow_arms: u64,
    /// Cycle-timer armings.
    pub timer_arms: u64,
    /// Miss-overflow interrupts latched.
    pub overflows_latched: u64,
    /// Timer interrupts latched.
    pub timers_latched: u64,
    /// Misses observed while counting was frozen (invisible to the
    /// instrumentation, visible to the tool).
    pub frozen_misses: u64,
}

impl Pmu {
    /// Create a fault-free PMU with `cfg.region_counters` disabled counters.
    pub fn new(cfg: &PmuConfig) -> Self {
        Pmu {
            counters: vec![RegionCounter::new(); cfg.region_counters],
            enabled_count: 0,
            global: 0,
            last_miss: None,
            overflow_remaining: None,
            armed_period: None,
            timer_deadline: None,
            pending: None,
            frozen: false,
            activity: PmuActivity::default(),
            faults: None,
        }
    }

    /// Create a PMU with fault injection per `faults`. An inert (all-zero)
    /// config builds no fault model at all, making this identical to
    /// [`Pmu::new`].
    pub fn with_faults(cfg: &PmuConfig, faults: &FaultConfig) -> Self {
        let mut pmu = Pmu::new(cfg);
        if !faults.is_inert() {
            pmu.faults = Some(FaultModel::new(faults));
        }
        pmu
    }

    /// Faults injected so far, if a fault model is active.
    pub fn fault_tally(&self) -> Option<FaultTally> {
        self.faults.as_ref().map(FaultModel::tally)
    }

    /// The tool-side activity tally (see [`PmuActivity`]).
    pub fn activity(&self) -> PmuActivity {
        self.activity
    }

    /// Number of region counters available.
    pub fn num_counters(&self) -> usize {
        self.counters.len()
    }

    /// Program region counter `id` to count misses in `[base, bound)`.
    pub fn program_counter(&mut self, id: CounterId, base: Addr, bound: Addr) {
        self.activity.counter_programs += 1;
        if !self.counters[id.index()].enabled() {
            self.enabled_count += 1;
        }
        self.counters[id.index()].program(base, bound);
    }

    /// Disable region counter `id`.
    pub fn disable_counter(&mut self, id: CounterId) {
        self.activity.counter_disables += 1;
        if self.counters[id.index()].enabled() {
            self.enabled_count -= 1;
        }
        self.counters[id.index()].disable();
    }

    /// Read region counter `id`'s current value. Under fault injection
    /// the read may be wrapped to the configured counter width and/or
    /// jittered; the underlying count is unaffected.
    pub fn read_counter(&mut self, id: CounterId) -> u64 {
        let v = self.counters[id.index()].count();
        match &mut self.faults {
            Some(f) => f.perturb_read(v),
            None => v,
        }
    }

    /// Access the raw counter (for inspection in tests and reports).
    pub fn counter(&self, id: CounterId) -> &RegionCounter {
        &self.counters[id.index()]
    }

    /// Read and reset the global (unqualified) miss counter. Fault
    /// perturbation applies to the returned value; the register itself is
    /// cleared exactly.
    pub fn read_and_clear_global(&mut self) -> u64 {
        let v = std::mem::take(&mut self.global);
        match &mut self.faults {
            Some(f) => f.perturb_read(v),
            None => v,
        }
    }

    /// Read the global miss counter without clearing it (fault
    /// perturbation applies, as for [`Pmu::read_counter`]).
    pub fn read_global(&mut self) -> u64 {
        match &mut self.faults {
            Some(f) => f.perturb_read(self.global),
            None => self.global,
        }
    }

    /// The address of the most recent counted cache miss, if any.
    pub fn last_miss_addr(&self) -> Option<Addr> {
        self.last_miss
    }

    /// Arm a miss-overflow interrupt `period` misses from now.
    ///
    /// `period` must be nonzero.
    pub fn arm_miss_overflow(&mut self, period: u64) {
        // check:allow(SamplingPeriod::check refuses 0; adaptive/jittered periods are floored)
        assert!(period > 0, "overflow period must be nonzero");
        self.activity.overflow_arms += 1;
        self.overflow_remaining = Some(period);
        self.armed_period = Some(period);
    }

    /// Disarm the miss-overflow interrupt.
    pub fn disarm_miss_overflow(&mut self) {
        self.overflow_remaining = None;
        self.armed_period = None;
    }

    /// Arm the cycle timer to fire at absolute virtual cycle `deadline`.
    pub fn arm_timer(&mut self, deadline: Cycle) {
        self.activity.timer_arms += 1;
        self.timer_deadline = Some(deadline);
    }

    /// Disarm the cycle timer.
    pub fn disarm_timer(&mut self) {
        self.timer_deadline = None;
    }

    /// The currently armed timer deadline, if any.
    pub fn timer_deadline(&self) -> Option<Cycle> {
        self.timer_deadline
    }

    /// Freeze counting while instrumentation runs (models counters being
    /// suspended during handler execution so the handler does not count its
    /// own misses).
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Resume counting after handler execution.
    pub fn unfreeze(&mut self) {
        self.frozen = false;
    }

    /// Is the PMU currently frozen?
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Feed one cache miss at `addr` into the PMU.
    ///
    /// Updates the global counter, the last-miss-address register and every
    /// enabled region counter covering `addr`; decrements the overflow
    /// countdown and latches a pending [`Interrupt::MissOverflow`] when it
    /// reaches zero. No-op while frozen.
    #[inline]
    pub fn record_miss(&mut self, addr: Addr) {
        if self.frozen {
            self.activity.frozen_misses += 1;
            return;
        }
        self.global += 1;
        // Under skid the last-miss register may report a stale address;
        // region counters always observe the true one (skid corrupts the
        // sample, not the conditional counting).
        self.last_miss = Some(match &mut self.faults {
            Some(f) => f.observe_miss(addr),
            None => addr,
        });
        if self.enabled_count > 0 {
            for c in &mut self.counters {
                c.observe(addr);
            }
        }
        let mut at_threshold = false;
        if let Some(rem) = &mut self.overflow_remaining {
            *rem -= 1;
            at_threshold = *rem == 0;
        }
        if at_threshold {
            if self.faults.as_mut().is_some_and(FaultModel::drop_overflow) {
                // Dropped: no interrupt; the countdown silently re-arms
                // for a full further period (the counter wrapped and will
                // fire a period late), so sampling loses samples but
                // never hangs.
                self.overflow_remaining = self.armed_period;
            } else {
                self.overflow_remaining = None;
                // An already-pending timer interrupt is not displaced; the
                // overflow is simply latched after it is handled. With a
                // single pending slot we prioritise the overflow, matching
                // hardware where the miss-overflow is the precise event.
                self.activity.overflows_latched += 1;
                self.pending = Some(Interrupt::MissOverflow);
            }
        }
        if let Some(f) = &mut self.faults {
            if f.spurious_overflow() && self.pending.is_none() {
                // A spurious overflow latches like a real one but leaves
                // any armed countdown untouched.
                self.activity.overflows_latched += 1;
                self.pending = Some(Interrupt::MissOverflow);
            }
        }
    }

    /// Latch a timer interrupt if the deadline has passed at `now`.
    #[inline]
    pub fn check_timer(&mut self, now: Cycle) {
        if let Some(deadline) = self.timer_deadline {
            if now >= deadline && self.pending.is_none() {
                self.timer_deadline = None;
                self.activity.timers_latched += 1;
                self.pending = Some(Interrupt::Timer);
            }
        }
    }

    /// Take the pending interrupt, if any (the engine delivers it).
    #[inline]
    pub fn take_pending(&mut self) -> Option<Interrupt> {
        self.pending.take()
    }

    /// Is an interrupt currently latched?
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// How many further misses [`Pmu::record_miss`] can take without
    /// latching an interrupt, so an engine may feed them with no poll.
    ///
    /// 0 while an interrupt is pending or while the fault model can latch
    /// a spurious one at any miss. `r − 1` for an overflow armed `r`
    /// misses out: each access adds at most one miss, and a dropped
    /// overflow only re-arms the countdown. Unbounded when no countdown
    /// is armed. Only handler code can arm one, and the timer is the
    /// engine's to bound (see [`Pmu::timer_deadline`]).
    #[inline]
    pub fn quiet_misses(&self) -> u64 {
        let spurious = |f: &FaultModel| f.config().spurious_rate > 0.0;
        if self.pending.is_some() || self.faults.as_ref().is_some_and(spurious) {
            return 0;
        }
        self.overflow_remaining.map_or(u64::MAX, |r| r - 1)
    }

    /// Extra virtual cycles the engine must charge before delivering the
    /// interrupt it just took (delayed-delivery fault; zero without one).
    pub fn take_delivery_delay(&mut self) -> u64 {
        match &mut self.faults {
            Some(f) => f.delivery_delay(),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pmu(n: usize) -> Pmu {
        Pmu::new(&PmuConfig { region_counters: n })
    }

    #[test]
    fn global_counter_counts_everything() {
        let mut p = pmu(2);
        p.record_miss(10);
        p.record_miss(1 << 40);
        assert_eq!(p.read_global(), 2);
        assert_eq!(p.read_and_clear_global(), 2);
        assert_eq!(p.read_global(), 0);
    }

    #[test]
    fn region_counters_are_address_qualified() {
        let mut p = pmu(2);
        p.program_counter(CounterId(0), 0, 100);
        p.program_counter(CounterId(1), 100, 200);
        p.record_miss(50);
        p.record_miss(150);
        p.record_miss(250);
        assert_eq!(p.read_counter(CounterId(0)), 1);
        assert_eq!(p.read_counter(CounterId(1)), 1);
        assert_eq!(p.read_global(), 3);
    }

    #[test]
    fn last_miss_register_tracks_most_recent() {
        let mut p = pmu(1);
        assert_eq!(p.last_miss_addr(), None);
        p.record_miss(123);
        p.record_miss(456);
        assert_eq!(p.last_miss_addr(), Some(456));
    }

    #[test]
    fn overflow_fires_after_exact_period() {
        let mut p = pmu(1);
        p.arm_miss_overflow(3);
        p.record_miss(1);
        p.record_miss(2);
        assert!(!p.has_pending());
        p.record_miss(3);
        assert_eq!(p.take_pending(), Some(Interrupt::MissOverflow));
        // One-shot until rearmed.
        p.record_miss(4);
        p.record_miss(5);
        p.record_miss(6);
        assert!(!p.has_pending());
    }

    #[test]
    fn timer_fires_at_or_after_deadline() {
        let mut p = pmu(1);
        p.arm_timer(1000);
        p.check_timer(999);
        assert!(!p.has_pending());
        p.check_timer(1000);
        assert_eq!(p.take_pending(), Some(Interrupt::Timer));
        // Disarmed after firing.
        p.check_timer(2000);
        assert!(!p.has_pending());
    }

    #[test]
    fn freeze_suppresses_counting_and_last_miss() {
        let mut p = pmu(1);
        p.program_counter(CounterId(0), 0, 1000);
        p.record_miss(1);
        p.freeze();
        p.record_miss(2);
        assert_eq!(p.read_global(), 1);
        assert_eq!(p.last_miss_addr(), Some(1));
        p.unfreeze();
        p.record_miss(3);
        assert_eq!(p.read_global(), 2);
        assert_eq!(p.read_counter(CounterId(0)), 2);
    }

    #[test]
    fn frozen_pmu_does_not_advance_overflow() {
        let mut p = pmu(1);
        p.arm_miss_overflow(1);
        p.freeze();
        p.record_miss(9);
        assert!(!p.has_pending());
        p.unfreeze();
        p.record_miss(9);
        assert_eq!(p.take_pending(), Some(Interrupt::MissOverflow));
    }

    #[test]
    fn pending_timer_not_displaced_by_second_check() {
        let mut p = pmu(1);
        p.arm_timer(10);
        p.check_timer(10);
        p.arm_timer(20);
        p.check_timer(30);
        // First pending still there; second deadline stays armed.
        assert_eq!(p.take_pending(), Some(Interrupt::Timer));
        p.check_timer(30);
        assert_eq!(p.take_pending(), Some(Interrupt::Timer));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_overflow_period_panics() {
        pmu(1).arm_miss_overflow(0);
    }

    #[test]
    fn activity_tally_tracks_register_traffic() {
        let mut p = pmu(2);
        p.program_counter(CounterId(0), 0, 100);
        p.program_counter(CounterId(1), 100, 200);
        p.disable_counter(CounterId(1));
        p.arm_miss_overflow(1);
        p.arm_timer(50);
        p.record_miss(5); // latches the overflow
        p.check_timer(10); // timer blocked by pending slot
        p.take_pending();
        p.check_timer(60); // now the timer latches
        p.freeze();
        p.record_miss(7); // invisible to counters, tallied as frozen
        p.unfreeze();
        let a = p.activity();
        assert_eq!(a.counter_programs, 2);
        assert_eq!(a.counter_disables, 1);
        assert_eq!(a.overflow_arms, 1);
        assert_eq!(a.timer_arms, 1);
        assert_eq!(a.overflows_latched, 1);
        assert_eq!(a.timers_latched, 1);
        assert_eq!(a.frozen_misses, 1);
    }

    #[test]
    fn disable_counter_stops_counting() {
        let mut p = pmu(1);
        p.program_counter(CounterId(0), 0, 100);
        p.record_miss(5);
        p.disable_counter(CounterId(0));
        p.record_miss(6);
        assert_eq!(p.read_counter(CounterId(0)), 1);
    }

    /// Property-style freeze/unfreeze accounting check: drive a PMU
    /// through pseudo-random freeze windows and verify every unfrozen
    /// miss is counted exactly once (globally and per matching region)
    /// and every frozen miss exactly zero times — the fault-free
    /// baseline the fault layer is diffed against.
    #[test]
    fn freeze_windows_never_lose_or_double_count_misses() {
        // Cheap LCG so the schedule is arbitrary but reproducible.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for trial in 0..50 {
            let mut p = pmu(2);
            p.program_counter(CounterId(0), 0, 500);
            p.program_counter(CounterId(1), 500, 1_000);
            let (mut live, mut frozen) = (0u64, 0u64);
            let (mut in_low, mut in_high) = (0u64, 0u64);
            for step in 0..2_000 {
                match next() % 7 {
                    0 => p.freeze(),
                    1 => p.unfreeze(),
                    _ => {
                        let addr = next() % 1_000;
                        p.record_miss(addr);
                        if p.is_frozen() {
                            frozen += 1;
                        } else {
                            live += 1;
                            if addr < 500 {
                                in_low += 1;
                            } else {
                                in_high += 1;
                            }
                        }
                        let _ = (trial, step);
                    }
                }
            }
            p.unfreeze();
            assert_eq!(p.read_global(), live);
            assert_eq!(p.read_counter(CounterId(0)), in_low);
            assert_eq!(p.read_counter(CounterId(1)), in_high);
            assert_eq!(p.activity().frozen_misses, frozen);
            assert_eq!(p.read_and_clear_global(), live);
            assert_eq!(p.read_global(), 0);
        }
    }

    #[test]
    fn quiet_misses_tracks_armed_state() {
        let mut p = pmu(1);
        assert_eq!(p.quiet_misses(), u64::MAX);
        p.arm_miss_overflow(2);
        assert_eq!(p.quiet_misses(), 1);
        p.record_miss(1);
        assert_eq!(p.quiet_misses(), 0); // the next miss latches
        p.record_miss(2);
        assert_eq!(p.quiet_misses(), 0); // pending slot occupied
        p.take_pending();
        assert_eq!(p.quiet_misses(), u64::MAX);
        // The timer bounds the clock, not the miss count: the engine
        // reads its deadline.
        p.arm_timer(10);
        assert_eq!(p.quiet_misses(), u64::MAX);
        assert_eq!(p.timer_deadline(), Some(10));
        p.disarm_timer();
        assert_eq!(p.quiet_misses(), u64::MAX);
        let faulty = |cfg: crate::FaultConfig| {
            let mut f = Pmu::with_faults(&PmuConfig { region_counters: 1 }, &cfg);
            f.arm_miss_overflow(5);
            f.quiet_misses()
        };
        // Skid and drops draw only at a miss or at the threshold, so the
        // countdown budget stands.
        let skid = crate::FaultConfig {
            skid_depth: 4,
            skid_rate: 1.0,
            seed: 1,
            ..Default::default()
        };
        assert_eq!(faulty(skid), 4);
        let drop = crate::FaultConfig {
            drop_rate: 1.0,
            seed: 1,
            ..Default::default()
        };
        assert_eq!(faulty(drop), 4);
        // A spurious latch can come at any miss.
        let spurious = crate::FaultConfig {
            spurious_rate: 0.1,
            seed: 1,
            ..Default::default()
        };
        assert_eq!(faulty(spurious.clone()), 0);
        let idle = Pmu::with_faults(&PmuConfig { region_counters: 1 }, &spurious);
        assert_eq!(idle.quiet_misses(), 0);
    }

    #[test]
    fn enabled_mask_survives_reprogram_and_double_disable() {
        let mut p = pmu(2);
        p.program_counter(CounterId(0), 0, 100);
        p.program_counter(CounterId(0), 0, 50); // reprogram: still one enabled
        p.record_miss(10);
        assert_eq!(p.read_counter(CounterId(0)), 1);
        p.disable_counter(CounterId(0));
        p.disable_counter(CounterId(0)); // double disable must not underflow
        p.record_miss(10); // scan skipped: nothing enabled
        p.program_counter(CounterId(1), 0, 100);
        p.record_miss(10);
        assert_eq!(p.read_counter(CounterId(1)), 1);
        // Disabled counters retain their last count and must not have
        // advanced past it.
        assert_eq!(p.read_counter(CounterId(0)), 1);
    }

    #[test]
    fn with_faults_inert_config_builds_no_model() {
        let cfg = PmuConfig { region_counters: 1 };
        let mut p = Pmu::with_faults(&cfg, &crate::FaultConfig::default());
        assert!(p.fault_tally().is_none());
        p.record_miss(7);
        assert_eq!(p.last_miss_addr(), Some(7));
        assert_eq!(p.read_global(), 1);
    }

    #[test]
    fn dropped_overflow_rearms_and_fires_a_period_late() {
        let cfg = PmuConfig { region_counters: 1 };
        // drop_rate 1.0: every threshold crossing is dropped, so with the
        // countdown re-arming the PMU never fires but also never hangs.
        let mut p = Pmu::with_faults(
            &cfg,
            &crate::FaultConfig {
                drop_rate: 1.0,
                seed: 3,
                ..Default::default()
            },
        );
        p.arm_miss_overflow(3);
        for a in 0..30 {
            p.record_miss(a);
            assert!(!p.has_pending());
        }
        assert_eq!(p.fault_tally().unwrap().dropped_overflows, 10);
        // The last drop re-armed a full period.
        assert_eq!(p.quiet_misses(), 2);
    }

    #[test]
    fn spurious_overflow_leaves_countdown_untouched() {
        let cfg = PmuConfig { region_counters: 1 };
        let mut p = Pmu::with_faults(
            &cfg,
            &crate::FaultConfig {
                spurious_rate: 1.0,
                seed: 3,
                ..Default::default()
            },
        );
        p.arm_miss_overflow(3);
        p.record_miss(1); // spurious latch; countdown at 2
        assert_eq!(p.take_pending(), Some(Interrupt::MissOverflow));
        p.record_miss(2);
        p.take_pending();
        p.record_miss(3); // real threshold: countdown reaches 0 here
        assert_eq!(p.take_pending(), Some(Interrupt::MissOverflow));
        // Countdown consumed: only spurious interrupts remain.
        let t = p.fault_tally().unwrap();
        assert_eq!(t.spurious_overflows, 3);
    }

    #[test]
    fn wrapped_reads_leave_true_count_intact() {
        let cfg = PmuConfig { region_counters: 1 };
        let mut p = Pmu::with_faults(
            &cfg,
            &crate::FaultConfig {
                wrap_bits: 2,
                seed: 1,
                ..Default::default()
            },
        );
        p.program_counter(CounterId(0), 0, 100);
        for a in 0..6 {
            p.record_miss(a);
        }
        // Reads wrap modulo 4; the architectural count is untouched.
        assert_eq!(p.read_counter(CounterId(0)), 2);
        assert_eq!(p.counter(CounterId(0)).count(), 6);
        assert_eq!(p.read_global(), 2);
    }
}
