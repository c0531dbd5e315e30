//! Cache-miss address sampling (paper section 2.1).
//!
//! Program the global miss counter to raise an overflow interrupt every
//! *k* misses. The interrupt handler reads the last-miss-address register,
//! resolves the address through the object map (symbol table + heap tree),
//! increments the containing object's count, and re-arms the counter.
//! After a representative run, objects ranked by sample count estimate the
//! ranking by total misses — *if* the samples are unbiased.
//!
//! Section 3.1's cautionary result is about exactly that bias: a fixed
//! period of 50,000 resonates with tomcatv's periodic access pattern
//! (estimating RX at 37.1% against an actual 22.5%), while a nearby prime
//! (50,111) or a pseudo-random interval samples fairly. All three policies
//! are available as [`SamplingPeriod`] variants.

use cachescope_sim::rng::SmallRng;

use cachescope_hwpm::Interrupt;
use cachescope_objmap::{AccessTrace, ObjectMap};
use cachescope_obs::ObsEvent;
use cachescope_sim::{Addr, AddressSpace, EngineCtx, Handler, ObjectDecl};

use crate::results::{Estimate, TechniqueReport};
use crate::technique::replay_trace;

/// How the next sampling interval is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplingPeriod {
    /// A fixed interval: one sample every `k` misses.
    Fixed(u64),
    /// A pseudo-random interval uniform in `[base - spread, base + spread]`
    /// (the paper's suggested fix for resonance, section 3.1).
    Jittered { base: u64, spread: u64, seed: u64 },
    /// Self-tuning (the paper's section 5: parameters "adjusted
    /// automatically by the algorithms in order to achieve greater
    /// accuracy and efficiency"): the sampler observes the application's
    /// cycles-per-miss between interrupts and continuously re-derives the
    /// period that keeps instrumentation overhead near
    /// `target_overhead_pct` percent of execution time. A ±5% jitter is
    /// applied so the tuned period can never resonate with the
    /// application's access pattern.
    Adaptive {
        initial: u64,
        target_overhead_pct: f64,
        seed: u64,
    },
}

impl SamplingPeriod {
    /// The period-legality rule behind [`crate::TechniqueConfig::parse_spec`]
    /// and `check`'s CS-P003: a fixed period must be non-zero, a jittered
    /// spread below its base, an adaptive target finite and positive.
    pub fn check(&self) -> Result<(), String> {
        match *self {
            SamplingPeriod::Fixed(0) => Err("sampling period is zero".to_string()),
            SamplingPeriod::Jittered { base, spread, .. } if spread >= base => Err(format!(
                "jittered period [{base}-{spread}, {base}+{spread}] can reach zero"
            )),
            SamplingPeriod::Adaptive {
                target_overhead_pct: t,
                ..
            } if !(t.is_finite() && t > 0.0) => Err(format!(
                "adaptive overhead target {t}% is not a finite positive percentage"
            )),
            _ => Ok(()),
        }
    }
}

/// Sampler configuration.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    pub period: SamplingPeriod,
    /// Fixed handler cost in cycles, excluding interrupt delivery and map
    /// probes (calibrated so one sample costs ~9,000 cycles total,
    /// matching section 3.3).
    pub fixed_handler_cycles: u64,
    /// The tool's estimate of the total cost of one sample (delivery +
    /// handler), used by the adaptive policy to convert an overhead
    /// budget into a period. The paper's measured value is ~9,000 cycles.
    pub assumed_sample_cost: u64,
    /// Compute cycles per simulated-memory word touched during map
    /// lookups and count updates.
    pub probe_cycles: u64,
    /// Aggregate samples for heap blocks that share an allocation-site
    /// name into one logical object (the paper's section 5 extension for
    /// "related blocks of dynamically allocated memory (for instance, the
    /// nodes of a tree)"). Anonymous blocks are never merged.
    pub aggregate_heap_names: bool,
    /// Measurement hardening against PMU faults: cross-check each
    /// interrupt against the global miss counter's progress, rejecting
    /// spurious interrupts (progress far below the armed period) and
    /// repeat samples inside suspect intervals, counting intervals that
    /// ran long (dropped overflows) and flagging the report degraded
    /// when too many did. On a fault-free PMU every check passes, so
    /// hardening only adds the cross-check's register-read cost.
    pub hardened: bool,
}

impl SamplerConfig {
    /// Sample once every `k` misses.
    pub fn fixed(k: u64) -> Self {
        SamplerConfig {
            period: SamplingPeriod::Fixed(k),
            fixed_handler_cycles: 80,
            probe_cycles: 10,
            assumed_sample_cost: 9_000,
            aggregate_heap_names: false,
            hardened: false,
        }
    }

    /// Enable measurement hardening (see [`SamplerConfig::hardened`]).
    pub fn hardened(mut self) -> Self {
        self.hardened = true;
        self
    }

    /// Sample with a pseudo-random interval around `base`.
    pub fn jittered(base: u64, spread: u64, seed: u64) -> Self {
        SamplerConfig {
            period: SamplingPeriod::Jittered { base, spread, seed },
            ..SamplerConfig::fixed(base)
        }
    }

    /// Self-tuning sampler targeting `target_overhead_pct` percent of
    /// execution time spent in instrumentation. The target is legal when
    /// [`SamplingPeriod::check`] accepts it.
    pub fn adaptive(target_overhead_pct: f64) -> Self {
        SamplerConfig {
            period: SamplingPeriod::Adaptive {
                initial: 10_000,
                target_overhead_pct,
                seed: 0xADA7,
            },
            ..SamplerConfig::fixed(10_000)
        }
    }

    /// Report label, e.g. `sampling(50000)`.
    pub fn label(&self) -> String {
        let base = match self.period {
            SamplingPeriod::Fixed(k) => format!("sampling({k})"),
            SamplingPeriod::Jittered { base, spread, .. } => {
                format!("sampling({base}±{spread})")
            }
            SamplingPeriod::Adaptive {
                target_overhead_pct,
                ..
            } => format!("sampling(adaptive {target_overhead_pct}%)"),
        };
        if self.hardened {
            format!("{base}+hardened")
        } else {
            base
        }
    }

    /// Canonical JSON for content-addressed caching: every field that can
    /// change a simulation result appears, in a fixed key order, so equal
    /// configurations render to identical bytes.
    pub fn to_json(&self) -> cachescope_obs::Json {
        use cachescope_obs::Json;
        let period = match self.period {
            SamplingPeriod::Fixed(k) => {
                Json::obj(vec![("kind", Json::str("fixed")), ("k", Json::Uint(k))])
            }
            SamplingPeriod::Jittered { base, spread, seed } => Json::obj(vec![
                ("kind", Json::str("jittered")),
                ("base", Json::Uint(base)),
                ("spread", Json::Uint(spread)),
                ("seed", Json::Uint(seed)),
            ]),
            SamplingPeriod::Adaptive {
                initial,
                target_overhead_pct,
                seed,
            } => Json::obj(vec![
                ("kind", Json::str("adaptive")),
                ("initial", Json::Uint(initial)),
                ("target_overhead_pct", Json::Float(target_overhead_pct)),
                ("seed", Json::Uint(seed)),
            ]),
        };
        let mut fields = vec![
            ("period", period),
            (
                "fixed_handler_cycles",
                Json::Uint(self.fixed_handler_cycles),
            ),
            ("assumed_sample_cost", Json::Uint(self.assumed_sample_cost)),
            ("probe_cycles", Json::Uint(self.probe_cycles)),
            ("aggregate", Json::Bool(self.aggregate_heap_names)),
        ];
        // Appended only when set, so pre-hardening cache keys and hashes
        // are preserved for every existing configuration.
        if self.hardened {
            fields.push(("hardened", Json::Bool(true)));
        }
        Json::obj(fields)
    }
}

/// The sampling technique, run as a simulation [`Handler`].
///
/// ```
/// use cachescope_core::{Sampler, SamplerConfig};
/// use cachescope_sim::{Engine, Program, RunLimit, SimConfig};
/// use cachescope_workloads::spec::{self, Scale};
///
/// let mut app = spec::mgrid(Scale::Test);
/// let mut sampler = Sampler::new(SamplerConfig::fixed(500), &app.static_objects());
/// let mut engine = Engine::new(SimConfig::default());
/// engine.run(&mut app, &mut sampler, RunLimit::AppMisses(100_000));
///
/// let report = sampler.report();
/// let (rank, pct) = report.rank_of("U").unwrap();
/// assert!(rank <= 2 && (pct - 40.8).abs() < 4.0);
/// ```
pub struct Sampler {
    cfg: SamplerConfig,
    map: ObjectMap,
    /// Per-object sample counts, indexed by the map's object ids.
    counts: Vec<u64>,
    /// Samples whose address resolved to no known object.
    unknown: u64,
    /// Simulated base address of the count array.
    counts_base: Addr,
    rng: Option<SmallRng>,
    trace: AccessTrace,
    samples: u64,
    /// Adaptive-policy state: period currently in force and the virtual
    /// time at which the previous handler returned.
    current_period: u64,
    last_return: u64,
    /// Hardening state: cumulative global-counter value at the previous
    /// accepted interrupt, the previous sample's address, and tallies of
    /// rejected samples and long (dropped-overflow) intervals.
    last_global: u64,
    last_sample_addr: Option<Addr>,
    rejected_spurious: u64,
    rejected_repeat: u64,
    dropped_intervals: u64,
    intervals_seen: u64,
}

impl Sampler {
    /// Build a sampler over the program's static declarations; heap
    /// blocks are learned from allocator events during the run.
    pub fn new(cfg: SamplerConfig, decls: &[ObjectDecl]) -> Self {
        let mut aspace = AddressSpace::new(64);
        let map = ObjectMap::new(decls, &mut aspace);
        // Generous reservation: one u64 slot per object, up to 64Ki.
        let counts_base = aspace.alloc_instr(64 * 1024 * 8);
        let rng = match cfg.period {
            SamplingPeriod::Jittered { seed, .. } | SamplingPeriod::Adaptive { seed, .. } => {
                Some(SmallRng::seed_from_u64(seed))
            }
            SamplingPeriod::Fixed(_) => None,
        };
        let current_period = match cfg.period {
            SamplingPeriod::Fixed(k) => k,
            SamplingPeriod::Jittered { base, .. } => base,
            SamplingPeriod::Adaptive { initial, .. } => initial,
        };
        Sampler {
            counts: vec![0; map.len()],
            map,
            unknown: 0,
            counts_base,
            rng,
            trace: AccessTrace::new(),
            samples: 0,
            current_period,
            last_return: 0,
            last_global: 0,
            last_sample_addr: None,
            rejected_spurious: 0,
            rejected_repeat: 0,
            dropped_intervals: 0,
            intervals_seen: 0,
            cfg,
        }
    }

    /// The sampling period currently in force (fixed, last jitter draw,
    /// or the adaptive policy's latest choice).
    pub fn current_period(&self) -> u64 {
        self.current_period
    }

    /// Total samples taken.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Samples that could not be attributed to any object.
    pub fn unknown_samples(&self) -> u64 {
        self.unknown
    }

    /// Interrupts the hardened sampler rejected (spurious + repeat).
    pub fn rejected_samples(&self) -> u64 {
        self.rejected_spurious + self.rejected_repeat
    }

    /// Accepted intervals that ran well past the armed period — the
    /// hardened sampler's evidence of dropped overflow interrupts.
    pub fn dropped_intervals(&self) -> u64 {
        self.dropped_intervals
    }

    /// Did enough intervals run long that the sample population is
    /// starved and the ranking should not be trusted? (> 5% of accepted
    /// intervals show a dropped overflow.)
    fn is_degraded(&self) -> bool {
        self.cfg.hardened && self.dropped_intervals * 20 > self.intervals_seen
    }

    /// Pick the next interval. `elapsed` is the virtual time since the
    /// previous handler returned (application work plus this interrupt's
    /// delivery), used by the adaptive policy.
    fn next_period(&mut self, elapsed: u64) -> u64 {
        match self.cfg.period {
            SamplingPeriod::Fixed(k) => k,
            SamplingPeriod::Jittered { base, spread, .. } => {
                // check:allow(rng is constructed whenever the period is jittered)
                let rng = self.rng.as_mut().expect("jittered sampler has rng");
                let lo = base.saturating_sub(spread).max(1);
                let hi = base + spread;
                rng.random_range(lo..=hi)
            }
            SamplingPeriod::Adaptive {
                target_overhead_pct,
                ..
            } => {
                let cost = self.cfg.assumed_sample_cost;
                // Application cycles per miss, observed over the last
                // period (the elapsed window minus this delivery).
                let app_cycles = elapsed.saturating_sub(cost).max(1);
                let cpm = (app_cycles as f64 / self.current_period as f64).max(0.01);
                // overhead = cost / (cost + period * cpm)  =>  solve for
                // the period that hits the target.
                let t = target_overhead_pct / 100.0;
                let ideal = cost as f64 * (1.0 - t) / (t * cpm);
                // Smooth (EMA) to damp phase noise, then jitter +-5% so
                // the tuned period cannot resonate with the application.
                let smoothed = 0.5 * self.current_period as f64 + 0.5 * ideal;
                let clamped = smoothed.clamp(50.0, 1.0e8);
                // check:allow(rng is constructed whenever the period is adaptive)
                let rng = self.rng.as_mut().expect("adaptive sampler has rng");
                let jitter = rng.random_range(0.95..1.05);
                ((clamped * jitter) as u64).max(50)
            }
        }
    }

    /// The ranked estimates. Percentages are over *all* samples including
    /// unattributable ones, matching the paper's tables (which sum below
    /// 100% when stack misses exist).
    ///
    /// With [`SamplerConfig::aggregate_heap_names`] set, same-named heap
    /// blocks (instances from one allocation site) merge into one row.
    pub fn report(&self) -> TechniqueReport {
        let total = self.samples.max(1) as f64;
        let mut ests: Vec<Estimate> = Vec::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let obj = &self.map.objects()[i];
            let merged = self.cfg.aggregate_heap_names
                && obj.kind == cachescope_sim::ObjectKind::Heap
                && !obj.name.starts_with("0x");
            if merged {
                if let Some(e) = ests.iter_mut().find(|e| e.name == obj.name) {
                    e.weight += c;
                    e.pct += c as f64 * 100.0 / total;
                    continue;
                }
            }
            ests.push(Estimate {
                name: obj.name.clone(),
                pct: c as f64 * 100.0 / total,
                weight: c,
            });
        }
        ests.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.name.cmp(&b.name)));
        // Sample starvation from dropped overflows biases the whole
        // population, so the degraded flag covers every estimate: "these
        // ranks were measured under a faulty PMU, do not trust them".
        let degraded = if self.is_degraded() {
            ests.iter().map(|e| e.name.clone()).collect()
        } else {
            Vec::new()
        };
        TechniqueReport {
            estimates: ests,
            label: self.cfg.label(),
            unattributed_weight: self.unknown,
            degraded,
        }
    }
}

impl Handler for Sampler {
    fn init(&mut self, ctx: &mut EngineCtx) {
        self.samples = 0;
        self.last_return = ctx.now();
        let now = ctx.now();
        ctx.obs().emit(ObsEvent::SamplerPeriod {
            now,
            period: self.current_period,
            reason: "initial",
        });
        ctx.arm_miss_overflow(self.current_period);
    }

    fn on_interrupt(&mut self, intr: Interrupt, ctx: &mut EngineCtx) {
        if intr != Interrupt::MissOverflow {
            return;
        }
        let elapsed = ctx.now().saturating_sub(self.last_return);
        if ctx.obs().profiler.is_enabled() {
            // Interval-length histogram, profiled runs only: unprofiled
            // metric snapshots must stay byte-stable for the golden gates.
            ctx.obs()
                .metrics
                .observe("sampler.interval_cycles", elapsed);
        }
        ctx.charge(self.cfg.fixed_handler_cycles);
        // Hardening: cross-check the interrupt against the global
        // counter's progress since the last accepted one. On a fault-free
        // PMU the delta equals the armed period exactly (the counter is
        // frozen while handlers run), so none of these paths trigger.
        let mut interval_suspect = false;
        if self.cfg.hardened {
            let global = ctx.read_global();
            let delta = global.saturating_sub(self.last_global);
            let armed = self.current_period.max(1);
            if 2 * delta < armed {
                // Far too little progress for the armed countdown: a
                // spurious interrupt. Take no sample and leave the real
                // countdown (still pending in hardware) armed.
                self.rejected_spurious += 1;
                let now = ctx.now();
                ctx.obs().emit(ObsEvent::SampleRejected {
                    now,
                    reason: "spurious",
                });
                return;
            }
            self.intervals_seen += 1;
            if 2 * delta > 3 * armed {
                // Far too much progress: an overflow was dropped and the
                // counter fired a period late. The sample is usable but
                // the population is starved; tally it for the degraded
                // verdict.
                self.dropped_intervals += 1;
            }
            interval_suspect = delta != armed;
            self.last_global = global;
        }
        if let Some(addr) = ctx.last_miss_addr() {
            if interval_suspect && self.last_sample_addr == Some(addr) {
                // A repeated address inside an already-suspect interval
                // smells of a stale (skidded) last-miss register; don't
                // double-count it.
                self.rejected_repeat += 1;
                let now = ctx.now();
                ctx.obs().emit(ObsEvent::SampleRejected {
                    now,
                    reason: "repeat",
                });
            } else {
                self.samples += 1;
                match self.map.lookup(addr, &mut self.trace) {
                    Some(id) => {
                        let slot = id.index();
                        if slot >= self.counts.len() {
                            self.counts.resize(slot + 1, 0);
                        }
                        self.counts[slot] += 1;
                        let count_addr = self.counts_base + slot as u64 * 8;
                        self.trace.read(count_addr);
                        self.trace.write(count_addr);
                    }
                    None => self.unknown += 1,
                }
                replay_trace(ctx, &mut self.trace, self.cfg.probe_cycles);
            }
            self.last_sample_addr = Some(addr);
        }
        let prev_period = self.current_period;
        self.current_period = self.next_period(elapsed);
        // Announce adaptive retunes only; a jittered sampler redraws every
        // interrupt and would drown the stream without saying anything new.
        if matches!(self.cfg.period, SamplingPeriod::Adaptive { .. })
            && self.current_period != prev_period
        {
            let now = ctx.now();
            ctx.obs().emit(ObsEvent::SamplerPeriod {
                now,
                period: self.current_period,
                reason: "adapt",
            });
        }
        ctx.arm_miss_overflow(self.current_period);
        self.last_return = ctx.now();
    }

    fn on_alloc(&mut self, base: Addr, size: u64, name: Option<&str>, ctx: &mut EngineCtx) {
        self.map.on_alloc(base, size, name, &mut self.trace);
        self.counts.resize(self.map.len(), 0);
        ctx.charge(120);
        replay_trace(ctx, &mut self.trace, self.cfg.probe_cycles);
    }

    fn on_free(&mut self, base: Addr, ctx: &mut EngineCtx) {
        self.map.on_free(base, &mut self.trace);
        ctx.charge(80);
        replay_trace(ctx, &mut self.trace, self.cfg.probe_cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachescope_sim::{Engine, Program, RunLimit, SimConfig};
    use cachescope_workloads::{spec, PhaseBuilder, WorkloadBuilder, MIB};

    fn run_sampler(
        w: &mut cachescope_workloads::SpecWorkload,
        cfg: SamplerConfig,
        misses: u64,
    ) -> Sampler {
        let mut s = Sampler::new(cfg, &w.static_objects());
        let mut e = Engine::new(SimConfig::default());
        e.run(w, &mut s, RunLimit::AppMisses(misses));
        s
    }

    #[test]
    fn unbiased_on_stochastic_mix() {
        let mut w = WorkloadBuilder::new("mix")
            .global("A", 8 * MIB)
            .global("B", 8 * MIB)
            .phase(
                PhaseBuilder::new()
                    .misses(100_000)
                    .weight("A", 70.0)
                    .weight("B", 30.0)
                    .compute_per_miss(5)
                    .stochastic(21),
            )
            .build();
        let s = run_sampler(&mut w, SamplerConfig::fixed(100), 1_000_000);
        let rep = s.report();
        assert_eq!(s.samples(), 10_000);
        let (_, a_pct) = rep.rank_of("A").unwrap();
        assert!((a_pct - 70.0).abs() < 2.0, "A at {a_pct:.1}%");
        assert_eq!(rep.estimates[0].name, "A");
    }

    #[test]
    fn resonant_period_is_biased_on_tomcatv() {
        // The headline section 3.1 result, at 1/10th scale: tomcatv's
        // period is 50,008 with skew class 7 mod 8; a 5,000-miss interval
        // shares the resonance arithmetic of the paper's 50,000
        // (gcd(5,000, 50,008) = 8), while 5,011 (prime) is coprime.
        let mut w = spec::tomcatv(spec::Scale::Test);
        let s = run_sampler(&mut w, SamplerConfig::fixed(5_000), 3_000_000);
        let rep = s.report();
        let (_, rx) = rep.rank_of("RX").unwrap();
        let actual = 22.5;
        assert!(
            (rx - actual).abs() > 8.0,
            "resonant sampling should misestimate RX: got {rx:.1}% vs {actual}%"
        );

        let mut w = spec::tomcatv(spec::Scale::Test);
        let s = run_sampler(&mut w, SamplerConfig::fixed(5_011), 3_000_000);
        let rep = s.report();
        let (_, rx) = rep.rank_of("RX").unwrap();
        assert!(
            (rx - actual).abs() < 4.0,
            "prime-period sampling should be accurate: got {rx:.1}% vs {actual}%"
        );
    }

    #[test]
    fn jitter_breaks_resonance() {
        let mut w = spec::tomcatv(spec::Scale::Test);
        let s = run_sampler(&mut w, SamplerConfig::jittered(5_000, 500, 7), 3_000_000);
        let rep = s.report();
        let (_, rx) = rep.rank_of("RX").unwrap();
        assert!(
            (rx - 22.5).abs() < 4.0,
            "jittered sampling should be accurate: got {rx:.1}%"
        );
    }

    #[test]
    fn tracks_heap_allocations() {
        let mut w = spec::ijpeg(spec::Scale::Test);
        let s = run_sampler(&mut w, SamplerConfig::fixed(500), 400_000);
        let rep = s.report();
        let (rank, pct) = rep.rank_of("0x141020000").unwrap();
        assert_eq!(rank, 1);
        assert!((pct - 84.7).abs() < 3.0, "hot block at {pct:.1}%");
    }

    #[test]
    fn stack_misses_become_unknown_samples() {
        let mut w = spec::su2cor(spec::Scale::Test);
        let cycle = w.cycle_misses();
        let s = run_sampler(&mut w, SamplerConfig::fixed(500), 2 * cycle);
        let share = s.unknown_samples() as f64 / s.samples() as f64 * 100.0;
        assert!(
            (share - 19.5).abs() < 3.0,
            "unattributed share {share:.1}% should match su2cor's stack share"
        );
    }

    #[test]
    fn estimates_sum_to_at_most_100() {
        let mut w = spec::su2cor(spec::Scale::Test);
        let cycle = w.cycle_misses();
        let s = run_sampler(&mut w, SamplerConfig::fixed(1_000), 2 * cycle);
        let sum: f64 = s.report().estimates.iter().map(|e| e.pct).sum();
        assert!(sum <= 100.0 + 1e-9);
        assert!(sum > 70.0, "most samples attributed, got {sum:.1}%");
    }

    #[test]
    fn adaptive_sampler_converges_to_overhead_target() {
        // swim: ~67 app cycles per miss. A 1% budget implies a period
        // near 9,000/(0.01*67) ~ 13,400 misses.
        let mut w = spec::swim(spec::Scale::Test);
        let mut s = Sampler::new(SamplerConfig::adaptive(1.0), &w.static_objects());
        let mut e = Engine::new(SimConfig::default());
        let stats = e.run(&mut w, &mut s, RunLimit::AppMisses(2_000_000));
        let overhead = stats.instr_cycles as f64 * 100.0 / stats.cycles as f64;
        assert!(
            (overhead - 1.0).abs() < 0.3,
            "overhead {overhead:.2}% should be near the 1% target"
        );
        assert!(
            (9_000..20_000).contains(&s.current_period()),
            "tuned period {}",
            s.current_period()
        );
    }

    #[test]
    fn adaptive_period_tracks_the_application_miss_rate() {
        // compress is compute-heavy (~2,770 cycles/miss): the same 1%
        // budget affords a far shorter period than on swim.
        let mut w = spec::compress(spec::Scale::Test);
        let mut s = Sampler::new(SamplerConfig::adaptive(1.0), &w.static_objects());
        let mut e = Engine::new(SimConfig::default());
        let stats = e.run(&mut w, &mut s, RunLimit::AppMisses(200_000));
        let overhead = stats.instr_cycles as f64 * 100.0 / stats.cycles as f64;
        assert!((overhead - 1.0).abs() < 0.3, "overhead {overhead:.2}%");
        assert!(
            s.current_period() < 1_000,
            "compress affords a short period, got {}",
            s.current_period()
        );
    }

    #[test]
    fn adaptive_sampler_is_resonance_free_on_tomcatv() {
        let mut w = spec::tomcatv(spec::Scale::Test);
        let mut s = Sampler::new(SamplerConfig::adaptive(2.0), &w.static_objects());
        let mut e = Engine::new(SimConfig::default());
        e.run(&mut w, &mut s, RunLimit::AppMisses(3_000_000));
        let rep = s.report();
        let (_, rx) = rep.rank_of("RX").unwrap();
        assert!(
            (rx - 22.5).abs() < 4.0,
            "adaptive sampling must not resonate: RX {rx:.1}%"
        );
    }

    #[test]
    fn heap_blocks_aggregate_by_allocation_site_name() {
        use cachescope_sim::{Event, MemRef, TraceProgram};
        // Two blocks from the same site ("tree_node") and one anonymous.
        let heap = 0x1_4100_0000u64;
        let mut events = vec![
            Event::Alloc {
                base: heap,
                size: 64 * 256,
                name: Some("tree_node".into()),
            },
            Event::Alloc {
                base: heap + 0x10_0000,
                size: 64 * 256,
                name: Some("tree_node".into()),
            },
            Event::Alloc {
                base: heap + 0x20_0000,
                size: 64 * 256,
                name: None,
            },
        ];
        for k in 0..256u64 {
            for block in 0..3u64 {
                events.push(Event::Access(MemRef::read(
                    heap + block * 0x10_0000 + k * 64,
                    8,
                )));
            }
        }
        let run = |aggregate: bool| {
            let mut p = TraceProgram::new("agg", vec![], events.clone());
            let cfg = SamplerConfig {
                aggregate_heap_names: aggregate,
                ..SamplerConfig::fixed(4)
            };
            let mut s = Sampler::new(cfg, &p.static_objects());
            let mut e = Engine::new(SimConfig::default());
            e.run(&mut p, &mut s, RunLimit::Exhausted);
            s.report()
        };

        let plain = run(false);
        assert_eq!(
            plain
                .estimates
                .iter()
                .filter(|e| e.name == "tree_node")
                .count(),
            2,
            "unaggregated: one row per block instance"
        );

        let agg = run(true);
        let rows: Vec<&Estimate> = agg
            .estimates
            .iter()
            .filter(|e| e.name == "tree_node")
            .collect();
        assert_eq!(rows.len(), 1, "aggregated: one row per site");
        assert!(
            (rows[0].pct - 66.7).abs() < 5.0,
            "site covers two thirds of misses, got {:.1}%",
            rows[0].pct
        );
        assert!(
            agg.estimates.iter().any(|e| e.name.starts_with("0x")),
            "anonymous block stays separate"
        );
    }

    #[test]
    fn sampler_cost_is_about_9000_cycles_per_interrupt() {
        let mut w = spec::swim(spec::Scale::Test);
        let mut s = Sampler::new(SamplerConfig::fixed(10_000), &w.static_objects());
        let mut e = Engine::new(SimConfig::default());
        let stats = e.run(&mut w, &mut s, RunLimit::AppMisses(1_000_000));
        let per_interrupt = stats.instr_cycles as f64 / stats.interrupts as f64;
        assert!(
            (8_900.0..10_500.0).contains(&per_interrupt),
            "cost per interrupt {per_interrupt:.0} cycles"
        );
    }
}
