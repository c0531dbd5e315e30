//! The experiment runner: workload + technique + simulator → report.
//!
//! This is the high-level API a user of the library (and the evaluation
//! harness) drives: configure the simulated machine, pick a technique,
//! run a workload for a bounded amount of work, and get back a table of
//! actual vs estimated per-object miss shares plus full cost accounting.

use cachescope_hwpm::{FaultConfig, PmuConfig};
use cachescope_obs::ObsEvent;
use cachescope_sim::{
    CacheConfig, Engine, Handler, NullHandler, Program, RunLimit, RunStats, SimConfig,
    TimelineConfig,
};

use crate::results::{ExperimentReport, TechniqueReport};
use crate::sampler::Sampler;
use crate::search::{SearchConfig, SearchLog, Searcher};
use crate::technique::TechniqueConfig;

/// A reason a run configuration may not run: the `CS-P` code `check`
/// reports it under, and a message naming the offending value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRefusal {
    pub code: &'static str,
    pub message: String,
}

/// The one admission rule: may `technique` run on `counters` PMU region
/// counters under `faults`? Every door that takes a run configuration
/// from outside the program (the CLI, a daemon hello, a campaign cell, a
/// fuzz golden) asks before it builds anything, and `check` reports the
/// same refusals, CS-P003 to CS-P007. Returns every refusal. One counter
/// is enough: the search timeshares it.
pub fn run_refusals(
    technique: &TechniqueConfig,
    counters: usize,
    faults: &FaultConfig,
) -> Vec<RunRefusal> {
    let mut refusals = Vec::new();
    let mut refuse = |code, message| refusals.push(RunRefusal { code, message });
    let cap = PmuConfig::MAX_REGION_COUNTERS;
    if counters == 0 || counters > cap {
        let code = if counters == 0 { "CS-P004" } else { "CS-P007" };
        refuse(code, format!("{counters} PMU counters, not in 1..={cap}"));
    }
    match technique {
        TechniqueConfig::None => {}
        TechniqueConfig::Sampling(cfg) => {
            if let Err(why) = cfg.period.check() {
                refuse("CS-P003", why);
            }
        }
        TechniqueConfig::Search(cfg) => {
            let cap = SearchConfig::MAX_LOGICAL_WAYS;
            if let Some(n) = cfg.logical_ways.filter(|&n| n == 0 || n > cap) {
                refuse("CS-P005", format!("search width {n}, not in 1..={cap}"));
            }
        }
    }
    let rates = [
        ("skid_rate", faults.skid_rate),
        ("drop_rate", faults.drop_rate),
        ("spurious_rate", faults.spurious_rate),
        ("read_jitter", faults.read_jitter),
    ];
    for (knob, rate) in rates.into_iter().filter(|(_, r)| !(0.0..=1.0).contains(r)) {
        refuse("CS-P006", format!("{knob} {rate}, not in [0, 1]"));
    }
    let skid_cap = FaultConfig::MAX_SKID_DEPTH as u64;
    let widths = [
        ("wrap_bits", u64::from(faults.wrap_bits), 64),
        ("skid_depth", faults.skid_depth as u64, skid_cap),
    ];
    for (knob, n, cap) in widths.into_iter().filter(|&(_, n, cap)| n > cap) {
        refuse("CS-P006", format!("{knob} {n}, not in 0..={cap}"));
    }
    refusals
}

/// [`run_refusals`] as one error, for a door that reports one message:
/// each refusal as `CODE: message`, joined by "; ".
pub fn refuse_run(
    technique: &TechniqueConfig,
    counters: usize,
    faults: &FaultConfig,
) -> Result<(), String> {
    let refusals: Vec<String> = run_refusals(technique, counters, faults)
        .iter()
        .map(|r| format!("{}: {}", r.code, r.message))
        .collect();
    if refusals.is_empty() {
        Ok(())
    } else {
        Err(refusals.join("; "))
    }
}

/// A configured experiment, built with a fluent API:
///
/// ```
/// use cachescope_core::{Experiment, TechniqueConfig};
/// use cachescope_workloads::spec;
/// use cachescope_sim::RunLimit;
///
/// let report = Experiment::new(spec::mgrid(spec::Scale::Test))
///     .technique(TechniqueConfig::sampling(1_000))
///     .limit(RunLimit::AppMisses(100_000))
///     .run();
/// assert_eq!(report.rows()[0].name, "U");
/// ```
pub struct Experiment<P: Program> {
    program: P,
    technique: TechniqueConfig,
    cache: CacheConfig,
    l1: Option<CacheConfig>,
    counters: usize,
    limit: RunLimit,
    timeline: Option<TimelineConfig>,
    faults: FaultConfig,
    min_pct: f64,
    profile: bool,
    attribution: bool,
}

impl<P: Program> Experiment<P> {
    /// An experiment over `program` with default settings: the paper's
    /// 2 MB cache, ten region counters, no instrumentation, and a run
    /// length of 1,000,000 application misses.
    pub fn new(program: P) -> Self {
        Experiment {
            program,
            technique: TechniqueConfig::None,
            cache: CacheConfig::default(),
            l1: None,
            counters: 10,
            limit: RunLimit::AppMisses(1_000_000),
            timeline: None,
            faults: FaultConfig::default(),
            min_pct: 0.01,
            profile: false,
            attribution: true,
        }
    }

    /// Select the measurement technique.
    pub fn technique(mut self, t: TechniqueConfig) -> Self {
        self.technique = t;
        self
    }

    /// Override the cache configuration.
    pub fn cache(mut self, c: CacheConfig) -> Self {
        self.cache = c;
        self
    }

    /// Put a first-level cache in front of the monitored cache: the PMU
    /// then only observes (and the techniques only attribute) references
    /// that miss in the L1.
    pub fn l1(mut self, c: CacheConfig) -> Self {
        self.l1 = Some(c);
        self
    }

    /// Number of PMU region counters (n for the n-way search).
    pub fn counters(mut self, n: usize) -> Self {
        self.counters = n;
        self
    }

    /// When to stop the run.
    pub fn limit(mut self, l: RunLimit) -> Self {
        self.limit = l;
        self
    }

    /// Record a per-interval per-object miss timeline (Figure 5).
    pub fn timeline(mut self, bucket_cycles: u64) -> Self {
        self.timeline = Some(TimelineConfig { bucket_cycles });
        self
    }

    /// Inject PMU measurement faults (skid, dropped/spurious overflows,
    /// wraparound, delivery delay, read jitter). The default
    /// [`FaultConfig`] is inert: the PMU builds no fault model at all
    /// and behaves bit-identically to a fault-free machine.
    pub fn faults(mut self, f: FaultConfig) -> Self {
        self.faults = f;
        self
    }

    /// Report filter: omit objects below this percentage of actual misses
    /// (the paper uses 0.01%).
    pub fn min_pct(mut self, pct: f64) -> Self {
        self.min_pct = pct;
        self
    }

    /// Enable span self-profiling: the engine records where its own
    /// wall-clock goes and the report carries the harvested
    /// [`cachescope_obs::Profiler`]. Tool-side only — simulated results
    /// are bit-identical with and without it.
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Toggle ground-truth per-object miss attribution (default on).
    /// With attribution off the engine skips the resolve/tally work on
    /// every miss: the simulated machine — cache, PMU, clock, handler
    /// interrupts — is bit-identical, but the report's "Actual" columns
    /// are empty. This is the measurement-harness analogue of running
    /// without the paper's lower simulator levels, and it bounds how much
    /// of the engine's own wall-clock attribution costs.
    pub fn attribution(mut self, on: bool) -> Self {
        self.attribution = on;
        self
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig {
            cache: self.cache.clone(),
            l1: self.l1.clone(),
            pmu: PmuConfig {
                region_counters: self.counters,
            },
            costs: Default::default(),
            faults: self.faults.clone(),
            timeline: self.timeline,
        }
    }

    /// Execute the experiment and build the joined report.
    pub fn run(mut self) -> ExperimentReport {
        let cfg = self.sim_config();
        let app = self.program.name().to_string();
        let decls = self.program.static_objects();
        let mut engine = Engine::new(cfg);
        engine.set_attribution(self.attribution);
        if self.profile {
            engine.obs_mut().profiler.set_enabled(true);
        }

        let (stats, tech_report, attach_log): (RunStats, TechniqueReport, bool) =
            match self.technique {
                TechniqueConfig::None => {
                    let mut h = NullHandler;
                    let stats = engine.run(&mut self.program, &mut h, self.limit);
                    (stats, TechniqueReport::default(), false)
                }
                TechniqueConfig::Sampling(ref scfg) => {
                    let mut h = Sampler::new(scfg.clone(), &decls);
                    let stats = engine.run(&mut self.program, &mut h, self.limit);
                    let rep = h.report();
                    (stats, rep, false)
                }
                TechniqueConfig::Search(ref scfg) => {
                    let attach_log = scfg.log_progress;
                    let mut h = Searcher::new(scfg.clone(), &decls);
                    let stats = engine.run(&mut self.program, &mut h, self.limit);
                    let rep = h.report().cloned().unwrap_or_default();
                    (stats, rep, attach_log)
                }
            };

        let mut obs = engine.take_obs();
        if !tech_report.degraded.is_empty() {
            // One central site flags degraded reports for every
            // technique, so the obs stream always records when a
            // hardened run knows its own estimates are contaminated.
            obs.emit(ObsEvent::ReportDegraded {
                count: tech_report.degraded.len() as u64,
            });
        }
        let mut report = ExperimentReport::new(app, stats, tech_report, self.min_pct);
        if attach_log {
            let log = SearchLog::from_events(obs.events());
            if !log.is_empty() {
                report.search_log = Some(log);
            }
        }
        report.events = obs.take_events();
        if self.profile {
            report.profile = Some(obs.profiler.clone());
        }
        report.metrics = obs.metrics;
        report
    }

    /// Execute with a caller-supplied handler (custom instrumentation).
    pub fn run_with<H: Handler>(mut self, handler: &mut H) -> ExperimentReport {
        let cfg = self.sim_config();
        let app = self.program.name().to_string();
        let mut engine = Engine::new(cfg);
        engine.set_attribution(self.attribution);
        if self.profile {
            engine.obs_mut().profiler.set_enabled(true);
        }
        let stats = engine.run(&mut self.program, handler, self.limit);
        let mut obs = engine.take_obs();
        let mut report =
            ExperimentReport::new(app, stats, TechniqueReport::default(), self.min_pct);
        report.events = obs.take_events();
        if self.profile {
            report.profile = Some(obs.profiler.clone());
        }
        report.metrics = obs.metrics;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachescope_workloads::spec;

    fn refusal_codes(t: &TechniqueConfig, counters: usize, f: &FaultConfig) -> Vec<&'static str> {
        run_refusals(t, counters, f)
            .iter()
            .map(|r| r.code)
            .collect()
    }

    #[test]
    fn illegal_periods_parse_but_may_not_run() {
        let inert = FaultConfig::default();
        for spec in [
            "sampling:0",
            "jittered:0:0",
            "adaptive:0",
            "adaptive:-1",
            "adaptive:NaN",
        ] {
            let t = TechniqueConfig::parse_spec(spec, 0, false, false).unwrap();
            assert_eq!(refusal_codes(&t, 10, &inert), ["CS-P003"], "{spec}");
        }
        for spec in ["sampling:1", "jittered:2:1", "adaptive:5", "search", "none"] {
            let t = TechniqueConfig::parse_spec(spec, 0, false, false).unwrap();
            assert_eq!(refuse_run(&t, 10, &inert), Ok(()), "{spec}");
        }
    }

    #[test]
    fn every_refusal_is_returned_counters_technique_faults() {
        let faults = FaultConfig {
            drop_rate: 1.5,
            wrap_bits: 99,
            skid_depth: FaultConfig::MAX_SKID_DEPTH + 1,
            ..FaultConfig::default()
        };
        let t = TechniqueConfig::sampling(0);
        assert_eq!(
            refusal_codes(&t, 0, &faults),
            ["CS-P004", "CS-P003", "CS-P006", "CS-P006", "CS-P006"]
        );
        let err = refuse_run(&t, 0, &FaultConfig::default()).unwrap_err();
        assert_eq!(
            err,
            "CS-P004: 0 PMU counters, not in 1..=64; CS-P003: sampling period is zero"
        );
    }

    #[test]
    fn baseline_run_has_no_instrumentation_cost() {
        let rep = Experiment::new(spec::mgrid(spec::Scale::Test))
            .limit(RunLimit::AppMisses(50_000))
            .run();
        assert_eq!(rep.stats.instr_cycles, 0);
        assert_eq!(rep.stats.interrupts, 0);
        // U (40.8%) and R (40.4%) are a near-tie; either may rank first
        // in a finite run (the paper notes rankings can swap when shares
        // differ by less than ~2%).
        assert!(["U", "R"].contains(&rep.rows()[0].name.as_str()));
        assert!((rep.rows()[0].actual_pct - 40.6).abs() < 1.5);
        assert!(rep.rows()[0].est_rank.is_none());
    }

    #[test]
    fn sampling_experiment_produces_estimates() {
        let rep = Experiment::new(spec::mgrid(spec::Scale::Test))
            .technique(TechniqueConfig::sampling(500))
            .limit(RunLimit::AppMisses(200_000))
            .run();
        let u = rep.row("U").unwrap();
        assert_eq!(u.actual_rank, 1);
        assert!((u.est_pct.unwrap() - u.actual_pct).abs() < 2.0);
        assert!(rep.stats.interrupts > 300);
    }

    #[test]
    fn search_experiment_produces_estimates() {
        let rep = Experiment::new(spec::mgrid(spec::Scale::Test))
            .technique(TechniqueConfig::Search(crate::SearchConfig {
                interval: 1_000_000,
                ..Default::default()
            }))
            .limit(RunLimit::AppMisses(1_000_000))
            .run();
        // U and R are a near-tie: ranks 1 and 2 in either order.
        let u = rep.row("U").unwrap();
        assert!(u.est_rank.unwrap() <= 2);
        assert!((u.est_pct.unwrap() - 40.8).abs() < 3.0);
        let v = rep.row("V").unwrap();
        assert_eq!(v.est_rank, Some(3));
        assert!((v.est_pct.unwrap() - 18.8).abs() < 3.0);
    }

    #[test]
    fn timeline_is_recorded_when_requested() {
        let rep = Experiment::new(spec::applu(spec::Scale::Test))
            .timeline(1_000_000)
            .limit(RunLimit::AppMisses(100_000))
            .run();
        assert!(rep.stats.timeline.is_some());
    }

    #[test]
    fn profiled_run_records_spans_without_perturbing_results() {
        let plain = Experiment::new(spec::mgrid(spec::Scale::Test))
            .technique(TechniqueConfig::sampling(500))
            .limit(RunLimit::AppMisses(50_000))
            .run();
        let profiled = Experiment::new(spec::mgrid(spec::Scale::Test))
            .technique(TechniqueConfig::sampling(500))
            .limit(RunLimit::AppMisses(50_000))
            .profile(true)
            .run();
        assert!(plain.profile.is_none());
        let prof = profiled.profile.as_ref().expect("profiler harvested");
        for name in [
            "engine.run",
            "engine.chunk",
            "engine.control",
            "engine.resolve",
            "engine.deliver",
        ] {
            assert!(
                prof.spans().iter().any(|s| s.name == name),
                "missing span {name}"
            );
        }
        assert_eq!(prof.open_depth(), 0, "span tree must close balanced");
        // Profiling is tool-side only: simulated results are identical.
        assert_eq!(plain.stats.app, profiled.stats.app);
        assert_eq!(plain.stats.cycles, profiled.stats.cycles);
        assert_eq!(plain.stats.interrupts, profiled.stats.interrupts);
        // The chunk- and control-event latency histograms exist only
        // under profiling, so unprofiled metric snapshots stay
        // byte-identical.
        for name in ["engine.chunk_ns", "engine.control_ns"] {
            assert!(profiled.metrics.histogram(name).is_some(), "{name}");
            assert!(plain.metrics.histogram(name).is_none(), "{name}");
        }
        // So does the stepped-access count. Sampling steps about one
        // access per interrupt and runs the rest in bulk.
        let stepped = profiled.metrics.counter("engine.stepped_accesses");
        assert!(stepped > 0 && stepped * 100 < profiled.stats.app.accesses);
        // And the count of misses the page memo could not resolve: the
        // first miss in each page, and few others.
        let slow = profiled.metrics.counter("engine.slow_resolves");
        assert!(slow > 0 && slow * 20 < profiled.stats.app.misses);
        let plain_json = plain.metrics.to_json().render();
        assert!(!plain_json.contains("engine.stepped_accesses"));
        assert!(!plain_json.contains("engine.slow_resolves"));
    }

    #[test]
    fn attribution_off_preserves_the_simulated_machine() {
        let run = |attr: bool| {
            Experiment::new(spec::mgrid(spec::Scale::Test))
                .technique(TechniqueConfig::sampling(500))
                .limit(RunLimit::AppMisses(50_000))
                .attribution(attr)
                .run()
        };
        let on = run(true);
        let off = run(false);
        // The simulated machine does not see the knob.
        assert_eq!(on.stats.app, off.stats.app);
        assert_eq!(on.stats.cycles, off.stats.cycles);
        assert_eq!(on.stats.instr_cycles, off.stats.instr_cycles);
        assert_eq!(on.stats.interrupts, off.stats.interrupts);
        // Technique estimates still come out; ground-truth tallies don't.
        assert!(off.technique.label.contains("sampling"));
        let on_misses: u64 = on.stats.objects.iter().map(|o| o.misses).sum();
        let off_misses: u64 = off.stats.objects.iter().map(|o| o.misses).sum();
        assert!(on_misses > 0);
        assert_eq!(off_misses, 0);
        assert_eq!(off.stats.unmapped_misses, 0);
    }

    #[test]
    fn counters_override_controls_search_width() {
        let rep = Experiment::new(spec::mgrid(spec::Scale::Test))
            .technique(TechniqueConfig::Search(crate::SearchConfig {
                interval: 1_000_000,
                ..Default::default()
            }))
            .counters(2)
            .limit(RunLimit::AppMisses(1_500_000))
            .run();
        assert!(
            rep.technique.label.contains("2-way"),
            "{}",
            rep.technique.label
        );
    }
}
