//! Zero-simulated-cost observability for the cachescope pipeline.
//!
//! The paper's contribution is *measurement*: attributing cache misses to
//! data structures while accounting for the instrumentation's own cost.
//! This crate gives the measurement stack the same courtesy — every layer
//! (engine, PMU wrappers, sampler, searcher, trace record/replay) reports
//! what it did into an [`Obs`] sink, and none of it costs a single
//! simulated cycle. Like the search progress log before it, the sink is
//! tool-side state: a debugger's notebook, not part of the measured
//! instrumentation.
//!
//! Three pieces:
//!
//! * [`ObsEvent`] — a typed event stream, serialized as dependency-free
//!   JSONL (one event object per line) for `--trace-out`;
//! * [`Metrics`] — counters, gauges and fixed-bucket histograms
//!   (interrupt inter-arrival cycles, priority-queue depth, region sizes
//!   at split, unmapped-miss rate, instrumentation-cycle share),
//!   snapshotted into the experiment report and printed by `--metrics`;
//! * [`json::Json`] — the hand-rolled JSON value/renderer/parser behind
//!   both, also used for the full `--json` report export.
//!
//! The **zero simulated cost** invariant: recording an event or metric
//! never charges virtual cycles and never touches the simulated cache, so
//! `instr_cycles` of an instrumented run is bit-identical with and
//! without tracing enabled. Nothing in this crate holds a reference into
//! the simulated machine; it cannot perturb it even by accident.

pub mod event;
pub mod json;
pub mod metrics;
pub mod span;

pub use event::{IterationRecord, MeasuredRegion, ObsEvent, RegionFate};
pub use json::Json;
pub use metrics::{Histogram, Metrics};
pub use span::{Profiler, SpanGuard, SpanId, SpanRecord};

/// The observability sink: an in-memory event log plus a metrics
/// registry. One per engine run; harvest it afterwards with
/// [`Obs::events`] / [`Obs::to_jsonl`] or snapshot [`Obs::metrics`].
#[derive(Debug, Clone)]
pub struct Obs {
    /// When `false`, [`Obs::emit`] is a single inlined branch and the
    /// sink records nothing — the hot path pays one predictable-taken
    /// test per event instead of a call into the match below.
    enabled: bool,
    events: Vec<ObsEvent>,
    /// The metrics registry. Layers may record directly (e.g. the
    /// searcher's priority-queue depth); [`Obs::emit`] also derives
    /// standard metrics from the event stream.
    pub metrics: Metrics,
    /// The span self-profiler. Disabled by default — even when the event
    /// sink records, span tracing stays a single branch per site until
    /// `--profile` turns it on.
    pub profiler: Profiler,
    last_interrupt_at: Option<u64>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs {
            enabled: true,
            events: Vec::new(),
            metrics: Metrics::default(),
            profiler: Profiler::new(),
            last_interrupt_at: None,
        }
    }
}

impl Obs {
    pub fn new() -> Self {
        Obs::default()
    }

    /// A sink that drops everything: for throughput runs where even the
    /// tool-side bookkeeping (event vector pushes, metric updates) is
    /// unwanted wall-clock overhead.
    pub fn disabled() -> Self {
        Obs {
            enabled: false,
            ..Obs::default()
        }
    }

    /// A recording sink with span self-profiling turned on: what
    /// `--profile` / `cachescope profile` construct.
    pub fn profiled() -> Self {
        let mut obs = Obs::default();
        obs.profiler.set_enabled(true);
        obs
    }

    /// Is the sink recording?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one event (and fold it into the derived metrics).
    #[inline]
    pub fn emit(&mut self, ev: ObsEvent) {
        if !self.enabled {
            return;
        }
        self.emit_enabled(ev);
    }

    fn emit_enabled(&mut self, ev: ObsEvent) {
        self.metrics.inc("obs.events");
        match &ev {
            ObsEvent::Interrupt { now, kind } => {
                match *kind {
                    "timer" => self.metrics.inc("engine.interrupts.timer"),
                    _ => self.metrics.inc("engine.interrupts.miss_overflow"),
                }
                if let Some(prev) = self.last_interrupt_at {
                    self.metrics
                        .observe("engine.interrupt_interarrival_cycles", now - prev);
                }
                self.last_interrupt_at = Some(*now);
            }
            ObsEvent::CounterProgram { .. } => self.metrics.inc("pmu.counter_programs"),
            ObsEvent::CounterDisable { .. } => self.metrics.inc("pmu.counter_disables"),
            ObsEvent::ArmMissOverflow { .. } => self.metrics.inc("pmu.arm_miss_overflow"),
            ObsEvent::ArmTimer { .. } => self.metrics.inc("pmu.arm_timer"),
            ObsEvent::SamplerPeriod { period, .. } => {
                self.metrics.inc("sampler.period_changes");
                self.metrics.set_gauge("sampler.period", *period as f64);
            }
            ObsEvent::SampleRejected { .. } => self.metrics.inc("sampler.samples_rejected"),
            ObsEvent::FaultSummary {
                skidded,
                dropped,
                spurious,
                wrapped,
                delayed,
                jittered,
            } => {
                self.metrics.add(
                    "hwpm.faults_injected",
                    skidded + dropped + spurious + wrapped + delayed + jittered,
                );
            }
            ObsEvent::SearchIntervalRetry { .. } => self.metrics.inc("search.intervals_retried"),
            ObsEvent::ReportDegraded { count } => self.metrics.add("report.degraded", *count),
            ObsEvent::CellCacheCorrupt { .. } => self.metrics.inc("campaign.cache_corrupt"),
            ObsEvent::SearchIteration(it) => {
                self.metrics.inc("search.iterations");
                for r in &it.regions {
                    match r.fate {
                        RegionFate::Requeued => self.metrics.inc("search.regions_requeued"),
                        RegionFate::RetainedZero => {
                            self.metrics.inc("search.regions_retained_zero")
                        }
                        RegionFate::Dropped => self.metrics.inc("search.regions_dropped"),
                    }
                }
            }
            ObsEvent::RegionSplit {
                lo,
                hi,
                became_atomic,
                ..
            } => {
                if *became_atomic {
                    self.metrics.inc("search.regions_became_atomic");
                } else {
                    self.metrics.inc("search.splits");
                    self.metrics.observe("search.split_region_bytes", hi - lo);
                }
            }
            ObsEvent::SearchFinal { .. } => self.metrics.inc("search.final_phases"),
            ObsEvent::Alloc { .. } => self.metrics.inc("program.allocs"),
            ObsEvent::Free { .. } => self.metrics.inc("program.frees"),
            ObsEvent::PhaseMarker { .. } => self.metrics.inc("program.phase_markers"),
            ObsEvent::CampaignStart { cells, .. } => {
                self.metrics.set_gauge("campaign.cells", *cells as f64);
            }
            ObsEvent::CellCacheHit { .. } => self.metrics.inc("campaign.cache_hits"),
            ObsEvent::CellStart { .. } => self.metrics.inc("campaign.cell_starts"),
            ObsEvent::CellFinish { .. } => self.metrics.inc("campaign.cells_completed"),
            ObsEvent::CellRetry { .. } => self.metrics.inc("campaign.retries"),
            ObsEvent::CellPanic { .. } => self.metrics.inc("campaign.panics"),
            ObsEvent::CellRefused { .. } => self.metrics.inc("campaign.refused"),
            ObsEvent::RunEnd {
                now,
                app_misses,
                unmapped_misses,
                instr_cycles,
                ..
            } => {
                if *app_misses > 0 {
                    self.metrics.set_gauge(
                        "engine.unmapped_miss_rate",
                        *unmapped_misses as f64 / *app_misses as f64,
                    );
                }
                if *now > 0 {
                    self.metrics.set_gauge(
                        "engine.instr_cycle_share",
                        *instr_cycles as f64 / *now as f64,
                    );
                }
            }
            ObsEvent::CheckDiagnostic { severity, .. } => {
                self.metrics.inc("check.diagnostics");
                if *severity == "error" {
                    self.metrics.inc("check.errors");
                }
            }
            ObsEvent::SessionStart { .. } => self.metrics.inc("serve.sessions"),
            ObsEvent::SessionReject { .. } => self.metrics.inc("serve.rejects"),
            ObsEvent::SessionSimStart { .. } => self.metrics.inc("serve.sim_starts"),
            ObsEvent::SessionDedup { .. } => self.metrics.inc("serve.dedup_hits"),
            ObsEvent::SessionEnd { bytes, ms, .. } => {
                self.metrics.inc("serve.sessions_served");
                self.metrics.add("serve.bytes_in", *bytes);
                self.metrics.observe("serve.session_ms", *ms);
            }
            ObsEvent::ServeDrain { active } => {
                self.metrics.set_gauge("serve.drain_active", *active as f64);
            }
            ObsEvent::ServeStop { .. } => self.metrics.inc("serve.stops"),
            ObsEvent::FuzzScenario { .. } => self.metrics.inc("fuzz.scenarios"),
            ObsEvent::FuzzSilentInversion { .. } => self.metrics.inc("fuzz.silent_inversions"),
            ObsEvent::FuzzMinimizeStep { .. } => self.metrics.inc("fuzz.minimize_steps"),
            _ => {}
        }
        self.events.push(ev);
    }

    /// All recorded events, in emission order.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Move the events out (e.g. into an experiment report).
    pub fn take_events(&mut self) -> Vec<ObsEvent> {
        std::mem::take(&mut self.events)
    }

    /// Render all events as JSONL: one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        events_to_jsonl(&self.events)
    }
}

/// Render an event slice as JSONL: one JSON object per line.
pub fn events_to_jsonl(events: &[ObsEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json().render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_collects_and_derives_metrics() {
        let mut obs = Obs::new();
        obs.emit(ObsEvent::Interrupt {
            now: 100,
            kind: "miss_overflow",
        });
        obs.emit(ObsEvent::Interrupt {
            now: 400,
            kind: "timer",
        });
        obs.emit(ObsEvent::CounterProgram {
            now: 400,
            slot: 0,
            lo: 0,
            hi: 64,
        });
        assert_eq!(obs.events().len(), 3);
        assert_eq!(obs.metrics.counter("engine.interrupts.miss_overflow"), 1);
        assert_eq!(obs.metrics.counter("engine.interrupts.timer"), 1);
        assert_eq!(obs.metrics.counter("pmu.counter_programs"), 1);
        let h = obs
            .metrics
            .histogram("engine.interrupt_interarrival_cycles")
            .expect("inter-arrival recorded");
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 300);
    }

    #[test]
    fn run_end_sets_share_gauges() {
        let mut obs = Obs::new();
        obs.emit(ObsEvent::RunEnd {
            now: 1000,
            app_accesses: 500,
            app_misses: 100,
            unmapped_misses: 25,
            instr_cycles: 250,
            interrupts: 3,
        });
        assert_eq!(obs.metrics.gauge("engine.unmapped_miss_rate"), Some(0.25));
        assert_eq!(obs.metrics.gauge("engine.instr_cycle_share"), Some(0.25));
    }

    #[test]
    fn campaign_events_derive_scheduler_metrics() {
        let mut obs = Obs::new();
        obs.emit(ObsEvent::CampaignStart {
            name: "t".into(),
            cells: 4,
        });
        obs.emit(ObsEvent::CellCacheHit {
            index: 0,
            hash: "aa".into(),
        });
        obs.emit(ObsEvent::CellStart {
            index: 1,
            hash: "bb".into(),
            workload: "mgrid".into(),
            label: "sample".into(),
        });
        obs.emit(ObsEvent::CellFinish {
            index: 1,
            hash: "bb".into(),
        });
        obs.emit(ObsEvent::CellRetry {
            index: 2,
            hash: "cc".into(),
            attempt: 1,
            error: "boom".into(),
        });
        obs.emit(ObsEvent::CellPanic {
            index: 2,
            hash: "cc".into(),
            error: "boom".into(),
        });
        obs.emit(ObsEvent::CellRefused {
            index: 3,
            hash: "dd".into(),
            error: "CS-P004: no counters".into(),
        });
        assert_eq!(obs.metrics.gauge("campaign.cells"), Some(4.0));
        assert_eq!(obs.metrics.counter("campaign.cache_hits"), 1);
        assert_eq!(obs.metrics.counter("campaign.cell_starts"), 1);
        assert_eq!(obs.metrics.counter("campaign.cells_completed"), 1);
        assert_eq!(obs.metrics.counter("campaign.retries"), 1);
        assert_eq!(obs.metrics.counter("campaign.panics"), 1);
        assert_eq!(obs.metrics.counter("campaign.refused"), 1);
    }

    #[test]
    fn serve_events_derive_daemon_metrics() {
        let mut obs = Obs::new();
        obs.emit(ObsEvent::SessionStart {
            id: 1,
            peer: "unix".into(),
        });
        obs.emit(ObsEvent::SessionSimStart {
            id: 1,
            hash: "aa".into(),
        });
        obs.emit(ObsEvent::SessionEnd {
            id: 1,
            bytes: 1024,
            events: 10,
            ms: 7,
        });
        obs.emit(ObsEvent::SessionDedup {
            id: 2,
            hash: "aa".into(),
            source: "disk",
        });
        obs.emit(ObsEvent::SessionReject {
            id: 3,
            code: "busy".into(),
            reason: "full".into(),
        });
        obs.emit(ObsEvent::ServeDrain { active: 1 });
        obs.emit(ObsEvent::ServeStop {
            served: 2,
            rejected: 1,
        });
        assert_eq!(obs.metrics.counter("serve.sessions"), 1);
        assert_eq!(obs.metrics.counter("serve.sim_starts"), 1);
        assert_eq!(obs.metrics.counter("serve.sessions_served"), 1);
        assert_eq!(obs.metrics.counter("serve.dedup_hits"), 1);
        assert_eq!(obs.metrics.counter("serve.rejects"), 1);
        assert_eq!(obs.metrics.counter("serve.bytes_in"), 1024);
        assert_eq!(obs.metrics.gauge("serve.drain_active"), Some(1.0));
        let h = obs.metrics.histogram("serve.session_ms").expect("latency");
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.emit(ObsEvent::Interrupt {
            now: 100,
            kind: "timer",
        });
        obs.emit(ObsEvent::Alloc {
            now: 200,
            base: 0x1000,
            size: 64,
            name: None,
        });
        assert!(obs.events().is_empty());
        assert_eq!(obs.metrics.counter("obs.events"), 0);
        assert_eq!(obs.metrics.counter("engine.interrupts.timer"), 0);
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let mut obs = Obs::new();
        obs.emit(ObsEvent::RunStart {
            app: "t".into(),
            limit: "Exhausted".into(),
        });
        obs.emit(ObsEvent::Interrupt {
            now: 5,
            kind: "timer",
        });
        let text = obs.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = json::parse(line).expect("valid json");
            assert!(v.get("type").is_some());
        }
    }
}
