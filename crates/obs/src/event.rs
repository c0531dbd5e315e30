//! The typed observability event stream.
//!
//! Every layer of the pipeline reports what it did — run phases, interrupt
//! deliveries, PMU reprogramming, sampler period adaptations, searcher
//! split/requeue/terminate decisions, trace record/replay — as a typed
//! [`ObsEvent`]. Events are tool-side state: recording one never charges
//! simulated cycles or touches the simulated cache, so an instrumented
//! run's `instr_cycles` is bit-identical with and without tracing.
//!
//! Each event serializes to one JSON object (`{"type": ..., ...}`); a
//! trace file is JSONL — one event per line.

use crate::json::Json;

/// What happened to one measured region in one search iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionFate {
    /// Nonzero count: re-queued (and later possibly split).
    Requeued,
    /// Zero count but retained by the phase heuristic.
    RetainedZero,
    /// Zero count, discarded.
    Dropped,
}

impl RegionFate {
    fn as_str(&self) -> &'static str {
        match self {
            RegionFate::Requeued => "requeued",
            RegionFate::RetainedZero => "retained_zero",
            RegionFate::Dropped => "dropped",
        }
    }
}

/// One region's measurement within a search iteration.
#[derive(Debug, Clone)]
pub struct MeasuredRegion {
    pub lo: u64,
    pub hi: u64,
    /// Scaled miss count for the interval.
    pub count: u64,
    pub atomic: bool,
    /// Object name, if the region has been narrowed to one.
    pub object: Option<String>,
    pub fate: RegionFate,
}

/// One search iteration's record: what was measured and decided.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// Virtual time at which the iteration's interrupt was handled.
    pub now: u64,
    /// Interval length that produced these measurements.
    pub interval: u64,
    /// Global misses over the interval.
    pub total: u64,
    pub regions: Vec<MeasuredRegion>,
    /// The iteration ended the search (termination rules met).
    pub terminated: bool,
}

impl IterationRecord {
    fn json_fields(&self) -> Vec<(&'static str, Json)> {
        let regions = self
            .regions
            .iter()
            .map(|r| {
                let mut f = vec![
                    ("lo", Json::Uint(r.lo)),
                    ("hi", Json::Uint(r.hi)),
                    ("count", Json::Uint(r.count)),
                    ("atomic", Json::Bool(r.atomic)),
                    ("fate", Json::str(r.fate.as_str())),
                ];
                if let Some(name) = &r.object {
                    f.push(("object", Json::str(name.clone())));
                }
                Json::obj(f)
            })
            .collect();
        vec![
            ("now", Json::Uint(self.now)),
            ("interval", Json::Uint(self.interval)),
            ("total", Json::Uint(self.total)),
            ("terminated", Json::Bool(self.terminated)),
            ("regions", Json::Arr(regions)),
        ]
    }

    /// Serialize to one JSON object (no `type` tag; the event wrapper
    /// adds one).
    pub fn to_json(&self) -> Json {
        Json::obj(self.json_fields())
    }
}

/// A typed observability event. `now` is virtual cycles.
#[derive(Debug, Clone)]
pub enum ObsEvent {
    /// An engine run began.
    RunStart { app: String, limit: String },
    /// An engine run ended (limit reached or program exhausted).
    RunEnd {
        now: u64,
        app_accesses: u64,
        app_misses: u64,
        unmapped_misses: u64,
        instr_cycles: u64,
        interrupts: u64,
    },
    /// A PMU interrupt was delivered to the handler.
    Interrupt { now: u64, kind: &'static str },
    /// A region counter was programmed with base/bound qualification.
    CounterProgram {
        now: u64,
        slot: usize,
        lo: u64,
        hi: u64,
    },
    /// A region counter was disabled.
    CounterDisable { now: u64, slot: usize },
    /// The miss-overflow interrupt was armed `period` misses ahead.
    ArmMissOverflow { now: u64, period: u64 },
    /// The cycle timer was armed for `deadline`.
    ArmTimer { now: u64, deadline: u64 },
    /// The sampler chose a new sampling period (`reason`:
    /// `"initial"` or `"adapt"`).
    SamplerPeriod {
        now: u64,
        period: u64,
        reason: &'static str,
    },
    /// The hardened sampler rejected an interrupt's sample (`reason`:
    /// `"spurious"` or `"repeat"`).
    SampleRejected { now: u64, reason: &'static str },
    /// End-of-run summary of PMU faults injected by an active fault
    /// model (fault-free runs never emit this).
    FaultSummary {
        skidded: u64,
        dropped: u64,
        spurious: u64,
        wrapped: u64,
        delayed: u64,
        jittered: u64,
    },
    /// The hardened search re-measured an interval whose counts failed
    /// the consistency/outlier checks (`attempt` is 1-based).
    SearchIntervalRetry {
        now: u64,
        attempt: u64,
        reason: &'static str,
    },
    /// A technique's report flagged `count` estimates as degraded
    /// (measured under contaminated intervals) instead of silently
    /// mis-ranking them.
    ReportDegraded { count: u64 },
    /// A campaign cell's cache entry existed but was corrupt or stale;
    /// it was treated as a miss and re-simulated.
    CellCacheCorrupt { index: u64, hash: String },
    /// One full measure → rank → split iteration of the n-way search.
    SearchIteration(IterationRecord),
    /// A region was split into children (snapped to object extents), or
    /// found to be atomic.
    RegionSplit {
        now: u64,
        lo: u64,
        hi: u64,
        children: Vec<(u64, u64)>,
        became_atomic: bool,
    },
    /// The search entered its final re-measurement phase over `regions`
    /// found objects.
    SearchFinal { now: u64, regions: usize },
    /// The program allocated a heap block (instrumented `malloc`).
    Alloc {
        now: u64,
        base: u64,
        size: u64,
        name: Option<String>,
    },
    /// The program freed a heap block.
    Free { now: u64, base: u64 },
    /// The program entered a new phase.
    PhaseMarker { now: u64, id: u32 },
    /// A run's event stream was recorded to a trace file.
    TraceRecord { path: String, events: u64 },
    /// A program was replayed from a trace file.
    TraceReplay { path: String, objects: u64 },
    /// A campaign began: `cells` is the expanded matrix size.
    CampaignStart { name: String, cells: u64 },
    /// A cell's cached result was reused; no simulation executed.
    CellCacheHit { index: u64, hash: String },
    /// A cell's simulation started (cache miss).
    CellStart {
        index: u64,
        hash: String,
        workload: String,
        label: String,
    },
    /// A cell's simulation finished and its result was cached.
    CellFinish { index: u64, hash: String },
    /// A cell's simulation panicked and will be retried.
    CellRetry {
        index: u64,
        hash: String,
        attempt: u64,
        error: String,
    },
    /// A cell's simulation panicked with no retries left; the campaign
    /// continues without it.
    CellPanic {
        index: u64,
        hash: String,
        error: String,
    },
    /// The run rule refused a cell's configuration: it failed with no
    /// attempt, and `error` carries its `CS-P` codes.
    CellRefused {
        index: u64,
        hash: String,
        error: String,
    },
    /// A campaign finished (all cells resolved or failed).
    CampaignEnd {
        name: String,
        completed: u64,
        cache_hits: u64,
        failed: u64,
    },
    /// The static checker (`cachescope check`) reported a diagnostic.
    /// `file` names the checked input (a path, workload, or source file);
    /// `line` is 0 when the input has no line structure.
    CheckDiagnostic {
        code: String,
        severity: &'static str,
        file: String,
        line: u64,
        message: String,
    },
    /// The serve daemon admitted a client session.
    SessionStart { id: u64, peer: String },
    /// The serve daemon rejected a session (admission, validation, or
    /// budget). `code` is a stable reason ("busy", "draining",
    /// "byte_budget", or a CS-V*/CS-T*/CS-C* diagnostic code).
    SessionReject {
        id: u64,
        code: String,
        reason: String,
    },
    /// A session's attribution simulation started (dedup miss). `hash`
    /// is the content hash over the trace bytes plus configuration.
    SessionSimStart { id: u64, hash: String },
    /// A session's report was served without simulating: `source` is
    /// `"inflight"` (piggybacked on a running identical session) or
    /// `"disk"` (content-addressed cache hit).
    SessionDedup {
        id: u64,
        hash: String,
        source: &'static str,
    },
    /// A session completed and its report was sent. `ms` is wall-clock
    /// from admission to report write.
    SessionEnd {
        id: u64,
        bytes: u64,
        events: u64,
        ms: u64,
    },
    /// The daemon began draining: finishing `active` in-flight sessions,
    /// refusing new ones.
    ServeDrain { active: u64 },
    /// The daemon stopped after serving `served` and rejecting
    /// `rejected` sessions.
    ServeStop { served: u64, rejected: u64 },
    /// A fuzz scenario entered the differential harness.
    FuzzScenario {
        name: String,
        seed: u64,
        budget_refs: u64,
    },
    /// A hardened technique's top-k ranking inverted versus ground truth
    /// without the degraded flag — a silent-degradation bug.
    FuzzSilentInversion {
        scenario: String,
        technique: String,
        level: String,
        inversions: u64,
    },
    /// One accepted shrink step of the delta-debugging minimizer.
    FuzzMinimizeStep {
        scenario: String,
        action: String,
        refs: u64,
    },
}

impl ObsEvent {
    /// The event's `type` tag as it appears in JSONL.
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::RunStart { .. } => "run_start",
            ObsEvent::RunEnd { .. } => "run_end",
            ObsEvent::Interrupt { .. } => "interrupt",
            ObsEvent::CounterProgram { .. } => "counter_program",
            ObsEvent::CounterDisable { .. } => "counter_disable",
            ObsEvent::ArmMissOverflow { .. } => "arm_miss_overflow",
            ObsEvent::ArmTimer { .. } => "arm_timer",
            ObsEvent::SamplerPeriod { .. } => "sampler_period",
            ObsEvent::SampleRejected { .. } => "sample_rejected",
            ObsEvent::FaultSummary { .. } => "fault_summary",
            ObsEvent::SearchIntervalRetry { .. } => "search_interval_retry",
            ObsEvent::ReportDegraded { .. } => "report_degraded",
            ObsEvent::CellCacheCorrupt { .. } => "cell_cache_corrupt",
            ObsEvent::SearchIteration(_) => "search_iteration",
            ObsEvent::RegionSplit { .. } => "region_split",
            ObsEvent::SearchFinal { .. } => "search_final",
            ObsEvent::Alloc { .. } => "alloc",
            ObsEvent::Free { .. } => "free",
            ObsEvent::PhaseMarker { .. } => "phase",
            ObsEvent::TraceRecord { .. } => "trace_record",
            ObsEvent::TraceReplay { .. } => "trace_replay",
            ObsEvent::CampaignStart { .. } => "campaign_start",
            ObsEvent::CellCacheHit { .. } => "cell_cache_hit",
            ObsEvent::CellStart { .. } => "cell_start",
            ObsEvent::CellFinish { .. } => "cell_finish",
            ObsEvent::CellRetry { .. } => "cell_retry",
            ObsEvent::CellPanic { .. } => "cell_panic",
            ObsEvent::CellRefused { .. } => "cell_refused",
            ObsEvent::CampaignEnd { .. } => "campaign_end",
            ObsEvent::CheckDiagnostic { .. } => "check_diagnostic",
            ObsEvent::SessionStart { .. } => "session_start",
            ObsEvent::SessionReject { .. } => "session_reject",
            ObsEvent::SessionSimStart { .. } => "session_sim_start",
            ObsEvent::SessionDedup { .. } => "session_dedup",
            ObsEvent::SessionEnd { .. } => "session_end",
            ObsEvent::ServeDrain { .. } => "serve_drain",
            ObsEvent::ServeStop { .. } => "serve_stop",
            ObsEvent::FuzzScenario { .. } => "fuzz_scenario",
            ObsEvent::FuzzSilentInversion { .. } => "fuzz_silent_inversion",
            ObsEvent::FuzzMinimizeStep { .. } => "fuzz_minimize_step",
        }
    }

    /// Serialize to one JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![("type", Json::str(self.kind()))];
        match self {
            ObsEvent::RunStart { app, limit } => {
                fields.push(("app", Json::str(app.clone())));
                fields.push(("limit", Json::str(limit.clone())));
            }
            ObsEvent::RunEnd {
                now,
                app_accesses,
                app_misses,
                unmapped_misses,
                instr_cycles,
                interrupts,
            } => {
                fields.push(("now", Json::Uint(*now)));
                fields.push(("app_accesses", Json::Uint(*app_accesses)));
                fields.push(("app_misses", Json::Uint(*app_misses)));
                fields.push(("unmapped_misses", Json::Uint(*unmapped_misses)));
                fields.push(("instr_cycles", Json::Uint(*instr_cycles)));
                fields.push(("interrupts", Json::Uint(*interrupts)));
            }
            ObsEvent::Interrupt { now, kind } => {
                fields.push(("now", Json::Uint(*now)));
                fields.push(("kind", Json::str(*kind)));
            }
            ObsEvent::CounterProgram { now, slot, lo, hi } => {
                fields.push(("now", Json::Uint(*now)));
                fields.push(("slot", Json::Uint(*slot as u64)));
                fields.push(("lo", Json::Uint(*lo)));
                fields.push(("hi", Json::Uint(*hi)));
            }
            ObsEvent::CounterDisable { now, slot } => {
                fields.push(("now", Json::Uint(*now)));
                fields.push(("slot", Json::Uint(*slot as u64)));
            }
            ObsEvent::ArmMissOverflow { now, period } => {
                fields.push(("now", Json::Uint(*now)));
                fields.push(("period", Json::Uint(*period)));
            }
            ObsEvent::ArmTimer { now, deadline } => {
                fields.push(("now", Json::Uint(*now)));
                fields.push(("deadline", Json::Uint(*deadline)));
            }
            ObsEvent::SamplerPeriod {
                now,
                period,
                reason,
            } => {
                fields.push(("now", Json::Uint(*now)));
                fields.push(("period", Json::Uint(*period)));
                fields.push(("reason", Json::str(*reason)));
            }
            ObsEvent::SampleRejected { now, reason } => {
                fields.push(("now", Json::Uint(*now)));
                fields.push(("reason", Json::str(*reason)));
            }
            ObsEvent::FaultSummary {
                skidded,
                dropped,
                spurious,
                wrapped,
                delayed,
                jittered,
            } => {
                fields.push(("skidded", Json::Uint(*skidded)));
                fields.push(("dropped", Json::Uint(*dropped)));
                fields.push(("spurious", Json::Uint(*spurious)));
                fields.push(("wrapped", Json::Uint(*wrapped)));
                fields.push(("delayed", Json::Uint(*delayed)));
                fields.push(("jittered", Json::Uint(*jittered)));
            }
            ObsEvent::SearchIntervalRetry {
                now,
                attempt,
                reason,
            } => {
                fields.push(("now", Json::Uint(*now)));
                fields.push(("attempt", Json::Uint(*attempt)));
                fields.push(("reason", Json::str(*reason)));
            }
            ObsEvent::ReportDegraded { count } => {
                fields.push(("count", Json::Uint(*count)));
            }
            ObsEvent::CellCacheCorrupt { index, hash } => {
                fields.push(("index", Json::Uint(*index)));
                fields.push(("hash", Json::str(hash.clone())));
            }
            ObsEvent::SearchIteration(it) => {
                fields.extend(it.json_fields());
            }
            ObsEvent::RegionSplit {
                now,
                lo,
                hi,
                children,
                became_atomic,
            } => {
                fields.push(("now", Json::Uint(*now)));
                fields.push(("lo", Json::Uint(*lo)));
                fields.push(("hi", Json::Uint(*hi)));
                fields.push((
                    "children",
                    Json::Arr(
                        children
                            .iter()
                            .map(|&(lo, hi)| Json::Arr(vec![Json::Uint(lo), Json::Uint(hi)]))
                            .collect(),
                    ),
                ));
                fields.push(("became_atomic", Json::Bool(*became_atomic)));
            }
            ObsEvent::SearchFinal { now, regions } => {
                fields.push(("now", Json::Uint(*now)));
                fields.push(("regions", Json::Uint(*regions as u64)));
            }
            ObsEvent::Alloc {
                now,
                base,
                size,
                name,
            } => {
                fields.push(("now", Json::Uint(*now)));
                fields.push(("base", Json::Uint(*base)));
                fields.push(("size", Json::Uint(*size)));
                if let Some(name) = name {
                    fields.push(("name", Json::str(name.clone())));
                }
            }
            ObsEvent::Free { now, base } => {
                fields.push(("now", Json::Uint(*now)));
                fields.push(("base", Json::Uint(*base)));
            }
            ObsEvent::PhaseMarker { now, id } => {
                fields.push(("now", Json::Uint(*now)));
                fields.push(("id", Json::Uint(u64::from(*id))));
            }
            ObsEvent::TraceRecord { path, events } => {
                fields.push(("path", Json::str(path.clone())));
                fields.push(("events", Json::Uint(*events)));
            }
            ObsEvent::TraceReplay { path, objects } => {
                fields.push(("path", Json::str(path.clone())));
                fields.push(("objects", Json::Uint(*objects)));
            }
            ObsEvent::CampaignStart { name, cells } => {
                fields.push(("name", Json::str(name.clone())));
                fields.push(("cells", Json::Uint(*cells)));
            }
            ObsEvent::CellCacheHit { index, hash } => {
                fields.push(("index", Json::Uint(*index)));
                fields.push(("hash", Json::str(hash.clone())));
            }
            ObsEvent::CellStart {
                index,
                hash,
                workload,
                label,
            } => {
                fields.push(("index", Json::Uint(*index)));
                fields.push(("hash", Json::str(hash.clone())));
                fields.push(("workload", Json::str(workload.clone())));
                fields.push(("label", Json::str(label.clone())));
            }
            ObsEvent::CellFinish { index, hash } => {
                fields.push(("index", Json::Uint(*index)));
                fields.push(("hash", Json::str(hash.clone())));
            }
            ObsEvent::CellRetry {
                index,
                hash,
                attempt,
                error,
            } => {
                fields.push(("index", Json::Uint(*index)));
                fields.push(("hash", Json::str(hash.clone())));
                fields.push(("attempt", Json::Uint(*attempt)));
                fields.push(("error", Json::str(error.clone())));
            }
            ObsEvent::CellPanic { index, hash, error }
            | ObsEvent::CellRefused { index, hash, error } => {
                fields.push(("index", Json::Uint(*index)));
                fields.push(("hash", Json::str(hash.clone())));
                fields.push(("error", Json::str(error.clone())));
            }
            ObsEvent::CampaignEnd {
                name,
                completed,
                cache_hits,
                failed,
            } => {
                fields.push(("name", Json::str(name.clone())));
                fields.push(("completed", Json::Uint(*completed)));
                fields.push(("cache_hits", Json::Uint(*cache_hits)));
                fields.push(("failed", Json::Uint(*failed)));
            }
            ObsEvent::CheckDiagnostic {
                code,
                severity,
                file,
                line,
                message,
            } => {
                fields.push(("code", Json::str(code.clone())));
                fields.push(("severity", Json::str(*severity)));
                fields.push(("file", Json::str(file.clone())));
                fields.push(("line", Json::Uint(*line)));
                fields.push(("message", Json::str(message.clone())));
            }
            ObsEvent::SessionStart { id, peer } => {
                fields.push(("id", Json::Uint(*id)));
                fields.push(("peer", Json::str(peer.clone())));
            }
            ObsEvent::SessionReject { id, code, reason } => {
                fields.push(("id", Json::Uint(*id)));
                fields.push(("code", Json::str(code.clone())));
                fields.push(("reason", Json::str(reason.clone())));
            }
            ObsEvent::SessionSimStart { id, hash } => {
                fields.push(("id", Json::Uint(*id)));
                fields.push(("hash", Json::str(hash.clone())));
            }
            ObsEvent::SessionDedup { id, hash, source } => {
                fields.push(("id", Json::Uint(*id)));
                fields.push(("hash", Json::str(hash.clone())));
                fields.push(("source", Json::str(*source)));
            }
            ObsEvent::SessionEnd {
                id,
                bytes,
                events,
                ms,
            } => {
                fields.push(("id", Json::Uint(*id)));
                fields.push(("bytes", Json::Uint(*bytes)));
                fields.push(("events", Json::Uint(*events)));
                fields.push(("ms", Json::Uint(*ms)));
            }
            ObsEvent::ServeDrain { active } => {
                fields.push(("active", Json::Uint(*active)));
            }
            ObsEvent::ServeStop { served, rejected } => {
                fields.push(("served", Json::Uint(*served)));
                fields.push(("rejected", Json::Uint(*rejected)));
            }
            ObsEvent::FuzzScenario {
                name,
                seed,
                budget_refs,
            } => {
                fields.push(("name", Json::str(name.clone())));
                fields.push(("seed", Json::Uint(*seed)));
                fields.push(("budget_refs", Json::Uint(*budget_refs)));
            }
            ObsEvent::FuzzSilentInversion {
                scenario,
                technique,
                level,
                inversions,
            } => {
                fields.push(("scenario", Json::str(scenario.clone())));
                fields.push(("technique", Json::str(technique.clone())));
                fields.push(("level", Json::str(level.clone())));
                fields.push(("inversions", Json::Uint(*inversions)));
            }
            ObsEvent::FuzzMinimizeStep {
                scenario,
                action,
                refs,
            } => {
                fields.push(("scenario", Json::str(scenario.clone())));
                fields.push(("action", Json::str(action.clone())));
                fields.push(("refs", Json::Uint(*refs)));
            }
        }
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn every_event_serializes_to_a_tagged_object() {
        let events = vec![
            ObsEvent::RunStart {
                app: "tomcatv".into(),
                limit: "AppMisses(100)".into(),
            },
            ObsEvent::RunEnd {
                now: 9,
                app_accesses: 8,
                app_misses: 7,
                unmapped_misses: 0,
                instr_cycles: 6,
                interrupts: 5,
            },
            ObsEvent::Interrupt {
                now: 1,
                kind: "miss_overflow",
            },
            ObsEvent::CounterProgram {
                now: 2,
                slot: 0,
                lo: 16,
                hi: 32,
            },
            ObsEvent::CounterDisable { now: 3, slot: 1 },
            ObsEvent::ArmMissOverflow {
                now: 4,
                period: 1000,
            },
            ObsEvent::ArmTimer {
                now: 5,
                deadline: 99,
            },
            ObsEvent::SamplerPeriod {
                now: 6,
                period: 500,
                reason: "adapt",
            },
            ObsEvent::SampleRejected {
                now: 6,
                reason: "spurious",
            },
            ObsEvent::FaultSummary {
                skidded: 1,
                dropped: 2,
                spurious: 3,
                wrapped: 4,
                delayed: 5,
                jittered: 6,
            },
            ObsEvent::SearchIntervalRetry {
                now: 7,
                attempt: 1,
                reason: "inconsistent",
            },
            ObsEvent::ReportDegraded { count: 2 },
            ObsEvent::CellCacheCorrupt {
                index: 3,
                hash: "deadbeefdeadbeef".into(),
            },
            ObsEvent::SearchIteration(IterationRecord {
                now: 7,
                interval: 100,
                total: 50,
                regions: vec![MeasuredRegion {
                    lo: 0,
                    hi: 64,
                    count: 50,
                    atomic: true,
                    object: Some("A".into()),
                    fate: RegionFate::Requeued,
                }],
                terminated: true,
            }),
            ObsEvent::RegionSplit {
                now: 8,
                lo: 0,
                hi: 128,
                children: vec![(0, 64), (64, 128)],
                became_atomic: false,
            },
            ObsEvent::SearchFinal { now: 9, regions: 3 },
            ObsEvent::Alloc {
                now: 10,
                base: 4096,
                size: 64,
                name: None,
            },
            ObsEvent::Free {
                now: 11,
                base: 4096,
            },
            ObsEvent::PhaseMarker { now: 12, id: 2 },
            ObsEvent::TraceRecord {
                path: "t.trace".into(),
                events: 42,
            },
            ObsEvent::TraceReplay {
                path: "t.trace".into(),
                objects: 3,
            },
            ObsEvent::CampaignStart {
                name: "table1".into(),
                cells: 14,
            },
            ObsEvent::CellCacheHit {
                index: 0,
                hash: "deadbeefdeadbeef".into(),
            },
            ObsEvent::CellStart {
                index: 1,
                hash: "deadbeefdeadbeef".into(),
                workload: "tomcatv".into(),
                label: "sample".into(),
            },
            ObsEvent::CellFinish {
                index: 1,
                hash: "deadbeefdeadbeef".into(),
            },
            ObsEvent::CellRetry {
                index: 2,
                hash: "deadbeefdeadbeef".into(),
                attempt: 1,
                error: "boom".into(),
            },
            ObsEvent::CellPanic {
                index: 2,
                hash: "deadbeefdeadbeef".into(),
                error: "boom".into(),
            },
            ObsEvent::CellRefused {
                index: 3,
                hash: "deadbeefdeadbeef".into(),
                error: "CS-P004: no counters".into(),
            },
            ObsEvent::CampaignEnd {
                name: "table1".into(),
                completed: 13,
                cache_hits: 5,
                failed: 1,
            },
            ObsEvent::CheckDiagnostic {
                code: "CS-W001".into(),
                severity: "error",
                file: "t.trace".into(),
                line: 12,
                message: "double alloc".into(),
            },
            ObsEvent::SessionStart {
                id: 1,
                peer: "unix".into(),
            },
            ObsEvent::SessionReject {
                id: 2,
                code: "busy".into(),
                reason: "8 sessions active".into(),
            },
            ObsEvent::SessionSimStart {
                id: 1,
                hash: "deadbeefdeadbeef".into(),
            },
            ObsEvent::SessionDedup {
                id: 3,
                hash: "deadbeefdeadbeef".into(),
                source: "inflight",
            },
            ObsEvent::SessionEnd {
                id: 1,
                bytes: 4096,
                events: 100,
                ms: 12,
            },
            ObsEvent::ServeDrain { active: 2 },
            ObsEvent::ServeStop {
                served: 10,
                rejected: 1,
            },
        ];
        for ev in events {
            let j = ev.to_json();
            // Valid JSON that round-trips and carries the type tag.
            let parsed = json::parse(&j.render()).expect("valid json");
            assert_eq!(parsed.get("type").unwrap().as_str(), Some(ev.kind()));
        }
    }

    #[test]
    fn search_iteration_carries_region_decisions() {
        let ev = ObsEvent::SearchIteration(IterationRecord {
            now: 1000,
            interval: 500,
            total: 100,
            regions: vec![
                MeasuredRegion {
                    lo: 0x1000,
                    hi: 0x2000,
                    count: 60,
                    atomic: false,
                    object: None,
                    fate: RegionFate::Requeued,
                },
                MeasuredRegion {
                    lo: 0x2000,
                    hi: 0x3000,
                    count: 0,
                    atomic: true,
                    object: Some("RX".into()),
                    fate: RegionFate::Dropped,
                },
            ],
            terminated: false,
        });
        let line = ev.to_json().render();
        assert!(line.contains("\"fate\":\"requeued\""));
        assert!(line.contains("\"fate\":\"dropped\""));
        assert!(line.contains("\"object\":\"RX\""));
        assert!(!line.contains('\n'), "one event, one line");
    }
}
