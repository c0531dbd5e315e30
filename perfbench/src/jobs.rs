//! Job definitions shared by the timed and the traced runs.
//!
//! A job is one `Experiment::run` plus `report_to_json(..).render()` into
//! memory, on a fresh simulated machine whose cache starts empty, exactly
//! as one CLI invocation runs it.

use std::sync::Arc;

use cachescope_core::export::report_to_json;
use cachescope_core::{
    Experiment, ExperimentReport, Sampler, SamplerConfig, SearchConfig, Searcher, TechniqueConfig,
    TechniqueReport,
};
use cachescope_hwpm::{FaultConfig, PmuConfig};
use cachescope_obs::ObsEvent;
use cachescope_serve::SessionConfig;
use cachescope_sim::tracefile::load_eager;
use cachescope_sim::{Engine, NullHandler, Program, RunLimit, RunStats, SimConfig};
use cachescope_workloads::spec::{self, Scale};
use cachescope_workloads::spec2000;

use crate::gen::sub_seed;
use crate::spans::Tracer;

/// Report filter the CLI and `Experiment` default to.
const MIN_PCT: f64 = 0.01;

/// Where a job's events come from.
#[derive(Clone)]
pub enum Source {
    /// A SPEC-analogue producer, built fresh for every job.
    App(&'static str),
    /// A binary-v2 trace, decoded with `load_eager` inside the job, the
    /// way `cachescope - --replay` reads it.
    Trace(Arc<Vec<u8>>),
}

impl Source {
    pub fn program(&self) -> Box<dyn Program> {
        match self {
            Source::App("mgrid") => Box::new(spec::mgrid(Scale::Test)),
            Source::App("applu") => Box::new(spec::applu(Scale::Test)),
            Source::App("mcf") => Box::new(spec2000::mcf::mcf(Scale::Test)),
            Source::App(other) => panic!("no producer named {other}"),
            Source::Trace(bytes) => {
                Box::new(load_eager(&bytes[..]).expect("generated trace decodes"))
            }
        }
    }
}

#[derive(Clone)]
pub struct JobSpec {
    pub label: String,
    pub source: Source,
    pub technique: TechniqueConfig,
    pub faults: FaultConfig,
    pub limit: RunLimit,
    /// Application references the job simulates (its checked access count).
    pub refs: u64,
}

impl JobSpec {
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            pmu: PmuConfig {
                region_counters: 10,
            },
            faults: self.faults.clone(),
            ..SimConfig::default()
        }
    }

    /// The sampling period, for sampling jobs.
    pub fn period(&self) -> Option<u64> {
        match &self.technique {
            TechniqueConfig::Sampling(c) => match c.period {
                cachescope_core::SamplingPeriod::Fixed(k) => Some(k),
                _ => None,
            },
            _ => None,
        }
    }
}

pub struct JobOut {
    pub stats: RunStats,
    pub rendered: String,
}

/// One job through the public pipeline: `Experiment::run` and render.
pub fn run_job(job: &JobSpec) -> JobOut {
    let report = Experiment::new(job.source.program())
        .technique(job.technique.clone())
        .faults(job.faults.clone())
        .limit(job.limit)
        .run();
    let rendered = report_to_json(&report).render();
    JobOut {
        stats: report.stats,
        rendered,
    }
}

/// Output check for a batch job: misses are conserved and the job ran
/// exactly its reference budget.
pub fn job_ok(job: &JobSpec, stats: &RunStats) -> bool {
    crate::stats::conserves_misses(stats) && stats.app.accesses == job.refs
}

/// What the traced rebuild of a job observed.
pub struct Rebuilt {
    pub out: JobOut,
    /// The whole rebuilt job, span bookkeeping included.
    pub total_ns: u64,
    pub engine_ns: u64,
    pub join_ns: u64,
    pub render_ns: u64,
    pub objects: u64,
    pub events: u64,
    /// Useful outcomes and attempts of the technique: attributed samples
    /// and interrupts for the sampler, kept and measured intervals for
    /// the search.
    pub useful: u64,
    pub attempts: u64,
}

/// Rebuild a job from its parts — `Engine` with the technique's handler,
/// `ExperimentReport::new`, `report_to_json` — inside spans. The
/// rendered report must be byte-identical to [`run_job`]'s.
pub fn rebuild_job(job: &JobSpec, t: &mut Tracer, id: u32) -> Rebuilt {
    let root = t.enter("job", id);
    let (mut program, _) = t.time("job.program", id, || job.source.program());
    let app = program.name().to_string();
    let decls = program.static_objects();
    let mut engine = Engine::new(job.sim_config());
    let sp = t.enter("job.engine+technique", id);
    let (stats, tech, useful, attempts): (RunStats, TechniqueReport, u64, u64) =
        match &job.technique {
            TechniqueConfig::None => {
                let stats = engine.run(&mut program, &mut NullHandler, job.limit);
                (stats, TechniqueReport::default(), 0, 0)
            }
            TechniqueConfig::Sampling(c) => {
                let mut h = Sampler::new(c.clone(), &decls);
                let stats = engine.run(&mut program, &mut h, job.limit);
                let useful = h.samples() - h.unknown_samples();
                let n = stats.interrupts;
                (stats, h.report(), useful, n)
            }
            TechniqueConfig::Search(c) => {
                let mut h = Searcher::new(c.clone(), &decls);
                let stats = engine.run(&mut program, &mut h, job.limit);
                (stats, h.report().cloned().unwrap_or_default(), 0, 0)
            }
        };
    let engine_ns = t.exit(sp);
    let mut obs = engine.take_obs();
    let (useful, attempts) = match &job.technique {
        TechniqueConfig::Search(_) => {
            let measured = obs
                .events()
                .iter()
                .filter(|e| matches!(e, ObsEvent::Interrupt { kind: "timer", .. }))
                .count() as u64;
            let retried = obs
                .events()
                .iter()
                .filter(|e| matches!(e, ObsEvent::SearchIntervalRetry { .. }))
                .count() as u64;
            (measured.saturating_sub(retried), measured)
        }
        _ => (useful, attempts),
    };
    if !tech.degraded.is_empty() {
        obs.emit(ObsEvent::ReportDegraded {
            count: tech.degraded.len() as u64,
        });
    }
    let objects = stats.objects.len() as u64;
    let sp = t.enter("job.join", id);
    let mut report = ExperimentReport::new(app, stats, tech, MIN_PCT);
    let join_ns = t.exit(sp);
    report.events = obs.take_events();
    report.metrics = obs.metrics;
    let events = report.events.len() as u64;
    let sp = t.enter("job.render", id);
    let rendered = report_to_json(&report).render();
    let render_ns = t.exit(sp);
    let total_ns = t.exit(root);
    Rebuilt {
        out: JobOut {
            stats: report.stats,
            rendered,
        },
        total_ns,
        engine_ns,
        join_ns,
        render_ns,
        objects,
        events,
        useful,
        attempts,
    }
}

// ---------------------------------------------------------------------------
// Workload job lists. Each is a fixed rotation: a new seed changes the
// streams (fault draws, generated traces) but never the mix.

/// References per miss-attrib job.
pub const MISS_ATTRIB_REFS: u64 = 1_000_000;
const SAMPLING_PERIOD: u64 = 2_000;
const SEARCH_INTERVAL: u64 = 2_000_000;

/// miss-attrib: mgrid, applu and mcf under four techniques — fixed-period
/// sampling, hardened sampling under PMU skid, n-way search, and hardened
/// search under read jitter.
pub fn miss_attrib_rotation(seed: u64, refs: u64) -> Vec<JobSpec> {
    let skid = FaultConfig {
        skid_depth: 8,
        skid_rate: 1.0,
        seed: sub_seed(seed, 1),
        ..FaultConfig::default()
    };
    let jitter = FaultConfig {
        read_jitter: 0.4,
        seed: sub_seed(seed, 2),
        ..FaultConfig::default()
    };
    let search = SearchConfig {
        interval: SEARCH_INTERVAL,
        ..SearchConfig::default()
    };
    let techniques = [
        (
            "sampling",
            TechniqueConfig::Sampling(SamplerConfig::fixed(SAMPLING_PERIOD)),
            FaultConfig::default(),
        ),
        (
            "sampling+h@skid",
            TechniqueConfig::Sampling(SamplerConfig::fixed(SAMPLING_PERIOD).hardened()),
            skid,
        ),
        (
            "search",
            TechniqueConfig::Search(search.clone()),
            FaultConfig::default(),
        ),
        (
            "search+h@jitter",
            TechniqueConfig::Search(SearchConfig {
                consistency_tolerance: Some(0.05),
                max_remeasure: 2,
                outlier_pct: Some(100.0),
                ..search
            }),
            jitter,
        ),
    ];
    let mut jobs = Vec::new();
    for (tech, technique, faults) in techniques {
        for app in ["mgrid", "applu", "mcf"] {
            jobs.push(JobSpec {
                label: format!("{app}/{tech}"),
                source: Source::App(app),
                technique: technique.clone(),
                faults: faults.clone(),
                limit: RunLimit::AppAccesses(refs),
                refs,
            });
        }
    }
    jobs
}

/// References in each churn-replay trace.
pub const CHURN_REFS: u64 = 320_000;
/// The churn-replay rotation: one trace per allocator reuse probability.
/// Less reuse means more distinct blocks and a costlier by-name report
/// join, so job times spread out and their median follows the host's
/// speed smoothly instead of jumping between its fast and slow phases,
/// as the median of one repeated job does. The traces are equally long,
/// so every job needs about the same memory.
pub const CHURN_REUSE: [f64; 8] = [0.2, 0.28, 0.36, 0.44, 0.52, 0.6, 0.68, 0.76];
const CHURN_PERIOD: u64 = 100;

/// churn-replay: replay the generated trace with sampling.
pub fn churn_job(trace: Arc<Vec<u8>>, refs: u64) -> JobSpec {
    JobSpec {
        label: "churn/sampling".to_string(),
        source: Source::Trace(trace),
        technique: TechniqueConfig::Sampling(SamplerConfig::fixed(CHURN_PERIOD)),
        faults: FaultConfig::default(),
        limit: RunLimit::AppAccesses(refs),
        refs,
    }
}

/// The session configuration every served session uses.
pub fn session_config() -> SessionConfig {
    SessionConfig {
        technique_spec: "sampling:500".to_string(),
        misses: u64::MAX,
        counters: 10,
        interval: 25_000_000,
    }
}

/// A served session as a batch job: the same trace and configuration
/// the daemon runs (`Experiment` over the decoded stream).
pub fn session_job(label: String, trace: Arc<Vec<u8>>, refs: u64) -> JobSpec {
    let cfg = session_config();
    JobSpec {
        label,
        source: Source::Trace(trace),
        technique: cfg.technique().expect("session technique parses"),
        faults: FaultConfig::default(),
        limit: RunLimit::AppMisses(cfg.misses),
        refs,
    }
}
