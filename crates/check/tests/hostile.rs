//! Hostile extents never abort a run. Each input carries records the
//! shared extent rule refuses (overlapping, empty or wrapping statics
//! and allocations) or frees the engine ignores. Under every technique
//! the run must return, the refusal must surface as its typed
//! diagnostic, ground truth must equal that of the same input with the
//! refused records deleted, and the static oracle, which applies the
//! same rule, must find ground truth inside its bounds.
//!
//! Hostile option values are refused before any run starts. A run
//! configuration (technique, counter count, fault model) is judged by
//! one rule, `cachescope_core::run_refusals`: one table of hostile and
//! boundary values goes through every door that can carry each value
//! (the rule itself, a daemon hello, a campaign cell, a fuzz golden and
//! `check`, both of a cell and of a golden), and every door must refuse
//! a hostile value with the same `CS-P` code and admit a boundary one.

use cachescope_analyze::{analyze_program, AnalyzeConfig};
use cachescope_campaign::spec::{
    HARDENED_CONSISTENCY_TOLERANCE, HARDENED_MAX_REMEASURE, HARDENED_OUTLIER_PCT,
};
use cachescope_campaign::Cell;
use cachescope_check::bounds::{analysis_limit, check_report_bounds};
use cachescope_check::fuzz::check_golden_json;
use cachescope_check::pmu::check_cell;
use cachescope_check::trace::check_trace;
use cachescope_core::export::report_to_json;
use cachescope_core::{
    run_refusals, Experiment, ExperimentReport, FaultConfig, PmuConfig, SamplerConfig,
    SamplingPeriod, SearchConfig, TechniqueConfig,
};
use cachescope_fuzzgen::golden::{Expected, Golden};
use cachescope_obs::ObsEvent;
use cachescope_serve::SessionConfig;
use cachescope_sim::tracefile::{RecordingProgram, TraceFormat};
use cachescope_sim::{
    CacheConfig, Event, MemRef, ObjectDecl, Program, RunLimit, TimelineConfig, TraceProgram,
};
use cachescope_workloads::fuzz::Scenario;
use cachescope_workloads::spec::Scale;

const HEAP: u64 = 0x1_4100_0000;
/// Base of an extent whose `base + 8192` wraps the address space.
const TOP: u64 = 0xffff_ffff_ffff_f000;

/// One hostile input. Records flagged `true` are the ones the engine
/// refuses (or, for a free, ignores); deleting them gives the clean
/// input the hostile one must degrade to.
struct Case {
    name: &'static str,
    /// What `check --trace` reports for the input; the engine emits the
    /// same code when it refuses an extent.
    code: &'static str,
    statics: Vec<(ObjectDecl, bool)>,
    events: Vec<(Event, bool)>,
}

impl Case {
    fn program(&self, with_refused: bool) -> TraceProgram {
        let keep = |refused: bool| with_refused || !refused;
        TraceProgram::new(
            self.name,
            self.statics
                .iter()
                .filter(|&&(_, r)| keep(r))
                .map(|(d, _)| d.clone())
                .collect(),
            self.events
                .iter()
                .filter(|&&(_, r)| keep(r))
                .map(|(e, _)| e.clone())
                .collect(),
        )
    }

    /// Does the engine refuse an extent here (rather than ignore a
    /// free)?
    fn refuses_extent(&self) -> bool {
        self.statics.iter().any(|&(_, r)| r)
            || self
                .events
                .iter()
                .any(|(e, r)| *r && matches!(e, Event::Alloc { .. }))
    }
}

fn alloc(base: u64, size: u64, name: &str) -> Event {
    Event::Alloc {
        base,
        size,
        name: Some(name.to_string()),
    }
}

/// Reads over every extent the cases contest, with compute between them
/// so the search's timer fires: the statics, the heap, a zero-size
/// static's base, and both ends of a wrapped extent.
fn sweep() -> Vec<Event> {
    let lines = |base: u64, n: u64| (0..n).map(move |k| base + k * 64);
    lines(0x4000, 128)
        .chain(lines(0x9000, 4))
        .chain(lines(0x10_000, 128))
        .chain(lines(HEAP, 64))
        .chain(lines(TOP, 63))
        .chain(lines(0, 16))
        .flat_map(|a| [Event::Compute(200), Event::Access(MemRef::read(a, 8))])
        .collect()
}

fn case(
    name: &'static str,
    code: &'static str,
    extra_statics: Vec<(ObjectDecl, bool)>,
    prefix: Vec<(Event, bool)>,
    suffix: Vec<(Event, bool)>,
) -> Case {
    let mut statics = vec![
        (ObjectDecl::global("a", 0x4000, 4096), false),
        (ObjectDecl::global("b", 0x10_000, 8192), false),
    ];
    statics.extend(extra_statics);
    let clean = |evs: Vec<Event>| evs.into_iter().map(|e| (e, false));
    let mut events = prefix;
    events.extend(clean(sweep()));
    events.extend(suffix);
    events.extend(clean(sweep()));
    Case {
        name,
        code,
        statics,
        events,
    }
}

fn cases() -> Vec<Case> {
    let blk = || (alloc(HEAP, 4096, "blk"), false);
    let over = || (alloc(HEAP + 0x800, 4096, "over"), true);
    let free = |base, refused| (Event::Free { base }, refused);
    vec![
        case(
            "overlapping-statics",
            "CS-W005",
            vec![(ObjectDecl::global("c", 0x4800, 4096), true)],
            vec![],
            vec![],
        ),
        case(
            "zero-size-static",
            "CS-W006",
            vec![(ObjectDecl::global("z", 0x9000, 0), true)],
            vec![],
            vec![],
        ),
        case(
            "wrapping-static",
            "CS-P001",
            vec![(ObjectDecl::global("w", TOP, 8192), true)],
            vec![],
            vec![],
        ),
        case(
            "wrapping-alloc",
            "CS-P001",
            vec![],
            vec![(alloc(TOP, 8192, "wrap"), true)],
            vec![],
        ),
        case(
            "zero-size-alloc-at-static-base",
            "CS-W006",
            vec![],
            vec![(alloc(0x4000, 0, "empty"), true)],
            vec![],
        ),
        case(
            "alloc-over-live-block",
            "CS-W001",
            vec![],
            vec![blk(), over()],
            vec![free(HEAP, false)],
        ),
        case(
            "double-free",
            "CS-W002",
            vec![],
            vec![blk()],
            vec![free(HEAP, false), free(HEAP, true)],
        ),
        case(
            "free-of-refused-alloc",
            "CS-W001",
            vec![],
            vec![blk(), over()],
            vec![free(HEAP + 0x800, false), free(HEAP, false)],
        ),
    ]
}

/// Every technique, each with the fault model its hardening targets.
fn techniques() -> Vec<(&'static str, TechniqueConfig, FaultConfig)> {
    let search = |hardened: bool, coalesce_sites: bool| {
        let mut cfg = SearchConfig {
            interval: 20_000,
            coalesce_sites,
            ..SearchConfig::default()
        };
        if hardened {
            cfg.consistency_tolerance = Some(HARDENED_CONSISTENCY_TOLERANCE);
            cfg.max_remeasure = HARDENED_MAX_REMEASURE;
            cfg.outlier_pct = Some(HARDENED_OUTLIER_PCT);
        }
        TechniqueConfig::Search(cfg)
    };
    let skid = FaultConfig {
        skid_depth: 8,
        skid_rate: 1.0,
        seed: 3,
        ..FaultConfig::default()
    };
    let jitter = FaultConfig {
        read_jitter: 0.4,
        seed: 3,
        ..FaultConfig::default()
    };
    let sampling = TechniqueConfig::Sampling;
    vec![
        ("none", TechniqueConfig::None, FaultConfig::default()),
        (
            "sampling:1",
            TechniqueConfig::sampling(1),
            FaultConfig::default(),
        ),
        (
            "jittered",
            sampling(SamplerConfig::jittered(8, 4, 7)),
            FaultConfig::default(),
        ),
        (
            "adaptive",
            sampling(SamplerConfig {
                // The default first period outlasts these inputs.
                period: SamplingPeriod::Adaptive {
                    initial: 16,
                    target_overhead_pct: 5.0,
                    seed: 7,
                },
                ..SamplerConfig::adaptive(5.0)
            }),
            FaultConfig::default(),
        ),
        (
            "sampling+h/skid",
            sampling(SamplerConfig::fixed(4).hardened()),
            skid,
        ),
        ("search", search(false, false), FaultConfig::default()),
        ("search+h/jitter", search(true, false), jitter),
        (
            "search/coalesce",
            search(false, true),
            FaultConfig::default(),
        ),
    ]
}

fn run(program: TraceProgram, technique: TechniqueConfig, faults: FaultConfig) -> ExperimentReport {
    Experiment::new(program)
        .technique(technique)
        .faults(faults)
        .limit(RunLimit::Exhausted)
        .run()
}

fn diagnostic_codes(report: &ExperimentReport) -> Vec<String> {
    report
        .events
        .iter()
        .filter_map(|ev| match ev {
            ObsEvent::CheckDiagnostic { code, .. } => Some(code.clone()),
            _ => None,
        })
        .collect()
}

/// Ground truth a report's Actual column comes from.
fn truth(report: &ExperimentReport) -> (Vec<(String, u64, u64, u64)>, u64) {
    let objects = report
        .stats
        .objects
        .iter()
        .map(|o| (o.name.clone(), o.base, o.size, o.misses))
        .collect();
    (objects, report.stats.unmapped_misses)
}

/// The L1 and timeline options only the CLI sets are refused at parse,
/// by the predicates `--l1` and `--timeline` call: a 0 KiB L1 used to
/// abort in `CacheConfig::validate` and a zero bucket width in
/// `Timeline::new`.
#[test]
fn hostile_option_values_are_refused_where_they_enter() {
    let top = CacheConfig::MAX_L1_KIB;
    for kib in [0, top + 1, u64::MAX / 1024 + 1, u64::MAX] {
        assert!(CacheConfig::l1_kib(kib).is_err(), "L1 of {kib} KiB");
    }
    for kib in [1, 3, 32, 1000, top] {
        let l1 = CacheConfig::l1_kib(kib).unwrap();
        l1.validate();
        assert!(l1.size_bytes >= kib * 1024 && l1.size_bytes.is_power_of_two());
    }
    assert!(TimelineConfig::new(0).is_err());
    assert_eq!(TimelineConfig::new(1).map(|t| t.bucket_cycles), Ok(1));
}

/// One knob of a run configuration, set to one value; the others keep
/// the CLI's defaults.
enum Knob {
    /// PMU region counters, under `search` (zero used to abort the
    /// search, a huge count the counter array's allocation).
    Counters(usize),
    /// A technique spec (a huge search width used to abort in the
    /// searcher's region seeding).
    Technique(String),
    /// A fault model, under sampling (a huge skid depth used to abort in
    /// the skid ring's allocation).
    Faults(FaultConfig),
}

impl Knob {
    /// The run configuration: technique spec, counters, faults.
    fn config(&self) -> (&str, usize, FaultConfig) {
        match self {
            Knob::Counters(n) => ("search", *n, FaultConfig::default()),
            Knob::Technique(spec) => (spec, 10, FaultConfig::default()),
            Knob::Faults(f) => ("sampling:1000", 10, f.clone()),
        }
    }
}

/// Hostile values with the code every door must refuse them with, and
/// boundary values (`None`) every door must admit.
fn config_rows() -> Vec<(Knob, Option<&'static str>)> {
    let faults = |set: fn(&mut FaultConfig)| {
        let mut f = FaultConfig {
            seed: 3,
            ..FaultConfig::default()
        };
        set(&mut f);
        Knob::Faults(f)
    };
    let technique = |spec: &str| Knob::Technique(spec.to_string());
    let cap = PmuConfig::MAX_REGION_COUNTERS;
    vec![
        (Knob::Counters(0), Some("CS-P004")),
        (Knob::Counters(cap + 1), Some("CS-P007")),
        (Knob::Counters(100_000_000_000), Some("CS-P007")),
        (technique("sampling:0"), Some("CS-P003")),
        (technique("adaptive:NaN"), Some("CS-P003")),
        (technique("search:0"), Some("CS-P005")),
        (technique("search:100000000000"), Some("CS-P005")),
        (
            faults(|f| {
                f.skid_depth = 100_000_000_000;
                f.skid_rate = 0.5;
            }),
            Some("CS-P006"),
        ),
        (faults(|f| f.drop_rate = 1.5), Some("CS-P006")),
        (faults(|f| f.wrap_bits = 99), Some("CS-P006")),
        // Boundaries: one counter (the search timeshares it), each cap.
        (Knob::Counters(1), None),
        (Knob::Counters(cap), None),
        (technique("search:1"), None),
        (
            technique(&format!("search:{}", SearchConfig::MAX_LOGICAL_WAYS)),
            None,
        ),
        (
            faults(|f| {
                f.skid_depth = FaultConfig::MAX_SKID_DEPTH;
                f.skid_rate = 0.5;
            }),
            None,
        ),
        (faults(|f| f.drop_rate = 1.0), None),
        (faults(|f| f.wrap_bits = 64), None),
    ]
}

/// What one door made of a configuration: `Ok` when it admitted it, or
/// the CS-P code its refusal starts with.
fn door_code(refusal: Result<(), String>) -> Result<(), String> {
    refusal.map_err(|e| e.split(':').next().unwrap_or_default().to_string())
}

#[test]
fn every_door_refuses_a_hostile_run_configuration_with_one_code() {
    for (knob, code) in config_rows() {
        let (spec, counters, faults) = knob.config();
        let who = format!("{spec} on {counters} counters, {faults:?}");
        let want = code.map_or(Ok(()), |c| Err(c.to_string()));
        let technique = TechniqueConfig::parse_spec(spec, 20_000, false, false).unwrap();

        let rule: Vec<_> = run_refusals(&technique, counters, &faults)
            .iter()
            .map(|r| r.code)
            .collect();
        assert_eq!(rule, code.into_iter().collect::<Vec<_>>(), "rule: {who}");

        let cell = Cell {
            index: 0,
            workload: "mgrid".into(),
            scale: Scale::Test,
            label: "hostile".into(),
            seed: 1,
            technique,
            counters,
            limit: RunLimit::AppMisses(1_000),
            faults: faults.clone(),
        };
        let checked: Vec<_> = check_cell(&cell, "hostile")
            .iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(checked, rule, "check_cell: {who}");
        assert_eq!(door_code(cell.run().map(drop)), want, "Cell::run: {who}");

        if let Knob::Faults(faults) = &knob {
            let golden = Golden {
                name: "hostile".into(),
                technique: "sample+h".into(),
                level: "skid".into(),
                faults: faults.clone(),
                expected: Expected {
                    min_inversions: 1,
                    max_degraded: 0,
                },
                provenance: None,
                scenario: Scenario::generate(1, 1_000),
            };
            let parsed = Golden::from_json(&golden.to_json()).map(drop);
            assert_eq!(door_code(parsed), want, "Golden::from_json: {who}");
            let checked: Vec<_> = check_golden_json(&golden.to_json(), "hostile")
                .iter()
                .map(|d| d.code)
                .collect();
            assert_eq!(checked, rule, "check_golden_json: {who}");
        } else {
            let hello = format!(r#"{{"technique":"{spec}","counters":{counters}}}"#);
            let admitted = SessionConfig::from_json(hello.as_bytes()).map(drop);
            if let Err(r) = &admitted {
                assert_eq!(r.code, "bad_config", "hello: {who}");
            }
            let admitted = admitted.map_err(|r| r.message);
            assert_eq!(door_code(admitted), want, "hello: {who}");
        }
    }
}

#[test]
fn check_reports_each_hostile_record() {
    for c in cases() {
        let mut rec = RecordingProgram::with_format(c.program(true), Vec::new(), TraceFormat::Text);
        while rec.next_event().is_some() {}
        let text = rec.into_writer();
        let codes: Vec<_> = check_trace(&text[..], c.name)
            .iter()
            .map(|d| d.code)
            .collect();
        assert!(codes.contains(&c.code), "{}: {codes:?}", c.name);
    }
}

#[test]
fn hostile_extents_degrade_under_every_technique() {
    for c in cases() {
        let clean = run(
            c.program(false),
            TechniqueConfig::None,
            FaultConfig::default(),
        );
        assert!(diagnostic_codes(&clean).is_empty(), "{}", c.name);
        let cfg = AnalyzeConfig {
            limit: analysis_limit(RunLimit::Exhausted),
            ..AnalyzeConfig::default()
        };
        let bounds = analyze_program(&mut c.program(true), &cfg);
        for (label, technique, faults) in techniques() {
            let who = format!("{}/{label}", c.name);
            let report = run(c.program(true), technique, faults);
            let want: Vec<String> = if c.refuses_extent() {
                vec![c.code.to_string()]
            } else {
                vec![]
            };
            assert_eq!(diagnostic_codes(&report), want, "{who}");
            if label == "none" {
                assert_eq!(truth(&report), truth(&clean), "{who}");
            } else {
                assert!(
                    report.stats.interrupts > 0,
                    "{who}: the technique never ran"
                );
            }
            let diags = check_report_bounds(&report_to_json(&report), &bounds, &who);
            assert!(diags.is_empty(), "{who}: {diags:?}");
        }
    }
}
