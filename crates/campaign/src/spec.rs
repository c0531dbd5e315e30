//! Declarative campaign specs: the sweep matrix and its expansion.
//!
//! A [`CampaignSpec`] names workloads and techniques symbolically (so it
//! can live in a JSON file); [`CampaignSpec::expand`] resolves the matrix
//! into concrete [`Cell`]s, applying per-workload knowledge — phase-cycle
//! rounding for run lengths, su2cor's longer search interval — at
//! expansion time so the JSON stays workload-agnostic.

use cachescope_core::{FaultConfig, SamplerConfig, SearchConfig, TechniqueConfig};
use cachescope_obs::Json;
use cachescope_sim::RunLimit;
use cachescope_workloads::spec::{self, Scale};

use crate::cell::Cell;
use crate::registry;

/// How a symbolic run-length resolves against a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundMode {
    /// Use the base count as-is.
    Exact,
    /// Round down to whole phase cycles (at least one), so phased
    /// applications run their designed mix. Falls back to [`Exact`]
    /// for workloads without a known cycle length.
    ///
    /// [`Exact`]: RoundMode::Exact
    WholeCycles,
    /// Whole cycles covering at least the base, and at least two cycles —
    /// the table binaries' run length for search experiments. Falls back
    /// to [`Exact`] like [`WholeCycles`].
    ///
    /// [`Exact`]: RoundMode::Exact
    /// [`WholeCycles`]: RoundMode::WholeCycles
    SearchRun,
}

/// Strict-parsing guard: reject unknown and duplicated keys in a spec
/// object. `path` locates the object within the file (`techniques[2]`,
/// `techniques[0].limit`, ...) so the error names the exact key path.
fn check_keys(v: &Json, path: &str, allowed: &[&str]) -> Result<(), String> {
    let Json::Obj(fields) = v else {
        return Err(format!("{path}: expected an object"));
    };
    for (i, (k, _)) in fields.iter().enumerate() {
        if !allowed.contains(&k.as_str()) {
            return Err(format!(
                "{path}: unknown key '{k}' (allowed: {})",
                allowed.join(", ")
            ));
        }
        if fields[..i].iter().any(|(p, _)| p == k) {
            return Err(format!("{path}: duplicate key '{k}'"));
        }
    }
    Ok(())
}

impl RoundMode {
    fn tag(self) -> &'static str {
        match self {
            RoundMode::Exact => "exact",
            RoundMode::WholeCycles => "whole_cycles",
            RoundMode::SearchRun => "search_run",
        }
    }

    fn from_tag(tag: &str) -> Result<Self, String> {
        match tag {
            "exact" => Ok(RoundMode::Exact),
            "whole_cycles" => Ok(RoundMode::WholeCycles),
            "search_run" => Ok(RoundMode::SearchRun),
            other => Err(format!("unknown round mode '{other}'")),
        }
    }
}

/// Symbolic run length, resolved per workload at expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LimitSpec {
    /// Stop after this many application misses (optionally rounded).
    AppMisses { base: u64, round: RoundMode },
    /// Stop after this many application (non-instrumentation) cycles.
    AppCycles { base: u64 },
    /// Stop after this many application memory accesses (used by fuzz
    /// scenarios, whose budgets are denominated in references).
    AppAccesses { base: u64 },
}

impl LimitSpec {
    /// Exact application-miss run length.
    pub fn misses(base: u64) -> Self {
        LimitSpec::AppMisses {
            base,
            round: RoundMode::Exact,
        }
    }

    /// Whole-cycle-rounded application-miss run length.
    pub fn whole_cycles(base: u64) -> Self {
        LimitSpec::AppMisses {
            base,
            round: RoundMode::WholeCycles,
        }
    }

    /// Search-run application-miss run length (≥ 2 cycles, ≥ base).
    pub fn search_run(base: u64) -> Self {
        LimitSpec::AppMisses {
            base,
            round: RoundMode::SearchRun,
        }
    }

    /// Exact application-access run length.
    pub fn accesses(base: u64) -> Self {
        LimitSpec::AppAccesses { base }
    }

    fn to_json(&self) -> Json {
        match self {
            LimitSpec::AppMisses { base, round } => Json::obj(vec![
                ("kind", Json::str("app_misses")),
                ("base", Json::Uint(*base)),
                ("round", Json::str(round.tag())),
            ]),
            LimitSpec::AppCycles { base } => Json::obj(vec![
                ("kind", Json::str("app_cycles")),
                ("base", Json::Uint(*base)),
            ]),
            LimitSpec::AppAccesses { base } => Json::obj(vec![
                ("kind", Json::str("app_accesses")),
                ("base", Json::Uint(*base)),
            ]),
        }
    }

    fn from_json(v: &Json, path: &str) -> Result<Self, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: limit missing 'kind'"))?;
        let base = v
            .get("base")
            .and_then(Json::as_u64)
            .ok_or(format!("{path}: limit missing 'base'"))?;
        match kind {
            "app_misses" => {
                check_keys(v, path, &["kind", "base", "round"])?;
                let round = match v.get("round").and_then(Json::as_str) {
                    Some(tag) => RoundMode::from_tag(tag).map_err(|e| format!("{path}: {e}"))?,
                    None => RoundMode::Exact,
                };
                Ok(LimitSpec::AppMisses { base, round })
            }
            "app_cycles" => {
                check_keys(v, path, &["kind", "base"])?;
                Ok(LimitSpec::AppCycles { base })
            }
            "app_accesses" => {
                check_keys(v, path, &["kind", "base"])?;
                Ok(LimitSpec::AppAccesses { base })
            }
            other => Err(format!("{path}: unknown limit kind '{other}'")),
        }
    }

    /// Resolve to a concrete [`RunLimit`] for `workload` at `scale`.
    pub fn resolve(&self, workload: &str, scale: Scale) -> RunLimit {
        match *self {
            LimitSpec::AppCycles { base } => RunLimit::AppCycles(base),
            LimitSpec::AppAccesses { base } => RunLimit::AppAccesses(base),
            LimitSpec::AppMisses { base, round } => {
                let cycle = registry::cycle_misses(workload, scale);
                let misses = match (round, cycle) {
                    (RoundMode::Exact, _) | (_, None) => base,
                    (RoundMode::WholeCycles, Some(c)) => whole_cycles(base, c),
                    (RoundMode::SearchRun, Some(c)) => search_run_misses(c, base),
                };
                RunLimit::AppMisses(misses)
            }
        }
    }
}

/// Round `misses` down to a whole number of phase cycles (at least one).
pub fn whole_cycles(misses: u64, cycle: u64) -> u64 {
    (misses / cycle).max(1) * cycle
}

/// Run length for a search experiment: whole cycles covering at least
/// `base` misses, and at least two cycles.
pub fn search_run_misses(app_cycle: u64, base: u64) -> u64 {
    whole_cycles(base, app_cycle).max(2 * app_cycle)
}

/// Hardened-search defaults: region counts may exceed the global total
/// by 5% before an interval is treated as contaminated, contaminated
/// intervals are re-measured up to three times, and a single region
/// counting more than the whole interval total is always rejected.
pub const HARDENED_CONSISTENCY_TOLERANCE: f64 = 0.05;
/// See [`HARDENED_CONSISTENCY_TOLERANCE`].
pub const HARDENED_MAX_REMEASURE: u32 = 3;
/// See [`HARDENED_CONSISTENCY_TOLERANCE`].
pub const HARDENED_OUTLIER_PCT: f64 = 100.0;

/// PMU region counters per cell unless a column sets its own (the
/// repo-wide default width); every fuzz cell and golden replay runs on
/// this many.
pub const COUNTERS: usize = 10;

/// Fixed miss-sampling period for fuzz cells. Small relative to fuzz
/// budgets so even a 20k-ref smoke scenario collects enough samples to
/// rank its targets.
pub const SAMPLE_PERIOD: u64 = 320;

/// Search measurement interval for a fuzz scenario: short enough that a
/// small budget still completes several intervals per region, floored so
/// tiny minimized scenarios don't degenerate to per-access intervals.
pub fn fuzz_search_interval(budget_refs: u64) -> u64 {
    budget_refs.saturating_mul(2).max(20_000)
}

/// Resolve a fuzz technique name (`sample`, `sample+h`, `search`,
/// `search+h`) to the concrete config a *direct* (non-campaign)
/// experiment uses — the minimizer and golden replays must measure
/// exactly what the campaign cells measured, and `check` judges a
/// golden's run by the same config.
pub fn technique_config(technique: &str, budget_refs: u64) -> Option<TechniqueConfig> {
    let search = |hardened: bool| {
        let mut cfg = SearchConfig {
            interval: fuzz_search_interval(budget_refs),
            ..Default::default()
        };
        if hardened {
            cfg.consistency_tolerance = Some(HARDENED_CONSISTENCY_TOLERANCE);
            cfg.max_remeasure = HARDENED_MAX_REMEASURE;
            cfg.outlier_pct = Some(HARDENED_OUTLIER_PCT);
        }
        TechniqueConfig::Search(cfg)
    };
    let sampling = |hardened: bool| {
        let mut cfg = SamplerConfig::fixed(SAMPLE_PERIOD);
        cfg.hardened = hardened;
        TechniqueConfig::Sampling(cfg)
    };
    match technique {
        "sample" => Some(sampling(false)),
        "sample+h" => Some(sampling(true)),
        "search" => Some(search(false)),
        "search+h" => Some(search(true)),
        _ => None,
    }
}

/// Render a [`FaultConfig`] as canonical JSON: every knob in a fixed key
/// order, so equal configurations render to identical bytes (the cache
/// identity depends on this).
pub fn fault_config_to_json(f: &FaultConfig) -> Json {
    Json::obj(vec![
        ("skid_depth", Json::Uint(f.skid_depth as u64)),
        ("skid_rate", Json::Float(f.skid_rate)),
        ("drop_rate", Json::Float(f.drop_rate)),
        ("spurious_rate", Json::Float(f.spurious_rate)),
        ("wrap_bits", Json::Uint(u64::from(f.wrap_bits))),
        ("delivery_delay_cycles", Json::Uint(f.delivery_delay_cycles)),
        ("read_jitter", Json::Float(f.read_jitter)),
        ("seed", Json::Uint(f.seed)),
    ])
}

/// Parse a [`FaultConfig`] from its JSON form; absent keys keep their
/// (inert) defaults.
pub fn fault_config_from_json(v: &Json) -> Result<FaultConfig, String> {
    fault_config_from_json_at(v, "faults")
}

/// [`fault_config_from_json`] with a key path for error messages.
fn fault_config_from_json_at(v: &Json, path: &str) -> Result<FaultConfig, String> {
    check_keys(
        v,
        path,
        &[
            "skid_depth",
            "skid_rate",
            "drop_rate",
            "spurious_rate",
            "wrap_bits",
            "delivery_delay_cycles",
            "read_jitter",
            "seed",
        ],
    )?;
    let mut f = FaultConfig::default();
    if let Some(n) = v.get("skid_depth").and_then(Json::as_u64) {
        f.skid_depth = n as usize;
    }
    if let Some(x) = v.get("skid_rate").and_then(Json::as_f64) {
        f.skid_rate = x;
    }
    if let Some(x) = v.get("drop_rate").and_then(Json::as_f64) {
        f.drop_rate = x;
    }
    if let Some(x) = v.get("spurious_rate").and_then(Json::as_f64) {
        f.spurious_rate = x;
    }
    if let Some(n) = v.get("wrap_bits").and_then(Json::as_u64) {
        f.wrap_bits = u32::try_from(n).unwrap_or(u32::MAX);
    }
    if let Some(n) = v.get("delivery_delay_cycles").and_then(Json::as_u64) {
        f.delivery_delay_cycles = n;
    }
    if let Some(x) = v.get("read_jitter").and_then(Json::as_f64) {
        f.read_jitter = x;
    }
    if let Some(n) = v.get("seed").and_then(Json::as_u64) {
        f.seed = n;
    }
    Ok(f)
}

/// The n-way search configuration for an application. su2cor needs the
/// longer interval documented at [`spec::su2cor::SEARCH_INTERVAL`]; every
/// other application uses the default.
pub fn search_config_auto(app: &str) -> SearchConfig {
    let interval = if app == "su2cor" {
        spec::su2cor::SEARCH_INTERVAL
    } else {
        SearchConfig::default().interval
    };
    SearchConfig {
        interval,
        ..Default::default()
    }
}

/// Symbolic technique, resolved per workload (and per seed, for jittered
/// sampling) at expansion.
#[derive(Debug, Clone, PartialEq)]
pub enum TechniqueKind {
    /// Baseline: no instrumentation.
    None,
    /// Fixed-period miss sampling. `hardened` enables the sampler's
    /// fault-tolerant attribution (skid/spurious rejection, dropped-
    /// interval accounting).
    Sampling {
        period: u64,
        aggregate: bool,
        hardened: bool,
    },
    /// Jittered sampling; expands once per spec seed.
    Jittered { base: u64, spread: u64 },
    /// The n-way search. `interval: None` means "auto": the default
    /// interval, except su2cor's documented longer one. `hardened`
    /// enables the consistency/outlier checks with the
    /// [`HARDENED_CONSISTENCY_TOLERANCE`] defaults.
    Search {
        interval: Option<u64>,
        logical_ways: Option<usize>,
        hardened: bool,
    },
}

impl TechniqueKind {
    fn to_json(&self) -> Json {
        match self {
            TechniqueKind::None => Json::obj(vec![("kind", Json::str("none"))]),
            TechniqueKind::Sampling {
                period,
                aggregate,
                hardened,
            } => {
                let mut fields = vec![
                    ("kind", Json::str("sampling")),
                    ("period", Json::Uint(*period)),
                    ("aggregate", Json::Bool(*aggregate)),
                ];
                // Only rendered when set: pre-hardening specs keep their
                // exact bytes (and cache identities).
                if *hardened {
                    fields.push(("hardened", Json::Bool(true)));
                }
                Json::obj(fields)
            }
            TechniqueKind::Jittered { base, spread } => Json::obj(vec![
                ("kind", Json::str("jittered")),
                ("base", Json::Uint(*base)),
                ("spread", Json::Uint(*spread)),
            ]),
            TechniqueKind::Search {
                interval,
                logical_ways,
                hardened,
            } => {
                let mut fields = vec![
                    ("kind", Json::str("search")),
                    ("interval", interval.map_or(Json::Null, Json::Uint)),
                    (
                        "logical_ways",
                        logical_ways.map_or(Json::Null, |w| Json::Uint(w as u64)),
                    ),
                ];
                if *hardened {
                    fields.push(("hardened", Json::Bool(true)));
                }
                Json::obj(fields)
            }
        }
    }

    fn from_json(v: &Json, path: &str) -> Result<Self, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: technique missing 'kind'"))?;
        match kind {
            "none" => {
                check_keys(v, path, &["kind"])?;
                Ok(TechniqueKind::None)
            }
            "sampling" => {
                check_keys(v, path, &["kind", "period", "aggregate", "hardened"])?;
                Ok(TechniqueKind::Sampling {
                    period: v
                        .get("period")
                        .and_then(Json::as_u64)
                        .ok_or(format!("{path}: sampling technique missing 'period'"))?,
                    aggregate: matches!(v.get("aggregate"), Some(Json::Bool(true))),
                    hardened: matches!(v.get("hardened"), Some(Json::Bool(true))),
                })
            }
            "jittered" => {
                check_keys(v, path, &["kind", "base", "spread"])?;
                Ok(TechniqueKind::Jittered {
                    base: v
                        .get("base")
                        .and_then(Json::as_u64)
                        .ok_or(format!("{path}: jittered technique missing 'base'"))?,
                    spread: v
                        .get("spread")
                        .and_then(Json::as_u64)
                        .ok_or(format!("{path}: jittered technique missing 'spread'"))?,
                })
            }
            "search" => {
                check_keys(v, path, &["kind", "interval", "logical_ways", "hardened"])?;
                Ok(TechniqueKind::Search {
                    interval: v.get("interval").and_then(Json::as_u64),
                    logical_ways: v
                        .get("logical_ways")
                        .and_then(Json::as_u64)
                        .map(|w| w as usize),
                    hardened: matches!(v.get("hardened"), Some(Json::Bool(true))),
                })
            }
            other => Err(format!("{path}: unknown technique kind '{other}'")),
        }
    }

    /// Expands to one cell per seed (jittered) or exactly one (others).
    fn uses_seeds(&self) -> bool {
        matches!(self, TechniqueKind::Jittered { .. })
    }

    /// Resolve to a concrete [`TechniqueConfig`] for `workload`.
    fn resolve(&self, workload: &str, seed: u64) -> TechniqueConfig {
        match *self {
            TechniqueKind::None => TechniqueConfig::None,
            TechniqueKind::Sampling {
                period,
                aggregate,
                hardened,
            } => {
                let mut cfg = SamplerConfig::fixed(period);
                cfg.aggregate_heap_names = aggregate;
                cfg.hardened = hardened;
                TechniqueConfig::Sampling(cfg)
            }
            TechniqueKind::Jittered { base, spread } => {
                TechniqueConfig::Sampling(SamplerConfig::jittered(base, spread, seed))
            }
            TechniqueKind::Search {
                interval,
                logical_ways,
                hardened,
            } => {
                let mut cfg = search_config_auto(workload);
                if let Some(i) = interval {
                    cfg.interval = i;
                }
                cfg.logical_ways = logical_ways;
                if hardened {
                    cfg.consistency_tolerance = Some(HARDENED_CONSISTENCY_TOLERANCE);
                    cfg.max_remeasure = HARDENED_MAX_REMEASURE;
                    cfg.outlier_pct = Some(HARDENED_OUTLIER_PCT);
                }
                TechniqueConfig::Search(cfg)
            }
        }
    }
}

/// One column of the sweep matrix: a labelled technique with its PMU
/// width and run length.
#[derive(Debug, Clone, PartialEq)]
pub struct TechniqueSpec {
    /// Label used in manifests, outcome lookup and aggregation. Must be
    /// unique within a spec.
    pub label: String,
    pub kind: TechniqueKind,
    /// PMU region counters (n for the n-way search).
    pub counters: usize,
    pub limit: LimitSpec,
    /// PMU fault injection for this column. Inert by default (no fault
    /// model is built at all).
    pub faults: FaultConfig,
}

impl TechniqueSpec {
    /// A technique column with the default [`COUNTERS`] PMU counters.
    pub fn new(label: impl Into<String>, kind: TechniqueKind, limit: LimitSpec) -> Self {
        TechniqueSpec {
            label: label.into(),
            kind,
            counters: COUNTERS,
            limit,
            faults: FaultConfig::default(),
        }
    }

    /// Override the PMU counter count.
    pub fn counters(mut self, n: usize) -> Self {
        self.counters = n;
        self
    }

    /// Inject PMU faults into every cell of this column.
    pub fn faults(mut self, f: FaultConfig) -> Self {
        self.faults = f;
        self
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("label", Json::str(self.label.clone())),
            ("technique", self.kind.to_json()),
            ("counters", Json::Uint(self.counters as u64)),
            ("limit", self.limit.to_json()),
        ];
        // Only rendered when faults are actually injected, so
        // pre-fault-layer spec files keep their exact bytes.
        if !self.faults.is_inert() {
            fields.push(("faults", fault_config_to_json(&self.faults)));
        }
        Json::obj(fields)
    }

    fn from_json(v: &Json, path: &str) -> Result<Self, String> {
        check_keys(
            v,
            path,
            &["label", "technique", "counters", "limit", "faults"],
        )?;
        Ok(TechniqueSpec {
            label: v
                .get("label")
                .and_then(Json::as_str)
                .ok_or(format!("{path}: technique spec missing 'label'"))?
                .to_string(),
            kind: TechniqueKind::from_json(
                v.get("technique")
                    .ok_or(format!("{path}: technique spec missing 'technique'"))?,
                &format!("{path}.technique"),
            )?,
            counters: v
                .get("counters")
                .and_then(Json::as_u64)
                .map_or(10, |n| n as usize),
            limit: LimitSpec::from_json(
                v.get("limit")
                    .ok_or(format!("{path}: technique spec missing 'limit'"))?,
                &format!("{path}.limit"),
            )?,
            faults: match v.get("faults") {
                Some(f) => fault_config_from_json_at(f, &format!("{path}.faults"))?,
                None => FaultConfig::default(),
            },
        })
    }
}

/// A declarative experiment campaign: the full sweep matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name; also names the resume manifest.
    pub name: String,
    pub scale: Scale,
    pub workloads: Vec<String>,
    /// Seeds for seed-bearing techniques (jittered sampling); other
    /// techniques expand once regardless. Defaults to `[1]`.
    pub seeds: Vec<u64>,
    pub techniques: Vec<TechniqueSpec>,
}

impl CampaignSpec {
    /// An empty campaign at the given scale.
    pub fn new(name: impl Into<String>, scale: Scale) -> Self {
        CampaignSpec {
            name: name.into(),
            scale,
            workloads: Vec::new(),
            seeds: vec![1],
            techniques: Vec::new(),
        }
    }

    /// Add a workload by registry name.
    pub fn workload(mut self, name: impl Into<String>) -> Self {
        self.workloads.push(name.into());
        self
    }

    /// Add several workloads by registry name.
    pub fn workloads<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.workloads.extend(names.into_iter().map(Into::into));
        self
    }

    /// Replace the seed list (for jittered techniques).
    pub fn seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Add a technique column.
    pub fn technique(mut self, t: TechniqueSpec) -> Self {
        self.techniques.push(t);
        self
    }

    /// Serialize the spec to JSON (loadable by [`CampaignSpec::from_json`]
    /// and the `campaign` CLI).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("v", Json::Uint(1)),
            ("name", Json::str(self.name.clone())),
            (
                "scale",
                Json::str(match self.scale {
                    Scale::Test => "test",
                    Scale::Paper => "paper",
                }),
            ),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(Json::str).collect()),
            ),
            (
                "seeds",
                Json::Arr(self.seeds.iter().map(|&s| Json::Uint(s)).collect()),
            ),
            (
                "techniques",
                Json::Arr(self.techniques.iter().map(TechniqueSpec::to_json).collect()),
            ),
        ])
    }

    /// Parse a spec from its JSON form. Strict: unknown and duplicated
    /// keys anywhere in the spec are errors naming the exact key path, so
    /// a typo (`"seed"` for `"seeds"`) cannot be silently ignored.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        check_keys(
            v,
            "campaign",
            &["v", "name", "scale", "workloads", "seeds", "techniques"],
        )?;
        if v.get("v").and_then(Json::as_u64) != Some(1) {
            return Err("campaign spec missing version field 'v': 1".to_string());
        }
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("campaign spec missing 'name'")?
            .to_string();
        let scale = match v.get("scale").and_then(Json::as_str) {
            Some("test") => Scale::Test,
            Some("paper") => Scale::Paper,
            Some(other) => return Err(format!("unknown scale '{other}' (test|paper)")),
            None => return Err("campaign spec missing 'scale'".to_string()),
        };
        let workloads = v
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("campaign spec missing 'workloads'")?
            .iter()
            .map(|w| {
                w.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "workload names must be strings".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let seeds = match v.get("seeds").and_then(Json::as_arr) {
            Some(arr) => arr
                .iter()
                .map(|s| {
                    s.as_u64()
                        .ok_or_else(|| "seeds must be integers".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => vec![1],
        };
        let techniques = v
            .get("techniques")
            .and_then(Json::as_arr)
            .ok_or("campaign spec missing 'techniques'")?
            .iter()
            .enumerate()
            .map(|(i, t)| TechniqueSpec::from_json(t, &format!("techniques[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CampaignSpec {
            name,
            scale,
            workloads,
            seeds,
            techniques,
        })
    }

    /// Load a spec from a JSON file. Every error — unreadable file, bad
    /// JSON, unknown/duplicate key — is prefixed with the file path.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let v = cachescope_obs::json::parse(&text)
            .map_err(|e| format!("parsing {}: {e}", path.display()))?;
        CampaignSpec::from_json(&v).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Expand the matrix into concrete cells: workloads × techniques
    /// (× seeds for seed-bearing techniques), validated against the
    /// workload registry and with all symbolic fields resolved.
    pub fn expand(&self) -> Result<Vec<Cell>, String> {
        if self.workloads.is_empty() {
            return Err("campaign has no workloads".to_string());
        }
        if self.techniques.is_empty() {
            return Err("campaign has no techniques".to_string());
        }
        if self.seeds.is_empty() {
            return Err("campaign has no seeds (default is [1])".to_string());
        }
        for (i, t) in self.techniques.iter().enumerate() {
            if self.techniques[..i].iter().any(|u| u.label == t.label) {
                return Err(format!("duplicate technique label '{}'", t.label));
            }
        }
        let mut cells = Vec::new();
        for workload in &self.workloads {
            if !registry::is_known(workload) {
                return Err(format!("unknown workload '{workload}'"));
            }
            for t in &self.techniques {
                let seeds: &[u64] = if t.kind.uses_seeds() {
                    &self.seeds
                } else {
                    &self.seeds[..1]
                };
                for &seed in seeds {
                    cells.push(Cell {
                        index: cells.len(),
                        workload: workload.clone(),
                        scale: self.scale,
                        label: t.label.clone(),
                        seed,
                        technique: t.kind.resolve(workload, seed),
                        counters: t.counters,
                        limit: t.limit.resolve(workload, self.scale),
                        faults: t.faults.clone(),
                    });
                }
            }
        }
        // Content-identical cells share a cache key: the second would
        // silently replay the first's result, so a spec that expands to
        // one (duplicated seed, two identically-configured columns) is
        // rejected with both cell identities named.
        let mut seen: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
        for c in &cells {
            if let Some(&prev) = seen.get(&c.hash()) {
                let p = &cells[prev];
                return Err(format!(
                    "cells {} ({}/{} seed {}) and {} ({}/{} seed {}) have identical content \
                     (cache key {}): de-duplicate the spec",
                    p.index,
                    p.workload,
                    p.label,
                    p.seed,
                    c.index,
                    c.workload,
                    c.label,
                    c.seed,
                    c.hash()
                ));
            }
            seen.insert(c.hash(), c.index);
        }
        Ok(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> CampaignSpec {
        CampaignSpec::new("demo", Scale::Test)
            .workloads(["mgrid", "applu"])
            .seeds(vec![1, 2])
            .technique(TechniqueSpec::new(
                "base",
                TechniqueKind::None,
                LimitSpec::whole_cycles(50_000),
            ))
            .technique(TechniqueSpec::new(
                "jit",
                TechniqueKind::Jittered {
                    base: 1_000,
                    spread: 100,
                },
                LimitSpec::misses(50_000),
            ))
            .technique(
                TechniqueSpec::new(
                    "search",
                    TechniqueKind::Search {
                        interval: None,
                        logical_ways: None,
                        hardened: false,
                    },
                    LimitSpec::search_run(100_000),
                )
                .counters(10),
            )
    }

    #[test]
    fn json_round_trips() {
        let spec = sample_spec();
        let parsed = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn a_wrap_width_past_u32_saturates() {
        let v = cachescope_obs::json::parse(r#"{"wrap_bits": 4294967360}"#).unwrap();
        assert_eq!(fault_config_from_json(&v).unwrap().wrap_bits, u32::MAX);
    }

    #[test]
    fn hardened_and_faulted_specs_round_trip() {
        let spec = CampaignSpec::new("faulty", Scale::Test)
            .workload("mgrid")
            .technique(
                TechniqueSpec::new(
                    "hard-sample",
                    TechniqueKind::Sampling {
                        period: 1_000,
                        aggregate: false,
                        hardened: true,
                    },
                    LimitSpec::misses(50_000),
                )
                .faults(FaultConfig {
                    drop_rate: 0.2,
                    skid_depth: 8,
                    skid_rate: 0.5,
                    seed: 3,
                    ..Default::default()
                }),
            )
            .technique(TechniqueSpec::new(
                "hard-search",
                TechniqueKind::Search {
                    interval: None,
                    logical_ways: None,
                    hardened: true,
                },
                LimitSpec::search_run(100_000),
            ));
        let parsed = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
        // Hardened kinds resolve to hardened configs.
        let cells = spec.expand().unwrap();
        match &cells[0].technique {
            TechniqueConfig::Sampling(cfg) => assert!(cfg.hardened),
            other => panic!("expected sampling, got {other:?}"),
        }
        match &cells[1].technique {
            TechniqueConfig::Search(cfg) => {
                assert_eq!(
                    cfg.consistency_tolerance,
                    Some(HARDENED_CONSISTENCY_TOLERANCE)
                );
                assert_eq!(cfg.max_remeasure, HARDENED_MAX_REMEASURE);
            }
            other => panic!("expected search, got {other:?}"),
        }
        // The faulted column carries its faults into the cell identity.
        assert!(!cells[0].faults.is_inert());
        assert!(cells[0].canonical_json().render().contains("drop_rate"));
        assert!(cells[1].faults.is_inert());
    }

    #[test]
    fn unhardened_specs_render_without_hardening_keys() {
        // Pre-hardening spec files (and their cache identities) must be
        // byte-stable: no new keys appear unless opted into.
        let rendered = sample_spec().to_json().render();
        assert!(!rendered.contains("hardened"), "{rendered}");
        assert!(!rendered.contains("faults"), "{rendered}");
    }

    #[test]
    fn expansion_multiplies_seeds_only_for_jittered() {
        let cells = sample_spec().expand().unwrap();
        // 2 workloads × (1 none + 2 jittered seeds + 1 search) = 8 cells.
        assert_eq!(cells.len(), 8);
        let jit: Vec<_> = cells.iter().filter(|c| c.label == "jit").collect();
        assert_eq!(jit.len(), 4);
        assert_eq!(jit[0].seed, 1);
        assert_eq!(jit[1].seed, 2);
        // Indexes are dense and in expansion order.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn limits_round_against_workload_cycles() {
        let cycle = registry::cycle_misses("mgrid", Scale::Test).unwrap();
        let cells = sample_spec().expand().unwrap();
        let base = cells
            .iter()
            .find(|c| c.workload == "mgrid" && c.label == "base")
            .unwrap();
        assert_eq!(base.limit, RunLimit::AppMisses(whole_cycles(50_000, cycle)));
        let search = cells
            .iter()
            .find(|c| c.workload == "mgrid" && c.label == "search")
            .unwrap();
        assert_eq!(
            search.limit,
            RunLimit::AppMisses(search_run_misses(cycle, 100_000))
        );
    }

    #[test]
    fn su2cor_search_interval_is_auto_resolved() {
        let cfg = search_config_auto("su2cor");
        assert_eq!(cfg.interval, spec::su2cor::SEARCH_INTERVAL);
        assert_ne!(cfg.interval, SearchConfig::default().interval);
        assert_eq!(
            search_config_auto("mgrid").interval,
            SearchConfig::default().interval
        );
    }

    #[test]
    fn validation_catches_bad_specs() {
        assert!(CampaignSpec::new("empty", Scale::Test).expand().is_err());
        let unknown = CampaignSpec::new("u", Scale::Test)
            .workload("quake3")
            .technique(TechniqueSpec::new(
                "b",
                TechniqueKind::None,
                LimitSpec::misses(1_000),
            ));
        assert!(unknown.expand().unwrap_err().contains("quake3"));
        let dup = CampaignSpec::new("d", Scale::Test)
            .workload("mgrid")
            .technique(TechniqueSpec::new(
                "b",
                TechniqueKind::None,
                LimitSpec::misses(1_000),
            ))
            .technique(TechniqueSpec::new(
                "b",
                TechniqueKind::None,
                LimitSpec::misses(2_000),
            ));
        assert!(dup.expand().unwrap_err().contains("duplicate"));
    }

    #[test]
    fn unknown_keys_are_rejected_with_key_paths() {
        // Top level: a typo'd "seed" must not be silently ignored.
        let mut j = sample_spec().to_json();
        if let Json::Obj(fields) = &mut j {
            fields.push(("seed".to_string(), Json::Uint(7)));
        }
        let err = CampaignSpec::from_json(&j).unwrap_err();
        assert!(err.contains("campaign: unknown key 'seed'"), "{err}");

        // Nested: inside a technique object, with the index in the path.
        let mut j = sample_spec().to_json();
        if let Some(Json::Arr(ts)) = j.get("techniques").cloned() {
            let mut ts = ts;
            if let Json::Obj(fields) = &mut ts[1] {
                fields.push(("priod".to_string(), Json::Uint(9)));
            }
            if let Json::Obj(top) = &mut j {
                for (k, v) in top.iter_mut() {
                    if k == "techniques" {
                        *v = Json::Arr(ts.clone());
                    }
                }
            }
        }
        let err = CampaignSpec::from_json(&j).unwrap_err();
        assert!(err.contains("techniques[1]: unknown key 'priod'"), "{err}");
    }

    #[test]
    fn duplicate_json_keys_are_rejected() {
        let mut j = sample_spec().to_json();
        if let Json::Obj(fields) = &mut j {
            fields.push(("name".to_string(), Json::str("other")));
        }
        let err = CampaignSpec::from_json(&j).unwrap_err();
        assert!(err.contains("campaign: duplicate key 'name'"), "{err}");
    }

    #[test]
    fn load_prefixes_the_file_path_on_spec_errors() {
        let dir = std::env::temp_dir().join("cachescope_spec_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, r#"{"v": 1, "bogus": true}"#).unwrap();
        let err = CampaignSpec::load(&path).unwrap_err();
        assert!(err.contains("bad.json"), "{err}");
        assert!(err.contains("unknown key 'bogus'"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_cells_are_rejected_at_expansion() {
        // A duplicated seed makes two content-identical jittered cells.
        let dup_seed = CampaignSpec::new("d", Scale::Test)
            .workload("mgrid")
            .seeds(vec![1, 1])
            .technique(TechniqueSpec::new(
                "jit",
                TechniqueKind::Jittered {
                    base: 1_000,
                    spread: 100,
                },
                LimitSpec::misses(50_000),
            ));
        let err = dup_seed.expand().unwrap_err();
        assert!(err.contains("identical content"), "{err}");
        assert!(err.contains("mgrid/jit"), "{err}");

        // Two differently-labelled but identically-configured columns
        // collide in the cache too.
        let twin_cols = CampaignSpec::new("t", Scale::Test)
            .workload("mgrid")
            .technique(TechniqueSpec::new(
                "a",
                TechniqueKind::None,
                LimitSpec::misses(1_000),
            ))
            .technique(TechniqueSpec::new(
                "b",
                TechniqueKind::None,
                LimitSpec::misses(1_000),
            ));
        let err = twin_cols.expand().unwrap_err();
        assert!(err.contains("cache key"), "{err}");
    }

    #[test]
    fn rounding_helpers_match_documented_behaviour() {
        assert_eq!(whole_cycles(10_000, 3_000), 9_000);
        assert_eq!(whole_cycles(1_000, 3_000), 3_000);
        assert_eq!(search_run_misses(3_000, 10_000), 9_000);
        assert_eq!(search_run_misses(3_000, 1_000), 6_000);
    }
}
