//! The differential harness: generated scenarios × techniques × faults.
//!
//! Every generated scenario runs through the four technique variants
//! (`sample`, `sample+h`, `search`, `search+h`) under the PR 3 fault
//! matrix (`none`, `skid`, `drop`, `skid+drop`, `jitter`) as one
//! campaign: content-addressed cells, resumable manifests, parallel
//! workers — a warm re-run of the same seed block is all cache hits.
//!
//! Scoring is the same rank-delta used by `fault_study` and the
//! aggregate view ([`cachescope_core::results::rank_delta`]): the top-3
//! objects by actual misses whose estimated rank disagrees. The verdict
//! of interest is the **silent inversion**: a *hardened* cell under
//! faults whose inversions exceed the same technique's fault-free count
//! on the same scenario while its `degraded` list stays empty — the
//! report was contaminated and did not say so.

use std::path::PathBuf;

pub use cachescope_campaign::spec::{
    fuzz_search_interval, technique_config, COUNTERS, SAMPLE_PERIOD,
};
use cachescope_campaign::{
    view, CampaignRunner, CampaignSpec, CellOutcome, LimitSpec, TechniqueKind, TechniqueSpec,
};
use cachescope_core::FaultConfig;
use cachescope_obs::{Json, Obs, ObsEvent};
use cachescope_workloads::fuzz::Scenario;
use cachescope_workloads::spec::Scale;

/// Top-N window the rank-inversion score looks at (matches
/// `fault_study`).
pub const TOP_N: usize = 3;

/// One fixed seed for every active fault model (same constant as
/// `fault_study`: the sweep is a deterministic function of its config).
pub const FAULT_SEED: u64 = 1729;

/// The four technique variants under differential test.
pub const TECHNIQUES: [&str; 4] = ["sample", "sample+h", "search", "search+h"];

/// The fault levels swept against every technique (mirrors
/// `fault_study`): inert baseline, interrupt skid, dropped overflow
/// interrupts, their combination, and counter read jitter.
pub fn fault_levels() -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("none", FaultConfig::default()),
        (
            "skid",
            FaultConfig {
                skid_depth: 8,
                skid_rate: 1.0,
                seed: FAULT_SEED,
                ..Default::default()
            },
        ),
        (
            "drop",
            FaultConfig {
                drop_rate: 0.3,
                seed: FAULT_SEED,
                ..Default::default()
            },
        ),
        (
            "skid+drop",
            FaultConfig {
                skid_depth: 8,
                skid_rate: 1.0,
                drop_rate: 0.3,
                seed: FAULT_SEED,
                ..Default::default()
            },
        ),
        (
            "jitter",
            FaultConfig {
                read_jitter: 0.4,
                seed: FAULT_SEED,
                ..Default::default()
            },
        ),
    ]
}

/// The fault config for one named level, if the level is known.
pub fn fault_level(level: &str) -> Option<FaultConfig> {
    fault_levels()
        .into_iter()
        .find(|(name, _)| *name == level)
        .map(|(_, f)| f)
}

/// Whether a technique name denotes a hardened variant.
pub fn technique_is_hardened(technique: &str) -> bool {
    technique.ends_with("+h")
}

/// The symbolic campaign technique for one variant name.
fn technique_kind(technique: &str, budget_refs: u64) -> Option<TechniqueKind> {
    match technique {
        "sample" | "sample+h" => Some(TechniqueKind::Sampling {
            period: SAMPLE_PERIOD,
            aggregate: false,
            hardened: technique_is_hardened(technique),
        }),
        "search" | "search+h" => Some(TechniqueKind::Search {
            interval: Some(fuzz_search_interval(budget_refs)),
            logical_ways: None,
            hardened: technique_is_hardened(technique),
        }),
        _ => None,
    }
}

/// One differential sweep: a contiguous seed block at one ref budget.
#[derive(Debug, Clone)]
pub struct DifferentialConfig {
    pub seed_base: u64,
    pub seeds: u64,
    pub budget_refs: u64,
    /// Worker cap (`None`: `CACHESCOPE_JOBS`, then available cores).
    pub jobs: Option<usize>,
    /// Result-cache override (`None`: the campaign default).
    pub cache_dir: Option<PathBuf>,
}

impl DifferentialConfig {
    /// The CI smoke block: fixed seeds, bounded budget.
    pub fn smoke() -> Self {
        DifferentialConfig {
            seed_base: 0,
            seeds: 8,
            budget_refs: 20_000,
            jobs: None,
            cache_dir: None,
        }
    }

    /// The seeds this sweep covers.
    pub fn seed_range(&self) -> std::ops::Range<u64> {
        self.seed_base..self.seed_base.saturating_add(self.seeds)
    }
}

/// One scored campaign cell.
#[derive(Debug, Clone)]
pub struct ScenarioScore {
    pub scenario: String,
    pub seed: u64,
    pub technique: String,
    pub level: String,
    pub inversions: u64,
    pub degraded: u64,
}

/// One hardened cell whose ranking got worse under faults than the same
/// technique's fault-free run on the same scenario. `silent` marks the
/// bug class: the contamination was not flagged.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub scenario: String,
    pub seed: u64,
    pub budget_refs: u64,
    pub technique: String,
    pub level: String,
    pub inversions: u64,
    pub baseline_inversions: u64,
    pub degraded: u64,
    pub silent: bool,
}

/// One cell whose simulated ground truth fell outside the static
/// miss-bound oracle (`CS-A004`). The bounds are sound by construction,
/// so this is an engine or analyzer bug — the class differential
/// scoring is structurally blind to, because a miscounting simulator
/// fools every technique column equally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundsViolation {
    pub scenario: String,
    pub seed: u64,
    pub budget_refs: u64,
    pub technique: String,
    pub level: String,
    pub message: String,
}

/// Everything a differential sweep produced.
#[derive(Debug)]
pub struct DifferentialReport {
    pub scores: Vec<ScenarioScore>,
    pub findings: Vec<Finding>,
    pub bounds_violations: Vec<BoundsViolation>,
    pub scenarios: u64,
    pub cells: usize,
    pub cache_hits: usize,
}

impl DifferentialReport {
    pub fn silent_findings(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.silent)
    }
}

/// Objects the cell's report flagged as degraded (measured under
/// detected PMU faults; ranks untrusted).
fn degraded_count(outcome: &CellOutcome) -> u64 {
    outcome
        .report
        .get("degraded")
        .and_then(Json::as_arr)
        .map_or(0, |a| a.len() as u64)
}

/// Run one differential sweep.
///
/// Generates and *pre-validates* every scenario (any `CS-W*`/`CS-C*`
/// error is a generator bug and aborts the sweep), expands the
/// scenario × technique × fault matrix into one campaign, and scores
/// every cell. Emits `fuzz_scenario` and `fuzz_silent_inversion` obs
/// events into `obs`.
pub fn run_differential(
    cfg: &DifferentialConfig,
    obs: &mut Obs,
) -> Result<DifferentialReport, String> {
    if cfg.seeds == 0 {
        return Err("differential sweep needs at least one seed".into());
    }
    let mut scenarios = Vec::new();
    for seed in cfg.seed_range() {
        let scenario = Scenario::generate(seed, cfg.budget_refs);
        let diags = cachescope_check::fuzz::check_scenario_default(&scenario, &scenario.name);
        if let Some(d) = diags
            .iter()
            .find(|d| d.severity == cachescope_check::Severity::Error)
        {
            return Err(format!(
                "generated scenario {} failed pre-validation: {}",
                scenario.name,
                d.render()
            ));
        }
        obs.emit(ObsEvent::FuzzScenario {
            name: scenario.name.clone(),
            seed,
            budget_refs: cfg.budget_refs,
        });
        scenarios.push((seed, scenario));
    }

    // Cells run the budget the scenarios were generated with, which the
    // static bounds assume; it can exceed the requested one.
    let budget_refs = Scenario::budget_for(cfg.budget_refs);
    let mut spec = CampaignSpec::new("fuzz-differential", Scale::Test)
        .workloads(scenarios.iter().map(|(_, s)| s.name.clone()));
    for (level, faults) in &fault_levels() {
        for technique in TECHNIQUES {
            let kind = technique_kind(technique, budget_refs).unwrap_or(TechniqueKind::None);
            spec = spec.technique(
                TechniqueSpec::new(
                    format!("{technique}@{level}"),
                    kind,
                    LimitSpec::accesses(budget_refs),
                )
                .counters(COUNTERS)
                .faults(faults.clone()),
            );
        }
    }

    let mut runner = CampaignRunner::new().jobs(cfg.jobs);
    if let Some(dir) = &cfg.cache_dir {
        runner = runner.cache_dir(dir).manifest_dir(dir.join("campaigns"));
    }
    let run = runner.run(&spec)?;
    if !run.is_complete() {
        let mut msg = String::from("differential campaign had failing cells:");
        for f in &run.failures {
            msg.push_str(&format!("\n  {}: {}", f.cell.describe(), f.error));
        }
        return Err(msg);
    }

    let mut scores = Vec::new();
    let mut bounds_violations = Vec::new();
    for (seed, scenario) in &scenarios {
        // One static oracle per scenario: the bounds depend only on the
        // access stream and the budget, never on the technique column.
        let bounds = crate::bounds::scenario_bounds(scenario)?;
        for (level, _) in &fault_levels() {
            for technique in TECHNIQUES {
                let outcome = run
                    .outcome(&scenario.name, &format!("{technique}@{level}"))
                    .ok_or_else(|| {
                        format!("campaign lost cell {}/{technique}@{level}", scenario.name)
                    })?;
                let source = format!("{}/{technique}@{level}", scenario.name);
                for d in
                    cachescope_check::bounds::check_report_bounds(&outcome.report, &bounds, &source)
                {
                    bounds_violations.push(BoundsViolation {
                        scenario: scenario.name.clone(),
                        seed: *seed,
                        budget_refs: cfg.budget_refs,
                        technique: technique.to_string(),
                        level: level.to_string(),
                        message: d.message,
                    });
                }
                scores.push(ScenarioScore {
                    scenario: scenario.name.clone(),
                    seed: *seed,
                    technique: technique.to_string(),
                    level: level.to_string(),
                    inversions: view(outcome).top_n_inversions(TOP_N),
                    degraded: degraded_count(outcome),
                });
            }
        }
    }

    let mut findings = Vec::new();
    for s in &scores {
        if !technique_is_hardened(&s.technique) || s.level == "none" {
            continue;
        }
        let baseline = scores
            .iter()
            .find(|b| b.scenario == s.scenario && b.technique == s.technique && b.level == "none")
            .ok_or_else(|| format!("missing fault-free baseline for {}", s.scenario))?;
        if s.inversions <= baseline.inversions {
            continue;
        }
        let silent = s.degraded == 0;
        if silent {
            obs.emit(ObsEvent::FuzzSilentInversion {
                scenario: s.scenario.clone(),
                technique: s.technique.clone(),
                level: s.level.clone(),
                inversions: s.inversions,
            });
        }
        findings.push(Finding {
            scenario: s.scenario.clone(),
            seed: s.seed,
            budget_refs: cfg.budget_refs,
            technique: s.technique.clone(),
            level: s.level.clone(),
            inversions: s.inversions,
            baseline_inversions: baseline.inversions,
            degraded: s.degraded,
            silent,
        });
    }

    Ok(DifferentialReport {
        scores,
        findings,
        bounds_violations,
        scenarios: cfg.seeds,
        cells: scenarios.len() * fault_levels().len() * TECHNIQUES.len(),
        cache_hits: run.cache_hits(),
    })
}

/// Re-run the identical sweep and report only cache economics: used by
/// the bench trajectory artifact to prove warm re-runs do no simulation.
pub fn rerun_cache_stats(cfg: &DifferentialConfig) -> Result<(usize, usize), String> {
    let mut obs = Obs::disabled();
    let report = run_differential(cfg, &mut obs)?;
    Ok((report.cache_hits, report.cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachescope_core::TechniqueConfig;

    #[test]
    fn fault_matrix_matches_fault_study_shape() {
        let levels = fault_levels();
        assert_eq!(
            levels.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            ["none", "skid", "drop", "skid+drop", "jitter"]
        );
        assert!(levels[0].1.is_inert());
        assert!(fault_level("skid+drop").is_some());
        assert!(fault_level("banana").is_none());
    }

    #[test]
    fn technique_configs_resolve_and_harden() {
        for t in TECHNIQUES {
            assert!(technique_config(t, 20_000).is_some(), "{t}");
            assert!(technique_kind(t, 20_000).is_some(), "{t}");
        }
        assert!(technique_config("banana", 1).is_none());
        match technique_config("search+h", 5_000) {
            Some(TechniqueConfig::Search(cfg)) => {
                assert_eq!(cfg.interval, 20_000, "floor applies");
                assert!(cfg.consistency_tolerance.is_some());
                assert!(cfg.max_remeasure > 0);
            }
            other => panic!("unexpected config {other:?}"),
        }
        match technique_config("sample+h", 5_000) {
            Some(TechniqueConfig::Sampling(cfg)) => assert!(cfg.hardened),
            other => panic!("unexpected config {other:?}"),
        }
    }

    #[test]
    fn search_interval_scales_with_budget_above_floor() {
        assert_eq!(fuzz_search_interval(1_000), 20_000);
        assert_eq!(fuzz_search_interval(50_000), 100_000);
    }

    #[test]
    fn a_budget_under_the_floor_runs_the_raised_scenario_inside_its_bounds() {
        let dir = std::env::temp_dir().join(format!(
            "cachescope-fuzzgen-floor-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DifferentialConfig {
            seed_base: 0,
            seeds: 1,
            budget_refs: 7,
            jobs: Some(2),
            cache_dir: Some(dir.clone()),
        };
        let report = run_differential(&cfg, &mut Obs::disabled()).expect("sweep runs");
        assert_eq!(report.cells, 5 * 4);
        assert!(
            report.bounds_violations.is_empty(),
            "cells must run the scenario's own budget: {:?}",
            report.bounds_violations
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_sweep_runs_scores_every_cell_and_is_warm_on_rerun() {
        let dir = std::env::temp_dir().join("cachescope-fuzzgen-diff-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DifferentialConfig {
            seed_base: 3,
            seeds: 2,
            budget_refs: 2_000,
            jobs: Some(2),
            cache_dir: Some(dir.clone()),
        };
        let mut obs = Obs::new();
        let report = run_differential(&cfg, &mut obs).expect("sweep runs");
        assert_eq!(report.scenarios, 2);
        assert_eq!(report.cells, 2 * 5 * 4);
        assert_eq!(report.scores.len(), report.cells);
        assert_eq!(obs.metrics.counter("fuzz.scenarios"), 2);
        assert!(
            report.bounds_violations.is_empty(),
            "a healthy engine never escapes the static oracle: {:?}",
            report.bounds_violations
        );
        for f in &report.findings {
            assert!(technique_is_hardened(&f.technique));
            assert!(f.inversions > f.baseline_inversions);
            assert_eq!(f.silent, f.degraded == 0);
        }
        let (hits, cells) = rerun_cache_stats(&cfg).expect("warm rerun");
        assert_eq!(hits, cells, "warm re-run must be all cache hits");
        // The manifest lands beside the cache, not in the working tree.
        assert!(dir.join("campaigns/fuzz-differential.json").is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
