//! Report types: what a technique estimated, joined against ground truth.

use std::collections::HashMap;
use std::fmt;

use cachescope_obs::{Metrics, ObsEvent, Profiler};
use cachescope_sim::RunStats;

/// One object's estimate as produced by a measurement technique.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Object name (hexadecimal base address for anonymous heap blocks).
    pub name: String,
    /// Estimated percentage of all application cache misses.
    pub pct: f64,
    /// Raw evidence behind the estimate: sample hits for the sampler,
    /// measured misses for the search.
    pub weight: u64,
}

/// The ranked output of one technique run.
#[derive(Debug, Clone, Default)]
pub struct TechniqueReport {
    /// Estimates ranked most-misses-first (the technique's own ranking).
    pub estimates: Vec<Estimate>,
    /// Technique name for display ("sampling(50000)", "search(10-way)").
    pub label: String,
    /// Evidence that fell outside every identifiable object (stack
    /// frames and other unattributable memory).
    pub unattributed_weight: u64,
    /// Objects whose estimates a hardened technique measured under
    /// contaminated intervals (PMU faults detected but not fully
    /// recovered from). Empty for fault-free runs and for unhardened
    /// techniques: a name here means "this rank may be wrong and the
    /// technique knows it" rather than a silently wrong confident rank.
    pub degraded: Vec<String>,
}

impl TechniqueReport {
    /// The technique's rank (1-based) and estimated percentage for `name`.
    /// When several estimates share the name (unaggregated heap instances
    /// from one site), the first, highest-ranked one answers.
    pub fn rank_of(&self, name: &str) -> Option<(usize, f64)> {
        self.estimates
            .iter()
            .position(|e| e.name == name)
            .map(|i| (i + 1, self.estimates[i].pct))
    }

    /// Was `name` flagged as degraded (measured under detected faults)?
    pub fn is_degraded(&self, name: &str) -> bool {
        self.degraded.iter().any(|d| d == name)
    }
}

/// Count the top-`n` rank disagreements between a ground-truth ranking
/// and a technique's ranking.
///
/// `pairs` is one `(actual_rank, est_rank)` per object, 1-based, in any
/// order; only the rows with the `n` smallest actual ranks are scored. A
/// row whose estimated rank differs from its actual rank — or that the
/// technique never reported (`None`) — counts as one inversion. Ties on
/// `actual_rank` (which a well-formed report never produces, but joined
/// external data might) are resolved by input order, so the score is a
/// pure function of the input sequence.
///
/// This is the single rank-comparison primitive shared by `fault_study`,
/// campaign aggregation ([`top_n_inversions`] on the campaign crate's
/// report view) and the fuzz differential runner: "top-3 inversions"
/// means the same thing everywhere.
///
/// [`top_n_inversions`]: ExperimentReport::top_n_inversions
pub fn rank_delta(pairs: &[(u64, Option<u64>)], n: usize) -> u64 {
    let mut ordered: Vec<&(u64, Option<u64>)> = pairs.iter().collect();
    // Stable sort: equal actual ranks keep their input order.
    ordered.sort_by_key(|&&(actual, _)| actual);
    ordered
        .iter()
        .take(n)
        .filter(|&&&(actual, est)| est != Some(actual))
        .count() as u64
}

/// One row of the final actual-vs-estimated table (one program object).
#[derive(Debug, Clone)]
pub struct ReportRow {
    pub name: String,
    /// Ground-truth rank by misses (1-based).
    pub actual_rank: usize,
    /// Ground-truth percentage of application misses.
    pub actual_pct: f64,
    /// Technique rank, if the technique reported this object at all. When
    /// several estimates share the name, the first (highest-ranked) one's
    /// rank and percentage are joined, as [`TechniqueReport::rank_of`]
    /// answers.
    pub est_rank: Option<usize>,
    /// Technique estimated percentage.
    pub est_pct: Option<f64>,
}

/// Everything an [`crate::Experiment`] run produces.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Application name.
    pub app: String,
    /// Simulator ground truth and cost accounting.
    pub stats: RunStats,
    /// The technique's own output (empty label if no technique ran).
    pub technique: TechniqueReport,
    /// The search's per-iteration progress log, when the technique was a
    /// search run with [`crate::SearchConfig::log_progress`] enabled.
    pub search_log: Option<crate::search::SearchLog>,
    /// The run's observability event stream (tool-side, zero simulated
    /// cost), in emission order; render it as JSONL with
    /// [`cachescope_obs::events_to_jsonl`].
    pub events: Vec<ObsEvent>,
    /// The run's metrics registry snapshot: counters, gauges and
    /// histograms derived from the event stream plus direct observations.
    pub metrics: Metrics,
    /// The span self-profiler harvested from the run, when profiling was
    /// enabled ([`crate::Experiment::profile`] / `--profile`). `None` for
    /// unprofiled runs, keeping their exports byte-identical.
    pub profile: Option<Profiler>,
    rows: Vec<ReportRow>,
}

impl ExperimentReport {
    /// Build the joined table from ground truth and a technique report.
    /// Rows are ordered by actual rank; objects below `min_pct` of actual
    /// misses are omitted (the paper excludes objects under 0.01%).
    /// Same-named objects (instances from one allocation site) pool into
    /// a single row, which joins the first estimate of that name.
    pub fn new(app: String, stats: RunStats, technique: TechniqueReport, min_pct: f64) -> Self {
        // Pool ground truth by name (duplicate names = one site): sort the
        // borrowed names and merge equal runs. Names stay borrowed; only
        // rows that pass `min_pct` copy theirs.
        let mut pooled: Vec<(&str, u64)> = stats
            .objects
            .iter()
            .map(|o| (o.name.as_str(), o.misses))
            .collect();
        pooled.sort_unstable_by_key(|&(name, _)| name);
        pooled.dedup_by(|(name, misses), (kept, sum)| {
            let same = name == kept;
            if same {
                *sum += *misses;
            }
            same
        });
        pooled.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        let total = stats.app.misses.max(1) as f64;

        // One pass over the estimates, first match winning as in
        // `rank_of`. Names come from untrusted traces, so the map keeps
        // std's randomly keyed hasher.
        let mut estimates = HashMap::with_capacity(technique.estimates.len());
        for (i, e) in technique.estimates.iter().enumerate() {
            estimates.entry(e.name.as_str()).or_insert((i + 1, e.pct));
        }

        let mut rows = Vec::new();
        for (rank, (name, misses)) in pooled.into_iter().enumerate() {
            let pct = misses as f64 * 100.0 / total;
            if pct < min_pct && rank > 0 {
                continue;
            }
            let est = estimates.get(name);
            rows.push(ReportRow {
                name: name.to_string(),
                actual_rank: rank + 1,
                actual_pct: pct,
                est_rank: est.map(|&(r, _)| r),
                est_pct: est.map(|&(_, p)| p),
            });
        }
        ExperimentReport {
            app,
            stats,
            technique,
            search_log: None,
            events: Vec::new(),
            metrics: Metrics::default(),
            profile: None,
            rows,
        }
    }

    /// The joined rows, ordered by actual rank.
    pub fn rows(&self) -> &[ReportRow] {
        &self.rows
    }

    /// The row for object `name`, if listed.
    pub fn row(&self, name: &str) -> Option<&ReportRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Top-`n` objects (by actual rank) whose estimated rank disagrees
    /// with their actual rank; a missing estimate counts as an inversion.
    /// See [`rank_delta`].
    pub fn top_n_inversions(&self, n: usize) -> u64 {
        let pairs: Vec<(u64, Option<u64>)> = self
            .rows
            .iter()
            .map(|r| (r.actual_rank as u64, r.est_rank.map(|e| e as u64)))
            .collect();
        rank_delta(&pairs, n)
    }

    /// Largest absolute error between estimated and actual percentage over
    /// objects the technique reported.
    pub fn max_abs_error(&self) -> f64 {
        self.rows
            .iter()
            .filter_map(|r| r.est_pct.map(|e| (e - r.actual_pct).abs()))
            .fold(0.0, f64::max)
    }

    /// Percentage increase in total cache misses relative to a baseline
    /// (uninstrumented) run — Figure 3's metric.
    pub fn miss_increase_pct(&self, baseline: &RunStats) -> f64 {
        let base = baseline.total_misses() as f64;
        if base == 0.0 {
            return 0.0;
        }
        (self.stats.total_misses() as f64 - base) / base * 100.0
    }

    /// Percentage slowdown in virtual cycles relative to a baseline run
    /// over the same application work — Figure 4's metric.
    pub fn slowdown_pct(&self, baseline: &RunStats) -> f64 {
        let base = baseline.cycles as f64;
        if base == 0.0 {
            return 0.0;
        }
        (self.stats.cycles as f64 - base) / base * 100.0
    }
}

impl fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} — {} ({} app misses, {:.0} misses/Mcycle)",
            self.app,
            if self.technique.label.is_empty() {
                "uninstrumented"
            } else {
                &self.technique.label
            },
            self.stats.app.misses,
            self.stats.misses_per_mcycle(),
        )?;
        writeln!(
            f,
            "{:<28} {:>6} {:>8}   {:>6} {:>8}",
            "object", "rank", "actual%", "rank", "est%"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<28} {:>6} {:>8.1}   {:>6} {:>8}{}",
                r.name,
                r.actual_rank,
                r.actual_pct,
                r.est_rank.map_or_else(|| "-".into(), |v| v.to_string()),
                r.est_pct.map_or_else(|| "-".into(), |v| format!("{v:.1}")),
                // Degraded marker only when flagged, so fault-free output
                // is byte-identical to the pre-fault-layer format.
                if self.technique.is_degraded(&r.name) {
                    " ?"
                } else {
                    ""
                },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachescope_sim::rng::SmallRng;
    use cachescope_sim::{Counts, ObjectKind, ObjectStats};

    /// The original quadratic join, kept as the oracle for
    /// [`ExperimentReport::new`]: a linear name search per object while
    /// pooling, then a linear estimate scan per row.
    fn quadratic_rows(
        stats: &RunStats,
        technique: &TechniqueReport,
        min_pct: f64,
    ) -> Vec<ReportRow> {
        let mut by_name: Vec<(String, u64)> = Vec::new();
        for o in &stats.objects {
            match by_name.iter_mut().find(|(n, _)| *n == o.name) {
                Some((_, m)) => *m += o.misses,
                None => by_name.push((o.name.clone(), o.misses)),
            }
        }
        by_name.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let total = stats.app.misses.max(1) as f64;

        let mut rows = Vec::new();
        for (rank, (name, misses)) in by_name.into_iter().enumerate() {
            let pct = misses as f64 * 100.0 / total;
            if pct < min_pct && rank > 0 {
                continue;
            }
            let est = technique.rank_of(&name);
            rows.push(ReportRow {
                name,
                actual_rank: rank + 1,
                actual_pct: pct,
                est_rank: est.map(|(r, _)| r),
                est_pct: est.map(|(_, p)| p),
            });
        }
        rows
    }

    /// A row with its floats as bit patterns, for exact comparison.
    type RowBits = (String, usize, u64, Option<usize>, Option<u64>);

    fn row_bits(rows: &[ReportRow]) -> Vec<RowBits> {
        rows.iter()
            .map(|r| {
                (
                    r.name.clone(),
                    r.actual_rank,
                    r.actual_pct.to_bits(),
                    r.est_rank,
                    r.est_pct.map(f64::to_bits),
                )
            })
            .collect()
    }

    fn stats(objs: &[(&str, u64)]) -> RunStats {
        let misses: u64 = objs.iter().map(|&(_, m)| m).sum();
        RunStats {
            app: Counts {
                accesses: misses,
                misses,
            },
            l1: None,
            instr: Counts::default(),
            cycles: 1_000_000,
            instr_cycles: 0,
            interrupts: 0,
            writebacks: 0,
            objects: objs
                .iter()
                .map(|&(n, m)| ObjectStats {
                    name: n.into(),
                    base: 0,
                    size: 1,
                    kind: ObjectKind::Global,
                    misses: m,
                })
                .collect(),
            unmapped_misses: 0,
            timeline: None,
        }
    }

    fn tech(est: &[(&str, f64)]) -> TechniqueReport {
        TechniqueReport {
            estimates: est
                .iter()
                .map(|&(n, p)| Estimate {
                    name: n.into(),
                    pct: p,
                    weight: (p * 10.0) as u64,
                })
                .collect(),
            label: "test".into(),
            unattributed_weight: 0,
            degraded: Vec::new(),
        }
    }

    #[test]
    fn rows_join_actual_and_estimated_by_name() {
        let r = ExperimentReport::new(
            "app".into(),
            stats(&[("A", 600), ("B", 400)]),
            tech(&[("B", 39.0), ("A", 61.0)]),
            0.01,
        );
        let a = r.row("A").unwrap();
        assert_eq!(a.actual_rank, 1);
        assert!((a.actual_pct - 60.0).abs() < 1e-9);
        assert_eq!(a.est_rank, Some(2));
        assert_eq!(a.est_pct, Some(61.0));
        let b = r.row("B").unwrap();
        assert_eq!(b.est_rank, Some(1));
    }

    #[test]
    fn missing_estimates_show_as_none() {
        let r = ExperimentReport::new(
            "app".into(),
            stats(&[("A", 600), ("B", 400)]),
            tech(&[("A", 60.0)]),
            0.01,
        );
        assert_eq!(r.row("B").unwrap().est_rank, None);
    }

    #[test]
    fn max_abs_error_over_reported_objects() {
        let r = ExperimentReport::new(
            "app".into(),
            stats(&[("A", 600), ("B", 400)]),
            tech(&[("A", 75.0), ("B", 38.0)]),
            0.01,
        );
        assert!((r.max_abs_error() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn perturbation_and_slowdown_metrics() {
        let base = stats(&[("A", 1000)]);
        let mut inst = stats(&[("A", 1000)]);
        inst.instr.misses = 10;
        inst.cycles = 1_100_000;
        let r = ExperimentReport::new("app".into(), inst, tech(&[]), 0.01);
        assert!((r.miss_increase_pct(&base) - 1.0).abs() < 1e-9);
        assert!((r.slowdown_pct(&base) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_objects_are_filtered() {
        let r = ExperimentReport::new(
            "app".into(),
            stats(&[("A", 99_999), ("B", 1)]),
            tech(&[]),
            0.01,
        );
        assert!(r.row("B").is_none());
        assert!(r.row("A").is_some());
    }

    #[test]
    fn rank_delta_scores_the_top_n_window() {
        // Perfect agreement.
        assert_eq!(
            rank_delta(&[(1, Some(1)), (2, Some(2)), (3, Some(3))], 3),
            0
        );
        // A swap inverts two rows.
        assert_eq!(
            rank_delta(&[(1, Some(2)), (2, Some(1)), (3, Some(3))], 3),
            2
        );
        // A missing estimate counts as an inversion.
        assert_eq!(rank_delta(&[(1, Some(1)), (2, None)], 3), 1);
        // Rows outside the window are ignored, regardless of input order.
        assert_eq!(rank_delta(&[(4, None), (1, Some(1)), (2, Some(2))], 2), 0);
        // Empty input is zero inversions.
        assert_eq!(rank_delta(&[], 3), 0);
    }

    #[test]
    fn rank_delta_breaks_actual_rank_ties_by_input_order() {
        // Two rows claim actual rank 2: the first stays in the window of 2,
        // the second falls out. The result is a pure function of order.
        assert_eq!(rank_delta(&[(1, Some(1)), (2, None), (2, Some(2))], 2), 1);
        assert_eq!(rank_delta(&[(1, Some(1)), (2, Some(2)), (2, None)], 2), 0);
    }

    #[test]
    fn report_top_n_inversions_uses_rank_delta() {
        let r = ExperimentReport::new(
            "app".into(),
            stats(&[("A", 600), ("B", 300), ("C", 100)]),
            tech(&[("B", 50.0), ("A", 40.0), ("C", 10.0)]),
            0.01,
        );
        // A and B are swapped; C agrees.
        assert_eq!(r.top_n_inversions(3), 2);
        assert_eq!(r.top_n_inversions(1), 1);
    }

    #[test]
    fn display_renders_every_row() {
        let r = ExperimentReport::new(
            "app".into(),
            stats(&[("A", 600), ("B", 400)]),
            tech(&[("A", 60.0)]),
            0.01,
        );
        let s = format!("{r}");
        assert!(s.contains("A"));
        assert!(s.contains("60.0"));
        assert!(s.contains('-'), "missing estimate renders as dash");
    }

    #[test]
    fn duplicate_estimate_names_join_the_first_estimate() {
        // Two estimates name "A" (unaggregated instances of one site): the
        // row takes the first, highest-ranked one's rank and percentage.
        let t = tech(&[("A", 50.0), ("B", 30.0), ("A", 20.0)]);
        assert_eq!(t.rank_of("A"), Some((1, 50.0)));
        let r = ExperimentReport::new(
            "app".into(),
            stats(&[("B", 600), ("A", 300), ("A", 100)]),
            t,
            0.01,
        );
        let a = r.row("A").unwrap();
        assert_eq!(a.actual_rank, 2);
        assert_eq!(a.est_rank, Some(1));
        assert_eq!(a.est_pct, Some(50.0));
        assert_eq!(r.row("B").unwrap().est_rank, Some(2));
    }

    /// Join with [`ExperimentReport::new`], require field-by-field
    /// equality with the oracle, and return how many rows survived.
    fn joins_like_oracle(s: &RunStats, t: &TechniqueReport, min_pct: f64, case: &str) -> usize {
        let report = ExperimentReport::new("app".into(), s.clone(), t.clone(), min_pct);
        let fast = row_bits(report.rows());
        assert_eq!(fast, row_bits(&quadratic_rows(s, t, min_pct)), "{case}");
        fast.len()
    }

    #[test]
    fn join_matches_the_quadratic_oracle() {
        let no_app_misses = RunStats {
            app: Counts::default(),
            ..stats(&[("A", 2), ("B", 1), ("A", 1)])
        };
        let edge_cases = [
            (stats(&[]), tech(&[("A", 10.0)]), 0.01, 0, "no objects"),
            (
                no_app_misses,
                tech(&[("B", 1.0)]),
                0.01,
                2,
                "app.misses == 0",
            ),
            (
                stats(&[("A", 5), ("B", 5), ("C", 0)]),
                tech(&[("C", 1.0), ("C", 2.0)]),
                1e9,
                1,
                "only rank 1 survives",
            ),
            (
                stats(&[("A", 3), ("B", 1)]),
                tech(&[("ghost", 9.0)]),
                25.0,
                2,
                "row exactly at min_pct",
            ),
        ];
        for (s, t, min_pct, rows, case) in &edge_cases {
            assert_eq!(joins_like_oracle(s, t, *min_pct, case), *rows, "{case}");
        }

        // Names from small pools, so address reuse (repeated hex names),
        // same-named sites, ties and zero-miss objects are all common.
        const HEX: [&str; 4] = ["0x141000000", "0x141000040", "0x141000080", "0x1410000c0"];
        const SITES: [&str; 5] = ["arcs", "nodes", "tree_node", "U", "V"];
        let mut rng = SmallRng::seed_from_u64(0x10_1a7e);
        let name = |rng: &mut SmallRng| -> String {
            match rng.random_range(0..10usize) {
                0..=2 => HEX[rng.random_range(0..HEX.len())].to_string(),
                3..=5 => SITES[rng.random_range(0..SITES.len())].to_string(),
                _ => format!("0x{:x}", 0x1420_0000 + 64 * rng.random_range(0..256u64)),
            }
        };
        for case in 0..400 {
            let n = rng.random_range(0..120usize);
            let objs: Vec<(String, u64)> = (0..n)
                .map(|_| {
                    let misses = match rng.random_range(0..4usize) {
                        0 => 0,
                        1 => rng.random_range(1..4u64),
                        _ => rng.random_range(0..100_000u64),
                    };
                    (name(&mut rng), misses)
                })
                .collect();
            let borrowed: Vec<(&str, u64)> = objs.iter().map(|(n, m)| (n.as_str(), *m)).collect();
            let mut s = stats(&borrowed);
            s.app.misses = match rng.random_range(0..5usize) {
                0 => 0,
                1 => s.app.misses,
                _ => s.app.misses + rng.random_range(0..50_000u64),
            };
            // Estimates repeat names and name objects absent from ground truth.
            let ests: Vec<Estimate> = (0..rng.random_range(0..40usize))
                .map(|i| Estimate {
                    name: if rng.random_range(0..4usize) == 0 {
                        format!("ghost{i}")
                    } else {
                        name(&mut rng)
                    },
                    pct: rng.random_range(0.0..100.0),
                    weight: 0,
                })
                .collect();
            let t = TechniqueReport {
                estimates: ests,
                ..tech(&[])
            };
            // Thresholds include the exact percentage of some pooled row,
            // so rows sit on the boundary, and values that keep only rank 1.
            let all = quadratic_rows(&s, &t, f64::NEG_INFINITY);
            let min_pct = match rng.random_range(0..5usize) {
                0 => 0.0,
                1 => 0.01,
                2 if !all.is_empty() => all[rng.random_range(0..all.len())].actual_pct,
                3 => 1e9,
                _ => rng.random_range(0.0..30.0),
            };
            joins_like_oracle(&s, &t, min_pct, &format!("random case {case}"));
        }
    }
}
