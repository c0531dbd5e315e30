//! PMU configuration legality.
//!
//! The simulated PMU ([`cachescope_hwpm`]) enforces almost nothing at
//! configuration time — a zero sampling period panics when armed, a
//! too-narrow wraparound width silently aliases counts, and a region
//! whose extent wraps the address space programs a bound below its base.
//! These are all decidable from the configuration alone, before any
//! simulation runs.
//!
//! Codes: `CS-P001` region base above bound, `CS-P002` counter width vs.
//! run length (wraparound ambiguity, warning). `CS-P003` to `CS-P007` are
//! the refusals of the run rule, [`cachescope_core::run_refusals`], which
//! every door that runs a configuration applies: an illegal sampling
//! period, zero PMU counters, a logical search width outside its range,
//! a fault knob out of range, more PMU counters than the cap.

use cachescope_campaign::Cell;
use cachescope_core::{run_refusals, FaultConfig, TechniqueConfig};
use cachescope_sim::{ObjectDecl, RunLimit};

use crate::diag::Diagnostic;

/// Check the extents a PMU region counter would be programmed with: a
/// base/bound pair is legal only when `base + size` does not wrap the
/// address space (the bound register would end up below the base).
pub fn check_objects(objects: &[ObjectDecl], source: &str) -> Vec<Diagnostic> {
    objects
        .iter()
        .filter_map(|o| wrap_diag(&format!("object '{}'", o.name), o.base, o.size, source))
        .collect()
}

/// CS-P001 for `what` (a static or an allocation) when `base + size`
/// wraps the address space.
pub(crate) fn wrap_diag(what: &str, base: u64, size: u64, source: &str) -> Option<Diagnostic> {
    base.checked_add(size).is_none().then(|| {
        Diagnostic::error(
            "CS-P001",
            source,
            format!(
                "{what} extent {base:#x}+{size:#x} wraps the address space: a region counter \
                 programmed over it would have bound < base"
            ),
        )
        .with_hint("base + size must not overflow u64")
    })
}

/// Check one fully-resolved campaign cell's PMU-facing configuration:
/// each refusal of the run rule ([`run_refusals`], which the campaign
/// runner applies to the same cell) as an error, plus the CS-P002
/// wraparound warning.
pub fn check_cell(cell: &Cell, source: &str) -> Vec<Diagnostic> {
    let who = cell.describe();
    let mut diags = check_run(
        &cell.technique,
        cell.counters,
        &cell.faults,
        source,
        &format!("cell {who}"),
    );
    diags.extend(check_wrap_width(&cell.faults, cell.limit, source, &who));
    diags
}

/// Each refusal of the run rule ([`run_refusals`]) for one run
/// configuration, as an error naming `who` and carrying its fix hint.
pub(crate) fn check_run(
    technique: &TechniqueConfig,
    counters: usize,
    faults: &FaultConfig,
    source: &str,
    who: &str,
) -> Vec<Diagnostic> {
    run_refusals(technique, counters, faults)
        .into_iter()
        .map(|r| {
            Diagnostic::error(r.code, source, format!("{who}: {}", r.message))
                .with_hint(refusal_hint(r.code))
        })
        .collect()
}

/// The fix hint for each code the run rule refuses with.
fn refusal_hint(code: &str) -> &'static str {
    match code {
        "CS-P003" => "the PMU is armed with every drawn period, so each must be a positive count",
        "CS-P004" => "every technique needs at least the global miss counter's width",
        "CS-P005" => "give at least one way; ways beyond the region counters are timeshared",
        "CS-P006" => "rates are probabilities; wrap_bits 0 turns wraparound off",
        "CS-P007" => "real PMUs carry a handful of counters; the paper's search uses 10",
        _ => "the run rule refuses this configuration",
    }
}

/// A counter that wraps at `2^wrap_bits` counts cannot distinguish `n`
/// from `n mod 2^wrap_bits`: a run configured to see at least that many
/// misses will read ambiguous counts. A warning, not an error — the
/// hardened techniques detect (and flag) wraps at run time.
fn check_wrap_width(
    f: &FaultConfig,
    limit: RunLimit,
    source: &str,
    who: &str,
) -> Option<Diagnostic> {
    if f.wrap_bits == 0 || f.wrap_bits >= 64 {
        return None;
    }
    let cap = 1u64 << f.wrap_bits;
    let run_misses = match limit {
        RunLimit::AppMisses(n) => n,
        _ => return None,
    };
    (run_misses >= cap).then(|| {
        Diagnostic::warning(
            "CS-P002",
            source,
            format!(
                "cell {who}: a {}-bit counter wraps at {cap} but the run is configured for \
                 {run_misses} misses — counts will alias",
                f.wrap_bits
            ),
        )
        .with_hint("widen wrap_bits past the run length, or use a hardened technique")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachescope_core::{PmuConfig, SamplerConfig, SearchConfig, TechniqueConfig};
    use cachescope_workloads::spec::Scale;

    fn cell() -> Cell {
        Cell {
            index: 0,
            workload: "mgrid".into(),
            scale: Scale::Test,
            label: "t".into(),
            seed: 1,
            technique: TechniqueConfig::None,
            counters: 10,
            limit: RunLimit::AppMisses(50_000),
            faults: FaultConfig::default(),
        }
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn default_cell_is_clean() {
        assert!(check_cell(&cell(), "t").is_empty());
    }

    #[test]
    fn wrapping_extent_is_p001() {
        let objs = [ObjectDecl::global("X", u64::MAX - 16, 64)];
        let diags = check_objects(&objs, "t");
        assert_eq!(codes(&diags), ["CS-P001"]);
    }

    #[test]
    fn narrow_counter_vs_run_length_is_p002() {
        let mut c = cell();
        c.faults.wrap_bits = 10; // wraps at 1024 << 50k-miss run
        let diags = check_cell(&c, "t");
        assert_eq!(codes(&diags), ["CS-P002"]);
        assert_eq!(diags[0].severity, crate::diag::Severity::Warning);
    }

    #[test]
    fn zero_period_and_risky_jitter_are_p003() {
        let mut c = cell();
        c.technique = TechniqueConfig::Sampling(SamplerConfig::fixed(0));
        assert_eq!(codes(&check_cell(&c, "t")), ["CS-P003"]);
        c.technique = TechniqueConfig::Sampling(SamplerConfig::jittered(100, 100, 1));
        assert_eq!(codes(&check_cell(&c, "t")), ["CS-P003"]);
        for target in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            c.technique = TechniqueConfig::Sampling(SamplerConfig::adaptive(target));
            assert_eq!(codes(&check_cell(&c, "t")), ["CS-P003"], "{target}");
        }
        c.technique = TechniqueConfig::Sampling(SamplerConfig::adaptive(5.0));
        assert!(check_cell(&c, "t").is_empty());
    }

    #[test]
    fn zero_counters_is_p004() {
        let mut c = cell();
        c.counters = 0;
        assert_eq!(codes(&check_cell(&c, "t")), ["CS-P004"]);
    }

    #[test]
    fn counters_above_the_cap_are_p007() {
        let mut c = cell();
        c.counters = PmuConfig::MAX_REGION_COUNTERS;
        assert!(check_cell(&c, "t").is_empty());
        for n in [PmuConfig::MAX_REGION_COUNTERS + 1, 100_000_000_000] {
            c.counters = n;
            assert_eq!(codes(&check_cell(&c, "t")), ["CS-P007"], "{n}");
        }
    }

    #[test]
    fn search_arity_violations_are_p005() {
        // One counter runs a timeshared 2-way search.
        let mut c = cell();
        c.technique = TechniqueConfig::Search(Default::default());
        c.counters = 1;
        assert!(check_cell(&c, "t").is_empty());
        let search = |ways| {
            TechniqueConfig::Search(SearchConfig {
                logical_ways: Some(ways),
                ..Default::default()
            })
        };
        c.technique = search(SearchConfig::MAX_LOGICAL_WAYS);
        assert!(check_cell(&c, "t").is_empty());
        for ways in [0, SearchConfig::MAX_LOGICAL_WAYS + 1] {
            c.technique = search(ways);
            assert_eq!(codes(&check_cell(&c, "t")), ["CS-P005"], "{ways}");
        }
    }

    #[test]
    fn bad_fault_knobs_are_p006() {
        let mut c = cell();
        c.faults.drop_rate = 1.5;
        c.faults.wrap_bits = 99;
        c.faults.skid_depth = FaultConfig::MAX_SKID_DEPTH + 1;
        let diags = check_cell(&c, "t");
        assert_eq!(codes(&diags), ["CS-P006", "CS-P006", "CS-P006"]);
    }
}
