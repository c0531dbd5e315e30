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
//! run length (wraparound ambiguity, warning), `CS-P003` a sampling
//! period that breaks [`cachescope_core::SamplingPeriod::check`] (it can
//! reach zero, or its adaptive target is not positive), `CS-P004` zero
//! PMU counters, `CS-P005` n-way search arity vs. counter count,
//! `CS-P006` fault knob out of range, `CS-P007` more PMU counters than
//! [`PmuConfig::MAX_REGION_COUNTERS`].

use cachescope_campaign::Cell;
use cachescope_core::{FaultConfig, PmuConfig, TechniqueConfig};
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

/// Check one fully-resolved campaign cell's PMU-facing configuration.
pub fn check_cell(cell: &Cell, source: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let who = cell.describe();
    if cell.counters == 0 {
        diags.push(
            Diagnostic::error(
                "CS-P004",
                source,
                format!("cell {who}: zero PMU counters configured"),
            )
            .with_hint("every technique needs at least the global miss counter's width"),
        );
    }
    if cell.counters > PmuConfig::MAX_REGION_COUNTERS {
        diags.push(
            Diagnostic::error(
                "CS-P007",
                source,
                format!(
                    "cell {who}: {} PMU counters exceed the cap of {}",
                    cell.counters,
                    PmuConfig::MAX_REGION_COUNTERS
                ),
            )
            .with_hint("the CLI and the daemon refuse the count; real PMUs carry a handful"),
        );
    }
    match &cell.technique {
        TechniqueConfig::None => {}
        TechniqueConfig::Sampling(cfg) => {
            if let Err(why) = cfg.period.check() {
                diags.push(
                    Diagnostic::error("CS-P003", source, format!("cell {who}: {why}")).with_hint(
                        "the PMU is armed with every drawn period, so each must be a positive \
                         miss count",
                    ),
                );
            }
        }
        TechniqueConfig::Search(cfg) => {
            if cell.counters < 2 {
                diags.push(
                    Diagnostic::error(
                        "CS-P005",
                        source,
                        format!(
                            "cell {who}: the n-way search needs at least 2 region counters, \
                             got {}",
                            cell.counters
                        ),
                    )
                    .with_hint("a 1-way search cannot bisect; give the PMU more counters"),
                );
            }
            if cfg.logical_ways == Some(0) {
                diags.push(
                    Diagnostic::error(
                        "CS-P005",
                        source,
                        format!("cell {who}: logical_ways is zero"),
                    )
                    .with_hint("timesharing needs at least one logical way"),
                );
            }
        }
    }
    diags.extend(check_faults(&cell.faults, source, &who));
    if let Some(d) = check_wrap_width(&cell.faults, cell.limit, source, &who) {
        diags.push(d);
    }
    diags
}

/// Fault-injection knobs are probabilities (rates) and bit widths; out of
/// range values silently saturate or alias, so they are rejected here.
pub fn check_faults(f: &FaultConfig, source: &str, who: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (knob, v) in [
        ("skid_rate", f.skid_rate),
        ("drop_rate", f.drop_rate),
        ("spurious_rate", f.spurious_rate),
        ("read_jitter", f.read_jitter),
    ] {
        if !(0.0..=1.0).contains(&v) || v.is_nan() {
            diags.push(
                Diagnostic::error(
                    "CS-P006",
                    source,
                    format!("cell {who}: fault knob {knob} = {v} is not a probability"),
                )
                .with_hint("rates must lie in [0, 1]"),
            );
        }
    }
    if f.wrap_bits > 64 {
        diags.push(
            Diagnostic::error(
                "CS-P006",
                source,
                format!(
                    "cell {who}: wrap_bits = {} exceeds the 64-bit counter",
                    f.wrap_bits
                ),
            )
            .with_hint("use 0 to disable wraparound, or a width in 1..=64"),
        );
    }
    diags
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
    use cachescope_core::SamplerConfig;
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
        let mut c = cell();
        c.technique = TechniqueConfig::Search(Default::default());
        c.counters = 1;
        assert_eq!(codes(&check_cell(&c, "t")), ["CS-P005"]);
        let mut c = cell();
        let cfg = cachescope_core::SearchConfig {
            logical_ways: Some(0),
            ..Default::default()
        };
        c.technique = TechniqueConfig::Search(cfg);
        assert_eq!(codes(&check_cell(&c, "t")), ["CS-P005"]);
    }

    #[test]
    fn bad_fault_knobs_are_p006() {
        let mut c = cell();
        c.faults.drop_rate = 1.5;
        c.faults.wrap_bits = 99;
        let diags = check_cell(&c, "t");
        assert_eq!(codes(&diags), ["CS-P006", "CS-P006"]);
    }
}
