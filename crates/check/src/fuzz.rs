//! Fuzz-artifact verification: scenario pre-validation and the
//! verdict/golden JSON checkers (`CS-F001..F005`).
//!
//! Two jobs. First, [`check_scenario`] proves a generated [`Scenario`]
//! well-formed *before* any simulation time is spent on it: the same
//! chunk-encoding (`CS-C*`) and allocation-lifecycle (`CS-W*`) passes a
//! registry workload gets, with caller-bounded budgets so a fuzz sweep
//! over thousands of scenarios stays cheap. Second, the JSON artifacts
//! the fuzz flywheel commits — verdict reports and golden reproducers —
//! get their own structural checkers so a stale or hand-mangled artifact
//! fails `cachescope check` instead of silently weakening the CI gate.
//!
//! Codes: `CS-F001` unreadable/unknown artifact, `CS-F002` missing or
//! mistyped field, `CS-F003` embedded scenario invalid, `CS-F004`
//! internally inconsistent finding, `CS-F005` unresolved failure
//! recorded (warning — the fuzz CLI, not the static checker, is the
//! gate that fails the build). A golden's replay run (its technique on
//! the fuzz sweep's counters, under its faults) is judged by the run
//! rule, so it carries the same `CS-P003..P007` codes `cachescope fuzz`
//! refuses it with. A verdict's recorded static-bounds
//! violations re-surface here under `CS-A004` (same warning-not-gate
//! convention as `CS-F005`).

use cachescope_campaign::spec::{fault_config_from_json, technique_config, COUNTERS};
use cachescope_core::FaultConfig;
use cachescope_obs::json::{self, Json};
use cachescope_workloads::fuzz::{FuzzWorkload, Scenario};

use crate::diag::Diagnostic;
use crate::lifecycle::LifecycleChecker;
use crate::pmu::check_run;

/// Check one scenario with budget-derived bounds: enough events to cover
/// the whole stream (every slot emits at most four events plus the
/// alloc/free frame) and the matching number of chunks.
pub fn check_scenario_default(scenario: &Scenario, source: &str) -> Vec<Diagnostic> {
    let max_events = scenario.budget_refs.saturating_mul(4).saturating_add(1024);
    check_scenario(scenario, source, max_events, max_events / 1024 + 8)
}

/// Run the `CS-W*`/`CS-C*` passes over a scenario without simulating it.
///
/// Mirrors [`crate::workload::check_workload`], but takes the scenario
/// directly (fuzz scenarios are not registry names until they run in a
/// campaign) and lets the caller bound both pulls.
pub fn check_scenario(
    scenario: &Scenario,
    source: &str,
    max_events: u64,
    max_chunks: u64,
) -> Vec<Diagnostic> {
    let mut program = match FuzzWorkload::new(scenario.clone()) {
        Ok(p) => p,
        Err(e) => {
            return vec![Diagnostic::error("CS-F003", source, e)
                .with_hint("the scenario failed structural validation; regenerate or re-minimize")]
        }
    };
    let mut diags = crate::chunk::check_program_chunks(&mut program, source, max_chunks);

    // Fresh instance for the event-granular pass: the chunk pull above
    // consumed (part of) the stream.
    let mut program = match FuzzWorkload::new(scenario.clone()) {
        Ok(p) => p,
        Err(e) => {
            diags.push(Diagnostic::error("CS-F003", source, e));
            return diags;
        }
    };
    let statics = cachescope_sim::Program::static_objects(&program);
    diags.extend(crate::pmu::check_objects(&statics, source));
    let mut lifecycle = LifecycleChecker::new(source, &statics);
    let mut ended = false;
    let mut pos = 0u64;
    while pos < max_events {
        match cachescope_sim::Program::next_event(&mut program) {
            Some(ev) => {
                pos += 1;
                lifecycle.observe(&ev, pos);
            }
            None => {
                ended = true;
                break;
            }
        }
    }
    diags.extend(lifecycle.finish(ended));
    diags
}

fn need_str(v: &Json, key: &str, source: &str, diags: &mut Vec<Diagnostic>) -> Option<String> {
    match v.get(key).and_then(Json::as_str) {
        Some(s) if !s.is_empty() => Some(s.to_string()),
        _ => {
            diags.push(Diagnostic::error(
                "CS-F002",
                source,
                format!("missing or non-string field '{key}'"),
            ));
            None
        }
    }
}

fn need_u64(v: &Json, key: &str, source: &str, diags: &mut Vec<Diagnostic>) -> Option<u64> {
    match v.get(key).and_then(Json::as_u64) {
        Some(n) => Some(n),
        None => {
            diags.push(Diagnostic::error(
                "CS-F002",
                source,
                format!("missing or non-integer field '{key}'"),
            ));
            None
        }
    }
}

/// Check one parsed fuzz artifact, dispatching on its `kind`.
pub fn check_fuzz_json(v: &Json, source: &str) -> Vec<Diagnostic> {
    match v.get("kind").and_then(Json::as_str) {
        Some("fuzz_verdict") => check_verdict_json(v, source),
        Some("fuzz_golden") => check_golden_json(v, source),
        other => vec![Diagnostic::error(
            "CS-F001",
            source,
            format!("kind is {other:?}, expected \"fuzz_verdict\" or \"fuzz_golden\""),
        )
        .with_hint("fuzz artifacts are written by `cachescope fuzz`")],
    }
}

/// Check a fuzz artifact file (verdict report or golden reproducer).
pub fn check_fuzz_file(path: &str) -> Vec<Diagnostic> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            return vec![Diagnostic::error(
                "CS-F001",
                path,
                format!("cannot read: {e}"),
            )]
        }
    };
    let v = match json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            return vec![Diagnostic::error(
                "CS-F001",
                path,
                format!("not valid JSON: {e}"),
            )]
        }
    };
    check_fuzz_json(&v, path)
}

/// Structural check of a verdict report (`kind: "fuzz_verdict"`).
pub fn check_verdict_json(v: &Json, source: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if v.get("v").and_then(Json::as_u64) != Some(1) {
        diags.push(Diagnostic::error(
            "CS-F001",
            source,
            "unsupported or missing verdict version (want v: 1)",
        ));
        return diags;
    }
    need_u64(v, "seed_base", source, &mut diags);
    need_u64(v, "seeds", source, &mut diags);
    need_u64(v, "budget_refs", source, &mut diags);
    need_u64(v, "scenarios", source, &mut diags);
    let new_silent = need_u64(v, "new_silent", source, &mut diags);
    match v.get("findings").and_then(Json::as_arr) {
        None => {
            diags.push(Diagnostic::error(
                "CS-F002",
                source,
                "missing 'findings' array",
            ));
        }
        Some(findings) => {
            for (i, f) in findings.iter().enumerate() {
                let who = format!("finding {i}");
                let mut local = Vec::new();
                need_str(f, "scenario", source, &mut local);
                need_str(f, "technique", source, &mut local);
                need_str(f, "level", source, &mut local);
                let inv = need_u64(f, "inversions", source, &mut local);
                let base = need_u64(f, "baseline_inversions", source, &mut local);
                let degraded = need_u64(f, "degraded", source, &mut local);
                let silent = match f.get("silent") {
                    Some(Json::Bool(b)) => Some(*b),
                    _ => {
                        local.push(Diagnostic::error(
                            "CS-F002",
                            source,
                            format!("{who}: missing or non-boolean 'silent'"),
                        ));
                        None
                    }
                };
                if let (Some(inv), Some(base), Some(degraded), Some(true)) =
                    (inv, base, degraded, silent)
                {
                    if degraded != 0 {
                        local.push(
                            Diagnostic::error(
                                "CS-F004",
                                source,
                                format!(
                                    "{who}: marked silent but {degraded} object(s) were \
                                     flagged degraded"
                                ),
                            )
                            .with_hint("silent means the ranking inverted with NO degraded flag"),
                        );
                    }
                    if inv <= base {
                        local.push(
                            Diagnostic::error(
                                "CS-F004",
                                source,
                                format!(
                                    "{who}: marked silent but inversions ({inv}) do not exceed \
                                     the fault-free baseline ({base})"
                                ),
                            )
                            .with_hint(
                                "a silent finding must invert *more* than the same technique \
                                 does without faults",
                            ),
                        );
                    }
                }
                diags.extend(local);
            }
        }
    }
    // Optional (older verdicts predate it): `CS-A004` static-bounds
    // violations the sweep recorded. The fuzz CLI, not the static
    // checker, is the gate — here each recorded violation surfaces as a
    // warning so a committed verdict carrying one can't look clean.
    if let Some(violations) = v.get("bounds_violations").and_then(Json::as_arr) {
        for (i, b) in violations.iter().enumerate() {
            let mut local = Vec::new();
            let scenario = need_str(b, "scenario", source, &mut local);
            need_str(b, "technique", source, &mut local);
            need_str(b, "level", source, &mut local);
            let message = need_str(b, "message", source, &mut local);
            if !local.is_empty() {
                for d in &mut local {
                    d.message = format!("bounds violation {i}: {}", d.message);
                }
                diags.extend(local);
                continue;
            }
            diags.push(
                Diagnostic::warning(
                    "CS-A004",
                    source,
                    format!(
                        "verdict records a static-bounds violation on '{}': {}",
                        scenario.unwrap_or_default(),
                        message.unwrap_or_default()
                    ),
                )
                .with_hint(
                    "the bounds are sound by construction — this is an engine or \
                     analyzer bug; the fuzz CLI fails on it",
                ),
            );
        }
    }
    if let Some(goldens) = v.get("goldens").and_then(Json::as_arr) {
        for (i, g) in goldens.iter().enumerate() {
            need_str(g, "name", source, &mut diags);
            match g.get("pass") {
                Some(Json::Bool(true)) => {}
                Some(Json::Bool(false)) => {
                    let name = g.get("name").and_then(Json::as_str).unwrap_or("?");
                    diags.push(
                        Diagnostic::warning(
                            "CS-F005",
                            source,
                            format!("golden reproducer '{name}' did not reproduce its verdict"),
                        )
                        .with_hint("re-minimize or retire the golden; the fuzz gate fails on this"),
                    );
                }
                _ => diags.push(Diagnostic::error(
                    "CS-F002",
                    source,
                    format!("golden {i}: missing or non-boolean 'pass'"),
                )),
            }
        }
    }
    if let Some(n) = new_silent {
        if n > 0 {
            diags.push(
                Diagnostic::warning(
                    "CS-F005",
                    source,
                    format!("verdict records {n} unresolved new silent inversion(s)"),
                )
                .with_hint("run `cachescope fuzz --minimize` and commit the golden reproducer"),
            );
        }
    }
    diags
}

/// Structural check of a golden reproducer (`kind: "fuzz_golden"`).
pub fn check_golden_json(v: &Json, source: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if v.get("v").and_then(Json::as_u64) != Some(1) {
        diags.push(Diagnostic::error(
            "CS-F001",
            source,
            "unsupported or missing golden version (want v: 1)",
        ));
        return diags;
    }
    need_str(v, "name", source, &mut diags);
    let technique = need_str(v, "technique", source, &mut diags);
    need_str(v, "level", source, &mut diags);
    match v.get("expected") {
        None => diags.push(Diagnostic::error(
            "CS-F002",
            source,
            "missing 'expected' object (the pinned verdict)",
        )),
        Some(exp) => {
            need_u64(exp, "min_inversions", source, &mut diags);
            need_u64(exp, "max_degraded", source, &mut diags);
        }
    }
    match v.get("scenario") {
        None => diags.push(Diagnostic::error(
            "CS-F002",
            source,
            "missing embedded 'scenario'",
        )),
        Some(s) => match Scenario::from_json(s) {
            Ok(scenario) => {
                diags.extend(check_scenario_default(&scenario, source));
                if let Some(technique) = technique {
                    diags.extend(check_golden_run(v, &technique, &scenario, source));
                }
            }
            Err(e) => diags.push(
                Diagnostic::error("CS-F003", source, format!("embedded scenario invalid: {e}"))
                    .with_hint("golden scenarios must round-trip through Scenario::from_json"),
            ),
        },
    }
    diags
}

/// The run a golden replays: its technique resolved by the name table
/// the replay uses, on the replay's counters, under its faults, judged
/// by the run rule every other door applies.
fn check_golden_run(
    v: &Json,
    technique: &str,
    scenario: &Scenario,
    source: &str,
) -> Vec<Diagnostic> {
    let Some(config) = technique_config(technique, scenario.budget_refs) else {
        return vec![Diagnostic::error(
            "CS-F002",
            source,
            format!("unknown technique '{technique}'"),
        )
        .with_hint("a golden replays one of sample, sample+h, search, search+h")];
    };
    match v
        .get("faults")
        .map_or(Ok(FaultConfig::default()), fault_config_from_json)
    {
        Ok(faults) => check_run(&config, COUNTERS, &faults, source, "golden replay"),
        Err(e) => vec![Diagnostic::error("CS-F002", source, format!("faults: {e}"))],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn generated_scenarios_check_clean() {
        for seed in 0..8 {
            let s = Scenario::generate(seed, 5_000);
            let diags = check_scenario_default(&s, "t");
            assert!(diags.is_empty(), "seed {seed}: {diags:?}");
        }
    }

    #[test]
    fn wrong_kind_is_f001() {
        let v = json::parse(r#"{"kind":"banana"}"#).expect("json");
        assert_eq!(codes(&check_fuzz_json(&v, "t")), ["CS-F001"]);
    }

    #[test]
    fn minimal_clean_verdict_passes() {
        let v = json::parse(
            r#"{"kind":"fuzz_verdict","v":1,"seed_base":0,"seeds":4,"budget_refs":20000,
                "scenarios":4,"new_silent":0,"findings":[]}"#,
        )
        .expect("json");
        assert!(check_fuzz_json(&v, "t").is_empty());
    }

    #[test]
    fn inconsistent_silent_finding_is_f004() {
        let v = json::parse(
            r#"{"kind":"fuzz_verdict","v":1,"seed_base":0,"seeds":1,"budget_refs":1000,
                "scenarios":1,"new_silent":0,"findings":[
                  {"scenario":"fuzz:0:1000","technique":"sample+h","level":"skid",
                   "inversions":1,"baseline_inversions":1,"degraded":2,"silent":true}]}"#,
        )
        .expect("json");
        let diags = check_fuzz_json(&v, "t");
        assert_eq!(codes(&diags), ["CS-F004", "CS-F004"]);
    }

    #[test]
    fn unresolved_silent_and_failed_golden_are_f005_warnings() {
        let v = json::parse(
            r#"{"kind":"fuzz_verdict","v":1,"seed_base":0,"seeds":1,"budget_refs":1000,
                "scenarios":1,"new_silent":2,"findings":[],
                "goldens":[{"name":"g","pass":false}]}"#,
        )
        .expect("json");
        let diags = check_fuzz_json(&v, "t");
        assert_eq!(codes(&diags), ["CS-F005", "CS-F005"]);
        assert!(diags
            .iter()
            .all(|d| d.severity == crate::diag::Severity::Warning));
    }

    #[test]
    fn a_golden_replays_a_run_the_run_rule_admits() {
        let golden = |technique: &str, faults: &str| {
            let text = format!(
                r#"{{"kind":"fuzz_golden","v":1,"name":"g","technique":"{technique}",
                    "level":"skid","faults":{faults},
                    "expected":{{"min_inversions":1,"max_degraded":0}},"scenario":{}}}"#,
                Scenario::generate(1, 1_000).to_json().render()
            );
            codes(&check_fuzz_json(&json::parse(&text).expect("json"), "t"))
        };
        assert!(golden("sample+h", r#"{"skid_depth":8,"skid_rate":1.0}"#).is_empty());
        assert_eq!(golden("banana", "{}"), ["CS-F002"]);
        assert_eq!(golden("search", r#"{"banana":1}"#), ["CS-F002"]);
        assert_eq!(golden("search+h", r#"{"drop_rate":1.5}"#), ["CS-P006"]);
    }

    #[test]
    fn golden_without_expected_or_scenario_is_f002() {
        let v = json::parse(
            r#"{"kind":"fuzz_golden","v":1,"name":"g","technique":"sample+h","level":"skid"}"#,
        )
        .expect("json");
        let diags = check_fuzz_json(&v, "t");
        assert_eq!(codes(&diags), ["CS-F002", "CS-F002"]);
    }

    #[test]
    fn golden_with_bad_scenario_is_f003() {
        let v = json::parse(
            r#"{"kind":"fuzz_golden","v":1,"name":"g","technique":"sample+h","level":"skid",
                "expected":{"min_inversions":2,"max_degraded":0},
                "scenario":{"kind":"fuzz_scenario","v":1,"name":"s","seed":1,"budget_refs":10,
                            "targets":[],"phases":[]}}"#,
        )
        .expect("json");
        let diags = check_fuzz_json(&v, "t");
        assert_eq!(codes(&diags), ["CS-F003"]);
    }
}
