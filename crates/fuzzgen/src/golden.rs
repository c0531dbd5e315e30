//! Golden reproducers: minimized failing scenarios with pinned verdicts.
//!
//! When the fuzzer finds a silent inversion, the minimized scenario is
//! committed as a `fuzz_golden` JSON file together with everything
//! needed to replay it bit-for-bit: the technique, the exact fault
//! config, the expected failure envelope, and the provenance (which
//! generator seed/budget produced it). CI replays every golden each run;
//! a golden that stops reproducing means either the bug was fixed
//! (retire it, tightening the gate) or the harness drifted (a
//! regression in the regression detector) — both are worth failing
//! loudly over.

use std::path::{Path, PathBuf};

use cachescope_campaign::{fault_config_from_json, fault_config_to_json};
use cachescope_core::{refuse_run, FaultConfig};
use cachescope_obs::json::{self, Json};
use cachescope_workloads::fuzz::Scenario;

use crate::differential::{technique_config, Finding, COUNTERS};
use crate::minimize::{measure, MinimizeOutcome, Property};

/// The pinned failure envelope a golden must stay inside to pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// The replay must invert at least this much.
    pub min_inversions: u64,
    /// ... while flagging at most this many degraded objects (0 for a
    /// silent finding).
    pub max_degraded: u64,
}

/// Which generator cell this golden was minimized from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provenance {
    pub seed: u64,
    pub budget_refs: u64,
}

/// One committed golden reproducer.
#[derive(Debug, Clone)]
pub struct Golden {
    pub name: String,
    pub technique: String,
    pub level: String,
    pub faults: FaultConfig,
    pub expected: Expected,
    pub provenance: Option<Provenance>,
    pub scenario: Scenario,
}

impl Golden {
    /// Pin a minimizer outcome as a golden named `name`.
    pub fn from_minimized(
        name: impl Into<String>,
        prop: &Property,
        outcome: &MinimizeOutcome,
        provenance: Option<Provenance>,
    ) -> Golden {
        Golden {
            name: name.into(),
            technique: prop.technique.clone(),
            level: prop.level.clone(),
            faults: prop.faults.clone(),
            expected: Expected {
                min_inversions: outcome.measurement.inversions,
                max_degraded: outcome.measurement.degraded,
            },
            provenance,
            scenario: outcome.scenario.clone(),
        }
    }

    /// Does a sweep finding match this golden's provenance? Matching
    /// findings are *known* (already minimized and committed), not new.
    pub fn matches_finding(&self, f: &Finding) -> bool {
        self.provenance.is_some_and(|p| {
            p.seed == f.seed
                && p.budget_refs == f.budget_refs
                && self.technique == f.technique
                && self.level == f.level
        })
    }

    /// Replay the golden: re-measure the pinned technique under the
    /// pinned faults. Passes when the failure still reproduces inside
    /// its envelope — at least `min_inversions`, at most `max_degraded`,
    /// and still worse than a freshly measured fault-free baseline.
    pub fn replay(&self) -> Result<bool, String> {
        let prop = Property {
            technique: self.technique.clone(),
            level: self.level.clone(),
            faults: self.faults.clone(),
        };
        let m = measure(&self.scenario, &prop)?;
        Ok(m.inversions >= self.expected.min_inversions
            && m.degraded <= self.expected.max_degraded
            && m.inversions > m.baseline_inversions)
    }

    /// Serialize to the committed `fuzz_golden` shape (`v: 1`). Field
    /// order is fixed so renders are byte-stable.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("kind", Json::str("fuzz_golden")),
            ("v", Json::Uint(1)),
            ("name", Json::str(self.name.clone())),
            ("technique", Json::str(self.technique.clone())),
            ("level", Json::str(self.level.clone())),
            ("faults", fault_config_to_json(&self.faults)),
            (
                "expected",
                Json::obj(vec![
                    ("min_inversions", Json::Uint(self.expected.min_inversions)),
                    ("max_degraded", Json::Uint(self.expected.max_degraded)),
                ]),
            ),
        ];
        if let Some(p) = self.provenance {
            fields.push((
                "provenance",
                Json::obj(vec![
                    ("seed", Json::Uint(p.seed)),
                    ("budget_refs", Json::Uint(p.budget_refs)),
                ]),
            ));
        }
        fields.push(("scenario", self.scenario.to_json()));
        Json::obj(fields)
    }

    /// Parse a committed golden whose run [`refuse_run`] admits.
    pub fn from_json(v: &Json) -> Result<Golden, String> {
        if v.get("kind").and_then(Json::as_str) != Some("fuzz_golden") {
            return Err("not a fuzz_golden object".into());
        }
        if v.get("v").and_then(Json::as_u64) != Some(1) {
            return Err("unsupported golden version (want v: 1)".into());
        }
        let need_str = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("golden missing string field '{key}'"))
        };
        let faults = match v.get("faults") {
            Some(f) => fault_config_from_json(f)?,
            None => FaultConfig::default(),
        };
        let expected = v
            .get("expected")
            .ok_or("golden missing 'expected'")
            .and_then(|e| {
                Ok(Expected {
                    min_inversions: e
                        .get("min_inversions")
                        .and_then(Json::as_u64)
                        .ok_or("expected.min_inversions missing")?,
                    max_degraded: e
                        .get("max_degraded")
                        .and_then(Json::as_u64)
                        .ok_or("expected.max_degraded missing")?,
                })
            })?;
        let provenance = match v.get("provenance") {
            None => None,
            Some(p) => Some(Provenance {
                seed: p
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or("provenance.seed missing")?,
                budget_refs: p
                    .get("budget_refs")
                    .and_then(Json::as_u64)
                    .ok_or("provenance.budget_refs missing")?,
            }),
        };
        let scenario = Scenario::from_json(v.get("scenario").ok_or("golden missing 'scenario'")?)?;
        let technique = need_str("technique")?;
        let config = technique_config(&technique, scenario.budget_refs)
            .ok_or_else(|| format!("unknown technique '{technique}'"))?;
        refuse_run(&config, COUNTERS, &faults)?;
        Ok(Golden {
            name: need_str("name")?,
            technique,
            level: need_str("level")?,
            faults,
            expected,
            provenance,
            scenario,
        })
    }

    /// Parse one golden from JSON text.
    pub fn from_json_str(text: &str) -> Result<Golden, String> {
        Golden::from_json(&json::parse(text)?)
    }

    /// Write the golden as `<dir>/<name>.json` (trailing newline, so the
    /// committed file diffs cleanly).
    pub fn save(&self, dir: &Path) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.json", self.name));
        let mut text = self.to_json().render();
        text.push('\n');
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// Load every `*.json` golden in `dir`, sorted by file name for
/// deterministic replay order. A missing directory is an empty set.
pub fn load_dir(dir: &Path) -> Result<Vec<Golden>, String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("read {}: {e}", dir.display())),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut goldens = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let g = Golden::from_json_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        goldens.push(g);
    }
    Ok(goldens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimize::planted_inversion;

    fn sample_golden() -> Golden {
        Golden {
            name: "g-test".to_string(),
            technique: "sample+h".to_string(),
            level: "skid".to_string(),
            faults: crate::differential::fault_level("skid").expect("skid level"),
            expected: Expected {
                min_inversions: 2,
                max_degraded: 0,
            },
            provenance: Some(Provenance {
                seed: 7,
                budget_refs: 20_000,
            }),
            scenario: planted_inversion(),
        }
    }

    #[test]
    fn golden_round_trips_and_checker_accepts_it() {
        let g = sample_golden();
        let rendered = g.to_json().render();
        let back = Golden::from_json_str(&rendered).expect("round trip");
        assert_eq!(back.to_json().render(), rendered, "byte-stable");
        assert_eq!(back.name, g.name);
        assert_eq!(back.faults.skid_depth, 8);
        assert_eq!(back.provenance, g.provenance);
        let diags = cachescope_check::fuzz::check_fuzz_json(&g.to_json(), "t");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn provenance_matching_identifies_known_findings() {
        let g = sample_golden();
        let f = Finding {
            scenario: "fuzz:7:20000".to_string(),
            seed: 7,
            budget_refs: 20_000,
            technique: "sample+h".to_string(),
            level: "skid".to_string(),
            inversions: 3,
            baseline_inversions: 1,
            degraded: 0,
            silent: true,
        };
        assert!(g.matches_finding(&f));
        assert!(!g.matches_finding(&Finding {
            seed: 8,
            ..f.clone()
        }));
        assert!(!g.matches_finding(&Finding {
            level: "drop".to_string(),
            ..f
        }));
    }

    #[test]
    fn save_and_load_dir_round_trip_sorted() {
        let dir = std::env::temp_dir().join("cachescope-fuzzgen-golden-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut b = sample_golden();
        b.name = "b-second".to_string();
        let mut a = sample_golden();
        a.name = "a-first".to_string();
        b.save(&dir).expect("save b");
        a.save(&dir).expect("save a");
        let loaded = load_dir(&dir).expect("load");
        assert_eq!(
            loaded.iter().map(|g| g.name.as_str()).collect::<Vec<_>>(),
            ["a-first", "b-second"]
        );
        let _ = std::fs::remove_dir_all(&dir);
        assert!(load_dir(&dir).expect("missing dir is empty").is_empty());
    }
}
