//! A cell: one fully-resolved simulation in a campaign's sweep matrix.

use cachescope_core::export::report_to_json;
use cachescope_core::{refuse_run, Experiment, FaultConfig, TechniqueConfig};
use cachescope_obs::Json;
use cachescope_sim::RunLimit;
use cachescope_workloads::spec::Scale;

use crate::hash::stable_hash;
use crate::registry;

/// One concrete experiment: workload + technique + PMU width + run
/// length, fully resolved from a [`crate::CampaignSpec`].
#[derive(Debug, Clone)]
pub struct Cell {
    /// Dense position in the expanded matrix (display/manifest order;
    /// not part of the cache identity).
    pub index: usize,
    pub workload: String,
    pub scale: Scale,
    /// The technique column's label (manifest/aggregation key; not part
    /// of the cache identity).
    pub label: String,
    /// The seed this cell was expanded with. Informational: the seed that
    /// affects simulation already lives inside `technique`.
    pub seed: u64,
    pub technique: TechniqueConfig,
    pub counters: usize,
    pub limit: RunLimit,
    /// PMU fault injection for this cell; inert by default.
    pub faults: FaultConfig,
}

fn limit_json(limit: RunLimit) -> Json {
    let (kind, n) = match limit {
        RunLimit::AppMisses(n) => ("app_misses", Some(n)),
        RunLimit::AppAccesses(n) => ("app_accesses", Some(n)),
        RunLimit::Cycles(n) => ("cycles", Some(n)),
        RunLimit::AppCycles(n) => ("app_cycles", Some(n)),
        RunLimit::Exhausted => ("exhausted", None),
    };
    Json::obj(vec![
        ("kind", Json::str(kind)),
        ("n", n.map_or(Json::Null, Json::Uint)),
    ])
}

impl Cell {
    /// Canonical JSON identity: exactly the fields that affect the
    /// simulation's output, in a fixed key order. `index`, `label` and
    /// `seed` are presentation metadata and excluded — relabelling a
    /// technique column or reordering the matrix must not invalidate the
    /// cache, while any simulation-affecting change must.
    pub fn canonical_json(&self) -> Json {
        let mut fields = vec![
            ("v", Json::Uint(1)),
            ("workload", Json::str(self.workload.clone())),
            (
                "scale",
                Json::str(match self.scale {
                    Scale::Test => "test",
                    Scale::Paper => "paper",
                }),
            ),
            ("technique", self.technique.to_json()),
            ("counters", Json::Uint(self.counters as u64)),
            ("limit", limit_json(self.limit)),
        ];
        // Inert faults render nothing: every pre-fault-layer cell keeps
        // its exact canonical bytes, so existing caches stay valid.
        if !self.faults.is_inert() {
            fields.push(("faults", crate::spec::fault_config_to_json(&self.faults)));
        }
        Json::obj(fields)
    }

    /// Content-addressed cache key: stable hash of the canonical JSON.
    pub fn hash(&self) -> String {
        stable_hash(&self.canonical_json().render())
    }

    /// Short human-readable identity for logs and events.
    pub fn describe(&self) -> String {
        format!("{}/{}", self.workload, self.label)
    }

    /// Run the simulation and return the rendered report
    /// ([`report_to_json`] output) — the exact value the cache stores, so
    /// cached and fresh cells are indistinguishable downstream. A cell
    /// the run rule refuses fails with its codes before anything is built.
    pub fn run(&self) -> Result<Json, String> {
        refuse_run(&self.technique, self.counters, &self.faults)?;
        let program = registry::instantiate(&self.workload, self.scale)?;
        let report = Experiment::new(program)
            .technique(self.technique.clone())
            .counters(self.counters)
            .limit(self.limit)
            .faults(self.faults.clone())
            .run();
        Ok(report_to_json(&report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> Cell {
        Cell {
            index: 0,
            workload: "mgrid".to_string(),
            scale: Scale::Test,
            label: "sampling".to_string(),
            seed: 1,
            technique: TechniqueConfig::sampling(1_000),
            counters: 10,
            limit: RunLimit::AppMisses(50_000),
            faults: FaultConfig::default(),
        }
    }

    #[test]
    fn hash_ignores_presentation_fields() {
        let a = cell();
        let mut b = cell();
        b.index = 7;
        b.label = "renamed".to_string();
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn hash_tracks_simulation_fields() {
        let a = cell();
        let mut b = cell();
        b.limit = RunLimit::AppMisses(50_001);
        assert_ne!(a.hash(), b.hash());
        let mut c = cell();
        c.counters = 2;
        assert_ne!(a.hash(), c.hash());
        let mut d = cell();
        d.technique = TechniqueConfig::sampling(1_001);
        assert_ne!(a.hash(), d.hash());
        let mut e = cell();
        e.workload = "applu".to_string();
        assert_ne!(a.hash(), e.hash());
    }

    #[test]
    fn inert_faults_leave_the_hash_unchanged() {
        // An all-zero fault config must not invalidate pre-fault-layer
        // caches: only the seed differs, and the seed alone is inert.
        let a = cell();
        let mut b = cell();
        b.faults.seed = 42;
        assert_eq!(a.hash(), b.hash());
        assert!(!a.canonical_json().render().contains("faults"));
    }

    #[test]
    fn active_faults_change_the_hash() {
        let a = cell();
        let mut b = cell();
        b.faults.drop_rate = 0.1;
        assert_ne!(a.hash(), b.hash());
        // Same faults, different seed: distinct cache identities.
        let mut c = cell();
        c.faults.drop_rate = 0.1;
        c.faults.seed = 9;
        assert_ne!(b.hash(), c.hash());
    }

    #[test]
    fn run_produces_a_report() {
        let report = cell().run().unwrap();
        assert_eq!(report.get("app").and_then(Json::as_str), Some("mgrid"));
        assert!(!report.get("rows").unwrap().as_arr().unwrap().is_empty());
    }
}
