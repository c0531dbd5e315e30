//! End-to-end campaign engine tests: caching, resume, determinism and
//! panic isolation.

use std::path::PathBuf;

use cachescope_campaign::registry::PANIC_WORKLOAD;
use cachescope_campaign::{
    CampaignRunner, CampaignSpec, CellStatus, LimitSpec, ResultCache, TechniqueKind, TechniqueSpec,
};
use cachescope_core::FaultConfig;
use cachescope_workloads::spec::Scale;

/// A fresh pair of (cache, manifest) temp directories for one test.
struct TempDirs {
    cache: PathBuf,
    manifests: PathBuf,
}

impl TempDirs {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!(
            "cachescope-campaign-it-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        TempDirs {
            cache: root.join("cache"),
            manifests: root.join("campaigns"),
        }
    }

    fn runner(&self) -> CampaignRunner {
        CampaignRunner::new()
            .cache_dir(&self.cache)
            .manifest_dir(&self.manifests)
            .jobs(Some(2))
    }
}

impl Drop for TempDirs {
    fn drop(&mut self) {
        if let Some(root) = self.cache.parent() {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

fn small_spec(name: &str) -> CampaignSpec {
    CampaignSpec::new(name, Scale::Test)
        .workloads(["mgrid", "applu"])
        .technique(TechniqueSpec::new(
            "baseline",
            TechniqueKind::None,
            LimitSpec::misses(10_000),
        ))
        .technique(TechniqueSpec::new(
            "sampling",
            TechniqueKind::Sampling {
                period: 500,
                aggregate: false,
                hardened: false,
            },
            LimitSpec::misses(10_000),
        ))
}

#[test]
fn cache_keys_are_stable_across_processes() {
    // Expanding the same spec twice yields identical hashes...
    let a = small_spec("stability").expand().unwrap();
    let b = small_spec("stability").expand().unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.hash(), y.hash());
    }
    // ...and the hash is a pure function of the canonical config, pinned
    // here as a literal: if this assertion ever fails, the canonical form
    // changed and every existing results/cache entry silently invalidates
    // — bump the "v" field in Cell::canonical_json instead.
    assert_eq!(a[0].hash(), "77c21ef42a1b551a");
}

#[test]
fn second_run_is_fully_cache_hit() {
    let dirs = TempDirs::new("rerun");
    let spec = small_spec("rerun");
    let first = dirs.runner().run(&spec).unwrap();
    assert!(first.is_complete());
    assert_eq!(first.outcomes.len(), 4);
    assert_eq!(first.cache_hits(), 0);
    assert_eq!(first.obs.metrics.counter("campaign.cell_starts"), 4);

    let second = dirs.runner().run(&spec).unwrap();
    assert!(second.is_complete());
    // The acceptance check: an unchanged spec re-simulates nothing.
    assert_eq!(second.obs.metrics.counter("campaign.cell_starts"), 0);
    assert_eq!(second.obs.metrics.counter("campaign.cache_hits"), 4);
    assert_eq!(second.cache_hits(), 4);
}

#[test]
fn interrupted_campaign_resumes_only_missing_cells() {
    let dirs = TempDirs::new("resume");
    let spec = small_spec("resume");
    let first = dirs.runner().run(&spec).unwrap();
    assert!(first.is_complete());

    // Simulate an interrupt that lost one cell's result: drop its cache
    // entry. The next run must simulate exactly that cell.
    let victim = &first.outcomes[2];
    let cache = ResultCache::new(&dirs.cache);
    std::fs::remove_file(cache.entry_path(&victim.hash)).unwrap();

    let resumed = dirs.runner().run(&spec).unwrap();
    assert!(resumed.is_complete());
    assert_eq!(resumed.obs.metrics.counter("campaign.cell_starts"), 1);
    assert_eq!(resumed.obs.metrics.counter("campaign.cache_hits"), 3);
    let rerun = resumed
        .outcomes
        .iter()
        .find(|o| !o.cache_hit)
        .expect("one cell re-simulated");
    assert_eq!(rerun.hash, victim.hash);
}

#[test]
fn corrupt_cache_entry_resimulates_and_is_reported() {
    let dirs = TempDirs::new("corrupt");
    let spec = small_spec("corrupt");
    let first = dirs.runner().run(&spec).unwrap();
    assert!(first.is_complete());

    // Vandalise one cell's cache entry (a truncated write, a bad disk).
    let victim = &first.outcomes[1];
    let cache = ResultCache::new(&dirs.cache);
    std::fs::write(cache.entry_path(&victim.hash), "{\"v\":1,\"cell\":").unwrap();

    // The next run re-simulates exactly that cell, reports the
    // corruption distinctly from an ordinary miss, and heals the entry.
    let second = dirs.runner().run(&spec).unwrap();
    assert!(second.is_complete());
    assert_eq!(second.obs.metrics.counter("campaign.cache_corrupt"), 1);
    assert_eq!(second.obs.metrics.counter("campaign.cell_starts"), 1);
    assert_eq!(second.obs.metrics.counter("campaign.cache_hits"), 3);
    let rerun = second
        .outcomes
        .iter()
        .find(|o| !o.cache_hit)
        .expect("the corrupted cell re-simulated");
    assert_eq!(rerun.hash, victim.hash);
    assert_eq!(rerun.report.render(), victim.report.render());

    let third = dirs.runner().run(&spec).unwrap();
    assert_eq!(third.obs.metrics.counter("campaign.cache_corrupt"), 0);
    assert_eq!(third.obs.metrics.counter("campaign.cache_hits"), 4);
}

#[test]
fn a_refused_cell_fails_even_with_a_cached_report() {
    let dirs = TempDirs::new("refused");
    let zero = TechniqueSpec::new("zero", TechniqueKind::None, LimitSpec::misses(10_000));
    let spec = small_spec("refused").technique(zero.counters(0));
    // An entry a build without the run rule could have stored.
    let cells = spec.expand().unwrap();
    let refused = cells.iter().find(|c| c.counters == 0).unwrap();
    let report = cells[0].run().unwrap();
    ResultCache::new(&dirs.cache)
        .store(refused, &report)
        .unwrap();

    let run = dirs.runner().retries(0).run(&spec).unwrap();
    assert_eq!(run.outcomes.len(), 4);
    assert_eq!(run.failures.len(), 2);
    for f in &run.failures {
        assert_eq!(f.cell.counters, 0);
        assert!(f.error.starts_with("CS-P004: "), "error: {}", f.error);
    }
    assert_eq!(run.obs.metrics.counter("campaign.cache_hits"), 0);
}

/// A refused cell is settled before the pool starts: no attempt, no
/// retry, no panic, one `cell_refused` event, and a manifest entry
/// marked failed, while the clean cell beside it still simulates.
#[test]
fn a_refused_cell_settles_with_no_attempt() {
    let dirs = TempDirs::new("refused-stage-1");
    let clean = TechniqueSpec::new("clean", TechniqueKind::None, LimitSpec::misses(10_000));
    let spec = CampaignSpec::new("refused-stage-1", Scale::Test)
        .workloads(["mgrid"])
        .technique(clean.clone())
        .technique(TechniqueSpec {
            label: "zero".into(),
            ..clean.clone().counters(0)
        })
        .technique(TechniqueSpec {
            label: "skid".into(),
            ..clean.faults(FaultConfig {
                skid_depth: 100_000_000_000,
                skid_rate: 0.5,
                ..FaultConfig::default()
            })
        });
    let run = dirs.runner().retries(1).run(&spec).unwrap();

    assert_eq!(run.outcomes.len(), 1);
    assert!(!run.outcomes[0].cache_hit);
    assert_eq!(run.outcomes[0].cell.label, "clean");
    let failed: Vec<_> = run
        .failures
        .iter()
        .map(|f| (f.cell.label.as_str(), f.attempts, &f.error[..8]))
        .collect();
    assert_eq!(failed, [("zero", 0, "CS-P004:"), ("skid", 0, "CS-P006:")]);
    let m = &run.obs.metrics;
    assert_eq!(m.counter("campaign.cell_starts"), 1);
    assert_eq!(m.counter("campaign.retries"), 0);
    assert_eq!(m.counter("campaign.panics"), 0);
    assert_eq!(m.counter("campaign.refused"), 2);

    let manifest = cachescope_campaign::Manifest::load(&dirs.manifests, "refused-stage-1")
        .expect("manifest written");
    let fates: Vec<_> = manifest
        .cells
        .iter()
        .map(|c| (c.status, c.attempts))
        .collect();
    assert_eq!(
        fates,
        [
            (CellStatus::Done, 1),
            (CellStatus::Failed, 0),
            (CellStatus::Failed, 0)
        ]
    );
}

#[test]
fn results_are_deterministic_across_cold_runs() {
    let spec = small_spec("determinism");
    let dirs_a = TempDirs::new("det-a");
    let dirs_b = TempDirs::new("det-b");
    let a = dirs_a.runner().run(&spec).unwrap();
    let b = dirs_b.runner().run(&spec).unwrap();
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.hash, y.hash);
        // Simulations are deterministic, so two cold runs render
        // byte-identical reports.
        assert_eq!(x.report.render(), y.report.render());
    }
}

#[test]
fn a_panicking_cell_is_retried_then_quarantined() {
    let dirs = TempDirs::new("panic");
    let spec = small_spec("panic").workload(PANIC_WORKLOAD);
    let run = dirs.runner().retries(1).run(&spec).unwrap();

    // The healthy cells all completed despite the panicking workload.
    assert_eq!(run.outcomes.len(), 4);
    assert!(run.outcome("mgrid", "sampling").is_some());

    // Both of the panic workload's cells failed after retrying.
    assert!(!run.is_complete());
    assert_eq!(run.failures.len(), 2);
    for f in &run.failures {
        assert_eq!(f.cell.workload, PANIC_WORKLOAD);
        assert_eq!(f.attempts, 2);
        assert!(f.error.contains("__panic__"), "error: {}", f.error);
    }
    assert_eq!(run.obs.metrics.counter("campaign.retries"), 2);
    assert_eq!(run.obs.metrics.counter("campaign.panics"), 2);

    // Failures are not cached: a later run retries them (and only them).
    let again = dirs.runner().retries(0).run(&spec).unwrap();
    assert_eq!(again.obs.metrics.counter("campaign.cache_hits"), 4);
    assert_eq!(again.obs.metrics.counter("campaign.cell_starts"), 2);
    assert_eq!(again.failures.len(), 2);
}

#[test]
fn manifest_records_cell_fates() {
    let dirs = TempDirs::new("manifest");
    let spec = small_spec("manifest-demo");
    let run = dirs.runner().run(&spec).unwrap();
    assert!(run.is_complete());
    let manifest = cachescope_campaign::Manifest::load(&dirs.manifests, "manifest-demo")
        .expect("manifest written");
    assert_eq!(manifest.cells.len(), 4);
    assert!(manifest
        .cells
        .iter()
        .all(|c| c.status == cachescope_campaign::CellStatus::Done && c.attempts == 1));
    assert_eq!(manifest.pending(), 0);

    // A warm re-run flips every cell to cache_hit with zero attempts.
    dirs.runner().run(&spec).unwrap();
    let warm = cachescope_campaign::Manifest::load(&dirs.manifests, "manifest-demo").unwrap();
    assert!(warm
        .cells
        .iter()
        .all(|c| c.status == cachescope_campaign::CellStatus::CacheHit && c.attempts == 0));
}

#[test]
fn profiled_campaign_rolls_cell_times_into_one_merged_leaf() {
    let dirs = TempDirs::new("profile");
    let spec = small_spec("profile");
    let run = dirs.runner().profile(true).run(&spec).unwrap();
    assert!(run.is_complete());

    // Arena reuse across cells: four simulated cells fold into exactly
    // two span records — `campaign.run` and one merged `campaign.cell`
    // leaf with count 4 — not one record per cell.
    let prof = &run.obs.profiler;
    assert!(prof.is_enabled());
    assert_eq!(prof.open_depth(), 0);
    assert_eq!(prof.spans().len(), 2);
    let root = &prof.spans()[0];
    let leaf = &prof.spans()[1];
    assert_eq!((root.name, root.count), ("campaign.run", 1));
    assert_eq!((leaf.name, leaf.count), ("campaign.cell", 4));
    // Cells run on a pool: their summed wall time can exceed the
    // campaign's own elapsed time, so only positivity is asserted.
    assert!(leaf.total_ns > 0);

    // The latency histogram saw the same four cells.
    let cells = run
        .obs
        .metrics
        .histogram("campaign.cell_ns")
        .expect("cell latency histogram");
    assert_eq!(cells.count(), 4);

    // A warm profiled re-run times nothing (all cache hits), and an
    // unprofiled run records no spans and no histogram at all.
    let warm = dirs.runner().profile(true).run(&spec).unwrap();
    assert_eq!(warm.obs.profiler.spans().len(), 0);
    let plain = dirs.runner().force(true).run(&spec).unwrap();
    assert!(!plain.obs.profiler.is_enabled());
    assert_eq!(plain.obs.profiler.spans().len(), 0);
    assert!(plain.obs.metrics.histogram("campaign.cell_ns").is_none());
}

#[test]
fn force_resimulates_despite_cache() {
    let dirs = TempDirs::new("force");
    let spec = small_spec("force");
    dirs.runner().run(&spec).unwrap();
    let forced = dirs.runner().force(true).run(&spec).unwrap();
    assert_eq!(forced.obs.metrics.counter("campaign.cache_hits"), 0);
    assert_eq!(forced.obs.metrics.counter("campaign.cell_starts"), 4);
}
