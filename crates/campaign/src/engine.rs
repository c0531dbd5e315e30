//! The campaign engine: cache lookup, scheduling, retry, checkpointing.
//!
//! [`CampaignRunner::run`] takes an expanded spec through three stages:
//!
//! 1. **Admission and cache pass** (serial, cheap): a cell the run rule
//!    ([`cachescope_core::run_refusals`]) refuses is settled as failed
//!    with no attempt; every other cell's content hash is looked up in
//!    the [`ResultCache`], and hits are settled immediately without
//!    simulating. A re-run of an unchanged spec does no simulation at all
//!    — `campaign.cell_starts` stays at zero.
//! 2. **Simulation pass**: the remaining cells run on a bounded
//!    work-stealing pool. Each attempt executes under `catch_unwind`; a
//!    panicking cell is retried up to the retry budget and then recorded
//!    as failed, while the rest of the campaign proceeds.
//! 3. **Settlement**: each finished cell is stored in the cache and the
//!    campaign [`Manifest`] is checkpointed, so a killed campaign resumes
//!    by simulating only the cells whose results never landed.
//!
//! Progress flows through [`cachescope_obs`] events and derived metrics
//! (`campaign.cells`, `campaign.cache_hits`, `campaign.cell_starts`,
//! `campaign.cells_completed`, `campaign.retries`, `campaign.panics`,
//! `campaign.refused`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use cachescope_core::refuse_run;
use cachescope_obs::{Json, Obs, ObsEvent};

use crate::cache::{CacheLookup, ResultCache, DEFAULT_CACHE_DIR};
use crate::cell::Cell;
use crate::manifest::{CellStatus, Manifest, DEFAULT_MANIFEST_DIR};
use crate::pool::{panic_message, run_isolated, worker_cap};
use crate::spec::CampaignSpec;

/// One settled cell with its report.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    pub cell: Cell,
    pub hash: String,
    /// True when the report came from the cache (nothing simulated).
    pub cache_hit: bool,
    /// Simulation attempts consumed (0 for cache hits).
    pub attempts: u32,
    /// The rendered report ([`cachescope_core::export::report_to_json`]
    /// form), identical whether cached or freshly simulated.
    pub report: Json,
}

/// One cell that the run rule refused or that exhausted its retry
/// budget.
#[derive(Debug, Clone)]
pub struct CellFailure {
    pub cell: Cell,
    pub hash: String,
    /// Simulation attempts consumed (0 for a refused cell).
    pub attempts: u32,
    pub error: String,
}

/// The result of a campaign run.
#[derive(Debug)]
pub struct CampaignRun {
    pub name: String,
    /// Settled cells in matrix order.
    pub outcomes: Vec<CellOutcome>,
    /// Refused cells, then cells that failed every attempt, each in
    /// matrix order (empty on a clean run).
    pub failures: Vec<CellFailure>,
    /// The campaign's observability sink: full event stream plus derived
    /// scheduler metrics.
    pub obs: Obs,
}

impl CampaignRun {
    /// Did every cell settle with a report?
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// How many outcomes were cache hits.
    pub fn cache_hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.cache_hit).count()
    }

    /// The first outcome for a workload/technique-label pair. (With
    /// multiple seeds a jittered column has several; use
    /// [`CampaignRun::outcomes_for`] to see them all.)
    pub fn outcome(&self, workload: &str, label: &str) -> Option<&CellOutcome> {
        self.outcomes
            .iter()
            .find(|o| o.cell.workload == workload && o.cell.label == label)
    }

    /// All outcomes for a workload/technique-label pair, in seed order.
    pub fn outcomes_for<'a>(
        &'a self,
        workload: &'a str,
        label: &'a str,
    ) -> impl Iterator<Item = &'a CellOutcome> {
        self.outcomes
            .iter()
            .filter(move |o| o.cell.workload == workload && o.cell.label == label)
    }
}

/// Lock a mutex, recovering from poisoning. Worker panics are already
/// contained by the per-cell `catch_unwind`; a poisoned observability or
/// manifest mutex still holds consistent data (every emit/settle is a
/// single call), so the campaign keeps going instead of double-panicking.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Configures and executes campaigns.
#[derive(Debug, Clone)]
pub struct CampaignRunner {
    cache_dir: PathBuf,
    manifest_dir: PathBuf,
    jobs: Option<usize>,
    retries: u32,
    force: bool,
    profile: bool,
}

impl Default for CampaignRunner {
    fn default() -> Self {
        CampaignRunner {
            cache_dir: PathBuf::from(DEFAULT_CACHE_DIR),
            manifest_dir: PathBuf::from(DEFAULT_MANIFEST_DIR),
            jobs: None,
            retries: 1,
            force: false,
            profile: false,
        }
    }
}

impl CampaignRunner {
    pub fn new() -> Self {
        CampaignRunner::default()
    }

    /// Override the result-cache directory.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = dir.into();
        self
    }

    /// Override the manifest (checkpoint) directory.
    pub fn manifest_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.manifest_dir = dir.into();
        self
    }

    /// Explicit worker cap; `None` falls back to `CACHESCOPE_JOBS`, then
    /// available parallelism (see [`crate::pool::worker_cap`]).
    pub fn jobs(mut self, jobs: Option<usize>) -> Self {
        self.jobs = jobs;
        self
    }

    /// Retry budget per cell after the first attempt (default 1).
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Ignore the cache and re-simulate every cell (results still land in
    /// the cache afterwards).
    pub fn force(mut self, force: bool) -> Self {
        self.force = force;
        self
    }

    /// Campaign-level self-profiling: time every simulated cell and fold
    /// the durations into the run's [`Obs`] profiler (merged
    /// `campaign.cell` leaves under `campaign.run`) and a
    /// `campaign.cell_ns` histogram. Cache hits are not timed — they do
    /// no simulation. Off by default; the disabled path takes no clock
    /// readings.
    pub fn profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Execute `spec`: expand, satisfy from cache, simulate the rest.
    ///
    /// `Err` is reserved for spec-level problems (empty matrix, unknown
    /// workload); individual cell failures land in
    /// [`CampaignRun::failures`] without aborting the campaign.
    pub fn run(&self, spec: &CampaignSpec) -> Result<CampaignRun, String> {
        let cells = spec.expand()?;
        let cache = ResultCache::new(&self.cache_dir);
        let hashes: Vec<String> = cells.iter().map(Cell::hash).collect();

        let obs = Mutex::new(Obs::new());
        let manifest = Mutex::new(Manifest::new(&spec.name, &cells));
        lock(&obs).emit(ObsEvent::CampaignStart {
            name: spec.name.clone(),
            cells: cells.len() as u64,
        });
        self.checkpoint(&manifest);

        // Stage 1: settle refused cells, then what the cache holds.
        let mut settled: Vec<Option<CellOutcome>> = (0..cells.len()).map(|_| None).collect();
        let mut failures = Vec::new();
        let mut to_run: Vec<usize> = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            // A refused cell fails with its codes and no attempt, and is
            // never served, not even from an entry an older build stored.
            if let Err(error) = refuse_run(&cell.technique, cell.counters, &cell.faults) {
                lock(&obs).emit(ObsEvent::CellRefused {
                    index: cell.index as u64,
                    hash: hashes[i].clone(),
                    error: error.clone(),
                });
                lock(&manifest).settle(cell.index, CellStatus::Failed, 0);
                failures.push(CellFailure {
                    cell: cell.clone(),
                    hash: hashes[i].clone(),
                    attempts: 0,
                    error,
                });
                continue;
            }
            let cached = if self.force {
                CacheLookup::Miss
            } else {
                cache.load_classified(cell)
            };
            if cached == CacheLookup::Corrupt {
                // Treated as a miss (re-simulate, store overwrites the
                // bad file), but surfaced so campaigns never silently
                // absorb a corrupted cache.
                lock(&obs).emit(ObsEvent::CellCacheCorrupt {
                    index: cell.index as u64,
                    hash: hashes[i].clone(),
                });
            }
            match cached {
                CacheLookup::Hit(report) => {
                    lock(&obs).emit(ObsEvent::CellCacheHit {
                        index: cell.index as u64,
                        hash: hashes[i].clone(),
                    });
                    lock(&manifest).settle(cell.index, CellStatus::CacheHit, 0);
                    settled[i] = Some(CellOutcome {
                        cell: cell.clone(),
                        hash: hashes[i].clone(),
                        cache_hit: true,
                        attempts: 0,
                        report,
                    });
                }
                CacheLookup::Miss | CacheLookup::Corrupt => to_run.push(i),
            }
        }
        self.checkpoint(&manifest);

        // Stage 2: simulate the cache misses on the worker pool.
        let max_attempts = self.retries + 1;
        let profile = self.profile;
        let jobs: Vec<_> = to_run
            .iter()
            .map(|&i| {
                let cell = &cells[i];
                let hash = &hashes[i];
                let obs = &obs;
                let manifest = &manifest;
                let cache = &cache;
                move || -> Result<(Json, u32, u64), (String, u32)> {
                    let mut last_error = String::new();
                    for attempt in 1..=max_attempts {
                        lock(obs).emit(ObsEvent::CellStart {
                            index: cell.index as u64,
                            hash: hash.clone(),
                            workload: cell.workload.clone(),
                            label: cell.label.clone(),
                        });
                        // The campaign crate is the one place cell wall
                        // time may be read; simulation itself stays
                        // clock-free. Skipped entirely when not
                        // profiling so the default path never touches
                        // the clock.
                        let started = profile.then(Instant::now);
                        let outcome = catch_unwind(AssertUnwindSafe(|| cell.run()));
                        let elapsed_ns = started
                            .map(|t| t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64)
                            .unwrap_or(0);
                        match outcome {
                            Ok(Ok(report)) => {
                                if let Err(e) = cache.store(cell, &report) {
                                    // check:allow(cache-store failure must not fail the cell)
                                    eprintln!("warning: caching {}: {e}", cell.describe());
                                }
                                let mut o = lock(obs);
                                o.emit(ObsEvent::CellFinish {
                                    index: cell.index as u64,
                                    hash: hash.clone(),
                                });
                                drop(o);
                                let mut m = lock(manifest);
                                m.settle(cell.index, CellStatus::Done, attempt);
                                drop(m);
                                self.checkpoint(manifest);
                                return Ok((report, attempt, elapsed_ns));
                            }
                            Ok(Err(e)) => last_error = e,
                            Err(payload) => last_error = panic_message(payload),
                        }
                        if attempt < max_attempts {
                            lock(obs).emit(ObsEvent::CellRetry {
                                index: cell.index as u64,
                                hash: hash.clone(),
                                attempt: u64::from(attempt),
                                error: last_error.clone(),
                            });
                        }
                    }
                    lock(obs).emit(ObsEvent::CellPanic {
                        index: cell.index as u64,
                        hash: hash.clone(),
                        error: last_error.clone(),
                    });
                    lock(manifest).settle(cell.index, CellStatus::Failed, max_attempts);
                    self.checkpoint(manifest);
                    Err((last_error, max_attempts))
                }
            })
            .collect();
        let results = run_isolated(jobs, worker_cap(self.jobs));

        // Stage 3: fold pool results back into matrix order.
        let mut cell_ns: Vec<u64> = Vec::new();
        for (&i, result) in to_run.iter().zip(results) {
            let cell = cells[i].clone();
            match result {
                Ok(Ok((report, attempts, elapsed_ns))) => {
                    if self.profile {
                        cell_ns.push(elapsed_ns);
                    }
                    settled[i] = Some(CellOutcome {
                        cell,
                        hash: hashes[i].clone(),
                        cache_hit: false,
                        attempts,
                        report,
                    });
                }
                Ok(Err((error, attempts))) => failures.push(CellFailure {
                    cell,
                    hash: hashes[i].clone(),
                    attempts,
                    error,
                }),
                // The job closure itself panicked outside its own
                // catch_unwind (should be unreachable; the pool's guard).
                Err(error) => failures.push(CellFailure {
                    cell,
                    hash: hashes[i].clone(),
                    attempts: max_attempts,
                    error,
                }),
            }
        }

        let outcomes: Vec<CellOutcome> = settled.into_iter().flatten().collect();
        let mut obs = obs.into_inner().unwrap_or_else(|e| e.into_inner());
        if self.profile && !cell_ns.is_empty() {
            // Roll the per-cell wall times up into the campaign's own
            // profiler: one merged `campaign.cell` leaf (count = cells
            // simulated, total = summed wall time) under `campaign.run`,
            // plus a latency histogram for the spread. The arena is
            // reused across cells — N cells still produce exactly two
            // span records.
            obs.profiler.set_enabled(true);
            let run_span = obs.profiler.enter("campaign.run");
            for &ns in &cell_ns {
                obs.profiler.record_leaf("campaign.cell", ns);
                obs.metrics.observe("campaign.cell_ns", ns);
            }
            obs.profiler.exit(run_span);
        }
        obs.emit(ObsEvent::CampaignEnd {
            name: spec.name.clone(),
            completed: outcomes.len() as u64,
            cache_hits: outcomes.iter().filter(|o| o.cache_hit).count() as u64,
            failed: failures.len() as u64,
        });
        Ok(CampaignRun {
            name: spec.name.clone(),
            outcomes,
            failures,
            obs,
        })
    }

    /// Persist the manifest checkpoint; campaign progress must not abort
    /// on a full disk, so failures are warnings.
    fn checkpoint(&self, manifest: &Mutex<Manifest>) {
        let m = lock(manifest);
        if let Err(e) = m.save(&self.manifest_dir) {
            // check:allow(checkpointing is best-effort; a full disk must not abort)
            eprintln!("warning: saving campaign manifest: {e}");
        }
    }
}
