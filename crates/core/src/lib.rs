//! The paper's two measurement techniques and the experiment runner.
//!
//! *"Using Hardware Performance Monitors to Isolate Memory Bottlenecks"*
//! (Buck & Hollingsworth, SC 2000) proposes two ways to attribute cache
//! misses to program data structures using hardware support:
//!
//! * [`Sampler`] (section 2.1) — program the miss counter to overflow
//!   every *k* misses; on each interrupt read the last-miss-address
//!   register, resolve it through the object map, and bump that object's
//!   count. Simple, ranks *all* objects, but the interval must not
//!   resonate with the application's access pattern (section 3.1).
//!
//! * [`Searcher`] (section 2.2) — with *n* base/bounds-qualified miss
//!   counters, run an n-way search over the address space: measure *n*
//!   regions per timer interval, rank them in a priority queue by share of
//!   total misses, split the best regions at object-extent boundaries and
//!   repeat until the top *n−1* regions each hold a single object. A
//!   priority queue permits backtracking (Figure 2); a zero-miss retention
//!   heuristic plus interval stretching survives program phases
//!   (Figure 5); found objects are re-measured after the search concludes.
//!
//! Both techniques run *inside* the simulation (`cachescope-sim`): their
//! cycles are charged to the virtual clock and their memory traffic flows
//! through the simulated cache, so overhead (Figure 4) and perturbation
//! (Figure 3) are measured, not estimated.
//!
//! [`Experiment`] wires a workload, a technique and the simulator together
//! and produces a side-by-side actual-vs-estimated report.

pub mod export;
pub mod results;
pub mod runner;
pub mod sampler;
pub mod search;
pub mod technique;

pub use cachescope_hwpm::{FaultConfig, FaultTally, PmuConfig};
pub use results::{rank_delta, Estimate, ExperimentReport, ReportRow, TechniqueReport};
pub use runner::{refuse_run, run_refusals, Experiment, RunRefusal};
pub use sampler::{Sampler, SamplerConfig, SamplingPeriod};
pub use search::{SearchConfig, SearchStrategy, Searcher};
pub use technique::TechniqueConfig;
