//! Memory-reference cache simulator with virtual cycle accounting.
//!
//! This crate is the substrate that replaces the paper's ATOM-instrumented
//! binaries: a discrete-event simulator that runs a [`Program`] (a stream of
//! memory accesses, compute blocks and allocation events), applies every
//! access to a single-level set-associative [`cache::SetAssocCache`]
//! (2 MB in the paper's experiments), maintains a virtual cycle count, feeds
//! every miss into the simulated PMU from `cachescope-hwpm`, and delivers
//! PMU interrupts to an instrumentation [`Handler`] that runs *inside* the
//! simulation — its work is charged in virtual cycles and its own memory
//! accesses go through the same cache, so perturbation and overhead can be
//! measured exactly as in sections 3.2 and 3.3 of the paper.
//!
//! # Architecture
//!
//! ```text
//!   Program (workload)           Handler (sampling / n-way search)
//!        |  events                      ^  interrupts, ctx
//!        v                              |
//!   +---------------------- Engine ----------------------+
//!   |  SetAssocCache   Pmu (hwpm)   Clock   GroundTruth  |
//!   +----------------------------------------------------+
//!                          |
//!                          v
//!                       RunStats (per-object truth, timeline, costs)
//! ```
//!
//! The engine also keeps a *ground-truth* per-object miss count (resolved
//! outside the simulated world, like the "lower levels of the simulator"
//! that produced the paper's "Actual" columns) and an optional per-interval
//! timeline used to regenerate Figure 5.

pub mod address_space;
pub mod cache;
pub mod config;
pub mod engine;
pub mod epoch;
pub mod memref;
pub mod program;
pub mod rng;
pub mod stats;
pub mod tracefile;

pub use address_space::{AddressSpace, Segment};
pub use cache::{AccessOutcome, SetAssocCache};
pub use config::{CacheConfig, ReplacementPolicy, SimConfig};
pub use engine::{Engine, EngineCtx, Handler, NullHandler, RunLimit};
pub use epoch::{admit, extent_of, EpochIndex, ExtentError, ExtentMemo};
pub use memref::{AccessKind, MemRef};
pub use program::{
    Event, EventChunk, ObjectDecl, ObjectKind, Program, TraceProgram, CHUNK_CAPACITY,
};
pub use stats::{Counts, ObjectStats, RunStats, Timeline, TimelineConfig};
pub use tracefile::{
    AnyTraceReader, BinStreamDecoder, BinTraceReader, RecordingProgram, TraceError, TraceErrorKind,
    TraceFormat, TraceReader,
};

/// A simulated (virtual) memory address.
pub type Addr = u64;

/// A virtual cycle count.
pub type Cycle = u64;
