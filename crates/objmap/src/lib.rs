//! Address → program-object resolution for measurement tools.
//!
//! To relate a cache-miss address back to a source-level data structure,
//! the paper's instrumentation keeps "information about object extents ...
//! in a sorted array for variables and a red-black tree for heap blocks
//! (since this data will change as allocations and deallocations take
//! place)" (section 2.2). This crate implements both structures:
//!
//! * [`SymTab`] — a binary-searched sorted array over the global/static
//!   variables known from symbol tables and debug information,
//! * [`RbTree`] — a hand-written arena-based red-black tree keyed by block
//!   base address, maintained from instrumented allocator events,
//! * [`ObjectMap`] — the combined map with boundary queries used by the
//!   n-way search to snap region split points to object extents.
//!
//! Because the measurement code runs *inside* the simulation, the map also
//! models its own memory footprint: every entry and tree node has a
//! simulated address in the instrumentation segment, and each query reports
//! the simulated addresses it touched (an [`AccessTrace`]) so the caller
//! can replay them through the simulated cache and charge their cost. This
//! is what makes the perturbation results of section 3.2 reproducible: the
//! paper observes that "the size of the program object map used by the
//! instrumentation" influences how much sampling perturbs the cache.

pub mod map;
pub mod object;
pub mod rbtree;
pub mod symtab;
pub mod trace;

pub use map::ObjectMap;
pub use object::{MemoryObject, ObjectId};
pub use rbtree::{ArenaFull, RbTree};
pub use symtab::SymTab;
pub use trace::AccessTrace;

// The shared epoch-versioned extent index (defined in `cachescope-sim`
// so the engine's ground truth can use it too) is re-exported here as
// the canonical resolve structure behind [`SymTab`] and [`ObjectMap`].
pub use cachescope_sim::{EpochIndex, ExtentError, ExtentMemo};

/// A simulated (virtual) memory address.
pub type Addr = u64;
