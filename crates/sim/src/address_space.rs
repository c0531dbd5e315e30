//! Simulated address-space layout.
//!
//! The simulator places program objects in fixed segments, mirroring the
//! layout of a statically linked Unix binary of the paper's era: a data
//! segment for globals/statics, a heap for dynamically allocated blocks
//! (the paper's ijpeg blocks live at Alpha-style addresses like
//! `0x141020000`), and a dedicated segment where *instrumentation* data
//! (the object map, counters, priority queue) lives, so that measurement
//! code perturbs the cache through the same mechanism as in the paper.

use crate::Addr;

/// Base of the global/static data segment.
pub const STATIC_BASE: Addr = 0x1000_0000;
/// Base of the simulated heap (Alpha-like, matches the paper's ijpeg block
/// addresses such as `0x141020000`).
pub const HEAP_BASE: Addr = 0x1_4100_0000;
/// Base of the segment where instrumentation data structures live.
pub const INSTR_BASE: Addr = 0x7_0000_0000;
/// Exclusive upper bound of the instrumentation segment.
pub const INSTR_LIMIT: Addr = 0x7_1000_0000;

/// A named address-space segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// Global and static program variables.
    Static,
    /// Dynamically allocated program memory.
    Heap,
    /// Instrumentation-owned memory (object map, counts, search state).
    Instrumentation,
}

impl Segment {
    /// Base address of the segment.
    pub fn base(self) -> Addr {
        match self {
            Segment::Static => STATIC_BASE,
            Segment::Heap => HEAP_BASE,
            Segment::Instrumentation => INSTR_BASE,
        }
    }

    /// Which segment does `addr` fall in, if any?
    pub fn of(addr: Addr) -> Option<Segment> {
        if (STATIC_BASE..HEAP_BASE).contains(&addr) {
            Some(Segment::Static)
        } else if (HEAP_BASE..INSTR_BASE).contains(&addr) {
            Some(Segment::Heap)
        } else if (INSTR_BASE..INSTR_LIMIT).contains(&addr) {
            Some(Segment::Instrumentation)
        } else {
            None
        }
    }
}

/// Bump allocator for laying out objects within the simulated segments.
///
/// Used by workloads to place their declared arrays and by the engine to
/// service heap allocations at deterministic addresses. Allocations are
/// aligned and padded so distinct objects never share a cache line, which
/// matches the paper's assumption that misses can be attributed to a single
/// object.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    static_next: Addr,
    heap_next: Addr,
    instr_next: Addr,
    align: u64,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new(64)
    }
}

impl AddressSpace {
    /// Create a layout allocator aligning every object to `align` bytes
    /// (normally the cache line size; must be a power of two).
    pub fn new(align: u64) -> Self {
        // check:allow(every caller passes the constant cache-line size)
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        AddressSpace {
            static_next: STATIC_BASE,
            heap_next: HEAP_BASE,
            instr_next: INSTR_BASE,
            align,
        }
    }

    fn bump(cursor: &mut Addr, size: u64, align: u64, limit: Addr, what: &str) -> Addr {
        let base = (*cursor + align - 1) & !(align - 1);
        let end = base
            .checked_add(size.max(1))
            // check:allow(address-space exhaustion is a workload authoring bug)
            .unwrap_or_else(|| panic!("{what} allocation overflows address space"));
        // check:allow(segment exhaustion is a workload authoring bug)
        assert!(
            end <= limit,
            "{what} segment exhausted ({size} bytes requested)"
        );
        // Pad to alignment so the next object starts on a fresh line.
        *cursor = (end + align - 1) & !(align - 1);
        base
    }

    /// Place a global/static object of `size` bytes; returns its base.
    pub fn alloc_static(&mut self, size: u64) -> Addr {
        Self::bump(&mut self.static_next, size, self.align, HEAP_BASE, "static")
    }

    /// Place a heap block of `size` bytes; returns its base.
    pub fn alloc_heap(&mut self, size: u64) -> Addr {
        Self::bump(&mut self.heap_next, size, self.align, INSTR_BASE, "heap")
    }

    /// Place an instrumentation-owned block of `size` bytes.
    pub fn alloc_instr(&mut self, size: u64) -> Addr {
        Self::bump(
            &mut self.instr_next,
            size,
            self.align,
            INSTR_LIMIT,
            "instrumentation",
        )
    }

    /// Place a heap block at an explicit address (used by workloads that
    /// reproduce the paper's literal block addresses). Advances the heap
    /// cursor past the block if necessary.
    pub fn alloc_heap_at(&mut self, base: Addr, size: u64) -> Addr {
        // check:allow(workload constants, or fuzz targets Scenario::validate kept in the heap)
        assert!(
            (HEAP_BASE..INSTR_BASE).contains(&base),
            "explicit heap address {base:#x} outside heap segment"
        );
        let end = base + size.max(1);
        if end > self.heap_next {
            self.heap_next = (end + self.align - 1) & !(self.align - 1);
        }
        base
    }

    /// Current end of the static segment in use.
    pub fn static_end(&self) -> Addr {
        self.static_next
    }

    /// Current end of the heap segment in use.
    pub fn heap_end(&self) -> Addr {
        self.heap_next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_are_disjoint_and_ordered() {
        const { assert!(STATIC_BASE < HEAP_BASE) };
        const { assert!(HEAP_BASE < INSTR_BASE) };
        const { assert!(INSTR_BASE < INSTR_LIMIT) };
    }

    #[test]
    fn segment_classification() {
        assert_eq!(Segment::of(STATIC_BASE), Some(Segment::Static));
        assert_eq!(Segment::of(HEAP_BASE), Some(Segment::Heap));
        assert_eq!(Segment::of(0x1_4102_0000), Some(Segment::Heap));
        assert_eq!(Segment::of(INSTR_BASE), Some(Segment::Instrumentation));
        assert_eq!(Segment::of(INSTR_LIMIT), None);
        assert_eq!(Segment::of(0), None);
    }

    #[test]
    fn allocations_are_aligned_and_non_overlapping() {
        let mut a = AddressSpace::new(64);
        let x = a.alloc_static(100);
        let y = a.alloc_static(1);
        assert_eq!(x % 64, 0);
        assert_eq!(y % 64, 0);
        assert!(y >= x + 100);
        // Padding ensures no shared line.
        assert!(y - x >= 128);
    }

    #[test]
    fn zero_size_allocations_still_get_distinct_addresses() {
        let mut a = AddressSpace::new(64);
        let x = a.alloc_heap(0);
        let y = a.alloc_heap(0);
        assert_ne!(x, y);
    }

    #[test]
    fn explicit_heap_placement_advances_cursor() {
        let mut a = AddressSpace::new(64);
        let fixed = a.alloc_heap_at(0x1_4102_0000, 4096);
        assert_eq!(fixed, 0x1_4102_0000);
        let next = a.alloc_heap(64);
        assert!(next >= fixed + 4096);
    }

    #[test]
    #[should_panic(expected = "outside heap segment")]
    fn explicit_heap_placement_validates_segment() {
        AddressSpace::new(64).alloc_heap_at(STATIC_BASE, 16);
    }

    #[test]
    fn instr_allocations_live_in_instr_segment() {
        let mut a = AddressSpace::new(64);
        let p = a.alloc_instr(4096);
        assert_eq!(Segment::of(p), Some(Segment::Instrumentation));
    }
}
