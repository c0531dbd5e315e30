//! Sorted-array symbol table for global and static variables.
//!
//! "For global and static variables, this can be done easily using data
//! from symbol tables and debug information" (section 2.1). The extents are
//! known before execution begins and never change, so the paper keeps them
//! in a sorted array searched by binary search; we do the same, storing the
//! extents in a frozen [`EpochIndex`] (the same flat `(base, end, id)`
//! snapshot ground truth resolves through) and modelling the array's
//! simulated memory footprint so lookups perturb the cache.

use cachescope_sim::EpochIndex;

use crate::object::ObjectId;
use crate::trace::AccessTrace;
use crate::Addr;

/// Simulated bytes per symbol-table entry (base, end, id and padding).
pub const ENTRY_BYTES: u64 = 32;

/// An immutable, binary-searched table of global/static variable extents.
#[derive(Debug, Clone)]
pub struct SymTab {
    /// Never mutated after construction, so its eager snapshot stays
    /// exact and every probe reads the flat sorted array.
    index: EpochIndex,
    /// Base simulated address of the entry array.
    sim_base: Addr,
}

impl SymTab {
    /// Build a table from `(base, end, id)` triples in any order. Each
    /// passes the shared extent rule in turn, as ground truth registers
    /// statics: an empty or wrapping extent, or one overlapping an
    /// earlier extent, is left out. The array itself is modelled at
    /// simulated address `sim_base`.
    pub fn new(extents: Vec<(Addr, Addr, ObjectId)>, sim_base: Addr) -> Self {
        let index =
            EpochIndex::from_extents(extents.into_iter().map(|(base, end, id)| (base, end, id.0)));
        SymTab { index, sim_base }
    }

    /// The sorted entry array. The index is frozen after construction,
    /// so the snapshot is always exact.
    #[inline]
    fn entries(&self) -> &[(Addr, Addr, u32)] {
        self.index.frozen_sorted()
    }

    /// Number of variables in the table.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Simulated size of the entry array.
    pub fn footprint_bytes(&self) -> u64 {
        self.index.len() as u64 * ENTRY_BYTES
    }

    #[inline]
    fn sim_addr(&self, idx: usize) -> Addr {
        self.sim_base + idx as u64 * ENTRY_BYTES
    }

    /// Binary-search for the variable containing `addr`, recording each
    /// probed entry's simulated address.
    pub fn lookup(&self, addr: Addr, trace: &mut AccessTrace) -> Option<(Addr, Addr, ObjectId)> {
        let entries = self.entries();
        let mut lo = 0usize;
        let mut hi = entries.len();
        let mut best: Option<usize> = None;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            trace.read(self.sim_addr(mid));
            if entries[mid].0 <= addr {
                best = Some(mid);
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let &(base, end, id) = &entries[best?];
        (addr < end).then_some((base, end, ObjectId(id)))
    }

    /// Visit every variable with base in `[lo, hi)` in ascending order.
    pub fn for_each_in<F: FnMut(Addr, Addr, ObjectId)>(
        &self,
        lo: Addr,
        hi: Addr,
        trace: &mut AccessTrace,
        mut f: F,
    ) {
        let entries = self.entries();
        let start = entries.partition_point(|&(base, _, _)| base < lo);
        for (i, &(base, end, id)) in entries[start..].iter().enumerate() {
            if base >= hi {
                break;
            }
            trace.read(self.sim_addr(start + i));
            f(base, end, ObjectId(id));
        }
    }

    /// The lowest base and highest end across all variables.
    pub fn extent(&self) -> Option<(Addr, Addr)> {
        self.index.extent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tab(extents: &[(u64, u64, u32)]) -> SymTab {
        SymTab::new(
            extents
                .iter()
                .map(|&(b, e, id)| (b, e, ObjectId(id)))
                .collect(),
            0x7_0000_0000,
        )
    }

    fn t() -> AccessTrace {
        AccessTrace::new()
    }

    #[test]
    fn empty_table() {
        let s = tab(&[]);
        assert!(s.is_empty());
        assert_eq!(s.lookup(0, &mut t()), None);
        assert_eq!(s.extent(), None);
    }

    #[test]
    fn lookup_finds_containing_variable() {
        let s = tab(&[(100, 200, 0), (300, 400, 1), (500, 600, 2)]);
        assert_eq!(s.lookup(150, &mut t()).unwrap().2, ObjectId(0));
        assert_eq!(s.lookup(300, &mut t()).unwrap().2, ObjectId(1));
        assert_eq!(s.lookup(599, &mut t()).unwrap().2, ObjectId(2));
        assert_eq!(s.lookup(250, &mut t()), None, "gap");
        assert_eq!(s.lookup(600, &mut t()), None, "past last end");
        assert_eq!(s.lookup(99, &mut t()), None, "before first");
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let s = tab(&[(500, 600, 2), (100, 200, 0), (300, 400, 1)]);
        assert_eq!(s.lookup(150, &mut t()).unwrap().2, ObjectId(0));
        assert_eq!(s.extent(), Some((100, 600)));
    }

    #[test]
    fn overlap_rejected() {
        // The first extent wins; the overlapping and the empty one are
        // left out, as ground truth leaves them out.
        let s = tab(&[(100, 200, 0), (150, 250, 1), (300, 300, 2)]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.lookup(199, &mut t()), Some((100, 200, ObjectId(0))));
        assert_eq!(s.lookup(220, &mut t()), None);
    }

    #[test]
    fn lookup_trace_is_logarithmic() {
        let extents: Vec<(u64, u64, ObjectId)> = (0..1024u64)
            .map(|i| (i * 100, i * 100 + 50, ObjectId(i as u32)))
            .collect();
        let s = SymTab::new(extents, 0x7_0000_0000);
        let mut trace = t();
        s.lookup(51_200, &mut trace);
        assert!(trace.reads.len() <= 11, "got {} probes", trace.reads.len());
        for &a in &trace.reads {
            assert!(a >= 0x7_0000_0000);
            assert!(a < 0x7_0000_0000 + 1024 * ENTRY_BYTES);
        }
    }

    #[test]
    fn for_each_in_respects_half_open_range() {
        let s = tab(&[(100, 200, 0), (300, 400, 1), (500, 600, 2)]);
        let mut seen = Vec::new();
        s.for_each_in(100, 500, &mut t(), |b, _, _| seen.push(b));
        assert_eq!(seen, vec![100, 300]);
        seen.clear();
        s.for_each_in(101, 501, &mut t(), |b, _, _| seen.push(b));
        assert_eq!(seen, vec![300, 500]);
    }
}
