//! The combined object map: globals (sorted array) + heap (red-black tree).
//!
//! This is the structure a measurement technique consults on every sample
//! or region-split decision. It is built from the program's symbol table
//! before execution and maintained from instrumented allocator events, and
//! it supports the two queries the paper's techniques need:
//!
//! * **address → object** (sampling: attribute a miss address),
//! * **object-extent boundaries within a region** (n-way search: "adjust
//!   the extents of the regions each time they are split so that objects
//!   do not span region boundaries", section 2.2).

use cachescope_sim::{extent_of, AddressSpace, ExtentMemo, ObjectDecl, ObjectKind};

use crate::object::{MemoryObject, ObjectId};
use crate::rbtree::RbTree;
use crate::symtab::SymTab;
use crate::trace::AccessTrace;
use crate::Addr;

/// Address-to-object map with explicit simulated-memory footprint.
#[derive(Debug, Clone)]
pub struct ObjectMap {
    symtab: SymTab,
    heap: RbTree,
    objects: Vec<MemoryObject>,
    /// Coalesce same-named contiguous heap blocks into one logical
    /// object (see [`ObjectMap::with_site_coalescing`]).
    coalesce_sites: bool,
    /// Live block count per object id (used to retire coalesced sites).
    live_blocks: Vec<u32>,
    /// Committed heap-tree inserts and removes: the epoch that tags
    /// `memo` entries.
    mutations: u64,
    /// Recent successful lookups and the walks they made (see
    /// [`ObjectMap::lookup`]), tagged with `mutations`.
    memo: ExtentMemo<(ObjectId, AccessTrace)>,
    /// See [`ObjectMap::dropped_blocks`].
    dropped_blocks: u64,
}

impl ObjectMap {
    /// Build a map from the program's static declarations. The symbol-table
    /// array and the heap tree's node arena are placed in the
    /// instrumentation segment of `aspace`, so their cache footprint is
    /// part of the simulation.
    pub fn new(decls: &[ObjectDecl], aspace: &mut AddressSpace) -> Self {
        Self::build(decls, aspace, false)
    }

    /// Like [`ObjectMap::new`], but same-named heap blocks that are
    /// contiguous with (or inside) an existing site's extent merge into
    /// **one logical object** spanning the whole site. This is the
    /// paper's section 5 plan for the search technique: "we would need to
    /// move related blocks of memory into contiguous regions in order to
    /// allow them to be considered as a unit" — which a measurement-aware
    /// allocator guarantees, and this map then exploits.
    pub fn with_site_coalescing(decls: &[ObjectDecl], aspace: &mut AddressSpace) -> Self {
        Self::build(decls, aspace, true)
    }

    fn build(decls: &[ObjectDecl], aspace: &mut AddressSpace, coalesce_sites: bool) -> Self {
        let mut objects = Vec::with_capacity(decls.len());
        let mut extents = Vec::with_capacity(decls.len());
        for decl in decls {
            // check:allow(ObjectId is u32 by design; a map holds far fewer than 2^32 objects)
            let id = ObjectId(objects.len() as u32);
            objects.push(MemoryObject {
                id,
                name: decl.name.clone(),
                base: decl.base,
                size: decl.size,
                kind: decl.kind,
                live: true,
            });
            let (base, end) = extent_of(decl.base, decl.size);
            extents.push((base, end, id));
        }
        let symtab_base =
            aspace.alloc_instr(extents.len().max(1) as u64 * crate::symtab::ENTRY_BYTES);
        // Reserve the heap tree's base arena segment (64Ki blocks); past
        // that the tree spills into fixed segments laid out top-down from
        // the end of the instrumentation segment (see `rbtree`).
        let heap_base = aspace.alloc_instr(64 * 1024 * crate::rbtree::NODE_BYTES);
        let live_blocks = vec![1; objects.len()];
        ObjectMap {
            symtab: SymTab::new(extents, symtab_base),
            heap: RbTree::new(heap_base),
            objects,
            coalesce_sites,
            live_blocks,
            mutations: 0,
            memo: ExtentMemo::default(),
            dropped_blocks: 0,
        }
    }

    /// Number of objects ever registered (live or freed).
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// All registered objects.
    pub fn objects(&self) -> &[MemoryObject] {
        &self.objects
    }

    /// The object with id `id`.
    pub fn object(&self, id: ObjectId) -> &MemoryObject {
        &self.objects[id.index()]
    }

    /// Register a heap allocation (instrumented `malloc`).
    ///
    /// With site coalescing enabled, a named block that touches (or lies
    /// inside) the extent of an existing live site of the same name joins
    /// that site's logical object instead of creating a new one. A block
    /// the tree refuses (by the shared extent rule, or at its arena cap)
    /// is dropped: it costs no tree traffic, and a new object made for it
    /// is retired at once.
    pub fn on_alloc(
        &mut self,
        base: Addr,
        size: u64,
        name: Option<&str>,
        trace: &mut AccessTrace,
    ) -> ObjectId {
        let (base, end) = extent_of(base, size);
        let site = match name {
            Some(n) if self.coalesce_sites => self.objects.iter().position(|o| {
                o.live
                    && o.kind == ObjectKind::Heap
                    && o.name == n
                    && base <= o.end()
                    && end >= o.base
            }),
            _ => None,
        };
        let i = site.unwrap_or_else(|| {
            self.objects.push(MemoryObject {
                // check:allow(ObjectId is u32 by design; a map holds far fewer than 2^32 objects)
                id: ObjectId(self.objects.len() as u32),
                name: name
                    .map(String::from)
                    .unwrap_or_else(|| MemoryObject::anon_name(base)),
                base,
                size,
                kind: ObjectKind::Heap,
                live: true,
            });
            self.live_blocks.push(0);
            self.objects.len() - 1
        });
        let id = self.objects[i].id;
        if self.heap.insert(base, end, id, trace).is_ok() {
            self.mutations += 1;
            let o = &mut self.objects[i];
            let new_base = o.base.min(base);
            let new_end = o.end().max(end);
            o.base = new_base;
            o.size = new_end - new_base;
            self.live_blocks[i] += 1;
        } else {
            self.dropped_blocks += 1;
            // The id was promised to the caller, but the block can never
            // resolve or be freed: a site keeps its blocks, a new object
            // retires at once.
            self.objects[i].live = self.live_blocks[i] > 0;
        }
        id
    }

    /// Register a heap free (instrumented `free`). Returns the freed
    /// block's object id if the base was known. A coalesced site stays
    /// live until its last block is freed.
    pub fn on_free(&mut self, base: Addr, trace: &mut AccessTrace) -> Option<ObjectId> {
        let (_, id) = self.heap.remove(base, trace)?;
        self.mutations += 1;
        let i = id.index();
        self.live_blocks[i] = self.live_blocks[i].saturating_sub(1);
        if self.live_blocks[i] == 0 {
            self.objects[i].live = false;
        }
        Some(id)
    }

    /// Resolve an address to the live object containing it.
    ///
    /// Checks the (static, cheap) symbol table first, then the heap tree —
    /// the segments are disjoint so order only affects the recorded trace.
    ///
    /// Successful lookups are memoised per containing leaf extent with
    /// the walk they recorded. Any address inside that extent follows the
    /// same symbol-table search path and the same heap-tree walk (leaf
    /// extents contain no other extent's boundary, so every comparison
    /// resolves identically), so a repeat hit replays the saved walk and
    /// records exactly the accesses a re-walk would. Every change to the
    /// heap moves the mutation count that tags the entries, which
    /// invalidates all of them at once.
    pub fn lookup(&mut self, addr: Addr, trace: &mut AccessTrace) -> Option<ObjectId> {
        let epoch = self.mutations;
        if let Some((id, walk)) = self.memo.get(addr, epoch) {
            trace.reads.extend_from_slice(&walk.reads);
            trace.writes.extend_from_slice(&walk.writes);
            return Some(*id);
        }
        let (r0, w0) = (trace.reads.len(), trace.writes.len());
        let hit = self
            .symtab
            .lookup(addr, trace)
            .or_else(|| self.heap.lookup(addr, trace));
        let (base, end, id) = hit?;
        let (memo_id, walk) = self.memo.fill_with(addr, base, end, epoch);
        *memo_id = id;
        walk.clear();
        walk.reads.extend_from_slice(&trace.reads[r0..]);
        walk.writes.extend_from_slice(&trace.writes[w0..]);
        Some(id)
    }

    /// The smallest base and largest end over all *live* objects, in
    /// O(log n): the symbol table's ends, and the heap tree's leftmost
    /// base and rightmost end.
    pub fn extent(&self) -> Option<(Addr, Addr)> {
        let (lo, hi) = [self.symtab.extent(), self.heap.extent()]
            .into_iter()
            .flatten()
            .fold((Addr::MAX, 0), |(lo, hi), (b, e)| (lo.min(b), hi.max(e)));
        (lo < hi).then_some((lo, hi))
    }

    /// Simulated bytes of instrumentation memory backing the map's
    /// structures (symbol-table array plus heap-tree arena segments).
    pub fn footprint_bytes(&self) -> u64 {
        self.symtab.footprint_bytes() + self.heap.footprint_bytes()
    }

    /// Arena segments currently backing the heap tree (1 = the base
    /// reservation, more = spill segments at the top of the
    /// instrumentation segment).
    pub fn heap_segments(&self) -> u32 {
        self.heap.segments()
    }

    /// Heap blocks dropped because the extent rule refused them or the
    /// tree arena reached its segment cap. Non-zero means attribution is
    /// degraded, not wrong: dropped blocks simply resolve to no object.
    pub fn dropped_blocks(&self) -> u64 {
        self.dropped_blocks
    }

    /// Ids of live objects whose extents intersect `[lo, hi)`, in ascending
    /// base order.
    pub fn objects_intersecting(
        &self,
        lo: Addr,
        hi: Addr,
        trace: &mut AccessTrace,
    ) -> Vec<ObjectId> {
        let mut globals = Vec::new();
        // A straddler starting before `lo` is found by address lookup.
        if lo > 0 {
            if let Some((b, _, id)) = self.symtab.lookup(lo, trace) {
                if b < lo {
                    globals.push(id);
                }
            }
        }
        self.symtab
            .for_each_in(lo, hi, trace, |_, _, id| globals.push(id));

        let mut heaps: Vec<ObjectId> = Vec::new();
        if lo > 0 {
            if let Some((b, _, id)) = self.heap.lookup(lo, trace) {
                if b < lo {
                    heaps.push(id);
                }
            }
        }
        // Coalesced sites own many blocks; report each site id once.
        self.heap.for_each_in(lo, hi, trace, |_, _, id| {
            if !heaps.contains(&id) {
                heaps.push(id);
            }
        });

        // Segments are disjoint and ordered (static below heap), so simple
        // concatenation preserves ascending base order.
        globals.extend(heaps);
        globals
    }

    /// Object-extent boundaries strictly inside `(lo, hi)`: candidate
    /// split points that no object spans.
    pub fn boundaries_in(&self, lo: Addr, hi: Addr, trace: &mut AccessTrace) -> Vec<Addr> {
        let mut out = Vec::new();
        for id in self.objects_intersecting(lo, hi, trace) {
            let o = self.object(id);
            if o.base > lo && o.base < hi {
                out.push(o.base);
            }
            if o.end() > lo && o.end() < hi {
                out.push(o.end());
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The split point for region `[lo, hi)`: the object boundary closest
    /// to the midpoint (ties resolved downward). Returns `None` when there
    /// is no interior boundary — the region lies within a single object
    /// (or exactly covers one), so it cannot usefully be split. Note that a
    /// region holding one object *plus surrounding gap* is still splittable
    /// at the object's own extent, which lets the search trim dead space.
    pub fn snap_split(&self, lo: Addr, hi: Addr, trace: &mut AccessTrace) -> Option<Addr> {
        let mid = lo + (hi - lo) / 2;
        let boundaries = self.boundaries_in(lo, hi, trace);
        boundaries.into_iter().min_by_key(|&b| (b.abs_diff(mid), b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decls() -> Vec<ObjectDecl> {
        vec![
            ObjectDecl::global("A", 0x1000_0000, 0x1000),
            ObjectDecl::global("B", 0x1000_2000, 0x1000),
            ObjectDecl::global("C", 0x1000_4000, 0x2000),
        ]
    }

    fn map() -> ObjectMap {
        ObjectMap::new(&decls(), &mut AddressSpace::new(64))
    }

    fn t() -> AccessTrace {
        AccessTrace::new()
    }

    #[test]
    fn resolves_globals_by_name() {
        let mut m = map();
        let id = m.lookup(0x1000_2080, &mut t()).unwrap();
        assert_eq!(m.object(id).name, "B");
        assert!(m.lookup(0x1000_1000, &mut t()).is_none(), "gap");
    }

    #[test]
    fn heap_lifecycle() {
        let mut m = map();
        let heap = 0x1_4102_0000u64;
        let id = m.on_alloc(heap, 0x1000, None, &mut t());
        assert_eq!(m.object(id).name, "0x141020000");
        assert_eq!(m.lookup(heap + 0x800, &mut t()), Some(id));
        assert_eq!(m.on_free(heap, &mut t()), Some(id));
        assert_eq!(m.lookup(heap + 0x800, &mut t()), None);
        assert!(!m.object(id).live);
        // Freed object remains in the registry for reporting.
        assert_eq!(m.len(), 4);
        assert_eq!(m.on_free(heap, &mut t()), None, "double free");
    }

    #[test]
    fn named_heap_blocks_keep_their_name() {
        let mut m = map();
        let id = m.on_alloc(0x1_4100_0000, 64, Some("jpeg_compressed_data"), &mut t());
        assert_eq!(m.object(id).name, "jpeg_compressed_data");
    }

    #[test]
    fn extent_covers_globals_and_heap() {
        let mut m = map();
        assert_eq!(m.extent(), Some((0x1000_0000, 0x1000_6000)));
        m.on_alloc(0x1_4100_0000, 0x100, None, &mut t());
        assert_eq!(m.extent(), Some((0x1000_0000, 0x1_4100_0100)));
    }

    #[test]
    fn intersecting_includes_straddlers() {
        let m = map();
        // Query starts in the middle of A.
        let ids = m.objects_intersecting(0x1000_0800, 0x1000_3000, &mut t());
        let names: Vec<&str> = ids.iter().map(|&i| m.object(i).name.as_str()).collect();
        assert_eq!(names, vec!["A", "B"]);
    }

    #[test]
    fn intersecting_is_half_open() {
        let m = map();
        // hi == B.base excludes B; lo == A.end excludes A.
        let ids = m.objects_intersecting(0x1000_1000, 0x1000_2000, &mut t());
        assert!(ids.is_empty());
    }

    #[test]
    fn boundaries_are_strictly_interior() {
        let m = map();
        let bs = m.boundaries_in(0x1000_0000, 0x1000_6000, &mut t());
        // A.end, B.base, B.end, C.base (A.base and C.end are endpoints).
        assert_eq!(bs, vec![0x1000_1000, 0x1000_2000, 0x1000_3000, 0x1000_4000]);
    }

    #[test]
    fn snap_split_picks_boundary_nearest_midpoint() {
        let m = map();
        // Region [A.base, C.end): midpoint 0x10003000 is exactly B.end.
        let split = m.snap_split(0x1000_0000, 0x1000_6000, &mut t()).unwrap();
        assert_eq!(split, 0x1000_3000);
    }

    #[test]
    fn snap_split_none_inside_single_object() {
        let m = map();
        // Region exactly covering one object: endpoints are not interior.
        assert_eq!(m.snap_split(0x1000_0000, 0x1000_1000, &mut t()), None);
        // Region strictly inside one object.
        assert_eq!(m.snap_split(0x1000_0100, 0x1000_0800, &mut t()), None);
    }

    #[test]
    fn snap_split_trims_gap_around_single_object() {
        let m = map();
        // One object plus gap on both sides: splittable at the object's
        // own boundaries so the search can discard the dead space.
        let split = m.snap_split(0x0fff_f000, 0x1000_1800, &mut t()).unwrap();
        assert!(split == 0x1000_0000 || split == 0x1000_1000);
    }

    #[test]
    fn snap_split_with_heap_blocks() {
        let mut m = map();
        m.on_alloc(0x1_4100_0000, 0x1000, None, &mut t());
        m.on_alloc(0x1_4100_2000, 0x1000, None, &mut t());
        let split = m
            .snap_split(0x1_4100_0000, 0x1_4100_3000, &mut t())
            .unwrap();
        // Boundaries: 0x141001000 (end of 1st), 0x141002000 (base of 2nd);
        // midpoint 0x141001800 is equidistant; tie resolves downward.
        assert_eq!(split, 0x1_4100_1000);
    }

    #[test]
    fn site_coalescing_merges_contiguous_named_blocks() {
        let mut m = ObjectMap::with_site_coalescing(&decls(), &mut AddressSpace::new(64));
        let a = m.on_alloc(0x1_4100_0000, 0x1000, Some("node"), &mut t());
        let b = m.on_alloc(0x1_4100_1000, 0x1000, Some("node"), &mut t());
        let c = m.on_alloc(0x1_4100_2000, 0x1000, Some("node"), &mut t());
        assert_eq!(a, b);
        assert_eq!(b, c);
        let site = m.object(a);
        assert_eq!(site.base, 0x1_4100_0000);
        assert_eq!(site.size, 0x3000);
        // The whole site resolves to one id; its interior boundaries are
        // invisible to the search.
        assert_eq!(m.lookup(0x1_4100_1800, &mut t()), Some(a));
        let bs = m.boundaries_in(0x1_4100_0000 - 0x1000, 0x1_4100_4000, &mut t());
        assert_eq!(bs, vec![0x1_4100_0000, 0x1_4100_3000]);
        assert_eq!(
            m.objects_intersecting(0x1_4100_0000, 0x1_4100_3000, &mut t()),
            vec![a],
            "site reported once"
        );
    }

    #[test]
    fn site_coalescing_requires_contiguity() {
        let mut m = ObjectMap::with_site_coalescing(&decls(), &mut AddressSpace::new(64));
        let a = m.on_alloc(0x1_4100_0000, 0x1000, Some("node"), &mut t());
        // A gap: a separate site fragment.
        let b = m.on_alloc(0x1_4200_0000, 0x1000, Some("node"), &mut t());
        assert_ne!(a, b);
        // Anonymous blocks never merge.
        let c = m.on_alloc(0x1_4100_1000, 0x1000, None, &mut t());
        assert_ne!(a, c);
    }

    #[test]
    fn coalesced_site_survives_partial_frees() {
        let mut m = ObjectMap::with_site_coalescing(&decls(), &mut AddressSpace::new(64));
        let a = m.on_alloc(0x1_4100_0000, 0x1000, Some("node"), &mut t());
        m.on_alloc(0x1_4100_1000, 0x1000, Some("node"), &mut t());
        assert_eq!(m.on_free(0x1_4100_0000, &mut t()), Some(a));
        assert!(m.object(a).live, "site lives while a block remains");
        // The freed hole no longer resolves, but the live block does.
        assert_eq!(m.lookup(0x1_4100_0800, &mut t()), None);
        assert_eq!(m.lookup(0x1_4100_1800, &mut t()), Some(a));
        assert_eq!(m.on_free(0x1_4100_1000, &mut t()), Some(a));
        assert!(!m.object(a).live, "site retired with its last block");
    }

    #[test]
    fn freed_slot_reuse_rejoins_the_site() {
        let mut m = ObjectMap::with_site_coalescing(&decls(), &mut AddressSpace::new(64));
        let a = m.on_alloc(0x1_4100_0000, 0x1000, Some("node"), &mut t());
        m.on_alloc(0x1_4100_1000, 0x1000, Some("node"), &mut t());
        m.on_free(0x1_4100_0000, &mut t());
        // A measurement-aware allocator hands the slot back out; it lies
        // inside the site extent and merges again.
        let again = m.on_alloc(0x1_4100_0000, 0x1000, Some("node"), &mut t());
        assert_eq!(again, a);
        assert_eq!(m.object(a).size, 0x2000);
    }

    #[test]
    fn without_coalescing_each_block_is_separate() {
        let mut m = map();
        let a = m.on_alloc(0x1_4100_0000, 0x1000, Some("node"), &mut t());
        let b = m.on_alloc(0x1_4100_1000, 0x1000, Some("node"), &mut t());
        assert_ne!(a, b);
    }

    #[test]
    fn memoised_lookup_replays_an_identical_trace() {
        let mut with_memo = map();
        let heap = 0x1_4100_0000u64;
        with_memo.on_alloc(heap, 0x4000, Some("node"), &mut t());

        // Reference traces from a cold map (fresh memo each time).
        let cold = |addr: u64| {
            let mut m = map();
            m.on_alloc(heap, 0x4000, Some("node"), &mut t());
            let mut tr = t();
            let id = m.lookup(addr, &mut tr);
            (id, tr.reads, tr.writes)
        };

        // Repeated hits inside the same block (and the same global) must
        // return the same id and record the same simulated accesses as an
        // un-memoised walk — the engine charges by this trace.
        for addr in [
            heap + 8,
            heap + 0x1000,
            heap + 0x3fff,
            0x1000_2080,
            0x1000_2100,
            heap + 64,
        ] {
            let mut tr = t();
            let id = with_memo.lookup(addr, &mut tr);
            let (cold_id, cold_reads, cold_writes) = cold(addr);
            assert_eq!(id, cold_id, "addr {addr:#x}");
            assert_eq!(tr.reads, cold_reads, "addr {addr:#x}");
            assert_eq!(tr.writes, cold_writes, "addr {addr:#x}");
        }

        // A gap address misses without poisoning the memo.
        assert_eq!(with_memo.lookup(0x1000_1000, &mut t()), None);

        // Allocator events invalidate: after freeing the block, a lookup
        // inside it must miss even though the memo pointed there.
        let id = with_memo.lookup(heap + 8, &mut t());
        assert!(id.is_some());
        with_memo.on_free(heap, &mut t());
        assert_eq!(with_memo.lookup(heap + 8, &mut t()), None);
    }

    #[test]
    fn memo_survives_an_interleave_of_hot_blocks() {
        // ABAB across two heap blocks and a global: the widened memo
        // keeps all three resident where the old one-entry memo would
        // thrash, and every replay stays trace-identical to a cold walk.
        let mut m = map();
        let a = 0x1_4100_0000u64;
        let b = 0x1_4900_0000u64;
        m.on_alloc(a, 0x2000, Some("a"), &mut t());
        m.on_alloc(b, 0x2000, Some("b"), &mut t());

        let cold = |addr: u64| {
            let mut c = map();
            c.on_alloc(a, 0x2000, Some("a"), &mut t());
            c.on_alloc(b, 0x2000, Some("b"), &mut t());
            let mut tr = t();
            let id = c.lookup(addr, &mut tr);
            (id, tr.reads, tr.writes)
        };

        for round in 0..4u64 {
            for addr in [a + round * 8, b + round * 8, 0x1000_2080 + round] {
                let mut tr = t();
                let id = m.lookup(addr, &mut tr);
                let (cold_id, cold_reads, cold_writes) = cold(addr);
                assert_eq!(id, cold_id, "addr {addr:#x}");
                assert_eq!(tr.reads, cold_reads, "addr {addr:#x}");
                assert_eq!(tr.writes, cold_writes, "addr {addr:#x}");
            }
        }
    }

    #[test]
    fn churn_past_the_old_64ki_cap_grows_the_arena() {
        // The historical arena was a fixed 64Ki-node reservation; pushing
        // the live-block count past it under alloc/free churn must spill
        // into a second segment and keep every lookup exact.
        let mut m = map();
        let base_of = |i: u64| 0x1_4100_0000 + i * 64;
        let n = 66_000u64;
        for i in 0..n {
            m.on_alloc(base_of(i), 32, None, &mut t());
            // Interleave frees so node reuse and churn are exercised, but
            // net growth still crosses the cap.
            if i % 16 == 15 {
                assert!(m.on_free(base_of(i - 8), &mut t()).is_some());
                m.on_alloc(base_of(i - 8), 32, None, &mut t());
            }
        }
        assert_eq!(m.dropped_blocks(), 0, "nothing dropped below the cap");
        assert!(m.heap_segments() >= 2, "arena spilled past 64Ki blocks");
        assert!(m.footprint_bytes() > 64 * 1024 * crate::rbtree::NODE_BYTES);
        // Blocks on both sides of the old cap resolve.
        let lo = m.lookup(base_of(3) + 8, &mut t()).unwrap();
        let hi = m.lookup(base_of(n - 1) + 8, &mut t()).unwrap();
        assert_eq!(m.object(lo).base, base_of(3));
        assert_eq!(m.object(hi).base, base_of(n - 1));
        assert_eq!(m.extent().unwrap().1, base_of(n - 1) + 32);
    }

    #[test]
    fn arena_cap_drops_blocks_instead_of_aborting() {
        let mut m = map();
        // Pin the tree to a single segment so the cap is reachable fast.
        m.heap = RbTree::with_segment_cap(0x7_0000_0000, 1);
        let base_of = |i: u64| 0x1_4100_0000 + i * 64;
        let cap = 65_535u64;
        for i in 0..cap {
            m.on_alloc(base_of(i), 32, None, &mut t());
        }
        assert_eq!(m.dropped_blocks(), 0);
        // One past the cap: the alloc is acknowledged but untracked.
        let id = m.on_alloc(base_of(cap), 32, None, &mut t());
        assert_eq!(m.dropped_blocks(), 1);
        assert!(!m.object(id).live, "dropped block is retired immediately");
        assert_eq!(m.lookup(base_of(cap) + 8, &mut t()), None);
        assert_eq!(m.on_free(base_of(cap), &mut t()), None);
        // Earlier blocks are unaffected, and freeing one reopens a slot.
        assert!(m.lookup(base_of(7) + 8, &mut t()).is_some());
        assert!(m.on_free(base_of(9), &mut t()).is_some());
        let again = m.on_alloc(base_of(cap) + 0x1000, 32, None, &mut t());
        assert_eq!(m.dropped_blocks(), 1, "freed slot absorbed the alloc");
        assert!(m.object(again).live);
    }

    #[test]
    fn refused_blocks_cost_no_tree_traffic() {
        let mut m = ObjectMap::with_site_coalescing(&decls(), &mut AddressSpace::new(64));
        let heap = 0x1_4100_0000u64;
        let live = m.on_alloc(heap, 0x1000, Some("node"), &mut t());
        let epoch = m.mutations;
        // Zero size at a live base, an overlap, a wrap, and an overlap
        // that names the site: the tree refuses each and records nothing.
        for (base, size, name) in [
            (heap, 0, None),
            (heap + 0x800, 0x1000, None),
            (0xffff_ffff_ffff_f000, 0x2000, None),
            (heap + 0x800, 0x1000, Some("node")),
        ] {
            let mut tr = t();
            let id = m.on_alloc(base, size, name, &mut tr);
            assert!(
                tr.is_empty(),
                "refused {base:#x}+{size:#x} touched the tree"
            );
            assert_eq!(m.object(id).live, id == live, "{base:#x}+{size:#x}");
        }
        assert_eq!(m.dropped_blocks(), 4);
        assert_eq!(m.mutations, epoch, "memo tags did not move");
        assert_eq!(m.object(live).size, 0x1000, "the site did not grow");
        assert_eq!(m.lookup(heap + 0x800, &mut t()), Some(live));
        assert_eq!(m.extent(), Some((0x1000_0000, heap + 0x1000)));

        // The tree's own extent rule against the shared index's, under
        // seeded alloc/free/lookup churn over a small slot universe, so
        // overlaps, duplicate bases, empty and inverted blocks and reuse
        // are all common. `RbTree::insert` must accept and refuse exactly
        // what `EpochIndex::check` does on the same live set, with the
        // same error. An accepted block records what inserting it into a
        // tree that only ever saw vetted blocks records (check, then
        // insert), starting with the descent a lookup of its base reads;
        // a refused one leaves the trace as it was.
        use crate::rbtree::Refused;
        use cachescope_sim::rng::SmallRng;
        use cachescope_sim::EpochIndex;

        let slot = |s: u64| 0x4_0000 + s * 0x100;
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(0x7EE5 ^ seed);
            let mut tree = RbTree::new(0x7_0000_0000);
            let mut vetted = RbTree::new(0x7_0000_0000);
            let mut index = EpochIndex::new();
            let (mut accepted, mut refused) = (0u32, 0u32);
            for step in 0..6_000u32 {
                match rng.random_range(0u64..10) {
                    0..=4 => {
                        let s = rng.random_range(0u64..64);
                        let (base, end) = match rng.random_range(0u64..10) {
                            0 => (slot(s), slot(s)),
                            1 => (slot(s + 1), slot(s) + 8),
                            2 | 3 => (slot(s) + 0x80, slot(s + rng.random_range(1u64..4))),
                            _ => (slot(s), slot(s + rng.random_range(1u64..4))),
                        };
                        let id = ObjectId(step);
                        let mut tr = t();
                        tr.read(1);
                        tr.write(2);
                        let mut descent = t();
                        let _ = tree.lookup(base, &mut descent);
                        match (index.check(base, end), tree.insert(base, end, id, &mut tr)) {
                            (Ok(()), Ok(())) => {
                                let mut want = t();
                                vetted.insert(base, end, id, &mut want).unwrap();
                                assert_eq!(tr.reads[1..], want.reads[..], "step {step}");
                                assert_eq!(tr.writes[1..], want.writes[..], "step {step}");
                                assert!(want.reads.starts_with(&descent.reads), "step {step}");
                                index.insert(base, end, step).unwrap();
                                accepted += 1;
                            }
                            (Err(want), Err(Refused::Extent(got))) => {
                                assert_eq!(got, want, "step {step}");
                                assert_eq!((tr.reads, tr.writes), (vec![1], vec![2]));
                                refused += 1;
                            }
                            (want, got) => {
                                panic!("{base:#x}..{end:#x} at step {step}: {want:?} vs {got:?}")
                            }
                        }
                    }
                    5..=7 => {
                        // Mostly a live base, else a slot (maybe dead).
                        let base = match index.iter().nth(rng.random_range(0..index.len() + 2)) {
                            Some((b, _, _)) => b,
                            None => slot(rng.random_range(0u64..68)),
                        };
                        let got = tree.remove(base, &mut t());
                        assert_eq!(got.map(|(e, id)| (e, id.0)), index.remove(base));
                        assert_eq!(got, vetted.remove(base, &mut t()));
                    }
                    _ => {
                        let addr = slot(rng.random_range(0u64..68)) + rng.random_range(0u64..0x100);
                        let got = tree.lookup(addr, &mut t());
                        let want = index.resolve(addr);
                        assert_eq!(got.map(|(b, e, id)| (b, e, id.0)), want, "{addr:#x}");
                    }
                }
                assert_eq!(tree.len(), index.len());
                assert_eq!(tree.extent(), index.extent(), "step {step}");
            }
            tree.validate();
            assert!(accepted > 1_000 && refused > 1_000, "{accepted} {refused}");
        }
    }

    #[test]
    fn lookup_trace_covers_both_structures_on_heap_hit() {
        let mut m = map();
        let mut trace = t();
        m.on_alloc(0x1_4100_0000, 64, None, &mut trace);
        trace.clear();
        m.lookup(0x1_4100_0000, &mut trace);
        assert!(
            !trace.reads.is_empty(),
            "heap lookup must probe the symbol table first, then the tree"
        );
    }
}
