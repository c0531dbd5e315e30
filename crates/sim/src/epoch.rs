//! Epoch-versioned extent index: the one extent rule, and the shared
//! resolve structure behind ground truth, the symbol table, the heap map
//! and the static analyzer.
//!
//! **The rule.** Only [`EpochIndex::check`] decides whether an extent
//! may go live: it refuses an empty one (a zero size, or a wrap, which
//! [`extent_of`] turns into an inverted extent, not an overflow) and one
//! overlapping a live extent, with one [`ExtentError`].
//! [`EpochIndex::insert`] is `check` plus the commit. Every consumer
//! degrades a refusal alike: the first extent wins.
//!
//! **Resolve.** The engine resolves an object for *every* application
//! cache miss, so attribution throughput is bounded by how fast "which
//! live extent contains this address?" can be answered. The common case
//! is a miss in a page that lies wholly inside one object or wholly
//! outside all of them, and the engine answers it with one probe of a
//! [`PageMemo`]: a direct-mapped table of 4 KiB pages, each mapped to
//! an object id or to "unmapped", which the engine invalidates exactly,
//! page by page, at each alloc and free. Only a probe that misses
//! reaches the index.
//! Alloc churn and those slow resolves have very different shapes —
//! churn is bursty (an alloc/free event, then thousands of misses
//! against a stable heap) while resolves are continuous — so the index
//! keeps two representations and lets the workload pick:
//!
//! * a `BTreeMap` of live extents, O(log n) insert/remove, used directly
//!   for resolves during churn-heavy epochs;
//! * a flat sorted `(base, end, id)` snapshot, rebuilt lazily once the
//!   churn quiets down, resolved with a branchless binary search (or a
//!   straight containment scan for tiny registries).
//!
//! [`EpochIndex::locate`] is the resolve the page memo fills from: for
//! an unmapped address it also reports the gap around it, so unmapped
//! pages are cached too.
//!
//! Every mutation bumps an **epoch** counter. Callers that memoise
//! resolves in an [`ExtentMemo`] (the object map's walk traces) tag
//! entries with the epoch at fill time; a tag mismatch is a miss, so one
//! integer compare invalidates every stale memo at once — no clearing,
//! no per-entry bookkeeping on the alloc path.

use std::collections::BTreeMap;

use crate::Addr;

/// Why an extent `[base, end)` (exclusive end) may not go live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtentError {
    /// It holds no byte: `end == base` is a zero size, `end < base` a
    /// `base + size` that wrapped the address space.
    Empty { base: Addr, end: Addr },
    /// It overlaps `[other_base, other_end)`, the lowest live extent it
    /// touches.
    Overlap {
        base: Addr,
        end: Addr,
        other_base: Addr,
        other_end: Addr,
    },
}

impl std::fmt::Display for ExtentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ExtentError::Empty { base, end } if end < base => {
                write!(f, "extent {base:#x}..{end:#x} wraps the address space")
            }
            ExtentError::Empty { base, .. } => write!(f, "extent at {base:#x} is empty"),
            ExtentError::Overlap {
                base,
                end,
                other_base,
                other_end,
            } => write!(
                f,
                "extent {base:#x}..{end:#x} overlaps live extent {other_base:#x}..{other_end:#x}"
            ),
        }
    }
}

impl std::error::Error for ExtentError {}

/// The extent `[base, end)` of an object of `size` bytes at `base`. A
/// size that runs past the top of the address space wraps `end` below
/// `base`: an inverted extent, which [`EpochIndex::check`] refuses as
/// empty, instead of an arithmetic overflow.
#[inline]
pub fn extent_of(base: Addr, size: u64) -> (Addr, Addr) {
    (base, base.wrapping_add(size))
}

/// Registries this small resolve faster with a straight containment scan
/// than with binary search's data-dependent branches.
const LINEAR_SCAN_MAX: usize = 16;

/// How many resolves must land in a dirty epoch before the flat snapshot
/// is rebuilt. Below the threshold the index answers from the tree, so a
/// churn phase (alloc/free every few events) never pays the O(n) rebuild;
/// above it the epoch has quieted down and one rebuild amortizes over a
/// long run of cache-friendly flat probes.
const REBUILD_AFTER: u32 = 64;

/// Where an address lies, as [`EpochIndex::locate`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Inside the live extent `[base, end)` of object `id`.
    Extent { base: Addr, end: Addr, id: u32 },
    /// Inside the gap `[lo, hi]` between live extents. Both bounds are
    /// inclusive, so a gap can run to the top byte of the address space.
    Gap { lo: Addr, hi: Addr },
}

/// Epoch-versioned map from live extents to object ids.
#[derive(Debug, Default, Clone)]
pub struct EpochIndex {
    /// Live extents: base → (end, id). The mutation-side representation.
    map: BTreeMap<Addr, (Addr, u32)>,
    /// Flat sorted `(base, end, id)` copy of `map`; the resolve-side
    /// representation, valid when `!dirty`.
    snapshot: Vec<(Addr, Addr, u32)>,
    dirty: bool,
    epoch: u64,
    /// Resolves since the last mutation; drives the deferred rebuild.
    resolves_since_churn: u32,
}

impl EpochIndex {
    /// An empty index at epoch zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a batch of `(base, end, id)` extents, inserted in
    /// order: an extent the rule refuses is skipped, so the first of two
    /// overlapping extents wins. The snapshot is materialized eagerly, so
    /// an index that is never mutated afterwards (a symbol table) serves
    /// every resolve from the flat array.
    pub fn from_extents(extents: impl IntoIterator<Item = (Addr, Addr, u32)>) -> Self {
        let mut idx = Self::new();
        for (base, end, id) in extents {
            let _ = idx.insert(base, end, id);
        }
        idx.rebuild();
        idx.epoch = 0;
        idx
    }

    /// Number of live extents.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no extents are live.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The current epoch. Bumped by every successful insert/remove;
    /// memo entries tagged with an older epoch are stale.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The extent rule: may `[base, end)` go live now? Refuses an empty,
    /// inverted or wrapped extent, and one that overlaps a live extent
    /// (reporting the lowest such). Read-only, so a caller can vet an
    /// extent before doing work of its own and commit with
    /// [`EpochIndex::insert`] after.
    pub fn check(&self, base: Addr, end: Addr) -> Result<(), ExtentError> {
        if end <= base {
            return Err(ExtentError::Empty { base, end });
        }
        let below = self.map.range(..base).next_back();
        let clash = below
            .filter(|&(_, &(e, _))| e > base)
            .or_else(|| self.map.range(base..end).next());
        match clash {
            Some((&other_base, &(other_end, _))) => Err(ExtentError::Overlap {
                base,
                end,
                other_base,
                other_end,
            }),
            None => Ok(()),
        }
    }

    /// Insert a live extent: [`EpochIndex::check`] plus the commit. A
    /// refused extent mutates nothing.
    pub fn insert(&mut self, base: Addr, end: Addr, id: u32) -> Result<(), ExtentError> {
        self.check(base, end)?;
        self.map.insert(base, (end, id));
        self.churn();
        Ok(())
    }

    /// Remove the extent based at `base`, returning `(end, id)` if one
    /// was live there.
    pub fn remove(&mut self, base: Addr) -> Option<(Addr, u32)> {
        let removed = self.map.remove(&base);
        if removed.is_some() {
            self.churn();
        }
        removed
    }

    #[inline]
    fn churn(&mut self) {
        self.epoch += 1;
        self.dirty = true;
        self.resolves_since_churn = 0;
    }

    fn rebuild(&mut self) {
        self.snapshot.clear();
        self.snapshot
            .extend(self.map.iter().map(|(&b, &(e, id))| (b, e, id)));
        self.dirty = false;
    }

    /// Should this resolve read the tree? Yes for the first
    /// [`REBUILD_AFTER`] resolves of a dirty epoch; the one after them
    /// rebuilds the snapshot, which answers from then on.
    #[inline]
    fn on_tree(&mut self) -> bool {
        if self.dirty {
            if self.resolves_since_churn < REBUILD_AFTER {
                self.resolves_since_churn += 1;
                return true;
            }
            self.rebuild();
        }
        false
    }

    /// Resolve `addr` to the containing live extent.
    ///
    /// Churn-free epochs go through the flat snapshot (linear scan for
    /// tiny registries, else binary search); during a churn phase the
    /// tree answers directly and the snapshot rebuild is deferred until
    /// [`REBUILD_AFTER`] resolves land without an intervening mutation.
    #[inline]
    pub fn resolve(&mut self, addr: Addr) -> Option<(Addr, Addr, u32)> {
        if self.on_tree() {
            let (&b, &(e, id)) = self.map.range(..=addr).next_back()?;
            return (addr < e).then_some((b, e, id));
        }
        if self.snapshot.len() <= LINEAR_SCAN_MAX {
            // Extents are disjoint: the first containing one is the only
            // one.
            for &(b, e, id) in &self.snapshot {
                if addr >= b && addr < e {
                    return Some((b, e, id));
                }
            }
            return None;
        }
        let i = self.snapshot.partition_point(|&(b, _, _)| b <= addr);
        let &(b, e, id) = self.snapshot.get(i.wrapping_sub(1))?;
        (addr < e).then_some((b, e, id))
    }

    /// [`EpochIndex::resolve`] that also reports the gap around an
    /// unmapped `addr`: [`Span::Gap`] runs from the end of the live
    /// extent below it (or 0) to the byte before the live extent above
    /// it (or the top of the address space). Reads the same side of the
    /// index, tree or snapshot, as `resolve` would.
    pub fn locate(&mut self, addr: Addr) -> Span {
        use std::ops::Bound::{Excluded, Unbounded};
        // The live extent based at or below `addr`, and the base of the
        // next one above it (looked up in the tree only for a gap).
        let (below, above) = if self.on_tree() {
            let below = self.map.range(..=addr).next_back();
            match below.map(|(&b, &(e, id))| (b, e, id)) {
                Some((base, end, id)) if addr < end => return Span::Extent { base, end, id },
                below => {
                    let above = self.map.range((Excluded(addr), Unbounded)).next();
                    (below, above.map(|(&b, _)| b))
                }
            }
        } else {
            let i = self.snapshot.partition_point(|&(b, _, _)| b <= addr);
            let below = i.checked_sub(1).map(|j| self.snapshot[j]);
            (below, self.snapshot.get(i).map(|&(b, _, _)| b))
        };
        match below {
            Some((base, end, id)) if addr < end => Span::Extent { base, end, id },
            _ => Span::Gap {
                lo: below.map_or(0, |(_, end, _)| end),
                // A live base above `addr` is at least `addr + 1`.
                hi: above.map_or(Addr::MAX, |b| b - 1),
            },
        }
    }

    /// The live extents as a flat sorted slice, rebuilding if dirty.
    pub fn sorted(&mut self) -> &[(Addr, Addr, u32)] {
        if self.dirty {
            self.rebuild();
        }
        &self.snapshot
    }

    /// The flat snapshot *without* a rebuild — exact only for an index
    /// that has not been mutated since construction or the last
    /// [`EpochIndex::sorted`] call (e.g. a frozen symbol table). Callers
    /// that mutate must use [`EpochIndex::sorted`].
    pub fn frozen_sorted(&self) -> &[(Addr, Addr, u32)] {
        debug_assert!(!self.dirty, "frozen_sorted on a dirty index");
        &self.snapshot
    }

    /// Iterate live extents in base order (tree-side; no rebuild).
    pub fn iter(&self) -> impl Iterator<Item = (Addr, Addr, u32)> + '_ {
        self.map.iter().map(|(&b, &(e, id))| (b, e, id))
    }

    /// The smallest base and largest end over all live extents, in
    /// O(log n). (Extents are disjoint, so the highest-based extent also
    /// carries the largest end.)
    pub fn extent(&self) -> Option<(Addr, Addr)> {
        let (&lo, _) = self.map.first_key_value()?;
        let (_, &(hi, _)) = self.map.last_key_value()?;
        Some((lo, hi))
    }
}

/// Slots in a resolve memo. 32 entries at 4 KiB granularity give a
/// 128 KiB aliasing period — enough that an ABAB interleave of two hot
/// objects keeps both cached instead of thrashing a single entry.
const MEMO_SLOTS: usize = 32;

/// One memo slot: a live-extent resolve and its payload, tagged with the
/// index epoch at fill time.
#[derive(Debug, Clone, Default)]
struct MemoEntry<T> {
    base: Addr,
    end: Addr,
    epoch: u64,
    value: T,
}

/// Direct-mapped memo of recent resolves, tagged with the index epoch.
///
/// Two-level: the most recently hit or filled slot catches streaming
/// misses through one object; a direct-mapped array (slotted by 4 KiB
/// address region) catches interleaved hot objects. Entries carry the
/// epoch at fill time, so any alloc/free invalidates the whole memo with
/// zero work — the tag compare fails.
///
/// The payload is what a hit saves recomputing: the object map memoises
/// a whole lookup walk, whose buffers [`ExtentMemo::fill_with`] hands
/// back for reuse, and the repository benchmark's resolve layer
/// memoises object ids (`ExtentMemo<u32>`, through
/// [`ExtentMemo::lookup`] and [`ExtentMemo::fill`]). The engine's
/// ground truth resolves through a [`PageMemo`] instead, which an
/// alloc or free invalidates page by page rather than all at once.
#[derive(Debug, Clone)]
pub struct ExtentMemo<T = u32> {
    slots: [MemoEntry<T>; MEMO_SLOTS],
    recent: usize,
}

impl<T: Default> Default for ExtentMemo<T> {
    fn default() -> Self {
        // Zeroed entries are inert at any epoch: no address lies in
        // the empty range [0, 0).
        ExtentMemo {
            slots: std::array::from_fn(|_| MemoEntry::default()),
            recent: 0,
        }
    }
}

impl<T> ExtentMemo<T> {
    #[inline]
    fn slot(addr: Addr) -> usize {
        (((addr >> 12) ^ (addr >> 17)) as usize) & (MEMO_SLOTS - 1)
    }

    /// The payload of a live-epoch entry covering `addr`, if any.
    #[inline]
    pub fn get(&mut self, addr: Addr, epoch: u64) -> Option<&T> {
        let covers = |m: &MemoEntry<T>| m.epoch == epoch && addr >= m.base && addr < m.end;
        if !covers(&self.slots[self.recent]) {
            let s = Self::slot(addr);
            if !covers(&self.slots[s]) {
                return None;
            }
            self.recent = s;
        }
        Some(&self.slots[self.recent].value)
    }

    /// Record a resolve of `addr` to extent `[base, end)` at `epoch`,
    /// returning the slot's payload for the caller to overwrite in place.
    /// The slot is keyed by the *resolved address* (not the extent base),
    /// so a large object occupies one slot per 4 KiB region it is
    /// actually missed in.
    #[inline]
    pub fn fill_with(&mut self, addr: Addr, base: Addr, end: Addr, epoch: u64) -> &mut T {
        let s = Self::slot(addr);
        self.recent = s;
        let m = &mut self.slots[s];
        (m.base, m.end, m.epoch) = (base, end, epoch);
        &mut m.value
    }
}

impl ExtentMemo {
    /// A cold memo of object ids.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve `addr` from the memo if a live-epoch entry covers it.
    #[inline]
    pub fn lookup(&mut self, addr: Addr, epoch: u64) -> Option<u32> {
        self.get(addr, epoch).copied()
    }

    /// Record a resolve of `addr` to extent `[base, end)` = `id` at
    /// `epoch` (see [`ExtentMemo::fill_with`]).
    #[inline]
    pub fn fill(&mut self, addr: Addr, base: Addr, end: Addr, id: u32, epoch: u64) {
        *self.fill_with(addr, base, end, epoch) = id;
    }
}

/// log2 of the bytes in a [`PageMemo`] page: 4 KiB.
const PAGE_SHIFT: u32 = 12;

/// Slots in a [`PageMemo`]: 4096 pages of 4 KiB, so two pages alias only
/// when they lie a multiple of 16 MiB apart.
pub const PAGE_SLOTS: usize = 4096;

/// The page of an empty slot. No address reaches it: page numbers are
/// addresses shifted right by [`PAGE_SHIFT`].
const NO_PAGE: u64 = u64::MAX;

/// The id of a slot whose page lies inside a gap.
const UNMAPPED: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct PageSlot {
    page: u64,
    id: u32,
}

const EMPTY_SLOT: PageSlot = PageSlot {
    page: NO_PAGE,
    id: UNMAPPED,
};

/// Direct-mapped, page-granular resolve memo: slot `page % PAGE_SLOTS`
/// maps one 4 KiB page to the id of the live extent it lies in, or to
/// "unmapped".
///
/// **Invariant.** A slot maps a page that lies wholly inside one live
/// extent, or wholly inside one gap between live extents, until a
/// mutation touches that page. [`PageMemo::fill`] keeps the first half:
/// it fills a slot only for such a page, so a page that straddles an
/// extent boundary always resolves through the index. The owner of the
/// index keeps the second: each insert or remove that commits calls
/// [`PageMemo::invalidate`] with its extent, which clears the slot of
/// every page the extent overlaps. A mutation that overlaps no byte of
/// a page leaves that page wholly inside its extent, or wholly inside a
/// gap that grew or shrank, so its slot stays exact. Invalidation is
/// exact and there is no epoch to compare.
///
/// The table is held inline (64 KiB), so a memo allocates nothing.
pub struct PageMemo {
    slots: [PageSlot; PAGE_SLOTS],
}

impl Default for PageMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for PageMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let filled = self.slots.iter().filter(|s| s.page != NO_PAGE).count();
        f.debug_struct("PageMemo").field("filled", &filled).finish()
    }
}

impl PageMemo {
    /// A memo with every slot empty.
    pub const fn new() -> Self {
        PageMemo {
            slots: [EMPTY_SLOT; PAGE_SLOTS],
        }
    }

    #[inline]
    fn slot(page: u64) -> usize {
        page as usize % PAGE_SLOTS
    }

    /// Where the page of `addr` lies, if its slot maps that page:
    /// `Some(Some(id))` inside the live extent of `id`, `Some(None)`
    /// inside a gap, and `None` when the slot maps another page or none.
    #[inline]
    pub fn lookup(&self, addr: Addr) -> Option<Option<u32>> {
        let page = addr >> PAGE_SHIFT;
        let s = self.slots[Self::slot(page)];
        (s.page == page).then_some((s.id != UNMAPPED).then_some(s.id))
    }

    /// Record `span`, where [`EpochIndex::locate`] found `addr`, if the
    /// page of `addr` lies wholly inside it. Otherwise leave the slot
    /// as it is.
    #[inline]
    pub fn fill(&mut self, addr: Addr, span: Span) {
        let (lo, hi, id) = match span {
            // An id equal to the unmapped marker could not be told apart
            // from a gap, so it is never cached.
            Span::Extent { id: UNMAPPED, .. } => return,
            Span::Extent { base, end, id } => (base, end - 1, id),
            Span::Gap { lo, hi } => (lo, hi, UNMAPPED),
        };
        let page = addr >> PAGE_SHIFT;
        let first = page << PAGE_SHIFT;
        let last = first | ((1 << PAGE_SHIFT) - 1);
        if lo <= first && last <= hi {
            self.slots[Self::slot(page)] = PageSlot { page, id };
        }
    }

    /// Forget every page the extent `[base, end)` overlaps: clear the
    /// slots that map one, or every slot when the extent spans at least
    /// [`PAGE_SLOTS`] pages. Call it after each insert or remove of that
    /// extent commits.
    pub fn invalidate(&mut self, base: Addr, end: Addr) {
        if end <= base {
            return; // holds no byte, so it touches no page
        }
        let (first, last) = (base >> PAGE_SHIFT, (end - 1) >> PAGE_SHIFT);
        if last - first >= PAGE_SLOTS as u64 - 1 {
            self.slots = [EMPTY_SLOT; PAGE_SLOTS];
            return;
        }
        for page in first..=last {
            let s = &mut self.slots[Self::slot(page)];
            if s.page == page {
                *s = EMPTY_SLOT;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;

    #[test]
    fn empty_index_resolves_nothing() {
        let mut idx = EpochIndex::new();
        assert_eq!(idx.resolve(0), None);
        assert_eq!(idx.resolve(u64::MAX), None);
        assert!(idx.is_empty());
    }

    #[test]
    fn insert_resolve_remove_roundtrip_with_boundaries() {
        let mut idx = EpochIndex::new();
        idx.insert(0x1000, 0x1100, 7).unwrap();
        assert_eq!(idx.resolve(0x0fff), None);
        assert_eq!(idx.resolve(0x1000), Some((0x1000, 0x1100, 7)));
        assert_eq!(idx.resolve(0x10ff), Some((0x1000, 0x1100, 7)));
        assert_eq!(idx.resolve(0x1100), None, "end is exclusive");
        assert_eq!(idx.remove(0x1000), Some((0x1100, 7)));
        assert_eq!(idx.resolve(0x1000), None, "freed gap");
        assert_eq!(idx.remove(0x1000), None);
    }

    #[test]
    fn epoch_bumps_on_every_mutation_and_only_then() {
        let mut idx = EpochIndex::new();
        assert_eq!(idx.epoch(), 0);
        idx.insert(0x1000, 0x1100, 0).unwrap();
        assert_eq!(idx.epoch(), 1);
        idx.resolve(0x1000);
        idx.resolve(0x2000);
        assert_eq!(idx.epoch(), 1, "resolves do not bump the epoch");
        idx.remove(0x1000);
        assert_eq!(idx.epoch(), 2);
        // A rejected insert mutates nothing and must not bump.
        idx.insert(0x2000, 0x2100, 1).unwrap();
        assert!(idx.insert(0x2080, 0x2180, 2).is_err());
        assert_eq!(idx.epoch(), 3);
    }

    #[test]
    fn overlap_rejection_reports_both_extents() {
        let mut idx = EpochIndex::new();
        idx.insert(0x1000, 0x1100, 0).unwrap();
        let other = |e: ExtentError| match e {
            ExtentError::Overlap {
                other_base,
                other_end,
                ..
            } => Some((other_base, other_end)),
            ExtentError::Empty { .. } => None,
        };
        // Overlap from below.
        let e = idx.insert(0x0f80, 0x1080, 1).unwrap_err();
        assert_eq!(other(e), Some((0x1000, 0x1100)));
        // Overlap from above (prev extent spills into the new base).
        let e = idx.insert(0x10c0, 0x1200, 1).unwrap_err();
        assert_eq!(other(e), Some((0x1000, 0x1100)));
        // Exact duplicate base.
        assert!(idx.insert(0x1000, 0x1040, 1).is_err());
        // Adjacent extents (end == next base) are fine.
        idx.insert(0x1100, 0x1200, 1).unwrap();
        idx.insert(0x0f00, 0x1000, 2).unwrap();
        assert_eq!(idx.len(), 3);
        let msg = format!("{}", idx.insert(0x1000, 0x1001, 9).unwrap_err());
        assert!(msg.contains("overlaps live extent"), "{msg}");
    }

    #[test]
    fn refuses_empty_inverted_and_wrapping_extents() {
        let mut idx = EpochIndex::new();
        idx.insert(0x4000, 0x5000, 0).unwrap();
        // A zero size at a live base would otherwise replace that extent.
        let (b, e) = extent_of(0x4000, 0);
        assert_eq!(
            idx.insert(b, e, 1),
            Err(ExtentError::Empty {
                base: 0x4000,
                end: 0x4000
            })
        );
        assert_eq!(idx.resolve(0x4000), Some((0x4000, 0x5000, 0)));
        // A wrap is an inverted extent, not an overflow.
        let (b, e) = extent_of(0xffff_ffff_ffff_f000, 8192);
        assert_eq!((b, e), (0xffff_ffff_ffff_f000, 0x1000));
        let err = idx.insert(b, e, 2).unwrap_err();
        assert_eq!(err, ExtentError::Empty { base: b, end: e });
        assert!(err.to_string().contains("wraps the address space"), "{err}");
        assert!(idx.check(0x6000, 0x5000).is_err(), "inverted");
        // Refusals mutate nothing; `check` alone never mutates.
        assert_eq!((idx.len(), idx.epoch()), (1, 1));
        assert_eq!(idx.check(0x5000, 0x6000), Ok(()));
        assert_eq!((idx.len(), idx.epoch()), (1, 1));
    }

    #[test]
    fn from_extents_builds_a_clean_snapshot() {
        let idx = EpochIndex::from_extents([
            (0x3000, 0x3100, 2),
            (0x1000, 0x1100, 0),
            (0x2000, 0x2100, 1),
        ]);
        assert_eq!(
            idx.frozen_sorted(),
            &[
                (0x1000, 0x1100, 0),
                (0x2000, 0x2100, 1),
                (0x3000, 0x3100, 2)
            ]
        );
        assert_eq!(idx.epoch(), 0);
        // The first of two overlapping extents wins; the second, and an
        // empty one, are skipped.
        let idx = EpochIndex::from_extents([
            (0x1000, 0x1100, 0),
            (0x10f0, 0x1200, 1),
            (0x2000, 0x2000, 2),
        ]);
        assert_eq!(idx.frozen_sorted(), &[(0x1000, 0x1100, 0)]);
    }

    #[test]
    fn resolve_is_exact_across_the_linear_to_binary_threshold() {
        // Straddle LINEAR_SCAN_MAX so both resolve strategies are hit.
        for n in [1usize, 2, LINEAR_SCAN_MAX, LINEAR_SCAN_MAX + 1, 64] {
            let mut idx = EpochIndex::new();
            for k in 0..n {
                let base = 0x1_0000 + (k as u64) * 0x200;
                idx.insert(base, base + 0x100, k as u32).unwrap();
            }
            for k in 0..n {
                let base = 0x1_0000 + (k as u64) * 0x200;
                assert_eq!(idx.resolve(base), Some((base, base + 0x100, k as u32)));
                assert_eq!(
                    idx.resolve(base + 0xff),
                    Some((base, base + 0x100, k as u32))
                );
                assert_eq!(idx.resolve(base + 0x100), None, "gap between extents");
            }
        }
    }

    #[test]
    fn deferred_rebuild_answers_from_the_tree_during_churn() {
        let mut idx = EpochIndex::new();
        for k in 0..100u64 {
            idx.insert(k * 0x1000, k * 0x1000 + 0x800, k as u32)
                .unwrap();
            // Fewer resolves than REBUILD_AFTER between mutations: the
            // index stays on the tree path, and answers stay exact.
            assert_eq!(
                idx.resolve(k * 0x1000 + 0x10),
                Some((k * 0x1000, k * 0x1000 + 0x800, k as u32))
            );
            assert_eq!(idx.resolve(k * 0x1000 + 0x800), None);
        }
        // Quiet epoch: enough resolves to trigger the rebuild, answers
        // unchanged.
        for _ in 0..(REBUILD_AFTER + 8) {
            assert_eq!(idx.resolve(0x10), Some((0, 0x800, 0)));
        }
        assert_eq!(idx.sorted().len(), 100);
    }

    #[test]
    fn memo_hits_only_within_the_fill_epoch() {
        let mut idx = EpochIndex::new();
        let mut memo = ExtentMemo::new();
        idx.insert(0x1000, 0x2000, 3).unwrap();
        let ep = idx.epoch();
        assert_eq!(memo.lookup(0x1800, ep), None, "cold memo");
        let (b, e, id) = idx.resolve(0x1800).unwrap();
        memo.fill(0x1800, b, e, id, ep);
        assert_eq!(memo.lookup(0x1810, ep), Some(3));
        // Any mutation bumps the epoch; every memo entry goes stale at
        // once.
        idx.remove(0x1000);
        assert_eq!(memo.lookup(0x1810, idx.epoch()), None);
    }

    #[test]
    fn memo_keeps_interleaved_hot_objects_resident() {
        let mut memo = ExtentMemo::new();
        // Two objects far enough apart to land in different slots.
        let a = (0x1_0000u64, 0x1_8000u64, 1u32);
        let b = (0x9_0000u64, 0x9_8000u64, 2u32);
        memo.fill(a.0, a.0, a.1, a.2, 5);
        memo.fill(b.0, b.0, b.1, b.2, 5);
        // ABAB interleave: both stay resident (the one-entry memo this
        // replaces would miss on every alternation).
        for _ in 0..4 {
            assert_eq!(memo.lookup(a.0 + 8, 5), Some(1));
            assert_eq!(memo.lookup(b.0 + 8, 5), Some(2));
        }
    }

    #[test]
    fn memo_payloads_reuse_their_slot_buffers() {
        let mut memo: ExtentMemo<Vec<u64>> = ExtentMemo::default();
        let walk = memo.fill_with(0x1_0000, 0x1_0000, 0x1_8000, 1);
        walk.extend([1, 2, 3]);
        assert_eq!(memo.get(0x1_0010, 1), Some(&vec![1, 2, 3]));
        assert_eq!(memo.get(0x1_0010, 2), None, "stale epoch");
        // Refilling the same slot hands back the old buffer to overwrite.
        let walk = memo.fill_with(0x1_0020, 0x1_0000, 0x1_8000, 2);
        let cap = walk.capacity();
        walk.clear();
        walk.push(4);
        assert!(cap >= 3);
        assert_eq!(memo.get(0x1_0010, 2).map(Vec::capacity), Some(cap));
        assert_eq!(memo.get(0x1_0010, 2), Some(&vec![4]));
    }

    #[test]
    fn locate_reports_the_extent_or_the_gap_around_it() {
        let mut idx = EpochIndex::new();
        assert_eq!(
            idx.locate(0x1234),
            Span::Gap {
                lo: 0,
                hi: u64::MAX
            }
        );
        idx.insert(0x1000, 0x1100, 7).unwrap();
        idx.insert(0x2000, 0x3000, 8).unwrap();
        // Twice: once from the tree (a dirty epoch), once from the
        // snapshot after the deferred rebuild.
        for pass in 0..2 {
            let extent = |base, end, id| Span::Extent { base, end, id };
            assert_eq!(idx.locate(0x1000), extent(0x1000, 0x1100, 7), "pass {pass}");
            assert_eq!(idx.locate(0x10ff), extent(0x1000, 0x1100, 7));
            assert_eq!(idx.locate(0x0), Span::Gap { lo: 0, hi: 0xfff });
            assert_eq!(idx.locate(0xfff), Span::Gap { lo: 0, hi: 0xfff });
            assert_eq!(
                idx.locate(0x1100),
                Span::Gap {
                    lo: 0x1100,
                    hi: 0x1fff
                }
            );
            assert_eq!(
                idx.locate(0x1fff),
                Span::Gap {
                    lo: 0x1100,
                    hi: 0x1fff
                }
            );
            assert_eq!(idx.locate(0x2fff), extent(0x2000, 0x3000, 8));
            let top = Span::Gap {
                lo: 0x3000,
                hi: u64::MAX,
            };
            assert_eq!(idx.locate(0x3000), top);
            assert_eq!(idx.locate(u64::MAX), top);
            for _ in 0..REBUILD_AFTER {
                idx.resolve(0);
            }
        }
        assert!(!idx.dirty, "the second pass read the snapshot");
    }

    #[test]
    fn page_memo_fills_only_whole_pages() {
        let mut memo = PageMemo::new();
        assert_eq!(memo.lookup(0x1_0000), None, "cold memo");
        // An extent of two and a half pages: its first two pages fill,
        // the half page it shares with the gap above does not.
        let ext = Span::Extent {
            base: 0x1_0000,
            end: 0x1_2800,
            id: 4,
        };
        for addr in [0x1_0000, 0x1_1fff, 0x1_2000] {
            memo.fill(addr, ext);
        }
        assert_eq!(memo.lookup(0x1_0008), Some(Some(4)));
        assert_eq!(memo.lookup(0x1_1ff8), Some(Some(4)));
        assert_eq!(memo.lookup(0x1_2000), None, "straddling page");
        // A gap page fills as unmapped, a gap that ends inside a page
        // does not.
        memo.fill(
            0x4_0010,
            Span::Gap {
                lo: 0x3_0000,
                hi: 0x4_ffff,
            },
        );
        memo.fill(
            0x5_0010,
            Span::Gap {
                lo: 0x4_1000,
                hi: 0x5_0fef,
            },
        );
        assert_eq!(memo.lookup(0x4_0ff8), Some(None));
        assert_eq!(memo.lookup(0x5_0010), None);
        // Pages 16 MiB apart share a slot: the later fill wins, and the
        // earlier page misses rather than reading the other's id.
        let alias = 0x1_0000 + (PAGE_SLOTS as u64) * 4096;
        memo.fill(
            alias,
            Span::Gap {
                lo: alias,
                hi: alias + 0xfff,
            },
        );
        assert_eq!(memo.lookup(alias), Some(None));
        assert_eq!(memo.lookup(0x1_0000), None);
        // An id equal to the unmapped marker is never cached.
        memo.fill(
            0x7_0000,
            Span::Extent {
                base: 0x7_0000,
                end: 0x7_1000,
                id: UNMAPPED,
            },
        );
        assert_eq!(memo.lookup(0x7_0000), None);
    }

    #[test]
    fn page_memo_caches_the_top_page_of_the_address_space() {
        let mut memo = PageMemo::new();
        let top: u64 = !0xfff;
        memo.fill(
            u64::MAX,
            Span::Gap {
                lo: top,
                hi: u64::MAX,
            },
        );
        assert_eq!(memo.lookup(u64::MAX), Some(None));
        assert_eq!(memo.lookup(top), Some(None));
        // An extent cannot hold the top byte (its end is exclusive), so
        // the top page never fills as mapped.
        memo.invalidate(top, u64::MAX);
        assert_eq!(memo.lookup(top), None);
        memo.fill(
            top,
            Span::Extent {
                base: top,
                end: u64::MAX,
                id: 1,
            },
        );
        assert_eq!(memo.lookup(top), None);
    }

    #[test]
    fn page_memo_invalidates_exactly_the_overlapped_pages() {
        let mut memo = PageMemo::new();
        let gap = Span::Gap {
            lo: 0,
            hi: 0xff_ffff,
        };
        for page in 0..16u64 {
            memo.fill(page << 12, gap);
        }
        // A 16-byte extent straddling pages 3 and 4 clears both, and
        // nothing else.
        memo.invalidate(0x3ff8, 0x4008);
        for page in 0..16u64 {
            let want = (!matches!(page, 3 | 4)).then_some(None);
            assert_eq!(memo.lookup(page << 12), want, "page {page}");
        }
        // A slot holding an aliasing page is left alone.
        memo.invalidate(
            0x5000 + (PAGE_SLOTS as u64) * 4096,
            0x5001 + (PAGE_SLOTS as u64) * 4096,
        );
        assert_eq!(memo.lookup(0x5000), Some(None));
        // An empty extent touches nothing.
        memo.invalidate(0x6000, 0x6000);
        assert_eq!(memo.lookup(0x6000), Some(None));
    }

    #[test]
    fn page_memo_clears_every_slot_for_an_extent_of_all_slots_or_more() {
        let gap = Span::Gap {
            lo: 0,
            hi: u64::MAX,
        };
        let pages = PAGE_SLOTS as u64;
        let filled = || {
            let mut memo = PageMemo::new();
            for page in 0..pages {
                memo.fill((page + 7 * pages) << 12, gap);
            }
            memo
        };
        // One page short of the table: the slot of the page just past
        // the extent survives, every other one clears.
        let mut memo = filled();
        memo.invalidate((7 * pages) << 12, (8 * pages - 1) << 12);
        assert_eq!(memo.lookup((8 * pages - 1) << 12), Some(None));
        assert_eq!(memo.lookup((7 * pages) << 12), None);
        // A whole table's worth of pages elsewhere in the address space
        // clears every slot, aliased or not; so does a huge extent.
        for (base, end) in [(0, pages << 12), (1 << 40, u64::MAX)] {
            let mut memo = filled();
            memo.invalidate(base, end);
            for page in 0..pages {
                assert_eq!(memo.lookup((page + 7 * pages) << 12), None);
            }
        }
    }

    /// The satellite property test: randomized alloc/free/lookup
    /// interleavings cross-checked against a naive `BTreeMap` oracle,
    /// including lookups landing exactly on extent boundaries and in
    /// freed gaps. Seeded, so it never flakes.
    #[test]
    fn randomized_churn_matches_btreemap_oracle() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(0xEF0C ^ seed);
            let mut idx = EpochIndex::new();
            let mut oracle: BTreeMap<Addr, (Addr, u32)> = BTreeMap::new();
            let mut next_id = 0u32;
            // Small address universe so overlaps, reuses and adjacency
            // are all common.
            let slot_base = |s: u64| 0x4_0000 + s * 0x100;
            for step in 0..4_000u32 {
                let op = rng.next_u64() % 10;
                if op < 3 {
                    // Alloc: 1..=4 slots starting at a random slot.
                    let s = rng.next_u64() % 64;
                    let len = 1 + rng.next_u64() % 4;
                    let (base, end) = (slot_base(s), slot_base(s + len));
                    let oracle_overlap = oracle
                        .range(..end)
                        .next_back()
                        .is_some_and(|(_, &(e, _))| e > base);
                    match idx.insert(base, end, next_id) {
                        Ok(()) => {
                            assert!(!oracle_overlap, "oracle saw an overlap at {base:#x}");
                            oracle.insert(base, (end, next_id));
                            next_id += 1;
                        }
                        Err(o) => {
                            assert!(oracle_overlap, "index rejected a clean insert: {o}");
                        }
                    }
                } else if op < 5 {
                    // Free a random (maybe dead) slot base.
                    let base = slot_base(rng.next_u64() % 68);
                    assert_eq!(
                        idx.remove(base),
                        oracle.remove(&base),
                        "remove {base:#x} at step {step}"
                    );
                } else {
                    // Lookup: bias toward boundaries of a random slot.
                    let s = rng.next_u64() % 68;
                    let addr = match rng.next_u64() % 4 {
                        0 => slot_base(s),                          // exact base
                        1 => slot_base(s + 1) - 1,                  // last byte
                        2 => slot_base(s + 1),                      // one past end
                        _ => slot_base(s) + rng.next_u64() % 0x100, // interior
                    };
                    let want = oracle
                        .range(..=addr)
                        .next_back()
                        .and_then(|(&b, &(e, id))| (addr < e).then_some((b, e, id)));
                    assert_eq!(idx.resolve(addr), want, "resolve {addr:#x} at step {step}");
                    let gap = || Span::Gap {
                        lo: oracle
                            .range(..=addr)
                            .next_back()
                            .map_or(0, |(_, &(e, _))| e),
                        hi: oracle
                            .range(addr + 1..)
                            .next()
                            .map_or(Addr::MAX, |(&b, _)| b - 1),
                    };
                    let span =
                        want.map_or_else(gap, |(base, end, id)| Span::Extent { base, end, id });
                    assert_eq!(idx.locate(addr), span, "locate {addr:#x} at step {step}");
                }
                assert_eq!(idx.len(), oracle.len());
            }
            // Drain everything: freed gaps resolve to nothing.
            let bases: Vec<Addr> = oracle.keys().copied().collect();
            for base in bases {
                let (end, _) = oracle.remove(&base).unwrap();
                assert!(idx.remove(base).is_some());
                assert_eq!(idx.resolve(base), None);
                assert_eq!(idx.resolve(end - 1), None);
            }
            assert!(idx.is_empty());
        }
    }
}
