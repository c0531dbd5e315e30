//! Arena-based red-black tree over heap-block extents.
//!
//! The paper keeps heap-block extents "in a red-black tree ... since this
//! data will change as allocations and deallocations take place"
//! (section 2.2). This is a classic CLRS red-black tree, keyed by block
//! base address and carrying the block's end address and object id, built
//! on an index arena with a sentinel NIL node so the simulated memory
//! footprint is explicit: node `i` lives at a fixed simulated address and
//! every operation records which nodes it touched in an
//! [`AccessTrace`], so the caller can replay that traffic through the
//! simulated cache.

use cachescope_sim::ExtentError;

use crate::object::ObjectId;
use crate::trace::AccessTrace;
use crate::Addr;

/// Simulated bytes occupied by one tree node (one cache line).
pub const NODE_BYTES: u64 = 64;

/// Nodes per arena segment. Segment 0 is the 4 MiB block reserved up
/// front in the instrumentation segment (the historical 64Ki-block cap);
/// spill segments are fixed 4 MiB reservations laid out downward from
/// [`cachescope_sim::address_space::INSTR_LIMIT`], so growing never moves
/// an existing node's simulated address and never collides with the
/// upward bump allocator until the whole 256 MiB segment is exhausted.
const SEG_NODES: u32 = 64 * 1024;
const SEG_SHIFT: u32 = 16;
const SEG_MASK: u32 = SEG_NODES - 1;
/// Simulated bytes per arena segment (4 MiB).
const SEG_BYTES: u64 = SEG_NODES as u64 * NODE_BYTES;
/// Default segment cap: 1 base + 31 spill segments ≈ 2M live blocks,
/// occupying at most the top 124 MiB of the 256 MiB instrumentation
/// segment.
const DEFAULT_MAX_SEGMENTS: u32 = 32;

/// Why [`RbTree::insert`] refused a block. Either way the tree and the
/// trace are left as they were, so instrumentation can drop the block
/// and keep measuring instead of aborting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// The shared extent rule refused it: empty, wrapping, or
    /// overlapping a live block (the lowest such is named).
    Extent(ExtentError),
    /// The node arena is at its segment cap: `live_blocks` live of a
    /// hard node `capacity` (sentinel excluded).
    ArenaFull { live_blocks: usize, capacity: usize },
}

const NIL: u32 = 0;

#[derive(Debug, Clone, Copy)]
struct Node {
    key: Addr, // block base
    end: Addr, // block end (exclusive)
    id: u32,
    red: bool,
    left: u32,
    right: u32,
    parent: u32,
}

const EMPTY: Node = Node {
    key: 0,
    end: 0,
    id: 0,
    red: false,
    left: NIL,
    right: NIL,
    parent: NIL,
};

/// A red-black tree mapping heap-block base addresses to `(end, id)`.
#[derive(Debug, Clone)]
pub struct RbTree {
    nodes: Vec<Node>,
    root: u32,
    free: Vec<u32>,
    len: usize,
    /// Base simulated address of the node arena (segment 0).
    sim_base: Addr,
    /// Arena growth cap, in segments of [`SEG_NODES`] nodes.
    max_segments: u32,
}

impl RbTree {
    /// Create an empty tree whose node arena begins at simulated address
    /// `sim_base` (within the instrumentation segment). The arena grows
    /// by spill segments up to the default cap ([`DEFAULT_MAX_SEGMENTS`]).
    pub fn new(sim_base: Addr) -> Self {
        Self::with_segment_cap(sim_base, DEFAULT_MAX_SEGMENTS)
    }

    /// Like [`RbTree::new`] with an explicit segment cap (`1` = the
    /// historical fixed 64Ki-node arena, no growth).
    pub fn with_segment_cap(sim_base: Addr, max_segments: u32) -> Self {
        RbTree {
            nodes: vec![EMPTY], // index 0 is the sentinel
            root: NIL,
            free: Vec::new(),
            len: 0,
            sim_base,
            max_segments: max_segments.max(1),
        }
    }

    /// Hard node capacity under the segment cap (sentinel excluded).
    pub fn capacity(&self) -> usize {
        (self.max_segments as usize * SEG_NODES as usize) - 1
    }

    /// Arena segments currently backed (1 base + spill).
    pub fn segments(&self) -> u32 {
        // check:allow(node indices are u32 by construction; the arena caps at max_segments << SEG_SHIFT)
        ((self.nodes.len() as u32).saturating_sub(1) >> SEG_SHIFT) + 1
    }

    /// Number of live blocks in the tree.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Simulated address of node `n`. Segment 0 keeps the historical
    /// `sim_base + n * NODE_BYTES` layout; spill segments sit top-down
    /// from the end of the instrumentation segment.
    #[inline]
    fn sim_addr(&self, n: u32) -> Addr {
        let seg = n >> SEG_SHIFT;
        if seg == 0 {
            self.sim_base + n as u64 * NODE_BYTES
        } else {
            let spill_base = cachescope_sim::address_space::INSTR_LIMIT - seg as u64 * SEG_BYTES;
            spill_base + (n & SEG_MASK) as u64 * NODE_BYTES
        }
    }

    /// Simulated size of the node arena (for footprint reporting).
    pub fn footprint_bytes(&self) -> u64 {
        self.nodes.len() as u64 * NODE_BYTES
    }

    fn alloc_node(&mut self, key: Addr, end: Addr, id: ObjectId) -> u32 {
        let node = Node {
            key,
            end,
            id: id.0,
            red: true,
            left: NIL,
            right: NIL,
            parent: NIL,
        };
        if let Some(n) = self.free.pop() {
            self.nodes[n as usize] = node;
            n
        } else {
            self.nodes.push(node);
            // check:allow(node indices are u32 by construction; the arena caps at max_segments << SEG_SHIFT)
            (self.nodes.len() - 1) as u32
        }
    }

    #[inline]
    fn n(&self, i: u32) -> &Node {
        &self.nodes[i as usize]
    }

    #[inline]
    fn nm(&mut self, i: u32) -> &mut Node {
        &mut self.nodes[i as usize]
    }

    fn left_rotate(&mut self, x: u32, trace: &mut AccessTrace) {
        trace.write(self.sim_addr(x));
        let y = self.n(x).right;
        trace.write(self.sim_addr(y));
        let yl = self.n(y).left;
        self.nm(x).right = yl;
        if yl != NIL {
            trace.write(self.sim_addr(yl));
            self.nm(yl).parent = x;
        }
        let xp = self.n(x).parent;
        self.nm(y).parent = xp;
        if xp == NIL {
            self.root = y;
        } else {
            trace.write(self.sim_addr(xp));
            if self.n(xp).left == x {
                self.nm(xp).left = y;
            } else {
                self.nm(xp).right = y;
            }
        }
        self.nm(y).left = x;
        self.nm(x).parent = y;
    }

    fn right_rotate(&mut self, x: u32, trace: &mut AccessTrace) {
        trace.write(self.sim_addr(x));
        let y = self.n(x).left;
        trace.write(self.sim_addr(y));
        let yr = self.n(y).right;
        self.nm(x).left = yr;
        if yr != NIL {
            trace.write(self.sim_addr(yr));
            self.nm(yr).parent = x;
        }
        let xp = self.n(x).parent;
        self.nm(y).parent = xp;
        if xp == NIL {
            self.root = y;
        } else {
            trace.write(self.sim_addr(xp));
            if self.n(xp).left == x {
                self.nm(xp).left = y;
            } else {
                self.nm(xp).right = y;
            }
        }
        self.nm(y).right = x;
        self.nm(x).parent = y;
    }

    /// Insert the block `[base, end)` with object id `id`, if the shared
    /// extent rule ([`cachescope_sim::admit`]) lets it go live. The
    /// descent to the new leaf passes both live blocks beside it, the
    /// ones the rule reads. A refusal, or [`Refused::ArenaFull`] when
    /// every node under the segment cap is live, leaves the tree as it
    /// was and the trace as it found it.
    pub fn insert(
        &mut self,
        base: Addr,
        end: Addr,
        id: ObjectId,
        trace: &mut AccessTrace,
    ) -> Result<(), Refused> {
        if self.free.is_empty() && self.nodes.len() >= (self.max_segments as usize) << SEG_SHIFT {
            return Err(Refused::ArenaFull {
                live_blocks: self.len,
                capacity: self.capacity(),
            });
        }
        let traced = trace.reads.len();
        let (mut below, mut above) = (NIL, NIL);
        let mut parent = NIL;
        let mut cur = self.root;
        while cur != NIL {
            trace.read(self.sim_addr(cur));
            parent = cur;
            if base < self.n(cur).key {
                (above, cur) = (cur, self.n(cur).left);
            } else {
                (below, cur) = (cur, self.n(cur).right);
            }
        }
        let extent = |n: u32| (n != NIL).then(|| (self.n(n).key, self.n(n).end));
        if let Err(e) = cachescope_sim::admit(base, end, extent(below), extent(above)) {
            trace.reads.truncate(traced);
            return Err(Refused::Extent(e));
        }
        let z = self.alloc_node(base, end, id);
        trace.write(self.sim_addr(z));
        self.nm(z).parent = parent;
        if parent == NIL {
            self.root = z;
        } else {
            trace.write(self.sim_addr(parent));
            if base < self.n(parent).key {
                self.nm(parent).left = z;
            } else {
                self.nm(parent).right = z;
            }
        }
        self.len += 1;
        self.insert_fixup(z, trace);
        Ok(())
    }

    fn insert_fixup(&mut self, mut z: u32, trace: &mut AccessTrace) {
        while self.n(self.n(z).parent).red {
            let p = self.n(z).parent;
            let g = self.n(p).parent;
            trace.read(self.sim_addr(p));
            trace.read(self.sim_addr(g));
            if p == self.n(g).left {
                let y = self.n(g).right; // uncle
                if self.n(y).red {
                    trace.write(self.sim_addr(p));
                    trace.write(self.sim_addr(y));
                    trace.write(self.sim_addr(g));
                    self.nm(p).red = false;
                    self.nm(y).red = false;
                    self.nm(g).red = true;
                    z = g;
                } else {
                    if z == self.n(p).right {
                        z = p;
                        self.left_rotate(z, trace);
                    }
                    let p = self.n(z).parent;
                    let g = self.n(p).parent;
                    self.nm(p).red = false;
                    self.nm(g).red = true;
                    trace.write(self.sim_addr(p));
                    trace.write(self.sim_addr(g));
                    self.right_rotate(g, trace);
                }
            } else {
                let y = self.n(g).left; // uncle
                if self.n(y).red {
                    trace.write(self.sim_addr(p));
                    trace.write(self.sim_addr(y));
                    trace.write(self.sim_addr(g));
                    self.nm(p).red = false;
                    self.nm(y).red = false;
                    self.nm(g).red = true;
                    z = g;
                } else {
                    if z == self.n(p).left {
                        z = p;
                        self.right_rotate(z, trace);
                    }
                    let p = self.n(z).parent;
                    let g = self.n(p).parent;
                    self.nm(p).red = false;
                    self.nm(g).red = true;
                    trace.write(self.sim_addr(p));
                    trace.write(self.sim_addr(g));
                    self.left_rotate(g, trace);
                }
            }
        }
        let r = self.root;
        self.nm(r).red = false;
    }

    fn minimum(&self, mut x: u32) -> u32 {
        while self.n(x).left != NIL {
            x = self.n(x).left;
        }
        x
    }

    /// The smallest base and largest end over all live blocks (they are
    /// disjoint, so the rightmost one ends last); untraced.
    pub fn extent(&self) -> Option<(Addr, Addr)> {
        let mut hi = self.root;
        while self.n(hi).right != NIL {
            hi = self.n(hi).right;
        }
        (self.root != NIL).then(|| (self.n(self.minimum(self.root)).key, self.n(hi).end))
    }

    fn transplant(&mut self, u: u32, v: u32) {
        let up = self.n(u).parent;
        if up == NIL {
            self.root = v;
        } else if self.n(up).left == u {
            self.nm(up).left = v;
        } else {
            self.nm(up).right = v;
        }
        // The sentinel's parent is deliberately writable (CLRS).
        self.nm(v).parent = up;
    }

    fn find(&self, base: Addr, trace: &mut AccessTrace) -> Option<u32> {
        let mut cur = self.root;
        while cur != NIL {
            trace.read(self.sim_addr(cur));
            let k = self.n(cur).key;
            if base == k {
                return Some(cur);
            }
            cur = if base < k {
                self.n(cur).left
            } else {
                self.n(cur).right
            };
        }
        None
    }

    /// Remove the block based at `base`, returning its `(end, id)`.
    pub fn remove(&mut self, base: Addr, trace: &mut AccessTrace) -> Option<(Addr, ObjectId)> {
        let z = self.find(base, trace)?;
        let result = (self.n(z).end, ObjectId(self.n(z).id));
        trace.write(self.sim_addr(z));

        let mut y = z;
        let mut y_red = self.n(y).red;
        let x;
        if self.n(z).left == NIL {
            x = self.n(z).right;
            self.transplant(z, x);
        } else if self.n(z).right == NIL {
            x = self.n(z).left;
            self.transplant(z, x);
        } else {
            y = self.minimum(self.n(z).right);
            trace.read(self.sim_addr(y));
            y_red = self.n(y).red;
            x = self.n(y).right;
            if self.n(y).parent == z {
                self.nm(x).parent = y;
            } else {
                self.transplant(y, x);
                let zr = self.n(z).right;
                self.nm(y).right = zr;
                self.nm(zr).parent = y;
            }
            self.transplant(z, y);
            let zl = self.n(z).left;
            self.nm(y).left = zl;
            self.nm(zl).parent = y;
            let z_red = self.n(z).red;
            self.nm(y).red = z_red;
            trace.write(self.sim_addr(y));
        }
        if !y_red {
            self.delete_fixup(x, trace);
        }
        // Reset the sentinel defensively; fixup may have written its parent.
        self.nodes[NIL as usize] = EMPTY;
        self.free.push(z);
        self.len -= 1;
        Some(result)
    }

    fn delete_fixup(&mut self, mut x: u32, trace: &mut AccessTrace) {
        while x != self.root && !self.n(x).red {
            let p = self.n(x).parent;
            trace.read(self.sim_addr(p));
            if x == self.n(p).left {
                let mut w = self.n(p).right;
                if self.n(w).red {
                    self.nm(w).red = false;
                    self.nm(p).red = true;
                    trace.write(self.sim_addr(w));
                    trace.write(self.sim_addr(p));
                    self.left_rotate(p, trace);
                    w = self.n(self.n(x).parent).right;
                }
                if !self.n(self.n(w).left).red && !self.n(self.n(w).right).red {
                    self.nm(w).red = true;
                    trace.write(self.sim_addr(w));
                    x = self.n(x).parent;
                } else {
                    if !self.n(self.n(w).right).red {
                        let wl = self.n(w).left;
                        self.nm(wl).red = false;
                        self.nm(w).red = true;
                        trace.write(self.sim_addr(wl));
                        trace.write(self.sim_addr(w));
                        self.right_rotate(w, trace);
                        w = self.n(self.n(x).parent).right;
                    }
                    let p = self.n(x).parent;
                    let p_red = self.n(p).red;
                    self.nm(w).red = p_red;
                    self.nm(p).red = false;
                    let wr = self.n(w).right;
                    self.nm(wr).red = false;
                    trace.write(self.sim_addr(w));
                    trace.write(self.sim_addr(p));
                    trace.write(self.sim_addr(wr));
                    self.left_rotate(p, trace);
                    x = self.root;
                }
            } else {
                let mut w = self.n(p).left;
                if self.n(w).red {
                    self.nm(w).red = false;
                    self.nm(p).red = true;
                    trace.write(self.sim_addr(w));
                    trace.write(self.sim_addr(p));
                    self.right_rotate(p, trace);
                    w = self.n(self.n(x).parent).left;
                }
                if !self.n(self.n(w).left).red && !self.n(self.n(w).right).red {
                    self.nm(w).red = true;
                    trace.write(self.sim_addr(w));
                    x = self.n(x).parent;
                } else {
                    if !self.n(self.n(w).left).red {
                        let wr = self.n(w).right;
                        self.nm(wr).red = false;
                        self.nm(w).red = true;
                        trace.write(self.sim_addr(wr));
                        trace.write(self.sim_addr(w));
                        self.left_rotate(w, trace);
                        w = self.n(self.n(x).parent).left;
                    }
                    let p = self.n(x).parent;
                    let p_red = self.n(p).red;
                    self.nm(w).red = p_red;
                    self.nm(p).red = false;
                    let wl = self.n(w).left;
                    self.nm(wl).red = false;
                    trace.write(self.sim_addr(w));
                    trace.write(self.sim_addr(p));
                    trace.write(self.sim_addr(wl));
                    self.right_rotate(p, trace);
                    x = self.root;
                }
            }
        }
        self.nm(x).red = false;
    }

    /// Find the block containing `addr`: the greatest base `<= addr` whose
    /// end is `> addr`. Returns `(base, end, id)`.
    pub fn lookup(&self, addr: Addr, trace: &mut AccessTrace) -> Option<(Addr, Addr, ObjectId)> {
        let mut cur = self.root;
        let mut best: Option<u32> = None;
        while cur != NIL {
            trace.read(self.sim_addr(cur));
            let k = self.n(cur).key;
            if k <= addr {
                best = Some(cur);
                cur = self.n(cur).right;
            } else {
                cur = self.n(cur).left;
            }
        }
        let b = best?;
        let node = self.n(b);
        (addr < node.end).then_some((node.key, node.end, ObjectId(node.id)))
    }

    /// Visit every block with base in `[lo, hi)` in ascending base order.
    pub fn for_each_in<F: FnMut(Addr, Addr, ObjectId)>(
        &self,
        lo: Addr,
        hi: Addr,
        trace: &mut AccessTrace,
        mut f: F,
    ) {
        self.visit_in(self.root, lo, hi, trace, &mut f);
    }

    fn visit_in<F: FnMut(Addr, Addr, ObjectId)>(
        &self,
        node: u32,
        lo: Addr,
        hi: Addr,
        trace: &mut AccessTrace,
        f: &mut F,
    ) {
        if node == NIL {
            return;
        }
        trace.read(self.sim_addr(node));
        let n = self.n(node);
        if n.key >= lo {
            self.visit_in(n.left, lo, hi, trace, f);
        }
        if n.key >= lo && n.key < hi {
            f(n.key, n.end, ObjectId(n.id));
        }
        if n.key < hi {
            self.visit_in(n.right, lo, hi, trace, f);
        }
    }

    /// All blocks in ascending base order (diagnostics, reporting).
    pub fn iter_all(&self) -> Vec<(Addr, Addr, ObjectId)> {
        let mut out = Vec::with_capacity(self.len);
        let mut trace = AccessTrace::new();
        self.for_each_in(0, Addr::MAX, &mut trace, |b, e, id| out.push((b, e, id)));
        out
    }

    /// Check every red-black invariant; panics with a description on
    /// violation. Intended for tests.
    pub fn validate(&self) {
        // check:allow(test-only invariant walk)
        assert!(!self.n(NIL).red, "sentinel must be black");
        if self.root != NIL {
            // check:allow(test-only invariant walk)
            assert!(!self.n(self.root).red, "root must be black");
            // check:allow(test-only invariant walk)
            assert_eq!(self.n(self.root).parent, NIL, "root parent must be NIL");
        }
        let mut count = 0;
        self.validate_node(self.root, None, None, &mut count);
        // check:allow(test-only invariant walk)
        assert_eq!(count, self.len, "len does not match node count");
    }

    /// Returns the black height of the subtree.
    fn validate_node(
        &self,
        node: u32,
        min: Option<Addr>,
        max: Option<Addr>,
        count: &mut usize,
    ) -> usize {
        if node == NIL {
            return 1;
        }
        *count += 1;
        let n = self.n(node);
        if let Some(m) = min {
            // check:allow(test-only invariant walk)
            assert!(n.key > m, "BST order violated at {:#x}", n.key);
        }
        if let Some(m) = max {
            // check:allow(test-only invariant walk)
            assert!(n.key < m, "BST order violated at {:#x}", n.key);
        }
        if n.red {
            // check:allow(test-only invariant walk)
            assert!(
                !self.n(n.left).red && !self.n(n.right).red,
                "red node {:#x} has a red child",
                n.key
            );
        }
        if n.left != NIL {
            // check:allow(test-only invariant walk)
            assert_eq!(self.n(n.left).parent, node, "broken parent link");
        }
        if n.right != NIL {
            // check:allow(test-only invariant walk)
            assert_eq!(self.n(n.right).parent, node, "broken parent link");
        }
        let lh = self.validate_node(n.left, min, Some(n.key), count);
        let rh = self.validate_node(n.right, Some(n.key), max, count);
        // check:allow(test-only invariant walk)
        assert_eq!(lh, rh, "black height mismatch at {:#x}", n.key);
        lh + usize::from(!n.red)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> RbTree {
        RbTree::new(0x7_0000_0000)
    }

    fn t() -> AccessTrace {
        AccessTrace::new()
    }

    #[test]
    fn empty_tree_lookups_fail() {
        let tr = tree();
        assert_eq!(tr.lookup(42, &mut t()), None);
        assert!(tr.is_empty());
        tr.validate();
    }

    #[test]
    fn single_insert_and_lookup() {
        let mut tr = tree();
        tr.insert(100, 200, ObjectId(7), &mut t()).unwrap();
        tr.validate();
        assert_eq!(tr.lookup(100, &mut t()), Some((100, 200, ObjectId(7))));
        assert_eq!(tr.lookup(199, &mut t()), Some((100, 200, ObjectId(7))));
        assert_eq!(tr.lookup(200, &mut t()), None);
        assert_eq!(tr.lookup(99, &mut t()), None);
    }

    #[test]
    fn ascending_inserts_stay_balanced() {
        let mut tr = tree();
        for i in 0..1000u64 {
            tr.insert(i * 100, i * 100 + 50, ObjectId(i as u32), &mut t())
                .unwrap();
            tr.validate();
        }
        assert_eq!(tr.len(), 1000);
        // Lookup path length must be logarithmic: record a trace.
        let mut trace = t();
        tr.lookup(99_900, &mut trace);
        assert!(
            trace.reads.len() <= 2 * 10 + 2,
            "path length {} too deep for 1000 nodes",
            trace.reads.len()
        );
    }

    #[test]
    fn descending_inserts_stay_balanced() {
        let mut tr = tree();
        for i in (0..500u64).rev() {
            tr.insert(i * 64, i * 64 + 64, ObjectId(i as u32), &mut t())
                .unwrap();
        }
        tr.validate();
        assert_eq!(tr.len(), 500);
    }

    #[test]
    fn lookup_respects_block_extent_gaps() {
        let mut tr = tree();
        tr.insert(100, 150, ObjectId(0), &mut t()).unwrap();
        tr.insert(200, 250, ObjectId(1), &mut t()).unwrap();
        assert_eq!(tr.lookup(175, &mut t()), None, "gap between blocks");
        assert_eq!(tr.lookup(225, &mut t()).unwrap().2, ObjectId(1));
    }

    #[test]
    fn remove_leaf_root_and_internal() {
        let mut tr = tree();
        for &k in &[50u64, 25, 75, 10, 30, 60, 90] {
            tr.insert(k, k + 5, ObjectId(k as u32), &mut t()).unwrap();
        }
        tr.validate();
        assert_eq!(tr.remove(10, &mut t()), Some((15, ObjectId(10))));
        tr.validate();
        assert_eq!(tr.remove(50, &mut t()), Some((55, ObjectId(50)))); // two children
        tr.validate();
        assert_eq!(tr.remove(25, &mut t()), Some((30, ObjectId(25))));
        tr.validate();
        assert_eq!(tr.len(), 4);
        assert_eq!(tr.remove(25, &mut t()), None, "double free detected");
    }

    #[test]
    fn remove_everything_in_mixed_order() {
        let mut tr = tree();
        let keys: Vec<u64> = (0..200).map(|i| (i * 37) % 2000).collect();
        for &k in &keys {
            tr.insert(k * 10 + 1, k * 10 + 9, ObjectId(k as u32), &mut t())
                .unwrap();
        }
        tr.validate();
        for &k in keys.iter().rev() {
            assert!(tr.remove(k * 10 + 1, &mut t()).is_some());
            tr.validate();
        }
        assert!(tr.is_empty());
        assert_eq!(tr.root, NIL);
    }

    #[test]
    fn freed_nodes_are_reused() {
        let mut tr = tree();
        tr.insert(10, 20, ObjectId(0), &mut t()).unwrap();
        let before = tr.footprint_bytes();
        tr.remove(10, &mut t()).unwrap();
        tr.insert(30, 40, ObjectId(1), &mut t()).unwrap();
        assert_eq!(tr.footprint_bytes(), before, "arena did not grow");
    }

    #[test]
    fn for_each_in_visits_range_in_order() {
        let mut tr = tree();
        for k in [5u64, 1, 9, 3, 7] {
            tr.insert(k * 100, k * 100 + 10, ObjectId(k as u32), &mut t())
                .unwrap();
        }
        let mut seen = Vec::new();
        tr.for_each_in(300, 900, &mut t(), |b, _, _| seen.push(b));
        assert_eq!(seen, vec![300, 500, 700]);
    }

    #[test]
    fn iter_all_is_sorted() {
        let mut tr = tree();
        for k in [50u64, 20, 80, 10, 60] {
            tr.insert(k, k + 1, ObjectId(0), &mut t()).unwrap();
        }
        let bases: Vec<Addr> = tr.iter_all().iter().map(|&(b, _, _)| b).collect();
        assert_eq!(bases, vec![10, 20, 50, 60, 80]);
    }

    /// A block at a live base is refused by the extent rule, naming the
    /// live block, and leaves the tree and the trace as they were.
    #[test]
    fn duplicate_base_is_refused() {
        let mut tr = tree();
        for k in [10u64, 40, 70] {
            tr.insert(k, k + 10, ObjectId(k as u32), &mut t()).unwrap();
        }
        let mut trace = t();
        trace.read(1);
        assert_eq!(
            tr.insert(40, 45, ObjectId(9), &mut trace),
            Err(Refused::Extent(ExtentError::Overlap {
                base: 40,
                end: 45,
                other_base: 40,
                other_end: 50,
            }))
        );
        assert_eq!((trace.reads, trace.writes), (vec![1], vec![]));
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.lookup(44, &mut t()), Some((40, 50, ObjectId(40))));
        tr.validate();
    }

    /// An empty or wrapped block is refused, typed, instead of aborting.
    #[test]
    fn empty_block_is_refused() {
        let mut tr = tree();
        tr.insert(100, 200, ObjectId(0), &mut t()).unwrap();
        for (base, end) in [(10, 10), (300, 250), (150, 150)] {
            let mut trace = t();
            assert_eq!(
                tr.insert(base, end, ObjectId(1), &mut trace),
                Err(Refused::Extent(ExtentError::Empty { base, end }))
            );
            assert!(trace.is_empty(), "{base}..{end} charged traffic");
        }
        assert_eq!(tr.iter_all(), vec![(100, 200, ObjectId(0))]);
    }

    #[test]
    fn default_cap_allows_growth_past_the_base_segment() {
        let tr = tree();
        assert_eq!(tr.capacity(), 32 * 65_536 - 1);
        assert_eq!(tr.segments(), 1);
    }

    #[test]
    fn arena_grows_into_spill_segments_past_64ki_blocks() {
        use cachescope_sim::address_space::INSTR_LIMIT;
        let sim_base = 0x7_0000_0000u64;
        let mut tr = RbTree::with_segment_cap(sim_base, 2);
        let n = 70_000u64;
        let mut trace = t();
        for i in 0..n {
            tr.insert(i * 16, i * 16 + 8, ObjectId(i as u32), &mut trace)
                .unwrap();
        }
        assert_eq!(tr.len(), n as usize);
        assert_eq!(tr.segments(), 2, "second segment backed");
        tr.validate();

        // A lookup reaching a spilled node records addresses inside the
        // top-down spill window, never aliasing segment 0 or the bump
        // allocator's territory below it.
        let seg0_end = sim_base + SEG_BYTES;
        let spill_lo = INSTR_LIMIT - SEG_BYTES;
        let mut probe = t();
        assert_eq!(
            tr.lookup((n - 1) * 16, &mut probe).unwrap().2,
            ObjectId((n - 1) as u32)
        );
        let mut saw_spill = false;
        for &a in &probe.reads {
            let in_seg0 = a >= sim_base && a < seg0_end;
            let in_spill = a >= spill_lo && a < INSTR_LIMIT;
            assert!(
                in_seg0 || in_spill,
                "trace address {a:#x} outside both segments"
            );
            saw_spill |= in_spill;
        }
        assert!(
            saw_spill,
            "highest block's node must live in the spill segment"
        );

        // Removal works across the segment boundary and empties cleanly.
        for i in 0..n {
            assert!(tr.remove(i * 16, &mut trace).is_some());
        }
        assert!(tr.is_empty());
    }

    #[test]
    fn arena_full_is_a_typed_error_at_the_segment_cap() {
        let mut tr = RbTree::with_segment_cap(0x7_0000_0000, 1);
        let mut trace = t();
        let cap = tr.capacity() as u64;
        assert_eq!(cap, 65_535);
        for i in 0..cap {
            tr.insert(i * 16, i * 16 + 8, ObjectId(i as u32), &mut trace)
                .unwrap();
        }
        assert_eq!(tr.segments(), 1, "cap 1 never spills");
        let before_reads = trace.reads.len();
        let err = tr
            .insert(cap * 16, cap * 16 + 8, ObjectId(0), &mut trace)
            .unwrap_err();
        assert_eq!(
            err,
            Refused::ArenaFull {
                live_blocks: 65_535,
                capacity: 65_535
            }
        );
        assert_eq!(
            trace.reads.len(),
            before_reads,
            "a rejected insert charges no simulated traffic"
        );
        // Freeing any block reopens exactly one slot.
        assert!(tr.remove(0, &mut trace).is_some());
        tr.insert(cap * 16, cap * 16 + 8, ObjectId(1), &mut trace)
            .unwrap();
        assert_eq!(tr.len(), 65_535);
        assert!(tr
            .insert(cap * 16 + 32, cap * 16 + 40, ObjectId(2), &mut trace)
            .is_err());
    }

    #[test]
    fn traces_report_instrumentation_segment_addresses() {
        let mut tr = tree();
        let mut trace = t();
        tr.insert(10, 20, ObjectId(0), &mut trace).unwrap();
        for &a in trace.reads.iter().chain(trace.writes.iter()) {
            assert!(a >= 0x7_0000_0000, "trace address {a:#x} outside arena");
        }
        assert!(!trace.writes.is_empty(), "insert writes at least one node");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use cachescope_sim::rng::SmallRng;
    use std::collections::BTreeMap;

    // Seeded randomized replays against `BTreeMap` (formerly
    // property-based; deterministic so results never flake).
    #[test]
    fn matches_btreemap_model() {
        let mut rng = SmallRng::seed_from_u64(0xB7EE);
        for case in 0..64 {
            let mut tr = RbTree::new(0x7_0000_0000);
            let mut model: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
            let mut next_id = 0u32;
            let mut trace = AccessTrace::new();

            let ops = rng.random_range(1usize..300);
            for _ in 0..ops {
                match rng.random_range(0usize..3) {
                    0 => {
                        // Blocks of width 8 at multiples of 10: never overlap.
                        let base = rng.random_range(0u64..200) * 10;
                        if let std::collections::btree_map::Entry::Vacant(e) = model.entry(base) {
                            tr.insert(base, base + 8, ObjectId(next_id), &mut trace)
                                .unwrap();
                            e.insert((base + 8, next_id));
                            next_id += 1;
                        }
                    }
                    1 => {
                        let base = rng.random_range(0u64..200) * 10;
                        let got = tr.remove(base, &mut trace);
                        let want = model.remove(&base);
                        assert_eq!(got.map(|(e, id)| (e, id.0)), want, "case {case}");
                    }
                    _ => {
                        let addr = rng.random_range(0u64..2000);
                        let got = tr.lookup(addr, &mut trace);
                        let want = model
                            .range(..=addr)
                            .next_back()
                            .filter(|&(_, &(end, _))| addr < end)
                            .map(|(&b, &(e, id))| (b, e, ObjectId(id)));
                        assert_eq!(got, want, "case {case}");
                    }
                }
                tr.validate();
                assert_eq!(tr.len(), model.len(), "case {case}");
            }

            // Final full-order agreement.
            let all: Vec<u64> = tr.iter_all().iter().map(|&(b, _, _)| b).collect();
            let want: Vec<u64> = model.keys().copied().collect();
            assert_eq!(all, want, "case {case}");
        }
    }
}
