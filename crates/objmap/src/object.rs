//! Program-object identity as seen by the measurement tool.

use crate::Addr;
use cachescope_sim::ObjectKind;

/// Index of an object in an [`crate::ObjectMap`]'s registry.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl ObjectId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One program object the tool knows about.
///
/// Global/static variables come from the symbol table; heap blocks from
/// instrumented allocation functions. A freed heap block stays in the
/// registry (it may have accumulated miss counts worth reporting) but is
/// no longer `live` and no longer resolvable by address.
#[derive(Debug, Clone)]
pub struct MemoryObject {
    pub id: ObjectId,
    /// Source-level name; anonymous heap blocks display as their
    /// hexadecimal base address (e.g. `0x141020000`), as in the paper.
    pub name: String,
    pub base: Addr,
    pub size: u64,
    pub kind: ObjectKind,
    pub live: bool,
}

impl MemoryObject {
    /// Exclusive end address.
    #[inline]
    pub fn end(&self) -> Addr {
        self.base + self.size
    }

    /// Does the live object contain `addr`?
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        self.live && addr >= self.base && addr < self.end()
    }

    /// Display name for an anonymous heap block at `base`.
    pub fn anon_name(base: Addr) -> String {
        format!("{base:#x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anon_name_matches_paper_format() {
        assert_eq!(MemoryObject::anon_name(0x1_4102_0000), "0x141020000");
    }

    #[test]
    fn dead_object_contains_nothing() {
        let mut o = MemoryObject {
            id: ObjectId(0),
            name: "x".into(),
            base: 100,
            size: 10,
            kind: ObjectKind::Heap,
            live: true,
        };
        assert!(o.contains(105));
        o.live = false;
        assert!(!o.contains(105));
    }
}
