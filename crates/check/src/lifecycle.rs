//! Allocation-lifecycle and object-extent analysis (no simulation).
//!
//! A linear abstract interpretation over a program's event stream: the
//! only state tracked is the set of live heap blocks, the set of freed
//! (not yet re-allocated) extents, and the static object extents — enough
//! to refute the assumptions miss attribution rests on (disjoint object
//! extents, well-bracketed alloc/free, no references into freed memory)
//! without running the cache model.
//!
//! Codes: `CS-W001` alloc over a live block, `CS-W002` free without a
//! matching allocation, `CS-W003` reference into freed memory, `CS-W004`
//! blocks leaked at exit (warning), `CS-W005` object extents overlap,
//! `CS-W006` zero-sized extent (warning), and `CS-P001` for an
//! allocation whose extent wraps the address space (the code
//! [`crate::pmu::check_objects`] gives a wrapping static).

use std::collections::BTreeMap;

use cachescope_sim::{Event, ObjectDecl};

use crate::diag::Diagnostic;

/// Stop repeating a finding after this many instances of one code per
/// input (a corrupt trace can violate an invariant on every line; the
/// first few instances plus a count carry all the signal).
const PER_CODE_CAP: usize = 25;

/// Streaming lifecycle checker. Feed events in program order via
/// [`LifecycleChecker::observe`], then call [`LifecycleChecker::finish`].
pub struct LifecycleChecker {
    source: String,
    /// Live heap blocks: base → (end, name).
    live: BTreeMap<u64, (u64, Option<String>)>,
    /// Freed-but-not-reallocated extents: base → end.
    freed: BTreeMap<u64, u64>,
    /// Static extents, sorted by base: (base, end, name).
    statics: Vec<(u64, u64, String)>,
    diags: Vec<Diagnostic>,
    counts: BTreeMap<&'static str, usize>,
}

/// Does `[a_lo, a_hi)` intersect `[b_lo, b_hi)`? Empty extents never do.
fn overlaps(a_lo: u64, a_hi: u64, b_lo: u64, b_hi: u64) -> bool {
    a_lo < b_hi && b_lo < a_hi
}

/// First entry of `map` (base → end) whose extent intersects
/// `[lo, hi)`, if any.
fn overlap_in(map: &BTreeMap<u64, u64>, lo: u64, hi: u64) -> Option<(u64, u64)> {
    if let Some((&b, &e)) = map.range(..=lo).next_back() {
        if overlaps(lo, hi, b, e) {
            return Some((b, e));
        }
    }
    map.range(lo..hi).next().map(|(&b, &e)| (b, e))
}

impl LifecycleChecker {
    /// Start a check over a program whose static objects are `statics`.
    /// Static-vs-static extent overlaps are reported immediately.
    pub fn new(source: impl Into<String>, statics: &[ObjectDecl]) -> Self {
        let source = source.into();
        let mut c = LifecycleChecker {
            source,
            live: BTreeMap::new(),
            freed: BTreeMap::new(),
            statics: Vec::new(),
            diags: Vec::new(),
            counts: BTreeMap::new(),
        };
        let mut sorted: Vec<(u64, u64, String)> = statics
            .iter()
            .map(|o| (o.base, o.base.saturating_add(o.size), o.name.clone()))
            .collect();
        sorted.sort_by_key(|&(b, e, _)| (b, e));
        for (i, (b, e, name)) in sorted.iter().enumerate() {
            if b == e {
                c.push(
                    Diagnostic::warning(
                        "CS-W006",
                        c.source.clone(),
                        format!("static object '{name}' at {b:#x} has zero size"),
                    )
                    .with_hint("zero-sized objects can never be attributed a miss"),
                );
            }
            if let Some((pb, pe, pname)) = sorted[..i].last() {
                if overlaps(*b, *e, *pb, *pe) {
                    c.push(
                        Diagnostic::error(
                            "CS-W005",
                            c.source.clone(),
                            format!(
                                "static objects '{pname}' [{pb:#x}, {pe:#x}) and '{name}' \
                                 [{b:#x}, {e:#x}) overlap"
                            ),
                        )
                        .with_hint("overlapping extents make miss attribution ambiguous"),
                    );
                }
            }
        }
        c.statics = sorted;
        c
    }

    fn push(&mut self, d: Diagnostic) {
        let n = self.counts.entry(d.code).or_insert(0);
        *n += 1;
        if *n <= PER_CODE_CAP {
            self.diags.push(d);
        }
    }

    /// Feed the next event. `pos` is a 1-based line number for text
    /// traces, or any monotone event position (reported as `event N`)
    /// for other sources; pass 0 to omit.
    pub fn observe(&mut self, ev: &Event, pos: u64) {
        match ev {
            Event::Alloc { base, size, name } => self.observe_alloc(*base, *size, name, pos),
            Event::Free { base } => self.observe_free(*base, pos),
            Event::Access(r) => self.observe_access(r.addr, u64::from(r.size), pos),
            Event::Compute(_) | Event::Phase(_) => {}
        }
    }

    fn observe_alloc(&mut self, base: u64, size: u64, name: &Option<String>, pos: u64) {
        let end = base.saturating_add(size);
        let label = name.clone().unwrap_or_else(|| format!("{base:#x}"));
        if size == 0 {
            self.push(
                Diagnostic::warning(
                    "CS-W006",
                    self.source.clone(),
                    format!("allocation '{label}' at {base:#x} has zero size"),
                )
                .at_line(pos),
            );
        }
        let what = format!("allocation '{label}'");
        if let Some(d) = crate::pmu::wrap_diag(&what, base, size, &self.source) {
            self.push(d.at_line(pos));
        }
        if let Some((b, (e, n))) = self
            .live
            .range(..=base)
            .next_back()
            .map(|(&b, v)| (b, v.clone()))
            .filter(|&(b, (e, _))| overlaps(base, end, b, e))
            .or_else(|| {
                self.live
                    .range(base..end)
                    .next()
                    .map(|(&b, v)| (b, v.clone()))
            })
        {
            let prev = n.unwrap_or_else(|| format!("{b:#x}"));
            self.push(
                Diagnostic::error(
                    "CS-W001",
                    self.source.clone(),
                    format!(
                        "allocation '{label}' [{base:#x}, {end:#x}) overlaps live block \
                         '{prev}' [{b:#x}, {e:#x})"
                    ),
                )
                .at_line(pos)
                .with_hint("double allocation: free the earlier block first"),
            );
        }
        for (sb, se, sname) in &self.statics {
            if overlaps(base, end, *sb, *se) {
                let msg = format!(
                    "allocation '{label}' [{base:#x}, {end:#x}) overlaps static object \
                     '{sname}' [{sb:#x}, {se:#x})"
                );
                self.push(
                    Diagnostic::error("CS-W005", self.source.clone(), msg)
                        .at_line(pos)
                        .with_hint("heap and static extents must be disjoint"),
                );
                break;
            }
        }
        // Re-allocation over freed space is legal: those extents are live
        // again (remove every freed extent this block intersects).
        let stale: Vec<u64> = self
            .freed
            .iter()
            .filter(|&(&b, &e)| overlaps(base, end, b, e))
            .map(|(&b, _)| b)
            .collect();
        for b in stale {
            self.freed.remove(&b);
        }
        self.live.insert(base, (end, name.clone()));
    }

    fn observe_free(&mut self, base: u64, pos: u64) {
        match self.live.remove(&base) {
            Some((end, _)) => {
                self.freed.insert(base, end);
            }
            None => {
                self.push(
                    Diagnostic::error(
                        "CS-W002",
                        self.source.clone(),
                        format!("free of {base:#x}, which has no live allocation"),
                    )
                    .at_line(pos)
                    .with_hint("double free, or a free whose alloc was never traced"),
                );
            }
        }
    }

    fn observe_access(&mut self, addr: u64, size: u64, pos: u64) {
        let hi = addr.saturating_add(size.max(1));
        if let Some((b, e)) = overlap_in(&self.freed, addr, hi) {
            self.push(
                Diagnostic::error(
                    "CS-W003",
                    self.source.clone(),
                    format!("access at {addr:#x} references freed block [{b:#x}, {e:#x})"),
                )
                .at_line(pos)
                .with_hint("use-after-free: misses here attribute to a dead object"),
            );
            // One report per freed extent: a loop over a stale pointer
            // would otherwise flood the output.
            self.freed.remove(&b);
        }
    }

    /// Finish the analysis. `ended` says the event stream ran to its
    /// natural end — leak findings are only meaningful then (a run
    /// truncated by an event cap has trivially "unfreed" blocks).
    pub fn finish(mut self, ended: bool) -> Vec<Diagnostic> {
        if ended && !self.live.is_empty() {
            let names: Vec<String> = self
                .live
                .iter()
                .take(3)
                .map(|(b, (_, n))| n.clone().unwrap_or_else(|| format!("{b:#x}")))
                .collect();
            let d = Diagnostic::warning(
                "CS-W004",
                self.source.clone(),
                format!(
                    "{} heap block(s) still live at exit (first: {})",
                    self.live.len(),
                    names.join(", ")
                ),
            )
            .with_hint("leaked blocks inflate the object map for the whole run");
            self.push(d);
        }
        for (&code, &n) in &self.counts {
            if n > PER_CODE_CAP {
                let d = Diagnostic::warning(
                    code,
                    self.source.clone(),
                    format!("{} further {code} finding(s) suppressed", n - PER_CODE_CAP),
                );
                self.diags.push(d);
            }
        }
        self.diags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachescope_sim::MemRef;

    fn alloc(base: u64, size: u64) -> Event {
        Event::Alloc {
            base,
            size,
            name: None,
        }
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_lifecycle_has_no_findings() {
        let mut c = LifecycleChecker::new("t", &[ObjectDecl::global("A", 0x1000, 64)]);
        c.observe(&alloc(0x4000, 64), 1);
        c.observe(&Event::Access(MemRef::read(0x4000, 8)), 2);
        c.observe(&Event::Free { base: 0x4000 }, 3);
        assert!(c.finish(true).is_empty());
    }

    #[test]
    fn double_alloc_is_w001_with_position() {
        let mut c = LifecycleChecker::new("t", &[]);
        c.observe(&alloc(0x4000, 64), 1);
        c.observe(&alloc(0x4020, 64), 2);
        let diags = c.finish(false);
        assert_eq!(codes(&diags), ["CS-W001"]);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn free_without_alloc_is_w002() {
        let mut c = LifecycleChecker::new("t", &[]);
        c.observe(&Event::Free { base: 0x4000 }, 1);
        assert_eq!(codes(&c.finish(false)), ["CS-W002"]);
    }

    #[test]
    fn use_after_free_is_w003_and_realloc_is_legal() {
        let mut c = LifecycleChecker::new("t", &[]);
        c.observe(&alloc(0x4000, 64), 1);
        c.observe(&Event::Free { base: 0x4000 }, 2);
        c.observe(&Event::Access(MemRef::read(0x4010, 8)), 3);
        let diags = c.finish(false);
        assert_eq!(codes(&diags), ["CS-W003"]);

        let mut c = LifecycleChecker::new("t", &[]);
        c.observe(&alloc(0x4000, 64), 1);
        c.observe(&Event::Free { base: 0x4000 }, 2);
        c.observe(&alloc(0x4000, 32), 3);
        c.observe(&Event::Access(MemRef::read(0x4010, 8)), 4);
        c.observe(&Event::Free { base: 0x4000 }, 5);
        assert!(c.finish(true).is_empty(), "realloc makes the extent live");
    }

    #[test]
    fn leaks_only_reported_on_natural_end() {
        let mk = || {
            let mut c = LifecycleChecker::new("t", &[]);
            c.observe(&alloc(0x4000, 64), 1);
            c
        };
        assert_eq!(codes(&mk().finish(true)), ["CS-W004"]);
        assert!(mk().finish(false).is_empty());
    }

    #[test]
    fn overlapping_statics_and_heap_vs_static_are_w005() {
        let statics = [
            ObjectDecl::global("A", 0x1000, 0x100),
            ObjectDecl::global("B", 0x1080, 0x100),
        ];
        let c = LifecycleChecker::new("t", &statics);
        assert_eq!(codes(&c.finish(false)), ["CS-W005"]);

        let mut c = LifecycleChecker::new("t", &[ObjectDecl::global("A", 0x1000, 0x100)]);
        c.observe(&alloc(0x1050, 32), 1);
        let diags = c.finish(false);
        assert_eq!(codes(&diags), ["CS-W005"]);
        assert!(diags[0].message.contains("static object 'A'"));
    }

    #[test]
    fn zero_size_extents_are_w006_warnings() {
        let c = LifecycleChecker::new("t", &[ObjectDecl::global("Z", 0x1000, 0)]);
        let diags = c.finish(false);
        assert_eq!(codes(&diags), ["CS-W006"]);
        assert_eq!(diags[0].severity, crate::diag::Severity::Warning);
    }

    #[test]
    fn repeated_findings_are_capped() {
        let mut c = LifecycleChecker::new("t", &[]);
        for i in 0..100 {
            c.observe(&Event::Free { base: i }, i + 1);
        }
        let diags = c.finish(false);
        // 25 reports + 1 suppression note.
        assert_eq!(diags.len(), PER_CODE_CAP + 1);
        assert!(diags.last().unwrap().message.contains("suppressed"));
    }
}
