//! The program abstraction: what the simulator executes.
//!
//! The paper instruments real SPEC95 binaries with ATOM so that every load,
//! store and basic block reports to the simulator. We model the result of
//! that instrumentation directly: a [`Program`] is a generator of
//! [`Event`]s — memory accesses, compute blocks (cycle costs of
//! non-memory instructions), heap allocation/free notifications (the
//! paper's instrumented `malloc`), and phase markers.

use crate::memref::MemRef;
use crate::{Addr, Cycle};

/// What kind of program object an address range is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// A global or static variable (known from symbol tables / debug info).
    Global,
    /// A dynamically allocated block (known from instrumented allocators).
    Heap,
}

/// A named program object occupying `[base, base + size)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectDecl {
    /// Source-level name. Heap blocks without a meaningful name use their
    /// hexadecimal base address, as in the paper's tables (`0x141020000`).
    pub name: String,
    pub base: Addr,
    pub size: u64,
    pub kind: ObjectKind,
}

impl ObjectDecl {
    /// A global/static variable.
    pub fn global(name: impl Into<String>, base: Addr, size: u64) -> Self {
        ObjectDecl {
            name: name.into(),
            base,
            size,
            kind: ObjectKind::Global,
        }
    }

    /// Exclusive end address.
    pub fn end(&self) -> Addr {
        self.base + self.size
    }

    /// Does the object contain `addr`?
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// One step of program execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A load or store.
    Access(MemRef),
    /// A block of non-memory instructions costing this many cycles.
    Compute(Cycle),
    /// The program allocated a heap block (instrumented `malloc`). `name`
    /// of `None` displays as the hexadecimal base address.
    Alloc {
        base: Addr,
        size: u64,
        name: Option<String>,
    },
    /// The program freed the heap block based at `base`.
    Free { base: Addr },
    /// The program entered a new phase (used by statistics only).
    Phase(u32),
}

/// Capacity (in events) of the chunks the engine pulls, and of
/// [`EventChunk::standard`] and [`EventChunk::default`]. Large enough to
/// amortise per-chunk dispatch to nothing, small enough that an
/// over-pulled tail (events generated past a [`crate::RunLimit`]) stays
/// cheap.
pub const CHUNK_CAPACITY: usize = 1024;

/// A reusable batch of program events, stored run-length style.
///
/// Memory accesses — overwhelmingly the common event — are stored densely
/// in `refs`. The rare control events (Compute/Alloc/Free/Phase) are kept
/// out-of-line in `marks` as `(position, event)` pairs: a mark at position
/// `p` executes immediately *before* `refs[p]`. Positions are
/// non-decreasing; several control events at the same position execute in
/// `marks` order. Marks at `position == refs.len()` trail the last access.
///
/// The flattened sequence (marks interleaved into the access run at their
/// positions) is exactly the event stream `next_event` would have
/// produced, so a consumer that walks the chunk in order sees identical
/// semantics — it just gets the accesses as a dense `&[MemRef]` run it
/// can iterate without an enum decode per event.
///
/// Loop workloads emit a `Compute` immediately before nearly every
/// access; storing each as a full mark costs a wide `(u32, Event)` write
/// per access. [`EventChunk::push_compute_ref`] instead records the pair
/// densely: `pre_cycles[i]` holds the compute cycles charged immediately
/// before `refs[i]` — after any marks at position `i` — and `pre_cycles`
/// is either empty (unused) or exactly `refs.len()` long, with `0`
/// meaning "no compute before this access". [`EventChunk::push_compute_run`]
/// records a whole run of pairs that share one compute cost. The native
/// producers and the default [`Program::next_chunk`] adapter fuse every
/// such pair, so a `Compute` mark is zero-cycle or not directly followed
/// by an access in the same chunk.
#[derive(Debug, Clone)]
pub struct EventChunk {
    /// Dense access run, in program order.
    pub refs: Vec<MemRef>,
    /// Control events, as (index into the access run, event) pairs.
    pub marks: Vec<(u32, Event)>,
    /// Compute cycles charged immediately before the same-index access
    /// (empty when no producer fused a nonzero compute).
    pub pre_cycles: Vec<Cycle>,
    /// How many entries of `pre_cycles` are nonzero (distinct events).
    pre_count: usize,
    capacity: usize,
}

impl EventChunk {
    /// An empty chunk that fills up to `capacity` total events.
    pub fn with_capacity(capacity: usize) -> Self {
        // check:allow(every caller passes a constant nonzero capacity)
        assert!(capacity > 0, "chunk capacity must be nonzero");
        EventChunk {
            refs: Vec::with_capacity(capacity),
            marks: Vec::new(),
            pre_cycles: Vec::new(),
            pre_count: 0,
            capacity,
        }
    }

    /// The standard engine-sized chunk ([`CHUNK_CAPACITY`] events).
    pub fn standard() -> Self {
        EventChunk::with_capacity(CHUNK_CAPACITY)
    }

    /// Total events held (accesses, control marks and fused computes).
    pub fn len(&self) -> usize {
        self.refs.len() + self.marks.len() + self.pre_count
    }

    /// The capacity this chunk was sized with (total events).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn is_empty(&self) -> bool {
        self.refs.is_empty() && self.marks.is_empty()
    }

    /// Room left before the chunk is full.
    pub fn remaining(&self) -> usize {
        self.capacity.saturating_sub(self.len())
    }

    /// Is the chunk at capacity?
    pub fn is_full(&self) -> bool {
        self.remaining() == 0
    }

    /// Clear contents, keeping allocations (call before refilling).
    pub fn reset(&mut self) {
        self.refs.clear();
        self.marks.clear();
        self.pre_cycles.clear();
        self.pre_count = 0;
    }

    /// Append one access. Caller must ensure the chunk is not full.
    #[inline]
    pub fn push_ref(&mut self, r: MemRef) {
        debug_assert!(!self.is_full());
        if !self.pre_cycles.is_empty() {
            self.pre_cycles.push(0);
        }
        self.refs.push(r);
    }

    /// Append a `Compute(cycles)` event immediately followed by an access
    /// — the pair loop workloads emit every iteration. The compute lands
    /// in the dense `pre_cycles` side array instead of a mark; the
    /// flattened order is unchanged (marks at this position, then the
    /// compute, then the access). Counts as two events when `cycles > 0`.
    #[inline]
    pub fn push_compute_ref(&mut self, cycles: Cycle, r: MemRef) {
        debug_assert!(!self.is_full());
        if cycles > 0 {
            // Lazily materialise the zeros for earlier plain accesses.
            if self.pre_cycles.len() < self.refs.len() {
                self.pre_cycles.resize(self.refs.len(), 0);
            }
            self.pre_cycles.push(cycles);
            self.pre_count += 1;
        } else if !self.pre_cycles.is_empty() {
            self.pre_cycles.push(0);
        }
        self.refs.push(r);
    }

    /// Append a straight run of accesses, the ones `fill` pushes onto the
    /// dense run, each preceded by the same `cycles` of compute:
    /// `push_compute_ref(cycles, r)` for every `r`, with one `pre_cycles`
    /// resize for the whole run in place of a branch per access. Caller
    /// must ensure the run fits (two events per access when `cycles > 0`,
    /// one otherwise).
    #[inline]
    pub fn push_compute_run(&mut self, cycles: Cycle, fill: impl FnOnce(&mut Vec<MemRef>)) {
        let start = self.refs.len();
        fill(&mut self.refs);
        let end = self.refs.len();
        if cycles > 0 {
            // Lazily materialise the zeros for earlier plain accesses.
            self.pre_cycles.resize(start, 0);
            self.pre_cycles.resize(end, cycles);
            self.pre_count += end - start;
        } else if !self.pre_cycles.is_empty() {
            self.pre_cycles.resize(end, 0);
        }
        debug_assert!(self.len() <= self.capacity, "run overflows the chunk");
    }

    /// Append one control event at the current position. Caller must
    /// ensure the chunk is not full.
    #[inline]
    pub fn push_mark(&mut self, e: Event) {
        debug_assert!(!self.is_full());
        debug_assert!(!matches!(e, Event::Access(_)), "accesses go in refs");
        // check:allow(refs.len() is bounded by the chunk capacity, far below 2^32)
        self.marks.push((self.refs.len() as u32, e));
    }

    /// Append any event, routing accesses to the dense run.
    #[inline]
    pub fn push_event(&mut self, e: Event) {
        match e {
            Event::Access(r) => self.push_ref(r),
            other => self.push_mark(other),
        }
    }

    /// Flatten back into a plain event sequence (tests, adapters).
    pub fn to_events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.len());
        let mut mi = 0;
        for (i, r) in self.refs.iter().enumerate() {
            while mi < self.marks.len() && self.marks[mi].0 as usize == i {
                out.push(self.marks[mi].1.clone());
                mi += 1;
            }
            if let Some(&c) = self.pre_cycles.get(i) {
                if c > 0 {
                    out.push(Event::Compute(c));
                }
            }
            out.push(Event::Access(*r));
        }
        while mi < self.marks.len() {
            out.push(self.marks[mi].1.clone());
            mi += 1;
        }
        out
    }
}

impl Default for EventChunk {
    /// The standard engine-sized chunk ([`CHUNK_CAPACITY`] events).
    fn default() -> Self {
        EventChunk::standard()
    }
}

/// A simulated program: static object declarations plus an event stream.
pub trait Program {
    /// Short name of the application (used in reports).
    fn name(&self) -> &str;

    /// The program's global/static variables, available before execution
    /// begins (the simulator's analogue of reading the symbol table).
    fn static_objects(&self) -> Vec<ObjectDecl>;

    /// Produce the next event, or `None` when the program has finished.
    fn next_event(&mut self) -> Option<Event>;

    /// Fill `buf` with the next batch of events and return how many were
    /// added (0 means end of program). `buf` arrives reset.
    ///
    /// The default implementation adapts [`Program::next_event`] and folds
    /// as it goes: a nonzero `Compute` directly followed by an access is
    /// fused into `pre_cycles` ([`EventChunk::push_compute_ref`]). It holds
    /// at most one compute back to see what follows, and pushes it as a
    /// mark when that is not an access or the chunk is full. Hot producers
    /// override it to fill the dense access run directly. Either way the
    /// flattened contents of `buf` must equal what repeated `next_event`
    /// calls would have produced — the engine relies on this to keep
    /// chunked execution bit-identical to scalar execution.
    fn next_chunk(&mut self, buf: &mut EventChunk) -> usize {
        let mut held: Option<Cycle> = None;
        // A held compute and the next event take two slots either way:
        // fused as a pair, or as a mark then the event.
        while buf.remaining() > usize::from(held.is_some()) {
            let Some(e) = self.next_event() else {
                break;
            };
            if let Some(c) = held.take() {
                if let Event::Access(r) = e {
                    buf.push_compute_ref(c, r);
                    continue;
                }
                buf.push_mark(Event::Compute(c));
            }
            match e {
                Event::Compute(c) if c > 0 => held = Some(c),
                e => buf.push_event(e),
            }
        }
        if let Some(c) = held {
            buf.push_mark(Event::Compute(c));
        }
        buf.len()
    }
}

impl<P: Program + ?Sized> Program for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn static_objects(&self) -> Vec<ObjectDecl> {
        (**self).static_objects()
    }

    fn next_event(&mut self) -> Option<Event> {
        (**self).next_event()
    }

    fn next_chunk(&mut self, buf: &mut EventChunk) -> usize {
        (**self).next_chunk(buf)
    }
}

/// A trivial program defined by a pre-materialised event list. Useful in
/// tests and for replaying recorded traces.
#[derive(Debug, Clone)]
pub struct TraceProgram {
    name: String,
    objects: Vec<ObjectDecl>,
    events: std::vec::IntoIter<Event>,
}

impl TraceProgram {
    pub fn new(name: impl Into<String>, objects: Vec<ObjectDecl>, events: Vec<Event>) -> Self {
        TraceProgram {
            name: name.into(),
            objects,
            events: events.into_iter(),
        }
    }
}

impl Program for TraceProgram {
    fn name(&self) -> &str {
        &self.name
    }

    fn static_objects(&self) -> Vec<ObjectDecl> {
        self.objects.clone()
    }

    fn next_event(&mut self) -> Option<Event> {
        self.events.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;

    /// Implements only `next_event`, so its chunks come from the default
    /// `next_chunk` adapter.
    struct EventsOnly(std::vec::IntoIter<Event>);

    impl Program for EventsOnly {
        fn name(&self) -> &str {
            "events-only"
        }

        fn static_objects(&self) -> Vec<ObjectDecl> {
            Vec::new()
        }

        fn next_event(&mut self) -> Option<Event> {
            self.0.next()
        }
    }

    /// A stream with every case the adapter's fold must get right: runs
    /// of computes, zero-cycle computes, computes before Phase, Alloc and
    /// Free marks, and a trailing compute.
    fn fold_stream(rng: &mut SmallRng, n: u64) -> Vec<Event> {
        let mut out: Vec<Event> = (0..n)
            .map(|i| match rng.random_range(0u64..8) {
                0..=2 => Event::Compute(rng.random_range(0u64..4)),
                3 => Event::Phase(i as u32),
                4 => Event::Alloc {
                    base: i << 12,
                    size: 64,
                    name: None,
                },
                5 => Event::Free { base: i << 12 },
                _ => Event::Access(MemRef::read(i * 64, 8)),
            })
            .collect();
        out.push(Event::Compute(9));
        out
    }

    #[test]
    fn object_decl_geometry() {
        let o = ObjectDecl::global("A", 100, 50);
        assert_eq!(o.end(), 150);
        assert!(o.contains(100));
        assert!(o.contains(149));
        assert!(!o.contains(150));
        assert!(!o.contains(99));
    }

    #[test]
    fn trace_program_replays_in_order() {
        let mut p = TraceProgram::new("t", vec![], vec![Event::Compute(5), Event::Phase(1)]);
        assert_eq!(p.next_event(), Some(Event::Compute(5)));
        assert_eq!(p.next_event(), Some(Event::Phase(1)));
        assert_eq!(p.next_event(), None);
        assert_eq!(p.next_event(), None);
    }

    #[test]
    fn chunk_flattens_to_the_original_event_order() {
        let events = vec![
            Event::Compute(3),
            Event::Access(MemRef::read(0x10, 8)),
            Event::Access(MemRef::write(0x20, 8)),
            Event::Phase(1),
            Event::Compute(2),
            Event::Access(MemRef::read(0x30, 4)),
            Event::Free { base: 0x10 },
        ];
        let mut p = TraceProgram::new("t", vec![], events.clone());
        let mut chunk = EventChunk::standard();
        let n = p.next_chunk(&mut chunk);
        assert_eq!(n, events.len());
        assert_eq!(chunk.refs.len(), 3);
        // Both computes directly precede an access, so they fuse into the
        // dense side array; Phase and Free stay marks.
        assert_eq!(chunk.marks.len(), 2);
        assert_eq!(chunk.pre_cycles, vec![3, 0, 2]);
        assert_eq!(chunk.to_events(), events);
        chunk.reset();
        assert_eq!(p.next_chunk(&mut chunk), 0);
    }

    #[test]
    fn fused_compute_flattens_after_marks_at_the_same_position() {
        let mut chunk = EventChunk::standard();
        chunk.push_ref(MemRef::read(0x10, 8));
        chunk.push_mark(Event::Phase(1));
        chunk.push_compute_ref(7, MemRef::read(0x20, 8));
        assert_eq!(chunk.len(), 4);
        assert_eq!(
            chunk.to_events(),
            vec![
                Event::Access(MemRef::read(0x10, 8)),
                Event::Phase(1),
                Event::Compute(7),
                Event::Access(MemRef::read(0x20, 8)),
            ]
        );
    }

    #[test]
    fn compute_run_equals_one_fused_pair_per_access() {
        let r = |i: u64| MemRef::read(i * 64, 8);
        // (compute, run length), with marks between the runs: zero-cycle
        // runs before, between and after fused ones, and an empty run.
        let runs: [(Cycle, u64); 6] = [(0, 2), (5, 3), (0, 1), (0, 0), (7, 2), (0, 2)];
        let mut bulk = EventChunk::standard();
        let mut single = EventChunk::standard();
        let mut i = 0;
        for (k, &(c, n)) in runs.iter().enumerate() {
            bulk.push_mark(Event::Phase(k as u32));
            single.push_mark(Event::Phase(k as u32));
            bulk.push_compute_run(c, |refs| refs.extend((i..i + n).map(r)));
            for j in i..i + n {
                single.push_compute_ref(c, r(j));
            }
            i += n;
        }
        assert_eq!(bulk.refs, single.refs);
        assert_eq!(bulk.pre_cycles, single.pre_cycles);
        assert_eq!(bulk.len(), single.len());
        assert_eq!(bulk.to_events(), single.to_events());
        assert_eq!(bulk.len(), 6 + 10 + 5);
    }

    #[test]
    fn capacity_one_chunks_still_drain_a_fused_stream() {
        let events = vec![
            Event::Compute(4),
            Event::Access(MemRef::read(0x40, 8)),
            Event::Phase(2),
        ];
        let mut p = TraceProgram::new("t", vec![], events.clone());
        let mut chunk = EventChunk::with_capacity(1);
        let mut replayed = Vec::new();
        loop {
            chunk.reset();
            if p.next_chunk(&mut chunk) == 0 {
                break;
            }
            replayed.extend(chunk.to_events());
        }
        assert_eq!(replayed, events);
    }

    /// The default adapter at every small capacity: chunks stay within
    /// capacity, flatten back to the stream, and fuse every nonzero
    /// compute that an access follows within the chunk — so a `Compute`
    /// mark that is the last mark before an access has a fused compute
    /// after it.
    #[test]
    fn chunk_capacity_bounds_total_events() {
        let pairs: Vec<Event> = (0..10)
            .flat_map(|i| [Event::Compute(1), Event::Access(MemRef::read(i * 64, 8))])
            .collect();
        let mut rng = SmallRng::seed_from_u64(0xF01D);
        let mut streams = vec![pairs];
        streams.extend((0..16).map(|_| {
            let n = rng.random_range(1u64..60);
            fold_stream(&mut rng, n)
        }));
        for events in &streams {
            for capacity in 1..=9 {
                let mut p = EventsOnly(events.clone().into_iter());
                let mut chunk = EventChunk::with_capacity(capacity);
                let mut replayed = Vec::new();
                loop {
                    chunk.reset();
                    if p.next_chunk(&mut chunk) == 0 {
                        break;
                    }
                    assert!(chunk.len() <= capacity);
                    for (k, (pos, m)) in chunk.marks.iter().enumerate() {
                        let at = *pos as usize;
                        let last_at_p = chunk.marks.get(k + 1).is_none_or(|(q, _)| q != pos);
                        if matches!(m, Event::Compute(c) if *c > 0)
                            && last_at_p
                            && at < chunk.refs.len()
                        {
                            assert!(
                                chunk.pre_cycles.get(at).is_some_and(|&c| c > 0),
                                "capacity {capacity}: unfused compute before access {at}"
                            );
                        }
                    }
                    replayed.extend(chunk.to_events());
                }
                assert_eq!(&replayed, events, "capacity {capacity}");
            }
        }
    }

    #[test]
    fn default_chunk_is_standard_sized() {
        let mut chunk = EventChunk::default();
        assert_eq!(chunk.capacity(), CHUNK_CAPACITY);
        let access = Event::Access(MemRef::read(0x40, 8));
        let mut p = TraceProgram::new("t", vec![], vec![access.clone()]);
        assert_eq!(p.next_chunk(&mut chunk), 1);
        assert_eq!(chunk.to_events(), vec![access]);
    }

    #[test]
    fn trailing_marks_flatten_after_the_last_access() {
        let mut chunk = EventChunk::standard();
        chunk.push_ref(MemRef::read(0x40, 8));
        chunk.push_mark(Event::Phase(9));
        chunk.push_mark(Event::Compute(5));
        assert_eq!(
            chunk.to_events(),
            vec![
                Event::Access(MemRef::read(0x40, 8)),
                Event::Phase(9),
                Event::Compute(5),
            ]
        );
    }
}
