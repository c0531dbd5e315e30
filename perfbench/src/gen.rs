//! Seeded input generators. Every generator is a pure function of its
//! seed: the program under test receives only what these produce.

use cachescope_sim::rng::SmallRng;
use cachescope_sim::{Addr, Event, MemRef, ObjectDecl, Program, RecordingProgram, TraceFormat};

/// Derive an independent stream seed for item `index` of a run seeded
/// with `seed`.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    SmallRng::seed_from_u64(seed ^ index.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// Arrival times (seconds from the start of the phase) of `rate × span`
/// sessions, Poisson-like at `rate`: the inter-arrival gaps are the
/// exponential distribution's `n` quantiles, shuffled by the seed and
/// scaled so the last arrival falls inside `span`. Every seed therefore
/// offers the same work with the same mix of gaps; only their order
/// changes, as a new seed changes the streams of a fixed job rotation.
pub fn poisson_schedule(seed: u64, rate: f64, span: f64) -> Vec<f64> {
    let n = (rate * span).round() as usize;
    let mut gaps: Vec<f64> = (0..n)
        .map(|k| -(1.0 - (k as f64 + 0.5) / n as f64).ln() / rate)
        .collect();
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 0x5c4e_d01e));
    for i in (1..n).rev() {
        gaps.swap(i, rng.random_range(0..i + 1));
    }
    let total: f64 = gaps.iter().sum();
    let scale = if total > span { span / total } else { 1.0 };
    let mut t = 0.0;
    gaps.iter()
        .map(|g| {
            let at = t;
            t += g * scale;
            at
        })
        .collect()
}

/// Drain `program` through a binary-v2 [`RecordingProgram`] and return
/// the encoded trace.
pub fn record_bin<P: Program>(program: P) -> Vec<u8> {
    let mut rec = RecordingProgram::with_format(program, Vec::new(), TraceFormat::Bin);
    while rec.next_event().is_some() {}
    rec.into_writer()
}

// ---------------------------------------------------------------------------
// churn-replay: an allocator-heavy program whose live set fits in cache.

const CHURN_TABLE: Addr = 0x1000_0000;
const CHURN_TABLE_BYTES: u64 = 64 * 1024;
const CHURN_HEAP: Addr = 0x4000_0000;
/// Allocation size classes, as a segregated-fit allocator keeps them.
const SIZE_CLASSES: [u64; 5] = [64, 128, 256, 512, 1024];
/// The live block count stays in this band, so the live set (at most
/// ~0.6 MiB) fits in the 2 MiB simulated cache and most references hit.
const LIVE_LO: usize = 600;
const LIVE_HI: usize = 1600;
/// The churn program: one access stream over a small table and a set of
/// anonymous heap blocks, allocating or freeing a block every 16–48
/// references. `reuse` is the probability that an allocation reuses a
/// freed block of its class (otherwise the heap grows): reuse keeps
/// names recurring, growth keeps adding new ones.
pub struct ChurnProgram {
    rng: SmallRng,
    reuse: f64,
    refs_left: u64,
    until_churn: u64,
    emitted: u64,
    live: Vec<(Addr, u64, usize)>,
    free_lists: [Vec<Addr>; SIZE_CLASSES.len()],
    bump: Addr,
    pending: Option<Event>,
}

impl ChurnProgram {
    pub fn new(seed: u64, refs: u64, reuse: f64) -> Self {
        ChurnProgram {
            rng: SmallRng::seed_from_u64(sub_seed(seed, 0xc4a2)),
            reuse,
            refs_left: refs,
            until_churn: 0,
            emitted: 0,
            live: Vec::new(),
            free_lists: Default::default(),
            bump: CHURN_HEAP,
            pending: None,
        }
    }

    fn churn(&mut self) -> Event {
        self.until_churn = self.rng.random_range(16..49u64);
        let alloc = match self.live.len() {
            n if n < LIVE_LO => true,
            n if n >= LIVE_HI => false,
            _ => self.rng.random::<f64>() < 0.55,
        };
        if alloc {
            let class = self.rng.random_range(0..SIZE_CLASSES.len());
            let size = SIZE_CLASSES[class];
            let reuse = !self.free_lists[class].is_empty() && self.rng.random::<f64>() < self.reuse;
            let base = match reuse {
                true => self.free_lists[class]
                    .pop()
                    .expect("free list is non-empty"),
                false => {
                    let b = self.bump;
                    self.bump += size;
                    b
                }
            };
            self.live.push((base, size, class));
            Event::Alloc {
                base,
                size,
                name: None,
            }
        } else {
            let i = self.rng.random_range(0..self.live.len());
            let (base, _, class) = self.live.swap_remove(i);
            self.free_lists[class].push(base);
            Event::Free { base }
        }
    }

    fn access(&mut self) -> MemRef {
        let addr = if self.live.is_empty() || self.rng.random::<f64>() < 0.15 {
            CHURN_TABLE + self.rng.random_range(0..CHURN_TABLE_BYTES / 8) * 8
        } else {
            let (base, size, _) = self.live[self.rng.random_range(0..self.live.len())];
            base + self.rng.random_range(0..size / 8) * 8
        };
        if self.rng.random::<f64>() < 0.3 {
            MemRef::write(addr, 8)
        } else {
            MemRef::read(addr, 8)
        }
    }
}

impl Program for ChurnProgram {
    fn name(&self) -> &str {
        "churn"
    }

    fn static_objects(&self) -> Vec<ObjectDecl> {
        vec![ObjectDecl::global(
            "churn_table",
            CHURN_TABLE,
            CHURN_TABLE_BYTES,
        )]
    }

    fn next_event(&mut self) -> Option<Event> {
        if let Some(e) = self.pending.take() {
            return Some(e);
        }
        if self.refs_left == 0 {
            return None;
        }
        if self.until_churn == 0 {
            return Some(self.churn());
        }
        self.until_churn -= 1;
        self.refs_left -= 1;
        self.emitted += 1;
        let access = Event::Access(self.access());
        if self.emitted.is_multiple_of(16) {
            self.pending = Some(access);
            return Some(Event::Compute(24));
        }
        Some(access)
    }
}

// ---------------------------------------------------------------------------
// serve-open: one distinct trace per session.

const LOOKUP: Addr = 0x1000_0000;
const LOOKUP_BYTES: u64 = 48 * 1024;
const WEIGHTS: Addr = 0x1100_0000;
const WEIGHTS_BYTES: u64 = 16 * 1024;
const STREAM: Addr = 0x4000_0000;
const STREAM_BYTES: u64 = 8 * 1024 * 1024;

/// One session's program: a streamed heap buffer (misses) mixed with two
/// resident tables (hits). The stream buffer is allocated first and
/// freed last, so every session also carries heap events.
pub struct SessionProgram {
    name: String,
    rng: SmallRng,
    refs_left: u64,
    emitted: u64,
    cursor: u64,
    started: bool,
    pending: Option<Event>,
}

impl SessionProgram {
    pub fn new(seed: u64, index: u64, refs: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(sub_seed(seed, index));
        let cursor = rng.random_range(0..STREAM_BYTES / 64) * 64;
        SessionProgram {
            name: format!("session{index}"),
            rng,
            refs_left: refs,
            emitted: 0,
            cursor,
            started: false,
            pending: None,
        }
    }
}

impl Program for SessionProgram {
    fn name(&self) -> &str {
        &self.name
    }

    fn static_objects(&self) -> Vec<ObjectDecl> {
        vec![
            ObjectDecl::global("lookup", LOOKUP, LOOKUP_BYTES),
            ObjectDecl::global("weights", WEIGHTS, WEIGHTS_BYTES),
        ]
    }

    fn next_event(&mut self) -> Option<Event> {
        if !self.started {
            self.started = true;
            return Some(Event::Alloc {
                base: STREAM,
                size: STREAM_BYTES,
                name: Some("stream".to_string()),
            });
        }
        if let Some(e) = self.pending.take() {
            return Some(e);
        }
        match self.refs_left {
            0 => return None,
            1 => self.pending = Some(Event::Free { base: STREAM }),
            _ => {}
        }
        self.refs_left -= 1;
        self.emitted += 1;
        let r = if self.rng.random::<f64>() < 0.4 {
            self.cursor = (self.cursor + 64) % STREAM_BYTES;
            MemRef::read(STREAM + self.cursor, 8)
        } else if self.rng.random::<f64>() < 0.75 {
            MemRef::read(LOOKUP + self.rng.random_range(0..LOOKUP_BYTES / 8) * 8, 8)
        } else {
            MemRef::write(WEIGHTS + self.rng.random_range(0..WEIGHTS_BYTES / 8) * 8, 8)
        };
        if self.emitted.is_multiple_of(32) && self.pending.is_none() {
            self.pending = Some(Event::Access(r));
            return Some(Event::Compute(40));
        }
        Some(Event::Access(r))
    }
}

/// Session `index`'s trace, binary-v2 encoded.
pub fn session_trace(seed: u64, index: u64, refs: u64) -> Vec<u8> {
    record_bin(SessionProgram::new(seed, index, refs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(7, 40.0, 10.0);
        assert_eq!(a, poisson_schedule(7, 40.0, 10.0));
        let b = poisson_schedule(8, 40.0, 10.0);
        assert_ne!(a, b);
        assert_eq!(a.len(), 400);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
        // Same gaps in another order: the seed never changes the mix.
        let sorted_gaps = |t: &[f64]| {
            let mut g: Vec<f64> = t.windows(2).map(|w| w[1] - w[0]).collect();
            g.sort_by(f64::total_cmp);
            g
        };
        let (ga, gb) = (sorted_gaps(&a), sorted_gaps(&b));
        // Each schedule shows all but its last gap.
        let shared = ga
            .iter()
            .filter(|x| gb.iter().any(|y| (*x - y).abs() < 1e-12))
            .count();
        assert!(
            shared >= ga.len() - 1,
            "{shared} of {} gaps shared",
            ga.len()
        );
        // Poisson spacing: mean gap 1/rate, coefficient of variation ~1.
        let mean = ga.iter().sum::<f64>() / ga.len() as f64;
        let var = ga.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / ga.len() as f64;
        assert!((mean - 0.025).abs() < 0.003, "mean gap {mean}");
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.1,
            "cv {}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn churn_trace_is_a_pure_function_of_the_seed() {
        let a = record_bin(ChurnProgram::new(3, 20_000, 0.5));
        assert_eq!(a, record_bin(ChurnProgram::new(3, 20_000, 0.5)));
        assert_ne!(a, record_bin(ChurnProgram::new(4, 20_000, 0.5)));
    }

    #[test]
    fn churn_allocs_never_overlap_and_frees_are_live() {
        let mut p = ChurnProgram::new(11, 200_000, 0.5);
        let mut live = std::collections::BTreeMap::new();
        let (mut allocs, mut frees, mut refs) = (0, 0, 0u64);
        while let Some(e) = p.next_event() {
            match e {
                Event::Alloc { base, size, name } => {
                    assert!(name.is_none());
                    if let Some((&b, &s)) = live.range(..base + size).next_back() {
                        assert!(b + s <= base, "overlap at {base:#x}");
                    }
                    live.insert(base, size);
                    allocs += 1;
                }
                Event::Free { base } => {
                    assert!(live.remove(&base).is_some());
                    frees += 1;
                }
                Event::Access(_) => refs += 1,
                _ => {}
            }
        }
        assert_eq!(refs, 200_000);
        // One heap event every few dozen references.
        let per = refs / (allocs + frees);
        assert!((16..=48).contains(&per), "{per} refs per heap event");
        assert!(live.len() <= LIVE_HI);
    }

    #[test]
    fn session_traces_are_distinct_and_repeatable() {
        let a = session_trace(5, 0, 5_000);
        assert_eq!(a, session_trace(5, 0, 5_000));
        assert_ne!(a, session_trace(5, 1, 5_000));
        assert_ne!(a, session_trace(6, 0, 5_000));
        let mut p = cachescope_sim::tracefile::load_eager(&a[..]).unwrap();
        let ev: Vec<Event> = std::iter::from_fn(|| p.next_event()).collect();
        assert!(matches!(ev.first(), Some(Event::Alloc { .. })));
        assert!(matches!(ev.last(), Some(Event::Free { .. })));
        let refs = ev.iter().filter(|e| matches!(e, Event::Access(_))).count();
        assert_eq!(refs, 5_000);
    }
}
