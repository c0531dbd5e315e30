//! Every native producer against its own scalar stream. The engine runs
//! a program chunk by chunk, and its results equal a scalar run only if
//! each `next_chunk` flattens to exactly what repeated `next_event`
//! calls return. The builder and mcf fill their chunks in straight runs
//! whose length depends on the chunk's room, the phase's remaining slots
//! and the next churn; tiny capacities put those boundaries everywhere.

use cachescope_sim::{EventChunk, Program, CHUNK_CAPACITY};
use cachescope_workloads::spec::{self, Scale};
use cachescope_workloads::spec2000::{art, equake, Mcf};

/// Capacities that split fused compute/access pairs, phase markers and
/// churn events at every offset, plus the engine's own.
const CAPACITIES: [usize; 5] = [1, 2, 3, 257, CHUNK_CAPACITY];

/// Drain `accesses` accesses from `build()` in chunks of every capacity,
/// and require each flattened chunk to equal the scalar stream.
fn assert_chunks_flatten_to_events(build: &dyn Fn() -> Box<dyn Program>, accesses: u64) {
    for capacity in CAPACITIES {
        let mut scalar = build();
        let mut chunked = build();
        let name = scalar.name().to_string();
        let mut chunk = EventChunk::with_capacity(capacity);
        let (mut seen, mut at) = (0u64, 0usize);
        while seen < accesses {
            chunk.reset();
            assert!(
                chunked.next_chunk(&mut chunk) > 0,
                "{name}: an infinite stream ended"
            );
            assert!(chunk.len() <= capacity, "{name}: chunk over capacity");
            for ev in chunk.to_events() {
                assert_eq!(
                    Some(ev),
                    scalar.next_event(),
                    "{name}, capacity {capacity}, event {at}"
                );
                at += 1;
            }
            seen += chunk.refs.len() as u64;
        }
    }
}

#[test]
fn every_producer_chunks_flatten_to_its_event_stream() {
    let mut apps = spec::all(Scale::Test);
    apps.push(art(Scale::Test));
    apps.push(equake(Scale::Test));
    // One thread per producer: the single-phase apps drain 2M slots at
    // each capacity, which an unoptimised build takes seconds to do.
    std::thread::scope(|s| {
        for app in &apps {
            // Past the end of the second full phase cycle, so each phase
            // boundary and the wrap back to phase 0 fall inside chunks.
            let accesses = 2 * app.cycle_misses() + 1;
            s.spawn(move || assert_chunks_flatten_to_events(&|| Box::new(app.clone()), accesses));
        }
        // Ten churns, each a Free and an Alloc behind the churning access.
        for build in [Mcf::new, Mcf::with_measurement_allocator] {
            s.spawn(move || {
                assert_chunks_flatten_to_events(&|| Box::new(build(Scale::Test)), 10_000)
            });
        }
    });
}
