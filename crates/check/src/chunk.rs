//! [`EventChunk`] encoding well-formedness.
//!
//! The engine's chunked loop relies on structural invariants the
//! producers must uphold: mark positions index into (or trail by one)
//! the dense access run and never decrease, the `pre_cycles` side array
//! is either unused or exactly parallel to `refs`, accesses never hide
//! in `marks`, and a chunk never exceeds the capacity it advertised.
//! The loop's mark walk and its bulk access step index by these without
//! checking — a malformed chunk corrupts attribution silently, so
//! producers are verified here instead.
//!
//! Codes: `CS-C001` mark position out of range, `CS-C002` mark positions
//! decrease, `CS-C003` bad `pre_cycles` length, `CS-C004` chunk over
//! capacity, `CS-C005` access event stored as a mark.
//!
//! [`EventChunk`]: cachescope_sim::EventChunk

use cachescope_sim::{Event, EventChunk, Program};

use crate::diag::Diagnostic;

/// Check one chunk. `source` names the producer; `index` is the chunk's
/// ordinal in the stream (reported in messages).
pub fn check_chunk(chunk: &EventChunk, source: &str, index: u64) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let nrefs = chunk.refs.len();
    let mut last_pos = 0u32;
    for (i, (pos, ev)) in chunk.marks.iter().enumerate() {
        if *pos as usize > nrefs {
            diags.push(
                Diagnostic::error(
                    "CS-C001",
                    source,
                    format!(
                        "chunk {index}: mark {i} at position {pos} exceeds the access run \
                         (len {nrefs})"
                    ),
                )
                .with_hint("marks may trail the run by at most one position"),
            );
        }
        if *pos < last_pos {
            diags.push(
                Diagnostic::error(
                    "CS-C002",
                    source,
                    format!(
                        "chunk {index}: mark {i} at position {pos} decreases \
                         (previous mark at {last_pos})"
                    ),
                )
                .with_hint("the flattened event order is undefined for decreasing marks"),
            );
        }
        last_pos = *pos;
        if matches!(ev, Event::Access(_)) {
            diags.push(
                Diagnostic::error(
                    "CS-C005",
                    source,
                    format!("chunk {index}: mark {i} holds an access event"),
                )
                .with_hint("accesses belong in the dense run (push_ref), not in marks"),
            );
        }
    }
    let npre = chunk.pre_cycles.len();
    if npre != 0 && npre != nrefs {
        diags.push(
            Diagnostic::error(
                "CS-C003",
                source,
                format!(
                    "chunk {index}: pre_cycles length {npre} is neither 0 nor the access-run \
                     length {nrefs}"
                ),
            )
            .with_hint("the side array must stay exactly parallel to refs once materialised"),
        );
    }
    if chunk.len() > chunk.capacity() {
        diags.push(
            Diagnostic::error(
                "CS-C004",
                source,
                format!(
                    "chunk {index}: holds {} events but was sized for {}",
                    chunk.len(),
                    chunk.capacity()
                ),
            )
            .with_hint("producers must stop at is_full(); the engine sizes buffers by capacity"),
        );
    }
    diags
}

/// Pull up to `max_chunks` chunks from `program` through its native
/// chunked path and check each one.
pub fn check_program_chunks(
    program: &mut dyn Program,
    source: &str,
    max_chunks: u64,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut chunk = EventChunk::standard();
    for index in 0..max_chunks {
        chunk.reset();
        if program.next_chunk(&mut chunk) == 0 {
            break;
        }
        diags.extend(check_chunk(&chunk, source, index));
        if !diags.is_empty() && diags.len() >= 50 {
            break;
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachescope_sim::MemRef;

    fn chunk_with(refs: usize) -> EventChunk {
        let mut c = EventChunk::with_capacity(64);
        for i in 0..refs {
            c.push_ref(MemRef::read(0x1000 + 8 * i as u64, 8));
        }
        c
    }

    #[test]
    fn well_formed_chunks_pass() {
        let mut c = chunk_with(3);
        c.push_mark(Event::Phase(1));
        assert!(check_chunk(&c, "t", 0).is_empty());
        let mut c = EventChunk::with_capacity(8);
        c.push_compute_ref(5, MemRef::read(0x1000, 8));
        c.push_ref(MemRef::read(0x1008, 8));
        assert!(check_chunk(&c, "t", 0).is_empty());
    }

    #[test]
    fn out_of_range_mark_is_c001() {
        let mut c = chunk_with(2);
        c.marks.push((5, Event::Phase(0)));
        let diags = check_chunk(&c, "t", 3);
        assert_eq!(diags[0].code, "CS-C001");
        assert!(diags[0].message.contains("chunk 3"));
    }

    #[test]
    fn decreasing_marks_are_c002() {
        let mut c = chunk_with(2);
        c.marks.push((2, Event::Phase(0)));
        c.marks.push((1, Event::Phase(1)));
        let diags = check_chunk(&c, "t", 0);
        assert_eq!(
            diags.iter().map(|d| d.code).collect::<Vec<_>>(),
            ["CS-C002"]
        );
    }

    #[test]
    fn bad_pre_cycles_length_is_c003() {
        let mut c = chunk_with(3);
        c.pre_cycles.push(7); // length 1 vs 3 refs
        let diags = check_chunk(&c, "t", 0);
        assert_eq!(diags[0].code, "CS-C003");
    }

    #[test]
    fn over_capacity_is_c004() {
        let mut c = EventChunk::with_capacity(2);
        c.refs.push(MemRef::read(0x1000, 8));
        c.refs.push(MemRef::read(0x1008, 8));
        c.refs.push(MemRef::read(0x1010, 8));
        let diags = check_chunk(&c, "t", 0);
        assert_eq!(diags[0].code, "CS-C004");
    }

    #[test]
    fn access_in_marks_is_c005() {
        let mut c = chunk_with(1);
        c.marks.push((1, Event::Access(MemRef::read(0x2000, 8))));
        let diags = check_chunk(&c, "t", 0);
        assert_eq!(diags[0].code, "CS-C005");
    }

    #[test]
    fn native_producers_stream_clean_chunks() {
        let mut p = cachescope_workloads::spec::mgrid(cachescope_workloads::spec::Scale::Test);
        assert!(check_program_chunks(&mut p, "workload:mgrid", 16).is_empty());
    }
}
