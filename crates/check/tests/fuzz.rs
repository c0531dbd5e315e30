//! Fuzz-ish property tests: corrupted traces never panic the reader or
//! the checker — every byte-level mutation lands as a typed diagnostic
//! (or decodes cleanly), never as an abort. Deterministic: mutations are
//! drawn from a fixed-seed xorshift generator, so a failure reproduces
//! exactly from the iteration number.

use cachescope_check::trace;
use cachescope_sim::tracefile::{
    load_eager, BinStreamDecoder, RecordingProgram, TraceError, TraceFormat,
};
use cachescope_sim::{Event, MemRef, ObjectDecl, Program, TraceProgram};

/// Minimal xorshift64* — no external RNG crates in this workspace.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn sample_program() -> TraceProgram {
    let mut events = Vec::new();
    for i in 0..64u64 {
        events.push(Event::Alloc {
            base: 0x10_000 + i * 0x100,
            size: 64,
            name: Some(format!("blk{i}")),
        });
        events.push(Event::Access(MemRef::read(0x10_000 + i * 0x100, 8)));
        events.push(Event::Compute(10));
        events.push(Event::Free {
            base: 0x10_000 + i * 0x100,
        });
        events.push(Event::Phase((i % 4) as u32));
    }
    TraceProgram::new(
        "fuzz",
        vec![
            ObjectDecl::global("A", 0x1000, 256),
            ObjectDecl::global("B", 0x2000, 512),
        ],
        events,
    )
}

fn bin_trace() -> Vec<u8> {
    let mut rec = RecordingProgram::with_format(sample_program(), Vec::new(), TraceFormat::Bin);
    while rec.next_event().is_some() {}
    rec.into_writer()
}

fn text_trace() -> Vec<u8> {
    let mut rec = RecordingProgram::new(sample_program(), Vec::new());
    while rec.next_event().is_some() {}
    rec.into_writer()
}

/// Exercise one corrupted input end to end: the eager loader must return
/// (Ok or Err, never panic) and the checker must produce a plain list of
/// diagnostics.
fn must_not_panic(bytes: &[u8], what: &str) {
    let _ = load_eager(std::io::BufReader::new(bytes));
    let _ = trace::check_trace(bytes, what);
}

/// Corrupted inputs, each with the name it is reported under.
type Inputs = Vec<(String, Vec<u8>)>;

fn mutated_binary_traces() -> Inputs {
    let clean = bin_trace();
    let mut rng = Rng(0x5EED_CAFE_F00D_0001);
    let mut inputs = Vec::new();
    for iter in 0..400 {
        let mut bytes = clean.clone();
        // 1-8 random byte mutations anywhere in the stream (header,
        // object table, records, alloc tails).
        for _ in 0..(1 + rng.below(8)) {
            let at = rng.below(bytes.len());
            bytes[at] = (rng.next() & 0xFF) as u8;
        }
        inputs.push((format!("fuzz-bin-{iter}"), bytes));
    }
    inputs
}

fn truncated_binary_traces() -> Inputs {
    let clean = bin_trace();
    let mut rng = Rng(0x5EED_CAFE_F00D_0002);
    let mut inputs = Vec::new();
    for iter in 0..200 {
        let cut = rng.below(clean.len());
        inputs.push((format!("fuzz-cut-{iter}"), clean[..cut].to_vec()));
    }
    inputs
}

fn garbage() -> Inputs {
    let mut rng = Rng(0x5EED_CAFE_F00D_0004);
    let mut inputs = Vec::new();
    for iter in 0..200 {
        let len = rng.below(4096);
        let mut bytes = vec![0u8; len];
        for b in &mut bytes {
            *b = (rng.next() & 0xFF) as u8;
        }
        inputs.push((format!("fuzz-garbage-{iter}"), bytes));
    }
    // Garbage that starts with a valid magic exercises the body decoders.
    for (magic, tag) in [
        (&b"cstrace2"[..], "bin"),
        (&b"cachescope-trace 1\n"[..], "text"),
    ] {
        for iter in 0..100 {
            let len = rng.below(2048);
            let mut bytes = magic.to_vec();
            for _ in 0..len {
                bytes.push((rng.next() & 0xFF) as u8);
            }
            inputs.push((format!("fuzz-{tag}-magic-{iter}"), bytes));
        }
    }
    inputs
}

#[test]
fn mutated_binary_traces_never_panic() {
    for (what, bytes) in mutated_binary_traces() {
        must_not_panic(&bytes, &what);
    }
}

#[test]
fn truncated_binary_traces_never_panic() {
    for (what, bytes) in truncated_binary_traces() {
        must_not_panic(&bytes, &what);
    }
}

#[test]
fn mutated_text_traces_never_panic() {
    let clean = text_trace();
    let mut rng = Rng(0x5EED_CAFE_F00D_0003);
    for iter in 0..200 {
        let mut bytes = clean.clone();
        for _ in 0..(1 + rng.below(6)) {
            let at = rng.below(bytes.len());
            bytes[at] = (rng.next() & 0xFF) as u8;
        }
        must_not_panic(&bytes, &format!("fuzz-text-{iter}"));
    }
}

#[test]
fn pure_garbage_never_panics() {
    for (what, bytes) in garbage() {
        must_not_panic(&bytes, &what);
    }
}

#[test]
fn huge_declared_object_count_is_a_truncated_header() {
    // Magic, empty program name, u32::MAX static objects — and no more
    // bytes. The count must not size an allocation up front.
    let mut bytes = b"cstrace2".to_vec();
    bytes.extend_from_slice(&0u16.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(bytes.len(), 14);
    let err = load_eager(&bytes[..]).unwrap_err();
    assert_eq!(trace::error_code(err.kind), "CS-T002", "{err}");
    let diags = trace::check_trace(&bytes[..], "huge-count");
    let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
    assert_eq!(codes, ["CS-T002"]);
}

/// A whole decoded trace: name, static objects, events.
type Decoded = (String, Vec<ObjectDecl>, Vec<Event>);

/// Decode as `--replay` and `check --trace` do, through the file reader.
fn decode_as_file(bytes: &[u8]) -> Result<Decoded, TraceError> {
    let mut p = load_eager(bytes)?;
    let mut events = Vec::new();
    while let Some(ev) = p.next_event() {
        events.push(ev);
    }
    Ok((p.name().to_string(), p.static_objects(), events))
}

/// Decode as the daemon does: push every byte, drain, declare the end.
fn decode_as_stream(bytes: &[u8]) -> Result<Decoded, TraceError> {
    let mut dec = BinStreamDecoder::new();
    dec.push(bytes);
    let mut events = Vec::new();
    while let Some(ev) = dec.next_event()? {
        events.push(ev);
    }
    dec.finish()?;
    let (name, objects) = dec.header().expect("a clean finish implies a header");
    Ok((name.to_string(), objects.to_vec(), events))
}

#[test]
fn file_reader_and_stream_decoder_agree_on_corrupted_binary_traces() {
    let mut compared = 0;
    let inputs = mutated_binary_traces()
        .into_iter()
        .chain(truncated_binary_traces())
        .chain(garbage());
    for (what, bytes) in inputs.filter(|(_, b)| b.starts_with(b"cstrace2")) {
        match (decode_as_file(&bytes), decode_as_stream(&bytes)) {
            (Ok(file), Ok(stream)) => assert_eq!(file, stream, "{what}"),
            (Err(file), Err(stream)) => {
                assert_eq!(file.kind, stream.kind, "{what}");
                assert_eq!(file.message, stream.message, "{what}");
            }
            (file, stream) => panic!("{what}: file {file:?}, stream {stream:?}"),
        }
        compared += 1;
    }
    assert!(
        compared > 500,
        "only {compared} inputs start with the magic"
    );
}
