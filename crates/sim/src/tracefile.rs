//! Reference-trace recording and replay.
//!
//! The paper's substrate is ATOM binary rewriting: instrument once, then
//! feed the reference stream to the simulator. This module provides the
//! equivalent capture/replay workflow: wrap any [`Program`] in a
//! [`RecordingProgram`] to tee its event stream to a writer, and replay
//! the file later with [`TraceReader`] — which is itself a `Program`, so
//! a recorded trace can drive any experiment, bit-identically.
//!
//! Two on-disk formats exist behind the same interfaces, selected by
//! [`TraceFormat`] when recording and auto-detected by magic on replay.
//!
//! **Text (v1)** is line-oriented (deterministic, diffable, no external
//! dependencies):
//!
//! ```text
//! cachescope-trace 1
//! N <program name>
//! O <base-hex> <size> <object name>       (one per static object)
//! A <addr-hex> <size> <R|W>               (memory access)
//! C <cycles>                              (compute block)
//! M <base-hex> <size> [name]              (heap allocation)
//! F <base-hex>                            (heap free)
//! P <id>                                  (phase marker)
//! ```
//!
//! **Binary (v2)** trades diffability for decode speed: after the magic
//! `cstrace2` and a header (program name, static objects), the body is a
//! stream of fixed-width 16-byte little-endian records:
//!
//! ```text
//! Access : [tag=1][kind 0=R/1=W][pad 2][size u32][addr u64]
//! Compute: [tag=2][pad 7]               [cycles u64]
//! Alloc  : [tag=3][has_name][len u16][pad 4][base u64] + size u64 + name
//! Free   : [tag=4][pad 7]               [base u64]
//! Phase  : [tag=5][pad 3][id u32][pad 8]
//! ```
//!
//! Only `Alloc` carries a variable tail (8-byte size + name bytes); the
//! hot record — `Access` — is always one 16-byte word. One decoder,
//! [`BinStreamDecoder`], owns this layout and its errors: the daemon
//! pushes socket bytes into it, and [`BinTraceReader`] feeds it bounded
//! slices of a file, so the same bytes decode, or fail, the same way on
//! both paths. Replaying a recorded trace in either format produces
//! results bit-identical to the live program.

use std::io::{self, BufRead, Write};

use crate::memref::{AccessKind, MemRef};
use crate::program::{Event, EventChunk, ObjectDecl, Program, TraceBuilder, TraceProgram};

const MAGIC: &str = "cachescope-trace 1";
const BIN_MAGIC: &[u8; 8] = b"cstrace2";

/// On-disk trace encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// Line-oriented text (v1): diffable, the historical default.
    #[default]
    Text,
    /// Fixed-width binary records (v2): compact and fast to replay.
    Bin,
}

/// Serialise one event as a trace line.
fn write_event<W: Write>(w: &mut W, ev: &Event) -> io::Result<()> {
    match ev {
        Event::Access(r) => {
            let kind = match r.kind {
                AccessKind::Read => 'R',
                AccessKind::Write => 'W',
            };
            writeln!(w, "A {:x} {} {}", r.addr, r.size, kind)
        }
        Event::Compute(c) => writeln!(w, "C {c}"),
        Event::Alloc { base, size, name } => match name {
            Some(n) => writeln!(w, "M {base:x} {size} {n}"),
            None => writeln!(w, "M {base:x} {size}"),
        },
        Event::Free { base } => writeln!(w, "F {base:x}"),
        Event::Phase(p) => writeln!(w, "P {p}"),
    }
}

/// Serialise one event as a fixed-width binary record.
fn write_bin_event<W: Write>(w: &mut W, ev: &Event) -> io::Result<()> {
    let mut rec = [0u8; 16];
    match ev {
        Event::Access(r) => {
            rec[0] = 1;
            rec[1] = u8::from(r.kind == AccessKind::Write);
            rec[4..8].copy_from_slice(&r.size.to_le_bytes());
            rec[8..16].copy_from_slice(&r.addr.to_le_bytes());
            w.write_all(&rec)
        }
        Event::Compute(c) => {
            rec[0] = 2;
            rec[8..16].copy_from_slice(&c.to_le_bytes());
            w.write_all(&rec)
        }
        Event::Alloc { base, size, name } => {
            rec[0] = 3;
            rec[1] = u8::from(name.is_some());
            let nb = name.as_deref().unwrap_or("").as_bytes();
            // check:allow(names come from in-repo workloads, far below 64 KiB)
            let len = u16::try_from(nb.len()).expect("alloc name too long for binary trace");
            rec[2..4].copy_from_slice(&len.to_le_bytes());
            rec[8..16].copy_from_slice(&base.to_le_bytes());
            w.write_all(&rec)?;
            w.write_all(&size.to_le_bytes())?;
            w.write_all(nb)
        }
        Event::Free { base } => {
            rec[0] = 4;
            rec[8..16].copy_from_slice(&base.to_le_bytes());
            w.write_all(&rec)
        }
        Event::Phase(p) => {
            rec[0] = 5;
            rec[4..8].copy_from_slice(&p.to_le_bytes());
            w.write_all(&rec)
        }
    }
}

/// Wraps a program and tees every event it produces to a writer.
pub struct RecordingProgram<P: Program, W: Write> {
    inner: P,
    out: W,
    format: TraceFormat,
    header_written: bool,
}

impl<P: Program, W: Write> RecordingProgram<P, W> {
    /// Record in the historical text format.
    pub fn new(inner: P, out: W) -> Self {
        Self::with_format(inner, out, TraceFormat::Text)
    }

    /// Record in the given on-disk format.
    pub fn with_format(inner: P, out: W, format: TraceFormat) -> Self {
        RecordingProgram {
            inner,
            out,
            format,
            header_written: false,
        }
    }

    /// Finish recording and recover the writer.
    pub fn into_writer(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }

    fn write_header(&mut self) {
        let mut emit = || -> io::Result<()> {
            match self.format {
                TraceFormat::Text => {
                    writeln!(self.out, "{MAGIC}")?;
                    writeln!(self.out, "N {}", self.inner.name())?;
                    for o in self.inner.static_objects() {
                        writeln!(self.out, "O {:x} {} {}", o.base, o.size, o.name)?;
                    }
                }
                TraceFormat::Bin => {
                    self.out.write_all(BIN_MAGIC)?;
                    let nb = self.inner.name().as_bytes().to_vec();
                    // check:allow(names come from in-repo workloads, far below 64 KiB)
                    let len = u16::try_from(nb.len()).expect("program name too long");
                    self.out.write_all(&len.to_le_bytes())?;
                    self.out.write_all(&nb)?;
                    let objects = self.inner.static_objects();
                    // check:allow(object counts are bounded by workload size, far below u32::MAX)
                    let count = u32::try_from(objects.len()).expect("too many objects");
                    self.out.write_all(&count.to_le_bytes())?;
                    for o in objects {
                        self.out.write_all(&o.base.to_le_bytes())?;
                        self.out.write_all(&o.size.to_le_bytes())?;
                        let ob = o.name.as_bytes();
                        // check:allow(names come from in-repo workloads, far below 64 KiB)
                        let ol = u16::try_from(ob.len()).expect("object name too long");
                        self.out.write_all(&ol.to_le_bytes())?;
                        self.out.write_all(ob)?;
                    }
                }
            }
            Ok(())
        };
        // check:allow(recording sinks are in-memory or local files; the Program trait is infallible)
        emit().expect("trace header write failed");
        self.header_written = true;
    }

    fn write_one(&mut self, ev: &Event) {
        match self.format {
            TraceFormat::Text => write_event(&mut self.out, ev),
            TraceFormat::Bin => write_bin_event(&mut self.out, ev),
        }
        // check:allow(recording sinks are in-memory or local files; the Program trait is infallible)
        .expect("trace event write failed");
    }
}

impl<P: Program, W: Write> Program for RecordingProgram<P, W> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn static_objects(&self) -> Vec<ObjectDecl> {
        self.inner.static_objects()
    }

    fn next_event(&mut self) -> Option<Event> {
        if !self.header_written {
            self.write_header();
        }
        let ev = self.inner.next_event()?;
        self.write_one(&ev);
        Some(ev)
    }

    /// Chunked recording: pull a chunk from the wrapped program, then
    /// serialise it in flattened (original) event order. Keeps recorded
    /// runs on the inner program's native chunk path.
    fn next_chunk(&mut self, buf: &mut EventChunk) -> usize {
        if !self.header_written {
            self.write_header();
        }
        let n = self.inner.next_chunk(buf);
        for ev in buf.to_events() {
            self.write_one(&ev);
        }
        n
    }
}

/// Streams a recorded trace back as a [`Program`].
///
/// The header — magic, name and the contiguous block of `O` lines — is
/// parsed by [`TraceReader::new`], so [`Program::static_objects`] is
/// complete before the first event. Body errors never panic:
/// [`TraceReader::try_next_event`] returns them typed, and the
/// infallible [`Program::next_event`] path stashes the first error
/// (readable via [`TraceReader::error`]) and reports end-of-program.
pub struct TraceReader<R: BufRead> {
    name: String,
    objects: Vec<ObjectDecl>,
    lines: io::Lines<R>,
    line_no: usize,
    /// The line that ended the `O` block: the first body line, read by
    /// `new` but not yet parsed.
    pending: Option<String>,
    error: Option<TraceError>,
}

/// What class of trace defect a [`TraceError`] reports. Stable across
/// formats so tooling (the `check` subsystem's trace verifier) can map
/// reader failures to diagnostic codes without parsing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceErrorKind {
    /// The input does not start with a known trace magic.
    BadMagic,
    /// The header (name, static objects) ended mid-field.
    TruncatedHeader,
    /// A body record ended mid-field (torn 16-byte word, missing alloc
    /// tail, line cut mid-token).
    TruncatedRecord,
    /// A body record decoded but its contents are not legal (unknown
    /// tag, unparsable field, bad UTF-8 name).
    MalformedRecord,
    /// The underlying reader failed.
    Io,
}

impl TraceErrorKind {
    /// Short human tag (`bad_magic`, `truncated_record`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceErrorKind::BadMagic => "bad_magic",
            TraceErrorKind::TruncatedHeader => "truncated_header",
            TraceErrorKind::TruncatedRecord => "truncated_record",
            TraceErrorKind::MalformedRecord => "malformed_record",
            TraceErrorKind::Io => "io",
        }
    }
}

/// A malformed or truncated trace. `line` is 1-based for the text
/// format and 0 for binary traces (which report byte offsets in the
/// message instead).
#[derive(Debug, Clone)]
pub struct TraceError {
    pub line: usize,
    pub kind: TraceErrorKind,
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "trace line {}: {}", self.line, self.message)
        } else {
            write!(f, "trace: {}", self.message)
        }
    }
}

impl std::error::Error for TraceError {}

impl<R: BufRead> TraceReader<R> {
    /// Parse the header (magic, name, static objects); the body streams
    /// lazily through [`Program::next_event`].
    pub fn new(reader: R) -> Result<Self, TraceError> {
        let mut tr = TraceReader {
            name: String::new(),
            objects: Vec::new(),
            lines: reader.lines(),
            line_no: 0,
            pending: None,
            error: None,
        };
        let magic = tr.next_line()?.unwrap_or_default();
        if magic != MAGIC {
            return Err(TraceError {
                line: 1,
                kind: TraceErrorKind::BadMagic,
                message: format!("bad magic {magic:?}"),
            });
        }
        let name_line = tr.next_line()?.unwrap_or_default();
        tr.name = name_line
            .strip_prefix("N ")
            .ok_or(TraceError {
                line: tr.line_no,
                kind: TraceErrorKind::TruncatedHeader,
                message: "expected program name (N ...)".into(),
            })?
            .to_string();
        // io::Lines cannot peek, so the line that ends the `O` block is
        // kept for the body parser.
        while let Some(line) = tr.next_line()? {
            let Some(rest) = line.strip_prefix("O ") else {
                tr.pending = Some(line);
                break;
            };
            let err = |m: String| TraceError {
                line: tr.line_no,
                kind: TraceErrorKind::MalformedRecord,
                message: m,
            };
            let mut p = rest.splitn(3, ' ');
            let base = u64::from_str_radix(p.next().unwrap_or(""), 16)
                .map_err(|e| err(format!("bad object base: {e}")))?;
            let size: u64 = p
                .next()
                .unwrap_or("")
                .parse()
                .map_err(|e| err(format!("bad object size: {e}")))?;
            let name = p.next().unwrap_or("").to_string();
            tr.objects.push(ObjectDecl::global(name, base, size));
        }
        Ok(tr)
    }

    /// Read and count the next line (`Ok(None)` at EOF).
    fn next_line(&mut self) -> Result<Option<String>, TraceError> {
        self.line_no += 1;
        self.lines.next().transpose().map_err(|e| TraceError {
            line: self.line_no,
            kind: TraceErrorKind::Io,
            message: e.to_string(),
        })
    }

    /// The first body error encountered, if the stream ended on one.
    pub fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }

    /// Take the stashed body error (leaving the reader error-free).
    pub fn take_error(&mut self) -> Option<TraceError> {
        self.error.take()
    }

    /// 1-based number of the last line consumed.
    pub fn line(&self) -> usize {
        self.line_no
    }

    /// Fallible event pull: `Ok(None)` at clean end-of-trace, `Err` on a
    /// malformed line or I/O failure. Unlike [`Program::next_event`] this
    /// surfaces the error instead of stashing it.
    pub fn try_next_event(&mut self) -> Result<Option<Event>, TraceError> {
        loop {
            let line = match self.pending.take() {
                Some(line) => line,
                None => match self.next_line()? {
                    Some(line) => line,
                    None => return Ok(None),
                },
            };
            if let Some(ev) = Self::parse_event(&line, self.line_no)? {
                return Ok(Some(ev));
            }
        }
    }

    fn parse_event(line: &str, line_no: usize) -> Result<Option<Event>, TraceError> {
        let err = |m: String| TraceError {
            line: line_no,
            kind: TraceErrorKind::MalformedRecord,
            message: m,
        };
        let mut parts = line.split_whitespace();
        let Some(tag) = parts.next() else {
            return Ok(None); // blank line
        };
        let ev = match tag {
            "A" => {
                let addr = u64::from_str_radix(
                    parts.next().ok_or_else(|| err("A: missing addr".into()))?,
                    16,
                )
                .map_err(|e| err(format!("A: bad addr: {e}")))?;
                let size: u32 = parts
                    .next()
                    .ok_or_else(|| err("A: missing size".into()))?
                    .parse()
                    .map_err(|e| err(format!("A: bad size: {e}")))?;
                let kind = match parts.next() {
                    Some("R") => AccessKind::Read,
                    Some("W") => AccessKind::Write,
                    other => return Err(err(format!("A: bad kind {other:?}"))),
                };
                Event::Access(MemRef { addr, size, kind })
            }
            "C" => Event::Compute(
                parts
                    .next()
                    .ok_or_else(|| err("C: missing cycles".into()))?
                    .parse()
                    .map_err(|e| err(format!("C: bad cycles: {e}")))?,
            ),
            "M" => {
                let base = u64::from_str_radix(
                    parts.next().ok_or_else(|| err("M: missing base".into()))?,
                    16,
                )
                .map_err(|e| err(format!("M: bad base: {e}")))?;
                let size: u64 = parts
                    .next()
                    .ok_or_else(|| err("M: missing size".into()))?
                    .parse()
                    .map_err(|e| err(format!("M: bad size: {e}")))?;
                let rest: Vec<&str> = parts.collect();
                let name = if rest.is_empty() {
                    None
                } else {
                    Some(rest.join(" "))
                };
                Event::Alloc { base, size, name }
            }
            "F" => Event::Free {
                base: u64::from_str_radix(
                    parts.next().ok_or_else(|| err("F: missing base".into()))?,
                    16,
                )
                .map_err(|e| err(format!("F: bad base: {e}")))?,
            },
            "P" => Event::Phase(
                parts
                    .next()
                    .ok_or_else(|| err("P: missing id".into()))?
                    .parse()
                    .map_err(|e| err(format!("P: bad id: {e}")))?,
            ),
            other => return Err(err(format!("unknown tag {other:?}"))),
        };
        Ok(Some(ev))
    }
}

impl<R: BufRead> Program for TraceReader<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn static_objects(&self) -> Vec<ObjectDecl> {
        self.objects.clone()
    }

    fn next_event(&mut self) -> Option<Event> {
        if self.error.is_some() {
            return None;
        }
        match self.try_next_event() {
            Ok(ev) => ev,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

/// Streams a binary (v2) trace back as a [`Program`].
///
/// A feeder over [`BinStreamDecoder`], which owns the format: the reader
/// hands it bounded [`BufRead::fill_buf`] slices, drains the decoded
/// events, and declares end-of-stream at EOF. A file therefore decodes,
/// and fails, exactly as the same bytes pushed through a socket do. The
/// header is decoded by [`BinTraceReader::new`].
pub struct BinTraceReader<R: BufRead> {
    reader: R,
    decoder: BinStreamDecoder,
    error: Option<TraceError>,
}

/// Largest slice one feed hands the decoder. Bounds the decoder's
/// buffer, so an in-memory trace (whose `fill_buf` is the whole input)
/// is never copied whole.
const FEED_BYTES: usize = 64 * 1024;

/// Build a binary-trace error (binary errors report byte offsets, so
/// `line` is always 0).
fn bin_err(kind: TraceErrorKind, offset: u64, m: String) -> TraceError {
    TraceError {
        line: 0,
        kind,
        message: format!("{m} (byte offset {offset})"),
    }
}

impl<R: BufRead> BinTraceReader<R> {
    /// Decode the binary header; fails on a bad magic or truncated header.
    pub fn new(reader: R) -> Result<Self, TraceError> {
        let mut tr = BinTraceReader {
            reader,
            decoder: BinStreamDecoder::new(),
            error: None,
        };
        // At EOF, `feed` fails with the decoder's truncated-header error.
        while !tr.decoder.read_header()? {
            tr.feed()?;
        }
        Ok(tr)
    }

    /// The first body error encountered, if the stream ended on one.
    pub fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }

    /// Take the stashed body error (leaving the reader error-free).
    pub fn take_error(&mut self) -> Option<TraceError> {
        self.error.take()
    }

    /// Fallible record pull. `Ok(None)` at a clean EOF on a record
    /// boundary; a stream that ends mid-record is a
    /// [`TraceErrorKind::TruncatedRecord`] error, not EOF.
    pub fn try_next_event(&mut self) -> Result<Option<Event>, TraceError> {
        loop {
            if let Some(ev) = self.decoder.next_event()? {
                return Ok(Some(ev));
            }
            if !self.feed()? {
                return Ok(None);
            }
        }
    }

    /// Push the next slice of input into the decoder: `Ok(true)` while
    /// input remains. At EOF, declare end-of-stream instead: `Ok(false)`
    /// if the stream ended cleanly, the decoder's truncation error if not.
    fn feed(&mut self) -> Result<bool, TraceError> {
        let avail = match self.reader.fill_buf() {
            Ok(avail) => avail,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(true),
            Err(e) => {
                return Err(bin_err(
                    TraceErrorKind::Io,
                    self.decoder.consumed(),
                    format!("read error: {e}"),
                ))
            }
        };
        if avail.is_empty() {
            self.decoder.finish()?;
            return Ok(false);
        }
        let n = avail.len().min(FEED_BYTES);
        self.decoder.push(&avail[..n]);
        self.reader.consume(n);
        Ok(true)
    }
}

impl<R: BufRead> Program for BinTraceReader<R> {
    fn name(&self) -> &str {
        self.decoder.header().map_or("", |(name, _)| name)
    }

    fn static_objects(&self) -> Vec<ObjectDecl> {
        self.decoder
            .header()
            .map_or_else(Vec::new, |(_, objects)| objects.to_vec())
    }

    fn next_event(&mut self) -> Option<Event> {
        if self.error.is_some() {
            return None;
        }
        match self.try_next_event() {
            Ok(ev) => ev,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

/// Decode a little-endian u64 at `at` from a record word.
#[inline]
fn le_u64(rec: &[u8; 16], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&rec[at..at + 8]);
    u64::from_le_bytes(w)
}

/// Decode a little-endian u32 at `at` from a record word.
#[inline]
fn le_u32(rec: &[u8; 16], at: usize) -> u32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&rec[at..at + 4]);
    u32::from_le_bytes(w)
}

#[inline]
fn decode_access(rec: &[u8; 16]) -> MemRef {
    MemRef {
        addr: le_u64(rec, 8),
        size: le_u32(rec, 4),
        kind: if rec[1] != 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
    }
}

/// Push-based incremental decoder for the binary (v2) trace format, and
/// the only code that decodes its header and records.
///
/// Callers [`push`](Self::push) whatever bytes arrived (any slicing, down
/// to one byte at a time) and drain complete events with
/// [`next_event`](Self::next_event), which returns `Ok(None)` when the
/// buffered bytes end mid-record — decoding resumes exactly there on the
/// next push. Only [`finish`](Self::finish), called when the caller
/// knows the stream is truly over, turns a dangling partial record into
/// a [`TraceErrorKind::TruncatedRecord`] / `TruncatedHeader` error.
///
/// The daemon's ingress path (`cachescope serve`) pushes socket bytes,
/// and [`BinTraceReader`] pushes slices of a file, so a stream accepted
/// by one replays identically, with the same errors, through the other.
#[derive(Debug, Default)]
pub struct BinStreamDecoder {
    buf: Vec<u8>,
    /// Read position within `buf` (consumed bytes are compacted away
    /// periodically, not on every event).
    pos: usize,
    /// Total bytes consumed off the front of the stream so far.
    consumed: u64,
    /// Header fields, once fully parsed.
    header: Option<(String, Vec<ObjectDecl>)>,
    error: Option<TraceError>,
}

/// A decoded header: program name, static objects, encoded length.
type Header = (String, Vec<ObjectDecl>, usize);

impl BinStreamDecoder {
    pub fn new() -> Self {
        BinStreamDecoder::default()
    }

    /// Append newly-arrived stream bytes. Accepts any slicing.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the dead prefix dominates the buffer.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Program name and static objects, once the header has decoded.
    pub fn header(&self) -> Option<(&str, &[ObjectDecl])> {
        self.header
            .as_ref()
            .map(|(n, o)| (n.as_str(), o.as_slice()))
    }

    /// Total bytes consumed (header plus completed records).
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// The first decode error encountered, if any. Once set, the decoder
    /// is stuck: further pushes are ignored by `next_event`.
    pub fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }

    fn fail(&mut self, e: TraceError) -> TraceError {
        self.error = Some(e.clone());
        e
    }

    /// Whether the header has decoded, decoding it now if the buffered
    /// bytes hold all of it.
    fn read_header(&mut self) -> Result<bool, TraceError> {
        if self.header.is_some() {
            return Ok(true);
        }
        match self.try_parse_header() {
            Ok(None) => Ok(false),
            Ok(Some((name, objects, len))) => {
                self.pos += len;
                self.consumed += len as u64;
                self.header = Some((name, objects));
                Ok(true)
            }
            Err(e) => Err(self.fail(e)),
        }
    }

    /// Attempt to parse the header from the buffered prefix; `Ok(None)`
    /// while bytes are still missing.
    fn try_parse_header(&self) -> Result<Option<Header>, TraceError> {
        let b = &self.buf[self.pos..];
        if b.len() < 8 {
            // An early mismatch is still detectable: a 3-byte prefix that
            // already disagrees with the magic need not wait for 8 bytes.
            if !BIN_MAGIC.starts_with(&b[..b.len().min(8)]) {
                return Err(bin_err(
                    TraceErrorKind::BadMagic,
                    0,
                    format!("bad magic {b:?}"),
                ));
            }
            return Ok(None);
        }
        if &b[..8] != BIN_MAGIC {
            return Err(bin_err(
                TraceErrorKind::BadMagic,
                0,
                format!("bad magic {:?}", &b[..8]),
            ));
        }
        let mut at = 8usize;
        let take = |at: &mut usize, n: usize| -> Option<usize> {
            if b.len() - *at < n {
                return None;
            }
            let start = *at;
            *at += n;
            Some(start)
        };
        let read_str = |at: &mut usize| -> Option<Result<String, TraceError>> {
            let lp = take(at, 2)?;
            let len = u16::from_le_bytes([b[lp], b[lp + 1]]) as usize;
            let sp = take(at, len)?;
            Some(String::from_utf8(b[sp..sp + len].to_vec()).map_err(|e| {
                bin_err(
                    TraceErrorKind::MalformedRecord,
                    *at as u64,
                    format!("bad utf-8 header string: {e}"),
                )
            }))
        };
        let name = match read_str(&mut at) {
            None => return Ok(None),
            Some(r) => r?,
        };
        let Some(cp) = take(&mut at, 4) else {
            return Ok(None);
        };
        let count = u32::from_le_bytes([b[cp], b[cp + 1], b[cp + 2], b[cp + 3]]);
        // The count is untrusted: reserve for at most 4096 objects and
        // let a longer table grow as its bytes actually arrive.
        let mut objects = Vec::with_capacity(count.min(4096) as usize);
        for _ in 0..count {
            let Some(wp) = take(&mut at, 16) else {
                return Ok(None);
            };
            let mut w = [0u8; 8];
            w.copy_from_slice(&b[wp..wp + 8]);
            let base = u64::from_le_bytes(w);
            w.copy_from_slice(&b[wp + 8..wp + 16]);
            let size = u64::from_le_bytes(w);
            let oname = match read_str(&mut at) {
                None => return Ok(None),
                Some(r) => r?,
            };
            objects.push(ObjectDecl::global(oname, base, size));
        }
        Ok(Some((name, objects, at)))
    }

    /// Decode the next complete event, if the buffer holds one.
    /// `Ok(None)` means "need more bytes" — never an error; a stream cut
    /// mid-record only errors through [`finish`](Self::finish).
    // Inlined into `BinTraceReader`'s feed loop: replay decodes every
    // recorded event through this call.
    #[inline]
    pub fn next_event(&mut self) -> Result<Option<Event>, TraceError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        if self.header.is_none() && !self.read_header()? {
            return Ok(None);
        }
        let b = &self.buf[self.pos..];
        if b.len() < 16 {
            return Ok(None);
        }
        // check:allow(slice is exactly 16 bytes by the length guard)
        let rec: &[u8; 16] = b[..16].try_into().unwrap();
        let mut used = 16usize;
        let ev = match rec[0] {
            1 => Event::Access(decode_access(rec)),
            2 => Event::Compute(le_u64(rec, 8)),
            3 => {
                let base = le_u64(rec, 8);
                let has_name = rec[1] != 0;
                let name_len = u16::from_le_bytes([rec[2], rec[3]]) as usize;
                let tail = 8 + name_len;
                if b.len() < 16 + tail {
                    return Ok(None);
                }
                let mut w = [0u8; 8];
                w.copy_from_slice(&b[16..24]);
                let size = u64::from_le_bytes(w);
                let name = if has_name {
                    match String::from_utf8(b[24..24 + name_len].to_vec()) {
                        Ok(n) => Some(n),
                        Err(e) => {
                            let err = bin_err(
                                TraceErrorKind::MalformedRecord,
                                self.consumed,
                                format!("bad utf-8 alloc name: {e}"),
                            );
                            return Err(self.fail(err));
                        }
                    }
                } else {
                    None
                };
                used += tail;
                Event::Alloc { base, size, name }
            }
            4 => Event::Free {
                base: le_u64(rec, 8),
            },
            5 => Event::Phase(le_u32(rec, 4)),
            t => {
                let err = bin_err(
                    TraceErrorKind::MalformedRecord,
                    self.consumed,
                    format!("unknown record tag {t}"),
                );
                return Err(self.fail(err));
            }
        };
        self.pos += used;
        self.consumed += used as u64;
        Ok(Some(ev))
    }

    /// Declare end-of-stream, once [`next_event`](Self::next_event) has
    /// drained every complete event. Clean only when no partial header
    /// or record is left in the buffer; otherwise the error says what
    /// was cut.
    pub fn finish(&self) -> Result<(), TraceError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        let left = &self.buf[self.pos..];
        let (kind, message) = match (self.header.is_some(), left.len()) {
            (false, n) => (
                TraceErrorKind::TruncatedHeader,
                format!("truncated header: stream ended after {n} bytes"),
            ),
            (true, 0) => return Ok(()),
            (true, n @ 1..=15) => (
                TraceErrorKind::TruncatedRecord,
                format!("torn record: {n} of 16 bytes"),
            ),
            // A whole record word stays undecoded only when it is an
            // alloc whose tail has not all arrived.
            (true, n) => {
                let tail = 8 + u16::from_le_bytes([left[2], left[3]]) as usize;
                (
                    TraceErrorKind::TruncatedRecord,
                    format!("truncated alloc tail: {} of {tail} bytes", n - 16),
                )
            }
        };
        Err(bin_err(kind, self.consumed, message))
    }
}

/// A trace reader for either on-disk format, detected by magic.
pub enum AnyTraceReader<R: BufRead> {
    Text(TraceReader<R>),
    Bin(BinTraceReader<R>),
}

impl<R: BufRead> AnyTraceReader<R> {
    /// Sniff the magic without consuming input and open the matching
    /// reader.
    pub fn open(mut reader: R) -> Result<Self, TraceError> {
        let is_bin = reader
            .fill_buf()
            .map_err(|e| TraceError {
                line: 0,
                kind: TraceErrorKind::Io,
                message: format!("trace read error: {e}"),
            })?
            .starts_with(BIN_MAGIC);
        if is_bin {
            Ok(AnyTraceReader::Bin(BinTraceReader::new(reader)?))
        } else {
            Ok(AnyTraceReader::Text(TraceReader::new(reader)?))
        }
    }

    /// The first body error encountered, if the stream ended on one.
    pub fn error(&self) -> Option<&TraceError> {
        match self {
            AnyTraceReader::Text(t) => t.error(),
            AnyTraceReader::Bin(b) => b.error(),
        }
    }

    /// Take the stashed body error (leaving the reader error-free).
    pub fn take_error(&mut self) -> Option<TraceError> {
        match self {
            AnyTraceReader::Text(t) => t.take_error(),
            AnyTraceReader::Bin(b) => b.take_error(),
        }
    }
}

impl<R: BufRead> Program for AnyTraceReader<R> {
    fn name(&self) -> &str {
        match self {
            AnyTraceReader::Text(t) => t.name(),
            AnyTraceReader::Bin(b) => b.name(),
        }
    }

    fn static_objects(&self) -> Vec<ObjectDecl> {
        match self {
            AnyTraceReader::Text(t) => t.static_objects(),
            AnyTraceReader::Bin(b) => b.static_objects(),
        }
    }

    fn next_event(&mut self) -> Option<Event> {
        match self {
            AnyTraceReader::Text(t) => t.next_event(),
            AnyTraceReader::Bin(b) => b.next_event(),
        }
    }
}

/// Materialise an entire trace (either format, detected by magic) into a
/// [`TraceProgram`]: each decoded record goes straight into a
/// `TraceBuilder`, so the trace is held once, as the engine's chunks.
/// Use for small traces and tests; use [`TraceReader`] /
/// [`BinTraceReader`] (or [`AnyTraceReader`]) to stream large ones.
pub fn load_eager<R: BufRead>(reader: R) -> Result<TraceProgram, TraceError> {
    let mut tr = AnyTraceReader::open(reader)?;
    let mut trace = TraceBuilder::new();
    while let Some(ev) = tr.next_event() {
        trace.push(ev);
    }
    // The infallible Program pull stashes body errors; surface them.
    if let Some(e) = tr.take_error() {
        return Err(e);
    }
    Ok(trace.finish(tr.name().to_string(), tr.static_objects()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::{Engine, NullHandler, RunLimit};

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Phase(0),
            Event::Compute(100),
            Event::Access(MemRef::read(0x1000_0000, 8)),
            Event::Access(MemRef::write(0x1000_0040, 4)),
            Event::Alloc {
                base: 0x1_4100_0000,
                size: 4096,
                name: Some("tree node".into()),
            },
            Event::Access(MemRef::read(0x1_4100_0080, 8)),
            Event::Alloc {
                base: 0x1_4200_0000,
                size: 64,
                name: None,
            },
            Event::Free {
                base: 0x1_4100_0000,
            },
            Event::Compute(7),
        ]
    }

    fn sample_program() -> TraceProgram {
        TraceProgram::new(
            "roundtrip",
            vec![
                ObjectDecl::global("A", 0x1000_0000, 64),
                ObjectDecl::global("B C", 0x1000_0040, 64),
            ],
            sample_events(),
        )
    }

    fn record_to_string(p: impl Program) -> String {
        let mut rec = RecordingProgram::new(p, Vec::new());
        while rec.next_event().is_some() {}
        String::from_utf8(rec.into_writer()).unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let text = record_to_string(sample_program());
        assert!(text.starts_with(MAGIC));
        let replayed = load_eager(text.as_bytes()).expect("parse");
        assert_eq!(replayed.name(), "roundtrip");
        assert_eq!(replayed.static_objects(), sample_program().static_objects());
        let mut a = replayed;
        let mut b = TraceProgram::new("x", vec![], sample_events());
        loop {
            let ea = a.next_event();
            let eb = b.next_event();
            assert_eq!(ea, eb);
            if ea.is_none() {
                break;
            }
        }
    }

    #[test]
    fn replay_produces_identical_simulation_results() {
        let text = record_to_string(sample_program());
        let mut original = sample_program();
        let mut replayed = load_eager(text.as_bytes()).unwrap();
        let s1 = Engine::new(SimConfig::default()).run(
            &mut original,
            &mut NullHandler,
            RunLimit::Exhausted,
        );
        let s2 = Engine::new(SimConfig::default()).run(
            &mut replayed,
            &mut NullHandler,
            RunLimit::Exhausted,
        );
        assert_eq!(s1.app, s2.app);
        assert_eq!(s1.cycles, s2.cycles);
        assert_eq!(s1.unmapped_misses, s2.unmapped_misses);
        assert_eq!(s1.objects.len(), s2.objects.len());
        for (a, b) in s1.objects.iter().zip(&s2.objects) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.misses, b.misses);
        }
    }

    #[test]
    fn names_with_spaces_survive() {
        let text = record_to_string(sample_program());
        let replayed = load_eager(text.as_bytes()).unwrap();
        assert!(replayed.static_objects().iter().any(|o| o.name == "B C"));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = load_eager("not a trace\n".as_bytes()).unwrap_err();
        assert!(err.message.contains("bad magic"), "{err}");
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let text = format!("{MAGIC}\nN x\nA zz 8 R\n");
        let err = load_eager(text.as_bytes()).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::MalformedRecord);
        assert_eq!(err.line, 3, "error names the offending line");
        assert!(err.message.contains("bad addr"), "{err}");
    }

    #[test]
    fn streaming_reader_stashes_body_errors() {
        let text = format!("{MAGIC}\nN x\nC 5\nQ bogus\nC 6\n");
        let mut tr = TraceReader::new(text.as_bytes()).unwrap();
        assert_eq!(tr.next_event(), Some(Event::Compute(5)));
        assert_eq!(tr.next_event(), None, "stream stops at the bad line");
        assert_eq!(tr.next_event(), None, "and stays stopped");
        let err = tr.take_error().expect("error was stashed");
        assert_eq!(err.kind, TraceErrorKind::MalformedRecord);
        assert_eq!(err.line, 4);
    }

    #[test]
    fn bin_torn_record_is_a_typed_error_not_eof() {
        let bin = record_to_bin(sample_program());
        // Cut the final record in half: the old reader treated this as a
        // clean EOF and silently dropped the data.
        let torn = &bin[..bin.len() - 8];
        let err = load_eager(torn).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::TruncatedRecord);
        assert!(err.message.contains("torn record"), "{err}");
    }

    #[test]
    fn bin_truncated_alloc_tail_is_a_typed_error() {
        let p = TraceProgram::new(
            "t",
            vec![],
            vec![Event::Alloc {
                base: 0x10,
                size: 64,
                name: Some("node".into()),
            }],
        );
        let bin = record_to_bin(p);
        let cut = &bin[..bin.len() - 2]; // drop the last 2 name bytes
        let err = load_eager(cut).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::TruncatedRecord);
        assert!(err.message.contains("alloc tail"), "{err}");
    }

    #[test]
    fn bin_unknown_tag_is_a_typed_error() {
        let mut bin = record_to_bin(TraceProgram::new(
            "t",
            vec![],
            vec![Event::Compute(1), Event::Compute(2)],
        ));
        let body = bin.len() - 32;
        bin[body + 16] = 0xEE; // corrupt the second record's tag
        let err = load_eager(&bin[..]).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::MalformedRecord);
        assert!(err.message.contains("unknown record tag 238"), "{err}");
    }

    #[test]
    fn bin_chunked_path_reports_errors_too() {
        let bin = record_to_bin(sample_program());
        let torn = &bin[..bin.len() - 8];
        let mut tr = BinTraceReader::new(torn).unwrap();
        let mut chunk = crate::program::EventChunk::with_capacity(4096);
        while {
            chunk.reset();
            tr.next_chunk(&mut chunk) > 0
        } {}
        let err = tr.take_error().expect("torn record stashed via chunks");
        assert_eq!(err.kind, TraceErrorKind::TruncatedRecord);
    }

    #[test]
    fn streaming_reader_works_without_eager_load() {
        let text = record_to_string(sample_program());
        let mut tr = TraceReader::new(text.as_bytes()).unwrap();
        let mut count = 0;
        while tr.next_event().is_some() {
            count += 1;
        }
        assert_eq!(count, sample_events().len());
        assert_eq!(tr.static_objects().len(), 2, "objects parsed in passing");
    }

    fn record_to_bin(p: impl Program) -> Vec<u8> {
        let mut rec = RecordingProgram::with_format(p, Vec::new(), TraceFormat::Bin);
        while rec.next_event().is_some() {}
        rec.into_writer()
    }

    #[test]
    fn bin_roundtrip_preserves_everything() {
        let bin = record_to_bin(sample_program());
        assert!(bin.starts_with(BIN_MAGIC));
        let mut replayed = BinTraceReader::new(&bin[..]).expect("parse header");
        assert_eq!(replayed.name(), "roundtrip");
        assert_eq!(replayed.static_objects(), sample_program().static_objects());
        let mut b = TraceProgram::new("x", vec![], sample_events());
        loop {
            let ea = replayed.next_event();
            let eb = b.next_event();
            assert_eq!(ea, eb);
            if ea.is_none() {
                break;
            }
        }
    }

    #[test]
    fn bin_and_text_replays_match_the_live_run_exactly() {
        let text = record_to_string(sample_program());
        let bin = record_to_bin(sample_program());
        let run = |p: &mut dyn Program| {
            Engine::new(SimConfig::default()).run(p, &mut NullHandler, RunLimit::Exhausted)
        };
        let live = run(&mut sample_program());
        let from_text = run(&mut load_eager(text.as_bytes()).unwrap());
        let from_bin = run(&mut load_eager(&bin[..]).unwrap());
        for replay in [&from_text, &from_bin] {
            assert_eq!(live.app, replay.app);
            assert_eq!(live.cycles, replay.cycles);
            assert_eq!(live.unmapped_misses, replay.unmapped_misses);
            assert_eq!(live.objects.len(), replay.objects.len());
            for (a, b) in live.objects.iter().zip(&replay.objects) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.misses, b.misses);
            }
        }
    }

    #[test]
    fn auto_detect_opens_both_formats() {
        let text = record_to_string(sample_program());
        let bin = record_to_bin(sample_program());
        assert!(matches!(
            AnyTraceReader::open(text.as_bytes()).unwrap(),
            AnyTraceReader::Text(_)
        ));
        assert!(matches!(
            AnyTraceReader::open(&bin[..]).unwrap(),
            AnyTraceReader::Bin(_)
        ));
    }

    #[test]
    fn bin_chunked_decode_matches_event_decode() {
        let bin = record_to_bin(sample_program());
        let mut by_event = BinTraceReader::new(&bin[..]).unwrap();
        let mut by_chunk = BinTraceReader::new(&bin[..]).unwrap();
        let mut events = Vec::new();
        while let Some(ev) = by_event.next_event() {
            events.push(ev);
        }
        let mut chunked = Vec::new();
        let mut chunk = crate::program::EventChunk::with_capacity(3);
        loop {
            chunk.reset();
            if by_chunk.next_chunk(&mut chunk) == 0 {
                break;
            }
            chunked.extend(chunk.to_events());
        }
        assert_eq!(events, chunked);
    }

    #[test]
    fn bin_bad_magic_is_rejected() {
        let Err(err) = BinTraceReader::new(&b"cstraceX________"[..]) else {
            panic!("bad magic must be rejected");
        };
        assert!(err.message.contains("bad magic"), "{err}");
    }

    #[test]
    fn bin_truncated_header_is_rejected() {
        let Err(err) = BinTraceReader::new(&BIN_MAGIC[..5]) else {
            panic!("truncated header must be rejected");
        };
        assert!(err.message.contains("truncated"), "{err}");
    }

    /// A `BufRead` that reveals the underlying bytes at most `step` at a
    /// time: models a socket delivering a record split across reads.
    struct Dribble<'a> {
        data: &'a [u8],
        at: usize,
        step: usize,
    }

    impl std::io::Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(self.data.len() - self.at).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    impl BufRead for Dribble<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            let n = self.step.min(self.data.len() - self.at);
            Ok(&self.data[self.at..self.at + n])
        }
        fn consume(&mut self, amt: usize) {
            self.at += amt;
        }
    }

    #[test]
    fn reader_resumes_across_split_reads() {
        // Every record boundary lands mid-read for steps 1..=3: the
        // reader must resume, never mistake a short read for a torn
        // record. Both the event path and the chunked path are checked.
        let bin = record_to_bin(sample_program());
        let want = sample_events();
        for step in 1..=3usize {
            let mut tr = BinTraceReader::new(Dribble {
                data: &bin,
                at: 0,
                step,
            })
            .expect("header survives split reads");
            assert_eq!(tr.static_objects().len(), 2);
            let mut got = Vec::new();
            while let Some(ev) = tr.next_event() {
                got.push(ev);
            }
            assert!(tr.error().is_none(), "step {step}: {:?}", tr.error());
            assert_eq!(got, want, "step {step}");

            let mut tr = BinTraceReader::new(Dribble {
                data: &bin,
                at: 0,
                step,
            })
            .unwrap();
            let mut chunked = Vec::new();
            let mut chunk = crate::program::EventChunk::with_capacity(4);
            loop {
                chunk.reset();
                if tr.next_chunk(&mut chunk) == 0 {
                    break;
                }
                chunked.extend(chunk.to_events());
            }
            assert!(
                tr.error().is_none(),
                "chunked step {step}: {:?}",
                tr.error()
            );
            assert_eq!(chunked, want, "chunked step {step}");
        }
    }

    #[test]
    fn stream_decoder_handles_one_to_three_bytes_at_a_time() {
        let bin = record_to_bin(sample_program());
        let want = sample_events();
        for step in 1..=3usize {
            let mut dec = BinStreamDecoder::new();
            let mut got = Vec::new();
            for piece in bin.chunks(step) {
                dec.push(piece);
                while let Some(ev) = dec.next_event().expect("clean trace") {
                    got.push(ev);
                }
            }
            dec.finish().expect("no dangling partial record");
            assert_eq!(dec.consumed(), bin.len() as u64, "step {step}");
            let (name, objects) = dec.header().expect("header parsed");
            assert_eq!(name, "roundtrip");
            assert_eq!(objects.len(), 2);
            assert_eq!(got, want, "step {step}");
        }
    }

    #[test]
    fn stream_decoder_mid_record_is_need_more_until_finish() {
        let bin = record_to_bin(sample_program());
        let torn = &bin[..bin.len() - 8];
        let mut dec = BinStreamDecoder::new();
        dec.push(torn);
        while dec.next_event().expect("records decode").is_some() {}
        // Mid-record is not an error while the stream may continue...
        let err = dec.finish().expect_err("...but is one at end-of-stream");
        assert_eq!(err.kind, TraceErrorKind::TruncatedRecord);
        // ...and pushing the rest resumes cleanly.
        dec.push(&bin[bin.len() - 8..]);
        assert!(dec.next_event().expect("resumed").is_some());
        dec.finish().expect("now complete");
    }

    #[test]
    fn stream_decoder_rejects_bad_magic_early() {
        let mut dec = BinStreamDecoder::new();
        dec.push(b"css"); // already disagrees with "cstrace2"
        let err = dec.next_event().expect_err("mismatching prefix");
        assert_eq!(err.kind, TraceErrorKind::BadMagic);
    }

    #[test]
    fn stream_decoder_reports_unknown_tag_and_stays_stuck() {
        let mut bin = record_to_bin(TraceProgram::new(
            "t",
            vec![],
            vec![Event::Compute(1), Event::Compute(2)],
        ));
        let body = bin.len() - 32;
        bin[body] = 0xEE;
        let mut dec = BinStreamDecoder::new();
        dec.push(&bin);
        let err = dec.next_event().expect_err("unknown tag");
        assert_eq!(err.kind, TraceErrorKind::MalformedRecord);
        assert!(err.message.contains("unknown record tag 238"), "{err}");
        assert!(dec.next_event().is_err(), "decoder stays stuck");
        assert!(dec.finish().is_err());
    }

    #[test]
    fn stream_decoder_truncated_header_reported_at_finish() {
        let bin = record_to_bin(sample_program());
        let mut dec = BinStreamDecoder::new();
        dec.push(&bin[..10]); // magic + part of the name length
        assert!(dec.next_event().expect("need more").is_none());
        let err = dec.finish().expect_err("header incomplete");
        assert_eq!(err.kind, TraceErrorKind::TruncatedHeader);
    }

    #[test]
    fn stream_decoder_matches_reader_on_alloc_tails() {
        // Alloc records carry a variable tail; split it every way.
        let p = TraceProgram::new(
            "t",
            vec![],
            vec![
                Event::Alloc {
                    base: 0x10,
                    size: 64,
                    name: Some("tree node".into()),
                },
                Event::Access(MemRef::read(0x10, 8)),
                Event::Free { base: 0x10 },
            ],
        );
        let bin = record_to_bin(p);
        for split in 1..bin.len() {
            let mut dec = BinStreamDecoder::new();
            dec.push(&bin[..split]);
            let mut got = Vec::new();
            while let Some(ev) = dec.next_event().unwrap() {
                got.push(ev);
            }
            dec.push(&bin[split..]);
            while let Some(ev) = dec.next_event().unwrap() {
                got.push(ev);
            }
            dec.finish()
                .unwrap_or_else(|e| panic!("split {split}: {e}"));
            assert_eq!(got.len(), 3, "split {split}");
        }
    }

    #[test]
    fn bin_records_are_fixed_width() {
        // Header for an unnamed program with no objects: magic + u16 len
        // + u32 count; then two 16-byte records.
        let p = TraceProgram::new(
            "",
            vec![],
            vec![Event::Access(MemRef::read(0x1234, 8)), Event::Compute(99)],
        );
        let bin = record_to_bin(p);
        assert_eq!(bin.len(), 8 + 2 + 4 + 16 + 16);
    }
}
