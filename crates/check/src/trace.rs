//! Trace-file verification (text v1 and binary v2) without simulation.
//!
//! Opens a recorded trace through the same readers the engine replays
//! with, maps reader failures to stable diagnostic codes, and drives the
//! decoded event stream through the [`lifecycle`](crate::lifecycle) and
//! [`pmu`](crate::pmu) extent passes — so a trace is verified end to end
//! (framing, encoding, and the semantic invariants attribution assumes)
//! in one linear read.
//!
//! Codes: `CS-T001` bad magic, `CS-T002` truncated header, `CS-T003`
//! truncated record, `CS-T004` malformed record or read failure — plus
//! any `CS-W00x`/`CS-P001` findings from the semantic passes.

use std::io::BufRead;
use std::path::Path;

use cachescope_sim::tracefile::{AnyTraceReader, TraceError, TraceErrorKind};
use cachescope_sim::Program;

use crate::diag::Diagnostic;
use crate::lifecycle::LifecycleChecker;

/// Upper bound on events examined per trace: verification is linear, but
/// an adversarially long stream should not hold the checker hostage.
pub const MAX_TRACE_EVENTS: u64 = 50_000_000;

/// Map a reader error to its stable diagnostic code. Public so the
/// serve daemon rejects a malformed in-flight stream with the same code
/// `cachescope check` would report for the equivalent file.
pub fn error_code(kind: TraceErrorKind) -> &'static str {
    match kind {
        TraceErrorKind::BadMagic => "CS-T001",
        TraceErrorKind::TruncatedHeader => "CS-T002",
        TraceErrorKind::TruncatedRecord => "CS-T003",
        TraceErrorKind::MalformedRecord | TraceErrorKind::Io => "CS-T004",
    }
}

fn error_diag(e: &TraceError, source: &str) -> Diagnostic {
    let hint = match e.kind {
        TraceErrorKind::BadMagic => "expected a 'cachescope-trace 1' or 'cstrace2' header",
        TraceErrorKind::TruncatedHeader | TraceErrorKind::TruncatedRecord => {
            "the file was cut short; re-record it"
        }
        TraceErrorKind::MalformedRecord => "the record decodes but its contents are not legal",
        TraceErrorKind::Io => "the underlying read failed",
    };
    Diagnostic::error(error_code(e.kind), source, e.message.clone())
        .at_line(e.line as u64)
        .with_hint(hint)
}

/// Check a trace supplied as a reader. `source` names it in diagnostics.
pub fn check_trace<R: BufRead>(reader: R, source: &str) -> Vec<Diagnostic> {
    let mut tr = match AnyTraceReader::open(reader) {
        Ok(tr) => tr,
        Err(e) => return vec![error_diag(&e, source)],
    };
    let mut diags = Vec::new();
    let statics = tr.static_objects();
    diags.extend(crate::pmu::check_objects(&statics, source));
    let mut lifecycle = LifecycleChecker::new(source, &statics);
    let mut seen = 0u64;
    let mut ended = false;
    loop {
        if seen >= MAX_TRACE_EVENTS {
            break;
        }
        // Position: the line just consumed for text traces; the running
        // event ordinal for binary ones (whose errors carry byte offsets
        // in their messages instead).
        let (ev, pos) = match &mut tr {
            AnyTraceReader::Text(t) => (t.next_event(), t.line() as u64),
            AnyTraceReader::Bin(b) => (b.next_event(), 0),
        };
        match ev {
            Some(ev) => {
                seen += 1;
                lifecycle.observe(&ev, pos);
            }
            None => {
                ended = tr.error().is_none();
                break;
            }
        }
    }
    if let Some(e) = tr.take_error() {
        diags.push(error_diag(&e, source));
    }
    diags.extend(lifecycle.finish(ended));
    diags
}

/// Check a trace file on disk (format auto-detected by magic).
pub fn check_trace_path(path: &Path) -> Vec<Diagnostic> {
    let source = path.display().to_string();
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            return vec![Diagnostic::error(
                "CS-T004",
                source,
                format!("cannot open trace: {e}"),
            )]
        }
    };
    check_trace(std::io::BufReader::new(file), &source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachescope_sim::tracefile::{RecordingProgram, TraceFormat};
    use cachescope_sim::{Event, MemRef, ObjectDecl, Program, TraceProgram};

    fn sample() -> TraceProgram {
        TraceProgram::new(
            "t",
            vec![ObjectDecl::global("A", 0x1000, 64)],
            vec![
                Event::Alloc {
                    base: 0x4000,
                    size: 64,
                    name: Some("n".into()),
                },
                Event::Access(MemRef::read(0x4000, 8)),
                Event::Free { base: 0x4000 },
            ],
        )
    }

    fn text_of(p: impl Program) -> String {
        let mut rec = RecordingProgram::new(p, Vec::new());
        while rec.next_event().is_some() {}
        String::from_utf8(rec.into_writer()).unwrap()
    }

    fn bin_of(p: impl Program) -> Vec<u8> {
        let mut rec = RecordingProgram::with_format(p, Vec::new(), TraceFormat::Bin);
        while rec.next_event().is_some() {}
        rec.into_writer()
    }

    #[test]
    fn clean_traces_in_both_formats_pass() {
        assert!(check_trace(text_of(sample()).as_bytes(), "t").is_empty());
        assert!(check_trace(&bin_of(sample())[..], "t").is_empty());
    }

    #[test]
    fn bad_magic_is_t001() {
        let diags = check_trace(&b"not a trace\n"[..], "t");
        assert_eq!(diags[0].code, "CS-T001");
    }

    #[test]
    fn truncated_bin_header_is_t002() {
        let bin = bin_of(sample());
        let diags = check_trace(&bin[..10], "t");
        assert_eq!(diags[0].code, "CS-T002");
    }

    #[test]
    fn torn_bin_record_is_t003() {
        let bin = bin_of(sample());
        let diags = check_trace(&bin[..bin.len() - 5], "t");
        assert!(diags.iter().any(|d| d.code == "CS-T003"), "{diags:?}");
    }

    #[test]
    fn malformed_text_line_is_t004_with_line() {
        let text = "cachescope-trace 1\nN x\nA zz 8 R\n";
        let diags = check_trace(text.as_bytes(), "t");
        assert_eq!(diags[0].code, "CS-T004");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn static_objects_are_checked_in_both_formats() {
        // The header's objects must be known right after `open`, before
        // any body event: overlapping and zero-size statics warn alike
        // whichever format carried them.
        let p = || {
            TraceProgram::new(
                "t",
                vec![
                    ObjectDecl::global("a", 0x1000, 64),
                    ObjectDecl::global("b", 0x1020, 64),
                    ObjectDecl::global("z", 0x3000, 0),
                ],
                vec![Event::Access(MemRef::read(0x1000, 8))],
            )
        };
        let codes = |diags: Vec<Diagnostic>| diags.iter().map(|d| d.code).collect::<Vec<_>>();
        let want = ["CS-W005", "CS-W006"];
        assert_eq!(codes(check_trace(text_of(p()).as_bytes(), "t")), want);
        assert_eq!(codes(check_trace(&bin_of(p())[..], "t")), want);
    }

    #[test]
    fn object_line_after_the_body_starts_is_t004() {
        // The recorder writes `O` lines only in the header.
        let text = "cachescope-trace 1\nN x\nO 1000 64 a\nC 5\nO 2000 64 b\n";
        let diags = check_trace(text.as_bytes(), "t");
        assert_eq!(diags[0].code, "CS-T004");
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn lifecycle_violations_inside_traces_surface() {
        let p = TraceProgram::new(
            "t",
            vec![],
            vec![
                Event::Free { base: 0x4000 }, // free without alloc
            ],
        );
        let diags = check_trace(text_of(p).as_bytes(), "t");
        assert_eq!(diags[0].code, "CS-W002");
        assert_eq!(diags[0].line, 3, "first body line of the trace");
    }
}
