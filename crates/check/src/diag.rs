//! Structured diagnostics: the checker's unit of output.
//!
//! Every checker pass emits [`Diagnostic`]s with a stable code from the
//! registry below, a severity, a location (input file or source file plus
//! line) and an optional fix hint. Diagnostics render as single human
//! lines (`error[CS-W001] t.trace:12: ...`) and serialize through the
//! `obs` event model ([`ObsEvent::CheckDiagnostic`]), so a `--json` run
//! produces the same JSONL shape as every other tool in the repo.
//!
//! # Code registry
//!
//! | Range    | Pass                | Meaning                             |
//! |----------|---------------------|-------------------------------------|
//! | CS-W00x  | lifecycle / extents | allocation lifecycle, overlaps      |
//! | CS-C00x  | chunk encoding      | [`EventChunk`] well-formedness      |
//! | CS-T00x  | trace files         | header/record integrity             |
//! | CS-P00x  | PMU legality        | counter/period/width configuration  |
//! | CS-S00x  | campaign specs      | JSON shape, matrix validity         |
//! | CS-L00x  | repo self-lint      | source invariants                   |
//! | CS-O00x  | profile outputs     | timeline/span JSONL framing         |
//! | CS-V00x  | serve wire frames   | frame magic/length/type, handshake  |
//! | CS-F00x  | fuzz artifacts      | scenario/verdict/golden JSON shape  |
//! | CS-A00x  | static bounds       | provable pathologies, bounds gates  |
//!
//! Codes are append-only: a released code never changes meaning.
//!
//! [`EventChunk`]: cachescope_sim::EventChunk
//! [`ObsEvent::CheckDiagnostic`]: cachescope_obs::ObsEvent::CheckDiagnostic

use cachescope_obs::{Json, ObsEvent};

/// The machine-readable code registry: every stable diagnostic code the
/// checker can emit, with a one-line meaning. The registry drives the
/// drift test in `tests/registry.rs` — every code must be unique,
/// documented in README's code table, emitted somewhere in the checker
/// or analyzer sources, and covered by at least one golden test — so
/// adding a code without updating the docs and goldens fails the build.
pub const REGISTRY: &[(&str, &str)] = &[
    ("CS-W001", "allocation overlaps a live block"),
    ("CS-W002", "free of an address with no live allocation"),
    ("CS-W003", "access references a freed block"),
    ("CS-W004", "heap block still live at program exit"),
    ("CS-W005", "object extents overlap"),
    ("CS-W006", "zero-size object can never be attributed a miss"),
    ("CS-C001", "chunk mark position exceeds the access run"),
    ("CS-C002", "chunk mark positions decrease"),
    (
        "CS-C003",
        "pre_cycles length is neither zero nor the run length",
    ),
    ("CS-C004", "chunk holds more events than its capacity"),
    ("CS-C005", "chunk mark holds an access event"),
    ("CS-T001", "trace file has a bad magic"),
    ("CS-T002", "trace header is truncated"),
    ("CS-T003", "trace record is truncated"),
    ("CS-T004", "trace record is malformed or unreadable"),
    ("CS-P001", "object extent wraps the address space"),
    ("CS-P002", "counter width wraps within the configured run"),
    ("CS-P003", "sampling period or adaptive target is illegal"),
    ("CS-P004", "zero PMU counters configured"),
    ("CS-P005", "logical search width is outside its range"),
    ("CS-P006", "fault knob is out of range"),
    ("CS-P007", "more PMU counters configured than the cap"),
    ("CS-S001", "campaign spec is not valid JSON"),
    ("CS-S002", "campaign spec has an unknown key"),
    ("CS-S003", "campaign spec has a duplicate key"),
    ("CS-S004", "campaign spec is missing a required field"),
    ("CS-S005", "campaign spec uses an unknown kind tag"),
    ("CS-S006", "campaign spec names an unknown workload"),
    ("CS-S007", "campaign spec has duplicate technique labels"),
    ("CS-S008", "campaign matrix contains duplicate cells"),
    ("CS-L001", "unwrap() in library code"),
    ("CS-L002", "expect() in library code"),
    ("CS-L003", "panic! or assert! in library code"),
    ("CS-L004", "wall-clock time in a deterministic crate"),
    ("CS-L005", "OS randomness in a deterministic crate"),
    ("CS-L006", "println! in library code"),
    ("CS-L007", "narrowing as-cast in a hot-path crate"),
    ("CS-O001", "timeline line is malformed"),
    (
        "CS-O002",
        "timeline windows are empty, inverted or out of order",
    ),
    ("CS-O003", "span opens and closes do not nest"),
    ("CS-O004", "span timestamps go backwards"),
    ("CS-V001", "wire frame has a bad magic"),
    ("CS-V002", "wire frame payload exceeds the length budget"),
    ("CS-V003", "wire protocol version is not supported"),
    ("CS-V004", "unknown wire frame type"),
    ("CS-V005", "wire payload is truncated or too short"),
    (
        "CS-F001",
        "fuzz artifact has an unknown kind or is unreadable",
    ),
    ("CS-F002", "fuzz artifact is missing a required field"),
    ("CS-F003", "fuzz scenario fails structural validation"),
    ("CS-F004", "fuzz verdict counts disagree with its findings"),
    (
        "CS-F005",
        "unresolved silent finding or failed golden replay",
    ),
    ("CS-A001", "object provably thrashes the cache"),
    (
        "CS-A002",
        "two hot objects provably alias into the same sets",
    ),
    ("CS-A003", "phase working set provably exceeds capacity"),
    (
        "CS-A004",
        "simulated misses violate the provable static bounds",
    ),
    ("CS-A005", "trace is provably unattributable"),
];

/// How bad a finding is. `Error` findings make `cachescope check` exit
/// nonzero; `Warning` findings only do under `--deny-warnings`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    /// The tag used in human and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One checker finding: stable code, location, message, optional hint.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable code from the registry (`CS-W001`, ...).
    pub code: &'static str,
    pub severity: Severity,
    /// The checked input: a file path, `workload:<name>`, or a source
    /// file (self-lint).
    pub file: String,
    /// 1-based line for line-structured inputs (text traces, source
    /// files); 0 when the input has none (binary traces, specs, chunks —
    /// the message carries byte offsets or key paths instead).
    pub line: u64,
    pub message: String,
    /// How to fix it, when the checker knows.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// An error finding.
    pub fn error(code: &'static str, file: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            file: file.into(),
            line: 0,
            message: message.into(),
            hint: None,
        }
    }

    /// A warning finding.
    pub fn warning(
        code: &'static str,
        file: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, file, message)
        }
    }

    /// Attach a 1-based line number.
    pub fn at_line(mut self, line: u64) -> Self {
        self.line = line;
        self
    }

    /// Attach a fix hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }

    /// One human-readable line (plus an indented hint line, if any):
    /// `error[CS-W001] t.trace:12: allocation overlaps live block`.
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}] {}", self.severity.as_str(), self.code, self.file);
        if self.line > 0 {
            out.push_str(&format!(":{}", self.line));
        }
        out.push_str(&format!(": {}", self.message));
        if let Some(h) = &self.hint {
            out.push_str(&format!("\n  hint: {h}"));
        }
        out
    }

    /// The diagnostic as an `obs` event (the JSON serialization path).
    pub fn to_event(&self) -> ObsEvent {
        ObsEvent::CheckDiagnostic {
            code: self.code.to_string(),
            severity: self.severity.as_str(),
            file: self.file.clone(),
            line: self.line,
            message: self.message.clone(),
        }
    }

    /// One JSON object (`{"type":"check_diagnostic",...}`, plus the hint
    /// when present).
    pub fn to_json(&self) -> Json {
        let mut j = self.to_event().to_json();
        if let (Json::Obj(fields), Some(h)) = (&mut j, &self.hint) {
            fields.push(("hint".to_string(), Json::str(h.clone())));
        }
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_with_and_without_line_and_hint() {
        let d = Diagnostic::error("CS-W001", "t.trace", "boom").at_line(12);
        assert_eq!(d.render(), "error[CS-W001] t.trace:12: boom");
        let d = Diagnostic::warning("CS-W004", "w", "leak").with_hint("free it");
        assert_eq!(d.render(), "warning[CS-W004] w: leak\n  hint: free it");
    }

    #[test]
    fn json_is_a_tagged_event_with_hint() {
        let d = Diagnostic::error("CS-T003", "x.bin", "torn").with_hint("re-record");
        let j = d.to_json();
        let parsed = cachescope_obs::json::parse(&j.render()).unwrap();
        assert_eq!(
            parsed.get("type").and_then(Json::as_str),
            Some("check_diagnostic")
        );
        assert_eq!(parsed.get("code").and_then(Json::as_str), Some("CS-T003"));
        assert_eq!(parsed.get("severity").and_then(Json::as_str), Some("error"));
        assert_eq!(parsed.get("hint").and_then(Json::as_str), Some("re-record"));
    }
}
