//! Per-session incremental trace ingest and configuration.
//!
//! A session is created at `Hello`, fed binary-v2 trace bytes chunk by
//! chunk as `Data` frames arrive, and resolved into a report at `End`.
//! Ingest is fully incremental: every arriving slice goes through the
//! split-read-safe [`BinStreamDecoder`] and the running content hash —
//! so a malformed stream is refused with the same stable `CS-T*` code
//! `cachescope check` would report for the equivalent file, before any
//! worker is touched.

use cachescope_campaign::Fnv1a64;
use cachescope_core::{refuse_run, FaultConfig, TechniqueConfig};
use cachescope_obs::{json, Json};
use cachescope_sim::tracefile::BinStreamDecoder;
use cachescope_sim::{Event, ObjectDecl, TraceProgram};

/// Why a session (or connection) was refused: a stable code, a human
/// message, and whether retrying the identical submission later can
/// succeed (admission refusals are retryable; malformed input is not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refusal {
    pub code: String,
    pub message: String,
    pub retryable: bool,
}

impl Refusal {
    pub fn new(code: impl Into<String>, message: impl Into<String>, retryable: bool) -> Self {
        Refusal {
            code: code.into(),
            message: message.into(),
            retryable,
        }
    }

    /// The `Reject` frame payload.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("code", Json::str(self.code.clone())),
            ("message", Json::str(self.message.clone())),
            ("retryable", Json::Bool(self.retryable)),
        ])
    }

    /// Parse a `Reject` frame payload (client side).
    pub fn from_json(payload: &[u8]) -> Option<Refusal> {
        let text = std::str::from_utf8(payload).ok()?;
        let v = json::parse(text).ok()?;
        Some(Refusal {
            code: v.get("code")?.as_str()?.to_string(),
            message: v.get("message")?.as_str()?.to_string(),
            retryable: matches!(v.get("retryable"), Some(Json::Bool(true))),
        })
    }
}

/// What a client asks the daemon to run, carried in the `Hello` payload
/// after the protocol version: a JSON object with optional keys
/// `technique` (spec string), `misses`, `counters`, `interval`.
/// Defaults match the batch CLI.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    pub technique_spec: String,
    pub misses: u64,
    pub counters: usize,
    pub interval: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            technique_spec: "sampling:1000".to_string(),
            misses: 1_000_000,
            counters: 10,
            interval: 25_000_000,
        }
    }
}

impl SessionConfig {
    /// Parse the JSON configuration following the hello version bytes.
    /// Unknown keys are rejected — a typo must not silently run the
    /// default technique.
    pub fn from_json(bytes: &[u8]) -> Result<SessionConfig, Refusal> {
        let bad = |m: String| Refusal::new("bad_config", m, false);
        let text = std::str::from_utf8(bytes)
            .map_err(|e| bad(format!("hello config is not utf-8: {e}")))?;
        let mut cfg = SessionConfig::default();
        if text.trim().is_empty() {
            return Ok(cfg);
        }
        let v = json::parse(text).map_err(|e| bad(format!("hello config: {e}")))?;
        let Json::Obj(fields) = &v else {
            return Err(bad("hello config must be a JSON object".to_string()));
        };
        for (key, val) in fields {
            match key.as_str() {
                "technique" => {
                    cfg.technique_spec = val
                        .as_str()
                        .ok_or_else(|| bad("\"technique\" must be a string".to_string()))?
                        .to_string();
                }
                "misses" => {
                    cfg.misses = val
                        .as_u64()
                        .ok_or_else(|| bad("\"misses\" must be an integer".to_string()))?;
                }
                "counters" => {
                    let n = val
                        .as_u64()
                        .ok_or_else(|| bad("\"counters\" must be an integer".to_string()))?;
                    cfg.counters = usize::try_from(n).unwrap_or(usize::MAX);
                }
                "interval" => {
                    cfg.interval = val
                        .as_u64()
                        .ok_or_else(|| bad("\"interval\" must be an integer".to_string()))?;
                }
                other => return Err(bad(format!("unknown hello config key: {other:?}"))),
            }
        }
        // Judge the run now, at admission, not after the bytes.
        refuse_run(&cfg.technique()?, cfg.counters, &FaultConfig::default())
            .map_err(|e| bad(format!("{e} (hello technique {:?})", cfg.technique_spec)))?;
        Ok(cfg)
    }

    /// The parsed technique (aggregation and progress logging are batch
    /// CLI concerns; sessions never enable them).
    pub fn technique(&self) -> Result<TechniqueConfig, Refusal> {
        TechniqueConfig::parse_spec(&self.technique_spec, self.interval, false, false)
            .map_err(|e| Refusal::new("bad_config", e, false))
    }

    /// The configuration as hello-payload JSON (client side).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("technique", Json::str(self.technique_spec.clone())),
            ("misses", Json::Uint(self.misses)),
            ("counters", Json::Uint(self.counters as u64)),
            ("interval", Json::Uint(self.interval)),
        ])
    }

    /// Canonical identity for content-addressed dedup: the technique's
    /// canonical JSON (the same form campaign cells hash) plus the run
    /// bounds. Two configs with equal canonicals produce byte-identical
    /// reports for byte-identical traces.
    pub fn canonical(&self) -> Result<Json, Refusal> {
        Ok(Json::obj(vec![
            ("technique", self.technique()?.to_json()),
            ("misses", Json::Uint(self.misses)),
            ("counters", Json::Uint(self.counters as u64)),
        ]))
    }
}

/// A finished, validated ingest: everything needed to simulate (or to
/// find an identical simulation).
#[derive(Debug)]
pub struct FinishedStream {
    pub name: String,
    pub objects: Vec<ObjectDecl>,
    pub events: Vec<Event>,
    /// Raw trace bytes received.
    pub bytes: u64,
    /// FNV-1a 64 over the raw trace bytes, as 16 hex digits.
    pub trace_digest: String,
}

impl FinishedStream {
    /// The decoded trace as a replayable program.
    pub fn into_program(self) -> TraceProgram {
        TraceProgram::new(self.name, self.objects, self.events)
    }
}

/// Incremental ingest state for one session's trace stream.
#[derive(Debug)]
pub struct SessionStream {
    decoder: BinStreamDecoder,
    hasher: Fnv1a64,
    bytes: u64,
    events: Vec<Event>,
}

impl Default for SessionStream {
    fn default() -> Self {
        SessionStream {
            decoder: BinStreamDecoder::new(),
            hasher: Fnv1a64::new(),
            bytes: 0,
            events: Vec::new(),
        }
    }
}

impl SessionStream {
    pub fn new() -> Self {
        SessionStream::default()
    }

    /// Raw trace bytes received so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Decoded events so far.
    pub fn events(&self) -> u64 {
        self.events.len() as u64
    }

    /// Feed one `Data` frame's bytes. `budget` caps the session's total
    /// raw bytes; crossing it refuses the stream before decoding the
    /// offending slice.
    pub fn feed(&mut self, data: &[u8], budget: u64) -> Result<(), Refusal> {
        if self.bytes + data.len() as u64 > budget {
            return Err(Refusal::new(
                "byte_budget",
                format!(
                    "session exceeds the {budget}-byte budget ({} received + {} arriving)",
                    self.bytes,
                    data.len()
                ),
                false,
            ));
        }
        self.bytes += data.len() as u64;
        self.hasher.update(data);
        self.decoder.push(data);
        loop {
            match self.decoder.next_event() {
                Ok(Some(ev)) => self.events.push(ev),
                Ok(None) => return Ok(()),
                Err(e) => {
                    return Err(Refusal::new(
                        cachescope_check::trace::error_code(e.kind),
                        e.message,
                        false,
                    ))
                }
            }
        }
    }

    /// Declare end-of-stream and finalize. Dangling bytes (a stream cut
    /// mid-record or mid-header) refuse with the truncation codes.
    pub fn finish(self) -> Result<FinishedStream, Refusal> {
        if let Err(e) = self.decoder.finish() {
            return Err(Refusal::new(
                cachescope_check::trace::error_code(e.kind),
                e.message,
                false,
            ));
        }
        let Some((name, objects)) = self.decoder.header() else {
            return Err(Refusal::new(
                "CS-T002",
                "stream ended before the trace header".to_string(),
                false,
            ));
        };
        Ok(FinishedStream {
            name: name.to_string(),
            objects: objects.to_vec(),
            events: self.events,
            bytes: self.bytes,
            trace_digest: self.hasher.hex(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachescope_core::PmuConfig;
    use cachescope_sim::tracefile::{RecordingProgram, TraceFormat};
    use cachescope_sim::{MemRef, Program};

    fn bin_trace() -> Vec<u8> {
        let p = TraceProgram::new(
            "t",
            vec![ObjectDecl::global("A", 0x1000, 64)],
            vec![
                Event::Access(MemRef::read(0x1000, 8)),
                Event::Compute(5),
                Event::Access(MemRef::write(0x1010, 8)),
            ],
        );
        let mut rec = RecordingProgram::with_format(p, Vec::new(), TraceFormat::Bin);
        while rec.next_event().is_some() {}
        rec.into_writer()
    }

    #[test]
    fn config_parses_defaults_and_rejects_unknown_keys() {
        let cfg = SessionConfig::from_json(b"").unwrap();
        assert_eq!(cfg, SessionConfig::default());
        let cfg = SessionConfig::from_json(br#"{"technique":"search:4","misses":10,"counters":2}"#)
            .unwrap();
        assert_eq!(cfg.technique_spec, "search:4");
        assert_eq!((cfg.misses, cfg.counters), (10, 2));
        let err = SessionConfig::from_json(br#"{"tecnique":"none"}"#).unwrap_err();
        assert_eq!(err.code, "bad_config");
        let err = SessionConfig::from_json(br#"{"technique":"magic"}"#).unwrap_err();
        assert_eq!(err.code, "bad_config");
        // A count the PMU cannot be built with is refused at admission,
        // before any simulation: zero would abort the search, a huge one
        // the counter array's allocation.
        for n in ["0", "65", "100000000000", "18446744073709551615"] {
            let hello = format!(r#"{{"technique":"search","counters":{n}}}"#);
            let err = SessionConfig::from_json(hello.as_bytes()).unwrap_err();
            assert_eq!(err.code, "bad_config", "counters {n}");
            assert!(err.message.contains("PMU counters"), "{}", err.message);
        }
        let cfg = SessionConfig::from_json(br#"{"counters":64}"#).unwrap();
        assert_eq!(cfg.counters, PmuConfig::MAX_REGION_COUNTERS);
    }

    #[test]
    fn refusal_payload_round_trips() {
        let r = Refusal::new("busy", "try later", true);
        let back = Refusal::from_json(r.to_json().render().as_bytes()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn stream_ingests_any_slicing_and_hashes_the_bytes() {
        let trace = bin_trace();
        let whole = {
            let mut s = SessionStream::new();
            s.feed(&trace, u64::MAX).unwrap();
            s.finish().unwrap()
        };
        assert_eq!(whole.events.len(), 3);
        assert_eq!(whole.bytes, trace.len() as u64);
        assert_eq!(
            whole.trace_digest,
            format!("{:016x}", cachescope_campaign::fnv1a64(&trace))
        );
        // Dribbling the same bytes 1–3 at a time decodes identically.
        for step in 1..=3usize {
            let mut s = SessionStream::new();
            for piece in trace.chunks(step) {
                s.feed(piece, u64::MAX).unwrap();
            }
            let f = s.finish().unwrap();
            assert_eq!(f.events, whole.events, "step {step}");
            assert_eq!(f.trace_digest, whole.trace_digest);
            assert_eq!(f.name, "t");
            assert_eq!(f.objects.len(), 1);
        }
    }

    #[test]
    fn byte_budget_refuses_before_decoding() {
        let trace = bin_trace();
        let mut s = SessionStream::new();
        let err = s.feed(&trace, 4).unwrap_err();
        assert_eq!(err.code, "byte_budget");
        assert!(!err.retryable);
    }

    #[test]
    fn truncated_and_corrupt_streams_refuse_with_trace_codes() {
        let trace = bin_trace();
        // Cut mid-record.
        let mut s = SessionStream::new();
        s.feed(&trace[..trace.len() - 3], u64::MAX).unwrap();
        assert_eq!(s.finish().unwrap_err().code, "CS-T003");
        // Cut mid-header.
        let mut s = SessionStream::new();
        s.feed(&trace[..4], u64::MAX).unwrap();
        assert_eq!(s.finish().unwrap_err().code, "CS-T002");
        // Wrong magic refuses immediately.
        let mut s = SessionStream::new();
        let err = s.feed(b"not a cstrace2 stream", u64::MAX).unwrap_err();
        assert_eq!(err.code, "CS-T001");
        // Unknown record tag is CS-T004.
        let mut bad = trace.clone();
        let len = bad.len();
        bad[len - 16] = 99;
        let mut s = SessionStream::new();
        let err = s.feed(&bad, u64::MAX).unwrap_err();
        assert_eq!(err.code, "CS-T004");
    }
}
