//! `cachescope serve` — a streaming attribution daemon.
//!
//! Batch `cachescope` runs one experiment per process; this crate turns
//! the same attribution pipeline into a long-running service. Clients
//! connect over a unix or TCP socket, stream a binary-v2 trace in
//! framed chunks, and receive the final `TechniqueReport` JSON —
//! byte-identical to what the batch CLI's `--json` would have written
//! for the same trace and configuration.
//!
//! The moving parts, bottom up:
//!
//! * [`wire`] — the framed transport (layout and validation shared with
//!   `cachescope check --wire` via `cachescope_check::wire`).
//! * [`session`] — per-session admission types: the handshake
//!   [`SessionConfig`], the incremental [`SessionStream`] ingest that
//!   decodes (refusing malformed framing with `CS-T*`) and
//!   content-hashes the trace as it arrives, and the typed [`Refusal`]
//!   every rejection becomes.
//! * [`daemon`] — the multiplexer: listener threads, per-connection
//!   session state machines, admission control, in-flight/disk dedup,
//!   a bounded simulation [`Pool`](cachescope_campaign::Pool), obs
//!   events/metrics, and graceful drain.
//! * [`client`] — a reference client used by `cachescope submit`, the
//!   integration tests and the saturation bench.
//! * [`signal`] — a dependency-free SIGTERM/SIGINT latch for
//!   [`Daemon::run_until_signal`].

pub mod client;
pub mod daemon;
pub mod session;
pub mod signal;
pub mod wire;

pub use client::{
    query_status, submit_bytes, submit_bytes_with_retry, submit_path, Addr, ClientError,
    RetryPolicy, SubmitOutcome, SubmitResult,
};
pub use daemon::{Daemon, ServeConfig, ServeSummary};
pub use session::{FinishedStream, Refusal, SessionConfig, SessionStream};
pub use wire::{Frame, FrameDecoder, PROTOCOL_VERSION};
