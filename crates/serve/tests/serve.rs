//! End-to-end daemon tests: real sockets, real sessions, real
//! simulations. Every report served over the wire is compared against
//! the equivalent batch-pipeline output computed locally, so the
//! daemon's central promise — serving changes transport, never results
//! — is enforced byte for byte.

use std::path::PathBuf;
use std::time::Duration;

use cachescope_check::wire::FrameType;
use cachescope_core::export::report_to_json;
use cachescope_core::Experiment;
use cachescope_serve::wire::{recv_frame, send_frame, FrameDecoder, Recv};
use cachescope_serve::{
    query_status, submit_bytes, submit_bytes_with_retry, Addr, Daemon, Refusal, RetryPolicy,
    ServeConfig, SessionConfig, SessionStream, SubmitOutcome, PROTOCOL_VERSION,
};
use cachescope_sim::tracefile::{RecordingProgram, TraceFormat};
use cachescope_sim::{Event, MemRef, ObjectDecl, Program, RunLimit, TraceProgram};

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cachescope-serve-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small but non-trivial binary-v2 trace; `seed` varies the access
/// pattern so distinct seeds yield distinct content hashes.
fn bin_trace(seed: u64) -> Vec<u8> {
    let objects = vec![
        ObjectDecl::global("grid", 0x10_000, 16 * 1024),
        ObjectDecl::global("edge", 0x20_000, 4 * 1024),
    ];
    let mut events = Vec::new();
    for i in 0..400u64 {
        let stride = 64 * ((i + seed) % 7 + 1);
        events.push(Event::Access(MemRef::read(
            0x10_000 + (i * stride) % 16_000,
            8,
        )));
        if i % 5 == 0 {
            events.push(Event::Access(MemRef::write(0x20_000 + (i * 8) % 4_000, 8)));
        }
        if i % 16 == 0 {
            events.push(Event::Compute(100 + seed % 13));
        }
    }
    let p = TraceProgram::new(format!("t{seed}"), objects, events);
    let mut rec = RecordingProgram::with_format(p, Vec::new(), TraceFormat::Bin);
    while rec.next_event().is_some() {}
    rec.into_writer()
}

fn session_config() -> SessionConfig {
    SessionConfig {
        technique_spec: "sampling:50".to_string(),
        misses: 5_000,
        counters: 4,
        interval: 25_000_000,
    }
}

/// The batch pipeline's report for the same trace + config, computed
/// locally: this is the byte-identity oracle.
fn batch_report(trace: &[u8], cfg: &SessionConfig) -> String {
    let mut s = SessionStream::new();
    s.feed(trace, u64::MAX).unwrap();
    let fin = s.finish().unwrap();
    let report = Experiment::new(fin.into_program())
        .technique(cfg.technique().unwrap())
        .counters(cfg.counters)
        .limit(RunLimit::AppMisses(cfg.misses))
        .run();
    report_to_json(&report).render()
}

fn tcp_daemon(config: ServeConfig) -> (Daemon, Addr) {
    let daemon = Daemon::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        ..config
    })
    .unwrap();
    let addr = Addr::Tcp(daemon.tcp_addr().unwrap().to_string());
    (daemon, addr)
}

fn expect_report(outcome: SubmitOutcome) -> String {
    match outcome {
        SubmitOutcome::Report(r) => r,
        SubmitOutcome::Rejected(r) => panic!("unexpected rejection: {r:?}"),
    }
}

fn expect_reject(outcome: SubmitOutcome) -> Refusal {
    match outcome {
        SubmitOutcome::Report(_) => panic!("expected a rejection, got a report"),
        SubmitOutcome::Rejected(r) => r,
    }
}

#[test]
fn eight_concurrent_sessions_match_batch_reports() {
    let (daemon, addr) = tcp_daemon(ServeConfig {
        max_sessions: 8,
        workers: Some(4),
        ..ServeConfig::default()
    });
    let cfg = session_config();
    let handles: Vec<_> = (0..8u64)
        .map(|seed| {
            let addr = addr.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let trace = bin_trace(seed);
                let report = expect_report(submit_bytes(&addr, &trace, &cfg, 1024).unwrap());
                (seed, trace, report)
            })
        })
        .collect();
    for h in handles {
        let (seed, trace, served) = h.join().unwrap();
        assert_eq!(
            served,
            batch_report(&trace, &cfg),
            "seed {seed}: served report differs from the batch pipeline"
        );
    }
    let status = daemon.status();
    assert_eq!(status.get("served").and_then(|j| j.as_u64()), Some(8));
    let summary = daemon.shutdown(Duration::from_secs(10));
    assert_eq!(summary.served, 8);
    assert_eq!(summary.unfinished_sessions, 0);
    assert_eq!(summary.pool.abandoned, 0);
}

#[test]
fn over_unix_socket_reports_also_match_batch() {
    let dir = temp_path("unix");
    let sock = dir.join("serve.sock");
    let daemon = Daemon::start(ServeConfig {
        unix: Some(sock.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = Addr::Unix(sock.clone());
    let cfg = session_config();
    let trace = bin_trace(42);
    let report = expect_report(submit_bytes(&addr, &trace, &cfg, 0).unwrap());
    assert_eq!(report, batch_report(&trace, &cfg));
    daemon.shutdown(Duration::from_secs(5));
    assert!(!sock.exists(), "socket file should be removed on shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_streams_reject_with_trace_codes_and_daemon_survives() {
    let (daemon, addr) = tcp_daemon(ServeConfig::default());
    let cfg = session_config();

    // Garbage bytes: wrong trace magic.
    let r = expect_reject(submit_bytes(&addr, b"this is not a trace", &cfg, 0).unwrap());
    assert_eq!(r.code, "CS-T001");
    assert!(!r.retryable);

    // A trace cut mid-record.
    let trace = bin_trace(1);
    let r = expect_reject(submit_bytes(&addr, &trace[..trace.len() - 5], &cfg, 0).unwrap());
    assert_eq!(r.code, "CS-T003");

    // A corrupted record tag.
    let mut bad = trace.clone();
    let len = bad.len();
    bad[len - 16] = 99;
    let r = expect_reject(submit_bytes(&addr, &bad, &cfg, 0).unwrap());
    assert_eq!(r.code, "CS-T004");

    // The daemon is still healthy: a clean submission succeeds.
    let report = expect_report(submit_bytes(&addr, &trace, &cfg, 0).unwrap());
    assert_eq!(report, batch_report(&trace, &cfg));
    let summary = daemon.shutdown(Duration::from_secs(5));
    assert_eq!(summary.served, 1);
    assert_eq!(summary.rejected, 3);
}

#[test]
fn wire_violations_reject_with_v_codes() {
    use std::io::Write;
    let (daemon, addr) = tcp_daemon(ServeConfig::default());
    let tcp = match &addr {
        Addr::Tcp(a) => a.clone(),
        _ => unreachable!(),
    };

    // Version mismatch: CS-V003.
    {
        let mut s = std::net::TcpStream::connect(&tcp).unwrap();
        let mut hello = 99u16.to_le_bytes().to_vec();
        hello.extend_from_slice(b"{}");
        send_frame(&mut s, FrameType::Hello, &hello).unwrap();
        let mut dec = FrameDecoder::new();
        let mut never = || false;
        match recv_frame(&mut s, &mut dec, &mut never).unwrap() {
            Recv::Frame(f) => {
                assert_eq!(f.kind, FrameType::Reject);
                assert_eq!(Refusal::from_json(&f.payload).unwrap().code, "CS-V003");
            }
            other => panic!("expected reject, got {other:?}"),
        }
    }

    // Oversize frame header: CS-V002.
    {
        let mut s = std::net::TcpStream::connect(&tcp).unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(b"csfr");
        frame.push(3); // Data
        frame.extend_from_slice(&(64 * 1024 * 1024u32).to_le_bytes());
        s.write_all(&frame).unwrap();
        let mut dec = FrameDecoder::new();
        let mut never = || false;
        match recv_frame(&mut s, &mut dec, &mut never).unwrap() {
            Recv::Frame(f) => {
                assert_eq!(f.kind, FrameType::Reject);
                assert_eq!(Refusal::from_json(&f.payload).unwrap().code, "CS-V002");
            }
            other => panic!("expected reject, got {other:?}"),
        }
    }

    // Bad frame magic: CS-V001.
    {
        let mut s = std::net::TcpStream::connect(&tcp).unwrap();
        s.write_all(b"XXXXXXXXXXXX").unwrap();
        let mut dec = FrameDecoder::new();
        let mut never = || false;
        match recv_frame(&mut s, &mut dec, &mut never).unwrap() {
            Recv::Frame(f) => {
                assert_eq!(f.kind, FrameType::Reject);
                assert_eq!(Refusal::from_json(&f.payload).unwrap().code, "CS-V001");
            }
            other => panic!("expected reject, got {other:?}"),
        }
    }

    // And the daemon still serves after all three violations.
    let cfg = session_config();
    let trace = bin_trace(7);
    let report = expect_report(submit_bytes(&addr, &trace, &cfg, 0).unwrap());
    assert_eq!(report, batch_report(&trace, &cfg));
    daemon.shutdown(Duration::from_secs(5));
}

#[test]
fn byte_budget_rejects_oversized_sessions() {
    let (daemon, addr) = tcp_daemon(ServeConfig {
        byte_budget: 128,
        ..ServeConfig::default()
    });
    let r = expect_reject(submit_bytes(&addr, &bin_trace(3), &session_config(), 64).unwrap());
    assert_eq!(r.code, "byte_budget");
    assert!(!r.retryable);
    daemon.shutdown(Duration::from_secs(5));
}

/// A trace whose every access lands outside every declared object:
/// provably unattributable, the CS-A005 fast-reject fixture.
fn unattributable_trace() -> Vec<u8> {
    let objects = vec![ObjectDecl::global("grid", 0x10_000, 4 * 1024)];
    let events = (0..200u64)
        .map(|i| Event::Access(MemRef::read(0xdead_0000 + i * 64, 8)))
        .collect();
    let p = TraceProgram::new("stray".to_string(), objects, events);
    let mut rec = RecordingProgram::with_format(p, Vec::new(), TraceFormat::Bin);
    while rec.next_event().is_some() {}
    rec.into_writer()
}

#[test]
fn analyze_reject_refuses_provably_unattributable_streams() {
    let (daemon, addr) = tcp_daemon(ServeConfig {
        analyze_reject: true,
        ..ServeConfig::default()
    });
    // The unattributable stream is refused before any simulation...
    let r =
        expect_reject(submit_bytes(&addr, &unattributable_trace(), &session_config(), 0).unwrap());
    assert_eq!(r.code, "unattributable");
    assert!(r.message.contains("CS-A005"), "{}", r.message);
    assert!(!r.retryable);
    // ...while an attributable one on the same daemon still serves the
    // batch-identical report: the gate only fires on provable emptiness.
    let cfg = session_config();
    let trace = bin_trace(11);
    let report = expect_report(submit_bytes(&addr, &trace, &cfg, 0).unwrap());
    assert_eq!(report, batch_report(&trace, &cfg));
    daemon.shutdown(Duration::from_secs(5));
}

#[test]
fn default_config_still_serves_unattributable_streams() {
    // Opt-in means opt-in: without the flag the daemon answers with an
    // (empty) report, byte-identical to the batch pipeline, exactly as
    // before the fast-reject existed.
    let (daemon, addr) = tcp_daemon(ServeConfig::default());
    let cfg = session_config();
    let trace = unattributable_trace();
    let report = expect_report(submit_bytes(&addr, &trace, &cfg, 0).unwrap());
    assert_eq!(report, batch_report(&trace, &cfg));
    daemon.shutdown(Duration::from_secs(5));
}

#[test]
fn admission_control_rejects_excess_sessions_as_busy() {
    let (daemon, addr) = tcp_daemon(ServeConfig {
        max_sessions: 1,
        ..ServeConfig::default()
    });
    let tcp = match &addr {
        Addr::Tcp(a) => a.clone(),
        _ => unreachable!(),
    };

    // Open (and hold) one admitted session by hand.
    let mut held = std::net::TcpStream::connect(&tcp).unwrap();
    let mut hello = PROTOCOL_VERSION.to_le_bytes().to_vec();
    hello.extend_from_slice(session_config().to_json().render().as_bytes());
    send_frame(&mut held, FrameType::Hello, &hello).unwrap();
    let mut dec = FrameDecoder::new();
    let mut never = || false;
    match recv_frame(&mut held, &mut dec, &mut never).unwrap() {
        Recv::Frame(f) => assert_eq!(f.kind, FrameType::HelloAck),
        other => panic!("expected hello-ack, got {other:?}"),
    }

    // The second session bounces, retryable.
    let r = expect_reject(submit_bytes(&addr, &bin_trace(5), &session_config(), 0).unwrap());
    assert_eq!(r.code, "busy");
    assert!(r.retryable);

    // Finish the held session; capacity frees up and service resumes.
    drop(held);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let active = query_status(&addr)
            .unwrap()
            .get("active")
            .and_then(|j| j.as_u64());
        if active == Some(0) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "session never drained"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let trace = bin_trace(6);
    let report = expect_report(submit_bytes(&addr, &trace, &session_config(), 0).unwrap());
    assert_eq!(report, batch_report(&trace, &session_config()));
    daemon.shutdown(Duration::from_secs(5));
}

/// Admit (and hold) one session by hand so the daemon's single slot is
/// occupied; returns the held connection. Dropping it frees the slot.
fn hold_session(tcp: &str) -> std::net::TcpStream {
    let mut held = std::net::TcpStream::connect(tcp).unwrap();
    let mut hello = PROTOCOL_VERSION.to_le_bytes().to_vec();
    hello.extend_from_slice(session_config().to_json().render().as_bytes());
    send_frame(&mut held, FrameType::Hello, &hello).unwrap();
    let mut dec = FrameDecoder::new();
    let mut never = || false;
    match recv_frame(&mut held, &mut dec, &mut never).unwrap() {
        Recv::Frame(f) => assert_eq!(f.kind, FrameType::HelloAck),
        other => panic!("expected hello-ack, got {other:?}"),
    }
    held
}

#[test]
fn retry_waits_out_busy_slot_then_serves_the_batch_report() {
    let (daemon, addr) = tcp_daemon(ServeConfig {
        max_sessions: 1,
        ..ServeConfig::default()
    });
    let tcp = match &addr {
        Addr::Tcp(a) => a.clone(),
        _ => unreachable!(),
    };
    let held = hold_session(&tcp);

    // Release the held slot shortly after the first (refused) attempt.
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(120));
        drop(held);
    });

    let cfg = session_config();
    let trace = bin_trace(21);
    let result = submit_bytes_with_retry(
        &addr,
        &trace,
        &cfg,
        0,
        RetryPolicy {
            retries: 50,
            backoff_ms: 40,
        },
    )
    .unwrap();
    releaser.join().unwrap();

    assert!(
        result.attempts > 1,
        "first attempt should have been refused busy"
    );
    let report = expect_report(result.outcome);
    assert_eq!(report, batch_report(&trace, &cfg));
    daemon.shutdown(Duration::from_secs(5));
}

#[test]
fn retries_exhausted_return_the_last_busy_refusal() {
    let (daemon, addr) = tcp_daemon(ServeConfig {
        max_sessions: 1,
        ..ServeConfig::default()
    });
    let tcp = match &addr {
        Addr::Tcp(a) => a.clone(),
        _ => unreachable!(),
    };
    let _held = hold_session(&tcp);

    let result = submit_bytes_with_retry(
        &addr,
        &bin_trace(22),
        &session_config(),
        0,
        RetryPolicy {
            retries: 2,
            backoff_ms: 1,
        },
    )
    .unwrap();
    // 1 initial + 2 retries, every one refused.
    assert_eq!(result.attempts, 3);
    let r = expect_reject(result.outcome);
    assert_eq!(r.code, "busy");
    assert!(r.retryable);
    daemon.shutdown(Duration::from_secs(5));
}

#[test]
fn non_retryable_refusals_fail_on_the_first_attempt() {
    let (daemon, addr) = tcp_daemon(ServeConfig::default());
    let result = submit_bytes_with_retry(
        &addr,
        b"this is not a trace",
        &session_config(),
        0,
        RetryPolicy {
            retries: 5,
            backoff_ms: 1,
        },
    )
    .unwrap();
    assert_eq!(result.attempts, 1, "malformed traces must not be retried");
    let r = expect_reject(result.outcome);
    assert_eq!(r.code, "CS-T001");
    assert!(!r.retryable);
    daemon.shutdown(Duration::from_secs(5));
}

#[test]
fn simultaneous_identical_submissions_share_one_simulation() {
    let dir = temp_path("dedup");
    let (daemon, addr) = tcp_daemon(ServeConfig {
        cache_dir: Some(dir.join("cache")),
        workers: Some(2),
        ..ServeConfig::default()
    });
    let cfg = session_config();
    let trace = bin_trace(9);

    let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let cfg = cfg.clone();
            let trace = trace.clone();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                expect_report(submit_bytes(&addr, &trace, &cfg, 4096).unwrap())
            })
        })
        .collect();
    let reports: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Both clients got the same, correct report...
    let oracle = batch_report(&trace, &cfg);
    assert_eq!(reports[0], oracle);
    assert_eq!(reports[1], oracle);

    // ...from exactly one simulation: the other session deduplicated
    // (in-flight if it raced the first, disk if it trailed it).
    let status = daemon.status();
    assert_eq!(status.get("sim_starts").and_then(|j| j.as_u64()), Some(1));
    assert_eq!(status.get("dedup_hits").and_then(|j| j.as_u64()), Some(1));
    assert_eq!(status.get("served").and_then(|j| j.as_u64()), Some(2));

    // A third, later submission dedups from disk without simulating.
    let report = expect_report(submit_bytes(&addr, &trace, &cfg, 0).unwrap());
    assert_eq!(report, oracle);
    let status = daemon.status();
    assert_eq!(status.get("sim_starts").and_then(|j| j.as_u64()), Some(1));
    assert_eq!(status.get("dedup_hits").and_then(|j| j.as_u64()), Some(2));

    daemon.shutdown(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Statics and allocations the shared extent rule refuses: overlapping
/// and zero-size statics, a wrapping allocation and a zero-size one at a
/// live static's base.
fn hostile_extent_trace() -> Vec<u8> {
    let objects = vec![
        ObjectDecl::global("a", 0x10_000, 4096),
        ObjectDecl::global("b", 0x10_800, 4096),
        ObjectDecl::global("z", 0x20_000, 0),
    ];
    let mut events = vec![
        Event::Alloc {
            base: 0xffff_ffff_ffff_f000,
            size: 8192,
            name: Some("wrap".to_string()),
        },
        Event::Alloc {
            base: 0x10_000,
            size: 0,
            name: None,
        },
    ];
    for i in 0..400u64 {
        events.push(Event::Compute(100));
        events.push(Event::Access(MemRef::read(0x10_000 + (i * 64) % 8192, 8)));
    }
    let p = TraceProgram::new("hostile".to_string(), objects, events);
    let mut rec = RecordingProgram::with_format(p, Vec::new(), TraceFormat::Bin);
    while rec.next_event().is_some() {}
    rec.into_writer()
}

#[test]
fn hostile_extent_traces_are_served_like_batch() {
    let (daemon, addr) = tcp_daemon(ServeConfig::default());
    let trace = hostile_extent_trace();
    // Each used to fail the session as `sim_failed` ("attribution
    // panicked"); the refused extents now degrade to diagnostics.
    for spec in ["sampling:50", "search"] {
        let cfg = SessionConfig {
            technique_spec: spec.to_string(),
            interval: 20_000,
            ..session_config()
        };
        let report = expect_report(submit_bytes(&addr, &trace, &cfg, 0).unwrap());
        assert_eq!(report, batch_report(&trace, &cfg), "{spec}");
        assert!(
            report.contains("\"check.diagnostics\":4"),
            "{spec}: {report}"
        );
    }
    let summary = daemon.shutdown(Duration::from_secs(5));
    assert_eq!((summary.served, summary.rejected), (2, 0));
}

#[test]
fn illegal_technique_periods_are_refused_at_the_handshake() {
    let (daemon, addr) = tcp_daemon(ServeConfig::default());
    let trace = bin_trace(12);
    // Each used to kill the connection thread (adaptive) or fail the
    // simulation (a zero period) instead of refusing the Hello.
    for spec in ["adaptive:0", "adaptive:NaN", "sampling:0", "jittered:0:0"] {
        let cfg = SessionConfig {
            technique_spec: spec.to_string(),
            ..session_config()
        };
        let r = expect_reject(submit_bytes(&addr, &trace, &cfg, 0).unwrap());
        assert_eq!(r.code, "bad_config", "{spec}");
        assert!(!r.retryable);
        assert!(r.message.contains(spec), "{spec}: {}", r.message);
    }
    let status = query_status(&addr).unwrap();
    assert_eq!(status.get("rejected").and_then(|j| j.as_u64()), Some(4));
    // The daemon keeps serving.
    let cfg = session_config();
    let report = expect_report(submit_bytes(&addr, &trace, &cfg, 0).unwrap());
    assert_eq!(report, batch_report(&trace, &cfg));
    let summary = daemon.shutdown(Duration::from_secs(5));
    assert_eq!(summary.served, 1);
    assert_eq!(summary.rejected, 4);
}

#[test]
fn draining_daemon_refuses_new_sessions_then_stops_clean() {
    let (daemon, addr) = tcp_daemon(ServeConfig::default());
    let cfg = session_config();
    let trace = bin_trace(11);
    expect_report(submit_bytes(&addr, &trace, &cfg, 0).unwrap());

    daemon.begin_drain();
    let r = expect_reject(submit_bytes(&addr, &trace, &cfg, 0).unwrap());
    assert_eq!(r.code, "draining");
    assert!(r.retryable);

    let summary = daemon.shutdown(Duration::from_secs(5));
    assert_eq!(summary.served, 1);
    assert_eq!(summary.rejected, 1);
    assert_eq!(summary.unfinished_sessions, 0);
}

#[test]
fn status_probe_works_without_a_session() {
    let (daemon, addr) = tcp_daemon(ServeConfig {
        max_sessions: 3,
        ..ServeConfig::default()
    });
    let status = query_status(&addr).unwrap();
    assert_eq!(status.get("max_sessions").and_then(|j| j.as_u64()), Some(3));
    assert_eq!(status.get("active").and_then(|j| j.as_u64()), Some(0));
    assert_eq!(
        status.get("protocol_version").and_then(|j| j.as_u64()),
        Some(u64::from(PROTOCOL_VERSION))
    );
    daemon.shutdown(Duration::from_secs(5));
}
