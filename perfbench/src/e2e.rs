//! The timed (untraced) runs of the three workloads.
//!
//! Steadiness rules, learnt from runs that drifted:
//! * batch jobs run one at a time on the calling thread;
//! * setup and the timed phase hold no sleeps (other than the load
//!   generator waiting for a session's due time), no disk I/O and no
//!   readiness probes — one probe pays 0–20 ms of accept poll;
//! * job lists are fixed rotations and the timed phase runs whole
//!   rotations, so a new seed changes streams but never the mix;
//! * daemon `workers` and `max_sessions` are pinned;
//! * setup runs [`SETUP_REPS`] times and reports the median; the cold
//!   time from process start to the first timed job is printed beside it.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cachescope_core::export::report_to_json;
use cachescope_core::Experiment;
use cachescope_serve::{
    submit_bytes, Addr, Daemon, FinishedStream, ServeConfig, SessionStream, SubmitOutcome,
};
use cachescope_sim::tracefile::load_eager;
use cachescope_sim::{
    Engine, NullHandler, RecordingProgram, RunLimit, RunStats, SimConfig, TraceFormat,
};

use crate::gen::{self, ChurnProgram};
use crate::jobs::{self, JobSpec};
use crate::stats::{self, StatsDigest};

/// Setup repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// What a timed run measured.
pub struct E2e {
    pub job_ms: Vec<f64>,
    pub refs_per_s: f64,
    pub setup_s: Vec<f64>,
    /// When the first timed job started.
    pub first_job: Option<Instant>,
    pub peak_rss_mib: f64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: StatsDigest,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Run `setup` [`SETUP_REPS`] times, timing each, and keep the last
/// result. Earlier results go to `teardown`, untimed.
fn repeated_setup<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t0 = Instant::now();
        last = Some(setup());
        times.push(secs(t0.elapsed()));
    }
    (last.expect("at least one setup"), times)
}

/// Run whole rotations of `jobs` until `seconds` of job time have passed.
/// Each job's statistics must satisfy the output check and repeat those
/// of the first run of the same rotation slot exactly.
fn run_rotations(jobs: &[JobSpec], seconds: f64, e: &mut E2e) {
    let mut first: Vec<Option<RunStats>> = vec![None; jobs.len()];
    let mut refs = 0u64;
    let mut busy = 0.0;
    let start = Instant::now();
    e.first_job = Some(start);
    while e.job_ms.is_empty() || secs(start.elapsed()) < seconds {
        for (slot, job) in jobs.iter().enumerate() {
            let t0 = Instant::now();
            let out = std::panic::catch_unwind(|| jobs::run_job(job));
            let dt = secs(t0.elapsed());
            e.attempted += 1;
            e.job_ms.push(dt * 1e3);
            busy += dt;
            let Ok(out) = out else {
                e.failed += 1;
                continue;
            };
            refs += out.stats.app.accesses;
            let repeats = match &first[slot] {
                Some(s) => stats::same_results(s, &out.stats) && s.cycles == out.stats.cycles,
                None => {
                    e.digest.add(&out.stats);
                    first[slot] = Some(out.stats.clone());
                    true
                }
            };
            if !(jobs::job_ok(job, &out.stats) && repeats) {
                e.failed += 1;
            }
        }
    }
    e.refs_per_s = refs as f64 / busy;
}

fn new_e2e(setup_s: Vec<f64>) -> E2e {
    E2e {
        job_ms: Vec::new(),
        refs_per_s: 0.0,
        setup_s,
        first_job: None,
        peak_rss_mib: 0.0,
        attempted: 0,
        failed: 0,
        digest: StatsDigest::default(),
        notes: Vec::new(),
    }
}

// ---------------------------------------------------------------------------

/// miss-attrib: every reference misses; the rotation is mgrid, applu and
/// mcf under four techniques. It generates no inputs, so its setup is a
/// warm-up: one pass over the rotation at an eighth of the job length.
pub fn miss_attrib(seed: u64, seconds: f64) -> E2e {
    let warm = jobs::miss_attrib_rotation(seed, jobs::MISS_ATTRIB_REFS / 8);
    let ((), setup_s) = repeated_setup(
        || {
            for job in &warm {
                std::hint::black_box(jobs::run_job(job).rendered.len());
            }
        },
        drop,
    );
    let rotation = jobs::miss_attrib_rotation(seed, jobs::MISS_ATTRIB_REFS);
    let mut e = new_e2e(setup_s);
    run_rotations(&rotation, seconds, &mut e);
    e.peak_rss_mib = stats::peak_rss_mib();
    e.notes.push(format!(
        "rotation: {} jobs of {} refs ({})",
        rotation.len(),
        jobs::MISS_ATTRIB_REFS,
        rotation
            .iter()
            .map(|j| j.label.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    e
}

// ---------------------------------------------------------------------------

/// Upper bound on a churn trace's binary-v2 bytes per reference.
const TRACE_BYTES_PER_REF: usize = 24;

/// Generate the churn program from `seed`, run it live (uninstrumented)
/// while recording it as a binary-v2 trace, and return the trace and the
/// live run's statistics.
pub fn record_churn(seed: u64, refs: u64, reuse: f64) -> (Vec<u8>, RunStats) {
    let program = ChurnProgram::new(seed, refs, reuse);
    // One buffer of a fixed size per trace, instead of a doubling one,
    // keeps the heap laid out alike from one setup repetition to the next.
    let out = Vec::with_capacity(refs as usize * TRACE_BYTES_PER_REF);
    let mut rec = RecordingProgram::with_format(program, out, TraceFormat::Bin);
    let live =
        Engine::new(SimConfig::default()).run(&mut rec, &mut NullHandler, RunLimit::Exhausted);
    (rec.into_writer(), live)
}

/// Replay `trace` uninstrumented, as the live run ran.
pub fn replay_stats(trace: &[u8]) -> RunStats {
    let mut p = load_eager(trace).expect("recorded trace decodes");
    Engine::new(SimConfig::default()).run(&mut p, &mut NullHandler, RunLimit::Exhausted)
}

/// The churn-replay rotation: one trace per reuse probability in
/// [`jobs::CHURN_REUSE`], each generated from its own sub-seed, as a job
/// with the live run that recorded it.
pub fn churn_rotation(seed: u64) -> Vec<(JobSpec, RunStats)> {
    jobs::CHURN_REUSE
        .iter()
        .enumerate()
        .map(|(k, &reuse)| {
            let (trace, live) =
                record_churn(gen::sub_seed(seed, k as u64), jobs::CHURN_REFS, reuse);
            (jobs::churn_job(Arc::new(trace), jobs::CHURN_REFS), live)
        })
        .collect()
}

/// churn-replay: replay generated allocator-heavy traces with sampling.
/// Setup generates and records the traces and runs the job with the most
/// distinct objects once as a warm-up.
pub fn churn_replay(seed: u64, seconds: f64) -> E2e {
    let (rotation, setup_s) = repeated_setup(
        || {
            let rotation = churn_rotation(seed);
            let (widest, _) = rotation.first().expect("a non-empty rotation");
            std::hint::black_box(jobs::run_job(widest).rendered.len());
            rotation
        },
        drop,
    );
    let (rotation, lives): (Vec<JobSpec>, Vec<RunStats>) = rotation.into_iter().unzip();
    let mut e = new_e2e(setup_s);
    run_rotations(&rotation, seconds, &mut e);
    e.peak_rss_mib = stats::peak_rss_mib();

    // Untimed: each replay must reproduce its live run exactly; if one
    // does not, every job may have replayed a wrong trace.
    let mut bytes = 0;
    let mut distinct = Vec::new();
    for (job, live) in rotation.iter().zip(&lives) {
        let jobs::Source::Trace(trace) = &job.source else {
            unreachable!("churn jobs replay a trace")
        };
        bytes += trace.len();
        if !stats::same_results(live, &replay_stats(trace)) {
            e.failed = e.attempted;
            e.notes
                .push("a replay differs from its live run".to_string());
        }
        e.digest.add(live);
        let mut names: Vec<&str> = live.objects.iter().map(|o| o.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        distinct.push(names.len());
    }
    e.notes.push(format!(
        "traces: {} of {} refs (reuse {:?}), {bytes} bytes in all, {}..{} distinct objects each",
        rotation.len(),
        jobs::CHURN_REFS,
        jobs::CHURN_REUSE,
        distinct.iter().min().unwrap_or(&0),
        distinct.iter().max().unwrap_or(&0),
    ));
    e
}

// ---------------------------------------------------------------------------

/// References per served session.
pub const SESSION_REFS: u64 = 50_000;
/// Open-loop arrival rate, sessions per second: about a tenth of what
/// two connections sustain (~110/s on a 2-vCPU host), so few sessions
/// find both connections busy. Queueing behind busy connections varies
/// with the seed and the host's speed: at half of that capacity it
/// spread the latency metrics beyond any allowed bound, and even at a
/// tenth the tail flips between queued and unqueued sessions, which is
/// why serve-open is run by hand and not listed in `BENCHMARK.json`.
pub const SERVE_RATE: f64 = 10.0;
/// Client connections the load generator keeps open at most.
pub const CONNECTIONS: usize = 2;
/// Sessions generated ahead of the schedule (the first ones in setup).
const AHEAD: usize = 16;
/// Warm-up sessions run in-process during setup.
const WARM_SESSIONS: u64 = 16;
/// `Data` frame size the client streams a trace in.
pub const FRAME_BYTES: usize = 64 * 1024;

/// The daemon every serve run talks to: loopback TCP, no disk cache, no
/// event feed, pinned worker and session counts.
pub fn start_daemon() -> (Daemon, Addr) {
    let daemon = Daemon::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        max_sessions: 4,
        workers: Some(2),
        cache_dir: None,
        events_path: None,
        ..ServeConfig::default()
    })
    .expect("daemon binds loopback");
    let addr = Addr::Tcp(daemon.tcp_addr().expect("tcp listener bound").to_string());
    (daemon, addr)
}

/// The daemon's ingest, in-process: `SessionStream::feed` frame by frame,
/// then `finish`.
pub fn ingest(trace: &[u8]) -> FinishedStream {
    let mut s = SessionStream::new();
    for piece in trace.chunks(FRAME_BYTES) {
        s.feed(piece, u64::MAX).expect("generated trace ingests");
    }
    s.finish().expect("generated trace finishes")
}

/// The daemon's simulation of a finished stream, in-process: the
/// `Experiment` its attribution worker runs, rendered.
pub fn simulate(fin: FinishedStream) -> String {
    let cfg = jobs::session_config();
    let report = Experiment::new(fin.into_program())
        .technique(cfg.technique().expect("session technique parses"))
        .counters(cfg.counters)
        .limit(RunLimit::AppMisses(cfg.misses))
        .run();
    report_to_json(&report).render()
}

struct Served {
    latency_ms: f64,
    late_ms: f64,
    service_ms: f64,
    blocked: bool,
    report: Option<String>,
}

struct ServeSetup {
    daemon: Daemon,
    addr: Addr,
    tx: SyncSender<(usize, Vec<u8>)>,
    rx: Receiver<(usize, Vec<u8>)>,
}

/// serve-open: an in-process daemon on loopback TCP driven by a seeded
/// open-loop Poisson schedule at [`SERVE_RATE`] over `seconds`, with at
/// most [`CONNECTIONS`] connections. Setup starts the daemon, generates
/// the first sessions' traces and warms the pipeline in-process.
pub fn serve_open(seed: u64, seconds: f64) -> E2e {
    let rate = SERVE_RATE;
    let schedule = gen::poisson_schedule(seed, rate, seconds);
    let n = schedule.len();
    let (setup, setup_s) = repeated_setup(
        || {
            let (daemon, addr) = start_daemon();
            let (tx, rx) = sync_channel(AHEAD);
            for i in 0..AHEAD.min(n) {
                tx.send((i, gen::session_trace(seed, i as u64, SESSION_REFS)))
                    .expect("receiver is alive");
            }
            for w in 0..WARM_SESSIONS {
                let trace = gen::session_trace(seed, n as u64 + w, SESSION_REFS);
                std::hint::black_box(simulate(ingest(&trace)).len());
            }
            ServeSetup {
                daemon,
                addr,
                tx,
                rx,
            }
        },
        |s| {
            s.daemon.shutdown(Duration::from_secs(10));
        },
    );
    let ServeSetup {
        daemon,
        addr,
        tx,
        rx,
    } = setup;
    let mut e = new_e2e(setup_s);

    let rx = Mutex::new(rx);
    let results: Mutex<Vec<Option<Served>>> = Mutex::new((0..n).map(|_| None).collect());
    let cfg = jobs::session_config();
    let t0 = Instant::now();
    e.first_job = Some(t0);
    let mut last_end = t0;
    std::thread::scope(|s| {
        s.spawn(move || {
            for i in AHEAD.min(n)..n {
                let trace = gen::session_trace(seed, i as u64, SESSION_REFS);
                if tx.send((i, trace)).is_err() {
                    return;
                }
            }
        });
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(|| {
                    let mut end = t0;
                    loop {
                        let next = rx
                            .lock()
                            .expect("no client panics holding the queue")
                            .recv();
                        let Ok((i, trace)) = next else {
                            return end;
                        };
                        let due = t0 + Duration::from_secs_f64(schedule[i]);
                        let picked = Instant::now();
                        if picked < due {
                            std::thread::sleep(due - picked);
                        }
                        let start = Instant::now();
                        let outcome = submit_bytes(&addr, &trace, &cfg, FRAME_BYTES);
                        end = Instant::now();
                        let report = match outcome {
                            Ok(SubmitOutcome::Report(r)) => Some(r),
                            _ => None,
                        };
                        results.lock().expect("no client panics holding results")[i] =
                            Some(Served {
                                latency_ms: secs(end - due) * 1e3,
                                late_ms: secs(start.saturating_duration_since(due)) * 1e3,
                                service_ms: secs(end - start) * 1e3,
                                blocked: picked > due,
                                report,
                            });
                    }
                })
            })
            .collect();
        for c in clients {
            last_end = last_end.max(c.join().expect("client thread"));
        }
    });
    let wall = secs(last_end - t0);
    e.peak_rss_mib = stats::peak_rss_mib();

    let results = results.into_inner().expect("clients joined");
    let mut late = Vec::new();
    let mut service = Vec::new();
    let mut blocked = 0;
    let mut served = 0u64;
    for (i, r) in results.iter().enumerate() {
        e.attempted += 1;
        let Some(r) = r else {
            e.failed += 1;
            continue;
        };
        e.job_ms.push(r.latency_ms);
        late.push(r.late_ms);
        service.push(r.service_ms);
        blocked += usize::from(r.blocked);
        // Untimed: every served report must equal the batch report for
        // the same trace and session configuration, byte for byte.
        let trace = Arc::new(gen::session_trace(seed, i as u64, SESSION_REFS));
        let job = jobs::session_job(format!("session{i}"), trace, SESSION_REFS);
        let batch = jobs::run_job(&job);
        e.digest.add(&batch.stats);
        let ok = r.report.as_deref() == Some(batch.rendered.as_str())
            && stats::conserves_misses(&batch.stats)
            && batch.stats.app.accesses == SESSION_REFS;
        if r.report.is_some() {
            served += 1;
        }
        if !ok {
            e.failed += 1;
        }
    }
    e.refs_per_s = (served * SESSION_REFS) as f64 / wall;

    let status = daemon.status();
    let stat = |k: &str| status.get(k).and_then(|j| j.as_u64()).unwrap_or(u64::MAX);
    let (sim_starts, dedup, rejects) = (stat("sim_starts"), stat("dedup_hits"), stat("rejected"));
    if sim_starts != n as u64 || dedup != 0 || rejects != 0 {
        e.failed = e.attempted;
        e.notes
            .push("daemon counters disagree with the schedule".to_string());
    }
    daemon.shutdown(Duration::from_secs(10));
    e.notes.push(format!(
        "open loop: {n} sessions of {SESSION_REFS} refs at {rate}/s over {seconds} s, \
         {CONNECTIONS} connections, wall {wall:.3} s"
    ));
    e.notes.push(format!(
        "daemon: sim_starts {sim_starts}, dedup_hits {dedup}, rejects {rejects}"
    ));
    let late_tail = stats::tail(&late, stats::TAIL_BEYOND);
    e.notes.push(format!(
        "service (connect to report): p50 {:.3} ms, mean {:.3} ms; {CONNECTIONS} connections saturate near {:.1} sessions/s",
        stats::median(&service),
        service.iter().sum::<f64>() / service.len().max(1) as f64,
        CONNECTIONS as f64 * 1e3 * service.len() as f64 / service.iter().sum::<f64>()
    ));
    e.notes.push(format!(
        "loadgen: late_ms p50 {:.3}, tail {}, blocked {blocked}/{n} ({:.4})",
        stats::median(&late),
        late_tail.map_or("n/a".to_string(), |t| format!(
            "{:.3} (p{:.1})",
            t.value, t.pct
        )),
        blocked as f64 / n.max(1) as f64
    ));
    e
}
