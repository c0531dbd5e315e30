//! cachescope benchmark: three workloads, end-to-end metrics with tracing
//! off, per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload miss-attrib|churn-replay|serve-open --seed N --seconds S \
//!     --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`). See
//! `perfbench/README.md` for what each workload and metric is for.

mod e2e;
mod gen;
mod jobs;
mod layers;
mod spans;
mod stats;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use cachescope_obs::Json;

const WORKLOADS: [&str; 3] = ["miss-attrib", "churn-replay", "serve-open"];
/// Sessions of serve-open decomposed by the traced run.
const TRACED_SESSIONS: u64 = 24;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![
        ("value", Json::Float(value)),
        ("unit", Json::str(unit)),
    ])
}

fn result_line(attempted: u64, failed: u64, metrics: Vec<(&str, Json)>) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Uint(attempted)),
        ("failed", Json::Uint(failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

fn run_e2e(args: &Args, started: Instant) -> String {
    let e = match args.workload.as_str() {
        "miss-attrib" => e2e::miss_attrib(args.seed, args.seconds),
        "churn-replay" => e2e::churn_replay(args.seed, args.seconds),
        _ => e2e::serve_open(args.seed, args.seconds),
    };
    let p50 = stats::median(&e.job_ms);
    let tail = stats::tail(&e.job_ms, stats::TAIL_BEYOND).unwrap_or(stats::Tail {
        value: e.job_ms.iter().copied().fold(f64::NAN, f64::max),
        pct: 100.0,
        n: e.job_ms.len(),
    });
    let setup = stats::median(&e.setup_s);
    let failed_frac = e.failed as f64 / e.attempted.max(1) as f64;
    for note in &e.notes {
        println!("{note}");
    }
    let reps: Vec<String> = e.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("setup reps (s): {}", reps.join(" "));
    println!("refs_per_s   {:>14.1} 1/s", e.refs_per_s);
    println!("job_p50_ms   {p50:>14.4} ms   ({} jobs)", e.job_ms.len());
    println!(
        "job_tail_ms  {:>14.4} ms   (p{:.2} of {} jobs: {} beyond)",
        tail.value,
        tail.pct,
        tail.n,
        stats::TAIL_BEYOND
    );
    println!("peak_rss_mb  {:>14.2} MiB", e.peak_rss_mib);
    println!(
        "setup_s      {setup:>14.4} s    (median of {}; cold, from process start to the first timed job: {:.4} s)",
        e.setup_s.len(),
        e.first_job.map_or(f64::NAN, |t| (t - started).as_secs_f64())
    );
    println!(
        "failed_frac  {failed_frac:>14.4} fraction ({} of {} jobs)",
        e.failed, e.attempted
    );
    println!(
        "digest       {} over {} distinct jobs",
        e.digest.hex(),
        e.digest.runs()
    );
    result_line(
        e.attempted,
        e.failed,
        vec![
            ("refs_per_s", metric(e.refs_per_s, "1/s")),
            ("job_p50_ms", metric(p50, "ms")),
            ("job_tail_ms", metric(tail.value, "ms")),
            ("peak_rss_mb", metric(e.peak_rss_mib, "MiB")),
            ("setup_s", metric(setup, "s")),
        ],
    )
}

fn traced_jobs(args: &Args) -> Vec<jobs::JobSpec> {
    match args.workload.as_str() {
        "miss-attrib" => jobs::miss_attrib_rotation(args.seed, jobs::MISS_ATTRIB_REFS),
        "churn-replay" => e2e::churn_rotation(args.seed)
            .into_iter()
            .map(|(job, _)| job)
            .collect(),
        _ => {
            // An even spread of the open-loop schedule's sessions.
            let n = gen::poisson_schedule(args.seed, e2e::SERVE_RATE, args.seconds).len() as u64;
            let step = (n / TRACED_SESSIONS).max(1);
            (0..n.min(TRACED_SESSIONS))
                .map(|k| {
                    let i = k * step;
                    let trace = gen::session_trace(args.seed, i, e2e::SESSION_REFS);
                    jobs::session_job(format!("session{i}"), Arc::new(trace), e2e::SESSION_REFS)
                })
                .collect()
        }
    }
}

fn run_traced(args: &Args) -> String {
    let jobs = traced_jobs(args);
    let t = layers::traced_run(&jobs, args.seed, args.seconds);
    print!("{}", t.table);
    for (name, unit, v) in &t.metrics {
        println!("{name:<26} {v:>16.4} {unit}");
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &t.spans_jsonl)) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
    result_line(
        t.attempted,
        t.failed,
        t.metrics
            .iter()
            .map(|&(n, u, v)| (n, metric(v, u)))
            .collect(),
    )
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let line = if args.trace {
        run_traced(&args)
    } else {
        run_e2e(&args, started)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this program prints,
    /// and only workloads it runs.
    #[test]
    fn benchmark_json_matches_the_metrics_printed() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let b = cachescope_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            b.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let layer: Vec<(String, String)> = layers::LAYER_METRICS
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layer);
        let e2e: Vec<(String, String)> = [
            ("refs_per_s", "1/s"),
            ("job_p50_ms", "ms"),
            ("job_tail_ms", "ms"),
            ("peak_rss_mb", "MiB"),
            ("setup_s", "s"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
        assert_eq!(names("end_to_end"), e2e);
        let workloads: Vec<&str> = b
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert!(workloads.iter().all(|w| WORKLOADS.contains(w)));
    }
}
