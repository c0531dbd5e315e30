//! `campaign` — run a declarative experiment campaign from a JSON spec.
//!
//! ```text
//! campaign <spec.json> [options]
//!
//! options:
//!   --jobs N            worker-pool cap (default: CACHESCOPE_JOBS, then
//!                       available parallelism)
//!   --retries N         retry budget per cell after the first attempt [1]
//!   --cache-dir DIR     content-addressed result cache  [results/cache]
//!   --manifest-dir DIR  resume checkpoints        [results/campaigns]
//!   --force             ignore the cache and re-simulate every cell
//!   --dry-run           expand and list the cells without simulating
//!   --metrics           print the campaign metrics registry
//!   --profile           time every simulated cell; print the campaign's
//!                       span roll-up and cell-latency histogram
//!   --trace-out FILE    write the campaign's event stream as JSONL
//!   --assert-all-cached exit 1 unless every cell was served from cache
//!                       (CI uses this to prove cache round-trips)
//!   --bounds            gate every settled cell's ground truth against
//!                       the static bounds oracle: a per-object miss
//!                       count outside the provable bounds (CS-A004) is
//!                       an engine/analyzer bug and fails the run
//! ```
//!
//! Spec files live in `campaigns/*.json`; see `campaigns/smoke.json` for
//! the format. A campaign re-run with an unchanged spec simulates
//! nothing: every cell is a cache hit and the run takes milliseconds.
//!
//! Example:
//!
//! ```sh
//! cargo run --release --bin campaign -- campaigns/smoke.json --metrics
//! ```

use std::path::PathBuf;

use cachescope::campaign::{view, CampaignRunner, CampaignSpec};

fn usage() -> ! {
    eprintln!(
        "usage: campaign <spec.json> [options]\n\
         \x20 --jobs N --retries N --cache-dir DIR --manifest-dir DIR\n\
         \x20 --force --dry-run --metrics --profile --trace-out FILE\n\
         \x20 --assert-all-cached --bounds"
    );
    std::process::exit(2);
}

fn parse_usize(s: &str, what: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid {what}: {s}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0].starts_with('-') {
        usage();
    }
    let spec_path = PathBuf::from(&args[0]);

    let mut runner = CampaignRunner::new();
    let mut dry_run = false;
    let mut show_metrics = false;
    let mut profile = false;
    let mut assert_all_cached = false;
    let mut bounds_gate = false;
    let mut trace_out: Option<String> = None;

    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{what} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--jobs" => runner = runner.jobs(Some(parse_usize(&value("--jobs"), "job count"))),
            "--retries" => {
                runner = runner.retries(parse_usize(&value("--retries"), "retry count") as u32)
            }
            "--cache-dir" => runner = runner.cache_dir(value("--cache-dir")),
            "--manifest-dir" => runner = runner.manifest_dir(value("--manifest-dir")),
            "--force" => runner = runner.force(true),
            "--dry-run" => dry_run = true,
            "--metrics" => show_metrics = true,
            "--profile" => {
                profile = true;
                runner = runner.profile(true);
            }
            "--trace-out" => trace_out = Some(value("--trace-out")),
            "--assert-all-cached" => assert_all_cached = true,
            "--bounds" => bounds_gate = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option: {other}");
                usage();
            }
        }
    }

    let spec = CampaignSpec::load(&spec_path).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    if dry_run {
        let cells = spec.expand().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
        println!("campaign '{}': {} cells", spec.name, cells.len());
        for cell in &cells {
            println!(
                "  [{:>3}] {:<28} hash {}  counters {}  {:?}",
                cell.index,
                cell.describe(),
                cell.hash(),
                cell.counters,
                cell.limit,
            );
        }
        return;
    }

    let run = runner.run(&spec).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    println!(
        "campaign '{}': {} cells settled ({} cached, {} simulated), {} failed",
        run.name,
        run.outcomes.len(),
        run.cache_hits(),
        run.outcomes.len() - run.cache_hits(),
        run.failures.len(),
    );
    for o in &run.outcomes {
        let source = if o.cache_hit {
            "cached".to_string()
        } else if o.attempts > 1 {
            format!("simulated ({} attempts)", o.attempts)
        } else {
            "simulated".to_string()
        };
        let err = view(o)
            .max_abs_error()
            .map_or_else(|| "     -".to_string(), |e| format!("{e:>6.2}"));
        println!("  {:<28} {:<24} max err {err}%", o.cell.describe(), source);
    }
    for f in &run.failures {
        let why = match f.attempts {
            0 => "(refused)".to_string(),
            n => format!("after {n} attempts"),
        };
        println!("  {:<28} FAILED {why}: {}", f.cell.describe(), f.error);
    }

    if let Some(path) = &trace_out {
        let jsonl = cachescope::obs::events_to_jsonl(run.obs.events());
        std::fs::write(path, jsonl).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!(
            "(trace written to {path}: {} events)",
            run.obs.events().len()
        );
    }

    if show_metrics {
        println!("metrics:");
        print!("{}", run.obs.metrics);
    }

    if profile {
        println!("profile:");
        let collapsed = run.obs.profiler.collapsed();
        if collapsed.is_empty() {
            println!("  (no cells simulated — nothing to time)");
        } else {
            for line in collapsed.lines() {
                println!("  {line}");
            }
            if let Some(h) = run.obs.metrics.histogram("campaign.cell_ns") {
                println!(
                    "  cell wall time: count {} p50 {} p95 {} max {} ns",
                    h.count(),
                    h.p50(),
                    h.p95(),
                    h.max(),
                );
            }
        }
    }

    if bounds_gate {
        use std::collections::HashMap;
        // One oracle per distinct (workload, scale, limit): the static
        // bounds depend only on those, never on the technique column.
        let mut oracle: HashMap<String, Result<cachescope::analyze::BoundsReport, String>> =
            HashMap::new();
        let mut violations = 0usize;
        for o in &run.outcomes {
            let cell = &o.cell;
            let key = format!("{}|{:?}|{:?}", cell.workload, cell.scale, cell.limit);
            let bounds = oracle.entry(key).or_insert_with(|| {
                cachescope::check::bounds::bounds_for_workload(
                    &cell.workload,
                    cell.scale,
                    cachescope::check::bounds::analysis_limit(cell.limit),
                )
            });
            match bounds {
                Err(e) => {
                    eprintln!("  {:<28} bounds oracle failed: {e}", cell.describe());
                    violations += 1;
                }
                Ok(b) => {
                    let diags = cachescope::check::bounds::check_report_bounds(
                        &o.report,
                        b,
                        &cell.describe(),
                    );
                    for d in &diags {
                        eprintln!("  {}", d.render());
                    }
                    violations += diags.len();
                }
            }
        }
        if violations > 0 {
            eprintln!(
                "--bounds: {violations} ground-truth value(s) outside the provable \
                 static bounds (CS-A004)"
            );
            std::process::exit(1);
        }
        println!(
            "bounds gate: {} cell(s) checked against {} static oracle(s), all within bounds",
            run.outcomes.len(),
            oracle.len(),
        );
    }

    if assert_all_cached {
        let starts = run.obs.metrics.counter("campaign.cell_starts");
        if starts > 0 {
            eprintln!("--assert-all-cached: {starts} cells had to simulate (expected 0)");
            std::process::exit(1);
        }
        println!("all {} cells served from cache", run.outcomes.len());
    }

    if !run.is_complete() {
        std::process::exit(1);
    }
}
