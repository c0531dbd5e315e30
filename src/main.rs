//! `cachescope` — command-line driver for the simulator and techniques.
//!
//! ```text
//! cachescope <app> [options]
//! cachescope profile <app> [options]       (same run, self-profiled:
//!                  span tree + histograms; see --flamegraph/--spans-out/
//!                  --timeline-out)
//! cachescope analyze <app>... [--refs N | --misses N] [--json FILE]
//!                  (static per-object miss bounds, no simulation; see
//!                  `cachescope analyze --help`)
//! cachescope check [--all] [--trace F] [--campaign F] [--workload W]
//!                  [--self-lint] [--json] [--deny-warnings]   (static checks)
//! cachescope fuzz [--smoke] [--seeds N] [--budget-refs M] [--minimize]
//!                  [--json FILE]   (adversarial fuzzing + differential
//!                  technique verification; see `cachescope fuzz --help`)
//! cachescope serve [--unix PATH] [--tcp ADDR] ...   (streaming attribution
//!                  daemon; see `cachescope serve --help`)
//! cachescope submit (--unix PATH | --tcp ADDR) --trace FILE ...
//!                  (stream a recorded trace to a running daemon)
//!
//! apps:       tomcatv swim su2cor mgrid applu compress ijpeg   (SPEC95)
//!             mcf art equake                                   (SPEC2000)
//!
//! options:
//!   --technique sampling:<period>          miss-address sampling
//!   --technique jittered:<base>:<spread>   pseudo-random-interval sampling
//!   --technique adaptive:<pct>             self-tuning sampling targeting
//!                                          <pct>% instrumentation overhead
//!   --technique search                     n-way search (all counters)
//!   --technique search:<n>                 n-way logical search (timeshared
//!                                          if n exceeds --counters)
//!   --misses <N>        run length in application misses  [default 1000000]
//!   --counters <K>      physical PMU region counters, 1 to 64 [default 10]
//!   --interval <C>      search interval in cycles         [default 25000000]
//!   --paper-scale       use paper-scale phase durations
//!   --aggregate         merge same-site heap blocks (sampling only)
//!   --timeline <C>      record a miss timeline with C-cycle buckets (C >= 1)
//!   --top <N>           print at most N rows              [default 12]
//!   --l1 <KiB>          put an L1 of that size in front of the cache
//!                       (1 to 65536 KiB)
//!   --search-log        print the search's per-iteration decisions
//!   --csv <file>        write the report, costs and any timeline as CSV
//!   --json <file>       write the full report (rows, costs, metrics) as JSON
//!   --trace-out <file>  write the run's observability events as JSONL
//!   --metrics           print the run's metrics registry (counters,
//!                       gauges, histograms; zero simulated cost)
//!   --record <file>     tee the reference trace to a file (ATOM-style)
//!   --trace-format <f>  trace encoding for --record: text (default) | bin
//!   --replay <file>     drive the experiment from a recorded trace
//!                       instead of a synthetic app (pass `-` as <app>)
//!
//! profile-mode options (`cachescope profile <app> ...`):
//!   --flamegraph <file> write the span roll-up as collapsed stacks
//!                       (feed to inferno/flamegraph.pl)
//!   --spans-out <file>  write the span event stream as JSONL
//!   --timeline-out <f>  write the phase-timeline windows as JSONL
//!                       (requires --timeline)
//! ```
//!
//! Example:
//!
//! ```sh
//! cargo run --release -- mcf --technique sampling:1000 --aggregate
//! ```

use cachescope::core::{Experiment, PmuConfig, TechniqueConfig};
use cachescope::sim::{CacheConfig, Program, RunLimit, TimelineConfig};
use cachescope::workloads::spec::{self, Scale};
use cachescope::workloads::spec2000;

mod analyze_cmd;
mod check_cmd;
mod fuzz_cmd;
mod serve_cmd;

fn usage() -> ! {
    eprintln!(
        "usage: cachescope <app> [options]\n\
         \x20 --technique sampling:<k> | jittered:<base>:<spread> | adaptive:<pct>\n\
         \x20             | search[:<n>] | none\n\
         \x20 --misses N --counters K --interval C --paper-scale --aggregate\n\
         \x20 --timeline C --top N --l1 KiB --search-log --csv FILE\n\
         \x20 --json FILE --trace-out FILE --metrics\n\
         \x20 --record FILE [--trace-format text|bin] | --replay FILE (with '-' as <app>)\n\
         apps: tomcatv swim su2cor mgrid applu compress ijpeg mcf art equake\n\
         or:   cachescope profile <app> [options] [--flamegraph FILE]\n\
         \x20      [--spans-out FILE] [--timeline-out FILE]   (self-profiled run)\n\
         or:   cachescope analyze --help (static per-object miss bounds,\n\
         \x20      no simulation)\n\
         or:   cachescope check --help   (static input/repo verification)\n\
         or:   cachescope fuzz --help    (adversarial fuzzing + differential\n\
         \x20      technique verification)\n\
         or:   cachescope serve --help | cachescope submit --help\n\
         \x20      (streaming attribution daemon and its client)"
    );
    std::process::exit(2);
}

/// The value of `option`, or a usage error (exit 2) naming why it was
/// refused.
fn refuse<T>(option: &str, checked: Result<T, String>) -> T {
    checked.unwrap_or_else(|why| {
        eprintln!("{option}: {why}");
        std::process::exit(2);
    })
}

fn parse_u64(s: &str, what: &str) -> u64 {
    s.replace('_', "").parse().unwrap_or_else(|_| {
        eprintln!("invalid {what}: {s}");
        std::process::exit(2);
    })
}

fn workload(app: &str, scale: Scale) -> Box<dyn Program> {
    match app {
        "tomcatv" => Box::new(spec::tomcatv(scale)),
        "swim" => Box::new(spec::swim(scale)),
        "su2cor" => Box::new(spec::su2cor(scale)),
        "mgrid" => Box::new(spec::mgrid(scale)),
        "applu" => Box::new(spec::applu(scale)),
        "compress" => Box::new(spec::compress(scale)),
        "ijpeg" => Box::new(spec::ijpeg(scale)),
        "mcf" => Box::new(spec2000::mcf::mcf(scale)),
        "art" => Box::new(spec2000::art(scale)),
        "equake" => Box::new(spec2000::equake(scale)),
        _ => {
            eprintln!("unknown app: {app}");
            usage();
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if !args.is_empty() && args[0] == "analyze" {
        analyze_cmd::run(&args[1..]);
    }
    if !args.is_empty() && args[0] == "check" {
        check_cmd::run(&args[1..]);
    }
    if !args.is_empty() && args[0] == "fuzz" {
        fuzz_cmd::run(&args[1..]);
    }
    if !args.is_empty() && args[0] == "serve" {
        serve_cmd::run_serve(&args[1..]);
    }
    if !args.is_empty() && args[0] == "submit" {
        serve_cmd::run_submit(&args[1..]);
    }
    // `cachescope profile <app> ...` is the ordinary run with the span
    // profiler enabled and profile outputs surfaced at the end.
    let profile_mode = !args.is_empty() && args[0] == "profile";
    if profile_mode {
        args.remove(0);
    }
    // "-" is a valid app placeholder when replaying a recorded trace.
    if args.is_empty() || (args[0] != "-" && args[0].starts_with('-')) {
        usage();
    }
    let app = args[0].clone();

    let mut technique = "sampling:1000".to_string();
    let mut misses = 1_000_000u64;
    let mut counters = 10usize;
    let mut interval = 25_000_000u64;
    let mut scale = Scale::Test;
    let mut aggregate = false;
    let mut timeline: Option<TimelineConfig> = None;
    let mut top = 12usize;
    let mut record: Option<String> = None;
    let mut trace_format = cachescope::sim::TraceFormat::Text;
    let mut replay: Option<String> = None;
    let mut csv: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut show_metrics = false;
    let mut search_log = false;
    let mut l1: Option<CacheConfig> = None;
    let mut flamegraph_out: Option<String> = None;
    let mut spans_out: Option<String> = None;
    let mut timeline_out: Option<String> = None;

    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{what} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--technique" => technique = value("--technique"),
            "--misses" => misses = parse_u64(&value("--misses"), "miss count"),
            "--counters" => {
                let n = parse_u64(&value("--counters"), "counters");
                counters = usize::try_from(n).unwrap_or(usize::MAX);
                refuse("--counters", PmuConfig::check_counters(counters));
            }
            "--interval" => interval = parse_u64(&value("--interval"), "interval"),
            "--paper-scale" => scale = Scale::Paper,
            "--aggregate" => aggregate = true,
            "--timeline" => {
                let width = parse_u64(&value("--timeline"), "bucket width");
                timeline = Some(refuse("--timeline", TimelineConfig::new(width)));
            }
            "--top" => top = parse_u64(&value("--top"), "row count") as usize,
            "--record" => record = Some(value("--record")),
            "--trace-format" => {
                trace_format = match value("--trace-format").as_str() {
                    "text" => cachescope::sim::TraceFormat::Text,
                    "bin" => cachescope::sim::TraceFormat::Bin,
                    other => {
                        eprintln!("unknown trace format: {other} (want text|bin)");
                        std::process::exit(2);
                    }
                }
            }
            "--replay" => replay = Some(value("--replay")),
            "--csv" => csv = Some(value("--csv")),
            "--json" => json_out = Some(value("--json")),
            "--trace-out" => trace_out = Some(value("--trace-out")),
            "--metrics" => show_metrics = true,
            "--search-log" => search_log = true,
            "--l1" => {
                let kib = parse_u64(&value("--l1"), "L1 size (KiB)");
                l1 = Some(refuse("--l1", CacheConfig::l1_kib(kib)));
            }
            "--flamegraph" if profile_mode => flamegraph_out = Some(value("--flamegraph")),
            "--spans-out" if profile_mode => spans_out = Some(value("--spans-out")),
            "--timeline-out" if profile_mode => timeline_out = Some(value("--timeline-out")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option: {other}");
                usage();
            }
        }
    }

    let tech = TechniqueConfig::parse_spec(&technique, interval, aggregate, search_log)
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            usage();
        });

    // Resolve the program: a synthetic app, a recorded trace, or a
    // synthetic app teed to a trace file.
    let mut replay_objects = 0u64;
    let program: Box<dyn Program> = match (&replay, &record) {
        (Some(path), _) => {
            let file = std::fs::File::open(path).unwrap_or_else(|e| {
                eprintln!("cannot open trace {path}: {e}");
                std::process::exit(1);
            });
            let trace = cachescope::sim::tracefile::load_eager(std::io::BufReader::new(file))
                .unwrap_or_else(|e| {
                    eprintln!("cannot parse trace {path}: {e}");
                    std::process::exit(1);
                });
            replay_objects = trace.static_objects().len() as u64;
            Box::new(trace)
        }
        (None, Some(path)) => {
            let file = std::fs::File::create(path).unwrap_or_else(|e| {
                eprintln!("cannot create trace {path}: {e}");
                std::process::exit(1);
            });
            Box::new(cachescope::sim::RecordingProgram::with_format(
                workload(&app, scale),
                std::io::BufWriter::new(file),
                trace_format,
            ))
        }
        (None, None) => workload(&app, scale),
    };

    let mut exp = Experiment::new(program)
        .technique(tech)
        .counters(counters)
        .profile(profile_mode)
        .limit(RunLimit::AppMisses(misses));
    if let Some(t) = timeline {
        exp = exp.timeline(t.bucket_cycles);
    }
    if let Some(l1) = l1 {
        exp = exp.l1(l1);
    }
    let mut report = exp.run();

    // Trace record/replay bookkeeping joins the event stream tool-side,
    // after the run (the trace file itself stays observability-free).
    if let Some(path) = &record {
        let program_events = report.stats.app.accesses
            + report.metrics.counter("program.allocs")
            + report.metrics.counter("program.frees")
            + report.metrics.counter("program.phase_markers");
        report.events.push(cachescope::obs::ObsEvent::TraceRecord {
            path: path.clone(),
            events: program_events,
        });
    }
    if let Some(path) = &replay {
        report.events.push(cachescope::obs::ObsEvent::TraceReplay {
            path: path.clone(),
            objects: replay_objects,
        });
    }

    if let Some(log) = &report.search_log {
        println!("search progress ({} iterations):", log.len());
        print!("{}", log.render());
        println!();
    }

    if let Some(path) = &csv {
        let mut out = cachescope::core::export::report_to_csv(&report);
        out.push('\n');
        out.push_str(&cachescope::core::export::costs_to_csv(&report));
        if let Some(t) = cachescope::core::export::timeline_to_csv(&report.stats) {
            out.push('\n');
            out.push_str(&t);
        }
        std::fs::write(path, out).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("(csv written to {path})");
    }

    if let Some(path) = &json_out {
        let mut out = cachescope::core::export::report_to_json(&report).render();
        out.push('\n');
        std::fs::write(path, out).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("(json written to {path})");
    }

    if let Some(path) = &trace_out {
        std::fs::write(path, cachescope::obs::events_to_jsonl(&report.events)).unwrap_or_else(
            |e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            },
        );
        println!("(trace written to {path}: {} events)", report.events.len());
    }

    if show_metrics {
        println!("metrics:");
        print!("{}", report.metrics);
        println!();
    }

    println!("{report}");
    let shown = report.rows().len().min(top);
    if report.rows().len() > shown {
        println!("... ({} more rows)", report.rows().len() - shown);
    }
    println!(
        "run: {} app misses, {:.2} Gcycles, {} interrupts, {:.3}% instrumentation overhead",
        report.stats.app.misses,
        report.stats.cycles as f64 / 1e9,
        report.stats.interrupts,
        report.stats.instr_cycles as f64 * 100.0 / report.stats.cycles.max(1) as f64,
    );
    if report.technique.unattributed_weight > 0 {
        println!(
            "unattributed evidence (stack frames etc.): {} samples/misses",
            report.technique.unattributed_weight
        );
    }

    if let Some(prof) = &report.profile {
        println!("\nself-profile (simulator wall time, merged call tree):");
        fn print_tree(node: &cachescope::obs::Json, depth: usize) {
            use cachescope::obs::Json;
            let name = node.get("name").and_then(Json::as_str).unwrap_or("?");
            let count = node.get("count").and_then(Json::as_u64).unwrap_or(0);
            let total = node.get("total_ns").and_then(Json::as_u64).unwrap_or(0);
            println!(
                "  {:indent$}{name:<24} {count:>10}x {:>10.2} ms",
                "",
                total as f64 / 1e6,
                indent = depth * 2
            );
            if let Some(children) = node.get("children").and_then(Json::as_arr) {
                for c in children {
                    print_tree(c, depth + 1);
                }
            }
        }
        let tree = prof.tree_json();
        for root in tree.as_arr().unwrap_or(&[]) {
            print_tree(root, 0);
        }
        for name in [
            "engine.chunk_ns",
            "sampler.interval_cycles",
            "search.interval_cycles",
            "objmap.probe_depth",
        ] {
            if let Some(h) = report.metrics.histogram(name) {
                println!(
                    "  {name:<24} count {} p50 {} p95 {} p99 {} max {}",
                    h.count(),
                    h.p50(),
                    h.p95(),
                    h.p99(),
                    h.max(),
                );
            }
        }
        if let Some(h) = report.metrics.histogram("engine.control_ns") {
            println!(
                "  {:<24} {} events, {:.1} ns/event",
                "engine.control",
                h.count(),
                h.mean(),
            );
        }
        println!(
            "  {:<24} {} of {} application accesses",
            "engine.stepped_accesses",
            report.metrics.counter("engine.stepped_accesses"),
            report.stats.app.accesses,
        );
        println!(
            "  {:<24} {} of {} application misses",
            "engine.slow_resolves",
            report.metrics.counter("engine.slow_resolves"),
            report.stats.app.misses,
        );
        if let Some(path) = &flamegraph_out {
            std::fs::write(path, prof.collapsed()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("(flamegraph collapsed stacks written to {path})");
        }
        if let Some(path) = &spans_out {
            std::fs::write(path, prof.events_jsonl()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("(span events written to {path})");
        }
    }
    if let Some(path) = &timeline_out {
        match cachescope::core::export::phase_timeline_jsonl(&report.stats, top) {
            Some(jsonl) => {
                std::fs::write(path, jsonl).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                });
                println!("(phase timeline written to {path})");
            }
            None => eprintln!("--timeline-out: no timeline recorded (pass --timeline <C>)"),
        }
    }

    if let Some(t) = &report.stats.timeline {
        println!("\nmiss timeline ({} cycles per bucket):", t.bucket_cycles());
        for (id, obj) in report.stats.objects.iter().enumerate().take(top) {
            let series = t.series(id as u32);
            let max = series.iter().copied().max().unwrap_or(1).max(1);
            let line: String = series
                .iter()
                .take(72)
                .map(|&v| match (v * 4 / max) as u32 {
                    0 if v == 0 => '.',
                    0 => '\u{2581}',
                    1 => '\u{2582}',
                    2 => '\u{2584}',
                    3 => '\u{2586}',
                    _ => '\u{2588}',
                })
                .collect();
            println!("  {:<24} {}", obj.name, line);
        }
    }
}
