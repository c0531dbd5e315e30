//! The traced run: each job's own inputs fed to each layer's public
//! calls, timed from outside inside spans, plus the engine run with
//! layers added one at a time and the job rebuilt from its parts.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cachescope_hwpm::{CounterId, Pmu, PmuConfig};
use cachescope_objmap::{AccessTrace, ObjectMap};
use cachescope_serve::{query_status, submit_bytes, Addr, SubmitOutcome};
use cachescope_sim::rng::SmallRng;
use cachescope_sim::tracefile::load_eager;
use cachescope_sim::{
    AddressSpace, CacheConfig, Engine, EpochIndex, Event, EventChunk, ExtentMemo, MemRef,
    NullHandler, Program, RunLimit, SetAssocCache,
};

use crate::e2e::{self, FRAME_BYTES};
use crate::gen::record_bin;
use crate::jobs::{self, JobSpec, Source};
use crate::spans::{self, Tracer};
use crate::stats;

/// References of a producer's stream recorded for the decode and serve
/// layers (a prefix; traces are fed whole).
const PROBE_REFS: u64 = 250_000;
/// `query_status` probes per job, each after a seeded random pause so
/// probes land at random phases of the daemon's 20 ms accept poll.
const ACCEPT_PROBES: usize = 2;

/// Program wrapper that ends after `left` accesses.
struct Prefix<P> {
    inner: P,
    left: u64,
}

impl<P: Program> Program for Prefix<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn static_objects(&self) -> Vec<cachescope_sim::ObjectDecl> {
        self.inner.static_objects()
    }
    fn next_event(&mut self) -> Option<Event> {
        if self.left == 0 {
            return None;
        }
        let e = self.inner.next_event()?;
        if matches!(e, Event::Access(_)) {
            self.left -= 1;
        }
        Some(e)
    }
}

/// The job's application stream as the engine consumes it: accesses,
/// and the heap events in between them.
struct Stream {
    refs: Vec<MemRef>,
    /// `(i, event)`: the heap event runs before `refs[i]`.
    heap: Vec<(usize, Event)>,
}

fn collect_stream(job: &JobSpec) -> Stream {
    let mut p = job.source.program();
    let mut chunk = EventChunk::standard();
    let mut s = Stream {
        refs: Vec::new(),
        heap: Vec::new(),
    };
    // Under an access limit the engine stops at the access that meets
    // it, before any later event; otherwise the stream runs to its end.
    let bounded = matches!(job.limit, RunLimit::AppAccesses(_));
    let cap = job.refs as usize;
    while !(bounded && s.refs.len() >= cap) {
        chunk.reset();
        if p.next_chunk(&mut chunk) == 0 {
            break;
        }
        let base = s.refs.len();
        for (pos, e) in &chunk.marks {
            let at = base + *pos as usize;
            if matches!(e, Event::Alloc { .. } | Event::Free { .. }) && (!bounded || at < cap) {
                s.heap.push((at, e.clone()));
            }
        }
        let take = match bounded {
            true => (cap - base).min(chunk.refs.len()),
            false => chunk.refs.len(),
        };
        s.refs.extend_from_slice(&chunk.refs[..take]);
    }
    s
}

/// One operation of the miss path, in program order.
enum Op {
    Miss(u64),
    Heap(Event),
}

/// Sums over every decomposed job, per layer. Tuples lead with the
/// layer's nanoseconds, followed by its counts.
#[derive(Default)]
struct Acc {
    jobs: u64,
    mismatches: u64,
    untraced_ns: u64,
    traced_ns: u64,
    /// (ns, refs drained)
    producer: (u64, u64),
    /// (ns, refs decoded, trace bytes)
    decode: (u64, u64, u64),
    /// (ns, accesses, hits)
    cache: (u64, u64, u64),
    /// (ns, misses resolved, memo hits)
    resolve: (u64, u64, u64),
    /// (ns, inserts and removes)
    extent: (u64, u64),
    /// (ns, allocs, frees and lookups)
    objmap: (u64, u64),
    /// (ns, misses recorded, overflows)
    pmu: (u64, u64, u64),
    noattr_ns: u64,
    attr_ns: u64,
    engine_refs: u64,
    /// (ns of the rebuilt job's engine run, interrupts, useful, attempts)
    technique: (u64, u64, u64, u64),
    /// (ns, objects joined)
    join: (u64, u64),
    /// (ns, bytes rendered)
    render: (u64, u64),
    obs_events: u64,
    accept_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    /// (ns, bytes ingested)
    ingest: (u64, u64),
    simulate_ms: Vec<f64>,
    session_ms: Vec<f64>,
}

/// Feed one job's inputs to every layer.
fn decompose(job: &JobSpec, id: u32, t: &mut Tracer, acc: &mut Acc, serve: &mut Probe) {
    acc.jobs += 1;
    let refs = job.refs;

    // The job as users run it, and rebuilt from its parts inside spans;
    // which runs first alternates, so warm-up favours neither.
    let untraced_first = acc.jobs % 2 == 1;
    let mut plain = None;
    if untraced_first {
        plain = Some(t.time("untraced.job", id, || jobs::run_job(job)));
    }
    let rebuilt = jobs::rebuild_job(job, t, id);
    let (plain, untraced) =
        plain.unwrap_or_else(|| t.time("untraced.job", id, || jobs::run_job(job)));
    acc.untraced_ns += untraced;
    acc.traced_ns += rebuilt.total_ns;
    if rebuilt.out.rendered != plain.rendered || !jobs::job_ok(job, &plain.stats) {
        acc.mismatches += 1;
    }

    // Producer alone.
    let mut p = job.source.program();
    let mut chunk = EventChunk::standard();
    let (drained, ns) = t.time("producer", id, || {
        let mut n = 0u64;
        while n < refs {
            chunk.reset();
            if p.next_chunk(&mut chunk) == 0 {
                break;
            }
            n += chunk.refs.len() as u64;
            std::hint::black_box(&chunk);
        }
        n
    });
    acc.producer.0 += ns;
    acc.producer.1 += drained;

    // Decode: the trace bytes (recorded from a producer's prefix).
    let bytes: Arc<Vec<u8>> = match &job.source {
        Source::Trace(b) => Arc::clone(b),
        Source::App(_) => Arc::new(record_bin(Prefix {
            inner: job.source.program(),
            left: PROBE_REFS.min(refs),
        })),
    };
    let (decoded, ns) = t.time("decode", id, || {
        load_eager(&bytes[..]).expect("trace decodes")
    });
    let mut dp = decoded;
    let decoded_refs = std::iter::from_fn(|| dp.next_event())
        .filter(|e| matches!(e, Event::Access(_)))
        .count() as u64;
    acc.decode.0 += ns;
    acc.decode.1 += decoded_refs;
    acc.decode.2 += bytes.len() as u64;

    // Cache alone over the application stream, then the miss path ops.
    let stream = collect_stream(job);
    let (hits, ns) = t.time("cache", id, || {
        let mut c = SetAssocCache::new(CacheConfig::default());
        stream.refs.iter().filter(|&&r| c.access(r).hit).count() as u64
    });
    acc.cache.0 += ns;
    acc.cache.1 += stream.refs.len() as u64;
    acc.cache.2 += hits;
    let mut ops = Vec::new();
    let mut c = SetAssocCache::new(CacheConfig::default());
    let mut h = stream.heap.iter().peekable();
    for (i, &r) in stream.refs.iter().enumerate() {
        while let Some((_, e)) = h.next_if(|(at, _)| *at == i) {
            ops.push(Op::Heap(e.clone()));
        }
        if !c.access(r).hit {
            ops.push(Op::Miss(r.addr));
        }
    }
    ops.extend(h.map(|(_, e)| Op::Heap(e.clone())));
    let misses: Vec<u64> = ops
        .iter()
        .filter_map(|o| match o {
            Op::Miss(a) => Some(*a),
            Op::Heap(_) => None,
        })
        .collect();

    // Extent index: mutations alone, then mutations interleaved with
    // memoised resolves as the engine's ground truth does them; resolve
    // time is the difference.
    let decls = job.source.program().static_objects();
    let heap_ops: Vec<&Op> = ops.iter().filter(|o| matches!(o, Op::Heap(_))).collect();
    let index_ops = |ops: &[&Op]| {
        let mut ix = EpochIndex::new();
        let mut memo = ExtentMemo::new();
        let (mut muts, mut memo_hits) = (0u64, 0u64);
        for d in &decls {
            let _ = ix.insert(d.base, d.end(), muts as u32);
            muts += 1;
        }
        for op in ops {
            match op {
                Op::Heap(Event::Alloc { base, size, .. }) => {
                    let _ = ix.insert(*base, base + size, muts as u32);
                    muts += 1;
                }
                Op::Heap(Event::Free { base }) => {
                    ix.remove(*base);
                    muts += 1;
                }
                Op::Heap(_) => {}
                Op::Miss(a) => {
                    let epoch = ix.epoch();
                    if memo.lookup(*a, epoch).is_some() {
                        memo_hits += 1;
                    } else if let Some((b, e, id)) = ix.resolve(*a) {
                        memo.fill(*a, b, e, id, epoch);
                    }
                }
            }
        }
        std::hint::black_box(&ix);
        (muts, memo_hits)
    };
    let all_ops: Vec<&Op> = ops.iter().collect();
    let ((muts, _), mut_ns) = t.time("extent", id, || index_ops(&heap_ops));
    let ((_, memo_hits), both_ns) = t.time("extent+resolve", id, || index_ops(&all_ops));
    acc.extent.0 += mut_ns;
    acc.extent.1 += muts;
    acc.resolve.0 += both_ns.saturating_sub(mut_ns);
    acc.resolve.1 += misses.len() as u64;
    acc.resolve.2 += memo_hits;

    // Object map: the instrumentation's allocator hooks and lookups.
    let (n, ns) = t.time("objmap", id, || {
        let mut aspace = AddressSpace::new(64);
        let mut map = ObjectMap::new(&decls, &mut aspace);
        let mut tr = AccessTrace::new();
        let mut n = 0u64;
        for op in &ops {
            match op {
                Op::Heap(Event::Alloc { base, size, name }) => {
                    map.on_alloc(*base, *size, name.as_deref(), &mut tr);
                }
                Op::Heap(Event::Free { base }) => {
                    map.on_free(*base, &mut tr);
                }
                Op::Miss(a) => {
                    std::hint::black_box(map.lookup(*a, &mut tr));
                }
                Op::Heap(_) => continue,
            }
            tr.clear();
            n += 1;
        }
        n
    });
    acc.objmap.0 += ns;
    acc.objmap.1 += n;

    // PMU over the miss stream: armed at the sampling period, or with
    // region counters across the static extents for a search.
    let (overflows, ns) = t.time("pmu", id, || {
        let mut pmu = Pmu::with_faults(
            &PmuConfig {
                region_counters: 10,
            },
            &job.faults,
        );
        let period = job.period();
        match period {
            Some(k) => pmu.arm_miss_overflow(k),
            None => {
                let lo = decls.iter().map(|d| d.base).min().unwrap_or(0);
                let hi = decls.iter().map(|d| d.end()).max().unwrap_or(0);
                let step = (hi - lo).div_ceil(10).max(1);
                for i in 0..10u32 {
                    let b = lo + u64::from(i) * step;
                    pmu.program_counter(CounterId(i), b, b + step);
                }
            }
        }
        let mut overflows = 0u64;
        for &a in &misses {
            pmu.record_miss(a);
            if pmu.take_pending().is_some() {
                overflows += 1;
                if let Some(k) = period {
                    pmu.arm_miss_overflow(k);
                }
            }
        }
        overflows
    });
    acc.pmu.0 += ns;
    acc.pmu.1 += misses.len() as u64;
    acc.pmu.2 += overflows;

    // Engine with layers added one at a time: no attribution, then
    // attribution, then (the rebuilt job above) the technique handler.
    for (name, attribution) in [("engine.noattr", false), ("engine.attr", true)] {
        let mut p = job.source.program();
        let mut e = Engine::new(job.sim_config());
        e.set_attribution(attribution);
        let (_, ns) = t.time(name, id, || e.run(&mut p, &mut NullHandler, job.limit));
        if attribution {
            acc.attr_ns += ns;
        } else {
            acc.noattr_ns += ns;
        }
    }
    acc.engine_refs += plain.stats.app.accesses;
    acc.technique.0 += rebuilt.engine_ns;
    acc.technique.1 += plain.stats.interrupts;
    acc.technique.2 += rebuilt.useful;
    acc.technique.3 += rebuilt.attempts;
    acc.join.0 += rebuilt.join_ns;
    acc.join.1 += rebuilt.objects;
    acc.render.0 += rebuilt.render_ns;
    acc.render.1 += rebuilt.out.rendered.len() as u64;
    acc.obs_events += rebuilt.events;

    serve.run(&bytes, id, t, acc);
}

/// The serve layers: in-process ingest and simulate, a served session,
/// and `query_status` round trips to a pinned in-process daemon.
struct Probe {
    addr: Addr,
    rng: SmallRng,
}

impl Probe {
    fn run(&mut self, bytes: &[u8], id: u32, t: &mut Tracer, acc: &mut Acc) {
        let (fin, ns) = t.time("serve.ingest", id, || e2e::ingest(bytes));
        acc.ingest_ms.push(ns as f64 / 1e6);
        acc.ingest.0 += ns;
        acc.ingest.1 += bytes.len() as u64;
        let (local, ns) = t.time("serve.simulate", id, || e2e::simulate(fin));
        acc.simulate_ms.push(ns as f64 / 1e6);
        let cfg = jobs::session_config();
        let (served, ns) = t.time("serve.session", id, || {
            submit_bytes(&self.addr, bytes, &cfg, FRAME_BYTES)
        });
        acc.session_ms.push(ns as f64 / 1e6);
        match served {
            Ok(SubmitOutcome::Report(r)) if r == local => {}
            _ => acc.mismatches += 1,
        }
        for _ in 0..ACCEPT_PROBES {
            let pause = self.rng.random_range(0..20_000u64);
            std::thread::sleep(Duration::from_micros(pause));
            let (status, ns) = t.time("serve.accept", id, || query_status(&self.addr));
            if status.is_err() {
                acc.mismatches += 1;
            }
            acc.accept_ms.push(ns as f64 / 1e6);
        }
    }
}

/// Per-layer metric names and units, in `BENCHMARK.json` order. Counts,
/// bytes and milliseconds are per decomposed job; `ns_per_*` are per
/// unit of the layer's work.
pub const LAYER_METRICS: [(&str, &str); 30] = [
    ("producer.ns_per_ref", "ns"),
    ("decode.ns_per_ref", "ns"),
    ("decode.bytes", "B"),
    ("cache.ns_per_access", "ns"),
    ("cache.hit_ratio", "fraction"),
    ("resolve.ns_per_miss", "ns"),
    ("resolve.memo_hit_ratio", "fraction"),
    ("resolve.misses", "count"),
    ("extent.ns_per_mutation", "ns"),
    ("extent.mutations", "count"),
    ("objmap.ns_per_op", "ns"),
    ("objmap.ops", "count"),
    ("pmu.ns_per_miss", "ns"),
    ("pmu.overflows", "count"),
    ("engine.noattr_ns_per_ref", "ns"),
    ("engine.attr_share", "fraction"),
    ("technique.ns_per_ref", "ns"),
    ("technique.interrupts", "count"),
    ("technique.useful_ratio", "fraction"),
    ("join.ms", "ms"),
    ("join.objects", "count"),
    ("render.ms", "ms"),
    ("render.bytes", "B"),
    ("obs.events", "count"),
    ("serve.accept_ms", "ms"),
    ("serve.ingest_ms", "ms"),
    ("serve.ingest_ns_per_byte", "ns"),
    ("serve.simulate_ms", "ms"),
    ("serve.other_ms", "ms"),
    ("serve.sim_starts", "count"),
];

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// What the traced run reports.
pub struct Traced {
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub table: String,
    pub spans_jsonl: String,
}

/// Decompose `jobs` pass after pass until `seconds` have passed (at least
/// one pass).
pub fn traced_run(jobs: &[JobSpec], seed: u64, seconds: f64) -> Traced {
    let (daemon, addr) = e2e::start_daemon();
    let mut probe = Probe {
        addr,
        rng: SmallRng::seed_from_u64(seed),
    };
    let mut t = Tracer::default();
    let mut acc = Acc::default();
    let start = Instant::now();
    while acc.jobs == 0 || start.elapsed().as_secs_f64() < seconds {
        for (i, job) in jobs.iter().enumerate() {
            decompose(job, i as u32, &mut t, &mut acc, &mut probe);
        }
    }
    let status = daemon.status();
    daemon.shutdown(Duration::from_secs(10));
    let sim_starts = status
        .get("sim_starts")
        .and_then(|j| j.as_u64())
        .unwrap_or(0);

    let ns = |v: u64| v as f64;
    // Sums over the run become means per decomposed job: every pass
    // decomposes the whole job list, so these do not depend on how many
    // passes fit in `seconds`.
    let per_job = |v: u64| v as f64 / acc.jobs as f64;
    // Means, not medians: the session's parts add up only in expectation.
    let accept = stats::mean(&acc.accept_ms);
    let ingest = stats::mean(&acc.ingest_ms);
    let simulate = stats::mean(&acc.simulate_ms);
    let session = stats::mean(&acc.session_ms);
    let other = session - accept - ingest - simulate;
    let m = |name| match name {
        "producer.ns_per_ref" => ratio(acc.producer.0, acc.producer.1),
        "decode.ns_per_ref" => ratio(acc.decode.0, acc.decode.1),
        "decode.bytes" => per_job(acc.decode.2),
        "cache.ns_per_access" => ratio(acc.cache.0, acc.cache.1),
        "cache.hit_ratio" => ratio(acc.cache.2, acc.cache.1),
        "resolve.ns_per_miss" => ratio(acc.resolve.0, acc.resolve.1),
        "resolve.memo_hit_ratio" => ratio(acc.resolve.2, acc.resolve.1),
        "resolve.misses" => per_job(acc.resolve.1),
        "extent.ns_per_mutation" => ratio(acc.extent.0, acc.extent.1),
        "extent.mutations" => per_job(acc.extent.1),
        "objmap.ns_per_op" => ratio(acc.objmap.0, acc.objmap.1),
        "objmap.ops" => per_job(acc.objmap.1),
        "pmu.ns_per_miss" => ratio(acc.pmu.0, acc.pmu.1),
        "pmu.overflows" => per_job(acc.pmu.2),
        "engine.noattr_ns_per_ref" => ratio(acc.noattr_ns, acc.engine_refs),
        "engine.attr_share" => 1.0 - ratio(acc.noattr_ns, acc.attr_ns),
        "technique.ns_per_ref" => {
            (acc.technique.0 as f64 - acc.attr_ns as f64) / acc.engine_refs as f64
        }
        "technique.interrupts" => per_job(acc.technique.1),
        "technique.useful_ratio" => ratio(acc.technique.2, acc.technique.3),
        "join.ms" => per_job(acc.join.0) / 1e6,
        "join.objects" => per_job(acc.join.1),
        "render.ms" => per_job(acc.render.0) / 1e6,
        "render.bytes" => per_job(acc.render.1),
        "obs.events" => per_job(acc.obs_events),
        "serve.accept_ms" => accept,
        "serve.ingest_ms" => ingest,
        "serve.ingest_ns_per_byte" => ratio(acc.ingest.0, acc.ingest.1),
        "serve.simulate_ms" => simulate,
        "serve.other_ms" => other,
        "serve.sim_starts" => per_job(sim_starts),
        other => unreachable!("unknown layer metric {other}"),
    };
    let metrics = LAYER_METRICS.iter().map(|&(n, u)| (n, u, m(n))).collect();

    let (oh_ms, oh_frac) = spans::overhead(ns(acc.traced_ns) / 1e6, ns(acc.untraced_ns) / 1e6);
    let mut table = layer_table(&t, acc.traced_ns);
    table.push_str(&format!(
        "tracing overhead: traced jobs {:.3} ms - untraced jobs {:.3} ms = {oh_ms:.3} ms ({:+.2}%) over {} jobs\n",
        ns(acc.traced_ns) / 1e6,
        ns(acc.untraced_ns) / 1e6,
        oh_frac * 100.0,
        acc.jobs
    ));
    table.push_str(&format!(
        "serve: session {:.3} ms = accept {accept:.3} + ingest {ingest:.3} + simulate {simulate:.3} + other {other:.3} (means)\n",
        session,
    ));
    Traced {
        metrics,
        attempted: acc.jobs,
        failed: acc.mismatches.min(acc.jobs),
        table,
        spans_jsonl: t.to_jsonl(),
    }
}

/// Self time, span count and share of the traced job time, per span name:
/// first the rebuilt job's tree, then each layer fed alone.
fn layer_table(t: &Tracer, traced_ns: u64) -> String {
    let selfs = spans::self_times(t.spans());
    let mut in_job: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut alone: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (s, &st) in t.spans().iter().zip(&selfs) {
        let bucket = if s.name.starts_with("job") {
            &mut in_job
        } else {
            &mut alone
        };
        let e = bucket.entry(s.name).or_default();
        e.0 += st;
        e.1 += 1;
    }
    let mut out = format!(
        "{:<24} {:>12} {:>7} {:>9}\n",
        "layer (span)", "self ms", "count", "% of job"
    );
    for (title, rows) in [("rebuilt job", &in_job), ("each layer alone", &alone)] {
        out.push_str(&format!("-- {title}\n"));
        for (name, (st, n)) in rows {
            out.push_str(&format!(
                "{name:<24} {:>12.3} {n:>7} {:>8.2}%\n",
                *st as f64 / 1e6,
                100.0 * ratio(*st, traced_ns)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metrics that count work rather than time it.
    fn counted(name: &str, unit: &str) -> bool {
        matches!(unit, "count" | "B") || (unit == "fraction" && name != "engine.attr_share")
    }

    /// Counts are per job, so they repeat exactly whether a run fits one
    /// pass over the job list or several.
    #[test]
    fn count_metrics_repeat_across_traced_runs_of_one_seed() {
        let seed = 9;
        let rotation = jobs::miss_attrib_rotation(seed, 20_000);
        let (trace, _) = e2e::record_churn(seed, 20_000, 0.5);
        let session = crate::gen::session_trace(seed, 0, 5_000);
        let jobs = vec![
            rotation[0].clone(),
            rotation[3].clone(),
            rotation[6].clone(),
            rotation[9].clone(),
            jobs::churn_job(Arc::new(trace), 20_000),
            jobs::session_job("session0".to_string(), Arc::new(session), 5_000),
        ];
        let one_pass = traced_run(&jobs, seed, 1e-6);
        let passes = traced_run(&jobs, seed, 1.0);
        assert_eq!(one_pass.attempted, jobs.len() as u64);
        assert!(passes.attempted > one_pass.attempted);
        assert_eq!((one_pass.failed, passes.failed), (0, 0));
        let mut checked = 0;
        for (a, b) in one_pass.metrics.iter().zip(&passes.metrics) {
            assert_eq!(a.0, b.0);
            if counted(a.0, a.1) {
                assert_eq!(a.2, b.2, "{} differs between runs", a.0);
                checked += 1;
            }
        }
        assert_eq!(checked, 13);
    }
}
