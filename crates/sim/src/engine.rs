//! The simulation engine.
//!
//! Interleaves application execution with instrumentation: every
//! application access goes through the cache and (on a miss) into the PMU;
//! PMU interrupts are delivered to a [`Handler`] whose work is charged in
//! virtual cycles and whose memory traffic goes through the *same* cache.
//! This reproduces the paper's methodology: "This code runs inside the
//! simulation, so it can be timed using the virtual cycle counter, and it
//! can affect the cache, making it possible to study perturbation of the
//! results" (section 3).

use cachescope_hwpm::{CounterId, Interrupt, Pmu};
use cachescope_obs::{Obs, ObsEvent};

use crate::cache::SetAssocCache;
use crate::config::SimConfig;
use crate::epoch::{ExtentError, PageMemo, Span};
use crate::memref::MemRef;
use crate::program::{Event, ObjectKind, Program};
use crate::stats::{Counts, ObjectStats, RunStats, Timeline};
use crate::{Addr, Cycle};

/// When to stop a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunLimit {
    /// Stop after this many application cache misses.
    AppMisses(u64),
    /// Stop after this many application memory references.
    AppAccesses(u64),
    /// Stop after this many virtual cycles (application + instrumentation).
    Cycles(Cycle),
    /// Stop after this many *application* virtual cycles, excluding all
    /// instrumentation cost — "the same number of application
    /// instructions" held constant across instrumented and baseline runs,
    /// as in the paper's perturbation and overhead studies (sections
    /// 3.2-3.3).
    AppCycles(Cycle),
    /// Run until the program's event stream ends.
    Exhausted,
}

/// Ground-truth object registry maintained by the simulator itself,
/// independent of any instrumentation (the source of the "Actual" columns).
#[derive(Debug, Default)]
struct GroundTruth {
    objects: Vec<ObjectStats>,
    /// Per-object miss tallies, parallel to `objects`. Kept out of the
    /// [`ObjectStats`] records (56+ bytes each) so the per-miss increment
    /// touches a dense `u64` array instead of striding through the
    /// name-carrying registry; folded back into the stats at collect
    /// time.
    miss_counts: Vec<u64>,
    /// Live extents, epoch-versioned: the tree side absorbs alloc churn
    /// at O(log n), quiet epochs resolve through the flat snapshot.
    index: crate::epoch::EpochIndex,
    /// Page-granular resolve memo in front of `index`, held inline.
    /// `insert` and `remove` invalidate the pages their extent overlaps.
    pages: PageMemo,
    /// Resolves the page memo could not answer.
    slow_resolves: u64,
}

impl GroundTruth {
    /// Register an object and its live extent. When the extent rule
    /// refuses it (empty, wrapping, or overlapping a live extent) nothing
    /// is registered and the refusal comes back as a typed error — the
    /// caller decides whether that is fatal (it is not for the engine: a
    /// hostile trace must degrade, not abort).
    fn insert(
        &mut self,
        name: String,
        base: Addr,
        size: u64,
        kind: ObjectKind,
    ) -> Result<u32, ExtentError> {
        // check:allow(object ids are u32 by construction; a run registers far fewer than 2^32 objects)
        let id = self.objects.len() as u32;
        let (base, end) = crate::epoch::extent_of(base, size);
        self.index.insert(base, end, id)?;
        self.pages.invalidate(base, end);
        self.objects.push(ObjectStats {
            name,
            base,
            size,
            kind,
            misses: 0,
        });
        self.miss_counts.push(0);
        Ok(id)
    }

    fn remove(&mut self, base: Addr) -> Option<u32> {
        let (end, id) = self.index.remove(base)?;
        self.pages.invalidate(base, end);
        Some(id)
    }

    /// The object whose live extent holds `addr`: one page-memo probe,
    /// and [`GroundTruth::resolve_slow`] when it misses.
    #[cfg(test)]
    fn resolve(&mut self, addr: Addr) -> Option<u32> {
        self.pages
            .lookup(addr)
            .unwrap_or_else(|| self.resolve_slow(addr))
    }

    /// Resolve `addr` through the index and cache its page.
    #[inline(never)]
    fn resolve_slow(&mut self, addr: Addr) -> Option<u32> {
        self.slow_resolves += 1;
        let span = self.index.locate(addr);
        self.pages.fill(addr, span);
        match span {
            Span::Extent { id, .. } => Some(id),
            Span::Gap { .. } => None,
        }
    }

    /// The registry with miss tallies folded back in.
    fn collected_objects(&self) -> Vec<ObjectStats> {
        let mut objects = self.objects.clone();
        for (o, &m) in objects.iter_mut().zip(&self.miss_counts) {
            o.misses = m;
        }
        objects
    }
}

/// Instrumentation that runs inside the simulation.
///
/// All interaction with the simulated machine goes through [`EngineCtx`],
/// which charges virtual cycles for PMU register access and plays the
/// handler's own memory traffic through the cache.
pub trait Handler {
    /// Called once before execution begins; program the PMU here.
    fn init(&mut self, ctx: &mut EngineCtx);

    /// Called for every delivered PMU interrupt (delivery cost has already
    /// been charged by the engine).
    fn on_interrupt(&mut self, intr: Interrupt, ctx: &mut EngineCtx);

    /// The instrumented allocator observed an allocation.
    fn on_alloc(&mut self, base: Addr, size: u64, name: Option<&str>, ctx: &mut EngineCtx) {
        let _ = (base, size, name, ctx);
    }

    /// The instrumented allocator observed a free.
    fn on_free(&mut self, base: Addr, ctx: &mut EngineCtx) {
        let _ = (base, ctx);
    }

    /// Called once when the run ends (limit reached or program exhausted).
    fn on_finish(&mut self, ctx: &mut EngineCtx) {
        let _ = ctx;
    }
}

/// A handler that does nothing: the uninstrumented baseline run.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHandler;

impl Handler for NullHandler {
    fn init(&mut self, _ctx: &mut EngineCtx) {}
    fn on_interrupt(&mut self, _intr: Interrupt, _ctx: &mut EngineCtx) {}
}

/// The simulated machine: cache, PMU, virtual clock, ground truth.
pub struct Engine {
    cfg: SimConfig,
    cache: SetAssocCache,
    /// Optional first-level cache filtering traffic to the monitored one.
    l1: Option<SetAssocCache>,
    l1_counts: Counts,
    pmu: Pmu,
    clock: Cycle,
    truth: GroundTruth,
    app: Counts,
    instr: Counts,
    instr_cycles: Cycle,
    interrupts: u64,
    writebacks: u64,
    unmapped_misses: u64,
    timeline: Option<Timeline>,
    /// Fault-model injections seen so far (`FaultTally::total()` at the
    /// last poll); a rising edge marks the current timeline bucket
    /// degraded. Tool-side only.
    fault_seen: u64,
    /// When false, misses skip ground-truth object attribution entirely
    /// (no resolve, no per-object tally, no timeline attribution). The
    /// cache, PMU, clock and handlers behave identically — this is the
    /// bench-only knob that measures what attribution itself costs.
    attribution: bool,
    /// Workload name, recorded at run start; names the offending input
    /// in engine diagnostics.
    app_name: String,
    /// Application accesses run one event at a time (bulk budget 0).
    steps: u64,
    /// Tool-side observability sink: events and metrics recorded here
    /// never charge virtual cycles and never touch the simulated cache.
    obs: Obs,
}

impl Engine {
    /// Build a fresh machine from the configuration.
    pub fn new(cfg: SimConfig) -> Self {
        let cache = SetAssocCache::new(cfg.cache.clone());
        let l1 = cfg.l1.clone().map(SetAssocCache::new);
        let pmu = Pmu::with_faults(&cfg.pmu, &cfg.faults);
        let timeline = cfg.timeline.map(Timeline::new);
        Engine {
            cache,
            l1,
            l1_counts: Counts::default(),
            pmu,
            clock: 0,
            truth: GroundTruth::default(),
            app: Counts::default(),
            instr: Counts::default(),
            instr_cycles: 0,
            interrupts: 0,
            writebacks: 0,
            unmapped_misses: 0,
            timeline,
            fault_seen: 0,
            attribution: true,
            app_name: String::new(),
            steps: 0,
            obs: Obs::new(),
            cfg,
        }
    }

    /// Enable or disable ground-truth miss attribution (on by default).
    ///
    /// Bench-only: with attribution off the report's per-object "Actual"
    /// columns are empty, but every simulated quantity (cycles, miss
    /// counts, interrupts, handler behavior) is bit-identical — which is
    /// exactly what makes the attribution-deleted throughput comparison
    /// honest.
    pub fn set_attribution(&mut self, on: bool) {
        self.attribution = on;
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current virtual time.
    pub fn now(&self) -> Cycle {
        self.clock
    }

    /// The observability sink (events + metrics recorded so far).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Mutable access to the observability sink.
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    /// Move the observability sink out (typically after a run, to fold
    /// its events and metrics into a report). The engine is left with an
    /// empty sink.
    pub fn take_obs(&mut self) -> Obs {
        std::mem::take(&mut self.obs)
    }

    fn limit_reached(&self, limit: RunLimit) -> bool {
        match limit {
            RunLimit::AppMisses(n) => self.app.misses >= n,
            RunLimit::AppAccesses(n) => self.app.accesses >= n,
            RunLimit::Cycles(n) => self.clock >= n,
            RunLimit::AppCycles(n) => self.clock - self.instr_cycles >= n,
            RunLimit::Exhausted => false,
        }
    }

    /// Execute `program` under instrumentation `handler` until `limit`.
    ///
    /// The engine is single-shot: it accumulates state, so create a fresh
    /// `Engine` per run when comparing configurations.
    ///
    /// Events are pulled in chunks ([`Program::next_chunk`]) and run by
    /// one loop, which takes as many accesses in bulk as one budget
    /// proves can neither latch an interrupt nor trip `limit`, and steps
    /// one event at a time when that budget is 0. Results are
    /// bit-identical to a one-event-at-a-time reference loop: the
    /// chunked-equivalence tests in this module
    /// (`chunked_run_matches_scalar_run_bit_for_bit` and its churn,
    /// bulk-path, armed-to-quiet and armed-bulk siblings) hold `run` to
    /// it.
    pub fn run<P: Program + ?Sized, H: Handler + ?Sized>(
        &mut self,
        program: &mut P,
        handler: &mut H,
        limit: RunLimit,
    ) -> RunStats {
        let sp = self.obs.profiler.enter("engine.run");
        self.begin(program, handler, limit);
        self.run_chunked(program, handler, limit);
        let stats = self.finish(handler);
        self.obs.profiler.exit(sp);
        stats
    }

    /// Reference execution loop: one event at a time, exactly as the
    /// pre-batching engine ran. Test support only: the oracle the
    /// chunked loop is equivalence-tested against.
    #[cfg(test)]
    fn run_scalar<P: Program + ?Sized, H: Handler + ?Sized>(
        &mut self,
        program: &mut P,
        handler: &mut H,
        limit: RunLimit,
    ) -> RunStats {
        self.begin(program, handler, limit);
        while !self.limit_reached(limit) {
            let Some(event) = program.next_event() else {
                break;
            };
            match event {
                Event::Access(r) => self.app_access(r),
                other => self.control_event(other, handler),
            }
            self.poll_interrupts(handler);
        }
        self.finish(handler)
    }

    fn begin<P: Program + ?Sized, H: Handler + ?Sized>(
        &mut self,
        program: &mut P,
        handler: &mut H,
        limit: RunLimit,
    ) {
        self.app_name = program.name().to_string();
        self.obs.emit(ObsEvent::RunStart {
            app: program.name().to_string(),
            limit: format!("{limit:?}"),
        });
        for decl in program.static_objects() {
            if let Err(err) = self
                .truth
                .insert(decl.name, decl.base, decl.size, decl.kind)
            {
                // Overlapping, empty or wrapping static declarations are a
                // workload bug, but the engine must degrade rather than
                // abort: the first declaration wins, the loser is reported
                // and skipped.
                self.reject_extent("CS-W005", decl.size, err);
            }
        }
        handler.init(&mut EngineCtx { e: self });
    }

    /// Surface a refused extent as the diagnostic `check` gives the same
    /// record: `overlap_code` for an overlap, CS-W006 for a zero size,
    /// CS-P001 for a wrap. The object is not registered, handlers never
    /// hear about it, and misses in a contested range attribute to the
    /// previously live extent. The daemon and the fuzzer feed hostile
    /// inputs straight into the engine, so this path must never panic.
    fn reject_extent(&mut self, overlap_code: &str, size: u64, err: ExtentError) {
        let code = match err {
            ExtentError::Overlap { .. } => {
                self.obs.metrics.add("engine.overlap_rejects", 1);
                overlap_code
            }
            ExtentError::Empty { .. } if size == 0 => "CS-W006",
            ExtentError::Empty { .. } => "CS-P001",
        };
        self.obs.emit(ObsEvent::CheckDiagnostic {
            code: code.to_string(),
            severity: "warning",
            file: self.app_name.clone(),
            line: 0,
            message: err.to_string(),
        });
    }

    /// The chunked main loop. Per chunk it alternates two walks: the
    /// marks at the current position, each a full event, then the access
    /// run up to the next mark — [`Engine::bulk_budget`] accesses at a
    /// time with no limit check and no interrupt poll, and one event at a
    /// time when that budget is 0.
    ///
    /// Equivalence to the scalar loop rests on one fact: within the
    /// budget no poll can latch and no limit can trip. Each per-event
    /// `check_timer`/`take_pending` poll the bulk step skips would have
    /// been a no-op, since no handler runs there to change what is armed,
    /// and each skipped limit check would have passed.
    ///
    /// The only externally visible difference is that the program may be
    /// pulled up to one chunk past the stop point (the unprocessed tail
    /// is discarded); programs are pull-driven generators, so this does
    /// not affect any simulated state.
    fn run_chunked<P: Program + ?Sized, H: Handler + ?Sized>(
        &mut self,
        program: &mut P,
        handler: &mut H,
        limit: RunLimit,
    ) {
        let mut chunk = crate::program::EventChunk::standard();
        'outer: while !self.limit_reached(limit) {
            chunk.reset();
            if program.next_chunk(&mut chunk) == 0 {
                break;
            }
            // Per-chunk span; `break 'outer` leaves it open, and the
            // enclosing `engine.run` exit closes the abandoned frame.
            let sp_chunk = self.obs.profiler.enter("engine.chunk");
            let refs_len = chunk.refs.len();
            let mut i = 0; // next access to execute
            let mut mi = 0; // next control mark to execute
            loop {
                while mi < chunk.marks.len() && chunk.marks[mi].0 as usize == i {
                    if self.limit_reached(limit) {
                        break 'outer;
                    }
                    self.control_event(chunk.marks[mi].1.clone(), handler);
                    self.poll_interrupts(handler);
                    mi += 1;
                }
                if i >= refs_len {
                    break;
                }
                let run_end = chunk.marks.get(mi).map_or(refs_len, |&(p, _)| p as usize);
                while i < run_end {
                    if self.limit_reached(limit) {
                        break 'outer;
                    }
                    let n = self.bulk_budget(limit, &chunk.pre_cycles, i, run_end);
                    if n > 0 {
                        if chunk.pre_cycles.is_empty() {
                            for r in &chunk.refs[i..i + n] {
                                self.app_access(*r);
                            }
                        } else {
                            for k in i..i + n {
                                self.clock += chunk.pre_cycles[k];
                                self.app_access(chunk.refs[k]);
                            }
                        }
                        i += n;
                        continue;
                    }
                    // One event at a time, as the scalar loop runs it: the
                    // fused compute is its own event, then the access.
                    if let Some(&c) = chunk.pre_cycles.get(i) {
                        if c > 0 {
                            self.clock += c;
                            self.poll_interrupts(handler);
                            if self.limit_reached(limit) {
                                break 'outer;
                            }
                        }
                    }
                    self.steps += 1;
                    self.app_access(chunk.refs[i]);
                    i += 1;
                    self.poll_interrupts(handler);
                }
            }
            self.close_chunk_span(sp_chunk);
        }
    }

    /// Close a chunk span, folding its latency into the chunk-latency
    /// histogram (profiled runs only — the histogram must not appear in
    /// unprofiled metric snapshots, which golden gates diff).
    #[inline]
    fn close_chunk_span(&mut self, sp: cachescope_obs::SpanId) {
        let dur = self.obs.profiler.exit(sp);
        if self.obs.profiler.is_enabled() {
            self.obs.metrics.observe("engine.chunk_ns", dur);
        }
    }

    /// How many of the accesses `i..end` (whose fused computes are
    /// `pre_cycles`, empty when none) can run with no limit check and no
    /// interrupt poll: `min(run length, limit headroom, PMU quiet misses,
    /// clock headroom)`. The clock side keeps the clock after the last of
    /// them, at [`Engine::worst_cycles_per_access`] per access plus its
    /// compute, below the earliest of the armed timer's deadline and a
    /// cycle limit, so no skipped poll can latch the timer and no skipped
    /// check can trip the limit.
    #[inline]
    fn bulk_budget(&self, limit: RunLimit, pre_cycles: &[Cycle], i: usize, end: usize) -> usize {
        let mut n = self.pmu.quiet_misses().min((end - i) as u64);
        let mut until = self.pmu.timer_deadline().unwrap_or(Cycle::MAX);
        match limit {
            // Each access adds at most one miss / exactly one access.
            RunLimit::AppMisses(m) => n = n.min(m.saturating_sub(self.app.misses)),
            RunLimit::AppAccesses(m) => n = n.min(m.saturating_sub(self.app.accesses)),
            RunLimit::Cycles(c) => until = until.min(c),
            RunLimit::AppCycles(c) => until = until.min(c.saturating_add(self.instr_cycles)),
            RunLimit::Exhausted => {}
        }
        if until == Cycle::MAX {
            return n as usize; // nothing waits on the clock: skip the walk
        }
        let Some(mut room) = until.saturating_sub(self.clock).checked_sub(1) else {
            return 0;
        };
        let w = self.worst_cycles_per_access();
        if pre_cycles.is_empty() {
            return n.min(room.checked_div(w).unwrap_or(u64::MAX)) as usize;
        }
        let mut k = 0;
        for &c in pre_cycles.iter().skip(i).take(n as usize) {
            match room.checked_sub(c.saturating_add(w)) {
                Some(left) => room = left,
                None => break,
            }
            k += 1;
        }
        k
    }

    /// Upper bound on the cycles one application access can charge.
    #[inline]
    fn worst_cycles_per_access(&self) -> u64 {
        let c = &self.cfg.cache;
        let l1 = self.cfg.l1.as_ref().map_or(0, |l| l.hit_cycles);
        l1 + c.hit_cycles + c.miss_penalty + c.writeback_penalty
    }

    /// Execute one non-access event (the match arms of the old scalar
    /// loop, verbatim).
    fn control_event<H: Handler + ?Sized>(&mut self, event: Event, handler: &mut H) {
        match event {
            Event::Access(r) => self.app_access(r),
            Event::Compute(c) => self.clock += c,
            Event::Alloc { base, size, name } => {
                let display = name.clone().unwrap_or_else(|| format!("{base:#x}"));
                match self.truth.insert(display, base, size, ObjectKind::Heap) {
                    Ok(_) => {
                        self.obs.emit(ObsEvent::Alloc {
                            now: self.clock,
                            base,
                            size,
                            name: name.clone(),
                        });
                        handler.on_alloc(base, size, name.as_deref(), &mut EngineCtx { e: self });
                    }
                    // Alloc over a live block, or an empty or wrapping one
                    // (hostile or corrupt trace): reject, report, and keep
                    // running. Handlers are not notified, so
                    // instrumentation maps stay consistent with ground
                    // truth.
                    Err(err) => self.reject_extent("CS-W001", size, err),
                }
            }
            Event::Free { base } => {
                self.truth.remove(base);
                self.obs.emit(ObsEvent::Free {
                    now: self.clock,
                    base,
                });
                handler.on_free(base, &mut EngineCtx { e: self });
            }
            Event::Phase(id) => {
                self.obs.emit(ObsEvent::PhaseMarker {
                    now: self.clock,
                    id,
                });
            }
        }
    }

    /// The per-event interrupt poll: latch a due timer, then deliver
    /// pending interrupts. A handler may arm a timer that is already due;
    /// bound the cascade to keep forward progress.
    #[inline]
    fn poll_interrupts<H: Handler + ?Sized>(&mut self, handler: &mut H) {
        self.pmu.check_timer(self.clock);
        let mut budget = 4;
        while budget > 0 {
            let Some(intr) = self.pmu.take_pending() else {
                break;
            };
            self.deliver(intr, handler);
            self.pmu.check_timer(self.clock);
            budget -= 1;
        }
    }

    fn finish<H: Handler + ?Sized>(&mut self, handler: &mut H) -> RunStats {
        handler.on_finish(&mut EngineCtx { e: self });
        // Fold the PMU's tool-side activity tally into the metrics; these
        // cover what the event stream cannot see (latches inside
        // record_miss/check_timer, misses arriving while frozen).
        let act = self.pmu.activity();
        self.obs
            .metrics
            .add("pmu.overflows_latched", act.overflows_latched);
        self.obs
            .metrics
            .add("pmu.timers_latched", act.timers_latched);
        self.obs.metrics.add("pmu.frozen_misses", act.frozen_misses);
        // Profiled runs only: unprofiled snapshots are diffed by goldens.
        if self.obs.profiler.is_enabled() {
            self.obs.metrics.add("engine.stepped_accesses", self.steps);
            self.obs
                .metrics
                .add("engine.slow_resolves", self.truth.slow_resolves);
        }
        // With a fault model active, summarize what it injected (the
        // emit also derives the hwpm.faults_injected metric). Absent a
        // model nothing is emitted, keeping fault-free runs byte-stable.
        if let Some(t) = self.pmu.fault_tally() {
            self.obs.emit(ObsEvent::FaultSummary {
                skidded: t.skidded_samples,
                dropped: t.dropped_overflows,
                spurious: t.spurious_overflows,
                wrapped: t.wrapped_reads,
                delayed: t.delayed_deliveries,
                jittered: t.jittered_reads,
            });
        }
        self.obs.emit(ObsEvent::RunEnd {
            now: self.clock,
            app_accesses: self.app.accesses,
            app_misses: self.app.misses,
            unmapped_misses: self.unmapped_misses,
            instr_cycles: self.instr_cycles,
            interrupts: self.interrupts,
        });
        self.collect()
    }

    /// Route one reference through the (optional) L1 and then the
    /// monitored cache. Returns the monitored-level outcome, or `None`
    /// if the L1 absorbed the reference. Charges memory-system cycles.
    ///
    /// `inline(always)` (here, on [`Engine::app_access`] and on
    /// [`SetAssocCache::access`]) is load-bearing: the chain is just over
    /// LLVM's inline threshold, and letting it become real calls moves
    /// `AccessOutcome` through memory on every reference — measured at
    /// roughly a third of baseline simulation throughput.
    #[inline(always)]
    fn hierarchy_access(&mut self, r: MemRef) -> Option<crate::cache::AccessOutcome> {
        if let Some(l1) = &mut self.l1 {
            // check:allow(the l1 cache is only built from an l1 config)
            let cfg = self.cfg.l1.as_ref().expect("l1 cache implies l1 config");
            let out = l1.access(r);
            self.l1_counts.accesses += 1;
            self.clock += cfg.hit_cycles;
            if out.hit {
                return None;
            }
            self.l1_counts.misses += 1;
            // Miss in L1: the reference proceeds to the monitored level.
        }
        let out = self.cache.access(r);
        self.clock += self.cfg.cache.hit_cycles;
        if out.wrote_back {
            self.writebacks += 1;
            self.clock += self.cfg.cache.writeback_penalty;
        }
        if !out.hit {
            self.clock += self.cfg.cache.miss_penalty;
        }
        Some(out)
    }

    #[inline(always)]
    fn app_access(&mut self, r: MemRef) {
        self.app.accesses += 1;
        // One access is one point in time for windowing purposes: the
        // ref, a miss, and its object attribution all land in the bucket
        // of the access's *entry* clock, even though the hierarchy
        // charges cycles in between. Otherwise a miss whose penalty
        // crosses a window boundary would count in a later window than
        // its own reference, breaking the per-window `misses <= refs`
        // invariant (CS-O001).
        let now = self.clock;
        if let Some(t) = &mut self.timeline {
            t.record_ref(now);
        }
        let Some(out) = self.hierarchy_access(r) else {
            return;
        };
        if !out.hit {
            self.app.misses += 1;
            if self.attribution {
                let owner = match self.truth.pages.lookup(r.addr) {
                    Some(owner) => owner,
                    None => {
                        let sp = self.obs.profiler.enter("engine.resolve");
                        let owner = self.truth.resolve_slow(r.addr);
                        self.obs.profiler.exit(sp);
                        owner
                    }
                };
                match owner {
                    Some(id) => {
                        self.truth.miss_counts[id as usize] += 1;
                        if let Some(t) = &mut self.timeline {
                            t.record(id, now);
                        }
                    }
                    None => self.unmapped_misses += 1,
                }
                if let Some(t) = &mut self.timeline {
                    t.record_miss(now);
                }
            }
            self.pmu.record_miss(r.addr);
            self.poll_faults();
        }
    }

    /// Poll the fault model's tally; a rising edge since the last poll
    /// marks the current timeline bucket degraded. Gated on the timeline
    /// (the only consumer) so unwindowed runs pay nothing.
    #[inline]
    fn poll_faults(&mut self) {
        if self.timeline.is_none() {
            return;
        }
        if let Some(tally) = self.pmu.fault_tally() {
            let total = tally.total();
            if total > self.fault_seen {
                self.fault_seen = total;
                if let Some(t) = &mut self.timeline {
                    t.mark_degraded(self.clock);
                }
            }
        }
    }

    fn deliver<H: Handler + ?Sized>(&mut self, intr: Interrupt, handler: &mut H) {
        self.interrupts += 1;
        // Delayed-delivery fault: extra latency between the latch and
        // the handler running, charged like delivery cost (zero without
        // a fault model).
        let cost = self.cfg.costs.interrupt_delivery + self.pmu.take_delivery_delay();
        self.clock += cost;
        self.instr_cycles += cost;
        self.obs.emit(ObsEvent::Interrupt {
            now: self.clock,
            kind: match intr {
                Interrupt::MissOverflow => "miss_overflow",
                Interrupt::Timer => "timer",
            },
        });
        self.pmu.freeze();
        let sp = self.obs.profiler.enter("engine.deliver");
        handler.on_interrupt(intr, &mut EngineCtx { e: self });
        self.obs.profiler.exit(sp);
        self.pmu.unfreeze();
        // Delivery-side faults (delays, spurious interrupts) surface
        // here rather than at a miss.
        self.poll_faults();
    }

    fn collect(&self) -> RunStats {
        RunStats {
            app: self.app,
            l1: self.l1.is_some().then_some(self.l1_counts),
            instr: self.instr,
            cycles: self.clock,
            instr_cycles: self.instr_cycles,
            interrupts: self.interrupts,
            writebacks: self.writebacks,
            objects: self.truth.collected_objects(),
            unmapped_misses: self.unmapped_misses,
            timeline: self.timeline.clone(),
        }
    }
}

/// The instrumentation's window onto the simulated machine.
///
/// Every operation charges its virtual-cycle cost (per the configured
/// [`cachescope_hwpm::CostModel`]) and instrumentation memory traffic is
/// played through the simulated cache, perturbing it exactly as real
/// measurement code would.
pub struct EngineCtx<'a> {
    e: &'a mut Engine,
}

impl EngineCtx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> Cycle {
        self.e.clock
    }

    /// Charge `cycles` of pure instrumentation compute.
    pub fn charge(&mut self, cycles: Cycle) {
        self.e.clock += cycles;
        self.e.instr_cycles += cycles;
    }

    /// The observability sink. Recording events or metrics here is free
    /// in simulated time — tool-side state, never charged, never played
    /// through the cache.
    pub fn obs(&mut self) -> &mut Obs {
        &mut self.e.obs
    }

    /// Issue one instrumentation memory reference through the cache
    /// hierarchy (instrumentation data is filtered by the L1 too).
    pub fn touch(&mut self, r: MemRef) {
        self.e.instr.accesses += 1;
        let before = self.e.clock;
        let out = self.e.hierarchy_access(r);
        if matches!(out, Some(o) if !o.hit) {
            self.e.instr.misses += 1;
        }
        // hierarchy_access charged the clock; mirror it into the
        // instrumentation account.
        self.e.instr_cycles += self.e.clock - before;
    }

    /// Read instrumentation memory at `addr`.
    pub fn touch_read(&mut self, addr: Addr) {
        self.touch(MemRef::read(addr, 8));
    }

    /// Write instrumentation memory at `addr`.
    pub fn touch_write(&mut self, addr: Addr) {
        self.touch(MemRef::write(addr, 8));
    }

    /// Number of PMU region counters available.
    pub fn num_counters(&self) -> usize {
        self.e.pmu.num_counters()
    }

    /// Read a region counter (charges the register-read cost).
    pub fn read_counter(&mut self, id: CounterId) -> u64 {
        self.charge(self.e.cfg.costs.counter_read);
        let v = self.e.pmu.read_counter(id);
        // Wrap/jitter faults fire on reads; keep the timeline's degraded
        // marks current.
        self.e.poll_faults();
        v
    }

    /// Program a region counter's base/bounds (charges the program cost).
    pub fn program_counter(&mut self, id: CounterId, base: Addr, bound: Addr) {
        self.charge(self.e.cfg.costs.counter_program);
        self.e.pmu.program_counter(id, base, bound);
        self.e.obs.emit(ObsEvent::CounterProgram {
            now: self.e.clock,
            slot: id.0 as usize,
            lo: base,
            hi: bound,
        });
    }

    /// Disable a region counter.
    pub fn disable_counter(&mut self, id: CounterId) {
        self.charge(self.e.cfg.costs.counter_program);
        self.e.pmu.disable_counter(id);
        self.e.obs.emit(ObsEvent::CounterDisable {
            now: self.e.clock,
            slot: id.0 as usize,
        });
    }

    /// Read the global (unqualified) miss counter.
    pub fn read_global(&mut self) -> u64 {
        self.charge(self.e.cfg.costs.counter_read);
        let v = self.e.pmu.read_global();
        self.e.poll_faults();
        v
    }

    /// Read and clear the global miss counter.
    pub fn read_and_clear_global(&mut self) -> u64 {
        self.charge(self.e.cfg.costs.counter_read);
        let v = self.e.pmu.read_and_clear_global();
        self.e.poll_faults();
        v
    }

    /// Read the last-miss-address register.
    pub fn last_miss_addr(&mut self) -> Option<Addr> {
        self.charge(self.e.cfg.costs.last_miss_read);
        let v = self.e.pmu.last_miss_addr();
        self.e.poll_faults();
        v
    }

    /// Arm a miss-overflow interrupt `period` misses from now.
    pub fn arm_miss_overflow(&mut self, period: u64) {
        self.charge(self.e.cfg.costs.arm_interrupt);
        self.e.pmu.arm_miss_overflow(period);
        self.e.obs.emit(ObsEvent::ArmMissOverflow {
            now: self.e.clock,
            period,
        });
    }

    /// Arm the cycle timer to fire `delta` cycles from now.
    pub fn arm_timer_in(&mut self, delta: Cycle) {
        self.charge(self.e.cfg.costs.arm_interrupt);
        let deadline = self.e.clock + delta;
        self.e.pmu.arm_timer(deadline);
        self.e.obs.emit(ObsEvent::ArmTimer {
            now: self.e.clock,
            deadline,
        });
    }

    /// Disarm the cycle timer.
    pub fn disarm_timer(&mut self) {
        self.e.pmu.disarm_timer();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::program::{ObjectDecl, TraceProgram};
    use cachescope_hwpm::{CostModel, PmuConfig};

    fn cfg() -> SimConfig {
        SimConfig {
            cache: CacheConfig {
                size_bytes: 4096,
                line_bytes: 64,
                assoc: 2,
                hit_cycles: 1,
                miss_penalty: 10,
                writeback_penalty: 0,
                policy: Default::default(),
            },
            l1: None,
            pmu: PmuConfig { region_counters: 2 },
            costs: CostModel::free(),
            faults: Default::default(),
            timeline: None,
        }
    }

    fn line_reads(base: Addr, lines: u64) -> Vec<Event> {
        (0..lines)
            .map(|k| Event::Access(MemRef::read(base + k * 64, 8)))
            .collect()
    }

    #[test]
    fn attributes_misses_to_declared_objects() {
        let decls = vec![
            ObjectDecl::global("A", 0x1000_0000, 64 * 10),
            ObjectDecl::global("B", 0x1000_1000, 64 * 10),
        ];
        let mut events = line_reads(0x1000_0000, 10);
        events.extend(line_reads(0x1000_1000, 4));
        let mut p = TraceProgram::new("t", decls, events);
        let mut e = Engine::new(cfg());
        let stats = e.run(&mut p, &mut NullHandler, RunLimit::Exhausted);
        assert_eq!(stats.app.misses, 14);
        assert_eq!(stats.objects[0].misses, 10);
        assert_eq!(stats.objects[1].misses, 4);
        assert_eq!(stats.unmapped_misses, 0);
    }

    #[test]
    fn unmapped_misses_are_counted_separately() {
        let mut p = TraceProgram::new("t", vec![], line_reads(0x1000_0000, 3));
        let mut e = Engine::new(cfg());
        let stats = e.run(&mut p, &mut NullHandler, RunLimit::Exhausted);
        assert_eq!(stats.unmapped_misses, 3);
    }

    #[test]
    fn compute_events_advance_clock_without_accesses() {
        let mut p = TraceProgram::new("t", vec![], vec![Event::Compute(1234)]);
        let mut e = Engine::new(cfg());
        let stats = e.run(&mut p, &mut NullHandler, RunLimit::Exhausted);
        assert_eq!(stats.cycles, 1234);
        assert_eq!(stats.app.accesses, 0);
    }

    #[test]
    fn cycle_accounting_hit_vs_miss() {
        // Two references to the same line: one miss (1+10), one hit (1).
        let events = vec![
            Event::Access(MemRef::read(0x1000_0000, 8)),
            Event::Access(MemRef::read(0x1000_0008, 8)),
        ];
        let mut p = TraceProgram::new("t", vec![], events);
        let mut e = Engine::new(cfg());
        let stats = e.run(&mut p, &mut NullHandler, RunLimit::Exhausted);
        assert_eq!(stats.cycles, 12);
    }

    #[test]
    fn run_limit_app_misses_stops_early() {
        let mut p = TraceProgram::new("t", vec![], line_reads(0x1000_0000, 100));
        let mut e = Engine::new(cfg());
        let stats = e.run(&mut p, &mut NullHandler, RunLimit::AppMisses(5));
        assert_eq!(stats.app.misses, 5);
        assert_eq!(stats.app.accesses, 5);
    }

    #[test]
    fn app_cycles_limit_excludes_instrumentation_cost() {
        // With an 8,800-cycle delivery cost, an AppCycles limit must not
        // count instrumentation time toward the application budget.
        let mut c = cfg();
        c.costs = CostModel {
            interrupt_delivery: 8_800,
            ..CostModel::free()
        };
        let mut p = TraceProgram::new("t", vec![], line_reads(0x1000_0000, 100));
        let mut h = CountingHandler {
            interrupts: 0,
            last_addr: None,
            period: 5,
        };
        let mut e = Engine::new(c);
        // Each miss costs 11 app cycles; limit 110 = 10 accesses.
        let stats = e.run(&mut p, &mut h, RunLimit::AppCycles(110));
        assert_eq!(stats.app.accesses, 10);
        assert_eq!(stats.interrupts, 2);
        assert_eq!(stats.cycles, 110 + 2 * 8_800);
    }

    #[test]
    fn run_limit_cycles_stops_early() {
        let mut p = TraceProgram::new("t", vec![], vec![Event::Compute(10); 100]);
        let mut e = Engine::new(cfg());
        let stats = e.run(&mut p, &mut NullHandler, RunLimit::Cycles(55));
        // Stops at the first boundary where clock >= 55.
        assert_eq!(stats.cycles, 60);
    }

    #[test]
    fn alloc_and_free_update_ground_truth() {
        let heap = 0x1_4100_0000u64;
        let mut events = vec![Event::Alloc {
            base: heap,
            size: 64 * 4,
            name: None,
        }];
        events.extend(line_reads(heap, 4));
        events.push(Event::Free { base: heap });
        events.extend(line_reads(heap + 0x10000, 2)); // now unmapped
        let mut p = TraceProgram::new("t", vec![], events);
        let mut e = Engine::new(cfg());
        let stats = e.run(&mut p, &mut NullHandler, RunLimit::Exhausted);
        assert_eq!(stats.objects.len(), 1);
        assert_eq!(stats.objects[0].name, "0x141000000");
        assert_eq!(stats.objects[0].misses, 4);
        assert_eq!(stats.unmapped_misses, 2);
    }

    struct CountingHandler {
        interrupts: u64,
        last_addr: Option<Addr>,
        period: u64,
    }

    impl Handler for CountingHandler {
        fn init(&mut self, ctx: &mut EngineCtx) {
            ctx.arm_miss_overflow(self.period);
        }
        fn on_interrupt(&mut self, intr: Interrupt, ctx: &mut EngineCtx) {
            assert_eq!(intr, Interrupt::MissOverflow);
            self.interrupts += 1;
            self.last_addr = ctx.last_miss_addr();
            ctx.arm_miss_overflow(self.period);
        }
    }

    #[test]
    fn overflow_interrupts_are_delivered_every_period() {
        let mut p = TraceProgram::new("t", vec![], line_reads(0x1000_0000, 20));
        let mut h = CountingHandler {
            interrupts: 0,
            last_addr: None,
            period: 5,
        };
        let mut e = Engine::new(cfg());
        let stats = e.run(&mut p, &mut h, RunLimit::Exhausted);
        assert_eq!(h.interrupts, 4);
        assert_eq!(stats.interrupts, 4);
        // The 20th miss was at line 19.
        assert_eq!(h.last_addr, Some(0x1000_0000 + 19 * 64));
    }

    #[test]
    fn interrupt_delivery_cost_is_charged() {
        let mut c = cfg();
        c.costs = CostModel {
            interrupt_delivery: 8_800,
            ..CostModel::free()
        };
        let mut p = TraceProgram::new("t", vec![], line_reads(0x1000_0000, 10));
        let mut h = CountingHandler {
            interrupts: 0,
            last_addr: None,
            period: 5,
        };
        let mut e = Engine::new(c);
        let stats = e.run(&mut p, &mut h, RunLimit::Exhausted);
        assert_eq!(stats.interrupts, 2);
        assert_eq!(stats.instr_cycles, 2 * 8_800);
        // App cost: 10 misses * 11 cycles.
        assert_eq!(stats.cycles, 110 + 2 * 8_800);
    }

    struct TouchingHandler;

    impl Handler for TouchingHandler {
        fn init(&mut self, ctx: &mut EngineCtx) {
            ctx.arm_miss_overflow(1);
        }
        fn on_interrupt(&mut self, _intr: Interrupt, ctx: &mut EngineCtx) {
            // Touch a fixed instrumentation line: first time misses,
            // afterwards hits (unless evicted).
            ctx.touch_read(crate::address_space::INSTR_BASE);
            ctx.arm_miss_overflow(1);
        }
    }

    #[test]
    fn handler_memory_traffic_goes_through_cache() {
        let mut p = TraceProgram::new("t", vec![], line_reads(0x1000_0000, 3));
        let mut e = Engine::new(cfg());
        let stats = e.run(&mut p, &mut TouchingHandler, RunLimit::Exhausted);
        assert_eq!(stats.instr.accesses, 3);
        // 4 KiB cache: no conflict between 3 app lines and the instr line,
        // so only the first instrumentation access misses.
        assert_eq!(stats.instr.misses, 1);
        assert_eq!(stats.total_misses(), 4);
    }

    #[test]
    fn handler_misses_do_not_feed_pmu() {
        struct H {
            seen_global: u64,
        }
        impl Handler for H {
            fn init(&mut self, ctx: &mut EngineCtx) {
                ctx.arm_miss_overflow(3);
            }
            fn on_interrupt(&mut self, _intr: Interrupt, ctx: &mut EngineCtx) {
                // This instrumentation miss must not bump the global counter.
                ctx.touch_read(crate::address_space::INSTR_BASE + 4096);
                self.seen_global = ctx.read_global();
            }
        }
        let mut p = TraceProgram::new("t", vec![], line_reads(0x1000_0000, 3));
        let mut h = H { seen_global: 0 };
        let mut e = Engine::new(cfg());
        e.run(&mut p, &mut h, RunLimit::Exhausted);
        assert_eq!(h.seen_global, 3);
    }

    struct TimerHandler {
        fires: Vec<Cycle>,
        interval: Cycle,
    }

    impl Handler for TimerHandler {
        fn init(&mut self, ctx: &mut EngineCtx) {
            ctx.arm_timer_in(self.interval);
        }
        fn on_interrupt(&mut self, intr: Interrupt, ctx: &mut EngineCtx) {
            assert_eq!(intr, Interrupt::Timer);
            self.fires.push(ctx.now());
            ctx.arm_timer_in(self.interval);
        }
    }

    #[test]
    fn timer_interrupts_fire_repeatedly() {
        let mut p = TraceProgram::new("t", vec![], vec![Event::Compute(10); 100]);
        let mut h = TimerHandler {
            fires: vec![],
            interval: 100,
        };
        let mut e = Engine::new(cfg());
        let stats = e.run(&mut p, &mut h, RunLimit::Exhausted);
        assert_eq!(stats.cycles, 1000);
        assert_eq!(h.fires.len(), 10, "fires at 100,200,...,1000");
    }

    #[test]
    fn timeline_records_per_object_series() {
        let mut c = cfg();
        c.timeline = Some(crate::stats::TimelineConfig { bucket_cycles: 50 });
        let decls = vec![ObjectDecl::global("A", 0x1000_0000, 64 * 100)];
        let mut p = TraceProgram::new("t", decls, line_reads(0x1000_0000, 8));
        let mut e = Engine::new(c);
        let stats = e.run(&mut p, &mut NullHandler, RunLimit::Exhausted);
        let t = stats.timeline.expect("timeline present");
        let series = t.series(0);
        assert_eq!(series.iter().sum::<u64>(), 8);
    }

    #[test]
    fn overlapping_declarations_degrade_with_a_diagnostic() {
        let decls = vec![
            ObjectDecl::global("A", 0x1000_0000, 128),
            ObjectDecl::global("B", 0x1000_0040, 128),
        ];
        let mut p = TraceProgram::new("t", decls, line_reads(0x1000_0040, 1));
        let mut e = Engine::new(cfg());
        // Never panics: the first declaration wins, the loser is skipped
        // and reported.
        let stats = e.run(&mut p, &mut NullHandler, RunLimit::Exhausted);
        assert_eq!(stats.objects.len(), 1);
        assert_eq!(stats.objects[0].name, "A");
        // The contested range attributes to the surviving extent.
        assert_eq!(stats.objects[0].misses, 1);
        assert_eq!(stats.unmapped_misses, 0);
        let diag = e.obs().events().iter().find_map(|ev| match ev {
            cachescope_obs::ObsEvent::CheckDiagnostic { code, message, .. } => {
                Some((code.clone(), message.clone()))
            }
            _ => None,
        });
        let (code, message) = diag.expect("overlap diagnostic emitted");
        assert_eq!(code, "CS-W005");
        assert!(message.contains("overlaps live extent"), "{message}");
        assert_eq!(e.obs().metrics.counter("engine.overlap_rejects"), 1);
    }

    /// Empty and wrapping extents go through the same rule as overlaps:
    /// refused with the code `check` gives the record, the first extent
    /// wins, and ground truth never changes without a diagnostic.
    #[test]
    fn empty_and_wrapping_extents_degrade_with_typed_codes() {
        let decls = vec![
            ObjectDecl::global("a", 0x4000, 4096),
            ObjectDecl::global("z", 0x9000, 0),
            ObjectDecl::global("w", u64::MAX - 0xff, 0x200),
        ];
        let mut events = vec![
            // A zero-size block at a live static's base used to replace
            // the static's extent and strand its misses as unmapped.
            Event::Alloc {
                base: 0x4000,
                size: 0,
                name: None,
            },
            Event::Alloc {
                base: 0xffff_ffff_ffff_f000,
                size: 8192,
                name: Some("wrap".into()),
            },
        ];
        events.extend(line_reads(0x4000, 32));
        let mut p = TraceProgram::new("t", decls, events);
        let mut e = Engine::new(cfg());
        let stats = e.run(&mut p, &mut NullHandler, RunLimit::Exhausted);
        assert_eq!(stats.objects.len(), 1);
        assert_eq!(stats.objects[0].name, "a");
        assert_eq!(stats.objects[0].misses, 32);
        assert_eq!(stats.unmapped_misses, 0);
        let codes: Vec<String> = e
            .obs()
            .events()
            .iter()
            .filter_map(|ev| match ev {
                cachescope_obs::ObsEvent::CheckDiagnostic { code, .. } => Some(code.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(codes, ["CS-W006", "CS-P001", "CS-W006", "CS-P001"]);
        assert_eq!(e.obs().metrics.counter("engine.overlap_rejects"), 0);
    }

    /// Satellite regression: a hostile trace that allocates over a live
    /// block must degrade (CS-W001 diagnostic, alloc dropped) — never
    /// abort the process, because the serve daemon and the fuzzer feed
    /// adversarial traces straight into this path.
    #[test]
    fn hostile_alloc_over_live_block_never_aborts() {
        let heap = 0x1_4100_0000u64;
        let mut events = vec![Event::Alloc {
            base: heap,
            size: 4 * 64,
            name: Some("victim".into()),
        }];
        // The attacker's alloc straddles the victim's extent.
        events.push(Event::Alloc {
            base: heap + 64,
            size: 4 * 64,
            name: Some("attacker".into()),
        });
        events.extend(line_reads(heap, 4));
        let mut p = TraceProgram::new("hostile", vec![], events);
        let mut e = Engine::new(cfg());
        let stats = e.run(&mut p, &mut NullHandler, RunLimit::Exhausted);
        // Only the victim is registered; all four misses are its.
        assert_eq!(stats.objects.len(), 1);
        assert_eq!(stats.objects[0].name, "victim");
        assert_eq!(stats.objects[0].misses, 4);
        let codes: Vec<String> = e
            .obs()
            .events()
            .iter()
            .filter_map(|ev| match ev {
                cachescope_obs::ObsEvent::CheckDiagnostic { code, .. } => Some(code.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(codes, vec!["CS-W001".to_string()]);
        // Exactly one Alloc obs event: the rejected one is not announced,
        // so instrumentation handlers stay consistent with ground truth.
        let allocs = e
            .obs()
            .events()
            .iter()
            .filter(|ev| matches!(ev, cachescope_obs::ObsEvent::Alloc { .. }))
            .count();
        assert_eq!(allocs, 1);
    }

    #[test]
    fn attribution_off_is_bit_identical_except_for_object_tallies() {
        let heap = 0x1_4100_0000u64;
        let decls = vec![ObjectDecl::global("G", 0x1000_0000, 64 * 64)];
        let mut events = line_reads(0x1000_0000, 32);
        events.push(Event::Alloc {
            base: heap,
            size: 64 * 16,
            name: None,
        });
        events.extend(line_reads(heap, 16));
        events.push(Event::Free { base: heap });
        let mut h = CountingHandler {
            interrupts: 0,
            last_addr: None,
            period: 7,
        };
        let mut p = TraceProgram::new("t", decls.clone(), events.clone());
        let on = Engine::new(cfg()).run(&mut p, &mut h, RunLimit::Exhausted);
        let mut p = TraceProgram::new("t", decls, events);
        let mut e = Engine::new(cfg());
        e.set_attribution(false);
        let off = e.run(&mut p, &mut h, RunLimit::Exhausted);
        // Simulated machine: identical.
        assert_eq!(on.app, off.app);
        assert_eq!(on.cycles, off.cycles);
        assert_eq!(on.interrupts, off.interrupts);
        assert_eq!(on.writebacks, off.writebacks);
        // Attribution products: present only with attribution on.
        assert_eq!(on.objects.iter().map(|o| o.misses).sum::<u64>(), 48);
        assert_eq!(off.objects.iter().map(|o| o.misses).sum::<u64>(), 0);
        assert_eq!(off.unmapped_misses, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::program::{ObjectDecl, TraceProgram};
    use crate::rng::SmallRng;
    use cachescope_hwpm::{CostModel, PmuConfig};

    // Seeded randomized replay (formerly property-based; deterministic so
    // results never flake).
    #[test]
    fn every_app_miss_is_attributed_exactly_once() {
        let mut rng = SmallRng::seed_from_u64(0xA77B);
        for case in 0..48 {
            // Random line indices across three declared objects plus a
            // gap region.
            let n = rng.random_range(1usize..400);
            let picks: Vec<u64> = (0..n).map(|_| rng.random_range(0u64..64)).collect();
            let decls = vec![
                ObjectDecl::global("A", 0x1000_0000, 64 * 16),
                ObjectDecl::global("B", 0x1000_0400, 64 * 16),
                ObjectDecl::global("C", 0x1000_0800, 64 * 16),
                // lines 48..64 (0x1000_0C00..) are unmapped gap space
            ];
            let events: Vec<Event> = picks
                .iter()
                .map(|&k| Event::Access(MemRef::read(0x1000_0000 + k * 64, 8)))
                .collect();
            let mut p = TraceProgram::new("t", decls, events);
            let mut e = Engine::new(SimConfig {
                cache: CacheConfig {
                    size_bytes: 512,
                    line_bytes: 64,
                    assoc: 2,
                    hit_cycles: 1,
                    miss_penalty: 7,
                    writeback_penalty: 0,
                    policy: Default::default(),
                },
                l1: None,
                pmu: PmuConfig { region_counters: 1 },
                costs: CostModel::free(),
                faults: Default::default(),
                timeline: None,
            });
            let stats = e.run(&mut p, &mut NullHandler, RunLimit::Exhausted);

            // Conservation: per-object misses + unmapped == app misses.
            let attributed: u64 = stats.objects.iter().map(|o| o.misses).sum();
            assert_eq!(
                attributed + stats.unmapped_misses,
                stats.app.misses,
                "case {case}"
            );
            assert_eq!(stats.app.accesses, picks.len() as u64);
            assert!(stats.app.misses <= stats.app.accesses);
            // Cycle accounting: hits cost 1, misses cost 8.
            let expect = stats.app.accesses + 7 * stats.app.misses;
            assert_eq!(stats.cycles, expect, "case {case}");
        }
    }
}

#[cfg(test)]
mod writeback_engine_tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::program::TraceProgram;
    use cachescope_hwpm::{CostModel, PmuConfig};

    #[test]
    fn writeback_penalty_is_charged_and_counted() {
        let cfg = SimConfig {
            cache: CacheConfig {
                size_bytes: 256,
                line_bytes: 64,
                assoc: 1,
                hit_cycles: 1,
                miss_penalty: 10,
                writeback_penalty: 100,
                policy: Default::default(),
            },
            l1: None,
            pmu: PmuConfig { region_counters: 1 },
            costs: CostModel::free(),
            faults: Default::default(),
            timeline: None,
        };
        // Direct-mapped, 4 sets: 0 and 256 collide. Write 0, then read
        // 256 (evicts dirty 0 -> write-back), then read 0 (evicts clean
        // 256 -> no write-back).
        let events = vec![
            Event::Access(MemRef::write(0, 8)),
            Event::Access(MemRef::read(256, 8)),
            Event::Access(MemRef::read(0, 8)),
        ];
        let mut p = TraceProgram::new("wb", vec![], events);
        let mut e = Engine::new(cfg);
        let stats = e.run(&mut p, &mut NullHandler, RunLimit::Exhausted);
        assert_eq!(stats.writebacks, 1);
        // 3 misses x 11 cycles + 1 write-back x 100.
        assert_eq!(stats.cycles, 33 + 100);
    }
}

#[cfg(test)]
mod hierarchy_tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::program::{ObjectDecl, TraceProgram};
    use cachescope_hwpm::{CostModel, PmuConfig};

    fn two_level_cfg() -> SimConfig {
        SimConfig {
            cache: CacheConfig {
                size_bytes: 4096,
                line_bytes: 64,
                assoc: 2,
                hit_cycles: 10,
                miss_penalty: 100,
                writeback_penalty: 0,
                policy: Default::default(),
            },
            // Tiny L1: 2 sets x 2 ways = 256 B.
            l1: Some(CacheConfig {
                size_bytes: 256,
                line_bytes: 64,
                assoc: 2,
                hit_cycles: 1,
                miss_penalty: 0,
                writeback_penalty: 0,
                policy: Default::default(),
            }),
            pmu: PmuConfig { region_counters: 1 },
            costs: CostModel::free(),
            faults: Default::default(),
            timeline: None,
        }
    }

    fn reads(addrs: &[u64]) -> Vec<Event> {
        addrs
            .iter()
            .map(|&a| Event::Access(MemRef::read(a, 8)))
            .collect()
    }

    #[test]
    fn l1_hits_never_reach_the_monitored_cache() {
        // Same line four times: first access misses both levels, the
        // rest hit the L1 and are invisible to the monitored level.
        let decls = vec![ObjectDecl::global("A", 0x1000_0000, 4096)];
        let mut p = TraceProgram::new(
            "t",
            decls,
            reads(&[0x1000_0000, 0x1000_0008, 0x1000_0010, 0x1000_0018]),
        );
        let mut e = Engine::new(two_level_cfg());
        let stats = e.run(&mut p, &mut NullHandler, RunLimit::Exhausted);
        let l1 = stats.l1.expect("l1 stats present");
        assert_eq!(l1.accesses, 4);
        assert_eq!(l1.misses, 1);
        assert_eq!(stats.app.accesses, 4, "app counts all references");
        assert_eq!(stats.app.misses, 1, "only the cold miss is attributed");
        assert_eq!(stats.objects[0].misses, 1);
        // Cycles: 4 x 1 (L1) + 1 x (10 + 100) at the monitored level.
        assert_eq!(stats.cycles, 4 + 110);
    }

    #[test]
    fn l1_capacity_misses_flow_through() {
        // 8 distinct lines overflow the 4-line L1 but fit in the 4 KiB
        // monitored cache: second pass misses L1 but hits the big cache.
        let lines: Vec<u64> = (0..8).map(|k| 0x1000_0000 + k * 64).collect();
        let mut seq = lines.clone();
        seq.extend(&lines);
        let decls = vec![ObjectDecl::global("A", 0x1000_0000, 4096)];
        let mut p = TraceProgram::new("t", decls, reads(&seq));
        let mut e = Engine::new(two_level_cfg());
        let stats = e.run(&mut p, &mut NullHandler, RunLimit::Exhausted);
        let l1 = stats.l1.unwrap();
        assert_eq!(l1.misses, 16, "L1 thrashes on both passes");
        assert_eq!(stats.app.misses, 8, "monitored cache holds the set");
    }

    #[test]
    fn pmu_sees_only_monitored_level_misses() {
        struct H {
            observed: u64,
        }
        impl Handler for H {
            fn init(&mut self, _ctx: &mut EngineCtx) {}
            fn on_interrupt(&mut self, _i: Interrupt, _ctx: &mut EngineCtx) {}
            fn on_finish(&mut self, ctx: &mut EngineCtx) {
                self.observed = ctx.read_global();
            }
        }
        let decls = vec![ObjectDecl::global("A", 0x1000_0000, 4096)];
        let mut p = TraceProgram::new("t", decls, reads(&[0x1000_0000, 0x1000_0000, 0x1000_0000]));
        let mut h = H { observed: 99 };
        let mut e = Engine::new(two_level_cfg());
        e.run(&mut p, &mut h, RunLimit::Exhausted);
        assert_eq!(h.observed, 1, "L1 hits do not reach the miss counter");
    }

    #[test]
    fn no_l1_stats_without_l1() {
        let mut cfg = two_level_cfg();
        cfg.l1 = None;
        let mut p = TraceProgram::new("t", vec![], reads(&[0x1000_0000]));
        let mut e = Engine::new(cfg);
        let stats = e.run(&mut p, &mut NullHandler, RunLimit::Exhausted);
        assert!(stats.l1.is_none());
    }
}

#[cfg(test)]
mod chunked_equivalence_tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::program::{ObjectDecl, TraceProgram};
    use crate::rng::SmallRng;
    use cachescope_hwpm::{CostModel, FaultConfig, PmuConfig};

    /// A handler that exercises every interrupt-latching mechanism: a
    /// periodic miss-overflow counter, a periodic timer, and handler
    /// memory traffic through the simulated cache. After `quit_after`
    /// interrupts it stops re-arming and disarms the timer, as the search
    /// does when it ends; without a fault model the PMU then goes quiet.
    struct BusyHandler {
        interrupts: u64,
        overflow_period: u64,
        timer_interval: Cycle,
        quit_after: u64,
    }

    impl Handler for BusyHandler {
        fn init(&mut self, ctx: &mut EngineCtx) {
            ctx.arm_miss_overflow(self.overflow_period);
            ctx.arm_timer_in(self.timer_interval);
        }
        fn on_interrupt(&mut self, intr: Interrupt, ctx: &mut EngineCtx) {
            self.interrupts += 1;
            ctx.touch_read(crate::address_space::INSTR_BASE + (self.interrupts % 64) * 64);
            if self.interrupts >= self.quit_after {
                ctx.disarm_timer();
                return;
            }
            match intr {
                Interrupt::MissOverflow => ctx.arm_miss_overflow(self.overflow_period),
                Interrupt::Timer => ctx.arm_timer_in(self.timer_interval),
            }
        }
    }

    /// Loop-workload streams: most accesses follow a compute (fused when
    /// chunked), and lone computes and phase markers stay marks.
    fn loop_events(rng: &mut SmallRng, n: usize) -> Vec<Event> {
        let mut out = Vec::with_capacity(2 * n);
        for _ in 0..n {
            match rng.random_range(0u64..16) {
                0 => out.push(Event::Phase(rng.random_range(0u64..8) as u32)),
                1 => out.push(Event::Compute(rng.random_range(1u64..40))),
                _ => {
                    if rng.random_range(0u64..4) > 0 {
                        out.push(Event::Compute(rng.random_range(1u64..40)));
                    }
                    let addr = 0x1000_0000 + rng.random_range(0u64..256) * 64;
                    out.push(Event::Access(MemRef::read(addr, 8)));
                }
            }
        }
        out
    }

    fn random_events(rng: &mut SmallRng, n: usize) -> Vec<Event> {
        let heap = 0x1_4100_0000u64;
        let mut live: Vec<u64> = Vec::new();
        let mut next = heap;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            match rng.random_range(0u64..20) {
                0 => out.push(Event::Compute(rng.random_range(1u64..200))),
                1 => {
                    out.push(Event::Alloc {
                        base: next,
                        size: 64 * 4,
                        name: (rng.random_range(0u64..2) == 0).then(|| "node".to_string()),
                    });
                    live.push(next);
                    next += 64 * 8;
                }
                2 if !live.is_empty() => {
                    let k = rng.random_range(0..live.len());
                    out.push(Event::Free {
                        base: live.swap_remove(k),
                    });
                }
                3 => out.push(Event::Phase(rng.random_range(0u64..8) as u32)),
                _ => {
                    // Mostly accesses: globals, live heap, or gap space.
                    let addr = match rng.random_range(0u64..4) {
                        0 if !live.is_empty() => {
                            let k = rng.random_range(0..live.len());
                            live[k] + rng.random_range(0u64..4) * 64
                        }
                        1 => 0x3000_0000 + rng.random_range(0u64..64) * 64, // unmapped
                        _ => 0x1000_0000 + rng.random_range(0u64..128) * 64,
                    };
                    let r = if rng.random_range(0u64..4) == 0 {
                        MemRef::write(addr, 8)
                    } else {
                        MemRef::read(addr, 8)
                    };
                    out.push(Event::Access(r));
                }
            }
        }
        out
    }

    fn assert_stats_equal(a: &RunStats, b: &RunStats, case: usize) {
        assert_eq!(a.app, b.app, "case {case}: app counts");
        assert_eq!(a.l1, b.l1, "case {case}: l1 counts");
        assert_eq!(a.instr, b.instr, "case {case}: instr counts");
        assert_eq!(a.cycles, b.cycles, "case {case}: cycles");
        assert_eq!(a.instr_cycles, b.instr_cycles, "case {case}: instr cycles");
        assert_eq!(a.interrupts, b.interrupts, "case {case}: interrupts");
        assert_eq!(a.writebacks, b.writebacks, "case {case}: writebacks");
        assert_eq!(
            a.unmapped_misses, b.unmapped_misses,
            "case {case}: unmapped"
        );
        assert_eq!(
            a.objects.len(),
            b.objects.len(),
            "case {case}: object count"
        );
        for (x, y) in a.objects.iter().zip(&b.objects) {
            assert_eq!(x.name, y.name, "case {case}");
            assert_eq!(x.base, y.base, "case {case}");
            assert_eq!(x.size, y.size, "case {case}");
            assert_eq!(x.kind, y.kind, "case {case}");
            assert_eq!(x.misses, y.misses, "case {case}: {} misses", x.name);
        }
    }

    /// The batched loop must reproduce the scalar reference loop exactly —
    /// same stats, same interrupt count, same per-object attribution —
    /// across randomized programs, every run limit, an active handler,
    /// and an aggressive fault model whose spurious overflows can latch
    /// at any miss, so every access must step.
    #[test]
    fn chunked_run_matches_scalar_run_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(0xC0_FFEE);
        for case in 0..24 {
            let n = rng.random_range(500usize..6_000);
            let events = random_events(&mut rng, n);
            let decls = vec![
                ObjectDecl::global("A", 0x1000_0000, 64 * 64),
                ObjectDecl::global("B", 0x1000_1000, 64 * 64),
            ];
            let cfg = SimConfig {
                cache: CacheConfig {
                    size_bytes: 4096,
                    line_bytes: 64,
                    assoc: 2,
                    hit_cycles: 1,
                    miss_penalty: 10,
                    writeback_penalty: if case % 2 == 0 { 30 } else { 0 },
                    policy: Default::default(),
                },
                l1: (case % 3 == 0).then(|| CacheConfig {
                    size_bytes: 256,
                    line_bytes: 64,
                    assoc: 2,
                    hit_cycles: 1,
                    miss_penalty: 0,
                    writeback_penalty: 0,
                    policy: Default::default(),
                }),
                pmu: PmuConfig { region_counters: 2 },
                costs: CostModel {
                    interrupt_delivery: 500,
                    ..CostModel::free()
                },
                faults: FaultConfig {
                    skid_depth: 4,
                    skid_rate: 0.2,
                    drop_rate: 0.1,
                    spurious_rate: 0.05,
                    delivery_delay_cycles: 37,
                    seed: case as u64 + 1,
                    ..Default::default()
                },
                timeline: None,
            };
            let limit = match case % 5 {
                0 => RunLimit::Exhausted,
                1 => RunLimit::AppMisses(rng.random_range(50u64..2_000)),
                2 => RunLimit::AppAccesses(rng.random_range(50u64..4_000)),
                3 => RunLimit::Cycles(rng.random_range(1_000u64..40_000)),
                _ => RunLimit::AppCycles(rng.random_range(1_000u64..30_000)),
            };

            let run = |scalar: bool| {
                let mut p = TraceProgram::new("rand", decls.clone(), events.clone());
                let mut h = BusyHandler {
                    interrupts: 0,
                    overflow_period: 13,
                    timer_interval: 997,
                    quit_after: u64::MAX,
                };
                let mut e = Engine::new(cfg.clone());
                let stats = if scalar {
                    e.run_scalar(&mut p, &mut h, limit)
                } else {
                    e.run(&mut p, &mut h, limit)
                };
                (stats, h.interrupts, e.steps)
            };
            let (chunked, chunked_intrs, stepped) = run(false);
            let (scalar, scalar_intrs, _) = run(true);
            assert_stats_equal(&chunked, &scalar, case);
            assert_eq!(
                chunked_intrs, scalar_intrs,
                "case {case}: handler interrupts"
            );
            // A spurious overflow can latch at any miss, so no access may
            // go in bulk.
            assert_eq!(stepped, chunked.app.accesses, "case {case}: bulk step");
        }
    }

    /// Alloc-churn-dominant programs: slot-reusing alloc/free bursts
    /// (every mutation bumps the epoch index and lands resolves on its
    /// tree path), ABAB interleaving across live blocks (exercising the
    /// direct-mapped memo instead of the recent entry), and periodic
    /// hostile overlapping allocs (exercising the typed rejection path).
    fn churn_events(rng: &mut SmallRng, n: usize) -> Vec<Event> {
        let heap = 0x1_4100_0000u64;
        const SLOTS: u64 = 48;
        const SLOT_BYTES: u64 = 64 * 8;
        let slot_base = |s: u64| heap + s * SLOT_BYTES;
        let mut live = [false; SLOTS as usize];
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            match rng.random_range(0u64..10) {
                // Heavy churn: ~30% of events are allocator traffic.
                0..=2 => {
                    let s = rng.random_range(0..SLOTS);
                    if live[s as usize] {
                        out.push(Event::Free { base: slot_base(s) });
                        live[s as usize] = false;
                    } else {
                        out.push(Event::Alloc {
                            base: slot_base(s),
                            size: 64 * rng.random_range(1u64..5),
                            name: Some(format!("slot{s}")),
                        });
                        live[s as usize] = true;
                    }
                }
                3 => {
                    let s = rng.random_range(0..SLOTS - 1);
                    if live[s as usize + 1] {
                        // Hostile: straddles into the live neighbor, so
                        // the engine must reject it and keep going,
                        // identically in both loops.
                        out.push(Event::Alloc {
                            base: slot_base(s) + SLOT_BYTES / 2,
                            size: SLOT_BYTES,
                            name: Some("hostile".to_string()),
                        });
                    } else {
                        out.push(Event::Access(MemRef::read(slot_base(s), 8)));
                    }
                }
                4 => out.push(Event::Compute(rng.random_range(1u64..50))),
                _ => {
                    // ABAB interleave: alternate between two fixed hot
                    // slots (plus some scatter), thrashing a one-entry
                    // memo but not the direct-mapped one.
                    let s = match i % 4 {
                        0 => 7,
                        1 => 29,
                        _ => rng.random_range(0..SLOTS),
                    };
                    let addr = slot_base(s) + rng.random_range(0u64..4) * 64;
                    out.push(Event::Access(MemRef::read(addr, 8)));
                }
            }
        }
        out
    }

    /// The churn-heavy equivalence suite: chunked and scalar loops must
    /// agree bit for bit while the heap index is mutating constantly —
    /// the regime where the epoch index answers from its tree side and
    /// every memo generation dies young.
    #[test]
    fn churn_heavy_chunked_run_matches_scalar_run() {
        let mut rng = SmallRng::seed_from_u64(0xC4_0211);
        for case in 0..12 {
            let n = rng.random_range(2_000usize..8_000);
            let events = churn_events(&mut rng, n);
            let decls = vec![ObjectDecl::global("G", 0x1000_0000, 64 * 64)];
            let cfg = SimConfig {
                cache: CacheConfig {
                    size_bytes: 4096,
                    line_bytes: 64,
                    assoc: 2,
                    hit_cycles: 1,
                    miss_penalty: 10,
                    writeback_penalty: 0,
                    policy: Default::default(),
                },
                l1: None,
                pmu: PmuConfig { region_counters: 2 },
                costs: CostModel {
                    interrupt_delivery: 200,
                    ..CostModel::free()
                },
                faults: Default::default(),
                timeline: None,
            };
            let limit = match case % 3 {
                0 => RunLimit::Exhausted,
                1 => RunLimit::AppMisses(rng.random_range(100u64..3_000)),
                _ => RunLimit::AppAccesses(rng.random_range(100u64..6_000)),
            };
            let run = |scalar: bool| {
                let mut p = TraceProgram::new("churn", decls.clone(), events.clone());
                let mut h = BusyHandler {
                    interrupts: 0,
                    overflow_period: 11,
                    timer_interval: 1_201,
                    quit_after: u64::MAX,
                };
                let mut e = Engine::new(cfg.clone());
                if scalar {
                    e.run_scalar(&mut p, &mut h, limit)
                } else {
                    e.run(&mut p, &mut h, limit)
                }
            };
            let chunked = run(false);
            let scalar = run(true);
            assert_stats_equal(&chunked, &scalar, case);
            // The suite only means something if churn actually dominated:
            // demand a dense allocator-event mix.
            if matches!(limit, RunLimit::Exhausted) {
                let churn_evs = events
                    .iter()
                    .filter(|e| matches!(e, Event::Alloc { .. } | Event::Free { .. }))
                    .count();
                assert!(churn_evs * 4 > n, "case {case}: not churn-heavy");
            }
        }
    }

    /// The armed → quiet switch, under every run limit: interrupts arrive
    /// until the handler stops re-arming, and from then on the access runs
    /// go in bulk — where a search spends most of its references once it
    /// ends. Fault-free; `armed_bulk_step_matches_scalar_run` adds faults.
    #[test]
    fn armed_to_quiet_switch_matches_scalar_run() {
        let mut rng = SmallRng::seed_from_u64(0x0A12_0E0D);
        for case in 0..40 {
            let n = rng.random_range(2_000usize..8_000);
            let events = loop_events(&mut rng, n);
            let decls = vec![
                ObjectDecl::global("A", 0x1000_0000, 64 * 128),
                ObjectDecl::global("B", 0x1000_2000, 64 * 128),
            ];
            let cfg = SimConfig {
                cache: CacheConfig {
                    size_bytes: 4096,
                    line_bytes: 64,
                    assoc: 2,
                    hit_cycles: 1,
                    miss_penalty: 10,
                    writeback_penalty: 0,
                    policy: Default::default(),
                },
                l1: None,
                pmu: PmuConfig { region_counters: 2 },
                costs: CostModel {
                    interrupt_delivery: 300,
                    ..CostModel::free()
                },
                faults: Default::default(),
                timeline: None,
            };
            let limit = match case % 5 {
                0 => RunLimit::Exhausted,
                1 => RunLimit::AppMisses(rng.random_range(200u64..4_000)),
                2 => RunLimit::AppAccesses(rng.random_range(500u64..6_000)),
                3 => RunLimit::Cycles(rng.random_range(20_000u64..200_000)),
                _ => RunLimit::AppCycles(rng.random_range(20_000u64..150_000)),
            };
            let quit_after = rng.random_range(1u64..30);
            let overflow_period = rng.random_range(5u64..40);
            let timer_interval = rng.random_range(500u64..3_000);
            let run = |scalar: bool| {
                let mut p = TraceProgram::new("loop", decls.clone(), events.clone());
                let mut h = BusyHandler {
                    interrupts: 0,
                    overflow_period,
                    timer_interval,
                    quit_after,
                };
                let mut e = Engine::new(cfg.clone());
                let stats = if scalar {
                    e.run_scalar(&mut p, &mut h, limit)
                } else {
                    e.run(&mut p, &mut h, limit)
                };
                (stats, h.interrupts)
            };
            let (chunked, chunked_intrs) = run(false);
            let (scalar, scalar_intrs) = run(true);
            assert_stats_equal(&chunked, &scalar, case);
            assert_eq!(
                chunked_intrs, scalar_intrs,
                "case {case}: handler interrupts"
            );
            // The handler quit, so the rest of the run was quiet.
            assert!(
                chunked_intrs >= quit_after,
                "case {case}: handler never quit"
            );
        }
    }

    /// [`BusyHandler`] plus a global-counter and last-miss read per
    /// interrupt, folded into `seen`, so read jitter, wrap and skid show
    /// in what the handler observes.
    struct ReadingHandler {
        busy: BusyHandler,
        seen: u64,
    }

    impl Handler for ReadingHandler {
        fn init(&mut self, ctx: &mut EngineCtx) {
            self.busy.init(ctx);
        }
        fn on_interrupt(&mut self, intr: Interrupt, ctx: &mut EngineCtx) {
            let global = ctx.read_and_clear_global();
            let last = ctx.last_miss_addr().unwrap_or(0);
            self.seen = self.seen.wrapping_mul(31).wrapping_add(global ^ last);
            self.busy.on_interrupt(intr, ctx);
        }
    }

    /// Bulk steps under an armed PMU: an overflow countdown and a timer
    /// stay armed (or the handler quits), under every run limit, with and
    /// without an L1, and under every fault class that draws only at a
    /// miss, a threshold, a delivery or a read (spurious rate 0). The
    /// fault draws, the handler's observations and every statistic must
    /// match the scalar loop, and since every countdown starts above 1,
    /// some accesses must have gone in bulk.
    #[test]
    fn armed_bulk_step_matches_scalar_run() {
        let mut rng = SmallRng::seed_from_u64(0xB0_1C57);
        for case in 0..40 {
            let n = rng.random_range(2_000usize..8_000);
            let events = if (case / 5) % 2 == 0 {
                loop_events(&mut rng, n)
            } else {
                random_events(&mut rng, n)
            };
            let decls = vec![
                ObjectDecl::global("A", 0x1000_0000, 64 * 128),
                ObjectDecl::global("B", 0x1000_2000, 64 * 128),
            ];
            let cfg = SimConfig {
                cache: CacheConfig {
                    size_bytes: 4096,
                    line_bytes: 64,
                    assoc: 2,
                    hit_cycles: 1,
                    miss_penalty: 10,
                    writeback_penalty: if case % 3 == 0 { 30 } else { 0 },
                    policy: Default::default(),
                },
                l1: ((case / 10) % 2 == 1).then(|| CacheConfig {
                    size_bytes: 256,
                    line_bytes: 64,
                    assoc: 2,
                    hit_cycles: 1,
                    miss_penalty: 0,
                    writeback_penalty: 0,
                    policy: Default::default(),
                }),
                pmu: PmuConfig { region_counters: 2 },
                costs: CostModel {
                    interrupt_delivery: 300,
                    counter_read: 7,
                    ..CostModel::free()
                },
                faults: FaultConfig {
                    skid_depth: 4,
                    skid_rate: 0.3,
                    drop_rate: 0.2,
                    spurious_rate: 0.0,
                    wrap_bits: 3,
                    delivery_delay_cycles: 41,
                    read_jitter: 0.2,
                    seed: case as u64 + 7,
                },
                timeline: None,
            };
            let limit = match case % 5 {
                0 => RunLimit::Exhausted,
                1 => RunLimit::AppMisses(rng.random_range(200u64..4_000)),
                2 => RunLimit::AppAccesses(rng.random_range(500u64..6_000)),
                3 => RunLimit::Cycles(rng.random_range(20_000u64..200_000)),
                _ => RunLimit::AppCycles(rng.random_range(20_000u64..150_000)),
            };
            let overflow_period = rng.random_range(2u64..41);
            let timer_interval = rng.random_range(500u64..3_000);
            let quit_after = match rng.random_range(0u64..2) {
                0 => u64::MAX,
                _ => rng.random_range(1u64..30),
            };
            let run = |scalar: bool| {
                let mut p = TraceProgram::new("armed", decls.clone(), events.clone());
                let mut h = ReadingHandler {
                    busy: BusyHandler {
                        interrupts: 0,
                        overflow_period,
                        timer_interval,
                        quit_after,
                    },
                    seen: 0,
                };
                let mut e = Engine::new(cfg.clone());
                let stats = if scalar {
                    e.run_scalar(&mut p, &mut h, limit)
                } else {
                    e.run(&mut p, &mut h, limit)
                };
                let tally = e.pmu.fault_tally();
                (stats, h.busy.interrupts, h.seen, tally, e.steps)
            };
            let (chunked, intrs, seen, tally, stepped) = run(false);
            let (scalar, scalar_intrs, scalar_seen, scalar_tally, _) = run(true);
            assert_stats_equal(&chunked, &scalar, case);
            assert_eq!(intrs, scalar_intrs, "case {case}: handler interrupts");
            assert_eq!(seen, scalar_seen, "case {case}: handler observations");
            assert_eq!(tally, scalar_tally, "case {case}: fault draws");
            assert!(
                tally.is_some_and(|t| t.skidded_samples > 0),
                "case {case}: no fault drawn"
            );
            assert!(
                stepped < chunked.app.accesses,
                "case {case}: {stepped} of {} accesses stepped",
                chunked.app.accesses
            );
        }
    }

    /// A fault-free, handler-free run takes the bulk path for nearly every
    /// access; it too must match the scalar loop.
    #[test]
    fn bulk_fast_path_matches_scalar_run() {
        let mut rng = SmallRng::seed_from_u64(0xFA57);
        let events = random_events(&mut rng, 20_000);
        let decls = vec![ObjectDecl::global("A", 0x1000_0000, 64 * 128)];
        let cfg = SimConfig {
            cache: CacheConfig {
                size_bytes: 4096,
                line_bytes: 64,
                assoc: 2,
                hit_cycles: 1,
                miss_penalty: 50,
                writeback_penalty: 0,
                policy: Default::default(),
            },
            l1: None,
            pmu: PmuConfig { region_counters: 2 },
            costs: CostModel::free(),
            faults: Default::default(),
            timeline: None,
        };
        for limit in [
            RunLimit::Exhausted,
            RunLimit::AppMisses(3_000),
            RunLimit::Cycles(100_000),
        ] {
            let mut p1 = TraceProgram::new("rand", decls.clone(), events.clone());
            let mut p2 = TraceProgram::new("rand", decls.clone(), events.clone());
            let a = Engine::new(cfg.clone()).run(&mut p1, &mut NullHandler, limit);
            let b = Engine::new(cfg.clone()).run_scalar(&mut p2, &mut NullHandler, limit);
            assert_stats_equal(&a, &b, 0);
        }
    }
}

#[cfg(test)]
mod ground_truth_stress_tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::rng::SmallRng;

    const PAGE: u64 = 4096;

    /// The page memo's oracle: `GroundTruth`'s resolve against a
    /// `BTreeMap` of live extents, over seeded interleavings of alloc,
    /// free and resolve. Extents run from 1 byte to many pages,
    /// page-aligned or straddling pages, adjacent or with gaps; some
    /// inserts are refused (overlapping, empty, wrapping); some extents
    /// span at least a table's worth of pages; and some sit in the top
    /// page of the address space. Resolves favour the pages the memo
    /// has cached, so a stale slot would be read. The chunked-vs-scalar
    /// suites cannot catch a memo fault, since both loops share
    /// `GroundTruth`.
    #[test]
    fn page_memo_resolve_matches_btreemap_oracle() {
        let small = 0x7_0000_0000u64; // 64 pages of small extents
        let huge = 0x9_0000_0000u64; // extents of 4096+ pages
        let top = u64::MAX - 8 * PAGE + 1; // the last eight pages
        let table = crate::epoch::PAGE_SLOTS as u64;
        for seed in 0..12u64 {
            let mut rng = SmallRng::seed_from_u64(0x9A6E_0000 ^ seed);
            let mut truth = GroundTruth::default();
            let mut oracle: BTreeMap<Addr, (Addr, u32)> = BTreeMap::new();
            let mut tried: Vec<Addr> = Vec::new();
            let (mut refused, mut huge_live, mut cached) = (0u32, 0u32, 0u32);
            for step in 0..8_000u32 {
                match rng.random_range(0u64..20) {
                    0..=5 => {
                        let (base, size) = match rng.random_range(0u64..16) {
                            // 1 byte to a page, anywhere in the small area.
                            0..=4 => (
                                small + rng.random_range(0..64 * PAGE),
                                rng.random_range(1u64..=PAGE),
                            ),
                            // Page-aligned, one to four pages.
                            5..=8 => (
                                small + rng.random_range(0u64..64) * PAGE,
                                rng.random_range(1u64..=4) * PAGE,
                            ),
                            // Straddling a page boundary.
                            9 | 10 => (
                                small + rng.random_range(1u64..64) * PAGE
                                    - rng.random_range(1u64..256),
                                rng.random_range(2u64..3 * PAGE),
                            ),
                            // Adjacent to a live extent's end.
                            11 | 12 => {
                                match oracle.iter().nth(rng.random_range(0..oracle.len().max(1))) {
                                    Some((_, &(end, _))) => (end, rng.random_range(1u64..2 * PAGE)),
                                    None => (small, PAGE),
                                }
                            }
                            // At least a table's worth of pages.
                            13 => (
                                huge + rng.random_range(0u64..64) * PAGE
                                    + rng.random_range(0u64..PAGE),
                                (table + rng.random_range(0u64..64)) * PAGE
                                    + rng.random_range(0u64..PAGE),
                            ),
                            // In the top pages, some wrapping.
                            14 => (
                                top + rng.random_range(0..8 * PAGE - 1),
                                rng.random_range(1u64..3 * PAGE),
                            ),
                            // Empty.
                            _ => (small + rng.random_range(0..64 * PAGE), 0),
                        };
                        let (b, e) = crate::epoch::extent_of(base, size);
                        let clean = b < e
                            && oracle
                                .range(..e)
                                .next_back()
                                .is_none_or(|(_, &(oe, _))| oe <= b);
                        let want = clean.then_some(truth.objects.len() as u32);
                        let got = truth.insert(format!("o{step}"), base, size, ObjectKind::Heap);
                        assert_eq!(got.ok(), want, "insert {b:#x}..{e:#x} at step {step}");
                        if let Some(id) = want {
                            oracle.insert(b, (e, id));
                            huge_live += u32::from(e - b >= table * PAGE);
                        } else {
                            refused += 1;
                        }
                        tried.push(base);
                    }
                    6..=8 => {
                        // Free a base tried before (live or not) or a
                        // random address.
                        let base = match tried.len() {
                            0 => small,
                            n if rng.random_range(0u64..4) > 0 => tried[rng.random_range(0..n)],
                            _ => small + rng.random_range(0..64 * PAGE),
                        };
                        let want = oracle.remove(&base).map(|(_, id)| id);
                        assert_eq!(truth.remove(base), want, "free {base:#x} at step {step}");
                    }
                    _ => {
                        let addr = match rng.random_range(0u64..8) {
                            // Near a live extent's edges.
                            0 | 1 => {
                                match oracle.iter().nth(rng.random_range(0..oracle.len().max(1))) {
                                    Some((&b, &(e, _))) => [b.wrapping_sub(1), b, e - 1, e]
                                        [rng.random_range(0..4usize)],
                                    None => small,
                                }
                            }
                            // A few fixed pages in the huge area, so they
                            // stay cached across huge inserts and frees.
                            2 => huge + rng.random_range(0u64..8) * 997 * PAGE + 8,
                            3 => {
                                top + rng.random_range(0..8 * PAGE - 1) + rng.random_range(0u64..2)
                            }
                            _ => small + rng.random_range(0..64 * PAGE),
                        };
                        let want = oracle
                            .range(..=addr)
                            .next_back()
                            .and_then(|(_, &(e, id))| (addr < e).then_some(id));
                        cached += u32::from(truth.pages.lookup(addr).is_some());
                        assert_eq!(
                            truth.resolve(addr),
                            want,
                            "resolve {addr:#x} at step {step}"
                        );
                    }
                }
                assert_eq!(truth.index.len(), oracle.len());
            }
            // Every branch was reached.
            assert!(
                refused > 0 && huge_live > 0 && cached > 500,
                "seed {seed}: {refused} {huge_live} {cached}"
            );
        }
    }

    /// 100k live heap blocks under churn: the BTreeMap extent index keeps
    /// insert/remove/resolve fast (the sorted-Vec predecessor was O(n)
    /// per update and this test would not finish in reasonable time),
    /// and attribution stays exact throughout.
    #[test]
    fn hundred_thousand_live_blocks_under_churn() {
        const BLOCKS: u64 = 100_000;
        const SIZE: u64 = 256;
        let mut truth = GroundTruth::default();
        let base_of = |k: u64| 0x2_0000_0000u64 + k * 512;

        let mut ids = Vec::with_capacity(BLOCKS as usize);
        for k in 0..BLOCKS {
            let id = truth
                .insert(format!("blk{k}"), base_of(k), SIZE, ObjectKind::Heap)
                .unwrap();
            ids.push(id);
        }

        // Every block resolves at both extent edges; gap space does not.
        for k in (0..BLOCKS).step_by(997) {
            assert_eq!(truth.resolve(base_of(k)), Some(ids[k as usize]));
            assert_eq!(truth.resolve(base_of(k) + SIZE - 1), Some(ids[k as usize]));
            assert_eq!(truth.resolve(base_of(k) + SIZE), None, "gap after blk{k}");
        }

        // Churn: free every other block, reallocate into the holes, and
        // verify the fresh generation wins the lookup.
        for k in (0..BLOCKS).step_by(2) {
            assert_eq!(truth.remove(base_of(k)), Some(ids[k as usize]));
        }
        for k in (0..BLOCKS).step_by(2) {
            let id = truth
                .insert(format!("re{k}"), base_of(k), SIZE, ObjectKind::Heap)
                .unwrap();
            assert!(truth.resolve(base_of(k) + 8) == Some(id));
        }
        // Odd blocks are untouched by the churn.
        for k in (1..BLOCKS).step_by(998) {
            assert_eq!(truth.resolve(base_of(k) + 8), Some(ids[k as usize]));
        }
        // Freed-then-reused extents never double-resolve: the registry
        // holds both generations, the index only the live one.
        assert_eq!(truth.objects.len() as u64, BLOCKS + BLOCKS / 2);
        assert_eq!(truth.index.len() as u64, BLOCKS);
    }

    /// Adjacent insertions must still reject overlap at index scale, and
    /// the rejection must leave the registry and the live index
    /// untouched.
    #[test]
    fn overlap_rejected_among_many_blocks() {
        let mut truth = GroundTruth::default();
        for k in 0..10_000u64 {
            truth
                .insert(
                    format!("blk{k}"),
                    0x1000_0000 + k * 256,
                    256,
                    ObjectKind::Heap,
                )
                .unwrap();
        }
        // Straddles blk5000/blk5001.
        let bad_base = 0x1000_0000 + 5_000 * 256 + 128;
        let err = truth
            .insert("bad".into(), bad_base, 256, ObjectKind::Heap)
            .unwrap_err();
        assert!(matches!(
            err,
            ExtentError::Overlap { base, other_base, .. }
                if base == bad_base && other_base == 0x1000_0000 + 5_000 * 256
        ));
        assert_eq!(truth.objects.len(), 10_000, "loser is not registered");
        assert_eq!(truth.index.len(), 10_000);
        // The contested address still resolves to the original block.
        assert_eq!(truth.resolve(bad_base), Some(5_000));
    }
}
