//! Technique selection and shared instrumentation helpers.

use cachescope_objmap::AccessTrace;
use cachescope_sim::{EngineCtx, MemRef};

use crate::sampler::SamplerConfig;
use crate::search::SearchConfig;

/// Which measurement technique an [`crate::Experiment`] runs.
#[derive(Debug, Clone)]
pub enum TechniqueConfig {
    /// No instrumentation: the baseline run.
    None,
    /// Cache-miss address sampling (section 2.1).
    Sampling(SamplerConfig),
    /// The n-way search (section 2.2).
    Search(SearchConfig),
}

impl TechniqueConfig {
    /// Sampling with a fixed period of one interrupt per `period` misses.
    pub fn sampling(period: u64) -> Self {
        TechniqueConfig::Sampling(SamplerConfig::fixed(period))
    }

    /// An n-way search using every available PMU region counter.
    pub fn search() -> Self {
        TechniqueConfig::Search(SearchConfig::default())
    }

    /// Human-readable label for reports.
    pub fn label(&self) -> String {
        match self {
            TechniqueConfig::None => String::new(),
            TechniqueConfig::Sampling(c) => c.label(),
            TechniqueConfig::Search(c) => c.label(),
        }
    }

    /// Parse a CLI/wire technique spec:
    ///
    /// * `sampling:<period>` — fixed-period miss-address sampling
    /// * `adaptive:<pct>` — self-tuning sampling targeting `<pct>` overhead
    /// * `jittered:<base>:<spread>` — pseudo-random-interval sampling
    ///   (fixed seed, so a spec names one deterministic configuration)
    /// * `search` / `search:<n>` — n-way search over every counter, or
    ///   an n-way logical search
    /// * `none` — baseline, no instrumentation
    ///
    /// `interval` is the search measurement interval in cycles;
    /// `aggregate` folds per-site heap names; `log_progress` attaches
    /// the search iteration log. The same parser backs `cachescope`
    /// batch runs and serve-session handshakes, so a spec means the same
    /// technique everywhere. It only parses; [`crate::run_refusals`]
    /// decides whether the technique may run.
    pub fn parse_spec(
        spec: &str,
        interval: u64,
        aggregate: bool,
        log_progress: bool,
    ) -> Result<Self, String> {
        fn num<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("invalid {what}: {v}"))
        }
        let sampling = |mut cfg: SamplerConfig| {
            cfg.aggregate_heap_names = aggregate;
            Ok(TechniqueConfig::Sampling(cfg))
        };
        match spec.split(':').collect::<Vec<_>>().as_slice() {
            ["sampling", k] => sampling(SamplerConfig::fixed(num(k, "sampling period")?)),
            ["adaptive", pct] => sampling(SamplerConfig::adaptive(num(pct, "overhead target")?)),
            ["jittered", base, spread] => sampling(SamplerConfig::jittered(
                num(base, "jitter base")?,
                num(spread, "jitter spread")?,
                0xC11,
            )),
            ["search"] => Ok(TechniqueConfig::Search(SearchConfig {
                interval,
                log_progress,
                ..Default::default()
            })),
            ["search", n] => Ok(TechniqueConfig::Search(SearchConfig {
                interval,
                log_progress,
                logical_ways: Some(num::<u64>(n, "search width")? as usize),
                ..Default::default()
            })),
            ["none"] => Ok(TechniqueConfig::None),
            _ => Err(format!("unknown technique: {spec}")),
        }
    }

    /// Canonical JSON for content-addressed caching (see
    /// [`SamplerConfig::to_json`] / [`SearchConfig::to_json`]): a tagged
    /// object with a fixed key order, so equal configurations render to
    /// identical bytes and unequal ones almost surely do not.
    pub fn to_json(&self) -> cachescope_obs::Json {
        use cachescope_obs::Json;
        match self {
            TechniqueConfig::None => Json::obj(vec![("kind", Json::str("none"))]),
            TechniqueConfig::Sampling(c) => Json::obj(vec![
                ("kind", Json::str("sampling")),
                ("config", c.to_json()),
            ]),
            TechniqueConfig::Search(c) => {
                Json::obj(vec![("kind", Json::str("search")), ("config", c.to_json())])
            }
        }
    }
}

/// Replay an [`AccessTrace`] (recorded by the object map or another
/// instrumentation structure) through the simulated cache, charging
/// `cycles_per_access` of compute per touched word on top of the cache
/// cost. Clears the trace for reuse.
pub fn replay_trace(ctx: &mut EngineCtx, trace: &mut AccessTrace, cycles_per_access: u64) {
    if ctx.obs().profiler.is_enabled() {
        // Cache-probe depth per handler invocation (profiled runs only).
        let depth = trace.len() as u64;
        ctx.obs().metrics.observe("objmap.probe_depth", depth);
    }
    for &a in &trace.reads {
        ctx.touch(MemRef::read(a, 8));
    }
    for &a in &trace.writes {
        ctx.touch(MemRef::write(a, 8));
    }
    let n = trace.len() as u64;
    if n > 0 {
        ctx.charge(n * cycles_per_access);
    }
    trace.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        assert_eq!(TechniqueConfig::None.label(), "");
        assert!(TechniqueConfig::sampling(50_000).label().contains("50000"));
        assert!(TechniqueConfig::search().label().contains("search"));
    }

    #[test]
    fn parse_spec_covers_every_form_and_rejects_garbage() {
        let t = TechniqueConfig::parse_spec("sampling:1000", 0, false, false).unwrap();
        assert!(matches!(t, TechniqueConfig::Sampling(_)));
        assert!(t.label().contains("1000"));
        let t = TechniqueConfig::parse_spec("adaptive:5.0", 0, true, false).unwrap();
        assert!(matches!(t, TechniqueConfig::Sampling(ref c) if c.aggregate_heap_names));
        let t = TechniqueConfig::parse_spec("jittered:1000:100", 0, false, false).unwrap();
        assert!(matches!(t, TechniqueConfig::Sampling(_)));
        // A spec names one deterministic configuration: same bytes.
        assert_eq!(
            TechniqueConfig::parse_spec("jittered:1000:100", 0, false, false)
                .unwrap()
                .to_json()
                .render(),
            t.to_json().render()
        );
        let t = TechniqueConfig::parse_spec("search", 9_000, false, true).unwrap();
        assert!(
            matches!(t, TechniqueConfig::Search(ref c) if c.interval == 9_000 && c.log_progress)
        );
        let t = TechniqueConfig::parse_spec("search:4", 9_000, false, false).unwrap();
        assert!(matches!(t, TechniqueConfig::Search(ref c) if c.logical_ways == Some(4)));
        assert!(matches!(
            TechniqueConfig::parse_spec("none", 0, false, false).unwrap(),
            TechniqueConfig::None
        ));
        for bad in ["sampling", "sampling:x", "adaptive:", "search:x", "magic"] {
            assert!(
                TechniqueConfig::parse_spec(bad, 0, false, false).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn canonical_json_is_stable_and_discriminating() {
        // Equal configurations render to identical bytes...
        let a = TechniqueConfig::sampling(50_000).to_json().render();
        let b = TechniqueConfig::sampling(50_000).to_json().render();
        assert_eq!(a, b);
        // ...and any field change shows up in the rendering.
        let c = TechniqueConfig::sampling(50_001).to_json().render();
        assert_ne!(a, c);
        let mut aggregated = SamplerConfig::fixed(50_000);
        aggregated.aggregate_heap_names = true;
        assert_ne!(a, TechniqueConfig::Sampling(aggregated).to_json().render());

        let s1 = TechniqueConfig::Search(SearchConfig::default())
            .to_json()
            .render();
        let s2 = TechniqueConfig::Search(SearchConfig {
            logical_ways: Some(10),
            ..Default::default()
        })
        .to_json()
        .render();
        assert_ne!(s1, s2);
        assert_ne!(s1, TechniqueConfig::None.to_json().render());
        // Seeds are part of the identity: jittered runs with different
        // seeds are different cells.
        let j1 = TechniqueConfig::Sampling(SamplerConfig::jittered(1_000, 100, 1))
            .to_json()
            .render();
        let j2 = TechniqueConfig::Sampling(SamplerConfig::jittered(1_000, 100, 2))
            .to_json()
            .render();
        assert_ne!(j1, j2);
    }
}
