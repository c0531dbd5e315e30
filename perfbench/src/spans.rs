//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into each layer from the
//! benchmark's side, kept in memory, and written out once the run is
//! over. A layer's self time is its span's duration minus the part of
//! that interval its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The job whose inputs the span's call consumed.
    pub job: u32,
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; its parent is the innermost span still open.
    pub fn enter(&mut self, name: &'static str, job: u32) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            job,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and any span left open inside it); returns its
    /// duration in nanoseconds.
    pub fn exit(&mut self, id: usize) -> u64 {
        let end = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = end;
            if top == id {
                break;
            }
        }
        self.spans[id].duration()
    }

    /// Run `f` inside a span of its own; returns its result and duration.
    pub fn time<T>(&mut self, name: &'static str, job: u32, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.enter(name, job);
        let out = f();
        let ns = self.exit(id);
        (out, ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, in opening order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.job, s.start, s.end
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Tracing overhead: traced job time minus untraced job time, in the
/// same unit, and as a fraction of the untraced time.
pub fn overhead(traced: f64, untraced: f64) -> (f64, f64) {
    let abs = traced - untraced;
    (abs, if untraced > 0.0 { abs / untraced } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name: "s",
            job: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(None, 100, 200),
            span(Some(0), 90, 130),
            span(Some(0), 120, 150),
            span(Some(0), 190, 250),
        ];
        // Covered: [100,150) and [190,200) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 0, 50),
            span(Some(1), 10, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn recorder_nests_and_closes_spans() {
        let mut t = Tracer::default();
        let outer = t.enter("job", 7);
        let ((), _) = t.time("layer", 7, || std::hint::black_box(()));
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].job, 7);
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let st = self_times(s);
        assert_eq!(st[0] + s[1].duration(), s[0].duration());
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn overhead_is_traced_minus_untraced() {
        assert_eq!(overhead(110.0, 100.0), (10.0, 0.1));
        assert_eq!(overhead(95.0, 100.0), (-5.0, -0.05));
        assert_eq!(overhead(1.0, 0.0), (1.0, 0.0));
    }
}
