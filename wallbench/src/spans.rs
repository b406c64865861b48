//! The benchmark's own spans: recorded in memory around calls into each
//! layer's public functions, merged across rank threads, and written out
//! once when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `fft.xy`.
    pub name: &'static str,
    /// Thread the span ran on (the vmpi rank for kernel spans).
    pub lane: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the recorder's origin.
    pub t0: f64,
    /// End, seconds since the recorder's origin.
    pub t1: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn dur(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// Per-thread span recorder; threads merge their recorders at the end.
pub struct Spans {
    origin: Instant,
    lane: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder for `lane`, timing against `origin`.
    pub fn new(origin: Instant, lane: u32) -> Self {
        Spans {
            origin,
            lane,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span; spans opened before it closes become its children.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let t0 = self.now();
        self.spans.push(Span {
            name,
            lane: self.lane,
            parent: self.open.last().copied(),
            t0,
            t1: t0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one).
    ///
    /// # Panics
    /// Panics when `id` is not the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].t1 = self.now();
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn merge(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Per name: total self time (seconds) and span count. A span's self
    /// time is its duration minus the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur() - c;
            e.1 += 1;
        }
        out
    }

    /// Total self time of `name` in seconds (0 when never recorded).
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_times().get(name).map_or(0.0, |e| e.0)
    }

    /// Tab-separated dump: one line per span.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tname\tlane\tparent\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name,
                s.lane,
                (s.t0 * 1e9).round() as u64,
                (s.t1 * 1e9).round() as u64
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let origin = Instant::now();
        let mut sp = Spans::new(origin, 0);
        let outer = sp.begin("call");
        sp.time("stage", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        sp.end(outer);
        let st = sp.self_times();
        let (call, stage) = (sp.spans()[outer].dur(), sp.spans()[1].dur());
        assert!((st["call"].0 - (call - stage)).abs() < 1e-12);
        assert_eq!(st["stage"], (stage, 1));
    }

    #[test]
    fn merge_keeps_parent_links() {
        let origin = Instant::now();
        let mut a = Spans::new(origin, 0);
        a.time("x", || ());
        let mut b = Spans::new(origin, 1);
        let p = b.begin("call");
        b.time("y", || ());
        b.end(p);
        a.merge(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].lane, 1);
        assert!(a.to_tsv().lines().count() == 4);
    }
}
