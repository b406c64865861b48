//! Serving-side metrics: exact latency quantiles, time-weighted
//! queue-depth series, and labelled monotonic counters.
//!
//! The job-serving subsystem (`fftx-serve`) exports its per-tenant and
//! per-stage accounting through these types so the same trace crate that
//! carries the Extrae/Paraver-style execution records also carries the
//! service-level ones: latency percentiles per deadline class, queue depth
//! over virtual time, shed/completion counters per tenant. Everything is
//! exact and deterministic — quantiles are computed from the full sample
//! set (serving traces are small enough), not from a sketch.

use std::collections::BTreeMap;

/// An exact quantile estimator over an explicit sample set.
#[derive(Debug, Clone, Default)]
pub struct Quantiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Quantiles {
    /// An empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) with linear interpolation between
    /// order statistics; `NaN` on an empty set.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        if !self.sorted {
            // total_cmp keeps a stray NaN sample from panicking the
            // analysis pipeline (NaNs sort last instead).
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac
    }

    /// Median.
    pub fn p50(&mut self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }

    /// Arithmetic mean; `NaN` on an empty set.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            f64::NAN
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Largest sample; `NaN` on an empty set.
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(f64::NAN, f64::max)
    }
}

/// A time-weighted step series — queue depth (or any gauge) over virtual
/// time. Between two recordings the gauge holds its previous value, so the
/// mean is the time integral divided by the observation span.
#[derive(Debug, Clone, Default)]
pub struct DepthSeries {
    points: Vec<(f64, usize)>,
}

impl DepthSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the gauge value `depth` at time `t` (seconds, must be
    /// non-decreasing across calls).
    pub fn record(&mut self, t: f64, depth: usize) {
        if let Some(&(last_t, _)) = self.points.last() {
            assert!(t >= last_t, "DepthSeries: time must be non-decreasing");
        }
        self.points.push((t, depth));
    }

    /// Largest recorded value (0 for an empty series).
    pub fn max(&self) -> usize {
        self.points.iter().map(|&(_, d)| d).max().unwrap_or(0)
    }

    /// Time-weighted mean over the observation span; `NaN` when fewer than
    /// two points were recorded (no span to integrate over).
    pub fn time_weighted_mean(&self) -> f64 {
        let (Some(&(first_t, _)), Some(&(last_t, _))) =
            (self.points.first(), self.points.last())
        else {
            return f64::NAN;
        };
        let mut integral = 0.0;
        for w in self.points.windows(2) {
            integral += w[0].1 as f64 * (w[1].0 - w[0].0);
        }
        let span = last_t - first_t;
        if span <= 0.0 {
            f64::NAN
        } else {
            integral / span
        }
    }
}

/// Labelled monotonic counters with deterministic (sorted) iteration, for
/// per-tenant accepted/shed/completed accounting and similar tallies.
#[derive(Debug, Clone, Default)]
pub struct CounterSet {
    counts: BTreeMap<String, u64>,
}

impl CounterSet {
    /// An empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter `key` (creating it at 0).
    pub fn add(&mut self, key: &str, n: u64) {
        *self.counts.entry(key.to_string()).or_insert(0) += n;
    }

    /// Current value of `key` (0 when never touched).
    pub fn get(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Sum over all counters whose label starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.counts
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// All `(label, value)` pairs in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

/// A labelled state-transition timeline over virtual time, keyed by an
/// integer lane (a fleet shard, a rank, a worker): each record is
/// `(t, lane, state)`. The fleet supervisor uses it for the per-shard
/// circuit-breaker and degradation-ladder history — the serving-side
/// analogue of the Paraver state records the execution tracer emits.
#[derive(Debug, Clone, Default)]
pub struct StateTimeline {
    events: Vec<(f64, u32, String)>,
}

impl StateTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records lane `lane` entering `state` at time `t` (seconds, must be
    /// non-decreasing across calls).
    pub fn record(&mut self, t: f64, lane: u32, state: &str) {
        if let Some(&(last_t, _, _)) = self.events.last() {
            assert!(t >= last_t, "StateTimeline: time must be non-decreasing");
        }
        self.events.push((t, lane, state.to_string()));
    }

    /// The state of `lane` at the end of the timeline, if it ever
    /// transitioned.
    pub fn last_state(&self, lane: u32) -> Option<&str> {
        self.events
            .iter()
            .rev()
            .find(|&&(_, l, _)| l == lane)
            .map(|(_, _, s)| s.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_timeline_records_and_queries() {
        let mut tl = StateTimeline::new();
        assert_eq!(tl.last_state(0), None);
        tl.record(0.0, 0, "closed");
        tl.record(0.5, 1, "open");
        tl.record(0.7, 1, "half_open");
        tl.record(0.9, 1, "closed");
        assert_eq!(tl.last_state(0), Some("closed"));
        assert_eq!(tl.last_state(1), Some("closed"));
        assert_eq!(tl.last_state(7), None);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn state_timeline_rejects_time_travel() {
        let mut tl = StateTimeline::new();
        tl.record(1.0, 0, "a");
        tl.record(0.5, 0, "b");
    }

    #[test]
    fn quantiles_interpolate_exactly() {
        let mut q = Quantiles::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            q.push(v);
        }
        assert_eq!(q.len(), 4);
        assert!((q.quantile(0.0) - 1.0).abs() < 1e-12);
        assert!((q.quantile(1.0) - 4.0).abs() < 1e-12);
        assert!((q.p50() - 2.5).abs() < 1e-12);
        assert!((q.quantile(1.0 / 3.0) - 2.0).abs() < 1e-12);
        assert!((q.mean() - 2.5).abs() < 1e-12);
        assert!((q.max() - 4.0).abs() < 1e-12);
        // Push after query re-sorts.
        q.push(0.0);
        assert!((q.quantile(0.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_empty_is_nan() {
        let mut q = Quantiles::new();
        assert!(q.is_empty());
        assert!(q.p50().is_nan());
        assert!(q.mean().is_nan());
    }

    #[test]
    fn depth_series_time_weighted_mean() {
        let mut s = DepthSeries::new();
        s.record(0.0, 0);
        s.record(1.0, 4); // depth 0 held for 1s
        s.record(3.0, 2); // depth 4 held for 2s
        s.record(4.0, 2); // depth 2 held for 1s
        assert_eq!(s.max(), 4);
        // (0*1 + 4*2 + 2*1) / 4 = 2.5
        assert!((s.time_weighted_mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn depth_series_degenerate_is_nan() {
        let mut s = DepthSeries::new();
        assert!(s.time_weighted_mean().is_nan());
        s.record(1.0, 3);
        assert!(s.time_weighted_mean().is_nan());
        assert_eq!(s.max(), 3);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn depth_series_rejects_time_travel() {
        let mut s = DepthSeries::new();
        s.record(2.0, 1);
        s.record(1.0, 1);
    }

    #[test]
    fn counters_accumulate() {
        let mut c = CounterSet::new();
        c.add("tenant0.accepted", 1);
        c.add("tenant0.accepted", 2);
        c.add("tenant1.shed", 1);
        assert_eq!(c.get("tenant0.accepted"), 3);
        assert_eq!(c.get("missing"), 0);
        assert_eq!(c.sum_prefix("tenant"), 4);
        assert_eq!(c.sum_prefix("tenant1"), 1);
        // Deterministic label order.
        let labels: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(labels, vec!["tenant0.accepted", "tenant1.shed"]);
    }
}
