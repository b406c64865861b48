//! Stage-keyed spans and per-stage duration histograms.
//!
//! Every execution engine used to announce its pipeline steps through
//! mode-specific task-label conventions (`"pack[3]"`, `"fft-band-3"`,
//! `"scatter-fw-post[3]"` …) that analysis code had to parse. A
//! [`StageRecord`] instead references the executed stage-graph node by its
//! stable numeric id (`fftx-core`'s `StageKind`), so one record stream
//! covers every scheduler policy and the histograms key on the graph, not
//! on strings.

use crate::event::Lane;
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One executed stage-graph node: a span over the stage's compute burst(s)
/// and any communication the stage contains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageRecord {
    /// Lane (rank, worker thread) that executed the stage.
    pub lane: Lane,
    /// Stable stage-graph node id.
    pub stage: u32,
    /// Band the stage operated on (first band of the batch for the serial
    /// engine, which processes T bands per stage).
    pub band: u32,
    /// Span start (seconds).
    pub t_start: f64,
    /// Span end (seconds).
    pub t_end: f64,
}

impl StageRecord {
    /// Span duration in seconds.
    pub fn duration(&self) -> f64 {
        self.t_end - self.t_start
    }
}

/// Per-stage duration histogram: for every stage-graph node id seen in the
/// trace, the span-duration distribution (fixed linear bins over the
/// trace-wide duration range) plus summary statistics.
#[derive(Debug, Clone)]
pub struct StageHistogram {
    /// Stage ids present, ascending (row order of `cells`).
    pub stages: Vec<u32>,
    /// Number of duration bins.
    pub bins: usize,
    /// Inclusive lower bound of the duration axis (seconds).
    pub dur_min: f64,
    /// Exclusive upper bound of the duration axis (seconds).
    pub dur_max: f64,
    /// `cells[row][bin]` = number of spans of that stage in that bin.
    pub cells: Vec<Vec<usize>>,
    /// Span count per stage.
    pub count: Vec<usize>,
    /// Total seconds per stage.
    pub total_s: Vec<f64>,
    /// Shortest span per stage.
    pub min_s: Vec<f64>,
    /// Longest span per stage.
    pub max_s: Vec<f64>,
}

impl StageHistogram {
    /// Builds the histogram from a trace's stage-record stream. The
    /// duration axis spans the observed range; an empty stream yields an
    /// empty histogram.
    pub fn from_trace(trace: &Trace, bins: usize) -> Self {
        assert!(bins > 0, "StageHistogram: bins must be > 0");
        let mut dur_min = f64::INFINITY;
        let mut dur_max = f64::NEG_INFINITY;
        let mut per_stage: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for r in &trace.stages {
            let d = r.duration().max(0.0);
            dur_min = dur_min.min(d);
            dur_max = dur_max.max(d);
            per_stage.entry(r.stage).or_default().push(d);
        }
        if per_stage.is_empty() {
            return StageHistogram {
                stages: Vec::new(),
                bins,
                dur_min: 0.0,
                dur_max: 0.0,
                cells: Vec::new(),
                count: Vec::new(),
                total_s: Vec::new(),
                min_s: Vec::new(),
                max_s: Vec::new(),
            };
        }
        // Widen a degenerate range so every span lands in a valid bin.
        if dur_max <= dur_min {
            dur_max = dur_min + 1e-12;
        }
        let scale = bins as f64 / (dur_max - dur_min);
        let mut stages = Vec::new();
        let mut cells = Vec::new();
        let mut count = Vec::new();
        let mut total_s = Vec::new();
        let mut min_s = Vec::new();
        let mut max_s = Vec::new();
        for (stage, durs) in per_stage {
            let mut row = vec![0usize; bins];
            for &d in &durs {
                let bi = ((d - dur_min) * scale) as usize;
                row[bi.min(bins - 1)] += 1;
            }
            stages.push(stage);
            cells.push(row);
            count.push(durs.len());
            total_s.push(durs.iter().sum());
            min_s.push(durs.iter().copied().fold(f64::INFINITY, f64::min));
            max_s.push(durs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        }
        StageHistogram {
            stages,
            bins,
            dur_min,
            dur_max,
            cells,
            count,
            total_s,
            min_s,
            max_s,
        }
    }

    /// Renders the histogram as CSV. `name_of` maps a stage id to its
    /// display name (the id→name table lives with the stage graph in
    /// `fftx-core`, which this crate must not depend on).
    pub fn csv(&self, name_of: impl Fn(u32) -> String) -> String {
        let mut out = String::from("stage_id,stage,count,total_s,mean_s,min_s,max_s");
        for b in 0..self.bins {
            let lo = self.dur_min + (self.dur_max - self.dur_min) * b as f64 / self.bins as f64;
            let _ = write!(out, ",bin_{lo:.3e}");
        }
        out.push('\n');
        for (row, &stage) in self.stages.iter().enumerate() {
            let mean = self.total_s[row] / self.count[row].max(1) as f64;
            let _ = write!(
                out,
                "{},{},{},{:.6e},{:.6e},{:.6e},{:.6e}",
                stage,
                name_of(stage),
                self.count[row],
                self.total_s[row],
                mean,
                self.min_s[row],
                self.max_s[row],
            );
            for &c in &self.cells[row] {
                let _ = write!(out, ",{c}");
            }
            out.push('\n');
        }
        out
    }
}

/// Per-stage time rollup of one trace: `(stage id, span count, total
/// seconds)` ascending by stage id — the POP-style profile over the stage
/// graph instead of over state classes. A span that ends before it starts
/// counts zero seconds.
pub fn stage_profile(trace: &Trace) -> Vec<(u32, usize, f64)> {
    let mut acc: BTreeMap<u32, (usize, f64)> = BTreeMap::new();
    for r in &trace.stages {
        let e = acc.entry(r.stage).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += r.duration().max(0.0);
    }
    acc.into_iter()
        .map(|(stage, (n, secs))| (stage, n, secs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: u32, band: u32, t0: f64, t1: f64) -> StageRecord {
        StageRecord {
            lane: Lane::new(0, 0),
            stage,
            band,
            t_start: t0,
            t_end: t1,
        }
    }

    #[test]
    fn empty_trace_yields_empty_histogram() {
        let h = StageHistogram::from_trace(&Trace::default(), 8);
        assert!(h.stages.is_empty());
        assert!(stage_profile(&Trace::default()).is_empty());
    }

    #[test]
    fn histogram_bins_and_stats() {
        let mut t = Trace::default();
        t.stages.push(span(1, 0, 0.0, 1.0));
        t.stages.push(span(1, 1, 0.0, 3.0));
        t.stages.push(span(4, 0, 0.0, 2.0));
        let h = StageHistogram::from_trace(&t, 4);
        assert_eq!(h.stages, vec![1, 4]);
        assert_eq!(h.count, vec![2, 1]);
        assert!((h.total_s[0] - 4.0).abs() < 1e-12);
        assert!((h.min_s[0] - 1.0).abs() < 1e-12);
        assert!((h.max_s[0] - 3.0).abs() < 1e-12);
        assert_eq!(h.cells[0].iter().sum::<usize>(), 2);
        assert_eq!(h.cells[1].iter().sum::<usize>(), 1);
        // Longest span lands in the last bin.
        assert_eq!(h.cells[0][3], 1);
        let csv = h.csv(|id| format!("s{id}"));
        assert!(csv.contains("s1") && csv.contains("s4"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn profile_accumulates_per_stage() {
        let mut t = Trace::default();
        t.stages.push(span(2, 0, 0.0, 1.0));
        t.stages.push(span(2, 1, 1.0, 1.5));
        t.stages.push(span(0, 0, 0.0, 0.25));
        // A span that ends before it starts counts zero seconds.
        t.stages.push(span(0, 1, 1.0, 0.5));
        let p = stage_profile(&t);
        assert_eq!(p, vec![(0, 2, 0.25), (2, 2, 1.5)]);
    }

    #[test]
    fn identical_durations_do_not_degenerate() {
        let mut t = Trace::default();
        t.stages.push(span(3, 0, 0.0, 1.0));
        t.stages.push(span(3, 1, 2.0, 3.0));
        let h = StageHistogram::from_trace(&t, 2);
        assert_eq!(h.count, vec![2]);
        assert_eq!(h.cells[0].iter().sum::<usize>(), 2);
    }
}
