//! Offline aggregation over a [`Trace`] — the analysis half of the
//! telemetry pipeline: weighted time windows and the CSV summary that
//! `fftx --trace-dump` prints for a decoded log. The per-class and
//! per-stage rollups it prints are [`phase_profile`] and
//! [`stage_profile`].

use crate::paraver::phase_profile;
use crate::stage::stage_profile;
use crate::trace::Trace;
use std::fmt::Write as _;

/// Weighted time windows: sums `ws[i]` into fixed time bins
/// `[t0 + k·window, t0 + (k+1)·window)` over the paired timestamps — the
/// per-timestep *work* profile. The slices are paired positionally; the
/// shorter one bounds the aggregation. Empty input or a non-positive
/// window yields an empty vec.
pub fn window_sums(ts: &[f64], ws: &[f64], window: f64) -> Vec<f64> {
    let n = ts.len().min(ws.len());
    if n == 0 || window <= 0.0 {
        return Vec::new();
    }
    let ts = &ts[..n];
    let t0 = ts.iter().copied().fold(f64::INFINITY, f64::min);
    let t1 = ts.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let bins = (((t1 - t0) / window).floor() as usize) + 1;
    let mut out = vec![0.0f64; bins];
    for i in 0..n {
        let b = (((ts[i] - t0) / window) as usize).min(bins - 1);
        out[b] += ws[i];
    }
    out
}

/// Deterministic CSV summary of a trace — the converter output committed
/// in place of the binary: the row count of each wire stream, then burst
/// count and seconds per state class, then span count and seconds per
/// stage.
pub fn summary_csv(trace: &Trace) -> String {
    let mut out = String::from("section,key,count,total\n");
    for (stream, rows) in [
        ("compute", trace.compute.len()),
        ("comm", trace.comm.len()),
        ("task", trace.tasks.len()),
        ("stage", trace.stages.len()),
    ] {
        let _ = writeln!(out, "stream,{stream},{rows},");
    }
    for (class, secs, n, _) in phase_profile(trace) {
        let _ = writeln!(out, "class,{},{n},{secs:.9e}", class.name());
    }
    for (stage, n, secs) in stage_profile(trace) {
        let _ = writeln!(out, "stage,{stage},{n},{secs:.9e}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::EventLog;
    use crate::event::{ComputeRecord, Lane, StateClass};
    use crate::stage::StageRecord;

    #[test]
    fn window_sums_weight_the_bins() {
        let s = window_sums(&[0.0, 0.1, 1.1, 2.7], &[1.0, 2.0, 4.0, 8.0], 1.0);
        assert_eq!(s, vec![3.0, 4.0, 8.0]);
        // The shorter slice bounds the pairing.
        assert_eq!(window_sums(&[0.0, 0.5], &[5.0], 1.0), vec![5.0]);
        assert!(window_sums(&[], &[], 1.0).is_empty());
        assert!(window_sums(&[1.0], &[1.0], 0.0).is_empty());
    }

    #[test]
    fn summary_is_deterministic_and_complete() {
        let (lane, mut t) = (Lane::new(0, 0), Trace::default());
        for (stage, t_start, t_end) in [(1, 0.0, 1.0), (1, 1.0, 3.0), (4, 0.0, 2.0)] {
            t.stages.push(StageRecord {
                lane,
                stage,
                band: 0,
                t_start,
                t_end,
            });
        }
        let (xy, pack) = (StateClass::FftXy, StateClass::Pack);
        for (class, t_start, t_end) in [(xy, 0.0, 1.0), (xy, 1.0, 2.0), (pack, 0.0, 0.5)] {
            let (instructions, cycles) = (1.0, 2.0);
            t.compute.push(ComputeRecord {
                lane,
                class,
                t_start,
                t_end,
                instructions,
                cycles,
            });
        }
        let a = summary_csv(&t);
        let decoded = EventLog::decode(&EventLog::from_trace(&t).encode()).expect("decode");
        assert_eq!(a, summary_csv(decoded.trace()));
        assert_eq!(
            a,
            "section,key,count,total\n\
             stream,compute,3,\n\
             stream,comm,0,\n\
             stream,task,0,\n\
             stream,stage,3,\n\
             class,pack,1,5.000000000e-1\n\
             class,fft-xy,2,2.000000000e0\n\
             stage,1,2,3.000000000e0\n\
             stage,4,1,2.000000000e0\n"
        );
    }
}
