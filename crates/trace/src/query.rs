//! Offline aggregation over the columnar [`EventLog`] — the analysis half
//! of the telemetry pipeline.
//!
//! Exporters (paraver/pop/fig renderers) and bench bins used to each carry
//! a bespoke accumulator over the row-form [`crate::trace::Trace`]. The
//! queries here operate on the log directly: per-stage and per-class
//! rollups, group-bys over dictionary-encoded columns, weighted time
//! windows and the CSV summary — so a bin is a run, a handful of query
//! calls, and an artifact write.

use crate::columnar::{EventLog, STREAM_COMPUTE, STREAM_STAGE, STREAM_STATE};
use crate::error::TraceError;
use crate::event::StateClass;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-stage rollup of the stage stream: `(stage id, span count, total
/// seconds)` ascending by stage id — the log-native form of
/// [`crate::stage::stage_profile`].
pub fn stage_rollup(log: &EventLog) -> Result<Vec<(u32, usize, f64)>, TraceError> {
    let s = &log.streams()[STREAM_STAGE];
    let stage = s.col_u32("stage")?;
    let (t0, t1) = (s.col_f64("t_start")?, s.col_f64("t_end")?);
    let mut acc: BTreeMap<u32, (usize, f64)> = BTreeMap::new();
    for i in 0..s.rows() {
        let e = acc.entry(stage[i]).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += (t1[i] - t0[i]).max(0.0);
    }
    Ok(acc.into_iter().map(|(k, (n, t))| (k, n, t)).collect())
}

/// One row of the per-class compute rollup.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct ClassTotals {
    /// Burst count.
    pub count: usize,
    /// Total burst seconds.
    pub seconds: f64,
    /// Total instructions retired.
    pub instructions: f64,
    /// Total core cycles.
    pub cycles: f64,
}

/// Per-state-class rollup of the compute stream.
pub(crate) fn class_rollup(
    log: &EventLog,
) -> Result<BTreeMap<StateClass, ClassTotals>, TraceError> {
    let s = &log.streams()[STREAM_COMPUTE];
    let class = s.col_u32("class")?;
    let (t0, t1) = (s.col_f64("t_start")?, s.col_f64("t_end")?);
    let (ins, cyc) = (s.col_f64("instructions")?, s.col_f64("cycles")?);
    let mut acc: BTreeMap<StateClass, ClassTotals> = BTreeMap::new();
    for i in 0..s.rows() {
        let c = StateClass::from_code(class[i])
            .ok_or_else(|| TraceError::Decode(format!("unknown state-class code {}", class[i])))?;
        let e = acc.entry(c).or_default();
        e.count += 1;
        e.seconds += (t1[i] - t0[i]).max(0.0);
        e.instructions += ins[i];
        e.cycles += cyc[i];
    }
    Ok(acc)
}

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

/// Row counts grouped by a dictionary-encoded column of one stream
/// (group-by on stage/policy/shard/tenant-style label columns). Keys are
/// the decoded strings, sorted.
pub(crate) fn group_count(
    log: &EventLog,
    stream: usize,
    column: &str,
) -> Result<BTreeMap<String, usize>, TraceError> {
    let s = log
        .streams()
        .get(stream)
        .ok_or_else(|| TraceError::Schema(format!("no stream index {stream}")))?;
    let ids = s.col_str(column)?;
    let mut acc: BTreeMap<String, usize> = BTreeMap::new();
    for &id in ids {
        *acc.entry(log.lookup(id)?.to_string()).or_insert(0) += 1;
    }
    Ok(acc)
}

/// Deterministic CSV summary of a log — the converter output committed in
/// place of the binary: per-stream row counts, the per-class compute
/// rollup, the per-stage rollup and every counter total.
pub fn summary_csv(log: &EventLog) -> Result<String, TraceError> {
    let mut out = String::from("section,key,count,total\n");
    for s in log.streams() {
        let _ = writeln!(out, "stream,{},{},", s.name, s.rows());
    }
    for (class, t) in class_rollup(log)? {
        let _ = writeln!(out, "class,{},{},{:.9e}", class.name(), t.count, t.seconds);
    }
    for (stage, n, secs) in stage_rollup(log)? {
        let _ = writeln!(out, "stage,{stage},{n},{secs:.9e}");
    }
    for (key, v) in log.counters()?.iter() {
        let _ = writeln!(out, "counter,{key},{v},");
    }
    let states = group_count(log, STREAM_STATE, "state")?;
    for (state, n) in states {
        let _ = writeln!(out, "state,{state},{n},");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::STREAM_COUNTER;
    use crate::event::{ComputeRecord, Lane};
    use crate::stage::StageRecord;

    fn sample_log() -> EventLog {
        let mut log = EventLog::new();
        for (stage, t0, t1) in [(1u32, 0.0, 1.0), (1, 1.0, 3.0), (4, 0.0, 2.0)] {
            log.push_stage(&StageRecord {
                lane: Lane::new(0, 0),
                stage,
                band: 0,
                t_start: t0,
                t_end: t1,
            });
        }
        for (class, t0, t1, ins, cyc) in [
            (StateClass::FftXy, 0.0, 1.0, 8.0, 10.0),
            (StateClass::FftXy, 1.0, 2.0, 6.0, 10.0),
            (StateClass::Pack, 0.0, 0.5, 1.0, 4.0),
        ] {
            log.push_compute(&ComputeRecord {
                lane: Lane::new(0, 0),
                class,
                t_start: t0,
                t_end: t1,
                instructions: ins,
                cycles: cyc,
            });
        }
        log.push_counter("shed.deadline", 2);
        log.push_counter("shed.capacity", 1);
        log.push_counter("shed.deadline", 3);
        log.push_state(0.0, 0, "normal");
        log.push_state(1.0, 1, "degraded");
        log.push_state(2.0, 1, "normal");
        log
    }

    #[test]
    fn stage_rollup_matches_profile() {
        let log = sample_log();
        let r = stage_rollup(&log).expect("rollup");
        assert_eq!(r, vec![(1, 2, 3.0), (4, 1, 2.0)]);
    }

    #[test]
    fn class_rollup_accumulates() {
        let log = sample_log();
        let r = class_rollup(&log).expect("rollup");
        let t = r[&StateClass::FftXy];
        assert_eq!(t.count, 2);
        assert!((t.seconds - 2.0).abs() < 1e-12);
        assert!((t.instructions - 14.0).abs() < 1e-12);
        assert!((t.cycles - 20.0).abs() < 1e-12);
        assert_eq!(r[&StateClass::Pack].count, 1);
    }

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
    fn group_counts_by_label_column() {
        let log = sample_log();
        let g = group_count(&log, STREAM_STATE, "state").expect("group");
        assert_eq!(g["normal"], 2);
        assert_eq!(g["degraded"], 1);
        assert!(group_count(&log, 99, "state").is_err());
        assert!(group_count(&log, STREAM_COUNTER, "nope").is_err());
    }

    #[test]
    fn summary_is_deterministic_and_complete() {
        let log = sample_log();
        let a = summary_csv(&log).expect("summary");
        let b = summary_csv(&EventLog::decode(&log.encode()).expect("decode")).expect("summary");
        assert_eq!(a, b);
        assert!(a.starts_with("section,key,count,total\n"));
        assert!(a.contains("stream,stage,3,"));
        assert!(a.contains("class,fft-xy,2,"));
        assert!(a.contains("counter,shed.deadline,5,"));
        assert!(a.contains("state,normal,2,"));
    }
}
