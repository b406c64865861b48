//! Trace container and the thread-safe collector the execution engines
//! record into (the Extrae role).
//!
//! Since the columnar refactor the collector stores one [`EventLog`] —
//! [`Trace`] is a *materialized view* extracted at [`TraceSink::finish`] /
//! [`TraceSink::snapshot`] time, so execution records, serving counters,
//! gauges and state transitions all share a single storage layer.

use crate::columnar::EventLog;
use crate::event::{CommRecord, ComputeRecord, Lane, StateClass, TaskRecord};
use crate::metrics::{CounterSet, StateTimeline};
use crate::stage::StageRecord;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// A complete trace of one execution.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// Compute bursts.
    pub compute: Vec<ComputeRecord>,
    /// Communication operations.
    pub comm: Vec<CommRecord>,
    /// Task lifecycle records.
    pub tasks: Vec<TaskRecord>,
    /// Stage-graph node spans (one stream for every scheduler policy).
    pub stages: Vec<StageRecord>,
}

impl Trace {
    /// All lanes that appear anywhere in the trace, sorted.
    pub fn lanes(&self) -> Vec<Lane> {
        let mut set = BTreeSet::new();
        for r in &self.compute {
            set.insert(r.lane);
        }
        for r in &self.comm {
            set.insert(r.lane);
        }
        for r in &self.tasks {
            set.insert(r.lane);
        }
        for r in &self.stages {
            set.insert(r.lane);
        }
        set.into_iter().collect()
    }

    /// Earliest timestamp in the trace (0.0 for an empty trace).
    pub fn t_min(&self) -> f64 {
        let m = self.iter_spans().map(|(s, _)| s).fold(f64::INFINITY, f64::min);
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Latest timestamp in the trace (0.0 for an empty trace).
    pub fn t_max(&self) -> f64 {
        let m = self.iter_spans().map(|(_, e)| e).fold(f64::NEG_INFINITY, f64::max);
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Total runtime: `t_max - t_min`.
    pub fn runtime(&self) -> f64 {
        let t0 = self.t_min();
        let t1 = self.t_max();
        (t1 - t0).max(0.0)
    }

    fn iter_spans(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.compute
            .iter()
            .map(|r| (r.t_start, r.t_end))
            .chain(self.comm.iter().map(|r| (r.t_start, r.t_end)))
            .chain(self.tasks.iter().map(|r| (r.t_start, r.t_end)))
            .chain(self.stages.iter().map(|r| (r.t_start, r.t_end)))
    }

    /// Total compute seconds of one lane.
    pub fn compute_time(&self, lane: Lane) -> f64 {
        self.compute
            .iter()
            .filter(|r| r.lane == lane)
            .map(|r| r.duration())
            .sum()
    }

    /// Total communication seconds of one lane.
    pub fn comm_time(&self, lane: Lane) -> f64 {
        self.comm
            .iter()
            .filter(|r| r.lane == lane)
            .map(|r| r.duration())
            .sum()
    }

    /// Sum of instructions over all compute bursts (optionally of one class).
    pub fn total_instructions(&self, class: Option<StateClass>) -> f64 {
        self.compute
            .iter()
            .filter(|r| class.is_none_or(|c| r.class == c))
            .map(|r| r.instructions)
            .sum()
    }

    /// Sum of cycles over all compute bursts (optionally of one class).
    pub fn total_cycles(&self, class: Option<StateClass>) -> f64 {
        self.compute
            .iter()
            .filter(|r| class.is_none_or(|c| r.class == c))
            .map(|r| r.cycles)
            .sum()
    }

    /// Aggregate IPC = total instructions / total cycles (optionally of one
    /// class). Returns 0 when no cycles were recorded.
    pub fn aggregate_ipc(&self, class: Option<StateClass>) -> f64 {
        let cyc = self.total_cycles(class);
        if cyc > 0.0 {
            self.total_instructions(class) / cyc
        } else {
            0.0
        }
    }

    /// Duration-weighted mean IPC of bursts of `class` (the quantity the
    /// paper's Fig. 7 histograms visualise).
    pub fn mean_ipc(&self, class: StateClass) -> f64 {
        let mut t = 0.0;
        let mut acc = 0.0;
        for r in self.compute.iter().filter(|r| r.class == class) {
            t += r.duration();
            acc += r.ipc() * r.duration();
        }
        if t > 0.0 {
            acc / t
        } else {
            0.0
        }
    }

    /// Merges another trace into this one (used to combine per-rank traces).
    pub fn merge(&mut self, other: Trace) {
        self.compute.extend(other.compute);
        self.comm.extend(other.comm);
        self.tasks.extend(other.tasks);
        self.stages.extend(other.stages);
    }

    /// Sorts all record streams by start time (stable order for rendering).
    pub fn sort(&mut self) {
        self.compute
            .sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
        self.comm.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
        self.tasks.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
        self.stages.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
    }
}

/// Thread-safe trace collector shared by every rank/worker thread, backed
/// by one columnar [`EventLog`].
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Arc<Mutex<EventLog>>,
}

/// Materializes the execution-trace view of an in-memory log. The log was
/// built through the typed push API (valid class/op codes, interned labels
/// by construction), so the conversion cannot fail; an empty trace is
/// returned defensively if that invariant is ever broken.
fn materialize(log: &EventLog) -> Trace {
    debug_assert!(log.to_trace().is_ok(), "in-memory log must materialize");
    log.to_trace().unwrap_or_default()
}

impl TraceSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a compute burst.
    ///
    /// Poison-tolerant: a panicking (and possibly later retried) task must
    /// not cascade-kill tracing, so a poisoned sink recovers its inner
    /// state instead of propagating the panic.
    pub fn compute(&self, rec: ComputeRecord) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_compute(&rec);
    }

    /// Records a communication operation (poison-tolerant, see
    /// [`TraceSink::compute`]).
    pub fn comm(&self, rec: CommRecord) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_comm(&rec);
    }

    /// Records a task lifecycle event (poison-tolerant, see
    /// [`TraceSink::compute`]).
    pub fn task(&self, rec: TaskRecord) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_task(&rec);
    }

    /// Records a stage-graph node span (poison-tolerant, see
    /// [`TraceSink::compute`]).
    pub fn stage(&self, rec: StageRecord) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_stage(&rec);
    }

    /// Adds `n` to counter `key` (poison-tolerant, see
    /// [`TraceSink::compute`]).
    pub fn counter(&self, key: &str, n: u64) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_counter(key, n);
    }

    /// Records a gauge observation (poison-tolerant).
    pub fn gauge(&self, series: &str, t: f64, value: u64) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_gauge(series, t, value);
    }

    /// Records a state transition of integer lane `lane` (poison-tolerant).
    pub fn state(&self, t: f64, lane: u32, state: &str) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_state(t, lane, state);
    }

    /// Running total of counter `key`, served from the log's append-time
    /// index (O(log k), no materialization).
    pub fn counter_total(&self, key: &str) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .counter_total(key)
    }

    /// Extracts the accumulated trace, sorted by time.
    pub fn finish(self) -> Trace {
        let log = match Arc::try_unwrap(self.inner) {
            Ok(m) => m.into_inner().unwrap_or_else(PoisonError::into_inner),
            Err(arc) => arc
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        };
        let mut t = materialize(&log);
        t.sort();
        t
    }

    /// Clones the current contents without consuming the sink.
    pub fn snapshot(&self) -> Trace {
        let mut t = materialize(
            &self
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        t.sort();
        t
    }

    /// Materializes the counter view (sorted labels).
    pub fn counters(&self) -> CounterSet {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .counters()
            .unwrap_or_default()
    }

    /// Materializes the state-transition view.
    pub fn state_timeline(&self) -> StateTimeline {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .state_timeline()
            .unwrap_or_default()
    }
}

/// Wall clock mapping `Instant`s to seconds since construction; the real
/// execution engine stamps records with it, the simulator uses virtual time.
#[derive(Clone)]
pub struct WallClock {
    origin: Instant,
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl WallClock {
    /// Starts the clock now.
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }

    /// Seconds since the clock was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CommOp, Lane};

    fn burst(rank: usize, t0: f64, t1: f64, class: StateClass, ins: f64, cyc: f64) -> ComputeRecord {
        ComputeRecord {
            lane: Lane::new(rank, 0),
            class,
            t_start: t0,
            t_end: t1,
            instructions: ins,
            cycles: cyc,
        }
    }

    #[test]
    fn empty_trace_is_benign() {
        let t = Trace::default();
        assert_eq!(t.runtime(), 0.0);
        assert!(t.lanes().is_empty());
        assert_eq!(t.aggregate_ipc(None), 0.0);
        assert_eq!(t.mean_ipc(StateClass::FftXy), 0.0);
    }

    #[test]
    fn aggregates() {
        let mut t = Trace::default();
        t.compute.push(burst(0, 0.0, 1.0, StateClass::FftXy, 8.0, 10.0));
        t.compute.push(burst(1, 0.5, 2.5, StateClass::FftZ, 5.0, 10.0));
        t.comm.push(CommRecord {
            lane: Lane::new(0, 0),
            op: CommOp::Alltoall,
            comm_id: 1,
            comm_size: 2,
            bytes: 64,
            t_start: 1.0,
            t_end: 3.0,
        });
        assert_eq!(t.lanes(), vec![Lane::new(0, 0), Lane::new(1, 0)]);
        assert!((t.runtime() - 3.0).abs() < 1e-12);
        assert!((t.compute_time(Lane::new(0, 0)) - 1.0).abs() < 1e-12);
        assert!((t.comm_time(Lane::new(0, 0)) - 2.0).abs() < 1e-12);
        assert!((t.total_instructions(None) - 13.0).abs() < 1e-12);
        assert!((t.aggregate_ipc(None) - 13.0 / 20.0).abs() < 1e-12);
        assert!((t.aggregate_ipc(Some(StateClass::FftXy)) - 0.8).abs() < 1e-12);
        assert!((t.mean_ipc(StateClass::FftZ) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_and_sort() {
        let mut a = Trace::default();
        a.compute.push(burst(0, 1.0, 2.0, StateClass::Pack, 1.0, 1.0));
        let mut b = Trace::default();
        b.compute.push(burst(1, 0.0, 0.5, StateClass::Pack, 1.0, 1.0));
        a.merge(b);
        a.sort();
        assert_eq!(a.compute.len(), 2);
        assert!(a.compute[0].t_start <= a.compute[1].t_start);
    }

    #[test]
    fn sink_collects_from_threads() {
        let sink = TraceSink::new();
        std::thread::scope(|s| {
            for rank in 0..4 {
                let sink = sink.clone();
                s.spawn(move || {
                    sink.compute(burst(rank, 0.0, 1.0, StateClass::FftXy, 1.0, 1.0));
                });
            }
        });
        let t = sink.finish();
        assert_eq!(t.compute.len(), 4);
        assert_eq!(t.lanes().len(), 4);
    }

    #[test]
    fn snapshot_does_not_consume() {
        let sink = TraceSink::new();
        sink.compute(burst(0, 0.0, 1.0, StateClass::Vofr, 1.0, 2.0));
        let snap = sink.snapshot();
        assert_eq!(snap.compute.len(), 1);
        sink.compute(burst(0, 1.0, 2.0, StateClass::Vofr, 1.0, 2.0));
        assert_eq!(sink.finish().compute.len(), 2);
    }

    #[test]
    fn sink_survives_poisoning() {
        // A panic while the sink lock is held poisons the mutex; the sink
        // must keep recording and still hand out the full trace.
        let sink = TraceSink::new();
        sink.compute(burst(0, 0.0, 1.0, StateClass::FftZ, 1.0, 1.0));
        let poisoner = sink.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("poison the sink");
        })
        .join();
        sink.compute(burst(0, 1.0, 2.0, StateClass::FftZ, 1.0, 1.0));
        assert_eq!(sink.snapshot().compute.len(), 2);
        assert_eq!(sink.finish().compute.len(), 2);
    }

    #[test]
    fn wall_clock_monotone() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }
}
