//! Trace container and the thread-safe collector the execution engines
//! record into (the Extrae role).
//!
//! Like Extrae, the collector buffers each thread's records privately and
//! merges them after the run: [`TraceSink`] keeps one typed record buffer
//! per recording thread, so recording is a `Vec` push under a lock no other
//! thread of a kernel call takes, and [`TraceSink::finish`] concatenates
//! and sorts the buffers into a [`Trace`]. A run has this one trace: every
//! exporter and query reads it, and [`crate::columnar::EventLog`] is its
//! binary wire format.

use crate::event::{CommRecord, ComputeRecord, Lane, StateClass, TaskRecord};
use crate::lane_ctx::thread_slot;
use crate::stage::StageRecord;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// A complete trace of one execution.
#[derive(Debug, Default, Clone, PartialEq)]
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

    /// Sum of instructions over all compute bursts (optionally of one class).
    pub fn total_instructions(&self, class: Option<StateClass>) -> f64 {
        self.compute
            .iter()
            .filter(|r| class.is_none_or(|c| r.class == c))
            .map(|r| r.instructions)
            .sum()
    }

    /// Sum of cycles over all compute bursts (optionally of one class).
    pub(crate) fn total_cycles(&self, class: Option<StateClass>) -> f64 {
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
        append(&mut self.compute, other.compute);
        append(&mut self.comm, other.comm);
        append(&mut self.tasks, other.tasks);
        append(&mut self.stages, other.stages);
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

/// Appends `src` to `dst`, taking `src`'s buffer whole when `dst` is empty.
fn append<T>(dst: &mut Vec<T>, src: Vec<T>) {
    if dst.is_empty() {
        *dst = src;
    } else {
        dst.extend(src);
    }
}

/// Record buffers of a [`TraceSink`]. The threads of one kernel call (its
/// rank threads and runtime workers) take consecutive recording slots, so
/// they share a shard only if more than this many threads start recording
/// meanwhile; threads that share a shard still record correctly.
const SHARDS: usize = 64;

/// The record buffers of the threads whose slot maps here, aligned to its
/// own cache lines so neighbouring shards' locks never share one.
#[derive(Default)]
#[repr(align(128))]
struct Shard(Mutex<Trace>);

/// Thread-safe trace collector shared by every rank/worker thread: one
/// typed record buffer per recording thread (chosen by the thread's
/// recording slot), merged by [`TraceSink::finish`].
#[derive(Clone)]
pub struct TraceSink {
    shards: Arc<[Shard; SHARDS]>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink {
            shards: Arc::new(std::array::from_fn(|_| Shard::default())),
        }
    }
}

impl TraceSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The calling thread's record buffer, locked.
    ///
    /// Poison-tolerant: a panicking (and possibly later retried) task must
    /// not cascade-kill tracing. Every update is a single push, which
    /// leaves the buffer valid, so a poisoned buffer is recovered as is.
    fn buffer(&self) -> MutexGuard<'_, Trace> {
        self.shards[thread_slot() % SHARDS]
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a compute burst.
    pub fn compute(&self, rec: ComputeRecord) {
        self.buffer().compute.push(rec);
    }

    /// Records a communication operation.
    pub fn comm(&self, rec: CommRecord) {
        self.buffer().comm.push(rec);
    }

    /// Records a task lifecycle event.
    pub fn task(&self, rec: TaskRecord) {
        self.buffer().tasks.push(rec);
    }

    /// Records a stage-graph node span.
    pub fn stage(&self, rec: StageRecord) {
        self.buffer().stages.push(rec);
    }

    /// Takes every record out of the sink: the buffers are moved, not
    /// copied, concatenated in shard order and sorted by start time
    /// ([`Trace::sort`], stable, so one thread's records with equal start
    /// times stay in the order they were recorded).
    ///
    /// This empties the sink for every handle, clones included (a `World`
    /// keeps one). Finish only after every recording thread has been
    /// joined: `World::run` and `Runtime` shutdown join theirs first.
    pub fn finish(self) -> Trace {
        let mut t = Trace::default();
        for shard in self.shards.iter() {
            let mut buf = shard.0.lock().unwrap_or_else(PoisonError::into_inner);
            t.merge(std::mem::take(&mut *buf));
        }
        t.sort();
        t
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
        // N threads, started together, each record M records of every kind
        // with start times in pairs (0, 0, 1, 1, ...), each into a buffer of
        // its own: finish returns exactly those records, every stream sorted
        // by start time, and one thread's equal-time records in the order it
        // pushed them.
        const N: usize = 6;
        const M: usize = 200;
        let sink = TraceSink::new();
        let start = std::sync::Barrier::new(N);
        std::thread::scope(|s| {
            for rank in 0..N {
                let (sink, start) = (sink.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    let lane = Lane::new(rank, 0);
                    for j in 0..M {
                        let t = (j / 2) as f64;
                        sink.compute(burst(rank, t, t + 1.0, StateClass::FftXy, j as f64, 1.0));
                        sink.comm(CommRecord {
                            lane,
                            op: CommOp::Alltoall,
                            comm_id: 1,
                            comm_size: N,
                            bytes: j,
                            t_start: t,
                            t_end: t + 1.0,
                        });
                        sink.task(TaskRecord {
                            lane,
                            task_id: j as u64,
                            label: format!("t{rank}.{j}"),
                            t_created: t,
                            t_start: t,
                            t_end: t + 1.0,
                        });
                        sink.stage(StageRecord {
                            lane,
                            stage: 0,
                            band: j as u32,
                            t_start: t,
                            t_end: t + 1.0,
                        });
                    }
                });
            }
        });
        // Threads that start recording together never share a buffer.
        for shard in sink.shards.iter() {
            let buf = shard.0.lock().unwrap();
            let threads: BTreeSet<usize> = buf.compute.iter().map(|r| r.lane.rank).collect();
            assert!(threads.len() <= 1, "threads {threads:?} share a buffer");
        }
        let t = sink.finish();
        let seq: Vec<usize> = (0..M).collect();
        fn check<R>(stream: &[R], key: impl Fn(&R) -> (f64, usize, usize), seq: &[usize]) {
            assert_eq!(stream.len(), N * M);
            assert!(stream.windows(2).all(|w| key(&w[0]).0 <= key(&w[1]).0));
            for rank in 0..N {
                let mine: Vec<usize> = stream
                    .iter()
                    .map(&key)
                    .filter(|k| k.1 == rank)
                    .map(|k| k.2)
                    .collect();
                assert_eq!(mine, seq, "rank {rank}: records lost or reordered");
            }
        }
        check(
            &t.compute,
            |r| (r.t_start, r.lane.rank, r.instructions as usize),
            &seq,
        );
        check(&t.comm, |r| (r.t_start, r.lane.rank, r.bytes), &seq);
        check(
            &t.tasks,
            |r| (r.t_start, r.lane.rank, r.task_id as usize),
            &seq,
        );
        check(
            &t.stages,
            |r| (r.t_start, r.lane.rank, r.band as usize),
            &seq,
        );
        let labelled = |r: &TaskRecord| r.label == format!("t{}.{}", r.lane.rank, r.task_id);
        assert!(t.tasks.iter().all(labelled));
        assert_eq!(t.lanes().len(), N);
    }

    #[test]
    fn finish_empties_the_sink_for_every_handle() {
        let sink = TraceSink::new();
        let other = sink.clone();
        sink.compute(burst(0, 0.0, 1.0, StateClass::Vofr, 1.0, 2.0));
        assert_eq!(sink.finish().compute.len(), 1);
        assert!(other.finish().compute.is_empty());
    }

    #[test]
    fn sink_survives_poisoning() {
        // A panic while a buffer's lock is held poisons it. The thread that
        // panicked (a task about to be retried) must keep recording into
        // that buffer, and finish must still hand out the full trace.
        let sink = TraceSink::new();
        sink.compute(burst(0, 0.0, 1.0, StateClass::FftZ, 1.0, 1.0));
        let worker = sink.clone();
        std::thread::spawn(move || {
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = worker.buffer();
                panic!("poison the buffer");
            }));
            assert!(panicked.is_err());
            assert!(worker.shards[thread_slot() % SHARDS].0.is_poisoned());
            worker.compute(burst(1, 1.0, 2.0, StateClass::FftZ, 1.0, 1.0));
        })
        .join()
        .expect("recording into a poisoned buffer does not panic");
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
