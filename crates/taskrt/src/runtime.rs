//! The task scheduler — the Nanos++ role: dynamic dependency resolution and
//! FIFO dispatch onto a worker-thread pool.
//!
//! Tasks are submitted with a list of [`Dep`]s; the runtime builds the
//! dependency graph on the fly (flow, anti and output dependencies, exactly
//! the OmpSs rules) and runs every task whose predecessors have finished on
//! the first free worker. FIFO order is load-bearing: together with
//! identical task-creation order on every rank it gives the deadlock-freedom
//! argument for blocking collectives inside tasks (see `fftx-vmpi`).

use crate::error::TaskError;
use crate::handle::{Dep, Handle};
use fftx_trace::{set_current_thread, Lane, TaskRecord, TraceSink, WallClock};
use parking_lot::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Re-execution policy for tasks submitted with
/// [`Runtime::spawn_retryable`]: a panicking attempt is retried in place
/// with bounded exponential backoff before the failure escalates to
/// [`TaskError::Failed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of *re*-executions after the first attempt.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Backoff cap: the wait before retry `n` is
    /// `min(base_backoff · 2^n, max_backoff)`.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_retries` re-executions and the default backoff.
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        }
    }

    /// The bounded exponential backoff before retry `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

/// A task body: run-once closures from [`Runtime::spawn`], or re-runnable
/// bodies from [`Runtime::spawn_retryable`] (which must be idempotent over
/// their input snapshot — re-execution assumes attempt n+1 sees the same
/// inputs attempt n did).
enum TaskBody {
    Once(Box<dyn FnOnce() + Send>),
    Retryable {
        body: Arc<dyn Fn() + Send + Sync>,
        policy: RetryPolicy,
    },
}

struct TaskState {
    label: String,
    priority: u64,
    body: Option<TaskBody>,
    /// Unfinished predecessors.
    pending: usize,
    /// Tasks to release when this one finishes.
    successors: Vec<u64>,
    /// Labels of the direct predecessors that were unfinished at
    /// submission (failure diagnostics).
    pred_labels: Vec<String>,
    t_created: f64,
}

#[derive(Default)]
struct HandleState {
    last_writer: Option<u64>,
    readers_since_write: Vec<u64>,
}

#[derive(Default)]
struct Sched {
    tasks: HashMap<u64, TaskState>,
    /// Min-heap on (priority, id): lowest priority value runs first; ties
    /// resolve to creation order, so the default (priority == id) is FIFO.
    ready: BinaryHeap<Reverse<(u64, u64)>>,
    handles: HashMap<Handle, HandleState>,
    next_id: u64,
    unfinished: usize,
    shutdown: bool,
    /// First task failure; sticky — the runtime is fail-stop after it.
    failure: Option<TaskError>,
}

impl Sched {
    /// Renders the task-graph wavefront: what is running, ready, blocked.
    fn wavefront(&self) -> String {
        use std::fmt::Write;
        let ready_ids: std::collections::HashSet<u64> =
            self.ready.iter().map(|Reverse((_p, id))| *id).collect();
        let mut running = Vec::new();
        let mut ready = Vec::new();
        let mut blocked = Vec::new();
        let mut ids: Vec<&u64> = self.tasks.keys().collect();
        ids.sort();
        for id in ids {
            let t = &self.tasks[id];
            if t.body.is_none() {
                running.push(format!("{} (id {id})", t.label));
            } else if ready_ids.contains(id) {
                ready.push(format!("{} (id {id})", t.label));
            } else {
                blocked.push(format!("{} (id {id}, {} pending deps)", t.label, t.pending));
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "  running: [{}]", running.join(", "));
        let _ = writeln!(out, "  ready:   [{}]", ready.join(", "));
        let _ = writeln!(out, "  blocked: [{}]", blocked.join(", "));
        let _ = write!(out, "  unfinished tasks: {}", self.unfinished);
        out
    }
}

/// Best-effort text of a panic payload.
fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

struct Inner {
    sched: Mutex<Sched>,
    cv_ready: Condvar,
    cv_done: Condvar,
    trace: Option<TraceSink>,
    clock: WallClock,
    rank: usize,
    /// Optional taskwait watchdog (None = wait forever, the default).
    taskwait_timeout: Option<Duration>,
    /// Total task re-executions performed (recovery accounting).
    retries: AtomicU64,
}

/// Builder for [`Runtime`].
pub struct RuntimeBuilder {
    nthreads: usize,
    trace: Option<TraceSink>,
    clock: WallClock,
    rank: usize,
    taskwait_timeout: Option<Duration>,
}

impl RuntimeBuilder {
    /// Attaches a trace sink; task lifecycles are recorded into it.
    pub fn trace(mut self, sink: TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Uses an external clock (e.g. the vmpi world clock) for timestamps.
    pub fn clock(mut self, clock: WallClock) -> Self {
        self.clock = clock;
        self
    }

    /// Sets the rank recorded in trace lanes (default 0).
    pub fn rank(mut self, rank: usize) -> Self {
        self.rank = rank;
        self
    }

    /// Arms the taskwait watchdog: a `taskwait` that outlives `timeout`
    /// returns [`TaskError::Timeout`] carrying the task-graph wavefront
    /// instead of hanging (default: wait forever).
    pub fn taskwait_timeout(mut self, timeout: Duration) -> Self {
        self.taskwait_timeout = Some(timeout);
        self
    }

    /// Starts the worker pool.
    ///
    /// # Panics
    /// Panics if the OS refuses to spawn a worker thread, after shutting
    /// down and joining the workers already started.
    pub fn build(self) -> Runtime {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Starts the worker pool, reporting OS thread-spawn failure as a
    /// typed [`TaskError::Spawn`] instead of panicking. On failure every
    /// already-started worker is shut down and joined before the error is
    /// returned, so nothing leaks.
    pub(crate) fn try_build(self) -> Result<Runtime, TaskError> {
        let inner = Arc::new(Inner {
            sched: Mutex::new(Sched::default()),
            cv_ready: Condvar::new(),
            cv_done: Condvar::new(),
            trace: self.trace,
            clock: self.clock,
            rank: self.rank,
            taskwait_timeout: self.taskwait_timeout,
            retries: AtomicU64::new(0),
        });
        let mut workers = Vec::with_capacity(self.nthreads);
        for w in 0..self.nthreads {
            let handle = std::thread::Builder::new()
                .name(format!("taskrt-r{}w{}", self.rank, w))
                .spawn({
                    let inner = Arc::clone(&inner);
                    move || worker_loop(&inner, w)
                });
            match handle {
                Ok(h) => workers.push(h),
                Err(e) => {
                    // Tear the partial pool down before reporting: no task
                    // has run yet (nothing was spawned into the runtime),
                    // so a plain drain-and-join leaves no state behind.
                    let started = workers.len();
                    let mut rt = Runtime { inner, workers };
                    rt.shutdown_impl();
                    drop(rt);
                    return Err(TaskError::Spawn {
                        worker: w,
                        started,
                        message: e.to_string(),
                    });
                }
            }
        }
        Ok(Runtime { inner, workers })
    }
}

/// A per-rank task runtime with `nthreads` workers.
pub struct Runtime {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// Builder with `nthreads` worker threads.
    pub fn builder(nthreads: usize) -> RuntimeBuilder {
        assert!(nthreads > 0, "Runtime: need at least one worker");
        RuntimeBuilder {
            nthreads,
            trace: None,
            clock: WallClock::new(),
            rank: 0,
            taskwait_timeout: None,
        }
    }

    /// Convenience: a plain runtime with `nthreads` workers.
    pub fn new(nthreads: usize) -> Runtime {
        Self::builder(nthreads).build()
    }

    /// Number of worker threads.
    pub fn nthreads(&self) -> usize {
        self.workers.len()
    }

    /// Submits a task. `deps` declare the regions it touches; the runtime
    /// orders it after every conflicting earlier task (flow/anti/output
    /// dependencies) and otherwise runs it as soon as a worker is free.
    pub fn spawn<F>(&self, label: &str, deps: &[Dep], body: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.spawn_prio(label, None, deps, body)
    }

    /// Like [`Runtime::spawn`] with an explicit scheduling priority (lower
    /// runs first; equal priorities run in creation order). The miniapp
    /// gives every task of band `b` priority `b`, which makes every rank
    /// drain bands in the same order — the invariant behind the
    /// deadlock-freedom argument for blocking collectives inside tasks.
    pub(crate) fn spawn_prio<F>(&self, label: &str, priority: Option<u64>, deps: &[Dep], body: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.submit(label, priority, deps, TaskBody::Once(Box::new(body)))
    }

    /// Submits a **retryable** task: `body` must be idempotent over its
    /// input snapshot (read inputs, compute, write outputs last — the
    /// shape of all the miniapp's band tasks), because on a panic the same
    /// worker re-executes it in place after a bounded exponential backoff
    /// (`policy`), up to `policy.max_retries` times, before the failure
    /// escalates to [`TaskError::Failed`] as usual. Successors only ever
    /// observe the final outcome; the dependency graph is unaware of
    /// retries. Re-executions are counted in [`Runtime::retries`].
    pub fn spawn_retryable<F>(
        &self,
        label: &str,
        priority: Option<u64>,
        deps: &[Dep],
        policy: RetryPolicy,
        body: F,
    ) where
        F: Fn() + Send + Sync + 'static,
    {
        self.submit(
            label,
            priority,
            deps,
            TaskBody::Retryable {
                body: Arc::new(body),
                policy,
            },
        )
    }

    /// Total task re-executions performed by this runtime so far.
    pub fn retries(&self) -> u64 {
        self.inner.retries.load(Ordering::Relaxed)
    }

    /// [`Runtime::spawn_prio`] for an already-boxed body (the graph
    /// submission path, which stores heterogeneous bodies).
    pub(crate) fn spawn_boxed(
        &self,
        label: &str,
        priority: Option<u64>,
        deps: &[Dep],
        body: Box<dyn FnOnce() + Send + 'static>,
    ) {
        self.submit(label, priority, deps, TaskBody::Once(body))
    }

    fn submit(&self, label: &str, priority: Option<u64>, deps: &[Dep], body: TaskBody) {
        let t_created = self.inner.clock.now();
        let mut sched = self.inner.sched.lock();
        assert!(!sched.shutdown, "Runtime: spawn after shutdown");
        let id = sched.next_id;
        let priority = priority.unwrap_or(id);
        sched.next_id += 1;
        sched.unfinished += 1;

        // Dependency edges per the OmpSs rules.
        let mut pending = 0;
        let mut pred_labels: Vec<String> = Vec::new();
        let predecessor_of =
            |sched: &mut Sched, pred: u64, id: u64, pending: &mut usize, labels: &mut Vec<String>| {
                if let Some(t) = sched.tasks.get_mut(&pred) {
                    if !t.successors.contains(&id) {
                        t.successors.push(id);
                        *pending += 1;
                        labels.push(t.label.clone());
                    }
                }
            };
        for dep in deps {
            // Collect predecessor ids first to appease the borrow checker.
            let (writer, readers): (Option<u64>, Vec<u64>) = {
                let hs = sched.handles.entry(dep.handle).or_default();
                (hs.last_writer, hs.readers_since_write.clone())
            };
            if dep.access.writes() {
                if let Some(w) = writer {
                    predecessor_of(&mut sched, w, id, &mut pending, &mut pred_labels);
                }
                for r in readers {
                    if r != id {
                        predecessor_of(&mut sched, r, id, &mut pending, &mut pred_labels);
                    }
                }
                let hs = sched.handles.get_mut(&dep.handle).expect("handle present");
                hs.last_writer = Some(id);
                hs.readers_since_write.clear();
            } else {
                if let Some(w) = writer {
                    predecessor_of(&mut sched, w, id, &mut pending, &mut pred_labels);
                }
                let hs = sched.handles.get_mut(&dep.handle).expect("handle present");
                if !hs.readers_since_write.contains(&id) {
                    hs.readers_since_write.push(id);
                }
            }
        }

        sched.tasks.insert(
            id,
            TaskState {
                label: label.to_string(),
                priority,
                body: Some(body),
                pending,
                successors: Vec::new(),
                pred_labels,
                t_created,
            },
        );
        if pending == 0 {
            sched.ready.push(Reverse((priority, id)));
            drop(sched);
            self.inner.cv_ready.notify_one();
        }
    }

    /// OmpSs `taskloop`: splits `range` into chunks of `grain` iterations
    /// and submits one dependency-free task per chunk.
    pub fn taskloop<F>(&self, label: &str, range: std::ops::Range<usize>, grain: usize, body: F)
    where
        F: Fn(std::ops::Range<usize>) + Send + Sync + 'static,
    {
        assert!(grain > 0, "taskloop: grain must be positive");
        let body = Arc::new(body);
        let mut start = range.start;
        let mut chunk_idx = 0;
        while start < range.end {
            let end = (start + grain).min(range.end);
            let body = Arc::clone(&body);
            self.spawn(&format!("{label}[{chunk_idx}]"), &[], move || body(start..end));
            start = end;
            chunk_idx += 1;
        }
    }

    /// Blocks until every task submitted so far has finished (`taskwait`).
    ///
    /// # Panics
    /// Re-raises the first task failure as a panic whose message carries
    /// the failed task's label, dependency chain, and original payload
    /// text; panics likewise when the watchdog (if armed) expires.
    /// [`Runtime::try_taskwait`] is the non-panicking variant.
    pub fn taskwait(&self) {
        self.try_taskwait().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Runtime::taskwait`], surfacing failures as values: the first
    /// task panic comes back as [`TaskError::Failed`] (sticky — the
    /// runtime is fail-stop after it and skips remaining task bodies), a
    /// watchdog expiry as [`TaskError::Timeout`] with the task-graph
    /// wavefront.
    pub fn try_taskwait(&self) -> Result<(), TaskError> {
        let deadline = self.inner.taskwait_timeout.map(|t| Instant::now() + t);
        let mut sched = self.inner.sched.lock();
        loop {
            if let Some(failure) = &sched.failure {
                return Err(failure.clone());
            }
            if sched.unfinished == 0 {
                return Ok(());
            }
            match deadline {
                None => self.inner.cv_done.wait(&mut sched),
                Some(d) => {
                    if self.inner.cv_done.wait_until(&mut sched, d).timed_out() {
                        return Err(TaskError::Timeout {
                            waited: self.inner.taskwait_timeout.expect("deadline implies timeout"),
                            wavefront: sched.wavefront(),
                        });
                    }
                }
            }
        }
    }

    /// Stops the workers after draining outstanding work.
    ///
    /// # Panics
    /// Panics if a task failure occurred and was never observed via
    /// `taskwait` (so failures cannot slip by silently);
    /// [`Runtime::try_shutdown`] is the non-panicking variant.
    pub fn shutdown(self) {
        self.try_shutdown().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Stops the workers after draining outstanding work, reporting any
    /// unobserved task failure instead of panicking.
    pub fn try_shutdown(mut self) -> Result<(), TaskError> {
        self.shutdown_impl();
        let sched = self.inner.sched.lock();
        match &sched.failure {
            Some(f) => Err(f.clone()),
            None => Ok(()),
        }
    }

    fn shutdown_impl(&mut self) {
        {
            let mut sched = self.inner.sched.lock();
            sched.shutdown = true;
        }
        self.inner.cv_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_impl();
        }
    }
}

/// Fans `f(0..n)` out over a private pool of `nthreads` workers and
/// returns the results in slot order — the independent-task map the
/// Monte-Carlo planner uses to run seeded fleet simulations concurrently.
/// Each slot's value depends only on its index, so the output is
/// deterministic regardless of execution interleaving. Panics propagate
/// the first task failure, like [`Runtime::taskwait`].
pub fn parallel_map<T, F>(nthreads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    if n == 0 {
        return Vec::new();
    }
    let rt = Runtime::new(nthreads.clamp(1, n));
    let f = Arc::new(f);
    let slots: Arc<Mutex<Vec<Option<T>>>> =
        Arc::new(Mutex::new((0..n).map(|_| None).collect()));
    for i in 0..n {
        let f = Arc::clone(&f);
        let slots = Arc::clone(&slots);
        rt.spawn(&format!("pmap.{i}"), &[], move || {
            let v = f(i);
            slots.lock()[i] = Some(v);
        });
    }
    rt.taskwait();
    rt.shutdown();
    let mut slots = slots.lock();
    slots
        .iter_mut()
        .enumerate()
        .map(|(i, s)| s.take().unwrap_or_else(|| panic!("parallel_map: slot {i} never filled")))
        .collect()
}

fn worker_loop(inner: &Inner, worker_idx: usize) {
    set_current_thread(worker_idx);
    loop {
        let (id, body, label, t_created) = {
            let mut sched = inner.sched.lock();
            loop {
                if let Some(Reverse((_prio, id))) = sched.ready.pop() {
                    let failed = sched.failure.is_some();
                    let t = sched.tasks.get_mut(&id).expect("ready task exists");
                    let mut body = t.body.take().expect("task not yet run");
                    if failed {
                        // Fail-stop: after the first failure we stop running
                        // bodies but keep the graph bookkeeping so everything
                        // drains and nothing deadlocks.
                        body = TaskBody::Once(Box::new(|| {}));
                    }
                    break (id, body, t.label.clone(), t.t_created);
                }
                if sched.shutdown {
                    return;
                }
                inner.cv_ready.wait(&mut sched);
            }
        };

        let t_start = inner.clock.now();
        // `attempts` counts re-executions; the trace record spans all of
        // them (a retried task reads as one long task, which is exactly the
        // overhead the recovery bench measures).
        let (result, attempts) = match body {
            TaskBody::Once(f) => (std::panic::catch_unwind(AssertUnwindSafe(f)), 0),
            TaskBody::Retryable { body, policy } => {
                let mut attempt = 0u32;
                loop {
                    match std::panic::catch_unwind(AssertUnwindSafe(|| body())) {
                        Ok(()) => break (Ok(()), attempt),
                        Err(p) => {
                            if attempt >= policy.max_retries {
                                break (Err(p), attempt);
                            }
                            inner.retries.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(policy.backoff(attempt));
                            attempt += 1;
                        }
                    }
                }
            }
        };
        let t_end = inner.clock.now();

        if let Some(sink) = &inner.trace {
            sink.task(TaskRecord {
                lane: Lane::new(inner.rank, worker_idx),
                task_id: id,
                label,
                t_created,
                t_start,
                t_end,
            });
        }

        let mut sched = inner.sched.lock();
        let task = sched.tasks.remove(&id).expect("task exists");
        if let Err(p) = result {
            if sched.failure.is_none() {
                let mut message = payload_text(p.as_ref());
                if attempts > 0 {
                    message = format!("{message} (retry budget exhausted after {} attempts)",
                        attempts + 1);
                }
                sched.failure = Some(TaskError::Failed {
                    label: task.label.clone(),
                    chain: task.pred_labels.clone(),
                    message,
                });
            }
        }
        let mut woke = 0;
        for succ in task.successors {
            if let Some(s) = sched.tasks.get_mut(&succ) {
                s.pending -= 1;
                if s.pending == 0 {
                    let p = s.priority;
                    sched.ready.push(Reverse((p, succ)));
                    woke += 1;
                }
            }
        }
        sched.unfinished -= 1;
        let done = sched.unfinished == 0 || sched.failure.is_some();
        drop(sched);
        for _ in 0..woke {
            inner.cv_ready.notify_one();
        }
        if done {
            inner.cv_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::Shared;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_independent_tasks() {
        let rt = Runtime::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            rt.spawn("inc", &[], move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.taskwait();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn parallel_map_returns_slot_ordered_results() {
        let out = parallel_map(4, 17, |i| i * i);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        assert!(parallel_map(3, 0, |i| i).is_empty());
        // More workers than slots clamps instead of spawning idle threads.
        assert_eq!(parallel_map(64, 2, |i| i + 1), vec![1, 2]);
    }

    #[test]
    fn flow_dependency_orders_tasks() {
        let rt = Runtime::new(4);
        let data = Shared::new(Vec::<u32>::new());
        for i in 0..50u32 {
            let d = data.clone();
            rt.spawn("append", &[data.dep_inout()], move || {
                d.write().push(i);
            });
        }
        rt.taskwait();
        assert_eq!(*data.read(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn readers_run_concurrently_between_writers() {
        let rt = Runtime::new(4);
        let data = Shared::new(1u64);
        let sum = Shared::new(0u64);
        let d = data.clone();
        rt.spawn("write", &[data.dep_out()], move || {
            *d.write() = 10;
        });
        for _ in 0..8 {
            let d = data.clone();
            let s = sum.clone();
            rt.spawn("read", &[data.dep_in(), sum.dep_inout()], move || {
                let v = *d.read();
                *s.write() += v;
            });
        }
        let d = data.clone();
        rt.spawn("write2", &[data.dep_out()], move || {
            *d.write() = 99;
        });
        rt.taskwait();
        // All 8 readers must have seen 10 (after write, before write2).
        assert_eq!(*sum.read(), 80);
        assert_eq!(*data.read(), 99);
    }

    #[test]
    fn taskwait_then_more_tasks() {
        let rt = Runtime::new(2);
        let c = Arc::new(AtomicUsize::new(0));
        let c1 = Arc::clone(&c);
        rt.spawn("a", &[], move || {
            c1.fetch_add(1, Ordering::Relaxed);
        });
        rt.taskwait();
        assert_eq!(c.load(Ordering::Relaxed), 1);
        let c2 = Arc::clone(&c);
        rt.spawn("b", &[], move || {
            c2.fetch_add(10, Ordering::Relaxed);
        });
        rt.taskwait();
        assert_eq!(c.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn taskloop_covers_range_in_grains() {
        let rt = Runtime::new(4);
        let hits = Arc::new(Mutex::new(vec![0u32; 103]));
        let h = Arc::clone(&hits);
        rt.taskloop("loop", 0..103, 10, move |r| {
            let mut g = h.lock();
            for i in r {
                g[i] += 1;
            }
        });
        rt.taskwait();
        assert!(hits.lock().iter().all(|&v| v == 1));
    }

    #[test]
    #[should_panic(expected = "task exploded")]
    fn task_panic_reaches_taskwait() {
        let rt = Runtime::new(2);
        rt.spawn("bad", &[], || panic!("task exploded"));
        rt.taskwait();
    }

    #[test]
    fn try_build_starts_a_working_pool() {
        let rt = Runtime::builder(3).try_build().expect("spawn succeeds");
        let c = Arc::new(AtomicUsize::new(0));
        for _ in 0..6 {
            let c = Arc::clone(&c);
            rt.spawn("t", &[], move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.try_taskwait().expect("no failures");
        rt.try_shutdown().expect("clean shutdown");
        assert_eq!(c.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn shutdown_drains_work() {
        let rt = Runtime::new(2);
        let c = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&c);
            rt.spawn("t", &[], move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.taskwait();
        rt.shutdown();
        assert_eq!(c.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn trace_records_task_lifecycle() {
        let sink = TraceSink::new();
        let rt = Runtime::builder(2).trace(sink.clone()).rank(3).build();
        rt.spawn("traced", &[], || {});
        rt.taskwait();
        rt.shutdown();
        let t = sink.finish();
        assert_eq!(t.tasks.len(), 1);
        let rec = &t.tasks[0];
        assert_eq!(rec.label, "traced");
        assert_eq!(rec.lane.rank, 3);
        assert!(rec.t_start >= rec.t_created);
        assert!(rec.t_end >= rec.t_start);
    }

    #[test]
    fn fifo_start_order_for_independent_tasks() {
        // With one worker, independent tasks must start in creation order.
        let rt = Runtime::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..20 {
            let o = Arc::clone(&order);
            rt.spawn("t", &[], move || o.lock().push(i));
        }
        rt.taskwait();
        assert_eq!(*order.lock(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn diamond_dependency() {
        // a -> (b, c) -> d
        let rt = Runtime::new(4);
        let x = Shared::new(0u64);
        let y = Shared::new(0u64);
        let z = Shared::new(0u64);
        let xs = x.clone();
        rt.spawn("a", &[x.dep_out()], move || *xs.write() = 5);
        let (xr, yw) = (x.clone(), y.clone());
        rt.spawn("b", &[x.dep_in(), y.dep_out()], move || {
            *yw.write() = *xr.read() * 2
        });
        let (xr, zw) = (x.clone(), z.clone());
        rt.spawn("c", &[x.dep_in(), z.dep_out()], move || {
            *zw.write() = *xr.read() + 1
        });
        let (yr, zr, xw) = (y.clone(), z.clone(), x.clone());
        rt.spawn("d", &[y.dep_in(), z.dep_in(), x.dep_inout()], move || {
            *xw.write() = *yr.read() + *zr.read()
        });
        rt.taskwait();
        assert_eq!(*x.read(), 16);
    }
}
