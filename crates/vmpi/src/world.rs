//! The virtual MPI "universe": one OS thread per rank inside a single
//! process, with shared-memory mailboxes and collective staging areas.
//!
//! This substitutes for the on-node Intel MPI of the paper's KNL testbed.
//! Semantics (communicator topology, alltoall/alltoallv dataflow) are
//! identical to MPI; on-node MPI implementations move bytes through shared
//! memory just like this does.
//!
//! ## Hardening
//!
//! The world carries three robustness mechanisms on top of the transport:
//!
//! * an optional **chaos engine** ([`fftx_fault::ChaosEngine`]) injecting
//!   deterministic message delay / reordering / duplication / bounded drop
//!   and rank stalls — enabled via [`World::with_chaos`] or the
//!   `FFTX_CHAOS_SEED` environment variable, and completely absent (one
//!   `Option` branch per operation) otherwise;
//! * a **watchdog**: every blocking wait carries the world timeout and, on
//!   expiry, produces a `WorldShared::diagnostic_snapshot` — per-rank last
//!   events, pending collective slots, mailbox depths — instead of hanging;
//! * an **abort flag**: an unrecoverable local error (a dropped split-phase
//!   request) marks the whole world failed, so peers blocked on collectives
//!   fail fast with a typed error instead of waiting out the timeout.

use crate::comm::Communicator;
use crate::error::VmpiError;
use fftx_fault::{ChaosConfig, ChaosEngine, FaultReport};
use fftx_trace::{TraceSink, WallClock};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Matching key for point-to-point messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct P2pKey {
    pub comm_id: u64,
    pub src: usize,
    pub dst: usize,
    pub tag: u32,
}

/// One message on the wire. Under chaos, `seq` restores per-channel order
/// and identifies duplicate copies; without chaos every envelope is
/// `seq = 0, dup = false` and the queue is plain FIFO.
pub(crate) struct Envelope {
    /// The payload; `None` for duplicate decoys (which the receiver always
    /// discards, so they never need the data).
    pub payload: Option<Box<dyn Any + Send>>,
    /// Per-channel sequence number stamped by the sender.
    pub seq: u64,
    /// Marks an injected duplicate copy.
    pub dup: bool,
}

/// Per-channel mailbox: the queue plus the receiver's in-order cursor.
#[derive(Default)]
pub(crate) struct Mailbox {
    pub queue: VecDeque<Envelope>,
    /// Next sequence number the receiver delivers (chaos mode only).
    pub next_seq: u64,
}

/// Collective operation kinds, part of the matching key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CollKind {
    Barrier,
    Bcast,
    Allreduce,
    Allgather,
    Alltoall,
    Alltoallv,
    Split,
    Dup,
}

/// Matching key for collectives: every rank of `comm_id` calling the same
/// kind with the same tag and per-(kind,tag) sequence number participates in
/// the same operation instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CollKey {
    pub comm_id: u64,
    pub kind: CollKind,
    pub tag: u32,
    pub seq: u64,
}

/// One in-flight collective.
pub(crate) struct CollSlot {
    /// Per-participant contribution, keyed by index within the communicator.
    pub contributions: HashMap<usize, Box<dyn Any + Send>>,
    /// Per-participant results, filled by the completer (the last arriver).
    pub results: HashMap<usize, Box<dyn Any + Send>>,
    /// How many participants still have to pick up their result.
    pub readers_left: usize,
    /// Set once the completer has produced `results`.
    pub done: bool,
}

/// The last thing a rank was observed doing (watchdog diagnostics).
#[derive(Debug, Clone, Copy)]
pub(crate) enum RankEvent {
    Spawned,
    Send { comm: u64, dst: usize, tag: u32 },
    RecvWait { comm: u64, src: usize, tag: u32 },
    RecvDone { comm: u64, src: usize, tag: u32 },
    CollEnter { key: CollKey },
    CollDone { key: CollKey },
}

impl std::fmt::Display for RankEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankEvent::Spawned => write!(f, "spawned"),
            RankEvent::Send { comm, dst, tag } => {
                write!(f, "send(comm={comm}, dst={dst}, tag={tag})")
            }
            RankEvent::RecvWait { comm, src, tag } => {
                write!(f, "blocked in recv(comm={comm}, src={src}, tag={tag})")
            }
            RankEvent::RecvDone { comm, src, tag } => {
                write!(f, "received(comm={comm}, src={src}, tag={tag})")
            }
            RankEvent::CollEnter { key } => write!(f, "entered collective {key:?}"),
            RankEvent::CollDone { key } => write!(f, "finished collective {key:?}"),
        }
    }
}

/// A rank's last event plus its world-clock timestamp.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankStatus {
    pub event: RankEvent,
    pub at: f64,
}

pub(crate) struct WorldShared {
    pub mailboxes: Mutex<HashMap<P2pKey, Mailbox>>,
    pub mail_cv: Condvar,
    pub collectives: Mutex<HashMap<CollKey, CollSlot>>,
    pub coll_cv: Condvar,
    pub next_comm_id: AtomicU64,
    pub trace: Option<TraceSink>,
    pub clock: WallClock,
    pub timeout: Duration,
    /// Fault injection; `None` (the default) costs one branch per op.
    pub chaos: Option<Arc<ChaosEngine>>,
    /// Fast-path flag for [`WorldShared::abort_cause`].
    pub aborted: AtomicBool,
    /// First unrecoverable error; sticky.
    pub abort_slot: Mutex<Option<VmpiError>>,
    /// Per-world-rank last events for the watchdog snapshot.
    pub status: Mutex<Vec<RankStatus>>,
}

impl WorldShared {
    /// Records `event` as `world_rank`'s most recent activity.
    pub(crate) fn note(&self, world_rank: usize, event: RankEvent) {
        let mut st = self.status.lock();
        if world_rank < st.len() {
            st[world_rank] = RankStatus {
                event,
                at: self.clock.now(),
            };
        }
    }

    /// Marks the world failed (first cause wins) and wakes every waiter so
    /// blocked collectives fail fast instead of timing out.
    pub(crate) fn abort(&self, cause: VmpiError) {
        {
            let mut slot = self.abort_slot.lock();
            if slot.is_none() {
                *slot = Some(cause);
            }
        }
        self.aborted.store(true, Ordering::Release);
        // Lock-then-notify so a waiter between its flag check and its wait
        // cannot miss the wakeup.
        drop(self.mailboxes.lock());
        self.mail_cv.notify_all();
        drop(self.collectives.lock());
        self.coll_cv.notify_all();
    }

    /// The sticky abort cause, if any. One atomic load when healthy.
    pub(crate) fn abort_cause(&self) -> Option<VmpiError> {
        if !self.aborted.load(Ordering::Acquire) {
            return None;
        }
        self.abort_slot.lock().clone()
    }

    /// Renders the watchdog snapshot: per-rank last events, pending
    /// collective slots, and mailbox depths. Locks are taken one at a time
    /// (callers must hold none of them).
    pub(crate) fn diagnostic_snapshot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("world snapshot at timeout:\n");
        {
            let st = self.status.lock();
            for (r, s) in st.iter().enumerate() {
                let _ = writeln!(out, "  rank {r}: last event {} at t={:.6}s", s.event, s.at);
            }
        }
        {
            let slots = self.collectives.lock();
            if slots.is_empty() {
                out.push_str("  no pending collective slots\n");
            }
            let mut keys: Vec<&CollKey> = slots.keys().collect();
            keys.sort_by_key(|k| (k.comm_id, k.tag, k.seq));
            for key in keys {
                let slot = &slots[key];
                let _ = writeln!(
                    out,
                    "  pending collective {key:?}: {} arrived, done={}, readers_left={}",
                    slot.contributions.len(),
                    slot.done,
                    slot.readers_left
                );
            }
        }
        {
            let boxes = self.mailboxes.lock();
            let mut keys: Vec<&P2pKey> = boxes
                .iter()
                .filter(|(_, mb)| !mb.queue.is_empty())
                .map(|(k, _)| k)
                .collect();
            keys.sort_by_key(|k| (k.comm_id, k.src, k.dst, k.tag));
            for key in keys {
                let _ = writeln!(
                    out,
                    "  undelivered p2p {key:?}: {} queued",
                    boxes[key].queue.len()
                );
            }
        }
        out
    }
}

/// Configuration and entry point of a virtual MPI execution.
pub struct World {
    nranks: usize,
    trace: Option<TraceSink>,
    timeout: Duration,
    chaos: Option<Arc<ChaosEngine>>,
}

impl World {
    /// A world of `nranks` virtual ranks. When `FFTX_CHAOS_SEED` is set in
    /// the environment, the corresponding chaos schedule is applied (see
    /// [`ChaosConfig::from_env`]) — that is how whole test suites run under
    /// fault injection without code changes.
    pub fn new(nranks: usize) -> Self {
        assert!(nranks > 0, "World: need at least one rank");
        World {
            nranks,
            trace: None,
            timeout: Duration::from_secs(60),
            chaos: ChaosConfig::from_env().map(|cfg| Arc::new(ChaosEngine::new(cfg))),
        }
    }

    /// Attaches a trace sink; every communication operation is recorded.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Sets the blocking-wait timeout after which a stuck operation panics
    /// with a deadlock diagnostic (default 60 s).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Runs the world under `cfg`'s deterministic fault schedule
    /// (overriding any environment-variable chaos).
    pub fn with_chaos(mut self, cfg: ChaosConfig) -> Self {
        self.chaos = Some(Arc::new(ChaosEngine::new(cfg)));
        self
    }

    /// The chaos engine's report so far (`None` when chaos is disabled).
    /// Call after [`World::run`] for the complete fault schedule; the
    /// engine outlives the run.
    pub fn fault_report(&self) -> Option<FaultReport> {
        self.chaos.as_ref().map(|e| e.report())
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Spawns one thread per rank, hands each a world communicator, and
    /// returns the per-rank results in rank order.
    ///
    /// A panic on any rank propagates out of `run` (after the scope joins
    /// the remaining threads, which may themselves hit the deadlock timeout
    /// if they were waiting for the failed rank).
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Communicator) -> T + Send + Sync,
    {
        let shared = Arc::new(WorldShared {
            mailboxes: Mutex::new(HashMap::new()),
            mail_cv: Condvar::new(),
            collectives: Mutex::new(HashMap::new()),
            coll_cv: Condvar::new(),
            next_comm_id: AtomicU64::new(1),
            trace: self.trace.clone(),
            clock: WallClock::new(),
            timeout: self.timeout,
            chaos: self.chaos.clone(),
            aborted: AtomicBool::new(false),
            abort_slot: Mutex::new(None),
            status: Mutex::new(vec![
                RankStatus {
                    event: RankEvent::Spawned,
                    at: 0.0,
                };
                self.nranks
            ]),
        });
        let ranks: Arc<Vec<usize>> = Arc::new((0..self.nranks).collect());
        let f = &f;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.nranks);
            for rank in 0..self.nranks {
                let shared = Arc::clone(&shared);
                let ranks = Arc::clone(&ranks);
                handles.push(scope.spawn(move || {
                    let comm = Communicator::world(shared, ranks, rank);
                    f(&comm)
                }));
            }
            handles
                .into_iter()
                .map(|h| {
                    // Re-raise the original payload so callers (and tests)
                    // see the rank's own panic message.
                    h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_returns_results_in_rank_order() {
        let out = World::new(4).run(|comm| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn single_rank_world() {
        let out = World::new(1).run(|comm| (comm.rank(), comm.size()));
        assert_eq!(out, vec![(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        World::new(0);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn rank_panic_propagates() {
        World::new(2)
            .with_timeout(Duration::from_millis(200))
            .run(|comm| {
                if comm.rank() == 1 {
                    panic!("boom");
                }
            });
    }
}
