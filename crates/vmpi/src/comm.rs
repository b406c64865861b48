//! Communicators: rank identity, point-to-point messaging, collectives,
//! `split`/`dup`. Collectives are *tag-qualified*: concurrent collectives on
//! the same communicator from different tasks match by `(kind, tag, seq)`,
//! which is what lets the task-based miniapp versions run several alltoalls
//! in flight at once (one per in-flight FFT task).
//!
//! ## Deadlock-freedom with blocking collectives inside tasks
//!
//! A collective returns once all communicator members have deposited their
//! contribution. With FIFO task scheduling and the same task-creation order
//! on every rank, the set of tags a rank's workers can be blocked on is a
//! window of the oldest unfinished tags; the globally oldest unfinished tag
//! is inside every rank's window, so some worker on every rank eventually
//! deposits for it and the system always makes progress. The
//! [`crate::world::World`] timeout turns any violation of this discipline
//! (mismatched tags, missing participants) into a loud failure — a
//! [`VmpiError::Timeout`] carrying a world snapshot from the `try_*`
//! variants, a panic formatting the same error from the classic calls —
//! instead of a hang.
//!
//! ## Fault injection
//!
//! When the world carries a chaos engine, `send` asks it for a wire plan
//! (drop-with-retry, delay, duplication, reordering) and `recv` restores
//! per-channel order by sequence number while discarding duplicate copies;
//! collectives consult the engine's rank-stall schedule on entry. All of it
//! is semantically lossless: a chaotic run delivers exactly the payloads of
//! a clean run, in the same per-channel order, just later — which is what
//! the chaos-determinism property tests pin down.

use crate::error::VmpiError;
use crate::integrity::{checksum_slice, Checksum};
use crate::world::{
    CollKey, CollKind, CollSlot, Envelope, Mailbox, P2pKey, RankEvent, WorldShared,
};
use fftx_fault::MessagePlan;
use fftx_trace::{current_thread, CommOp, CommRecord, Lane};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// A rank's staged variable-length contribution: flat payload,
/// per-destination counts, per-destination pack-time checksums.
type VarStaged<T> = (Vec<T>, Vec<usize>, Vec<u64>);

/// A group of ranks with a private communication context.
#[derive(Clone)]
pub struct Communicator {
    shared: Arc<WorldShared>,
    id: u64,
    /// World ranks of the members, in index order.
    ranks: Arc<Vec<usize>>,
    /// This rank's index within `ranks`.
    index: usize,
    /// Per-(kind, tag) sequence counters, shared among clones on this rank.
    seq: Arc<Mutex<HashMap<(CollKind, u32), u64>>>,
}

impl Communicator {
    pub(crate) fn world(shared: Arc<WorldShared>, ranks: Arc<Vec<usize>>, rank: usize) -> Self {
        Communicator {
            shared,
            id: 0,
            ranks,
            index: rank,
            seq: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Rank of the caller inside this communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.index
    }

    /// Number of ranks in this communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// The caller's rank in the world communicator.
    #[inline]
    pub fn world_rank(&self) -> usize {
        self.ranks[self.index]
    }

    /// World ranks of all members, in communicator order.
    pub fn members(&self) -> &[usize] {
        &self.ranks
    }

    /// Stable communicator identifier (0 is the world communicator).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current time on the world clock (seconds since `World::run` began).
    pub fn now(&self) -> f64 {
        self.shared.clock.now()
    }

    /// A clone of the world clock, so other components (e.g. the task
    /// runtime) can stamp trace records on the same time base.
    pub fn clock(&self) -> fftx_trace::WallClock {
        self.shared.clock.clone()
    }

    /// The trace sink attached to the world, if any.
    pub fn trace_sink(&self) -> Option<fftx_trace::TraceSink> {
        self.shared.trace.clone()
    }

    /// Number of collective slots currently staged in the world (all
    /// communicators). Useful to assert the absence of slot leaks after a
    /// failure was handled.
    pub fn pending_collectives(&self) -> usize {
        self.shared.collectives.lock().len()
    }

    fn lane(&self) -> Lane {
        Lane::new(self.world_rank(), current_thread())
    }

    pub(crate) fn record(&self, op: CommOp, bytes: usize, t0: f64, t1: f64) {
        if let Some(sink) = &self.shared.trace {
            sink.comm(CommRecord {
                lane: self.lane(),
                op,
                comm_id: self.id,
                comm_size: self.size(),
                bytes,
                t_start: t0,
                t_end: t1,
            });
        }
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Sends `data` to `dst` (communicator index) with `tag`. Non-blocking
    /// in the buffered-send sense: the message is enqueued immediately
    /// (under chaos, after the injected retransmit/delay latency).
    pub fn send<T: Send + 'static>(&self, dst: usize, tag: u32, data: Vec<T>) {
        assert!(dst < self.size(), "send: dst {dst} out of range");
        let t0 = self.now();
        let bytes = std::mem::size_of::<T>() * data.len();
        let key = P2pKey {
            comm_id: self.id,
            src: self.index,
            dst,
            tag,
        };
        let plan = match &self.shared.chaos {
            Some(engine) => {
                let plan = engine.plan_message(self.id, self.index, dst, u64::from(tag));
                let latency = plan.latency(engine.config());
                if !latency.is_zero() {
                    // Retransmit backoff and wire delay happen before the
                    // message becomes visible.
                    std::thread::sleep(latency);
                }
                plan
            }
            None => MessagePlan::clean(0),
        };
        self.shared.note(
            self.world_rank(),
            RankEvent::Send {
                comm: self.id,
                dst,
                tag,
            },
        );
        if plan.lost {
            // Permanent loss (fatal chaos): the message never reaches the
            // mailbox and is never retransmitted. The receiver's watchdog
            // turns the gap into a typed timeout for the recovery layer.
            let t1 = self.now();
            self.record(CommOp::SendRecv, bytes, t0, t1);
            return;
        }
        {
            let mut boxes = self.shared.mailboxes.lock();
            let mailbox = boxes.entry(key).or_default();
            let envelope = Envelope {
                payload: Some(Box::new(data)),
                seq: plan.seq,
                dup: false,
            };
            if plan.reorder {
                // Jump the queue; the receiver restores order by `seq`.
                mailbox.queue.push_front(envelope);
            } else {
                mailbox.queue.push_back(envelope);
            }
            if plan.duplicate {
                // The copy carries no payload: the receiver discards
                // duplicates by sequence number without ever opening them.
                mailbox.queue.push_back(Envelope {
                    payload: None,
                    seq: plan.seq,
                    dup: true,
                });
            }
        }
        self.shared.mail_cv.notify_all();
        let t1 = self.now();
        self.record(CommOp::SendRecv, bytes, t0, t1);
    }

    /// Receives a message from `src` (communicator index) with `tag`,
    /// blocking until one arrives.
    ///
    /// # Panics
    /// Panics on element-type mismatch with the sender, or after the world
    /// timeout expires (deadlock diagnostic). [`Communicator::try_recv`] is
    /// the non-panicking variant.
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: u32) -> Vec<T> {
        self.try_recv(src, tag).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Communicator::recv`], but surfaces timeout and type-mismatch
    /// failures as [`VmpiError`] values instead of panicking.
    pub fn try_recv<T: Send + 'static>(&self, src: usize, tag: u32) -> Result<Vec<T>, VmpiError> {
        assert!(src < self.size(), "recv: src {src} out of range");
        let t0 = self.now();
        let key = P2pKey {
            comm_id: self.id,
            src,
            dst: self.index,
            tag,
        };
        self.shared.note(
            self.world_rank(),
            RankEvent::RecvWait {
                comm: self.id,
                src,
                tag,
            },
        );
        let chaos = self.shared.chaos.clone();
        let deadline = Instant::now() + self.shared.timeout;
        let mut boxes = self.shared.mailboxes.lock();
        let envelope = loop {
            let taken = boxes.get_mut(&key).and_then(|mailbox| {
                if chaos.is_none() {
                    mailbox.queue.pop_front()
                } else {
                    take_in_order(mailbox, key, chaos.as_deref())
                }
            });
            if let Some(envelope) = taken {
                // Without chaos an empty mailbox can be dropped; with chaos
                // it must persist — it carries the receiver's `next_seq`
                // cursor, which has to outlive queue drains.
                if chaos.is_none() && boxes.get(&key).is_some_and(|mb| mb.queue.is_empty()) {
                    boxes.remove(&key);
                }
                break envelope;
            }
            if self
                .shared
                .mail_cv
                .wait_until(&mut boxes, deadline)
                .timed_out()
            {
                drop(boxes);
                return Err(VmpiError::Timeout {
                    message: format!(
                        "vmpi deadlock: rank {} (comm {}) stuck in recv(src={src}, tag={tag})",
                        self.index, self.id
                    ),
                    diagnostic: self.shared.diagnostic_snapshot(),
                });
            }
        };
        drop(boxes);
        if let Some(engine) = &chaos {
            engine.note_delivery(self.id, src, self.index, u64::from(tag), envelope.seq);
        }
        let payload = envelope.payload.expect("delivered envelope has a payload");
        let data = match payload.downcast::<Vec<T>>() {
            Ok(data) => *data,
            Err(_) => return Err(VmpiError::TypeMismatch { context: "recv" }),
        };
        self.shared.note(
            self.world_rank(),
            RankEvent::RecvDone {
                comm: self.id,
                src,
                tag,
            },
        );
        let t1 = self.now();
        let bytes = std::mem::size_of::<T>() * data.len();
        self.record(CommOp::SendRecv, bytes, t0, t1);
        Ok(data)
    }

    // ------------------------------------------------------------------
    // Generic collective machinery
    // ------------------------------------------------------------------

    /// Runs one collective instance: deposits `contribution`, and on the
    /// last arrival runs `complete` over the contributions (in communicator
    /// index order) to produce per-index results.
    fn collective<C, R, F>(&self, kind: CollKind, tag: u32, contribution: C, complete: F) -> R
    where
        C: Send + 'static,
        R: Send + 'static,
        F: FnOnce(Vec<C>) -> Vec<R>,
    {
        self.try_collective(kind, tag, contribution, complete)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Communicator::collective`] with failures as values: the world
    /// abort flag is checked before posting (so an aborted world fails fast
    /// without staging a new slot), and the wait surfaces timeouts.
    fn try_collective<C, R, F>(
        &self,
        kind: CollKind,
        tag: u32,
        contribution: C,
        complete: F,
    ) -> Result<R, VmpiError>
    where
        C: Send + 'static,
        R: Send + 'static,
        F: FnOnce(Vec<C>) -> Vec<R>,
    {
        if let Some(cause) = self.shared.abort_cause() {
            return Err(cause);
        }
        self.collective_post(kind, tag, contribution, complete)
            .try_wait_inner()
    }

    /// [`Communicator::try_collective`] with a fault-injection hook: after
    /// the collective's sequence number is allocated (so the decision site
    /// is fully identified), `tamper` may mutate the staged contribution in
    /// place — this is where the seeded payload-corruption profile strikes
    /// the "wire" copy, *after* pack-time checksums were computed.
    fn try_collective_tampered<C, R, F, G>(
        &self,
        kind: CollKind,
        tag: u32,
        contribution: C,
        tamper: G,
        complete: F,
    ) -> Result<R, VmpiError>
    where
        C: Send + 'static,
        R: Send + 'static,
        F: FnOnce(Vec<C>) -> Vec<R>,
        G: FnOnce(&mut C, u64),
    {
        if let Some(cause) = self.shared.abort_cause() {
            return Err(cause);
        }
        self.collective_post_tampered(kind, tag, contribution, tamper, complete)
            .try_wait_inner()
    }

    /// Posts one collective instance without waiting: deposits
    /// `contribution` (completing the operation if this is the last
    /// arrival) and returns a request to collect the result later — the
    /// split-phase (`MPI_Ialltoall`-style) primitive that lets a task
    /// overlap the transfer with other work.
    fn collective_post<C, R, F>(
        &self,
        kind: CollKind,
        tag: u32,
        contribution: C,
        complete: F,
    ) -> CollRequest<R>
    where
        C: Send + 'static,
        R: Send + 'static,
        F: FnOnce(Vec<C>) -> Vec<R>,
    {
        self.collective_post_tampered(kind, tag, contribution, |_c: &mut C, _seq| {}, complete)
    }

    /// [`Communicator::collective_post`] with the post-pack `tamper` hook
    /// (see [`Communicator::try_collective_tampered`]).
    fn collective_post_tampered<C, R, F, G>(
        &self,
        kind: CollKind,
        tag: u32,
        mut contribution: C,
        tamper: G,
        complete: F,
    ) -> CollRequest<R>
    where
        C: Send + 'static,
        R: Send + 'static,
        F: FnOnce(Vec<C>) -> Vec<R>,
        G: FnOnce(&mut C, u64),
    {
        if let Some(engine) = &self.shared.chaos {
            if let Some(pause) = engine.stall_before_collective(self.world_rank()) {
                // Injected straggler: this rank arrives late.
                std::thread::sleep(pause);
            }
        }
        let size = self.size();
        let seq = {
            let mut counters = self.seq.lock();
            let c = counters.entry((kind, tag)).or_insert(0);
            let s = *c;
            *c += 1;
            s
        };
        let key = CollKey {
            comm_id: self.id,
            kind,
            tag,
            seq,
        };
        // The staged copy is the NIC-buffer stand-in: anything that mangles
        // it between here and result pickup models silent wire corruption.
        tamper(&mut contribution, seq);
        self.shared
            .note(self.world_rank(), RankEvent::CollEnter { key });
        if self.shared.abort_cause().is_some() {
            // The world is failed: do not stage new slots (they could never
            // complete and would read as leaks). The wait reports the cause.
            return CollRequest {
                shared: Arc::clone(&self.shared),
                key,
                index: self.index,
                world_rank: self.world_rank(),
                size,
                t_post: self.now(),
                taken: false,
                posted: false,
                _marker: std::marker::PhantomData,
            };
        }
        let mut slots = self.shared.collectives.lock();
        let slot = slots.entry(key).or_insert_with(|| CollSlot {
            contributions: HashMap::new(),
            results: HashMap::new(),
            readers_left: size,
            done: false,
        });
        let prev = slot
            .contributions
            .insert(self.index, Box::new(contribution));
        // Matching-protocol violations used to be asserts deep inside this
        // function. They are now propagated: the corrupt slot is torn down,
        // the world aborts with a [`VmpiError::Protocol`] (peers of this
        // instance are wedged — they must fail fast, not time out), and the
        // caller's wait observes the typed error.
        let mut violation: Option<String> = None;
        if prev.is_some() {
            violation = Some(format!(
                "duplicate contribution to {key:?} from index {} — two concurrent \
                 collectives on one communicator must use distinct tags",
                self.index
            ));
        } else if slot.contributions.len() == size {
            // Completer: assemble inputs in index order and produce results.
            let mut inputs = Vec::with_capacity(size);
            for i in 0..size {
                match slot.contributions.remove(&i) {
                    None => {
                        violation =
                            Some(format!("contribution {i} missing from {key:?} at completion"));
                        break;
                    }
                    Some(boxed) => match boxed.downcast::<C>() {
                        Ok(c) => inputs.push(*c),
                        Err(_) => {
                            violation = Some(format!(
                                "contribution {i} to {key:?} has a mismatched payload type"
                            ));
                            break;
                        }
                    },
                }
            }
            if violation.is_none() {
                let results = complete(inputs);
                if results.len() != size {
                    violation = Some(format!(
                        "completer for {key:?} produced {} results for {size} participants",
                        results.len()
                    ));
                } else if let Some(slot) = slots.get_mut(&key) {
                    for (i, r) in results.into_iter().enumerate() {
                        slot.results.insert(i, Box::new(r));
                    }
                    slot.done = true;
                    self.shared.coll_cv.notify_all();
                } else {
                    violation = Some(format!("slot for {key:?} vanished during completion"));
                }
            }
        }
        if let Some(context) = violation {
            slots.remove(&key);
            drop(slots);
            self.shared.abort(VmpiError::Protocol { context });
            return CollRequest {
                shared: Arc::clone(&self.shared),
                key,
                index: self.index,
                world_rank: self.world_rank(),
                size,
                t_post: self.now(),
                taken: false,
                // No valid contribution is standing (the slot is gone); the
                // wait reports the abort cause instead of blocking.
                posted: false,
                _marker: std::marker::PhantomData,
            };
        }
        drop(slots);
        CollRequest {
            shared: Arc::clone(&self.shared),
            key,
            index: self.index,
            world_rank: self.world_rank(),
            size,
            t_post: self.now(),
            taken: false,
            posted: true,
            _marker: std::marker::PhantomData,
        }
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// Barrier over all members.
    pub fn barrier(&self) {
        self.barrier_tagged(0)
    }

    /// Non-panicking barrier: timeouts and world aborts come back as
    /// [`VmpiError`] values.
    pub fn try_barrier(&self) -> Result<(), VmpiError> {
        let t0 = self.now();
        let size = self.size();
        self.try_collective(CollKind::Barrier, 0, (), |_c: Vec<()>| vec![(); size])?;
        let t1 = self.now();
        self.record(CommOp::Barrier, 0, t0, t1);
        Ok(())
    }

    /// Tag-qualified barrier (for use inside concurrent tasks).
    pub fn barrier_tagged(&self, tag: u32) {
        let t0 = self.now();
        let size = self.size();
        self.collective(CollKind::Barrier, tag, (), |_c: Vec<()>| vec![(); size]);
        let t1 = self.now();
        self.record(CommOp::Barrier, 0, t0, t1);
    }

    /// Broadcast from `root` (communicator index). Non-root ranks pass any
    /// vector (typically empty) and receive the root's data.
    pub fn bcast<T: Clone + Send + 'static>(&self, root: usize, data: Vec<T>) -> Vec<T> {
        assert!(root < self.size(), "bcast: root out of range");
        let t0 = self.now();
        let size = self.size();
        let out = self.collective(
            CollKind::Bcast,
            0,
            if self.index == root { Some(data) } else { None },
            move |mut contribs: Vec<Option<Vec<T>>>| {
                let payload = contribs[root].take().expect("root contributed");
                (0..size).map(|_| payload.clone()).collect()
            },
        );
        let t1 = self.now();
        let bytes = std::mem::size_of::<T>() * out.len();
        self.record(CommOp::Bcast, bytes, t0, t1);
        out
    }

    /// Element-wise allreduce with a caller-supplied associative operation.
    pub fn allreduce<T, F>(&self, data: Vec<T>, op: F) -> Vec<T>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        let t0 = self.now();
        let size = self.size();
        let bytes = std::mem::size_of::<T>() * data.len();
        let out = self.collective(
            CollKind::Allreduce,
            0,
            data,
            move |contribs: Vec<Vec<T>>| {
                let mut acc = contribs[0].clone();
                for c in &contribs[1..] {
                    assert_eq!(c.len(), acc.len(), "allreduce length mismatch");
                    for (a, b) in acc.iter_mut().zip(c) {
                        *a = op(a, b);
                    }
                }
                (0..size).map(|_| acc.clone()).collect()
            },
        );
        let t1 = self.now();
        self.record(CommOp::Allreduce, bytes, t0, t1);
        out
    }

    /// Sum-allreduce over `f64` values.
    pub fn allreduce_sum(&self, data: Vec<f64>) -> Vec<f64> {
        self.allreduce(data, |a, b| a + b)
    }

    /// Gathers every rank's vector; all ranks receive all vectors in
    /// communicator index order (lengths may differ, like `MPI_Allgatherv`).
    pub fn allgather<T: Clone + Send + 'static>(&self, data: Vec<T>) -> Vec<Vec<T>> {
        let t0 = self.now();
        let size = self.size();
        let bytes = std::mem::size_of::<T>() * data.len();
        let out = self.collective(
            CollKind::Allgather,
            0,
            data,
            move |contribs: Vec<Vec<T>>| (0..size).map(|_| contribs.clone()).collect(),
        );
        let t1 = self.now();
        self.record(CommOp::Gather, bytes, t0, t1);
        out
    }

    /// `MPI_Alltoall`: `send.len()` must be `size * count`; chunk `j` goes to
    /// rank `j`. The result holds chunk `j` received from rank `j`.
    pub fn alltoall<T: Clone + Send + Checksum + 'static>(&self, send: &[T], tag: u32) -> Vec<T> {
        self.try_alltoall(send, tag).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Communicator::alltoall`], surfacing timeouts, world aborts
    /// and checksum failures as [`VmpiError`] values.
    pub fn try_alltoall<T: Clone + Send + Checksum + 'static>(
        &self,
        send: &[T],
        tag: u32,
    ) -> Result<Vec<T>, VmpiError> {
        let mut recv = Vec::new();
        self.try_alltoall_into(send, &mut recv, tag)?;
        Ok(recv)
    }

    /// Zero-copy [`Communicator::alltoall`]: the received buffer lands in
    /// caller-owned `recv` (any previous contents replaced).
    ///
    /// # Panics
    /// On timeout / world abort / checksum failure;
    /// [`Communicator::try_alltoall_into`] is the non-panicking variant.
    pub fn alltoall_into<T: Clone + Send + Checksum + 'static>(
        &self,
        send: &[T],
        recv: &mut Vec<T>,
        tag: u32,
    ) {
        self.try_alltoall_into(send, recv, tag)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Communicator::alltoall`], but writing the result into
    /// caller-owned `recv` instead of returning a fresh buffer.
    ///
    /// The transport stages exactly one owned copy of `send` (standing in
    /// for the NIC/MPI-internal send buffer — contributions must outlive
    /// the caller under timeouts and split-phase waits) plus one `u64`
    /// checksum per destination chunk, computed at pack time; the completer
    /// then transposes the staged buffers **in place** and hands each rank
    /// its own staging buffer back as the receive storage. Every chunk is
    /// re-hashed at unpack; a mismatch with its pack-time checksum returns
    /// [`VmpiError::Integrity`] naming the peer, and nothing is written to
    /// `recv`.
    pub fn try_alltoall_into<T: Clone + Send + Checksum + 'static>(
        &self,
        send: &[T],
        recv: &mut Vec<T>,
        tag: u32,
    ) -> Result<(), VmpiError> {
        let size = self.size();
        assert!(
            send.len().is_multiple_of(size),
            "alltoall: buffer length {} not divisible by communicator size {}",
            send.len(),
            size
        );
        let count = send.len() / size;
        let t0 = self.now();
        let bytes = std::mem::size_of_val(send);
        let (data, sums) = self.try_collective_tampered(
            CollKind::Alltoall,
            tag,
            (send.to_vec(), pack_sums_uniform(send, count, size)),
            self.uniform_chunk_tamper(count, tag),
            move |contribs: Vec<(Vec<T>, Vec<u64>)>| complete_alltoall_checksummed(contribs, count),
        )?;
        verify_uniform_chunks(&data, count, &sums, tag)?;
        *recv = data;
        let t1 = self.now();
        self.record(CommOp::Alltoall, bytes, t0, t1);
        Ok(())
    }

    /// The payload-corruption hook for uniform-chunk alltoalls: a tamper
    /// closure that asks the chaos engine, per destination chunk, whether
    /// the seeded corruption profile strikes this `(site, seq)` — and if so
    /// flips one bit of the *staged* copy. A no-op without a chaos engine
    /// or corruption profile.
    fn uniform_chunk_tamper<T: Checksum + Send + 'static>(
        &self,
        count: usize,
        tag: u32,
    ) -> impl FnOnce(&mut (Vec<T>, Vec<u64>), u64) {
        let chaos = self.shared.chaos.clone();
        let comm = self.id;
        let me = self.index;
        let size = self.size();
        move |staged, seq| {
            let Some(engine) = chaos else { return };
            for dst in 0..size {
                if let Some(strike) = engine.plan_chunk_corruption(comm, me, dst, u64::from(tag), seq)
                {
                    let chunk = &mut staged.0[dst * count..(dst + 1) * count];
                    if !chunk.is_empty() {
                        let i = strike.index(chunk.len());
                        chunk[i].flip_bit(strike.bit);
                    }
                }
            }
        }
    }

    /// `MPI_Alltoallv`: `send[j]` is the (arbitrary-length) slice for rank
    /// `j`; the result's entry `j` is what rank `j` sent to the caller.
    pub fn alltoallv<T: Clone + Send + Sync + Checksum + 'static>(
        &self,
        send: Vec<Vec<T>>,
        tag: u32,
    ) -> Vec<Vec<T>> {
        self.try_alltoallv(send, tag)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Communicator::alltoallv`], surfacing timeouts, world aborts
    /// and checksum failures as [`VmpiError`] values. Thin wrapper over
    /// [`Communicator::try_alltoallv_into`] (flatten, exchange, split).
    pub fn try_alltoallv<T: Clone + Send + Sync + Checksum + 'static>(
        &self,
        send: Vec<Vec<T>>,
        tag: u32,
    ) -> Result<Vec<Vec<T>>, VmpiError> {
        let size = self.size();
        assert_eq!(send.len(), size, "alltoallv: need one slice per rank");
        let send_counts: Vec<usize> = send.iter().map(|v| v.len()).collect();
        let flat: Vec<T> = send.into_iter().flatten().collect();
        let mut recv = Vec::new();
        let mut recv_counts = Vec::new();
        self.try_alltoallv_into(&flat, &send_counts, &mut recv, &mut recv_counts, tag)?;
        let mut out = Vec::with_capacity(size);
        let mut off = 0;
        for &c in &recv_counts {
            out.push(recv[off..off + c].to_vec());
            off += c;
        }
        Ok(out)
    }

    /// Zero-copy [`Communicator::alltoallv`] (see
    /// [`Communicator::try_alltoallv_into`]).
    ///
    /// # Panics
    /// On timeout / world abort / checksum failure.
    pub fn alltoallv_into<T: Clone + Send + Sync + Checksum + 'static>(
        &self,
        send: &[T],
        send_counts: &[usize],
        recv: &mut Vec<T>,
        recv_counts: &mut Vec<usize>,
        tag: u32,
    ) {
        self.try_alltoallv_into(send, send_counts, recv, recv_counts, tag)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Flat-buffer `MPI_Alltoallv`: `send` holds the segment for rank `j`
    /// at offset `send_counts[..j].sum()` with length `send_counts[j]`;
    /// after the exchange `recv` holds rank `j`'s segment for this rank at
    /// offset `recv_counts[..j].sum()` (both caller-owned buffers are
    /// cleared and refilled, reusing their capacity).
    ///
    /// The transport stages one owned copy of `(send, send_counts)` plus
    /// one pack-time checksum per destination segment; the completer shares
    /// the staged contributions among all participants without copying or
    /// reshaping them (one `Arc` per collective), and each rank gathers its
    /// own segments straight into `recv` at pickup — no per-rank result
    /// buffers are ever built. Each segment is re-hashed at gather; on a
    /// mismatch with the sender's pack-time checksum, `recv`/`recv_counts`
    /// are left cleared and [`VmpiError::Integrity`] names the peer.
    pub fn try_alltoallv_into<T: Clone + Send + Sync + Checksum + 'static>(
        &self,
        send: &[T],
        send_counts: &[usize],
        recv: &mut Vec<T>,
        recv_counts: &mut Vec<usize>,
        tag: u32,
    ) -> Result<(), VmpiError> {
        let size = self.size();
        assert_eq!(
            send_counts.len(),
            size,
            "alltoallv: need one count per rank"
        );
        assert_eq!(
            send.len(),
            send_counts.iter().sum::<usize>(),
            "alltoallv: send length does not match counts"
        );
        let t0 = self.now();
        let bytes = std::mem::size_of_val(send);
        let sums = pack_sums_var(send, send_counts);
        let all: Arc<Vec<VarStaged<T>>> = self.try_collective_tampered(
            CollKind::Alltoallv,
            tag,
            (send.to_vec(), send_counts.to_vec(), sums),
            self.var_chunk_tamper(tag),
            move |contribs: Vec<VarStaged<T>>| {
                let shared = Arc::new(contribs);
                (0..size).map(|_| Arc::clone(&shared)).collect()
            },
        )?;
        recv.clear();
        recv_counts.clear();
        let me = self.index;
        for (peer, (flat, counts, sums)) in all.iter().enumerate() {
            assert_eq!(counts.len(), size, "alltoallv: peer count-vector size");
            let offset: usize = counts[..me].iter().sum();
            let len = counts[me];
            let segment = &flat[offset..offset + len];
            let expected = sums[me];
            let got = checksum_slice(segment);
            if got != expected {
                // Deliver nothing: a partially filled recv would hand the
                // caller a mix of verified and unverified segments.
                recv.clear();
                recv_counts.clear();
                return Err(VmpiError::Integrity {
                    peer,
                    tag,
                    expected,
                    got,
                });
            }
            recv.extend_from_slice(segment);
            recv_counts.push(len);
        }
        let t1 = self.now();
        self.record(CommOp::Alltoallv, bytes, t0, t1);
        Ok(())
    }

    /// [`Communicator::uniform_chunk_tamper`] for variable-length segments:
    /// strike offsets follow the staged count vector.
    fn var_chunk_tamper<T: Checksum + Send + 'static>(
        &self,
        tag: u32,
    ) -> impl FnOnce(&mut VarStaged<T>, u64) {
        let chaos = self.shared.chaos.clone();
        let comm = self.id;
        let me = self.index;
        move |staged, seq| {
            let Some(engine) = chaos else { return };
            let mut offset = 0;
            for dst in 0..staged.1.len() {
                let len = staged.1[dst];
                if let Some(strike) = engine.plan_chunk_corruption(comm, me, dst, u64::from(tag), seq)
                {
                    let chunk = &mut staged.0[offset..offset + len];
                    if !chunk.is_empty() {
                        let i = strike.index(chunk.len());
                        chunk[i].flip_bit(strike.bit);
                    }
                }
                offset += len;
            }
        }
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// Splits the communicator: ranks passing the same `color` form a new
    /// communicator, ordered by `(key, old index)` — `MPI_Comm_split`.
    pub fn split(&self, color: u64, key: usize) -> Communicator {
        let size = self.size();
        let shared = Arc::clone(&self.shared);
        let ranks = Arc::clone(&self.ranks);
        let (new_id, members, my_index) = self.collective(
            CollKind::Split,
            0,
            (color, key),
            move |contribs: Vec<(u64, usize)>| {
                // Group indices by color.
                let mut colors: Vec<u64> = contribs.iter().map(|c| c.0).collect();
                colors.sort_unstable();
                colors.dedup();
                // Allocate one fresh id per color, deterministically ordered.
                let base = shared
                    .next_comm_id
                    .fetch_add(colors.len() as u64, Ordering::Relaxed);
                let mut results: Vec<Option<(u64, Vec<usize>, usize)>> = vec![None; size];
                for (ci, &col) in colors.iter().enumerate() {
                    let mut group: Vec<usize> = (0..size).filter(|&i| contribs[i].0 == col).collect();
                    group.sort_by_key(|&i| (contribs[i].1, i));
                    let world_members: Vec<usize> = group.iter().map(|&i| ranks[i]).collect();
                    for (pos, &i) in group.iter().enumerate() {
                        results[i] = Some((base + ci as u64, world_members.clone(), pos));
                    }
                }
                results.into_iter().map(|r| r.expect("all grouped")).collect()
            },
        );
        Communicator {
            shared: Arc::clone(&self.shared),
            id: new_id,
            ranks: Arc::new(members),
            index: my_index,
            seq: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Split-phase `MPI_Ialltoall`: posts the contribution and returns a
    /// request; the transfer completes as soon as every rank has *posted*,
    /// so the caller can compute while the exchange is in flight and
    /// [`AlltoallRequest::wait`] later. Matching follows the same
    /// `(tag, sequence)` rules as [`Communicator::alltoall`] — the two may
    /// be mixed on one communicator as long as every rank issues them in
    /// the same order per tag.
    pub fn ialltoall<T: Clone + Send + Checksum + 'static>(
        &self,
        send: &[T],
        tag: u32,
    ) -> AlltoallRequest<T> {
        let size = self.size();
        assert!(
            send.len().is_multiple_of(size),
            "ialltoall: buffer length {} not divisible by communicator size {}",
            send.len(),
            size
        );
        let count = send.len() / size;
        let bytes = std::mem::size_of_val(send);
        let inner = self.collective_post_tampered(
            CollKind::Alltoall,
            tag,
            (send.to_vec(), pack_sums_uniform(send, count, size)),
            self.uniform_chunk_tamper(count, tag),
            move |contribs: Vec<(Vec<T>, Vec<u64>)>| complete_alltoall_checksummed(contribs, count),
        );
        AlltoallRequest {
            inner,
            comm: self.clone(),
            bytes,
            tag,
            count,
        }
    }

    /// Shrinks the communicator after a rank eviction, **without
    /// communication**: the surviving members (world ranks of this
    /// communicator minus `dead`, given as world ranks) form a new
    /// communicator in the same relative order.
    ///
    /// Unlike [`Communicator::split`] this performs no collective — a
    /// collective over a group containing dead ranks could never complete.
    /// Consistency instead rests on symmetric knowledge: every survivor
    /// must call `shrink` with the identical `dead` set and `epoch` (the
    /// recovery-epoch counter disambiguating repeated shrinks), which is
    /// exactly what a watchdog-agreement protocol would establish; see
    /// DESIGN.md §11. The new communicator id is derived deterministically
    /// from `(old id, dead set, epoch)` in a high-bit namespace disjoint
    /// from the counter-allocated `split`/`dup` ids, so every survivor
    /// lands in the same fresh matching space.
    ///
    /// # Panics
    /// Panics when the caller itself is listed dead or no rank survives.
    pub fn shrink(&self, dead: &[usize], epoch: u64) -> Communicator {
        let me = self.world_rank();
        assert!(
            !dead.contains(&me),
            "shrink: caller (world rank {me}) is in the dead set"
        );
        let survivors: Vec<usize> = self
            .ranks
            .iter()
            .copied()
            .filter(|r| !dead.contains(r))
            .collect();
        let index = survivors
            .iter()
            .position(|&r| r == me)
            .expect("caller is a member and survives");
        let mut sorted_dead: Vec<usize> = dead
            .iter()
            .copied()
            .filter(|d| self.ranks.contains(d))
            .collect();
        sorted_dead.sort_unstable();
        sorted_dead.dedup();
        let mut h = mix64(self.id ^ 0x5D3A_F0B2_91C7_644E);
        for &d in &sorted_dead {
            h = mix64(h ^ d as u64);
        }
        h = mix64(h ^ epoch);
        let id = (1 << 63) | (h >> 1);
        Communicator {
            shared: Arc::clone(&self.shared),
            id,
            ranks: Arc::new(survivors),
            index,
            seq: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Duplicates the communicator into a fresh communication context
    /// (`MPI_Comm_dup`): same group, independent matching space.
    pub fn dup(&self) -> Communicator {
        let size = self.size();
        let shared = Arc::clone(&self.shared);
        let new_id = self.collective(CollKind::Dup, 0, (), move |_c: Vec<()>| {
            let id = shared.next_comm_id.fetch_add(1, Ordering::Relaxed);
            vec![id; size]
        });
        Communicator {
            shared: Arc::clone(&self.shared),
            id: new_id,
            ranks: Arc::clone(&self.ranks),
            index: self.index,
            seq: Arc::new(Mutex::new(HashMap::new())),
        }
    }
}

/// In-place block transpose of an alltoall's staged send buffers: after the
/// call, `contribs[i]` chunk `j` holds what rank `j` sent to rank `i`, so
/// each rank's own staging buffer doubles as its receive buffer — the
/// completer allocates nothing.
fn transpose_chunks<T>(contribs: &mut [Vec<T>], count: usize) {
    for i in 0..contribs.len() {
        for j in (i + 1)..contribs.len() {
            let (a, b) = contribs.split_at_mut(j);
            a[i][j * count..(j + 1) * count]
                .swap_with_slice(&mut b[0][i * count..(i + 1) * count]);
        }
    }
}

/// Pack-time checksums for a uniform-chunk alltoall: `sums[j]` hashes the
/// chunk destined for rank `j`, computed from the caller's buffer *before*
/// the staged copy can be tampered with.
fn pack_sums_uniform<T: Checksum>(send: &[T], count: usize, size: usize) -> Vec<u64> {
    (0..size)
        .map(|j| checksum_slice(&send[j * count..(j + 1) * count]))
        .collect()
}

/// Pack-time checksums for variable-length segments (`alltoallv`).
fn pack_sums_var<T: Checksum>(send: &[T], counts: &[usize]) -> Vec<u64> {
    let mut sums = Vec::with_capacity(counts.len());
    let mut offset = 0;
    for &len in counts {
        sums.push(checksum_slice(&send[offset..offset + len]));
        offset += len;
    }
    sums
}

/// Completer of a checksummed alltoall: transposes the staged data buffers
/// in place (each rank's staging buffer becomes its receive buffer) and
/// transposes the checksum matrix alongside, so rank `i`'s result carries
/// `sums[j]` = the checksum rank `j` computed for the chunk it sent to `i`.
fn complete_alltoall_checksummed<T>(
    contribs: Vec<(Vec<T>, Vec<u64>)>,
    count: usize,
) -> Vec<(Vec<T>, Vec<u64>)> {
    let (mut datas, sums): (Vec<Vec<T>>, Vec<Vec<u64>>) = contribs.into_iter().unzip();
    transpose_chunks(&mut datas, count);
    datas
        .into_iter()
        .enumerate()
        .map(|(i, data)| (data, sums.iter().map(|s| s[i]).collect()))
        .collect()
}

/// Unpack-time verification of a uniform-chunk alltoall: re-hashes every
/// received chunk against its sender's pack-time checksum.
fn verify_uniform_chunks<T: Checksum>(
    data: &[T],
    count: usize,
    sums: &[u64],
    tag: u32,
) -> Result<(), VmpiError> {
    for (peer, &expected) in sums.iter().enumerate() {
        let got = checksum_slice(&data[peer * count..(peer + 1) * count]);
        if got != expected {
            return Err(VmpiError::Integrity {
                peer,
                tag,
                expected,
                got,
            });
        }
    }
    Ok(())
}

/// splitmix64 finalizer — derives deterministic shrunk-communicator ids.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Chaos-mode delivery: hand out the envelope with the receiver's next
/// sequence number (restoring order) and discard stale duplicate copies.
fn take_in_order(
    mailbox: &mut Mailbox,
    key: P2pKey,
    chaos: Option<&fftx_fault::ChaosEngine>,
) -> Option<Envelope> {
    let mut i = 0;
    while i < mailbox.queue.len() {
        if mailbox.queue[i].dup && mailbox.queue[i].seq < mailbox.next_seq {
            let stale = mailbox.queue.remove(i).expect("index in bounds");
            if let Some(engine) = chaos {
                engine.note_duplicate_discarded(
                    key.comm_id,
                    key.src,
                    key.dst,
                    u64::from(key.tag),
                    stale.seq,
                );
            }
        } else {
            i += 1;
        }
    }
    let pos = mailbox
        .queue
        .iter()
        .position(|e| !e.dup && e.seq == mailbox.next_seq)?;
    let envelope = mailbox.queue.remove(pos).expect("index in bounds");
    mailbox.next_seq += 1;
    Some(envelope)
}

/// A pending split-phase collective: the typed result of a
/// `collective_post`. Dropping an unconsumed request is an error: the slot
/// is cleaned up, the world is aborted (so peers fail fast instead of
/// hanging), and the drop panics.
pub(crate) struct CollRequest<R> {
    shared: Arc<WorldShared>,
    key: CollKey,
    index: usize,
    /// The caller's world rank (status notes).
    world_rank: usize,
    size: usize,
    t_post: f64,
    taken: bool,
    /// Whether this request staged a contribution (false when the world was
    /// already aborted at post time).
    posted: bool,
    _marker: std::marker::PhantomData<fn() -> R>,
}

impl<R: Send + 'static> CollRequest<R> {
    /// True once the collective has completed (all participants posted and
    /// the result is ready). Never blocks.
    pub(crate) fn test(&self) -> bool {
        let slots = self.shared.collectives.lock();
        slots.get(&self.key).map(|s| s.done).unwrap_or(true)
    }

    /// Blocks until completion and returns this rank's result, or the
    /// timeout / world-abort error.
    fn try_wait_inner(mut self) -> Result<R, VmpiError> {
        // The request is consumed either way; the Drop cleanup is only for
        // requests that were never waited on.
        self.taken = true;
        if !self.posted {
            return Err(self
                .shared
                .abort_cause()
                .expect("unposted request implies an aborted world"));
        }
        let deadline = Instant::now() + self.shared.timeout;
        let mut slots = self.shared.collectives.lock();
        loop {
            if slots.get(&self.key).map(|s| s.done).unwrap_or(false) {
                break;
            }
            if let Some(cause) = self.shared.abort_cause() {
                drop(slots);
                return Err(cause);
            }
            if self
                .shared
                .coll_cv
                .wait_until(&mut slots, deadline)
                .timed_out()
            {
                let arrived = slots
                    .get(&self.key)
                    .map(|s| s.contributions.len())
                    .unwrap_or(0);
                drop(slots);
                return Err(VmpiError::Timeout {
                    message: format!(
                        "vmpi deadlock: rank {} stuck waiting on {:?}; {arrived}/{} arrived",
                        self.index, self.key, self.size
                    ),
                    diagnostic: self.shared.diagnostic_snapshot(),
                });
            }
        }
        // The slot and this rank's result must be present once `done` was
        // observed; if they are not, the matching protocol was violated —
        // propagate instead of panicking so recovery code can catch it.
        let Some(slot) = slots.get_mut(&self.key) else {
            drop(slots);
            return Err(VmpiError::Protocol {
                context: format!("slot for {:?} vanished before result pickup", self.key),
            });
        };
        let Some(mine) = slot.results.remove(&self.index) else {
            drop(slots);
            return Err(VmpiError::Protocol {
                context: format!(
                    "no result for index {} in completed {:?}",
                    self.index, self.key
                ),
            });
        };
        slot.readers_left -= 1;
        if slot.readers_left == 0 {
            slots.remove(&self.key);
        }
        drop(slots);
        self.shared
            .note(self.world_rank, RankEvent::CollDone { key: self.key });
        match mine.downcast::<R>() {
            Ok(r) => Ok(*r),
            Err(_) => Err(VmpiError::TypeMismatch {
                context: "collective result",
            }),
        }
    }
}

impl<R> Drop for CollRequest<R> {
    fn drop(&mut self) {
        if self.taken || std::thread::panicking() {
            return;
        }
        // Remove this request's footprint so the slot cannot leak...
        if self.posted {
            let mut slots = self.shared.collectives.lock();
            if let Some(slot) = slots.get_mut(&self.key) {
                if slot.done {
                    slot.results.remove(&self.index);
                    slot.readers_left -= 1;
                    if slot.readers_left == 0 {
                        slots.remove(&self.key);
                    }
                } else {
                    // Incomplete: the collective can never finish now, so
                    // tear the slot down entirely.
                    slots.remove(&self.key);
                }
            }
        }
        // ...mark the world failed so peers error out promptly...
        self.shared.abort(VmpiError::DroppedRequest {
            comm: self.key.comm_id,
            tag: self.key.tag,
            detail: format!("{:?}", self.key),
        });
        // ...and keep the loud local diagnostic.
        panic!(
            "vmpi: a split-phase collective request was dropped without wait() \
             (key {:?}) — its peers would hang",
            self.key
        );
    }
}

/// A pending nonblocking alltoall (see [`Communicator::ialltoall`]).
pub struct AlltoallRequest<T> {
    inner: CollRequest<(Vec<T>, Vec<u64>)>,
    comm: Communicator,
    bytes: usize,
    /// Collective tag, reported by integrity errors at wait time.
    tag: u32,
    /// Per-peer chunk length, for checksum verification at wait time.
    count: usize,
}

impl<T: Clone + Send + Checksum + 'static> AlltoallRequest<T> {
    /// True once every rank has posted and the exchange is complete.
    pub fn test(&self) -> bool {
        self.inner.test()
    }

    /// Time the request was posted (world clock).
    pub fn posted_at(&self) -> f64 {
        self.inner.t_post
    }

    /// Blocks until the exchange completes and returns the received buffer
    /// (chunk `j` came from rank `j`). Records the comm event spanning the
    /// *wait* only — overlapped transfer time does not appear as
    /// communication, exactly the accounting the overlap optimisation is
    /// after.
    pub fn wait(self) -> Vec<T> {
        self.try_wait().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`AlltoallRequest::wait`], surfacing timeouts, world aborts
    /// (e.g. a peer dropping its request) and checksum failures as
    /// [`VmpiError`] values.
    pub fn try_wait(self) -> Result<Vec<T>, VmpiError> {
        let t0 = self.comm.now();
        let bytes = self.bytes;
        let tag = self.tag;
        let count = self.count;
        let comm = self.comm.clone();
        let (data, sums) = self.inner.try_wait_inner()?;
        verify_uniform_chunks(&data, count, &sums, tag)?;
        let t1 = comm.now();
        comm.record(CommOp::Alltoall, bytes, t0, t1);
        Ok(data)
    }

    /// [`AlltoallRequest::try_wait`] into a caller-owned buffer (previous
    /// contents replaced) — the arena-path variant.
    pub fn try_wait_into(self, recv: &mut Vec<T>) -> Result<(), VmpiError> {
        *recv = self.try_wait()?;
        Ok(())
    }
}
