//! The fleet supervisor: durable, failure-tolerant serving over N
//! simulated shard nodes.
//!
//! Every fleet state transition — acceptance, shedding, batch formation,
//! dispatch, completion, heartbeats, shard death, failover, degradation —
//! is journaled as a [`Record`] *before* it is applied, and
//! [`Fleet::apply`] is the only path that mutates fleet state. The live
//! loop therefore factors into `emit = append ∘ apply`, and recovery is
//! exact by construction: [`resume_fleet`] replays a journal prefix
//! through the same `apply`, then continues the loop — producing a journal
//! byte-identical to the uninterrupted run's from *any* record-boundary
//! crash point (pinned by the proptests).
//!
//! Time is virtual and tick-driven. Each tick runs a fixed phase order —
//! completions, heartbeats, death declarations, failover, autoscaling,
//! arrivals, work stealing, dispatch, degradation — and every phase is
//! idempotent given applied state (cursor fields such as the arrival
//! index, the per-tick heartbeat position, and per-shard pending-batch
//! markers are all maintained inside `apply`), so re-running the crash
//! tick emits nothing twice.
//!
//! Routing is a consistent-hash ring ([`crate::fleet::ring`]): tenants
//! map to the first ring member clockwise from their seeded point, with
//! bounded-load overflow past saturated shards, so membership changes —
//! node death, autoscaling — move the minimum set of tenants. Every
//! `Started` record carries the ring's membership epoch and replay
//! validates it, so a resumed fleet that would route differently after a
//! resharding event fails loudly. With [`FleetConfig::autoscale`] set,
//! the fleet is elastic: journaled `ScaleUp`/`ScaleDown` records grow and
//! shrink the active set under the hysteresis controller in
//! [`crate::fleet::autoscale`]. With [`FleetConfig::steal`], idle shards
//! pull whole formed-but-unstarted batches from busy ones (`Stolen`
//! records); execution is pure in (batch contents, placement, batch id),
//! so a stolen batch's results are bit-identical to what the origin would
//! have produced.
//!
//! Failure model (all pure functions of the fault seed, shared with the
//! task-level chaos layer in `fftx_fault`): [`NodeDeath`] kills shards at
//! seeded fractions of the horizon, [`SlowNode`] stretches their service
//! times, and [`Partition`] hides heartbeats from truly-alive shards. The
//! supervisor sees ground truth only through heartbeat outcomes: a
//! partitioned shard is (wrongly) declared dead, its in-flight work kept
//! as an *orphan* that may still complete — whichever completion report
//! lands second is swallowed by the per-job idempotency guard and
//! journaled as `Suppressed`, so accepted jobs complete exactly once even
//! under split-brain races. The machine-checked conservation audit
//! ([`Journal::conservation`]) gates this in CI.

use crate::admission::Admission;
use crate::batch::plan_batch;
use crate::degrade::{DegradeConfig, DegradeLevel, Ladder};
use crate::error::ServeError;
use crate::exec::Backend;
use crate::fleet::autoscale::{self, AutoscaleConfig, ScaleDecision};
use crate::fleet::ring::{load_bound, HashRing, RingConfig};
use crate::health::{Breaker, HealthConfig};
use crate::journal::{idempotency_key, Conservation, Journal, Record};
use crate::request::{band_hash, GeometryClass, RejectReason, Request};
use crate::server::ServeConfig;
use crate::tuner::{Placement, Tuner};
use fftx_core::{Decomposition, SchedulerPolicy};
use fftx_fault::{mix64, NodeDeath, Partition, SlowNode};
use fftx_trace::{CounterSet, EventLog, Quantiles, StateTimeline};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Serve-level fault profiles, all pure in `(seed, shard)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetFaults {
    /// Seed of every fault schedule.
    pub seed: u64,
    /// Probability a shard dies during the run ([`NodeDeath`]). At least
    /// one shard always survives: when the schedule would kill every
    /// shard, the latest-dying one is spared deterministically.
    pub p_death: f64,
    /// Probability a shard runs slow ([`SlowNode`]).
    pub p_slow: f64,
    /// Worst-case service-time stretch of a slow shard.
    pub slow_max: f64,
    /// Probability a shard's heartbeats are partitioned away for a window
    /// while its work keeps executing ([`Partition`]).
    pub p_partition: f64,
    /// Partition window length as a fraction of the horizon.
    pub partition_window: f64,
}

impl Default for FleetFaults {
    fn default() -> Self {
        FleetFaults {
            seed: 0,
            p_death: 0.0,
            p_slow: 0.0,
            slow_max: 1.0,
            p_partition: 0.0,
            partition_window: 0.25,
        }
    }
}

/// Fleet configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of shard nodes.
    pub shards: usize,
    /// Per-shard serving knobs (admission, batching, tuner, execution).
    pub serve: ServeConfig,
    /// Heartbeat / circuit-breaker knobs.
    pub health: HealthConfig,
    /// Brown-out ladder knobs.
    pub degrade: DegradeConfig,
    /// Fault profiles.
    pub faults: FleetFaults,
    /// Virtual horizon the fault schedules are scaled to (seconds).
    pub horizon_s: f64,
    /// Safety bound on supervisor ticks before the loop reports
    /// [`ServeError::Stalled`].
    pub max_ticks: u64,
    /// Tenant→shard consistent-hash ring knobs (vnodes, bounded-load
    /// factor; the ring seed is folded with the serve seed).
    pub ring: RingConfig,
    /// Elastic fleet: `Some` runs the reactive autoscaler between `min`
    /// and `max` active shards over the provisioned pool of
    /// [`FleetConfig::shards`]; `None` keeps every shard active (static).
    pub autoscale: Option<AutoscaleConfig>,
    /// Cross-shard work stealing: idle shards pull whole
    /// formed-but-unstarted batches from busy ones.
    pub steal: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 3,
            serve: ServeConfig::default(),
            health: HealthConfig::default(),
            degrade: DegradeConfig::default(),
            faults: FleetFaults::default(),
            horizon_s: 2.0,
            max_ticks: 100_000,
            ring: RingConfig::default(),
            autoscale: None,
            steal: false,
        }
    }
}

/// One completed request, fleet view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetJob {
    /// The request.
    pub request: Request,
    /// Shard that reported the completion.
    pub shard: u32,
    /// Fleet-unique id of the batch that carried it.
    pub batch: u64,
    /// Completion time (virtual seconds).
    pub done_s: f64,
    /// Arrival-to-completion latency (virtual seconds).
    pub latency_s: f64,
    /// FNV hash of the request's result bands (real executions only).
    pub hash: Option<u64>,
    /// Whether the latency stayed within the deadline budget.
    pub deadline_met: bool,
}

/// The full outcome of one fleet run.
#[derive(Debug)]
pub struct FleetReport {
    /// Shard count the run used.
    pub shards: usize,
    /// Completed requests, completion order.
    pub jobs: Vec<FleetJob>,
    /// Shed requests with the rejection kind, arrival order.
    pub shed: Vec<(Request, String)>,
    /// Counters: `fleet.accepted|batches|shard_down|suppressed`,
    /// `fleet.heartbeat.ok|miss`, `fleet.breaker.<state>`,
    /// `fleet.failover.jobs`, `fleet.degrade.<level>`,
    /// `fleet.corruption.detected|recomputed`, `served.tenant.<id>`,
    /// `shed.<kind>`, `shed.tenant.<id>`.
    pub counters: CounterSet,
    /// Breaker / down / degradation transitions over virtual time (lane =
    /// shard index; the ladder uses lane `shards`).
    pub timeline: StateTimeline,
    /// The full journal of the run.
    pub journal: Journal,
    /// The conservation audit of the journal.
    pub conservation: Conservation,
    /// End of the virtual timeline (last completion).
    pub makespan_s: f64,
}

impl FleetReport {
    /// Requests offered (accepted + shed).
    pub fn offered(&self) -> usize {
        self.conservation.accepted + self.conservation.shed
    }

    /// Goodput: completed requests whose deadline was met, per virtual
    /// second of makespan.
    pub fn goodput_hz(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.jobs.iter().filter(|j| j.deadline_met).count() as f64 / self.makespan_s
    }

    /// Fraction of offered requests shed.
    pub fn shed_rate(&self) -> f64 {
        if self.offered() == 0 {
            return 0.0;
        }
        self.shed.len() as f64 / self.offered() as f64
    }

    /// Latency sample set of all completed requests.
    pub fn latency(&self) -> Quantiles {
        let mut q = Quantiles::new();
        for j in &self.jobs {
            q.push(j.latency_s);
        }
        q
    }

    /// Failover-to-completion latency of every re-routed job that
    /// finished: time from its (first) `Failover` record to its
    /// completion.
    pub fn failover_latencies(&self) -> Quantiles {
        let mut moved: BTreeMap<u64, f64> = BTreeMap::new();
        for rec in self.journal.records() {
            if let Record::Failover { job, t_s, .. } = rec {
                moved.entry(*job).or_insert(*t_s);
            }
        }
        let mut q = Quantiles::new();
        for j in &self.jobs {
            if let Some(&t) = moved.get(&j.request.id) {
                q.push(j.done_s - t);
            }
        }
        q
    }
}

/// A dispatched batch a shard is executing: the members still awaiting
/// their completion record, and the virtual completion time.
#[derive(Debug, Clone)]
struct Inflight {
    batch: u64,
    remaining: Vec<u64>,
    done_s: f64,
}

/// Per-shard state, entirely reconstructed by journal replay.
struct ShardState {
    admission: Admission,
    breaker: Breaker,
    /// The executing batch.
    inflight: Option<Inflight>,
    /// An executing batch of a shard that was declared dead while actually
    /// alive (partition): its completions still arrive and race the
    /// failover re-runs into the idempotency guard.
    orphan: Option<Inflight>,
    /// A journaled-but-not-yet-started batch (the window between `Batched`
    /// and `Started` a crash can land in).
    pending: Option<u64>,
    /// Detected-corruption events this shard's batches produced
    /// (journal-derived, so replay-stable).
    corruptions: u64,
    down: bool,
}

/// An assembled batch plus the placement it started under.
struct BatchInfo {
    batch: crate::batch::Batch,
    placement: Option<Placement>,
}

/// The fleet supervisor. See the module docs.
pub struct Fleet {
    cfg: FleetConfig,
    trace: Vec<Request>,
    journal: Journal,
    shards: Vec<ShardState>,
    tuner: Tuner,
    backend: Backend,
    ladder: Ladder,
    slow: SlowNode,
    partition: Partition,
    /// Ground-truth death time per shard (None = survives), with the
    /// ≥1-survivor guarantee applied.
    death_time: Vec<Option<f64>>,
    /// The tenant→shard consistent-hash ring. Membership (= active,
    /// not-down shards) is mutated only inside `apply` — by `ScaleUp`,
    /// `ScaleDown`, and `ShardDown` records — so replay reconstructs the
    /// exact routing table, validated by the epoch in every `Started`.
    ring: HashRing,
    /// Which pool shards are activated (autoscaled fleets start with
    /// `min`; static fleets with all). A down shard stays `active` until
    /// nothing — death does not retire it from the pool accounting.
    active: Vec<bool>,
    /// First tick each shard may execute batches at (warm-up after
    /// `ScaleUp`; 0 for the initial active set).
    warm_until: Vec<u64>,
    /// Virtual time of the last scale decision: the cooldown guard, and
    /// the crash-tick idempotency of the autoscale phase.
    scale_t: Option<f64>,
    accepted: BTreeMap<u64, Request>,
    completed: BTreeSet<u64>,
    open: BTreeSet<u64>,
    jobs: Vec<FleetJob>,
    shed: Vec<(Request, String)>,
    /// The one telemetry store of the supervisor: counters and shard-state
    /// transitions are recorded here and materialized into the report's
    /// [`CounterSet`] / [`StateTimeline`] views at the end of the run.
    log: EventLog,
    /// batch id → job id → result hash; filled by `apply(Completed)`
    /// during replay (journaled completions never re-execute) or lazily by
    /// one pure re-execution per batch at first need.
    hash_cache: BTreeMap<u64, BTreeMap<u64, u64>>,
    /// Batches with a journaled `CorruptionDetected` record — the guard
    /// that keeps the live path from re-emitting one on resume. Separate
    /// from `corruption_r`: a crash cut can land between a batch's X and R
    /// records, and sharing one set would suppress the missing record.
    corruption_x: BTreeSet<u64>,
    /// Batches with a journaled `Recomputed` record.
    corruption_r: BTreeSet<u64>,
    batch_info: BTreeMap<u64, BatchInfo>,
    /// Jobs drained from dead shards, awaiting their `Failover` record.
    pending_failover: VecDeque<(u32, u64)>,
    next_batch: u64,
    arrival_cursor: usize,
    tick: u64,
    /// Heartbeat cursor: the tick the last heartbeat belongs to and the
    /// shard index the next one goes to — resume re-enters the heartbeat
    /// sweep exactly where the crash left it.
    hb_tick: Option<u64>,
    hb_from: usize,
    /// Virtual time of the last ladder transition: guards the degrade
    /// check from double-stepping when the crash tick is re-run.
    degrade_t: Option<f64>,
    makespan: f64,
}

impl Fleet {
    /// A fresh fleet over an arrival-ordered request trace.
    ///
    /// # Errors
    /// [`ServeError::UnorderedTrace`] on an out-of-order trace;
    /// [`ServeError::Journal`] on a zero-shard fleet.
    pub fn new(requests: &[Request], cfg: FleetConfig) -> Result<Fleet, ServeError> {
        if cfg.shards == 0 {
            return Err(ServeError::Journal("fleet needs at least one shard".into()));
        }
        if let Some(a) = cfg.autoscale {
            a.validate()?;
            if a.max > cfg.shards {
                return Err(ServeError::Config(format!(
                    "autoscale max {} exceeds the provisioned pool of {}",
                    a.max, cfg.shards
                )));
            }
        }
        if let Some(i) = requests
            .windows(2)
            .position(|w| w[0].arrival_s > w[1].arrival_s)
        {
            return Err(ServeError::UnorderedTrace { index: i + 1 });
        }
        let death = NodeDeath::new(cfg.faults.seed, cfg.faults.p_death);
        let slow = SlowNode::new(cfg.faults.seed, cfg.faults.p_slow, cfg.faults.slow_max);
        let partition = Partition::new(
            cfg.faults.seed,
            cfg.faults.p_partition,
            cfg.faults.partition_window,
        );
        let mut death_time: Vec<Option<f64>> = (0..cfg.shards)
            .map(|s| death.death_time(s as u64, cfg.horizon_s))
            .collect();
        if death_time.iter().all(|d| d.is_some()) {
            // Guarantee a survivor: spare the shard that would die last
            // (ties to the highest index), deterministically.
            let spare = (0..cfg.shards)
                .max_by(|&a, &b| {
                    death_time[a]
                        .unwrap_or(f64::INFINITY)
                        .total_cmp(&death_time[b].unwrap_or(f64::INFINITY))
                        .then(a.cmp(&b))
                })
                .unwrap_or(0);
            death_time[spare] = None;
        }
        let shards = (0..cfg.shards)
            .map(|_| ShardState {
                admission: Admission::new(cfg.serve.admission),
                breaker: Breaker::new(),
                inflight: None,
                orphan: None,
                pending: None,
                corruptions: 0,
                down: false,
            })
            .collect();
        let route_seed = mix64(cfg.serve.seed ^ 0xF1EE_7B0A_D5EB_A11D);
        let initial = cfg.autoscale.map_or(cfg.shards, |a| a.min);
        let mut ring = HashRing::new(RingConfig {
            seed: mix64(route_seed ^ cfg.ring.seed),
            ..cfg.ring
        });
        for s in 0..initial {
            ring.insert(s as u32);
        }
        Ok(Fleet {
            trace: requests.to_vec(),
            journal: Journal::new(),
            shards,
            tuner: Tuner::new(cfg.serve.tuner),
            backend: Backend::new(cfg.serve.seed, cfg.serve.chaos),
            ladder: Ladder::new(),
            slow,
            partition,
            death_time,
            ring,
            active: (0..cfg.shards).map(|s| s < initial).collect(),
            warm_until: vec![0; cfg.shards],
            scale_t: None,
            accepted: BTreeMap::new(),
            completed: BTreeSet::new(),
            open: BTreeSet::new(),
            jobs: Vec::new(),
            shed: Vec::new(),
            log: EventLog::new(),
            hash_cache: BTreeMap::new(),
            corruption_x: BTreeSet::new(),
            corruption_r: BTreeSet::new(),
            batch_info: BTreeMap::new(),
            pending_failover: VecDeque::new(),
            next_batch: 0,
            arrival_cursor: 0,
            tick: 0,
            hb_tick: None,
            hb_from: 0,
            degrade_t: None,
            makespan: 0.0,
            cfg,
        })
    }

    /// The journal so far (a prefix of it is what [`resume_fleet`] takes).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The first tick whose time is at or after `t_s` — the tick a record
    /// stamped `t_s` was emitted in. Exact for tick-aligned stamps and for
    /// completion times that fall between ticks, despite float noise in
    /// the division (the correction loops pin the boundary bit-exactly
    /// against the loop's own `tick * tick_s` products).
    fn tick_of(&self, t_s: f64) -> u64 {
        let dt = self.cfg.health.tick_s;
        let mut k = (t_s / dt).ceil() as u64;
        while k > 0 && (k - 1) as f64 * dt >= t_s {
            k -= 1;
        }
        while (k as f64) * dt < t_s {
            k += 1;
        }
        k
    }

    fn alive_at(&self, shard: usize, t_s: f64) -> bool {
        self.death_time[shard].is_none_or(|d| d > t_s)
    }

    /// Whether `shard` is still in its post-scale-up warm-up window: a
    /// ring member that queues arrivals but executes nothing yet.
    fn warming(&self, shard: usize) -> bool {
        self.tick < self.warm_until[shard]
    }

    fn decide(&mut self, class: GeometryClass, nbnd: usize) -> Placement {
        let (policy, decomp) = (self.cfg.serve.mode.fixed(), self.cfg.serve.decomp.fixed());
        self.tuner.decide_in(class, nbnd, policy, decomp).placement
    }

    /// Rough completion estimate of one request were it admitted now: the
    /// modeled service of a minimal batch of its class.
    fn request_estimate(&mut self, req: &Request) -> f64 {
        let pad = self.cfg.serve.batch.pad_to.max(1);
        let nbnd = req.bands.div_ceil(pad) * pad;
        let p = self.decide(req.class, nbnd);
        self.tuner.service_s(req.class, nbnd, &p)
    }

    /// Journals `rec` (write-ahead), then applies it.
    fn emit(&mut self, rec: Record) -> Result<(), ServeError> {
        self.journal.append(rec.clone());
        self.apply(&rec)
    }

    /// Drops `job` of `batch` from `shard`'s inflight/orphan bookkeeping,
    /// clearing the slot when its last member is accounted for.
    fn remove_member(&mut self, shard: u32, batch: u64, job: u64) {
        let Some(sh) = self.shards.get_mut(shard as usize) else {
            return;
        };
        for slot in [&mut sh.inflight, &mut sh.orphan] {
            let clear = match slot {
                Some(inf) if inf.batch == batch => {
                    inf.remaining.retain(|&j| j != job);
                    inf.remaining.is_empty()
                }
                _ => false,
            };
            if clear {
                *slot = None;
            }
        }
    }

    fn shard_index(&self, shard: u32) -> Result<usize, ServeError> {
        let s = shard as usize;
        if s >= self.shards.len() {
            return Err(ServeError::Journal(format!(
                "shard {shard} out of range for fleet of {}",
                self.shards.len()
            )));
        }
        Ok(s)
    }

    /// The ONLY state-mutation path: folds one journal record into the
    /// fleet. The live loop calls it through [`Fleet::emit`]; replay calls
    /// it directly on the prefix.
    ///
    /// # Errors
    /// [`ServeError::Journal`] when the record contradicts the state it is
    /// applied to — a corrupt or desynced journal.
    fn apply(&mut self, rec: &Record) -> Result<(), ServeError> {
        match rec {
            Record::Accepted { req, key, shard } => {
                let s = self.shard_index(*shard)?;
                let expect = self.trace.get(self.arrival_cursor).ok_or_else(|| {
                    ServeError::Journal(format!("job {} accepted past the trace end", req.id))
                })?;
                if *expect != *req {
                    return Err(ServeError::Journal(format!(
                        "journal/trace desync: arrival {} journaled as job {}",
                        expect.id, req.id
                    )));
                }
                if *key != idempotency_key(self.cfg.serve.seed, req.id) {
                    return Err(ServeError::Journal(format!(
                        "job {} carries a foreign idempotency key",
                        req.id
                    )));
                }
                if !self.ring.contains(*shard) {
                    return Err(ServeError::Journal(format!(
                        "job {} routed to shard {shard}, which is not a ring member",
                        req.id
                    )));
                }
                self.accepted.insert(req.id, *req);
                self.open.insert(req.id);
                self.shards[s].admission.push_back(*req);
                self.arrival_cursor += 1;
                self.log.push_counter("fleet.accepted", 1);
            }
            Record::Shed { req, kind } => {
                let expect = self.trace.get(self.arrival_cursor).ok_or_else(|| {
                    ServeError::Journal(format!("job {} shed past the trace end", req.id))
                })?;
                if *expect != *req {
                    return Err(ServeError::Journal(format!(
                        "journal/trace desync: arrival {} journaled as shed job {}",
                        expect.id, req.id
                    )));
                }
                self.log.push_counter(&format!("shed.{kind}"), 1);
                self.log.push_counter(&format!("shed.tenant.{}", req.tenant), 1);
                self.shed.push((*req, kind.clone()));
                self.arrival_cursor += 1;
            }
            Record::Batched { shard, batch, jobs } => {
                let s = self.shard_index(*shard)?;
                let members = self.shards[s].admission.take_ids(jobs)?;
                let assembled = crate::batch::assemble(members, &self.cfg.serve.batch)?;
                self.batch_info.insert(
                    *batch,
                    BatchInfo { batch: assembled, placement: None },
                );
                self.shards[s].pending = Some(*batch);
                self.next_batch = self.next_batch.max(batch + 1);
                self.log.push_counter("fleet.batches", 1);
            }
            Record::Started { shard, batch, start_s, service_s, nr, ntg, policy, decomp, epoch } => {
                let s = self.shard_index(*shard)?;
                self.tick = self.tick.max(self.tick_of(*start_s));
                if *epoch != self.ring.epoch() {
                    return Err(ServeError::Journal(format!(
                        "batch {batch} started at ring epoch {epoch}, but replay \
                         reconstructed epoch {} — routing would diverge",
                        self.ring.epoch()
                    )));
                }
                let policy = *SchedulerPolicy::ALL.get(*policy).ok_or_else(|| {
                    ServeError::Journal(format!("batch {batch}: policy index {policy}"))
                })?;
                let decomp = *Decomposition::ALL.get(*decomp).ok_or_else(|| {
                    ServeError::Journal(format!("batch {batch}: decomp index {decomp}"))
                })?;
                let info = self.batch_info.get_mut(batch).ok_or_else(|| {
                    ServeError::Journal(format!("batch {batch} started but never formed"))
                })?;
                info.placement = Some(Placement { nr: *nr, ntg: *ntg, policy, decomp });
                let remaining = info.batch.members.iter().map(|m| m.request.id).collect();
                self.shards[s].pending = None;
                self.shards[s].inflight = Some(Inflight {
                    batch: *batch,
                    remaining,
                    done_s: start_s + service_s,
                });
            }
            Record::Completed { shard, batch, job, done_s, hash } => {
                let req = *self.accepted.get(job).ok_or_else(|| {
                    ServeError::Journal(format!("job {job} completed but never accepted"))
                })?;
                if !self.completed.insert(*job) {
                    return Err(ServeError::Journal(format!("job {job} completed twice")));
                }
                self.open.remove(job);
                if let Some(h) = hash {
                    self.hash_cache.entry(*batch).or_default().insert(*job, *h);
                }
                let latency_s = done_s - req.arrival_s;
                self.jobs.push(FleetJob {
                    request: req,
                    shard: *shard,
                    batch: *batch,
                    done_s: *done_s,
                    latency_s,
                    hash: *hash,
                    deadline_met: latency_s <= req.deadline.budget_s(),
                });
                self.log.push_counter(&format!("served.tenant.{}", req.tenant), 1);
                self.makespan = self.makespan.max(*done_s);
                self.remove_member(*shard, *batch, *job);
                // Completions fire in a tick's first phase, before any
                // heartbeat stamps the tick — recover it from `done_s` so a
                // crash cut after the run's last heartbeat still resumes at
                // the right tick.
                self.tick = self.tick.max(self.tick_of(*done_s));
            }
            Record::Suppressed { shard, batch, job, t_s, hash } => {
                if !self.completed.contains(job) {
                    return Err(ServeError::Journal(format!(
                        "job {job} suppressed before any completion"
                    )));
                }
                // The zombie's result must agree with whatever hash this
                // batch already recorded for the job — a divergence means a
                // silently corrupted result raced the idempotency guard.
                if let Some(h) = hash {
                    let slot = self.hash_cache.entry(*batch).or_default();
                    match slot.get(job) {
                        Some(prev) if *prev != *h => {
                            return Err(ServeError::Journal(format!(
                                "zombie report of job {job} in batch {batch} diverges from \
                                 the recorded result hash ({prev:016x} vs {h:016x})"
                            )));
                        }
                        _ => {
                            slot.insert(*job, *h);
                        }
                    }
                }
                self.log.push_counter("fleet.suppressed", 1);
                self.remove_member(*shard, *batch, *job);
                self.tick = self.tick.max(self.tick_of(*t_s));
            }
            Record::CorruptionDetected { shard, batch, detections, t_s } => {
                let s = self.shard_index(*shard)?;
                self.tick = self.tick.max(self.tick_of(*t_s));
                self.corruption_x.insert(*batch);
                self.shards[s].corruptions += detections;
                self.log.push_counter("fleet.corruption.detected", *detections);
                let tick = self.tick_of(*t_s);
                if let Some(state) = self.shards[s].breaker.on_corruption(tick, &self.cfg.health) {
                    self.log.push_state(*t_s, *shard, state);
                    self.log.push_counter(&format!("fleet.breaker.{state}"), 1);
                }
            }
            Record::Recomputed { shard, batch, rollbacks, t_s } => {
                self.shard_index(*shard)?;
                self.tick = self.tick.max(self.tick_of(*t_s));
                self.corruption_r.insert(*batch);
                self.log.push_counter("fleet.corruption.recomputed", *rollbacks);
            }
            Record::Heartbeat { shard, tick, t_s, ok } => {
                let s = self.shard_index(*shard)?;
                self.tick = *tick;
                self.hb_tick = Some(*tick);
                self.hb_from = s + 1;
                let hb = if *ok { "fleet.heartbeat.ok" } else { "fleet.heartbeat.miss" };
                self.log.push_counter(hb, 1);
                if let Some(state) =
                    self.shards[s].breaker.on_heartbeat(*ok, *tick, &self.cfg.health)
                {
                    self.log.push_state(*t_s, *shard, state);
                    self.log.push_counter(&format!("fleet.breaker.{state}"), 1);
                }
            }
            Record::ShardDown { shard, t_s } => {
                let s = self.shard_index(*shard)?;
                self.tick = self.tick.max(self.tick_of(*t_s));
                self.shards[s].down = true;
                self.ring.remove(*shard);
                self.log.push_state(*t_s, *shard, "down");
                self.log.push_counter("fleet.shard_down", 1);
                // Drain everything the shard still owes: its queue, a
                // batch formed but not started, and the executing batch.
                let mut drain: Vec<u64> = self.shards[s]
                    .admission
                    .drain()
                    .into_iter()
                    .map(|r| r.id)
                    .collect();
                if let Some(b) = self.shards[s].pending.take() {
                    let info = self.batch_info.get(&b).ok_or_else(|| {
                        ServeError::Journal(format!("pending batch {b} has no batch info"))
                    })?;
                    for m in &info.batch.members {
                        if !self.completed.contains(&m.request.id) {
                            drain.push(m.request.id);
                        }
                    }
                }
                if let Some(inf) = self.shards[s].inflight.take() {
                    drain.extend(inf.remaining.iter().copied());
                    // A truly-alive shard (partition, not death) keeps its
                    // run as an orphan: its completions will race the
                    // failover re-runs into the idempotency guard.
                    if self.death_time[s].is_none_or(|d| d > *t_s) {
                        self.shards[s].orphan = Some(inf);
                    }
                }
                // Loosest deadline (then highest id) first: each restore
                // pushes ahead of the previous, so the survivor's queue
                // ends tightest-deadline, smallest-id at the front.
                let accepted = &self.accepted;
                drain.sort_by(|a, b| {
                    let ba = accepted.get(a).map_or(0.0, |r| r.deadline.budget_s());
                    let bb = accepted.get(b).map_or(0.0, |r| r.deadline.budget_s());
                    bb.total_cmp(&ba).then(b.cmp(a))
                });
                self.pending_failover
                    .extend(drain.into_iter().map(|id| (*shard, id)));
            }
            Record::Failover { from, to, job, t_s } => {
                let t = self.shard_index(*to)?;
                self.tick = self.tick.max(self.tick_of(*t_s));
                match self.pending_failover.pop_front() {
                    Some(head) if head == (*from, *job) => {}
                    head => {
                        return Err(ServeError::Journal(format!(
                            "failover of job {job} does not match the drain queue head {head:?}"
                        )))
                    }
                }
                let req = *self.accepted.get(job).ok_or_else(|| {
                    ServeError::Journal(format!("job {job} failed over but never accepted"))
                })?;
                self.shards[t].admission.restore_front(req);
                self.log.push_counter("fleet.failover.jobs", 1);
            }
            Record::Degraded { level, t_s } => {
                self.tick = self.tick.max(self.tick_of(*t_s));
                let lvl = *DegradeLevel::ALL.get(*level).ok_or_else(|| {
                    ServeError::Journal(format!("degrade level index {level}"))
                })?;
                self.ladder.set_level(lvl);
                self.degrade_t = Some(*t_s);
                self.log.push_counter(&format!("fleet.degrade.{}", lvl.name()), 1);
                self.log.push_state(*t_s, self.cfg.shards as u32, lvl.name());
            }
            Record::ScaleUp { shard, t_s } => {
                let s = self.shard_index(*shard)?;
                if self.active[s] || self.shards[s].down {
                    return Err(ServeError::Journal(format!(
                        "scale-up of shard {shard}, which is already active or down"
                    )));
                }
                self.tick = self.tick.max(self.tick_of(*t_s));
                self.active[s] = true;
                self.ring.insert(*shard);
                // At least one warm tick: the activation tick itself must
                // count as warm-up, because scale-up (phase 5) lands after
                // the tick's heartbeat sweep (phase 2) — a shard probed on
                // its own activation tick would diverge on crash replay.
                self.warm_until[s] = self.tick_of(*t_s)
                    + self.cfg.autoscale.map_or(1, |a| a.warmup_ticks.max(1));
                self.scale_t = Some(*t_s);
                self.log.push_counter("fleet.scale.up", 1);
                self.log.push_state(*t_s, *shard, "warming");
            }
            Record::ScaleDown { shard, t_s } => {
                let s = self.shard_index(*shard)?;
                if !self.active[s] || self.shards[s].down {
                    return Err(ServeError::Journal(format!(
                        "scale-down of shard {shard}, which is not active"
                    )));
                }
                if self.shards[s].admission.depth() > 0
                    || self.shards[s].pending.is_some()
                    || self.shards[s].inflight.is_some()
                {
                    return Err(ServeError::Journal(format!(
                        "scale-down of shard {shard} while it still holds work"
                    )));
                }
                self.tick = self.tick.max(self.tick_of(*t_s));
                self.active[s] = false;
                self.ring.remove(*shard);
                self.scale_t = Some(*t_s);
                self.log.push_counter("fleet.scale.down", 1);
                self.log.push_state(*t_s, *shard, "standby");
            }
            Record::Stolen { from, to, batch, t_s } => {
                let f = self.shard_index(*from)?;
                let t = self.shard_index(*to)?;
                if f == t {
                    return Err(ServeError::Journal(format!("batch {batch} stolen by its owner")));
                }
                if self.shards[f].pending != Some(*batch) {
                    return Err(ServeError::Journal(format!(
                        "stolen batch {batch} is not pending on origin shard {from}"
                    )));
                }
                if self.shards[t].pending.is_some() || self.shards[t].down || !self.active[t] {
                    return Err(ServeError::Journal(format!(
                        "batch {batch} stolen by shard {to}, which cannot take it"
                    )));
                }
                self.tick = self.tick.max(self.tick_of(*t_s));
                self.shards[f].pending = None;
                self.shards[t].pending = Some(*batch);
                self.log.push_counter("fleet.steal", 1);
            }
        }
        Ok(())
    }

    /// The result hash of `job` in `batch` — `None` on modeled runs. Real
    /// runs hit the cache (filled by replayed `Completed` records, so
    /// journaled completions never re-execute); a miss re-executes the
    /// batch once, purely, and caches every member. When the execution
    /// absorbed corruption, the batch's `CorruptionDetected` / `Recomputed`
    /// records are journaled here — before its first completion, and only
    /// once per batch (resume replays them through `apply`, which marks
    /// the guard sets).
    fn hash_for(
        &mut self,
        shard: u32,
        batch: u64,
        job: u64,
        t_s: f64,
    ) -> Result<Option<u64>, ServeError> {
        if !(self.cfg.serve.execute_real || self.cfg.serve.chaos.is_some()) {
            return Ok(None);
        }
        if let Some(h) = self.hash_cache.get(&batch).and_then(|m| m.get(&job)) {
            return Ok(Some(*h));
        }
        let (assembled, placement) = {
            let info = self.batch_info.get(&batch).ok_or_else(|| {
                ServeError::Journal(format!("batch {batch} executed but never formed"))
            })?;
            let placement = info.placement.ok_or_else(|| {
                ServeError::Journal(format!("batch {batch} executed before it started"))
            })?;
            (info.batch.clone(), placement)
        };
        let run = self.backend.execute(&assembled, &placement, batch as usize, false);
        // Not journaled: on resume the prefix's hashes come from the
        // journal's Completed records, so this counter is the run's *real*
        // execution count — the replay-overhead measurement.
        self.log.push_counter("fleet.exec.batch", 1);
        if run.detections > 0 && !self.corruption_x.contains(&batch) {
            self.emit(Record::CorruptionDetected {
                shard,
                batch,
                detections: run.detections,
                t_s,
            })?;
        }
        if run.detections > 0 && run.rollbacks > 0 && !self.corruption_r.contains(&batch) {
            self.emit(Record::Recomputed { shard, batch, rollbacks: run.rollbacks, t_s })?;
        }
        let entry = self.hash_cache.entry(batch).or_default();
        for m in &assembled.members {
            let range = &run.output.bands[m.band_start..m.band_start + m.request.bands];
            entry.insert(m.request.id, band_hash(range));
        }
        entry.get(&job).copied().map(Some).ok_or_else(|| {
            ServeError::Journal(format!("job {job} is not a member of batch {batch}"))
        })
    }

    /// Completes (or suppresses, when already completed elsewhere) one
    /// member of a finished batch. A suppressed zombie still hashes its
    /// own result, so the journal carries the evidence the conservation
    /// audit needs to catch a corrupted duplicate.
    fn complete_member(
        &mut self,
        shard: u32,
        batch: u64,
        job: u64,
        done_s: f64,
    ) -> Result<(), ServeError> {
        if self.completed.contains(&job) {
            let hash = self.hash_for(shard, batch, job, done_s)?;
            return self.emit(Record::Suppressed { shard, batch, job, t_s: done_s, hash });
        }
        let hash = self.hash_for(shard, batch, job, done_s)?;
        self.emit(Record::Completed { shard, batch, job, done_s, hash })
    }

    /// Phase 1: batches whose virtual completion time has passed — and
    /// whose shard was truly alive to finish them — complete member by
    /// member. Orphans of spuriously-dead shards complete here too.
    fn phase_completions(&mut self, t: f64) -> Result<(), ServeError> {
        for s in 0..self.cfg.shards {
            for orphan in [false, true] {
                let slot = if orphan {
                    self.shards[s].orphan.clone()
                } else {
                    self.shards[s].inflight.clone()
                };
                let Some(inf) = slot else { continue };
                if inf.done_s > t || !self.alive_at(s, inf.done_s) {
                    continue;
                }
                for job in inf.remaining {
                    self.complete_member(s as u32, inf.batch, job, inf.done_s)?;
                }
            }
        }
        Ok(())
    }

    /// Phase 2: one heartbeat probe per monitored shard (standby and
    /// still-warming shards are not probed — a warming shard serves
    /// nothing yet, and its warm window always covers its activation
    /// tick, keeping the sweep identical on crash replay). The journaled
    /// cursor (`hb_tick`, `hb_from`) re-enters a half-finished sweep.
    fn phase_heartbeats(&mut self, t: f64) -> Result<(), ServeError> {
        let start = if self.hb_tick == Some(self.tick) { self.hb_from } else { 0 };
        for s in start..self.cfg.shards {
            if self.shards[s].down || !self.active[s] || self.warming(s) {
                continue;
            }
            let ok = self.alive_at(s, t) && !self.partition.cut_at(s as u64, t, self.cfg.horizon_s);
            self.emit(Record::Heartbeat { shard: s as u32, tick: self.tick, t_s: t, ok })?;
        }
        Ok(())
    }

    /// Phase 3: death declarations — separate from the heartbeat sweep so
    /// the heartbeat cursor can never skip a `ShardDown` on resume.
    fn phase_deaths(&mut self, t: f64) -> Result<(), ServeError> {
        for s in 0..self.cfg.shards {
            if self.shards[s].down {
                continue;
            }
            if self.shards[s].breaker.consecutive_misses() >= self.cfg.health.death_threshold {
                self.emit(Record::ShardDown { shard: s as u32, t_s: t })?;
            }
        }
        Ok(())
    }

    /// Phase 4: drain the failover queue onto the surviving ring members.
    /// Breaker-open members are a last resort; an elastic fleet whose
    /// ring emptied entirely repairs itself with an emergency scale-up
    /// before giving up.
    fn phase_failover(&mut self, t: f64) -> Result<(), ServeError> {
        while let Some(&(from, job)) = self.pending_failover.front() {
            let mut candidates: Vec<u32> = self
                .ring
                .members()
                .iter()
                .copied()
                .filter(|&s| self.shards[s as usize].breaker.admits())
                .collect();
            if candidates.is_empty() {
                candidates = self.ring.members().to_vec();
            }
            if candidates.is_empty() {
                if self.cfg.autoscale.is_some() {
                    let target = self.scale_up_target().or_else(|| {
                        (0..self.cfg.shards).find(|&s| !self.active[s] && !self.shards[s].down)
                    });
                    if let Some(s) = target {
                        self.emit(Record::ScaleUp { shard: s as u32, t_s: t })?;
                        continue;
                    }
                }
                return Err(ServeError::Journal(format!(
                    "no surviving shard to fail job {job} over to"
                )));
            }
            let req = *self.accepted.get(&job).ok_or_else(|| {
                ServeError::Journal(format!("job {job} drained but never accepted"))
            })?;
            let to = self
                .ring
                .route(req.tenant as u64, |s| candidates.contains(&s))
                .ok_or_else(|| {
                    ServeError::Journal(format!("failover of job {job} found no route"))
                })?;
            self.emit(Record::Failover { from, to, job, t_s: t })?;
        }
        Ok(())
    }

    /// The pool shard an elastic fleet would activate next: the lowest
    /// standby index whose breaker admits with no corruption strikes —
    /// scale-up never lands on a quarantined or corruption-striken node.
    fn scale_up_target(&self) -> Option<usize> {
        (0..self.cfg.shards).find(|&s| {
            !self.active[s]
                && !self.shards[s].down
                && self.shards[s].breaker.admits()
                && self.shards[s].breaker.corruption_strikes() == 0
        })
    }

    /// The shard an elastic fleet would retire next: the highest active
    /// index that is fully idle (nothing queued, pending, or in flight),
    /// so retirement never needs a drain.
    fn scale_down_target(&self) -> Option<usize> {
        (0..self.cfg.shards).rev().find(|&s| {
            self.active[s]
                && !self.shards[s].down
                && self.shards[s].admission.depth() == 0
                && self.shards[s].pending.is_none()
                && self.shards[s].inflight.is_none()
        })
    }

    /// Phase 5: the reactive autoscaler — one journaled scale decision at
    /// most every cooldown window, driven by the hysteresis controller
    /// over active-fleet queue pressure, gated by the degrade ladder.
    /// Every input is journal-derived, so replay reproduces each decision
    /// exactly, and the ≥1-tick cooldown makes re-running the crash tick
    /// a no-op after its decision was journaled.
    fn phase_autoscale(&mut self, t: f64) -> Result<(), ServeError> {
        let Some(a) = self.cfg.autoscale else { return Ok(()) };
        if let Some(ts) = self.scale_t {
            if self.tick < self.tick_of(ts) + a.cooldown() {
                return Ok(());
            }
        }
        let active_alive: Vec<usize> = (0..self.cfg.shards)
            .filter(|&s| self.active[s] && !self.shards[s].down)
            .collect();
        let serving: Vec<usize> = active_alive
            .iter()
            .copied()
            .filter(|&s| self.shards[s].breaker.admits())
            .collect();
        let pressure = if serving.is_empty() {
            1.0
        } else {
            let depth: usize = serving.iter().map(|&s| self.shards[s].admission.depth()).sum();
            depth as f64 / (serving.len() * self.cfg.serve.admission.queue_cap) as f64
        };
        let level = self.ladder.level();
        let decision = autoscale::decide(
            &a,
            active_alive.len(),
            pressure,
            level == DegradeLevel::Normal,
            level == DegradeLevel::Quarantine,
        );
        match decision {
            ScaleDecision::Up => {
                if let Some(s) = self.scale_up_target() {
                    self.emit(Record::ScaleUp { shard: s as u32, t_s: t })?;
                }
            }
            ScaleDecision::Down => {
                if let Some(s) = self.scale_down_target() {
                    self.emit(Record::ScaleDown { shard: s as u32, t_s: t })?;
                }
            }
            ScaleDecision::Hold => {}
        }
        Ok(())
    }

    /// Phase 6: admit (or shed) every arrival due by `t`, routing over
    /// the consistent-hash ring with bounded-load overflow: a tenant
    /// whose home shard is saturated past the load bound spills clockwise
    /// to the next admitting member instead of queueing behind the
    /// hotspot.
    fn phase_arrivals(&mut self, t: f64) -> Result<(), ServeError> {
        while self
            .trace
            .get(self.arrival_cursor)
            .is_some_and(|r| r.arrival_s <= t)
        {
            let req = self.trace[self.arrival_cursor];
            let level = self.ladder.level();
            if !level.admits(req.deadline) {
                let kind = RejectReason::FleetDegraded { level: level.name() }.kind();
                self.emit(Record::Shed { req, kind: kind.to_string() })?;
                continue;
            }
            let total: usize = self
                .ring
                .members()
                .iter()
                .map(|&m| self.shards[m as usize].admission.depth())
                .sum();
            let bound = load_bound(total, self.ring.members().len(), self.cfg.ring.load_factor);
            let shards = &self.shards;
            let target = self.ring.route_bounded(
                req.tenant as u64,
                bound,
                |s| shards[s as usize].admission.depth(),
                |s| shards[s as usize].breaker.admits(),
            );
            let Some(target) = target else {
                self.emit(Record::Shed { req, kind: "no_shard".to_string() })?;
                continue;
            };
            let target = target as usize;
            // Completion estimate on the target: residual busy time, the
            // backlog ahead, and the request's own service.
            let mut estimate = self.shards[target]
                .inflight
                .as_ref()
                .map_or(0.0, |i| (i.done_s - t).max(0.0));
            let backlog: Vec<Request> =
                self.shards[target].admission.queued().copied().collect();
            for q in &backlog {
                estimate += self.request_estimate(q);
            }
            estimate += self.request_estimate(&req);
            match self.shards[target].admission.check(&req, estimate) {
                Ok(()) => {
                    let key = idempotency_key(self.cfg.serve.seed, req.id);
                    self.emit(Record::Accepted { req, key, shard: target as u32 })?;
                }
                Err(reason) => {
                    self.emit(Record::Shed { req, kind: reason.kind().to_string() })?;
                }
            }
        }
        Ok(())
    }

    /// Phase 7: idle, warm shards pull whole formed-but-unstarted batches
    /// from busy ones. Two journaled steps per steal — `Batched` on the
    /// victim, then `Stolen` moving it to the thief — so a crash between
    /// them resumes unambiguously: a victim holding a pending batch
    /// *while busy executing another* can only be mid-steal (dispatch
    /// only forms batches for idle shards), and is drained first.
    fn phase_steal(&mut self, t: f64) -> Result<(), ServeError> {
        if !self.cfg.steal {
            return Ok(());
        }
        let thieves: Vec<usize> = (0..self.cfg.shards)
            .filter(|&s| {
                self.active[s]
                    && !self.shards[s].down
                    && !self.warming(s)
                    && self.shards[s].breaker.admits()
                    && self.shards[s].inflight.is_none()
                    && self.shards[s].pending.is_none()
                    && self.shards[s].admission.depth() == 0
            })
            .collect();
        for thief in thieves {
            if self.shards[thief].pending.is_some() {
                continue; // the journal prefix already gave this thief its batch
            }
            // A busy victim already holding a formed batch is a steal the
            // crash interrupted between its two records: finish it first.
            let mid = (0..self.cfg.shards).find(|&v| {
                v != thief
                    && self.active[v]
                    && !self.shards[v].down
                    && self.shards[v].inflight.is_some()
                    && self.shards[v].pending.is_some()
            });
            let victim = match mid {
                Some(v) => v,
                None => {
                    let mut best: Option<(usize, usize)> = None;
                    for v in 0..self.cfg.shards {
                        if v == thief
                            || !self.active[v]
                            || self.shards[v].down
                            || self.warming(v)
                            || self.shards[v].inflight.is_none()
                            || self.shards[v].pending.is_some()
                        {
                            continue;
                        }
                        let d = self.shards[v].admission.depth();
                        if d > 0 && best.is_none_or(|(_, bd)| d > bd) {
                            best = Some((v, d));
                        }
                    }
                    match best {
                        Some((v, _)) => v,
                        None => break, // no busy backlog anywhere: nothing to steal
                    }
                }
            };
            if self.shards[victim].pending.is_none() {
                let mut bc = self.cfg.serve.batch;
                if self.ladder.level().splits_batches() {
                    bc.max_bands = (bc.max_bands / 2).max(1);
                }
                let queue: Vec<Request> = self.shards[victim].admission.queued().copied().collect();
                let plan = plan_batch(queue.iter(), &bc);
                if plan.is_empty() {
                    continue;
                }
                let jobs: Vec<u64> = plan.iter().map(|&p| queue[p].id).collect();
                let batch = self.next_batch;
                self.emit(Record::Batched { shard: victim as u32, batch, jobs })?;
            }
            let batch = self.shards[victim].pending.ok_or_else(|| {
                ServeError::Journal(format!("steal lost its formed batch on shard {victim}"))
            })?;
            self.emit(Record::Stolen { from: victim as u32, to: thief as u32, batch, t_s: t })?;
        }
        Ok(())
    }

    /// Phase 8: each idle shard forms its next batch (band cap halved at
    /// `SplitLarge` and above) and starts it — two journaled steps, so a
    /// crash between them resumes with the identical member set. Standby
    /// and warming shards execute nothing.
    fn phase_dispatch(&mut self, t: f64) -> Result<(), ServeError> {
        for s in 0..self.cfg.shards {
            if self.shards[s].down || !self.active[s] || self.warming(s) {
                continue;
            }
            if self.shards[s].pending.is_none() {
                if self.shards[s].inflight.is_some() || self.shards[s].admission.depth() == 0 {
                    continue;
                }
                let mut bc = self.cfg.serve.batch;
                if self.ladder.level().splits_batches() {
                    bc.max_bands = (bc.max_bands / 2).max(1);
                }
                let queue: Vec<Request> = self.shards[s].admission.queued().copied().collect();
                let plan = plan_batch(queue.iter(), &bc);
                if plan.is_empty() {
                    continue;
                }
                let jobs: Vec<u64> = plan.iter().map(|&p| queue[p].id).collect();
                let batch = self.next_batch;
                self.emit(Record::Batched { shard: s as u32, batch, jobs })?;
            }
            if let Some(batch) = self.shards[s].pending {
                let (class, nbnd) = {
                    let info = self.batch_info.get(&batch).ok_or_else(|| {
                        ServeError::Journal(format!("pending batch {batch} has no batch info"))
                    })?;
                    (info.batch.class, info.batch.nbnd)
                };
                let placement = self.decide(class, nbnd);
                let base = self.tuner.service_s(class, nbnd, &placement);
                let service_s = base * self.slow.factor(s as u64);
                let policy = SchedulerPolicy::ALL
                    .iter()
                    .position(|p| *p == placement.policy)
                    .ok_or_else(|| {
                        ServeError::Journal("placement policy missing from ALL".into())
                    })?;
                self.emit(Record::Started {
                    shard: s as u32,
                    batch,
                    start_s: t,
                    service_s,
                    nr: placement.nr,
                    ntg: placement.ntg,
                    policy,
                    decomp: placement.decomp.index(),
                    epoch: self.ring.epoch(),
                })?;
            }
        }
        Ok(())
    }

    /// Phase 9: the brown-out ladder moves at most one level per tick on
    /// the admitting active shards' mean queue occupancy, or — past
    /// [`DegradeConfig::quarantine_at`] — on the fraction of started
    /// batches whose results failed ABFT verification. Both pressures are
    /// journal-derived, so the step is replay-stable.
    fn phase_degrade(&mut self, t: f64) -> Result<(), ServeError> {
        if self.degrade_t == Some(t) {
            return Ok(()); // transition already journaled this tick
        }
        let admitting: Vec<usize> = (0..self.cfg.shards)
            .filter(|&s| {
                self.active[s] && !self.shards[s].down && self.shards[s].breaker.admits()
            })
            .collect();
        let pressure = if admitting.is_empty() {
            1.0
        } else {
            let depth: usize = admitting
                .iter()
                .map(|&s| self.shards[s].admission.depth())
                .sum();
            depth as f64 / (admitting.len() * self.cfg.serve.admission.queue_cap) as f64
        };
        let started = self.log.counter_total("fleet.batches");
        let corruption = if started == 0 {
            0.0
        } else {
            self.corruption_x.len() as f64 / started as f64
        };
        if let Some(next) = self.ladder.next_level(pressure, corruption, &self.cfg.degrade) {
            self.emit(Record::Degraded { level: next.index(), t_s: t })?;
        }
        Ok(())
    }

    /// The live loop: runs the fixed phase order tick by tick until every
    /// arrival is consumed and no accepted job is open.
    ///
    /// # Errors
    /// [`ServeError::Stalled`] past the safety tick bound; any journal /
    /// state inconsistency a phase detects.
    fn run_loop(&mut self, resume: bool) -> Result<(), ServeError> {
        if resume && !self.journal.is_empty() {
            // Finish the crash tick before re-checking the exit condition:
            // the cut may fall after the tick's final completion emptied
            // `open` but before its heartbeats, and the uninterrupted run
            // finished that tick. Every phase is idempotent over its
            // already-journaled part, so nothing is emitted twice.
            let t = self.tick as f64 * self.cfg.health.tick_s;
            self.run_tick(t)?;
            self.tick += 1;
        }
        while self.arrival_cursor < self.trace.len() || !self.open.is_empty() {
            if self.tick > self.cfg.max_ticks {
                return Err(ServeError::Stalled {
                    tick: self.tick,
                    open_jobs: self.open.len(),
                });
            }
            let t = self.tick as f64 * self.cfg.health.tick_s;
            self.run_tick(t)?;
            self.tick += 1;
        }
        Ok(())
    }

    /// One tick in the fixed phase order. Each phase skips the part of its
    /// work the journal already records, so re-running a partially
    /// journaled tick (crash recovery) emits exactly the missing suffix.
    fn run_tick(&mut self, t: f64) -> Result<(), ServeError> {
        self.phase_completions(t)?;
        self.phase_heartbeats(t)?;
        self.phase_deaths(t)?;
        self.phase_failover(t)?;
        self.phase_autoscale(t)?;
        self.phase_arrivals(t)?;
        self.phase_steal(t)?;
        self.phase_dispatch(t)?;
        self.phase_degrade(t)?;
        Ok(())
    }

    fn into_report(self) -> Result<FleetReport, ServeError> {
        let conservation = self.journal.conservation()?;
        let counters = self
            .log
            .counters()
            .map_err(|e| ServeError::Journal(format!("telemetry log: {e}")))?;
        let timeline = self
            .log
            .state_timeline()
            .map_err(|e| ServeError::Journal(format!("telemetry log: {e}")))?;
        Ok(FleetReport {
            shards: self.cfg.shards,
            jobs: self.jobs,
            shed: self.shed,
            counters,
            timeline,
            journal: self.journal,
            conservation,
            makespan_s: self.makespan,
        })
    }
}

/// Runs a fleet over an arrival-ordered request trace.
///
/// # Errors
/// See [`Fleet::new`] and the loop phases.
pub fn run_fleet(requests: &[Request], cfg: &FleetConfig) -> Result<FleetReport, ServeError> {
    let mut fleet = Fleet::new(requests, *cfg)?;
    fleet.run_loop(false)?;
    fleet.into_report()
}

/// Crash recovery: replays a journal `prefix` through the apply path,
/// then continues the live loop. With the same trace and configuration
/// the result — including the journal itself — is byte-identical to the
/// uninterrupted run's, from any record-boundary crash point.
///
/// # Errors
/// [`ServeError::Journal`] when the prefix contradicts the trace or
/// itself; otherwise see [`run_fleet`].
pub fn resume_fleet(
    prefix: &Journal,
    requests: &[Request],
    cfg: &FleetConfig,
) -> Result<FleetReport, ServeError> {
    let mut fleet = Fleet::new(requests, *cfg)?;
    for rec in prefix.records() {
        fleet.journal.append(rec.clone());
        let rec = rec.clone();
        fleet.apply(&rec)?;
    }
    fleet.run_loop(true)?;
    fleet.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::PlacementMode;
    use crate::traffic::{generate, LoadProfile, TrafficConfig};

    fn trace(seed: u64, rate_hz: f64) -> Vec<Request> {
        generate(&TrafficConfig {
            seed,
            rate_hz,
            duration_s: 1.0,
            tenants: 3,
            profile: LoadProfile::Steady,
        })
    }

    #[test]
    fn healthy_fleet_conserves_and_replays_bit_identically() {
        let reqs = trace(7, 40.0);
        let cfg = FleetConfig::default();
        let a = run_fleet(&reqs, &cfg).expect("fleet");
        let b = run_fleet(&reqs, &cfg).expect("fleet");
        assert_eq!(a.journal.encode(), b.journal.encode());
        assert!(a.conservation.open.is_empty(), "no job left open");
        assert_eq!(a.offered(), reqs.len());
        assert_eq!(a.jobs.len(), a.conservation.completed);
        assert_eq!(a.counters.get("fleet.shard_down"), 0);
        assert!(a.counters.get("fleet.batches") > 0);
        assert!(a.makespan_s > 0.0);
    }

    #[test]
    fn node_death_fails_over_without_losing_a_job() {
        let reqs = trace(7, 80.0);
        let cfg = FleetConfig {
            faults: FleetFaults { seed: 3, p_death: 0.9, ..Default::default() },
            ..Default::default()
        };
        let r = run_fleet(&reqs, &cfg).expect("fleet");
        assert!(r.counters.get("fleet.shard_down") >= 1, "a shard must die");
        assert!(r.counters.get("fleet.failover.jobs") >= 1, "work must move");
        assert!(r.conservation.open.is_empty(), "zero loss across failover");
        assert_eq!(r.offered(), reqs.len());
        assert!(!r.failover_latencies().is_empty());
        // The run stays deterministic under faults.
        let again = run_fleet(&reqs, &cfg).expect("fleet");
        assert_eq!(r.journal.encode(), again.journal.encode());
    }

    #[test]
    fn resume_from_any_crash_point_matches_the_uninterrupted_run() {
        let reqs = trace(11, 60.0);
        let cfg = FleetConfig {
            faults: FleetFaults { seed: 3, p_death: 0.9, ..Default::default() },
            ..Default::default()
        };
        let full = run_fleet(&reqs, &cfg).expect("fleet");
        let n = full.journal.len();
        for cut in [0, n / 3, 2 * n / 3, n.saturating_sub(1), n] {
            let mut prefix = Journal::new();
            for rec in &full.journal.records()[..cut] {
                prefix.append(rec.clone());
            }
            let resumed = resume_fleet(&prefix, &reqs, &cfg).expect("resume");
            assert_eq!(
                resumed.journal.encode(),
                full.journal.encode(),
                "resume from record {cut}/{n} diverged"
            );
            assert_eq!(resumed.jobs, full.jobs);
        }
    }

    #[test]
    fn overload_engages_the_degrade_ladder() {
        let reqs = generate(&TrafficConfig {
            seed: 11,
            rate_hz: 400.0,
            duration_s: 1.0,
            tenants: 2,
            profile: LoadProfile::Burst,
        });
        let cfg = FleetConfig {
            shards: 1,
            serve: ServeConfig {
                admission: crate::admission::AdmissionConfig {
                    queue_cap: 8,
                    tenant_share: 1.0,
                    shed_late: false,
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let r = run_fleet(&reqs, &cfg).expect("fleet");
        assert!(
            r.counters.sum_prefix("fleet.degrade.") > 0,
            "the ladder must move under a saturating burst"
        );
        assert!(
            r.counters.get("shed.degraded") > 0,
            "the ladder must shed by deadline class"
        );
        assert!(r.conservation.open.is_empty());
        assert_eq!(r.offered(), reqs.len());
        // The ladder recovers once the backlog drains.
        assert_eq!(r.timeline.last_state(cfg.shards as u32), Some("normal"));
    }

    #[test]
    fn partition_duplicates_are_suppressed_exactly_once() {
        // Slow nodes stretch service past the death delay, so partitioned
        // shards are declared dead while work is still in flight: the
        // zombie completions then race their failover re-runs into the
        // idempotency guard.
        let reqs = trace(7, 200.0);
        let cfg = FleetConfig {
            faults: FleetFaults {
                seed: 19,
                p_partition: 0.4,
                partition_window: 0.3,
                p_slow: 1.0,
                slow_max: 30.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = run_fleet(&reqs, &cfg).expect("fleet");
        assert!(
            r.counters.get("fleet.shard_down") >= 1,
            "a partition long enough must get a shard declared dead"
        );
        assert!(
            r.counters.get("fleet.suppressed") >= 1,
            "split-brain must produce at least one suppressed duplicate"
        );
        assert_eq!(
            r.counters.get("fleet.suppressed"),
            r.conservation.suppressed as u64
        );
        assert!(r.conservation.open.is_empty(), "zero loss under split-brain");
        assert_eq!(r.offered(), reqs.len());
    }

    fn corrupt_cfg(seed: u64) -> FleetConfig {
        FleetConfig {
            serve: ServeConfig {
                mode: PlacementMode::Static(SchedulerPolicy::Serial),
                chaos: Some(crate::exec::ServeChaos {
                    seed,
                    evict_batch: None,
                    corrupt_per_mille: 1000,
                }),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn corruption_is_detected_journaled_and_resumes_bit_identically() {
        let reqs = trace(7, 40.0);
        let cfg = corrupt_cfg(21);
        let full = run_fleet(&reqs, &cfg).expect("fleet");
        assert!(
            full.counters.get("fleet.corruption.detected") > 0,
            "a saturating flip rate must trip the verifier"
        );
        assert_eq!(
            full.conservation.corruption_detected,
            full.counters.get("fleet.corruption.detected"),
            "journal and counters agree on detections"
        );
        assert!(full.conservation.open.is_empty(), "zero loss under corruption");
        assert!(full.conservation.hashed > 0, "real completions carry hashes");
        assert_eq!(full.offered(), reqs.len());
        // Resume across the X/R records stays byte-identical: the guard
        // sets are rebuilt by replay, never double-emitted.
        let n = full.journal.len();
        for cut in [n / 3, n / 2, 2 * n / 3] {
            let mut prefix = Journal::new();
            for rec in &full.journal.records()[..cut] {
                prefix.append(rec.clone());
            }
            let resumed = resume_fleet(&prefix, &reqs, &cfg).expect("resume");
            assert_eq!(
                resumed.journal.encode(),
                full.journal.encode(),
                "resume from record {cut}/{n} diverged under corruption"
            );
        }
    }

    #[test]
    fn sustained_corruption_quarantines_the_fleet() {
        let reqs = trace(7, 80.0);
        let r = run_fleet(&reqs, &corrupt_cfg(5)).expect("fleet");
        assert!(r.counters.get("fleet.corruption.detected") > 0);
        assert!(
            r.counters.get("fleet.degrade.quarantine") > 0,
            "corruption pressure must climb the ladder past reject_new"
        );
        assert!(
            r.counters.get("fleet.breaker.open") > 0,
            "repeat-corrupting shards trip their breakers"
        );
        assert_eq!(
            r.timeline.last_state(r.shards as u32),
            Some("quarantine"),
            "corruption never subsided, so the ladder must still be up"
        );
        assert!(r.conservation.open.is_empty(), "backlog still drains to zero loss");
        assert_eq!(r.offered(), reqs.len());
    }

    #[test]
    fn ring_routing_is_stable_under_membership_change() {
        let reqs = trace(7, 40.0);
        let mut fleet = Fleet::new(&reqs, FleetConfig::default()).expect("fleet");
        assert_eq!(fleet.ring.members(), &[0, 1, 2]);
        assert_eq!(fleet.ring.epoch(), 3);
        let before: Vec<u32> = (0..16u64)
            .map(|t| fleet.ring.route(t, |_| true).expect("route"))
            .collect();
        fleet.ring.remove(0);
        for (t, &home) in before.iter().enumerate() {
            let now = fleet.ring.route(t as u64, |_| true).expect("route");
            if home != 0 {
                assert_eq!(home, now, "tenant {t} moved without cause");
            } else {
                assert_ne!(now, 0);
            }
        }
        assert_eq!(fleet.ring.epoch(), 4, "membership change bumps the epoch");
    }

    fn autoscale_cfg(shards: usize, min: usize) -> FleetConfig {
        FleetConfig {
            shards,
            autoscale: Some(crate::fleet::AutoscaleConfig {
                min,
                max: shards,
                ..Default::default()
            }),
            ..Default::default()
        }
    }

    #[test]
    fn autoscaler_grows_under_load_and_shrinks_back() {
        let reqs = generate(&TrafficConfig {
            seed: 7,
            rate_hz: 200.0,
            duration_s: 1.0,
            tenants: 4,
            profile: LoadProfile::Burst,
        });
        let cfg = autoscale_cfg(4, 1);
        let r = run_fleet(&reqs, &cfg).expect("fleet");
        assert!(r.counters.get("fleet.scale.up") >= 1, "the burst must trigger a scale-up");
        assert!(
            r.counters.get("fleet.scale.down") >= 1,
            "the fleet must shrink once the backlog drains"
        );
        assert!(r.conservation.open.is_empty(), "zero loss across scale events");
        assert_eq!(r.offered(), reqs.len());
        let again = run_fleet(&reqs, &cfg).expect("fleet");
        assert_eq!(r.journal.encode(), again.journal.encode());
    }

    #[test]
    fn elastic_resume_is_bit_identical_across_scale_records() {
        let reqs = generate(&TrafficConfig {
            seed: 11,
            rate_hz: 150.0,
            duration_s: 1.0,
            tenants: 3,
            profile: LoadProfile::Burst,
        });
        let cfg = autoscale_cfg(3, 1);
        let full = run_fleet(&reqs, &cfg).expect("fleet");
        assert!(full.counters.get("fleet.scale.up") >= 1);
        // Cut directly before and after every scale record, plus spread
        // points: the elastic run must resume byte-identically from all.
        let mut cuts: Vec<usize> = full
            .journal
            .records()
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, Record::ScaleUp { .. } | Record::ScaleDown { .. }))
            .flat_map(|(i, _)| [i, i + 1])
            .collect();
        let n = full.journal.len();
        cuts.extend([0, n / 2, n]);
        for cut in cuts {
            let mut prefix = Journal::new();
            for rec in &full.journal.records()[..cut] {
                prefix.append(rec.clone());
            }
            let resumed = resume_fleet(&prefix, &reqs, &cfg).expect("resume");
            assert_eq!(
                resumed.journal.encode(),
                full.journal.encode(),
                "resume from record {cut}/{n} diverged across a scale record"
            );
        }
    }

    #[test]
    fn work_stealing_moves_batches_and_stays_deterministic() {
        // A 40x-slow shard builds a multi-tick backlog while another
        // drains to idle — exactly the asymmetry stealing exists for.
        let reqs = generate(&TrafficConfig {
            seed: 7,
            rate_hz: 200.0,
            duration_s: 1.0,
            tenants: 2,
            profile: LoadProfile::Burst,
        });
        let cfg = FleetConfig {
            steal: true,
            faults: FleetFaults { seed: 7, p_slow: 0.6, slow_max: 40.0, ..Default::default() },
            ..Default::default()
        };
        let r = run_fleet(&reqs, &cfg).expect("fleet");
        assert!(r.counters.get("fleet.steal") >= 1, "an idle shard must steal");
        assert_eq!(r.conservation.steals as u64, r.counters.get("fleet.steal"));
        assert!(r.conservation.open.is_empty(), "zero loss across steals");
        assert_eq!(r.offered(), reqs.len());
        let again = run_fleet(&reqs, &cfg).expect("fleet");
        assert_eq!(r.journal.encode(), again.journal.encode());
        // Resume across the steal records: byte-identical.
        let n = r.journal.len();
        for cut in [n / 4, n / 2, 3 * n / 4] {
            let mut prefix = Journal::new();
            for rec in &r.journal.records()[..cut] {
                prefix.append(rec.clone());
            }
            let resumed = resume_fleet(&prefix, &reqs, &cfg).expect("resume");
            assert_eq!(resumed.journal.encode(), r.journal.encode());
        }
    }

    #[test]
    fn autoscale_bounds_are_validated() {
        let mut cfg = autoscale_cfg(3, 1);
        cfg.autoscale = Some(crate::fleet::AutoscaleConfig {
            min: 1,
            max: 9,
            ..Default::default()
        });
        assert!(matches!(run_fleet(&[], &cfg), Err(ServeError::Config(_))));
    }

    #[test]
    fn zero_shard_fleet_is_a_typed_error() {
        let cfg = FleetConfig { shards: 0, ..Default::default() };
        assert!(matches!(
            run_fleet(&[], &cfg),
            Err(ServeError::Journal(_))
        ));
    }
}
