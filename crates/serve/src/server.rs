//! The serving loop: a deterministic virtual-time discrete-event server
//! that admits requests, coalesces them into batches, places each batch
//! with the [`Tuner`](crate::tuner::Tuner), and optionally executes it for
//! real on the stage-graph engines — surviving injected chaos through the
//! recovery ladder (task retry → batch rollback → rank eviction) without
//! losing a single accepted job.
//!
//! Time accounting is entirely virtual: a batch's service time is its
//! modeled (DES) cost under the chosen placement, plus model-priced
//! recovery overhead derived from the *real* retry/rollback counts when
//! chaos is injected. Wall clocks never enter the loop, so a pinned seed
//! reproduces the identical report — the property the CI gates rely on.
//! Real executions feed two things back: per-member result hashes (the
//! golden suite compares them against direct engine runs) and
//! model-comparable duration observations for the tuner's online
//! refinement.

use crate::admission::{Admission, AdmissionConfig};
use crate::batch::BatchConfig;
use crate::error::ServeError;
use crate::exec::{Backend, ServeChaos};
use crate::request::{band_hash, GeometryClass, RejectReason, Request};
use crate::tuner::{Placement, Tuner, TunerConfig};
use fftx_core::{DecompChoice, Decomposition, SchedulerPolicy};
use fftx_trace::{stage_profile, CounterSet, DepthSeries, EventLog, Quantiles};
use std::collections::BTreeMap;

/// How the server picks a placement per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementMode {
    /// Tuner searches every policy's candidate row (the full space).
    Auto,
    /// Tuner is restricted to one policy's row — the static baselines the
    /// auto mode is gated against.
    Static(SchedulerPolicy),
}

impl PlacementMode {
    /// The pinned policy of a static mode; `None` under auto.
    pub(crate) fn fixed(self) -> Option<SchedulerPolicy> {
        match self {
            PlacementMode::Auto => None,
            PlacementMode::Static(p) => Some(p),
        }
    }

    /// Display name: `auto` or the policy name.
    pub fn name(self) -> String {
        match self {
            PlacementMode::Auto => "auto".into(),
            PlacementMode::Static(p) => p.name().into(),
        }
    }

    /// Parses `auto` or any scheduler-policy name.
    pub fn parse(s: &str) -> Option<Self> {
        if s == "auto" {
            return Some(PlacementMode::Auto);
        }
        SchedulerPolicy::parse(s).map(PlacementMode::Static)
    }
}

/// Serving-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Admission-control knobs.
    pub admission: AdmissionConfig,
    /// Batch-formation knobs.
    pub batch: BatchConfig,
    /// Placement-tuner knobs.
    pub tuner: TunerConfig,
    /// Placement selection mode.
    pub mode: PlacementMode,
    /// Decomposition selection: `Auto` lets the tuner search both
    /// lowerings; a fixed choice restricts its candidate space — the
    /// fixed-decomposition baselines the `decomp` bench gates against.
    pub decomp: DecompChoice,
    /// Execute each batch for real on the stage-graph engines (hashes and
    /// stage profiles come back); otherwise service is purely modeled.
    pub execute_real: bool,
    /// Chaos on the serving path (implies real execution).
    pub chaos: Option<ServeChaos>,
    /// Workload data seed: fixes the synthetic band/potential content of
    /// every batch problem, so served results are bit-comparable to direct
    /// engine runs of the same configuration.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            admission: AdmissionConfig::default(),
            batch: BatchConfig::default(),
            tuner: TunerConfig::default(),
            mode: PlacementMode::Auto,
            decomp: DecompChoice::Auto,
            execute_real: false,
            chaos: None,
            seed: 42,
        }
    }
}

/// One completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    /// The request.
    pub request: Request,
    /// Dispatch index of the batch that carried it.
    pub batch: usize,
    /// Completion time (virtual seconds).
    pub done_s: f64,
    /// Arrival-to-completion latency (virtual seconds).
    pub latency_s: f64,
    /// FNV hash of the request's result bands (real executions only).
    pub hash: Option<u64>,
    /// Whether the latency stayed within the deadline budget.
    pub deadline_met: bool,
}

/// One shed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedRecord {
    /// The request.
    pub request: Request,
    /// Why admission refused it.
    pub reason: RejectReason,
}

/// One dispatched batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Dispatch index.
    pub index: usize,
    /// Geometry class of the batch.
    pub class: GeometryClass,
    /// The placement that executed it.
    pub placement: Placement,
    /// Requests coalesced into it.
    pub members: usize,
    /// Payload and padded band counts.
    pub payload_bands: usize,
    /// Band count of the batch problem.
    pub nbnd: usize,
    /// Dispatch time (virtual seconds).
    pub start_s: f64,
    /// Service time including recovery overhead (virtual seconds).
    pub service_s: f64,
    /// Recovery events absorbed: (task retries, batch rollbacks, evictions).
    pub recovery: (u64, u64, u64),
    /// The run had to be escalated to a clean re-execution after the
    /// in-place recovery budget was exhausted.
    pub escalated: bool,
}

/// The full outcome of one serving run.
#[derive(Debug)]
pub struct ServeReport {
    /// Placement mode the run used.
    pub mode: PlacementMode,
    /// Decomposition choice the run used.
    pub decomp: DecompChoice,
    /// Completed requests, in completion order.
    pub jobs: Vec<JobRecord>,
    /// Shed requests, in arrival order.
    pub shed: Vec<ShedRecord>,
    /// Dispatched batches, in dispatch order.
    pub batches: Vec<BatchRecord>,
    /// Counters: `served.tenant.<id>`, `shed.tenant.<id>`, `shed.<kind>`,
    /// `recovery.retries|rollbacks|evictions`, `escalations`, `batches`.
    pub counters: CounterSet,
    /// Queue depth over virtual time.
    pub depth: DepthSeries,
    /// Per-stage busy seconds summed over real executions (stage id →
    /// seconds), from the `trace::stage` spans.
    pub stage_seconds: BTreeMap<u32, f64>,
    /// The tuner's explainable dump for every workload key the run decided.
    pub why: String,
    /// End of the virtual timeline (last completion).
    pub makespan_s: f64,
}

impl ServeReport {
    /// Requests offered (admitted + shed).
    pub fn offered(&self) -> usize {
        self.jobs.len() + self.shed.len()
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
}

/// The server. Owns the admission queue, the tuner, and the execution
/// backend; [`Server::run`] consumes a request trace and produces the
/// report.
pub struct Server {
    cfg: ServeConfig,
    admission: Admission,
    tuner: Tuner,
    backend: Backend,
    /// The run's telemetry store; the report's counter and depth views are
    /// materialized from it when the run finishes.
    log: EventLog,
}

impl Server {
    /// A fresh server under `cfg`.
    pub fn new(cfg: ServeConfig) -> Self {
        Server {
            admission: Admission::new(cfg.admission),
            tuner: Tuner::new(cfg.tuner),
            backend: Backend::new(cfg.seed, cfg.chaos),
            log: EventLog::new(),
            cfg,
        }
    }

    /// Read access to the tuner (its tables survive the run).
    pub fn tuner(&self) -> &Tuner {
        &self.tuner
    }

    fn decide(&mut self, class: GeometryClass, nbnd: usize) -> Placement {
        let (policy, decomp) = (self.cfg.mode.fixed(), self.cfg.decomp.fixed());
        self.tuner.decide_in(class, nbnd, policy, decomp).placement
    }

    /// Rough completion estimate of one request were it admitted now:
    /// the modeled service of a minimal batch of its class.
    fn request_estimate(&mut self, req: &Request) -> f64 {
        let pad = self.cfg.batch.pad_to.max(1);
        let nbnd = req.bands.div_ceil(pad) * pad;
        let p = self.decide(req.class, nbnd);
        self.tuner.service_s(req.class, nbnd, &p)
    }

    fn dispatch(&mut self, start_s: f64, report: &mut ServeReport) -> Result<f64, ServeError> {
        let batch_cfg = self.cfg.batch;
        let batch = self
            .admission
            .form_batch(&batch_cfg)?
            .ok_or(ServeError::EmptyQueue)?;
        let index = report.batches.len();
        let evict = self.cfg.chaos.and_then(|c| c.evict_batch) == Some(index);
        let mut placement = self.decide(batch.class, batch.nbnd);
        if evict {
            // The eviction layout: 7 virtual ranks as 7×1 so one can die.
            placement = Placement {
                nr: 7,
                ntg: 1,
                policy: SchedulerPolicy::Serial,
                // 7 ranks is prime, so the pencil grid would be degenerate
                // anyway; pin the eviction layout to the slab lowering.
                decomp: Decomposition::Slab,
            };
        }
        let base_service_s = self.tuner.service_s(batch.class, batch.nbnd, &placement);
        let mut service_s = base_service_s;
        let real = self.cfg.execute_real || self.cfg.chaos.is_some();
        let mut hashes: Vec<Option<u64>> = vec![None; batch.members.len()];
        let mut recovery = (0u64, 0u64, 0u64);
        let mut escalated = false;
        if real {
            let run = self.backend.execute(&batch, &placement, index, evict);
            let iterations = batch.nbnd / placement.config(batch.class, batch.nbnd, 0).layout_ntg();
            service_s += self.backend.recovery_overhead_s(&run, base_service_s, iterations);
            recovery = (run.retries, run.rollbacks, run.evictions);
            escalated = run.escalated;
            for (i, m) in batch.members.iter().enumerate() {
                let range = &run.output.bands[m.band_start..m.band_start + m.request.bands];
                hashes[i] = Some(band_hash(range));
            }
            for (stage, _, seconds) in stage_profile(&run.output.trace) {
                *report.stage_seconds.entry(stage).or_insert(0.0) += seconds;
            }
            // Close the loop: the tuner learns the recovery-adjusted,
            // model-comparable duration of this placement.
            self.tuner
                .observe(batch.class, batch.nbnd, &placement, service_s);
        }
        let done_s = start_s + service_s;
        for (i, m) in batch.members.iter().enumerate() {
            let latency_s = done_s - m.request.arrival_s;
            report.jobs.push(JobRecord {
                request: m.request,
                batch: index,
                done_s,
                latency_s,
                hash: hashes[i],
                deadline_met: latency_s <= m.request.deadline.budget_s(),
            });
            self.log
                .push_counter(&format!("served.tenant.{}", m.request.tenant), 1);
        }
        self.log.push_counter("batches", 1);
        self.log.push_counter("recovery.retries", recovery.0);
        self.log.push_counter("recovery.rollbacks", recovery.1);
        self.log.push_counter("recovery.evictions", recovery.2);
        if escalated {
            self.log.push_counter("escalations", 1);
        }
        report.batches.push(BatchRecord {
            index,
            class: batch.class,
            placement,
            members: batch.members.len(),
            payload_bands: batch.payload_bands,
            nbnd: batch.nbnd,
            start_s,
            service_s,
            recovery,
            escalated,
        });
        report.makespan_s = report.makespan_s.max(done_s);
        Ok(done_s)
    }

    /// Runs the server over an arrival-ordered request trace.
    ///
    /// # Errors
    /// [`ServeError::UnorderedTrace`] when the trace is not
    /// arrival-ordered; any internal queue/plan inconsistency the loop
    /// detects is propagated instead of panicking.
    pub fn run(mut self, requests: &[Request]) -> Result<ServeReport, ServeError> {
        if let Some(i) = requests
            .windows(2)
            .position(|w| w[0].arrival_s > w[1].arrival_s)
        {
            return Err(ServeError::UnorderedTrace { index: i + 1 });
        }
        let mut report = ServeReport {
            mode: self.cfg.mode,
            decomp: self.cfg.decomp,
            jobs: Vec::new(),
            shed: Vec::new(),
            batches: Vec::new(),
            counters: CounterSet::new(),
            depth: DepthSeries::new(),
            stage_seconds: BTreeMap::new(),
            why: String::new(),
            makespan_s: 0.0,
        };
        let mut t_free = 0.0f64;
        for req in requests {
            let now = req.arrival_s;
            // The server became free before this arrival: drain the queue
            // batch by batch from that moment.
            while self.admission.depth() > 0 && t_free <= now {
                t_free = self.dispatch(t_free, &mut report)?;
            }
            // Completion estimate: residual busy time, the backlog ahead,
            // and the request's own service.
            let mut estimate = (t_free - now).max(0.0);
            let backlog: Vec<Request> = self.admission.queued().copied().collect();
            for q in &backlog {
                estimate += self.request_estimate(q);
            }
            estimate += self.request_estimate(req);
            match self.admission.offer(*req, estimate) {
                Ok(()) => {}
                Err(reason) => {
                    self.log.push_counter(&format!("shed.{}", reason.kind()), 1);
                    self.log.push_counter(&format!("shed.tenant.{}", req.tenant), 1);
                    report.shed.push(ShedRecord {
                        request: *req,
                        reason,
                    });
                }
            }
            self.log.push_gauge("queue.depth", now, self.admission.depth() as u64);
            // Idle server dispatches immediately on arrival.
            if self.admission.depth() > 0 && t_free <= now {
                t_free = self.dispatch(now, &mut report)?;
            }
        }
        while self.admission.depth() > 0 {
            t_free = self.dispatch(t_free, &mut report)?;
        }
        report.makespan_s = report.makespan_s.max(t_free);
        // Explain every workload key the run decided (auto view).
        let keys: std::collections::BTreeSet<(usize, usize)> = report
            .batches
            .iter()
            .map(|b| (b.class.index(), b.nbnd))
            .collect();
        for (class_idx, nbnd) in keys {
            report.why.push_str(&self.tuner.why(GeometryClass::ALL[class_idx], nbnd));
            report.why.push('\n');
        }
        report.counters = self
            .log
            .counters()
            .map_err(|e| ServeError::Journal(format!("telemetry log: {e}")))?;
        report.depth = self
            .log
            .gauge("queue.depth")
            .map_err(|e| ServeError::Journal(format!("telemetry log: {e}")))?;
        Ok(report)
    }
}

/// Convenience: generate nothing, serve a prepared trace under `cfg`.
///
/// # Errors
/// See [`Server::run`].
pub fn run_serve(requests: &[Request], cfg: &ServeConfig) -> Result<ServeReport, ServeError> {
    Server::new(*cfg).run(requests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{class_problem, DeadlineClass};
    use crate::traffic::{generate, LoadProfile, TrafficConfig};
    use fftx_core::run_policy;

    fn small_trace() -> Vec<Request> {
        generate(&TrafficConfig {
            seed: 7,
            rate_hz: 40.0,
            duration_s: 1.0,
            tenants: 3,
            profile: LoadProfile::Steady,
        })
    }

    #[test]
    fn modeled_run_conserves_requests() {
        let trace = small_trace();
        let report = run_serve(&trace, &ServeConfig::default()).expect("serve");
        assert_eq!(report.offered(), trace.len());
        assert!(!report.jobs.is_empty());
        assert!(!report.batches.is_empty());
        // Every admitted request completes exactly once.
        let mut ids: Vec<u64> = report.jobs.iter().map(|j| j.request.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), report.jobs.len());
        assert!(report.makespan_s > 0.0);
    }

    #[test]
    fn runs_replay_bit_identically() {
        let trace = small_trace();
        let a = run_serve(&trace, &ServeConfig::default()).expect("serve");
        let b = run_serve(&trace, &ServeConfig::default()).expect("serve");
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.why, b.why);
    }

    #[test]
    fn tenant_ordering_is_preserved() {
        let trace = small_trace();
        let report = run_serve(&trace, &ServeConfig::default()).expect("serve");
        let mut last_done: BTreeMap<u32, (f64, u64)> = BTreeMap::new();
        for j in &report.jobs {
            if let Some(&(done, id)) = last_done.get(&j.request.tenant) {
                assert!(
                    j.done_s > done || (j.done_s == done && j.request.id > id),
                    "tenant {} completed out of order",
                    j.request.tenant
                );
            }
            last_done.insert(j.request.tenant, (j.done_s, j.request.id));
        }
    }

    #[test]
    fn overload_sheds_with_typed_reasons() {
        // A tiny queue under a hot burst must shed.
        let trace = generate(&TrafficConfig {
            seed: 11,
            rate_hz: 400.0,
            duration_s: 1.0,
            tenants: 2,
            profile: LoadProfile::Burst,
        });
        let cfg = ServeConfig {
            admission: AdmissionConfig {
                queue_cap: 4,
                tenant_share: 0.5,
                shed_late: true,
            },
            ..Default::default()
        };
        let report = run_serve(&trace, &cfg).expect("serve");
        assert!(!report.shed.is_empty());
        assert!(report.shed_rate() > 0.0);
        assert_eq!(
            report.counters.sum_prefix("shed.tenant."),
            report.shed.len() as u64
        );
        assert!(report.depth.max() <= 4);
    }

    #[test]
    fn real_execution_hashes_match_a_direct_engine_run() {
        let trace: Vec<Request> = small_trace().into_iter().take(6).collect();
        let cfg = ServeConfig {
            execute_real: true,
            ..Default::default()
        };
        let report = run_serve(&trace, &cfg).expect("serve");
        for batch in &report.batches {
            let jobs: Vec<&JobRecord> =
                report.jobs.iter().filter(|j| j.batch == batch.index).collect();
            let p = batch.placement;
            let problem = class_problem(batch.class, p.config(batch.class, batch.nbnd, 42));
            let direct = run_policy(&problem, p.policy);
            // Jobs of one batch are recorded in member (band) order, so the
            // band offsets reconstruct by accumulation.
            let mut start = 0;
            for j in jobs {
                let m = j.request;
                let expect = band_hash(&direct.bands[start..start + m.bands]);
                assert_eq!(j.hash, Some(expect), "request {}", m.id);
                start += m.bands;
            }
        }
    }

    #[test]
    fn chaos_run_loses_no_accepted_jobs() {
        let trace: Vec<Request> = small_trace().into_iter().take(8).collect();
        let cfg = ServeConfig {
            chaos: Some(ServeChaos {
                seed: 0xC0FFEE,
                evict_batch: None,
                corrupt_per_mille: 0,
            }),
            ..Default::default()
        };
        let report = run_serve(&trace, &cfg).expect("serve");
        assert_eq!(report.offered(), trace.len());
        assert_eq!(report.jobs.len() + report.shed.len(), trace.len());
        // Chaos must not change any result: hashes match the clean run.
        let clean = run_serve(
            &trace,
            &ServeConfig {
                execute_real: true,
                ..Default::default()
            },
        )
        .expect("serve");
        let hash_of = |r: &ServeReport, id: u64| {
            r.jobs.iter().find(|j| j.request.id == id).and_then(|j| j.hash)
        };
        for j in &report.jobs {
            assert_eq!(
                j.hash,
                hash_of(&clean, j.request.id),
                "request {} result corrupted by chaos",
                j.request.id
            );
        }
    }

    #[test]
    fn eviction_batch_survives_a_rank_death() {
        let trace: Vec<Request> = small_trace().into_iter().take(4).collect();
        let cfg = ServeConfig {
            chaos: Some(ServeChaos {
                seed: 5,
                evict_batch: Some(0),
                corrupt_per_mille: 0,
            }),
            ..Default::default()
        };
        let report = run_serve(&trace, &cfg).expect("serve");
        let b0 = &report.batches[0];
        assert_eq!(b0.placement.nr, 7);
        assert_eq!(b0.recovery.2, 1, "one eviction expected");
        assert!(!b0.escalated);
        assert!(report.jobs.iter().filter(|j| j.batch == 0).all(|j| j.hash.is_some()));
    }

    #[test]
    fn unordered_trace_is_a_typed_error() {
        let mut trace = small_trace();
        trace.swap(0, 1);
        // Guard against two identical arrival times making the swap a no-op.
        if trace[0].arrival_s == trace[1].arrival_s {
            trace[0].arrival_s += 1.0;
        }
        let err = run_serve(&trace, &ServeConfig::default()).expect_err("unordered");
        assert!(matches!(err, ServeError::UnorderedTrace { .. }));
    }

    #[test]
    fn deadlines_partition_completions() {
        let trace = small_trace();
        let report = run_serve(&trace, &ServeConfig::default()).expect("serve");
        for j in &report.jobs {
            assert_eq!(
                j.deadline_met,
                j.latency_s <= j.request.deadline.budget_s()
            );
            assert!(matches!(
                j.request.deadline,
                DeadlineClass::Interactive | DeadlineClass::Standard | DeadlineClass::Batch
            ));
        }
        let mut q = report.latency();
        if q.len() >= 2 {
            assert!(q.p50() <= q.p99());
        }
    }
}
