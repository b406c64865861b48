//! `fftx-serve` — a multi-tenant FFT job-serving subsystem on top of the
//! stage-graph engines, with auto-tuned placement.
//!
//! The serving path, front to back:
//!
//! 1. [`traffic`] — deterministic open-loop request generation (Poisson
//!    arrivals, steady/burst/diurnal profiles, mixed tenants, geometry and
//!    deadline classes).
//! 2. [`admission`] — bounded queue, per-tenant fair share, deadline-aware
//!    load shedding with typed [`RejectReason`]s.
//! 3. [`batch`] — coalescing compatible requests onto one `Problem`
//!    (the serving-layer analogue of the paper's band grouping), with
//!    per-tenant ordering preserved.
//! 4. [`tuner`] — the placement engine: candidate (R×T, ntg, policy,
//!    HT-degree) configurations screened by the closed-form `knlsim`
//!    estimate, priced exactly on the DES, refined online from measured
//!    durations, cached in a deterministic tuning table, explainable via
//!    [`Tuner::why`].
//! 5. [`server`] — the virtual-time serving loop: dispatches batches on
//!    the stage-graph engines, survives injected chaos through the
//!    recovery ladder (retry → rollback → eviction) without losing an
//!    accepted job, and exports per-tenant/per-stage metrics.
//!
//! Fleet durability on top of the single-node path:
//!
//! 6. [`journal`] — the append-only write-ahead log of every fleet state
//!    transition, with a lossless text encoding, per-job idempotency
//!    keys, and a machine-checked conservation audit.
//! 7. [`health`] — the heartbeat schedule and the per-shard circuit
//!    breaker (trip → bounded-backoff half-open probing), reusing the
//!    task-retry backoff schedule.
//! 8. [`degrade`] — the brown-out ladder: shed by deadline class, split
//!    large batches, reject new work; every transition journaled.
//! 9. [`supervisor`] — N simulated shard nodes under one supervisor:
//!    journaled virtual-time loop, node-death failover through the
//!    placement tuner, split-brain duplicate suppression, and exact
//!    crash recovery by journal replay ([`resume_fleet`]).
//! 10. [`fleet`] — fleet capacity: the tenant→shard consistent-hash ring
//!     (bounded-load overflow, minimal movement on membership change),
//!     the journaled reactive autoscaler, cross-shard work stealing, and
//!     the offline parallel Monte-Carlo capacity planner
//!     ([`plan_capacity`]).

#![warn(missing_docs)]

pub mod admission;
pub mod batch;
pub mod degrade;
pub mod error;
pub mod exec;
pub mod fleet;
pub mod health;
pub mod journal;
pub mod request;
pub mod server;
pub mod supervisor;
pub mod traffic;
pub mod tuner;

pub use admission::{Admission, AdmissionConfig};
pub use batch::{assemble, plan_batch, Batch, BatchConfig, BatchMember};
pub use degrade::{DegradeLevel, Ladder};
pub use error::ServeError;
pub use fleet::{
    load_bound, plan_capacity, AutoscaleConfig, HashRing, PlanConfig, PlanReport,
    PolicyEnvelope, RingConfig, ScaleDecision,
};
pub use health::{Breaker, BreakerState};
pub use journal::{idempotency_key, Conservation, Journal, Record};
pub use supervisor::{
    resume_fleet, run_fleet, Fleet, FleetConfig, FleetFaults, FleetJob, FleetReport,
};
pub use exec::{Backend, RealRun, ServeChaos};
pub use request::{
    band_hash, class_problem, DeadlineClass, GeometryClass, RejectReason, Request, PRIME_NR3,
};
pub use server::{
    run_serve, BatchRecord, JobRecord, PlacementMode, ServeConfig, ServeReport, Server, ShedRecord,
};
pub use traffic::{generate, LoadProfile, TrafficConfig};
pub use tuner::{
    candidates, candidates_for, serve_node, CandidateScore, Decision, Placement, Tuner,
    TunerConfig,
};
