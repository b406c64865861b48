//! The execution backend of the fleet supervisor's shards: a base-problem
//! cache keyed by (class, layout, policy), the real stage-graph execution
//! of one batch routed through the recovery ladder (task retry → batch
//! rollback → rank eviction, with escalation to a clean re-run), and the
//! model-priced overhead of the recovery events a run absorbed.
//!
//! Execution is a pure function of (batch, placement, chaos seed, workload
//! seed): the backend holds no virtual-time state, so the fleet rebuilds
//! results after a crash by re-executing — the journal records outcomes,
//! never band data.

use crate::batch::Batch;
use crate::request::{class_problem, GeometryClass};
use crate::tuner::Placement;
use fftx_core::{
    run_eviction, run_policy, run_policy_chaotic, run_retry, run_rollback, run_verified, Problem,
    RunOutput, SchedulerPolicy, VerifyMode,
};
use fftx_fault::{
    mix64, BatchAborts, ChaosConfig, CorruptionConfig, RankDeath, RecoveryConfig, TaskCrashes,
};
use fftx_knlsim::CommModel;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Chaos injection on the serving path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeChaos {
    /// Seed of the per-batch fault schedules.
    pub seed: u64,
    /// When set, that batch (by dispatch index) is forced onto the
    /// eviction-capable 7×1 serial layout and rank 1 dies mid-run — the
    /// end-to-end demonstration of recovery mechanism 3.
    pub evict_batch: Option<usize>,
    /// Silent-data-corruption injection rate in flips per thousand FFT
    /// batches (0 disables). When set, serial-policy batches run under
    /// seeded bit-flip corruption through the ABFT verify-and-recompute
    /// path ([`run_verified`]) in `cheap` mode — detections and rollbacks
    /// surface on [`RealRun`].
    pub corrupt_per_mille: u32,
}

/// Outcome of executing one batch for real.
pub struct RealRun {
    /// The engine output (result bands, trace, FFT-phase seconds).
    pub output: RunOutput,
    /// Task retries absorbed (or chaos events on message-level policies).
    pub retries: u64,
    /// Batch rollbacks absorbed.
    pub rollbacks: u64,
    /// Rank evictions absorbed.
    pub evictions: u64,
    /// Batches whose results failed ABFT verification (silent corruption
    /// caught before delivery).
    pub detections: u64,
    /// Checkpoint bytes the recovery path moved.
    pub checkpoint_bytes: usize,
    /// The run escalated to a clean re-execution after the in-place
    /// recovery budget was exhausted.
    pub escalated: bool,
}

/// The execution backend. See the module docs.
pub struct Backend {
    seed: u64,
    chaos: Option<ServeChaos>,
    comm: CommModel,
    problems: BTreeMap<(usize, usize, usize, &'static str, &'static str), Arc<Problem>>,
}

impl Backend {
    /// A backend for workload data seed `seed` under optional chaos.
    pub fn new(seed: u64, chaos: Option<ServeChaos>) -> Self {
        Backend {
            seed,
            chaos,
            comm: CommModel::paper(),
            problems: BTreeMap::new(),
        }
    }

    /// The batch problem of `(class, nbnd)` under `placement`, via a base
    /// problem per (class, layout, policy) rebanded with `with_nbnd` —
    /// grids, stick layouts, and FFT plans are built once and shared.
    pub fn problem_for(
        &mut self,
        class: GeometryClass,
        nbnd: usize,
        p: &Placement,
    ) -> Arc<Problem> {
        let key = (class.index(), p.nr, p.ntg, p.policy.name(), p.decomp.name());
        let seed = self.seed;
        let base = self
            .problems
            .entry(key)
            .or_insert_with(|| class_problem(class, p.config(class, nbnd, seed)));
        if base.config.nbnd == nbnd {
            base.clone()
        } else {
            base.with_nbnd(nbnd)
        }
    }

    /// Executes one batch for real, routing chaos through the recovery
    /// ladder. Recovery failure escalates to a clean re-run — an accepted
    /// job is never dropped. `index` keys the per-batch fault schedule, so
    /// the same (batch, index) pair replays the identical faults.
    pub fn execute(&mut self, batch: &Batch, p: &Placement, index: usize, evict: bool) -> RealRun {
        let problem = self.problem_for(batch.class, batch.nbnd, p);
        let rc = RecoveryConfig::default();
        let chaos_seed = self
            .chaos
            .map(|c| mix64(c.seed ^ (index as u64).wrapping_mul(0x9e37)));
        let corrupt = self.chaos.map_or(0, |c| c.corrupt_per_mille);
        let mut run = RealRun {
            output: RunOutput {
                bands: Vec::new(),
                trace: Default::default(),
                fft_phase_s: 0.0,
            },
            retries: 0,
            rollbacks: 0,
            evictions: 0,
            detections: 0,
            checkpoint_bytes: 0,
            escalated: false,
        };
        match (chaos_seed, p.policy) {
            (Some(_), SchedulerPolicy::Serial) if evict => {
                // The eviction demo: rank 1 dies at batch 2 of the 7×1
                // layout; the world re-plans onto the 3×2 survivors.
                match run_eviction(&problem, RankDeath::at(1, 2), &rc) {
                    Ok((output, stats)) => {
                        run.output = output;
                        run.evictions = stats.evictions;
                        run.rollbacks = stats.batch_rollbacks;
                        run.checkpoint_bytes = stats.checkpoint_bytes as usize;
                    }
                    Err(_) => {
                        run.output = run_policy(&problem, p.policy);
                        run.escalated = true;
                    }
                }
            }
            (Some(seed), SchedulerPolicy::Serial) if corrupt > 0 => {
                // Silent-corruption chaos: seeded bit flips land on the FFT
                // working set and the ABFT layer must catch every one
                // before delivery. Verification failure past the rollback
                // budget escalates to a clean re-run, like every other arm.
                let corruption = CorruptionConfig::transient(seed, corrupt as f64 / 1000.0);
                match run_verified(&problem, corruption, VerifyMode::Cheap, &rc) {
                    Ok((output, stats)) => {
                        run.output = output;
                        run.detections = stats.detected_batches;
                        run.rollbacks = stats.batch_rollbacks;
                        run.checkpoint_bytes = stats.checkpoint_bytes as usize;
                    }
                    Err(_) => {
                        run.output = run_policy(&problem, p.policy);
                        run.escalated = true;
                    }
                }
            }
            (Some(seed), SchedulerPolicy::Serial) => {
                let aborts = BatchAborts::new(seed, 0.4, 2);
                match run_rollback(&problem, Some(aborts), &rc) {
                    Ok((output, stats)) => {
                        run.output = output;
                        run.rollbacks = stats.batch_rollbacks;
                        run.checkpoint_bytes = stats.checkpoint_bytes as usize;
                    }
                    Err(_) => {
                        run.output = run_policy(&problem, p.policy);
                        run.escalated = true;
                    }
                }
            }
            (Some(seed), SchedulerPolicy::TaskPerFft) => {
                let crashes = TaskCrashes::new(seed, 0.3, 3);
                match run_retry(&problem, Some(crashes), &rc) {
                    Ok((output, stats)) => {
                        run.output = output;
                        run.retries = stats.task_retries;
                    }
                    Err(_) => {
                        run.output = run_policy(&problem, p.policy);
                        run.escalated = true;
                    }
                }
            }
            (Some(seed), policy) => {
                // Message-level chaos on the remaining policies: lossless
                // by construction, the fault report feeds the counters.
                let (output, report) =
                    run_policy_chaotic(&problem, policy, Some(ChaosConfig::light(seed)));
                run.output = output;
                run.retries = report.map_or(0, |r| r.events.len() as u64);
            }
            (None, policy) => {
                run.output = run_policy(&problem, policy);
            }
        }
        run
    }

    /// Model-priced overhead of the recovery events a real run absorbed.
    pub fn recovery_overhead_s(
        &self,
        run: &RealRun,
        base_service_s: f64,
        iterations: usize,
    ) -> f64 {
        let per_batch_s = base_service_s / iterations.max(1) as f64;
        let replays = (run.rollbacks + run.evictions) as u32;
        let mut overhead = self
            .comm
            .replay_seconds(run.checkpoint_bytes, per_batch_s, replays);
        if run.checkpoint_bytes > 0 {
            overhead += self.comm.checkpoint_seconds(run.checkpoint_bytes);
        }
        // A retried task re-executes one band-batch FFT lane.
        overhead += run.retries as f64 * per_batch_s / iterations.max(1) as f64;
        if run.escalated {
            overhead += base_service_s; // the wasted attempt
        }
        overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{assemble, BatchConfig};
    use crate::request::{DeadlineClass, Request};

    fn batch(class: GeometryClass, bands: usize) -> Batch {
        assemble(
            vec![Request {
                id: 0,
                tenant: 0,
                class,
                bands,
                deadline: DeadlineClass::Standard,
                arrival_s: 0.0,
            }],
            &BatchConfig::default(),
        )
        .expect("single member")
    }

    fn placement() -> Placement {
        Placement {
            nr: 2,
            ntg: 2,
            policy: SchedulerPolicy::Serial,
            decomp: fftx_core::Decomposition::Slab,
        }
    }

    #[test]
    fn problem_cache_rebands_instead_of_rebuilding() {
        let mut be = Backend::new(42, None);
        let p = placement();
        let a = be.problem_for(GeometryClass::Small, 4, &p);
        let b = be.problem_for(GeometryClass::Small, 8, &p);
        assert_eq!(b.config.nbnd, 8);
        assert_eq!(a.v, b.v, "rebanding shares the potential");
        assert_eq!(a.layout.group_sticks, b.layout.group_sticks);
    }

    #[test]
    fn execution_is_a_pure_function_of_its_inputs() {
        let mut be1 =
            Backend::new(42, Some(ServeChaos { seed: 9, evict_batch: None, corrupt_per_mille: 0 }));
        let mut be2 =
            Backend::new(42, Some(ServeChaos { seed: 9, evict_batch: None, corrupt_per_mille: 0 }));
        let b = batch(GeometryClass::Small, 4);
        let p = placement();
        let r1 = be1.execute(&b, &p, 3, false);
        let r2 = be2.execute(&b, &p, 3, false);
        assert_eq!(r1.output.bands, r2.output.bands);
        assert_eq!(r1.rollbacks, r2.rollbacks);
        assert_eq!(r1.escalated, r2.escalated);
    }

    #[test]
    fn prime_class_executes_through_bluestein() {
        let mut be = Backend::new(42, None);
        let b = batch(GeometryClass::Prime, 4);
        let p = placement();
        let problem = be.problem_for(GeometryClass::Prime, 4, &p);
        assert_eq!(problem.grid().nr3, crate::request::PRIME_NR3);
        let run = be.execute(&b, &p, 0, false);
        assert_eq!(run.output.bands.len(), 4);
        assert!(run.output.bands.iter().all(|band| !band.is_empty()));
    }

    #[test]
    fn corruption_chaos_is_detected_and_never_delivered() {
        // A saturating flip rate guarantees the schedule fires; every
        // detection must be repaired (or escalated away) before delivery.
        let chaos = ServeChaos { seed: 7, evict_batch: None, corrupt_per_mille: 1000 };
        let mut corrupt = Backend::new(42, Some(chaos));
        let mut clean = Backend::new(42, None);
        let b = batch(GeometryClass::Small, 4);
        let p = placement();
        let dirty_run = corrupt.execute(&b, &p, 0, false);
        let clean_run = clean.execute(&b, &p, 0, false);
        assert!(
            dirty_run.detections > 0 || dirty_run.escalated,
            "a saturating flip rate must trip the verifier"
        );
        assert_eq!(
            dirty_run.output.bands, clean_run.output.bands,
            "delivered bands are bit-identical to an uncorrupted run"
        );
    }

    #[test]
    fn escalation_prices_the_wasted_attempt() {
        let be = Backend::new(42, None);
        let run = RealRun {
            output: RunOutput { bands: Vec::new(), trace: Default::default(), fft_phase_s: 0.0 },
            retries: 0,
            rollbacks: 0,
            evictions: 0,
            detections: 0,
            checkpoint_bytes: 0,
            escalated: true,
        };
        let overhead = be.recovery_overhead_s(&run, 2.0, 4);
        assert!(overhead >= 2.0, "escalation repays the full base service");
    }
}
