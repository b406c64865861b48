//! Chaos-determinism property: running the miniapp under seeded transport
//! chaos (message delay/duplication/reordering plus a collective-entry
//! straggler stall) must be invisible in the results — every real-engine
//! mode produces bit-identical bands with chaos on or off — and the fault
//! schedule itself must be a pure function of the seed.
//!
//! The recovery properties extend the same claim to *fatal* faults: for
//! every recovery-triggering fault profile (transient task crashes, batch
//! collective aborts, a rank death at each possible batch boundary), the
//! recovered run must be bitwise identical to the fault-free run — recovery
//! costs time, never answers.

use fftx_core::{
    run_eviction, run_policy, run_policy_chaotic, run_retry, run_rollback, FftxConfig, Problem,
    SchedulerPolicy,
};
use fftx_fault::{BatchAborts, RankDeath, RecoveryConfig, TaskCrashes};
use fftx_vmpi::{ChaosConfig, FaultReport, StallConfig};
use proptest::prelude::*;
use std::time::Duration;

/// Aggressive transport chaos plus a straggler stall on rank 0 (the real
/// kernels are collective-only, so the stall is what exercises the
/// fault-injection path end to end).
fn chaos(seed: u64) -> ChaosConfig {
    ChaosConfig::aggressive(seed).with_stall(StallConfig::rank(
        0,
        Duration::from_millis(1),
        3,
    ))
}

fn run_mode(
    mode: SchedulerPolicy,
    seed: Option<u64>,
) -> (Vec<Vec<fftx_fft::Complex64>>, Option<FaultReport>) {
    let cfg = FftxConfig::small(2, 2, mode);
    let problem = Problem::new(cfg);
    let (out, report) = run_policy_chaotic(&problem, mode, seed.map(chaos));
    (out.bands, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn chaos_is_invisible_in_results_and_deterministic_by_seed(seed in 1u64..1_000_000) {
        for mode in [
            SchedulerPolicy::Serial,
            SchedulerPolicy::TaskPerFft,
            SchedulerPolicy::TaskPerStep,
        ] {
            // The baseline run passes no explicit config; under the CI chaos
            // job (`FFTX_CHAOS_SEED` set) it is itself chaotic, which only
            // strengthens the invariance claim below.
            let (clean_bands, _env_report) = run_mode(mode, None);

            let (chaotic_bands, report) = run_mode(mode, Some(seed));
            let report = report.expect("chaos active");
            prop_assert!(
                clean_bands == chaotic_bands,
                "{:?}: chaos changed the pipeline output under seed {}", mode, seed
            );
            prop_assert!(
                !report.events.is_empty(),
                "{:?}: the straggler stall must fire at least once", mode
            );

            // Same seed, same schedule — bit-for-bit.
            let (_, report2) = run_mode(mode, Some(seed));
            prop_assert_eq!(&report, &report2.expect("chaos active"));
        }
    }

    /// Mechanism 1: for any crash seed, a run where every band task
    /// crashes once or twice recovers by re-execution and reproduces the
    /// fault-free bands bit for bit.
    #[test]
    fn task_reexecution_recovers_bitwise_identical_bands(seed in 1u64..1_000_000) {
        let cfg = FftxConfig::small(2, 2, SchedulerPolicy::TaskPerFft);
        let problem = Problem::new(cfg);
        let baseline = run_policy(&problem, SchedulerPolicy::TaskPerFft);
        let crashes = TaskCrashes::new(seed, 1.0, 2);
        let (out, stats) = run_retry(&problem, Some(crashes), &RecoveryConfig::default())
            .expect("retry budget must absorb at most 2 crashes per task");
        prop_assert!(stats.task_retries > 0, "profile must trigger retries");
        prop_assert!(
            out.bands == baseline.bands,
            "task re-execution changed the answer under seed {seed}"
        );
    }

    /// Mechanism 2: for any abort seed, a run where every band batch's
    /// collective times out once or twice recovers by checkpoint rollback
    /// and reproduces the fault-free bands bit for bit.
    #[test]
    fn batch_rollback_recovers_bitwise_identical_bands(seed in 1u64..1_000_000) {
        let cfg = FftxConfig::small(2, 2, SchedulerPolicy::Serial);
        let problem = Problem::new(cfg);
        let baseline = run_policy(&problem, SchedulerPolicy::Serial);
        let aborts = BatchAborts::new(seed, 1.0, 2);
        let (out, stats) = run_rollback(&problem, Some(aborts), &RecoveryConfig::default())
            .expect("rollback budget must absorb at most 2 aborts per batch");
        prop_assert!(stats.batch_rollbacks > 0, "profile must trigger rollbacks");
        prop_assert!(
            out.bands == baseline.bands,
            "batch rollback changed the answer under seed {seed}"
        );
    }

    /// Mechanism 3: for any victim rank and any re-plannable death
    /// boundary, evicting the rank and finishing on the re-planned R×T
    /// layout reproduces the fault-free bands bit for bit.
    #[test]
    fn rank_eviction_recovers_bitwise_identical_bands(
        victim in 0usize..7,
        batch_idx in 0usize..3,
    ) {
        // 7 ranks as 7×1 over 6 bands; 6 survivors re-plan to 3×2, so the
        // death boundary must leave an even number of bands: batch 0, 2, 4.
        let mut cfg = FftxConfig::small(7, 1, SchedulerPolicy::Serial);
        cfg.nbnd = 6;
        let problem = Problem::new(cfg);
        let baseline = run_policy(&problem, SchedulerPolicy::Serial);
        let death = RankDeath::at(victim, batch_idx * 2);
        let (out, stats) = run_eviction(&problem, death, &RecoveryConfig::default())
            .expect("survivors must finish the run");
        prop_assert_eq!(stats.layout_after, (3, 2));
        prop_assert!(
            out.bands == baseline.bands,
            "evicting rank {victim} at batch {} changed the answer", batch_idx * 2
        );
    }
}
