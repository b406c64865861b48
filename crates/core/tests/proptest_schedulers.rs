//! Scheduler-equivalence property: the five scheduler policies over the
//! unified stage graph (serial, task-per-step, task-per-FFT, async
//! split-phase, and the hybrid overlap+desync policy) are *schedules*, not
//! algorithms — for any (R, T) factorisation, grid size, workload seed,
//! and chaos seed, every policy must produce bit-identical bands.
//!
//! This is the live complement of the pinned golden suite
//! (`golden_bitwise.rs`): the golden file freezes a handful of scenarios
//! against pre-refactor hashes, while this property samples fresh
//! configurations every run and cross-checks the policies against each
//! other.

use fftx_core::{run_policy_chaotic, FftxConfig, Problem, SchedulerPolicy};
use fftx_fft::Complex64;
use fftx_vmpi::{ChaosConfig, StallConfig};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Seeded transport chaos plus a straggler stall, as in the golden suite.
fn chaos(seed: u64) -> ChaosConfig {
    ChaosConfig::aggressive(seed).with_stall(StallConfig::rank(0, Duration::from_millis(1), 3))
}

/// Runs one policy on `cfg` (re-tagged with that policy) and returns its
/// bands.
fn bands_for(
    cfg: FftxConfig,
    policy: SchedulerPolicy,
    chaos_seed: Option<u64>,
) -> Vec<Vec<Complex64>> {
    let mut cfg = cfg;
    cfg.mode = policy;
    let problem = Arc::new(Problem::new(cfg));
    run_policy_chaotic(&problem, policy, chaos_seed.map(chaos)).0.bands
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// All policies agree bitwise on a random (R, T), grid scale, workload
    /// seed, and (optional) chaos seed.
    #[test]
    fn all_policies_are_bitwise_identical(
        layout_idx in 0usize..4,
        grid_idx in 0usize..2,
        seed in 1u64..1_000_000,
        chaos_seed in 0u64..1_000_000,
    ) {
        let (nr, ntg) = [(2, 2), (3, 2), (2, 3), (2, 1)][layout_idx];
        // Two laptop-scale grids: the small-test cutoff and a denser one.
        let ecutwfc = [6.0, 9.0][grid_idx];
        let mut cfg = FftxConfig::small(nr, ntg, SchedulerPolicy::Serial);
        cfg.ecutwfc = ecutwfc;
        cfg.seed = seed;
        // chaos_seed == 0 doubles as "no chaos".
        let chaos_seed = (chaos_seed > 0).then_some(chaos_seed);

        let reference = bands_for(cfg, SchedulerPolicy::Serial, chaos_seed);
        for policy in [
            SchedulerPolicy::TaskPerStep,
            SchedulerPolicy::TaskPerFft,
            SchedulerPolicy::TaskAsync,
            SchedulerPolicy::Hybrid,
        ] {
            let got = bands_for(cfg, policy, chaos_seed);
            prop_assert!(
                got == reference,
                "policy {} diverged from serial on R{}xT{} ecut {} seed {} chaos {:?}",
                policy.name(), nr, ntg, ecutwfc, seed, chaos_seed
            );
        }
    }
}
