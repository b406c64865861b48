//! Decomposition-equivalence properties: the pencil lowering (2-D process
//! grid, two transpose exchanges) must be bitwise-indistinguishable from
//! the slab lowering (one sticks↔planes exchange) on every engine — clean,
//! under seeded transport chaos, on non-power-friendly (Bluestein) grids,
//! and through a rank eviction that re-plans the pencil layout mid-run.
//!
//! The decomposition is a data-movement choice only: same FFTs on the same
//! values in the same order, so any bit difference is a defect.

use fftx_core::{
    run_eviction, run_policy, run_policy_chaotic, Cell, Decomposition, FftGrid, FftxConfig,
    Problem, SchedulerPolicy, DUAL,
};
use fftx_fault::{RankDeath, RecoveryConfig};
use fftx_vmpi::{ChaosConfig, StallConfig};
use proptest::prelude::*;
use std::time::Duration;

/// The chaos-determinism profile: aggressive seeded transport faults plus
/// a straggler stall on rank 0.
fn chaos(seed: u64) -> ChaosConfig {
    ChaosConfig::aggressive(seed).with_stall(StallConfig::rank(0, Duration::from_millis(1), 3))
}

/// Sampled (R, T) layouts: real 2×2 and 2×3 pencil grids, a 3×3 grid, and
/// a degenerate prime family (R = 2 → p2 = 1, the fallback row of size 1).
const LAYOUTS: [(usize, usize); 4] = [(4, 1), (6, 1), (9, 1), (2, 3)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For any chaos seed and sampled layout, every scheduler policy
    /// produces bit-identical bands under slab and pencil, with chaos off
    /// and on.
    #[test]
    fn pencil_matches_slab_bitwise_across_policies_and_chaos(
        seed in 1u64..1_000_000,
        layout_idx in 0usize..LAYOUTS.len(),
    ) {
        let (nr, ntg) = LAYOUTS[layout_idx];
        for mode in [
            SchedulerPolicy::Serial,
            SchedulerPolicy::TaskPerFft,
            SchedulerPolicy::TaskPerStep,
            SchedulerPolicy::TaskAsync,
            SchedulerPolicy::Hybrid,
        ] {
            let slab_cfg = FftxConfig::small(nr, ntg, mode);
            let pencil_cfg = slab_cfg.with_decomp(Decomposition::Pencil);
            for chaos_seed in [None, Some(seed)] {
                let (s, _) = run_policy_chaotic(
                    &Problem::new(slab_cfg),
                    mode,
                    chaos_seed.map(chaos),
                );
                let (p, _) = run_policy_chaotic(
                    &Problem::new(pencil_cfg),
                    mode,
                    chaos_seed.map(chaos),
                );
                prop_assert!(
                    s.bands == p.bands,
                    "{:?} {}x{} chaos={:?}: pencil diverged from slab",
                    mode, nr, ntg, chaos_seed
                );
            }
        }
    }

    /// For any victim rank and re-plannable death boundary on the pencil
    /// path, the eviction (9×1, a 3×3 grid, re-planned to 4×2, a 2×2 grid)
    /// reproduces the fault-free slab bands bit for bit.
    #[test]
    fn pencil_eviction_replan_matches_slab(
        victim in 0usize..9,
        batch_idx in 0usize..3,
    ) {
        // 9 ranks over 6 bands; 8 survivors re-plan to 4×2, so the death
        // boundary must leave an even number of bands: batch 0, 2, 4.
        let mut cfg = FftxConfig::small(9, 1, SchedulerPolicy::Serial);
        cfg.nbnd = 6;
        let baseline = run_policy(&Problem::new(cfg), SchedulerPolicy::Serial);
        let pencil = Problem::new(cfg.with_decomp(Decomposition::Pencil));
        let death = RankDeath::at(victim, batch_idx * 2);
        let (out, stats) = run_eviction(&pencil, death, &RecoveryConfig::default())
            .expect("survivors must finish the run");
        prop_assert_eq!(stats.layout_after, (4, 2));
        prop_assert!(
            out.bands == baseline.bands,
            "pencil eviction of rank {victim} at batch {} changed the answer",
            batch_idx * 2
        );
    }

    /// Non-power-friendly geometry: forcing the z dimension to 41 (prime,
    /// Bluestein path) keeps the decompositions bitwise-identical under
    /// chaos as well.
    #[test]
    fn prime_grid_pencil_matches_slab(seed in 1u64..1_000_000) {
        let build = |decomp| {
            let cfg = FftxConfig::small(4, 1, SchedulerPolicy::Serial).with_decomp(decomp);
            let cell = Cell::cubic(cfg.alat);
            let base = FftGrid::from_cutoff(&cell, DUAL * cfg.ecutwfc);
            Problem::with_grid(cfg, FftGrid::raw(base.nr1, base.nr2, 41))
        };
        let (s, _) = run_policy_chaotic(
            &build(Decomposition::Slab),
            SchedulerPolicy::Serial,
            Some(chaos(seed)),
        );
        let (p, _) = run_policy_chaotic(
            &build(Decomposition::Pencil),
            SchedulerPolicy::Serial,
            Some(chaos(seed)),
        );
        prop_assert!(
            s.bands == p.bands,
            "prime grid: pencil diverged from slab under seed {seed}"
        );
    }
}
