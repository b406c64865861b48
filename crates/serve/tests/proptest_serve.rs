//! Serving-layer properties (the ISSUE's satellite invariants):
//!
//! * batch coalescing is deterministic for a fixed seed,
//! * a batch never mixes geometry classes,
//! * per-tenant submission order is preserved end to end,
//! * a tuner decision replays bit-identically from its cached tables.

use fftx_core::{DecompChoice, Decomposition};
use fftx_serve::{
    generate, plan_batch, run_fleet, BatchConfig, FleetConfig, FleetReport, GeometryClass,
    LoadProfile, Request, ServeConfig, TrafficConfig, Tuner, TunerConfig,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn traffic(seed: u64, profile: LoadProfile) -> TrafficConfig {
    TrafficConfig {
        seed,
        rate_hz: 120.0,
        duration_s: 1.0,
        tenants: 4,
        profile,
    }
}

/// Serves `queue` on one shard under `cfg`.
fn serve(queue: &[Request], cfg: ServeConfig) -> FleetReport {
    run_fleet(queue, &FleetConfig { shards: 1, serve: cfg, ..Default::default() }).expect("serve")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn coalescing_is_deterministic_for_a_fixed_seed(seed in 1u64..100_000) {
        for profile in LoadProfile::ALL {
            let queue = generate(&traffic(seed, profile));
            let cfg = BatchConfig::default();
            let a = plan_batch(&queue, &cfg);
            let b = plan_batch(&queue, &cfg);
            prop_assert_eq!(&a, &b);
            // And the full serving run replays identically.
            let ra = serve(&queue, ServeConfig::default());
            let rb = serve(&queue, ServeConfig::default());
            prop_assert_eq!(ra.jobs, rb.jobs);
            prop_assert_eq!(ra.batches, rb.batches);
            prop_assert_eq!(ra.shed, rb.shed);
        }
    }

    #[test]
    fn batches_never_mix_geometries(seed in 1u64..100_000, max_bands in 4usize..24) {
        let queue = generate(&traffic(seed, LoadProfile::Steady));
        let cfg = BatchConfig { max_bands, pad_to: 4 };
        let plan = plan_batch(&queue, &cfg);
        prop_assert!(!plan.is_empty());
        let class = queue[plan[0]].class;
        for &pos in &plan {
            prop_assert_eq!(queue[pos].class, class, "position {}", pos);
        }
        // The planner never exceeds capacity except for an oversized head.
        let bands: usize = plan.iter().map(|&p| queue[p].bands).sum();
        prop_assert!(bands <= max_bands || plan.len() == 1);
    }

    #[test]
    fn per_tenant_order_is_preserved(seed in 1u64..100_000) {
        let queue = generate(&traffic(seed, LoadProfile::Burst));
        let report = serve(&queue, ServeConfig::default());
        // Within a tenant, completions must happen in submission (id)
        // order: a later request never overtakes an earlier one.
        let mut last_id: BTreeMap<u32, u64> = BTreeMap::new();
        for j in &report.jobs {
            if let Some(&prev) = last_id.get(&j.request.tenant) {
                prop_assert!(
                    j.request.id > prev,
                    "tenant {}: id {} completed after id {}",
                    j.request.tenant, prev, j.request.id
                );
            }
            last_id.insert(j.request.tenant, j.request.id);
        }
        // Conservation: every request is either served or shed, never both.
        prop_assert_eq!(report.jobs.len() + report.shed.len(), queue.len());
    }

    #[test]
    fn tuner_cached_decisions_replay_bit_identically(nbnd in 1usize..6) {
        let nbnd = nbnd * 4; // padded band counts, as the server produces
        let mut t = Tuner::new(TunerConfig::default());
        let first = t.decide(GeometryClass::Small, nbnd);
        // Replay from the warm cache, many times.
        for _ in 0..3 {
            prop_assert_eq!(&t.decide(GeometryClass::Small, nbnd), &first);
        }
        // A fresh tuner re-derives the identical decision from scratch.
        let mut u = Tuner::new(TunerConfig::default());
        prop_assert_eq!(&u.decide(GeometryClass::Small, nbnd), &first);
        // The dumped table is stable too.
        prop_assert_eq!(t.table_csv(), u.table_csv());
    }

    /// The auto decomposition choice prices a superset of every fixed
    /// choice's candidates, so its modeled decision is never worse — on
    /// the Bluestein (prime-grid) class included.
    #[test]
    fn auto_decomposition_never_loses_to_fixed(nbnd in 1usize..6) {
        let nbnd = nbnd * 4;
        for class in [GeometryClass::Small, GeometryClass::Prime] {
            let mut t = Tuner::new(TunerConfig::default());
            let auto = t.decide(class, nbnd).service_s;
            for d in Decomposition::ALL {
                let fixed = t.decide_in(class, nbnd, None, Some(d)).service_s;
                prop_assert!(
                    auto <= fixed + 1e-12,
                    "{} nbnd {}: auto {} worse than fixed {} ({})",
                    class.name(), nbnd, auto, fixed, d.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Real execution end to end (admission → batching → placement →
    /// stage-graph engines) delivers bit-identical results whichever
    /// decomposition the server is pinned to; the sampled traffic mixes
    /// every geometry class, the Bluestein (z = 41) one included.
    #[test]
    fn serving_is_decomposition_invariant(seed in 1u64..100_000) {
        let queue: Vec<_> = generate(&traffic(seed, LoadProfile::Steady))
            .into_iter()
            .take(8)
            .collect();
        let run = |decomp| {
            serve(&queue, ServeConfig { decomp, execute_real: true, ..Default::default() })
        };
        let slab = run(DecompChoice::Slab);
        let pencil = run(DecompChoice::Pencil);
        let hashes = |r: &FleetReport| {
            let mut v: Vec<(u64, Option<u64>)> =
                r.jobs.iter().map(|j| (j.request.id, j.hash)).collect();
            v.sort_unstable();
            v
        };
        prop_assert!(!slab.jobs.is_empty());
        prop_assert_eq!(hashes(&slab), hashes(&pencil), "seed {}", seed);
    }
}
