//! Fleet-capacity properties (ring, autoscaler, work stealing), swept
//! over random tenant populations, membership sequences, fault seeds, and
//! crash points:
//!
//! * bounded-load ring routing keeps the max/mean load ratio under the
//!   configured factor (plus one job of quantisation) for *any* key
//!   population and member set,
//! * membership changes move keys only onto the joiner (or off the
//!   leaver) — the minimal-movement property that makes resharding cheap,
//! * an elastic, stealing fleet is deterministic: the same seeds
//!   reproduce the journal byte for byte, and the conservation audit
//!   accounts every accepted job exactly once across scale and steal
//!   events,
//! * resuming that fleet from *any* record boundary — including cuts
//!   inside scale-up/scale-down/steal windows — is bit-identical.

use fftx_serve::{
    generate, load_bound, resume_fleet, run_fleet, AutoscaleConfig, FleetConfig, FleetFaults,
    HashRing, LoadProfile, RingConfig, TrafficConfig,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn ring(seed: u64, members: &[u32]) -> HashRing {
    let mut r = HashRing::new(RingConfig { seed });
    for &m in members {
        r.insert(m);
    }
    r
}

/// An elastic, stealing fleet under slow-node faults: the configuration
/// every journal property below sweeps. The slow factor is large enough
/// for service times to span ticks, so backlogs persist and steals fire.
fn elastic_cfg(shards: usize, min: usize, fault_seed: u64) -> FleetConfig {
    FleetConfig {
        shards,
        steal: true,
        autoscale: Some(AutoscaleConfig { min, max: shards, ..Default::default() }),
        faults: FleetFaults {
            seed: fault_seed,
            p_slow: 0.6,
            slow_max: 40.0,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn trace(seed: u64, tenants: u32) -> Vec<fftx_serve::Request> {
    generate(&TrafficConfig {
        seed,
        rate_hz: 800.0,
        duration_s: 1.0,
        tenants,
        profile: LoadProfile::Burst,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn bounded_routing_keeps_max_over_mean_under_the_factor(
        ring_seed in 0u64..100_000,
        members in 2usize..8,
        keys in 100usize..400,
        skew in 1u64..6,
    ) {
        let shards: Vec<u32> = (0..members as u32).collect();
        let r = ring(ring_seed, &shards);
        let factor = 1.25;
        let mut loads: BTreeMap<u32, usize> = BTreeMap::new();
        for i in 0..keys as u64 {
            // A skewed population: `skew` tenants hash-hot, so an unbounded
            // ring would pile their keys onto one arc.
            let key = i % skew;
            let total: usize = loads.values().sum();
            let bound = load_bound(total, members, factor);
            let s = r
                .route_bounded(key, bound, |s| loads.get(&s).copied().unwrap_or(0), |_| true)
                .expect("total routing");
            prop_assert!(r.contains(s));
            *loads.entry(s).or_default() += 1;
        }
        let max = *loads.values().max().unwrap() as f64;
        let mean = keys as f64 / members as f64;
        prop_assert!(
            max <= factor * mean + 1.0,
            "max {} vs mean {} over {} members (skew {})",
            max, mean, members, skew
        );
    }

    #[test]
    fn membership_changes_move_only_the_affected_keys(
        ring_seed in 0u64..100_000,
        members in 2usize..7,
        joiner in 100u32..200,
    ) {
        let shards: Vec<u32> = (0..members as u32).collect();
        let mut r = ring(ring_seed, &shards);
        let keys: Vec<u64> = (0..512).collect();
        let before: BTreeMap<u64, u32> =
            keys.iter().map(|&k| (k, r.route(k, |_| true).unwrap())).collect();

        // Join: every moved key lands on the joiner, nowhere else.
        r.insert(joiner);
        let mut moved = 0usize;
        for (&k, &home) in &before {
            let now = r.route(k, |_| true).unwrap();
            if now != home {
                prop_assert_eq!(now, joiner, "key {} moved off-joiner", k);
                moved += 1;
            }
        }
        prop_assert!(
            moved <= keys.len() / 2,
            "minimal movement: {}/{} keys moved on one join",
            moved, keys.len()
        );

        // Leave (the joiner again): only its keys move, the rest restore.
        r.remove(joiner);
        for (&k, &home) in &before {
            prop_assert_eq!(r.route(k, |_| true).unwrap(), home);
        }
    }

    #[test]
    fn elastic_stealing_fleet_is_deterministic_and_lossless(
        seed in 1u64..100_000,
        fault_seed in 0u64..1_000,
        shards in 3usize..5,
    ) {
        let reqs = trace(seed, 2);
        let cfg = elastic_cfg(shards, 1, fault_seed);
        let r = run_fleet(&reqs, &cfg).expect("fleet");
        // Zero loss across scale and steal events: accepted = completed.
        prop_assert!(r.conservation.open.is_empty());
        prop_assert_eq!(r.conservation.accepted, r.conservation.completed);
        prop_assert_eq!(r.offered(), reqs.len());
        // The steal ledger matches the counter: every steal is journaled.
        prop_assert_eq!(r.conservation.steals as u64, r.counters.get("fleet.steal"));
        // Same seeds, same journal — worker physics never leaks in.
        let again = run_fleet(&reqs, &cfg).expect("rerun");
        prop_assert_eq!(again.journal.encode(), r.journal.encode());
    }

    #[test]
    fn elastic_resume_from_any_cut_is_bit_identical(
        seed in 1u64..100_000,
        fault_seed in 0u64..1_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let reqs = trace(seed, 3);
        let cfg = elastic_cfg(4, 1, fault_seed);
        let full = run_fleet(&reqs, &cfg).expect("fleet");
        let cut = ((full.journal.len() as f64) * cut_frac) as usize;
        let resumed =
            resume_fleet(&full.journal.prefix(cut), &reqs, &cfg).expect("resume");
        prop_assert_eq!(
            resumed.journal.encode(),
            full.journal.encode(),
            "cut {} of {} (fault seed {})",
            cut, full.journal.len(), fault_seed
        );
        prop_assert_eq!(resumed.jobs, full.jobs);
    }
}
