//! End-to-end golden guarantees of the single-node serving path (a
//! one-shard fleet):
//!
//! * a served request's result bands hash-match a direct `run_policy` run
//!   of the identical configuration (the serving layer adds no numerics),
//! * a chaos-seeded serving run completes every accepted job with
//!   unchanged hashes (recovery costs time, never answers),
//! * the eviction demo re-plans a dying rank's work and still matches.

use fftx_serve::{
    band_hash, class_problem, generate, run_fleet, DeadlineClass, FleetConfig, FleetReport,
    GeometryClass, LoadProfile, PlacementMode, Request, ServeChaos, ServeConfig, TrafficConfig,
};
use fftx_core::{run_policy, DecompChoice, Decomposition};

/// Serves `requests` on one shard under `cfg`.
fn serve(requests: &[Request], cfg: ServeConfig) -> FleetReport {
    run_fleet(requests, &FleetConfig { shards: 1, serve: cfg, ..Default::default() })
        .expect("serve")
}

fn trace(n: usize) -> Vec<fftx_serve::Request> {
    generate(&TrafficConfig {
        seed: 20170814,
        rate_hz: 60.0,
        duration_s: 1.5,
        tenants: 3,
        profile: LoadProfile::Steady,
    })
    .into_iter()
    .take(n)
    .collect()
}

/// Direct-engine hashes of every job in a report, batch by batch.
fn direct_hashes(report: &FleetReport, seed: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for b in &report.batches {
        let (class, nbnd, p) = (b.batch.class, b.batch.nbnd, b.placement);
        let direct = run_policy(&class_problem(class, p.config(class, nbnd, seed)), p.policy);
        for m in &b.batch.members {
            let range = &direct.bands[m.band_start..m.band_start + m.request.bands];
            out.push((m.request.id, band_hash(range)));
        }
    }
    out.sort_unstable();
    out
}

#[test]
fn served_results_match_direct_engine_runs() {
    for mode in [
        PlacementMode::Auto,
        PlacementMode::Static(fftx_core::SchedulerPolicy::Serial),
        PlacementMode::Static(fftx_core::SchedulerPolicy::TaskPerFft),
    ] {
        let cfg = ServeConfig {
            mode,
            execute_real: true,
            ..Default::default()
        };
        let report = serve(&trace(10), cfg);
        assert!(!report.jobs.is_empty());
        let expect = direct_hashes(&report, cfg.seed);
        let mut got: Vec<(u64, u64)> = report
            .jobs
            .iter()
            .map(|j| (j.request.id, j.hash.expect("real run hashes")))
            .collect();
        got.sort_unstable();
        assert_eq!(got, expect, "mode {}", mode.name());
    }
}

#[test]
fn chaos_serving_completes_all_accepted_jobs_bit_identically() {
    let requests = trace(12);
    let clean = serve(
        &requests,
        ServeConfig {
            execute_real: true,
            ..Default::default()
        },
    );
    let chaotic = serve(
        &requests,
        ServeConfig {
            chaos: Some(ServeChaos {
                seed: 0xFF7C,
                evict_batch: None,
                corrupt_per_mille: 0,
            }),
            ..Default::default()
        },
    );
    // Zero lost accepted jobs: both runs complete the same request set.
    let ids = |r: &FleetReport| {
        let mut v: Vec<u64> = r.jobs.iter().map(|j| j.request.id).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(ids(&clean), ids(&chaotic));
    // ... with bit-identical results.
    for j in &chaotic.jobs {
        let c = clean
            .jobs
            .iter()
            .find(|x| x.request.id == j.request.id)
            .expect("same job set");
        assert_eq!(j.hash, c.hash, "request {}", j.request.id);
    }
}

/// Serve-scale Bluestein coverage: a trace of pure `Prime`-class jobs
/// (z = 41 grids, beyond the direct-radix limit) runs admission → batching
/// → placement → real execution under both fixed decompositions and the
/// auto choice, and all three deliver bit-identical results that also
/// match direct engine runs.
#[test]
fn prime_grid_serving_is_decomposition_invariant() {
    let requests: Vec<Request> = (0..6)
        .map(|id| Request {
            id,
            tenant: id as u32 % 2,
            class: GeometryClass::Prime,
            bands: 2 + id as usize % 2,
            deadline: DeadlineClass::Standard,
            arrival_s: 0.05 * id as f64,
        })
        .collect();
    let run = |decomp| {
        let cfg = ServeConfig {
            decomp,
            execute_real: true,
            ..Default::default()
        };
        serve(&requests, cfg)
    };
    let slab = run(DecompChoice::Slab);
    let pencil = run(DecompChoice::Pencil);
    let auto = run(DecompChoice::Auto);
    let hashes = |r: &FleetReport| {
        let mut v: Vec<(u64, u64)> = r
            .jobs
            .iter()
            .map(|j| (j.request.id, j.hash.expect("real run hashes")))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(slab.jobs.len(), requests.len(), "every job completes");
    assert_eq!(hashes(&slab), hashes(&pencil), "pencil serving diverged from slab");
    assert_eq!(hashes(&slab), hashes(&auto), "auto serving diverged from slab");
    // The fixed choices really pin every placement's lowering ...
    assert!(slab.batches.iter().all(|b| b.placement.decomp == Decomposition::Slab));
    assert!(pencil.batches.iter().all(|b| b.placement.decomp == Decomposition::Pencil));
    // ... and the pencil run's delivered bands match direct engine runs of
    // the identical (prime-grid, pencil-lowered) configurations.
    let expect = direct_hashes(&pencil, 42);
    assert_eq!(hashes(&pencil), expect);
}

#[test]
fn eviction_on_the_serving_path_matches_direct_hashes() {
    let requests = trace(6);
    let report = serve(
        &requests,
        ServeConfig {
            chaos: Some(ServeChaos {
                seed: 9,
                evict_batch: Some(0),
                corrupt_per_mille: 0,
            }),
            ..Default::default()
        },
    );
    let b0 = &report.batches[0];
    assert_eq!((b0.placement.nr, b0.placement.ntg), (7, 1));
    assert_eq!(
        report.counters.get("recovery.evictions"),
        1,
        "the rank death must be absorbed by eviction"
    );
    assert_eq!(report.counters.get("escalations"), 0, "no clean re-run needed");
    // The evicted batch's results still match a direct (fault-free) run of
    // the same 7×1 configuration.
    let expect = direct_hashes(&report, 42);
    let mut got: Vec<(u64, u64)> = report
        .jobs
        .iter()
        .map(|j| (j.request.id, j.hash.expect("real run hashes")))
        .collect();
    got.sort_unstable();
    assert_eq!(got, expect);
}
