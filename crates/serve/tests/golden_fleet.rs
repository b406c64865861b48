//! End-to-end golden guarantees of the durable fleet:
//!
//! * a fleet-served request's result bands hash-match a direct
//!   `run_policy` run of the identical batch configuration — including
//!   Prime-geometry (Bluestein) requests, so the z = 41 path crosses the
//!   journal, the supervisor, and the placement tuner unchanged,
//! * crash recovery reproduces those hashes from the journal without
//!   re-executing the already-completed work,
//! * node death plus seeded transport chaos loses no accepted job and
//!   corrupts no result,
//! * an autoscaled, stealing fleet under that same fault stack scales up
//!   out of its floor, loses nothing, still hash-matches the direct
//!   engine, and recovers bit-identically from a mid-run crash.

use fftx_core::run_policy;
use fftx_serve::{
    band_hash, class_problem, generate, resume_fleet, run_fleet, AutoscaleConfig, FleetConfig,
    FleetFaults, FleetReport, GeometryClass, LoadProfile, Request, ServeChaos,
    ServeConfig, TrafficConfig,
};
use std::collections::BTreeMap;

const SEED: u64 = 20170814;

fn trace(rate_hz: f64) -> Vec<Request> {
    // The generator's default mix covers the composite-grid classes; remap
    // every fifth request to Prime so the z = 41 Bluestein path flows
    // through the fleet at serve scale too.
    let mut reqs = generate(&TrafficConfig {
        seed: SEED,
        rate_hz,
        duration_s: 1.0,
        tenants: 3,
        profile: LoadProfile::Steady,
    });
    for r in reqs.iter_mut().step_by(5) {
        r.class = GeometryClass::Prime;
        r.bands = r.bands.min(4);
    }
    reqs
}

fn real_cfg(faults: FleetFaults) -> FleetConfig {
    FleetConfig {
        shards: 3,
        serve: ServeConfig {
            execute_real: true,
            seed: SEED,
            ..Default::default()
        },
        horizon_s: 1.0,
        faults,
        ..Default::default()
    }
}

/// Direct-engine hash of every `(batch, job)` a fleet run started, from
/// the report's journal-derived batch view — the serving layer must add no
/// numerics on top of these.
fn direct_hashes(report: &FleetReport, cfg: &FleetConfig) -> BTreeMap<(u64, u64), u64> {
    let mut out = BTreeMap::new();
    for b in &report.batches {
        let (class, nbnd, p) = (b.batch.class, b.batch.nbnd, b.placement);
        let problem = class_problem(class, p.config(class, nbnd, cfg.serve.seed));
        let direct = run_policy(&problem, p.policy);
        for m in &b.batch.members {
            let h = band_hash(&direct.bands[m.band_start..m.band_start + m.request.bands]);
            out.insert((b.id, m.request.id), h);
        }
    }
    out
}

/// Every completed job's hash must match its direct-engine counterpart.
fn assert_hashes_match(report: &FleetReport, cfg: &FleetConfig) {
    let expect = direct_hashes(report, cfg);
    assert!(!report.jobs.is_empty());
    for j in &report.jobs {
        let want = expect
            .get(&(j.batch, j.request.id))
            .unwrap_or_else(|| panic!("job {} of batch {} has no direct hash", j.request.id, j.batch));
        assert_eq!(
            j.hash,
            Some(*want),
            "job {} (batch {}, class {})",
            j.request.id,
            j.batch,
            j.request.class.name()
        );
    }
}

#[test]
fn fleet_results_match_direct_engine_runs_including_bluestein() {
    let requests = trace(60.0);
    let cfg = real_cfg(FleetFaults::default());
    let report = run_fleet(&requests, &cfg).expect("fleet");
    assert!(report.conservation.open.is_empty());
    assert_eq!(report.offered(), requests.len());
    // The pinned trace must exercise the Bluestein path at serve scale:
    // Prime-class requests (z = 41) flow through admission, batching,
    // placement, and real execution like any other geometry.
    let prime = report
        .jobs
        .iter()
        .filter(|j| j.request.class == GeometryClass::Prime)
        .count();
    assert!(prime >= 1, "trace produced no Prime-class completions");
    assert_hashes_match(&report, &cfg);
}

#[test]
fn fleet_replay_reproduces_real_hashes_from_the_journal() {
    let requests = trace(40.0);
    let cfg = real_cfg(FleetFaults {
        seed: 3,
        p_death: 0.6,
        ..Default::default()
    });
    let full = run_fleet(&requests, &cfg).expect("fleet");
    assert!(full.counters.get("fleet.shard_down") >= 1, "a shard must die");

    // Crash at the journal's midpoint and recover.
    let prefix = full.journal.prefix(full.journal.len() / 2);
    let resumed = resume_fleet(&prefix, &requests, &cfg).expect("resume");

    // Byte-identical journal, direct-matching hashes — and the prefix's
    // hashes came from the journal, not from re-execution.
    assert_eq!(resumed.journal.encode(), full.journal.encode());
    assert_hashes_match(&resumed, &cfg);
    assert!(
        resumed.counters.get("fleet.exec.batch") < full.counters.get("fleet.exec.batch"),
        "replay re-executed work the journal already recorded"
    );
}

#[test]
fn node_death_with_transport_chaos_loses_nothing() {
    let requests = trace(80.0);
    let mut cfg = real_cfg(FleetFaults {
        seed: 3,
        p_death: 0.6,
        ..Default::default()
    });
    cfg.serve.chaos = Some(ServeChaos {
        seed: SEED,
        evict_batch: None,
        corrupt_per_mille: 0,
    });
    let report = run_fleet(&requests, &cfg).expect("fleet");
    assert!(report.counters.get("fleet.shard_down") >= 1, "a shard must die");
    assert!(report.counters.get("fleet.failover.jobs") >= 1, "jobs must re-route");
    // Zero loss: the conservation audit accounts every accepted job.
    assert!(report.conservation.open.is_empty());
    assert_eq!(report.conservation.accepted, report.conservation.completed);
    assert_eq!(report.offered(), requests.len());
    // ... and chaos cost time, never answers.
    assert_hashes_match(&report, &cfg);
}

#[test]
fn autoscaled_fleet_under_chaos_and_node_death_stays_golden() {
    // The full capacity stack at once: a 4-shard pool starting at its
    // 1-shard floor, work stealing on, transport chaos, and a fatal fault
    // profile — the flash-crowd-meets-bad-day scenario.
    let requests = trace(100.0);
    let mut cfg = real_cfg(FleetFaults {
        seed: 3,
        p_death: 0.6,
        ..Default::default()
    });
    cfg.shards = 4;
    cfg.autoscale = Some(AutoscaleConfig { min: 1, max: 4, ..Default::default() });
    cfg.steal = true;
    cfg.serve.chaos = Some(ServeChaos {
        seed: SEED,
        evict_batch: None,
        corrupt_per_mille: 0,
    });
    let report = run_fleet(&requests, &cfg).expect("fleet");

    // The fleet must actually scale out of its floor and lose a shard.
    assert!(report.counters.get("fleet.scale.up") >= 1, "the fleet must scale up");
    assert!(report.counters.get("fleet.shard_down") >= 1, "a shard must die");
    // Zero loss across scale events, steals, chaos, and death.
    assert!(report.conservation.open.is_empty());
    assert_eq!(report.conservation.accepted, report.conservation.completed);
    assert_eq!(report.offered(), requests.len());
    assert_eq!(report.conservation.steals as u64, report.counters.get("fleet.steal"));
    // Results still match the direct engine batch for batch.
    assert_hashes_match(&report, &cfg);

    // Crash at the midpoint — inside the scale/steal window — and the
    // recovered journal is byte-identical without re-executing the prefix.
    let prefix = report.journal.prefix(report.journal.len() / 2);
    let resumed = resume_fleet(&prefix, &requests, &cfg).expect("resume");
    assert_eq!(resumed.journal.encode(), report.journal.encode());
    assert_hashes_match(&resumed, &cfg);
}
