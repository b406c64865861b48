//! `failover` — the durable-fleet experiment: node-death failover latency,
//! journal-replay overhead, and graceful degradation under overload.
//!
//! Everything runs in virtual time at a pinned seed, so the artifacts are
//! deterministic and the CI gates are exact:
//!
//! * **zero-loss conservation** — every run's journal audit accounts every
//!   accepted job exactly once (completed or still open == none), under
//!   node death, slow nodes, and partitions alike;
//! * **replay bit-identity** — resuming from a journal prefix cut at any
//!   of the probed crash points reproduces the uninterrupted run's journal
//!   byte for byte;
//! * **replay overhead ≤ 5%** — crash recovery re-executes at most 5% of
//!   the run's real batch executions beyond what the live tail needs
//!   anyway (the journal's completion hashes make replay execution-free).

use fftx_bench::{CheckKind, GateOp, Harness};
use fftx_serve::{
    generate, resume_fleet, run_fleet, AdmissionConfig, FleetConfig, FleetFaults, FleetReport,
    Journal, LoadProfile, Record, ServeConfig, TrafficConfig,
};
use std::fmt::Write as _;

const SEED: u64 = fftx_bench::harness::SEED;
/// Fault-injection seed for the death sweep (chosen so each fleet size
/// loses at least one shard inside the horizon).
const FAULT_SEED: u64 = 3;

fn traffic(rate_hz: f64, duration_s: f64) -> TrafficConfig {
    TrafficConfig {
        seed: SEED,
        rate_hz,
        duration_s,
        tenants: 4,
        profile: LoadProfile::Burst,
    }
}

/// The number of distinct batches whose *first* completion record sits at
/// or past `cut` — the batches a resume from that cut must execute anyway.
fn batches_first_completed_after(journal: &Journal, cut: usize) -> usize {
    let mut seen = std::collections::BTreeSet::new();
    let mut tail = std::collections::BTreeSet::new();
    for (i, rec) in journal.records().iter().enumerate() {
        if let Record::Completed { batch, .. } = rec {
            if seen.insert(*batch) && i >= cut {
                tail.insert(*batch);
            }
        }
    }
    tail.len()
}

fn conserved(r: &FleetReport, offered: usize) -> bool {
    r.conservation.open.is_empty()
        && r.conservation.accepted == r.conservation.completed
        && r.offered() == offered
}

fn main() {
    println!("=== fftx-serve fleet: node-death failover, journal replay, degradation ===\n");

    // --- Phase 1: failover sweep — fleet sizes under a lethal death
    // profile, modeled service, virtual-time failover latency. ---
    let mut csv = String::from(
        "shards,p_death,deaths,jobs_rerouted,failover_p50_s,failover_p99_s,goodput_hz,shed_rate,suppressed\n",
    );
    let mut sweep = Vec::new();
    for shards in [3usize, 5] {
        let requests = generate(&traffic(80.0, 2.0));
        let cfg = FleetConfig {
            shards,
            serve: ServeConfig {
                seed: SEED,
                ..Default::default()
            },
            faults: FleetFaults {
                seed: FAULT_SEED,
                p_death: 0.6,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = run_fleet(&requests, &cfg).expect("failover sweep");
        let mut fl = r.failover_latencies();
        let (p50, p99) = if fl.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            (fl.p50(), fl.p99())
        };
        let _ = writeln!(
            csv,
            "{},{},{},{},{:.6},{:.6},{:.4},{:.4},{}",
            shards,
            0.6,
            r.counters.get("fleet.shard_down"),
            r.counters.get("fleet.failover.jobs"),
            p50,
            p99,
            r.goodput_hz(),
            r.shed_rate(),
            r.counters.get("fleet.suppressed"),
        );
        println!(
            "  {} shards: {} dead, {} jobs re-routed, failover p50 {:.4}s p99 {:.4}s, conserved {}",
            shards,
            r.counters.get("fleet.shard_down"),
            r.counters.get("fleet.failover.jobs"),
            p50,
            p99,
            conserved(&r, requests.len()),
        );
        sweep.push((shards, requests.len(), r));
    }
    let mut h = Harness::new("failover");
    h.artifact("failover.csv", &csv, CheckKind::Byte);
    let sweep_conserved = sweep.iter().all(|(_, n, r)| conserved(r, *n));
    let sweep_deaths = sweep.iter().all(|(_, _, r)| r.counters.get("fleet.shard_down") >= 1);
    let sweep_rerouted = sweep.iter().all(|(_, _, r)| r.counters.get("fleet.failover.jobs") >= 1);
    println!();

    // --- Phase 2: crash-point replay with real execution — resume from
    // journal prefixes and compare byte-for-byte; count the real batch
    // executions a resume performs beyond the live tail's own needs. ---
    let replay_requests = generate(&traffic(40.0, 1.0));
    let replay_cfg = FleetConfig {
        shards: 3,
        serve: ServeConfig {
            execute_real: true,
            seed: SEED,
            ..Default::default()
        },
        horizon_s: 1.0,
        faults: FleetFaults {
            seed: FAULT_SEED,
            p_death: 0.6,
            ..Default::default()
        },
        ..Default::default()
    };
    let full = run_fleet(&replay_requests, &replay_cfg).expect("replay baseline");
    let full_bytes = full.journal.encode();
    let exec_full = full.counters.get("fleet.exec.batch");
    let n = full.journal.len();
    let cuts = [0, n / 4, n / 2, 3 * n / 4, n.saturating_sub(1)];
    let mut bit_identical = true;
    let mut max_overhead_pct = 0.0f64;
    println!("replay: {n} journal records, {exec_full} real batch executions uninterrupted");
    for &cut in &cuts {
        let prefix = full.journal.prefix(cut);
        let resumed = resume_fleet(&prefix, &replay_requests, &replay_cfg).expect("resume");
        let identical = resumed.journal.encode() == full_bytes;
        bit_identical &= identical;
        let needed = batches_first_completed_after(&full.journal, cut) as u64;
        let re_executed = resumed.counters.get("fleet.exec.batch").saturating_sub(needed);
        let overhead_pct = 100.0 * re_executed as f64 / exec_full.max(1) as f64;
        max_overhead_pct = max_overhead_pct.max(overhead_pct);
        println!(
            "  cut {cut:>4}/{n}: journal {}, {} executions ({} tail-needed, overhead {:.2}%)",
            if identical { "bit-identical" } else { "DIVERGED" },
            resumed.counters.get("fleet.exec.batch"),
            needed,
            overhead_pct,
        );
    }
    let replay_conserved = conserved(&full, replay_requests.len());
    println!();

    // --- Phase 3: graceful degradation — a saturating burst against one
    // small shard must walk the ladder, shed typed, and recover. ---
    let overload_requests = generate(&TrafficConfig {
        seed: SEED,
        rate_hz: 800.0,
        duration_s: 1.0,
        tenants: 2,
        profile: LoadProfile::Burst,
    });
    let overload_cfg = FleetConfig {
        shards: 1,
        serve: ServeConfig {
            admission: AdmissionConfig {
                queue_cap: 8,
                tenant_share: 1.0,
                shed_late: false,
            },
            seed: SEED,
            ..Default::default()
        },
        horizon_s: 1.0,
        ..Default::default()
    };
    let overload = run_fleet(&overload_requests, &overload_cfg).expect("overload fleet");
    let degrade_moves = overload.counters.sum_prefix("fleet.degrade.");
    let degrade_shed = overload.counters.get("shed.degraded");
    let degrade_recovered =
        overload.timeline.last_state(overload_cfg.shards as u32) == Some("normal");
    println!(
        "degradation: {} ladder transitions, {} jobs shed by class, recovered to normal: {}",
        degrade_moves, degrade_shed, degrade_recovered
    );
    println!();

    // --- BENCH_failover.json through the shared harness: headline numbers
    // plus the gates (thresholds travel with the artifact). ---
    let (_, _, r3) = &sweep[0];
    let mut fl3 = r3.failover_latencies();
    h.metric_u64("fault_seed", FAULT_SEED)
        .metric_f64("p_death", 0.6, 1)
        .metric_u64("shard_deaths_3", r3.counters.get("fleet.shard_down"))
        .metric_u64("jobs_rerouted_3", r3.counters.get("fleet.failover.jobs"))
        .metric_f64("failover_p50_s", fl3.p50(), 6)
        .metric_f64("failover_p99_s", fl3.p99(), 6)
        .metric(
            "replay_cuts",
            fftx_bench::MetricValue::UInts(cuts.iter().map(|&c| c as u64).collect()),
        )
        .metric_bool("replay_bit_identical", bit_identical)
        .metric_f64("replay_overhead_pct", max_overhead_pct, 4)
        .metric_u64("replay_real_executions", exec_full)
        .metric_u64("degrade_transitions", degrade_moves)
        .metric_u64("degrade_shed", degrade_shed)
        .metric_bool("degrade_recovered", degrade_recovered)
        .metric_bool("zero_loss", sweep_conserved && replay_conserved)
        .metric_bool(
            "failover_engaged",
            sweep_deaths && sweep_rerouted,
        )
        .metric_bool(
            "degrade_ladder_walked",
            degrade_moves > 0 && degrade_shed > 0 && degrade_recovered,
        );
    println!(
        "gates: 3-shard {} dead / {} re-routed; replay cuts {cuts:?} of {n} records",
        r3.counters.get("fleet.shard_down"),
        r3.counters.get("fleet.failover.jobs"),
    );
    h.gate(
        "node death loses no accepted job (conservation audit)",
        "zero_loss",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "death profile kills shards and failover re-routes their jobs",
        "failover_engaged",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "resume from every probed crash point is journal bit-identical",
        "replay_bit_identical",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "journal replay re-executes at most 5% beyond the live tail",
        "replay_overhead_pct",
        GateOp::Le,
        5.0,
    )
    .gate(
        "overload walks the degradation ladder and recovers",
        "degrade_ladder_walked",
        GateOp::Eq,
        1.0,
    );
    std::process::exit(h.finish());
}
