//! Integrity experiment: the silent-data-corruption defense, gated.
//!
//! Three claims are machine-checked, all deterministic (seeded faults,
//! modeled costs — no wall clocks in the artifacts):
//!
//! 1. **100% detection** — sweeping flip rates × verify modes on the real
//!    engine: wherever `off` mode delivers a corrupted answer (the SDC
//!    baseline), `cheap` mode detects it and `full` mode repairs it.
//! 2. **Zero corrupted results delivered** — in `cheap`/`full` mode every
//!    delivered band set is bitwise identical to the fault-free run; and
//!    across the serve chaos sweep, every job hash a corrupted fleet
//!    delivers equals an independent clean re-execution of its batch.
//! 3. **≤5% `cheap` overhead at the paper 8×8** — the verify layer's extra
//!    work (Parseval passes, checkpoint clones, the verdict allreduce)
//!    priced by the KNL cost model against the modeled 8×8 runtime, using
//!    the same conservative exchange-bandwidth convention as the recovery
//!    bench.

use fftx_bench::{CheckKind, GateOp, Harness, MetricValue};
use fftx_core::stages::StagePlan;
use fftx_core::{
    load_env, run_policy, run_verified, simulate_config, FftxConfig, Problem, SchedulerPolicy,
    VerifyMode,
};
use fftx_fault::{BitFlip, CorruptionConfig};
use fftx_knlsim::{CommModel, ContentionModel, KnlConfig};
use fftx_serve::{
    assemble, band_hash, generate, run_fleet, Backend, FleetConfig, LoadProfile, Placement,
    PlacementMode, Record, Request, ServeChaos, ServeConfig, TrafficConfig,
};
use fftx_trace::CommOp;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Pinned fault seed (the paper's publication date) so CI commits a
/// reproducible artifact.
const SEED: u64 = fftx_bench::harness::SEED;

/// Flip rates swept (strike probability per fault key, max 2 strikes).
const RATES: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

struct SweepRow {
    rate: f64,
    mode: VerifyMode,
    detected: u64,
    rollbacks: u64,
    repaired: u64,
    checks: u64,
    delivered_clean: bool,
}

fn corruption_at(rate: f64) -> CorruptionConfig {
    if rate == 0.0 {
        return CorruptionConfig::off();
    }
    CorruptionConfig {
        bitflip: Some(BitFlip::new(SEED, rate, 2)),
        ..CorruptionConfig::off()
    }
}

fn main() {
    println!("=== Integrity: bit-flip chaos vs ABFT verify-and-recompute ===\n");
    // Rollback budgets come from FFTX_RECOVERY_*; a value that does not
    // parse stops the run instead of falling back to the default.
    let rc = match load_env() {
        Ok(knobs) => knobs.recovery,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    // --- Part 1: flip rate × verify mode sweep on the real engine. ---
    let problem = Problem::new(FftxConfig::small(2, 2, SchedulerPolicy::Serial));
    let baseline = run_policy(&problem, SchedulerPolicy::Serial);
    let mut rows: Vec<SweepRow> = Vec::new();
    for rate in RATES {
        for mode in VerifyMode::ALL {
            let (out, stats) = run_verified(&problem, corruption_at(rate), mode, &rc)
                .expect("bounded transients stay within the rollback budget");
            rows.push(SweepRow {
                rate,
                mode,
                detected: stats.detected_batches,
                rollbacks: stats.batch_rollbacks,
                repaired: stats.repaired_legs,
                checks: stats.parseval_checks.max(stats.recomputed_legs),
                delivered_clean: out.bands == baseline.bands,
            });
        }
    }
    let mut csv = String::from(
        "flip_rate,verify_mode,detected_batches,rollbacks,repaired_legs,checks,delivered_clean\n",
    );
    for r in &rows {
        println!(
            "rate {:>4} mode {:>5}: detected {} rollbacks {} repaired {} clean: {}",
            r.rate,
            r.mode.name(),
            r.detected,
            r.rollbacks,
            r.repaired,
            r.delivered_clean
        );
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{},{}",
            r.rate, r.mode.name(), r.detected, r.rollbacks, r.repaired, r.checks,
            r.delivered_clean
        );
    }
    let row = |rate: f64, mode: VerifyMode| {
        rows.iter()
            .find(|r| r.rate == rate && r.mode == mode)
            .expect("swept")
    };
    // Detection is gated against the Off baseline: every rate whose
    // unverified run delivered corruption must be caught by cheap and
    // repaired by full.
    let corrupt_rates: Vec<f64> = RATES
        .iter()
        .copied()
        .filter(|&p| !row(p, VerifyMode::Off).delivered_clean)
        .collect();
    let baseline_corrupts = !corrupt_rates.is_empty();
    let all_detected = corrupt_rates
        .iter()
        .all(|&p| row(p, VerifyMode::Cheap).detected > 0 && row(p, VerifyMode::Full).repaired > 0);
    let none_delivered = rows
        .iter()
        .filter(|r| r.mode != VerifyMode::Off)
        .all(|r| r.delivered_clean);
    let clean_quiet = RATES.iter().all(|&p| {
        row(p, VerifyMode::Off).delivered_clean
            || (row(0.0, VerifyMode::Cheap).detected == 0
                && row(0.0, VerifyMode::Full).repaired == 0)
    });
    println!();

    // --- Part 2: the serve chaos sweep — a corrupted fleet must deliver
    // only hashes an independent clean re-execution reproduces. ---
    let trace = generate(&TrafficConfig {
        seed: 7,
        rate_hz: 60.0,
        duration_s: 1.0,
        tenants: 3,
        profile: LoadProfile::Steady,
    });
    let fleet_cfg = FleetConfig {
        serve: ServeConfig {
            mode: PlacementMode::Static(fftx_core::SchedulerPolicy::Serial),
            chaos: Some(ServeChaos {
                seed: SEED ^ 0xBAD,
                evict_batch: None,
                corrupt_per_mille: 1000,
            }),
            ..Default::default()
        },
        ..Default::default()
    };
    let fleet = run_fleet(&trace, &fleet_cfg).expect("corrupt fleet run");
    let detections = fleet.counters.get("fleet.corruption.detected");
    let recomputes = fleet.counters.get("fleet.corruption.recomputed");
    let quarantines = fleet.counters.get("fleet.degrade.quarantine");
    let breaker_opens = fleet.counters.get("fleet.breaker.open");
    // Replay the journal's batch formation and re-execute every batch on a
    // clean backend: the fleet's delivered hashes must all match.
    let by_id: BTreeMap<u64, Request> = trace.iter().map(|r| (r.id, *r)).collect();
    let mut members: BTreeMap<u64, Vec<Request>> = BTreeMap::new();
    let mut placements: BTreeMap<u64, Placement> = BTreeMap::new();
    for rec in fleet.journal.records() {
        match rec {
            Record::Batched { batch, jobs, .. } => {
                members.insert(*batch, jobs.iter().map(|j| by_id[j]).collect());
            }
            Record::Started { batch, nr, ntg, policy, decomp, .. } => {
                placements.insert(
                    *batch,
                    Placement {
                        nr: *nr,
                        ntg: *ntg,
                        policy: fftx_core::SchedulerPolicy::ALL[*policy],
                        decomp: fftx_core::Decomposition::ALL[*decomp],
                    },
                );
            }
            _ => {}
        }
    }
    let mut clean = Backend::new(fleet_cfg.serve.seed, None);
    let mut clean_hashes: BTreeMap<u64, u64> = BTreeMap::new();
    for (batch, reqs) in &members {
        let Some(p) = placements.get(batch) else { continue };
        let assembled = assemble(reqs.clone(), &fleet_cfg.serve.batch).expect("journaled batch");
        let run = clean.execute(&assembled, p, *batch as usize, false);
        for m in &assembled.members {
            let range = &run.output.bands[m.band_start..m.band_start + m.request.bands];
            clean_hashes.insert(m.request.id, band_hash(range));
        }
    }
    let delivered = fleet.jobs.len();
    let mismatched = fleet
        .jobs
        .iter()
        .filter(|j| j.hash != clean_hashes.get(&j.request.id).copied())
        .count();
    println!(
        "serve sweep: {delivered} jobs delivered, {mismatched} hash mismatches, \
         {detections} detections, {recomputes} recompute rollbacks, \
         {quarantines} quarantine transitions, {breaker_opens} breaker trips"
    );
    csv.push_str("\nserve,jobs,mismatched,detections,recomputes,quarantines,breaker_opens\n");
    let _ = writeln!(
        csv,
        "chaos,{delivered},{mismatched},{detections},{recomputes},{quarantines},{breaker_opens}"
    );

    // --- Part 3: modeled cheap-mode overhead at the paper 8×8. ---
    let paper_cfg = FftxConfig::paper(8, SchedulerPolicy::Serial);
    let baseline_s = simulate_config(
        paper_cfg,
        &KnlConfig::paper(),
        &ContentionModel::paper(),
        &CommModel::paper(),
    )
    .runtime;
    let paper_problem = Problem::new(paper_cfg);
    let sp = StagePlan::for_problem(&paper_problem, 0);
    let l = &paper_problem.layout;
    let comm = CommModel::paper();
    let elem = std::mem::size_of::<fftx_fft::Complex64>();
    // KNL DDR4-2400 STREAM bandwidth (flat mode) — the rate rank-local
    // verify passes stream at. Deliberately the conservative figure:
    // MCDRAM in cache mode sustains ~4.5x this, so the real overhead is
    // lower still. (KnlConfig models cores/frequency/SMT, not memory
    // bandwidth, hence the explicit constant.)
    const LOCAL_STREAM_BW: f64 = 90.0e9;
    // Per batch, per rank (ranks verify concurrently, so the critical path
    // pays one rank's share): four Parseval passes — two over the z-stick
    // buffer, two over the plane slab — plus one checkpoint clone of the
    // rank's t band shares, all streaming rank-local memory; then the
    // 8-byte verdict allreduce priced by the exchange model.
    let pass_bytes = 2 * (sp.plan.zbuf_len() + sp.plan.planes_len()) * elem;
    let ckpt_bytes = l.t * l.ngw_rank(0) * elem;
    let allreduce_s = comm.duration(CommOp::Allreduce, paper_cfg.vmpi_ranks(), 8);
    let per_iter_s = (pass_bytes + ckpt_bytes) as f64 / LOCAL_STREAM_BW + allreduce_s;
    let cheap_overhead_s = paper_cfg.iterations() as f64 * per_iter_s;
    let cheap_pct = cheap_overhead_s / baseline_s * 100.0;
    println!(
        "\nmodeled 8x8 scale: baseline {baseline_s:.4}s  cheap verify {cheap_pct:+.3}%  \
         ({} pass bytes + {} ckpt bytes + {allreduce_s:.2e}s allreduce per batch)",
        pass_bytes, ckpt_bytes
    );
    csv.push_str("\nmodel,baseline_s,cheap_overhead_pct,pass_bytes,ckpt_bytes\n");
    let _ = writeln!(
        csv,
        "paper_8x8,{baseline_s:.6},{cheap_pct:.4},{pass_bytes},{ckpt_bytes}"
    );
    let mut h = Harness::new("integrity");
    h.artifact("integrity.csv", &csv, CheckKind::Byte);
    println!();

    // --- BENCH_integrity.json through the shared harness. ---
    println!(
        "gates: corrupting rates {corrupt_rates:?}; rate 1.0 cheap detected {}, full \
         repaired {}; rate 0.0 cheap detected {}, full repaired {}",
        row(1.0, VerifyMode::Cheap).detected,
        row(1.0, VerifyMode::Full).repaired,
        row(0.0, VerifyMode::Cheap).detected,
        row(0.0, VerifyMode::Full).repaired,
    );
    h.metric("flip_rates", MetricValue::Floats { v: RATES.to_vec(), prec: 2 })
        .metric_bool("baseline_corrupts", baseline_corrupts)
        .metric_bool("all_corruption_detected", all_detected)
        .metric_bool("zero_corrupted_delivered", none_delivered)
        .metric_bool("clean_runs_quiet", clean_quiet)
        .metric_u64("serve_jobs", delivered as u64)
        .metric_u64("serve_hash_mismatches", mismatched as u64)
        .metric_u64("serve_detections", detections)
        .metric_u64("serve_quarantine_transitions", quarantines)
        .metric_u64("serve_breaker_opens", breaker_opens)
        .metric_f64("cheap_overhead_pct", cheap_pct, 4)
        .metric_bool("zero_loss", fleet.conservation.open.is_empty())
        .metric_bool(
            "serve_hashes_clean_reproducible",
            mismatched == 0 && delivered > 0 && fleet.conservation.open.is_empty(),
        )
        .metric_bool(
            "fleet_quarantines_corruption",
            detections > 0 && quarantines > 0 && breaker_opens > 0,
        );
    h.gate(
        "unverified (off) mode delivers corruption — the SDC baseline is real",
        "baseline_corrupts",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "100% of corrupting rates detected by cheap mode and repaired by full mode",
        "all_corruption_detected",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "zero corrupted results delivered under cheap/full at every rate",
        "zero_corrupted_delivered",
        GateOp::Eq,
        1.0,
    )
    .gate("clean runs raise no false alarms", "clean_runs_quiet", GateOp::Eq, 1.0)
    .gate(
        "serve chaos sweep delivers only clean-reproducible job hashes",
        "serve_hashes_clean_reproducible",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "fleet journals the detections and quarantines the corrupting shards",
        "fleet_quarantines_corruption",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "modeled cheap verify overhead stays at or under 5% of the 8x8 runtime",
        "cheap_overhead_pct",
        GateOp::Le,
        5.0,
    )
    .gate(
        "the verify layer's modeled cost is nonzero (the model is priced in)",
        "cheap_overhead_pct",
        GateOp::Ge,
        1e-4,
    );
    std::process::exit(h.finish());
}
