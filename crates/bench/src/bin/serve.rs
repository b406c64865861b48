//! `serve` — the job-serving experiment: offered load vs goodput and tail
//! latency, auto-tuned placement vs every static scheduler policy, plus an
//! end-to-end real-execution correctness pass and a chaos-seeded run, all
//! on a one-shard fleet (the single-node server).
//!
//! Everything runs at a pinned seed over virtual time, so the CSV/JSON
//! artifacts are deterministic and the CI gates are exact:
//!
//! * **auto ≥ static** — on every load point, the auto placement's modeled
//!   goodput matches or beats the best static policy (by construction: the
//!   auto tuner searches the union of the static candidate spaces);
//! * **tail discipline** — auto's p99 latency stays within 5% of the best
//!   static policy's;
//! * **zero lost jobs** — a chaos-seeded serving run (rollbacks, retries,
//!   and one forced rank eviction) completes every accepted job with
//!   results hash-identical to direct engine runs.

use fftx_bench::{CheckKind, GateOp, Harness, MetricValue};
use fftx_core::{run_policy, SchedulerPolicy};
use fftx_serve::{
    band_hash, class_problem, generate, run_fleet, FleetConfig, FleetReport, LoadProfile,
    PlacementMode, Request, ServeChaos, ServeConfig, TrafficConfig,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const SEED: u64 = fftx_bench::harness::SEED;
const RATES: [f64; 4] = [15.0, 40.0, 80.0, 160.0];

fn traffic(rate_hz: f64) -> TrafficConfig {
    TrafficConfig {
        seed: SEED,
        rate_hz,
        duration_s: 2.0,
        tenants: 4,
        profile: LoadProfile::Burst,
    }
}

struct Point {
    rate_hz: f64,
    mode: PlacementMode,
    report: FleetReport,
}

/// Serves `requests` on one shard under `cfg`.
fn serve(requests: &[Request], cfg: ServeConfig, what: &str) -> FleetReport {
    let fleet = FleetConfig { shards: 1, serve: cfg, ..Default::default() };
    run_fleet(requests, &fleet).unwrap_or_else(|e| panic!("{what}: {e}"))
}

fn modes() -> Vec<PlacementMode> {
    let mut v = vec![PlacementMode::Auto];
    v.extend(SchedulerPolicy::ALL.map(PlacementMode::Static));
    v
}

/// Whether every served job's hash matches a direct engine run of its
/// batch's journaled placement.
fn hashes_match_direct(report: &FleetReport, seed: u64) -> bool {
    let mut expect = BTreeMap::new();
    for b in &report.batches {
        let (class, nbnd, p) = (b.batch.class, b.batch.nbnd, b.placement);
        let direct = run_policy(&class_problem(class, p.config(class, nbnd, seed)), p.policy);
        for m in &b.batch.members {
            let range = &direct.bands[m.band_start..m.band_start + m.request.bands];
            expect.insert((b.id, m.request.id), band_hash(range));
        }
    }
    report
        .jobs
        .iter()
        .all(|j| j.hash.is_some() && j.hash == expect.get(&(j.batch, j.request.id)).copied())
}

fn main() {
    println!("=== fftx-serve: offered load vs goodput, auto vs static placement ===\n");

    // --- Phase 1: modeled load sweep over every placement mode. ---
    let mut points = Vec::new();
    for &rate in &RATES {
        let requests = generate(&traffic(rate));
        for mode in modes() {
            let report = serve(
                &requests,
                ServeConfig {
                    mode,
                    seed: SEED,
                    ..Default::default()
                },
                "serve sweep",
            );
            points.push(Point {
                rate_hz: rate,
                mode,
                report,
            });
        }
    }

    let mut csv = String::from(
        "rate_hz,mode,offered,served,shed,shed_rate,goodput_hz,p50_s,p99_s,batches,mean_batch_size\n",
    );
    for p in &mut points {
        let r = &p.report;
        let mut lat = r.latency();
        let (p50, p99) = if lat.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            (lat.p50(), lat.p99())
        };
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{:.4},{:.4},{:.6},{:.6},{},{:.3}",
            p.rate_hz,
            p.mode.name(),
            r.offered(),
            r.jobs.len(),
            r.shed.len(),
            r.shed_rate(),
            r.goodput_hz(),
            p50,
            p99,
            r.batches.len(),
            r.jobs.len() as f64 / r.batches.len().max(1) as f64,
        );
        println!(
            "  rate {:>6.1}  {:<8} served {:>4}/{:<4} goodput {:>7.2}/s  p99 {:.5}s",
            p.rate_hz,
            p.mode.name(),
            r.jobs.len(),
            r.offered(),
            r.goodput_hz(),
            p99,
        );
    }
    let mut h = Harness::new("serve");
    h.artifact("serve.csv", &csv, CheckKind::Byte);
    println!();

    // --- Gates: auto vs the static field, per load point. ---
    let mut auto_beats_goodput = true;
    let mut auto_tail_ok = true;
    let mut gate_detail = String::new();
    for &rate in &RATES {
        let at = |m: PlacementMode| {
            points
                .iter()
                .position(|p| p.rate_hz == rate && p.mode == m)
                .expect("swept")
        };
        let auto_i = at(PlacementMode::Auto);
        let auto_goodput = points[auto_i].report.goodput_hz();
        let auto_p99 = points[auto_i].report.latency().p99();
        let mut best_static_goodput = 0.0f64;
        let mut best_static_p99 = f64::INFINITY;
        for policy in SchedulerPolicy::ALL {
            let i = at(PlacementMode::Static(policy));
            best_static_goodput = best_static_goodput.max(points[i].report.goodput_hz());
            best_static_p99 = best_static_p99.min(points[i].report.latency().p99());
        }
        if auto_goodput < best_static_goodput - 1e-9 {
            auto_beats_goodput = false;
        }
        if auto_p99 > best_static_p99 * 1.05 + 1e-12 {
            auto_tail_ok = false;
        }
        let _ = write!(
            gate_detail,
            "[{rate}Hz: auto {auto_goodput:.2}/s vs best static {best_static_goodput:.2}/s] "
        );
    }

    // --- Phase 1b: overload — a hot burst against constrained buffering
    // must engage the backpressure path (bounded queue, fair share,
    // deadline shedding) with typed rejections. ---
    let overload_requests = generate(&traffic(400.0));
    let overload = serve(
        &overload_requests,
        ServeConfig {
            admission: fftx_serve::AdmissionConfig {
                queue_cap: 8,
                tenant_share: 0.5,
                shed_late: true,
            },
            seed: SEED,
            ..Default::default()
        },
        "overload serve",
    );
    println!(
        "overload (400Hz burst, queue cap 8): served {}, shed {} ({:.1}%), max depth {}",
        overload.jobs.len(),
        overload.shed.len(),
        overload.shed_rate() * 100.0,
        overload.depth.max(),
    );
    for kind in ["queue_full", "tenant_share", "deadline"] {
        let n = overload.counters.get(&format!("shed.{kind}"));
        if n > 0 {
            println!("  shed.{kind:<13} {n}");
        }
    }

    // --- Phase 2: real execution — served results == direct engine runs. ---
    let real_requests: Vec<_> = generate(&traffic(30.0)).into_iter().take(40).collect();
    let real = serve(
        &real_requests,
        ServeConfig {
            execute_real: true,
            seed: SEED,
            ..Default::default()
        },
        "real serve",
    );
    let real_ok = real.offered() == real.jobs.len() + real.shed.len()
        && !real.jobs.is_empty()
        && hashes_match_direct(&real, SEED);
    println!(
        "real execution: {} jobs over {} batches, hashes {} direct engine runs",
        real.jobs.len(),
        real.batches.len(),
        if real_ok { "match" } else { "DIVERGE from" }
    );

    // --- Phase 3: chaos-seeded serving with a forced rank eviction. ---
    let chaos_requests: Vec<_> = generate(&traffic(30.0)).into_iter().take(24).collect();
    let chaos = serve(
        &chaos_requests,
        ServeConfig {
            chaos: Some(ServeChaos {
                seed: SEED ^ 0xC0DE,
                evict_batch: Some(0),
                corrupt_per_mille: 0,
            }),
            seed: SEED,
            ..Default::default()
        },
        "chaos serve",
    );
    let recovered: u64 = chaos.counters.get("recovery.retries")
        + chaos.counters.get("recovery.rollbacks")
        + chaos.counters.get("recovery.evictions");
    let chaos_complete = chaos.jobs.len() + chaos.shed.len() == chaos.offered()
        && chaos.jobs.iter().all(|j| j.hash.is_some());
    let chaos_ok = chaos_complete && hashes_match_direct(&chaos, SEED);
    println!(
        "chaos serving:  {} jobs completed, {} recovery events ({} evictions), results {}",
        chaos.jobs.len(),
        recovered,
        chaos.counters.get("recovery.evictions"),
        if chaos_ok { "intact" } else { "CORRUPTED" }
    );

    // --- BENCH_serve.json: the headline numbers through the shared
    // harness, with the regression thresholds stored in the artifact. ---
    println!("auto vs static: {}", gate_detail.trim());
    let auto_40 = points
        .iter()
        .position(|p| p.rate_hz == 40.0 && p.mode == PlacementMode::Auto)
        .expect("swept");
    let overload_conserved = overload.jobs.len() + overload.shed.len() == overload.offered();
    h.metric_str("profile", "burst")
        .metric("rates_hz", MetricValue::Floats { v: RATES.to_vec(), prec: 1 })
        .metric_f64("auto_goodput_40hz", points[auto_40].report.goodput_hz(), 4)
        .metric_f64("auto_p99_40hz_s", points[auto_40].report.latency().p99(), 6)
        .metric_bool("auto_matches_best_static_goodput", auto_beats_goodput)
        .metric_bool("auto_p99_within_5pct", auto_tail_ok)
        .metric_u64("real_jobs", real.jobs.len() as u64)
        .metric_bool("real_hashes_match_direct", real_ok)
        .metric_u64("chaos_jobs_completed", chaos.jobs.len() as u64)
        .metric_u64("chaos_recovery_events", recovered)
        .metric_bool("chaos_zero_lost_jobs", chaos_ok)
        .metric_f64("overload_shed_rate", overload.shed_rate(), 4)
        .metric_bool("overload_conserved", overload_conserved);
    h.gate(
        "auto placement matches or beats every static policy's goodput",
        "auto_matches_best_static_goodput",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "auto p99 latency within 5% of the best static policy",
        "auto_p99_within_5pct",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "served results hash-match direct engine runs",
        "real_hashes_match_direct",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "chaos-seeded serving completes all accepted jobs bit-identically",
        "chaos_zero_lost_jobs",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "overload sheds typed rejections (backpressure engages)",
        "overload_shed_rate",
        GateOp::Ge,
        0.01,
    )
    .gate(
        "overload conserves requests (served + shed = offered)",
        "overload_conserved",
        GateOp::Eq,
        1.0,
    );
    std::process::exit(h.finish());
}
