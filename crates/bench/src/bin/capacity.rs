//! `capacity` — the fleet-capacity experiment: elastic vs static fleets
//! under a rate sweep, the offline Monte-Carlo planner's accuracy against
//! live runs, and the planner's parallel-sweep speedup.
//!
//! The serving runs are virtual-time and seeded, so the sweep side is
//! deterministic; the planner-speedup side is wall-clock and therefore the
//! whole bench is volatile (regenerated, not replayed, by CI):
//!
//! * **elasticity dominates static allocation under overload** — at
//!   every rate of the sweep, where every static fleet of the pool sheds,
//!   the autoscaled + stealing fleet (running the *planner's* recommended
//!   policy envelope, with the rest of the pool as spares) has goodput at
//!   least the best static fleet's: dead static shards are gone for good,
//!   while the elastic fleet backfills deaths from its inactive pool (below
//!   overload it can trail, so the sweep stays above);
//! * **zero loss under chaos + node death** — every run in the sweep
//!   passes the journal conservation audit;
//! * **planner accuracy** — at a rate one shard cannot serve, the planner's
//!   predicted goodput for its recommended fleet is within 10% of a live
//!   run at that size;
//! * **parallel sweep speedup** — the k × N Monte-Carlo sweep at 8
//!   workers beats 1 worker by ≥ 2× (multi-core hosts only).

use fftx_bench::{CheckKind, GateOp, Harness};
use fftx_serve::{
    generate, plan_capacity, run_fleet, AutoscaleConfig, FleetConfig, FleetFaults, FleetReport,
    LoadProfile, PlanConfig, ServeConfig, TrafficConfig,
};
use std::fmt::Write as _;
use std::time::Instant;

const SEED: u64 = fftx_bench::harness::SEED;
/// Fault seed for the sweep: node death + slowdown inside the horizon.
const FAULT_SEED: u64 = 3;
const POOL: usize = 4;

fn traffic(rate_hz: f64) -> TrafficConfig {
    TrafficConfig {
        seed: SEED,
        rate_hz,
        duration_s: 2.0,
        tenants: 4,
        profile: LoadProfile::Burst,
    }
}

fn faults() -> FleetFaults {
    FleetFaults {
        seed: FAULT_SEED,
        p_death: 0.6,
        p_slow: 0.4,
        slow_max: 8.0,
        ..Default::default()
    }
}

fn base_cfg(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        serve: ServeConfig {
            seed: SEED,
            ..Default::default()
        },
        horizon_s: 2.0,
        faults: faults(),
        ..Default::default()
    }
}

fn conserved(r: &FleetReport, offered: usize) -> bool {
    r.conservation.open.is_empty()
        && r.conservation.accepted == r.conservation.completed
        && r.offered() == offered
}

fn main() {
    println!("=== fftx-serve fleet capacity: elastic vs static, planner accuracy ===\n");
    let mut h = Harness::new_volatile("capacity");

    // --- Phase 1: the rate sweep — static fleets k = 1..=POOL against an
    // autoscaled + stealing fleet on the same pool, same faults. ---
    let mut csv = String::from("rate_hz,fleet,shards,goodput_hz,shed_rate,conserved,scale_up,scale_down,steals\n");
    let mut min_ratio = f64::INFINITY;
    let mut all_conserved = true;
    for rate in [1920.0, 3840.0, 6400.0] {
        let requests = generate(&traffic(rate));
        let mut best_static: f64 = 0.0;
        for k in 1..=POOL {
            let cfg = base_cfg(k);
            let r = run_fleet(&requests, &cfg).expect("static fleet");
            let ok = conserved(&r, requests.len());
            all_conserved &= ok;
            best_static = best_static.max(r.goodput_hz());
            writeln!(
                csv,
                "{rate},static,{k},{:.4},{:.4},{ok},0,0,0",
                r.goodput_hz(),
                r.shed_rate()
            )
            .unwrap();
        }
        // The closed loop: plan the rate offline, then run the elastic
        // fleet at the planner's recommendation with its policy envelope.
        // The elastic fleet serves through at most POOL shards (the same
        // concurrency the best static fleet gets) but carries two standby
        // spares: a dead static shard is capacity lost for good, a dead
        // elastic shard is backfilled by an emergency scale-up.
        let rate_plan = plan_capacity(&PlanConfig {
            iterations: 2,
            seed: SEED,
            workers: 4,
            k_min: 1,
            k_max: POOL,
            fleet: base_cfg(POOL),
            traffic: traffic(rate),
            ..PlanConfig::default()
        })
        .expect("rate plan");
        let envelope = rate_plan.envelope;
        // The shed-free recommendation is the cost-minimal floor; this
        // sweep's objective is deadline goodput, so size the elastic floor
        // at the candidate whose *simulated* goodput is best instead —
        // the profiles exist exactly so operators can re-rank by their
        // own objective.
        let floor = rate_plan
            .profiles
            .iter()
            .max_by(|a, b| a.goodput_hz.total_cmp(&b.goodput_hz))
            .map(|p| p.k)
            .unwrap_or(rate_plan.recommended);
        let auto_cfg = FleetConfig {
            autoscale: Some(AutoscaleConfig {
                min: floor,
                max: envelope.max.max(floor),
                up_at: envelope.up_at,
                down_at: envelope.down_at,
                warmup_ticks: 1,
                cooldown_ticks: 2,
            }),
            steal: true,
            ..base_cfg(POOL + 2)
        };
        let auto = run_fleet(&requests, &auto_cfg).expect("elastic fleet");
        let ok = conserved(&auto, requests.len());
        all_conserved &= ok;
        writeln!(
            csv,
            "{rate},auto,1..{POOL},{:.4},{:.4},{ok},{},{},{}",
            auto.goodput_hz(),
            auto.shed_rate(),
            auto.counters.get("fleet.scale.up"),
            auto.counters.get("fleet.scale.down"),
            auto.counters.get("fleet.steal"),
        )
        .unwrap();
        let ratio = auto.goodput_hz() / best_static.max(1e-12);
        min_ratio = min_ratio.min(ratio);
        println!(
            "rate {rate:>5.0} req/s: best static {best_static:>7.2}/s | auto {:>7.2}/s (x{ratio:.3}) | plan {}..{} floor {} | scale +{} -{} | deaths {} | steals {}",
            auto.goodput_hz(),
            envelope.min,
            envelope.max,
            floor,
            auto.counters.get("fleet.scale.up"),
            auto.counters.get("fleet.scale.down"),
            auto.counters.get("fleet.shard_down"),
            auto.counters.get("fleet.steal"),
        );
    }
    h.artifact("capacity_sweep.csv", &csv, CheckKind::Structure);

    // --- Phase 2: planner accuracy — predicted goodput of the recommended
    // fleet vs a live run at that size on the base-seed trace. ---
    let plan_cfg = PlanConfig {
        iterations: 4,
        seed: SEED,
        workers: 4,
        k_min: 1,
        k_max: POOL,
        fleet: base_cfg(POOL),
        // One shard sheds at this rate, so the floor is above one.
        traffic: traffic(960.0),
        ..PlanConfig::default()
    };
    let plan = plan_capacity(&plan_cfg).expect("plan");
    let mut pcsv = String::from("k,goodput_hz,shed_rate,shed_total,p99_latency_s\n");
    for p in &plan.profiles {
        writeln!(pcsv, "{},{:.4},{:.4},{},{:.4}", p.k, p.goodput_hz, p.shed_rate, p.shed_total, p.p99_latency_s).unwrap();
    }
    writeln!(
        pcsv,
        "# required {:.2} bands/s, peak {:.2}, per-shard {:.2}, floor {}, recommended {}, envelope {}..{} up {:.2} down {:.2}",
        plan.required_rate, plan.peak_rate, plan.shard_rate, plan.analytic_floor,
        plan.recommended, plan.envelope.min, plan.envelope.max, plan.envelope.up_at, plan.envelope.down_at
    )
    .unwrap();
    h.artifact("capacity_plan.csv", &pcsv, CheckKind::Structure);

    let predicted = plan
        .profiles
        .iter()
        .find(|p| p.k == plan.recommended)
        .expect("recommended profile")
        .goodput_hz;
    let live = run_fleet(&generate(&plan_cfg.traffic), &base_cfg(plan.recommended))
        .expect("live fleet")
        .goodput_hz();
    let err = (predicted - live).abs() / live.max(1e-12);
    println!(
        "\nplanner: recommended {} shards (floor {}), predicted {predicted:.2}/s vs live {live:.2}/s — error {:.1} %",
        plan.recommended,
        plan.analytic_floor,
        err * 100.0
    );

    // --- Phase 3: the parallel sweep — 1 worker vs 8 over k × N runs. ---
    let speed_cfg = PlanConfig {
        iterations: 8,
        workers: 1,
        traffic: traffic(200.0),
        ..plan_cfg
    };
    let t0 = Instant::now();
    let serial_plan = plan_capacity(&speed_cfg).expect("serial sweep");
    let serial_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let parallel_plan = plan_capacity(&PlanConfig { workers: 8, ..speed_cfg }).expect("parallel sweep");
    let parallel_s = t0.elapsed().as_secs_f64();
    let speedup = serial_s / parallel_s.max(1e-12);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "sweep ({POOL} sizes x 8 iterations): 1 worker {serial_s:.3}s, 8 workers {parallel_s:.3}s — {speedup:.2}x (host has {cores} core(s))"
    );
    assert_eq!(serial_plan, parallel_plan, "worker count leaked into the plan");

    h.metric_f64("min_auto_vs_best_static_ratio", min_ratio, 4)
        .metric_bool("all_runs_conserved", all_conserved)
        .metric_u64("plan_recommended", plan.recommended as u64)
        .metric_u64("plan_analytic_floor", plan.analytic_floor as u64)
        .metric_f64("plan_predicted_goodput_hz", predicted, 4)
        .metric_f64("plan_live_goodput_hz", live, 4)
        .metric_f64("plan_vs_live_rel_err", err, 4)
        .metric_f64("sweep_serial_s", serial_s, 4)
        .metric_f64("sweep_parallel_s", parallel_s, 4)
        .metric_f64("sweep_speedup_8w", speedup, 3)
        .metric_u64("host_cores", cores as u64);
    h.gate(
        "the autoscaled fleet matches or beats the best static fleet at every overloaded rate",
        "min_auto_vs_best_static_ratio",
        GateOp::Ge,
        1.0,
    )
    .gate(
        "every sweep run conserves accepted jobs under chaos + node death",
        "all_runs_conserved",
        GateOp::Ge,
        1.0,
    )
    .gate(
        "the planner's prediction lands within 10% of the live run",
        "plan_vs_live_rel_err",
        GateOp::Le,
        0.10,
    );
    if cores >= 4 {
        h.gate(
            "the Monte-Carlo sweep parallelizes (>= 2x at 8 workers)",
            "sweep_speedup_8w",
            GateOp::Ge,
            2.0,
        );
    }
    std::process::exit(h.finish());
}
