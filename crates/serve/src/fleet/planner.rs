//! The offline parallel Monte-Carlo capacity planner.
//!
//! Given a fleet template and a traffic model, the planner answers "how
//! many shards does this workload need, and what autoscaler policy should
//! guard it" *before* any capacity is provisioned:
//!
//! 1. **Monte-Carlo sweep** — `iterations` seeded variants of the traffic
//!    trace (iteration `i` reseeds the generator with `mix64(seed ^ i)`)
//!    are each served by every candidate static fleet size in
//!    `k_min..=k_max`. The `k × N` fleet simulations are independent, so
//!    they fan out over a [`fftx_taskrt::parallel_map`] worker pool; each
//!    run reduces to a small stats record (goodput, shed rate, p99
//!    latency), and results are slot-ordered, so the report is
//!    deterministic regardless of worker interleaving.
//! 2. **Analytic floor** — the mean per-window offered-work profile
//!    (band-weighted arrivals through [`fftx_trace::query::window_sums`])
//!    feeds the capacity constraint in [`fftx_knlsim::capacity`]:
//!    [`required_rate`] reallocates work across timesteps through the
//!    backlog recurrence, and a one-shard calibration run prices the
//!    per-shard service rate as the bands it served per second of
//!    journaled service (busy time, not makespan: a shard that keeps up
//!    with the trace idles between arrivals), giving the smallest shard
//!    count that can drain the horizon ([`fleet_floor`]).
//! 3. **Recommendation** — the smallest candidate `k` at or above the
//!    analytic floor whose simulated profile sheds nothing across every
//!    iteration (falling back to the least-shedding candidate), plus a
//!    [`PolicyEnvelope`] for the reactive autoscaler: `min`/`max` bounds
//!    from the mean and peak offered rates, hysteresis thresholds from
//!    the recommended fleet's mean utilization.
//!
//! [`required_rate`]: fftx_knlsim::capacity::required_rate
//! [`fleet_floor`]: fftx_knlsim::capacity::fleet_floor

use crate::error::ServeError;
use crate::journal::Record;
use crate::supervisor::{run_fleet, FleetConfig};
use crate::traffic::{generate, TrafficConfig};
use fftx_fault::mix64;
use fftx_knlsim::capacity;
use fftx_taskrt::parallel_map;
use fftx_trace::query::window_sums;
use std::sync::Arc;

/// Planner inputs: the Monte-Carlo sweep axes and the fleet/traffic
/// templates the candidates are instantiated from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanConfig {
    /// Seeded traffic iterations per candidate fleet size.
    pub iterations: usize,
    /// Base seed; iteration `i` regenerates traffic at `mix64(seed ^ i)`.
    pub seed: u64,
    /// Worker threads the `k × N` simulations fan out over.
    pub workers: usize,
    /// Smallest candidate fleet size.
    pub k_min: usize,
    /// Largest candidate fleet size.
    pub k_max: usize,
    /// Profile window for the per-timestep work aggregation (seconds).
    pub window_s: f64,
    /// Fleet template; `shards` and `autoscale` are overridden per
    /// candidate (static fleets of size `k`).
    pub fleet: FleetConfig,
    /// Traffic template; `seed` is overridden per iteration.
    pub traffic: TrafficConfig,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            iterations: 4,
            seed: 0,
            workers: 4,
            k_min: 1,
            k_max: 4,
            window_s: 0.1,
            fleet: FleetConfig::default(),
            traffic: TrafficConfig::default(),
        }
    }
}

impl PlanConfig {
    /// Validates the sweep axes.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.iterations == 0 {
            return Err(ServeError::Config("planner needs at least one iteration".into()));
        }
        if self.workers == 0 {
            return Err(ServeError::Config("planner needs at least one worker".into()));
        }
        if self.k_min == 0 || self.k_min > self.k_max {
            return Err(ServeError::Config(format!(
                "planner sweep range k_min={} k_max={} must satisfy 1 <= k_min <= k_max",
                self.k_min, self.k_max
            )));
        }
        if !self.window_s.is_finite() || self.window_s <= 0.0 {
            return Err(ServeError::Config(format!(
                "planner profile window {} must be a positive finite duration",
                self.window_s
            )));
        }
        Ok(())
    }
}

/// Mean simulated profile of one candidate fleet size across the
/// Monte-Carlo iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KProfile {
    /// The candidate shard count.
    pub k: usize,
    /// Mean goodput (deadline-met completions per virtual second).
    pub goodput_hz: f64,
    /// Mean fraction of offered requests shed.
    pub shed_rate: f64,
    /// Total requests shed across all iterations.
    pub shed_total: usize,
    /// Mean per-iteration p99 latency (virtual seconds).
    pub p99_latency_s: f64,
}

/// The autoscaler policy the planner recommends: bounds from the offered
/// rates, hysteresis thresholds from the recommended fleet's utilization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyEnvelope {
    /// Floor on active shards (covers the mean offered rate).
    pub min: usize,
    /// Ceiling on active shards (covers the peak offered rate).
    pub max: usize,
    /// Scale-up pressure threshold.
    pub up_at: f64,
    /// Scale-down pressure threshold (strictly below `up_at`).
    pub down_at: f64,
}

/// The planner's full output.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// Iterations each candidate was simulated over.
    pub iterations: usize,
    /// One simulated profile per candidate `k`, ascending.
    pub profiles: Vec<KProfile>,
    /// Mean per-window offered work (band-weighted arrivals).
    pub load_profile: Vec<f64>,
    /// Smallest constant service rate (bands/s) that drains the horizon.
    pub required_rate: f64,
    /// The no-queueing service rate (bands/s) of the worst window.
    pub peak_rate: f64,
    /// Calibrated per-shard service rate from the one-shard run: bands
    /// served per busy second (the summed `Started` service times).
    pub shard_rate: f64,
    /// Analytic fleet floor: `ceil(required_rate / shard_rate)`.
    pub analytic_floor: usize,
    /// Recommended static fleet size.
    pub recommended: usize,
    /// Recommended autoscaler policy envelope.
    pub envelope: PolicyEnvelope,
}

/// Per-run reduction shipped back from the worker pool.
#[derive(Debug, Clone, Copy)]
struct RunStats {
    goodput_hz: f64,
    shed_rate: f64,
    shed: usize,
    p99_s: f64,
}

fn simulate(reqs: &[crate::request::Request], cfg: &FleetConfig) -> Result<RunStats, ServeError> {
    let r = run_fleet(reqs, cfg)?;
    Ok(RunStats {
        goodput_hz: r.goodput_hz(),
        shed_rate: r.shed_rate(),
        shed: r.shed.len(),
        p99_s: r.latency().quantile(0.99),
    })
}

/// A static (non-elastic, non-stealing) fleet of `k` shards from the
/// template — the planner prices raw capacity; elasticity is its output.
fn static_fleet(template: &FleetConfig, k: usize) -> FleetConfig {
    FleetConfig {
        shards: k,
        autoscale: None,
        steal: false,
        ..*template
    }
}

/// Runs the planner. See the module docs for the three stages.
///
/// # Errors
/// [`ServeError::Config`] on contradictory sweep axes; any fleet error a
/// candidate simulation reports.
pub fn plan_capacity(cfg: &PlanConfig) -> Result<PlanReport, ServeError> {
    cfg.validate()?;
    let ks: Vec<usize> = (cfg.k_min..=cfg.k_max).collect();
    let traces: Arc<Vec<Vec<crate::request::Request>>> = Arc::new(
        (0..cfg.iterations)
            .map(|i| {
                generate(&TrafficConfig {
                    seed: mix64(cfg.seed ^ i as u64),
                    ..cfg.traffic
                })
            })
            .collect(),
    );

    // Stage 1: the k × N Monte-Carlo sweep over the worker pool. Slot
    // order is (k index, iteration), so the reduction below is
    // deterministic no matter how the workers interleave.
    let template = cfg.fleet;
    let ks_runs = ks.clone();
    let traces_runs = Arc::clone(&traces);
    let total = ks.len() * cfg.iterations;
    let iters = cfg.iterations;
    let results: Vec<Result<RunStats, ServeError>> =
        parallel_map(cfg.workers, total, move |slot| {
            let k = ks_runs[slot / iters];
            let trace = &traces_runs[slot % iters];
            simulate(trace, &static_fleet(&template, k))
        });

    let mut profiles = Vec::with_capacity(ks.len());
    for (ki, &k) in ks.iter().enumerate() {
        let mut agg = KProfile {
            k,
            goodput_hz: 0.0,
            shed_rate: 0.0,
            shed_total: 0,
            p99_latency_s: 0.0,
        };
        for i in 0..iters {
            let stats = results[ki * iters + i].clone()?;
            agg.goodput_hz += stats.goodput_hz;
            agg.shed_rate += stats.shed_rate;
            agg.shed_total += stats.shed;
            if stats.p99_s.is_finite() {
                agg.p99_latency_s += stats.p99_s;
            }
        }
        let n = iters as f64;
        agg.goodput_hz /= n;
        agg.shed_rate /= n;
        agg.p99_latency_s /= n;
        profiles.push(agg);
    }

    // Stage 2: the analytic floor. Mean band-weighted offered-work
    // profile across iterations, the capacity constraint over it, and a
    // one-shard calibration run for the per-shard service rate.
    let mut load_profile: Vec<f64> = Vec::new();
    for trace in traces.iter() {
        let ts: Vec<f64> = trace.iter().map(|r| r.arrival_s).collect();
        let ws: Vec<f64> = trace.iter().map(|r| r.bands as f64).collect();
        let prof = window_sums(&ts, &ws, cfg.window_s);
        if prof.len() > load_profile.len() {
            load_profile.resize(prof.len(), 0.0);
        }
        for (slot, w) in prof.into_iter().enumerate() {
            load_profile[slot] += w;
        }
    }
    for w in &mut load_profile {
        *w /= cfg.iterations as f64;
    }
    let required_rate = capacity::required_rate(&load_profile, cfg.window_s);
    let peak_rate = capacity::peak_rate(&load_profile, cfg.window_s);
    let calib = run_fleet(&traces[0], &static_fleet(&cfg.fleet, 1))?;
    let bands: usize = calib.jobs.iter().map(|j| j.request.bands).sum();
    let busy_s: f64 = calib.journal.records().iter().map(|rec| match rec {
        Record::Started { service_s, .. } => *service_s,
        _ => 0.0,
    }).sum();
    let shard_rate = if busy_s > 0.0 { bands as f64 / busy_s } else { 0.0 };
    let analytic_floor = capacity::fleet_floor(required_rate, shard_rate)
        .clamp(cfg.k_min, cfg.k_max);

    // Stage 3: the recommendation — smallest candidate at or above the
    // analytic floor with a shed-free simulated profile, else the
    // least-shedding candidate (ties to the smaller fleet).
    let recommended = profiles
        .iter()
        .find(|p| p.k >= analytic_floor && p.shed_total == 0)
        .or_else(|| profiles.iter().min_by(|a, b| a.shed_total.cmp(&b.shed_total)))
        .map(|p| p.k)
        .unwrap_or(cfg.k_min);

    let max = capacity::fleet_floor(peak_rate, shard_rate).clamp(recommended, cfg.k_max);
    let mean_util = if shard_rate > 0.0 && recommended > 0 {
        (required_rate / (recommended as f64 * shard_rate)).clamp(0.0, 1.0)
    } else {
        1.0
    };
    // Hysteresis from utilization headroom: trip the scale-up before the
    // mean load saturates the recommended fleet, release well below it.
    let up_at = (mean_util * 1.5).clamp(0.30, 0.90);
    let down_at = (mean_util * 0.25).clamp(0.05, up_at / 2.0);
    let envelope = PolicyEnvelope {
        min: analytic_floor.min(recommended),
        max,
        up_at,
        down_at,
    };

    Ok(PlanReport {
        iterations: cfg.iterations,
        profiles,
        load_profile,
        required_rate,
        peak_rate,
        shard_rate,
        analytic_floor,
        recommended,
        envelope,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::LoadProfile;

    fn plan_cfg() -> PlanConfig {
        PlanConfig {
            iterations: 2,
            seed: 17,
            workers: 2,
            k_min: 1,
            k_max: 3,
            window_s: 0.1,
            fleet: FleetConfig::default(),
            traffic: TrafficConfig {
                seed: 0,
                rate_hz: 60.0,
                duration_s: 1.0,
                tenants: 3,
                profile: LoadProfile::Burst,
            },
        }
    }

    #[test]
    fn validates_sweep_axes() {
        assert!(plan_cfg().validate().is_ok());
        assert!(PlanConfig { iterations: 0, ..plan_cfg() }.validate().is_err());
        assert!(PlanConfig { workers: 0, ..plan_cfg() }.validate().is_err());
        assert!(PlanConfig { k_min: 3, k_max: 2, ..plan_cfg() }.validate().is_err());
        assert!(PlanConfig { window_s: 0.0, ..plan_cfg() }.validate().is_err());
        assert!(matches!(
            plan_capacity(&PlanConfig { k_min: 0, ..plan_cfg() }),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn plan_covers_every_candidate_and_recommends_within_range() {
        let cfg = plan_cfg();
        let plan = plan_capacity(&cfg).expect("plan");
        assert_eq!(plan.profiles.len(), 3);
        assert_eq!(
            plan.profiles.iter().map(|p| p.k).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(plan.recommended >= cfg.k_min && plan.recommended <= cfg.k_max);
        assert!(plan.required_rate > 0.0, "offered work must need capacity");
        assert!(plan.peak_rate >= plan.required_rate, "peak bounds required");
        // A light trace: busy time prices a shard far above the demand.
        assert!(plan.shard_rate > 4.0 * plan.required_rate, "calibration must price busy time");
        assert!(!plan.load_profile.is_empty());
        let e = plan.envelope;
        assert!(e.min >= 1 && e.min <= e.max && e.max <= cfg.k_max);
        assert!(e.down_at < e.up_at, "envelope must keep the hysteresis gap");
        assert!(e.up_at < 0.90, "a mostly idle shard must not read saturated");
    }

    #[test]
    fn plan_is_deterministic_across_runs_and_worker_counts() {
        let a = plan_capacity(&plan_cfg()).expect("plan");
        let b = plan_capacity(&PlanConfig { workers: 1, ..plan_cfg() }).expect("plan");
        assert_eq!(a, b, "worker count must not leak into the report");
    }

    #[test]
    fn bigger_fleets_never_shed_more() {
        let plan = plan_capacity(&plan_cfg()).expect("plan");
        for pair in plan.profiles.windows(2) {
            assert!(
                pair[1].shed_rate <= pair[0].shed_rate + 1e-9,
                "shed rate must be monotone non-increasing in k"
            );
        }
    }
}
