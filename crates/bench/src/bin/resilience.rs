//! Resilience experiment (extends Fig. 6): calibrated stragglers injected
//! into the paper's 8×8 configuration, original vs task-per-FFT.
//!
//! Two fault shapes, both applied identically to the two modes (the spikes
//! key on the band/step noise keys shared by every lowering, so severity is
//! matched by construction):
//!
//! * **Band spikes** — step 13 (the inverse xy-FFT) of every 16th band
//!   takes an extra `s` virtual seconds. The static code executes bands in
//!   lockstep: every spike lands on the critical path of its iteration (the
//!   whole pack group waits at the next collective) and the damage
//!   accumulates almost linearly. The task-based version's dynamic schedule
//!   lets other bands' tasks fill the stall, so the same injection costs a
//!   fraction of that. The spikes must be sparse relative to the parallel
//!   slack (here 8 of 128 bands): saturate every lane with stalls and no
//!   schedule has anything left to fill with.
//! * **Chronic slow rank** — every compute segment of rank 0 stretched by a
//!   constant factor; no schedule can hide a slow *rank* in a
//!   bulk-synchronous kernel, so both modes degrade and this column is the
//!   control showing the spikes' gracefulness is scheduling, not slack.

use fftx_bench::{CheckKind, GateOp, Harness, MetricValue};
use fftx_core::{simulate_config_faulty, FftxConfig, SchedulerPolicy};
use fftx_knlsim::{CommModel, ContentionModel, FaultPlan, KnlConfig};

const NR: usize = 8;

fn runtime(mode: SchedulerPolicy, plan: &FaultPlan) -> f64 {
    let cfg = FftxConfig::paper(NR, mode);
    simulate_config_faulty(
        cfg,
        &KnlConfig::paper(),
        &ContentionModel::paper(),
        &CommModel::paper(),
        plan,
    )
    .runtime
}

fn main() {
    println!("=== Resilience: stragglers injected into the 8 x 8 configuration ===\n");

    // --- Band spikes: extra seconds on the inverse xy-FFT of every 16th
    // band (8 of the 128 bands — sparse, so slack exists to reclaim).
    let severities = [0.0, 0.01_f64, 0.02, 0.05];
    let plan_for = |s: f64| {
        if s == 0.0 {
            FaultPlan::none()
        } else {
            FaultPlan::spikes(16, 13, s)
        }
    };
    let orig: Vec<f64> = severities
        .iter()
        .map(|&s| runtime(SchedulerPolicy::Serial, &plan_for(s)))
        .collect();
    let ompss: Vec<f64> = severities
        .iter()
        .map(|&s| runtime(SchedulerPolicy::TaskPerFft, &plan_for(s)))
        .collect();
    let degr = |rt: &[f64], i: usize| rt[i] / rt[0] - 1.0;

    let mut csv = String::from(
        "spike_s,original_s,original_degradation_pct,ompss_s,ompss_degradation_pct,degradation_ratio\n",
    );
    println!("band spikes (step 13, every 16th band):");
    for (i, &s) in severities.iter().enumerate() {
        let (d_o, d_t) = (degr(&orig, i), degr(&ompss, i));
        let ratio = if d_o > 0.0 { d_t / d_o } else { 0.0 };
        csv.push_str(&format!(
            "{:.4},{:.6},{:.2},{:.6},{:.2},{:.3}\n",
            s,
            orig[i],
            d_o * 100.0,
            ompss[i],
            d_t * 100.0,
            ratio
        ));
        println!(
            "  spike {:>6.3}s: original {:.4}s ({:+.1}%)  ompss {:.4}s ({:+.1}%)  ratio {:.2}",
            s,
            orig[i],
            d_o * 100.0,
            ompss[i],
            d_t * 100.0,
            ratio
        );
    }

    // --- Chronic slow rank (control): rank 0 stretched by a factor.
    let factors = [1.0_f64, 1.25, 1.5, 2.0];
    let slow_orig: Vec<f64> = factors
        .iter()
        .map(|&f| runtime(SchedulerPolicy::Serial, &FaultPlan::slow_rank(0, f)))
        .collect();
    let slow_ompss: Vec<f64> = factors
        .iter()
        .map(|&f| runtime(SchedulerPolicy::TaskPerFft, &FaultPlan::slow_rank(0, f)))
        .collect();
    csv.push_str("\nslow_factor,original_s,original_degradation_pct,ompss_s,ompss_degradation_pct\n");
    println!("\nchronic slow rank 0:");
    for (i, &f) in factors.iter().enumerate() {
        let (d_o, d_t) = (degr(&slow_orig, i), degr(&slow_ompss, i));
        csv.push_str(&format!(
            "{:.2},{:.6},{:.2},{:.6},{:.2}\n",
            f,
            slow_orig[i],
            d_o * 100.0,
            slow_ompss[i],
            d_t * 100.0
        ));
        println!(
            "  factor {f:.2}: original {:.4}s ({:+.1}%)  ompss {:.4}s ({:+.1}%)",
            slow_orig[i],
            d_o * 100.0,
            slow_ompss[i],
            d_t * 100.0
        );
    }
    let mut h = Harness::new("resilience");
    h.artifact("resilience.csv", &csv, CheckKind::Byte);
    println!();

    let ratios: Vec<f64> = (1..severities.len())
        .map(|i| degr(&ompss, i) / degr(&orig, i))
        .collect();
    let orig_degs: Vec<f64> = (1..severities.len()).map(|i| degr(&orig, i)).collect();
    let max_ratio = ratios.iter().copied().fold(0.0f64, f64::max);
    println!("original degradations {orig_degs:?}; degradation ratios (ompss/original) {ratios:?}");
    h.metric("original_degradations", MetricValue::Floats { v: orig_degs.clone(), prec: 4 })
        .metric("degradation_ratios", MetricValue::Floats { v: ratios.clone(), prec: 4 })
        .metric_f64("max_degradation_ratio", max_ratio, 4)
        .metric_bool(
            "original_monotone",
            orig_degs.windows(2).all(|w| w[1] > w[0]) && orig_degs[0] > 0.0,
        )
        .metric_f64("slow_rank_orig_degradation", degr(&slow_orig, factors.len() - 1), 4)
        .metric_f64("slow_rank_ompss_degradation", degr(&slow_ompss, factors.len() - 1), 4);
    h.gate(
        "spikes degrade the original monotonically with severity",
        "original_monotone",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "task-per-FFT degradation is at most half the original's at matched severity",
        "max_degradation_ratio",
        GateOp::Le,
        0.5,
    )
    .gate(
        "control: a chronically slow rank hurts the original too (no free lunch)",
        "slow_rank_orig_degradation",
        GateOp::Ge,
        0.10,
    )
    .gate(
        "control: a chronically slow rank hurts task-per-FFT too",
        "slow_rank_ompss_degradation",
        GateOp::Ge,
        0.10,
    );
    std::process::exit(h.finish());
}
