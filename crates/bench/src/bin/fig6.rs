//! Figure 6: runtime of the FFT phase, original vs OmpSs version, with
//! increasing rank count. Paper claims: the OmpSs version is ~7-10 % faster
//! (not counting hyper-threading), the fastest OmpSs configuration beats
//! the fastest original by about 10 %, and the OmpSs version additionally
//! tolerates 2× hyper-threading far better.

use fftx_bench::{sweep, CheckKind, GateOp, Harness, MetricValue};
use fftx_core::SchedulerPolicy;
use fftx_trace::render_bar_chart;

fn main() {
    println!("=== Figure 6: runtime, original (N x 8 ranks) vs OmpSs (N ranks x 8 threads) ===\n");
    let nrs = [1usize, 2, 4, 8, 16, 32];
    let orig = sweep(SchedulerPolicy::Serial, &nrs);
    let ompss = sweep(SchedulerPolicy::TaskPerFft, &nrs);

    let configs: Vec<String> = orig.iter().map(|p| p.label.clone()).collect();
    let orig_rt: Vec<f64> = orig.iter().map(|p| p.run.runtime).collect();
    let ompss_rt: Vec<f64> = ompss.iter().map(|p| p.run.runtime).collect();
    print!(
        "{}",
        render_bar_chart(
            "FFT phase runtime (simulated KNL node, seconds)",
            &configs,
            &[
                ("original".to_string(), orig_rt.clone()),
                ("ompss".to_string(), ompss_rt.clone()),
            ],
            50,
        )
    );

    let mut csv = String::from("config,lanes,original_s,ompss_s,gain_pct\n");
    for (i, cfg) in configs.iter().enumerate() {
        csv.push_str(&format!(
            "{},{},{:.6},{:.6},{:.2}\n",
            cfg,
            nrs[i] * 8,
            orig_rt[i],
            ompss_rt[i],
            (1.0 - ompss_rt[i] / orig_rt[i]) * 100.0
        ));
    }
    let mut h = Harness::new("fig6");
    h.artifact("fig6_runtime.csv", &csv, CheckKind::Byte);

    println!();
    for (i, cfg) in configs.iter().enumerate() {
        println!(
            "{cfg:>8}: original {:.4}s  ompss {:.4}s  gain {:+.1}%",
            orig_rt[i],
            ompss_rt[i],
            (1.0 - ompss_rt[i] / orig_rt[i]) * 100.0
        );
    }
    println!();

    let best_orig = orig_rt.iter().cloned().fold(f64::INFINITY, f64::min);
    let best_ompss = ompss_rt.iter().cloned().fold(f64::INFINITY, f64::min);
    let headline = (1.0 - best_ompss / best_orig) * 100.0;
    // "about 7-10 % faster (not counting hyper-threading)": 2x8..8x8.
    let no_ht_gains: Vec<f64> = (1..4)
        .map(|i| (1.0 - ompss_rt[i] / orig_rt[i]) * 100.0)
        .collect();
    println!(
        "best ompss {best_ompss:.4}s vs best original {best_orig:.4}s: {headline:.1}%; \
         2x8..8x8 gains {no_ht_gains:?} %"
    );
    h.metric("original_s", MetricValue::Floats { v: orig_rt.clone(), prec: 6 })
        .metric("ompss_s", MetricValue::Floats { v: ompss_rt.clone(), prec: 6 })
        .metric_f64("best_original_s", best_orig, 6)
        .metric_f64("best_ompss_s", best_ompss, 6)
        .metric_f64("headline_gain_pct", headline, 2)
        .metric_bool(
            "ompss_faster_full_core",
            (0..4).all(|i| ompss_rt[i] < orig_rt[i]),
        )
        .metric_bool(
            "gain_in_band",
            no_ht_gains.iter().all(|&g| (3.0..15.0).contains(&g)),
        )
        .metric_bool(
            "ompss_faster_under_ht",
            ompss_rt[4] < orig_rt[4] && ompss_rt[5] < orig_rt[5],
        );
    h.gate(
        "OmpSs version is faster at every full-core configuration",
        "ompss_faster_full_core",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "OmpSs gain is in the several-percent band (paper: 7-10%)",
        "gain_in_band",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "fastest OmpSs beats fastest original by ~10% (paper) / >5% (model)",
        "headline_gain_pct",
        GateOp::Ge,
        5.0,
    )
    // Note: the paper's extra +3% OmpSs gain *from* HT shows up in our
    // model as IPC tolerance, not net runtime — see EXPERIMENTS.md.
    .gate(
        "OmpSs keeps its advantage under 2x and 4x hyper-threading",
        "ompss_faster_under_ht",
        GateOp::Eq,
        1.0,
    );
    std::process::exit(h.finish());
}
