//! Figure 2: runtime of the FFT phase with increasing number of MPI ranks,
//! original version, 1×8 .. 32×8 (the last two entries use 2× and 4×
//! hyper-threading). Paper claims: poor scaling with rank count, and no
//! benefit — in fact a slowdown — from hyper-threading.

use fftx_bench::{sweep, CheckKind, GateOp, Harness, MetricValue};
use fftx_core::SchedulerPolicy;
use fftx_trace::render_bar_chart;

fn main() {
    println!("=== Figure 2: FFT phase runtime vs MPI ranks (original) ===");
    println!("parameters: ecutwfc 80 Ry, alat 20 bohr, 128 bands, ntg 8\n");

    let points = sweep(SchedulerPolicy::Serial, &[1, 2, 4, 8, 16, 32]);
    let configs: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
    let runtimes: Vec<f64> = points.iter().map(|p| p.run.runtime).collect();

    print!(
        "{}",
        render_bar_chart(
            "FFT phase runtime (simulated KNL node, seconds)",
            &configs,
            &[("original".to_string(), runtimes.clone())],
            50,
        )
    );

    let mut csv = String::from("config,lanes,runtime_s,speedup_vs_1x8\n");
    for p in &points {
        csv.push_str(&format!(
            "{},{},{:.6},{:.3}\n",
            p.label,
            p.nr * 8,
            p.run.runtime,
            points[0].run.runtime / p.run.runtime
        ));
    }

    let mut h = Harness::new("fig2");
    h.artifact("fig2_runtime.csv", &csv, CheckKind::Byte);

    // Shape criteria from the paper's discussion of Fig. 2, exported as
    // gates whose thresholds live in BENCH_fig2.json.
    let r = |i: usize| points[i].run.runtime;
    let speedup_8x8 = r(0) / r(3);
    h.metric("runtimes_s", MetricValue::Floats { v: runtimes.clone(), prec: 6 })
        .metric_f64("speedup_8x8", speedup_8x8, 3)
        .metric_bool(
            "monotone_to_8x8",
            r(0) > r(1) && r(1) > r(2) && r(2) > r(3),
        )
        .metric_bool("ht2_no_benefit", r(4) >= r(3) * 0.995)
        .metric_bool("ht4_worse_again", r(5) >= r(4) * 0.995);
    h.gate(
        "runtime decreases up to 8 x 8",
        "monotone_to_8x8",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "FFT phase does not scale well (speedup at 64 lanes << 8x)",
        "speedup_8x8",
        GateOp::Le,
        6.0,
    )
    .gate(
        "2x hyper-threading brings no benefit (16 x 8 >= 8 x 8)",
        "ht2_no_benefit",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "4x hyper-threading is worse again (32 x 8 >= 16 x 8)",
        "ht4_worse_again",
        GateOp::Eq,
        1.0,
    );
    std::process::exit(h.finish());
}
