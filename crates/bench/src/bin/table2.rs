//! Table II: efficiency and scalability factors for the OmpSs (task-per-FFT)
//! version, 1×8 .. 16×8, plus the cross-table comparison against Table I
//! that carries the paper's argument: better computation/IPC scalability at
//! the cost of some parallel efficiency.

use fftx_bench::{
    render_comparison, sweep, sweep_csv, CheckKind, GateOp, Harness, PAPER_TABLE2,
};
use fftx_core::SchedulerPolicy;
use fftx_trace::render_efficiency_table;

fn main() {
    println!("=== Table II: efficiency/scalability factors (OmpSs task-per-FFT) ===\n");
    let points = sweep(SchedulerPolicy::TaskPerFft, &[1, 2, 4, 8, 16]);
    let original = sweep(SchedulerPolicy::Serial, &[1, 2, 4, 8, 16]);

    let columns: Vec<(String, fftx_trace::EfficiencyFactors)> = points
        .iter()
        .map(|p| (p.label.clone(), p.factors))
        .collect();
    print!(
        "{}",
        render_efficiency_table(
            "EFFICIENCY AND SCALABILITY FACTORS FOR EXECUTIONS WITH 1-16 RANKS WITH 8 OMPSS TASKS EACH (model)",
            &columns
        )
    );
    println!();
    print!("{}", render_comparison("Model vs paper:", &points, &PAPER_TABLE2));
    let mut h = Harness::new("table2");
    h.artifact("table2_factors.csv", &sweep_csv(&points), CheckKind::Byte);

    let t2 = |i: usize| &points[i].factors;
    let t1 = |i: usize| &original[i].factors;
    println!(
        "8x8 comp scal {:.1}% vs original {:.1}%; 16x8 {:.1}% vs {:.1}% \
         (paper: 61.4/54.7, 37.3/27.3)",
        t2(3).scal.computation * 100.0,
        t1(3).scal.computation * 100.0,
        t2(4).scal.computation * 100.0,
        t1(4).scal.computation * 100.0
    );
    h.metric_f64("comp_scal_8x8", t2(3).scal.computation, 4)
        .metric_f64("comp_scal_8x8_original", t1(3).scal.computation, 4)
        .metric_f64("comp_scal_16x8", t2(4).scal.computation, 4)
        .metric_f64("comp_scal_16x8_original", t1(4).scal.computation, 4)
        .metric_bool(
            "comp_scal_beats_original",
            t2(3).scal.computation > t1(3).scal.computation
                && t2(4).scal.computation > t1(4).scal.computation * 0.97,
        )
        .metric_f64("ipc_scal_8x8", t2(3).scal.ipc, 4)
        .metric_f64("ipc_scal_8x8_original", t1(3).scal.ipc, 4)
        .metric_f64("ht_ipc_ratio", t2(4).scal.ipc / t2(3).scal.ipc, 4)
        .metric_f64("ht_ipc_ratio_original", t1(4).scal.ipc / t1(3).scal.ipc, 4)
        .metric_bool(
            "comm_eff_decreases",
            t2(4).intra.comm_efficiency < t2(0).intra.comm_efficiency,
        )
        .metric_f64("parallel_eff_1x8", t2(0).intra.parallel_efficiency, 4)
        .metric_f64("global_eff_8x8", t2(3).global, 4)
        .metric_f64("global_eff_8x8_original", t1(3).global, 4)
        .metric_bool("ipc_beats_original_8x8", t2(3).scal.ipc > t1(3).scal.ipc)
        .metric_bool(
            "ht_ratio_beats_original",
            t2(4).scal.ipc / t2(3).scal.ipc > t1(4).scal.ipc / t1(3).scal.ipc,
        )
        .metric_bool("global_beats_original_8x8", t2(3).global > t1(3).global);
    h.gate(
        "computation scalability beats the original at full node",
        "comp_scal_beats_original",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "IPC scalability beats the original at full node (paper: 66.1 vs 56.3)",
        "ipc_beats_original_8x8",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "2x hyper-threading hurts IPC less than in the original (paper: 0.64 vs 0.50)",
        "ht_ratio_beats_original",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "communication efficiency still decreases with rank count",
        "comm_eff_decreases",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "1x8 reference is near-perfect (ParEff ~99%)",
        "parallel_eff_1x8",
        GateOp::Ge,
        0.97,
    )
    .gate(
        "global efficiency at 8x8 beats the original's (paper: 51.1 vs 49.8)",
        "global_beats_original_8x8",
        GateOp::Eq,
        1.0,
    );
    std::process::exit(h.finish());
}
