//! Table I: efficiency and scalability factors for the original version,
//! 1×8 .. 16×8. Printed in the paper's layout plus a side-by-side model-vs-
//! paper comparison and shape checks on every column trend.

use fftx_bench::{
    render_comparison, sweep, sweep_csv, CheckKind, GateOp, Harness, PAPER_TABLE1,
};
use fftx_core::SchedulerPolicy;
use fftx_trace::render_efficiency_table;

fn main() {
    println!("=== Table I: efficiency/scalability factors (original) ===\n");
    let points = sweep(SchedulerPolicy::Serial, &[1, 2, 4, 8, 16]);

    let columns: Vec<(String, fftx_trace::EfficiencyFactors)> = points
        .iter()
        .map(|p| (p.label.clone(), p.factors))
        .collect();
    print!(
        "{}",
        render_efficiency_table(
            "EFFICIENCY AND SCALABILITY FACTORS FOR EXECUTIONS WITH 1-16 RANKS WITH 8 FFT TASK GROUPS EACH (model)",
            &columns
        )
    );
    println!();
    print!("{}", render_comparison("Model vs paper:", &points, &PAPER_TABLE1));
    let mut h = Harness::new("table1");
    h.artifact("table1_factors.csv", &sweep_csv(&points), CheckKind::Byte);

    let f = |i: usize| &points[i].factors;
    let max_ipc_err = (1..5)
        .map(|i| (points[i].factors.scal.ipc - PAPER_TABLE1[i].ipc).abs())
        .fold(0.0f64, f64::max);
    let ht_ipc_ratio = f(4).scal.ipc / f(3).scal.ipc;
    let min_lb = points
        .iter()
        .map(|p| p.factors.intra.load_balance)
        .fold(f64::INFINITY, f64::min);
    let max_ins_err = points
        .iter()
        .map(|p| (p.factors.scal.instructions - 1.0).abs())
        .fold(0.0f64, f64::max);
    println!(
        "model IPC scal [{}] vs paper [{}]",
        points
            .iter()
            .map(|p| format!("{:.2}", p.factors.scal.ipc))
            .collect::<Vec<_>>()
            .join(", "),
        PAPER_TABLE1
            .iter()
            .map(|c| format!("{:.2}", c.ipc))
            .collect::<Vec<_>>()
            .join(", ")
    );
    h.metric_f64("comm_eff_1x8", f(0).intra.comm_efficiency, 4)
        .metric_f64("comm_eff_16x8", f(4).intra.comm_efficiency, 4)
        .metric_bool(
            "comm_eff_decreases",
            f(4).intra.comm_efficiency < f(0).intra.comm_efficiency,
        )
        .metric_f64("comp_scal_8x8", f(3).scal.computation, 4)
        .metric_f64("comp_scal_16x8", f(4).scal.computation, 4)
        .metric_f64("max_ipc_err_vs_paper", max_ipc_err, 4)
        .metric_f64("ht_ipc_ratio", ht_ipc_ratio, 4)
        .metric_f64("min_load_balance", min_lb, 4)
        .metric_f64("max_ins_scal_err", max_ins_err, 4)
        .metric_f64("global_eff_16x8", f(4).global, 4);
    h.gate(
        "communication efficiency decreases with rank count",
        "comm_eff_decreases",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "computation scalability collapses at 8x8 (paper: 54.7%)",
        "comp_scal_8x8",
        GateOp::Le,
        0.70,
    )
    .gate(
        "computation scalability collapses at 16x8 (paper: 27.3%)",
        "comp_scal_16x8",
        GateOp::Le,
        0.40,
    )
    .gate(
        "IPC scalability tracks the paper column within 8 points",
        "max_ipc_err_vs_paper",
        GateOp::Le,
        0.08,
    )
    .gate(
        "IPC halving under 2x HT: ratio at least 0.40 (paper 0.50)",
        "ht_ipc_ratio",
        GateOp::Ge,
        0.40,
    )
    .gate(
        "IPC halving under 2x HT: ratio at most 0.62 (paper 0.50)",
        "ht_ipc_ratio",
        GateOp::Le,
        0.62,
    )
    .gate(
        "load balance stays high (the code is well balanced)",
        "min_load_balance",
        GateOp::Ge,
        0.92,
    )
    .gate(
        "instruction scalability stays near 100% (no work replication)",
        "max_ins_scal_err",
        GateOp::Le,
        0.03,
    )
    .gate(
        "global efficiency collapses to ~quarter at 16x8 (paper 23.5%)",
        "global_eff_16x8",
        GateOp::Le,
        0.40,
    );
    std::process::exit(h.finish());
}
