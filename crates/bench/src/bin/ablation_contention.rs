//! Ablation C: which model mechanism produces which observable. Runs the
//! 8×8 original and OmpSs configurations with individual mechanisms of the
//! KNL model disabled:
//!
//! * full model (paper calibration)
//! * no node contention (`ContentionModel::uncontended` but keeping noise)
//! * no system/band noise (perfectly repeatable kernel)
//! * ideal network (zero-cost transfers)
//!
//! The claims being isolated: contention causes the IPC collapse; per-band
//! variability is what dynamic scheduling absorbs; the network model carries
//! the communication-efficiency decay.

use fftx_bench::{CheckKind, GateOp, Harness};
use fftx_core::{run_modeled_with, FftxConfig, SchedulerPolicy};
use fftx_knlsim::{CommModel, ContentionModel, KnlConfig};
use fftx_trace::StateClass;

fn main() {
    println!("=== Ablation C: mechanism isolation (8x8) ===\n");
    let knl = KnlConfig::paper();
    let full = ContentionModel::paper();
    let no_contention = ContentionModel {
        enabled: false,
        ..full
    };
    let no_noise = ContentionModel {
        noise: 0.0,
        band_noise: 0.0,
        ..full
    };
    let comm = CommModel::paper();
    let ideal_comm = comm.idealized();

    let variants: [(&str, &ContentionModel, &CommModel); 4] = [
        ("full model", &full, &comm),
        ("no contention", &no_contention, &comm),
        ("no noise", &no_noise, &comm),
        ("ideal network", &full, &ideal_comm),
    ];

    let mut rows = String::from("variant,mode,runtime_s,main_ipc\n");
    let mut table: Vec<(String, f64, f64, f64, f64)> = Vec::new();
    for (name, cont, cm) in variants {
        let orig = run_modeled_with(FftxConfig::paper(8, SchedulerPolicy::Serial), &knl, cont, cm);
        let ompss = run_modeled_with(
            FftxConfig::paper(8, SchedulerPolicy::TaskPerFft),
            &knl,
            cont,
            cm,
        );
        let io = orig.trace.mean_ipc(StateClass::FftXy);
        let it = ompss.trace.mean_ipc(StateClass::FftXy);
        println!(
            "{name:<14} original {:.4}s (main IPC {:.3})   ompss {:.4}s (main IPC {:.3})   gain {:+.1}%",
            orig.runtime,
            io,
            ompss.runtime,
            it,
            (1.0 - ompss.runtime / orig.runtime) * 100.0
        );
        rows.push_str(&format!("{name},original,{:.6},{:.4}\n", orig.runtime, io));
        rows.push_str(&format!("{name},ompss,{:.6},{:.4}\n", ompss.runtime, it));
        table.push((name.to_string(), orig.runtime, ompss.runtime, io, it));
    }
    let mut h = Harness::new("ablation_contention");
    h.artifact("ablation_contention.csv", &rows, CheckKind::Byte);
    println!();

    let find = |n: &str| table.iter().find(|t| t.0 == n).expect("variant present");
    let full_row = find("full model");
    let nc = find("no contention");
    let nn = find("no noise");
    let ic = find("ideal network");

    let gain_full = 1.0 - full_row.2 / full_row.1;
    let gain_nn = 1.0 - nn.2 / nn.1;
    println!(
        "gain with noise {:+.1}%, without {:+.1}%; ideal network {:.4}s vs {:.4}s",
        gain_full * 100.0,
        gain_nn * 100.0,
        ic.1,
        full_row.1
    );
    h.metric_f64("full_original_s", full_row.1, 6)
        .metric_f64("full_main_ipc", full_row.3, 4)
        .metric_f64("no_contention_main_ipc", nc.3, 4)
        .metric_f64("no_contention_ipc_ratio", nc.3 / full_row.3, 4)
        .metric_f64("no_contention_runtime_ratio", nc.1 / full_row.1, 4)
        .metric_f64("gain_with_noise", gain_full, 4)
        .metric_f64("gain_without_noise", gain_nn, 4)
        .metric_f64(
            "noise_gain_ratio",
            if gain_full != 0.0 { gain_nn / gain_full } else { f64::NAN },
            4,
        )
        .metric_f64("ideal_network_runtime_ratio", ic.1 / full_row.1, 4);
    h.gate(
        "node contention causes the IPC collapse",
        "no_contention_ipc_ratio",
        GateOp::Ge,
        1.2,
    )
    .gate(
        "without contention the node is much faster",
        "no_contention_runtime_ratio",
        GateOp::Le,
        0.75,
    )
    .gate(
        "per-band variability is what the dynamic scheduler absorbs",
        "noise_gain_ratio",
        GateOp::Le,
        0.6,
    )
    .gate(
        "the network model carries a real share of the runtime",
        "ideal_network_runtime_ratio",
        GateOp::Le,
        0.99,
    );
    std::process::exit(h.finish());
}
