//! Figure 3: timeline of the FFT phase (8×8 original) with a zoom into one
//! repeating sub-phase, showing the phase structure (psi prep → pack →
//! z FFT → scatter → xy FFT/VOFR → and back), the per-phase IPC levels, the
//! MPI calls, and the two sub-communicator families.

use fftx_bench::{results_dir, CheckKind, GateOp, Harness};
use fftx_core::{run_modeled, FftxConfig, SchedulerPolicy};
use fftx_trace::{
    communicator_summary, render_timeline, timeline_csv, CommOp, EventLog, StateClass,
    TimelineOptions,
};

fn main() {
    println!("=== Figure 3: FFT-phase timeline, 8 x 8 original ===\n");
    let run = run_modeled(FftxConfig::paper(8, SchedulerPolicy::Serial));
    let trace = &run.trace;

    // Full phase (top of Fig. 3): 16 repeating iterations are visible as
    // repeating compute blocks.
    let full = render_timeline(
        trace,
        &TimelineOptions {
            width: 110,
            window: None,
            show_comm: true,
        },
    );
    println!("Full FFT phase (all 64 ranks, 16 iterations):");
    // Print only a subset of rows to keep the console readable.
    for (i, line) in full.lines().enumerate() {
        if i < 18 || line.starts_with("legend") {
            println!("{line}");
        }
    }
    println!("  ... ({} more rank rows)\n", 64usize.saturating_sub(16));

    // Zoom into the third repeating sub-phase (like the paper).
    let iter_len = run.runtime / 16.0;
    let zoom = (2.0 * iter_len, 3.2 * iter_len);
    let zoomed = render_timeline(
        trace,
        &TimelineOptions {
            width: 110,
            window: Some(zoom),
            show_comm: true,
        },
    );
    println!("Zoom into the third sub-phase:");
    for (i, line) in zoomed.lines().enumerate() {
        if i < 18 || line.starts_with("legend") {
            println!("{line}");
        }
    }
    println!();

    // Phase IPC table (the zoomed IPC timeline of the paper).
    println!("Per-phase IPC (duration-weighted means, model):");
    let mut ipc_rows = String::from("phase,mean_ipc,total_seconds\n");
    for class in StateClass::ALL {
        let t: f64 = trace
            .compute
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.duration())
            .sum();
        if t > 0.0 {
            println!("  {:<9} IPC {:.2}  ({:.3}s total)", class.name(), trace.mean_ipc(class), t);
            ipc_rows.push_str(&format!("{},{:.4},{:.6}\n", class.name(), trace.mean_ipc(class), t));
        }
    }
    println!();

    // Communicator structure (bottom-right of Fig. 3).
    let comms = communicator_summary(trace);
    println!("Communicator usage (first ranks):");
    for line in comms.lines().take(10) {
        println!("{line}");
    }
    println!("  ...\n");

    let mut h = Harness::new("fig3");
    h.artifact("fig3_timeline.csv", &timeline_csv(trace), CheckKind::Byte);
    h.artifact("fig3_phase_ipc.csv", &ipc_rows, CheckKind::Byte);

    // The run's full event log in the columnar binary format: the .bin is a
    // run product (gitignored), while the converter-generated summary is a
    // committed, byte-checked artifact proving the encode→decode→query
    // path reproduces the log.
    let log = EventLog::from_trace(trace);
    let bytes = log.encode();
    let bin_path = results_dir().join("fig3_trace.bin");
    std::fs::write(&bin_path, &bytes).expect("write fig3_trace.bin");
    println!("[written] {} ({} bytes)", bin_path.display(), bytes.len());
    let decoded = EventLog::decode(&bytes).expect("decode fig3_trace.bin");
    let summary = fftx_trace::query::summary_csv(&decoded).expect("summary of decoded log");
    h.artifact("fig3_trace_summary.csv", &summary, CheckKind::Byte);

    // Shape checks: phase IPC ordering and communicator families.
    let prep = trace.mean_ipc(StateClass::PsiPrep);
    let z = trace.mean_ipc(StateClass::FftZ);
    let xy = trace.mean_ipc(StateClass::FftXy);
    use std::collections::BTreeSet;
    let pack_comms: BTreeSet<u64> = trace
        .comm
        .iter()
        .filter(|r| r.op == CommOp::Alltoallv)
        .map(|r| r.comm_id)
        .collect();
    let scatter_comms: BTreeSet<u64> = trace
        .comm
        .iter()
        .filter(|r| r.op == CommOp::Alltoall)
        .map(|r| r.comm_id)
        .collect();
    let pack_sizes: BTreeSet<usize> = trace
        .comm
        .iter()
        .filter(|r| r.op == CommOp::Alltoallv)
        .map(|r| r.comm_size)
        .collect();
    let scatter_sizes: BTreeSet<usize> = trace
        .comm
        .iter()
        .filter(|r| r.op == CommOp::Alltoall)
        .map(|r| r.comm_size)
        .collect();

    let rank0_scatters = trace
        .comm
        .iter()
        .filter(|r| r.op == CommOp::Alltoall && r.lane.rank == 0)
        .count() as u64;
    h.metric_f64("prep_ipc", prep, 4)
        .metric_f64("z_ipc", z, 4)
        .metric_f64("xy_ipc", xy, 4)
        .metric_bool("ipc_ordering_prep_z_xy", prep < z && z < xy)
        .metric_u64("pack_communicators", pack_comms.len() as u64)
        .metric_u64("scatter_communicators", scatter_comms.len() as u64)
        .metric_bool(
            "pack_family_8x8",
            pack_comms.len() == 8 && pack_sizes == BTreeSet::from([8usize]),
        )
        .metric_bool(
            "scatter_family_8x8",
            scatter_comms.len() == 8 && scatter_sizes == BTreeSet::from([8usize]),
        )
        .metric_u64("rank0_scatters", rank0_scatters)
        .metric_u64("log_bytes", bytes.len() as u64);
    h.gate(
        "psi preparation has very low IPC (paper: ~0.06)",
        "prep_ipc",
        GateOp::Le,
        0.15,
    )
    .gate(
        "z-FFT IPC sits between prep and the main phase (paper: ~0.52)",
        "ipc_ordering_prep_z_xy",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "main xy/VOFR phase is the high-IPC phase (paper: ~0.77, >= 0.6)",
        "xy_ipc",
        GateOp::Ge,
        0.6,
    )
    .gate(
        "main xy/VOFR phase IPC stays below 1.0",
        "xy_ipc",
        GateOp::Le,
        1.0,
    )
    .gate(
        "pack/unpack runs on 8 sub-communicators of 8 neighbouring ranks",
        "pack_family_8x8",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "scatter runs on 8 sub-communicators of 8 strided ranks",
        "scatter_family_8x8",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "64 FFT executions in groups of 8 (2 scatters x 16 iterations on rank 0)",
        "rank0_scatters",
        GateOp::Eq,
        32.0,
    );
    std::process::exit(h.finish());
}
