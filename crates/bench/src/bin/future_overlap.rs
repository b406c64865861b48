//! Extension: the paper's future work (Section VI) — "overlap communication
//! and computation with asynchronously scheduled tasks … using MPI
//! communication within OmpSs tasks" (Marjanović et al.). This binary
//! compares, on the modeled KNL node:
//!
//! * strategy 1 (task-per-step, blocking collectives inside tasks),
//! * strategy 2 (task-per-FFT),
//! * the future-work mode: strategy 1 with *split-phase* collectives
//!   (post/wait in separate tasks), so transfers overlap other bands'
//!   compute automatically.

use fftx_bench::{CheckKind, GateOp, Harness};
use fftx_core::{run_modeled, FftxConfig, SchedulerPolicy};
use fftx_trace::StateClass;

fn comm_wait_per_lane(run: &fftx_core::ModeledRun) -> f64 {
    let lanes = run.trace.lanes().len() as f64;
    run.trace.comm.iter().map(|r| r.duration()).sum::<f64>() / lanes
}

fn main() {
    println!("=== Future work: split-phase collectives inside tasks ===\n");
    let mut rows = String::from("config,mode,runtime_s,comm_wait_per_lane_s,main_ipc\n");
    let mut results = Vec::new();
    for nr in [8usize, 16] {
        for mode in [
            SchedulerPolicy::Serial,
            SchedulerPolicy::TaskPerStep,
            SchedulerPolicy::TaskPerFft,
            SchedulerPolicy::TaskAsync,
        ] {
            let run = run_modeled(FftxConfig::paper(nr, mode));
            let wait = comm_wait_per_lane(&run);
            println!(
                "{:>2} x 8  {:<12} runtime {:.4}s   comm wait/lane {:.4}s   main IPC {:.3}",
                nr,
                mode.label(),
                run.runtime,
                wait,
                run.trace.mean_ipc(StateClass::FftXy)
            );
            rows.push_str(&format!(
                "{} x 8,{},{:.6},{:.6},{:.4}\n",
                nr,
                mode.label(),
                run.runtime,
                wait,
                run.trace.mean_ipc(StateClass::FftXy)
            ));
            results.push((nr, mode, run.runtime, wait));
        }
        println!();
    }
    let mut h = Harness::new("future_overlap");
    h.artifact("future_overlap.csv", &rows, CheckKind::Byte);

    let get = |nr: usize, mode: SchedulerPolicy| {
        results
            .iter()
            .find(|(n, m, _, _)| *n == nr && *m == mode)
            .map(|(_, _, rt, w)| (*rt, *w))
            .expect("present")
    };
    let (steps8, steps8_wait) = get(8, SchedulerPolicy::TaskPerStep);
    let (async8, async8_wait) = get(8, SchedulerPolicy::TaskAsync);
    let (orig8, _) = get(8, SchedulerPolicy::Serial);
    let (steps16, _) = get(16, SchedulerPolicy::TaskPerStep);
    let (async16, _) = get(16, SchedulerPolicy::TaskAsync);

    println!(
        "8x8: async {async8:.4}s vs steps {steps8:.4}s vs original {orig8:.4}s; \
         16x8: async {async16:.4}s vs steps {steps16:.4}s"
    );
    h.metric_f64("steps8_s", steps8, 6)
        .metric_f64("async8_s", async8, 6)
        .metric_f64("orig8_s", orig8, 6)
        .metric_f64("steps8_wait_s", steps8_wait, 6)
        .metric_f64("async8_wait_s", async8_wait, 6)
        .metric_f64("wait_ratio_8x8", async8_wait / steps8_wait, 4)
        .metric_bool(
            "async_at_least_as_fast_as_steps",
            async8 <= steps8 * 1.005 && async16 <= steps16 * 1.005,
        )
        .metric_bool("async_beats_original", async8 < orig8);
    h.gate(
        "split-phase collectives cut the per-lane communication wait",
        "wait_ratio_8x8",
        GateOp::Le,
        0.8,
    )
    .gate(
        "the future-work mode is at least as fast as strategy 1",
        "async_at_least_as_fast_as_steps",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "the future-work mode beats the original",
        "async_beats_original",
        GateOp::Eq,
        1.0,
    );
    std::process::exit(h.finish());
}
