//! Ablation A: the task-group trade-off of Section II. At a fixed total of
//! 64 ranks, sweep the number of FFT task groups T from 1 (all collective
//! cost in the scatter, involving all ranks) to 64 (all cost in pack/unpack,
//! each rank FFTs whole bands alone). The paper: "All the options between
//! these two extreme cases should be benchmarked" — this binary does.

use fftx_bench::{CheckKind, GateOp, Harness};
use fftx_core::{run_modeled, Decomposition, FftxConfig, SchedulerPolicy};
use fftx_trace::{render_bar_chart, CommOp};

fn main() {
    println!("=== Ablation A: number of FFT task groups at fixed 64 ranks ===\n");
    let total = 64usize;
    let ntgs = [1usize, 2, 4, 8, 16, 32, 64];

    let mut labels = Vec::new();
    let mut runtimes = Vec::new();
    let mut rows = String::from("ntg,r,runtime_s,scatter_time_s,pack_time_s\n");
    let mut pack_times = Vec::new();
    let mut scatter_times = Vec::new();
    for &ntg in &ntgs {
        let cfg = FftxConfig {
            ecutwfc: 80.0,
            alat: 20.0,
            nbnd: 128,
            nr: total / ntg,
            ntg,
            mode: SchedulerPolicy::Serial,
            decomp: Decomposition::Slab,
            seed: 2017,
        };
        let run = run_modeled(cfg);
        // Decompose communication time by operation (scatter = Alltoall,
        // pack/unpack = Alltoallv), averaged per rank.
        let lanes = run.trace.lanes().len() as f64;
        let scatter: f64 = run
            .trace
            .comm
            .iter()
            .filter(|r| r.op == CommOp::Alltoall)
            .map(|r| r.duration())
            .sum::<f64>()
            / lanes;
        let pack: f64 = run
            .trace
            .comm
            .iter()
            .filter(|r| r.op == CommOp::Alltoallv)
            .map(|r| r.duration())
            .sum::<f64>()
            / lanes;
        println!(
            "ntg {ntg:>2} ({}x{ntg:<2}): runtime {:.4}s  scatter/rank {:.4}s  pack/rank {:.4}s",
            total / ntg,
            run.runtime,
            scatter,
            pack
        );
        rows.push_str(&format!(
            "{},{},{:.6},{:.6},{:.6}\n",
            ntg,
            total / ntg,
            run.runtime,
            scatter,
            pack
        ));
        labels.push(format!("ntg={ntg}"));
        runtimes.push(run.runtime);
        pack_times.push(pack);
        scatter_times.push(scatter);
    }
    println!();
    print!(
        "{}",
        render_bar_chart("runtime vs task-group count (64 ranks)", &labels, &[("orig".into(), runtimes.clone())], 40)
    );
    let mut h = Harness::new("ablation_ntg");
    h.artifact("ablation_ntg.csv", &rows, CheckKind::Byte);

    let best = runtimes
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    h.metric_f64("best_runtime_s", best, 6)
        .metric_f64("ntg1_runtime_s", runtimes[0], 6)
        .metric_f64("ntg8_runtime_s", runtimes[3], 6)
        .metric_f64(
            "ntg1_scatter_vs_pack_ratio",
            scatter_times[0] / pack_times[0].max(1e-12),
            2,
        )
        .metric_f64(
            "ntg64_pack_vs_scatter_ratio",
            pack_times[6] / scatter_times[6].max(1e-12),
            2,
        )
        .metric_bool("task_groups_beat_ntg1", best < runtimes[0])
        .metric_f64("ntg8_vs_best_ratio", runtimes[3] / best, 4)
        .metric_bool(
            "scatter_shrinks_with_groups",
            scatter_times[0] > scatter_times[3] && scatter_times[3] > scatter_times[6],
        );
    h.gate(
        "with ntg=1 the scatter dominates the communication",
        "ntg1_scatter_vs_pack_ratio",
        GateOp::Ge,
        5.0,
    )
    .gate(
        "with ntg=64 the pack/unpack dominates the communication",
        "ntg64_pack_vs_scatter_ratio",
        GateOp::Ge,
        5.0,
    )
    .gate(
        "task groups beat the no-task-group baseline (ntg=1)",
        "task_groups_beat_ntg1",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "the paper's default ntg=8 is within 10% of the sweep's best",
        "ntg8_vs_best_ratio",
        GateOp::Le,
        1.10,
    )
    .gate(
        "scatter time per rank shrinks as task groups grow",
        "scatter_shrinks_with_groups",
        GateOp::Eq,
        1.0,
    );
    std::process::exit(h.finish());
}
