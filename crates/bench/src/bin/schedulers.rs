//! Scheduler-policy shoot-out over the unified stage graph.
//!
//! Every execution engine is now a scheduling policy over the one typed
//! stage graph (`fftx-core::stages`): serial, task-per-step, task-per-FFT,
//! async split-phase, and the hybrid overlap+desync policy the paper's
//! future-work section sketches (per-band coarse tasks *and* split-phase
//! collectives). This binary checks the two claims that justify the
//! refactor:
//!
//! 1. **Policies are schedules, not algorithms** — on the real engine all
//!    five produce bit-identical bands, and every stage-graph node shows up
//!    in the per-stage span stream.
//! 2. **Hybrid is competitive** — on the modeled KNL node (paper 8×8) the
//!    hybrid policy must be no more than 2% slower than task-per-FFT, the
//!    paper's best measured strategy (the CI gate), and at least as fast as
//!    the blocking step policy.

use fftx_bench::{CheckKind, GateOp, Harness};
use fftx_core::{
    run_modeled, run_policy, FftxConfig, Problem, SchedulerPolicy, StageKind,
};
use fftx_fft::Complex64;
use fftx_trace::{StageHistogram, StateClass};
use std::sync::Arc;

fn stage_name(id: u32) -> String {
    StageKind::from_id(id).map_or_else(|| format!("stage-{id}"), |k| k.name().to_string())
}

fn main() {
    println!("=== Scheduler policies over the unified stage graph ===\n");
    // BENCH_schedulers.json — this bin gates the stage-graph refactor.
    let mut h = Harness::new("schedulers");

    // --- Real engine: bitwise equivalence + stage-span coverage. ---
    println!("--- real engine (2x2 small): bitwise cross-check ---");
    let mut reference: Option<Vec<Vec<Complex64>>> = None;
    let mut bitwise_ok = true;
    let mut stage_cover_ok = true;
    for policy in SchedulerPolicy::ALL {
        let cfg = FftxConfig::small(2, 2, policy);
        let problem = Arc::new(Problem::new(cfg));
        let out = run_policy(&problem, policy);
        let same = match &reference {
            None => {
                reference = Some(out.bands.clone());
                true
            }
            Some(r) => *r == out.bands,
        };
        bitwise_ok &= same;

        // Per-stage duration histogram, keyed by stage-graph node id.
        let hist = StageHistogram::from_trace(&out.trace, 12);
        let spans: usize = hist.count.iter().sum();
        // Every policy executes the full band pipeline; the serial engine
        // additionally runs the Prep stage.
        let expect: Vec<u32> = StageKind::ALL
            .iter()
            .filter(|k| **k != StageKind::Prep || policy == SchedulerPolicy::Serial)
            .map(|k| k.id())
            .collect();
        let covered = expect.iter().all(|id| hist.stages.contains(id));
        stage_cover_ok &= covered;
        println!(
            "  {:<8} bands {}  stage spans {:>4} over {} node ids{}",
            policy.name(),
            if same { "match" } else { "DIVERGE" },
            spans,
            hist.stages.len(),
            if covered { "" } else { "  (MISSING STAGES)" },
        );
        h.artifact(
            &format!("schedulers_stages_{}.csv", policy.name()),
            &hist.csv(stage_name),
            CheckKind::Structure,
        );
    }
    println!();

    // --- Modeled KNL node: paper 8×8 timings per policy. ---
    println!("--- modeled KNL node (8x8 paper config) ---");
    let mut rows = String::from("config,policy,runtime_s,ideal_runtime_s,main_ipc\n");
    let mut runtime = std::collections::HashMap::new();
    for policy in SchedulerPolicy::ALL {
        let run = run_modeled(FftxConfig::paper(8, policy));
        println!(
            "  8 x 8  {:<8} runtime {:.4}s (ideal {:.4}s)  main IPC {:.3}",
            policy.name(),
            run.runtime,
            run.ideal_runtime,
            run.trace.mean_ipc(StateClass::FftXy)
        );
        rows.push_str(&format!(
            "8 x 8,{},{:.6},{:.6},{:.4}\n",
            policy.name(),
            run.runtime,
            run.ideal_runtime,
            run.trace.mean_ipc(StateClass::FftXy)
        ));
        runtime.insert(policy.name(), run.runtime);
    }
    h.artifact("schedulers.csv", &rows, CheckKind::Byte);

    let serial = runtime["serial"];
    let step = runtime["step"];
    let fft = runtime["fft"];
    let hybrid = runtime["hybrid"];

    h.metric_bool("bitwise_identical_bands", bitwise_ok)
        .metric_bool("stage_graph_fully_covered", stage_cover_ok)
        .metric_f64("serial_s", serial, 6)
        .metric_f64("step_s", step, 6)
        .metric_f64("fft_s", fft, 6)
        .metric_f64("hybrid_s", hybrid, 6)
        .metric_f64("hybrid_vs_fft_ratio", hybrid / fft, 4)
        .metric_f64("hybrid_vs_step_ratio", hybrid / step, 4)
        .metric_bool(
            "task_policies_beat_serial",
            [step, fft, hybrid].iter().all(|&t| t < serial),
        );
    h.gate(
        "all scheduler policies produce bit-identical bands (real engine)",
        "bitwise_identical_bands",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "every stage-graph node id appears in every policy's span stream",
        "stage_graph_fully_covered",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "hybrid within 2% of task-per-FFT, the paper's best strategy (CI gate)",
        "hybrid_vs_fft_ratio",
        GateOp::Le,
        1.02,
    )
    .gate(
        "hybrid at least matches the blocking step policy",
        "hybrid_vs_step_ratio",
        GateOp::Le,
        1.005,
    )
    .gate(
        "every task policy beats the original static schedule",
        "task_policies_beat_serial",
        GateOp::Eq,
        1.0,
    );
    std::process::exit(h.finish());
}
