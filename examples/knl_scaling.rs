//! A node-scale scaling study on the modeled KNL: the paper's benchmark
//! configurations (ecutwfc 80 Ry, alat 20 bohr, 128 bands) swept over rank
//! counts for the original and task-based versions — a compact version of
//! Figs. 2 and 6 runnable in seconds. For the full harness with shape
//! checks and CSV artefacts use the `fftx-bench` binaries.
//!
//! Run with: `cargo run --release --example knl_scaling`

use fftxlib_repro::core::{run_modeled, FftxConfig, SchedulerPolicy};
use fftxlib_repro::trace::StateClass;

fn main() {
    println!("Simulated KNL node: 68 cores @ 1.4 GHz, 4-way SMT");
    println!("Benchmark: ecutwfc 80 Ry, alat 20 bohr, 128 bands (grid 120^3)\n");
    println!(
        "{:<8} {:>6} {:>22} {:>22} {:>8}",
        "config", "lanes", "original runtime (s)", "ompss runtime (s)", "gain"
    );

    for nr in [1usize, 2, 4, 8, 16] {
        let orig = run_modeled(FftxConfig::paper(nr, SchedulerPolicy::Serial));
        let ompss = run_modeled(FftxConfig::paper(nr, SchedulerPolicy::TaskPerFft));
        println!(
            "{:<8} {:>6} {:>22.4} {:>22.4} {:>7.1}%",
            format!("{nr} x 8"),
            nr * 8,
            orig.runtime,
            ompss.runtime,
            (1.0 - ompss.runtime / orig.runtime) * 100.0
        );
    }

    println!("\nThe mechanism (8 x 8):");
    let orig = run_modeled(FftxConfig::paper(8, SchedulerPolicy::Serial));
    let ompss = run_modeled(FftxConfig::paper(8, SchedulerPolicy::TaskPerFft));
    println!(
        "  main-phase IPC: original {:.3}  ->  ompss {:.3}",
        orig.trace.mean_ipc(StateClass::FftXy),
        ompss.trace.mean_ipc(StateClass::FftXy)
    );
    println!(
        "  the dynamic schedule de-synchronises the compute phases, so the"
    );
    println!(
        "  high-intensity xy-FFT overlaps low-intensity phases instead of"
    );
    println!("  contending with 63 copies of itself (paper: 0.75 -> 0.85).");
}
