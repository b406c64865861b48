//! Quickstart: apply a real-space potential to a handful of plane-wave
//! bands with the distributed FFT kernel, and check the result against the
//! serial dense-grid reference.
//!
//! Run with: `cargo run --release --example quickstart`

use fftxlib_repro::core::{run_policy, FftxConfig, Problem, SchedulerPolicy};
use fftxlib_repro::fft::max_dist;
use fftxlib_repro::pw::apply_vloc;

fn main() {
    // A laptop-scale problem: cutoff 6 Ry in an 8 bohr cell -> ~24^3 grid,
    // 2 MPI ranks x 2 FFT task groups, 4 bands.
    let config = FftxConfig::small(2, 2, SchedulerPolicy::Serial);
    let problem = Problem::new(config);
    let grid = problem.grid();
    println!("FFTXlib reproduction quickstart");
    println!("  cell:   cubic, alat = {} bohr", config.alat);
    println!("  cutoff: {} Ry -> grid {} x {} x {}", config.ecutwfc, grid.nr1, grid.nr2, grid.nr3);
    println!(
        "  sphere: {} plane waves on {} sticks",
        problem.layout.set.ngw,
        problem.layout.set.nst()
    );
    println!(
        "  layout: {} ranks = {} x {} (ranks x task groups), {} bands\n",
        config.vmpi_ranks(),
        config.nr,
        config.ntg,
        config.nbnd
    );

    // Run the distributed kernel (forward FFT -> V(r) -> backward FFT for
    // every band) on virtual MPI ranks.
    let out = run_policy(&problem, SchedulerPolicy::Serial);
    println!("FFT phase completed in {:.4}s (wall time, {} virtual ranks)", out.fft_phase_s, config.vmpi_ranks());

    // Verify against the serial reference.
    let bands_in: Vec<Vec<_>> = (0..config.nbnd).map(|b| problem.band(b)).collect();
    let expect = apply_vloc(&problem.layout.set, &grid, &problem.v, &bands_in);
    let mut worst = 0.0_f64;
    for (got, want) in out.bands.iter().zip(&expect) {
        worst = worst.max(max_dist(got, want));
    }
    println!("max deviation from the serial reference: {worst:.3e}");
    assert!(worst < 1e-9, "distributed kernel must match the reference");
    println!("OK — distributed pipeline matches the dense-grid reference.");

    // A peek at what was recorded.
    let alltoalls = out
        .trace
        .comm
        .iter()
        .filter(|r| r.op == fftxlib_repro::trace::CommOp::Alltoall)
        .count();
    println!(
        "trace: {} compute bursts, {} MPI calls ({} scatter alltoalls)",
        out.trace.compute.len(),
        out.trace.comm.len(),
        alltoalls
    );
}
