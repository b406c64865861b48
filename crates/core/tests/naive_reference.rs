//! An oracle for the engine's bands that shares no code with the FFT
//! kernels: every band of the 14³ problem the `clean/*/2x2` golden
//! scenarios run (n = 14 = 2·7 on every axis, so the radix-2 and radix-7
//! butterflies) is recomputed with the O(n²) `naive_dft_3d`.
//!
//! `golden_bitwise` pins the engine's bits and the serial reference
//! `apply_vloc` runs the same kernels, so neither can tell whether bits
//! are right. This test can: it is the check to run when a change to the
//! FFT's op order forces a re-bless of the golden hashes.
//!
//! # The bound
//!
//! The FFT oracle sweep (`fftx-fft`'s `proptest_fft.rs`) bounds one
//! one-dimensional transform of length n by `oracle_tol`:
//! ‖X̂ − X‖₂ ≤ ρ(n)·‖X‖₂ with ρ(n) = 2·ε·log2(2n). A pass over a whole
//! grid obeys the same bound summed over its sequences, and an
//! unnormalised DFT scales every vector by the same √n, so the relative
//! errors of successive passes add. With c the band's coefficients, V the
//! potential and N = nx·ny·nz (to first order in ε):
//!
//! 1. the inverse 3-D transform ψ = F⁻¹c has ‖ψ‖₂ = √N·‖c‖₂ and an error
//!    of at most ρ·‖ψ‖₂, where ρ = ρ(nx) + ρ(ny) + ρ(nz);
//! 2. VOFR multiplies that error by at most max|V| and rounds each
//!    product once (ε/2), so the error of Vψ is at most
//!    max|V|·(ρ + ε/2)·√N·‖c‖₂;
//! 3. the forward transform scales that error by √N and adds its own
//!    ρ·‖F(Vψ)‖₂ ≤ ρ·N·max|V|·‖c‖₂;
//! 4. the 1/N scale divides both by N. The engine applies it as two
//!    rounded factors, 1/nz and 1/(nx·ny), each multiplied with one
//!    rounding: at most 4·ε/2 = 2ε more. Picking the sphere's
//!    coefficients can only shrink the error.
//!
//! So every coefficient lies within max|V|·‖c‖₂·(2ρ + 5ε/2) of the exact
//! result. The oracle's own rounding is inside the same budget, as it is
//! in the sweep. On 14³, 2ρ + 5ε/2 is about 60·ε.

use fftx_core::{run_policy, FftxConfig, Problem, SchedulerPolicy};
use fftx_fft::{max_dist, naive_dft_3d, scale_in_place, Direction};
use fftx_pw::{apply_potential, coeffs_to_grid, grid_to_coeffs};

/// `oracle_tol`'s relative factor for one pass of length `n`.
fn rho(n: usize) -> f64 {
    2.0 * f64::EPSILON * (2.0 * n as f64).log2()
}

#[test]
fn engine_bands_match_a_naive_dft_reference() {
    let problem = Problem::new(FftxConfig::small(2, 2, SchedulerPolicy::Serial));
    let grid = problem.grid();
    let (nx, ny, nz) = (grid.nr1, grid.nr2, grid.nr3);
    assert_eq!((nx, ny, nz), (14, 14, 14), "the 14³ grid runs radix 7");
    let set = &problem.layout.set;
    let out = run_policy(&problem, SchedulerPolicy::Serial);
    assert_eq!(out.bands.len(), problem.config.nbnd);

    let v_max = problem.v.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let relative = 2.0 * (rho(nx) + rho(ny) + rho(nz)) + 2.5 * f64::EPSILON;
    let n = grid.volume() as f64;
    for (b, got) in out.bands.iter().enumerate() {
        let coeffs = problem.band(b);
        let mut psi = naive_dft_3d(
            &coeffs_to_grid(set, &grid, &coeffs),
            nx,
            ny,
            nz,
            Direction::Inverse,
        );
        apply_potential(&mut psi, &problem.v, &grid);
        let mut dense = naive_dft_3d(&psi, nx, ny, nz, Direction::Forward);
        scale_in_place(&mut dense, 1.0 / n);
        let want = grid_to_coeffs(set, &grid, &dense);

        let norm = coeffs.iter().map(|c| c.norm_sqr()).sum::<f64>().sqrt();
        let bound = v_max * norm * relative;
        let err = max_dist(got, &want);
        assert!(
            err <= bound,
            "band {b}: deviation {err:e} from the naive reference exceeds {bound:e}"
        );
    }
}
