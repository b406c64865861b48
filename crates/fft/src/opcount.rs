//! The paper's FFT cost model: floating-point operation counts for the
//! transforms in this crate, priced level by level over the radix schedule.
//!
//! The KNL simulator converts these counts into instruction streams; they
//! only need to be *consistent* across sizes (relative weights of the Z-FFT,
//! XY-FFT and point-wise phases), not cycle-exact. They are a model, not a
//! tally of the engine's work: every level is charged `r - 1` twiddle
//! multiplies per combine, leaf levels included (which multiply by none),
//! and radix 7 is charged the generic loop's `8·r²` flops although it runs
//! a closed-form butterfly of 96. The values stay fixed because every
//! modeled artifact is derived from them. `wallbench`'s `fft.*_gflops`
//! divide these counts by host wall time, so they read as model-equivalent
//! GFLOP/s, not as the flops the host retired.

use crate::planner::{is_direct_size, radix_schedule};

/// Flops of one radix-`r` butterfly (complex adds count 2, complex
/// multiplies 6).
fn butterfly_flops(r: usize) -> f64 {
    match r {
        2 => 4.0,                  // 2 complex adds
        3 => 6.0 * 2.0 + 2.0 * 2.0, // optimised 3-point kernel
        4 => 8.0 * 2.0,            // 8 complex adds
        // Generic O(r^2) kernel: r^2 complex multiply-adds. Radix 7 keeps
        // this price under its closed form (see the module doc).
        r => (r * r) as f64 * 8.0,
    }
}

/// Flops of one unnormalised 1-D FFT of length `n`.
pub fn fft_flops(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    if is_direct_size(n) {
        let mut total = 0.0;
        let mut len = n;
        for r in radix_schedule(n) {
            let m = len / r;
            // n/len instances of this level, each with m combine iterations.
            let combines = (n / len) as f64 * m as f64;
            // (r-1) twiddle multiplies (6 flops) plus the butterfly.
            total += combines * ((r - 1) as f64 * 6.0 + butterfly_flops(r));
            len = m;
        }
        total
    } else {
        // Bluestein: three inner FFTs of length m plus three point-wise
        // complex multiply passes.
        let m = (2 * n - 1).next_power_of_two();
        3.0 * fft_flops(m) + 6.0 * (2.0 * n as f64 + m as f64)
    }
}

/// Flops of `count` independent 1-D FFTs of length `n` (the Z-stick batch).
pub fn fft_z_batch_flops(n: usize, count: usize) -> f64 {
    count as f64 * fft_flops(n)
}

/// Flops of one 2-D `nx * ny` FFT (rows along x, columns along y).
pub fn fft_2d_flops(nx: usize, ny: usize) -> f64 {
    ny as f64 * fft_flops(nx) + nx as f64 * fft_flops(ny)
}

/// Flops of `planes` xy-plane transforms (the slab batch).
pub fn fft_xy_batch_flops(nx: usize, ny: usize, planes: usize) -> f64 {
    planes as f64 * fft_2d_flops(nx, ny)
}

/// Flops of a dense 3-D FFT.
pub fn fft_3d_flops(nx: usize, ny: usize, nz: usize) -> f64 {
    fft_xy_batch_flops(nx, ny, nz) + fft_z_batch_flops(nz, nx * ny)
}

/// Flops of a point-wise complex multiply over `n` points (the VOFR step:
/// psi(r) *= V(r)).
pub fn pointwise_mul_flops(n: usize) -> f64 {
    6.0 * n as f64
}

/// "Flops"-equivalent cost of moving `n` complex values through a pack /
/// unpack / scatter copy loop (2 loads + 2 stores per point, weighted as 4).
pub fn copy_flops(n: usize) -> f64 {
    4.0 * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_for_trivial_sizes() {
        assert_eq!(fft_flops(0), 0.0);
        assert_eq!(fft_flops(1), 0.0);
    }

    #[test]
    fn close_to_5nlogn_for_powers_of_two() {
        for n in [64usize, 256, 1024] {
            let ref_count = 5.0 * n as f64 * (n as f64).log2();
            let got = fft_flops(n);
            let ratio = got / ref_count;
            // Radix-4 makes us cheaper than the radix-2 textbook count, but
            // within a small constant factor.
            assert!(
                (0.5..1.5).contains(&ratio),
                "n={n}: got {got}, 5nlogn {ref_count}, ratio {ratio}"
            );
        }
    }

    #[test]
    fn monotone_along_doubling_chain() {
        // FFT cost is not monotone across arbitrary neighbouring sizes (a
        // radix-5 stage costs more per point than radix-4), but doubling a
        // size must always cost more than twice as much.
        for base in [3usize, 4, 5, 6, 15] {
            let mut n = base;
            for _ in 0..5 {
                assert!(
                    fft_flops(2 * n) > 2.0 * fft_flops(n),
                    "doubling {n} did not increase per-point cost"
                );
                n *= 2;
            }
        }
    }

    #[test]
    fn bluestein_costs_more_than_direct_neighbour() {
        assert!(fft_flops(41) > fft_flops(40));
        assert!(fft_flops(41) > fft_flops(45));
    }

    #[test]
    fn composite_counts_compose() {
        let (nx, ny, nz) = (12, 10, 8);
        assert_eq!(
            fft_3d_flops(nx, ny, nz),
            fft_xy_batch_flops(nx, ny, nz) + fft_z_batch_flops(nz, nx * ny)
        );
        assert_eq!(fft_2d_flops(4, 6), 6.0 * fft_flops(4) + 4.0 * fft_flops(6));
        assert_eq!(fft_z_batch_flops(16, 10), 10.0 * fft_flops(16));
    }

    #[test]
    fn pointwise_and_copy_scale_linearly() {
        assert_eq!(pointwise_mul_flops(10) * 2.0, pointwise_mul_flops(20));
        assert_eq!(copy_flops(10) * 3.0, copy_flops(30));
    }
}
