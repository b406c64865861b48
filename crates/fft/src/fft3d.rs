//! Serial dense 3-D FFT (QE's `cfft3d`), used as the single-rank reference
//! the distributed pipeline is verified against.

use crate::batch::{cft_2xy, transform};
use crate::complex::Complex64;
use crate::dft::Direction;
use crate::fft1d::Fft;

/// A plan for dense 3-D grids with layout `index = x + nx*(y + ny*z)`.
pub struct Fft3 {
    nx: usize,
    ny: usize,
    nz: usize,
    plan_x: Fft,
    plan_y: Fft,
    plan_z: Fft,
}

impl Fft3 {
    /// Builds a plan for an `nx * ny * nz` grid.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Fft3 {
            nx,
            ny,
            nz,
            plan_x: Fft::new(nx),
            plan_y: Fft::new(ny),
            plan_z: Fft::new(nz),
        }
    }

    /// Total number of grid points.
    pub fn volume(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// In-place 3-D transform. Forward (r→G) is scaled by `1/(nx*ny*nz)`
    /// following the QE convention; inverse (G→r) is unnormalised.
    pub fn process(&self, data: &mut [Complex64], dir: Direction) {
        assert_eq!(data.len(), self.volume(), "Fft3: buffer length mismatch");
        let mut scratch = Vec::new();
        // xy planes first (z-major layout makes each plane contiguous) ...
        cft_2xy(
            &self.plan_x,
            &self.plan_y,
            data,
            self.nz,
            self.nx,
            self.ny,
            dir,
            &mut scratch,
        );
        // ... then z columns, which are strided by nx*ny.
        let stride = self.nx * self.ny;
        let zscale = (dir == Direction::Forward).then(|| 1.0 / self.nz.max(1) as f64);
        let mut col = Vec::new();
        transform(
            &self.plan_z,
            data,
            stride,
            1,
            stride,
            dir,
            zscale,
            &mut scratch,
            &mut col,
        );
    }

    /// Forward (r→G) transform, scaled by `1/N`.
    pub fn forward(&self, data: &mut [Complex64]) {
        self.process(data, Direction::Forward);
    }

    /// Inverse (G→r) transform, unnormalised.
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.process(data, Direction::Inverse);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, max_dist};
    use crate::dft::naive_dft_3d;

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| c64((i as f64 * 0.17).sin(), (i as f64 * 0.23).cos()))
            .collect()
    }

    #[test]
    fn matches_naive_3d_forward() {
        let (nx, ny, nz) = (4, 3, 5);
        let x = ramp(nx * ny * nz);
        let plan = Fft3::new(nx, ny, nz);
        let mut data = x.clone();
        plan.forward(&mut data);
        let mut expect = naive_dft_3d(&x, nx, ny, nz, Direction::Forward);
        let n = (nx * ny * nz) as f64;
        for v in expect.iter_mut() {
            *v = v.scale(1.0 / n);
        }
        assert!(max_dist(&data, &expect) < 1e-10);
    }

    #[test]
    fn matches_naive_3d_inverse() {
        let (nx, ny, nz) = (3, 4, 2);
        let x = ramp(nx * ny * nz);
        let plan = Fft3::new(nx, ny, nz);
        let mut data = x.clone();
        plan.inverse(&mut data);
        let expect = naive_dft_3d(&x, nx, ny, nz, Direction::Inverse);
        assert!(max_dist(&data, &expect) < 1e-10);
    }

    #[test]
    fn qe_convention_roundtrip_is_identity() {
        // inverse(forward(x)) == x exactly because forward carries the 1/N.
        let (nx, ny, nz) = (6, 5, 4);
        let x = ramp(nx * ny * nz);
        let plan = Fft3::new(nx, ny, nz);
        let mut data = x.clone();
        plan.forward(&mut data);
        plan.inverse(&mut data);
        assert!(max_dist(&data, &x) < 1e-10);
    }

    #[test]
    fn good_grid_size_roundtrip() {
        let (nx, ny, nz) = (12, 12, 12);
        let x = ramp(nx * ny * nz);
        let plan = Fft3::new(nx, ny, nz);
        assert_eq!(plan.volume(), 1728);
        let mut data = x.clone();
        plan.inverse(&mut data);
        plan.forward(&mut data);
        assert!(max_dist(&data, &x) < 1e-10);
    }
}
