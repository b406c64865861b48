//! Simulation cell and reciprocal-space units.
//!
//! FFTXlib's benchmark input is a cubic cell given by the lattice parameter
//! `alat` (bohr) and a plane-wave kinetic-energy cutoff (Ry). Reciprocal
//! lattice vectors are measured in units of `tpiba = 2*pi/alat`, so for a
//! cubic cell the G-vectors are exactly the integer Miller triples and the
//! kinetic energy of `G = tpiba * (h,k,l)` is `tpiba^2 * (h^2+k^2+l^2)` Ry.

use std::f64::consts::PI;

/// A cubic simulation cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    alat: f64,
}

impl Cell {
    /// Cubic cell with lattice parameter `alat` in bohr.
    ///
    /// # Panics
    /// Panics unless `alat > 0`.
    pub fn cubic(alat: f64) -> Self {
        assert!(alat > 0.0 && alat.is_finite(), "Cell: alat must be positive");
        Cell { alat }
    }

    /// Lattice parameter (bohr).
    #[inline]
    pub fn alat(&self) -> f64 {
        self.alat
    }

    /// `2*pi/alat` (bohr^-1): the reciprocal-space unit length.
    #[inline]
    pub fn tpiba(&self) -> f64 {
        2.0 * PI / self.alat
    }

    /// `tpiba^2` (Ry per squared Miller index, with hbar^2/2m = 1 Ry·bohr^2).
    #[inline]
    pub(crate) fn tpiba2(&self) -> f64 {
        self.tpiba() * self.tpiba()
    }

    /// Cell volume (bohr^3).
    #[inline]
    pub fn volume(&self) -> f64 {
        self.alat.powi(3)
    }

    /// Squared cutoff in Miller-index units for a kinetic-energy cutoff
    /// `ecut` (Ry): `|m|^2 <= gcut2` selects the plane waves below `ecut`.
    #[inline]
    pub fn gcut2(&self, ecut_ry: f64) -> f64 {
        ecut_ry / self.tpiba2()
    }
}

/// The dual of the wavefunction cutoff: the density/potential grid uses
/// `ecutrho = DUAL * ecutwfc` (4 for norm-conserving setups, as in the
/// paper's benchmark).
pub const DUAL: f64 = 4.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_are_consistent() {
        let cell = Cell::cubic(20.0);
        assert!((cell.alat() - 20.0).abs() < 1e-15);
        assert!((cell.tpiba() - 2.0 * PI / 20.0).abs() < 1e-15);
        assert!((cell.tpiba2() - cell.tpiba() * cell.tpiba()).abs() < 1e-15);
        assert!((cell.volume() - 8000.0).abs() < 1e-9);
    }

    #[test]
    fn paper_parameters_give_expected_cutoffs() {
        // ecutwfc = 80 Ry, alat = 20 bohr (the benchmark of Figs. 2 and 6).
        let cell = Cell::cubic(20.0);
        let gkcut = cell.gcut2(80.0);
        // 80 / (2 pi / 20)^2 = 810.57...
        assert!((gkcut - 810.569_469).abs() < 1e-3, "gkcut = {gkcut}");
        let gcutm = cell.gcut2(DUAL * 80.0);
        assert!((gcutm / gkcut - 4.0).abs() < 1e-12);
        // Sphere radius ~28.5 Millers for waves, ~57 for density.
        assert!((gkcut.sqrt() - 28.47).abs() < 0.01);
        assert!((gcutm.sqrt() - 56.94).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "alat must be positive")]
    fn rejects_nonpositive_alat() {
        Cell::cubic(0.0);
    }
}
