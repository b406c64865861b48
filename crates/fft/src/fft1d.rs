//! The public one-dimensional FFT type: picks the mixed-radix engine for
//! "direct" sizes and Bluestein otherwise, and owns no mutable state so a
//! single plan can be shared by every rank/worker thread.

use crate::bluestein::BluesteinPlan;
use crate::complex::Complex64;
use crate::dft::Direction;
use crate::kernel::MixedRadixPlan;
use crate::planner::is_direct_size;

enum Kind {
    /// Length 0 or 1: nothing to do.
    Identity,
    Direct(MixedRadixPlan),
    Bluestein(Box<BluesteinPlan>),
}

/// A reusable, thread-shareable FFT plan for one length.
pub struct Fft {
    n: usize,
    kind: Kind,
}

impl Fft {
    /// Builds a plan for length `n` (any size, including 0 and 1).
    pub fn new(n: usize) -> Self {
        let kind = if n <= 1 {
            Kind::Identity
        } else if is_direct_size(n) {
            Kind::Direct(MixedRadixPlan::new(n))
        } else {
            Kind::Bluestein(Box::new(BluesteinPlan::new(n)))
        };
        Fft { n, kind }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate length-0 plan.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The mixed-radix plan behind a direct size; `None` for the identity
    /// and for Bluestein sizes.
    pub(crate) fn direct(&self) -> Option<&MixedRadixPlan> {
        match &self.kind {
            Kind::Direct(p) => Some(p),
            _ => None,
        }
    }

    /// Unnormalised in-place transform reusing a caller-provided scratch
    /// buffer (grows as needed, never shrinks).
    pub fn process_with(
        &self,
        data: &mut [Complex64],
        scratch: &mut Vec<Complex64>,
        dir: Direction,
    ) {
        assert_eq!(data.len(), self.n, "Fft: buffer length mismatch");
        match &self.kind {
            Kind::Identity => {}
            Kind::Direct(p) => p.process(data, scratch, dir),
            Kind::Bluestein(p) => p.process(data, scratch, dir),
        }
    }

    /// Unnormalised in-place transform with internal scratch allocation.
    pub fn process(&self, data: &mut [Complex64], dir: Direction) {
        let mut scratch = Vec::new();
        self.process_with(data, &mut scratch, dir);
    }

    /// Forward transform (negative exponent), unnormalised.
    pub fn forward(&self, data: &mut [Complex64]) {
        self.process(data, Direction::Forward);
    }

    /// Inverse transform (positive exponent), unnormalised.
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.process(data, Direction::Inverse);
    }
}

/// Multiplies every element by `s`; the explicit scaling pass QE applies on
/// r-space -> G-space transforms (`1/N`).
pub fn scale_in_place(data: &mut [Complex64], s: f64) {
    for v in data.iter_mut() {
        *v = v.scale(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, max_dist};
    use crate::dft::naive_dft;

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| c64((i as f64 * 0.77).sin(), (i as f64 * 0.31).cos()))
            .collect()
    }

    #[test]
    fn dispatches_all_size_classes() {
        // identity, direct, bluestein
        for n in [0, 1, 2, 30, 41, 82, 120, 128] {
            let x = ramp(n);
            let plan = Fft::new(n);
            assert_eq!(plan.len(), n);
            for dir in [Direction::Forward, Direction::Inverse] {
                let expect = naive_dft(&x, dir);
                let mut data = x.clone();
                plan.process(&mut data, dir);
                assert!(
                    max_dist(&data, &expect) < 1e-8 * (n.max(1) as f64),
                    "n={n} dir={dir:?}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_is_equivalent() {
        let n = 60;
        let x = ramp(n);
        let plan = Fft::new(n);
        let mut with_scratch = x.clone();
        let mut scratch = Vec::new();
        plan.process_with(&mut with_scratch, &mut scratch, Direction::Forward);
        // Run again with the now-dirty scratch to confirm statelessness.
        let mut second = x.clone();
        plan.process_with(&mut second, &mut scratch, Direction::Forward);
        assert!(max_dist(&with_scratch, &second) < 1e-13);
    }

    #[test]
    fn scale_in_place_works() {
        let mut v = vec![c64(2.0, -4.0); 3];
        scale_in_place(&mut v, 0.5);
        for x in v {
            assert_eq!(x, c64(1.0, -2.0));
        }
    }

    #[test]
    fn forward_inverse_convenience() {
        let n = 36;
        let x = ramp(n);
        let plan = Fft::new(n);
        let mut data = x.clone();
        plan.forward(&mut data);
        plan.inverse(&mut data);
        scale_in_place(&mut data, 1.0 / n as f64);
        assert!(max_dist(&data, &x) < 1e-10);
    }
}
