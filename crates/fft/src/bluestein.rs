//! Bluestein (chirp-z) transform for lengths with large prime factors.
//!
//! FFTXlib never produces such lengths itself (grid dimensions come from
//! `good_fft_order`), but a general-purpose FFT library must not fail on
//! them, and property tests exercise arbitrary sizes through this path.

use crate::complex::Complex64;
use crate::dft::Direction;
use crate::kernel::MixedRadixPlan;
use std::f64::consts::PI;

/// A Bluestein plan for one (arbitrary) length.
pub struct BluesteinPlan {
    n: usize,
    /// Convolution length: power of two `>= 2n - 1`.
    m: usize,
    inner: MixedRadixPlan,
    /// Forward chirp `e^{-i pi j^2 / n}` for `j in 0..n`.
    chirp: Vec<Complex64>,
    /// FFT of the (conjugate-)chirp filter, premultiplied by `1/m` so the
    /// inverse inner transform needs no extra scaling pass.
    filter_hat: Vec<Complex64>,
}

impl BluesteinPlan {
    /// Builds a plan for length `n >= 1`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "BluesteinPlan: n must be >= 1");
        let m = (2 * n - 1).next_power_of_two();
        let inner = MixedRadixPlan::new(m);
        // j^2 mod 2n keeps the phase argument bounded.
        let chirp: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(-PI * ((j * j) % (2 * n)) as f64 / n as f64))
            .collect();
        // Filter b[j] = conj(chirp[|j|]) on the cyclic index set.
        let mut filter = vec![Complex64::ZERO; m];
        filter[0] = chirp[0].conj();
        for j in 1..n {
            let v = chirp[j].conj();
            filter[j] = v;
            filter[m - j] = v;
        }
        let mut scratch = Vec::new();
        inner.process(&mut filter, &mut scratch, Direction::Forward);
        let inv_m = 1.0 / m as f64;
        for v in filter.iter_mut() {
            *v = v.scale(inv_m);
        }
        BluesteinPlan {
            n,
            m,
            inner,
            chirp,
            filter_hat: filter,
        }
    }

    /// Executes the transform in place. `scratch` grows to `2 * m` plus the
    /// inner plan's largest radix (at most 4): the zero-padded convolution
    /// buffer, then the inner FFT's own scratch. Passing the same buffer
    /// across calls keeps the transform free of heap allocation.
    pub fn process(&self, data: &mut [Complex64], scratch: &mut Vec<Complex64>, dir: Direction) {
        assert_eq!(data.len(), self.n, "BluesteinPlan: buffer length mismatch");
        match dir {
            Direction::Forward => self.forward(data, scratch),
            Direction::Inverse => {
                // X_inv(x) = conj(X_fwd(conj(x)))
                for v in data.iter_mut() {
                    *v = v.conj();
                }
                self.forward(data, scratch);
                for v in data.iter_mut() {
                    *v = v.conj();
                }
            }
        }
    }

    fn forward(&self, data: &mut [Complex64], scratch: &mut Vec<Complex64>) {
        let m = self.m;
        let want = 2 * m + self.inner.max_radix();
        if scratch.len() < want {
            scratch.resize(want, Complex64::ZERO);
        }
        let (work, inner_scratch) = scratch.split_at_mut(m);
        for (w, (&x, &c)) in work.iter_mut().zip(data.iter().zip(&self.chirp)) {
            *w = x * c;
        }
        work[self.n..].fill(Complex64::ZERO);
        self.inner
            .process_in(work, inner_scratch, Direction::Forward);
        for (w, &f) in work.iter_mut().zip(&self.filter_hat) {
            *w *= f;
        }
        self.inner
            .process_in(work, inner_scratch, Direction::Inverse);
        for (out, (&w, &c)) in data.iter_mut().zip(work.iter().zip(&self.chirp)) {
            *out = w * c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, max_dist};
    use crate::dft::naive_dft;

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| c64((i as f64 * 0.59).sin(), (i as f64 * 0.13).cos()))
            .collect()
    }

    fn check(n: usize) {
        let x = ramp(n);
        let plan = BluesteinPlan::new(n);
        let mut scratch = Vec::new();
        for dir in [Direction::Forward, Direction::Inverse] {
            let expect = naive_dft(&x, dir);
            let mut data = x.clone();
            plan.process(&mut data, &mut scratch, dir);
            let tol = 1e-8 * (n as f64).max(1.0);
            assert!(
                max_dist(&data, &expect) < tol,
                "n={n} dir={dir:?}: err {}",
                max_dist(&data, &expect)
            );
        }
    }

    #[test]
    fn prime_sizes() {
        for n in [41, 43, 53, 59, 61, 101] {
            check(n);
        }
    }

    #[test]
    fn small_and_composite_sizes() {
        // Bluestein must also be correct for sizes the direct path covers.
        for n in [1, 2, 3, 4, 8, 12, 30] {
            check(n);
        }
    }

    #[test]
    fn composite_with_large_prime() {
        check(2 * 41);
        check(3 * 43);
    }

    #[test]
    fn roundtrip() {
        let n = 47;
        let x = ramp(n);
        let plan = BluesteinPlan::new(n);
        let mut scratch = Vec::new();
        let mut data = x.clone();
        plan.process(&mut data, &mut scratch, Direction::Forward);
        plan.process(&mut data, &mut scratch, Direction::Inverse);
        for v in data.iter_mut() {
            *v /= n as f64;
        }
        assert!(max_dist(&data, &x) < 1e-9);
    }
}
