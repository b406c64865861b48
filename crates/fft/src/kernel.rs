//! Mixed-radix Cooley–Tukey engine.
//!
//! The plan is a recursive decimation-in-time decomposition following the
//! radix schedule from [`crate::planner::radix_schedule`]: radix-4 stages
//! first (fused pairs of 2s), then 2 and the odd primes. Radices 2, 3, 4,
//! 5 and 7 run closed-form butterflies, like FFTW's small-N codelets; the
//! other direct primes (11 to 37) run a generic O(r²) loop over the plan's
//! roots. Twiddle factors are precomputed per recursion level for
//! both directions, so one plan serves forward and inverse transforms —
//! exactly how the FFTXlib reuses one `fft_scalar` plan for
//! `fwfft`/`invfft`.
//!
//! The recursion and its butterflies are generic over a [`Lane`] element:
//! one transform's point (`Complex64`) or the same point of four independent
//! transforms in lockstep ([`Quad`]). Each lane of a `Quad` performs the
//! scalar op sequence in the same order, and Rust never contracts a multiply
//! and an add into an FMA, so a batched transform is bitwise identical to
//! the same transforms run one at a time.

use crate::complex::{c64, Complex64};
use crate::dft::Direction;
use crate::planner::radix_schedule;
use std::f64::consts::PI;

/// Number of transforms a [`Quad`] carries.
pub(crate) const LANES: usize = 4;

/// The same point of [`LANES`] independent transforms, stored
/// structure-of-arrays: slots 0–1 hold the four real parts and slots 2–3 the
/// four imaginary parts, so every slot-wise `Complex64` op is four lane ops.
pub(crate) type Quad = [Complex64; LANES];

/// Packs one point of each of [`LANES`] transforms into a [`Quad`].
#[inline(always)]
pub(crate) fn pack([a, b, c, d]: [Complex64; LANES]) -> Quad {
    [
        c64(a.re, b.re),
        c64(c.re, d.re),
        c64(a.im, b.im),
        c64(c.im, d.im),
    ]
}

/// Inverse of [`pack`].
#[inline(always)]
pub(crate) fn unpack([r01, r23, i01, i23]: Quad) -> [Complex64; LANES] {
    [
        c64(r01.re, i01.re),
        c64(r01.im, i01.im),
        c64(r23.re, i23.re),
        c64(r23.im, i23.im),
    ]
}

/// An element the recursion runs on. Every op matches the `Complex64`
/// operator of the same name lane by lane, in the same order.
pub(crate) trait Lane: Copy {
    /// All lanes zero.
    const ZERO: Self;
    fn add(self, rhs: Self) -> Self;
    fn sub(self, rhs: Self) -> Self;
    fn scale(self, s: f64) -> Self;
    fn mul_i(self) -> Self;
    /// Multiplies every lane by the same complex factor.
    fn mul(self, w: Complex64) -> Self;
}

impl Lane for Complex64 {
    const ZERO: Self = Complex64::ZERO;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        Complex64::scale(self, s)
    }
    #[inline(always)]
    fn mul_i(self) -> Self {
        Complex64::mul_i(self)
    }
    #[inline(always)]
    fn mul(self, w: Complex64) -> Self {
        self * w
    }
}

impl Lane for Quad {
    const ZERO: Self = [Complex64::ZERO; LANES];
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        let [a, b, c, d] = self;
        let [e, f, g, h] = rhs;
        [a + e, b + f, c + g, d + h]
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        let [a, b, c, d] = self;
        let [e, f, g, h] = rhs;
        [a - e, b - f, c - g, d - h]
    }
    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        self.map(|v| v.scale(s))
    }
    #[inline(always)]
    fn mul_i(self) -> Self {
        // (re, im) -> (-im, re)
        let [r01, r23, i01, i23] = self;
        [-i01, -i23, r01, r23]
    }
    #[inline(always)]
    fn mul(self, w: Complex64) -> Self {
        // (re, im) * w = (re*w.re - im*w.im, re*w.im + im*w.re)
        let [r01, r23, i01, i23] = self;
        [
            r01.scale(w.re) - i01.scale(w.im),
            r23.scale(w.re) - i23.scale(w.im),
            r01.scale(w.im) + i01.scale(w.re),
            r23.scale(w.im) + i23.scale(w.re),
        ]
    }
}

/// One recursion level of the decomposition.
struct Stage {
    /// Transform length at this level.
    len: usize,
    /// Radix split applied at this level.
    radix: usize,
    /// `len / radix`.
    sub: usize,
    /// Forward twiddles `w(len, j*k)` for `j in 1..radix`, `k in 0..sub`,
    /// stored as `tw[(j-1)*sub + k]`.
    tw_fwd: Vec<Complex64>,
    /// Inverse twiddles (conjugates of `tw_fwd`).
    tw_inv: Vec<Complex64>,
    /// Radix-point DFT roots `w(radix, t)` for the generic O(r²) loop,
    /// forward direction. Built only for the radices that loop serves (11
    /// to 37); empty for the closed-form radices 2, 3, 4, 5 and 7.
    roots_fwd: Vec<Complex64>,
    /// Inverse roots.
    roots_inv: Vec<Complex64>,
}

/// A reusable plan for transforms of one length with only "direct" prime
/// factors (see [`crate::planner::MAX_DIRECT_PRIME`]).
pub struct MixedRadixPlan {
    n: usize,
    stages: Vec<Stage>,
    max_radix: usize,
}

impl MixedRadixPlan {
    /// Builds a plan for length `n`.
    ///
    /// # Panics
    /// Panics if `n` contains a prime factor larger than
    /// [`crate::planner::MAX_DIRECT_PRIME`]; such sizes must go through
    /// Bluestein instead.
    pub fn new(n: usize) -> Self {
        let schedule = radix_schedule(n);
        assert!(
            schedule
                .iter()
                .all(|&r| r <= crate::planner::MAX_DIRECT_PRIME || r == 4),
            "MixedRadixPlan: size {n} has a prime factor too large for direct FFT"
        );
        let mut stages = Vec::with_capacity(schedule.len());
        let mut len = n;
        for &radix in &schedule {
            let sub = len / radix;
            let mut tw_fwd = Vec::with_capacity((radix - 1) * sub);
            for j in 1..radix {
                for k in 0..sub {
                    let phase = -2.0 * PI * ((j * k) % len) as f64 / len as f64;
                    tw_fwd.push(Complex64::cis(phase));
                }
            }
            let tw_inv: Vec<_> = tw_fwd.iter().map(|w| w.conj()).collect();
            let (roots_fwd, roots_inv) = if radix > 7 {
                let rf: Vec<_> = (0..radix)
                    .map(|t| Complex64::cis(-2.0 * PI * t as f64 / radix as f64))
                    .collect();
                let ri: Vec<_> = rf.iter().map(|w| w.conj()).collect();
                (rf, ri)
            } else {
                (Vec::new(), Vec::new())
            };
            stages.push(Stage {
                len,
                radix,
                sub,
                tw_fwd,
                tw_inv,
                roots_fwd,
                roots_inv,
            });
            len = sub;
        }
        debug_assert!(len <= 1, "radix schedule did not consume all factors");
        let max_radix = schedule.iter().copied().max().unwrap_or(1);
        MixedRadixPlan {
            n,
            stages,
            max_radix,
        }
    }

    /// Largest radix of the schedule: the length of the butterfly gather
    /// buffer [`Self::run`] needs.
    #[inline]
    pub(crate) fn max_radix(&self) -> usize {
        self.max_radix
    }

    /// Executes the transform in place. `scratch` is resized to
    /// `n + max_radix` as needed (input copy plus the butterfly gather
    /// buffer); passing the same buffer across calls keeps the hot path
    /// free of heap allocation.
    pub fn process(&self, data: &mut [Complex64], scratch: &mut Vec<Complex64>, dir: Direction) {
        assert_eq!(data.len(), self.n, "MixedRadixPlan: buffer length mismatch");
        if self.n <= 1 {
            return;
        }
        let want = self.n + self.max_radix;
        if scratch.len() < want {
            scratch.resize(want, Complex64::ZERO);
        }
        self.process_in(data, scratch, dir);
    }

    /// [`Self::process`] on a scratch slice the caller carved, at least
    /// `n + max_radix` long.
    pub(crate) fn process_in(
        &self,
        data: &mut [Complex64],
        scratch: &mut [Complex64],
        dir: Direction,
    ) {
        let (src, gather) = scratch.split_at_mut(self.n);
        src.copy_from_slice(data);
        self.run(src, data, gather, dir);
    }

    /// Transforms the `n` points of `src` into `dst`, using the first
    /// `max_radix` elements of `gather` for the butterfly inputs.
    #[inline]
    pub(crate) fn run<L: Lane>(&self, src: &[L], dst: &mut [L], gather: &mut [L], dir: Direction) {
        self.recurse(0, src, 1, dst, dir, &mut gather[..self.max_radix]);
    }

    /// Recursive DIT step: reads `sub`-strided input from `src`, writes the
    /// length-`stages[idx].len` spectrum contiguously into `dst`.
    fn recurse<L: Lane>(
        &self,
        idx: usize,
        src: &[L],
        stride: usize,
        dst: &mut [L],
        dir: Direction,
        gather: &mut [L],
    ) {
        if idx == self.stages.len() {
            dst[0] = src[0];
            return;
        }
        let stage = &self.stages[idx];
        let r = stage.radix;
        let m = stage.sub;
        debug_assert_eq!(dst.len(), stage.len);
        let leaf = m == 1 && idx + 1 == self.stages.len();
        if leaf {
            // Leaf: a bare radix-r DFT of r strided points.
            for (j, g) in gather[..r].iter_mut().enumerate() {
                *g = src[j * stride];
            }
        } else {
            for j in 0..r {
                self.recurse(
                    idx + 1,
                    &src[j * stride..],
                    stride * r,
                    &mut dst[j * m..(j + 1) * m],
                    dir,
                    gather,
                );
            }
        }
        let tw = match dir {
            Direction::Forward => &stage.tw_fwd,
            Direction::Inverse => &stage.tw_inv,
        };
        let roots = match dir {
            Direction::Forward => &stage.roots_fwd,
            Direction::Inverse => &stage.roots_inv,
        };
        for k in 0..m {
            if !leaf {
                gather[0] = dst[k];
                for j in 1..r {
                    gather[j] = dst[j * m + k].mul(tw[(j - 1) * m + k]);
                }
            }
            // `gather[..r]` now holds the r inputs of the radix-r butterfly.
            match r {
                2 => {
                    let (a, b) = (gather[0], gather[1]);
                    dst[k] = a.add(b);
                    dst[m + k] = a.sub(b);
                }
                3 => {
                    butterfly3(gather, dir.sign(), &mut dst[k..], m);
                }
                4 => {
                    butterfly4(gather, dir.sign(), &mut dst[k..], m);
                }
                5 => {
                    butterfly5(gather, dir.sign(), &mut dst[k..], m);
                }
                7 => {
                    butterfly7(gather, dir.sign(), &mut dst[k..], m);
                }
                _ => {
                    // Generic O(r^2) DFT across the gathered points.
                    for q in 0..r {
                        let mut acc = L::ZERO;
                        // `t` walks (j * q) % r without a division.
                        let mut t = 0;
                        for &g in &gather[..r] {
                            acc = acc.add(g.mul(roots[t]));
                            t += q;
                            if t >= r {
                                t -= r;
                            }
                        }
                        dst[q * m + k] = acc;
                    }
                }
            }
        }
    }
}

/// Radix-3 butterfly writing outputs at `out[0]`, `out[m]`, `out[2m]`.
#[inline]
fn butterfly3<L: Lane>(v: &[L], sign: f64, out: &mut [L], m: usize) {
    const SQRT3_2: f64 = 0.866_025_403_784_438_6;
    let s = v[1].add(v[2]);
    let d = v[1].sub(v[2]);
    let t = v[0].sub(s.scale(0.5));
    // i * sign * (sqrt(3)/2) * d
    let rot = d.mul_i().scale(sign * SQRT3_2);
    out[0] = v[0].add(s);
    out[m] = t.add(rot);
    out[2 * m] = t.sub(rot);
}

/// Radix-4 butterfly writing outputs at `out[0]`, `out[m]`, `out[2m]`, `out[3m]`.
#[inline]
fn butterfly4<L: Lane>(v: &[L], sign: f64, out: &mut [L], m: usize) {
    let t0 = v[0].add(v[2]);
    let t1 = v[0].sub(v[2]);
    let t2 = v[1].add(v[3]);
    // w(4,1) = e^{sign*i*pi/2} = sign * i
    let t3 = v[1].sub(v[3]).mul_i().scale(sign);
    out[0] = t0.add(t2);
    out[m] = t1.add(t3);
    out[2 * m] = t0.sub(t2);
    out[3 * m] = t1.sub(t3);
}

/// Radix-5 butterfly writing outputs at `out[0]`, `out[m]`, …, `out[4m]`,
/// in closed form. With `t_k = v_k + v_{5-k}` and `u_k = v_k - v_{5-k}`
/// for `k = 1, 2`:
///
/// * `X_0 = v_0 + t_1 + t_2`;
/// * `X_q, X_{5-q} = (v_0 + Σ_k cos(2πqk/5)·t_k) ± i·sign·Σ_k sin(2πqk/5)·u_k`.
///
/// That is 8 real scales and 16 complex adds instead of the generic loop's
/// 25 complex multiply-adds. Every output sum starts from `v_0`, so an
/// all-`+0.0` input still maps to all-`+0.0`, which
/// `batch::cft_2xy_sticks` relies on.
///
/// Kept out of line, like [`butterfly7`], so the recursion that inlines
/// the radix-2, 3 and 4 arms stays small.
#[inline(never)]
fn butterfly5<L: Lane>(v: &[L], sign: f64, out: &mut [L], m: usize) {
    // cos and sin of 2πk/5, correctly rounded: libm's cos/sin of the
    // rounded argument are one ulp off for C2 and S2.
    const C1: f64 = 0.309_016_994_374_947_45;
    const C2: f64 = -0.809_016_994_374_947_5;
    const S1: f64 = 0.951_056_516_295_153_5;
    const S2: f64 = 0.587_785_252_292_473_1;
    let (s1, s2) = (sign * S1, sign * S2);
    let (t1, u1) = (v[1].add(v[4]), v[1].sub(v[4]));
    let (t2, u2) = (v[2].add(v[3]), v[2].sub(v[3]));
    // cos(2πj/5) = cos(2π(5-j)/5) and sin(2πj/5) = -sin(2π(5-j)/5) fold
    // every qk mod 5 onto k = 1, 2.
    let a1 = v[0].add(t1.scale(C1)).add(t2.scale(C2));
    let a2 = v[0].add(t1.scale(C2)).add(t2.scale(C1));
    let b1 = u1.scale(s1).add(u2.scale(s2)).mul_i();
    let b2 = u1.scale(s2).sub(u2.scale(s1)).mul_i();
    out[0] = v[0].add(t1).add(t2);
    out[m] = a1.add(b1);
    out[4 * m] = a1.sub(b1);
    out[2 * m] = a2.add(b2);
    out[3 * m] = a2.sub(b2);
}

/// Radix-7 butterfly writing outputs at `out[0]`, `out[m]`, …, `out[6m]`,
/// in closed form. With `t_k = v_k + v_{7-k}` and `u_k = v_k - v_{7-k}`
/// for `k = 1..=3`:
///
/// * `X_0 = v_0 + t_1 + t_2 + t_3`;
/// * `X_q, X_{7-q} = (v_0 + Σ_k cos(2πqk/7)·t_k) ± i·sign·Σ_k sin(2πqk/7)·u_k`.
///
/// That is 18 real scales and 30 complex adds instead of the generic
/// loop's 49 complex multiply-adds. Every output sum starts from `v_0`, so
/// an all-`+0.0` input still maps to all-`+0.0` (`+0 + -0 = +0`), which
/// `batch::cft_2xy_sticks` relies on.
///
/// Kept out of line. In an in-process race against the same code inlined
/// into the recursion, the out-of-line build took 0.84–0.89× the time on
/// n = 14 kernels and 0.92–0.97× on n = 60 kernels, which never call it.
#[inline(never)]
fn butterfly7<L: Lane>(v: &[L], sign: f64, out: &mut [L], m: usize) {
    // cos and sin of 2πk/7, correctly rounded: libm's cos/sin of the
    // rounded argument are one ulp off for four of the six.
    const C1: f64 = 0.623_489_801_858_733_5;
    const C2: f64 = -0.222_520_933_956_314_4;
    const C3: f64 = -0.900_968_867_902_419_1;
    const S1: f64 = 0.781_831_482_468_029_8;
    const S2: f64 = 0.974_927_912_181_823_6;
    const S3: f64 = 0.433_883_739_117_558_1;
    let (s1, s2, s3) = (sign * S1, sign * S2, sign * S3);
    let (t1, u1) = (v[1].add(v[6]), v[1].sub(v[6]));
    let (t2, u2) = (v[2].add(v[5]), v[2].sub(v[5]));
    let (t3, u3) = (v[3].add(v[4]), v[3].sub(v[4]));
    // cos(2πj/7) = cos(2π(7-j)/7) and sin(2πj/7) = -sin(2π(7-j)/7) fold
    // every qk mod 7 onto k = 1..=3.
    let a1 = v[0].add(t1.scale(C1)).add(t2.scale(C2)).add(t3.scale(C3));
    let a2 = v[0].add(t1.scale(C2)).add(t2.scale(C3)).add(t3.scale(C1));
    let a3 = v[0].add(t1.scale(C3)).add(t2.scale(C1)).add(t3.scale(C2));
    let b1 = u1.scale(s1).add(u2.scale(s2)).add(u3.scale(s3)).mul_i();
    let b2 = u1.scale(s2).sub(u2.scale(s3)).sub(u3.scale(s1)).mul_i();
    let b3 = u1.scale(s3).sub(u2.scale(s1)).add(u3.scale(s2)).mul_i();
    out[0] = v[0].add(t1).add(t2).add(t3);
    out[m] = a1.add(b1);
    out[6 * m] = a1.sub(b1);
    out[2 * m] = a2.add(b2);
    out[5 * m] = a2.sub(b2);
    out[3 * m] = a3.add(b3);
    out[4 * m] = a3.sub(b3);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, max_dist};
    use crate::dft::naive_dft;

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| c64((i as f64 * 0.37).sin(), (i as f64 * 0.21).cos()))
            .collect()
    }

    fn check_against_naive(n: usize) {
        let x = ramp(n);
        let expect_f = naive_dft(&x, Direction::Forward);
        let expect_i = naive_dft(&x, Direction::Inverse);
        let plan = MixedRadixPlan::new(n);
        let mut scratch = Vec::new();

        let mut data = x.clone();
        plan.process(&mut data, &mut scratch, Direction::Forward);
        let tol = 1e-9 * (n as f64);
        assert!(
            max_dist(&data, &expect_f) < tol,
            "forward mismatch for n={n}: {}",
            max_dist(&data, &expect_f)
        );

        let mut data = x;
        plan.process(&mut data, &mut scratch, Direction::Inverse);
        assert!(
            max_dist(&data, &expect_i) < tol,
            "inverse mismatch for n={n}"
        );
    }

    #[test]
    fn power_of_two_sizes() {
        for n in [1, 2, 4, 8, 16, 32, 64, 128] {
            check_against_naive(n);
        }
    }

    #[test]
    fn composite_good_sizes() {
        for n in [3, 5, 6, 7, 9, 10, 12, 15, 20, 24, 30, 45, 60, 90, 120] {
            check_against_naive(n);
        }
    }

    #[test]
    fn sizes_with_larger_direct_primes() {
        for n in [11, 13, 17, 22, 26, 33, 37, 74] {
            check_against_naive(n);
        }
    }

    #[test]
    fn roundtrip_recovers_input() {
        for n in [8, 12, 35, 120] {
            let x = ramp(n);
            let plan = MixedRadixPlan::new(n);
            let mut scratch = Vec::new();
            let mut data = x.clone();
            plan.process(&mut data, &mut scratch, Direction::Forward);
            plan.process(&mut data, &mut scratch, Direction::Inverse);
            for v in data.iter_mut() {
                *v /= n as f64;
            }
            assert!(max_dist(&data, &x) < 1e-10, "roundtrip failed for n={n}");
        }
    }

    #[test]
    fn linearity() {
        let n = 24;
        let a = ramp(n);
        let b: Vec<_> = ramp(n).iter().map(|v| v.mul_i()).collect();
        let plan = MixedRadixPlan::new(n);
        let mut scratch = Vec::new();
        let mut fa = a.clone();
        plan.process(&mut fa, &mut scratch, Direction::Forward);
        let mut fb = b.clone();
        plan.process(&mut fb, &mut scratch, Direction::Forward);
        let mut fab: Vec<_> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        plan.process(&mut fab, &mut scratch, Direction::Forward);
        let sum: Vec<_> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_dist(&fab, &sum) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn wrong_length_panics() {
        let plan = MixedRadixPlan::new(8);
        let mut data = vec![Complex64::ZERO; 7];
        plan.process(&mut data, &mut Vec::new(), Direction::Forward);
    }

    #[test]
    #[should_panic(expected = "prime factor too large")]
    fn rejects_big_primes() {
        MixedRadixPlan::new(41);
    }
}
