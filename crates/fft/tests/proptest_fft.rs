//! Property-based tests for the FFT engine: every size class against the
//! naive DFT oracle, plus algebraic invariants (round trip, linearity,
//! Parseval, shift theorem), and a deterministic sweep of the batched entry
//! points (`cft_1z`, `cft_2xy_buf`) over every length 1..=256: bit-equal to
//! transforming the same columns one at a time, padding untouched, and
//! within an O(ε log n) bound of the naive DFT. The stick-aware
//! `cft_2xy_sticks` is checked against `cft_2xy_buf` on every position it
//! promises, together with the zero-row property its inverse relies on.

use fftx_fft::batch::{cft_1z, cft_2xy_buf, cft_2xy_sticks};
use fftx_fft::complex::{c64, max_dist, Complex64};
use fftx_fft::dft::{naive_dft, naive_dft_3d, Direction};
use fftx_fft::fft1d::{scale_in_place, Fft};
use fftx_fft::planner::{factorize, good_fft_order, is_direct_size, is_good_size};
use proptest::prelude::*;

fn complex_vec(n: usize) -> impl Strategy<Value = Vec<Complex64>> {
    proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), n..=n)
        .prop_map(|v| v.into_iter().map(|(re, im)| c64(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_matches_naive_dft(n in 1usize..200, seed in 0u64..1000) {
        let x: Vec<Complex64> = (0..n)
            .map(|i| {
                let t = (i as u64).wrapping_mul(seed.wrapping_add(1)) as f64;
                c64((t * 0.001).sin(), (t * 0.0007).cos())
            })
            .collect();
        let plan = Fft::new(n);
        for dir in [Direction::Forward, Direction::Inverse] {
            let expect = naive_dft(&x, dir);
            let mut data = x.clone();
            plan.process(&mut data, dir);
            prop_assert!(max_dist(&data, &expect) < 1e-7 * n as f64,
                "n={n} dir={dir:?} err={}", max_dist(&data, &expect));
        }
    }

    #[test]
    fn roundtrip_identity(x in (1usize..256).prop_flat_map(complex_vec)) {
        let n = x.len();
        let plan = Fft::new(n);
        let mut data = x.clone();
        plan.forward(&mut data);
        plan.inverse(&mut data);
        scale_in_place(&mut data, 1.0 / n as f64);
        prop_assert!(max_dist(&data, &x) < 1e-8);
    }

    #[test]
    fn linearity(pair in (2usize..128).prop_flat_map(|n| (complex_vec(n), complex_vec(n))),
                 a in -2.0f64..2.0) {
        let (x, y) = pair;
        let n = x.len();
        let plan = Fft::new(n);
        let mut fx = x.clone();
        plan.forward(&mut fx);
        let mut fy = y.clone();
        plan.forward(&mut fy);
        let mut fz: Vec<Complex64> = x.iter().zip(&y).map(|(u, v)| u.scale(a) + *v).collect();
        plan.forward(&mut fz);
        let combined: Vec<Complex64> = fx.iter().zip(&fy).map(|(u, v)| u.scale(a) + *v).collect();
        prop_assert!(max_dist(&fz, &combined) < 1e-8 * n as f64);
    }

    #[test]
    fn parseval(x in (2usize..128).prop_flat_map(complex_vec)) {
        let n = x.len();
        let plan = Fft::new(n);
        let mut fx = x.clone();
        plan.forward(&mut fx);
        let e_time: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let e_freq: f64 = fx.iter().map(|v| v.norm_sqr()).sum();
        // Unnormalised forward: sum |X|^2 = n * sum |x|^2.
        prop_assert!((e_freq - n as f64 * e_time).abs() < 1e-7 * (e_freq.abs() + 1.0));
    }

    #[test]
    fn circular_shift_theorem(x in (4usize..96).prop_flat_map(complex_vec), s in 0usize..96) {
        let n = x.len();
        let s = s % n;
        let plan = Fft::new(n);
        let mut fx = x.clone();
        plan.forward(&mut fx);
        let shifted: Vec<Complex64> = (0..n).map(|i| x[(i + s) % n]).collect();
        let mut fshift = shifted;
        plan.forward(&mut fshift);
        // DFT(x[(i+s) mod n])[k] = X[k] * e^{-2 pi i (-s) k / n}^{-1} — with
        // the forward sign convention, shift by +s multiplies by e^{+2pi i s k/n}.
        for k in 0..n {
            let w = Complex64::cis(2.0 * std::f64::consts::PI * ((s * k) % n) as f64 / n as f64);
            let expect = fx[k] * w;
            prop_assert!(fshift[k].dist(expect) < 1e-7 * n as f64,
                "k={k} s={s} n={n}");
        }
    }

    #[test]
    fn factorize_is_sound(n in 2usize..100_000) {
        let f = factorize(n);
        prop_assert_eq!(f.iter().product::<usize>(), n);
        for w in f.windows(2) {
            prop_assert!(w[0] <= w[1], "factors not sorted");
        }
        for &p in &f {
            // Each reported factor is prime.
            prop_assert!((2..p).take_while(|d| d * d <= p).all(|d| p % d != 0));
        }
    }

    #[test]
    fn good_fft_order_is_minimal_good(n in 1usize..5000) {
        let g = good_fft_order(n);
        prop_assert!(g >= n);
        prop_assert!(is_good_size(g));
        for m in n..g {
            prop_assert!(!is_good_size(m), "{m} was good but skipped");
        }
    }
}

/// Every length the batched sweep covers. The Bluestein primes 41, 97 and
/// 127 are inside the range; `sweep_covers_bluestein_primes` pins that.
const SWEEP: std::ops::RangeInclusive<usize> = 1..=256;

/// Deterministic pseudo-random points in `[-1, 1)²` (xorshift64).
fn signal(len: usize, seed: u64) -> Vec<Complex64> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    (0..len).map(|_| c64(next(), next())).collect()
}

/// Transforms `count` sequences (`data[i*dist + j*stride]`) one at a time
/// with `Fft::process_with`, gathering strided ones: the width-one path.
fn per_column(
    plan: &Fft,
    data: &mut [Complex64],
    count: usize,
    dist: usize,
    stride: usize,
    dir: Direction,
) {
    let n = plan.len();
    let (mut scratch, mut col) = (Vec::new(), vec![Complex64::ZERO; n]);
    for i in 0..count {
        for (j, slot) in col.iter_mut().enumerate() {
            *slot = data[i * dist + j * stride];
        }
        plan.process_with(&mut col, &mut scratch, dir);
        for (j, &v) in col.iter().enumerate() {
            data[i * dist + j * stride] = v;
        }
    }
}

/// `v.scale(s)` over `count` sequences, the forward normalisation pass.
fn scale_columns(
    data: &mut [Complex64],
    count: usize,
    dist: usize,
    stride: usize,
    n: usize,
    s: f64,
) {
    for i in 0..count {
        for j in 0..n {
            let v = &mut data[i * dist + j * stride];
            *v = v.scale(s);
        }
    }
}

fn assert_bits_eq(got: &[Complex64], want: &[Complex64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{what}: element {i}: {g} != {w}"
        );
    }
}

/// Max-norm error allowed against the naive DFT for a transform over
/// `points` values: the O(ε log n)·‖X‖₂ bound of a Cooley–Tukey FFT (which
/// also bounds a single element). The sweep's worst case, Bluestein sizes
/// and the oracle's own rounding included, uses about a third of it at a
/// constant of 1; the constant 2 leaves a sixfold margin.
fn oracle_tol(points: usize, expect: &[Complex64]) -> f64 {
    let norm = expect.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
    2.0 * f64::EPSILON * (2.0 * points as f64).log2() * norm
}

#[test]
fn sweep_covers_bluestein_primes() {
    for p in [41, 97, 127] {
        assert!(SWEEP.contains(&p) && !is_direct_size(p), "{p}");
    }
}

#[test]
fn cft_1z_is_per_column_bitwise_and_near_the_oracle() {
    let mut scratch = Vec::new();
    for n in SWEEP {
        let plan = Fft::new(n);
        // Stick counts 1..=8 cover every residue mod 4 with and without a
        // full group; `ldz > nz` pads two sizes in three.
        let nsl = 1 + n % 8;
        let ldz = n + n % 3;
        let data = signal(nsl * ldz + 3, n as u64);
        for dir in [Direction::Inverse, Direction::Forward] {
            let what = format!("cft_1z n={n} nsl={nsl} ldz={ldz} {dir:?}");
            let mut got = data.clone();
            cft_1z(&plan, &mut got, nsl, ldz, dir, &mut scratch);

            let mut want = data.clone();
            per_column(&plan, &mut want, nsl, ldz, 1, dir);
            if dir == Direction::Forward {
                scale_columns(&mut want, nsl, ldz, 1, n, 1.0 / n as f64);
            }
            assert_bits_eq(&got, &want, &what);

            for s in 0..nsl {
                let pad = s * ldz + n..(s + 1) * ldz;
                assert_eq!(
                    &got[pad.clone()],
                    &data[pad],
                    "{what}: padding of stick {s}"
                );
            }
            assert_eq!(&got[nsl * ldz..], &data[nsl * ldz..], "{what}: tail");

            // Oracle on the first stick (lane path when nsl >= 4) and the
            // last (one-at-a-time remainder when nsl % 4 != 0).
            for s in [0, nsl - 1] {
                let stick = s * ldz..s * ldz + n;
                let mut expect = naive_dft(&data[stick.clone()], dir);
                if dir == Direction::Forward {
                    scale_in_place(&mut expect, 1.0 / n as f64);
                }
                let err = max_dist(&got[stick], &expect);
                assert!(
                    err <= oracle_tol(n, &expect),
                    "{what}: stick {s} err {err:e}"
                );
            }
        }
    }
}

#[test]
fn cft_2xy_is_per_column_bitwise_and_near_the_oracle() {
    let (mut scratch, mut col) = (Vec::new(), Vec::new());
    let nzl = 2;
    for n in SWEEP {
        let k = 1 + n % 4;
        // Each length once along x and once along y, against a partner
        // whose count covers every residue mod 4.
        for (nx, ny) in [(n, k), (k, n)] {
            let (px, py) = (Fft::new(nx), Fft::new(ny));
            let (ldx, ldy) = (nx + n % 2, ny + (n / 2) % 2);
            let plane = ldx * ldy;
            let data = signal(nzl * plane + 3, (nx * 1000 + ny) as u64);
            for dir in [Direction::Inverse, Direction::Forward] {
                let what = format!("cft_2xy {nx}x{ny} ld {ldx}x{ldy} {dir:?}");
                let mut got = data.clone();
                cft_2xy_buf(
                    &px,
                    &py,
                    &mut got,
                    nzl,
                    ldx,
                    ldy,
                    dir,
                    &mut scratch,
                    &mut col,
                );

                let mut want = data.clone();
                for z in 0..nzl {
                    let p = &mut want[z * plane..(z + 1) * plane];
                    per_column(&px, p, ny, ldx, 1, dir);
                    per_column(&py, p, nx, 1, ldx, dir);
                    if dir == Direction::Forward {
                        scale_columns(p, ny, ldx, 1, nx, 1.0 / (nx * ny) as f64);
                    }
                }
                assert_bits_eq(&got, &want, &what);

                for (i, (g, d)) in got.iter().zip(&data).enumerate() {
                    let (x, y, z) = (i % plane % ldx, i % plane / ldx, i / plane);
                    if x >= nx || y >= ny || z >= nzl {
                        assert_eq!(g, d, "{what}: padding element {i}");
                    }
                }

                // Oracle on the first plane.
                let pick = |v: &[Complex64]| -> Vec<Complex64> {
                    (0..ny)
                        .flat_map(|y| v[y * ldx..y * ldx + nx].to_vec())
                        .collect()
                };
                let mut expect = naive_dft_3d(&pick(&data), nx, ny, 1, dir);
                if dir == Direction::Forward {
                    scale_in_place(&mut expect, 1.0 / (nx * ny) as f64);
                }
                let err = max_dist(&pick(&got), &expect);
                assert!(err <= oracle_tol(nx * ny, &expect), "{what}: err {err:e}");
            }
        }
    }
}

/// The zero-row property the stick-aware inverse relies on: for every
/// direct size, an all-`+0.0` input transforms to all-`+0.0` bits, one
/// sequence at a time and four in lockstep (a zero plane with four rows,
/// then four columns, of the size).
#[test]
fn direct_sizes_map_positive_zero_to_positive_zero() {
    let is_pos_zero = |v: &Complex64| v.re.to_bits() == 0 && v.im.to_bits() == 0;
    let (mut scratch, mut col) = (Vec::new(), Vec::new());
    for n in SWEEP.filter(|&n| is_direct_size(n)) {
        let plan = Fft::new(n);
        for dir in [Direction::Inverse, Direction::Forward] {
            let mut one = vec![Complex64::ZERO; n];
            plan.process_with(&mut one, &mut scratch, dir);
            assert!(one.iter().all(is_pos_zero), "n={n} {dir:?} width 1");
            for (nx, ny) in [(n, 4), (4, n)] {
                let (px, py) = (Fft::new(nx), Fft::new(ny));
                let mut plane = vec![Complex64::ZERO; nx * ny];
                cft_2xy_buf(&px, &py, &mut plane, 1, nx, ny, dir, &mut scratch, &mut col);
                assert!(plane.iter().all(is_pos_zero), "{nx}x{ny} {dir:?} width 4");
            }
        }
    }
}

/// `k` distinct indices below `n`, sorted, drawn with `seed`.
fn selection(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let keys = signal(n, seed);
    let mut ids: Vec<usize> = (0..n).collect();
    ids.sort_by(|&a, &b| keys[a].re.total_cmp(&keys[b].re));
    ids.truncate(k);
    ids.sort_unstable();
    ids
}

/// One comparison of `cft_2xy_sticks` with `cft_2xy_buf` on `nzl` padded
/// planes of random data. Inverse: with the unselected rows zeroed, every
/// element matches. Forward: the selected columns match, and the others
/// hold the x-pass alone. Padding is untouched in both. `exact` demands
/// equal bits everywhere; without it a zero may differ in sign (a
/// Bluestein row of zeros), every other value must still match bit for
/// bit.
#[allow(clippy::too_many_arguments)]
fn check_sticks(
    nx: usize,
    ny: usize,
    ldx: usize,
    ldy: usize,
    rows: &[usize],
    cols: &[usize],
    seed: u64,
    exact: bool,
) {
    let (px, py) = (Fft::new(nx), Fft::new(ny));
    let (mut scratch, mut col) = (Vec::new(), Vec::new());
    let nzl = 2;
    let plane = ldx * ldy;
    let mut data = signal(nzl * plane, seed);
    // The scatter's invariant: rows without a stick hold `+0.0`.
    for (i, v) in data.iter_mut().enumerate() {
        let (x, y) = (i % plane % ldx, i % plane / ldx);
        if x < nx && y < ny && !rows.contains(&y) {
            *v = Complex64::ZERO;
        }
    }
    for dir in [Direction::Inverse, Direction::Forward] {
        let what = format!("{nx}x{ny} ld {ldx}x{ldy} rows {rows:?} cols {cols:?} {dir:?}");
        let mut got = data.clone();
        cft_2xy_sticks(
            &px,
            &py,
            &mut got,
            nzl,
            ldx,
            ldy,
            rows,
            cols,
            dir,
            &mut scratch,
            &mut col,
        );
        let mut whole = data.clone();
        cft_2xy_buf(
            &px,
            &py,
            &mut whole,
            nzl,
            ldx,
            ldy,
            dir,
            &mut scratch,
            &mut col,
        );
        let mut xonly = data.clone();
        for z in 0..nzl {
            per_column(&px, &mut xonly[z * plane..(z + 1) * plane], ny, ldx, 1, dir);
        }
        for (i, g) in got.iter().enumerate() {
            let (x, y) = (i % plane % ldx, i % plane / ldx);
            let want = if x >= nx || y >= ny {
                data[i]
            } else if dir == Direction::Forward && !cols.contains(&x) {
                xonly[i]
            } else {
                whole[i]
            };
            let same_bits =
                g.re.to_bits() == want.re.to_bits() && g.im.to_bits() == want.im.to_bits();
            assert!(
                same_bits || (!exact && *g == want),
                "{what}: element {i} (x {x}, y {y}): {g} != {want}"
            );
        }
    }
}

#[test]
fn cft_2xy_sticks_matches_the_whole_plane_where_it_is_read() {
    let mut seed = 1;
    for (nx, ny) in [(12usize, 10usize), (9, 16), (15, 7), (8, 8), (1, 5)] {
        for (ldx, ldy) in [(nx, ny), (nx + 3, ny + 2)] {
            // Every count 0..=7 covers each residue mod 4 with and without
            // a full lane group; the last pair is the full selection.
            for k in (0..=7).chain([usize::MAX]) {
                let (kr, kc) = (k.min(ny), k.min(nx));
                let rows = selection(ny, kr, seed);
                let cols = selection(nx, kc, seed + 1);
                check_sticks(nx, ny, ldx, ldy, &rows, &cols, seed + 2, true);
                seed += 3;
            }
        }
    }
}

#[test]
fn cft_2xy_sticks_with_a_bluestein_row_differs_at_most_in_zero_signs() {
    let (nx, ny) = (41, 6);
    assert!(!is_direct_size(nx));
    for k in [0, 1, 3, 4] {
        let rows = selection(ny, k, 7 + k as u64);
        let cols = selection(nx, 5 + k, 11 + k as u64);
        check_sticks(nx, ny, nx + 1, ny + 1, &rows, &cols, 13 + k as u64, false);
    }
}

#[test]
#[should_panic(expected = "rows must increase")]
fn cft_2xy_sticks_rejects_an_unsorted_selection() {
    let p = Fft::new(4);
    let mut data = vec![Complex64::ZERO; 16];
    cft_2xy_sticks(
        &p,
        &p,
        &mut data,
        1,
        4,
        4,
        &[2, 1],
        &[],
        Direction::Inverse,
        &mut Vec::new(),
        &mut Vec::new(),
    );
}
