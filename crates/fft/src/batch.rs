//! Batched strided transforms mirroring FFTXlib's `fft_scalar` entry points.
//!
//! * [`cft_1z`] — many independent 1-D transforms along z over contiguous
//!   "sticks" (the per-rank pencil batch between `pack` and `scatter`).
//! * [`cft_2xy`] — 2-D transforms over whole xy planes (the per-rank slab
//!   batch after `scatter`).
//! * [`cft_2xy_sticks`] — the same planes, transforming only the x-rows
//!   and y-columns a stick-distributed slab needs (QE's `dofft` map).
//!
//! Scaling follows Quantum ESPRESSO's convention: the *forward* direction
//! (r-space → G-space) carries the normalisation — `1/nz` in `cft_1z` and
//! `1/(nx*ny)` in `cft_2xy`, so a full forward 3-D pass scales by `1/N` and
//! the backward pass is unnormalised.
//!
//! Every batch runs through one function, [`transform_seqs`], over a
//! selection of its sequences: direct sizes go through the mixed-radix
//! kernel four sequences at a time (see [`crate::kernel::Quad`]), bitwise
//! identical to transforming them one by one; a remainder of fewer than
//! four, and every sequence of a Bluestein size, runs one at a time through
//! [`Fft::process_with`].

use crate::complex::Complex64;
use crate::dft::Direction;
use crate::fft1d::Fft;
use crate::kernel::{pack, unpack, Lane, LANES};

/// Transforms `nsl` sticks of logical length `plan.len()` stored with leading
/// dimension `ldz` (`data[s*ldz .. s*ldz + plan.len()]` is stick `s`).
///
/// Forward transforms are scaled by `1/nz`.
///
/// # Panics
/// Panics when `ldz < plan.len()` or `data` is shorter than `nsl * ldz`.
pub fn cft_1z(
    plan: &Fft,
    data: &mut [Complex64],
    nsl: usize,
    ldz: usize,
    dir: Direction,
    scratch: &mut Vec<Complex64>,
) {
    let nz = plan.len();
    assert!(ldz >= nz, "cft_1z: ldz ({ldz}) < nz ({nz})");
    assert!(
        data.len() >= nsl * ldz,
        "cft_1z: buffer too small: {} < {}",
        data.len(),
        nsl * ldz
    );
    let scale = (dir == Direction::Forward).then(|| 1.0 / nz.max(1) as f64);
    // Sticks are contiguous, so the one-at-a-time path never gathers and the
    // empty column buffer is never grown.
    transform(
        plan,
        data,
        nsl,
        ldz,
        1,
        dir,
        scale,
        scratch,
        &mut Vec::new(),
    );
}

/// Transforms `nzl` xy planes in place. Each plane occupies `ldx * ldy`
/// elements with x fastest; rows are `plan_x.len()` long, columns
/// `plan_y.len()`.
///
/// Forward transforms are scaled by `1/(nx*ny)`.
#[allow(clippy::too_many_arguments)] // mirrors QE's cft_2xy signature
pub fn cft_2xy(
    plan_x: &Fft,
    plan_y: &Fft,
    data: &mut [Complex64],
    nzl: usize,
    ldx: usize,
    ldy: usize,
    dir: Direction,
    scratch: &mut Vec<Complex64>,
) {
    let mut col = Vec::new();
    cft_2xy_buf(plan_x, plan_y, data, nzl, ldx, ldy, dir, scratch, &mut col);
}

/// [`cft_2xy`] with a caller-owned y-column gather buffer: `col` is grown
/// to `plan_y.len()` the first time a y-column is transformed on its own
/// and reused afterwards, so a warm caller (plan + scratch + col retained
/// across iterations) performs no heap allocation per call — the
/// plan-once/execute-many contract of the execution engines' buffer arenas.
#[allow(clippy::too_many_arguments)] // mirrors QE's cft_2xy signature
pub fn cft_2xy_buf(
    plan_x: &Fft,
    plan_y: &Fft,
    data: &mut [Complex64],
    nzl: usize,
    ldx: usize,
    ldy: usize,
    dir: Direction,
    scratch: &mut Vec<Complex64>,
    col: &mut Vec<Complex64>,
) {
    let (rows, cols) = (All(plan_y.len()), All(plan_x.len()));
    xy(
        plan_x, plan_y, data, nzl, ldx, ldy, rows, cols, dir, scratch, col,
    );
}

/// [`cft_2xy_buf`] for a plane slab that holds data only on stick columns
/// — QE's `cft_2xy` with its `dofft` map. `rows` lists the y-rows and
/// `cols` the x-columns that hold a stick, each strictly increasing.
///
/// * **Inverse:** the x-pass runs only over `rows`; the y-pass runs over
///   every column. The caller guarantees every other row is `+0.0`, and a
///   direct-size FFT maps an all-`+0.0` row to all-`+0.0`, so every plane
///   is bit-identical to [`cft_2xy_buf`]'s. (A Bluestein x size may give
///   `-0.0` in a skipped row, which changes only the sign of zero outputs.)
/// * **Forward:** the x-pass runs over every row; the y-pass, which carries
///   the `1/(nx*ny)` scale, runs only over `cols`. Those columns are
///   bit-identical to [`cft_2xy_buf`]'s; the others are left
///   x-transformed and unscaled.
///
/// Both skips rest on the x-first order of [`cft_2xy_buf`]: in the inverse
/// a row without a stick is still all zero when the x-pass would reach it
/// (a y-first pass would have filled it), and in the forward the y-pass
/// comes last, so a skipped column changes no other output.
///
/// # Panics
/// Panics when `rows` or `cols` is not strictly increasing or holds an
/// index outside the plane, and on the conditions of [`cft_2xy_buf`].
#[allow(clippy::too_many_arguments)] // cft_2xy_buf's arguments plus the selection
pub fn cft_2xy_sticks(
    plan_x: &Fft,
    plan_y: &Fft,
    data: &mut [Complex64],
    nzl: usize,
    ldx: usize,
    ldy: usize,
    rows: &[usize],
    cols: &[usize],
    dir: Direction,
    scratch: &mut Vec<Complex64>,
    col: &mut Vec<Complex64>,
) {
    let (nx, ny) = (plan_x.len(), plan_y.len());
    assert!(
        is_selection(rows, ny),
        "cft_2xy_sticks: rows must increase and be < {ny}"
    );
    assert!(
        is_selection(cols, nx),
        "cft_2xy_sticks: cols must increase and be < {nx}"
    );
    match dir {
        Direction::Inverse => {
            let cols = All(nx);
            xy(
                plan_x, plan_y, data, nzl, ldx, ldy, rows, cols, dir, scratch, col,
            )
        }
        Direction::Forward => {
            let rows = All(ny);
            xy(
                plan_x, plan_y, data, nzl, ldx, ldy, rows, cols, dir, scratch, col,
            )
        }
    }
}

/// Whether `ids` is strictly increasing with every entry below `n`.
fn is_selection(ids: &[usize], n: usize) -> bool {
    ids.windows(2).all(|w| w[0] < w[1]) && ids.last().is_none_or(|&i| i < n)
}

/// The xy pass over `nzl` planes: x-transforms the `rows`, then
/// y-transforms the `cols` (scaled by `1/(nx*ny)` when forward).
#[allow(clippy::too_many_arguments)]
fn xy(
    plan_x: &Fft,
    plan_y: &Fft,
    data: &mut [Complex64],
    nzl: usize,
    ldx: usize,
    ldy: usize,
    rows: impl Seqs,
    cols: impl Seqs,
    dir: Direction,
    scratch: &mut Vec<Complex64>,
    col: &mut Vec<Complex64>,
) {
    let nx = plan_x.len();
    let ny = plan_y.len();
    assert!(ldx >= nx, "cft_2xy: ldx ({ldx}) < nx ({nx})");
    assert!(ldy >= ny, "cft_2xy: ldy ({ldy}) < ny ({ny})");
    let plane_len = ldx * ldy;
    assert!(
        data.len() >= nzl * plane_len,
        "cft_2xy: buffer too small: {} < {}",
        data.len(),
        nzl * plane_len
    );
    let scale = (dir == Direction::Forward).then(|| 1.0 / (nx.max(1) * ny.max(1)) as f64);
    for z in 0..nzl {
        let plane = &mut data[z * plane_len..(z + 1) * plane_len];
        // Rows along x are contiguous; columns along y are strided by ldx.
        transform_seqs(plan_x, plane, rows, ldx, 1, dir, None, scratch, col);
        transform_seqs(plan_y, plane, cols, 1, ldx, dir, scale, scratch, col);
    }
}

/// The sequences of a batch [`transform_seqs`] runs on: every one
/// ([`All`]) or a list of indices (`&[usize]`). Each kind compiles to its
/// own `transform_seqs`, so the whole-batch path indexes sequences exactly
/// as a plain loop would, with no per-group dispatch.
trait Seqs: Copy {
    /// Number of selected sequences.
    fn count(self) -> usize;
    /// The index of the `i`-th selected sequence.
    fn id(self, i: usize) -> usize;
}

/// Every sequence `0..count`.
#[derive(Clone, Copy)]
struct All(usize);

impl Seqs for All {
    fn count(self) -> usize {
        self.0
    }

    #[inline(always)]
    fn id(self, i: usize) -> usize {
        i
    }
}

impl Seqs for &[usize] {
    fn count(self) -> usize {
        self.len()
    }

    #[inline(always)]
    fn id(self, i: usize) -> usize {
        self[i]
    }
}

/// Transforms `count` sequences of `n = plan.len()` points in place:
/// sequence `i` is `data[i * dist + j * stride]` for `j in 0..n`. Outputs
/// are multiplied by `scale` when it is given.
///
/// The whole-batch form of [`transform_seqs`], for the callers that
/// transform every sequence (`cft_1z` and `Fft3`'s z-columns).
#[allow(clippy::too_many_arguments)]
pub(crate) fn transform(
    plan: &Fft,
    data: &mut [Complex64],
    count: usize,
    dist: usize,
    stride: usize,
    dir: Direction,
    scale: Option<f64>,
    scratch: &mut Vec<Complex64>,
    col: &mut Vec<Complex64>,
) {
    let seqs = All(count);
    transform_seqs(plan, data, seqs, dist, stride, dir, scale, scratch, col);
}

/// [`transform`] over the `seqs` selection of the batch's sequences.
///
/// A direct plan runs whole groups of [`LANES`] selected sequences in
/// lockstep: each group is packed into [`crate::kernel::Quad`]s carved from
/// `scratch` (`n` inputs, `n` outputs and the butterfly gather buffer),
/// transformed and unpacked. The remainder, and every sequence of a
/// Bluestein or identity plan, runs one at a time through
/// [`Fft::process_with`], in place when `stride == 1` and through `col`
/// otherwise.
#[allow(clippy::too_many_arguments)]
fn transform_seqs(
    plan: &Fft,
    data: &mut [Complex64],
    seqs: impl Seqs,
    dist: usize,
    stride: usize,
    dir: Direction,
    scale: Option<f64>,
    scratch: &mut Vec<Complex64>,
    col: &mut Vec<Complex64>,
) {
    let n = plan.len();
    let count = seqs.count();
    let mut done = 0;
    if let Some(p) = plan.direct().filter(|_| count >= LANES) {
        let want = LANES * (2 * n + p.max_radix());
        if scratch.len() < want {
            scratch.resize(want, Complex64::ZERO);
        }
        let (quads, _) = scratch.as_chunks_mut::<LANES>();
        let (src, rest) = quads.split_at_mut(n);
        let (dst, gather) = rest.split_at_mut(n);
        while done + LANES <= count {
            let bases = [0, 1, 2, 3].map(|l| seqs.id(done + l) * dist);
            for (j, q) in src.iter_mut().enumerate() {
                *q = pack(bases.map(|b| data[b + j * stride]));
            }
            p.run(src, dst, gather, dir);
            for (j, &q) in dst.iter().enumerate() {
                let q = scale.map_or(q, |s| q.scale(s));
                for (b, v) in bases.into_iter().zip(unpack(q)) {
                    data[b + j * stride] = v;
                }
            }
            done += LANES;
        }
    }
    for i in done..count {
        let base = seqs.id(i) * dist;
        if stride == 1 {
            let seq = &mut data[base..base + n];
            plan.process_with(seq, scratch, dir);
            if let Some(s) = scale {
                for v in seq.iter_mut() {
                    *v = v.scale(s);
                }
            }
        } else {
            if col.len() < n {
                col.resize(n, Complex64::ZERO);
            }
            let seq = &mut col[..n];
            for (j, slot) in seq.iter_mut().enumerate() {
                *slot = data[base + j * stride];
            }
            plan.process_with(seq, scratch, dir);
            for (j, &v) in seq.iter().enumerate() {
                data[base + j * stride] = scale.map_or(v, |s| v.scale(s));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, max_dist};
    use crate::dft::naive_dft;

    fn ramp(n: usize, seed: f64) -> Vec<Complex64> {
        (0..n)
            .map(|i| c64((i as f64 * seed).sin(), (i as f64 * seed * 0.5).cos()))
            .collect()
    }

    #[test]
    fn cft_1z_matches_per_stick_dft() {
        let nz = 12;
        let ldz = 16;
        let nsl = 5;
        let mut data = ramp(nsl * ldz, 0.41);
        let orig = data.clone();
        let plan = Fft::new(nz);
        let mut scratch = Vec::new();
        cft_1z(&plan, &mut data, nsl, ldz, Direction::Forward, &mut scratch);
        for s in 0..nsl {
            let expect: Vec<_> = naive_dft(&orig[s * ldz..s * ldz + nz], Direction::Forward)
                .into_iter()
                .map(|v| v / nz as f64)
                .collect();
            assert!(
                max_dist(&data[s * ldz..s * ldz + nz], &expect) < 1e-10,
                "stick {s}"
            );
            // Padding beyond nz must be untouched.
            assert_eq!(&data[s * ldz + nz..(s + 1) * ldz], &orig[s * ldz + nz..(s + 1) * ldz]);
        }
    }

    #[test]
    fn cft_1z_roundtrip() {
        let nz = 20;
        let nsl = 3;
        let mut data = ramp(nsl * nz, 0.7);
        let orig = data.clone();
        let plan = Fft::new(nz);
        let mut scratch = Vec::new();
        cft_1z(&plan, &mut data, nsl, nz, Direction::Forward, &mut scratch);
        cft_1z(&plan, &mut data, nsl, nz, Direction::Inverse, &mut scratch);
        assert!(max_dist(&data, &orig) < 1e-10);
    }

    #[test]
    fn cft_2xy_matches_naive_2d() {
        let (nx, ny) = (6, 4);
        let (ldx, ldy) = (8, 4);
        let mut data = ramp(ldx * ldy, 0.3);
        let orig = data.clone();
        let px = Fft::new(nx);
        let py = Fft::new(ny);
        let mut scratch = Vec::new();
        cft_2xy(&px, &py, &mut data, 1, ldx, ldy, Direction::Forward, &mut scratch);

        // Reference: rows then columns, scaled 1/(nx*ny).
        let mut expect = orig.clone();
        for y in 0..ny {
            let row = naive_dft(&expect[y * ldx..y * ldx + nx], Direction::Forward);
            expect[y * ldx..y * ldx + nx].copy_from_slice(&row);
        }
        for x in 0..nx {
            let col: Vec<_> = (0..ny).map(|y| expect[x + y * ldx]).collect();
            let out = naive_dft(&col, Direction::Forward);
            for (y, v) in out.into_iter().enumerate() {
                expect[x + y * ldx] = v;
            }
        }
        for y in 0..ny {
            for x in 0..nx {
                expect[x + y * ldx] /= (nx * ny) as f64;
            }
        }
        for y in 0..ny {
            assert!(
                max_dist(&data[y * ldx..y * ldx + nx], &expect[y * ldx..y * ldx + nx]) < 1e-10,
                "row {y}"
            );
        }
    }

    #[test]
    fn cft_2xy_multi_plane_roundtrip() {
        let (nx, ny, nzl) = (5, 6, 3);
        let mut data = ramp(nx * ny * nzl, 0.9);
        let orig = data.clone();
        let px = Fft::new(nx);
        let py = Fft::new(ny);
        let mut scratch = Vec::new();
        cft_2xy(&px, &py, &mut data, nzl, nx, ny, Direction::Forward, &mut scratch);
        cft_2xy(&px, &py, &mut data, nzl, nx, ny, Direction::Inverse, &mut scratch);
        assert!(max_dist(&data, &orig) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "buffer too small")]
    fn cft_1z_checks_length() {
        let plan = Fft::new(8);
        let mut data = vec![Complex64::ZERO; 15];
        cft_1z(&plan, &mut data, 2, 8, Direction::Forward, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "ldx")]
    fn cft_2xy_checks_ld() {
        let px = Fft::new(8);
        let py = Fft::new(4);
        let mut data = vec![Complex64::ZERO; 4 * 4];
        cft_2xy(&px, &py, &mut data, 1, 4, 4, Direction::Forward, &mut Vec::new());
    }
}
