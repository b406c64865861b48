//! The planned execution engine: a per-group [`ExecPlan`] precomputing
//! every index map and dimension the kernel steps need (built once per
//! [`crate::problem::Problem`], reused by every iteration, band and
//! replay), and the reusable [`BufferArena`] the engines thread through
//! the hot loop so the steady state performs **zero heap allocations per
//! iteration** on the engine side.
//!
//! The split mirrors FFTW/FFTXlib's plan-once/execute-many contract:
//!
//! * **plan time** — wrap the z-gather/scatter tables of
//!   [`fftx_pw::TaskGroupLayout::index_maps`] (deposit/extract per member,
//!   xy-column offsets per peer group), resolve the padded-scatter chunk
//!   geometry, and intern the three 1-D FFT plans through
//!   [`fftx_fft::cached_plan`];
//! * **execute time** — every data-movement step is a flat table-driven
//!   copy between arena slices; buffers are grown once and then only
//!   rewritten.
//!
//! Scatter-chunk padding (`chunk = max_nst * max_npp` per peer, like QE's
//! `fft_scatter`) is *never read* by the unpack steps, so a reused scatter
//! buffer legitimately carries stale padding. Set `FFTX_ARENA_POISON=1` to
//! NaN-fill the scatter staging buffers before each pack: if any consumer
//! ever read a padding slot the NaNs would propagate into the bands and the
//! golden bitwise suite would fail.

use crate::config::Decomposition;
use fftx_fft::{cached_plan, Complex64, Fft};
use fftx_pw::{FftGrid, GroupIndexMaps, ProcessGrid, TaskGroupLayout};
use std::sync::Arc;
use std::sync::OnceLock;

/// True when `FFTX_ARENA_POISON=1`: poison reused scatter staging buffers
/// with NaNs to prove the padding slots are dead (read once, cached).
pub fn arena_poison() -> bool {
    static POISON: OnceLock<bool> = OnceLock::new();
    *POISON.get_or_init(|| std::env::var("FFTX_ARENA_POISON").is_ok_and(|v| v == "1"))
}

const POISON_VALUE: Complex64 = Complex64 {
    re: f64::NAN,
    im: f64::NAN,
};

/// Precomputed tables of the pencil lowering of the scatter exchange: the
/// p1 × p2 factorisation of the scatter family and the chunk staging
/// permutation that makes the two-phase (row, then column) transpose land
/// its receive buffer in slab order. `None` on a slab plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PencilTables {
    /// The p1 × p2 process grid over the scatter family.
    pub pgrid: ProcessGrid,
    /// Staging slot of the chunk destined to family-rank `gp`
    /// (`pgrid.chunk_pos(gp)`, precomputed flat).
    pub chunk_pos: Vec<usize>,
}

impl PencilTables {
    /// Tables for a scatter family of `r` ranks.
    pub fn for_family(r: usize) -> Self {
        let pgrid = ProcessGrid::factor(r);
        PencilTables {
            pgrid,
            chunk_pos: (0..r).map(|gp| pgrid.chunk_pos(gp)).collect(),
        }
    }
}

/// Everything static about one task group's pipeline, computed once:
/// dimensions, flat index maps, chunk geometry and interned FFT plans.
pub struct ExecPlan {
    /// The task group this plan serves.
    pub g: usize,
    /// Number of task groups (= scatter family size).
    pub r: usize,
    /// Members per task group (= pack family size).
    pub t: usize,
    /// Dense grid dimensions.
    pub grid: FftGrid,
    /// Sticks owned by the group (`U_g`).
    pub nst: usize,
    /// Planes owned by the group.
    pub npp: usize,
    /// First owned global plane (`plane_range(g).0`).
    pub z0: usize,
    /// Elements per xy plane (`nr1 * nr2`).
    pub plane: usize,
    /// Padded per-peer scatter chunk (`max_nst * max_npp`).
    pub chunk: usize,
    /// Plane padding stride inside a chunk.
    pub max_npp: usize,
    /// Total coefficients of the group (`ngw_group(g)`).
    pub ngw_group: usize,
    /// Plane ranges of *all* groups (the scatter peers).
    pub plane_range: Vec<(usize, usize)>,
    /// Flat gather/scatter tables (deposit/extract, xy columns).
    pub maps: GroupIndexMaps,
    /// The y-rows of an xy plane that hold a stick of any group, sorted:
    /// the only rows the inverse xy pass transforms along x (the scatter
    /// leaves every other row zero).
    pub stick_rows: Vec<usize>,
    /// The x-columns of an xy plane that hold a stick of any group,
    /// sorted: the only columns the forward xy pass transforms along y
    /// (the backward scatter reads no other).
    pub stick_cols: Vec<usize>,
    /// Interned 1-D plan along x.
    pub x: Arc<Fft>,
    /// Interned 1-D plan along y.
    pub y: Arc<Fft>,
    /// Interned 1-D plan along z.
    pub z: Arc<Fft>,
    /// Pencil-lowering tables (`None` = slab).
    pub pencil: Option<PencilTables>,
}

impl ExecPlan {
    /// Plans task group `g` of `l` under the slab decomposition.
    pub fn for_layout(l: &TaskGroupLayout, g: usize) -> Self {
        Self::for_layout_decomp(l, g, Decomposition::Slab)
    }

    /// Plans task group `g` of `l` under `decomp`: precomputes the index
    /// maps (and, for pencil, the staging permutation) and interns the FFT
    /// plans. Build once, execute many.
    pub fn for_layout_decomp(l: &TaskGroupLayout, g: usize, decomp: Decomposition) -> Self {
        let grid = l.grid;
        let maps = l.index_maps(g);
        let (stick_rows, stick_cols) = stick_lines(&maps, grid);
        ExecPlan {
            g,
            r: l.r,
            t: l.t,
            grid,
            nst: l.nst_group(g),
            npp: l.npp(g),
            z0: l.plane_range[g].0,
            plane: grid.nr1 * grid.nr2,
            chunk: l.max_nst_group() * l.max_npp(),
            max_npp: l.max_npp(),
            ngw_group: l.ngw_group(g),
            plane_range: l.plane_range.clone(),
            maps,
            stick_rows,
            stick_cols,
            x: cached_plan(grid.nr1),
            y: cached_plan(grid.nr2),
            z: cached_plan(grid.nr3),
            pencil: match decomp {
                Decomposition::Slab => None,
                Decomposition::Pencil => Some(PencilTables::for_family(l.r)),
            },
        }
    }

    /// The decomposition this plan was lowered for.
    pub fn decomp(&self) -> Decomposition {
        if self.pencil.is_some() {
            Decomposition::Pencil
        } else {
            Decomposition::Slab
        }
    }

    /// Staging slot of the chunk destined to family-rank `gp`: `gp` under
    /// slab, the pencil permutation otherwise.
    fn chunk_slot(&self, gp: usize) -> usize {
        self.pencil.as_ref().map_or(gp, |p| p.chunk_pos[gp])
    }

    /// z-stick buffer length (`nst * nr3`).
    pub fn zbuf_len(&self) -> usize {
        self.nst * self.grid.nr3
    }

    /// Plane slab length (`npp * nr1 * nr2`).
    pub fn planes_len(&self) -> usize {
        self.npp * self.plane
    }

    /// Scatter staging buffer length (`r * chunk`).
    pub fn scatter_len(&self) -> usize {
        self.r * self.chunk
    }

    /// Coefficients member `j` contributes (`ngw_rank(g*t + j)`).
    pub fn ngw_member(&self, j: usize) -> usize {
        self.maps.member_offsets[j + 1] - self.maps.member_offsets[j]
    }

    /// PsiPrep: (re)size both work buffers and zero them — exactly the
    /// state a fresh allocation would have, without the allocation.
    pub fn prep(&self, zbuf: &mut Vec<Complex64>, planes: &mut Vec<Complex64>) {
        zbuf.clear();
        zbuf.resize(self.zbuf_len(), Complex64::ZERO);
        planes.clear();
        planes.resize(self.planes_len(), Complex64::ZERO);
    }

    /// Deposits the member-major coefficient stream (the flat pack receive:
    /// member 0's share, then member 1's, …) into the z-stick buffer via
    /// the precomputed table. The buffer must be prep-zeroed.
    pub fn deposit_stream(&self, stream: &[Complex64], zbuf: &mut [Complex64]) {
        assert_eq!(stream.len(), self.ngw_group, "deposit_stream: stream length");
        assert_eq!(zbuf.len(), self.zbuf_len(), "deposit_stream: zbuf size");
        for (&ix, &v) in self.maps.deposit.iter().zip(stream) {
            zbuf[ix as usize] = v;
        }
    }

    /// Deposits one member's share into the z-stick buffer (the `j`-slice
    /// of [`ExecPlan::deposit_stream`]).
    pub fn deposit_member(&self, j: usize, share: &[Complex64], zbuf: &mut [Complex64]) {
        assert_eq!(zbuf.len(), self.zbuf_len(), "deposit_member: zbuf size");
        let table = &self.maps.deposit[self.maps.member_offsets[j]..self.maps.member_offsets[j + 1]];
        assert_eq!(share.len(), table.len(), "deposit_member: share {j} length");
        for (&ix, &v) in table.iter().zip(share) {
            zbuf[ix as usize] = v;
        }
    }

    /// Inverse of [`ExecPlan::deposit_stream`]: gathers the member-major
    /// stream out of the z-stick buffer into `out` (reusing its capacity)
    /// and the per-member counts into `counts` — together the flat unpack
    /// send list.
    pub fn extract_stream(
        &self,
        zbuf: &[Complex64],
        out: &mut Vec<Complex64>,
        counts: &mut Vec<usize>,
    ) {
        assert_eq!(zbuf.len(), self.zbuf_len(), "extract_stream: zbuf size");
        out.clear();
        out.extend(self.maps.deposit.iter().map(|&ix| zbuf[ix as usize]));
        counts.clear();
        counts.extend((0..self.t).map(|j| self.ngw_member(j)));
    }

    /// Gathers one member's share out of the z-stick buffer into `out`
    /// (reusing its capacity).
    pub fn extract_member(&self, j: usize, zbuf: &[Complex64], out: &mut Vec<Complex64>) {
        assert_eq!(zbuf.len(), self.zbuf_len(), "extract_member: zbuf size");
        let table = &self.maps.deposit[self.maps.member_offsets[j]..self.maps.member_offsets[j + 1]];
        out.clear();
        out.extend(table.iter().map(|&ix| zbuf[ix as usize]));
    }

    /// Grows a scatter staging buffer to `r * chunk` on first use (padding
    /// zeroed) and NaN-poisons it when `FFTX_ARENA_POISON=1`. Stale padding
    /// on reuse is deliberate: the unpack steps never read those slots.
    fn ensure_scatter(&self, buf: &mut Vec<Complex64>) {
        if buf.len() != self.scatter_len() {
            buf.clear();
            buf.resize(self.scatter_len(), Complex64::ZERO);
        }
        if arena_poison() {
            buf.fill(POISON_VALUE);
        }
    }

    /// Builds the padded forward-scatter send buffer in `send`: the chunk
    /// for peer `g'` holds this group's sticks restricted to `g'`'s plane
    /// range, laid out `[stick][local z]` with stride `max_npp`. Under the
    /// pencil lowering the chunk sits at the staging slot the two-phase
    /// exchange expects instead of slot `g'`.
    pub fn scatter_pack(&self, zbuf: &[Complex64], send: &mut Vec<Complex64>) {
        let nr3 = self.grid.nr3;
        assert_eq!(zbuf.len(), self.zbuf_len(), "scatter_pack: zbuf size");
        self.ensure_scatter(send);
        for gp in 0..self.r {
            let (gz0, gz1) = self.plane_range[gp];
            let base = self.chunk_slot(gp) * self.chunk;
            for s in 0..self.nst {
                let col = s * nr3;
                let dst = base + s * self.max_npp;
                send[dst..dst + (gz1 - gz0)].copy_from_slice(&zbuf[col + gz0..col + gz1]);
            }
        }
    }

    /// Deposits the forward-scatter receive buffer into the plane slab via
    /// the precomputed xy-column table: peer `g'`'s chunk carries the
    /// sticks of `U_{g'}` over this group's planes.
    pub fn scatter_unpack_to_planes(&self, recv: &[Complex64], planes: &mut [Complex64]) {
        assert_eq!(recv.len(), self.scatter_len(), "scatter_unpack: recv size");
        assert_eq!(planes.len(), self.planes_len(), "scatter_unpack: planes size");
        for gp in 0..self.r {
            let base = gp * self.chunk;
            for (si, &at) in self.maps.plane_cols[gp].iter().enumerate() {
                let at = at as usize;
                let src = base + si * self.max_npp;
                for zl in 0..self.npp {
                    planes[zl * self.plane + at] = recv[src + zl];
                }
            }
        }
    }

    /// Inverse of [`ExecPlan::scatter_unpack_to_planes`]: extracts every
    /// peer's stick columns from the plane slab into the backward-scatter
    /// send buffer.
    pub fn planes_to_scatter(&self, planes: &[Complex64], send: &mut Vec<Complex64>) {
        assert_eq!(planes.len(), self.planes_len(), "planes_to_scatter: planes size");
        self.ensure_scatter(send);
        for gp in 0..self.r {
            let base = self.chunk_slot(gp) * self.chunk;
            for (si, &at) in self.maps.plane_cols[gp].iter().enumerate() {
                let at = at as usize;
                let dst = base + si * self.max_npp;
                for zl in 0..self.npp {
                    send[dst + zl] = planes[zl * self.plane + at];
                }
            }
        }
    }

    /// The mid-exchange restage of the pencil lowering: chunk-transposes
    /// the row-phase receive buffer into column-phase send order
    /// (`mid[(rp·p2 + c)·chunk] ← recv[(c·p1 + rp)·chunk]`), so that after
    /// the column exchange every rank holds chunks in plain source order —
    /// the slab order [`ExecPlan::scatter_unpack_to_planes`] and
    /// [`ExecPlan::zbuf_from_scatter`] expect.
    ///
    /// # Panics
    /// Panics on a slab plan, or when `recv` is not `r * chunk` long.
    pub fn pencil_restage(&self, recv: &[Complex64], mid: &mut Vec<Complex64>) {
        let tables = self.pencil.as_ref().expect("pencil_restage: slab plan");
        let (p1, p2) = (tables.pgrid.p1, tables.pgrid.p2);
        assert_eq!(recv.len(), self.scatter_len(), "pencil_restage: recv size");
        self.ensure_scatter(mid);
        for rp in 0..p1 {
            for c in 0..p2 {
                let dst = (rp * p2 + c) * self.chunk;
                let src = (c * p1 + rp) * self.chunk;
                mid[dst..dst + self.chunk].copy_from_slice(&recv[src..src + self.chunk]);
            }
        }
    }

    /// Inverse of [`ExecPlan::scatter_pack`]: rebuilds the z-stick buffer
    /// from the backward-scatter receive buffer.
    pub fn zbuf_from_scatter(&self, recv: &[Complex64], zbuf: &mut [Complex64]) {
        let nr3 = self.grid.nr3;
        assert_eq!(recv.len(), self.scatter_len(), "zbuf_from_scatter: recv size");
        assert_eq!(zbuf.len(), self.zbuf_len(), "zbuf_from_scatter: zbuf size");
        for gp in 0..self.r {
            let (gz0, gz1) = self.plane_range[gp];
            let base = gp * self.chunk;
            for s in 0..self.nst {
                let col = s * nr3;
                let src = base + s * self.max_npp;
                zbuf[col + gz0..col + gz1].copy_from_slice(&recv[src..src + (gz1 - gz0)]);
            }
        }
    }
}

/// The sorted y-rows and x-columns of an xy plane that `maps.plane_cols`
/// (every group's stick positions `iy * nr1 + ix`) touches.
fn stick_lines(maps: &GroupIndexMaps, grid: FftGrid) -> (Vec<usize>, Vec<usize>) {
    let (mut row, mut col) = (vec![false; grid.nr2], vec![false; grid.nr1]);
    for &at in maps.plane_cols.iter().flatten() {
        let at = at as usize;
        row[at / grid.nr1] = true;
        col[at % grid.nr1] = true;
    }
    let held = |mask: Vec<bool>| {
        mask.iter()
            .enumerate()
            .filter_map(|(i, &h)| h.then_some(i))
            .collect()
    };
    (held(row), held(col))
}

/// The per-rank (per-worker, in task modes) buffer arena: every scratch
/// and staging buffer of the pipeline, owned in one place and reused
/// across iterations, bands and replays. All buffers start empty and are
/// grown by their first use; after that warmup the engine side of an
/// iteration performs no heap allocation (the transport's internal staging
/// copy — the stand-in for the NIC — is the one deliberate exception, see
/// DESIGN.md §12).
#[derive(Default)]
pub struct BufferArena {
    /// z-stick buffer (`nst * nr3`).
    pub zbuf: Vec<Complex64>,
    /// Plane slab (`npp * nr1 * nr2`).
    pub planes: Vec<Complex64>,
    /// FFT butterfly scratch.
    pub scratch: Vec<Complex64>,
    /// y-column gather buffer of the xy transform.
    pub col: Vec<Complex64>,
    /// Flat per-band-share staging: pack send / unpack receive
    /// (`t * ngw_rank`).
    pub sharebuf: Vec<Complex64>,
    /// Flat group-stream staging: pack receive / unpack send
    /// (`ngw_group`).
    pub groupbuf: Vec<Complex64>,
    /// Send-count scratch of the pack/unpack `alltoallv`.
    pub counts: Vec<usize>,
    /// Receive-count scratch of the pack/unpack `alltoallv`.
    pub recv_counts: Vec<usize>,
    /// Padded scatter send staging (`r * chunk`).
    pub scatter_send: Vec<Complex64>,
    /// Padded scatter receive buffer (`r * chunk`).
    pub scatter_recv: Vec<Complex64>,
    /// Mid-exchange restage buffer of the pencil lowering (`r * chunk`;
    /// stays empty under slab).
    pub pencil_mid: Vec<Complex64>,
}

impl BufferArena {
    /// An empty arena; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steps;
    use fftx_fft::c64;
    use fftx_pw::{Cell, GSphere, StickSet, DUAL};

    fn layout(r: usize, t: usize) -> TaskGroupLayout {
        let cell = Cell::cubic(7.0);
        let grid = FftGrid::from_cutoff(&cell, DUAL * 6.0);
        let sphere = GSphere::generate(&cell, 6.0, &grid);
        let set = StickSet::build(&sphere, &grid);
        TaskGroupLayout::new(grid, set, r, t)
    }

    fn marked_share(l: &TaskGroupLayout, rank: usize, band: usize) -> Vec<Complex64> {
        (0..l.ngw_rank(rank))
            .map(|n| c64(band as f64 * 1e6 + rank as f64 * 1e3 + n as f64, 1.0))
            .collect()
    }

    #[test]
    fn plan_dimensions_match_layout() {
        let l = layout(3, 2);
        for g in 0..l.r {
            let p = ExecPlan::for_layout(&l, g);
            assert_eq!(p.zbuf_len(), l.nst_group(g) * l.grid.nr3);
            assert_eq!(p.planes_len(), l.npp(g) * l.grid.nr1 * l.grid.nr2);
            assert_eq!(p.chunk, steps::scatter_chunk_len(&l));
            assert_eq!(p.ngw_group, l.ngw_group(g));
            let total: usize = (0..p.t).map(|j| p.ngw_member(j)).sum();
            assert_eq!(total, p.ngw_group);
        }
    }

    #[test]
    fn plan_deposit_extract_match_layout_walk() {
        let l = layout(2, 3);
        let g = 1;
        let plan = ExecPlan::for_layout(&l, g);
        // Reference: the layout-arithmetic deposit of steps.rs.
        let shares: Vec<Vec<Complex64>> = (0..l.t)
            .map(|j| marked_share(&l, g * l.t + j, 7))
            .collect();
        let mut want = vec![Complex64::ZERO; plan.zbuf_len()];
        for (j, s) in shares.iter().enumerate() {
            steps::deposit_member_share(&l, g, j, s, &mut want);
        }
        // Plan path: flat member-major stream through the table.
        let stream: Vec<Complex64> = shares.iter().flatten().copied().collect();
        let mut zbuf = Vec::new();
        let mut planes = Vec::new();
        plan.prep(&mut zbuf, &mut planes);
        plan.deposit_stream(&stream, &mut zbuf);
        assert_eq!(zbuf, want);
        // Extraction is the exact inverse, member by member and flat.
        let mut out = Vec::new();
        for (j, s) in shares.iter().enumerate() {
            plan.extract_member(j, &zbuf, &mut out);
            assert_eq!(&out, s, "member {j}");
        }
        let mut counts = Vec::new();
        plan.extract_stream(&zbuf, &mut out, &mut counts);
        assert_eq!(out, stream);
        let want_counts: Vec<usize> = shares.iter().map(Vec::len).collect();
        assert_eq!(counts, want_counts);
    }

    #[test]
    fn plan_scatter_matches_steps_reference() {
        let l = layout(3, 2);
        let g = 2;
        let plan = ExecPlan::for_layout(&l, g);
        let zbuf: Vec<Complex64> = (0..plan.zbuf_len())
            .map(|n| c64(n as f64, -(n as f64)))
            .collect();
        let want = steps::scatter_pack(&l, g, &zbuf);
        let mut send = Vec::new();
        plan.scatter_pack(&zbuf, &mut send);
        assert_eq!(send, want);
        // Echoed chunks rebuild the z buffer (same shape both ways).
        let mut back = vec![Complex64::ZERO; zbuf.len()];
        plan.zbuf_from_scatter(&send, &mut back);
        assert_eq!(back, zbuf);
        // Plane deposit/extract agree with the reference too.
        let mut planes = vec![Complex64::ZERO; plan.planes_len()];
        let mut want_planes = planes.clone();
        plan.scatter_unpack_to_planes(&send, &mut planes);
        steps::scatter_unpack_to_planes(&l, g, &send, &mut want_planes);
        assert_eq!(planes, want_planes);
        let want_bw = steps::planes_to_scatter_sends(&l, g, &planes);
        let mut bw = Vec::new();
        plan.planes_to_scatter(&planes, &mut bw);
        // The reference zeroes its padding each call; the plan only
        // guarantees the *read* slots. Compare those.
        for gp in 0..l.r {
            for (si, _) in l.group_sticks[gp].iter().enumerate() {
                for zl in 0..l.npp(g) {
                    let at = gp * plan.chunk + si * plan.max_npp + zl;
                    assert_eq!(bw[at], want_bw[at]);
                }
            }
        }
    }

    /// Emulates one alltoall over a `members`-sized family: every rank's
    /// block `m` of `send` lands as block `me` of member `m`'s receive.
    fn emulate_alltoall(sends: &[Vec<Complex64>], members: usize) -> Vec<Vec<Complex64>> {
        let total = sends[0].len();
        let block = total / members;
        (0..members)
            .map(|me| {
                let mut recv = vec![Complex64::ZERO; total];
                for (m, s) in sends.iter().enumerate() {
                    recv[m * block..(m + 1) * block]
                        .copy_from_slice(&s[me * block..(me + 1) * block]);
                }
                recv
            })
            .collect()
    }

    #[test]
    fn pencil_two_phase_reproduces_slab_exchange() {
        // Full-family emulation: pack every group's zbuf under both
        // lowerings, run the slab alltoall vs the row exchange + restage +
        // column exchange, and require the final receive buffers to be
        // identical in every *read* slot — the bitwise-identity argument
        // of DESIGN.md §18, checked at the table level.
        for (r, t) in [(4usize, 1usize), (6, 1), (3, 2)] {
            let l = layout(r, t);
            let slab: Vec<ExecPlan> = (0..r).map(|g| ExecPlan::for_layout(&l, g)).collect();
            let pencil: Vec<ExecPlan> = (0..r)
                .map(|g| ExecPlan::for_layout_decomp(&l, g, Decomposition::Pencil))
                .collect();
            let pgrid = pencil[0].pencil.as_ref().unwrap().pgrid;
            let (p1, p2) = (pgrid.p1, pgrid.p2);
            let zbufs: Vec<Vec<Complex64>> = (0..r)
                .map(|g| {
                    (0..slab[g].zbuf_len())
                        .map(|n| c64(g as f64 * 1e6 + n as f64, n as f64))
                        .collect()
                })
                .collect();
            // Slab: one full-family exchange.
            let mut slab_sends = Vec::new();
            for g in 0..r {
                let mut s = Vec::new();
                slab[g].scatter_pack(&zbufs[g], &mut s);
                slab_sends.push(s);
            }
            let slab_recv = emulate_alltoall(&slab_sends, r);
            // Pencil: row exchange (family index g has row g/p2, col g%p2;
            // row peers are contiguous), restage, column exchange (column
            // peers are strided by p2).
            let mut pen_sends = Vec::new();
            for g in 0..r {
                let mut s = Vec::new();
                pencil[g].scatter_pack(&zbufs[g], &mut s);
                pen_sends.push(s);
            }
            let mut pen_recv = vec![Vec::new(); r];
            for row in 0..p1 {
                let family: Vec<Vec<Complex64>> =
                    (0..p2).map(|c| pen_sends[row * p2 + c].clone()).collect();
                for (c, recv) in emulate_alltoall(&family, p2).into_iter().enumerate() {
                    pen_recv[row * p2 + c] = recv;
                }
            }
            let mut mids = Vec::new();
            for g in 0..r {
                let mut mid = Vec::new();
                pencil[g].pencil_restage(&pen_recv[g], &mut mid);
                mids.push(mid);
            }
            let mut pen_final = vec![Vec::new(); r];
            for col in 0..p2 {
                let family: Vec<Vec<Complex64>> =
                    (0..p1).map(|rp| mids[rp * p2 + col].clone()).collect();
                for (rp, recv) in emulate_alltoall(&family, p1).into_iter().enumerate() {
                    pen_final[rp * p2 + col] = recv;
                }
            }
            // Compare the read slots of every chunk (padding may differ).
            for g in 0..r {
                for gp in 0..r {
                    for s in 0..l.nst_group(gp) {
                        let npp = l.npp(g);
                        let at = gp * slab[g].chunk + s * slab[g].max_npp;
                        assert_eq!(
                            &pen_final[g][at..at + npp],
                            &slab_recv[g][at..at + npp],
                            "r={r} t={t} rank {g} chunk {gp} stick {s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn arena_reuse_is_stable_across_rounds() {
        // Re-running the same movement through a warm arena must reproduce
        // the first round bit for bit (stale padding notwithstanding).
        let l = layout(2, 2);
        let g = 0;
        let plan = ExecPlan::for_layout(&l, g);
        let shares: Vec<Vec<Complex64>> = (0..l.t)
            .map(|j| marked_share(&l, g * l.t + j, 3))
            .collect();
        let stream: Vec<Complex64> = shares.iter().flatten().copied().collect();
        let mut a = BufferArena::new();
        let mut first: Option<(Vec<Complex64>, Vec<Complex64>)> = None;
        for _ in 0..3 {
            plan.prep(&mut a.zbuf, &mut a.planes);
            plan.deposit_stream(&stream, &mut a.zbuf);
            plan.scatter_pack(&a.zbuf, &mut a.scatter_send);
            // Loopback: every peer echoes our chunk layout.
            a.scatter_recv.clear();
            a.scatter_recv.extend_from_slice(&a.scatter_send);
            plan.scatter_unpack_to_planes(&a.scatter_recv, &mut a.planes);
            plan.planes_to_scatter(&a.planes, &mut a.scatter_send);
            let mut counts = Vec::new();
            let mut out = Vec::new();
            plan.extract_stream(&a.zbuf, &mut out, &mut counts);
            match &first {
                None => first = Some((a.planes.clone(), out)),
                Some((p0, o0)) => {
                    assert_eq!(&a.planes, p0);
                    assert_eq!(&out, o0);
                }
            }
        }
    }
}
