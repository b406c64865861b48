//! Counting-allocator proof of the zero-allocation steady state: drives
//! the planned engine's per-iteration work — deposit, z-FFT, padded
//! scatter (loopback-routed), the stick-aware xy-FFT the engine runs,
//! VOFR, and the way back — through
//! [`ExecPlan`] + [`BufferArena`] for every task group in-process, and
//! asserts that after one warmup iteration (which grows every arena
//! buffer) further iterations perform **zero** heap allocations.
//!
//! The transport's internal staging copy (the NIC stand-in inside
//! `fftx-vmpi`, DESIGN.md §12) is deliberately outside this probe: the
//! alltoall routing is done here by flat `copy_from_slice` between
//! preallocated buffers, exactly the engine-side work the zero-alloc
//! guarantee covers.
//!
//! Two geometries are probed: the small cutoff-derived grid, whose FFT
//! sizes all take the direct mixed-radix path, and the same grid with z
//! forced to the prime 41, so every z-FFT takes the Bluestein path.
//!
//! The measured counts land in `results/alloc.csv`.

use fftx_core::{BufferArena, Cell, FftGrid, FftxConfig, Problem, SchedulerPolicy, DUAL};
use fftx_fft::{cft_1z, cft_2xy_sticks, Complex64, Direction};
use fftx_pw::apply_potential_slab;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation path (alloc, alloc_zeroed, realloc); frees are
/// not counted — a steady state that allocates and frees per iteration
/// must still read as non-zero.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One full pipeline iteration over every task group, with the two
/// alltoall families routed by hand through preallocated `recvs` buffers.
fn iteration(
    problem: &Problem,
    shares: &[Vec<Vec<Complex64>>],
    arenas: &mut [BufferArena],
    recvs: &mut [Vec<Complex64>],
    outs: &mut [Vec<Vec<Complex64>>],
) {
    let r = problem.layout.r;
    let t = problem.layout.t;
    // Deposit + inverse z-FFT + forward-scatter pack.
    for g in 0..r {
        let plan = problem.exec_plan(g);
        let a = &mut arenas[g];
        plan.prep(&mut a.zbuf, &mut a.planes);
        for (j, share) in shares[g].iter().enumerate().take(t) {
            plan.deposit_member(j, share, &mut a.zbuf);
        }
        cft_1z(
            &plan.z,
            &mut a.zbuf,
            plan.nst,
            plan.grid.nr3,
            Direction::Inverse,
            &mut a.scratch,
        );
        plan.scatter_pack(&a.zbuf, &mut a.scatter_send);
    }
    route(arenas, recvs);
    // Unpack + xy-FFTs + VOFR + backward-scatter pack.
    for g in 0..r {
        let plan = problem.exec_plan(g);
        let a = &mut arenas[g];
        plan.scatter_unpack_to_planes(&recvs[g], &mut a.planes);
        cft_2xy_sticks(
            &plan.x,
            &plan.y,
            &mut a.planes,
            plan.npp,
            plan.grid.nr1,
            plan.grid.nr2,
            &plan.stick_rows,
            &plan.stick_cols,
            Direction::Inverse,
            &mut a.scratch,
            &mut a.col,
        );
        apply_potential_slab(&mut a.planes, &problem.v, &plan.grid, plan.z0, plan.npp);
        cft_2xy_sticks(
            &plan.x,
            &plan.y,
            &mut a.planes,
            plan.npp,
            plan.grid.nr1,
            plan.grid.nr2,
            &plan.stick_rows,
            &plan.stick_cols,
            Direction::Forward,
            &mut a.scratch,
            &mut a.col,
        );
        plan.planes_to_scatter(&a.planes, &mut a.scatter_send);
    }
    route(arenas, recvs);
    // Unscatter + forward z-FFT + extraction.
    for g in 0..r {
        let plan = problem.exec_plan(g);
        let a = &mut arenas[g];
        plan.zbuf_from_scatter(&recvs[g], &mut a.zbuf);
        cft_1z(
            &plan.z,
            &mut a.zbuf,
            plan.nst,
            plan.grid.nr3,
            Direction::Forward,
            &mut a.scratch,
        );
        for (j, out) in outs[g].iter_mut().enumerate().take(t) {
            plan.extract_member(j, &a.zbuf, out);
        }
    }
}

/// Loopback alltoall over the padded chunks: `recvs[g]` chunk `gp` is
/// `arenas[gp].scatter_send` chunk `g` (the chunk length is layout-global,
/// so every group's buffers agree).
fn route(arenas: &[BufferArena], recvs: &mut [Vec<Complex64>]) {
    let r = arenas.len();
    let chunk = arenas[0].scatter_send.len() / r;
    for (g, recv) in recvs.iter_mut().enumerate() {
        for (gp, src) in arenas.iter().enumerate() {
            recv[gp * chunk..(gp + 1) * chunk]
                .copy_from_slice(&src.scatter_send[g * chunk..(g + 1) * chunk]);
        }
    }
}

/// Warmup + steady-state allocation counts of one problem:
/// `(groups, members, warmup_allocs, steady_allocs)` over `ITERS` steady
/// iterations, asserting the steady state repeats the warmup's results.
fn probe(name: &str, problem: &Problem) -> (usize, usize, u64, u64) {
    let r = problem.layout.r;
    let t = problem.layout.t;
    // Band-0 share of every member rank, per group: the deposit inputs.
    let shares: Vec<Vec<Vec<Complex64>>> = (0..r)
        .map(|g| {
            (0..t)
                .map(|j| problem.initial_shares(g * t + j).remove(0))
                .collect()
        })
        .collect();
    let mut arenas: Vec<BufferArena> = (0..r).map(|_| BufferArena::new()).collect();
    let mut recvs: Vec<Vec<Complex64>> = (0..r)
        .map(|g| vec![Complex64::ZERO; problem.exec_plan(g).scatter_len()])
        .collect();
    let mut outs: Vec<Vec<Vec<Complex64>>> = (0..r).map(|_| vec![Vec::new(); t]).collect();

    // Warmup: grows every arena buffer and the extraction outputs.
    let before_warmup = allocs();
    iteration(problem, &shares, &mut arenas, &mut recvs, &mut outs);
    let warmup_allocs = allocs() - before_warmup;
    assert!(
        warmup_allocs > 0,
        "{name}: warmup must grow the arena buffers"
    );
    let warmup_out = outs.clone();

    // Steady state: stable results (checked after the measured region).
    let before = allocs();
    for _ in 0..ITERS {
        iteration(problem, &shares, &mut arenas, &mut recvs, &mut outs);
    }
    let steady_allocs = allocs() - before;
    for (g, (got, want)) in outs.iter().zip(&warmup_out).enumerate() {
        assert_eq!(
            got, want,
            "{name} group {g}: arena reuse changed the results"
        );
    }
    (r, t, warmup_allocs, steady_allocs)
}

const ITERS: u64 = 8;

#[test]
fn steady_state_engine_iteration_allocates_nothing() {
    let small = Problem::new(FftxConfig::small(2, 2, SchedulerPolicy::Serial));
    // The same cutoff-derived x/y sizes with z forced to 41 (prime, above
    // the direct-radix limit): every z-FFT runs Bluestein.
    let cfg = FftxConfig::small(2, 2, SchedulerPolicy::Serial);
    let base = FftGrid::from_cutoff(&Cell::cubic(cfg.alat), DUAL * cfg.ecutwfc);
    let prime41 = Problem::with_grid(cfg, FftGrid::raw(base.nr1, base.nr2, 41));

    let mut csv = String::from(
        "workload,groups,members,warmup_allocs,steady_iterations,steady_allocs_per_iteration\n",
    );
    let mut failures = Vec::new();
    for (name, problem) in [("small-2x2", &small), ("prime41-2x2", &prime41)] {
        let (r, t, warmup_allocs, steady_allocs) = probe(name, problem);
        if steady_allocs != 0 {
            failures.push(format!(
                "{name}: {steady_allocs} allocations over {ITERS} iterations"
            ));
        }
        let _ = writeln!(
            csv,
            "{name},{r},{t},{warmup_allocs},{ITERS},{}",
            steady_allocs / ITERS
        );
    }
    assert!(
        failures.is_empty(),
        "steady-state iterations must not touch the heap: {}",
        failures.join("; ")
    );

    // Record the measurement (after the measured regions — the CSV write
    // itself allocates freely).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/alloc.csv");
    std::fs::write(path, csv).expect("write results/alloc.csv");
}
