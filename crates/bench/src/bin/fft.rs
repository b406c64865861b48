//! Real-engine FFT benchmark: correctness and throughput of the native
//! kernels that every modeled run ultimately prices, and two in-run races:
//!
//! * the lane-batched `cft_2xy_buf`/`cft_1z` against the per-column loop
//!   they replace, on fixed shapes of the 60³ and 14³ grids (60×60×30
//!   planes and 1200 sticks, 14×14×7 and 100) — lane tests, not rank
//!   shapes;
//! * the stick-aware `cft_2xy_sticks` against the whole-plane
//!   `cft_2xy_buf`, on the true rank shapes of the two wall-clock benchmark
//!   workloads as `Problem::new` lays them out: `dense-slab` has one task
//!   group, so a rank owns all 60 planes and 621 sticks; `sparse-async`
//!   ranks own 7 planes and 14 or 15 sticks.
//!
//! Emits `BENCH_fft.json` — the throughput numbers are wall-clock
//! (volatile, the artifact is structure-checked); the gates sit on
//! accuracy, on bitwise identity of each raced pair, on the in-run
//! lane/per-column time ratio of the 60×60×30 xy batch, and on the in-run
//! stick-aware/whole-plane time ratio of the `dense-slab` rank.

use fftx_bench::{CheckKind, GateOp, Harness};
use fftx_core::{ExecPlan, FftxConfig, Problem, SchedulerPolicy};
use fftx_fft::opcount::{fft_3d_flops, fft_flops, fft_xy_batch_flops, fft_z_batch_flops};
use fftx_fft::{
    c64, cft_1z, cft_2xy_buf, cft_2xy_sticks, max_dist, naive_dft, scale_in_place, Complex64,
    Direction, Fft, Fft3,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| c64((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect()
}

/// Best-of-3 wall seconds for `iters` repetitions of `f`.
fn time3<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

/// Best wall seconds per call of `a` and of `b`, timed in `rounds`
/// alternating rounds of `iters` calls each, so host noise falls on both.
fn race<A: FnMut(), B: FnMut()>(rounds: usize, iters: usize, mut a: A, mut b: B) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        best_a = best_a.min(time3(iters, &mut a));
        best_b = best_b.min(time3(iters, &mut b));
    }
    (best_a, best_b)
}

/// `cft_1z` one stick at a time through `Fft::process_with`: the per-column
/// loop the lane-batched kernel replaces.
fn per_column_1z(
    plan: &Fft,
    data: &mut [Complex64],
    nsl: usize,
    ldz: usize,
    dir: Direction,
    scratch: &mut Vec<Complex64>,
) {
    let nz = plan.len();
    for s in 0..nsl {
        let stick = &mut data[s * ldz..s * ldz + nz];
        plan.process_with(stick, scratch, dir);
        if dir == Direction::Forward {
            scale_in_place(stick, 1.0 / nz as f64);
        }
    }
}

/// `cft_2xy_buf` one row and one gathered column at a time, then the
/// forward scaling pass: the per-column loop the lane-batched kernel
/// replaces.
#[allow(clippy::too_many_arguments)]
fn per_column_2xy(
    px: &Fft,
    py: &Fft,
    data: &mut [Complex64],
    nzl: usize,
    ldx: usize,
    ldy: usize,
    dir: Direction,
    scratch: &mut Vec<Complex64>,
    col: &mut Vec<Complex64>,
) {
    let (nx, ny) = (px.len(), py.len());
    col.resize(ny, Complex64::ZERO);
    for plane in data.chunks_exact_mut(ldx * ldy).take(nzl) {
        for y in 0..ny {
            px.process_with(&mut plane[y * ldx..y * ldx + nx], scratch, dir);
        }
        for x in 0..nx {
            for (y, slot) in col.iter_mut().enumerate() {
                *slot = plane[x + y * ldx];
            }
            py.process_with(col, scratch, dir);
            for (y, &v) in col.iter().enumerate() {
                plane[x + y * ldx] = v;
            }
        }
        if dir == Direction::Forward {
            for y in 0..ny {
                scale_in_place(&mut plane[y * ldx..y * ldx + nx], 1.0 / (nx * ny) as f64);
            }
        }
    }
}

fn same_bits(a: &[Complex64], b: &[Complex64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// One batched kernel raced against its per-column loop on one shape.
struct Race {
    /// `cft_2xy` or `cft_1z`.
    transform: &'static str,
    /// Shape label, e.g. `60x60x30` or `60x1200`.
    shape: String,
    /// Flops of one call, from `fftx_fft::opcount`.
    flops: f64,
    /// Best seconds per call, lane-batched.
    lanes_s: f64,
    /// Best seconds per call, per column.
    per_column_s: f64,
    /// Both directions gave bit-identical output on both paths.
    bitwise: bool,
}

impl Race {
    fn ratio(&self) -> f64 {
        self.lanes_s / self.per_column_s
    }
}

/// Checks the batched `run` against the per-column `reference` in both
/// directions, then races them on inverse+forward pairs (which keep the
/// data bounded: the forward pass carries the 1/N scaling).
fn race_kernel<R, P>(
    transform: &'static str,
    shape: String,
    flops: f64,
    len: usize,
    iters: usize,
    mut run: R,
    mut reference: P,
) -> Race
where
    R: FnMut(&mut [Complex64], Direction),
    P: FnMut(&mut [Complex64], Direction),
{
    let input = signal(len);
    let mut bitwise = true;
    for dir in [Direction::Inverse, Direction::Forward] {
        let (mut a, mut b) = (input.clone(), input.clone());
        run(&mut a, dir);
        reference(&mut b, dir);
        bitwise &= same_bits(&a, &b);
    }
    let (mut a, mut b) = (input.clone(), input);
    let (lanes_pair, per_column_pair) = race(
        5,
        iters,
        || {
            run(black_box(&mut a), Direction::Inverse);
            run(black_box(&mut a), Direction::Forward);
        },
        || {
            reference(black_box(&mut b), Direction::Inverse);
            reference(black_box(&mut b), Direction::Forward);
        },
    );
    Race {
        transform,
        shape,
        flops,
        lanes_s: lanes_pair / 2.0,
        per_column_s: per_column_pair / 2.0,
        bitwise,
    }
}

/// Task group 0's plan of each wall-clock benchmark workload, built the
/// way `wallbench`'s `KernelSpec::config` builds it (the seed fixes only
/// the data, never the geometry): `dense-slab` is the 60³ grid under the
/// serial policy at 1×2, `sparse-async` the 14³ serving class under
/// split-phase tasks at 2×1.
fn wallbench_plans() -> [(&'static str, Arc<ExecPlan>); 2] {
    let dense = FftxConfig {
        ecutwfc: 40.0,
        alat: 14.0,
        nbnd: 2,
        ..FftxConfig::small(1, 2, SchedulerPolicy::Serial)
    };
    let sparse = FftxConfig {
        ecutwfc: 6.0,
        alat: 8.0,
        nbnd: 32,
        ..FftxConfig::small(2, 1, SchedulerPolicy::TaskAsync)
    };
    [("dense-slab", dense), ("sparse-async", sparse)]
        .map(|(name, cfg)| (name, Arc::clone(Problem::new(cfg).exec_plan(0))))
}

/// `cft_2xy_sticks` raced against `cft_2xy_buf` on one rank's planes.
struct SticksRace {
    workload: &'static str,
    plan: Arc<ExecPlan>,
    /// Flops of one call (mean of the two directions) actually done:
    /// rows·fft(nx) + columns·fft(ny) per plane.
    sticks_flops: f64,
    whole_flops: f64,
    /// Best seconds per call.
    sticks_s: f64,
    whole_s: f64,
    /// Bit-identical on every position the pipeline reads: the whole plane
    /// after the inverse, the stick columns after the forward.
    bitwise: bool,
}

impl SticksRace {
    fn ratio(&self) -> f64 {
        self.sticks_s / self.whole_s
    }

    fn key(&self) -> String {
        self.workload.replace('-', "_")
    }
}

/// Checks and races the two xy entry points on `plan`'s planes, starting
/// every call pair from what the scatter writes: values on the stick
/// positions of every plane, zero elsewhere.
fn race_sticks(workload: &'static str, plan: Arc<ExecPlan>, iters: usize) -> SticksRace {
    let (nx, ny, npp) = (plan.grid.nr1, plan.grid.nr2, plan.npp);
    let values = signal(plan.planes_len());
    let mut input = vec![Complex64::ZERO; plan.planes_len()];
    for z in 0..npp {
        for &at in plan.maps.plane_cols.iter().flatten() {
            let i = z * plan.plane + at as usize;
            input[i] = values[i];
        }
    }
    let (rows, cols) = (&plan.stick_rows, &plan.stick_cols);
    let (mut s1, mut c1, mut s2, mut c2) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut sticks = |d: &mut [Complex64], dir| {
        cft_2xy_sticks(
            &plan.x, &plan.y, d, npp, nx, ny, rows, cols, dir, &mut s1, &mut c1,
        )
    };
    let mut whole = |d: &mut [Complex64], dir| {
        cft_2xy_buf(&plan.x, &plan.y, d, npp, nx, ny, dir, &mut s2, &mut c2)
    };

    let (mut a, mut b) = (input.clone(), input.clone());
    sticks(&mut a, Direction::Inverse);
    whole(&mut b, Direction::Inverse);
    let mut bitwise = same_bits(&a, &b);
    sticks(&mut a, Direction::Forward);
    whole(&mut b, Direction::Forward);
    bitwise &= (0..a.len())
        .filter(|i| cols.contains(&(i % nx)))
        .all(|i| same_bits(&a[i..=i], &b[i..=i]));

    // Many short alternating rounds: the gate sits on this ratio, and host
    // bursts last longer than a few rounds.
    let (sticks_pair, whole_pair) = race(
        31,
        iters,
        || {
            a.copy_from_slice(&input);
            sticks(black_box(&mut a), Direction::Inverse);
            sticks(black_box(&mut a), Direction::Forward);
        },
        || {
            b.copy_from_slice(&input);
            whole(black_box(&mut b), Direction::Inverse);
            whole(black_box(&mut b), Direction::Forward);
        },
    );
    let flops = |nrows: usize, ncols: usize| {
        npp as f64 * (nrows as f64 * fft_flops(nx) + ncols as f64 * fft_flops(ny))
    };
    SticksRace {
        workload,
        sticks_flops: (flops(rows.len(), nx) + flops(ny, cols.len())) / 2.0,
        whole_flops: flops(ny, nx),
        sticks_s: sticks_pair / 2.0,
        whole_s: whole_pair / 2.0,
        bitwise,
        plan,
    }
}

fn main() {
    println!("=== Real FFT engine: correctness and throughput ===\n");
    let mut h = Harness::new_volatile("fft");
    let mut rows = String::from("transform,shape,seconds,mflops\n");

    // --- Correctness: every fast path vs the O(n^2) oracle. Sizes cover
    // the radix kernels (4, 2, 3 and the generic 5; 14 is a radix-7 leaf,
    // 98 = 2·7·7 a twiddled radix-7 level above one), the mixed-radix path
    // and Bluestein (prime 127).
    let mut max_err = 0.0f64;
    for &n in &[8usize, 14, 60, 90, 98, 125, 127, 128, 243] {
        let x = signal(n);
        let want = naive_dft(&x, Direction::Forward);
        let mut got = x.clone();
        Fft::new(n).forward(&mut got);
        max_err = max_err.max(max_dist(&got, &want) / n as f64);
    }
    println!("1-D forward vs naive DFT: max normalized error {max_err:.3e}");

    // Round trip: forward then inverse then 1/n scaling must reproduce the
    // input to machine precision.
    let mut rt_err = 0.0f64;
    for &n in &[90usize, 128, 127] {
        let x = signal(n);
        let mut buf = x.clone();
        let plan = Fft::new(n);
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        scale_in_place(&mut buf, 1.0 / n as f64);
        rt_err = rt_err.max(max_dist(&buf, &x));
    }
    println!("1-D round trip: max error {rt_err:.3e}");

    // 3-D round trip on the paper-like grid shape. `Fft3::forward` is
    // already 1/N-scaled (QE convention) and `inverse` unnormalised, so
    // forward→inverse is the identity with no extra scaling.
    let (nx, ny, nz) = (30usize, 30, 32);
    let plan3 = Fft3::new(nx, ny, nz);
    let vol = plan3.volume();
    let x3 = signal(vol);
    let mut buf3 = x3.clone();
    plan3.forward(&mut buf3);
    plan3.inverse(&mut buf3);
    let rt3_err = max_dist(&buf3, &x3);
    println!("3-D ({nx}x{ny}x{nz}) round trip: max error {rt3_err:.3e}\n");

    // --- Throughput: wall-clock, volatile. MFLOP/s from the shared op
    // model so the number is comparable across runs and hosts.
    let mut peak_1d = 0.0f64;
    for &n in &[128usize, 512, 2048] {
        let plan = Fft::new(n);
        let mut buf = signal(n);
        let s = time3(((1usize << 18) / n).max(64), || plan.forward(&mut buf));
        let mflops = fft_flops(n) / s / 1e6;
        peak_1d = peak_1d.max(mflops);
        println!("1-D n={n:<5} {s:.3e}s/transform  {mflops:8.1} MFLOP/s");
        rows.push_str(&format!("fft1d,{n},{s:.6e},{mflops:.1}\n"));
    }
    let mut buf3 = signal(vol);
    let s3 = time3(8, || plan3.forward(&mut buf3));
    let mflops3 = fft_3d_flops(nx, ny, nz) / s3 / 1e6;
    println!("3-D {nx}x{ny}x{nz}  {s3:.3e}s/transform  {mflops3:8.1} MFLOP/s");
    rows.push_str(&format!("fft3d,{nx}x{ny}x{nz},{s3:.6e},{mflops3:.1}\n"));

    // --- Lane-batched kernels against the per-column loop, in the same
    // run, on fixed shapes of the 60³ and 14³ grids. These test the lanes,
    // not the benchmark's rank shapes, which the stick race below uses.
    let mut races = Vec::new();
    for &(n, planes, sticks, iters) in &[(60usize, 30usize, 1200usize, 2usize), (14, 7, 100, 200)] {
        let plan = Fft::new(n);
        let (mut s1, mut c1, mut s2, mut c2) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        races.push(race_kernel(
            "cft_2xy",
            format!("{n}x{n}x{planes}"),
            fft_xy_batch_flops(n, n, planes),
            n * n * planes,
            iters,
            |d, dir| cft_2xy_buf(&plan, &plan, d, planes, n, n, dir, &mut s1, &mut c1),
            |d, dir| per_column_2xy(&plan, &plan, d, planes, n, n, dir, &mut s2, &mut c2),
        ));
        let (mut s1, mut s2) = (Vec::new(), Vec::new());
        races.push(race_kernel(
            "cft_1z",
            format!("{n}x{sticks}"),
            fft_z_batch_flops(n, sticks),
            n * sticks,
            iters,
            |d, dir| cft_1z(&plan, d, sticks, n, dir, &mut s1),
            |d, dir| per_column_1z(&plan, d, sticks, n, dir, &mut s2),
        ));
    }
    println!();
    for r in &races {
        let (lanes, per_column) = (r.flops / r.lanes_s / 1e6, r.flops / r.per_column_s / 1e6);
        println!(
            "{:<8} {:<9} lanes {:.3e}s {lanes:8.1} MFLOP/s | per-column {:.3e}s {per_column:8.1} MFLOP/s | ratio {:.3} | bitwise {}",
            r.transform,
            r.shape,
            r.lanes_s,
            r.per_column_s,
            r.ratio(),
            r.bitwise
        );
        rows.push_str(&format!(
            "{}_lanes,{},{:.6e},{lanes:.1}\n",
            r.transform, r.shape, r.lanes_s
        ));
        rows.push_str(&format!(
            "{}_per_column,{},{:.6e},{per_column:.1}\n",
            r.transform, r.shape, r.per_column_s
        ));
    }

    // --- The stick-aware xy pass against the whole plane, on the rank
    // shapes of the wall-clock benchmark.
    let sticks: Vec<SticksRace> = wallbench_plans()
        .into_iter()
        .zip([1usize, 50])
        .map(|((workload, plan), iters)| race_sticks(workload, plan, iters))
        .collect();
    println!();
    for r in &sticks {
        let p = &r.plan;
        let (mf_sticks, mf_whole) = (
            r.sticks_flops / r.sticks_s / 1e6,
            r.whole_flops / r.whole_s / 1e6,
        );
        println!(
            "{:<12} {} planes, {} sticks, rows {}/{} cols {}/{}: sticks {:.3e}s {mf_sticks:8.1} MFLOP/s | whole {:.3e}s {mf_whole:8.1} MFLOP/s | ratio {:.3} | bitwise {}",
            r.workload,
            p.npp,
            p.nst,
            p.stick_rows.len(),
            p.grid.nr2,
            p.stick_cols.len(),
            p.grid.nr1,
            r.sticks_s,
            r.whole_s,
            r.ratio(),
            r.bitwise
        );
        let shape = format!("{}:{}x{}x{}", r.workload, p.grid.nr1, p.grid.nr2, p.npp);
        rows.push_str(&format!(
            "cft_2xy_sticks,{shape},{:.6e},{mf_sticks:.1}\n",
            r.sticks_s
        ));
        rows.push_str(&format!(
            "cft_2xy_buf,{shape},{:.6e},{mf_whole:.1}\n",
            r.whole_s
        ));
    }

    h.artifact("fft.csv", &rows, CheckKind::Structure);
    h.metric_f64("max_norm_err_vs_naive", max_err, 18)
        .metric_f64("roundtrip_err_1d", rt_err, 18)
        .metric_f64("roundtrip_err_3d", rt3_err, 18)
        .metric_f64("peak_1d_mflops", peak_1d, 1)
        .metric_f64("fft3d_mflops", mflops3, 1);
    for r in &races {
        let key = format!("{}_{}", r.transform, r.shape);
        h.metric_f64(&format!("{key}_lanes_mflops"), r.flops / r.lanes_s / 1e6, 1)
            .metric_f64(
                &format!("{key}_per_column_mflops"),
                r.flops / r.per_column_s / 1e6,
                1,
            )
            .metric_f64(&format!("{key}_time_ratio"), r.ratio(), 3);
    }
    h.metric_bool("lanes_bitwise_equal", races.iter().all(|r| r.bitwise));
    for r in &sticks {
        let (key, p) = (r.key(), &r.plan);
        h.metric_u64(&format!("{key}_planes"), p.npp as u64)
            .metric_u64(&format!("{key}_sticks"), p.nst as u64)
            .metric_u64(&format!("{key}_stick_rows"), p.stick_rows.len() as u64)
            .metric_u64(&format!("{key}_stick_cols"), p.stick_cols.len() as u64)
            .metric_f64(
                &format!("cft_2xy_sticks_{key}_mflops"),
                r.sticks_flops / r.sticks_s / 1e6,
                1,
            )
            .metric_f64(
                &format!("cft_2xy_buf_{key}_mflops"),
                r.whole_flops / r.whole_s / 1e6,
                1,
            )
            .metric_f64(&format!("cft_2xy_sticks_{key}_time_ratio"), r.ratio(), 3);
    }
    h.metric_bool("sticks_bitwise_equal", sticks.iter().all(|r| r.bitwise));
    h.gate(
        "fast 1-D transforms match the naive DFT oracle",
        "max_norm_err_vs_naive",
        GateOp::Le,
        1e-12,
    )
    .gate(
        "1-D forward/inverse round trip is machine-precision",
        "roundtrip_err_1d",
        GateOp::Le,
        1e-10,
    )
    .gate(
        "3-D forward/inverse round trip is machine-precision",
        "roundtrip_err_3d",
        GateOp::Le,
        1e-10,
    )
    .gate(
        "lane-batched cft_2xy/cft_1z are bit-identical to the per-column loop",
        "lanes_bitwise_equal",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "lane-batched cft_2xy takes at most 0.6x the per-column time on 60x60x30",
        "cft_2xy_60x60x30_time_ratio",
        GateOp::Le,
        0.6,
    )
    .gate(
        "cft_2xy_sticks is bit-identical to cft_2xy_buf wherever the pipeline reads",
        "sticks_bitwise_equal",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "cft_2xy_sticks takes at most 0.9x the whole-plane time on the dense-slab rank",
        "cft_2xy_sticks_dense_slab_time_ratio",
        GateOp::Le,
        0.9,
    );
    std::process::exit(h.finish());
}
