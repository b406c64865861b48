//! The real band kernel: the untraced `run_policy` loop behind `band_ms`,
//! and the traced stage-by-stage pass behind the kernel layers' split.

use crate::host::timed;
use crate::spans::Spans;
use crate::stats::{closure, median, steal_around, STEAL_REACH};
use crate::Metrics;
use fftx_core::recorder::Recorder;
use fftx_core::stages::{BandSlots, Slot, BAND_PIPELINE};
use fftx_core::{
    run_policy, BufferArena, ExecPlan, FftxConfig, Problem, RunOutput, ScatterComms,
    SchedulerPolicy, StageKind, StagePlan,
};
use fftx_fft::opcount::{fft_xy_batch_flops, fft_z_batch_flops};
use fftx_fft::{cft_1z, cft_2xy_buf, max_dist, Complex64, Direction, Fft};
use fftx_pw::{apply_vloc, assemble_shares, GSphere, StickSet, TaskGroupLayout};
use fftx_serve::band_hash;
use fftx_taskrt::{Runtime, SlotArena, TaskGraph};
use fftx_trace::{CommOp, EventLog, Lane, StageRecord, TraceSink};
use fftx_vmpi::{Communicator, World};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest deviation from the serial reference a kernel output may have.
pub const TOLERANCE: f64 = 1e-9;

/// One kernel workload: a problem geometry under one scheduler policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelSpec {
    /// Scheduler policy `run_policy` executes.
    pub policy: SchedulerPolicy,
    /// R: ranks per task group (serial) or vmpi ranks (task policies).
    pub nr: usize,
    /// T: task groups (serial) or workers per rank (task policies).
    pub ntg: usize,
    /// Plane-wave cutoff (Ry).
    pub ecutwfc: f64,
    /// Cubic lattice parameter (bohr).
    pub alat: f64,
    /// Bands per call.
    pub nbnd: usize,
}

impl KernelSpec {
    /// The 60³ grid under the serial policy at 1×2, one iteration of 2
    /// bands per call.
    pub const DENSE_SLAB: KernelSpec = KernelSpec {
        policy: SchedulerPolicy::Serial,
        nr: 1,
        ntg: 2,
        ecutwfc: 40.0,
        alat: 14.0,
        nbnd: 2,
    };

    /// The serving `Small` class (14³ grid) under split-phase tasks at 2×1,
    /// 32 bands per call.
    pub const SPARSE_ASYNC: KernelSpec = KernelSpec {
        policy: SchedulerPolicy::TaskAsync,
        nr: 2,
        ntg: 1,
        ecutwfc: 6.0,
        alat: 8.0,
        nbnd: 32,
    };

    /// The configuration for workload seed `seed` (the seed fixes the band
    /// coefficients and the potential, never the geometry).
    pub fn config(&self, seed: u64) -> FftxConfig {
        FftxConfig {
            ecutwfc: self.ecutwfc,
            alat: self.alat,
            nbnd: self.nbnd,
            seed,
            ..FftxConfig::small(self.nr, self.ntg, self.policy.mode())
        }
    }
}

/// Largest deviation of `out` from the serial reference `apply_vloc`.
pub fn reference_deviation(problem: &Problem, bands: &[Vec<Complex64>]) -> f64 {
    let inputs: Vec<Vec<Complex64>> = (0..problem.config.nbnd).map(|b| problem.band(b)).collect();
    let expect = apply_vloc(&problem.layout.set, &problem.grid(), &problem.v, &inputs);
    if bands.len() != expect.len() {
        return f64::INFINITY;
    }
    bands
        .iter()
        .zip(&expect)
        .map(|(a, b)| {
            if a.len() == b.len() {
                max_dist(a, b)
            } else {
                f64::INFINITY
            }
        })
        .fold(0.0, f64::max)
}

/// Exact per-band counts of one call: they depend only on the geometry and
/// the policy, never on the seed or the host.
pub fn counts(problem: &Problem, out: &RunOutput, counts: &mut Metrics) {
    let nbnd = problem.config.nbnd as f64;
    let (xy, z) = flops_per_band(problem);
    counts.set("fft.flops_per_band", xy + z, "flop");
    counts.set(
        "core.plan.bytes_per_band",
        copy_bytes_per_band(problem),
        "B",
    );
    let (mut msgs, mut bytes) = (0usize, 0usize);
    for c in &out.trace.comm {
        if matches!(c.op, CommOp::Alltoall | CommOp::Alltoallv) {
            msgs += c.comm_size - 1;
            bytes += c.bytes;
        }
    }
    counts.set("vmpi.msgs_per_band", msgs as f64 / nbnd, "count");
    counts.set("vmpi.bytes_per_band", bytes as f64 / nbnd, "B");
    counts.set(
        "taskrt.tasks_per_band",
        out.trace.tasks.len() as f64 / nbnd,
        "count",
    );
    let events = EventLog::from_trace(&out.trace).rows();
    counts.set("trace.events_per_band", events as f64 / nbnd, "count");
}

/// FFT flops of one band, xy and z batches, from `fftx_fft::opcount` on
/// each plan's dimensions: every band passes each task-group plan once,
/// inverse and forward.
pub fn flops_per_band(problem: &Problem) -> (f64, f64) {
    let g = problem.grid();
    (0..problem.layout.r).fold((0.0, 0.0), |(xy, z), i| {
        let p = problem.exec_plan(i);
        (
            xy + 2.0 * fft_xy_batch_flops(g.nr1, g.nr2, p.npp),
            z + 2.0 * fft_z_batch_flops(g.nr3, p.nst),
        )
    })
}

/// Bytes one band moves through the plan's copy tables, computed from the
/// buffer sizes (16-byte elements; a copy reads and writes, zeroing only
/// writes): zeroing both work buffers, deposit and extract of the group's
/// coefficients, and the scatter pack and unpack in both directions.
pub fn copy_bytes_per_band(problem: &Problem) -> f64 {
    (0..problem.layout.r)
        .map(|i| {
            let p: &ExecPlan = problem.exec_plan(i);
            16.0 * (p.zbuf_len() + p.planes_len()) as f64
                + 32.0 * 2.0 * p.ngw_group as f64
                + 32.0 * 4.0 * p.scatter_len() as f64
        })
        .sum()
}

/// What the untraced loop measured.
pub struct Untraced {
    /// Per call: wall time ÷ bands (ms).
    pub band_ms: Vec<f64>,
    /// Per call: wall time (ms).
    pub call_ms: Vec<f64>,
    /// Per call: (wall time − `fft_phase_s`) ÷ bands (ms).
    pub overhead_ms: Vec<f64>,
    /// Set-up samples: `Problem::new` wall time (s).
    pub setup_s: Vec<f64>,
    /// Restart samples: `Problem::new` plus the first call on it (s).
    pub restart_s: Vec<f64>,
    /// Steal ticks around each call sample ([`steal_around`]).
    pub call_steal: Vec<u64>,
    /// Steal ticks around each set-up sample.
    pub setup_steal: Vec<u64>,
    /// Steal ticks around each restart sample.
    pub restart_steal: Vec<u64>,
    /// Calls made.
    pub calls: u64,
    /// Calls whose band hash differed from the reference call's.
    pub failed: u64,
    /// The first call's output, for counts and trace probes.
    pub first: RunOutput,
    /// Hash of the reference call's bands.
    pub hash: u64,
}

/// How the untraced loop samples set-up: at least `min` samples, and
/// whenever set-up has taken less than `share` of the loop's time so far,
/// so set-up samples spread over the whole run like the calls do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupSampling {
    /// Fewest set-up samples.
    pub min: usize,
    /// Share of the loop's wall time given to set-up samples.
    pub share: f64,
}

/// Calls `run_policy` back to back until `budget` has passed and at least
/// `min_calls` were timed, after `warmup` untimed calls, interleaving
/// set-up samples per `setup`, and tags every sample with the steal ticks
/// that fell around it. Every call's bands are hashed outside the timed
/// region and compared with the first call's.
pub fn untraced(
    problem: &Arc<Problem>,
    policy: SchedulerPolicy,
    budget: Duration,
    min_calls: usize,
    warmup: usize,
    setup: SetupSampling,
) -> Untraced {
    let nbnd = problem.config.nbnd as f64;
    let first = run_policy(problem, policy);
    let hash = band_hash(&first.bands);
    let mut u = Untraced {
        band_ms: Vec::new(),
        call_ms: Vec::new(),
        overhead_ms: Vec::new(),
        setup_s: Vec::new(),
        restart_s: Vec::new(),
        call_steal: Vec::new(),
        setup_steal: Vec::new(),
        restart_steal: Vec::new(),
        calls: 1,
        failed: 0,
        first,
        hash,
    };
    for _ in 0..warmup {
        let out = run_policy(problem, policy);
        u.calls += 1;
        u.failed += u64::from(band_hash(&out.bands) != hash);
    }
    // Steal ticks of every timed operation in the order they ran, and
    // where each call and set-up sample sits in that log.
    let (mut log, mut calls_at, mut setups_at) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut setup_time = 0.0;
    loop {
        let calls_done = u.band_ms.len() >= min_calls && start.elapsed() >= budget;
        let setups_done = u.setup_s.len() >= setup.min;
        if calls_done && setups_done {
            break;
        }
        let behind = setup_time < setup.share * start.elapsed().as_secs_f64();
        if (calls_done && !setups_done) || (!calls_done && behind) {
            let t = Instant::now();
            let (fresh, built, setup_steal) = timed(|| black_box(Problem::new(problem.config)));
            let (out, call, call_steal) = timed(|| run_policy(&fresh, policy));
            u.setup_s.push(built);
            u.restart_s.push(built + call);
            setups_at.push(log.len());
            log.extend([setup_steal, call_steal]);
            u.calls += 1;
            u.failed += u64::from(band_hash(&out.bands) != hash);
            setup_time += t.elapsed().as_secs_f64();
            continue;
        }
        let (out, wall, steal) = timed(|| black_box(run_policy(problem, policy)));
        u.band_ms.push(wall * 1e3 / nbnd);
        u.call_ms.push(wall * 1e3);
        u.overhead_ms.push((wall - out.fft_phase_s) * 1e3 / nbnd);
        calls_at.push(log.len());
        log.push(steal);
        u.calls += 1;
        u.failed += u64::from(band_hash(&out.bands) != hash);
    }
    let around = |first: usize, last: usize| steal_around(&log, first, last, STEAL_REACH);
    u.call_steal = calls_at.iter().map(|&i| around(i, i)).collect();
    u.setup_steal = setups_at.iter().map(|&i| around(i, i)).collect();
    u.restart_steal = setups_at.iter().map(|&i| around(i, i + 1)).collect();
    u
}

// ---------------------------------------------------------------------
// Traced stage-by-stage pass
// ---------------------------------------------------------------------

/// Collective tag of the direct-call exchanges, apart from the pipeline's.
const PROBE_TAG: u32 = 1 << 20;

/// One rank's pass over every band of the problem, one span per stage
/// call; with `probes`, each stage is followed by direct calls into the
/// FFT kernels, the plan's copy tables and the exchange on copies of its
/// buffers. Returns the rank's updated shares.
fn rank_pass(
    problem: &Problem,
    policy: SchedulerPolicy,
    comm: &Communicator,
    probes: bool,
    sp: &mut Spans,
) -> Vec<Vec<Complex64>> {
    let cfg = problem.config;
    let l = &problem.layout;
    let w = comm.rank();
    let rec = Recorder::new(None, comm.clock(), w);
    let mut shares = problem.initial_shares(w);
    let mut a = BufferArena::new();
    let serial = policy == SchedulerPolicy::Serial;
    // Serial: pack family of the task group's T members, scatter family of
    // the R ranks sharing a member index. Task layouts (T = 1) scatter over
    // the whole world and pack locally.
    let (g, pack_comm, sc) = if serial {
        let (g, i) = (l.task_group_of(w), l.member_of(w));
        let pack = comm.split(g as u64, i);
        (
            g,
            Some(pack),
            ScatterComms::new(comm.split(i as u64, g), cfg.decomp),
        )
    } else {
        (w, None, ScatterComms::new(comm.clone(), cfg.decomp))
    };
    let stp = StagePlan::for_problem(problem, g);
    let plan = &*stp.plan;
    let runner = stp.runner(&problem.v, &rec);
    let mut probe = Probe::default();
    let (step, rounds) = if serial {
        (l.t, cfg.iterations())
    } else {
        (1, cfg.nbnd)
    };
    comm.barrier();
    for k in 0..rounds {
        let band = k * step;
        sp.time("plan.prep", || {
            runner.prep(band, &mut a.zbuf, &mut a.planes)
        });
        match &pack_comm {
            Some(pc) => {
                sp.time("vmpi.wait", || pc.barrier());
                sp.time("stage.pack", || {
                    runner.pack_exchange(band, &shares, pc, &mut a)
                })
                .unwrap_or_else(|e| panic!("{e}"));
                if probes {
                    sp.time("probe.copy", || {
                        plan.deposit_stream(&a.groupbuf, &mut a.zbuf)
                    });
                    pc.barrier();
                    let (recv, rc) = (&mut probe.recv, &mut probe.recv_counts);
                    sp.time("probe.xfer", || {
                        pc.alltoallv_into(&a.sharebuf, &a.counts, recv, rc, PROBE_TAG)
                    });
                }
            }
            None => sp.time("plan.pack_local", || {
                runner.pack_local(band, &shares[band], &mut a.zbuf)
            }),
        }
        let tag = if serial { 0 } else { (2 * band) as u32 };
        fft_z(
            sp,
            &runner,
            &mut probe,
            probes,
            StageKind::FftZInv,
            band,
            &mut a,
        );
        sp.time("vmpi.wait", || sc.full.barrier());
        scatter(
            sp, &runner, plan, &sc, &mut probe, probes, serial, true, band, tag, &mut a,
        );
        fft_xy(
            sp,
            &runner,
            &mut probe,
            probes,
            StageKind::FftXyInv,
            band,
            &mut a,
        );
        sp.time("pw.vofr", || runner.vofr(band, &mut a.planes));
        fft_xy(
            sp,
            &runner,
            &mut probe,
            probes,
            StageKind::FftXyFwd,
            band,
            &mut a,
        );
        sp.time("vmpi.wait", || sc.full.barrier());
        let tag = if serial { 0 } else { (2 * band + 1) as u32 };
        scatter(
            sp, &runner, plan, &sc, &mut probe, probes, serial, false, band, tag, &mut a,
        );
        fft_z(
            sp,
            &runner,
            &mut probe,
            probes,
            StageKind::FftZFwd,
            band,
            &mut a,
        );
        match &pack_comm {
            Some(pc) => {
                sp.time("vmpi.wait", || pc.barrier());
                sp.time("stage.unpack", || {
                    runner.unpack_exchange(band, &mut shares, pc, &mut a)
                })
                .unwrap_or_else(|e| panic!("{e}"));
                if probes {
                    let (zbuf, gb, counts) = (&a.zbuf, &mut probe.buf, &mut probe.counts);
                    sp.time("probe.copy", || plan.extract_stream(zbuf, gb, counts));
                }
            }
            None => sp.time("plan.unpack_local", || {
                runner.unpack_local(band, &a.zbuf, &mut shares[band])
            }),
        }
    }
    comm.barrier();
    shares
}

/// Scratch buffers of the direct calls, apart from the pipeline's.
#[derive(Default)]
struct Probe {
    buf: Vec<Complex64>,
    recv: Vec<Complex64>,
    scratch: Vec<Complex64>,
    col: Vec<Complex64>,
    counts: Vec<usize>,
    recv_counts: Vec<usize>,
}

#[allow(clippy::too_many_arguments)]
fn fft_z(
    sp: &mut Spans,
    runner: &fftx_core::StageRunner<'_>,
    probe: &mut Probe,
    probes: bool,
    kind: StageKind,
    band: usize,
    a: &mut BufferArena,
) {
    if probes {
        probe.buf.clone_from(&a.zbuf);
    }
    sp.time("fft.z", || {
        runner.fft_z(kind, band, &mut a.zbuf, &mut a.scratch)
    });
    if probes {
        let p = runner.plan;
        let dir = if kind == StageKind::FftZInv {
            Direction::Inverse
        } else {
            Direction::Forward
        };
        let (buf, scratch) = (&mut probe.buf, &mut probe.scratch);
        sp.time("probe.fft_z", || {
            cft_1z(&p.z, buf, p.nst, p.grid.nr3, dir, scratch)
        });
    }
}

#[allow(clippy::too_many_arguments)]
fn fft_xy(
    sp: &mut Spans,
    runner: &fftx_core::StageRunner<'_>,
    probe: &mut Probe,
    probes: bool,
    kind: StageKind,
    band: usize,
    a: &mut BufferArena,
) {
    if probes {
        probe.buf.clone_from(&a.planes);
    }
    sp.time("fft.xy", || {
        runner.fft_xy(kind, band, &mut a.planes, &mut a.scratch, &mut a.col)
    });
    if probes {
        let p = runner.plan;
        let dir = if kind == StageKind::FftXyInv {
            Direction::Inverse
        } else {
            Direction::Forward
        };
        let (buf, scratch, col) = (&mut probe.buf, &mut probe.scratch, &mut probe.col);
        sp.time("probe.fft_xy", || {
            cft_2xy_buf(
                &p.x, &p.y, buf, p.npp, p.grid.nr1, p.grid.nr2, dir, scratch, col,
            )
        });
    }
}

/// One scatter, forward (`fwd`) or backward: the blocking stage under the
/// serial policy, the split-phase post and wait halves under task
/// policies (as `TaskAsync` runs them). Probes re-run the stage's copy
/// tables on the same buffers and time one direct exchange of its send.
#[allow(clippy::too_many_arguments)]
fn scatter(
    sp: &mut Spans,
    runner: &fftx_core::StageRunner<'_>,
    plan: &ExecPlan,
    sc: &ScatterComms,
    probe: &mut Probe,
    probes: bool,
    serial: bool,
    fwd: bool,
    band: usize,
    tag: u32,
    a: &mut BufferArena,
) {
    let BufferArena {
        zbuf,
        planes,
        scatter_send,
        scatter_recv,
        pencil_mid,
        ..
    } = a;
    let res = match (serial, fwd) {
        (true, true) => sp.time("stage.scatter", || {
            runner.scatter_fwd(
                band,
                sc,
                tag,
                zbuf,
                planes,
                scatter_send,
                scatter_recv,
                pencil_mid,
            )
        }),
        (true, false) => sp.time("stage.scatter", || {
            runner.scatter_bwd(
                band,
                sc,
                tag,
                planes,
                zbuf,
                scatter_send,
                scatter_recv,
                pencil_mid,
            )
        }),
        (false, true) => {
            let req = sp.time("stage.scatter", || {
                runner.scatter_fwd_post(band, sc, tag, zbuf, scatter_send)
            });
            sp.time("stage.scatter", || {
                runner.scatter_fwd_wait(band, sc, tag, req, planes, scatter_recv, pencil_mid)
            })
        }
        (false, false) => {
            let req = sp.time("stage.scatter", || {
                runner.scatter_bwd_post(band, sc, tag, planes, scatter_send)
            });
            sp.time("stage.scatter", || {
                runner.scatter_bwd_wait(band, sc, tag, req, zbuf, scatter_recv, pencil_mid)
            })
        }
    };
    res.unwrap_or_else(|e| panic!("{e}"));
    if !probes {
        return;
    }
    if fwd {
        sp.time("probe.copy", || plan.scatter_pack(zbuf, scatter_send));
        sp.time("probe.copy", || {
            plan.scatter_unpack_to_planes(scatter_recv, planes)
        });
    } else {
        sp.time("probe.copy", || {
            plan.planes_to_scatter(planes, scatter_send)
        });
        sp.time("probe.copy", || plan.zbuf_from_scatter(scatter_recv, zbuf));
    }
    // The first (slab: only) exchange phase runs on the post communicator.
    let pc = sc.post_comm();
    pc.barrier();
    let recv = &mut probe.recv;
    sp.time("probe.xfer", || {
        pc.alltoall_into(scatter_send, recv, PROBE_TAG)
    });
}

/// What the traced pass measured over its calls.
pub struct Traced {
    /// Every rank's spans of every call.
    pub spans: Spans,
    /// Top-level wall time of each call (s).
    pub call_s: Vec<f64>,
    /// Calls made.
    pub calls: u64,
    /// Calls whose bands deviated from the reference or from `hash`.
    pub failed: u64,
}

/// Runs the traced pass until `budget` has passed and `min_calls` were
/// made. Each call is one `World::run` with one span per stage call.
pub fn traced(
    problem: &Arc<Problem>,
    policy: SchedulerPolicy,
    probes: bool,
    budget: Duration,
    min_calls: usize,
    hash: u64,
    origin: Instant,
) -> Traced {
    let l = &problem.layout;
    let ranks = problem.config.vmpi_ranks();
    let mut t = Traced {
        spans: Spans::new(origin, u32::MAX),
        call_s: Vec::new(),
        calls: 0,
        failed: 0,
    };
    let mut deviation = 0.0;
    let start = Instant::now();
    while (t.calls as usize) < min_calls || start.elapsed() < budget {
        let c = Instant::now();
        let out = World::new(ranks).run(|comm| {
            let mut sp = Spans::new(origin, comm.rank() as u32);
            // The pass span's self time is the benchmark's own work: set-up of
            // communicators and buffers, and the closing barrier.
            let pass = sp.begin("rank.pass");
            let shares = rank_pass(problem, policy, comm, probes, &mut sp);
            sp.end(pass);
            (shares, sp)
        });
        t.call_s.push(c.elapsed().as_secs_f64());
        let mut rank_shares = Vec::with_capacity(out.len());
        for (shares, sp) in out {
            rank_shares.push(shares);
            t.spans.merge(sp);
        }
        let bands: Vec<Vec<Complex64>> = (0..problem.config.nbnd)
            .map(|b| {
                let per_rank: Vec<Vec<Complex64>> =
                    rank_shares.iter().map(|r| r[b].clone()).collect();
                assemble_shares(&l.set, &l.dist, &per_rank)
            })
            .collect();
        if t.calls == 0 {
            deviation = reference_deviation(problem, &bands);
        }
        t.failed += u64::from(band_hash(&bands) != hash || deviation > TOLERANCE);
        t.calls += 1;
    }
    t
}

// ---------------------------------------------------------------------
// Direct probes of single layers
// ---------------------------------------------------------------------

/// Median wall time of `reps` runs of `f`, in seconds.
pub fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&xs)
}

/// `taskrt.dispatch_us`: one band graph of the `TaskAsync` shape per band
/// (split scatters) with empty bodies, through `spawn_graph`/`taskwait`
/// on `workers` workers; microseconds per task.
pub fn dispatch_us(nbnd: usize, workers: usize, reps: usize) -> f64 {
    let rt = Runtime::builder(workers.max(1)).build();
    let mut tasks = 0;
    let s = median_time(reps, || {
        let mut slots = SlotArena::new();
        let mut graph = TaskGraph::new();
        for b in 0..nbnd {
            let bs = BandSlots::mint(&mut slots);
            for node in &BAND_PIPELINE {
                match node.kind {
                    StageKind::ScatterFwd | StageKind::ScatterBwd => {
                        let (src, req, dst) = if node.kind == StageKind::ScatterFwd {
                            (Slot::Zbuf, Slot::ReqFwd, Slot::Planes)
                        } else {
                            (Slot::Planes, Slot::ReqBwd, Slot::Zbuf)
                        };
                        graph.node(
                            "post",
                            Some(b as u64),
                            vec![bs.handle(src).dep_in(), bs.handle(req).dep_out()],
                            || {},
                        );
                        graph.node(
                            "wait",
                            Some((b + nbnd) as u64),
                            vec![bs.handle(req).dep_inout(), bs.handle(dst).dep_inout()],
                            || {},
                        );
                    }
                    _ => {
                        graph.node("stage", Some(b as u64), node.deps(&bs), || {});
                    }
                }
            }
        }
        tasks = graph.len();
        rt.spawn_graph(graph);
        rt.taskwait();
    });
    rt.shutdown();
    s * 1e6 / tasks.max(1) as f64
}

/// Per-event cost of recording into a trace sink, in nanoseconds.
pub fn record_ns(events: usize) -> f64 {
    let sink = TraceSink::new();
    let t = Instant::now();
    for i in 0..events {
        sink.stage(StageRecord {
            lane: Lane::new(0, 0),
            stage: (i % 10) as u32,
            band: i as u32,
            t_start: i as f64,
            t_end: i as f64 + 0.5,
        });
    }
    let s = t.elapsed().as_secs_f64();
    black_box(sink.finish());
    s * 1e9 / events.max(1) as f64
}

/// Every kernel-layer metric, measured on `problem` under `policy`: an
/// untraced phase for the in-run band time, the stage pass for self times,
/// the probe pass for direct calls, then single-layer probes. Returns the
/// calls made, the calls that failed their check, and both passes' spans.
pub fn layers(
    problem: &Arc<Problem>,
    policy: SchedulerPolicy,
    budget: Duration,
    origin: Instant,
    m: &mut Metrics,
) -> (u64, u64, Spans) {
    let cfg = problem.config;
    let nbnd = cfg.nbnd;
    let lanes = cfg.vmpi_ranks() as f64;
    let no_setup = SetupSampling { min: 0, share: 0.0 };
    let un = untraced(problem, policy, budget.mul_f64(0.35), 30, 2, no_setup);
    let band_ms = median(&un.band_ms);
    let overhead_ms = median(&un.overhead_ms);
    let deviation = reference_deviation(problem, &un.first.bands);
    let (mut calls, mut failed) = (un.calls, un.failed + u64::from(deviation > TOLERANCE));

    let pass = traced(
        problem,
        policy,
        false,
        budget.mul_f64(0.3),
        10,
        un.hash,
        origin,
    );
    let probed = traced(
        problem,
        policy,
        true,
        budget.mul_f64(0.15),
        5,
        un.hash,
        origin,
    );
    calls += pass.calls + probed.calls;
    failed += pass.failed + probed.failed;

    // Wall-equivalent per band: lane-seconds ÷ (lanes × bands), in ms.
    let per_band = |t: &Traced, s: f64| s * 1e3 / (lanes * (t.calls as usize * nbnd) as f64);
    let st = |name: &str| per_band(&pass, pass.spans.self_s(name));
    let pr = |name: &str| per_band(&probed, probed.spans.self_s(name));
    let fft_xy = st("fft.xy");
    let fft_z = st("fft.z");
    let vofr = st("pw.vofr");
    let composite = st("stage.pack") + st("stage.unpack") + st("stage.scatter");
    let copy_in_composite = pr("probe.copy").min(composite);
    let copy =
        st("plan.prep") + st("plan.pack_local") + st("plan.unpack_local") + copy_in_composite;
    let xfer = composite - copy_in_composite;
    let wait = st("vmpi.wait");
    let c = closure(
        band_ms,
        &[fft_xy, fft_z, vofr, copy, xfer, wait, overhead_ms],
    );

    let (xy_flops, z_flops) = flops_per_band(problem);
    let lane_s = |name: &str| pass.spans.self_s(name) / (pass.calls as usize * nbnd) as f64;
    m.set("fft.xy_ms", fft_xy, "ms");
    m.set("fft.z_ms", fft_z, "ms");
    m.set(
        "fft.xy_gflops",
        xy_flops / lane_s("fft.xy") / 1e9,
        "GFLOP/s",
    );
    m.set("fft.z_gflops", z_flops / lane_s("fft.z") / 1e9, "GFLOP/s");
    m.set("fft.xy_direct_ms", pr("probe.fft_xy"), "ms");
    m.set("fft.z_direct_ms", pr("probe.fft_z"), "ms");
    m.set("pw.vofr_ms", vofr, "ms");
    m.set("core.plan.copy_ms", copy, "ms");
    m.set("vmpi.xfer_ms", xfer, "ms");
    m.set("vmpi.wait_ms", wait, "ms");
    m.set("vmpi.xfer_direct_ms", pr("probe.xfer"), "ms");
    m.set("core.call_overhead_ms", overhead_ms, "ms");
    m.set("taskrt.residue_ms", c.residue, "ms");
    m.set("bench.closure", c.ratio, "ratio");
    m.set("bench.kernel_band_ms", band_ms, "ms");
    let traced_band_ms = median(&pass.call_s) * 1e3 / nbnd as f64;
    m.set("bench.trace_overhead", traced_band_ms / band_ms, "ratio");
    counts(problem, &un.first, m);

    let ranks = cfg.vmpi_ranks();
    m.set(
        "vmpi.world_ms",
        median_time(30, || drop(World::new(ranks).run(|_| ()))) * 1e3,
        "ms",
    );
    let workers = cfg.ntg.max(1);
    let runtime_s = median_time(15, || Runtime::builder(workers).build().shutdown());
    m.set("taskrt.runtime_ms", runtime_s * 1e3, "ms");
    m.set("taskrt.dispatch_us", dispatch_us(nbnd, workers, 9), "us");

    m.set("trace.record_ns", record_ns(50_000), "ns");
    let log = EventLog::from_trace(&un.first.trace);
    let bytes = log.encode();
    m.set(
        "trace.encode_ms",
        median_time(9, || drop(black_box(log.encode()))) * 1e3,
        "ms",
    );
    let decode_s = median_time(9, || {
        black_box(EventLog::decode(&bytes).expect("own encoding decodes"));
    });
    m.set("trace.decode_ms", decode_s * 1e3, "ms");

    setup_parts(problem, m);
    let mut spans = pass.spans;
    spans.merge(probed.spans);
    (calls, failed, spans)
}

/// The set-up of `problem`'s geometry, component by component (median of
/// a few builds each).
fn setup_parts(problem: &Problem, m: &mut Metrics) {
    let cfg = problem.config;
    let l = &problem.layout;
    let grid = l.grid;
    let reps = 5;
    let sphere_s = median_time(reps, || {
        black_box(GSphere::generate(&problem.cell, cfg.ecutwfc, &grid));
    });
    let sphere = GSphere::generate(&problem.cell, cfg.ecutwfc, &grid);
    let sticks_s = median_time(reps, || {
        black_box(StickSet::build(&sphere, &grid));
    });
    let layout_s = median_time(reps, || {
        black_box(TaskGroupLayout::new(grid, l.set.clone(), l.r, l.t));
    });
    let plan_s = median_time(reps, || {
        for g in 0..l.r {
            black_box(ExecPlan::for_layout_decomp(l, g, cfg.decomp));
        }
    });
    let fft_s = median_time(reps, || {
        for n in [grid.nr1, grid.nr2, grid.nr3] {
            black_box(Fft::new(n));
        }
    });
    m.set("pw.sphere_ms", sphere_s * 1e3, "ms");
    m.set("pw.sticks_ms", sticks_s * 1e3, "ms");
    m.set("pw.layout_ms", layout_s * 1e3, "ms");
    m.set("core.plan.build_ms", plan_s * 1e3, "ms");
    m.set("fft.plan_ms", fft_s * 1e3, "ms");
}
