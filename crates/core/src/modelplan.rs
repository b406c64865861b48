//! Lowering of the miniapp onto the KNL discrete-event simulator.
//!
//! The same kernel the real engines execute is re-expressed as per-rank
//! task lists of classified compute bursts and collectives, with work
//! volumes taken from the actual layout (stick/plane counts, padded chunk
//! sizes) and the FFT op-count model. This is what regenerates the paper's
//! node-scale experiments (Figs. 2/3/6/7, Tables I/II) on hardware we do
//! not have: the mechanisms the paper measures — IPC collapse under
//! contention and growing collective cost — live in `fftx-knlsim`'s models.

use crate::config::{DecompChoice, Decomposition, FftxConfig, SchedulerPolicy};
use crate::problem::Problem;
use crate::stages::StepFlops;
use fftx_knlsim::{
    simulate, simulate_faulty, CommModel, ContentionModel, FaultPlan, KnlConfig, RankTasks,
    Segment, SimResult, TaskSpec,
};
use fftx_pw::{Cell, FftGrid, GSphere, ProcessGrid, StickSet, TaskGroupLayout, DUAL};
use fftx_trace::{CommOp, StateClass, Trace};
use std::sync::Arc;

/// Communicator-key blocks (stable ids for the trace / matching).
const PACK_KEY_BASE: u64 = 1_000;
const SCATTER_KEY_BASE: u64 = 2_000;
const WORLD_KEY: u64 = 3_000;
/// Pencil row/column sub-communicators of one scatter family: key =
/// base + family·64 + row-or-column index (every member of one row shares
/// its row index, so the keys agree across the communicator).
const ROW_KEY_BASE: u64 = 4_000;
const COL_KEY_BASE: u64 = 5_000;

/// Builds the per-rank simulator programs for the problem's mode.
pub fn build_programs(problem: &Problem) -> Vec<RankTasks> {
    match problem.config.mode {
        SchedulerPolicy::Serial => build_original(problem),
        SchedulerPolicy::TaskPerFft => build_task_per_fft(problem),
        SchedulerPolicy::TaskPerStep => build_task_per_step(problem),
        SchedulerPolicy::TaskAsync => build_task_async(problem),
        SchedulerPolicy::Hybrid => build_hybrid(problem),
    }
}

/// Noise key of step `ordinal` of band `b`: ties the systematic per-band
/// work variation together across ranks (see `ContentionModel::band_noise`).
fn nkey(b: usize, ordinal: u64) -> u64 {
    (b as u64) * 64 + ordinal
}

/// One scatter family as a lowering sees it: the decomposition, the
/// family's slab comm key, this rank's member index within the family, and
/// the exchange geometry. Lowers each scatter exchange to segments — the
/// slab's single full-family alltoall, or the pencil's row alltoall →
/// restage copy → column alltoall over the family's process grid.
#[derive(Clone, Copy)]
struct ScatterShape {
    decomp: Decomposition,
    /// Comm key of the full family (the slab exchange).
    slab_key: u64,
    /// Stable index of the family (disambiguates row/col keys).
    family: u64,
    /// This rank's member index within the family.
    member: usize,
    /// Family size (R).
    size: usize,
    /// Per-rank exchange bytes (identical for the slab exchange and for
    /// each pencil phase: every phase moves the full R·chunk buffer).
    bytes: usize,
}

impl ScatterShape {
    /// Flops of one pencil restage: a single pass over the R·chunk
    /// exchange buffer (a plain reindexing copy), priced per complex
    /// element. Deliberately NOT `StepFlops::scatter_copy`, which covers
    /// the much larger sticks+planes staging volume.
    fn restage_flops(&self) -> f64 {
        fftx_fft::opcount::copy_flops(self.bytes / std::mem::size_of::<fftx_fft::Complex64>())
    }

    /// The pencil grid and this member's row/column comm keys, when the
    /// decomposition is pencil.
    fn pencil(&self) -> Option<(ProcessGrid, u64, u64)> {
        match self.decomp {
            Decomposition::Slab => None,
            Decomposition::Pencil => {
                let pg = ProcessGrid::factor(self.size);
                let row = ROW_KEY_BASE + self.family * 64 + pg.row(self.member) as u64;
                let col = COL_KEY_BASE + self.family * 64 + pg.col(self.member) as u64;
                Some((pg, row, col))
            }
        }
    }

    /// The blocking lowering of one exchange.
    fn blocking(&self, tag: u64, band: usize, restage_ord: u64) -> Vec<Segment> {
        let collective = |key, size, t| Segment::Collective {
            op: CommOp::Alltoall,
            comm_key: key,
            size,
            bytes: self.bytes,
            tag: t,
        };
        match self.pencil() {
            None => vec![collective(self.slab_key, self.size, tag)],
            Some((pg, row, col)) => vec![
                collective(row, pg.p2, tag),
                Segment::compute_keyed(
                    StateClass::Other,
                    self.restage_flops(),
                    nkey(band, restage_ord),
                ),
                collective(col, pg.p1, tag),
            ],
        }
    }

    /// Split-phase post: the slab posts on the full family, the pencil on
    /// its row communicator (phase 1 — the only phase that can overlap).
    fn post(&self, tag: u64) -> Segment {
        let (key, size) = match self.pencil() {
            None => (self.slab_key, self.size),
            Some((pg, row, _)) => (row, pg.p2),
        };
        Segment::CollectivePost {
            op: CommOp::Alltoall,
            comm_key: key,
            size,
            bytes: self.bytes,
            tag,
        }
    }

    /// Split-phase wait: completes the posted exchange and, under pencil,
    /// restages and runs the blocking column phase — exactly the real
    /// engine's `scatter_*_wait` shape.
    fn wait(&self, tag: u64, band: usize, restage_ord: u64) -> Vec<Segment> {
        match self.pencil() {
            None => vec![Segment::CollectiveWait {
                comm_key: self.slab_key,
                tag,
            }],
            Some((pg, row, col)) => vec![
                Segment::CollectiveWait { comm_key: row, tag },
                Segment::compute_keyed(
                    StateClass::Other,
                    self.restage_flops(),
                    nkey(band, restage_ord),
                ),
                Segment::Collective {
                    op: CommOp::Alltoall,
                    comm_key: col,
                    size: pg.p1,
                    bytes: self.bytes,
                    tag,
                },
            ],
        }
    }
}

/// Noise-key ordinals of the pencil restage copies (forward / backward
/// exchange) — new ordinals, so slab lowerings are byte-identical to the
/// pre-decomposition model.
const RESTAGE_FWD: u64 = 19;
const RESTAGE_BWD: u64 = 20;

/// The transform core as segments (z FFT → scatter → xy FFT → VOFR → back),
/// shared by the fused lowerings. `sc` describes the scatter family and its
/// decomposition; `tag` disambiguates concurrent bands; `band` keys the
/// systematic work variation.
fn core_segments(flops: &StepFlops, sc: ScatterShape, tag: u64, band: usize) -> Vec<Segment> {
    let mut segments = vec![
        Segment::compute_keyed(StateClass::FftZ, flops.fft_z, nkey(band, 10)),
        Segment::compute_keyed(StateClass::Other, flops.scatter_copy / 2.0, nkey(band, 11)),
    ];
    segments.extend(sc.blocking(tag, band, RESTAGE_FWD));
    segments.extend([
        Segment::compute_keyed(StateClass::Other, flops.scatter_copy / 2.0, nkey(band, 12)),
        Segment::compute_keyed(StateClass::FftXy, flops.fft_xy, nkey(band, 13)),
        Segment::compute_keyed(StateClass::Vofr, flops.vofr, nkey(band, 14)),
        Segment::compute_keyed(StateClass::FftXy, flops.fft_xy, nkey(band, 15)),
        Segment::compute_keyed(StateClass::Other, flops.scatter_copy / 2.0, nkey(band, 16)),
    ]);
    segments.extend(sc.blocking(tag, band, RESTAGE_BWD));
    segments.extend([
        Segment::compute_keyed(StateClass::Other, flops.scatter_copy / 2.0, nkey(band, 17)),
        Segment::compute_keyed(StateClass::FftZ, flops.fft_z, nkey(band, 18)),
    ]);
    segments
}

fn build_original(problem: &Problem) -> Vec<RankTasks> {
    let cfg = problem.config;
    let l = &problem.layout;
    let (r, t) = (l.r, l.t);
    (0..r * t)
        .map(|w| {
            let g = l.task_group_of(w);
            let i = l.member_of(w);
            let flops = StepFlops::for_group(problem, g);
            let pack = |tag: u64| Segment::Collective {
                op: CommOp::Alltoallv,
                comm_key: PACK_KEY_BASE + g as u64,
                size: t,
                bytes: l.pack_bytes(w),
                tag,
            };
            let mut segments = Vec::new();
            for k in 0..cfg.iterations() {
                // Rank g*T+i handles band k*T+i of this iteration: its
                // compute carries that band's systematic work factor, so
                // band-to-band variation shows up as intra-group imbalance
                // the collectives must absorb — exactly the static code's
                // handicap the paper identifies.
                let band = k * t + i;
                segments.push(Segment::compute_keyed(
                    StateClass::PsiPrep,
                    flops.prep,
                    nkey(band, 0),
                ));
                segments.push(Segment::compute_keyed(
                    StateClass::Pack,
                    flops.pack / 2.0,
                    nkey(band, 1),
                ));
                segments.push(pack(0));
                segments.push(Segment::compute_keyed(
                    StateClass::Pack,
                    flops.pack / 2.0,
                    nkey(band, 2),
                ));
                segments.extend(core_segments(
                    &flops,
                    ScatterShape {
                        decomp: cfg.decomp,
                        slab_key: SCATTER_KEY_BASE + i as u64,
                        family: i as u64,
                        member: g,
                        size: r,
                        bytes: l.scatter_bytes(),
                    },
                    0,
                    band,
                ));
                segments.push(Segment::compute_keyed(
                    StateClass::Unpack,
                    flops.pack / 2.0,
                    nkey(band, 3),
                ));
                segments.push(pack(1));
                segments.push(Segment::compute_keyed(
                    StateClass::Unpack,
                    flops.pack / 2.0,
                    nkey(band, 4),
                ));
            }
            RankTasks::static_program(segments)
        })
        .collect()
}

/// Task-runtime overhead per task: dependency bookkeeping, scheduling, and
/// argument marshalling — the reason Table II's instructions-scalability
/// column sits below the original's.
fn runtime_overhead(flops: &StepFlops) -> f64 {
    0.01 * (2.0 * flops.fft_xy + 2.0 * flops.fft_z + flops.vofr)
}

fn band_task(problem: &Problem, g: usize, b: usize, flops: &StepFlops) -> TaskSpec {
    let l = &problem.layout;
    let mut segments = vec![
        Segment::compute(StateClass::Runtime, runtime_overhead(flops)),
        Segment::compute_keyed(StateClass::PsiPrep, flops.prep, nkey(b, 0)),
        Segment::compute_keyed(StateClass::Pack, flops.pack, nkey(b, 1)),
    ];
    segments.extend(core_segments(
        flops,
        ScatterShape {
            decomp: problem.config.decomp,
            slab_key: WORLD_KEY,
            family: 0,
            member: g,
            size: l.r,
            bytes: l.scatter_bytes(),
        },
        b as u64,
        b,
    ));
    segments.push(Segment::compute_keyed(StateClass::Unpack, flops.pack, nkey(b, 3)));
    TaskSpec::new(format!("fft-band-{b}"), b as u64, segments)
}

fn build_task_per_fft(problem: &Problem) -> Vec<RankTasks> {
    let cfg = problem.config;
    (0..cfg.nr)
        .map(|g| {
            let flops = StepFlops::for_group(problem, g);
            let tasks = (0..cfg.nbnd).map(|b| band_task(problem, g, b, &flops)).collect();
            RankTasks {
                tasks,
                workers: cfg.ntg,
            }
        })
        .collect()
}

fn build_task_per_step(problem: &Problem) -> Vec<RankTasks> {
    let cfg = problem.config;
    let l = &problem.layout;
    (0..cfg.nr)
        .map(|g| {
            let flops = StepFlops::for_group(problem, g);
            let mut tasks: Vec<TaskSpec> = Vec::with_capacity(cfg.nbnd * 9);
            let sc = ScatterShape {
                decomp: cfg.decomp,
                slab_key: WORLD_KEY,
                family: 0,
                member: g,
                size: l.r,
                bytes: l.scatter_bytes(),
            };
            for b in 0..cfg.nbnd {
                let prio = b as u64;
                let base = tasks.len();
                let scatter_fw = {
                    let mut s = vec![Segment::compute_keyed(
                        StateClass::Other,
                        flops.scatter_copy / 2.0,
                        nkey(b, 11),
                    )];
                    s.extend(sc.blocking(2 * b as u64, b, RESTAGE_FWD));
                    s.push(Segment::compute_keyed(StateClass::Other, flops.scatter_copy / 2.0, nkey(b, 12)));
                    s
                };
                let scatter_bw = {
                    let mut s = vec![Segment::compute_keyed(
                        StateClass::Other,
                        flops.scatter_copy / 2.0,
                        nkey(b, 16),
                    )];
                    s.extend(sc.blocking(2 * b as u64 + 1, b, RESTAGE_BWD));
                    s.push(Segment::compute_keyed(StateClass::Other, flops.scatter_copy / 2.0, nkey(b, 17)));
                    s
                };
                // The chain mirrors Fig. 4: one task per step, flow deps.
                let chain: Vec<(String, Vec<Segment>)> = vec![
                    (
                        format!("pack[{b}]"),
                        vec![
                            Segment::compute(StateClass::Runtime, runtime_overhead(&flops)),
                            Segment::compute_keyed(StateClass::PsiPrep, flops.prep, nkey(b, 0)),
                            Segment::compute_keyed(StateClass::Pack, flops.pack, nkey(b, 1)),
                        ],
                    ),
                    (
                        format!("fftz-inv[{b}]"),
                        vec![Segment::compute_keyed(StateClass::FftZ, flops.fft_z, nkey(b, 10))],
                    ),
                    (format!("scatter-fw[{b}]"), scatter_fw),
                    (
                        format!("fftxy-inv[{b}]"),
                        vec![Segment::compute_keyed(StateClass::FftXy, flops.fft_xy, nkey(b, 13))],
                    ),
                    (
                        format!("vofr[{b}]"),
                        vec![Segment::compute_keyed(StateClass::Vofr, flops.vofr, nkey(b, 14))],
                    ),
                    (
                        format!("fftxy-fw[{b}]"),
                        vec![Segment::compute_keyed(StateClass::FftXy, flops.fft_xy, nkey(b, 15))],
                    ),
                    (format!("scatter-bw[{b}]"), scatter_bw),
                    (
                        format!("fftz-fw[{b}]"),
                        vec![Segment::compute_keyed(StateClass::FftZ, flops.fft_z, nkey(b, 18))],
                    ),
                    (
                        format!("unpack[{b}]"),
                        vec![Segment::compute_keyed(StateClass::Unpack, flops.pack, nkey(b, 3))],
                    ),
                ];
                for (n, (label, segments)) in chain.into_iter().enumerate() {
                    let mut task = TaskSpec::new(label, prio, segments);
                    if n > 0 {
                        task = task.with_deps(vec![base + n - 1]);
                    }
                    tasks.push(task);
                }
            }
            RankTasks {
                tasks,
                workers: cfg.ntg,
            }
        })
        .collect()
}

fn build_task_async(problem: &Problem) -> Vec<RankTasks> {
    let cfg = problem.config;
    let l = &problem.layout;
    (0..cfg.nr)
        .map(|g| {
            let flops = StepFlops::for_group(problem, g);
            let mut tasks: Vec<TaskSpec> = Vec::with_capacity(cfg.nbnd * 11);
            let sc = ScatterShape {
                decomp: cfg.decomp,
                slab_key: WORLD_KEY,
                family: 0,
                member: g,
                size: l.r,
                bytes: l.scatter_bytes(),
            };
            for b in 0..cfg.nbnd {
                let prio = b as u64;
                let base = tasks.len();
                let wait_fw = {
                    let mut s = sc.wait(2 * b as u64, b, RESTAGE_FWD);
                    s.push(Segment::compute_keyed(StateClass::Other, flops.scatter_copy / 4.0, nkey(b, 12)));
                    s
                };
                let wait_bw = {
                    let mut s = sc.wait(2 * b as u64 + 1, b, RESTAGE_BWD);
                    s.push(Segment::compute_keyed(StateClass::Other, flops.scatter_copy / 4.0, nkey(b, 17)));
                    s
                };
                // Strategy 1's chain with the scatters split into a post
                // task (never blocks) and a wait task (blocks only for the
                // unoverlapped remainder) — the paper's future work.
                let chain: Vec<(String, Vec<Segment>)> = vec![
                    (
                        format!("pack[{b}]"),
                        vec![
                            Segment::compute(StateClass::Runtime, runtime_overhead(&flops)),
                            Segment::compute_keyed(StateClass::PsiPrep, flops.prep, nkey(b, 0)),
                            Segment::compute_keyed(StateClass::Pack, flops.pack, nkey(b, 1)),
                        ],
                    ),
                    (
                        format!("fftz-inv[{b}]"),
                        vec![Segment::compute_keyed(StateClass::FftZ, flops.fft_z, nkey(b, 10))],
                    ),
                    (
                        format!("scatter-fw-post[{b}]"),
                        vec![
                            Segment::compute_keyed(StateClass::Other, flops.scatter_copy / 4.0, nkey(b, 11)),
                            sc.post(2 * b as u64),
                        ],
                    ),
                    (format!("scatter-fw-wait[{b}]"), wait_fw),
                    (
                        format!("fftxy-inv[{b}]"),
                        vec![Segment::compute_keyed(StateClass::FftXy, flops.fft_xy, nkey(b, 13))],
                    ),
                    (
                        format!("vofr[{b}]"),
                        vec![Segment::compute_keyed(StateClass::Vofr, flops.vofr, nkey(b, 14))],
                    ),
                    (
                        format!("fftxy-fw[{b}]"),
                        vec![Segment::compute_keyed(StateClass::FftXy, flops.fft_xy, nkey(b, 15))],
                    ),
                    (
                        format!("scatter-bw-post[{b}]"),
                        vec![
                            Segment::compute_keyed(StateClass::Other, flops.scatter_copy / 4.0, nkey(b, 16)),
                            sc.post(2 * b as u64 + 1),
                        ],
                    ),
                    (format!("scatter-bw-wait[{b}]"), wait_bw),
                    (
                        format!("fftz-fw[{b}]"),
                        vec![Segment::compute_keyed(StateClass::FftZ, flops.fft_z, nkey(b, 18))],
                    ),
                    (
                        format!("unpack[{b}]"),
                        vec![Segment::compute_keyed(StateClass::Unpack, flops.pack, nkey(b, 3))],
                    ),
                ];
                for (n, (label, segments)) in chain.into_iter().enumerate() {
                    // Wait tasks defer behind every band's compute
                    // (priority b + nbnd): the transfer progresses on its
                    // own, so workers should prefer useful work.
                    let p = if segments
                        .iter()
                        .any(|s| matches!(s, Segment::CollectiveWait { .. }))
                    {
                        prio + cfg.nbnd as u64
                    } else {
                        prio
                    };
                    let mut task = TaskSpec::new(label, p, segments);
                    if n > 0 {
                        task = task.with_deps(vec![base + n - 1]);
                    }
                    tasks.push(task);
                }
            }
            RankTasks {
                tasks,
                workers: cfg.ntg,
            }
        })
        .collect()
}

fn build_hybrid(problem: &Problem) -> Vec<RankTasks> {
    let cfg = problem.config;
    let l = &problem.layout;
    (0..cfg.nr)
        .map(|g| {
            let flops = StepFlops::for_group(problem, g);
            let mut tasks: Vec<TaskSpec> = Vec::with_capacity(cfg.nbnd * 3);
            let sc = ScatterShape {
                decomp: cfg.decomp,
                slab_key: WORLD_KEY,
                family: 0,
                member: g,
                size: l.r,
                bytes: l.scatter_bytes(),
            };
            for b in 0..cfg.nbnd {
                let prio = b as u64;
                let base = tasks.len();
                // The band's nine stages fused into a chain of three tasks
                // cut at the nonblocking collectives — per-band coarse
                // tasks (strategy 2's de-sync) with both transfers posted
                // split-phase (strategy 1's overlap). Segment work and
                // noise keys match the other task lowerings exactly, so
                // flop totals stay mode-invariant.
                let mid = {
                    let mut s = sc.wait(2 * b as u64, b, RESTAGE_FWD);
                    s.extend([
                        Segment::compute_keyed(StateClass::Other, flops.scatter_copy / 4.0, nkey(b, 12)),
                        Segment::compute_keyed(StateClass::FftXy, flops.fft_xy, nkey(b, 13)),
                        Segment::compute_keyed(StateClass::Vofr, flops.vofr, nkey(b, 14)),
                        Segment::compute_keyed(StateClass::FftXy, flops.fft_xy, nkey(b, 15)),
                        Segment::compute_keyed(StateClass::Other, flops.scatter_copy / 4.0, nkey(b, 16)),
                        sc.post(2 * b as u64 + 1),
                    ]);
                    s
                };
                let tail = {
                    let mut s = sc.wait(2 * b as u64 + 1, b, RESTAGE_BWD);
                    s.extend([
                        Segment::compute_keyed(StateClass::Other, flops.scatter_copy / 4.0, nkey(b, 17)),
                        Segment::compute_keyed(StateClass::FftZ, flops.fft_z, nkey(b, 18)),
                        Segment::compute_keyed(StateClass::Unpack, flops.pack, nkey(b, 3)),
                    ]);
                    s
                };
                let chain: Vec<(String, Vec<Segment>)> = vec![
                    (
                        format!("hyb-head[{b}]"),
                        vec![
                            Segment::compute(StateClass::Runtime, runtime_overhead(&flops)),
                            Segment::compute_keyed(StateClass::PsiPrep, flops.prep, nkey(b, 0)),
                            Segment::compute_keyed(StateClass::Pack, flops.pack, nkey(b, 1)),
                            Segment::compute_keyed(StateClass::FftZ, flops.fft_z, nkey(b, 10)),
                            Segment::compute_keyed(StateClass::Other, flops.scatter_copy / 4.0, nkey(b, 11)),
                            sc.post(2 * b as u64),
                        ],
                    ),
                    (format!("hyb-mid[{b}]"), mid),
                    (format!("hyb-tail[{b}]"), tail),
                ];
                for (n, (label, segments)) in chain.into_iter().enumerate() {
                    // Waiting tasks defer behind every band's head
                    // (priority b + nbnd), like the async lowering.
                    let p = if segments
                        .iter()
                        .any(|s| matches!(s, Segment::CollectiveWait { .. }))
                    {
                        prio + cfg.nbnd as u64
                    } else {
                        prio
                    };
                    let mut task = TaskSpec::new(label, p, segments);
                    if n > 0 {
                        task = task.with_deps(vec![base + n - 1]);
                    }
                    tasks.push(task);
                }
            }
            RankTasks {
                tasks,
                workers: cfg.ntg,
            }
        })
        .collect()
}

/// A modeled execution: runtime, trace, and the ideal-network replay.
pub struct ModeledRun {
    /// The configuration.
    pub config: FftxConfig,
    /// Virtual FFT-phase runtime (s).
    pub runtime: f64,
    /// Runtime of the zero-transfer replay (for the sync/transfer split).
    pub ideal_runtime: f64,
    /// The simulated trace.
    pub trace: Trace,
}

/// Simulates `config` on the modeled KNL node (paper-calibrated models),
/// including the zero-transfer replay.
pub fn run_modeled(config: FftxConfig) -> ModeledRun {
    run_modeled_with(config, &KnlConfig::paper(), &ContentionModel::paper(), &CommModel::paper())
}

/// Simulates `config` with explicit architecture/model parameters (used by
/// the ablation benches).
pub fn run_modeled_with(
    config: FftxConfig,
    knl: &KnlConfig,
    contention: &ContentionModel,
    comm: &CommModel,
) -> ModeledRun {
    let problem = Problem::new(config);
    let programs = build_programs(&problem);
    let real = simulate(&programs, knl, contention, comm);
    let ideal = simulate(&programs, knl, contention, &comm.idealized());
    ModeledRun {
        config,
        runtime: real.runtime,
        ideal_runtime: ideal.runtime,
        trace: real.trace,
    }
}

/// Simulates only the real network (no ideal replay), returning the raw
/// simulator result.
pub fn simulate_config(
    config: FftxConfig,
    knl: &KnlConfig,
    contention: &ContentionModel,
    comm: &CommModel,
) -> SimResult {
    let problem = Problem::new(config);
    let programs = build_programs(&problem);
    simulate(&programs, knl, contention, comm)
}

/// [`simulate_config`] under a straggler [`FaultPlan`] — the entry point of
/// the resilience experiment (`--bin resilience`): the same lowering, with
/// selected compute segments stretched by the plan. Because the spikes key
/// on the band/step noise keys shared by every mode's lowering, the injected
/// severity is matched across modes by construction.
pub fn simulate_config_faulty(
    config: FftxConfig,
    knl: &KnlConfig,
    contention: &ContentionModel,
    comm: &CommModel,
    plan: &FaultPlan,
) -> SimResult {
    let problem = Problem::new(config);
    let programs = build_programs(&problem);
    simulate_faulty(&programs, knl, contention, comm, plan)
}

/// Convenience used by tests: total flops of all programs of a problem.
pub fn total_program_flops(problem: &Arc<Problem>) -> f64 {
    build_programs(problem).iter().map(|r| r.total_flops()).sum()
}

// ---------------------------------------------------------------------
// Decomposition auto-resolution
// ---------------------------------------------------------------------

/// Modeled transfer seconds of one scatter exchange of an `r`-member
/// family moving `bytes` per rank under `decomp`, on the paper-calibrated
/// network model: the slab pays one full-family alltoall, the pencil two
/// alltoalls over the `p1 × p2` process grid (each still moving the full
/// buffer, but with `p1 + p2 − 2` messages instead of `r − 1`).
pub fn modeled_scatter_seconds(decomp: Decomposition, r: usize, bytes: usize) -> f64 {
    let m = CommModel::paper();
    match decomp {
        Decomposition::Slab => m.duration(CommOp::Alltoall, r, bytes),
        Decomposition::Pencil => {
            let pg = ProcessGrid::factor(r);
            m.duration(CommOp::Alltoall, pg.p2, bytes) + m.duration(CommOp::Alltoall, pg.p1, bytes)
        }
    }
}

/// The decomposition the calibrated network model prefers for an
/// `r`-member scatter family exchanging `bytes` per rank. Ties go to the
/// slab (the simpler lowering); a prime `r` degenerates the pencil into
/// the slab plus an extra local restage, so the slab always wins there.
pub fn choose_decomp(r: usize, bytes: usize) -> Decomposition {
    let slab = modeled_scatter_seconds(Decomposition::Slab, r, bytes);
    let pencil = modeled_scatter_seconds(Decomposition::Pencil, r, bytes);
    if ProcessGrid::factor(r).is_degenerate() || pencil >= slab {
        Decomposition::Slab
    } else {
        Decomposition::Pencil
    }
}

/// Resolves a [`DecompChoice`] to a concrete decomposition for `config`:
/// fixed choices pass through; `auto` builds the layout geometry (sticks
/// and planes do not depend on the decomposition) and asks
/// [`choose_decomp`] — the resolution rule of `--decomp auto` and
/// `FFTX_DECOMP=auto` outside the serving layer, where the placement tuner
/// owns the choice instead.
pub fn resolve_decomp(choice: DecompChoice, config: &FftxConfig) -> Decomposition {
    match choice.fixed() {
        Some(d) => d,
        None => {
            let cell = Cell::cubic(config.alat);
            let grid = FftGrid::from_cutoff(&cell, DUAL * config.ecutwfc);
            let sphere = GSphere::generate(&cell, config.ecutwfc, &grid);
            let set = StickSet::build(&sphere, &grid);
            let l = TaskGroupLayout::new(grid, set, config.nr, config.layout_ntg());
            choose_decomp(l.r, l.scatter_bytes())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(nr: usize, ntg: usize, mode: SchedulerPolicy) -> FftxConfig {
        FftxConfig::small(nr, ntg, mode)
    }

    #[test]
    fn program_shapes_per_mode() {
        let p = Problem::new(small(2, 2, SchedulerPolicy::Serial));
        let progs = build_programs(&p);
        assert_eq!(progs.len(), 4);
        for pr in &progs {
            assert_eq!(pr.workers, 1);
            assert_eq!(pr.tasks.len(), 1);
            // 4 collectives per iteration (2 pack + 2 scatter).
            assert_eq!(pr.collective_count(), 4 * p.config.iterations());
        }

        let p = Problem::new(small(2, 2, SchedulerPolicy::TaskPerFft));
        let progs = build_programs(&p);
        assert_eq!(progs.len(), 2);
        for pr in &progs {
            assert_eq!(pr.workers, 2);
            assert_eq!(pr.tasks.len(), p.config.nbnd);
            assert_eq!(pr.collective_count(), 2 * p.config.nbnd);
        }

        let p = Problem::new(small(2, 2, SchedulerPolicy::TaskPerStep));
        let progs = build_programs(&p);
        for pr in &progs {
            assert_eq!(pr.tasks.len(), 9 * p.config.nbnd);
            // Each chain: 8 deps.
            let dep_count: usize = pr.tasks.iter().map(|t| t.deps.len()).sum();
            assert_eq!(dep_count, 8 * p.config.nbnd);
        }

        let p = Problem::new(small(2, 2, SchedulerPolicy::Hybrid));
        let progs = build_programs(&p);
        assert_eq!(progs.len(), 2);
        for pr in &progs {
            assert_eq!(pr.workers, 2);
            // Three fused tasks per band, chained head -> mid -> tail.
            assert_eq!(pr.tasks.len(), 3 * p.config.nbnd);
            let dep_count: usize = pr.tasks.iter().map(|t| t.deps.len()).sum();
            assert_eq!(dep_count, 2 * p.config.nbnd);
        }
    }

    #[test]
    fn work_is_mode_invariant_per_lane_total() {
        // All three modes perform the same FFT work in total (instructions
        // scalability ~ 1 across modes in the paper).
        let o = Problem::new(small(2, 2, SchedulerPolicy::Serial));
        let f = Problem::new(small(2, 2, SchedulerPolicy::TaskPerFft));
        let s = Problem::new(small(2, 2, SchedulerPolicy::TaskPerStep));
        let a = Problem::new(small(2, 2, SchedulerPolicy::TaskAsync));
        let h = Problem::new(small(2, 2, SchedulerPolicy::Hybrid));
        let fo = total_program_flops(&o);
        let ff = total_program_flops(&f);
        let fs = total_program_flops(&s);
        let fa = total_program_flops(&a);
        let fh = total_program_flops(&h);
        // FFT-batch work identical; copy/prep bookkeeping differs by layout
        // (task modes have R groups instead of R*T ranks) — allow 25%.
        assert!((ff / fo - 1.0).abs() < 0.25, "fft {ff} vs orig {fo}");
        assert!((fs / ff - 1.0).abs() < 1e-9, "steps {fs} vs fft {ff}");
        // Split-phase modes book the scatter copies as /4 quarters around
        // post/wait (half the blocking modes' copy accounting) — hybrid must
        // match async exactly, and sit within a few % of the blocking modes.
        assert!((fh / fa - 1.0).abs() < 1e-9, "hybrid {fh} vs async {fa}");
        assert!((fh / ff - 1.0).abs() < 0.05, "hybrid {fh} vs fft {ff}");
    }

    #[test]
    fn modeled_runs_complete_for_all_modes() {
        for mode in [
            SchedulerPolicy::Serial,
            SchedulerPolicy::TaskPerFft,
            SchedulerPolicy::TaskPerStep,
            SchedulerPolicy::TaskAsync,
            SchedulerPolicy::Hybrid,
        ] {
            let run = run_modeled(small(2, 2, mode));
            assert!(run.runtime > 0.0, "{mode:?}");
            assert!(run.ideal_runtime <= run.runtime * (1.0 + 1e-9), "{mode:?}");
            assert!(!run.trace.compute.is_empty());
            assert!(!run.trace.comm.is_empty());
        }
    }

    #[test]
    fn pencil_lowering_doubles_the_scatter_collectives() {
        use crate::config::Decomposition;
        // 4×1: the scatter family is the full world, pencil grid 2×2.
        let slab = Problem::new(small(4, 1, SchedulerPolicy::Serial));
        let pencil = Problem::new(
            small(4, 1, SchedulerPolicy::Serial).with_decomp(Decomposition::Pencil),
        );
        for (ps, pp) in build_programs(&slab).iter().zip(build_programs(&pencil)) {
            // Per iteration: 2 pack stay, 2 scatter become 4 (row + col).
            assert_eq!(ps.collective_count(), 4 * slab.config.iterations());
            assert_eq!(pp.collective_count(), 6 * pencil.config.iterations());
        }
        // Split-phase lowerings post/wait every exchange (no blocking
        // collectives under slab); the pencil adds one blocking column
        // collective per exchange, two exchanges per band.
        let slab = Problem::new(small(4, 1, SchedulerPolicy::Hybrid));
        let pencil = Problem::new(
            small(4, 1, SchedulerPolicy::Hybrid).with_decomp(Decomposition::Pencil),
        );
        for (ps, pp) in build_programs(&slab).iter().zip(build_programs(&pencil)) {
            assert_eq!(ps.collective_count(), 0);
            assert_eq!(pp.collective_count(), 2 * pencil.config.nbnd);
        }
    }

    #[test]
    fn pencil_flop_accounting_stays_mode_invariant() {
        use crate::config::Decomposition;
        let p = |mode| {
            Problem::new(small(4, 1, mode).with_decomp(Decomposition::Pencil))
        };
        let ff = total_program_flops(&p(SchedulerPolicy::TaskPerFft));
        let fs = total_program_flops(&p(SchedulerPolicy::TaskPerStep));
        let fa = total_program_flops(&p(SchedulerPolicy::TaskAsync));
        let fh = total_program_flops(&p(SchedulerPolicy::Hybrid));
        assert!((fs / ff - 1.0).abs() < 1e-9, "steps {fs} vs fft {ff}");
        assert!((fh / fa - 1.0).abs() < 1e-9, "hybrid {fh} vs async {fa}");
    }

    #[test]
    fn pencil_modeled_runs_complete_for_all_modes() {
        use crate::config::Decomposition;
        for mode in [
            SchedulerPolicy::Serial,
            SchedulerPolicy::TaskPerFft,
            SchedulerPolicy::TaskPerStep,
            SchedulerPolicy::TaskAsync,
            SchedulerPolicy::Hybrid,
        ] {
            let run = run_modeled(small(4, 1, mode).with_decomp(Decomposition::Pencil));
            assert!(run.runtime > 0.0, "{mode:?}");
            assert!(run.ideal_runtime <= run.runtime * (1.0 + 1e-9), "{mode:?}");
        }
    }

    #[test]
    fn auto_decomp_prefers_pencil_at_high_rank_counts() {
        use crate::config::Decomposition;
        let bytes = 1 << 16;
        // Message count dominates at scale: 64 ranks pay 63 messages as a
        // slab but 7 + 7 as an 8×8 pencil.
        assert_eq!(choose_decomp(64, bytes), Decomposition::Pencil);
        // Small families: the second latency term outweighs the saving.
        assert_eq!(choose_decomp(2, bytes), Decomposition::Slab);
        // Prime families degenerate (1 × r grid) — never worth it.
        assert_eq!(choose_decomp(13, bytes), Decomposition::Slab);
        // A tie or degenerate factorisation resolves to slab.
        assert_eq!(choose_decomp(1, bytes), Decomposition::Slab);
    }

    #[test]
    fn resolve_decomp_passes_fixed_choices_through() {
        use crate::config::{DecompChoice, Decomposition};
        let cfg = small(2, 2, SchedulerPolicy::Serial);
        assert_eq!(resolve_decomp(DecompChoice::Slab, &cfg), Decomposition::Slab);
        assert_eq!(resolve_decomp(DecompChoice::Pencil, &cfg), Decomposition::Pencil);
        // Auto on a tiny 2-rank family: slab (and it must agree with the
        // direct model comparison).
        let auto = resolve_decomp(DecompChoice::Auto, &cfg);
        assert_eq!(auto, Decomposition::Slab);
    }

    #[test]
    fn uncontended_node_is_faster() {
        let cfg = small(2, 2, SchedulerPolicy::Serial);
        let contended = run_modeled(cfg);
        let free = run_modeled_with(
            cfg,
            &KnlConfig::paper(),
            &ContentionModel::uncontended(),
            &CommModel::paper(),
        );
        assert!(free.runtime <= contended.runtime + 1e-12);
    }
}
