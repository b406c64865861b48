//! Lowering of the miniapp onto the KNL discrete-event simulator.
//!
//! The same kernel the real engines execute is re-expressed as per-rank
//! task lists of classified compute bursts and collectives, with work
//! volumes taken from the actual layout (stick/plane counts, padded chunk
//! sizes) and the FFT op-count model. This is what regenerates the paper's
//! node-scale experiments (Figs. 2/3/6/7, Tables I/II) on hardware we do
//! not have: the mechanisms the paper measures — IPC collapse under
//! contention and growing collective cost — live in `fftx-knlsim`'s models.
//!
//! The lowering reads the task-cut table of [`crate::stages`], the same
//! table the real engine lowers: each phase of a band becomes its
//! segments, each task of a cut one [`TaskSpec`] chained to the band's
//! previous task. The serial policy's static program strings the same
//! phase segments together per band, with the collective pack/unpack of
//! its task groups.

use crate::config::{DecompChoice, Decomposition, FftxConfig, SchedulerPolicy};
use crate::problem::Problem;
use crate::stages::{band_cut, band_tasks, scatter_tags, CutTask, Phase, StageKind, StepFlops};
use fftx_knlsim::{
    simulate, simulate_faulty, CommModel, ContentionModel, FaultPlan, KnlConfig, RankTasks,
    Segment, SimResult, TaskSpec,
};
use fftx_pw::{Cell, FftGrid, GSphere, ProcessGrid, StickSet, TaskGroupLayout, DUAL};
use fftx_trace::{CommOp, StateClass, Trace};

/// Communicator-key blocks (stable ids for the trace / matching).
const PACK_KEY_BASE: u64 = 1_000;
const SCATTER_KEY_BASE: u64 = 2_000;
const WORLD_KEY: u64 = 3_000;
/// Pencil row/column sub-communicators of one scatter family: key =
/// base + family·64 + row-or-column index (every member of one row shares
/// its row index, so the keys agree across the communicator).
const ROW_KEY_BASE: u64 = 4_000;
const COL_KEY_BASE: u64 = 5_000;

/// Builds the per-rank simulator programs for the problem's mode: the
/// policy's task cut, lowered phase by phase.
pub fn build_programs(problem: &Problem) -> Vec<RankTasks> {
    let cfg = problem.config;
    let l = &problem.layout;
    let cut = band_cut(cfg.mode);
    let serial = cfg.mode == SchedulerPolicy::Serial;
    (0..cfg.vmpi_ranks())
        .map(|w| {
            let rank = RankLowering::new(problem, w, serial);
            if serial {
                // Rank g*T+i handles band k*T+i of iteration k: its
                // compute carries that band's systematic work factor, so
                // band-to-band variation shows up as intra-group imbalance
                // the collectives must absorb — exactly the static code's
                // handicap the paper identifies.
                let bands = (0..cfg.iterations()).map(|k| k * l.t + l.member_of(w));
                rank.static_program(cut, bands)
            } else {
                rank.task_program(cut, cfg.nbnd, cfg.ntg)
            }
        })
        .collect()
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

    /// The communicator (key, size) an exchange starts on: the full
    /// family under slab, the member's row under pencil (phase 1 — the
    /// only phase a split post can overlap).
    fn phase1(&self) -> (u64, usize) {
        self.pencil()
            .map_or((self.slab_key, self.size), |(pg, row, _)| (row, pg.p2))
    }

    /// Appends what follows phase 1 of an exchange under pencil: the
    /// restage copy and the blocking column alltoall.
    fn pencil_tail(&self, tag: u64, band: usize, restage_ord: u64, out: &mut Vec<Segment>) {
        if let Some((pg, _, col)) = self.pencil() {
            out.push(Segment::compute_keyed(
                StateClass::Other,
                self.restage_flops(),
                nkey(band, restage_ord),
            ));
            out.push(Segment::Collective {
                op: CommOp::Alltoall,
                comm_key: col,
                size: pg.p1,
                bytes: self.bytes,
                tag,
            });
        }
    }

    /// Appends the blocking lowering of one exchange.
    fn blocking(&self, tag: u64, band: usize, restage_ord: u64, out: &mut Vec<Segment>) {
        let (comm_key, size) = self.phase1();
        out.push(Segment::Collective {
            op: CommOp::Alltoall,
            comm_key,
            size,
            bytes: self.bytes,
            tag,
        });
        self.pencil_tail(tag, band, restage_ord, out);
    }

    /// Split-phase post of phase 1.
    fn post(&self, tag: u64) -> Segment {
        let (comm_key, size) = self.phase1();
        Segment::CollectivePost {
            op: CommOp::Alltoall,
            comm_key,
            size,
            bytes: self.bytes,
            tag,
        }
    }

    /// Appends a split-phase wait: completes the posted phase 1, then the
    /// pencil tail — exactly the real engine's `scatter_*_wait` shape.
    fn wait(&self, tag: u64, band: usize, restage_ord: u64, out: &mut Vec<Segment>) {
        out.push(Segment::CollectiveWait {
            comm_key: self.phase1().0,
            tag,
        });
        self.pencil_tail(tag, band, restage_ord, out);
    }
}

/// Noise-key ordinals of the pencil restage copies (forward / backward
/// exchange) — new ordinals, so slab lowerings are byte-identical to the
/// pre-decomposition model.
const RESTAGE_FWD: u64 = 19;
const RESTAGE_BWD: u64 = 20;

/// One rank's lowering: its flop estimates, its scatter family and, under
/// the serial policy, its task group's pack exchange.
struct RankLowering {
    flops: StepFlops,
    sc: ScatterShape,
    /// The serial policy's collective pack/unpack, an Alltoallv over the
    /// rank's task group: (comm key, group size T, bytes). Task layouts
    /// deposit their own share instead.
    pack: Option<(u64, usize, usize)>,
}

impl RankLowering {
    fn new(problem: &Problem, w: usize, serial: bool) -> Self {
        let l = &problem.layout;
        let g = l.task_group_of(w);
        let i = l.member_of(w);
        RankLowering {
            flops: StepFlops::for_group(problem, g),
            sc: ScatterShape {
                decomp: problem.config.decomp,
                slab_key: if serial {
                    SCATTER_KEY_BASE + i as u64
                } else {
                    WORLD_KEY
                },
                family: i as u64,
                member: g,
                size: l.r,
                bytes: l.scatter_bytes(),
            },
            pack: serial.then(|| (PACK_KEY_BASE + g as u64, l.t, l.pack_bytes(w))),
        }
    }

    /// The serial policy's program: one worker running the cut of each of
    /// `bands` in turn, every scatter on tag 0.
    fn static_program(&self, cut: &[CutTask], bands: impl Iterator<Item = usize>) -> RankTasks {
        let mut segments = Vec::new();
        for band in bands {
            segments.push(self.prep(band));
            for &(_, phases) in cut {
                for &phase in phases {
                    self.phase(phase, band, [0, 0], &mut segments);
                }
            }
        }
        RankTasks::static_program(segments)
    }

    /// A task policy's program: every band's tasks of the cut, chained in
    /// order, on `workers` lanes.
    fn task_program(&self, cut: &'static [CutTask], nbnd: usize, workers: usize) -> RankTasks {
        let mut tasks: Vec<TaskSpec> = Vec::with_capacity(nbnd * cut.len());
        for b in 0..nbnd {
            let base = tasks.len();
            let tags = scatter_tags(cut.len(), b).map(u64::from);
            for (n, (label, priority, phases)) in band_tasks(cut, b, nbnd).enumerate() {
                let mut segments = Vec::new();
                if n == 0 {
                    segments.push(Segment::compute(
                        StateClass::Runtime,
                        runtime_overhead(&self.flops),
                    ));
                    segments.push(self.prep(b));
                }
                for &phase in phases {
                    self.phase(phase, b, tags, &mut segments);
                }
                let mut task = TaskSpec::new(label, priority, segments);
                if n > 0 {
                    task = task.with_deps(vec![base + n - 1]);
                }
                tasks.push(task);
            }
        }
        RankTasks { tasks, workers }
    }

    /// The band's buffer preparation (the paper's "psi preparation").
    fn prep(&self, band: usize) -> Segment {
        Segment::compute_keyed(StateClass::PsiPrep, self.flops.prep, nkey(band, 0))
    }

    /// Appends the segments of one phase of `band`, whose forward and
    /// backward scatters carry `tags`. Every stage's compute keeps its
    /// noise ordinal across the lowerings, so flop totals and the
    /// systematic work variation stay policy-invariant.
    fn phase(&self, phase: Phase, band: usize, [fwd, bwd]: [u64; 2], out: &mut Vec<Segment>) {
        let f = &self.flops;
        let keyed =
            |class, flops, ordinal| Segment::compute_keyed(class, flops, nkey(band, ordinal));
        // Per scatter: its tag, the noise ordinals of the staging copies
        // before and after the exchange, and the pencil restage ordinal.
        let scatter = |kind| match kind {
            StageKind::ScatterFwd => (fwd, 11, 12, RESTAGE_FWD),
            StageKind::ScatterBwd => (bwd, 16, 17, RESTAGE_BWD),
            other => unreachable!("{other:?} is not a scatter"),
        };
        match phase {
            Phase::Run(kind @ (StageKind::Pack | StageKind::Unpack)) => {
                let (ordinal, tag) = match kind {
                    StageKind::Pack => (1, 0),
                    _ => (3, 1),
                };
                match self.pack {
                    None => out.push(keyed(kind.class(), f.pack, ordinal)),
                    Some((comm_key, size, bytes)) => out.extend([
                        keyed(kind.class(), f.pack / 2.0, ordinal),
                        Segment::Collective {
                            op: CommOp::Alltoallv,
                            comm_key,
                            size,
                            bytes,
                            tag,
                        },
                        keyed(kind.class(), f.pack / 2.0, ordinal + 1),
                    ]),
                }
            }
            Phase::Run(kind @ (StageKind::ScatterFwd | StageKind::ScatterBwd)) => {
                let (tag, before, after, restage) = scatter(kind);
                out.push(keyed(StateClass::Other, f.scatter_copy / 2.0, before));
                self.sc.blocking(tag, band, restage, out);
                out.push(keyed(StateClass::Other, f.scatter_copy / 2.0, after));
            }
            Phase::Run(kind) => {
                let (flops, ordinal) = match kind {
                    StageKind::FftZInv => (f.fft_z, 10),
                    StageKind::FftXyInv => (f.fft_xy, 13),
                    StageKind::Vofr => (f.vofr, 14),
                    StageKind::FftXyFwd => (f.fft_xy, 15),
                    StageKind::FftZFwd => (f.fft_z, 18),
                    other => unreachable!("{other:?} is not a band stage"),
                };
                out.push(keyed(kind.class(), flops, ordinal));
            }
            Phase::Post(kind) => {
                let (tag, before, _, _) = scatter(kind);
                out.push(keyed(StateClass::Other, f.scatter_copy / 4.0, before));
                out.push(self.sc.post(tag));
            }
            Phase::Wait(kind) => {
                let (tag, _, after, restage) = scatter(kind);
                self.sc.wait(tag, band, restage, out);
                out.push(keyed(StateClass::Other, f.scatter_copy / 4.0, after));
            }
        }
    }
}

/// Task-runtime overhead per task: dependency bookkeeping, scheduling, and
/// argument marshalling — the reason Table II's instructions-scalability
/// column sits below the original's.
fn runtime_overhead(flops: &StepFlops) -> f64 {
    0.01 * (2.0 * flops.fft_xy + 2.0 * flops.fft_z + flops.vofr)
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

    /// Total flops of all programs of a problem.
    fn total_program_flops(problem: &Problem) -> f64 {
        build_programs(problem).iter().map(|r| r.total_flops()).sum()
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
