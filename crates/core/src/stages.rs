//! The unified stage-graph execution core.
//!
//! Every engine in this crate runs the same per-band pipeline — pack,
//! z-FFT, forward scatter, xy-FFTs around VOFR, backward scatter, z-FFT,
//! unpack — as **one typed stage graph** executed by interchangeable
//! **scheduler policies**:
//!
//! * [`StageKind`] / [`StageNode`] / [`BAND_PIPELINE`] — the declarative
//!   graph: each stage declares which logical [`Slot`]s it reads and
//!   writes. Node ids are stable, so traces, histograms and recovery key
//!   on the graph instead of on per-mode label conventions.
//! * [`StageRunner`] — the one implementation of every stage's math and
//!   data movement against [`ExecPlan`]/[`BufferArena`], recording the
//!   per-stage trace spans ([`crate::recorder::Recorder::stage`]) once for
//!   all policies; its `transform` runs each FFT leg through a leg hook.
//! * The **serial batch loop** (`SerialRank`): the serial policy, batch
//!   rollback, ABFT verify and both eviction phases all run it, each with
//!   its own leg hook and replay rule.
//! * The **task-cut table** — how each [`SchedulerPolicy`] cuts one band
//!   into tasks: the band's tasks in chain order, each a list of phases
//!   (a whole stage, or one half of a split scatter).
//!   [`SchedulerPolicy::TaskPerStep`] (strategy 1) makes one task per
//!   stage, [`SchedulerPolicy::TaskPerFft`] (strategy 2) one task per
//!   band, [`SchedulerPolicy::TaskAsync`] splits strategy 1's scatters
//!   into post and wait tasks, and the paper's future-work
//!   [`SchedulerPolicy::Hybrid`] fuses the band into three tasks cut at
//!   the split scatters — head (pack + z-FFT + post), mid (wait +
//!   xy-FFTs/VOFR + post), tail (wait + z-FFT + unpack) — so the transfers
//!   overlap other bands' compute *and* the coarse tasks de-synchronise
//!   the compute phases across ranks. [`SchedulerPolicy::Serial`] (the
//!   original static loop) runs the band as one step.
//!
//! Both lowerings read that table. [`run_policy`] turns each task into a
//! [`fftx_taskrt::TaskGraph`] node whose dependencies — pure slots minted
//! by [`fftx_taskrt::SlotArena`] — are the union of its phases' slot
//! accesses; [`crate::modelplan`] turns each phase into its KNL-model
//! segments. A task that holds a wait defers to priority `b + nbnd` and
//! posts never block, so every rank drains all posts of a band before any
//! worker can idle in the matching wait: the schedule cannot deadlock.

use crate::config::{Decomposition, SchedulerPolicy};
use crate::plan::{BufferArena, ExecPlan};
use crate::problem::Problem;
use crate::recorder::Recorder;
use fftx_fft::{cft_1z, cft_2xy_sticks, opcount, Complex64, Direction};
use fftx_pw::{apply_potential_slab, assemble_shares, ProcessGrid, TaskGroupLayout};
use fftx_taskrt::{Dep, Handle, Runtime, Shared, SlotArena, TaskError, TaskGraph};
use fftx_trace::{StateClass, Trace, TraceSink};
use fftx_vmpi::{
    AlltoallRequest, ChaosConfig, Communicator, FaultReport, VmpiError, World,
};
use std::fmt;
use std::sync::Arc;

// ---------------------------------------------------------------------
// The stage graph
// ---------------------------------------------------------------------

/// A node of the per-band pipeline, with a stable numeric id used to key
/// trace spans and histograms across every scheduler policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StageKind {
    /// Clear/initialise the work buffers (the paper's "psi preparation").
    Prep,
    /// Deposit band shares onto the z-stick buffer.
    Pack,
    /// Inverse 1-D FFT batch along z.
    FftZInv,
    /// Forward scatter: sticks → plane slab (padded Alltoall).
    ScatterFwd,
    /// Inverse 2-D FFT batch over the owned planes.
    FftXyInv,
    /// Point-wise ψ(r)·V(r).
    Vofr,
    /// Forward 2-D FFT batch.
    FftXyFwd,
    /// Backward scatter: planes → sticks.
    ScatterBwd,
    /// Forward 1-D FFT batch along z.
    FftZFwd,
    /// Extract the band shares back out of the z-stick buffer.
    Unpack,
}

impl StageKind {
    /// Every stage, in pipeline order.
    pub const ALL: [StageKind; 10] = [
        StageKind::Prep,
        StageKind::Pack,
        StageKind::FftZInv,
        StageKind::ScatterFwd,
        StageKind::FftXyInv,
        StageKind::Vofr,
        StageKind::FftXyFwd,
        StageKind::ScatterBwd,
        StageKind::FftZFwd,
        StageKind::Unpack,
    ];

    /// Stable node id (the `stage` field of trace records).
    pub fn id(self) -> u32 {
        self as u32
    }

    /// The stage of node id `id`.
    pub fn from_id(id: u32) -> Option<StageKind> {
        Self::ALL.get(id as usize).copied()
    }

    /// Short name (doubles as the task-label stem, `"<name>[<band>]"`).
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Prep => "prep",
            StageKind::Pack => "pack",
            StageKind::FftZInv => "fftz-inv",
            StageKind::ScatterFwd => "scatter-fw",
            StageKind::FftXyInv => "fftxy-inv",
            StageKind::Vofr => "vofr",
            StageKind::FftXyFwd => "fftxy-fw",
            StageKind::ScatterBwd => "scatter-bw",
            StageKind::FftZFwd => "fftz-fw",
            StageKind::Unpack => "unpack",
        }
    }

    /// The trace state class of the stage's compute.
    pub fn class(self) -> StateClass {
        match self {
            StageKind::Prep => StateClass::PsiPrep,
            StageKind::Pack => StateClass::Pack,
            StageKind::FftZInv | StageKind::FftZFwd => StateClass::FftZ,
            StageKind::ScatterFwd | StageKind::ScatterBwd => StateClass::Other,
            StageKind::FftXyInv | StageKind::FftXyFwd => StateClass::FftXy,
            StageKind::Vofr => StateClass::Vofr,
            StageKind::Unpack => StateClass::Unpack,
        }
    }
}

/// A logical data slot of one band's pipeline. Policies decide where the
/// data actually lives; the graph only needs the slot identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// The band's share of the wavefunction (pipeline input and output).
    Share,
    /// The z-stick buffer.
    Zbuf,
    /// The xy-plane slab.
    Planes,
    /// The in-flight forward-scatter request (split-phase policies only).
    ReqFwd,
    /// The in-flight backward-scatter request.
    ReqBwd,
}

/// One stage with its declared slot accesses. A slot in both lists is an
/// `inout` dependency.
#[derive(Debug, Clone, Copy)]
pub struct StageNode {
    /// Which stage.
    pub kind: StageKind,
    /// Slots the stage reads.
    pub reads: &'static [Slot],
    /// Slots the stage writes.
    pub writes: &'static [Slot],
}

/// The per-band pipeline as task-graph nodes. `Prep` is absent: a
/// multi-task cut gives every band fresh zeroed buffers (prep is what a
/// fresh allocation already did), while the serial policy and a one-task
/// cut run it explicitly against a reused arena.
pub const BAND_PIPELINE: [StageNode; 9] = [
    StageNode {
        kind: StageKind::Pack,
        reads: &[Slot::Share],
        writes: &[Slot::Zbuf],
    },
    StageNode {
        kind: StageKind::FftZInv,
        reads: &[Slot::Zbuf],
        writes: &[Slot::Zbuf],
    },
    StageNode {
        kind: StageKind::ScatterFwd,
        reads: &[Slot::Zbuf, Slot::Planes],
        writes: &[Slot::Planes],
    },
    StageNode {
        kind: StageKind::FftXyInv,
        reads: &[Slot::Planes],
        writes: &[Slot::Planes],
    },
    StageNode {
        kind: StageKind::Vofr,
        reads: &[Slot::Planes],
        writes: &[Slot::Planes],
    },
    StageNode {
        kind: StageKind::FftXyFwd,
        reads: &[Slot::Planes],
        writes: &[Slot::Planes],
    },
    StageNode {
        kind: StageKind::ScatterBwd,
        reads: &[Slot::Planes, Slot::Zbuf],
        writes: &[Slot::Zbuf],
    },
    StageNode {
        kind: StageKind::FftZFwd,
        reads: &[Slot::Zbuf],
        writes: &[Slot::Zbuf],
    },
    StageNode {
        kind: StageKind::Unpack,
        reads: &[Slot::Zbuf],
        writes: &[Slot::Share],
    },
];

/// One band's dependency slots, minted fresh per band (bands are mutually
/// independent; the slots only order the stages *within* a band).
#[derive(Debug, Clone, Copy)]
pub struct BandSlots {
    share: Handle,
    zbuf: Handle,
    planes: Handle,
    req_fwd: Handle,
    req_bwd: Handle,
}

impl BandSlots {
    /// Mints the five slots of one band.
    pub fn mint(arena: &mut SlotArena) -> Self {
        BandSlots {
            share: arena.mint(),
            zbuf: arena.mint(),
            planes: arena.mint(),
            req_fwd: arena.mint(),
            req_bwd: arena.mint(),
        }
    }

    /// The handle backing `slot`.
    pub fn handle(&self, slot: Slot) -> Handle {
        match slot {
            Slot::Share => self.share,
            Slot::Zbuf => self.zbuf,
            Slot::Planes => self.planes,
            Slot::ReqFwd => self.req_fwd,
            Slot::ReqBwd => self.req_bwd,
        }
    }
}

impl StageNode {
    /// The node's dependency list over one band's slots: read-only slots
    /// become `in`, write-only `out`, read+write `inout`.
    pub fn deps(&self, slots: &BandSlots) -> Vec<Dep> {
        let mut deps = Vec::with_capacity(self.reads.len() + self.writes.len());
        for &s in self.reads {
            if self.writes.contains(&s) {
                deps.push(slots.handle(s).dep_inout());
            } else {
                deps.push(slots.handle(s).dep_in());
            }
        }
        for &s in self.writes {
            if !self.reads.contains(&s) {
                deps.push(slots.handle(s).dep_out());
            }
        }
        deps
    }
}

// ---------------------------------------------------------------------
// The task-cut table: how each policy cuts one band into tasks
// ---------------------------------------------------------------------

/// One phase of a band's pipeline as a task runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// A [`BAND_PIPELINE`] stage, run whole (a scatter blocks).
    Run(StageKind),
    /// The post half of a split scatter: stage the send and post it.
    Post(StageKind),
    /// The wait half of a split scatter: complete it and unstage.
    Wait(StageKind),
}

impl Phase {
    /// The slots the phase reads and writes. A whole stage declares them
    /// in [`BAND_PIPELINE`]; a post reads the scatter's source buffer and
    /// fills its request; a wait completes the request into the scatter's
    /// destination.
    fn access(self) -> (&'static [Slot], &'static [Slot]) {
        use Slot::{Planes, ReqBwd, ReqFwd, Zbuf};
        match self {
            Phase::Run(kind) => {
                let node = BAND_PIPELINE
                    .iter()
                    .find(|n| n.kind == kind)
                    .unwrap_or_else(|| unreachable!("{kind:?} is not a band stage"));
                (node.reads, node.writes)
            }
            Phase::Post(StageKind::ScatterFwd) => (&[Zbuf], &[ReqFwd]),
            Phase::Wait(StageKind::ScatterFwd) => (&[ReqFwd, Planes], &[ReqFwd, Planes]),
            Phase::Post(StageKind::ScatterBwd) => (&[Planes], &[ReqBwd]),
            Phase::Wait(StageKind::ScatterBwd) => (&[ReqBwd, Zbuf], &[ReqBwd, Zbuf]),
            other => unreachable!("{other:?} is not a split scatter"),
        }
    }
}

impl fmt::Display for Phase {
    /// The label stem of a one-phase task: `fftz-inv`, `scatter-fw-post`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Run(k) => f.write_str(k.name()),
            Phase::Post(k) => write!(f, "{}-post", k.name()),
            Phase::Wait(k) => write!(f, "{}-wait", k.name()),
        }
    }
}

/// One task of a cut: its label stem and the phases it runs, in order.
/// A one-phase task of a multi-task cut is named after its phase instead.
pub(crate) type CutTask = (&'static str, &'static [Phase]);

/// How `policy` cuts one band into tasks, in chain order. This table is
/// the one place that says how a policy schedules the pipeline: the real
/// engine ([`run_policy`]) and the KNL model
/// ([`crate::modelplan::build_programs`]) both lower it. The serial
/// policy runs the whole band as one step, like task-per-FFT.
pub(crate) fn band_cut(policy: SchedulerPolicy) -> &'static [CutTask] {
    use Phase::{Post, Run, Wait};
    use StageKind::{
        FftXyFwd, FftXyInv, FftZFwd, FftZInv, Pack, ScatterBwd, ScatterFwd, Unpack, Vofr,
    };
    const BAND: &[CutTask] = &[(
        "fft-band",
        &[
            Run(Pack),
            Run(FftZInv),
            Run(ScatterFwd),
            Run(FftXyInv),
            Run(Vofr),
            Run(FftXyFwd),
            Run(ScatterBwd),
            Run(FftZFwd),
            Run(Unpack),
        ],
    )];
    // Strategy 1 (Fig. 4): one task per stage, flow dependencies.
    const STEPS: &[CutTask] = &[
        ("", &[Run(Pack)]),
        ("", &[Run(FftZInv)]),
        ("", &[Run(ScatterFwd)]),
        ("", &[Run(FftXyInv)]),
        ("", &[Run(Vofr)]),
        ("", &[Run(FftXyFwd)]),
        ("", &[Run(ScatterBwd)]),
        ("", &[Run(FftZFwd)]),
        ("", &[Run(Unpack)]),
    ];
    // Strategy 1 with each scatter split into a post task (never blocks)
    // and a wait task (blocks only for the unoverlapped remainder).
    const ASYNC: &[CutTask] = &[
        ("", &[Run(Pack)]),
        ("", &[Run(FftZInv)]),
        ("", &[Post(ScatterFwd)]),
        ("", &[Wait(ScatterFwd)]),
        ("", &[Run(FftXyInv)]),
        ("", &[Run(Vofr)]),
        ("", &[Run(FftXyFwd)]),
        ("", &[Post(ScatterBwd)]),
        ("", &[Wait(ScatterBwd)]),
        ("", &[Run(FftZFwd)]),
        ("", &[Run(Unpack)]),
    ];
    // The band fused into three tasks cut exactly at the split scatters.
    const HYBRID: &[CutTask] = &[
        ("hyb-head", &[Run(Pack), Run(FftZInv), Post(ScatterFwd)]),
        (
            "hyb-mid",
            &[
                Wait(ScatterFwd),
                Run(FftXyInv),
                Run(Vofr),
                Run(FftXyFwd),
                Post(ScatterBwd),
            ],
        ),
        ("hyb-tail", &[Wait(ScatterBwd), Run(FftZFwd), Run(Unpack)]),
    ];
    match policy {
        SchedulerPolicy::Serial | SchedulerPolicy::TaskPerFft => BAND,
        SchedulerPolicy::TaskPerStep => STEPS,
        SchedulerPolicy::TaskAsync => ASYNC,
        SchedulerPolicy::Hybrid => HYBRID,
    }
}

/// Band `b`'s tasks under `cut`, in chain order: each task's label,
/// priority and phases. The one task of a one-task cut is the band itself
/// (`fft-band-b`); a one-phase task is named after its phase
/// (`scatter-fw-post[b]`), a fused one after its stem (`hyb-mid[b]`). A
/// task that holds a wait defers to priority `b + nbnd`: the transfer
/// progresses on its own, so workers prefer every band's compute and
/// posts meanwhile.
pub(crate) fn band_tasks(
    cut: &'static [CutTask],
    b: usize,
    nbnd: usize,
) -> impl Iterator<Item = (String, u64, &'static [Phase])> {
    cut.iter().map(move |&(stem, phases)| {
        let label = match phases {
            _ if cut.len() == 1 => format!("{stem}-{b}"),
            [phase] => format!("{phase}[{b}]"),
            _ => format!("{stem}[{b}]"),
        };
        let waits = phases.iter().any(|p| matches!(p, Phase::Wait(_)));
        (label, (if waits { b + nbnd } else { b }) as u64, phases)
    })
}

/// The tags of band `b`'s forward and backward scatters under a cut of
/// `ntasks` tasks: one task runs both scatters in turn, so both use `b`;
/// split tasks can hold both in flight, so they use `2b` and `2b + 1`.
/// (The serial policy's band batches use tag 0.)
pub(crate) fn scatter_tags(ntasks: usize, b: usize) -> [u32; 2] {
    if ntasks == 1 {
        [b as u32; 2]
    } else {
        [(2 * b) as u32, (2 * b + 1) as u32]
    }
}

/// The dependency list of task `n` of `cut` over one band's slots: the
/// union of its phases' slot accesses in first-touch order — `in` when the
/// task reads the value it finds, `out` when it only overwrites it,
/// `inout` when both. A one-task cut computes in the worker's arena, so of
/// its slots only the share, the band's input and output, is a dependency.
fn task_deps(cut: &[CutTask], n: usize, slots: &BandSlots) -> Vec<Dep> {
    // (slot, read before written, written)
    let mut seen: Vec<(Slot, bool, bool)> = Vec::with_capacity(5);
    for phase in cut[n].1 {
        let (reads, writes) = phase.access();
        for &s in reads {
            if !seen.iter().any(|e| e.0 == s) {
                seen.push((s, true, false));
            }
        }
        for &s in writes {
            match seen.iter_mut().find(|e| e.0 == s) {
                Some(e) => e.2 = true,
                None => seen.push((s, false, true)),
            }
        }
    }
    seen.into_iter()
        .filter(|e| cut.len() > 1 || e.0 == Slot::Share)
        .map(|(s, read, written)| {
            let h = slots.handle(s);
            match (read, written) {
                (true, true) => h.dep_inout(),
                (true, false) => h.dep_in(),
                _ => h.dep_out(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Scatter communicators (the decomposition axis at the transport level)
// ---------------------------------------------------------------------

/// The row/column communicator pair of the pencil lowering: `row` spans
/// the p2 ranks sharing a process-grid row (member index = column),
/// `col` the p1 ranks sharing a column (member index = row).
pub struct PencilComms {
    /// Row communicator (phase-1 exchange, size p2).
    pub row: Communicator,
    /// Column communicator (phase-2 exchange, size p1).
    pub col: Communicator,
}

/// The communicator bundle of the scatter exchange — the transport half of
/// the decomposition axis. Slab uses `full` directly; pencil additionally
/// carries the row/column split of the family. Both row and column
/// exchanges reuse the caller's tag: the communicators are distinct, so
/// their matching spaces never collide.
pub struct ScatterComms {
    /// The whole scatter family.
    pub full: Communicator,
    /// The pencil split, when the plan is lowered for pencil.
    pub pencil: Option<PencilComms>,
}

impl ScatterComms {
    /// Builds the bundle over a scatter-family communicator. The pencil
    /// splits are collective over `full`, so every family member must call
    /// this in the same order (exactly like the splits that created `full`
    /// itself).
    pub fn new(full: Communicator, decomp: Decomposition) -> Self {
        let pencil = match decomp {
            Decomposition::Slab => None,
            Decomposition::Pencil => {
                let pg = ProcessGrid::factor(full.size());
                let g = full.rank();
                let row = full.split(pg.row(g) as u64, pg.col(g));
                let col = full.split(pg.col(g) as u64, pg.row(g));
                Some(PencilComms { row, col })
            }
        };
        ScatterComms { full, pencil }
    }

    /// The communicator a scatter *post* goes out on: the row half under
    /// pencil (phase 2 completes in the wait), the full family under slab.
    pub fn post_comm(&self) -> &Communicator {
        self.pencil.as_ref().map_or(&self.full, |p| &p.row)
    }
}

// ---------------------------------------------------------------------
// Plan bundle (the one re-plan path)
// ---------------------------------------------------------------------

/// Execution plan plus flop estimates for one task group — everything a
/// [`StageRunner`] needs that depends on the layout. Built once per rank
/// through [`StagePlan::for_problem`]; recovery's eviction path rebuilds it
/// through [`StagePlan::for_layout_decomp`] after shrinking the world.
pub struct StagePlan {
    /// Precomputed index tables and interned FFT plans.
    pub plan: Arc<ExecPlan>,
    /// Per-stage flop estimates for the trace counters.
    pub flops: StepFlops,
}

impl StagePlan {
    /// The plan of task group `g` of the problem's own layout.
    pub fn for_problem(problem: &Problem, g: usize) -> Self {
        StagePlan {
            plan: Arc::clone(problem.exec_plan(g)),
            flops: StepFlops::for_group(problem, g),
        }
    }

    /// A plan for task group `g` of an explicit layout under `decomp` (the
    /// mid-run re-plan after a rank eviction, where the layout is only
    /// known at runtime and the survivors keep the decomposition the run
    /// started with).
    pub fn for_layout_decomp(l: &TaskGroupLayout, g: usize, decomp: Decomposition) -> Self {
        StagePlan {
            plan: Arc::new(ExecPlan::for_layout_decomp(l, g, decomp)),
            flops: StepFlops::for_layout(l, g),
        }
    }

    /// A runner over this plan for one rank's recorder.
    pub fn runner<'a>(&'a self, v: &'a [f64], rec: &'a Recorder) -> StageRunner<'a> {
        StageRunner {
            plan: &self.plan,
            v,
            flops: &self.flops,
            rec,
        }
    }
}

// ---------------------------------------------------------------------
// Stage bodies
// ---------------------------------------------------------------------

/// Stages the pack send: the T band shares of iteration base `base`,
/// flattened member-major into `sharebuf` with per-member `counts`.
fn stage_pack_sends(
    shares: &[Vec<Complex64>],
    base: usize,
    t: usize,
    sharebuf: &mut Vec<Complex64>,
    counts: &mut Vec<usize>,
) {
    sharebuf.clear();
    counts.clear();
    for j in 0..t {
        let s = &shares[base + j];
        sharebuf.extend_from_slice(s);
        counts.push(s.len());
    }
}

/// Scatters the flat unpack receive back into the band shares (member `j`
/// returned this rank's share of band `base + j`), reusing each share's
/// capacity.
fn unstage_unpack_recv(
    shares: &mut [Vec<Complex64>],
    base: usize,
    sharebuf: &[Complex64],
    recv_counts: &[usize],
) {
    let mut off = 0;
    for (j, &n) in recv_counts.iter().enumerate() {
        let dst = &mut shares[base + j];
        dst.clear();
        dst.extend_from_slice(&sharebuf[off..off + n]);
        off += n;
    }
}

/// Executes stages for one rank: the single implementation of every
/// stage's math and data movement, shared by all scheduler policies and by
/// the recovery engine. Each method records the stage's trace span and the
/// compute bursts the engines always recorded (classes, flop estimates and
/// order are unchanged — traces stay comparable across the refactor).
pub struct StageRunner<'a> {
    /// Precomputed tables.
    pub plan: &'a ExecPlan,
    /// The local potential V(r).
    pub v: &'a [f64],
    /// Flop estimates.
    pub flops: &'a StepFlops,
    /// The rank's recorder.
    pub rec: &'a Recorder,
}

impl StageRunner<'_> {
    fn span<R>(&self, kind: StageKind, band: usize, f: impl FnOnce() -> R) -> R {
        self.rec.stage(kind.id(), band, f)
    }

    /// `Prep`: re-zero the reused work buffers (serial policy and fused
    /// per-band tasks, whose arenas carry state between bands).
    pub fn prep(&self, band: usize, zbuf: &mut Vec<Complex64>, planes: &mut Vec<Complex64>) {
        self.span(StageKind::Prep, band, || {
            self.rec.compute(StateClass::PsiPrep, self.flops.prep, || {
                self.plan.prep(zbuf, planes);
            })
        })
    }

    /// `Pack`, local form (task layouts have T = 1: the "redistribution"
    /// is a deposit of the rank's own share).
    pub fn pack_local(&self, band: usize, share: &[Complex64], zbuf: &mut [Complex64]) {
        self.span(StageKind::Pack, band, || {
            self.rec.compute(StateClass::Pack, self.flops.pack, || {
                self.plan.deposit_member(0, share, zbuf);
            })
        })
    }

    /// `Pack`, collective form (serial policy): every member contributes
    /// its share of each of the batch's T bands via `alltoallv`.
    pub fn pack_exchange(
        &self,
        base: usize,
        shares: &[Vec<Complex64>],
        pack_comm: &Communicator,
        a: &mut BufferArena,
    ) -> Result<(), VmpiError> {
        self.span(StageKind::Pack, base, || {
            self.rec.compute(StateClass::Pack, self.flops.pack / 2.0, || {
                stage_pack_sends(shares, base, self.plan.t, &mut a.sharebuf, &mut a.counts);
            });
            pack_comm.try_alltoallv_into(
                &a.sharebuf,
                &a.counts,
                &mut a.groupbuf,
                &mut a.recv_counts,
                0,
            )?;
            self.rec.compute(StateClass::Pack, self.flops.pack / 2.0, || {
                self.plan.deposit_stream(&a.groupbuf, &mut a.zbuf);
            });
            Ok(())
        })
    }

    /// `FftZInv`/`FftZFwd`: the 1-D FFT batch over the group's sticks.
    pub fn fft_z(
        &self,
        kind: StageKind,
        band: usize,
        zbuf: &mut [Complex64],
        scratch: &mut Vec<Complex64>,
    ) {
        let dir = match kind {
            StageKind::FftZInv => Direction::Inverse,
            StageKind::FftZFwd => Direction::Forward,
            other => unreachable!("fft_z stage kind {other:?}"),
        };
        self.span(kind, band, || {
            self.rec.compute(StateClass::FftZ, self.flops.fft_z, || {
                cft_1z(
                    &self.plan.z,
                    zbuf,
                    self.plan.nst,
                    self.plan.grid.nr3,
                    dir,
                    scratch,
                );
            })
        })
    }

    /// `FftXyInv`/`FftXyFwd`: the 2-D FFT batch over the owned planes,
    /// restricted to the plan's stick rows (inverse) and stick columns
    /// (forward) — bit-identical on every position the pipeline reads.
    /// The recorded flop estimate stays the dense one the model prices.
    pub fn fft_xy(
        &self,
        kind: StageKind,
        band: usize,
        planes: &mut [Complex64],
        scratch: &mut Vec<Complex64>,
        col: &mut Vec<Complex64>,
    ) {
        let dir = match kind {
            StageKind::FftXyInv => Direction::Inverse,
            StageKind::FftXyFwd => Direction::Forward,
            other => unreachable!("fft_xy stage kind {other:?}"),
        };
        self.span(kind, band, || {
            self.rec.compute(StateClass::FftXy, self.flops.fft_xy, || {
                cft_2xy_sticks(
                    &self.plan.x,
                    &self.plan.y,
                    planes,
                    self.plan.npp,
                    self.plan.grid.nr1,
                    self.plan.grid.nr2,
                    &self.plan.stick_rows,
                    &self.plan.stick_cols,
                    dir,
                    scratch,
                    col,
                );
            })
        })
    }

    /// `Vofr`: apply the local potential on the owned slab.
    pub fn vofr(&self, band: usize, planes: &mut [Complex64]) {
        self.span(StageKind::Vofr, band, || {
            self.rec.compute(StateClass::Vofr, self.flops.vofr, || {
                apply_potential_slab(planes, self.v, &self.plan.grid, self.plan.z0, self.plan.npp);
            })
        })
    }

    /// The exchange leg of a blocking scatter: one full-family alltoall
    /// under slab; row alltoall → chunk-transpose restage → column
    /// alltoall under pencil. Phase 2 lands the receive buffer in slab
    /// order (see [`ExecPlan::pencil_restage`]), so the unpack side is
    /// decomposition-blind. Both phases reuse `tag` — the communicators
    /// differ, so the matching spaces are disjoint.
    fn scatter_exchange(
        &self,
        sc: &ScatterComms,
        tag: u32,
        send: &[Complex64],
        recv: &mut Vec<Complex64>,
        mid: &mut Vec<Complex64>,
    ) -> Result<(), VmpiError> {
        match &sc.pencil {
            None => sc.full.try_alltoall_into(send, recv, tag),
            Some(p) => {
                p.row.try_alltoall_into(send, recv, tag)?;
                self.rec
                    .compute(StateClass::Other, self.flops.scatter_copy / 2.0, || {
                        self.plan.pencil_restage(recv, mid);
                    });
                p.col.try_alltoall_into(mid, recv, tag)
            }
        }
    }

    /// Completes a split-phase scatter: wait for the posted phase (the row
    /// alltoall under pencil, the whole exchange under slab), then run
    /// pencil's restage + blocking column alltoall. The column exchange
    /// inside a wait cannot deadlock: waits of band `b` carry deferred
    /// priority `b + nbnd` on every rank, so all ranks order their
    /// outstanding column collectives identically (see DESIGN.md §18).
    fn scatter_finish(
        &self,
        sc: &ScatterComms,
        tag: u32,
        req: AlltoallRequest<Complex64>,
        recv: &mut Vec<Complex64>,
        mid: &mut Vec<Complex64>,
    ) -> Result<(), VmpiError> {
        req.try_wait_into(recv)?;
        if let Some(p) = &sc.pencil {
            self.rec
                .compute(StateClass::Other, self.flops.scatter_copy / 2.0, || {
                    self.plan.pencil_restage(recv, mid);
                });
            p.col.try_alltoall_into(mid, recv, tag)?;
        }
        Ok(())
    }

    /// `ScatterFwd`, fused blocking form: pack sticks, padded exchange
    /// (one or two alltoalls per the decomposition), unpack onto the plane
    /// slab.
    #[allow(clippy::too_many_arguments)]
    pub fn scatter_fwd(
        &self,
        band: usize,
        sc: &ScatterComms,
        tag: u32,
        zbuf: &[Complex64],
        planes: &mut [Complex64],
        send: &mut Vec<Complex64>,
        recv: &mut Vec<Complex64>,
        mid: &mut Vec<Complex64>,
    ) -> Result<(), VmpiError> {
        self.span(StageKind::ScatterFwd, band, || {
            self.rec
                .compute(StateClass::Other, self.flops.scatter_copy / 2.0, || {
                    self.plan.scatter_pack(zbuf, send);
                });
            self.scatter_exchange(sc, tag, send, recv, mid)?;
            self.rec
                .compute(StateClass::Other, self.flops.scatter_copy / 2.0, || {
                    self.plan.scatter_unpack_to_planes(recv, planes);
                });
            Ok(())
        })
    }

    /// `ScatterFwd`, split-phase post half: never blocks — the transport
    /// stages its own copy of the send, so the staging buffer is free for
    /// reuse the moment the post returns. Under pencil this posts the row
    /// phase; the wait half completes the column phase.
    pub fn scatter_fwd_post(
        &self,
        band: usize,
        sc: &ScatterComms,
        tag: u32,
        zbuf: &[Complex64],
        send: &mut Vec<Complex64>,
    ) -> AlltoallRequest<Complex64> {
        self.span(StageKind::ScatterFwd, band, || {
            self.rec
                .compute(StateClass::Other, self.flops.scatter_copy / 4.0, || {
                    self.plan.scatter_pack(zbuf, send);
                });
            sc.post_comm().ialltoall(send, tag)
        })
    }

    /// `ScatterFwd`, split-phase wait half: blocks only for the
    /// unoverlapped remainder of the transfer (plus, under pencil, the
    /// column exchange).
    #[allow(clippy::too_many_arguments)]
    pub fn scatter_fwd_wait(
        &self,
        band: usize,
        sc: &ScatterComms,
        tag: u32,
        req: AlltoallRequest<Complex64>,
        planes: &mut [Complex64],
        recv: &mut Vec<Complex64>,
        mid: &mut Vec<Complex64>,
    ) -> Result<(), VmpiError> {
        self.span(StageKind::ScatterFwd, band, || {
            self.scatter_finish(sc, tag, req, recv, mid)?;
            self.rec
                .compute(StateClass::Other, self.flops.scatter_copy / 4.0, || {
                    self.plan.scatter_unpack_to_planes(recv, planes);
                });
            Ok(())
        })
    }

    /// `ScatterBwd`, fused blocking form.
    #[allow(clippy::too_many_arguments)]
    pub fn scatter_bwd(
        &self,
        band: usize,
        sc: &ScatterComms,
        tag: u32,
        planes: &[Complex64],
        zbuf: &mut [Complex64],
        send: &mut Vec<Complex64>,
        recv: &mut Vec<Complex64>,
        mid: &mut Vec<Complex64>,
    ) -> Result<(), VmpiError> {
        self.span(StageKind::ScatterBwd, band, || {
            self.rec
                .compute(StateClass::Other, self.flops.scatter_copy / 2.0, || {
                    self.plan.planes_to_scatter(planes, send);
                });
            self.scatter_exchange(sc, tag, send, recv, mid)?;
            self.rec
                .compute(StateClass::Other, self.flops.scatter_copy / 2.0, || {
                    self.plan.zbuf_from_scatter(recv, zbuf);
                });
            Ok(())
        })
    }

    /// `ScatterBwd`, split-phase post half.
    pub fn scatter_bwd_post(
        &self,
        band: usize,
        sc: &ScatterComms,
        tag: u32,
        planes: &[Complex64],
        send: &mut Vec<Complex64>,
    ) -> AlltoallRequest<Complex64> {
        self.span(StageKind::ScatterBwd, band, || {
            self.rec
                .compute(StateClass::Other, self.flops.scatter_copy / 4.0, || {
                    self.plan.planes_to_scatter(planes, send);
                });
            sc.post_comm().ialltoall(send, tag)
        })
    }

    /// `ScatterBwd`, split-phase wait half.
    #[allow(clippy::too_many_arguments)]
    pub fn scatter_bwd_wait(
        &self,
        band: usize,
        sc: &ScatterComms,
        tag: u32,
        req: AlltoallRequest<Complex64>,
        zbuf: &mut [Complex64],
        recv: &mut Vec<Complex64>,
        mid: &mut Vec<Complex64>,
    ) -> Result<(), VmpiError> {
        self.span(StageKind::ScatterBwd, band, || {
            self.scatter_finish(sc, tag, req, recv, mid)?;
            self.rec
                .compute(StateClass::Other, self.flops.scatter_copy / 4.0, || {
                    self.plan.zbuf_from_scatter(recv, zbuf);
                });
            Ok(())
        })
    }

    /// `Unpack`, local form: back to the band share.
    pub fn unpack_local(&self, band: usize, zbuf: &[Complex64], share: &mut Vec<Complex64>) {
        self.span(StageKind::Unpack, band, || {
            self.rec.compute(StateClass::Unpack, self.flops.pack, || {
                self.plan.extract_member(0, zbuf, share);
            })
        })
    }

    /// `Unpack`, collective form: give every member back its share.
    pub fn unpack_exchange(
        &self,
        base: usize,
        shares: &mut [Vec<Complex64>],
        pack_comm: &Communicator,
        a: &mut BufferArena,
    ) -> Result<(), VmpiError> {
        self.span(StageKind::Unpack, base, || {
            self.rec.compute(StateClass::Unpack, self.flops.pack / 2.0, || {
                self.plan
                    .extract_stream(&a.zbuf, &mut a.groupbuf, &mut a.counts);
            });
            pack_comm.try_alltoallv_into(
                &a.groupbuf,
                &a.counts,
                &mut a.sharebuf,
                &mut a.recv_counts,
                1,
            )?;
            self.rec.compute(StateClass::Unpack, self.flops.pack / 2.0, || {
                unstage_unpack_recv(shares, base, &a.sharebuf, &a.recv_counts);
            });
            Ok(())
        })
    }

    /// The pipeline middle (z-FFT → scatter → xy-FFTs/VOFR → scatter →
    /// z-FFT) over the arena's buffers, each of the four FFT legs run
    /// through `hook` (see [`LegHook`]). `tag` keeps concurrent scatters of
    /// different bands apart.
    pub(crate) fn transform(
        &self,
        band: usize,
        sc: &ScatterComms,
        tag: u32,
        a: &mut BufferArena,
        hook: &mut LegHook<'_>,
    ) -> Result<(), VmpiError> {
        let BufferArena {
            zbuf,
            planes,
            scratch,
            col,
            scatter_send,
            scatter_recv,
            pencil_mid,
            ..
        } = a;
        hook(0, zbuf, &mut |b| self.fft_z(StageKind::FftZInv, band, b, scratch))?;
        self.scatter_fwd(band, sc, tag, zbuf, planes, scatter_send, scatter_recv, pencil_mid)?;
        hook(1, planes, &mut |b| self.fft_xy(StageKind::FftXyInv, band, b, scratch, col))?;
        self.vofr(band, planes);
        hook(2, planes, &mut |b| self.fft_xy(StageKind::FftXyFwd, band, b, scratch, col))?;
        self.scatter_bwd(band, sc, tag, planes, zbuf, scatter_send, scatter_recv, pencil_mid)?;
        hook(3, zbuf, &mut |b| self.fft_z(StageKind::FftZFwd, band, b, scratch))
    }

    /// One band batch of the serial policy (bands `base .. base + T`):
    /// prep, collective pack, transform (its legs run through `hook`),
    /// collective unpack — every collective fallible. This is the replay
    /// unit of [`SerialRank::run`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn band_batch(
        &self,
        base: usize,
        pack_comm: &Communicator,
        scatter_comm: &ScatterComms,
        shares: &mut [Vec<Complex64>],
        a: &mut BufferArena,
        hook: &mut LegHook<'_>,
    ) -> Result<(), VmpiError> {
        self.prep(base, &mut a.zbuf, &mut a.planes);
        self.pack_exchange(base, shares, pack_comm, a)?;
        self.transform(base, scatter_comm, 0, a, hook)?;
        self.unpack_exchange(base, shares, pack_comm, a)?;
        Ok(())
    }

    /// One whole band as a single fused body (the task-per-FFT policy and
    /// recovery's retryable band tasks): idempotent over the input
    /// snapshot — read the share, compute in the worker's arena (prep
    /// re-zeroes it on every attempt), write the share last.
    pub(crate) fn band_fused(
        &self,
        band: usize,
        sc: &ScatterComms,
        share: &Shared<Vec<Complex64>>,
        a: &mut BufferArena,
    ) -> Result<(), VmpiError> {
        self.prep(band, &mut a.zbuf, &mut a.planes);
        self.pack_local(band, &share.read(), &mut a.zbuf);
        self.transform(band, sc, band as u32, a, &mut |_, buf, run| {
            run(buf);
            Ok(())
        })?;
        self.unpack_local(band, &a.zbuf, &mut share.write());
        Ok(())
    }
}

/// The hook each FFT leg of [`StageRunner::transform`] runs through. It
/// gets the leg's index (0 z inverse, 1 xy inverse, 2 xy forward, 3 z
/// forward), the leg's buffer and a closure that runs the leg on a
/// buffer. It may run that closure more than once (full-mode verify
/// recomputes a leg), or fail the batch instead of running it.
pub(crate) type LegHook<'h> = dyn FnMut(
        usize,
        &mut [Complex64],
        &mut dyn FnMut(&mut [Complex64]),
    ) -> Result<(), VmpiError>
    + 'h;

// ---------------------------------------------------------------------
// Running a problem under a scheduler policy
// ---------------------------------------------------------------------

/// Result of a real execution.
pub struct RunOutput {
    /// Updated bands, reassembled into canonical order.
    pub bands: Vec<Vec<Complex64>>,
    /// The recorded trace (compute bursts, MPI calls, tasks, stage spans).
    pub trace: Trace,
    /// FFT-phase wall time: max over ranks of the barrier-to-barrier span.
    pub fft_phase_s: f64,
}

/// Per-iteration flop estimates used for trace counters.
pub struct StepFlops {
    /// PsiPrep (buffer clearing).
    pub prep: f64,
    /// Pack/unpack deposit copies.
    pub pack: f64,
    /// The z-FFT batch.
    pub fft_z: f64,
    /// Local copies around the scatter.
    pub scatter_copy: f64,
    /// The xy-FFT batch.
    pub fft_xy: f64,
    /// The VOFR point-wise multiply.
    pub vofr: f64,
}

impl StepFlops {
    /// Estimates for the rank in task group `g`.
    pub fn for_group(problem: &Problem, g: usize) -> Self {
        Self::for_layout(&problem.layout, g)
    }

    /// Estimates for task group `g` of an explicit layout (the recovery
    /// engine re-plans the layout mid-run, away from the problem's own).
    pub fn for_layout(l: &TaskGroupLayout, g: usize) -> Self {
        let grid = l.grid;
        let nst = l.nst_group(g);
        let npp = l.npp(g);
        let plane = grid.nr1 * grid.nr2;
        StepFlops {
            // The prep phase clears/initialises both work buffers (the
            // paper's conspicuous low-IPC "psi preparation" segment).
            prep: opcount::copy_flops(nst * grid.nr3 + npp * plane),
            pack: opcount::copy_flops(l.ngw_group(g)),
            fft_z: opcount::fft_z_batch_flops(grid.nr3, nst),
            scatter_copy: opcount::copy_flops(nst * grid.nr3 + npp * plane),
            fft_xy: opcount::fft_xy_batch_flops(grid.nr1, grid.nr2, npp),
            vofr: opcount::pointwise_mul_flops(npp * plane),
        }
    }
}

/// Runs the problem under `policy` and returns the reassembled bands,
/// trace and FFT-phase time.
pub fn run_policy(problem: &Arc<Problem>, policy: SchedulerPolicy) -> RunOutput {
    run_policy_chaotic(problem, policy, None).0
}

/// [`run_policy`] with explicit chaos injection: when `chaos` is `Some`,
/// the transport perturbs message timing per the seeded config (the output
/// must be bit-identical — chaos is lossless by construction) and the
/// fault schedule comes back alongside the run. `None` defers to the
/// `FFTX_CHAOS_*` environment, like every `World`.
pub fn run_policy_chaotic(
    problem: &Arc<Problem>,
    policy: SchedulerPolicy,
    chaos: Option<ChaosConfig>,
) -> (RunOutput, Option<FaultReport>) {
    let cfg = problem.config;
    assert_eq!(
        cfg.mode, policy,
        "run_policy: config mode must match the scheduler policy"
    );
    let sink = TraceSink::new();
    let mut world = World::new(cfg.vmpi_ranks()).with_trace(sink.clone());
    if let Some(c) = chaos {
        world = world.with_chaos(c);
    }
    let results = world.run(|comm| match policy {
        SchedulerPolicy::Serial => {
            let mut rank = SerialRank::start(problem, comm);
            let span = rank
                .run(0, cfg.iterations(), &mut Plain, |_, _| Ok(()))
                .and_then(|()| rank.finish())
                .unwrap_or_else(|e| panic!("{e}"));
            (rank.shares, span)
        }
        _ => rank_tasks(problem, comm, policy),
    });
    let report = world.fault_report();
    (finish_run(&problem.layout, sink, results), report)
}

/// Reassembles bands from per-rank shares, in rank order of layout `l`,
/// and closes the trace. The shares are moved into the assembly, not
/// copied.
pub(crate) fn finish_run(
    l: &TaskGroupLayout,
    sink: TraceSink,
    results: Vec<(RankShares, f64)>,
) -> RunOutput {
    let fft_phase_s = results
        .iter()
        .map(|(_, t)| *t)
        .fold(0.0_f64, f64::max);
    let nbnd = results.first().map_or(0, |(s, _)| s.len());
    let mut ranks: Vec<_> = results.into_iter().map(|(s, _)| s.into_iter()).collect();
    let bands = (0..nbnd)
        .map(|_| {
            let shares: Vec<Vec<Complex64>> = ranks
                .iter_mut()
                .map(|s| s.next().expect("every rank holds a share of every band"))
                .collect();
            assemble_shares(&l.set, &l.dist, &shares)
        })
        .collect();
    RunOutput {
        bands,
        trace: sink.finish(),
        fft_phase_s,
    }
}

/// One rank's band shares, indexed by band.
pub(crate) type RankShares = Vec<Vec<Complex64>>;

// ---------------------------------------------------------------------
// The serial policy's batch loop, shared by every serial-policy engine
// ---------------------------------------------------------------------

/// Attempt `replays` (0 first) at batch `k`, whose first band is `base`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Attempt {
    pub k: usize,
    pub base: usize,
    pub replays: u32,
}

/// What a serial-policy engine decides around each band batch. The
/// defaults are the plain serial policy's: no checkpoint, each leg run
/// once, any error escalated.
pub(crate) trait BatchRule {
    /// Whether each batch's input shares are snapshotted for replays.
    fn checkpoints(&self) -> bool {
        false
    }

    /// The [`LegHook`] of attempt `at`.
    fn leg(
        &mut self,
        _at: Attempt,
        _leg: usize,
        buf: &mut [Complex64],
        run: &mut dyn FnMut(&mut [Complex64]),
    ) -> Result<(), VmpiError> {
        run(buf);
        Ok(())
    }

    /// Judges attempt `at`, which ended in `done`: `Ok(true)` replays it
    /// from the checkpoint, `Ok(false)` accepts it, an error ends the run.
    fn replay(&mut self, _at: Attempt, done: Result<(), VmpiError>) -> Result<bool, VmpiError> {
        done.map(|()| false)
    }
}

/// The plain serial policy's rule.
pub(crate) struct Plain;

impl BatchRule for Plain {}

/// One rank of a serial-policy run: plan once, then an allocation-free
/// steady-state loop of band batches through the arena
/// ([`SerialRank::run`]). Per outer iteration k (bands `kT .. (k+1)T`),
/// every rank `g*T + i` runs:
///
/// ```text
/// pack    : Alltoallv in the task group  (band shares -> band k*T+i on U_g)
/// FFT z   : inverse 1-D FFTs over the group's sticks
/// scatter : padded Alltoall in the strided family (sticks -> plane slab)
/// FFT xy  : inverse 2-D FFTs over the owned planes
/// VOFR    : psi(r) *= V(r)
/// FFT xy  : forward
/// scatter : Alltoall back (planes -> sticks)
/// FFT z   : forward
/// unpack  : Alltoallv back (band k*T+i -> band shares)
/// ```
pub(crate) struct SerialRank<'a> {
    problem: &'a Problem,
    /// The world, or the shrunk world after an eviction: the end barrier
    /// spans it (its clock is the world's).
    comm: Communicator,
    pack: Communicator,
    scatter: ScatterComms,
    rec: Recorder,
    sp: StagePlan,
    pub(crate) shares: RankShares,
    arena: BufferArena,
    t_start: f64,
    /// Batches replayed from their checkpoint.
    pub(crate) rollbacks: u64,
    /// Bytes of batch checkpoints taken.
    pub(crate) ckpt_bytes: u64,
}

impl<'a> SerialRank<'a> {
    /// Sets up rank `comm.rank()` on the problem's own layout, then waits
    /// at the start barrier.
    pub(crate) fn start(problem: &'a Problem, comm: &Communicator) -> Self {
        let l = &problem.layout;
        let w = comm.rank();
        let (g, i) = (l.task_group_of(w), l.member_of(w));
        let rank = SerialRank {
            problem,
            comm: comm.clone(),
            pack: comm.split(g as u64, i),
            scatter: ScatterComms::new(comm.split(i as u64, g), problem.config.decomp),
            rec: Recorder::new(comm.trace_sink(), comm.clock(), w),
            sp: StagePlan::for_problem(problem, g),
            shares: problem.initial_shares(w),
            arena: BufferArena::new(),
            t_start: 0.0,
            rollbacks: 0,
            ckpt_bytes: 0,
        };
        comm.barrier();
        SerialRank { t_start: comm.now(), ..rank }
    }

    /// Moves the rank onto layout `l` of the shrunk world `comm` (the
    /// re-plan after an eviction). The shares, recorder and arena carry
    /// over; the arena's buffers re-fit to the new geometry.
    pub(crate) fn replan(&mut self, comm: &Communicator, l: &TaskGroupLayout) {
        let me = comm.rank();
        let (g, i) = (l.task_group_of(me), l.member_of(me));
        let decomp = self.problem.config.decomp;
        self.pack = comm.split(g as u64, i);
        self.scatter = ScatterComms::new(comm.split(i as u64, g), decomp);
        self.sp = StagePlan::for_layout_decomp(l, g, decomp);
        self.comm = comm.clone();
    }

    /// Runs `batches` band batches from band `first`, each up the ladder:
    /// take a checkpoint if `rule` asks, attempt the batch, restore and
    /// replay it while `rule` says so. `after` then gets the accepted
    /// batch's index and updated shares.
    pub(crate) fn run(
        &mut self,
        first: usize,
        batches: usize,
        rule: &mut impl BatchRule,
        mut after: impl FnMut(usize, &[Vec<Complex64>]) -> Result<(), VmpiError>,
    ) -> Result<(), VmpiError> {
        let runner = self.sp.runner(&self.problem.v, &self.rec);
        let t = runner.plan.t;
        for k in 0..batches {
            let base = first + k * t;
            let batch = base..base + t;
            let checkpoint = rule.checkpoints().then(|| self.shares[batch.clone()].to_vec());
            if let Some(c) = &checkpoint {
                let len: usize = c.iter().map(Vec::len).sum();
                self.ckpt_bytes += (len * std::mem::size_of::<Complex64>()) as u64;
            }
            let mut at = Attempt { k, base, replays: 0 };
            loop {
                let done = runner.band_batch(
                    base,
                    &self.pack,
                    &self.scatter,
                    &mut self.shares,
                    &mut self.arena,
                    &mut |leg, buf, run| rule.leg(at, leg, buf, run),
                );
                if !rule.replay(at, done)? {
                    break;
                }
                let c = checkpoint.as_ref().expect("a rule that replays takes checkpoints");
                self.shares[batch.clone()].clone_from_slice(c);
                self.rollbacks += 1;
                at.replays += 1;
            }
            after(k, &self.shares[batch])?;
        }
        Ok(())
    }

    /// Seconds since the start barrier.
    pub(crate) fn elapsed(&self) -> f64 {
        self.comm.now() - self.t_start
    }

    /// Waits at the end barrier; returns the seconds since the start one.
    pub(crate) fn finish(&self) -> Result<f64, VmpiError> {
        self.comm.try_barrier()?;
        Ok(self.elapsed())
    }
}

/// The context every task of one rank shares through one rank-local `Arc`,
/// so a task clones one reference count that no other rank touches.
pub(crate) struct RankEnv {
    problem: Arc<Problem>,
    /// Records for this rank into the world's trace sink.
    rec: Recorder,
    sc: ScatterComms,
    sp: StagePlan,
    /// One arena per runtime worker (a worker runs one task at a time, so
    /// the `Shared` access check never trips).
    arenas: Vec<Shared<BufferArena>>,
}

impl RankEnv {
    /// Runs a task body `f` with a runner recording for this rank, the
    /// scatter communicators and the running worker's arena.
    pub(crate) fn with_runner<R>(
        &self,
        f: impl FnOnce(&StageRunner<'_>, &ScatterComms, &mut BufferArena) -> R,
    ) -> R {
        let runner = self.sp.runner(&self.problem.v, &self.rec);
        f(&runner, &self.sc, &mut self.arenas[fftx_trace::current_thread()].write())
    }
}

/// One task-policy rank (T = 1: every rank is its own task group): sets
/// up the task context, the runtime (recording into the rank's trace sink)
/// and the band shares, waits at the start barrier, lets `spawn` submit the
/// band tasks, drains them and waits at the end barrier. Returns the band
/// shares, the seconds between the barriers and the runtime's retries.
pub(crate) fn task_rank(
    problem: &Arc<Problem>,
    comm: &Communicator,
    spawn: impl FnOnce(&Arc<RankEnv>, &Runtime, &[Shared<Vec<Complex64>>]),
) -> Result<(RankShares, f64, u64), TaskError> {
    let cfg = problem.config;
    let w = comm.rank();
    let env = Arc::new(RankEnv {
        problem: Arc::clone(problem),
        rec: Recorder::new(comm.trace_sink(), comm.clock(), w),
        // Task layouts scatter over the whole world; the pencil split (a
        // collective) happens here, before any task runs.
        sc: ScatterComms::new(comm.clone(), cfg.decomp),
        sp: StagePlan::for_problem(problem, w),
        arenas: (0..cfg.ntg).map(|_| Shared::new(BufferArena::new())).collect(),
    });
    let shares: Vec<_> = problem.initial_shares(w).into_iter().map(Shared::new).collect();
    let mut builder = Runtime::builder(cfg.ntg).clock(comm.clock()).rank(w);
    if let Some(sink) = comm.trace_sink() {
        builder = builder.trace(sink);
    }
    let rt = builder.build();
    comm.barrier();
    let t_start = comm.now();
    spawn(&env, &rt, &shares);
    let waited = rt.try_taskwait();
    if waited.is_ok() {
        comm.barrier();
    }
    let span = comm.now() - t_start;
    let retries = rt.retries();
    let shutdown = rt.try_shutdown();
    waited?;
    shutdown?;
    let shares = shares
        .into_iter()
        .map(|s| s.try_unwrap().ok().expect("share uniquely owned after taskwait"))
        .collect();
    Ok((shares, span, retries))
}

/// Per-rank body of every task policy: build the band task graph from the
/// policy's task cut, submit it, drain it.
fn rank_tasks(
    problem: &Arc<Problem>,
    comm: &Communicator,
    policy: SchedulerPolicy,
) -> (RankShares, f64) {
    let cut = band_cut(policy);
    let (shares, span, _) = task_rank(problem, comm, |env, rt, shares| {
        let mut slots = SlotArena::new();
        let mut graph = TaskGraph::new();
        for (b, share) in shares.iter().enumerate() {
            push_band(&mut graph, &mut slots, env, cut, b, share);
        }
        rt.spawn_graph(graph);
    })
    .unwrap_or_else(|e| panic!("{e}"));
    (shares, span)
}

/// The buffers one band's tasks hand each other in a multi-task cut:
/// fresh zeroed z-stick and plane buffers (the fresh allocation is the
/// `Prep` stage) and the two in-flight scatter requests.
struct BandBufs {
    band: usize,
    tags: [u32; 2],
    zbuf: Shared<Vec<Complex64>>,
    planes: Shared<Vec<Complex64>>,
    req_fwd: Shared<Option<AlltoallRequest<Complex64>>>,
    req_bwd: Shared<Option<AlltoallRequest<Complex64>>>,
}

impl BandBufs {
    /// Runs one phase of the band against these buffers, the band's
    /// `share` and the running worker's arena `a` (scratch and staging).
    fn run(
        &self,
        runner: &StageRunner<'_>,
        sc: &ScatterComms,
        share: &Shared<Vec<Complex64>>,
        phase: Phase,
        a: &mut BufferArena,
    ) -> Result<(), VmpiError> {
        let (b, [fwd, bwd]) = (self.band, self.tags);
        match phase {
            Phase::Run(StageKind::Pack) => {
                runner.pack_local(b, &share.read(), &mut self.zbuf.write())
            }
            Phase::Run(kind @ (StageKind::FftZInv | StageKind::FftZFwd)) => {
                runner.fft_z(kind, b, &mut self.zbuf.write(), &mut a.scratch)
            }
            Phase::Run(StageKind::ScatterFwd) => runner.scatter_fwd(
                b,
                sc,
                fwd,
                &self.zbuf.read(),
                &mut self.planes.write(),
                &mut a.scatter_send,
                &mut a.scatter_recv,
                &mut a.pencil_mid,
            )?,
            Phase::Run(kind @ (StageKind::FftXyInv | StageKind::FftXyFwd)) => runner.fft_xy(
                kind,
                b,
                &mut self.planes.write(),
                &mut a.scratch,
                &mut a.col,
            ),
            Phase::Run(StageKind::Vofr) => runner.vofr(b, &mut self.planes.write()),
            Phase::Run(StageKind::ScatterBwd) => runner.scatter_bwd(
                b,
                sc,
                bwd,
                &self.planes.read(),
                &mut self.zbuf.write(),
                &mut a.scatter_send,
                &mut a.scatter_recv,
                &mut a.pencil_mid,
            )?,
            Phase::Run(StageKind::Unpack) => {
                runner.unpack_local(b, &self.zbuf.read(), &mut share.write())
            }
            Phase::Post(StageKind::ScatterFwd) => {
                let req =
                    runner.scatter_fwd_post(b, sc, fwd, &self.zbuf.read(), &mut a.scatter_send);
                *self.req_fwd.write() = Some(req);
            }
            Phase::Wait(StageKind::ScatterFwd) => {
                let req = self.req_fwd.write().take().expect("posted request");
                runner.scatter_fwd_wait(
                    b,
                    sc,
                    fwd,
                    req,
                    &mut self.planes.write(),
                    &mut a.scatter_recv,
                    &mut a.pencil_mid,
                )?
            }
            Phase::Post(StageKind::ScatterBwd) => {
                let req =
                    runner.scatter_bwd_post(b, sc, bwd, &self.planes.read(), &mut a.scatter_send);
                *self.req_bwd.write() = Some(req);
            }
            Phase::Wait(StageKind::ScatterBwd) => {
                let req = self.req_bwd.write().take().expect("posted request");
                runner.scatter_bwd_wait(
                    b,
                    sc,
                    bwd,
                    req,
                    &mut self.zbuf.write(),
                    &mut a.scatter_recv,
                    &mut a.pencil_mid,
                )?
            }
            other => unreachable!("{other:?} is not a band phase"),
        }
        Ok(())
    }
}

/// Pushes band `b`'s tasks under `cut` (see [`band_cut`]). A one-task cut
/// runs [`StageRunner::band_fused`] in the worker's arena, which prep
/// re-zeroes; a multi-task cut hands fresh per-band buffers from task to
/// task.
fn push_band(
    graph: &mut TaskGraph,
    slots: &mut SlotArena,
    env: &Arc<RankEnv>,
    cut: &'static [CutTask],
    b: usize,
    share: &Shared<Vec<Complex64>>,
) {
    let bs = BandSlots::mint(slots);
    let bufs = (cut.len() > 1).then(|| {
        let zeros = |len| Shared::new(vec![Complex64::ZERO; len]);
        Arc::new(BandBufs {
            band: b,
            tags: scatter_tags(cut.len(), b),
            zbuf: zeros(env.sp.plan.zbuf_len()),
            planes: zeros(env.sp.plan.planes_len()),
            req_fwd: Shared::new(None),
            req_bwd: Shared::new(None),
        })
    });
    let nbnd = env.problem.config.nbnd;
    for (n, (label, priority, phases)) in band_tasks(cut, b, nbnd).enumerate() {
        let (env, share, bufs) = (Arc::clone(env), share.clone(), bufs.clone());
        graph.node(label, Some(priority), task_deps(cut, n, &bs), move || {
            env.with_runner(|runner, sc, a| match &bufs {
                None => runner.band_fused(b, sc, &share, a),
                Some(bufs) => phases
                    .iter()
                    .try_for_each(|&p| bufs.run(runner, sc, &share, p, a)),
            })
            .unwrap_or_else(|e| panic!("{e}"));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_ids_are_stable_and_roundtrip() {
        for (i, k) in StageKind::ALL.iter().enumerate() {
            assert_eq!(k.id(), i as u32);
            assert_eq!(StageKind::from_id(i as u32), Some(*k));
        }
        assert_eq!(StageKind::from_id(10), None);
        assert_eq!(StageKind::ScatterFwd.id(), 3);
        assert_eq!(StageKind::Unpack.id(), 9);
    }

    #[test]
    fn pipeline_nodes_match_the_engines_dependency_wiring() {
        // The graph must encode the exact in/out/inout lists the task
        // engines hand-wired before the stage graph replaced them.
        let mut arena = SlotArena::new();
        let bs = BandSlots::mint(&mut arena);
        assert_eq!(arena.minted().len(), 5);
        let by_kind = |k: StageKind| {
            BAND_PIPELINE
                .iter()
                .find(|n| n.kind == k)
                .unwrap_or_else(|| panic!("{k:?} missing"))
        };
        use fftx_taskrt::Access;
        let pack = by_kind(StageKind::Pack).deps(&bs);
        assert_eq!(pack.len(), 2);
        assert_eq!((pack[0].handle, pack[0].access), (bs.handle(Slot::Share), Access::In));
        assert_eq!((pack[1].handle, pack[1].access), (bs.handle(Slot::Zbuf), Access::Out));
        let sc = by_kind(StageKind::ScatterFwd).deps(&bs);
        assert_eq!((sc[0].handle, sc[0].access), (bs.handle(Slot::Zbuf), Access::In));
        assert_eq!((sc[1].handle, sc[1].access), (bs.handle(Slot::Planes), Access::InOut));
        let z = by_kind(StageKind::FftZInv).deps(&bs);
        assert_eq!(z.len(), 1);
        assert_eq!(z[0].access, Access::InOut);
        let un = by_kind(StageKind::Unpack).deps(&bs);
        assert_eq!((un[1].handle, un[1].access), (bs.handle(Slot::Share), Access::Out));

        // Every task of one band under each task policy: label, priority
        // and dependency list, as the engines hand-wired them (band 1 of
        // 4, so a deferred wait sits at priority 1 + 4).
        use Access::{In, InOut, Out};
        use Slot::{Planes, ReqBwd, ReqFwd, Share, Zbuf};
        type Wiring = &'static [(&'static str, u64, &'static [(Slot, Access)])];
        const STEPS: Wiring = &[
            ("pack[1]", 1, &[(Share, In), (Zbuf, Out)]),
            ("fftz-inv[1]", 1, &[(Zbuf, InOut)]),
            ("scatter-fw[1]", 1, &[(Zbuf, In), (Planes, InOut)]),
            ("fftxy-inv[1]", 1, &[(Planes, InOut)]),
            ("vofr[1]", 1, &[(Planes, InOut)]),
            ("fftxy-fw[1]", 1, &[(Planes, InOut)]),
            ("scatter-bw[1]", 1, &[(Planes, In), (Zbuf, InOut)]),
            ("fftz-fw[1]", 1, &[(Zbuf, InOut)]),
            ("unpack[1]", 1, &[(Zbuf, In), (Share, Out)]),
        ];
        const ASYNC: Wiring = &[
            ("pack[1]", 1, &[(Share, In), (Zbuf, Out)]),
            ("fftz-inv[1]", 1, &[(Zbuf, InOut)]),
            ("scatter-fw-post[1]", 1, &[(Zbuf, In), (ReqFwd, Out)]),
            ("scatter-fw-wait[1]", 5, &[(ReqFwd, InOut), (Planes, InOut)]),
            ("fftxy-inv[1]", 1, &[(Planes, InOut)]),
            ("vofr[1]", 1, &[(Planes, InOut)]),
            ("fftxy-fw[1]", 1, &[(Planes, InOut)]),
            ("scatter-bw-post[1]", 1, &[(Planes, In), (ReqBwd, Out)]),
            ("scatter-bw-wait[1]", 5, &[(ReqBwd, InOut), (Zbuf, InOut)]),
            ("fftz-fw[1]", 1, &[(Zbuf, InOut)]),
            ("unpack[1]", 1, &[(Zbuf, In), (Share, Out)]),
        ];
        const HYBRID: Wiring = &[
            ("hyb-head[1]", 1, &[(Share, In), (Zbuf, Out), (ReqFwd, Out)]),
            (
                "hyb-mid[1]",
                5,
                &[(ReqFwd, InOut), (Planes, InOut), (ReqBwd, Out)],
            ),
            (
                "hyb-tail[1]",
                5,
                &[(ReqBwd, InOut), (Zbuf, InOut), (Share, Out)],
            ),
        ];
        const FFT: Wiring = &[("fft-band-1", 1, &[(Share, InOut)])];
        for (policy, wiring) in [
            (SchedulerPolicy::TaskPerStep, STEPS),
            (SchedulerPolicy::TaskAsync, ASYNC),
            (SchedulerPolicy::Hybrid, HYBRID),
            (SchedulerPolicy::TaskPerFft, FFT),
        ] {
            let cut = band_cut(policy);
            let tasks: Vec<_> = band_tasks(cut, 1, 4).collect();
            assert_eq!(tasks.len(), wiring.len(), "{policy:?}");
            for (n, ((label, priority, _), want)) in tasks.into_iter().zip(wiring).enumerate() {
                let deps: Vec<_> = task_deps(cut, n, &bs)
                    .iter()
                    .map(|d| (d.handle, d.access))
                    .collect();
                let want_deps: Vec<_> = want.2.iter().map(|&(s, a)| (bs.handle(s), a)).collect();
                assert_eq!((label.as_str(), priority), (want.0, want.1), "{policy:?}");
                assert_eq!(deps, want_deps, "{policy:?} {label}");
            }
        }
    }

    #[test]
    fn split_scatter_wait_returns_transport_errors() {
        // Every chunk corrupted in flight: the wait half must hand the
        // checksum failure back as a value, not panic inside the runner.
        use crate::config::FftxConfig;
        use fftx_fault::PayloadCorrupt;
        let problem = Problem::new(FftxConfig::small(2, 1, SchedulerPolicy::TaskAsync));
        let chaos = ChaosConfig {
            seed: 7,
            ..ChaosConfig::default()
        }
        .with_corruption(PayloadCorrupt::new(7, 1.0));
        let world = World::new(2)
            .with_timeout(std::time::Duration::from_secs(10))
            .with_chaos(chaos);
        let results = world.run(|comm| {
            let w = comm.rank();
            let sc = ScatterComms::new(comm.clone(), Decomposition::Slab);
            let rec = Recorder::new(None, comm.clock(), w);
            let sp = StagePlan::for_problem(&problem, w);
            let runner = sp.runner(&problem.v, &rec);
            let zbuf = vec![Complex64::ZERO; sp.plan.zbuf_len()];
            let mut planes = vec![Complex64::ZERO; sp.plan.planes_len()];
            let (mut send, mut recv, mut mid) = (Vec::new(), Vec::new(), Vec::new());
            let req = runner.scatter_fwd_post(0, &sc, 0, &zbuf, &mut send);
            runner.scatter_fwd_wait(0, &sc, 0, req, &mut planes, &mut recv, &mut mid)
        });
        for r in results {
            assert!(matches!(r, Err(VmpiError::Integrity { .. })), "got {r:?}");
        }
    }

    #[test]
    #[should_panic(expected = "must match the scheduler policy")]
    fn run_policy_rejects_a_policy_other_than_the_configs() {
        use crate::config::FftxConfig;
        let problem = Problem::new(FftxConfig::small(1, 1, SchedulerPolicy::Serial));
        run_policy(&problem, SchedulerPolicy::TaskPerFft);
    }

    #[test]
    fn stage_names_are_the_label_stems() {
        assert_eq!(StageKind::Pack.name(), "pack");
        assert_eq!(StageKind::ScatterBwd.name(), "scatter-bw");
        assert_eq!(StageKind::Vofr.class(), StateClass::Vofr);
        assert_eq!(StageKind::Prep.class(), StateClass::PsiPrep);
    }

    #[test]
    fn pencil_decomposition_matches_slab_bitwise_across_policies() {
        use crate::config::{Decomposition, FftxConfig};
        use crate::problem::Problem;
        // (4,1) and (6,1) factorise into real 2×2 / 2×3 process grids;
        // (2,2) exercises the degenerate prime family (p2 = 1).
        for policy in SchedulerPolicy::ALL {
            for (nr, ntg) in [(4, 1), (6, 1), (2, 2)] {
                let slab = FftxConfig::small(nr, ntg, policy);
                let pencil = slab.with_decomp(Decomposition::Pencil);
                let a = run_policy(&Problem::new(slab), policy);
                let b = run_policy(&Problem::new(pencil), policy);
                assert_eq!(
                    a.bands,
                    b.bands,
                    "pencil must be bitwise-identical to slab: {} {}x{}",
                    policy.name(),
                    nr,
                    ntg
                );
            }
        }
    }
}
