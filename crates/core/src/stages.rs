//! The unified stage-graph execution core.
//!
//! Every engine in this crate runs the same per-band pipeline — pack,
//! z-FFT, forward scatter, xy-FFTs around VOFR, backward scatter, z-FFT,
//! unpack. Historically each engine (`original`, the two OmpSs strategies,
//! the split-phase variant) hand-wired that pipeline a second, third and
//! fourth time; this module replaces them with **one typed stage graph**
//! executed by interchangeable **scheduler policies**:
//!
//! * [`StageKind`] / [`StageNode`] / [`BAND_PIPELINE`] — the declarative
//!   graph: each stage declares which logical [`Slot`]s it reads and
//!   writes. Node ids are stable, so traces, histograms and recovery key
//!   on the graph instead of on per-mode label conventions.
//! * [`StageRunner`] — the one implementation of every stage's math and
//!   data movement against [`ExecPlan`]/[`BufferArena`], recording the
//!   per-stage trace spans ([`crate::recorder::Recorder::stage`]) once for
//!   all policies. Recovery replays ([`StageRunner::band_batch`],
//!   [`StageRunner::band_fused`]) and fault injection hook here too.
//! * [`SchedulerPolicy`] — how the graph is scheduled:
//!   [`SchedulerPolicy::Serial`] (the original static loop),
//!   [`SchedulerPolicy::TaskPerStep`] (strategy 1: one task per stage,
//!   flow dependencies), [`SchedulerPolicy::TaskPerFft`] (strategy 2: the
//!   whole band is one task), [`SchedulerPolicy::TaskAsync`] (split-phase
//!   scatters), and the paper's future-work [`SchedulerPolicy::Hybrid`].
//!
//! **The hybrid policy** (Section VI of the paper) combines both
//! strategies: each band becomes a *chain of three* fused tasks — head
//! (pack + z-FFT + scatter post), mid (scatter wait + xy-FFTs + VOFR +
//! return post) and tail (wait + z-FFT + unpack) — whose boundaries are
//! exactly the nonblocking collectives. Communication overlaps other
//! bands' compute (strategy 1's win) *and* the coarse per-band tasks
//! de-synchronise the compute phases across ranks (strategy 2's win).
//! Deadlock freedom follows the split-phase argument of the async mode:
//! posts live at the *end* of never-blocking tasks at band priority, so
//! every rank drains all posts of a band before any worker can idle in the
//! matching wait (waits carry deferred priority `b + nbnd`).
//!
//! Task policies build a [`fftx_taskrt::TaskGraph`] whose dependencies are
//! declared over pure slots minted by [`fftx_taskrt::SlotArena`]
//! (`taskrt`'s dependency-slot spawn API): the graph shape comes from
//! [`BAND_PIPELINE`], the data placement from the policy.

use crate::config::{Decomposition, SchedulerPolicy};
use crate::plan::{BufferArena, ExecPlan};
use crate::problem::Problem;
use crate::recorder::Recorder;
use fftx_fft::{cft_1z, cft_2xy_sticks, opcount, Complex64, Direction};
use fftx_pw::{apply_potential_slab, assemble_shares, ProcessGrid, TaskGroupLayout};
use fftx_taskrt::{Dep, Handle, Runtime, Shared, SlotArena, TaskGraph};
use fftx_trace::{StateClass, Trace, TraceSink};
use fftx_vmpi::{
    AlltoallRequest, ChaosConfig, Communicator, FaultReport, VmpiError, World,
};
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

/// The per-band pipeline as task-graph nodes. `Prep` is absent: task
/// policies give every band fresh zeroed buffers (prep is what a fresh
/// allocation already did), while the serial policy runs it explicitly
/// against its reused arena.
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

    /// The decomposition this bundle serves.
    pub fn decomp(&self) -> Decomposition {
        if self.pencil.is_some() {
            Decomposition::Pencil
        } else {
            Decomposition::Slab
        }
    }
}

impl Clone for ScatterComms {
    fn clone(&self) -> Self {
        ScatterComms {
            full: self.full.clone(),
            pencil: self.pencil.as_ref().map(|p| PencilComms {
                row: p.row.clone(),
                col: p.col.clone(),
            }),
        }
    }
}

// ---------------------------------------------------------------------
// Plan bundle (the one re-plan path)
// ---------------------------------------------------------------------

/// Execution plan plus flop estimates for one task group — everything a
/// [`StageRunner`] needs that depends on the layout. Built once per rank
/// through [`StagePlan::for_problem`]; recovery's eviction path rebuilds it
/// through [`StagePlan::for_layout`] after shrinking the world, so a single
/// re-plan covers every scheduler policy.
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

    /// A plan for task group `g` of an explicit layout (the mid-run re-plan
    /// after a rank eviction, where the layout is only known at runtime).
    pub fn for_layout(l: &TaskGroupLayout, g: usize) -> Self {
        Self::for_layout_decomp(l, g, Decomposition::Slab)
    }

    /// [`StagePlan::for_layout`] under an explicit decomposition — the
    /// eviction re-plan must keep the surviving ranks on the decomposition
    /// the run started with.
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
        req.wait_into(recv);
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
    /// z-FFT) over the arena's buffers. `tag` keeps concurrent scatters of
    /// different bands apart.
    pub fn transform(
        &self,
        band: usize,
        sc: &ScatterComms,
        tag: u32,
        a: &mut BufferArena,
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
        self.fft_z(StageKind::FftZInv, band, zbuf, scratch);
        self.scatter_fwd(band, sc, tag, zbuf, planes, scatter_send, scatter_recv, pencil_mid)?;
        self.fft_xy(StageKind::FftXyInv, band, planes, scratch, col);
        self.vofr(band, planes);
        self.fft_xy(StageKind::FftXyFwd, band, planes, scratch, col);
        self.scatter_bwd(band, sc, tag, planes, zbuf, scatter_send, scatter_recv, pencil_mid)?;
        self.fft_z(StageKind::FftZFwd, band, zbuf, scratch);
        Ok(())
    }

    /// One band batch of the serial policy (bands `base .. base + T`):
    /// prep, collective pack, transform, collective unpack — every
    /// collective fallible. This is also recovery's replay unit: when
    /// `inject_abort` is set the batch fails *mid-flight* with the same
    /// typed error a real watchdog expiry produces (the pack collective has
    /// completed — its sequence number is consumed symmetrically on every
    /// rank — the scatter never runs), so the rollback path cannot tell it
    /// from a real timeout.
    #[allow(clippy::too_many_arguments)]
    pub fn band_batch(
        &self,
        base: usize,
        pack_comm: &Communicator,
        scatter_comm: &ScatterComms,
        shares: &mut [Vec<Complex64>],
        a: &mut BufferArena,
        inject_abort: bool,
    ) -> Result<(), VmpiError> {
        self.prep(base, &mut a.zbuf, &mut a.planes);
        self.pack_exchange(base, shares, pack_comm, a)?;
        if inject_abort {
            return Err(VmpiError::Timeout {
                message: format!(
                    "vmpi deadlock: injected collective timeout in band batch starting at band {base}"
                ),
                diagnostic: String::new(),
            });
        }
        self.transform(base, scatter_comm, 0, a)?;
        self.unpack_exchange(base, shares, pack_comm, a)?;
        Ok(())
    }

    /// One whole band as a single fused body (the task-per-FFT policy and
    /// recovery's retryable band tasks): idempotent over the input
    /// snapshot — read the share, compute in the worker's arena (prep
    /// re-zeroes it on every attempt), write the share last.
    pub fn band_fused(
        &self,
        band: usize,
        sc: &ScatterComms,
        share: &Shared<Vec<Complex64>>,
        a: &mut BufferArena,
    ) -> Result<(), VmpiError> {
        self.prep(band, &mut a.zbuf, &mut a.planes);
        self.pack_local(band, &share.read(), &mut a.zbuf);
        self.transform(band, sc, band as u32, a)?;
        self.unpack_local(band, &a.zbuf, &mut share.write());
        Ok(())
    }
}

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

/// One empty arena per runtime worker; task bodies index with
/// [`fftx_trace::current_thread`] (a worker runs one task at a time, so
/// the `Shared` access check never trips).
pub(crate) fn worker_arenas(workers: usize) -> Arc<Vec<Shared<BufferArena>>> {
    Arc::new((0..workers).map(|_| Shared::new(BufferArena::new())).collect())
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
        SchedulerPolicy::Serial => rank_serial(problem, comm),
        _ => rank_tasks(problem, comm, policy),
    });
    let report = world.fault_report();
    (finish_run(problem, sink, results), report)
}

/// Reassembles bands from per-rank shares and closes the trace.
pub(crate) fn finish_run(
    problem: &Problem,
    sink: TraceSink,
    results: Vec<(Vec<Vec<Complex64>>, f64)>,
) -> RunOutput {
    let fft_phase_s = results
        .iter()
        .map(|(_, t)| *t)
        .fold(0.0_f64, f64::max);
    let nbnd = problem.config.nbnd;
    let bands = (0..nbnd)
        .map(|b| {
            let shares: Vec<Vec<Complex64>> =
                results.iter().map(|(s, _)| s[b].clone()).collect();
            assemble_shares(&problem.layout.set, &problem.layout.dist, &shares)
        })
        .collect();
    RunOutput {
        bands,
        trace: sink.finish(),
        fft_phase_s,
    }
}

/// Per-rank body of the serial policy: plan once, then an allocation-free
/// steady-state loop of band batches through the arena. Per outer
/// iteration k (bands `kT .. (k+1)T`), every rank `g*T + i` runs:
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
fn rank_serial(problem: &Problem, comm: &Communicator) -> (Vec<Vec<Complex64>>, f64) {
    let cfg = problem.config;
    let l = &problem.layout;
    let w = comm.rank();
    let g = l.task_group_of(w);
    let i = l.member_of(w);

    let pack_comm = comm.split(g as u64, i);
    let scatter_comm = ScatterComms::new(comm.split(i as u64, g), cfg.decomp);
    let rec = Recorder::new(comm.trace_sink(), comm.clock(), w);
    let sp = StagePlan::for_problem(problem, g);
    let runner = sp.runner(&problem.v, &rec);
    let mut shares = problem.initial_shares(w);
    let mut arena = BufferArena::new();

    comm.barrier();
    let t_start = comm.now();
    for k in 0..cfg.iterations() {
        runner
            .band_batch(k * l.t, &pack_comm, &scatter_comm, &mut shares, &mut arena, false)
            .unwrap_or_else(|e| panic!("{e}"));
    }
    comm.barrier();
    let t_end = comm.now();
    (shares, t_end - t_start)
}

/// Context cloned into every task of one rank.
struct RankEnv {
    problem: Arc<Problem>,
    comm: Communicator,
    sc: Arc<ScatterComms>,
    sp: Arc<StagePlan>,
    arenas: Arc<Vec<Shared<BufferArena>>>,
}

impl RankEnv {
    fn recorder(&self) -> Recorder {
        Recorder::new(self.comm.trace_sink(), self.comm.clock(), self.comm.rank())
    }

    /// The running worker's arena (one task per worker at a time).
    fn arena(&self) -> &Shared<BufferArena> {
        &self.arenas[fftx_trace::current_thread()]
    }
}

impl Clone for RankEnv {
    fn clone(&self) -> Self {
        RankEnv {
            problem: Arc::clone(&self.problem),
            comm: self.comm.clone(),
            sc: Arc::clone(&self.sc),
            sp: Arc::clone(&self.sp),
            arenas: Arc::clone(&self.arenas),
        }
    }
}

/// Per-rank body of every task policy: build the band task graph per the
/// policy, submit it, drain it.
fn rank_tasks(
    problem: &Arc<Problem>,
    comm: &Communicator,
    policy: SchedulerPolicy,
) -> (Vec<Vec<Complex64>>, f64) {
    let cfg = problem.config;
    let w = comm.rank();
    let g = w; // task layouts have t = 1: every rank is its own task group
    let env = RankEnv {
        problem: Arc::clone(problem),
        comm: comm.clone(),
        // Task layouts scatter over the whole world; the pencil split (a
        // collective) happens here, before any task runs.
        sc: Arc::new(ScatterComms::new(comm.clone(), cfg.decomp)),
        sp: Arc::new(StagePlan::for_problem(problem, g)),
        arenas: worker_arenas(cfg.ntg),
    };
    let shares: Vec<Shared<Vec<Complex64>>> = problem
        .initial_shares(w)
        .into_iter()
        .map(Shared::new)
        .collect();

    let mut builder = Runtime::builder(cfg.ntg).clock(comm.clock()).rank(w);
    if let Some(sink) = comm.trace_sink() {
        builder = builder.trace(sink);
    }
    let rt = builder.build();

    comm.barrier();
    let t_start = comm.now();
    let mut slots = SlotArena::new();
    let mut graph = TaskGraph::new();
    for (b, share) in shares.iter().enumerate() {
        match policy {
            SchedulerPolicy::TaskPerFft => push_band_fused(&mut graph, &mut slots, &env, b, share),
            SchedulerPolicy::TaskPerStep => {
                push_band_steps(&mut graph, &mut slots, &env, b, share, false)
            }
            SchedulerPolicy::TaskAsync => {
                push_band_steps(&mut graph, &mut slots, &env, b, share, true)
            }
            SchedulerPolicy::Hybrid => push_band_hybrid(&mut graph, &mut slots, &env, b, share),
            SchedulerPolicy::Serial => unreachable!("serial policy has no task graph"),
        }
    }
    rt.spawn_graph(graph);
    rt.taskwait();
    comm.barrier();
    let t_end = comm.now();
    rt.shutdown();

    let shares = shares
        .into_iter()
        .map(|s| s.try_unwrap().ok().expect("share uniquely owned after taskwait"))
        .collect();
    (shares, t_end - t_start)
}

/// Strategy 2: the whole band pipeline is one independent task — the
/// graph collapses to a single node whose only external dependency is the
/// band share (every other slot is task-private).
fn push_band_fused(
    graph: &mut TaskGraph,
    slots: &mut SlotArena,
    env: &RankEnv,
    b: usize,
    share: &Shared<Vec<Complex64>>,
) {
    let bs = BandSlots::mint(slots);
    let env = env.clone();
    let share = share.clone();
    graph.node(
        format!("fft-band-{b}"),
        Some(b as u64),
        vec![bs.handle(Slot::Share).dep_inout()],
        move || {
            let rec = env.recorder();
            let runner = env.sp.runner(&env.problem.v, &rec);
            let mut guard = env.arena().write();
            runner
                .band_fused(b, &env.sc, &share, &mut guard)
                .unwrap_or_else(|e| panic!("{e}"));
        },
    );
}

/// Strategies 1 (blocking scatters) and async (`split` — scatters become
/// post/wait node pairs): one node per [`BAND_PIPELINE`] stage, with the
/// dependency lists derived from the declared slot accesses. Fresh zeroed
/// per-band buffers carry the data between stages (and already cover the
/// `Prep` stage).
fn push_band_steps(
    graph: &mut TaskGraph,
    slots: &mut SlotArena,
    env: &RankEnv,
    b: usize,
    share: &Shared<Vec<Complex64>>,
    split: bool,
) {
    type Req = Shared<Option<AlltoallRequest<Complex64>>>;
    let cfg = env.problem.config;
    let bs = BandSlots::mint(slots);
    let prio = Some(b as u64);
    let deferred = Some((b + cfg.nbnd) as u64);
    let zbuf: Shared<Vec<Complex64>> =
        Shared::new(vec![Complex64::ZERO; env.sp.plan.zbuf_len()]);
    let planes: Shared<Vec<Complex64>> =
        Shared::new(vec![Complex64::ZERO; env.sp.plan.planes_len()]);
    let req_fwd: Req = Shared::new(None);
    let req_bwd: Req = Shared::new(None);

    for node in &BAND_PIPELINE {
        let kind = node.kind;
        let label = format!("{}[{b}]", kind.name());
        match kind {
            StageKind::Pack => {
                let (env, share, zbuf) = (env.clone(), share.clone(), zbuf.clone());
                graph.node(label, prio, node.deps(&bs), move || {
                    let rec = env.recorder();
                    let runner = env.sp.runner(&env.problem.v, &rec);
                    runner.pack_local(b, &share.read(), &mut zbuf.write());
                });
            }
            StageKind::FftZInv | StageKind::FftZFwd => {
                let (env, zbuf) = (env.clone(), zbuf.clone());
                graph.node(label, prio, node.deps(&bs), move || {
                    let rec = env.recorder();
                    let runner = env.sp.runner(&env.problem.v, &rec);
                    let mut guard = env.arena().write();
                    runner.fft_z(kind, b, &mut zbuf.write(), &mut guard.scratch);
                });
            }
            StageKind::ScatterFwd if split => {
                // post: in(zbuf) out(req) — never blocks.
                {
                let (env, zbuf, rq) = (env.clone(), zbuf.clone(), req_fwd.clone());
                graph.node(
                    format!("{}-post[{b}]", kind.name()),
                    prio,
                    vec![bs.handle(Slot::Zbuf).dep_in(), bs.handle(Slot::ReqFwd).dep_out()],
                    move || {
                        let rec = env.recorder();
                        let runner = env.sp.runner(&env.problem.v, &rec);
                        let mut guard = env.arena().write();
                        *rq.write() = Some(runner.scatter_fwd_post(
                            b,
                            &env.sc,
                            (2 * b) as u32,
                            &zbuf.read(),
                            &mut guard.scatter_send,
                        ));
                    },
                );
                }
                // wait: inout(req) inout(planes) — deferred priority lets
                // workers run other bands' compute while the transfer is
                // in flight; posts are plain compute tasks and always
                // preferred, so this can never deadlock.
                let (env, planes, rq) = (env.clone(), planes.clone(), req_fwd.clone());
                graph.node(
                    format!("{}-wait[{b}]", kind.name()),
                    deferred,
                    vec![
                        bs.handle(Slot::ReqFwd).dep_inout(),
                        bs.handle(Slot::Planes).dep_inout(),
                    ],
                    move || {
                        let rec = env.recorder();
                        let runner = env.sp.runner(&env.problem.v, &rec);
                        let mut guard = env.arena().write();
                        let a = &mut *guard;
                        let req = rq.write().take().expect("posted request");
                        runner
                            .scatter_fwd_wait(
                                b,
                                &env.sc,
                                (2 * b) as u32,
                                req,
                                &mut planes.write(),
                                &mut a.scatter_recv,
                                &mut a.pencil_mid,
                            )
                            .unwrap_or_else(|e| panic!("{e}"));
                    },
                );
            }
            StageKind::ScatterFwd => {
                let (env, zbuf, planes) = (env.clone(), zbuf.clone(), planes.clone());
                graph.node(label, prio, node.deps(&bs), move || {
                    let rec = env.recorder();
                    let runner = env.sp.runner(&env.problem.v, &rec);
                    let mut guard = env.arena().write();
                    let a = &mut *guard;
                    runner
                        .scatter_fwd(
                            b,
                            &env.sc,
                            (2 * b) as u32,
                            &zbuf.read(),
                            &mut planes.write(),
                            &mut a.scatter_send,
                            &mut a.scatter_recv,
                            &mut a.pencil_mid,
                        )
                        .unwrap_or_else(|e| panic!("{e}"));
                });
            }
            StageKind::FftXyInv | StageKind::FftXyFwd => {
                let (env, planes) = (env.clone(), planes.clone());
                graph.node(label, prio, node.deps(&bs), move || {
                    let rec = env.recorder();
                    let runner = env.sp.runner(&env.problem.v, &rec);
                    let mut guard = env.arena().write();
                    let a = &mut *guard;
                    runner.fft_xy(kind, b, &mut planes.write(), &mut a.scratch, &mut a.col);
                });
            }
            StageKind::Vofr => {
                let (env, planes) = (env.clone(), planes.clone());
                graph.node(label, prio, node.deps(&bs), move || {
                    let rec = env.recorder();
                    let runner = env.sp.runner(&env.problem.v, &rec);
                    runner.vofr(b, &mut planes.write());
                });
            }
            StageKind::ScatterBwd if split => {
                {
                let (env, planes, rq) = (env.clone(), planes.clone(), req_bwd.clone());
                graph.node(
                    format!("{}-post[{b}]", kind.name()),
                    prio,
                    vec![bs.handle(Slot::Planes).dep_in(), bs.handle(Slot::ReqBwd).dep_out()],
                    move || {
                        let rec = env.recorder();
                        let runner = env.sp.runner(&env.problem.v, &rec);
                        let mut guard = env.arena().write();
                        *rq.write() = Some(runner.scatter_bwd_post(
                            b,
                            &env.sc,
                            (2 * b + 1) as u32,
                            &planes.read(),
                            &mut guard.scatter_send,
                        ));
                    },
                );
                }
                let (env, zbuf, rq) = (env.clone(), zbuf.clone(), req_bwd.clone());
                graph.node(
                    format!("{}-wait[{b}]", kind.name()),
                    deferred,
                    vec![
                        bs.handle(Slot::ReqBwd).dep_inout(),
                        bs.handle(Slot::Zbuf).dep_inout(),
                    ],
                    move || {
                        let rec = env.recorder();
                        let runner = env.sp.runner(&env.problem.v, &rec);
                        let mut guard = env.arena().write();
                        let a = &mut *guard;
                        let req = rq.write().take().expect("posted request");
                        runner
                            .scatter_bwd_wait(
                                b,
                                &env.sc,
                                (2 * b + 1) as u32,
                                req,
                                &mut zbuf.write(),
                                &mut a.scatter_recv,
                                &mut a.pencil_mid,
                            )
                            .unwrap_or_else(|e| panic!("{e}"));
                    },
                );
            }
            StageKind::ScatterBwd => {
                let (env, zbuf, planes) = (env.clone(), zbuf.clone(), planes.clone());
                graph.node(label, prio, node.deps(&bs), move || {
                    let rec = env.recorder();
                    let runner = env.sp.runner(&env.problem.v, &rec);
                    let mut guard = env.arena().write();
                    let a = &mut *guard;
                    runner
                        .scatter_bwd(
                            b,
                            &env.sc,
                            (2 * b + 1) as u32,
                            &planes.read(),
                            &mut zbuf.write(),
                            &mut a.scatter_send,
                            &mut a.scatter_recv,
                            &mut a.pencil_mid,
                        )
                        .unwrap_or_else(|e| panic!("{e}"));
                });
            }
            StageKind::Unpack => {
                let (env, share, zbuf) = (env.clone(), share.clone(), zbuf.clone());
                graph.node(label, prio, node.deps(&bs), move || {
                    let rec = env.recorder();
                    let runner = env.sp.runner(&env.problem.v, &rec);
                    runner.unpack_local(b, &zbuf.read(), &mut share.write());
                });
            }
            StageKind::Prep => unreachable!("Prep is not a BAND_PIPELINE node"),
        }
    }
}

/// The hybrid policy: the band's nine stages fused into a chain of three
/// tasks cut exactly at the nonblocking collectives.
///
/// * **head** `in(share) out(zbuf) out(req_fwd)`, priority `b`:
///   pack + inverse z-FFT + forward-scatter *post* — never blocks;
/// * **mid** `inout(req_fwd) inout(planes) out(req_bwd)`, priority
///   `b + nbnd`: forward wait + xy-FFTs/VOFR + backward-scatter *post*;
/// * **tail** `inout(req_bwd) inout(zbuf) out(share)`, priority
///   `b + nbnd`: backward wait + forward z-FFT + unpack.
///
/// Three coarse tasks per band de-synchronise compute across ranks like
/// task-per-FFT, while the split-phase cuts overlap both transfers with
/// other bands' work like task-per-step/async.
fn push_band_hybrid(
    graph: &mut TaskGraph,
    slots: &mut SlotArena,
    env: &RankEnv,
    b: usize,
    share: &Shared<Vec<Complex64>>,
) {
    type Req = Shared<Option<AlltoallRequest<Complex64>>>;
    let cfg = env.problem.config;
    let bs = BandSlots::mint(slots);
    let deferred = Some((b + cfg.nbnd) as u64);
    let zbuf: Shared<Vec<Complex64>> =
        Shared::new(vec![Complex64::ZERO; env.sp.plan.zbuf_len()]);
    let planes: Shared<Vec<Complex64>> =
        Shared::new(vec![Complex64::ZERO; env.sp.plan.planes_len()]);
    let req_fwd: Req = Shared::new(None);
    let req_bwd: Req = Shared::new(None);

    // head: pack + z-FFT + forward post.
    {
        let (env, share, zbuf, rq) = (env.clone(), share.clone(), zbuf.clone(), req_fwd.clone());
        graph.node(
            format!("hyb-head[{b}]"),
            Some(b as u64),
            vec![
                bs.handle(Slot::Share).dep_in(),
                bs.handle(Slot::Zbuf).dep_out(),
                bs.handle(Slot::ReqFwd).dep_out(),
            ],
            move || {
                let rec = env.recorder();
                let runner = env.sp.runner(&env.problem.v, &rec);
                let mut zb = zbuf.write();
                runner.pack_local(b, &share.read(), &mut zb);
                let mut guard = env.arena().write();
                let a = &mut *guard;
                runner.fft_z(StageKind::FftZInv, b, &mut zb, &mut a.scratch);
                *rq.write() = Some(runner.scatter_fwd_post(
                    b,
                    &env.sc,
                    (2 * b) as u32,
                    &zb,
                    &mut a.scatter_send,
                ));
            },
        );
    }

    // mid: forward wait + xy-FFTs/VOFR + backward post.
    {
        let (env, planes) = (env.clone(), planes.clone());
        let (rqf, rqb) = (req_fwd.clone(), req_bwd.clone());
        graph.node(
            format!("hyb-mid[{b}]"),
            deferred,
            vec![
                bs.handle(Slot::ReqFwd).dep_inout(),
                bs.handle(Slot::Planes).dep_inout(),
                bs.handle(Slot::ReqBwd).dep_out(),
            ],
            move || {
                let rec = env.recorder();
                let runner = env.sp.runner(&env.problem.v, &rec);
                let mut pl = planes.write();
                let mut guard = env.arena().write();
                let a = &mut *guard;
                let req = rqf.write().take().expect("posted request");
                runner
                    .scatter_fwd_wait(
                        b,
                        &env.sc,
                        (2 * b) as u32,
                        req,
                        &mut pl,
                        &mut a.scatter_recv,
                        &mut a.pencil_mid,
                    )
                    .unwrap_or_else(|e| panic!("{e}"));
                runner.fft_xy(StageKind::FftXyInv, b, &mut pl, &mut a.scratch, &mut a.col);
                runner.vofr(b, &mut pl);
                runner.fft_xy(StageKind::FftXyFwd, b, &mut pl, &mut a.scratch, &mut a.col);
                *rqb.write() = Some(runner.scatter_bwd_post(
                    b,
                    &env.sc,
                    (2 * b + 1) as u32,
                    &pl,
                    &mut a.scatter_send,
                ));
            },
        );
    }

    // tail: backward wait + z-FFT + unpack.
    {
        let (env, share, zbuf, rq) = (env.clone(), share.clone(), zbuf.clone(), req_bwd.clone());
        graph.node(
            format!("hyb-tail[{b}]"),
            deferred,
            vec![
                bs.handle(Slot::ReqBwd).dep_inout(),
                bs.handle(Slot::Zbuf).dep_inout(),
                bs.handle(Slot::Share).dep_out(),
            ],
            move || {
                let rec = env.recorder();
                let runner = env.sp.runner(&env.problem.v, &rec);
                let mut zb = zbuf.write();
                let mut guard = env.arena().write();
                let a = &mut *guard;
                let req = rq.write().take().expect("posted request");
                runner
                    .scatter_bwd_wait(
                        b,
                        &env.sc,
                        (2 * b + 1) as u32,
                        req,
                        &mut zb,
                        &mut a.scatter_recv,
                        &mut a.pencil_mid,
                    )
                    .unwrap_or_else(|e| panic!("{e}"));
                runner.fft_z(StageKind::FftZFwd, b, &mut zb, &mut a.scratch);
                runner.unpack_local(b, &zb, &mut share.write());
            },
        );
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
